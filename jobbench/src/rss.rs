//! Peak resident memory of a process, from `/proc/<pid>/status`.

/// Peak resident set size (`VmHWM`) of process `pid`, in bytes.
pub fn peak_rss_bytes(pid: u32) -> std::io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_vm_hwm(&status).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM line in /proc status")
    })
}

/// The `VmHWM` field of a `/proc/<pid>/status` text, in bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value * 1024),
        _ => None,
    }
}
