//! Spans kept in memory, their self times, Chrome trace-event output, and
//! the layer-by-layer comparison of two traced runs.
//!
//! A span is recorded by the benchmark's own code around a call into one
//! layer's public functions.  Spans of one statement (or ingest cycle, or
//! wire request) share a request id; the span that caused another is its
//! parent.  A span's self time is its duration minus the part of it that
//! its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use qob_server::Json;

/// One finished span.  Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request id shared by every span of one statement, cycle or request.
    pub request: u64,
    /// Chrome-trace thread lane (one per client connection).
    pub lane: u32,
    /// Layer name, e.g. `sql.parse`.
    pub name: String,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; written out once the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Nanoseconds from the epoch to `instant`.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            lane,
            name: name.to_owned(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's id.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, parent, request, 0, start, end))
    }

    /// Opens a span whose children are recorded before [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<u64>, request: u64) -> u64 {
        let now = self.now_ns();
        self.record(name, parent, request, 0, now, now)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: u64) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.end_ns = now.max(span.start_ns);
        }
    }

    /// The span with id `id`.
    pub fn span(&self, id: u64) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the spans of another tracer (e.g. one per client thread),
    /// renumbering them after this tracer's own and shifting their times
    /// onto this tracer's epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u64;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        for mut span in other.spans {
            span.id += base;
            span.parent = span.parent.map(|p| p + base);
            span.start_ns += shift;
            span.end_ns += shift;
            self.spans.push(span);
        }
    }
}

/// The self time of every span (same order as `spans`): its duration minus
/// the union of its children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = span.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals of a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Totals per span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, LayerTotals> {
    let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name.clone()).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    out
}

/// The spans as a Chrome trace-event JSON array of complete (`X`) events,
/// loadable in `about://tracing` and Perfetto — the format
/// `qob connect --trace-out` writes.  Ids, parents and request ids travel in
/// `args`, so [`from_chrome`] can rebuild the span tree.
pub fn to_chrome(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("id", num(s.id)), ("request", num(s.request))];
            if let Some(parent) = s.parent {
                args.push(("parent", num(parent)));
            }
            Json::obj(vec![
                ("name", Json::str(s.name.clone())),
                ("cat", Json::str("jobbench")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.lane) + 1.0)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::Arr(events).to_string()
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

/// Reads spans back from a file written by [`to_chrome`].
pub fn from_chrome(text: &str) -> Result<Vec<Span>, String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let events = json.as_array().ok_or("a Chrome trace file holds a JSON array")?;
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            let field = |key: &str| e.get(key).and_then(Json::as_f64);
            let arg = |key: &str| e.get("args").and_then(|a| a.get(key)).and_then(Json::as_u64);
            let name = e.get("name").and_then(Json::as_str).ok_or("event without a name")?;
            let ts = field("ts").ok_or("event without ts")?;
            let dur = field("dur").ok_or("event without dur")?;
            let start_ns = (ts * 1e3).round() as u64;
            Ok(Span {
                id: arg("id").ok_or("event without args.id")?,
                parent: arg("parent"),
                request: arg("request").unwrap_or(0),
                lane: (field("tid").unwrap_or(1.0) as u32).saturating_sub(1),
                name: name.to_owned(),
                start_ns,
                end_ns: start_ns + (dur * 1e3).round() as u64,
            })
        })
        .collect()
}

/// A layer-by-layer comparison of two traced runs: for every span name,
/// each side's count and self time (total, and per span so runs with
/// different pass counts compare), the change in per-span self time, and
/// the base it is relative to.
pub fn compare(base: &[Span], change: &[Span]) -> String {
    let a = summarize(base);
    let b = summarize(change);
    let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
    names.sort();
    names.dedup();
    let mut out = format!(
        "{:<22} {:>8} {:>12} {:>11} {:>8} {:>12} {:>11} {:>9}\n",
        "span", "base_n", "base_self_ms", "base_us/n", "new_n", "new_self_ms", "new_us/n", "change"
    );
    for name in names {
        let (x, y) =
            (a.get(name).copied().unwrap_or_default(), b.get(name).copied().unwrap_or_default());
        let per = |t: LayerTotals| {
            if t.count == 0 {
                0.0
            } else {
                t.self_ns as f64 / t.count as f64 / 1e3
            }
        };
        let change = if per(x) > 0.0 && y.count > 0 {
            format!("{:+.1}%", (per(y) / per(x) - 1.0) * 100.0)
        } else {
            "n/a".to_owned()
        };
        out.push_str(&format!(
            "{:<22} {:>8} {:>12.3} {:>11.2} {:>8} {:>12.3} {:>11.2} {:>9}\n",
            name,
            x.count,
            x.self_ns as f64 / 1e6,
            per(x),
            y.count,
            y.self_ns as f64 / 1e6,
            per(y),
            change
        ));
    }
    out
}
