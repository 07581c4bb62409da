//! Tests of the benchmark's own helpers: percentiles, geometric mean, self
//! time, failure accounting, peak-RSS reading, trace round trips, and the
//! agreement between the metric catalogue and `BENCHMARK.json`.

use jobbench::metrics::{END_TO_END, PER_LAYER};
use jobbench::rss::{parse_vm_hwm, peak_rss_bytes};
use jobbench::stats::{geomean, median, percentile, Tally};
use jobbench::trace::{compare, from_chrome, self_times, summarize, to_chrome, Span, Tracer};

fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
    Span { id, parent, request: 1, lane: 0, name: name.to_owned(), start_ns, end_ns }
}

#[test]
fn percentile_is_nearest_rank() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.5), Some(50.0));
    assert_eq!(percentile(&samples, 0.9), Some(90.0));
    // Order does not matter.
    let mut reversed = samples.clone();
    reversed.reverse();
    assert_eq!(percentile(&reversed, 0.9), Some(90.0));
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    // p90 of 100 leaves exactly 10 beyond; p95 leaves 5.
    assert_eq!(percentile(&samples, 0.9), Some(90.0));
    assert_eq!(percentile(&samples, 0.95), None);
    assert_eq!(percentile(&samples, 0.99), None);
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&thousand, 0.99), Some(990.0));
    // Ties at the top: samples equal to the percentile are not beyond it.
    let mut tied = vec![1.0; 50];
    tied.extend(vec![7.0; 50]);
    assert_eq!(percentile(&tied, 0.5), Some(1.0));
    assert_eq!(percentile(&tied, 0.6), None);
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&[3.0; 5], 0.5), None);
}

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn geometric_mean_of_ratios() {
    let g = geomean(&[1.0, 4.0]).unwrap();
    assert!((g - 2.0).abs() < 1e-12);
    let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
    assert!((g - 4.0).abs() < 1e-12);
    assert_eq!(geomean(&[1.5]), Some(1.5));
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[1.0, -2.0]), None);
    assert_eq!(geomean(&[1.0, f64::NAN]), None);
    assert_eq!(geomean(&[1.0, f64::INFINITY]), None);
}

#[test]
fn self_time_subtracts_children_once() {
    // root [0,100]; a [10,40] with grandchild [20,30]; b [35,60] overlaps a;
    // c [90,120] sticks out of root.
    let spans = vec![
        span(1, None, "root", 0, 100),
        span(2, Some(1), "a", 10, 40),
        span(3, Some(2), "g", 20, 30),
        span(4, Some(1), "b", 35, 60),
        span(5, Some(1), "c", 90, 120),
    ];
    let own = self_times(&spans);
    // root: covered [10,60] ∪ [90,100] = 60, so 40 of its own.
    assert_eq!(own, vec![40, 20, 10, 25, 30]);
    let totals = summarize(&spans);
    assert_eq!(totals["root"].count, 1);
    assert_eq!(totals["root"].total_ns, 100);
    assert_eq!(totals["root"].self_ns, 40);
    assert_eq!(totals["a"].self_ns, 20);
}

#[test]
fn self_time_of_children_filling_the_parent_is_zero() {
    let spans = vec![
        span(1, None, "p", 0, 50),
        span(2, Some(1), "x", 0, 25),
        span(3, Some(1), "y", 25, 50),
    ];
    assert_eq!(self_times(&spans), vec![0, 25, 25]);
}

#[test]
fn tracer_records_nested_spans_and_absorbs_other_tracers() {
    let mut tracer = Tracer::new();
    let root = tracer.open("statement", None, 7);
    let (value, child) = tracer.time("sql.parse", Some(root), 7, || 41 + 1);
    tracer.close(root);
    assert_eq!(value, 42);
    assert_eq!(tracer.span(child).parent, Some(root));
    assert!(tracer.span(root).start_ns <= tracer.span(child).start_ns);
    assert!(tracer.span(root).end_ns >= tracer.span(child).end_ns);

    let mut other = Tracer::new();
    let r = other.record("wire.request", None, 9, 1, 0, 1_000);
    other.record("server.parse", Some(r), 9, 1, 0, 400);
    tracer.absorb(other);
    let spans = tracer.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[3].parent, Some(spans[2].id));
    assert_eq!(self_times(spans)[2], 600);
}

#[test]
fn chrome_trace_round_trips_and_compares() {
    let spans = vec![
        span(1, None, "statement", 1_000, 9_000),
        span(2, Some(1), "optimize", 2_000, 6_000),
        span(3, Some(1), "exec.execute", 6_000, 8_500),
    ];
    let text = to_chrome(&spans);
    assert!(text.starts_with('[') && text.contains("\"ph\":\"X\""));
    assert_eq!(from_chrome(&text).unwrap(), spans);

    let mut faster = spans.clone();
    faster[1].end_ns = 4_000;
    let table = compare(&spans, &faster);
    let row = table.lines().find(|l| l.starts_with("optimize")).unwrap();
    assert!(row.contains("-50.0%"), "{row}");
    assert!(table.lines().any(|l| l.starts_with("statement")));
    assert!(from_chrome("{}").is_err());
}

#[test]
fn tally_counts_failures_against_attempts() {
    let mut tally = Tally::default();
    assert_eq!(tally.fail_ratio(), 0.0);
    for ok in [true, true, false, true] {
        tally.record(ok);
    }
    assert_eq!((tally.attempted, tally.failed), (4, 1));
    assert_eq!(tally.fail_ratio(), 0.25);
    let mut other = Tally::default();
    other.record(false);
    tally.merge(other);
    assert_eq!((tally.attempted, tally.failed), (5, 2));
    assert!((tally.fail_ratio() - 0.4).abs() < 1e-12);
}

#[test]
fn vm_hwm_is_parsed_in_bytes() {
    let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n";
    assert_eq!(parse_vm_hwm(status), Some(1234 * 1024));
    assert_eq!(parse_vm_hwm("VmRSS:\t1 kB\n"), None);
    assert_eq!(parse_vm_hwm("VmHWM:\t12 pages\n"), None);
}

#[test]
fn peak_rss_of_a_child_process_is_read() {
    let mut child = std::process::Command::new("sleep").arg("5").spawn().expect("sleep runs");
    // The child's status file exists as soon as it is spawned; its peak
    // grows as the program image loads.
    let mut peak = 0;
    for _ in 0..100 {
        peak = peak_rss_bytes(child.id()).expect("status of a live child");
        if peak > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    child.kill().expect("kill the child");
    child.wait().expect("reap the child");
    assert!(peak > 0);
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = qob_server::Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(qob_server::Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(qob_server::Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
}
