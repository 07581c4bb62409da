//! serve-mix: a `qob serve` process with the plan cache on, driven by one
//! load-generator process over `qob_server::Client` connections, each
//! cycling through the 113 statements in a seed-shuffled order.
//!
//! The traced run splits the window: an untraced half, then a half with
//! `set tracing true` on every connection, where each reply's per-phase
//! trace becomes child spans of the client's round-trip span.  Layers the
//! server does not time per request are then measured in this process on
//! the same snapshot, ground truth and the plan-cost ratio among them.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jobbench::rss::peak_rss_bytes;
use jobbench::stats::{geomean, median, percentile, Tally};
use jobbench::trace::{summarize, Tracer};
use qob_core::BenchmarkContext;
use qob_server::{Client, Json, Request};

use crate::data::{Answers, Dataset, Statement};
use crate::job::{check, tail};
use crate::layers::{probe_snapshot, truth_layer, write_trace};
use crate::report::Report;
use crate::{more_setups, Args};

/// `Scale::small()`: the server does about a millisecond of work per
/// request once the plan cache is warm.
const MOVIES: usize = 1_000;
/// How long a server may take to print its address.
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// Server phases carried in each traced reply: reply field, span name,
/// metric.
const PHASES: [(&str, &str, &str); 5] = [
    ("parse_us", "server.parse", "server.parse_us"),
    ("bind_us", "server.bind", "server.bind_us"),
    ("optimize_us", "server.optimize", "server.optimize_us"),
    ("queue_us", "server.queue", "server.queue_us"),
    ("execute_us", "server.execute", "server.execute_us"),
];

/// A running `qob serve` child.
struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `qob serve` and waits for its first `ping` reply; returns the
    /// server with the seconds from spawn to that reply.
    fn start(qob: &Path, snapshot: &Path, workers: usize) -> Result<(Server, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(qob)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--plan-cache", "--workers", &workers.to_string(), "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", qob.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the listening address, then keeps draining so the server
        // never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("listening on ").nth(1) {
                    let addr = addr.split_whitespace().next().unwrap_or_default().to_owned();
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                }
            }
        });
        let mut server = Server { child, addr: String::new(), drain: Some(drain) };
        server.addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "qob serve exited or never reported its address".to_owned())?;
        let pong = Client::connect(&server.addr)
            .and_then(|mut c| c.request(&Request::Ping))
            .map_err(|e| format!("ping failed: {e}"))?;
        if !ok(&pong) {
            return Err(format!("ping answered {pong}"));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    fn request(&self, request: &Request) -> Result<Json, String> {
        let reply = Client::connect(&self.addr)
            .and_then(|mut c| c.request(request))
            .map_err(|e| format!("{request:?}: {e}"))?;
        if ok(&reply) {
            Ok(reply)
        } else {
            Err(format!("{request:?} answered {reply}"))
        }
    }

    /// Asks the server to shut down and waits for the process to end.
    fn stop(mut self) -> Result<(), String> {
        self.request(&Request::Shutdown)?;
        self.reap();
        Ok(())
    }

    fn reap(&mut self) {
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.child.kill();
            self.reap();
        }
    }
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The rows of a one-statement `query` reply.
fn reply_rows(reply: &Json) -> Option<u64> {
    if !ok(reply) {
        return None;
    }
    match reply.get("results")?.as_array()? {
        [one] => one.get("rows")?.as_u64(),
        _ => None,
    }
}

/// What one connection measured.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    /// Statement index of each latency.
    statements: Vec<usize>,
    tally: Tally,
    /// Round trip minus the reply's summed phases, traced windows only.
    overhead_ms: Vec<f64>,
    response_bytes: u64,
    tracer: Tracer,
}

/// Runs serve-mix.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let qob =
        args.qob.as_deref().ok_or("serve-mix needs JOBBENCH_QOB, the path of the qob binary")?;
    let ds = Dataset::new(MOVIES, args.seed);
    ds.ensure(false, Some(Answers::InProcess))?;
    let statements = ds.statements()?;
    let expected = ds.answers(Answers::InProcess)?;
    let nproc = qob_exec::default_threads();
    let connections = nproc.min(2);
    report.note("connections", connections);

    let mut setup = Vec::new();
    let mut server = None;
    while more_setups(&setup) {
        if let Some(previous) = server.take() {
            Server::stop(previous)?;
        }
        let (started, seconds) = Server::start(qob, &ds.snapshot(), connections)?;
        setup.push(seconds);
        server = Some(started);
    }
    let server = server.expect("set-up ran");
    report.set("setup_s", median(&setup).expect("set-up was timed"));

    // One untimed sequential pass fills the plan cache.
    let mut client = Client::connect(&server.addr).map_err(|e| e.to_string())?;
    for st in &statements {
        let rows = client.query(&st.sql).ok().as_ref().and_then(reply_rows);
        report.tally.record(check(&st.name, rows, &expected));
    }
    drop(client);

    let mut tracer = Tracer::new();
    if args.trace {
        let half = args.window / 2;
        let plain =
            drive(&server.addr, &statements, &expected, connections, args.seed, half, false);
        let traced =
            drive(&server.addr, &statements, &expected, connections, args.seed, half, true);
        let (plain_qps, traced_qps) = (throughput(&plain, half), throughput(&traced, half));
        report.set("obs.untraced_ops_per_s", plain_qps);
        report.set("obs.traced_ops_per_s", traced_qps);
        report.set("obs.tracing_overhead", plain_qps / traced_qps);
        let mut overhead = Vec::new();
        let mut responses = (0, 0);
        for window in plain.into_iter().chain(traced) {
            report.tally.merge(window.tally);
            overhead.extend(window.overhead_ms);
            responses.0 += window.response_bytes;
            responses.1 += window.latencies_ms.len() as u64;
            tracer.absorb(window.tracer);
        }
        report.set("wire.overhead_p50_ms", percentile(&overhead, 0.5).unwrap_or(0.0));
        report.set("wire.overhead_p95_ms", percentile(&overhead, 0.95).unwrap_or(0.0));
        report.set("wire.response_bytes", responses.0 as f64 / responses.1.max(1) as f64);
        let layers = summarize(tracer.spans());
        for (_, span, metric) in PHASES {
            let mean = layers.get(span).map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count as f64);
            report.set(metric, mean);
        }
        server_side_layers(&server, report)?;
        client_side_layers(&ds, &statements, &expected, &mut tracer, report)?;
    } else {
        let started = Instant::now();
        let windows =
            drive(&server.addr, &statements, &expected, connections, args.seed, args.window, false);
        let wall = started.elapsed().as_secs_f64();
        let mut latencies = Vec::new();
        let mut per_statement = vec![Vec::new(); statements.len()];
        for window in windows {
            report.tally.merge(window.tally);
            for (&i, &ms) in window.statements.iter().zip(&window.latencies_ms) {
                per_statement[i].push(ms);
            }
            latencies.extend(window.latencies_ms);
        }
        // Closed-loop throughput over the whole window; the latency figure
        // weighs every statement alike, as on the JOB workloads.
        report.set("ops_per_s", latencies.len() as f64 / wall);
        // Each statement's median: the wire stall sets these, not the
        // host's speed, so they hold steady without taking the fastest.
        let typical: Vec<f64> = per_statement.iter().filter_map(|s| median(s)).collect();
        report.set("op_geomean_ms", geomean(&typical).ok_or("no request latencies to average")?);
        report.note("samples", latencies.len());
        report.note("query_p50_ms", tail(&latencies, 0.5));
        report.note("query_p99_ms", tail(&latencies, 0.99));
        report.note("query_p95_ms", tail(&latencies, 0.95));
    }
    let rss = peak_rss_bytes(server.child.id()).map_err(|e| e.to_string())?;
    report.set("peak_rss_mb", rss as f64 / (1024.0 * 1024.0));
    server.stop()?;
    if args.trace {
        write_trace(&tracer, &args.workload, args.seed)?;
    }
    Ok(())
}

fn throughput(windows: &[Window], window: Duration) -> f64 {
    windows.iter().map(|w| w.latencies_ms.len()).sum::<usize>() as f64 / window.as_secs_f64()
}

/// Drives `connections` closed-loop clients for `window`; each cycles
/// through the statements in its own seed-shuffled order.
fn drive(
    addr: &str,
    statements: &[Statement],
    expected: &HashMap<String, u64>,
    connections: usize,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Vec<Window> {
    let deadline = Instant::now() + window;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|lane| {
                let order = shuffled(statements.len(), seed.wrapping_add(lane as u64));
                scope.spawn(move || {
                    connection(addr, statements, expected, &order, lane as u32, deadline, traced)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    })
}

fn connection(
    addr: &str,
    statements: &[Statement],
    expected: &HashMap<String, u64>,
    order: &[usize],
    lane: u32,
    deadline: Instant,
    traced: bool,
) -> Window {
    let mut window = Window::default();
    let Ok(mut client) = Client::connect(addr) else {
        window.tally.record(false);
        return window;
    };
    if traced {
        let set = Request::Set { option: "tracing".into(), value: "true".into() };
        if !client.request(&set).is_ok_and(|r| ok(&r)) {
            window.tally.record(false);
            return window;
        }
    }
    let mut request = u64::from(lane) << 32;
    for &i in order.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let st = &statements[i];
        let sent = Instant::now();
        let reply = client.query(&st.sql);
        let received = Instant::now();
        let rtt_ms = received.duration_since(sent).as_secs_f64() * 1e3;
        window.latencies_ms.push(rtt_ms);
        window.statements.push(i);
        let rows = reply.as_ref().ok().and_then(reply_rows);
        window.tally.record(check(&st.name, rows, expected));
        if let (true, Ok(reply)) = (traced, &reply) {
            window.response_bytes += reply.to_string().len() as u64 + 1;
            let phases = reply
                .get("results")
                .and_then(Json::as_array)
                .and_then(|r| r.first())
                .and_then(|r| r.get("trace"));
            let tracer = &mut window.tracer;
            let root = tracer.record(
                "wire.request",
                None,
                request,
                lane,
                tracer.at(sent),
                tracer.at(received),
            );
            let mut at = tracer.at(sent);
            let mut server_ns = 0;
            for (field, span, _) in PHASES {
                let ns =
                    phases.and_then(|p| p.get(field)).and_then(Json::as_u64).unwrap_or(0) * 1_000;
                tracer.record(span, Some(root), request, lane, at, at + ns);
                at += ns;
                server_ns += ns;
            }
            window.overhead_ms.push(rtt_ms - server_ns as f64 / 1e6);
            request += 1;
        }
    }
    window
}

/// The server's plan-cache and scheduler figures, from its `stats` and
/// `metrics` replies.
fn server_side_layers(server: &Server, report: &mut Report) -> Result<(), String> {
    let stats = server.request(&Request::Stats)?;
    let count = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let hits = count("plan_cache_hits");
    let lookups = hits + count("plan_cache_misses") + count("plan_cache_fence_rejections");
    report.set("cache.lookups", lookups);
    report.set("cache.hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 });
    report.set("cache.fence_rejections", count("plan_cache_fence_rejections"));
    let workers = stats.get("workers").and_then(Json::as_array).unwrap_or(&[]);
    let utilization: Vec<f64> =
        workers.iter().filter_map(|w| w.get("utilization").and_then(Json::as_f64)).collect();
    if !utilization.is_empty() {
        let mean = utilization.iter().sum::<f64>() / utilization.len() as f64;
        report.set("sched.worker_utilization", mean);
    }
    let metrics = server.request(&Request::Metrics)?;
    let queue_p99_us =
        metrics.get("summary").and_then(|s| s.get("queue_wait_p99_us")).and_then(Json::as_f64);
    report.set("sched.queue_wait_p99_ms", queue_p99_us.unwrap_or(0.0) / 1e3);
    Ok(())
}

/// Layers measured in this process on the server's snapshot and
/// statements: snapshot open and ANALYZE and the plan-cache fingerprint of
/// each bound statement, which the server runs but does not time per
/// request, then ground truth, which also checks the answers the wire was
/// checked against.
fn client_side_layers(
    ds: &Dataset,
    statements: &[Statement],
    expected: &HashMap<String, u64>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    probe_snapshot(&ds.snapshot(), tracer, report)?;
    let ctx = BenchmarkContext::load_snapshot(ds.snapshot()).map_err(|e| e.to_string())?;
    let mut total_ns = 0;
    for (i, st) in statements.iter().enumerate() {
        let parsed = qob_workload::parse_script(&st.sql).map_err(|e| e.to_string())?;
        let mut bound = qob_workload::bind_parsed(ctx.db(), &parsed).map_err(|e| e.to_string())?;
        let query = bound.pop().ok_or("a statement bound to nothing")?;
        let (_, id) = tracer.time("cache.fingerprint", None, i as u64, || {
            std::hint::black_box(qob_cache::fingerprint_query(&query))
        });
        total_ns += tracer.span(id).duration_ns();
    }
    report.set("cache.fingerprint_us", total_ns as f64 / 1e3 / statements.len().max(1) as f64);
    truth_layer(&ctx, expected, tracer, report)
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates over
/// SplitMix64), so the statement order is the seed's and no one else's.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}
