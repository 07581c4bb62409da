//! job-exec: all 113 JOB statements as SQL text, one `Session::run_script`
//! call each, in a closed loop of whole passes.
//!
//! The traced run alternates an untraced pass with a pass that drives the
//! layer functions `Session` calls, in its order — `parse_script`,
//! `bind_parsed`, `optimize_with_model` with counting wrappers, `execute` —
//! with a span around each.

use std::collections::HashMap;
use std::time::Instant;

use jobbench::rss::peak_rss_bytes;
use jobbench::stats::{geomean, median, percentile};
use jobbench::trace::{summarize, Tracer};
use qob_core::{BenchmarkContext, EstimatorKind, ServerContext, Session, SessionOptions};
use qob_cost::SimpleCostModel;
use qob_enumerate::PlannerConfig;

use crate::data::{answered_rows, Answers, Dataset, Statement};
use crate::layers::{probe_snapshot, write_trace, CountingCostModel, CountingEstimator};
use crate::report::Report;
use crate::{more_setups, Args};

/// `title` rows of the database: 1.87M rows, a 15.9 MB snapshot, far
/// beyond CPU caches, so execution is most of a statement's time.
const MOVIES: usize = 64_000;
/// What the answers are checked against: a plan chosen by a different
/// estimator, run on one thread.
const REFERENCE: Answers = Answers::DbmsCSingleThread;

/// Runs job-exec.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let ds = Dataset::new(MOVIES, args.seed);
    ds.ensure(false, Some(REFERENCE))?;
    let statements = ds.statements()?;
    let threads = qob_exec::default_threads();
    let mut tracer = Tracer::new();

    let mut setup = Vec::new();
    let mut ctx = None;
    while more_setups(&setup) {
        drop(ctx.take());
        let started = Instant::now();
        let loaded = BenchmarkContext::load_snapshot(ds.snapshot())
            .map_err(|e| format!("cannot load {}: {e}", ds.snapshot().display()))?;
        setup.push(started.elapsed().as_secs_f64());
        ctx = Some(loaded);
    }
    let ctx = ctx.expect("set-up ran");
    report.set("setup_s", median(&setup).expect("set-up was timed"));
    report.note("threads", threads);
    if args.trace {
        probe_snapshot(&ds.snapshot(), &mut tracer, report)?;
    }

    let server =
        ServerContext::with_defaults(ctx, SessionOptions { threads, ..Default::default() });
    let mut session = server.session();
    let answers = if args.trace {
        traced_loop(&mut session, &server, &statements, args, &mut tracer, report)
    } else {
        timed_loop(&mut session, &statements, args, report)?
    };

    let expected = ds.answers(REFERENCE)?;
    for (i, rows) in answers {
        report.tally.record(check(&statements[i].name, rows, &expected));
    }
    if args.trace {
        write_trace(&tracer, &args.workload, args.seed)?;
    }
    Ok(())
}

/// Whether a statement answered with the expected row count; a mismatch is
/// reported on standard error.
pub fn check(name: &str, got: Option<u64>, expected: &HashMap<String, u64>) -> bool {
    let want = expected.get(name).copied();
    let ok = got.is_some() && got == want;
    if !ok {
        eprintln!("jobbench: {name}: answered {got:?}, expected {want:?}");
    }
    ok
}

/// Rows answered per statement (by index), checked once the references
/// are in.
type Answered = Vec<(usize, Option<u64>)>;

/// The untraced closed loop: whole passes until the window has passed, at
/// least [`MIN_PASSES`].  A statement's latency is its fastest pass (see
/// [`fastest_latencies`]).
fn timed_loop(
    session: &mut Session,
    statements: &[Statement],
    args: &Args,
    report: &mut Report,
) -> Result<Answered, String> {
    let mut per_statement = vec![Vec::new(); statements.len()];
    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed() < args.window {
        let pass = Instant::now();
        for (i, st) in statements.iter().enumerate() {
            let sent = Instant::now();
            let outcome = session.run_script(&st.sql);
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            per_statement[i].push(ms);
            latencies.push(ms);
            answers.push((i, answered_rows(&outcome)));
        }
        passes.push(format!("{:.3}", pass.elapsed().as_secs_f64()));
    }
    let wall = started.elapsed().as_secs_f64();
    let rss = peak_rss_bytes(std::process::id()).map_err(|e| e.to_string())?;
    let fastest = fastest_latencies(&per_statement);
    let pass_ms: f64 = fastest.iter().sum();
    report.set("ops_per_s", fastest.len() as f64 / (pass_ms / 1e3));
    report.set("op_geomean_ms", geomean(&fastest).ok_or("no statement latencies to average")?);
    report.set("peak_rss_mb", rss as f64 / (1024.0 * 1024.0));
    report.note("pass_s", passes.join(" "));
    report.note("samples", latencies.len());
    report.note("wall_ops_per_s", format!("{:.4}", latencies.len() as f64 / wall));
    report.note("query_p50_ms", tail(&latencies, 0.5));
    report.note("query_p95_ms", tail(&latencies, 0.95));
    Ok(answers)
}

/// Fewest passes per untraced run, so each statement's fastest pass is
/// picked from three (and a p95 has more than ten samples beyond it).
const MIN_PASSES: usize = 3;

/// Each statement's fastest latency across the run's passes.  Work from
/// other tenants of a shared host only ever adds time, and on a small
/// shared machine it comes in stretches of seconds to minutes that slow
/// whole passes by a third; the fastest pass of each statement is its own
/// cost with the least of that added.  Throughput is the statements over the sum of
/// these; `op_geomean_ms`, their geometric mean, weighs every statement
/// alike, so a few heavy statements do not set it.
fn fastest_latencies(per_statement: &[Vec<f64>]) -> Vec<f64> {
    per_statement.iter().filter_map(|s| s.iter().copied().reduce(f64::min)).collect()
}

/// A tail percentile for the table, or why it is refused.
pub fn tail(latencies: &[f64], q: f64) -> String {
    match percentile(latencies, q) {
        Some(v) => format!("{v:.4} ms (n={})", latencies.len()),
        None => format!("refused: under 10 of {} samples beyond", latencies.len()),
    }
}

/// Per-pass counts gathered by the traced statements.
#[derive(Default)]
struct Counters {
    estimate_calls: u64,
    cost_calls: u64,
    busy_ns: u64,
    morsels: u64,
    intermediate_rows: u64,
}

/// The traced loop: untraced and traced passes alternate until the window
/// has passed, at least one of each.
fn traced_loop(
    session: &mut Session,
    server: &ServerContext,
    statements: &[Statement],
    args: &Args,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Answered {
    let ctx = server.context();
    let n = statements.len();
    let mut untraced_ns = vec![0u64; n];
    let mut layer_ns = vec![0u64; n];
    let (mut untraced_passes, mut traced_passes) = (0u64, 0u64);
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    let mut counters = Counters::default();
    let mut answers = Vec::new();
    let mut request = 1;
    let started = Instant::now();
    while traced_passes == 0 || started.elapsed() < args.window {
        let pass = Instant::now();
        for (i, st) in statements.iter().enumerate() {
            let sent = Instant::now();
            let outcome = session.run_script(&st.sql);
            untraced_ns[i] += sent.elapsed().as_nanos() as u64;
            answers.push((i, answered_rows(&outcome)));
        }
        untraced_wall += pass.elapsed().as_secs_f64();
        untraced_passes += 1;

        let pass = Instant::now();
        for (i, st) in statements.iter().enumerate() {
            let (rows, layers) = traced_statement(ctx, st, request, tracer, &mut counters);
            layer_ns[i] += layers;
            request += 1;
            answers.push((i, rows));
        }
        traced_wall += pass.elapsed().as_secs_f64();
        traced_passes += 1;
    }

    let per_pass = traced_passes as f64;
    let layers = summarize(tracer.spans());
    let total_ms =
        |name: &str| layers.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6 / per_pass);
    let mean_us = |name: &str| {
        layers.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    report.set("sql.parse_us", mean_us("sql.parse"));
    report.set("sql.bind_us", mean_us("sql.bind"));
    report.set("optimize.total_ms", total_ms("optimize"));
    let optimize: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "optimize")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    report.set("optimize.p50_ms", percentile(&optimize, 0.5).unwrap_or(0.0));
    report.set("optimize.max_ms", optimize.iter().copied().fold(0.0, f64::max));
    report.set("cardest.estimate_calls", counters.estimate_calls as f64 / per_pass);
    report.set("cardest.estimate_ms", total_ms("cardest.estimate"));
    report.set("cost.calls", counters.cost_calls as f64 / per_pass);
    report.set("cost.ms", total_ms("cost.model"));
    report.set(
        "enumerate.self_ms",
        layers.get("optimize").map_or(0.0, |t| t.self_ns as f64 / 1e6 / per_pass),
    );
    let execute_ms = total_ms("exec.execute");
    report.set("exec.execute_ms", execute_ms);
    let busy_ms = counters.busy_ns as f64 / 1e6 / per_pass;
    report.set("exec.operator_busy_ms", busy_ms);
    report.set("exec.parallelism", if execute_ms > 0.0 { busy_ms / execute_ms } else { 0.0 });
    report.set("exec.morsels", counters.morsels as f64 / per_pass);
    report.set("exec.intermediate_rows", counters.intermediate_rows as f64 / per_pass);

    let untraced_pass_ms = untraced_ns.iter().sum::<u64>() as f64 / 1e6 / untraced_passes as f64;
    let layer_pass_ms = layer_ns.iter().sum::<u64>() as f64 / 1e6 / per_pass;
    report.set("session.unattributed_ms", untraced_pass_ms - layer_pass_ms);
    let untraced_qps = (n as u64 * untraced_passes) as f64 / untraced_wall;
    let traced_qps = (n as u64 * traced_passes) as f64 / traced_wall;
    report.set("obs.untraced_ops_per_s", untraced_qps);
    report.set("obs.traced_ops_per_s", traced_qps);
    report.set("obs.tracing_overhead", untraced_qps / traced_qps);
    report.note("untraced_passes", untraced_passes);
    report.note("traced_passes", traced_passes);
    report.note("untraced_pass_ms", format!("{untraced_pass_ms:.3}"));
    report.note("layer_spans_pass_ms", format!("{layer_pass_ms:.3}"));
    answers
}

/// One statement through the layer functions `Session` calls, with a span
/// around each.  Returns the answered rows and the summed layer time.
fn traced_statement(
    ctx: &BenchmarkContext,
    st: &Statement,
    request: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> (Option<u64>, u64) {
    let root = tracer.open("statement", None, request);
    let rows = traced_layers(ctx, st, root, request, tracer, counters);
    tracer.close(root);
    let layer_ns = tracer
        .spans()
        .iter()
        .rev()
        .take_while(|s| s.id != root)
        .filter(|s| s.parent == Some(root))
        .map(|s| s.duration_ns())
        .sum();
    (rows, layer_ns)
}

fn traced_layers(
    ctx: &BenchmarkContext,
    st: &Statement,
    root: u64,
    request: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Option<u64> {
    let (parsed, _) =
        tracer.time("sql.parse", Some(root), request, || qob_workload::parse_script(&st.sql));
    let parsed = parsed.ok()?;
    let (bound, _) = tracer
        .time("sql.bind", Some(root), request, || qob_workload::bind_parsed(ctx.db(), &parsed));
    let query = bound.ok()?.pop()?;

    let estimator = ctx.estimator(EstimatorKind::Postgres);
    let counting = CountingEstimator::new(estimator.as_ref());
    let model = CountingCostModel::new(SimpleCostModel::new());
    let start = tracer.now_ns();
    let optimized = ctx.optimize_with_model(&query, &counting, &model, PlannerConfig::default());
    let end = tracer.now_ns();
    // The wrappers sum their calls' time; the optimize span's children
    // carry those sums, so its self time is the enumerator's own.
    let optimize = tracer.record("optimize", Some(root), request, 0, start, end);
    let estimate_end = start + counting.nanos.get();
    tracer.record("cardest.estimate", Some(optimize), request, 0, start, estimate_end);
    tracer.record(
        "cost.model",
        Some(optimize),
        request,
        0,
        estimate_end,
        estimate_end + model.nanos.get(),
    );
    counters.estimate_calls += counting.calls.get();
    counters.cost_calls += model.calls.get();
    let plan = optimized.ok()?.plan;

    let options = SessionOptions { threads: qob_exec::default_threads(), ..Default::default() }
        .execution_options();
    let (result, _) = tracer.time("exec.execute", Some(root), request, || {
        ctx.execute(&query, &plan, estimator.as_ref(), &options)
    });
    let result = result.ok()?;
    counters.busy_ns += result.operator_timings.iter().map(|(_, t)| t.busy_nanos).sum::<u64>();
    counters.morsels += result.operator_timings.iter().map(|(_, t)| t.morsels).sum::<u64>();
    counters.intermediate_rows += result.operator_cardinalities.iter().map(|(_, c)| c).sum::<u64>();
    Some(result.rows)
}
