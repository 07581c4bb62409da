//! ingest: `BenchmarkContext::ingest_csv_dir` over a CSV export, then
//! `save_snapshot`, then `load_snapshot` of the file just written — the
//! storage write path, cycle after cycle.  The answers of the reopened
//! database are checked against those of the generated one.
//!
//! The traced run alternates untraced cycles with cycles that drive the
//! layer functions the context calls — `qob_storage::ingest_csv_dir`,
//! `declare_imdb_keys`, `Database::build_indexes`, ANALYZE, snapshot save,
//! snapshot load — with a span around each.

use std::path::Path;
use std::time::Instant;

use jobbench::rss::peak_rss_bytes;
use jobbench::stats::median;
use jobbench::trace::{summarize, Tracer};
use qob_core::{BenchmarkContext, ServerContext, SessionOptions};
use qob_storage::{Database, EncodingPolicy, IndexConfig};

use crate::data::{answered_rows, Answers, Dataset, OUT_DIR};
use crate::job::check;
use crate::layers::{set_storage_bytes, write_trace};
use crate::report::Report;
use crate::Args;

/// 949,560 rows: several ingest cycles fit in one window.
const MOVIES: usize = 32_000;
/// Fewest cycles per run; each reopen is one `setup_s` sample.
const MIN_CYCLES: usize = 3;

/// Runs ingest.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let ds = Dataset::new(MOVIES, args.seed);
    ds.ensure(true, Some(Answers::DbmsCSingleThread))?;
    let csv = ds.csv_dir();
    let csv_bytes = dir_bytes(&csv)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let snapshot = Path::new(OUT_DIR).join("ingest.qob");
    let threads = qob_exec::default_threads();
    let mut tracer = Tracer::new();

    let mut ingest_s = Vec::new();
    let mut reopen_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut reopened = None;
    let started = Instant::now();
    while ingest_s.len() < MIN_CYCLES || started.elapsed() < args.window {
        drop(reopened.take());
        let cycle = Instant::now();
        let (ctx, _) = BenchmarkContext::ingest_csv_dir(&csv, IndexConfig::default(), threads)
            .map_err(|e| format!("ingest failed: {e}"))?;
        ctx.save_snapshot(&snapshot).map_err(|e| e.to_string())?;
        ingest_s.push(cycle.elapsed().as_secs_f64());
        drop(ctx);
        let reopen = Instant::now();
        let ctx = BenchmarkContext::load_snapshot(&snapshot).map_err(|e| e.to_string())?;
        reopen_s.push(reopen.elapsed().as_secs_f64());
        reopened = Some(ctx);
        if args.trace {
            let cycle = Instant::now();
            traced_cycle(&csv, &snapshot, threads, traced_s.len() as u64, &mut tracer)?;
            traced_s.push(cycle.elapsed().as_secs_f64());
        }
    }
    let rss = peak_rss_bytes(std::process::id()).map_err(|e| e.to_string())?;
    let snapshot_bytes = std::fs::metadata(&snapshot).map_err(|e| e.to_string())?.len();
    let ctx = reopened.expect("at least one cycle ran");

    // The fastest cycle, for the reason the JOB workloads take each
    // statement's fastest pass (`job::fastest_latencies`); set-up is the
    // median of the reopens.
    let fastest = ingest_s.iter().copied().reduce(f64::min).expect("ingest was timed");
    report.set("setup_s", median(&reopen_s).expect("reopen was timed"));
    report.set("ops_per_s", 1.0 / fastest);
    report.set("op_geomean_ms", fastest * 1e3);
    report.set("peak_rss_mb", rss as f64 / (1024.0 * 1024.0));
    let ratio = snapshot_bytes as f64 / csv_bytes as f64;
    report.note("cycles", ingest_s.len());
    let typical = median(&ingest_s).expect("ingest was timed");
    report.note("ingest_s", format!("{fastest:.4} s (median {typical:.4} s)"));
    report.note("stored_bytes_ratio", format!("{ratio:.4} ({snapshot_bytes} / {csv_bytes} bytes)"));
    report.note("rows", ctx.db().total_rows());

    if args.trace {
        let layers = summarize(tracer.spans());
        let per_cycle = traced_s.len() as f64;
        let ms = |name: &str| layers.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6 / per_cycle);
        report.set("storage.csv_ingest_ms", ms("storage.csv_ingest"));
        report.set("storage.index_build_ms", ms("storage.index_build"));
        report.set("storage.snapshot_save_ms", ms("storage.snapshot_save"));
        report.set("storage.snapshot_load_ms", ms("storage.snapshot_load"));
        // ANALYZE runs twice a cycle: after ingest and after reopen.
        report.set("stats.analyze_ms", ms("stats.analyze") / 2.0);
        report.set("storage.snapshot_bytes", snapshot_bytes as f64);
        report.set("storage.stored_bytes_ratio", ratio);
        set_storage_bytes(ctx.db(), report);
        let untraced =
            ingest_s.len() as f64 / (ingest_s.iter().sum::<f64>() + reopen_s.iter().sum::<f64>());
        let traced = per_cycle / traced_s.iter().sum::<f64>();
        report.set("obs.untraced_ops_per_s", untraced);
        report.set("obs.traced_ops_per_s", traced);
        report.set("obs.tracing_overhead", untraced / traced);
        write_trace(&tracer, &args.workload, args.seed)?;
    }

    // Every answer on the reopened database must equal the generated one's.
    let expected = ds.answers(Answers::DbmsCSingleThread)?;
    let server =
        ServerContext::with_defaults(ctx, SessionOptions { threads, ..Default::default() });
    let mut session = server.session();
    for st in ds.statements()? {
        let rows = answered_rows(&session.run_script(&st.sql));
        report.tally.record(check(&st.name, rows, &expected));
    }
    Ok(())
}

/// One ingest-save-reopen cycle through the layer functions the context
/// calls, a span around each.
fn traced_cycle(
    csv: &Path,
    snapshot: &Path,
    threads: usize,
    request: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let root = tracer.open("ingest.cycle", None, request);
    let schemas = qob_datagen::imdb_schema();
    let (ingested, _) = tracer.time("storage.csv_ingest", Some(root), request, || {
        qob_storage::ingest_csv_dir(csv, &schemas, EncodingPolicy::Auto, threads)
    });
    let (tables, _) = ingested.map_err(|e| e.to_string())?;
    let (assembled, _) = tracer.time("storage.assemble", Some(root), request, || {
        let mut db = Database::new();
        for table in tables {
            db.add_table(table)?;
        }
        qob_datagen::declare_imdb_keys(&mut db)?;
        Ok::<_, qob_storage::StorageError>(db)
    });
    let mut db = assembled.map_err(|e| e.to_string())?;
    let (built, _) = tracer.time("storage.index_build", Some(root), request, || {
        db.build_indexes(IndexConfig::default())
    });
    built.map_err(|e| e.to_string())?;
    tracer.time("stats.analyze", Some(root), request, || {
        qob_stats::analyze_database(&db, &qob_stats::AnalyzeOptions::default())
    });
    // The metadata `BenchmarkContext::save_snapshot` writes for an
    // ingested context (its scale is inferred from `title`).
    let movies = db.table_by_name("title").map_or(0, |t| t.row_count()) as i64;
    let meta = vec![("scale.movies".to_owned(), movies), ("scale.seed".to_owned(), 42)];
    let (saved, _) = tracer.time("storage.snapshot_save", Some(root), request, || {
        qob_storage::snapshot::save(&db, &meta, snapshot)
    });
    saved.map_err(|e| e.to_string())?;
    drop(db);
    let (loaded, _) = tracer.time("storage.snapshot_load", Some(root), request, || {
        qob_storage::snapshot::load(snapshot)
    });
    let (db, _) = loaded.map_err(|e| e.to_string())?;
    tracer.time("stats.analyze", Some(root), request, || {
        qob_stats::analyze_database(&db, &qob_stats::AnalyzeOptions::default())
    });
    tracer.close(root);
    Ok(())
}

/// Total bytes of the regular files directly in `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let meta = entry.map_err(|e| e.to_string())?.metadata().map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
