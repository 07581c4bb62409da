//! Instruments for the traced runs: counting and timing wrappers around
//! the optimizer's estimator and cost-model traits, the snapshot-open probe
//! shared by the workloads, the ground-truth layer with the plan-cost
//! ratio, and the trace-file writer.

use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use jobbench::stats::{geomean, percentile};
use jobbench::trace::Tracer;
use qob_cardest::{CardinalityEstimator, InjectedCardinalities};
use qob_core::{BenchmarkContext, EstimatorKind};
use qob_cost::{CostContext, CostModel, SimpleCostModel, SubPlanInfo};
use qob_enumerate::PlannerConfig;
use qob_plan::{JoinAlgorithm, QuerySpec, RelSet};

use crate::job::check;
use crate::report::Report;

/// Counts and times every call into a [`CardinalityEstimator`].
pub struct CountingEstimator<'a> {
    inner: &'a dyn CardinalityEstimator,
    /// Calls made.
    pub calls: Cell<u64>,
    /// Nanoseconds spent inside the estimator.
    pub nanos: Cell<u64>,
}

impl<'a> CountingEstimator<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn CardinalityEstimator) -> Self {
        CountingEstimator { inner, calls: Cell::new(0), nanos: Cell::new(0) }
    }
}

impl CardinalityEstimator for CountingEstimator<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        let started = Instant::now();
        let out = self.inner.estimate(query, set);
        self.nanos.set(self.nanos.get() + started.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

/// Counts and times every call into a [`CostModel`].
pub struct CountingCostModel<M> {
    inner: M,
    /// Calls made.
    pub calls: Cell<u64>,
    /// Nanoseconds spent inside the cost model.
    pub nanos: Cell<u64>,
}

impl<M: CostModel> CountingCostModel<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        CountingCostModel { inner, calls: Cell::new(0), nanos: Cell::new(0) }
    }

    fn timed(&self, f: impl FnOnce() -> f64) -> f64 {
        let started = Instant::now();
        let out = f();
        self.nanos.set(self.nanos.get() + started.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

impl<M: CostModel> CostModel for CountingCostModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn scan_cost(&self, ctx: &CostContext<'_>, rel: usize, output_rows: f64) -> f64 {
        self.timed(|| self.inner.scan_cost(ctx, rel, output_rows))
    }

    fn join_cost(
        &self,
        ctx: &CostContext<'_>,
        algorithm: JoinAlgorithm,
        left: &SubPlanInfo,
        right: &SubPlanInfo,
        output_rows: f64,
    ) -> f64 {
        self.timed(|| self.inner.join_cost(ctx, algorithm, left, right, output_rows))
    }
}

/// Opens `snapshot` layer by layer — `qob_storage::snapshot::load`, then
/// ANALYZE — as `BenchmarkContext::load_snapshot` does, recording both
/// spans and the snapshot's size, encoded and plain bytes.
pub fn probe_snapshot(
    snapshot: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let root = tracer.open("snapshot.open", None, 0);
    let (loaded, load_id) = tracer
        .time("storage.snapshot_load", Some(root), 0, || qob_storage::snapshot::load(snapshot));
    let (db, _) = loaded.map_err(|e| format!("cannot load {}: {e}", snapshot.display()))?;
    let (_, analyze_id) = tracer.time("stats.analyze", Some(root), 0, || {
        qob_stats::analyze_database(&db, &qob_stats::AnalyzeOptions::default())
    });
    tracer.close(root);
    let span_ms =
        |tracer: &Tracer, id: u64| tracer.spans()[id as usize - 1].duration_ns() as f64 / 1e6;
    report.set("storage.snapshot_load_ms", span_ms(tracer, load_id));
    report.set("stats.analyze_ms", span_ms(tracer, analyze_id));
    let bytes = std::fs::metadata(snapshot).map_err(|e| e.to_string())?.len();
    report.set("storage.snapshot_bytes", bytes as f64);
    set_storage_bytes(&db, report);
    Ok(())
}

/// Records the encoded and plain bytes of every column of `db`.
pub fn set_storage_bytes(db: &qob_storage::Database, report: &mut Report) {
    let (encoded, plain) = db
        .tables()
        .fold((0, 0), |(e, p), (_, t)| (e + t.encoded_data_bytes(), p + t.plain_data_bytes()));
    report.set("storage.encoded_bytes", encoded as f64);
    report.set("storage.plain_bytes", plain as f64);
}

/// Extracts each query's ground truth (`try_true_cardinalities`) with a
/// span around it, checks each query's full-set true cardinality against
/// `expected`, the answers the run checks its own against, and reports the
/// paper's plan-cost ratio.
pub fn truth_layer(
    ctx: &BenchmarkContext,
    expected: &HashMap<String, u64>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut per_query = Vec::new();
    let mut subexpressions = 0;
    for (i, query) in ctx.queries().iter().enumerate() {
        let (truth, id) =
            tracer.time("truecard.query", None, i as u64, || ctx.try_true_cardinalities(query));
        per_query.push(tracer.span(id).duration_ns() as f64 / 1e6);
        let full = truth.as_ref().ok().and_then(|t| t.get(query.all_rels()));
        report.tally.record(check(&query.name, full.map(|rows| rows.round() as u64), expected));
        subexpressions += truth.map_or(0, |t| t.len());
    }
    report.set("truecard.total_s", per_query.iter().sum::<f64>() / 1e3);
    report.set("truecard.query_p50_ms", percentile(&per_query, 0.5).unwrap_or(0.0));
    report.set("truecard.query_max_ms", per_query.iter().copied().fold(0.0, f64::max));
    report.set("truecard.subexpressions", subexpressions as f64);
    report.set("optimize.plan_cost_ratio", plan_cost_ratio(ctx)?);
    Ok(())
}

/// The paper's Section 6 measure: the geometric mean over all queries of
/// the chosen (PostgreSQL-estimate) plan's `C_mm` cost recosted with true
/// cardinalities, divided by the cost of the true-cardinality optimum.
fn plan_cost_ratio(ctx: &BenchmarkContext) -> Result<f64, String> {
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let model = SimpleCostModel::new();
    let mut ratios = Vec::new();
    for query in ctx.queries() {
        let truth = ctx.try_true_cardinalities(query).map_err(|e| e.to_string())?;
        let injected = InjectedCardinalities::new(&truth, pg.as_ref());
        let chosen = ctx.optimize(query, pg.as_ref(), PlannerConfig::default());
        let best = ctx.optimize(query, &injected, PlannerConfig::default());
        let (chosen, best) = (chosen.map_err(|e| e.to_string())?, best.map_err(|e| e.to_string())?);
        ratios.push(ctx.plan_cost(query, &chosen.plan, &model, &injected) / best.cost);
    }
    geomean(&ratios).ok_or_else(|| "a plan cost ratio was not positive".to_owned())
}

/// Writes the run's spans as Chrome trace JSON and names the file on
/// standard error.
pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    let dir = Path::new(crate::data::OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::write(&path, jobbench::trace::to_chrome(tracer.spans())).map_err(|e| e.to_string())?;
    eprintln!("jobbench: wrote {} spans to {}", tracer.spans().len(), path.display());
    Ok(())
}
