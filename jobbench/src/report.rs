//! What one run measured, and how it is printed: a table of every figure on
//! standard error, then the result line — one JSON object — as the last
//! line of standard output.

use std::collections::BTreeMap;

use jobbench::metrics::{unit_of, END_TO_END, PER_LAYER};
use jobbench::stats::Tally;
use qob_server::Json;

/// The figures of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed, answer checks included.
    pub tally: Tally,
    /// Set when the run could not complete (a workload error).
    pub error: Option<String>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// Sets a catalogued metric (end-to-end or per-layer).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "{name} is not in the metric catalogue");
        self.metrics.insert(name, value);
    }

    /// A figure shown in the table only (workload-specific results, sample
    /// counts, the percentile reported as the tail).
    pub fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.notes.push((name.to_owned(), value.to_string()));
    }

    /// Whether every operation succeeded and every answer matched.
    pub fn correct(&self) -> bool {
        self.error.is_none() && self.tally.failed == 0
    }

    /// Prints the table to standard error and the result line to standard
    /// output.  `traced` selects the per-layer catalogue over end-to-end.
    pub fn print(&self, workload: &str, traced: bool) {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        eprintln!("== jobbench {workload} ({})", if traced { "traced" } else { "untraced" });
        for (name, unit) in catalogue {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            eprintln!("  {name:<28} {value:>16.4} {unit}");
        }
        for (name, value) in &self.notes {
            eprintln!("  {name:<28} {value:>16}");
        }
        eprintln!(
            "  {:<28} {:>16.6} ratio (failed {} of {} attempted)",
            "fail_ratio",
            self.tally.fail_ratio(),
            self.tally.failed,
            self.tally.attempted
        );
        if let Some(error) = &self.error {
            eprintln!("  error: {error}");
        }
        let metrics = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                (*name, Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(*unit))]))
            })
            .collect();
        let line = Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Json::Num(self.tally.failed.max(u64::from(self.error.is_some())) as f64)),
            ("metrics", Json::obj(metrics)),
        ]);
        println!("{line}");
    }
}
