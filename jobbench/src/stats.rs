//! Sample statistics and failure accounting.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-percentile (`q` in 0–1) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it: a tail figure read
/// from a handful of points is noise, so it is refused rather than
/// reported.  The median (`q = 0.5`) follows the same rule.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let value = qob_core::nearest_rank_percentile(samples, q)?;
    let beyond = samples.iter().filter(|&&s| s > value).count();
    (beyond >= MIN_BEYOND).then_some(value)
}

/// The median of `samples` (the mean of the two middle values for an even
/// count), or `None` for an empty sample.  Used for repeated set-up timings,
/// where a run has only a few samples and no tail is claimed.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// The geometric mean of strictly positive finite values, or `None` when
/// the sample is empty or holds a value that is not (a cost ratio of zero
/// or below means the recosting itself failed).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    Some(qob_core::geometric_mean(values))
}

/// Attempted and failed operations of one run.  Errors, timeouts,
/// rejections, failed ground-truth extraction and wrong answers all count
/// as failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (answered or not).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok` is false for any failure.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
