//! Helpers of the JOB benchmark that stand on their own: sample
//! statistics, failure accounting, peak-RSS reading, span recording with
//! self time, Chrome trace-event output and the layer-by-layer comparison of
//! two traced runs.  The workloads themselves live in the `jobbench` binary.

pub mod metrics;
pub mod rss;
pub mod stats;
pub mod trace;
