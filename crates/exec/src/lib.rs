//! # qob-exec
//!
//! The in-memory query execution engine of the JOB reproduction — the
//! counterpart of PostgreSQL's executor in the paper's methodology: every
//! plan, whichever estimator produced it, is executed by this same engine so
//! that runtime differences can be attributed to plan quality alone.
//!
//! Operators (Section 2.3 of the paper):
//!
//! * full table **scans** with pushed-down selection predicates, evaluated
//!   by the storage layer's page-aware [`qob_storage::Selection`] kernel one
//!   morsel (row range) at a time — the same kernel ground truth uses,
//! * **hash joins** whose hash table is sized from the *cardinality
//!   estimate* of the build side — reproducing the PostgreSQL ≤ 9.4
//!   behaviour — with optional runtime **rehashing** (the 9.5 fix studied in
//!   Figure 6c),
//! * **index-nested-loop joins** against the catalog's hash indexes,
//! * plain (non-indexed) **nested-loop joins** — the risky algorithm the
//!   paper disables in Section 4.1,
//! * **sort-merge joins**.
//!
//! The engine is **morsel-driven** (see [`pipeline`]): plans decompose into
//! pipelines at breakers (hash-join builds, sort-merge sorts), hash tables
//! are built with parallel partition-wise inserts, and worker threads pull
//! fixed-size morsels of tuples through each probe pipeline.  `threads: 1`
//! reproduces the historical sequential interpreter exactly.
//!
//! The crate also computes exact cardinalities of every connected
//! subexpression of a query ([`true_cardinalities`]), the equivalent of the
//! paper's `SELECT COUNT(*)` ground-truth extraction — parallelisable both
//! across queries ([`true_cardinalities_batch`]) and within one.

pub mod executor;
pub mod hashtable;
pub mod intermediate;
pub mod operators;
pub mod pipeline;
pub mod scheduler;
pub mod truecard;

pub use executor::{
    default_threads, execute_plan, execute_plan_with, materialize_plan, AdaptiveOptions,
    ExecutionError, ExecutionOptions, ExecutionResult, OperatorTiming, DEFAULT_MORSEL_SIZE,
};
pub use hashtable::ChainedHashTable;
pub use intermediate::{Intermediate, Materialized};
pub use scheduler::{
    trace_tid, PipelineSpan, WorkerPool, WorkerTimelineSnapshot, SPAN_RING_CAPACITY,
};
pub use truecard::{true_cardinalities, true_cardinalities_batch, TrueCardinalityOptions};
