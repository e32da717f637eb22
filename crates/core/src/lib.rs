//! The paper's contribution: an interval-driven runtime system that
//! dynamically partitions a shared L2 cache **among the threads of one
//! multithreaded application**, speeding up the critical path thread.
//!
//! At the end of each execution interval the runtime reads per-thread
//! performance counters from the simulated hardware (the cache/CPI monitor
//! of Figure 17), computes a new way partition (partition engine) and
//! applies it to the L2 (configuration unit). Two policies from the paper
//! are provided:
//!
//! * [`CpiProportionalPolicy`] (§VI-A): way quotas proportional to each
//!   thread's CPI over the last interval —
//!   `partition_t = CPI_t / ΣCPI_i × TotalCacheWays`.
//! * [`ModelBasedPolicy`] (§VI-B): learns a per-thread CPI-vs-ways curve at
//!   runtime by cubic-spline fitting over observed `(ways, CPI)` points and
//!   hill-climbs — move a way from the fastest to the slowest thread until
//!   the predicted critical thread changes, then back off one step
//!   (Figure 13).
//!
//! Baseline schemes (shared, static-equal, throughput-oriented,
//! fairness-oriented) implement the same [`Partitioner`] trait in the
//! `icp-baselines` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpi_prop;
pub mod hierarchical;
pub mod lookahead;
pub mod model;
pub mod model_based;
pub mod policy;
pub mod runtime;

#[cfg(test)]
pub(crate) mod testutil;

pub use cpi_prop::{estimated_miss_penalty, propagate_cpi, CpiProportionalPolicy};
pub use hierarchical::{BudgetPolicy, HierarchicalPolicy};
pub use lookahead::lookahead_allocate;
pub use model::{ModelKind, ThreadCpiModel};
pub use model_based::ModelBasedPolicy;
pub use policy::{proportional_allocation, PartitionDecision, Partitioner};
pub use runtime::{apply, ExecutionOutcome, IntervalRecord, IntraAppRuntime};
