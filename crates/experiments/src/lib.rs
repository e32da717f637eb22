//! Experiment harness: reproduces every figure and table of the paper's
//! evaluation (see `DESIGN.md` for the full experiment index).
//!
//! The entry points are the `figures` module (one function per paper
//! figure, returning structured data with markdown rendering) and the
//! `repro` binary (`cargo run -p icp-experiments --bin repro -- all`).
//!
//! All experiments run on a scaled-down system by default — same shape as
//! the paper's Figure 2 configuration (4 cores, 64-way shared L2, private
//! L1s) with a smaller capacity and shorter intervals so a full
//! reproduction takes seconds, not days. Working sets are specified
//! relative to L2 capacity, so the phenomenology carries over; pass a
//! paper-scale [`ExperimentConfig`] for the full-size configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod figures;
pub mod json;
pub mod miss_model;
pub mod result_cache;
pub mod runner;
pub mod sched;
pub mod scorecard;
mod single_flight;
pub mod sweeps;
pub mod table;
pub mod trace_cache;

pub use miss_model::BenchPredictor;
pub use result_cache::ResultCache;
pub use runner::{ExperimentConfig, Scheme};
pub use trace_cache::TraceCache;
