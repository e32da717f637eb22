//! Repository benchmark for the intra-application cache partitioning
//! reproduction.
//!
//! Four workloads drive the product's public entry points
//! (`SuiteData::collect_with_stats`, `sweeps::sweep_*_with`,
//! `ExperimentConfig::run_schemes`, `ResultCache::persistent`) and report
//! end-to-end metrics from untraced passes. A traced run replays the same
//! cells through [`trace::Tracer`], the benchmark's own copy of the runner
//! path, and derives per-layer metrics from its spans ([`layers`]). See
//! `README.md` in this directory for metrics, workloads and how to run.

#![forbid(unsafe_code)]

pub mod layers;
pub mod stats;
pub mod trace;
pub mod workload;
