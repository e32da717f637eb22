//! A from-scratch chip-multiprocessor (CMP) cache and timing simulator.
//!
//! This crate is the substrate the ICP paper ran on Simics: a multi-core
//! system with per-core private L1 caches and a shared, highly-associative
//! L2 whose ways can be partitioned among threads. Partitioning is enforced
//! exactly as the paper's §V describes — not by reconfiguring the cache, but
//! by modifying the replacement policy (eviction control): a thread under
//! its way quota may evict other threads' lines; a thread at or over quota
//! may only evict its own. Any thread can *hit* on any line, so constructive
//! inter-thread sharing still works.
//!
//! The timing model is a blocking in-order core: non-memory instructions
//! retire one per cycle, memory instructions stall for the hierarchy
//! latency. Threads interleave deterministically via a min-clock event
//! scheduler, and synchronise at barriers exactly like the OpenMP parallel
//! sections of the paper's workloads (§III-B): a parallel section ends when
//! its slowest thread — the critical path thread — arrives.
//!
//! The simulator exposes per-thread, per-interval performance counters
//! (instructions, cycles, hits, misses, inter-thread interactions) that the
//! `icp-core` runtime reads at each execution interval, mirroring the
//! hardware performance monitors of the paper's runtime system (§VI-C).

// Deny (not forbid): the single exception is the runtime-dispatched SIMD
// tag scan in `l2`, which carries its own scoped `allow` and safety
// comments. Everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod budget;
pub mod cache;
pub mod config;
pub mod l2;
pub mod packed;
pub mod machine;
pub mod plru;
#[cfg(feature = "sanitize")]
pub mod sanitize;
pub mod simulator;
pub mod slice;
pub mod stats;
pub mod stream;
pub mod umon;
pub mod victim;

pub use budget::{CoreBudget, Lease};
pub use config::{CacheConfig, L2Geometry, LatencyConfig, LlcConfig, SystemConfig};
pub use l2::{EnforcementKind, PartitionMode, PartitionedL2, ReplacementKind};
pub use packed::{PackedBlock, PackedReplayStream, PackedTrace, TraceError};
pub use machine::{Machine, Measurable};
pub use simulator::{IntervalReport, Simulator, ThreadIntervalStats};
pub use slice::{Llc, SliceTopology};
pub use stats::{GlobalStats, InteractionStats, ThreadCounters};
pub use stream::{AccessStream, ThreadEvent};
pub use umon::{UmonProfile, UtilityMonitor};
pub use victim::VictimCache;

/// Identifies a hardware thread / core. The paper uses "thread" and "core"
/// interchangeably (one pinned thread per core, §III-A); so do we.
pub type ThreadId = usize;
