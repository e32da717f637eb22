//! Host-side throughput observability for simulator runs.
//!
//! Simulation studies live and die by simulator throughput: a partitioning
//! sweep multiplies every per-access cost by billions. This module times a
//! region of simulation and reports how fast the host chewed through it —
//! accesses/sec and events/sec — by diffing the simulator's own counters
//! around the timed closure. Nothing here perturbs simulated behaviour;
//! the counters it reads are maintained unconditionally.
//!
//! The tracked harness in `icp-experiments::hotpath` builds on this to
//! record a perf trajectory (`BENCH_hotpath.json`) across changes.

use std::borrow::Cow;
use std::time::Instant;

use crate::config::SystemConfig;
use crate::l2::{EnforcementKind, ReplacementKind};
use crate::simulator::{IntervalReport, Simulator};
use crate::stats::GlobalStats;
use crate::stream::AccessStream;
use crate::umon::UtilityMonitor;

/// Throughput of one timed simulation region.
#[derive(Clone, Copy, Debug)]
pub struct PerfReport {
    /// Demand memory accesses simulated over the region (L1 hits + misses,
    /// summed over threads).
    pub accesses: u64,
    /// Stream events consumed over the region (accesses + barriers +
    /// finishes) — see [`Simulator::events_processed`].
    pub events: u64,
    /// Instructions retired over the region, summed over threads.
    pub instructions: u64,
    /// Simulated cycles elapsed over the region (wall-clock delta).
    pub sim_cycles: u64,
    /// Host seconds the region took (floored at 1 ns so rates stay finite).
    pub host_secs: f64,
}

impl PerfReport {
    /// Simulated demand accesses per host second — the headline number.
    pub fn accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / self.host_secs
    }

    /// Stream events consumed per host second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.host_secs
    }

    /// Simulated instructions per host second, in millions (classic MIPS).
    pub fn mips(&self) -> f64 {
        self.instructions as f64 / self.host_secs / 1e6
    }
}

/// A simulation engine the perf harness can time: anything that advances
/// interval by interval and exposes cumulative counters. Implemented by
/// [`Simulator`] (any stream type) and the sliced [`crate::slice::Llc`],
/// so the hot-path scenarios and the tracked bench treat both machines
/// uniformly.
pub trait Measurable {
    /// Cumulative statistics (see [`Simulator::stats`]).
    fn stats(&self) -> &GlobalStats;
    /// Stream events consumed so far (see [`Simulator::events_processed`]).
    fn events_processed(&self) -> u64;
    /// Wall-clock cycles simulated so far (see [`Simulator::wall_cycles`]).
    fn wall_cycles(&self) -> u64;
    /// Advances to the next interval boundary (see
    /// [`Simulator::run_interval`]).
    fn run_interval(&mut self) -> Option<IntervalReport>;
}

impl<S: AccessStream> Measurable for Simulator<S> {
    fn stats(&self) -> &GlobalStats {
        Simulator::stats(self)
    }

    fn events_processed(&self) -> u64 {
        Simulator::events_processed(self)
    }

    fn wall_cycles(&self) -> u64 {
        Simulator::wall_cycles(self)
    }

    fn run_interval(&mut self) -> Option<IntervalReport> {
        Simulator::run_interval(self)
    }
}

/// A complete partitionable CMP machine the `icp-core` runtime can drive:
/// a [`Measurable`] engine that additionally exposes partition control,
/// replacement/enforcement selection and utility monitoring. Implemented
/// by the serial [`Simulator`] and the sliced-LLC [`crate::slice::Llc`],
/// so one runtime loop drives every machine model.
///
/// The UMON surface is read-by-value ([`Machine::umon_view`]) because
/// multi-slice machines materialise a merged monitor on demand; the serial
/// simulator hands out a zero-copy borrow.
pub trait Machine: Measurable {
    /// The system configuration (full-LLC geometry for sliced machines).
    fn config(&self) -> &SystemConfig;
    /// Applies a way partition (see [`Simulator::set_partition`]).
    fn set_partition(&mut self, targets: &[u32]);
    /// Applies a set partition from way-unit quotas (see
    /// [`Simulator::set_set_partition`]).
    fn set_set_partition(&mut self, quotas: &[u32]);
    /// Reverts to plain shared (global LRU) operation.
    fn set_unpartitioned(&mut self);
    /// Selects the L2 replacement policy.
    fn set_replacement(&mut self, kind: ReplacementKind);
    /// Selects the partition enforcement mechanism.
    fn set_enforcement(&mut self, kind: EnforcementKind);
    /// Attaches a utility monitor (see [`Simulator::enable_umon`];
    /// sliced machines clamp the sampling rate to the slice set count).
    fn enable_umon(&mut self, sample_every: u64);
    /// Whether a utility monitor is attached.
    fn umon_enabled(&self) -> bool;
    /// The machine-wide utility monitor: borrowed from a serial simulator,
    /// merged-on-demand (owned) from a multi-slice machine. `None` when
    /// UMON was never enabled.
    fn umon_view(&self) -> Option<Cow<'_, UtilityMonitor>>;
    /// Halves the monitor's counters (no-op without a monitor).
    fn decay_umon(&mut self);
}

impl<S: AccessStream> Machine for Simulator<S> {
    fn config(&self) -> &SystemConfig {
        Simulator::config(self)
    }

    fn set_partition(&mut self, targets: &[u32]) {
        Simulator::set_partition(self, targets);
    }

    fn set_set_partition(&mut self, quotas: &[u32]) {
        Simulator::set_set_partition(self, quotas);
    }

    fn set_unpartitioned(&mut self) {
        Simulator::set_unpartitioned(self);
    }

    fn set_replacement(&mut self, kind: ReplacementKind) {
        Simulator::set_replacement(self, kind);
    }

    fn set_enforcement(&mut self, kind: EnforcementKind) {
        Simulator::set_enforcement(self, kind);
    }

    fn enable_umon(&mut self, sample_every: u64) {
        Simulator::enable_umon(self, sample_every);
    }

    fn umon_enabled(&self) -> bool {
        self.umon().is_some()
    }

    fn umon_view(&self) -> Option<Cow<'_, UtilityMonitor>> {
        self.umon().map(Cow::Borrowed)
    }

    fn decay_umon(&mut self) {
        if let Some(u) = self.umon_mut() {
            u.decay_counters();
        }
    }
}

/// (accesses, events, instructions, wall_cycles) as of now.
fn snapshot<M: Measurable>(sim: &M) -> (u64, u64, u64, u64) {
    let stats = sim.stats();
    let accesses = stats.threads.iter().map(|t| t.l1_hits + t.l1_misses).sum();
    let instructions = stats.threads.iter().map(|t| t.instructions).sum();
    (accesses, sim.events_processed(), instructions, sim.wall_cycles())
}

/// Times `f(sim)` and reports the throughput of whatever it simulated.
///
/// Counters are snapshotted before and after, so `measure` composes with
/// partially-run simulators and can time individual intervals.
pub fn measure<M: Measurable, R>(
    sim: &mut M,
    f: impl FnOnce(&mut M) -> R,
) -> (R, PerfReport) {
    let (a0, e0, i0, c0) = snapshot(sim);
    let started = Instant::now();
    let out = f(sim);
    let host_secs = started.elapsed().as_secs_f64().max(1e-9);
    let (a1, e1, i1, c1) = snapshot(sim);
    let report = PerfReport {
        accesses: a1 - a0,
        events: e1 - e0,
        instructions: i1 - i0,
        sim_cycles: c1 - c0,
        host_secs,
    };
    (out, report)
}

/// Runs the simulator to completion under the timer.
pub fn measure_to_completion<M: Measurable>(sim: &mut M) -> PerfReport {
    measure(sim, |s| {
        while let Some(report) = s.run_interval() {
            if report.finished {
                break;
            }
        }
    })
    .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, LatencyConfig, SystemConfig};
    use crate::stream::{ReplayStream, ThreadEvent};

    fn sim_with(events: Vec<ThreadEvent>) -> Simulator {
        let cfg = SystemConfig {
            cores: 1,
            l1: CacheConfig::new(2 * 64 * 2, 2, 64),
            l2: CacheConfig::new(4 * 64 * 4, 4, 64),
            llc: Default::default(),
            latency: LatencyConfig { l1_hit: 1, l2_hit: 10, memory: 100 },
            interval_instructions: 1000,
            inclusive: false,
            coherence: false,
            prefetch_degree: 0,
            l2_banks: 0,
            victim_cache_lines: 0,
        };
        Simulator::new(cfg, vec![Box::new(ReplayStream::new(events))])
    }

    #[test]
    fn measure_counts_region_deltas() {
        let events: Vec<ThreadEvent> =
            (0..10).map(|i| ThreadEvent::access(2, i * 64)).collect();
        let mut sim = sim_with(events);
        let report = measure_to_completion(&mut sim);
        assert_eq!(report.accesses, 10);
        assert_eq!(report.events, 11); // + the Finished event
        assert_eq!(report.instructions, 30); // (gap 2 + 1) x 10
        assert!(report.sim_cycles > 0);
        assert!(report.accesses_per_sec() > 0.0);
        assert!(report.events_per_sec() >= report.accesses_per_sec());
    }

    #[test]
    fn measure_composes_across_regions() {
        let events: Vec<ThreadEvent> =
            (0..10).map(|i| ThreadEvent::access(2, i * 64)).collect();
        let mut sim = sim_with(events);
        // First region: one interval; second region: the rest. The deltas
        // must sum to the whole run.
        let (_, first) = measure(&mut sim, |s| {
            s.run_interval();
        });
        let second = measure_to_completion(&mut sim);
        assert_eq!(first.accesses + second.accesses, 10);
        assert_eq!(first.events + second.events, 11);
    }
}
