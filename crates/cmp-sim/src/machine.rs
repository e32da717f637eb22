//! The machine traits: what the `icp-core` runtime, and anything else that
//! drives a simulation interval by interval, needs from a simulated CMP.

use std::borrow::Cow;

use crate::config::SystemConfig;
use crate::l2::{EnforcementKind, ReplacementKind};
use crate::simulator::{IntervalReport, Simulator};
use crate::stats::GlobalStats;
use crate::stream::AccessStream;
use crate::umon::UtilityMonitor;

/// A simulation engine that advances interval by interval and exposes
/// cumulative counters. Implemented by [`Simulator`] (any stream type) and
/// the sliced [`crate::slice::Llc`], so callers that only observe a run
/// treat both machines uniformly.
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
