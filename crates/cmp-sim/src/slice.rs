//! The sliced-LLC machine model: an L2 split into address-hashed slices.
//!
//! # The machine model
//!
//! Commodity many-core LLCs are not monolithic: the cache is physically
//! distributed into *slices*, one per tile/cluster, and a hash of the line
//! address routes each access to its home slice. [`Llc`] models exactly
//! that regime on top of the existing simulator: an L2 of `N` slices
//! ([`crate::config::LlcConfig::slices`]), each slice an independent cache
//! with its own geometry (`1/N` of the capacity, same associativity), its
//! own way-partition state, and its own UMON. The paper's monolithic L2 is
//! the `N = 1` degenerate case — bit-identical to the serial simulator,
//! enforced by `tests/slice_equivalence.rs`.
//!
//! # Slice hashing
//!
//! [`SliceTopology::slice_of`] maps a line address to its home slice with
//! a Fibonacci multiplicative hash (golden-ratio constant, top `log2 N`
//! bits). Unlike taking the low set bits, the multiplicative hash spreads
//! *any* regular pattern — sequential walks, power-of-two strides, and the
//! head-heavy line distribution of Zipf-like streams — near-uniformly
//! across slices, which is what makes slice-level parallelism an
//! effective scaling axis (no slice starves; see the distribution tests).
//!
//! # Execution
//!
//! Each core's stream is split once into `N` per-slice packed sub-traces
//! ([`SliceTopology::split`]): an access goes to its home slice's
//! sub-trace together with its instruction gap, and barriers are
//! replicated into every sub-trace so cross-core ordering around a barrier
//! holds within each slice. [`Llc::new`] splits the streams it is given;
//! [`Llc::from_traces`] replays sub-traces split earlier, behind shared
//! [`Arc`]s, so every machine built over one workload (one per scheme in
//! the experiment trace cache) shares one split and copies nothing. At
//! `N = 1` the split is the whole trace. Slice `j` is a full [`Simulator`]
//! over the slice geometry that replays every core's slice-`j` sub-trace
//! and retires `ceil(interval / N)` instructions per interval, so one
//! merged interval covers the configured instruction budget.
//!
//! Between interval boundaries the slices share no mutable state. Each
//! interval leases up to `N - 1` extra workers from the process core budget
//! ([`crate::budget`]), runs contiguous chunks of slices on scoped worker
//! threads (the calling thread works the first chunk), and returns the
//! tokens at the merge barrier. When the budget grants nothing — a budget
//! of one core, or a pool drained by outer jobs — every slice runs inline
//! on the calling thread, in slice order.
//!
//! # Merge rules
//!
//! * Counters: summed per thread over slices `0..N`.
//! * Interval CPI: recomputed from the merged deltas (not averaged).
//! * Wall clock: core `t`'s merged clock is the *sum* of its per-slice
//!   clocks (each slice advances the core only while it works that slice),
//!   and the wall clock is the max over cores — the serial definition at
//!   `N = 1`.
//! * UMON: slice monitors observe disjoint address subsets, so summing
//!   their way-hit histograms in slice order
//!   ([`UtilityMonitor::merge_counters`]) reconstitutes the whole
//!   hits-vs-ways curve.
//!
//! # Determinism
//!
//! 1. **`N = 1` is the serial simulator** — same geometry, same interval
//!    boundary, every event in order through one slice.
//! 2. **The core budget never changes results.** Each slice advances
//!    exactly one interval per round whichever OS thread hosts it, chunks
//!    join in slice order, and the merge is a fixed-order fold. A run under
//!    `budget::scoped(CoreBudget::new(1), ..)` — every slice inline — is
//!    therefore the serial reference the worker-thread path is pinned
//!    against.
//!
//! At `N > 1` the machine *model* deliberately changes (slices are
//! independent caches; a thread's way quota applies per slice), so sliced
//! results are not comparable to monolithic ones — the experiment caches
//! key on the slice count for exactly that reason.

use std::borrow::Cow;
use std::sync::Arc;

use icp_hot_path::deterministic;

use crate::config::{CacheConfig, LlcConfig, SystemConfig};
use crate::l2::{EnforcementKind, ReplacementKind};
use crate::packed::PackedTrace;
use crate::machine::{Machine, Measurable};
use crate::simulator::{IntervalReport, Simulator, ThreadIntervalStats};
use crate::stats::{GlobalStats, ThreadCounters};
use crate::stream::{AccessStream, ReplayStream};
use crate::umon::UtilityMonitor;
use crate::ThreadId;

/// The 64-bit golden-ratio constant of the Fibonacci multiplicative hash.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Events drained per split refill.
const SPLIT_BATCH: usize = 4096;

/// Address-to-slice mapping plus the per-slice geometry, precomputed from
/// a [`SystemConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceTopology {
    /// Number of slices (>= 1).
    slices: u32,
    /// `log2(line_bytes)`: shift that turns a byte address into a line
    /// address before hashing, so all bytes of a line share a slice.
    line_shift: u32,
    /// `log2(slices)`: how many top hash bits select the slice.
    slice_bits: u32,
    /// Geometry of one slice: `1/slices` of the L2 at the same
    /// associativity and line size.
    slice_l2: CacheConfig,
}

impl SliceTopology {
    /// Derives the slice topology of `cfg` (which must validate).
    #[deterministic]
    pub fn of(cfg: &SystemConfig) -> Self {
        cfg.validate();
        let slices = cfg.llc.slices.max(1);
        SliceTopology {
            slices,
            line_shift: cfg.l2.line_bytes.trailing_zeros(),
            slice_bits: slices.trailing_zeros(),
            slice_l2: cfg.slice_l2(),
        }
    }

    /// Number of slices.
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.slices as usize
    }

    /// Geometry of one slice.
    #[inline]
    pub fn slice_l2(&self) -> CacheConfig {
        self.slice_l2
    }

    /// Home slice of a byte address: Fibonacci hash of the line address,
    /// top `log2(slices)` bits. Always 0 for a monolithic LLC.
    #[inline]
    #[deterministic]
    pub fn slice_of(&self, addr: u64) -> usize {
        if self.slices <= 1 {
            return 0;
        }
        let line = addr >> self.line_shift;
        (line.wrapping_mul(GOLDEN_GAMMA) >> (64 - self.slice_bits)) as usize
    }

    /// Records one core's stream straight into its per-slice packed
    /// sub-traces, drained through the columnar
    /// [`AccessStream::fill_packed`] path: each access goes to its home
    /// slice's sub-trace with its instruction gap, and every barrier is
    /// replicated into every sub-trace. At one slice this is
    /// [`PackedTrace::record`] of the whole stream. [`Self::join`] is the
    /// inverse.
    #[deterministic]
    pub fn split<S: AccessStream>(&self, stream: &mut S) -> Vec<Arc<PackedTrace>> {
        if self.slices <= 1 {
            return vec![Arc::new(PackedTrace::record(stream, usize::MAX))];
        }
        let mut subs: Vec<PackedTrace> =
            (0..self.num_slices()).map(|_| PackedTrace::new()).collect();
        let mut chunk = PackedTrace::with_capacity(SPLIT_BATCH);
        loop {
            let finished = stream.fill_packed(&mut chunk, SPLIT_BATCH);
            chunk.demux_into(&mut subs, |addr| self.slice_of(addr));
            if finished {
                break;
            }
            assert!(!chunk.is_empty(), "stream stalled without finishing");
        }
        // Shared for the rest of the run: spare growth capacity is waste.
        subs.into_iter()
            .map(|mut sub| {
                sub.shrink_to_fit();
                Arc::new(sub)
            })
            .collect()
    }

    /// The inverse of [`Self::split`]: one core's stream whose split is
    /// `subs` again. Between consecutive barriers it takes slice 0's
    /// accesses, then slice 1's, and so on, so `split(join(subs)) == subs`
    /// holds although the order *across* slices within a barrier segment
    /// is not the recorded one (no slice observes it). At one slice the
    /// sub-trace is the whole trace and comes back without a copy.
    ///
    /// # Panics
    /// Panics unless `subs` holds one sub-trace per slice.
    #[deterministic]
    pub fn join(&self, subs: &[Arc<PackedTrace>]) -> Arc<PackedTrace> {
        assert_eq!(subs.len(), self.num_slices(), "one sub-trace per slice");
        if let [whole] = subs {
            return Arc::clone(whole);
        }
        // A split replicates every barrier, so each sub-trace carries the
        // same count.
        let barriers = subs.iter().map(|s| s.barriers()).min().unwrap_or(0);
        let mut whole = PackedTrace::with_capacity(subs.iter().map(|s| s.accesses()).sum());
        let mut from = vec![0; subs.len()];
        for b in 0..=barriers {
            for (sub, at) in subs.iter().zip(&mut from) {
                let to = if b < barriers { sub.barrier_at(b) } else { sub.accesses() };
                whole.extend_accesses(sub, *at, to);
                *at = to;
            }
            if b < barriers {
                whole.push_barrier();
            }
        }
        Arc::new(whole)
    }
}

/// A sliced-LLC CMP machine — see the [module docs](self) for the model,
/// merge rules and determinism guarantees. Driven through its [`Machine`]
/// and [`Measurable`] impls, like the serial [`Simulator`].
///
/// # Examples
///
/// ```
/// use icp_cmp_sim::config::LlcConfig;
/// use icp_cmp_sim::slice::Llc;
/// use icp_cmp_sim::stream::ReplayStream;
/// use icp_cmp_sim::{Machine, Measurable, SystemConfig, ThreadEvent};
///
/// let mut cfg = SystemConfig::scaled_down();
/// cfg.cores = 2;
/// cfg.llc = LlcConfig::sliced(4);
/// let walk = |stride: u64| -> ReplayStream {
///     ReplayStream::new((0..100).map(|i| ThreadEvent::access(3, i * stride * 64)).collect())
/// };
/// let mut llc = Llc::new(cfg, vec![walk(1), walk(7)]);
/// llc.set_partition(&[48, 16]);
/// while let Some(report) = llc.run_interval() {
///     if report.finished {
///         break;
///     }
/// }
/// assert!(llc.wall_cycles() > 0);
/// ```
pub struct Llc {
    /// The machine config: full-LLC geometry, undivided interval.
    cfg: SystemConfig,
    /// Slice `j`: a simulator at the slice geometry replaying every core's
    /// slice-`j` sub-trace.
    slices: Vec<Simulator<ReplayStream>>,
    /// Merged cumulative statistics, rebuilt at each interval boundary.
    stats: GlobalStats,
    interval_index: usize,
    done: bool,
}

impl Llc {
    /// Builds a sliced-LLC machine from `cfg` (slice count taken from
    /// `cfg.llc`), splitting every core's stream into its per-slice
    /// sub-traces up front ([`SliceTopology::split`], then
    /// [`Llc::from_traces`]).
    ///
    /// # Panics
    /// Panics if the config is invalid or the stream count doesn't match
    /// `cfg.cores`.
    #[deterministic]
    pub fn new<S: AccessStream>(cfg: SystemConfig, streams: Vec<S>) -> Self {
        let topology = SliceTopology::of(&cfg);
        let traces: Vec<Vec<Arc<PackedTrace>>> =
            streams.into_iter().map(|mut s| topology.split(&mut s)).collect();
        Llc::from_traces(cfg, &traces)
    }

    /// Builds a sliced-LLC machine from `cfg` over shared per-slice
    /// sub-traces: `traces[t]` is core `t`'s [`SliceTopology::split`] for
    /// `cfg`'s topology. Each slice replays the shared columns, so any
    /// number of machines over one split copy nothing.
    ///
    /// # Panics
    /// Panics if the config is invalid, or `traces` does not hold one split
    /// per core with one sub-trace per slice.
    #[deterministic]
    pub fn from_traces(cfg: SystemConfig, traces: &[Vec<Arc<PackedTrace>>]) -> Self {
        let topology = SliceTopology::of(&cfg);
        assert_eq!(traces.len(), cfg.cores, "one stream per core");
        let n = topology.num_slices();
        assert!(traces.iter().all(|subs| subs.len() == n), "one sub-trace per slice");
        // Each slice simulator runs the slice geometry with a 1/N share of
        // the interval budget (rounded up); the outer config keeps the full
        // geometry so merged reports and way quotas stay in whole-LLC
        // terms. At N = 1 this is `cfg` verbatim.
        let mut slice_cfg = cfg;
        slice_cfg.l2 = topology.slice_l2();
        slice_cfg.llc = LlcConfig::monolithic();
        slice_cfg.interval_instructions = cfg.interval_instructions.div_ceil(n as u64);
        // Slice j replays every core's slice-j sub-trace.
        let slices = (0..n)
            .map(|j| {
                let streams = traces.iter().map(|subs| PackedTrace::stream(&subs[j])).collect();
                Simulator::from_streams(slice_cfg, streams)
            })
            .collect();
        Llc { cfg, slices, stats: GlobalStats::new(cfg.cores), interval_index: 0, done: false }
    }

    /// Core `t`'s merged clock: the sum of its per-slice clocks.
    fn core_clock(&self, t: ThreadId) -> u64 {
        self.slices.iter().map(|s| s.core_clock(t)).sum()
    }

    /// The machine-wide utility profile: slice 0's monitor with every
    /// other slice's counters summed in, in slice order. `None` when UMON
    /// was never enabled.
    #[deterministic]
    fn merged_umon(&self) -> Option<UtilityMonitor> {
        let mut iter = self.slices.iter().filter_map(|s| s.umon());
        let mut merged = iter.next()?.clone();
        for m in iter {
            merged.merge_counters(m);
        }
        Some(merged)
    }

    /// Fixed-order reduction of one round of per-slice interval reports.
    /// A `None` entry (slice already finished) contributes a zero delta.
    #[deterministic]
    fn merge(&mut self, reports: Vec<Option<IntervalReport>>) -> Option<IntervalReport> {
        if reports.iter().all(Option::is_none) {
            self.done = true;
            return None;
        }
        let cores = self.cfg.cores;
        let mut deltas = vec![ThreadCounters::default(); cores];
        let mut ways = vec![0u32; cores];
        for r in reports.iter().flatten() {
            for (t, ts) in r.threads.iter().enumerate() {
                deltas[t].add(&ts.counters);
            }
        }
        // Partition state is replicated, so any slice's quota view works;
        // slice order makes the choice deterministic.
        if let Some(first) = reports.iter().flatten().next() {
            for (t, w) in ways.iter_mut().enumerate() {
                *w = first.threads[t].ways;
            }
        }
        // Rebuild the merged cumulative stats from scratch in slice order.
        let mut stats = GlobalStats::new(cores);
        for s in &self.slices {
            let slice_stats = s.stats();
            for (t, acc) in stats.threads.iter_mut().enumerate() {
                acc.add(&slice_stats.threads[t]);
            }
            stats.interactions.add(&slice_stats.interactions);
        }
        self.stats = stats;
        let finished = self.slices.iter().all(Simulator::is_finished);
        self.done = finished;
        let report = IntervalReport {
            index: self.interval_index,
            threads: deltas
                .into_iter()
                .zip(ways)
                .map(|(counters, ways)| ThreadIntervalStats {
                    counters,
                    cpi: counters.cpi(),
                    ways,
                })
                .collect(),
            finished,
            wall_cycles: self.wall_cycles(),
        };
        self.interval_index += 1;
        Some(report)
    }
}

/// Runs one interval of every slice on up to `workers` threads: the
/// calling thread takes the first contiguous chunk of slices, scoped
/// workers take the rest, and the per-chunk reports are concatenated in
/// chunk (= slice) order. Each slice still advances exactly one interval,
/// independently, so chunking only decides which OS thread hosts which
/// slice — one worker is the inline walk in slice order.
fn run_slices(
    slices: &mut [Simulator<ReplayStream>],
    workers: usize,
) -> Vec<Option<IntervalReport>> {
    let n = slices.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return slices.iter_mut().map(Simulator::run_interval).collect();
    }
    let base = n / workers;
    let extra = n % workers;
    let mut rest = slices;
    let mut chunks: Vec<&mut [Simulator<ReplayStream>]> = Vec::with_capacity(workers);
    for i in 0..workers {
        let take = base + usize::from(i < extra);
        let (head, tail) = rest.split_at_mut(take);
        chunks.push(head);
        rest = tail;
    }
    std::thread::scope(|scope| {
        let mut iter = chunks.into_iter();
        let mine = iter.next();
        let handles: Vec<_> = iter
            .map(|chunk| {
                scope.spawn(move || {
                    chunk.iter_mut().map(Simulator::run_interval).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut reports: Vec<Option<IntervalReport>> = Vec::with_capacity(n);
        // The calling thread works its own chunk while the workers run.
        if let Some(chunk) = mine {
            reports.extend(chunk.iter_mut().map(Simulator::run_interval));
        }
        // Joining in spawn (= slice-chunk) order makes the concatenated
        // sequence independent of completion order.
        for h in handles {
            match h.join() {
                Ok(part) => reports.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        reports
    })
}

impl Measurable for Llc {
    /// Merged cumulative statistics, current as of the last interval
    /// boundary.
    fn stats(&self) -> &GlobalStats {
        &self.stats
    }

    /// Stream events consumed so far, summed over slices.
    fn events_processed(&self) -> u64 {
        self.slices.iter().map(|s| s.events_processed()).sum()
    }

    /// Merged wall clock: the maximum merged core clock.
    fn wall_cycles(&self) -> u64 {
        (0..self.cfg.cores).map(|t| self.core_clock(t)).max().unwrap_or(0)
    }

    /// Runs every slice to its next interval boundary and merges the
    /// per-slice reports in slice order. Returns `None` once the workload
    /// has completed.
    #[deterministic]
    fn run_interval(&mut self) -> Option<IntervalReport> {
        if self.done {
            return None;
        }
        let reports = {
            // Lease per interval; the tokens return at the merge barrier.
            let lease = crate::budget::current().lease(self.slices.len().saturating_sub(1));
            run_slices(&mut self.slices, 1 + lease.tokens())
        };
        self.merge(reports)
    }
}

impl Machine for Llc {
    fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Applies a way partition to every slice (quotas in way units; ways
    /// are not divided across slices, so a thread's quota applies in each
    /// slice independently).
    fn set_partition(&mut self, targets: &[u32]) {
        for s in &mut self.slices {
            s.set_partition(targets);
        }
    }

    /// Applies a set partition (quotas in way units, converted to set
    /// ranges within each slice).
    fn set_set_partition(&mut self, quotas: &[u32]) {
        for s in &mut self.slices {
            s.set_set_partition(quotas);
        }
    }

    fn set_unpartitioned(&mut self) {
        for s in &mut self.slices {
            s.set_unpartitioned();
        }
    }

    fn set_replacement(&mut self, kind: ReplacementKind) {
        for s in &mut self.slices {
            s.set_replacement(kind);
        }
    }

    fn set_enforcement(&mut self, kind: EnforcementKind) {
        for s in &mut self.slices {
            s.set_enforcement(kind);
        }
    }

    /// Attaches a utility monitor to every slice. `sample_every` is
    /// clamped to the slice set count so callers can pass whole-LLC
    /// sampling rates unchanged.
    fn enable_umon(&mut self, sample_every: u64) {
        for s in &mut self.slices {
            let sets = s.config().l2.num_sets();
            s.enable_umon(sample_every.min(sets));
        }
    }

    fn umon_enabled(&self) -> bool {
        self.slices.iter().any(|s| s.umon().is_some())
    }

    /// One slice lends its monitor; more slices merge theirs into an
    /// owned one.
    fn umon_view(&self) -> Option<Cow<'_, UtilityMonitor>> {
        match self.slices.as_slice() {
            [whole] => whole.umon().map(Cow::Borrowed),
            _ => self.merged_umon().map(Cow::Owned),
        }
    }

    fn decay_umon(&mut self) {
        for s in &mut self.slices {
            if let Some(u) = s.umon_mut() {
                u.decay_counters();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{self, CoreBudget};
    use crate::config::{CacheConfig, LatencyConfig};
    use crate::stream::{ReplayStream, ThreadEvent};

    fn tiny_cfg(slices: u32) -> SystemConfig {
        SystemConfig {
            cores: 2,
            l1: CacheConfig::new(2 * 64 * 2, 2, 64), // 2 sets x 2 ways
            l2: CacheConfig::new(8 * 64 * 4, 4, 64), // 8 sets x 4 ways
            llc: LlcConfig::sliced(slices),
            latency: LatencyConfig { l1_hit: 1, l2_hit: 10, memory: 100 },
            interval_instructions: 64,
            inclusive: false,
            coherence: false,
            prefetch_degree: 0,
            l2_banks: 0,
            victim_cache_lines: 0,
        }
    }

    fn walk(lines: u64, stride: u64, n: u64) -> Vec<ThreadEvent> {
        (0..n).map(|i| ThreadEvent::access(2, ((i * stride) % lines) * 64)).collect()
    }

    fn streams(n: u64) -> Vec<ReplayStream> {
        vec![ReplayStream::new(walk(32, 3, n)), ReplayStream::new(walk(32, 7, n))]
    }

    fn run(llc: &mut Llc) -> (u64, GlobalStats, Vec<u64>) {
        let mut insts = Vec::new();
        while let Some(r) = llc.run_interval() {
            insts.push(r.threads.iter().map(|t| t.counters.instructions).sum());
            if r.finished {
                break;
            }
        }
        (llc.wall_cycles(), llc.stats().clone(), insts)
    }

    /// Builds and runs the machine to completion under a private core
    /// budget of `cores`.
    fn run_under(cores: usize, cfg: SystemConfig, n: u64) -> (u64, GlobalStats, Vec<u64>) {
        budget::scoped(CoreBudget::new(cores), || run(&mut Llc::new(cfg, streams(n))))
    }

    /// N = 1 is the serial simulator, bit for bit.
    #[test]
    fn one_slice_equals_serial() {
        let cfg = tiny_cfg(1);
        let mut serial = Simulator::from_streams(cfg, streams(200));
        while serial.run_interval().is_some() {}
        let mut llc = Llc::new(cfg, streams(200));
        while llc.run_interval().is_some() {}
        assert_eq!(serial.wall_cycles(), llc.wall_cycles());
        assert_eq!(serial.stats(), llc.stats());
    }

    /// Worker-thread execution (one worker per slice) is bit-identical to
    /// the inline walk of a one-core budget at every slice count.
    #[test]
    fn parallel_matches_serial_reference() {
        for slices in [1u32, 2, 4, 8] {
            let cfg = tiny_cfg(slices);
            let (wall_p, stats_p, insts_p) = run_under(slices as usize, cfg, 300);
            let (wall_s, stats_s, insts_s) = run_under(1, cfg, 300);
            assert_eq!(wall_p, wall_s, "N={slices}: wall diverged");
            assert_eq!(stats_p, stats_s, "N={slices}: stats diverged");
            assert_eq!(insts_p, insts_s, "N={slices}: interval shape diverged");
        }
    }

    /// Every slice count conserves total instructions and accesses — the
    /// slice-hash demux loses nothing.
    #[test]
    fn slicing_conserves_work() {
        let (_, base, _) = run(&mut Llc::new(tiny_cfg(1), streams(250)));
        for slices in [2u32, 4, 8] {
            let (_, stats, _) = run(&mut Llc::new(tiny_cfg(slices), streams(250)));
            for t in 0..2 {
                assert_eq!(
                    stats.threads[t].instructions, base.threads[t].instructions,
                    "N={slices} thread {t}"
                );
                assert_eq!(
                    stats.threads[t].l1_hits + stats.threads[t].l1_misses,
                    base.threads[t].l1_hits + base.threads[t].l1_misses,
                    "N={slices} thread {t}"
                );
            }
        }
    }

    /// The monolithic topology maps everything to slice 0; sliced
    /// topologies stay in range and agree per line.
    #[test]
    fn slice_hash_is_line_granular_and_in_range() {
        let mono = SliceTopology::of(&tiny_cfg(1));
        let quad = SliceTopology::of(&tiny_cfg(4));
        for addr in [0u64, 63, 64, 4095, 0xDEAD_BEEF, u64::MAX / 3] {
            assert_eq!(mono.slice_of(addr), 0);
            let s = quad.slice_of(addr);
            assert!(s < 4);
            // All bytes of one line share a slice.
            assert_eq!(quad.slice_of(addr), quad.slice_of(addr | 63));
        }
    }

    /// The Fibonacci hash spreads sequential and strided line patterns
    /// near-uniformly: no slice takes more than twice its fair share.
    #[test]
    fn slice_hash_spreads_regular_patterns() {
        let topo = SliceTopology::of(&tiny_cfg(8));
        for stride in [1u64, 2, 8, 64, 4096] {
            let mut counts = [0u64; 8];
            for i in 0..4096u64 {
                counts[topo.slice_of(i * stride * 64)] += 1;
            }
            let fair = 4096 / 8;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    c > fair / 2 && c < fair * 2,
                    "stride {stride}: slice {s} got {c} of 4096 (fair {fair})"
                );
            }
        }
    }

    /// The per-slice geometry divides sets, not ways, and UMON profiles
    /// merge across slices: at N = 1 the merged profile is the serial one,
    /// and at N > 1 it conserves every sampled observation.
    #[test]
    fn sliced_umon_merges() {
        let mono = tiny_cfg(1);
        let mut serial = Simulator::from_streams(mono, streams(200));
        serial.enable_umon(1);
        while serial.run_interval().is_some() {}
        let reference = serial.umon().expect("umon enabled");
        let observed = |u: &UtilityMonitor, t: ThreadId| {
            u.way_histogram(t).iter().sum::<u64>() + u.compulsory_capacity_misses(t)
        };
        for slices in [1u32, 2, 4] {
            let cfg = tiny_cfg(slices);
            let mut llc = Llc::new(cfg, streams(200));
            assert!(!llc.umon_enabled());
            llc.enable_umon(1);
            assert!(llc.umon_enabled());
            while llc.run_interval().is_some() {}
            let merged = llc.umon_view().expect("umon enabled");
            for t in 0..2 {
                if slices == 1 {
                    assert_eq!(merged.way_histogram(t), reference.way_histogram(t));
                }
                assert_eq!(
                    observed(&merged, t),
                    observed(reference, t),
                    "N={slices} thread {t}: observations lost"
                );
            }
        }
    }
}
