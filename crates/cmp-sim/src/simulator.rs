//! The CMP simulator: cores, memory hierarchy, barriers and execution
//! intervals.
//!
//! Each core is a blocking in-order pipeline: non-memory instructions retire
//! one per cycle; a memory instruction stalls for the hierarchy latency
//! (L1 hit / L2 hit / memory). Cores advance under a deterministic
//! *min-clock* discipline — the core with the smallest local clock processes
//! its next event — which interleaves accesses to the shared L2 in global
//! time order, the standard approach for trace-driven multi-core cache
//! simulation.
//!
//! Execution is divided into *intervals* of a configurable number of retired
//! instructions (summed over threads; the paper uses 15 M). At each interval
//! boundary [`Simulator::run_interval`] returns per-thread counters so a
//! runtime system can repartition the L2 — the control loop of the paper's
//! Figure 17 (cache/CPI monitor → partition engine → configuration unit).

use crate::cache::SetAssocCache;
use crate::config::{L2Geometry, SystemConfig};
use crate::l2::PartitionedL2;
use crate::packed::PackedTrace;
use crate::stats::{GlobalStats, ThreadCounters};
use crate::stream::{AccessStream, ThreadEvent};
use crate::umon::UtilityMonitor;
use crate::victim::VictimCache;
use crate::ThreadId;
use icp_hot_path::{deterministic, hot_path};

/// Per-thread statistics for one execution interval.
#[derive(Clone, Copy, Debug)]
pub struct ThreadIntervalStats {
    /// Counter deltas over the interval.
    pub counters: ThreadCounters,
    /// Cycles-per-instruction over the interval (active cycles only).
    pub cpi: f64,
    /// The L2 way quota this thread had during the interval (equal share in
    /// unpartitioned mode, for reporting purposes).
    pub ways: u32,
}

/// What the runtime sees at an interval boundary.
#[derive(Clone, Debug)]
pub struct IntervalReport {
    /// 0-based interval index.
    pub index: usize,
    /// Per-thread interval statistics.
    pub threads: Vec<ThreadIntervalStats>,
    /// True if the whole workload retired during this interval; no further
    /// intervals will run.
    pub finished: bool,
    /// Wall-clock cycles so far (max over core clocks).
    pub wall_cycles: u64,
}

impl IntervalReport {
    /// Index of the critical path thread: the highest-CPI thread of the
    /// interval (ties broken toward the lower thread id).
    pub fn critical_thread(&self) -> ThreadId {
        self.threads
            .iter()
            .enumerate()
            .max_by(|(i, a), (j, b)| a.cpi.total_cmp(&b.cpi).then(j.cmp(i)))
            .map(|(i, _)| i)
            .expect("at least one thread")
    }

    /// Overall CPI of the interval: total active cycles / total
    /// instructions (the "Overall CPI" column of the paper's Figure 18).
    pub fn overall_cpi(&self) -> f64 {
        let insts: u64 = self.threads.iter().map(|t| t.counters.instructions).sum();
        if insts == 0 {
            return 0.0;
        }
        let cycles: u64 = self.threads.iter().map(|t| t.counters.active_cycles).sum();
        cycles as f64 / insts as f64
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CoreStatus {
    Running,
    AtBarrier,
    Finished,
}

#[derive(Clone, Copy, Debug)]
struct CoreState {
    clock: u64,
    status: CoreStatus,
}

/// Events requested per stream refill (see [`AccessStream::fill_packed`]).
/// Big enough to amortise the virtual call and let generators batch their
/// work; small enough that a ring stays cache-resident (256 events x ~14 B
/// of columns ≈ 3.6 KB).
const EVENT_BATCH: usize = 256;

/// Entries in the per-`mlp_tenths` miss-latency table. Valid workload specs
/// keep `mlp` in `[1, 16]` (so `mlp_tenths <= 160`); 256 leaves headroom for
/// hand-built streams while the table still fits in four cache lines.
const MISS_LUT_SIZE: usize = 256;

/// A per-core buffer of prefetched stream events in packed column form.
/// Streams are generation-only (nothing the simulator does feeds back into
/// them), so pulling events ahead of consumption cannot change any
/// simulated outcome — the `batch_equivalence` integration suite pins this
/// down. Refills go through [`AccessStream::fill_packed`], so columnar
/// generators and packed replays write straight into the ring's columns.
#[derive(Clone, Debug)]
struct EventRing {
    /// The chunk being drained (columns read in place).
    block: PackedTrace,
    /// Accesses consumed from `block`.
    pos: usize,
    /// Barriers consumed from `block`.
    nb: usize,
    /// The stream ended with the current chunk: once it drains, the core
    /// sees `Finished`.
    finished: bool,
}

impl EventRing {
    fn new() -> Self {
        EventRing { block: PackedTrace::new(), pos: 0, nb: 0, finished: false }
    }

    /// Every event of the current chunk has been delivered.
    #[inline]
    fn drained(&self) -> bool {
        self.pos >= self.block.accesses() && self.nb >= self.block.barriers()
    }
}

/// The simulated CMP.
///
/// # Examples
///
/// ```
/// use icp_cmp_sim::stream::ReplayStream;
/// use icp_cmp_sim::{Simulator, SystemConfig, ThreadEvent};
///
/// let mut cfg = SystemConfig::scaled_down();
/// cfg.cores = 2;
/// let walk = |stride: u64| -> ReplayStream {
///     ReplayStream::new((0..100).map(|i| ThreadEvent::access(3, i * stride * 64)).collect())
/// };
/// let mut sim = Simulator::new(cfg, vec![Box::new(walk(1)), Box::new(walk(7))]);
/// sim.set_partition(&[48, 16]); // thread 0 gets 48 of 64 ways
/// while let Some(report) = sim.run_interval() {
///     if report.finished {
///         break;
///     }
/// }
/// assert!(sim.wall_cycles() > 0);
/// ```
///
/// The stream type defaults to boxed trait objects (heterogeneous streams,
/// the common case); instantiating with a concrete `Send` stream type such
/// as [`crate::stream::ReplayStream`] yields a `Send` simulator that
/// worker threads can own — the slices of [`crate::slice::Llc`].
pub struct Simulator<S = Box<dyn AccessStream>> {
    cfg: SystemConfig,
    /// Shift/mask address math for the L2 geometry (shared line size with
    /// the L1s, per [`SystemConfig::validate`]).
    geom: L2Geometry,
    pub(crate) l1s: Vec<SetAssocCache>,
    pub(crate) l2: PartitionedL2,
    umon: Option<UtilityMonitor>,
    streams: Vec<S>,
    /// One prefetched-event ring per core (see [`EventRing`]).
    rings: Vec<EventRing>,
    cores: Vec<CoreState>,
    stats: GlobalStats,
    /// Snapshot of cumulative counters at the last interval boundary.
    interval_base: Vec<ThreadCounters>,
    total_instructions: u64,
    next_boundary: u64,
    interval_index: usize,
    done: bool,
    /// Cores whose status is `Finished`. A core never leaves that state,
    /// so a counter maintained at the single transition site replaces the
    /// per-event "are we done?" scans over all cores.
    finished_cores: usize,
    /// Stream events consumed so far (accesses + barriers + finishes) —
    /// the denominator of the [`crate::perf`] events/sec rate.
    events_processed: u64,
    /// Precomputed L2-miss stall (`l2_hit + max(1, memory*10/mlp_tenths)`)
    /// indexed by `mlp_tenths`; values past the table fall back to the
    /// division. Replaces a 64-bit divide on every demand miss.
    miss_latency_lut: [u64; MISS_LUT_SIZE],
    /// Per-bank "busy until" cycle; empty when banking is disabled.
    bank_busy_until: Vec<u64>,
    /// `l2_banks - 1`: bank count is a power of two (validated), so the
    /// set-to-bank stripe is a mask instead of a modulo.
    bank_mask: u64,
    /// Optional victim cache behind the L2.
    victim: Option<VictimCache>,
}

impl Simulator {
    /// Builds a simulator for `cfg` with one boxed access stream per core.
    ///
    /// # Panics
    /// Panics if the stream count doesn't match `cfg.cores` or the config is
    /// invalid.
    pub fn new(cfg: SystemConfig, streams: Vec<Box<dyn AccessStream>>) -> Self {
        Simulator::from_streams(cfg, streams)
    }
}

impl<S: AccessStream> Simulator<S> {
    /// Builds a simulator for `cfg` with one access stream per core, keeping
    /// the concrete stream type (use [`Simulator::new`] for the boxed
    /// default).
    ///
    /// # Panics
    /// Panics if the stream count doesn't match `cfg.cores` or the config is
    /// invalid.
    pub fn from_streams(cfg: SystemConfig, streams: Vec<S>) -> Self {
        cfg.validate();
        assert_eq!(streams.len(), cfg.cores, "one stream per core");
        Simulator {
            cfg,
            geom: cfg.l2.geometry(),
            l1s: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: PartitionedL2::new(cfg.l2, cfg.cores),
            umon: None,
            streams,
            rings: vec![EventRing::new(); cfg.cores],
            cores: vec![CoreState { clock: 0, status: CoreStatus::Running }; cfg.cores],
            stats: GlobalStats::new(cfg.cores),
            interval_base: vec![ThreadCounters::default(); cfg.cores],
            total_instructions: 0,
            next_boundary: cfg.interval_instructions,
            interval_index: 0,
            done: false,
            finished_cores: 0,
            events_processed: 0,
            miss_latency_lut: {
                let mut lut = [0u64; MISS_LUT_SIZE];
                for (m, slot) in lut.iter_mut().enumerate() {
                    let dram = (cfg.latency.memory * 10) / (m.max(1) as u64);
                    *slot = cfg.latency.l2_hit + dram.max(1);
                }
                lut
            },
            bank_busy_until: vec![0; cfg.l2_banks as usize],
            bank_mask: (cfg.l2_banks as u64).saturating_sub(1),
            victim: (cfg.victim_cache_lines > 0)
                .then(|| VictimCache::new(cfg.victim_cache_lines as usize)),
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Attaches a utility monitor sampling one in `sample_every` L2 sets
    /// (used by UCP-style baselines; the paper's own scheme does not need
    /// it).
    pub fn enable_umon(&mut self, sample_every: u64) {
        self.umon = Some(UtilityMonitor::new(&self.cfg.l2, self.cfg.cores, sample_every));
    }

    /// The attached utility monitor, if enabled.
    pub fn umon(&self) -> Option<&UtilityMonitor> {
        self.umon.as_ref()
    }

    /// Mutable access to the utility monitor (e.g. to reset counters at an
    /// interval boundary).
    pub fn umon_mut(&mut self) -> Option<&mut UtilityMonitor> {
        self.umon.as_mut()
    }

    /// Applies a way partition to the shared L2 (takes effect gradually via
    /// replacement, per §V).
    pub fn set_partition(&mut self, targets: &[u32]) {
        self.l2.set_targets(targets);
    }

    /// Reverts the L2 to plain shared (global LRU) operation.
    pub fn set_unpartitioned(&mut self) {
        self.l2.set_unpartitioned();
    }

    /// Selects the L2 replacement policy (exact LRU by default; tree PLRU
    /// for hardware realism — see [`crate::l2::ReplacementKind`]).
    pub fn set_replacement(&mut self, kind: crate::l2::ReplacementKind) {
        self.l2.set_replacement(kind);
    }

    /// Selects how partitions take effect (gradual replacement vs instant
    /// reconfiguration — see [`crate::l2::EnforcementKind`]).
    pub fn set_enforcement(&mut self, kind: crate::l2::EnforcementKind) {
        self.l2.set_enforcement(kind);
    }

    /// Applies a set partition (page-coloring style) instead of a way
    /// partition — see [`crate::l2::PartitionedL2::set_set_partition`].
    pub fn set_set_partition(&mut self, quotas: &[u32]) {
        self.l2.set_set_partition(quotas);
    }

    /// The shared L2 (stats, quotas, invariant checks).
    pub fn l2(&self) -> &PartitionedL2 {
        &self.l2
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &GlobalStats {
        &self.stats
    }

    /// Wall-clock cycles: the maximum core clock.
    pub fn wall_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.clock).max().unwrap_or(0)
    }

    /// Core `t`'s local clock (cycles it has simulated so far). The sliced
    /// LLC's merge sums these across slices to reconstitute a per-core
    /// clock.
    ///
    /// # Panics
    /// Panics if `t` is not a valid core index.
    pub fn core_clock(&self, t: ThreadId) -> u64 {
        self.cores[t].clock
    }

    /// Whether every thread has finished.
    pub fn is_finished(&self) -> bool {
        self.done
    }

    /// Runs until the next interval boundary (or workload completion) and
    /// returns the interval's per-thread statistics. Returns `None` once
    /// the workload has already completed.
    #[deterministic]
    pub fn run_interval(&mut self) -> Option<IntervalReport> {
        if self.done {
            return None;
        }
        let cores_total = self.cores.len();
        loop {
            // Choose the runnable core with the smallest clock. The manual
            // strict-`<` sweep keeps the tie-break deterministic (first
            // minimum = lowest id) without building `(clock, id)` keys per
            // candidate on every event. The runner-up clock is tracked
            // alongside so the inner loop below can skip re-sweeping.
            let mut t = usize::MAX;
            let mut best = u64::MAX;
            let mut second = u64::MAX;
            for (i, c) in self.cores.iter().enumerate() {
                if c.status == CoreStatus::Running {
                    if c.clock < best {
                        second = best;
                        best = c.clock;
                        t = i;
                    } else if c.clock < second {
                        second = c.clock;
                    }
                }
            }

            if t == usize::MAX {
                // Nobody runnable: either everyone finished, or every
                // unfinished thread is parked at the barrier.
                if self.finished_cores == cores_total {
                    self.done = true;
                    return Some(self.make_report(true));
                }
                self.release_barrier();
                continue;
            }

            // Monotonic fast path: stepping a core only raises its own
            // clock, so `t` stays the sweep's unique choice while its clock
            // is strictly below the runner-up's. Re-sweep on a status
            // change or once the clocks touch (`>=`, so ties go back
            // through the sweep's lowest-id break).
            loop {
                self.step_core(t);

                if self.total_instructions >= self.next_boundary {
                    self.next_boundary += self.cfg.interval_instructions;
                    let all_done = self.finished_cores == cores_total;
                    if all_done {
                        self.done = true;
                    }
                    return Some(self.make_report(all_done));
                }
                if self.finished_cores == cores_total {
                    self.done = true;
                    return Some(self.make_report(true));
                }
                let c = &self.cores[t];
                if c.status != CoreStatus::Running || c.clock >= second {
                    break;
                }
            }
        }
    }

    /// Stream events consumed so far (accesses, barriers and finishes),
    /// summed over cores — the denominator of the [`crate::perf`]
    /// events/sec rate.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Processes one event of core `t`.
    #[hot_path]
    fn step_core(&mut self, t: ThreadId) {
        // Shadow-verify the caches at every block boundary: the ring is
        // about to refill, so the check runs once per block per core.
        // O(cache size) — the feature's documented cost.
        #[cfg(feature = "sanitize")]
        if self.rings[t].drained() && !self.rings[t].finished {
            self.sanitize_batch_check();
        }
        // Refill this core's ring when drained; `rings` and `streams` are
        // disjoint fields, so the stream fills the ring's chunk in place.
        let ring = &mut self.rings[t];
        if ring.drained() && !ring.finished {
            // An empty unfinished chunk means the stream has nothing left
            // (only possible for non-conforming streams; the trait
            // contract reserves that shape for `cap == 0`).
            ring.finished = self.streams[t].fill_packed(&mut ring.block, EVENT_BATCH)
                || ring.block.is_empty();
            ring.pos = 0;
            ring.nb = 0;
        }
        let event = if ring.nb < ring.block.barriers()
            && ring.block.barrier_at(ring.nb) == ring.pos
        {
            ring.nb += 1;
            ThreadEvent::Barrier
        } else if ring.pos < ring.block.accesses() {
            let e = ring.block.access_at(ring.pos);
            ring.pos += 1;
            e
        } else {
            // Drained and finished: the ring's stand-in for the in-band
            // `Finished` event.
            ThreadEvent::Finished
        };
        self.events_processed += 1;
        match event {
            ThreadEvent::Access { gap, addr, write, mlp_tenths } => {
                let gap = gap as u64;
                self.total_instructions += gap + 1;
                let mut latency = self.cfg.latency.l1_hit;
                let l1_res = self.l1s[t].access_rw(addr, write);
                // L2 bank contention: the access occupies its bank for the
                // L2 service time; arriving while the bank is busy stalls
                // the core until it frees. (Prefetch fills are assumed to
                // use spare bandwidth and don't reserve banks.)
                if !l1_res.hit && !self.bank_busy_until.is_empty() {
                    // Power-of-two bank count (validated) makes the stripe a
                    // mask; a single bank needs no address math at all.
                    let bank = if self.bank_busy_until.len() == 1 {
                        0
                    } else {
                        (self.geom.set_index(addr) & self.bank_mask) as usize
                    };
                    let arrive = self.cores[t].clock + gap + self.cfg.latency.l1_hit;
                    let start = arrive.max(self.bank_busy_until[bank]);
                    latency += start - arrive;
                    self.bank_busy_until[bank] = start + self.cfg.latency.l2_hit;
                }
                // Write-invalidate coherence: a store kills every other
                // L1's copy of the line (timing-free MSI approximation —
                // invalidation traffic rides the existing interconnect).
                if write && self.cfg.coherence {
                    let mut invalidated = 0u64;
                    for (o, l1) in self.l1s.iter_mut().enumerate() {
                        if o != t && l1.probe(addr) {
                            let _dirty = l1.invalidate(addr);
                            invalidated += 1;
                        }
                    }
                    self.stats.threads[t].coherence_invalidations += invalidated;
                }
                // Statistic deltas accumulate in locals and fold into the
                // thread's counter row once at the end: one indexed access
                // per event instead of one per statistic.
                let mut d_l1_hits = 0u64;
                let mut d_l1_misses = 0u64;
                let mut d_l2_hits = 0u64;
                let mut d_l2_misses = 0u64;
                let mut d_prefetch_hits = 0u64;
                let mut d_victim_hits = 0u64;
                let mut d_prefetch_fills = 0u64;
                let mut d_l1_writebacks = 0u64;
                let mut d_l2_writebacks = 0u64;
                if l1_res.hit {
                    d_l1_hits = 1;
                } else {
                    d_l1_misses = 1;
                    if let Some(umon) = self.umon.as_mut() {
                        umon.observe(t, addr);
                    }
                    let res = self.l2.access_rw(t, addr, false);
                    // Victim-cache probe on a demand miss: a hit recovers
                    // the line at L2-hit latency instead of DRAM.
                    let line_addr = self.geom.line_addr(addr);
                    let victim_hit = !res.hit
                        && self
                            .victim
                            .as_mut()
                            .and_then(|v| v.take(line_addr))
                            .is_some();
                    if res.hit {
                        d_l2_hits = 1;
                        d_prefetch_hits = res.prefetched_hit as u64;
                        latency += self.cfg.latency.l2_hit;
                    } else if victim_hit {
                        // The line was already re-installed in the L2 by the
                        // demand fill above; only the timing differs.
                        d_victim_hits = 1;
                        d_l2_misses = 1;
                        latency += self.cfg.latency.l2_hit;
                    } else {
                        d_l2_misses = 1;
                        // The DRAM portion of a miss is divided by the
                        // access's memory-level parallelism: overlapped
                        // (streaming/prefetched) misses cost less stall
                        // per miss. Precomputed per `mlp_tenths` at
                        // construction; out-of-table values re-derive it.
                        latency += if (mlp_tenths as usize) < MISS_LUT_SIZE {
                            self.miss_latency_lut[mlp_tenths as usize]
                        } else {
                            let dram = (self.cfg.latency.memory * 10) / (mlp_tenths as u64);
                            self.cfg.latency.l2_hit + dram.max(1)
                        };
                        // Sequential prefetcher: pull in the next lines off
                        // the critical path.
                        for i in 1..=self.cfg.prefetch_degree as u64 {
                            let paddr = addr + (i << self.geom.line_shift);
                            let pres = self.l2.prefetch_fill(t, paddr);
                            d_prefetch_fills += !pres.hit as u64;
                            if let Some(victim) = pres.evicted_line {
                                self.on_l2_eviction(victim);
                            }
                            d_l2_writebacks += pres.wrote_back as u64;
                        }
                    }
                    if let Some(victim) = res.evicted_line {
                        self.on_l2_eviction(victim);
                        if let Some(vc) = self.victim.as_mut() {
                            vc.insert(victim, t);
                        }
                    }
                    d_l2_writebacks += res.wrote_back as u64;
                }
                // A dirty L1 victim is written back into the L2 off the
                // critical path (write-buffer assumption: no added stall,
                // but it occupies L2 state and counts as write traffic).
                if let Some(wb_addr) = l1_res.writeback {
                    d_l1_writebacks = 1;
                    let res = self.l2.access_rw(t, wb_addr, true);
                    if let Some(victim) = res.evicted_line {
                        self.on_l2_eviction(victim);
                    }
                    d_l2_writebacks += res.wrote_back as u64;
                }
                let counters = &mut self.stats.threads[t];
                counters.instructions += gap + 1;
                counters.active_cycles += gap + latency;
                counters.l1_hits += d_l1_hits;
                counters.l1_misses += d_l1_misses;
                counters.l2_hits += d_l2_hits;
                counters.l2_misses += d_l2_misses;
                counters.prefetch_hits += d_prefetch_hits;
                counters.victim_hits += d_victim_hits;
                counters.prefetch_fills += d_prefetch_fills;
                counters.l1_writebacks += d_l1_writebacks;
                counters.l2_writebacks += d_l2_writebacks;
                self.cores[t].clock += gap + latency;
            }
            ThreadEvent::Barrier => {
                self.cores[t].status = CoreStatus::AtBarrier;
            }
            ThreadEvent::Finished => {
                self.cores[t].status = CoreStatus::Finished;
                self.finished_cores += 1;
            }
        }
    }

    /// Inclusive-hierarchy bookkeeping for an L2 eviction: back-invalidate
    /// the line in every private L1 (no-op for the default non-inclusive
    /// hierarchy).
    fn on_l2_eviction(&mut self, line_addr: u64) {
        if !self.cfg.inclusive {
            return;
        }
        for l1 in &mut self.l1s {
            // A dirty copy in an L1 is silently dropped with its line;
            // real hardware would forward it to memory — the traffic is
            // already accounted as an L2 writeback when the L2 copy was
            // dirty, which the L1 store made it via the write-through of
            // our write-allocate model on the earlier writeback.
            let _ = l1.invalidate(line_addr);
        }
    }

    /// Releases all barrier-parked threads at the latest arrival time,
    /// charging each the slack it spent waiting.
    fn release_barrier(&mut self) {
        let release = self
            .cores
            .iter()
            .filter(|c| c.status == CoreStatus::AtBarrier)
            .map(|c| c.clock)
            .max()
            .expect("release_barrier called with no parked threads");
        for (t, core) in self.cores.iter_mut().enumerate() {
            if core.status == CoreStatus::AtBarrier {
                self.stats.threads[t].barrier_stall_cycles += release - core.clock;
                core.clock = release;
                core.status = CoreStatus::Running;
            }
        }
    }

    /// Builds the report for the interval that just ended and rolls the
    /// snapshot forward.
    fn make_report(&mut self, finished: bool) -> IntervalReport {
        let equal = crate::l2::equal_split(self.cfg.l2.ways, self.cfg.cores);
        let threads: Vec<ThreadIntervalStats> = (0..self.cfg.cores)
            .map(|t| {
                let delta = self.stats.threads[t].delta_since(&self.interval_base[t]);
                let ways = match self.l2.mode() {
                    crate::l2::PartitionMode::Partitioned
                    | crate::l2::PartitionMode::SetPartitioned => self.l2.targets()[t],
                    crate::l2::PartitionMode::Unpartitioned => equal[t],
                };
                ThreadIntervalStats { counters: delta, cpi: delta.cpi(), ways }
            })
            .collect();
        self.interval_base = self.stats.threads.clone();
        // Interaction stats are cumulative in the L2; mirror them into the
        // global stats so callers have one place to look.
        self.stats.interactions = *self.l2.interactions();
        let report = IntervalReport {
            index: self.interval_index,
            threads,
            finished,
            wall_cycles: self.wall_cycles(),
        };
        self.interval_index += 1;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, LatencyConfig};
    use crate::stream::ReplayStream;

    fn tiny_cfg() -> SystemConfig {
        SystemConfig {
            cores: 2,
            l1: CacheConfig::new(2 * 64 * 2, 2, 64), // 2 sets x 2 ways
            l2: CacheConfig::new(4 * 64 * 4, 4, 64), // 4 sets x 4 ways
            llc: Default::default(),
            latency: LatencyConfig { l1_hit: 1, l2_hit: 10, memory: 100 },
            interval_instructions: 1000,
            inclusive: false,
            coherence: false,
            prefetch_degree: 0,
            l2_banks: 0,
            victim_cache_lines: 0,
        }
    }

    fn access(gap: u32, addr: u64) -> ThreadEvent {
        ThreadEvent::access(gap, addr)
    }

    #[test]
    fn single_access_timing() {
        let cfg = tiny_cfg();
        let s0 = ReplayStream::new(vec![access(4, 0)]);
        let s1 = ReplayStream::new(vec![]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let r = sim.run_interval().expect("one interval");
        assert!(r.finished);
        let t0 = &r.threads[0].counters;
        // 4 gap instructions + 1 memory instruction.
        assert_eq!(t0.instructions, 5);
        // 4 gap cycles + L1 miss -> L2 miss: 1 + 10 + 100.
        assert_eq!(t0.active_cycles, 4 + 111);
        assert_eq!(t0.l1_misses, 1);
        assert_eq!(t0.l2_misses, 1);
    }

    #[test]
    fn l1_hit_is_cheap() {
        let cfg = tiny_cfg();
        let s0 = ReplayStream::new(vec![access(0, 0), access(0, 0)]);
        let s1 = ReplayStream::new(vec![]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let r = sim.run_interval().unwrap();
        let t0 = &r.threads[0].counters;
        assert_eq!(t0.l1_hits, 1);
        // Miss (111) + hit (1).
        assert_eq!(t0.active_cycles, 112);
    }

    #[test]
    fn l2_hit_latency() {
        let cfg = tiny_cfg();
        // Two addresses in the same L1 set (L1 has 2 sets: line stride 64,
        // set = line & 1). Lines 0, 2, 4 all land in L1 set 0; three of them
        // overflow the 2-way L1 but fit in the 4-way L2 set 0 (L2 has 4
        // sets: lines 0, 4, 8 -> set 0).
        let s0 = ReplayStream::new(vec![
            access(0, 0),
            access(0, 4 * 64),
            access(0, 8 * 64),
            access(0, 0), // L1 miss (evicted), L2 hit
        ]);
        let s1 = ReplayStream::new(vec![]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let r = sim.run_interval().unwrap();
        let t0 = &r.threads[0].counters;
        assert_eq!(t0.l2_hits, 1);
        assert_eq!(t0.l2_misses, 3);
        assert_eq!(t0.active_cycles, 3 * 111 + 11);
    }

    #[test]
    fn barrier_synchronises_threads() {
        let cfg = tiny_cfg();
        // Thread 0: quick (1 access); thread 1: slow (3 accesses). Both then
        // hit a barrier and do one more access.
        let s0 = ReplayStream::new(vec![access(0, 0), ThreadEvent::Barrier, access(0, 64)]);
        let s1 = ReplayStream::new(vec![
            access(0, 1000 * 64),
            access(0, 1001 * 64),
            access(0, 1002 * 64),
            ThreadEvent::Barrier,
            access(0, 1003 * 64),
        ]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let r = sim.run_interval().unwrap();
        assert!(r.finished);
        // Thread 0 waited for thread 1: stall = 3*111 - 1*111 = 222.
        assert_eq!(r.threads[0].counters.barrier_stall_cycles, 222);
        assert_eq!(r.threads[1].counters.barrier_stall_cycles, 0);
        // Wall clock: slow thread's 3 accesses + 1 post-barrier access each.
        assert_eq!(sim.wall_cycles(), 3 * 111 + 111);
    }

    #[test]
    fn cpi_excludes_barrier_stall() {
        let cfg = tiny_cfg();
        let s0 = ReplayStream::new(vec![access(0, 0), ThreadEvent::Barrier]);
        let s1 = ReplayStream::new(vec![
            access(0, 64 * 100),
            access(0, 64 * 101),
            access(0, 64 * 102),
            ThreadEvent::Barrier,
        ]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let r = sim.run_interval().unwrap();
        // Thread 0 executed 1 instruction in 111 active cycles: CPI = 111
        // regardless of how long it waited at the barrier.
        assert!((r.threads[0].cpi - 111.0).abs() < 1e-12);
    }

    #[test]
    fn interval_boundaries_split_execution() {
        let mut cfg = tiny_cfg();
        cfg.interval_instructions = 10;
        // Thread 0 retires 5 instructions per event (gap 4 + 1).
        let events: Vec<ThreadEvent> = (0..8).map(|i| access(4, i * 64)).collect();
        let s0 = ReplayStream::new(events);
        let s1 = ReplayStream::new(vec![]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let r0 = sim.run_interval().unwrap();
        assert_eq!(r0.index, 0);
        assert!(!r0.finished);
        assert_eq!(r0.threads[0].counters.instructions, 10);
        let r1 = sim.run_interval().unwrap();
        assert_eq!(r1.index, 1);
        assert_eq!(r1.threads[0].counters.instructions, 10);
        // 8 events x 5 instructions = 40 total: two more full intervals,
        // then a trailing (possibly empty) interval that retires the
        // Finished events.
        let mut total = 20;
        let mut finished = false;
        while let Some(r) = sim.run_interval() {
            total += r.threads[0].counters.instructions;
            finished = r.finished;
        }
        assert_eq!(total, 40);
        assert!(finished);
        assert!(sim.run_interval().is_none());
    }

    #[test]
    fn critical_thread_is_highest_cpi() {
        let cfg = tiny_cfg();
        // Thread 1 misses everywhere (high CPI); thread 0 hits L1.
        let s0 = ReplayStream::new(vec![access(0, 0), access(0, 0), access(0, 0)]);
        let s1 = ReplayStream::new(vec![
            access(0, 64 * 500),
            access(0, 64 * 600),
            access(0, 64 * 700),
        ]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let r = sim.run_interval().unwrap();
        assert_eq!(r.critical_thread(), 1);
        assert!(r.threads[1].cpi > r.threads[0].cpi);
    }

    #[test]
    fn min_clock_interleaving_is_fair() {
        let cfg = tiny_cfg();
        // Both threads touch the same L2 set; with min-clock scheduling the
        // faster (all-hits) thread gets more accesses in per unit time, but
        // both make progress and the run is deterministic.
        let s0 = ReplayStream::new((0..10).map(|_| access(0, 0)).collect());
        let s1 = ReplayStream::new((0..10).map(|i| access(0, (100 + i) * 64)).collect());
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let a = sim.run_interval().unwrap();
        // Re-running the identical setup gives identical results.
        let s0 = ReplayStream::new((0..10).map(|_| access(0, 0)).collect());
        let s1 = ReplayStream::new((0..10).map(|i| access(0, (100 + i) * 64)).collect());
        let mut sim2 = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let b = sim2.run_interval().unwrap();
        assert_eq!(a.threads[0].counters, b.threads[0].counters);
        assert_eq!(a.threads[1].counters, b.threads[1].counters);
        assert_eq!(a.wall_cycles, b.wall_cycles);
    }

    #[test]
    fn partition_api_plumbs_through() {
        let cfg = tiny_cfg();
        let s0 = ReplayStream::new(vec![access(0, 0)]);
        let s1 = ReplayStream::new(vec![access(0, 64)]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        sim.set_partition(&[3, 1]);
        assert_eq!(sim.l2().targets(), &[3, 1]);
        let r = sim.run_interval().unwrap();
        assert_eq!(r.threads[0].ways, 3);
        assert_eq!(r.threads[1].ways, 1);
        sim.set_unpartitioned();
        assert_eq!(sim.l2().mode(), crate::l2::PartitionMode::Unpartitioned);
    }

    #[test]
    fn umon_observes_l2_accesses_only() {
        let cfg = tiny_cfg();
        let s0 = ReplayStream::new(vec![access(0, 0), access(0, 0), access(0, 0)]);
        let s1 = ReplayStream::new(vec![]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        sim.enable_umon(1);
        sim.run_interval();
        let umon = sim.umon().unwrap();
        // Only the first access reached L2 (the rest hit L1): 1 ATD miss.
        assert_eq!(umon.compulsory_capacity_misses(0), 1);
        assert_eq!(umon.hits_with_ways(0, 4), 0);
    }

    #[test]
    fn coherence_invalidates_peer_copies() {
        let mut cfg = tiny_cfg();
        cfg.coherence = true;
        // Both threads read line 0 (both L1s hold it), then thread 0
        // stores to it; a barrier orders the store before thread 1's
        // re-read, whose L1 copy must be gone (it still hits L2).
        let s0 = ReplayStream::new(vec![
            access(0, 0),
            ThreadEvent::Access { gap: 0, addr: 0, write: true, mlp_tenths: 10 },
            ThreadEvent::Barrier,
        ]);
        let s1 = ReplayStream::new(vec![access(0, 0), ThreadEvent::Barrier, access(5, 0)]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let r = sim.run_interval().unwrap();
        assert_eq!(r.threads[0].counters.coherence_invalidations, 1);
        // Thread 1: first access misses L1 (hits L2 since t0 loaded it),
        // second access misses L1 again (invalidated), hits L2.
        assert_eq!(r.threads[1].counters.l1_misses, 2);
        assert_eq!(r.threads[1].counters.l2_hits, 2);
    }

    #[test]
    fn coherence_off_by_default_keeps_copies() {
        let cfg = tiny_cfg();
        let s0 = ReplayStream::new(vec![
            access(0, 0),
            ThreadEvent::Access { gap: 0, addr: 0, write: true, mlp_tenths: 10 },
        ]);
        let s1 = ReplayStream::new(vec![access(0, 0), access(5, 0)]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let r = sim.run_interval().unwrap();
        assert_eq!(r.threads[0].counters.coherence_invalidations, 0);
        // Without coherence thread 1 keeps its copy: second access hits L1.
        assert_eq!(r.threads[1].counters.l1_hits, 1);
    }

    #[test]
    fn inclusive_back_invalidation_reaches_l1() {
        let mut cfg = tiny_cfg();
        cfg.inclusive = true;
        // L2 in tiny_cfg: 4 sets x 4 ways. Thread 0 loads line 0 into L1+L2,
        // then streams 4 more lines of L2 set 0 to evict line 0 from L2;
        // the back-invalidation must kill the (otherwise still-resident)
        // L1 copy, so re-reading line 0 misses L1.
        let evict: Vec<ThreadEvent> =
            (1..=4).map(|i| access(0, i * 4 * 64)).collect(); // L2 set 0
        let mut events = vec![access(0, 0)];
        events.extend(evict);
        events.push(access(0, 0));
        let s0 = ReplayStream::new(events);
        let s1 = ReplayStream::new(vec![]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        let r = sim.run_interval().unwrap();
        // All six accesses miss L1: line 0's L1 residency was revoked when
        // its L2 copy was evicted. (Lines 0,4,8,12,16 land in different L1
        // sets or evict each other anyway; the key assertion is the final
        // access is NOT an L1 hit.)
        assert_eq!(r.threads[0].counters.l1_hits, 0, "{:?}", r.threads[0].counters);
    }

    #[test]
    fn prefetcher_turns_sequential_misses_into_hits() {
        let mut cfg = tiny_cfg();
        cfg.prefetch_degree = 2;
        // A sequential walk: after the first miss, lines arrive ahead of
        // the demand stream.
        let events: Vec<ThreadEvent> = (0..8).map(|i| access(0, i * 64)).collect();
        let s1 = ReplayStream::new(vec![]);
        let mut sim = Simulator::new(cfg, vec![Box::new(ReplayStream::new(events.clone())), Box::new(s1)]);
        let r = sim.run_interval().unwrap();
        let c = &r.threads[0].counters;
        assert!(c.prefetch_fills > 0, "{c:?}");
        assert!(c.prefetch_hits > 0, "{c:?}");
        // Compare with the unprefetched run: strictly fewer L2 misses.
        let cfg0 = tiny_cfg();
        let mut sim0 = Simulator::new(
            cfg0,
            vec![Box::new(ReplayStream::new(events)), Box::new(ReplayStream::new(vec![]))],
        );
        let r0 = sim0.run_interval().unwrap();
        assert!(c.l2_misses < r0.threads[0].counters.l2_misses);
        assert!(r.wall_cycles < r0.wall_cycles, "prefetching must speed the walk up");
        sim.l2().check_invariants();
    }

    #[test]
    fn prefetch_fills_respect_partition_quotas() {
        let mut cfg = tiny_cfg();
        cfg.prefetch_degree = 4;
        let events: Vec<ThreadEvent> = (0..40).map(|i| access(0, i * 64)).collect();
        let mut sim = Simulator::new(
            cfg,
            vec![Box::new(ReplayStream::new(events)), Box::new(ReplayStream::new(vec![]))],
        );
        sim.set_partition(&[2, 2]);
        let _ = sim.run_interval();
        sim.l2().check_invariants();
        // Thread 0 (quota 2 of 4 ways) never exceeds its quota per set even
        // with aggressive prefetching once converged; spot-check set 0.
        assert!(sim.l2().ways_owned_in_set(0, 0) <= 4);
    }

    #[test]
    fn bank_contention_serialises_same_bank_accesses() {
        // Two threads hammer the same L2 set (same bank) with L2 hits.
        // With banking on, they serialise; without, they overlap freely.
        let run = |banks: u32| {
            let mut cfg = tiny_cfg();
            cfg.l2_banks = banks;
            // Warm line 0 into L2 but keep missing L1: lines 0/4/8 share L1
            // set 0 and L2 set 0; cycling them gives L1 misses + L2 hits.
            let events = |seed: u64| -> Vec<ThreadEvent> {
                let mut v = vec![access(0, 0), access(0, 4 * 64), access(0, 8 * 64)];
                for i in 0..30 {
                    v.push(access(0, ((i + seed) % 3) * 4 * 64));
                }
                v
            };
            let mut sim = Simulator::new(
                cfg,
                vec![
                    Box::new(ReplayStream::new(events(0))),
                    Box::new(ReplayStream::new(events(1))),
                ],
            );
            while let Some(r) = sim.run_interval() {
                if r.finished {
                    break;
                }
            }
            sim.wall_cycles()
        };
        let unbanked = run(0);
        let banked = run(1); // a single bank: full serialisation
        assert!(
            banked > unbanked,
            "bank contention must add stall: {banked} <= {unbanked}"
        );
    }

    #[test]
    fn many_banks_approach_unbanked_performance() {
        let run = |banks: u32| {
            let mut cfg = tiny_cfg();
            cfg.l2_banks = banks;
            // Threads touch different L2 sets: no conflicts with >= 2 banks.
            let s0: Vec<ThreadEvent> = (0..20).map(|i| access(0, (i * 4) * 64)).collect();
            let s1: Vec<ThreadEvent> = (0..20).map(|i| access(0, (i * 4 + 1) * 64)).collect();
            let mut sim = Simulator::new(
                cfg,
                vec![Box::new(ReplayStream::new(s0)), Box::new(ReplayStream::new(s1))],
            );
            while let Some(r) = sim.run_interval() {
                if r.finished {
                    break;
                }
            }
            sim.wall_cycles()
        };
        // tiny_cfg has 4 L2 sets; threads use disjoint sets, so with 4
        // banks they never conflict.
        assert_eq!(run(4), run(0));
    }

    #[test]
    fn victim_cache_recovers_conflict_evictions() {
        // A round-robin over 5 lines of one 4-way L2 set thrashes under
        // LRU (every access misses). With a victim cache, the just-evicted
        // line is recovered at L2-hit latency.
        let events: Vec<ThreadEvent> =
            (0..40).map(|i| access(0, (i % 5) * 4 * 64)).collect();
        let run = |victim_lines: u32| {
            let mut cfg = tiny_cfg();
            cfg.victim_cache_lines = victim_lines;
            let mut sim = Simulator::new(
                cfg,
                vec![Box::new(ReplayStream::new(events.clone())), Box::new(ReplayStream::new(vec![]))],
            );
            while let Some(r) = sim.run_interval() {
                if r.finished {
                    break;
                }
            }
            (sim.wall_cycles(), sim.stats().threads[0].victim_hits)
        };
        let (wall_off, hits_off) = run(0);
        let (wall_on, hits_on) = run(8);
        assert_eq!(hits_off, 0);
        assert!(hits_on > 10, "victim hits {hits_on}");
        assert!(wall_on < wall_off, "victim cache must speed thrash up: {wall_on} vs {wall_off}");
    }

    #[test]
    fn events_processed_counts_all_event_kinds() {
        let cfg = tiny_cfg();
        let s0 = ReplayStream::new(vec![access(0, 0), ThreadEvent::Barrier, access(0, 64)]);
        let s1 = ReplayStream::new(vec![access(0, 128), ThreadEvent::Barrier]);
        let mut sim = Simulator::new(cfg, vec![Box::new(s0), Box::new(s1)]);
        while let Some(r) = sim.run_interval() {
            if r.finished {
                break;
            }
        }
        // Thread 0: access, barrier, access, finished; thread 1: access,
        // barrier, finished.
        assert_eq!(sim.events_processed(), 7);
    }
}
