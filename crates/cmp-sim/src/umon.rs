//! Utility monitors (UMON): per-thread way-utility profiling via sampled
//! auxiliary tag directories.
//!
//! The throughput-oriented baseline the paper compares against (§IV-B,
//! Figure 21) descends from Suh et al. / UCP-style schemes, which need to
//! know how many hits each thread would get *as a function of allocated
//! ways*. The standard hardware for that is an auxiliary tag directory
//! (ATD): for a sample of cache sets, each thread gets a private, full-width
//! LRU tag stack that behaves as if the thread owned the whole cache. A hit
//! at LRU stack position `d` means "this access hits iff the thread has at
//! least `d+1` ways", so a histogram of hit positions yields the whole
//! hits-vs-ways curve at once (the LRU *inclusion* property).
//!
//! This module is also exposed as a public profiling API: the `icp-core`
//! runtime does not need it (the paper's scheme learns CPI curves from
//! observed behaviour instead), but the UCP baseline and the ablation
//! benches do.

use icp_hot_path::deterministic;

use crate::config::CacheConfig;
use crate::ThreadId;

/// A sampled-set, per-thread auxiliary tag directory with LRU stack-position
/// hit counters.
///
/// # Examples
///
/// ```
/// use icp_cmp_sim::{CacheConfig, UtilityMonitor};
///
/// let l2 = CacheConfig::new(64 * 1024, 16, 64);
/// let mut umon = UtilityMonitor::new(&l2, 2, 1);
/// // Thread 0 loops over two lines: one extra way doubles its hits.
/// for _ in 0..10 {
///     umon.observe(0, 0x000);
///     umon.observe(0, 0x40_000); // same set, different tag
/// }
/// assert!(umon.hits_with_ways(0, 2) > umon.hits_with_ways(0, 1));
/// ```
#[derive(Clone, Debug)]
pub struct UtilityMonitor {
    ways: usize,
    threads: usize,
    set_mask: u64,
    /// `sample_every - 1`: the stride is a power of two, so "is this set
    /// sampled" is one AND.
    sample_mask: u64,
    /// `log2(sample_every)`, for compressing a sampled set index.
    sample_shift: u32,
    /// `log2(line_bytes)`, for shift-based line/tag extraction.
    line_shift: u32,
    /// Number of sampled sets (`num_sets >> sample_shift`), cached.
    sampled: usize,
    /// `threads * sampled_sets` MRU-first tag stacks (each at most `ways`
    /// long).
    stacks: Vec<Vec<u64>>,
    /// `threads * ways` hit counters by stack position.
    way_hits: Vec<u64>,
    /// Per-thread ATD misses (would miss even with all ways).
    atd_misses: Vec<u64>,
}

impl UtilityMonitor {
    /// Creates a monitor for the given L2 geometry, sampling one in
    /// `sample_every` sets (must divide the set count and be a power of
    /// two; pass 1 to sample every set).
    pub fn new(l2: &CacheConfig, threads: usize, sample_every: u64) -> Self {
        assert!(threads > 0);
        assert!(sample_every.is_power_of_two(), "sampling stride must be a power of two");
        let num_sets = l2.num_sets();
        assert!(sample_every <= num_sets, "stride exceeds set count");
        let sampled = (num_sets / sample_every) as usize;
        UtilityMonitor {
            ways: l2.ways as usize,
            threads,
            set_mask: num_sets - 1,
            sample_mask: sample_every - 1,
            sample_shift: sample_every.trailing_zeros(),
            line_shift: l2.line_bytes.trailing_zeros(),
            sampled,
            stacks: vec![Vec::new(); threads * sampled],
            way_hits: vec![0; threads * l2.ways as usize],
            atd_misses: vec![0; threads],
        }
    }

    /// Number of sampled sets.
    pub fn sampled_sets(&self) -> usize {
        self.sampled
    }

    /// Number of profiled threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Way count of the monitored cache.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Feeds one access into the monitor. Non-sampled sets are ignored, so
    /// this is cheap to call for every access.
    #[deterministic]
    pub fn observe(&mut self, thread: ThreadId, addr: u64) {
        debug_assert!(thread < self.threads);
        let line = addr >> self.line_shift;
        let set = line & self.set_mask;
        if set & self.sample_mask != 0 {
            return;
        }
        let tag = line;
        let sampled_idx = (set >> self.sample_shift) as usize;
        let stack = &mut self.stacks[thread * self.sampled + sampled_idx];
        if let Some(pos) = stack.iter().position(|&t| t == tag) {
            // Hit at stack distance `pos`: counts toward every allocation of
            // more than `pos` ways. Move to MRU.
            self.way_hits[thread * self.ways + pos] += 1;
            stack.remove(pos);
            stack.insert(0, tag);
        } else {
            self.atd_misses[thread] += 1;
            if stack.len() == self.ways {
                stack.pop();
            }
            stack.insert(0, tag);
        }
    }

    /// Hits `thread` would have received with an allocation of `ways` ways
    /// (over the sampled sets), by the LRU inclusion property.
    pub fn hits_with_ways(&self, thread: ThreadId, ways: u32) -> u64 {
        let w = (ways as usize).min(self.ways);
        self.way_hits[thread * self.ways..thread * self.ways + w]
            .iter()
            .sum()
    }

    /// The full per-way marginal hit histogram for `thread` (index `d` =
    /// hits at stack distance `d`).
    pub fn way_histogram(&self, thread: ThreadId) -> &[u64] {
        &self.way_hits[thread * self.ways..(thread + 1) * self.ways]
    }

    /// Misses `thread` would incur even with the full cache (sampled sets).
    pub fn compulsory_capacity_misses(&self, thread: ThreadId) -> u64 {
        self.atd_misses[thread]
    }

    /// Misses `thread` would incur with `ways` ways: ATD misses plus all
    /// hits beyond the allocation.
    pub fn misses_with_ways(&self, thread: ThreadId, ways: u32) -> u64 {
        let total_hits: u64 = self.way_histogram(thread).iter().sum();
        self.atd_misses[thread] + (total_hits - self.hits_with_ways(thread, ways))
    }

    /// Zeroes the counters (tag stacks persist, mirroring hardware UMONs
    /// which age rather than flush; good enough at interval granularity).
    pub fn reset_counters(&mut self) {
        self.way_hits.fill(0);
        self.atd_misses.fill(0);
    }

    /// Accumulates another monitor's counters into this one. Used by the
    /// sliced LLC to reduce per-slice UMONs into one system-wide profile:
    /// each slice observes a disjoint subset of the address space, so
    /// summing `way_hits` and `atd_misses` in slice order reconstitutes the
    /// whole hits-vs-ways curve. Tag stacks are left alone (they are
    /// per-set state of each slice's own cache).
    ///
    /// # Panics
    /// Panics if the two monitors have different thread or way counts.
    #[deterministic]
    pub fn merge_counters(&mut self, other: &UtilityMonitor) {
        assert_eq!(self.threads, other.threads, "thread counts must match");
        assert_eq!(self.ways, other.ways, "way counts must match");
        for (acc, &x) in self.way_hits.iter_mut().zip(&other.way_hits) {
            *acc += x;
        }
        for (acc, &x) in self.atd_misses.iter_mut().zip(&other.atd_misses) {
            *acc += x;
        }
    }

    /// Snapshots the counters into an owned, serialisable profile.
    ///
    /// Taken once at the end of a run (off the per-access hot path), this
    /// is what lets the analytical fast path consume a *recorded* profile
    /// instead of re-instrumenting: the snapshot carries everything needed
    /// to reconstruct the hits-vs-ways and misses-vs-ways curves.
    pub fn snapshot(&self) -> UmonProfile {
        UmonProfile {
            ways: self.ways as u32,
            sampled_sets: self.sampled as u64,
            total_sets: self.set_mask + 1,
            way_hits: (0..self.threads).map(|t| self.way_histogram(t).to_vec()).collect(),
            atd_misses: self.atd_misses.clone(),
        }
    }

    /// Halves the counters — the exponential-decay aging UCP hardware uses
    /// between repartition points. Compared to a hard reset this keeps a
    /// window of history, damping oscillation when a thread is
    /// barrier-stalled (and hence silent) for a whole interval.
    pub fn decay_counters(&mut self) {
        for c in &mut self.way_hits {
            *c /= 2;
        }
        for c in &mut self.atd_misses {
            *c /= 2;
        }
    }
}

/// An owned snapshot of a [`UtilityMonitor`]'s counters at one point in
/// time: the per-thread way-hit histograms and ATD miss counts over the
/// sampled sets, plus the geometry needed to interpret them.
///
/// This is the recorded-profile currency of the analytical fast path: one
/// profiling simulation exports its snapshot, and the miss-curve predictor
/// reconstructs misses-at-any-allocation from it without touching the
/// simulator again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UmonProfile {
    /// Way count of the monitored cache (histogram width).
    pub ways: u32,
    /// Number of sets the monitor sampled.
    pub sampled_sets: u64,
    /// Total sets in the monitored cache (`sampled_sets * stride`).
    pub total_sets: u64,
    /// Per-thread way-hit histograms: `way_hits[t][d]` counts hits at LRU
    /// stack distance `d` (a hit iff the thread holds > `d` ways).
    pub way_hits: Vec<Vec<u64>>,
    /// Per-thread ATD misses (would miss even with every way).
    pub atd_misses: Vec<u64>,
}

impl UmonProfile {
    /// Number of profiled threads.
    pub fn threads(&self) -> usize {
        self.way_hits.len()
    }

    /// Sampling scale factor: multiply sampled-set counts by this to
    /// estimate whole-cache counts (1.0 when every set was sampled).
    pub fn sample_scale(&self) -> f64 {
        if self.sampled_sets == 0 {
            return 1.0;
        }
        self.total_sets as f64 / self.sampled_sets as f64
    }

    /// Hits `thread` would have received with `ways` ways (sampled sets),
    /// by the LRU inclusion property.
    pub fn hits_with_ways(&self, thread: usize, ways: u32) -> u64 {
        let hist = self.way_hits.get(thread).map(Vec::as_slice).unwrap_or(&[]);
        hist.iter().take(ways as usize).sum()
    }

    /// Misses `thread` would incur with `ways` ways (sampled sets): ATD
    /// misses plus every hit beyond the allocation.
    pub fn misses_with_ways(&self, thread: usize, ways: u32) -> u64 {
        let hist = self.way_hits.get(thread).map(Vec::as_slice).unwrap_or(&[]);
        let beyond: u64 = hist.iter().skip(ways as usize).sum();
        self.atd_misses.get(thread).copied().unwrap_or(0) + beyond
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon() -> UtilityMonitor {
        // 4 sets x 8 ways, sample every set.
        UtilityMonitor::new(&CacheConfig::new(4 * 8 * 64, 8, 64), 2, 1)
    }

    /// Address for line `i` of set `s` (4 sets).
    fn addr(s: u64, i: u64) -> u64 {
        (i * 4 + s) * 64
    }

    #[test]
    fn repeated_access_hits_at_mru() {
        let mut m = mon();
        m.observe(0, addr(0, 0));
        m.observe(0, addr(0, 0));
        m.observe(0, addr(0, 0));
        assert_eq!(m.way_histogram(0)[0], 2);
        assert_eq!(m.compulsory_capacity_misses(0), 1);
        // One way suffices for this pattern.
        assert_eq!(m.hits_with_ways(0, 1), 2);
        assert_eq!(m.misses_with_ways(0, 1), 1);
    }

    #[test]
    fn stack_distance_reflects_reuse_distance() {
        let mut m = mon();
        // Access lines a, b, a: the second 'a' has stack distance 1.
        m.observe(0, addr(0, 0));
        m.observe(0, addr(0, 1));
        m.observe(0, addr(0, 0));
        assert_eq!(m.way_histogram(0)[1], 1);
        // With only 1 way the re-access of 'a' would have missed.
        assert_eq!(m.hits_with_ways(0, 1), 0);
        assert_eq!(m.hits_with_ways(0, 2), 1);
    }

    #[test]
    fn inclusion_property_monotone_hits() {
        let mut m = mon();
        // A loop over 6 lines of one set, repeated: distances spread out.
        for _ in 0..5 {
            for i in 0..6 {
                m.observe(0, addr(1, i));
            }
        }
        let mut prev = 0;
        for w in 1..=8 {
            let h = m.hits_with_ways(0, w);
            assert!(h >= prev, "hits must be non-decreasing in ways");
            prev = h;
        }
        // 6-line loop under true LRU: needs all 6 ways to hit at all.
        assert_eq!(m.hits_with_ways(0, 5), 0);
        assert!(m.hits_with_ways(0, 6) > 0);
    }

    #[test]
    fn threads_profiled_independently() {
        let mut m = mon();
        // Both threads hammer the same set; each ATD is private, so neither
        // pollutes the other.
        for _ in 0..10 {
            m.observe(0, addr(0, 0));
            m.observe(1, addr(0, 1));
        }
        assert_eq!(m.hits_with_ways(0, 1), 9);
        assert_eq!(m.hits_with_ways(1, 1), 9);
        assert_eq!(m.compulsory_capacity_misses(0), 1);
        assert_eq!(m.compulsory_capacity_misses(1), 1);
    }

    #[test]
    fn sampling_skips_unsampled_sets() {
        // Sample every 2nd set of 4.
        let mut m = UtilityMonitor::new(&CacheConfig::new(4 * 8 * 64, 8, 64), 1, 2);
        assert_eq!(m.sampled_sets(), 2);
        m.observe(0, addr(1, 0)); // set 1: not sampled
        m.observe(0, addr(1, 0));
        assert_eq!(m.compulsory_capacity_misses(0), 0);
        assert_eq!(m.hits_with_ways(0, 8), 0);
        m.observe(0, addr(0, 0)); // set 0: sampled
        m.observe(0, addr(0, 0));
        assert_eq!(m.hits_with_ways(0, 8), 1);
    }

    #[test]
    fn atd_capacity_bounded_by_ways() {
        let mut m = mon();
        // Stream 20 distinct lines through one set twice: all ATD misses
        // (20 > 8 ways), stack stays at 8 entries.
        for _ in 0..2 {
            for i in 0..20 {
                m.observe(0, addr(0, i));
            }
        }
        assert_eq!(m.compulsory_capacity_misses(0), 40);
        assert_eq!(m.hits_with_ways(0, 8), 0);
    }

    #[test]
    fn snapshot_matches_live_counters() {
        let mut m = mon();
        for _ in 0..5 {
            for i in 0..6 {
                m.observe(0, addr(1, i));
            }
        }
        m.observe(1, addr(0, 0));
        m.observe(1, addr(0, 0));
        let p = m.snapshot();
        assert_eq!(p.ways, 8);
        assert_eq!(p.threads(), 2);
        assert_eq!(p.sampled_sets, 4);
        assert_eq!(p.total_sets, 4);
        assert!((p.sample_scale() - 1.0).abs() < 1e-12);
        for t in 0..2 {
            for w in 0..=8u32 {
                assert_eq!(p.hits_with_ways(t, w), m.hits_with_ways(t, w), "t{t} w{w}");
                assert_eq!(p.misses_with_ways(t, w), m.misses_with_ways(t, w), "t{t} w{w}");
            }
        }
        // Out-of-range thread indices degrade to zero rather than panicking.
        assert_eq!(p.hits_with_ways(9, 4), 0);
        assert_eq!(p.misses_with_ways(9, 4), 0);
    }

    #[test]
    fn reset_counters() {
        let mut m = mon();
        m.observe(0, addr(0, 0));
        m.observe(0, addr(0, 0));
        m.reset_counters();
        assert_eq!(m.hits_with_ways(0, 8), 0);
        assert_eq!(m.compulsory_capacity_misses(0), 0);
        // Tags persist: next access is a hit counted fresh.
        m.observe(0, addr(0, 0));
        assert_eq!(m.hits_with_ways(0, 8), 1);
    }
}
