//! Content-addressed cache of packed workload traces.
//!
//! Figure and sweep runs simulate the same workload under many schemes: a
//! figures pass runs each suite benchmark under 4 schemes, a sweep under 3
//! schemes per configuration point. Without caching, every run re-generates
//! its streams from scratch — the Zipf sampling behind generation is a
//! material fraction of short runs. A [`TraceCache`] materialises each
//! distinct workload exactly once into compact [`PackedTrace`] columns
//! (record-once) and hands out zero-copy replay cursors for every
//! subsequent run (simulate-many).
//!
//! Entries are content-addressed: the key covers every input that shapes a
//! generated stream — the full benchmark spec (thread phase parameters,
//! shared region, barrier structure), the L2 geometry the working sets are
//! sized against, the workload scale, and the master seed. Anything *not*
//! in the key (interval length, latencies, replacement policy, the scheme)
//! genuinely doesn't affect generation, which is what makes interval and
//! latency sweep points cache hits. Simulations from cached replays are
//! bit-identical to inline generation (`trace_cache_equivalence` tests).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use icp_cmp_sim::stream::AccessStream;
use icp_cmp_sim::{PackedTrace, SystemConfig};
use icp_hot_path::deterministic;
use icp_workloads::{BenchmarkSpec, WorkloadScale};

use crate::single_flight::SingleFlight;

/// A thread-safe generate-once store of packed workload traces.
///
/// Shared across parallel scheme runs behind an [`Arc`]; the generation
/// and hit counters make "each workload generated exactly once" a testable
/// property rather than a hope.
#[derive(Debug, Default)]
pub struct TraceCache {
    traces: SingleFlight<Vec<Arc<PackedTrace>>>,
    generations: AtomicU64,
    hits: AtomicU64,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// Creates an empty cache ready for sharing across runs.
    pub fn shared() -> Arc<Self> {
        Arc::new(TraceCache::new())
    }

    /// The content address of one workload materialisation.
    ///
    /// `Debug` for `f64` prints the shortest round-trip representation, so
    /// distinct parameter values always yield distinct keys. The LLC slice
    /// count participates even though generation itself is slice-blind:
    /// keying the topology keeps cached traces unambiguous about the
    /// machine they were recorded for, at the cost of one extra generation
    /// per topology (sliced scenarios are rare next to figure sweeps).
    pub(crate) fn key(
        spec: &BenchmarkSpec,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> String {
        format!(
            "{spec:?}|l2={}x{}|slices={}|scale={scale:?}|seed={seed:#x}",
            cfg.l2.size_bytes, cfg.l2.line_bytes, cfg.llc.slices
        )
    }

    /// Returns the packed traces for a workload, generating them on first
    /// use.
    ///
    /// The entry map is single-flight (`SingleFlight`): the first
    /// requester claims the key and generates *outside* the cache lock, so
    /// first-time generations of distinct workloads overlap across threads
    /// instead of serialising on the cache, and concurrent requests for the
    /// *same* workload wait for the claimant (the exactly-once guarantee
    /// the counters assert). Within a key the per-thread streams are
    /// materialised by budget-leased producers
    /// ([`BenchmarkSpec::pack_streams_parallel`]), each writing straight
    /// into packed columns; the result is bit-identical to sequential
    /// recording.
    #[deterministic]
    pub fn get_or_pack(
        &self,
        spec: &BenchmarkSpec,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Vec<Arc<PackedTrace>> {
        let key = TraceCache::key(spec, cfg, scale, seed);
        let (traces, hit) = self
            .traces
            .get_or_compute(key, |_| spec.pack_streams_parallel(cfg, scale, seed, usize::MAX));
        let counter = if hit { &self.hits } else { &self.generations };
        counter.fetch_add(1, Ordering::Relaxed);
        traces
    }

    /// Returns one zero-copy replay stream per thread for a workload,
    /// generating and packing it on first use.
    pub fn replay_streams(
        &self,
        spec: &BenchmarkSpec,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Vec<Box<dyn AccessStream>> {
        self.get_or_pack(spec, cfg, scale, seed)
            .iter()
            .map(|t| Box::new(PackedTrace::stream(t)) as Box<dyn AccessStream>)
            .collect()
    }

    /// Number of workloads generated (cache misses).
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// Number of workloads served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cached workloads (materialised entries; in-flight
    /// claims don't count until published).
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap bytes held by the cached packed columns.
    pub fn packed_bytes(&self) -> usize {
        self.traces
            .fold(0, |sum, ts| sum + ts.iter().map(|t| t.packed_bytes()).sum::<usize>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::context::SuiteData;
    use crate::runner::{ExperimentConfig, Scheme};
    use icp_workloads::suite;

    #[test]
    fn cached_runs_are_bit_identical_to_uncached() {
        let bench = suite::cg();
        let plain = ExperimentConfig::test();
        let cached = plain.clone().with_trace_cache(TraceCache::shared());
        for scheme in [Scheme::Shared, Scheme::ModelBased] {
            let a = plain.run(&bench, &scheme);
            let b = cached.run(&bench, &scheme);
            assert_eq!(a.wall_cycles, b.wall_cycles, "{scheme:?}");
            assert_eq!(a.thread_totals, b.thread_totals, "{scheme:?}");
            assert_eq!(a.records.len(), b.records.len(), "{scheme:?}");
        }
    }

    #[test]
    fn schemes_share_one_generation() {
        let cache = TraceCache::shared();
        let cfg = ExperimentConfig::test().with_trace_cache(Arc::clone(&cache));
        let bench = suite::ft();
        cfg.run_schemes(&bench, &[Scheme::Shared, Scheme::StaticEqual, Scheme::ModelBased]);
        assert_eq!(cache.generations(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.packed_bytes() > 0);
    }

    #[test]
    fn figures_run_generates_each_suite_workload_exactly_once() {
        // The sweep-level probe: a full figures-style collection (9
        // benchmarks x 4 schemes) must generate each workload once and
        // serve the other 27 runs from cache.
        let cache = TraceCache::shared();
        let cfg = ExperimentConfig::test().with_trace_cache(Arc::clone(&cache));
        let data = SuiteData::collect(&cfg);
        assert_eq!(data.shared.len(), 9);
        assert_eq!(cache.generations(), 9, "each suite workload generated exactly once");
        assert_eq!(cache.hits(), 27, "all other runs served from cache");
    }

    #[test]
    fn distinct_workload_inputs_miss() {
        let cache = TraceCache::new();
        let cfg = ExperimentConfig::test();
        let b = suite::mg().with_threads(cfg.system.cores);
        cache.get_or_pack(&b, &cfg.system, cfg.scale, 1);
        cache.get_or_pack(&b, &cfg.system, cfg.scale, 2); // seed differs
        let mut big = cfg.system;
        big.l2.size_bytes *= 2; // geometry differs
        cache.get_or_pack(&b, &big, cfg.scale, 1);
        let mut sliced = cfg.system;
        sliced.llc = icp_cmp_sim::LlcConfig::sliced(4); // topology differs
        cache.get_or_pack(&b, &sliced, cfg.scale, 1);
        cache.get_or_pack(&b, &cfg.system, cfg.scale, 1); // repeat: hit
        assert_eq!(cache.generations(), 4);
        assert_eq!(cache.hits(), 1);
    }
}
