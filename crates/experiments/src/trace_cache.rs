//! Content-addressed cache of packed workload traces.
//!
//! Figure and sweep runs simulate the same workload under many schemes: a
//! figures pass runs each suite benchmark under 4 schemes, a sweep under 3
//! schemes per configuration point. Without caching, every run re-generates
//! its streams from scratch — the Zipf sampling behind generation is a
//! material fraction of short runs. A [`TraceCache`] materialises each
//! distinct workload exactly once into compact [`PackedTrace`] columns
//! (record-once) and hands out zero-copy replays for every subsequent run
//! (simulate-many).
//!
//! The unit of the cache is one workload thread's *split*: its per-slice
//! sub-traces for the machine's LLC topology ([`SliceTopology::split`]),
//! recorded straight from the generator. On a monolithic LLC the split is
//! the whole trace. On a sliced one it is exactly what every scheme's
//! machine replays ([`icp_cmp_sim::Llc::from_traces`]), so a workload is
//! demuxed once, at generation, not once per machine.
//!
//! Entries are content-addressed: the key covers every input that shapes a
//! generated stream — the full benchmark spec (thread phase parameters,
//! shared region, barrier structure), the L2 geometry the working sets are
//! sized against, the workload scale, and the master seed — plus the LLC
//! slice count the streams are split for. Anything *not* in the key
//! (interval length, latencies, replacement policy, the scheme) genuinely
//! doesn't affect the entry, which is what makes interval and latency
//! sweep points cache hits. Simulations from cached replays are
//! bit-identical to inline generation (`trace_cache_equivalence` tests).
//!
//! Generation is shared, not only deduplicated: a request that finds its
//! workload in flight records the threads nobody has claimed yet
//! ([`SingleFlight::try_claim`]) and waits only for threads another
//! request is recording. Each thread's split is a pure function of (spec,
//! thread, config, scale, seed), so who records it cannot change a byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use icp_cmp_sim::budget;
use icp_cmp_sim::slice::SliceTopology;
use icp_cmp_sim::stream::AccessStream;
use icp_cmp_sim::{PackedTrace, SystemConfig};
use icp_hot_path::deterministic;
use icp_workloads::{BenchmarkSpec, WorkloadScale};

use crate::single_flight::SingleFlight;

/// One workload's entry: a single-flight slot per thread, each holding the
/// thread's split (its per-slice sub-traces).
#[derive(Debug, Default)]
struct Workload {
    threads: SingleFlight<Vec<Arc<PackedTrace>>, usize>,
    /// Number of threads; the workload is materialised once every slot is
    /// ready.
    count: usize,
}

/// A thread-safe generate-once store of packed workload traces.
///
/// Shared across parallel scheme runs behind an [`Arc`]; the generation
/// and hit counters make "each workload generated exactly once" a testable
/// property rather than a hope.
#[derive(Debug, Default)]
pub struct TraceCache {
    workloads: SingleFlight<Arc<Workload>>,
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
    /// count participates because an entry holds each thread's split for
    /// that topology; the streams themselves do not depend on it, so keys
    /// that differ only in the slice count record the same streams, split
    /// differently.
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

    /// Returns a workload's splits, generating them on first use:
    /// `traces[t][j]` is thread `t`'s slice-`j` sub-trace for `cfg`'s LLC
    /// topology, the input of [`icp_cmp_sim::Llc::from_traces`].
    ///
    /// The first request for a workload counts as its generation and every
    /// later one as a hit. Every request claims the threads nobody has
    /// claimed yet and records them on producers leased from the core
    /// budget ([`budget::fan_out`]), then waits only for the threads other
    /// requests are still recording; a request that arrives mid-generation
    /// helps instead of parking. Recording runs outside every lock, and
    /// the result is bit-identical whoever records which thread.
    #[deterministic]
    pub fn get_or_pack(
        &self,
        spec: &BenchmarkSpec,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Vec<Vec<Arc<PackedTrace>>> {
        let workload = self.entry(spec, cfg, scale, seed);
        let threads = &workload.threads;
        let split = |&t: &usize| spec.split_thread(t, cfg, scale, seed);
        let unclaimed: Vec<usize> = (0..workload.count).filter(|t| !threads.contains(t)).collect();
        budget::fan_out(unclaimed.len(), |i| {
            let t = unclaimed[i];
            if let Some(claim) = threads.try_claim(t) {
                claim.publish(split(&t));
            }
        });
        // A thread still pending is being recorded by another request; one
        // whose recorder unwound is recorded here.
        (0..workload.count).map(|t| threads.get_or_compute(t, split).0).collect()
    }

    /// A workload's entry: registered, and counted as its generation, by
    /// the first request; counted as a hit by every later one.
    /// Registration is instant, so no request parks here while a workload
    /// is being recorded.
    fn entry(
        &self,
        spec: &BenchmarkSpec,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Arc<Workload> {
        let key = TraceCache::key(spec, cfg, scale, seed);
        let (workload, hit) = self.workloads.get_or_compute(key, |_| {
            Arc::new(Workload { threads: SingleFlight::default(), count: spec.threads.len() })
        });
        let counter = if hit { &self.hits } else { &self.generations };
        counter.fetch_add(1, Ordering::Relaxed);
        workload
    }

    /// Returns one zero-copy replay stream per thread for a workload,
    /// generating it on first use. A sliced workload's threads are
    /// re-joined from their splits ([`SliceTopology::join`]), so splitting
    /// a replay again gives back the cached sub-traces; at one slice the
    /// cached trace is the whole trace and nothing is copied.
    pub fn replay_streams(
        &self,
        spec: &BenchmarkSpec,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Vec<Box<dyn AccessStream>> {
        let topology = SliceTopology::of(cfg);
        self.get_or_pack(spec, cfg, scale, seed)
            .iter()
            .map(|subs| {
                Box::new(PackedTrace::stream(&topology.join(subs))) as Box<dyn AccessStream>
            })
            .collect()
    }

    /// Number of workloads generated (cache misses).
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// Number of workloads served from cache, including requests that
    /// helped record a workload already in flight.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cached workloads (materialised entries; a workload in
    /// flight doesn't count until its last thread is recorded).
    pub fn len(&self) -> usize {
        self.workloads.fold(0, |n, w| n + usize::from(w.threads.len() == w.count))
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap bytes held by the cached packed columns.
    pub fn packed_bytes(&self) -> usize {
        self.workloads.fold(0, |sum, w| {
            w.threads
                .fold(sum, |sum, subs| sum + subs.iter().map(|t| t.packed_bytes()).sum::<usize>())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::context::SuiteData;
    use crate::runner::{ExperimentConfig, Scheme};
    use icp_core::IntraAppRuntime;
    use icp_workloads::suite;

    #[test]
    fn cached_runs_are_bit_identical_to_uncached() {
        let bench = suite::cg();
        for plain in [ExperimentConfig::test(), ExperimentConfig::test().with_topology(4, 4)] {
            // The test config's replacement and enforcement are the
            // machines' defaults.
            let cached = plain.clone().with_trace_cache(TraceCache::shared());
            for scheme in [Scheme::Shared, Scheme::ModelBased] {
                // The reference: a machine over inline streams, no cache.
                let streams = bench.build_streams(&plain.system, plain.scale, plain.seed);
                let mut runtime = IntraAppRuntime::new(scheme.policy(), &plain.system);
                let a = if plain.system.llc.slices > 1 {
                    runtime.execute(&mut icp_cmp_sim::Llc::new(plain.system, streams))
                } else {
                    runtime.execute(&mut icp_cmp_sim::Simulator::new(plain.system, streams))
                };
                let b = cached.run(&bench, &scheme);
                assert_eq!(a.wall_cycles, b.wall_cycles, "{scheme:?}");
                assert_eq!(a.thread_totals, b.thread_totals, "{scheme:?}");
                assert_eq!(a.records.len(), b.records.len(), "{scheme:?}");
            }
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
    fn schemes_share_one_set_of_sub_traces() {
        let cache = TraceCache::shared();
        let cfg = ExperimentConfig::test().with_topology(4, 4).with_trace_cache(Arc::clone(&cache));
        let bench = suite::ft();
        let schemes = [Scheme::Shared, Scheme::StaticEqual, Scheme::HierarchicalLookahead(2)];
        cfg.run_schemes(&bench, &schemes);
        assert_eq!((cache.generations(), cache.hits(), cache.len()), (1, 2, 1));
        let spec = cfg.normalized(&bench);
        let first = cache.get_or_pack(&spec, &cfg.system, cfg.scale, cfg.seed);
        let again = cache.get_or_pack(&spec, &cfg.system, cfg.scale, cfg.seed);
        assert_eq!(first.len(), 4, "one split per thread");
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.len(), 4, "one sub-trace per slice");
            assert!(a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y)), "shared, not copied");
        }
        // The entry is the sub-traces and nothing beside them.
        let split_bytes: usize = first.iter().flatten().map(|t| t.packed_bytes()).sum();
        assert_eq!(cache.packed_bytes(), split_bytes);
    }

    /// A request that finds its workload in flight records the threads
    /// nobody has claimed and parks only on the one still being recorded:
    /// here a stand-in first request is recording thread `busy`, having
    /// finished every thread before it.
    #[test]
    fn a_request_mid_generation_records_the_unclaimed_threads() {
        let cfg = ExperimentConfig::test().with_topology(4, 4);
        let spec = cfg.normalized(&suite::ft());
        let (sys, scale, seed) = (&cfg.system, cfg.scale, cfg.seed);
        let reference = TraceCache::new().get_or_pack(&spec, sys, scale, seed);
        for busy in [0usize, 1] {
            let cache = TraceCache::new();
            let workload = cache.entry(&spec, sys, scale, seed);
            for (t, subs) in reference.iter().enumerate().take(busy) {
                workload.threads.try_claim(t).expect("unclaimed").publish(subs.clone());
            }
            let held = workload.threads.try_claim(busy).expect("unclaimed");
            let served = std::thread::scope(|s| {
                let helper = s.spawn(|| cache.get_or_pack(&spec, sys, scale, seed));
                // Bounded, so a helper that never parks fails below instead
                // of hanging.
                let start = std::time::Instant::now();
                while workload.threads.parked.load(Ordering::SeqCst) == 0
                    && start.elapsed().as_secs() < 30
                {
                    std::thread::yield_now();
                }
                assert_eq!(
                    workload.threads.len(),
                    reference.len() - 1,
                    "busy={busy}: the helper recorded every unclaimed thread before parking"
                );
                held.publish(spec.split_thread(busy, sys, scale, seed));
                helper.join().expect("the helper finishes")
            });
            assert_eq!(served, reference, "busy={busy}: bit-identical to a lone request");
            assert_eq!((cache.generations(), cache.hits(), cache.len()), (1, 1, 1), "busy={busy}");
        }
    }

    #[test]
    fn replays_of_a_sliced_entry_split_back_into_it() {
        let cfg = ExperimentConfig::test().with_topology(4, 4);
        let spec = cfg.normalized(&suite::cg());
        let cache = TraceCache::new();
        let topology = SliceTopology::of(&cfg.system);
        let splits = cache.get_or_pack(&spec, &cfg.system, cfg.scale, cfg.seed);
        let replays = cache.replay_streams(&spec, &cfg.system, cfg.scale, cfg.seed);
        for (mut replay, subs) in replays.into_iter().zip(&splits) {
            assert_eq!(&topology.split(&mut replay), subs);
        }
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
