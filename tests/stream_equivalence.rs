//! Packed-trace replay and columnar generation must be bit-identical to
//! inline generation — for every workload in the suite.
//!
//! [`PackedTrace`] materialises a workload once into struct-of-arrays
//! columns replayed zero-copy per scheme (the experiment trace cache), and
//! may be filled by per-thread producer threads. Neither may change a
//! single simulated outcome. Both rest on per-thread RNG forked
//! independently from the master seed (`icp::workloads::seeding`), so
//! *when* events are produced never affects *which* events — and this
//! suite pins that end to end: every suite benchmark is simulated through
//! each path and the full `GlobalStats` (every counter of every thread)
//! plus the wall clock must match inline generation exactly.

use icp::experiments::{ExperimentConfig, Scheme, TraceCache};
use icp::runtime::{ExecutionOutcome, IntraAppRuntime};
use icp::sim::budget::{self, CoreBudget};
use icp::sim::l2::equal_split;
use icp::sim::stream::{AccessStream, ThreadEvent};
use icp::sim::{GlobalStats, Llc, Machine, PackedTrace, Simulator, SystemConfig};
use icp::workloads::{suite, BenchmarkSpec, SyntheticStream, WorkloadScale};

const SEED: u64 = 0x5EED_0004;

/// Runs a raw simulation (equal static partition) to completion.
fn simulate(cfg: SystemConfig, streams: Vec<Box<dyn AccessStream>>) -> (u64, GlobalStats) {
    let mut sim = Simulator::new(cfg, streams);
    sim.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
    while let Some(r) = sim.run_interval() {
        if r.finished {
            break;
        }
    }
    (sim.wall_cycles(), sim.stats().clone())
}

fn inline_streams(spec: &BenchmarkSpec, cfg: &SystemConfig) -> Vec<Box<dyn AccessStream>> {
    spec.build_streams(cfg, WorkloadScale::Test, SEED)
}

/// Zero-copy replays of one-slice splits: each thread's whole trace.
fn replays(splits: &[Vec<std::sync::Arc<PackedTrace>>]) -> Vec<Box<dyn AccessStream>> {
    splits
        .iter()
        .map(|subs| {
            assert_eq!(subs.len(), 1, "a monolithic split is the whole trace");
            Box::new(PackedTrace::stream(&subs[0])) as Box<dyn AccessStream>
        })
        .collect()
}

/// Replays of traces recorded serially, one thread after another, by the
/// trace cache's recorder ([`BenchmarkSpec::split_thread`] at one slice).
fn packed_streams(spec: &BenchmarkSpec, cfg: &SystemConfig) -> Vec<Box<dyn AccessStream>> {
    let splits: Vec<_> = (0..spec.threads.len())
        .map(|t| spec.split_thread(t, cfg, WorkloadScale::Test, SEED))
        .collect();
    replays(&splits)
}

/// Packed replay: simulations over record-once packed traces are
/// bit-identical to regenerating the streams, for every suite workload.
#[test]
fn packed_replay_identical_across_suite() {
    let cfg = SystemConfig::scaled_down();
    for spec in suite::all() {
        let (wall_a, stats_a) = simulate(cfg, inline_streams(&spec, &cfg));
        let (wall_b, stats_b) = simulate(cfg, packed_streams(&spec, &cfg));
        assert_eq!(wall_a, wall_b, "{}: wall clock diverged", spec.name);
        assert_eq!(stats_a, stats_b, "{}: stats diverged", spec.name);
    }
}

/// Columnar generation: draining [`AccessStream::fill_packed`] chunks out
/// of a synthetic stream yields exactly the scalar `next_event` sequence —
/// for every thread of every suite workload, across chunk boundaries that
/// deliberately never align with section boundaries.
#[test]
fn columnar_generation_identical_across_suite() {
    let cfg = SystemConfig::scaled_down();
    let mut chunk = PackedTrace::with_capacity(97);
    for spec in suite::all() {
        for (t, ts) in spec.threads.iter().enumerate() {
            let mut packed = SyntheticStream::new(&spec, ts, t, &cfg, WorkloadScale::Test, SEED);
            let mut scalar = SyntheticStream::new(&spec, ts, t, &cfg, WorkloadScale::Test, SEED);
            let mut i = 0usize;
            loop {
                let finished = packed.fill_packed(&mut chunk, 97);
                for e in chunk.to_events() {
                    assert_eq!(e, scalar.next_event(), "{} thread {t} event {i}", spec.name);
                    i += 1;
                }
                if finished {
                    break;
                }
                assert!(!chunk.is_empty(), "{} thread {t}: stalled unfinished", spec.name);
            }
            assert_eq!(scalar.next_event(), ThreadEvent::Finished, "{} thread {t}", spec.name);
        }
    }
}

/// Parallel materialisation: simulations over traces the trace cache
/// records on per-thread producer threads are bit-identical to inline
/// generation, for every suite workload.
#[test]
fn parallel_packed_replay_identical_across_suite() {
    let cfg = SystemConfig::scaled_down();
    for spec in suite::all() {
        // One producer per thread: every thread is recorded concurrently.
        let splits = budget::scoped(CoreBudget::new(spec.threads.len()), || {
            TraceCache::new().get_or_pack(&spec, &cfg, WorkloadScale::Test, SEED)
        });
        let (wall_a, stats_a) = simulate(cfg, inline_streams(&spec, &cfg));
        let (wall_b, stats_b) = simulate(cfg, replays(&splits));
        assert_eq!(wall_a, wall_b, "{}: wall clock diverged", spec.name);
        assert_eq!(stats_a, stats_b, "{}: stats diverged", spec.name);
    }
}

/// `scheme`'s runtime loop on a machine built straight from freshly
/// generated streams, configured as the experiment runner configures its
/// own: the reference no cache takes part in.
fn inline_run(cfg: &ExperimentConfig, spec: &BenchmarkSpec, scheme: &Scheme) -> ExecutionOutcome {
    fn drive<M: Machine>(cfg: &ExperimentConfig, sim: &mut M, scheme: &Scheme) -> ExecutionOutcome {
        sim.set_replacement(cfg.replacement);
        sim.set_enforcement(cfg.enforcement);
        IntraAppRuntime::new(scheme.policy(), &cfg.system).execute(sim)
    }
    let streams = spec.build_streams(&cfg.system, cfg.scale, cfg.seed);
    if cfg.system.llc.slices > 1 {
        drive(cfg, &mut Llc::new(cfg.system, streams), scheme)
    } else {
        drive(cfg, &mut Simulator::new(cfg.system, streams), scheme)
    }
}

/// The full experiment path: outcomes served through a `TraceCache` equal
/// outcomes over inline generation under a dynamic policy, on the
/// monolithic L2 and on a 4-slice LLC, and one figures-style pass over
/// the suite generates each workload exactly once.
#[test]
fn trace_cached_runner_identical_and_generates_once() {
    let schemes = [Scheme::Shared, Scheme::ModelBased];
    for plain in [ExperimentConfig::test(), ExperimentConfig::test().with_topology(4, 4)] {
        let slices = plain.system.llc.slices;
        let cache = TraceCache::shared();
        let cached = plain.clone().with_trace_cache(std::sync::Arc::clone(&cache));
        for spec in suite::all() {
            for scheme in &schemes {
                let a = inline_run(&plain, &spec, scheme);
                let b = cached.run(&spec, scheme);
                let at = format!("{} {scheme:?} at {slices} slices", spec.name);
                assert_eq!(a.wall_cycles, b.wall_cycles, "{at}");
                assert_eq!(a.thread_totals, b.thread_totals, "{at}");
                assert_eq!(a.records.len(), b.records.len(), "{at}");
            }
        }
        assert_eq!(cache.generations(), 9, "each suite workload generated exactly once");
        assert_eq!(cache.hits(), 9, "second scheme of each pair served from cache");
    }
}
