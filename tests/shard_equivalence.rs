//! The sliced LLC's worker shards must not change results — for every
//! workload in the suite.
//!
//! Each interval, `icp::sim::slice::Llc` leases workers from the core
//! budget and splits its N slices into contiguous *worker shards*: the
//! calling thread works the first shard, scoped workers the rest, and the
//! per-slice reports are folded in slice order. `tests/slice_equivalence.rs`
//! pins the two extreme splits (one worker per slice, and every slice
//! inline); this suite pins the shard machinery in between and around it:
//!
//! 1. **One shard is the serial simulator.** A one-slice machine is the
//!    monolithic `Simulator` bit for bit under the runtime's usage shape —
//!    UMON on and decayed, the partition flipped at every boundary.
//! 2. **Uneven shards change nothing.** A budget smaller than the slice
//!    count puts several slices on one worker, in chunks of unequal length
//!    (4 slices on 3 workers: 2, 1, 1; 8 on 3: 3, 3, 2). Every such split
//!    is bit-identical to the one-core inline walk.
//! 3. **Shards conserve work.** At every slice count and shard split, the
//!    merged interval deltas sum to the merged cumulative counters, and
//!    every thread retires the serial simulator's instructions and demand
//!    accesses.
//!
//! Each run holds its own `budget::scoped` core budget, so the split is
//! fixed by the test rather than by whatever the process-wide budget has
//! spare while other tests in this binary run.

use std::sync::Arc;

use icp::sim::budget::{self, CoreBudget};
use icp::sim::config::LlcConfig;
use icp::sim::l2::equal_split;
use icp::sim::slice::Llc;
use icp::sim::stream::AccessStream;
use icp::sim::{
    GlobalStats, IntervalReport, Machine, Simulator, SystemConfig, ThreadCounters, UmonProfile,
};
use icp::workloads::{suite, BenchmarkSpec, WorkloadScale};

const SEED: u64 = 0x5EED_0004;

/// (slices, worker budget) pairs whose budget splits the slices into
/// uneven contiguous shards.
const UNEVEN_SPLITS: [(u32, usize); 2] = [(4, 3), (8, 3)];

/// Comparable projection of an interval report (CPI compared by bits —
/// merged deltas must reproduce the exact division).
type Fingerprint = (usize, bool, u64, Vec<(u64, u32, u64)>);

fn fingerprint(r: &IntervalReport) -> Fingerprint {
    let threads = r
        .threads
        .iter()
        .map(|t| (t.counters.active_cycles, t.ways, t.cpi.to_bits()))
        .collect();
    (r.index, r.finished, r.wall_cycles, threads)
}

fn sliced_config(slices: u32) -> SystemConfig {
    let mut cfg = SystemConfig::scaled_down();
    cfg.llc = LlcConfig::sliced(slices);
    cfg
}

fn inline_streams(spec: &BenchmarkSpec, cfg: &SystemConfig) -> Vec<Box<dyn AccessStream>> {
    spec.build_streams(cfg, WorkloadScale::Test, SEED)
}

/// Runs `f` under a private core budget of `cores` and returns its result
/// with the peak number of live threads the budget saw.
fn under_budget<R>(cores: usize, f: impl FnOnce() -> R) -> (R, usize) {
    let b = CoreBudget::new(cores);
    let out = budget::scoped(Arc::clone(&b), f);
    (out, b.peak_threads())
}

/// Runs a machine (equal static partition) to completion, returning every
/// interval report alongside what an experiment driver could observe.
fn run_to_completion<M: Machine>(mut sim: M) -> (u64, u64, GlobalStats, Vec<IntervalReport>) {
    sim.set_partition(&equal_split(sim.config().l2.ways, sim.config().cores));
    let mut reports = Vec::new();
    while let Some(r) = sim.run_interval() {
        let finished = r.finished;
        reports.push(r);
        if finished {
            break;
        }
    }
    (sim.wall_cycles(), sim.events_processed(), sim.stats().clone(), reports)
}

/// Drives a machine the way the runtime does: UMON sampled every 4th set,
/// the profile read and decayed at every boundary, and the partition
/// flipped to a new skew before the next interval.
fn drive_like_runtime<M: Machine>(
    mut sim: M,
) -> (u64, u64, GlobalStats, Vec<Fingerprint>, Vec<UmonProfile>) {
    let cfg = *sim.config();
    sim.enable_umon(4);
    sim.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
    let ways = cfg.l2.ways;
    let others = cfg.cores as u32 - 1;
    let mut reports = Vec::new();
    let mut profiles = Vec::new();
    let mut i = 0u32;
    while let Some(r) = sim.run_interval() {
        reports.push(fingerprint(&r));
        profiles.push(sim.umon_view().expect("UMON enabled").snapshot());
        if r.finished {
            break;
        }
        sim.decay_umon();
        let skew = 1 + (i % (ways / 2));
        let rest = ways - skew;
        let mut quotas = vec![rest / others; cfg.cores];
        quotas[0] = skew;
        for q in quotas.iter_mut().skip(1).take((rest % others) as usize) {
            *q += 1;
        }
        sim.set_partition(&quotas);
        i += 1;
    }
    (sim.wall_cycles(), sim.events_processed(), sim.stats().clone(), reports, profiles)
}

/// One shard is the serial machine: a one-slice `Llc` driven like the
/// runtime (UMON, decay, per-interval repartitioning) reproduces the
/// monolithic `Simulator`'s reports, stats, wall clock and UMON profiles
/// bit for bit, for every suite workload — even under a budget that
/// would grant workers.
#[test]
fn one_shard_identical_to_serial_across_suite() {
    let mono = SystemConfig::scaled_down();
    let cfg = sliced_config(1);
    for spec in suite::all() {
        let serial = drive_like_runtime(Simulator::new(mono, inline_streams(&spec, &mono)));
        let (one, peak) =
            under_budget(4, || drive_like_runtime(Llc::new(cfg, inline_streams(&spec, &cfg))));
        assert_eq!(peak, 1, "{}: a one-slice machine leased a worker", spec.name);
        assert_eq!(one.0, serial.0, "{}: wall diverged", spec.name);
        assert_eq!(one.1, serial.1, "{}: events diverged", spec.name);
        assert_eq!(one.2, serial.2, "{}: stats diverged", spec.name);
        assert_eq!(one.3, serial.3, "{}: reports diverged", spec.name);
        assert_eq!(one.4, serial.4, "{}: UMON profiles diverged", spec.name);
    }
}

/// Uneven worker shards are bit-identical to the one-core inline walk:
/// 4 slices on 3 workers and 8 slices on 3 workers, for every suite
/// workload.
#[test]
fn parallel_identical_to_serial_reference_across_suite() {
    for spec in suite::all() {
        for (n, workers) in UNEVEN_SPLITS {
            let cfg = sliced_config(n);
            let run = || {
                let (wall, events, stats, reports) =
                    run_to_completion(Llc::new(cfg, inline_streams(&spec, &cfg)));
                (wall, events, stats, reports.iter().map(fingerprint).collect::<Vec<_>>())
            };
            let (a, peak) = under_budget(workers, run);
            assert_eq!(
                peak, workers,
                "{} N={n}: the budget's {workers} workers were not all used",
                spec.name
            );
            let (b, _) = under_budget(1, run);
            assert_eq!(a, b, "{} N={n} on {workers} workers: != serial reference", spec.name);
        }
    }
}

/// Sharding conserves the workload: at every slice count and shard split,
/// the merged interval deltas sum to the merged cumulative counters, and
/// each thread's instructions and demand accesses equal the serial
/// simulator's, for every suite workload.
#[test]
fn shard_count_conserves_work_across_suite() {
    let mono = SystemConfig::scaled_down();
    for spec in suite::all() {
        let (_, _, serial, _) =
            run_to_completion(Simulator::new(mono, inline_streams(&spec, &mono)));
        for (n, workers) in [(1u32, 1usize), (2, 2), (4, 3), (8, 3)] {
            let cfg = sliced_config(n);
            let ((_, _, stats, reports), _) = under_budget(workers, || {
                run_to_completion(Llc::new(cfg, inline_streams(&spec, &cfg)))
            });
            let mut summed = vec![ThreadCounters::default(); cfg.cores];
            for r in &reports {
                for (acc, t) in summed.iter_mut().zip(&r.threads) {
                    acc.add(&t.counters);
                }
            }
            assert_eq!(
                summed, stats.threads,
                "{} N={n} on {workers} workers: interval deltas != cumulative counters",
                spec.name
            );
            for (t, (got, want)) in stats.threads.iter().zip(&serial.threads).enumerate() {
                assert_eq!(
                    got.instructions, want.instructions,
                    "{} N={n} thread {t}: instructions not conserved",
                    spec.name
                );
                assert_eq!(
                    got.l1_hits + got.l1_misses,
                    want.l1_hits + want.l1_misses,
                    "{} N={n} thread {t}: accesses not conserved",
                    spec.name
                );
            }
        }
    }
}
