//! Sliced-LLC simulation must be deterministic and serial-equivalent —
//! for every workload in the suite.
//!
//! The sliced machine (`icp::sim::slice::Llc`) makes two bitwise promises:
//!
//! 1. **One slice is the serial simulator.** At N = 1 the slice geometry
//!    is the whole L2 and the demux preserves the entire event order, so
//!    every interval report, counter and the wall clock equal the
//!    monolithic serial path bit for bit.
//! 2. **Worker threads change nothing.** At every N, slice-parallel
//!    execution is bit-identical to the same machine under a one-core
//!    budget, which advances the N slices on one thread in slice order.
//!
//! This suite pins both across every suite benchmark at N ∈ {1, 2, 4, 8},
//! including under mid-run repartitioning, and sanity-checks the slice
//! hash: no slice starves under the suite's Zipf-skewed address streams.
//!
//! Each side of a parallel-vs-serial comparison runs under its own
//! `budget::scoped` core budget. The process-wide budget is shared by
//! every test running concurrently in this binary, and on a one-core host
//! it grants no workers at all, which would compare the serial walk with
//! itself.

use std::sync::Arc;

use icp::sim::budget::{self, CoreBudget};
use icp::sim::config::LlcConfig;
use icp::sim::l2::equal_split;
use icp::sim::slice::{Llc, SliceTopology};
use icp::sim::stream::AccessStream;
use icp::sim::{
    GlobalStats, IntervalReport, Machine, Measurable, Simulator, SystemConfig, ThreadEvent,
};
use icp::workloads::{suite, BenchmarkSpec, WorkloadScale};

const SEED: u64 = 0x5EED_0009;
const SLICE_COUNTS: [u32; 4] = [1, 2, 4, 8];

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

/// Runs a sliced machine (equal static partition) to completion, returning
/// everything an experiment driver could observe.
fn run_sliced(mut sim: Llc) -> (u64, u64, GlobalStats, Vec<Fingerprint>) {
    let mut reports = Vec::new();
    while let Some(r) = sim.run_interval() {
        reports.push(fingerprint(&r));
        if r.finished {
            break;
        }
    }
    (sim.wall_cycles(), sim.events_processed(), sim.stats().clone(), reports)
}

fn inline_streams(spec: &BenchmarkSpec, cfg: &SystemConfig) -> Vec<Box<dyn AccessStream>> {
    spec.build_streams(cfg, WorkloadScale::Test, SEED)
}

/// One slice is the legacy serial machine: reports, stats and wall clock
/// all bit-identical to the monolithic `Simulator`, for every suite
/// workload.
#[test]
fn one_slice_identical_to_serial_across_suite() {
    let mono = SystemConfig::scaled_down();
    let cfg = sliced_config(1);
    for spec in suite::all() {
        let mut serial = Simulator::new(mono, inline_streams(&spec, &mono));
        serial.set_partition(&equal_split(mono.l2.ways, mono.cores));
        let mut serial_reports = Vec::new();
        while let Some(r) = serial.run_interval() {
            serial_reports.push(fingerprint(&r));
            if r.finished {
                break;
            }
        }

        let mut one = Llc::new(cfg, inline_streams(&spec, &cfg));
        one.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
        let (wall, events, stats, reports) = run_sliced(one);

        assert_eq!(wall, serial.wall_cycles(), "{}: wall diverged", spec.name);
        assert_eq!(events, serial.events_processed(), "{}: events diverged", spec.name);
        assert_eq!(&stats, serial.stats(), "{}: stats diverged", spec.name);
        assert_eq!(reports, serial_reports, "{}: reports diverged", spec.name);
    }
}

/// Runs `f` under a private core budget of `cores` and returns its result
/// with the peak number of live threads the budget saw.
fn under_budget<R>(cores: usize, f: impl FnOnce() -> R) -> (R, usize) {
    let b = CoreBudget::new(cores);
    let out = budget::scoped(Arc::clone(&b), f);
    (out, b.peak_threads())
}

/// Slice-parallel execution (one worker per slice) is bit-identical to
/// the one-core-budget serial reference at N ∈ {1, 2, 4, 8}, for every
/// suite workload.
#[test]
fn parallel_identical_to_serial_reference_across_suite() {
    for spec in suite::all() {
        for n in SLICE_COUNTS {
            let cfg = sliced_config(n);
            let run = || {
                let mut sim = Llc::new(cfg, inline_streams(&spec, &cfg));
                sim.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
                run_sliced(sim)
            };
            let (a, peak) = under_budget(n as usize, run);
            assert_eq!(peak, n as usize, "{} N={n}: slices did not all get a worker", spec.name);
            let (b, _) = under_budget(1, run);
            assert_eq!(a, b, "{} N={n}: parallel != serial reference", spec.name);
        }
    }
}

/// Dynamic repartitioning drives both execution modes identically:
/// flipping the partition at every boundary (the runtime's usage shape)
/// stays bit-identical between slice-parallel and one-core-budget
/// execution.
#[test]
fn repartitioning_identical_between_engines() {
    for spec in suite::all().into_iter().take(3) {
        for n in [2u32, 4] {
            let cfg = sliced_config(n);
            let drive = || -> (u64, GlobalStats) {
                let mut sim = Llc::new(cfg, inline_streams(&spec, &cfg));
                let ways = cfg.l2.ways;
                let mut i = 0u32;
                while let Some(r) = sim.run_interval() {
                    if r.finished {
                        break;
                    }
                    let skew = 1 + (i % (ways / 2));
                    let rest = ways - skew;
                    let others = cfg.cores as u32 - 1;
                    let mut quotas = vec![rest / others; cfg.cores];
                    quotas[0] = skew;
                    for q in quotas.iter_mut().skip(1).take((rest % others) as usize) {
                        *q += 1;
                    }
                    sim.set_partition(&quotas);
                    i += 1;
                }
                (sim.wall_cycles(), sim.stats().clone())
            };
            let (a, _) = under_budget(n as usize, drive);
            let (b, _) = under_budget(1, drive);
            assert_eq!(a, b, "{} N={n}", spec.name);
        }
    }
}

/// Slicing conserves the workload: total instructions and demand accesses
/// per thread are independent of the slice count, for every suite workload.
#[test]
fn slice_count_conserves_work_across_suite() {
    for spec in suite::all() {
        let base_cfg = sliced_config(1);
        let (_, _, base, _) = run_sliced(Llc::new(base_cfg, inline_streams(&spec, &base_cfg)));
        for n in [2u32, 4, 8] {
            let cfg = sliced_config(n);
            let (_, _, stats, _) = run_sliced(Llc::new(cfg, inline_streams(&spec, &cfg)));
            for t in 0..cfg.cores {
                assert_eq!(
                    stats.threads[t].instructions, base.threads[t].instructions,
                    "{} N={n} thread {t}: instructions not conserved",
                    spec.name
                );
                assert_eq!(
                    stats.threads[t].l1_hits + stats.threads[t].l1_misses,
                    base.threads[t].l1_hits + base.threads[t].l1_misses,
                    "{} N={n} thread {t}: accesses not conserved",
                    spec.name
                );
            }
        }
    }
}

/// The slice hash spreads Zipf-skewed address streams: counting the slice
/// of every generated access across the suite, no slice receives less than
/// a quarter of its fair share (a starved slice would serialise the
/// machine and silently void the parallel speedup).
#[test]
fn no_slice_starves_under_zipf_streams() {
    for n in [2u32, 4, 8] {
        let cfg = sliced_config(n);
        let topology = SliceTopology::of(&cfg);
        assert_eq!(topology.num_slices(), n as usize);
        let mut counts = vec![0u64; n as usize];
        for spec in suite::all() {
            for mut stream in inline_streams(&spec, &cfg) {
                // Bounded drain: enough events to expose skew, cheap
                // enough to run for all 9 benchmarks × 3 slice counts.
                for _ in 0..20_000 {
                    match stream.next_event() {
                        ThreadEvent::Access { addr, .. } => counts[topology.slice_of(addr)] += 1,
                        ThreadEvent::Barrier => {}
                        ThreadEvent::Finished => break,
                    }
                }
            }
        }
        let total: u64 = counts.iter().sum();
        let fair = total / n as u64;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c * 4 >= fair,
                "slice {s}/{n} starves: {c} of {total} accesses (fair share {fair}): {counts:?}"
            );
        }
    }
}
