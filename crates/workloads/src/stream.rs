//! The synthetic access-stream generator.
//!
//! Each thread draws memory accesses from a Zipf distribution over its
//! private working set (plus a shared region), with Zipf *ranks* mapped to
//! cache lines through a multiplicative permutation so hot lines spread
//! uniformly across cache sets. Non-memory instruction gaps are sampled
//! around the phase's memory intensity. Sections of a fixed instruction
//! budget end in barriers, reproducing the parallel-section structure of
//! the paper's Figure 1.
//!
//! Generation is *columnar end to end*: the hot path
//! ([`AccessStream::fill_packed`]) writes gap/addr/mlp/write columns
//! straight into a [`PackedTrace`] chunk, drawing its randomness from a
//! [`BufferedRng`] scratch filled in bulk — no per-event 24-byte
//! [`ThreadEvent`] is ever materialised. The scalar `generate` loop remains
//! as the reference path; both draw through the same buffered RNG, so the
//! two are interchangeable mid-stream and bit-identical (pinned by the
//! `stream_equivalence` suite).

use icp_cmp_sim::stream::{AccessStream, ThreadEvent};
use icp_cmp_sim::{PackedTrace, SystemConfig};
use icp_hot_path::{deterministic, hot_path};
use icp_numeric::{BufferedRng, FastMod, Zipf};

use crate::spec::{BenchmarkSpec, ThreadSpec, WorkloadScale};

/// Base address of thread `t`'s private region: far apart so regions never
/// alias.
fn private_base(thread: usize) -> u64 {
    ((thread as u64) + 1) << 40
}

/// Base address of application `id`'s shared region. Applications are
/// spaced far apart so their shared regions never alias.
fn shared_base(id: u64) -> u64 {
    (1 << 50) + (id << 45)
}

/// Greatest common divisor (Euclid).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// A multiplier coprime with `n`, used as a bijective rank→line scramble so
/// that the hottest Zipf ranks land in distinct cache sets.
fn coprime_mult(n: u64) -> u64 {
    if n <= 2 {
        return 1;
    }
    let mut m = 0x9E37_79B1 % n;
    if m < 2 {
        m = 3 % n;
    }
    while gcd(m, n) != 1 {
        m += 1;
        if m >= n {
            m = 2;
        }
    }
    m
}

/// Materialised per-phase sampling state.
#[derive(Clone, Debug)]
struct PhaseRt {
    /// Scaled phase length in instructions.
    len: u64,
    zipf: Zipf,
    mult: u64,
    /// Div-free `% ws_lines` for the rank -> line mapping.
    ws_mod: FastMod,
    /// `2 * mean_gap + 1`: bound for the uniform gap sample.
    gap_bound: u64,
    shared_fraction: f64,
    /// Memory-level parallelism of this phase's misses, in tenths.
    mlp_tenths: u16,
    write_fraction: f64,
}

/// A deterministic synthetic access stream for one thread.
pub struct SyntheticStream {
    rng: BufferedRng,
    line_bytes: u64,
    /// Base address of this thread's private region.
    base: u64,
    phases: Vec<PhaseRt>,
    cur_phase: usize,
    insts_into_phase: u64,
    shared_zipf: Zipf,
    shared_mult: u64,
    /// Div-free `% shared_ws_lines` for the shared-region mapping.
    shared_ws_mod: FastMod,
    shared_base: u64,
    section_budget: u64,
    insts_left_in_section: u64,
    sections_left: u32,
    finished: bool,
}

impl SyntheticStream {
    /// Builds the stream for thread `thread` of `bench`.
    ///
    /// Streams for different threads of the same `(bench, seed)` pair are
    /// independent sub-streams of the same master seed, so a whole run is
    /// reproducible from one `u64`.
    #[deterministic]
    pub fn new(
        bench: &BenchmarkSpec,
        thread_spec: &ThreadSpec,
        thread: usize,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Self {
        let l2_lines = cfg.l2.size_bytes / cfg.l2.line_bytes;
        let rng = BufferedRng::new(crate::seeding::thread_rng(seed, thread));
        let factor = scale.factor();

        let phases = thread_spec
            .phases
            .iter()
            .map(|p| {
                let ws_lines = ((p.ws_fraction * l2_lines as f64) as u64).max(2);
                let mean_gap = (1.0 / p.mem_ratio - 1.0).max(0.0);
                PhaseRt {
                    len: scale_insts(p.instructions, factor),
                    zipf: Zipf::new(ws_lines, p.theta),
                    mult: coprime_mult(ws_lines),
                    ws_mod: FastMod::new(ws_lines),
                    gap_bound: (2.0 * mean_gap) as u64 + 1,
                    shared_fraction: p.shared_fraction,
                    mlp_tenths: (p.mlp * 10.0).round() as u16,
                    write_fraction: p.write_fraction,
                }
            })
            .collect();

        let shared_ws_lines = ((bench.shared_ws_fraction * l2_lines as f64) as u64).max(2);
        let section_budget = scale_insts(bench.section_instructions, factor).max(1);

        SyntheticStream {
            rng,
            line_bytes: cfg.l2.line_bytes,
            base: private_base(thread),
            phases,
            cur_phase: 0,
            insts_into_phase: 0,
            shared_zipf: Zipf::new(shared_ws_lines, bench.shared_theta),
            shared_mult: coprime_mult(shared_ws_lines),
            shared_ws_mod: FastMod::new(shared_ws_lines),
            shared_base: shared_base(bench.shared_region_id),
            section_budget,
            insts_left_in_section: section_budget,
            sections_left: bench.sections,
            finished: false,
        }
    }

    /// Advances the phase machine by `retired` instructions. Single-phase
    /// threads skip the bookkeeping entirely: `cur_phase` can never move,
    /// so the counter is unobservable and the emitted stream is identical.
    #[inline]
    fn advance_phase(&mut self, retired: u64) {
        if self.phases.len() == 1 {
            return;
        }
        self.insts_into_phase += retired;
        let len = self.phases[self.cur_phase].len;
        if self.insts_into_phase >= len {
            self.insts_into_phase = 0;
            self.cur_phase = (self.cur_phase + 1) % self.phases.len();
        }
    }

    /// Generates one event: the scalar reference behind `next_event`, which
    /// the columnar `fill_packed` is tested against. The current phase is
    /// borrowed in place (no per-event clone of the sampling state).
    #[inline]
    fn generate(&mut self) -> ThreadEvent {
        if self.finished {
            return ThreadEvent::Finished;
        }
        if self.insts_left_in_section == 0 {
            self.sections_left -= 1;
            if self.sections_left == 0 {
                self.finished = true;
                return ThreadEvent::Finished;
            }
            self.insts_left_in_section = self.section_budget;
            return ThreadEvent::Barrier;
        }
        let phase = &self.phases[self.cur_phase];
        // Gap: uniform in [0, 2*mean], clamped so the section budget is hit
        // exactly.
        let mut gap = self.rng.next_bounded(phase.gap_bound) as u32;
        if (gap as u64 + 1) > self.insts_left_in_section {
            gap = (self.insts_left_in_section - 1) as u32;
        }
        // `rank_for` always consumes its draw, matching `Zipf::sample` here
        // because every stream Zipf has n >= 2 (`.max(2)` at construction)
        // — the n == 1 draw-free early-out never applies.
        let addr = if self.rng.next_bool(phase.shared_fraction) {
            let rank = self.shared_zipf.rank_for(self.rng.next_f64());
            let line = self.shared_ws_mod.rem(rank * self.shared_mult);
            self.shared_base + line * self.line_bytes
        } else {
            let rank = phase.zipf.rank_for(self.rng.next_f64());
            let line = phase.ws_mod.rem(rank * phase.mult);
            self.base + line * self.line_bytes
        };
        let write = self.rng.next_bool(phase.write_fraction);
        let mlp_tenths = phase.mlp_tenths;
        let retired = gap as u64 + 1;
        self.insts_left_in_section -= retired;
        self.advance_phase(retired);
        ThreadEvent::Access { gap, addr, write, mlp_tenths }
    }

    /// The columnar hot loop: generates accesses until the chunk holds
    /// `cap` events or the section budget runs out (section and stream
    /// boundaries are `fill_packed`'s job).
    #[hot_path]
    fn gen_accesses(&mut self, out: &mut PackedTrace, cap: usize) {
        while out.len() < cap && self.insts_left_in_section > 0 {
            let phase = &self.phases[self.cur_phase];
            let mut gap = self.rng.next_bounded(phase.gap_bound) as u32;
            if (gap as u64 + 1) > self.insts_left_in_section {
                gap = (self.insts_left_in_section - 1) as u32;
            }
            // Draw order and arithmetic mirror `generate` exactly (see the
            // n >= 2 note there for why `rank_for` is equivalent).
            let addr = if self.rng.next_bool(phase.shared_fraction) {
                let rank = self.shared_zipf.rank_for(self.rng.next_f64());
                let line = self.shared_ws_mod.rem(rank * self.shared_mult);
                self.shared_base + line * self.line_bytes
            } else {
                let rank = phase.zipf.rank_for(self.rng.next_f64());
                let line = phase.ws_mod.rem(rank * phase.mult);
                self.base + line * self.line_bytes
            };
            let write = self.rng.next_bool(phase.write_fraction);
            out.push_access(gap, addr, write, phase.mlp_tenths);
            let retired = gap as u64 + 1;
            self.insts_left_in_section -= retired;
            self.advance_phase(retired);
        }
    }
}

/// Scales an instruction count, saturating (so `u64::MAX` stays "steady").
fn scale_insts(insts: u64, factor: f64) -> u64 {
    let scaled = insts as f64 * factor;
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        (scaled as u64).max(1)
    }
}

impl AccessStream for SyntheticStream {
    fn next_event(&mut self) -> ThreadEvent {
        self.generate()
    }

    /// Columnar generation: events are written straight into the packed
    /// columns with no intermediate [`ThreadEvent`]. Draws come from the
    /// same buffered RNG as `generate` in the same order, so mixing the
    /// scalar and columnar APIs on one stream still yields the one
    /// canonical event sequence.
    #[deterministic]
    fn fill_packed(&mut self, out: &mut PackedTrace, cap: usize) -> bool {
        out.clear();
        while out.len() < cap {
            if self.finished {
                return true;
            }
            if self.insts_left_in_section == 0 {
                self.sections_left -= 1;
                if self.sections_left == 0 {
                    self.finished = true;
                    return true;
                }
                self.insts_left_in_section = self.section_budget;
                out.push_barrier();
                continue;
            }
            self.gen_accesses(out, cap);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BenchmarkSpec, ThreadSpec, WorkloadScale};

    fn spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "t",
            threads: vec![
                ThreadSpec::steady(0.5, 0.7, 0.25, 0.2),
                ThreadSpec::steady(0.1, 0.9, 0.25, 0.2),
            ],
            shared_ws_fraction: 0.1,
            shared_region_id: 0,
            shared_theta: 0.8,
            sections: 3,
            section_instructions: 1_000,
        }
    }

    fn cfg() -> icp_cmp_sim::SystemConfig {
        let mut c = icp_cmp_sim::SystemConfig::scaled_down();
        c.cores = 2;
        c
    }

    fn drain(s: &mut SyntheticStream) -> (u64, u32, usize) {
        // Returns (instructions, barriers, accesses).
        let mut insts = 0;
        let mut barriers = 0;
        let mut accesses = 0;
        loop {
            match s.next_event() {
                ThreadEvent::Access { gap, .. } => {
                    insts += gap as u64 + 1;
                    accesses += 1;
                }
                ThreadEvent::Barrier => barriers += 1,
                ThreadEvent::Finished => return (insts, barriers, accesses),
            }
        }
    }

    #[test]
    fn section_budgets_are_exact() {
        let b = spec();
        let c = cfg();
        let mut s = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 7);
        let (insts, barriers, accesses) = drain(&mut s);
        assert_eq!(insts, 3_000); // 3 sections x 1000 instructions
        assert_eq!(barriers, 2); // barriers *between* sections
        assert!(accesses > 0);
        // Stream stays Finished afterwards.
        assert_eq!(s.next_event(), ThreadEvent::Finished);
    }

    #[test]
    fn deterministic_given_seed() {
        let b = spec();
        let c = cfg();
        let mut s1 = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 42);
        let mut s2 = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 42);
        for _ in 0..2000 {
            assert_eq!(s1.next_event(), s2.next_event());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let b = spec();
        let c = cfg();
        let mut s1 = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 1);
        let mut s2 = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 2);
        let mut diff = 0;
        for _ in 0..200 {
            if s1.next_event() != s2.next_event() {
                diff += 1;
            }
        }
        assert!(diff > 50);
    }

    #[test]
    fn threads_use_disjoint_private_regions_and_common_shared_region() {
        let b = spec();
        let c = cfg();
        let mut s0 = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 5);
        let mut s1 = SyntheticStream::new(&b, &b.threads[1], 1, &c, WorkloadScale::Test, 5);
        let collect = |s: &mut SyntheticStream| {
            let mut private = Vec::new();
            let mut shared = Vec::new();
            loop {
                match s.next_event() {
                    ThreadEvent::Access { addr, .. } => {
                        if addr >= shared_base(0) {
                            shared.push(addr);
                        } else {
                            private.push(addr);
                        }
                    }
                    ThreadEvent::Finished => break,
                    ThreadEvent::Barrier => {}
                }
            }
            (private, shared)
        };
        let (p0, sh0) = collect(&mut s0);
        let (p1, sh1) = collect(&mut s1);
        // Private regions are disjoint (different bases).
        assert!(p0.iter().all(|a| (private_base(0)..private_base(1)).contains(a)));
        assert!(p1.iter().all(|a| (private_base(1)..private_base(2)).contains(a)));
        // Shared accesses exist on both threads and overlap in lines.
        assert!(!sh0.is_empty() && !sh1.is_empty());
        let lines0: std::collections::HashSet<u64> = sh0.iter().map(|a| a / 64).collect();
        let overlap = sh1.iter().any(|a| lines0.contains(&(a / 64)));
        assert!(overlap, "shared regions must actually overlap");
    }

    #[test]
    fn mem_ratio_controls_gap_length() {
        let mut b = spec();
        b.threads[0].phases[0].mem_ratio = 0.5; // mean gap 1
        b.threads[1].phases[0].mem_ratio = 0.1; // mean gap 9
        let c = cfg();
        let mut dense = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 9);
        let mut sparse = SyntheticStream::new(&b, &b.threads[1], 1, &c, WorkloadScale::Test, 9);
        let (i0, _, a0) = drain(&mut dense);
        let (i1, _, a1) = drain(&mut sparse);
        let r0 = a0 as f64 / i0 as f64;
        let r1 = a1 as f64 / i1 as f64;
        assert!(r0 > 0.4, "dense stream mem ratio {r0}");
        assert!(r1 < 0.15, "sparse stream mem ratio {r1}");
    }

    #[test]
    fn working_set_respected() {
        let b = spec();
        let c = cfg();
        let l2_lines = c.l2.size_bytes / c.l2.line_bytes;
        let expected_ws = (0.5 * l2_lines as f64) as u64;
        let mut s = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 11);
        let mut lines = std::collections::HashSet::new();
        loop {
            match s.next_event() {
                ThreadEvent::Access { addr, .. } => {
                    if addr < shared_base(0) {
                        lines.insert(addr / 64);
                    }
                }
                ThreadEvent::Finished => break,
                ThreadEvent::Barrier => {}
            }
        }
        assert!(
            lines.len() as u64 <= expected_ws,
            "observed {} distinct lines > ws {expected_ws}",
            lines.len()
        );
        // Zipf covers a decent portion of the set in a few thousand draws.
        assert!(lines.len() as u64 > expected_ws / 10);
    }

    #[test]
    fn phase_machine_switches_working_sets() {
        // Two phases: tiny hot set, then a large one. Early accesses must
        // concentrate on few lines, later ones spread widely.
        let b = BenchmarkSpec {
            name: "p",
            threads: vec![ThreadSpec {
                phases: vec![
                    super::super::spec::PhaseSpec {
                        instructions: 2_000,
                        ws_fraction: 0.01,
                        theta: 0.9,
                        mem_ratio: 0.5,
                        shared_fraction: 0.0,
                        mlp: 1.0,
                        write_fraction: 0.3,
                    },
                    super::super::spec::PhaseSpec {
                        instructions: 2_000,
                        ws_fraction: 0.8,
                        theta: 0.5,
                        mem_ratio: 0.5,
                        shared_fraction: 0.0,
                        mlp: 1.0,
                        write_fraction: 0.3,
                    },
                ],
            }],
            shared_ws_fraction: 0.05,
            shared_region_id: 0,
            shared_theta: 0.8,
            sections: 1,
            section_instructions: 4_000,
        };
        let mut c = cfg();
        c.cores = 1;
        let mut s = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 3);
        let mut first = std::collections::HashSet::new();
        let mut second = std::collections::HashSet::new();
        let mut insts = 0u64;
        loop {
            match s.next_event() {
                ThreadEvent::Access { gap, addr, .. } => {
                    insts += gap as u64 + 1;
                    if insts <= 2_000 {
                        first.insert(addr / 64);
                    } else {
                        second.insert(addr / 64);
                    }
                }
                ThreadEvent::Finished => break,
                ThreadEvent::Barrier => {}
            }
        }
        assert!(second.len() > first.len() * 3, "first {} second {}", first.len(), second.len());
    }

    #[test]
    fn coprime_mult_is_coprime() {
        for n in [2u64, 3, 10, 64, 100, 4096, 12345] {
            let m = coprime_mult(n);
            assert_eq!(gcd(m, n), 1, "n={n} m={m}");
            assert!(m >= 1 && m < n.max(2));
        }
    }

    #[test]
    fn scale_saturates() {
        assert_eq!(scale_insts(u64::MAX, 10.0), u64::MAX);
        assert_eq!(scale_insts(100, 10.0), 1000);
        assert_eq!(scale_insts(0, 10.0), 1); // clamped to at least 1
    }

    /// Drains `s` through `fill_packed` with chunk capacity `cap`,
    /// re-expanding every chunk into the scalar event sequence (the end
    /// rendered as a trailing `Finished`).
    fn drain_packed(s: &mut SyntheticStream, cap: usize) -> Vec<ThreadEvent> {
        let mut out = Vec::new();
        let mut chunk = PackedTrace::with_capacity(cap);
        loop {
            let finished = s.fill_packed(&mut chunk, cap);
            assert!(chunk.len() <= cap, "fill_packed overshot its cap");
            out.extend(chunk.to_events());
            if finished {
                out.push(ThreadEvent::Finished);
                return out;
            }
            assert!(!chunk.is_empty(), "unfinished chunk must carry events");
        }
    }

    #[test]
    fn packed_generation_matches_scalar_generation() {
        let b = spec();
        let c = cfg();
        // Odd capacities so chunk boundaries never align with section
        // boundaries; 1 exercises the degenerate one-event chunk.
        for cap in [1usize, 17, 64, 4096] {
            for (t, ts) in b.threads.iter().enumerate() {
                let mut scalar =
                    SyntheticStream::new(&b, ts, t, &c, WorkloadScale::Test, 77);
                let mut packed =
                    SyntheticStream::new(&b, ts, t, &c, WorkloadScale::Test, 77);
                let events = drain_packed(&mut packed, cap);
                for (i, &e) in events.iter().enumerate() {
                    assert_eq!(e, scalar.next_event(), "cap {cap} thread {t} event {i}");
                }
                // Both streams stay finished afterwards.
                assert!(packed.fill_packed(&mut PackedTrace::new(), 8));
                assert_eq!(scalar.next_event(), ThreadEvent::Finished);
            }
        }
    }

    #[test]
    fn packed_and_scalar_apis_interleave_on_one_stream() {
        // Alternating generate() and fill_packed() on a single stream must
        // still produce the one canonical sequence.
        let b = spec();
        let c = cfg();
        let mut mixed = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 3);
        let mut scalar = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 3);
        let mut chunk = PackedTrace::new();
        loop {
            for _ in 0..5 {
                let e = mixed.generate();
                assert_eq!(e, scalar.next_event());
                if matches!(e, ThreadEvent::Finished) {
                    return;
                }
            }
            let finished = mixed.fill_packed(&mut chunk, 13);
            for e in chunk.to_events() {
                assert_eq!(e, scalar.next_event());
            }
            if finished {
                assert_eq!(scalar.next_event(), ThreadEvent::Finished);
                return;
            }
        }
    }

    #[test]
    fn packed_cap_zero_is_empty_and_stateless() {
        let b = spec();
        let c = cfg();
        let mut s = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 21);
        let mut probe = SyntheticStream::new(&b, &b.threads[0], 0, &c, WorkloadScale::Test, 21);
        let mut chunk = PackedTrace::with_capacity(4);
        assert!(!s.fill_packed(&mut chunk, 0));
        assert!(chunk.is_empty());
        // The zero-cap call consumed nothing: streams still agree.
        for _ in 0..100 {
            assert_eq!(s.next_event(), probe.next_event());
        }
    }
}
