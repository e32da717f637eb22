//! The seed-derivation chain for synthetic streams.
//!
//! Every access stream in a run must be (a) reproducible from one `u64`
//! master seed and (b) statistically independent of every other stream —
//! per-thread generation (including the parallel producer threads of
//! `BenchmarkSpec::pack_streams_parallel`) relies on thread `t`'s RNG
//! never depending on when, or whether, thread `u`'s events are drawn.
//!
//! The chain, fixed for all time because simulation digests pin it:
//!
//! ```text
//! master_state = seed XOR STREAM_SEED_TAG        (namespace the seed)
//!      │  splitmix64 × 4                          (256-bit expansion)
//!      ▼
//! master xoshiro256++ M
//!      │  M.next_u64() XOR thread · FORK_MULT     (one fork per stream)
//!      ▼
//! thread seed  ──splitmix64 × 4──▶  thread xoshiro256++
//! ```
//!
//! Each stream constructs its *own* master from the seed and forks once
//! with its thread index as the label, so derivation is stateless: thread
//! 3's RNG can be built without touching threads 0–2. The splitmix64
//! expansion at both levels guarantees that adjacent seeds and adjacent
//! thread labels land in unrelated regions of xoshiro state space (the
//! xoshiro authors' recommended seeding discipline); the
//! `distinct_streams_across_suite` test holds every (benchmark, thread)
//! pair in the suite to pairwise-distinct output.

use icp_numeric::Xoshiro256;

/// Namespace tag XORed into the user seed before expansion, so a master
/// seed used here never collides with the same integer used by another
/// subsystem's RNG.
pub const STREAM_SEED_TAG: u64 = 0xC0FF_EE00_0000_0000;

/// Builds the master generator for a run seed.
pub fn master_rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed ^ STREAM_SEED_TAG)
}

/// Derives the independent generator for one thread's stream.
///
/// Stateless: any thread's RNG is derivable directly from `(seed,
/// thread)`, which is what lets parallel producers generate different
/// threads' events concurrently with bit-identical results.
pub fn thread_rng(seed: u64, thread: usize) -> Xoshiro256 {
    master_rng(seed).fork(thread as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_stateless_and_order_free() {
        // Building thread 5's RNG must not require (or be affected by)
        // building any other thread's.
        let direct = thread_rng(42, 5);
        let _ = thread_rng(42, 0);
        let _ = thread_rng(42, 3);
        assert_eq!(thread_rng(42, 5), direct);
    }

    #[test]
    fn adjacent_threads_are_decorrelated() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut a = thread_rng(seed, 0);
            let mut b = thread_rng(seed, 1);
            let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
            assert!(same <= 1, "seed {seed}: {same} collisions");
        }
    }

    #[test]
    fn adjacent_seeds_are_decorrelated() {
        let mut a = thread_rng(7, 0);
        let mut b = thread_rng(8, 0);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1);
    }
}
