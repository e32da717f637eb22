//! Exact remainder by a fixed divisor without a hardware divide.
//!
//! The workload generators map a Zipf rank to a cache line with
//! `(rank * mult) % ws_lines` once per access; a 64-bit `div` is the
//! single most expensive ALU operation left on that path. For divisors
//! known at stream construction, Lemire & Kaser's *fastmod* ("Faster
//! remainders when the divisor is a constant", 2019) computes the exact
//! remainder with one wrapping multiply and one widening multiply:
//! with `M = ceil(2^64 / d)`, for any `x < 2^32` and `d < 2^32`,
//! `x % d == ((M.wrapping_mul(x) as u128 * d as u128) >> 64)`.

/// Remainder by a divisor fixed at construction, exact and div-free for
/// 32-bit operands, falling back to `%` for larger ones.
///
/// # Examples
///
/// ```
/// use icp_numeric::FastMod;
///
/// let m = FastMod::new(12_345);
/// assert_eq!(m.rem(987_654_321), 987_654_321 % 12_345);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FastMod {
    d: u64,
    /// `ceil(2^64 / d)`, or 0 when `d` is too large for the div-free path
    /// (and for `d == 1`, where the fallback is equally exact).
    m: u64,
}

/// Largest divisor the div-free path accepts: keeps `x = rank * mult`
/// (both factors `< d`) below `2^32`, the fastmod exactness bound.
const FAST_MAX_D: u64 = 1 << 16;

impl FastMod {
    /// Prepares a divisor. Divisors above `2^16` use a plain `%` in
    /// [`Self::rem`] — still correct, just not div-free.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "FastMod requires d > 0");
        // d == 1 would wrap ceil(2^64 / 1) to 0, which is exactly the
        // fallback sentinel — and `x % 1` is free anyway.
        let m = if d <= FAST_MAX_D { (u64::MAX / d).wrapping_add(1) } else { 0 };
        FastMod { d, m }
    }

    /// The divisor.
    pub fn divisor(&self) -> u64 {
        self.d
    }

    /// `x % d`. Div-free (and bit-exact) when the divisor took the fast
    /// path and `x < 2^32`; a plain `%` otherwise.
    #[inline]
    pub fn rem(&self, x: u64) -> u64 {
        if self.m != 0 {
            debug_assert!(x < 1 << 32, "fastmod exactness requires x < 2^32");
            let low = self.m.wrapping_mul(x);
            ((low as u128 * self.d as u128) >> 64) as u64
        } else {
            x % self.d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn matches_modulo_for_random_operands() {
        let mut rng = Xoshiro256::seed_from_u64(0xFA_570D);
        for _ in 0..200 {
            let d = rng.next_bounded(FAST_MAX_D) + 1;
            let m = FastMod::new(d);
            assert_eq!(m.divisor(), d);
            for _ in 0..500 {
                let x = rng.next_bounded(1 << 32);
                assert_eq!(m.rem(x), x % d, "d={d} x={x}");
            }
        }
    }

    #[test]
    fn matches_modulo_at_edges() {
        for d in [1u64, 2, 3, 7, 64, 65_535, FAST_MAX_D] {
            let m = FastMod::new(d);
            for x in [0u64, 1, d - 1, d, d + 1, (1 << 32) - 1] {
                assert_eq!(m.rem(x), x % d, "d={d} x={x}");
            }
        }
    }

    #[test]
    fn large_divisors_fall_back_exactly() {
        let mut rng = Xoshiro256::seed_from_u64(0xFA_570E);
        for d in [FAST_MAX_D + 1, 1 << 20, u64::MAX] {
            let m = FastMod::new(d);
            for _ in 0..100 {
                let x = rng.next_u64();
                assert_eq!(m.rem(x), x % d, "d={d} x={x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "d > 0")]
    fn zero_divisor_panics() {
        FastMod::new(0);
    }
}
