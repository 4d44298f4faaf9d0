//! The seeded generator behind every synthetic graph: xoshiro256\*\*,
//! its four state words expanded from a 64-bit seed by SplitMix64.
//!
//! The stream is a **pinned contract**, not an implementation detail:
//! every `gsd generate` output, the fingerprints in
//! `tests/determinism_order.rs` and the counters in
//! `ci/bench_baseline.json` are functions of it, and
//! `tests/workspace_shape.rs` holds it to constants computed before this
//! module replaced the vendored `rand`/`rand_chacha` stand-ins (whose
//! "`ChaCha8Rng`" was this generator under a borrowed name). It exposes
//! exactly what the generators and the weighted-input call sites use.

use std::ops::{Bound, RangeBounds};

/// xoshiro256\*\* seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A type [`Xoshiro256::gen`] can draw uniformly.
pub trait Sample {
    /// Draws one value from `rng`.
    fn sample(rng: &mut Xoshiro256) -> Self;
}

impl Sample for f64 {
    /// 53 uniform mantissa bits in `[0, 1)`.
    fn sample(rng: &mut Xoshiro256) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for bool {
    fn sample(rng: &mut Xoshiro256) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Xoshiro256 {
    /// The generator for `seed` (the standard SplitMix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Xoshiro256 {
            s: [
                splitmix(&mut sm),
                splitmix(&mut sm),
                splitmix(&mut sm),
                splitmix(&mut sm),
            ],
        }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// One uniform draw of `T`.
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// One draw from `range` (`a..b` or `a..=b`) by modulo reduction of
    /// one `next_u64`; panics on an empty range.
    pub fn gen_range(&mut self, range: impl RangeBounds<u32>) -> u32 {
        let lo = match range.start_bound() {
            Bound::Included(&lo) => lo,
            Bound::Excluded(&lo) => lo + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&hi) => u64::from(hi) + 1,
            Bound::Excluded(&hi) => u64::from(hi),
            Bound::Unbounded => 1 << 32,
        };
        assert!(u64::from(lo) < end, "cannot sample empty range");
        let span = end - u64::from(lo);
        lo + crate::narrow::to_u32(self.next_u64() % span, "range draw")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_deterministic_and_distinct() {
        let draw = |seed| {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..1000 {
            assert!((3..17).contains(&rng.gen_range(3..17)));
            assert!((1..=32).contains(&rng.gen_range(1..=32)));
            assert!((0.0..1.0).contains(&rng.gen::<f64>()));
        }
    }
}
