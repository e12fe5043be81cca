//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the simulator (ECMP hashing salt, jittered
//! flow start times, clock offsets) draws from this splitmix64 generator so
//! that a simulation is a pure function of its seed — a requirement for the
//! reproducible experiment harness (EXPERIMENTS.md) and for shrinking
//! property-test failures.

/// A small, fast, deterministic RNG (splitmix64).
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        DetRng {
            // Avoid the all-zero fixed point without changing other seeds.
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        // Lemire reduction; bias is negligible for simulation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in the inclusive-exclusive range `[lo, hi)`.
    #[inline]
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_below(hi - lo)
    }

    /// Uniform signed value in `[-bound, bound]`.
    #[inline]
    pub(crate) fn signed_within(&mut self, bound: i64) -> i64 {
        if bound == 0 {
            return 0;
        }
        let span = (bound as u64) * 2 + 1;
        self.next_below(span) as i64 - bound
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bounds_respected() {
        let mut r = DetRng::new(99);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
            let v = r.range(5, 9);
            assert!((5..9).contains(&v));
            let s = r.signed_within(1_000);
            assert!((-1_000..=1_000).contains(&s));
            let f = r.f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn rough_uniformity() {
        let mut r = DetRng::new(3);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[r.next_below(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "skewed bucket: {b}");
        }
    }
}
