//! Offline stand-in for `proptest`, implementing the strategy surface the
//! workspace's property tests use: integer/float range strategies,
//! `any::<T>()`, tuples, `prop::collection::{vec, hash_set}`, the
//! `proptest!` macro with `ProptestConfig::with_cases`, and
//! `prop_assert!`/`prop_assert_eq!`.
//!
//! Inputs are drawn from a splitmix64 generator seeded by the test's name,
//! so every run of a given test explores the same deterministic case
//! sequence (no shrinking, no persistence files — failures print the
//! failing values via the assertion message instead).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Deterministic splitmix64 stream.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift reduction: adequate uniformity for test inputs.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seeds a [`TestRng`] from a test's name (FNV-1a over the bytes).
pub fn rng_for(name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    TestRng::new(h)
}

pub mod strategy {
    use super::TestRng;

    /// A recipe for generating values of `Value`.
    pub trait Strategy {
        type Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }
}

use strategy::Strategy;

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let width = (self.end as u64) - (self.start as u64);
                self.start + rng.below(width) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! inclusive_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                // Width can be 2^64 for a full-domain range, which u64
                // cannot hold — draw the raw stream in that case.
                let width = hi as i128 - lo as i128 + 1;
                if width > u64::MAX as i128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(width as u64) as i128) as $t
            }
        }
    )*};
}

inclusive_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let width = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(width) as i128) as $t
            }
        }
    )*};
}

signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A / 0),
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
);

/// `any::<T>()` — the full domain of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

macro_rules! any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

any_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }
}

/// Collection size specification: a fixed size or a half-open range.
#[derive(Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::{SizeRange, TestRng};
    use std::collections::HashSet;
    use std::hash::Hash;

    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo
                + if span > 0 {
                    rng.below(span) as usize
                } else {
                    0
                };
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    pub struct HashSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    pub fn hash_set<S>(elem: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        HashSetStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo
                + if span > 0 {
                    rng.below(span) as usize
                } else {
                    0
                };
            let mut out = HashSet::with_capacity(n);
            // Distinctness can stall on narrow domains; bound the attempts.
            let mut attempts = 0usize;
            while out.len() < n && attempts < n * 20 + 100 {
                out.insert(self.elem.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// `option::of(inner)` — `None` half the time, `Some(inner)` otherwise.
pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;

    pub struct OptionStrategy<S> {
        inner: S,
    }

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(2) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

// Re-exported under both names so `prop::collection::vec` and plain
// `collection::vec` resolve.
pub mod prop {
    pub use crate::collection;
    pub use crate::option;
}

/// Runner configuration — only the case count is meaningful here.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::{any, Any, ProptestConfig, SizeRange, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// The property-test entry macro: expands each `fn name(arg in strategy,
/// ...)` item into a `#[test]` that draws `cases` deterministic inputs and
/// runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with $cfg; $($rest)*);
    };
    (@with $cfg:expr; ) => {};
    (@with $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::proptest!(@with $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with $crate::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(
            a in 2u32..6,
            b in 0usize..10,
            x in 0.25f64..0.75,
            v in prop::collection::vec((0usize..4, 0u64..3), 1..20),
            s in prop::collection::hash_set(any::<u64>(), 1..50),
        ) {
            prop_assert!((2..6).contains(&a));
            prop_assert!(b < 10);
            prop_assert!((0.25..0.75).contains(&x));
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (p, q) in v {
                prop_assert!(p < 4 && q < 3);
            }
            prop_assert!(!s.is_empty());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = super::rng_for("x");
        let mut b = super::rng_for("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
