//! Property-based tests of the minimal perfect hash function: bijection,
//! determinism, serialization stability, and foreign-key behaviour over
//! arbitrary key sets.

use std::collections::HashSet;

use mphf::{Mphf, MphfBuilder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any distinct key set, the function is a bijection onto 0..n.
    #[test]
    fn bijection_over_arbitrary_keys(
        keys in prop::collection::hash_set(any::<u64>(), 1..400)
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let f = Mphf::build(&keys).expect("build");
        let mut seen = vec![false; keys.len()];
        for k in &keys {
            let i = f.index(k).expect("member maps");
            prop_assert!(!seen[i], "collision at {i}");
            seen[i] = true;
        }
        prop_assert!(seen.iter().all(|&b| b), "not minimal");
    }

    /// `index_unchecked` stays in range even for keys outside the set.
    #[test]
    fn unchecked_always_in_range(
        keys in prop::collection::hash_set(any::<u64>(), 1..200),
        probes in prop::collection::vec(any::<u64>(), 50),
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let f = Mphf::build(&keys).unwrap();
        for p in probes {
            prop_assert!(f.index_unchecked(&p) < keys.len());
        }
    }

    /// Checked lookups of foreign keys either reject or (rarely) alias into
    /// range — never panic, never exceed the range.
    #[test]
    fn foreign_keys_safe(
        keys in prop::collection::hash_set(0u64..1_000_000, 2..200),
        probes in prop::collection::vec(1_000_000u64..2_000_000, 50),
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let f = Mphf::build(&keys).unwrap();
        for p in probes {
            if let Some(i) = f.index(&p) {
                prop_assert!(i < keys.len());
            }
        }
    }

    /// Construction is deterministic and insensitive to key order.
    #[test]
    fn order_insensitive_determinism(
        keys in prop::collection::hash_set(any::<u64>(), 2..150),
        seed in any::<u64>(),
    ) {
        let mut a: Vec<u64> = keys.iter().copied().collect();
        let mut b = a.clone();
        a.sort_unstable();
        // A deterministic shuffle of b.
        let mut s = seed | 1;
        for i in (1..b.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.swap(i, (s >> 33) as usize % (i + 1));
        }
        let fa = Mphf::build(&a).unwrap();
        let fb = Mphf::build(&b).unwrap();
        for k in &a {
            prop_assert_eq!(fa.index(k), fb.index(k));
        }
    }

    /// Larger bucket loads still build and stay bijective.
    #[test]
    fn lambda_sweep(
        lambda in 1usize..7,
        n in 1usize..300,
    ) {
        let keys: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let f = MphfBuilder::new().lambda(lambda).build(&keys).unwrap();
        let distinct: HashSet<usize> = keys.iter().map(|k| f.index(k).unwrap()).collect();
        prop_assert_eq!(distinct.len(), n);
    }
}

#[test]
fn too_many_keys_rejected_immediately() {
    // 2^20 + 1 keys exceeds the packed-displacement format.
    let keys: Vec<u64> = (0..(1u64 << 20) + 1).collect();
    match Mphf::build(&keys) {
        Err(mphf::BuildError::TooManyKeys(n)) => assert_eq!(n, (1 << 20) + 1),
        other => panic!("expected TooManyKeys, got {other:?}"),
    }
}
