//! Stable shard assignment and the per-shard MPHF builder.
//!
//! A sharded analyzer directory partitions the end-host key set across N
//! instances; each instance builds a *local* minimal perfect hash over just
//! the keys it owns. Two requirements drive this module:
//!
//! * **Stability.** A key's shard depends only on the key value and the
//!   shard count — never on the rest of the key set — so every layer that
//!   partitions by key (the host stores' flow sharding, the directory's
//!   host sharding, snapshot deltas) agrees on ownership without
//!   coordination. [`stable_shard`] is the one function they all share:
//!   a splitmix64 finalizer reduced mod N.
//! * **Per-shard minimality.** Each shard's function is minimal over *its*
//!   slice (local slots `0..shard_len`), so a shard's pointer-decode state
//!   and directory metadata scale with the hosts it owns, not with the
//!   whole deployment.

use crate::builder::BuildError;
use crate::Mphf;

/// Stable shard assignment: a splitmix64 finalizer over `key`, reduced mod
/// `n_shards`. This is the partition function shared by flow-record
/// sharding (`switchpointer::hoststore::shard_of`) and directory host
/// sharding — a key lands in the same shard everywhere.
#[inline]
pub fn stable_shard(key: u64, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % n_shards as u64) as usize
}

/// Per-shard minimal perfect hash functions over a stably partitioned key
/// set. Shard `s` owns exactly the keys with `stable_shard(key, n) == s`
/// and maps them bijectively onto local slots `0..shard_len(s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedMphf {
    /// One function per shard; `None` for shards that own no keys.
    shards: Vec<Option<Mphf>>,
    total: usize,
}

impl ShardedMphf {
    /// Partitions `keys` by [`stable_shard`] and builds one [`Mphf`] per
    /// non-empty shard. Deterministic for a given key set and shard count.
    pub fn build(keys: &[u64], n_shards: usize) -> Result<Self, BuildError> {
        if keys.is_empty() {
            return Err(BuildError::Empty);
        }
        let n_shards = n_shards.max(1);
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n_shards];
        for &k in keys {
            buckets[stable_shard(k, n_shards)].push(k);
        }
        let mut shards = Vec::with_capacity(n_shards);
        for bucket in buckets {
            if bucket.is_empty() {
                shards.push(None);
            } else {
                shards.push(Some(Mphf::build(&bucket)?));
            }
        }
        Ok(ShardedMphf {
            shards,
            total: keys.len(),
        })
    }

    /// Number of shards (including empty ones).
    #[cfg(test)]
    pub(crate) fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total keys across all shards.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.total
    }

    /// Keys owned by shard `s`.
    #[cfg(test)]
    pub(crate) fn shard_len(&self, s: usize) -> usize {
        self.shards[s].as_ref().map(|m| m.len()).unwrap_or(0)
    }

    /// The shard owning `key` (pure function of key and shard count).
    #[cfg(test)]
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        stable_shard(key, self.shards.len())
    }

    /// Shard `s`'s local function, if it owns any keys.
    pub fn shard(&self, s: usize) -> Option<&Mphf> {
        self.shards[s].as_ref()
    }

    /// Maps `key` to `(shard, local slot)`. Like [`Mphf::index`], foreign
    /// keys are rejected with high probability via the slot fingerprint.
    #[cfg(test)]
    pub(crate) fn index(&self, key: &u64) -> Option<(usize, usize)> {
        let s = self.shard_of(*key);
        let slot = self.shards[s].as_ref()?.index(key)?;
        Some((s, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_shard_is_a_pure_function_of_key_and_count() {
        for n in [1usize, 2, 4, 8, 7] {
            for k in 0..256u64 {
                let s = stable_shard(k, n);
                assert!(s < n);
                assert_eq!(s, stable_shard(k, n), "must be deterministic");
            }
        }
    }

    #[test]
    fn stable_shard_spreads_keys() {
        // 1024 sequential addresses over 8 shards: no shard should be
        // empty or hold a wildly disproportionate share.
        let n = 8usize;
        let mut counts = vec![0usize; n];
        for k in 0..1024u64 {
            counts[stable_shard(0x0a00_0000 + k, n)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (64..=256).contains(&c),
                "shard {s} holds {c}/1024 keys — splitmix64 should spread better"
            );
        }
    }

    #[test]
    fn sharded_build_partitions_and_stays_minimal_per_shard() {
        let keys: Vec<u64> = (0..2_000).map(|i| 0x0a00_0000 + i).collect();
        for n in [1usize, 2, 4, 8] {
            let f = ShardedMphf::build(&keys, n).unwrap();
            assert_eq!(f.n_shards(), n);
            assert_eq!(f.len(), keys.len());
            let total: usize = (0..n).map(|s| f.shard_len(s)).sum();
            assert_eq!(total, keys.len(), "shards must partition the key set");
            // Per-shard bijection onto 0..shard_len.
            let mut seen: Vec<Vec<bool>> = (0..n).map(|s| vec![false; f.shard_len(s)]).collect();
            for k in &keys {
                let (s, slot) = f.index(k).expect("member key must map");
                assert_eq!(s, stable_shard(*k, n), "ownership must be stable");
                assert!(!seen[s][slot], "collision in shard {s}");
                seen[s][slot] = true;
            }
            assert!(
                seen.iter().all(|v| v.iter().all(|&b| b)),
                "each shard must be minimal over its slice"
            );
        }
    }

    #[test]
    fn sharded_build_is_deterministic() {
        let keys: Vec<u64> = (0..1_000).map(|i| i * 31 + 7).collect();
        let a = ShardedMphf::build(&keys, 4).unwrap();
        let b = ShardedMphf::build(&keys, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_key_set_rejected() {
        assert!(matches!(ShardedMphf::build(&[], 4), Err(BuildError::Empty)));
    }

    #[test]
    fn foreign_keys_mostly_rejected_shard_wise() {
        let keys: Vec<u64> = (0..4_096).map(|i| 0x0a00_0000 + i).collect();
        let f = ShardedMphf::build(&keys, 4).unwrap();
        let foreign: Vec<u64> = (0..4_096u64).map(|i| 0xdead_0000_0000 + i).collect();
        let accepted = foreign.iter().filter(|k| f.index(k).is_some()).count();
        assert!(
            accepted < foreign.len() / 32,
            "too many foreign keys accepted: {accepted}"
        );
    }
}
