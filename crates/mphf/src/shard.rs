//! Stable shard assignment.
//!
//! A sharded analyzer directory partitions the end-host key set across N
//! instances. A key's shard depends only on the key value and the shard
//! count — never on the rest of the key set — so every layer that
//! partitions by key (the host stores' flow sharding, the directory's host
//! sharding, snapshot deltas) agrees on ownership without coordination.
//! [`stable_shard`] is the one function they all share: a splitmix64
//! finalizer reduced mod N.

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
}
