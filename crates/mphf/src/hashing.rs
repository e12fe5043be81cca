//! 64-bit mixing primitives shared by the builder and the lookup path.
//!
//! The data-plane cost model in the paper counts "one hash operation per
//! packet" (§4.1.2); [`HashPair`] is that operation — a single SplitMix64
//! finalizer evaluation from which the bucket index, the two displacement
//! component hashes, and the membership fingerprint are all derived.

/// SplitMix64 finalizer: a fast, statistically strong 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One-byte membership fingerprint for a key under a given seed.
///
/// Derived from a different rotation of the same mix so it is independent of
/// the positional hashes used by [`HashPair`].
#[inline]
pub(crate) fn fingerprint(key: u64, seed: u64) -> u8 {
    (mix64(key ^ seed.rotate_left(17) ^ 0xa5a5_a5a5_a5a5_a5a5) >> 56) as u8
}

/// The full per-key hash state: computed once per packet.
///
/// `bucket()` selects the displacement-table entry; `slot(d, n)` combines the
/// two positional components with the bucket's displacement `d` to produce
/// the final index in `0..n`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HashPair {
    h1: u64,
    h2: u64,
    hb: u64,
}

impl HashPair {
    /// Evaluates the hash of `key` under `seed`. This is the single "hash
    /// operation per packet" of the paper.
    #[inline]
    pub(crate) fn new(key: u64, seed: u64) -> Self {
        let a = mix64(key ^ seed);
        let b = mix64(a ^ 0x6a09_e667_f3bc_c909);
        HashPair {
            h1: a,
            h2: b | 1, // odd so that distinct displacements give distinct strides
            hb: mix64(b ^ seed.rotate_left(32)),
        }
    }

    /// Canonical intra-bucket ordering key: makes construction
    /// independent of input key order (buckets are sorted before the
    /// displacement search anchors on their first element).
    #[inline]
    pub(crate) fn sort_key(&self) -> (u64, u64) {
        (self.h1, self.h2)
    }

    /// Bucket index in `0..num_buckets`.
    #[inline]
    pub(crate) fn bucket(&self, num_buckets: usize) -> usize {
        debug_assert!(num_buckets > 0);
        // Fast range reduction (Lemire): maps uniformly without modulo bias.
        ((self.hb as u128 * num_buckets as u128) >> 64) as usize
    }

    /// Number of bits the rotation component (`d2`) occupies in a packed
    /// displacement; bounds the key-set size at 2^20 (covers the paper's
    /// 1M-host datacenter).
    pub(crate) const D2_BITS: u32 = 20;

    /// Packs the two CHD displacement components into one `u32`.
    #[inline]
    pub(crate) fn pack_displacement(d1: u32, d2: usize) -> u32 {
        debug_assert!(d2 < (1 << Self::D2_BITS));
        debug_assert!(d1 < (1 << (32 - Self::D2_BITS)));
        (d1 << Self::D2_BITS) | d2 as u32
    }

    /// Final slot in `0..n` for packed displacement `d`.
    ///
    /// `d` packs two CHD components: `d1` (high bits) re-randomizes the
    /// bucket's base pattern, `d2` (low bits, `< n`) rotates it. The
    /// rotation is what lets the builder align a bucket's pattern with
    /// whatever slots remain free late in construction. Division-free:
    /// the data-plane cost is two mixes, two multiply-shifts, one load and
    /// one conditional subtract.
    #[inline]
    pub(crate) fn slot(&self, d: u32, n: usize) -> usize {
        debug_assert!(n > 0);
        let d1 = d >> Self::D2_BITS;
        let d2 = (d & ((1 << Self::D2_BITS) - 1)) as usize;
        let s = self.base_slot(d1, n) + d2;
        if s >= n {
            s - n
        } else {
            s
        }
    }

    /// The un-rotated slot for displacement component `d1` (builder use).
    #[inline]
    pub(crate) fn base_slot(&self, d1: u32, n: usize) -> usize {
        let v = self.h1.wrapping_add(self.h2.wrapping_mul(d1 as u64));
        ((v as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_not_identity_and_spreads() {
        let a = mix64(0);
        let b = mix64(1);
        assert_ne!(a, b);
        assert_ne!(a, 0);
        // Avalanche sanity: flipping one input bit flips many output bits.
        let diff = (mix64(0x1234) ^ mix64(0x1235)).count_ones();
        assert!(diff > 16, "poor avalanche: {diff} bits");
    }

    #[test]
    fn bucket_in_range() {
        for key in 0..10_000u64 {
            let hp = HashPair::new(key, 12345);
            assert!(hp.bucket(97) < 97);
        }
    }

    #[test]
    fn slot_in_range_for_all_displacements() {
        let hp = HashPair::new(0xfeed_beef, 7);
        for d in 0..1_000 {
            assert!(hp.slot(d, 1_000) < 1_000);
        }
    }

    #[test]
    fn distinct_displacements_usually_move_slot() {
        // The displacement search relies on different d values probing
        // different slots; verify they don't all collapse to one slot.
        let hp = HashPair::new(42, 99);
        let slots: std::collections::HashSet<usize> =
            (0..64).map(|d| hp.slot(d, 1 << 20)).collect();
        assert!(slots.len() > 32);
    }

    #[test]
    fn fingerprint_depends_on_key_and_seed() {
        assert_ne!(fingerprint(1, 0), fingerprint(2, 0));
        // Not required to differ for every pair, but these specific ones do,
        // and fingerprints must be stable.
        assert_eq!(fingerprint(1, 0), fingerprint(1, 0));
    }
}
