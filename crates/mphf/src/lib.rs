//! Minimal perfect hash functions for SwitchPointer.
//!
//! SwitchPointer (NSDI'18, §4.1.2) stores, per epoch, one *bit* per
//! destination end-host. To set and test those bits at line rate the switch
//! needs a collision-free map from destination address to bit index that
//! costs **one hash evaluation per packet**, independent of the number of
//! levels in the pointer hierarchy. The paper uses the FCH algorithm from the
//! CMPH library; this crate provides an equivalent from-scratch
//! implementation using the *hash-displace* (CHD-style) construction.
//!
//! Properties (matching the paper's requirements):
//!
//! * **Minimal**: `n` keys map bijectively onto `0..n`.
//! * **O(1) lookup**: two 64-bit mixes and one displacement-table read.
//! * **Compact**: ~2-3 bits of construction metadata per key
//!   (the paper reports 2.1 bits/key; see `Mphf::metadata_bits_per_key`).
//! * **Static**: the key set (the set of end-host addresses in the
//!   datacenter) is known a priori and changes at coarse time scales; the
//!   function is rebuilt by the analyzer only when hosts are added.
//!
//! # Example
//!
//! ```
//! use mphf::Mphf;
//!
//! let hosts: Vec<u64> = (0..1000).map(|i| 0x0a00_0000 + i).collect();
//! let f = Mphf::build(&hosts).unwrap();
//! let mut seen = vec![false; hosts.len()];
//! for h in &hosts {
//!     let idx = f.index(h).unwrap();
//!     assert!(!seen[idx], "perfect: no collisions");
//!     seen[idx] = true;
//! }
//! assert!(seen.iter().all(|&b| b), "minimal: every slot used");
//! ```

mod builder;
mod hashing;
mod shard;

pub use builder::{BuildError, MphfBuilder};
pub use hashing::mix64;
use hashing::HashPair;
pub use shard::{stable_shard, ShardedMphf};

/// A minimal perfect hash function over a static set of `u64` keys.
///
/// In SwitchPointer the keys are end-host identifiers (IPv4 addresses widened
/// to `u64`). The analyzer builds one instance and distributes it to every
/// switch (§4.3); all levels of a switch's pointer hierarchy share the same
/// function so each packet costs exactly one hash evaluation (§4.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Mphf {
    /// Number of keys (and output range).
    n: usize,
    /// Global seed chosen at build time.
    seed: u64,
    /// Per-bucket displacement values, `buckets = ceil(n / LAMBDA)`.
    displacements: Vec<u32>,
    /// Optional key fingerprints for membership rejection of foreign keys.
    /// One byte per slot; `index()` uses it to reject keys that were not in
    /// the build set with probability ~255/256.
    fingerprints: Vec<u8>,
}

/// Average bucket load used by the builder. Smaller values build faster but
/// use more metadata; 4.0 lands at roughly 2-3 bits/key like CMPH's FCH.
pub(crate) const LAMBDA: usize = 4;

impl Mphf {
    /// Builds a minimal perfect hash function over `keys`.
    ///
    /// Returns an error if `keys` contains duplicates or is empty.
    /// Construction is randomized but deterministic for a given key set
    /// (seeds are tried in a fixed order).
    pub fn build(keys: &[u64]) -> Result<Self, BuildError> {
        MphfBuilder::new().build(keys)
    }

    /// Number of keys the function was built over; also the size of the
    /// output range `0..n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when built over an empty key set (never produced by
    /// [`Mphf::build`], which rejects empty sets, but kept for API
    /// completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Maps `key` to its slot in `0..n`.
    ///
    /// Returns `None` (with high probability) for keys outside the build
    /// set: the slot's stored fingerprint is compared against the key's.
    /// A foreign key passes the check with probability ~1/256; SwitchPointer
    /// tolerates this (a stray bit merely widens the analyzer's search
    /// radius, it never causes incorrect diagnosis — §4.1.1 "misconfiguration
    /// ... does not result in correctness violation").
    #[inline]
    pub fn index(&self, key: &u64) -> Option<usize> {
        let slot = self.index_unchecked(key);
        if self.fingerprints[slot] == hashing::fingerprint(*key, self.seed) {
            Some(slot)
        } else {
            None
        }
    }

    /// Maps `key` to a slot without the membership fingerprint check.
    ///
    /// This is the operation a switch data plane performs per packet: one
    /// `HashPair` evaluation plus one displacement read. Keys outside the
    /// build set map to an arbitrary (but stable) slot.
    #[inline]
    pub fn index_unchecked(&self, key: &u64) -> usize {
        let hp = HashPair::new(*key, self.seed);
        let bucket = hp.bucket(self.displacements.len());
        let d = self.displacements[bucket];
        hp.slot(d, self.n)
    }

    /// Bits of construction metadata per key (displacement table plus
    /// fingerprints). The displacement array alone is the figure comparable
    /// to the paper's "2.1 bits per end-host per level"; fingerprints are an
    /// optional integrity add-on counted separately by
    /// [`Mphf::metadata_bytes`].
    #[cfg(test)]
    pub(crate) fn metadata_bits_per_key(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (self.displacements.len() * 32) as f64 / self.n as f64
    }

    /// Total serialized metadata footprint in bytes (what a switch must hold
    /// in SRAM besides the bit arrays themselves; compare with the paper's
    /// 70 KB for 100K hosts / 700 KB for 1M hosts).
    pub fn metadata_bytes(&self) -> usize {
        self.displacements.len() * 4 + self.fingerprints.len() + 16
    }

    pub(crate) fn from_parts(
        n: usize,
        seed: u64,
        displacements: Vec<u32>,
        fingerprints: Vec<u8>,
    ) -> Self {
        Mphf {
            n,
            seed,
            displacements,
            fingerprints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_perfect(keys: &[u64]) {
        let f = Mphf::build(keys).expect("build");
        assert_eq!(f.len(), keys.len());
        let mut seen = vec![false; keys.len()];
        for k in keys {
            let idx = f.index(k).expect("member key must map");
            assert!(idx < keys.len());
            assert!(!seen[idx], "collision for key {k}");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&b| b), "not minimal");
    }

    #[test]
    fn single_key() {
        check_perfect(&[42]);
    }

    #[test]
    fn two_keys() {
        check_perfect(&[1, 2]);
    }

    #[test]
    fn sequential_ips() {
        let keys: Vec<u64> = (0..10_000).map(|i| 0x0a00_0000 + i).collect();
        check_perfect(&keys);
    }

    #[test]
    fn sparse_keys() {
        let keys: Vec<u64> = (0..5_000).map(|i| i * 2_654_435_761).collect();
        check_perfect(&keys);
    }

    #[test]
    fn adversarial_low_entropy_keys() {
        // Keys that differ only in the low byte, then only in the high byte.
        let mut keys: Vec<u64> = (0..256).collect();
        keys.extend((1..256u64).map(|i| i << 56));
        check_perfect(&keys);
    }

    #[test]
    fn empty_keys_rejected() {
        assert!(matches!(Mphf::build(&[]), Err(BuildError::Empty)));
    }

    #[test]
    fn duplicate_keys_rejected() {
        assert!(matches!(
            Mphf::build(&[1, 2, 1]),
            Err(BuildError::DuplicateKey(1))
        ));
    }

    #[test]
    fn foreign_keys_mostly_rejected() {
        let keys: Vec<u64> = (0..4_096).map(|i| 0x0a00_0000 + i).collect();
        let f = Mphf::build(&keys).unwrap();
        let foreign: Vec<u64> = (0..4_096u64).map(|i| 0xdead_0000_0000 + i).collect();
        let accepted = foreign.iter().filter(|k| f.index(k).is_some()).count();
        // Expected false-accept rate 1/256; allow generous slack.
        assert!(
            accepted < foreign.len() / 32,
            "too many foreign keys accepted: {accepted}"
        );
    }

    #[test]
    fn unchecked_index_in_range_for_any_key() {
        let keys: Vec<u64> = (0..1_000).map(|i| i * 7 + 3).collect();
        let f = Mphf::build(&keys).unwrap();
        for k in 0..100_000u64 {
            assert!(f.index_unchecked(&k) < keys.len());
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let keys: Vec<u64> = (0..2_000).map(|i| i * 31 + 7).collect();
        let a = Mphf::build(&keys).unwrap();
        let b = Mphf::build(&keys).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn metadata_is_compact() {
        let keys: Vec<u64> = (0..100_000).map(|i| 0x0a00_0000 + i).collect();
        let f = Mphf::build(&keys).unwrap();
        // Displacement metadata should be within ~2x of the paper's
        // 2.1 bits/key figure (we use u32 displacements for simplicity).
        assert!(
            f.metadata_bits_per_key() <= 16.0,
            "bits/key = {}",
            f.metadata_bits_per_key()
        );
        // And the full footprint must stay far below the bit-array size.
        assert!(f.metadata_bytes() < 100_000 * 4);
    }
}
