//! One small multiplicative hasher for the maps a query reads on every
//! lookup: the node-keyed maps of a host store and a snapshot, and the
//! request-keyed map a batch coalesces by.
//!
//! Their keys are a few machine words (a [`NodeId`](netsim::packet::NodeId)
//! is one `u32`, a [`QueryRequest`](crate::query::QueryRequest) a handful
//! of integers), where SipHash's setup and finalization cost more than
//! the lookup itself. The hasher is not keyed, so it does not resist keys
//! crafted to collide: node ids come from the topology, and a batch that
//! coalesces requests from outside the process is bounded by the frame
//! size it arrived in.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Folds each word in with the FxHash step (rotate, xor, multiply), and
/// rotates at the end so the low bits a table indexes by come from the
/// product's well-mixed high bits.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

const SEED: u64 = 0xf135_7aea_2e62_a9c5;

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    /// Dense small keys — what node ids are — spread over the low bits a
    /// table of their own size indexes by, so lookups stay one probe.
    #[test]
    fn dense_node_ids_spread_over_the_low_bits() {
        let build = BuildHasherDefault::<KeyHasher>::default();
        let buckets: HashSet<u64> = (0..1024u32).map(|n| build.hash_one(n) & 1023).collect();
        assert!(buckets.len() > 600, "{} of 1024 buckets", buckets.len());
    }
}
