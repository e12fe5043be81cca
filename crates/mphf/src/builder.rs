//! CHD-style (compress-hash-displace) construction of minimal perfect hash
//! functions.
//!
//! Construction outline:
//!
//! 1. Hash every key once; group keys into `ceil(n / λ)` buckets.
//! 2. Process buckets largest-first. For each bucket, search the smallest
//!    displacement `d` such that every key in the bucket lands in a distinct,
//!    currently-free slot of the `n`-slot table.
//! 3. Record `d` per bucket. Lookup recomputes the key's bucket, reads `d`,
//!    and derives the slot — one hash evaluation total.
//!
//! If some bucket exhausts the displacement budget the whole attempt is
//! retried under a different global seed; in practice the first seed almost
//! always succeeds at λ = 4.
//!
//! The paper (§4.1.2) notes construction is "computationally expensive" but
//! run only at coarse time scales by the analyzer; this implementation builds
//! 100K keys in well under a second, and 1M keys in a few seconds.

use crate::hashing::{fingerprint, HashPair};
use crate::{Mphf, LAMBDA};

/// Errors surfaced by [`MphfBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The key set was empty; SwitchPointer always has at least one host.
    Empty,
    /// A duplicate key was found (value attached). The analyzer must
    /// deduplicate the host list before building.
    DuplicateKey(u64),
    /// No seed in the budget produced a perfect placement. With default
    /// parameters this indicates an astronomically unlucky key set or a
    /// logic error, so it is surfaced rather than looping forever.
    SeedsExhausted,
    /// More than 2^20 keys: the packed-displacement format bounds the key
    /// set at ~1M (the paper's largest configuration).
    TooManyKeys(usize),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Empty => write!(f, "cannot build an MPHF over an empty key set"),
            BuildError::DuplicateKey(k) => write!(f, "duplicate key in MPHF input: {k:#x}"),
            BuildError::SeedsExhausted => {
                write!(f, "MPHF construction failed for every candidate seed")
            }
            BuildError::TooManyKeys(n) => {
                write!(f, "key set of {n} exceeds the 2^20 maximum")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Configurable builder. The defaults match the footprint targets discussed
/// in DESIGN.md; they rarely need tuning.
#[derive(Debug, Clone)]
pub struct MphfBuilder {
    /// Maximum `d1` (pattern re-randomization) component probed per bucket
    /// before declaring the seed failed. Each `d1` is combined with every
    /// currently-free rotation, so the effective probe budget per bucket is
    /// `max_d1 × free_slots`.
    max_d1: u32,
    /// Number of global seeds tried before giving up.
    max_seeds: u64,
    /// Average keys per bucket (λ).
    lambda: usize,
}

impl Default for MphfBuilder {
    fn default() -> Self {
        MphfBuilder {
            max_d1: 4_096,
            max_seeds: 64,
            lambda: LAMBDA,
        }
    }
}

impl MphfBuilder {
    /// A builder with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the average bucket load λ (mostly for tests: larger λ
    /// stresses the displacement search).
    pub fn lambda(mut self, lambda: usize) -> Self {
        assert!(lambda >= 1, "lambda must be >= 1");
        self.lambda = lambda;
        self
    }

    /// Builds the MPHF over `keys`.
    pub fn build(&self, keys: &[u64]) -> Result<Mphf, BuildError> {
        if keys.is_empty() {
            return Err(BuildError::Empty);
        }
        if keys.len() > (1 << HashPair::D2_BITS) {
            return Err(BuildError::TooManyKeys(keys.len()));
        }
        check_duplicates(keys)?;

        for seed_attempt in 0..self.max_seeds {
            // Fixed seed schedule => deterministic output for a key set.
            let seed = crate::hashing::mix64(0x5eed_0000_0000_0000 ^ seed_attempt);
            if let Some(m) = self.try_seed(keys, seed) {
                return Ok(m);
            }
        }
        Err(BuildError::SeedsExhausted)
    }

    fn try_seed(&self, keys: &[u64], seed: u64) -> Option<Mphf> {
        let n = keys.len();
        let num_buckets = n.div_ceil(self.lambda);

        // The packed displacement reserves 12 bits for d1.
        let max_d1 = self.max_d1.min(1 << (32 - HashPair::D2_BITS));

        // Group key hashes by bucket.
        let mut buckets: Vec<Vec<HashPair>> = vec![Vec::new(); num_buckets];
        for &k in keys {
            let hp = HashPair::new(k, seed);
            buckets[hp.bucket(num_buckets)].push(hp);
        }

        // Canonical intra-bucket order: construction must not depend on
        // the order the analyzer enumerated the hosts in.
        for b in &mut buckets {
            b.sort_by_key(|hp| hp.sort_key());
        }

        // Largest buckets first: they have the fewest valid displacements,
        // so placing them while the table is empty maximizes success.
        let mut order: Vec<usize> = (0..num_buckets).collect();
        order.sort_by_key(|&b| std::cmp::Reverse(buckets[b].len()));

        let mut occupied = vec![false; n];
        let mut free = FreeSet::new(n);
        let mut displacements = vec![0u32; num_buckets];
        let mut base: Vec<usize> = Vec::with_capacity(self.lambda * 4);

        for &b in &order {
            let bucket = &buckets[b];
            if bucket.is_empty() {
                continue;
            }
            let mut placed: Option<u32> = None;
            'd1: for d1 in 0..max_d1 {
                // Base pattern for this d1; all members must land on
                // pairwise-distinct slots or no rotation can separate them.
                base.clear();
                for hp in bucket {
                    let s = hp.base_slot(d1, n);
                    if base.contains(&s) {
                        continue 'd1;
                    }
                    base.push(s);
                }
                // Align the pattern's first slot with each free slot in turn.
                for idx in 0..free.len() {
                    let f = free.get(idx);
                    let d2 = (f + n - base[0]) % n;
                    if base[1..].iter().all(|&s| !occupied[(s + d2) % n]) {
                        placed = Some(HashPair::pack_displacement(d1, d2));
                        for &s in &base {
                            let slot = (s + d2) % n;
                            occupied[slot] = true;
                            free.remove(slot);
                        }
                        break 'd1;
                    }
                }
            }
            match placed {
                Some(d) => displacements[b] = d,
                None => return None,
            }
        }

        // All slots must be filled: buckets partition the keys and each key
        // claimed a distinct slot, so with n keys the table is full.
        debug_assert!(occupied.iter().all(|&o| o));

        let mut fingerprints = vec![0u8; n];
        for &k in keys {
            let hp = HashPair::new(k, seed);
            let d = displacements[hp.bucket(num_buckets)];
            fingerprints[hp.slot(d, n)] = fingerprint(k, seed);
        }

        Some(Mphf::from_parts(n, seed, displacements, fingerprints))
    }
}

/// A set over `0..n` with O(1) remove and stable indexed iteration
/// (swap-remove backed), used to enumerate free slots during placement.
struct FreeSet {
    items: Vec<u32>,
    pos: Vec<u32>,
}

impl FreeSet {
    fn new(n: usize) -> Self {
        FreeSet {
            items: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn get(&self, idx: usize) -> usize {
        self.items[idx] as usize
    }

    fn remove(&mut self, slot: usize) {
        let p = self.pos[slot] as usize;
        debug_assert_eq!(self.items[p] as usize, slot, "slot already removed");
        let last = *self.items.last().unwrap();
        self.items.swap_remove(p);
        if p < self.items.len() {
            self.pos[last as usize] = p as u32;
        }
    }
}

fn check_duplicates(keys: &[u64]) -> Result<(), BuildError> {
    let mut sorted: Vec<u64> = keys.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return Err(BuildError::DuplicateKey(w[0]));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_builds() {
        let keys: Vec<u64> = (0..777).map(|i| i * 13 + 5).collect();
        let m = MphfBuilder::new().build(&keys).unwrap();
        assert_eq!(m.len(), 777);
    }

    #[test]
    fn large_lambda_still_succeeds() {
        let keys: Vec<u64> = (0..512).map(|i| i * 977).collect();
        let m = MphfBuilder::new().lambda(8).build(&keys).unwrap();
        // Fewer buckets => less metadata: 64 displacements, not 128.
        assert_eq!(m.metadata_bytes(), 64 * 4 + 512 + 16);
        let mut seen = vec![false; keys.len()];
        for k in &keys {
            let i = m.index(k).unwrap();
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn duplicate_detection_finds_value() {
        let err = MphfBuilder::new().build(&[5, 9, 5, 3]).unwrap_err();
        assert_eq!(err, BuildError::DuplicateKey(5));
    }

    #[test]
    fn error_display_strings() {
        assert!(BuildError::Empty.to_string().contains("empty"));
        assert!(BuildError::DuplicateKey(16).to_string().contains("0x10"));
        assert!(BuildError::SeedsExhausted.to_string().contains("seed"));
    }
}
