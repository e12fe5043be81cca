//! A fixed-size bit array — the paper's "set of pointers".
//!
//! Each slot of the hierarchical data structure is one of these: `n` bits,
//! one per end-host, indexed by the minimal perfect hash of the destination
//! address (§4.1.2: "expresses a 4-byte IP address with 1 bit").

use telemetry::frame::{Dec, Enc, Wire, WireError};

/// Fixed-capacity bit array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    nbits: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// All-zero bit set of `nbits` bits.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            nbits,
            words: vec![0; nbits.div_ceil(64)],
        }
    }

    /// Capacity in bits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.nbits, "bit {i} out of range {}", self.nbits);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Tests bit `i`.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Clears all bits (slot recycling).
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub(crate) fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "bit set size mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The intersection `self ∧ other` as a new set (directory-shard
    /// masking: restrict a pointer set to the slots one shard owns).
    pub(crate) fn intersect(&self, other: &BitSet) -> BitSet {
        assert_eq!(self.nbits, other.nbits, "bit set size mismatch");
        BitSet {
            nbits: self.nbits,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// True if every bit of `self` is also set in `other`.
    #[cfg(test)]
    pub(crate) fn is_subset_of(&self, other: &BitSet) -> bool {
        assert_eq!(self.nbits, other.nbits, "bit set size mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates indices of set bits in ascending order.
    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let tz = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + tz)
            })
        })
    }

    /// Storage footprint in bytes (the S term of the paper's memory and
    /// bandwidth accounting).
    #[cfg(test)]
    pub(crate) fn storage_bytes(&self) -> usize {
        self.nbits.div_ceil(8)
    }

    /// Rebuilds a bit set from its capacity and backing words (what its
    /// `Wire` impl writes), taking ownership of the vec
    /// so the decoder's words are not copied. `words` beyond the capacity
    /// are truncated; missing words are zero-filled, so any (nbits,
    /// words) pair yields a well-formed set.
    pub fn from_word_vec(nbits: usize, mut words: Vec<u64>) -> Self {
        let n_words = nbits.div_ceil(64);
        words.resize(n_words, 0);
        // Mask stray bits above the capacity in the last word so equality
        // with a natively built set holds.
        if n_words > 0 && !nbits.is_multiple_of(64) {
            words[n_words - 1] &= (1u64 << (nbits % 64)) - 1;
        }
        BitSet { nbits, words }
    }
}

/// The plain word form, `capacity | words…` with the word count implied
/// by the capacity — how replication ships pointer slots. (The query
/// path's union-slice reply run-length packs instead; `wireplane` owns
/// that form beside the frame that carries it.)
impl Wire for BitSet {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(self.nbits);
        for w in &self.words {
            e.put_u64(*w);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let nbits = d.get_usize()?;
        let n_words = nbits.div_ceil(64);
        // Bound the allocation by the bytes actually present: a corrupt
        // capacity cannot OOM the decoder.
        if n_words
            .checked_mul(8)
            .map(|need| need > d.remaining())
            .unwrap_or(true)
        {
            return Err(WireError::Truncated {
                needed: n_words.saturating_mul(8),
                have: d.remaining(),
            });
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(d.get_u64()?);
        }
        Ok(BitSet::from_word_vec(nbits, words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_clear() {
        let mut b = BitSet::new(130);
        assert!(b.is_empty());
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.test(0) && b.test(63) && b.test(64) && b.test(129));
        assert!(!b.test(1) && !b.test(128));
        assert_eq!(b.count(), 4);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = BitSet::new(200);
        for i in [3, 64, 65, 199] {
            b.set(i);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 64, 65, 199]);
    }

    #[test]
    fn union_and_subset() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.set(1);
        a.set(50);
        b.set(50);
        b.set(99);
        assert!(!a.is_subset_of(&b));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 3);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
    }

    #[test]
    fn storage_accounting() {
        assert_eq!(BitSet::new(100_000).storage_bytes(), 12_500); // paper: 12.5 KB
        assert_eq!(BitSet::new(1_000_000).storage_bytes(), 125_000); // 125 KB
        assert_eq!(BitSet::new(7).storage_bytes(), 1);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn union_size_mismatch_panics() {
        let mut a = BitSet::new(10);
        a.union_with(&BitSet::new(11));
    }
}
