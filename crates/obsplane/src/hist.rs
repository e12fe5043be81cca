//! HDR-style log-bucketed histograms over `u64` samples.
//!
//! ## Bucketing scheme
//!
//! A histogram is parameterised by `grid_bits` *g* (sub-bucket
//! precision). Values below `2^(g+1)` are stored **exactly**: bucket
//! index = value. Above that, a value with binary exponent `e`
//! (`e = 63 - leading_zeros`, so `e ≥ g+1`) lands in one of `2^g`
//! sub-buckets for that exponent, keyed by the top `g` mantissa bits.
//! Each sub-bucket spans `2^(e-g)` consecutive values, so the relative
//! width of any bucket is at most `2^-g` of the values it holds.
//!
//! Quantile extraction returns the **upper edge** of the bucket holding
//! the target rank, which gives a one-sided error bound: for any
//! recorded distribution,
//!
//! ```text
//! true_quantile <= estimate <= true_quantile * (1 + 2^-grid_bits)
//! ```
//!
//! (exact below `2^(g+1)`). The property tests in
//! `tests/obsplane_props.rs` pin this bound against a sorted oracle.
//!
//! Recording is a single `fetch_add` on an atomic bucket (plus atomic
//! count/sum/max upkeep) — `&self`, wait-free, safe to share across
//! worker threads. [`Histogram::snapshot`] reads the buckets without
//! stopping writers; a snapshot taken concurrently with recording sees
//! a monotone prefix (never a torn or lost count once writers quiesce).

use std::sync::atomic::{AtomicU64, Ordering};

/// Default sub-bucket precision: relative quantile error ≤ 2^-6 ≈ 1.6 %.
pub const DEFAULT_GRID_BITS: u32 = 6;

#[inline]
fn bucket_count(grid_bits: u32) -> usize {
    // Exact region: 2^(g+1) buckets. Log region: exponents g+1 ..= 63,
    // each with 2^g sub-buckets. Total = 2^g * (65 - g).
    (1usize << grid_bits) * (65 - grid_bits as usize)
}

#[inline]
fn bucket_index(grid_bits: u32, v: u64) -> usize {
    let exact = 1u64 << (grid_bits + 1);
    if v < exact {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // e >= grid_bits + 1
        let sub = (v >> (e - grid_bits)) as usize - (1usize << grid_bits);
        exact as usize + (e - grid_bits - 1) as usize * (1usize << grid_bits) + sub
    }
}

/// The largest value mapping to bucket `i` (the quantile estimate the
/// snapshot reports for ranks landing in that bucket).
#[inline]
fn bucket_upper(grid_bits: u32, i: usize) -> u64 {
    let exact = 1usize << (grid_bits + 1);
    if i < exact {
        i as u64
    } else {
        let row = (i - exact) / (1usize << grid_bits);
        let sub = (i - exact) % (1usize << grid_bits);
        let e = row as u32 + grid_bits + 1;
        // lower + (width - 1), staged so the top bucket (upper edge
        // u64::MAX) does not overflow.
        let shift = e - grid_bits;
        let lower = ((1u64 << grid_bits) + sub as u64) << shift;
        lower + ((1u64 << shift) - 1)
    }
}

/// A concurrent log-bucketed histogram of `u64` samples (typically
/// nanoseconds). Shared by reference: recording is `&self`.
#[derive(Debug)]
pub struct Histogram {
    grid_bits: u32,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram with the default precision ([`DEFAULT_GRID_BITS`]).
    pub fn new() -> Histogram {
        Histogram::with_grid_bits(DEFAULT_GRID_BITS)
    }

    /// A histogram with `grid_bits` sub-bucket precision (relative
    /// quantile error ≤ `2^-grid_bits`). Clamped to `1..=10`.
    pub fn with_grid_bits(grid_bits: u32) -> Histogram {
        let grid_bits = grid_bits.clamp(1, 10);
        let mut buckets = Vec::with_capacity(bucket_count(grid_bits));
        buckets.resize_with(bucket_count(grid_bits), || AtomicU64::new(0));
        Histogram {
            grid_bits,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The configured sub-bucket precision.
    pub fn grid_bits(&self) -> u32 {
        self.grid_bits
    }

    /// Records one sample. Wait-free; `&self`.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(self.grid_bits, v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a `Duration` as whole nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Captures a mergeable point-in-time view. Does not block writers;
    /// the per-bucket counts are a consistent-enough monotone read (the
    /// reported `count` is recomputed from the buckets so it always
    /// equals their sum).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = Vec::new();
        let mut total = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                counts.push((i as u32, n));
                total += n;
            }
        }
        HistogramSnapshot {
            grid_bits: self.grid_bits,
            counts,
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// An immutable, mergeable view of a [`Histogram`]: sparse
/// `(bucket index, count)` pairs sorted by index, plus count/sum/max.
/// This is the unit that crosses the wire in `Frame::StatsScrapeRep`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Sub-bucket precision of the source histogram.
    pub grid_bits: u32,
    /// Sparse non-zero buckets, ascending by index.
    pub counts: Vec<(u32, u64)>,
    /// Total samples (always the sum of `counts`).
    pub count: u64,
    /// Sum of all recorded values (mean = `sum / count`).
    pub sum: u64,
    /// Exact maximum recorded value (not bucket-rounded).
    pub max: u64,
}

impl HistogramSnapshot {
    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The estimated `q`-quantile (`0.0 ..= 1.0`) as the upper edge of
    /// the bucket holding the target rank — so the estimate is ≥ the
    /// true quantile and within a `2^-grid_bits` relative factor above
    /// it. Returns 0 for an empty snapshot. The exact `max` is reported
    /// for `q = 1.0` (tighter than the top bucket's edge).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q.max(0.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, n) in &self.counts {
            cum += n;
            if cum >= rank {
                return bucket_upper(self.grid_bits, i as usize).min(self.max);
            }
        }
        self.max
    }

    /// The `{p50, p95, p99, max}` summary drivers print.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            count: self.count,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }

    /// Folds `other` into `self`. Merging is associative and
    /// commutative, and merging N snapshots equals recording all their
    /// samples into one histogram (pinned by `tests/obsplane_props.rs`).
    ///
    /// # Panics
    ///
    /// When the two snapshots disagree on `grid_bits` (their buckets
    /// are not alignable) — a registry-naming bug, not a data state.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.grid_bits, other.grid_bits,
            "cannot merge histograms with different grid_bits"
        );
        let mut merged = Vec::with_capacity(self.counts.len() + other.counts.len());
        let (mut a, mut b) = (
            self.counts.iter().peekable(),
            other.counts.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, nb));
                        b.next();
                    } else {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.counts = merged;
        self.count += other.count;
        // Wrapping, exactly like the histogram's atomic accumulation —
        // saturation would break merge associativity once a sum pegged.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A `{count, p50, p95, p99, max}` latency summary (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles {
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let h = Histogram::with_grid_bits(4);
        for v in 0..32 {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..32u64 {
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(s.quantile(q), v);
        }
    }

    #[test]
    fn bucket_roundtrip_bounds() {
        for g in 1..=8u32 {
            for &v in &[0u64, 1, 5, 127, 128, 1000, 65_535, 1 << 30, u64::MAX] {
                let i = bucket_index(g, v);
                let hi = bucket_upper(g, i);
                assert!(hi >= v, "g={g} v={v}: upper {hi} < value");
                // Upper edge within 2^-g relative error.
                assert!(hi - v <= v >> g, "g={g} v={v} hi={hi}");
                // Upper edge maps back to the same bucket.
                assert_eq!(bucket_index(g, hi), i, "g={g} v={v}");
            }
        }
    }

    #[test]
    fn max_is_exact() {
        let h = Histogram::new();
        h.record(1_000_003);
        h.record(17);
        let s = h.snapshot();
        assert_eq!(s.max, 1_000_003);
        assert_eq!(s.quantile(1.0), 1_000_003);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let h = Histogram::new();
        h.record(42);
        let mut a = h.snapshot();
        let before = a.clone();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, before);
        let mut b = HistogramSnapshot::default();
        b.merge(&before);
        assert_eq!(b, before);
    }
}
