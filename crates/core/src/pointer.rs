//! The hierarchical pointer data structure (§4.1.1) and its line-rate
//! update path (§4.1.2).
//!
//! A switch divides its local time into epochs of α ms and maintains `k`
//! levels of pointer sets:
//!
//! * level `h` (1 ≤ h ≤ k−1) holds α slots; one slot at level `h` covers
//!   α^(h−1) consecutive epochs (= α^h ms);
//! * the top level holds a single slot covering α^(k−1) epochs (= α^k ms),
//!   pushed to the control plane when it rotates.
//!
//! Every slot is an n-bit [`BitSet`] indexed by the shared minimal perfect
//! hash of the packet's destination address, so a packet costs **one hash
//! evaluation plus k bit writes** regardless of k. Rotation is lazy: a slot
//! whose period label is stale is cleared on first touch, which models the
//! control-plane agent's register-rotation described in the paper without
//! needing per-epoch timers.
//!
//! The deliberate redundancy between levels (a level-(h+1) slot covers the
//! same wall-clock span as all α level-h slots) is what buys the
//! memory/bandwidth trade-off of Fig. 10 — both accounted for by
//! [`PointerConfig::memory_bytes`] and [`PointerConfig::flush_bandwidth_bps`].

use std::borrow::Borrow;
use std::sync::Arc;

use mphf::Mphf;
use telemetry::frame::{Dec, Enc, Wire, WireError};

use crate::bitset::BitSet;

/// Sizing parameters of a switch's pointer hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerConfig {
    /// Maximum number of end-hosts (n): bits per slot.
    pub n_hosts: usize,
    /// α — both the number of slots per level and the epoch duration in ms
    /// (the paper couples the two).
    pub alpha: u32,
    /// k — number of levels.
    pub k: usize,
}

/// A [`PointerConfig`] whose capacity math does not fit the u64 epoch
/// arithmetic. Deep hierarchies with large α overflow `α^(h−1)` (slot
/// spans) or `α·(α^h − 1)` (recycling periods); these used to be a
/// debug-build-only panic (and a silent wraparound in release) — now they
/// are a typed construction error surfaced by `PointerConfig::validate`
/// and `PointerHierarchy::try_new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PointerConfigError {
    /// Need k ≥ 1 levels.
    NoLevels,
    /// Need α ≥ 2 (α = 1 would make every level span one epoch).
    AlphaTooSmall,
    /// `α^(h−1)` (the span of one level-`h` slot, in epochs) overflows u64.
    SpanOverflow { level: usize },
    /// `α·(α^h − 1)` (the level-`h` pointer recycling period, in ms)
    /// overflows u64.
    RecyclingOverflow { level: usize },
}

impl std::fmt::Display for PointerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointerConfigError::NoLevels => write!(f, "need at least one level"),
            PointerConfigError::AlphaTooSmall => write!(f, "alpha must be >= 2"),
            PointerConfigError::SpanOverflow { level } => {
                write!(
                    f,
                    "alpha^{} (span of level {level}) overflows u64",
                    level - 1
                )
            }
            PointerConfigError::RecyclingOverflow { level } => {
                write!(
                    f,
                    "alpha*(alpha^{level} - 1) (recycling period of level {level}) overflows u64"
                )
            }
        }
    }
}

impl std::error::Error for PointerConfigError {}

impl PointerConfig {
    /// The paper's running configuration: α = 10, k = 3.
    #[cfg(test)]
    pub(crate) fn paper_defaults(n_hosts: usize) -> Self {
        PointerConfig {
            n_hosts,
            alpha: 10,
            k: 3,
        }
    }

    /// Checks every level's capacity math with checked arithmetic. A config
    /// that passes cannot overflow in [`PointerConfig::span_epochs`] or
    /// [`PointerConfig::recycling_period_ms`].
    pub(crate) fn validate(&self) -> Result<(), PointerConfigError> {
        if self.k < 1 {
            return Err(PointerConfigError::NoLevels);
        }
        if self.alpha < 2 {
            return Err(PointerConfigError::AlphaTooSmall);
        }
        for h in 1..=self.k {
            self.checked_span_epochs(h)
                .ok_or(PointerConfigError::SpanOverflow { level: h })?;
        }
        for h in 1..self.k {
            self.checked_recycling_period_ms(h)
                .ok_or(PointerConfigError::RecyclingOverflow { level: h })?;
        }
        Ok(())
    }

    /// `α^(h−1)` with overflow reported as `None` instead of a panic.
    fn checked_span_epochs(&self, h: usize) -> Option<u64> {
        (self.alpha as u64).checked_pow(h as u32 - 1)
    }

    /// `α·(α^h − 1)` with overflow reported as `None` instead of a panic.
    fn checked_recycling_period_ms(&self, h: usize) -> Option<u64> {
        (self.alpha as u64)
            .checked_pow(h as u32)?
            .checked_sub(1)?
            .checked_mul(self.alpha as u64)
    }

    /// Epochs covered by one slot at 1-based level `h`.
    pub(crate) fn span_epochs(&self, h: usize) -> u64 {
        debug_assert!(h >= 1 && h <= self.k);
        self.checked_span_epochs(h)
            .expect("PointerConfig validated: alpha^(h-1) must fit u64")
    }

    /// Number of slots at level `h` (α everywhere except the single-slot
    /// top level).
    pub(crate) fn slots_at(&self, h: usize) -> usize {
        if h == self.k {
            // Top level (and the k = 1 degenerate case) has a single slot.
            1
        } else {
            self.alpha as usize
        }
    }

    /// Data-plane memory for the pointer sets: `α·(k−1)·S + S` with
    /// `S = ⌈n/8⌉` bytes (Fig. 10a, excluding the MPHF metadata which
    /// [`PointerHierarchy::memory_bytes`] adds).
    pub fn memory_bytes(&self) -> usize {
        let s = self.n_hosts.div_ceil(8);
        self.alpha as usize * (self.k - 1) * s + s
    }

    /// Control-plane flush bandwidth: the top slot (S bits) every α^k ms,
    /// i.e. `S × (10^3 / α^k)` bits per second (Fig. 10b).
    pub fn flush_bandwidth_bps(&self) -> f64 {
        let s_bits = self.n_hosts as f64; // S in bits
        s_bits * 1_000.0 / (self.alpha as f64).powi(self.k as i32)
    }

    /// Pointer recycling period at level `h < k`: `α(α^h − 1)` ms (Fig. 11):
    /// the time between a slot being overwritten and the same slot becoming
    /// current again.
    pub fn recycling_period_ms(&self, h: usize) -> u64 {
        debug_assert!(h >= 1 && h < self.k);
        self.checked_recycling_period_ms(h)
            .expect("PointerConfig validated: alpha*(alpha^h - 1) must fit u64")
    }
}

/// One slot: the period index it currently holds plus the bit array.
/// Opaque outside this module; public only because it names how a
/// hierarchy holds its slots ([`PointerHierarchy`]'s type parameter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Which period (epoch / span) this slot's bits belong to; None = never
    /// written.
    period: Option<u64>,
    bits: BitSet,
    /// Hierarchy version at which this slot was last mutated (bit write,
    /// clear, or period relabel). Shadow bookkeeping for incremental
    /// snapshot refresh — not part of the modelled data-plane cost.
    touched: u64,
}

/// A flushed top-level pointer set retained by the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchivedPointer {
    /// Top-level period index (epoch / α^(k−1)).
    pub period: u64,
    pub(crate) bits: BitSet,
}

/// Everything that changed in a [`PointerHierarchy`] since a recorded
/// baseline `(version, archive length)` — enough to bring a clone taken at
/// the baseline back to full equality with the live hierarchy via
/// [`PointerHierarchy::apply_patch`]. Internals are private; consumers see
/// only the copy-work counters.
#[derive(Debug, Clone)]
pub struct PointerPatch {
    version: u64,
    /// `(level-1, slot index, slot contents)` for every slot mutated after
    /// the baseline version — the one copy a refresh makes of them:
    /// applying the patch puts these very `Arc`s into the frozen
    /// hierarchy.
    slots: Vec<(usize, usize, Arc<Slot>)>,
    /// Archive entries appended after the baseline *logical* length
    /// (append-only modulo the retired prefix) and still resident.
    archive_tail: Vec<Arc<ArchivedPointer>>,
    /// The live hierarchy's retired-prefix count at patch time: applying
    /// the patch drops the same prefix from the clone's resident archive
    /// before appending the tail (retention sweeps stay delta-expressible).
    archive_retired: usize,
    flushed_bits: u64,
    updates: u64,
    unknown_dsts: u64,
    cached_epoch: Option<u64>,
    cached_slots: Vec<usize>,
}

impl PointerPatch {
    /// Slot bit-sets this patch carries (live slots + archived sets) — the
    /// incremental-refresh copy-work metric: exactly these are replaced in
    /// a patched [`FrozenHierarchy`], every other slot stays shared with
    /// the clone it was patched from ([`FrozenHierarchy::unshared_slots`]).
    /// A freeze copies every live slot.
    pub fn copied_slots(&self) -> usize {
        self.slots.len() + self.archive_tail.len()
    }
}

/// A switch's full pointer state, in one of two holdings of its slots.
///
/// The live hierarchy a switch updates is `PointerHierarchy` (slots held
/// inline, `S = Slot`): the per-packet path writes them in place, and a
/// `clone` copies them. What a snapshot holds is a [`FrozenHierarchy`]
/// (`S = Arc<Slot>`): it has no update path at all, so nothing behind an
/// `Arc` is ever written; its `clone` is k·α refcount bumps, and
/// [`FrozenHierarchy::apply_patch`] replaces only the slots a patch names.
/// Reads, equality, `Debug` and the wire form are the same code for both.
/// Archived sets are immutable once flushed and sit behind `Arc`s in both.
#[derive(Debug, Clone)]
pub struct PointerHierarchy<S = Slot> {
    cfg: PointerConfig,
    mphf: Arc<Mphf>,
    /// `levels[h-1]` = slots of level `h`.
    levels: Vec<Vec<S>>,
    /// Top-level sets flushed to the control plane (push model, §4.1.1).
    /// Sorted ascending by period (rotation refuses to go backward), so a
    /// retention sweep always removes a prefix.
    archive: Vec<Arc<ArchivedPointer>>,
    /// Archived sets retired by retention sweeps — the count of entries
    /// ever removed from the front of `archive`. The archive is logically
    /// append-only with a monotone retired prefix; snapshot baselines and
    /// patches index it logically so incremental refresh survives GC.
    archive_retired: usize,
    /// Precomputed `span_epochs(h)` per level (hot path).
    spans: Vec<u64>,
    /// Epoch the cached slot indices are valid for. Rotation work runs once
    /// per epoch change (the paper's control-plane agent updating the
    /// next-pointer register every α^h ms), keeping the per-packet cost at
    /// one hash + k bit writes.
    cached_epoch: Option<u64>,
    /// Current slot index per level; `usize::MAX` = skip (stale epoch).
    cached_slots: Vec<usize>,
    /// Monotone mutation counter: bumps once per state-changing call
    /// (update, unchecked update). Baselines recorded against it let an
    /// incremental snapshot ask "what changed since?" without scanning.
    version: u64,
    /// Total bits pushed data-plane → control-plane (bandwidth accounting).
    pub flushed_bits: u64,
    /// Packets processed.
    pub(crate) updates: u64,
    /// Packets whose destination was not in the MPHF key set.
    pub(crate) unknown_dsts: u64,
}

/// The slot behind either holding (pins `Borrow`'s target, which a bare
/// `.borrow()` leaves to inference).
fn slot_of<S: Borrow<Slot>>(held: &S) -> &Slot {
    held.borrow()
}

/// A hierarchy as a snapshot holds it: slots behind `Arc`s, shared with
/// every clone until a patch replaces them, and no way to update one.
pub type FrozenHierarchy = PointerHierarchy<Arc<Slot>>;

impl PointerHierarchy {
    /// Creates the hierarchy. The MPHF must be built over (at least) the
    /// addresses that will be updated; `cfg.n_hosts` must equal its range.
    /// Panics on an invalid config; use `PointerHierarchy::try_new` for
    /// the typed-error path.
    pub fn new(cfg: PointerConfig, mphf: Arc<Mphf>) -> Self {
        match Self::try_new(cfg, mphf) {
            Ok(h) => h,
            Err(e) => panic!("invalid pointer config: {e}"),
        }
    }

    /// Fallible constructor: rejects configs whose capacity math overflows
    /// (deep hierarchies with large α) with a typed [`PointerConfigError`]
    /// instead of a debug-build panic deep inside the epoch arithmetic.
    pub(crate) fn try_new(cfg: PointerConfig, mphf: Arc<Mphf>) -> Result<Self, PointerConfigError> {
        cfg.validate()?;
        assert_eq!(
            cfg.n_hosts,
            mphf.len(),
            "bit-array size must match the MPHF range"
        );
        let levels = (1..=cfg.k)
            .map(|h| {
                (0..cfg.slots_at(h))
                    .map(|_| Slot {
                        period: None,
                        bits: BitSet::new(cfg.n_hosts),
                        touched: 0,
                    })
                    .collect()
            })
            .collect();
        Ok(PointerHierarchy {
            spans: (1..=cfg.k).map(|h| cfg.span_epochs(h)).collect(),
            cached_epoch: None,
            cached_slots: vec![usize::MAX; cfg.k],
            version: 0,
            cfg,
            mphf,
            levels,
            archive: Vec::new(),
            archive_retired: 0,
            flushed_bits: 0,
            updates: 0,
            unknown_dsts: 0,
        })
    }

    /// Ensures the slot covering `epoch` at level `h` is labelled with the
    /// current period, recycling (and for the top level, flushing) stale
    /// contents. Returns the slot index, or `usize::MAX` when the slot
    /// holds a *newer* period (out-of-order epoch — never clear forward
    /// state for a late packet).
    fn rotate(&mut self, h: usize, epoch: u64) -> usize {
        let span = self.spans[h - 1];
        let period = epoch / span;
        let idx = self.slot_index(h, period);
        let is_top = h == self.cfg.k;
        let version = self.version;
        let slot = &mut self.levels[h - 1][idx];
        if slot.period != Some(period) {
            if let Some(p) = slot.period {
                if p > period {
                    return usize::MAX;
                }
            }
            if is_top && slot.period.is_some() && !slot.bits.is_empty() {
                // Push the completed top-level set to persistent storage.
                self.flushed_bits += self.cfg.n_hosts as u64;
                let archived = ArchivedPointer {
                    period: slot.period.unwrap(),
                    bits: slot.bits.clone(),
                };
                slot.bits.clear();
                slot.period = Some(period);
                slot.touched = version;
                self.archive.push(Arc::new(archived));
                return idx;
            }
            slot.bits.clear();
            slot.period = Some(period);
            slot.touched = version;
        }
        idx
    }

    /// Recomputes the per-level slot cache for `epoch`. This is the
    /// once-per-epoch control-plane work; the per-packet path only checks
    /// the cached epoch.
    #[cold]
    fn refresh_slots(&mut self, epoch: u64) {
        for h in 1..=self.cfg.k {
            self.cached_slots[h - 1] = self.rotate(h, epoch);
        }
        self.cached_epoch = Some(epoch);
    }

    #[inline]
    fn set_all_levels(&mut self, bit: usize, epoch: u64) {
        if self.cached_epoch != Some(epoch) {
            self.refresh_slots(epoch);
        }
        let version = self.version;
        for (level, &idx) in self.levels.iter_mut().zip(&self.cached_slots) {
            if idx != usize::MAX {
                let slot = &mut level[idx];
                slot.bits.set(bit);
                slot.touched = version;
            }
        }
    }

    /// Records that a packet destined to `dst_addr` was forwarded during
    /// `epoch`. One hash; k bit writes.
    pub fn update(&mut self, dst_addr: u64, epoch: u64) {
        self.version += 1;
        self.updates += 1;
        let Some(bit) = self.mphf.index(&dst_addr) else {
            self.unknown_dsts += 1;
            return;
        };
        self.set_all_levels(bit, epoch);
    }

    /// The data-plane fast-path variant used by the Fig. 9 pipeline: skips
    /// the membership fingerprint check, exactly one hash evaluation.
    #[inline]
    pub(crate) fn update_unchecked(&mut self, dst_addr: u64, epoch: u64) {
        self.version += 1;
        self.updates += 1;
        let bit = self.mphf.index_unchecked(&dst_addr);
        self.set_all_levels(bit, epoch);
    }

    /// Retention: retires flushed top-level pointer sets whose covered
    /// epochs all predate `floor_epoch`. An archived period `p` spans
    /// epochs `[p·α^(k−1), (p+1)·α^(k−1))` (the checked
    /// `PointerConfig::span_epochs`); it is retired iff
    /// `(p+1)·span ≤ floor_epoch`, so epochs at or above the floor stay
    /// answerable. The archive is sorted by period, hence retirement
    /// removes a prefix that is folded into the logical indexing the
    /// incremental-snapshot baselines use. Returns how many sets were
    /// retired (0 ⇒ no state change, no version bump).
    pub fn retire_archive_before(&mut self, floor_epoch: u64) -> usize {
        let span = self.spans[self.cfg.k - 1];
        let n = self
            .archive
            .iter()
            .take_while(|a| {
                a.period
                    .checked_add(1)
                    .and_then(|p| p.checked_mul(span))
                    .map(|end| end <= floor_epoch)
                    .unwrap_or(false)
            })
            .count();
        if n > 0 {
            self.archive.drain(..n);
            self.archive_retired += n;
            self.version += 1;
        }
        n
    }

    /// Everything that changed since the `(version, logical archive
    /// length)` baseline, or `None` when nothing did. Applying the
    /// returned patch to a clone taken at the baseline makes it equal
    /// (`==`) to `self` — including across retention sweeps, which the
    /// patch expresses as a retired-prefix count rather than forcing a
    /// full re-clone.
    pub fn delta_since(&self, version: u64, archive_len: usize) -> Option<PointerPatch> {
        if self.version == version && self.archive_logical_len() == archive_len {
            return None;
        }
        debug_assert!(
            archive_len <= self.archive_logical_len(),
            "logical archive length is monotone (append-only modulo the retired prefix)"
        );
        let mut slots = Vec::new();
        for (li, level) in self.levels.iter().enumerate() {
            for (si, slot) in level.iter().enumerate() {
                if slot.touched > version {
                    slots.push((li, si, Arc::new(slot.clone())));
                }
            }
        }
        // Resident entries appended after the baseline. Entries appended
        // after the baseline but already retired again are simply absent —
        // the applier's prefix drop covers them.
        let tail_from = archive_len.saturating_sub(self.archive_retired);
        Some(PointerPatch {
            version: self.version,
            slots,
            archive_tail: self.archive[tail_from..].to_vec(),
            archive_retired: self.archive_retired,
            flushed_bits: self.flushed_bits,
            updates: self.updates,
            unknown_dsts: self.unknown_dsts,
            cached_epoch: self.cached_epoch,
            cached_slots: self.cached_slots.clone(),
        })
    }

    /// The frozen form of the current state: every slot copied once into
    /// an `Arc` (archived sets are shared as they are). `==` to `self`.
    pub fn freeze(&self) -> FrozenHierarchy {
        PointerHierarchy {
            cfg: self.cfg,
            mphf: Arc::clone(&self.mphf),
            levels: self
                .levels
                .iter()
                .map(|level| level.iter().cloned().map(Arc::new).collect())
                .collect(),
            archive: self.archive.clone(),
            archive_retired: self.archive_retired,
            spans: self.spans.clone(),
            cached_epoch: self.cached_epoch,
            cached_slots: self.cached_slots.clone(),
            version: self.version,
            flushed_bits: self.flushed_bits,
            updates: self.updates,
            unknown_dsts: self.unknown_dsts,
        }
    }
}

impl<S: Borrow<Slot>> PointerHierarchy<S> {
    /// The sizing configuration.
    pub fn config(&self) -> PointerConfig {
        self.cfg
    }

    /// The shared hash function.
    pub fn mphf(&self) -> &Arc<Mphf> {
        &self.mphf
    }

    fn slot_index(&self, h: usize, period: u64) -> usize {
        if h == self.cfg.k {
            0
        } else {
            (period % self.cfg.alpha as u64) as usize
        }
    }

    /// The slot at `idx` of 1-based level `h`.
    fn slot(&self, h: usize, idx: usize) -> &Slot {
        slot_of(&self.levels[h - 1][idx])
    }

    /// Was a packet to `dst_addr` forwarded during `epoch`, as far as the
    /// live hierarchy remembers? Checks the finest live level covering the
    /// epoch. Never false-negative while the epoch is within retention.
    pub fn contains(&self, dst_addr: u64, epoch: u64) -> bool {
        let Some(bit) = self.mphf.index(&dst_addr) else {
            return false;
        };
        self.pointer_for(epoch)
            .map(|b| b.test(bit))
            .unwrap_or(false)
    }

    /// Membership using only pointer sets that aggregate at most `max_span`
    /// epochs. Returns `None` when no sufficiently fine live set covers the
    /// epoch (the caller may then fall back to [`PointerHierarchy::contains`],
    /// accepting coarser resolution and hence possible false positives).
    pub fn contains_within(&self, dst_addr: u64, epoch: u64, max_span: u64) -> Option<bool> {
        let bit = self.mphf.index(&dst_addr)?;
        for h in 1..=self.cfg.k {
            let span = self.cfg.span_epochs(h);
            if span > max_span {
                break;
            }
            let period = epoch / span;
            let slot = self.slot(h, self.slot_index(h, period));
            if slot.period == Some(period) {
                return Some(slot.bits.test(bit));
            }
        }
        None
    }

    /// Was a packet to `dst_addr` recorded at *exact* (level-1) resolution
    /// in any epoch of `[lo, hi]`? Bit-identical to
    /// `(lo..=hi).any(|e| contains_within(dst_addr, e, 1) == Some(true))`,
    /// but costs one hash plus a scan of the ≤ α level-1 slots — only
    /// their labelled periods can answer, however long the range is.
    pub fn contains_exact_in(&self, dst_addr: u64, lo: u64, hi: u64) -> bool {
        let Some(bit) = self.mphf.index(&dst_addr) else {
            return false;
        };
        // The per-epoch probe finds epoch `p` only in the slot `p` maps
        // to; rotation always labels slots that way, but a wire-decoded
        // hierarchy is not trusted to, so the check is kept.
        self.levels[0].iter().enumerate().any(|(idx, slot)| {
            let slot = slot_of(slot);
            slot.period.is_some_and(|p| {
                lo <= p && p <= hi && self.slot_index(1, p) == idx && slot.bits.test(bit)
            })
        })
    }

    /// The finest-grained live pointer set covering `epoch`: level 1 if the
    /// epoch's slot is still live, else level 2, ... else the archive.
    /// Returns the bit set and the number of epochs it aggregates
    /// (diagnosis precision: 1 = exact epoch, larger = coarser, §4.1.1's
    /// "fine-grained view ... for real-time diagnosis").
    pub(crate) fn pointer_for(&self, epoch: u64) -> Option<&BitSet> {
        for h in 1..=self.cfg.k {
            let span = self.cfg.span_epochs(h);
            let period = epoch / span;
            let slot = self.slot(h, self.slot_index(h, period));
            if slot.period == Some(period) {
                return Some(&slot.bits);
            }
        }
        // Fall back to flushed top-level pointers.
        let top_span = self.cfg.span_epochs(self.cfg.k);
        let period = epoch / top_span;
        self.archive
            .iter()
            .find(|a| a.period == period)
            .map(|a| &a.bits)
    }

    /// Epochs aggregated by the set `PointerHierarchy::pointer_for` would
    /// return (1 = exact).
    pub fn resolution_for(&self, epoch: u64) -> Option<u64> {
        for h in 1..=self.cfg.k {
            let span = self.cfg.span_epochs(h);
            let period = epoch / span;
            if self.slot(h, self.slot_index(h, period)).period == Some(period) {
                return Some(span);
            }
        }
        let top_span = self.cfg.span_epochs(self.cfg.k);
        self.archive
            .iter()
            .any(|a| a.period == epoch / top_span)
            .then_some(top_span)
    }

    /// Union of pointer sets over an inclusive epoch range — what the
    /// analyzer pulls when debugging a window (the Fig. 8 "most recent
    /// 1 sec" pull).
    pub fn pointer_union(&self, lo: u64, hi: u64) -> BitSet {
        let mut acc = BitSet::new(self.cfg.n_hosts);
        let mut e = lo;
        while e <= hi {
            if let Some(bits) = self.pointer_for(e) {
                acc.union_with(bits);
            }
            // Skip to the next epoch not covered by the same slot where
            // possible (resolution_for tells the slot's span).
            let step = self.resolution_for(e).unwrap_or(1);
            let next = (e / step + 1) * step;
            e = next.max(e + 1);
        }
        acc
    }

    /// Flushed top-level pointer sets (offline diagnosis source) still
    /// resident after retention sweeps.
    pub fn archive(&self) -> &[Arc<ArchivedPointer>] {
        &self.archive
    }

    /// Archived sets retired by retention sweeps so far.
    pub fn archive_retired(&self) -> usize {
        self.archive_retired
    }

    /// Logical archive length: resident entries plus everything retired by
    /// retention sweeps. Snapshot baselines record this (not the resident
    /// length) so a sweep between two deltas is never mistaken for fresh
    /// appends.
    pub fn archive_logical_len(&self) -> usize {
        self.archive_retired + self.archive.len()
    }

    /// Total switch SRAM footprint: pointer sets plus MPHF metadata.
    pub fn memory_bytes(&self) -> usize {
        self.cfg.memory_bytes() + self.mphf.metadata_bytes()
    }

    // ---- incremental-snapshot support ------------------------------------

    /// The monotone mutation counter (bumps once per update call).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The most recent epoch an update was applied for, if any — the
    /// hierarchy's view of "now" (snapshot epoch horizons derive from it).
    pub fn last_epoch(&self) -> Option<u64> {
        self.cached_epoch
    }

    /// Live slots plus archived sets — what one full capture holds (the
    /// denominator of the incremental-refresh savings metric).
    pub fn total_slots(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum::<usize>() + self.archive.len()
    }
}

/// Full-state equality (the "bit-identical snapshot" check). The MPHF is
/// compared by identity: clones of one deployment share the `Arc`.
impl<S: Borrow<Slot>, T: Borrow<Slot>> PartialEq<PointerHierarchy<T>> for PointerHierarchy<S> {
    fn eq(&self, other: &PointerHierarchy<T>) -> bool {
        Arc::ptr_eq(&self.mphf, &other.mphf)
            && self.cfg == other.cfg
            && self.levels.len() == other.levels.len()
            && self.levels.iter().zip(&other.levels).all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| slot_of(x) == slot_of(y))
            })
            && self.archive == other.archive
            && self.archive_retired == other.archive_retired
            && self.cached_epoch == other.cached_epoch
            && self.cached_slots == other.cached_slots
            && self.version == other.version
            && self.flushed_bits == other.flushed_bits
            && self.updates == other.updates
            && self.unknown_dsts == other.unknown_dsts
    }
}

// ---- wire codecs ---------------------------------------------------------
//
// Replication ships pointer patches and whole hierarchies between shard
// replicas (`wireplane`'s publisher). `Slot`, [`ArchivedPointer`] and
// [`PointerPatch`] are ordinary [`Wire`] values built from the shared
// container impls; `Slot` and the patch internals stay private — nothing
// outside this module may construct a patch, but any peer may decode one.
// A whole hierarchy keeps inherent `wire_enc`/`wire_dec` because its
// decode needs context: the MPHF never travels, a decoded hierarchy
// re-attaches the receiver's shared `Arc` so identity-based equality keeps
// holding across the wire. Decoding never panics — malformed input is a
// typed [`WireError`]. (Slot indices are plain `usize`s on the wire: the
// `usize::MAX` "skip" sentinel survives a width change because
// `put_usize`/`get_usize` carry it as `u64::MAX`.)

impl Wire for Slot {
    fn enc(&self, e: &mut Enc) {
        self.period.enc(e);
        self.bits.enc(e);
        e.put_u64(self.touched);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Slot {
            period: Option::dec(d)?,
            bits: BitSet::dec(d)?,
            touched: d.get_u64()?,
        })
    }
}

impl Wire for ArchivedPointer {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.period);
        self.bits.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(ArchivedPointer {
            period: d.get_u64()?,
            bits: BitSet::dec(d)?,
        })
    }
}

/// Structural validity against a particular hierarchy is checked at apply
/// time by [`PointerHierarchy::checked_apply_patch`].
impl Wire for PointerPatch {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.version);
        self.slots.enc(e);
        self.archive_tail.enc(e);
        e.put_usize(self.archive_retired);
        e.put_u64(self.flushed_bits);
        e.put_u64(self.updates);
        e.put_u64(self.unknown_dsts);
        self.cached_epoch.enc(e);
        self.cached_slots.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(PointerPatch {
            version: d.get_u64()?,
            slots: Vec::dec(d)?,
            archive_tail: Vec::dec(d)?,
            archive_retired: d.get_usize()?,
            flushed_bits: d.get_u64()?,
            updates: d.get_u64()?,
            unknown_dsts: d.get_u64()?,
            cached_epoch: Option::dec(d)?,
            cached_slots: Vec::dec(d)?,
        })
    }
}

impl<S: Borrow<Slot>> PointerHierarchy<S> {
    /// Encodes the full hierarchy state — everything except the MPHF,
    /// which is deployment-shared and re-attached on decode.
    pub fn wire_enc(&self, e: &mut Enc) {
        e.put_usize(self.cfg.n_hosts);
        e.put_u32(self.cfg.alpha);
        e.put_usize(self.cfg.k);
        for level in &self.levels {
            e.put_usize(level.len());
            for slot in level {
                slot_of(slot).enc(e);
            }
        }
        self.archive.enc(e);
        e.put_usize(self.archive_retired);
        self.cached_epoch.enc(e);
        self.cached_slots.enc(e);
        e.put_u64(self.version);
        e.put_u64(self.flushed_bits);
        e.put_u64(self.updates);
        e.put_u64(self.unknown_dsts);
    }
}

impl FrozenHierarchy {
    /// Applies a patch produced by [`PointerHierarchy::delta_since`] on the
    /// live hierarchy to a freeze taken at the same baseline. The named
    /// slots are replaced by the patch's `Arc`s; no other slot is touched.
    pub fn apply_patch(&mut self, patch: &PointerPatch) {
        for &(li, si, ref slot) in &patch.slots {
            // `usize::MAX` is the "skip" sentinel of the slot cache, never
            // a real slot index. `delta_since` enumerates live slots and
            // so cannot emit one, but any future patch producer that
            // journals the cached-slot path must have its sentinels
            // skipped, not copied (indexing by the sentinel would panic;
            // a stale slot's contents are unchanged since the baseline by
            // definition). A genuinely out-of-range index still panics
            // loudly below — a mismatched patch must not half-apply.
            if si == usize::MAX {
                continue;
            }
            self.levels[li][si] = Arc::clone(slot);
        }
        // Retirement first: drop the prefix of the resident archive the
        // live hierarchy has retired beyond this clone's own retired
        // count, then append what was flushed after the baseline.
        let drop = patch
            .archive_retired
            .saturating_sub(self.archive_retired)
            .min(self.archive.len());
        self.archive.drain(..drop);
        self.archive_retired = patch.archive_retired;
        self.archive.extend(patch.archive_tail.iter().cloned());
        self.version = patch.version;
        self.flushed_bits = patch.flushed_bits;
        self.updates = patch.updates;
        self.unknown_dsts = patch.unknown_dsts;
        self.cached_epoch = patch.cached_epoch;
        self.cached_slots = patch.cached_slots.clone();
    }

    /// Live slots and archived sets of `self` that are not the very
    /// allocation `other` holds in the same place (archived sets: anywhere
    /// in its archive, since retirement shifts positions). Between a
    /// hierarchy and the clone it was patched from this is
    /// [`PointerPatch::copied_slots`] — what the identity tests count.
    pub fn unshared_slots(&self, other: &FrozenHierarchy) -> usize {
        let live = self
            .levels
            .iter()
            .flatten()
            .zip(other.levels.iter().flatten())
            .filter(|(a, b)| !Arc::ptr_eq(a, b))
            .count();
        let archived = self
            .archive
            .iter()
            .filter(|a| !other.archive.iter().any(|b| Arc::ptr_eq(a, b)))
            .count();
        live + archived
    }

    /// Bounds-validated [`FrozenHierarchy::apply_patch`] for patches that
    /// crossed the wire: a corrupt or mismatched patch is a typed error
    /// instead of an index panic, and the hierarchy is untouched on error.
    pub fn checked_apply_patch(&mut self, patch: &PointerPatch) -> Result<(), WireError> {
        for &(li, si, ref slot) in &patch.slots {
            if si == usize::MAX {
                continue;
            }
            let fits = self
                .levels
                .get(li)
                .map(|level| si < level.len())
                .unwrap_or(false);
            if !fits {
                return Err(WireError::Remote(format!(
                    "pointer patch slot ({li},{si}) outside hierarchy shape"
                )));
            }
            if slot.bits.capacity() != self.cfg.n_hosts {
                return Err(WireError::Remote(format!(
                    "pointer patch slot capacity {} != {}",
                    slot.bits.capacity(),
                    self.cfg.n_hosts
                )));
            }
        }
        if patch
            .archive_tail
            .iter()
            .any(|a| a.bits.capacity() != self.cfg.n_hosts)
        {
            return Err(WireError::Remote(
                "pointer patch archive capacity mismatch".into(),
            ));
        }
        if patch.cached_slots.len() != self.cfg.k {
            return Err(WireError::Remote(format!(
                "pointer patch cached-slot count {} != k {}",
                patch.cached_slots.len(),
                self.cfg.k
            )));
        }
        self.apply_patch(patch);
        Ok(())
    }

    /// Decodes a hierarchy — frozen: what crosses the wire is a replica's
    /// bootstrap — re-attaching the receiver's shared MPHF. Shape and
    /// config are fully validated; malformed input is a typed error, never
    /// a panic. Round-trips to `==` with the encoded source when both
    /// sides hold the same MPHF `Arc`.
    pub fn wire_dec(d: &mut Dec, mphf: &Arc<Mphf>) -> Result<Self, WireError> {
        let cfg = PointerConfig {
            n_hosts: d.get_usize()?,
            alpha: d.get_u32()?,
            k: d.get_usize()?,
        };
        cfg.validate()
            .map_err(|e| WireError::Remote(format!("invalid pointer config on wire: {e}")))?;
        if cfg.n_hosts != mphf.len() {
            return Err(WireError::Remote(format!(
                "pointer hierarchy sized for {} hosts, local MPHF covers {}",
                cfg.n_hosts,
                mphf.len()
            )));
        }
        let mut levels = Vec::with_capacity(d.reservation::<Vec<Arc<Slot>>>(cfg.k));
        for h in 1..=cfg.k {
            let slots = Vec::<Arc<Slot>>::dec(d)?;
            if slots.len() != cfg.slots_at(h) {
                return Err(WireError::Remote(format!(
                    "level {h} carries {} slots, config says {}",
                    slots.len(),
                    cfg.slots_at(h)
                )));
            }
            if slots.iter().any(|s| s.bits.capacity() != cfg.n_hosts) {
                return Err(WireError::Remote(
                    "slot capacity does not match config".into(),
                ));
            }
            levels.push(slots);
        }
        let archive = Vec::<Arc<ArchivedPointer>>::dec(d)?;
        if archive.iter().any(|a| a.bits.capacity() != cfg.n_hosts) {
            return Err(WireError::Remote(
                "archived set capacity does not match config".into(),
            ));
        }
        let archive_retired = d.get_usize()?;
        let cached_epoch = Option::dec(d)?;
        let cached_slots = Vec::<usize>::dec(d)?;
        if cached_slots.len() != cfg.k {
            return Err(WireError::Remote(format!(
                "cached-slot count {} != k {}",
                cached_slots.len(),
                cfg.k
            )));
        }
        Ok(PointerHierarchy {
            spans: (1..=cfg.k).map(|h| cfg.span_epochs(h)).collect(),
            cached_epoch,
            cached_slots,
            version: d.get_u64()?,
            cfg,
            mphf: mphf.clone(),
            levels,
            archive,
            archive_retired,
            flushed_bits: d.get_u64()?,
            updates: d.get_u64()?,
            unknown_dsts: d.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(n: usize, alpha: u32, k: usize) -> (PointerHierarchy, Vec<u64>) {
        let addrs: Vec<u64> = (0..n as u64).map(|i| 0x0a00_0000 + i).collect();
        let mphf = Arc::new(Mphf::build(&addrs).unwrap());
        (
            PointerHierarchy::new(
                PointerConfig {
                    n_hosts: n,
                    alpha,
                    k,
                },
                mphf,
            ),
            addrs,
        )
    }

    #[test]
    fn update_then_contains_same_epoch() {
        let (mut h, addrs) = hierarchy(64, 4, 3);
        h.update(addrs[5], 7);
        assert!(h.contains(addrs[5], 7));
        assert!(!h.contains(addrs[6], 7));
        // At exact (level-1) resolution, epoch 8 has no record of addrs[5]:
        // no level-1 slot covers epoch 8 yet.
        assert_eq!(h.contains_within(addrs[5], 8, 1), None);
        assert_eq!(h.contains_within(addrs[5], 7, 1), Some(true));
        assert_eq!(h.contains_within(addrs[6], 7, 1), Some(false));
        // The coarse query *does* report epoch 8 (top-level span covers it):
        // a false positive by design — wider search radius, never a miss.
        assert!(h.contains(addrs[5], 8));
    }

    #[test]
    fn ranged_probe_ignores_a_slot_labelled_for_another_index() {
        // Rotation never produces this, but a wire-decoded hierarchy is
        // only shape-checked: a level-1 slot carrying a period that maps
        // to a different index is invisible to the per-epoch probe, so
        // the ranged probe must not see it either.
        let (mut h, addrs) = hierarchy(16, 4, 2);
        h.update(addrs[3], 5); // slot 5 % 4 = 1
        assert!(h.contains_exact_in(addrs[3], 0, 9));
        h.levels[0][1].period = Some(6); // 6 maps to slot 2, not 1
        let per_epoch = (0..=9u64).any(|e| h.contains_within(addrs[3], e, 1) == Some(true));
        assert!(!per_epoch);
        assert!(!h.contains_exact_in(addrs[3], 0, 9));
    }

    #[test]
    fn unknown_destination_counted_not_stored() {
        let (mut h, _) = hierarchy(16, 4, 2);
        h.update(0xdead_beef, 0);
        assert_eq!(h.unknown_dsts, 1);
        assert!(!h.contains(0xdead_beef, 0));
    }

    #[test]
    fn level1_recycles_after_alpha_epochs() {
        let (mut h, addrs) = hierarchy(32, 4, 3);
        h.update(addrs[1], 0);
        assert_eq!(h.resolution_for(0), Some(1));
        // Epoch 4 reuses slot 0 of level 1 (alpha = 4): epoch 0's level-1
        // view is gone, but level 2 (span 4, period 0) still covers it.
        h.update(addrs[2], 4);
        assert_eq!(h.resolution_for(0), Some(4));
        assert!(h.contains(addrs[1], 0), "level 2 retains the host");
        // Level-2 period 0 covers epochs 0..4, so epoch 3 also reports it:
        // coarser, but never a false negative (the paper's correctness
        // argument — worse precision only widens the search radius).
        assert!(h.contains(addrs[1], 3));
    }

    #[test]
    fn higher_levels_superset_of_lower() {
        // The redundancy invariant: everything in live level-1 slots of a
        // level-2 period is in that level-2 slot.
        let (mut h, addrs) = hierarchy(64, 4, 3);
        for e in 0..4u64 {
            h.update(addrs[e as usize], e);
            h.update(addrs[10 + e as usize], e);
        }
        // Union of level-1 views for epochs 0..4:
        let mut union = BitSet::new(64);
        for e in 0..4u64 {
            union.union_with(h.pointer_for(e).unwrap());
        }
        // Level-2 slot for period 0:
        h.update(addrs[20], 4); // force nothing to recycle level 2 period 0? epoch 4 is period 1
        let lvl2 = {
            // Access: after epoch 4 touched, epoch 0's finest live view is
            // still level 1 (only slot 0 recycled). Pull level-2 via
            // pointer_union over 0..=3 at worst.
            h.pointer_union(0, 3)
        };
        assert!(union.is_subset_of(&lvl2));
    }

    #[test]
    fn top_level_flushes_to_archive() {
        // alpha=2, k=2: top slot spans 2 epochs; rotating it must archive.
        let (mut h, addrs) = hierarchy(16, 2, 2);
        h.update(addrs[0], 0);
        h.update(addrs[1], 1);
        assert!(h.archive().is_empty());
        h.update(addrs[2], 2); // top period 0 -> 1: flush
        assert_eq!(h.archive().len(), 1);
        assert_eq!(h.archive()[0].period, 0);
        assert_eq!(h.flushed_bits, 16);
        // Archived set still answers for epoch 0 after all live slots moved on.
        h.update(addrs[3], 4);
        h.update(addrs[3], 5);
        assert!(h.contains(addrs[0], 0), "archive must answer");
        assert!(h.contains(addrs[1], 1));
    }

    #[test]
    fn pointer_union_collects_across_epochs() {
        let (mut h, addrs) = hierarchy(32, 4, 3);
        h.update(addrs[1], 0);
        h.update(addrs[2], 1);
        h.update(addrs[3], 2);
        let u = h.pointer_union(0, 2);
        let ones: Vec<usize> = u.iter_ones().collect();
        assert_eq!(ones.len(), 3);
        let u01 = h.pointer_union(0, 1);
        assert_eq!(u01.count(), 2);
    }

    #[test]
    fn memory_formula_matches_paper_figures() {
        // n=100K, alpha=10, k=3: pointers = (10*2+1) * 12.5KB = 262.5 KB...
        // The paper's Fig. 10a reports 345 KB for n=100K *including* the
        // ~70 KB hash function — our accounting separates the two.
        let cfg = PointerConfig {
            n_hosts: 100_000,
            alpha: 10,
            k: 3,
        };
        assert_eq!(cfg.memory_bytes(), 21 * 12_500);
        // n=1M scales 10x: Fig. 10a's ~3.45 MB point.
        let cfg1m = PointerConfig {
            n_hosts: 1_000_000,
            alpha: 10,
            k: 3,
        };
        assert_eq!(cfg1m.memory_bytes(), 21 * 125_000); // 2.625 MB pointers
    }

    #[test]
    fn bandwidth_formula_matches_paper_figures() {
        // n=1M, alpha=10, k=1: 1M bits * 1000/10 ms = 100 Mbps (Fig. 10b).
        let k1 = PointerConfig {
            n_hosts: 1_000_000,
            alpha: 10,
            k: 1,
        };
        assert!((k1.flush_bandwidth_bps() - 100_000_000.0).abs() < 1.0);
        // k=2 drops it to 10 Mbps.
        let k2 = PointerConfig {
            n_hosts: 1_000_000,
            alpha: 10,
            k: 2,
        };
        assert!((k2.flush_bandwidth_bps() - 10_000_000.0).abs() < 1.0);
    }

    #[test]
    fn recycling_period_formula() {
        // Fig. 11: alpha=10, k=3: level 1 recycles after 90 ms, level 2
        // after 990 ms.
        let cfg = PointerConfig {
            n_hosts: 16,
            alpha: 10,
            k: 3,
        };
        assert_eq!(cfg.recycling_period_ms(1), 90);
        assert_eq!(cfg.recycling_period_ms(2), 990);
    }

    #[test]
    fn k1_single_level_hierarchy_works() {
        let (mut h, addrs) = hierarchy(16, 4, 1);
        h.update(addrs[0], 0);
        assert!(h.contains(addrs[0], 0));
        // k=1: the single level IS the top; rotating flushes.
        h.update(addrs[1], 1);
        assert_eq!(h.archive().len(), 1);
        assert!(h.contains(addrs[0], 0), "answered from archive");
    }

    #[test]
    fn delta_patch_restores_full_equality() {
        let (mut h, addrs) = hierarchy(32, 4, 3);
        h.update(addrs[1], 0);
        h.update(addrs[2], 1);
        let clone_at_base = h.freeze();
        let base = (h.version(), h.archive().len());
        assert!(h.delta_since(base.0, base.1).is_none(), "no change yet");

        // A small advance: only the slots covering epochs 2-3 rotate.
        for e in 2..4u64 {
            h.update(addrs[(e % 32) as usize], e);
            h.update(0xdead_beef, e); // unknown dst: counter-only mutation
        }
        let patch = h.delta_since(base.0, base.1).expect("changes happened");
        // The patch copies strictly less than a full clone would.
        assert!(patch.copied_slots() < h.total_slots());
        let mut patched = clone_at_base;
        patched.apply_patch(&patch);
        assert!(patched == h, "patched clone must equal the live hierarchy");

        // Layered baselines: a later delta over the patched state is empty.
        assert!(h
            .delta_since(patched.version(), patched.archive().len())
            .is_none());
    }

    #[test]
    fn a_patched_freeze_shares_every_slot_the_patch_did_not_carry() {
        // alpha=2, k=2 so the advance also flushes to the archive.
        let (mut h, addrs) = hierarchy(16, 2, 2);
        h.update(addrs[1], 0);
        h.update(addrs[2], 1);
        let base = (h.version(), h.archive_logical_len());
        let frozen = h.freeze();
        assert!(frozen == h, "a freeze equals the live hierarchy it froze");
        assert_eq!(frozen.clone().unshared_slots(&frozen), 0);

        h.update(addrs[3], 2);
        let patch = h.delta_since(base.0, base.1).expect("changes happened");
        assert!(patch.copied_slots() < h.total_slots());
        let mut patched = frozen.clone();
        patched.apply_patch(&patch);
        assert!(patched == h);
        assert_eq!(patched.unshared_slots(&frozen), patch.copied_slots());
        // The freeze it was patched from is untouched.
        assert!(frozen != h);
    }

    #[test]
    fn overflowing_capacity_math_is_a_typed_error_not_a_panic() {
        // alpha = 2^31, k = 3: span of level 3 is (2^31)^2 = 2^62 (fine),
        // but the level-2 recycling period 2^31*((2^31)^2 - 1) overflows.
        let recyc = PointerConfig {
            n_hosts: 16,
            alpha: 1 << 31,
            k: 3,
        };
        assert_eq!(
            recyc.validate(),
            Err(PointerConfigError::RecyclingOverflow { level: 2 })
        );
        // alpha = 2^16, k = 5: span of level 5 is 2^64 — overflows u64.
        let span = PointerConfig {
            n_hosts: 16,
            alpha: 1 << 16,
            k: 5,
        };
        assert_eq!(
            span.validate(),
            Err(PointerConfigError::SpanOverflow { level: 5 })
        );
        // try_new surfaces the same error instead of panicking.
        let addrs: Vec<u64> = (0..16u64).collect();
        let mphf = Arc::new(Mphf::build(&addrs).unwrap());
        assert_eq!(
            PointerHierarchy::try_new(span, mphf).err(),
            Some(PointerConfigError::SpanOverflow { level: 5 })
        );
        // Degenerate shapes are typed too.
        assert_eq!(
            PointerConfig {
                n_hosts: 16,
                alpha: 1,
                k: 2
            }
            .validate(),
            Err(PointerConfigError::AlphaTooSmall)
        );
        assert_eq!(
            PointerConfig {
                n_hosts: 16,
                alpha: 4,
                k: 0
            }
            .validate(),
            Err(PointerConfigError::NoLevels)
        );
        // The paper's running configuration passes.
        assert_eq!(PointerConfig::paper_defaults(16).validate(), Ok(()));
    }

    #[test]
    fn stale_sentinel_slots_survive_delta_roundtrip() {
        // alpha=2, k=2: epoch 4 labels the top slot with period 2; a late
        // packet for epoch 2 (period 1 < 2) must not clear forward state,
        // so every cached slot goes to the usize::MAX "skip" sentinel.
        let (mut h, addrs) = hierarchy(16, 2, 2);
        h.update(addrs[0], 4);
        let clone_at_base = h.freeze();
        let base = (h.version(), h.archive().len());

        h.update(addrs[1], 2); // out-of-order: all-sentinel slot cache
        assert!(
            !h.contains_within(addrs[1], 2, 1).unwrap_or(false),
            "late packet must not be recorded over newer state"
        );
        let patch = h.delta_since(base.0, base.1).expect("version bumped");
        let mut patched = clone_at_base;
        patched.apply_patch(&patch);
        assert!(
            patched == h,
            "a patch spanning a stale-sentinel window must restore equality"
        );
    }

    #[test]
    fn apply_patch_skips_injected_stale_sentinel_entries() {
        // `delta_since` never emits the `usize::MAX` cached-slot sentinel
        // as a slot index, but apply_patch hardens against any future
        // patch producer that journals the cached-slot path. Inject one
        // directly (the tests module sees the private internals): it must
        // be skipped without panicking and without perturbing the state.
        let (mut h, addrs) = hierarchy(16, 4, 2);
        h.update(addrs[0], 0);
        let clone_at_base = h.freeze();
        let base = (h.version(), h.archive().len());
        h.update(addrs[1], 1);
        let mut patch = h.delta_since(base.0, base.1).expect("changes happened");
        patch.slots.push((
            0,
            usize::MAX,
            Arc::new(Slot {
                period: Some(999),
                bits: BitSet::new(16),
                touched: u64::MAX,
            }),
        ));
        let mut patched = clone_at_base;
        patched.apply_patch(&patch);
        assert!(
            patched == h,
            "sentinel slot entries must be skipped without effect"
        );
    }

    #[test]
    fn archive_retirement_respects_the_epoch_floor() {
        // alpha=2, k=2: top span is 2 epochs; walking 10 epochs archives
        // periods 0..4 (period 4 still live in the top slot).
        let (mut h, addrs) = hierarchy(16, 2, 2);
        for e in 0..10u64 {
            h.update(addrs[(e % 16) as usize], e);
        }
        assert_eq!(h.archive().len(), 4);
        // Floor 5: period 0 spans [0,2), period 1 spans [2,4) — both end
        // at or before epoch 5. Period 2 spans [4,6): epoch 5 is retained.
        assert_eq!(h.retire_archive_before(5), 2);
        assert_eq!(h.archive().len(), 2);
        assert_eq!(h.archive_retired(), 2);
        assert_eq!(h.archive_logical_len(), 4);
        // Epochs at/above the floor still answer; reclaimed ones no longer.
        assert!(h.contains(addrs[5], 5), "retained epoch must still answer");
        assert!(h.pointer_for(1).is_none(), "reclaimed epoch is gone");
        assert!(!h.contains(addrs[1], 1));
        // Idempotent at the same floor: no state change, no version bump.
        let v = h.version();
        assert_eq!(h.retire_archive_before(5), 0);
        assert_eq!(h.version(), v);
    }

    #[test]
    fn retirement_stays_delta_expressible() {
        let (mut h, addrs) = hierarchy(16, 2, 2);
        for e in 0..8u64 {
            h.update(addrs[(e % 16) as usize], e);
        }
        let clone_at_base = h.freeze();
        let base = (h.version(), h.archive_logical_len());

        // Retire-only advance: the patch must carry the prefix drop.
        assert!(h.retire_archive_before(4) > 0);
        let patch = h.delta_since(base.0, base.1).expect("retire bumps version");
        assert_eq!(patch.copied_slots(), 0, "pure retirement copies no slots");
        let mut patched = clone_at_base.clone();
        patched.apply_patch(&patch);
        assert!(patched == h, "retire-only patch must restore equality");

        // Mixed advance: more epochs (fresh archives) plus a deeper sweep.
        let base2 = (h.version(), h.archive_logical_len());
        let clone_at_base2 = h.freeze();
        for e in 8..14u64 {
            h.update(addrs[(e % 16) as usize], e);
        }
        assert!(h.retire_archive_before(9) > 0);
        let patch2 = h.delta_since(base2.0, base2.1).expect("changes happened");
        let mut patched2 = clone_at_base2;
        patched2.apply_patch(&patch2);
        assert!(
            patched2 == h,
            "append + retire interleaving must stay patchable"
        );
        // Layered baselines over the patched state are empty.
        assert!(h
            .delta_since(patched2.version(), patched2.archive_logical_len())
            .is_none());
    }

    #[test]
    fn retirement_spanning_the_whole_baseline_tail() {
        // A sweep can retire entries the baseline clone never saw: the
        // applier must drop its whole resident archive and take only the
        // still-resident tail.
        let (mut h, addrs) = hierarchy(16, 2, 2);
        for e in 0..6u64 {
            h.update(addrs[(e % 16) as usize], e);
        }
        let clone_at_base = h.freeze();
        let base = (h.version(), h.archive_logical_len());
        for e in 6..12u64 {
            h.update(addrs[(e % 16) as usize], e);
        }
        // Floor 10 retires every archived period up to [8,10) — including
        // ones appended after the baseline.
        assert!(h.retire_archive_before(10) >= clone_at_base.archive().len());
        let patch = h.delta_since(base.0, base.1).expect("changes happened");
        let mut patched = clone_at_base;
        patched.apply_patch(&patch);
        assert!(patched == h, "deep sweep past the baseline must patch");
    }

    #[test]
    fn patch_and_hierarchy_wire_roundtrip_to_equality() {
        let (mut h, addrs) = hierarchy(32, 4, 3);
        h.update(addrs[1], 0);
        h.update(addrs[2], 1);
        let clone_at_base = h.freeze();
        let base = (h.version(), h.archive_logical_len());
        for e in 2..9u64 {
            h.update(addrs[(e % 32) as usize], e);
        }
        h.retire_archive_before(2);
        let patch = h.delta_since(base.0, base.1).expect("changes happened");

        // Patch: encode → decode → checked apply == direct apply.
        let mut e = Enc::new();
        patch.enc(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let decoded = PointerPatch::dec(&mut d).unwrap();
        d.finish().unwrap();
        let mut patched = clone_at_base;
        patched.checked_apply_patch(&decoded).unwrap();
        assert!(patched == h, "wire-tripped patch must restore equality");

        // Whole hierarchy: encode → decode with the shared MPHF == source.
        let mut e = Enc::new();
        h.wire_enc(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let over_wire = PointerHierarchy::wire_dec(&mut d, h.mphf()).unwrap();
        d.finish().unwrap();
        assert!(over_wire == h, "wire-tripped hierarchy must be ==");

        // Truncation anywhere is a typed error, never a panic.
        for cut in (0..bytes.len()).step_by(7) {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(PointerHierarchy::wire_dec(&mut d, h.mphf()).is_err());
        }
    }

    #[test]
    fn mismatched_wire_patch_is_rejected_without_half_applying() {
        let (mut big, addrs) = hierarchy(64, 4, 3);
        big.update(addrs[0], 0);
        let base = (0, 0);
        let patch = big.delta_since(base.0, base.1).unwrap();
        let mut e = Enc::new();
        patch.enc(&mut e);
        let bytes = e.into_bytes();
        let decoded = PointerPatch::dec(&mut Dec::new(&bytes)).unwrap();
        // A hierarchy with a different slot capacity must refuse it.
        let mut small = hierarchy(16, 4, 3).0.freeze();
        let before = small.clone();
        assert!(small.checked_apply_patch(&decoded).is_err());
        assert!(small == before, "rejected patch must not perturb state");
    }

    #[test]
    fn no_false_negative_within_retention_many_updates() {
        let (mut h, addrs) = hierarchy(128, 4, 3);
        // Walk 30 epochs; every epoch records 3 hosts.
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for e in 0..30u64 {
            for i in 0..3u64 {
                let a = addrs[((e * 7 + i * 13) % 128) as usize];
                h.update(a, e);
                expected.push((a, e));
            }
        }
        // Top level spans 16 epochs; archives + live levels must cover all.
        for (a, e) in expected {
            assert!(h.contains(a, e), "lost ({a:#x}, epoch {e})");
        }
    }

    #[test]
    fn an_update_is_k_bit_writes_at_the_keys_index() {
        // §4.1.2: a packet costs one hash and one bit write per level;
        // relabelling and clearing slots is the once-per-epoch rotation
        // (`refresh_slots`). So against the hierarchy rotated to a fresh
        // epoch, one update sets exactly the key's MPHF index in each of
        // the k current slots, and changes no other bit.
        for k in [1usize, 3, 5] {
            let (mut h, addrs) = hierarchy(64, 4, k);
            // History on the lower half of the keys, across recycled
            // slots and archive flushes.
            for e in (0..300u64).step_by(3) {
                h.update(addrs[(e as usize * 7) % 32], e);
            }
            for (i, fresh) in [301u64, 302, 320, 1_024].into_iter().enumerate() {
                // Never updated, so its bit is clear in every slot.
                let key = addrs[32 + i];
                let bit = h.mphf().index(&key).unwrap();
                let mut rotated = h.clone();
                rotated.refresh_slots(fresh);
                h.update(key, fresh);
                assert_eq!(h.cached_slots, rotated.cached_slots);
                assert_eq!(h.archive, rotated.archive);
                assert_eq!(h.flushed_bits, rotated.flushed_bits);
                for (lv, (now, was)) in h.levels.iter().zip(&rotated.levels).enumerate() {
                    let current = h.cached_slots[lv];
                    assert_ne!(current, usize::MAX, "a fresh epoch is never stale");
                    for (idx, (s, r)) in now.iter().zip(was).enumerate() {
                        let mut expected = r.bits.clone();
                        if idx == current {
                            assert!(!r.bits.test(bit));
                            expected.set(bit);
                        }
                        assert_eq!(s.period, r.period);
                        assert_eq!(s.bits, expected, "k={k} level {} slot {idx}", lv + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn unchecked_update_equals_update_on_build_keys() {
        for k in [1usize, 3, 5] {
            let (mut checked, addrs) = hierarchy(64, 4, k);
            let mut unchecked = checked.clone();
            for i in 0..600u64 {
                let key = addrs[(i as usize * 13) % addrs.len()];
                checked.update(key, i / 2);
                unchecked.update_unchecked(key, i / 2);
            }
            assert_eq!(checked.unknown_dsts, 0);
            assert_eq!(checked, unchecked, "k={k}");
        }
    }
}
