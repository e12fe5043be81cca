//! An immutable, thread-safe snapshot of deployment state, sharded by
//! flow-id hash — now *incrementally maintainable*.
//!
//! The live deployment shares its component state through
//! `Rc<RefCell<…>>` handles, which cannot cross threads. The query plane
//! therefore freezes the state it queries: switch pointer hierarchies are
//! frozen ([`FrozenHierarchy`]: bit-set slots + an `Arc<Mphf>`), and each
//! host's flow records are partitioned into [`shard_of`] shards so
//! concurrent queries touching different flows walk disjoint memory.
//!
//! ## Structural sharing
//!
//! Every component sits behind an `Arc`: each switch's hierarchy (and,
//! inside it, each slot), each host's store (and, inside it, each
//! [`RecordShard`]). [`Snapshot::clone`] and [`Snapshot::shard_slice`]
//! are therefore refcount bumps, and an advance — [`Snapshot::apply_delta`]
//! on the owner, [`Snapshot::apply_record`] on a replica — copies on write
//! only the components it names (`Arc::make_mut` on the way down, a
//! replaced `Arc` at the leaf). Nothing behind a shared `Arc` is ever
//! mutated, so a clone handed to readers is as immutable as a deep copy
//! was; `==` and `Debug` read through the `Arc`s and see the same values.
//! [`Snapshot::unshared_with`] counts what two snapshots do *not* share —
//! the identity tests hold "copied == named" with it.
//!
//! [`Snapshot`] implements [`StateView`] with answers *identical* to the
//! live view's: same candidate ordering (ascending flow id), same
//! aggregate tie-breaks. The verdict-equivalence integration test pins
//! this down.
//!
//! ## Incremental refresh
//!
//! Capturing records a per-component baseline (mutation-counter versions
//! plus the pointer archive's logical length). [`Snapshot::apply_delta`]
//! asks each live component what changed since its baseline — rotated pointer slots via
//! [`PointerHierarchy::delta_since`](switchpointer::pointer::PointerHierarchy::delta_since), touched flows via
//! [`FlowStore::changed_since`](switchpointer::hoststore::FlowStore::changed_since)
//! — and re-copies *only* the dirty slots and the shards containing dirty
//! flows. The property suite (`tests/streamplane_props.rs`) pins the
//! invariant: any interleaving of simulation advance and `apply_delta`
//! yields a snapshot `==` to a fresh [`Snapshot::capture`] at the same
//! instant.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use mphf::Mphf;
use netsim::packet::{FlowId, NodeId};
use switchpointer::bitset::BitSet;
use switchpointer::host::TriggerEvent;
use switchpointer::hoststore::{keep_top_k, shard_of, FlowRecord, FlowStore, StoreDelta};
use switchpointer::pointer::FrozenHierarchy;
use switchpointer::query::{Deferred, StateView};
use switchpointer::Analyzer;
use telemetry::frame::{Dec, Enc, Wire, WireError};
use telemetry::EpochRange;

use crate::repl::{DeltaRecord, HostPatch, HostPatchKind, SwitchPatch};

/// One shard of a host's frozen flow records — the unit a refresh
/// rebuilds, journals and ships, always behind an `Arc`.
#[derive(Clone, Default, PartialEq)]
pub struct RecordShard {
    /// Records sorted by ascending flow id.
    records: Vec<FlowRecord>,
    /// Secondary index: switch -> indices into `records` (ascending).
    by_switch: HashMap<NodeId, Vec<usize>>,
}

/// Renders `by_switch` in sorted key order, so two `==` shards print
/// identically — the wire tests' Debug-based bit-identity checks depend
/// on deterministic rendering.
impl std::fmt::Debug for RecordShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let by_switch: std::collections::BTreeMap<_, _> = self.by_switch.iter().collect();
        f.debug_struct("RecordShard")
            .field("records", &self.records)
            .field("by_switch", &by_switch)
            .finish()
    }
}

impl RecordShard {
    /// A shard holding `records` in the order given (a frozen shard's is
    /// ascending flow id), with the secondary index built over them.
    pub fn from_records(records: Vec<FlowRecord>) -> Self {
        let mut shard = RecordShard::default();
        for rec in records {
            shard.push(rec);
        }
        shard
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn push(&mut self, rec: FlowRecord) {
        let idx = self.records.len();
        for sw in rec.epochs_at.keys() {
            self.by_switch.entry(*sw).or_default().push(idx);
        }
        self.records.push(rec);
    }
}

/// A shard travels as its record vector; the secondary index is rebuilt
/// by pushing the records in their carried (sorted) order, so the result
/// is `==` to the encoded source.
impl Wire for RecordShard {
    fn enc(&self, e: &mut Enc) {
        self.records.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Vec::<FlowRecord>::dec(d).map(RecordShard::from_records)
    }
}

/// A host's frozen store: records partitioned by flow-id hash.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedHostStore {
    shards: Vec<Arc<RecordShard>>,
    triggers: Vec<TriggerEvent>,
    total: usize,
}

impl ShardedHostStore {
    fn freeze(store: &FlowStore, triggers: &[TriggerEvent], n_shards: usize) -> Self {
        // One pass over the sorted record stream, bucketed by `shard_of`:
        // each shard's vector stays sorted without re-sorting, and the
        // store is scanned once rather than once per shard.
        let mut shards = vec![RecordShard::default(); n_shards];
        for rec in store.records() {
            shards[shard_of(rec.flow, n_shards)].push(rec.clone());
        }
        ShardedHostStore {
            shards: shards.into_iter().map(Arc::new).collect(),
            triggers: triggers.to_vec(),
            total: store.len(),
        }
    }

    /// Rebuilds only the shards containing `dirty` flows from the live
    /// store (one scan, clones restricted to dirty shards); every other
    /// shard keeps its `Arc`. Returns the number of records cloned and the
    /// rebuilt shard indices (sorted) — what a replication journal ships.
    fn patch_shards(
        &mut self,
        store: &FlowStore,
        triggers: &[TriggerEvent],
        dirty: &[FlowId],
    ) -> (usize, Vec<usize>) {
        let n_shards = self.shards.len();
        let mut rebuilt: BTreeMap<usize, RecordShard> = dirty
            .iter()
            .map(|&f| (shard_of(f, n_shards), RecordShard::default()))
            .collect();
        let mut cloned = 0usize;
        for rec in store.records() {
            if let Some(shard) = rebuilt.get_mut(&shard_of(rec.flow, n_shards)) {
                shard.push(rec.clone());
                cloned += 1;
            }
        }
        let dirty_shards = rebuilt.keys().copied().collect();
        for (s, shard) in rebuilt {
            self.shards[s] = Arc::new(shard);
        }
        self.triggers = triggers.to_vec();
        self.total = store.len();
        (cloned, dirty_shards)
    }

    /// Rebuilds a store from a flat record list (any order) partitioned
    /// `n_shards` ways — the decode-side inverse of freezing. Records are
    /// sorted by flow id first, so the rebuilt store is `==` to one frozen
    /// from a live [`FlowStore`] holding the same records.
    pub fn from_records(
        mut records: Vec<FlowRecord>,
        triggers: Vec<TriggerEvent>,
        n_shards: usize,
    ) -> Self {
        let n_shards = n_shards.max(1);
        records.sort_by_key(|r| r.flow);
        let total = records.len();
        let mut shards = vec![RecordShard::default(); n_shards];
        for rec in records {
            let s = shard_of(rec.flow, n_shards);
            shards[s].push(rec);
        }
        ShardedHostStore {
            shards: shards.into_iter().map(Arc::new).collect(),
            triggers,
            total,
        }
    }

    pub fn len(&self) -> usize {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn record(&self, flow: FlowId) -> Option<&FlowRecord> {
        let shard = &self.shards[shard_of(flow, self.shards.len())];
        shard
            .records
            .binary_search_by_key(&flow, |r| r.flow)
            .ok()
            .map(|i| &shard.records[i])
    }

    /// Matching records across all shards, merged back into ascending
    /// flow-id order (the unsharded store's candidate order).
    fn flows_matching(&self, switch: NodeId, range: EpochRange) -> Vec<&FlowRecord> {
        let mut out: Vec<&FlowRecord> = Vec::new();
        for shard in &self.shards {
            if let Some(idxs) = shard.by_switch.get(&switch) {
                out.extend(
                    idxs.iter()
                        .map(|&i| &shard.records[i])
                        .filter(|r| r.matches(switch, range)),
                );
            }
        }
        out.sort_by_key(|r| r.flow);
        out
    }

    fn top_k_through(&self, switch: NodeId, k: usize) -> Vec<(FlowId, u64)> {
        let mut flows: Vec<(FlowId, u64)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .by_switch
                    .get(&switch)
                    .map(|idxs| {
                        idxs.iter()
                            .map(|&i| (shard.records[i].flow, shard.records[i].bytes))
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default()
            })
            .collect();
        keep_top_k(&mut flows, k);
        flows
    }

    fn sizes_by_link(&self, switch: NodeId) -> Vec<(u16, u64)> {
        let mut out: Vec<(u16, u64)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .by_switch
                    .get(&switch)
                    .map(|idxs| {
                        idxs.iter()
                            .filter_map(|&i| {
                                let r = &shard.records[i];
                                r.link_vid.map(|l| (l, r.bytes))
                            })
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default()
            })
            .collect();
        out.sort();
        out
    }
}

/// The full frozen store (bootstrap and `FullRescan` patches).
impl Wire for ShardedHostStore {
    fn enc(&self, e: &mut Enc) {
        self.shards.enc(e);
        self.triggers.enc(e);
        e.put_u64(self.total as u64);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let shards = Vec::<Arc<RecordShard>>::dec(d)?;
        // Reads index `shards[shard_of(flow, n)]`: a store with no shard
        // must never reach them.
        if shards.is_empty() {
            return Err(WireError::Remote("host store carries no shards".into()));
        }
        Ok(ShardedHostStore {
            shards,
            triggers: Vec::dec(d)?,
            total: d.get_u64()? as usize,
        })
    }
}

/// Bound on the computational pointer-union memo: beyond this many
/// distinct keys, further unions are recomputed rather than cached, so a
/// long-lived snapshot serving sliding epoch windows cannot grow without
/// limit. (This memo is the only pointer cache the plane has. It saves
/// CPU, not retrieval rounds: [`crate::model`] bills every execution's
/// rounds in full.)
const UNION_MEMO_CAP: usize = 4096;

/// Lock stripes the union memo is split across. A single global mutex
/// here serialized every worker's pointer decode on one cache line; with
/// the work-stealing pool keeping all workers hot, the memo is striped
/// by switch id so concurrent unions over different switches never
/// contend. Striping is invisible to results — the memo caches a pure
/// function of the frozen hierarchies.
const UNION_MEMO_STRIPES: usize = 16;

/// One stripe of the union memo: `(switch, lo, hi)` → decoded union.
type MemoStripe = Mutex<HashMap<(NodeId, u64, u64), BitSet>>;

/// The striped pointer-union memo. Each stripe holds its share of the
/// global [`UNION_MEMO_CAP`] bound.
struct UnionMemo {
    stripes: Vec<MemoStripe>,
}

impl UnionMemo {
    fn new() -> Self {
        UnionMemo {
            stripes: (0..UNION_MEMO_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn stripe(&self, sw: NodeId) -> &Mutex<HashMap<(NodeId, u64, u64), BitSet>> {
        &self.stripes[sw.0 as usize % UNION_MEMO_STRIPES]
    }

    fn get(&self, key: &(NodeId, u64, u64)) -> Option<BitSet> {
        self.stripe(key.0).lock().unwrap().get(key).cloned()
    }

    fn insert_capped(&self, key: (NodeId, u64, u64), bits: &BitSet) {
        let mut stripe = self.stripe(key.0).lock().unwrap();
        if stripe.len() < UNION_MEMO_CAP / UNION_MEMO_STRIPES {
            stripe.insert(key, bits.clone());
        }
    }

    /// Drops every memoized union of a dirty switch (their frozen
    /// hierarchies were patched, so the cached unions are stale).
    fn purge_switches(&self, dirty: &BTreeSet<NodeId>) {
        for stripe in &self.stripes {
            stripe
                .lock()
                .unwrap()
                .retain(|&(sw, _, _), _| !dirty.contains(&sw));
        }
    }
}

/// What one [`Snapshot::apply_delta`] touched and what it cost, against
/// the counterfactual of a full recapture. The dirty switches drive
/// pointer-union memo invalidation; the dirty hosts are what replication
/// ships.
#[derive(Debug, Clone, Default)]
pub struct SnapshotDelta {
    /// Switches whose pointer state changed since the last freeze (sorted).
    pub dirty_switches: Vec<NodeId>,
    /// Hosts whose store or trigger log changed since the last freeze
    /// (sorted).
    pub dirty_hosts: Vec<NodeId>,
    /// The subset of `dirty_hosts` whose per-flow journal was invalidated
    /// by an eviction (`StoreDelta::FullRescan`): their frozen stores were
    /// rebuilt from scratch rather than patched (sorted).
    pub rescanned_hosts: Vec<NodeId>,
    /// Flow records actually cloned by this delta.
    pub cloned_records: u64,
    /// Pointer slots (live + archived) actually cloned by this delta.
    pub cloned_slots: u64,
    /// Flow records a full `Snapshot::capture` would have cloned instead.
    pub full_records: u64,
    /// Pointer slots a full `Snapshot::capture` would have cloned instead.
    pub full_slots: u64,
    /// The snapshot's epoch horizon after the delta.
    pub epoch_horizon: u64,
}

impl SnapshotDelta {
    /// Copy-work ratio of a full recapture over this delta. Guarded at
    /// both degenerate ends: an all-GC'd deployment (a retention sweep
    /// reclaimed everything, so a full recapture would copy nothing
    /// either) reports `0.0` — there are no savings over an empty copy,
    /// and the naive division would be 0/0 — while a genuinely empty
    /// delta over live state reports `∞`.
    pub fn savings(&self) -> f64 {
        let delta = (self.cloned_records + self.cloned_slots) as f64;
        let full = (self.full_records + self.full_slots) as f64;
        if full == 0.0 {
            0.0
        } else if delta == 0.0 {
            f64::INFINITY
        } else {
            full / delta
        }
    }

    /// Did anything change at all?
    pub fn is_empty(&self) -> bool {
        self.dirty_switches.is_empty() && self.dirty_hosts.is_empty()
    }
}

/// What [`Snapshot::unshared_with`] counts: components one snapshot
/// holds that are not the very allocation the other holds in the same
/// place — i.e. what was copied (or decoded) to get from one to the other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unshared {
    /// Pointer hierarchies.
    pub switches: usize,
    /// Pointer slots, live and archived, inside those hierarchies.
    pub slots: usize,
    /// Host stores.
    pub hosts: usize,
    /// Record shards inside those stores.
    pub shards: usize,
    /// Flow records inside those shards.
    pub records: usize,
}

/// The frozen deployment state the worker pool queries.
pub struct Snapshot {
    switches: HashMap<NodeId, Arc<FrozenHierarchy>>,
    hosts: HashMap<NodeId, Arc<ShardedHostStore>>,
    /// Directory-shard count the deltas report ownership against.
    dir_shards: usize,
    /// Per-switch freeze baseline: (pointer version, *logical* archive
    /// length — append-only modulo the GC-retired prefix).
    switch_base: HashMap<NodeId, (u64, usize)>,
    /// Per-host freeze baseline: (store version, trigger-log version —
    /// the monotone counter that also moves on retention trims, so a
    /// trim-then-raise coincidence can never alias an unchanged log).
    host_base: HashMap<NodeId, (u64, u64)>,
    /// Newest epoch any frozen hierarchy has seen — the horizon result
    /// caches key against.
    epoch_horizon: u64,
    /// Computational memo of decoded pointer unions: a pure function of
    /// the frozen hierarchies, so sharing it across workers cannot affect
    /// results — it only skips repeated bit-set unions. Purged per dirty
    /// switch on `apply_delta`.
    union_memo: UnionMemo,
}

impl Snapshot {
    /// Freezes the deployment state behind `analyzer` into `n_shards`
    /// shards per host, with a single-shard directory.
    pub fn capture(analyzer: &Analyzer, n_shards: usize) -> Self {
        Self::capture_with(analyzer, n_shards, 1)
    }

    /// Like [`Snapshot::capture`], but deltas report host dirtiness per
    /// directory shard (`dir_shards`-way stable host-address partition).
    pub fn capture_with(analyzer: &Analyzer, n_shards: usize, dir_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        let mut switches = HashMap::new();
        let mut switch_base = HashMap::new();
        let mut epoch_horizon = 0u64;
        for sw in analyzer.all_switches() {
            let comp = analyzer.switch(sw).expect("listed switch").borrow();
            switch_base.insert(
                sw,
                (comp.pointers.version(), comp.pointers.archive_logical_len()),
            );
            epoch_horizon = epoch_horizon.max(comp.pointers.last_epoch().unwrap_or(0));
            switches.insert(sw, Arc::new(comp.pointers.freeze()));
        }
        let mut hosts = HashMap::new();
        let mut host_base = HashMap::new();
        for h in analyzer.all_hosts() {
            let comp = analyzer.host(h).expect("listed host").borrow();
            host_base.insert(h, (comp.store.version(), comp.trigger_version()));
            hosts.insert(
                h,
                Arc::new(ShardedHostStore::freeze(
                    &comp.store,
                    comp.triggers(),
                    n_shards,
                )),
            );
        }
        Snapshot {
            switches,
            hosts,
            dir_shards: dir_shards.max(1),
            switch_base,
            host_base,
            epoch_horizon,
            union_memo: UnionMemo::new(),
        }
    }

    /// Directory-shard count the deltas report ownership against.
    pub fn dir_shards(&self) -> usize {
        self.dir_shards
    }

    /// Brings the snapshot up to date with the live deployment by copying
    /// only what changed since the last freeze: pointer slots rotated or
    /// written since the baseline, and host shards containing flows that
    /// were touched. Everything else stays shared with whatever this
    /// snapshot was cloned from. Bit-identical to a fresh
    /// [`Snapshot::capture`] at the same instant (property-tested), at
    /// asymptotically less copy work when the advance was small.
    pub fn apply_delta(&mut self, analyzer: &Analyzer) -> SnapshotDelta {
        self.apply_delta_inner(analyzer, None)
    }

    /// [`Snapshot::apply_delta`] that additionally journals every change
    /// as a shippable [`DeltaRecord`]: the pointer patches applied, the
    /// host shards rebuilt (the very `Arc`s this snapshot now holds — the
    /// journal copies nothing), and the new freeze
    /// baselines. Applying the record to a snapshot at the same prior
    /// baseline (via [`Snapshot::apply_record`]) reproduces this
    /// snapshot's post-advance state bit-for-bit — the owner side of the
    /// replication log.
    pub fn apply_delta_journaled(&mut self, analyzer: &Analyzer) -> (SnapshotDelta, DeltaRecord) {
        let mut record = DeltaRecord::default();
        let delta = self.apply_delta_inner(analyzer, Some(&mut record));
        (delta, record)
    }

    fn apply_delta_inner(
        &mut self,
        analyzer: &Analyzer,
        mut journal: Option<&mut DeltaRecord>,
    ) -> SnapshotDelta {
        let mut delta = SnapshotDelta::default();
        let mut horizon = 0u64;

        for sw in analyzer.all_switches() {
            let comp = analyzer.switch(sw).expect("listed switch").borrow();
            let live = &comp.pointers;
            horizon = horizon.max(live.last_epoch().unwrap_or(0));
            delta.full_slots += live.total_slots() as u64;
            let &(base_v, base_a) = self
                .switch_base
                .get(&sw)
                .expect("switch missing from snapshot baseline");
            if let Some(patch) = live.delta_since(base_v, base_a) {
                delta.cloned_slots += patch.copied_slots() as u64;
                Arc::make_mut(
                    self.switches
                        .get_mut(&sw)
                        .expect("snapshot switch set is fixed at capture"),
                )
                .apply_patch(&patch);
                self.switch_base
                    .insert(sw, (live.version(), live.archive_logical_len()));
                delta.dirty_switches.push(sw);
                if let Some(j) = journal.as_deref_mut() {
                    j.switches.push(SwitchPatch {
                        switch: sw,
                        patch: Arc::new(patch),
                    });
                }
            }
        }

        for h in analyzer.all_hosts() {
            let comp = analyzer.host(h).expect("listed host").borrow();
            delta.full_records += comp.store.len() as u64;
            let &(base_v, base_t) = self
                .host_base
                .get(&h)
                .expect("host missing from snapshot baseline");
            let store_delta = comp.store.changed_since(base_v);
            let triggers_changed = comp.trigger_version() != base_t;
            let frozen = self
                .hosts
                .get_mut(&h)
                .expect("snapshot host set is fixed at capture");
            let n_shards = frozen.n_shards();
            let journaled_kind = match store_delta {
                StoreDelta::Unchanged if !triggers_changed => continue,
                StoreDelta::Unchanged => {
                    // Only the trigger log moved (a raise, a retention
                    // trim, or both): re-clone it in place.
                    let store = Arc::make_mut(frozen);
                    store.triggers = comp.triggers().to_vec();
                    journal.is_some().then(|| HostPatchKind::TriggersOnly {
                        triggers: store.triggers.clone(),
                    })
                }
                StoreDelta::Flows(dirty) => {
                    let store = Arc::make_mut(frozen);
                    let (cloned, dirty_shards) =
                        store.patch_shards(&comp.store, comp.triggers(), &dirty);
                    delta.cloned_records += cloned as u64;
                    journal.is_some().then(|| HostPatchKind::Shards {
                        dirty: dirty_shards
                            .iter()
                            .map(|&s| (s as u64, Arc::clone(&store.shards[s])))
                            .collect(),
                        triggers: store.triggers.clone(),
                        total: store.total as u64,
                    })
                }
                StoreDelta::FullRescan => {
                    delta.cloned_records += comp.store.len() as u64;
                    *frozen = Arc::new(ShardedHostStore::freeze(
                        &comp.store,
                        comp.triggers(),
                        n_shards,
                    ));
                    // An eviction invalidated the per-flow journal: the
                    // store was re-frozen whole, not patched.
                    delta.rescanned_hosts.push(h);
                    journal.is_some().then(|| HostPatchKind::Full {
                        store: ShardedHostStore::clone(frozen),
                    })
                }
            };
            let new_base = (comp.store.version(), comp.trigger_version());
            if let (Some(j), Some(kind)) = (journal.as_deref_mut(), journaled_kind) {
                j.hosts.push(HostPatch {
                    host: h,
                    new_base,
                    kind,
                });
            }
            self.host_base.insert(h, new_base);
            delta.dirty_hosts.push(h);
        }

        self.epoch_horizon = horizon.max(self.epoch_horizon);
        delta.epoch_horizon = self.epoch_horizon;
        if let Some(j) = journal {
            j.epoch_horizon = self.epoch_horizon;
        }

        // Memoized pointer unions for patched switches are stale.
        if !delta.dirty_switches.is_empty() {
            let dirty: BTreeSet<NodeId> = delta.dirty_switches.iter().copied().collect();
            self.union_memo.purge_switches(&dirty);
        }
        delta
    }

    /// The replica side of the replication log: applies a journaled
    /// [`DeltaRecord`] produced by the owner's
    /// [`Snapshot::apply_delta_journaled`] (possibly sliced per shard via
    /// [`DeltaRecord::slice_for`]). Applied in-sequence to a snapshot at
    /// the owner's prior baseline, the result is `==` to the owner's
    /// post-advance snapshot. The slots and record shards the record
    /// carries are moved in by `Arc`, not copied, and nothing the record
    /// does not name is touched. A mismatched or corrupt record surfaces a
    /// typed error — the replica then re-bootstraps — never a panic.
    pub fn apply_record(&mut self, rec: &DeltaRecord) -> Result<(), WireError> {
        for sp in &rec.switches {
            let h = self.switches.get_mut(&sp.switch).ok_or_else(|| {
                WireError::Remote(format!("delta names unknown switch {:?}", sp.switch))
            })?;
            let h = Arc::make_mut(h);
            h.checked_apply_patch(&sp.patch)?;
            let base = (h.version(), h.archive_logical_len());
            self.switch_base.insert(sp.switch, base);
        }
        for hp in &rec.hosts {
            let frozen = self.hosts.get_mut(&hp.host).ok_or_else(|| {
                WireError::Remote(format!("delta names unknown host {:?}", hp.host))
            })?;
            match &hp.kind {
                HostPatchKind::TriggersOnly { triggers } => {
                    Arc::make_mut(frozen).triggers = triggers.clone();
                }
                HostPatchKind::Shards {
                    dirty,
                    triggers,
                    total,
                } => {
                    let store = Arc::make_mut(frozen);
                    let n = store.shards.len();
                    for (s, shard) in dirty {
                        let slot = store.shards.get_mut(*s as usize).ok_or_else(|| {
                            WireError::Remote(format!(
                                "delta rebuilds shard {s} of a {n}-way store"
                            ))
                        })?;
                        *slot = Arc::clone(shard);
                    }
                    store.triggers = triggers.clone();
                    store.total = *total as usize;
                }
                HostPatchKind::Full { store } => {
                    if store.n_shards() != frozen.n_shards() {
                        return Err(WireError::Remote(format!(
                            "delta store is {}-way, snapshot is {}-way",
                            store.n_shards(),
                            frozen.n_shards()
                        )));
                    }
                    *frozen = Arc::new(store.clone());
                }
            }
            self.host_base.insert(hp.host, hp.new_base);
        }
        self.epoch_horizon = self.epoch_horizon.max(rec.epoch_horizon);
        if !rec.switches.is_empty() {
            let dirty: BTreeSet<NodeId> = rec.switches.iter().map(|sp| sp.switch).collect();
            self.union_memo.purge_switches(&dirty);
        }
        Ok(())
    }

    /// The deployment-shared hash function, borrowed from any frozen
    /// hierarchy — the decode context a [`Snapshot::wire_dec`] of a peer's
    /// bytes needs. `None` only for a switchless deployment.
    pub fn mphf(&self) -> Option<&Arc<Mphf>> {
        self.switches.values().next().map(|p| p.mphf())
    }

    /// Encodes the whole snapshot (replica bootstrap). Components are
    /// written in sorted node order, so the same state always yields the
    /// same bytes.
    pub fn wire_enc(&self, e: &mut Enc) {
        e.put_usize(self.dir_shards);
        e.put_u64(self.epoch_horizon);
        let mut switches: Vec<NodeId> = self.switches.keys().copied().collect();
        switches.sort();
        e.put_usize(switches.len());
        for sw in switches {
            sw.enc(e);
            self.switches[&sw].wire_enc(e);
            self.switch_base.get(&sw).copied().unwrap_or((0, 0)).enc(e);
        }
        let mut hosts: Vec<NodeId> = self.hosts.keys().copied().collect();
        hosts.sort();
        e.put_usize(hosts.len());
        for h in hosts {
            h.enc(e);
            self.hosts[&h].enc(e);
            self.host_base.get(&h).copied().unwrap_or((0, 0)).enc(e);
        }
    }

    /// Decodes a snapshot, re-attaching the receiver's shared MPHF to
    /// every hierarchy. Never panics; round-trips to `==` when both sides
    /// hold the same MPHF `Arc`.
    pub fn wire_dec(d: &mut Dec, mphf: &Arc<Mphf>) -> Result<Self, WireError> {
        let dir_shards = d.get_usize()?.max(1);
        let epoch_horizon = d.get_u64()?;
        let n_sw = d.get_len()?;
        // One count sizes two maps: the bytes behind it must cover an
        // entry of each.
        let cap = d.reservation::<((NodeId, Arc<FrozenHierarchy>), (NodeId, (u64, usize)))>(n_sw);
        let mut switches = HashMap::with_capacity(cap);
        let mut switch_base = HashMap::with_capacity(cap);
        for _ in 0..n_sw {
            let sw = NodeId::dec(d)?;
            switches.insert(sw, Arc::new(FrozenHierarchy::wire_dec(d, mphf)?));
            switch_base.insert(sw, <(u64, usize)>::dec(d)?);
        }
        let n_hosts = d.get_len()?;
        let cap = d.reservation::<((NodeId, Arc<ShardedHostStore>), (NodeId, (u64, u64)))>(n_hosts);
        let mut hosts = HashMap::with_capacity(cap);
        let mut host_base = HashMap::with_capacity(cap);
        for _ in 0..n_hosts {
            let h = NodeId::dec(d)?;
            hosts.insert(h, Arc::<ShardedHostStore>::dec(d)?);
            host_base.insert(h, <(u64, u64)>::dec(d)?);
        }
        Ok(Snapshot {
            switches,
            hosts,
            dir_shards,
            switch_base,
            host_base,
            epoch_horizon,
            union_memo: UnionMemo::new(),
        })
    }

    /// Total flow records frozen across all hosts.
    pub fn total_records(&self) -> usize {
        self.hosts.values().map(|h| h.len()).sum()
    }

    /// Number of hosts in the snapshot.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// One directory shard's slice of this snapshot: the *host stores* —
    /// the heavy, partitioned state — restricted to `keep`, with the
    /// switch pointer hierarchies carried whole. This is what a
    /// `wireplane` shard server holds: pointer metadata is the small
    /// shared layer every analyzer instance replicates (the paper's
    /// MPHF-plus-pointer-bits footprint argument), while flow records
    /// live only on the owning instance. Reads for hosts outside `keep`
    /// answer `None`/empty, exactly like unknown hosts on a full
    /// snapshot. The slice shares every component it keeps with `self`.
    pub fn shard_slice(&self, keep: &std::collections::BTreeSet<NodeId>) -> Snapshot {
        Snapshot {
            switches: self.switches.clone(),
            hosts: self
                .hosts
                .iter()
                .filter(|(h, _)| keep.contains(h))
                .map(|(h, s)| (*h, Arc::clone(s)))
                .collect(),
            dir_shards: self.dir_shards,
            switch_base: self.switch_base.clone(),
            host_base: self
                .host_base
                .iter()
                .filter(|(h, _)| keep.contains(h))
                .map(|(h, b)| (*h, *b))
                .collect(),
            epoch_horizon: self.epoch_horizon,
            union_memo: UnionMemo::new(),
        }
    }

    /// Newest epoch any frozen pointer hierarchy has seen.
    pub fn epoch_horizon(&self) -> u64 {
        self.epoch_horizon
    }

    /// Counts the components of `self` that `other` does not hold as the
    /// same allocation under the same key (a component `other` lacks
    /// counts whole). Between a snapshot and the clone it was advanced
    /// from, this is exactly what the advance copied: a
    /// [`SnapshotDelta`]'s `dirty_*` / `cloned_*` on the owner, what the
    /// [`DeltaRecord`] named on a replica.
    pub fn unshared_with(&self, other: &Snapshot) -> Unshared {
        let mut u = Unshared::default();
        for (sw, mine) in &self.switches {
            let theirs = other.switches.get(sw);
            if theirs.is_some_and(|t| Arc::ptr_eq(mine, t)) {
                continue;
            }
            u.switches += 1;
            u.slots += theirs.map_or(mine.total_slots(), |t| mine.unshared_slots(t));
        }
        for (h, mine) in &self.hosts {
            let theirs = other.hosts.get(h);
            if theirs.is_some_and(|t| Arc::ptr_eq(mine, t)) {
                continue;
            }
            u.hosts += 1;
            for (i, shard) in mine.shards.iter().enumerate() {
                let shared = theirs
                    .and_then(|t| t.shards.get(i))
                    .is_some_and(|t| Arc::ptr_eq(shard, t));
                if !shared {
                    u.shards += 1;
                    u.records += shard.len();
                }
            }
        }
        u
    }
}

/// Debug renders the frozen data only (the union memo is a derived cache
/// whose occupancy depends on query history, not state).
impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("switches", &self.switches)
            .field("hosts", &self.hosts)
            .field("dir_shards", &self.dir_shards)
            .field("switch_base", &self.switch_base)
            .field("host_base", &self.host_base)
            .field("epoch_horizon", &self.epoch_horizon)
            .finish()
    }
}

/// Shares the frozen data — one refcount bump per hierarchy and host
/// store, no component is copied; the union memo is a derived cache and
/// starts empty in the clone (it cannot affect results, only
/// recomputation).
impl Clone for Snapshot {
    fn clone(&self) -> Self {
        Snapshot {
            switches: self.switches.clone(),
            hosts: self.hosts.clone(),
            dir_shards: self.dir_shards,
            switch_base: self.switch_base.clone(),
            host_base: self.host_base.clone(),
            epoch_horizon: self.epoch_horizon,
            union_memo: UnionMemo::new(),
        }
    }
}

/// Full-state equality of the *frozen data* (the union memo is a derived
/// cache and is excluded). This is the "delta-applied ≡ freshly captured"
/// check the property suite leans on.
impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.switches == other.switches
            && self.hosts == other.hosts
            && self.dir_shards == other.dir_shards
            && self.switch_base == other.switch_base
            && self.host_base == other.host_base
            && self.epoch_horizon == other.epoch_horizon
    }
}

impl StateView for Snapshot {
    fn pointer_union(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, Option<BitSet>> {
        let key = (switch, range.lo, range.hi);
        Deferred::Ready(self.union_memo.get(&key).or_else(|| {
            let bits = self
                .switches
                .get(&switch)?
                .pointer_union(range.lo, range.hi);
            self.union_memo.insert_capped(key, &bits);
            Some(bits)
        }))
    }

    fn pointer_contains_exact(
        &self,
        switch: NodeId,
        addr: u64,
        epoch: u64,
    ) -> Option<Option<bool>> {
        self.switches
            .get(&switch)
            .map(|p| p.contains_within(addr, epoch, 1))
    }

    fn presence_wave(&self, switches: &[NodeId], addr: u64, range: EpochRange) -> Vec<bool> {
        switches
            .iter()
            .map(|sw| {
                self.switches
                    .get(sw)
                    .is_some_and(|p| p.contains_exact_in(addr, range.lo, range.hi))
            })
            .collect()
    }

    fn store_len(&self, host: NodeId) -> Option<usize> {
        self.hosts.get(&host).map(|h| h.len())
    }

    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
        self.hosts.get(&host)?.record(flow).cloned()
    }

    fn flows_matching(&self, host: NodeId, switch: NodeId, range: EpochRange) -> Vec<FlowRecord> {
        match self.hosts.get(&host) {
            Some(h) => h
                .flows_matching(switch, range)
                .into_iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    fn top_k_through(&self, host: NodeId, switch: NodeId, k: usize) -> Vec<(FlowId, u64)> {
        match self.hosts.get(&host) {
            Some(h) => h.top_k_through(switch, k),
            None => Vec::new(),
        }
    }

    fn sizes_by_link(&self, host: NodeId, switch: NodeId) -> Vec<(u16, u64)> {
        match self.hosts.get(&host) {
            Some(h) => h.sizes_by_link(switch),
            None => Vec::new(),
        }
    }

    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent> {
        self.hosts
            .get(&host)?
            .triggers
            .iter()
            .find(|t| t.flow == flow)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::prelude::*;
    use switchpointer::testbed::{Testbed, TestbedConfig};
    use telemetry::frame::{Dec, Enc};

    fn chain_testbed() -> Testbed {
        let topo = Topology::chain(3, 2, GBPS);
        let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
        let (a, b) = (tb.node("A"), tb.node("B"));
        let (d, f) = (tb.node("D"), tb.node("F"));
        tb.sim.add_udp_flow(UdpFlowSpec {
            src: a,
            dst: f,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(30),
            rate_bps: 80_000_000,
            payload_bytes: 1458,
        });
        tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
            d,
            b,
            Priority::LOW,
            SimTime::ZERO,
            400_000,
        ));
        tb
    }

    /// The replication-log kernel: a journaled delta, shipped as bytes and
    /// applied to a standby at the same baseline, reproduces the owner's
    /// post-advance snapshot exactly — repeatedly, across several epochs.
    #[test]
    fn journaled_delta_replays_to_equality_over_the_wire() {
        let mut tb = chain_testbed();
        let analyzer = tb.analyzer();
        tb.sim.run_until(SimTime::from_ms(2));
        let mut owner = Snapshot::capture_with(&analyzer, 3, 2);
        let mut standby = owner.clone();
        assert_eq!(owner, standby);

        for t_ms in [5u64, 9, 14, 22] {
            tb.sim.run_until(SimTime::from_ms(t_ms));
            let (_, record) = owner.apply_delta_journaled(&analyzer);
            let mut e = Enc::new();
            record.enc(&mut e);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let decoded = DeltaRecord::dec(&mut d).expect("record decodes");
            d.finish().expect("no trailing bytes");
            standby.apply_record(&decoded).expect("record applies");
            assert_eq!(owner, standby, "diverged after advance to {t_ms}ms");
        }
    }

    /// Bootstrap path: a full snapshot round-trips through its wire form
    /// to equality when the receiver re-attaches the same shared MPHF.
    #[test]
    fn snapshot_wire_roundtrip_bootstraps_to_equality() {
        let mut tb = chain_testbed();
        let analyzer = tb.analyzer();
        tb.sim.run_until(SimTime::from_ms(8));
        let snap = Snapshot::capture_with(&analyzer, 2, 2);
        let mphf = snap.mphf().expect("chain has switches").clone();

        let mut e = Enc::new();
        snap.wire_enc(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let decoded = Snapshot::wire_dec(&mut d, &mphf).expect("snapshot decodes");
        d.finish().expect("no trailing bytes");
        assert_eq!(snap, decoded);

        // Truncation never panics: every strict prefix is a typed error.
        for cut in 0..bytes.len().min(64) {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(Snapshot::wire_dec(&mut d, &mphf).is_err() || d.finish().is_err());
        }
    }

    /// The satellite fix: an all-GC'd (empty) delta must report 0.0
    /// savings — finite and meaningful — never NaN from 0/0 and never a
    /// spurious ∞.
    #[test]
    fn savings_guards_the_all_gcd_empty_delta() {
        let empty = SnapshotDelta::default();
        assert_eq!(empty.savings(), 0.0);
        assert!(!empty.savings().is_nan());

        // A genuinely idle delta over live state is still ∞ (a recapture
        // would copy plenty, the delta copied nothing).
        let idle = SnapshotDelta {
            full_records: 100,
            full_slots: 10,
            ..SnapshotDelta::default()
        };
        assert_eq!(idle.savings(), f64::INFINITY);

        // And a normal delta reports the plain ratio.
        let normal = SnapshotDelta {
            cloned_records: 10,
            cloned_slots: 0,
            full_records: 50,
            full_slots: 0,
            ..SnapshotDelta::default()
        };
        assert_eq!(normal.savings(), 5.0);
    }
}
