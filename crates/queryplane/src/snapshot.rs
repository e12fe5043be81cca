//! An immutable, thread-safe snapshot of deployment state.
//!
//! The live deployment shares its component state through
//! `Rc<RefCell<…>>` handles, which cannot cross threads. The query plane
//! therefore holds the state it queries in `Arc`s: switch pointer
//! hierarchies are frozen ([`FrozenHierarchy`]: bit-set slots + an
//! `Arc<Mphf>`), and each host's flow records are the live
//! [`FlowStore`]'s own [`RecordShard`](switchpointer::hoststore::RecordShard)s
//! — a store has one form, live or captured — so concurrent queries
//! touching different flows walk disjoint memory.
//!
//! ## Structural sharing
//!
//! Every component sits behind an `Arc`: each switch's hierarchy (and,
//! inside it, each slot), each host (and, inside its store, each record
//! shard). [`Snapshot::capture`], [`Snapshot::clone`] and
//! [`Snapshot::shard_slice`] are therefore refcount bumps, and an advance
//! — [`Snapshot::apply_delta`] on the owner, [`Snapshot::apply_record`] on
//! a replica — copies on write only the components it names
//! (`Arc::make_mut` on the way down, a replaced `Arc` at the leaf).
//! Nothing behind a shared `Arc` is ever mutated, so a clone handed to
//! readers is as immutable as a deep copy was; `==` and `Debug` read
//! through the `Arc`s and see the same values. [`Snapshot::unshared_with`]
//! counts what two snapshots do *not* share — the identity tests hold
//! "copied == named" with it.
//!
//! [`Snapshot`] implements [`StateView`] through the same [`FlowStore`]
//! scans the live view calls, so its answers are the live view's. The
//! verdict-equivalence integration test pins this down.
//!
//! ## Incremental refresh
//!
//! Capturing records a per-component baseline: a switch's mutation
//! counter plus its pointer archive's logical length, a host's trigger-log
//! version. [`Snapshot::apply_delta`] asks each switch what changed since
//! its baseline
//! ([`PointerHierarchy::delta_since`](switchpointer::pointer::PointerHierarchy::delta_since))
//! and re-copies only the dirty slots. A host needs no journal: the live
//! store copies a record shard on its first write after a capture, so
//! the shards whose `Arc` the snapshot no longer shares with the live
//! store ([`FlowStore::unshared_with`]) are exactly the changed ones, and
//! the refresh takes them by refcount. The property suite
//! (`tests/streamplane_props.rs`) pins the invariant: any interleaving of
//! simulation advance and `apply_delta` yields a snapshot `==` to a fresh
//! [`Snapshot::capture`] at the same instant.

use std::collections::BTreeSet;
use std::sync::Arc;

use mphf::Mphf;
use netsim::packet::{FlowId, NodeId};
use switchpointer::bitset::BitSet;
use switchpointer::host::{HostComponent, TriggerEvent};
use switchpointer::hoststore::{FlowRecord, FlowStore, RECORD_SHARDS};
use switchpointer::keyhash::KeyMap;
use switchpointer::pointer::FrozenHierarchy;
use switchpointer::query::{
    host_wave, Deferred, FilterWaveReply, SizesWaveReply, StateView, TopKWaveReply,
};
use switchpointer::Analyzer;
use telemetry::frame::{Dec, Enc, Wire, WireError};
use telemetry::EpochRange;

use crate::repl::{DeltaRecord, HostPatch, HostPatchKind, SwitchPatch};

/// A host as a snapshot holds it: the live store's record shards, taken
/// by `Arc`, plus its trigger log.
#[derive(Debug, Clone, PartialEq)]
struct FrozenHost {
    store: FlowStore,
    triggers: Vec<TriggerEvent>,
    /// The trigger log's version when it was taken — the monotone counter
    /// that also moves on retention trims, so a trim-then-raise
    /// coincidence can never alias an unchanged log.
    trigger_version: u64,
}

impl FrozenHost {
    fn take(comp: &HostComponent) -> Self {
        FrozenHost {
            store: comp.store.clone(),
            triggers: comp.triggers().to_vec(),
            trigger_version: comp.trigger_version(),
        }
    }

    /// The baseline a delta ships: `(store version, trigger version)`.
    fn base(&self) -> (u64, u64) {
        (self.store.version(), self.trigger_version)
    }
}

/// A host travels as its record shards, its trigger log, its record
/// count and its baseline. Decode refuses a store that is not
/// [`RECORD_SHARDS`]-way, a record outside its shard, or a count that is
/// not the shards' total.
impl Wire for FrozenHost {
    fn enc(&self, e: &mut Enc) {
        let shards = self.store.shards();
        e.put_usize(shards.len());
        for shard in shards {
            shard.enc(e);
        }
        self.triggers.enc(e);
        e.put_u64(self.store.len() as u64);
        self.base().enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let shards = Vec::dec(d)?;
        let triggers = Vec::dec(d)?;
        let total = d.get_u64()?;
        let (version, trigger_version) = <(u64, u64)>::dec(d)?;
        let store = FlowStore::from_shards(shards, version)?;
        check_total(&store, total)?;
        Ok(FrozenHost {
            store,
            triggers,
            trigger_version,
        })
    }
}

/// Refuses a shipped record count that is not what the store holds.
fn check_total(store: &FlowStore, total: u64) -> Result<(), WireError> {
    if store.len() as u64 != total {
        return Err(WireError::Remote(format!(
            "host store claims {total} records but its shards hold {}",
            store.len()
        )));
    }
    Ok(())
}

/// What one [`Snapshot::apply_delta`] touched and what it cost, against
/// the counterfactual of a full recapture. The dirty hosts are what
/// replication ships.
#[derive(Debug, Clone, Default)]
pub struct SnapshotDelta {
    /// Switches whose pointer state changed since the last freeze (sorted).
    pub dirty_switches: Vec<NodeId>,
    /// Hosts whose store or trigger log changed since the last freeze
    /// (sorted).
    pub dirty_hosts: Vec<NodeId>,
    /// Flow records in the record shards this delta took from the live
    /// stores — the shards their first write since the last freeze
    /// copied.
    pub cloned_records: u64,
    /// Pointer slots (live + archived) actually cloned by this delta.
    pub cloned_slots: u64,
    /// Flow records the live stores hold — what copying every store
    /// whole would clone instead.
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

/// The frozen deployment state the worker pool queries. `Clone` shares
/// the frozen data — one refcount bump per hierarchy and host, no
/// component is copied — and `==` is full-state equality, the
/// "delta-applied ≡ freshly captured" check the property suite leans on.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    switches: KeyMap<NodeId, Arc<FrozenHierarchy>>,
    hosts: KeyMap<NodeId, Arc<FrozenHost>>,
    /// Directory-shard count the deltas report ownership against.
    dir_shards: usize,
    /// Per-switch freeze baseline: (pointer version, *logical* archive
    /// length — append-only modulo the GC-retired prefix).
    switch_base: KeyMap<NodeId, (u64, usize)>,
    /// Newest epoch any frozen hierarchy has seen.
    epoch_horizon: u64,
}

impl Snapshot {
    /// Takes the deployment state behind `analyzer`, with a single-shard
    /// directory. `n_shards` is the per-host record-shard count, which is
    /// fixed: anything but [`RECORD_SHARDS`] panics.
    pub fn capture(analyzer: &Analyzer, n_shards: usize) -> Self {
        Self::capture_with(analyzer, n_shards, 1)
    }

    /// Like [`Snapshot::capture`], but deltas report host dirtiness per
    /// directory shard (`dir_shards`-way stable host-address partition).
    pub fn capture_with(analyzer: &Analyzer, n_shards: usize, dir_shards: usize) -> Self {
        assert_eq!(
            n_shards, RECORD_SHARDS,
            "a host store has {RECORD_SHARDS} record shards"
        );
        let mut switches = KeyMap::default();
        let mut switch_base = KeyMap::default();
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
        let hosts = analyzer
            .all_hosts()
            .into_iter()
            .map(|h| {
                let comp = analyzer.host(h).expect("listed host").borrow();
                (h, Arc::new(FrozenHost::take(&comp)))
            })
            .collect();
        Snapshot {
            switches,
            hosts,
            dir_shards: dir_shards.max(1),
            switch_base,
            epoch_horizon,
        }
    }

    /// Brings the snapshot up to date with the live deployment by copying
    /// only what changed since the last freeze: pointer slots rotated or
    /// written since the baseline, and — by refcount — the host record
    /// shards the live stores have written since. Everything else stays
    /// shared with whatever this snapshot was cloned from. Bit-identical
    /// to a fresh [`Snapshot::capture`] at the same instant
    /// (property-tested), at asymptotically less copy work when the
    /// advance was small.
    pub fn apply_delta(&mut self, analyzer: &Analyzer) -> SnapshotDelta {
        self.apply_delta_inner(analyzer, None)
    }

    /// [`Snapshot::apply_delta`] that additionally journals every change
    /// as a shippable [`DeltaRecord`]: the pointer patches applied, the
    /// record shards taken (the very `Arc`s this snapshot now holds — the
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
            let frozen = self
                .hosts
                .get_mut(&h)
                .expect("snapshot host set is fixed at capture");
            let dirty: Vec<usize> = comp.store.unshared_with(&frozen.store).collect();
            if dirty.is_empty() && comp.trigger_version() == frozen.trigger_version {
                continue;
            }
            *frozen = Arc::new(FrozenHost::take(&comp));
            let shards = frozen.store.shards();
            delta.cloned_records += dirty.iter().map(|&i| shards[i].len() as u64).sum::<u64>();
            if let Some(j) = journal.as_deref_mut() {
                let triggers = frozen.triggers.clone();
                j.hosts.push(HostPatch {
                    host: h,
                    new_base: frozen.base(),
                    kind: if dirty.is_empty() {
                        HostPatchKind::TriggersOnly { triggers }
                    } else {
                        HostPatchKind::Shards {
                            dirty: dirty
                                .iter()
                                .map(|&i| (i as u64, Arc::clone(&shards[i])))
                                .collect(),
                            triggers,
                            total: frozen.store.len() as u64,
                        }
                    },
                });
            }
            delta.dirty_hosts.push(h);
        }

        self.epoch_horizon = horizon.max(self.epoch_horizon);
        delta.epoch_horizon = self.epoch_horizon;
        if let Some(j) = journal {
            j.epoch_horizon = self.epoch_horizon;
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
    /// does not name is touched. A mismatched or corrupt record — an
    /// unknown component, a shard index past [`RECORD_SHARDS`], a record
    /// outside its shard, a record count that is not the patched store's
    /// — surfaces a typed error (the replica then re-bootstraps), never a
    /// panic.
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
            let (version, trigger_version) = hp.new_base;
            let (store, triggers) = match &hp.kind {
                HostPatchKind::TriggersOnly { triggers } => {
                    (frozen.store.with_shards(&[], version)?, triggers)
                }
                HostPatchKind::Shards {
                    dirty,
                    triggers,
                    total,
                } => {
                    let store = frozen.store.with_shards(dirty, version)?;
                    check_total(&store, *total)?;
                    (store, triggers)
                }
            };
            *frozen = Arc::new(FrozenHost {
                store,
                triggers: triggers.clone(),
                trigger_version,
            });
        }
        self.epoch_horizon = self.epoch_horizon.max(rec.epoch_horizon);
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
        let mut switches = KeyMap::with_capacity_and_hasher(cap, Default::default());
        let mut switch_base = KeyMap::with_capacity_and_hasher(cap, Default::default());
        for _ in 0..n_sw {
            let sw = NodeId::dec(d)?;
            switches.insert(sw, Arc::new(FrozenHierarchy::wire_dec(d, mphf)?));
            switch_base.insert(sw, <(u64, usize)>::dec(d)?);
        }
        let n_hosts = d.get_len()?;
        // Grown as hosts decode, so a hostile count reserves nothing.
        let mut hosts = KeyMap::default();
        for _ in 0..n_hosts {
            hosts.insert(NodeId::dec(d)?, Arc::<FrozenHost>::dec(d)?);
        }
        Ok(Snapshot {
            switches,
            hosts,
            dir_shards,
            switch_base,
            epoch_horizon,
        })
    }

    /// Total flow records frozen across all hosts.
    pub fn total_records(&self) -> usize {
        self.hosts.values().map(|h| h.store.len()).sum()
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
    pub fn shard_slice(&self, keep: &BTreeSet<NodeId>) -> Snapshot {
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
            epoch_horizon: self.epoch_horizon,
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
            let shards = mine.store.shards();
            let unshared: Vec<usize> = match theirs {
                Some(t) => mine.store.unshared_with(&t.store).collect(),
                None => (0..shards.len()).collect(),
            };
            u.shards += unshared.len();
            u.records += unshared.iter().map(|&i| shards[i].len()).sum::<usize>();
        }
        u
    }
}

impl Snapshot {
    fn store(&self, host: NodeId) -> Option<&FlowStore> {
        self.hosts.get(&host).map(|h| &h.store)
    }
}

impl StateView for Snapshot {
    fn pointer_union(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, Option<BitSet>> {
        Deferred::Ready(
            self.switches
                .get(&switch)
                .map(|p| p.pointer_union(range.lo, range.hi)),
        )
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

    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
        self.store(host)?.record(flow).cloned()
    }

    fn filter_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'_, FilterWaveReply> {
        Deferred::Ready(host_wave(
            hosts,
            |h| self.store(h),
            |s| {
                s.flows_matching(switch, range)
                    .into_iter()
                    .cloned()
                    .collect()
            },
        ))
    }

    fn top_k_wave(&self, hosts: &[NodeId], switch: NodeId, k: usize) -> TopKWaveReply {
        host_wave(hosts, |h| self.store(h), |s| s.top_k_through(switch, k))
    }

    fn sizes_wave(&self, hosts: &[NodeId], switch: NodeId) -> SizesWaveReply {
        host_wave(hosts, |h| self.store(h), |s| s.sizes_by_link(switch))
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

    /// The chain with a long UDP flow `A → F` and a TCP transfer `D → B`.
    fn two_flow_chain() -> Testbed {
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
        let mut tb = two_flow_chain();
        let analyzer = tb.analyzer();
        tb.sim.run_until(SimTime::from_ms(2));
        let mut owner = Snapshot::capture_with(&analyzer, RECORD_SHARDS, 2);
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
        let mut tb = two_flow_chain();
        let analyzer = tb.analyzer();
        tb.sim.run_until(SimTime::from_ms(8));
        let snap = Snapshot::capture_with(&analyzer, RECORD_SHARDS, 2);
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
