//! The end-host flow-record store (§4.2, §6 "implemented using MongoDB").
//!
//! One record per flow terminating at this host, holding what the paper's
//! OVS module keeps: the flow's 5-tuple identity (our [`FlowId`] + endpoint
//! metadata), the list of switches visited, the epoch ranges at each
//! switch, byte/packet counts (total and per epoch), the DSCP priority,
//! and — beyond the paper's list — the sampled link VID, which is what the
//! load-imbalance query groups by.
//!
//! The store answers the analyzer's two query shapes:
//! * *filter*: flows that traversed switch S during epoch range E
//!   (the "(switchID, epochID) pair" filter of §1);
//! * *aggregate*: top-k flows by bytes, flow-size distributions.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use netsim::packet::{FlowId, NodeId, Priority, Protocol};
use telemetry::frame::{Dec, Enc, Wire, WireError};
use telemetry::{DecodedTelemetry, EpochRange};

/// The epochs one switch may have processed a flow in, kept as the paper
/// keeps them — as ranges: sorted, disjoint, non-adjacent runs. A flow
/// that keeps sending visits consecutive epochs, so its set is almost
/// always one run however many epochs it spans (92 % of the per-switch
/// sets at the end of `watch_stream` seed 1; 33 374 epochs in 2 476 runs).
/// Because the form is canonical, `==` is set equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochSet {
    runs: Vec<EpochRange>,
}

impl EpochSet {
    /// Adds every epoch of `r`, merging the runs it overlaps or touches.
    /// An inverted range (`lo > hi`) holds no epoch and adds nothing.
    pub fn insert(&mut self, r: EpochRange) {
        if r.lo > r.hi {
            return;
        }
        // Runs before `i` end more than one epoch before `r` starts; runs
        // from `j` on start more than one epoch after it ends. Everything
        // between overlaps or touches `r` and folds into one run.
        let i = self.runs.partition_point(|x| x.hi.saturating_add(1) < r.lo);
        let j = self
            .runs
            .partition_point(|x| x.lo <= r.hi.saturating_add(1));
        if i == j {
            self.runs.insert(i, r);
            return;
        }
        self.runs[i] = EpochRange {
            lo: r.lo.min(self.runs[i].lo),
            hi: r.hi.max(self.runs[j - 1].hi),
        };
        self.runs.drain(i + 1..j);
    }

    /// Index of the first run that ends at or after `lo`.
    fn first_ending_from(&self, lo: u64) -> usize {
        self.runs.partition_point(|x| x.hi < lo)
    }

    /// Does any epoch of `range` lie in the set?
    pub fn intersects(&self, range: EpochRange) -> bool {
        range.lo <= range.hi
            && self
                .runs
                .get(self.first_ending_from(range.lo))
                .is_some_and(|x| x.lo <= range.hi)
    }

    /// The set's epochs within `range`, ascending.
    pub fn epochs_in(&self, range: EpochRange) -> impl Iterator<Item = u64> + '_ {
        self.runs[self.first_ending_from(range.lo)..]
            .iter()
            .take_while(move |x| x.lo <= range.hi)
            .flat_map(move |x| x.lo.max(range.lo)..=x.hi.min(range.hi))
    }

    pub fn contains(&self, epoch: u64) -> bool {
        self.intersects(EpochRange::exact(epoch))
    }

    /// The newest epoch in the set.
    pub fn last(&self) -> Option<u64> {
        self.runs.last().map(|x| x.hi)
    }

    /// Number of epochs (saturating at `u64::MAX` for the one set that
    /// holds all 2^64).
    pub fn len(&self) -> u64 {
        self.runs.iter().fold(0u64, |n, x| {
            n.saturating_add((x.hi - x.lo).saturating_add(1))
        })
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Every epoch, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|x| x.lo..=x.hi)
    }

    /// The maximal runs, ascending.
    pub fn runs(&self) -> &[EpochRange] {
        &self.runs
    }
}

impl FromIterator<u64> for EpochSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut set = EpochSet::default();
        for e in iter {
            set.insert(EpochRange::exact(e));
        }
        set
    }
}

/// A run count, then each run as `(lo, hi − lo)`, all var-ints. Decode
/// accepts only the canonical form [`EpochSet::insert`] builds — strictly
/// ascending, non-adjacent runs whose `lo + len` does not overflow — so
/// encode∘decode is the identity on every accepted input.
impl Wire for EpochSet {
    fn enc(&self, e: &mut Enc) {
        e.put_varint(self.runs.len() as u64);
        for x in &self.runs {
            e.put_varint(x.lo);
            e.put_varint(x.hi - x.lo);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = d.get_varint()?;
        // A run is at least two bytes, so `n` fits in a `usize` past this.
        if n > (d.remaining() / 2) as u64 {
            return Err(WireError::Truncated {
                needed: usize::try_from(n.saturating_mul(2)).unwrap_or(usize::MAX),
                have: d.remaining(),
            });
        }
        let n = n as usize;
        let mut runs: Vec<EpochRange> = Vec::with_capacity(d.reservation::<EpochRange>(n));
        for _ in 0..n {
            let lo = d.get_varint()?;
            let len = d.get_varint()?;
            let hi = lo.checked_add(len).ok_or_else(|| {
                WireError::Remote(format!("epoch run {lo} + {len} overflows u64"))
            })?;
            if let Some(prev) = runs.last() {
                if prev.hi.checked_add(1).is_none_or(|next| lo <= next) {
                    return Err(WireError::Remote(format!(
                        "epoch run {lo}..={hi} does not start past {}..={} + 1",
                        prev.lo, prev.hi
                    )));
                }
            }
            runs.push(EpochRange { lo, hi });
        }
        Ok(EpochSet { runs })
    }
}

/// A stored flow record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    pub flow: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    pub protocol: Protocol,
    /// DSCP value — the paper stores it to reason about priority contention.
    pub priority: Priority,
    pub bytes: u64,
    pub packets: u64,
    /// Switches on the flow's path, in traversal order.
    pub path: Vec<NodeId>,
    /// Epochs each switch may have processed this flow's packets in (the
    /// union of per-packet decoded ranges).
    pub epochs_at: BTreeMap<NodeId, EpochSet>,
    /// Payload bytes per epoch of the *tagging* switch (exact epochs — this
    /// is the per-epoch byte count series the §5.1 alert carries).
    pub bytes_per_epoch: BTreeMap<u64, u64>,
    /// Link VID sampled in the packets' telemetry (identifies e.g. which
    /// parallel core link the flow used — the Fig. 8 grouping key).
    pub link_vid: Option<u16>,
}

impl FlowRecord {
    /// Did any packet of this flow possibly traverse `switch` during any
    /// epoch of `range`?
    pub fn matches(&self, switch: NodeId, range: EpochRange) -> bool {
        self.epochs_at
            .get(&switch)
            .is_some_and(|set| set.intersects(range))
    }

    /// The newest epoch any switch recorded for this flow — what retention
    /// sweeps compare against the eviction floor. A record whose newest
    /// epoch predates the floor cannot match any retained epoch range.
    pub fn newest_epoch(&self) -> Option<u64> {
        self.epochs_at.values().filter_map(EpochSet::last).max()
    }
}

impl Wire for FlowRecord {
    fn enc(&self, e: &mut Enc) {
        self.flow.enc(e);
        self.src.enc(e);
        self.dst.enc(e);
        self.protocol.enc(e);
        self.priority.enc(e);
        e.put_u64(self.bytes);
        e.put_u64(self.packets);
        self.path.enc(e);
        self.epochs_at.enc(e);
        self.bytes_per_epoch.enc(e);
        self.link_vid.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(FlowRecord {
            flow: FlowId::dec(d)?,
            src: NodeId::dec(d)?,
            dst: NodeId::dec(d)?,
            protocol: Protocol::dec(d)?,
            priority: Priority::dec(d)?,
            bytes: d.get_u64()?,
            packets: d.get_u64()?,
            path: Vec::dec(d)?,
            epochs_at: BTreeMap::dec(d)?,
            bytes_per_epoch: BTreeMap::dec(d)?,
            link_vid: Option::dec(d)?,
        })
    }
}

/// Stable shard assignment of a flow: [`mphf::stable_shard`] (a splitmix64
/// finalizer reduced mod `n_shards`) over the flow id. Every layer that
/// partitions by key — flow records here, directory hosts in
/// [`crate::shard`] — uses this one function, so a key lands in the same
/// shard everywhere.
pub fn shard_of(flow: FlowId, n_shards: usize) -> usize {
    mphf::stable_shard(flow.0, n_shards)
}

/// Cuts `flows` down to its `k` largest by bytes, in `(bytes desc, flow
/// asc)` order — the order of every top-k answer. Selects the `k` first
/// and sorts only those; the key is a total order (flow ids are unique),
/// so the result is exactly what sorting everything and truncating gives.
pub fn keep_top_k(flows: &mut Vec<(FlowId, u64)>, k: usize) {
    let key = |&(f, b): &(FlowId, u64)| (std::cmp::Reverse(b), f);
    if k == 0 {
        flows.clear();
        return;
    }
    if flows.len() > k {
        flows.select_nth_unstable_by_key(k - 1, key);
        flows.truncate(k);
    }
    flows.sort_unstable_by_key(key);
}

/// What changed in a [`FlowStore`] since a recorded version baseline —
/// the input to incremental snapshot refresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreDelta {
    /// No mutation since the baseline.
    Unchanged,
    /// Only these flows were touched (ascending flow id); every shard not
    /// containing one of them is byte-identical to the baseline.
    Flows(Vec<FlowId>),
    /// Records were evicted since the baseline: per-flow journaling cannot
    /// express removals, so the caller must re-freeze the whole store.
    FullRescan,
}

/// The per-host store.
#[derive(Debug, Default)]
pub struct FlowStore {
    records: HashMap<FlowId, FlowRecord>,
    /// Secondary index: switch -> flows that reported it on their path.
    by_switch: HashMap<NodeId, BTreeSet<FlowId>>,
    /// Monotone mutation counter (bumps once per ingest / eviction pass).
    version: u64,
    /// flow -> version at which it was last mutated (dirty-set journal for
    /// incremental snapshot refresh; one u64 per live record).
    modified_at: HashMap<FlowId, u64>,
    /// Version of the most recent eviction, if any (evictions invalidate
    /// the per-flow journal for older baselines).
    last_eviction: u64,
}

impl FlowStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one decoded packet.
    #[allow(clippy::too_many_arguments)]
    pub fn ingest(
        &mut self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        protocol: Protocol,
        priority: Priority,
        payload: u32,
        telemetry: &DecodedTelemetry,
        link_vid: Option<u16>,
    ) {
        self.version += 1;
        self.modified_at.insert(flow, self.version);
        let rec = self.records.entry(flow).or_insert_with(|| FlowRecord {
            flow,
            src,
            dst,
            protocol,
            priority,
            bytes: 0,
            packets: 0,
            path: telemetry.path(),
            epochs_at: BTreeMap::new(),
            bytes_per_epoch: BTreeMap::new(),
            link_vid,
        });
        rec.bytes += payload as u64;
        rec.packets += 1;
        if rec.link_vid.is_none() {
            rec.link_vid = link_vid;
        }
        for hop in &telemetry.hops {
            rec.epochs_at
                .entry(hop.switch)
                .or_default()
                .insert(hop.epochs);
            self.by_switch.entry(hop.switch).or_default().insert(flow);
        }
        // Exact per-epoch accounting at the tagging switch.
        if let Some(tag_hop) = telemetry.hops.get(telemetry.tag_idx) {
            if tag_hop.epochs.len() == 1 {
                *rec.bytes_per_epoch.entry(tag_hop.epochs.lo).or_insert(0) += payload as u64;
            }
        }
    }

    /// Number of flow records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// A flow's record, if stored.
    pub fn record(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.records.get(&flow)
    }

    /// All records (deterministic order by flow id).
    pub fn records(&self) -> impl Iterator<Item = &FlowRecord> {
        let mut v: Vec<&FlowRecord> = self.records.values().collect();
        v.sort_by_key(|r| r.flow);
        v.into_iter()
    }

    /// Shard-aware iteration: the records of `shard` (of `n_shards`), in
    /// deterministic ascending-flow-id order. The union over all shards is
    /// exactly [`FlowStore::records`]; shards are disjoint.
    pub fn records_in_shard(
        &self,
        shard: usize,
        n_shards: usize,
    ) -> impl Iterator<Item = &FlowRecord> {
        self.records()
            .filter(move |r| shard_of(r.flow, n_shards) == shard)
    }

    /// *Filter query* restricted to one shard: flows of `shard` that
    /// traversed `switch` during `range`.
    pub fn flows_matching_in_shard(
        &self,
        switch: NodeId,
        range: EpochRange,
        shard: usize,
        n_shards: usize,
    ) -> Vec<&FlowRecord> {
        self.flows_matching(switch, range)
            .into_iter()
            .filter(|r| shard_of(r.flow, n_shards) == shard)
            .collect()
    }

    /// *Filter query*: flows that traversed `switch` during `range`.
    pub fn flows_matching(&self, switch: NodeId, range: EpochRange) -> Vec<&FlowRecord> {
        let Some(candidates) = self.by_switch.get(&switch) else {
            return Vec::new();
        };
        candidates
            .iter()
            .filter_map(|f| self.records.get(f))
            .filter(|r| r.matches(switch, range))
            .collect()
    }

    /// *Aggregate query*: top-k flows through `switch` by byte count
    /// (the Fig. 12 query).
    pub fn top_k_through(&self, switch: NodeId, k: usize) -> Vec<(FlowId, u64)> {
        let mut flows: Vec<(FlowId, u64)> = self
            .by_switch
            .get(&switch)
            .map(|set| {
                set.iter()
                    .filter_map(|f| self.records.get(f))
                    .map(|r| (r.flow, r.bytes))
                    .collect()
            })
            .unwrap_or_default();
        keep_top_k(&mut flows, k);
        flows
    }

    /// Retention: drops flow records whose newest epoch (at any switch) is
    /// older than `horizon_epoch`. The paper's host store ("initially
    /// maintained in memory and flushed to a local storage") is similarly
    /// bounded; we drop instead of spooling since queries target recent
    /// state. Returns the number of records evicted.
    ///
    /// An eviction also *compacts the journal*: every pre-eviction
    /// baseline gets [`StoreDelta::FullRescan`] regardless of per-flow
    /// stamps, and any baseline taken afterwards is ≥ the eviction
    /// version — so no surviving `modified_at` entry can ever satisfy a
    /// `changed_since` again. The whole journal is dropped (live records
    /// re-enter it on their next mutation) and emptied per-switch index
    /// sets go with it, so a long-lived store's bookkeeping shrinks with
    /// its records instead of accreting tombstones.
    pub fn evict_older_than(&mut self, horizon_epoch: u64) -> usize {
        let stale: Vec<FlowId> = self
            .records
            .values()
            .filter(|r| r.newest_epoch().map(|e| e < horizon_epoch).unwrap_or(true))
            .map(|r| r.flow)
            .collect();
        if stale.is_empty() {
            return 0;
        }
        self.version += 1;
        self.last_eviction = self.version;
        for f in &stale {
            let Some(rec) = self.records.remove(f) else {
                continue;
            };
            // `ingest` indexed the flow under exactly its `epochs_at` keys.
            for sw in rec.epochs_at.keys() {
                if let Entry::Occupied(mut set) = self.by_switch.entry(*sw) {
                    set.get_mut().remove(f);
                    if set.get().is_empty() {
                        set.remove();
                    }
                }
            }
        }
        self.modified_at.clear();
        stale.len()
    }

    /// The monotone mutation counter (bumps once per ingest / eviction).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// What changed since the `version` baseline. `Flows` lists touched
    /// flows ascending; `FullRescan` means an eviction invalidated the
    /// journal for this baseline.
    pub fn changed_since(&self, version: u64) -> StoreDelta {
        if self.version == version {
            return StoreDelta::Unchanged;
        }
        if self.last_eviction > version {
            return StoreDelta::FullRescan;
        }
        let mut flows: Vec<FlowId> = self
            .modified_at
            .iter()
            .filter(|&(_, &v)| v > version)
            .map(|(&f, _)| f)
            .collect();
        flows.sort();
        StoreDelta::Flows(flows)
    }

    /// *Aggregate query*: (link VID, flow bytes) pairs for flows through
    /// `switch` — the Fig. 8 flow-size-distribution-per-egress query.
    pub fn sizes_by_link(&self, switch: NodeId) -> Vec<(u16, u64)> {
        let mut out: Vec<(u16, u64)> = self
            .by_switch
            .get(&switch)
            .map(|set| {
                set.iter()
                    .filter_map(|f| self.records.get(f))
                    .filter_map(|r| r.link_vid.map(|l| (l, r.bytes)))
                    .collect()
            })
            .unwrap_or_default();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{EpochRange, HopTelemetry};

    fn telem(hops: &[(u32, u64, u64)], tag_idx: usize) -> DecodedTelemetry {
        DecodedTelemetry {
            hops: hops
                .iter()
                .map(|&(sw, lo, hi)| HopTelemetry {
                    switch: NodeId(sw),
                    epochs: EpochRange { lo, hi },
                })
                .collect(),
            tag_idx,
        }
    }

    fn ingest_simple(store: &mut FlowStore, flow: u64, bytes: u32, hops: &[(u32, u64, u64)]) {
        store.ingest(
            FlowId(flow),
            NodeId(100),
            NodeId(101),
            Protocol::Udp,
            Priority::LOW,
            bytes,
            &telem(hops, 0),
            Some(7),
        );
    }

    #[test]
    fn ingest_accumulates_per_flow() {
        let mut s = FlowStore::new();
        ingest_simple(&mut s, 1, 1000, &[(0, 5, 5), (1, 4, 6)]);
        ingest_simple(&mut s, 1, 500, &[(0, 6, 6), (1, 5, 7)]);
        assert_eq!(s.len(), 1);
        let r = s.record(FlowId(1)).unwrap();
        assert_eq!(r.bytes, 1500);
        assert_eq!(r.packets, 2);
        assert_eq!(
            r.epochs_at[&NodeId(0)].iter().collect::<Vec<_>>(),
            vec![5, 6]
        );
        // {4..=6} ∪ {5..=7} is one run.
        assert_eq!(
            r.epochs_at[&NodeId(1)].runs(),
            [EpochRange { lo: 4, hi: 7 }]
        );
        // Exact per-epoch bytes at the tagging switch (switch 0).
        assert_eq!(r.bytes_per_epoch[&5], 1000);
        assert_eq!(r.bytes_per_epoch[&6], 500);
    }

    #[test]
    fn filter_by_switch_and_epoch() {
        let mut s = FlowStore::new();
        ingest_simple(&mut s, 1, 100, &[(0, 5, 5)]);
        ingest_simple(&mut s, 2, 100, &[(0, 9, 9)]);
        ingest_simple(&mut s, 3, 100, &[(1, 5, 5)]);
        let hits = s.flows_matching(NodeId(0), EpochRange { lo: 4, hi: 6 });
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].flow, FlowId(1));
        assert!(s
            .flows_matching(NodeId(2), EpochRange { lo: 0, hi: 100 })
            .is_empty());
    }

    #[test]
    fn range_membership_is_inclusive() {
        let mut s = FlowStore::new();
        ingest_simple(&mut s, 1, 100, &[(0, 5, 7)]);
        let r = s.record(FlowId(1)).unwrap();
        assert!(r.matches(NodeId(0), EpochRange { lo: 7, hi: 9 }));
        assert!(r.matches(NodeId(0), EpochRange { lo: 0, hi: 5 }));
        assert!(!r.matches(NodeId(0), EpochRange { lo: 8, hi: 9 }));
    }

    #[test]
    fn top_k_orders_by_bytes_then_id() {
        let mut s = FlowStore::new();
        ingest_simple(&mut s, 1, 500, &[(0, 1, 1)]);
        ingest_simple(&mut s, 2, 900, &[(0, 1, 1)]);
        ingest_simple(&mut s, 3, 500, &[(0, 1, 1)]);
        ingest_simple(&mut s, 4, 100, &[(1, 1, 1)]);
        let top = s.top_k_through(NodeId(0), 2);
        assert_eq!(top, vec![(FlowId(2), 900), (FlowId(1), 500)]);
        let all = s.top_k_through(NodeId(0), 10);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn sizes_by_link_groups_for_load_imbalance() {
        let mut s = FlowStore::new();
        s.ingest(
            FlowId(1),
            NodeId(100),
            NodeId(101),
            Protocol::Tcp,
            Priority::LOW,
            2_000_000,
            &telem(&[(0, 1, 1)], 0),
            Some(3),
        );
        s.ingest(
            FlowId(2),
            NodeId(100),
            NodeId(101),
            Protocol::Tcp,
            Priority::LOW,
            500,
            &telem(&[(0, 1, 1)], 0),
            Some(4),
        );
        let by_link = s.sizes_by_link(NodeId(0));
        assert_eq!(by_link, vec![(3, 2_000_000), (4, 500)]);
    }

    #[test]
    fn eviction_drops_stale_records_only() {
        let mut s = FlowStore::new();
        ingest_simple(&mut s, 1, 100, &[(0, 2, 4)]);
        ingest_simple(&mut s, 2, 100, &[(0, 8, 9)]);
        ingest_simple(&mut s, 3, 100, &[(1, 3, 3), (0, 9, 10)]);
        let evicted = s.evict_older_than(8);
        assert_eq!(evicted, 1, "only flow 1 is wholly stale");
        assert!(s.record(FlowId(1)).is_none());
        assert!(s.record(FlowId(2)).is_some());
        // Flow 3's newest epoch (10) keeps it alive despite the old hop.
        assert!(s.record(FlowId(3)).is_some());
        // Index is consistent: stale flow no longer reachable by switch.
        assert!(s
            .flows_matching(NodeId(0), EpochRange { lo: 0, hi: 100 })
            .iter()
            .all(|r| r.flow != FlowId(1)));
    }

    #[test]
    fn shards_partition_the_store() {
        let mut s = FlowStore::new();
        for f in 0..64 {
            ingest_simple(&mut s, f, 100, &[(0, 5, 5)]);
        }
        for n_shards in [1usize, 2, 3, 8] {
            let mut seen = Vec::new();
            for shard in 0..n_shards {
                for r in s.records_in_shard(shard, n_shards) {
                    assert_eq!(shard_of(r.flow, n_shards), shard);
                    seen.push(r.flow);
                }
            }
            seen.sort();
            let all: Vec<FlowId> = s.records().map(|r| r.flow).collect();
            assert_eq!(seen, all, "shards must partition exactly ({n_shards})");
        }
    }

    #[test]
    fn sharded_filter_query_unions_to_unsharded() {
        let mut s = FlowStore::new();
        for f in 0..40 {
            ingest_simple(&mut s, f, 100, &[(0, (f % 4) + 1, (f % 4) + 1)]);
        }
        let range = EpochRange { lo: 2, hi: 3 };
        let full: Vec<FlowId> = s
            .flows_matching(NodeId(0), range)
            .iter()
            .map(|r| r.flow)
            .collect();
        let mut merged: Vec<FlowId> = (0..4)
            .flat_map(|shard| {
                s.flows_matching_in_shard(NodeId(0), range, shard, 4)
                    .into_iter()
                    .map(|r| r.flow)
                    .collect::<Vec<_>>()
            })
            .collect();
        merged.sort();
        assert_eq!(merged, full);
    }

    #[test]
    fn eviction_everything_and_nothing() {
        let mut s = FlowStore::new();
        ingest_simple(&mut s, 1, 100, &[(0, 5, 5)]);
        assert_eq!(s.evict_older_than(0), 0);
        assert_eq!(s.evict_older_than(100), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn changed_since_journals_touched_flows_and_evictions() {
        let mut s = FlowStore::new();
        ingest_simple(&mut s, 1, 100, &[(0, 5, 5)]);
        ingest_simple(&mut s, 2, 100, &[(0, 6, 6)]);
        let base = s.version();
        assert_eq!(s.changed_since(base), StoreDelta::Unchanged);

        ingest_simple(&mut s, 2, 50, &[(0, 7, 7)]);
        ingest_simple(&mut s, 3, 100, &[(1, 7, 7)]);
        assert_eq!(
            s.changed_since(base),
            StoreDelta::Flows(vec![FlowId(2), FlowId(3)])
        );
        // A baseline taken now sees nothing.
        let base2 = s.version();
        assert_eq!(s.changed_since(base2), StoreDelta::Unchanged);

        // Evictions invalidate per-flow journaling for older baselines.
        assert_eq!(s.evict_older_than(6), 1);
        assert_eq!(s.changed_since(base), StoreDelta::FullRescan);
        assert_eq!(s.changed_since(base2), StoreDelta::FullRescan);
        let base3 = s.version();
        ingest_simple(&mut s, 4, 100, &[(0, 9, 9)]);
        assert_eq!(s.changed_since(base3), StoreDelta::Flows(vec![FlowId(4)]));
    }

    #[test]
    fn eviction_compacts_the_journal_without_losing_deltas() {
        let mut s = FlowStore::new();
        for f in 0..8 {
            ingest_simple(&mut s, f, 100, &[(0, f, f)]);
        }
        assert_eq!(s.modified_at.len(), 8);
        // Evict half: the journal empties (every pre-eviction baseline is
        // FullRescan; post-eviction baselines only need newer stamps) and
        // per-switch sets with no survivors disappear.
        ingest_simple(&mut s, 100, 100, &[(7, 1, 1)]); // switch 7, stale
        assert_eq!(s.evict_older_than(4), 5);
        assert!(s.modified_at.is_empty(), "journal must compact on eviction");
        assert!(
            !s.by_switch.contains_key(&NodeId(7)),
            "emptied per-switch index sets must be dropped"
        );
        // Post-eviction journaling starts clean and stays precise.
        let base = s.version();
        ingest_simple(&mut s, 6, 50, &[(0, 9, 9)]);
        assert_eq!(s.changed_since(base), StoreDelta::Flows(vec![FlowId(6)]));
        assert_eq!(s.modified_at.len(), 1);
        // Records that survived but were not touched since are invisible
        // to the compacted journal, as they must be.
        assert!(s.record(FlowId(5)).is_some());
    }

    #[test]
    fn newest_epoch_spans_all_switches() {
        let mut s = FlowStore::new();
        ingest_simple(&mut s, 1, 100, &[(0, 2, 4), (1, 7, 9)]);
        assert_eq!(s.record(FlowId(1)).unwrap().newest_epoch(), Some(9));
    }

    #[test]
    fn uncertain_tag_epoch_skips_per_epoch_accounting() {
        let mut s = FlowStore::new();
        // Tagging hop has a multi-epoch range: cannot attribute bytes.
        s.ingest(
            FlowId(1),
            NodeId(100),
            NodeId(101),
            Protocol::Udp,
            Priority::LOW,
            100,
            &telem(&[(0, 5, 7)], 0),
            None,
        );
        assert!(s.record(FlowId(1)).unwrap().bytes_per_epoch.is_empty());
    }
}
