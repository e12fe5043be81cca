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

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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
    pub(crate) fn matches(&self, switch: NodeId, range: EpochRange) -> bool {
        self.epochs_at
            .get(&switch)
            .is_some_and(|set| set.intersects(range))
    }

    /// The newest epoch any switch recorded for this flow — what retention
    /// sweeps compare against the eviction floor. A record whose newest
    /// epoch predates the floor cannot match any retained epoch range.
    pub(crate) fn newest_epoch(&self) -> Option<u64> {
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
pub(crate) fn keep_top_k(flows: &mut Vec<(FlowId, u64)>, k: usize) {
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

/// Record shards per host store. Every layer that keeps or ships a store —
/// the live host, a snapshot, a replica — holds it in this many shards,
/// so a shard index means the same thing everywhere.
pub const RECORD_SHARDS: usize = 8;

/// One shard of a host's flow records: the unit a snapshot shares, a
/// refresh compares by pointer and replication ships, always behind an
/// `Arc`.
#[derive(Clone, Default, PartialEq)]
pub struct RecordShard {
    /// Records sorted by ascending flow id.
    records: Vec<FlowRecord>,
    /// Secondary index: switch -> indices into `records` (ascending) of
    /// the records whose `epochs_at` has that switch.
    by_switch: HashMap<NodeId, Vec<usize>>,
}

/// Renders `by_switch` in sorted key order, so two `==` shards print
/// identically — the wire tests' Debug-based bit-identity checks depend
/// on deterministic rendering.
impl std::fmt::Debug for RecordShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let by_switch: BTreeMap<_, _> = self.by_switch.iter().collect();
        f.debug_struct("RecordShard")
            .field("records", &self.records)
            .field("by_switch", &by_switch)
            .finish()
    }
}

impl RecordShard {
    /// A shard holding `records` in the order given (a store's is
    /// ascending flow id), with the secondary index built over them.
    pub fn from_records(records: Vec<FlowRecord>) -> Self {
        let mut shard = RecordShard {
            records,
            by_switch: HashMap::new(),
        };
        shard.reindex();
        shard
    }

    fn reindex(&mut self) {
        self.by_switch.clear();
        for (i, rec) in self.records.iter().enumerate() {
            for sw in rec.epochs_at.keys() {
                self.by_switch.entry(*sw).or_default().push(i);
            }
        }
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn record(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.records
            .binary_search_by_key(&flow, |r| r.flow)
            .ok()
            .map(|i| &self.records[i])
    }

    /// The records indexed under `switch`, ascending flow id.
    fn through(&self, switch: NodeId) -> impl Iterator<Item = &FlowRecord> {
        self.by_switch
            .get(&switch)
            .into_iter()
            .flatten()
            .map(|&i| &self.records[i])
    }

    /// The record of `flow`, created at its sorted position if absent.
    /// An insert moves every later record up one place, so every index
    /// entry at or past it moves with it.
    fn entry(&mut self, flow: FlowId, create: impl FnOnce() -> FlowRecord) -> usize {
        match self.records.binary_search_by_key(&flow, |r| r.flow) {
            Ok(i) => i,
            Err(i) => {
                self.records.insert(i, create());
                for idxs in self.by_switch.values_mut() {
                    let from = idxs.partition_point(|&x| x < i);
                    for x in &mut idxs[from..] {
                        *x += 1;
                    }
                }
                i
            }
        }
    }
}

/// A shard travels as its record vector; decode refuses records that are
/// not in strictly ascending flow-id order (a replica's `record()`
/// binary-searches them) and rebuilds the secondary index, so the result
/// is `==` to the encoded source.
impl Wire for RecordShard {
    fn enc(&self, e: &mut Enc) {
        self.records.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let records = Vec::<FlowRecord>::dec(d)?;
        if let Some(w) = records.windows(2).find(|w| w[0].flow >= w[1].flow) {
            return Err(WireError::Remote(format!(
                "record shard lists flow {:?} after {:?}: flow ids must ascend strictly",
                w[1].flow, w[0].flow
            )));
        }
        Ok(RecordShard::from_records(records))
    }
}

/// The per-host store: [`RECORD_SHARDS`] record shards, flow `f` in shard
/// [`shard_of`]`(f, RECORD_SHARDS)`, each behind an `Arc`. The live host
/// and every snapshot of it hold this one form. A snapshot takes the
/// live store's shard `Arc`s, and the first ingest into a shard after
/// that copies it (`Arc::make_mut`), so a shard whose `Arc` the two still
/// share is unchanged since, and a refresh finds what changed by pointer
/// ([`FlowStore::unshared_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStore {
    shards: Vec<Arc<RecordShard>>,
    /// Monotone mutation counter (bumps once per ingest / evicting pass).
    version: u64,
}

impl Default for FlowStore {
    fn default() -> Self {
        FlowStore {
            shards: (0..RECORD_SHARDS).map(|_| Arc::default()).collect(),
            version: 0,
        }
    }
}

impl FlowStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// A store assembled from shards received off the wire at mutation
    /// counter `version`. Refuses anything but [`RECORD_SHARDS`] shards,
    /// each holding only the flows [`shard_of`] assigns it.
    pub fn from_shards(shards: Vec<Arc<RecordShard>>, version: u64) -> Result<Self, WireError> {
        if shards.len() != RECORD_SHARDS {
            return Err(WireError::Remote(format!(
                "host store carries {} record shards, not {RECORD_SHARDS}",
                shards.len()
            )));
        }
        let placed: Vec<(u64, Arc<RecordShard>)> = (0..).zip(shards).collect();
        FlowStore::default().with_shards(&placed, version)
    }

    /// This store with replicated `(index, shard)`s put in place and its
    /// mutation counter at `version` — a refcount bump per shard. Refuses
    /// an index past [`RECORD_SHARDS`] or a record that belongs to another
    /// shard.
    pub fn with_shards(
        &self,
        shards: &[(u64, Arc<RecordShard>)],
        version: u64,
    ) -> Result<Self, WireError> {
        let mut store = FlowStore {
            shards: self.shards.clone(),
            version,
        };
        for (i, shard) in shards {
            let slot = usize::try_from(*i)
                .ok()
                .and_then(|i| store.shards.get_mut(i))
                .ok_or_else(|| {
                    WireError::Remote(format!("record shard {i} of a {RECORD_SHARDS}-way store"))
                })?;
            if let Some(r) = shard
                .records
                .iter()
                .find(|r| shard_of(r.flow, RECORD_SHARDS) as u64 != *i)
            {
                return Err(WireError::Remote(format!(
                    "record shard {i} holds flow {:?}, which belongs to shard {}",
                    r.flow,
                    shard_of(r.flow, RECORD_SHARDS)
                )));
            }
            *slot = Arc::clone(shard);
        }
        Ok(store)
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
        let shard = Arc::make_mut(&mut self.shards[shard_of(flow, RECORD_SHARDS)]);
        let i = shard.entry(flow, || FlowRecord {
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
        let rec = &mut shard.records[i];
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
            let idxs = shard.by_switch.entry(hop.switch).or_default();
            if let Err(at) = idxs.binary_search(&i) {
                idxs.insert(at, i);
            }
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
        self.shards.iter().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// The record shards, in shard order.
    pub fn shards(&self) -> &[Arc<RecordShard>] {
        &self.shards
    }

    /// Indices of the shards `self` does not hold as the very allocation
    /// `other` holds in the same place — what changed between a store and
    /// one taken from it earlier.
    pub fn unshared_with<'a>(&'a self, other: &'a FlowStore) -> impl Iterator<Item = usize> + 'a {
        (0..RECORD_SHARDS).filter(|&i| !Arc::ptr_eq(&self.shards[i], &other.shards[i]))
    }

    /// A flow's record, if stored.
    pub fn record(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.shards[shard_of(flow, RECORD_SHARDS)].record(flow)
    }

    /// All records, shard by shard (ascending flow id within a shard).
    pub fn records(&self) -> impl Iterator<Item = &FlowRecord> {
        self.shards.iter().flat_map(|s| s.records.iter())
    }

    /// *Filter query*: flows that traversed `switch` during `range`, in
    /// ascending flow-id order.
    pub fn flows_matching(&self, switch: NodeId, range: EpochRange) -> Vec<&FlowRecord> {
        let mut out: Vec<&FlowRecord> = self
            .shards
            .iter()
            .flat_map(|s| s.through(switch))
            .filter(|r| r.matches(switch, range))
            .collect();
        out.sort_by_key(|r| r.flow);
        out
    }

    /// *Aggregate query*: top-k flows through `switch` by byte count
    /// (the Fig. 12 query).
    pub fn top_k_through(&self, switch: NodeId, k: usize) -> Vec<(FlowId, u64)> {
        let mut flows: Vec<(FlowId, u64)> = self
            .shards
            .iter()
            .flat_map(|s| s.through(switch))
            .map(|r| (r.flow, r.bytes))
            .collect();
        keep_top_k(&mut flows, k);
        flows
    }

    /// *Aggregate query*: (link VID, flow bytes) pairs for flows through
    /// `switch` — the Fig. 8 flow-size-distribution-per-egress query.
    pub fn sizes_by_link(&self, switch: NodeId) -> Vec<(u16, u64)> {
        let mut out: Vec<(u16, u64)> = self
            .shards
            .iter()
            .flat_map(|s| s.through(switch))
            .filter_map(|r| r.link_vid.map(|l| (l, r.bytes)))
            .collect();
        out.sort();
        out
    }

    /// Retention: drops flow records whose newest epoch (at any switch) is
    /// older than `horizon_epoch`. The paper's host store ("initially
    /// maintained in memory and flushed to a local storage") is similarly
    /// bounded; we drop instead of spooling since queries target recent
    /// state. Only shards that lose a record are touched (and so copied
    /// if a snapshot shares them); their index is rebuilt. Returns the
    /// number of records evicted.
    pub fn evict_older_than(&mut self, horizon_epoch: u64) -> usize {
        let stale = |r: &FlowRecord| r.newest_epoch().is_none_or(|e| e < horizon_epoch);
        let mut evicted = 0;
        for shard in &mut self.shards {
            if shard.records.iter().any(stale) {
                let shard = Arc::make_mut(shard);
                let before = shard.records.len();
                shard.records.retain(|r| !stale(r));
                evicted += before - shard.records.len();
                shard.reindex();
            }
        }
        if evicted > 0 {
            self.version += 1;
        }
        evicted
    }

    /// The monotone mutation counter (bumps once per ingest / evicting
    /// pass).
    pub fn version(&self) -> u64 {
        self.version
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

    /// Ingesting flows in any order leaves every shard exactly as
    /// building it from its records in flow-id order does: records
    /// sorted, each in its own shard, and the positional index shifted
    /// past every insert.
    #[test]
    fn ingest_in_any_order_matches_a_shard_built_sorted() {
        let mut s = FlowStore::new();
        for f in [40u64, 3, 17, 3, 90, 1, 64, 17, 5, 33, 2, 71] {
            ingest_simple(&mut s, f, 100, &[(f as u32 % 3, f, f), (9, 1, 1)]);
        }
        for (i, shard) in s.shards().iter().enumerate() {
            assert!(shard
                .records
                .iter()
                .all(|r| shard_of(r.flow, RECORD_SHARDS) == i));
            let mut sorted = shard.records.clone();
            sorted.sort_by_key(|r| r.flow);
            assert_eq!(**shard, RecordShard::from_records(sorted), "shard {i}");
        }
        assert_eq!(s.len(), 10);
        let through_9: Vec<FlowId> = s
            .flows_matching(NodeId(9), EpochRange { lo: 0, hi: 5 })
            .iter()
            .map(|r| r.flow)
            .collect();
        let mut all: Vec<FlowId> = s.records().map(|r| r.flow).collect();
        all.sort();
        assert_eq!(through_9, all);
    }

    /// Copy on write: a clone shares every shard, an ingest copies only
    /// the shard it lands in, and an eviction only the shards that lose a
    /// record.
    #[test]
    fn mutation_unshares_only_the_shards_it_touches() {
        let mut s = FlowStore::new();
        for f in 0..32 {
            ingest_simple(&mut s, f, 100, &[(0, 10, 10)]);
        }
        let taken = s.clone();
        assert_eq!(s.unshared_with(&taken).count(), 0);

        ingest_simple(&mut s, 7, 50, &[(0, 11, 11)]);
        let moved: Vec<usize> = s.unshared_with(&taken).collect();
        assert_eq!(moved, vec![shard_of(FlowId(7), RECORD_SHARDS)]);
        assert_eq!(
            taken.record(FlowId(7)).unwrap().bytes,
            100,
            "the clone is untouched"
        );

        let taken = s.clone();
        ingest_simple(&mut s, 100, 100, &[(0, 2, 2)]);
        let taken_again = s.clone();
        assert_eq!(s.evict_older_than(5), 1);
        let moved: Vec<usize> = s.unshared_with(&taken_again).collect();
        assert_eq!(moved, vec![shard_of(FlowId(100), RECORD_SHARDS)]);
        assert_eq!(
            s.shards(),
            taken.shards(),
            "evicting the stale flow restores the records"
        );
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
