//! The sharded analyzer directory: partitioning the MPHF/host directory
//! across N analyzer instances.
//!
//! A single [`Analyzer`] owns the whole bit → host directory, so every
//! pointer decode and every host fan-out funnels through one coordinator.
//! This module hash-partitions the directory with the same stable
//! splitmix64 assignment the host stores use for flow records
//! ([`mphf::stable_shard`]): shard `s` owns exactly the hosts whose
//! address hashes to `s`, the MPHF slots those hosts occupy, and the
//! decode work for pointer bits landing in those slots.
//!
//! * [`DirectoryShard`] — one instance's slice: owned hosts, the slot mask
//!   restricting a pointer set to them, a *local* per-shard MPHF (minimal
//!   over the owned addresses) sizing the shard's own metadata.
//! * [`ShardedDirectory`] — the full partition plus the slot → owner map.
//! * [`ShardedView`] — a [`StateView`] router over any underlying view:
//!   pointer unions are decoded per shard (masked slices) and reassembled
//!   by a deterministic OR/merge; host reads route to the owning shard.
//!   Because the shard masks partition the directory's slot range, the
//!   reassembled state is **bit-identical** to the unsharded view's — the
//!   property test pins verdict equality at any shard count.
//! * [`ShardedAnalyzer`] — the thin router front-end over a live
//!   [`Analyzer`]: fans a [`QueryRequest`]'s state reads out to the owning
//!   shards, merges deterministically, and reports the per-shard fan-out
//!   ([`ShardFanout`]) the cost model turns into a modelled decode time
//!   ([`CostModel::sharded_decode`]): shards decode concurrently, the
//!   router pays a serial cross-shard merge.
//!
//! As everywhere in this repo: *answers are real, latency is modelled*.
//! Sharding never changes a verdict; it changes who decodes what, which
//! the fan-out counters record and the cost model prices.

use std::sync::Arc;

use mphf::{stable_shard, Mphf, ShardedMphf};
use netsim::packet::{FlowId, NodeId};
use obsplane::Counter;
use telemetry::EpochRange;

use crate::analyzer::Analyzer;
use crate::bitset::BitSet;
use crate::cost::CostModel;
use crate::host::TriggerEvent;
use crate::hoststore::FlowRecord;
pub use crate::query::Deferred;
use crate::query::{
    presence_by_epoch, ExecutionTrace, FilterWaveReply, QueryExecutor, QueryRequest, QueryResponse,
    SizesWaveReply, StateView, TopKWaveReply,
};

/// The directory shard owning `host`: the same stable splitmix64
/// assignment flow records use, applied to the host address. Pure
/// function of the host and the shard count — every layer (directory,
/// snapshot deltas, result caches) agrees on ownership.
#[inline]
pub fn host_shard_of(host: NodeId, n_shards: usize) -> usize {
    stable_shard(host.addr(), n_shards)
}

/// One analyzer instance's slice of the directory. Everything here
/// scales with the *owned* host slice, except the n-bit slot mask — the
/// partition mechanism itself (one bit per directory slot).
#[derive(Debug, Clone)]
pub struct DirectoryShard {
    shard: usize,
    /// Hosts this shard owns (ascending).
    hosts: Vec<NodeId>,
    /// Global-MPHF slots of the owned hosts: the mask restricting a
    /// pointer set to this shard's decode responsibility.
    slot_mask: BitSet,
    /// (global slot, owned host) pairs, ascending by slot — the shard's
    /// bit → host decode table, sized by the owned slice.
    owned_slots: Vec<(usize, NodeId)>,
    /// Per-shard MPHF over just the owned addresses — the shard's local
    /// index; its metadata is what this instance must actually hold.
    local: Option<Mphf>,
}

impl DirectoryShard {
    /// This shard's index.
    pub fn id(&self) -> usize {
        self.shard
    }

    /// The hosts this shard owns (ascending).
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Does this shard own `host`?
    pub fn owns(&self, host: NodeId) -> bool {
        self.hosts.binary_search(&host).is_ok()
    }

    /// `bits` restricted to the slots this shard owns — the slice of a
    /// pointer set this instance decodes.
    pub fn mask(&self, bits: &BitSet) -> BitSet {
        bits.intersect(&self.slot_mask)
    }

    /// How many bits of `bits` this shard decodes — `mask(bits).count()`
    /// without materializing the slice (the hot-path accounting form).
    pub fn count_owned(&self, bits: &BitSet) -> usize {
        bits.count_and(&self.slot_mask)
    }

    /// Decodes this shard's slice of `bits` into owned host ids
    /// (ascending) — the per-shard half of a fan-out. Walks the owned
    /// slot table (O(owned), not O(directory)).
    pub fn decode(&self, bits: &BitSet) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .owned_slots
            .iter()
            .filter(|&&(slot, _)| bits.test(slot))
            .map(|&(_, h)| h)
            .collect();
        out.sort();
        out
    }

    /// Metadata this instance holds: its local MPHF over owned addresses.
    pub fn metadata_bytes(&self) -> usize {
        self.local.as_ref().map(|m| m.metadata_bytes()).unwrap_or(0)
    }
}

/// The full hash-partitioned directory plus the slot → owner map.
#[derive(Debug, Clone)]
pub struct ShardedDirectory {
    mphf: Arc<Mphf>,
    shards: Vec<DirectoryShard>,
    /// Global-MPHF slot → owning shard.
    owner_by_slot: Vec<usize>,
}

impl ShardedDirectory {
    /// Partitions `hosts` (all of which must be in `mphf`'s key set) into
    /// `n_shards` directory shards by stable address hash.
    pub fn new(mphf: Arc<Mphf>, hosts: &[NodeId], n_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        let addrs: Vec<u64> = hosts.iter().map(|h| h.addr()).collect();
        // Surface builder failures loudly: a directory over zero hosts is
        // legal (every shard just owns nothing), but any real build error
        // must not silently zero the per-shard metadata accounting.
        let local = if addrs.is_empty() {
            None
        } else {
            Some(
                ShardedMphf::build(&addrs, n_shards)
                    .expect("per-shard MPHF over the directory host set"),
            )
        };
        let mut shards: Vec<DirectoryShard> = (0..n_shards)
            .map(|s| DirectoryShard {
                shard: s,
                hosts: Vec::new(),
                slot_mask: BitSet::new(mphf.len()),
                owned_slots: Vec::new(),
                local: local.as_ref().and_then(|l| l.shard(s).cloned()),
            })
            .collect();
        let mut owner_by_slot = vec![0usize; mphf.len()];
        for &h in hosts {
            let slot = mphf
                .index(&h.addr())
                .expect("directory host missing from MPHF");
            let s = host_shard_of(h, n_shards);
            shards[s].hosts.push(h);
            shards[s].slot_mask.set(slot);
            shards[s].owned_slots.push((slot, h));
            owner_by_slot[slot] = s;
        }
        for shard in &mut shards {
            shard.hosts.sort();
            shard.owned_slots.sort();
        }
        ShardedDirectory {
            mphf,
            shards,
            owner_by_slot,
        }
    }

    /// Number of directory shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard slices.
    pub fn shards(&self) -> &[DirectoryShard] {
        &self.shards
    }

    /// The shared global hash function.
    pub fn mphf(&self) -> &Arc<Mphf> {
        &self.mphf
    }

    /// The shard owning `host`'s store and directory entry.
    pub fn owner_of(&self, host: NodeId) -> usize {
        host_shard_of(host, self.shards.len())
    }

    /// The shard owning the slot `addr` hashes to, if `addr` is in the
    /// directory's key set.
    pub fn owner_of_addr(&self, addr: u64) -> Option<usize> {
        self.mphf.index(&addr).map(|slot| self.owner_by_slot[slot])
    }

    /// Full decode via per-shard fan-out: each shard decodes its masked
    /// slice, the router merges the sorted slices. Bit-identical to
    /// [`crate::analyzer::HostDirectory::hosts_in`] because the shard
    /// masks partition the slot range.
    pub fn hosts_in(&self, bits: &BitSet) -> Vec<NodeId> {
        let mut merged: Vec<NodeId> = self.shards.iter().flat_map(|s| s.decode(bits)).collect();
        merged.sort();
        merged
    }

    /// Total per-shard metadata (local MPHFs) — what the sharded
    /// deployment holds across instances.
    pub fn metadata_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.metadata_bytes()).sum()
    }
}

/// Per-query shard fan-out accounting: who decoded and answered what.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardFanout {
    /// Pointer bits decoded per shard (the parallelizable work).
    pub decode_bits: Vec<u64>,
    /// Host-store reads routed to each shard.
    pub host_reads: Vec<u64>,
    /// Cross-shard merges the router performed (one per reassembled
    /// pointer union when N > 1).
    pub merges: u64,
    /// Host ids flowing through those merges (the serial merge work).
    pub merged_bits: u64,
}

impl ShardFanout {
    /// Zeroed counters for `n_shards` shards.
    pub fn new(n_shards: usize) -> Self {
        ShardFanout {
            decode_bits: vec![0; n_shards],
            host_reads: vec![0; n_shards],
            merges: 0,
            merged_bits: 0,
        }
    }

    /// Folds another query's fan-out into this accumulator.
    pub fn absorb(&mut self, other: &ShardFanout) {
        if self.decode_bits.len() < other.decode_bits.len() {
            self.decode_bits.resize(other.decode_bits.len(), 0);
            self.host_reads.resize(other.host_reads.len(), 0);
        }
        for (a, b) in self.decode_bits.iter_mut().zip(&other.decode_bits) {
            *a += b;
        }
        for (a, b) in self.host_reads.iter_mut().zip(&other.host_reads) {
            *a += b;
        }
        self.merges += other.merges;
        self.merged_bits += other.merged_bits;
    }

    /// Modelled decode wall time under `cost`: concurrent per-shard
    /// decode (max term) plus the serial cross-shard merge over the host
    /// ids that actually flowed through union reassembly.
    pub fn modelled_decode(&self, cost: &CostModel) -> netsim::time::SimTime {
        cost.sharded_decode(&self.decode_bits, self.merged_bits)
    }
}

/// A [`StateView`] router over any underlying view: pointer sets are
/// decoded per owning shard and reassembled deterministically; host reads
/// route to the owning shard. Counters are [`obsplane::Counter`]s so the
/// router stays `Sync` over `Sync` views (the query plane's worker pool
/// relies on it); [`ShardedView::fanout`] assembles the [`ShardFanout`]
/// thin view from them on demand.
pub struct ShardedView<'a, V: StateView> {
    inner: &'a V,
    dir: &'a ShardedDirectory,
    decode_bits: Vec<Counter>,
    host_reads: Vec<Counter>,
    merges: Counter,
    merged_bits: Counter,
}

impl<'a, V: StateView> ShardedView<'a, V> {
    pub fn new(inner: &'a V, dir: &'a ShardedDirectory) -> Self {
        let n = dir.n_shards();
        ShardedView {
            inner,
            dir,
            decode_bits: (0..n).map(|_| Counter::new()).collect(),
            host_reads: (0..n).map(|_| Counter::new()).collect(),
            merges: Counter::new(),
            merged_bits: Counter::new(),
        }
    }

    /// Snapshot of the fan-out counters.
    pub fn fanout(&self) -> ShardFanout {
        ShardFanout {
            decode_bits: self.decode_bits.iter().map(|a| a.get()).collect(),
            host_reads: self.host_reads.iter().map(|a| a.get()).collect(),
            merges: self.merges.get(),
            merged_bits: self.merged_bits.get(),
        }
    }

    /// Snapshot of the fan-out counters, zeroing them in the same pass.
    /// This is the scratch-reuse contract of the work-stealing query
    /// plane: one router is built per worker per chunk and drained
    /// between queries, so per-query fan-out still comes out while the
    /// counter vectors are allocated once per chunk instead of once per
    /// query.
    pub fn take_fanout(&self) -> ShardFanout {
        ShardFanout {
            decode_bits: self.decode_bits.iter().map(|a| a.take()).collect(),
            host_reads: self.host_reads.iter().map(|a| a.take()).collect(),
            merges: self.merges.take(),
            merged_bits: self.merged_bits.take(),
        }
    }

    fn note_host_read(&self, host: NodeId) {
        self.host_reads[self.dir.owner_of(host)].inc();
    }
}

impl<V: StateView> StateView for ShardedView<'_, V> {
    fn pointer_union(&self, switch: NodeId, range: EpochRange) -> Option<BitSet> {
        let full = self.inner.pointer_union(switch, range)?;
        if self.dir.n_shards() == 1 {
            self.decode_bits[0].add(full.count() as u64);
            return Some(full);
        }
        // Fan the decode out: every shard takes the slice of `full` under
        // its slot mask. The masks partition the directory's slot range,
        // so reassembling (ORing) the slices provably reproduces `full`
        // byte-for-byte — verdicts cannot depend on N, and the hot path
        // therefore only *counts* each shard's slice (no per-shard
        // allocation) and returns `full` as the reassembled union. The
        // partition-equality itself is pinned by the DirectoryShard
        // tests (`shards_partition_hosts_and_slots`) and checked cheaply
        // here: the per-shard counts must sum to the whole union.
        let mut total = 0u64;
        for shard in self.dir.shards() {
            let ones = shard.count_owned(&full) as u64;
            if ones > 0 {
                self.decode_bits[shard.id()].add(ones);
                total += ones;
            }
        }
        self.merges.inc();
        self.merged_bits.add(total);
        debug_assert_eq!(
            total,
            full.count() as u64,
            "shard slot masks must partition the directory range"
        );
        Some(full)
    }

    fn pointer_contains_exact(
        &self,
        switch: NodeId,
        addr: u64,
        epoch: u64,
    ) -> Option<Option<bool>> {
        // The shard owning the probed address's slot answers the probe.
        if let Some(s) = self.dir.owner_of_addr(addr) {
            self.decode_bits[s].inc();
        }
        self.inner.pointer_contains_exact(switch, addr, epoch)
    }

    fn presence_wave(&self, switches: &[NodeId], addr: u64, range: EpochRange) -> Vec<bool> {
        // One probe (one hash + a bounded slot scan) per switch, answered
        // by the shard owning the probed address's slot.
        if let Some(s) = self.dir.owner_of_addr(addr) {
            self.decode_bits[s].add(switches.len() as u64);
        }
        self.inner.presence_wave(switches, addr, range)
    }

    fn store_len(&self, host: NodeId) -> Option<usize> {
        self.note_host_read(host);
        self.inner.store_len(host)
    }

    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
        self.note_host_read(host);
        self.inner.record(host, flow)
    }

    fn flows_matching(&self, host: NodeId, switch: NodeId, range: EpochRange) -> Vec<FlowRecord> {
        self.note_host_read(host);
        self.inner.flows_matching(host, switch, range)
    }

    fn top_k_through(&self, host: NodeId, switch: NodeId, k: usize) -> Vec<(FlowId, u64)> {
        self.note_host_read(host);
        self.inner.top_k_through(host, switch, k)
    }

    fn sizes_by_link(&self, host: NodeId, switch: NodeId) -> Vec<(u16, u64)> {
        self.note_host_read(host);
        self.inner.sizes_by_link(host, switch)
    }

    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent> {
        self.note_host_read(host);
        self.inner.first_trigger_for(host, flow)
    }
}

// ----------------------------------------------------------------------
// Shard backends: one serving surface per directory shard, local or
// remote.
// ----------------------------------------------------------------------

/// One directory shard's serving surface. [`ShardedView`] routes over
/// in-process state it can reach by reference; this trait is the same
/// contract with the *reach* abstracted away, so a router can run over
/// shard instances living behind a wire (`wireplane`'s shard servers)
/// exactly as it runs over local slices — the verdict-equality argument
/// is shared.
///
/// The wave methods mirror [`StateView`]'s batched forms: one call per
/// query wave per shard, which is what lets a remote backend carry a
/// whole fan-out in a single round trip.
///
/// The five methods a router fans out to *several* shards at once
/// (`union_slice` and the four host waves) return a [`Deferred`]: the
/// call **issues** the request and returns, [`ShardBackend::flush`] puts
/// what was issued on the wire, [`Deferred::wait`] collects the answer.
/// A router that issues to every involved shard, flushes them, and only
/// then waits on the first keeps all of a fan-out's requests in flight
/// together — one round trip of latency, whatever the shard count — and
/// a driver holding many queries' routers flushes once for all of them.
/// The single-shard reads return their value directly; there is nothing
/// to overlap them with.
pub trait ShardBackend {
    /// The directory shard this backend serves.
    fn shard_id(&self) -> usize;

    /// Sends every request issued to this shard and not yet sent, as one
    /// unit. Nothing to do for a backend that answers `Ready`.
    fn flush(&self) {}

    /// This shard's masked slice of the pointer union for `range` at
    /// `switch` (`None` if the switch has no component). Slices across
    /// the shards partition the full union bit-for-bit.
    fn union_slice(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, Option<BitSet>>;

    /// Exact-resolution presence probe (answered by the shard owning the
    /// probed address's slot).
    fn probe_exact(&self, switch: NodeId, addr: u64, epoch: u64) -> Option<Option<bool>>;

    /// Exact-resolution presence of `addr` over `range` at every switch
    /// of `switches`, in one call ([`StateView::presence_wave`]).
    fn presence_wave(&self, switches: &[NodeId], addr: u64, range: EpochRange) -> Vec<bool>;

    /// Point read: store size of one owned host.
    fn store_len(&self, host: NodeId) -> Option<usize>;

    /// Point read: one owned host's record for `flow`.
    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord>;

    /// Point read: first trigger an owned host raised for `flow`.
    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent>;

    /// Batched store sizes for owned hosts.
    fn store_len_wave(&self, hosts: &[NodeId]) -> Deferred<'_, Vec<Option<usize>>>;

    /// Batched filter wave over owned hosts.
    fn filter_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'_, FilterWaveReply>;

    /// Batched top-k wave over owned hosts.
    fn top_k_wave(&self, hosts: &[NodeId], switch: NodeId, k: usize)
        -> Deferred<'_, TopKWaveReply>;

    /// Batched link-sizes wave over owned hosts.
    fn sizes_wave(&self, hosts: &[NodeId], switch: NodeId) -> Deferred<'_, SizesWaveReply>;
}

/// The in-process [`ShardBackend`]: one shard's slice of a shared
/// [`StateView`]. What a wire shard server computes behind its socket,
/// computed by reference — the parity fixture for the remote transport.
pub struct LocalBackend<'a, V: StateView> {
    shard: &'a DirectoryShard,
    view: &'a V,
}

impl<'a, V: StateView> LocalBackend<'a, V> {
    pub fn new(shard: &'a DirectoryShard, view: &'a V) -> Self {
        LocalBackend { shard, view }
    }
}

impl<V: StateView> ShardBackend for LocalBackend<'_, V> {
    fn shard_id(&self) -> usize {
        self.shard.id()
    }

    fn union_slice(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, Option<BitSet>> {
        Deferred::Ready(
            self.view
                .pointer_union(switch, range)
                .map(|u| self.shard.mask(&u)),
        )
    }

    fn probe_exact(&self, switch: NodeId, addr: u64, epoch: u64) -> Option<Option<bool>> {
        self.view.pointer_contains_exact(switch, addr, epoch)
    }

    fn presence_wave(&self, switches: &[NodeId], addr: u64, range: EpochRange) -> Vec<bool> {
        self.view.presence_wave(switches, addr, range)
    }

    fn store_len(&self, host: NodeId) -> Option<usize> {
        self.view.store_len(host)
    }

    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
        self.view.record(host, flow)
    }

    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent> {
        self.view.first_trigger_for(host, flow)
    }

    fn store_len_wave(&self, hosts: &[NodeId]) -> Deferred<'_, Vec<Option<usize>>> {
        Deferred::Ready(self.view.store_len_wave(hosts))
    }

    fn filter_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'_, FilterWaveReply> {
        Deferred::Ready(self.view.filter_wave(hosts, switch, range))
    }

    fn top_k_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        k: usize,
    ) -> Deferred<'_, TopKWaveReply> {
        Deferred::Ready(self.view.top_k_wave(hosts, switch, k))
    }

    fn sizes_wave(&self, hosts: &[NodeId], switch: NodeId) -> Deferred<'_, SizesWaveReply> {
        Deferred::Ready(self.view.sizes_wave(hosts, switch))
    }
}

/// Cumulative routing counters a [`BackendRouter`] keeps on top of the
/// per-shard [`ShardFanout`]: how many backend calls it issued (each a
/// wire RPC for a remote backend) and how many *rounds* of latency those
/// cost. A fan-out to several shards counts one round because it *is*
/// one: the coalescing router issues every shard's request before it
/// waits on the first, so they are in flight together.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterCounters {
    pub fanout: ShardFanout,
    /// Backend calls issued (≡ RPCs for a remote backend).
    pub rpcs: u64,
    /// The subset of `rpcs` issued for host-wave fan-outs — the term
    /// per-shard coalescing shrinks (one per shard per wave, vs one per
    /// host per wave without coalescing).
    pub wave_rpcs: u64,
    /// Wave fan-outs routed, each one round trip of latency: the
    /// per-shard requests of a fan-out overlap (issued to every involved
    /// shard, then collected). Without coalescing the per-host calls of
    /// a fan-out run one after another and the count is only the number
    /// of fan-outs.
    pub wave_rounds: u64,
    /// Routed operations: one per union reassembly, wave fan-out or
    /// point read, however many shards it fanned out to — the number of
    /// sequential round trips the coalescing router waited through.
    pub rounds: u64,
}

/// A [`StateView`] router over per-shard backends, local or remote.
/// Pointer unions are reassembled by ORing the shards' disjoint masked
/// slices (the slot masks partition the directory range, so the union is
/// bit-identical to the flat view's); host reads route to the owning
/// shard; wave reads coalesce per shard — one backend call, and for a
/// remote backend one wire request, per shard per wave.
///
/// Fan-outs are **issue-then-collect**: a union reassembly or a wave
/// first issues its request to every involved shard, then collects the
/// [`Deferred`] replies in shard order. The collect order is the old
/// call order, so slices OR together and replies scatter back exactly as
/// they always did — only the waiting overlaps. The seam between the two
/// halves is public as the deferred [`StateView`] forms: they return
/// after the issue half with the collect half as the [`Deferred`]
/// (`Ready` when every backend answered in process), and the blocking
/// forms are *issue, flush every backend, collect*. Counters move where
/// the work happens — calls and rounds at issue, decoded bits and merges
/// at collect — so a query's [`RouterCounters`] do not depend on who
/// drove it.
///
/// With `coalesce` off, wave reads degrade to one backend call per host,
/// each waited on before the next is issued: the naive per-host RPC
/// regime the paper's Fig. 12 measures, kept as a measurable
/// counterfactual for the batching win.
pub struct BackendRouter<'a, B: ShardBackend> {
    backends: &'a [B],
    dir: &'a ShardedDirectory,
    coalesce: bool,
    decode_bits: Vec<Counter>,
    host_reads: Vec<Counter>,
    merges: Counter,
    merged_bits: Counter,
    rpcs: Counter,
    wave_rpcs: Counter,
    wave_rounds: Counter,
    rounds: Counter,
}

impl<'a, B: ShardBackend> BackendRouter<'a, B> {
    /// A router over `backends` (one per shard of `dir`, in shard order).
    pub fn new(backends: &'a [B], dir: &'a ShardedDirectory) -> Self {
        assert_eq!(
            backends.len(),
            dir.n_shards(),
            "one backend per directory shard"
        );
        for (i, b) in backends.iter().enumerate() {
            assert_eq!(b.shard_id(), i, "backends must be in shard order");
        }
        let n = dir.n_shards();
        BackendRouter {
            backends,
            dir,
            coalesce: true,
            decode_bits: (0..n).map(|_| Counter::new()).collect(),
            host_reads: (0..n).map(|_| Counter::new()).collect(),
            merges: Counter::new(),
            merged_bits: Counter::new(),
            rpcs: Counter::new(),
            wave_rpcs: Counter::new(),
            wave_rounds: Counter::new(),
            rounds: Counter::new(),
        }
    }

    /// Disables per-shard wave coalescing: every host in a wave costs its
    /// own backend call (the naive per-host RPC counterfactual). Answers
    /// are identical either way — only the call pattern changes.
    pub fn without_coalescing(mut self) -> Self {
        self.coalesce = false;
        self
    }

    /// Snapshot of the routing counters.
    pub fn counters(&self) -> RouterCounters {
        RouterCounters {
            fanout: ShardFanout {
                decode_bits: self.decode_bits.iter().map(|a| a.get()).collect(),
                host_reads: self.host_reads.iter().map(|a| a.get()).collect(),
                merges: self.merges.get(),
                merged_bits: self.merged_bits.get(),
            },
            rpcs: self.rpcs.get(),
            wave_rpcs: self.wave_rpcs.get(),
            wave_rounds: self.wave_rounds.get(),
            rounds: self.rounds.get(),
        }
    }

    fn owner(&self, host: NodeId) -> usize {
        self.dir.owner_of(host)
    }

    fn note_point_read(&self, shard: usize) {
        self.host_reads[shard].inc();
        self.rpcs.inc();
        self.rounds.inc();
    }

    /// Routes one wave: groups `hosts` by owning shard (input order kept
    /// within each group) and issues one backend call to every involved
    /// shard; the returned [`Deferred`] collects the replies in shard
    /// order and scatters them back into input order. Without coalescing
    /// it is one call per host, each flushed and collected before the
    /// next is issued, and the reply is `Ready`.
    fn route_wave<'s, T: 's>(
        &'s self,
        hosts: &[NodeId],
        call: impl Fn(&'a B, &[NodeId]) -> Deferred<'a, Vec<T>>,
        empty: impl Fn() -> T + 's,
    ) -> Deferred<'s, Vec<T>> {
        if hosts.is_empty() {
            return Deferred::Ready(Vec::new());
        }
        self.rounds.inc();
        self.wave_rounds.inc();
        let mut by_shard: Vec<(Vec<usize>, Vec<NodeId>)> =
            vec![(Vec::new(), Vec::new()); self.backends.len()];
        for (i, &h) in hosts.iter().enumerate() {
            let s = self.owner(h);
            by_shard[s].0.push(i);
            by_shard[s].1.push(h);
        }
        let mut out: Vec<Option<T>> = (0..hosts.len()).map(|_| None).collect();
        let mut issued = Vec::with_capacity(self.backends.len());
        for (s, (idxs, shard_hosts)) in by_shard.into_iter().enumerate() {
            if shard_hosts.is_empty() {
                continue;
            }
            self.host_reads[s].add(shard_hosts.len() as u64);
            if self.coalesce {
                self.rpcs.inc();
                self.wave_rpcs.inc();
                issued.push((idxs, call(&self.backends[s], &shard_hosts)));
            } else {
                for (i, h) in idxs.into_iter().zip(shard_hosts) {
                    self.rpcs.inc();
                    self.wave_rpcs.inc();
                    out[i] = self
                        .point_wave(s, |b| call(b, std::slice::from_ref(&h)))
                        .pop();
                }
            }
        }
        let pending = issued.iter().any(|(_, reply)| !reply.is_ready());
        deferred(pending, move || {
            for (idxs, reply) in issued {
                let replies = reply.wait();
                debug_assert_eq!(replies.len(), idxs.len());
                for (i, reply) in idxs.into_iter().zip(replies) {
                    out[i] = Some(reply);
                }
            }
            out.into_iter().map(|r| r.unwrap_or_else(&empty)).collect()
        })
    }

    /// A point read that travels as a wave of one: issue to shard `s`,
    /// flush it, collect.
    fn point_wave<T>(&self, s: usize, call: impl FnOnce(&'a B) -> Deferred<'a, T>) -> T {
        let reply = call(&self.backends[s]);
        self.backends[s].flush();
        reply.wait()
    }

    /// The blocking form of a routed read: flush what its issue half put
    /// on the backends, then collect.
    fn now<T>(&self, reply: Deferred<'_, T>) -> T {
        self.flush();
        reply.wait()
    }
}

/// `collect` as a [`Deferred`]: run on the spot when nothing it collects
/// is `pending`, boxed as the collect half otherwise.
fn deferred<'s, T>(pending: bool, collect: impl FnOnce() -> T + 's) -> Deferred<'s, T> {
    if pending {
        Deferred::Pending(Box::new(collect))
    } else {
        Deferred::Ready(collect())
    }
}

impl<B: ShardBackend> StateView for BackendRouter<'_, B> {
    fn pointer_union(&self, switch: NodeId, range: EpochRange) -> Option<BitSet> {
        self.now(self.pointer_union_deferred(switch, range))
    }

    fn pointer_union_deferred(
        &self,
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'_, Option<BitSet>> {
        // Every shard contributes its masked slice; ORing the disjoint
        // slices reproduces the flat union byte-for-byte (the slot masks
        // partition the directory range — pinned by the DirectoryShard
        // partition tests). One round: every slice request is issued
        // before the first is collected, and collecting in shard order
        // keeps the ORing order of the sequential loop this replaces.
        self.rounds.inc();
        let issued: Vec<_> = self
            .backends
            .iter()
            .map(|b| {
                self.rpcs.inc();
                (b.shard_id(), b.union_slice(switch, range))
            })
            .collect();
        let pending = issued.iter().any(|(_, slice)| !slice.is_ready());
        deferred(pending, move || {
            let mut acc: Option<BitSet> = None;
            let mut total = 0u64;
            for (shard, slice) in issued {
                let Some(slice) = slice.wait() else {
                    continue;
                };
                let ones = slice.count() as u64;
                if ones > 0 {
                    self.decode_bits[shard].add(ones);
                    total += ones;
                }
                match &mut acc {
                    None => acc = Some(slice),
                    Some(a) => a.union_with(&slice),
                }
            }
            if self.backends.len() > 1 && acc.is_some() {
                self.merges.inc();
                self.merged_bits.add(total);
            }
            acc
        })
    }

    fn flush(&self) {
        for b in self.backends {
            b.flush();
        }
    }

    fn pointer_contains_exact(
        &self,
        switch: NodeId,
        addr: u64,
        epoch: u64,
    ) -> Option<Option<bool>> {
        // The shard owning the probed address's slot answers; addresses
        // outside the directory fall to shard 0 (any shard can answer —
        // the probe reads pointer state, not host stores).
        let s = self.dir.owner_of_addr(addr).unwrap_or(0);
        self.decode_bits[s].inc();
        self.rpcs.inc();
        self.rounds.inc();
        self.backends[s].probe_exact(switch, addr, epoch)
    }

    fn presence_wave(&self, switches: &[NodeId], addr: u64, range: EpochRange) -> Vec<bool> {
        // The naive regime is the per-(switch, epoch) probe loop: one
        // backend call each, the baseline the single wave is measured
        // against.
        if !self.coalesce {
            return presence_by_epoch(self, switches, addr, range);
        }
        if switches.is_empty() {
            return Vec::new();
        }
        // One call — one round — to the shard owning the address's slot
        // (shard 0 for addresses outside the directory, as for probes).
        let s = self.dir.owner_of_addr(addr).unwrap_or(0);
        self.decode_bits[s].add(switches.len() as u64);
        self.rpcs.inc();
        self.rounds.inc();
        self.backends[s].presence_wave(switches, addr, range)
    }

    fn store_len(&self, host: NodeId) -> Option<usize> {
        let s = self.owner(host);
        self.note_point_read(s);
        self.backends[s].store_len(host)
    }

    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
        let s = self.owner(host);
        self.note_point_read(s);
        self.backends[s].record(host, flow)
    }

    fn flows_matching(&self, host: NodeId, switch: NodeId, range: EpochRange) -> Vec<FlowRecord> {
        let s = self.owner(host);
        self.note_point_read(s);
        self.point_wave(s, |b| {
            b.filter_wave(std::slice::from_ref(&host), switch, range)
        })
        .pop()
        .map(|(_, recs)| recs)
        .unwrap_or_default()
    }

    fn top_k_through(&self, host: NodeId, switch: NodeId, k: usize) -> Vec<(FlowId, u64)> {
        let s = self.owner(host);
        self.note_point_read(s);
        self.point_wave(s, |b| b.top_k_wave(std::slice::from_ref(&host), switch, k))
            .pop()
            .map(|(_, flows)| flows)
            .unwrap_or_default()
    }

    fn sizes_by_link(&self, host: NodeId, switch: NodeId) -> Vec<(u16, u64)> {
        let s = self.owner(host);
        self.note_point_read(s);
        self.point_wave(s, |b| b.sizes_wave(std::slice::from_ref(&host), switch))
            .pop()
            .map(|(_, sizes)| sizes)
            .unwrap_or_default()
    }

    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent> {
        let s = self.owner(host);
        self.note_point_read(s);
        self.backends[s].first_trigger_for(host, flow)
    }

    fn store_len_wave(&self, hosts: &[NodeId]) -> Vec<Option<usize>> {
        self.now(self.route_wave(hosts, |b, hs| b.store_len_wave(hs), || None))
    }

    fn filter_wave(&self, hosts: &[NodeId], switch: NodeId, range: EpochRange) -> FilterWaveReply {
        self.now(self.route_wave(
            hosts,
            |b, hs| b.filter_wave(hs, switch, range),
            || (None, Vec::new()),
        ))
    }

    fn top_k_wave(&self, hosts: &[NodeId], switch: NodeId, k: usize) -> TopKWaveReply {
        self.now(self.top_k_wave_deferred(hosts, switch, k))
    }

    fn top_k_wave_deferred(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        k: usize,
    ) -> Deferred<'_, TopKWaveReply> {
        self.route_wave(
            hosts,
            move |b, hs| b.top_k_wave(hs, switch, k),
            || (None, Vec::new()),
        )
    }

    fn sizes_wave(&self, hosts: &[NodeId], switch: NodeId) -> SizesWaveReply {
        self.now(self.sizes_wave_deferred(hosts, switch))
    }

    fn sizes_wave_deferred(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
    ) -> Deferred<'_, SizesWaveReply> {
        self.route_wave(
            hosts,
            move |b, hs| b.sizes_wave(hs, switch),
            || (None, Vec::new()),
        )
    }
}

/// The thin router front-end over a live [`Analyzer`]: executes any
/// [`QueryRequest`] through a [`ShardedView`] of the live state, so the
/// verdict is bit-identical to the unsharded analyzer's at any shard
/// count, while the per-shard fan-out is recorded and priced.
pub struct ShardedAnalyzer<'a> {
    analyzer: &'a Analyzer,
    dir: ShardedDirectory,
}

impl<'a> ShardedAnalyzer<'a> {
    /// Partitions `analyzer`'s directory into `n_shards` instances.
    pub fn new(analyzer: &'a Analyzer, n_shards: usize) -> Self {
        let dir = ShardedDirectory::new(
            analyzer.directory().mphf().clone(),
            &analyzer.all_hosts(),
            n_shards,
        );
        ShardedAnalyzer { analyzer, dir }
    }

    /// Number of directory shards.
    pub fn n_shards(&self) -> usize {
        self.dir.n_shards()
    }

    /// The partitioned directory.
    pub fn directory(&self) -> &ShardedDirectory {
        &self.dir
    }

    /// Runs `req` through the shard router. Bit-identical to
    /// [`Analyzer::execute`].
    pub fn execute(&self, req: &QueryRequest) -> QueryResponse {
        self.execute_traced(req).0
    }

    /// Runs `req` and additionally returns the execution trace and the
    /// per-shard fan-out accounting.
    pub fn execute_traced(
        &self,
        req: &QueryRequest,
    ) -> (QueryResponse, ExecutionTrace, ShardFanout) {
        let live = self.analyzer.live_view();
        let view = ShardedView::new(&live, &self.dir);
        let (resp, trace) = QueryExecutor::new(self.analyzer.ctx(), &view).execute_traced(req);
        let fanout = view.fanout();
        (resp, trace, fanout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::HostDirectory;

    fn directory(n_hosts: u32) -> (Arc<Mphf>, Vec<NodeId>) {
        let hosts: Vec<NodeId> = (0..n_hosts).map(NodeId).collect();
        let addrs: Vec<u64> = hosts.iter().map(|h| h.addr()).collect();
        (Arc::new(Mphf::build(&addrs).unwrap()), hosts)
    }

    #[test]
    fn shards_partition_hosts_and_slots() {
        let (mphf, hosts) = directory(64);
        for n in [1usize, 2, 4, 8] {
            let dir = ShardedDirectory::new(mphf.clone(), &hosts, n);
            let mut seen: Vec<NodeId> = Vec::new();
            let mut mask_union = BitSet::new(mphf.len());
            for shard in dir.shards() {
                for &h in shard.hosts() {
                    assert_eq!(dir.owner_of(h), shard.id());
                    assert!(shard.owns(h));
                    seen.push(h);
                }
                assert!(
                    shard.slot_mask.intersect(&mask_union).is_empty(),
                    "shard slot masks must be disjoint"
                );
                mask_union.union_with(&shard.slot_mask);
            }
            seen.sort();
            assert_eq!(seen, hosts, "shards must partition the host set ({n})");
            assert_eq!(
                mask_union.count(),
                mphf.len(),
                "slot masks must cover the whole directory range"
            );
        }
    }

    #[test]
    fn sharded_decode_equals_unsharded_directory() {
        let (mphf, hosts) = directory(48);
        let flat = HostDirectory::new(mphf.clone(), &hosts);
        let mut bits = BitSet::new(mphf.len());
        for &h in hosts.iter().step_by(3) {
            bits.set(mphf.index(&h.addr()).unwrap());
        }
        let expected = flat.hosts_in(&bits);
        for n in [1usize, 2, 4, 8, 5] {
            let dir = ShardedDirectory::new(mphf.clone(), &hosts, n);
            assert_eq!(
                dir.hosts_in(&bits),
                expected,
                "per-shard decode + merge diverged at {n} shards"
            );
            // Per-shard decodes are disjoint and union to the full set.
            let total: usize = dir.shards().iter().map(|s| s.decode(&bits).len()).sum();
            assert_eq!(total, expected.len());
        }
    }

    #[test]
    fn per_shard_metadata_tracks_owned_slice() {
        let (mphf, hosts) = directory(256);
        let dir = ShardedDirectory::new(mphf.clone(), &hosts, 4);
        for shard in dir.shards() {
            assert!(
                !shard.hosts().is_empty(),
                "256 hosts over 4 shards: none should be empty"
            );
            assert!(shard.metadata_bytes() > 0);
            assert!(
                shard.metadata_bytes() < mphf.metadata_bytes(),
                "a shard's local MPHF must be smaller than the global one"
            );
        }
    }

    #[test]
    fn sharded_decode_cost_drops_with_parallel_shards() {
        let cost = CostModel::paper_calibrated();
        // 64 decoded bits spread 16/16/16/16 vs one shard doing all 64.
        let four = cost.sharded_decode(&[16, 16, 16, 16], 64);
        let one = cost.sharded_decode(&[64], 0);
        assert!(
            four < one,
            "balanced 4-shard decode ({four}) must model faster than 1-shard ({one})"
        );
        // Degenerate imbalance gets no benefit (all work on one shard,
        // plus the merge tax).
        assert!(cost.sharded_decode(&[64, 0, 0, 0], 64) >= one);
        // Single-address probes route to one shard and never merge:
        // sharding neither helps nor hurts them.
        assert_eq!(cost.sharded_decode(&[64, 0, 0, 0], 0), one);
        assert_eq!(cost.sharded_decode(&[], 0), netsim::time::SimTime::ZERO);
        assert_eq!(cost.sharded_decode(&[0, 0], 0), netsim::time::SimTime::ZERO);
    }
}
