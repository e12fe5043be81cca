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
//!   restricting a pointer set to them, and the (global slot, host) table
//!   its decode walks.
//! * [`ShardedDirectory`] — the full partition plus the slot → owner map.
//! * [`BackendRouter`] — a [`StateView`] router over one
//!   [`ShardBackend`] per shard, in process ([`LocalBackend`]) or behind a
//!   wire: pointer unions are reassembled from the shards' masked slices
//!   by a deterministic OR/merge; host reads route to the owning shard.
//!   Because the shard masks partition the directory's slot range, the
//!   reassembled state is **bit-identical** to the unsharded view's — the
//!   property test pins verdict equality at any shard count.
//! * [`ShardedAnalyzer`] — the thin router front-end over a live
//!   [`Analyzer`]: fans a [`QueryRequest`]'s state reads out to the owning
//!   shards, merges deterministically, and reports the per-shard fan-out
//!   ([`ShardFanout`]) the cost model turns into a modelled decode time
//!   (`CostModel::sharded_decode`): shards decode concurrently, the
//!   router pays a serial cross-shard merge.
//!
//! As everywhere in this repo: *answers are real, latency is modelled*.
//! Sharding never changes a verdict; it changes who decodes what, which
//! the fan-out counters record and the cost model prices.

use std::sync::Arc;

use mphf::{stable_shard, Mphf};
use netsim::packet::{FlowId, NodeId};
use obsplane::Counter;
use telemetry::EpochRange;

use crate::analyzer::{Analyzer, HostDirectory};
use crate::bitset::BitSet;
use crate::cost::CostModel;
use crate::host::TriggerEvent;
use crate::hoststore::FlowRecord;
pub use crate::query::Deferred;
use crate::query::{
    presence_by_epoch, union_then_wave, with_hosts, ExecutionTrace, FilterWaveReply, HostRows,
    QueryExecutor, QueryRequest, QueryResponse, SizesWaveReply, StateView, TopKWaveReply,
    UnionSizes, UnionTopK, UnionWave,
};

/// The directory shard owning `host`: the same stable splitmix64
/// assignment flow records use, applied to the host address. Pure
/// function of the host and the shard count — every layer (directory,
/// snapshots, retention sweeps, subscriptions) agrees on ownership.
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
    #[cfg(test)]
    pub(crate) fn owns(&self, host: NodeId) -> bool {
        self.hosts.binary_search(&host).is_ok()
    }

    /// `bits` restricted to the slots this shard owns — the slice of a
    /// pointer set this instance decodes.
    pub(crate) fn mask(&self, bits: &BitSet) -> BitSet {
        bits.intersect(&self.slot_mask)
    }

    /// Decodes this shard's slice of `bits` into owned host ids
    /// (ascending) — the per-shard half of a fan-out. Walks the owned
    /// slot table (O(owned), not O(directory)).
    pub(crate) fn decode(&self, bits: &BitSet) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .owned_slots
            .iter()
            .filter(|&&(slot, _)| bits.test(slot))
            .map(|&(_, h)| h)
            .collect();
        out.sort();
        out
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
        let mut shards: Vec<DirectoryShard> = (0..n_shards)
            .map(|s| DirectoryShard {
                shard: s,
                hosts: Vec::new(),
                slot_mask: BitSet::new(mphf.len()),
                owned_slots: Vec::new(),
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

    /// The shard owning `host`'s store and directory entry.
    pub(crate) fn owner_of(&self, host: NodeId) -> usize {
        host_shard_of(host, self.shards.len())
    }

    /// The shard owning the slot `addr` hashes to, if `addr` is in the
    /// directory's key set.
    pub(crate) fn owner_of_addr(&self, addr: u64) -> Option<usize> {
        self.mphf.index(&addr).map(|slot| self.owner_by_slot[slot])
    }

    /// Full decode via per-shard fan-out: each shard decodes its masked
    /// slice, the router merges the sorted slices. Bit-identical to
    /// [`crate::analyzer::HostDirectory::hosts_in`] because the shard
    /// masks partition the slot range.
    #[cfg(test)]
    pub(crate) fn hosts_in(&self, bits: &BitSet) -> Vec<NodeId> {
        let mut merged: Vec<NodeId> = self.shards.iter().flat_map(|s| s.decode(bits)).collect();
        merged.sort();
        merged
    }

    /// One [`LocalBackend`] per shard over `view`, in shard order: what a
    /// [`BackendRouter`] routes over in process.
    pub fn local_backends<'a, V: StateView>(&'a self, view: &'a V) -> Vec<LocalBackend<'a, V>> {
        self.shards
            .iter()
            .map(|s| LocalBackend::new(s, view))
            .collect()
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

// ----------------------------------------------------------------------
// Shard backends: one serving surface per directory shard, local or
// remote.
// ----------------------------------------------------------------------

/// One directory shard's serving surface, with the *reach* abstracted
/// away: a router runs over shard instances living behind a wire
/// (`wireplane`'s shard servers) exactly as it runs over in-process
/// slices ([`LocalBackend`]) — the verdict-equality argument is shared.
///
/// The wave methods mirror [`StateView`]'s batched forms: one call per
/// query wave per shard, which is what lets a remote backend carry a
/// whole fan-out in a single round trip.
///
/// The two fused aggregate reads (`union_top_k`, `union_sizes`) are the
/// paper's retrieve → decode → contact-the-hosts sequence done where the
/// data is: the shard decodes its own slice of the switch's pointer union
/// and answers the host wave for exactly the hosts it decoded — which are
/// the hosts it owns, so no second request is needed to reach them.
///
/// The six methods a router fans out to *several* shards at once
/// (`union_slice`, the two fused reads and the three host waves) return a
/// [`Deferred`]: the call **issues** the request and returns,
/// [`ShardBackend::flush`] puts
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

    /// Point read: one owned host's record for `flow`.
    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord>;

    /// Point read: first trigger an owned host raised for `flow`.
    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent>;

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

    /// This shard's share of a top-k read: the hosts its slice of the
    /// pointer union for `range` at `switch` decodes to (ascending), with
    /// the top-k wave's row for each. `None` if the switch has no
    /// component.
    fn union_top_k(&self, switch: NodeId, range: EpochRange, k: usize) -> Deferred<'_, UnionTopK>;

    /// This shard's share of a link-sizes read, as
    /// [`ShardBackend::union_top_k`].
    fn union_sizes(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, UnionSizes>;
}

/// The in-process [`ShardBackend`]: one shard's slice of a shared
/// [`StateView`]. What a wire shard server computes behind its socket,
/// computed by reference — so a shard's slice of a switch's union is
/// computed once per shard, as a server computes it.
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
        let shard = self.shard;
        self.view
            .pointer_union(switch, range)
            .map(move |u| u.map(|u| shard.mask(&u)))
    }

    fn probe_exact(&self, switch: NodeId, addr: u64, epoch: u64) -> Option<Option<bool>> {
        self.view.pointer_contains_exact(switch, addr, epoch)
    }

    fn presence_wave(&self, switches: &[NodeId], addr: u64, range: EpochRange) -> Vec<bool> {
        self.view.presence_wave(switches, addr, range)
    }

    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
        self.view.record(host, flow)
    }

    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent> {
        self.view.first_trigger_for(host, flow)
    }

    fn filter_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'_, FilterWaveReply> {
        self.view.filter_wave(hosts, switch, range)
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

    fn union_top_k(&self, switch: NodeId, range: EpochRange, k: usize) -> Deferred<'_, UnionTopK> {
        Deferred::Ready(self.decode_then(switch, range, |hosts| {
            self.view.top_k_wave(hosts, switch, k)
        }))
    }

    fn union_sizes(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, UnionSizes> {
        Deferred::Ready(
            self.decode_then(switch, range, |hosts| self.view.sizes_wave(hosts, switch)),
        )
    }
}

impl<V: StateView> LocalBackend<'_, V> {
    /// The shard side of a fused read: decode this shard's slice of the
    /// union, then run `wave` over the hosts it decoded.
    fn decode_then<R>(
        &self,
        switch: NodeId,
        range: EpochRange,
        wave: impl FnOnce(&[NodeId]) -> Vec<(Option<u64>, Vec<R>)>,
    ) -> UnionWave<R> {
        let union = self.view.pointer_union(switch, range).wait()?;
        Some(with_hosts(self.shard.decode(&union), wave))
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
    /// point read, however many shards it fanned out to. A driver that
    /// issues several before it collects the first (a diagnosis issues a
    /// whole path's unions at once) waits through fewer round trips than
    /// this.
    pub rounds: u64,
}

/// A [`StateView`] router over per-shard backends, local or remote.
/// Pointer unions are reassembled by ORing the shards' disjoint masked
/// slices (the slot masks partition the directory range, so the union is
/// bit-identical to the flat view's); host reads route to the owning
/// shard; wave reads coalesce per shard — one backend call, and for a
/// remote backend one wire request, per shard per wave. The fused
/// aggregate reads ([`StateView::union_top_k`],
/// [`StateView::union_sizes`]) are one call per shard in all:
/// each shard decodes its slice and answers for the hosts it decoded, and
/// the router merges the per-shard rows in host order.
///
/// Fan-outs are **issue-then-collect**: a union reassembly or a wave
/// first issues its request to every involved shard, then collects the
/// [`Deferred`] replies in shard order. The collect order is the old
/// call order, so slices OR together and replies scatter back exactly as
/// they always did — only the waiting overlaps. The seam between the two
/// halves is public: the fanned-out [`StateView`] reads return after the
/// issue half with the collect half as the [`Deferred`] (`Ready` when
/// every backend answered in process); the two blocking waves
/// (`top_k_wave`, `sizes_wave`) are *issue, flush every backend,
/// collect*. Counters move where
/// the work happens — calls and rounds at issue, decoded bits and merges
/// at collect — so a query's [`RouterCounters`] do not depend on who
/// drove it.
///
/// With `coalesce` off, wave reads degrade to one backend call per host,
/// each waited on before the next is issued, and the fused reads to the
/// union round followed by those per-host calls: the naive per-host RPC
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
        let mut groups = Vec::with_capacity(self.backends.len());
        let mut issued: Vec<Deferred<'s, Vec<T>>> = Vec::with_capacity(self.backends.len());
        for (s, (idxs, shard_hosts)) in by_shard.into_iter().enumerate() {
            if shard_hosts.is_empty() {
                continue;
            }
            self.host_reads[s].add(shard_hosts.len() as u64);
            if self.coalesce {
                self.rpcs.inc();
                self.wave_rpcs.inc();
                issued.push(call(&self.backends[s], &shard_hosts));
                groups.push(idxs);
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
        let issued: Deferred<'s, Vec<_>> = issued.into_iter().collect();
        issued.map(move |replies| {
            for (idxs, replies) in groups.into_iter().zip(replies) {
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

    /// Routes one fused aggregate read: one call to every shard, each
    /// answering for the hosts its slice of the union decodes to. One
    /// round and one wave round; one RPC and one wave RPC per shard. At
    /// collect, a shard's decoded hosts count as its decoded bits and its
    /// host reads, and the rows merge in host order — the order
    /// [`HostDirectory::hosts_in`] decodes the whole union in, since the
    /// shards' slices partition it.
    fn route_union_wave<'s, T: 's>(
        &'s self,
        call: impl Fn(&'a B) -> Deferred<'a, UnionWave<T>>,
    ) -> Deferred<'s, UnionWave<T>> {
        self.rounds.inc();
        self.wave_rounds.inc();
        let issued: Deferred<'s, Vec<_>> = self
            .backends
            .iter()
            .map(|b| {
                self.rpcs.inc();
                self.wave_rpcs.inc();
                call(b)
            })
            .collect();
        issued.map(move |replies| {
            let mut total = 0u64;
            // Backends are in shard order, so the index is the shard.
            let mut parts: Vec<HostRows<T>> = replies
                .into_iter()
                .enumerate()
                .filter_map(|(shard, reply)| {
                    let part = reply?;
                    let n = part.len() as u64;
                    if n > 0 {
                        self.decode_bits[shard].add(n);
                        self.host_reads[shard].add(n);
                        total += n;
                    }
                    Some(part)
                })
                .collect();
            if parts.is_empty() {
                return None;
            }
            if self.backends.len() > 1 {
                self.merges.inc();
                self.merged_bits.add(total);
            }
            // A lone shard's hosts are already ascending.
            if parts.len() == 1 {
                return parts.pop();
            }
            let mut rows: HostRows<T> = parts.into_iter().flatten().collect();
            rows.sort_unstable_by_key(|&(h, ..)| h);
            Some(rows)
        })
    }

    /// The blocking form of a routed read: flush what its issue half put
    /// on the backends, then collect.
    fn now<T>(&self, reply: Deferred<'_, T>) -> T {
        self.flush();
        reply.wait()
    }
}

impl<B: ShardBackend> StateView for BackendRouter<'_, B> {
    fn pointer_union(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, Option<BitSet>> {
        // Every shard contributes its masked slice; ORing the disjoint
        // slices reproduces the flat union byte-for-byte (the slot masks
        // partition the directory range — pinned by the DirectoryShard
        // partition tests). One round: every slice request is issued
        // before the first is collected, and collecting in shard order
        // keeps the ORing order of the sequential loop this replaces.
        self.rounds.inc();
        let slices: Deferred<'_, Vec<_>> = self
            .backends
            .iter()
            .map(|b| {
                self.rpcs.inc();
                b.union_slice(switch, range)
            })
            .collect();
        slices.map(move |slices| {
            let mut acc: Option<BitSet> = None;
            let mut total = 0u64;
            for (shard, slice) in slices.into_iter().enumerate() {
                let Some(slice) = slice else {
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

    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
        let s = self.owner(host);
        self.note_point_read(s);
        self.backends[s].record(host, flow)
    }

    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent> {
        let s = self.owner(host);
        self.note_point_read(s);
        self.backends[s].first_trigger_for(host, flow)
    }

    fn filter_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'_, FilterWaveReply> {
        self.route_wave(
            hosts,
            |b, hs| b.filter_wave(hs, switch, range),
            || (None, Vec::new()),
        )
    }

    fn top_k_wave(&self, hosts: &[NodeId], switch: NodeId, k: usize) -> TopKWaveReply {
        self.now(self.route_wave(
            hosts,
            move |b, hs| b.top_k_wave(hs, switch, k),
            || (None, Vec::new()),
        ))
    }

    fn sizes_wave(&self, hosts: &[NodeId], switch: NodeId) -> SizesWaveReply {
        self.now(self.route_wave(
            hosts,
            move |b, hs| b.sizes_wave(hs, switch),
            || (None, Vec::new()),
        ))
    }

    fn union_top_k<'s>(
        &'s self,
        dir: &'s HostDirectory,
        switch: NodeId,
        range: EpochRange,
        k: usize,
    ) -> Deferred<'s, UnionTopK> {
        if !self.coalesce {
            return union_then_wave(self, dir, switch, range, move |hosts| {
                self.top_k_wave(hosts, switch, k)
            });
        }
        self.route_union_wave(move |b| b.union_top_k(switch, range, k))
    }

    fn union_sizes<'s>(
        &'s self,
        dir: &'s HostDirectory,
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'s, UnionSizes> {
        if !self.coalesce {
            return union_then_wave(self, dir, switch, range, move |hosts| {
                self.sizes_wave(hosts, switch)
            });
        }
        self.route_union_wave(move |b| b.union_sizes(switch, range))
    }
}

/// The thin router front-end over a live [`Analyzer`]: executes any
/// [`QueryRequest`] through a [`BackendRouter`] over [`LocalBackend`]s of
/// the live state, so the verdict is bit-identical to the unsharded
/// analyzer's at any shard count, while the per-shard fan-out is recorded
/// and priced.
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
        let backends = self.dir.local_backends(&live);
        let router = BackendRouter::new(&backends, &self.dir);
        let (resp, trace) = QueryExecutor::new(self.analyzer.ctx(), &router).execute_traced(req);
        (resp, trace, router.counters().fanout)
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
