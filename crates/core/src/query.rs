//! Reusable per-application query executors behind a uniform
//! [`QueryRequest`] / [`QueryResponse`] API.
//!
//! The §5 debugging applications were originally methods on
//! [`Analyzer`](crate::Analyzer); this module is the same logic hoisted
//! over an abstract [`StateView`] so two front-ends can share it
//! bit-for-bit:
//!
//! * the sequential [`Analyzer`](crate::Analyzer), reading the live
//!   `Rc<RefCell<…>>` component handles wired into the simulator; and
//! * the concurrent `queryplane` crate, reading an immutable, thread-safe
//!   snapshot sharded by flow id.
//!
//! Every executor run also produces an [`ExecutionTrace`] — which pointer
//! sets were pulled (and what the sequential cost model charged for the
//! round) and which hosts each query wave contacted. The query plane's
//! batching and pointer-cache accounting replays these traces; the
//! *answers* never depend on them, which is what makes "same seed + same
//! queries ⇒ same verdicts, any worker count" hold by construction.
//!
//! ## Stages
//!
//! A query is a few *rounds* of state reads, and over a remote view each
//! round is a network round trip. [`QueryExecutor::start`] therefore runs
//! a query only as far as its next round: it returns [`Staged::Done`], or
//! [`Staged::Pending`] with that round's requests already issued and a
//! [`Stage`] to resume once they were sent. Whoever holds the stage is the
//! **driver**: it calls [`StateView::flush`] — or, holding many stages
//! over the same links, flushes the links once for all of them — and then
//! resumes. [`QueryExecutor::execute_traced`] is the driver of one query;
//! the wire front-end drives a whole wave in lock-step, so the wave's
//! round leaves as one frame per shard however many queries it holds.
//!
//! **One form per read.** A read that a router fans out to several shards
//! — [`StateView::pointer_union`], [`StateView::filter_wave`] and the two
//! fused aggregate reads — returns a [`Deferred`]: the call issues it and
//! [`Deferred::wait`] collects it. A read that one shard answers (the
//! point reads, [`StateView::presence_wave`]) returns its value. A host
//! wave has no per-host twin: an in-process view answers it through
//! [`host_wave`], and its reply has one type in process and on the wire.
//! Every class is written once, staged over those reads:
//!
//! * the diagnoses ([`QueryRequest::Contention`],
//!   [`QueryRequest::RedLights`], [`QueryRequest::Cascade`]) issue the
//!   union of every switch on the victim's path as one round, then the
//!   filter waves the decoded hosts call for as the next — two rounds for
//!   each pointer round the trace records (a cascade records one per
//!   stage);
//! * the aggregates ([`QueryRequest::TopK`], [`QueryRequest::LoadImbalance`])
//!   are **one round**: the paper's analyzer pulls the switch's pointers,
//!   decodes them and contacts the hosts (§4.3, §6.2), and
//!   [`StateView::union_top_k`] / [`StateView::union_sizes`] ask the view
//!   for all three at once. Their defaults compose the unfused reads; a
//!   router over directory shards overrides them so each shard decodes its
//!   own slice of the union and answers the wave for the hosts it decoded,
//!   in one request;
//! * [`QueryRequest::SilentDrop`] is one [`StateView::presence_wave`], which
//!   one shard answers, so it never defers.
//!
//! A view that answers in process returns [`Deferred::Ready`], the
//! continuation runs on the spot and no stage is ever allocated — `start`
//! returns `Done`. A wave over no hosts is `Ready` too, and takes no
//! round.

use std::collections::BTreeMap;
use std::ops::Deref;

use netsim::packet::{FlowId, NodeId};
use netsim::time::SimTime;
use telemetry::frame::{Dec, Enc, Wire, WireError};
use telemetry::EpochRange;

use crate::analyzer::{
    CascadeDiagnosis, CascadeStage, ContentionDiagnosis, Culprit, Deployment, DropDiagnosis,
    HostDirectory, LoadImbalanceDiagnosis, RedLightsDiagnosis, TopKResult, Verdict,
};
use crate::bitset::BitSet;
use crate::cost::QueryWaveCost;
use crate::host::TriggerEvent;
use crate::hoststore::{keep_top_k, FlowRecord, FlowStore};

/// One host's slice of a batched *filter* wave reply: its store size
/// (`None` for unknown hosts) and the records matching the wave's
/// `(switch, range)` key.
pub type FilterWaveReply = Vec<(Option<u64>, Vec<FlowRecord>)>;
/// One host's slice of a batched *top-k* wave reply.
pub type TopKWaveReply = Vec<(Option<u64>, Vec<(FlowId, u64)>)>;
/// One host's slice of a batched *link-sizes* wave reply.
pub type SizesWaveReply = Vec<(Option<u64>, Vec<(u16, u64)>)>;
/// A wave's rows with the host each one answers for: per host, its id,
/// store size (`None` for unknown hosts) and rows.
pub type HostRows<R> = Vec<(NodeId, Option<u64>, Vec<R>)>;
/// A fused aggregate read: a row per host the switch's pointer union
/// decodes to, ascending (as [`HostDirectory::hosts_in`] returns them);
/// `None` if the switch has no SwitchPointer component.
pub type UnionWave<R> = Option<HostRows<R>>;
/// A fused top-k read.
pub type UnionTopK = UnionWave<(FlowId, u64)>;
/// A fused link-sizes read.
pub type UnionSizes = UnionWave<(u16, u64)>;

/// A wave over in-process host stores: per host, its store size and
/// `scan` of its store. An unknown host (`store_of` returns `None`)
/// reports `(None, [])` and is never scanned. Each host's store is
/// looked up once.
pub fn host_wave<S: Deref<Target = FlowStore>, R>(
    hosts: &[NodeId],
    store_of: impl Fn(NodeId) -> Option<S>,
    scan: impl Fn(&FlowStore) -> Vec<R>,
) -> Vec<(Option<u64>, Vec<R>)> {
    hosts
        .iter()
        .map(|&h| match store_of(h) {
            None => (None, Vec::new()),
            Some(store) => (Some(store.len() as u64), scan(&store)),
        })
        .collect()
}

/// Read-only access to deployment state (switch pointers + host stores),
/// returning owned data so implementations may sit over `Rc<RefCell<…>>`
/// handles or over immutable cross-thread snapshots alike.
pub trait StateView {
    /// Pointer-bit union for `range` at `switch`; `None` if the switch has
    /// no SwitchPointer component.
    fn pointer_union(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, Option<BitSet>>;

    /// Exact-resolution presence probe (max span 1 epoch) at `switch`;
    /// outer `None` if the switch has no component.
    fn pointer_contains_exact(&self, switch: NodeId, addr: u64, epoch: u64)
        -> Option<Option<bool>>;

    /// `host`'s record for `flow`, if any.
    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord>;

    /// First trigger `host` raised for `flow`.
    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent>;

    // ------------------------------------------------------------------
    // Host waves: the filter and aggregate queries of §4.3. One call
    // covers a whole query wave, so a view backed by remote shard
    // servers (`wireplane`) can coalesce the fan-out into one wire
    // round-trip per shard; an in-process view answers through
    // [`host_wave`]. Unknown hosts report `(None, [])` and their stores
    // are never scanned.
    // ------------------------------------------------------------------

    /// *Filter* wave: per host, its store size and the records that
    /// traversed `switch` during `range` (ascending flow id).
    fn filter_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'_, FilterWaveReply>;

    /// *Aggregate* wave: per host, its store size and top-k flows through
    /// `switch` by bytes. No query class calls it: the top-k read is
    /// [`StateView::union_top_k`], whose default composes it.
    fn top_k_wave(&self, hosts: &[NodeId], switch: NodeId, k: usize) -> TopKWaveReply;

    /// *Aggregate* wave: per host, its store size and (link VID, bytes)
    /// pairs through `switch` — composed by [`StateView::union_sizes`]'s
    /// default, as [`StateView::top_k_wave`] is by the top-k read's.
    fn sizes_wave(&self, hosts: &[NodeId], switch: NodeId) -> SizesWaveReply;

    /// *Presence* wave: per switch, was `addr` seen at exact (level-1)
    /// resolution in any epoch of `range`? Switches without a component
    /// report `false`. The default is [`presence_by_epoch`] — the
    /// reference every override must equal bit for bit.
    fn presence_wave(&self, switches: &[NodeId], addr: u64, range: EpochRange) -> Vec<bool> {
        presence_by_epoch(self, switches, addr, range)
    }

    /// The whole top-k read of `switch` over `range`: its pointer union,
    /// decoded through `dir`, then the top-k wave over the decoded hosts.
    /// The default is exactly that composition (`union_then_wave`).
    fn union_top_k<'s>(
        &'s self,
        dir: &'s HostDirectory,
        switch: NodeId,
        range: EpochRange,
        k: usize,
    ) -> Deferred<'s, UnionTopK> {
        union_then_wave(self, dir, switch, range, move |hosts| {
            self.top_k_wave(hosts, switch, k)
        })
    }

    /// The whole link-sizes read of `switch` over `range`, as
    /// [`StateView::union_top_k`] is the whole top-k read.
    fn union_sizes<'s>(
        &'s self,
        dir: &'s HostDirectory,
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'s, UnionSizes> {
        union_then_wave(self, dir, switch, range, move |hosts| {
            self.sizes_wave(hosts, switch)
        })
    }

    /// Sends whatever the fanned-out reads have issued and not yet put on
    /// the wire. Every pending [`Deferred`] must see a flush before it is
    /// waited on, or its round trips run one after another. Nothing to do
    /// for a view that answers in process.
    fn flush(&self) {}
}

/// A reply that may still be on its way: what the fanned-out
/// [`StateView`] reads and
/// [`ShardBackend`](crate::shard::ShardBackend) methods return. An
/// in-process source answers `Ready`; a remote one has issued its request
/// and hands back the collect half of the exchange as `Pending`. Dropping
/// a `Deferred` un-waited abandons the exchange (the closure owns
/// whatever must be released).
pub enum Deferred<'a, T> {
    /// The reply is already here.
    Ready(T),
    /// Running the closure waits for the reply and returns it.
    Pending(Box<dyn FnOnce() -> T + 'a>),
}

impl<T> Deferred<'_, T> {
    /// Collects the reply, blocking until it has arrived.
    pub fn wait(self) -> T {
        match self {
            Deferred::Ready(value) => value,
            Deferred::Pending(wait) => wait(),
        }
    }

    /// Whether [`Deferred::wait`] returns without waiting on anything.
    pub fn is_ready(&self) -> bool {
        matches!(self, Deferred::Ready(_))
    }
}

impl<'a, T: 'a> Deferred<'a, T> {
    /// `f` applied to the reply: at once when it is here, on collection
    /// otherwise.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U + 'a) -> Deferred<'a, U> {
        match self {
            Deferred::Ready(value) => Deferred::Ready(f(value)),
            Deferred::Pending(wait) => Deferred::Pending(Box::new(move || f(wait()))),
        }
    }
}

/// Several replies as one, collected in order. Every part is issued
/// before anything is waited on — the iterator is drained first — so the
/// parts of one round are in flight together. `Ready` when every part is.
impl<'a, T: 'a> FromIterator<Deferred<'a, T>> for Deferred<'a, Vec<T>> {
    fn from_iter<I: IntoIterator<Item = Deferred<'a, T>>>(parts: I) -> Self {
        let parts: Vec<_> = parts.into_iter().collect();
        let ready = parts.iter().all(Deferred::is_ready);
        let collect = move || parts.into_iter().map(Deferred::wait).collect();
        if ready {
            Deferred::Ready(collect())
        } else {
            Deferred::Pending(Box::new(collect))
        }
    }
}

/// The fused aggregate read composed from the unfused ones — the default
/// of [`StateView::union_top_k`] and [`StateView::union_sizes`], and the
/// reference every override
/// must equal: `switch`'s pointer union, decoded through `dir`, then
/// `wave` over the decoded hosts. The union is deferred; the wave runs
/// when it is collected.
pub(crate) fn union_then_wave<'s, V: StateView + ?Sized, R: 's>(
    view: &'s V,
    dir: &'s HostDirectory,
    switch: NodeId,
    range: EpochRange,
    wave: impl FnOnce(&[NodeId]) -> Vec<(Option<u64>, Vec<R>)> + 's,
) -> Deferred<'s, UnionWave<R>> {
    view.pointer_union(switch, range)
        .map(move |bits| bits.map(|bits| with_hosts(dir.hosts_in(&bits), wave)))
}

/// `wave` over `hosts`, each row beside the host it answers for.
pub(crate) fn with_hosts<R>(
    hosts: Vec<NodeId>,
    wave: impl FnOnce(&[NodeId]) -> Vec<(Option<u64>, Vec<R>)>,
) -> HostRows<R> {
    let rows = wave(&hosts);
    hosts
        .into_iter()
        .zip(rows)
        .map(|(h, (len, rows))| (h, len, rows))
        .collect()
}

/// What a read of `switch`'s pointer state returned, for a switch that
/// must have a SwitchPointer component.
fn component<T>(switch: NodeId, read: Option<T>) -> T {
    read.unwrap_or_else(|| panic!("no SwitchPointer component on {switch}"))
}

/// The per-epoch form of [`StateView::presence_wave`]: one
/// [`StateView::pointer_contains_exact`] probe per `(switch, epoch)` until
/// the first hit. O(range) probes per switch — the reference the ranged
/// overrides are property-tested against, and the call pattern of the
/// naive (uncoalesced) router.
pub fn presence_by_epoch<V: StateView + ?Sized>(
    view: &V,
    switches: &[NodeId],
    addr: u64,
    range: EpochRange,
) -> Vec<bool> {
    switches
        .iter()
        .map(|&sw| {
            range
                .iter()
                .any(|e| view.pointer_contains_exact(sw, addr, e) == Some(Some(true)))
        })
        .collect()
}

/// One debugging query, ready to schedule. `Hash`/`Eq` make the request
/// itself the key a batch coalesces repeats by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryRequest {
    /// §5.1 — who contended with `victim` at its bottleneck switch?
    Contention {
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
    },
    /// §5.2 — accumulated contention across every switch of the path.
    RedLights {
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
    },
    /// §5.3 — recursive delay chain, up to `max_depth` stages.
    Cascade {
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
        max_depth: usize,
    },
    /// §5.4 — flow-size distributions per egress link at `switch`.
    LoadImbalance { switch: NodeId, range: EpochRange },
    /// §6.2 — top-k flows through `switch` over `range`.
    TopK {
        switch: NodeId,
        k: usize,
        range: EpochRange,
    },
    /// §2.4-class — where did `flow`'s packets stop flowing?
    SilentDrop {
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        range: EpochRange,
    },
}

/// The stable query-class names, in [`QueryRequest::class_index`] order.
/// Metric names (`queryplane.exec_ns.<class>`), span labels and the
/// bench JSON's per-class percentile section all key off these.
pub const QUERY_CLASS_NAMES: [&str; 6] = [
    "contention",
    "red_lights",
    "cascade",
    "load_imbalance",
    "top_k",
    "silent_drop",
];

impl QueryRequest {
    /// This request's position in [`QUERY_CLASS_NAMES`].
    pub fn class_index(&self) -> usize {
        match self {
            QueryRequest::Contention { .. } => 0,
            QueryRequest::RedLights { .. } => 1,
            QueryRequest::Cascade { .. } => 2,
            QueryRequest::LoadImbalance { .. } => 3,
            QueryRequest::TopK { .. } => 4,
            QueryRequest::SilentDrop { .. } => 5,
        }
    }

    /// The stable class name observability keys off (one per variant).
    pub fn class_name(&self) -> &'static str {
        QUERY_CLASS_NAMES[self.class_index()]
    }
}

impl Wire for QueryRequest {
    fn enc(&self, e: &mut Enc) {
        match *self {
            QueryRequest::Contention {
                victim,
                victim_dst,
                trigger_window,
            } => {
                e.put_u8(0);
                victim.enc(e);
                victim_dst.enc(e);
                trigger_window.enc(e);
            }
            QueryRequest::RedLights {
                victim,
                victim_dst,
                trigger_window,
            } => {
                e.put_u8(1);
                victim.enc(e);
                victim_dst.enc(e);
                trigger_window.enc(e);
            }
            QueryRequest::Cascade {
                victim,
                victim_dst,
                trigger_window,
                max_depth,
            } => {
                e.put_u8(2);
                victim.enc(e);
                victim_dst.enc(e);
                trigger_window.enc(e);
                e.put_usize(max_depth);
            }
            QueryRequest::LoadImbalance { switch, range } => {
                e.put_u8(3);
                switch.enc(e);
                range.enc(e);
            }
            QueryRequest::TopK { switch, k, range } => {
                e.put_u8(4);
                switch.enc(e);
                e.put_usize(k);
                range.enc(e);
            }
            QueryRequest::SilentDrop {
                flow,
                src,
                dst,
                range,
            } => {
                e.put_u8(5);
                flow.enc(e);
                src.enc(e);
                dst.enc(e);
                range.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(QueryRequest::Contention {
                victim: FlowId::dec(d)?,
                victim_dst: NodeId::dec(d)?,
                trigger_window: SimTime::dec(d)?,
            }),
            1 => Ok(QueryRequest::RedLights {
                victim: FlowId::dec(d)?,
                victim_dst: NodeId::dec(d)?,
                trigger_window: SimTime::dec(d)?,
            }),
            2 => Ok(QueryRequest::Cascade {
                victim: FlowId::dec(d)?,
                victim_dst: NodeId::dec(d)?,
                trigger_window: SimTime::dec(d)?,
                max_depth: d.get_usize()?,
            }),
            3 => Ok(QueryRequest::LoadImbalance {
                switch: NodeId::dec(d)?,
                range: EpochRange::dec(d)?,
            }),
            4 => Ok(QueryRequest::TopK {
                switch: NodeId::dec(d)?,
                k: d.get_usize()?,
                range: EpochRange::dec(d)?,
            }),
            5 => Ok(QueryRequest::SilentDrop {
                flow: FlowId::dec(d)?,
                src: NodeId::dec(d)?,
                dst: NodeId::dec(d)?,
                range: EpochRange::dec(d)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// The matching result for each [`QueryRequest`] variant.
#[derive(Debug, Clone)]
pub enum QueryResponse {
    Contention(ContentionDiagnosis),
    RedLights(RedLightsDiagnosis),
    Cascade(CascadeDiagnosis),
    LoadImbalance(LoadImbalanceDiagnosis),
    TopK(TopKResult),
    SilentDrop(DropDiagnosis),
}

impl QueryResponse {
    /// This response's position in [`QUERY_CLASS_NAMES`] (matches the
    /// originating request's [`QueryRequest::class_index`]).
    pub(crate) fn class_index(&self) -> usize {
        match self {
            QueryResponse::Contention(_) => 0,
            QueryResponse::RedLights(_) => 1,
            QueryResponse::Cascade(_) => 2,
            QueryResponse::LoadImbalance(_) => 3,
            QueryResponse::TopK(_) => 4,
            QueryResponse::SilentDrop(_) => 5,
        }
    }

    /// The stable class name observability keys off.
    pub(crate) fn class_name(&self) -> &'static str {
        QUERY_CLASS_NAMES[self.class_index()]
    }
}

impl Wire for QueryResponse {
    fn enc(&self, e: &mut Enc) {
        match self {
            QueryResponse::Contention(v) => {
                e.put_u8(0);
                v.enc(e);
            }
            QueryResponse::RedLights(v) => {
                e.put_u8(1);
                v.enc(e);
            }
            QueryResponse::Cascade(v) => {
                e.put_u8(2);
                v.enc(e);
            }
            QueryResponse::LoadImbalance(v) => {
                e.put_u8(3);
                v.enc(e);
            }
            QueryResponse::TopK(v) => {
                e.put_u8(4);
                v.enc(e);
            }
            QueryResponse::SilentDrop(v) => {
                e.put_u8(5);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(QueryResponse::Contention(ContentionDiagnosis::dec(d)?)),
            1 => Ok(QueryResponse::RedLights(RedLightsDiagnosis::dec(d)?)),
            2 => Ok(QueryResponse::Cascade(CascadeDiagnosis::dec(d)?)),
            3 => Ok(QueryResponse::LoadImbalance(LoadImbalanceDiagnosis::dec(
                d,
            )?)),
            4 => Ok(QueryResponse::TopK(TopKResult::dec(d)?)),
            5 => Ok(QueryResponse::SilentDrop(DropDiagnosis::dec(d)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// One pointer-retrieval round: the (switch, epoch range) keys consulted
/// and what the sequential cost model charged for the round.
#[derive(Debug, Clone)]
pub struct PointerRound {
    pub keys: Vec<(NodeId, EpochRange)>,
    pub(crate) modelled: SimTime,
}

/// What a query touched while executing, in the terms the cost model
/// prices: its pointer rounds and its host waves. `ModelReplay` in the
/// query plane replays it for batched-fan-out accounting.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// Pointer-retrieval rounds, in execution order.
    pub pointer_rounds: Vec<PointerRound>,
    /// Host query waves: each wave lists (host, records scanned there).
    pub waves: Vec<Vec<(NodeId, usize)>>,
}

impl ExecutionTrace {
    fn push_round(&mut self, keys: Vec<(NodeId, EpochRange)>, modelled: SimTime) {
        self.pointer_rounds.push(PointerRound { keys, modelled });
    }

    /// Total sequential charge for all pointer rounds.
    pub fn pointer_total(&self) -> SimTime {
        self.pointer_rounds
            .iter()
            .fold(SimTime::ZERO, |acc, r| acc + r.modelled)
    }
}

/// A query part-way through its rounds — what [`QueryExecutor::start`]
/// and [`Stage::resume`] return.
// `Done` is the common variant and is returned by value once per query;
// boxing it would put an allocation on the in-process hot path.
#[allow(clippy::large_enum_variant)]
pub enum Staged<'a> {
    /// The query ran to its answer.
    Done(QueryResponse, ExecutionTrace),
    /// The next round's requests are issued; flush the view, then resume
    /// the stage to collect them and run on.
    Pending(Stage<'a>),
}

/// The rest of a query whose current round is in flight.
pub struct Stage<'a>(Box<dyn FnOnce() -> Staged<'a> + 'a>);

impl<'a> Stage<'a> {
    /// Collects the round in flight and runs the query to its next round
    /// or its answer. The caller flushes the view first (see the module
    /// docs); a resume without one still completes, one round trip at a
    /// time.
    pub fn resume(self) -> Staged<'a> {
        (self.0)()
    }
}

/// Runs `next` on `reply`: at once when the reply is already here, as the
/// query's next [`Stage`] when it is still in flight. The only place a
/// stage is allocated — a `Ready` reply never boxes anything.
fn then<'a, T: 'a>(reply: Deferred<'a, T>, next: impl FnOnce(T) -> Staged<'a> + 'a) -> Staged<'a> {
    match reply {
        Deferred::Ready(value) => next(value),
        Deferred::Pending(wait) => Staged::Pending(Stage(Box::new(move || next(wait())))),
    }
}

/// The driver of one query: flushes `view` and resumes until `staged` is
/// done.
fn drive<V: StateView + ?Sized>(
    view: &V,
    mut staged: Staged<'_>,
) -> (QueryResponse, ExecutionTrace) {
    loop {
        match staged {
            Staged::Done(resp, trace) => return (resp, trace),
            Staged::Pending(stage) => {
                view.flush();
                staged = stage.resume();
            }
        }
    }
}

/// What a filter wave over `hosts` at `switch` found: the culprits —
/// every matching record but the victim's own, highest priority then
/// largest first — and each host's record count (0 for an unknown host).
fn culprits(
    hosts: &[NodeId],
    replies: FilterWaveReply,
    switch: NodeId,
    range: EpochRange,
    victim: FlowId,
) -> (Vec<Culprit>, Vec<usize>) {
    let mut culprits = Vec::new();
    let mut record_counts = Vec::with_capacity(hosts.len());
    for (&h, (len, matching)) in hosts.iter().zip(replies) {
        let Some(len) = len else {
            record_counts.push(0);
            continue;
        };
        record_counts.push(len as usize);
        for rec in matching {
            if rec.flow == victim {
                continue;
            }
            let common: Vec<u64> = rec.epochs_at[&switch].epochs_in(range).collect();
            culprits.push(Culprit {
                flow: rec.flow,
                src: rec.src,
                dst: rec.dst,
                host: h,
                priority: rec.priority,
                bytes: rec.bytes,
                common_epochs: common,
            });
        }
    }
    culprits.sort_by_key(|c| (std::cmp::Reverse(c.priority), std::cmp::Reverse(c.bytes)));
    (culprits, record_counts)
}

/// The per-application query algorithms of §5, runnable over any
/// [`StateView`].
pub struct QueryExecutor<'a, V: StateView> {
    ctx: &'a Deployment,
    view: &'a V,
    trace: ExecutionTrace,
}

impl<'a, V: StateView> QueryExecutor<'a, V> {
    pub fn new(ctx: &'a Deployment, view: &'a V) -> Self {
        QueryExecutor {
            ctx,
            view,
            trace: ExecutionTrace::default(),
        }
    }

    /// Runs `req` and returns just the response.
    pub fn execute(self, req: &QueryRequest) -> QueryResponse {
        self.execute_traced(req).0
    }

    /// Runs `req` and additionally returns the execution trace: drives
    /// [`QueryExecutor::start`] to completion, flushing the view before
    /// every resume.
    pub fn execute_traced(self, req: &QueryRequest) -> (QueryResponse, ExecutionTrace) {
        let view = self.view;
        drive(view, self.start(req))
    }

    /// Runs `req` up to its first round still in flight (see the module
    /// docs): [`Staged::Done`] over a view that answers in process.
    pub fn start(self, req: &QueryRequest) -> Staged<'a> {
        match *req {
            QueryRequest::Contention {
                victim,
                victim_dst,
                trigger_window,
            } => {
                let trigger = self.victim_trigger(victim_dst, victim);
                self.contention(victim, victim_dst, trigger_window, trigger)
            }
            QueryRequest::RedLights {
                victim,
                victim_dst,
                trigger_window,
            } => self.red_lights(victim, victim_dst, trigger_window),
            QueryRequest::Cascade {
                victim,
                victim_dst,
                trigger_window,
                max_depth,
            } => {
                let trigger = self.victim_trigger(victim_dst, victim);
                let range = self.ctx.epoch_window(&trigger, trigger_window);
                let diagnosis = CascadeDiagnosis {
                    stages: Vec::new(),
                    hosts_contacted: 0,
                    breakdown: self.ctx.breakdown(
                        trigger_window,
                        SimTime::ZERO,
                        QueryWaveCost::default(),
                    ),
                };
                self.cascade(diagnosis, victim, victim_dst, range, max_depth)
            }
            QueryRequest::LoadImbalance { switch, range } => self.load_imbalance(switch, range),
            QueryRequest::TopK { switch, k, range } => self.top_k(switch, k, range),
            QueryRequest::SilentDrop {
                flow,
                src,
                dst,
                range,
            } => self.silent_drop(flow, src, dst, range),
        }
    }

    /// [`QueryRequest::Contention`] for a given trigger rather than the
    /// victim's first — what
    /// [`Analyzer::diagnose_contention_at`](crate::Analyzer::diagnose_contention_at)
    /// runs.
    pub(crate) fn contention_at(
        self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
        trigger: TriggerEvent,
    ) -> ContentionDiagnosis {
        let view = self.view;
        let staged = self.contention(victim, victim_dst, trigger_window, trigger);
        let (QueryResponse::Contention(d), _) = drive(view, staged) else {
            unreachable!("a Contention request answers Contention")
        };
        d
    }

    // ------------------------------------------------------------------
    // Shared machinery
    // ------------------------------------------------------------------

    /// The pointer retrieval of §4.3 for every switch of `path` over
    /// `range`, as one round: every union is issued before the first is
    /// collected. Collects, per switch, the decoded union less
    /// `victim_dst`, reduced to the hosts that can have shared the
    /// victim's egress port there — or `None` for a switch with no
    /// SwitchPointer component.
    fn path_hosts(
        &self,
        path: &[NodeId],
        range: EpochRange,
        victim_dst: NodeId,
        victim: FlowId,
    ) -> Deferred<'a, Vec<Option<Vec<NodeId>>>> {
        let ctx = self.ctx;
        let unions: Deferred<'a, Vec<_>> = path
            .iter()
            .map(|&sw| self.view.pointer_union(sw, range))
            .collect();
        let path = path.to_vec();
        unions.map(move |unions| {
            path.into_iter()
                .zip(unions)
                .map(|(sw, bits)| {
                    bits.map(|bits| {
                        let mut hosts = ctx.directory.hosts_in(&bits);
                        hosts.retain(|&h| h != victim_dst);
                        ctx.reduce_search_radius(sw, victim_dst, victim, hosts)
                    })
                })
                .collect()
        })
    }

    /// Records a host wave over `hosts` scanning `record_counts` records
    /// in the trace and prices it.
    fn wave(&mut self, hosts: &[NodeId], record_counts: &[usize]) -> QueryWaveCost {
        self.trace.waves.push(
            hosts
                .iter()
                .copied()
                .zip(record_counts.iter().copied())
                .collect(),
        );
        self.ctx.cost.query_wave(hosts.len(), record_counts)
    }

    fn victim_trigger(&self, victim_dst: NodeId, victim: FlowId) -> TriggerEvent {
        self.view
            .first_trigger_for(victim_dst, victim)
            .expect("victim host raised no trigger for the flow")
    }

    fn victim_record(&self, victim_dst: NodeId, victim: FlowId) -> FlowRecord {
        self.view
            .record(victim_dst, victim)
            .expect("victim host has no record for the flow")
    }

    // ------------------------------------------------------------------
    // §5.1 Too much traffic
    // ------------------------------------------------------------------

    /// Staged: the unions of the whole path in one round, then the filter
    /// wave of the contended switch — the first on the path whose reduced
    /// host set is not empty. Every switch's union is read; the trace
    /// keeps only the walked prefix, the switches the answer depends on.
    fn contention(
        mut self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
        trigger: TriggerEvent,
    ) -> Staged<'a> {
        // One record fetch serves both the path walk and the later
        // priority comparison (StateView returns owned clones).
        let victim_rec = self.victim_record(victim_dst, victim);
        let victim_prio = victim_rec.priority;
        let path = victim_rec.path;
        let range = self.ctx.epoch_window(&trigger, trigger_window);
        let read = self.path_hosts(&path, range, victim_dst, victim);
        then(read, move |per_switch| {
            // Pick the contended switch: walk the path and take the first
            // switch with a non-empty reduced host set beyond the victim's
            // own endpoints.
            let mut consulted: Vec<(NodeId, EpochRange)> = Vec::new();
            let mut chosen: Option<(NodeId, Vec<NodeId>)> = None;
            for (&sw, hosts) in path.iter().zip(per_switch) {
                consulted.push((sw, range));
                let reduced = component(sw, hosts);
                if !reduced.is_empty() {
                    chosen = Some((sw, reduced));
                    break;
                }
            }
            let (switch, hosts) = chosen.unwrap_or_else(|| (path[0], Vec::new()));
            let retrieval = self.ctx.cost.pointer_retrieval(1);
            self.trace.push_round(consulted, retrieval);

            let replies = self.view.filter_wave(&hosts, switch, range);
            then(replies, move |replies| {
                let (culprits, record_counts) = culprits(&hosts, replies, switch, range, victim);
                let verdict = if culprits
                    .iter()
                    .any(|c| c.priority > victim_prio && !c.common_epochs.is_empty())
                {
                    Verdict::PriorityContention
                } else if culprits.iter().any(|c| !c.common_epochs.is_empty()) {
                    Verdict::Microburst
                } else {
                    Verdict::NoCulprit
                };
                let wave = self.wave(&hosts, &record_counts);
                let diagnosis = ContentionDiagnosis {
                    victim,
                    switch,
                    epochs: range,
                    culprits,
                    hosts_contacted: hosts.len(),
                    verdict,
                    breakdown: self.ctx.breakdown(trigger_window, retrieval, wave),
                };
                Staged::Done(QueryResponse::Contention(diagnosis), self.trace)
            })
        })
    }

    // ------------------------------------------------------------------
    // §5.2 Too many red lights
    // ------------------------------------------------------------------

    /// Staged: the unions of the whole path in one round, then one filter
    /// wave per path switch, all in the next. The trace records them as
    /// one pointer round and one wave over the union of the hosts.
    fn red_lights(
        mut self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
    ) -> Staged<'a> {
        let trigger = self.victim_trigger(victim_dst, victim);
        let path = self.victim_record(victim_dst, victim).path;
        let range = self.ctx.epoch_window(&trigger, trigger_window);
        let read = self.path_hosts(&path, range, victim_dst, victim);
        then(read, move |per_switch| {
            let per_switch: Vec<(NodeId, Vec<NodeId>)> = path
                .iter()
                .zip(per_switch)
                .map(|(&sw, hosts)| (sw, component(sw, hosts)))
                .collect();
            let retrieval = self.ctx.cost.pointer_retrieval(path.len());
            self.trace
                .push_round(path.iter().map(|&sw| (sw, range)).collect(), retrieval);

            let replies: Deferred<'a, Vec<_>> = per_switch
                .iter()
                .map(|(sw, hosts)| self.view.filter_wave(hosts, *sw, range))
                .collect();
            then(replies, move |replies| {
                // Evaluate per switch; the wave is the union of the hosts,
                // each with the record count its reply carried.
                let mut contacted: BTreeMap<NodeId, usize> = BTreeMap::new();
                let mut implicated = Vec::new();
                let mut evaluated = Vec::with_capacity(per_switch.len());
                for ((sw, hosts), replies) in per_switch.into_iter().zip(replies) {
                    let (culprits, record_counts) = culprits(&hosts, replies, sw, range, victim);
                    contacted.extend(hosts.into_iter().zip(record_counts));
                    if culprits.iter().any(|c| !c.common_epochs.is_empty()) {
                        implicated.push(sw);
                    }
                    evaluated.push((sw, culprits));
                }
                let (all_hosts, record_counts): (Vec<NodeId>, Vec<usize>) =
                    contacted.into_iter().unzip();
                let wave = self.wave(&all_hosts, &record_counts);
                let diagnosis = RedLightsDiagnosis {
                    victim,
                    per_switch: evaluated,
                    implicated,
                    hosts_contacted: all_hosts.len(),
                    breakdown: self.ctx.breakdown(trigger_window, retrieval, wave),
                };
                Staged::Done(QueryResponse::RedLights(diagnosis), self.trace)
            })
        })
    }

    // ------------------------------------------------------------------
    // §5.3 Traffic cascades
    // ------------------------------------------------------------------

    /// Staged, one recursion step per call: `victim`'s record (a point
    /// read), the unions of its path in one round, then one filter wave
    /// per path switch in the next; the strongest fresh higher-priority
    /// culprit becomes the next step's victim, over a window widened by
    /// one epoch, until `depth` steps ran or none is left. `diagnosis`
    /// holds the stages so far and accumulates their cost.
    fn cascade(
        mut self,
        mut diagnosis: CascadeDiagnosis,
        victim: FlowId,
        victim_dst: NodeId,
        range: EpochRange,
        depth: usize,
    ) -> Staged<'a> {
        let rec = match depth {
            0 => None,
            _ => self.view.record(victim_dst, victim),
        };
        let Some(rec) = rec else {
            return Staged::Done(QueryResponse::Cascade(diagnosis), self.trace);
        };
        let (path, prio) = (rec.path, rec.priority);
        let retrieval = self.ctx.cost.pointer_retrieval(path.len());
        diagnosis.breakdown.pointer_retrieval += retrieval;
        self.trace
            .push_round(path.iter().map(|&sw| (sw, range)).collect(), retrieval);

        let read = self.path_hosts(&path, range, victim_dst, victim);
        then(read, move |per_switch| {
            let per_switch: Vec<(NodeId, Vec<NodeId>)> = path
                .iter()
                .zip(per_switch)
                .map(|(&sw, hosts)| (sw, component(sw, hosts)))
                .collect();
            let replies: Deferred<'a, Vec<_>> = per_switch
                .iter()
                .map(|(sw, hosts)| self.view.filter_wave(hosts, *sw, range))
                .collect();
            then(replies, move |replies| {
                // Find the strongest higher-priority culprit across the path.
                let mut best: Option<(NodeId, Culprit)> = None;
                for ((sw, hosts), replies) in per_switch.into_iter().zip(replies) {
                    let (culprits, record_counts) = culprits(&hosts, replies, sw, range, victim);
                    let wave = self.wave(&hosts, &record_counts);
                    diagnosis.hosts_contacted += hosts.len();
                    let cost = &mut diagnosis.breakdown;
                    cost.diagnosis += wave.total();
                    cost.diagnosis_detail.connection_initiation += wave.connection_initiation;
                    cost.diagnosis_detail.request += wave.request;
                    cost.diagnosis_detail.query_execution += wave.query_execution;
                    cost.diagnosis_detail.response += wave.response;
                    for c in culprits {
                        let fresh = c.priority > prio
                            && !c.common_epochs.is_empty()
                            && diagnosis
                                .stages
                                .iter()
                                .all(|s| s.victim != c.flow && s.culprit.flow != c.flow);
                        let better = best
                            .as_ref()
                            .map(|(_, b)| (c.priority, c.bytes) > (b.priority, b.bytes))
                            .unwrap_or(true);
                        if fresh && better {
                            best = Some((sw, c));
                        }
                    }
                }
                let Some((switch, culprit)) = best else {
                    return Staged::Done(QueryResponse::Cascade(diagnosis), self.trace);
                };
                // Widen the window slightly for the next stage: the
                // upstream cause precedes the symptom.
                let range = EpochRange {
                    lo: range.lo.saturating_sub(1),
                    hi: range.hi,
                };
                let (next_victim, next_dst) = (culprit.flow, culprit.dst);
                diagnosis.stages.push(CascadeStage {
                    victim,
                    switch,
                    culprit,
                });
                self.cascade(diagnosis, next_victim, next_dst, range, depth - 1)
            })
        })
    }

    // ------------------------------------------------------------------
    // §5.4 Load imbalance
    // ------------------------------------------------------------------

    /// Staged: one round — the union, its decode and the link-sizes
    /// wave. The trace still records the paper's two steps (a pointer
    /// round, then a host wave): that is what the cost model prices.
    fn load_imbalance(mut self, switch: NodeId, range: EpochRange) -> Staged<'a> {
        let read = self.view.union_sizes(&self.ctx.directory, switch, range);
        then(read, move |read| {
            let rows = component(switch, read);
            self.trace
                .push_round(vec![(switch, range)], self.ctx.cost.pointer_retrieval(1));
            let diagnosis = self.separate_links(rows);
            Staged::Done(QueryResponse::LoadImbalance(diagnosis), self.trace)
        })
    }

    /// The second half of the load-imbalance diagnosis: groups the wave's
    /// flow sizes per egress link and tests the two busiest for a clean
    /// separation.
    fn separate_links(&mut self, rows: HostRows<(u16, u64)>) -> LoadImbalanceDiagnosis {
        let mut per_link: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
        let mut hosts = Vec::with_capacity(rows.len());
        let mut record_counts = Vec::with_capacity(rows.len());
        for (h, len, sizes) in rows {
            hosts.push(h);
            let Some(len) = len else {
                record_counts.push(0);
                continue;
            };
            record_counts.push(len as usize);
            for (link, bytes) in sizes {
                per_link.entry(link).or_default().push(bytes);
            }
        }
        for sizes in per_link.values_mut() {
            sizes.sort_unstable();
        }

        // Clean separation between the two busiest links: every flow on one
        // side smaller than every flow on the other.
        let mut links: Vec<(&u16, &Vec<u64>)> = per_link.iter().collect();
        links.sort_by_key(|(_, v)| std::cmp::Reverse(v.len()));
        let separation_bytes = if links.len() >= 2 {
            let (a, b) = (links[0].1, links[1].1);
            let (max_a, min_a) = (*a.last().unwrap(), a[0]);
            let (max_b, min_b) = (*b.last().unwrap(), b[0]);
            if max_a < min_b {
                Some(min_b)
            } else if max_b < min_a {
                Some(min_a)
            } else {
                None
            }
        } else {
            None
        };

        let wave = self.wave(&hosts, &record_counts);
        LoadImbalanceDiagnosis {
            per_link,
            separation_bytes,
            hosts_contacted: hosts.len(),
            // Detected from interface counters, not a host trigger.
            breakdown: self
                .ctx
                .breakdown(SimTime::ZERO, self.ctx.cost.pointer_retrieval(1), wave),
        }
    }

    // ------------------------------------------------------------------
    // §6.2 Top-k query
    // ------------------------------------------------------------------

    /// Staged: one round — the union, its decode and the top-k wave,
    /// traced as the paper's two steps like the load-imbalance diagnosis.
    fn top_k(mut self, switch: NodeId, k: usize, range: EpochRange) -> Staged<'a> {
        let read = self.view.union_top_k(&self.ctx.directory, switch, range, k);
        then(read, move |read| {
            let rows = component(switch, read);
            self.trace
                .push_round(vec![(switch, range)], self.ctx.cost.pointer_retrieval(1));
            let result = self.merge_top_k(rows, k);
            Staged::Done(QueryResponse::TopK(result), self.trace)
        })
    }

    /// The second half of the top-k query: merges the per-host top-k
    /// lists of the wave into the global one.
    fn merge_top_k(&mut self, rows: HostRows<(FlowId, u64)>, k: usize) -> TopKResult {
        let mut merged: Vec<(FlowId, u64)> = Vec::new();
        let mut hosts = Vec::with_capacity(rows.len());
        let mut record_counts = Vec::with_capacity(rows.len());
        for (h, len, flows) in rows {
            hosts.push(h);
            let Some(len) = len else {
                record_counts.push(0);
                continue;
            };
            record_counts.push(len as usize);
            merged.extend(flows);
        }
        keep_top_k(&mut merged, k);
        TopKResult {
            flows: merged,
            hosts_contacted: hosts.len(),
            pointer_retrieval: self.ctx.cost.pointer_retrieval(1),
            wave: self.wave(&hosts, &record_counts),
        }
    }

    // ------------------------------------------------------------------
    // §2.4-class application: silent drop localization
    // ------------------------------------------------------------------

    /// Never defers: the whole sweep is one [`StateView::presence_wave`],
    /// which one shard answers.
    fn silent_drop(
        mut self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        range: EpochRange,
    ) -> Staged<'a> {
        // Reconstruct the forwarding path by walking the route tables with
        // the flow's ECMP identity.
        let mut path = Vec::new();
        let mut cur = src;
        while cur != dst {
            let Some(port) = self.ctx.routes.egress(cur, dst, flow) else {
                break;
            };
            let (_, peer) = self.ctx.topo.ports(cur)[port as usize];
            if self.ctx.topo.is_switch(peer) {
                path.push(peer);
            }
            cur = peer;
            if path.len() > 32 {
                break; // defensive: malformed routing
            }
        }

        // Presence must be read at *exact* (level-1) epoch resolution:
        // coarser levels aggregate pre-onset epochs and would report the
        // destination everywhere. One wave covers the whole path — the
        // single retrieval round `push_round` charges below.
        let per_switch: Vec<(NodeId, bool)> = path
            .iter()
            .copied()
            .zip(self.view.presence_wave(&path, dst.addr(), range))
            .collect();

        let last_seen = per_switch
            .iter()
            .take_while(|&&(_, p)| p)
            .last()
            .map(|&(s, _)| s);
        let first_missing = per_switch.iter().find(|&&(_, p)| !p).map(|&(s, _)| s);
        let suspected_segment = match (last_seen, first_missing) {
            (Some(a), Some(b)) => Some((a, b)),
            (None, Some(b)) => Some((src, b)),
            _ => None,
        };
        let retrieval = self.ctx.cost.pointer_retrieval(per_switch.len());
        self.trace
            .push_round(path.iter().map(|&sw| (sw, range)).collect(), retrieval);

        let diagnosis = DropDiagnosis {
            flow,
            path,
            per_switch,
            suspected_segment,
            pointer_retrieval: retrieval,
        };
        Staged::Done(QueryResponse::SilentDrop(diagnosis), self.trace)
    }
}
