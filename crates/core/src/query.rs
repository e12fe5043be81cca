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
//! [`Staged::Pending`] with that round's requests already issued through
//! the view's deferred forms ([`StateView::pointer_union_deferred`] and
//! friends, each returning a [`Deferred`]) and a [`Stage`] to resume once
//! they were sent. Whoever holds the stage is the **driver**: it calls
//! [`StateView::flush`] — or, holding many stages over the same links,
//! flushes the links once for all of them — and then resumes.
//! [`QueryExecutor::execute_traced`] is the driver of one query; the wire
//! front-end drives a whole wave in lock-step, so the wave's round leaves
//! as one frame per shard however many queries it holds.
//!
//! The two aggregate classes ([`QueryRequest::TopK`],
//! [`QueryRequest::LoadImbalance`]) are written once, in staged form,
//! and are **one round**: the paper's analyzer pulls the switch's
//! pointers, decodes them and contacts the hosts (§4.3, §6.2), and
//! [`StateView::union_top_k_deferred`] / [`StateView::union_sizes_deferred`]
//! ask the view for all three at once. Their defaults compose the
//! unfused reads; a router over directory shards overrides them so each
//! shard decodes its own slice of the union and answers the wave for the
//! hosts it decoded, in one request. The other four classes run to `Done`
//! inside `start`. A view that answers in process returns
//! [`Deferred::Ready`], the continuation runs on the spot and no stage is
//! ever allocated — `start` returns `Done`.

use std::collections::{BTreeMap, BTreeSet};

use netsim::packet::{FlowId, NodeId};
use netsim::routing::RouteTable;
use netsim::time::SimTime;
use netsim::topology::Topology;
use telemetry::frame::{Dec, Enc, Wire, WireError};
use telemetry::{EpochParams, EpochRange};

use crate::analyzer::{
    CascadeDiagnosis, CascadeStage, ContentionDiagnosis, Culprit, DropDiagnosis, HostDirectory,
    LoadImbalanceDiagnosis, RedLightsDiagnosis, TopKResult, Verdict,
};
use crate::bitset::BitSet;
use crate::cost::{CostModel, LatencyBreakdown, QueryWaveCost};
use crate::host::TriggerEvent;
use crate::hoststore::{keep_top_k, FlowRecord};

/// One host's slice of a batched *filter* wave reply: its store size
/// (`None` for unknown hosts) and the records matching the wave's
/// `(switch, range)` key.
pub type FilterWaveReply = Vec<(Option<usize>, Vec<FlowRecord>)>;
/// One host's slice of a batched *top-k* wave reply.
pub type TopKWaveReply = Vec<(Option<usize>, Vec<(FlowId, u64)>)>;
/// One host's slice of a batched *link-sizes* wave reply.
pub type SizesWaveReply = Vec<(Option<usize>, Vec<(u16, u64)>)>;
/// A fused aggregate read: the hosts the switch's pointer union decodes
/// to (ascending, as [`HostDirectory::hosts_in`] returns them) and the
/// wave's `(store size, rows)` for each, in that order; `None` if the
/// switch has no SwitchPointer component.
pub type UnionWave<R> = Option<(Vec<NodeId>, Vec<(Option<usize>, Vec<R>)>)>;
/// A fused top-k read.
pub type UnionTopK = UnionWave<(FlowId, u64)>;
/// A fused link-sizes read.
pub type UnionSizes = UnionWave<(u16, u64)>;

/// Read-only access to deployment state (switch pointers + host stores),
/// returning owned data so implementations may sit over `Rc<RefCell<…>>`
/// handles or over immutable cross-thread snapshots alike.
pub trait StateView {
    /// Pointer-bit union for `range` at `switch`; `None` if the switch has
    /// no SwitchPointer component.
    fn pointer_union(&self, switch: NodeId, range: EpochRange) -> Option<BitSet>;

    /// Exact-resolution presence probe (max span 1 epoch) at `switch`;
    /// outer `None` if the switch has no component.
    fn pointer_contains_exact(&self, switch: NodeId, addr: u64, epoch: u64)
        -> Option<Option<bool>>;

    /// Number of flow records held by `host`; `None` for unknown hosts.
    fn store_len(&self, host: NodeId) -> Option<usize>;

    /// `host`'s record for `flow`, if any.
    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord>;

    /// *Filter query* at `host`: records that traversed `switch` during
    /// `range` (deterministic order: ascending flow id).
    fn flows_matching(&self, host: NodeId, switch: NodeId, range: EpochRange) -> Vec<FlowRecord>;

    /// *Aggregate query* at `host`: top-k flows through `switch` by bytes.
    fn top_k_through(&self, host: NodeId, switch: NodeId, k: usize) -> Vec<(FlowId, u64)>;

    /// *Aggregate query* at `host`: (link VID, bytes) pairs through `switch`.
    fn sizes_by_link(&self, host: NodeId, switch: NodeId) -> Vec<(u16, u64)>;

    /// First trigger `host` raised for `flow`.
    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent>;

    // ------------------------------------------------------------------
    // Batched wave forms. One call covers a whole query wave, so a view
    // backed by remote shard servers (`wireplane`) can coalesce the
    // fan-out into one wire round-trip per shard. The defaults loop the
    // per-host reads above, so every in-process view answers
    // bit-identically whether or not it overrides them.
    // ------------------------------------------------------------------

    /// Store sizes for a set of hosts (`None` per unknown host).
    fn store_len_wave(&self, hosts: &[NodeId]) -> Vec<Option<usize>> {
        hosts.iter().map(|&h| self.store_len(h)).collect()
    }

    /// *Filter* wave: per host, its store size and the records matching
    /// `(switch, range)`. Unknown hosts report `(None, [])` and their
    /// stores are never scanned — exactly the sequential per-host loop.
    fn filter_wave(&self, hosts: &[NodeId], switch: NodeId, range: EpochRange) -> FilterWaveReply {
        hosts
            .iter()
            .map(|&h| match self.store_len(h) {
                None => (None, Vec::new()),
                Some(len) => (Some(len), self.flows_matching(h, switch, range)),
            })
            .collect()
    }

    /// *Aggregate* wave: per host, its store size and top-k flows through
    /// `switch`.
    fn top_k_wave(&self, hosts: &[NodeId], switch: NodeId, k: usize) -> TopKWaveReply {
        hosts
            .iter()
            .map(|&h| match self.store_len(h) {
                None => (None, Vec::new()),
                Some(len) => (Some(len), self.top_k_through(h, switch, k)),
            })
            .collect()
    }

    /// *Aggregate* wave: per host, its store size and (link VID, bytes)
    /// pairs through `switch`.
    fn sizes_wave(&self, hosts: &[NodeId], switch: NodeId) -> SizesWaveReply {
        hosts
            .iter()
            .map(|&h| match self.store_len(h) {
                None => (None, Vec::new()),
                Some(len) => (Some(len), self.sizes_by_link(h, switch)),
            })
            .collect()
    }

    /// *Presence* wave: per switch, was `addr` seen at exact (level-1)
    /// resolution in any epoch of `range`? Switches without a component
    /// report `false`. The default is [`presence_by_epoch`] — the
    /// reference every override must equal bit for bit.
    fn presence_wave(&self, switches: &[NodeId], addr: u64, range: EpochRange) -> Vec<bool> {
        presence_by_epoch(self, switches, addr, range)
    }

    // ------------------------------------------------------------------
    // Deferred forms of the reads the staged executors issue: the call
    // *issues* the read and returns, [`Deferred::wait`] collects it.
    // An in-process view has nothing to wait for, so the defaults answer
    // `Ready` with the blocking form's result; a view over remote shards
    // overrides them and [`StateView::flush`].
    // ------------------------------------------------------------------

    /// [`StateView::pointer_union`], issued now and collected later.
    fn pointer_union_deferred(
        &self,
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'_, Option<BitSet>> {
        Deferred::Ready(self.pointer_union(switch, range))
    }

    /// The whole top-k read of `switch` over `range`: its pointer union,
    /// decoded through `dir`, then the top-k wave over the decoded hosts.
    /// The default is exactly that composition ([`union_then_wave`]).
    fn union_top_k_deferred<'s>(
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
    /// [`StateView::union_top_k_deferred`] is the whole top-k read.
    fn union_sizes_deferred<'s>(
        &'s self,
        dir: &'s HostDirectory,
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'s, UnionSizes> {
        union_then_wave(self, dir, switch, range, move |hosts| {
            self.sizes_wave(hosts, switch)
        })
    }

    /// Sends whatever the deferred forms have issued and not yet put on
    /// the wire. Every pending [`Deferred`] must see a flush before it is
    /// waited on, or its round trips run one after another. Nothing to do
    /// for a view that answers in process.
    fn flush(&self) {}
}

/// A reply that may still be on its way: what the deferred
/// [`StateView`] forms and the fanned-out
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
    pub fn map<U>(self, f: impl FnOnce(T) -> U + 'a) -> Deferred<'a, U> {
        match self {
            Deferred::Ready(value) => Deferred::Ready(f(value)),
            Deferred::Pending(wait) => Deferred::Pending(Box::new(move || f(wait()))),
        }
    }
}

/// The fused aggregate read composed from the unfused ones — the default
/// of [`StateView::union_top_k_deferred`] and
/// [`StateView::union_sizes_deferred`], and the reference every override
/// must equal: `switch`'s pointer union, decoded through `dir`, then
/// `wave` over the decoded hosts. The union is deferred; the wave runs
/// when it is collected.
pub fn union_then_wave<'s, V: StateView + ?Sized, R: 's>(
    view: &'s V,
    dir: &'s HostDirectory,
    switch: NodeId,
    range: EpochRange,
    wave: impl FnOnce(&[NodeId]) -> Vec<R> + 's,
) -> Deferred<'s, Option<(Vec<NodeId>, Vec<R>)>> {
    view.pointer_union_deferred(switch, range).map(move |bits| {
        bits.map(|bits| {
            let hosts = dir.hosts_in(&bits);
            let rows = wave(&hosts);
            (hosts, rows)
        })
    })
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
/// itself the key of whole-result caches.
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
    pub fn class_index(&self) -> usize {
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
    pub fn class_name(&self) -> &'static str {
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
    pub modelled: SimTime,
}

/// The exact state a query's answer depended on: every switch whose
/// pointer sets were read and every host whose store or trigger log was
/// consulted. A result cached for the query stays valid precisely until a
/// snapshot delta touches one of these — the stream plane's invalidation
/// rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDeps {
    pub switches: BTreeSet<NodeId>,
    pub hosts: BTreeSet<NodeId>,
}

impl TraceDeps {
    /// Does any of `switches`/`hosts` intersect this dependency set?
    pub fn intersects(&self, switches: &[NodeId], hosts: &[NodeId]) -> bool {
        switches.iter().any(|s| self.switches.contains(s))
            || hosts.iter().any(|h| self.hosts.contains(h))
    }
}

/// What a query touched while executing: replayed by the query plane for
/// pointer-cache and batched-fan-out accounting.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// Pointer-retrieval rounds, in execution order.
    pub pointer_rounds: Vec<PointerRound>,
    /// Host query waves: each wave lists (host, records scanned there).
    pub waves: Vec<Vec<(NodeId, usize)>>,
    /// Every state read the answer depended on (result-cache invalidation).
    pub deps: TraceDeps,
}

impl ExecutionTrace {
    fn push_round(&mut self, keys: Vec<(NodeId, EpochRange)>, modelled: SimTime) {
        for &(sw, _) in &keys {
            self.deps.switches.insert(sw);
        }
        self.pointer_rounds.push(PointerRound { keys, modelled });
    }

    fn push_wave(&mut self, wave: Vec<(NodeId, usize)>) {
        for &(h, _) in &wave {
            self.deps.hosts.insert(h);
        }
        self.waves.push(wave);
    }

    fn dep_host(&mut self, host: NodeId) {
        self.deps.hosts.insert(host);
    }

    /// Total sequential charge for all pointer rounds.
    pub fn pointer_total(&self) -> SimTime {
        self.pointer_rounds
            .iter()
            .fold(SimTime::ZERO, |acc, r| acc + r.modelled)
    }
}

/// Shared immutable context of an executor: what the analyzer knows about
/// the deployment (topology, routes, epoch timing, directory, costs).
#[derive(Clone, Copy)]
pub struct QueryCtx<'a> {
    pub topo: &'a Topology,
    pub routes: &'a RouteTable,
    pub params: EpochParams,
    pub directory: &'a HostDirectory,
    pub cost: &'a CostModel,
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

/// The per-application query algorithms of §5, runnable over any
/// [`StateView`].
pub struct QueryExecutor<'a, V: StateView> {
    ctx: QueryCtx<'a>,
    view: &'a V,
    trace: ExecutionTrace,
}

impl<'a, V: StateView> QueryExecutor<'a, V> {
    pub fn new(ctx: QueryCtx<'a>, view: &'a V) -> Self {
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
        let mut staged = self.start(req);
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

    /// Runs `req` up to its first round still in flight. The aggregate
    /// classes stop at every round a remote view defers; the diagnoses
    /// and the drop localization always return [`Staged::Done`].
    pub fn start(mut self, req: &QueryRequest) -> Staged<'a> {
        let resp = match *req {
            QueryRequest::Contention {
                victim,
                victim_dst,
                trigger_window,
            } => QueryResponse::Contention(self.diagnose_contention(
                victim,
                victim_dst,
                trigger_window,
            )),
            QueryRequest::RedLights {
                victim,
                victim_dst,
                trigger_window,
            } => QueryResponse::RedLights(self.diagnose_red_lights(
                victim,
                victim_dst,
                trigger_window,
            )),
            QueryRequest::Cascade {
                victim,
                victim_dst,
                trigger_window,
                max_depth,
            } => QueryResponse::Cascade(self.diagnose_cascade(
                victim,
                victim_dst,
                trigger_window,
                max_depth,
            )),
            QueryRequest::LoadImbalance { switch, range } => {
                return self.diagnose_load_imbalance(switch, range)
            }
            QueryRequest::TopK { switch, k, range } => return self.top_k(switch, k, range),
            QueryRequest::SilentDrop {
                flow,
                src,
                dst,
                range,
            } => QueryResponse::SilentDrop(self.localize_silent_drop(flow, src, dst, range)),
        };
        Staged::Done(resp, self.trace)
    }

    // ------------------------------------------------------------------
    // Shared machinery (the pre-refactor Analyzer internals)
    // ------------------------------------------------------------------

    /// Pulls the pointer union for `range` from `switch` and decodes it.
    pub fn hosts_for(&self, switch: NodeId, range: EpochRange) -> Vec<NodeId> {
        let bits = component(switch, self.view.pointer_union(switch, range));
        self.ctx.directory.hosts_in(&bits)
    }

    /// Search-radius reduction (§4.3): keep only hosts whose traffic can
    /// have shared the victim's egress port at `switch`.
    pub fn reduce_search_radius(
        &self,
        switch: NodeId,
        victim_dst: NodeId,
        victim_flow: FlowId,
        hosts: Vec<NodeId>,
    ) -> Vec<NodeId> {
        let Some(victim_port) = self.ctx.routes.egress(switch, victim_dst, victim_flow) else {
            return hosts;
        };
        hosts
            .into_iter()
            .filter(|&h| self.ctx.routes.ports(switch, h).contains(&victim_port))
            .collect()
    }

    /// The epoch window to diagnose around a trigger, with ±⌈ε/α⌉ slack
    /// for clock asynchrony.
    pub fn epoch_window(&self, trigger: &TriggerEvent, trigger_window: SimTime) -> EpochRange {
        let p = self.ctx.params;
        let slack = p.epsilon.as_ns().div_ceil(p.alpha.as_ns());
        let hi = p.epoch_of(trigger.at) + slack;
        let lo = p
            .epoch_of(trigger.at.saturating_sub(trigger_window * 2))
            .saturating_sub(slack);
        EpochRange { lo, hi }
    }

    /// Queries `hosts` for flows matching `(switch, range)`, excluding the
    /// victim flow. Returns culprits plus per-host record counts. One
    /// [`StateView::filter_wave`] call covers the whole wave, so a
    /// remote-backed view pays one round trip per shard, not per host.
    fn query_hosts(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        range: EpochRange,
        victim: FlowId,
    ) -> (Vec<Culprit>, Vec<usize>) {
        let mut culprits = Vec::new();
        let mut record_counts = Vec::with_capacity(hosts.len());
        for (&h, (len, matching)) in hosts
            .iter()
            .zip(self.view.filter_wave(hosts, switch, range))
        {
            let Some(len) = len else {
                record_counts.push(0);
                continue;
            };
            record_counts.push(len);
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

    fn victim_trigger(&mut self, victim_dst: NodeId, victim: FlowId) -> TriggerEvent {
        self.trace.dep_host(victim_dst);
        self.view
            .first_trigger_for(victim_dst, victim)
            .expect("victim host raised no trigger for the flow")
    }

    fn victim_path(&mut self, victim_dst: NodeId, victim: FlowId) -> Vec<NodeId> {
        self.trace.dep_host(victim_dst);
        self.view
            .record(victim_dst, victim)
            .expect("victim host has no record for the flow")
            .path
    }

    // ------------------------------------------------------------------
    // §5.1 Too much traffic
    // ------------------------------------------------------------------

    pub fn diagnose_contention(
        &mut self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
    ) -> ContentionDiagnosis {
        let trigger = self.victim_trigger(victim_dst, victim);
        self.diagnose_contention_at(victim, victim_dst, trigger_window, &trigger)
    }

    pub fn diagnose_contention_at(
        &mut self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
        trigger: &TriggerEvent,
    ) -> ContentionDiagnosis {
        // One record fetch serves both the path walk and the later
        // priority comparison (StateView returns owned clones).
        self.trace.dep_host(victim_dst);
        let victim_rec = self
            .view
            .record(victim_dst, victim)
            .expect("victim host has no record for the flow");
        let path = victim_rec.path.clone();
        let victim_prio = victim_rec.priority;
        let range = self.epoch_window(trigger, trigger_window);

        // Pick the contended switch: walk the path and take the first
        // switch with a non-empty reduced host set beyond the victim's own
        // endpoints.
        let mut consulted: Vec<(NodeId, EpochRange)> = Vec::new();
        let mut chosen: Option<(NodeId, Vec<NodeId>)> = None;
        for &sw in &path {
            consulted.push((sw, range));
            let mut hosts = self.hosts_for(sw, range);
            hosts.retain(|&h| h != victim_dst);
            let reduced = self.reduce_search_radius(sw, victim_dst, victim, hosts);
            if !reduced.is_empty() {
                chosen = Some((sw, reduced));
                break;
            }
        }
        let (switch, hosts) = chosen.unwrap_or_else(|| (path[0], Vec::new()));
        self.trace
            .push_round(consulted, self.ctx.cost.pointer_retrieval(1));

        let (culprits, record_counts) = self.query_hosts(&hosts, switch, range, victim);
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

        self.trace.push_wave(
            hosts
                .iter()
                .copied()
                .zip(record_counts.iter().copied())
                .collect(),
        );
        let wave = self.ctx.cost.query_wave(hosts.len(), &record_counts);
        ContentionDiagnosis {
            victim,
            switch,
            epochs: range,
            culprits,
            hosts_contacted: hosts.len(),
            verdict,
            breakdown: LatencyBreakdown {
                detection: trigger_window,
                alert: self.ctx.cost.alert_rtt,
                pointer_retrieval: self.ctx.cost.pointer_retrieval(1),
                diagnosis: wave.total(),
                diagnosis_detail: wave,
            },
        }
    }

    // ------------------------------------------------------------------
    // §5.2 Too many red lights
    // ------------------------------------------------------------------

    pub fn diagnose_red_lights(
        &mut self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
    ) -> RedLightsDiagnosis {
        let trigger = self.victim_trigger(victim_dst, victim);
        let path = self.victim_path(victim_dst, victim);
        let range = self.epoch_window(&trigger, trigger_window);

        // One retrieval round over all path switches.
        let mut union_hosts: BTreeSet<NodeId> = BTreeSet::new();
        let mut per_switch_hosts: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for &sw in &path {
            let mut hosts = self.hosts_for(sw, range);
            hosts.retain(|&h| h != victim_dst);
            let reduced = self.reduce_search_radius(sw, victim_dst, victim, hosts);
            union_hosts.extend(reduced.iter().copied());
            per_switch_hosts.push((sw, reduced));
        }
        self.trace.push_round(
            path.iter().map(|&sw| (sw, range)).collect(),
            self.ctx.cost.pointer_retrieval(path.len()),
        );
        let all_hosts: Vec<NodeId> = union_hosts.into_iter().collect();

        // One query wave over the union of hosts; evaluate per switch.
        let mut per_switch = Vec::new();
        let mut implicated = Vec::new();
        let mut record_counts = vec![0usize; all_hosts.len()];
        for (i, len) in self.view.store_len_wave(&all_hosts).into_iter().enumerate() {
            if let Some(len) = len {
                record_counts[i] = len;
            }
        }
        for (sw, hosts) in &per_switch_hosts {
            let (culprits, _) = self.query_hosts(hosts, *sw, range, victim);
            if culprits.iter().any(|c| !c.common_epochs.is_empty()) {
                implicated.push(*sw);
            }
            per_switch.push((*sw, culprits));
        }

        self.trace.push_wave(
            all_hosts
                .iter()
                .copied()
                .zip(record_counts.iter().copied())
                .collect(),
        );
        let wave = self.ctx.cost.query_wave(all_hosts.len(), &record_counts);
        RedLightsDiagnosis {
            victim,
            per_switch,
            implicated,
            hosts_contacted: all_hosts.len(),
            breakdown: LatencyBreakdown {
                detection: trigger_window,
                alert: self.ctx.cost.alert_rtt,
                pointer_retrieval: self.ctx.cost.pointer_retrieval(path.len()),
                diagnosis: wave.total(),
                diagnosis_detail: wave,
            },
        }
    }

    // ------------------------------------------------------------------
    // §5.3 Traffic cascades
    // ------------------------------------------------------------------

    pub fn diagnose_cascade(
        &mut self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
        max_depth: usize,
    ) -> CascadeDiagnosis {
        let trigger = self.victim_trigger(victim_dst, victim);
        let mut range = self.epoch_window(&trigger, trigger_window);

        let mut stages = Vec::new();
        let mut hosts_contacted = 0usize;
        let mut retrieval = SimTime::ZERO;
        let mut diagnosis = SimTime::ZERO;
        let mut detail = QueryWaveCost::default();

        let mut cur_victim = victim;
        let mut cur_dst = victim_dst;

        for _ in 0..max_depth {
            self.trace.dep_host(cur_dst);
            let Some(rec) = self.view.record(cur_dst, cur_victim) else {
                break;
            };
            let path = rec.path.clone();
            let cur_prio = rec.priority;

            retrieval += self.ctx.cost.pointer_retrieval(path.len());
            self.trace.push_round(
                path.iter().map(|&sw| (sw, range)).collect(),
                self.ctx.cost.pointer_retrieval(path.len()),
            );

            // Find the strongest higher-priority culprit across the path.
            let mut best: Option<(NodeId, Culprit)> = None;
            let mut wave_hosts = 0usize;
            for &sw in &path {
                let mut hosts = self.hosts_for(sw, range);
                hosts.retain(|&h| h != cur_dst);
                let reduced = self.reduce_search_radius(sw, cur_dst, cur_victim, hosts);
                wave_hosts += reduced.len();
                let counts: Vec<usize> = self
                    .view
                    .store_len_wave(&reduced)
                    .into_iter()
                    .map(|len| len.unwrap_or(0))
                    .collect();
                self.trace.push_wave(
                    reduced
                        .iter()
                        .copied()
                        .zip(counts.iter().copied())
                        .collect(),
                );
                let wave = self.ctx.cost.query_wave(reduced.len(), &counts);
                diagnosis += wave.total();
                detail.connection_initiation += wave.connection_initiation;
                detail.request += wave.request;
                detail.query_execution += wave.query_execution;
                detail.response += wave.response;

                let (culprits, _) = self.query_hosts(&reduced, sw, range, cur_victim);
                for c in culprits {
                    let fresh = c.priority > cur_prio
                        && !c.common_epochs.is_empty()
                        && stages
                            .iter()
                            .all(|s: &CascadeStage| s.victim != c.flow && s.culprit.flow != c.flow);
                    let better = best
                        .as_ref()
                        .map(|(_, b)| (c.priority, c.bytes) > (b.priority, b.bytes))
                        .unwrap_or(true);
                    if fresh && better {
                        best = Some((sw, c));
                    }
                }
            }
            hosts_contacted += wave_hosts;

            match best {
                Some((sw, culprit)) => {
                    // Widen the window slightly for the next stage: the
                    // upstream cause precedes the symptom.
                    range = EpochRange {
                        lo: range.lo.saturating_sub(1),
                        hi: range.hi,
                    };
                    let next_victim = culprit.flow;
                    let next_dst = culprit.dst;
                    stages.push(CascadeStage {
                        victim: cur_victim,
                        switch: sw,
                        culprit,
                    });
                    cur_victim = next_victim;
                    cur_dst = next_dst;
                }
                None => break,
            }
        }

        CascadeDiagnosis {
            stages,
            hosts_contacted,
            breakdown: LatencyBreakdown {
                detection: trigger_window,
                alert: self.ctx.cost.alert_rtt,
                pointer_retrieval: retrieval,
                diagnosis,
                diagnosis_detail: detail,
            },
        }
    }

    // ------------------------------------------------------------------
    // §5.4 Load imbalance
    // ------------------------------------------------------------------

    /// Staged: one round — the union, its decode and the link-sizes
    /// wave. The trace still records the paper's two steps (a pointer
    /// round, then a host wave): that is what the cost model prices.
    fn diagnose_load_imbalance(mut self, switch: NodeId, range: EpochRange) -> Staged<'a> {
        let read = self
            .view
            .union_sizes_deferred(self.ctx.directory, switch, range);
        then(read, move |read| {
            let (hosts, replies) = component(switch, read);
            self.trace
                .push_round(vec![(switch, range)], self.ctx.cost.pointer_retrieval(1));
            let diagnosis = self.separate_links(hosts, replies);
            Staged::Done(QueryResponse::LoadImbalance(diagnosis), self.trace)
        })
    }

    /// The second half of the load-imbalance diagnosis: groups the wave's
    /// flow sizes per egress link and tests the two busiest for a clean
    /// separation.
    fn separate_links(
        &mut self,
        hosts: Vec<NodeId>,
        replies: SizesWaveReply,
    ) -> LoadImbalanceDiagnosis {
        let mut per_link: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
        let mut record_counts = Vec::with_capacity(hosts.len());
        for (len, sizes) in replies {
            let Some(len) = len else {
                record_counts.push(0);
                continue;
            };
            record_counts.push(len);
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

        self.trace.push_wave(
            hosts
                .iter()
                .copied()
                .zip(record_counts.iter().copied())
                .collect(),
        );
        let wave = self.ctx.cost.query_wave(hosts.len(), &record_counts);
        LoadImbalanceDiagnosis {
            per_link,
            separation_bytes,
            hosts_contacted: hosts.len(),
            breakdown: LatencyBreakdown {
                detection: SimTime::ZERO, // detected from interface counters
                alert: self.ctx.cost.alert_rtt,
                pointer_retrieval: self.ctx.cost.pointer_retrieval(1),
                diagnosis: wave.total(),
                diagnosis_detail: wave,
            },
        }
    }

    // ------------------------------------------------------------------
    // §6.2 Top-k query
    // ------------------------------------------------------------------

    /// Staged: one round — the union, its decode and the top-k wave,
    /// traced as the paper's two steps like the load-imbalance diagnosis.
    fn top_k(mut self, switch: NodeId, k: usize, range: EpochRange) -> Staged<'a> {
        let read = self
            .view
            .union_top_k_deferred(self.ctx.directory, switch, range, k);
        then(read, move |read| {
            let (hosts, replies) = component(switch, read);
            self.trace
                .push_round(vec![(switch, range)], self.ctx.cost.pointer_retrieval(1));
            let result = self.merge_top_k(hosts, k, replies);
            Staged::Done(QueryResponse::TopK(result), self.trace)
        })
    }

    /// The second half of the top-k query: merges the per-host top-k
    /// lists of the wave into the global one.
    fn merge_top_k(&mut self, hosts: Vec<NodeId>, k: usize, replies: TopKWaveReply) -> TopKResult {
        let mut merged: Vec<(FlowId, u64)> = Vec::new();
        let mut record_counts = Vec::with_capacity(hosts.len());
        for (len, flows) in replies {
            let Some(len) = len else {
                record_counts.push(0);
                continue;
            };
            record_counts.push(len);
            merged.extend(flows);
        }
        keep_top_k(&mut merged, k);
        self.trace.push_wave(
            hosts
                .iter()
                .copied()
                .zip(record_counts.iter().copied())
                .collect(),
        );
        TopKResult {
            flows: merged,
            hosts_contacted: hosts.len(),
            pointer_retrieval: self.ctx.cost.pointer_retrieval(1),
            wave: self.ctx.cost.query_wave(hosts.len(), &record_counts),
        }
    }

    // ------------------------------------------------------------------
    // §2.4-class application: silent drop localization
    // ------------------------------------------------------------------

    pub fn localize_silent_drop(
        &mut self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        range: EpochRange,
    ) -> DropDiagnosis {
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

        DropDiagnosis {
            flow,
            path,
            per_switch,
            suspected_segment,
            pointer_retrieval: retrieval,
        }
    }
}
