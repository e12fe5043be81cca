//! # streamplane — continuous standing-query monitoring
//!
//! SwitchPointer's pitch is *continuous* monitoring and debugging, but a
//! [`QueryPlane`] alone answers one-shot batches over a fully re-frozen
//! snapshot. This crate turns it into an always-on service: clients
//! register **standing queries** (the paper's §5 applications as
//! long-lived subscriptions) that are re-evaluated every **evaluation
//! window** against an **incrementally maintained snapshot**, with a
//! whole-result cache and an incident log in front. Four pieces:
//!
//! 1. **Incremental snapshot deltas** — each window calls
//!    [`QueryPlane::refresh_delta`], which copies only the pointer slots
//!    and host shards that changed since the previous window
//!    ([`queryplane::Snapshot::apply_delta`]); bit-identical to a full
//!    recapture at asymptotically less copy work, property-tested in
//!    `tests/streamplane_props.rs`.
//! 2. **Arrival-window admission** — one-shot queries submitted between
//!    windows ride the next window's batch together with the standing
//!    queries, as one scatter over the plane's worker pool.
//! 3. **Result cache** — whole outcomes keyed by the concrete
//!    [`QueryRequest`] (and the snapshot epoch horizon they were computed
//!    at), invalidated *precisely* by the delta's dirty switch/host sets
//!    against each entry's recorded dependency set
//!    ([`switchpointer::query::TraceDeps`]). A standing query whose
//!    dependencies did not change is served its previous bit-identical
//!    outcome without executing at all.
//! 4. **Incident log** — per-subscription verdict fingerprints with change
//!    detection: an [`Incident`] fires only when a verdict *transitions*
//!    (plus one `Baseline` entry at first sight). Because verdicts are
//!    bit-identical at any worker count and under any admission batching,
//!    the incident stream is too.
//! 5. **Bounded retention** — with a
//!    [`RetentionPolicy`](switchpointer::retention::RetentionPolicy) on
//!    the plane config, every window opens with a GC sweep
//!    ([`switchpointer::retention::sweep`]) that evicts flow records and
//!    retires archived pointer sets the standing queries can no longer
//!    reach, per directory shard. Each subscription *pins* the floor on
//!    its home shard (and on the shards its last cached evaluation read):
//!    a sliding window's trailing edge, a fixed range's `lo`, a resolved
//!    contention watch's trigger window — a *pending* watch pins its
//!    near-future window and a never-evaluated diagnosis pins every
//!    shard for its first window — so ContentionWatch incidents never
//!    dangle, even under pure budget pressure. The reclamation
//!    propagates through the same delta / invalidation path as any
//!    eviction.
//!
//! Execution itself is delegated to the `queryplane` crate's batch
//! driver over its persistent deterministic
//! [`WorkerPool`](queryplane::WorkerPool) — the two planes share the
//! driver and the determinism argument. The window step (resolve → run →
//! fingerprint → transition) is [`evaluate_window`], written once: the
//! wire front-end closes its windows through it too, with its own way of
//! running the requests.
//!
//! Drive it end-to-end with `examples/continuous_watch.rs` or
//! `spexp stream`.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use netsim::packet::{FlowId, NodeId};
use netsim::time::SimTime;
use obsplane::{Counter, Histogram, MetricsRegistry, RegistrySnapshot};
use queryplane::{home_shard, QueryOutcome, QueryPlane, QueryPlaneConfig, SnapshotDelta};
use switchpointer::query::{ExecutionTrace, QueryRequest, QueryResponse, StateView};
use switchpointer::retention::{self, SweepReport};
use switchpointer::shard::{host_shard_of, RouterCounters};
use switchpointer::Analyzer;
use telemetry::frame::{Dec, Enc, Wire, WireError};
use telemetry::EpochRange;

mod incident;
mod resultcache;

pub use incident::{evaluate_window, Incident, IncidentKind, WindowVerdicts, PENDING_SUMMARY};
pub use resultcache::{CachedResult, ResultCache};

/// Identifies a standing query for its whole subscription lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(pub u64);

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

impl Wire for SubscriptionId {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.0);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(SubscriptionId(d.get_u64()?))
    }
}

/// Identifies a one-shot submission until its window resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TicketId(pub u64);

/// A long-lived subscription: either a concrete request re-evaluated
/// verbatim, or a template re-resolved against the snapshot each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandingQuery {
    /// Re-evaluate this exact request every window (fixed epoch range —
    /// the result cache serves it for free while its dependencies sleep).
    Fixed(QueryRequest),
    /// §6.2 top-k over the trailing `epochs_back` epochs up to the
    /// snapshot horizon (sliding window).
    TopKSliding {
        switch: NodeId,
        k: usize,
        epochs_back: u64,
    },
    /// §5.4 load-imbalance over the trailing `epochs_back` epochs.
    LoadImbalanceSliding { switch: NodeId, epochs_back: u64 },
    /// §5.1 contention watch: pends until the victim's destination raises
    /// a trigger, then diagnoses every window (transition Pending →
    /// verdict is the canonical incident).
    ContentionWatch {
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
    },
}

impl StandingQuery {
    /// The directory shard this subscription "belongs" to under an
    /// `n_shards`-way partition: the stable shard of its primary target
    /// node — the same keying the query plane dispatches by. Standing
    /// queries effectively subscribe per shard: a sharded deployment
    /// evaluates each subscription on its owning instance.
    pub fn home_shard(&self, n_shards: usize) -> usize {
        match *self {
            StandingQuery::Fixed(req) => home_shard(&req, n_shards),
            StandingQuery::TopKSliding { switch, .. } => host_shard_of(switch, n_shards),
            StandingQuery::LoadImbalanceSliding { switch, .. } => host_shard_of(switch, n_shards),
            StandingQuery::ContentionWatch { victim_dst, .. } => {
                host_shard_of(victim_dst, n_shards)
            }
        }
    }

    /// The trailing window `[horizon - (back-1), horizon]`.
    fn sliding(horizon: u64, back: u64) -> EpochRange {
        EpochRange {
            lo: horizon.saturating_sub(back.saturating_sub(1)),
            hi: horizon,
        }
    }

    /// The oldest epoch this subscription can still reach — the floor a
    /// retention sweep must respect on its home shard (and on the shards
    /// its last evaluation's host reads touched). A *pending* contention
    /// watch pins too: its trigger may fire this very window, and the
    /// diagnosis window then reaches back about `2·trigger_window + ε`
    /// from "now" — the policy's trailing horizon covers that span, but a
    /// *budget*-raised floor can pass the horizon, so without this pin it
    /// could evict the victim's live record out from under the future
    /// diagnosis.
    pub fn pin_floor(&self, analyzer: &Analyzer, live_horizon: u64) -> Option<u64> {
        match *self {
            StandingQuery::Fixed(req) => request_pin(&req, analyzer),
            StandingQuery::TopKSliding { epochs_back, .. } => {
                Some(Self::sliding(live_horizon, epochs_back).lo)
            }
            StandingQuery::LoadImbalanceSliding { epochs_back, .. } => {
                Some(Self::sliding(live_horizon, epochs_back).lo)
            }
            StandingQuery::ContentionWatch {
                victim,
                victim_dst,
                trigger_window,
            } => request_pin(
                &QueryRequest::Contention {
                    victim,
                    victim_dst,
                    trigger_window,
                },
                analyzer,
            )
            .or_else(|| {
                // Pending: pin the span a trigger firing "now" would
                // diagnose (the epoch_window shape of query.rs).
                let p = analyzer.params();
                let slack = p.epsilon.as_ns().div_ceil(p.alpha.as_ns());
                let back = (trigger_window * 2).as_ns().div_ceil(p.alpha.as_ns()) + slack + 1;
                Some(live_horizon.saturating_sub(back))
            }),
        }
    }

    /// Resolves to this window's concrete request, or `None` while the
    /// subscription is pending (e.g. no trigger yet). [`evaluate_window`]
    /// resolves every subscription of a window with it, against whatever
    /// view its caller reads through.
    pub fn resolve(&self, view: &dyn StateView, horizon: u64) -> Option<QueryRequest> {
        match *self {
            StandingQuery::Fixed(req) => Some(req),
            StandingQuery::TopKSliding {
                switch,
                k,
                epochs_back,
            } => Some(QueryRequest::TopK {
                switch,
                k,
                range: Self::sliding(horizon, epochs_back),
            }),
            StandingQuery::LoadImbalanceSliding {
                switch,
                epochs_back,
            } => Some(QueryRequest::LoadImbalance {
                switch,
                range: Self::sliding(horizon, epochs_back),
            }),
            StandingQuery::ContentionWatch {
                victim,
                victim_dst,
                trigger_window,
            } => view
                .first_trigger_for(victim_dst, victim)
                .map(|_| QueryRequest::Contention {
                    victim,
                    victim_dst,
                    trigger_window,
                }),
        }
    }
}

impl Wire for StandingQuery {
    fn enc(&self, e: &mut Enc) {
        match *self {
            StandingQuery::Fixed(req) => {
                e.put_u8(0);
                req.enc(e);
            }
            StandingQuery::TopKSliding {
                switch,
                k,
                epochs_back,
            } => {
                e.put_u8(1);
                switch.enc(e);
                e.put_usize(k);
                e.put_u64(epochs_back);
            }
            StandingQuery::LoadImbalanceSliding {
                switch,
                epochs_back,
            } => {
                e.put_u8(2);
                switch.enc(e);
                e.put_u64(epochs_back);
            }
            StandingQuery::ContentionWatch {
                victim,
                victim_dst,
                trigger_window,
            } => {
                e.put_u8(3);
                victim.enc(e);
                victim_dst.enc(e);
                trigger_window.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(StandingQuery::Fixed(QueryRequest::dec(d)?)),
            1 => Ok(StandingQuery::TopKSliding {
                switch: NodeId::dec(d)?,
                k: d.get_usize()?,
                epochs_back: d.get_u64()?,
            }),
            2 => Ok(StandingQuery::LoadImbalanceSliding {
                switch: NodeId::dec(d)?,
                epochs_back: d.get_u64()?,
            }),
            3 => Ok(StandingQuery::ContentionWatch {
                victim: FlowId::dec(d)?,
                victim_dst: NodeId::dec(d)?,
                trigger_window: SimTime::dec(d)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Service tuning.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Inner query-plane sizing (worker pool, shards, retention).
    pub plane: QueryPlaneConfig,
    /// Whole-result cache capacity (entries).
    pub result_cache_capacity: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            plane: QueryPlaneConfig::default(),
            result_cache_capacity: 1024,
        }
    }
}

/// Fraction of resolvable evaluations served from the result cache, read
/// off a snapshot of the plane's registry ([`StreamPlane::metrics`]).
pub fn result_hit_rate(m: &RegistrySnapshot) -> f64 {
    let hits = m.counter("streamplane.result_hits");
    let total = hits + m.counter("streamplane.result_misses");
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Copy-work ratio of full recapture over incremental refresh, read off a
/// snapshot of the plane's registry (same degenerate-end guards as
/// `SnapshotDelta::savings`: an all-GC'd deployment reports 0.0, not
/// NaN/∞).
pub fn delta_savings(m: &RegistrySnapshot) -> f64 {
    let full = m.counter("streamplane.full_copied_equiv");
    let copied = m.counter("streamplane.delta_copied");
    if full == 0 {
        0.0
    } else if copied == 0 {
        f64::INFINITY
    } else {
        full as f64 / copied as f64
    }
}

/// One standing query's verdict in one window.
#[derive(Debug, Clone)]
pub enum StandingEval {
    /// Not resolvable yet (e.g. contention watch with no trigger).
    Pending,
    /// The concrete request evaluated and its (bit-identical) response.
    Verdict {
        request: QueryRequest,
        response: QueryResponse,
        from_cache: bool,
    },
}

/// Everything one call to [`StreamPlane::run_window`] did.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window index (0-based, monotone).
    pub window: u64,
    /// Snapshot epoch horizon after the delta refresh.
    pub horizon: u64,
    /// Publication epoch of the snapshot this window evaluated against
    /// (the [`queryplane::SnapshotSlot`] install counter): the window
    /// consumed exactly the state its delta refresh published, even if
    /// another refresh lands while the window is still evaluating.
    pub snapshot_epoch: u64,
    /// The retention sweep this window ran before refreshing, if a policy
    /// is configured (per-shard floors, evicted/resident counts).
    pub sweep: Option<SweepReport>,
    /// The incremental refresh summary (dirty sets, copy work).
    pub delta: SnapshotDelta,
    /// Queries executed on the pool this window.
    pub executed: usize,
    /// Queries served from the result cache.
    pub served_from_cache: usize,
    /// Standing queries still pending.
    pub pending: usize,
    /// Result-cache entries the delta invalidated.
    pub invalidated: usize,
    /// Standing-query evaluations per home directory shard this window
    /// (length = the plane's `directory_shards`; pending subscriptions
    /// counted at their home shard too).
    pub per_shard_standing: Vec<usize>,
    /// Incidents fired this window (also appended to the global log).
    pub incidents: Vec<Incident>,
    /// Per-subscription verdicts, in registration order.
    pub standing: Vec<(SubscriptionId, StandingEval)>,
    /// One-shot outcomes, in submission order.
    pub one_shot: Vec<(TicketId, QueryOutcome)>,
}

/// The stream plane's registry handles, resolved once at construction
/// (into the *query plane's* registry, so one scrape covers both).
struct SpMetrics {
    windows: Arc<Counter>,
    evaluations: Arc<Counter>,
    one_shots: Arc<Counter>,
    result_hits: Arc<Counter>,
    result_misses: Arc<Counter>,
    invalidated: Arc<Counter>,
    incidents: Arc<Counter>,
    delta_copied: Arc<Counter>,
    full_copied_equiv: Arc<Counter>,
    sweeps: Arc<Counter>,
    records_reclaimed: Arc<Counter>,
    pointer_sets_retired: Arc<Counter>,
    triggers_reclaimed: Arc<Counter>,
    /// Real wall time of one whole `run_window` call.
    window_close_ns: Arc<Histogram>,
    /// Real wall time of the incremental snapshot refresh inside it.
    delta_apply_ns: Arc<Histogram>,
    /// Window-open → incident-append lag for each fired incident.
    incident_fire_lag_ns: Arc<Histogram>,
}

impl SpMetrics {
    fn new(reg: &MetricsRegistry) -> SpMetrics {
        SpMetrics {
            windows: reg.counter("streamplane.windows"),
            evaluations: reg.counter("streamplane.evaluations"),
            one_shots: reg.counter("streamplane.one_shots"),
            result_hits: reg.counter("streamplane.result_hits"),
            result_misses: reg.counter("streamplane.result_misses"),
            invalidated: reg.counter("streamplane.invalidated"),
            incidents: reg.counter("streamplane.incidents"),
            delta_copied: reg.counter("streamplane.delta_copied"),
            full_copied_equiv: reg.counter("streamplane.full_copied_equiv"),
            sweeps: reg.counter("streamplane.sweeps"),
            records_reclaimed: reg.counter("streamplane.records_reclaimed"),
            pointer_sets_retired: reg.counter("streamplane.pointer_sets_retired"),
            triggers_reclaimed: reg.counter("streamplane.triggers_reclaimed"),
            window_close_ns: reg.histogram("streamplane.window_close_ns"),
            delta_apply_ns: reg.histogram("streamplane.delta_apply_ns"),
            incident_fire_lag_ns: reg.histogram("streamplane.incident_fire_lag_ns"),
        }
    }
}

/// The continuous-monitoring front-end.
pub struct StreamPlane {
    plane: QueryPlane,
    subs: Vec<(SubscriptionId, StandingQuery)>,
    next_sub: u64,
    next_ticket: u64,
    pending: Vec<(TicketId, QueryRequest)>,
    results: ResultCache,
    incidents: Vec<Incident>,
    last_fp: BTreeMap<SubscriptionId, u64>,
    window: u64,
    m: SpMetrics,
}

/// The oldest epoch a concrete request reads. Range-carrying requests pin
/// their `range.lo`; trigger-anchored diagnoses pin the low edge of the
/// epoch window around the victim's (already raised) trigger — a cascade
/// additionally widens one epoch per recursion stage. `None` when the
/// trigger has not fired yet.
fn request_pin(req: &QueryRequest, analyzer: &Analyzer) -> Option<u64> {
    match *req {
        QueryRequest::TopK { range, .. }
        | QueryRequest::LoadImbalance { range, .. }
        | QueryRequest::SilentDrop { range, .. } => Some(range.lo),
        QueryRequest::Contention {
            victim,
            victim_dst,
            trigger_window,
        }
        | QueryRequest::RedLights {
            victim,
            victim_dst,
            trigger_window,
        } => analyzer
            .live_view()
            .first_trigger_for(victim_dst, victim)
            .map(|t| analyzer.epoch_window(&t, trigger_window).lo),
        QueryRequest::Cascade {
            victim,
            victim_dst,
            trigger_window,
            max_depth,
        } => analyzer
            .live_view()
            .first_trigger_for(victim_dst, victim)
            .map(|t| {
                analyzer
                    .epoch_window(&t, trigger_window)
                    .lo
                    .saturating_sub(max_depth as u64)
            }),
    }
}

/// Folds `lo` into the pin slot for shard `s` (pins only ever get lower).
fn note_pin(pins: &mut [Option<u64>], s: usize, lo: u64) {
    pins[s] = Some(pins[s].map_or(lo, |p| p.min(lo)));
}

/// Conservative per-shard retention pins for a set of standing queries
/// when neither an analyzer nor a result cache is at hand — the failover
/// handoff path. A front-end promoting a standby mid-stream cannot
/// consult the dead primary's evaluation cache for dep-shard precision,
/// so each subscription pins its home shard at `floor`, and any
/// subscription whose cross-shard fan-out is unknowable without an
/// evaluation (a contention watch, which may be pending, or a fixed
/// diagnosis-class request) pins every shard. Always at or below
/// [`StreamPlane::retention_pins`]' precise answer for the same floor,
/// so a sweep honoring these pins never evicts state a cursor resumed on
/// the standby could still reach.
pub fn handoff_pins(queries: &[StandingQuery], n_shards: usize, floor: u64) -> Vec<Option<u64>> {
    let n = n_shards.max(1);
    let mut pins: Vec<Option<u64>> = vec![None; n];
    for q in queries {
        note_pin(&mut pins, q.home_shard(n), floor);
        let fans_out = match q {
            StandingQuery::ContentionWatch { .. } => true,
            StandingQuery::Fixed(req) => diagnosis_class(req),
            _ => false,
        };
        if fans_out {
            for s in 0..n {
                note_pin(&mut pins, s, floor);
            }
        }
    }
    pins
}

/// Trigger-anchored diagnoses whose cross-shard fan-out is unknown until
/// first evaluated — the requests whose windows must never dangle.
fn diagnosis_class(req: &QueryRequest) -> bool {
    matches!(
        req,
        QueryRequest::Contention { .. }
            | QueryRequest::RedLights { .. }
            | QueryRequest::Cascade { .. }
    )
}

impl StreamPlane {
    /// Freezes the initial snapshot and spawns the worker pool. Panics on
    /// a degenerate plane config (typed message); see
    /// [`StreamPlane::try_new`].
    pub fn new(analyzer: &Analyzer, cfg: StreamConfig) -> Self {
        Self::try_new(analyzer, cfg).unwrap_or_else(|e| panic!("invalid StreamConfig: {e}"))
    }

    /// [`StreamPlane::new`] with the inner [`QueryPlaneConfig`] validated
    /// up front: zero workers / shards surface as a
    /// typed [`queryplane::ConfigError`] instead of a panic deep in the
    /// pool.
    pub fn try_new(
        analyzer: &Analyzer,
        cfg: StreamConfig,
    ) -> Result<Self, queryplane::ConfigError> {
        let plane = QueryPlane::try_from_analyzer(analyzer, cfg.plane)?;
        let m = SpMetrics::new(plane.metrics());
        Ok(StreamPlane {
            plane,
            subs: Vec::new(),
            next_sub: 0,
            next_ticket: 0,
            pending: Vec::new(),
            results: ResultCache::with_shards(
                cfg.result_cache_capacity,
                cfg.plane.directory_shards.max(1),
            ),
            incidents: Vec::new(),
            last_fp: BTreeMap::new(),
            window: 0,
            m,
        })
    }

    /// Registers a standing query; evaluated every window from now on.
    pub fn subscribe(&mut self, q: StandingQuery) -> SubscriptionId {
        let id = SubscriptionId(self.next_sub);
        self.next_sub += 1;
        self.subs.push((id, q));
        id
    }

    /// Cancels a subscription. Returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let before = self.subs.len();
        self.subs.retain(|&(s, _)| s != id);
        self.last_fp.remove(&id);
        self.subs.len() != before
    }

    /// Queues a one-shot query; it joins the next window's batch (arrival-
    /// window admission) and its outcome comes back in that window's
    /// report.
    pub fn submit(&mut self, req: QueryRequest) -> TicketId {
        let ticket = TicketId(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push((ticket, req));
        ticket
    }

    /// Closes the current arrival window: incrementally refreshes the
    /// snapshot from `analyzer`, invalidates exactly the cached results
    /// the delta touched, evaluates every standing query plus the queued
    /// one-shots as one admitted batch, and runs change detection over the
    /// standing verdicts.
    ///
    /// Call after advancing the simulation to the window's end. Verdicts
    /// are a pure function of the snapshot state — independent of worker
    /// count, admission batching and result-cache hits (property-tested).
    pub fn run_window(&mut self, analyzer: &Analyzer) -> WindowReport {
        let opened = Instant::now();
        let window = self.window;
        self.window += 1;
        self.m.windows.inc();

        // 0. Retention sweep (when a policy is configured): reclaim live
        // state no standing query can still reach — the pins computed from
        // the subscriptions (and queued one-shots) floor what each
        // directory shard may collect. The delta refresh below propagates
        // the reclamation into the snapshot and the caches.
        let sweep = if let Some(policy) = self.plane.config().retention {
            let n_dir = self.plane.config().directory_shards.max(1);
            let live_horizon = retention::newest_epoch(analyzer);
            let pins = self.retention_pins_at(analyzer, live_horizon);
            let report = retention::sweep_at(analyzer, policy, n_dir, &pins, live_horizon);
            self.m.sweeps.inc();
            self.m.records_reclaimed.add(report.records_evicted as u64);
            self.m
                .pointer_sets_retired
                .add(report.archived_retired as u64);
            self.m
                .triggers_reclaimed
                .add(report.triggers_trimmed as u64);
            Some(report)
        } else {
            None
        };

        // 1. Incremental refresh + eviction-aware precise invalidation:
        // dirty switches/hosts match per dependency set; eviction-forced
        // rescans additionally broadcast per owning directory shard.
        let delta_started = Instant::now();
        let delta = self.plane.refresh_delta(analyzer);
        self.m
            .delta_apply_ns
            .record_duration(delta_started.elapsed());
        let invalidated = self.results.invalidate_delta(&delta);
        self.m.invalidated.add(invalidated as u64);
        self.m
            .delta_copied
            .add(delta.cloned_records + delta.cloned_slots);
        self.m
            .full_copied_equiv
            .add(delta.full_records + delta.full_slots);
        let horizon = delta.epoch_horizon;

        // 2. The window rule over the standing queries, resolved against
        // the epoch-published snapshot the refresh above just installed —
        // an owned handle, so a concurrent install can never invalidate
        // the state mid-window. The run step admits the queued one-shots
        // behind the resolved standing requests, serves from the result
        // cache where valid, and executes the misses as one batch on the
        // worker pool, which runs identical requests within the window
        // once (`QueryPlane::execute_batch` coalesces).
        let (published, snapshot_epoch) = self.plane.published();
        let n_dir = self.plane.config().directory_shards.max(1);
        let mut per_shard_standing = vec![0usize; n_dir];
        for (_, q) in &self.subs {
            per_shard_standing[q.home_shard(n_dir)] += 1;
        }
        self.m.evaluations.add(self.subs.len() as u64);
        let one_shots = std::mem::take(&mut self.pending);
        self.m.one_shots.add(one_shots.len() as u64);
        let subs: Vec<(SubscriptionId, StandingQuery, Option<u64>)> = self
            .subs
            .iter()
            .map(|&(id, q)| (id, q, self.last_fp.get(&id).copied()))
            .collect();
        let (results, plane, m) = (&mut self.results, &mut self.plane, &self.m);
        let mut from_cache: Vec<bool> = Vec::new();
        let mut one_shot_out: Vec<(TicketId, QueryOutcome)> = Vec::new();
        let (mut executed, mut served_from_cache) = (0usize, 0usize);
        let verdicts = evaluate_window(&subs, &*published, window, horizon, |standing| {
            let admitted: Vec<QueryRequest> = standing
                .iter()
                .copied()
                .chain(one_shots.iter().map(|&(_, req)| req))
                .collect();
            let hits: Vec<Option<CachedResult>> =
                admitted.iter().map(|req| results.lookup(req)).collect();
            let misses: Vec<QueryRequest> = admitted
                .iter()
                .zip(&hits)
                .filter(|(_, hit)| hit.is_none())
                .map(|(req, _)| *req)
                .collect();
            served_from_cache = admitted.len() - misses.len();
            m.result_hits.add(served_from_cache as u64);
            m.result_misses.add(misses.len() as u64);
            let mut fresh = plane.execute_batch(&misses).into_iter();
            // Cache each distinct request once, at its first occurrence. A
            // set rather than a cache lookup: a small cache may already
            // have evicted a request this loop stored.
            let mut cached: HashSet<QueryRequest> = HashSet::new();
            let mut outcomes: Vec<(QueryOutcome, bool)> = hits
                .into_iter()
                .zip(&admitted)
                .map(|(hit, req)| match hit {
                    // Served from cache: nothing ran this window, so the
                    // trace carries the entry's dependency set and no
                    // rounds, waves or fan-out.
                    Some(c) => {
                        let trace = ExecutionTrace {
                            deps: c.deps,
                            ..ExecutionTrace::default()
                        };
                        let outcome = QueryOutcome {
                            response: c.response,
                            trace: Arc::new(trace),
                            counters: RouterCounters::default(),
                        };
                        (outcome, true)
                    }
                    None => {
                        let outcome = fresh.next().expect("one outcome per miss");
                        if cached.insert(*req) {
                            results.insert(req, &outcome, horizon);
                        }
                        (outcome, false)
                    }
                })
                .collect();
            executed = cached.len();
            let shots = outcomes.split_off(standing.len());
            one_shot_out = one_shots
                .iter()
                .zip(shots)
                .map(|(&(ticket, _), (outcome, _))| (ticket, outcome))
                .collect();
            outcomes
                .into_iter()
                .map(|(outcome, hit)| {
                    from_cache.push(hit);
                    outcome.response
                })
                .collect()
        });
        for (&(id, _, _), &fp) in subs.iter().zip(&verdicts.fingerprints) {
            self.last_fp.insert(id, fp);
        }
        let mut from_cache = from_cache.into_iter();
        let standing: Vec<(SubscriptionId, StandingEval)> = subs
            .iter()
            .zip(verdicts.verdicts)
            .map(|(&(id, _, _), verdict)| {
                let eval = match verdict {
                    None => StandingEval::Pending,
                    Some((request, response)) => StandingEval::Verdict {
                        request,
                        response,
                        from_cache: from_cache.next().expect("one source per verdict"),
                    },
                };
                (id, eval)
            })
            .collect();
        let pending = standing
            .iter()
            .filter(|(_, e)| matches!(e, StandingEval::Pending))
            .count();
        let incidents = verdicts.incidents;
        let report = WindowReport {
            window,
            horizon,
            snapshot_epoch,
            sweep,
            delta,
            executed,
            served_from_cache,
            pending,
            invalidated,
            per_shard_standing,
            incidents: incidents.clone(),
            standing,
            one_shot: one_shot_out,
        };
        self.m.incidents.add(incidents.len() as u64);
        // Fire lag: how long after the window opened each incident was
        // appended (they append together, so one observation per
        // incident at the same lag — the distribution still shows how
        // incident-bearing windows stretch).
        let lag = opened.elapsed();
        for _ in &incidents {
            self.m.incident_fire_lag_ns.record_duration(lag);
        }
        self.incidents.extend(incidents);
        self.m.window_close_ns.record_duration(opened.elapsed());
        self.plane
            .metrics()
            .tracer()
            .record("window_close", horizon, u32::MAX, opened);
        report
    }

    /// Per-directory-shard retention pins: for each shard, the oldest
    /// epoch some standing query (or queued one-shot) can still reach
    /// there. A subscription pins its *home* shard always, and — when its
    /// last evaluation is still in the result cache — every shard that
    /// evaluation's recorded host reads touched, so a diagnosis whose
    /// fan-out crosses shards stays re-derivable after the sweep. A
    /// diagnosis-class request that has *never* been evaluated (a watch
    /// whose trigger just fired, a freshly queued contention one-shot)
    /// pins every shard for that one window: its fan-out is unknown until
    /// it runs, and dep-shard precision takes over once the evaluation is
    /// cached. [`switchpointer::retention::sweep`] never collects at or
    /// above a pin on the pinned shard.
    pub fn retention_pins(&self, analyzer: &Analyzer) -> Vec<Option<u64>> {
        self.retention_pins_at(analyzer, retention::newest_epoch(analyzer))
    }

    /// [`StreamPlane::retention_pins`] with a caller-provided horizon
    /// (avoids re-scanning the switches when the caller already has it).
    fn retention_pins_at(&self, analyzer: &Analyzer, horizon: u64) -> Vec<Option<u64>> {
        let n_dir = self.plane.config().directory_shards.max(1);
        let mut pins: Vec<Option<u64>> = vec![None; n_dir];
        for (_, q) in &self.subs {
            let Some(lo) = q.pin_floor(analyzer, horizon) else {
                continue;
            };
            note_pin(&mut pins, q.home_shard(n_dir), lo);
            match q.resolve(&analyzer.live_view(), horizon) {
                Some(req) => self.pin_request_fanout(&req, lo, n_dir, &mut pins),
                // A pending watch's near-future window will fan out across
                // shards the moment its trigger fires: contender records
                // live anywhere, so the near-past pin is global too.
                None => {
                    for s in 0..n_dir {
                        note_pin(&mut pins, s, lo);
                    }
                }
            }
        }
        for (_, req) in &self.pending {
            if let Some(lo) = request_pin(req, analyzer) {
                note_pin(&mut pins, home_shard(req, n_dir), lo);
                self.pin_request_fanout(req, lo, n_dir, &mut pins);
            }
        }
        pins
    }

    /// The shared fan-out pin rule for one concrete request: a cached
    /// prior evaluation pins every shard its recorded host reads touched
    /// (precision — note this only engages for fixed-key requests; a
    /// sliding subscription's key changes every window, so it always
    /// misses here and relies on its home-shard trailing-edge pin plus
    /// §12.5's aggregate carve-out); a *never-evaluated* diagnosis-class
    /// request pins every shard, since its cross-shard fan-out is unknown
    /// until it runs.
    fn pin_request_fanout(
        &self,
        req: &QueryRequest,
        lo: u64,
        n_dir: usize,
        pins: &mut [Option<u64>],
    ) {
        match self.results.peek(req) {
            Some(cached) => {
                for &s in &cached.dep_shards {
                    note_pin(pins, s, lo);
                }
            }
            None if diagnosis_class(req) => {
                for s in 0..n_dir {
                    note_pin(pins, s, lo);
                }
            }
            None => {}
        }
    }

    /// The full incident log since construction.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// The metric registry shared with the inner query plane: all
    /// `streamplane.*` window/delta/incident metrics land next to the
    /// `queryplane.*` execution metrics, so one snapshot covers both.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.plane.metrics()
    }

    /// The inner query plane (configuration, published snapshot,
    /// per-shard fan-out).
    pub fn plane(&self) -> &QueryPlane {
        &self.plane
    }

    /// Registered standing queries, in registration order.
    pub fn subscriptions(&self) -> &[(SubscriptionId, StandingQuery)] {
        &self.subs
    }

    /// Subscriptions grouped by home directory shard (registration order
    /// within each shard) — which analyzer instance owns which standing
    /// query in a sharded deployment.
    pub fn subscriptions_by_shard(&self) -> Vec<Vec<SubscriptionId>> {
        let n_dir = self.plane.config().directory_shards.max(1);
        let mut by_shard = vec![Vec::new(); n_dir];
        for &(id, ref q) in &self.subs {
            by_shard[q.home_shard(n_dir)].push(id);
        }
        by_shard
    }
}
