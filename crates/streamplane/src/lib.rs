//! # streamplane — continuous standing-query monitoring
//!
//! SwitchPointer's pitch is *continuous* monitoring and debugging, but a
//! [`QueryPlane`] alone answers one-shot batches over a fully re-frozen
//! snapshot. This crate turns it into an always-on service: clients
//! register **standing queries** (the paper's §5 applications as
//! long-lived subscriptions) that are re-evaluated every **evaluation
//! window** against an **incrementally maintained snapshot**, with an
//! incident log in front. Every window runs every resolved standing query
//! afresh, as the paper's analyzer answers each query by retrieving
//! pointers and contacting the hosts they name: there is no store of past
//! answers. Four pieces:
//!
//! 1. **Incremental snapshot deltas** — each window calls
//!    [`QueryPlane::refresh_delta`], which copies only the pointer slots
//!    and host shards that changed since the previous window
//!    ([`queryplane::Snapshot::apply_delta`]); bit-identical to a full
//!    recapture at asymptotically less copy work, property-tested in
//!    `tests/streamplane_props.rs`.
//! 2. **Arrival-window admission** — one-shot queries submitted between
//!    windows ride the next window's batch together with the standing
//!    queries, as one scatter over the plane's worker pool, which runs
//!    each distinct request of the window once.
//! 3. **Incident log** — per-subscription verdict fingerprints with change
//!    detection: an [`Incident`] fires only when a verdict *transitions*
//!    (plus one `Baseline` entry at first sight). Because verdicts are
//!    bit-identical at any worker count and under any admission batching,
//!    the incident stream is too.
//! 4. **Bounded retention** — with a
//!    [`RetentionPolicy`](switchpointer::retention::RetentionPolicy) on
//!    the plane config, every window opens with a GC sweep
//!    ([`switchpointer::retention::sweep`]) that evicts flow records and
//!    retires archived pointer sets the standing queries can no longer
//!    reach, per directory shard. Each subscription *pins* a floor, and
//!    where it pins follows its class alone: a trigger-anchored diagnosis
//!    (a contention watch, a fixed contention / red-lights / cascade)
//!    pins every shard, since its contenders' records live anywhere; any
//!    other query pins its home shard. The floor is a sliding window's
//!    trailing edge, a fixed range's `lo`, a resolved diagnosis's trigger
//!    window — a *pending* one pins its near-future window — so
//!    ContentionWatch incidents never dangle, even under pure budget
//!    pressure. The reclamation propagates through the same delta path as
//!    any eviction.
//!
//! Execution itself is delegated to the `queryplane` crate's batch
//! driver over its persistent deterministic
//! [`WorkerPool`](queryplane::WorkerPool) — the two planes share the
//! driver and the determinism argument. The window step (resolve → run →
//! fingerprint → transition) is [`evaluate_window`], written once: the
//! wire front-end closes its windows through it too, with its own way of
//! running the requests.
//!
//! Drive it end-to-end with `examples/continuous_watch.rs`;
//! `tests/streamplane_props.rs` pins its copy work and incident stream.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use netsim::packet::{FlowId, NodeId};
use netsim::time::SimTime;
use obsplane::{Counter, Histogram, MetricsRegistry, RegistrySnapshot};
use queryplane::{home_shard, QueryOutcome, QueryPlane, QueryPlaneConfig, SnapshotDelta};
use switchpointer::query::{QueryRequest, QueryResponse, StateView};
use switchpointer::retention::{self, SweepReport};
use switchpointer::Analyzer;
use telemetry::frame::{Dec, Enc, Wire, WireError};
use telemetry::EpochRange;

mod incident;

pub use incident::{evaluate_window, Incident, IncidentKind, WindowVerdicts, PENDING_SUMMARY};

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
    /// Re-evaluate this exact request every window (fixed epoch range). A
    /// fixed diagnosis (contention, red-lights, cascade) pends, like a
    /// contention watch, until its victim's destination raises a trigger.
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
        home_shard(&self.request(0), n_shards)
    }

    /// The trailing window `[horizon - (back-1), horizon]`.
    fn sliding(horizon: u64, back: u64) -> EpochRange {
        EpochRange {
            lo: horizon.saturating_sub(back.saturating_sub(1)),
            hi: horizon,
        }
    }

    /// The concrete request this subscription runs at `horizon`, whether
    /// or not its trigger has fired yet.
    fn request(&self, horizon: u64) -> QueryRequest {
        match *self {
            StandingQuery::Fixed(req) => req,
            StandingQuery::TopKSliding {
                switch,
                k,
                epochs_back,
            } => QueryRequest::TopK {
                switch,
                k,
                range: Self::sliding(horizon, epochs_back),
            },
            StandingQuery::LoadImbalanceSliding {
                switch,
                epochs_back,
            } => QueryRequest::LoadImbalance {
                switch,
                range: Self::sliding(horizon, epochs_back),
            },
            StandingQuery::ContentionWatch {
                victim,
                victim_dst,
                trigger_window,
            } => QueryRequest::Contention {
                victim,
                victim_dst,
                trigger_window,
            },
        }
    }

    /// The oldest epoch this subscription can still reach — the floor a
    /// retention sweep must respect (on every shard for a diagnosis, on
    /// its home shard otherwise). A *pending* diagnosis pins too: its
    /// trigger may fire this very window, and the diagnosis window then
    /// reaches back about `2·trigger_window + ε` from "now" (one epoch
    /// more per stage for a cascade) — the policy's trailing horizon
    /// covers that span, but a *budget*-raised floor can pass the
    /// horizon, so without this pin it could evict the victim's live
    /// record out from under the future diagnosis.
    pub fn pin_floor(&self, analyzer: &Analyzer, live_horizon: u64) -> Option<u64> {
        let req = self.request(live_horizon);
        request_pin(&req, analyzer).or_else(|| {
            // Pending: pin the span a trigger firing "now" would
            // diagnose (the epoch_window shape of query.rs).
            let anchor = trigger_anchor(&req)?;
            let p = analyzer.params();
            let slack = p.epsilon.as_ns().div_ceil(p.alpha.as_ns());
            let back = (anchor.window * 2).as_ns().div_ceil(p.alpha.as_ns()) + slack + 1;
            Some(live_horizon.saturating_sub(back + anchor.depth))
        })
    }

    /// Resolves to this window's concrete request, or `None` while the
    /// subscription is pending: a diagnosis whose victim's destination has
    /// raised no trigger yet. [`evaluate_window`] resolves every
    /// subscription of a window with it, against whatever view its caller
    /// reads through.
    pub fn resolve(&self, view: &dyn StateView, horizon: u64) -> Option<QueryRequest> {
        let req = self.request(horizon);
        match trigger_anchor(&req) {
            Some(a) => view.first_trigger_for(a.victim_dst, a.victim).map(|_| req),
            None => Some(req),
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
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamConfig {
    /// Inner query-plane sizing (worker pool, shards, retention).
    pub plane: QueryPlaneConfig,
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
    },
}

/// Everything one call to [`StreamPlane::run_window`] did.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window index (0-based, monotone).
    pub window: u64,
    /// Snapshot epoch horizon after the delta refresh.
    pub horizon: u64,
    /// The retention sweep this window ran before refreshing, if a policy
    /// is configured (per-shard floors, evicted/resident counts).
    pub sweep: Option<SweepReport>,
    /// The incremental refresh summary (dirty sets, copy work).
    pub delta: SnapshotDelta,
    /// Distinct queries executed on the pool this window (the batch runs
    /// a repeated request once).
    pub executed: usize,
    /// Standing queries still pending.
    pub pending: usize,
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
    incidents: Vec<Incident>,
    last_fp: BTreeMap<SubscriptionId, u64>,
    window: u64,
    m: SpMetrics,
}

/// What a trigger-anchored diagnosis keys on: the victim flow, the
/// destination host whose trigger log it reads, the trigger window, and
/// the epochs a cascade's recursion widens its window by.
struct TriggerAnchor {
    victim: FlowId,
    victim_dst: NodeId,
    window: SimTime,
    depth: u64,
}

/// The anchor of a diagnosis-class request (contention, red-lights,
/// cascade); `None` for the range-carrying classes.
fn trigger_anchor(req: &QueryRequest) -> Option<TriggerAnchor> {
    match *req {
        QueryRequest::Contention {
            victim,
            victim_dst,
            trigger_window,
        }
        | QueryRequest::RedLights {
            victim,
            victim_dst,
            trigger_window,
        } => Some(TriggerAnchor {
            victim,
            victim_dst,
            window: trigger_window,
            depth: 0,
        }),
        QueryRequest::Cascade {
            victim,
            victim_dst,
            trigger_window,
            max_depth,
        } => Some(TriggerAnchor {
            victim,
            victim_dst,
            window: trigger_window,
            depth: max_depth as u64,
        }),
        QueryRequest::TopK { .. }
        | QueryRequest::LoadImbalance { .. }
        | QueryRequest::SilentDrop { .. } => None,
    }
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
        _ => trigger_anchor(req).and_then(|a| {
            analyzer
                .live_view()
                .first_trigger_for(a.victim_dst, a.victim)
                .map(|t| {
                    analyzer
                        .epoch_window(&t, a.window)
                        .lo
                        .saturating_sub(a.depth)
                })
        }),
    }
}

/// The pin rule: folds floor `lo` of `req` into `pins` (pins only ever get
/// lower). A trigger-anchored diagnosis pins every shard, since the
/// contenders it reads can live on any of them; any other request pins
/// its home shard. The rule reads the request's class, never its
/// evaluation history.
fn note_pins(pins: &mut [Option<u64>], req: &QueryRequest, lo: u64) {
    let shards = if trigger_anchor(req).is_some() {
        0..pins.len()
    } else {
        let home = home_shard(req, pins.len());
        home..home + 1
    };
    for pin in &mut pins[shards] {
        *pin = Some(pin.map_or(lo, |p| p.min(lo)));
    }
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
    /// report. Unlike a standing diagnosis, a one-shot never pends: a
    /// contention / red-lights / cascade one-shot keeps the [`Analyzer`]'s
    /// precondition that its victim's trigger has fired by the window
    /// that runs it.
    pub fn submit(&mut self, req: QueryRequest) -> TicketId {
        let ticket = TicketId(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push((ticket, req));
        ticket
    }

    /// Closes the current arrival window: incrementally refreshes the
    /// snapshot from `analyzer`, evaluates every resolved standing query
    /// plus the queued one-shots as one admitted batch, and runs change
    /// detection over the standing verdicts.
    ///
    /// Call after advancing the simulation to the window's end. Verdicts
    /// are a pure function of the snapshot state — independent of worker
    /// count and admission batching (property-tested).
    pub fn run_window(&mut self, analyzer: &Analyzer) -> WindowReport {
        let opened = Instant::now();
        let window = self.window;
        self.window += 1;
        self.m.windows.inc();

        // 0. Retention sweep (when a policy is configured): reclaim live
        // state no standing query can still reach — the pins computed from
        // the subscriptions (and queued one-shots) floor what each
        // directory shard may collect. The delta refresh below propagates
        // the reclamation into the snapshot.
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

        // 1. Incremental refresh.
        let delta_started = Instant::now();
        let delta = self.plane.refresh_delta(analyzer);
        self.m
            .delta_apply_ns
            .record_duration(delta_started.elapsed());
        self.m
            .delta_copied
            .add(delta.cloned_records + delta.cloned_slots);
        self.m
            .full_copied_equiv
            .add(delta.full_records + delta.full_slots);
        let horizon = delta.epoch_horizon;

        // 2. The window rule over the standing queries, resolved against
        // the snapshot the refresh above just published — an owned
        // handle, so a later refresh can never invalidate the state
        // mid-window. The run step admits the queued one-shots
        // behind the resolved standing requests and executes them all as
        // one batch on the worker pool, which runs identical requests
        // within the window once (`QueryPlane::execute_batch` coalesces).
        let published = self.plane.snapshot();
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
        let plane = &mut self.plane;
        let mut one_shot_out: Vec<(TicketId, QueryOutcome)> = Vec::new();
        let mut executed = 0usize;
        let verdicts = evaluate_window(&subs, &*published, window, horizon, |standing| {
            let admitted: Vec<QueryRequest> = standing
                .iter()
                .copied()
                .chain(one_shots.iter().map(|&(_, req)| req))
                .collect();
            executed = admitted.iter().collect::<HashSet<_>>().len();
            let mut outcomes = plane.execute_batch(&admitted);
            let shots = outcomes.split_off(standing.len());
            one_shot_out = one_shots
                .iter()
                .map(|&(ticket, _)| ticket)
                .zip(shots)
                .collect();
            outcomes
                .into_iter()
                .map(|o| Arc::unwrap_or_clone(o.response))
                .collect()
        });
        for (&(id, _, _), &fp) in subs.iter().zip(&verdicts.fingerprints) {
            self.last_fp.insert(id, fp);
        }
        let standing: Vec<(SubscriptionId, StandingEval)> = subs
            .iter()
            .zip(verdicts.verdicts)
            .map(|(&(id, _, _), verdict)| {
                let eval = match verdict {
                    None => StandingEval::Pending,
                    Some((request, response)) => StandingEval::Verdict { request, response },
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
            sweep,
            delta,
            executed,
            pending,
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
    /// there. Where a query pins follows its class alone: a
    /// trigger-anchored diagnosis — a contention watch, a fixed or queued
    /// contention / red-lights / cascade — pins every shard at its floor,
    /// since the contenders it reads live anywhere; any other query pins
    /// its home shard. [`switchpointer::retention::sweep`] never collects
    /// at or above a pin on the pinned shard.
    pub fn retention_pins(&self, analyzer: &Analyzer) -> Vec<Option<u64>> {
        self.retention_pins_at(analyzer, retention::newest_epoch(analyzer))
    }

    /// [`StreamPlane::retention_pins`] with a caller-provided horizon
    /// (avoids re-scanning the switches when the caller already has it).
    fn retention_pins_at(&self, analyzer: &Analyzer, horizon: u64) -> Vec<Option<u64>> {
        let n_dir = self.plane.config().directory_shards.max(1);
        let mut pins: Vec<Option<u64>> = vec![None; n_dir];
        let standing = self
            .subs
            .iter()
            .map(|(_, q)| (q.request(horizon), q.pin_floor(analyzer, horizon)));
        let one_shots = self
            .pending
            .iter()
            .map(|(_, req)| (*req, request_pin(req, analyzer)));
        for (req, floor) in standing.chain(one_shots) {
            if let Some(lo) = floor {
                note_pins(&mut pins, &req, lo);
            }
        }
        pins
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
