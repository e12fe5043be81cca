//! # queryplane — a concurrent, sharded analyzer query service
//!
//! The SwitchPointer analyzer (§4.3, §5) answers one debugging query at a
//! time against live component handles. This crate turns it into a
//! multi-tenant service front-end that takes a *stream* of
//! [`QueryRequest`]s and schedules them over a deterministic worker pool,
//! while keeping the repo's core invariant: **same seed + same query set ⇒
//! same verdicts, regardless of worker count**.
//!
//! Architecture (see `DESIGN.md` §"The query plane"):
//!
//! 1. **[`Snapshot`]** — an immutable, `Sync` freeze of the deployment
//!    state: switch pointer hierarchies cloned, host flow records held in
//!    the live stores' own [`shard_of`](switchpointer::hoststore::shard_of)
//!    record shards, shared by `Arc`, so concurrent queries touching
//!    different flows and hosts never contend on a shared structure.
//!    Between batches the freeze can be brought up to date
//!    *incrementally*: [`QueryPlane::refresh_delta`] copies only the
//!    pointer slots that changed since the last freeze and takes the
//!    record shards the live stores wrote since (see
//!    [`Snapshot::apply_delta`]).
//! 2. **Persistent work-stealing [`WorkerPool`]** — spawned once at plane
//!    construction and shared by every batch (and by the `streamplane`
//!    crate's standing query windows). Batches are cut into
//!    [`chunk_size`]d chunks placed by shard affinity and rebalanced by
//!    stealing, and results are stitched lock-free in submission order,
//!    so verdicts are independent of worker count, chunk size, and steal
//!    schedule. Snapshots are published through an epoch-stamped
//!    [`SnapshotSlot`], so a refresh installs new state without quiescing
//!    in-flight batches.
//! 3. **Sharded directory** — with
//!    [`QueryPlaneConfig::directory_shards`] > 1 the bit → host directory
//!    is hash-partitioned across analyzer instances
//!    ([`switchpointer::shard`], DESIGN.md §11): every query reads
//!    through a shard router over one
//!    [`LocalBackend`](switchpointer::shard::LocalBackend) per directory
//!    shard (bit-identical answers at any shard count), dispatch is keyed
//!    by each request's [`home_shard`], and the measured per-shard fan-out
//!    lands in the registry ([`QueryPlane::fanout`]).
//!
//! `execute_batch` is the batch driver ([`execute`], [`lock_step`]) over
//! the published snapshot and nothing else — the same driver the wire
//! front-end runs over its remote shard links. **A batch runs each
//! distinct request once:** requests are keyed by the whole
//! [`QueryRequest`], only the distinct ones are scattered (in
//! first-occurrence order), and every slot that asked the same question
//! gets the same response and the same `Arc`'d trace. The first
//! occurrence keeps its router's counters; each later copy carries zeroed
//! ones, because it decoded nothing — so `queryplane.fanout.*` counts work
//! actually done, and `queryplane.coalesced` counts the copies. Each
//! [`QueryOutcome`] is otherwise what the executor produced — response,
//! trace, router counters. What the same batch *would have cost* on the
//! paper's RPC fabric (each execution's retrieval rounds billed once,
//! host fan-out coalesced per batch, per-shard decode) is computed by whoever
//! wants to print it, by replaying the outcomes through
//! [`model::ModelReplay`] — the model reads what the plane returns and
//! shapes nothing in it.
//!
//! ## Quickstart
//!
//! ```
//! use netsim::prelude::*;
//! use switchpointer::query::QueryRequest;
//! use switchpointer::testbed::{Testbed, TestbedConfig};
//! use queryplane::model::ModelReplay;
//! use queryplane::{QueryPlane, QueryPlaneConfig};
//! use telemetry::EpochRange;
//!
//! let topo = Topology::chain(3, 2, GBPS);
//! let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
//! let (a, f) = (tb.node("A"), tb.node("F"));
//! tb.sim.add_udp_flow(UdpFlowSpec {
//!     src: a, dst: f, priority: Priority::LOW,
//!     start: SimTime::ZERO, duration: SimTime::from_ms(2),
//!     rate_bps: 100_000_000, payload_bytes: 1458,
//! });
//! tb.sim.run_until(SimTime::from_ms(5));
//!
//! let analyzer = tb.analyzer();
//! let mut plane = QueryPlane::from_analyzer(&analyzer, QueryPlaneConfig::default());
//! let s2 = tb.node("S2");
//! let reqs = vec![
//!     QueryRequest::TopK { switch: s2, k: 10, range: EpochRange { lo: 0, hi: 4 } };
//!     8
//! ];
//! let outcomes = plane.execute_batch(&reqs);
//! assert_eq!(outcomes.len(), 8);
//! // The 8 identical queries ran once; 7 slots got copies.
//! assert_eq!(plane.metrics().counter("queryplane.coalesced").get(), 7);
//! // Analysis, off the serving path: the model bills what the plane
//! // ran, so the first query pays and the 7 repeats are billed zero.
//! let mut model = ModelReplay::new(*analyzer.cost());
//! let costs = model.replay(&outcomes);
//! assert!(costs[0].batched > SimTime::ZERO);
//! assert!(costs[1..].iter().all(|c| c.batched == SimTime::ZERO));
//! ```

use std::sync::Arc;

use obsplane::{Counter, MetricsRegistry};
use switchpointer::hoststore::RECORD_SHARDS;
use switchpointer::query::QueryRequest;
use switchpointer::retention;
use switchpointer::shard::{host_shard_of, ShardFanout};
use switchpointer::Analyzer;

mod driver;
pub mod model;
mod pool;
mod repl;
mod slot;
mod snapshot;

pub use driver::{execute, lock_step, QueryOutcome, SharedCtx, Spans};
pub use pool::{chunk_size, PoolMetrics, WorkerPool};
pub use repl::{DeltaRecord, HostPatch, HostPatchKind, SwitchPatch};
pub use slot::SnapshotSlot;
pub use snapshot::{Snapshot, SnapshotDelta, Unshared};
pub use switchpointer::retention::{RetentionPolicy, SweepReport};

/// A rejected [`QueryPlaneConfig`]: the typed reason construction
/// refused it, surfaced at the service boundary instead of panicking
/// deep inside the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: a plane with no executors can never answer.
    ZeroWorkers,
    /// `shards` is not [`RECORD_SHARDS`]: a host store has that many
    /// record shards and no other count.
    RecordShards(usize),
    /// `directory_shards == 0`: the directory partition needs at least
    /// the single-coordinator layout.
    ZeroDirectoryShards,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be >= 1"),
            ConfigError::RecordShards(n) => write!(
                f,
                "shards (per-host record shards) must be {RECORD_SHARDS}, not {n}"
            ),
            ConfigError::ZeroDirectoryShards => write!(f, "directory_shards must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Service tuning.
#[derive(Debug, Clone, Copy)]
pub struct QueryPlaneConfig {
    /// Worker threads executing queries (1 ⇒ run inline on the caller).
    pub workers: usize,
    /// Flow-record shards per host: always [`RECORD_SHARDS`], the one
    /// count [`QueryPlaneConfig::validate`] accepts.
    pub shards: usize,
    /// Directory shards: analyzer instances the bit→host directory is
    /// hash-partitioned across. 1 = the single-coordinator layout.
    /// Verdicts are identical at any value (property-pinned); only the
    /// per-shard fan-out and the dispatch affinity change.
    pub directory_shards: usize,
    /// Retention policy for [`QueryPlane::sweep_retention`]: a trailing
    /// epoch horizon plus a per-directory-shard flow-record budget. `None`
    /// disables GC — the snapshot accretes state forever (the pre-PR-4
    /// behaviour).
    pub retention: Option<RetentionPolicy>,
}

impl Default for QueryPlaneConfig {
    fn default() -> Self {
        QueryPlaneConfig {
            workers: 4,
            shards: RECORD_SHARDS,
            directory_shards: 1,
            retention: None,
        }
    }
}

impl QueryPlaneConfig {
    /// Rejects degenerate sizings with a typed [`ConfigError`] before any
    /// thread is spawned. [`QueryPlane::try_from_analyzer`]
    /// (and everything layered over it — the stream plane, the wire
    /// front-end) calls this at the boundary.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.shards != RECORD_SHARDS {
            return Err(ConfigError::RecordShards(self.shards));
        }
        if self.directory_shards == 0 {
            return Err(ConfigError::ZeroDirectoryShards);
        }
        Ok(())
    }
}

/// The directory shard a request "belongs" to for dispatch affinity: the
/// stable shard of its primary target node. A pure function of the
/// request, so keyed dispatch stays deterministic. The stream plane uses
/// the same keying to subscribe standing queries per shard.
pub fn home_shard(req: &QueryRequest, n_shards: usize) -> usize {
    let node = match *req {
        QueryRequest::Contention { victim_dst, .. } => victim_dst,
        QueryRequest::RedLights { victim_dst, .. } => victim_dst,
        QueryRequest::Cascade { victim_dst, .. } => victim_dst,
        QueryRequest::LoadImbalance { switch, .. } => switch,
        QueryRequest::TopK { switch, .. } => switch,
        QueryRequest::SilentDrop { dst, .. } => dst,
    };
    host_shard_of(node, n_shards)
}

/// The plane's registry handles, resolved once at construction so a
/// batch bumps counters without any name lookups.
struct QpMetrics {
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    fanout_merges: Arc<Counter>,
    fanout_merged_bits: Arc<Counter>,
    /// Per directory shard.
    fanout_decode_bits: Vec<Arc<Counter>>,
    fanout_host_reads: Vec<Arc<Counter>>,
}

impl QpMetrics {
    fn new(reg: &MetricsRegistry, dir_shards: usize) -> QpMetrics {
        let per_shard = |what: &str| {
            (0..dir_shards)
                .map(|s| reg.counter(&format!("queryplane.fanout.{what}.shard{s}")))
                .collect()
        };
        QpMetrics {
            queries: reg.counter("queryplane.queries"),
            batches: reg.counter("queryplane.batches"),
            fanout_merges: reg.counter("queryplane.fanout.merges"),
            fanout_merged_bits: reg.counter("queryplane.fanout.merged_bits"),
            fanout_decode_bits: per_shard("decode_bits"),
            fanout_host_reads: per_shard("host_reads"),
        }
    }
}

/// The concurrent query service front-end.
pub struct QueryPlane {
    ctx: Arc<SharedCtx>,
    cfg: QueryPlaneConfig,
    /// The epoch-stamped publication slot batches and readers load the
    /// frozen state from. Installs never quiesce the plane — see
    /// [`SnapshotSlot`].
    slot: SnapshotSlot,
    pool: WorkerPool,
    /// Registry-backed counters (service totals + cumulative per-shard
    /// fan-out across every executed query).
    m: QpMetrics,
}

impl QueryPlane {
    /// Builds a plane over a frozen snapshot of `analyzer`'s deployment
    /// state and spawns its persistent worker pool. Queries submitted
    /// later see the state as of this call; re-freeze with
    /// [`QueryPlane::refresh_delta`] after running the simulation
    /// further.
    ///
    /// Panics on a degenerate config (see [`QueryPlaneConfig::validate`]) with the
    /// typed [`ConfigError`] message; use
    /// [`QueryPlane::try_from_analyzer`] to handle it as a value.
    pub fn from_analyzer(analyzer: &Analyzer, cfg: QueryPlaneConfig) -> Self {
        Self::try_from_analyzer(analyzer, cfg)
            .unwrap_or_else(|e| panic!("invalid QueryPlaneConfig: {e}"))
    }

    /// [`QueryPlane::from_analyzer`] with the config validated up front:
    /// a zero worker pool, a record-shard count other than
    /// [`RECORD_SHARDS`] or zero directory shards is rejected
    /// here, as a typed [`ConfigError`], instead of panicking deep in the
    /// pool.
    pub fn try_from_analyzer(
        analyzer: &Analyzer,
        cfg: QueryPlaneConfig,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let dir_shards = cfg.directory_shards;
        let metrics = Arc::new(MetricsRegistry::new());
        let m = QpMetrics::new(&metrics, dir_shards);
        let pool = WorkerPool::with_metrics(cfg.workers, &metrics);
        Ok(QueryPlane {
            ctx: Arc::new(SharedCtx::new(analyzer, dir_shards, metrics)),
            cfg,
            slot: SnapshotSlot::new(Arc::new(Snapshot::capture_with(
                analyzer, cfg.shards, dir_shards,
            ))),
            pool,
            m,
        })
    }

    /// Incrementally re-freezes the deployment state, copying only what
    /// changed since the last freeze (see [`Snapshot::apply_delta`]).
    /// Returns the delta summary (dirty sets, copy-work counters).
    ///
    /// Publication is quiesce-free: the refresh advances a *clone* of the
    /// published snapshot — refcount bumps, every component shared — and
    /// installs it into the epoch-stamped [`SnapshotSlot`] while any
    /// in-flight batch (or remote reader) keeps executing against the
    /// snapshot it loaded. `apply_delta` copies on write only what
    /// changed, so the two snapshots resident while a reader lingers are
    /// one snapshot plus its delta, and the report is always the exact
    /// delta of this refresh.
    pub fn refresh_delta(&mut self, analyzer: &Analyzer) -> SnapshotDelta {
        let mut next = Snapshot::clone(&self.slot.load().0);
        let delta = next.apply_delta(analyzer);
        self.slot.install(Arc::new(next));
        delta
    }

    /// Runs one retention sweep over the *live* deployment behind
    /// `analyzer`, per the configured [`RetentionPolicy`] (`None` in the
    /// config ⇒ no-op returning `None`). `pins[s]` lower-bounds what the
    /// sweep may collect on directory shard `s` — the stream plane passes
    /// the oldest epoch its standing queries can still reach there.
    ///
    /// The sweep mutates live component state only; call
    /// [`QueryPlane::refresh_delta`] afterwards to propagate the
    /// reclamation into the snapshot. Record eviction surfaces there as
    /// the record shards that lost records, and archived-pointer
    /// retirement rides the pointer patches.
    pub fn sweep_retention(
        &mut self,
        analyzer: &Analyzer,
        pins: &[Option<u64>],
    ) -> Option<SweepReport> {
        let policy = self.cfg.retention?;
        Some(retention::sweep(
            analyzer,
            policy,
            self.cfg.directory_shards.max(1),
            pins,
        ))
    }

    /// The currently published frozen state, as an owned handle: later
    /// installs never invalidate it, so a caller can read it for as long
    /// as it likes without blocking a refresh.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.slot.load().0
    }

    /// Service configuration in force.
    pub fn config(&self) -> QueryPlaneConfig {
        self.cfg
    }

    /// The plane's metric registry: every `queryplane.*` counter, the
    /// per-class `queryplane.exec_ns.*` latency histograms the workers
    /// record, and the span tracer. The stream plane shares this
    /// registry; snapshots of it are what a wire scrape ships.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.ctx.metrics
    }

    /// What the plane's executors share: the analyzer's deployment and
    /// the plane's directory partition.
    pub fn ctx(&self) -> &Arc<SharedCtx> {
        &self.ctx
    }

    /// Cumulative per-shard fan-out: decode bits and host reads per
    /// directory shard, plus the cross-shard merge volume (a thin view
    /// assembled from the registry).
    pub fn fanout(&self) -> ShardFanout {
        ShardFanout {
            decode_bits: self.m.fanout_decode_bits.iter().map(|c| c.get()).collect(),
            host_reads: self.m.fanout_host_reads.iter().map(|c| c.get()).collect(),
            merges: self.m.fanout_merges.get(),
            merged_bits: self.m.fanout_merged_bits.get(),
        }
    }

    /// Executes a batch of queries over the worker pool and returns
    /// outcomes in submission order: load the published snapshot and run
    /// the batch driver over one `LocalBackend` per directory shard of it.
    ///
    /// Responses are computed concurrently but are bit-identical to
    /// running each query alone on the sequential analyzer over the same
    /// state. A repeated request is not re-run: its later slots get the
    /// first occurrence's response and (shared) trace with zeroed
    /// counters, and count in `queryplane.coalesced`. The only per-batch
    /// bookkeeping is folding the measured per-shard fan-out into the
    /// registry, once.
    pub fn execute_batch(&mut self, requests: &[QueryRequest]) -> Vec<QueryOutcome> {
        if requests.is_empty() {
            return Vec::new();
        }
        // With a sharded directory, dispatch is keyed by each request's
        // home shard (shard-affine initial placement; idle workers steal);
        // answers are independent of the keying either way. The batch
        // executes against the snapshot published *now* — a refresh
        // landing mid-batch serves later batches, never this one.
        let snapshot = self.slot.load().0;
        let n_dir = self.ctx.dir.n_shards();
        let keys: Option<Vec<usize>> =
            (n_dir > 1).then(|| requests.iter().map(|r| home_shard(r, n_dir)).collect());
        let ctx = Arc::clone(&self.ctx);
        let outcomes = execute(
            &self.pool,
            &self.ctx,
            requests,
            keys.as_deref(),
            chunk_size,
            move |chunk, started| {
                let backends = ctx.dir.local_backends(&*snapshot);
                lock_step(&ctx, &backends, true, Spans::Exec, chunk, started)
            },
        );

        let mut fanout = ShardFanout::new(n_dir);
        for o in &outcomes {
            fanout.absorb(&o.counters.fanout);
        }
        self.m.queries.add(requests.len() as u64);
        self.m.batches.inc();
        self.m.fanout_merges.add(fanout.merges);
        self.m.fanout_merged_bits.add(fanout.merged_bits);
        for (s, (&bits, &reads)) in fanout
            .decode_bits
            .iter()
            .zip(&fanout.host_reads)
            .enumerate()
        {
            self.m.fanout_decode_bits[s].add(bits);
            self.m.fanout_host_reads[s].add(reads);
        }
        outcomes
    }
}
