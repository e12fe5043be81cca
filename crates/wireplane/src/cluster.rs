//! The loopback deployment harness: every directory shard served by R
//! replicas (R = 1 unless asked otherwise), one front-end connected to
//! the replica sets, and the owner-side [`DeltaPublisher`] feeding every
//! replica in-band.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use netsim::routing::RouteTable;
use obsplane::MetricsRegistry;
use queryplane::{QueryPlaneConfig, SharedCtx, Snapshot, SnapshotDelta};
use switchpointer::shard::ShardedDirectory;
use switchpointer::Analyzer;
use telemetry::frame::WireError;

use crate::publish::DeltaPublisher;
use crate::{
    FrontEnd, ReplicaWriter, RetryPolicy, ServeDelay, ShardServer, ShardState, WindowSummary,
    WireClient, WireConfig,
};

/// Flow-record shards per host inside each server's snapshot slice (the
/// same default the query plane uses).
const HOST_SHARDS: usize = 8;

/// A whole loopback deployment launched from one analyzer's state: N
/// directory shards × R replicas (each an ordinary [`ShardServer`]), one
/// front-end over the replica sets, and the owner-side
/// [`DeltaPublisher`]. Replica 0 of each shard is the primary (the
/// front-end dials it first); the rest are standbys. The harness-side
/// handle the tests, examples and experiments drive.
pub struct WireCluster {
    /// `servers[s][r]` — `None` once killed. Indices stay stable so a
    /// replica keeps its identity across kills.
    servers: Mutex<Vec<Vec<Option<ShardServer>>>>,
    /// Each shard's primary as launched — address and registry — beside
    /// its kill-able slot, so both outlive a kill and can be borrowed.
    primaries: Vec<(SocketAddr, Arc<MetricsRegistry>)>,
    front: FrontEnd,
    ctx: Arc<SharedCtx>,
    cfg: WireConfig,
    publisher: Mutex<DeltaPublisher>,
}

impl WireCluster {
    /// Captures the analyzer's state, slices it across `n_shards` shard
    /// servers (each bound to `127.0.0.1:0`), and connects a front-end
    /// over them. One replica per shard.
    pub fn launch(
        analyzer: &Analyzer,
        n_shards: usize,
        cfg: WireConfig,
    ) -> Result<WireCluster, WireError> {
        Self::launch_with(analyzer, n_shards, cfg, true)
    }

    /// [`WireCluster::launch`] with per-shard wave coalescing
    /// configurable (`coalesce: false` = the naive one-RPC-per-host
    /// counterfactual the `spexp wire` ablation measures against).
    pub fn launch_with(
        analyzer: &Analyzer,
        n_shards: usize,
        cfg: WireConfig,
        coalesce: bool,
    ) -> Result<WireCluster, WireError> {
        Self::launch_sets(analyzer, n_shards, 1, cfg, coalesce)
    }

    /// [`WireCluster::launch`] with `n_replicas` identical replicas per
    /// shard, all consuming the same sequenced appends: a primary kill
    /// fails the front-end over to a standby mid-query.
    pub fn launch_replicated(
        analyzer: &Analyzer,
        n_shards: usize,
        n_replicas: usize,
        cfg: WireConfig,
    ) -> Result<WireCluster, WireError> {
        Self::launch_sets(analyzer, n_shards, n_replicas, cfg, true)
    }

    fn launch_sets(
        analyzer: &Analyzer,
        n_shards: usize,
        n_replicas: usize,
        cfg: WireConfig,
        coalesce: bool,
    ) -> Result<WireCluster, WireError> {
        assert!(n_replicas >= 1, "a shard needs at least one replica");
        // Validated like any plane config: a zero-shard deployment is a
        // config error, not a panic deep in the partition builder.
        QueryPlaneConfig {
            directory_shards: n_shards,
            ..QueryPlaneConfig::default()
        }
        .validate()
        .map_err(|e| WireError::Remote(format!("invalid wire deployment: {e}")))?;
        let dir = ShardedDirectory::new(
            analyzer.directory().mphf().clone(),
            &analyzer.all_hosts(),
            n_shards,
        );
        let snapshot = Snapshot::capture_with(analyzer, HOST_SHARDS, n_shards);

        // R identical replicas per shard, each serving the shard's slice
        // (shared with the owner's snapshot until a refresh replaces
        // what it names), each with one writer from the owner.
        let mut servers = Vec::with_capacity(n_shards);
        let mut primaries = Vec::with_capacity(n_shards);
        let mut addr_sets = Vec::with_capacity(n_shards);
        let mut writers = Vec::with_capacity(n_shards);
        let mut keeps = Vec::with_capacity(n_shards);
        for shard in dir.shards() {
            let shard = Arc::new(shard.clone());
            let keep: BTreeSet<_> = shard.hosts().iter().copied().collect();
            let mut replicas = Vec::with_capacity(n_replicas);
            let mut addrs = Vec::with_capacity(n_replicas);
            let mut wires = Vec::with_capacity(n_replicas);
            for _ in 0..n_replicas {
                let state = ShardState {
                    shard: Arc::clone(&shard),
                    view: snapshot.shard_slice(&keep),
                };
                let (server, writer) = spawn_replica(state, n_shards, cfg)?;
                addrs.push(server.local_addr());
                replicas.push(Some(server));
                wires.push(writer);
            }
            let primary = replicas[0].as_ref().expect("just spawned");
            primaries.push((primary.local_addr(), Arc::clone(primary.metrics())));
            servers.push(replicas);
            addr_sets.push(addrs);
            writers.push(wires);
            keeps.push(keep);
        }

        // The analyzer side's own registry: per-class execution latency
        // for queries the front-end serves, RTT/encode/decode for the
        // frames it moves, and the owner's `repl.*` and replicate-stage
        // spans — owner and front-end are one process, with one tracer
        // minting ids for both.
        let ctx = Arc::new(SharedCtx::new(
            analyzer.topo().clone(),
            RouteTable::build(analyzer.topo()),
            analyzer.params(),
            analyzer.directory().clone(),
            dir,
            *analyzer.cost(),
            Arc::new(MetricsRegistry::new()),
        ));
        // The front-end's shard links re-dial without sleeping: a shard
        // server keeps no per-connection state, so a reconnect is free,
        // the wait would sit on a query's critical path, and with
        // standbys the real back-off is rotating to the next replica.
        let front = FrontEnd::connect_replica_sets(
            Arc::clone(&ctx),
            &addr_sets,
            cfg,
            coalesce,
            RetryPolicy::immediate(2),
        )?;
        let publisher = DeltaPublisher::new(snapshot, keeps, writers, Arc::clone(&ctx.metrics));
        Ok(WireCluster {
            servers: Mutex::new(servers),
            primaries,
            front,
            ctx,
            cfg,
            publisher: Mutex::new(publisher),
        })
    }

    /// Advances the cluster to the analyzer's current state **in-band**:
    /// journals one delta against the owner snapshot and publishes each
    /// shard's slice of it to every replica of that shard as a sequenced
    /// [`Frame::DeltaAppend`](crate::Frame) — see [`DeltaPublisher`] for
    /// what happens to a replica that does not ack. Call between
    /// windows, then [`WireCluster::close_window`].
    pub fn refresh(&self, analyzer: &Analyzer) -> SnapshotDelta {
        self.publisher.lock().unwrap().publish(analyzer)
    }

    /// Kills replica `r` of `shard` (its listener closes, live
    /// connections drop) and retires it from publication. `false` if it
    /// was already dead. Killing the primary (`r == 0`) is the failover
    /// drill: in-flight query waves rotate to the standby.
    pub fn kill_replica(&self, shard: usize, r: usize) -> bool {
        let server = self.servers.lock().unwrap()[shard][r].take();
        match server {
            Some(s) => {
                s.shutdown();
                self.publisher.lock().unwrap().retire_replica(shard, r);
                true
            }
            None => false,
        }
    }

    /// [`WireCluster::kill_replica`] of replica 0.
    pub fn kill_primary(&self, shard: usize) -> bool {
        self.kill_replica(shard, 0)
    }

    /// Spawns a *fresh* standby for `shard` serving the owner's current
    /// slice, snapshot-bootstraps it to the log head, and returns its
    /// replica index. The new replica consumes the sequenced appends
    /// from here on; it joins the front-end's dial set only on the next
    /// deployment (replica sets are fixed at connect time).
    pub fn add_standby(&self, shard: usize) -> Result<usize, WireError> {
        let mut publisher = self.publisher.lock().unwrap();
        let state = ShardState {
            shard: Arc::new(self.ctx.dir.shards()[shard].clone()),
            view: publisher.owner_slice(shard),
        };
        let (server, writer) = spawn_replica(state, self.ctx.dir.n_shards(), self.cfg)?;
        let r = publisher.register_replica(shard, writer);
        let mut servers = self.servers.lock().unwrap();
        debug_assert_eq!(servers[shard].len(), r, "server/replica indices aligned");
        servers[shard].push(Some(server));
        Ok(r)
    }

    /// Test hook: rigs replica `r` of `shard`'s per-request serve delay
    /// ([`ShardServer::set_serve_delay`]); a killed replica ignores it.
    pub fn set_serve_delay(&self, shard: usize, r: usize, delay: Option<ServeDelay>) {
        if let Some(server) = &self.servers.lock().unwrap()[shard][r] {
            server.set_serve_delay(delay);
        }
    }

    /// Per-replica applied seqs: `applied[s][r]`, `None` for killed
    /// replicas — the server-side log positions. Every live entry equals
    /// the owner's head for `s` whenever the last publish fully acked.
    pub fn applied_seqs(&self) -> Vec<Vec<Option<u64>>> {
        self.servers
            .lock()
            .unwrap()
            .iter()
            .map(|reps| {
                reps.iter()
                    .map(|o| o.as_ref().map(|s| s.applied_seq()))
                    .collect()
            })
            .collect()
    }

    /// The owner's per-shard log heads.
    pub fn heads(&self) -> Vec<u64> {
        self.publisher.lock().unwrap().heads()
    }

    /// Replica `r` of `shard`'s currently served state (`None` if
    /// killed). Divergence tests compare these across replicas — and
    /// against [`WireCluster::owner_slice`] — for bit-identity.
    pub fn replica_state(&self, shard: usize, r: usize) -> Option<Arc<ShardState>> {
        self.servers.lock().unwrap()[shard][r]
            .as_ref()
            .map(|s| s.state())
    }

    /// The owner's authoritative slice of `shard`.
    pub fn owner_slice(&self, shard: usize) -> Snapshot {
        self.publisher.lock().unwrap().owner_slice(shard)
    }

    /// The client-facing front-end address (ephemeral loopback port).
    pub fn front_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Each shard's primary address as launched, in shard order.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.primaries.iter().map(|(addr, _)| *addr).collect()
    }

    /// Connects a fresh client to the front-end.
    pub fn client(&self) -> Result<WireClient, WireError> {
        WireClient::connect(self.front.local_addr(), self.cfg.max_frame)
    }

    /// The front-end handle (counters, window closing, failure hooks,
    /// failover/active-replica state).
    pub fn front(&self) -> &FrontEnd {
        &self.front
    }

    /// Shard `i`'s primary's obsplane registry — the server-side ground
    /// truth a wire scrape of `"shard{i}"` must match exactly while that
    /// primary serves.
    pub fn server_metrics(&self, i: usize) -> &Arc<MetricsRegistry> {
        &self.primaries[i].1
    }

    /// The front-end's registry (per-class exec latency, per-shard RTT,
    /// `wire.failover_ns`).
    pub fn front_metrics(&self) -> &Arc<MetricsRegistry> {
        &self.ctx.metrics
    }

    /// The registry the owner publishes into (`repl.*`, replicate-stage
    /// root spans): the analyzer side's one registry, so the same one as
    /// [`WireCluster::front_metrics`], and scraped with it.
    pub fn owner_metrics(&self) -> &Arc<MetricsRegistry> {
        &self.ctx.metrics
    }

    /// Closes one evaluation window on the front-end (evaluate
    /// subscriptions, push incidents). See [`FrontEnd::close_window`].
    pub fn close_window(&self) -> WindowSummary {
        self.front.close_window()
    }

    /// Graceful shutdown: front-end first, then every surviving replica.
    pub fn shutdown(self) {
        let WireCluster { servers, front, .. } = self;
        front.shutdown();
        for reps in servers.into_inner().unwrap() {
            for server in reps.into_iter().flatten() {
                server.shutdown();
            }
        }
    }
}

/// Spawns one replica serving `state` and dials the owner's writer to
/// it. The server gets one accept slot beyond the configured budget: the
/// writer is infrastructure, and must not consume the client/front-end
/// connection budget. The writer keeps the patient default
/// [`RetryPolicy`]: it is off the query path, and what follows its last
/// attempt — a full bootstrap, then being declared dead — is worth a few
/// milliseconds of back-off to avoid.
fn spawn_replica(
    state: ShardState,
    n_shards: usize,
    cfg: WireConfig,
) -> Result<(ShardServer, ReplicaWriter), WireError> {
    let shard = state.shard.id();
    let server = ShardServer::spawn(
        state,
        n_shards,
        WireConfig {
            max_conns: cfg.max_conns + 1,
            ..cfg
        },
    )?;
    let writer = ReplicaWriter::connect(
        shard,
        server.local_addr(),
        cfg.max_frame,
        RetryPolicy::default(),
    )?;
    Ok((server, writer))
}
