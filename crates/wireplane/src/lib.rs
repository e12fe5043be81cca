//! # wireplane — the loopback RPC transport for the sharded planes
//!
//! Everything so far serves queries *in process*: the query plane's
//! batching, pointer caching and directory sharding wins are all
//! accounted through [`CostModel`](switchpointer::cost::CostModel)
//! terms. This crate puts the same architecture behind a **real wire**:
//! a std-only, length-prefix-framed binary RPC protocol over loopback
//! TCP (see [`telemetry::frame`] for the framing and `DESIGN.md` §13 for
//! the frame layout and RPC table). Three roles:
//!
//! * **[`ShardServer`]** — owns one
//!   [`DirectoryShard`](switchpointer::shard::DirectoryShard) plus its
//!   per-shard snapshot slice ([`queryplane::Snapshot::shard_slice`]) and
//!   answers decode / host-read / fan-out RPCs. Leader/followers per
//!   connection behind a bounded accept pool — the thread that decodes
//!   a multiplexed request passes the read half on and answers the
//!   request itself — graceful shutdown.
//! * **[`FrontEnd`]** — embeds the core
//!   [`BackendRouter`](switchpointer::shard::BackendRouter) over
//!   [`RemoteShard`] connections: pointer unions reassemble from masked
//!   per-shard slices, host reads route to the owner, and a whole query
//!   wave coalesces into **one request frame per shard** — the
//!   batched-RPC term the cost model prices, made measurable
//!   ([`FrontEnd::counters`]). A fan-out's frames are issued to every
//!   shard before the first reply is collected, so its round trips
//!   overlap. Serves clients: blocking queries plus
//!   standing-query subscriptions whose incidents push as windows close.
//! * **[`WireClient`]** — the blocking client library: `query()`,
//!   `subscribe()`, `next_incident()`/`drain_window()` streaming, and
//!   cursor-based resumption after a dropped connection.
//!
//! The repo invariant survives the wire: verdicts served through N
//! wire-connected shard servers are **bit-identical** to the in-process
//! [`ShardedAnalyzer`](switchpointer::shard::ShardedAnalyzer) at any
//! shard count, and a standing query's wire incident stream equals the
//! in-process [`StreamPlane`](streamplane::StreamPlane)'s — both
//! property-pinned at 1/2/4/8 shards in `tests/wireplane_props.rs`.
//!
//! Every listener binds `127.0.0.1:0` and plumbs the kernel-chosen port
//! back to callers, so nothing here ever flakes on a busy port.
//!
//! ## Quickstart
//!
//! ```
//! use netsim::prelude::*;
//! use switchpointer::query::QueryRequest;
//! use switchpointer::testbed::{Testbed, TestbedConfig};
//! use telemetry::EpochRange;
//! use wireplane::{WireCluster, WireConfig};
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
//! let analyzer = tb.analyzer();
//!
//! // Two shard servers + front-end, all on ephemeral loopback ports.
//! let cluster = WireCluster::launch(&analyzer, 2, WireConfig::default()).unwrap();
//! let mut client = cluster.client().unwrap();
//! let req = QueryRequest::TopK {
//!     switch: tb.node("S2"), k: 10, range: EpochRange { lo: 0, hi: 4 },
//! };
//! let wire = client.query(&req).unwrap();
//! // Bit-identical to the in-process analyzer.
//! assert_eq!(format!("{:?}", wire), format!("{:?}", analyzer.execute(&req)));
//! cluster.shutdown();
//! ```

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

use netsim::packet::NodeId;
use netsim::routing::RouteTable;
use queryplane::{QueryPlaneConfig, SharedCtx, Snapshot, SnapshotDelta};
use switchpointer::shard::ShardedDirectory;
use switchpointer::Analyzer;
use telemetry::frame::{Enc, WireError};

pub mod client;
pub mod frontend;
pub mod mux;
pub mod proto;
pub mod repl;
pub mod retry;
pub mod server;
pub mod traces;

pub use client::{WireClient, WireEvent};
pub use frontend::{FrontEnd, RemoteShard};
pub use mux::MuxConn;
pub use proto::{Frame, WindowSummary, Wire, WireSpan, FRONT_ROLE};
pub use repl::ReplicaWriter;
pub use retry::RetryPolicy;
pub use server::{ServeDelay, ShardServer, ShardState, WireConfig};
pub use telemetry::frame::WireError as Error;
pub use traces::{assemble, dump_spans, TraceTree};

/// Flow-record shards per host inside each server's snapshot slice (the
/// same default the query plane uses).
const HOST_SHARDS: usize = 8;

/// Dials `addr` and consumes the server's greeting: the connected stream
/// (`TCP_NODELAY` set) plus the greeting's `(shard, n_shards)`, for the
/// caller to check it reached the role it meant to. Every failure names
/// `addr`, so an error that bubbles through retry rotation still says
/// which peer refused.
pub(crate) fn dial(addr: SocketAddr, max_frame: u32) -> Result<(TcpStream, u16, u16), WireError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| WireError::from(e).with_peer(addr))?;
    stream.set_nodelay(true).ok();
    let greeting = Frame::read(&mut stream, max_frame).map_err(|e| match e.with_peer(addr) {
        e @ WireError::Io { .. } => e,
        e => WireError::Remote(format!("undecodable greeting from {addr}: {e}")),
    })?;
    match greeting {
        Frame::Hello { shard, n_shards } => Ok((stream, shard, n_shards)),
        Frame::Error(e) => Err(WireError::Remote(format!(
            "{addr} refused the connection: {e}"
        ))),
        other => Err(WireError::Remote(format!(
            "expected a greeting from {addr}, got frame {:#04x}",
            other.tag()
        ))),
    }
}

/// The cluster's owner-side replication state: the authoritative
/// snapshot the deltas are journaled against, and per shard the host set
/// its slice keeps, one seq counter and one [`ReplicaWriter`].
struct Owner {
    snapshot: Snapshot,
    keeps: Vec<BTreeSet<NodeId>>,
    seqs: Vec<u64>,
    writers: Vec<ReplicaWriter>,
}

/// A whole loopback deployment: N shard servers plus the front-end,
/// launched from one analyzer's state. The harness-side handle the
/// tests, example and experiment drive.
pub struct WireCluster {
    servers: Vec<ShardServer>,
    front: FrontEnd,
    ctx: Arc<SharedCtx>,
    cfg: WireConfig,
    owner: Mutex<Owner>,
}

impl WireCluster {
    /// Captures the analyzer's state, slices it across `n_shards` shard
    /// servers (each bound to `127.0.0.1:0`), and connects a front-end
    /// over them.
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
        let mut servers = Vec::with_capacity(n_shards);
        let mut addrs = Vec::with_capacity(n_shards);
        // Each server gets one accept slot beyond the configured budget:
        // the owner's replication writer is infrastructure, and must not
        // consume the client/front-end connection budget.
        let server_cfg = WireConfig {
            max_conns: cfg.max_conns + 1,
            ..cfg
        };
        let keeps: Vec<BTreeSet<NodeId>> = dir
            .shards()
            .iter()
            .map(|shard| shard.hosts().iter().copied().collect())
            .collect();
        for (shard, keep) in dir.shards().iter().zip(&keeps) {
            let state = ShardState {
                shard: shard.clone(),
                view: snapshot.shard_slice(keep),
            };
            let server = ShardServer::spawn(state, n_shards, server_cfg)?;
            addrs.push(server.local_addr());
            servers.push(server);
        }
        // The front-end's own registry: per-class execution latency for
        // queries it serves, RTT/encode/decode for the frames it moves.
        let ctx = Arc::new(SharedCtx::new(
            analyzer.topo().clone(),
            RouteTable::build(analyzer.topo()),
            analyzer.params(),
            analyzer.directory().clone(),
            dir,
            *analyzer.cost(),
            Arc::new(obsplane::MetricsRegistry::new()),
        ));
        let front = FrontEnd::connect_with(Arc::clone(&ctx), &addrs, cfg, coalesce)?;
        // The owner side of the replication log: one writer + seq
        // counter per shard, journaling deltas against `snapshot`.
        let writers = addrs
            .iter()
            .enumerate()
            .map(|(s, &a)| ReplicaWriter::connect(s, a, cfg.max_frame, RetryPolicy::default()))
            .collect::<Result<Vec<_>, _>>()?;
        let owner = Mutex::new(Owner {
            snapshot,
            keeps,
            seqs: vec![0; n_shards],
            writers,
        });
        Ok(WireCluster {
            servers,
            front,
            ctx,
            cfg,
            owner,
        })
    }

    /// Advances the cluster to the analyzer's current state **in-band**:
    /// journals one delta against the owner snapshot, slices it per
    /// shard, and appends each slice to that shard's replication log as
    /// a sequenced [`Frame::DeltaAppend`]. A replica that refuses with a
    /// [`WireError::SeqGap`] (or whose transport stays down past the
    /// retry budget) is re-bootstrapped with a full
    /// [`Frame::SnapshotInstall`] at the current seq. Call between
    /// windows, then [`WireCluster::close_window`].
    pub fn refresh(&self, analyzer: &Analyzer) -> SnapshotDelta {
        let tracer = self.ctx.metrics.tracer();
        let mut guard = self.owner.lock().unwrap();
        let owner = &mut *guard;
        let (delta, record) = owner.snapshot.apply_delta_journaled(analyzer);
        for (i, keep) in owner.keeps.iter().enumerate() {
            owner.seqs[i] += 1;
            let seq = owner.seqs[i];
            let sliced = record.slice_for(keep);
            // Each per-shard append is its own trace: the replica's
            // apply-stage span links back to this replicate-stage root.
            let ctx = tracer.mint_trace();
            let started = std::time::Instant::now();
            let appended = owner.writers[i].append_traced(seq, sliced, ctx);
            if let Some(c) = ctx {
                tracer.submit(
                    obsplane::SpanEvent {
                        class: "DeltaAppend",
                        stage: "replicate",
                        epoch: seq,
                        shard: i as u32,
                        start_ns: tracer.offset_ns(started),
                        dur_ns: started.elapsed().as_nanos() as u64,
                        trace_id: c.trace_id,
                        span_id: c.span_id,
                        parent_id: 0,
                        steals: 0,
                    },
                    c.sampled,
                );
            }
            if appended.is_err() {
                // Gap or dead transport: fall back to a full bootstrap
                // at the owner's log position.
                let mut e = Enc::new();
                owner.snapshot.shard_slice(keep).wire_enc(&mut e);
                let _ = owner.writers[i].install(seq, e.into_bytes());
            }
        }
        delta
    }

    /// Per-shard applied replication seqs, in shard order — the
    /// server-side log positions (equal to the owner's counters whenever
    /// every append was acked).
    pub fn applied_seqs(&self) -> Vec<u64> {
        self.servers.iter().map(|s| s.applied_seq()).collect()
    }

    /// The client-facing front-end address (ephemeral loopback port).
    pub fn front_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The per-shard server addresses, in shard order.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.local_addr()).collect()
    }

    /// Connects a fresh client to the front-end.
    pub fn client(&self) -> Result<WireClient, WireError> {
        WireClient::connect(self.front.local_addr(), self.cfg.max_frame)
    }

    /// The front-end handle (counters, window closing, failure hooks).
    pub fn front(&self) -> &FrontEnd {
        &self.front
    }

    /// Shard server `i` itself (test hooks: serve delays, applied seqs).
    pub fn server(&self, i: usize) -> &ShardServer {
        &self.servers[i]
    }

    /// Shard server `i`'s obsplane registry — the server-side ground
    /// truth a wire scrape of `"shard{i}"` must match exactly.
    pub fn server_metrics(&self, i: usize) -> &Arc<obsplane::MetricsRegistry> {
        self.servers[i].metrics()
    }

    /// The front-end's registry (per-class exec latency + per-shard RTT).
    pub fn front_metrics(&self) -> &Arc<obsplane::MetricsRegistry> {
        &self.ctx.metrics
    }

    /// Closes one evaluation window on the front-end (evaluate
    /// subscriptions, push incidents). See [`FrontEnd::close_window`].
    pub fn close_window(&self) -> WindowSummary {
        self.front.close_window()
    }

    /// Graceful shutdown: front-end first, then every shard server.
    pub fn shutdown(self) {
        let WireCluster { servers, front, .. } = self;
        front.shutdown();
        for s in servers {
            s.shutdown();
        }
    }
}
