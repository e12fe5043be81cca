//! # wireplane — the loopback RPC transport for the sharded planes
//!
//! Everything so far serves queries *in process*: the query plane's
//! batching, pointer caching and directory sharding wins are all
//! accounted through [`CostModel`](switchpointer::cost::CostModel)
//! terms. This crate puts the same architecture behind a **real wire**:
//! a std-only, length-prefix-framed binary RPC protocol over loopback
//! TCP (see [`telemetry::frame`] for the framing and `DESIGN.md` §13 for
//! the frame layout and RPC table). Four roles:
//!
//! * **`ShardServer`** — owns one
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
//! * **[`DeltaPublisher`]** — the owner side: state reaches the shard
//!   servers only in-band, as one sequenced [`Frame::DeltaAppend`] per
//!   shard per refresh sent over a [`ReplicaWriter`] to every replica
//!   of the shard; a replica that does not ack is re-bootstrapped with
//!   a [`Frame::SnapshotInstall`], or declared dead (`DESIGN.md` §15).
//!
//! [`WireCluster`] is the one deployment harness over all four: N
//! shards × R replicas (R = 1 unless [`WireCluster::launch_replicated`]
//! asks for standbys), the front-end connected to the replica sets so a
//! primary kill fails over mid-query, and the publisher feeding every
//! replica — replicas apply the same records in the same order, so
//! primary and standby are equal at every applied seq (property-pinned
//! in `tests/replication_props.rs`).
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

use std::net::{SocketAddr, TcpStream};

use telemetry::frame::WireError;

pub mod client;
pub mod cluster;
pub mod frontend;
pub mod mux;
pub mod proto;
pub mod publish;
pub mod repl;
pub mod retry;
pub mod server;
pub mod traces;

pub use client::{WireClient, WireEvent};
pub use cluster::WireCluster;
pub use frontend::{FrontEnd, RemoteShard};
pub use mux::MuxConn;
pub use proto::{Frame, WindowSummary, WireSpan};
pub use publish::DeltaPublisher;
pub use repl::ReplicaWriter;
pub use retry::RetryPolicy;
pub use server::{ServeDelay, ShardState, WireConfig};
pub use telemetry::frame::Wire;
pub use telemetry::frame::WireError as Error;
pub use traces::{assemble, TraceTree};

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
