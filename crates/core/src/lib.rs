//! # switchpointer — Distributed Network Monitoring and Debugging
//!
//! A from-scratch Rust reproduction of **SwitchPointer** (Tammana, Agarwal
//! & Lee, NSDI 2018). SwitchPointer integrates end-host telemetry
//! collection with in-network visibility by turning switch memory into a
//! *directory service*: instead of storing telemetry, each switch stores
//! per-epoch **pointers** (bit sets over destination end-hosts) organised
//! in a hierarchical data structure, and embeds its identity + epoch into
//! packet headers. When an end-host triggers a spurious event, the analyzer
//! follows the pointers to exactly the hosts holding the relevant headers.
//!
//! ## Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`mod@pointer`] | §4.1.1-4.1.2 | hierarchical pointer structure, line-rate update, flush/recycling, memory & bandwidth accounting |
//! | [`bitset`] | §4.1.2 | the n-bit pointer sets |
//! | [`switch`] | §4.1 | the switch component (runs in the simulator's forwarding pipeline) |
//! | [`host`] | §4.2 | the end-host component: telemetry decoding, flow records, throughput trigger |
//! | [`hoststore`] | §4.2.2, §6 | the flow-record store, its filter/aggregate queries, and flow-id sharding |
//! | [`keyhash`] | — | the one small hasher of the node- and request-keyed maps a query reads |
//! | [`analyzer`] | §4.3, §5 | the analyzer and the four debugging applications |
//! | [`query`] | §4.3, §5 | the per-application query executors behind the `QueryRequest`/`QueryResponse` API, shared by the analyzer and the query plane |
//! | [`shard`] | §4.3 scale-out | the hash-partitioned directory: `DirectoryShard` slices, the `ShardBackend`/`BackendRouter` abstraction routing over local *or* remote shard instances, and the `ShardedAnalyzer` front-end |
//! | [`retention`] | §4.2 "flushed to local storage" | the per-directory-shard GC pass: epoch-horizon + record-budget eviction of flow records, archived-pointer retirement, standing-query pins |
//! | [`cost`] | §5, §6.2 | calibrated RPC latency model (Fig. 7/8/12 shapes) and its batched-RPC terms |
//! | [`pipeline`] | §6.1 | the OVS-style forwarding pipeline of the Fig. 9 benchmark |
//! | [`testbed`] | — | one-call deployment over a simulated topology |
//! | [`scenarios`] | §2, §5 | the scenario catalogue: each traffic scenario's one builder and its planted answer |
//!
//! Substrates live in sibling crates: `netsim` (the simulated datacenter),
//! `telemetry` (header embedding/decoding), `mphf` (minimal perfect
//! hashing), `pathdump` (the end-host-only baseline), `queryplane` (the
//! concurrent, sharded query service over this crate's executors, with
//! incrementally maintainable snapshots), `streamplane` (continuous
//! standing-query monitoring with result caching and an incident log),
//! and `wireplane` (the loopback RPC transport serving both planes to
//! remote clients over this crate's `BackendRouter`).
//!
//! ## Quickstart
//!
//! ```
//! use netsim::prelude::*;
//! use switchpointer::testbed::{Testbed, TestbedConfig};
//!
//! // Two hosts per switch on a 3-switch chain (the paper's Fig. 1 fixture),
//! // SwitchPointer deployed everywhere.
//! let topo = Topology::chain(3, 2, GBPS);
//! let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
//!
//! // A 2 ms UDP flow A -> F.
//! let (a, f) = (tb.node("A"), tb.node("F"));
//! let flow = tb.sim.add_udp_flow(UdpFlowSpec {
//!     src: a, dst: f, priority: Priority::LOW,
//!     start: SimTime::ZERO, duration: SimTime::from_ms(2),
//!     rate_bps: 100_000_000, payload_bytes: 1458,
//! });
//! tb.sim.run_until(SimTime::from_ms(5));
//!
//! // F's host component decoded the path from the packet tags...
//! let rec_path = tb.hosts[&f].borrow().store.record(flow).unwrap().path.clone();
//! assert_eq!(rec_path.len(), 3); // S1, S2, S3
//! // ...and S2's pointer names F as a destination in epoch 0.
//! let s2 = tb.node("S2");
//! assert!(tb.switches[&s2].borrow().pointers.contains(f.addr(), 0));
//! ```
//!
//! ## Concurrent querying
//!
//! For query *streams* — many tenants debugging the same incident window —
//! wrap the analyzer state in the `queryplane` crate's service front-end.
//! Responses stay bit-identical to the sequential analyzer's at any worker
//! count. What the batch would have cost on the paper's RPC fabric
//! (each distinct request run once, same-host fan-outs coalescing into
//! batched RPCs) is an analysis pass over the returned outcomes:
//!
//! ```ignore
//! // (runs as a doctest in the `queryplane` crate, which depends on this one)
//! use queryplane::{QueryPlane, QueryPlaneConfig};
//! use switchpointer::query::QueryRequest;
//!
//! let analyzer = tb.analyzer();
//! let mut plane = QueryPlane::from_analyzer(&analyzer, QueryPlaneConfig::default());
//! let outcomes = plane.execute_batch(&[
//!     QueryRequest::TopK { switch: s2, k: 10, range: window },
//!     QueryRequest::Contention { victim, victim_dst, trigger_window },
//! ]);
//! let mut model = queryplane::model::ModelReplay::new(*analyzer.cost());
//! model.replay(&outcomes);
//! println!("modelled speedup: {:.1}x", model.report().modelled_speedup());
//! ```

#![forbid(unsafe_code)]

pub mod analyzer;
pub mod bitset;
pub mod cost;
pub mod host;
pub mod hoststore;
pub mod keyhash;
pub mod pipeline;
pub mod pointer;
pub mod query;
pub mod retention;
pub mod scenarios;
pub mod shard;
pub mod switch;
pub mod testbed;

pub use analyzer::{
    Analyzer, ContentionDiagnosis, Culprit, Deployment, HostDirectory, LiveView, Verdict,
};
pub use cost::{CostModel, LatencyBreakdown, QueryWaveCost};
pub use host::{
    AlertPayload, HostComponent, HostHandle, SwitchEpochs, TriggerConfig, TriggerEvent,
};
pub use hoststore::{FlowRecord, FlowStore};
pub use pointer::{PointerConfig, PointerHierarchy};
pub use query::{
    ExecutionTrace, PointerRound, QueryExecutor, QueryRequest, QueryResponse, StateView,
};
pub use retention::{RetentionPolicy, SweepReport};
pub use shard::{host_shard_of, DirectoryShard, ShardFanout, ShardedAnalyzer, ShardedDirectory};
pub use switch::SwitchComponent;
pub use testbed::{Testbed, TestbedConfig};
