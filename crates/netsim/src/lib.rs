//! # netsim — a deterministic datacenter network simulator
//!
//! This crate is the testbed substitute for the SwitchPointer reproduction
//! (see `DESIGN.md` at the workspace root, §2 for the determinism rules
//! this engine guarantees). It provides:
//!
//! * a single-threaded, deterministic discrete-event engine
//!   ([`engine::Simulator`]) with store-and-forward links, per-port egress queues
//!   and per-node clock offsets;
//! * queue disciplines the paper's experiments toggle between: strict
//!   priority and FIFO tail-drop ([`queue`]);
//! * topology builders for every evaluation fixture: dumbbell, switch
//!   chain, leaf-spine ([`topology`]);
//! * transport models: a NewReno-style TCP ([`tcp`]) and CBR/burst UDP
//!   sources ([`udp`]);
//! * extension hooks ([`apps`]) through which the `switchpointer` crate
//!   installs its switch component (pointer hierarchy + telemetry tagging)
//!   and end-host component (header decoding, flow records, triggers);
//! * measurement recorders and plot-series helpers ([`trace`]).
//!
//! Everything is deterministic: a run is a pure function of the topology,
//! flow specification and seed. There is no wall-clock time, no OS I/O and
//! no threading in the simulation core.
//!
//! ## Quick example
//!
//! ```
//! use netsim::prelude::*;
//!
//! // 2 senders and 2 receivers around a 1 Gbps bottleneck.
//! let topo = Topology::dumbbell(2, 2, GBPS);
//! let mut sim = Simulator::new(topo, SimConfig::default());
//! let a = sim.topo().node_by_name("L0").unwrap();
//! let b = sim.topo().node_by_name("R0").unwrap();
//! let f = sim.add_tcp_flow(TcpFlowSpec::running_until(
//!     a, b, Priority::LOW, SimTime::from_ms(10),
//! ));
//! sim.run_until(SimTime::from_ms(12));
//! assert!(sim.traces.rx_bytes(f) > 500_000); // ~1 Gbps for 10 ms
//! ```

#![forbid(unsafe_code)]

pub mod apps;
pub mod engine;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod routing;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod trace;
pub mod udp;
pub mod workload;

/// Convenient glob-import surface for examples and experiments.
pub mod prelude {
    pub use crate::apps::{AppCtx, EgressInfo, HostApp, SwitchApp};
    pub use crate::engine::{SimConfig, Simulator, TcpFlowSpec};
    pub use crate::packet::{FlowId, NodeId, Packet, Priority, Protocol, VlanTag};
    pub use crate::queue::QueueConfig;
    pub use crate::tcp::TcpConfig;
    pub use crate::time::SimTime;
    pub use crate::topology::{LinkId, Topology, DEFAULT_DELAY, GBPS, TEN_GBPS};
    pub use crate::trace::{interarrival_gaps, ThroughputSeries};
    pub use crate::udp::UdpFlowSpec;
    pub use crate::workload::{FlowSizeDist, WorkloadSpec};
}
