//! # telemetry — in-band packet telemetry for SwitchPointer
//!
//! Implements §4.1.3 ("Embedding telemetry data") and §4.2.1 ("Decoding
//! telemetry data") of the SwitchPointer paper:
//!
//! * [`wire`] — the 802.1ad double-tag wire format: a CherryPick link-ID
//!   tag plus an epoch-ID tag on commodity switches, or per-hop
//!   (switchID, epochID) records in the clean-slate INT mode. Epoch IDs
//!   travel truncated to 12 bits and are un-wrapped at the host.
//! * [`pathcodec`] — which switch tags which link per topology family, and
//!   how the destination host reconstructs the full switch path from the
//!   single sampled link.
//! * [`epoch`] — epoch arithmetic and the bounded-asynchrony epoch-range
//!   extrapolation (ε = clock-offset bound, Δ = per-hop delay bound).
//! * [`decoder`] — ties the three together: packet in, per-switch epoch
//!   ranges out.
//!
//! The `switchpointer` crate's switch app calls [`wire::embed_commodity`] /
//! [`wire::embed_int_hop`] guided by [`pathcodec::PathCodec::should_tag`];
//! its host app feeds received packets to [`decoder::TelemetryDecoder`].
//!
//! ## Example: tag at a switch, decode at the host
//!
//! ```
//! use netsim::packet::{FlowId, NodeId, Packet, Priority, Protocol};
//! use netsim::time::SimTime;
//! use netsim::topology::Topology;
//! use telemetry::{wire, EmbedMode, EpochParams, PathCodec, TelemetryDecoder};
//!
//! let topo = Topology::chain(3, 2, netsim::topology::GBPS);
//! let (a, f) = (
//!     topo.node_by_name("A").unwrap(),
//!     topo.node_by_name("F").unwrap(),
//! );
//! let s1 = topo.node_by_name("S1").unwrap();
//! let s2 = topo.node_by_name("S2").unwrap();
//! let codec = PathCodec::new(topo.clone());
//!
//! // A packet traverses S1 (the designated tagger for chain topologies).
//! let mut pkt = Packet {
//!     id: 0, flow: FlowId(1), src: a, dst: f,
//!     protocol: Protocol::Udp, priority: Priority::LOW,
//!     payload: 1458, tcp: None, tags: Vec::new(), sent_at: SimTime::ZERO,
//! };
//! assert!(codec.should_tag(s1, &pkt));
//! let s1_egress_link = topo.ports(s1).iter()
//!     .find(|&&(_, peer)| peer == s2).map(|&(l, _)| l).unwrap();
//! let s1_epoch = 42;
//! wire::embed_commodity(&mut pkt, s1_egress_link.0, s1_epoch);
//!
//! // The destination host reconstructs the path and epoch ranges.
//! let dec = TelemetryDecoder::new(codec, EpochParams::paper_defaults(), EmbedMode::Commodity);
//! let d = dec.decode(&pkt, SimTime::from_ms(425)).unwrap();
//! assert_eq!(d.path().len(), 3); // S1, S2, S3
//! assert_eq!(d.epochs_at(s1).unwrap(), telemetry::EpochRange::exact(42));
//! assert!(d.epochs_at(s2).unwrap().contains(42));
//! ```

pub mod decoder;
pub mod epoch;
pub mod frame;
pub mod pathcodec;
pub mod wire;

pub use decoder::{DecodeError, DecodedTelemetry, HopTelemetry, TelemetryDecoder};
pub use epoch::{EpochParams, EpochRange, HopDirection};
pub use frame::{Dec, Enc, Wire, WireError};
pub use pathcodec::{EmbedMode, PathCodec, PathError};
