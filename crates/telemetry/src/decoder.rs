//! End-host telemetry decoding (§4.2.1).
//!
//! On packet arrival the destination host extracts the tag stack and
//! produces, per switch on the path, the range of epochs during which that
//! switch may have processed the packet. In commodity mode only the tagging
//! switch's epoch is known exactly; the rest are bounded via
//! `EpochParams::extrapolate`. In INT mode every hop is exact.

use std::rc::Rc;

use netsim::packet::{NodeId, Packet};
use netsim::time::SimTime;

use crate::epoch::{EpochParams, EpochRange, HopDirection};
use crate::pathcodec::{EmbedMode, PathCodec, PathError};
use crate::wire;

/// One reconstructed hop: a switch and the epochs it may have used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopTelemetry {
    pub switch: NodeId,
    pub epochs: EpochRange,
}

/// Fully decoded per-packet telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTelemetry {
    /// Switches in traversal order with their epoch ranges.
    pub hops: Vec<HopTelemetry>,
    /// Index of the tagging switch in `hops` (commodity mode; 0 for INT,
    /// where every hop is exact anyway).
    pub tag_idx: usize,
}

impl DecodedTelemetry {
    /// The switch path without epoch information.
    pub fn path(&self) -> Vec<NodeId> {
        self.hops.iter().map(|h| h.switch).collect()
    }

    /// Epoch range recorded for `switch`, if on the path.
    pub fn epochs_at(&self, switch: NodeId) -> Option<EpochRange> {
        self.hops
            .iter()
            .find(|h| h.switch == switch)
            .map(|h| h.epochs)
    }
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    Path(PathError),
    /// No telemetry tags at all (e.g. a flow that crossed no instrumented
    /// switch).
    NoTelemetry,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Path(e) => write!(f, "path reconstruction failed: {e}"),
            DecodeError::NoTelemetry => write!(f, "packet carries no telemetry"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<PathError> for DecodeError {
    fn from(e: PathError) -> Self {
        DecodeError::Path(e)
    }
}

/// The host-side decoder.
#[derive(Debug, Clone)]
pub struct TelemetryDecoder {
    /// Shared with the switch apps of the same deployment: one set of BFS
    /// trees serves both the tagging policy and the host decode.
    codec: Rc<PathCodec>,
    params: EpochParams,
    mode: EmbedMode,
}

impl TelemetryDecoder {
    /// A decoder over `codec`: an owned codec, or an `Rc` the switch apps
    /// already hold.
    pub fn new(codec: impl Into<Rc<PathCodec>>, params: EpochParams, mode: EmbedMode) -> Self {
        TelemetryDecoder {
            codec: codec.into(),
            params,
            mode,
        }
    }

    /// Decodes a packet's telemetry. `host_local_time` is the receiving
    /// host's clock, used to un-wrap 12-bit epoch VIDs.
    pub fn decode(
        &self,
        pkt: &Packet,
        host_local_time: SimTime,
    ) -> Result<DecodedTelemetry, DecodeError> {
        match self.mode {
            EmbedMode::Commodity => self.decode_commodity(pkt, host_local_time),
            EmbedMode::Int => self.decode_int(pkt, host_local_time),
        }
    }

    fn decode_commodity(
        &self,
        pkt: &Packet,
        host_local_time: SimTime,
    ) -> Result<DecodedTelemetry, DecodeError> {
        let (link_vid, epoch_vid) = wire::read_commodity(pkt).ok_or(DecodeError::NoTelemetry)?;
        let reference = self.params.epoch_of(host_local_time);
        let e_tag = wire::unwrap_epoch(epoch_vid, reference);

        let (path, tag_idx) = self.codec.reconstruct(pkt.src, pkt.dst, link_vid)?;
        let hops = path
            .iter()
            .enumerate()
            .map(|(i, &sw)| {
                let (j, dir) = if i < tag_idx {
                    ((tag_idx - i) as u64, HopDirection::Upstream)
                } else {
                    ((i - tag_idx) as u64, HopDirection::Downstream)
                };
                HopTelemetry {
                    switch: sw,
                    epochs: self.params.extrapolate(e_tag, j, dir),
                }
            })
            .collect();
        Ok(DecodedTelemetry { hops, tag_idx })
    }

    fn decode_int(
        &self,
        pkt: &Packet,
        host_local_time: SimTime,
    ) -> Result<DecodedTelemetry, DecodeError> {
        let raw = wire::read_int_hops(pkt);
        if raw.is_empty() {
            return Err(DecodeError::NoTelemetry);
        }
        let reference = self.params.epoch_of(host_local_time);
        let hops = raw
            .into_iter()
            .map(|(sw_vid, e_vid)| HopTelemetry {
                switch: NodeId(sw_vid as u32),
                epochs: EpochRange::exact(wire::unwrap_epoch(e_vid, reference)),
            })
            .collect();
        Ok(DecodedTelemetry { hops, tag_idx: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::{FlowId, Priority, Protocol};
    use netsim::topology::{Topology, GBPS};

    fn pkt(src: NodeId, dst: NodeId) -> Packet {
        Packet {
            id: 0,
            flow: FlowId(0),
            src,
            dst,
            protocol: Protocol::Udp,
            priority: Priority::LOW,
            payload: 100,
            tcp: None,
            tags: Vec::new(),
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn commodity_decode_chain() {
        let topo = Topology::chain(3, 2, GBPS);
        let codec = PathCodec::new(topo.clone());
        let params = EpochParams::paper_defaults();
        let dec = TelemetryDecoder::new(codec, params, EmbedMode::Commodity);

        let a = topo.node_by_name("A").unwrap();
        let f = topo.node_by_name("F").unwrap();
        let s1 = topo.node_by_name("S1").unwrap();
        let s2 = topo.node_by_name("S2").unwrap();
        let s3 = topo.node_by_name("S3").unwrap();
        let link = topo
            .ports(s1)
            .iter()
            .find(|&&(_, p)| p == s2)
            .map(|&(l, _)| l)
            .unwrap();

        let mut p = pkt(a, f);
        let true_epoch = 42u64;
        wire::embed_commodity(&mut p, link.0, true_epoch);

        // Host clock reads epoch ~42 as well.
        let d = dec.decode(&p, SimTime::from_ms(425)).unwrap();
        assert_eq!(d.path(), vec![s1, s2, s3]);
        assert_eq!(d.tag_idx, 0);
        // Tagging switch exact.
        assert_eq!(d.epochs_at(s1).unwrap(), EpochRange::exact(42));
        // Downstream ranges widen with hop distance.
        let r2 = d.epochs_at(s2).unwrap();
        let r3 = d.epochs_at(s3).unwrap();
        assert!(r2.contains(42) && r3.contains(42));
        assert!(r3.len() > r2.len());
    }

    #[test]
    fn commodity_decode_leaf_spine_has_upstream() {
        let topo = Topology::leaf_spine(2, 2, 2, GBPS);
        let codec = PathCodec::new(topo.clone());
        let dec = TelemetryDecoder::new(codec, EpochParams::paper_defaults(), EmbedMode::Commodity);
        let src = topo.node_by_name("h0_0").unwrap();
        let dst = topo.node_by_name("h1_0").unwrap();
        let spine0 = topo.node_by_name("spine0").unwrap();
        let leaf0 = topo.node_by_name("leaf0").unwrap();
        let leaf1 = topo.node_by_name("leaf1").unwrap();
        let link = topo
            .ports(spine0)
            .iter()
            .find(|&&(_, p)| p == leaf1)
            .map(|&(l, _)| l)
            .unwrap();

        let mut p = pkt(src, dst);
        wire::embed_commodity(&mut p, link.0, 100);
        let d = dec.decode(&p, SimTime::from_ms(1_000)).unwrap();
        assert_eq!(d.path(), vec![leaf0, spine0, leaf1]);
        assert_eq!(d.tag_idx, 1);
        // Upstream leaf range is the paper's [e−3, e+1].
        assert_eq!(d.epochs_at(leaf0).unwrap(), EpochRange { lo: 97, hi: 101 });
        // Downstream leaf range is [e−1, e+3].
        assert_eq!(d.epochs_at(leaf1).unwrap(), EpochRange { lo: 99, hi: 103 });
        assert_eq!(d.epochs_at(spine0).unwrap(), EpochRange::exact(100));
    }

    #[test]
    fn epoch_unwrap_with_wrapped_vid() {
        let topo = Topology::chain(2, 1, GBPS);
        let codec = PathCodec::new(topo.clone());
        let params = EpochParams::paper_defaults();
        let dec = TelemetryDecoder::new(codec, params, EmbedMode::Commodity);
        let a = topo.node_by_name("A").unwrap();
        let b = topo.node_by_name("B").unwrap();
        let s1 = topo.node_by_name("S1").unwrap();
        let s2 = topo.node_by_name("S2").unwrap();
        let link = topo
            .ports(s1)
            .iter()
            .find(|&&(_, p)| p == s2)
            .map(|&(l, _)| l)
            .unwrap();

        // True epoch 5000 wraps to VID 5000-4096=904.
        let mut p = pkt(a, b);
        wire::embed_commodity(&mut p, link.0, 5000);
        // Host local time near epoch 5001 (50.01 s at α=10ms).
        let d = dec.decode(&p, SimTime::from_ms(50_010)).unwrap();
        assert_eq!(d.epochs_at(s1).unwrap(), EpochRange::exact(5000));
    }

    #[test]
    fn int_decode_every_hop_exact() {
        let topo = Topology::chain(3, 2, GBPS);
        let codec = PathCodec::new(topo.clone());
        let dec = TelemetryDecoder::new(codec, EpochParams::paper_defaults(), EmbedMode::Int);
        let a = topo.node_by_name("A").unwrap();
        let f = topo.node_by_name("F").unwrap();
        let s1 = topo.node_by_name("S1").unwrap();
        let s2 = topo.node_by_name("S2").unwrap();
        let s3 = topo.node_by_name("S3").unwrap();

        let mut p = pkt(a, f);
        wire::embed_int_hop(&mut p, s1.0, 10);
        wire::embed_int_hop(&mut p, s2.0, 10);
        wire::embed_int_hop(&mut p, s3.0, 11);
        let d = dec.decode(&p, SimTime::from_ms(105)).unwrap();
        assert_eq!(d.path(), vec![s1, s2, s3]);
        assert_eq!(d.epochs_at(s1).unwrap(), EpochRange::exact(10));
        assert_eq!(d.epochs_at(s3).unwrap(), EpochRange::exact(11));
    }

    #[test]
    fn untagged_packet_is_no_telemetry() {
        let topo = Topology::chain(2, 1, GBPS);
        let codec = PathCodec::new(topo.clone());
        let dec = TelemetryDecoder::new(
            codec.clone(),
            EpochParams::paper_defaults(),
            EmbedMode::Commodity,
        );
        let a = topo.node_by_name("A").unwrap();
        let b = topo.node_by_name("B").unwrap();
        let p = pkt(a, b);
        assert_eq!(dec.decode(&p, SimTime::ZERO), Err(DecodeError::NoTelemetry));
        let dec_int = TelemetryDecoder::new(codec, EpochParams::paper_defaults(), EmbedMode::Int);
        assert_eq!(
            dec_int.decode(&p, SimTime::ZERO),
            Err(DecodeError::NoTelemetry)
        );
    }
}
