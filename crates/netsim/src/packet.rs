//! Packets, flows, priorities and the in-header telemetry tag stack.
//!
//! The simulator models packets at the granularity SwitchPointer needs:
//! 5-tuple-equivalent flow identity, DSCP-style priority, payload size, TCP
//! sequence metadata, and an 802.1ad-style stack of VLAN tags into which
//! switches push telemetry (§4.1.3 of the paper). Tag *semantics* live in
//! the `telemetry` crate; this module only provides the wire representation.

use crate::time::SimTime;

/// Identifies a node (host or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The IPv4-like address used as the MPHF key for this node
    /// (10.0.0.0/8 + node index, widened to u64).
    #[inline]
    pub fn addr(self) -> u64 {
        0x0a00_0000 + self.0 as u64
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a unidirectional flow (the paper's 5-tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// DSCP-style strict priority class. Higher numeric value = served first,
/// matching the paper's green > blue > red ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// Lowest class (the paper's red flows).
    pub const LOW: Priority = Priority(0);
    /// Middle class (blue).
    pub const MID: Priority = Priority(1);
    /// Highest class (green).
    pub const HIGH: Priority = Priority(2);
    /// Number of classes a strict-priority queue must provision by default.
    pub(crate) const CLASSES: usize = 3;
}

/// Transport protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    Tcp,
    Udp,
}

/// TCP-specific header fields carried by data and ACK segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// First payload byte's sequence number (byte offset in the stream).
    pub seq: u64,
    /// Cumulative acknowledgment: next byte expected by the receiver.
    pub ack: u64,
    /// True for pure ACK segments flowing receiver -> sender.
    pub is_ack: bool,
    /// ECN: on data segments, the CE mark set by a congested queue; on
    /// ACKs, the receiver's ECN-echo of the acknowledged segment's mark.
    pub ce: bool,
}

/// One 802.1ad tag pushed by a switch. `tpid` distinguishes the link-ID tag
/// from the epoch-ID tag (see `telemetry::wire`); `vid` carries 12 bits of
/// payload exactly like a real VLAN identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlanTag {
    pub tpid: u16,
    pub vid: u16,
}

/// Bytes a single VLAN tag adds to the wire size of a frame.
pub(crate) const VLAN_TAG_BYTES: u64 = 4;

/// Ethernet + IP + transport header bytes modelled per packet (Ethernet 18
/// incl. FCS, IPv4 20, TCP 20 / UDP 8 — we charge the TCP figure uniformly
/// to keep accounting simple; the 12-byte difference is irrelevant at the
/// timescales the experiments measure).
pub(crate) const BASE_HEADER_BYTES: u64 = 58;

/// Preamble + inter-frame gap charged on the wire per Ethernet frame.
pub(crate) const WIRE_OVERHEAD_BYTES: u64 = 20;

/// A simulated packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Globally unique packet id (assigned by the simulator).
    pub id: u64,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host. This is the field switches feed to the MPHF when
    /// updating pointers.
    pub dst: NodeId,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Strict-priority class.
    pub priority: Priority,
    /// Application payload bytes carried.
    pub payload: u32,
    /// TCP header, when `protocol == Tcp`.
    pub tcp: Option<TcpHeader>,
    /// Telemetry tag stack (innermost pushed first).
    pub tags: Vec<VlanTag>,
    /// Time the packet left its source NIC queue (for end-to-end latency).
    pub sent_at: SimTime,
}

impl Packet {
    /// Frame size as charged against queue buffers: headers + payload + tags.
    #[inline]
    pub fn frame_bytes(&self) -> u64 {
        BASE_HEADER_BYTES + self.payload as u64 + self.tags.len() as u64 * VLAN_TAG_BYTES
    }

    /// Bytes occupied on the wire, including preamble and inter-frame gap.
    /// This is what serialization time is computed from.
    #[inline]
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.frame_bytes() + WIRE_OVERHEAD_BYTES
    }

    /// Pushes a telemetry tag onto the stack (outermost last).
    #[inline]
    pub fn push_tag(&mut self, tag: VlanTag) {
        self.tags.push(tag);
    }

    /// True if this is a TCP segment carrying no payload (a pure ACK).
    #[inline]
    pub fn is_pure_ack(&self) -> bool {
        matches!(self.tcp, Some(h) if h.is_ack) && self.payload == 0
    }
}

/// Static description of a flow registered with the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlowMeta {
    pub(crate) id: FlowId,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) protocol: Protocol,
    pub(crate) priority: Priority,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(payload: u32, ntags: usize) -> Packet {
        Packet {
            id: 0,
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            protocol: Protocol::Udp,
            priority: Priority::LOW,
            payload,
            tcp: None,
            tags: (0..ntags)
                .map(|i| VlanTag {
                    tpid: 0x88a8,
                    vid: i as u16,
                })
                .collect(),
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn size_accounting() {
        let p = pkt(1000, 0);
        assert_eq!(p.frame_bytes(), 1058);
        assert_eq!(p.wire_bytes(), 1078);
        let q = pkt(1000, 2);
        assert_eq!(q.frame_bytes(), 1066);
    }

    #[test]
    fn tag_stack_order() {
        let mut p = pkt(0, 0);
        p.push_tag(VlanTag {
            tpid: 0x88a8,
            vid: 5,
        });
        p.push_tag(VlanTag {
            tpid: 0x8100,
            vid: 9,
        });
        assert_eq!(p.tags[0].vid, 5);
        assert_eq!(p.tags[1].vid, 9);
    }

    #[test]
    fn priority_ordering_matches_paper_colours() {
        assert!(Priority::HIGH > Priority::MID);
        assert!(Priority::MID > Priority::LOW);
    }

    #[test]
    fn node_addr_is_stable_and_distinct() {
        assert_eq!(NodeId(0).addr(), 0x0a00_0000);
        assert_ne!(NodeId(1).addr(), NodeId(2).addr());
    }

    #[test]
    fn pure_ack_detection() {
        let mut p = pkt(0, 0);
        p.protocol = Protocol::Tcp;
        p.tcp = Some(TcpHeader {
            seq: 0,
            ack: 100,
            is_ack: true,
            ce: false,
        });
        assert!(p.is_pure_ack());
        p.payload = 10;
        assert!(!p.is_pure_ack());
    }
}
