//! Wire encoding of telemetry into 802.1ad VLAN tags.
//!
//! The paper's commodity-switch design (§4.1.3, Fig. 6) embeds two pieces of
//! telemetry using IEEE 802.1ad double tagging: the CherryPick key-link
//! identifier in one tag and the epoch identifier in a second tag. A VLAN
//! identifier carries 12 bits, so epoch ids travel *truncated modulo 4096*
//! and the receiving host un-wraps them against its own clock (the wrap
//! period at α = 10 ms is ~41 s, vastly larger than any path delay plus
//! clock drift).
//!
//! The clean-slate INT mode (§4.1.3 "solutions such as INT") appends one
//! (switchID, epochID) tag pair per hop instead.
//!
//! These tags are the *in-band* wire format. The out-of-band control-plane
//! framing (the analyzer RPC fabric the `wireplane` crate speaks) extends
//! this module in [`frame`]: length-prefixed binary frames with the same
//! never-panic decoding discipline, re-exported here so both halves of
//! the wire story live under `telemetry::wire`.

pub use crate::frame;

use netsim::packet::{Packet, VlanTag};

/// TPID of the CherryPick link-ID tag (802.1ad S-tag).
pub(crate) const TPID_LINK: u16 = 0x88A8;
/// TPID of the epoch-ID tag (802.1Q C-tag).
pub(crate) const TPID_EPOCH: u16 = 0x8100;
/// TPID of an INT switch-ID tag.
pub(crate) const TPID_INT_SWITCH: u16 = 0x9100;
/// TPID of an INT epoch-ID tag.
pub(crate) const TPID_INT_EPOCH: u16 = 0x9200;

/// Number of distinct values a 12-bit VID can carry.
pub(crate) const VID_SPACE: u64 = 4096;

/// Masks a value into the 12-bit VID space.
#[inline]
pub(crate) fn to_vid(v: u64) -> u16 {
    (v % VID_SPACE) as u16
}

/// True if the packet already carries a commodity link tag (the tagging
/// switch must only tag once per packet).
pub fn has_link_tag(pkt: &Packet) -> bool {
    pkt.tags.iter().any(|t| t.tpid == TPID_LINK)
}

/// Pushes the commodity double tag: (linkID, epochID).
pub fn embed_commodity(pkt: &mut Packet, link_id: u32, epoch: u64) {
    debug_assert!(!has_link_tag(pkt), "double-tagging a tagged packet");
    pkt.push_tag(VlanTag {
        tpid: TPID_LINK,
        vid: to_vid(link_id as u64),
    });
    pkt.push_tag(VlanTag {
        tpid: TPID_EPOCH,
        vid: to_vid(epoch),
    });
}

/// Reads the commodity double tag back, if present: `(link_vid, epoch_vid)`.
pub fn read_commodity(pkt: &Packet) -> Option<(u16, u16)> {
    let link = pkt.tags.iter().find(|t| t.tpid == TPID_LINK)?.vid;
    let epoch = pkt.tags.iter().find(|t| t.tpid == TPID_EPOCH)?.vid;
    Some((link, epoch))
}

/// Appends an INT hop record: (switchID, epochID).
pub fn embed_int_hop(pkt: &mut Packet, switch_id: u32, epoch: u64) {
    pkt.push_tag(VlanTag {
        tpid: TPID_INT_SWITCH,
        vid: to_vid(switch_id as u64),
    });
    pkt.push_tag(VlanTag {
        tpid: TPID_INT_EPOCH,
        vid: to_vid(epoch),
    });
}

/// Reads all INT hop records in traversal order: `(switch_vid, epoch_vid)`.
pub(crate) fn read_int_hops(pkt: &Packet) -> Vec<(u16, u16)> {
    let mut out = Vec::new();
    let mut pending_switch: Option<u16> = None;
    for t in &pkt.tags {
        match t.tpid {
            TPID_INT_SWITCH => pending_switch = Some(t.vid),
            TPID_INT_EPOCH => {
                if let Some(sw) = pending_switch.take() {
                    out.push((sw, t.vid));
                }
            }
            _ => {}
        }
    }
    out
}

/// Reconstructs an absolute epoch from its 12-bit VID given a reference
/// epoch the true value must be near (the host's own current epoch). Picks
/// the value congruent to `vid` (mod 4096) closest to `reference`.
pub(crate) fn unwrap_epoch(vid: u16, reference: u64) -> u64 {
    let vid = vid as u64 % VID_SPACE;
    let base = reference / VID_SPACE * VID_SPACE;
    // Candidates in the wrap windows around the reference.
    let mut best = base + vid;
    let mut best_dist = best.abs_diff(reference);
    for cand in [
        (base + vid).checked_sub(VID_SPACE),
        Some(base + vid + VID_SPACE),
    ]
    .into_iter()
    .flatten()
    {
        let d = cand.abs_diff(reference);
        if d < best_dist {
            best = cand;
            best_dist = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::{FlowId, NodeId, Priority, Protocol};
    use netsim::time::SimTime;

    fn pkt() -> Packet {
        Packet {
            id: 0,
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            protocol: Protocol::Udp,
            priority: Priority::LOW,
            payload: 100,
            tcp: None,
            tags: Vec::new(),
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn commodity_roundtrip() {
        let mut p = pkt();
        assert!(!has_link_tag(&p));
        embed_commodity(&mut p, 37, 1234);
        assert!(has_link_tag(&p));
        assert_eq!(read_commodity(&p), Some((37, 1234)));
        assert_eq!(p.tags.len(), 2);
    }

    #[test]
    fn commodity_epoch_wraps_mod_4096() {
        let mut p = pkt();
        embed_commodity(&mut p, 1, 4096 + 5);
        assert_eq!(read_commodity(&p), Some((1, 5)));
    }

    #[test]
    fn int_hops_accumulate_in_order() {
        let mut p = pkt();
        embed_int_hop(&mut p, 10, 100);
        embed_int_hop(&mut p, 11, 101);
        embed_int_hop(&mut p, 12, 102);
        assert_eq!(read_int_hops(&p), vec![(10, 100), (11, 101), (12, 102)]);
    }

    #[test]
    fn read_commodity_missing_tags() {
        assert_eq!(read_commodity(&pkt()), None);
    }

    #[test]
    fn unwrap_exact_and_nearby() {
        // Reference in the same window.
        assert_eq!(unwrap_epoch(100, 100), 100);
        assert_eq!(unwrap_epoch(100, 105), 100);
        // Reference one window up: 4196 is congruent to 100.
        assert_eq!(unwrap_epoch(100, 4200), 4196);
        // Wrap boundary: vid 4095, reference just past a wrap.
        assert_eq!(unwrap_epoch(4095, 4097), 4095);
        // vid 2, reference just below a wrap.
        assert_eq!(unwrap_epoch(2, 4094), 4098);
    }

    #[test]
    fn unwrap_is_inverse_of_truncation_within_half_window() {
        for true_epoch in (0..20_000u64).step_by(7) {
            for drift in [0i64, -3, 3, -100, 100] {
                let reference = (true_epoch as i64 + drift).max(0) as u64;
                assert_eq!(
                    unwrap_epoch(to_vid(true_epoch), reference),
                    true_epoch,
                    "epoch {true_epoch} drift {drift}"
                );
            }
        }
    }
}
