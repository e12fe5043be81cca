//! Bytes are the contract: the two replication frames — the ones whose
//! payload is built from the most value codecs (`FlowRecord`,
//! `TriggerEvent`, `ShardedHostStore`, `PointerPatch`, `BitSet` words,
//! `PointerHierarchy`) — are pinned against golden images captured before
//! those codecs moved to one `Wire` impl per type. A codec edit that moves
//! a byte fails here with the offset of the first difference; encode→decode
//! identity alone cannot see a symmetric drift.
//!
//! The images live in `tests/golden/*.hex` (32 bytes per line).

use std::collections::BTreeSet;
use std::sync::Arc;

use mphf::Mphf;
use netsim::prelude::*;
use queryplane::{
    DeltaRecord, HostPatch, HostPatchKind, RecordShard, ShardedHostStore, Snapshot, SwitchPatch,
};
use switchpointer::host::TriggerEvent;
use switchpointer::hoststore::FlowRecord;
use switchpointer::pointer::{PointerConfig, PointerHierarchy};
use switchpointer::shard::host_shard_of;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::frame::Enc;
use wireplane::Frame;

fn record(flow: u64, link_vid: Option<u16>) -> FlowRecord {
    FlowRecord {
        flow: FlowId(flow),
        src: NodeId(3),
        dst: NodeId(8),
        protocol: if flow.is_multiple_of(2) {
            Protocol::Tcp
        } else {
            Protocol::Udp
        },
        priority: Priority((flow % 5) as u8),
        bytes: 1_000 * flow + 17,
        packets: flow + 2,
        path: vec![NodeId(0), NodeId(1), NodeId(2)],
        epochs_at: [
            (NodeId(0), BTreeSet::from([flow, flow + 1])),
            (NodeId(2), BTreeSet::from([flow + 1, flow + 2, flow + 9])),
        ]
        .into(),
        bytes_per_epoch: [(flow, 1_458), (flow + 1, 2_916)].into(),
        link_vid,
    }
}

fn trigger(flow: u64) -> TriggerEvent {
    TriggerEvent {
        at: SimTime::from_us(100 + flow),
        flow: FlowId(flow),
        prev_bytes: 90_000 + flow,
        cur_bytes: 7 * flow,
    }
}

/// A patch with rotated slots on every level, a fresh archive tail and a
/// retired prefix — every field of the patch codec carries a non-default
/// value.
fn pointer_patch() -> switchpointer::pointer::PointerPatch {
    let addrs: Vec<u64> = (0..32u64).map(|i| 0x0a00_0000 + i).collect();
    let mphf = Arc::new(Mphf::build(&addrs).unwrap());
    let cfg = PointerConfig {
        n_hosts: 32,
        alpha: 2,
        k: 2,
    };
    let mut h = PointerHierarchy::new(cfg, mphf);
    h.update(addrs[1], 0);
    h.update(addrs[2], 1);
    let base = (h.version(), h.archive_logical_len());
    for e in 2..9u64 {
        h.update(addrs[(e * 5 % 32) as usize], e);
    }
    h.update(0xdead_beef, 8);
    assert!(h.retire_archive_before(4) > 0);
    let patch = h.delta_since(base.0, base.1).expect("changes happened");
    assert!(patch.copied_slots() >= 3);
    patch
}

fn delta_append() -> Frame {
    let record = DeltaRecord {
        epoch_horizon: 41,
        switches: vec![SwitchPatch {
            switch: NodeId(6),
            patch: Arc::new(pointer_patch()),
        }],
        hosts: vec![
            HostPatch {
                host: NodeId(8),
                new_base: (12, 3),
                kind: HostPatchKind::Shards {
                    dirty: vec![
                        (
                            0,
                            Arc::new(RecordShard::from_records(vec![
                                record(4, Some(0x0123)),
                                record(6, None),
                            ])),
                        ),
                        (3, Arc::new(RecordShard::default())),
                    ],
                    triggers: vec![trigger(4)],
                    total: 9,
                },
            },
            HostPatch {
                host: NodeId(9),
                new_base: (2, 5),
                kind: HostPatchKind::TriggersOnly {
                    triggers: vec![trigger(11), trigger(12)],
                },
            },
            HostPatch {
                host: NodeId(10),
                new_base: (u64::MAX, 0),
                kind: HostPatchKind::Full {
                    store: ShardedHostStore::from_records(
                        vec![record(21, Some(7)), record(5, None), record(14, Some(9))],
                        vec![trigger(21)],
                        4,
                    ),
                },
            },
        ],
    };
    Frame::DeltaAppend {
        shard: 2,
        seq: 0x0102_0304_0506,
        record,
        ctx: None,
    }
}

/// Shard 1 of 2's bootstrap view of the chain testbed after 8 ms of
/// cross-traffic: three pointer hierarchies plus the host stores the
/// shard owns.
fn snapshot_install() -> Frame {
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, b) = (tb.node("A"), tb.node("B"));
    let (d, f) = (tb.node("D"), tb.node("F"));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(30),
        rate_bps: 80_000_000,
        payload_bytes: 1458,
    });
    tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
        d,
        b,
        Priority::LOW,
        SimTime::ZERO,
        400_000,
    ));
    let analyzer = tb.analyzer();
    tb.sim.run_until(SimTime::from_ms(8));
    let snap = Snapshot::capture_with(&analyzer, 2, 2);
    let keep: BTreeSet<NodeId> = ["A", "B", "C", "D", "E", "F"]
        .into_iter()
        .map(|n| tb.node(n))
        .filter(|&h| host_shard_of(h, 2) == 1)
        .collect();
    assert!(!keep.is_empty(), "shard 1 must own a host");
    let view = snap.shard_slice(&keep);
    assert!(view.total_records() > 0, "the view must carry flow records");
    let mut e = Enc::new();
    view.wire_enc(&mut e);
    Frame::SnapshotInstall {
        shard: 1,
        seq: 9,
        view: e.into_bytes(),
    }
}

fn assert_golden(name: &str, frame: &Frame, golden_hex: &str) {
    let got = frame.to_frame_bytes().unwrap();
    let want: Vec<u8> = golden_hex
        .split_whitespace()
        .flat_map(|line| {
            (0..line.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("golden file is hex"))
        })
        .collect();
    if let Some(at) = got.iter().zip(&want).position(|(g, w)| g != w) {
        panic!(
            "{name}: byte {at} moved: encoder writes {:#04x}, golden image has {:#04x}",
            got[at], want[at]
        );
    }
    assert_eq!(got.len(), want.len(), "{name}: encoded length moved");

    // And the image decodes to a frame that re-encodes to itself.
    let back = Frame::read(&mut &want[..], telemetry::frame::MAX_FRAME).unwrap();
    assert_eq!(back.to_frame_bytes().unwrap(), want, "{name}: re-encode");
}

#[test]
fn replication_frame_bytes_match_the_golden_images() {
    assert_golden(
        "DeltaAppend",
        &delta_append(),
        include_str!("golden/delta_append.hex"),
    );
    assert_golden(
        "SnapshotInstall",
        &snapshot_install(),
        include_str!("golden/snapshot_install.hex"),
    );
}
