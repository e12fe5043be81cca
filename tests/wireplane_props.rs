//! The wire layer's contract:
//!
//! (a) **Codec totality.** Every protocol frame type round-trips
//!     encode→decode as the identity; truncated and corrupt frames
//!     surface typed [`WireError`]s instead of panicking (randomized
//!     over frame contents).
//! (b) **Verdict invariance across the wire.** A query served through N
//!     wire-connected shard servers is bit-identical to the in-process
//!     [`ShardedAnalyzer`] at 1/2/4/8 shards — for one-shot queries via
//!     a real client connection, and for a standing-query incident
//!     stream against the in-process [`StreamPlane`].
//! (c) **Failure recovery.** Killing connections mid-stream (client side
//!     and front-end→shard side) loses nothing: the client resubscribes
//!     with its cursor and re-derives the incident log bit-identically,
//!     with zero duplicated and zero dropped transitions.
//! (d) **Boundaries are typed.** Degenerate plane configs are rejected
//!     with [`queryplane::ConfigError`]; a full accept pool refuses with
//!     a typed error frame.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use netsim::prelude::*;
use obsplane::TraceContext;
use proptest::prelude::*;
use proptest::rng_for;
use queryplane::{
    ConfigError, DeltaRecord, HostPatch, HostPatchKind, QueryPlane, QueryPlaneConfig,
};
use streamplane::{Incident, StandingQuery, StreamConfig, StreamPlane, SubscriptionId};
use switchpointer::analyzer::{
    CascadeDiagnosis, CascadeStage, ContentionDiagnosis, Culprit, DropDiagnosis,
    LoadImbalanceDiagnosis, RedLightsDiagnosis, TopKResult, Verdict,
};
use switchpointer::cost::{LatencyBreakdown, QueryWaveCost};
use switchpointer::hoststore::{EpochSet, FlowRecord, RecordShard};
use switchpointer::query::{QueryRequest, QueryResponse};
use switchpointer::scenarios::{self, storm_queries, Scenario};
use switchpointer::shard::ShardedAnalyzer;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::frame::{from_bytes, read_frame, to_bytes, Wire, WireError, MAX_FRAME};
use telemetry::EpochRange;
use wireplane::proto::Frame;
use wireplane::{
    MuxConn, RemoteShard, RetryPolicy, ServeDelay, WireClient, WireCluster, WireConfig, WireEvent,
    WireSpan,
};

// ----------------------------------------------------------------------
// (a) Codec totality
// ----------------------------------------------------------------------

fn gen_epoch_range(rng: &mut TestRng) -> EpochRange {
    let lo = rng.below(64);
    EpochRange {
        lo,
        hi: lo + rng.below(32),
    }
}

fn gen_record(rng: &mut TestRng) -> FlowRecord {
    let mut epochs_at = BTreeMap::new();
    for _ in 0..rng.below(4) {
        let sw = NodeId(rng.below(64) as u32);
        let mut set = EpochSet::default();
        for _ in 0..rng.below(5) {
            set.insert(gen_epoch_range(rng));
        }
        epochs_at.insert(sw, set);
    }
    let mut bytes_per_epoch = BTreeMap::new();
    for _ in 0..rng.below(4) {
        bytes_per_epoch.insert(rng.below(100), rng.next_u64());
    }
    FlowRecord {
        flow: FlowId(rng.next_u64()),
        src: NodeId(rng.below(64) as u32),
        dst: NodeId(rng.below(64) as u32),
        protocol: if rng.below(2) == 0 {
            Protocol::Tcp
        } else {
            Protocol::Udp
        },
        priority: Priority(rng.below(3) as u8),
        bytes: rng.next_u64(),
        packets: rng.below(10_000),
        path: (0..rng.below(5))
            .map(|_| NodeId(rng.below(64) as u32))
            .collect(),
        epochs_at,
        bytes_per_epoch,
        link_vid: if rng.below(2) == 0 {
            None
        } else {
            Some(rng.below(4096) as u16)
        },
    }
}

fn gen_culprit(rng: &mut TestRng) -> Culprit {
    Culprit {
        flow: FlowId(rng.next_u64()),
        src: NodeId(rng.below(64) as u32),
        dst: NodeId(rng.below(64) as u32),
        host: NodeId(rng.below(64) as u32),
        priority: Priority(rng.below(3) as u8),
        bytes: rng.next_u64(),
        common_epochs: (0..rng.below(5)).map(|_| rng.below(100)).collect(),
    }
}

fn gen_wave(rng: &mut TestRng) -> QueryWaveCost {
    QueryWaveCost {
        connection_initiation: SimTime::from_ns(rng.below(1 << 40)),
        request: SimTime::from_ns(rng.below(1 << 40)),
        query_execution: SimTime::from_ns(rng.below(1 << 40)),
        response: SimTime::from_ns(rng.below(1 << 40)),
        base: SimTime::from_ns(rng.below(1 << 40)),
    }
}

fn gen_breakdown(rng: &mut TestRng) -> LatencyBreakdown {
    LatencyBreakdown {
        detection: SimTime::from_ns(rng.below(1 << 40)),
        alert: SimTime::from_ns(rng.below(1 << 40)),
        pointer_retrieval: SimTime::from_ns(rng.below(1 << 40)),
        diagnosis: SimTime::from_ns(rng.below(1 << 40)),
        diagnosis_detail: gen_wave(rng),
    }
}

fn gen_request(rng: &mut TestRng) -> QueryRequest {
    match rng.below(6) {
        0 => QueryRequest::Contention {
            victim: FlowId(rng.next_u64()),
            victim_dst: NodeId(rng.below(64) as u32),
            trigger_window: SimTime::from_ns(rng.below(1 << 40)),
        },
        1 => QueryRequest::RedLights {
            victim: FlowId(rng.next_u64()),
            victim_dst: NodeId(rng.below(64) as u32),
            trigger_window: SimTime::from_ns(rng.below(1 << 40)),
        },
        2 => QueryRequest::Cascade {
            victim: FlowId(rng.next_u64()),
            victim_dst: NodeId(rng.below(64) as u32),
            trigger_window: SimTime::from_ns(rng.below(1 << 40)),
            max_depth: rng.below(6) as usize,
        },
        3 => QueryRequest::LoadImbalance {
            switch: NodeId(rng.below(64) as u32),
            range: gen_epoch_range(rng),
        },
        4 => QueryRequest::TopK {
            switch: NodeId(rng.below(64) as u32),
            k: rng.below(50) as usize,
            range: gen_epoch_range(rng),
        },
        _ => QueryRequest::SilentDrop {
            flow: FlowId(rng.next_u64()),
            src: NodeId(rng.below(64) as u32),
            dst: NodeId(rng.below(64) as u32),
            range: gen_epoch_range(rng),
        },
    }
}

fn gen_response(rng: &mut TestRng) -> QueryResponse {
    match rng.below(6) {
        0 => QueryResponse::Contention(ContentionDiagnosis {
            victim: FlowId(rng.next_u64()),
            switch: NodeId(rng.below(64) as u32),
            epochs: gen_epoch_range(rng),
            culprits: (0..rng.below(4)).map(|_| gen_culprit(rng)).collect(),
            hosts_contacted: rng.below(100) as usize,
            verdict: match rng.below(3) {
                0 => Verdict::PriorityContention,
                1 => Verdict::Microburst,
                _ => Verdict::NoCulprit,
            },
            breakdown: gen_breakdown(rng),
        }),
        1 => QueryResponse::RedLights(RedLightsDiagnosis {
            victim: FlowId(rng.next_u64()),
            per_switch: (0..rng.below(4))
                .map(|_| {
                    (
                        NodeId(rng.below(64) as u32),
                        (0..rng.below(3)).map(|_| gen_culprit(rng)).collect(),
                    )
                })
                .collect(),
            implicated: (0..rng.below(4))
                .map(|_| NodeId(rng.below(64) as u32))
                .collect(),
            hosts_contacted: rng.below(100) as usize,
            breakdown: gen_breakdown(rng),
        }),
        2 => QueryResponse::Cascade(CascadeDiagnosis {
            stages: (0..rng.below(4))
                .map(|_| CascadeStage {
                    victim: FlowId(rng.next_u64()),
                    switch: NodeId(rng.below(64) as u32),
                    culprit: gen_culprit(rng),
                })
                .collect(),
            hosts_contacted: rng.below(100) as usize,
            breakdown: gen_breakdown(rng),
        }),
        3 => QueryResponse::LoadImbalance(LoadImbalanceDiagnosis {
            per_link: (0..rng.below(4))
                .map(|_| {
                    (
                        rng.below(4096) as u16,
                        (0..rng.below(5)).map(|_| rng.next_u64()).collect(),
                    )
                })
                .collect(),
            separation_bytes: if rng.below(2) == 0 {
                None
            } else {
                Some(rng.next_u64())
            },
            hosts_contacted: rng.below(100) as usize,
            breakdown: gen_breakdown(rng),
        }),
        4 => QueryResponse::TopK(TopKResult {
            flows: (0..rng.below(6))
                .map(|_| (FlowId(rng.next_u64()), rng.next_u64()))
                .collect(),
            hosts_contacted: rng.below(100) as usize,
            pointer_retrieval: SimTime::from_ns(rng.below(1 << 40)),
            wave: gen_wave(rng),
        }),
        _ => QueryResponse::SilentDrop(DropDiagnosis {
            flow: FlowId(rng.next_u64()),
            path: (0..rng.below(5))
                .map(|_| NodeId(rng.below(64) as u32))
                .collect(),
            per_switch: (0..rng.below(5))
                .map(|_| (NodeId(rng.below(64) as u32), rng.below(2) == 0))
                .collect(),
            suspected_segment: if rng.below(2) == 0 {
                None
            } else {
                Some((NodeId(rng.below(64) as u32), NodeId(rng.below(64) as u32)))
            },
            pointer_retrieval: SimTime::from_ns(rng.below(1 << 40)),
        }),
    }
}

fn gen_standing(rng: &mut TestRng) -> StandingQuery {
    match rng.below(4) {
        0 => StandingQuery::Fixed(gen_request(rng)),
        1 => StandingQuery::TopKSliding {
            switch: NodeId(rng.below(64) as u32),
            k: rng.below(20) as usize,
            epochs_back: rng.below(32),
        },
        2 => StandingQuery::LoadImbalanceSliding {
            switch: NodeId(rng.below(64) as u32),
            epochs_back: rng.below(32),
        },
        _ => StandingQuery::ContentionWatch {
            victim: FlowId(rng.next_u64()),
            victim_dst: NodeId(rng.below(64) as u32),
            trigger_window: SimTime::from_ns(rng.below(1 << 40)),
        },
    }
}

fn gen_incident(rng: &mut TestRng) -> Incident {
    Incident {
        window: rng.below(100),
        horizon: rng.below(1000),
        sub: SubscriptionId(rng.below(16)),
        kind: if rng.below(2) == 0 {
            streamplane::IncidentKind::Baseline
        } else {
            streamplane::IncidentKind::Transition
        },
        summary: format!("summary-{}", rng.below(1000)),
        fingerprint: rng.next_u64(),
    }
}

fn gen_bitset(rng: &mut TestRng) -> switchpointer::bitset::BitSet {
    let n = 1 + rng.below(200) as usize;
    let mut bits = switchpointer::bitset::BitSet::new(n);
    for _ in 0..rng.below(20) {
        bits.set(rng.below(n as u64) as usize);
    }
    bits
}

/// A randomized histogram snapshot, built through the real recording
/// path so bucket indices are always internally consistent.
fn gen_hist_snapshot(rng: &mut TestRng) -> obsplane::HistogramSnapshot {
    let h = obsplane::Histogram::new();
    for _ in 0..rng.below(50) {
        h.record(rng.below(1 << 40));
    }
    h.snapshot()
}

fn gen_registry_snapshot(rng: &mut TestRng) -> obsplane::RegistrySnapshot {
    let mut snap = obsplane::RegistrySnapshot::default();
    for i in 0..rng.below(4) {
        snap.counters.insert(format!("c{i}"), rng.next_u64());
    }
    for i in 0..rng.below(3) {
        // Exercise negative gauges: i64 travels as its bit pattern.
        snap.gauges
            .insert(format!("g{i}"), rng.next_u64() as i64 >> 8);
    }
    for i in 0..rng.below(3) {
        snap.hists.insert(format!("h{i}"), gen_hist_snapshot(rng));
    }
    snap
}

/// A randomized replication record. Switch patches are omitted — a
/// `PointerPatch` is only constructible by diffing live hierarchies (by
/// design), and the replication tests cover that codec end-to-end — but
/// every host-patch kind is generated.
fn gen_wire_span(rng: &mut TestRng) -> WireSpan {
    WireSpan {
        class: format!("class{}", rng.below(8)),
        stage: ["query", "enqueue", "wire", "serve", "exec", "apply"][rng.below(6) as usize]
            .to_string(),
        epoch: rng.below(10_000),
        shard: rng.below(8) as u32,
        start_ns: rng.next_u64() >> 20,
        dur_ns: rng.next_u64() >> 30,
        trace_id: rng.next_u64(),
        span_id: rng.next_u64(),
        parent_id: rng.next_u64(),
        steals: rng.below(4) as u32,
        exemplar: rng.below(2) == 0,
    }
}

fn gen_trace_ctx(rng: &mut TestRng) -> Option<TraceContext> {
    match rng.below(3) {
        0 => None,
        s => Some(TraceContext {
            trace_id: 1 + rng.next_u64() / 2,
            span_id: rng.next_u64(),
            sampled: s == 1,
        }),
    }
}

fn gen_delta_record(rng: &mut TestRng) -> DeltaRecord {
    let triggers = |rng: &mut TestRng| -> Vec<switchpointer::host::TriggerEvent> {
        (0..rng.below(3))
            .map(|_| switchpointer::host::TriggerEvent {
                at: SimTime::from_ns(rng.below(1 << 40)),
                flow: FlowId(rng.next_u64()),
                prev_bytes: rng.next_u64(),
                cur_bytes: rng.next_u64(),
            })
            .collect()
    };
    let hosts = (0..rng.below(4))
        .map(|_| {
            let kind = match rng.below(2) {
                0 => HostPatchKind::TriggersOnly {
                    triggers: triggers(rng),
                },
                _ => HostPatchKind::Shards {
                    dirty: (0..rng.below(3))
                        .map(|_| {
                            // A shard's records travel in strictly
                            // ascending flow-id order; decode refuses
                            // any other.
                            let mut records: Vec<_> =
                                (0..rng.below(3)).map(|_| gen_record(rng)).collect();
                            records.sort_by_key(|r| r.flow);
                            records.dedup_by_key(|r| r.flow);
                            (rng.below(8), Arc::new(RecordShard::from_records(records)))
                        })
                        .collect(),
                    triggers: triggers(rng),
                    total: rng.below(1000),
                },
            };
            HostPatch {
                host: NodeId(rng.below(64) as u32),
                new_base: (rng.next_u64(), rng.next_u64()),
                kind,
            }
        })
        .collect();
    DeltaRecord {
        epoch_horizon: rng.below(10_000),
        switches: Vec::new(),
        hosts,
    }
}

/// One sample of every frame type in the protocol, contents randomized.
fn gen_frames(rng: &mut TestRng) -> Vec<Frame> {
    let hosts = |rng: &mut TestRng| -> Vec<NodeId> {
        (0..rng.below(6))
            .map(|_| NodeId(rng.below(64) as u32))
            .collect()
    };
    let opt_len = |rng: &mut TestRng| -> Option<u64> {
        if rng.below(4) == 0 {
            None
        } else {
            Some(rng.below(1000))
        }
    };
    vec![
        Frame::Hello {
            shard: rng.below(8) as u16,
            n_shards: 8,
        },
        Frame::UnionSliceReq {
            switch: NodeId(rng.below(64) as u32),
            range: gen_epoch_range(rng),
        },
        Frame::UnionSliceRep(if rng.below(4) == 0 {
            None
        } else {
            Some(gen_bitset(rng))
        }),
        Frame::ProbeExactReq {
            switch: NodeId(rng.below(64) as u32),
            addr: rng.next_u64(),
            epoch: rng.below(1000),
        },
        Frame::ProbeExactRep(match rng.below(3) {
            0 => None,
            1 => Some(None),
            _ => Some(Some(rng.below(2) == 0)),
        }),
        Frame::PresenceWaveReq {
            switches: hosts(rng),
            addr: rng.next_u64(),
            range: gen_epoch_range(rng),
        },
        Frame::PresenceWaveRep((0..rng.below(6)).map(|_| rng.below(2) == 0).collect()),
        Frame::RecordReq {
            host: NodeId(rng.below(64) as u32),
            flow: FlowId(rng.next_u64()),
        },
        Frame::RecordRep(if rng.below(3) == 0 {
            None
        } else {
            Some(gen_record(rng))
        }),
        Frame::TriggerReq {
            host: NodeId(rng.below(64) as u32),
            flow: FlowId(rng.next_u64()),
        },
        Frame::TriggerRep(if rng.below(3) == 0 {
            None
        } else {
            Some(switchpointer::host::TriggerEvent {
                at: SimTime::from_ns(rng.below(1 << 40)),
                flow: FlowId(rng.next_u64()),
                prev_bytes: rng.next_u64(),
                cur_bytes: rng.next_u64(),
            })
        }),
        Frame::FilterWaveReq {
            switch: NodeId(rng.below(64) as u32),
            range: gen_epoch_range(rng),
            hosts: hosts(rng),
        },
        Frame::FilterWaveRep(
            (0..rng.below(4))
                .map(|_| {
                    (
                        opt_len(rng),
                        (0..rng.below(3)).map(|_| gen_record(rng)).collect(),
                    )
                })
                .collect(),
        ),
        Frame::TopKWaveReq {
            switch: NodeId(rng.below(64) as u32),
            k: rng.below(50),
            hosts: hosts(rng),
        },
        Frame::TopKWaveRep(
            (0..rng.below(4))
                .map(|_| {
                    (
                        opt_len(rng),
                        (0..rng.below(4))
                            .map(|_| (FlowId(rng.next_u64()), rng.next_u64()))
                            .collect(),
                    )
                })
                .collect(),
        ),
        Frame::SizesWaveReq {
            switch: NodeId(rng.below(64) as u32),
            hosts: hosts(rng),
        },
        Frame::SizesWaveRep(
            (0..rng.below(4))
                .map(|_| {
                    (
                        opt_len(rng),
                        (0..rng.below(4))
                            .map(|_| (rng.below(4096) as u16, rng.next_u64()))
                            .collect(),
                    )
                })
                .collect(),
        ),
        Frame::UnionTopKReq {
            switch: NodeId(rng.below(64) as u32),
            range: gen_epoch_range(rng),
            k: rng.below(50),
        },
        Frame::UnionTopKRep((rng.below(4) != 0).then(|| {
            (0..rng.below(4))
                .map(|_| {
                    (
                        NodeId(rng.below(64) as u32),
                        opt_len(rng),
                        (0..rng.below(4))
                            .map(|_| (FlowId(rng.next_u64()), rng.next_u64()))
                            .collect(),
                    )
                })
                .collect()
        })),
        Frame::UnionSizesReq {
            switch: NodeId(rng.below(64) as u32),
            range: gen_epoch_range(rng),
        },
        Frame::UnionSizesRep((rng.below(4) != 0).then(|| {
            (0..rng.below(4))
                .map(|_| {
                    (
                        NodeId(rng.below(64) as u32),
                        opt_len(rng),
                        (0..rng.below(4))
                            .map(|_| (rng.below(4096) as u16, rng.next_u64()))
                            .collect(),
                    )
                })
                .collect()
        })),
        Frame::HorizonReq,
        Frame::HorizonRep(rng.below(10_000)),
        Frame::StatsScrapeReq,
        Frame::StatsScrapeRep(
            (0..1 + rng.below(3))
                .map(|i| (format!("shard{i}"), gen_registry_snapshot(rng)))
                .collect(),
        ),
        Frame::QueryReq(gen_request(rng)),
        Frame::QueryRep(gen_response(rng)),
        Frame::SubscribeReq {
            query: gen_standing(rng),
            resume_after: rng.below(100),
        },
        Frame::SubscribeRep {
            sub: SubscriptionId(rng.below(16)),
            available: rng.below(100),
        },
        Frame::IncidentPush {
            seq: rng.below(100),
            incident: gen_incident(rng),
        },
        Frame::WindowPush(wireplane::WindowSummary {
            window: rng.below(100),
            horizon: rng.below(1000),
            evaluated: rng.below(16),
            pending: rng.below(4),
            incidents: rng.below(8),
        }),
        // Context-free on purpose: ctx-bearing frames get their own
        // roundtrip/fuzz suite below.
        Frame::DeltaAppend {
            shard: rng.below(8) as u16,
            seq: 1 + rng.below(1000),
            record: gen_delta_record(rng),
            ctx: None,
        },
        Frame::TraceScrapeReq,
        Frame::TraceScrapeRep(
            (0..1 + rng.below(3))
                .map(|i| {
                    (
                        format!("shard{i}"),
                        (0..rng.below(5)).map(|_| gen_wire_span(rng)).collect(),
                    )
                })
                .collect(),
        ),
        Frame::SnapshotInstall {
            shard: rng.below(8) as u16,
            seq: 1 + rng.below(1000),
            view: (0..rng.below(64)).map(|_| rng.below(256) as u8).collect(),
        },
        Frame::DeltaAck {
            shard: rng.below(8) as u16,
            applied: rng.below(1000),
        },
        Frame::ReplicaStatusReq,
        Frame::ReplicaStatusRep {
            shard: rng.below(8) as u16,
            applied: rng.below(1000),
        },
        Frame::Error(match rng.below(7) {
            0 => WireError::Truncated {
                needed: rng.below(100) as usize,
                have: rng.below(100) as usize,
            },
            1 => WireError::BadTag(rng.below(256) as u8),
            2 => WireError::Oversize(rng.below(1 << 31) as u32),
            3 => WireError::BadUtf8,
            4 => WireError::SeqGap {
                expected: rng.below(1000),
                got: rng.below(1000),
            },
            5 => WireError::ReplicaLag {
                applied: rng.below(1000),
                published: rng.below(1000),
            },
            _ => WireError::Remote(format!("err-{}", rng.below(100))),
        }),
    ]
}

/// Every frame type, bare and inside each of the three envelopes
/// (`Tagged` per frame, one `Batch` and one `BatchRep` of the whole
/// sample set): decode(encode(f)) renders exactly as the generated `f`.
/// And every tag byte the decoder knows is one of those samples' or an
/// envelope's, so a frame declared without a sample here fails.
#[test]
fn every_frame_type_roundtrips_and_rejects_truncation_and_corruption() {
    let mut rng = rng_for("wireplane frame roundtrip");
    let mut sampled = BTreeSet::new();
    for round in 0..20 {
        let bare = gen_frames(&mut rng);
        sampled.extend(bare.iter().map(Frame::tag));
        let tagged = bare.iter().enumerate().map(|(i, f)| Frame::Tagged {
            req_id: i as u32 * 7 + 1,
            ctx: None,
            inner: Box::new(f.clone()),
        });
        let numbered = || bare.iter().cloned().enumerate();
        let batch = Frame::Batch(numbered().map(|(i, f)| (i as u32, None, f)).collect());
        let batch_rep = Frame::BatchRep(numbered().map(|(i, f)| (i as u32, f)).collect());
        for frame in bare.iter().cloned().chain(tagged).chain([batch, batch_rep]) {
            let bytes = frame.to_frame_bytes().unwrap();
            // Through a byte pipe: read_frame → decode == identity
            // (Debug render — the same bit-identity the verdict pin uses).
            let (tag, payload) = read_frame(&mut &bytes[..], MAX_FRAME).unwrap();
            let decoded = Frame::decode(tag, &payload)
                .unwrap_or_else(|e| panic!("round {round}: {frame:?} failed to decode: {e}"));
            assert_eq!(
                format!("{decoded:?}"),
                format!("{frame:?}"),
                "round {round}: frame changed across the wire"
            );

            // Every strict payload prefix is a typed error, never a panic
            // (sample long payloads to keep the suite fast).
            let cuts: Vec<usize> = if payload.len() <= 64 {
                (0..payload.len()).collect()
            } else {
                (0..64).map(|i| i * payload.len() / 64).collect()
            };
            for cut in cuts {
                assert!(
                    Frame::decode(tag, &payload[..cut]).is_err(),
                    "truncated {frame:?} at {cut}/{} decoded successfully",
                    payload.len()
                );
            }

            // Unknown frame tags are typed errors.
            assert!(matches!(
                Frame::decode(0xEE, &payload),
                Err(WireError::BadTag(0xEE))
            ));
        }
    }

    // Tag sweep: a byte the decoder does not answer with `BadTag(t)` on
    // an empty payload is a tag it knows, and it knows exactly the
    // sampled tags and the three envelopes. A retired tag stays retired.
    let known: BTreeSet<u8> = (0..=255u8)
        .filter(|&t| !matches!(Frame::decode(t, &[]), Err(WireError::BadTag(b)) if b == t))
        .collect();
    let mut want = sampled;
    want.extend([0x50, 0x51, 0x52]);
    let odd: Vec<u8> = known.symmetric_difference(&want).copied().collect();
    assert!(
        odd.is_empty(),
        "tags decodable without a sample, or sampled but refused: {odd:#04x?}"
    );
    for retired in [0x12, 0x15, 0x22, 0x25] {
        assert!(
            !known.contains(&retired),
            "retired tag {retired:#04x} decodes"
        );
    }
}

#[test]
fn corrupt_interior_bytes_never_panic() {
    // Flipping any single payload byte must yield either a clean decode
    // (the flip landed in a value field) or a typed error — never a
    // panic or an allocation blow-up.
    let mut rng = rng_for("wireplane frame corruption");
    for frame in gen_frames(&mut rng) {
        let bytes = frame.to_frame_bytes().unwrap();
        let (tag, payload) = read_frame(&mut &bytes[..], MAX_FRAME).unwrap();
        for i in 0..payload.len().min(96) {
            let mut corrupt = payload.clone();
            corrupt[i] ^= 0xA5;
            let _ = Frame::decode(tag, &corrupt); // must return, not panic
        }
    }

    // A map or set whose keys repeat or descend — a record's
    // `epochs_at` / `bytes_per_epoch`, a stats scrape's maps — is a typed
    // error, not a decode that keeps the last value: that would drop an
    // entry and re-encode to other bytes.
    let ascending = to_bytes(&vec![(3u64, 30u64), (7, 70)]);
    let map = from_bytes::<BTreeMap<u64, u64>>(&ascending).expect("ascending keys decode");
    assert_eq!(to_bytes(&map), ascending);
    for (what, pairs) in [
        ("repeated key", vec![(3u64, 30u64), (3, 31)]),
        ("descending keys", vec![(7, 70), (3, 30)]),
    ] {
        let got = from_bytes::<BTreeMap<u64, u64>>(&to_bytes(&pairs));
        assert!(
            matches!(got, Err(WireError::Remote(_))),
            "{what}: {pairs:?} decoded to {got:?}"
        );
        let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let got = from_bytes::<BTreeSet<u64>>(&to_bytes(&keys));
        assert!(
            matches!(got, Err(WireError::Remote(_))),
            "{what}: {keys:?} decoded to {got:?}"
        );
    }
}

// ----------------------------------------------------------------------
// (b) Verdict invariance across the wire
// ----------------------------------------------------------------------

#[test]
fn wire_verdicts_bit_identical_to_sharded_analyzer_at_1_2_4_8_shards() {
    // The watch fixture's ECMP collision makes the victim's trigger fire
    // deterministically, so the trigger-anchored diagnoses are always in
    // the request set alongside the aggregate sweep.
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, _) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    assert!(reqs.len() > 11, "fixture must include the diagnoses");
    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
        let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
        let mut client = cluster.client().unwrap();
        for (i, req) in reqs.iter().enumerate() {
            let wire = client.query(req).unwrap();
            let local = sharded.execute(req);
            assert_eq!(
                format!("{wire:?}"),
                format!("{local:?}"),
                "query {i} diverged across the wire at {n_shards} shards"
            );
        }
        // The wire coalesced every fan-out per shard: no wave can have
        // cost more round trips than shards.
        let counters = cluster.front().counters();
        assert!(counters.rpcs >= counters.rounds);
        cluster.shutdown();
    }
}

// ----------------------------------------------------------------------
// (b continued) Standing-query incident stream parity + (c) failure
// injection
// ----------------------------------------------------------------------

fn watch_subscriptions(tb: &Testbed, victim: FlowId, victim_dst: NodeId) -> Vec<StandingQuery> {
    vec![
        StandingQuery::TopKSliding {
            switch: tb.node("edge0_0"),
            k: 5,
            epochs_back: 8,
        },
        StandingQuery::LoadImbalanceSliding {
            switch: tb.node("agg0_0"),
            epochs_back: 8,
        },
        StandingQuery::Fixed(QueryRequest::TopK {
            switch: tb.node("edge2_0"),
            k: 5,
            range: EpochRange { lo: 5, hi: 20 },
        }),
        StandingQuery::ContentionWatch {
            victim,
            victim_dst,
            trigger_window: tb.cfg.trigger.window,
        },
    ]
}

/// Client-side incident collection: per-sub streams with seq-continuity
/// checking (a duplicated or dropped push trips the assert).
#[derive(Default)]
struct Collected {
    by_sub: BTreeMap<SubscriptionId, Vec<Incident>>,
    seqs: BTreeMap<SubscriptionId, u64>,
}

impl Collected {
    fn take(&mut self, seq: u64, incident: Incident) {
        let expect = self.seqs.entry(incident.sub).or_insert(0);
        assert_eq!(
            seq, *expect,
            "sub {:?}: pushed seq {seq}, expected {} (duplicate or drop)",
            incident.sub, *expect
        );
        *expect += 1;
        self.by_sub.entry(incident.sub).or_default().push(incident);
    }

    fn resume_point(&self, sub: SubscriptionId) -> u64 {
        self.seqs.get(&sub).copied().unwrap_or(0)
    }
}

/// Drives the in-process stream plane and the wire cluster over the same
/// windows, optionally killing connections mid-stream, and asserts the
/// client-re-derived incident log equals the in-process one per
/// subscription.
fn run_stream_parity(n_shards: usize, inject_failures: bool) {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, da) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(10));
    let analyzer = tb.analyzer();

    let mut sp = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 4,
                shards: 8,
                directory_shards: n_shards,
                retention: None,
            },
        },
    );
    let subs = watch_subscriptions(&tb, victim, da);
    let mut sub_ids = Vec::new();
    for q in &subs {
        sub_ids.push(sp.subscribe(*q));
    }

    let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
    let mut client = Some(cluster.client().unwrap());
    for q in &subs {
        let (sub, available) = client.as_mut().unwrap().subscribe(*q, 0).unwrap();
        assert_eq!(available, 0, "fresh topic must have an empty backlog");
        assert!(sub_ids.contains(&sub));
    }

    let mut collected = Collected::default();
    for w in 1..=8u64 {
        tb.sim.run_until(SimTime::from_ms(10 + w * 5));

        if inject_failures && w == 3 {
            // Kill the client connection mid-stream: the front-end reaps
            // the watchers; the client reconnects and resubscribes with
            // its per-topic cursor — the front-end replays exactly the
            // unseen suffix, so the re-derived log has zero duplicates
            // and zero drops (Collected asserts seq continuity).
            drop(client.take());
            let mut resumed = cluster.client().unwrap();
            for (q, &sub_id) in subs.iter().zip(&sub_ids) {
                let cursor = collected.resume_point(sub_id);
                let (sub, available) = resumed.subscribe(*q, cursor).unwrap();
                assert_eq!(sub, sub_id, "topic id changed across resubscribe");
                assert!(available >= cursor);
            }
            client = Some(resumed);
        }
        if inject_failures && w == 5 {
            // Sever every front-end → shard connection mid-stream: the
            // next window's reads must transparently reconnect.
            cluster.front().kill_shard_connections();
        }

        // In-process window.
        let report = sp.run_window(&analyzer);
        // Wire window: refresh the shard states out-of-band, then close.
        cluster.refresh(&analyzer);
        let summary = cluster.close_window();
        assert_eq!(summary.window, w - 1);
        assert_eq!(
            summary.horizon, report.horizon,
            "wire horizon diverged at window {w}"
        );

        // Drain this window's pushes.
        let (incidents, win) = client.as_mut().unwrap().drain_window().unwrap();
        assert_eq!(win.window, w - 1);
        for (seq, incident) in incidents {
            collected.take(seq, incident);
        }
    }

    if inject_failures {
        assert!(
            cluster.front().shard_reconnects() >= n_shards as u64,
            "severed shard connections must have re-established"
        );
    }

    // The client-side re-derived log equals the in-process incident log,
    // per subscription, bit for bit.
    for &sub in &sub_ids {
        let in_process: Vec<&Incident> = sp.incidents().iter().filter(|i| i.sub == sub).collect();
        let over_wire: Vec<&Incident> = collected
            .by_sub
            .get(&sub)
            .map(|v| v.iter().collect())
            .unwrap_or_default();
        assert_eq!(
            over_wire.len(),
            in_process.len(),
            "sub {sub}: incident count diverged (wire {} vs local {})",
            over_wire.len(),
            in_process.len()
        );
        for (w, l) in over_wire.iter().zip(&in_process) {
            assert_eq!(*w, *l, "sub {sub}: incident diverged");
        }
    }
    // The watch must actually have fired (the fixture's point): a
    // pending baseline plus a verdict transition.
    let watch_sub = sub_ids[3];
    assert!(
        sp.incidents().iter().filter(|i| i.sub == watch_sub).count() >= 2,
        "contention watch never transitioned — fixture regressed"
    );
    cluster.shutdown();
}

#[test]
fn wire_incident_stream_bit_identical_at_1_2_4_8_shards() {
    for n_shards in [1usize, 2, 4, 8] {
        run_stream_parity(n_shards, false);
    }
}

#[test]
fn killed_connections_mid_stream_rederive_the_incident_log_exactly() {
    run_stream_parity(2, true);
}

/// The replicated deployment under the same parity bar, with the failure
/// escalated from a killed *connection* to a killed *primary*: every
/// shard runs primary + standby consuming the same replication log, the
/// client loses its connection and resumes by cursor, and then every
/// primary is killed mid-stream — the query waves fail over to the
/// standbys and the incident stream must still equal the in-process
/// stream plane's bit for bit, with zero duplicated and zero dropped
/// transitions.
#[test]
fn incident_stream_bit_identical_across_primary_kill() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, da) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(10));
    let analyzer = tb.analyzer();
    let n_shards = 2usize;

    let mut sp = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 4,
                shards: 8,
                directory_shards: n_shards,
                retention: None,
            },
        },
    );
    let subs = watch_subscriptions(&tb, victim, da);
    let mut sub_ids = Vec::new();
    for q in &subs {
        sub_ids.push(sp.subscribe(*q));
    }

    let cluster =
        WireCluster::launch_replicated(&analyzer, n_shards, 2, WireConfig::default()).unwrap();
    let mut client = Some(cluster.client().unwrap());
    for q in &subs {
        let (sub, available) = client.as_mut().unwrap().subscribe(*q, 0).unwrap();
        assert_eq!(available, 0, "fresh topic must have an empty backlog");
        assert!(sub_ids.contains(&sub));
    }

    let mut collected = Collected::default();
    for w in 1..=8u64 {
        tb.sim.run_until(SimTime::from_ms(10 + w * 5));

        if w == 3 {
            // Client dies mid-stream and resumes by cursor, exactly as
            // in the single-replica drill...
            drop(client.take());
            let mut resumed = cluster.client().unwrap();
            for (q, &sub_id) in subs.iter().zip(&sub_ids) {
                let cursor = collected.resume_point(sub_id);
                let (sub, available) = resumed.subscribe(*q, cursor).unwrap();
                assert_eq!(sub, sub_id, "topic id changed across resubscribe");
                assert!(available >= cursor);
            }
            client = Some(resumed);
        }
        if w == 5 {
            // ...and then every primary is killed outright: the next
            // window's query waves must rotate to the standbys.
            for shard in 0..n_shards {
                assert!(cluster.kill_primary(shard), "primary already dead");
            }
        }

        let report = sp.run_window(&analyzer);
        cluster.refresh(&analyzer);
        let summary = cluster.close_window();
        assert_eq!(summary.window, w - 1);
        assert_eq!(
            summary.horizon, report.horizon,
            "wire horizon diverged at window {w}"
        );

        let (incidents, win) = client.as_mut().unwrap().drain_window().unwrap();
        assert_eq!(win.window, w - 1);
        for (seq, incident) in incidents {
            collected.take(seq, incident);
        }

        // Replication invariant, checked every window: every surviving
        // replica sits exactly at the owner's log head, and its served
        // slice equals the owner's authoritative slice bit for bit.
        let heads = cluster.heads();
        let applied = cluster.applied_seqs();
        for s in 0..n_shards {
            let owner = cluster.owner_slice(s);
            for (r, a) in applied[s].iter().enumerate() {
                let Some(a) = a else { continue };
                assert_eq!(*a, heads[s], "shard {s} replica {r} lagging at window {w}");
                let state = cluster.replica_state(s, r).expect("live replica");
                assert!(
                    state.view == owner,
                    "shard {s} replica {r} diverged at window {w}"
                );
            }
        }
    }

    // The failover actually happened and was observed: every shard's
    // active replica moved off the primary, and the failover histogram
    // recorded the wall clock it took.
    assert!(
        cluster.front().shard_failovers() >= n_shards as u64,
        "fewer failovers than killed primaries"
    );
    assert!(
        cluster.front().active_replicas().iter().all(|&r| r == 1),
        "some shard still points at the dead primary"
    );
    let front_snap = cluster.front_metrics().snapshot();
    assert!(
        front_snap
            .hists
            .get("wire.failover_ns")
            .is_some_and(|h| h.count >= 1),
        "failover histogram empty"
    );

    for &sub in &sub_ids {
        let in_process: Vec<&Incident> = sp.incidents().iter().filter(|i| i.sub == sub).collect();
        let over_wire: Vec<&Incident> = collected
            .by_sub
            .get(&sub)
            .map(|v| v.iter().collect())
            .unwrap_or_default();
        assert_eq!(
            over_wire.len(),
            in_process.len(),
            "sub {sub}: incident count diverged across primary kill"
        );
        for (wi, l) in over_wire.iter().zip(&in_process) {
            assert_eq!(*wi, *l, "sub {sub}: incident diverged across primary kill");
        }
    }
    let watch_sub = sub_ids[3];
    assert!(
        sp.incidents().iter().filter(|i| i.sub == watch_sub).count() >= 2,
        "contention watch never transitioned — fixture regressed"
    );
    cluster.shutdown();
}

/// A fixed diagnosis subscribed before its victim's trigger pends on the
/// wire as it does in process: the front's incident stream (a pending
/// baseline, then the diagnosis) equals the `StreamPlane`'s bit for bit.
#[test]
fn fixed_diagnosis_before_its_trigger_streams_like_the_in_process_plane() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, da) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let n_shards = 2usize;
    let query = StandingQuery::Fixed(QueryRequest::Contention {
        victim,
        victim_dst: da,
        trigger_window: tb.cfg.trigger.window,
    });
    let mut sp = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 2,
                shards: 8,
                directory_shards: n_shards,
                retention: None,
            },
        },
    );
    let sub = sp.subscribe(query);
    let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
    let mut client = cluster.client().unwrap();
    assert_eq!(client.subscribe(query, 0).unwrap(), (sub, 0));

    let mut collected = Collected::default();
    for w in 1..=6u64 {
        tb.sim.run_until(SimTime::from_ms(5 + w * 5));
        let report = sp.run_window(&analyzer);
        cluster.refresh(&analyzer);
        let summary = cluster.close_window();
        assert_eq!(
            (summary.horizon, summary.pending),
            (report.horizon, report.pending as u64),
            "window {w}"
        );
        let (incidents, _) = client.drain_window().unwrap();
        for (seq, incident) in incidents {
            collected.take(seq, incident);
        }
    }
    let in_process = sp.incidents();
    assert_eq!(collected.by_sub[&sub], in_process);
    assert_eq!(in_process[0].summary, streamplane::PENDING_SUMMARY);
    assert!(
        in_process.len() >= 2 && in_process[1].summary.starts_with("contention"),
        "the fixed diagnosis must leave pending once the burst triggers: {in_process:?}"
    );
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// (d) Typed boundaries
// ----------------------------------------------------------------------

#[test]
fn degenerate_plane_configs_are_rejected_with_typed_errors() {
    let cases = [
        (
            QueryPlaneConfig {
                workers: 0,
                ..QueryPlaneConfig::default()
            },
            ConfigError::ZeroWorkers,
        ),
        (
            QueryPlaneConfig {
                shards: 0,
                ..QueryPlaneConfig::default()
            },
            ConfigError::RecordShards(0),
        ),
        (
            QueryPlaneConfig {
                shards: 4,
                ..QueryPlaneConfig::default()
            },
            ConfigError::RecordShards(4),
        ),
        (
            QueryPlaneConfig {
                directory_shards: 0,
                ..QueryPlaneConfig::default()
            },
            ConfigError::ZeroDirectoryShards,
        ),
    ];
    for (cfg, want) in cases {
        assert_eq!(cfg.validate(), Err(want));
    }
    assert!(QueryPlaneConfig::default().validate().is_ok());

    // Through the construction boundary: a typed Err, not a deep panic.
    let topo = Topology::chain(3, 2, GBPS);
    let tb = Testbed::new(topo, TestbedConfig::default_ms());
    let analyzer = tb.analyzer();
    assert_eq!(
        QueryPlane::try_from_analyzer(
            &analyzer,
            QueryPlaneConfig {
                workers: 0,
                ..QueryPlaneConfig::default()
            }
        )
        .err(),
        Some(ConfigError::ZeroWorkers)
    );
    assert_eq!(
        StreamPlane::try_new(
            &analyzer,
            StreamConfig {
                plane: QueryPlaneConfig {
                    shards: 0,
                    ..QueryPlaneConfig::default()
                },
            }
        )
        .err(),
        Some(ConfigError::RecordShards(0))
    );
    // The wire layer validates through the same path.
    assert!(WireCluster::launch(&analyzer, 0, WireConfig::default()).is_err());
}

#[test]
fn accept_pool_exhaustion_is_a_typed_refusal() {
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, f) = (tb.node("A"), tb.node("F"));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(2),
        rate_bps: 100_000_000,
        payload_bytes: 1458,
    });
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();

    let cluster = WireCluster::launch(
        &analyzer,
        1,
        WireConfig {
            max_conns: 1,
            ..WireConfig::default()
        },
    )
    .unwrap();
    // First client fills the front-end's pool...
    let _held = cluster.client().unwrap();
    // ...the second is refused with a typed error frame, not a hang.
    match cluster.client() {
        Err(WireError::Remote(msg)) => assert!(msg.contains("accept pool")),
        // The refused stream may also surface as an io error if the
        // server closed before the greeting was read — but never a hang
        // or a panic. Prefer the typed path, accept the racy close.
        Err(WireError::Io { .. }) => {}
        Ok(_) => panic!("accept pool bound not enforced"),
        Err(e) => panic!("unexpected refusal shape: {e}"),
    }
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Streamed events are well-formed (window digests carry the log sizes)
// ----------------------------------------------------------------------

#[test]
fn window_digests_report_subscriptions_and_pending_counts() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, da) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(10));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 2, WireConfig::default()).unwrap();
    let mut client = cluster.client().unwrap();
    client
        .subscribe(
            StandingQuery::ContentionWatch {
                victim,
                victim_dst: da,
                trigger_window: tb.cfg.trigger.window,
            },
            0,
        )
        .unwrap();
    let summary = cluster.close_window();
    assert_eq!(summary.evaluated, 1);
    assert_eq!(summary.pending, 1, "no trigger at 10ms: watch must pend");
    assert_eq!(summary.incidents, 1, "first sight logs a baseline");
    match client.next_event().unwrap() {
        WireEvent::Incident { seq, incident } => {
            assert_eq!(seq, 0);
            assert_eq!(incident.summary, streamplane::PENDING_SUMMARY);
        }
        other => panic!("expected the baseline incident, got {other:?}"),
    }
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// (e) Stats scrape parity: wire-round-tripped registry snapshots ARE the
// server-side registries
// ----------------------------------------------------------------------

#[test]
fn scraped_stats_equal_server_registries_and_merge_to_totals() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, _) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    let n_shards = 4usize;
    let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
    let mut client = cluster.client().unwrap();
    for req in &reqs {
        client.query(req).unwrap();
    }

    // Every query's reply arrived, so every shard finished recording its
    // RPC metrics before we scrape; nothing else is driving the cluster.
    let scraped = client.scrape_stats().unwrap();
    assert_eq!(scraped.len(), n_shards + 1, "front + one entry per shard");
    assert_eq!(scraped[0].0, "front");

    // Per-shard parity: the snapshot that crossed the wire is *equal* to
    // the server-side registry's, field for field — the scrape neither
    // lossy-encodes nor perturbs what it measures.
    for i in 0..n_shards {
        let (label, snap) = &scraped[i + 1];
        assert_eq!(label, &format!("shard{i}"));
        let server_side = cluster.server_metrics(i).snapshot();
        assert_eq!(
            snap, &server_side,
            "shard {i}: scraped snapshot diverged from the server registry"
        );
        assert!(
            snap.counter("wire.frames_served") > 0,
            "shard {i} served the storm yet scraped zero frames"
        );
    }
    // The front records per-class exec latency under the same names the
    // in-process plane uses, plus per-shard RTT.
    let front = &scraped[0].1;
    assert!(front.hist("queryplane.exec_ns.top_k").is_some());
    for i in 0..n_shards {
        assert!(front.hist(&format!("wire.rtt_ns.shard{i}")).is_some());
    }

    // Merged across shards, counters and histogram counts equal the sum
    // of the per-shard server-side totals.
    let mut merged = obsplane::RegistrySnapshot::default();
    for (_, snap) in scraped.iter().skip(1) {
        merged.merge(snap);
    }
    let served_sum: u64 = (0..n_shards)
        .map(|i| {
            cluster
                .server_metrics(i)
                .snapshot()
                .counter("wire.frames_served")
        })
        .sum();
    assert_eq!(merged.counter("wire.frames_served"), served_sum);
    let serve_count_sum: u64 = (0..n_shards)
        .map(|i| {
            cluster
                .server_metrics(i)
                .snapshot()
                .hist("wire.serve_ns")
                .map(|h| h.count)
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(
        merged
            .hist("wire.serve_ns")
            .expect("merged serve hist")
            .count,
        serve_count_sum
    );
    assert_eq!(merged.counter("wire.frames_served"), serve_count_sum);

    // Scraping is side-effect-free end to end: a quiesced cluster scrapes
    // identically any number of times, from any client.
    let again = client.scrape_stats().unwrap();
    assert_eq!(scraped, again, "scrape perturbed the metrics it pulled");
    let mut other = cluster.client().unwrap();
    let third = other.scrape_stats().unwrap();
    assert_eq!(scraped, third, "scrape result depends on the connection");
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// (f) The wire fast path: batch envelopes, multiplexing, buffer reuse
// ----------------------------------------------------------------------

/// The fuzz bar extended to the envelope frames: strict prefixes are
/// typed errors, single-byte flips never panic, hostile length fields
/// are refused before any allocation they would justify, and envelopes
/// do not nest (so decode recursion is bounded at one level).
#[test]
fn envelope_frames_reject_truncation_corruption_and_hostile_counts() {
    let mut rng = rng_for("wireplane envelope fuzz");
    let frames = gen_frames(&mut rng);
    // Mixed trace contexts per entry: the fuzz sweep covers the marker
    // byte and the 17-byte ctx body as well as the bare layout.
    let entries: Vec<(u32, Option<TraceContext>, Frame)> = frames
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, f)| (i as u32, gen_trace_ctx(&mut rng), f))
        .collect();
    let rep_entries: Vec<(u32, Frame)> = frames
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, f)| (i as u32, f))
        .collect();
    let samples = vec![
        Frame::Tagged {
            req_id: 42,
            ctx: gen_trace_ctx(&mut rng).or_else(|| gen_trace_ctx(&mut rng)),
            inner: Box::new(frames[0].clone()),
        },
        Frame::Batch(entries),
        Frame::BatchRep(rep_entries),
    ];
    for frame in &samples {
        let bytes = frame.to_frame_bytes().unwrap();
        let (tag, payload) = read_frame(&mut &bytes[..], MAX_FRAME).unwrap();
        let cuts: Vec<usize> = if payload.len() <= 96 {
            (0..payload.len()).collect()
        } else {
            (0..96).map(|i| i * payload.len() / 96).collect()
        };
        for cut in cuts {
            assert!(
                Frame::decode(tag, &payload[..cut]).is_err(),
                "truncated envelope {tag:#04x} at {cut}/{} decoded successfully",
                payload.len()
            );
        }
        for i in 0..payload.len().min(256) {
            let mut corrupt = payload.clone();
            corrupt[i] ^= 0xA5;
            let _ = Frame::decode(tag, &corrupt); // must return, not panic
        }
    }

    // Hand-crafted hostile headers. LEB128, as the codec writes it.
    fn leb(mut v: u64, out: &mut Vec<u8>) {
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                break;
            }
            out.push(b | 0x80);
        }
    }
    // A Batch count promising more entries than the payload could hold
    // is refused up front — before allocating a single entry.
    for tag in [0x51u8, 0x52] {
        let mut hostile = Vec::new();
        leb(u64::MAX / 2, &mut hostile);
        assert!(
            matches!(
                Frame::decode(tag, &hostile),
                Err(WireError::Truncated { .. })
            ),
            "hostile batch count not refused"
        );
    }
    // A presence wave — bare, tagged or batched — whose switch or flag
    // count promises more elements than the payload holds: refused before
    // any reservation it would justify.
    for (tag, filler) in [(0x1Cu8, 24usize), (0x2C, 0)] {
        let mut bare = (u64::MAX / 2).to_le_bytes().to_vec();
        bare.extend(std::iter::repeat_n(0u8, filler));
        assert!(
            matches!(Frame::decode(tag, &bare), Err(WireError::Truncated { .. })),
            "hostile presence-wave count {tag:#04x} not refused"
        );
        let mut tagged = vec![0, 0, 0, 3, tag];
        tagged.extend_from_slice(&bare);
        assert!(Frame::decode(0x50, &tagged).is_err());
        let mut batched = Vec::new();
        leb(1, &mut batched);
        batched.extend_from_slice(&[0, 0, 0, 3, tag]);
        leb(bare.len() as u64, &mut batched);
        batched.extend_from_slice(&bare);
        assert!(Frame::decode(0x51, &batched).is_err());
        assert!(Frame::decode(0x52, &batched).is_err());
    }
    // A delta-packed id list (FilterWaveReq, after its switch and range)
    // with a count far beyond its bytes: refused before allocation, bare
    // as much as tagged.
    let mut hostile_count = vec![0u8; 4 + 16];
    leb(1 << 40, &mut hostile_count);
    hostile_count.extend_from_slice(&[0; 8]);
    assert!(
        matches!(
            Frame::decode(0x16, &hostile_count),
            Err(WireError::Truncated { .. })
        ),
        "hostile bare id count not refused"
    );
    let mut tagged = vec![0, 0, 0, 7, 0x16];
    tagged.extend_from_slice(&hostile_count);
    assert!(
        matches!(
            Frame::decode(0x50, &tagged),
            Err(WireError::Truncated { .. })
        ),
        "hostile tagged id count not refused"
    );
    // The retired store-length wave and point-read tags are unknown
    // tags, bare or enveloped.
    for tag in [0x15u8, 0x25, 0x12, 0x22] {
        assert!(matches!(
            Frame::decode(tag, &[0]),
            Err(WireError::BadTag(t)) if t == tag
        ));
        assert!(matches!(
            Frame::decode(0x50, &[0, 0, 0, 7, tag, 0]),
            Err(WireError::BadTag(t)) if t == tag
        ));
    }
    // A run-length bitset (UnionSliceRep) claiming a capacity no legal
    // frame could carry: typed Oversize, not a giant allocation — bare
    // as much as tagged.
    let mut hostile_bits = vec![1];
    leb(u64::MAX / 4, &mut hostile_bits);
    assert!(
        matches!(
            Frame::decode(0x20, &hostile_bits),
            Err(WireError::Oversize(_))
        ),
        "hostile bare bitset capacity not refused"
    );
    let mut tagged_bits = vec![0, 0, 0, 9, 0x20];
    tagged_bits.extend_from_slice(&hostile_bits);
    assert!(
        matches!(
            Frame::decode(0x50, &tagged_bits),
            Err(WireError::Oversize(_))
        ),
        "hostile tagged bitset capacity not refused"
    );
    // Memory amplification: entries *individually* under the cap must
    // not multiply through a Batch. Each ~15-byte entry below claims a
    // 300M-bit empty bitset (37.5 MB of backing words); the per-frame
    // cumulative budget (one maximal frame's worth of plain words)
    // admits the first and refuses the second — a hostile batch can
    // never decode into more bitset memory than one frame of plain
    // words could carry, no matter how many entries it packs.
    let nbits: u64 = 300_000_000;
    let mut entry = vec![1u8]; // Some marker
    leb(nbits, &mut entry); // capacity
    leb(nbits, &mut entry); // one all-zero run
    let mut hostile_batch = Vec::new();
    leb(2, &mut hostile_batch); // entry count
    for id in 0u32..2 {
        hostile_batch.extend_from_slice(&id.to_le_bytes());
        hostile_batch.push(0x20);
        leb(entry.len() as u64, &mut hostile_batch);
        hostile_batch.extend_from_slice(&entry);
    }
    for tag in [0x51u8, 0x52] {
        assert!(
            matches!(
                Frame::decode(tag, &hostile_batch),
                Err(WireError::Oversize(_))
            ),
            "cumulative bitset budget not enforced across batch entries"
        );
    }
    // The same two entries at an honest size (1M bits each) share the
    // budget comfortably and decode.
    let nbits: u64 = 1 << 20;
    let mut entry = vec![1u8];
    leb(nbits, &mut entry);
    leb(nbits, &mut entry);
    let mut honest_batch = Vec::new();
    leb(2, &mut honest_batch);
    for id in 0u32..2 {
        honest_batch.extend_from_slice(&id.to_le_bytes());
        honest_batch.push(0x20);
        leb(entry.len() as u64, &mut honest_batch);
        honest_batch.extend_from_slice(&entry);
    }
    match Frame::decode(0x51, &honest_batch) {
        Ok(Frame::Batch(entries)) => {
            assert_eq!(entries.len(), 2);
            for (_, _, f) in &entries {
                match f {
                    Frame::UnionSliceRep(Some(b)) => {
                        assert_eq!(b.capacity() as u64, nbits);
                        assert!(b.is_empty());
                    }
                    other => panic!("unexpected entry {other:?}"),
                }
            }
        }
        other => panic!("honest batch refused: {other:?}"),
    }
    // A delta-packed id list (a SizesWaveReq's, after its switch) whose
    // running sum overflows i64 (first id 1, then delta i64::MAX) is a
    // typed error in every build profile — never a debug-only arithmetic
    // panic.
    let mut overflow_ids = vec![0, 0, 0, 8, 0x18, 5, 0, 0, 0];
    leb(2, &mut overflow_ids); // id count
    leb(2, &mut overflow_ids); // zigzag(+1)
    leb(u64::MAX - 1, &mut overflow_ids); // zigzag(i64::MAX)
    assert!(
        matches!(
            Frame::decode(0x50, &overflow_ids),
            Err(WireError::Oversize(_))
        ),
        "overflowing id delta not refused"
    );
    // Envelopes must not nest: a Tagged wrapping tag 0x50 is a BadTag.
    let nested = vec![0, 0, 0, 1, 0x50, 0, 0, 0, 2, 0x3F];
    assert!(
        matches!(Frame::decode(0x50, &nested), Err(WireError::BadTag(0x50))),
        "nested envelope not refused"
    );
    // Arbitrary garbage under the envelope tags: typed errors or clean
    // decodes, never a panic.
    for _ in 0..200 {
        let n = rng.below(64) as usize;
        let garbage: Vec<u8> = (0..n).map(|_| rng.below(256) as u8).collect();
        for tag in [0x50u8, 0x51, 0x52] {
            let _ = Frame::decode(tag, &garbage);
        }
    }
}

/// Buffer-reuse soundness: the fast path encodes every envelope into a
/// per-connection scratch buffer ([`Frame::encode_into`]). Reusing one
/// buffer across waves — long frames followed by short ones — must be
/// byte-identical to a fresh allocation every time (no stale-suffix
/// leakage).
#[test]
fn reused_encode_scratch_is_byte_identical_to_fresh_encoding_across_waves() {
    let mut rng = rng_for("wireplane scratch reuse");
    let mut scratch = Vec::new();
    for wave in 0..3u32 {
        let frames = gen_frames(&mut rng);
        for frame in &frames {
            let tagged = Frame::Tagged {
                req_id: wave,
                ctx: None,
                inner: Box::new(frame.clone()),
            };
            tagged.encode_into(&mut scratch).unwrap();
            assert_eq!(
                scratch,
                tagged.to_frame_bytes().unwrap(),
                "wave {wave}: reused scratch diverged from fresh encoding"
            );
        }
        let batch = Frame::Batch(
            frames
                .into_iter()
                .enumerate()
                .map(|(i, f)| (i as u32, None, f))
                .collect(),
        );
        batch.encode_into(&mut scratch).unwrap();
        assert_eq!(
            scratch,
            batch.to_frame_bytes().unwrap(),
            "wave {wave}: reused batch scratch diverged from fresh encoding"
        );
    }
}

/// The naive per-host regime over `reqs` at `n_shards`: each request's
/// verdict and the routing counters of the in-process router over
/// `LocalBackend`s with per-shard wave coalescing off — the reference the
/// wire's coalesced waves are counted against (the wire routes exactly
/// as the in-process router does, pinned by
/// `mux_overlapped_fanout_parity_and_counters_at_1_2_4_8_shards`).
fn naive_regime(
    analyzer: &switchpointer::analyzer::Analyzer,
    n_shards: usize,
    reqs: &[QueryRequest],
) -> (Vec<String>, switchpointer::shard::RouterCounters) {
    use queryplane::Snapshot;
    use switchpointer::query::QueryExecutor;
    use switchpointer::shard::{BackendRouter, LocalBackend, ShardedDirectory};

    let snapshot = Snapshot::capture(analyzer, 8);
    let dir = ShardedDirectory::new(
        analyzer.directory().mphf().clone(),
        &analyzer.all_hosts(),
        n_shards,
    );
    let backends: Vec<LocalBackend<'_, Snapshot>> = dir
        .shards()
        .iter()
        .map(|s| LocalBackend::new(s, &snapshot))
        .collect();
    let router = BackendRouter::new(&backends, &dir).without_coalescing();
    let verdicts = reqs
        .iter()
        .map(|r| {
            format!(
                "{:?}",
                QueryExecutor::new(analyzer.ctx(), &router).execute(r)
            )
        })
        .collect();
    (verdicts, router.counters())
}

/// The envelope-frame economics the fast path exists for: a batched wave
/// writes a number of envelope frames bounded by its coalesced RPCs
/// (host-count independent), fewer than the RPCs the naive per-host
/// regime routes for the same requests. Also pins that the wave
/// instruments itself (`wire.frames_per_wave`, `wire.bytes_per_query`).
#[test]
fn batched_wave_frames_do_not_scale_with_host_count() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, _) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    let n_shards = 2usize;

    let batched = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
    let f0 = batched.front().wire_frames_sent();
    let results = batched.front().execute_wave(&reqs);
    assert_eq!(results.len(), reqs.len());
    let batched_frames = batched.front().wire_frames_sent() - f0;
    let batched_rpcs = batched.front().counters().rpcs;
    let (_, naive) = naive_regime(&analyzer, n_shards, &reqs);

    assert!(
        batched_frames <= batched_rpcs,
        "a batched wave wrote {batched_frames} envelopes for {batched_rpcs} coalesced RPCs"
    );
    // Strictly fewer envelopes than the per-host regime's RPCs: the gap
    // is the per-host fan-outs collapsed into wave frames.
    assert!(
        naive.rpcs > batched_frames,
        "the per-host regime routes {} RPCs vs {batched_frames} batched envelopes — \
         frames are scaling with host count again",
        naive.rpcs
    );

    // The scaling pin itself, at the wire: a fan-out covering EVERY host
    // in the fabric is one envelope frame (only its bytes grow), while
    // per-host reads pay one envelope each.
    let all_hosts: Vec<NodeId> = tb.hosts.keys().copied().collect();
    assert!(all_hosts.len() >= 16, "fat-tree(4) fixture has 16 hosts");
    let (mux, _, _) = MuxConn::connect(batched.shard_addrs()[0], MAX_FRAME).unwrap();
    let switch = tb.node("edge0_0");
    let range = EpochRange { lo: 10, hi: 20 };
    let f0 = mux.frames_sent();
    let b0 = mux.bytes_sent();
    mux.call(&Frame::FilterWaveReq {
        switch,
        range,
        hosts: all_hosts.clone(),
    })
    .unwrap();
    assert_eq!(
        mux.frames_sent() - f0,
        1,
        "a whole-fabric fan-out must travel as one envelope frame"
    );
    let wave_bytes = mux.bytes_sent() - b0;
    for &h in &all_hosts {
        mux.call(&Frame::RecordReq {
            host: h,
            flow: FlowId(0),
        })
        .unwrap();
    }
    assert_eq!(
        mux.frames_sent() - f0,
        1 + all_hosts.len() as u64,
        "per-host reads pay one envelope each — the regime the wave frame replaces"
    );
    assert!(wave_bytes > 0, "the fan-out frame carried no bytes");

    let snap = batched.front_metrics().snapshot();
    let fpw = snap
        .hist("wire.frames_per_wave")
        .expect("frames-per-wave histogram");
    assert_eq!(fpw.count, 1, "one wave, one frames-per-wave sample");
    assert!(
        snap.hist("wire.bytes_per_query")
            .is_some_and(|h| h.count == 1),
        "bytes-per-query histogram missing its wave sample"
    );
    batched.shutdown();
}

/// Interleaving: N concurrent tagged requests on ONE connection, with a
/// server-side delay rigged on the first-issued request only. Every reply
/// must pair with its own request (no cross-talk), and the fast requests,
/// issued while the slow one is being served, answer only after it: the
/// connection's thread serves in arrival order, one request at a time.
#[test]
fn mux_tagged_requests_complete_in_arrival_order_without_cross_talk() {
    let mut tb = scenarios::watch(0).tb;
    tb.sim.run_until(SimTime::from_ms(20));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 1, WireConfig::default()).unwrap();
    let (mux, shard, _) = MuxConn::connect(cluster.shard_addrs()[0], MAX_FRAME).unwrap();
    assert_eq!(shard, 0);

    let host_ids: Vec<NodeId> = [
        "h0_0_0", "h0_0_1", "h1_0_0", "h1_0_1", "h2_0_0", "h2_0_1", "h3_0_0", "h3_0_1",
    ]
    .iter()
    .map(|n| tb.node(n))
    .collect();

    // Each host's request names a flow it holds (if any), so the
    // replies differ from host to host.
    let record_reqs: Vec<Frame> = host_ids
        .iter()
        .map(|&h| Frame::RecordReq {
            host: h,
            flow: analyzer
                .host(h)
                .and_then(|c| c.borrow().store.records().next().map(|r| r.flow))
                .unwrap_or(FlowId(0)),
        })
        .collect();

    // Ground truth, serially, before any delay rigging.
    let expected_records: Vec<String> = record_reqs
        .iter()
        .map(|req| format!("{:?}", mux.call(req).unwrap()))
        .collect();
    let expected_horizon = format!("{:?}", mux.call(&Frame::HorizonReq).unwrap());

    // Rig the server: horizon reads crawl, record reads fly.
    const SLOW: Duration = Duration::from_millis(300);
    let delay: ServeDelay = Arc::new(|req: &Frame| match req {
        Frame::HorizonReq => SLOW,
        _ => Duration::ZERO,
    });
    cluster.set_serve_delay(0, 0, Some(delay));

    let t0 = Instant::now();
    let barrier = std::sync::Barrier::new(host_ids.len() + 1);
    let (slow, fast) = std::thread::scope(|s| {
        let slow = s.spawn(|| {
            barrier.wait();
            let r = mux.call(&Frame::HorizonReq).unwrap();
            (format!("{r:?}"), t0.elapsed())
        });
        let handles: Vec<_> = record_reqs
            .iter()
            .map(|req| {
                let barrier = &barrier;
                let mux = &mux;
                s.spawn(move || {
                    barrier.wait();
                    // Let the slow request hit the socket first.
                    std::thread::sleep(Duration::from_millis(30));
                    let r = mux.call(req).unwrap();
                    (format!("{r:?}"), t0.elapsed())
                })
            })
            .collect();
        (
            slow.join().unwrap(),
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
        )
    });
    cluster.set_serve_delay(0, 0, None);

    // No cross-talk: every reply is exactly the serial answer for ITS
    // request, however many callers shared the socket.
    assert_eq!(slow.0, expected_horizon, "slow reply crossed wires");
    for (i, (got, _)) in fast.iter().enumerate() {
        assert_eq!(
            *got, expected_records[i],
            "fast reply {i} crossed wires with another request"
        );
    }
    // Arrival order: every fast request, sent some 30 ms in while the
    // slow one was being served, waited for that serve to end.
    let fastest_fast = fast.iter().map(|(_, t)| *t).min().unwrap();
    assert!(
        slow.1 >= SLOW && fastest_fast >= SLOW,
        "a fast request ({fastest_fast:?}) answered before the slow one issued ahead of it \
         was served ({slow:?})"
    );
    cluster.shutdown();
}

/// Wave parity with the serial path at 1/2/4/8 shards: the pipelined,
/// batch-framed `execute_wave` returns responses bit-identical to the
/// in-process sharded analyzer, in submission order.
#[test]
fn mux_wave_parity_with_serial_at_1_2_4_8_shards() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, _) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    assert!(reqs.len() > 11, "fixture must include the diagnoses");
    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
        let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
        let wave = cluster.front().execute_wave(&reqs);
        assert_eq!(wave.len(), reqs.len());
        for (i, ((resp, _, _), req)) in wave.iter().zip(&reqs).enumerate() {
            let local = sharded.execute(req);
            assert_eq!(
                format!("{resp:?}"),
                format!("{local:?}"),
                "query {i} diverged on the batched wave at {n_shards} shards"
            );
        }
        cluster.shutdown();
    }
}

/// A connection kill landing in the middle of a wave: the in-flight
/// exchanges fail over to a fresh connection and the wave still returns
/// bit-identical verdicts; the incident stream on the same deployment
/// stays seq-continuous (zero duplicated, zero dropped pushes).
#[test]
fn mux_mid_wave_connection_kill_fails_over_without_losing_incidents() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, da) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    let n_shards = 2usize;
    let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
    let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();

    // A watcher whose stream the kill also threatens.
    let mut client = cluster.client().unwrap();
    client
        .subscribe(
            StandingQuery::ContentionWatch {
                victim,
                victim_dst: da,
                trigger_window: tb.cfg.trigger.window,
            },
            0,
        )
        .unwrap();

    // Stretch every serve slightly so the kill lands inside the wave.
    for s in 0..n_shards {
        let delay: ServeDelay = Arc::new(|_: &Frame| Duration::from_millis(2));
        cluster.set_serve_delay(s, 0, Some(delay));
    }
    let wave = std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            cluster.front().kill_shard_connections();
        });
        let wave = cluster.front().execute_wave(&reqs);
        killer.join().unwrap();
        wave
    });
    for s in 0..n_shards {
        cluster.set_serve_delay(s, 0, None);
    }

    for (i, ((resp, _, _), req)) in wave.iter().zip(&reqs).enumerate() {
        let local = sharded.execute(req);
        assert_eq!(
            format!("{resp:?}"),
            format!("{local:?}"),
            "query {i} diverged across the mid-wave kill"
        );
    }

    // The stream survives on the same deployment: seq continuity on the
    // drained window (Collected trips on any duplicate or drop).
    let summary = cluster.close_window();
    let (incidents, win) = client.drain_window().unwrap();
    assert_eq!(win.window, summary.window);
    assert_eq!(incidents.len() as u64, summary.incidents);
    let mut collected = Collected::default();
    for (seq, incident) in incidents {
        collected.take(seq, incident);
    }
    assert!(
        cluster.front().shard_reconnects() >= 1,
        "the kill never forced a reconnect — it missed"
    );
    cluster.shutdown();
}

/// A shard socket has one grammar: every request is an envelope entry.
/// A bare `DeltaAppend` — even the very next record of the log — is
/// refused with a typed error, the log does not move, and the connection
/// keeps serving reads; the same append inside an envelope on a
/// multiplexed link acks and moves the log one seq. (`SeqGap`
/// enforcement is pinned through `ReplicaWriter` in
/// `tests/replication_props.rs`.)
#[test]
fn mux_bare_append_is_refused_and_the_same_append_enveloped_acks() {
    let mut tb = scenarios::watch(0).tb;
    tb.sim.run_until(SimTime::from_ms(20));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 1, WireConfig::default()).unwrap();
    let addr = cluster.shard_addrs()[0];
    let applied = cluster.applied_seqs()[0][0].expect("live primary");
    // An empty record is a valid no-op: applied, it moves only the seq.
    let append = Frame::DeltaAppend {
        shard: 0,
        seq: applied + 1,
        record: Default::default(),
        ctx: None,
    };

    // A raw socket, the only way to put a bare frame on a shard link.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        Frame::read(&mut raw, MAX_FRAME).unwrap(),
        Frame::Hello { shard: 0, .. }
    ));
    append.write(&mut raw).unwrap();
    match Frame::read(&mut raw, MAX_FRAME).unwrap() {
        Frame::Error(WireError::Remote(_)) => {}
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert_eq!(
        cluster.applied_seqs()[0][0],
        Some(applied),
        "a refused append must not move the replication log"
    );
    // The refusal was an answer, not a poisoning: the link keeps serving.
    let horizon = Frame::Tagged {
        req_id: 7,
        ctx: None,
        inner: Box::new(Frame::HorizonReq),
    };
    horizon.write(&mut raw).unwrap();
    match Frame::read(&mut raw, MAX_FRAME).unwrap() {
        Frame::Tagged {
            req_id: 7, inner, ..
        } if matches!(*inner, Frame::HorizonRep(_)) => {}
        other => panic!("link died after the refusal: {other:?}"),
    }

    // The same append, enveloped on a multiplexed link, is applied.
    let (mux, shard, _) = MuxConn::connect(addr, MAX_FRAME).unwrap();
    assert_eq!(shard, 0);
    match mux.call(&append).unwrap() {
        Frame::DeltaAck {
            shard: 0,
            applied: a,
        } => assert_eq!(a, applied + 1),
        other => panic!("expected the enveloped append to ack, got {other:?}"),
    }
    assert_eq!(cluster.applied_seqs()[0][0], Some(applied + 1));
    assert!(!mux.is_dead());
    cluster.shutdown();
}

/// Transport errors keep their peer address all the way through the
/// retry/failover rotation: both the client connect path and a shard
/// error surfaced after rotating across dead replicas render the peer
/// that failed.
#[test]
fn transport_errors_name_the_peer_through_retry_rotation() {
    // A dead address: bind, learn the port, drop the listener.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let Err(err) = WireClient::connect(dead, MAX_FRAME) else {
        panic!("connect to a dead address succeeded");
    };
    let msg = format!("{err}");
    assert!(
        msg.contains(&format!("transport error talking to {dead}")),
        "client connect error lost its peer: {msg}"
    );

    // A replica set whose every member goes dark: the rotation exhausts
    // its budget and the surfaced error still names a peer.
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, f) = (tb.node("A"), tb.node("F"));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(2),
        rate_bps: 100_000_000,
        payload_bytes: 1458,
    });
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 1, WireConfig::default()).unwrap();
    let live = cluster.shard_addrs()[0];
    let rs = RemoteShard::connect_replicated(
        0,
        vec![live, dead],
        MAX_FRAME,
        RetryPolicy::immediate(1),
        None,
        None,
    )
    .unwrap();
    assert!(rs.scrape().is_ok(), "live replica must answer");
    cluster.shutdown();
    let err = rs.scrape().unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("transport error talking to 127.0.0.1:"),
        "rotated shard error lost its peer: {msg}"
    );
}

// ----------------------------------------------------------------------
// (g) The silent-drop sweep in one round trip: PresenceWave over the wire
// ----------------------------------------------------------------------

/// The chain fixture with a mid-run blackhole: A→F crosses S1–S2–S3, and
/// the S2–S3 link dies at 8 ms, so post-onset epochs show the destination
/// at S1 and S2 but not S3 — whose level-1 slots, never rotated again,
/// still hold the pre-onset epochs 0–7. Nothing is ever sent to E.
fn blackhole_testbed() -> (Testbed, FlowId) {
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, f) = (tb.node("A"), tb.node("F"));
    let flow = tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(20),
        rate_bps: 300_000_000,
        payload_bytes: 1458,
    });
    let (s2, s3) = (tb.node("S2"), tb.node("S3"));
    let bad = tb
        .sim
        .topo()
        .ports(s2)
        .iter()
        .find(|&&(_, peer)| peer == s3)
        .map(|&(link, _)| link)
        .expect("S2-S3 link");
    tb.sim.schedule_link_state(bad, false, SimTime::from_ms(8));
    tb.sim.run_until(SimTime::from_ms(20));
    (tb, flow)
}

/// Absent from midway, never seen, present everywhere (a retention sweep
/// far longer than any live window), and present only downstream (S1 and
/// S2 have recycled the early epochs S3 still holds).
fn sweep_queries(tb: &Testbed, flow: FlowId) -> Vec<QueryRequest> {
    let (a, e, f) = (tb.node("A"), tb.node("E"), tb.node("F"));
    let sweep = |dst, lo, hi| QueryRequest::SilentDrop {
        flow,
        src: a,
        dst,
        range: EpochRange { lo, hi },
    };
    vec![
        sweep(f, 14, 19),
        sweep(e, 0, 19),
        sweep(f, 0, 999),
        sweep(f, 0, 5),
    ]
}

fn frames_served(cluster: &WireCluster, n_shards: usize) -> u64 {
    (0..n_shards)
        .map(|i| {
            cluster
                .server_metrics(i)
                .snapshot()
                .counter("wire.frames_served")
        })
        .sum()
}

/// `SilentDrop` through the wire ≡ `ShardedAnalyzer` ≡ `Analyzer` at
/// 1/2/4/8 shards — and the count the one-round-trip claim rests on:
/// exactly one shard RPC, one round and one served frame per sweep,
/// however many epochs it covers.
#[test]
fn silent_drop_sweep_is_one_round_trip_and_bit_identical_at_1_2_4_8_shards() {
    let (tb, flow) = blackhole_testbed();
    let analyzer = tb.analyzer();
    let reqs = sweep_queries(&tb, flow);
    // The fixture really covers the shapes it claims.
    let shapes: Vec<Vec<bool>> = reqs
        .iter()
        .map(|r| match analyzer.execute(r) {
            QueryResponse::SilentDrop(d) => d.per_switch.iter().map(|&(_, p)| p).collect(),
            other => panic!("unexpected response {other:?}"),
        })
        .collect();
    assert_eq!(shapes[0], [true, true, false], "absent from midway");
    assert_eq!(shapes[1], [false, false, false], "never seen");
    assert_eq!(shapes[2], [true, true, true], "present everywhere");
    assert_eq!(shapes[3], [false, false, true], "present only downstream");

    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
        let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
        let mut client = cluster.client().unwrap();
        for (i, req) in reqs.iter().enumerate() {
            let flat = format!("{:?}", analyzer.execute(req));
            assert_eq!(format!("{:?}", sharded.execute(req)), flat);

            let served_before = frames_served(&cluster, n_shards);
            let frames_before = cluster.front().wire_frames_sent();
            let (resp, _, counters) = cluster.front().execute(req);
            assert_eq!(
                format!("{resp:?}"),
                flat,
                "sweep {i} diverged across the wire at {n_shards} shards"
            );
            assert_eq!(
                (counters.rpcs, counters.rounds),
                (1, 1),
                "sweep {i} at {n_shards} shards: a whole sweep is one RPC in one round"
            );
            assert_eq!(cluster.front().wire_frames_sent() - frames_before, 1);
            assert_eq!(frames_served(&cluster, n_shards) - served_before, 1);

            // Through a real client connection, and again right after
            // every shard link was killed (the reconnect is transparent
            // and still costs a single served frame).
            assert_eq!(format!("{:?}", client.query(req).unwrap()), flat);
            cluster.front().kill_shard_connections();
            let served_before = frames_served(&cluster, n_shards);
            assert_eq!(format!("{:?}", client.query(req).unwrap()), flat);
            assert_eq!(frames_served(&cluster, n_shards) - served_before, 1);
        }
        assert!(cluster.front().shard_reconnects() >= 1);
        cluster.shutdown();
    }
}

/// A connection kill landing *inside* the sweep's one RPC: the exchange
/// fails over to a fresh connection and the verdict is unchanged.
#[test]
fn silent_drop_sweep_survives_a_connection_kill_mid_query() {
    let (tb, flow) = blackhole_testbed();
    let analyzer = tb.analyzer();
    let reqs = sweep_queries(&tb, flow);
    for n_shards in [1usize, 2, 4, 8] {
        let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
        for req in &reqs {
            // The first serve of the wave announces itself and then
            // stalls, so the kill provably lands while it is in flight.
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let tx = std::sync::Mutex::new(Some(tx));
            let delay: ServeDelay = Arc::new(move |f: &Frame| {
                let first = matches!(f, Frame::PresenceWaveReq { .. })
                    .then(|| tx.lock().unwrap().take())
                    .flatten();
                match first {
                    Some(tx) => {
                        let _ = tx.send(());
                        Duration::from_millis(100)
                    }
                    None => Duration::ZERO,
                }
            });
            // Every shard gets the same hook; only the one owning the
            // destination's slot ever sees the wave.
            for s in 0..n_shards {
                cluster.set_serve_delay(s, 0, Some(Arc::clone(&delay)));
            }
            let reconnects_before = cluster.front().shard_reconnects();
            let (resp, counters) = std::thread::scope(|scope| {
                let cluster = &cluster;
                let killer = scope.spawn(move || {
                    rx.recv_timeout(RENDEZVOUS_TIMEOUT)
                        .expect("the wave never reached a shard");
                    cluster.front().kill_shard_connections();
                });
                let (resp, _, counters) = cluster.front().execute(req);
                killer.join().unwrap();
                (resp, counters)
            });
            for s in 0..n_shards {
                cluster.set_serve_delay(s, 0, None);
            }
            assert_eq!(
                format!("{resp:?}"),
                format!("{:?}", analyzer.execute(req)),
                "sweep diverged across a mid-query kill at {n_shards} shards"
            );
            // The router still issued one call; the transport retried it.
            assert_eq!((counters.rpcs, counters.rounds), (1, 1));
            assert!(
                cluster.front().shard_reconnects() > reconnects_before,
                "the kill missed the in-flight wave"
            );
        }
        cluster.shutdown();
    }
}

/// Server work for a presence wave is O(switches × α), never O(range): a
/// sweep of every epoch there is, over a switch list filling the whole
/// frame, answers promptly — and a switch the shard has never heard of is
/// `false`, not an error.
#[test]
fn presence_wave_over_the_full_epoch_space_answers_promptly() {
    let (tb, _flow) = blackhole_testbed();
    let analyzer = tb.analyzer();
    let cfg = WireConfig {
        max_frame: 1 << 20,
        ..WireConfig::default()
    };
    let cluster = WireCluster::launch(&analyzer, 1, cfg).unwrap();
    let (mux, _, _) = MuxConn::connect(cluster.shard_addrs()[0], cfg.max_frame).unwrap();

    let path = [tb.node("S1"), tb.node("S2"), tb.node("S3")];
    let unknown = NodeId(9_999_999);
    // As many switches as one frame can carry (4 bytes each, minus the
    // envelope and the fixed fields): the real path first, then unknown
    // switches, then the path again.
    let n = ((cfg.max_frame as usize) - 128) / 4;
    let mut switches = vec![unknown; n];
    switches[..3].copy_from_slice(&path);
    switches[n - 3..].copy_from_slice(&path);
    let everything = EpochRange {
        lo: 0,
        hi: u64::MAX,
    };
    let addr = tb.node("F").addr();

    let started = Instant::now();
    let reply = mux
        .call(&Frame::PresenceWaveReq {
            switches: switches.clone(),
            addr,
            range: everything,
        })
        .unwrap();
    let elapsed = started.elapsed();
    let Frame::PresenceWaveRep(flags) = reply else {
        panic!("expected a presence reply, got {reply:?}");
    };
    // An O(range) server would need 2^64 probes per switch; O(switches)
    // work on a quarter-million entries is milliseconds.
    assert!(
        elapsed < Duration::from_secs(20),
        "presence wave took {elapsed:?}"
    );
    assert_eq!(flags.len(), n);
    // Somewhere in all of time every path switch saw F (S3 before the
    // blackhole).
    assert_eq!(flags[..3], [true, true, true]);
    assert_eq!(flags[n - 3..], [true, true, true]);
    assert!(
        flags[3..n - 3].iter().all(|&p| !p),
        "an unknown switch must answer false"
    );

    // The range is honoured, not ignored: post-onset, S3 is dark.
    match mux
        .call(&Frame::PresenceWaveReq {
            switches: path.to_vec(),
            addr,
            range: EpochRange { lo: 14, hi: 19 },
        })
        .unwrap()
    {
        Frame::PresenceWaveRep(flags) => assert_eq!(flags, [true, true, false]),
        other => panic!("expected a presence reply, got {other:?}"),
    }

    // One switch past the frame budget is refused by framing — typed,
    // on the sender, before a byte moves.
    let mut too_many = switches;
    too_many.extend(std::iter::repeat_n(unknown, 64));
    assert!(mux
        .call(&Frame::PresenceWaveReq {
            switches: too_many,
            addr,
            range: everything,
        })
        .is_err());
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// (e) Causal tracing: envelope contexts, cross-process reassembly,
//     verdict invariance under every sampling rate, slow-query exemplars
// ----------------------------------------------------------------------

/// Trace contexts embedded in envelopes round-trip exactly; a context
/// cut anywhere inside its 17-byte body is a typed error; a hostile
/// flags byte is refused; and a traced `DeltaAppend` cut exactly at the
/// record boundary is the context-free image of the same append — the
/// trailer is optional, nothing else about the frame depends on it.
#[test]
fn trace_context_envelopes_roundtrip_truncate_and_interop() {
    let mut rng = rng_for("wireplane trace ctx roundtrip");
    let frames = gen_frames(&mut rng);
    let ctx = TraceContext {
        trace_id: 0x0123_4567_89AB_CDEF,
        span_id: 0xFEDC_BA98_7654_3210,
        sampled: true,
    };

    // Round-trip with the context present, all three envelope kinds.
    let record = gen_delta_record(&mut rng);
    let samples = vec![
        Frame::Tagged {
            req_id: 7,
            ctx: Some(ctx),
            inner: Box::new(frames[0].clone()),
        },
        Frame::Batch(
            frames
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, f)| {
                    (
                        i as u32,
                        Some(TraceContext {
                            span_id: i as u64,
                            ..ctx
                        }),
                        f,
                    )
                })
                .collect(),
        ),
        Frame::DeltaAppend {
            shard: 3,
            seq: 99,
            record: record.clone(),
            ctx: Some(ctx),
        },
    ];
    for frame in &samples {
        let bytes = frame.to_frame_bytes().unwrap();
        let (tag, payload) = read_frame(&mut &bytes[..], MAX_FRAME).unwrap();
        let back = Frame::decode(tag, &payload).unwrap();
        assert_eq!(
            format!("{back:?}"),
            format!("{frame:?}"),
            "ctx-bearing envelope did not round-trip"
        );
    }

    // Truncation inside the context body (marker onward) is an error for
    // Tagged: the marker promises 17 bytes plus an inner frame.
    let tagged = &samples[0];
    let bytes = tagged.to_frame_bytes().unwrap();
    let (tag, payload) = read_frame(&mut &bytes[..], MAX_FRAME).unwrap();
    for cut in 4..4 + 18 {
        assert!(
            Frame::decode(tag, &payload[..cut]).is_err(),
            "Tagged cut mid-context at {cut} decoded successfully"
        );
    }

    // A flags byte with any bit beyond bit0 set is a BadTag carrying the
    // hostile byte — reserved bits stay reserved.
    for flags in [0x02u8, 0x80, 0xFF] {
        let mut corrupt = payload.clone();
        // Layout: req_id(4) | 0xFF | trace(8) | span(8) | flags.
        assert_eq!(corrupt[4], 0xFF, "marker not where the layout says");
        corrupt[4 + 17] = flags;
        assert!(
            matches!(Frame::decode(tag, &corrupt), Err(WireError::BadTag(f)) if f == flags),
            "hostile flags byte {flags:#04x} not refused as BadTag"
        );
    }

    // Cutting the traced DeltaAppend exactly at the record boundary
    // yields the context-free byte image, and it decodes as the same
    // append with no context; anything shorter is truncation, anything
    // longer that is not a whole context is an error.
    let traced = &samples[2];
    let bytes = traced.to_frame_bytes().unwrap();
    let (tag, payload) = read_frame(&mut &bytes[..], MAX_FRAME).unwrap();
    let untraced_len = payload.len() - 18; // marker + 17-byte body
    match Frame::decode(tag, &payload[..untraced_len]).unwrap() {
        Frame::DeltaAppend {
            shard,
            seq,
            record: got,
            ctx,
        } => {
            assert_eq!((shard, seq), (3, 99));
            assert_eq!(format!("{got:?}"), format!("{record:?}"));
            assert_eq!(ctx, None, "context-free byte image grew a context");
        }
        other => panic!("context-free DeltaAppend image decoded to {other:?}"),
    }
    for cut in untraced_len + 1..payload.len() {
        assert!(
            Frame::decode(tag, &payload[..cut]).is_err(),
            "DeltaAppend cut mid-context at {cut} decoded successfully"
        );
    }
}

/// The byte-layout pin for the context extension: a context-free
/// envelope encodes byte-for-byte the documented layout (hand-assembled
/// here), paying nothing for the extension, and a context-bearing
/// envelope is exactly that image with the 17-byte
/// `0xFF | trace | span | flags` block spliced at the documented offset.
#[test]
fn context_free_envelope_bytes_match_pre_context_layout() {
    fn leb(mut v: u64, out: &mut Vec<u8>) {
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                break;
            }
            out.push(b | 0x80);
        }
    }
    fn payload_of(frame: &Frame) -> Vec<u8> {
        let bytes = frame.to_frame_bytes().unwrap();
        let (_, payload) = read_frame(&mut &bytes[..], MAX_FRAME).unwrap();
        payload
    }

    // Tagged{req_id, HorizonReq}: `req_id u32 LE | inner tag`.
    let bare = payload_of(&Frame::Tagged {
        req_id: 0xA1B2_C3D4,
        ctx: None,
        inner: Box::new(Frame::HorizonReq),
    });
    let mut want = 0xA1B2_C3D4u32.to_le_bytes().to_vec();
    want.push(0x19); // HorizonReq
    assert_eq!(bare, want, "context-free Tagged layout drifted");

    // The traced flavour is the same image with the context spliced
    // after req_id.
    let traced = payload_of(&Frame::Tagged {
        req_id: 0xA1B2_C3D4,
        ctx: Some(TraceContext {
            trace_id: 0x1111_2222_3333_4444,
            span_id: 0x5555_6666_7777_8888,
            sampled: true,
        }),
        inner: Box::new(Frame::HorizonReq),
    });
    let mut spliced = bare[..4].to_vec();
    spliced.push(0xFF);
    spliced.extend_from_slice(&0x1111_2222_3333_4444u64.to_le_bytes());
    spliced.extend_from_slice(&0x5555_6666_7777_8888u64.to_le_bytes());
    spliced.push(1);
    spliced.extend_from_slice(&bare[4..]);
    assert_eq!(traced, spliced, "context splice offset drifted");

    // Batch of two empty-payload requests: `count | id u32 LE | tag |
    // len | payload` per entry.
    let got = payload_of(&Frame::Batch(vec![
        (1, None, Frame::HorizonReq),
        (2, None, Frame::StatsScrapeReq),
    ]));
    let mut want = Vec::new();
    leb(2, &mut want);
    for (id, tag) in [(1u32, 0x19u8), (2, 0x1A)] {
        want.extend_from_slice(&id.to_le_bytes());
        want.push(tag);
        leb(0, &mut want);
    }
    assert_eq!(got, want, "context-free Batch layout drifted");

    // DeltaAppend: `shard u16 LE | seq u64 LE | record`, nothing after.
    let mut rng = rng_for("wireplane layout pin record");
    let record = gen_delta_record(&mut rng);
    let got = payload_of(&Frame::DeltaAppend {
        shard: 5,
        seq: 77,
        record: record.clone(),
        ctx: None,
    });
    let mut want = 5u16.to_le_bytes().to_vec();
    want.extend_from_slice(&77u64.to_le_bytes());
    let mut e = telemetry::frame::Enc::new();
    record.enc(&mut e);
    want.extend_from_slice(&e.into_bytes());
    assert_eq!(got, want, "context-free DeltaAppend layout drifted");
}

/// Golden bytes for the frames with a packed collection in their
/// payload — delta-coded host ids, a run-length bitset — hand-assembled
/// from the layout DESIGN §17 documents, so the
/// format is pinned against drift by bytes rather than by a second
/// implementation. Each frame's bytes inside a `Tagged` envelope are the
/// same bytes: a frame has one payload form.
#[test]
fn packed_frame_bytes_match_the_documented_layout() {
    let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
    let mut bits = switchpointer::bitset::BitSet::new(10);
    for i in [2, 3, 9] {
        bits.set(i);
    }
    let mut leading_one = switchpointer::bitset::BitSet::new(3);
    leading_one.set(0);
    let golden: Vec<(Frame, Vec<u8>)> = vec![
        // `switch u32 LE | count | zigzag(first) | zigzag(delta)…`:
        // 3, +2, −1, +196.
        (
            Frame::SizesWaveReq {
                switch: NodeId(5),
                hosts: ids(&[3, 5, 4, 200]),
            },
            vec![5, 0, 0, 0, 4, 6, 4, 1, 0x88, 0x03],
        ),
        // `switch u32 LE | lo u64 LE | hi u64 LE | ids`.
        (
            Frame::FilterWaveReq {
                switch: NodeId(0x0102_0304),
                range: EpochRange { lo: 10, hi: 20 },
                hosts: ids(&[7]),
            },
            [
                &[4u8, 3, 2, 1][..],
                &[10, 0, 0, 0, 0, 0, 0, 0],
                &[20, 0, 0, 0, 0, 0, 0, 0],
                &[1, 14],
            ]
            .concat(),
        ),
        // `switch u32 LE | k varint | ids`: k = 300 is `AC 02`.
        (
            Frame::TopKWaveReq {
                switch: NodeId(9),
                k: 300,
                hosts: ids(&[1, 2]),
            },
            vec![9, 0, 0, 0, 0xAC, 0x02, 2, 2, 2],
        ),
        // `switch u32 LE | ids`, an empty list is its count alone.
        (
            Frame::SizesWaveReq {
                switch: NodeId(5),
                hosts: Vec::new(),
            },
            vec![5, 0, 0, 0, 0],
        ),
        // `0` = no pointers; `1 | capacity | runs…`, runs alternating
        // zeros/ones from a zero run and summing to the capacity.
        (Frame::UnionSliceRep(None), vec![0]),
        (Frame::UnionSliceRep(Some(bits)), vec![1, 10, 2, 2, 5, 1]),
        (Frame::UnionSliceRep(Some(leading_one)), vec![1, 3, 0, 1, 2]),
        (
            Frame::UnionSliceRep(Some(switchpointer::bitset::BitSet::new(0))),
            vec![1, 0],
        ),
    ];
    for (frame, want) in golden {
        let bytes = frame.to_frame_bytes().unwrap();
        let (tag, payload) = read_frame(&mut &bytes[..], MAX_FRAME).unwrap();
        assert_eq!(payload, want, "{frame:?}: payload layout drifted");
        let back = Frame::decode(tag, &want).unwrap();
        assert_eq!(format!("{back:?}"), format!("{frame:?}"));

        let enveloped = Frame::Tagged {
            req_id: 0x0A0B_0C0D,
            ctx: None,
            inner: Box::new(frame.clone()),
        }
        .to_frame_bytes()
        .unwrap();
        let (_, payload) = read_frame(&mut &enveloped[..], MAX_FRAME).unwrap();
        let mut want_enveloped = vec![0x0D, 0x0C, 0x0B, 0x0A, tag];
        want_enveloped.extend_from_slice(&want);
        assert_eq!(
            payload, want_enveloped,
            "{frame:?}: bytes differ inside an envelope"
        );
    }
}

/// The tentpole's end-to-end claim: one client query against a 4-shard
/// cluster yields, via `scrape_traces`, a causally linked span tree
/// that covers the front-end (query/enqueue/exec), the mux (wire) and
/// the shard servers (serve), with per-stage durations that partition
/// the root exactly and never exceed the latency the client measured
/// from outside. Scraping is also pinned side-effect-free: a second
/// scrape sees no spans born of the first.
#[test]
fn one_query_reassembles_into_a_cross_process_stage_tree() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, _) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    let cluster = WireCluster::launch(&analyzer, 4, WireConfig::default()).unwrap();
    let mut client = cluster.client().unwrap();

    let t0 = Instant::now();
    client.query(&reqs[0]).unwrap();
    let e2e = t0.elapsed().as_nanos() as u64;

    let scrape = client.scrape_traces().unwrap();
    assert_eq!(scrape.len(), 5, "front + 4 shards must answer the scrape");
    assert_eq!(scrape[0].0, "front");
    let trees = wireplane::assemble(&scrape);
    let query_trees: Vec<_> = trees
        .iter()
        .filter(|t| t.root().is_some_and(|r| r.stage == "query"))
        .collect();
    assert_eq!(
        query_trees.len(),
        1,
        "exactly one query ran, so exactly one query-rooted trace"
    );
    let tree = query_trees[0];
    assert!(
        tree.causally_linked(),
        "spans from different processes did not link into one tree"
    );
    // The tree crosses processes: the front plus at least one shard.
    let procs = tree.processes();
    assert!(procs.contains("front"), "no front-side spans: {procs:?}");
    assert!(
        procs.iter().any(|p| p.starts_with("shard")),
        "no shard-side spans: {procs:?}"
    );
    // Every stage of the path is present.
    for stage in ["query", "enqueue", "exec", "wire", "serve"] {
        assert!(
            tree.stage_ns(stage) > 0 || stage == "enqueue",
            "stage {stage} missing from the reassembled tree"
        );
    }
    // enqueue + exec partition the root exactly (same three clock
    // reads), and nothing in the tree outlives what the client saw.
    assert_eq!(
        tree.stage_ns("enqueue") + tree.stage_ns("exec"),
        tree.e2e_ns(),
        "front-side stages must partition the root span"
    );
    assert!(
        tree.e2e_ns() <= e2e,
        "the traced e2e ({}) exceeds the client-measured e2e ({e2e})",
        tree.e2e_ns()
    );
    // serve happens inside wire's window, per RPC.
    assert!(
        tree.stage_ns("serve") <= tree.stage_ns("wire"),
        "serve time exceeds the wire time that contains it"
    );

    // Scrape identity: scraping traces makes no traces anywhere.
    let again = client.scrape_traces().unwrap();
    assert_eq!(
        format!("{scrape:?}"),
        format!("{again:?}"),
        "a trace scrape left spans behind"
    );
    cluster.shutdown();
}

/// Trace-context propagation is inert: the same storm of queries and
/// the same standing-query stream produce bit-identical verdicts and
/// incidents whether tracing is off (rate 0), sampling everything
/// (rate 1) or sampling almost nothing (rate 1024).
#[test]
fn sampling_rate_never_changes_verdicts_or_incidents() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, da) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    let mut baseline: Option<(Vec<String>, Vec<String>)> = None;
    for rate in [0u32, 1, 1024] {
        let cluster = WireCluster::launch(
            &analyzer,
            2,
            WireConfig {
                trace_sample_rate: rate,
                ..WireConfig::default()
            },
        )
        .unwrap();
        let mut client = cluster.client().unwrap();
        let verdicts: Vec<String> = reqs
            .iter()
            .map(|r| format!("{:?}", client.query(r).unwrap()))
            .collect();
        let (_, available) = client
            .subscribe(
                StandingQuery::ContentionWatch {
                    victim,
                    victim_dst: da,
                    trigger_window: tb.cfg.trigger.window,
                },
                0,
            )
            .unwrap();
        let incidents: Vec<String> = (0..available)
            .map(|_| format!("{:?}", client.next_incident().unwrap()))
            .collect();
        match &baseline {
            None => baseline = Some((verdicts, incidents)),
            Some((v0, i0)) => {
                assert_eq!(&verdicts, v0, "verdicts changed at sample rate {rate}");
                assert_eq!(&incidents, i0, "incidents changed at sample rate {rate}");
            }
        }
        cluster.shutdown();
    }
}

/// The flight recorder catches a rigged slow query: after warming the
/// shard's rolling latency threshold with cheap queries, one query
/// whose serve is stretched by an injected [`ServeDelay`] must surface
/// as an exemplar trace whose serve-stage span covers the injected
/// delay — even though nothing about the query itself was unusual.
#[test]
fn rigged_serve_delay_pins_a_slow_query_exemplar() {
    let mut tb = scenarios::watch(0).tb;
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 1, WireConfig::default()).unwrap();
    let mut client = cluster.client().unwrap();
    let cheap = QueryRequest::TopK {
        switch: tb.node("edge0_0"),
        k: 4,
        range: EpochRange { lo: 10, hi: 20 },
    };

    // Warm the shard tracer past its exemplar warmup so the rolling
    // threshold is live and far below the delay we are about to inject.
    let delay = Duration::from_millis(25);
    let shard_tracer_ready = || {
        let t = cluster.server_metrics(0).tracer();
        t.slow_threshold_ns() < delay.as_nanos() as u64 / 2
    };
    for _ in 0..200 {
        client.query(&cheap).unwrap();
        if shard_tracer_ready() {
            break;
        }
    }
    assert!(
        shard_tracer_ready(),
        "cheap queries never warmed the shard's slow threshold"
    );

    let rig: ServeDelay = Arc::new(move |req: &Frame| match req {
        Frame::UnionTopKReq { .. } => Duration::from_millis(25),
        _ => Duration::ZERO,
    });
    cluster.set_serve_delay(0, 0, Some(rig));
    client.query(&cheap).unwrap();
    cluster.set_serve_delay(0, 0, None);

    let scrape = client.scrape_traces().unwrap();
    let trees = wireplane::assemble(&scrape);
    let slow: Vec<_> = trees
        .iter()
        .filter(|t| t.has_exemplar() && t.stage_ns("serve") >= delay.as_nanos() as u64)
        .collect();
    assert!(
        !slow.is_empty(),
        "the rigged slow query was not pinned as an exemplar"
    );
    // The exemplar's serve span itself covers the injected delay — the
    // breakdown points at the right stage, not just the right trace.
    let serve_dur = slow
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|(_, s)| s.stage == "serve")
        .map(|(_, s)| s.dur_ns)
        .max()
        .unwrap();
    assert!(
        serve_dur >= delay.as_nanos() as u64,
        "serve-stage span ({serve_dur}ns) does not cover the injected 25ms delay"
    );
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// (e) Overlapped shard fan-out: issue to every shard, then collect
// ----------------------------------------------------------------------

/// How long a parked serve waits for the rest of its fan-out before the
/// test is declared failed (a router that waits on each shard before it
/// issues to the next never completes the rendezvous).
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(5);

/// A serve-side meeting point shared by every shard server of a
/// cluster: an arriving request parks until `parties` requests are
/// parked (and, when `held`, until the test opens the gate). Timing out
/// is recorded, never panicked — a panic would only kill a serve worker
/// and hang the query under test.
struct Rendezvous {
    parties: usize,
    state: Mutex<(usize, bool)>,
    cv: Condvar,
    timed_out: AtomicBool,
}

impl Rendezvous {
    fn new(parties: usize, held: bool) -> Arc<Self> {
        Arc::new(Rendezvous {
            parties,
            state: Mutex::new((0, !held)),
            cv: Condvar::new(),
            timed_out: AtomicBool::new(false),
        })
    }

    fn wait_until(&self, ready: impl Fn(&(usize, bool)) -> bool) {
        let st = self.state.lock().unwrap();
        let (_st, res) = self
            .cv
            .wait_timeout_while(st, RENDEZVOUS_TIMEOUT, |st| !ready(st))
            .unwrap();
        if res.timed_out() {
            self.timed_out.store(true, Ordering::SeqCst);
        }
    }

    /// Called from a serve: park until everyone is here and the gate is
    /// open.
    fn arrive(&self) {
        self.state.lock().unwrap().0 += 1;
        self.cv.notify_all();
        let parties = self.parties;
        self.wait_until(|&(arrived, open)| arrived >= parties && open);
    }

    /// Called from the test: block until `parties` serves are parked.
    fn wait_all_parked(&self) {
        let parties = self.parties;
        self.wait_until(|&(arrived, _)| arrived >= parties);
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }

    fn arrived(&self) -> usize {
        self.state.lock().unwrap().0
    }

    fn timed_out(&self) -> bool {
        self.timed_out.load(Ordering::SeqCst)
    }
}

fn set_serve_delay_everywhere(cluster: &WireCluster, n_shards: usize, delay: Option<ServeDelay>) {
    for s in 0..n_shards {
        cluster.set_serve_delay(s, 0, delay.clone());
    }
}

/// Every host of a k=4 fat tree sending across pods, so that a core
/// switch's pointer union decodes hosts owned by every directory shard.
fn wide_testbed() -> Testbed {
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    for pod in 0..4 {
        for edge in 0..2 {
            for x in 0..2 {
                let src = tb.node(&format!("h{pod}_{edge}_{x}"));
                let dst = tb.node(&format!("h{}_{edge}_{x}", (pod + 2) % 4));
                tb.sim.add_udp_flow(UdpFlowSpec {
                    src,
                    dst,
                    priority: Priority::LOW,
                    start: SimTime::ZERO,
                    duration: SimTime::from_ms(30),
                    rate_bps: 100_000_000,
                    payload_bytes: 1458,
                });
            }
        }
    }
    tb.sim.run_until(SimTime::from_ms(40));
    tb
}

/// A core-switch `TopK` over the wide fixture whose union decodes hosts
/// owned by every one of the cluster's shards, with its clean-run
/// response and counters.
fn full_fanout_top_k(
    tb: &Testbed,
    cluster: &WireCluster,
    n_shards: u64,
) -> (QueryRequest, String, switchpointer::shard::RouterCounters) {
    ["core0_0", "core0_1", "core1_0", "core1_1"]
        .iter()
        .find_map(|name| {
            let req = QueryRequest::TopK {
                switch: tb.node(name),
                k: 10,
                range: EpochRange { lo: 5, hi: 25 },
            };
            let (resp, _, c) = cluster.front().execute(&req);
            let every_shard = c.fanout.host_reads.iter().filter(|&&r| r > 0).count();
            (every_shard as u64 == n_shards).then(|| (req, format!("{resp:?}"), c))
        })
        .expect("fixture regressed: no TopK fans out to every shard")
}

fn rtt_count(cluster: &WireCluster, shard: usize) -> u64 {
    cluster
        .front_metrics()
        .snapshot()
        .hist(&format!("wire.rtt_ns.shard{shard}"))
        .map_or(0, |h| h.count)
}

/// The overlap itself, not a clock reading of it: every shard's serve of
/// the query's one round parks until all four shards hold a
/// `UnionTopKReq`. Only a router with the four requests of the round in
/// flight together ever completes the rendezvous.
#[test]
fn mux_fanout_requests_of_one_round_are_in_flight_together() {
    const N: usize = 4;
    let tb = wide_testbed();
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, N, WireConfig::default()).unwrap();
    let (req, clean, clean_counters) = full_fanout_top_k(&tb, &cluster, N as u64);

    let reads = Rendezvous::new(N, false);
    let delay: ServeDelay = {
        let reads = Arc::clone(&reads);
        Arc::new(move |f: &Frame| {
            if matches!(f, Frame::UnionTopKReq { .. }) {
                reads.arrive();
            }
            Duration::ZERO
        })
    };
    set_serve_delay_everywhere(&cluster, N, Some(delay));
    let (resp, _, counters) = cluster.front().execute(&req);
    set_serve_delay_everywhere(&cluster, N, None);

    assert!(
        !reads.timed_out(),
        "a shard's request waited {RENDEZVOUS_TIMEOUT:?} for its siblings: the fan-out is not overlapped"
    );
    assert_eq!(reads.arrived(), N);
    assert_eq!(format!("{resp:?}"), clean);
    assert_eq!(format!("{resp:?}"), format!("{:?}", analyzer.execute(&req)));
    assert_eq!(counters, clean_counters);
    assert_eq!(
        (counters.rpcs, counters.rounds, counters.wave_rounds),
        (N as u64, 1, 1)
    );
    cluster.shutdown();
}

/// Every shard link dies while all four requests of one fan-out are
/// parked server-side: each exchange re-sends over a fresh dial and the
/// query answers as if nothing happened — one reconnect per shard, and
/// every exchange counted (and timed) once, when it was answered.
#[test]
fn mux_connection_kill_between_issue_and_collect_is_retried_in_place() {
    const N: usize = 4;
    let tb = wide_testbed();
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, N, WireConfig::default()).unwrap();
    let (req, clean, clean_counters) = full_fanout_top_k(&tb, &cluster, N as u64);

    let gate = Rendezvous::new(N, true);
    let delay: ServeDelay = {
        let gate = Arc::clone(&gate);
        Arc::new(move |f: &Frame| {
            if matches!(f, Frame::UnionTopKReq { .. }) {
                gate.arrive();
            }
            Duration::ZERO
        })
    };
    set_serve_delay_everywhere(&cluster, N, Some(delay));
    let reconnects_before = cluster.front().shard_reconnects();
    let rtts_before: Vec<u64> = (0..N).map(|s| rtt_count(&cluster, s)).collect();
    let (resp, counters) = std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            gate.wait_all_parked();
            cluster.front().kill_shard_connections();
            gate.open();
        });
        let (resp, _, counters) = cluster.front().execute(&req);
        killer.join().unwrap();
        (resp, counters)
    });
    set_serve_delay_everywhere(&cluster, N, None);

    assert!(
        !gate.timed_out(),
        "the four top-k requests were never in flight together"
    );
    assert_eq!(format!("{resp:?}"), clean);
    assert_eq!(counters, clean_counters);
    assert_eq!(
        cluster.front().shard_reconnects() - reconnects_before,
        N as u64,
        "each shard link reconnects exactly once"
    );
    for (s, before) in rtts_before.iter().enumerate() {
        assert_eq!(
            rtt_count(&cluster, s) - before,
            1,
            "shard {s}: one exchange answered, observed once"
        );
    }
    cluster.shutdown();
}

/// An exchange that dies in flight has spent the first attempt of its
/// retry budget: with one attempt allowed it is not re-sent, with two it
/// is re-sent once.
#[test]
fn mux_in_flight_death_is_the_first_failure_of_the_exchange_budget() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use switchpointer::shard::ShardBackend;

    let mut tb = scenarios::watch(0).tb;
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 1, WireConfig::default()).unwrap();
    let addr = cluster.shard_addrs()[0];
    let (switch, range) = (tb.node("agg0_0"), EpochRange { lo: 10, hi: 20 });
    let connect = |attempts| {
        RemoteShard::connect_replicated(
            0,
            vec![addr],
            MAX_FRAME,
            RetryPolicy::immediate(attempts),
            None,
            None,
        )
        .unwrap()
    };
    let expected = connect(2).union_slice(switch, range).wait();
    assert!(expected.is_some(), "fixture regressed: empty union slice");

    for attempts in [1usize, 2] {
        let shard = connect(attempts);
        let gate = Rendezvous::new(1, true);
        let delay: ServeDelay = {
            let gate = Arc::clone(&gate);
            Arc::new(move |_: &Frame| {
                gate.arrive();
                Duration::ZERO
            })
        };
        cluster.set_serve_delay(0, 0, Some(delay));
        let in_flight = shard.union_slice(switch, range);
        shard.flush();
        gate.wait_all_parked();
        shard.kill_connection();
        gate.open();
        let got = catch_unwind(AssertUnwindSafe(|| in_flight.wait()));
        cluster.set_serve_delay(0, 0, None);
        assert!(!gate.timed_out());
        if attempts == 1 {
            assert!(got.is_err(), "a spent budget must not buy a re-send");
            assert_eq!((shard.reconnects(), shard.rpcs()), (0, 0));
        } else {
            assert_eq!(got.expect("one attempt was left"), expected);
            assert_eq!((shard.reconnects(), shard.rpcs()), (1, 1));
        }
    }
    cluster.shutdown();
}

/// A shard's RTT runs from issue to the instant a waiter reads its reply
/// off the link, and the fan-out still overlaps: with every shard's
/// serve stretched by `D`, the query takes under `2·D` — not the `4·D`
/// of shards served one after another — and each shard's recorded round
/// trip covers its own stretched serve. (A shard collected after a slow
/// sibling is billed for that wait: no one reads its link meanwhile.)
#[test]
fn mux_stretched_shards_overlap_and_each_rtt_covers_its_serve() {
    const N: usize = 4;
    const D: Duration = Duration::from_millis(400);
    let tb = wide_testbed();
    let analyzer = tb.analyzer();
    // A fresh cluster per phase: the RTT histograms below must hold the
    // stretched query's exchanges and nothing else.
    let probe = WireCluster::launch(&analyzer, N, WireConfig::default()).unwrap();
    let (req, clean, _) = full_fanout_top_k(&tb, &probe, N as u64);
    probe.shutdown();

    let cluster = WireCluster::launch(&analyzer, N, WireConfig::default()).unwrap();
    for shard in 0..N {
        let delay: ServeDelay = Arc::new(|f: &Frame| match f {
            Frame::UnionTopKReq { .. } => D,
            _ => Duration::ZERO,
        });
        cluster.set_serve_delay(shard, 0, Some(delay));
    }
    let started = Instant::now();
    let (resp, _, _) = cluster.front().execute(&req);
    let took = started.elapsed();
    assert_eq!(format!("{resp:?}"), clean);
    assert!(took >= D, "the query cannot beat its slowest shard");
    assert!(
        took < 2 * D,
        "{took:?}: the four stretched serves did not overlap"
    );

    let snap = cluster.front_metrics().snapshot();
    for s in 0..N {
        let h = snap
            .hist(&format!("wire.rtt_ns.shard{s}"))
            .expect("rtt histogram");
        assert_eq!(h.count, 1, "shard {s}: one exchange");
        let rtt = Duration::from_nanos(h.max);
        assert!(rtt >= D, "shard {s} recorded {rtt:?} for a {D:?} serve");
    }
    cluster.shutdown();
}

/// All six query classes at 1/2/4/8 shards: the overlapped wire router
/// answers exactly what `ShardedAnalyzer` and the flat `Analyzer` answer,
/// and routes exactly as the same router does over in-process
/// `LocalBackend`s — every `RouterCounters` field, fan-out included.
#[test]
fn mux_overlapped_fanout_parity_and_counters_at_1_2_4_8_shards() {
    use queryplane::Snapshot;
    use switchpointer::query::QueryExecutor;
    use switchpointer::shard::{BackendRouter, LocalBackend, ShardedDirectory};

    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, _) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    let classes: std::collections::BTreeSet<_> = reqs.iter().map(|r| r.class_name()).collect();
    assert_eq!(classes.len(), 6, "fixture must cover every query class");
    let snapshot = Snapshot::capture(&analyzer, 8);
    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
        let dir = ShardedDirectory::new(
            analyzer.directory().mphf().clone(),
            &analyzer.all_hosts(),
            n_shards,
        );
        let backends: Vec<LocalBackend<'_, Snapshot>> = dir
            .shards()
            .iter()
            .map(|s| LocalBackend::new(s, &snapshot))
            .collect();
        let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
        for (i, req) in reqs.iter().enumerate() {
            let (wire, _, wire_counters) = cluster.front().execute(req);
            let wire = format!("{wire:?}");
            assert_eq!(
                wire,
                format!("{:?}", sharded.execute(req)),
                "query {i} diverged from ShardedAnalyzer at {n_shards} shards"
            );
            assert_eq!(
                wire,
                format!("{:?}", analyzer.execute(req)),
                "query {i} diverged from Analyzer at {n_shards} shards"
            );
            let router = BackendRouter::new(&backends, &dir);
            let local = QueryExecutor::new(analyzer.ctx(), &router).execute(req);
            assert_eq!(wire, format!("{local:?}"));
            assert_eq!(
                wire_counters,
                router.counters(),
                "query {i} routed differently over the wire at {n_shards} shards"
            );
            if is_aggregate(req) {
                assert_eq!(
                    (
                        wire_counters.rpcs,
                        wire_counters.rounds,
                        wire_counters.wave_rounds
                    ),
                    (n_shards as u64, 1, 1),
                    "query {i}: an aggregate is one round at {n_shards} shards"
                );
            }
        }
        cluster.shutdown();
    }
}

/// The front-end's whole-deployment scrapes ask the shards in one
/// overlapped round: each shard's serve of the scrape parks until all
/// four shards hold one, which only completes if the four requests are
/// in flight together. The labelled output and the scrape identity —
/// every shard's entry is exactly that server's registry — are what
/// they were when the shards were asked one after another.
#[test]
fn mux_scrape_requests_of_every_shard_are_in_flight_together() {
    const N: usize = 4;
    let tb = wide_testbed();
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, N, WireConfig::default()).unwrap();
    // Some served traffic first, so the scraped registries are not empty.
    let (req, _, _) = full_fanout_top_k(&tb, &cluster, N as u64);
    cluster.front().execute(&req);
    let clean_stats = cluster.front().scrape().unwrap();
    let clean_traces = cluster.front().scrape_traces().unwrap();

    let stats = Rendezvous::new(N, false);
    let traces = Rendezvous::new(N, false);
    let delay: ServeDelay = {
        let (stats, traces) = (Arc::clone(&stats), Arc::clone(&traces));
        Arc::new(move |f: &Frame| {
            match f {
                Frame::StatsScrapeReq => stats.arrive(),
                Frame::TraceScrapeReq => traces.arrive(),
                _ => {}
            }
            Duration::ZERO
        })
    };
    set_serve_delay_everywhere(&cluster, N, Some(delay));
    let scraped_stats = cluster.front().scrape().unwrap();
    let scraped_traces = cluster.front().scrape_traces().unwrap();
    set_serve_delay_everywhere(&cluster, N, None);

    assert!(
        !stats.timed_out() && !traces.timed_out(),
        "a shard's scrape waited {RENDEZVOUS_TIMEOUT:?} for its siblings: the scrape round is not overlapped"
    );
    assert_eq!((stats.arrived(), traces.arrived()), (N, N));
    let labels: Vec<&str> = scraped_stats.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["front", "shard0", "shard1", "shard2", "shard3"]);
    for (i, (label, snap)) in scraped_stats.iter().skip(1).enumerate() {
        assert_eq!(
            snap,
            &cluster.server_metrics(i).snapshot(),
            "{label}: scraped snapshot diverged from the server registry"
        );
    }
    assert_eq!(scraped_stats, clean_stats, "scraping perturbed the metrics");
    assert_eq!(format!("{scraped_traces:?}"), format!("{clean_traces:?}"));
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// (f) The staged executor and the lock-step wave
// ----------------------------------------------------------------------

/// Seeded mixes of all six query classes, wave sizes 1–40, at 1/2/4
/// shards: entry `i` of `execute_wave(reqs)` is what `execute(&reqs[i])`
/// returns — and what a `BackendRouter` over in-process `LocalBackend`s
/// driving `execute_traced` returns — in response, execution trace
/// **and per-query routing counters**, except that a repeated request's
/// slot carries zeroed counters: the wave ran it once. Who drives a
/// query, and what else shares its flushes, never shows in anything it
/// returns.
#[test]
fn wave_equals_serial_in_response_trace_and_router_counters() {
    use queryplane::Snapshot;
    use switchpointer::query::QueryExecutor;
    use switchpointer::shard::{
        BackendRouter, LocalBackend, RouterCounters, ShardFanout, ShardedDirectory,
    };

    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, _) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let pool = storm_queries(&tb, victim);
    let classes: std::collections::BTreeSet<_> = pool.iter().map(|r| r.class_name()).collect();
    assert_eq!(classes.len(), 6, "fixture must cover every query class");
    let snapshot = Snapshot::capture(&analyzer, 8);
    let mut rng = rng_for("wireplane wave equals serial");
    for n_shards in [1usize, 2, 4] {
        let dir = ShardedDirectory::new(
            analyzer.directory().mphf().clone(),
            &analyzer.all_hosts(),
            n_shards,
        );
        let backends: Vec<LocalBackend<'_, Snapshot>> = dir
            .shards()
            .iter()
            .map(|s| LocalBackend::new(s, &snapshot))
            .collect();
        let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
        for case in 0..10 {
            let size = 1 + rng.below(40) as usize;
            let reqs: Vec<QueryRequest> = (0..size)
                .map(|_| match pool[rng.below(pool.len() as u64) as usize] {
                    // Aggregates also vary their window, so a wave holds
                    // rounds of different width.
                    QueryRequest::TopK { switch, k, .. } => QueryRequest::TopK {
                        switch,
                        k,
                        range: gen_epoch_range(&mut rng),
                    },
                    QueryRequest::LoadImbalance { switch, .. } => QueryRequest::LoadImbalance {
                        switch,
                        range: gen_epoch_range(&mut rng),
                    },
                    other => other,
                })
                .collect();
            let wave = cluster.front().execute_wave(&reqs);
            assert_eq!(wave.len(), reqs.len());
            let zeroed = RouterCounters {
                fanout: ShardFanout::new(n_shards),
                ..RouterCounters::default()
            };
            let mut seen = std::collections::HashSet::new();
            for (i, ((resp, trace, counters), req)) in wave.iter().zip(&reqs).enumerate() {
                let at = format!("case {case}, query {i} of {size}, {n_shards} shard(s)");
                let (s_resp, s_trace, s_counters) = cluster.front().execute(req);
                assert_eq!(format!("{resp:?}"), format!("{s_resp:?}"), "{at}");
                assert_eq!(format!("{trace:?}"), format!("{s_trace:?}"), "{at}");
                let repeat = !seen.insert(*req);
                assert_eq!(
                    *counters,
                    if repeat {
                        zeroed.clone()
                    } else {
                        s_counters.clone()
                    },
                    "{at}"
                );
                let router = BackendRouter::new(&backends, &dir);
                let (l_resp, l_trace) =
                    QueryExecutor::new(analyzer.ctx(), &router).execute_traced(req);
                assert_eq!(format!("{resp:?}"), format!("{l_resp:?}"), "{at} (local)");
                assert_eq!(format!("{trace:?}"), format!("{l_trace:?}"), "{at} (local)");
                assert_eq!(s_counters, router.counters(), "{at} (local)");
                if is_aggregate(req) {
                    assert_eq!(
                        (s_counters.rpcs, s_counters.rounds, s_counters.wave_rounds),
                        (n_shards as u64, 1, 1),
                        "{at}"
                    );
                }
            }
        }
        cluster.shutdown();
    }
}

/// A wave runs each distinct request once, at 1/2/4 shards, whether its
/// repeats are absent, all of it, adjacent or far apart: every slot
/// answers as `Analyzer::execute` does, the front registry's
/// `queryplane.coalesced` grows by slots − distinct, a repeat's routing
/// counters are zeroed, and the wave costs exactly the RPCs and envelope
/// frames of the wave of its distinct requests alone. One front worker,
/// so a wave is one chunk and its frame count is exact.
#[test]
fn a_wave_runs_each_distinct_request_once() {
    use switchpointer::shard::{RouterCounters, ShardFanout};

    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, _) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(40));
    let analyzer = tb.analyzer();
    let mut seen = std::collections::HashSet::new();
    let mut base = storm_queries(&tb, victim);
    base.retain(|r| seen.insert(*r));
    assert!(base.len() >= 6, "the base mix covers every class");
    let shapes: [(&str, Vec<QueryRequest>); 4] = [
        ("no repeats", base.clone()),
        ("all the same", vec![base[0]; 6]),
        ("adjacent", base.iter().flat_map(|&r| [r, r]).collect()),
        ("far apart", base.iter().chain(&base).copied().collect()),
    ];
    let cfg = WireConfig {
        front_workers: 1,
        ..WireConfig::default()
    };
    for n_shards in [1usize, 2, 4] {
        let cluster = WireCluster::launch(&analyzer, n_shards, cfg).unwrap();
        let front = cluster.front();
        let coalesced = || {
            cluster
                .front_metrics()
                .counter("queryplane.coalesced")
                .get()
        };
        // What a wave cost: (RPCs, envelope frames, coalesced copies).
        let cost = |reqs: &[QueryRequest]| {
            let before = (front.counters().rpcs, front.wire_frames_sent(), coalesced());
            let out = front.execute_wave(reqs);
            let after = (front.counters().rpcs, front.wire_frames_sent(), coalesced());
            (
                out,
                (after.0 - before.0, after.1 - before.1, after.2 - before.2),
            )
        };
        for (shape, reqs) in &shapes {
            let at = format!("{shape}, {n_shards} shard(s)");
            let mut seen = std::collections::HashSet::new();
            let distinct: Vec<QueryRequest> =
                reqs.iter().copied().filter(|r| seen.insert(*r)).collect();
            let (_, alone) = cost(&distinct);
            assert_eq!(alone.2, 0, "{at}: a wave of distinct requests copies none");
            let (out, with_repeats) = cost(reqs);
            assert_eq!(
                (with_repeats.0, with_repeats.1),
                (alone.0, alone.1),
                "{at}: RPCs and frames of the wave vs its distinct requests alone"
            );
            assert_eq!(
                with_repeats.2,
                (reqs.len() - distinct.len()) as u64,
                "{at}: queryplane.coalesced"
            );
            let zeroed = RouterCounters {
                fanout: ShardFanout::new(n_shards),
                ..RouterCounters::default()
            };
            let mut first = std::collections::HashSet::new();
            for (i, ((resp, _, counters), req)) in out.iter().zip(reqs).enumerate() {
                assert_eq!(
                    format!("{resp:?}"),
                    format!("{:?}", analyzer.execute(req)),
                    "{at}: slot {i}"
                );
                if !first.insert(*req) {
                    assert_eq!(*counters, zeroed, "{at}: slot {i} is a copy");
                }
            }
        }
        cluster.shutdown();
    }
}

/// `TopK` or `LoadImbalance`: the classes answered in one fused round.
fn is_aggregate(req: &QueryRequest) -> bool {
    matches!(
        req,
        QueryRequest::TopK { .. } | QueryRequest::LoadImbalance { .. }
    )
}

/// The payload of a caught panic, when it is a message.
fn panic_message(caught: std::thread::Result<impl Sized>) -> String {
    let payload = caught.err().expect("the query was meant to panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Seeded switches, windows and `k` at 1/2/4/8 shards: a `TopK` or a
/// `LoadImbalance` answered in one round — every shard decoding its own
/// slice of the union and answering for the hosts it decoded — returns
/// exactly the response and execution trace of `Analyzer`'s executor,
/// over in-process `LocalBackend`s and over `RemoteShard`s alike, in one
/// RPC per shard. Pinned on purpose: a window no pointer covers (an empty
/// decode), and a node with no SwitchPointer component (the same panic).
#[test]
fn one_round_aggregates_equal_the_analyzer_in_response_and_trace() {
    use queryplane::Snapshot;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use switchpointer::query::QueryExecutor;
    use switchpointer::shard::{BackendRouter, LocalBackend, ShardedDirectory};

    let tb = wide_testbed();
    let analyzer = tb.analyzer();
    let switches = analyzer.all_switches();
    let snapshot = Snapshot::capture(&analyzer, 8);
    let flat = |req: &QueryRequest| {
        let live = analyzer.live_view();
        QueryExecutor::new(analyzer.ctx(), &live).execute_traced(req)
    };
    let quiet = EpochRange {
        lo: 1 << 40,
        hi: (1 << 40) + 3,
    };
    let mut rng = rng_for("wireplane one-round aggregates");
    for n_shards in [1usize, 2, 4, 8] {
        let dir = ShardedDirectory::new(
            analyzer.directory().mphf().clone(),
            &analyzer.all_hosts(),
            n_shards,
        );
        let backends: Vec<LocalBackend<'_, Snapshot>> = dir
            .shards()
            .iter()
            .map(|s| LocalBackend::new(s, &snapshot))
            .collect();
        let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
        let mut reqs: Vec<QueryRequest> = (0..24)
            .map(|i| {
                let switch = switches[rng.below(switches.len() as u64) as usize];
                let range = gen_epoch_range(&mut rng);
                match i % 2 {
                    0 => QueryRequest::TopK {
                        switch,
                        k: rng.below(12) as usize,
                        range,
                    },
                    _ => QueryRequest::LoadImbalance { switch, range },
                }
            })
            .collect();
        reqs.push(QueryRequest::TopK {
            switch: switches[0],
            k: 5,
            range: quiet,
        });
        reqs.push(QueryRequest::LoadImbalance {
            switch: switches[0],
            range: quiet,
        });
        let (mut decoded, mut empty) = (0, 0);
        for (i, req) in reqs.iter().enumerate() {
            let at = format!("query {i} at {n_shards} shard(s): {req:?}");
            let (resp, trace) = flat(req);
            let router = BackendRouter::new(&backends, &dir);
            let (l_resp, l_trace) = QueryExecutor::new(analyzer.ctx(), &router).execute_traced(req);
            let (w_resp, w_trace, w_counters) = cluster.front().execute(req);
            for (path, got_resp, got_trace) in [
                ("local", format!("{l_resp:?}"), format!("{l_trace:?}")),
                ("wire", format!("{w_resp:?}"), format!("{w_trace:?}")),
            ] {
                assert_eq!(got_resp, format!("{resp:?}"), "{at} ({path})");
                assert_eq!(got_trace, format!("{trace:?}"), "{at} ({path})");
            }
            assert_eq!(w_counters, router.counters(), "{at}");
            assert_eq!(
                (w_counters.rpcs, w_counters.rounds, w_counters.wave_rounds),
                (n_shards as u64, 1, 1),
                "{at}"
            );
            if trace.waves[0].is_empty() {
                empty += 1;
            } else {
                decoded += 1;
            }
        }
        assert!(
            decoded > 0 && empty > 0,
            "fixture regressed: {decoded} decoding and {empty} empty reads"
        );

        // A host carries no SwitchPointer component: every path refuses
        // the read the same way, and the front-end keeps serving.
        let host = analyzer.all_hosts()[0];
        for req in [
            QueryRequest::TopK {
                switch: host,
                k: 3,
                range: EpochRange { lo: 5, hi: 25 },
            },
            QueryRequest::LoadImbalance {
                switch: host,
                range: EpochRange { lo: 5, hi: 25 },
            },
        ] {
            let expected = panic_message(catch_unwind(AssertUnwindSafe(|| flat(&req))));
            assert!(
                expected.contains("no SwitchPointer component"),
                "{expected}"
            );
            let router = BackendRouter::new(&backends, &dir);
            let local = catch_unwind(AssertUnwindSafe(|| {
                QueryExecutor::new(analyzer.ctx(), &router).execute_traced(&req)
            }));
            assert_eq!(panic_message(local), expected);
            let wire = catch_unwind(AssertUnwindSafe(|| cluster.front().execute(&req)));
            assert_eq!(panic_message(wire), expected);
        }
        let (resp, _, _) = cluster.front().execute(&reqs[0]);
        assert_eq!(format!("{resp:?}"), format!("{:?}", flat(&reqs[0]).0));
        cluster.shutdown();
    }
}

/// A sliding `TopK` and a sliding `LoadImbalance` on every switch of the
/// k=4 fat tree: 40 standing aggregates.
fn sliding_aggregates(analyzer: &switchpointer::Analyzer) -> Vec<StandingQuery> {
    let topics: Vec<StandingQuery> = analyzer
        .all_switches()
        .into_iter()
        .flat_map(|switch| {
            [
                StandingQuery::TopKSliding {
                    switch,
                    k: 10,
                    epochs_back: 20,
                },
                StandingQuery::LoadImbalanceSliding {
                    switch,
                    epochs_back: 20,
                },
            ]
        })
        .collect();
    assert_eq!(topics.len(), 40, "a k=4 fat tree has 20 switches");
    topics
}

/// A window is one batched round per worker, in counts: 40 sliding
/// aggregates on a 4-shard cluster close a window in at most
/// `shards × (1 + front_workers)` envelope frames — the horizon round,
/// then per worker one frame per shard for its chunk's aggregate reads
/// (a query-at-a-time window sends ≈ 4 per topic) — while the routing
/// counters grow by exactly what the same 40 queries add when executed
/// one by one.
#[test]
fn mux_window_of_standing_aggregates_is_one_batched_round_per_worker() {
    const N: usize = 4;
    let tb = wide_testbed();
    let analyzer = tb.analyzer();
    let cfg = WireConfig::default();
    let cluster = WireCluster::launch(&analyzer, N, cfg).unwrap();
    let topics = sliding_aggregates(&analyzer);
    let mut client = cluster.client().unwrap();
    for q in &topics {
        client.subscribe(*q, 0).unwrap();
    }

    let frames_before = cluster.front().wire_frames_sent();
    let before = cluster.front().counters();
    let summary = cluster.close_window();
    let frames = cluster.front().wire_frames_sent() - frames_before;
    let after = cluster.front().counters();
    assert_eq!((summary.evaluated, summary.pending), (40, 0));
    let bound = (N * (1 + cfg.front_workers)) as u64;
    assert!(
        frames <= bound,
        "the window put {frames} envelope frames on the wire, more than {N} x (1 + {}) = {bound}",
        cfg.front_workers
    );
    let wave_frames = cluster
        .front_metrics()
        .snapshot()
        .hist("wire.frames_per_wave")
        .expect("the window ran a wave")
        .max;
    assert!(wave_frames <= (N * cfg.front_workers) as u64);

    // The same 40 queries, one by one. The window's own extra is its
    // horizon round: one RPC per shard, one round.
    let (mut rpcs, mut rounds) = (N as u64, 1u64);
    for q in &topics {
        let req = q
            .resolve(&analyzer.live_view(), summary.horizon)
            .expect("sliding aggregates always resolve");
        let (_, _, c) = cluster.front().execute(&req);
        rpcs += c.rpcs;
        rounds += c.rounds;
    }
    assert_eq!(
        (after.rpcs - before.rpcs, after.rounds - before.rounds),
        (rpcs, rounds),
        "batching the window's frames must not change what was routed"
    );
    let (incidents, win) = client.drain_window().unwrap();
    assert_eq!(win.window, summary.window);
    assert_eq!(incidents.len() as u64, summary.incidents);
    cluster.shutdown();
}

/// Closes a window during which every shard loses its primary: each
/// primary reports the first read of the window's wave — any enveloped
/// read but the horizon round's — and holds it while the test kills all
/// of them, so the horizon round has been answered and the wave is in
/// flight when they die. `Err` when the window was lost to it
/// (`close_window` panicked). A wave that never reaches a primary fails
/// the test after [`RENDEZVOUS_TIMEOUT`] instead of hanging it.
fn close_window_losing_primaries(
    cluster: &WireCluster,
    n_shards: usize,
) -> std::thread::Result<wireplane::WindowSummary> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    let (tx, rx) = mpsc::channel::<()>();
    let tx = Mutex::new(tx);
    let delay: ServeDelay = Arc::new(move |f: &Frame| match f {
        Frame::HorizonReq => Duration::ZERO,
        _ => {
            let _ = tx.lock().unwrap().send(());
            Duration::from_millis(50)
        }
    });
    for shard in 0..n_shards {
        cluster.set_serve_delay(shard, 0, Some(delay.clone()));
    }
    std::thread::scope(|scope| {
        let killer = scope.spawn(move || {
            rx.recv_timeout(RENDEZVOUS_TIMEOUT)
                .expect("the window's wave reached a primary");
            for shard in 0..n_shards {
                assert!(cluster.kill_primary(shard), "primary already dead");
            }
        });
        let window = catch_unwind(AssertUnwindSafe(|| cluster.close_window()));
        killer.join().unwrap();
        window
    })
}

/// A failed window must not take the front-end with it. With every shard
/// server dying under the window's wave `close_window` panics (a shard
/// past its retry budget) — and afterwards the same front-end still
/// acknowledges a fresh subscribe, still serves its topic table, and
/// still tears a dropped watcher connection down: none of them finds a
/// poisoned lock.
#[test]
fn failed_window_leaves_the_front_end_serving_subscribes_and_teardowns() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, da) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(20));
    let analyzer = tb.analyzer();
    let n_shards = 2usize;
    let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
    let subs = watch_subscriptions(&tb, victim, da);
    let mut watcher = cluster.client().unwrap();
    for q in &subs[..3] {
        watcher.subscribe(*q, 0).unwrap();
    }
    let healthy = cluster.close_window();
    assert_eq!(healthy.evaluated, 3);

    let failed = close_window_losing_primaries(&cluster, n_shards);
    assert!(
        failed.is_err(),
        "a window over no shard server cannot close"
    );

    // A fresh subscribe, on a fresh connection, is acknowledged...
    let mut late = cluster.client().unwrap();
    let (sub, available) = late
        .subscribe(subs[3], 0)
        .expect("the failed window poisoned the topic table");
    assert_eq!(sub, SubscriptionId(3));
    assert_eq!(available, 0);
    // ...the existing watcher's connection tears down (its listener
    // thread takes the same lock to reap the watchers)...
    drop(watcher);
    // ...and the table is still there to be read and subscribed to.
    assert_eq!(cluster.front().incident_logs().len(), 4);
    let (again, _) = late.subscribe(subs[0], 0).unwrap();
    assert_eq!(again, SubscriptionId(0));
    cluster.shutdown();
}

/// Primaries lost *mid-window*: every primary is killed while it holds a
/// request of the window's wave. Whether that window rides the failover
/// through or is lost to the retry budget, the next one closes on the
/// standbys and the subscriber's stream stays seq-continuous — zero
/// duplicated, zero dropped pushes.
#[test]
fn primaries_lost_mid_window_leave_the_next_window_seq_continuous() {
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, da) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(10));
    let analyzer = tb.analyzer();
    let n_shards = 2usize;
    let cluster =
        WireCluster::launch_replicated(&analyzer, n_shards, 2, WireConfig::default()).unwrap();
    let subs = watch_subscriptions(&tb, victim, da);
    let mut client = cluster.client().unwrap();
    for q in &subs {
        client.subscribe(*q, 0).unwrap();
    }
    let mut collected = Collected::default();
    let mut drain = |client: &mut WireClient, window: u64| {
        let (incidents, win) = client.drain_window().unwrap();
        assert_eq!(win.window, window);
        for (seq, incident) in incidents {
            collected.take(seq, incident);
        }
    };
    let w0 = cluster.close_window();
    drain(&mut client, w0.window);

    // Window 1 loses every primary under its wave.
    tb.sim.run_until(SimTime::from_ms(25));
    cluster.refresh(&analyzer);
    let w1 = close_window_losing_primaries(&cluster, n_shards);
    if let Ok(w1) = w1 {
        drain(&mut client, w1.window);
    }

    // Window 2, on the standbys.
    tb.sim.run_until(SimTime::from_ms(40));
    cluster.refresh(&analyzer);
    let w2 = cluster.close_window();
    assert_eq!(w2.window, 2);
    assert_eq!(w2.evaluated, subs.len() as u64);
    drain(&mut client, w2.window);
    assert!(
        cluster.front().active_replicas().iter().all(|&r| r == 1),
        "some shard still points at its dead primary"
    );
    cluster.shutdown();
}

/// What a subscriber reads for one window is the concatenation of the
/// individual frames — each topic's new incidents in subscription order,
/// then the window digest — and nothing else, whether the front-end
/// writes them one by one or as one buffer.
#[test]
fn window_byte_stream_is_the_frames_in_subscription_order_then_the_digest() {
    use std::io::{Read, Write};

    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, da) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(25));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 2, WireConfig::default()).unwrap();
    let subs = watch_subscriptions(&tb, victim, da);

    let mut raw = std::net::TcpStream::connect(cluster.front_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        Frame::read(&mut raw, MAX_FRAME).unwrap(),
        Frame::Hello { .. }
    ));
    for (i, q) in subs.iter().enumerate() {
        let req = Frame::SubscribeReq {
            query: *q,
            resume_after: 0,
        };
        raw.write_all(&req.to_frame_bytes().unwrap()).unwrap();
        match Frame::read(&mut raw, MAX_FRAME).unwrap() {
            Frame::SubscribeRep { sub, available } => {
                assert_eq!((sub, available), (SubscriptionId(i as u64), 0))
            }
            other => panic!("expected a subscribe ack, got {other:?}"),
        }
    }

    let summary = cluster.close_window();
    assert!(
        summary.incidents >= 3,
        "fixture regressed: a first window opens every topic"
    );
    let mut expected = Vec::new();
    for (_, log) in cluster.front().incident_logs() {
        for (seq, incident) in log.into_iter().enumerate() {
            let frame = Frame::IncidentPush {
                seq: seq as u64,
                incident,
            };
            expected.extend(frame.to_frame_bytes().unwrap());
        }
    }
    expected.extend(Frame::WindowPush(summary).to_frame_bytes().unwrap());
    let mut got = vec![0u8; expected.len()];
    raw.read_exact(&mut got).unwrap();
    assert_eq!(got, expected);
    // Nothing follows the digest.
    raw.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    assert!(
        matches!(raw.read(&mut [0u8; 1]), Err(e) if e.kind() != std::io::ErrorKind::UnexpectedEof)
    );
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Counted bars: coalescing against the modelled budget, fan-out overlap,
// thread hand-offs of a closed loop
// ----------------------------------------------------------------------

/// A `TopK` and a `LoadImbalance` at each aggregation and core switch over
/// a wide trailing window: pointer unions that decode much of the fabric,
/// so every query fans out to many hosts.
fn aggregate_sweep(tb: &Testbed) -> Vec<QueryRequest> {
    let range = EpochRange { lo: 5, hi: 25 };
    [
        "agg0_0", "agg0_1", "agg1_0", "agg1_1", "agg2_0", "agg2_1", "agg3_0", "agg3_1", "core0_0",
        "core0_1", "core1_0", "core1_1",
    ]
    .iter()
    .flat_map(|name| {
        let switch = tb.node(name);
        [
            QueryRequest::TopK {
                switch,
                k: 10,
                range,
            },
            QueryRequest::LoadImbalance { switch, range },
        ]
    })
    .collect()
}

/// The cost model's per-host RPC term against what the wire measures, on
/// [`aggregate_sweep`] of `scenarios::watch(21)` at 1/2/4/8 shards. The term
/// is one RPC per (wave, host) pair of the in-process traces. A coalesced
/// wave is one round trip however many hosts it reaches, so the wire's
/// wave rounds stay within the term; the naive regime ([`naive_regime`]:
/// the in-process router without coalescing, one RPC per host) pays at
/// least all of it, and more RPCs in all than the wire (whose fused
/// aggregate read asks every shard but carries the union round the naive
/// regime pays apart). At 4 shards the naive regime's per-host wave RPCs
/// are at least 4× the wire's wave round trips. Verdicts equal the
/// analyzer's in both regimes.
#[test]
fn coalesced_waves_stay_within_the_modelled_per_host_budget_at_1_2_4_8_shards() {
    let tb = scenarios::watch(21).run().tb;
    let analyzer = tb.analyzer();
    let reqs = aggregate_sweep(&tb);
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();
    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
        let budget: u64 = reqs
            .iter()
            .map(|r| {
                let (_, trace, _) = sharded.execute_traced(r);
                trace.waves.iter().map(|w| w.len() as u64).sum::<u64>()
            })
            .sum();
        let cluster = WireCluster::launch(&analyzer, n_shards, WireConfig::default()).unwrap();
        for (i, req) in reqs.iter().enumerate() {
            let (resp, _, _) = cluster.front().execute(req);
            assert_eq!(
                format!("{resp:?}"),
                baseline[i],
                "query {i} diverged at {n_shards} shards"
            );
        }
        let batched = cluster.front().counters();
        cluster.shutdown();
        let (naive_verdicts, naive) = naive_regime(&analyzer, n_shards, &reqs);
        assert_eq!(
            naive_verdicts, baseline,
            "the per-host regime diverged at {n_shards} shards"
        );
        assert!(
            batched.wave_rounds <= budget,
            "{n_shards} shards: {} coalesced wave round trips exceed the modelled per-host \
             budget {budget}",
            batched.wave_rounds
        );
        assert!(
            naive.rpcs > batched.rpcs,
            "{n_shards} shards: coalescing saved no frames ({} vs naive {})",
            batched.rpcs,
            naive.rpcs
        );
        assert!(
            naive.wave_rpcs >= budget,
            "{n_shards} shards: the naive regime paid {} per-host RPCs, under the modelled {budget}",
            naive.wave_rpcs
        );
        if n_shards == 4 {
            assert!(
                naive.wave_rpcs >= 4 * batched.wave_rounds,
                "4 shards: naive {} per-host RPCs vs {} coalesced round trips is under 4x",
                naive.wave_rpcs,
                batched.wave_rounds
            );
        }
    }
}

/// Ceiling on the overlap ratio of [`a_serial_fanout_overlaps_its_round_trips`].
/// A router that waits on each shard before asking the next spends at
/// least the sum of its round trips, so its ratio is ≥ 1 on any machine.
const OVERLAP_RATIO_MAX: f64 = 0.7;

/// The overlap of a shard fan-out, as a same-run ratio: the wall clock
/// of 200 serial `TopK`s that each ask all 8 shards, over the sum of the
/// round trips of their RPCs (the front-end's own `wire.rtt_ns.shard{N}`
/// samples of exactly those RPCs, one per RPC). Both sides come from the
/// same queries on the same cluster, so the runner's speed and core count
/// cancel out.
#[test]
fn a_serial_fanout_overlaps_its_round_trips() {
    const N: usize = 8;
    const REPEATS: u64 = 200;
    let tb = wide_testbed();
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, N, WireConfig::default()).unwrap();
    let req = QueryRequest::TopK {
        switch: tb.node("core0_0"),
        k: 10,
        range: EpochRange { lo: 5, hi: 25 },
    };
    let rtt_totals = || {
        let snap = cluster.front_metrics().snapshot();
        (0..N)
            .filter_map(|s| snap.hist(&format!("wire.rtt_ns.shard{s}")))
            .fold((0, 0), |(sum, count), h| (sum + h.sum, count + h.count))
    };
    let (sum0, count0) = rtt_totals();
    let mut rpcs = 0u64;
    let t0 = Instant::now();
    for _ in 0..REPEATS {
        rpcs += cluster.front().execute(&req).2.rpcs;
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let (sum, count) = rtt_totals();
    cluster.shutdown();
    assert_eq!(rpcs, REPEATS * N as u64, "each TopK asks every shard once");
    assert_eq!(
        count - count0,
        rpcs,
        "every routed RPC must leave exactly one RTT sample"
    );
    let ratio = wall_ns / (sum - sum0) as f64;
    assert!(
        ratio < OVERLAP_RATIO_MAX,
        "{REPEATS} serial TopKs of {N} RPCs took {:.0} us against {:.0} us of summed round \
         trips (ratio {ratio:.2}, must stay under {OVERLAP_RATIO_MAX}): the fan-out is not \
         overlapped",
        wall_ns / 1e3,
        (sum - sum0) as f64 / 1e3
    );
}

/// A closed loop costs no thread hand-off, in counts: 500 sequential
/// client queries on a fresh 4-shard cluster leave the front-end's pool
/// workers untouched — a wave of one runs on the connection thread that
/// decoded it. (A shard serves every envelope on the thread that read
/// it, so there is no server-side hand-off to count.) Every answer
/// equals the analyzer's.
#[test]
fn a_closed_loop_of_client_queries_costs_no_thread_hand_off() {
    const N: usize = 4;
    const QUERIES: usize = 500;
    let tb = wide_testbed();
    let analyzer = tb.analyzer();
    let reqs = aggregate_sweep(&tb);
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();
    let cfg = WireConfig::default();
    let cluster = WireCluster::launch(&analyzer, N, cfg).unwrap();
    let mut client = cluster.client().unwrap();
    let pool_ns = || {
        let snap = cluster.front_metrics().snapshot();
        (0..cfg.front_workers)
            .map(|w| {
                snap.counter(&format!("pool.worker{w}.busy_ns"))
                    + snap.counter(&format!("pool.worker{w}.idle_ns"))
            })
            .sum::<u64>()
    };
    let pool_before = pool_ns();
    for i in 0..QUERIES {
        let resp = client.query(&reqs[i % reqs.len()]).unwrap();
        assert_eq!(
            format!("{resp:?}"),
            baseline[i % reqs.len()],
            "query {i} diverged"
        );
    }
    let pool_moved = pool_ns() - pool_before;
    drop(client);
    cluster.shutdown();
    assert_eq!(
        pool_moved, 0,
        "{QUERIES} sequential client queries moved the front-end's pool workers by \
         {pool_moved} ns: a wave of one must run on its connection thread"
    );
}
