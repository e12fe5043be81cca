//! The replication subsystem's contract:
//!
//! (a) **No divergence, ever.** Under any random interleaving of delta
//!     appends, retention sweeps, primary kills, and fresh-standby
//!     bootstraps — at 1/2/4/8 shards — every live replica's served
//!     state equals the owner's authoritative slice **bit for bit** at
//!     every applied seq, and its log position equals the owner's head.
//! (b) **Gaps are typed, never silent.** A replica refuses an
//!     out-of-sequence append with [`WireError::SeqGap`] naming exactly
//!     the seq it expects; the in-sequence append then succeeds.
//! (c) **Publication is observable.** The owner's `repl.*` metrics
//!     account one publish per refresh, every bootstrap, and a lag of
//!     zero once every live replica acked the head.
//! (d) **One ladder, at every replica count.** A replica that refuses
//!     the next append climbs straight to a snapshot bootstrap and is
//!     bit-identical to the owner again, with one replica per shard or
//!     two.
//! (e) **A refresh costs what changed, and the counts say so.** Every
//!     shard's append is on the wire before the first ack is read (a
//!     rendezvous only N appends in flight can pass); the owner copies
//!     exactly what its `SnapshotDelta` reports and a replica exactly
//!     what its record names — everything else is the same allocation as
//!     before the refresh; and two writers racing one seq land exactly
//!     one of them.
//! (f) **A malformed store is refused before it is installed.** A record
//!     shard whose flow ids do not ascend strictly, a record outside its
//!     shard, a store of other than `RECORD_SHARDS` shards, and a record
//!     count that is not the patched store's each surface a typed error.

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

use netsim::prelude::*;
use obsplane::MetricsRegistry;
use proptest::rng_for;
use queryplane::{DeltaRecord, HostPatch, HostPatchKind, RetentionPolicy, Snapshot, Unshared};
use switchpointer::host::TriggerEvent;
use switchpointer::hoststore::{shard_of, FlowRecord, RecordShard, RECORD_SHARDS};
use switchpointer::retention;
use switchpointer::shard::{host_shard_of, ShardedDirectory};
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::frame::{Dec, Enc, Wire, WireError};
use wireplane::{DeltaPublisher, Frame, ReplicaWriter, RetryPolicy, WireCluster, WireConfig};

/// A chain with steady cross-traffic, so every few-ms advance journals a
/// non-trivial delta (new epochs on every switch, record growth on the
/// endpoints' hosts).
fn replication_testbed() -> Testbed {
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, b) = (tb.node("A"), tb.node("B"));
    let (d, f) = (tb.node("D"), tb.node("F"));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(60),
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
    tb
}

/// Asserts every live replica of every shard sits at the owner's head
/// and serves a state bit-identical to the owner's slice.
fn assert_no_divergence(cluster: &WireCluster, n_shards: usize, ctx: &str) {
    let heads = cluster.heads();
    let applied = cluster.applied_seqs();
    for s in 0..n_shards {
        let owner = cluster.owner_slice(s);
        let mut live = 0;
        for (r, a) in applied[s].iter().enumerate() {
            let Some(a) = a else { continue };
            live += 1;
            assert_eq!(*a, heads[s], "{ctx}: shard {s} replica {r} lagging");
            let state = cluster.replica_state(s, r).expect("live replica");
            assert!(
                state.view == owner,
                "{ctx}: shard {s} replica {r} diverged from owner"
            );
        }
        assert!(live >= 1, "{ctx}: shard {s} lost every replica");
    }
}

/// (a) — the tentpole pin. Random walks over {advance+publish, sweep,
/// add fresh standby, kill a replica}, at every shard count, launched
/// with one replica per shard (the deployment the benchmark runs; the
/// walk skips the kill, which would leave a shard nobody serves) and
/// with two.
#[test]
fn replicas_bit_identical_at_every_applied_seq_under_random_interleavings() {
    for (n_shards, n_replicas) in [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|s| [(s, 1usize), (s, 2)])
    {
        let mut rng = rng_for("replica divergence");
        let mut tb = replication_testbed();
        tb.sim.run_until(SimTime::from_ms(5));
        let analyzer = tb.analyzer();
        let cluster =
            WireCluster::launch_replicated(&analyzer, n_shards, n_replicas, WireConfig::default())
                .unwrap();
        assert_no_divergence(&cluster, n_shards, "at launch");

        let mut now_ms = 5u64;
        let mut killed_one = false;
        for step in 0..14 {
            match rng.below(4) {
                // Advance the deployment and publish the delta.
                0 | 1 => {
                    now_ms += 1 + rng.below(3);
                    tb.sim.run_until(SimTime::from_ms(now_ms));
                }
                // Retention sweep: mutates the live deployment; the
                // reclamation must ride the next published record.
                2 => {
                    let policy = RetentionPolicy {
                        keep_epochs: 4 + rng.below(12),
                        shard_record_budget: usize::MAX,
                    };
                    retention::sweep(&analyzer, policy, n_shards, &[]);
                }
                // A fresh standby joins mid-flight: spawned from the
                // owner's current slice, snapshot-bootstrapped to the
                // head, then fed in sequence like everyone else.
                _ => {
                    let shard = rng.below(n_shards as u64) as usize;
                    cluster.add_standby(shard).unwrap();
                }
            }
            // Kill one primary exactly once, mid-walk: the standbys must
            // carry the shard alone from then on.
            if step == 7 && n_replicas > 1 {
                let shard = rng.below(n_shards as u64) as usize;
                assert!(cluster.kill_primary(shard));
                killed_one = true;
            }
            cluster.refresh(&analyzer);
            assert_no_divergence(&cluster, n_shards, &format!("step {step}"));
        }
        assert_eq!(killed_one, n_replicas > 1);

        // (c) Publication accounting: one publish per refresh, at least
        // one bootstrap per standby added, zero lag at rest.
        let owner = cluster.owner_metrics().snapshot();
        assert_eq!(owner.counter("repl.published"), 14);
        assert_eq!(
            owner.gauges.get("repl.lag").copied(),
            Some(0),
            "lag must be zero once every live replica acked the head"
        );
        cluster.shutdown();
    }
}

/// (b) — the seq protocol, driven raw: a writer that skips ahead gets a
/// typed `SeqGap` naming the seq the replica expects; supplying exactly
/// that seq succeeds.
#[test]
fn out_of_sequence_appends_refuse_with_a_typed_gap() {
    let mut tb = replication_testbed();
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 1, WireConfig::default()).unwrap();

    // One in-band refresh: the shard's replication log is at seq 1.
    tb.sim.run_until(SimTime::from_ms(8));
    cluster.refresh(&analyzer);
    assert_eq!(cluster.applied_seqs(), vec![vec![Some(1)]]);

    // A second writer skips to seq 7: typed refusal, position unmoved.
    let addr = cluster.shard_addrs()[0];
    let w = ReplicaWriter::connect(
        0,
        addr,
        WireConfig::default().max_frame,
        RetryPolicy::immediate(1),
    )
    .unwrap();
    match w.append(7, &DeltaRecord::default()) {
        Err(WireError::SeqGap { expected, got }) => {
            assert_eq!((expected, got), (2, 7));
        }
        other => panic!("expected SeqGap, got {other:?}"),
    }
    assert_eq!(
        cluster.applied_seqs(),
        vec![vec![Some(1)]],
        "refused append must not move the log"
    );

    // The seq it asked for lands (an empty record is a valid no-op).
    assert_eq!(w.append(2, &DeltaRecord::default()).unwrap(), 2);
    assert_eq!(cluster.applied_seqs(), vec![vec![Some(2)]]);

    // Status probe agrees.
    assert_eq!(w.status().unwrap(), 2);
    cluster.shutdown();
}

/// The server survives a malformed replication payload: a frame whose
/// record bytes are garbage yields a typed error reply on that
/// connection, and the replica's state and log position are untouched.
#[test]
fn corrupt_replication_frames_never_move_the_log() {
    let mut tb = replication_testbed();
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 1, WireConfig::default()).unwrap();
    let before = format!("{:?}", cluster.applied_seqs());

    // A snapshot install whose view bytes are garbage: typed error.
    let addr = cluster.shard_addrs()[0];
    let w = ReplicaWriter::connect(
        0,
        addr,
        WireConfig::default().max_frame,
        RetryPolicy::immediate(1),
    )
    .unwrap();
    assert!(w.install(1, vec![0xA5; 32]).is_err());
    assert_eq!(format!("{:?}", cluster.applied_seqs()), before);

    // The same connection still serves well-formed traffic afterwards.
    assert_eq!(w.status().unwrap(), 0);
    cluster.shutdown();
}

/// (d) — the whole ladder, at one replica per shard and at two. A raw
/// writer appends at `head + 1` behind the cluster's back, so the
/// primary is one record ahead of what the owner believes and serving a
/// state the owner never held. The next refresh's append meets a typed
/// `SeqGap` and climbs to a bootstrap: the primary is bit-identical to
/// the owner again, counted once, with nothing lagging — while a standby
/// beside it took the same refresh as a plain append. The trace of a
/// healthy append crosses the wire: the replica's apply-stage span hangs
/// off the owner's replicate-stage root, both scraped through the front.
#[test]
fn a_refused_append_climbs_to_a_bootstrap_at_one_replica_and_at_two() {
    for n_replicas in [1usize, 2] {
        let mut tb = replication_testbed();
        tb.sim.run_until(SimTime::from_ms(5));
        let analyzer = tb.analyzer();
        let cfg = WireConfig {
            trace_sample_rate: 1,
            ..WireConfig::default()
        };
        let cluster = WireCluster::launch_replicated(&analyzer, 1, n_replicas, cfg).unwrap();
        let r = n_replicas as u64;

        // A healthy refresh: one acked append per replica, and one trace
        // whose root is the owner's and whose child is the primary's.
        tb.sim.run_until(SimTime::from_ms(8));
        cluster.refresh(&analyzer);
        let owner = cluster.owner_metrics().snapshot();
        assert_eq!(owner.counter("repl.appends"), r);
        assert_eq!(owner.counter("repl.bootstraps"), 0);
        let scrape = cluster.front().scrape_traces().unwrap();
        let trees = wireplane::assemble(&scrape);
        let replicated: Vec<_> = trees
            .iter()
            .filter(|t| t.root().is_some_and(|root| root.stage == "replicate"))
            .collect();
        assert_eq!(replicated.len(), 1, "one (shard, seq) was published");
        let tree = replicated[0];
        assert!(
            tree.causally_linked(),
            "the apply span does not hang off the replicate root"
        );
        assert!(tree.stage_ns("apply") > 0, "no apply-stage span scraped");
        assert_eq!(
            tree.processes().into_iter().collect::<Vec<_>>(),
            ["front", "shard0"],
            "the replication trace must span owner and replica"
        );

        // Behind the cluster's back: the primary moves to head + 1 and
        // onto a horizon the owner never published.
        let rogue = ReplicaWriter::connect(
            0,
            cluster.shard_addrs()[0],
            cfg.max_frame,
            RetryPolicy::immediate(1),
        )
        .unwrap();
        let forged = DeltaRecord {
            epoch_horizon: 1 << 40,
            ..DeltaRecord::default()
        };
        assert_eq!(rogue.append(2, &forged).unwrap(), 2);
        assert!(
            cluster.replica_state(0, 0).unwrap().view != cluster.owner_slice(0),
            "the forged record left the primary equal to the owner"
        );

        // The next refresh: SeqGap on the primary → bootstrap.
        tb.sim.run_until(SimTime::from_ms(11));
        cluster.refresh(&analyzer);
        assert_no_divergence(&cluster, 1, "after the refused append");
        assert_eq!(cluster.heads(), vec![2]);
        let owner = cluster.owner_metrics().snapshot();
        assert_eq!(owner.counter("repl.gaps"), 1);
        assert_eq!(owner.counter("repl.bootstraps"), 1);
        assert_eq!(owner.counter("repl.appends"), r + (r - 1));
        assert_eq!(owner.gauges.get("repl.lag").copied(), Some(0));

        // The front still answers, and answers what the analyzer does.
        let req = switchpointer::query::QueryRequest::TopK {
            switch: tb.node("S2"),
            k: 10,
            range: telemetry::EpochRange { lo: 0, hi: 10 },
        };
        let mut client = cluster.client().unwrap();
        assert_eq!(
            format!("{:?}", client.query(&req).unwrap()),
            format!("{:?}", analyzer.execute(&req))
        );
        cluster.shutdown();
    }
}

/// (e) — issue-then-collect, held by a rendezvous instead of a clock.
/// Four fake replicas (plain listeners: greet, read one enveloped
/// append, ack it in its envelope)
/// withhold their ack until all four have *read* their append. A
/// publisher that waits for shard 0's ack before it writes shard 1's
/// frame can never get there: the first replica gives up after 5 s and
/// the test fails instead of hanging.
#[test]
fn a_publish_has_every_shards_append_in_flight_before_the_first_ack() {
    const N: usize = 4;
    struct Rendezvous {
        arrived: usize,
        gave_up: bool,
    }
    let mut tb = replication_testbed();
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let dir = ShardedDirectory::new(
        analyzer.directory().mphf().clone(),
        &analyzer.all_hosts(),
        N,
    );
    let keeps: Vec<BTreeSet<NodeId>> = dir
        .shards()
        .iter()
        .map(|shard| shard.hosts().iter().copied().collect())
        .collect();
    let max_frame = WireConfig::default().max_frame;

    let meet = Arc::new((
        Mutex::new(Rendezvous {
            arrived: 0,
            gave_up: false,
        }),
        Condvar::new(),
    ));
    let mut replicas = Vec::new();
    let mut writers = Vec::new();
    for s in 0..N {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let meet = Arc::clone(&meet);
        replicas.push(std::thread::spawn(move || -> bool {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = Frame::Hello {
                shard: s as u16,
                n_shards: N as u16,
            };
            hello.write(&mut stream).unwrap();
            let (req_id, seq) = match Frame::read(&mut stream, max_frame).unwrap() {
                Frame::Tagged { req_id, inner, .. } => match *inner {
                    Frame::DeltaAppend { seq, .. } => (req_id, seq),
                    other => panic!("expected an append, got frame {:#04x}", other.tag()),
                },
                other => panic!("expected an envelope, got frame {:#04x}", other.tag()),
            };
            let (state, cv) = &*meet;
            let mut st = state.lock().unwrap();
            st.arrived += 1;
            cv.notify_all();
            let (mut st, timeout) = cv
                .wait_timeout_while(st, Duration::from_secs(5), |st| {
                    st.arrived < N && !st.gave_up
                })
                .unwrap();
            if timeout.timed_out() {
                st.gave_up = true;
                cv.notify_all();
            }
            let together = st.arrived == N;
            drop(st);
            let ack = Frame::Tagged {
                req_id,
                ctx: None,
                inner: Box::new(Frame::DeltaAck {
                    shard: s as u16,
                    applied: seq,
                }),
            };
            ack.write(&mut stream).unwrap();
            together
        }));
        writers.push(vec![ReplicaWriter::connect(
            s,
            addr,
            max_frame,
            RetryPolicy::immediate(1),
        )
        .unwrap()]);
    }

    let registry = Arc::new(MetricsRegistry::new());
    let mut publisher = DeltaPublisher::new(
        Snapshot::capture_with(&analyzer, 8, N),
        keeps,
        writers,
        Arc::clone(&registry),
    );
    tb.sim.run_until(SimTime::from_ms(6));
    publisher.publish(&analyzer);

    for (s, replica) in replicas.into_iter().enumerate() {
        assert!(
            replica.join().unwrap(),
            "replica {s} acked without the other appends in flight"
        );
    }
    let owner = registry.snapshot();
    assert_eq!(owner.counter("repl.appends"), N as u64);
    assert_eq!(owner.counter("repl.bootstraps"), 0);
    assert_eq!(publisher.heads(), vec![1; N]);
}

/// One publish to a fake replica — the one replica of a one-shard
/// deployment, a plain listener — that reads the first enveloped append
/// and hangs up without acking it. On the redial the writer re-sends the
/// append, which the fake answers with `answer(seq)`; an install that
/// follows is acked. Returns the owner's registry and the seq of every
/// append the fake read.
fn publish_over_a_link_lost_before_the_ack(
    answer: fn(u64) -> Frame,
) -> (Arc<MetricsRegistry>, Vec<u64>) {
    let mut tb = replication_testbed();
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let dir = ShardedDirectory::new(
        analyzer.directory().mphf().clone(),
        &analyzer.all_hosts(),
        1,
    );
    let keep: BTreeSet<NodeId> = dir.shards()[0].hosts().iter().copied().collect();
    let max_frame = WireConfig::default().max_frame;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let accept = || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let hello = Frame::Hello {
                shard: 0,
                n_shards: 1,
            };
            hello.write(&mut stream).unwrap();
            stream
        };
        let mut appends = Vec::new();
        let mut first = true;
        let mut stream = accept();
        // Until the owner hangs up (or a read times out).
        while let Ok(frame) = Frame::read(&mut stream, max_frame) {
            let Frame::Tagged { req_id, inner, .. } = frame else {
                panic!("expected an envelope, got frame {:#04x}", frame.tag());
            };
            let reply = match *inner {
                Frame::DeltaAppend { seq, .. } if first => {
                    // Hang up without the ack, then take the redial.
                    appends.push(seq);
                    first = false;
                    stream.shutdown(std::net::Shutdown::Both).unwrap();
                    stream = accept();
                    continue;
                }
                Frame::DeltaAppend { seq, .. } => {
                    appends.push(seq);
                    answer(seq)
                }
                Frame::SnapshotInstall { seq, .. } => Frame::DeltaAck {
                    shard: 0,
                    applied: seq,
                },
                other => panic!("expected replication, got frame {:#04x}", other.tag()),
            };
            let reply = Frame::Tagged {
                req_id,
                ctx: None,
                inner: Box::new(reply),
            };
            reply.write(&mut stream).unwrap();
        }
        appends
    });

    // Room for the re-send: the death in flight is the first failure.
    let writer = ReplicaWriter::connect(0, addr, max_frame, RetryPolicy::immediate(3)).unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let mut publisher = DeltaPublisher::new(
        Snapshot::capture_with(&analyzer, 8, 1),
        vec![keep],
        vec![vec![writer]],
        Arc::clone(&registry),
    );
    tb.sim.run_until(SimTime::from_ms(6));
    publisher.publish(&analyzer);
    assert_eq!(publisher.heads(), vec![1]);
    drop(publisher);
    (registry, fake.join().unwrap())
}

/// (b) — a re-sent append is not idempotent, and the log keeps it safe.
/// The replica applied the append, then its link died before the ack
/// left: the writer's retry re-sends the same seq and meets the typed
/// gap the applied copy left. The publisher bootstraps once and keeps
/// the replica live.
#[test]
fn an_append_applied_before_its_link_died_is_resent_into_a_gap_and_bootstraps_once() {
    let (registry, appends) = publish_over_a_link_lost_before_the_ack(|seq| {
        Frame::Error(WireError::SeqGap {
            expected: seq + 1,
            got: seq,
        })
    });
    assert_eq!(appends, vec![1, 1], "the append was not re-sent once");
    let owner = registry.snapshot();
    assert_eq!(owner.counter("repl.gaps"), 1);
    assert_eq!(owner.counter("repl.bootstraps"), 1);
    assert_eq!(owner.counter("repl.appends"), 0);
    assert_eq!(
        owner.gauges.get("repl.lag").copied(),
        Some(0),
        "the replica was declared dead"
    );
}

/// (b) — the other side of the same lost link: the replica had not
/// applied the append, so the re-sent copy is acked like the first send
/// would have been, and nothing is bootstrapped.
#[test]
fn an_append_resent_before_it_was_applied_acks_without_a_bootstrap() {
    let (registry, appends) = publish_over_a_link_lost_before_the_ack(|seq| Frame::DeltaAck {
        shard: 0,
        applied: seq,
    });
    assert_eq!(appends, vec![1, 1], "the append was not re-sent once");
    let owner = registry.snapshot();
    assert_eq!(owner.counter("repl.gaps"), 0);
    assert_eq!(owner.counter("repl.bootstraps"), 0);
    assert_eq!(owner.counter("repl.appends"), 1);
    assert_eq!(owner.gauges.get("repl.lag").copied(), Some(0));
}

/// (e) — copied == named, by pointer identity. On the owner, one
/// journaled advance leaves exactly the components its `SnapshotDelta`
/// reports un-shared with the snapshot before it. On a 4-shard cluster,
/// one refresh leaves each replica's served state sharing, with the state
/// it served before, every hierarchy slot the patches did not carry,
/// every host store the record did not name and every record shard it did
/// not rebuild — the replica's copy is exactly the owner's for that shard;
/// and the owner counts one acked append per shard, no bootstrap, and all
/// four appends in flight when it read the first ack.
#[test]
fn a_refresh_copies_exactly_what_the_delta_names_on_owner_and_replicas() {
    const N: usize = 4;
    let mut tb = replication_testbed();
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();

    // Owner side, no wire.
    let mut owner = Snapshot::capture_with(&analyzer, 8, N);
    let before = owner.clone();
    assert_eq!(owner.unshared_with(&before), Unshared::default());
    tb.sim.run_until(SimTime::from_ms(6));
    let (delta, record) = owner.apply_delta_journaled(&analyzer);
    assert!(delta.cloned_slots > 0 && delta.cloned_records > 0);
    let copied = owner.unshared_with(&before);
    assert_eq!(copied.switches, delta.dirty_switches.len());
    assert_eq!(copied.slots as u64, delta.cloned_slots);
    assert_eq!(copied.hosts, delta.dirty_hosts.len());
    assert_eq!(copied.records as u64, delta.cloned_records);
    // Slicing the record and applying the slice copy none of it: the
    // replayed snapshot holds the very slots and record shards the owner
    // does, inside its own (copied-on-write) hierarchies and stores.
    let keep: BTreeSet<NodeId> = analyzer.all_hosts().into_iter().collect();
    let mut replayed = before.clone();
    replayed.apply_record(&record.slice_for(&keep)).unwrap();
    assert!(replayed == owner);
    let apart = replayed.unshared_with(&owner);
    assert_eq!((apart.slots, apart.shards, apart.records), (0, 0, 0));

    // Replica side, over the wire.
    let cluster = WireCluster::launch(&analyzer, N, WireConfig::default()).unwrap();
    let served_before: Vec<_> = (0..N)
        .map(|s| cluster.replica_state(s, 0).unwrap())
        .collect();
    let owned_before: Vec<_> = (0..N).map(|s| cluster.owner_slice(s)).collect();
    tb.sim.run_until(SimTime::from_ms(7));
    let delta = cluster.refresh(&analyzer);
    assert_no_divergence(&cluster, N, "after the refresh");
    // One refresh of healthy shards is one acked append each and no
    // bootstrap, every append on the wire before the first ack was read.
    let owner_metrics = cluster.owner_metrics().snapshot();
    assert_eq!(
        (
            owner_metrics.counter("repl.appends"),
            owner_metrics.counter("repl.bootstraps"),
            owner_metrics.gauges.get("repl.in_flight").copied(),
        ),
        (N as u64, 0, Some(N as i64)),
        "appends, bootstraps and appends in flight at the first ack"
    );
    let mut total = Unshared::default();
    for s in 0..N {
        let served = cluster.replica_state(s, 0).unwrap();
        let copied = served.view.unshared_with(&served_before[s].view);
        assert_eq!(
            copied,
            cluster.owner_slice(s).unshared_with(&owned_before[s]),
            "shard {s}: the replica copied something the owner did not"
        );
        // Pointer patches go to every shard; host patches to the owner's.
        assert_eq!(copied.switches, delta.dirty_switches.len());
        assert_eq!(copied.slots as u64, delta.cloned_slots);
        let named = delta
            .dirty_hosts
            .iter()
            .filter(|&&h| host_shard_of(h, N) == s)
            .count();
        assert_eq!(copied.hosts, named, "shard {s}: host stores copied");
        total.hosts += copied.hosts;
        total.records += copied.records;
    }
    assert_eq!(total.hosts, delta.dirty_hosts.len());
    assert_eq!(total.records as u64, delta.cloned_records);
    cluster.shutdown();
}

/// (e) — the seq check and the swap are one critical section. Two
/// writers on one replica race the same seq from behind a barrier, 200
/// times, each with its own record: exactly one is acked per seq, the
/// other gets the typed gap naming the next seq, the replica counts one
/// apply per ack and serves exactly the chain of acked records.
#[test]
fn two_writers_racing_one_seq_land_exactly_one_of_them() {
    const ROUNDS: u64 = 200;
    let mut tb = replication_testbed();
    tb.sim.run_until(SimTime::from_ms(5));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, 1, WireConfig::default()).unwrap();
    let mut model = cluster.owner_slice(0);
    let record = |seq: u64, who: u64| DeltaRecord {
        epoch_horizon: 1_000 + 2 * seq + who,
        ..DeltaRecord::default()
    };

    let barrier = Arc::new(Barrier::new(2));
    let racers: Vec<_> = (0..2u64)
        .map(|who| {
            let barrier = Arc::clone(&barrier);
            let w = ReplicaWriter::connect(
                0,
                cluster.shard_addrs()[0],
                WireConfig::default().max_frame,
                RetryPolicy::immediate(1),
            )
            .unwrap();
            std::thread::spawn(move || {
                (1..=ROUNDS)
                    .map(|seq| {
                        barrier.wait();
                        let res = w.append(seq, &record(seq, who));
                        barrier.wait();
                        res
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let results: Vec<Vec<_>> = racers.into_iter().map(|t| t.join().unwrap()).collect();

    for seq in 1..=ROUNDS {
        let i = (seq - 1) as usize;
        let winners: Vec<u64> = (0..2u64)
            .filter(|&who| results[who as usize][i] == Ok(seq))
            .collect();
        assert_eq!(winners.len(), 1, "seq {seq}: acked {} times", winners.len());
        assert_eq!(
            results[(1 - winners[0]) as usize][i],
            Err(WireError::SeqGap {
                expected: seq + 1,
                got: seq
            }),
            "seq {seq}: the loser was not refused with the typed gap"
        );
        model.apply_record(&record(seq, winners[0])).unwrap();
    }
    assert_eq!(cluster.applied_seqs(), vec![vec![Some(ROUNDS)]]);
    let served = cluster.server_metrics(0).snapshot();
    assert_eq!(served.counter("repl.applied"), ROUNDS);
    assert!(
        cluster.replica_state(0, 0).unwrap().view == model,
        "the replica is not the chain of acked records"
    );
    cluster.shutdown();
}

// ---- (f) hostile stores ---------------------------------------------------

/// A snapshot of the replication testbed and the host `F`, whose store the
/// long flow keeps populated.
fn hostile_fixture() -> (Testbed, Snapshot, NodeId) {
    let mut tb = replication_testbed();
    tb.sim.run_until(SimTime::from_ms(4));
    let snap = Snapshot::capture(&tb.analyzer(), 8);
    let f = tb.node("F");
    (tb, snap, f)
}

/// The first `n` flow ids that [`shard_of`] puts in `shard`.
fn flows_in_shard(shard: usize, n: usize) -> Vec<FlowId> {
    (0u64..)
        .map(FlowId)
        .filter(|&f| shard_of(f, RECORD_SHARDS) == shard)
        .take(n)
        .collect()
}

fn bare_record(flow: FlowId) -> FlowRecord {
    FlowRecord {
        flow,
        src: NodeId(0),
        dst: NodeId(1),
        protocol: Protocol::Udp,
        priority: Priority::LOW,
        bytes: 100,
        packets: 1,
        path: Vec::new(),
        epochs_at: Default::default(),
        bytes_per_epoch: Default::default(),
        link_vid: None,
    }
}

/// One host patch rewriting `shards` of `host`, with `total` as sent.
fn shards_patch(host: NodeId, shards: Vec<(u64, RecordShard)>, total: u64) -> DeltaRecord {
    DeltaRecord {
        epoch_horizon: 0,
        switches: Vec::new(),
        hosts: vec![HostPatch {
            host,
            new_base: (u64::MAX, 0),
            kind: HostPatchKind::Shards {
                dirty: shards.into_iter().map(|(i, s)| (i, Arc::new(s))).collect(),
                triggers: Vec::new(),
                total,
            },
        }],
    }
}

fn roundtrip(record: &DeltaRecord) -> Result<DeltaRecord, WireError> {
    let mut e = Enc::new();
    record.enc(&mut e);
    let bytes = e.into_bytes();
    DeltaRecord::dec(&mut Dec::new(&bytes))
}

/// (f) A shard listing its flows out of order would make a replica's
/// binary-searching `record()` miss: decode refuses it.
#[test]
fn a_record_shard_out_of_flow_order_is_refused_at_decode() {
    let (_tb, _snap, f) = hostile_fixture();
    let flows = flows_in_shard(0, 2);
    let descending = RecordShard::from_records(vec![bare_record(flows[1]), bare_record(flows[0])]);
    let record = shards_patch(f, vec![(0, descending)], 2);
    assert!(matches!(roundtrip(&record), Err(WireError::Remote(_))));
    let repeated = RecordShard::from_records(vec![bare_record(flows[0]), bare_record(flows[0])]);
    let record = shards_patch(f, vec![(0, repeated)], 2);
    assert!(matches!(roundtrip(&record), Err(WireError::Remote(_))));
}

/// (f) A record shipped in a shard `shard_of` does not assign it is
/// unreachable by every read: applying it is refused, and the replica is
/// left as it was.
#[test]
fn a_record_outside_its_shard_is_refused_at_apply() {
    let (_tb, mut snap, f) = hostile_fixture();
    let stray = flows_in_shard(1, 1)[0];
    let record = shards_patch(
        f,
        vec![(0, RecordShard::from_records(vec![bare_record(stray)]))],
        1,
    );
    let decoded = roundtrip(&record).expect("well-formed bytes");
    let before = snap.clone();
    assert!(matches!(
        snap.apply_record(&decoded),
        Err(WireError::Remote(_))
    ));
    assert!(snap == before);
    let past_the_end = shards_patch(f, vec![(RECORD_SHARDS as u64, RecordShard::default())], 0);
    assert!(snap.apply_record(&past_the_end).is_err());
    assert!(snap == before);
}

/// (f) A bootstrap whose host store is not `RECORD_SHARDS`-way is
/// refused: shard indices would mean something else on each side.
#[test]
fn a_store_of_the_wrong_shard_count_is_refused_at_bootstrap() {
    let (_tb, snap, f) = hostile_fixture();
    let mphf = snap.mphf().expect("the chain has switches").clone();
    for n in [1usize, 4, RECORD_SHARDS + 1] {
        let mut e = Enc::new();
        e.put_usize(1); // directory shards
        e.put_u64(0); // epoch horizon
        e.put_usize(0); // switches
        e.put_usize(1); // hosts
        f.enc(&mut e);
        (0..n)
            .map(|_| Arc::new(RecordShard::default()))
            .collect::<Vec<_>>()
            .enc(&mut e);
        Vec::<TriggerEvent>::new().enc(&mut e);
        e.put_u64(0); // records
        (0u64, 0u64).enc(&mut e);
        let bytes = e.into_bytes();
        assert!(
            matches!(
                Snapshot::wire_dec(&mut Dec::new(&bytes), &mphf),
                Err(WireError::Remote(_))
            ),
            "a {n}-way store must be refused"
        );
    }
}

/// (f) The record count travels beside the shards; one that is not the
/// patched store's total is refused instead of trusted.
#[test]
fn a_record_count_that_is_not_the_stores_is_refused_at_apply() {
    let (tb, mut snap, f) = hostile_fixture();
    let analyzer = tb.analyzer();
    let (len, shard) = {
        let comp = analyzer.host(f).expect("listed host").borrow();
        (
            comp.store.len() as u64,
            comp.store.shards()[0].as_ref().clone(),
        )
    };
    let before = snap.clone();
    let record = shards_patch(f, vec![(0, shard.clone())], len + 1);
    assert!(matches!(
        snap.apply_record(&record),
        Err(WireError::Remote(_))
    ));
    assert!(snap == before);
    // The same patch with the true count applies.
    snap.apply_record(&shards_patch(f, vec![(0, shard)], len))
        .expect("a consistent patch applies");
}
