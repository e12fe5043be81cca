//! Replicated shards + mid-query failover, end-to-end over loopback TCP.
//!
//! Every directory shard is served by a primary **and** a standby, both
//! consuming the same sequenced replication log (`Frame::DeltaAppend`
//! per refresh, snapshot bootstrap for late joiners). A remote client
//! subscribes a contention watch; mid-run the demo kills every primary.
//! The front-end's in-flight query waves rotate to the standbys under
//! the retry budget, the subscription cursors resume there, and the
//! incident stream keeps flowing with zero duplicated or dropped
//! transitions — the standby is bit-identical to the dead primary at
//! every applied seq, so the client cannot tell the difference.
//!
//! All listeners bind `127.0.0.1:0`; ports are plumbed back, never
//! hard-coded. Run with: `cargo run --release --example failover_demo`

use suite::netsim::prelude::*;
use suite::streamplane::{IncidentKind, StandingQuery};
use suite::switchpointer::query::QueryRequest;
use suite::switchpointer::testbed::{Testbed, TestbedConfig};
use suite::telemetry::EpochRange;
use suite::wireplane::{WireCluster, WireConfig, WireEvent};

fn main() {
    // The continuous-watch deployment: ECMP-colliding victim + burst.
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let background = |tb: &mut Testbed, s: &str, d: &str| {
        let (s, d) = (tb.node(s), tb.node(d));
        tb.sim.add_udp_flow(UdpFlowSpec {
            src: s,
            dst: d,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(40),
            rate_bps: 100_000_000,
            payload_bytes: 1458,
        });
    };
    background(&mut tb, "h1_0_0", "h3_1_1");
    let (a, b) = (tb.node("h0_0_0"), tb.node("h0_0_1"));
    let (da, db) = (tb.node("h2_0_0"), tb.node("h2_0_1"));
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(50),
    ));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        db,
        Priority::HIGH,
        SimTime::from_ms(25),
        SimTime::from_ms(2),
        GBPS,
    ));
    background(&mut tb, "h1_1_0", "h2_1_1");

    tb.sim.run_until(SimTime::from_ms(10));
    let analyzer = tb.analyzer();

    // Two shards, each with a primary and a standby fed in-band by the
    // owner's delta publisher.
    let n_shards = 2usize;
    let cluster = WireCluster::launch_replicated(&analyzer, n_shards, 2, WireConfig::default())
        .expect("launch the replicated cluster");
    println!(
        "failover_demo: front-end at {} over {} shards x 2 replicas, log heads {:?}",
        cluster.front_addr(),
        n_shards,
        cluster.heads()
    );

    let mut client = cluster.client().expect("connect a client");
    client
        .subscribe(
            StandingQuery::ContentionWatch {
                victim,
                victim_dst: da,
                trigger_window: tb.cfg.trigger.window,
            },
            0,
        )
        .expect("subscribe the watch");

    let top_k = QueryRequest::TopK {
        switch: tb.node("edge0_0"),
        k: 5,
        range: EpochRange { lo: 0, hi: 999 },
    };

    // Monitoring loop: advance, publish the sequenced delta to every
    // replica, close the window, drain the pushed frames. At window 4
    // every primary dies; nothing downstream is allowed to notice.
    let mut transitions = 0u64;
    for w in 1..=8u64 {
        tb.sim.run_until(SimTime::from_ms(10 + w * 5));
        cluster.refresh(&analyzer);
        if w == 4 {
            for s in 0..n_shards {
                assert!(cluster.kill_primary(s), "primary {s} was alive");
            }
            println!("window  4: killed every primary; standbys carry the shards");
        }
        // A query wave straddling the kill: it fails over mid-query.
        let (verdict, _, _) = cluster.front().execute(&top_k);
        assert_eq!(
            format!("{verdict:?}"),
            format!("{:?}", analyzer.execute(&top_k)),
            "wire-served verdict must match in-process after failover"
        );
        let summary = cluster.close_window();
        loop {
            match client.next_event().expect("streamed frame") {
                WireEvent::Incident { seq, incident } => {
                    println!(
                        "window {:>2}: incident #{seq} [{:?}] {}",
                        summary.window, incident.kind, incident.summary
                    );
                    if incident.kind == IncidentKind::Transition {
                        transitions += 1;
                    }
                }
                WireEvent::Window(s) => {
                    assert_eq!(s.window, summary.window);
                    break;
                }
            }
        }
    }
    assert!(
        transitions >= 1,
        "the watch must transition despite the primary kill"
    );

    // Failover accounting: every shard rotated off its dead primary and
    // now pins the standby; the standbys sit at the owner's head.
    let failovers = cluster.front().shard_failovers();
    let active = cluster.front().active_replicas();
    assert!(
        failovers >= n_shards as u64,
        "every shard must have failed over (saw {failovers})"
    );
    assert!(
        active.iter().all(|&r| r == 1),
        "every shard must pin the standby (active {active:?})"
    );
    let heads = cluster.heads();
    for (s, applied) in cluster.applied_seqs().iter().enumerate() {
        let owner = cluster.owner_slice(s);
        for (r, a) in applied.iter().enumerate() {
            let Some(a) = a else { continue };
            assert_eq!(*a, heads[s], "shard {s} replica {r} lags the head");
            let state = cluster.replica_state(s, r).expect("live replica");
            assert!(
                state.view == owner,
                "shard {s} replica {r} diverged from the owner"
            );
        }
    }

    let owner = cluster.owner_metrics().snapshot();
    let front = cluster.front_metrics().snapshot();
    let failover_ns = front
        .hists
        .get("wire.failover_ns")
        .expect("failover histogram recorded");
    println!(
        "replication: {} publishes, {} appends, {} bootstraps, lag {}",
        owner.counter("repl.published"),
        owner.counter("repl.appends"),
        owner.counter("repl.bootstraps"),
        owner.gauges.get("repl.lag").copied().unwrap_or(0),
    );
    println!(
        "failover: {} shard failovers, active replicas {:?}, blackout p50 {} ns over {} waves",
        failovers,
        active,
        failover_ns.percentiles().p50,
        failover_ns.count,
    );
    cluster.shutdown();
    println!("failover_demo: ok");
}
