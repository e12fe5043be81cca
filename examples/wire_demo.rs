//! The wire layer, end-to-end: shard servers + front-end + remote client
//! over real loopback TCP.
//!
//! A k=4 fat tree carries cross-pod traffic plus a HIGH-priority burst
//! that starves a TCP victim mid-run. The deployment is served by two
//! wire-connected shard servers (each owning its half of the directory
//! and the flow stores of its hosts) behind a front-end; a remote client
//! runs one-shot queries — answers bit-identical to the in-process
//! analyzer — and subscribes a contention watch whose Pending → verdict
//! transition arrives as a pushed incident frame when a window closes.
//!
//! All listeners bind `127.0.0.1:0`; ports are plumbed back, never
//! hard-coded. Run with: `cargo run --release --example wire_demo`

use suite::netsim::prelude::*;
use suite::streamplane::StandingQuery;
use suite::switchpointer::query::QueryRequest;
use suite::switchpointer::scenarios::{self, Scenario};
use suite::telemetry::EpochRange;
use suite::wireplane::{WireCluster, WireConfig, WireEvent};

fn main() {
    // The continuous-watch deployment: ECMP-colliding victim + burst.
    let Scenario { mut tb, planted } = scenarios::watch(0);
    let (victim, da) = planted.victim();

    tb.sim.run_until(SimTime::from_ms(10));
    let analyzer = tb.analyzer();

    // Two shard servers + front-end, every listener on an ephemeral port.
    let cluster =
        WireCluster::launch(&analyzer, 2, WireConfig::default()).expect("launch the wire cluster");
    println!(
        "wire_demo: front-end at {} over shard servers {:?}",
        cluster.front_addr(),
        cluster.shard_addrs()
    );

    let mut client = cluster.client().expect("connect a client");

    // One-shot queries over the wire: bit-identical to in-process.
    let top_k = QueryRequest::TopK {
        switch: tb.node("edge0_0"),
        k: 5,
        range: EpochRange { lo: 0, hi: 10 },
    };
    let wire = client.query(&top_k).expect("wire top-k");
    let local = analyzer.execute(&top_k);
    assert_eq!(
        format!("{wire:?}"),
        format!("{local:?}"),
        "wire-served verdict must be bit-identical"
    );
    println!("one-shot top-k over the wire == in-process: ok");

    // Subscribe the contention watch; it pends until the burst bites.
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

    // Monitoring loop: advance the simulation, refresh the shard states
    // out-of-band, close the window, drain the pushed frames.
    let mut transitions = 0u64;
    for w in 1..=6u64 {
        tb.sim.run_until(SimTime::from_ms(10 + w * 5));
        cluster.refresh(&analyzer);
        let summary = cluster.close_window();
        let mut streamed = Vec::new();
        loop {
            match client.next_event().expect("streamed frame") {
                WireEvent::Incident { seq, incident } => streamed.push((seq, incident)),
                WireEvent::Window(s) => {
                    assert_eq!(s.window, summary.window);
                    break;
                }
            }
        }
        for (seq, incident) in streamed {
            println!(
                "window {:>2} (horizon {:>3}): incident #{seq} [{:?}] {}",
                summary.window, summary.horizon, incident.kind, incident.summary
            );
            if incident.kind == suite::streamplane::IncidentKind::Transition {
                transitions += 1;
            }
        }
    }
    assert!(
        transitions >= 1,
        "the contention watch must transition once the burst starves the victim"
    );

    let counters = cluster.front().counters();
    println!(
        "wire traffic: {} RPCs in {} rounds across {} shards ({} queries)",
        counters.rpcs,
        counters.rounds,
        counters.fanout.decode_bits.len(),
        cluster.front().queries(),
    );
    cluster.shutdown();
    println!("wire_demo: ok");
}
