//! Query storm: drive 100+ mixed debugging queries through the concurrent
//! query plane, then replay the returned outcomes through the cost model
//! (`queryplane::model`, analysis only) to compare against sequential
//! execution — cache hit-rate, coalesced RPCs, and the modelled speedup
//! from batched fan-out + pointer caching.
//!
//! Run with: `cargo run --release --example query_storm`

use netsim::prelude::*;
use queryplane::model::ModelReplay;
use queryplane::{QueryPlane, QueryPlaneConfig};
use switchpointer::query::QueryRequest;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

fn main() {
    // A k=4 fat tree under mixed traffic: one starved TCP victim, one
    // high-priority burst, and cross-pod UDP background.
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, b) = (tb.node("h0_0_0"), tb.node("h0_0_1"));
    let (da, db) = (tb.node("h2_0_0"), tb.node("h2_0_1"));
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(40),
    ));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        db,
        Priority::HIGH,
        SimTime::from_ms(15),
        SimTime::from_ms(2),
        GBPS,
    ));
    for (s, d) in [
        ("h1_0_0", "h3_1_1"),
        ("h1_1_0", "h2_1_1"),
        ("h3_0_0", "h0_1_0"),
    ] {
        let (s, d) = (tb.node(s), tb.node(d));
        tb.sim.add_udp_flow(UdpFlowSpec {
            src: s,
            dst: d,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(30),
            rate_bps: 100_000_000,
            payload_bytes: 1458,
        });
    }
    tb.sim.run_until(SimTime::from_ms(40));

    // The storm: every tenant asks overlapping questions about the same
    // incident window — top-k and load-imbalance sweeps over the pod-0 and
    // pod-2 fabric, plus trigger-driven diagnoses when available.
    let analyzer = tb.analyzer();
    let window = EpochRange { lo: 10, hi: 25 };
    let switches = [
        "edge0_0", "edge0_1", "agg0_0", "agg0_1", "core0_0", "core1_0", "edge2_0", "agg2_0",
    ];
    let mut reqs: Vec<QueryRequest> = Vec::new();
    for round in 0..10 {
        for name in switches {
            reqs.push(QueryRequest::TopK {
                switch: tb.node(name),
                k: 10,
                range: window,
            });
            if round % 2 == 0 {
                reqs.push(QueryRequest::LoadImbalance {
                    switch: tb.node(name),
                    range: window,
                });
            }
        }
        if tb.hosts[&da].borrow().first_trigger_for(victim).is_some() {
            reqs.push(QueryRequest::Contention {
                victim,
                victim_dst: da,
                trigger_window: tb.cfg.trigger.window,
            });
        }
    }
    println!(
        "query storm: {} mixed queries over {} switches",
        reqs.len(),
        switches.len()
    );
    assert!(reqs.len() > 100);

    let mut plane = QueryPlane::from_analyzer(
        &analyzer,
        QueryPlaneConfig {
            workers: 8,
            shards: 8,
            directory_shards: 1,
            retention: None,
        },
    );
    let outcomes = plane.execute_batch(&reqs);

    // Spot-check one response against the sequential analyzer.
    let check = format!("{:?}", analyzer.execute(&reqs[0]));
    assert_eq!(format!("{:?}", outcomes[0].response), check);
    println!("determinism spot-check: plane response == sequential analyzer response");

    let mut model = ModelReplay::new(*analyzer.cost(), 4096);
    let costs = model.replay(&outcomes);
    let stats = model.report();
    println!("\n== modelled accounting (replayed from the outcomes) ==");
    println!("queries executed        : {}", outcomes.len());
    println!(
        "pointer cache           : {} hits / {} misses ({:.0}% hit rate), {} rounds skipped",
        stats.pointer_hits,
        stats.pointer_misses,
        stats.cache_hit_rate() * 100.0,
        stats.rounds_skipped,
    );
    println!(
        "host fan-out            : {} requests coalesced into {} RPCs ({} saved)",
        stats.host_requests,
        stats.host_rpcs_issued,
        stats.rpcs_saved(),
    );
    println!(
        "modelled service latency: sequential {} vs batched {} ({:.1}x speedup)",
        stats.sequential_total,
        stats.batched_total,
        stats.modelled_speedup(),
    );

    // The slowest and cheapest individual queries under the plane.
    let mut by_batched: Vec<_> = costs.iter().enumerate().collect();
    by_batched.sort_by_key(|(_, c)| c.batched);
    let (cheap_i, cheap) = by_batched.first().unwrap();
    let (dear_i, dear) = by_batched.last().unwrap();
    println!(
        "cheapest query #{cheap_i}: batched {} (sequential {})",
        cheap.batched, cheap.sequential
    );
    println!(
        "dearest  query #{dear_i}: batched {} (sequential {})",
        dear.batched, dear.sequential
    );
}
