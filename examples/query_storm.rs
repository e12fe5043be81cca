//! Query storm: drive 100+ mixed debugging queries through the concurrent
//! query plane, then replay the returned outcomes through the cost model
//! (`queryplane::model`, analysis only) to compare against sequential
//! execution — coalesced RPCs and the modelled speedup from running each
//! distinct request once over one batched fan-out.
//!
//! Run with: `cargo run --release --example query_storm`

use queryplane::model::ModelReplay;
use queryplane::{QueryPlane, QueryPlaneConfig};
use switchpointer::query::QueryRequest;
use switchpointer::scenarios::{self, Scenario};
use telemetry::EpochRange;

fn main() {
    // A k=4 fat tree under mixed traffic: one TCP flow, one high-priority
    // burst onto its destination host, and cross-pod UDP background. The
    // burst starves the TCP flow, whose destination raises a trigger.
    let Scenario { tb, planted } = scenarios::query_storm().run();
    let (victim, da) = planted.victim();
    let trigger = tb.hosts[&da]
        .borrow()
        .first_trigger_for(victim)
        .copied()
        .expect("the burst starves the victim, whose destination raises a trigger");

    // The storm: every tenant asks overlapping questions about the same
    // incident window — top-k and load-imbalance sweeps over the pod-0 and
    // pod-2 fabric, plus the trigger-driven diagnosis of the victim.
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
        reqs.push(QueryRequest::Contention {
            victim,
            victim_dst: da,
            trigger_window: tb.cfg.trigger.window,
        });
    }
    println!(
        "query storm: {} mixed queries over {} switches, victim triggered at {}",
        reqs.len(),
        switches.len(),
        trigger.at
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

    // The plane runs each distinct request of a batch once; the storm's
    // ten rounds over the same eight switches are mostly repeats.
    let submitted = plane.metrics().counter("queryplane.queries").get();
    let coalesced = plane.metrics().counter("queryplane.coalesced").get();
    println!(
        "queries                 : {submitted} submitted, {} executed ({coalesced} answered by an identical query's run)",
        submitted - coalesced
    );
    assert!(coalesced > 0, "repeated questions must coalesce");
    let contention = plane
        .metrics()
        .snapshot()
        .hist("queryplane.exec_ns.contention")
        .map_or(0, |h| h.count);
    println!("contention diagnoses    : 10 asked, {contention} executed");
    assert_eq!(contention, 1, "the ten identical diagnoses run once");

    let mut model = ModelReplay::new(*analyzer.cost());
    let costs = model.replay(&outcomes);
    let stats = model.report();
    println!("\n== modelled accounting (replayed from the outcomes) ==");
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
