//! The query plane's contract: (a) verdicts are bit-identical to the
//! sequential analyzer's no matter how many workers execute the batch;
//! (b) the modelled accounting replayed from the returned outcomes
//! (`queryplane::model`) is deterministic — a pure function of submission
//! order — and matches a hand-computed schedule.

use netsim::prelude::*;
use queryplane::model::{ModelReplay, ModelReport, ModelledCost};
use queryplane::{QueryPlane, QueryPlaneConfig};
use switchpointer::query::{QueryRequest, QUERY_CLASS_NAMES};
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

/// The fat-tree contention fixture: a low-priority TCP victim and a
/// high-priority UDP burst aimed at the victim's own destination host —
/// the two share the last-hop edge link whatever ECMP does upstream, so
/// the victim's starvation trigger fires deterministically — plus steady
/// cross-pod UDP background so pointers light up across layers.
fn fat_tree_testbed() -> (Testbed, FlowId) {
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, b) = (tb.node("h0_0_0"), tb.node("h0_0_1"));
    let da = tb.node("h2_0_0");
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(40),
    ));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        da,
        Priority::HIGH,
        SimTime::from_ms(15),
        SimTime::from_ms(2),
        GBPS,
    ));
    // Background pair in another pod.
    let (c, dc) = (tb.node("h1_0_0"), tb.node("h3_1_1"));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: c,
        dst: dc,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(30),
        rate_bps: 100_000_000,
        payload_bytes: 1458,
    });
    tb.sim.run_until(SimTime::from_ms(40));
    (tb, victim)
}

/// A mixed query set over the fixture, covering all six §5 classes: the
/// three range aggregates plus the trigger-anchored diagnoses of the
/// starved victim.
fn query_set(tb: &Testbed, victim: FlowId) -> Vec<QueryRequest> {
    let mut reqs = Vec::new();
    let window = EpochRange { lo: 10, hi: 20 };
    for name in ["edge0_0", "agg0_0", "agg0_1", "core0_0", "edge2_0"] {
        reqs.push(QueryRequest::TopK {
            switch: tb.node(name),
            k: 10,
            range: window,
        });
        reqs.push(QueryRequest::LoadImbalance {
            switch: tb.node(name),
            range: window,
        });
    }
    // Repeat the first TopK so the cache has something to hit.
    reqs.push(QueryRequest::TopK {
        switch: tb.node("edge0_0"),
        k: 10,
        range: window,
    });
    reqs.push(QueryRequest::SilentDrop {
        flow: victim,
        src: tb.node("h0_0_0"),
        dst: tb.node("h2_0_0"),
        range: window,
    });

    // Trigger-driven queries: the fixture starves the victim.
    let da = tb.node("h2_0_0");
    assert!(
        tb.hosts[&da].borrow().first_trigger_for(victim).is_some(),
        "the trigger-anchored query classes need the victim's trigger"
    );
    let w = tb.cfg.trigger.window;
    reqs.push(QueryRequest::Contention {
        victim,
        victim_dst: da,
        trigger_window: w,
    });
    reqs.push(QueryRequest::RedLights {
        victim,
        victim_dst: da,
        trigger_window: w,
    });
    reqs.push(QueryRequest::Cascade {
        victim,
        victim_dst: da,
        trigger_window: w,
        max_depth: 3,
    });
    reqs
}

#[test]
fn verdicts_identical_across_worker_counts() {
    let (tb, victim) = fat_tree_testbed();
    let analyzer = tb.analyzer();
    let reqs = query_set(&tb, victim);

    // The sequential ground truth straight off the live analyzer.
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();

    for workers in [1usize, 2, 8] {
        let mut plane = QueryPlane::from_analyzer(
            &analyzer,
            QueryPlaneConfig {
                workers,
                shards: 8,
                directory_shards: 1,
                retention: None,
            },
        );
        let outcomes = plane.execute_batch(&reqs);
        assert_eq!(outcomes.len(), reqs.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                format!("{:?}", o.response),
                baseline[i],
                "query {i} diverged from the sequential analyzer at {workers} workers"
            );
        }
        // The set issues every §5 class, so each per-class latency
        // histogram must hold samples: a zero count means a class
        // silently left the workload or lost its instrumentation.
        let snap = plane.metrics().snapshot();
        for class in QUERY_CLASS_NAMES {
            let name = format!("queryplane.exec_ns.{class}");
            assert!(
                snap.hist(&name).is_some_and(|h| !h.is_empty()),
                "{name} recorded no samples at {workers} workers"
            );
        }
    }
}

/// A hot incident window: many tenants ask overlapping questions.
fn storm_set(tb: &Testbed) -> Vec<QueryRequest> {
    let mut reqs = Vec::new();
    let window = EpochRange { lo: 10, hi: 20 };
    for round in 0..8 {
        for name in ["edge0_0", "agg0_0", "edge2_0"] {
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
    }
    reqs
}

/// The replay is a pure function of the outcomes in submission order:
/// however many workers ran the batch and however the directory was
/// sharded, the per-query costs and the cumulative report come out the
/// same. Only the priced decode follows the measured per-shard fan-out,
/// so that one figure is compared per shard count.
#[test]
fn replayed_accounting_is_a_pure_function_of_submission_order() {
    let (tb, victim) = fat_tree_testbed();
    let analyzer = tb.analyzer();
    let mut reqs = query_set(&tb, victim);
    reqs.extend(storm_set(&tb));

    // One (per-query costs, report) per directory shard count: the
    // 1-worker run, which the 2- and 8-worker runs must reproduce exactly.
    let mut per_sharding: Vec<(Vec<ModelledCost>, ModelReport)> = Vec::new();
    for directory_shards in [1usize, 4] {
        let mut reference = None;
        for workers in [1usize, 2, 8] {
            let mut plane = QueryPlane::from_analyzer(
                &analyzer,
                QueryPlaneConfig {
                    workers,
                    shards: 8,
                    directory_shards,
                    retention: None,
                },
            );
            let mut model = ModelReplay::new(*analyzer.cost(), 4096);
            // Two batches: the second replays against the warm LRU.
            let mut costs = model.replay(&plane.execute_batch(&reqs));
            costs.extend(model.replay(&plane.execute_batch(&reqs)));
            let got = (costs, model.report());
            let want = reference.get_or_insert_with(|| got.clone());
            assert_eq!(
                &got, want,
                "{workers} workers, {directory_shards} directory shards"
            );
        }
        per_sharding.extend(reference);
    }
    let (costs_1, report_1) = &per_sharding[0];
    let (costs_4, report_4) = &per_sharding[1];
    // The repeated TopK hit every pointer key of its round.
    assert!(report_1.pointer_hits >= 1);
    assert_eq!(costs_1, costs_4);
    assert_eq!(
        ModelReport {
            modelled_decode_total: report_1.modelled_decode_total,
            ..*report_4
        },
        *report_1
    );
}

#[test]
fn sharding_choice_does_not_change_answers() {
    let (tb, victim) = fat_tree_testbed();
    let analyzer = tb.analyzer();
    let reqs = query_set(&tb, victim);
    let mut renders = Vec::new();
    for shards in [1usize, 3, 16] {
        let mut plane = QueryPlane::from_analyzer(
            &analyzer,
            QueryPlaneConfig {
                workers: 4,
                shards,
                directory_shards: 1,
                retention: None,
            },
        );
        renders.push(
            plane
                .execute_batch(&reqs)
                .iter()
                .map(|o| format!("{:?}", o.response))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(renders[0], renders[1]);
    assert_eq!(renders[0], renders[2]);
}

#[test]
fn pointer_cache_accounting_matches_hand_computed_schedule() {
    // A tiny deployment: the queries' pointer rounds are all single-key
    // (TopK pulls exactly one (switch, window) union), so the cache
    // schedule can be verified by hand.
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
    let (s1, s2) = (tb.node("S1"), tb.node("S2"));
    let (r1, r2) = (EpochRange { lo: 0, hi: 2 }, EpochRange { lo: 0, hi: 3 });
    let topk = |switch, range| QueryRequest::TopK {
        switch,
        k: 5,
        range,
    };

    // Submission order:        key        roomy cache     capacity-1 cache
    //   q0: (s1, r1)                      miss            miss
    //   q1: (s1, r1)                      HIT             HIT
    //   q2: (s2, r1)                      miss            miss (evicts s1r1)
    //   q3: (s1, r2)                      miss            miss (evicts s2r1)
    //   q4: (s1, r1)                      HIT             miss (was evicted)
    let reqs = vec![
        topk(s1, r1),
        topk(s1, r1),
        topk(s2, r1),
        topk(s1, r2),
        topk(s1, r1),
    ];

    let mut plane = QueryPlane::from_analyzer(
        &analyzer,
        QueryPlaneConfig {
            workers: 2,
            shards: 4,
            directory_shards: 1,
            retention: None,
        },
    );
    let outcomes = plane.execute_batch(&reqs);

    let mut roomy = ModelReplay::new(*analyzer.cost(), 64);
    let costs = roomy.replay(&outcomes);
    let hit_pattern: Vec<(u32, u32)> = costs
        .iter()
        .map(|c| (c.pointer_hits, c.pointer_misses))
        .collect();
    assert_eq!(
        hit_pattern,
        vec![(0, 1), (1, 0), (0, 1), (0, 1), (1, 0)],
        "roomy cache schedule"
    );
    assert_eq!(roomy.report().pointer_hits, 2);
    assert_eq!(roomy.report().pointer_misses, 3);
    assert_eq!(roomy.report().rounds_skipped, 2);

    // Cache-served rounds skip the ≈7.5 ms retrieval: the two hit queries
    // must be billed far less than their sequential baseline.
    for (i, c) in costs.iter().enumerate() {
        if hit_pattern[i].0 > 0 {
            assert!(
                c.batched + analyzer.cost().pointer_retrieval(1)
                    < c.sequential + analyzer.cost().pointer_cache_hit,
                "query {i} should have skipped its retrieval round"
            );
        }
    }

    let mut tiny = ModelReplay::new(*analyzer.cost(), 1);
    let hit_pattern: Vec<(u32, u32)> = tiny
        .replay(&outcomes)
        .iter()
        .map(|c| (c.pointer_hits, c.pointer_misses))
        .collect();
    assert_eq!(
        hit_pattern,
        vec![(0, 1), (1, 0), (0, 1), (0, 1), (0, 1)],
        "capacity-1 LRU schedule"
    );
    assert_eq!(tiny.report().pointer_hits, 1);
    assert_eq!(tiny.report().pointer_misses, 4);
}

#[test]
fn batching_and_caching_beat_sequential_accounting() {
    let (tb, _victim) = fat_tree_testbed();
    let analyzer = tb.analyzer();
    let reqs = storm_set(&tb);
    let mut plane = QueryPlane::from_analyzer(&analyzer, QueryPlaneConfig::default());
    let outcomes = plane.execute_batch(&reqs);
    assert_eq!(outcomes.len(), reqs.len());
    assert_eq!(
        plane.metrics().counter("queryplane.queries").get(),
        reqs.len() as u64
    );
    let mut model = ModelReplay::new(*analyzer.cost(), 4096);
    model.replay(&outcomes);
    let stats = model.report();
    assert!(
        stats.cache_hit_rate() > 0.5,
        "repeat-heavy workload must hit"
    );
    assert!(
        stats.rpcs_saved() > 0,
        "overlapping fan-outs must coalesce ({} requests, {} rpcs)",
        stats.host_requests,
        stats.host_rpcs_issued
    );
    assert!(
        stats.modelled_speedup() >= 2.0,
        "batched+cached should be ≥2× cheaper, got {:.2}× (seq {}, batched {})",
        stats.modelled_speedup(),
        stats.sequential_total,
        stats.batched_total
    );
    // Batch-level invariant: the coalesced accounting never exceeds the
    // sequential baseline.
    assert!(stats.batched_total <= stats.sequential_total);
}
