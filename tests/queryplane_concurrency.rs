//! The query plane's contract: (a) verdicts are bit-identical to the
//! sequential analyzer's no matter how many workers execute the batch;
//! (b) the modelled accounting replayed from the returned outcomes
//! (`queryplane::model`) is deterministic — a pure function of submission
//! order — and bills each execution once; (c) a batch runs each
//! distinct request once and hands its outcome to every slot that asked.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use netsim::prelude::*;
use proptest::{rng_for, TestRng};
use queryplane::model::{ModelReplay, ModelReport, ModelledCost};
use queryplane::{QueryPlane, QueryPlaneConfig};
use switchpointer::query::{QueryRequest, QUERY_CLASS_NAMES};
use switchpointer::shard::ShardFanout;
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
            let mut model = ModelReplay::new(*analyzer.cost());
            // Two batches: the report accumulates across them.
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
    // The repeated TopK is billed nothing: it ran as its first copy.
    assert!(costs_1.iter().any(|c| c.batched == SimTime::ZERO));
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
fn replay_bills_each_execution_once() {
    // A tiny deployment: TopK and LoadImbalance each pull exactly one
    // (switch, window) union, so the billing can be checked by hand.
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

    // q1 and q4 repeat q0 and run as part of it; q5 reads q0's key but
    // is a different request, so it pulls that union again.
    let reqs = vec![
        topk(s1, r1),
        topk(s1, r1),
        topk(s2, r1),
        topk(s1, r2),
        topk(s1, r1),
        QueryRequest::LoadImbalance {
            switch: s1,
            range: r1,
        },
    ];
    let executed = [0usize, 2, 3, 5];

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
    for repeat in [1, 4] {
        assert!(Arc::ptr_eq(&outcomes[repeat].trace, &outcomes[0].trace));
    }

    let mut model = ModelReplay::new(*analyzer.cost());
    let costs = model.replay(&outcomes);
    for repeat in [1, 4] {
        assert_eq!(
            costs[repeat].batched,
            SimTime::ZERO,
            "q{repeat} is a repeat"
        );
        assert_eq!(costs[repeat].sequential, costs[0].sequential);
    }
    for i in executed {
        assert!(
            costs[i].batched >= analyzer.cost().pointer_retrieval(1),
            "q{i} ran and pays its retrieval round: {:?}",
            costs[i]
        );
    }

    let contacts = |i: usize| outcomes[i].trace.waves.iter().flatten().map(|&(h, _)| h);
    let requests: usize = (0..reqs.len()).map(|i| contacts(i).count()).sum();
    let hosts: HashSet<NodeId> = executed.into_iter().flat_map(contacts).collect();
    let report = model.report();
    assert_eq!(report.host_requests, requests as u64);
    assert_eq!(report.host_rpcs_issued, hosts.len() as u64);
}

#[test]
fn batching_beats_sequential_accounting() {
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
    let mut model = ModelReplay::new(*analyzer.cost());
    model.replay(&outcomes);
    let stats = model.report();
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

fn shuffled(rng: &mut TestRng, mut v: Vec<usize>) -> Vec<usize> {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Seeded batch shapes over `n` distinct requests, as indices into them:
/// no repeats, one request in every slot, repeats side by side, repeats
/// a whole pass apart, and random multiplicities.
fn repeat_shapes(rng: &mut TestRng, n: usize) -> Vec<(&'static str, Vec<usize>)> {
    let pass = shuffled(rng, (0..n).collect());
    let adjacent = shuffled(rng, (0..n).collect())
        .into_iter()
        .flat_map(|j| std::iter::repeat_n(j, 1 + rng.below(4) as usize))
        .collect::<Vec<_>>();
    vec![
        ("no repeats", pass.clone()),
        (
            "one request in every slot",
            vec![rng.below(n as u64) as usize; 33],
        ),
        ("adjacent repeats", adjacent),
        ("far-apart repeats", [pass.clone(), pass].concat()),
        (
            "random multiplicities",
            (0..3 * n).map(|_| rng.below(n as u64) as usize).collect(),
        ),
    ]
}

/// A batch runs each distinct request once. Every slot still answers as
/// `Analyzer::execute` does and carries the trace the request has when
/// run alone; the first occurrence keeps the measured fan-out and each
/// later copy shares its trace with zeroed counters; the registry counts
/// one execution per distinct request, and the whole outcome vector is
/// the same at any worker count.
#[test]
fn repeated_requests_in_a_batch_execute_once() {
    let (tb, victim) = fat_tree_testbed();
    let analyzer = tb.analyzer();
    let mut seen = HashSet::new();
    let mut pool = query_set(&tb, victim);
    pool.retain(|r| seen.insert(*r));
    let answers: Vec<String> = pool
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();
    let plane = |workers, directory_shards| {
        QueryPlane::from_analyzer(
            &analyzer,
            QueryPlaneConfig {
                workers,
                shards: 8,
                directory_shards,
                retention: None,
            },
        )
    };
    let mut rng = rng_for("queryplane_concurrency::coalescing");
    let shapes = repeat_shapes(&mut rng, pool.len());

    for directory_shards in [1usize, 4] {
        // Each request run alone: its trace and measured fan-out.
        let mut solo = plane(1, directory_shards);
        let alone: Vec<(String, ShardFanout)> = pool
            .iter()
            .map(|r| {
                let o = solo.execute_batch(&[*r]).remove(0);
                (format!("{:?}", o.trace), o.counters.fanout)
            })
            .collect();

        for (shape, ix) in &shapes {
            let reqs: Vec<QueryRequest> = ix.iter().map(|&j| pool[j]).collect();
            let mut seen = HashSet::new();
            let distinct: Vec<QueryRequest> =
                reqs.iter().copied().filter(|r| seen.insert(*r)).collect();
            let mut only_distinct = plane(2, directory_shards);
            only_distinct.execute_batch(&distinct);

            let mut reference: Option<Vec<String>> = None;
            for workers in [1usize, 2, 8] {
                let at = format!("{shape}, {workers} workers, {directory_shards} dir shards");
                let mut p = plane(workers, directory_shards);
                let outs = p.execute_batch(&reqs);
                assert_eq!(outs.len(), reqs.len(), "{at}");
                let mut first: HashMap<QueryRequest, usize> = HashMap::new();
                for (i, o) in outs.iter().enumerate() {
                    let (trace, fanout) = &alone[ix[i]];
                    assert_eq!(
                        format!("{:?}", o.response),
                        answers[ix[i]],
                        "{at}: slot {i}"
                    );
                    assert_eq!(&format!("{:?}", o.trace), trace, "{at}: slot {i}");
                    match first.get(&reqs[i]) {
                        None => {
                            first.insert(reqs[i], i);
                            assert_eq!(&o.counters.fanout, fanout, "{at}: first occurrence {i}");
                        }
                        Some(&f) => {
                            assert!(Arc::ptr_eq(&o.trace, &outs[f].trace), "{at}: copy {i}");
                            assert_eq!(
                                o.counters.fanout,
                                ShardFanout::new(directory_shards),
                                "{at}: {i}"
                            );
                        }
                    }
                }
                assert_eq!(first.len(), distinct.len(), "{at}");
                assert_eq!(p.fanout(), only_distinct.fanout(), "{at}");
                let snap = p.metrics().snapshot();
                assert_eq!(
                    snap.counter("queryplane.queries"),
                    reqs.len() as u64,
                    "{at}"
                );
                assert_eq!(
                    snap.counter("queryplane.coalesced"),
                    (reqs.len() - distinct.len()) as u64,
                    "{at}"
                );
                let executions: u64 = QUERY_CLASS_NAMES
                    .iter()
                    .filter_map(|c| snap.hist(&format!("queryplane.exec_ns.{c}")))
                    .map(|h| h.count)
                    .sum();
                assert_eq!(executions, distinct.len() as u64, "{at}");

                let renders: Vec<String> = outs.iter().map(|o| format!("{o:?}")).collect();
                assert_eq!(
                    &renders,
                    reference.get_or_insert_with(|| renders.clone()),
                    "{at}"
                );
            }
        }
    }
}
