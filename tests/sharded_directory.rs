//! The sharded directory's contract:
//!
//! (a) **Verdict invariance.** `ShardedAnalyzer` verdicts are bit-identical
//!     to the sequential analyzer's at 1/2/4/8 directory shards — on both
//!     the storm workload (one-shot fat-tree batches, the `queryplane`
//!     regime) and the continuous-watch workload (standing queries over
//!     windows, the `streamplane` regime).
//! (b) **The partition is real.** Shards own disjoint host slices whose
//!     union is the whole directory; per-shard decode + merge equals the
//!     flat decode; fan-out counters attribute work to the owning shards.
//! (c) **Sharding pays.** The modelled decode cost of a balanced 4-shard
//!     directory is below the single-coordinator cost on the same queries.

use netsim::prelude::*;
use queryplane::model::ModelReplay;
use queryplane::{QueryPlane, QueryPlaneConfig};
use streamplane::{StandingEval, StandingQuery, StreamConfig, StreamPlane};
use switchpointer::query::QueryRequest;
use switchpointer::shard::ShardedAnalyzer;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

/// The storm fixture: a fat tree under mixed traffic with a starved
/// victim, same shape as the queryplane concurrency suite.
fn storm_testbed() -> (Testbed, FlowId) {
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

fn storm_queries(tb: &Testbed, victim: FlowId) -> Vec<QueryRequest> {
    let window = EpochRange { lo: 10, hi: 20 };
    let mut reqs = Vec::new();
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
    reqs.push(QueryRequest::SilentDrop {
        flow: victim,
        src: tb.node("h0_0_0"),
        dst: tb.node("h2_0_0"),
        range: window,
    });
    let da = tb.node("h2_0_0");
    if tb.hosts[&da].borrow().first_trigger_for(victim).is_some() {
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
    }
    reqs
}

#[test]
fn sharded_analyzer_verdicts_identical_on_storm_workload() {
    let (tb, victim) = storm_testbed();
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    assert!(reqs.len() >= 11);
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();
    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
        assert_eq!(sharded.n_shards(), n_shards);
        let mut touched_hosts = 0u64;
        let mut merges = 0u64;
        for (i, req) in reqs.iter().enumerate() {
            let (resp, _trace, fanout) = sharded.execute_traced(req);
            assert_eq!(
                format!("{resp:?}"),
                baseline[i],
                "query {i} diverged at {n_shards} directory shards"
            );
            assert_eq!(fanout.decode_bits.len(), n_shards);
            touched_hosts += fanout.host_reads.iter().sum::<u64>();
            merges += fanout.merges;
        }
        assert!(touched_hosts > 0, "the workload must fan out to hosts");
        if n_shards > 1 {
            // Reassembled pointer unions are cross-shard merges.
            assert!(merges > 0, "sharded decode must merge across shards");
        }
    }
}

#[test]
fn query_plane_verdicts_identical_across_directory_shards() {
    let (tb, victim) = storm_testbed();
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();
    let mut decode_totals = Vec::new();
    for directory_shards in [1usize, 2, 4, 8] {
        let mut plane = QueryPlane::from_analyzer(
            &analyzer,
            QueryPlaneConfig {
                workers: 4,
                shards: 8,
                directory_shards,
                retention: None,
            },
        );
        let outcomes = plane.execute_batch(&reqs);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                format!("{:?}", o.response),
                baseline[i],
                "query {i} diverged at {directory_shards} directory shards"
            );
        }
        let fanout = plane.fanout();
        assert_eq!(fanout.decode_bits.len(), directory_shards);
        if directory_shards > 1 {
            assert!(fanout.merges > 0, "sharded decode must merge");
        }
        if directory_shards >= 4 {
            // With few distinct decoded hosts a 2-way split can land on
            // one shard; by 4 shards the stable hash must spread them.
            assert!(
                fanout.decode_bits.iter().filter(|&&b| b > 0).count() > 1,
                "decode work must actually spread across {directory_shards} shards"
            );
        }
        // Modelled decode cost, priced from the measured fan-out.
        let mut model = ModelReplay::new(*analyzer.cost(), 4096);
        model.replay(&outcomes);
        decode_totals.push((directory_shards, model.report().modelled_decode_total));
    }
    // The acceptance bar: 4-shard modelled decode cost below 1-shard.
    let at = |n: usize| decode_totals.iter().find(|&&(s, _)| s == n).unwrap().1;
    assert!(
        at(4) < at(1),
        "4-shard decode ({}) must model below 1-shard ({})",
        at(4),
        at(1)
    );
}

/// The continuous-watch fixture: the chain deployment with standing
/// queries over advancing windows (the streamplane props fixture).
fn watch_testbed() -> Testbed {
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
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: b,
        dst: d,
        priority: Priority::LOW,
        start: SimTime::from_ms(4),
        duration: SimTime::from_ms(10),
        rate_bps: 60_000_000,
        payload_bytes: 1000,
    });
    tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
        d,
        a,
        Priority::LOW,
        SimTime::ZERO,
        400_000,
    ));
    tb
}

fn watch_standing(tb: &Testbed) -> Vec<StandingQuery> {
    vec![
        StandingQuery::TopKSliding {
            switch: tb.node("S1"),
            k: 5,
            epochs_back: 6,
        },
        StandingQuery::TopKSliding {
            switch: tb.node("S2"),
            k: 5,
            epochs_back: 6,
        },
        StandingQuery::Fixed(QueryRequest::TopK {
            switch: tb.node("S3"),
            k: 5,
            range: EpochRange { lo: 0, hi: 3 },
        }),
        StandingQuery::LoadImbalanceSliding {
            switch: tb.node("S2"),
            epochs_back: 8,
        },
    ]
}

#[test]
fn continuous_watch_verdicts_identical_across_directory_shards() {
    let drive = |directory_shards: usize| -> (Vec<String>, Vec<Vec<String>>) {
        let mut tb = watch_testbed();
        let analyzer = tb.analyzer();
        let mut sp = StreamPlane::new(
            &analyzer,
            StreamConfig {
                plane: QueryPlaneConfig {
                    workers: 4,
                    shards: 4,
                    directory_shards,
                    retention: None,
                },
                result_cache_capacity: 256,
            },
        );
        for q in watch_standing(&tb) {
            sp.subscribe(q);
        }
        let mut verdicts = Vec::new();
        for w in 1..=4u64 {
            tb.sim.run_until(SimTime::from_ms(w * 5));
            let report = sp.run_window(&analyzer);
            assert_eq!(report.per_shard_standing.len(), directory_shards);
            assert_eq!(
                report.per_shard_standing.iter().sum::<usize>(),
                sp.subscriptions().len(),
                "every subscription must be owned by exactly one shard"
            );
            verdicts.push(
                report
                    .standing
                    .iter()
                    .map(|(id, e)| match e {
                        StandingEval::Pending => format!("{id}: pending"),
                        StandingEval::Verdict { response, .. } => format!("{id}: {response:?}"),
                    })
                    .collect::<Vec<String>>(),
            );
        }
        let incidents = sp
            .incidents()
            .iter()
            .map(|i| format!("{}/{:?}/{}/{}", i.sub, i.kind, i.summary, i.fingerprint))
            .collect::<Vec<String>>();
        (incidents, verdicts)
    };
    let (base_incidents, base_verdicts) = drive(1);
    assert!(!base_incidents.is_empty());
    for n in [2usize, 4, 8] {
        let (incidents, verdicts) = drive(n);
        assert_eq!(
            incidents, base_incidents,
            "incident stream diverged at {n} directory shards"
        );
        assert_eq!(
            verdicts, base_verdicts,
            "standing verdicts diverged at {n} directory shards"
        );
    }
}

#[test]
fn subscriptions_partition_across_shards() {
    let mut tb = watch_testbed();
    let analyzer = tb.analyzer();
    let mut sp = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 2,
                shards: 4,
                directory_shards: 4,
                retention: None,
            },
            result_cache_capacity: 64,
        },
    );
    let ids: Vec<_> = watch_standing(&tb)
        .into_iter()
        .map(|q| sp.subscribe(q))
        .collect();
    let by_shard = sp.subscriptions_by_shard();
    assert_eq!(by_shard.len(), 4);
    let mut seen: Vec<_> = by_shard.into_iter().flatten().collect();
    seen.sort();
    let mut expected = ids.clone();
    expected.sort();
    assert_eq!(
        seen, expected,
        "each subscription owned by exactly one shard"
    );
    tb.sim.run_until(SimTime::from_ms(5));
    let report = sp.run_window(&analyzer);
    assert_eq!(report.per_shard_standing.iter().sum::<usize>(), ids.len());
}

/// (b continued) The shard-backend abstraction is the same partition
/// behind a different reach: a [`BackendRouter`] over in-process
/// [`LocalBackend`]s (what a wire deployment computes behind its
/// sockets) answers bit-identically to the flat analyzer, at any shard
/// count, while coalescing each query wave into one backend call per
/// shard.
#[test]
fn backend_router_over_local_backends_matches_flat_view() {
    use queryplane::Snapshot;
    use switchpointer::shard::{BackendRouter, LocalBackend, ShardedDirectory};

    let (tb, victim) = storm_testbed();
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();
    let snapshot = Snapshot::capture(&analyzer, 8);
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
        for coalesce in [true, false] {
            let router = if coalesce {
                BackendRouter::new(&backends, &dir)
            } else {
                BackendRouter::new(&backends, &dir).without_coalescing()
            };
            for (i, req) in reqs.iter().enumerate() {
                let exec = switchpointer::query::QueryExecutor::new(analyzer.ctx(), &router);
                let resp = exec.execute(req);
                assert_eq!(
                    format!("{resp:?}"),
                    baseline[i],
                    "query {i} diverged through the backend router \
                     ({n_shards} shards, coalesce={coalesce})"
                );
            }
            let c = router.counters();
            assert!(c.rpcs >= c.rounds, "a round needs at least one RPC");
            if !coalesce {
                // The naive regime can only cost more backend calls.
                let batched = BackendRouter::new(&backends, &dir);
                let exec = switchpointer::query::QueryExecutor::new(analyzer.ctx(), &batched);
                exec.execute(&reqs[0]);
                assert!(
                    c.rpcs / reqs.len() as u64 >= batched.counters().rpcs,
                    "coalescing must not increase per-query RPCs"
                );
            }
        }
    }
}
