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
//! (d) **Counts mean one thing on every router.** A wave reads each host
//!     once, in process as over shard backends; and a query takes, over
//!     backends that answer late, the rounds its trace models.

use netsim::prelude::*;
use queryplane::model::ModelReplay;
use queryplane::{QueryPlane, QueryPlaneConfig};
use streamplane::{StandingEval, StandingQuery, StreamConfig, StreamPlane};
use suite::digest::fnv1a;
use switchpointer::query::QueryRequest;
use switchpointer::scenarios::{self, storm_queries, Scenario};
use switchpointer::shard::ShardedAnalyzer;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

/// Panics unless `reqs` asks a question of every query class.
fn assert_every_class(reqs: &[QueryRequest]) {
    let mut classes = [0usize; 6];
    for req in reqs {
        classes[req.class_index()] += 1;
    }
    assert!(
        classes.iter().all(|&n| n > 0),
        "every class is asked: {classes:?}"
    );
}

/// [`storm_queries`] plus `n` more drawn from `seed`: aggregates over
/// seeded switches, windows and `k`, sweeps over seeded windows, and the
/// diagnoses over seeded trigger windows and cascade depths. For a
/// starved victim (`scenarios::storm("h2_0_0", ..)`).
fn seeded_storm_queries(tb: &Testbed, victim: FlowId, seed: u64, n: usize) -> Vec<QueryRequest> {
    assert!(
        tb.hosts[&tb.node("h2_0_0")]
            .borrow()
            .first_trigger_for(victim)
            .is_some(),
        "the trigger-anchored query classes need the victim's trigger"
    );
    let switches = [
        "edge0_0", "edge0_1", "agg0_0", "agg0_1", "core0_0", "core1_1", "edge2_0",
    ];
    let mut rng = netsim::rng::DetRng::new(seed);
    let mut reqs = storm_queries(tb, victim);
    for _ in 0..n {
        let lo = rng.next_below(24);
        let range = EpochRange {
            lo,
            hi: lo + rng.next_below(16),
        };
        let switch = tb.node(switches[rng.next_below(switches.len() as u64) as usize]);
        let trigger_window = tb.cfg.trigger.window * (1 + rng.next_below(3));
        let victim_dst = tb.node("h2_0_0");
        reqs.push(match rng.next_below(6) {
            0 => QueryRequest::Contention {
                victim,
                victim_dst,
                trigger_window,
            },
            1 => QueryRequest::RedLights {
                victim,
                victim_dst,
                trigger_window,
            },
            2 => QueryRequest::Cascade {
                victim,
                victim_dst,
                trigger_window,
                max_depth: 1 + rng.next_below(4) as usize,
            },
            3 => QueryRequest::LoadImbalance { switch, range },
            4 => QueryRequest::TopK {
                switch,
                k: 1 + rng.next_below(12) as usize,
                range,
            },
            _ => QueryRequest::SilentDrop {
                flow: victim,
                src: tb.node("h0_0_0"),
                dst: victim_dst,
                range,
            },
        });
    }
    reqs
}

#[test]
fn sharded_analyzer_verdicts_identical_on_storm_workload() {
    let Scenario { tb, planted } = scenarios::storm("h2_0_0", true).run();
    let (victim, _) = planted.victim();
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    assert_every_class(&reqs);
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
    let Scenario { tb, planted } = scenarios::storm("h2_0_0", true).run();
    let (victim, _) = planted.victim();
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    assert_every_class(&reqs);
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
        let mut model = ModelReplay::new(*analyzer.cost());
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
        let mut tb = scenarios::chain_watch(TestbedConfig::default_ms()).tb;
        let analyzer = tb.analyzer();
        let mut sp = StreamPlane::new(
            &analyzer,
            StreamConfig {
                plane: QueryPlaneConfig {
                    workers: 4,
                    shards: 8,
                    directory_shards,
                    retention: None,
                },
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
    let mut tb = scenarios::chain_watch(TestbedConfig::default_ms()).tb;
    let analyzer = tb.analyzer();
    let mut sp = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 2,
                shards: 8,
                directory_shards: 4,
                retention: None,
            },
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

    let Scenario { tb, planted } = scenarios::storm("h2_0_0", true).run();
    let (victim, _) = planted.victim();
    let analyzer = tb.analyzer();
    let reqs = storm_queries(&tb, victim);
    assert_every_class(&reqs);
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

/// (d) A wave reads each of its hosts once, whoever drives the router:
/// for every class, at 1/2/4/8 shards, the per-shard host reads the
/// in-process plane's batch driver returns for a query equal those of a
/// bare [`BackendRouter`] over [`LocalBackend`]s running the same query.
#[test]
fn sharded_view_and_backend_router_count_a_wave_host_once() {
    use queryplane::Snapshot;
    use switchpointer::query::QueryExecutor;
    use switchpointer::shard::{BackendRouter, LocalBackend};

    let Scenario { tb, planted } = scenarios::storm("h2_0_0", true).run();
    let (victim, _) = planted.victim();
    let analyzer = tb.analyzer();
    let reqs = seeded_storm_queries(&tb, victim, 0x5eed_000d, 24);
    let snapshot = Snapshot::capture(&analyzer, 8);
    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
        let mut plane = QueryPlane::from_analyzer(
            &analyzer,
            QueryPlaneConfig {
                workers: 1,
                shards: 8,
                directory_shards: n_shards,
                retention: None,
            },
        );
        let backends: Vec<LocalBackend<'_, Snapshot>> = sharded
            .directory()
            .shards()
            .iter()
            .map(|s| LocalBackend::new(s, &snapshot))
            .collect();
        let mut classes = [0usize; 6];
        for req in &reqs {
            let driven = plane.execute_batch(std::slice::from_ref(req)).remove(0);
            let router = BackendRouter::new(&backends, sharded.directory());
            QueryExecutor::new(analyzer.ctx(), &router).execute(req);
            assert_eq!(
                driven.counters.fanout.host_reads,
                router.counters().fanout.host_reads,
                "{} at {n_shards} shards: the driver and the router count host reads differently",
                req.class_name()
            );
            classes[req.class_index()] += 1;
        }
        assert!(
            classes.iter().all(|&n| n > 0),
            "every class ran: {classes:?}"
        );
    }
}

/// (d) Measured rounds equal modelled rounds. Over backends that answer
/// every fanned-out read `Pending` — as a remote shard does, with no
/// socket and no clock — count the `Staged::Pending` steps `start` and
/// `resume` take at 1/2/4 shards:
///
/// * a diagnosis takes a union round and a wave round per pointer round
///   its trace records (one for contention and red lights, one per stage
///   for a cascade) — `2 × pointer_rounds` — except that a wave round
///   whose waves are all over no hosts is `Ready` and takes no step;
/// * an aggregate is one fused round (DESIGN §17, "An aggregate is one
///   round"), although its trace models the paper's two steps;
/// * a sweep never defers: one shard answers it.
///
/// Every response and trace equals `Analyzer::execute`'s.
#[test]
fn measured_rounds_equal_modelled_rounds_per_class() {
    use queryplane::Snapshot;
    use switchpointer::bitset::BitSet;
    use switchpointer::host::TriggerEvent;
    use switchpointer::hoststore::FlowRecord;
    use switchpointer::query::{
        Deferred, ExecutionTrace, FilterWaveReply, QueryExecutor, SizesWaveReply, Staged,
        StateView, TopKWaveReply, UnionSizes, UnionTopK,
    };
    use switchpointer::shard::{BackendRouter, LocalBackend, ShardBackend, ShardedDirectory};

    /// A [`LocalBackend`] whose fanned-out reads all arrive late.
    struct Late<'a>(LocalBackend<'a, Snapshot>);

    fn late<'s, T: 's>(reply: Deferred<'s, T>) -> Deferred<'s, T> {
        Deferred::Pending(Box::new(move || reply.wait()))
    }

    impl ShardBackend for Late<'_> {
        fn shard_id(&self) -> usize {
            self.0.shard_id()
        }
        fn union_slice(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, Option<BitSet>> {
            late(self.0.union_slice(switch, range))
        }
        fn probe_exact(&self, switch: NodeId, addr: u64, epoch: u64) -> Option<Option<bool>> {
            self.0.probe_exact(switch, addr, epoch)
        }
        fn presence_wave(&self, switches: &[NodeId], addr: u64, range: EpochRange) -> Vec<bool> {
            self.0.presence_wave(switches, addr, range)
        }
        fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
            self.0.record(host, flow)
        }
        fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent> {
            self.0.first_trigger_for(host, flow)
        }
        fn filter_wave(
            &self,
            hosts: &[NodeId],
            switch: NodeId,
            range: EpochRange,
        ) -> Deferred<'_, FilterWaveReply> {
            late(self.0.filter_wave(hosts, switch, range))
        }
        fn top_k_wave(
            &self,
            hosts: &[NodeId],
            switch: NodeId,
            k: usize,
        ) -> Deferred<'_, TopKWaveReply> {
            late(self.0.top_k_wave(hosts, switch, k))
        }
        fn sizes_wave(&self, hosts: &[NodeId], switch: NodeId) -> Deferred<'_, SizesWaveReply> {
            late(self.0.sizes_wave(hosts, switch))
        }
        fn union_top_k(
            &self,
            switch: NodeId,
            range: EpochRange,
            k: usize,
        ) -> Deferred<'_, UnionTopK> {
            late(self.0.union_top_k(switch, range, k))
        }
        fn union_sizes(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, UnionSizes> {
            late(self.0.union_sizes(switch, range))
        }
    }

    /// The rounds `trace` models for `req`, as the doc above counts them.
    fn modelled(req: &QueryRequest, trace: &ExecutionTrace) -> usize {
        let mut waves = trace.waves.iter();
        let mut round = |n_waves: usize| {
            let busy = waves.by_ref().take(n_waves).any(|w| !w.is_empty());
            1 + usize::from(busy)
        };
        match req {
            QueryRequest::Contention { .. } | QueryRequest::RedLights { .. } => {
                assert_eq!(trace.pointer_rounds.len(), 1);
                round(1)
            }
            // A stage traces one wave per path switch, and its pointer
            // round's keys are that path.
            QueryRequest::Cascade { .. } => trace
                .pointer_rounds
                .iter()
                .map(|r| round(r.keys.len()))
                .sum(),
            QueryRequest::TopK { .. } | QueryRequest::LoadImbalance { .. } => 1,
            QueryRequest::SilentDrop { .. } => 0,
        }
    }

    let (mut busy_diagnoses, mut idle_wave_rounds) = (0usize, 0usize);
    for cross in [true, false] {
        let Scenario { tb, planted } = scenarios::storm("h2_0_0", cross).run();
        let (victim, _) = planted.victim();
        let analyzer = tb.analyzer();
        let reqs = seeded_storm_queries(&tb, victim, 0x5eed_000d, 24);
        let live = analyzer.live_view();
        let snapshot = Snapshot::capture(&analyzer, 8);
        for n_shards in [1usize, 2, 4] {
            let dir = ShardedDirectory::new(
                analyzer.directory().mphf().clone(),
                &analyzer.all_hosts(),
                n_shards,
            );
            let backends: Vec<Late<'_>> = dir
                .shards()
                .iter()
                .map(|s| Late(LocalBackend::new(s, &snapshot)))
                .collect();
            let router = BackendRouter::new(&backends, &dir);
            // A wave over no hosts is answered on the spot.
            assert!(router
                .filter_wave(&[], tb.node("edge0_0"), EpochRange { lo: 0, hi: 9 })
                .is_ready());
            for req in &reqs {
                let mut steps = 0usize;
                let mut staged = QueryExecutor::new(analyzer.ctx(), &router).start(req);
                let (resp, trace) = loop {
                    match staged {
                        Staged::Done(resp, trace) => break (resp, trace),
                        Staged::Pending(stage) => {
                            steps += 1;
                            router.flush();
                            staged = stage.resume();
                        }
                    }
                };
                let (want_resp, want_trace) =
                    QueryExecutor::new(analyzer.ctx(), &live).execute_traced(req);
                assert_eq!(format!("{resp:?}"), format!("{want_resp:?}"));
                assert_eq!(format!("{trace:?}"), format!("{want_trace:?}"));
                let want = modelled(req, &trace);
                assert_eq!(
                    steps,
                    want,
                    "{} at {n_shards} shards: {steps} measured rounds, {want} modelled",
                    req.class_name()
                );
                if req.class_index() < 3 {
                    if steps == 2 * trace.pointer_rounds.len() {
                        busy_diagnoses += 1;
                    } else {
                        idle_wave_rounds += 1;
                    }
                }
            }
        }
    }
    // The mix covers both shapes of a diagnosis round.
    assert!(busy_diagnoses > 0 && idle_wave_rounds > 0);
}

/// (c), pinned: the directory-sharding ablation over 1/2/4/8 shards on
/// `scenarios::directory_ablation` — a `TopK` and a `LoadImbalance` at each of the
/// 20 switches plus one presence probe, whose exact-epoch probes target a
/// single owning shard (the case sharding cannot parallelise). Per shard
/// count: the modelled decode time, the largest and total per-shard
/// decode bits and the bits through the cross-shard merge. Verdicts equal the sequential analyzer's
/// at every count, the 4-shard decode models below the single
/// coordinator, and the whole series is pinned by digest, rendered one
/// `name x y` line per point in the order the series are listed.
#[test]
fn sharding_ablation_series_are_pinned() {
    use switchpointer::shard::ShardFanout;

    // The TCP flow the burst misses, swept for a presence probe.
    let Scenario { tb, planted } = scenarios::directory_ablation().run();
    let (victim, victim_dst) = (planted.background[0], tb.node("h2_0_0"));
    let analyzer = tb.analyzer();
    let window = EpochRange { lo: 10, hi: 20 };
    let mut reqs = Vec::new();
    for name in [
        "edge0_0", "edge0_1", "edge1_0", "edge1_1", "edge2_0", "edge2_1", "edge3_0", "edge3_1",
        "agg0_0", "agg0_1", "agg1_0", "agg1_1", "agg2_0", "agg2_1", "agg3_0", "agg3_1", "core0_0",
        "core0_1", "core1_0", "core1_1",
    ] {
        let switch = tb.node(name);
        reqs.push(QueryRequest::TopK {
            switch,
            k: 10,
            range: window,
        });
        reqs.push(QueryRequest::LoadImbalance {
            switch,
            range: window,
        });
    }
    reqs.push(QueryRequest::SilentDrop {
        flow: victim,
        src: tb.node("h0_0_0"),
        dst: victim_dst,
        range: window,
    });
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();

    let mut series: [(&str, Vec<(f64, f64)>); 4] = [
        ("modelled_decode_us", Vec::new()),
        ("max_shard_decode_bits", Vec::new()),
        ("total_decode_bits", Vec::new()),
        ("cross_shard_merge_bits", Vec::new()),
    ];
    let mut decode_ns = Vec::new();
    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
        let mut fanout = ShardFanout::new(n_shards);
        let mut decode_total_ns = 0u64;
        for (i, req) in reqs.iter().enumerate() {
            let (resp, _, f) = sharded.execute_traced(req);
            assert_eq!(
                format!("{resp:?}"),
                baseline[i],
                "query {i} diverged at {n_shards} directory shards"
            );
            decode_total_ns += f.modelled_decode(analyzer.cost()).as_ns();
            fanout.absorb(&f);
        }
        let x = n_shards as f64;
        let points = [
            decode_total_ns as f64 / 1e3,
            fanout.decode_bits.iter().copied().max().unwrap_or(0) as f64,
            fanout.decode_bits.iter().sum::<u64>() as f64,
            fanout.merged_bits as f64,
        ];
        for ((_, s), y) in series.iter_mut().zip(points) {
            s.push((x, y));
        }
        decode_ns.push(decode_total_ns);
    }
    assert!(
        decode_ns[2] < decode_ns[0],
        "4-shard decode ({} ns) must model below 1-shard ({} ns)",
        decode_ns[2],
        decode_ns[0]
    );
    let mut text = String::new();
    for (name, points) in &series {
        for (x, y) in points {
            text += &format!("{name} {x:?} {y:?}\n");
        }
    }
    assert_eq!(
        fnv1a(&text),
        SHARDING_ABLATION_DIGEST,
        "the sharding ablation moved:\n{text}"
    );
}

/// `fnv1a` of [`sharding_ablation_series_are_pinned`]'s rendering.
const SHARDING_ABLATION_DIGEST: u64 = 4270598991265056133;
