//! `spexp wire` — the loopback RPC transport: modelled vs *measured*
//! round trips.
//!
//! Not a paper figure: every win so far (batched host fan-out, pointer
//! caching, sharded decode) is priced by `CostModel` terms; this driver
//! puts the storm workload through real wire-connected shard servers and
//! counts actual RPC frames. Per shard count it reports:
//!
//! * measured wave RPCs with per-shard coalescing (one frame per shard
//!   per query wave) vs without (one frame per host — the naive regime
//!   the paper's Fig. 12 prices conn-init for);
//! * the `CostModel`'s corresponding per-host RPC budget
//!   (`host_requests`, from the same queries' in-process traces) — the
//!   bound measured batched RPCs must stay within;
//! * wire wall-clock per query, as an honest transport sanity number;
//! * the **overlap ratio** of a shard fan-out: the wall-clock of serial
//!   `TopK` queries on the 8-shard cluster over the sum of their RPCs'
//!   round trips (the front-end's own `wire.rtt_ns.shard{N}` samples of
//!   exactly those RPCs). A router that waits on each shard before
//!   asking the next spends at least the sum, so its ratio is ≥ 1 on any
//!   machine; one with a fan-out's requests in flight together lands
//!   well below;
//! * the **hand-off counts** of a closed loop: 500 sequential client
//!   queries on a fresh 4-shard cluster, after which the front-end's pool
//!   workers have not run (a wave of one executes on the connection
//!   thread that decoded it), every shard has started at most one
//!   follower for the front-end's link, and no request was served with
//!   the read token held;
//! * the **window-wave counts**: one `close_window` over 40 sliding
//!   aggregate topics on a fresh 4-shard cluster, whose standing queries
//!   run in lock-step per front worker — so the window leaves as the
//!   horizon round plus, per worker, one `Batch` frame per shard for its
//!   chunk's pointer unions and one for its host waves;
//! * the **refresh counts**: one `refresh` of a fresh 4-shard cluster
//!   after a 1 ms advance — four acked appends and no bootstrap, all four
//!   on the wire before the first ack was read, and each replica's new
//!   state sharing with its old one everything the record did not name
//!   (counted by pointer identity, [`queryplane::Snapshot::unshared_with`]).
//!
//! Load-bearing shape checks (the CI smoke): verdicts through the wire
//! are bit-identical to the in-process `ShardedAnalyzer` at every shard
//! count; the naive regime measures at least the model's per-host RPC
//! term (the model is measurable, not just assumed — on this sweep it
//! matches exactly); coalesced wave *fan-outs* — one round trip each,
//! the per-shard frames being in flight together (the model's per-host
//! conn-init term is serialized, a wave's per-shard frames are not) —
//! stay at or below the modelled per-host budget at every shard count;
//! batched fan-out beats naive per-host RPCs by ≥ 4× on the storm
//! workload; the overlap ratio stays under [`OVERLAP_RATIO_MAX`] — a
//! same-run ratio, so the gate holds on a runner with any number of
//! cores; and the hand-off, window-wave and refresh counts are exact, so
//! those gates do too.

use netsim::prelude::*;
use streamplane::StandingQuery;
use switchpointer::query::QueryRequest;
use switchpointer::shard::ShardedAnalyzer;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;
use wireplane::{WireCluster, WireConfig};

use crate::common::{FigureData, Series};

/// The continuous-watch storm: a k=4 fat tree under cross-pod traffic
/// with an ECMP-colliding HIGH burst, so the victim's trigger fires
/// deterministically and the diagnoses join the sweep.
pub(crate) fn testbed() -> (Testbed, FlowId, NodeId) {
    let (mut tb, victim, victim_dst) = storm();
    tb.sim.run_until(SimTime::from_ms(40));
    (tb, victim, victim_dst)
}

/// [`testbed`] before any of it has run.
fn storm() -> (Testbed, FlowId, NodeId) {
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let background = |tb: &mut Testbed, s: &str, d: &str| {
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
    };
    background(&mut tb, "h1_0_0", "h3_1_1");
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
    background(&mut tb, "h1_1_0", "h2_1_1");
    background(&mut tb, "h3_0_0", "h0_1_0");
    // Widen the storm (after the victim/burst, so their flow ids — and
    // the ECMP collision that fires the trigger — are unchanged): cross-
    // pod flows to distinct destinations across all pods, so pointer
    // unions decode many hosts and the fan-out has something to coalesce.
    for (s, d) in [
        ("h0_0_0", "h2_0_0"),
        ("h0_0_1", "h2_0_1"),
        ("h0_1_0", "h2_1_0"),
        ("h0_1_1", "h2_1_1"),
        ("h1_0_0", "h3_0_0"),
        ("h1_0_1", "h3_0_1"),
        ("h1_1_0", "h3_1_0"),
        ("h1_1_1", "h3_1_1"),
        ("h2_0_0", "h0_0_0"),
        ("h2_0_1", "h0_0_1"),
        ("h2_1_0", "h0_1_0"),
        ("h2_1_1", "h0_1_1"),
        ("h3_0_0", "h1_0_0"),
        ("h3_0_1", "h1_0_1"),
        ("h3_1_0", "h1_1_0"),
        ("h3_1_1", "h1_1_1"),
        ("h0_1_0", "h3_0_0"),
        ("h0_1_1", "h3_0_1"),
        ("h1_0_0", "h2_0_0"),
        ("h1_0_1", "h2_0_1"),
    ] {
        background(&mut tb, s, d);
    }
    (tb, victim, da)
}

/// The decode-heavy storm sweep: a wide trailing window over the
/// aggregation and core layers, whose pointer unions decode much of the
/// fabric — every query wave fans out to many hosts, the regime
/// per-shard coalescing exists for. The RPC counters are measured on
/// this sweep.
pub(crate) fn sweep_queries(tb: &Testbed) -> Vec<QueryRequest> {
    let window = EpochRange { lo: 5, hi: 25 };
    let mut reqs = Vec::new();
    for name in [
        "agg0_0", "agg0_1", "agg1_0", "agg1_1", "agg2_0", "agg2_1", "agg3_0", "agg3_1", "core0_0",
        "core0_1", "core1_0", "core1_1",
    ] {
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
    reqs
}

/// The trigger-anchored diagnoses plus the presence probe — parity
/// coverage for every request shape (their small per-path waves ride
/// outside the RPC measurement).
fn diagnosis_queries(tb: &Testbed, victim: FlowId, victim_dst: NodeId) -> Vec<QueryRequest> {
    let w = tb.cfg.trigger.window;
    vec![
        QueryRequest::SilentDrop {
            flow: victim,
            src: tb.node("h0_0_0"),
            dst: victim_dst,
            range: EpochRange { lo: 5, hi: 25 },
        },
        QueryRequest::Contention {
            victim,
            victim_dst,
            trigger_window: w,
        },
        QueryRequest::RedLights {
            victim,
            victim_dst,
            trigger_window: w,
        },
        QueryRequest::Cascade {
            victim,
            victim_dst,
            trigger_window: w,
            max_depth: 3,
        },
    ]
}

/// Ceiling on the overlap ratio (see the module docs). Sequential issue
/// gives ≥ 1 by construction (1.05 measured at the last commit that
/// issued sequentially); the overlapped router measures 0.37–0.42 on a
/// 2-vCPU box (0.23–0.32 before the shard RTTs in the denominator lost
/// their thread hand-off), so 0.7 leaves a slow runner a 1.7× margin and
/// still sits clear of the regime it exists to catch.
const OVERLAP_RATIO_MAX: f64 = 0.7;

/// Serial repeats of the fan-out query behind the overlap ratio.
const OVERLAP_REPEATS: usize = 200;

/// Sum and count of every `wire.rtt_ns.shard{N}` sample the front-end
/// has recorded so far.
fn rtt_totals(cluster: &WireCluster, n_shards: usize) -> (u64, u64) {
    let snap = cluster.front_metrics().snapshot();
    (0..n_shards)
        .filter_map(|s| snap.hist(&format!("wire.rtt_ns.shard{s}")))
        .fold((0, 0), |(sum, count), h| (sum + h.sum, count + h.count))
}

/// Runs `req` serially [`OVERLAP_REPEATS`] times and returns
/// `(rpcs per query, wall ns per query, mean RTT ns of those RPCs)`.
fn overlap_probe(cluster: &WireCluster, n_shards: usize, req: &QueryRequest) -> (u64, f64, f64) {
    let (rtt_sum0, rtt_count0) = rtt_totals(cluster, n_shards);
    let mut rpcs = 0u64;
    let t0 = std::time::Instant::now();
    for _ in 0..OVERLAP_REPEATS {
        rpcs += cluster.front().execute(req).2.rpcs;
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let (rtt_sum, rtt_count) = rtt_totals(cluster, n_shards);
    assert_eq!(
        rtt_count - rtt_count0,
        rpcs,
        "every routed RPC must leave exactly one RTT sample"
    );
    (
        rpcs / OVERLAP_REPEATS as u64,
        wall_ns / OVERLAP_REPEATS as f64,
        (rtt_sum - rtt_sum0) as f64 / rpcs as f64,
    )
}

/// Sequential client queries behind the hand-off gate.
const HANDOFF_QUERIES: usize = 500;

/// Nanoseconds the front-end's pool workers have spent inside batches.
fn front_pool_worker_ns(cluster: &WireCluster, workers: usize) -> u64 {
    let snap = cluster.front_metrics().snapshot();
    (0..workers)
        .map(|w| {
            snap.counter(&format!("pool.worker{w}.busy_ns"))
                + snap.counter(&format!("pool.worker{w}.idle_ns"))
        })
        .sum()
}

/// The hand-off gate: a closed loop of single queries through a client
/// connection must cost no pool wake-up on the front-end and no thread
/// start (beyond each link's one follower) or token-held serve on the
/// shards. Counts, not clocks — exact on any runner. Returns the note.
fn handoff_gate(
    analyzer: &switchpointer::Analyzer,
    cfg: WireConfig,
    reqs: &[QueryRequest],
    baseline: &[String],
) -> String {
    const SHARDS: usize = 4;
    let cluster = WireCluster::launch(analyzer, SHARDS, cfg).expect("launch hand-off cluster");
    let mut client = cluster.client().expect("connect hand-off client");
    let pool_ns_before = front_pool_worker_ns(&cluster, cfg.front_workers);
    for i in 0..HANDOFF_QUERIES {
        let resp = client.query(&reqs[i % reqs.len()]).expect("hand-off query");
        assert_eq!(
            format!("{resp:?}"),
            baseline[i % reqs.len()],
            "hand-off query {i} diverged"
        );
    }
    let pool_ns = front_pool_worker_ns(&cluster, cfg.front_workers) - pool_ns_before;
    let per_shard = |name: &str| -> Vec<u64> {
        (0..SHARDS)
            .map(|s| cluster.server_metrics(s).snapshot().counter(name))
            .collect()
    };
    let (spawns, inline) = (
        per_shard("wire.serve_spawns"),
        per_shard("wire.serve_inline"),
    );
    drop(client);
    cluster.shutdown();
    assert_eq!(
        pool_ns, 0,
        "{HANDOFF_QUERIES} sequential client queries moved the front-end's pool workers by \
         {pool_ns} ns: a wave of one must run on its connection thread"
    );
    // Only the front-end's link carried requests (the replication
    // writer's stayed idle), so one follower per shard is the ceiling.
    assert!(
        spawns.iter().all(|&n| n <= 1),
        "a closed loop started more than one follower per connection: {spawns:?}"
    );
    assert!(
        inline.iter().all(|&n| n == 0),
        "a closed loop was served with the read token held: {inline:?}"
    );
    format!(
        "wire hand-off gate: enforced — {SHARDS} shard(s), {HANDOFF_QUERIES} sequential client \
         queries: front pool worker time +{pool_ns} ns (0 required), serve_spawns per shard \
         {spawns:?} (<= 1 per connection required), serve_inline {inline:?} (0 required)"
    )
}

/// Standing aggregates behind the window-wave gate: a sliding `TopK` and
/// a sliding `LoadImbalance` on each of the fat tree's 20 switches.
const WINDOW_TOPICS: usize = 40;

/// The window-wave gate: a window of standing aggregates must cost two
/// batched rounds per front worker, not two round trips per topic.
/// Counts, not clocks — exact on any runner. Returns the note.
fn window_wave_gate(analyzer: &switchpointer::Analyzer) -> String {
    const SHARDS: usize = 4;
    let cfg = WireConfig::default();
    let cluster = WireCluster::launch(analyzer, SHARDS, cfg).expect("launch window-wave cluster");
    let mut client = cluster.client().expect("connect window-wave subscriber");
    let mut topics = 0;
    for switch in analyzer.all_switches() {
        for query in [
            StandingQuery::TopKSliding {
                switch,
                k: 10,
                epochs_back: 20,
            },
            StandingQuery::LoadImbalanceSliding {
                switch,
                epochs_back: 20,
            },
        ] {
            client.subscribe(query, 0).expect("subscribe");
            topics += 1;
        }
    }
    assert_eq!(topics, WINDOW_TOPICS, "fixture regressed: 20 switches");
    let frames_before = cluster.front().wire_frames_sent();
    let summary = cluster.close_window();
    let frames = cluster.front().wire_frames_sent() - frames_before;
    let wave_frames = cluster
        .front_metrics()
        .snapshot()
        .hist("wire.frames_per_wave")
        .expect("the window ran a wave")
        .max;
    drop(client);
    cluster.shutdown();
    assert_eq!(
        (summary.evaluated, summary.pending),
        (WINDOW_TOPICS as u64, 0)
    );
    // The horizon round, then per worker one frame per shard per round.
    let window_bound = (SHARDS * (1 + 2 * cfg.front_workers)) as u64;
    let wave_bound = (2 * SHARDS * cfg.front_workers) as u64;
    assert!(
        frames <= window_bound,
        "a window of {WINDOW_TOPICS} topics put {frames} envelope frames on the wire \
         (<= {window_bound} required): its standing queries are not leaving as one batch per \
         shard per round"
    );
    assert!(
        wave_frames <= wave_bound,
        "wire.frames_per_wave {wave_frames} exceeds 2 x {SHARDS} shards x {} workers",
        cfg.front_workers
    );
    format!(
        "wire window-wave gate: enforced — {SHARDS} shard(s), {} front worker(s), one window of \
         {WINDOW_TOPICS} sliding topics: {frames} envelope frames (<= {window_bound} required; \
         ~{} query-at-a-time), wire.frames_per_wave {wave_frames} (<= {wave_bound} required)",
        cfg.front_workers,
        2 * SHARDS * WINDOW_TOPICS
    )
}

/// The refresh gate: a refresh costs what changed and waits once, not
/// once per shard. Counts, not clocks — exact on any runner. Returns the
/// note.
fn refresh_gate() -> String {
    const SHARDS: usize = 4;
    let (mut tb, _, _) = storm();
    tb.sim.run_until(SimTime::from_ms(20));
    let analyzer = tb.analyzer();
    let cluster = WireCluster::launch(&analyzer, SHARDS, WireConfig::default())
        .expect("launch refresh cluster");
    let served = |s| cluster.replica_state(s, 0).expect("a live primary");
    let before: Vec<_> = (0..SHARDS).map(served).collect();
    tb.sim.run_until(SimTime::from_ms(21));
    let delta = cluster.refresh(&analyzer);
    let owner = cluster.owner_metrics().snapshot();
    let (appends, bootstraps) = (
        owner.counter("repl.appends"),
        owner.counter("repl.bootstraps"),
    );
    let in_flight = owner.gauges.get("repl.in_flight").copied().unwrap_or(0);
    let copied: Vec<_> = (0..SHARDS)
        .map(|s| served(s).view.unshared_with(&before[s].view))
        .collect();
    cluster.shutdown();
    assert!(
        delta.cloned_slots > 0 && delta.cloned_records > 0,
        "fixture regressed: the 1 ms advance changed nothing"
    );
    assert_eq!(
        (appends, bootstraps),
        (SHARDS as u64, 0),
        "one refresh of {SHARDS} healthy shards is {SHARDS} acked appends and no bootstrap"
    );
    assert_eq!(
        in_flight, SHARDS as i64,
        "{in_flight} append(s) were on the wire when the publisher read its first ack: the \
         refresh is not issue-then-collect"
    );
    // Pointer patches go to every shard, a host patch to the shard that
    // owns the host.
    for (s, c) in copied.iter().enumerate() {
        assert_eq!(
            (c.switches, c.slots as u64),
            (delta.dirty_switches.len(), delta.cloned_slots),
            "shard {s} copied hierarchy slots the record did not name"
        );
    }
    let hosts: usize = copied.iter().map(|c| c.hosts).sum();
    let records: usize = copied.iter().map(|c| c.records).sum();
    assert_eq!(
        (hosts, records as u64),
        (delta.dirty_hosts.len(), delta.cloned_records),
        "the replicas copied host state the record did not name"
    );
    format!(
        "wire refresh gate: enforced — {SHARDS} shard(s), one refresh after a 1 ms advance: \
         repl.appends {appends} (= shards required), repl.bootstraps {bootstraps} (0 required), \
         repl.in_flight {in_flight} when the first ack was read (= shards required); copied per \
         replica {} slots in {} hierarchies, across replicas {records} records in {hosts} host \
         stores (= named by the record required; a full copy is {} slots and {} records)",
        delta.cloned_slots,
        delta.dirty_switches.len(),
        delta.full_slots,
        delta.full_records
    )
}

pub fn wire() -> Vec<FigureData> {
    let (tb, victim, victim_dst) = testbed();
    let analyzer = tb.analyzer();
    assert!(
        tb.hosts[&victim_dst]
            .borrow()
            .first_trigger_for(victim)
            .is_some(),
        "fixture regressed: the victim's trigger must fire"
    );
    let reqs = sweep_queries(&tb);
    let diags = diagnosis_queries(&tb, victim, victim_dst);
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();
    let diag_baseline: Vec<String> = diags
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();

    let mut fig = FigureData::new(
        "wire",
        "loopback RPC transport: measured wave RPCs (batched vs naive) vs the modelled per-host budget",
        "directory_shards",
        "per-sweep counters",
    );
    let mut batched_rpcs = Series::new("measured_batched_wave_rpcs");
    let mut batched_rounds = Series::new("measured_batched_wave_rounds");
    let mut naive_rpcs = Series::new("measured_naive_wave_rpcs");
    let mut modelled_budget = Series::new("modelled_per_host_rpc_budget");
    let mut rounds_per_query = Series::new("measured_rounds_per_query");
    let mut serial_us_per_query = Series::new("wire_serial_us_per_query");
    let mut wire_us_per_query = Series::new("wire_wall_us_per_query");

    let mut headline: Vec<(usize, u64, u64, u64, u64)> = Vec::new();
    // (n_shards, serial us/query, wave us/query).
    let mut speedups: Vec<(usize, f64, f64)> = Vec::new();
    // (rpcs, wall ns, mean RTT ns) of one TopK fan-out at the widest
    // deployment: the overlap gate.
    let mut overlap = None;
    // Generous worker pool for the wave timings; the gates that count
    // frames per worker launch their own clusters.
    let cfg = WireConfig {
        front_workers: 16,
        ..WireConfig::default()
    };
    for n_shards in [1usize, 2, 4, 8] {
        // The CostModel's per-host RPC term for these queries: one RPC
        // per (wave, host) pair in the in-process traces — what the
        // sequential model charges conn-init for (Fig. 12's dominant
        // term) and what the naive wire regime must reproduce.
        let sharded = ShardedAnalyzer::new(&analyzer, n_shards);
        let mut host_requests = 0u64;
        for (i, req) in reqs.iter().enumerate() {
            let (resp, trace, _) = sharded.execute_traced(req);
            assert_eq!(
                format!("{resp:?}"),
                baseline[i],
                "in-process verdict diverged at {n_shards} shards (query {i})"
            );
            host_requests += trace.waves.iter().map(|w| w.len() as u64).sum::<u64>();
        }

        // Measured, batched: one wave frame per shard per wave. The
        // serial loop is the legacy transport shape — one blocking query
        // at a time, so queries neither overlap nor combine (each
        // query's own shard fan-outs still do).
        let cluster =
            WireCluster::launch(&analyzer, n_shards, cfg).expect("launch batched cluster");
        let t0 = std::time::Instant::now();
        for (i, req) in reqs.iter().enumerate() {
            let (resp, _, _) = cluster.front().execute(req);
            assert_eq!(
                format!("{resp:?}"),
                baseline[i],
                "wire verdict diverged at {n_shards} shards (query {i})"
            );
        }
        let serial_wall = t0.elapsed();
        let batched = cluster.front().counters();
        // Parity for the trigger-anchored diagnoses too (outside the
        // sweep's RPC measurement).
        for (i, req) in diags.iter().enumerate() {
            let (resp, _, _) = cluster.front().execute(req);
            assert_eq!(
                format!("{resp:?}"),
                diag_baseline[i],
                "wire diagnosis {i} diverged at {n_shards} shards"
            );
        }
        // The wire fast path: the same sweep as one wave. Each front
        // worker drives its chunk of queries in lock-step, so a chunk's
        // round leaves as one batch frame per shard. Verdicts stay
        // bit-identical, per query. One warmup wave (connection +
        // allocator steady state), then the timed best-of-3.
        let check_wave = |results: &[(switchpointer::query::QueryResponse, _, _)]| {
            for (i, (resp, _, _)) in results.iter().enumerate() {
                assert_eq!(
                    format!("{resp:?}"),
                    baseline[i],
                    "wave verdict diverged at {n_shards} shards (query {i})"
                );
            }
        };
        check_wave(&cluster.front().execute_wave(&reqs));
        let mut wave_wall = std::time::Duration::MAX;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            let results = cluster.front().execute_wave(&reqs);
            wave_wall = wave_wall.min(t0.elapsed());
            check_wave(&results);
        }
        if n_shards == 8 {
            overlap = Some(overlap_probe(&cluster, n_shards, &reqs[0]));
        }
        cluster.shutdown();
        let serial_us = serial_wall.as_micros() as f64 / reqs.len() as f64;
        let wave_us = wave_wall.as_micros() as f64 / reqs.len() as f64;
        speedups.push((n_shards, serial_us, wave_us));

        // Measured, naive: one wave frame per host per wave.
        let naive_cluster = WireCluster::launch_with(&analyzer, n_shards, cfg, false)
            .expect("launch naive cluster");
        for (i, req) in reqs.iter().enumerate() {
            let (resp, _, _) = naive_cluster.front().execute(req);
            assert_eq!(
                format!("{resp:?}"),
                baseline[i],
                "naive-wire verdict diverged at {n_shards} shards (query {i})"
            );
        }
        let naive = naive_cluster.front().counters();
        naive_cluster.shutdown();

        let x = n_shards as f64;
        batched_rpcs.push(x, batched.wave_rpcs as f64);
        batched_rounds.push(x, batched.wave_rounds as f64);
        naive_rpcs.push(x, naive.wave_rpcs as f64);
        modelled_budget.push(x, host_requests as f64);
        rounds_per_query.push(x, batched.rounds as f64 / reqs.len() as f64);
        serial_us_per_query.push(x, serial_us);
        wire_us_per_query.push(x, wave_us);
        headline.push((
            n_shards,
            batched.wave_rpcs,
            batched.wave_rounds,
            naive.wave_rpcs,
            host_requests,
        ));
    }

    fig.series = vec![
        batched_rpcs,
        batched_rounds,
        naive_rpcs,
        modelled_budget,
        rounds_per_query,
        serial_us_per_query,
        wire_us_per_query,
    ];
    for &(n, b_rpcs, b_rounds, naive, budget) in &headline {
        fig.note(format!(
            "{n} shard(s): {b_rounds} coalesced wave round-trips ({b_rpcs} frames) vs \
             {naive} naive per-host RPCs ({:.1}x) — modelled per-host budget {budget}",
            naive as f64 / b_rounds.max(1) as f64
        ));
    }
    fig.note(
        "verdicts through the wire bit-identical to the in-process ShardedAnalyzer \
         at every shard count (asserted per query; property suite: tests/wireplane_props.rs)"
            .to_string(),
    );

    // Load-bearing shape checks (the CI smoke relies on these).
    for &(n, b_rpcs, b_rounds, naive, budget) in &headline {
        // Measured round-trips stay within the CostModel's batched-RPC
        // bound: a coalesced wave costs one round trip however many
        // hosts it reaches, so its round-trip count must sit at or below
        // the per-host RPC count the model prices conn-init for (which
        // the naive regime must in turn reproduce at least in full).
        assert!(
            b_rounds <= budget,
            "{n} shards: measured wave round-trips ({b_rounds}) exceed the CostModel's \
             per-host RPC budget ({budget})"
        );
        assert!(
            naive >= b_rpcs,
            "{n} shards: coalescing increased wave frames ({b_rpcs} vs naive {naive})"
        );
        assert!(
            naive as f64 >= budget as f64,
            "{n} shards: the naive regime must pay at least the modelled per-host term \
             (measured {naive} vs modelled {budget})"
        );
    }
    // The headline: coalesced fan-out beats naive per-host RPCs by
    // >= 4x on the storm workload at the 4-shard deployment.
    let at4 = headline.iter().find(|&&(n, ..)| n == 4).unwrap();
    assert!(
        at4.3 >= 4 * at4.2,
        "4 shards: batched fan-out must beat naive per-host RPCs by >= 4x \
         (naive {} vs {} coalesced round-trips)",
        at4.3,
        at4.2
    );

    // Serial vs lock-step-wave wall-clock, for the record only (a
    // clock, so not gated): the wave's gain is frames and wake-ups it
    // does not pay — counted by the window-wave gate below — not cores
    // it happens to find.
    for &(n, serial_us, wave_us) in &speedups {
        fig.note(format!(
            "{n} shard(s): serial {serial_us:.0} us/query vs wave {wave_us:.0} us/query \
             ({:.1}x fast-path speedup)",
            serial_us / wave_us.max(f64::EPSILON)
        ));
    }

    // The overlap gate: a fan-out's round trips must overlap. Both sides
    // of the ratio come from the same queries on the same cluster, so
    // the runner's speed and core count cancel out.
    let (rpcs, wall_ns, rtt_ns) = overlap.expect("the sweep includes the 8-shard deployment");
    let sequential_ns = rpcs as f64 * rtt_ns;
    let ratio = wall_ns / sequential_ns;
    assert!(
        ratio < OVERLAP_RATIO_MAX,
        "8 shards: a TopK of {rpcs} RPCs took {:.0} us against {:.0} us of summed round trips \
         (ratio {ratio:.2}, must stay under {OVERLAP_RATIO_MAX}): the shard fan-out is not overlapped",
        wall_ns / 1e3,
        sequential_ns / 1e3
    );
    fig.note(format!(
        "wire overlap gate: enforced — 8 shard(s), serial TopK of {rpcs} RPCs: wall {:.0} us vs \
         {rpcs} x mean RTT {:.0} us = {:.0} us back to back (ratio {ratio:.2}, < \
         {OVERLAP_RATIO_MAX} required; >= 1 without overlap)",
        wall_ns / 1e3,
        rtt_ns / 1e3,
        sequential_ns / 1e3
    ));
    fig.note(handoff_gate(&analyzer, cfg, &reqs, &baseline));
    fig.note(window_wave_gate(&analyzer));
    fig.note(refresh_gate());
    vec![fig]
}
