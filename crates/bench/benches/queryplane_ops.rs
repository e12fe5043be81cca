//! Query-plane + stream-plane benchmarks: wall-clock queries/sec versus
//! worker count, the modelled accounting (cache hit-rate, batched
//! speedup), and the continuous-monitoring trajectory (incremental
//! delta-refresh vs full recapture, result-cache hit rate, incidents/sec).
//!
//! Besides the Criterion timings, this bench writes a machine-readable
//! summary to `target/queryplane_ops.json` so future PRs have a perf
//! trajectory to compare against — covering both planes.
//!
//! Since the pool became persistent (spawned once per plane instead of
//! per batch), more workers must not cost wall-clock throughput; the
//! bench asserts 16-worker ≥ 1-worker queries/sec on the storm workload
//! (the exact regression DESIGN.md §9 used to document).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::prelude::*;
use obsplane::{HistogramSnapshot, Percentiles, RegistrySnapshot};
use queryplane::model::ModelReplay;
use queryplane::{QueryPlane, QueryPlaneConfig, RetentionPolicy, Snapshot};
use streamplane::{StandingQuery, StreamConfig, StreamPlane};
use switchpointer::query::{QueryRequest, QUERY_CLASS_NAMES};
use switchpointer::testbed::{churn_storm, Testbed, TestbedConfig};
use telemetry::EpochRange;
use wireplane::{WireCluster, WireConfig};

/// The workload: a fat-tree under mixed traffic and a repeat-heavy query
/// storm (the cacheable regime the plane is built for), covering all six
/// query classes — the three range aggregates plus the trigger-anchored
/// diagnoses over a starved TCP victim — so every per-class latency
/// histogram the JSON reports carries real samples.
fn workload() -> (Testbed, Vec<QueryRequest>) {
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, da) = (tb.node("h0_0_0"), tb.node("h2_0_0"));
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(30),
    ));
    // A high-priority burst aimed at the victim's own destination host:
    // the two flows share the last-hop edge link no matter what ECMP
    // does upstream, so the victim's starvation trigger — the anchor the
    // Contention/RedLights/Cascade diagnoses are keyed to — fires
    // deterministically (asserted below).
    let b = tb.node("h0_0_1");
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        da,
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
            duration: SimTime::from_ms(25),
            rate_bps: 100_000_000,
            payload_bytes: 1458,
        });
    }
    tb.sim.run_until(SimTime::from_ms(30));
    assert!(
        tb.hosts[&da].borrow().first_trigger_for(victim).is_some(),
        "workload fixture must starve the victim: the trigger-anchored \
         query classes depend on it"
    );

    let window = EpochRange { lo: 5, hi: 20 };
    // Presence sweeps scan the whole pointer retention span (α^k = 1000
    // epochs) at exact resolution — the §2.4-class "where did this flow
    // vanish" query. They are the batch's compute-heavy tail, so the
    // worker pool has real parallel work even though the aggregate
    // queries answer in microseconds.
    let retention = EpochRange { lo: 0, hi: 999 };
    let switches = [
        "edge0_0", "agg0_0", "agg0_1", "core0_0", "edge2_0", "agg2_0",
    ];
    let mut reqs = Vec::new();
    for round in 0..32u64 {
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
        for probe in 0..2u64 {
            reqs.push(QueryRequest::SilentDrop {
                // Flows that never ran: the all-absent sweep is the worst
                // (and deterministic-length) case.
                flow: FlowId(1000 + round * 2 + probe),
                src: tb.node("h0_1_0"),
                dst: tb.node("h2_1_0"),
                range: retention,
            });
        }
        // Trigger-anchored diagnoses over the starved victim, every
        // fourth round: enough repeats that the contention / red-lights
        // / cascade latency distributions have stable percentiles.
        if round % 4 == 0 {
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
    }
    (tb, reqs)
}

/// Modelled accounting of one batch (worker-independent: the replay is a
/// pure function of the outcomes in submission order).
struct BatchAccounting {
    cache_hit_rate: f64,
    modelled_speedup: f64,
}

/// Wall-clock throughput at one concurrency level, cold and cache-warm.
struct ThroughputPoint {
    workers: usize,
    cold_qps: f64,
    warm_qps: f64,
}

/// Times one `execute_batch`, then — outside the timed region — replays
/// its outcomes through `model` for the batch's modelled figures.
fn batch_delta(
    plane: &mut QueryPlane,
    model: &mut ModelReplay,
    reqs: &[QueryRequest],
) -> (std::time::Duration, BatchAccounting) {
    let t0 = Instant::now();
    let outcomes = plane.execute_batch(reqs);
    let dt = t0.elapsed();
    assert_eq!(outcomes.len(), reqs.len());
    let before = model.report();
    model.replay(&outcomes);
    let after = model.report();
    let hits = after.pointer_hits - before.pointer_hits;
    let misses = after.pointer_misses - before.pointer_misses;
    let sequential = (after.sequential_total - before.sequential_total).as_ns() as f64;
    let batched = (after.batched_total - before.batched_total).as_ns() as f64;
    (
        dt,
        BatchAccounting {
            cache_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
            modelled_speedup: sequential / batched.max(1.0),
        },
    )
}

/// Timed cold + warm batches at `workers` on a fresh plane. The modelled
/// accounting deltas are per batch (cold = empty cache, warm = the same
/// batch repeated against a populated cache). The warm throughput is the
/// best of five repeats — wall-clock comparisons across worker counts
/// gate on it, so scheduler noise must not decide them.
fn measure(
    tb: &Testbed,
    reqs: &[QueryRequest],
    workers: usize,
) -> (ThroughputPoint, BatchAccounting, BatchAccounting) {
    let analyzer = tb.analyzer();
    let mut plane = QueryPlane::from_analyzer(
        &analyzer,
        QueryPlaneConfig {
            workers,
            shards: 8,
            directory_shards: 1,
            retention: None,
        },
    );
    let mut model = ModelReplay::new(*analyzer.cost(), 4096);
    let (cold_dt, cold) = batch_delta(&mut plane, &mut model, reqs);
    let (mut warm_dt, warm) = batch_delta(&mut plane, &mut model, reqs);
    for _ in 0..4 {
        let (dt, _) = batch_delta(&mut plane, &mut model, reqs);
        warm_dt = warm_dt.min(dt);
    }
    (
        ThroughputPoint {
            workers,
            cold_qps: reqs.len() as f64 / cold_dt.as_secs_f64().max(1e-9),
            warm_qps: reqs.len() as f64 / warm_dt.as_secs_f64().max(1e-9),
        },
        cold,
        warm,
    )
}

/// One directory-shard ablation point: per-shard fan-out and the
/// modelled decode cost at that shard count.
struct ShardPoint {
    shards: usize,
    decode_bits: Vec<u64>,
    host_reads: Vec<u64>,
    cross_shard_merges: u64,
    modelled_decode_us: f64,
    decode_speedup: f64,
}

/// Runs the storm batch's union-decode queries (TopK / LoadImbalance)
/// through planes with 1/2/4/8 directory shards and records the
/// per-shard fan-out counters. The SilentDrop presence sweeps are left
/// out: single-address probes route to exactly one owning shard, so they
/// are sharding-neutral by construction and would only dilute the
/// trajectory. Gates the acceptance bar: 4-shard modelled decode cost
/// must undercut the single coordinator.
fn measure_shards(tb: &Testbed, reqs: &[QueryRequest]) -> Vec<ShardPoint> {
    let reqs: Vec<QueryRequest> = reqs
        .iter()
        .filter(|r| !matches!(r, QueryRequest::SilentDrop { .. }))
        .copied()
        .collect();
    let reqs = &reqs[..];
    let analyzer = tb.analyzer();
    let mut points = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut plane = QueryPlane::from_analyzer(
            &analyzer,
            QueryPlaneConfig {
                workers: 8,
                shards: 8,
                directory_shards: shards,
                retention: None,
            },
        );
        let outcomes = plane.execute_batch(reqs);
        assert_eq!(outcomes.len(), reqs.len());
        let fanout = plane.fanout();
        let mut model = ModelReplay::new(*analyzer.cost(), 4096);
        model.replay(&outcomes);
        let stats = model.report();
        points.push(ShardPoint {
            shards,
            decode_bits: fanout.decode_bits,
            host_reads: fanout.host_reads,
            cross_shard_merges: fanout.merges,
            modelled_decode_us: stats.modelled_decode_total.as_ns() as f64 / 1e3,
            decode_speedup: stats.decode_speedup(),
        });
    }
    let at = |n: usize| {
        points
            .iter()
            .find(|p| p.shards == n)
            .map(|p| p.modelled_decode_us)
            .expect("measured shard level")
    };
    assert!(
        at(4) < at(1),
        "4-shard modelled decode cost must undercut the single coordinator: \
         {:.1}us vs {:.1}us",
        at(4),
        at(1)
    );
    points
}

/// One pass of the continuous-monitoring loop for the JSON summary:
/// returns (delta-refresh wall time, full-recapture wall time, stream
/// stats snapshot, incidents, evaluation wall time).
struct StreamSummary {
    delta_refresh: Duration,
    full_recapture: Duration,
    delta_copied: u64,
    full_copied_equiv: u64,
    result_hit_rate: f64,
    incidents: usize,
    incidents_per_sec: f64,
}

fn measure_stream() -> StreamSummary {
    // A fixture of its own: traffic must keep flowing while the windows
    // advance, so deltas stay non-trivial.
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    for (s, d, ms) in [
        // Two flows outlive the watch (live deltas every window); two end
        // mid-run, so the fixed subscriptions over their pods go quiet and
        // the result cache starts serving them.
        ("h0_0_0", "h2_0_0", 38),
        ("h3_0_0", "h0_1_0", 38),
        ("h1_0_0", "h3_1_1", 18),
        ("h1_1_0", "h2_1_1", 18),
    ] {
        let (s, d) = (tb.node(s), tb.node(d));
        tb.sim.add_udp_flow(UdpFlowSpec {
            src: s,
            dst: d,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(ms),
            rate_bps: 100_000_000,
            payload_bytes: 1458,
        });
    }
    let analyzer = tb.analyzer();
    let mut sp = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 8,
                shards: 8,
                directory_shards: 1,
                retention: None,
            },
            result_cache_capacity: 1024,
        },
    );
    for name in [
        "edge0_0", "agg0_0", "agg0_1", "core0_0", "edge2_0", "agg2_0",
    ] {
        sp.subscribe(StandingQuery::TopKSliding {
            switch: tb.node(name),
            k: 10,
            epochs_back: 10,
        });
        sp.subscribe(StandingQuery::LoadImbalanceSliding {
            switch: tb.node(name),
            epochs_back: 10,
        });
    }
    for name in ["edge3_1", "edge2_1"] {
        sp.subscribe(StandingQuery::Fixed(QueryRequest::TopK {
            switch: tb.node(name),
            k: 10,
            range: EpochRange { lo: 5, hi: 15 },
        }));
    }
    // A probe plane isolates the refresh cost: its `refresh_delta` is the
    // same incremental path `run_window` uses, timed without the query
    // execution that follows.
    let mut probe = QueryPlane::from_analyzer(
        &analyzer,
        QueryPlaneConfig {
            workers: 1,
            shards: 8,
            directory_shards: 1,
            retention: None,
        },
    );
    let mut delta_refresh = Duration::ZERO;
    let mut full_recapture = Duration::ZERO;
    let t0 = Instant::now();
    for w in 1..=8u64 {
        tb.sim.run_until(SimTime::from_ms(w * 5));
        // The counterfactual first: how long a from-scratch freeze takes
        // at this instant (what `refresh` would have done every window).
        let tc = Instant::now();
        let fresh = Snapshot::capture(&analyzer, 8);
        full_recapture += tc.elapsed();
        drop(fresh);
        let td = Instant::now();
        probe.refresh_delta(&analyzer);
        delta_refresh += td.elapsed();
        sp.run_window(&analyzer);
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let stats = sp.metrics().snapshot();
    StreamSummary {
        delta_refresh,
        full_recapture,
        delta_copied: stats.counter("streamplane.delta_copied"),
        full_copied_equiv: stats.counter("streamplane.full_copied_equiv"),
        result_hit_rate: streamplane::result_hit_rate(&stats),
        incidents: sp.incidents().len(),
        incidents_per_sec: sp.incidents().len() as f64 / wall,
    }
}

/// The retention trajectory: records reclaimed per sweep, steady-state
/// resident records, and the sweep's wall-clock cost — the start of the
/// memory trajectory `BENCH_*.json` tracks across PRs.
struct RetentionSummary {
    dir_shards: usize,
    budget_per_shard: usize,
    reclaimed_per_sweep: Vec<u64>,
    resident_after_sweep: Vec<u64>,
    sweep_wall_clock_us: Vec<f64>,
    steady_state_resident: u64,
}

fn measure_retention() -> RetentionSummary {
    // The shared churn-storm fixture (`testbed::churn_storm`): the
    // continuous-watch incident core keeps watch-class state live while a
    // train of short cross-pod waves leaves one stale record each for the
    // sweeps to reclaim.
    let (mut tb, _victim, _da) = churn_storm(&[
        ("h1_0_1", "h3_0_0", 0, 6),
        ("h1_1_0", "h3_0_1", 5, 6),
        ("h1_1_1", "h3_1_0", 10, 6),
        ("h1_0_1", "h2_1_0", 15, 6),
        ("h1_1_0", "h2_1_1", 20, 6),
        ("h1_1_1", "h0_1_1", 25, 6),
        ("h1_0_1", "h2_0_1", 30, 6),
        ("h1_1_0", "h3_1_1", 35, 6),
    ]);
    let dir_shards = 4usize;
    let budget = 16usize;
    let analyzer = tb.analyzer();
    let mut plane = QueryPlane::from_analyzer(
        &analyzer,
        QueryPlaneConfig {
            workers: 4,
            shards: 8,
            directory_shards: dir_shards,
            retention: Some(RetentionPolicy::budgeted(12, budget)),
        },
    );
    let batch: Vec<QueryRequest> = ["edge0_0", "agg0_0", "core0_0", "edge2_0"]
        .iter()
        .map(|name| QueryRequest::TopK {
            switch: tb.node(name),
            k: 10,
            range: EpochRange { lo: 0, hi: 999 },
        })
        .collect();
    let mut summary = RetentionSummary {
        dir_shards,
        budget_per_shard: budget,
        reclaimed_per_sweep: Vec::new(),
        resident_after_sweep: Vec::new(),
        sweep_wall_clock_us: Vec::new(),
        steady_state_resident: 0,
    };
    let mut reclaiming = 0usize;
    for w in 1..=9u64 {
        tb.sim.run_until(SimTime::from_ms(w * 5));
        let t0 = Instant::now();
        let report = plane
            .sweep_retention(&analyzer, &[])
            .expect("retention configured");
        let dt = t0.elapsed();
        plane.refresh_delta(&analyzer);
        if report.records_evicted > 0 {
            reclaiming += 1;
        }
        summary
            .reclaimed_per_sweep
            .push(report.records_evicted as u64);
        summary
            .resident_after_sweep
            .push(plane.snapshot().total_records() as u64);
        summary.sweep_wall_clock_us.push(dt.as_secs_f64() * 1e6);
        assert_eq!(
            plane.snapshot().total_records(),
            report.resident_total(),
            "snapshot must track the swept live state"
        );
        // Steady state: every shard inside its budget.
        if w >= 4 {
            for (s, &r) in plane.snapshot().records_per_shard().iter().enumerate() {
                assert!(r <= budget, "shard {s} resident {r} > budget {budget}");
            }
        }
        // The plane keeps answering over the truncated snapshot.
        assert_eq!(plane.execute_batch(&batch).len(), batch.len());
    }
    assert!(
        reclaiming >= 3,
        "the churn train must drive >= 3 reclaiming sweeps (got {reclaiming})"
    );
    summary.steady_state_resident = *summary.resident_after_sweep.last().unwrap();
    summary
}

/// Per-class execution-latency percentiles off the plane's obsplane
/// histograms (`queryplane.exec_ns.<class>`): one storm batch through a
/// fresh 8-worker plane, then read the recorded distribution. The storm
/// issues every class, so every histogram must carry real samples — the
/// caller asserts it.
fn measure_latency(tb: &Testbed, reqs: &[QueryRequest]) -> Vec<(&'static str, Percentiles)> {
    let analyzer = tb.analyzer();
    let mut plane = QueryPlane::from_analyzer(
        &analyzer,
        QueryPlaneConfig {
            workers: 8,
            shards: 8,
            directory_shards: 1,
            retention: None,
        },
    );
    let outcomes = plane.execute_batch(reqs);
    assert_eq!(outcomes.len(), reqs.len());
    let snap = plane.metrics().snapshot();
    QUERY_CLASS_NAMES
        .iter()
        .map(|&class| {
            let p = snap
                .hist(&format!("queryplane.exec_ns.{class}"))
                .map(|h| h.percentiles())
                .unwrap_or_default();
            (class, p)
        })
        .collect()
}

/// One level of the parallel-efficiency sweep: cold (empty-cache)
/// queries/sec at `workers`, best of three fresh planes.
struct ScalingPoint {
    workers: usize,
    cold_qps: f64,
    steals: u64,
    chunks: u64,
}

/// The worker-scaling sweep and its gate.
struct WorkerScalingSummary {
    points: Vec<ScalingPoint>,
    scaling_16v1: f64,
    meets_2x: bool,
    /// `"enforced"` or `"skipped: N cores < 4"` — CI only fails the 2×
    /// bar where the hardware can physically provide it.
    gate: String,
    cores: usize,
}

/// Sweeps cold-batch throughput at 1/2/4/8/16 workers (best of three
/// fresh planes per level — the cold path has no cache to stabilise it,
/// so single runs are noisy) and reads the pool's steal/chunk counters
/// at each level. The 16-vs-1 ratio is the wall the work-stealing
/// scheduler was built to break: DESIGN.md §9 recorded cold throughput
/// *falling* with workers under the pre-sliced dispatch. The 2× bar is
/// asserted here only on hardware with ≥ 4 cores; below that the sweep
/// still runs and reports, with the gate marked skipped.
fn measure_worker_scaling(tb: &Testbed, reqs: &[QueryRequest]) -> WorkerScalingSummary {
    let analyzer = tb.analyzer();
    let mut points = Vec::new();
    for workers in [1usize, 2, 4, 8, 16] {
        let mut best = f64::MAX;
        let mut steals = 0u64;
        let mut chunks = 0u64;
        for _ in 0..3 {
            let mut plane = QueryPlane::from_analyzer(
                &analyzer,
                QueryPlaneConfig {
                    workers,
                    shards: 8,
                    directory_shards: 1,
                    retention: None,
                },
            );
            let t0 = Instant::now();
            let outcomes = plane.execute_batch(reqs);
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(outcomes.len(), reqs.len());
            if dt < best {
                best = dt;
                let snap = plane.metrics().snapshot();
                steals = snap.counter("pool.steals");
                chunks = snap.counter("pool.chunks");
            }
        }
        points.push(ScalingPoint {
            workers,
            cold_qps: reqs.len() as f64 / best,
            steals,
            chunks,
        });
    }
    let at = |w: usize| {
        points
            .iter()
            .find(|p| p.workers == w)
            .map(|p| p.cold_qps)
            .expect("measured level")
    };
    let scaling_16v1 = at(16) / at(1).max(1e-9);
    let meets_2x = scaling_16v1 >= 2.0;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let gate = if cores >= 4 {
        assert!(
            meets_2x,
            "worker scaling wall is back: 16-worker cold throughput is only {scaling_16v1:.2}x \
             the 1-worker level on {cores} cores (bar: 2x)"
        );
        "enforced".to_string()
    } else {
        println!(
            "worker_scaling: 2x gate skipped ({cores} cores < 4); measured 16v1 = {scaling_16v1:.2}x"
        );
        format!("skipped: {cores} cores < 4")
    };
    WorkerScalingSummary {
        points,
        scaling_16v1,
        meets_2x,
        gate,
        cores,
    }
}

/// The wire trajectory: actual RPC frames and round trips for a sample
/// of the storm batch served through a 2-shard loopback cluster — the
/// transport-layer counters future PRs compare against.
struct WireSummary {
    shards: usize,
    queries: usize,
    rpcs: u64,
    wave_rpcs: u64,
    wave_rounds: u64,
    rounds: u64,
    wall_us_per_query: f64,
    /// Labelled registries the scrape returned (front + one per shard).
    scraped_processes: usize,
    /// `wire.frames_served` summed over every scraped shard registry.
    frames_served: u64,
    /// Front-side RPC round trip, merged across the per-shard
    /// `wire.rtt_ns.shard{N}` histograms.
    rtt: Percentiles,
}

fn measure_wire(tb: &Testbed, reqs: &[QueryRequest]) -> WireSummary {
    let analyzer = tb.analyzer();
    let shards = 2usize;
    let cluster =
        WireCluster::launch(&analyzer, shards, WireConfig::default()).expect("launch wire cluster");
    let sample: Vec<QueryRequest> = reqs.iter().take(64).copied().collect();
    let t0 = Instant::now();
    for req in &sample {
        let _ = cluster.front().execute(req);
    }
    let wall = t0.elapsed();
    let c = cluster.front().counters();
    // Scrape the live deployment the same way a remote client would.
    let scraped = cluster.front().scrape().expect("scrape wire cluster");
    let mut merged = RegistrySnapshot::default();
    for (_, snap) in &scraped {
        merged.merge(snap);
    }
    let front_snap = &scraped
        .iter()
        .find(|(label, _)| label == "front")
        .expect("front snapshot present")
        .1;
    let mut rtt = HistogramSnapshot::default();
    for (name, h) in &front_snap.hists {
        if name.starts_with("wire.rtt_ns.") {
            rtt.merge(h);
        }
    }
    cluster.shutdown();
    WireSummary {
        shards,
        queries: sample.len(),
        rpcs: c.rpcs,
        wave_rpcs: c.wave_rpcs,
        wave_rounds: c.wave_rounds,
        rounds: c.rounds,
        wall_us_per_query: wall.as_micros() as f64 / sample.len().max(1) as f64,
        scraped_processes: scraped.len(),
        frames_served: merged.counter("wire.frames_served"),
        rtt: rtt.percentiles(),
    }
}

/// The replication trajectory: sequenced delta publication to a
/// primary+standby deployment, then a full-primary kill drill — the
/// numbers future PRs compare failover cost against.
struct ReplicationSummary {
    shards: usize,
    replicas: usize,
    publishes: u64,
    appends: u64,
    bootstraps: u64,
    /// `repl.lag` after the last publish — zero when every live replica
    /// acked the owner's head.
    replay_lag: i64,
    /// Sequenced appends acked per second of publish wall-clock.
    applied_seqs_per_sec: f64,
    publish_wall_us_mean: f64,
    /// Wall-clock of the first query wave issued after every primary
    /// died — dial + retry + rotation to the standby, end to end.
    failover_wall_us: f64,
    /// The front-end's `wire.failover_ns` histogram over the drill.
    failover_ns: Percentiles,
}

fn measure_replication(reqs: &[QueryRequest]) -> ReplicationSummary {
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, da) = (tb.node("h0_0_0"), tb.node("h2_0_0"));
    tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(60),
    ));
    tb.sim.run_until(SimTime::from_ms(10));
    let analyzer = tb.analyzer();
    let (shards, replicas) = (2usize, 2usize);
    let cluster =
        WireCluster::launch_replicated(&analyzer, shards, replicas, WireConfig::default())
            .expect("launch replicated cluster");

    // Publish a train of sequenced deltas to every replica.
    let mut publish_wall = Duration::ZERO;
    let windows = 8u64;
    for w in 1..=windows {
        tb.sim.run_until(SimTime::from_ms(10 + w * 5));
        let t0 = Instant::now();
        cluster.refresh(&analyzer);
        publish_wall += t0.elapsed();
    }

    // The drill: every primary dies; the next wave rotates to standbys.
    for s in 0..shards {
        assert!(cluster.kill_primary(s));
    }
    let sample: Vec<&QueryRequest> = reqs.iter().take(8).collect();
    let t0 = Instant::now();
    for req in &sample {
        let _ = cluster.front().execute(req);
    }
    let failover_wall = t0.elapsed();
    assert!(
        cluster.front().shard_failovers() >= shards as u64,
        "every shard must rotate off its dead primary"
    );

    let owner = cluster.owner_metrics().snapshot();
    let front = cluster.front_metrics().snapshot();
    let appends = owner.counter("repl.appends");
    let summary = ReplicationSummary {
        shards,
        replicas,
        publishes: owner.counter("repl.published"),
        appends,
        bootstraps: owner.counter("repl.bootstraps"),
        replay_lag: owner.gauges.get("repl.lag").copied().unwrap_or(i64::MAX),
        applied_seqs_per_sec: appends as f64 / publish_wall.as_secs_f64().max(1e-9),
        publish_wall_us_mean: publish_wall.as_micros() as f64 / windows as f64,
        failover_wall_us: failover_wall.as_micros() as f64,
        failover_ns: front
            .hists
            .get("wire.failover_ns")
            .map(|h| h.percentiles())
            .unwrap_or_default(),
    };
    cluster.shutdown();
    summary
}

#[allow(clippy::too_many_arguments)] // one section per JSON block, called once
fn write_summary(
    points: &[ThroughputPoint],
    cold: &BatchAccounting,
    warm: &BatchAccounting,
    shards: &[ShardPoint],
    latency: &[(&'static str, Percentiles)],
    scaling: &WorkerScalingSummary,
    stream: &StreamSummary,
    retention: &RetentionSummary,
    wire: &WireSummary,
    repl: &ReplicationSummary,
) {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"workers\": {}, \"cold_queries_per_sec\": {:.0}, \"warm_queries_per_sec\": {:.0}}}",
                p.workers, p.cold_qps, p.warm_qps
            )
        })
        .collect();
    let shard_rows: Vec<String> = shards
        .iter()
        .map(|p| {
            let bits: Vec<String> = p.decode_bits.iter().map(|b| b.to_string()).collect();
            let reads: Vec<String> = p.host_reads.iter().map(|r| r.to_string()).collect();
            format!(
                "    {{\"directory_shards\": {}, \"decode_bits_per_shard\": [{}], \"host_reads_per_shard\": [{}], \"cross_shard_merges\": {}, \"modelled_decode_us\": {:.1}, \"decode_speedup\": {:.2}}}",
                p.shards,
                bits.join(", "),
                reads.join(", "),
                p.cross_shard_merges,
                p.modelled_decode_us,
                p.decode_speedup
            )
        })
        .collect();
    let stream_json = format!(
        "  \"streamplane\": {{\n    \"delta_refresh_ms\": {:.3},\n    \"full_recapture_ms\": {:.3},\n    \"delta_copied\": {},\n    \"full_copied_equiv\": {},\n    \"result_cache_hit_rate\": {:.4},\n    \"incidents\": {},\n    \"incidents_per_sec\": {:.0}\n  }}",
        stream.delta_refresh.as_secs_f64() * 1e3,
        stream.full_recapture.as_secs_f64() * 1e3,
        stream.delta_copied,
        stream.full_copied_equiv,
        stream.result_hit_rate,
        stream.incidents,
        stream.incidents_per_sec,
    );
    let join_u64 = |v: &[u64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let sweep_us: Vec<String> = retention
        .sweep_wall_clock_us
        .iter()
        .map(|x| format!("{x:.1}"))
        .collect();
    let retention_json = format!(
        "  \"retention\": {{\n    \"directory_shards\": {},\n    \"shard_record_budget\": {},\n    \"records_reclaimed_per_sweep\": [{}],\n    \"resident_records_after_sweep\": [{}],\n    \"sweep_wall_clock_us\": [{}],\n    \"steady_state_resident_records\": {}\n  }}",
        retention.dir_shards,
        retention.budget_per_shard,
        join_u64(&retention.reclaimed_per_sweep),
        join_u64(&retention.resident_after_sweep),
        sweep_us.join(", "),
        retention.steady_state_resident,
    );
    let wire_json = format!(
        "  \"wireplane\": {{\n    \"shard_servers\": {},\n    \"queries\": {},\n    \"rpc_frames\": {},\n    \"wave_rpc_frames\": {},\n    \"wave_round_trips\": {},\n    \"round_trips\": {},\n    \"wire_wall_us_per_query\": {:.1},\n    \"scraped_processes\": {},\n    \"frames_served\": {},\n    \"rtt_ns\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}\n  }}",
        wire.shards,
        wire.queries,
        wire.rpcs,
        wire.wave_rpcs,
        wire.wave_rounds,
        wire.rounds,
        wire.wall_us_per_query,
        wire.scraped_processes,
        wire.frames_served,
        wire.rtt.count,
        wire.rtt.p50,
        wire.rtt.p95,
        wire.rtt.p99,
        wire.rtt.max,
    );
    let repl_json = format!(
        "  \"replication\": {{\n    \"shards\": {},\n    \"replicas_per_shard\": {},\n    \"publishes\": {},\n    \"sequenced_appends\": {},\n    \"bootstraps\": {},\n    \"replay_lag\": {},\n    \"applied_seqs_per_sec\": {:.0},\n    \"publish_wall_us_mean\": {:.1},\n    \"failover_wall_us\": {:.1},\n    \"failover_ns\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}\n  }}",
        repl.shards,
        repl.replicas,
        repl.publishes,
        repl.appends,
        repl.bootstraps,
        repl.replay_lag,
        repl.applied_seqs_per_sec,
        repl.publish_wall_us_mean,
        repl.failover_wall_us,
        repl.failover_ns.count,
        repl.failover_ns.p50,
        repl.failover_ns.p95,
        repl.failover_ns.p99,
        repl.failover_ns.max,
    );
    let latency_rows: Vec<String> = latency
        .iter()
        .map(|(class, p)| {
            format!(
                "    \"{class}\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                p.count, p.p50, p.p95, p.p99, p.max
            )
        })
        .collect();
    let latency_json = format!(
        "  \"query_latency\": {{\n{}\n  }}",
        latency_rows.join(",\n")
    );
    let scaling_rows: Vec<String> = scaling
        .points
        .iter()
        .map(|p| {
            format!(
                "      {{\"workers\": {}, \"cold_queries_per_sec\": {:.0}, \"steals\": {}, \"chunks\": {}}}",
                p.workers, p.cold_qps, p.steals, p.chunks
            )
        })
        .collect();
    let scaling_json = format!(
        "  \"worker_scaling\": {{\n    \"cores\": {},\n    \"scaling_16v1\": {:.3},\n    \"meets_2x\": {},\n    \"gate\": \"{}\",\n    \"sweep\": [\n{}\n    ]\n  }}",
        scaling.cores,
        scaling.scaling_16v1,
        scaling.meets_2x,
        scaling.gate,
        scaling_rows.join(",\n"),
    );
    // The sweep also lands as its own artifact next to the trajectory
    // JSON, so CI can upload and diff it independently.
    let sweep_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/worker_scaling.json"
    );
    match obsplane::write_atomic(sweep_path, format!("{{\n{scaling_json}\n}}\n").as_bytes()) {
        Ok(()) => println!("wrote {sweep_path}"),
        Err(e) => eprintln!("could not write {sweep_path}: {e}"),
    }
    let json = format!(
        "{{\n  \"bench\": \"queryplane_ops\",\n  \"modelled\": {{\n    \"cold_batch\": {{\"cache_hit_rate\": {:.4}, \"modelled_speedup\": {:.2}}},\n    \"warm_batch\": {{\"cache_hit_rate\": {:.4}, \"modelled_speedup\": {:.2}}}\n  }},\n  \"throughput\": [\n{}\n  ],\n  \"directory_shards\": [\n{}\n  ],\n{},\n{},\n{},\n{},\n{},\n{}\n}}\n",
        cold.cache_hit_rate,
        cold.modelled_speedup,
        warm.cache_hit_rate,
        warm.modelled_speedup,
        rows.join(",\n"),
        shard_rows.join(",\n"),
        latency_json,
        scaling_json,
        stream_json,
        retention_json,
        wire_json,
        repl_json
    );
    // Benches run with the package dir as cwd; aim at the workspace target.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/queryplane_ops.json"
    );
    // Atomic (temp + rename): a killed bench run never leaves a torn
    // trajectory file for the next comparison to trip over.
    match obsplane::write_atomic(path, json.as_bytes()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!("{json}");
    append_trajectory(points, scaling, stream, wire, repl, retention);
}

/// Appends one headline row per run to the *cumulative* trajectory file
/// at the repo root (`BENCH_trajectory.json`, a JSON array), so the
/// perf history accretes across PRs instead of each run overwriting the
/// last. The append re-writes the whole file through
/// [`obsplane::write_atomic`]: a killed run leaves the previous history
/// intact, never a torn file.
fn append_trajectory(
    points: &[ThroughputPoint],
    scaling: &WorkerScalingSummary,
    stream: &StreamSummary,
    wire: &WireSummary,
    repl: &ReplicationSummary,
    retention: &RetentionSummary,
) {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let qps_at = |w: usize| {
        points
            .iter()
            .find(|p| p.workers == w)
            .map(|p| (p.cold_qps, p.warm_qps))
            .unwrap_or((0.0, 0.0))
    };
    let (cold16, warm16) = qps_at(16);
    let entry = format!(
        "  {{\"unix_time\": {unix_time}, \"cold_qps_16\": {cold16:.0}, \
         \"warm_qps_16\": {warm16:.0}, \"scaling_16v1\": {:.3}, \
         \"wire_wall_us_per_query\": {:.1}, \"incidents_per_sec\": {:.0}, \
         \"applied_seqs_per_sec\": {:.0}, \"steady_state_resident_records\": {}}}",
        scaling.scaling_16v1,
        wire.wall_us_per_query,
        stream.incidents_per_sec,
        repl.applied_seqs_per_sec,
        retention.steady_state_resident,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trajectory.json");
    let history = std::fs::read_to_string(path).unwrap_or_default();
    let body = match history.trim_end().strip_suffix(']') {
        // Existing history: splice the new row before the closing bracket.
        Some(head) if head.trim_end().ends_with('}') => {
            format!("{},\n{entry}\n]\n", head.trim_end())
        }
        // Missing, empty (`[]`/`[\n]`) or unparseable: start fresh rather
        // than compound a torn file.
        _ => format!("[\n{entry}\n]\n"),
    };
    match obsplane::write_atomic(path, body.as_bytes()) {
        Ok(()) => println!("appended trajectory row to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench_queryplane(c: &mut Criterion) {
    let (tb, reqs) = workload();

    // JSON trajectory: one throughput point per concurrency level; the
    // modelled accounting is worker-independent, so it is reported once
    // per batch kind (taken from the concurrency-16 run).
    let mut points = Vec::new();
    let mut accounting = None;
    for w in [1usize, 4, 16] {
        let (p, cold, warm) = measure(&tb, &reqs, w);
        points.push(p);
        accounting = Some((cold, warm));
    }
    let (cold, warm) = accounting.expect("at least one concurrency level");
    // The acceptance bar gates on the *cold* batch (empty cache): batching
    // + first-touch caching must still give ≥ 2× modelled reduction at
    // concurrency 16. The warm repeat is reported separately.
    assert!(
        cold.modelled_speedup >= 2.0,
        "cold-batch modelled speedup regressed below 2x: {:.2}",
        cold.modelled_speedup
    );
    // The persistent pool fixed DESIGN.md §9's known limitation: scaling
    // workers must no longer *cost* wall-clock throughput. Gate on the
    // best-of-five warm batches at each level. On hardware with headroom
    // (≥ 4 cores) the bar is strict (16-worker ≥ 1-worker); on 2-3 cores
    // oversubscription leaves little margin over scheduler noise, and a
    // uniprocessor cannot run threads in parallel at all — those get a
    // small "no material regression" allowance (time-slicing 16 threads
    // costs a few percent, where the old spawn-per-batch design cost a
    // multiple).
    let qps_at = |w: usize| {
        points
            .iter()
            .find(|p| p.workers == w)
            .map(|p| p.warm_qps)
            .expect("measured level")
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let floor = match cores {
        0 | 1 => 0.85,
        2 | 3 => 0.9,
        _ => 1.0,
    };
    assert!(
        qps_at(16) >= floor * qps_at(1),
        "16-worker wall-clock throughput regressed below 1-worker on the storm workload \
         ({cores} core(s), floor {floor}): {:.0} qps vs {:.0} qps",
        qps_at(16),
        qps_at(1)
    );

    let shard_points = measure_shards(&tb, &reqs);
    let latency = measure_latency(&tb, &reqs);
    // The storm issues every query class; a zero count in any per-class
    // latency histogram means the workload silently stopped covering it.
    for class in QUERY_CLASS_NAMES {
        let (_, p) = latency
            .iter()
            .find(|(c, _)| *c == class)
            .expect("class present");
        assert!(
            p.count > 0 && p.p50 > 0 && p.p99 > 0 && p.max > 0,
            "per-class latency histogram for {class} is empty or zeroed: {p:?}"
        );
    }
    let scaling = measure_worker_scaling(&tb, &reqs);
    let stream = measure_stream();
    let retention = measure_retention();
    let wire = measure_wire(&tb, &reqs);
    let repl = measure_replication(&reqs);
    write_summary(
        &points,
        &cold,
        &warm,
        &shard_points,
        &latency,
        &scaling,
        &stream,
        &retention,
        &wire,
        &repl,
    );

    let mut group = c.benchmark_group("queryplane_ops");
    group.throughput(Throughput::Elements(reqs.len() as u64));
    for workers in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("execute_batch", workers),
            &workers,
            |b, &w| {
                let analyzer = tb.analyzer();
                let mut plane = QueryPlane::from_analyzer(
                    &analyzer,
                    QueryPlaneConfig {
                        workers: w,
                        shards: 8,
                        directory_shards: 1,
                        retention: None,
                    },
                );
                b.iter(|| plane.execute_batch(&reqs));
            },
        );
    }
    group.bench_function("snapshot_capture", |b| {
        let analyzer = tb.analyzer();
        b.iter(|| queryplane::Snapshot::capture(&analyzer, 8));
    });
    group.finish();
}

criterion_group!(benches, bench_queryplane);
criterion_main!(benches);
