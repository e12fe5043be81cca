//! `spexp trace` — the causal tracing plane, end to end: a storm of
//! queries against a real 4-shard wire cluster, cross-process span
//! trees reassembled from one `scrape_traces` pull, and the slowest
//! queries broken down per stage.
//!
//! Stages, as the spans record them:
//!
//! * `query`   — the root: wave submission to reply, inside the front;
//! * `enqueue` — wave submission to executor pickup (queueing);
//! * `exec`    — executor pickup to reply materialized (the remainder
//!   of the root: `enqueue + exec == query` by construction);
//! * `wire`    — each shard RPC inside the exec window (per-shard RPCs
//!   of one wave overlap, so their *sum* can exceed `exec`);
//! * `serve`   — the shard-server serve inside each RPC's window.
//!
//! Load-bearing shape checks (the CI smoke): at least one trace
//! reassembles into a causally linked tree spanning the front-end and
//! a shard server; front-side stages partition every root exactly; no
//! traced end-to-end time exceeds the latency the client measured from
//! outside; serve time never exceeds the wire time containing it; and
//! the flight recorder's exemplar set is non-empty — one serve is
//! artificially stretched (the rigged tail) so there is a definite
//! slow query for the recorder to catch.

use std::time::{Duration, Instant};

use wireplane::{assemble, Frame, ServeDelay, TraceTree, WireCluster, WireConfig};

use crate::common::{FigureData, Series};

/// Storm rounds before the rigged tail: enough serial queries that
/// every tracer is past its exemplar warmup and the rolling latency
/// threshold reflects the workload's real mean.
const STORM_ROUNDS: usize = 3;

/// The injected serve stretch for the rigged tail query.
const RIGGED_DELAY: Duration = Duration::from_millis(20);

pub fn trace() -> Vec<FigureData> {
    let (tb, _victim, _victim_dst) = crate::wire::testbed();
    let analyzer = tb.analyzer();
    let reqs = crate::wire::sweep_queries(&tb);
    let cluster = WireCluster::launch(&analyzer, 4, WireConfig::default()).expect("launch cluster");
    let mut client = cluster.client().expect("client");

    // The storm, serially, each query's end-to-end latency measured
    // from outside the deployment — the bound no traced tree may beat.
    let mut measured_ns: Vec<u64> = Vec::new();
    for _ in 0..STORM_ROUNDS {
        for req in &reqs {
            let t0 = Instant::now();
            client.query(req).expect("query");
            measured_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }

    // The rigged tail: stretch one shard's wave serves and push one
    // more query through, so the flight recorder has a definite slow
    // query to pin whatever head sampling would have said.
    let rig: ServeDelay = std::sync::Arc::new(|req: &Frame| match req {
        Frame::TopKWaveReq { .. } => RIGGED_DELAY,
        _ => Duration::ZERO,
    });
    cluster.set_serve_delay(0, 0, Some(rig));
    let t0 = Instant::now();
    client.query(&reqs[0]).expect("rigged query");
    measured_ns.push(t0.elapsed().as_nanos() as u64);
    cluster.set_serve_delay(0, 0, None);

    // One scrape, every process: the front's spans plus each shard's,
    // reassembled into causal trees by trace id.
    let scrape = client.scrape_traces().expect("scrape traces");
    let trees = assemble(&scrape);
    let mut query_trees: Vec<&TraceTree> = trees
        .iter()
        .filter(|t| t.root().is_some_and(|r| r.stage == "query"))
        .collect();
    query_trees.sort_by_key(|t| std::cmp::Reverse(t.e2e_ns()));
    cluster.shutdown();

    let mut fig = FigureData::new(
        "trace",
        "causal tracing: per-stage latency breakdown of the slowest reassembled traces",
        "slowest_trace_rank",
        "stage time (us)",
    );
    let mut e2e_us = Series::new("traced_e2e_us");
    let mut enqueue_us = Series::new("stage_enqueue_us");
    let mut exec_us = Series::new("stage_exec_us");
    let mut wire_us = Series::new("stage_wire_us");
    let mut serve_us = Series::new("stage_serve_us");
    let us = |ns: u64| ns as f64 / 1_000.0;
    for (rank, tree) in query_trees.iter().take(8).enumerate() {
        let x = rank as f64 + 1.0;
        e2e_us.push(x, us(tree.e2e_ns()));
        enqueue_us.push(x, us(tree.stage_ns("enqueue")));
        exec_us.push(x, us(tree.stage_ns("exec")));
        wire_us.push(x, us(tree.stage_ns("wire")));
        serve_us.push(x, us(tree.stage_ns("serve")));
        let procs: Vec<&str> = tree.processes().into_iter().collect();
        fig.note(format!(
            "#{} trace {:#018x}: e2e {:.0} us = enqueue {:.0} + exec {:.0} \
             (wire {:.0} us across {} processes, serve {:.0} us inside it); \
             steals {}, exemplar {}",
            rank + 1,
            tree.trace_id,
            us(tree.e2e_ns()),
            us(tree.stage_ns("enqueue")),
            us(tree.stage_ns("exec")),
            us(tree.stage_ns("wire")),
            procs.len(),
            us(tree.stage_ns("serve")),
            tree.steals(),
            tree.has_exemplar(),
        ));
    }
    fig.series = vec![e2e_us, enqueue_us, exec_us, wire_us, serve_us];

    // -- Shape checks -------------------------------------------------
    let cross_process = query_trees
        .iter()
        .filter(|t| {
            t.causally_linked()
                && t.processes().contains("front")
                && t.processes().iter().any(|p| p.starts_with("shard"))
        })
        .count();
    assert!(
        cross_process >= 1,
        "no query trace reassembled into a causally linked cross-process tree"
    );
    fig.note(format!(
        "{} of {} query traces reassembled causally linked across front and shards",
        cross_process,
        query_trees.len()
    ));

    for tree in &query_trees {
        assert_eq!(
            tree.stage_ns("enqueue") + tree.stage_ns("exec"),
            tree.e2e_ns(),
            "trace {:#018x}: front-side stages must partition the root span",
            tree.trace_id
        );
        assert!(
            tree.stage_ns("serve") <= tree.stage_ns("wire"),
            "trace {:#018x}: serve time exceeds the wire time containing it",
            tree.trace_id
        );
    }
    // Each traced e2e lies inside some distinct measured query window,
    // so the descending traced list is dominated by the descending
    // measured list pointwise.
    let mut measured_sorted = measured_ns.clone();
    measured_sorted.sort_unstable_by_key(|&ns| std::cmp::Reverse(ns));
    for (i, tree) in query_trees.iter().enumerate() {
        let bound = measured_sorted
            .get(i)
            .copied()
            .expect("more traces than queries");
        assert!(
            tree.e2e_ns() <= bound,
            "slowest-trace rank {}: traced e2e {} ns exceeds the measured bound {} ns",
            i + 1,
            tree.e2e_ns(),
            bound
        );
    }
    fig.note(format!(
        "stage sums verified against {} externally measured query latencies",
        measured_ns.len()
    ));

    let exemplars = query_trees.iter().filter(|t| t.has_exemplar()).count();
    assert!(
        exemplars >= 1,
        "the rigged {RIGGED_DELAY:?} tail query did not pin an exemplar"
    );
    let rigged = query_trees
        .iter()
        .find(|t| t.has_exemplar() && t.stage_ns("serve") >= RIGGED_DELAY.as_nanos() as u64)
        .expect("no exemplar trace covers the injected serve delay");
    fig.note(format!(
        "flight recorder: {} exemplar trace(s); the rigged tail's serve stage measures \
         {:.1} ms against the injected {:?}",
        exemplars,
        rigged.stage_ns("serve") as f64 / 1e6,
        RIGGED_DELAY,
    ));
    vec![fig]
}
