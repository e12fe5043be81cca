//! `spexp stream` — the continuous-monitoring (streamplane) trajectory.
//!
//! Not a paper figure: this subcommand exercises the §5 applications as
//! *standing queries* over an incrementally refreshed snapshot and reports
//! the quantities the stream plane is built around, per evaluation window:
//! copy work of the incremental refresh vs a full recapture, queries
//! executed, and incidents fired by verdict change detection.

use std::time::Instant;

use netsim::prelude::*;
use queryplane::QueryPlaneConfig;
use streamplane::{StandingQuery, StreamConfig, StreamPlane};
use switchpointer::query::QueryRequest;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

use crate::common::{FigureData, Series};

/// The continuous-watch deployment: a k=4 fat tree, one starved TCP
/// victim (deterministic ECMP collision with a HIGH-priority burst), and
/// cross-pod background — the same fixture `examples/continuous_watch.rs`
/// narrates.
fn testbed() -> (Testbed, FlowId, NodeId) {
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
    (tb, victim, da)
}

pub fn stream() -> Vec<FigureData> {
    let (mut tb, victim, victim_dst) = testbed();
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
        },
    );
    for name in ["edge0_0", "agg0_0", "core0_0", "edge2_0"] {
        sp.subscribe(StandingQuery::TopKSliding {
            switch: tb.node(name),
            k: 5,
            epochs_back: 8,
        });
    }
    sp.subscribe(StandingQuery::LoadImbalanceSliding {
        switch: tb.node("agg0_0"),
        epochs_back: 8,
    });
    sp.subscribe(StandingQuery::Fixed(QueryRequest::TopK {
        switch: tb.node("edge3_1"),
        k: 5,
        range: EpochRange { lo: 5, hi: 20 },
    }));
    sp.subscribe(StandingQuery::ContentionWatch {
        victim,
        victim_dst,
        trigger_window: tb.cfg.trigger.window,
    });

    let mut fig = FigureData::new(
        "stream",
        "streamplane: standing queries over incremental snapshot deltas",
        "evaluation window",
        "per-window counters",
    );
    let mut delta_copied = Series::new("delta_copied");
    let mut full_equiv = Series::new("full_recapture_equiv");
    let mut executed = Series::new("executed");
    let mut incidents = Series::new("incidents");

    let t0 = Instant::now();
    for w in 1..=8u64 {
        tb.sim.run_until(SimTime::from_ms(w * 5));
        let report = sp.run_window(&analyzer);
        let x = report.window as f64;
        delta_copied.push(
            x,
            (report.delta.cloned_records + report.delta.cloned_slots) as f64,
        );
        full_equiv.push(
            x,
            (report.delta.full_records + report.delta.full_slots) as f64,
        );
        executed.push(x, report.executed as f64);
        incidents.push(x, report.incidents.len() as f64);
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);

    let stats = sp.metrics().snapshot();
    let transitions = sp
        .incidents()
        .iter()
        .filter(|i| i.kind == streamplane::IncidentKind::Transition)
        .count();
    fig.series = vec![delta_copied, full_equiv, executed, incidents];
    fig.note(format!(
        "incremental refresh copy work: {} vs {} full-recapture equivalent ({:.1}x less)",
        stats.counter("streamplane.delta_copied"),
        stats.counter("streamplane.full_copied_equiv"),
        streamplane::delta_savings(&stats)
    ));
    fig.note(format!(
        "incident log: {} entries ({} transitions) over {} windows, {:.0} incidents/sec wall-clock",
        sp.incidents().len(),
        transitions,
        stats.counter("streamplane.windows"),
        sp.incidents().len() as f64 / wall
    ));
    fig.note(
        "verdict stream is bit-identical at any worker count and across admission windows \
         (tests/streamplane_props.rs)"
            .to_string(),
    );
    // Shape checks a CI smoke run relies on.
    assert!(
        stats.counter("streamplane.delta_copied") < stats.counter("streamplane.full_copied_equiv")
    );
    assert!(
        sp.incidents()
            .iter()
            .any(|i| i.summary.starts_with("contention")),
        "the contention watch must resolve on this deterministic fixture"
    );
    vec![fig]
}
