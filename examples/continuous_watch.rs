//! Continuous monitoring, end-to-end: standing queries re-evaluated every
//! window against an incrementally refreshed snapshot, with a result cache
//! and an incident log in front.
//!
//! A k=4 fat tree carries steady cross-pod traffic plus a high-priority
//! burst that starves a TCP victim mid-run. The stream plane watches:
//! sliding top-k and load-imbalance subscriptions over the fabric, and a
//! contention watch on the victim that *pends* until the victim's host
//! raises its trigger — the Pending → verdict transition is the canonical
//! incident.
//!
//! Run with: `cargo run --release --example continuous_watch`

use std::cell::RefCell;
use std::rc::Rc;
use suite::netsim::prelude::*;
use suite::queryplane::QueryPlaneConfig;
use suite::streamplane::{StandingQuery, StreamConfig, StreamPlane};
use suite::switchpointer::query::QueryRequest;
use suite::switchpointer::testbed::{Testbed, TestbedConfig};
use suite::telemetry::EpochRange;

fn main() {
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());

    // Victim and aggressor leave the same edge switch for pod 2; with
    // this flow-id ordering their ECMP hashes land on the same edge0_0
    // uplink, so the HIGH-priority burst deterministically starves the
    // victim there mid-run. Background UDP crosses pods so pointers light
    // up fabric-wide.
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

    // netsim's epoch-tick hook paces the monitoring loop honestly: count
    // every epoch boundary the simulation crosses.
    let epochs_seen = Rc::new(RefCell::new(0u64));
    let counter = epochs_seen.clone();
    tb.sim.set_epoch_hook(
        SimTime::from_ms(1),
        SimTime::from_ms(40),
        Box::new(move |_idx, _at| *counter.borrow_mut() += 1),
    );

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

    // Standing queries: the §5 applications as long-lived subscriptions.
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
    // A fixed-range subscription over pod 3: once its traffic dies down,
    // every window serves it straight from the result cache.
    sp.subscribe(StandingQuery::Fixed(QueryRequest::TopK {
        switch: tb.node("edge3_1"),
        k: 5,
        range: EpochRange { lo: 5, hi: 20 },
    }));
    let watch = sp.subscribe(StandingQuery::ContentionWatch {
        victim,
        victim_dst: da,
        trigger_window: tb.cfg.trigger.window,
    });
    println!(
        "continuous watch: {} standing queries over a k=4 fat tree, 8 windows x 5 ms",
        sp.subscriptions().len()
    );

    // The monitoring loop: 8 evaluation windows of 5 ms.
    for w in 1..=8u64 {
        tb.sim.run_until(SimTime::from_ms(w * 5));
        // A tenant drops a one-shot into window 4's arrival batch.
        if w == 4 {
            sp.submit(QueryRequest::TopK {
                switch: tb.node("agg2_0"),
                k: 10,
                range: EpochRange { lo: 5, hi: 15 },
            });
        }
        let report = sp.run_window(&analyzer);
        println!(
            "window {:>2} @ epoch {:>2}: {} executed, {} cached, {} pending | delta copied {:>4} (full recapture: {:>4}) | {} invalidated | {} incident(s)",
            report.window,
            report.horizon,
            report.executed,
            report.served_from_cache,
            report.pending,
            report.delta.cloned_records + report.delta.cloned_slots,
            report.delta.full_records + report.delta.full_slots,
            report.invalidated,
            report.incidents.len(),
        );
        for inc in &report.incidents {
            println!("    [{:?}] {}: {}", inc.kind, inc.sub, inc.summary);
        }
        for (ticket, outcome) in &report.one_shot {
            println!(
                "    one-shot {ticket:?} answered: read {} switches, {} hosts",
                outcome.trace.deps.switches.len(),
                outcome.trace.deps.hosts.len()
            );
        }
        // Sanity: the contention watch appears in every report.
        assert!(report.standing.iter().any(|(id, _)| *id == watch));
    }

    let stats = sp.metrics().snapshot();
    let counter = |name: &str| stats.counter(name);
    println!("\n== stream accounting ==");
    println!("epoch ticks observed    : {}", epochs_seen.borrow());
    println!(
        "windows                 : {} ({} evaluations, {} one-shot)",
        counter("streamplane.windows"),
        counter("streamplane.evaluations"),
        counter("streamplane.one_shots")
    );
    println!(
        "incremental refresh     : copied {} vs {} full-recapture equivalent ({:.1}x less work)",
        counter("streamplane.delta_copied"),
        counter("streamplane.full_copied_equiv"),
        suite::streamplane::delta_savings(&stats),
    );
    println!(
        "result cache            : {} hits / {} misses ({:.0}% hit rate), {} invalidated",
        counter("streamplane.result_hits"),
        counter("streamplane.result_misses"),
        suite::streamplane::result_hit_rate(&stats) * 100.0,
        counter("streamplane.invalidated"),
    );
    println!(
        "pool execution          : {} queries in {} batches",
        counter("queryplane.queries"),
        counter("queryplane.batches"),
    );
    println!("incident log            : {} entries", sp.incidents().len());
    for inc in sp.incidents() {
        println!(
            "    w{:<2} [{:?}] {}: {}",
            inc.window, inc.kind, inc.sub, inc.summary
        );
    }

    // Invariants worth failing loudly on in CI:
    assert!(*epochs_seen.borrow() >= 40, "epoch hook must tick every ms");
    assert!(
        counter("streamplane.delta_copied") < counter("streamplane.full_copied_equiv"),
        "incremental refresh must beat full recapture on a live fabric"
    );
    assert!(
        !sp.incidents().is_empty(),
        "baselines alone guarantee incidents"
    );
    let transitions = sp
        .incidents()
        .iter()
        .filter(|i| i.kind == suite::streamplane::IncidentKind::Transition)
        .count();
    println!("verdict transitions     : {transitions}");
    // The watch subscription transitioned from Pending to a contention
    // verdict once the burst starved the victim and the trigger fired.
    assert!(
        sp.incidents().iter().any(|i| i.sub == watch
            && i.kind == suite::streamplane::IncidentKind::Transition
            && i.summary.starts_with("contention")),
        "the contention watch must fire on the starvation burst"
    );
    // Quiet dependencies ⇒ whole results served from cache.
    assert!(
        counter("streamplane.result_hits") >= 1,
        "the fixed pod-3 subscription must hit the result cache once its traffic ends"
    );
}
