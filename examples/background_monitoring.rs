//! Monitoring under realistic load: a leaf-spine fabric carrying a Poisson
//! web-search workload, with one injected priority-contention incident.
//! The point: even with dozens of unrelated flows in every switch's
//! pointer, search-radius reduction keeps the diagnosis fan-out small —
//! the analyzer consults only hosts behind the victim's congested egress.
//!
//! Run with: `cargo run --release --example background_monitoring`

use netsim::prelude::*;
use netsim::workload;
use switchpointer::analyzer::Verdict;
use switchpointer::testbed::{Testbed, TestbedConfig};

fn main() {
    let topo = Topology::leaf_spine(4, 2, 6, GBPS); // 24 hosts
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    tb.sim.randomize_switch_clocks(400_000); // ±0.4 ms skew

    // Background: ~2000 web-search flows/s across random host pairs.
    let spec = workload::WorkloadSpec {
        flows_per_sec: 2_000.0,
        sizes: FlowSizeDist::WebSearch,
        start: SimTime::ZERO,
        end: SimTime::from_ms(60),
        priority: Priority::MID,
        tcp: TcpConfig::default(),
    };
    let background = workload::install(&mut tb.sim, &spec, 7);
    println!("installed {} background flows", background.len());

    // The victim: low-priority TCP between two specific hosts. Note that
    // under MID-priority background load a LOW-priority flow suffers
    // legitimate contention from the background itself — every trigger
    // gets a (correct) explanation, whether it names the injected burst or
    // a heavyweight background flow.
    let (a, b) = (tb.node("h0_0"), tb.node("h3_0"));
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        b,
        Priority::LOW,
        SimTime::from_ms(60),
    ));
    // The incident: a high-priority burst onto the victim's destination
    // leaf via a different source host, 1 ms at line rate.
    let (u, v) = (tb.node("h1_1"), tb.node("h3_1"));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        u,
        v,
        Priority::HIGH,
        SimTime::from_ms(30),
        SimTime::from_ms(1),
        GBPS,
    ));

    tb.sim.run_until(SimTime::from_ms(60));

    let total_hosts = tb.sim.topo().hosts().len();
    // Pick the victim's first trigger once the burst has started (under
    // background load it also triggers for unrelated reasons). With
    // workload seed 7 that trigger, at 36 ms, is explained by MID
    // background flows at the first switch of the victim's path, where
    // the contention walk stops: the verdict holds with or without the
    // burst.
    let t = tb.hosts[&b]
        .borrow()
        .triggers()
        .iter()
        .find(|t| t.flow == victim && t.at >= SimTime::from_ms(30))
        .copied()
        .expect("the victim triggers after 30 ms (workload seed 7)");
    println!("victim triggered at {}", t.at);
    let d = tb
        .analyzer()
        .diagnose_contention_at(victim, b, tb.cfg.trigger.window, &t);
    println!(
        "verdict {:?}; consulted {} of {} hosts in {}",
        d.verdict,
        d.hosts_contacted,
        total_hosts,
        d.breakdown.total()
    );
    for c in d.culprits.iter().take(5) {
        println!(
            "  culprit {}: prio {:?}, {} bytes, epochs {:?}",
            c.flow, c.priority, c.bytes, c.common_epochs
        );
    }
    assert!(
        d.hosts_contacted < total_hosts,
        "reduction must beat contact-everyone"
    );
    assert_eq!(
        d.verdict,
        Verdict::PriorityContention,
        "trigger unexplained"
    );
}
