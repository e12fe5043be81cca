//! Monitoring under realistic load: a leaf-spine fabric carrying a Poisson
//! web-search workload, with one injected priority-contention incident.
//! The point: even with dozens of unrelated flows in every switch's
//! pointer, search-radius reduction keeps the diagnosis fan-out small —
//! the analyzer consults only hosts behind the victim's congested egress.
//!
//! Run with: `cargo run --release --example background_monitoring`

use netsim::prelude::*;
use switchpointer::analyzer::Verdict;
use switchpointer::scenarios::{self, Scenario};

fn main() {
    // A 24-host leaf-spine fabric with ±0.4 ms switch clock skew, ~2000
    // web-search flows/s of MID background across random host pairs, a
    // low-priority TCP victim between two specific hosts and the incident:
    // a 1 ms line-rate high-priority burst at 30 ms onto the victim's
    // destination leaf via a different source host. Note that under
    // MID-priority background load a LOW-priority flow suffers legitimate
    // contention from the background itself — every trigger gets a
    // (correct) explanation, whether it names the injected burst or a
    // heavyweight background flow.
    let Scenario { tb, planted } = scenarios::background_monitoring().run();
    println!("installed {} background flows", planted.background.len());
    let (victim, b) = planted.victim();

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
