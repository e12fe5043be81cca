//! The traffic-cascade scenario (paper §2.3 / §5.3), end to end: a
//! high-priority flow B-D delays mid-priority A-F, whose stretched tail
//! then collides with low-priority TCP C-E — the analyzer must chase the
//! delay chain *recursively*, including through a flow (A-F) that never
//! raised any trigger itself.
//!
//! Run with: `cargo run --release --example traffic_cascade`

use netsim::prelude::*;
use switchpointer::scenarios::{self, Scenario};

fn main() {
    // High priority B-D, "rerouted" into A-F's window at S1; mid priority
    // A-F, which would have finished by 20 ms unobstructed; low priority
    // TCP C-E, 2 MB starting as A-F *should* have finished.
    let Scenario { tb, planted } = scenarios::traffic_cascade(true).run();
    let (victim, e) = planted.victim();
    let topo_for_names = tb.sim.topo().clone();
    let names = move |n: NodeId| topo_for_names.node(n).name.clone();

    let done = tb.sim.tcp(victim).finished_at.expect("C-E completes");
    println!("C-E finished at {done} (cascade-delayed)");

    let analyzer = tb.analyzer();
    let diag = analyzer.diagnose_cascade(victim, e, tb.cfg.trigger.window, 4);

    println!(
        "cascade diagnosis: {} stages, {} host contacts, total {}",
        diag.stages.len(),
        diag.hosts_contacted,
        diag.breakdown.total()
    );
    for (i, st) in diag.stages.iter().enumerate() {
        println!(
            "  stage {}: victim {} delayed at {} by {} ({} -> {}, prio {:?})",
            i + 1,
            st.victim,
            names(st.switch),
            st.culprit.flow,
            names(st.culprit.src),
            names(st.culprit.dst),
            st.culprit.priority,
        );
    }
    assert_eq!(
        diag.stages.len(),
        2,
        "must find both links of the chain: C-E <- A-F <- B-D"
    );
    let st = &diag.stages[1];
    assert_eq!(
        (st.victim, st.switch, st.culprit.flow),
        planted.chain[1],
        "stage 2: A-F delayed at S1 by B-D"
    );
    assert_eq!(
        (st.culprit.src, st.culprit.dst),
        (tb.node("B"), tb.node("D"))
    );
}
