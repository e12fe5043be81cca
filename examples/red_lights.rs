//! The "too many red lights" scenario (paper §2.2 / §5.2), end to end:
//! a low-priority TCP flow A→F crosses S1—S2—S3 and is delayed a little at
//! *each* switch by sequential high-priority UDP bursts — no single switch
//! looks anomalous, yet the flow's throughput collapses. SwitchPointer
//! diagnoses it by spatially correlating pointers across the path.
//!
//! Run with: `cargo run --release --example red_lights`

use netsim::prelude::*;
use switchpointer::scenarios::{self, Scenario};

fn main() {
    // Victim: low-priority TCP A -> F across all three switches, and two
    // sequential 400 us high-priority "red lights": B-D crosses S1-S2,
    // C-E crosses S2-S3.
    let Scenario { tb, planted } = scenarios::red_lights().run();
    let (victim, f) = planted.victim();
    let topo_for_names = tb.sim.topo().clone();
    let names = move |n: NodeId| topo_for_names.node(n).name.clone();

    // F's trigger engine noticed the throughput drop.
    let trigger = tb.hosts[&f]
        .borrow()
        .first_trigger_for(victim)
        .copied()
        .expect("throughput-drop trigger");
    println!(
        "trigger at {}: {} -> {} bytes/window",
        trigger.at, trigger.prev_bytes, trigger.cur_bytes
    );

    // The analyzer correlates pointers across S1, S2, S3.
    let analyzer = tb.analyzer();
    let diag = analyzer.diagnose_red_lights(victim, f, tb.cfg.trigger.window);

    println!(
        "diagnosis over {} hosts in {} (retrieval {}, diagnosis {}):",
        diag.hosts_contacted,
        diag.breakdown.total(),
        diag.breakdown.pointer_retrieval,
        diag.breakdown.diagnosis,
    );
    for (sw, culprits) in &diag.per_switch {
        println!("  at {}:", names(*sw));
        for cu in culprits {
            println!(
                "    culprit {} ({} -> {}), prio {:?}, epochs {:?}",
                cu.flow,
                names(cu.src),
                names(cu.dst),
                cu.priority,
                cu.common_epochs
            );
        }
    }
    let implicated: Vec<String> = diag.implicated.iter().map(|&s| names(s)).collect();
    println!("implicated switches: {implicated:?}");
    let planted_at: Vec<String> = planted.per_switch.iter().map(|&(s, _)| names(s)).collect();
    assert_eq!(
        implicated, planted_at,
        "red lights at two of the victim's three switches, each named"
    );
}
