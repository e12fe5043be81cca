//! The "too many red lights" scenario (paper §2.2 / §5.2), end to end:
//! a low-priority TCP flow A→F crosses S1—S2—S3 and is delayed a little at
//! *each* switch by sequential high-priority UDP bursts — no single switch
//! looks anomalous, yet the flow's throughput collapses. SwitchPointer
//! diagnoses it by spatially correlating pointers across the path.
//!
//! Run with: `cargo run --release --example red_lights`

use netsim::prelude::*;
use switchpointer::testbed::{Testbed, TestbedConfig};

fn main() {
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let topo_for_names = tb.sim.topo().clone();
    let names = move |n: NodeId| topo_for_names.node(n).name.clone();

    // Victim: low-priority TCP A -> F across all three switches.
    let (a, f) = (tb.node("A"), tb.node("F"));
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        f,
        Priority::LOW,
        SimTime::from_ms(30),
    ));

    // Two sequential 400 us high-priority "red lights": B-D crosses S1-S2,
    // C-E crosses S2-S3.
    let (b, d) = (tb.node("B"), tb.node("D"));
    let (c, e) = (tb.node("C"), tb.node("E"));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        d,
        Priority::HIGH,
        SimTime::from_us(10_000),
        SimTime::from_us(400),
        GBPS,
    ));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        c,
        e,
        Priority::HIGH,
        SimTime::from_us(10_400),
        SimTime::from_us(400),
        GBPS,
    ));
    tb.sim.run_until(SimTime::from_ms(30));

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
    assert_eq!(
        implicated,
        ["S1", "S2"],
        "red lights at two of the victim's three switches, each named"
    );
}
