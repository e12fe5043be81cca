//! The traffic-cascade scenario (paper §2.3 / §5.3), end to end: a
//! high-priority flow B-D delays mid-priority A-F, whose stretched tail
//! then collides with low-priority TCP C-E — the analyzer must chase the
//! delay chain *recursively*, including through a flow (A-F) that never
//! raised any trigger itself.
//!
//! Run with: `cargo run --release --example traffic_cascade`

use netsim::prelude::*;
use switchpointer::testbed::{Testbed, TestbedConfig};

fn main() {
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let topo_for_names = tb.sim.topo().clone();
    let names = move |n: NodeId| topo_for_names.node(n).name.clone();

    let (a, b, c, d, e, f) = (
        tb.node("A"),
        tb.node("B"),
        tb.node("C"),
        tb.node("D"),
        tb.node("E"),
        tb.node("F"),
    );

    // High priority B-D, "rerouted" into A-F's window at S1.
    let bd = tb.sim.add_udp_flow(UdpFlowSpec {
        src: b,
        dst: d,
        priority: Priority::HIGH,
        start: SimTime::from_ms(14),
        duration: SimTime::from_ms(10),
        rate_bps: 950_000_000,
        payload_bytes: 1458,
    });
    // Mid priority A-F: would have finished by 20 ms unobstructed.
    let af = tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::MID,
        start: SimTime::from_ms(10),
        duration: SimTime::from_ms(10),
        rate_bps: 950_000_000,
        payload_bytes: 1458,
    });
    // Low priority TCP C-E, 2 MB starting as A-F *should* have finished.
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
        c,
        e,
        Priority::LOW,
        SimTime::from_us(20_500),
        2_000_000,
    ));
    tb.sim.run_until(SimTime::from_ms(80));

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
        (af, tb.node("S1"), bd),
        "stage 2: A-F delayed at S1 by B-D"
    );
    assert_eq!((st.culprit.src, st.culprit.dst), (b, d));
}
