//! End-to-end silent-drop localization (§2.4-class application): a link
//! fails mid-run, routing stays static (blackhole), the victim's receiver
//! triggers on the starvation, and the analyzer pinpoints the failed
//! segment from switch pointers alone — no host queries needed.

use netsim::prelude::*;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

fn link_between(tb: &Testbed, a: &str, b: &str) -> LinkId {
    let (na, nb) = (tb.node(a), tb.node(b));
    tb.sim
        .topo()
        .ports(na)
        .iter()
        .find(|&&(_, p)| p == nb)
        .map(|&(l, _)| l)
        .unwrap_or_else(|| panic!("no link {a}-{b}"))
}

#[test]
fn failed_chain_link_is_localized() {
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, f) = (tb.node("A"), tb.node("F"));
    let flow = tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(20),
        rate_bps: 300_000_000,
        payload_bytes: 1458,
    });
    // S2-S3 fails at 8 ms.
    let bad = link_between(&tb, "S2", "S3");
    tb.sim.schedule_link_state(bad, false, SimTime::from_ms(8));
    tb.sim.run_until(SimTime::from_ms(20));

    // The receiver noticed the starvation.
    let trig = tb.hosts[&f]
        .borrow()
        .first_trigger_for(flow)
        .copied()
        .expect("starvation trigger");
    assert!(trig.at >= SimTime::from_ms(8) && trig.at <= SimTime::from_ms(11));

    // Localize using post-onset epochs.
    let e = tb.cfg.params.epoch_of(trig.at);
    let diag = tb
        .analyzer()
        .localize_silent_drop(flow, a, f, EpochRange { lo: e, hi: e + 2 });
    // Let the flow keep running past the trigger so upstream pointers have
    // entries for the window (duration 20 ms covers it).
    let s2 = tb.node("S2");
    let s3 = tb.node("S3");
    assert_eq!(
        diag.suspected_segment,
        Some((s2, s3)),
        "{:?}",
        diag.per_switch
    );
    // S1 and S2 saw the flow post-failure; S3 did not.
    assert_eq!(diag.per_switch.iter().filter(|&&(_, p)| p).count(), 2);
    assert!(diag.pointer_retrieval > SimTime::ZERO);
}

#[test]
fn healthy_path_reports_no_segment() {
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, f) = (tb.node("A"), tb.node("F"));
    let flow = tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(5),
        rate_bps: 300_000_000,
        payload_bytes: 1458,
    });
    tb.sim.run_until(SimTime::from_ms(10));
    let diag = tb
        .analyzer()
        .localize_silent_drop(flow, a, f, EpochRange { lo: 0, hi: 5 });
    assert_eq!(diag.suspected_segment, None);
    assert!(diag.per_switch.iter().all(|&(_, p)| p));
}

#[test]
fn first_hop_failure_blames_the_source_segment() {
    let topo = Topology::chain(3, 2, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, f) = (tb.node("A"), tb.node("F"));
    let flow = tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::from_ms(5),
        duration: SimTime::from_ms(5),
        rate_bps: 300_000_000,
        payload_bytes: 1458,
    });
    // A's uplink is dead from the start: nothing ever reaches S1.
    let bad = link_between(&tb, "A", "S1");
    tb.sim.schedule_link_state(bad, false, SimTime::ZERO);
    tb.sim.run_until(SimTime::from_ms(15));

    let diag = tb
        .analyzer()
        .localize_silent_drop(flow, a, f, EpochRange { lo: 5, hi: 10 });
    let s1 = tb.node("S1");
    assert_eq!(diag.suspected_segment, Some((a, s1)));
}

#[test]
fn link_repair_restores_traffic() {
    let topo = Topology::chain(2, 1, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    tb.sim.traces.record_packets = true;
    let (a, b) = (tb.node("A"), tb.node("B"));
    let flow = tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: b,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(12),
        rate_bps: 200_000_000,
        payload_bytes: 1458,
    });
    let l = link_between(&tb, "S1", "S2");
    tb.sim.schedule_link_state(l, false, SimTime::from_ms(3));
    tb.sim.schedule_link_state(l, true, SimTime::from_ms(6));
    tb.sim.run_until(SimTime::from_ms(15));

    let events = tb.sim.traces.rx_events(flow);
    let during = events
        .iter()
        .filter(|e| e.t >= SimTime::from_ms(3) && e.t < SimTime::from_ms(6))
        .count();
    let after = events
        .iter()
        .filter(|e| e.t >= SimTime::from_ms(6) && e.t < SimTime::from_ms(12))
        .count();
    assert!(during <= 2, "traffic during outage: {during}");
    assert!(after > 50, "traffic after repair: {after}");
    assert!(!tb.sim.traces.drops.is_empty(), "outage must drop packets");
}
