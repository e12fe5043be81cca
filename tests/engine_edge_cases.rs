//! Engine-level edge cases and invariants: event ordering, byte
//! conservation, stats accounting, and configuration extremes.

use netsim::prelude::*;
use netsim::queue::QueueConfig;

#[test]
fn udp_byte_conservation_without_loss() {
    // Everything sent is delivered or still in flight at the horizon;
    // with a generous horizon, delivered == sent.
    let topo = Topology::chain(3, 2, GBPS);
    let mut sim = netsim::engine::Simulator::new(topo, Default::default());
    let a = sim.topo().node_by_name("A").unwrap();
    let f = sim.topo().node_by_name("F").unwrap();
    let flow = sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(5),
        rate_bps: 700_000_000,
        payload_bytes: 1458,
    });
    sim.run_to_completion();
    assert_eq!(sim.traces.rx_bytes(flow), sim.udp(flow).sent_bytes);
    assert_eq!(sim.traces.drops_for(flow), 0);
}

#[test]
fn overload_conserves_bytes_with_drops() {
    // Two line-rate UDP flows into one egress: delivered + dropped payload
    // must equal sent payload.
    let topo = Topology::dumbbell(2, 2, GBPS);
    let mut sim = netsim::engine::Simulator::new(
        topo,
        netsim::engine::SimConfig {
            switch_queue: QueueConfig::Fifo {
                capacity_bytes: 100_000,
            },
            ..Default::default()
        },
    );
    let mut flows = Vec::new();
    for i in 0..2 {
        let src = sim.topo().node_by_name(&format!("L{i}")).unwrap();
        let dst = sim.topo().node_by_name(&format!("R{i}")).unwrap();
        flows.push(sim.add_udp_flow(UdpFlowSpec {
            src,
            dst,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(3),
            rate_bps: GBPS,
            payload_bytes: 1458,
        }));
    }
    sim.run_to_completion();
    for &f in &flows {
        let sent = sim.udp(f).sent_pkts;
        let delivered = sim.traces.rx_packets(f);
        let dropped = sim.traces.drops_for(f) as u64;
        assert_eq!(sent, delivered + dropped, "flow {f}");
    }
    // And the contention genuinely dropped something.
    let total_drops: usize = flows.iter().map(|&f| sim.traces.drops_for(f)).sum();
    assert!(total_drops > 0);
}

#[test]
fn rx_events_are_time_ordered() {
    let topo = Topology::dumbbell(2, 2, GBPS);
    let mut sim = netsim::engine::Simulator::new(topo, Default::default());
    sim.traces.record_packets = true;
    let a = sim.topo().node_by_name("L0").unwrap();
    let b = sim.topo().node_by_name("R0").unwrap();
    let f = sim.add_tcp_flow(TcpFlowSpec::transfer(
        a,
        b,
        Priority::LOW,
        SimTime::ZERO,
        500_000,
    ));
    sim.run_to_completion();
    let ev = sim.traces.rx_events(f);
    assert!(ev.windows(2).all(|w| w[0].t <= w[1].t));
    assert!(!ev.is_empty());
}

#[test]
fn simultaneous_flow_starts_are_deterministic() {
    let run = || {
        let topo = Topology::star(8, GBPS);
        let mut sim = netsim::engine::Simulator::new(topo, Default::default());
        sim.traces.record_packets = true;
        let mut ids = Vec::new();
        for i in 0..4 {
            let src = sim.topo().node_by_name(&format!("H{i}")).unwrap();
            let dst = sim.topo().node_by_name(&format!("H{}", i + 4)).unwrap();
            ids.push(sim.add_udp_flow(UdpFlowSpec {
                src,
                dst,
                priority: Priority::LOW,
                start: SimTime::from_ms(1), // identical start times
                duration: SimTime::from_ms(1),
                rate_bps: 400_000_000,
                payload_bytes: 1000,
            }));
        }
        sim.run_to_completion();
        ids.iter()
            .map(|&f| {
                (
                    sim.traces.rx_bytes(f),
                    sim.traces.rx_events(f).first().map(|e| e.t),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn port_stats_track_transmissions() {
    let topo = Topology::chain(2, 1, GBPS);
    let mut sim = netsim::engine::Simulator::new(topo, Default::default());
    let a = sim.topo().node_by_name("A").unwrap();
    let b = sim.topo().node_by_name("B").unwrap();
    sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: b,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(1),
        rate_bps: 100_000_000,
        payload_bytes: 1000,
    });
    sim.run_to_completion();
    let s1 = sim.topo().node_by_name("S1").unwrap();
    // S1's port toward S2 carried the flow.
    let s2 = sim.topo().node_by_name("S2").unwrap();
    let port = sim
        .topo()
        .ports(s1)
        .iter()
        .position(|&(_, p)| p == s2)
        .unwrap() as u16;
    assert!(sim.port_tx_bytes(s1, port) > 0);
    let stats = sim.port_queue_stats(s1, port);
    assert!(stats.enqueued_pkts > 0);
    assert_eq!(stats.dropped_pkts, 0);
}

#[test]
fn tiny_transfer_one_segment() {
    let topo = Topology::chain(2, 1, GBPS);
    let mut sim = netsim::engine::Simulator::new(topo, Default::default());
    let a = sim.topo().node_by_name("A").unwrap();
    let b = sim.topo().node_by_name("B").unwrap();
    let f = sim.add_tcp_flow(TcpFlowSpec::transfer(a, b, Priority::LOW, SimTime::ZERO, 1));
    sim.run_to_completion();
    assert!(sim.tcp(f).is_complete());
    assert_eq!(sim.tcp(f).delivered, 1);
}

#[test]
fn priority_inversion_impossible_on_shared_port() {
    // With strict priority, a HIGH packet enqueued behind buffered LOW
    // packets still leaves first (head-of-line only within its class).
    let topo = Topology::dumbbell(2, 2, GBPS);
    let mut sim = netsim::engine::Simulator::new(topo, Default::default());
    sim.traces.record_packets = true;
    let l0 = sim.topo().node_by_name("L0").unwrap();
    let r0 = sim.topo().node_by_name("R0").unwrap();
    let l1 = sim.topo().node_by_name("L1").unwrap();
    let r1 = sim.topo().node_by_name("R1").unwrap();
    let low = sim.add_udp_flow(UdpFlowSpec {
        src: l0,
        dst: r0,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(2),
        rate_bps: GBPS,
        payload_bytes: 1458,
    });
    let high = sim.add_udp_flow(UdpFlowSpec {
        src: l1,
        dst: r1,
        priority: Priority::HIGH,
        start: SimTime::from_us(500),
        duration: SimTime::from_ms(1),
        rate_bps: GBPS,
        payload_bytes: 1458,
    });
    sim.run_to_completion();
    // While HIGH was active (0.5-1.5 ms), LOW progress must be ~zero.
    let low_events = sim.traces.rx_events(low);
    let during = low_events
        .iter()
        .filter(|e| e.t >= SimTime::from_us(600) && e.t < SimTime::from_us(1_400))
        .count();
    assert!(during <= 2, "low-priority leaked {during} packets");
    assert!(!sim.traces.rx_events(high).is_empty());
}
