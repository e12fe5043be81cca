//! Correctness of the telemetry path under bounded clock asynchrony:
//! whatever offsets (≤ ε) the switches run at, the epoch ranges a host
//! decodes must cover the epochs at which each switch *actually* processed
//! the flow's packets — the ground truth being the switches' own pointer
//! structures.

use netsim::prelude::*;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EmbedMode;

/// Runs a flow across the 3-switch chain with the given per-switch clock
/// offsets and checks record-vs-pointer consistency at every hop.
fn check_chain_consistency(offsets_us: [i64; 3], mode: EmbedMode, seed: u64) {
    let topo = Topology::chain(3, 2, GBPS);
    let mut cfg = TestbedConfig::default_ms();
    cfg.mode = mode;
    cfg.sim.seed = seed;
    let mut tb = Testbed::new(topo, cfg);

    for (i, name) in ["S1", "S2", "S3"].iter().enumerate() {
        let s = tb.node(name);
        tb.sim.set_clock_offset(s, offsets_us[i] * 1_000);
    }

    let (a, f) = (tb.node("A"), tb.node("F"));
    let flow = tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::from_ms(3),
        duration: SimTime::from_ms(2),
        rate_bps: 400_000_000,
        payload_bytes: 1458,
    });
    tb.sim.run_until(SimTime::from_ms(10));

    let host = tb.hosts[&f].borrow();
    let rec = host
        .store
        .record(flow)
        .expect("flow record must exist (telemetry decoded)");
    assert_eq!(host.decode_failures, 0, "every packet must decode");
    assert_eq!(rec.path.len(), 3, "full path reconstructed");

    // Ground truth: for every switch, the epochs during which its pointer
    // saw destination F must all be inside the record's epoch set.
    for &sw in &rec.path {
        let comp = tb.switches[&sw].borrow();
        let recorded = &rec.epochs_at[&sw];
        // Scan a generous epoch window at exact (level-1) resolution.
        for epoch in 0..20u64 {
            if comp.pointers.contains_within(f.addr(), epoch, 1) == Some(true) {
                assert!(
                    recorded.contains(epoch),
                    "switch {sw} truly forwarded in epoch {epoch} (offsets \
                     {offsets_us:?}, mode {mode:?}) but record only has {recorded:?}"
                );
            }
        }
        assert!(!recorded.is_empty());
    }
}

#[test]
fn commodity_mode_covers_truth_with_synchronized_clocks() {
    check_chain_consistency([0, 0, 0], EmbedMode::Commodity, 1);
}

#[test]
fn commodity_mode_covers_truth_with_skewed_clocks() {
    // ε = 1 ms in default_ms(); offsets up to ±500 us keep pairwise skew
    // within the bound.
    check_chain_consistency([500, -500, 250], EmbedMode::Commodity, 2);
    check_chain_consistency([-500, 500, -250], EmbedMode::Commodity, 3);
    check_chain_consistency([499, 0, -499], EmbedMode::Commodity, 4);
}

#[test]
fn int_mode_is_exact_regardless_of_skew() {
    check_chain_consistency([500, -500, 500], EmbedMode::Int, 5);
}

#[test]
fn leaf_spine_paths_reconstruct_through_the_actual_spine() {
    // ECMP: the record's path must name the spine the flow actually used
    // (verified against the spine's pointer).
    let topo = Topology::leaf_spine(3, 3, 3, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let mut flows = Vec::new();
    for i in 0..3 {
        let src = tb.node(&format!("h0_{i}"));
        let dst = tb.node(&format!("h2_{i}"));
        flows.push((
            tb.sim.add_udp_flow(UdpFlowSpec {
                src,
                dst,
                priority: Priority::LOW,
                start: SimTime::ZERO,
                duration: SimTime::from_ms(1),
                rate_bps: 200_000_000,
                payload_bytes: 1458,
            }),
            dst,
        ));
    }
    tb.sim.run_until(SimTime::from_ms(5));

    for (flow, dst) in flows {
        let host = tb.hosts[&dst].borrow();
        let rec = host.store.record(flow).expect("record");
        assert_eq!(rec.path.len(), 3);
        let spine = rec.path[1];
        let comp = tb.switches[&spine].borrow();
        assert!(
            comp.pointers.contains(dst.addr(), 0),
            "claimed spine {spine} never forwarded to {dst}"
        );
        // And no *other* spine forwarded this destination.
        for s in 0..3 {
            let other = tb.node(&format!("spine{s}"));
            if other != spine {
                let oc = tb.switches[&other].borrow();
                assert!(
                    !oc.pointers.contains(dst.addr(), 0),
                    "flow visible at two spines"
                );
            }
        }
    }
}

#[test]
fn acks_carry_telemetry_on_the_reverse_path() {
    // Pure ACKs traverse switches like any packet; the *sender's* host
    // component skips them by default but the switch pointers must still
    // record the sender as a destination (the paper stores pointers for
    // every forwarded packet).
    let topo = Topology::chain(2, 1, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, b) = (tb.node("A"), tb.node("B"));
    tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
        a,
        b,
        Priority::LOW,
        SimTime::ZERO,
        200_000,
    ));
    tb.sim.run_until(SimTime::from_ms(20));

    let s1 = tb.node("S1");
    let comp = tb.switches[&s1].borrow();
    // Data direction: B recorded; ACK direction: A recorded.
    assert!(comp.pointers.contains(b.addr(), 0));
    assert!(comp.pointers.contains(a.addr(), 0));
}
