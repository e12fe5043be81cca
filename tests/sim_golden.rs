//! The simulator's results, pinned by digest: two seeded SwitchPointer
//! runs, each hashed over everything a run leaves behind — every host's
//! flow store and trigger log, every switch's pointer hierarchy and
//! counters, per-flow delivery counts and bytes, the drop list and
//! per-flow TCP retransmits and timeouts.
//!
//! The engine's one promise (DESIGN §2) is that a run is a pure function
//! of topology, flows and seed, with events popping in `(time, seq)`
//! order. A change to how the engine keeps its queue or how a host
//! decodes a path must leave both digests where they are:
//!
//! * the fat-tree run queues thousands of flow starts far beyond its
//!   horizon beside the traffic it simulates;
//! * the lossy dumbbell run drops enough to fire retransmission timeouts,
//!   so re-armed, superseded and expiring timers all take part.

use netsim::prelude::*;
use netsim::workload;
use suite::digest::{fnv1a, render};
use switchpointer::testbed::{Testbed, TestbedConfig};

/// A k = 4 fat tree: a starved victim, a high-priority burst onto its
/// destination, and a Poisson background of 1 000 flows/s over four
/// seconds, of which all but the first few dozen still wait to start
/// when the run stops at 40 ms.
fn fat_tree_run() -> (String, usize, u64) {
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, b) = (tb.node("h0_0_0"), tb.node("h0_0_1"));
    let da = tb.node("h2_0_0");
    tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(20),
    ));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        da,
        Priority::HIGH,
        SimTime::from_ms(10),
        SimTime::from_ms(2),
        GBPS,
    ));
    let spec = WorkloadSpec::background(1_000.0, SimTime::from_secs(4));
    let background = workload::install(&mut tb.sim, &spec, 0x5eed_0042);
    tb.sim.run_until(SimTime::from_ms(40));
    let (text, timeouts) = render(&tb);
    (text, background.len(), timeouts)
}

/// A dumbbell whose switches buffer 24 KB: four TCP senders into one
/// receiver plus a high-priority UDP blast from 5 ms to 8 ms, so the
/// core queue drops whole windows and the senders time out.
fn lossy_dumbbell_run() -> (String, u64) {
    let topo = Topology::dumbbell(5, 2, GBPS);
    let mut cfg = TestbedConfig::default_ms();
    cfg.sim.switch_queue = QueueConfig::StrictPriority {
        capacity_bytes: 24_000,
        classes: 3,
    };
    let mut tb = Testbed::new(topo, cfg);
    let r0 = tb.node("R0");
    for i in 0..4 {
        let src = tb.node(&format!("L{i}"));
        tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
            src,
            r0,
            Priority::LOW,
            SimTime::from_us(100 * i),
            600_000,
        ));
    }
    let (l4, r1) = (tb.node("L4"), tb.node("R1"));
    tb.sim.add_udp_flow(UdpFlowSpec::burst(
        l4,
        r1,
        Priority::HIGH,
        SimTime::from_ms(5),
        SimTime::from_ms(3),
        GBPS,
    ));
    tb.sim.run_until(SimTime::from_ms(120));
    render(&tb)
}

#[test]
fn fat_tree_run_with_queued_flow_starts_is_pinned() {
    let (text, background, _) = fat_tree_run();
    assert!(background > 3_000, "{background} background flows");
    assert_eq!(
        fnv1a(&text),
        FAT_TREE_DIGEST,
        "fat-tree run moved ({} bytes of state)",
        text.len()
    );
}

#[test]
fn lossy_dumbbell_run_with_timeouts_is_pinned() {
    let (text, timeouts) = lossy_dumbbell_run();
    assert!(timeouts > 0, "the run must fire retransmission timeouts");
    assert_eq!(
        fnv1a(&text),
        DUMBBELL_DIGEST,
        "lossy dumbbell run moved ({} bytes of state, {timeouts} timeouts)",
        text.len()
    );
}

/// `fnv1a(render(..))` of [`fat_tree_run`].
const FAT_TREE_DIGEST: u64 = 16641060283042583022;
/// `fnv1a(render(..))` of [`lossy_dumbbell_run`].
const DUMBBELL_DIGEST: u64 = 395255643686204196;
