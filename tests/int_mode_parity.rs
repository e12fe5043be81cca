//! The clean-slate INT embedding (§4.1.3's alternative) must reach the
//! same diagnoses as the commodity double-tag design — with exact epochs
//! at every hop instead of extrapolated ranges.

use netsim::prelude::*;
use switchpointer::analyzer::Verdict;
use switchpointer::scenarios::{self, Scenario};
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EmbedMode;

fn contention_episode(mode: EmbedMode) -> switchpointer::ContentionDiagnosis {
    let mut cfg = TestbedConfig::default_ms();
    cfg.mode = mode;
    let Scenario { tb, planted } =
        scenarios::contention(4, Priority::HIGH, SimTime::from_ms(40), cfg).run();
    let (victim, b) = planted.victim();
    tb.analyzer()
        .diagnose_contention(victim, b, tb.cfg.trigger.window)
}

#[test]
fn int_and_commodity_agree_on_contention() {
    let commodity = contention_episode(EmbedMode::Commodity);
    let int = contention_episode(EmbedMode::Int);

    assert_eq!(commodity.verdict, Verdict::PriorityContention);
    assert_eq!(int.verdict, Verdict::PriorityContention);

    let cset: std::collections::BTreeSet<FlowId> =
        commodity.culprits.iter().map(|c| c.flow).collect();
    let iset: std::collections::BTreeSet<FlowId> = int.culprits.iter().map(|c| c.flow).collect();
    assert_eq!(cset, iset, "same culprit flows under either embedding");
    assert_eq!(commodity.hosts_contacted, int.hosts_contacted);
}

#[test]
fn int_epoch_sets_are_tighter() {
    // INT carries exact per-hop epochs; commodity extrapolates ranges.
    // A flow's record under INT must therefore never hold *more* epochs
    // per switch than under commodity.
    let run = |mode: EmbedMode| {
        let topo = Topology::chain(3, 2, GBPS);
        let mut cfg = TestbedConfig::default_ms();
        cfg.mode = mode;
        let mut tb = Testbed::new(topo, cfg);
        let (a, f) = (tb.node("A"), tb.node("F"));
        let flow = tb.sim.add_udp_flow(UdpFlowSpec {
            src: a,
            dst: f,
            priority: Priority::LOW,
            start: SimTime::from_ms(2),
            duration: SimTime::from_ms(3),
            rate_bps: 300_000_000,
            payload_bytes: 1458,
        });
        let epochs_per_switch: Vec<u64> = {
            tb.sim.run_until(SimTime::from_ms(10));
            let host = tb.hosts[&f].borrow();
            let rec = host.store.record(flow).unwrap();
            rec.path.iter().map(|sw| rec.epochs_at[sw].len()).collect()
        };
        epochs_per_switch
    };
    let commodity = run(EmbedMode::Commodity);
    let int = run(EmbedMode::Int);
    assert_eq!(commodity.len(), int.len());
    for (c, i) in commodity.iter().zip(&int) {
        assert!(
            i <= c,
            "INT must be at least as tight: int={int:?} commodity={commodity:?}"
        );
    }
    // And strictly tighter somewhere (the extrapolation is not free).
    assert!(
        int.iter().sum::<u64>() < commodity.iter().sum::<u64>(),
        "extrapolation should cost precision: int={int:?} commodity={commodity:?}"
    );
}

#[test]
fn archived_pointer_wire_roundtrip() {
    // The control plane ships flushed pointer sets to the analyzer: each
    // must survive the one wire codec whole, period and bits.
    use std::sync::Arc;
    use switchpointer::pointer::{ArchivedPointer, PointerConfig, PointerHierarchy};

    let addrs: Vec<u64> = (0..64u64).map(|i| 0x0a00_0000 + i).collect();
    let mphf = Arc::new(mphf::Mphf::build(&addrs).unwrap());
    let mut h = PointerHierarchy::new(
        PointerConfig {
            n_hosts: 64,
            alpha: 2,
            k: 2,
        },
        mphf,
    );
    for e in 0..10u64 {
        h.update(addrs[(e * 3 % 64) as usize], e);
    }
    assert!(!h.archive().is_empty());
    for arch in h.archive() {
        let arch: &ArchivedPointer = arch;
        let bytes = telemetry::frame::to_bytes(arch);
        let back: ArchivedPointer = telemetry::frame::from_bytes(&bytes).unwrap();
        assert_eq!(&back, arch);
    }
}
