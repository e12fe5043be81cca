//! End-to-end §5.1 "too much traffic": the full SwitchPointer loop from
//! packets on the wire to an analyzer verdict, for both the priority-based
//! and the microburst-based variants.

use netsim::prelude::*;
use netsim::queue::QueueConfig;
use switchpointer::analyzer::Verdict;
use switchpointer::scenarios::{self, Scenario};
use switchpointer::testbed::{Testbed, TestbedConfig};

#[test]
fn priority_contention_diagnosed_with_all_culprits() {
    for m in [1usize, 4, 8] {
        let Scenario { tb, planted } = scenarios::contention(
            m,
            Priority::HIGH,
            SimTime::from_ms(50),
            TestbedConfig::default_ms(),
        )
        .run();
        let (victim, dst) = planted.victim();
        // The victim's host noticed the starvation on its own.
        let trig = tb.hosts[&dst].borrow().first_trigger_for(victim).copied();
        let trig = trig.unwrap_or_else(|| panic!("m={m}: no trigger"));
        assert!(
            trig.at >= SimTime::from_ms(20) && trig.at <= SimTime::from_ms(25),
            "m={m}: trigger at {} not near the burst",
            trig.at
        );

        let d = tb
            .analyzer()
            .diagnose_contention(victim, dst, tb.cfg.trigger.window);
        assert_eq!(d.verdict, Verdict::PriorityContention, "m={m}");
        assert_eq!(d.hosts_contacted, m, "m={m}: exactly the burst receivers");
        assert_eq!(d.culprits.len(), m, "m={m}: every burst flow identified");
        for c in &d.culprits {
            assert_eq!(c.priority, Priority::HIGH);
            assert!(!c.common_epochs.is_empty());
        }
        // Paper: the whole episode stays under 100 ms.
        assert!(
            d.breakdown.total() < SimTime::from_ms(100),
            "m={m}: {}",
            d.breakdown.total()
        );
    }
}

#[test]
fn microburst_contention_gets_microburst_verdict() {
    // FIFO queue, bursts at the same priority as the victim: drops, not
    // priority starvation. 8 equal-priority line-rate bursts overflow the
    // 1 MB shared buffer.
    let mut cfg = TestbedConfig::default_ms();
    cfg.sim.switch_queue = QueueConfig::default_fifo();
    let Scenario { tb, planted } =
        scenarios::contention(8, Priority::LOW, SimTime::from_ms(50), cfg).run();
    let (victim, dst) = planted.victim();
    let d = tb
        .analyzer()
        .diagnose_contention(victim, dst, tb.cfg.trigger.window);
    assert_eq!(d.verdict, Verdict::Microburst);
    assert!(!d.culprits.is_empty());
    assert!(d.culprits.iter().all(|c| c.priority == Priority::LOW));
}

#[test]
fn diagnosis_latency_grows_with_contending_hosts() {
    let mut last = SimTime::ZERO;
    for m in [1usize, 4, 16] {
        let Scenario { tb, planted } = scenarios::contention(
            m,
            Priority::HIGH,
            SimTime::from_ms(50),
            TestbedConfig::default_ms(),
        )
        .run();
        let (victim, dst) = planted.victim();
        let d = tb
            .analyzer()
            .diagnose_contention(victim, dst, tb.cfg.trigger.window);
        assert!(
            d.breakdown.diagnosis > last,
            "m={m}: diagnosis {} did not grow past {last}",
            d.breakdown.diagnosis
        );
        last = d.breakdown.diagnosis;
        // Connection initiation dominates the diagnosis detail (§6.2).
        let det = d.breakdown.diagnosis_detail;
        assert!(det.connection_initiation >= det.request);
        assert!(det.connection_initiation >= det.response);
    }
}

#[test]
fn quiet_network_raises_no_triggers() {
    let (tb, victim, dst) = {
        let topo = Topology::dumbbell(2, 2, GBPS);
        let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
        let a = tb.node("L0");
        let b = tb.node("R0");
        let tcp = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
            a,
            b,
            Priority::LOW,
            SimTime::from_ms(30),
        ));
        tb.sim.run_until(SimTime::from_ms(28));
        (tb, tcp, b)
    };
    assert!(
        tb.hosts[&dst].borrow().first_trigger_for(victim).is_none(),
        "uncontended flow must not trigger"
    );
}
