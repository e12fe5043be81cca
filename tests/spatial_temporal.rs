//! End-to-end tests of the spatial (§5.2 red lights) and spatio-temporal
//! (§5.3 cascades) diagnosis applications on the S1—S2—S3 chain.

use netsim::prelude::*;
use switchpointer::scenarios::{self, Scenario};
use switchpointer::testbed::Testbed;

#[test]
fn red_lights_implicates_both_switches() {
    let Scenario { tb, planted } = scenarios::red_lights().run();
    let (victim, f) = planted.victim();
    let (b, d) = (tb.node("B"), tb.node("D"));
    let e = tb.node("E");

    let diag = tb
        .analyzer()
        .diagnose_red_lights(victim, f, tb.cfg.trigger.window);

    let s1 = tb.node("S1");
    let s2 = tb.node("S2");
    let s3 = tb.node("S3");
    assert!(diag.implicated.contains(&s1), "S1 red light missed");
    assert!(diag.implicated.contains(&s2), "S2 red light missed");
    assert!(!diag.implicated.contains(&s3), "S3 falsely implicated");

    // The culprits at each switch are the right flows.
    let at = |sw: NodeId| {
        diag.per_switch
            .iter()
            .find(|(s, _)| *s == sw)
            .map(|(_, c)| c.clone())
            .unwrap()
    };
    assert!(at(s1).iter().any(|c| c.src == b && c.dst == d));
    assert!(at(s2).iter().any(|c| c.src == c_node(&tb) && c.dst == e));

    // Both culprits share at least one epoch with the victim's window —
    // the paper's "at least one common epochID" conclusion.
    for (_, culprits) in &diag.per_switch {
        for cu in culprits {
            assert!(!cu.common_epochs.is_empty());
        }
    }

    // Paper: retrieval over 3 switches ~10 ms; whole diagnosis ~30 ms.
    let b_ms = diag.breakdown.pointer_retrieval.as_ms_f64();
    assert!((8.0..=12.0).contains(&b_ms), "retrieval {b_ms} ms");
    assert!(diag.breakdown.total() < SimTime::from_ms(60));
}

fn c_node(tb: &Testbed) -> NodeId {
    tb.node("C")
}

#[test]
fn cascade_chain_recovered_in_order() {
    // B-D high prio, rerouted into A-F's 10-20 ms window.
    let Scenario { tb, planted } = scenarios::traffic_cascade(true).run();
    let (ce, e) = planted.victim();
    let [bd, af] = planted.culprits[..] else {
        panic!("the cascade plants B-D and A-F")
    };

    let diag = tb
        .analyzer()
        .diagnose_cascade(ce, e, tb.cfg.trigger.window, 4);
    assert_eq!(diag.stages.len(), 2, "both links of the chain");

    // Stage 1: C-E was delayed by A-F at S2.
    let s2 = tb.node("S2");
    assert_eq!(diag.stages[0].victim, ce);
    assert_eq!(diag.stages[0].culprit.flow, af);
    assert_eq!(diag.stages[0].switch, s2);

    // Stage 2: A-F was delayed by B-D at S1 — a flow that never raised any
    // trigger itself (the capability the paper says existing tools lack).
    let s1 = tb.node("S1");
    assert_eq!(diag.stages[1].victim, af);
    assert_eq!(diag.stages[1].culprit.flow, bd);
    assert_eq!(diag.stages[1].switch, s1);

    // Note: A-F's receiver also observes the throughput drop (the naive
    // 50% heuristic fires on any victim), but the cascade diagnosis is
    // driven from C-E's trigger and still recovers B-D behind A-F —
    // including the stage where A-F is a *culprit*, not a complainant.
}

#[test]
fn no_cascade_when_bursts_do_not_overlap() {
    // Same flows, but B-D runs 0-10 ms: no contention anywhere. C-E is
    // the last flow.
    let Scenario { tb, planted } = scenarios::traffic_cascade(false).run();
    let (ce, e) = (planted.background[2], tb.node("E"));

    // C-E completes promptly and never triggers *while running* (the
    // naive heuristic does fire once when the flow ends and throughput
    // goes to zero — an artifact the paper's heuristic shares).
    assert!(tb.sim.tcp(ce).is_complete());
    let done = tb.sim.tcp(ce).finished_at.unwrap();
    let host = tb.hosts[&e].borrow();
    if let Some(t) = host.first_trigger_for(ce) {
        assert!(
            t.at + SimTime::from_ms(1) >= done,
            "mid-transfer trigger at {} in a clean run (done {})",
            t.at,
            done
        );
    }
}
