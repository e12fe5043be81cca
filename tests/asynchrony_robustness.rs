//! End-to-end robustness under clock asynchrony: the paper's claim is that
//! bounded clock offsets (≤ ε) never break *correctness* — the epoch
//! machinery widens ranges, so diagnoses may touch more hosts but never
//! miss the culprit. These tests randomize every switch's clock within ε
//! and assert the full §5.1 loop still lands on the right answer.

use netsim::prelude::*;
use proptest::prelude::*;
use switchpointer::analyzer::Verdict;
use switchpointer::scenarios::{self, Scenario};
use switchpointer::testbed::TestbedConfig;

/// One full contention episode with per-switch offsets (ns, |x| ≤ ε/2 so
/// pairwise skew ≤ ε = 1 ms).
fn episode(offsets_ns: [i64; 2], seed: u64) -> switchpointer::ContentionDiagnosis {
    let mut cfg = TestbedConfig::default_ms();
    cfg.sim.seed = seed;
    let Scenario { mut tb, planted } =
        scenarios::contention(3, Priority::HIGH, SimTime::from_ms(40), cfg);
    let (victim, b) = planted.victim();
    let sl = tb.node("SL");
    let sr = tb.node("SR");
    tb.sim.set_clock_offset(sl, offsets_ns[0]);
    tb.sim.set_clock_offset(sr, offsets_ns[1]);
    tb.sim.run_until(planted.horizon);
    tb.analyzer()
        .diagnose_contention(victim, b, tb.cfg.trigger.window)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any bounded skew assignment: the verdict and the culprit set are
    /// unchanged (asynchrony costs search radius, never correctness).
    #[test]
    fn diagnosis_invariant_under_bounded_skew(
        off_sl in -500_000i64..=500_000,
        off_sr in -500_000i64..=500_000,
        seed in 0u64..50,
    ) {
        let d = episode([off_sl, off_sr], seed);
        prop_assert_eq!(d.verdict, Verdict::PriorityContention);
        prop_assert_eq!(d.culprits.len(), 3, "all culprits found");
        prop_assert!(d.hosts_contacted >= 3);
        // Bounded inflation: skew may widen the window, but never to the
        // point of contacting unrelated hosts (only the 3 UDP receivers
        // share the victim's egress in this fixture).
        prop_assert!(d.hosts_contacted <= 4, "radius blew up: {}", d.hosts_contacted);
    }
}

#[test]
fn zero_skew_baseline_matches() {
    let d = episode([0, 0], 1);
    assert_eq!(d.verdict, Verdict::PriorityContention);
    assert_eq!(d.culprits.len(), 3);
}

#[test]
fn simulation_is_deterministic_under_fixed_offsets() {
    let run = || {
        let d = episode([250_000, -250_000], 9);
        (
            d.verdict,
            d.hosts_contacted,
            d.culprits.iter().map(|c| c.flow).collect::<Vec<_>>(),
            d.epochs,
        )
    };
    assert_eq!(run(), run());
}
