//! The scenario catalogue, pinned: each builder in
//! `switchpointer::scenarios`, at every parameter set a test, example or
//! figure builds it with, run to its horizon and hashed over everything
//! the run leaves behind (`suite::digest::render`). Each digest is the one
//! the fixture's own copy produced before the copies became one builder,
//! so a builder that reorders its flows (their ids fix the ECMP paths) or
//! changes a spec fails here, naming the scenario.
//!
//! And the planted answer holds: every scenario that plants a victim sees
//! the victim's destination raise its trigger by the horizon.

use netsim::prelude::*;
use suite::digest::{fnv1a, render};
use switchpointer::scenarios::{self, Scenario};
use switchpointer::testbed::TestbedConfig;
use telemetry::EmbedMode;

/// The §5.1 dumbbell at `m` bursts of `burst` priority over `queue` until
/// `horizon_ms`, under seed `seed` and embedding `mode`.
fn contention(
    m: usize,
    burst: Priority,
    horizon_ms: u64,
    queue: QueueConfig,
    seed: u64,
    mode: EmbedMode,
) -> Scenario {
    let mut cfg = TestbedConfig::default_ms();
    cfg.sim.switch_queue = queue;
    cfg.sim.seed = seed;
    cfg.mode = mode;
    scenarios::contention(m, burst, SimTime::from_ms(horizon_ms), cfg)
}

/// `SimConfig`'s seed, which callers that set none run at.
const DEFAULT_SEED: u64 = 1;

type Row = (&'static str, fn() -> Scenario, u64);

#[rustfmt::skip]
const TABLE: [Row; 33] = [
    ("storm(h2_0_0, cross)", || scenarios::storm("h2_0_0", true), 0xacbaaccc600395b5),
    ("storm(h2_0_0)", || scenarios::storm("h2_0_0", false), 0x7b6e2e3defbbafc4),
    ("storm(h2_0_1)", || scenarios::storm("h2_0_1", false), 0x76164a0a0cd679c3),
    ("query_storm", scenarios::query_storm, 0xf397afb46012bede),
    ("directory_ablation", scenarios::directory_ablation, 0x0441e420dff0fee1),
    ("watch(0)", || scenarios::watch(0), 0xa65540bd68266344),
    ("watch(1)", || scenarios::watch(1), 0xa08f112ae5ecc33d),
    ("watch(21)", || scenarios::watch(21), 0xe8647f9fed8f1c01),
    ("churn_storm([])", || scenarios::churn_storm(&[]), 0x330278111537305c),
    ("churn_storm(2 waves)", || scenarios::churn_storm(&[
        ("h1_1_0", "h2_1_1", 0, 9),
        ("h1_0_1", "h3_0_1", 0, 6),
    ]), 0x904c930706d8c408),
    ("churn_storm(6 waves)", || scenarios::churn_storm(&[
        ("h1_0_1", "h3_0_0", 0, 6),
        ("h1_1_0", "h3_0_1", 5, 6),
        ("h1_1_1", "h3_1_0", 10, 6),
        ("h1_0_1", "h2_1_0", 15, 6),
        ("h1_1_0", "h2_1_1", 20, 6),
        ("h1_1_1", "h0_1_1", 25, 6),
    ]), 0x35df3a3575eb048e),
    ("chain_watch(default)", || scenarios::chain_watch(TestbedConfig::default_ms()), 0xbd6ed97daf3bdf7e),
    ("chain_watch(alpha 2, k 2)", || {
        let mut cfg = TestbedConfig::default_ms();
        cfg.pointer_alpha = 2;
        cfg.pointer_k = 2;
        scenarios::chain_watch(cfg)
    }, 0xaa05652c58a3ad52),
    ("one_flow_chain", scenarios::one_flow_chain, 0x47800a95e7389ca4),
    ("red_lights", scenarios::red_lights, 0x56ed512b1ce1c612),
    ("traffic_cascade(overlapping)", || scenarios::traffic_cascade(true), 0xc01f545e089d153a),
    ("traffic_cascade(apart)", || scenarios::traffic_cascade(false), 0xf960ce3a16e6157a),
    // tests/end_to_end_contention.rs
    ("contention(1, HIGH, 50)", || contention(1, Priority::HIGH, 50, QueueConfig::default_priority(), DEFAULT_SEED, EmbedMode::Commodity), 0xbaae3ae6ada6d5e6),
    ("contention(4, HIGH, 50)", || contention(4, Priority::HIGH, 50, QueueConfig::default_priority(), DEFAULT_SEED, EmbedMode::Commodity), 0xd83b98d2d77d7961),
    ("contention(8, HIGH, 50)", || contention(8, Priority::HIGH, 50, QueueConfig::default_priority(), DEFAULT_SEED, EmbedMode::Commodity), 0xb55490b71b9ad146),
    ("contention(16, HIGH, 50)", || contention(16, Priority::HIGH, 50, QueueConfig::default_priority(), DEFAULT_SEED, EmbedMode::Commodity), 0x77269c1c4efb9cfe),
    ("contention(8, LOW, 50, fifo)", || contention(8, Priority::LOW, 50, QueueConfig::default_fifo(), DEFAULT_SEED, EmbedMode::Commodity), 0x590eba9b6af58900),
    // crates/experiments/src/fig7.rs
    ("contention(1, HIGH, 60, seed 101)", || contention(1, Priority::HIGH, 60, QueueConfig::default_priority(), 101, EmbedMode::Commodity), 0x91e86f1c4c34e80d),
    ("contention(2, HIGH, 60, seed 102)", || contention(2, Priority::HIGH, 60, QueueConfig::default_priority(), 102, EmbedMode::Commodity), 0xfbd0547faccc8192),
    ("contention(4, HIGH, 60, seed 104)", || contention(4, Priority::HIGH, 60, QueueConfig::default_priority(), 104, EmbedMode::Commodity), 0x7a31b96c24066f95),
    ("contention(8, HIGH, 60, seed 108)", || contention(8, Priority::HIGH, 60, QueueConfig::default_priority(), 108, EmbedMode::Commodity), 0x74b5cc0cab2e32ad),
    ("contention(16, HIGH, 60, seed 116)", || contention(16, Priority::HIGH, 60, QueueConfig::default_priority(), 116, EmbedMode::Commodity), 0x678b0be3c1497040),
    ("contention(8, LOW, 60, fifo, seed 77)", || contention(8, Priority::LOW, 60, QueueConfig::default_fifo(), 77, EmbedMode::Commodity), 0xe66be6a1108cdd7f),
    // tests/asynchrony_robustness.rs (without its clock offsets)
    ("contention(3, HIGH, 40, seed 1)", || contention(3, Priority::HIGH, 40, QueueConfig::default_priority(), 1, EmbedMode::Commodity), 0xb1997be97fcb81f8),
    ("contention(3, HIGH, 40, seed 9)", || contention(3, Priority::HIGH, 40, QueueConfig::default_priority(), 9, EmbedMode::Commodity), 0xb1997be97fcb81f8),
    // tests/int_mode_parity.rs
    ("contention(4, HIGH, 40)", || contention(4, Priority::HIGH, 40, QueueConfig::default_priority(), DEFAULT_SEED, EmbedMode::Commodity), 0xbed4c3e33d49701f),
    ("contention(4, HIGH, 40, INT)", || contention(4, Priority::HIGH, 40, QueueConfig::default_priority(), DEFAULT_SEED, EmbedMode::Int), 0x268042fdc2e023fa),
    // The parent's copy read 0x77a3debd16b953d5 or this value from run to
    // run: two flows into one host triggered in the same window, logged in
    // hash order. The trigger engine now logs a window in flow order.
    ("background_monitoring", scenarios::background_monitoring, 0x0a3ae61384db0583),
];

#[test]
fn every_scenario_builds_its_pinned_state_and_its_victim_triggers() {
    let mut moved = Vec::new();
    for (name, build, want) in TABLE {
        let Scenario { tb, planted } = build().run();
        let (text, _) = render(&tb);
        let got = fnv1a(&text);
        if got != want {
            moved.push(format!("{name}: {got:#018x}, pinned {want:#018x}"));
        }
        if let Some((victim, dst)) = planted.victim {
            let trigger = tb.hosts[&dst].borrow().first_trigger_for(victim).copied();
            assert!(
                trigger.is_some_and(|t| t.at <= planted.horizon),
                "{name}: the planted victim raised no trigger by {}",
                planted.horizon
            );
        }
    }
    assert!(
        moved.is_empty(),
        "scenario state moved:\n{}",
        moved.join("\n")
    );
}
