//! The retention subsystem's contract:
//!
//! (a) **GC stays delta-expressible.** Any interleaving of simulation
//!     advance, retention sweep (`switchpointer::retention::sweep` — store
//!     eviction + archived-pointer retirement, per directory shard) and
//!     `Snapshot::apply_delta` yields a snapshot equal (full frozen-state
//!     equality) to a fresh `Snapshot::capture` of the truncated live
//!     state at the same instant — at 1/2/4/8 directory shards.
//! (b) **The budget is a bound.** With no pins, a budgeted sweep leaves at
//!     most `shard_record_budget` records resident per directory shard.
//! (c) **Retained epochs keep their answers.** After a sweep, every
//!     filter-class read and pointer union over epochs at or above the
//!     applied floor — and every pointer-presence diagnosis over a
//!     retained window — is identical to an unswept twin deployment
//!     driven by the same deterministic schedule.
//! (d) **Pins floor the sweep.** A pinned shard never collects at or above
//!     its pin, even when that keeps it over budget (reported, not
//!     violated).
//!
//! Plus the satellite fix: `SnapshotDelta::savings()` over an all-GC'd
//! (empty) delta is 0.0 — the direct unit test lives with the type in
//! `queryplane::snapshot`; the integration-level check here drives a real
//! all-evicted deployment through the plane.

use proptest::prelude::*;
use std::collections::BTreeMap;
use suite::netsim::prelude::*;

use suite::digest::fnv1a;
use suite::queryplane::{HostPatchKind, QueryPlaneConfig, Snapshot};
use suite::streamplane::{StandingEval, StandingQuery, StreamConfig, StreamPlane};
use suite::switchpointer::query::QueryRequest;
use suite::switchpointer::retention::{self, RetentionPolicy};
use suite::switchpointer::scenarios::{self, Scenario};
use suite::switchpointer::testbed::TestbedConfig;
use suite::telemetry::EpochRange;

/// The chain watch's deployment with a shallow 2×2 pointer hierarchy, so
/// top-level sets archive every 2 epochs and retirement has something to
/// reclaim inside short runs.
fn shallow_cfg() -> TestbedConfig {
    let mut cfg = TestbedConfig::default_ms();
    cfg.pointer_alpha = 2;
    cfg.pointer_k = 2;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// (a) + (b): arbitrary advance / sweep / delta interleavings, with
    /// sweeps of varying horizon and budget, leave `apply_delta` equal to
    /// a from-scratch capture of the truncated state — at every directory
    /// shard count the partition can take.
    #[test]
    fn delta_with_gc_equals_fresh_capture_of_truncated_state(
        steps in prop::collection::vec(
            (1u64..4, any::<bool>(), prop::option::of((0u64..12, 0usize..4))),
            1..8,
        ),
        dir_idx in 0usize..4,
    ) {
        let dir_shards = [1usize, 2, 4, 8][dir_idx];
        let mut tb = scenarios::chain_watch(shallow_cfg()).tb;
        let analyzer = tb.analyzer();
        let mut snap = Snapshot::capture_with(&analyzer, 8, dir_shards);
        let mut t_ms = 0u64;
        let mut swept = false;
        for (advance_ms, refresh_now, sweep_cfg) in steps {
            t_ms += advance_ms;
            tb.sim.run_until(SimTime::from_ms(t_ms));
            if let Some((keep_epochs, budget_idx)) = sweep_cfg {
                let budget = [usize::MAX, 24, 6, 0][budget_idx];
                let report = retention::sweep(
                    &analyzer,
                    RetentionPolicy { keep_epochs, shard_record_budget: budget },
                    dir_shards,
                    &[],
                );
                swept |= report.reclaimed_anything();
                // (b) With no pins the budget is a hard per-shard bound.
                prop_assert!(
                    report.over_budget_shards.is_empty(),
                    "unpinned sweeps can always meet the budget"
                );
                if budget != usize::MAX {
                    for (s, &resident) in report.resident_per_shard.iter().enumerate() {
                        prop_assert!(
                            resident <= budget,
                            "shard {s} resident {resident} > budget {budget}"
                        );
                    }
                }
            }
            if refresh_now {
                snap.apply_delta(&analyzer);
            }
        }
        // Wherever the interleaving left off, one final delta must land
        // the layered snapshot exactly on a freeze of the truncated state.
        snap.apply_delta(&analyzer);
        let fresh = Snapshot::capture_with(&analyzer, 8, dir_shards);
        prop_assert!(
            snap == fresh,
            "GC'd delta-applied snapshot diverged from fresh capture at t={}ms \
             (dir_shards={}, swept={})",
            t_ms, dir_shards, swept
        );
        // And a delta over an unchanged (possibly truncated) deployment is
        // empty.
        let idle = snap.apply_delta(&analyzer);
        prop_assert!(idle.is_empty());
    }
}

/// (c): a swept deployment answers identically to an unswept twin over
/// every epoch at or above the applied floor — store filter reads, pointer
/// unions, and a full pointer-presence diagnosis.
#[test]
fn retained_epochs_answer_identically_to_an_unswept_twin() {
    let Scenario {
        tb: mut swept_tb,
        planted,
    } = scenarios::chain_watch(shallow_cfg());
    let flow = planted.background[0];
    let mut twin_tb = scenarios::chain_watch(shallow_cfg()).tb;
    swept_tb.sim.run_until(SimTime::from_ms(20));
    twin_tb.sim.run_until(SimTime::from_ms(20));
    let swept = swept_tb.analyzer();
    let twin = twin_tb.analyzer();

    let report = retention::sweep(&swept, RetentionPolicy::horizon(8), 4, &[]);
    assert!(
        report.records_evicted > 0,
        "the finished D->A transfer must be reclaimable"
    );
    assert!(
        report.archived_retired > 0,
        "a 2-epoch top span must leave retirable archives behind the floor"
    );
    let floor = report.floor_per_shard.iter().copied().min().unwrap();
    assert_eq!(floor, report.policy_floor, "no pins, no budget pressure");
    let horizon = report.newest_epoch;
    assert!(floor > 0 && horizon > floor);

    let retained = EpochRange {
        lo: floor,
        hi: horizon,
    };
    // Store-level filter reads over the retained window are identical.
    for host in swept.all_hosts() {
        for sw in swept.all_switches() {
            let a: Vec<_> = swept_tb.hosts[&host]
                .borrow()
                .store
                .flows_matching(sw, retained)
                .into_iter()
                .cloned()
                .collect();
            let b: Vec<_> = twin_tb.hosts[&host]
                .borrow()
                .store
                .flows_matching(sw, retained)
                .into_iter()
                .cloned()
                .collect();
            assert_eq!(a, b, "filter reads diverged at host {host} switch {sw}");
        }
    }
    // Pointer unions over retained epochs are identical bit sets, while
    // the swept archive actually shrank.
    let mut retired_somewhere = false;
    for sw in swept.all_switches() {
        let a = swept_tb.switches[&sw].borrow();
        let b = twin_tb.switches[&sw].borrow();
        assert_eq!(
            a.pointers.pointer_union(retained.lo, retained.hi),
            b.pointers.pointer_union(retained.lo, retained.hi),
            "pointer union diverged at {sw}"
        );
        retired_somewhere |= a.pointers.archive_retired() > 0;
        assert!(a.pointers.archive_logical_len() == b.pointers.archive().len());
    }
    assert!(retired_somewhere);
    // Trigger logs trim with the records: something below the floor was
    // reclaimed (the finished transfer's completion trigger), and every
    // swept log is a suffix of its twin — trimming only ever drops a
    // time-ordered prefix.
    assert!(
        report.triggers_trimmed > 0,
        "the transfer-completion trigger predates the floor"
    );
    for host in swept.all_hosts() {
        let a = swept_tb.hosts[&host].borrow().triggers().to_vec();
        let b = twin_tb.hosts[&host].borrow().triggers().to_vec();
        assert!(
            b.ends_with(&a),
            "swept trigger log must be a suffix of the twin's at {host}"
        );
    }
    // A presence diagnosis over the retained window renders identically
    // end-to-end (pointer probes only touch live/retained state).
    let probe = QueryRequest::SilentDrop {
        flow,
        src: swept_tb.node("A"),
        dst: swept_tb.node("F"),
        range: retained,
    };
    assert_eq!(
        format!("{:?}", swept.execute(&probe)),
        format!("{:?}", twin.execute(&probe)),
        "retained-window presence diagnosis must not see the sweep"
    );
}

/// (d): pins floor the sweep per shard — a pinned shard keeps everything
/// at or above its pin even under a budget that would otherwise evict, and
/// the shard is reported over budget rather than violated.
#[test]
fn pins_floor_the_sweep_and_win_over_the_budget() {
    let mut tb = scenarios::chain_watch(shallow_cfg()).tb;
    tb.sim.run_until(SimTime::from_ms(20));
    let analyzer = tb.analyzer();
    let before: usize = analyzer
        .all_hosts()
        .iter()
        .map(|h| tb.hosts[h].borrow().store.len())
        .sum();
    assert!(before > 0);

    // One shard, pinned at epoch 0, budget 0: nothing may be collected.
    let report = retention::sweep(&analyzer, RetentionPolicy::budgeted(2, 0), 1, &[Some(0)]);
    assert_eq!(report.floor_per_shard, vec![0]);
    assert_eq!(report.records_evicted, 0, "pin at 0 forbids all eviction");
    assert_eq!(report.archived_retired, 0);
    assert_eq!(
        report.over_budget_shards,
        vec![0],
        "best effort is reported"
    );
    let after: usize = analyzer
        .all_hosts()
        .iter()
        .map(|h| tb.hosts[h].borrow().store.len())
        .sum();
    assert_eq!(before, after);

    // Unpinned, the same policy reclaims down to the budget.
    let report = retention::sweep(&analyzer, RetentionPolicy::budgeted(2, 0), 1, &[]);
    assert!(report.records_evicted > 0);
    assert_eq!(report.resident_per_shard, vec![0]);
}

/// The satellite fix, driven end-to-end: a sweep that reclaims every flow
/// record leaves the snapshot's record side at zero without `savings()`
/// ever going NaN. (The live pointer hierarchies keep their slot arrays,
/// so a real deployment's `full_slots` never reaches zero — the exact
/// 0/0 guard is pinned by the direct unit test in `queryplane::snapshot`.)
#[test]
fn savings_is_zero_not_nan_after_an_all_reclaiming_sweep() {
    let mut tb = scenarios::chain_watch(shallow_cfg()).tb;
    tb.sim.run_until(SimTime::from_ms(6));
    let analyzer = tb.analyzer();
    let mut plane = suite::queryplane::QueryPlane::from_analyzer(
        &analyzer,
        suite::queryplane::QueryPlaneConfig {
            retention: Some(RetentionPolicy::budgeted(0, 0)),
            ..Default::default()
        },
    );
    // Let every flow finish so the budget-0 sweep can reclaim everything.
    tb.sim.run_until(SimTime::from_ms(36));
    let report = plane
        .sweep_retention(&analyzer, &[])
        .expect("retention configured");
    assert_eq!(report.resident_total(), 0, "budget 0 reclaims every record");
    let delta = plane.refresh_delta(&analyzer);
    assert_eq!(delta.full_records, 0);
    assert_eq!(plane.snapshot().total_records(), 0);
    // The idle delta over the emptied deployment never divides 0/0.
    let idle = plane.refresh_delta(&analyzer);
    assert!(idle.is_empty());
    assert!(!idle.savings().is_nan());
    // A record-only ratio (what an all-GC'd host plane would report) is
    // the guarded case: zero on both sides ⇒ 0.0, not NaN.
    let record_side = suite::queryplane::SnapshotDelta {
        cloned_records: idle.cloned_records,
        full_records: idle.full_records,
        ..Default::default()
    };
    assert_eq!(record_side.savings(), 0.0);
}

/// An eviction is an ordinary shard write: the journaled refresh after a
/// sweep ships each evicting host as a `Shards` patch naming exactly the
/// record shards that lost records, and no shard of a host that lost
/// none.
#[test]
fn a_sweep_ships_exactly_the_shards_that_lost_records() {
    let mut tb = scenarios::chain_watch(shallow_cfg()).tb;
    let analyzer = tb.analyzer();
    tb.sim.run_until(SimTime::from_ms(20));
    let mut snap = Snapshot::capture(&analyzer, 8);
    let shard_lens = |h: NodeId| -> Vec<usize> {
        let comp = analyzer.host(h).expect("listed host").borrow();
        comp.store.shards().iter().map(|s| s.len()).collect()
    };
    let before: BTreeMap<NodeId, Vec<usize>> = analyzer
        .all_hosts()
        .into_iter()
        .map(|h| (h, shard_lens(h)))
        .collect();
    let report = retention::sweep(&analyzer, RetentionPolicy::horizon(4), 1, &[]);
    assert!(report.records_evicted > 0, "the sweep must evict records");

    let (_, record) = snap.apply_delta_journaled(&analyzer);
    let mut shipped_any = false;
    for (h, lens_before) in &before {
        let lost: Vec<u64> = (0..lens_before.len())
            .filter(|&i| shard_lens(*h)[i] < lens_before[i])
            .map(|i| i as u64)
            .collect();
        let shipped: Vec<u64> = record
            .hosts
            .iter()
            .filter(|p| p.host == *h)
            .flat_map(|p| match &p.kind {
                HostPatchKind::Shards { dirty, .. } => dirty.iter().map(|(i, _)| *i).collect(),
                HostPatchKind::TriggersOnly { .. } => Vec::new(),
            })
            .collect();
        assert_eq!(shipped, lost, "host {h:?}");
        shipped_any |= !shipped.is_empty();
    }
    assert!(shipped_any);
    assert!(snap == Snapshot::capture(&analyzer, 8));
}

/// Windows of the churn-storm runs, and their length.
const CHURN_WINDOWS: u64 = 9;
const CHURN_WINDOW_MS: u64 = 5;

/// The churn storm (`scenarios::churn_storm`) with a 6 ms wave to a
/// fresh destination every 5 ms: each wave's record goes stale shortly
/// after it ends.
fn churn_testbed() -> Scenario {
    scenarios::churn_storm(&[
        ("h1_0_1", "h3_0_0", 0, 6),
        ("h1_1_0", "h3_0_1", 5, 6),
        ("h1_1_1", "h3_1_0", 10, 6),
        ("h1_0_1", "h2_1_0", 15, 6),
        ("h1_1_0", "h2_1_1", 20, 6),
        ("h1_1_1", "h0_1_1", 25, 6),
    ])
}

/// A stream plane over `analyzer` at `dir_shards` with `policy`.
fn churn_plane(
    analyzer: &suite::switchpointer::Analyzer,
    dir_shards: usize,
    policy: RetentionPolicy,
) -> StreamPlane {
    StreamPlane::new(
        analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 4,
                shards: 8,
                directory_shards: dir_shards,
                retention: Some(policy),
            },
        },
    )
}

/// Panics unless every shard of `sweep` is within `budget` or reported
/// over it (a pin held it there).
fn assert_budget_bounds(sweep: &retention::SweepReport, budget: usize, ctx: &str) {
    for (s, &r) in sweep.resident_per_shard.iter().enumerate() {
        assert!(
            r <= budget || sweep.over_budget_shards.contains(&s),
            "{ctx}: shard {s} resident {r} > budget {budget} and not reported over budget"
        );
    }
}

/// The horizon-driven churn run at `dir_shards` under a 12-epoch horizon
/// and a per-shard `budget`, beside an unswept twin driven by the same
/// schedule: a pinned contention watch, four sliding top-k subscriptions
/// and a presence probe over the previous window's trailing epochs in
/// every window. Returns resident and reclaimed records per window.
fn churn_horizon_run(dir_shards: usize, budget: usize) -> (Vec<u64>, Vec<u64>) {
    let Scenario { mut tb, planted } = churn_testbed();
    let (victim, da) = planted.victim();
    let mut twin_tb = churn_testbed().tb;
    let analyzer = tb.analyzer();
    let twin = twin_tb.analyzer();
    let mut sp = churn_plane(&analyzer, dir_shards, RetentionPolicy::budgeted(12, budget));
    let watch = sp.subscribe(StandingQuery::ContentionWatch {
        victim,
        victim_dst: da,
        trigger_window: tb.cfg.trigger.window,
    });
    for name in ["edge0_0", "agg0_0", "core0_0", "edge2_0"] {
        sp.subscribe(StandingQuery::TopKSliding {
            switch: tb.node(name),
            k: 10,
            epochs_back: 8,
        });
    }

    let (mut resident, mut reclaimed) = (Vec::new(), Vec::new());
    let mut watch_renders: Vec<String> = Vec::new();
    let mut watch_open = true;
    let mut prev_horizon = 0u64;
    for w in 1..=CHURN_WINDOWS {
        tb.sim.run_until(SimTime::from_ms(w * CHURN_WINDOW_MS));
        twin_tb.sim.run_until(SimTime::from_ms(w * CHURN_WINDOW_MS));
        // Its pointer reads never touch reclaimable state, so it renders
        // as on the unswept twin.
        let probe = QueryRequest::SilentDrop {
            flow: victim,
            src: tb.node("h0_0_0"),
            dst: da,
            range: EpochRange {
                lo: prev_horizon.saturating_sub(4),
                hi: prev_horizon,
            },
        };
        let ticket = sp.submit(probe);
        let report = sp.run_window(&analyzer);
        let sweep = report.sweep.as_ref().expect("retention configured");
        reclaimed.push(sweep.records_evicted as u64);
        resident.push(sweep.resident_total() as u64);
        assert_eq!(
            sp.plane().snapshot().total_records(),
            sweep.resident_total(),
            "snapshot resident must equal post-sweep live resident"
        );
        // Steady state: the budget bounds every shard a pin does not
        // hold over it.
        if w >= 4 {
            assert_budget_bounds(sweep, budget, &format!("window {w}, {dir_shards} shards"));
        }
        let (_, probe_outcome) = report
            .one_shot
            .iter()
            .find(|(t, _)| *t == ticket)
            .expect("one-shot resolves in its window");
        assert_eq!(
            format!("{:?}", probe_outcome.response),
            format!("{:?}", twin.execute(&probe)),
            "retained-window presence probe diverged from the unswept twin"
        );
        for (id, eval) in &report.standing {
            if let StandingEval::Verdict {
                request, response, ..
            } = eval
            {
                let render = format!("{response:?}");
                assert_eq!(
                    render,
                    format!("{:?}", analyzer.execute(request)),
                    "standing verdict diverged from the live analyzer"
                );
                // The pinned watch's window was never collected.
                if *id == watch {
                    assert_eq!(
                        render,
                        format!("{:?}", twin.execute(request)),
                        "pinned contention verdict diverged from the unswept twin"
                    );
                    watch_renders.push(render);
                }
            }
        }
        // Once the incident has re-derived across three windows, the
        // watch closes and its pin lifts.
        if watch_open && watch_renders.len() >= 3 {
            assert!(sp.unsubscribe(watch));
            watch_open = false;
        }
        prev_horizon = report.horizon;
    }
    assert!(
        watch_renders.len() >= 3 && watch_renders.windows(2).all(|w| w[0] == w[1]),
        "the contention watch must resolve and re-derive stably across sweeps"
    );
    (resident, reclaimed)
}

/// The budget-driven churn run: no epoch horizon, so only a shard over
/// its record budget evicts, pins capping it where the sliding
/// subscription still reaches. Returns resident records per window and
/// the number of reclaiming sweeps.
fn churn_budget_run(dir_shards: usize, budget: usize) -> (Vec<u64>, usize) {
    let mut tb = churn_testbed().tb;
    let analyzer = tb.analyzer();
    let mut sp = churn_plane(
        &analyzer,
        dir_shards,
        RetentionPolicy::budgeted(u64::MAX, budget),
    );
    sp.subscribe(StandingQuery::TopKSliding {
        switch: tb.node("edge2_0"),
        k: 10,
        epochs_back: 6,
    });
    let (mut resident, mut reclaiming) = (Vec::new(), 0);
    for w in 1..=CHURN_WINDOWS {
        tb.sim.run_until(SimTime::from_ms(w * CHURN_WINDOW_MS));
        let report = sp.run_window(&analyzer);
        let sweep = report.sweep.as_ref().expect("retention configured");
        reclaiming += usize::from(sweep.records_evicted > 0);
        resident.push(sweep.resident_total() as u64);
        assert_budget_bounds(sweep, budget, &format!("budget-only window {w}"));
        for (id, eval) in &report.standing {
            if let StandingEval::Verdict {
                request, response, ..
            } = eval
            {
                assert_eq!(
                    format!("{response:?}"),
                    format!("{:?}", analyzer.execute(request)),
                    "budget-only verdict diverged from the live analyzer ({id})"
                );
            }
        }
    }
    (resident, reclaiming)
}

/// (b) and (c) through the stream plane, over the churn storm at 1/2/4/8
/// directory shards with a budget of 10 records per shard: once churn
/// reaches steady state the budget bounds every shard a pin does not
/// hold over it, at least 3 sweeps reclaim, and the pinned contention
/// watch and the presence probes answer as on the unswept twin. With no
/// horizon (budget 3, 4 shards) the budget alone evicts. The resident
/// and reclaimed series are pinned by digest, rendered one `name x y`
/// line per point.
#[test]
fn churn_storm_stays_within_budget_and_is_pinned() {
    const BUDGET: usize = 10;
    let mut text = String::new();
    let mut push = |name: &str, ys: &[u64]| {
        for (w, y) in ys.iter().enumerate() {
            text += &format!("{name} {:?} {:?}\n", (w + 1) as f64, *y as f64);
        }
    };
    for n in [1usize, 2, 4, 8] {
        let (resident, reclaimed) = churn_horizon_run(n, BUDGET);
        let sweeps = reclaimed.iter().filter(|&&r| r > 0).count();
        assert!(
            sweeps >= 3,
            "churn must drive >= 3 reclaiming sweeps at {n} shards (got {sweeps})"
        );
        push(&format!("resident_{n}shards"), &resident);
        push(&format!("reclaimed_{n}shards"), &reclaimed);
    }
    let (resident, reclaiming) = churn_budget_run(4, 3);
    assert!(
        reclaiming >= 1,
        "the budget alone must force eviction once churn accumulates"
    );
    push("resident_budget_only_4shards", &resident);
    assert_eq!(
        fnv1a(&text),
        CHURN_STORM_DIGEST,
        "the churn-storm trajectory moved:\n{text}"
    );
}

/// `fnv1a` of [`churn_storm_stays_within_budget_and_is_pinned`]'s
/// rendering.
const CHURN_STORM_DIGEST: u64 = 866425780410232375;
