//! The stream plane's contract:
//!
//! (a) **Delta ≡ capture.** Any interleaving of simulation advance and
//!     `Snapshot::apply_delta` yields a snapshot equal (full frozen-state
//!     equality) to a fresh `Snapshot::capture` at the same instant.
//! (b) **Incremental refresh does asymptotically less work:** on the
//!     fat-tree storm deployment a small epoch advance clones ≥ 5× fewer
//!     flow records than a full recapture, while staying bit-identical.
//! (c) **Verdict invariance.** Standing-query incident streams are
//!     identical at 1/2/8 workers and across arrival-window boundaries
//!     that admit the same query set — and every verdict matches the
//!     sequential analyzer re-run on the live state.

use proptest::prelude::*;
use suite::digest::fnv1a;
use suite::netsim::prelude::*;
use suite::queryplane::{QueryPlaneConfig, Snapshot};
use suite::streamplane::{IncidentKind, StandingEval, StandingQuery, StreamConfig, StreamPlane};
use suite::switchpointer::query::QueryRequest;
use suite::switchpointer::retention::RetentionPolicy;
use suite::switchpointer::scenarios::{self, Scenario};
use suite::switchpointer::testbed::{Testbed, TestbedConfig};
use suite::telemetry::EpochRange;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn delta_applied_snapshot_equals_fresh_capture(
        steps in prop::collection::vec((1u64..4, any::<bool>()), 1..8),
    ) {
        let mut tb = scenarios::chain_watch(TestbedConfig::default_ms()).tb;
        let analyzer = tb.analyzer();
        let mut snap = Snapshot::capture(&analyzer, 8);
        let mut t_ms = 0u64;
        for (advance_ms, refresh_now) in steps {
            t_ms += advance_ms;
            tb.sim.run_until(SimTime::from_ms(t_ms));
            if refresh_now {
                let delta = snap.apply_delta(&analyzer);
                prop_assert_eq!(delta.epoch_horizon, snap.epoch_horizon());
            }
        }
        // Wherever the interleaving left off, one final delta must land the
        // layered snapshot exactly on a from-scratch freeze.
        snap.apply_delta(&analyzer);
        let fresh = Snapshot::capture(&analyzer, 8);
        prop_assert!(
            snap == fresh,
            "delta-applied snapshot diverged from fresh capture at t={}ms",
            t_ms
        );
        // And a delta over an unchanged deployment is empty.
        let idle = snap.apply_delta(&analyzer);
        prop_assert!(idle.is_empty());
    }

    /// The eviction interleaving: `evict_older_than` mixed with advances
    /// and incremental refreshes must still pin `Snapshot::apply_delta`
    /// == `Snapshot::capture`, and a refresh after an eviction must
    /// report the evicting hosts dirty.
    #[test]
    fn delta_equals_capture_under_eviction_interleavings(
        steps in prop::collection::vec(
            (1u64..4, any::<bool>(), prop::option::of(1u64..12)),
            1..8,
        ),
    ) {
        let mut tb = scenarios::chain_watch(TestbedConfig::default_ms()).tb;
        let analyzer = tb.analyzer();
        let mut snap = Snapshot::capture(&analyzer, 8);
        let mut t_ms = 0u64;
        let mut evicted = 0usize;
        let mut evicted_hosts = Vec::new();
        for (advance_ms, refresh_now, evict_back) in steps {
            t_ms += advance_ms;
            tb.sim.run_until(SimTime::from_ms(t_ms));
            if let Some(back) = evict_back {
                // Retention sweep: every host drops records whose newest
                // epoch predates the horizon (epochs ≈ ms on this fixture).
                let horizon = t_ms.saturating_sub(back.min(t_ms));
                for host in analyzer.all_hosts() {
                    let n = tb.hosts[&host]
                        .borrow_mut()
                        .store
                        .evict_older_than(horizon);
                    if n > 0 {
                        evicted += n;
                        evicted_hosts.push(host);
                    }
                }
            }
            if refresh_now {
                let delta = snap.apply_delta(&analyzer);
                for h in evicted_hosts.drain(..) {
                    prop_assert!(
                        delta.dirty_hosts.contains(&h),
                        "a host that evicted records must be dirty"
                    );
                }
            }
        }
        snap.apply_delta(&analyzer);
        let fresh = Snapshot::capture(&analyzer, 8);
        prop_assert!(
            snap == fresh,
            "delta-applied snapshot diverged from fresh capture after evictions \
             at t={}ms ({} records evicted)",
            t_ms, evicted
        );
        let idle = snap.apply_delta(&analyzer);
        prop_assert!(idle.is_empty());
    }
}

/// A capture takes the live record shards by refcount: two captures with
/// no advance between them share every record shard.
#[test]
fn back_to_back_captures_share_every_record_shard() {
    let mut tb = scenarios::chain_watch(TestbedConfig::default_ms()).tb;
    let analyzer = tb.analyzer();
    tb.sim.run_until(SimTime::from_ms(9));
    let first = Snapshot::capture(&analyzer, 8);
    let second = Snapshot::capture(&analyzer, 8);
    assert!(first.total_records() > 0);
    let apart = second.unshared_with(&first);
    assert_eq!((apart.shards, apart.records), (0, 0));
}

/// The fat-tree storm fixture of the acceptance criterion: many flows
/// populate many host stores, then traffic narrows to a single
/// destination, so a small epoch advance touches a small fraction of the
/// frozen records.
#[test]
fn incremental_refresh_beats_full_recapture_by_5x() {
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    // Storm phase: 12 flows to 12 distinct destinations across all pods.
    let pairs = [
        ("h0_0_0", "h2_0_0"),
        ("h0_0_1", "h2_0_1"),
        ("h0_1_0", "h2_1_0"),
        ("h0_1_1", "h2_1_1"),
        ("h1_0_0", "h3_0_0"),
        ("h1_0_1", "h3_0_1"),
        ("h1_1_0", "h3_1_0"),
        ("h1_1_1", "h3_1_1"),
        ("h2_0_0", "h0_0_0"),
        ("h2_1_0", "h0_1_0"),
        ("h3_0_0", "h1_0_0"),
        ("h3_1_0", "h1_1_0"),
    ];
    for (s, d) in pairs {
        let (s, d) = (tb.node(s), tb.node(d));
        tb.sim.add_udp_flow(UdpFlowSpec {
            src: s,
            dst: d,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(20),
            rate_bps: 100_000_000,
            payload_bytes: 1458,
        });
    }
    tb.sim.run_until(SimTime::from_ms(24));
    let analyzer = tb.analyzer();
    let mut snap = Snapshot::capture(&analyzer, 8);
    let full_records_at_capture = snap.total_records() as u64;
    assert!(
        full_records_at_capture >= 12,
        "storm must populate many hosts"
    );

    // Quiet phase: a small epoch advance with traffic to ONE destination.
    let (s, d) = (tb.node("h1_0_1"), tb.node("h3_0_1"));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: s,
        dst: d,
        priority: Priority::LOW,
        start: SimTime::from_ms(24),
        duration: SimTime::from_ms(2),
        rate_bps: 50_000_000,
        payload_bytes: 1458,
    });
    tb.sim.run_until(SimTime::from_ms(26));

    let delta = snap.apply_delta(&analyzer);
    // Correctness first: bit-identical to a from-scratch freeze.
    let fresh = Snapshot::capture(&analyzer, 8);
    assert!(snap == fresh, "delta-applied snapshot != fresh capture");
    // The acceptance bar: ≥ 5× fewer cloned records than a full recapture.
    assert!(
        delta.cloned_records > 0,
        "the quiet flow must dirty its host"
    );
    assert!(
        delta.full_records >= 5 * delta.cloned_records,
        "incremental refresh must clone ≥5× fewer records: cloned {} vs full {}",
        delta.cloned_records,
        delta.full_records
    );
    // Pointer side: only the quiet flow's path switches were patched.
    assert!(delta.cloned_slots < delta.full_slots);
    assert!(
        delta.dirty_switches.len() < analyzer.all_switches().len(),
        "a single path must not dirty the whole fabric"
    );
}

/// Standing queries for the chain fixture: two sliding top-k subscriptions,
/// one fixed-range top-k and a sliding load-imbalance.
fn standing_set(tb: &Testbed) -> Vec<StandingQuery> {
    vec![
        StandingQuery::TopKSliding {
            switch: tb.node("S1"),
            k: 5,
            epochs_back: 6,
        },
        StandingQuery::TopKSliding {
            switch: tb.node("S2"),
            k: 5,
            epochs_back: 6,
        },
        StandingQuery::Fixed(QueryRequest::TopK {
            switch: tb.node("S3"),
            k: 5,
            range: EpochRange { lo: 0, hi: 3 },
        }),
        StandingQuery::LoadImbalanceSliding {
            switch: tb.node("S2"),
            epochs_back: 8,
        },
    ]
}

/// Drives `windows` evaluation windows of `window_ms` each over a fresh
/// chain fixture and returns (incident renders, per-window standing
/// verdict renders).
fn drive(workers: usize, window_ms: u64, windows: u64) -> (Vec<String>, Vec<Vec<String>>) {
    let mut tb = scenarios::chain_watch(TestbedConfig::default_ms()).tb;
    let analyzer = tb.analyzer();
    let mut sp = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers,
                shards: 8,
                directory_shards: 1,
                retention: None,
            },
        },
    );
    for q in standing_set(&tb) {
        sp.subscribe(q);
    }
    let mut verdicts = Vec::new();
    for w in 1..=windows {
        tb.sim.run_until(SimTime::from_ms(w * window_ms));
        let report = sp.run_window(&analyzer);
        verdicts.push(
            report
                .standing
                .iter()
                .map(|(id, e)| match e {
                    StandingEval::Pending => format!("{id}: pending"),
                    StandingEval::Verdict { response, .. } => format!("{id}: {response:?}"),
                })
                .collect::<Vec<String>>(),
        );
    }
    let incidents = sp
        .incidents()
        .iter()
        .map(|i| format!("{i:?}"))
        .collect::<Vec<String>>();
    (incidents, verdicts)
}

#[test]
fn incident_stream_is_worker_count_invariant() {
    let (base_incidents, base_verdicts) = drive(1, 5, 4);
    assert!(
        !base_incidents.is_empty(),
        "standing queries must produce at least baselines"
    );
    for workers in [2usize, 8] {
        let (incidents, verdicts) = drive(workers, 5, 4);
        assert_eq!(
            incidents, base_incidents,
            "incident stream diverged at {workers} workers"
        );
        assert_eq!(verdicts, base_verdicts);
    }
}

#[test]
fn window_boundaries_do_not_change_verdicts() {
    // Plane A admits four one-shots in ONE window; plane B splits the same
    // horizon into two admission windows of two. Verdicts and incident
    // streams must agree query-for-query.
    let run = |split: bool| {
        let mut tb = scenarios::chain_watch(TestbedConfig::default_ms()).tb;
        let analyzer = tb.analyzer();
        let mut sp = StreamPlane::new(&analyzer, StreamConfig::default());
        for q in standing_set(&tb) {
            sp.subscribe(q);
        }
        tb.sim.run_until(SimTime::from_ms(12));
        let one_shots = [
            QueryRequest::TopK {
                switch: tb.node("S1"),
                k: 3,
                range: EpochRange { lo: 2, hi: 9 },
            },
            QueryRequest::LoadImbalance {
                switch: tb.node("S2"),
                range: EpochRange { lo: 2, hi: 9 },
            },
            QueryRequest::TopK {
                switch: tb.node("S2"),
                k: 3,
                range: EpochRange { lo: 0, hi: 11 },
            },
            QueryRequest::TopK {
                switch: tb.node("S3"),
                k: 3,
                range: EpochRange { lo: 0, hi: 11 },
            },
        ];
        let mut outcomes: Vec<String> = Vec::new();
        if split {
            for half in one_shots.chunks(2) {
                for &req in half {
                    sp.submit(req);
                }
                // Same horizon: no simulation advance between the windows.
                let report = sp.run_window(&analyzer);
                outcomes.extend(
                    report
                        .one_shot
                        .iter()
                        .map(|(_, o)| format!("{:?}", o.response)),
                );
            }
        } else {
            for &req in &one_shots {
                sp.submit(req);
            }
            let report = sp.run_window(&analyzer);
            outcomes.extend(
                report
                    .one_shot
                    .iter()
                    .map(|(_, o)| format!("{:?}", o.response)),
            );
        }
        let incidents: Vec<String> = sp
            .incidents()
            .iter()
            .map(|i| {
                // Window indices legitimately differ between the two
                // admission schedules; verdict content must not.
                format!("{}/{:?}/{}/{}", i.sub, i.kind, i.summary, i.fingerprint)
            })
            .collect();
        (outcomes, incidents)
    };
    let (one_window_outcomes, one_window_incidents) = run(false);
    let (split_outcomes, split_incidents) = run(true);
    assert_eq!(one_window_outcomes, split_outcomes);
    assert_eq!(one_window_incidents, split_incidents);
    assert_eq!(one_window_outcomes.len(), 4);
}

#[test]
fn duplicate_requests_in_a_window_execute_once() {
    let mut tb = scenarios::chain_watch(TestbedConfig::default_ms()).tb;
    let analyzer = tb.analyzer();
    let mut sp = StreamPlane::new(&analyzer, StreamConfig::default());
    tb.sim.run_until(SimTime::from_ms(8));
    let req = QueryRequest::TopK {
        switch: tb.node("S1"),
        k: 5,
        range: EpochRange { lo: 0, hi: 7 },
    };
    // A standing query and two one-shots, all for the same request.
    sp.subscribe(StandingQuery::Fixed(req));
    sp.submit(req);
    sp.submit(req);
    let report = sp.run_window(&analyzer);
    assert_eq!(
        report.executed, 1,
        "identical requests within a window must collapse to one execution"
    );
    assert_eq!(report.one_shot.len(), 2);
    let expected = format!("{:?}", analyzer.execute(&req));
    for (_, o) in &report.one_shot {
        assert_eq!(format!("{:?}", o.response), expected);
    }
    match &report.standing[0].1 {
        StandingEval::Verdict { response, .. } => {
            assert_eq!(format!("{response:?}"), expected);
        }
        other => panic!("expected a verdict, got {other:?}"),
    }
}

#[test]
fn idle_repeat_windows_match_the_live_analyzer() {
    let mut tb = scenarios::chain_watch(TestbedConfig::default_ms()).tb;
    let analyzer = tb.analyzer();
    let mut sp = StreamPlane::new(&analyzer, StreamConfig::default());
    for q in standing_set(&tb) {
        sp.subscribe(q);
    }
    let mut saw_verdict = false;
    for w in 1..=5u64 {
        tb.sim.run_until(SimTime::from_ms(w * 4));
        let report = sp.run_window(&analyzer);
        // Evaluate the same window twice at the same horizon: the repeat
        // sees an empty delta and must re-derive the same verdicts.
        let repeat = sp.run_window(&analyzer);
        assert!(repeat.delta.is_empty());
        for (first, second) in report.standing.iter().zip(&repeat.standing) {
            if let (
                StandingEval::Verdict {
                    request, response, ..
                },
                StandingEval::Verdict {
                    response: repeat_response,
                    ..
                },
            ) = (&first.1, &second.1)
            {
                saw_verdict = true;
                let expected = format!("{:?}", analyzer.execute(request));
                assert_eq!(format!("{response:?}"), expected);
                assert_eq!(format!("{repeat_response:?}"), expected);
            }
        }
        // No duplicate-verdict transitions: change detection fires only on
        // actual changes.
        for inc in &repeat.incidents {
            assert_ne!(
                inc.kind,
                IncidentKind::Transition,
                "idle repeat cannot transition: {inc:?}"
            );
        }
    }
    assert!(saw_verdict);
    let stats = sp.metrics().snapshot();
    assert!(suite::streamplane::delta_savings(&stats) > 1.0);
}

/// The eviction regression: a verdict whose host reads touched a store
/// that later evicted records must not repeat the stale answer — the
/// refresh after the eviction lands on a fresh capture and the re-derived
/// verdict is bit-identical to the live analyzer's.
#[test]
fn post_eviction_cached_verdict_rederives_bit_identically() {
    for directory_shards in [1usize, 4] {
        let mut tb = scenarios::chain_watch(TestbedConfig::default_ms()).tb;
        let analyzer = tb.analyzer();
        let mut sp = StreamPlane::new(
            &analyzer,
            StreamConfig {
                plane: QueryPlaneConfig {
                    workers: 2,
                    shards: 8,
                    directory_shards,
                    retention: None,
                },
            },
        );
        tb.sim.run_until(SimTime::from_ms(14));
        // S1 sees the A→F flow (dst F) and the D→A transfer (dst A): the
        // verdict depends on both hosts' stores.
        let req = QueryRequest::TopK {
            switch: tb.node("S1"),
            k: 5,
            range: EpochRange { lo: 0, hi: 7 },
        };
        sp.subscribe(StandingQuery::Fixed(req));
        let first = sp.run_window(&analyzer);
        let baseline = match &first.standing[0].1 {
            StandingEval::Verdict { response, .. } => format!("{response:?}"),
            other => panic!("expected a verdict, got {other:?}"),
        };
        // Idle repeat: the same verdict again.
        let repeat = sp.run_window(&analyzer);
        match &repeat.standing[0].1 {
            StandingEval::Verdict { response, .. } => {
                assert_eq!(format!("{response:?}"), baseline)
            }
            other => panic!("expected a verdict, got {other:?}"),
        }

        // Retention sweep: drop every record whose newest epoch predates
        // 12. The D→A transfer finished early, so A's store evicts —
        // exactly a store the verdict's host reads touched (the
        // long A→F flow keeps F's store alive, so the verdict changes
        // rather than emptying).
        let mut evicted = 0;
        for host in analyzer.all_hosts() {
            evicted += tb.hosts[&host].borrow_mut().store.evict_older_than(12);
        }
        assert!(evicted > 0, "the sweep must evict at least one record");

        let after = sp.run_window(&analyzer);
        assert!(
            *sp.plane().snapshot() == Snapshot::capture_with(&analyzer, 8, directory_shards),
            "the refresh after the eviction must land on a fresh capture"
        );
        match &after.standing[0].1 {
            StandingEval::Verdict { request, response } => {
                let expected = format!("{:?}", analyzer.execute(request));
                assert_eq!(
                    format!("{response:?}"),
                    expected,
                    "post-eviction verdict must re-derive bit-identically"
                );
                assert_ne!(
                    format!("{response:?}"),
                    baseline,
                    "fixture must actually change the verdict (A's record evicted)"
                );
            }
            other => panic!("expected a verdict, got {other:?}"),
        }
    }
}

/// The PR-4 retention regression: a standing contention watch whose
/// trigger window *straddles* retention sweeps must re-derive its verdict
/// bit-identically after each sweep — the subscription's pin floors what
/// GC may collect on the shards its evaluation reaches, so the incident
/// never dangles even while churned-out flow records are reclaimed around
/// it.
#[test]
fn standing_watch_straddling_gc_sweeps_rederives_bit_identically() {
    for directory_shards in [1usize, 4] {
        // The churn storm (`scenarios::churn_storm`): the
        // deterministic victim/burst incident plus two early-ending churn
        // flows whose records are what the sweeps reclaim.
        let Scenario { mut tb, planted } =
            scenarios::churn_storm(&[("h1_1_0", "h2_1_1", 0, 9), ("h1_0_1", "h3_0_1", 0, 6)]);
        let (victim, da) = planted.victim();
        let analyzer = tb.analyzer();
        let mut sp = StreamPlane::new(
            &analyzer,
            StreamConfig {
                plane: QueryPlaneConfig {
                    workers: 2,
                    shards: 8,
                    directory_shards,
                    retention: Some(RetentionPolicy::horizon(24)),
                },
            },
        );
        let watch = sp.subscribe(StandingQuery::ContentionWatch {
            victim,
            victim_dst: da,
            trigger_window: tb.cfg.trigger.window,
        });

        let mut verdicts: Vec<(u64, String, QueryRequest)> = Vec::new();
        let mut reclaim_windows: Vec<u64> = Vec::new();
        for w in 1..=8u64 {
            tb.sim.run_until(SimTime::from_ms(w * 5));
            let report = sp.run_window(&analyzer);
            let sweep = report.sweep.as_ref().expect("retention configured");
            if sweep.records_evicted > 0 {
                reclaim_windows.push(report.window);
            }
            match &report.standing[0].1 {
                StandingEval::Pending => {}
                StandingEval::Verdict {
                    request, response, ..
                } => verdicts.push((report.window, format!("{response:?}"), *request)),
            }
        }

        // The watch resolved mid-run and sweeps reclaimed records both
        // before and after it — the straddle the regression is about.
        let first_verdict_w = verdicts.first().expect("the burst must trigger").0;
        assert!(
            !reclaim_windows.is_empty(),
            "churned-out records must be reclaimed ({directory_shards} shards)"
        );
        assert!(
            reclaim_windows.iter().any(|&w| w > first_verdict_w),
            "at least one sweep must land after the verdict (straddle): \
             verdict at {first_verdict_w}, reclaims at {reclaim_windows:?}"
        );
        assert!(
            sp.metrics()
                .snapshot()
                .counter("streamplane.records_reclaimed")
                > 0
        );

        // Across every sweep, the verdict re-derives bit-identically: the
        // pinned window's records were never collected.
        let baseline = &verdicts[0].1;
        for (w, render, _) in &verdicts {
            assert_eq!(
                render, baseline,
                "verdict diverged at window {w} ({directory_shards} shards)"
            );
        }
        // And the final re-derivation matches the live (swept) analyzer —
        // plane and analyzer agree over the truncated state.
        let (_, last_render, last_req) = verdicts.last().unwrap();
        assert_eq!(
            *last_render,
            format!("{:?}", analyzer.execute(last_req)),
            "post-sweep verdict must match the live analyzer"
        );
        // The incident log shows exactly one transition (Pending ->
        // contention verdict); the sweeps caused none.
        let transitions = sp
            .incidents()
            .iter()
            .filter(|i| i.sub == watch && i.kind == IncidentKind::Transition)
            .count();
        assert_eq!(
            transitions, 1,
            "sweeps must not perturb the incident stream ({directory_shards} shards)"
        );
    }
}

/// A *pending* contention watch still pins: its trigger may fire at any
/// moment, and the diagnosis window then reaches back ~2·trigger_window+ε
/// from "now" — so budget pressure must not evict the victim's live
/// record out from under the future diagnosis. Once the trigger fires the
/// pin snaps to the concrete epoch window.
#[test]
fn pending_watch_pins_its_near_future_window() {
    let Scenario { mut tb, planted } = scenarios::churn_storm(&[]);
    let (victim, da) = planted.victim();
    let w = tb.cfg.trigger.window;
    let q = StandingQuery::ContentionWatch {
        victim,
        victim_dst: da,
        trigger_window: w,
    };
    // Before the burst (15 ms): no trigger, but the pin covers the span a
    // trigger firing now would diagnose.
    tb.sim.run_until(SimTime::from_ms(10));
    let analyzer = tb.analyzer();
    let horizon = suite::switchpointer::retention::newest_epoch(&analyzer);
    let pin = q
        .pin_floor(&analyzer, horizon)
        .expect("a pending watch must pin its near-future window");
    assert!(pin < horizon, "the pin reaches back from the horizon");
    assert!(
        horizon - pin <= 8,
        "the pending pin is a bounded near-past span, not an open floor"
    );
    // After the trigger fires, the pin is the concrete diagnosis window.
    tb.sim.run_until(SimTime::from_ms(20));
    let horizon = suite::switchpointer::retention::newest_epoch(&analyzer);
    let trigger = *tb.hosts[&da]
        .borrow()
        .first_trigger_for(victim)
        .expect("the burst must trigger");
    assert_eq!(
        q.pin_floor(&analyzer, horizon),
        Some(analyzer.epoch_window(&trigger, w).lo),
        "a resolved watch pins its trigger's epoch window"
    );
}

/// A fixed diagnosis subscribed before its victim's trigger pends, as a
/// contention watch does: `Pending` (logged as a pending baseline) until
/// the burst raises the trigger, then every window's verdict is the live
/// analyzer's, and the first verdict is the subscription's one transition
/// out of pending.
#[test]
fn fixed_diagnosis_subscribed_before_its_trigger_pends_then_diagnoses() {
    for directory_shards in [1usize, 4] {
        let Scenario { mut tb, planted } = scenarios::churn_storm(&[]);
        let (victim, da) = planted.victim();
        let analyzer = tb.analyzer();
        let trigger_window = tb.cfg.trigger.window;
        let mut sp = StreamPlane::new(
            &analyzer,
            StreamConfig {
                plane: QueryPlaneConfig {
                    workers: 2,
                    shards: 8,
                    directory_shards,
                    retention: None,
                },
            },
        );
        let diagnoses = [
            QueryRequest::Contention {
                victim,
                victim_dst: da,
                trigger_window,
            },
            QueryRequest::RedLights {
                victim,
                victim_dst: da,
                trigger_window,
            },
            QueryRequest::Cascade {
                victim,
                victim_dst: da,
                trigger_window,
                max_depth: 2,
            },
        ];
        let subs: Vec<_> = diagnoses
            .iter()
            .map(|&req| sp.subscribe(StandingQuery::Fixed(req)))
            .collect();
        let mut pending_windows = 0;
        for w in 1..=8u64 {
            tb.sim.run_until(SimTime::from_ms(w * 5));
            let fired = tb.hosts[&da].borrow().first_trigger_for(victim).is_some();
            let report = sp.run_window(&analyzer);
            for (i, (_, eval)) in report.standing.iter().enumerate() {
                match eval {
                    StandingEval::Pending => assert!(
                        !fired,
                        "sub {i} pends after its trigger fired ({directory_shards} shards)"
                    ),
                    StandingEval::Verdict { request, response } => {
                        assert!(fired, "sub {i} ran before its trigger fired");
                        assert_eq!(*request, diagnoses[i]);
                        assert_eq!(
                            format!("{response:?}"),
                            format!("{:?}", analyzer.execute(request)),
                            "sub {i} at window {w} ({directory_shards} shards)"
                        );
                    }
                }
            }
            pending_windows += usize::from(!fired);
        }
        assert!(
            pending_windows > 0,
            "the fixture subscribes before the burst"
        );
        assert!(pending_windows < 8, "the burst must raise the trigger");
        for &sub in &subs {
            let log: Vec<_> = sp.incidents().iter().filter(|i| i.sub == sub).collect();
            assert!(log.len() >= 2, "{sub}: {log:?}");
            assert_eq!(log[0].kind, IncidentKind::Baseline);
            assert_eq!(log[0].summary, suite::streamplane::PENDING_SUMMARY);
            assert_eq!(log[0].window, 0);
            assert_eq!(log[1].kind, IncidentKind::Transition);
            assert_eq!(log[1].window as usize, pending_windows);
        }
    }
}

/// A pending fixed diagnosis pins the near-future window a pending watch
/// pins — a cascade one epoch wider per stage — and, once its trigger
/// fired, its trigger's epoch window.
#[test]
fn pending_fixed_diagnosis_pins_like_a_pending_watch() {
    let Scenario { mut tb, planted } = scenarios::churn_storm(&[]);
    let (victim, da) = planted.victim();
    let trigger_window = tb.cfg.trigger.window;
    let watch = StandingQuery::ContentionWatch {
        victim,
        victim_dst: da,
        trigger_window,
    };
    let contention = StandingQuery::Fixed(QueryRequest::Contention {
        victim,
        victim_dst: da,
        trigger_window,
    });
    let cascade = StandingQuery::Fixed(QueryRequest::Cascade {
        victim,
        victim_dst: da,
        trigger_window,
        max_depth: 3,
    });
    let analyzer = tb.analyzer();
    for t_ms in [10u64, 20] {
        tb.sim.run_until(SimTime::from_ms(t_ms));
        let horizon = suite::switchpointer::retention::newest_epoch(&analyzer);
        let pin = watch.pin_floor(&analyzer, horizon).expect("a watch pins");
        assert_eq!(contention.pin_floor(&analyzer, horizon), Some(pin));
        assert_eq!(
            cascade.pin_floor(&analyzer, horizon),
            Some(pin.saturating_sub(3))
        );
    }
}

/// Where a query pins follows its class, not its evaluation history:
/// diagnoses and watches pin every shard, aggregates only their home
/// shard, and the pins are the same before the first window and after
/// every later one at the same horizon.
#[test]
fn retention_pins_follow_the_class_rule() {
    let Scenario { mut tb, planted } = scenarios::churn_storm(&[]);
    let (victim, da) = planted.victim();
    tb.sim.run_until(SimTime::from_ms(25));
    let analyzer = tb.analyzer();
    assert!(
        tb.hosts[&da].borrow().first_trigger_for(victim).is_some(),
        "the burst must have raised the trigger by 25 ms"
    );
    let horizon = suite::switchpointer::retention::newest_epoch(&analyzer);
    let trigger_window = tb.cfg.trigger.window;
    // Aggregate floors sit above the diagnosis window, so a diagnosis
    // pinning fewer than every shard would show as an unpinned shard.
    let aggregates = [
        StandingQuery::TopKSliding {
            switch: tb.node("edge0_0"),
            k: 5,
            epochs_back: 4,
        },
        StandingQuery::LoadImbalanceSliding {
            switch: tb.node("agg2_0"),
            epochs_back: 4,
        },
        StandingQuery::Fixed(QueryRequest::TopK {
            switch: tb.node("edge3_1"),
            k: 5,
            range: EpochRange {
                lo: horizon - 3,
                hi: horizon,
            },
        }),
    ];
    let diagnoses = [
        StandingQuery::ContentionWatch {
            victim,
            victim_dst: da,
            trigger_window,
        },
        StandingQuery::Fixed(QueryRequest::Contention {
            victim,
            victim_dst: da,
            trigger_window,
        }),
    ];
    let fold = |queries: &[StandingQuery], n: usize, every_shard: bool| {
        let mut pins: Vec<Option<u64>> = vec![None; n];
        for q in queries {
            let lo = q
                .pin_floor(&analyzer, horizon)
                .expect("every query here pins");
            let home = q.home_shard(n);
            for (s, pin) in pins.iter_mut().enumerate() {
                if every_shard || s == home {
                    *pin = Some(pin.map_or(lo, |p| p.min(lo)));
                }
            }
        }
        pins
    };
    for directory_shards in [1usize, 4, 8] {
        let mut sp = StreamPlane::new(
            &analyzer,
            StreamConfig {
                plane: QueryPlaneConfig {
                    workers: 2,
                    shards: 8,
                    directory_shards,
                    retention: None,
                },
            },
        );
        for q in aggregates {
            sp.subscribe(q);
        }
        let homes: std::collections::BTreeSet<usize> = aggregates
            .iter()
            .map(|q| q.home_shard(directory_shards))
            .collect();
        let aggregate_pins = sp.retention_pins(&analyzer);
        assert_eq!(aggregate_pins, fold(&aggregates, directory_shards, false));
        assert_eq!(
            aggregate_pins.iter().flatten().count(),
            homes.len(),
            "aggregates pin only their home shards ({directory_shards} shards)"
        );
        for q in diagnoses {
            sp.subscribe(q);
        }
        let diagnosis_floor = fold(&diagnoses, directory_shards, true);
        let want: Vec<Option<u64>> = aggregate_pins
            .iter()
            .zip(&diagnosis_floor)
            .map(|(a, d)| a.iter().chain(d).min().copied())
            .collect();
        let before = sp.retention_pins(&analyzer);
        assert_eq!(before, want, "{directory_shards} shards");
        assert!(
            before.iter().all(Option::is_some),
            "diagnoses pin every shard ({directory_shards} shards)"
        );
        for w in 0..3 {
            let report = sp.run_window(&analyzer);
            assert_eq!(report.pending, 0, "every query here resolves");
            assert_eq!(
                sp.retention_pins(&analyzer),
                before,
                "pins moved after window {w} ({directory_shards} shards)"
            );
        }
    }
}

/// (b) and the watch, over eight 5 ms windows of the fat-tree watch
/// deployment with seven standing queries: the incremental refresh copies
/// less than a full recapture would, the contention watch resolves, and
/// the per-window series — copy work, its full-recapture equivalent,
/// queries executed and incidents fired — are pinned by digest, rendered
/// one `name x y` line per point.
#[test]
fn watch_storm_trajectory_is_pinned() {
    let Scenario { mut tb, planted } = scenarios::watch(1);
    let (victim, victim_dst) = planted.victim();
    let analyzer = tb.analyzer();
    let mut sp = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 8,
                shards: 8,
                directory_shards: 1,
                retention: None,
            },
        },
    );
    for name in ["edge0_0", "agg0_0", "core0_0", "edge2_0"] {
        sp.subscribe(StandingQuery::TopKSliding {
            switch: tb.node(name),
            k: 5,
            epochs_back: 8,
        });
    }
    sp.subscribe(StandingQuery::LoadImbalanceSliding {
        switch: tb.node("agg0_0"),
        epochs_back: 8,
    });
    sp.subscribe(StandingQuery::Fixed(QueryRequest::TopK {
        switch: tb.node("edge3_1"),
        k: 5,
        range: EpochRange { lo: 5, hi: 20 },
    }));
    sp.subscribe(StandingQuery::ContentionWatch {
        victim,
        victim_dst,
        trigger_window: tb.cfg.trigger.window,
    });

    let mut series: [(&str, Vec<(u64, usize)>); 4] = [
        ("delta_copied", Vec::new()),
        ("full_recapture_equiv", Vec::new()),
        ("executed", Vec::new()),
        ("incidents", Vec::new()),
    ];
    for w in 1..=8u64 {
        tb.sim.run_until(SimTime::from_ms(w * 5));
        let report = sp.run_window(&analyzer);
        let d = &report.delta;
        let points = [
            (d.cloned_records + d.cloned_slots) as usize,
            (d.full_records + d.full_slots) as usize,
            report.executed,
            report.incidents.len(),
        ];
        for ((_, s), y) in series.iter_mut().zip(points) {
            s.push((report.window, y));
        }
    }
    let stats = sp.metrics().snapshot();
    assert!(
        stats.counter("streamplane.delta_copied") < stats.counter("streamplane.full_copied_equiv"),
        "the incremental refresh must copy less than a full recapture"
    );
    assert!(
        sp.incidents()
            .iter()
            .any(|i| i.summary.starts_with("contention")),
        "the contention watch must resolve on this deterministic fixture"
    );
    let mut text = String::new();
    for (name, points) in &series {
        for &(x, y) in points {
            text += &format!("{name} {:?} {:?}\n", x as f64, y as f64);
        }
    }
    assert_eq!(
        fnv1a(&text),
        WATCH_STORM_DIGEST,
        "the watch-storm trajectory moved:\n{text}"
    );
}

/// `fnv1a` of [`watch_storm_trajectory_is_pinned`]'s rendering.
const WATCH_STORM_DIGEST: u64 = 8814705647361960758;
