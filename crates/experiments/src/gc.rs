//! `spexp gc` — the per-shard snapshot-GC trajectory.
//!
//! Not a paper figure: drives the storm + continuous-watch workload under
//! a retention policy at 1/2/4/8 directory shards and records the
//! steady-state memory trajectory — resident flow records per window,
//! records reclaimed per sweep — while holding the PR's two load-bearing
//! claims as hard shape checks (the CI smoke gates on them):
//!
//! 1. **Bounded:** once churn reaches steady state, snapshot-resident
//!    records stay within the per-shard budget across ≥ 3 reclaiming
//!    sweeps, at every shard count.
//! 2. **Verdicts keep their meaning:** the standing contention watch
//!    (whose trigger window the sweeps straddle — its pin floors GC on
//!    the shards its evaluation reaches) and a retained-window presence
//!    probe render bit-identically to an *unswept twin* deployment driven
//!    by the same deterministic schedule; and every standing verdict
//!    matches the live (swept) analyzer re-run.
//!
//! A second, budget-driven scenario disables the epoch horizon entirely
//! (`keep_epochs = u64::MAX`) so eviction is forced purely by the record
//! budget, pins capping it where subscriptions still reach.

use netsim::prelude::*;
use queryplane::QueryPlaneConfig;
use streamplane::{StandingEval, StandingQuery, StreamConfig, StreamPlane};
use switchpointer::query::QueryRequest;
use switchpointer::retention::RetentionPolicy;
use switchpointer::testbed::{churn_storm, Testbed};
use telemetry::EpochRange;

use crate::common::{FigureData, Series};

const WINDOW_MS: u64 = 5;
const WINDOWS: u64 = 9;

/// The shared churn-storm fixture (`testbed::churn_storm`) with a 6 ms
/// wave to a fresh destination every 5 ms — each wave's record goes stale
/// shortly after it ends.
fn churn_testbed() -> (Testbed, FlowId, NodeId) {
    churn_storm(&[
        ("h1_0_1", "h3_0_0", 0, 6),
        ("h1_1_0", "h3_0_1", 5, 6),
        ("h1_1_1", "h3_1_0", 10, 6),
        ("h1_0_1", "h2_1_0", 15, 6),
        ("h1_1_0", "h2_1_1", 20, 6),
        ("h1_1_1", "h0_1_1", 25, 6),
    ])
}

/// One horizon-driven run at `dir_shards`: returns (resident per window,
/// reclaimed per window, reclaiming-sweep count).
#[allow(clippy::type_complexity)]
fn run_horizon(dir_shards: usize, budget: usize) -> (Vec<u64>, Vec<u64>, usize) {
    let (mut tb, victim, da) = churn_testbed();
    let (mut twin_tb, _, _) = churn_testbed();
    let analyzer = tb.analyzer();
    let twin = twin_tb.analyzer();
    let mut sp = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 4,
                shards: 8,
                directory_shards: dir_shards,
                retention: Some(RetentionPolicy::budgeted(12, budget)),
            },
        },
    );
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

    let mut resident = Vec::new();
    let mut reclaimed = Vec::new();
    let mut reclaiming_sweeps = 0usize;
    let mut watch_renders: Vec<String> = Vec::new();
    let mut watch_open = true;
    let mut prev_horizon = 0u64;
    for w in 1..=WINDOWS {
        tb.sim.run_until(SimTime::from_ms(w * WINDOW_MS));
        twin_tb.sim.run_until(SimTime::from_ms(w * WINDOW_MS));
        // A retained-window presence probe rides each window's batch; its
        // pointer reads never touch reclaimable state, so it must render
        // identically on the unswept twin.
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
        if sweep.records_evicted > 0 {
            reclaiming_sweeps += 1;
        }
        reclaimed.push(sweep.records_evicted as u64);
        // The snapshot tracks the swept live state exactly.
        assert_eq!(
            sp.plane().snapshot().total_records(),
            sweep.resident_total(),
            "snapshot resident must equal post-sweep live resident"
        );
        resident.push(sweep.resident_total() as u64);
        // Steady state: the budget bounds every shard — except where a
        // pin legitimately holds a shard over it, which the sweep must
        // then have reported (the pins-beat-budget contract).
        if w >= 4 {
            for (s, &r) in sweep.resident_per_shard.iter().enumerate() {
                assert!(
                    r <= budget || sweep.over_budget_shards.contains(&s),
                    "window {w}: shard {s} resident {r} > budget {budget} and \
                     not reported over-budget ({dir_shards} shards)"
                );
            }
        }
        // Verdict checks.
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
                // Every standing verdict matches the live swept analyzer.
                assert_eq!(
                    format!("{response:?}"),
                    format!("{:?}", analyzer.execute(request)),
                    "standing verdict diverged from the live analyzer"
                );
                // The pinned contention watch additionally matches the
                // unswept twin: its window's records were never collected.
                if *id == watch {
                    let render = format!("{response:?}");
                    assert_eq!(
                        render,
                        format!("{:?}", twin.execute(request)),
                        "pinned contention verdict diverged from the unswept twin"
                    );
                    watch_renders.push(render);
                }
            }
        }
        // Subscription lifecycle: once the incident has re-derived stably
        // across three windows (straddling at least one sweep), the
        // operator closes the watch — its pin lifts and the retention
        // floor resumes advancing past the investigated window.
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
    (resident, reclaimed, reclaiming_sweeps)
}

/// The budget-driven scenario: no epoch horizon at all — eviction happens
/// only when a shard exceeds its record budget, pins capping it where the
/// sliding subscription still reaches.
fn run_budget_only(dir_shards: usize, budget: usize) -> (Vec<u64>, usize) {
    let (mut tb, _, _) = churn_testbed();
    let analyzer = tb.analyzer();
    let mut sp = StreamPlane::new(
        &analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: 4,
                shards: 8,
                directory_shards: dir_shards,
                retention: Some(RetentionPolicy::budgeted(u64::MAX, budget)),
            },
        },
    );
    sp.subscribe(StandingQuery::TopKSliding {
        switch: tb.node("edge2_0"),
        k: 10,
        epochs_back: 6,
    });
    let mut resident = Vec::new();
    let mut reclaiming = 0usize;
    for w in 1..=WINDOWS {
        tb.sim.run_until(SimTime::from_ms(w * WINDOW_MS));
        let report = sp.run_window(&analyzer);
        let sweep = report.sweep.as_ref().expect("retention configured");
        if sweep.records_evicted > 0 {
            reclaiming += 1;
        }
        resident.push(sweep.resident_total() as u64);
        for (s, &r) in sweep.resident_per_shard.iter().enumerate() {
            assert!(
                r <= budget || sweep.over_budget_shards.contains(&s),
                "budget-only sweep: shard {s} over budget without a pin"
            );
        }
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

pub fn gc() -> Vec<FigureData> {
    let budget = 10usize;
    let mut fig = FigureData::new(
        "gc",
        "per-shard snapshot GC: resident records per window under a retention budget",
        "window",
        "flow records",
    );
    let mut total_reclaimed_note = Vec::new();
    for &n in &[1usize, 2, 4, 8] {
        let (resident, reclaimed, sweeps) = run_horizon(n, budget);
        assert!(
            sweeps >= 3,
            "churn must drive >= 3 reclaiming sweeps at {n} shards (got {sweeps})"
        );
        let mut res = Series::new(format!("resident_{n}shards"));
        let mut rec = Series::new(format!("reclaimed_{n}shards"));
        for (w, (&r, &c)) in resident.iter().zip(&reclaimed).enumerate() {
            res.push((w + 1) as f64, r as f64);
            rec.push((w + 1) as f64, c as f64);
        }
        fig.series.push(res);
        fig.series.push(rec);
        total_reclaimed_note.push(format!(
            "{n} shards: {} reclaimed over {sweeps} sweeps, steady-state resident {}",
            reclaimed.iter().sum::<u64>(),
            resident.last().unwrap()
        ));
    }
    fig.note(format!(
        "per-shard budget {budget}; steady-state resident records bounded by it across \
         >= 3 reclaiming sweeps at every shard count"
    ));
    fig.note(
        "verdicts over retained epochs bit-identical to an unswept twin deployment \
         (pinned contention watch + presence probes, asserted per window); every standing \
         verdict matches the live swept analyzer"
            .to_string(),
    );
    for n in total_reclaimed_note {
        fig.note(n);
    }

    // Scenario B: pure budget pressure, no epoch horizon.
    let (resident_b, reclaiming_b) = run_budget_only(4, 3);
    let mut series_b = Series::new("resident_budget_only_4shards");
    for (w, &r) in resident_b.iter().enumerate() {
        series_b.push((w + 1) as f64, r as f64);
    }
    fig.series.push(series_b);
    assert!(
        reclaiming_b >= 1,
        "the budget alone must force eviction once churn accumulates"
    );
    fig.note(format!(
        "budget-only scenario (keep_epochs=MAX, budget 3/shard, 4 shards): \
         {reclaiming_b} reclaiming sweeps, final resident {}",
        resident_b.last().unwrap()
    ));
    vec![fig]
}
