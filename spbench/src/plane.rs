//! `plane_storm`: `QueryPlane::execute_batch` in process — no socket, no
//! codec. One operation is a *round*: an aggregate batch of 2 048 seeded
//! `TopK`/`LoadImbalance`/diagnosis requests (half the keys repeated)
//! followed by a sweep batch of 64 `SilentDrop` sweeps over 1 000 epochs,
//! on a plane captured once.

use std::time::{Duration, Instant};

use queryplane::{QueryPlane, QueryPlaneConfig};
use switchpointer::query::QueryRequest;

use crate::fixture::{Fixture, Reference, SetupError, STORM_SWEEP_RANGE};
use crate::probes;
use crate::run::{repeat_setup, us, EndToEnd, GaugeMax, RunCfg, RunResult, SETUPS, WORKERS};
use crate::stats::Sliced;
use crate::trace::{
    exec_layers, p50, pool_layers, render_self_time, tail_metrics, write_trace_file, RegistryProbe,
    SelfTimeRow, SpanLog,
};

pub const AGG_BATCH: usize = 2048;
pub const SWEEP_BATCH: usize = 64;

struct Deployment {
    fx: Fixture,
    plane: QueryPlane,
}

fn deploy(seed: u64) -> Result<Deployment, SetupError> {
    let fx = Fixture::build(seed)?;
    let plane = QueryPlane::from_analyzer(
        &fx.analyzer,
        QueryPlaneConfig {
            workers: WORKERS,
            shards: 8,
            ..QueryPlaneConfig::default()
        },
    );
    Ok(Deployment { fx, plane })
}

struct Storm {
    plane: QueryPlane,
    agg: Vec<QueryRequest>,
    sweep: Vec<QueryRequest>,
    agg_ref: Reference,
    sweep_ref: Reference,
    attempted: u64,
    failed: u64,
}

/// The two timed intervals of one round.
struct Round {
    agg: (Instant, Instant),
    sweep: (Instant, Instant),
}

impl Round {
    fn latency_ns(&self) -> u64 {
        (self.agg.1.duration_since(self.agg.0) + self.sweep.1.duration_since(self.sweep.0))
            .as_nanos() as u64
    }
}

impl Storm {
    /// One round. Only the two `execute_batch` calls are timed; every
    /// answer is checked against the reference afterwards.
    fn round(&mut self) -> Round {
        let a0 = Instant::now();
        let agg = self.plane.execute_batch(&self.agg);
        let a1 = Instant::now();
        let s0 = Instant::now();
        let sweep = self.plane.execute_batch(&self.sweep);
        let s1 = Instant::now();
        self.attempted += (agg.len() + sweep.len()) as u64;
        self.failed += (self.agg.len() - agg.len() + self.sweep.len() - sweep.len()) as u64;
        for (i, o) in agg.iter().enumerate() {
            self.failed += u64::from(!self.agg_ref.matches(i, &o.response));
        }
        for (i, o) in sweep.iter().enumerate() {
            self.failed += u64::from(!self.sweep_ref.matches(i, &o.response));
        }
        Round {
            agg: (a0, a1),
            sweep: (s0, s1),
        }
    }

    fn phase(&mut self, dur: Duration, mut after: impl FnMut(&Round)) -> Sliced {
        let start = Instant::now();
        let mut sliced = Sliced::new(dur.as_nanos() as u64);
        while start.elapsed() < dur {
            let r = self.round();
            sliced.record(
                r.sweep.1.duration_since(start).as_nanos() as u64,
                r.latency_ns(),
            );
            after(&r);
        }
        sliced
    }
}

pub fn run(cfg: RunCfg) -> Result<RunResult, SetupError> {
    let setups = if cfg.traced { 1 } else { SETUPS };
    let (dep, setup_s) = repeat_setup(setups, || deploy(cfg.seed), drop)?;
    let Deployment { mut fx, plane } = dep;
    let seed = fx.effective_seed;
    let agg = fx.storm_agg_batch(seed, AGG_BATCH);
    let sweep = fx.sweep_requests(seed, SWEEP_BATCH, STORM_SWEEP_RANGE);
    let mut storm = Storm {
        agg_ref: Reference::new(&fx.analyzer, &agg),
        sweep_ref: Reference::new(&fx.analyzer, &sweep),
        plane,
        agg,
        sweep,
        attempted: 0,
        failed: 0,
    };
    let mut out = RunResult::default();
    storm.phase(cfg.warmup(), |_| {});
    if cfg.traced {
        traced_phase(&mut storm, cfg, &mut out);
        probes::fixture_probes(&mut fx, &mut out.layer);
        attribute(&mut out);
    } else {
        let sliced = storm.phase(cfg.phase(), |_| {});
        out.e2e = Some(EndToEnd {
            op_p50_us: us(sliced.quantile(0.5)),
            op_p90_us: us(sliced.quantile(0.9)),
            // Queries per second of batch time, both batches together.
            ops_per_s: sliced.rate_per_s((AGG_BATCH + SWEEP_BATCH) as f64),
            setup_s,
        });
    }
    out.attempted = storm.attempted;
    out.failed = storm.failed;
    Ok(out)
}

/// The traced phase: harness spans around the two batches of every
/// round, and what the plane's own registry recorded meanwhile.
fn traced_phase(storm: &mut Storm, cfg: RunCfg, out: &mut RunResult) {
    let reg = std::sync::Arc::clone(storm.plane.metrics());
    let probe = RegistryProbe::start(std::iter::once(&*reg));
    let depth = GaugeMax::watch(reg.gauge("pool.queue_depth"));
    let mut log = SpanLog::new();
    let mut op = 0u64;
    let sliced = storm.phase(cfg.phase(), |r| {
        let round = log.push("plane.round", r.agg.0, r.sweep.1, None, op);
        log.push("plane.batch.agg", r.agg.0, r.agg.1, Some(round), op);
        log.push("plane.batch.sweep", r.sweep.0, r.sweep.1, Some(round), op);
        op += 1;
    });
    let delta = probe.since(std::iter::once(&*reg));
    let queue_depth_max = depth.finish();
    tail_metrics(
        &sliced.all_sorted(),
        (AGG_BATCH + SWEEP_BATCH) as f64,
        &mut out.layer,
    );

    let l = &mut out.layer;
    let (agg, sweep) = (
        log.durations("plane.batch.agg"),
        log.durations("plane.batch.sweep"),
    );
    l.insert("plane.batch_ns.p50.agg".into(), p50(agg.iter().copied()));
    l.insert(
        "plane.batch_ns.p50.sweep".into(),
        p50(sweep.iter().copied()),
    );
    l.insert(
        "plane.round_ns.p50".into(),
        p50(log.durations("plane.round").into_iter()),
    );
    let batches = (agg.len() + sweep.len()).max(1) as f64;
    let exec_sum = delta.hist_merged("queryplane.exec_ns.").sum as f64;
    l.insert("plane.exec_sum_ns_per_batch".into(), exec_sum / batches);
    let wall: u64 = agg.iter().chain(&sweep).sum();
    let queries = (agg.len() * AGG_BATCH + sweep.len() * SWEEP_BATCH).max(1) as f64;
    // Dispatch, stitching and the sequential replay tail: batch wall time
    // the executors, spread over the workers, do not account for.
    l.insert(
        "plane.self_ns_per_query".into(),
        (wall as f64 - exec_sum / WORKERS as f64).max(0.0) / queries,
    );
    let (hits, misses) = (
        delta.counter("queryplane.pointer_hits") as f64,
        delta.counter("queryplane.pointer_misses") as f64,
    );
    if hits + misses > 0.0 {
        l.insert("plane.pointer_hit_rate".into(), hits / (hits + misses));
    }
    pool_layers(&delta, queue_depth_max, l);
    exec_layers(&delta, l);
    write_trace_file("plane_storm", &log, &[]);
}

/// The self-time table of a round. The round span is covered by its two
/// batch spans, and a batch is the executors' time spread over the
/// workers plus the plane's own (dispatch, stitch, sequential replay),
/// so nothing is left unattributed beyond the gap between the batches.
fn attribute(out: &mut RunResult) {
    let g = |k: &str| out.layer.get(k).copied().unwrap_or(0.0);
    let (agg, sweep) = (g("plane.batch_ns.p50.agg"), g("plane.batch_ns.p50.sweep"));
    let round = g("plane.round_ns.p50");
    // Two batches per round.
    let exec = 2.0 * g("plane.exec_sum_ns_per_batch") / WORKERS as f64;
    let unattributed = if round > 0.0 {
        (round - agg - sweep).max(0.0) / round * 100.0
    } else {
        0.0
    };
    out.layer.remove("plane.round_ns.p50");
    out.layer
        .insert("trace.unattributed_pct".into(), unattributed);
    let rows = [
        SelfTimeRow {
            span: "plane.round",
            depth: 0,
            dur_ns: round,
            self_ns: 0.0,
        },
        SelfTimeRow {
            span: "plane.batch.agg",
            depth: 1,
            dur_ns: agg,
            self_ns: 0.0,
        },
        SelfTimeRow {
            span: "plane.batch.sweep",
            depth: 1,
            dur_ns: sweep,
            self_ns: 0.0,
        },
        SelfTimeRow {
            span: "executors (sum / workers)",
            depth: 2,
            dur_ns: exec,
            self_ns: exec,
        },
        SelfTimeRow {
            span: "plane self (dispatch+stitch+replay)",
            depth: 2,
            dur_ns: (round - exec).max(0.0),
            self_ns: (round - exec).max(0.0),
        },
    ];
    out.report = render_self_time("plane_storm", &rows, unattributed);
}
