//! `watch_stream`: writes beside reads through the same layers.
//!
//! Per window: the simulation advances 1 ms (untimed); then, timed,
//! `WireCluster::refresh` journals and replicates the delta to the 4
//! shard servers, `close_window` evaluates 61 standing queries, and the
//! subscriber drains its connection up to the window's digest. A reader
//! thread, released as `refresh` starts, issues 8 aggregate queries
//! against the state being swapped.
//!
//! State grows with every window, so the number of windows is a fixed
//! function of `--seconds` (not of wall time): both sides of an A/B see
//! the same growth.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Instant;

use netsim::prelude::*;
use queryplane::{QueryPlaneConfig, Snapshot};
use streamplane::{Incident, StandingQuery, StreamConfig, StreamPlane};
use switchpointer::query::QueryRequest;
use wireplane::{Frame, WireClient, WireEvent};

use crate::fixture::{Reference, SetupError, CAPTURE_MS, FANOUT_WINDOW};
use crate::probes;
use crate::run::{repeat_setup, us, EndToEnd, RunCfg, RunResult, SETUPS, SHARD_SERVERS, WORKERS};
use crate::stats::{percentile, supported_q, Sliced, SLICES};
use crate::trace::{
    exec_layers, p50, p99, pool_layers, render_self_time, tail_metrics, write_trace_file, Layer,
    SelfTimeRow, SpanLog,
};
use crate::wire::{deploy, health, Deployment, Tracing};

/// Measured windows per second of `--seconds` (a window costs ≈ 110 ms of
/// wall time on the reference box, half of it the untimed simulation and checks).
const WINDOWS_PER_SECOND: f64 = 9.0;
/// Windows run before any is recorded.
const WARMUP_WINDOWS: u64 = 9;
/// Queries the reader issues per window.
const READER_QUERIES: usize = 8;
/// Sliding-window depth of the standing aggregates, in epochs.
const EPOCHS_BACK: u64 = 20;

struct Watch {
    dep: Deployment,
    subscriber: WireClient,
    reader: WireClient,
    subscriptions: Vec<StandingQuery>,
}

/// 61 standing queries: the contention watch on the victim,
/// `TopKSliding` on every 2nd switch, `LoadImbalanceSliding` on every 4th.
fn standing_queries(dep: &Deployment) -> Vec<StandingQuery> {
    let fx = &dep.fx;
    let mut out = vec![StandingQuery::ContentionWatch {
        victim: fx.victim,
        victim_dst: fx.victim_dst,
        trigger_window: fx.tb.cfg.trigger.window,
    }];
    for (i, &switch) in fx.analyzer.all_switches().iter().enumerate() {
        if i % 2 == 0 {
            out.push(StandingQuery::TopKSliding {
                switch,
                k: 10,
                epochs_back: EPOCHS_BACK,
            });
        }
        if i % 4 == 0 {
            out.push(StandingQuery::LoadImbalanceSliding {
                switch,
                epochs_back: EPOCHS_BACK,
            });
        }
    }
    out
}

fn deploy_watch(seed: u64) -> Result<Watch, SetupError> {
    let dep = deploy(seed)?;
    let mut subscriber = dep.cluster.client()?;
    let subscriptions = standing_queries(&dep);
    for q in &subscriptions {
        subscriber.subscribe(*q, 0)?;
    }
    let reader = dep.cluster.client()?;
    Ok(Watch {
        dep,
        subscriber,
        reader,
        subscriptions,
    })
}

/// What the reader thread sends back per query: its latency and the
/// answer's rendering (or the error's).
type ReaderReply = (u64, Result<String, String>);

/// One timed window.
struct WindowTimes {
    sim: (Instant, Instant),
    refresh: (Instant, Instant),
    close: (Instant, Instant),
    drain: (Instant, Instant),
}

#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
    reader_mixed: u64,
    reader_ns: Vec<u64>,
    evaluated: u64,
    incidents: u64,
    delta_copied: u64,
    windows: u64,
}

pub fn run(cfg: RunCfg) -> Result<RunResult, SetupError> {
    let setups = if cfg.traced { 1 } else { SETUPS };
    let (watch, setup_s) = repeat_setup(
        setups,
        || deploy_watch(cfg.seed),
        |w| w.dep.cluster.shutdown(),
    )?;
    let Watch {
        mut dep,
        mut subscriber,
        reader,
        subscriptions,
    } = watch;
    // A whole number of windows per slice.
    let per_slice = (cfg.phase().as_secs_f64() * WINDOWS_PER_SECOND / SLICES as f64).ceil();
    let measured = per_slice.max(1.0) as u64 * SLICES as u64;

    // The in-process twin: the same subscriptions on a StreamPlane over
    // the same analyzer, run in lock-step (untimed). Its incident
    // sequence is the reference for what the subscriber must receive.
    let mut twin = StreamPlane::new(
        &dep.fx.analyzer,
        StreamConfig {
            plane: QueryPlaneConfig {
                workers: WORKERS,
                shards: 8,
                directory_shards: SHARD_SERVERS,
                ..QueryPlaneConfig::default()
            },
            ..StreamConfig::default()
        },
    );
    for q in &subscriptions {
        twin.subscribe(*q);
    }

    // The reader cycles through the fan-out aggregates, 8 per window.
    let pool = dep.fx.aggregates(FANOUT_WINDOW);
    let requests_of = |w: u64| -> Vec<QueryRequest> {
        (0..READER_QUERIES)
            .map(|i| pool[(w as usize * READER_QUERIES + i) % pool.len()])
            .collect()
    };
    let (cmd_tx, cmd_rx) = mpsc::channel::<Vec<QueryRequest>>();
    let (res_tx, res_rx) = mpsc::channel::<Vec<ReaderReply>>();
    let reader_thread = std::thread::Builder::new()
        .name("spbench-reader".into())
        .spawn(move || {
            let mut reader = reader;
            for requests in cmd_rx {
                let replies = requests
                    .iter()
                    .map(|r| {
                        let t = Instant::now();
                        let reply = reader.query(r);
                        let ns = t.elapsed().as_nanos() as u64;
                        (
                            ns,
                            reply
                                .map(|resp| format!("{resp:?}"))
                                .map_err(|e| e.to_string()),
                        )
                    })
                    .collect();
                if res_tx.send(replies).is_err() {
                    break;
                }
            }
        })
        .expect("spawn the reader thread");

    let mut out = RunResult::default();
    let mut counts = Counts::default();
    let mut sliced = Sliced::new(measured);
    let mut log = SpanLog::new();
    let mut tracing = None;
    // Traced runs journal the same deltas on a harness-owned snapshot to
    // size what `refresh` puts on the wire.
    let mut shadow = cfg
        .traced
        .then(|| Snapshot::capture_with(&dep.fx.analyzer, 8, SHARD_SERVERS));
    let mut append_bytes = 0u64;
    let shard_hosts: Vec<BTreeSet<NodeId>> = (0..SHARD_SERVERS)
        .map(|s| {
            dep.fx
                .analyzer
                .all_hosts()
                .into_iter()
                .filter(|&h| switchpointer::shard::host_shard_of(h, SHARD_SERVERS) == s)
                .collect()
        })
        .collect();

    // What the cluster holds before window 0: the answers a reader racing
    // the first refresh may still legitimately get.
    let mut pre = Reference::new(&dep.fx.analyzer, &requests_of(0));
    for w in 0..WARMUP_WINDOWS + measured {
        let recorded = w >= WARMUP_WINDOWS;
        if recorded && cfg.traced && tracing.is_none() {
            tracing = Some(Tracing::start(&dep.cluster));
        }
        let s0 = Instant::now();
        dep.fx
            .tb
            .sim
            .run_until(SimTime::from_ms(CAPTURE_MS + w + 1));
        let s1 = Instant::now();
        let requests = requests_of(w);
        let post = Reference::new(&dep.fx.analyzer, &requests);

        // Timed: refresh → close_window → subscriber holds the digest.
        cmd_tx.send(requests.clone()).expect("reader thread alive");
        let t0 = Instant::now();
        let delta = dep.cluster.refresh(&dep.fx.analyzer);
        let t1 = Instant::now();
        let summary = dep.cluster.close_window();
        let t2 = Instant::now();
        let drained = drain_window(&mut subscriber);
        let t3 = Instant::now();

        // Untimed from here: the twin, the reader's answers, the checks.
        let expected = twin.run_window(&dep.fx.analyzer).incidents;
        let window_ok = match drained {
            // Both report a window's incidents in subscription order, and
            // the repo pins the two streams bit-identical.
            Ok((incidents, digest)) => digest == summary && incidents == expected,
            Err(_) => false,
        };
        let replies = res_rx.recv().expect("reader thread alive");
        if let Some(shadow) = shadow.as_mut() {
            let (_, record) = shadow.apply_delta_journaled(&dep.fx.analyzer);
            if recorded {
                let mut buf = Vec::new();
                for (s, keep) in shard_hosts.iter().enumerate() {
                    let frame = Frame::DeltaAppend {
                        shard: s as u16,
                        seq: w + 1,
                        record: record.slice_for(keep),
                        ctx: None,
                    };
                    if frame.encode_into(&mut buf).is_ok() {
                        append_bytes += buf.len() as u64;
                    }
                }
            }
        }
        counts.attempted += 1 + replies.len() as u64;
        counts.failed += u64::from(!window_ok);
        for (i, (ns, reply)) in replies.into_iter().enumerate() {
            match reply {
                Ok(text) => {
                    // A reader racing the refresh may see the state
                    // before it, after it, or — the shards apply their
                    // slices one after another — a mix of both. Only the
                    // first two have a reference; a mix is counted, not
                    // failed.
                    if !(post.matches_text(i, &text) || pre.matches_text(i, &text)) {
                        counts.reader_mixed += u64::from(recorded);
                    }
                    if recorded {
                        counts.reader_ns.push(ns);
                    }
                }
                Err(_) => counts.failed += 1,
            }
        }
        pre = Reference::new(&dep.fx.analyzer, &requests_of(w + 1));
        if recorded && window_ok {
            sliced.record(w - WARMUP_WINDOWS, t3.duration_since(t0).as_nanos() as u64);
            counts.windows += 1;
            counts.evaluated += summary.evaluated;
            counts.incidents += summary.incidents;
            counts.delta_copied += delta.cloned_records + delta.cloned_slots;
            if cfg.traced {
                let times = WindowTimes {
                    sim: (s0, s1),
                    refresh: (t0, t1),
                    close: (t1, t2),
                    drain: (t2, t3),
                };
                push_spans(&mut log, &times, w);
            }
        }
    }
    drop(cmd_tx);
    let _ = reader_thread.join();

    out.attempted = counts.attempted;
    out.failed = counts.failed;
    if let Some(tracing) = tracing {
        let m = tracing.finish(&dep.cluster);
        stream_layers(&log, &counts, &m, append_bytes, &dep, &mut out.layer);
        tail_metrics(&sliced.all_sorted(), 1.0, &mut out.layer);
        if let Err(e) = probes::transport_probes(&dep.fx, &dep.cluster, &mut out.layer) {
            out.unhealthy.push(format!("transport probes failed: {e}"));
        }
        probes::fixture_probes(&mut dep.fx, &mut out.layer);
        out.report = self_time_report(&mut out.layer);
        out.unhealthy.extend(health(&out.layer));
        write_trace_file("watch_stream", &log, &[]);
    } else {
        out.e2e = Some(EndToEnd {
            op_p50_us: us(sliced.quantile(0.5)),
            op_p90_us: us(sliced.quantile(0.9)),
            ops_per_s: sliced.rate_per_s(1.0),
            setup_s,
        });
    }
    dep.cluster.shutdown();
    Ok(out)
}

/// Drains the subscriber's connection up to the window's digest.
fn drain_window(
    subscriber: &mut WireClient,
) -> Result<(Vec<Incident>, wireplane::WindowSummary), wireplane::Error> {
    let mut incidents = Vec::new();
    loop {
        match subscriber.next_event()? {
            WireEvent::Incident { incident, .. } => incidents.push(incident),
            WireEvent::Window(digest) => return Ok((incidents, digest)),
        }
    }
}

fn push_spans(log: &mut SpanLog, t: &WindowTimes, w: u64) {
    log.push("stream.sim_advance", t.sim.0, t.sim.1, None, w);
    let window = log.push("stream.window", t.refresh.0, t.drain.1, None, w);
    log.push("stream.refresh", t.refresh.0, t.refresh.1, Some(window), w);
    log.push("stream.close", t.close.0, t.close.1, Some(window), w);
    log.push("stream.drain", t.drain.0, t.drain.1, Some(window), w);
}

fn stream_layers(
    log: &SpanLog,
    c: &Counts,
    m: &crate::wire::Measured,
    append_bytes: u64,
    dep: &Deployment,
    out: &mut Layer,
) {
    let windows = c.windows.max(1) as f64;
    let mut set = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    for (metric, span) in [
        ("stream.sim_advance_ns.p50", "stream.sim_advance"),
        ("stream.refresh_ns.p50", "stream.refresh"),
        ("stream.close_ns.p50", "stream.close"),
        ("stream.drain_ns.p50", "stream.drain"),
        ("stream.window_ns.p50", "stream.window"),
    ] {
        set(metric, p50(log.durations(span).into_iter()));
    }
    let mut reader = c.reader_ns.clone();
    reader.sort_unstable();
    set(
        "stream.reader_query_ns.p50",
        percentile(&reader, 0.5) as f64,
    );
    set(
        "stream.reader_query_ns.p90",
        percentile(&reader, supported_q(reader.len(), 0.9)) as f64,
    );
    // The reader's calls are the client calls of this workload.
    set("client.query_ns.p50", percentile(&reader, 0.5) as f64);
    set("client.query_ns.p99", p99(reader.iter().copied()));
    set("stream.reader_mixed_replies", c.reader_mixed as f64);
    set("stream.evaluated_per_window", c.evaluated as f64 / windows);
    set("stream.incidents_per_window", c.incidents as f64 / windows);
    set(
        "stream.delta_copied_per_window",
        c.delta_copied as f64 / windows,
    );
    set(
        "stream.append_bytes_per_window",
        append_bytes as f64 / windows,
    );
    let records: usize = dep
        .fx
        .analyzer
        .all_hosts()
        .iter()
        .filter_map(|&h| dep.fx.analyzer.host(h))
        .map(|h| h.borrow().store.len())
        .sum();
    set("stream.state_records_end", records as f64);
    set(
        "repl.apply_ns.p50",
        m.delta.hist("repl.apply_ns").quantile(0.5) as f64,
    );
    set("repl.appends", m.delta.counter("repl.applied") as f64);
    set("repl.bootstraps", m.delta.counter("repl.installs") as f64);
    set("fail.reconnects", m.reconnects as f64);
    set("fail.failovers", m.failovers as f64);
    set("trace.spans_lost", m.spans_lost as f64);
    // The wire layers under the windows and the reader, per window.
    let rtt = m.delta.hist_merged("wire.rtt_ns.shard");
    set("mux.rtt_ns.p50", rtt.quantile(0.5) as f64);
    set("mux.rtt_ns.p99", rtt.quantile(0.99) as f64);
    set(
        "server.serve_ns.p99",
        m.delta.hist("wire.serve_ns").quantile(0.99) as f64,
    );
    pool_layers(&m.delta, m.queue_depth_max, out);
    exec_layers(&m.delta, out);
}

/// `refresh + close + drain` must sum to the window span; what they do
/// not cover is unattributed.
fn self_time_report(l: &mut Layer) -> String {
    let g = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let window = g("stream.window_ns.p50");
    let (refresh, close, drain) = (
        g("stream.refresh_ns.p50"),
        g("stream.close_ns.p50"),
        g("stream.drain_ns.p50"),
    );
    let unattributed = if window > 0.0 {
        (window - refresh - close - drain).abs() / window * 100.0
    } else {
        0.0
    };
    let row = |span, depth, dur_ns: f64, self_ns: f64| SelfTimeRow {
        span,
        depth,
        dur_ns,
        self_ns,
    };
    let rows = [
        row(
            "stream.sim_advance (untimed)",
            0,
            g("stream.sim_advance_ns.p50"),
            0.0,
        ),
        row(
            "stream.window",
            0,
            window,
            (window - refresh - close - drain).max(0.0),
        ),
        row("stream.refresh", 1, refresh, refresh),
        row("stream.close", 1, close, close),
        row("stream.drain", 1, drain, drain),
    ];
    l.remove("stream.window_ns.p50");
    l.insert("trace.unattributed_pct".into(), unattributed);
    render_self_time("watch_stream", &rows, unattributed)
}
