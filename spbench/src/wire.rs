//! The two wire workloads, `wire_fanout` and `wire_sweep`: one blocking
//! `WireClient` in a closed loop against a front-end over 4 shard
//! servers. `wire_fanout`'s traced run also offers the same queries in an
//! open loop at three rates (the ungated `open.*` ladder).

use std::time::{Duration, Instant};

use obsplane::MetricsRegistry;
use switchpointer::query::QueryRequest;
use wireplane::{Error as WireError, WireClient, WireCluster};

use crate::fixture::{Fixture, Reference, SetupError, SWEEP_RANGE};
use crate::probes;
use crate::run::{
    repeat_setup, us, wire_cfg, EndToEnd, GaugeMax, RunCfg, RunResult, SETUPS, SHARD_SERVERS,
};
use crate::stats::{
    backlog_growing, backlog_max, open_schedule, percentile, Arrival, Served, Sliced,
};
use crate::trace::{
    exec_layers, p50, p99, pool_layers, render_self_time, tail_metrics, write_trace_file, Layer,
    QueryJoiner, RegistryDelta, RegistryProbe, SelfTimeRow, SpanLog,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fanout,
    Sweep,
}

/// Offered rates of the open-loop ladder, queries per second.
const OPEN_LADDER: [(f64, &str); 3] = [(100.0, "r100"), (200.0, "r200"), (400.0, "r400")];
/// Client connections (= generator threads) of the open loop.
const OPEN_CONNS: usize = 2;
/// Distinct never-ran flows the sweep cycles through.
const SWEEP_FLOWS: usize = 16;
/// Failed operations after which a phase gives up: a broken deployment
/// must not be timed for the rest of the run.
const MAX_FAILURES: u64 = 20;

pub struct Deployment {
    pub fx: Fixture,
    pub cluster: WireCluster,
}

pub fn deploy(seed: u64) -> Result<Deployment, SetupError> {
    let fx = Fixture::build(seed)?;
    let cluster = WireCluster::launch(&fx.analyzer, SHARD_SERVERS, wire_cfg())?;
    // A first connection is part of being ready to serve.
    drop(cluster.client()?);
    Ok(Deployment { fx, cluster })
}

/// Every registry of the deployment: the front-end's, then each shard
/// server's. Their metric names do not collide, so they merge into one
/// view.
pub fn registries(cluster: &WireCluster) -> impl Iterator<Item = &MetricsRegistry> {
    std::iter::once(&**cluster.front_metrics())
        .chain((0..SHARD_SERVERS).map(|i| &**cluster.server_metrics(i)))
}

fn spans_lost(cluster: &WireCluster) -> u64 {
    registries(cluster).map(|r| r.tracer().lost()).sum()
}

/// One blocking client connection issuing the request cycle in order.
struct Driver<'a> {
    cluster: &'a WireCluster,
    client: WireClient,
    requests: &'a [QueryRequest],
    reference: Reference,
    next: usize,
    attempted: u64,
    failed: u64,
    refused: u64,
}

impl<'a> Driver<'a> {
    fn new(
        cluster: &'a WireCluster,
        requests: &'a [QueryRequest],
        reference: Reference,
    ) -> Result<Self, SetupError> {
        Ok(Driver {
            cluster,
            client: cluster.client()?,
            requests,
            reference,
            next: 0,
            attempted: 0,
            failed: 0,
            refused: 0,
        })
    }

    /// One query. Only the call is timed; the answer is checked against
    /// the reference afterwards. A failed operation yields no sample.
    fn op(&mut self, i: usize) -> Option<(Instant, Instant)> {
        self.attempted += 1;
        let t0 = Instant::now();
        let reply = self.client.query(&self.requests[i]);
        let t1 = Instant::now();
        match reply {
            Ok(resp) if self.reference.matches(i, &resp) => Some((t0, t1)),
            Ok(_) => {
                self.failed += 1;
                None
            }
            Err(e) => {
                self.failed += 1;
                if !matches!(e, WireError::Io { .. }) {
                    self.refused += 1;
                }
                // The stream may be mid-frame: start over on a fresh one.
                if let Ok(c) = self.cluster.client() {
                    self.client = c;
                }
                None
            }
        }
    }

    /// A closed loop for `dur`: the next request goes out when the
    /// previous one has been answered (and checked). `after` runs between
    /// operations, untimed.
    fn closed_phase(
        &mut self,
        dur: Duration,
        mut after: impl FnMut(&WireCluster, Instant, Instant),
    ) -> Sliced {
        let start = Instant::now();
        let mut sliced = Sliced::new(dur.as_nanos() as u64);
        while start.elapsed() < dur && self.failed < MAX_FAILURES {
            let i = self.next % self.requests.len();
            self.next += 1;
            if let Some((t0, t1)) = self.op(i) {
                sliced.record(
                    t1.duration_since(start).as_nanos() as u64,
                    t1.duration_since(t0).as_nanos() as u64,
                );
                after(self.cluster, t0, t1);
            }
        }
        sliced
    }

    /// This connection's share of an open-loop schedule: each request is
    /// sent when it is due, or as soon after as the previous answer is
    /// in — the wait is charged to the request that waited.
    fn open_phase(&mut self, start: Instant, mine: &[Arrival]) -> Vec<Served> {
        let mut served = Vec::with_capacity(mine.len());
        for a in mine {
            if self.failed >= MAX_FAILURES {
                break;
            }
            let due = start + Duration::from_nanos(a.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if let Some((t0, t1)) = self.op(a.request) {
                served.push(Served {
                    due_ns: a.due_ns,
                    sent_ns: t0.duration_since(start).as_nanos() as u64,
                    done_ns: t1.duration_since(start).as_nanos() as u64,
                    conn: a.conn,
                });
            }
        }
        served
    }
}

fn end_to_end(sliced: &Sliced, setup_s: f64) -> EndToEnd {
    EndToEnd {
        op_p50_us: us(sliced.quantile(0.5)),
        op_p90_us: us(sliced.quantile(0.9)),
        ops_per_s: sliced.rate_per_s(1.0),
        setup_s,
    }
}

pub fn run(kind: Kind, cfg: RunCfg) -> Result<RunResult, SetupError> {
    let setups = if cfg.traced { 1 } else { SETUPS };
    let (mut dep, setup_s) = repeat_setup(setups, || deploy(cfg.seed), |d| d.cluster.shutdown())?;
    let seed = dep.fx.effective_seed;
    let requests = match kind {
        Kind::Fanout => dep.fx.fanout_requests(seed),
        Kind::Sweep => dep.fx.sweep_requests(seed, SWEEP_FLOWS, SWEEP_RANGE),
    };
    let reference = Reference::new(&dep.fx.analyzer, &requests);
    let mut out = RunResult::default();
    let ran = if cfg.traced {
        closed_traced(kind, &dep.cluster, &requests, &reference, cfg, &mut out)
    } else {
        closed_untraced(&dep.cluster, &requests, &reference, cfg, &mut out).map(|sliced| {
            out.e2e = Some(end_to_end(&sliced, setup_s));
        })
    };
    if ran.is_ok() && cfg.traced {
        if let Err(e) = probes::transport_probes(&dep.fx, &dep.cluster, &mut out.layer) {
            out.unhealthy.push(format!("transport probes failed: {e}"));
        }
        probes::fixture_probes(&mut dep.fx, &mut out.layer);
        attribute(&mut out.layer);
        out.report
            .push_str(&self_time_report(kind_name(kind), &out.layer));
        out.unhealthy.extend(health(&out.layer));
    }
    dep.cluster.shutdown();
    ran.map(|()| out)
}

fn closed_untraced(
    cluster: &WireCluster,
    requests: &[QueryRequest],
    reference: &Reference,
    cfg: RunCfg,
    out: &mut RunResult,
) -> Result<Sliced, SetupError> {
    let mut d = Driver::new(cluster, requests, reference.clone())?;
    d.closed_phase(cfg.warmup(), |_, _, _| {});
    let sliced = d.closed_phase(cfg.phase(), |_, _, _| {});
    // Warm-up answers are checked like any other: a wrong answer is
    // wrong whenever it arrives.
    out.attempted = d.attempted;
    out.failed = d.failed;
    Ok(sliced)
}

/// The traced run of a closed-loop workload: warm-up, an untraced phase
/// (the base of `trace.overhead_pct`), then the traced phase every
/// per-layer number comes from.
fn closed_traced(
    kind: Kind,
    cluster: &WireCluster,
    requests: &[QueryRequest],
    reference: &Reference,
    cfg: RunCfg,
    out: &mut RunResult,
) -> Result<(), SetupError> {
    let mut d = Driver::new(cluster, requests, reference.clone())?;
    d.closed_phase(cfg.warmup(), |_, _, _| {});

    // The cost of observing: one phase cut into six, tracing off and on
    // in turn, so that the box's slow drift lands on both sides alike.
    let tracer = cluster.front_metrics().tracer();
    let (mut untraced, mut observed) = (Vec::new(), Vec::new());
    for i in 0..6u32 {
        tracer.set_sample_rate(i % 2);
        let mini = d.closed_phase(cfg.phase() / 6, |_, _, _| {});
        if i % 2 == 0 {
            &mut untraced
        } else {
            &mut observed
        }
        .extend(mini.all_sorted());
    }
    tracer.set_sample_rate(0);
    untraced.sort_unstable();
    observed.sort_unstable();

    // A sweep query leaves ~1 000 wire spans in one 1 024-slot ring
    // bucket: pull the rings after every query. Fan-out queries leave
    // ~11, so a batch fits easily.
    let scrape_every = if kind == Kind::Sweep { 1 } else { 32 };
    let tracing = Tracing::start(cluster);
    let mut log = SpanLog::new();
    let mut joiner = QueryJoiner::new();
    joiner.skip_existing(cluster);
    let before = (d.attempted, d.failed);
    let mut op = 0u64;
    d.closed_phase(cfg.phase(), |cluster, t0, t1| {
        log.push("client.query", t0, t1, None, op);
        op += 1;
        joiner.client_call(t1.duration_since(t0).as_nanos() as u64);
        if joiner.pending() >= scrape_every {
            joiner.scrape(cluster, true);
        }
    });
    joiner.scrape(cluster, true);
    let measured = tracing.finish(cluster);

    out.attempted = d.attempted;
    out.failed = d.failed;
    let queries = (d.attempted - before.0) - (d.failed - before.1);
    wire_layers(&log, &joiner, &measured, queries, d.refused, &mut out.layer);
    let (base, with) = (
        percentile(&untraced, 0.5) as f64,
        percentile(&observed, 0.5) as f64,
    );
    if base > 0.0 {
        out.layer
            .insert("trace.overhead_pct".into(), (with - base) / base * 100.0);
    }
    write_trace_file(kind_name(kind), &log, &joiner.sample_trees);
    tail_metrics(&untraced, 1.0, &mut out.layer);
    if kind == Kind::Fanout {
        open_ladder(cluster, requests, reference, cfg, out)?;
    }
    Ok(())
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Fanout => "wire_fanout",
        Kind::Sweep => "wire_sweep",
    }
}

/// What the registries and counters recorded over a traced phase.
pub struct Measured {
    pub delta: RegistryDelta,
    pub frames: u64,
    pub bytes: u64,
    pub queue_depth_max: f64,
    pub spans_lost: u64,
    pub reconnects: u64,
    pub failovers: u64,
}

/// Turns tracing on and marks the start of the measured interval.
pub struct Tracing {
    probe: RegistryProbe,
    frames: u64,
    bytes: u64,
    lost: u64,
    reconnects: u64,
    failovers: u64,
    depth: GaugeMax,
}

impl Tracing {
    pub fn start(cluster: &WireCluster) -> Tracing {
        cluster.front_metrics().tracer().set_sample_rate(1);
        Tracing {
            probe: RegistryProbe::start(registries(cluster)),
            frames: cluster.front().wire_frames_sent(),
            bytes: cluster.front().wire_bytes_sent(),
            lost: spans_lost(cluster),
            reconnects: cluster.front().shard_reconnects(),
            failovers: cluster.front().shard_failovers(),
            depth: GaugeMax::watch(cluster.front_metrics().gauge("pool.queue_depth")),
        }
    }

    /// Marks the end of the interval and turns tracing off again.
    pub fn finish(self, cluster: &WireCluster) -> Measured {
        let m = Measured {
            delta: self.probe.since(registries(cluster)),
            frames: cluster.front().wire_frames_sent() - self.frames,
            bytes: cluster.front().wire_bytes_sent() - self.bytes,
            queue_depth_max: self.depth.finish(),
            spans_lost: spans_lost(cluster) - self.lost,
            reconnects: cluster.front().shard_reconnects() - self.reconnects,
            failovers: cluster.front().shard_failovers() - self.failovers,
        };
        cluster.front_metrics().tracer().set_sample_rate(0);
        m
    }
}

/// The per-layer metrics of the wireplane and the layers under it, from
/// one traced phase of `queries` successful queries.
pub fn wire_layers(
    log: &SpanLog,
    joiner: &QueryJoiner,
    m: &Measured,
    queries: u64,
    refused: u64,
    out: &mut Layer,
) {
    let q = queries.max(1) as f64;
    let mut set = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    // wireplane::client — the harness span around `WireClient::query`.
    let client = log.durations("client.query");
    set("client.query_ns.p50", p50(client.iter().copied()));
    set("client.query_ns.p99", p99(client.iter().copied()));

    // wireplane::frontend — the front-end's own span tree per query.
    let j = &joiner.joined;
    let ordered = j.iter().all(|b| b.client_ns > 0);
    let hop = if ordered {
        p50(j.iter().map(|b| b.client_ns.saturating_sub(b.root_ns)))
    } else {
        // Concurrent connections cannot be joined call by call; the
        // medians still subtract.
        (p50(client.iter().copied()) - p50(j.iter().map(|b| b.root_ns))).max(0.0)
    };
    set("client.hop_ns.p50", hop);
    set("front.enqueue_ns.p50", p50(j.iter().map(|b| b.enqueue_ns)));
    set("front.exec_ns.p50", p50(j.iter().map(|b| b.exec_ns)));
    set(
        "front.self_ns.p50",
        p50(j.iter().map(|b| b.exec_ns.saturating_sub(b.wire_cover_ns))),
    );
    set("front.rounds_per_query", p50(j.iter().map(|b| b.rounds)));
    let rtt = m.delta.hist_merged("wire.rtt_ns.shard");
    set("front.rpcs_per_query", rtt.count as f64 / q);

    // wireplane::mux
    set(
        "mux.wire_ns_per_query.p50",
        p50(j.iter().map(|b| b.wire_cover_ns)),
    );
    set("mux.rtt_ns.p50", rtt.quantile(0.5) as f64);
    set("mux.rtt_ns.p99", rtt.quantile(0.99) as f64);
    set("mux.frames_per_query", m.frames as f64 / q);
    set("mux.bytes_per_query", m.bytes as f64 / q);
    set(
        "mux.combine_ratio",
        rtt.count as f64 / (m.frames.max(1)) as f64,
    );

    // wireplane::server — the shard servers' own histograms.
    let serve = m.delta.hist("wire.serve_ns");
    set(
        "server.decode_ns_per_query",
        m.delta.hist("wire.decode_ns").sum as f64 / q,
    );
    set("server.serve_ns_per_query", serve.sum as f64 / q);
    set(
        "server.encode_ns_per_query",
        m.delta.hist("wire.encode_ns").sum as f64 / q,
    );
    set("server.serve_ns.p99", serve.quantile(0.99) as f64);
    set(
        "server.frames_served_per_query",
        m.delta.counter("wire.frames_served") as f64 / q,
    );
    set(
        "server.wait_ns.p50",
        p50(joiner.wait_samples.iter().copied()),
    );

    // queryplane::pool — the front-end's pool.
    pool_layers(&m.delta, m.queue_depth_max, out);
    // switchpointer::query — in situ, per class.
    exec_layers(&m.delta, out);

    let mut set = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    set("fail.reconnects", m.reconnects as f64);
    set("fail.failovers", m.failovers as f64);
    set("fail.refused", refused as f64);
    set("trace.spans_lost", m.spans_lost as f64);
    set("trace.spans_per_query", p50(j.iter().map(|b| b.spans)));
    let calls = j.len() as u64 + joiner.unjoined;
    set("trace.join_rate", j.len() as f64 / calls.max(1) as f64);
}

/// What no span and no probe-product explains, as a share of the client
/// span. Spans partition `client.query` into hop + enqueue + exec, `exec`
/// into front self-time + wire, and each `wire` into server wait +
/// serve; a span's self-time belongs to the layer that recorded it. Only
/// the client↔front hop has no span of its own: a null-server round trip
/// plus the reply codec (both probed) is what it should cost, and the
/// rest of it is unattributed.
pub fn attribute(l: &mut Layer) {
    let g = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let client = g("client.query_ns.p50");
    if client <= 0.0 {
        return;
    }
    let null_rtt = g("probe.mux.null_rtt_ns");
    let hop_floor =
        null_rtt + g("probe.proto.encode_ns.query_rep") + g("probe.proto.decode_ns.query_rep");
    let hop_gap = (g("client.hop_ns.p50") - hop_floor).max(0.0);
    l.insert("trace.unattributed_pct".into(), hop_gap / client * 100.0);
}

/// The self-time table of a wire workload, from its per-layer medians.
fn self_time_report(workload: &str, l: &Layer) -> String {
    let g = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let client = g("client.query_ns.p50");
    let (hop, enqueue, exec) = (
        g("client.hop_ns.p50"),
        g("front.enqueue_ns.p50"),
        g("front.exec_ns.p50"),
    );
    let wire = g("mux.wire_ns_per_query.p50");
    let serve = g("server.serve_ns_per_query");
    let rows = [
        SelfTimeRow {
            span: "client.query",
            depth: 0,
            dur_ns: client,
            self_ns: hop,
        },
        SelfTimeRow {
            span: "front.query",
            depth: 1,
            dur_ns: enqueue + exec,
            self_ns: 0.0,
        },
        SelfTimeRow {
            span: "front.enqueue",
            depth: 2,
            dur_ns: enqueue,
            self_ns: enqueue,
        },
        SelfTimeRow {
            span: "front.exec",
            depth: 2,
            dur_ns: exec,
            self_ns: g("front.self_ns.p50"),
        },
        SelfTimeRow {
            span: "mux.wire (covered)",
            depth: 3,
            dur_ns: wire,
            self_ns: (wire - serve).max(0.0),
        },
        SelfTimeRow {
            span: "server.serve (sum)",
            depth: 4,
            dur_ns: serve,
            self_ns: serve,
        },
    ];
    render_self_time(workload, &rows, g("trace.unattributed_pct"))
}

/// What keeps a run from being healthy: any reconnect, failover,
/// refusal, re-bootstrap or lost span.
pub fn health(l: &Layer) -> Vec<String> {
    [
        "fail.reconnects",
        "fail.failovers",
        "fail.refused",
        "trace.spans_lost",
        "repl.bootstraps",
    ]
    .into_iter()
    .filter_map(|k| {
        let v = l.get(k).copied().unwrap_or(0.0);
        (v != 0.0).then(|| format!("{k} = {v}"))
    })
    .collect()
}

// ----------------------------------------------------------------------
// Open loop
// ----------------------------------------------------------------------

struct OpenOutcome {
    sliced: Sliced,
    served: Vec<Served>,
}

/// Half a phase of open-loop load at `rate` over [`OPEN_CONNS`] generator
/// threads, one blocking connection each. The schedule is fixed before
/// the first request goes out.
fn open_phase(
    cluster: &WireCluster,
    requests: &[QueryRequest],
    reference: &Reference,
    cfg: RunCfg,
    rate: f64,
    out: &mut RunResult,
) -> Result<OpenOutcome, SetupError> {
    let phase = cfg.phase() / 2;
    let schedule = open_schedule(
        cfg.seed ^ rate.to_bits(),
        rate,
        phase.as_nanos() as u64,
        OPEN_CONNS,
        requests.len(),
    );
    let mut drivers = (0..OPEN_CONNS)
        .map(|_| Driver::new(cluster, requests, reference.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut served: Vec<Served> = std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .enumerate()
            .map(|(c, d)| {
                let mine: Vec<Arrival> = schedule.iter().filter(|a| a.conn == c).copied().collect();
                s.spawn(move || d.open_phase(start, &mine))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    served.sort_by_key(|s| s.due_ns);
    let mut sliced = Sliced::new(phase.as_nanos() as u64);
    for s in &served {
        sliced.record(s.done_ns, s.latency_ns());
    }
    for d in &drivers {
        out.attempted += d.attempted;
        out.failed += d.failed;
    }
    // Scheduled but never sent (a phase that gave up) is failed work too.
    let sent: u64 = drivers.iter().map(|d| d.attempted).sum();
    out.failed += schedule.len() as u64 - sent.min(schedule.len() as u64);
    Ok(OpenOutcome { sliced, served })
}

fn ladder_metrics(tag: &str, o: &OpenOutcome, out: &mut Layer) {
    out.insert(
        format!("open.p50_us.{tag}"),
        o.sliced.quantile(0.5).value / 1e3,
    );
    out.insert(
        format!("open.p90_us.{tag}"),
        o.sliced.quantile(0.9).value / 1e3,
    );
    out.insert(
        format!("open.late_max_us.{tag}"),
        o.served.iter().map(Served::late_ns).max().unwrap_or(0) as f64 / 1e3,
    );
    out.insert(
        format!("open.backlog_max.{tag}"),
        backlog_max(&o.served) as f64,
    );
}

/// The open-loop ladder: the fan-out queries offered at three fixed
/// rates, untraced, each rung half a phase long. Shows where latency
/// starts rising before throughput stops — on 2 cores shared by ~10
/// threads, freeing CPU in any layer buys more than its share here.
fn open_ladder(
    cluster: &WireCluster,
    requests: &[QueryRequest],
    reference: &Reference,
    cfg: RunCfg,
    out: &mut RunResult,
) -> Result<(), SetupError> {
    for (rate, tag) in OPEN_LADDER {
        let o = open_phase(cluster, requests, reference, cfg, rate, out)?;
        ladder_metrics(tag, &o, &mut out.layer);
        if backlog_growing(&o.served) {
            out.report.push_str(&format!(
                "open loop @ {rate}/s: the backlog grows — above the sustainable rate\n"
            ));
        }
    }
    Ok(())
}
