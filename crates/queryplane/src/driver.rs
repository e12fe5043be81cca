//! The batch driver: the one loop both planes run their queries through.
//!
//! The paper's analyzer answers a query in rounds (§4.3, §5): retrieve the
//! pointers of the switches it names, decode them, then contact the hosts
//! they decode to. [`execute`] runs a whole batch of queries that way over
//! any [`ShardBackend`] — the in-process plane over one
//! [`LocalBackend`](switchpointer::shard::LocalBackend) per directory
//! shard of its published snapshot, the wire front-end over its remote
//! shard links — in four steps:
//!
//! 1. **Coalesce.** Requests are keyed by the whole [`QueryRequest`]; only
//!    the distinct ones run, in first-occurrence order.
//! 2. **Scatter.** The distinct requests are cut into chunks over the
//!    [`WorkerPool`], under the caller's dispatch keys and chunk rule.
//! 3. **Lock-step.** A chunk's queries run together through the staged
//!    executor ([`lock_step`]): start every query, then repeat {flush
//!    every backend once; resume every unfinished query} until all have
//!    answered. Each query keeps its own [`BackendRouter`] and its own
//!    [`RouterCounters`]; what they share is the flush, so a chunk's round
//!    reaches each remote shard as one envelope however many queries it
//!    holds. Over backends that answer in process every query is done at
//!    its start and the loop never turns.
//! 4. **Stitch.** Every slot gets its request's outcome. A repeat shares
//!    the first occurrence's `Arc`'d response and trace — a refcount bump
//!    each, nothing copied — with zeroed counters, since it decoded
//!    nothing, and counts in `queryplane.coalesced`, so per-shard fan-out
//!    sums to work actually done.
//!
//! Answers are a pure function of the state the backends serve, so the
//! outcomes are independent of worker count, chunk size, dispatch keys
//! and steal schedule.

use std::sync::Arc;
use std::time::Instant;

use obsplane::{Counter, Histogram, MetricsRegistry, SpanEvent, SpanRecord, TraceContext};
use switchpointer::keyhash::KeyMap;
use switchpointer::query::{
    ExecutionTrace, QueryExecutor, QueryRequest, QueryResponse, Stage, Staged, QUERY_CLASS_NAMES,
};
use switchpointer::shard::{
    BackendRouter, RouterCounters, ShardBackend, ShardFanout, ShardedDirectory,
};
use switchpointer::{Analyzer, Deployment};

use crate::pool::WorkerPool;

/// What every executor of a plane shares: the analyzer's [`Deployment`]
/// (the same `Arc`, not a copy), its directory hash-partitioned into the
/// plane's shards, and the plane's [`MetricsRegistry`], so the driver
/// records per-query-class execution latency, spans and coalesced copies
/// without extra plumbing. Shared across worker threads by `Arc`.
pub struct SharedCtx {
    pub deployment: Arc<Deployment>,
    pub dir: ShardedDirectory,
    /// The owning plane's metric registry (shared with the stream plane
    /// and scrapeable over the wire).
    pub metrics: Arc<MetricsRegistry>,
    /// `queryplane.exec_ns.<class>` histograms pre-resolved per query
    /// class (indexed by [`QueryRequest::class_index`]) so the worker hot
    /// path records without a registry lookup.
    pub(crate) exec_hists: Vec<Arc<Histogram>>,
    /// `queryplane.coalesced`: submitted slots answered by another slot's
    /// execution.
    pub(crate) coalesced: Arc<Counter>,
}

impl SharedCtx {
    /// The context of a plane over `analyzer`'s deployment with its
    /// directory cut into `dir_shards` shards, resolving the per-class
    /// execution histograms and the coalesced-copy counter out of
    /// `metrics` once.
    pub fn new(analyzer: &Analyzer, dir_shards: usize, metrics: Arc<MetricsRegistry>) -> Self {
        let exec_hists = QUERY_CLASS_NAMES
            .iter()
            .map(|class| metrics.histogram(&format!("queryplane.exec_ns.{class}")))
            .collect();
        SharedCtx {
            deployment: Arc::clone(analyzer.ctx()),
            dir: ShardedDirectory::new(
                analyzer.directory().mphf().clone(),
                &analyzer.all_hosts(),
                dir_shards,
            ),
            coalesced: metrics.counter("queryplane.coalesced"),
            metrics,
            exec_hists,
        }
    }

    /// The epoch a request is keyed to for span tracing: the range's
    /// upper epoch for range queries, the trigger window's epoch for
    /// trigger-anchored diagnoses.
    pub(crate) fn span_epoch(&self, req: &QueryRequest) -> u64 {
        match *req {
            QueryRequest::Contention { trigger_window, .. }
            | QueryRequest::RedLights { trigger_window, .. }
            | QueryRequest::Cascade { trigger_window, .. } => {
                self.deployment.params.epoch_of(trigger_window)
            }
            QueryRequest::LoadImbalance { range, .. }
            | QueryRequest::TopK { range, .. }
            | QueryRequest::SilentDrop { range, .. } => range.hi,
        }
    }
}

/// One query's answer as the driver hands it back: the (bit-identical)
/// response, the executor's trace of what the answer read, and what its
/// router counted: per-shard fan-out, backend calls and rounds.
/// The response and the trace sit behind `Arc`s so the slots of a batch
/// that asked the same question share one of each; a caller that owns
/// the only handle takes the value out with `Arc::unwrap_or_clone`,
/// which then copies nothing.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub response: Arc<QueryResponse>,
    pub trace: Arc<ExecutionTrace>,
    pub counters: RouterCounters,
}

/// The spans an execution leaves in the context's tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spans {
    /// One untraced `exec` span per execution, keyed (class, epoch, home
    /// shard): the in-process plane, which mints no traces.
    Exec,
    /// A trace minted per query where the batch enters, head-sampled by
    /// the tracer: a root `query` span (batch entry → answer) with its
    /// `enqueue` and `exec` children, and every shard exchange's `wire`
    /// span linked under the exec span. Where the tracer mints none
    /// (sampling off), one untraced `exec` span with `shard = u32::MAX`:
    /// the wire front-end.
    Minted,
}

/// Runs a batch: coalesce → scatter → stitch around the caller's chunk
/// runner, which drives each chunk's requests — normally [`lock_step`]
/// over the caller's backends — and returns one outcome per request of
/// the chunk, in order. Returns one outcome per slot of `requests`, in
/// submission order.
///
/// `keys` (one per slot of `requests`) steer each distinct request's
/// initial placement by its first occurrence's key (see
/// [`WorkerPool::scatter`]); `chunk(distinct, workers)` sizes the chunks.
/// `run_chunk` also gets the instant the batch was handed to the pool.
/// A panic inside it is re-raised here after the other chunks complete.
pub fn execute<F>(
    pool: &WorkerPool,
    ctx: &SharedCtx,
    requests: &[QueryRequest],
    keys: Option<&[usize]>,
    chunk: impl FnOnce(usize, usize) -> usize,
    run_chunk: F,
) -> Vec<QueryOutcome>
where
    F: Fn(&[QueryRequest], Instant) -> Vec<QueryOutcome> + Send + Sync + 'static,
{
    if requests.is_empty() {
        return Vec::new();
    }
    // `first[i]` is the lowest slot asking slot `i`'s question; the slots
    // with `first[i] == i` are the distinct requests, in first-occurrence
    // order.
    let mut first_slot: KeyMap<QueryRequest, usize> =
        KeyMap::with_capacity_and_hasher(requests.len(), Default::default());
    let first: Vec<usize> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| *first_slot.entry(*r).or_insert(i))
        .collect();
    let distinct_slots: Vec<usize> = (0..requests.len()).filter(|&i| first[i] == i).collect();
    let distinct: Arc<[QueryRequest]> = distinct_slots.iter().map(|&i| requests[i]).collect();
    let keys: Option<Vec<usize>> = keys.map(|k| distinct_slots.iter().map(|&i| k[i]).collect());
    let chunk = chunk(distinct.len(), pool.workers());

    let started = Instant::now();
    let reqs = Arc::clone(&distinct);
    let executed = pool.scatter(
        distinct.len(),
        keys.as_deref(),
        Some(chunk),
        move |_w, idxs| {
            let chunk: Vec<QueryRequest> = idxs.iter().map(|&i| reqs[i]).collect();
            run_chunk(&chunk, started)
        },
    );
    ctx.coalesced.add((requests.len() - distinct.len()) as u64);

    // A first occurrence takes its execution; a repeat shares the
    // response and the trace of its first occurrence, which already sits
    // at a lower index of `outcomes`.
    let n_shards = ctx.dir.n_shards();
    let mut executed = executed.into_iter();
    let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(requests.len());
    for (i, &f) in first.iter().enumerate() {
        let outcome = if f == i {
            executed.next().expect("one outcome per distinct request")
        } else {
            let original = &outcomes[f];
            QueryOutcome {
                response: Arc::clone(&original.response),
                trace: Arc::clone(&original.trace),
                counters: RouterCounters {
                    fanout: ShardFanout::new(n_shards),
                    ..RouterCounters::default()
                },
            }
        };
        outcomes.push(outcome);
    }
    outcomes
}

/// One query of a chunk between its start and its answer: exactly one of
/// `stage` (a round in flight) and `answer` is set once started.
struct Running<'r> {
    req: &'r QueryRequest,
    /// The root and exec trace contexts, when the query is traced.
    ctx: Option<TraceContext>,
    exec_ctx: Option<TraceContext>,
    started: Instant,
    stage: Option<Stage<'r>>,
    answer: Option<(QueryResponse, ExecutionTrace)>,
}

/// One execution as its chunk's metrics flush records it: a sample of its
/// class's exec histogram and, unless its traced span group was already
/// submitted, one untraced span.
struct Executed {
    class: usize,
    started: Instant,
    done: Instant,
    /// The untraced span's (epoch, shard), still to be recorded.
    span: Option<(u64, u32)>,
}

/// Drives one chunk in lock-step over `backends` (one per directory shard
/// of `ctx.dir`, in shard order): start every query, then repeat {flush
/// every backend once; resume every unfinished query} until all have
/// answered. Between two flushes every query only *issues*, so the
/// chunk's round reaches each shard as one unit, and a resume finds its
/// replies sent for, if not already there. `batch_started` is when the
/// batch entered the pool.
///
/// What the chunk's executions leave in the shared histograms and the
/// tracer's ring is recorded once the chunk has answered (a traced
/// query's span group as it answers), so those shared atomics and the
/// ring's lock are touched once per chunk, not once per query.
pub fn lock_step<B: ShardBackend>(
    ctx: &SharedCtx,
    backends: &[B],
    spans: Spans,
    reqs: &[QueryRequest],
    batch_started: Instant,
) -> Vec<QueryOutcome> {
    let tracer = ctx.metrics.tracer();
    let routers: Vec<BackendRouter<'_, B>> = reqs
        .iter()
        .map(|_| BackendRouter::new(backends, &ctx.dir))
        .collect();
    let mut executed: Vec<Executed> = Vec::with_capacity(reqs.len());
    let mut queries: Vec<Running<'_>> = reqs
        .iter()
        .zip(&routers)
        .map(|(req, router)| {
            // Where a trace is born: one root per request, minted at the
            // batch's entry. The exec child context rides the thread-local
            // through every step of the executor, so every shard
            // exchange's wire span links under the exec span.
            let trace = match spans {
                Spans::Exec => None,
                Spans::Minted => tracer.mint_trace(),
            };
            let mut query = Running {
                req,
                ctx: trace,
                exec_ctx: trace.map(|c| c.child(tracer.next_span_id())),
                started: Instant::now(),
                stage: None,
                answer: None,
            };
            let exec = QueryExecutor::new(&ctx.deployment, router);
            advance(ctx, spans, &mut query, batch_started, &mut executed, || {
                exec.start(req)
            });
            query
        })
        .collect();
    while queries.iter().any(|q| q.stage.is_some()) {
        for backend in backends {
            backend.flush();
        }
        for query in &mut queries {
            if let Some(stage) = query.stage.take() {
                advance(ctx, spans, query, batch_started, &mut executed, || {
                    stage.resume()
                });
            }
        }
    }
    flush(ctx, &executed);
    queries
        .into_iter()
        .zip(&routers)
        .map(|(query, router)| {
            let (response, trace) = query.answer.expect("the loop ran every query to Done");
            QueryOutcome {
                response: Arc::new(response),
                trace: Arc::new(trace),
                counters: router.counters(),
            }
        })
        .collect()
}

/// Records a chunk's executions: each class's exec-histogram samples in
/// one go, then the untraced spans as one group.
fn flush(ctx: &SharedCtx, executed: &[Executed]) {
    for (class, hist) in ctx.exec_hists.iter().enumerate() {
        hist.record_all(
            executed
                .iter()
                .filter(|x| x.class == class)
                .map(|x| saturating_ns(x.done.duration_since(x.started))),
        );
    }
    let spans: Vec<SpanRecord> = executed
        .iter()
        .filter_map(|x| {
            x.span.map(|(epoch, shard)| SpanRecord {
                class: QUERY_CLASS_NAMES[x.class],
                epoch,
                shard,
                started: x.started,
                done: x.done,
            })
        })
        .collect();
    ctx.metrics.tracer().record_all(&spans);
}

/// Runs one step of `query` under its trace context and files what comes
/// back: the next stage, or the answer — noted in `executed` for the
/// chunk's metrics flush, and a traced query's span group submitted the
/// moment it exists.
fn advance<'r>(
    ctx: &SharedCtx,
    spans: Spans,
    query: &mut Running<'r>,
    batch_started: Instant,
    executed: &mut Vec<Executed>,
    step: impl FnOnce() -> Staged<'r>,
) {
    let (resp, trace) = match obsplane::with_context(query.exec_ctx, step) {
        Staged::Pending(stage) => {
            query.stage = Some(stage);
            return;
        }
        Staged::Done(resp, trace) => (resp, trace),
    };
    query.answer = Some((resp, trace));
    let (req, started, done) = (query.req, query.started, Instant::now());
    let tracer = ctx.metrics.tracer();
    let epoch = ctx.span_epoch(req);
    let span = match (query.ctx, query.exec_ctx) {
        (Some(c), Some(e)) => {
            // The root "query" span covers batch entry → done (the e2e the
            // client feels), and its two children partition it exactly:
            // enqueue (pool wait, and in a chunk the starts ahead of this
            // one) + exec (start → answer, the other queries' steps of the
            // lock-step included).
            let span = |stage, span_id, parent_id, from: Instant, dur, steals| SpanEvent {
                class: req.class_name(),
                stage,
                epoch,
                shard: u32::MAX,
                start_ns: tracer.offset_ns(from),
                dur_ns: saturating_ns(dur),
                trace_id: c.trace_id,
                span_id,
                parent_id,
                steals,
            };
            let steals = u32::from(obsplane::chunk_stolen());
            let group = [
                span(
                    "query",
                    c.span_id,
                    0,
                    batch_started,
                    done.duration_since(batch_started),
                    0,
                ),
                span(
                    "enqueue",
                    tracer.next_span_id(),
                    c.span_id,
                    batch_started,
                    started.duration_since(batch_started),
                    0,
                ),
                span(
                    "exec",
                    e.span_id,
                    c.span_id,
                    started,
                    done.duration_since(started),
                    steals,
                ),
            ];
            tracer.submit_all(&group, c.sampled);
            None
        }
        _ => {
            let shard = match spans {
                Spans::Exec => crate::home_shard(req, ctx.dir.n_shards()) as u32,
                Spans::Minted => u32::MAX,
            };
            Some((epoch, shard))
        }
    };
    executed.push(Executed {
        class: req.class_index(),
        started,
        done,
        span,
    });
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::chunk_size;
    use crate::snapshot::Snapshot;
    use netsim::prelude::*;
    use switchpointer::testbed::{Testbed, TestbedConfig};
    use telemetry::EpochRange;

    fn test_ctx_and_snapshot() -> (Arc<SharedCtx>, Arc<Snapshot>, Testbed) {
        let topo = Topology::chain(3, 2, GBPS);
        let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
        let (a, f) = (tb.node("A"), tb.node("F"));
        tb.sim.add_udp_flow(UdpFlowSpec {
            src: a,
            dst: f,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(2),
            rate_bps: 100_000_000,
            payload_bytes: 1458,
        });
        tb.sim.run_until(SimTime::from_ms(5));
        let analyzer = tb.analyzer();
        let ctx = Arc::new(SharedCtx::new(
            &analyzer,
            2,
            Arc::new(MetricsRegistry::new()),
        ));
        let snapshot = Arc::new(Snapshot::capture(&analyzer, 8));
        (ctx, snapshot, tb)
    }

    /// The driver over one `LocalBackend` per directory shard of
    /// `snapshot`, as the in-process plane runs it.
    fn run_local(
        pool: &WorkerPool,
        ctx: &Arc<SharedCtx>,
        snapshot: &Arc<Snapshot>,
        reqs: &[QueryRequest],
        keys: Option<&[usize]>,
    ) -> Vec<QueryOutcome> {
        let (c, s) = (Arc::clone(ctx), Arc::clone(snapshot));
        execute(pool, ctx, reqs, keys, chunk_size, move |chunk, started| {
            let backends = c.dir.local_backends(&*s);
            lock_step(&c, &backends, Spans::Exec, chunk, started)
        })
    }

    /// Every request executes, results come back in submission order
    /// (each request's distinct epoch range is echoed through its trace's
    /// pointer keys, so a mis-assigned or mis-merged chunk is detectable
    /// even where responses coincide), and answers equal the sequential
    /// analyzer's.
    #[test]
    fn run_merges_all_requests_in_submission_order_at_any_width() {
        let (ctx, snapshot, tb) = test_ctx_and_snapshot();
        let analyzer = tb.analyzer();
        let s2 = tb.node("S2");
        let reqs: Vec<QueryRequest> = (0..10)
            .map(|i| QueryRequest::TopK {
                switch: s2,
                k: 5,
                range: EpochRange { lo: 0, hi: i },
            })
            .collect();
        let expected: Vec<String> = reqs
            .iter()
            .map(|r| format!("{:?}", analyzer.execute(r)))
            .collect();
        for workers in [1usize, 3, 16] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.workers(), workers);
            // Pool reuse across batches (the point of persistence).
            for _ in 0..2 {
                let out = run_local(&pool, &ctx, &snapshot, &reqs, None);
                assert_eq!(out.len(), reqs.len());
                for (i, o) in out.iter().enumerate() {
                    assert_eq!(
                        o.counters.fanout.decode_bits.len(),
                        2,
                        "fan-out sized to dir shards"
                    );
                    assert_eq!(
                        o.trace.pointer_rounds[0].keys,
                        vec![(
                            s2,
                            EpochRange {
                                lo: 0,
                                hi: i as u64
                            }
                        )],
                        "chunk for index {i} misrouted at {workers} workers"
                    );
                    assert_eq!(
                        format!("{:?}", o.response),
                        expected[i],
                        "index {i} at {workers} workers"
                    );
                }
            }
            // An empty batch is a no-op (no task churn, no deadlock).
            assert!(run_local(&pool, &ctx, &snapshot, &[], None).is_empty());
            // Shard-keyed dispatch changes scheduling, never answers.
            let keyed: Vec<usize> = (0..reqs.len()).map(|i| i / 3).collect();
            let out = run_local(&pool, &ctx, &snapshot, &reqs, Some(&keyed));
            for (i, o) in out.iter().enumerate() {
                assert_eq!(
                    format!("{:?}", o.response),
                    expected[i],
                    "keyed dispatch diverged at index {i}, {workers} workers"
                );
            }
        }
    }

    /// Dispatch keys are arbitrary `usize`s, and the scheduler must not
    /// allocate anything sized by `max(key)` (the old stride pass
    /// allocated a `max(key)+1` `present` table, which a sparse huge key
    /// turns into an OOM). Keys near `usize::MAX` must schedule fine and
    /// answers must match dense keying.
    #[test]
    fn sparse_huge_keys_schedule_without_key_sized_allocation() {
        let (ctx, snapshot, tb) = test_ctx_and_snapshot();
        let s2 = tb.node("S2");
        let reqs: Vec<QueryRequest> = (0..20)
            .map(|i| QueryRequest::TopK {
                switch: s2,
                k: 3,
                range: EpochRange { lo: 0, hi: i },
            })
            .collect();
        let sparse: Vec<usize> = (0..reqs.len())
            .map(|i| match i % 3 {
                0 => 0,
                1 => usize::MAX - 7,
                _ => 1 << 40,
            })
            .collect();
        let pool = WorkerPool::new(4);
        let baseline = run_local(&pool, &ctx, &snapshot, &reqs, None);
        // If anything in the keyed path allocated `max(key)+1` anything,
        // this would abort the process rather than fail the assert.
        let keyed = run_local(&pool, &ctx, &snapshot, &reqs, Some(&sparse));
        assert_eq!(baseline.len(), keyed.len());
        for (i, (b, k)) in baseline.iter().zip(&keyed).enumerate() {
            assert_eq!(
                format!("{:?}", b.response),
                format!("{:?}", k.response),
                "sparse keys changed answer at index {i}"
            );
        }
    }
}
