//! Scheduling-invariance suite for the work-stealing worker pool.
//!
//! The pool's contract (DESIGN.md §16): verdicts are a pure function of
//! the frozen snapshot and the submission order — worker count, chunk
//! size, dispatch keys, steal schedule, and even worker panics mid-chunk
//! must never change an answer, drop a result slot, or fill one twice.
//! This suite rigs each of those dimensions explicitly:
//!
//! * parity across 1/2/4/8/16 workers × randomized chunk sizes ×
//!   keyed/unkeyed dispatch, against the sequential analyzer;
//! * a forced-steal schedule (one worker wedged on a slow chunk) that
//!   must still complete every slot, with `pool.steals` showing the
//!   rebalance actually happened;
//! * a panic in the middle of one chunk: the batch re-raises on the
//!   caller, every *other* chunk still runs exactly once, and the pool
//!   stays usable for the next batch.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::Duration;

use netsim::prelude::*;
use obsplane::MetricsRegistry;
use proptest::rng_for;
use queryplane::{chunk_size, lock_step, QueryOutcome, SharedCtx, Snapshot, Spans, WorkerPool};
use switchpointer::query::QueryRequest;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

/// A small multi-pod fixture with real traffic so queries have non-empty
/// answers worth comparing.
fn fixture() -> Testbed {
    let topo = Topology::fat_tree(4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let (a, da) = (tb.node("h0_0_0"), tb.node("h2_0_0"));
    tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(30),
    ));
    let (b, db) = (tb.node("h1_0_0"), tb.node("h3_1_1"));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src: b,
        dst: db,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(25),
        rate_bps: 200_000_000,
        payload_bytes: 1458,
    });
    tb.sim.run_until(SimTime::from_ms(30));
    tb
}

fn shared_ctx(tb: &Testbed, reg: &Arc<MetricsRegistry>) -> Arc<SharedCtx> {
    Arc::new(SharedCtx::new(&tb.analyzer(), 4, Arc::clone(reg)))
}

/// The batch driver over one `LocalBackend` per directory shard of
/// `snapshot`, as the in-process plane runs it, with explicit dispatch
/// keys and chunk size (`None`: the [`chunk_size`] rule).
fn run_local(
    pool: &WorkerPool,
    ctx: &Arc<SharedCtx>,
    snapshot: &Arc<Snapshot>,
    reqs: &[QueryRequest],
    keys: Option<&[usize]>,
    chunk: Option<usize>,
) -> Vec<QueryOutcome> {
    let (c, s) = (Arc::clone(ctx), Arc::clone(snapshot));
    let chunk = |n, workers| chunk.unwrap_or_else(|| chunk_size(n, workers));
    queryplane::execute(pool, ctx, reqs, keys, chunk, move |chunk, started| {
        let backends = c.dir.local_backends(&*s);
        lock_step(&c, &backends, true, Spans::Exec, chunk, started)
    })
}

/// A batch large enough that every worker count below 16 yields multiple
/// chunks per worker, with per-request-distinct epoch ranges so a slot
/// mix-up is visible even where verdicts coincide.
fn batch(tb: &Testbed) -> Vec<QueryRequest> {
    let switches = [
        "edge0_0", "agg0_0", "agg0_1", "core0_0", "edge2_0", "edge3_1",
    ];
    let mut reqs = Vec::new();
    for i in 0..96u64 {
        let sw = tb.node(switches[i as usize % switches.len()]);
        let range = EpochRange {
            lo: 5 + i % 7,
            hi: 14 + i % 9,
        };
        if i % 3 == 0 {
            reqs.push(QueryRequest::LoadImbalance { switch: sw, range });
        } else {
            reqs.push(QueryRequest::TopK {
                switch: sw,
                k: 3 + (i % 5) as usize,
                range,
            });
        }
    }
    reqs
}

#[test]
fn verdicts_invariant_across_workers_chunks_and_keys() {
    let tb = fixture();
    let analyzer = tb.analyzer();
    let reg = Arc::new(MetricsRegistry::new());
    let ctx = shared_ctx(&tb, &reg);
    let snapshot = Arc::new(Snapshot::capture(&analyzer, 8));
    let reqs = batch(&tb);
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();

    let mut rng = rng_for("pool_scaling::invariance");
    // Sparse, huge dispatch keys on purpose: placement must depend on
    // key residue only, never on a key-indexed dense table.
    let keys: Vec<usize> = reqs
        .iter()
        .enumerate()
        .map(|(i, _)| (i % 5) * 0x1000_0000_0000 + i)
        .collect();

    for workers in [1usize, 2, 4, 8, 16] {
        let pool = WorkerPool::with_metrics(workers, &reg);
        // The rule-derived size plus randomized overrides, including
        // degenerate extremes (chunk=1, chunk >= batch).
        let mut chunk_overrides = vec![
            None,
            Some(1),
            Some(reqs.len()),
            Some(chunk_size(reqs.len(), workers)),
        ];
        for _ in 0..3 {
            chunk_overrides.push(Some(1 + rng.below(reqs.len() as u64 / 2) as usize));
        }
        for chunk in chunk_overrides {
            for keyed in [false, true] {
                let keys = keyed.then_some(keys.as_slice());
                let out = run_local(&pool, &ctx, &snapshot, &reqs, keys, chunk);
                assert_eq!(out.len(), reqs.len());
                for (i, o) in out.iter().enumerate() {
                    assert_eq!(
                        format!("{:?}", o.response),
                        baseline[i],
                        "query {i} diverged at {workers} workers, chunk {chunk:?}, keyed={keyed}"
                    );
                }
            }
        }
    }
}

#[test]
fn rigged_slow_worker_forces_steals_without_losing_slots() {
    let reg = Arc::new(MetricsRegistry::new());
    let pool = WorkerPool::with_metrics(4, &reg);
    let n = 64usize;
    let hits = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());

    // Every chunk homed on worker 0 (all keys ≡ 0 mod 4) with worker 0
    // wedged on its first chunk: the only way the batch finishes in
    // bounded time is the other three workers stealing the rest.
    let keys = vec![0usize; n];
    let h = Arc::clone(&hits);
    let out = pool.scatter(n, Some(&keys), Some(4), move |worker, idxs| {
        if worker == 0 {
            thread::sleep(Duration::from_millis(80));
        }
        idxs.iter()
            .map(|&i| {
                h[i].fetch_add(1, Ordering::SeqCst);
                i * 10
            })
            .collect()
    });

    assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
    for (i, hit) in hits.iter().enumerate() {
        assert_eq!(
            hit.load(Ordering::SeqCst),
            1,
            "slot {i} ran a wrong number of times"
        );
    }
    let steals = pool.metrics().steals.get();
    assert!(
        steals > 0,
        "a wedged home worker must force steals (got {steals})"
    );
    // The queue-depth gauge returns to empty once the batch drains.
    assert_eq!(pool.metrics().queue_depth.get(), 0);
}

#[test]
fn mid_chunk_panic_reraises_without_dropped_or_duplicated_slots() {
    let reg = Arc::new(MetricsRegistry::new());
    let pool = WorkerPool::with_metrics(4, &reg);
    let n = 48usize;
    let poison = 23usize;
    let hits = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());

    let h = Arc::clone(&hits);
    let err = catch_unwind(AssertUnwindSafe(|| {
        pool.scatter(n, None, Some(4), move |_w, idxs| {
            idxs.iter()
                .map(|&i| {
                    if i == poison {
                        panic!("rigged mid-chunk panic");
                    }
                    h[i].fetch_add(1, Ordering::SeqCst);
                    i
                })
                .collect()
        })
    }));
    assert!(err.is_err(), "the chunk panic must re-raise on the caller");

    // Panic containment is per *chunk*: the poisoned chunk's own slots
    // may be abandoned, but no other chunk may be skipped or re-run.
    let poisoned_chunk = (poison / 4) * 4..(poison / 4) * 4 + 4;
    for (i, hit) in hits.iter().enumerate() {
        let runs = hit.load(Ordering::SeqCst);
        if poisoned_chunk.contains(&i) {
            assert!(runs <= 1, "slot {i} in the poisoned chunk ran {runs} times");
        } else {
            assert_eq!(runs, 1, "slot {i} ran {runs} times (expected exactly once)");
        }
    }
    assert_eq!(pool.metrics().queue_depth.get(), 0);

    // The pool survives the panic: the next batch on the same workers
    // completes every slot.
    let again = pool.scatter(n, None, None, move |_w, idxs| {
        idxs.iter().map(|&i| i + 1).collect()
    });
    assert_eq!(again, (1..=n).collect::<Vec<_>>());
}

#[test]
fn full_plane_parity_holds_under_randomized_chunking_with_steal_pressure() {
    // The end-to-end variant: the batch driver (real executors over the
    // frozen snapshot) with every chunk keyed to one worker so steals are
    // guaranteed, across the full worker sweep.
    let tb = fixture();
    let analyzer = tb.analyzer();
    let reg = Arc::new(MetricsRegistry::new());
    let ctx = shared_ctx(&tb, &reg);
    let snapshot = Arc::new(Snapshot::capture(&analyzer, 8));
    let reqs = batch(&tb);
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", analyzer.execute(r)))
        .collect();
    let skew_keys = vec![0usize; reqs.len()];

    let mut rng = rng_for("pool_scaling::steal_pressure");
    for workers in [2usize, 4, 8, 16] {
        let pool = WorkerPool::with_metrics(workers, &reg);
        let chunk = Some(1 + rng.below(7) as usize);
        let out = run_local(&pool, &ctx, &snapshot, &reqs, Some(&skew_keys), chunk);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(
                format!("{:?}", o.response),
                baseline[i],
                "query {i} diverged under steal pressure at {workers} workers"
            );
        }
    }
}

/// Sum of every per-worker scheduler counter of `pool`.
fn worker_ns(pool: &WorkerPool) -> u64 {
    let m = pool.metrics();
    m.busy.iter().chain(&m.idle).map(|c| c.get()).sum()
}

/// A work fn that tags each item with the thread that ran it.
fn tag_with_thread(_worker: usize, idxs: &[usize]) -> Vec<(usize, ThreadId)> {
    idxs.iter().map(|&i| (i, thread::current().id())).collect()
}

#[test]
fn wide_batches_run_on_the_pools_own_threads_and_no_others() {
    // More workers must cost a batch nothing but scheduling: the pool's
    // threads are spawned once, not per batch. `ThreadId`s are never
    // reused, so a pool that spawned per `scatter` would show up to 64
    // distinct ids here; a persistent one can show at most its four.
    let pool = WorkerPool::new(4);
    let mut seen = HashSet::new();
    for _ in 0..16 {
        let out = pool.scatter(64, None, Some(1), tag_with_thread);
        assert!(out.iter().map(|&(i, _)| i).eq(0..64));
        seen.extend(out.into_iter().map(|(_, id)| id));
    }
    assert!(
        seen.len() <= 4 && !seen.contains(&thread::current().id()),
        "16 batches of 64 chunks ran on {} threads of a 4-worker pool",
        seen.len()
    );
}

#[test]
fn a_one_chunk_batch_runs_on_the_thread_that_called_scatter() {
    let reg = Arc::new(MetricsRegistry::new());
    let pool = WorkerPool::with_metrics(4, &reg);
    let caller = thread::current().id();

    // Five items under the default rule (one chunk of ≤ 8), and a single
    // item with an explicit chunk size of 1: both are one chunk.
    for (n, chunk) in [(5usize, None), (1, Some(1))] {
        let out = pool.scatter(n, None, chunk, move |w, idxs| {
            assert_eq!(idxs.len(), n, "the batch must arrive as one chunk");
            tag_with_thread(w, idxs)
        });
        assert_eq!(out, (0..n).map(|i| (i, caller)).collect::<Vec<_>>());
    }
    let m = pool.metrics();
    assert_eq!((m.batches.get(), m.chunks.get()), (2, 2));
    assert_eq!(worker_ns(&pool), 0, "no worker took part in either batch");
    assert_eq!((m.steals.get(), m.queue_depth.get()), (0, 0));

    // A panic in the work fn re-raises on the caller, as it does from a
    // worker, and neither the pool nor its accounting is the worse for it.
    let err = catch_unwind(AssertUnwindSafe(|| {
        pool.scatter(1, None, Some(1), |_w, _idxs| -> Vec<usize> {
            panic!("rigged one-chunk panic")
        })
    }))
    .expect_err("the work fn's panic must reach the caller");
    assert_eq!(
        err.downcast_ref::<&str>().copied(),
        Some("rigged one-chunk panic")
    );
    assert_eq!((worker_ns(&pool), m.queue_depth.get()), (0, 0));
    let again = pool.scatter(48, None, None, |_w, idxs| {
        idxs.iter().map(|&i| i + 1).collect()
    });
    assert_eq!(again, (1..=48).collect::<Vec<_>>());
    assert!(
        worker_ns(&pool) > 0,
        "a six-chunk batch does use the workers"
    );
}

#[test]
fn one_chunk_batches_need_no_worker_while_a_wide_batch_holds_them_all() {
    use std::sync::{Condvar, Mutex};

    let pool = WorkerPool::new(4);
    // The wide batch parks every chunk until the small batches are done,
    // so all four workers are held for as long as those run: a one-chunk
    // scatter that needed a worker could never return.
    let release = Arc::new((Mutex::new(false), Condvar::new()));
    let starved = Arc::new(AtomicUsize::new(0));
    thread::scope(|scope| {
        let wide = scope.spawn(|| {
            let (release, starved) = (Arc::clone(&release), Arc::clone(&starved));
            pool.scatter(64, None, Some(1), move |_w, idxs| {
                let (lock, cv) = &*release;
                let (mut done, res) = cv
                    .wait_timeout_while(lock.lock().unwrap(), Duration::from_secs(30), |done| {
                        !*done
                    })
                    .unwrap();
                if res.timed_out() {
                    // Fail once, not once per chunk: let the rest go.
                    starved.fetch_add(1, Ordering::SeqCst);
                    *done = true;
                    cv.notify_all();
                }
                idxs.iter().map(|&i| i * 2).collect()
            })
        });
        let callers: Vec<_> = (0..8usize)
            .map(|t| {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..1000usize {
                        let n = 1 + (t + round) % 8;
                        let base = t * 1_000_000 + round * 10;
                        let out = pool.scatter(n, None, None, move |_w, idxs| {
                            idxs.iter().map(|&i| base + i).collect()
                        });
                        assert_eq!(out, (base..base + n).collect::<Vec<_>>());
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        *release.0.lock().unwrap() = true;
        release.1.notify_all();
        assert_eq!(
            wide.join().unwrap(),
            (0..64).map(|i| i * 2).collect::<Vec<_>>()
        );
    });
    assert_eq!(
        starved.load(Ordering::SeqCst),
        0,
        "the small batches waited on the workers the wide batch held"
    );
}

#[test]
fn a_batch_of_fewer_chunks_than_workers_leaves_the_rest_of_the_pool_alone() {
    let reg = Arc::new(MetricsRegistry::new());
    let pool = WorkerPool::with_metrics(4, &reg);
    for round in 0..100usize {
        let out = pool.scatter(2, None, Some(1), move |_w, idxs| {
            idxs.iter().map(|&i| round * 2 + i).collect()
        });
        assert_eq!(out, vec![round * 2, round * 2 + 1]);
    }
    let m = pool.metrics();
    assert_eq!((m.batches.get(), m.chunks.get()), (100, 200));
    let per_worker: Vec<u64> = (0..4).map(|w| m.busy[w].get() + m.idle[w].get()).collect();
    assert!(
        per_worker[0] > 0 && per_worker[1] > 0,
        "the two workers dealt a chunk ran them: {per_worker:?}"
    );
    assert_eq!(
        per_worker[2..],
        [0, 0],
        "two chunks must not wake a third worker"
    );
    assert_eq!(m.queue_depth.get(), 0);
}
