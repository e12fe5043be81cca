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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use netsim::prelude::*;
use netsim::routing::RouteTable;
use obsplane::MetricsRegistry;
use proptest::rng_for;
use queryplane::{chunk_size, SharedCtx, Snapshot, WorkerPool};
use switchpointer::query::QueryRequest;
use switchpointer::shard::ShardedDirectory;
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
    let analyzer = tb.analyzer();
    Arc::new(SharedCtx::new(
        analyzer.topo().clone(),
        RouteTable::build(analyzer.topo()),
        analyzer.params(),
        analyzer.directory().clone(),
        ShardedDirectory::new(
            analyzer.directory().mphf().clone(),
            &analyzer.all_hosts(),
            4,
        ),
        *analyzer.cost(),
        Arc::clone(reg),
    ))
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
    let snapshot = Arc::new(Snapshot::capture(&analyzer, 4));
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
                let out = pool.run_keyed_chunked(&ctx, &snapshot, &reqs, keys, chunk);
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
    // The end-to-end variant: run_keyed_chunked (real executors over the
    // frozen snapshot) with every chunk keyed to one worker so steals are
    // guaranteed, across the full worker sweep.
    let tb = fixture();
    let analyzer = tb.analyzer();
    let reg = Arc::new(MetricsRegistry::new());
    let ctx = shared_ctx(&tb, &reg);
    let snapshot = Arc::new(Snapshot::capture(&analyzer, 4));
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
        let out = pool.run_keyed_chunked(&ctx, &snapshot, &reqs, Some(&skew_keys), chunk);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(
                format!("{:?}", o.response),
                baseline[i],
                "query {i} diverged under steal pressure at {workers} workers"
            );
        }
    }
}
