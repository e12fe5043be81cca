//! The persistent work-stealing worker pool.
//!
//! The first query-plane iteration spawned scoped OS threads per
//! `execute_batch` call; the second kept the threads but pre-sliced each
//! batch into one message per worker, funnelled results back over an
//! `mpsc` channel, and rebuilt a router + `QueryExecutor` for every query.
//! On model-scale workloads (µs of real compute per query) that churn was
//! the ceiling DESIGN.md §9 recorded: cold throughput *fell* as workers
//! grew. This iteration removes the remaining barriers from the hot loop:
//!
//! * **Chunked work-stealing dispatch.** A batch is cut into chunks of
//!   [`chunk_size`]`= max(batch/(4·W), 8)` requests. Each chunk starts on
//!   a home worker's queue — shard-affinity (the dispatch key) decides
//!   *initial placement only* — and carries an atomic claim flag. A
//!   worker drains its own queue head-first, then scans the other
//!   queues tail-first and steals whatever is still unclaimed, so a
//!   skewed batch (or a descheduled worker) no longer strands work.
//!   A batch wakes only the workers it can use: those dealt a chunk,
//!   then thieves, `min(chunks, W)` in all — and a batch that cuts into
//!   **exactly one chunk** wakes none: it runs on the thread that called
//!   `scatter`, since handing one chunk to another thread and sleeping
//!   until it is done buys nothing but two wake-ups. The rule reads only
//!   the batch's own geometry.
//! * **Lock-free result publication.** Results are written straight
//!   into a preallocated per-batch slot array — each submission index
//!   lives in exactly one chunk and each chunk is claimed by exactly
//!   one worker, so the writes are disjoint by construction — and the
//!   caller stitches them in submission order. No reply channel, no
//!   merge pass.
//!
//! Determinism is preserved by construction: which worker runs a chunk
//! affects *scheduling only*. Results are keyed by submission index, so
//! a work function that is a pure function of its items (the batch
//! driver's queries run the shared executor over a frozen snapshot or
//! over shard servers serving one) yields output byte-for-byte
//! independent of worker count, chunk size, and steal schedule — the
//! property suite pins this across rigged schedules.
//!
//! The pool is the scheduler and nothing else: its one entry point is the
//! generic scatter kernel ([`WorkerPool::scatter`]). The batch driver
//! (`crate::driver`) runs both planes' queries through it — the
//! in-process plane's batches and the stream plane's windows, and the
//! wire front-end's decoded waves (a wave of one is one chunk, so it runs
//! on the submitting thread).
//! Scheduler behaviour is observable through `pool.*` metrics:
//! `pool.steals`, `pool.chunks`, `pool.batches`, the `pool.queue_depth`
//! gauge, and per-worker `pool.worker<w>.busy_ns` / `idle_ns`.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obsplane::{Counter, Gauge, MetricsRegistry};

/// Chunks per worker a batch is aimed to split into; with the
/// [`MIN_CHUNK`] floor this is the `max(batch/(4·W), 8)` sizing rule.
const CHUNKS_PER_WORKER: usize = 4;
/// Smallest chunk worth a claim flag: below this, claim/steal overhead
/// would rival the work itself on µs-scale queries.
const MIN_CHUNK: usize = 8;

/// The default chunk sizing rule: `max(batch / (4·W), 8)` requests.
/// About four chunks per worker keeps enough surplus for stealing to
/// rebalance a skewed batch while the floor keeps per-chunk scheduling
/// overhead amortized over at least eight queries.
pub fn chunk_size(batch: usize, workers: usize) -> usize {
    (batch / (CHUNKS_PER_WORKER * workers.max(1))).max(MIN_CHUNK)
}

/// A contiguous run of `order[lo..hi]` claimed atomically by exactly one
/// worker. The claim flag only ever goes `false → true`.
struct Chunk {
    lo: usize,
    hi: usize,
    claimed: AtomicBool,
}

/// The per-batch result slots. Writes are disjoint by construction (each
/// submission index lives in exactly one chunk, each chunk is claimed by
/// exactly one worker) and reads happen only after the completion
/// barrier, so plain `UnsafeCell` access is sound.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: see `Slots` — disjoint indices per writer, barrier before read.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(n: usize) -> Self {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// SAFETY: caller must be the unique claimant of the chunk containing
    /// index `i`, and no reader may run before the completion barrier.
    unsafe fn write(&self, i: usize, v: T) {
        *self.0[i].get() = Some(v);
    }

    fn into_results(self) -> Vec<T> {
        self.0
            .into_iter()
            .map(|c| c.into_inner().expect("every chunk filled its slots"))
            .collect()
    }
}

/// The per-chunk work function a batch shares: `(worker, submission
/// indices)` → one result per index, in order.
type ChunkWork<T> = Box<dyn Fn(usize, &[usize]) -> Vec<T> + Send + Sync>;

/// Everything a batch's participating workers share. Lives in an `Arc`
/// for the duration of one [`WorkerPool::scatter`] call; the caller
/// reclaims unique ownership (and with it the slots) once every worker
/// has signalled completion.
struct BatchShared<T> {
    work: ChunkWork<T>,
    /// Dispatch order: submission indices grouped by initial placement.
    order: Vec<usize>,
    chunks: Vec<Chunk>,
    /// Per-worker chunk-id queues (initial placement). Owners drain
    /// head-first; thieves scan tail-first.
    queues: Vec<Vec<usize>>,
    slots: Slots<T>,
    /// First captured worker panic, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    m: PoolMetrics,
}

impl<T: Send> BatchShared<T> {
    fn claim(&self, c: usize) -> bool {
        self.chunks[c]
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    fn record_panic(&self, p: Box<dyn Any + Send>) {
        let mut g = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        if g.is_none() {
            *g = Some(p);
        }
    }

    /// Runs one claimed chunk: executes the work fn over the chunk's
    /// submission indices and publishes each result into its slot. A
    /// panic anywhere inside is captured per chunk — the worker moves on
    /// to its next chunk, so one poisoned query never strands the rest
    /// of the batch — and re-raised on the caller after the barrier.
    /// Returns the time the chunk took.
    fn run_chunk(&self, w: usize, c: usize, stolen: bool) -> Duration {
        let chunk = &self.chunks[c];
        let idxs = &self.order[chunk.lo..chunk.hi];
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Thread-local steal annotation: spans the work fn records
            // (exec-stage query spans in particular) mark whether their
            // chunk ran on a thief worker instead of its home queue.
            obsplane::set_chunk_stolen(stolen);
            let out = (self.work)(w, idxs);
            assert_eq!(
                out.len(),
                idxs.len(),
                "chunk work fn must return one result per index"
            );
            for (j, r) in out.into_iter().enumerate() {
                // SAFETY: this thread holds the chunk's claim; indices of
                // distinct chunks are disjoint; the caller reads only
                // after the completion barrier.
                unsafe { self.slots.write(idxs[j], r) };
            }
        }));
        obsplane::set_chunk_stolen(false);
        let took = started.elapsed();
        if let Err(p) = result {
            self.record_panic(p);
        }
        self.m.queue_depth.add(-1);
        took
    }

    /// One worker's whole contribution to a batch: drain the own queue
    /// head-first, then sweep the other queues tail-first stealing
    /// whatever is still unclaimed, until a full sweep finds nothing.
    /// Never blocks — chunks still *running* on other workers are their
    /// owners' to finish — so a worker rolls straight into the next
    /// batch's participation task when this one's queues are dry.
    fn participate(&self, w: usize) {
        let t0 = Instant::now();
        let mut busy = Duration::ZERO;
        for &c in &self.queues[w] {
            if self.claim(c) {
                busy += self.run_chunk(w, c, false);
            }
        }
        let workers = self.queues.len();
        loop {
            let mut claimed_any = false;
            for off in 1..workers {
                let victim = (w + off) % workers;
                for &c in self.queues[victim].iter().rev() {
                    if self.claim(c) {
                        self.m.steals.inc();
                        busy += self.run_chunk(w, c, true);
                        claimed_any = true;
                    }
                }
            }
            if !claimed_any {
                break;
            }
        }
        let wall = t0.elapsed();
        self.m.busy[w].add(busy.as_nanos() as u64);
        self.m.idle[w].add(wall.saturating_sub(busy).as_nanos() as u64);
    }
}

/// Completion barrier for one batch: counts participating workers still
/// holding a reference to the batch state. Since a worker only finishes
/// once no chunk anywhere is left unclaimed, `left == 0` implies every
/// chunk has run to completion.
struct DoneSignal {
    left: Mutex<usize>,
    cv: Condvar,
}

impl DoneSignal {
    fn new(workers: usize) -> Self {
        DoneSignal {
            left: Mutex::new(workers),
            cv: Condvar::new(),
        }
    }

    fn worker_done(&self) {
        let mut g = self.left.lock().unwrap_or_else(|e| e.into_inner());
        *g -= 1;
        if *g == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.left.lock().unwrap_or_else(|e| e.into_inner());
        while *g > 0 {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Scheduler observability handles, resolved once per pool out of a
/// [`MetricsRegistry`] and bumped lock-free on the hot path.
#[derive(Clone)]
pub struct PoolMetrics {
    /// Chunks executed by a worker other than their initial placement.
    pub steals: Arc<Counter>,
    /// Total chunks dispatched across all batches.
    pub chunks: Arc<Counter>,
    /// Batches dispatched.
    pub batches: Arc<Counter>,
    /// Chunks dispatched but not yet completed (instantaneous).
    pub queue_depth: Arc<Gauge>,
    /// Per-worker nanoseconds spent executing chunks.
    pub busy: Vec<Arc<Counter>>,
    /// Per-worker nanoseconds spent inside a batch but not executing
    /// (queue scans, steal sweeps, claim contention).
    pub idle: Vec<Arc<Counter>>,
}

impl PoolMetrics {
    fn new(workers: usize, reg: &MetricsRegistry) -> Self {
        PoolMetrics {
            steals: reg.counter("pool.steals"),
            chunks: reg.counter("pool.chunks"),
            batches: reg.counter("pool.batches"),
            queue_depth: reg.gauge("pool.queue_depth"),
            busy: (0..workers)
                .map(|w| reg.counter(&format!("pool.worker{w}.busy_ns")))
                .collect(),
            idle: (0..workers)
                .map(|w| reg.counter(&format!("pool.worker{w}.idle_ns")))
                .collect(),
        }
    }
}

/// A participation task: one per worker per batch, type-erased so one
/// channel serves any scatter element type.
type Task = Box<dyn FnOnce(usize) + Send>;

/// A fixed set of long-lived worker threads fed over per-worker channels.
/// `Sync`: concurrent `scatter` calls interleave safely (each batch has
/// its own claim flags and barrier; participation never blocks), which is
/// what lets the wire front-end share one pool across connection threads.
pub struct WorkerPool {
    senders: Vec<mpsc::Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
    m: PoolMetrics,
}

impl WorkerPool {
    /// Spawns `workers` (≥ 1) threads that live until the pool is
    /// dropped, with scheduler metrics on a private registry. Planes that
    /// scrape their scheduler use [`WorkerPool::with_metrics`].
    pub fn new(workers: usize) -> Self {
        Self::with_metrics(workers, &MetricsRegistry::new())
    }

    /// Spawns the pool and registers its `pool.*` metrics on `reg`.
    pub fn with_metrics(workers: usize, reg: &MetricsRegistry) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::channel::<Task>();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("queryplane-worker-{w}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            task(w);
                        }
                    })
                    .expect("spawn query-plane worker"),
            );
        }
        WorkerPool {
            senders,
            handles,
            m: PoolMetrics::new(workers, reg),
        }
    }

    /// Worker threads in the pool.
    pub(crate) fn workers(&self) -> usize {
        self.senders.len()
    }

    /// The pool's scheduler metric handles.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.m
    }

    /// The generic work-stealing scatter kernel: runs `work` over every
    /// item index in `0..n_items` and returns one result per index, in
    /// index order.
    ///
    /// `keys` (one per item) steer *initial placement only*: item `i`
    /// starts on worker `keys[i] % W`'s queue, keeping key-affine items
    /// together (warm per-shard state) without ever serializing on a hot
    /// key — idle workers steal unclaimed chunks from the tail. Without
    /// keys, chunks round-robin over the workers. `chunk` overrides the
    /// [`chunk_size`] rule.
    ///
    /// `work` is called once per claimed chunk with `(worker id, &[item
    /// indices])` and must return one result per index in order — the
    /// chunk granularity is what lets the batch driver run a chunk's
    /// queries in lock-step and build its backends once per chunk. A
    /// panic inside `work` is re-raised here after every other chunk has
    /// completed.
    ///
    /// A batch that cuts into exactly one chunk runs on the calling
    /// thread (with the chunk's home worker id); any other batch runs on
    /// `min(chunks, W)` pool workers while the caller waits.
    pub fn scatter<T, F>(
        &self,
        n_items: usize,
        keys: Option<&[usize]>,
        chunk: Option<usize>,
        work: F,
    ) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize, &[usize]) -> Vec<T> + Send + Sync + 'static,
    {
        if n_items == 0 {
            return Vec::new();
        }
        if let Some(keys) = keys {
            debug_assert_eq!(keys.len(), n_items);
        }
        let workers = self.senders.len();
        let chunk = chunk.unwrap_or_else(|| chunk_size(n_items, workers)).max(1);

        let mut order: Vec<usize> = Vec::with_capacity(n_items);
        let mut chunks: Vec<Chunk> = Vec::new();
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); workers];
        let cut = |from: usize,
                   to: usize,
                   home: usize,
                   chunks: &mut Vec<Chunk>,
                   queues: &mut Vec<Vec<usize>>| {
            let mut lo = from;
            while lo < to {
                let hi = (lo + chunk).min(to);
                queues[home].push(chunks.len());
                chunks.push(Chunk {
                    lo,
                    hi,
                    claimed: AtomicBool::new(false),
                });
                lo = hi;
            }
        };
        match keys {
            None => {
                // No affinity: chunks round-robin over the workers.
                order.extend(0..n_items);
                let mut lo = 0;
                let mut i = 0;
                while lo < n_items {
                    let hi = (lo + chunk).min(n_items);
                    cut(lo, hi, i % workers, &mut chunks, &mut queues);
                    lo = hi;
                    i += 1;
                }
            }
            Some(keys) => {
                // Key-affine initial placement: bucket by `key % W`.
                // Deliberately *not* a dense `max(key)+1` table — keys
                // are arbitrary `usize`s (sparse, huge values included)
                // and only their residue matters for placement; load
                // balance comes from stealing, not from key statistics.
                let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); workers];
                for (i, &k) in keys.iter().enumerate() {
                    buckets[k % workers].push(i);
                }
                for (home, bucket) in buckets.into_iter().enumerate() {
                    let from = order.len();
                    order.extend(bucket);
                    let to = order.len();
                    cut(from, to, home, &mut chunks, &mut queues);
                }
            }
        }

        let total_chunks = chunks.len();
        self.m.batches.inc();
        self.m.chunks.add(total_chunks as u64);
        self.m.queue_depth.add(total_chunks as i64);

        let shared = BatchShared {
            work: Box::new(work),
            order,
            chunks,
            queues,
            slots: Slots::new(n_items),
            panic: Mutex::new(None),
            m: self.m.clone(),
        };
        let shared = if total_chunks == 1 {
            // Nothing to spread: the caller is the one thread this batch
            // needs, so it runs the chunk itself — no task posted, no
            // barrier, no worker counter touched. The batch state never
            // leaves this thread, so the chunk's claim is trivially ours.
            let home = shared
                .queues
                .iter()
                .position(|q| !q.is_empty())
                .expect("the one chunk was dealt to a queue");
            shared.run_chunk(home, 0, false);
            shared
        } else {
            self.run_on_workers(shared, total_chunks)
        };
        if let Some(p) = shared.panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
            resume_unwind(p);
        }
        shared.slots.into_results()
    }

    /// Posts one participation task per worker the batch can use — the
    /// workers dealt a chunk first, then as many thieves as there are
    /// chunks left over — waits for all of them, and hands the batch
    /// state back. A batch of fewer chunks than workers leaves the rest
    /// of the pool alone: nothing to wake, and no barrier held up by a
    /// worker that is busy with another caller's chunk.
    fn run_on_workers<T: Send + 'static>(
        &self,
        shared: BatchShared<T>,
        total_chunks: usize,
    ) -> BatchShared<T> {
        let workers = self.senders.len();
        let participants = total_chunks.min(workers);
        let shared = Arc::new(shared);
        let done = Arc::new(DoneSignal::new(participants));
        let dealt = |w: &usize| !shared.queues[*w].is_empty();
        let thief = |w: &usize| !dealt(w);
        for w in (0..workers)
            .filter(dealt)
            .chain((0..workers).filter(thief))
            .take(participants)
        {
            let sh = Arc::clone(&shared);
            let dn = Arc::clone(&done);
            self.senders[w]
                .send(Box::new(move |wid: usize| {
                    // Participation is infallible by design (chunk panics
                    // are caught inside), but a panic here must never
                    // strand the caller on the barrier or leave the batch
                    // state alive.
                    if let Err(p) = catch_unwind(AssertUnwindSafe(|| sh.participate(wid))) {
                        sh.record_panic(p);
                    }
                    drop(sh);
                    dn.worker_done();
                }))
                .expect("query-plane worker thread is alive");
        }
        done.wait();
        // Every participant has dropped its reference (the barrier counts
        // that, not just chunk completion), so ownership is unique again
        // — and with it the snapshot references the work fn carried.
        Arc::try_unwrap(shared)
            .ok()
            .expect("workers released the batch state at the barrier")
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chunk sizing rule from the scheduler contract.
    #[test]
    fn chunk_size_rule() {
        assert_eq!(chunk_size(0, 4), 8);
        assert_eq!(chunk_size(100, 4), 8); // 100/16 < 8 → floor
        assert_eq!(chunk_size(640, 4), 40);
        assert_eq!(chunk_size(1000, 1), 250);
        assert_eq!(chunk_size(1000, 0), 250); // degenerate W clamps to 1
    }
}
