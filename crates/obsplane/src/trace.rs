//! Causal span tracing keyed by (trace, span, parent) with a
//! tail-latency flight recorder.
//!
//! Spans are cheap enough to leave on: starting one snapshots a
//! monotonic clock, and finishing it publishes a fixed-size
//! [`SpanEvent`] into a sharded ring (oldest evicted first, with an
//! eviction counter so silent span loss is impossible). The
//! ring answers *postmortem* questions — "what ran lately, how long did
//! each stage take, on which shard" — while aggregate distributions
//! live in the registry's histograms.
//!
//! Beyond the flat ring of earlier revisions, the tracer carries a
//! **causal layer**:
//!
//! * [`TraceContext`] — a 64-bit trace id plus the parent span id,
//!   minted at a request's entry point ([`Tracer::mint_trace`], seeded
//!   splitmix64, deterministic under test) and propagated across
//!   threads via a thread-local ([`current`] / [`with_context`]) and
//!   across processes inside the wire envelopes.
//! * **Head sampling** — [`Tracer::set_sample_rate`] keeps 1-in-N
//!   traces (0 disables minting entirely). Context still propagates
//!   for unsampled traces so downstream exemplar pinning works.
//! * **Tail-latency exemplars** — any traced span (tree) whose
//!   duration exceeds a rolling threshold (8× an EWMA of all span
//!   durations, after a warmup) is pinned into a bounded
//!   slowest-kept store, so slow-query evidence survives both ring
//!   eviction and 1-in-1024 sampling.
//!
//! The ring itself is a set of per-thread-affine buckets, each a
//! `Mutex` around a fixed-capacity ring. A writer holds its bucket while
//! it copies in one span group, and a scrape while it copies out one
//! bucket, so threads that share a bucket only wait for each other's
//! copy. No span is lost to contention: every submitted, sampled span is
//! either retained or counted as evicted.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default ring capacity (events retained).
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Ring capacity per bucket; tracers smaller than this use a single
/// bucket so eviction order stays exact.
const BUCKET_CAPACITY: usize = 1024;

/// Traces retained in the exemplar store (slowest kept).
const EXEMPLAR_TRACES: usize = 32;

/// Spans retained per pinned trace.
const EXEMPLAR_SPANS: usize = 64;

/// Spans that must be recorded before the rolling slow threshold arms.
const EXEMPLAR_WARMUP: u64 = 64;

/// Default seed for span/trace id minting. Fixed so id sequences are
/// deterministic under test; servers perturb it per process via
/// [`Tracer::set_id_seed`] so ids never collide across processes.
const DEFAULT_ID_SEED: u64 = 0x53_57_50_54; // "SWPT"

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The per-request causal identity carried along the wire: which trace
/// a piece of work belongs to and which span caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id, nonzero. Zero means "untraced" everywhere else.
    pub trace_id: u64,
    /// The causing span — children record it as their `parent_id`.
    pub span_id: u64,
    /// Head-sampling verdict. Unsampled contexts still propagate so
    /// exemplar pinning can fire downstream.
    pub sampled: bool,
}

impl TraceContext {
    /// The context a child span should propagate: same trace, this
    /// span as the parent.
    pub fn child(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id,
            sampled: self.sampled,
        }
    }
}

/// One completed span: a (class, epoch, shard)-keyed duration plus its
/// causal identity. `trace_id == 0` marks a legacy untraced span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static label, e.g. a query class name.
    pub class: &'static str,
    /// Pipeline stage this span measures ("query", "enqueue", "wire",
    /// "serve", "exec", "apply", or "span" for legacy records).
    pub stage: &'static str,
    /// Epoch the work was keyed to (a snapshot horizon, window id, …).
    pub epoch: u64,
    /// Shard the work ran against (or `u32::MAX` for unsharded work).
    pub shard: u32,
    /// Start time, nanoseconds since the tracer was created. Only
    /// comparable within one process.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Trace this span belongs to; 0 = untraced.
    pub trace_id: u64,
    /// This span's id (unique per tracer).
    pub span_id: u64,
    /// The causing span's id; 0 = root.
    pub parent_id: u64,
    /// Work-stealing annotation: chunks of this span's work that ran
    /// on a thief worker rather than the one they were queued to.
    pub steals: u32,
}

/// A finished span handed to [`Tracer::record_all`]: what it measured,
/// where, and when it started and ended. It joins whatever trace context
/// the recording thread has active, as [`Tracer::record`]'s span does.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Static label, e.g. a query class name.
    pub class: &'static str,
    /// Epoch the work was keyed to.
    pub epoch: u64,
    /// Shard the work ran against (or `u32::MAX` for unsharded work).
    pub shard: u32,
    pub started: Instant,
    pub done: Instant,
}

/// One writer-affine ring of at most `cap` events: ticket `t` sits at
/// `events[t % cap]`, so the retained tickets are the last `cap` below
/// `head`.
struct Ring {
    cap: usize,
    head: u64,
    events: Vec<SpanEvent>,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap,
            head: 0,
            events: Vec::with_capacity(cap),
        }
    }

    /// Appends one event; returns whether an older event was evicted.
    fn push(&mut self, ev: SpanEvent) -> bool {
        let evicted = self.events.len() == self.cap;
        if evicted {
            self.events[(self.head % self.cap as u64) as usize] = ev;
        } else {
            self.events.push(ev);
        }
        self.head += 1;
        evicted
    }

    /// Copies out the retained window with its tickets, oldest first.
    fn snapshot(&self, out: &mut Vec<(u64, SpanEvent)>) {
        let cap = self.cap as u64;
        for t in self.head.saturating_sub(cap)..self.head {
            out.push((t, self.events[(t % cap) as usize]));
        }
    }
}

/// Pinned evidence for one slow trace.
struct ExemplarTrace {
    max_dur_ns: u64,
    spans: Vec<SpanEvent>,
}

/// A bounded, concurrent span recorder with causal context and a
/// tail-latency flight recorder. Embedded in every
/// [`MetricsRegistry`](crate::MetricsRegistry).
pub struct Tracer {
    origin: Instant,
    capacity: usize,
    buckets: Box<[Mutex<Ring>]>,
    /// Spans submitted (whether retained or not).
    recorded: AtomicU64,
    /// Spans evicted by ring wraparound.
    evicted: AtomicU64,
    /// EWMA of span durations (ns), α = 1/16; feeds the slow threshold.
    mean_ns: AtomicU64,
    /// Head-sampling rate: keep 1-in-N traces; 0 disables minting.
    sample_rate: AtomicU64,
    /// splitmix64 state for trace/span id minting.
    id_seed: AtomicU64,
    id_ctr: AtomicU64,
    /// Times a slow trace was pinned (or re-pinned with more spans).
    pinned: AtomicU64,
    exemplars: Mutex<BTreeMap<u64, ExemplarTrace>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

impl Tracer {
    pub(crate) fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    pub(crate) fn with_capacity(capacity: usize) -> Tracer {
        let capacity = capacity.max(1);
        // Small rings keep a single bucket so eviction order is exact;
        // large rings shard into `BUCKET_CAPACITY`-event rings.
        let nbuckets = (capacity / BUCKET_CAPACITY).clamp(1, 8);
        let per = capacity.div_ceil(nbuckets);
        let buckets = (0..nbuckets).map(|_| Mutex::new(Ring::new(per))).collect();
        Tracer {
            origin: Instant::now(),
            capacity,
            buckets,
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            mean_ns: AtomicU64::new(0),
            sample_rate: AtomicU64::new(1),
            id_seed: AtomicU64::new(DEFAULT_ID_SEED),
            id_ctr: AtomicU64::new(0),
            pinned: AtomicU64::new(0),
            exemplars: Mutex::new(BTreeMap::new()),
        }
    }

    /// Reseeds id minting. Servers perturb the default per process so
    /// span ids never collide across a cluster; tests pin it for
    /// deterministic id sequences.
    pub fn set_id_seed(&self, seed: u64) {
        self.id_seed.store(seed, Ordering::Relaxed);
    }

    /// Sets head sampling to keep 1-in-`rate` traces. `0` disables
    /// trace minting entirely; `1` (the default) samples everything.
    pub fn set_sample_rate(&self, rate: u32) {
        self.sample_rate.store(u64::from(rate), Ordering::Relaxed);
    }

    /// Mints the next span id: splitmix64 over a seeded counter, so
    /// sequences are deterministic given the seed and call order.
    pub fn next_span_id(&self) -> u64 {
        self.span_id(self.id_ctr.fetch_add(1, Ordering::Relaxed))
    }

    /// The span id of counter value `n`.
    fn span_id(&self, n: u64) -> u64 {
        splitmix64(
            self.id_seed
                .load(Ordering::Relaxed)
                .wrapping_add(n.wrapping_mul(SPLITMIX_GAMMA)),
        )
    }

    /// Mints a fresh root trace context, or `None` when tracing is
    /// disabled (`sample_rate == 0`). The context is returned even for
    /// unsampled traces — it must still propagate so downstream
    /// exemplar pinning can fire.
    pub fn mint_trace(&self) -> Option<TraceContext> {
        let rate = self.sample_rate.load(Ordering::Relaxed);
        if rate == 0 {
            return None;
        }
        let id = self.next_span_id().max(1);
        Some(TraceContext {
            trace_id: id,
            span_id: self.next_span_id(),
            sampled: rate == 1 || id.is_multiple_of(rate),
        })
    }

    /// Nanoseconds from the tracer's origin to `at` (zero if earlier).
    pub fn offset_ns(&self, at: Instant) -> u64 {
        saturating_ns(at.duration_since(self.origin))
    }

    /// Starts a span; the returned guard records on drop.
    #[cfg(test)]
    pub(crate) fn span(&self, class: &'static str, epoch: u64, shard: u32) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            class,
            epoch,
            shard,
            started: Instant::now(),
        }
    }

    /// Appends a completed event directly (what the guard does). When a
    /// thread-local [`TraceContext`] is active the span joins that
    /// trace as a child; otherwise it records untraced, always
    /// retained regardless of sampling.
    pub fn record(&self, class: &'static str, epoch: u64, shard: u32, started: Instant) {
        self.record_all(&[SpanRecord {
            class,
            epoch,
            shard,
            started,
            done: Instant::now(),
        }]);
    }

    /// [`Tracer::record`] for a group of finished spans at once, as a
    /// worker flushes a chunk's: their ids are drawn as one block and the
    /// group is published with one [`Tracer::submit_all`], so the shared
    /// counters and the ring bucket are touched once per group rather
    /// than once per span. The calling thread's context and steal
    /// annotation apply to every span of the group.
    pub fn record_all(&self, spans: &[SpanRecord]) {
        if spans.is_empty() {
            return;
        }
        let ctx = current();
        let steals = u32::from(chunk_stolen());
        let first = self.id_ctr.fetch_add(spans.len() as u64, Ordering::Relaxed);
        let events: Vec<SpanEvent> = spans
            .iter()
            .zip(first..)
            .map(|(s, n)| SpanEvent {
                class: s.class,
                stage: if ctx.is_some() { "exec" } else { "span" },
                epoch: s.epoch,
                shard: s.shard,
                start_ns: self.offset_ns(s.started),
                dur_ns: saturating_ns(s.done.saturating_duration_since(s.started)),
                trace_id: ctx.map_or(0, |c| c.trace_id),
                span_id: self.span_id(n),
                parent_id: ctx.map_or(0, |c| c.span_id),
                steals,
            })
            .collect();
        self.submit_all(&events, ctx.is_none_or(|c| c.sampled));
    }

    /// Publishes one completed span. `sampled` gates ring retention
    /// only; the rolling-threshold exemplar check always runs.
    pub fn submit(&self, ev: SpanEvent, sampled: bool) {
        self.submit_all(&[ev], sampled);
    }

    /// Publishes a group of spans from one trace as a unit: if the
    /// slowest of them crosses the rolling threshold the *whole group*
    /// is pinned, so a slow query's local span tree survives intact
    /// even when head sampling discarded it from the ring.
    pub fn submit_all(&self, events: &[SpanEvent], sampled: bool) {
        if events.is_empty() {
            return;
        }
        let threshold = self.slow_threshold_ns();
        self.recorded
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        if sampled {
            let bucket = &self.buckets[thread_slot() % self.buckets.len()];
            let mut ring = bucket.lock().unwrap_or_else(|e| e.into_inner());
            let mut evicted = 0u64;
            for ev in events {
                evicted += u64::from(ring.push(*ev));
            }
            drop(ring);
            if evicted > 0 {
                self.evicted.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        let mut max_dur = 0u64;
        let mut trace_id = 0u64;
        // Lossy under races on purpose: an EWMA feeding a coarse 8×
        // threshold does not need atomicity, so a group folds its spans
        // in locally and publishes the mean once.
        let mut mean = self.mean_ns.load(Ordering::Relaxed);
        for ev in events {
            mean = ewma(mean, ev.dur_ns);
            max_dur = max_dur.max(ev.dur_ns);
            if ev.trace_id != 0 {
                trace_id = ev.trace_id;
            }
        }
        self.mean_ns.store(mean, Ordering::Relaxed);
        if trace_id != 0 && max_dur >= threshold {
            self.pin_exemplar(trace_id, events, max_dur);
        }
    }

    /// The current slow-span threshold: 8× the EWMA mean duration once
    /// warmed up, `u64::MAX` before that.
    pub fn slow_threshold_ns(&self) -> u64 {
        if self.recorded.load(Ordering::Relaxed) < EXEMPLAR_WARMUP {
            return u64::MAX;
        }
        self.mean_ns
            .load(Ordering::Relaxed)
            .saturating_mul(8)
            .max(1)
    }

    fn pin_exemplar(&self, trace_id: u64, events: &[SpanEvent], max_dur: u64) {
        let mut st = self.exemplars.lock().unwrap();
        let entry = st.entry(trace_id).or_insert_with(|| ExemplarTrace {
            max_dur_ns: 0,
            spans: Vec::new(),
        });
        entry.max_dur_ns = entry.max_dur_ns.max(max_dur);
        for ev in events {
            if entry.spans.len() < EXEMPLAR_SPANS && !entry.spans.contains(ev) {
                entry.spans.push(*ev);
            }
        }
        // Keep the slowest traces: evict the fastest pinned trace.
        while st.len() > EXEMPLAR_TRACES {
            let victim = st
                .iter()
                .min_by_key(|(id, t)| (t.max_dur_ns, **id))
                .map(|(id, _)| *id)
                .expect("non-empty checked by len");
            st.remove(&victim);
        }
        self.pinned.fetch_add(1, Ordering::Relaxed);
    }

    /// The retained ring events, oldest first (ties broken by
    /// publication order within a writer bucket).
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut keyed: Vec<(u64, SpanEvent)> = Vec::new();
        for b in self.buckets.iter() {
            b.lock()
                .unwrap_or_else(|e| e.into_inner())
                .snapshot(&mut keyed);
        }
        keyed.sort_by_key(|(t, ev)| (ev.start_ns, *t, ev.span_id));
        keyed.into_iter().map(|(_, ev)| ev).collect()
    }

    /// Every span pinned in the exemplar store, grouped by trace id,
    /// oldest span first within a trace.
    pub fn exemplar_events(&self) -> Vec<SpanEvent> {
        let st = self.exemplars.lock().unwrap();
        let mut out: Vec<SpanEvent> = Vec::new();
        for t in st.values() {
            out.extend(t.spans.iter().copied());
        }
        out.sort_by_key(|ev| (ev.trace_id, ev.start_ns, ev.span_id));
        out
    }

    /// Trace ids currently pinned as slow-query exemplars.
    pub fn exemplar_trace_ids(&self) -> Vec<u64> {
        self.exemplars.lock().unwrap().keys().copied().collect()
    }

    /// Times a slow trace was pinned into the exemplar store.
    #[cfg(test)]
    pub(crate) fn exemplars_pinned(&self) -> u64 {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Spans submitted so far, retained or not. Once the writers are
    /// done, and with every span sampled, `recorded() == events().len() +
    /// dropped()` — the accounting identity that makes silent span loss
    /// test-visible.
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events dropped so far: ring evictions, the only way a sampled span
    /// leaves the ring.
    pub(crate) fn dropped(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Spans lost to writer contention: always 0, since a writer waits
    /// for its bucket instead of dropping the span. Kept only because
    /// spbench still reports it as `trace.spans_lost`; both go together.
    pub fn lost(&self) -> u64 {
        0
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The span-duration EWMA (α = 1/16) after folding in `dur_ns`.
fn ewma(mean: u64, dur_ns: u64) -> u64 {
    let next = if mean == 0 {
        dur_ns
    } else {
        mean.saturating_mul(15) / 16 + dur_ns / 16
    };
    next.max(1)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable small index for the calling thread, used for bucket affinity.
fn thread_slot() -> usize {
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let v = NEXT.fetch_add(1, Ordering::Relaxed);
        s.set(v);
        v
    })
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
    static CHUNK_STOLEN: Cell<bool> = const { Cell::new(false) };
}

/// The calling thread's active trace context, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Runs `f` with `ctx` as the thread's active trace context, restoring
/// the previous context afterwards (unwind-safe).
pub fn with_context<T>(ctx: Option<TraceContext>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<TraceContext>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(ctx)));
    f()
}

/// Marks whether the chunk currently executing on this thread was
/// work-stolen; picked up as a span annotation by [`Tracer::record`].
pub fn set_chunk_stolen(stolen: bool) {
    CHUNK_STOLEN.with(|c| c.set(stolen));
}

/// Whether the chunk currently executing on this thread was stolen.
pub fn chunk_stolen() -> bool {
    CHUNK_STOLEN.with(|c| c.get())
}

/// RAII guard: records the span into the tracer when dropped.
#[cfg(test)]
#[must_use = "a span records when the guard drops"]
pub(crate) struct SpanGuard<'a> {
    tracer: &'a Tracer,
    class: &'static str,
    epoch: u64,
    shard: u32,
    started: Instant,
}

#[cfg(test)]
impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer
            .record(self.class, self.epoch, self.shard, self.started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop_in_order() {
        let t = Tracer::new();
        {
            let _a = t.span("alpha", 1, 0);
        }
        {
            let _b = t.span("beta", 2, 3);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].class, "alpha");
        assert_eq!(evs[1].class, "beta");
        assert_eq!(evs[1].epoch, 2);
        assert_eq!(evs[1].shard, 3);
        assert!(evs[0].start_ns <= evs[1].start_ns);
        assert_eq!(t.dropped(), 0);
        // Untraced spans carry a zero trace id but still mint span ids.
        assert_eq!(evs[0].trace_id, 0);
        assert_ne!(evs[0].span_id, evs[1].span_id);
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.record("x", i, 0, Instant::now());
        }
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].epoch, 3);
        assert_eq!(evs[1].epoch, 4);
        assert_eq!(t.dropped(), 3);
        // The overflow accounting identity: nothing vanished silently.
        assert_eq!(t.recorded(), evs.len() as u64 + t.dropped());
    }

    #[test]
    fn concurrent_writers_lose_no_spans_below_capacity() {
        let t = std::sync::Arc::new(Tracer::with_capacity(4096));
        let threads: Vec<_> = (0..8)
            .map(|w| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        t.record("load", u64::from(w) * 1000 + i, w, Instant::now());
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        // Below capacity nothing is evicted, writers sharing a bucket
        // wait for each other, and the identity must hold exactly.
        assert_eq!(t.recorded(), 800);
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.events().len(), 800);
    }

    #[test]
    fn concurrent_overflow_is_counted_never_silent() {
        let t = std::sync::Arc::new(Tracer::with_capacity(64));
        let threads: Vec<_> = (0..4)
            .map(|w| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        t.record("load", i, w, Instant::now());
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.recorded(), 2000);
        // Every missing span is accounted for, exactly, as an eviction.
        let retained = t.events().len() as u64;
        assert!(retained <= 64);
        assert_eq!(t.recorded(), retained + t.dropped());
    }

    #[test]
    fn a_live_scrape_sees_no_torn_event_and_loses_no_span() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{Arc, Barrier};
        let t = Arc::new(Tracer::with_capacity(4096));
        let stop = Arc::new(AtomicBool::new(false));
        // The scraper and the four writers start together.
        let start = Arc::new(Barrier::new(5));
        let scraper = {
            let (t, stop, start) = (Arc::clone(&t), Arc::clone(&stop), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let mut scrapes = 0u64;
                while scrapes == 0 || !stop.load(Ordering::Relaxed) {
                    for ev in t.events() {
                        // Each writer puts its id in both fields.
                        assert_eq!(u64::from(ev.shard), ev.epoch, "torn event {ev:?}");
                    }
                    scrapes += 1;
                }
                scrapes
            })
        };
        let writers: Vec<_> = (0..4u32)
            .map(|w| {
                let (t, start) = (Arc::clone(&t), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..250 {
                        t.record("load", u64::from(w), w, Instant::now());
                    }
                })
            })
            .collect();
        for th in writers {
            th.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(scraper.join().unwrap() > 0);
        // 1 000 spans fit one bucket, however the writers share them.
        assert_eq!(t.recorded(), 1000);
        assert_eq!(t.recorded(), t.events().len() as u64 + t.dropped());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn minting_is_deterministic_and_sampling_gates_the_ring() {
        let a = Tracer::new();
        let b = Tracer::new();
        let ids_a: Vec<_> = (0..4).map(|_| a.next_span_id()).collect();
        let ids_b: Vec<_> = (0..4).map(|_| b.next_span_id()).collect();
        assert_eq!(ids_a, ids_b, "fixed seed must give fixed id streams");
        b.set_id_seed(1234);
        assert_ne!(a.next_span_id(), b.next_span_id());

        let t = Tracer::new();
        t.set_sample_rate(0);
        assert!(t.mint_trace().is_none());
        t.set_sample_rate(1);
        let ctx = t.mint_trace().expect("rate 1 mints");
        assert!(ctx.sampled && ctx.trace_id != 0);
        t.set_sample_rate(u32::MAX);
        // Unsampled contexts still propagate…
        let unsampled = t.mint_trace().expect("context propagates unsampled");
        // (astronomically unlikely to hit the 1-in-2^32 sample)
        assert!(!unsampled.sampled);
        // …but their spans stay out of the ring.
        let before = t.events().len();
        let ev = SpanEvent {
            class: "q",
            stage: "exec",
            epoch: 0,
            shard: 0,
            start_ns: 1,
            dur_ns: 10,
            trace_id: unsampled.trace_id,
            span_id: t.next_span_id(),
            parent_id: unsampled.span_id,
            steals: 0,
        };
        t.submit(ev, unsampled.sampled);
        assert_eq!(t.events().len(), before);
    }

    #[test]
    fn slow_traces_pin_whole_groups_even_unsampled() {
        let t = Tracer::new();
        // Warm the EWMA with fast spans so the threshold arms low.
        for i in 0..EXEMPLAR_WARMUP {
            t.submit(
                SpanEvent {
                    class: "fast",
                    stage: "exec",
                    epoch: i,
                    shard: 0,
                    start_ns: i,
                    dur_ns: 100,
                    trace_id: 0,
                    span_id: t.next_span_id(),
                    parent_id: 0,
                    steals: 0,
                },
                true,
            );
        }
        let threshold = t.slow_threshold_ns();
        assert!(threshold < 10_000, "threshold should be ~8x the mean");
        // An unsampled slow trace: a fast child rides along with the
        // slow root, and both get pinned.
        let root = SpanEvent {
            class: "q",
            stage: "query",
            epoch: 9,
            shard: 0,
            start_ns: 1000,
            dur_ns: threshold * 2,
            trace_id: 77,
            span_id: 1,
            parent_id: 0,
            steals: 0,
        };
        let child = SpanEvent {
            class: "q",
            stage: "enqueue",
            epoch: 9,
            shard: 0,
            start_ns: 1000,
            dur_ns: 5,
            trace_id: 77,
            span_id: 2,
            parent_id: 1,
            steals: 0,
        };
        let ring_before = t.events().len();
        t.submit_all(&[child, root], false);
        assert_eq!(t.events().len(), ring_before, "unsampled: ring untouched");
        assert_eq!(t.exemplar_trace_ids(), vec![77]);
        assert_eq!(t.exemplars_pinned(), 1);
        let pinned = t.exemplar_events();
        assert_eq!(pinned.len(), 2, "the whole group pins, not just the root");
        assert!(pinned.iter().any(|e| e.stage == "enqueue"));
    }

    #[test]
    fn exemplar_store_keeps_the_slowest_traces() {
        let t = Tracer::new();
        for i in 0..EXEMPLAR_WARMUP {
            t.record("warm", i, 0, Instant::now());
        }
        let base = t.slow_threshold_ns();
        assert_ne!(base, u64::MAX);
        for i in 0..(EXEMPLAR_TRACES as u64 + 8) {
            let ev = SpanEvent {
                class: "q",
                stage: "query",
                epoch: i,
                shard: 0,
                start_ns: i,
                // Each pin raises the EWMA (and so the threshold), so
                // chase the live threshold: strictly increasing
                // durations that always cross it — the last 32 slowest.
                dur_ns: t.slow_threshold_ns().saturating_mul(2),
                trace_id: 1000 + i,
                span_id: t.next_span_id(),
                parent_id: 0,
                steals: 0,
            };
            t.submit(ev, true);
        }
        let ids = t.exemplar_trace_ids();
        assert_eq!(ids.len(), EXEMPLAR_TRACES);
        assert!(
            ids.iter().all(|&id| id >= 1008),
            "fastest pinned traces evicted first: {ids:?}"
        );
    }

    #[test]
    fn thread_context_propagates_and_restores() {
        assert_eq!(current(), None);
        let ctx = TraceContext {
            trace_id: 9,
            span_id: 4,
            sampled: true,
        };
        let seen = with_context(Some(ctx), || {
            let inner = current().expect("context visible inside closure");
            let child_ctx = inner.child(11);
            assert_eq!(child_ctx.trace_id, 9);
            assert_eq!(child_ctx.span_id, 11);
            inner
        });
        assert_eq!(seen, ctx);
        assert_eq!(current(), None, "context restored after the closure");

        // record() inside a context attaches trace identity.
        let t = Tracer::new();
        with_context(Some(ctx), || {
            set_chunk_stolen(true);
            t.record("traced", 5, 2, Instant::now());
            set_chunk_stolen(false);
        });
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].trace_id, 9);
        assert_eq!(evs[0].parent_id, 4);
        assert_eq!(evs[0].stage, "exec");
        assert_eq!(evs[0].steals, 1);
    }
}
