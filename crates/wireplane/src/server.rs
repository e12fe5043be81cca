//! The shard server: one directory shard's state behind a loopback TCP
//! listener.
//!
//! Each server owns one [`DirectoryShard`] (its slice of the bit → host
//! partition) plus a per-shard [`Snapshot`] slice: the flow-record stores
//! of exactly the hosts it owns, with the small switch pointer metadata
//! carried whole (the paper's footprint argument — MPHF + pointer bits
//! are the cheap replicated layer, host stores the heavy partitioned
//! one). It answers the decode / host-read / fan-out RPCs of
//! [`Frame`]: a whole per-shard query wave arrives
//! as *one* request frame and leaves as one reply frame, which is what
//! makes the front-end's batched fan-out a single wire round trip per
//! shard.
//!
//! Serving model: one read-loop thread per connection behind a **bounded
//! accept pool** — beyond `WireConfig::max_conns` concurrent connections
//! the server greets with a typed [`WireError::Remote`] error frame and
//! closes instead of queueing unboundedly. Legacy untagged requests and
//! sequenced replication frames are served on the read loop, in arrival
//! order. Multiplexed (`Tagged`/`Batch`) reads are handed to the
//! connection's **parked serve workers**: threads grown on demand up to
//! `MAX_INFLIGHT_SERVES`, parked on a condvar between requests and joined
//! when the connection exits, so a request costs a wake-up, not a thread
//! spawn; past the cap the read loop serves inline (backpressure).
//! Listeners always bind `127.0.0.1:0`; the kernel-chosen port travels
//! back through [`ShardServer::local_addr`], so nothing in tests or CI
//! ever races for a fixed port. Shutdown is graceful: the accept loop is
//! woken by a sentinel connection and every connection thread is joined.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use netsim::packet::NodeId;
use obsplane::{Counter, Gauge, Histogram, MetricsRegistry, SpanEvent, TraceContext, Tracer};
use queryplane::Snapshot;
use switchpointer::bitset::BitSet;
use switchpointer::query::StateView;
use switchpointer::shard::DirectoryShard;
use telemetry::frame::{read_frame, Dec, WireError, MAX_FRAME};
use telemetry::EpochRange;

use crate::proto::Frame;

/// Per-frame wire metrics one serving loop records, resolved once at
/// spawn so the hot path never touches the registry's lock.
#[derive(Clone)]
pub(crate) struct WireLoopMetrics {
    pub(crate) frames_served: Arc<Counter>,
    pub(crate) decode_ns: Arc<Histogram>,
    pub(crate) serve_ns: Arc<Histogram>,
    pub(crate) encode_ns: Arc<Histogram>,
    /// Serve-worker threads ever started. Tracks peak concurrency per
    /// connection, never request count — workers are reused.
    pub(crate) serve_spawns: Arc<Counter>,
}

impl WireLoopMetrics {
    pub(crate) fn new(reg: &MetricsRegistry) -> Self {
        WireLoopMetrics {
            frames_served: reg.counter("wire.frames_served"),
            decode_ns: reg.histogram("wire.decode_ns"),
            serve_ns: reg.histogram("wire.serve_ns"),
            encode_ns: reg.histogram("wire.encode_ns"),
            serve_spawns: reg.counter("wire.serve_spawns"),
        }
    }
}

/// Transport tuning shared by servers, the front-end and clients.
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// Concurrent connections a listener serves before refusing with a
    /// typed error frame (the bounded accept pool).
    pub max_conns: usize,
    /// Largest frame either side accepts, in bytes.
    pub max_frame: u32,
    /// Worker threads in the front-end's shared execution pool: decoded
    /// query waves and window evaluations run there (work-stealing,
    /// chunked) instead of inline on connection threads.
    pub front_workers: usize,
    /// Head-sampling rate for causal traces minted at the front-end:
    /// keep 1-in-N traces in the span rings (`0` disables tracing,
    /// `1` — the default — samples everything). Unsampled traces still
    /// propagate context so slow-query exemplars pin everywhere.
    pub trace_sample_rate: u32,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_conns: 64,
            max_frame: MAX_FRAME,
            front_workers: 4,
            trace_sample_rate: 1,
        }
    }
}

/// Replication metrics one serving loop records, resolved once at spawn.
#[derive(Clone)]
struct ReplMetrics {
    /// Replication-log records applied in-band.
    applied_total: Arc<Counter>,
    /// Snapshot bootstraps installed.
    installs: Arc<Counter>,
    /// The replica's applied sequence number, as a scrapeable gauge.
    applied_seq: Arc<Gauge>,
    /// Wall-clock to apply one record (clone + patch + swap).
    apply_ns: Arc<Histogram>,
}

impl ReplMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        ReplMetrics {
            applied_total: reg.counter("repl.applied"),
            installs: reg.counter("repl.installs"),
            applied_seq: reg.gauge("repl.applied_seq"),
            apply_ns: reg.histogram("repl.apply_ns"),
        }
    }
}

/// Serves one replication frame against the shared state. Returns `None`
/// for non-replication frames (the read-only `serve` path handles those).
fn serve_replication(
    req: &Frame,
    my_shard: usize,
    state: &RwLock<Arc<ShardState>>,
    applied: &AtomicU64,
    m: &ReplMetrics,
    tracer: &Tracer,
) -> Option<Frame> {
    match req {
        Frame::DeltaAppend {
            shard,
            seq,
            record,
            ctx,
        } => {
            Some(if *shard as usize != my_shard {
                Frame::Error(WireError::Remote(format!(
                    "delta for shard {shard} sent to shard {my_shard}"
                )))
            } else {
                // The log contract: records apply exactly in sequence.
                // Anything else is a typed gap the owner resolves by
                // replaying the missing suffix or re-bootstrapping.
                let expected = applied.load(Ordering::SeqCst) + 1;
                if *seq != expected {
                    Frame::Error(WireError::SeqGap {
                        expected,
                        got: *seq,
                    })
                } else {
                    let started = Instant::now();
                    let mut guard = state.write().unwrap();
                    let cur = Arc::clone(&guard);
                    let mut view = cur.view.clone();
                    match view.apply_record(record) {
                        Ok(()) => {
                            *guard = Arc::new(ShardState {
                                shard: cur.shard.clone(),
                                view,
                            });
                            applied.store(*seq, Ordering::SeqCst);
                            m.applied_total.inc();
                            m.applied_seq.set(*seq as i64);
                            m.apply_ns.record_duration(started.elapsed());
                            // The apply joins the publisher's trace: the
                            // replica-side evidence when a slow query
                            // overlapped a replication burst.
                            if let Some(c) = ctx {
                                tracer.submit(
                                    SpanEvent {
                                        class: "DeltaAppend",
                                        stage: "apply",
                                        epoch: *seq,
                                        shard: my_shard as u32,
                                        start_ns: tracer.offset_ns(started),
                                        dur_ns: started.elapsed().as_nanos() as u64,
                                        trace_id: c.trace_id,
                                        span_id: tracer.next_span_id(),
                                        parent_id: c.span_id,
                                        steals: 0,
                                    },
                                    c.sampled,
                                );
                            }
                            Frame::DeltaAck {
                                shard: *shard,
                                applied: *seq,
                            }
                        }
                        Err(e) => Frame::Error(e),
                    }
                }
            })
        }
        Frame::SnapshotInstall { shard, seq, view } => {
            Some(if *shard as usize != my_shard {
                Frame::Error(WireError::Remote(format!(
                    "snapshot for shard {shard} sent to shard {my_shard}"
                )))
            } else {
                let mut guard = state.write().unwrap();
                let cur = Arc::clone(&guard);
                // The snapshot bytes need the deployment's shared MPHF
                // to decode; the replica re-attaches its own copy, so
                // the installed hierarchies compare `Arc::ptr_eq`-equal
                // to locally captured ones.
                let decoded = match cur.view.mphf() {
                    Some(mphf) => {
                        let mut d = Dec::new(view);
                        Snapshot::wire_dec(&mut d, mphf).and_then(|s| d.finish().map(|_| s))
                    }
                    None => Err(WireError::Remote(
                        "replica holds no MPHF to decode a snapshot".to_string(),
                    )),
                };
                match decoded {
                    Ok(new_view) => {
                        *guard = Arc::new(ShardState {
                            shard: cur.shard.clone(),
                            view: new_view,
                        });
                        // Bootstrap resets the log position unconditionally:
                        // a fresh or fallen-behind replica rejoins here.
                        applied.store(*seq, Ordering::SeqCst);
                        m.installs.inc();
                        m.applied_seq.set(*seq as i64);
                        Frame::DeltaAck {
                            shard: *shard,
                            applied: *seq,
                        }
                    }
                    Err(e) => Frame::Error(e),
                }
            })
        }
        Frame::ReplicaStatusReq => Some(Frame::ReplicaStatusRep {
            shard: my_shard as u16,
            applied: applied.load(Ordering::SeqCst),
        }),
        _ => None,
    }
}

/// One shard's serving state: the directory slice plus the snapshot
/// slice it answers reads from. Swapped wholesale on refresh.
pub struct ShardState {
    /// The directory shard this instance owns.
    pub shard: DirectoryShard,
    /// Snapshot slice: owned hosts' stores + full pointer metadata (see
    /// [`Snapshot::shard_slice`]).
    pub view: Snapshot,
}

impl ShardState {
    /// This shard's masked slice of a pointer union — the decode RPC's
    /// answer. Masking happens server-side, so one slice reply carries
    /// only the bits this shard is responsible for decoding.
    fn union_slice(&self, switch: NodeId, range: EpochRange) -> Option<BitSet> {
        self.view
            .pointer_union(switch, range)
            .map(|u| self.shard.mask(&u))
    }

    /// Serves one decoded request frame. Returns the reply frame (an
    /// [`Frame::Error`] for requests this role does not answer).
    fn serve(&self, req: &Frame) -> Frame {
        match req {
            Frame::UnionSliceReq { switch, range } => {
                Frame::UnionSliceRep(self.union_slice(*switch, *range))
            }
            Frame::ProbeExactReq {
                switch,
                addr,
                epoch,
            } => Frame::ProbeExactRep(self.view.pointer_contains_exact(*switch, *addr, *epoch)),
            Frame::PresenceWaveReq {
                switches,
                addr,
                range,
            } => Frame::PresenceWaveRep(self.view.presence_wave(switches, *addr, *range)),
            Frame::StoreLenReq { host } => {
                Frame::StoreLenRep(self.view.store_len(*host).map(|n| n as u64))
            }
            Frame::RecordReq { host, flow } => Frame::RecordRep(self.view.record(*host, *flow)),
            Frame::TriggerReq { host, flow } => {
                Frame::TriggerRep(self.view.first_trigger_for(*host, *flow))
            }
            Frame::StoreLenWaveReq { hosts } => Frame::StoreLenWaveRep(
                self.view
                    .store_len_wave(hosts)
                    .into_iter()
                    .map(|l| l.map(|n| n as u64))
                    .collect(),
            ),
            Frame::FilterWaveReq {
                switch,
                range,
                hosts,
            } => Frame::FilterWaveRep(
                self.view
                    .filter_wave(hosts, *switch, *range)
                    .into_iter()
                    .map(|(l, recs)| (l.map(|n| n as u64), recs))
                    .collect(),
            ),
            Frame::TopKWaveReq { switch, k, hosts } => Frame::TopKWaveRep(
                self.view
                    .top_k_wave(hosts, *switch, *k as usize)
                    .into_iter()
                    .map(|(l, flows)| (l.map(|n| n as u64), flows))
                    .collect(),
            ),
            Frame::SizesWaveReq { switch, hosts } => Frame::SizesWaveRep(
                self.view
                    .sizes_wave(hosts, *switch)
                    .into_iter()
                    .map(|(l, sizes)| (l.map(|n| n as u64), sizes))
                    .collect(),
            ),
            Frame::HorizonReq => Frame::HorizonRep(self.view.epoch_horizon()),
            other => Frame::Error(WireError::Remote(format!(
                "shard server cannot answer frame {:#04x}",
                other.tag()
            ))),
        }
    }
}

/// Shared listener mechanics (accept loop, bounded pool, graceful
/// shutdown) used by both the shard servers and the front-end.
pub(crate) struct Listener {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Clones of the live peer streams (keyed per connection, removed on
    /// connection exit): shutdown closes them so blocked connection
    /// threads wake from `read` and can be joined.
    streams: Arc<Mutex<std::collections::HashMap<u64, TcpStream>>>,
}

impl Listener {
    /// Binds `127.0.0.1:0` (always an ephemeral port — the bound address
    /// is plumbed back through [`Listener::addr`]) and serves each
    /// accepted connection on its own thread via `handle`, up to
    /// `max_conns` at once.
    pub(crate) fn spawn<F>(name: &str, max_conns: usize, handle: F) -> Result<Listener, WireError>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let streams: Arc<Mutex<std::collections::HashMap<u64, TcpStream>>> =
            Arc::new(Mutex::new(std::collections::HashMap::new()));
        let active = Arc::new(AtomicUsize::new(0));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let streams = Arc::clone(&streams);
            let handle = Arc::new(handle);
            let name = name.to_string();
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    let mut next_conn = 0u64;
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        if active.load(Ordering::SeqCst) >= max_conns {
                            // Bounded accept pool: refuse with a typed
                            // error frame rather than queueing.
                            refuse(stream, "accept pool exhausted");
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let conn_id = next_conn;
                        next_conn += 1;
                        match stream.try_clone() {
                            Ok(clone) => {
                                streams.lock().unwrap().insert(conn_id, clone);
                            }
                            // Without a registered clone, shutdown could
                            // not wake this connection's blocked read and
                            // would hang joining it — refuse instead.
                            Err(_) => continue,
                        }
                        active.fetch_add(1, Ordering::SeqCst);
                        let spawned = {
                            let handle = Arc::clone(&handle);
                            let active = Arc::clone(&active);
                            let streams = Arc::clone(&streams);
                            std::thread::Builder::new()
                                .name(format!("{name}-conn"))
                                .spawn(move || {
                                    handle(stream);
                                    streams.lock().unwrap().remove(&conn_id);
                                    active.fetch_sub(1, Ordering::SeqCst);
                                })
                        };
                        let jh = match spawned {
                            Ok(jh) => jh,
                            // A transient spawn failure costs this one
                            // connection, not the listener: undo the
                            // bookkeeping and refuse like a full pool.
                            // The stream itself died with the closure;
                            // the registered clone is the same socket.
                            Err(_) => {
                                active.fetch_sub(1, Ordering::SeqCst);
                                if let Some(s) = streams.lock().unwrap().remove(&conn_id) {
                                    refuse(s, "connection thread unavailable");
                                }
                                continue;
                            }
                        };
                        let mut guard = conns.lock().unwrap();
                        // Reap finished threads so the vec stays bounded.
                        let mut kept = Vec::new();
                        for h in guard.drain(..) {
                            if h.is_finished() {
                                let _ = h.join();
                            } else {
                                kept.push(h);
                            }
                        }
                        *guard = kept;
                        guard.push(jh);
                    }
                })
                .expect("spawn accept thread")
        };
        Ok(Listener {
            addr,
            shutdown,
            accept: Some(accept),
            conns,
            streams,
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the accept loop with a sentinel
    /// connection, closes every live peer stream (so connection threads
    /// blocked in `read` wake up) and joins every connection thread.
    pub(crate) fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for (_, s) in self.streams.lock().unwrap().drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for h in self.conns.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// Turns a connection away with a typed error frame, then closes it.
fn refuse(mut stream: TcpStream, why: &str) {
    let _ = Frame::Error(WireError::Remote(why.to_string())).write(&mut stream);
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Test hook: an artificial per-request serve delay, keyed off the
/// request frame. The interleaving suite rigs this to force tagged
/// requests to complete out of order.
pub type ServeDelay = Arc<dyn Fn(&Frame) -> std::time::Duration + Send + Sync>;

/// Serve workers per connection — the most multiplexed requests served
/// concurrently before the read loop falls back to serving in-band
/// (backpressure, and a bound on thread count).
const MAX_INFLIGHT_SERVES: usize = 32;

/// Everything one connection loop needs to answer a single read-only
/// request, shared with the connection's serve workers.
struct ServeCtx {
    state: Arc<RwLock<Arc<ShardState>>>,
    metrics: WireLoopMetrics,
    scrape_label: String,
    scrape_reg: Arc<MetricsRegistry>,
    shard: u32,
    delay: Arc<RwLock<Option<ServeDelay>>>,
}

impl ServeCtx {
    /// Serves one read-only request (scrape or shard read) and returns
    /// the reply frame. Replication is NOT handled here — it must stay
    /// in-band on the connection loop so the sequenced-log ordering
    /// survives out-of-order tagged dispatch.
    ///
    /// When the request's envelope carried a [`TraceContext`], the whole
    /// serve — *including* any rigged [`ServeDelay`] — records as a
    /// serve-stage span in the request's trace; the `wire.serve_ns`
    /// histogram stays delay-exclusive as before.
    fn serve_read(&self, req: &Frame, tctx: Option<TraceContext>) -> Frame {
        let span_started = Instant::now();
        if let Some(d) = self.delay.read().unwrap().as_ref() {
            std::thread::sleep(d(req));
        }
        // Scrapes are side-effect-free: snapshot-based, excluded from
        // the wire histograms, and they never record spans of their own,
        // so repeated scrapes of a quiesced server are identical.
        if matches!(req, Frame::StatsScrapeReq) {
            return Frame::StatsScrapeRep(vec![(
                self.scrape_label.clone(),
                self.scrape_reg.snapshot(),
            )]);
        }
        if matches!(req, Frame::TraceScrapeReq) {
            return Frame::TraceScrapeRep(vec![(
                self.scrape_label.clone(),
                crate::traces::dump_spans(self.scrape_reg.tracer()),
            )]);
        }
        let serve_started = Instant::now();
        let reply = {
            let state = self.state.read().unwrap().clone();
            state.serve(req)
        };
        self.metrics
            .serve_ns
            .record_duration(serve_started.elapsed());
        self.metrics.frames_served.inc();
        if let Some(c) = tctx {
            let tracer = self.scrape_reg.tracer();
            tracer.submit(
                SpanEvent {
                    class: req.kind_name(),
                    stage: "serve",
                    epoch: 0,
                    shard: self.shard,
                    start_ns: tracer.offset_ns(span_started),
                    dur_ns: span_started.elapsed().as_nanos() as u64,
                    trace_id: c.trace_id,
                    span_id: tracer.next_span_id(),
                    parent_id: c.span_id,
                    steals: 0,
                },
                c.sampled,
            );
        }
        reply
    }
}

/// Writes one whole frame through the shared per-connection writer in a
/// single `write_all`, so serve workers never interleave partial frames
/// on the socket.
///
/// Any failure — an unencodable reply (e.g. oversize) as much as a
/// broken pipe — shuts the socket down before reporting `false`. A
/// serve worker has no connection loop to `break` out of; if
/// its reply were silently dropped with the socket left healthy, the
/// client's demux would wait on that `req_id` forever. Killing the
/// socket makes the connection-loop read fail, the peer's reader
/// poisons every in-flight waiter, and the client fails over.
fn write_shared(writer: &Mutex<TcpStream>, frame: &Frame) -> bool {
    write_shared_observed(writer, frame, None)
}

/// [`write_shared`] with optional encode observation: the envelope
/// paths pass the loop metrics here so `Tagged`/`Batch` replies land in
/// `wire.encode_ns` like legacy replies do (scrape replies stay
/// unobserved to keep scrapes side-effect-free).
fn write_shared_observed(
    writer: &Mutex<TcpStream>,
    frame: &Frame,
    m: Option<&WireLoopMetrics>,
) -> bool {
    let encode_started = Instant::now();
    let ok = match frame.to_frame_bytes() {
        Ok(buf) => {
            if let Some(m) = m {
                m.encode_ns.record_duration(encode_started.elapsed());
            }
            let mut w = writer.lock().unwrap();
            w.write_all(&buf).is_ok() && w.flush().is_ok()
        }
        Err(_) => false,
    };
    if !ok {
        let _ = writer.lock().unwrap().shutdown(std::net::Shutdown::Both);
    }
    ok
}

/// One multiplexed serve: runs the request (or a whole batch) and returns
/// the reply envelope, plus whether its encode is observed in
/// `wire.encode_ns` (scrapes are not — they stay side-effect-free).
type ServeJob = Box<dyn FnOnce() -> (Frame, bool) + Send>;

/// Hand-off state between a connection's read loop and its workers.
struct ServeQueue {
    jobs: VecDeque<ServeJob>,
    /// Workers not inside a job: parked, about to park, or writing a
    /// reply. Every queued job is matched by one of them, so a job never
    /// waits behind another job's serve.
    free: usize,
    closed: bool,
}

/// A connection's serve workers: grown on demand up to
/// [`MAX_INFLIGHT_SERVES`], parked on a condvar between requests, joined
/// on drop. Owned by the connection's read loop — the only submitter.
struct ServeWorkers {
    shared: Arc<(Mutex<ServeQueue>, Condvar)>,
    workers: Vec<JoinHandle<()>>,
    name: String,
    writer: Arc<Mutex<TcpStream>>,
    metrics: WireLoopMetrics,
}

impl ServeWorkers {
    fn new(name: String, writer: Arc<Mutex<TcpStream>>, metrics: WireLoopMetrics) -> Self {
        ServeWorkers {
            shared: Arc::new((
                Mutex::new(ServeQueue {
                    jobs: VecDeque::new(),
                    free: 0,
                    closed: false,
                }),
                Condvar::new(),
            )),
            workers: Vec::new(),
            name,
            writer,
            metrics,
        }
    }

    /// Serves `job` on a worker — or, past the cap, right here on the
    /// calling read loop, which also throttles the reader (backpressure).
    /// `false` means an inline reply could not be written: the socket is
    /// gone and the loop should exit.
    fn dispatch(&mut self, job: ServeJob) -> bool {
        let Some(job) = self.submit(job) else {
            return true;
        };
        let (reply, observed) = job();
        write_shared_observed(&self.writer, &reply, observed.then_some(&self.metrics))
    }

    /// Hands `job` to a free worker, starting one if all are busy and the
    /// cap allows. Gives the job back when it must be served inline: at
    /// the cap, or when no thread could be started for it.
    fn submit(&mut self, job: ServeJob) -> Option<ServeJob> {
        let (lock, wake) = &*self.shared;
        let mut q = lock.lock().expect("serve queue lock: jobs run outside it");
        if q.jobs.len() < q.free {
            q.jobs.push_back(job);
            wake.notify_one();
            return None;
        }
        if self.workers.len() >= MAX_INFLIGHT_SERVES {
            return Some(job);
        }
        q.jobs.push_back(job);
        drop(q);
        let shared = Arc::clone(&self.shared);
        let writer = Arc::clone(&self.writer);
        let metrics = self.metrics.clone();
        let spawned = std::thread::Builder::new()
            .name(self.name.clone())
            .spawn(move || serve_worker(&shared, &writer, &metrics));
        match spawned {
            Ok(h) => {
                self.metrics.serve_spawns.inc();
                self.workers.push(h);
                None
            }
            // This loop is the only submitter, so the newest queued job
            // is the one just pushed — unless a worker that freed up in
            // the meantime already took it.
            Err(_) => lock
                .lock()
                .expect("serve queue lock: jobs run outside it")
                .jobs
                .pop_back(),
        }
    }
}

impl Drop for ServeWorkers {
    /// Lets the workers finish what was handed to them, then joins them.
    fn drop(&mut self) {
        let (lock, wake) = &*self.shared;
        lock.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        wake.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A serve worker's life: take a job, serve it, write the reply, park.
/// The worker counts as free again *before* it writes the reply, so a
/// client that sends its next request the moment the reply lands finds
/// this worker rather than forcing a new one.
fn serve_worker(
    shared: &(Mutex<ServeQueue>, Condvar),
    writer: &Mutex<TcpStream>,
    metrics: &WireLoopMetrics,
) {
    let (lock, wake) = shared;
    let relock = || lock.lock().expect("serve queue lock: jobs run outside it");
    let mut q = relock();
    q.free += 1;
    loop {
        if let Some(job) = q.jobs.pop_front() {
            q.free -= 1;
            drop(q);
            let (reply, observed) = job();
            relock().free += 1;
            let _ = write_shared_observed(writer, &reply, observed.then_some(metrics));
            q = relock();
        } else if q.closed {
            return;
        } else {
            q = wake.wait(q).expect("serve queue lock: jobs run outside it");
        }
    }
}

/// A running shard server.
pub struct ShardServer {
    listener: Listener,
    state: Arc<RwLock<Arc<ShardState>>>,
    /// Replication-log position: the seq of the last applied record.
    applied: Arc<AtomicU64>,
    shard: usize,
    metrics: Arc<MetricsRegistry>,
    /// Test hook: artificial per-request serve delay (see [`ServeDelay`]).
    delay: Arc<RwLock<Option<ServeDelay>>>,
}

impl ShardServer {
    /// Binds `127.0.0.1:0` and starts serving `state`. The ephemeral
    /// bound address comes back via [`ShardServer::local_addr`].
    pub fn spawn(state: ShardState, n_shards: usize, cfg: WireConfig) -> Result<Self, WireError> {
        let shard = state.shard.id();
        let state = Arc::new(RwLock::new(Arc::new(state)));
        let serving = Arc::clone(&state);
        let applied = Arc::new(AtomicU64::new(0));
        let applying = Arc::clone(&applied);
        let max_frame = cfg.max_frame;
        let metrics = Arc::new(MetricsRegistry::new());
        // Perturb the span-id seed per shard (deterministically) so ids
        // minted by different processes of one cluster never collide in
        // a reassembled trace tree.
        metrics
            .tracer()
            .set_id_seed((shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let m = WireLoopMetrics::new(&metrics);
        let repl_m = ReplMetrics::new(&metrics);
        let scrape_label = format!("shard{shard}");
        let scrape_reg = Arc::clone(&metrics);
        let delay: Arc<RwLock<Option<ServeDelay>>> = Arc::new(RwLock::new(None));
        let delay_hook = Arc::clone(&delay);
        let listener = Listener::spawn(
            &format!("wireplane-shard{shard}"),
            cfg.max_conns,
            move |mut stream| {
                // Greet with role + shard id so the dialer can verify it
                // reached the shard it meant to.
                if (Frame::Hello {
                    shard: shard as u16,
                    n_shards: n_shards as u16,
                })
                .write(&mut stream)
                .is_err()
                {
                    return;
                }
                // All replies funnel through one shared writer so the
                // spawned tagged-serve threads below never interleave
                // partial frames with the loop's own replies.
                let writer = match stream.try_clone() {
                    Ok(s) => Arc::new(Mutex::new(s)),
                    Err(_) => return,
                };
                let ctx = Arc::new(ServeCtx {
                    state: Arc::clone(&serving),
                    metrics: m.clone(),
                    scrape_label: scrape_label.clone(),
                    scrape_reg: Arc::clone(&scrape_reg),
                    shard: shard as u32,
                    delay: Arc::clone(&delay_hook),
                });
                let mut workers = ServeWorkers::new(
                    format!("wireplane-shard{shard}-serve"),
                    Arc::clone(&writer),
                    m.clone(),
                );
                loop {
                    let (tag, payload) = match read_frame(&mut stream, max_frame) {
                        Ok(fr) => fr,
                        Err(WireError::Io { .. }) => break, // peer gone
                        Err(e) => {
                            // Framing is lost: report the typed error and
                            // drop the connection (the client reconnects).
                            let _ = write_shared(&writer, &Frame::Error(e));
                            break;
                        }
                    };
                    let decode_started = Instant::now();
                    let req = match Frame::decode(tag, &payload) {
                        Ok(req) => req,
                        Err(e) => {
                            let _ = write_shared(&writer, &Frame::Error(e));
                            break;
                        }
                    };
                    let decode_elapsed = decode_started.elapsed();
                    match req {
                        // Multiplexed fast path: tagged requests complete
                        // out of order on the serve workers, so a
                        // slow fan-out never convoys the scrapes and
                        // replication acks sharing the link. Sequenced
                        // replication frames are the exception — they
                        // serve in-band, in arrival order, or SeqGap
                        // would fire on every reordering.
                        Frame::Tagged {
                            req_id,
                            ctx: tctx,
                            inner,
                        } => {
                            // Tagged scrapes stay side-effect-free: not
                            // even their decode is recorded.
                            let is_scrape =
                                matches!(*inner, Frame::StatsScrapeReq | Frame::TraceScrapeReq);
                            if !is_scrape {
                                m.decode_ns.record_duration(decode_elapsed);
                            }
                            if let Some(reply) = serve_replication(
                                &inner,
                                shard,
                                &serving,
                                &applying,
                                &repl_m,
                                scrape_reg.tracer(),
                            ) {
                                if !write_shared_observed(
                                    &writer,
                                    &Frame::Tagged {
                                        req_id,
                                        ctx: None,
                                        inner: Box::new(reply),
                                    },
                                    Some(&m),
                                ) {
                                    break;
                                }
                                continue;
                            }
                            let job: ServeJob = {
                                let ctx = Arc::clone(&ctx);
                                Box::new(move || {
                                    let reply = Frame::Tagged {
                                        req_id,
                                        ctx: None,
                                        inner: Box::new(ctx.serve_read(&inner, tctx)),
                                    };
                                    (reply, !is_scrape)
                                })
                            };
                            if !workers.dispatch(job) {
                                break;
                            }
                        }
                        // A whole wave batch serves on one worker and
                        // answers with one BatchRep; other tagged traffic
                        // keeps flowing meanwhile. Batches carrying
                        // replication serve in-band for the same ordering
                        // reason as above.
                        Frame::Batch(entries) => {
                            let all_scrapes = entries.iter().all(|(_, _, f)| {
                                matches!(f, Frame::StatsScrapeReq | Frame::TraceScrapeReq)
                            });
                            if !all_scrapes {
                                m.decode_ns.record_duration(decode_elapsed);
                            }
                            let has_repl = entries.iter().any(|(_, _, f)| {
                                matches!(
                                    f,
                                    Frame::DeltaAppend { .. }
                                        | Frame::SnapshotInstall { .. }
                                        | Frame::ReplicaStatusReq
                                )
                            });
                            if has_repl {
                                let replies: Vec<(u32, Frame)> = entries
                                    .iter()
                                    .map(|(id, tctx, f)| {
                                        let reply = serve_replication(
                                            f,
                                            shard,
                                            &serving,
                                            &applying,
                                            &repl_m,
                                            scrape_reg.tracer(),
                                        )
                                        .unwrap_or_else(|| ctx.serve_read(f, *tctx));
                                        (*id, reply)
                                    })
                                    .collect();
                                if !write_shared_observed(
                                    &writer,
                                    &Frame::BatchRep(replies),
                                    Some(&m),
                                ) {
                                    break;
                                }
                                continue;
                            }
                            let job: ServeJob = {
                                let ctx = Arc::clone(&ctx);
                                Box::new(move || {
                                    let replies: Vec<(u32, Frame)> = entries
                                        .iter()
                                        .map(|(id, tctx, f)| (*id, ctx.serve_read(f, *tctx)))
                                        .collect();
                                    (Frame::BatchRep(replies), !all_scrapes)
                                })
                            };
                            if !workers.dispatch(job) {
                                break;
                            }
                        }
                        // Legacy untagged path: serve in arrival order.
                        req => {
                            // Scrapes are answered entirely side-effect-
                            // free — not even their own decode/encode is
                            // recorded — so the snapshot that crosses the
                            // wire is exactly the server registry's, and
                            // repeated scrapes of a quiesced server are
                            // identical.
                            if matches!(req, Frame::StatsScrapeReq) {
                                let reply = Frame::StatsScrapeRep(vec![(
                                    scrape_label.clone(),
                                    scrape_reg.snapshot(),
                                )]);
                                if !write_shared(&writer, &reply) {
                                    break;
                                }
                                continue;
                            }
                            if matches!(req, Frame::TraceScrapeReq) {
                                let reply = Frame::TraceScrapeRep(vec![(
                                    scrape_label.clone(),
                                    crate::traces::dump_spans(scrape_reg.tracer()),
                                )]);
                                if !write_shared(&writer, &reply) {
                                    break;
                                }
                                continue;
                            }
                            // Replication frames are the one write path:
                            // handled here (the shared `serve` is
                            // read-only).
                            if let Some(reply) = serve_replication(
                                &req,
                                shard,
                                &serving,
                                &applying,
                                &repl_m,
                                scrape_reg.tracer(),
                            ) {
                                if !write_shared(&writer, &reply) {
                                    break;
                                }
                                continue;
                            }
                            m.decode_ns.record_duration(decode_elapsed);
                            let serve_started = Instant::now();
                            let reply = {
                                let state = serving.read().unwrap().clone();
                                state.serve(&req)
                            };
                            m.serve_ns.record_duration(serve_started.elapsed());
                            let encode_started = Instant::now();
                            let Ok(buf) = reply.to_frame_bytes() else {
                                break;
                            };
                            m.encode_ns.record_duration(encode_started.elapsed());
                            m.frames_served.inc();
                            let ok = {
                                let mut w = writer.lock().unwrap();
                                w.write_all(&buf).is_ok() && w.flush().is_ok()
                            };
                            if !ok {
                                break;
                            }
                        }
                    }
                }
                // Leaving the loop drops `workers`: in-flight serves
                // finish and every worker is joined.
            },
        )?;
        Ok(ShardServer {
            listener,
            state,
            applied,
            shard,
            metrics,
            delay,
        })
    }

    /// Installs (or clears, with `None`) an artificial per-request serve
    /// delay on the multiplexed path. Test hook: the interleaving suite
    /// rigs request-dependent delays so tagged replies provably complete
    /// out of order.
    pub fn set_serve_delay(&self, delay: Option<ServeDelay>) {
        *self.delay.write().unwrap() = delay;
    }

    /// The shard this server owns.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// This server's obsplane registry (`wire.*` frame metrics). The
    /// scrape RPC serves snapshots of exactly this registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The bound loopback address (ephemeral port chosen by the kernel).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The replica's replication-log position: seq of the last applied
    /// [`Frame::DeltaAppend`] (or [`Frame::SnapshotInstall`] bootstrap).
    pub fn applied_seq(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// The state currently being served, as the connection loop sees it.
    /// Divergence tests compare a primary's and standby's views through
    /// this — both must be bit-identical at every applied seq.
    pub fn state(&self) -> Arc<ShardState> {
        Arc::clone(&self.state.read().unwrap())
    }

    /// Graceful shutdown: stop accepting, join every connection thread.
    pub fn shutdown(mut self) {
        self.listener.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Duration;

    use netsim::prelude::*;
    use switchpointer::testbed::{Testbed, TestbedConfig};

    use crate::{MuxConn, WireCluster};

    /// One shard server (plus front-end) over a small chain deployment.
    fn one_shard_cluster() -> WireCluster {
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
        WireCluster::launch(&tb.analyzer(), 1, WireConfig::default()).unwrap()
    }

    fn serve_spawns(cluster: &WireCluster) -> u64 {
        cluster
            .server_metrics(0)
            .snapshot()
            .counter("wire.serve_spawns")
    }

    /// Sequential tagged traffic is served by one parked worker, woken per
    /// request — the worker count follows concurrency, not request count.
    #[test]
    fn sequential_tagged_calls_reuse_one_serve_worker() {
        let cluster = one_shard_cluster();
        let (mux, _, _) = MuxConn::connect(cluster.shard_addrs()[0], MAX_FRAME).unwrap();
        let before = serve_spawns(&cluster);
        for _ in 0..1000 {
            assert!(matches!(
                mux.call(&Frame::HorizonReq).unwrap(),
                Frame::HorizonRep(_)
            ));
        }
        assert_eq!(
            serve_spawns(&cluster) - before,
            1,
            "1000 sequential requests must wake one worker, not start more"
        );
        cluster.shutdown();
    }

    /// 40 requests in flight at once on one connection: the first
    /// `MAX_INFLIGHT_SERVES` each get a worker, the next is served inline
    /// on the read loop (which therefore stops reading — backpressure),
    /// and every reply still pairs with its request.
    #[test]
    fn concurrent_requests_past_the_worker_cap_are_served_inline() {
        const REQUESTS: u32 = 40;
        let cluster = one_shard_cluster();
        let before = serve_spawns(&cluster);

        // A gate instead of a timer: every serve announces itself, then
        // blocks until the test opens the gate.
        let gate = Arc::new((Mutex::new((0usize, false)), Condvar::new()));
        let delay: ServeDelay = {
            let gate = Arc::clone(&gate);
            Arc::new(move |_: &Frame| {
                let (lock, cond) = &*gate;
                let mut g = lock.lock().unwrap();
                g.0 += 1;
                cond.notify_all();
                while !g.1 {
                    g = cond.wait(g).unwrap();
                }
                Duration::ZERO
            })
        };
        cluster.server(0).set_serve_delay(Some(delay));

        // A raw socket, so the 40 requests travel as 40 `Tagged` frames
        // (a `MuxConn` would combine concurrent callers into batches).
        let mut stream = TcpStream::connect(cluster.shard_addrs()[0]).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        assert!(matches!(
            Frame::read(&mut stream, MAX_FRAME).unwrap(),
            Frame::Hello { .. }
        ));
        // Even ids ask for the horizon, odd ids for an unknown host's
        // store: a reply crossing wires would show up as the wrong type.
        for req_id in 0..REQUESTS {
            let inner = if req_id % 2 == 0 {
                Frame::HorizonReq
            } else {
                Frame::StoreLenReq {
                    host: NodeId(u32::MAX),
                }
            };
            Frame::Tagged {
                req_id,
                ctx: None,
                inner: Box::new(inner),
            }
            .write(&mut stream)
            .unwrap();
        }

        let (lock, cond) = &*gate;
        let inline_and_workers = MAX_INFLIGHT_SERVES + 1;
        {
            let mut g = lock.lock().unwrap();
            while g.0 < inline_and_workers {
                let (next, timeout) = cond.wait_timeout(g, Duration::from_secs(30)).unwrap();
                assert!(!timeout.timed_out(), "only {} serves started", next.0);
                g = next;
            }
        }
        // The read loop is stuck inside the inline serve: with the gate
        // shut, no further request can start however long we wait.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(lock.lock().unwrap().0, inline_and_workers);
        assert_eq!(
            serve_spawns(&cluster) - before,
            MAX_INFLIGHT_SERVES as u64,
            "the cap bounds the workers; the overflow request got none"
        );

        lock.lock().unwrap().1 = true;
        cond.notify_all();
        let mut seen = vec![false; REQUESTS as usize];
        for _ in 0..REQUESTS {
            match Frame::read(&mut stream, MAX_FRAME).unwrap() {
                Frame::Tagged { req_id, inner, .. } => {
                    assert!(!std::mem::replace(&mut seen[req_id as usize], true));
                    match (*inner, req_id % 2) {
                        (Frame::HorizonRep(_), 0) | (Frame::StoreLenRep(None), 1) => {}
                        (other, _) => panic!("request {req_id} got {other:?}"),
                    }
                }
                other => panic!("expected a tagged reply, got {other:?}"),
            }
        }
        assert_eq!(
            serve_spawns(&cluster) - before,
            MAX_INFLIGHT_SERVES as u64,
            "draining the backlog reuses the parked workers"
        );
        cluster.server(0).set_serve_delay(None);
        cluster.shutdown();
    }

    /// Shutdown with a serve in flight: the worker is joined (not
    /// abandoned), shutdown does not hang on it, and the caller whose
    /// connection was closed under it sees a transport error — never a
    /// reply written after the close.
    #[test]
    fn shutdown_joins_a_worker_that_is_mid_serve() {
        let cluster = one_shard_cluster();
        let (mux, _, _) = MuxConn::connect(cluster.shard_addrs()[0], MAX_FRAME).unwrap();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let entered_tx = Mutex::new(entered_tx);
        let finished = Arc::new(AtomicBool::new(false));
        let delay: ServeDelay = {
            let mux = Arc::clone(&mux);
            let finished = Arc::clone(&finished);
            Arc::new(move |_: &Frame| {
                let _ = entered_tx.lock().unwrap().send(());
                // Hold the serve open until the server has closed this
                // very connection (the client side observes the close).
                let deadline = Instant::now() + Duration::from_secs(30);
                while !mux.is_dead() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                finished.store(true, Ordering::SeqCst);
                Duration::ZERO
            })
        };
        cluster.server(0).set_serve_delay(Some(delay));

        std::thread::scope(|scope| {
            let call = scope.spawn(|| mux.call(&Frame::HorizonReq));
            entered_rx.recv().expect("the serve never started");
            cluster.shutdown();
            assert!(
                finished.load(Ordering::SeqCst),
                "shutdown returned before the in-flight serve was joined"
            );
            match call.join().unwrap() {
                Err(WireError::Io { .. }) => {}
                other => panic!("expected a transport error, got {other:?}"),
            }
        });
    }

    /// A reply that cannot be encoded (or written) must kill the socket,
    /// not leave it healthy with the reply silently dropped — otherwise a
    /// client demuxing by req_id would wait on the missing reply forever.
    /// The peer here sees EOF instead of an indefinite hang.
    #[test]
    fn write_shared_failure_shuts_the_socket_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let writer = Mutex::new(server_side);

        // An encodable frame goes through and reports success.
        assert!(write_shared(&writer, &Frame::HorizonRep(7)));

        // A payload over MAX_FRAME fails to encode: write_shared must
        // report failure AND shut the stream down.
        let oversize = Frame::SnapshotInstall {
            shard: 0,
            seq: 1,
            view: vec![0u8; MAX_FRAME as usize],
        };
        assert!(!write_shared(&writer, &oversize));

        // Drain the good frame, then expect EOF — not a hang, and not
        // more data.
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let good = Frame::HorizonRep(7).to_frame_bytes().unwrap();
        let mut got = vec![0u8; good.len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, good);
        let mut rest = Vec::new();
        assert_eq!(peer.read_to_end(&mut rest).unwrap(), 0, "expected EOF");
    }
}
