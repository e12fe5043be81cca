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
//! Serving model: **leader/followers** per connection, behind a **bounded
//! accept pool** — beyond `WireConfig::max_conns` concurrent connections
//! the server greets with a typed [`WireError::Remote`] error frame and
//! closes instead of queueing unboundedly. A connection's read half is a
//! token. The thread holding it (the leader) reads and decodes one frame
//! at a time, and the socket has one grammar. *A bare frame is a
//! sequenced replication frame* (`DeltaAppend`, `SnapshotInstall`,
//! `ReplicaStatusReq`): the leader applies it right there, token held, so
//! the log moves in arrival order. *A `Tagged`/`Batch` envelope is a read
//! or a scrape* and may complete out of order: the leader **passes the
//! token on first** — to a thread parked on it, or to a follower started
//! for it while fewer than `MAX_INFLIGHT_SERVES` exist — and then serves
//! the request and writes
//! the reply itself: the thread that decoded a request is the thread that
//! answers it, so no request waits on a hand-off, and the wake-up of the
//! next reader happens beside the serve instead of in front of it.
//! Replies complete out of order through one shared writer. At the
//! follower cap the leader keeps the token and serves with it held, which
//! stops the reading (backpressure; counted in `wire.serve_inline`).
//! Followers are joined when the connection exits. Anything else — a
//! bare read or scrape, replication inside an envelope — is answered
//! with a typed [`WireError::Remote`], moves no state and leaves the
//! connection serving.
//! Listeners always bind `127.0.0.1:0`; the kernel-chosen port travels
//! back through `ShardServer::local_addr`, so nothing in tests or CI
//! ever races for a fixed port. Shutdown is graceful: the accept loop is
//! woken by a sentinel connection and every connection thread is joined.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use obsplane::{Counter, Gauge, Histogram, MetricsRegistry, SpanEvent, TraceContext};
use queryplane::{DeltaRecord, Snapshot};
use switchpointer::query::StateView;
use switchpointer::shard::{DirectoryShard, LocalBackend, ShardBackend};
use telemetry::frame::{read_frame, Dec, WireError, MAX_FRAME};

use crate::proto::Frame;

/// Per-frame wire metrics one serving loop records, resolved once at
/// spawn so the hot path never touches the registry's lock.
#[derive(Clone)]
pub(crate) struct WireLoopMetrics {
    pub(crate) frames_served: Arc<Counter>,
    pub(crate) decode_ns: Arc<Histogram>,
    pub(crate) serve_ns: Arc<Histogram>,
    pub(crate) encode_ns: Arc<Histogram>,
    /// Follower threads ever started. Tracks peak concurrency per
    /// connection, never request count — threads are reused.
    pub(crate) serve_spawns: Arc<Counter>,
    /// Multiplexed requests served with the read token held, because the
    /// follower cap was reached or no follower could be started: the
    /// connection's saturation signal.
    pub(crate) serve_inline: Arc<Counter>,
}

impl WireLoopMetrics {
    pub(crate) fn new(reg: &MetricsRegistry) -> Self {
        WireLoopMetrics {
            frames_served: reg.counter("wire.frames_served"),
            decode_ns: reg.histogram("wire.decode_ns"),
            serve_ns: reg.histogram("wire.serve_ns"),
            encode_ns: reg.histogram("wire.encode_ns"),
            serve_spawns: reg.counter("wire.serve_spawns"),
            serve_inline: reg.counter("wire.serve_inline"),
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
    /// query waves and window evaluations of two or more queries run
    /// there (work-stealing, chunked); a wave of one runs on the thread
    /// that submitted it.
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
    /// Wall-clock to apply one record: share the served state, patch in
    /// what the record names, re-check the seq and swap — everything
    /// between an in-sequence append being decoded and its ack being
    /// built. Only the re-check and the swap hold the state's write lock.
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

/// What a replication frame leaves behind: the reply, and — when the
/// frame moved the log — the state it retired.
type Replicated = (Frame, Option<Arc<ShardState>>);

/// Serves one replication frame against the shared state. The retired
/// state comes back beside the reply so the caller can put the ack on the
/// wire *before* it pays for freeing what the swap replaced (the owner
/// waits for the ack, not for the free). Returns `None` for every other
/// frame.
fn serve_replication(req: &Frame, ctx: &ServeCtx) -> Option<Replicated> {
    let my_shard = ctx.shard;
    let refuse = |what: &str, shard: u16| {
        let why = format!("{what} for shard {shard} sent to shard {my_shard}");
        (Frame::Error(WireError::Remote(why)), None)
    };
    match req {
        Frame::DeltaAppend { shard, .. } if *shard as usize != my_shard => {
            Some(refuse("delta", *shard))
        }
        Frame::DeltaAppend {
            seq,
            record,
            ctx: tctx,
            ..
        } => Some(match apply_append(ctx, *seq, record, *tctx) {
            Ok(retired) => (ack(my_shard, *seq), Some(retired)),
            Err(e) => (Frame::Error(e), None),
        }),
        Frame::SnapshotInstall { shard, .. } if *shard as usize != my_shard => {
            Some(refuse("snapshot", *shard))
        }
        Frame::SnapshotInstall { seq, view, .. } => Some(match install(ctx, *seq, view) {
            Ok(retired) => (ack(my_shard, *seq), Some(retired)),
            Err(e) => (Frame::Error(e), None),
        }),
        Frame::ReplicaStatusReq => Some((
            Frame::ReplicaStatusRep {
                shard: my_shard as u16,
                applied: ctx.applied.load(Ordering::SeqCst),
            },
            None,
        )),
        _ => None,
    }
}

fn ack(shard: usize, applied: u64) -> Frame {
    Frame::DeltaAck {
        shard: shard as u16,
        applied,
    }
}

/// Applies one sequenced record and returns the state it retired. The
/// log contract: records apply exactly in sequence; anything else is a
/// typed [`WireError::SeqGap`] the owner resolves by re-bootstrapping.
fn apply_append(
    ctx: &ServeCtx,
    seq: u64,
    record: &DeltaRecord,
    tctx: Option<TraceContext>,
) -> Result<Arc<ShardState>, WireError> {
    let (state, applied, m) = (&ctx.state, &ctx.applied, &ctx.repl_metrics);
    let gap = |expected| WireError::SeqGap { expected, got: seq };
    let started = Instant::now();
    // The position only moves together with the state, under the write
    // lock — so this pair is one point of the log.
    let (base, expected) = {
        let guard = state.read().unwrap();
        (Arc::clone(&guard), applied.load(Ordering::SeqCst) + 1)
    };
    if seq != expected {
        return Err(gap(expected));
    }
    // Built beside the readers, not in front of them: the clone shares
    // every component and the record replaces only what it names.
    let mut view = base.view.clone();
    view.apply_record(record)?;
    let next = Arc::new(ShardState {
        shard: Arc::clone(&base.shard),
        view,
    });
    let retired = {
        // The check and the swap are one critical section: a second
        // replication connection racing the same seq (or an install) has
        // moved the state off `base`, and exactly one of the two may land.
        let mut guard = state.write().unwrap();
        let expected = applied.load(Ordering::SeqCst) + 1;
        if seq != expected || !Arc::ptr_eq(&guard, &base) {
            return Err(gap(expected));
        }
        applied.store(seq, Ordering::SeqCst);
        std::mem::replace(&mut *guard, next)
    };
    m.applied_total.inc();
    m.applied_seq.set(seq as i64);
    m.apply_ns.record_duration(started.elapsed());
    // The apply joins the publisher's trace: the replica-side evidence
    // when a slow query overlapped a replication burst.
    if let Some(c) = tctx {
        let tracer = ctx.scrape_reg.tracer();
        tracer.submit(
            SpanEvent {
                class: "DeltaAppend",
                stage: "apply",
                epoch: seq,
                shard: ctx.shard as u32,
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
    Ok(retired)
}

/// Installs a full encoded snapshot slice at `seq` and returns the state
/// it retired. Bootstrap resets the log position unconditionally: a
/// fresh or fallen-behind replica rejoins here.
fn install(ctx: &ServeCtx, seq: u64, view: &[u8]) -> Result<Arc<ShardState>, WireError> {
    let cur = Arc::clone(&ctx.state.read().unwrap());
    // The snapshot bytes need the deployment's shared MPHF to decode; the
    // replica re-attaches its own copy, so the installed hierarchies
    // compare `Arc::ptr_eq`-equal to locally captured ones.
    let mphf = cur
        .view
        .mphf()
        .ok_or_else(|| WireError::Remote("replica holds no MPHF to decode a snapshot".into()))?;
    let mut d = Dec::new(view);
    let view = Snapshot::wire_dec(&mut d, mphf)?;
    d.finish()?;
    let next = Arc::new(ShardState {
        shard: Arc::clone(&cur.shard),
        view,
    });
    // State and position move together, as for an append.
    let retired = {
        let mut guard = ctx.state.write().unwrap();
        ctx.applied.store(seq, Ordering::SeqCst);
        std::mem::replace(&mut *guard, next)
    };
    ctx.repl_metrics.installs.inc();
    ctx.repl_metrics.applied_seq.set(seq as i64);
    Ok(retired)
}

/// One shard's serving state: the directory slice plus the snapshot
/// slice it answers reads from. Swapped wholesale on refresh.
pub struct ShardState {
    /// The directory shard this instance owns — fixed for the server's
    /// life, so every state swapped in shares it.
    pub(crate) shard: Arc<DirectoryShard>,
    /// Snapshot slice: owned hosts' stores + full pointer metadata (see
    /// [`Snapshot::shard_slice`]).
    pub view: Snapshot,
}

impl ShardState {
    /// This shard as an in-process [`ShardBackend`]: the union slice, the
    /// filter wave and the fused reads are served by the same code the
    /// in-process router runs. Masking a union slice happens server-side,
    /// so one slice reply carries only the bits this shard decodes.
    fn local(&self) -> LocalBackend<'_, Snapshot> {
        LocalBackend::new(&self.shard, &self.view)
    }

    /// Serves one decoded request frame. Returns the reply frame (an
    /// [`Frame::Error`] for requests this role does not answer).
    fn serve(&self, req: &Frame) -> Frame {
        match req {
            Frame::UnionSliceReq { switch, range } => {
                Frame::UnionSliceRep(self.local().union_slice(*switch, *range).wait())
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
            Frame::RecordReq { host, flow } => Frame::RecordRep(self.view.record(*host, *flow)),
            Frame::TriggerReq { host, flow } => {
                Frame::TriggerRep(self.view.first_trigger_for(*host, *flow))
            }
            Frame::FilterWaveReq {
                switch,
                range,
                hosts,
            } => Frame::FilterWaveRep(self.local().filter_wave(hosts, *switch, *range).wait()),
            Frame::TopKWaveReq { switch, k, hosts } => {
                Frame::TopKWaveRep(self.view.top_k_wave(hosts, *switch, *k as usize))
            }
            Frame::SizesWaveReq { switch, hosts } => {
                Frame::SizesWaveRep(self.view.sizes_wave(hosts, *switch))
            }
            Frame::UnionTopKReq { switch, range, k } => Frame::UnionTopKRep(
                self.local()
                    .union_top_k(*switch, *range, *k as usize)
                    .wait(),
            ),
            Frame::UnionSizesReq { switch, range } => {
                Frame::UnionSizesRep(self.local().union_sizes(*switch, *range).wait())
            }
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
                })?
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

/// Followers one connection starts at most — with the connection thread,
/// the most multiplexed requests served concurrently before the thread
/// holding the read token serves with it held (backpressure, and a bound
/// on thread count).
const MAX_INFLIGHT_SERVES: usize = 32;

/// Everything a server's connections share: the state they answer from,
/// the replication-log position, and the metric handles, resolved once
/// at spawn so the hot path never touches the registry's lock.
struct ServeCtx {
    state: Arc<RwLock<Arc<ShardState>>>,
    /// Replication-log position: the seq of the last applied record.
    applied: Arc<AtomicU64>,
    metrics: WireLoopMetrics,
    repl_metrics: ReplMetrics,
    scrape_label: String,
    scrape_reg: Arc<MetricsRegistry>,
    shard: usize,
    max_frame: u32,
    delay: Arc<RwLock<Option<ServeDelay>>>,
}

impl ServeCtx {
    /// Serves one read-only request (scrape or shard read) and returns
    /// the reply frame. Replication never comes this way — it travels
    /// bare and is applied in arrival order under the read token, so the
    /// sequenced log is indifferent to out-of-order envelope completion;
    /// an enveloped replication frame gets [`ShardState::serve`]'s typed
    /// refusal like any other frame this role does not answer.
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
        if let Some(reply) = self.serve_scrape(req) {
            return reply;
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
                    shard: self.shard as u32,
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

    /// Answers a scrape request from this server's registry; `None` for
    /// every other frame.
    fn serve_scrape(&self, req: &Frame) -> Option<Frame> {
        match req {
            Frame::StatsScrapeReq => Some(Frame::StatsScrapeRep(vec![(
                self.scrape_label.clone(),
                self.scrape_reg.snapshot(),
            )])),
            Frame::TraceScrapeReq => Some(Frame::TraceScrapeRep(vec![(
                self.scrape_label.clone(),
                crate::traces::dump_spans(self.scrape_reg.tracer()),
            )])),
            _ => None,
        }
    }
}

fn is_scrape(f: &Frame) -> bool {
    matches!(f, Frame::StatsScrapeReq | Frame::TraceScrapeReq)
}

/// Writes one whole frame through the shared per-connection writer in a
/// single `write_all`, so concurrently serving threads never interleave
/// partial frames on the socket.
///
/// Any failure — an unencodable reply (e.g. oversize) as much as a
/// broken pipe — shuts the socket down before reporting `false`. A
/// thread that has let go of the read token has no read loop to leave; if
/// its reply were silently dropped with the socket left healthy, the
/// client's demux would wait on that `req_id` forever. Killing the
/// socket makes the token holder's read fail, the peer's reader
/// poisons every in-flight waiter, and the client fails over.
///
/// Read replies pass the loop metrics as `m`, so their encode lands in
/// `wire.encode_ns`; everything else (scrape replies, which stay
/// side-effect-free, replication acks, errors) passes `None`.
fn write_shared(writer: &Mutex<TcpStream>, frame: &Frame, m: Option<&WireLoopMetrics>) -> bool {
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

/// A connection's read half — the token its threads pass around. Only
/// the holder reads the socket, starts followers, or ends the
/// connection, so none of the three needs a lock of its own.
struct ReadToken {
    stream: TcpStream,
    /// Followers started so far (at most [`MAX_INFLIGHT_SERVES`]), joined
    /// by the connection thread once the connection is over.
    followers: Vec<JoinHandle<()>>,
    /// Set by the holder that saw the connection end; everyone taking
    /// the token after that leaves.
    closed: bool,
}

/// One connection, shared by its leader/followers threads.
struct Conn {
    ctx: Arc<ServeCtx>,
    token: Mutex<ReadToken>,
    /// Threads neither serving nor holding the token: parked on it, about
    /// to park, or writing a reply. While one exists a released token
    /// gets picked up, so the holder need not start a thread for it.
    free: AtomicUsize,
    /// All replies funnel through one writer so concurrently serving
    /// threads never interleave partial frames.
    writer: Mutex<TcpStream>,
}

impl Conn {
    /// The token, for a thread about to lead — `None` once the connection
    /// is over: closed, or a serve panicked with the token held (the
    /// socket's position in the frame stream is then unknown).
    fn take_token(&self) -> Option<MutexGuard<'_, ReadToken>> {
        self.token.lock().ok().filter(|t| !t.closed)
    }

    /// One thread's life on the connection — follower and leader by
    /// turns. As a follower it parks on the token. As the leader it reads
    /// and decodes one frame at a time and applies bare replication
    /// frames right there ([`Conn::serve_in_order`]); when an enveloped
    /// read comes in, it passes the token on *first*
    /// ([`Conn::release`]) and then serves and answers the request itself,
    /// so the request never changes hands. It counts as free again before
    /// it writes the reply: a client that sends its next request the
    /// moment the reply lands finds this thread rather than forcing a
    /// new one.
    fn run(self: &Arc<Self>) {
        while let Some(mut token) = self.take_token() {
            self.free.fetch_sub(1, Ordering::SeqCst);
            loop {
                let Some((req, observed)) = self.serve_in_order(&mut token) else {
                    token.closed = true;
                    return;
                };
                let kept = self.release(token);
                let reply = self.serve_envelope(req);
                if kept.is_none() {
                    self.free.fetch_add(1, Ordering::SeqCst);
                }
                let m = observed.then_some(&self.ctx.metrics);
                let written = write_shared(&self.writer, &reply, m);
                match kept {
                    // Not the leader any more; a failed write shut the
                    // socket down, which the leader's read will notice.
                    None => break,
                    Some(t) => token = t,
                }
                if !written {
                    token.closed = true;
                    return;
                }
            }
        }
    }

    /// Lets go of the token so the next frame is read while this thread
    /// serves: to a free thread if there is one, else to a follower
    /// started for it. At the follower cap — or when no thread can be
    /// started — the token comes back and the caller serves with it held,
    /// which also stops the reading (backpressure).
    fn release<'a>(
        self: &'a Arc<Self>,
        mut token: MutexGuard<'a, ReadToken>,
    ) -> Option<MutexGuard<'a, ReadToken>> {
        // Only the token holder takes threads out of `free`, so a non-zero
        // reading stays non-zero until the token is dropped.
        if self.free.load(Ordering::SeqCst) == 0 {
            let started = token.followers.len() < MAX_INFLIGHT_SERVES && {
                let conn = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("wireplane-shard{}-serve", self.ctx.shard))
                    .spawn(move || conn.run())
                    .map(|h| token.followers.push(h))
                    .is_ok()
            };
            if !started {
                self.ctx.metrics.serve_inline.inc();
                return Some(token);
            }
            self.ctx.metrics.serve_spawns.inc();
            self.free.fetch_add(1, Ordering::SeqCst);
        }
        None
    }

    /// The leader's read loop: returns the next `Tagged`/`Batch` envelope
    /// — a read or scrape that may complete out of order — after
    /// applying, token held and in arrival order, every bare replication
    /// frame before it (`SeqGap` would fire on any reordering). A bare
    /// frame that is not replication is refused with a typed error and
    /// the loop goes on. With the envelope comes whether its decode and
    /// encode are observed in the `wire.*_ns` histograms: an envelope of
    /// nothing but scrapes is not — scrapes stay side-effect-free.
    /// `None` when the connection is over.
    fn serve_in_order(&self, token: &mut ReadToken) -> Option<(Frame, bool)> {
        let ctx = &*self.ctx;
        let m = &ctx.metrics;
        loop {
            let (tag, payload) = match read_frame(&mut token.stream, ctx.max_frame) {
                Ok(fr) => fr,
                Err(WireError::Io { .. }) => return None, // peer gone
                Err(e) => {
                    // Framing is lost: report the typed error and drop
                    // the connection (the client reconnects).
                    let _ = write_shared(&self.writer, &Frame::Error(e), None);
                    return None;
                }
            };
            let decode_started = Instant::now();
            let req = match Frame::decode(tag, &payload) {
                Ok(req) => req,
                Err(e) => {
                    let _ = write_shared(&self.writer, &Frame::Error(e), None);
                    return None;
                }
            };
            let decode_elapsed = decode_started.elapsed();
            let observed = match &req {
                Frame::Tagged { inner, .. } => !is_scrape(inner),
                Frame::Batch(entries) => !entries.iter().all(|(_, _, f)| is_scrape(f)),
                bare => {
                    let (reply, retired) = serve_replication(bare, ctx).unwrap_or_else(|| {
                        let why = format!(
                            "shard {} serves frame {tag:#04x} only inside a Tagged/Batch \
                             envelope; bare frames are replication",
                            ctx.shard
                        );
                        (Frame::Error(WireError::Remote(why)), None)
                    });
                    if !write_shared(&self.writer, &reply, None) {
                        return None;
                    }
                    // Only now, with the ack on the wire, is the state the
                    // frame replaced let go (and freed, if no reader holds it).
                    drop(retired);
                    continue;
                }
            };
            if observed {
                m.decode_ns.record_duration(decode_elapsed);
            }
            return Some((req, observed));
        }
    }

    /// Serves one multiplexed read — a tagged request, or a whole wave
    /// batch answered with one `BatchRep` — and returns the reply
    /// envelope.
    fn serve_envelope(&self, req: Frame) -> Frame {
        match req {
            Frame::Tagged {
                req_id,
                ctx: tctx,
                inner,
            } => Frame::Tagged {
                req_id,
                ctx: None,
                inner: Box::new(self.ctx.serve_read(&inner, tctx)),
            },
            Frame::Batch(entries) => Frame::BatchRep(
                entries
                    .iter()
                    .map(|(id, tctx, f)| (*id, self.ctx.serve_read(f, *tctx)))
                    .collect(),
            ),
            other => unreachable!(
                "serve_in_order hands off envelopes only, got frame {:#04x}",
                other.tag()
            ),
        }
    }
}

/// A running shard server.
pub(crate) struct ShardServer {
    listener: Listener,
    state: Arc<RwLock<Arc<ShardState>>>,
    /// Replication-log position: the seq of the last applied record.
    applied: Arc<AtomicU64>,
    metrics: Arc<MetricsRegistry>,
    /// Test hook: artificial per-request serve delay (see [`ServeDelay`]).
    delay: Arc<RwLock<Option<ServeDelay>>>,
}

impl ShardServer {
    /// Binds `127.0.0.1:0` and starts serving `state`. The ephemeral
    /// bound address comes back via [`ShardServer::local_addr`].
    pub(crate) fn spawn(
        state: ShardState,
        n_shards: usize,
        cfg: WireConfig,
    ) -> Result<Self, WireError> {
        let shard = state.shard.id();
        let state = Arc::new(RwLock::new(Arc::new(state)));
        let applied = Arc::new(AtomicU64::new(0));
        let metrics = Arc::new(MetricsRegistry::new());
        // Perturb the span-id seed per shard (deterministically) so ids
        // minted by different processes of one cluster never collide in
        // a reassembled trace tree.
        metrics
            .tracer()
            .set_id_seed((shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let delay: Arc<RwLock<Option<ServeDelay>>> = Arc::new(RwLock::new(None));
        let ctx = Arc::new(ServeCtx {
            state: Arc::clone(&state),
            applied: Arc::clone(&applied),
            metrics: WireLoopMetrics::new(&metrics),
            repl_metrics: ReplMetrics::new(&metrics),
            scrape_label: format!("shard{shard}"),
            scrape_reg: Arc::clone(&metrics),
            shard,
            max_frame: cfg.max_frame,
            delay: Arc::clone(&delay),
        });
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
                let Ok(writer) = stream.try_clone() else {
                    return;
                };
                let conn = Arc::new(Conn {
                    ctx: Arc::clone(&ctx),
                    token: Mutex::new(ReadToken {
                        stream,
                        followers: Vec::new(),
                        closed: false,
                    }),
                    // This thread, about to take the token.
                    free: AtomicUsize::new(1),
                    writer: Mutex::new(writer),
                });
                conn.run();
                // The connection is over: each follower finishes what it
                // is serving, finds the token closed and leaves. The
                // handle list is whole even if a serve panicked with the
                // token held — it is only ever pushed to.
                let followers = std::mem::take(
                    &mut conn
                        .token
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .followers,
                );
                for h in followers {
                    let _ = h.join();
                }
            },
        )?;
        Ok(ShardServer {
            listener,
            state,
            applied,
            metrics,
            delay,
        })
    }

    /// Installs (or clears, with `None`) an artificial per-request serve
    /// delay on the multiplexed path. Test hook: the interleaving suite
    /// rigs request-dependent delays so tagged replies provably complete
    /// out of order.
    pub(crate) fn set_serve_delay(&self, delay: Option<ServeDelay>) {
        *self.delay.write().unwrap() = delay;
    }

    /// This server's obsplane registry (`wire.*` frame metrics). The
    /// scrape RPC serves snapshots of exactly this registry.
    pub(crate) fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The bound loopback address (ephemeral port chosen by the kernel).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The replica's replication-log position: seq of the last applied
    /// [`Frame::DeltaAppend`] (or [`Frame::SnapshotInstall`] bootstrap).
    pub(crate) fn applied_seq(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// The state currently being served, as the connection loop sees it.
    /// Divergence tests compare a primary's and standby's views through
    /// this — both must be bit-identical at every applied seq.
    pub(crate) fn state(&self) -> Arc<ShardState> {
        Arc::clone(&self.state.read().unwrap())
    }

    /// Graceful shutdown: stop accepting, join every connection thread.
    pub(crate) fn shutdown(mut self) {
        self.listener.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::Condvar;
    use std::time::Duration;

    use netsim::prelude::*;
    use switchpointer::testbed::{Testbed, TestbedConfig};
    use telemetry::EpochRange;

    use crate::{MuxConn, WireCluster};

    /// A small chain deployment with one flow's worth of state.
    fn chain_testbed() -> Testbed {
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
        tb
    }

    /// One shard server (plus front-end) over the chain deployment.
    fn one_shard_cluster() -> WireCluster {
        WireCluster::launch(&chain_testbed().analyzer(), 1, WireConfig::default()).unwrap()
    }

    fn serve_spawns(cluster: &WireCluster) -> u64 {
        cluster
            .server_metrics(0)
            .snapshot()
            .counter("wire.serve_spawns")
    }

    /// Sequential tagged traffic is served by one parked follower, woken
    /// per request — the follower count follows concurrency, not request
    /// count.
    #[test]
    fn sequential_tagged_calls_reuse_one_follower() {
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
    /// `MAX_INFLIGHT_SERVES` each get a follower, the next is served by
    /// the leader with the token held (which therefore stops reading —
    /// backpressure), and every reply still pairs with its request.
    #[test]
    fn concurrent_requests_past_the_follower_cap_are_served_inline() {
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
        cluster.set_serve_delay(0, 0, Some(delay));

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
        // record: a reply crossing wires would show up as the wrong type.
        for req_id in 0..REQUESTS {
            let inner = if req_id % 2 == 0 {
                Frame::HorizonReq
            } else {
                Frame::RecordReq {
                    host: NodeId(u32::MAX),
                    flow: FlowId(0),
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
                        (Frame::HorizonRep(_), 0) | (Frame::RecordRep(None), 1) => {}
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
        cluster.set_serve_delay(0, 0, None);
        cluster.shutdown();
    }

    /// Shutdown with a serve in flight: the serving thread is joined (not
    /// abandoned), shutdown does not hang on it, and the caller whose
    /// connection was closed under it sees a transport error — never a
    /// reply written after the close.
    #[test]
    fn shutdown_joins_a_follower_that_is_mid_serve() {
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
        cluster.set_serve_delay(0, 0, Some(delay));

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
        assert!(write_shared(&writer, &Frame::HorizonRep(7), None));

        // A payload over MAX_FRAME fails to encode: write_shared must
        // report failure AND shut the stream down.
        let oversize = Frame::SnapshotInstall {
            shard: 0,
            seq: 1,
            view: vec![0u8; MAX_FRAME as usize],
        };
        assert!(!write_shared(&writer, &oversize, None));

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

    // ------------------------------------------------------------------
    // Leader/followers: helpers and tests added with the serving model
    // ------------------------------------------------------------------

    fn serve_inline(reg: &MetricsRegistry) -> u64 {
        reg.snapshot().counter("wire.serve_inline")
    }

    /// One shard server on its own (no front-end, no replication writer),
    /// so every accept slot and the replication log are the test's.
    fn lone_server(cfg: WireConfig) -> ShardServer {
        use switchpointer::shard::ShardedDirectory;

        let analyzer = chain_testbed().analyzer();
        let dir = ShardedDirectory::new(
            analyzer.directory().mphf().clone(),
            &analyzer.all_hosts(),
            1,
        );
        let shard = Arc::new(dir.shards()[0].clone());
        let keep = shard.hosts().iter().copied().collect();
        let view = Snapshot::capture_with(&analyzer, 8, 1).shard_slice(&keep);
        ShardServer::spawn(ShardState { shard, view }, 1, cfg).unwrap()
    }

    /// A serve gate instead of a timer: every multiplexed serve announces
    /// itself, then blocks until the test opens the gate. Dropping it
    /// opens it, so a failing assertion unwinds into a server whose
    /// threads can be joined instead of one parked for good.
    struct Gate(Arc<GateState>);

    struct GateState {
        state: Mutex<(usize, bool)>,
        cond: Condvar,
    }

    impl Gate {
        /// `rig` hands the gate's hook to the server's serve-delay slot.
        fn install(rig: impl FnOnce(Option<ServeDelay>)) -> Gate {
            let gate = Arc::new(GateState {
                state: Mutex::new((0, false)),
                cond: Condvar::new(),
            });
            let hook = Arc::clone(&gate);
            rig(Some(Arc::new(move |_: &Frame| {
                let mut g = hook.state.lock().unwrap();
                g.0 += 1;
                hook.cond.notify_all();
                while !g.1 {
                    g = hook.cond.wait(g).unwrap();
                }
                Duration::ZERO
            })));
            Gate(gate)
        }

        fn wait_parked(&self, n: usize) {
            let g = self.0.state.lock().unwrap();
            let (g, timeout) = self
                .0
                .cond
                .wait_timeout_while(g, Duration::from_secs(30), |g| g.0 < n)
                .unwrap();
            assert!(!timeout.timed_out(), "only {} of {n} serves started", g.0);
        }

        fn open(&self) {
            // Runs on unwind too, where a second panic would abort.
            self.0.state.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
            self.0.cond.notify_all();
        }
    }

    impl Drop for Gate {
        fn drop(&mut self) {
            self.open();
        }
    }

    /// Dials `addr` and returns the socket with the first frame the
    /// server sent on it: the greeting, or a refusal. Reads time out, so
    /// a reply that never comes fails the test instead of hanging it.
    fn dial(addr: SocketAddr) -> (TcpStream, Frame) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let first = Frame::read(&mut stream, MAX_FRAME).unwrap();
        (stream, first)
    }

    fn tagged(req_id: u32, inner: Frame) -> Frame {
        Frame::Tagged {
            req_id,
            ctx: None,
            inner: Box::new(inner),
        }
    }

    /// `wire.serve_inline` is the saturation signal and nothing else: a
    /// closed loop never moves it, overrunning the follower cap does.
    #[test]
    fn serve_inline_counts_only_serves_with_the_token_held() {
        let cluster = one_shard_cluster();
        let reg = cluster.server_metrics(0);
        let (mux, _, _) = MuxConn::connect(cluster.shard_addrs()[0], MAX_FRAME).unwrap();
        for _ in 0..1000 {
            assert!(matches!(
                mux.call(&Frame::HorizonReq).unwrap(),
                Frame::HorizonRep(_)
            ));
        }
        assert_eq!(serve_inline(reg), 0, "a closed loop never holds the token");

        const REQUESTS: u32 = 40;
        let gate = Gate::install(|hook| cluster.set_serve_delay(0, 0, hook));
        let (mut stream, hello) = dial(cluster.shard_addrs()[0]);
        assert!(matches!(hello, Frame::Hello { .. }));
        for req_id in 0..REQUESTS {
            tagged(req_id, Frame::HorizonReq)
                .write(&mut stream)
                .unwrap();
        }
        gate.wait_parked(MAX_INFLIGHT_SERVES + 1);
        assert_eq!(
            serve_inline(reg),
            1,
            "the request past the cap kept the token"
        );
        gate.open();
        for _ in 0..REQUESTS {
            assert!(matches!(
                Frame::read(&mut stream, MAX_FRAME).unwrap(),
                Frame::Tagged { .. }
            ));
        }
        assert!(serve_inline(reg) >= 1);
        cluster.set_serve_delay(0, 0, None);
        cluster.shutdown();
    }

    /// A client that leaves with reads still being served leaves no
    /// thread behind: the connection's slot stays taken while its serves
    /// are parked, and comes back — every follower joined — once they
    /// finish.
    #[test]
    fn a_dropped_connection_with_parked_serves_frees_its_accept_slot() {
        let server = lone_server(WireConfig {
            max_conns: 1,
            ..WireConfig::default()
        });
        let addr = server.local_addr();
        let gate = Gate::install(|hook| server.set_serve_delay(hook));
        let (mut stream, hello) = dial(addr);
        assert!(matches!(hello, Frame::Hello { .. }));
        for req_id in 0..3 {
            tagged(req_id, Frame::HorizonReq)
                .write(&mut stream)
                .unwrap();
        }
        gate.wait_parked(3);
        drop(stream);
        // The connection thread is one of the three parked serves, so the
        // slot cannot have been given back yet.
        assert!(
            matches!(dial(addr).1, Frame::Error(WireError::Remote(_))),
            "the only accept slot was free while its connection still had threads"
        );
        gate.open();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !matches!(dial(addr).1, Frame::Hello { .. }) {
            assert!(
                Instant::now() < deadline,
                "the dropped connection never gave its accept slot back"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        server.set_serve_delay(None);
        server.shutdown();
    }

    /// Bare replication frames are applied by whoever holds the read
    /// token, in arrival order, however many reads are parked around
    /// them: 16 appends interleaved with 16 gated tagged reads all ack in
    /// sequence — no `SeqGap` — before a single read has answered.
    #[test]
    fn appends_interleaved_with_parked_reads_apply_in_arrival_order() {
        const APPENDS: u64 = 16;
        let server = lone_server(WireConfig::default());
        let gate = Gate::install(|hook| server.set_serve_delay(hook));
        let (mut stream, hello) = dial(server.local_addr());
        assert!(matches!(hello, Frame::Hello { .. }));
        for seq in 1..=APPENDS {
            tagged(1000 + seq as u32, Frame::HorizonReq)
                .write(&mut stream)
                .unwrap();
            Frame::DeltaAppend {
                shard: 0,
                seq,
                record: queryplane::DeltaRecord {
                    epoch_horizon: 5000 + seq,
                    ..Default::default()
                },
                ctx: None,
            }
            .write(&mut stream)
            .unwrap();
            match Frame::read(&mut stream, MAX_FRAME).unwrap() {
                Frame::DeltaAck { applied, .. } => assert_eq!(applied, seq),
                other => panic!("append {seq} was not applied: {other:?}"),
            }
        }
        assert_eq!(server.applied_seq(), APPENDS);
        // Every ack above arrived with the gate shut: all reads are
        // still parked, none has answered.
        gate.wait_parked(APPENDS as usize);
        gate.open();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..APPENDS {
            match Frame::read(&mut stream, MAX_FRAME).unwrap() {
                Frame::Tagged { req_id, inner, .. } => {
                    assert!(seen.insert(req_id), "read {req_id} answered twice");
                    assert!(
                        matches!(*inner, Frame::HorizonRep(h) if h == 5000 + APPENDS),
                        "read {req_id} got {inner:?}"
                    );
                }
                other => panic!("expected a tagged reply, got {other:?}"),
            }
        }
        assert_eq!(seen, (1001..=1000 + APPENDS as u32).collect());
        server.set_serve_delay(None);
        server.shutdown();
    }

    /// Random mixes of every shape a shard socket can be sent — bare
    /// replication, tagged reads, read batches, and the two refused
    /// shapes (a bare read, replication inside an envelope) — with some
    /// serves stretched so replies reorder: every `req_id` is answered
    /// exactly once with what `ShardState::serve` answers for that
    /// request alone, batches answer whole and in entry order, bare
    /// replies keep their arrival order, and a refusal is a typed error
    /// that moves no state and leaves the link serving.
    #[test]
    fn any_frame_mix_on_one_socket_answers_what_each_request_alone_would() {
        use netsim::rng::DetRng;
        use std::collections::{BTreeMap, VecDeque};

        let server = lone_server(WireConfig::default());
        let state = server.state();
        // Stretch some serves so later requests overtake earlier ones.
        server.set_serve_delay(Some(Arc::new(|f: &Frame| match f {
            Frame::RecordReq { .. } => Duration::from_millis(2),
            Frame::UnionSliceReq { .. } => Duration::from_micros(300),
            _ => Duration::ZERO,
        })));
        let gen_read = |rng: &mut DetRng| match rng.next_below(6) {
            0 => Frame::HorizonReq,
            1 => Frame::RecordReq {
                host: NodeId(rng.next_below(12) as u32),
                flow: FlowId(0),
            },
            2 => Frame::UnionSliceReq {
                switch: NodeId(rng.next_below(12) as u32),
                range: EpochRange {
                    lo: 0,
                    hi: rng.next_below(6),
                },
            },
            3 => Frame::FilterWaveReq {
                hosts: (0..rng.next_below(4))
                    .map(|_| NodeId(rng.next_below(12) as u32))
                    .collect(),
                switch: NodeId(0),
                range: EpochRange { lo: 0, hi: 5 },
            },
            4 => Frame::ProbeExactReq {
                switch: NodeId(rng.next_below(12) as u32),
                addr: rng.next_u64(),
                epoch: rng.next_below(6),
            },
            // Not a request at all: answered with a typed error.
            _ => Frame::HorizonRep(rng.next_u64()),
        };
        // Bare replication that never moves the log (the oracle stays
        // stateless): a status read, or an append from the future.
        let gen_repl = |rng: &mut DetRng| match rng.next_below(2) {
            0 => Frame::ReplicaStatusReq,
            _ => Frame::DeltaAppend {
                shard: 0,
                seq: 2 + rng.next_below(50),
                record: Default::default(),
                ctx: None,
            },
        };
        let repl_oracle = |req: &Frame| match req {
            Frame::ReplicaStatusReq => Frame::ReplicaStatusRep {
                shard: 0,
                applied: 0,
            },
            Frame::DeltaAppend { seq, .. } => Frame::Error(WireError::SeqGap {
                expected: 1,
                got: *seq,
            }),
            other => panic!("not replication: {other:?}"),
        };
        // Replication inside an envelope: the very next record of the
        // log, so serving it by mistake would move `applied_seq` (and
        // break every later `SeqGap { expected: 1, .. }` above).
        let enveloped_append = Frame::DeltaAppend {
            shard: 0,
            seq: 1,
            record: Default::default(),
            ctx: None,
        };
        assert!(
            matches!(
                state.serve(&enveloped_append),
                Frame::Error(WireError::Remote(_))
            ),
            "the envelope path must refuse replication"
        );

        for seed in 0..12u64 {
            let mut rng = DetRng::new(0x5EED_0000 + seed);
            let (mut stream, hello) = dial(server.local_addr());
            assert!(matches!(hello, Frame::Hello { .. }));
            let mut next_id = 0u32;
            let mut by_id: BTreeMap<u32, String> = BTreeMap::new();
            let mut batches: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            // What each bare frame must be answered with, in arrival
            // order; `None` for a bare read — any typed refusal.
            let mut bare: VecDeque<Option<String>> = VecDeque::new();
            let frames = 24 + rng.next_below(40);
            for _ in 0..frames {
                // Whatever an envelope carries, it is answered as
                // `ShardState::serve` answers it.
                let mut entry = |rng: &mut DetRng, repl: bool| {
                    let req = if repl {
                        enveloped_append.clone()
                    } else {
                        gen_read(rng)
                    };
                    let id = next_id;
                    next_id += 1;
                    by_id.insert(id, format!("{:?}", state.serve(&req)));
                    (id, req)
                };
                let frame = match rng.next_below(6) {
                    0 => {
                        bare.push_back(None);
                        gen_read(&mut rng)
                    }
                    1 => {
                        let req = gen_repl(&mut rng);
                        bare.push_back(Some(format!("{:?}", repl_oracle(&req))));
                        req
                    }
                    2 => {
                        let (id, req) = entry(&mut rng, false);
                        tagged(id, req)
                    }
                    3 => {
                        let (id, req) = entry(&mut rng, true);
                        tagged(id, req)
                    }
                    kind => {
                        // A batch of reads; every other one also carries
                        // a replication entry, refused in its slot.
                        let n = 1 + rng.next_below(4);
                        let repl_at = (kind == 5).then(|| rng.next_below(n));
                        let entries: Vec<_> = (0..n)
                            .map(|i| {
                                let (id, req) = entry(&mut rng, repl_at == Some(i));
                                (id, None, req)
                            })
                            .collect();
                        batches.insert(entries[0].0, entries.iter().map(|e| e.0).collect());
                        Frame::Batch(entries)
                    }
                };
                frame.write(&mut stream).unwrap();
            }
            let mut check = |id: u32, reply: &Frame| {
                let want = by_id
                    .remove(&id)
                    .unwrap_or_else(|| panic!("seed {seed}: req_id {id} answered twice"));
                assert_eq!(format!("{reply:?}"), want, "seed {seed}: req_id {id}");
            };
            for _ in 0..frames {
                match Frame::read(&mut stream, MAX_FRAME).unwrap() {
                    Frame::Tagged { req_id, inner, .. } => check(req_id, &inner),
                    Frame::BatchRep(replies) => {
                        let ids: Vec<u32> = replies.iter().map(|(id, _)| *id).collect();
                        assert_eq!(
                            batches.remove(&ids[0]),
                            Some(ids),
                            "seed {seed}: a batch was not answered whole and in entry order"
                        );
                        for (id, reply) in &replies {
                            check(*id, reply);
                        }
                    }
                    untagged => match bare.pop_front() {
                        Some(Some(want)) => assert_eq!(
                            format!("{untagged:?}"),
                            want,
                            "seed {seed}: bare replies out of arrival order"
                        ),
                        Some(None) => assert!(
                            matches!(untagged, Frame::Error(WireError::Remote(_))),
                            "seed {seed}: a bare read was answered with {untagged:?}"
                        ),
                        None => panic!("seed {seed}: unasked bare reply {untagged:?}"),
                    },
                }
            }
            assert!(
                by_id.is_empty() && batches.is_empty() && bare.is_empty(),
                "seed {seed}: unanswered requests {by_id:?}"
            );
        }
        assert_eq!(server.applied_seq(), 0, "a refused append moved the log");
        server.set_serve_delay(None);
        server.shutdown();
    }
}
