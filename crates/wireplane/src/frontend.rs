//! The front-end: the shard router served over real connections.
//!
//! This is the in-process query plane's architecture with the *reach*
//! made real: the front-end runs the [`BackendRouter`] over
//! [`RemoteShard`] backends, each a loopback TCP connection to one shard
//! server, where the in-process plane runs it over local slices. Pointer
//! unions reassemble from the shards' masked slices (bit-identical to
//! the flat union — the slot masks partition the directory range), host
//! reads route to the owning shard, and every query wave coalesces into
//! **one request frame per shard** ([`Frame::FilterWaveReq`] and
//! friends), so the batched-RPC term the
//! [`CostModel`](switchpointer::cost::CostModel) prices is *measured*
//! here, not just modelled: [`FrontEnd::counters`] reports actual RPCs
//! and round trips.
//!
//! A fan-out is **issue, flush, collect**. The fanned-out
//! [`ShardBackend`] methods of a [`RemoteShard`] enqueue their request
//! on the shard's link and return a [`Deferred`]; the router issues to
//! every involved shard, the links are flushed, and the replies are
//! collected in shard order, so the per-shard round trips of one union
//! reassembly or one host wave overlap and a round costs its slowest
//! shard, not the sum. `FrontEnd::close_window` reads the shards'
//! horizons the same way. Each exchange's RTT (`wire.rtt_ns.shard{N}`,
//! and its `wire` span) runs from issue to the reply's *arrival* —
//! stamped by the link's demux reader — so a shard collected late is not
//! billed for the wait on its siblings.
//!
//! Every query, alone or in a wave, runs through the query plane's batch
//! driver ([`queryplane::execute`]) over the shard links, exactly as the
//! in-process plane runs it over local slices: a wave's repeated requests
//! run once (a copy gets its first occurrence's response and trace, with
//! zeroed [`RouterCounters`], and counts in `queryplane.coalesced`), the
//! distinct ones are cut into one contiguous chunk per front worker, and a
//! chunk's queries run in **lock-step** ([`queryplane::lock_step`]) —
//! start them all, then repeat {flush every shard link once; resume every
//! unfinished query}. Each query keeps its own router and its own
//! [`RouterCounters`]; what they share is the flush, so a chunk's round
//! leaves as one `Batch` frame per shard however many queries it holds,
//! and a window of standing aggregates costs one batched round per
//! worker. A single query is a chunk of one: its frames are the `Tagged`
//! frames a blocking router would send.
//!
//! Towards clients the front-end is a server itself: `QueryReq` frames
//! run the shared executor over the remote router and return the full
//! response; `SubscribeReq` frames register standing queries whose
//! incident transitions are pushed as [`Frame::IncidentPush`] when the
//! hosting process closes a window (`FrontEnd::close_window`, which runs
//! the stream plane's window rule, [`streamplane::evaluate_window`]).
//! Subscription topics keep their full incident log, and a subscribe
//! carries a `resume_after` cursor — a client that lost its connection
//! mid-stream resubscribes and re-derives the log bit-identically, with
//! zero duplicated and zero dropped transitions (property-tested).
//!
//! Transport failures towards a shard are retried under a bounded
//! exponential-backoff [`RetryPolicy`] over fresh connections (servers
//! keep no per-connection state, so a reconnect is free). A shard
//! connected with a *replica set* ([`RemoteShard::connect_replicated`])
//! fails over: when the active replica exhausts its retry budget the
//! connection rotates to the next address mid-query, so a query wave
//! survives a primary kill and subscription streams resume on the
//! standby. A shard whose every replica stays unreachable is fatal to
//! the in-flight query.
//!
//! An exchange that fails *in flight* — the connection dies between its
//! issue and its collect — is handled where it is collected, by the
//! same loop and under the same budget: that death is the exchange's
//! first failure, not a fresh start, and the request re-sent over the
//! next dial (and flushed there, by the exchange itself) is the
//! identical idempotent read. When a shard exhausts
//! its budget the collecting query panics past its still-in-flight
//! siblings; their handles release their reply slots on drop, and
//! replies that land afterwards are discarded by the demux reader.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netsim::packet::{FlowId, NodeId};
use obsplane::{Histogram, RegistrySnapshot, SpanEvent, TraceContext};
use queryplane::{QueryOutcome, SharedCtx, Spans, WorkerPool};
use streamplane::{evaluate_window, Incident, StandingQuery, SubscriptionId};
use switchpointer::bitset::BitSet;
use switchpointer::host::TriggerEvent;
use switchpointer::hoststore::FlowRecord;
use switchpointer::query::{
    Deferred, ExecutionTrace, FilterWaveReply, QueryRequest, QueryResponse, SizesWaveReply,
    TopKWaveReply, UnionSizes, UnionTopK,
};
use switchpointer::shard::{BackendRouter, RouterCounters, ShardBackend};
use telemetry::frame::WireError;
use telemetry::EpochRange;

use crate::mux::{InFlight, MuxConn};
use crate::proto::{Frame, WindowSummary, WireSpan, FRONT_ROLE};
use crate::retry::RetryPolicy;
use crate::server::{Listener, WireConfig};

/// One shard, reached over a (lazily re-established) multiplexed
/// loopback connection ([`MuxConn`]) to whichever of its replicas is
/// currently active. Implements [`ShardBackend`], so the core router
/// treats it exactly like a local slice. Any number of query workers
/// may call into the same `RemoteShard` concurrently: their exchanges
/// interleave on the shared socket instead of convoying behind a
/// connection mutex, and every request issued between two flushes
/// leaves as one `Batch` frame.
pub struct RemoteShard {
    shard: usize,
    /// The shard's replica addresses (primary first). `active` indexes
    /// the replica the next dial goes to; it only moves forward (mod
    /// `addrs.len()`), once per replica that exhausts an exchange's
    /// attempts.
    addrs: Vec<SocketAddr>,
    active: AtomicUsize,
    /// The live link and the index of the replica it was dialed to.
    conn: Mutex<Option<(usize, Arc<MuxConn>)>>,
    /// Envelope frames/bytes written by connections already retired
    /// (dead and replaced); totals = these + the live connection's.
    retired_frames: AtomicU64,
    retired_bytes: AtomicU64,
    max_frame: u32,
    retry: RetryPolicy,
    rpcs: AtomicU64,
    reconnects: AtomicU64,
    failovers: AtomicU64,
    /// Per-exchange round-trip latency, when the dialer observes it
    /// (`wire.rtt_ns.shard{N}` in the front-end's registry).
    rtt_ns: Option<Arc<Histogram>>,
    /// First-failure → first-success-on-another-replica wall-clock
    /// (`wire.failover_ns`), when observed.
    failover_ns: Option<Arc<Histogram>>,
    /// The registry whose tracer mints wire-stage spans for this link.
    /// Set by the front-end after connect; plain handles stay untraced.
    trace_reg: Option<Arc<obsplane::MetricsRegistry>>,
}

impl RemoteShard {
    /// Connects to a shard served by a replica set (a lone server is a
    /// set of one), verifying each greeting names shard `shard`:
    /// `addrs[0]` is the primary, the rest are standbys taken in order
    /// when the active replica exhausts `retry`. At least one address
    /// must be dialable now; dead standbys are tolerated until failover
    /// reaches them. Each exchange's round trip is recorded into
    /// `rtt_ns`, a failover's wall clock into `failover_ns`, when given.
    pub fn connect_replicated(
        shard: usize,
        addrs: Vec<SocketAddr>,
        max_frame: u32,
        retry: RetryPolicy,
        rtt_ns: Option<Arc<Histogram>>,
        failover_ns: Option<Arc<Histogram>>,
    ) -> Result<Self, WireError> {
        if addrs.is_empty() {
            return Err(WireError::Remote(format!(
                "shard {shard} has no replica to connect to"
            )));
        }
        let rs = RemoteShard {
            shard,
            addrs,
            active: AtomicUsize::new(0),
            conn: Mutex::new(None),
            retired_frames: AtomicU64::new(0),
            retired_bytes: AtomicU64::new(0),
            max_frame,
            retry,
            rpcs: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            rtt_ns,
            failover_ns,
            trace_reg: None,
        };
        // Walk the set until one replica greets; remember it as active.
        let n = rs.addrs.len();
        let mut last_err = None;
        for i in 0..n {
            match rs.dial(rs.addrs[i]) {
                Ok(mux) => {
                    rs.active.store(i, Ordering::Relaxed);
                    *rs.conn.lock().unwrap() = Some((i, mux));
                    return Ok(rs);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("non-empty replica set"))
    }

    /// The replica the next dial goes to (the one a live connection was
    /// dialed to, unless it has since been rotated past).
    pub(crate) fn active_replica(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    fn dial(&self, addr: SocketAddr) -> Result<Arc<MuxConn>, WireError> {
        let (mux, shard, _n_shards) = MuxConn::connect(addr, self.max_frame)?;
        if shard as usize != self.shard {
            return Err(WireError::Remote(format!(
                "dialed shard {} at {addr} but {shard} answered",
                self.shard
            )));
        }
        Ok(mux)
    }

    /// Drops `mux` from the slot if it is still the live connection,
    /// folding its send counters into the retired totals. The `ptr_eq`
    /// guard makes concurrent retirements idempotent: only the caller
    /// that actually removes the connection absorbs its counters.
    fn retire(&self, mux: &Arc<MuxConn>) {
        let mut guard = self.conn.lock().unwrap();
        if guard.as_ref().is_some_and(|(_, cur)| Arc::ptr_eq(cur, mux)) {
            self.retired_frames
                .fetch_add(mux.frames_sent(), Ordering::Relaxed);
            self.retired_bytes
                .fetch_add(mux.bytes_sent(), Ordering::Relaxed);
            *guard = None;
        }
    }

    /// One request/reply exchange: [`RemoteShard::issue`], flush,
    /// [`Exchange::wait`] back to back.
    fn call(&self, req: Frame, observe: bool) -> Result<Frame, WireError> {
        let exchange = self.issue(req, observe);
        self.flush();
        exchange.wait()
    }

    /// The issue half of an exchange: makes the first attempt to enqueue
    /// `req` on the live link and returns without waiting for the
    /// answer; [`ShardBackend::flush`] sends it. Everything that can go
    /// wrong — including that first attempt — is dealt with in
    /// [`Exchange::wait`], so issuing to the next shard never queues
    /// behind this one's backoff.
    ///
    /// `observe: false` leaves the RPC counter, RTT histogram and tracer
    /// untouched — the scrape path uses it so pulling metrics never
    /// perturbs the metrics being pulled.
    fn issue(&self, req: Frame, observe: bool) -> Exchange<'_> {
        let (replica, attempt) = self.send(&req, observe, 0);
        Exchange {
            replica,
            attempt,
            shard: self,
            req,
            observe,
            failures: 0,
            first_failure: None,
            failed_over: false,
        }
    }

    /// One attempt to enqueue `req` on the live link (dialing it if
    /// there is none), after `failures` earlier ones: the index of the
    /// replica the attempt was addressed to, and the [`Flight`] or the
    /// failed dial. A connection that dies under the request surfaces
    /// when the flight is waited on.
    fn send(
        &self,
        req: &Frame,
        observe: bool,
        failures: usize,
    ) -> (usize, Result<Flight, WireError>) {
        // Short-lock acquisition: take (or dial) the shared mux under
        // the slot lock, then exchange *outside* it — concurrent
        // callers multiplex on the socket instead of queueing on the
        // mutex, which is the whole point of the fast path.
        let (replica, mux) = {
            let mut guard = self.conn.lock().unwrap();
            match guard.as_ref() {
                Some((idx, m)) => (*idx, Arc::clone(m)),
                None => {
                    let idx = self.active.load(Ordering::Relaxed);
                    let m = match self.dial(self.addrs[idx]) {
                        Ok(m) => m,
                        Err(e) => return (idx, Err(e)),
                    };
                    if failures > 0 || self.rpcs.load(Ordering::Relaxed) > 0 {
                        self.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    *guard = Some((idx, Arc::clone(&m)));
                    (idx, m)
                }
            }
        };
        // Wire-stage span: when the calling thread carries a trace
        // context (a query executing on the front pool), the
        // envelope entry gets a child context so the server's
        // serve-stage span links under this exchange. Scrapes
        // (`observe: false`) never carry context — pulling traces
        // must not mint traces.
        let trace = if observe {
            self.trace_reg.as_ref().and_then(|reg| {
                obsplane::current()
                    .map(|parent| (parent, parent.child(reg.tracer().next_span_id())))
            })
        } else {
            None
        };
        let started = Instant::now();
        let reply = mux.issue(req, trace.map(|(_, wire)| wire));
        let flight = Flight {
            mux,
            reply,
            started,
            trace,
        };
        (replica, Ok(flight))
    }

    /// A reply of the wrong type is a protocol error.
    fn expect<T>(
        &self,
        got: Result<Frame, WireError>,
        extract: impl FnOnce(Frame) -> Option<T>,
    ) -> T {
        let active = self.addrs[self.active.load(Ordering::Relaxed)];
        match got {
            Ok(frame) => {
                let tag = frame.tag();
                extract(frame).unwrap_or_else(|| {
                    panic!(
                        "shard {} at {}: mismatched reply frame {tag:#04x}",
                        self.shard, active
                    )
                })
            }
            Err(e) => panic!(
                "shard {} unreachable on every replica (last peer {}): {e}",
                self.shard, active
            ),
        }
    }

    /// Issues `req` and defers the typed answer: the request is queued
    /// on the link when this returns, [`Deferred::wait`] collects it.
    fn deferred<'a, T>(
        &'a self,
        req: Frame,
        extract: impl FnOnce(Frame) -> Option<T> + 'a,
    ) -> Deferred<'a, T> {
        let exchange = self.issue(req, true);
        Deferred::Pending(Box::new(move || self.expect(exchange.wait(), extract)))
    }

    /// The shard's snapshot epoch horizon — deferred, so a caller asking
    /// every shard overlaps the round trips.
    pub(crate) fn horizon(&self) -> Deferred<'_, u64> {
        self.deferred(Frame::HorizonReq, |f| match f {
            Frame::HorizonRep(h) => Some(h),
            _ => None,
        })
    }

    /// Pulls the shard server's labelled registry snapshot. The exchange
    /// is unobserved on both ends (no RPC count, no RTT sample, nothing
    /// recorded server-side), so the snapshot is exactly the server's
    /// and repeated scrapes of a quiesced cluster are identical.
    pub fn scrape(&self) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
        stats_scrape_rep(self.call(Frame::StatsScrapeReq, false)?)
    }

    /// Wire RPCs issued over this connection so far.
    pub fn rpcs(&self) -> u64 {
        self.rpcs.load(Ordering::Relaxed)
    }

    /// Reconnects performed (failure-injection visibility).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Replica rotations performed (0 until a replica actually died).
    pub(crate) fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Envelope frames written to this shard so far (retired connections
    /// included; one `Batch` carrying a whole wave counts once). Reads
    /// retired + live under the slot lock — absorption also happens
    /// under it, so the total is monotone.
    pub(crate) fn wire_frames_sent(&self) -> u64 {
        let guard = self.conn.lock().unwrap();
        let live = guard.as_ref().map_or(0, |(_, m)| m.frames_sent());
        self.retired_frames.load(Ordering::Relaxed) + live
    }

    /// Envelope bytes written to this shard so far, length prefixes
    /// included (retired connections included).
    pub(crate) fn wire_bytes_sent(&self) -> u64 {
        let guard = self.conn.lock().unwrap();
        let live = guard.as_ref().map_or(0, |(_, m)| m.bytes_sent());
        self.retired_bytes.load(Ordering::Relaxed) + live
    }

    /// Test hook: force-close the live connection so every in-flight
    /// exchange on it fails over and the next call must re-establish it
    /// (simulates a mid-stream connection kill).
    pub fn kill_connection(&self) {
        let taken = {
            let mut guard = self.conn.lock().unwrap();
            let taken = guard.take();
            if let Some((_, m)) = &taken {
                self.retired_frames
                    .fetch_add(m.frames_sent(), Ordering::Relaxed);
                self.retired_bytes
                    .fetch_add(m.bytes_sent(), Ordering::Relaxed);
            }
            taken
        };
        if let Some((_, m)) = taken {
            m.kill();
        }
    }
}

fn stats_scrape_rep(reply: Frame) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
    match reply {
        Frame::StatsScrapeRep(v) => Ok(v),
        other => Err(WireError::Remote(format!(
            "expected StatsScrapeRep, got frame {:#04x}",
            other.tag()
        ))),
    }
}

fn trace_scrape_rep(reply: Frame) -> Result<Vec<(String, Vec<WireSpan>)>, WireError> {
    match reply {
        Frame::TraceScrapeRep(v) => Ok(v),
        other => Err(WireError::Remote(format!(
            "expected TraceScrapeRep, got frame {:#04x}",
            other.tag()
        ))),
    }
}

/// One attempt of an [`Exchange`] that made it onto a link's queue.
struct Flight {
    mux: Arc<MuxConn>,
    reply: InFlight,
    started: Instant,
    /// `(parent, wire)` contexts when the issuing thread was traced.
    trace: Option<(TraceContext, TraceContext)>,
}

/// One shard exchange between its issue ([`RemoteShard::issue`]) and its
/// answer ([`Exchange::wait`]), with the retry budget it draws on. The
/// budget belongs to the exchange, not to an attempt: a request that
/// dies in flight is the first failure of the same
/// `RetryPolicy::attempts() × replicas` budget a failed dial draws on,
/// rotates replicas at the same multiples, and `wire.failover_ns` runs
/// from that first failure. The server keeps no per-connection state and
/// all shard RPCs are reads, so the re-sent request is idempotent by
/// construction and a mid-query failover is invisible to the caller.
///
/// Dropped un-waited, the exchange abandons its in-flight attempt: the
/// [`InFlight`] handle releases the reply slot.
struct Exchange<'a> {
    shard: &'a RemoteShard,
    req: Frame,
    observe: bool,
    failures: usize,
    first_failure: Option<Instant>,
    failed_over: bool,
    /// The latest attempt: on the wire, or a dial that failed — and the
    /// index of the replica it was addressed to.
    attempt: Result<Flight, WireError>,
    replica: usize,
}

impl Exchange<'_> {
    /// The collect half: waits for the reply; on a transport failure
    /// retires the connection and re-sends over fresh dials under the
    /// retry policy, rotating to the next replica when the active one
    /// exhausts its attempts.
    fn wait(self) -> Result<Frame, WireError> {
        let Exchange {
            shard,
            req,
            observe,
            mut failures,
            mut first_failure,
            mut failed_over,
            mut attempt,
            mut replica,
        } = self;
        let n = shard.addrs.len();
        let per_replica = shard.retry.attempts();
        loop {
            let err = match attempt {
                Ok(Flight {
                    mux,
                    reply,
                    started,
                    trace,
                }) => match reply.wait() {
                    Ok((Frame::Error(e), _)) => return Err(e),
                    Ok((reply, arrived)) => {
                        // Issue → reply *arrival*: collecting in shard
                        // order must not bill this shard for the time
                        // spent waiting on the ones collected before it.
                        let rtt = arrived.saturating_duration_since(started);
                        if observe {
                            shard.rpcs.fetch_add(1, Ordering::Relaxed);
                            if let Some(h) = &shard.rtt_ns {
                                h.record_duration(rtt);
                            }
                        }
                        if let (Some((parent, wire)), Some(reg)) = (trace, &shard.trace_reg) {
                            let t = reg.tracer();
                            t.submit(
                                SpanEvent {
                                    class: req.kind_name(),
                                    stage: "wire",
                                    epoch: 0,
                                    shard: shard.shard as u32,
                                    start_ns: t.offset_ns(started),
                                    dur_ns: saturating_ns(rtt),
                                    trace_id: wire.trace_id,
                                    span_id: wire.span_id,
                                    parent_id: parent.span_id,
                                    steals: 0,
                                },
                                wire.sampled,
                            );
                        }
                        if failed_over {
                            if let (Some(h), Some(t0)) = (&shard.failover_ns, first_failure) {
                                h.record_duration(t0.elapsed());
                            }
                        }
                        return Ok(reply);
                    }
                    // Connection died under the request (killed primary,
                    // injected failure): retire it and go back around.
                    // The mux poisons itself with a peer-tagged error,
                    // so `e` already names the replica that failed.
                    Err(e @ WireError::Io { .. }) => {
                        shard.retire(&mux);
                        e
                    }
                    Err(e) => {
                        shard.retire(&mux);
                        return Err(e);
                    }
                },
                Err(e) => e,
            };
            failures += 1;
            first_failure.get_or_insert_with(Instant::now);
            if failures >= per_replica * n {
                return Err(err.with_peer(shard.addrs[replica]));
            }
            // A replica that exhausted its attempts is presumed dead:
            // rotate past it — once. Of several exchanges that failed on
            // the same replica only the first finds `active` still on
            // it; the rest follow to wherever it already moved.
            if failures.is_multiple_of(per_replica) && n > 1 {
                let rotated = shard.active.compare_exchange(
                    replica,
                    (replica + 1) % n,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                if rotated.is_ok() {
                    shard.failovers.fetch_add(1, Ordering::Relaxed);
                }
                failed_over = true;
            }
            std::thread::sleep(shard.retry.backoff(failures as u32 - 1));
            (replica, attempt) = shard.send(&req, observe, failures);
            // Whoever flushed the first attempt knows nothing of this
            // one: the exchange sends its own re-send.
            if let Ok(flight) = &attempt {
                flight.mux.flush();
            }
        }
    }
}

impl ShardBackend for RemoteShard {
    fn shard_id(&self) -> usize {
        self.shard
    }

    fn flush(&self) {
        // Flush outside the slot lock: a write must not hold up the
        // callers taking the link to enqueue on it.
        let live = self.conn.lock().unwrap().clone();
        if let Some((_, mux)) = live {
            mux.flush();
        }
    }

    fn union_slice(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, Option<BitSet>> {
        self.deferred(Frame::UnionSliceReq { switch, range }, |f| match f {
            Frame::UnionSliceRep(v) => Some(v),
            _ => None,
        })
    }

    fn probe_exact(&self, switch: NodeId, addr: u64, epoch: u64) -> Option<Option<bool>> {
        self.expect(
            self.call(
                Frame::ProbeExactReq {
                    switch,
                    addr,
                    epoch,
                },
                true,
            ),
            |f| match f {
                Frame::ProbeExactRep(v) => Some(v),
                _ => None,
            },
        )
    }

    fn presence_wave(&self, switches: &[NodeId], addr: u64, range: EpochRange) -> Vec<bool> {
        self.expect(
            self.call(
                Frame::PresenceWaveReq {
                    switches: switches.to_vec(),
                    addr,
                    range,
                },
                true,
            ),
            |f| match f {
                // A reply of the wrong length is as much a protocol
                // error as one of the wrong type.
                Frame::PresenceWaveRep(v) if v.len() == switches.len() => Some(v),
                _ => None,
            },
        )
    }

    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
        self.expect(
            self.call(Frame::RecordReq { host, flow }, true),
            |f| match f {
                Frame::RecordRep(v) => Some(v),
                _ => None,
            },
        )
    }

    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent> {
        self.expect(
            self.call(Frame::TriggerReq { host, flow }, true),
            |f| match f {
                Frame::TriggerRep(v) => Some(v),
                _ => None,
            },
        )
    }

    fn filter_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'_, FilterWaveReply> {
        let n = hosts.len();
        self.deferred(
            Frame::FilterWaveReq {
                switch,
                range,
                hosts: hosts.to_vec(),
            },
            // A reply of the wrong length is as much a protocol error as
            // one of the wrong type: a missing row would read as an
            // unknown host.
            move |f| match f {
                Frame::FilterWaveRep(v) if v.len() == n => Some(v),
                _ => None,
            },
        )
    }

    fn top_k_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        k: usize,
    ) -> Deferred<'_, TopKWaveReply> {
        let n = hosts.len();
        self.deferred(
            Frame::TopKWaveReq {
                switch,
                k: k as u64,
                hosts: hosts.to_vec(),
            },
            move |f| match f {
                Frame::TopKWaveRep(v) if v.len() == n => Some(v),
                _ => None,
            },
        )
    }

    fn sizes_wave(&self, hosts: &[NodeId], switch: NodeId) -> Deferred<'_, SizesWaveReply> {
        let n = hosts.len();
        self.deferred(
            Frame::SizesWaveReq {
                switch,
                hosts: hosts.to_vec(),
            },
            move |f| match f {
                Frame::SizesWaveRep(v) if v.len() == n => Some(v),
                _ => None,
            },
        )
    }

    fn union_top_k(&self, switch: NodeId, range: EpochRange, k: usize) -> Deferred<'_, UnionTopK> {
        self.deferred(
            Frame::UnionTopKReq {
                switch,
                range,
                k: k as u64,
            },
            |f| match f {
                Frame::UnionTopKRep(v) => Some(v),
                _ => None,
            },
        )
    }

    fn union_sizes(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, UnionSizes> {
        self.deferred(Frame::UnionSizesReq { switch, range }, |f| match f {
            Frame::UnionSizesRep(v) => Some(v),
            _ => None,
        })
    }
}

/// One subscribed client connection on one topic.
struct Watcher {
    conn_id: u64,
    writer: Arc<Mutex<TcpStream>>,
    /// Next incident seq to push.
    sent: u64,
}

/// What one window sends one subscriber connection, built up frame by
/// frame and written once.
struct Outbox {
    writer: Arc<Mutex<TcpStream>>,
    bytes: Vec<u8>,
    /// Cleared by a frame that would not encode; the connection is then
    /// treated like one whose write failed.
    ok: bool,
}

/// One standing-query topic: the subscription, its change-detection
/// state, the full incident log (seq = index), and its watchers.
struct Topic {
    query: StandingQuery,
    last_fp: Option<u64>,
    log: Vec<Incident>,
    watchers: Vec<Watcher>,
}

#[derive(Default)]
struct Topics {
    list: Vec<(SubscriptionId, Topic)>,
}

impl Topics {
    /// The topic for `query`, creating it (next subscription id, in
    /// first-subscribe order — the same id assignment the in-process
    /// stream plane uses) if new.
    fn topic_for(&mut self, query: StandingQuery) -> usize {
        if let Some(i) = self.list.iter().position(|(_, t)| t.query == query) {
            return i;
        }
        let id = SubscriptionId(self.list.len() as u64);
        self.list.push((
            id,
            Topic {
                query,
                last_fp: None,
                log: Vec::new(),
                watchers: Vec::new(),
            },
        ));
        self.list.len() - 1
    }
}

struct FrontInner {
    ctx: Arc<SharedCtx>,
    shards: Vec<RemoteShard>,
    /// Per-shard wave coalescing on the router (off = the naive
    /// one-RPC-per-host counterfactual).
    coalesce: bool,
    /// The shared execution pool: decoded query waves and window
    /// evaluations run through the same work-stealing scheduler the
    /// in-process query plane uses, one chunk per worker (a wave of one
    /// runs on the submitting thread). Sized by
    /// [`WireConfig::front_workers`].
    pool: WorkerPool,
    topics: Mutex<Topics>,
    window: AtomicU64,
    counters: Mutex<RouterCounters>,
    queries: AtomicU64,
    next_conn: AtomicU64,
    /// Envelope frames the whole wave put on the wire, summed over
    /// shards (`wire.frames_per_wave`): with batching this tracks
    /// shards × rounds, independent of host count.
    wave_frames: Arc<Histogram>,
    /// Envelope bytes per query in the wave (`wire.bytes_per_query`).
    query_bytes: Arc<Histogram>,
}

impl FrontInner {
    /// Executes one request through the remote router, accumulating the
    /// routing counters — a wave of one, which the pool runs on the
    /// calling thread.
    fn execute(self: &Arc<Self>, req: &QueryRequest) -> QueryOutcome {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.execute_wave(std::slice::from_ref(req))
            .pop()
            .expect("one request in, one result out")
    }

    /// Executes a whole decoded wave of requests through the batch driver
    /// over the shard links and returns results in submission order: each
    /// distinct request runs once, the distinct ones are cut into one
    /// contiguous chunk per pool worker, and each chunk's queries run in
    /// lock-step, every query through the shared executor over its own
    /// remote router. The executed queries' routing counters accumulate
    /// exactly as a serial loop's would. A panic inside any executor
    /// (shard unreachable past the retry budget) is re-raised here after
    /// the other chunks complete.
    fn execute_wave(self: &Arc<Self>, reqs: &[QueryRequest]) -> Vec<QueryOutcome> {
        let inner = Arc::clone(self);
        let frames_before: u64 = self.shards.iter().map(|s| s.wire_frames_sent()).sum();
        let bytes_before: u64 = self.shards.iter().map(|s| s.wire_bytes_sent()).sum();
        // One chunk per worker, as large as the wave allows: a chunk's
        // round costs one frame per shard whatever its size, so more,
        // smaller chunks would only buy more frames and more wake-ups.
        // A wave of one is one chunk and runs on the calling thread.
        let out = queryplane::execute(
            &self.pool,
            &self.ctx,
            reqs,
            None,
            usize::div_ceil,
            move |chunk, started| {
                queryplane::lock_step(
                    &inner.ctx,
                    &inner.shards,
                    inner.coalesce,
                    Spans::Minted,
                    chunk,
                    started,
                )
            },
        );
        for o in &out {
            self.absorb(&o.counters);
        }
        let frames_after: u64 = self.shards.iter().map(|s| s.wire_frames_sent()).sum();
        let bytes_after: u64 = self.shards.iter().map(|s| s.wire_bytes_sent()).sum();
        self.wave_frames.record(frames_after - frames_before);
        if !reqs.is_empty() {
            self.query_bytes
                .record((bytes_after - bytes_before) / reqs.len() as u64);
        }
        out
    }

    /// Sends what has been issued on every shard link, one envelope each.
    fn flush_shards(&self) {
        for shard in &self.shards {
            shard.flush();
        }
    }

    /// The whole deployment's labelled snapshots: the front-end's own
    /// registry first, then every shard server's, in shard order. The
    /// front snapshot is taken *before* the shard scrapes and the scrape
    /// RPCs are unobserved, so scraping never shows up in the scrape.
    fn scrape_all(&self) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
        let mut out = vec![("front".to_string(), self.ctx.metrics.snapshot())];
        out.extend(self.scrape_shards(&Frame::StatsScrapeReq, stats_scrape_rep)?);
        Ok(out)
    }

    /// The whole deployment's retained spans, labelled like
    /// [`FrontInner::scrape_all`]: the front-end's own dump first, then
    /// every shard server's, in shard order. Side-effect-free — the
    /// dumps are snapshots and the scrape RPCs are unobserved.
    fn scrape_traces_all(&self) -> Result<Vec<(String, Vec<WireSpan>)>, WireError> {
        let mut out = vec![(
            "front".to_string(),
            crate::traces::dump_spans(self.ctx.metrics.tracer()),
        )];
        out.extend(self.scrape_shards(&Frame::TraceScrapeReq, trace_scrape_rep)?);
        Ok(out)
    }

    /// One overlapped, unobserved scrape round: `req` is issued to every
    /// shard and flushed, then the replies are collected in shard order.
    fn scrape_shards<T>(
        &self,
        req: &Frame,
        rep: fn(Frame) -> Result<Vec<T>, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let asked: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.issue(req.clone(), false))
            .collect();
        self.flush_shards();
        let mut out = Vec::new();
        for exchange in asked {
            out.extend(rep(exchange.wait()?)?);
        }
        Ok(out)
    }

    fn router(&self) -> BackendRouter<'_, RemoteShard> {
        let r = BackendRouter::new(&self.shards, &self.ctx.dir);
        if self.coalesce {
            r
        } else {
            r.without_coalescing()
        }
    }

    fn absorb(&self, c: &RouterCounters) {
        let mut total = self.counters.lock().unwrap();
        total.fanout.absorb(&c.fanout);
        total.rpcs += c.rpcs;
        total.wave_rpcs += c.wave_rpcs;
        total.wave_rounds += c.wave_rounds;
        total.rounds += c.rounds;
    }

    /// Pushes a prebuilt frame to a client writer; a failed write means
    /// the client is gone (its watcher is reaped by the caller).
    fn push(writer: &Arc<Mutex<TcpStream>>, frame: &Frame) -> bool {
        let Ok(bytes) = frame.to_frame_bytes() else {
            return false;
        };
        let mut w = writer.lock().unwrap();
        w.write_all(&bytes).and_then(|_| w.flush()).is_ok()
    }
}

/// The client-facing service front-end over `N` wire-connected shard
/// servers.
pub struct FrontEnd {
    inner: Arc<FrontInner>,
    listener: Listener,
}

impl FrontEnd {
    /// Connects each shard to its *replica set* (`addr_sets[s]`, in
    /// shard order: `[0]` the primary, the rest standbys — a lone server
    /// is a set of one) and binds the client listener on `127.0.0.1:0`;
    /// the bound address comes back via [`FrontEnd::local_addr`]. When a
    /// replica dies mid-query the shard connection rotates to the next
    /// address under `retry` and the wave completes on the standby.
    /// Subscription topics live on the front-end, so standing-query
    /// streams keep their cursors across the failover. `coalesce: false`
    /// is the measurable naive per-host RPC regime.
    pub(crate) fn connect_replica_sets(
        ctx: Arc<SharedCtx>,
        addr_sets: &[Vec<SocketAddr>],
        cfg: WireConfig,
        coalesce: bool,
        retry: RetryPolicy,
    ) -> Result<Self, WireError> {
        assert_eq!(
            addr_sets.len(),
            ctx.dir.n_shards(),
            "one replica set per directory shard"
        );
        let mut shards: Vec<RemoteShard> = addr_sets
            .iter()
            .enumerate()
            .map(|(s, set)| {
                let rtt = ctx.metrics.histogram(&format!("wire.rtt_ns.shard{s}"));
                let failover = ctx.metrics.histogram("wire.failover_ns");
                RemoteShard::connect_replicated(
                    s,
                    set.clone(),
                    cfg.max_frame,
                    retry,
                    Some(rtt),
                    Some(failover),
                )
            })
            .collect::<Result<_, _>>()?;
        // Front-side trace wiring: the front registry's tracer mints
        // trace/span ids and head-samples at the configured rate, and
        // every shard link tags its envelopes from the executing
        // thread's context.
        ctx.metrics.tracer().set_sample_rate(cfg.trace_sample_rate);
        for s in &mut shards {
            s.trace_reg = Some(Arc::clone(&ctx.metrics));
        }
        let pool = WorkerPool::with_metrics(cfg.front_workers, &ctx.metrics);
        let wave_frames = ctx.metrics.histogram("wire.frames_per_wave");
        let query_bytes = ctx.metrics.histogram("wire.bytes_per_query");
        let inner = Arc::new(FrontInner {
            ctx,
            shards,
            coalesce,
            pool,
            topics: Mutex::new(Topics::default()),
            window: AtomicU64::new(0),
            counters: Mutex::new(RouterCounters::default()),
            queries: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            wave_frames,
            query_bytes,
        });
        let serving = Arc::clone(&inner);
        let max_frame = cfg.max_frame;
        let n_shards = inner.shards.len() as u16;
        let listener = Listener::spawn("wireplane-front", cfg.max_conns, move |mut stream| {
            let conn_id = serving.next_conn.fetch_add(1, Ordering::Relaxed);
            if (Frame::Hello {
                shard: FRONT_ROLE,
                n_shards,
            })
            .write(&mut stream)
            .is_err()
            {
                return;
            }
            let writer = match stream.try_clone() {
                Ok(w) => Arc::new(Mutex::new(w)),
                Err(_) => return,
            };
            loop {
                let req = match Frame::read(&mut stream, max_frame) {
                    Ok(req) => req,
                    Err(WireError::Io { .. }) => break,
                    Err(e) => {
                        let _ = FrontInner::push(&writer, &Frame::Error(e));
                        break;
                    }
                };
                match req {
                    Frame::QueryReq(q) => {
                        // A shard staying unreachable panics the executor;
                        // surface it to the client as a typed error
                        // instead of a hung connection.
                        let reply = match catch_unwind(AssertUnwindSafe(|| serving.execute(&q))) {
                            Ok(outcome) => Frame::QueryRep(outcome.response),
                            Err(_) => Frame::Error(WireError::Remote(
                                "query execution failed (shard unreachable?)".to_string(),
                            )),
                        };
                        if !FrontInner::push(&writer, &reply) {
                            break;
                        }
                    }
                    Frame::SubscribeReq {
                        query,
                        resume_after,
                    } => {
                        let mut topics = serving.topics.lock().unwrap();
                        let i = topics.topic_for(query);
                        let (sub, topic) = &mut topics.list[i];
                        let available = topic.log.len() as u64;
                        let ack = Frame::SubscribeRep {
                            sub: *sub,
                            available,
                        };
                        if !FrontInner::push(&writer, &ack) {
                            break;
                        }
                        // Replay the backlog from the client's cursor:
                        // zero duplicates (nothing below the cursor) and
                        // zero drops (everything from it on).
                        let mut sent = resume_after.min(available);
                        while sent < available {
                            let frame = Frame::IncidentPush {
                                seq: sent,
                                incident: topic.log[sent as usize].clone(),
                            };
                            if !FrontInner::push(&writer, &frame) {
                                break;
                            }
                            sent += 1;
                        }
                        topic.watchers.push(Watcher {
                            conn_id,
                            writer: Arc::clone(&writer),
                            sent,
                        });
                    }
                    Frame::StatsScrapeReq => {
                        let reply = match serving.scrape_all() {
                            Ok(v) => Frame::StatsScrapeRep(v),
                            Err(e) => Frame::Error(e),
                        };
                        if !FrontInner::push(&writer, &reply) {
                            break;
                        }
                    }
                    Frame::TraceScrapeReq => {
                        let reply = match serving.scrape_traces_all() {
                            Ok(v) => Frame::TraceScrapeRep(v),
                            Err(e) => Frame::Error(e),
                        };
                        if !FrontInner::push(&writer, &reply) {
                            break;
                        }
                    }
                    other => {
                        let e = WireError::Remote(format!(
                            "front-end cannot answer frame {:#04x}",
                            other.tag()
                        ));
                        if !FrontInner::push(&writer, &Frame::Error(e)) {
                            break;
                        }
                    }
                }
            }
            // Connection closed: reap this connection's watchers.
            let mut topics = serving.topics.lock().unwrap();
            for (_, topic) in &mut topics.list {
                topic.watchers.retain(|w| w.conn_id != conn_id);
            }
        })?;
        Ok(FrontEnd { inner, listener })
    }

    /// The bound client-facing loopback address.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Executes one request locally (without a client connection) through
    /// the remote router — the harness-side path the drivers use for
    /// accounting.
    pub fn execute(&self, req: &QueryRequest) -> (QueryResponse, ExecutionTrace, RouterCounters) {
        into_parts(self.inner.execute(req))
    }

    /// Executes a whole wave of requests on the shared pool, returning
    /// results in submission order. A repeated request runs once; each
    /// pool worker drives one contiguous chunk of the distinct requests
    /// in lock-step, so a chunk's round of same-shard RPCs leaves as one
    /// batch frame per shard — the wire fast path. Results are
    /// bit-identical to calling [`FrontEnd::execute`] per request in
    /// order, except that a repeat's routing counters are zeroed: it cost
    /// no RPC.
    pub fn execute_wave(
        &self,
        reqs: &[QueryRequest],
    ) -> Vec<(QueryResponse, ExecutionTrace, RouterCounters)> {
        self.inner
            .queries
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        self.inner
            .execute_wave(reqs)
            .into_iter()
            .map(into_parts)
            .collect()
    }

    /// Cumulative router counters (RPCs, rounds, per-shard fan-out)
    /// across every query and window evaluation.
    pub fn counters(&self) -> RouterCounters {
        self.inner.counters.lock().unwrap().clone()
    }

    /// Labelled registry snapshots of the whole deployment (front-end
    /// first, then each shard in order) — the harness-side twin of
    /// [`crate::WireClient::scrape_stats`].
    pub fn scrape(&self) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
        self.inner.scrape_all()
    }

    /// Labelled span dumps of the whole deployment (front-end first,
    /// then each shard in order) — the harness-side twin of
    /// [`crate::WireClient::scrape_traces`]. Feed the result to
    /// [`crate::traces::assemble`] to rebuild cross-process trees.
    pub fn scrape_traces(&self) -> Result<Vec<(String, Vec<WireSpan>)>, WireError> {
        self.inner.scrape_traces_all()
    }

    /// Queries executed (client-submitted and harness-side).
    pub fn queries(&self) -> u64 {
        self.inner.queries.load(Ordering::Relaxed)
    }

    /// Total reconnects the shard connections performed.
    pub fn shard_reconnects(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.reconnects()).sum()
    }

    /// Total replica failovers the shard connections performed.
    pub fn shard_failovers(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.failovers()).sum()
    }

    /// Each shard connection's currently active replica index.
    pub fn active_replicas(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| s.active_replica())
            .collect()
    }

    /// Total envelope frames written across every shard connection (a
    /// `Batch` carrying a whole wave counts once; retired connections
    /// included).
    pub fn wire_frames_sent(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.wire_frames_sent()).sum()
    }

    /// Total envelope bytes written across every shard connection,
    /// length prefixes included.
    pub fn wire_bytes_sent(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.wire_bytes_sent()).sum()
    }

    /// Test hook: kill every live shard connection (they re-establish on
    /// the next call — the mid-stream failure-injection scenario).
    pub fn kill_shard_connections(&self) {
        for s in &self.inner.shards {
            s.kill_connection();
        }
    }

    /// Closes one evaluation window: re-evaluates every subscribed topic
    /// against the shard servers' current state, appends incident
    /// transitions to the topic logs, and pushes the new frames to every
    /// watcher. Call after the shard states were refreshed. The window
    /// step is the stream plane's own rule
    /// ([`streamplane::evaluate_window`], which
    /// [`streamplane::StreamPlane::run_window`] runs too), with the
    /// resolved requests run as one wave, so the two incident streams are
    /// bit-identical.
    ///
    /// Panics when a shard stays unreachable past its retry budget; the
    /// window is then lost, the front-end is not — the topic table is
    /// unlocked while shard state is read, so subscribes, teardowns and
    /// the next `close_window` go on as before.
    pub(crate) fn close_window(&self) -> WindowSummary {
        let inner = &self.inner;
        let window = inner.window.fetch_add(1, Ordering::SeqCst);
        // One overlapped round: ask every shard, then collect.
        let horizons: Vec<_> = inner.shards.iter().map(|s| s.horizon()).collect();
        inner.flush_shards();
        let horizon = horizons.into_iter().map(|h| h.wait()).max().unwrap_or(0);
        inner.absorb(&RouterCounters {
            rpcs: inner.shards.len() as u64,
            rounds: 1,
            ..RouterCounters::default()
        });

        // The window evaluates the topics subscribed as it opens. Topics
        // are append-only and a topic's id is its index, so when the table
        // is re-taken below the first `subs.len()` entries are still
        // exactly these; a topic subscribed in between joins the next
        // window.
        let subs: Vec<(SubscriptionId, StandingQuery, Option<u64>)> = {
            let topics = inner.topics.lock().unwrap();
            topics
                .list
                .iter()
                .map(|(id, t)| (*id, t.query, t.last_fp))
                .collect()
        };
        // Resolution reads a little remote state through one router for
        // the whole window; the resolved requests run as one wave on the
        // shared pool, in lock-step per worker.
        let router = inner.router();
        let verdicts = evaluate_window(&subs, &router, window, horizon, |wave| {
            inner
                .execute_wave(wave)
                .into_iter()
                .map(|o| o.response)
                .collect()
        });
        inner.absorb(&router.counters());
        let pending = verdicts.verdicts.iter().filter(|v| v.is_none()).count() as u64;
        let incidents = verdicts.incidents.len() as u64;

        let mut topics = inner.topics.lock().unwrap();
        let evaluated_topics = &mut topics.list[..subs.len()];
        for ((_, topic), fp) in evaluated_topics.iter_mut().zip(verdicts.fingerprints) {
            topic.last_fp = Some(fp);
        }
        for incident in verdicts.incidents {
            evaluated_topics[incident.sub.0 as usize]
                .1
                .log
                .push(incident);
        }

        let summary = WindowSummary {
            window,
            horizon,
            evaluated: subs.len() as u64,
            pending,
            incidents,
        };

        // One buffer, one write per subscriber connection: its watchers'
        // new incidents in subscription order, then the window digest.
        let mut outboxes: HashMap<u64, Outbox> = HashMap::new();
        for (_, topic) in evaluated_topics.iter_mut() {
            let log = &topic.log;
            for w in &mut topic.watchers {
                let outbox = outboxes.entry(w.conn_id).or_insert_with(|| Outbox {
                    writer: Arc::clone(&w.writer),
                    bytes: Vec::new(),
                    ok: true,
                });
                while (w.sent as usize) < log.len() {
                    let frame = Frame::IncidentPush {
                        seq: w.sent,
                        incident: log[w.sent as usize].clone(),
                    };
                    outbox.ok &= frame.write(&mut outbox.bytes).is_ok();
                    w.sent += 1;
                }
            }
        }
        let mut gone: Vec<u64> = Vec::new();
        for (conn_id, mut outbox) in outboxes {
            outbox.ok &= Frame::WindowPush(summary).write(&mut outbox.bytes).is_ok();
            let mut w = outbox.writer.lock().unwrap();
            if !(outbox.ok && w.write_all(&outbox.bytes).and_then(|_| w.flush()).is_ok()) {
                gone.push(conn_id);
            }
        }
        // A failed write means the client is gone: reap its watchers.
        if !gone.is_empty() {
            for (_, topic) in &mut topics.list {
                topic.watchers.retain(|w| !gone.contains(&w.conn_id));
            }
        }
        summary
    }

    /// The full incident log of every topic, in subscription order — the
    /// server-side ground truth clients re-derive.
    pub fn incident_logs(&self) -> Vec<(SubscriptionId, Vec<Incident>)> {
        let topics = self.inner.topics.lock().unwrap();
        topics
            .list
            .iter()
            .map(|(id, t)| (*id, t.log.clone()))
            .collect()
    }

    /// Graceful shutdown of the client listener (shard connections close
    /// with the struct).
    pub(crate) fn shutdown(mut self) {
        self.listener.shutdown();
    }
}

/// A driver outcome in the front-end's public shape.
fn into_parts(o: QueryOutcome) -> (QueryResponse, ExecutionTrace, RouterCounters) {
    (o.response, Arc::unwrap_or_clone(o.trace), o.counters)
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use netsim::prelude::*;
    use switchpointer::testbed::{Testbed, TestbedConfig};
    use telemetry::frame::MAX_FRAME;

    use super::*;
    use crate::WireCluster;

    /// A 3-switch chain that carried one short UDP flow end to end.
    fn one_flow_chain() -> Testbed {
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

    /// Two exchanges issued on the primary's link before it dies both
    /// fail on replica 0, and the set rotates once: the second must not
    /// rotate again, back onto the dead primary. Single-threaded —
    /// neither request is flushed before the kill, so neither can have
    /// been answered.
    #[test]
    fn two_exchanges_failing_on_one_dead_primary_rotate_once() {
        let tb = one_flow_chain();
        let cluster =
            WireCluster::launch_replicated(&tb.analyzer(), 1, 2, WireConfig::default()).unwrap();
        let addrs = cluster.front().inner.shards[0].addrs.clone();
        assert_eq!(addrs.len(), 2);
        let link = RemoteShard::connect_replicated(
            0,
            addrs,
            WireConfig::default().max_frame,
            RetryPolicy::immediate(1),
            None,
            None,
        )
        .unwrap();
        let want = link.horizon().wait();
        let (first, second) = (link.horizon(), link.horizon());
        assert!(cluster.kill_primary(0));
        assert_eq!((first.wait(), second.wait()), (want, want));
        assert_eq!(link.active_replica(), 1);
        assert_eq!(link.failovers(), 1, "one dead replica is one failover");
        cluster.shutdown();
    }

    /// A wave reply whose row count differs from the request's host
    /// count is a protocol error, as a presence wave's is: read as rows,
    /// the missing hosts would turn into unknown hosts and their culprits
    /// would drop out of the verdict. The peer greets as shard 0 and
    /// answers a two-host filter wave with one row.
    #[test]
    fn a_wave_reply_with_the_wrong_row_count_is_a_protocol_error() {
        use std::net::TcpListener;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Frame::Hello {
                shard: 0,
                n_shards: 1,
            }
            .write(&mut stream)
            .unwrap();
            while let Ok(frame) = Frame::read(&mut stream, MAX_FRAME) {
                let ids = match frame {
                    Frame::Tagged { req_id, .. } => vec![req_id],
                    Frame::Batch(entries) => entries.into_iter().map(|(id, ..)| id).collect(),
                    other => panic!("unexpected frame {:#04x}", other.tag()),
                };
                for req_id in ids {
                    let reply = Frame::Tagged {
                        req_id,
                        ctx: None,
                        inner: Box::new(Frame::FilterWaveRep(vec![(Some(0), Vec::new())])),
                    };
                    if reply.write(&mut stream).is_err() {
                        return;
                    }
                }
            }
        });
        let link = RemoteShard::connect_replicated(
            0,
            vec![addr],
            MAX_FRAME,
            RetryPolicy::immediate(1),
            None,
            None,
        )
        .unwrap();
        let reply = link.filter_wave(
            &[NodeId(1), NodeId(2)],
            NodeId(0),
            EpochRange { lo: 0, hi: 1 },
        );
        link.flush();
        let panic = catch_unwind(AssertUnwindSafe(|| reply.wait()))
            .expect_err("a one-row reply to a two-host wave was collected");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("mismatched reply frame"), "{msg}");
        drop(link);
        peer.join().unwrap();
    }

    /// A watcher whose window write fails is reaped by `close_window`
    /// itself. Only the *write* half of the server-side socket is shut,
    /// so the connection's listener thread stays blocked in its read and
    /// cannot be the one that reaped it.
    #[test]
    fn a_watcher_whose_window_write_fails_is_reaped() {
        let tb = one_flow_chain();
        let cluster = WireCluster::launch(&tb.analyzer(), 2, WireConfig::default()).unwrap();
        let query = StandingQuery::TopKSliding {
            switch: tb.node("S2"),
            k: 5,
            epochs_back: 4,
        };
        let mut gone = cluster.client().unwrap();
        let mut stays = cluster.client().unwrap();
        gone.subscribe(query, 0).unwrap();
        stays.subscribe(query, 0).unwrap();

        let inner = &cluster.front().inner;
        let watchers = || inner.topics.lock().unwrap().list[0].1.watchers.len();
        assert_eq!(watchers(), 2);
        inner.topics.lock().unwrap().list[0].1.watchers[0]
            .writer
            .lock()
            .unwrap()
            .shutdown(std::net::Shutdown::Write)
            .unwrap();
        let summary = cluster.close_window();
        assert_eq!(summary.incidents, 1, "a first window opens the topic");
        assert_eq!(watchers(), 1, "the failed watcher must be reaped");
        let (incidents, win) = stays.drain_window().unwrap();
        assert_eq!((incidents.len(), win.window), (1, summary.window));
        drop(gone);
        cluster.shutdown();
    }
}
