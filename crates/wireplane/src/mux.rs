//! Connection multiplexing: one socket, many concurrent exchanges.
//!
//! Lock the connection, write a request, block on the reply: that
//! pattern serializes every caller sharing a shard link — a 16-worker
//! query wave degrades to 16 sequential round trips per shard.
//! [`MuxConn`] is the classic tagged-frame design instead, and the only
//! way reads and scrapes reach a shard:
//!
//! * every request is stamped with a `req_id u32` and travels as
//!   [`Frame::Tagged`] (or packed with its contemporaries into one
//!   [`Frame::Batch`]);
//! * a single **demux reader thread** per connection parses replies and
//!   completes whichever waiter the `req_id` names;
//! * requests **combine**: `MuxConn::issue` only enqueues, and
//!   `MuxConn::flush` drains the whole pending queue under the writer
//!   lock into *one* envelope — `Tagged` for a single request, `Batch`
//!   for several, answered by one `BatchRep`. Whoever flushes sends
//!   everything enqueued so far, its own requests or another thread's,
//!   so a driver that issues a whole round of many queries and flushes
//!   once puts one frame per round on the link, and concurrent callers
//!   racing for the writer lock still coalesce with no timers and no
//!   barrier.
//!
//! Encoding reuses one scratch buffer per connection
//! ([`Frame::encode_into`]), so a steady-state sender allocates only
//! for payload bodies. Scrapes and query waves share the link: the
//! server answers each connection on one thread, envelope after
//! envelope in arrival order (see [`crate::server`]), so replies come
//! back in request order and the demux still pairs them by `req_id`. A
//! `Batch` of thirty requests is thirty serves on that thread, which
//! costs nothing while a deployment has at least as many shard servers
//! as cores to run them. Replication does not ride
//! here — a shard applies sequenced frames only when they arrive bare
//! (a [`ReplicaWriter`](crate::repl::ReplicaWriter)'s socket) and
//! refuses an enveloped one with a typed error.
//!
//! An exchange has three steps. `MuxConn::issue` registers the reply
//! slot, enqueues the request and returns an `InFlight` handle;
//! `MuxConn::flush` writes the queue; `InFlight::wait` blocks for the
//! reply. A caller that issues on several connections, flushes them, and
//! only then waits has all of those round trips in flight together —
//! [`MuxConn::call`] is simply the three steps back to back. Who
//! flushes: the blocking router forms flush the links they issued on,
//! then collect; the front-end's wave driver flushes every link once per
//! pass over its queries; and as the safety net a `wait` that is about
//! to block on a request still in the queue flushes the link itself — a
//! forgotten flush costs a frame (and the overlap), never a deadlock.
//! The demux reader stamps each reply with its **arrival** instant, so a
//! caller that collects late can still tell how long the exchange itself
//! took.
//!
//! Failure model: any transport error **poisons** the connection — the
//! reader marks it dead with a peer-tagged [`WireError`] and wakes every
//! waiter; replies completed before death still deliver. An exchange
//! that is in flight when the connection dies fails at its `wait` with
//! the death cause (`issue` and `flush` themselves never fail: on an
//! already-dead connection nothing is sent, a failed write poisons, and
//! the `wait` reports why). The owner
//! ([`RemoteShard`](crate::frontend::RemoteShard)) drops the poisoned
//! connection and redials under its retry/failover policy. An
//! `InFlight` dropped un-waited releases its reply slot; a reply that
//! lands afterwards is discarded.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use obsplane::TraceContext;
use telemetry::frame::WireError;

use crate::proto::Frame;

/// One queued request: its id, the caller's trace context, the frame.
type Queued = (u32, Option<TraceContext>, Frame);

/// Everything the connection's handles share: reply slots and death
/// flag (with the demux reader thread), the pending queue and the write
/// half (with every [`InFlight`], so a wait can flush).
struct Shared {
    peer: SocketAddr,
    slots: Mutex<SlotState>,
    cond: Condvar,
    writer: Mutex<Writer>,
    /// Requests issued but not yet flushed. Drained wholesale under the
    /// writer lock — the combining step.
    pending: Mutex<VecDeque<Queued>>,
    /// Envelope frames actually written (one `Batch` counts once).
    frames_sent: AtomicU64,
    /// Envelope bytes actually written, length prefixes included.
    bytes_sent: AtomicU64,
}

struct SlotState {
    /// `req_id` → reply slot. A request registers `None` before it is
    /// queued; the reader fills it with the reply and the instant it
    /// arrived, and wakes the condvar.
    waiting: HashMap<u32, Option<(Frame, Instant)>>,
    /// Set once on the first transport failure; every waiter whose slot
    /// is still empty observes it and fails with the same cause.
    dead: Option<WireError>,
}

impl Shared {
    fn complete(&self, id: u32, reply: Frame) {
        let arrived = Instant::now();
        let mut st = self.slots.lock().unwrap();
        if let Some(slot) = st.waiting.get_mut(&id) {
            // An unknown id means the waiter gave up; drop the reply.
            *slot = Some((reply, arrived));
            self.cond.notify_all();
        }
    }

    fn poison(&self, err: WireError) {
        let mut st = self.slots.lock().unwrap();
        if st.dead.is_none() {
            st.dead = Some(err);
        }
        self.cond.notify_all();
    }

    /// Writes everything pending as one envelope. The thread that wins
    /// the writer lock sends all that is queued at that moment —
    /// including requests of threads still blocked on the lock behind
    /// it, which then find the queue empty and write nothing. A failed
    /// write poisons the connection.
    fn flush(&self) {
        let mut w = self.writer.lock().unwrap();
        let mut batch = std::mem::take(&mut *self.pending.lock().unwrap());
        let frame = match batch.len() {
            0 => return,
            1 => {
                let (req_id, ctx, inner) = batch.pop_front().expect("len checked");
                Frame::Tagged {
                    req_id,
                    ctx,
                    inner: Box::new(inner),
                }
            }
            _ => Frame::Batch(batch.into()),
        };
        let Writer { stream, scratch } = &mut *w;
        let sent = frame.encode_into(scratch).and_then(|()| {
            stream.write_all(scratch)?;
            stream.flush()?;
            Ok(scratch.len() as u64)
        });
        match sent {
            Ok(n) => {
                self.frames_sent.fetch_add(1, Ordering::Relaxed);
                self.bytes_sent.fetch_add(n, Ordering::Relaxed);
            }
            Err(e) => self.poison(e.with_peer(self.peer)),
        }
    }

    /// Is request `id` still in the pending queue?
    fn is_queued(&self, id: u32) -> bool {
        self.pending
            .lock()
            .unwrap()
            .iter()
            .any(|(queued, ..)| *queued == id)
    }
}

/// The write half: the stream plus the reused encode scratch buffer.
struct Writer {
    stream: TcpStream,
    scratch: Vec<u8>,
}

/// One multiplexed connection to a wireplane server.
pub struct MuxConn {
    shared: Arc<Shared>,
    next_id: AtomicU32,
    /// A clone of the socket kept aside so `kill`/`Drop` can force the
    /// reader thread out of its blocked `read`.
    sock: TcpStream,
}

impl MuxConn {
    /// Dials `addr`, consumes the server's greeting and starts the demux
    /// reader. Returns the connection plus the greeting's
    /// `(shard, n_shards)` so the caller can verify it reached the right
    /// role.
    pub fn connect(
        addr: SocketAddr,
        max_frame: u32,
    ) -> Result<(Arc<MuxConn>, u16, u16), WireError> {
        let (stream, shard, n_shards) = crate::dial(addr, max_frame)?;
        let sock = stream
            .try_clone()
            .map_err(|e| WireError::from(e).with_peer(addr))?;
        let reader_stream = stream
            .try_clone()
            .map_err(|e| WireError::from(e).with_peer(addr))?;
        let shared = Arc::new(Shared {
            peer: addr,
            slots: Mutex::new(SlotState {
                waiting: HashMap::new(),
                dead: None,
            }),
            cond: Condvar::new(),
            writer: Mutex::new(Writer {
                stream,
                scratch: Vec::with_capacity(4096),
            }),
            pending: Mutex::new(VecDeque::new()),
            frames_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
        });
        let conn = Arc::new(MuxConn {
            shared: Arc::clone(&shared),
            next_id: AtomicU32::new(0),
            sock,
        });
        // The reader holds only `Shared`, not the MuxConn — dropping the
        // connection shuts the socket, which pops the reader out of
        // `read` and lets the thread exit.
        std::thread::Builder::new()
            .name(format!("wireplane-mux-{addr}"))
            .spawn(move || Self::reader_loop(reader_stream, shared, max_frame))
            .map_err(|e| WireError::from(e).with_peer(addr))?;
        Ok((conn, shard, n_shards))
    }

    /// Envelope frames written so far (a whole `Batch` counts once).
    pub fn frames_sent(&self) -> u64 {
        self.shared.frames_sent.load(Ordering::Relaxed)
    }

    /// Envelope bytes written so far, length prefixes included.
    pub fn bytes_sent(&self) -> u64 {
        self.shared.bytes_sent.load(Ordering::Relaxed)
    }

    /// One request/reply exchange, concurrency-safe: any number of
    /// threads may call this at once and their exchanges interleave on
    /// the shared socket. Returns the enveloped reply as-is — a shard's
    /// [`Frame::Error`] answer comes back as `Ok(Frame::Error(..))` for
    /// the caller to map.
    pub fn call(&self, req: &Frame) -> Result<Frame, WireError> {
        let in_flight = self.issue(req, None);
        self.flush();
        in_flight.wait().map(|(reply, _arrived)| reply)
    }

    /// The issue step of an exchange: registers the reply slot and
    /// enqueues the request. Nothing is written until the next
    /// [`MuxConn::flush`] (anyone's), which sends it together with
    /// whatever else is queued. On a dead connection nothing is queued
    /// and the handle's [`InFlight::wait`] reports why.
    pub(crate) fn issue(&self, req: &Frame, ctx: Option<TraceContext>) -> InFlight {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let handle = InFlight {
            shared: Arc::clone(&self.shared),
            id,
            collected: false,
        };
        {
            let mut st = self.shared.slots.lock().unwrap();
            if st.dead.is_some() {
                return handle;
            }
            st.waiting.insert(id, None);
        }
        self.shared
            .pending
            .lock()
            .unwrap()
            .push_back((id, ctx, req.clone()));
        handle
    }

    /// The flush step: writes every request issued so far and not yet
    /// sent as one envelope (`Tagged` for one, `Batch` otherwise; nothing
    /// when the queue is empty). A failed write poisons the connection —
    /// the waits report it, so there is no error path here.
    pub(crate) fn flush(&self) {
        self.shared.flush();
    }

    /// Demultiplexes replies until the stream dies, completing waiters
    /// by `req_id`. Decode of one reply overlaps the server's work on
    /// the others and the writer's next flush — the pipelining leg.
    fn reader_loop(mut stream: TcpStream, shared: Arc<Shared>, max_frame: u32) {
        loop {
            match Frame::read(&mut stream, max_frame) {
                Ok(Frame::Tagged { req_id, inner, .. }) => shared.complete(req_id, *inner),
                Ok(Frame::BatchRep(entries)) => {
                    for (id, f) in entries {
                        shared.complete(id, f);
                    }
                }
                // An untagged error means the server lost framing and is
                // dropping the connection; everything in flight is lost.
                Ok(Frame::Error(e)) => {
                    shared.poison(e);
                    break;
                }
                Ok(other) => {
                    shared.poison(WireError::Remote(format!(
                        "unexpected untagged frame {:#04x} on multiplexed connection to {}",
                        other.tag(),
                        shared.peer
                    )));
                    break;
                }
                Err(e) => {
                    shared.poison(e.with_peer(shared.peer));
                    break;
                }
            }
        }
    }

    /// Whether a transport failure has poisoned this connection.
    pub fn is_dead(&self) -> bool {
        self.shared.slots.lock().unwrap().dead.is_some()
    }

    /// Test hook and failover lever: force-close the socket. The reader
    /// poisons the connection and every in-flight exchange fails with a
    /// peer-tagged error; the owner redials.
    pub(crate) fn kill(&self) {
        let _ = self.sock.shutdown(std::net::Shutdown::Both);
    }
}

/// One issued request whose reply has not been collected yet — the
/// handle `MuxConn::issue` returns. Holds only the connection's shared
/// state, not the connection: the owner keeps the [`MuxConn`] alive for
/// as long as it wants the reply.
pub(crate) struct InFlight {
    shared: Arc<Shared>,
    id: u32,
    collected: bool,
}

impl InFlight {
    /// The collect half: blocks until the reply has arrived and returns
    /// it with its arrival instant (stamped by the demux reader, so time
    /// the caller spent elsewhere before collecting is not in it), or
    /// fails with the connection's death cause.
    ///
    /// A request still in the queue cannot have been answered, so the
    /// wait would block on it forever: it flushes the link first — a
    /// missing flush can never hang a wait. (Checked up front, on the
    /// queue's own lock, so the reply slots are locked once per wait and
    /// the demux reader is not contended for them a second time.)
    pub(crate) fn wait(mut self) -> Result<(Frame, Instant), WireError> {
        self.collected = true;
        if self.shared.is_queued(self.id) {
            self.shared.flush();
        }
        let mut st = self.shared.slots.lock().unwrap();
        loop {
            if st.waiting.get(&self.id).is_some_and(|slot| slot.is_some()) {
                return Ok(st
                    .waiting
                    .remove(&self.id)
                    .expect("checked present")
                    .expect("checked filled"));
            }
            // Replies completed before death still deliver (checked
            // above); only still-empty slots fail.
            if let Some(e) = &st.dead {
                let e = e.clone();
                st.waiting.remove(&self.id);
                return Err(e);
            }
            st = self.shared.cond.wait(st).unwrap();
        }
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        // Abandoned un-waited (the owner unwound past it): release the
        // slot so it cannot outlive the exchange. A reply that arrives
        // later finds no slot and is discarded like any other whose
        // waiter gave up.
        if !self.collected {
            if let Ok(mut st) = self.shared.slots.lock() {
                st.waiting.remove(&self.id);
            }
        }
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // Pop the detached reader thread out of its blocked read.
        let _ = self.sock.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::sync::mpsc;

    use super::*;

    const MAX_FRAME: u32 = 1 << 16;

    /// A peer that greets, reads `hold` tagged requests, answers none of
    /// them until told to, and from then on answers each request as it
    /// arrives — every reply is `HorizonRep(req_id)`.
    fn holding_peer(hold: usize) -> (SocketAddr, mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, released) = mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Frame::Hello {
                shard: 0,
                n_shards: 1,
            }
            .write(&mut stream)
            .unwrap();
            let mut held = Vec::new();
            let mut released_yet = false;
            while let Ok(frame) = Frame::read(&mut stream, MAX_FRAME) {
                match frame {
                    Frame::Tagged { req_id, .. } => held.push(req_id),
                    Frame::Batch(entries) => held.extend(entries.into_iter().map(|(id, ..)| id)),
                    other => panic!("unexpected frame {:#04x}", other.tag()),
                }
                if !released_yet && held.len() >= hold {
                    released.recv().unwrap();
                    released_yet = true;
                }
                if released_yet {
                    for req_id in held.drain(..) {
                        let reply = Frame::Tagged {
                            req_id,
                            ctx: None,
                            inner: Box::new(Frame::HorizonRep(u64::from(req_id))),
                        };
                        if reply.write(&mut stream).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        (addr, release, peer)
    }

    fn waiting(conn: &MuxConn) -> usize {
        conn.shared.slots.lock().unwrap().waiting.len()
    }

    /// Exchanges abandoned between issue and collect release their reply
    /// slots at once; their replies, landing later, are discarded and the
    /// connection goes on serving.
    #[test]
    fn mux_in_flight_handles_dropped_unwaited_release_their_slots() {
        const N: usize = 8;
        let (addr, release, peer) = holding_peer(N);
        let (conn, _, _) = MuxConn::connect(addr, MAX_FRAME).unwrap();
        let handles: Vec<InFlight> = (0..N)
            .map(|_| conn.issue(&Frame::HorizonReq, None))
            .collect();
        conn.flush();
        assert_eq!(waiting(&conn), N, "every issued request holds a slot");
        drop(handles);
        assert_eq!(waiting(&conn), 0, "a dropped handle must release its slot");

        // The N late replies precede this call's reply on the socket, so
        // by the time it returns the reader has seen — and dropped — them.
        release.send(()).unwrap();
        let next = conn.issue(&Frame::HorizonReq, None);
        let id = next.id;
        conn.flush();
        match next.wait().unwrap() {
            (Frame::HorizonRep(h), _) => {
                assert_eq!(h, u64::from(id), "reply paired with a stale id")
            }
            (other, _) => panic!("unexpected reply {:#04x}", other.tag()),
        }
        assert_eq!(waiting(&conn), 0);
        assert!(!conn.is_dead());
        drop(conn);
        peer.join().unwrap();
    }
    fn horizon_of(reply: Result<(Frame, Instant), WireError>) -> u64 {
        match reply.unwrap() {
            (Frame::HorizonRep(h), _) => h,
            (other, _) => panic!("unexpected reply {:#04x}", other.tag()),
        }
    }

    /// Forgetting a flush costs a frame, never a deadlock: a wait about
    /// to block on a request still in the queue sends the queue itself.
    #[test]
    fn mux_wait_on_a_request_nobody_flushed_flushes_its_own_link() {
        let (addr, release, peer) = holding_peer(1);
        release.send(()).unwrap();
        let (conn, _, _) = MuxConn::connect(addr, MAX_FRAME).unwrap();
        let first = conn.issue(&Frame::HorizonReq, None);
        let second = conn.issue(&Frame::HorizonReq, None);
        assert_eq!(conn.frames_sent(), 0, "issue only enqueues");
        let (a, b) = (first.id, second.id);
        assert_eq!(horizon_of(first.wait()), u64::from(a));
        assert_eq!(conn.frames_sent(), 1, "the wait flushed the whole queue");
        assert_eq!(horizon_of(second.wait()), u64::from(b));
        assert_eq!(conn.frames_sent(), 1, "nothing was left to send");
        assert_eq!(waiting(&conn), 0);
        drop(conn);
        peer.join().unwrap();
    }

    /// A request enqueued by one thread and flushed by another is sent —
    /// and answered — exactly once: the issuer's wait finds it gone from
    /// the queue and only collects.
    #[test]
    fn mux_request_enqueued_by_one_thread_and_flushed_by_another_is_answered_once() {
        let (addr, release, peer) = holding_peer(1);
        release.send(()).unwrap();
        let (conn, _, _) = MuxConn::connect(addr, MAX_FRAME).unwrap();
        let (issued_tx, issued) = mpsc::channel::<()>();
        let (flushed_tx, flushed) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let conn = &conn;
            let issuer = scope.spawn(move || {
                let in_flight = conn.issue(&Frame::HorizonReq, None);
                let id = in_flight.id;
                issued_tx.send(()).unwrap();
                flushed.recv().unwrap();
                assert_eq!(horizon_of(in_flight.wait()), u64::from(id));
            });
            issued.recv().unwrap();
            conn.flush();
            flushed_tx.send(()).unwrap();
            issuer.join().unwrap();
        });
        assert_eq!(conn.frames_sent(), 1, "the request went out twice");
        // The link is in step: the next exchange gets its own reply.
        let next = conn.issue(&Frame::HorizonReq, None);
        let id = next.id;
        conn.flush();
        assert_eq!(horizon_of(next.wait()), u64::from(id));
        assert_eq!(waiting(&conn), 0);
        drop(conn);
        peer.join().unwrap();
    }

    /// An exchange abandoned before anyone flushed it holds no reply
    /// slot; its request leaves with the next flush and the reply is
    /// discarded.
    #[test]
    fn mux_in_flight_handle_dropped_unflushed_leaves_no_waiting_slot() {
        let (addr, release, peer) = holding_peer(1);
        release.send(()).unwrap();
        let (conn, _, _) = MuxConn::connect(addr, MAX_FRAME).unwrap();
        let abandoned = conn.issue(&Frame::HorizonReq, None);
        assert_eq!(waiting(&conn), 1);
        drop(abandoned);
        assert_eq!(waiting(&conn), 0, "a dropped handle must release its slot");
        assert_eq!(conn.frames_sent(), 0);

        let next = conn.issue(&Frame::HorizonReq, None);
        let id = next.id;
        conn.flush();
        assert_eq!(horizon_of(next.wait()), u64::from(id));
        assert_eq!(conn.frames_sent(), 1, "both requests left as one Batch");
        assert_eq!(waiting(&conn), 0);
        assert!(!conn.is_dead());
        drop(conn);
        peer.join().unwrap();
    }
}
