//! Connection multiplexing: one socket, many concurrent exchanges.
//!
//! Lock the connection, write a request, block on the reply: that
//! pattern serializes every caller sharing a shard link — a 16-worker
//! query wave degrades to 16 sequential round trips per shard.
//! [`MuxConn`] is the classic tagged-frame design instead, and the only
//! way anything reaches a shard — reads, scrapes and replication alike:
//!
//! * every request is stamped with a `req_id u32` and travels as
//!   [`Frame::Tagged`] (or packed with its contemporaries into one
//!   [`Frame::Batch`]);
//! * the threads waiting on replies read them, **leader/followers**: a
//!   waiter whose reply has not come takes the link's read half if no
//!   one holds it, reads one frame, files each reply in it under its
//!   `req_id` and goes round again; a waiter that finds the read half
//!   taken parks until the leader files its reply or leaves. The link
//!   has no thread of its own, and a lone waiter — a closed loop's one
//!   query — reads its own reply with no hand-off at all;
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
//! for payload bodies. The server answers each connection on one
//! thread, envelope after envelope and entry after entry in arrival
//! order (see [`crate::server`]), so replies come back in request order
//! and the waiters still pair them by `req_id`. A `Batch` of thirty
//! requests is thirty serves on that thread, which costs nothing while
//! a deployment has at least as many shard servers as cores to run
//! them. The same arrival order is what lets replication ride here: a
//! [`ReplicaWriter`](crate::repl::ReplicaWriter) is a one-address
//! [`RemoteShard`](crate::frontend::RemoteShard) over its own link, and
//! the shard applies its sequenced appends in the order they were
//! sent.
//!
//! An exchange has three steps. `MuxConn::issue` registers the reply
//! slot, enqueues the request and returns an `InFlight` handle;
//! `MuxConn::flush` writes the queue; `InFlight::wait` blocks for the
//! reply. A caller that issues on several connections, flushes them, and
//! only then waits has all of those round trips in flight together —
//! [`MuxConn::call`] is simply the three steps back to back. Who
//! flushes: the blocking router forms flush the links they issued on,
//! then collect; the front-end's wave driver flushes every link once per
//! pass over its queries; a replication writer flushes its own link as
//! it issues; and as the safety net a `wait` that is about
//! to block on a request still in the queue flushes the link itself — a
//! forgotten flush costs a frame (and the overlap), never a deadlock.
//! Each reply is stamped with the instant a waiter read it off the link.
//! No one reads a link no one waits on, so a reply that sat in the
//! socket while its caller collected a sibling first is stamped when the
//! caller gets to it.
//!
//! Failure model: any transport error **poisons** the connection — the
//! waiter reading marks it dead with a peer-tagged [`WireError`] and
//! wakes every parked waiter; replies filed before death still deliver.
//! An exchange that is in flight when the connection dies fails at its
//! `wait` with the death cause (`issue` and `flush` themselves never
//! fail: on an already-dead connection nothing is sent, a failed write
//! poisons and shuts the socket down, so a leader blocked reading wakes
//! too, and the `wait` reports why). A death is noticed only when
//! someone reads or writes the link. The owner
//! ([`RemoteShard`](crate::frontend::RemoteShard)) drops the poisoned
//! connection and redials under its retry/failover policy. An
//! `InFlight` dropped un-waited releases its reply slot; a reply that
//! lands afterwards is discarded by whoever reads it.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use obsplane::TraceContext;
use telemetry::frame::WireError;

use crate::proto::Frame;

/// One queued request: its id, the caller's trace context, the frame.
type Queued = (u32, Option<TraceContext>, Frame);

const SLOTS: &str = "mux reply slots poisoned by a panicking waiter";

/// Everything the connection's handles share: reply slots, death flag
/// and read half (the waiters take turns reading), the pending queue and
/// the write half (every [`InFlight`] may flush).
struct Shared {
    peer: SocketAddr,
    max_frame: u32,
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
    /// queued; the waiter that reads the reply fills it with the reply
    /// and the instant it was read.
    waiting: HashMap<u32, Option<(Frame, Instant)>>,
    /// Set once on the first transport failure; every waiter whose slot
    /// is still empty observes it and fails with the same cause.
    dead: Option<WireError>,
    /// The link's read half; `None` while a leader reads it.
    reader: Option<TcpStream>,
    /// Waiters blocked on the condvar. A wake-up is paid only when one
    /// is there to take it.
    parked: usize,
}

impl SlotState {
    fn poison(&mut self, err: WireError) {
        if self.dead.is_none() {
            self.dead = Some(err);
        }
    }

    /// Fills the slot `id` names with its reply; an unknown id means the
    /// waiter gave up, and the reply is dropped. Returns whether a slot
    /// was filled.
    fn fill(&mut self, id: u32, reply: Frame, arrived: Instant) -> bool {
        let Some(slot) = self.waiting.get_mut(&id) else {
            return false;
        };
        *slot = Some((reply, arrived));
        true
    }

    /// Files one frame read off the link: each reply into its slot; an
    /// untagged error, a stray frame or a failed read poisons. Returns
    /// whether parked waiters have cause to wake — a reply for a waiter
    /// other than `leader`, or a death.
    fn file(
        &mut self,
        read: Result<Frame, WireError>,
        arrived: Instant,
        leader: u32,
        peer: SocketAddr,
    ) -> bool {
        let death = match read {
            Ok(Frame::Tagged { req_id, inner, .. }) => {
                return self.fill(req_id, *inner, arrived) && req_id != leader;
            }
            Ok(Frame::BatchRep(entries)) => {
                let mut others = false;
                for (id, reply) in entries {
                    others |= self.fill(id, reply, arrived) && id != leader;
                }
                return others;
            }
            // An untagged error means the server lost framing and is
            // dropping the connection; everything in flight is lost.
            Ok(Frame::Error(e)) => e,
            Ok(other) => WireError::Remote(format!(
                "unexpected untagged frame {:#04x} on multiplexed connection to {peer}",
                other.tag()
            )),
            Err(e) => e.with_peer(peer),
        };
        self.poison(death);
        true
    }
}

impl Shared {
    fn poison(&self, err: WireError) {
        let mut st = self.slots.lock().expect(SLOTS);
        st.poison(err);
        if st.parked > 0 {
            self.cond.notify_all();
        }
    }

    /// Writes everything pending as one envelope. The thread that wins
    /// the writer lock sends all that is queued at that moment —
    /// including requests of threads still blocked on the lock behind
    /// it, which then find the queue empty and write nothing. A failed
    /// write poisons the connection and shuts the socket down: a leader
    /// blocked reading for a reply that will now never be sent wakes.
    fn flush(&self) {
        let mut w = self.writer.lock().expect("mux writer poisoned");
        let mut batch = std::mem::take(&mut *self.pending.lock().expect("mux queue poisoned"));
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
            Err(e) => {
                // Poison first, so the leader the shutdown wakes fails
                // with this cause, not with the read it was blocked in.
                self.poison(e.with_peer(self.peer));
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Is request `id` still in the pending queue?
    fn is_queued(&self, id: u32) -> bool {
        self.pending
            .lock()
            .expect("mux queue poisoned")
            .iter()
            .any(|(queued, ..)| *queued == id)
    }

    /// A leader's turn: reads one frame off the link outside the lock,
    /// then — under it — puts the read half back and files the frame,
    /// waking the parked waiters if it concerns them. Returns the lock
    /// still held, so the leader checks its own slot in the same hold.
    fn lead(&self, stream: TcpStream, leader: u32) -> MutexGuard<'_, SlotState> {
        let mut half = ReadHalf {
            shared: self,
            stream: Some(stream),
        };
        let held = half.stream.as_mut().expect("just put there");
        let read = Frame::read(held, self.max_frame);
        let arrived = Instant::now();
        let mut st = self.slots.lock().expect(SLOTS);
        st.reader = half.stream.take();
        if st.file(read, arrived, leader, self.peer) && st.parked > 0 {
            self.cond.notify_all();
        }
        st
    }
}

/// The read half while a leader holds it. Handed back by
/// [`Shared::lead`] on the normal way out; a read that unwinds hands it
/// back on drop, so the link never loses its reader.
struct ReadHalf<'a> {
    shared: &'a Shared,
    stream: Option<TcpStream>,
}

impl Drop for ReadHalf<'_> {
    fn drop(&mut self) {
        if let Some(stream) = self.stream.take() {
            let mut st = self
                .shared
                .slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.reader = Some(stream);
            if st.parked > 0 {
                self.shared.cond.notify_all();
            }
        }
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
    /// A clone of the socket kept aside so `kill`/`Drop` can close it
    /// whoever holds the read and write halves.
    sock: TcpStream,
}

impl MuxConn {
    /// Dials `addr` and consumes the server's greeting. Returns the
    /// connection plus the greeting's `(shard, n_shards)` so the caller
    /// can verify it reached the right role.
    pub fn connect(
        addr: SocketAddr,
        max_frame: u32,
    ) -> Result<(Arc<MuxConn>, u16, u16), WireError> {
        let (stream, shard, n_shards) = crate::dial(addr, max_frame)?;
        let clone = || {
            stream
                .try_clone()
                .map_err(|e| WireError::from(e).with_peer(addr))
        };
        let (sock, reader) = (clone()?, clone()?);
        let shared = Arc::new(Shared {
            peer: addr,
            max_frame,
            slots: Mutex::new(SlotState {
                waiting: HashMap::new(),
                dead: None,
                reader: Some(reader),
                parked: 0,
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
            shared,
            next_id: AtomicU32::new(0),
            sock,
        });
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

    /// Whether a transport failure has poisoned this connection. A death
    /// is noticed only when someone reads or writes the link: a socket
    /// closed while no one waits on it or flushes it reads as alive until
    /// the next `wait` or flush finds it closed.
    pub fn is_dead(&self) -> bool {
        self.shared.slots.lock().expect(SLOTS).dead.is_some()
    }

    /// Test hook and failover lever: force-close the socket. The read or
    /// write in progress, or else the next one, fails and poisons the
    /// connection, and every in-flight exchange fails with a peer-tagged
    /// error; the owner redials.
    pub(crate) fn kill(&self) {
        let _ = self.sock.shutdown(Shutdown::Both);
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
    /// it with the instant it was read off the link, or fails with the
    /// connection's death cause. While the reply is missing the waiter
    /// reads the link itself if no one else is ([`Shared::lead`]), and
    /// parks until the reader files its reply or leaves otherwise.
    ///
    /// A request still in the queue cannot have been answered, so the
    /// wait would block on it forever: it flushes the link first — a
    /// missing flush can never hang a wait. (Checked up front, on the
    /// queue's own lock, so the reply slots are not locked for it.)
    pub(crate) fn wait(mut self) -> Result<(Frame, Instant), WireError> {
        if self.shared.is_queued(self.id) {
            self.shared.flush();
        }
        let mut st = self.shared.slots.lock().expect(SLOTS);
        loop {
            if st.waiting.get(&self.id).is_some_and(|slot| slot.is_some()) {
                self.collected = true;
                let reply = st
                    .waiting
                    .remove(&self.id)
                    .expect("checked present")
                    .expect("checked filled");
                // Leaving with the read half free: pass the lead on.
                if st.reader.is_some() && st.parked > 0 {
                    self.shared.cond.notify_one();
                }
                return Ok(reply);
            }
            // Replies filed before death still deliver (checked above);
            // only still-empty slots fail.
            if let Some(e) = &st.dead {
                let e = e.clone();
                st.waiting.remove(&self.id);
                self.collected = true;
                return Err(e);
            }
            st = match st.reader.take() {
                Some(stream) => {
                    drop(st);
                    self.shared.lead(stream, self.id)
                }
                None => {
                    st.parked += 1;
                    let mut st = self.shared.cond.wait(st).expect(SLOTS);
                    st.parked -= 1;
                    st
                }
            };
        }
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        // Abandoned un-waited (the owner unwound past it, or the wait
        // itself did): release the slot so it cannot outlive the
        // exchange. A reply that arrives later finds no slot and is
        // discarded like any other whose waiter gave up.
        if !self.collected {
            if let Ok(mut st) = self.shared.slots.lock() {
                st.waiting.remove(&self.id);
            }
        }
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // Close the link even while `InFlight` handles keep its shared
        // state alive: a leader blocked reading it wakes and poisons.
        let _ = self.sock.shutdown(Shutdown::Both);
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

    /// A peer that greets, reads requests until it holds `n`, then
    /// answers each id the test sends on the returned channel, in that
    /// order, one `Tagged` frame each; it closes the link once the
    /// channel does.
    fn scripted_peer(n: usize) -> (SocketAddr, mpsc::Sender<u32>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (answer, answers) = mpsc::channel::<u32>();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Frame::Hello {
                shard: 0,
                n_shards: 1,
            }
            .write(&mut stream)
            .unwrap();
            let mut held = 0;
            while held < n {
                match Frame::read(&mut stream, MAX_FRAME).unwrap() {
                    Frame::Tagged { .. } => held += 1,
                    Frame::Batch(entries) => held += entries.len(),
                    other => panic!("unexpected frame {:#04x}", other.tag()),
                }
            }
            for req_id in answers {
                let reply = Frame::Tagged {
                    req_id,
                    ctx: None,
                    inner: Box::new(Frame::HorizonRep(u64::from(req_id))),
                };
                if reply.write(&mut stream).is_err() {
                    return;
                }
            }
        });
        (addr, answer, peer)
    }

    /// What a waiter on its own thread reports: its request id and the
    /// horizon its reply carried.
    type Waited = (u32, Result<u64, WireError>);

    /// Waits on `in_flight` on a thread of its own and reports on `done`,
    /// so a test bounds every wait with `recv_timeout`: a hand-off that
    /// is lost fails the test instead of hanging it.
    fn wait_on_a_thread(
        in_flight: InFlight,
        done: &mpsc::Sender<Waited>,
    ) -> std::thread::JoinHandle<()> {
        let done = done.clone();
        std::thread::spawn(move || {
            let id = in_flight.id;
            let got = in_flight.wait().map(|reply| horizon_of(Ok(reply)));
            let _ = done.send((id, got));
        })
    }

    const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(10);

    fn next(done: &mpsc::Receiver<Waited>, who: &str) -> Waited {
        done.recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("{who} never returned: a hand-off was lost"))
    }

    /// Polls the link's slot state until `ready` holds.
    fn until(conn: &MuxConn, what: &str, ready: impl Fn(&SlotState) -> bool) {
        let deadline = Instant::now() + WATCHDOG;
        while !ready(&conn.shared.slots.lock().unwrap()) {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// The peer answers the leader first: the leader leaves with its
    /// reply, and the parked follower must take the lead and read its
    /// own.
    #[test]
    fn mux_parked_follower_takes_the_lead_when_the_leader_leaves() {
        let (addr, release, peer) = holding_peer(2);
        let (conn, _, _) = MuxConn::connect(addr, MAX_FRAME).unwrap();
        let first = conn.issue(&Frame::HorizonReq, None);
        let second = conn.issue(&Frame::HorizonReq, None);
        let ids = [first.id, second.id];
        conn.flush();
        let (done_tx, done) = mpsc::channel();
        let leader = wait_on_a_thread(first, &done_tx);
        until(&conn, "the first waiter holds the read half", |st| {
            st.reader.is_none()
        });
        let follower = wait_on_a_thread(second, &done_tx);
        until(&conn, "the second waiter parks", |st| st.parked == 1);

        // The peer writes the leader's reply, then the follower's, as two
        // frames: the leader reads one frame and leaves.
        release.send(()).unwrap();
        let mut got = [next(&done, "the leader"), next(&done, "the follower")];
        got.sort_by_key(|(id, _)| *id);
        for (id, horizon) in got {
            assert!(ids.contains(&id));
            assert_eq!(horizon, Ok(u64::from(id)), "reply paired with a stale id");
        }
        leader.join().unwrap();
        follower.join().unwrap();
        assert_eq!(waiting(&conn), 0);
        drop(conn);
        peer.join().unwrap();
    }

    /// The leader reads the follower's reply: the follower returns with
    /// it while the leader goes on reading for its own.
    #[test]
    fn mux_follower_returns_while_the_leader_reads_on() {
        let (addr, answer, peer) = scripted_peer(2);
        let (conn, _, _) = MuxConn::connect(addr, MAX_FRAME).unwrap();
        let first = conn.issue(&Frame::HorizonReq, None);
        let second = conn.issue(&Frame::HorizonReq, None);
        let (a, b) = (first.id, second.id);
        conn.flush();
        let (done_tx, done) = mpsc::channel();
        let leader = wait_on_a_thread(first, &done_tx);
        until(&conn, "the first waiter holds the read half", |st| {
            st.reader.is_none()
        });
        let follower = wait_on_a_thread(second, &done_tx);
        until(&conn, "the second waiter parks", |st| st.parked == 1);

        answer.send(b).unwrap();
        assert_eq!(next(&done, "the follower"), (b, Ok(u64::from(b))));
        follower.join().unwrap();
        assert!(
            done.try_recv().is_err(),
            "the leader returned without its reply"
        );
        assert!(
            conn.shared.slots.lock().unwrap().reader.is_none(),
            "the leader stopped reading"
        );

        answer.send(a).unwrap();
        assert_eq!(next(&done, "the leader"), (a, Ok(u64::from(a))));
        leader.join().unwrap();
        assert_eq!(waiting(&conn), 0);
        drop((conn, answer));
        peer.join().unwrap();
    }

    /// A link killed while no one reads it is noticed by the next wait,
    /// which fails with a peer-tagged transport error.
    #[test]
    fn mux_link_killed_while_no_one_reads_fails_the_next_wait() {
        let (addr, answer, peer) = scripted_peer(1);
        let (conn, _, _) = MuxConn::connect(addr, MAX_FRAME).unwrap();
        let in_flight = conn.issue(&Frame::HorizonReq, None);
        conn.flush();
        conn.kill();
        assert!(!conn.is_dead(), "no one has read or written the link yet");

        let (done_tx, done) = mpsc::channel();
        let waiter = wait_on_a_thread(in_flight, &done_tx);
        match next(&done, "the waiter") {
            (_, Err(WireError::Io { peer: Some(p), .. })) => assert_eq!(p, addr.to_string()),
            other => panic!("expected a peer-tagged transport error, got {other:?}"),
        }
        waiter.join().unwrap();
        assert!(conn.is_dead());
        assert_eq!(waiting(&conn), 0);
        drop((conn, answer));
        peer.join().unwrap();
    }

    /// A request too large to encode fails its flush. The flush shuts the
    /// socket down, so the leader blocked reading for an earlier reply
    /// fails too, with the same cause, instead of waiting forever on a
    /// healthy socket.
    #[test]
    fn mux_failed_flush_fails_the_leader_reading_for_an_earlier_request() {
        let (addr, answer, peer) = scripted_peer(1);
        let (conn, _, _) = MuxConn::connect(addr, MAX_FRAME).unwrap();
        let earlier = conn.issue(&Frame::HorizonReq, None);
        conn.flush();
        let (done_tx, done) = mpsc::channel();
        let leader = wait_on_a_thread(earlier, &done_tx);
        until(&conn, "the waiter holds the read half", |st| {
            st.reader.is_none()
        });

        let oversize = conn.issue(
            &Frame::SnapshotInstall {
                shard: 0,
                seq: 1,
                view: vec![0u8; telemetry::frame::MAX_FRAME as usize],
            },
            None,
        );
        conn.flush();
        let cause = oversize.wait().expect_err("an oversize request was sent");
        assert!(matches!(cause, WireError::Oversize(_)), "{cause:?}");
        let (_, led) = next(&done, "the leader");
        assert_eq!(led, Err(cause));
        leader.join().unwrap();
        assert_eq!(waiting(&conn), 0);
        drop((conn, answer));
        peer.join().unwrap();
    }
}
