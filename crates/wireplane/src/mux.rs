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
//!   completes whichever waiter the `req_id` names, so replies may
//!   arrive in any order;
//! * writers **combine**: a caller enqueues its request and then drains
//!   the whole pending queue under the writer lock. While one flush's
//!   `write` syscall is in flight, every other caller's request piles
//!   into the queue, and the next flush sends them all as *one*
//!   `Batch` frame — one frame per shard per scheduling turn emerges
//!   from contention itself, with no timers and no explicit wave
//!   barrier.
//!
//! Encoding reuses one scratch buffer per connection
//! ([`Frame::encode_into`]), so a steady-state sender allocates only
//! for payload bodies. Scrapes and query waves share the link: the
//! server's connection threads answer enveloped requests out of order
//! (leader/followers, see [`crate::server`]). Replication does not ride
//! here — a shard applies sequenced frames only when they arrive bare
//! (a [`ReplicaWriter`](crate::repl::ReplicaWriter)'s socket) and
//! refuses an enveloped one with a typed error.
//!
//! An exchange has two halves. [`MuxConn::issue`] registers the reply
//! slot, enqueues and flushes, and returns an [`InFlight`] handle with
//! the request already on the wire; [`InFlight::wait`] blocks for the
//! reply. A caller that issues on several connections before it waits on
//! any has all of those round trips in flight together —
//! [`MuxConn::call`] is simply the two halves back to back. The demux
//! reader stamps each reply with its **arrival** instant, so a caller
//! that collects late can still tell how long the exchange itself took.
//!
//! Failure model: any transport error **poisons** the connection — the
//! reader marks it dead with a peer-tagged [`WireError`] and wakes every
//! waiter; replies completed before death still deliver. An exchange
//! that is in flight when the connection dies fails at its `wait` with
//! the death cause (`issue` itself never fails: on an already-dead
//! connection nothing is sent and the `wait` reports why). The owner
//! ([`RemoteShard`](crate::frontend::RemoteShard)) drops the poisoned
//! connection and redials under its retry/failover policy. An
//! [`InFlight`] dropped un-waited releases its reply slot; a reply that
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

/// Reply slots + death flag shared with the demux reader thread.
struct Shared {
    peer: SocketAddr,
    slots: Mutex<SlotState>,
    cond: Condvar,
}

struct SlotState {
    /// `req_id` → reply slot. A request registers `None` before it is
    /// written; the reader fills it with the reply and the instant it
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
}

/// The write half: the stream plus the reused encode scratch buffer.
struct Writer {
    stream: TcpStream,
    scratch: Vec<u8>,
}

/// One multiplexed connection to a wireplane server.
pub struct MuxConn {
    shared: Arc<Shared>,
    writer: Mutex<Writer>,
    /// Requests enqueued but not yet flushed (with each caller's trace
    /// context). Drained wholesale under the writer lock — the
    /// combining step.
    pending: Mutex<VecDeque<(u32, Option<TraceContext>, Frame)>>,
    next_id: AtomicU32,
    /// Envelope frames actually written (one `Batch` counts once).
    frames_sent: AtomicU64,
    /// Envelope bytes actually written, length prefixes included.
    bytes_sent: AtomicU64,
    /// A clone of the socket kept aside so `kill`/`Drop` can force the
    /// reader thread out of its blocked `read`.
    sock: TcpStream,
    max_frame: u32,
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
        });
        let conn = Arc::new(MuxConn {
            shared: Arc::clone(&shared),
            writer: Mutex::new(Writer {
                stream,
                scratch: Vec::with_capacity(4096),
            }),
            pending: Mutex::new(VecDeque::new()),
            next_id: AtomicU32::new(0),
            frames_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            sock,
            max_frame,
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

    /// The peer this connection points at.
    pub fn peer(&self) -> SocketAddr {
        self.shared.peer
    }

    /// Envelope frames written so far (a whole `Batch` counts once).
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Envelope bytes written so far, length prefixes included.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// One request/reply exchange, concurrency-safe: any number of
    /// threads may call this at once and their exchanges interleave on
    /// the shared socket. Returns the enveloped reply as-is — a shard's
    /// [`Frame::Error`] answer comes back as `Ok(Frame::Error(..))` for
    /// the caller to map.
    pub fn call(&self, req: &Frame) -> Result<Frame, WireError> {
        self.call_ctx(req, None)
    }

    /// [`MuxConn::call`] with an explicit trace context: the envelope
    /// entry carries `ctx` to the server, so its serve-stage span joins
    /// the caller's trace.
    pub fn call_ctx(&self, req: &Frame, ctx: Option<TraceContext>) -> Result<Frame, WireError> {
        self.issue(req, ctx).wait().map(|(reply, _arrived)| reply)
    }

    /// The issue half of an exchange: registers the reply slot, enqueues
    /// the request and flushes. On return the request is on the wire (or
    /// the connection is dead, which the handle's [`InFlight::wait`]
    /// reports — a flush failure poisons the connection, so there is no
    /// separate error path here).
    pub fn issue(&self, req: &Frame, ctx: Option<TraceContext>) -> InFlight {
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
        self.pending
            .lock()
            .unwrap()
            .push_back((id, ctx, req.clone()));
        let _ = self.flush_pending();
        handle
    }

    /// Drains the pending queue into envelope frames under the writer
    /// lock. The thread that wins the lock sends *everything* queued so
    /// far — including requests enqueued by threads still blocked on the
    /// lock behind it — so concurrent callers combine into `Batch`
    /// frames without any explicit coordination.
    fn flush_pending(&self) -> Result<(), WireError> {
        let mut w = self.writer.lock().unwrap();
        loop {
            let batch: Vec<(u32, Option<TraceContext>, Frame)> = {
                let mut p = self.pending.lock().unwrap();
                if p.is_empty() {
                    return Ok(());
                }
                p.drain(..).collect()
            };
            let frame = if batch.len() == 1 {
                let (req_id, ctx, inner) = batch.into_iter().next().expect("len checked");
                Frame::Tagged {
                    req_id,
                    ctx,
                    inner: Box::new(inner),
                }
            } else {
                Frame::Batch(batch)
            };
            let Writer { stream, scratch } = &mut *w;
            let sent = frame
                .encode_into(scratch)
                .and_then(|()| {
                    stream.write_all(scratch)?;
                    stream.flush()?;
                    Ok(scratch.len() as u64)
                })
                .map_err(|e| e.with_peer(self.shared.peer));
            match sent {
                Ok(n) => {
                    self.frames_sent.fetch_add(1, Ordering::Relaxed);
                    self.bytes_sent.fetch_add(n, Ordering::Relaxed);
                }
                Err(e) => {
                    self.shared.poison(e.clone());
                    return Err(e);
                }
            }
        }
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
    pub fn kill(&self) {
        let _ = self.sock.shutdown(std::net::Shutdown::Both);
    }

    /// Largest frame this connection accepts.
    pub fn max_frame(&self) -> u32 {
        self.max_frame
    }
}

/// One request on the wire whose reply has not been collected yet — the
/// handle [`MuxConn::issue`] returns. Holds only the connection's shared
/// reply slots, not the connection: the owner keeps the [`MuxConn`]
/// alive for as long as it wants the reply.
pub struct InFlight {
    shared: Arc<Shared>,
    id: u32,
    collected: bool,
}

impl InFlight {
    /// The collect half: blocks until the reply has arrived and returns
    /// it with its arrival instant (stamped by the demux reader, so time
    /// the caller spent elsewhere before collecting is not in it), or
    /// fails with the connection's death cause.
    pub fn wait(mut self) -> Result<(Frame, Instant), WireError> {
        let mut st = self.shared.slots.lock().unwrap();
        self.collected = true;
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
        assert_eq!(waiting(&conn), N, "every issued request holds a slot");
        drop(handles);
        assert_eq!(waiting(&conn), 0, "a dropped handle must release its slot");

        // The N late replies precede this call's reply on the socket, so
        // by the time it returns the reader has seen — and dropped — them.
        release.send(()).unwrap();
        let next = conn.issue(&Frame::HorizonReq, None);
        let id = next.id;
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
}
