//! The owner side of the replication wire: one [`ReplicaWriter`] per
//! replica connection.
//!
//! The writer is deliberately thin — it moves [`Frame::DeltaAppend`] /
//! [`Frame::SnapshotInstall`] frames and surfaces the replica's typed
//! answers ([`WireError::SeqGap`] when the replica's log position does
//! not match, transport errors with peer context attached). The frames
//! travel bare, never in an envelope: that is what makes the shard apply
//! them in arrival order (see [`crate::server`]). Deciding
//! *what* to do about a refusal — re-bootstrap, or give the replica up —
//! is policy, and lives one module over in [`crate::publish`].
//!
//! An append has two halves. `ReplicaWriter::issue` writes the frame
//! and returns; `ReplicaWriter::append_frame` of the same frame then
//! only reads the ack — so the publisher can put every replica's append
//! on the wire before it waits for the first. At most one frame is ever
//! in flight per writer, so a reply always belongs to the request before
//! it. Any transport failure in either half lands in the one bounded
//! reconnect-and-retry loop the unsplit exchange always ran.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Instant;

use queryplane::DeltaRecord;
use telemetry::frame::WireError;

use crate::proto::Frame;
use crate::retry::RetryPolicy;

/// One replica's replication connection: dial + greeting verification,
/// sequenced appends, snapshot bootstrap, and a status probe. Reconnects
/// under the given [`RetryPolicy`] on transport failure.
pub struct ReplicaWriter {
    shard: usize,
    addr: SocketAddr,
    link: Mutex<Link>,
    max_frame: u32,
    retry: RetryPolicy,
}

/// The writer's socket and what is on it.
struct Link {
    stream: Option<TcpStream>,
    /// [`ReplicaWriter::issue`] wrote a frame whose reply has not been
    /// read: the next exchange starts at the read. Only ever set while
    /// `stream` is connected.
    issued: bool,
}

impl ReplicaWriter {
    /// Dials `addr` and verifies the greeting names shard `shard`.
    pub fn connect(
        shard: usize,
        addr: SocketAddr,
        max_frame: u32,
        retry: RetryPolicy,
    ) -> Result<Self, WireError> {
        let w = ReplicaWriter {
            shard,
            addr,
            link: Mutex::new(Link {
                stream: None,
                issued: false,
            }),
            max_frame,
            retry,
        };
        let stream = w.dial()?;
        w.link.lock().unwrap().stream = Some(stream);
        Ok(w)
    }

    fn dial(&self) -> Result<TcpStream, WireError> {
        let (stream, shard, _n_shards) = crate::dial(self.addr, self.max_frame)?;
        if shard as usize != self.shard {
            return Err(WireError::Remote(format!(
                "dialed replica of shard {} but shard {} answered at {}",
                self.shard, shard, self.addr
            )));
        }
        Ok(stream)
    }

    /// One request/reply exchange with bounded reconnect-and-retry on
    /// transport failure. Typed remote errors (a [`WireError::SeqGap`]
    /// refusal in particular) return immediately — they are protocol
    /// answers, not transport faults. If `req` was already written by
    /// [`ReplicaWriter::issue`], the first attempt is the read alone; a
    /// retry reconnects and sends it again like any other.
    fn exchange(&self, req: &Frame) -> Result<Frame, WireError> {
        let mut link = self.link.lock().unwrap();
        let mut written = std::mem::take(&mut link.issued);
        let mut last_err = WireError::Remote("no attempt made".to_string());
        for attempt in 0..self.retry.attempts() as u32 {
            if attempt > 0 {
                std::thread::sleep(self.retry.backoff(attempt - 1));
            }
            if link.stream.is_none() {
                match self.dial() {
                    Ok(s) => link.stream = Some(s),
                    Err(e) => {
                        last_err = e;
                        continue;
                    }
                }
            }
            let stream = link.stream.as_mut().expect("connection just ensured");
            let res = (|| -> Result<Frame, WireError> {
                if !std::mem::take(&mut written) {
                    req.write(stream)?;
                    stream.flush()?;
                }
                Frame::read(stream, self.max_frame)
            })();
            match res {
                Ok(Frame::Error(e)) => return Err(e),
                Ok(reply) => return Ok(reply),
                Err(e @ WireError::Io { .. }) => {
                    link.stream = None;
                    last_err = e.with_peer(self.addr);
                }
                Err(e) => {
                    link.stream = None;
                    return Err(e.with_peer(self.addr));
                }
            }
        }
        Err(last_err)
    }

    fn expect_ack(&self, reply: Frame) -> Result<u64, WireError> {
        match reply {
            Frame::DeltaAck { shard, applied } if shard as usize == self.shard => Ok(applied),
            other => Err(WireError::Remote(format!(
                "expected DeltaAck from {}, got frame {:#04x}",
                self.addr,
                other.tag()
            ))),
        }
    }

    /// Appends one sequenced record. `Ok(applied)` on success;
    /// `Err(SeqGap { expected, .. })` when the replica's log position is
    /// elsewhere.
    pub fn append(&self, seq: u64, record: &DeltaRecord) -> Result<u64, WireError> {
        self.append_frame(&Frame::DeltaAppend {
            shard: self.shard as u16,
            seq,
            record: record.clone(),
            ctx: None,
        })
    }

    /// The write half of [`ReplicaWriter::append_frame`]: puts `append`
    /// on the wire and returns without waiting for the ack, so the caller
    /// can issue to every other replica first. The next call on this
    /// writer must be `append_frame` of the same frame — it reads the
    /// ack. `true` if the frame was written; a transport failure (or a
    /// connection already down) is not an error here — nothing is in
    /// flight then, and `append_frame` runs the whole exchange under the
    /// retry policy.
    pub(crate) fn issue(&self, append: &Frame) -> bool {
        let mut guard = self.link.lock().unwrap();
        let link = &mut *guard;
        debug_assert!(!link.issued, "one frame in flight per writer");
        let Some(stream) = link.stream.as_mut() else {
            return false;
        };
        link.issued = append.write(stream).is_ok() && stream.flush().is_ok();
        if !link.issued {
            link.stream = None;
        }
        link.issued
    }

    /// [`ReplicaWriter::append`] of a [`Frame::DeltaAppend`] the caller
    /// built: the publisher cuts one frame per `(shard, seq)` — record
    /// moved in, trace context attached so the replica's apply-stage
    /// span joins the owner's trace — and every replica of the shard is
    /// sent it by reference, so no replica costs a copy of the record.
    pub(crate) fn append_frame(&self, append: &Frame) -> Result<u64, WireError> {
        let reply = self.exchange(append)?;
        self.expect_ack(reply)
    }

    /// Installs a full encoded snapshot slice at `seq` — the bootstrap
    /// path for a fresh or fallen-behind replica. Returns the install
    /// wall-clock alongside the acked seq (the publisher's bootstrap
    /// histogram feeds from it).
    pub fn install(
        &self,
        seq: u64,
        view: Vec<u8>,
    ) -> Result<(u64, std::time::Duration), WireError> {
        let started = Instant::now();
        let reply = self.exchange(&Frame::SnapshotInstall {
            shard: self.shard as u16,
            seq,
            view,
        })?;
        Ok((self.expect_ack(reply)?, started.elapsed()))
    }

    /// The replica's applied seq.
    pub fn status(&self) -> Result<u64, WireError> {
        match self.exchange(&Frame::ReplicaStatusReq)? {
            Frame::ReplicaStatusRep { shard, applied } if shard as usize == self.shard => {
                Ok(applied)
            }
            other => Err(WireError::Remote(format!(
                "expected ReplicaStatusRep from {}, got frame {:#04x}",
                self.addr,
                other.tag()
            ))),
        }
    }
}
