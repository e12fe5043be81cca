//! The owner side of the replication wire: one [`ReplicaWriter`] per
//! replica.
//!
//! The writer is deliberately thin — it moves [`Frame::DeltaAppend`] /
//! [`Frame::SnapshotInstall`] frames and surfaces the replica's typed
//! answers ([`WireError::SeqGap`] when the replica's log position does
//! not match, transport errors with peer context attached). It has no
//! link discipline of its own: it is a [`RemoteShard`] of one address,
//! so a replication frame travels as an envelope entry on the same
//! multiplexed, retried link the front-end's reads use, and the shard
//! serves it in arrival order like any other entry (see
//! [`crate::server`]). Deciding *what* to do about a refusal —
//! re-bootstrap, or give the replica up — is policy, and lives one
//! module over in [`crate::publish`].
//!
//! An append has two halves. `ReplicaWriter::issue` puts the frame on
//! the wire and returns the link's exchange; `ReplicaWriter::ack` waits
//! for the answer — so the publisher can put every replica's append on
//! the wire before it waits for the first. Any transport failure lands
//! in the exchange's one bounded reconnect-and-retry loop, under the
//! writer's [`RetryPolicy`].

use std::borrow::Cow;
use std::net::SocketAddr;
use std::time::Instant;

use queryplane::DeltaRecord;
use switchpointer::shard::ShardBackend as _;
use telemetry::frame::WireError;

use crate::frontend::{Exchange, RemoteShard};
use crate::proto::Frame;
use crate::retry::RetryPolicy;

/// One replica's replication link: greeting verification, sequenced
/// appends, snapshot bootstrap, and a status probe. Reconnects under the
/// given [`RetryPolicy`] on transport failure. Its exchanges are
/// unobserved: they count no RPC and record no RTT or wire span.
pub struct ReplicaWriter {
    shard: usize,
    addr: SocketAddr,
    link: RemoteShard,
}

impl ReplicaWriter {
    /// Dials `addr` and verifies the greeting names shard `shard`.
    pub fn connect(
        shard: usize,
        addr: SocketAddr,
        max_frame: u32,
        retry: RetryPolicy,
    ) -> Result<Self, WireError> {
        let link =
            RemoteShard::connect_replicated(shard, vec![addr], max_frame, retry, None, None)?;
        Ok(ReplicaWriter { shard, addr, link })
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

    /// The issue half of [`ReplicaWriter::append_frame`]: writes
    /// `append` and returns without waiting for the answer. A dial or
    /// write that fails here is not an error yet: the exchange's retry
    /// loop deals with it in [`ReplicaWriter::ack`].
    pub(crate) fn issue<'a>(&'a self, append: &'a Frame) -> Exchange<'a> {
        let exchange = self.link.issue(Cow::Borrowed(append), false);
        self.link.flush();
        exchange
    }

    /// The collect half: waits for the answer to an issued append.
    pub(crate) fn ack(&self, exchange: Exchange<'_>) -> Result<u64, WireError> {
        self.expect_ack(exchange.wait()?)
    }

    /// [`ReplicaWriter::append`] of a [`Frame::DeltaAppend`] the caller
    /// built: the publisher cuts one frame per `(shard, seq)` — record
    /// moved in, trace context attached so the replica's apply-stage
    /// span joins the owner's trace — and every replica of the shard is
    /// sent it by reference.
    pub(crate) fn append_frame(&self, append: &Frame) -> Result<u64, WireError> {
        self.ack(self.issue(append))
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
        let install = Frame::SnapshotInstall {
            shard: self.shard as u16,
            seq,
            view,
        };
        let reply = self.link.call(install, false)?;
        Ok((self.expect_ack(reply)?, started.elapsed()))
    }

    /// The replica's applied seq.
    pub fn status(&self) -> Result<u64, WireError> {
        match self.link.call(Frame::ReplicaStatusReq, false)? {
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
