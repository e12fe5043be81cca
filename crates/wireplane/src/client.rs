//! The blocking client library.
//!
//! A [`WireClient`] holds one connection to the front-end and speaks the
//! client half of the protocol: [`WireClient::query`] for one-shot
//! requests, [`WireClient::subscribe`] + [`WireClient::next_event`] for
//! the standing-query stream. Pushed frames ([`Frame::IncidentPush`],
//! [`Frame::WindowPush`]) may arrive interleaved with a query's reply —
//! the client buffers them, so a blocking `query()` concurrent with a
//! closing window never loses a streamed incident.
//!
//! Reconnection is the *caller's* move (drop the client, connect a new
//! one) because resumption needs the caller's consumed-incident cursor:
//! pass the number of incidents already seen as `resume_after` and the
//! front-end replays exactly the rest — the re-derived log is
//! bit-identical, with zero duplicates and zero drops.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};

use obsplane::RegistrySnapshot;
use streamplane::{Incident, StandingQuery, SubscriptionId};
use switchpointer::query::{QueryRequest, QueryResponse};
use telemetry::frame::WireError;

use crate::proto::{Frame, WindowSummary, WireSpan, FRONT_ROLE};

/// A streamed frame delivered to a subscribed client.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// One incident, with its per-topic sequence number (the resume
    /// cursor).
    Incident { seq: u64, incident: Incident },
    /// A closed window's digest.
    Window(WindowSummary),
}

/// A blocking client connection to the front-end.
pub struct WireClient {
    stream: TcpStream,
    max_frame: u32,
    pending: VecDeque<WireEvent>,
    /// Reused encode scratch: one allocation serves every send.
    send_buf: Vec<u8>,
}

impl WireClient {
    /// Dials the front-end and verifies its greeting. Transport failures
    /// carry the dialed address, so an error that bubbles through retry
    /// rotation still names the peer that refused.
    pub fn connect(addr: SocketAddr, max_frame: u32) -> Result<Self, WireError> {
        let (stream, role, _n_shards) = crate::dial(addr, max_frame)?;
        if role != FRONT_ROLE {
            return Err(WireError::Remote(format!(
                "dialed the front-end but shard {role} answered at {addr}"
            )));
        }
        Ok(WireClient {
            stream,
            max_frame,
            pending: VecDeque::new(),
            send_buf: Vec::new(),
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        frame.encode_into(&mut self.send_buf)?;
        self.stream.write_all(&self.send_buf)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Reads frames until `want` extracts a reply, buffering any pushed
    /// stream frames that arrive in between.
    fn await_reply<T>(
        &mut self,
        mut want: impl FnMut(Frame) -> Result<Option<T>, WireError>,
    ) -> Result<T, WireError> {
        loop {
            let frame = Frame::read(&mut self.stream, self.max_frame)?;
            match frame {
                Frame::IncidentPush { seq, incident } => {
                    self.pending
                        .push_back(WireEvent::Incident { seq, incident });
                }
                Frame::WindowPush(s) => self.pending.push_back(WireEvent::Window(s)),
                Frame::Error(e) => return Err(e),
                other => {
                    if let Some(v) = want(other)? {
                        return Ok(v);
                    }
                }
            }
        }
    }

    /// Executes one query and blocks for its (bit-identical) response.
    pub fn query(&mut self, req: &QueryRequest) -> Result<QueryResponse, WireError> {
        self.send(&Frame::QueryReq(*req))?;
        self.await_reply(|f| match f {
            Frame::QueryRep(resp) => Ok(Some(resp)),
            other => Err(WireError::Remote(format!(
                "expected a query reply, got frame {:#04x}",
                other.tag()
            ))),
        })
    }

    /// Pulls the live cluster's labelled registry snapshots: `("front",
    /// ..)` then one `("shard{i}", ..)` per shard, each exactly the
    /// owning process's registry at scrape time (the scrape itself is
    /// never recorded anywhere). Merge them with
    /// [`RegistrySnapshot::merge`] for cluster-wide histograms.
    pub fn scrape_stats(&mut self) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
        self.send(&Frame::StatsScrapeReq)?;
        self.await_reply(|f| match f {
            Frame::StatsScrapeRep(v) => Ok(Some(v)),
            other => Err(WireError::Remote(format!(
                "expected a stats scrape reply, got frame {:#04x}",
                other.tag()
            ))),
        })
    }

    /// Pulls the live cluster's retained spans: `("front", ..)` then one
    /// `("shard{i}", ..)` per shard, each the owning process's ring plus
    /// its slow-query exemplars at scrape time. Side-effect-free like
    /// [`WireClient::scrape_stats`] — scraping traces never makes
    /// traces. Feed the result to [`crate::traces::assemble`] to rebuild
    /// cross-process span trees by trace id.
    pub fn scrape_traces(&mut self) -> Result<Vec<(String, Vec<WireSpan>)>, WireError> {
        self.send(&Frame::TraceScrapeReq)?;
        self.await_reply(|f| match f {
            Frame::TraceScrapeRep(v) => Ok(Some(v)),
            other => Err(WireError::Remote(format!(
                "expected a trace scrape reply, got frame {:#04x}",
                other.tag()
            ))),
        })
    }

    /// Subscribes to a standing query. `resume_after` is the number of
    /// this topic's incidents the caller already consumed (0 for a fresh
    /// subscription); the front-end replays the rest immediately.
    /// Returns the subscription id and the incidents available at
    /// subscribe time.
    pub fn subscribe(
        &mut self,
        query: StandingQuery,
        resume_after: u64,
    ) -> Result<(SubscriptionId, u64), WireError> {
        self.send(&Frame::SubscribeReq {
            query,
            resume_after,
        })?;
        self.await_reply(|f| match f {
            Frame::SubscribeRep { sub, available } => Ok(Some((sub, available))),
            other => Err(WireError::Remote(format!(
                "expected a subscribe ack, got frame {:#04x}",
                other.tag()
            ))),
        })
    }

    /// Blocks for the next streamed event (buffered pushes first).
    pub fn next_event(&mut self) -> Result<WireEvent, WireError> {
        if let Some(ev) = self.pending.pop_front() {
            return Ok(ev);
        }
        match Frame::read(&mut self.stream, self.max_frame)? {
            Frame::IncidentPush { seq, incident } => Ok(WireEvent::Incident { seq, incident }),
            Frame::WindowPush(s) => Ok(WireEvent::Window(s)),
            Frame::Error(e) => Err(e),
            other => Err(WireError::Remote(format!(
                "unexpected frame {:#04x} on the stream",
                other.tag()
            ))),
        }
    }

    /// Blocks until the next *incident* (skipping window digests).
    pub fn next_incident(&mut self) -> Result<(u64, Incident), WireError> {
        loop {
            if let WireEvent::Incident { seq, incident } = self.next_event()? {
                return Ok((seq, incident));
            }
        }
    }

    /// Drains events until a window digest arrives, returning the
    /// incidents seen on the way and the digest. The natural "consume
    /// one closed window" client loop.
    pub fn drain_window(&mut self) -> Result<(Vec<(u64, Incident)>, WindowSummary), WireError> {
        let mut incidents = Vec::new();
        loop {
            match self.next_event()? {
                WireEvent::Incident { seq, incident } => incidents.push((seq, incident)),
                WireEvent::Window(s) => return Ok((incidents, s)),
            }
        }
    }
}
