//! The wireplane protocol: every message the shard servers, the
//! front-end and remote clients exchange, as length-prefix-framed binary
//! over [`telemetry::frame`].
//!
//! This module is the [`Frame`] table and the grammar around it — tags,
//! the multiplexing envelopes, the trace-context extension and the packed
//! id / run-length / var-int forms. What travels *inside* a frame is a
//! [`Wire`] value: the trait and its container impls live in
//! [`telemetry::frame`], and every type is encoded by the one impl in the
//! crate that owns it (`FlowRecord`, the query and diagnosis types in
//! `switchpointer`; `DeltaRecord` in `queryplane`; `StandingQuery`,
//! `Incident` in `streamplane`). The impls here are for the types this
//! crate defines ([`WindowSummary`], [`WireSpan`]).
//!
//! Design rules:
//!
//! * **One payload form per frame.** Scalars are fixed-width
//!   little-endian with no padding; the wave requests' host lists and the
//!   union-slice bitset — the collections that dominate a fan-out's
//!   bytes — are var-int / delta / run-length packed.
//!   A frame encodes the same bytes bare and inside an envelope, and
//!   encode→decode is the identity for every frame type (property-pinned,
//!   with golden bytes for the packed layouts, in
//!   `tests/wireplane_props.rs`), so a verdict that crosses the wire is
//!   bit-identical to one that never left the process.
//! * **One codec per type.** A frame's payload is the concatenation of
//!   its fields' [`Wire`] encodings; no type has a second spelling for a
//!   second frame, so a query reply and a replication record carry the
//!   same `FlowRecord` bytes.
//! * **Decoding never panics.** Truncated or corrupt input surfaces as a
//!   typed [`WireError`]; collection lengths are bounded by the bytes
//!   actually present, and reservations by what those bytes could hold
//!   ([`Dec::reservation`] — the packed id list and the envelopes' entry
//!   vectors too), before any allocation.
//! * **One tag byte per frame type.** Requests and replies pair up
//!   (`0x1x` shard requests, `0x2x` shard replies, `0x3x` client-plane
//!   frames); [`Frame::Error`] carries a [`WireError`] to the peer. A
//!   retired tag is never reused: `0x15` / `0x25`, the store-length wave
//!   that the filter wave's sizes made redundant, decode as
//!   [`WireError::BadTag`].
//!
//! The RPC table (see `DESIGN.md` §13) — "carries" names the [`Wire`]
//! values in the payload; their layouts are beside their types:
//!
//! | frame | direction | carries |
//! |---|---|---|
//! | `UnionSliceReq/Rep` | front → shard | masked pointer-union slice |
//! | `UnionTopKReq/Rep`, `UnionSizesReq/Rep` | front → shard | a whole aggregate read: the shard's union slice decoded, and the top-k / link-sizes row of each host it decoded |
//! | `ProbeExactReq/Rep` | front → shard | exact-epoch presence probe |
//! | `PresenceWaveReq/Rep` | front → shard | exact presence over an epoch range, one flag per switch |
//! | `StoreLenReq/Rep`, `RecordReq/Rep`, `TriggerReq/Rep` | front → shard | host point reads |
//! | `FilterWaveReq/Rep`, `TopKWaveReq/Rep`, `SizesWaveReq/Rep` | front → shard | one coalesced wave per shard; every reply row carries the host's store size |
//! | `HorizonReq/Rep` | front → shard | snapshot epoch horizon |
//! | `StatsScrapeReq/Rep` | client → front → shard | labelled obsplane registry snapshots |
//! | `TraceScrapeReq/Rep` | client → front → shard | labelled span dumps for trace reassembly |
//! | `Hello` | server → peer | greeting: role + shard id |
//! | `QueryReq/Rep` | client → front | one-shot query / full response |
//! | `SubscribeReq/Rep` | client → front | standing query + resume point |
//! | `IncidentPush`, `WindowPush` | front → client | streamed frames on window close |
//! | `DeltaAppend` / `DeltaAck` | owner → replica | one sequenced replication-log record |
//! | `SnapshotInstall` | owner → replica | full-state bootstrap at a seq |
//! | `ReplicaStatusReq/Rep` | any → replica | applied-seq probe |
//! | `Error` | any | typed failure |
//!
//! On a shard socket the read and scrape requests (`0x1x`) travel only
//! inside [`Frame::Tagged`]/[`Frame::Batch`] envelopes and the
//! replication frames only bare; [`crate::server`] refuses either shape
//! carrying the other's content. The client plane is bare throughout.

use std::collections::BTreeMap;
use std::io::{Read, Write};

use netsim::packet::{FlowId, NodeId};
use obsplane::{HistogramSnapshot, RegistrySnapshot, SpanEvent, TraceContext};
use queryplane::DeltaRecord;
use streamplane::{Incident, StandingQuery, SubscriptionId};
use switchpointer::bitset::BitSet;
use switchpointer::host::TriggerEvent;
use switchpointer::hoststore::FlowRecord;
use switchpointer::query::{QueryRequest, QueryResponse};
use telemetry::frame::{read_frame, write_frame, Dec, Enc, Wire, WireError, MAX_FRAME};
use telemetry::EpochRange;

/// Compact digest of one closed window — what the front-end pushes to
/// every subscribed client alongside the incident frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSummary {
    /// Window index (0-based, monotone).
    pub window: u64,
    /// Snapshot epoch horizon the window evaluated at.
    pub horizon: u64,
    /// Standing queries evaluated (pending included).
    pub evaluated: u64,
    /// Subscriptions still pending (no trigger yet).
    pub pending: u64,
    /// Incidents appended this window across all topics.
    pub incidents: u64,
}

impl Wire for WindowSummary {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.window);
        e.put_u64(self.horizon);
        e.put_u64(self.evaluated);
        e.put_u64(self.pending);
        e.put_u64(self.incidents);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(WindowSummary {
            window: d.get_u64()?,
            horizon: d.get_u64()?,
            evaluated: d.get_u64()?,
            pending: d.get_u64()?,
            incidents: d.get_u64()?,
        })
    }
}

// Obsplane snapshots cross the wire so `WireClient::scrape_stats` can
// pull a live cluster's histograms. `obsplane` stays dependency-free, so
// it cannot see `Wire`; the body of the one frame that carries its two
// snapshot types is encoded here, from the shared impls of their fields.

/// Body of a [`Frame::StatsScrapeRep`]: `count | (label, counters,
/// gauges, hists)…`, a histogram as `grid_bits | counts | count | sum |
/// max`.
fn enc_stats(v: &[(String, RegistrySnapshot)], e: &mut Enc) {
    e.put_usize(v.len());
    for (label, reg) in v {
        label.enc(e);
        reg.counters.enc(e);
        reg.gauges.enc(e);
        e.put_usize(reg.hists.len());
        for (name, h) in &reg.hists {
            name.enc(e);
            e.put_u32(h.grid_bits);
            h.counts.enc(e);
            e.put_u64(h.count);
            e.put_u64(h.sum);
            e.put_u64(h.max);
        }
    }
}

fn dec_stats(d: &mut Dec) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
    let n = d.get_len()?;
    let mut out = Vec::with_capacity(d.reservation::<(String, RegistrySnapshot)>(n));
    for _ in 0..n {
        let label = String::dec(d)?;
        let counters = BTreeMap::dec(d)?;
        let gauges = BTreeMap::dec(d)?;
        let mut hists = BTreeMap::new();
        for _ in 0..d.get_len()? {
            let name = String::dec(d)?;
            let h = HistogramSnapshot {
                grid_bits: d.get_u32()?,
                counts: Vec::dec(d)?,
                count: d.get_u64()?,
                sum: d.get_u64()?,
                max: d.get_u64()?,
            };
            hists.insert(name, h);
        }
        out.push((
            label,
            RegistrySnapshot {
                counters,
                gauges,
                hists,
            },
        ));
    }
    Ok(out)
}

/// One span as it travels in a [`Frame::TraceScrapeRep`]: an owned
/// [`SpanEvent`] plus whether the origin process had pinned it as a
/// slow-query exemplar. `start_ns` offsets are per-process clocks —
/// only durations are comparable across processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    pub class: String,
    pub stage: String,
    pub epoch: u64,
    pub shard: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub steals: u32,
    pub exemplar: bool,
}

impl WireSpan {
    /// Lifts a tracer event into its owned wire form.
    pub(crate) fn from_event(ev: &SpanEvent, exemplar: bool) -> WireSpan {
        WireSpan {
            class: ev.class.to_string(),
            stage: ev.stage.to_string(),
            epoch: ev.epoch,
            shard: ev.shard,
            start_ns: ev.start_ns,
            dur_ns: ev.dur_ns,
            trace_id: ev.trace_id,
            span_id: ev.span_id,
            parent_id: ev.parent_id,
            steals: ev.steals,
            exemplar,
        }
    }
}

impl Wire for WireSpan {
    fn enc(&self, e: &mut Enc) {
        e.put_str(&self.class);
        e.put_str(&self.stage);
        e.put_u64(self.epoch);
        e.put_u32(self.shard);
        e.put_u64(self.start_ns);
        e.put_u64(self.dur_ns);
        e.put_u64(self.trace_id);
        e.put_u64(self.span_id);
        e.put_u64(self.parent_id);
        e.put_u32(self.steals);
        e.put_bool(self.exemplar);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(WireSpan {
            class: d.get_string()?,
            stage: d.get_string()?,
            epoch: d.get_u64()?,
            shard: d.get_u32()?,
            start_ns: d.get_u64()?,
            dur_ns: d.get_u64()?,
            trace_id: d.get_u64()?,
            span_id: d.get_u64()?,
            parent_id: d.get_u64()?,
            steals: d.get_u32()?,
            exemplar: d.get_bool()?,
        })
    }
}

// ----------------------------------------------------------------------
// Trace-context envelope extension
// ----------------------------------------------------------------------
//
// Envelope entries may carry a compact [`TraceContext`] between the
// correlation id and the inner tag, introduced by a marker byte that is
// never a valid frame tag, so a context-free envelope pays no byte for
// the extension (both layouts are pinned byte for byte in
// `tests/wireplane_props.rs`).

/// Marker byte announcing an embedded trace context. `0xFF` is not a
/// frame tag and never will be, so the byte after a correlation id is
/// unambiguous.
const TRACE_CTX_MARKER: u8 = 0xFF;

/// Appends the optional context: nothing, or `0xFF | trace | span | flags`.
fn enc_ctx(ctx: &Option<TraceContext>, e: &mut Enc) {
    if let Some(c) = ctx {
        e.put_u8(TRACE_CTX_MARKER);
        e.put_u64(c.trace_id);
        e.put_u64(c.span_id);
        e.put_u8(u8::from(c.sampled));
    }
}

/// Decodes the 17-byte context body following a [`TRACE_CTX_MARKER`].
fn dec_ctx_body(d: &mut Dec) -> Result<TraceContext, WireError> {
    let trace_id = d.get_u64()?;
    let span_id = d.get_u64()?;
    let flags = d.get_u8()?;
    if flags & !1 != 0 {
        return Err(WireError::BadTag(flags));
    }
    Ok(TraceContext {
        trace_id,
        span_id,
        sampled: flags & 1 != 0,
    })
}

/// Reads an inner-frame tag position that may instead open with a
/// trace context: returns the context (if present) and the real tag.
fn dec_ctx_then_tag(d: &mut Dec) -> Result<(Option<TraceContext>, u8), WireError> {
    let first = d.get_u8()?;
    if first == TRACE_CTX_MARKER {
        let ctx = dec_ctx_body(d)?;
        Ok((Some(ctx), d.get_u8()?))
    } else {
        Ok((None, first))
    }
}

// ----------------------------------------------------------------------
// Packed collection helpers
// ----------------------------------------------------------------------
//
// The collections that dominate a fan-out's bytes — the wave requests'
// host-id lists and the union-slice bitset — travel var-int packed:
// delta-coded ids and run-length bitsets. Each is the frame's only
// payload form, bare or enveloped.

/// Delta-packed id list: `count | first | zigzag deltas`. A sorted host
/// list costs ~1 byte per id instead of 4.
fn enc_ids_delta(ids: &[NodeId], e: &mut Enc) {
    e.put_varint(ids.len() as u64);
    let mut prev = 0i64;
    for id in ids {
        let v = i64::from(id.0);
        e.put_zigzag(v - prev);
        prev = v;
    }
}

fn dec_ids_delta(d: &mut Dec) -> Result<Vec<NodeId>, WireError> {
    let n = d.get_varint()? as usize;
    // Each delta costs ≥ 1 byte, so a count beyond the bytes left is
    // corrupt; the reservation is what those bytes could hold.
    if n > d.remaining() {
        return Err(WireError::Truncated {
            needed: n,
            have: d.remaining(),
        });
    }
    let mut out = Vec::with_capacity(d.reservation::<NodeId>(n));
    let mut prev = 0i64;
    for _ in 0..n {
        // Checked: a hostile delta sequence that overflows i64 must be a
        // typed error in every build profile, not a debug-only panic.
        prev = prev
            .checked_add(d.get_zigzag()?)
            .ok_or(WireError::Oversize(u32::MAX))?;
        let id = u32::try_from(prev).map_err(|_| WireError::Oversize(u32::MAX))?;
        out.push(NodeId(id));
    }
    Ok(out)
}

/// Cumulative allocation budget, in bytes of decoded bitset backing
/// words, shared by every bitset of one frame — a bare `UnionSliceRep`
/// or all the entries of an envelope. A run-length bitset legitimately
/// compresses far below its word array, so capacity cannot be bounded by
/// the bytes encoding *it* — but it can be bounded by what one maximal
/// frame could carry as a plain word array: [`MAX_FRAME`] bytes.
/// Charging every bitset in a frame against one shared budget means a
/// hostile `Batch` of many huge run-length bitsets allocates no more in
/// total than that, instead of 64 MB *per ~10-byte entry*.
const BITSET_BUDGET: usize = MAX_FRAME as usize;

/// Run-length bitset: `capacity | runs…`, alternating zero/one runs
/// starting with a zero run. Pointer-union slices are sparse and
/// clustered, so runs beat the word array by a wide margin.
fn enc_bitset_runs(b: &BitSet, e: &mut Enc) {
    e.put_varint(b.capacity() as u64);
    let mut cur = false;
    let mut run = 0u64;
    for i in 0..b.capacity() {
        if b.test(i) == cur {
            run += 1;
        } else {
            e.put_varint(run);
            cur = !cur;
            run = 1;
        }
    }
    if b.capacity() > 0 {
        e.put_varint(run);
    }
}

fn dec_bitset_runs(d: &mut Dec, budget: &mut usize) -> Result<BitSet, WireError> {
    let nbits = d.get_varint()? as usize;
    // Charge the decoded word-array size against the frame's shared
    // [`BITSET_BUDGET`] before allocating: every bitset in the same
    // frame draws down the same budget, so hostile repetition inside a
    // `Batch` cannot multiply the allocation.
    let word_bytes = nbits.div_ceil(64).saturating_mul(8);
    if word_bytes > *budget {
        return Err(WireError::Oversize(u32::MAX));
    }
    *budget -= word_bytes;
    let mut words = vec![0u64; nbits.div_ceil(64)];
    let mut at = 0usize;
    let mut ones = false;
    while at < nbits {
        let run = d.get_varint()? as usize;
        let end = at.checked_add(run).ok_or(WireError::Oversize(u32::MAX))?;
        if end > nbits {
            return Err(WireError::TrailingBytes(end - nbits));
        }
        if ones {
            for i in at..end {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        at = end;
        ones = !ones;
    }
    Ok(BitSet::from_word_vec(nbits, words))
}

// ----------------------------------------------------------------------
// Frames
// ----------------------------------------------------------------------

/// Wire body of a filter-wave reply: per host, store size and matching
/// records (`usize` travels as `u64`).
pub(crate) type FilterWaveBody = Vec<(Option<u64>, Vec<FlowRecord>)>;
/// Wire body of a top-k wave reply.
pub(crate) type TopKWaveBody = Vec<(Option<u64>, Vec<(FlowId, u64)>)>;
/// Wire body of a link-sizes wave reply.
pub(crate) type SizesWaveBody = Vec<(Option<u64>, Vec<(u16, u64)>)>;
/// Wire body of a fused aggregate reply: `None` when the switch has no
/// component, else per decoded host (ascending) its id, store size and
/// rows.
pub(crate) type UnionWaveBody<R> = Option<Vec<(NodeId, Option<u64>, Vec<R>)>>;
/// Wire body of a fused top-k reply.
pub(crate) type UnionTopKBody = UnionWaveBody<(FlowId, u64)>;
/// Wire body of a fused link-sizes reply.
pub(crate) type UnionSizesBody = UnionWaveBody<(u16, u64)>;

/// Every message of the wireplane protocol.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Server greeting on accept: which role/shard answered.
    Hello {
        /// Serving shard id, or `u16::MAX` for the front-end.
        shard: u16,
        /// Directory shard count of the deployment.
        n_shards: u16,
    },

    // Shard RPCs (front-end → shard server).
    UnionSliceReq {
        switch: NodeId,
        range: EpochRange,
    },
    UnionSliceRep(Option<BitSet>),
    ProbeExactReq {
        switch: NodeId,
        addr: u64,
        epoch: u64,
    },
    ProbeExactRep(Option<Option<bool>>),
    /// A whole silent-drop sweep in one request: was `addr` seen at exact
    /// resolution in any epoch of `range`, at each of `switches`? Served
    /// in O(switches × α) whatever the range length.
    PresenceWaveReq {
        switches: Vec<NodeId>,
        addr: u64,
        range: EpochRange,
    },
    /// One flag per requested switch, in request order (`false` for a
    /// switch the shard holds no pointers for).
    PresenceWaveRep(Vec<bool>),
    StoreLenReq {
        host: NodeId,
    },
    StoreLenRep(Option<u64>),
    RecordReq {
        host: NodeId,
        flow: FlowId,
    },
    RecordRep(Option<FlowRecord>),
    TriggerReq {
        host: NodeId,
        flow: FlowId,
    },
    TriggerRep(Option<TriggerEvent>),
    FilterWaveReq {
        switch: NodeId,
        range: EpochRange,
        hosts: Vec<NodeId>,
    },
    FilterWaveRep(FilterWaveBody),
    TopKWaveReq {
        switch: NodeId,
        k: u64,
        hosts: Vec<NodeId>,
    },
    TopKWaveRep(TopKWaveBody),
    SizesWaveReq {
        switch: NodeId,
        hosts: Vec<NodeId>,
    },
    SizesWaveRep(SizesWaveBody),
    /// A whole top-k read in one request: the shard decodes its slice of
    /// `switch`'s pointer union over `range` and answers the top-k wave
    /// for the hosts it decoded.
    UnionTopKReq {
        switch: NodeId,
        range: EpochRange,
        k: u64,
    },
    UnionTopKRep(UnionTopKBody),
    /// A whole link-sizes read in one request, as [`Frame::UnionTopKReq`].
    UnionSizesReq {
        switch: NodeId,
        range: EpochRange,
    },
    UnionSizesRep(UnionSizesBody),
    HorizonReq,
    HorizonRep(u64),
    /// Pull the peer's obsplane metrics. Sent by clients to the
    /// front-end (which fans it out) or by the front-end to one shard.
    StatsScrapeReq,
    /// Labelled registry snapshots: `("front", ..)` then one
    /// `("shard{i}", ..)` per shard when the front-end answers; a single
    /// `("shard{i}", ..)` when a shard server answers directly.
    StatsScrapeRep(Vec<(String, RegistrySnapshot)>),
    /// Pull the peer's retained spans (ring + pinned exemplars) for
    /// cross-process trace reassembly. Side-effect-free like a stats
    /// scrape: snapshot-based, never draining, and excluded from the
    /// wire histograms, so scraping cannot perturb what it observes.
    TraceScrapeReq,
    /// Labelled span dumps, grouped like [`Frame::StatsScrapeRep`]:
    /// `("front", ..)` plus one `("shard{i}", ..)` per shard when the
    /// front-end answers.
    TraceScrapeRep(Vec<(String, Vec<WireSpan>)>),

    // Client plane (client ↔ front-end).
    QueryReq(QueryRequest),
    QueryRep(QueryResponse),
    SubscribeReq {
        query: StandingQuery,
        /// Incidents of this topic the client has already consumed; the
        /// front-end replays from here, so a reconnecting subscriber
        /// re-derives the log with zero duplicates and zero drops.
        resume_after: u64,
    },
    SubscribeRep {
        sub: SubscriptionId,
        /// Incidents currently in the topic's log (the replay backlog
        /// upper bound).
        available: u64,
    },
    IncidentPush {
        seq: u64,
        incident: Incident,
    },
    WindowPush(WindowSummary),

    // Replication plane (owner → replica shard server).
    /// One sequenced record of shard `shard`'s replication log. The
    /// replica applies it only when `seq` is exactly its applied seq + 1;
    /// anything else answers [`WireError::SeqGap`] and the owner replays
    /// or re-bootstraps.
    DeltaAppend {
        shard: u16,
        seq: u64,
        record: DeltaRecord,
        /// Optional causal context of the publish that produced this
        /// record, so replica applies join the originating trace.
        /// Encoded as an optional trailer — context-free frames are
        /// byte-identical to the pre-trace layout.
        ctx: Option<TraceContext>,
    },
    /// Full-state bootstrap: an encoded per-shard snapshot slice
    /// ([`queryplane::Snapshot`] bytes — opaque here because decoding
    /// them needs the deployment's shared MPHF, which a context-free
    /// frame decoder does not hold) that replaces the replica's state and
    /// sets its applied seq to `seq` unconditionally.
    SnapshotInstall {
        shard: u16,
        seq: u64,
        view: Vec<u8>,
    },
    /// Replica acknowledgement: the log is applied through `applied`.
    DeltaAck {
        shard: u16,
        applied: u64,
    },
    /// Probe a replica's replication progress.
    ReplicaStatusReq,
    ReplicaStatusRep {
        shard: u16,
        applied: u64,
    },

    // Multiplexing envelopes: how every shard read and scrape travels.
    // An inner frame's bytes are exactly its bare payload.
    /// One request or reply stamped with the caller's correlation id, so
    /// many exchanges can share a socket and complete out of order.
    Tagged {
        /// Correlation id; a reply carries the id of its request.
        req_id: u32,
        /// Optional trace context of the caller, propagated so the
        /// server's serve span joins the caller's trace.
        ctx: Option<TraceContext>,
        /// The enveloped frame. Envelopes never nest.
        inner: Box<Frame>,
    },
    /// A whole wave of tagged requests in one frame: the per-shard batch
    /// a front-end flushes per scheduling turn. Each entry carries its
    /// own caller's optional trace context.
    Batch(Vec<(u32, Option<TraceContext>, Frame)>),
    /// The replies to a [`Frame::Batch`], in whatever order the shard
    /// finished them; each entry names its request by id.
    BatchRep(Vec<(u32, Frame)>),

    /// Typed failure, either direction.
    Error(WireError),
}

/// `Hello.shard` value identifying the front-end rather than a shard.
pub(crate) const FRONT_ROLE: u16 = u16::MAX;

impl Frame {
    /// The frame's tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::UnionSliceReq { .. } => 0x10,
            Frame::ProbeExactReq { .. } => 0x11,
            Frame::StoreLenReq { .. } => 0x12,
            Frame::RecordReq { .. } => 0x13,
            Frame::TriggerReq { .. } => 0x14,
            Frame::FilterWaveReq { .. } => 0x16,
            Frame::TopKWaveReq { .. } => 0x17,
            Frame::SizesWaveReq { .. } => 0x18,
            Frame::HorizonReq => 0x19,
            Frame::StatsScrapeReq => 0x1A,
            Frame::TraceScrapeReq => 0x1B,
            Frame::PresenceWaveReq { .. } => 0x1C,
            Frame::UnionTopKReq { .. } => 0x1D,
            Frame::UnionSizesReq { .. } => 0x1E,
            Frame::UnionSliceRep(_) => 0x20,
            Frame::ProbeExactRep(_) => 0x21,
            Frame::StoreLenRep(_) => 0x22,
            Frame::RecordRep(_) => 0x23,
            Frame::TriggerRep(_) => 0x24,
            Frame::FilterWaveRep(_) => 0x26,
            Frame::TopKWaveRep(_) => 0x27,
            Frame::SizesWaveRep(_) => 0x28,
            Frame::HorizonRep(_) => 0x29,
            Frame::StatsScrapeRep(_) => 0x2A,
            Frame::TraceScrapeRep(_) => 0x2B,
            Frame::PresenceWaveRep(_) => 0x2C,
            Frame::UnionTopKRep(_) => 0x2D,
            Frame::UnionSizesRep(_) => 0x2E,
            Frame::QueryReq(_) => 0x30,
            Frame::QueryRep(_) => 0x31,
            Frame::SubscribeReq { .. } => 0x32,
            Frame::SubscribeRep { .. } => 0x33,
            Frame::IncidentPush { .. } => 0x34,
            Frame::WindowPush(_) => 0x35,
            Frame::DeltaAppend { .. } => 0x40,
            Frame::SnapshotInstall { .. } => 0x41,
            Frame::DeltaAck { .. } => 0x42,
            Frame::ReplicaStatusReq => 0x43,
            Frame::ReplicaStatusRep { .. } => 0x44,
            Frame::Tagged { .. } => 0x50,
            Frame::Batch(_) => 0x51,
            Frame::BatchRep(_) => 0x52,
            Frame::Error(_) => 0x3F,
        }
    }

    /// A static label for the frame type, used as the span class when a
    /// server records a serve-stage span for this request.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::UnionSliceReq { .. } => "UnionSliceReq",
            Frame::ProbeExactReq { .. } => "ProbeExactReq",
            Frame::StoreLenReq { .. } => "StoreLenReq",
            Frame::RecordReq { .. } => "RecordReq",
            Frame::TriggerReq { .. } => "TriggerReq",
            Frame::FilterWaveReq { .. } => "FilterWaveReq",
            Frame::TopKWaveReq { .. } => "TopKWaveReq",
            Frame::SizesWaveReq { .. } => "SizesWaveReq",
            Frame::HorizonReq => "HorizonReq",
            Frame::StatsScrapeReq => "StatsScrapeReq",
            Frame::TraceScrapeReq => "TraceScrapeReq",
            Frame::PresenceWaveReq { .. } => "PresenceWaveReq",
            Frame::UnionTopKReq { .. } => "UnionTopKReq",
            Frame::UnionSizesReq { .. } => "UnionSizesReq",
            Frame::UnionSliceRep(_) => "UnionSliceRep",
            Frame::ProbeExactRep(_) => "ProbeExactRep",
            Frame::StoreLenRep(_) => "StoreLenRep",
            Frame::RecordRep(_) => "RecordRep",
            Frame::TriggerRep(_) => "TriggerRep",
            Frame::FilterWaveRep(_) => "FilterWaveRep",
            Frame::TopKWaveRep(_) => "TopKWaveRep",
            Frame::SizesWaveRep(_) => "SizesWaveRep",
            Frame::HorizonRep(_) => "HorizonRep",
            Frame::StatsScrapeRep(_) => "StatsScrapeRep",
            Frame::TraceScrapeRep(_) => "TraceScrapeRep",
            Frame::PresenceWaveRep(_) => "PresenceWaveRep",
            Frame::UnionTopKRep(_) => "UnionTopKRep",
            Frame::UnionSizesRep(_) => "UnionSizesRep",
            Frame::QueryReq(_) => "QueryReq",
            Frame::QueryRep(_) => "QueryRep",
            Frame::SubscribeReq { .. } => "SubscribeReq",
            Frame::SubscribeRep { .. } => "SubscribeRep",
            Frame::IncidentPush { .. } => "IncidentPush",
            Frame::WindowPush(_) => "WindowPush",
            Frame::DeltaAppend { .. } => "DeltaAppend",
            Frame::SnapshotInstall { .. } => "SnapshotInstall",
            Frame::DeltaAck { .. } => "DeltaAck",
            Frame::ReplicaStatusReq => "ReplicaStatusReq",
            Frame::ReplicaStatusRep { .. } => "ReplicaStatusRep",
            Frame::Tagged { .. } => "Tagged",
            Frame::Batch(_) => "Batch",
            Frame::BatchRep(_) => "BatchRep",
            Frame::Error(_) => "Error",
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Frame::Hello { shard, n_shards } => {
                e.put_u16(*shard);
                e.put_u16(*n_shards);
            }
            Frame::UnionSliceReq { switch, range } => {
                switch.enc(&mut e);
                range.enc(&mut e);
            }
            Frame::UnionSliceRep(v) => match v {
                None => e.put_u8(0),
                Some(b) => {
                    e.put_u8(1);
                    enc_bitset_runs(b, &mut e);
                }
            },
            Frame::ProbeExactReq {
                switch,
                addr,
                epoch,
            } => {
                switch.enc(&mut e);
                e.put_u64(*addr);
                e.put_u64(*epoch);
            }
            Frame::ProbeExactRep(v) => v.enc(&mut e),
            Frame::PresenceWaveReq {
                switches,
                addr,
                range,
            } => {
                switches.enc(&mut e);
                e.put_u64(*addr);
                range.enc(&mut e);
            }
            Frame::PresenceWaveRep(v) => v.enc(&mut e),
            Frame::StoreLenReq { host } => host.enc(&mut e),
            Frame::StoreLenRep(v) => v.enc(&mut e),
            Frame::RecordReq { host, flow } => {
                host.enc(&mut e);
                flow.enc(&mut e);
            }
            Frame::RecordRep(v) => v.enc(&mut e),
            Frame::TriggerReq { host, flow } => {
                host.enc(&mut e);
                flow.enc(&mut e);
            }
            Frame::TriggerRep(v) => v.enc(&mut e),
            Frame::FilterWaveReq {
                switch,
                range,
                hosts,
            } => {
                switch.enc(&mut e);
                range.enc(&mut e);
                enc_ids_delta(hosts, &mut e);
            }
            Frame::FilterWaveRep(v) => v.enc(&mut e),
            Frame::TopKWaveReq { switch, k, hosts } => {
                switch.enc(&mut e);
                e.put_varint(*k);
                enc_ids_delta(hosts, &mut e);
            }
            Frame::TopKWaveRep(v) => v.enc(&mut e),
            Frame::SizesWaveReq { switch, hosts } => {
                switch.enc(&mut e);
                enc_ids_delta(hosts, &mut e);
            }
            Frame::SizesWaveRep(v) => v.enc(&mut e),
            Frame::UnionTopKReq { switch, range, k } => {
                switch.enc(&mut e);
                range.enc(&mut e);
                e.put_varint(*k);
            }
            Frame::UnionTopKRep(v) => v.enc(&mut e),
            Frame::UnionSizesReq { switch, range } => {
                switch.enc(&mut e);
                range.enc(&mut e);
            }
            Frame::UnionSizesRep(v) => v.enc(&mut e),
            Frame::HorizonReq => {}
            Frame::HorizonRep(v) => e.put_u64(*v),
            Frame::StatsScrapeReq => {}
            Frame::StatsScrapeRep(v) => enc_stats(v, &mut e),
            Frame::TraceScrapeReq => {}
            Frame::TraceScrapeRep(v) => v.enc(&mut e),
            Frame::QueryReq(v) => v.enc(&mut e),
            Frame::QueryRep(v) => v.enc(&mut e),
            Frame::SubscribeReq {
                query,
                resume_after,
            } => {
                query.enc(&mut e);
                e.put_u64(*resume_after);
            }
            Frame::SubscribeRep { sub, available } => {
                sub.enc(&mut e);
                e.put_u64(*available);
            }
            Frame::IncidentPush { seq, incident } => {
                e.put_u64(*seq);
                incident.enc(&mut e);
            }
            Frame::WindowPush(v) => v.enc(&mut e),
            Frame::DeltaAppend {
                shard,
                seq,
                record,
                ctx,
            } => {
                e.put_u16(*shard);
                e.put_u64(*seq);
                record.enc(&mut e);
                // Optional trailer: `DeltaRecord` is self-delimiting, so
                // a marker after the record is unambiguous.
                enc_ctx(ctx, &mut e);
            }
            Frame::SnapshotInstall { shard, seq, view } => {
                e.put_u16(*shard);
                e.put_u64(*seq);
                e.put_bytes(view);
            }
            Frame::DeltaAck { shard, applied } => {
                e.put_u16(*shard);
                e.put_u64(*applied);
            }
            Frame::ReplicaStatusReq => {}
            Frame::ReplicaStatusRep { shard, applied } => {
                e.put_u16(*shard);
                e.put_u64(*applied);
            }
            Frame::Tagged { req_id, ctx, inner } => {
                e.put_u32(*req_id);
                enc_ctx(ctx, &mut e);
                e.put_u8(inner.tag());
                e.put_raw(&inner.payload());
            }
            Frame::Batch(entries) => {
                e.put_varint(entries.len() as u64);
                for (id, ctx, f) in entries {
                    e.put_u32(*id);
                    enc_ctx(ctx, &mut e);
                    e.put_u8(f.tag());
                    let p = f.payload();
                    e.put_varint(p.len() as u64);
                    e.put_raw(&p);
                }
            }
            Frame::BatchRep(entries) => {
                e.put_varint(entries.len() as u64);
                for (id, f) in entries {
                    e.put_u32(*id);
                    e.put_u8(f.tag());
                    let p = f.payload();
                    e.put_varint(p.len() as u64);
                    e.put_raw(&p);
                }
            }
            Frame::Error(err) => err.enc(&mut e),
        }
        e.into_bytes()
    }

    /// Encodes the whole frame (length prefix + tag + payload) into a
    /// buffer — callers holding a stream lock write it in one syscall so
    /// concurrent pushers never interleave partial frames.
    pub fn to_frame_bytes(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        write_frame(&mut out, self.tag(), &self.payload())?;
        Ok(out)
    }

    /// [`Frame::to_frame_bytes`] into a caller-owned scratch buffer: the
    /// buffer is cleared and refilled, keeping its allocation, so a
    /// steady-state sender stops allocating per frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        telemetry::frame::frame_into(out, self.tag(), &self.payload())
    }

    /// Writes the frame to `w`.
    pub fn write(&self, w: &mut impl Write) -> Result<(), WireError> {
        write_frame(w, self.tag(), &self.payload())
    }

    /// Reads one frame from `r`, bounding the accepted size by `max`.
    pub fn read(r: &mut impl Read, max: u32) -> Result<Frame, WireError> {
        let (tag, payload) = read_frame(r, max)?;
        Self::decode(tag, &payload)
    }

    /// Decodes a frame from its tag and payload. Any trailing bytes in
    /// the payload are a protocol error.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut budget = BITSET_BUDGET;
        Self::decode_budgeted(tag, payload, &mut budget)
    }

    /// Decodes an envelope's interior: any frame but another envelope
    /// (`0x50..=0x52`). Envelopes never nest, which also bounds decode
    /// recursion at one level.
    fn decode_inner(tag: u8, payload: &[u8], budget: &mut usize) -> Result<Frame, WireError> {
        if (0x50..=0x52).contains(&tag) {
            return Err(WireError::BadTag(tag));
        }
        Self::decode_budgeted(tag, payload, budget)
    }

    /// [`Frame::decode`] against the remainder of the outermost frame's
    /// [`BITSET_BUDGET`]: every bitset decoded anywhere in that frame
    /// draws it down.
    fn decode_budgeted(tag: u8, payload: &[u8], budget: &mut usize) -> Result<Frame, WireError> {
        let mut d = Dec::new(payload);
        let frame = match tag {
            0x01 => Frame::Hello {
                shard: d.get_u16()?,
                n_shards: d.get_u16()?,
            },
            0x10 => Frame::UnionSliceReq {
                switch: NodeId::dec(&mut d)?,
                range: EpochRange::dec(&mut d)?,
            },
            0x11 => Frame::ProbeExactReq {
                switch: NodeId::dec(&mut d)?,
                addr: d.get_u64()?,
                epoch: d.get_u64()?,
            },
            0x12 => Frame::StoreLenReq {
                host: NodeId::dec(&mut d)?,
            },
            0x13 => Frame::RecordReq {
                host: NodeId::dec(&mut d)?,
                flow: FlowId::dec(&mut d)?,
            },
            0x14 => Frame::TriggerReq {
                host: NodeId::dec(&mut d)?,
                flow: FlowId::dec(&mut d)?,
            },
            0x16 => Frame::FilterWaveReq {
                switch: NodeId::dec(&mut d)?,
                range: EpochRange::dec(&mut d)?,
                hosts: dec_ids_delta(&mut d)?,
            },
            0x17 => Frame::TopKWaveReq {
                switch: NodeId::dec(&mut d)?,
                k: d.get_varint()?,
                hosts: dec_ids_delta(&mut d)?,
            },
            0x18 => Frame::SizesWaveReq {
                switch: NodeId::dec(&mut d)?,
                hosts: dec_ids_delta(&mut d)?,
            },
            0x19 => Frame::HorizonReq,
            0x1A => Frame::StatsScrapeReq,
            0x1B => Frame::TraceScrapeReq,
            0x1C => Frame::PresenceWaveReq {
                switches: Vec::dec(&mut d)?,
                addr: d.get_u64()?,
                range: EpochRange::dec(&mut d)?,
            },
            0x1D => Frame::UnionTopKReq {
                switch: NodeId::dec(&mut d)?,
                range: EpochRange::dec(&mut d)?,
                k: d.get_varint()?,
            },
            0x1E => Frame::UnionSizesReq {
                switch: NodeId::dec(&mut d)?,
                range: EpochRange::dec(&mut d)?,
            },
            0x20 => Frame::UnionSliceRep(match d.get_u8()? {
                0 => None,
                1 => Some(dec_bitset_runs(&mut d, budget)?),
                t => return Err(WireError::BadTag(t)),
            }),
            0x21 => Frame::ProbeExactRep(Option::dec(&mut d)?),
            0x22 => Frame::StoreLenRep(Option::dec(&mut d)?),
            0x23 => Frame::RecordRep(Option::dec(&mut d)?),
            0x24 => Frame::TriggerRep(Option::dec(&mut d)?),
            0x26 => Frame::FilterWaveRep(Vec::dec(&mut d)?),
            0x27 => Frame::TopKWaveRep(Vec::dec(&mut d)?),
            0x28 => Frame::SizesWaveRep(Vec::dec(&mut d)?),
            0x29 => Frame::HorizonRep(d.get_u64()?),
            0x2A => Frame::StatsScrapeRep(dec_stats(&mut d)?),
            0x2B => Frame::TraceScrapeRep(Vec::dec(&mut d)?),
            0x2C => Frame::PresenceWaveRep(Vec::dec(&mut d)?),
            0x2D => Frame::UnionTopKRep(Option::dec(&mut d)?),
            0x2E => Frame::UnionSizesRep(Option::dec(&mut d)?),
            0x30 => Frame::QueryReq(QueryRequest::dec(&mut d)?),
            0x31 => Frame::QueryRep(QueryResponse::dec(&mut d)?),
            0x32 => Frame::SubscribeReq {
                query: StandingQuery::dec(&mut d)?,
                resume_after: d.get_u64()?,
            },
            0x33 => Frame::SubscribeRep {
                sub: SubscriptionId::dec(&mut d)?,
                available: d.get_u64()?,
            },
            0x34 => Frame::IncidentPush {
                seq: d.get_u64()?,
                incident: Incident::dec(&mut d)?,
            },
            0x35 => Frame::WindowPush(WindowSummary::dec(&mut d)?),
            0x40 => {
                let shard = d.get_u16()?;
                let seq = d.get_u64()?;
                let record = DeltaRecord::dec(&mut d)?;
                // The record is self-delimiting: any trailer must be a
                // marked trace context, otherwise it is a protocol error.
                let ctx = if d.remaining() > 0 {
                    let marker = d.get_u8()?;
                    if marker != TRACE_CTX_MARKER {
                        return Err(WireError::TrailingBytes(d.remaining() + 1));
                    }
                    Some(dec_ctx_body(&mut d)?)
                } else {
                    None
                };
                Frame::DeltaAppend {
                    shard,
                    seq,
                    record,
                    ctx,
                }
            }
            0x41 => Frame::SnapshotInstall {
                shard: d.get_u16()?,
                seq: d.get_u64()?,
                view: d.get_bytes()?.to_vec(),
            },
            0x42 => Frame::DeltaAck {
                shard: d.get_u16()?,
                applied: d.get_u64()?,
            },
            0x43 => Frame::ReplicaStatusReq,
            0x44 => Frame::ReplicaStatusRep {
                shard: d.get_u16()?,
                applied: d.get_u64()?,
            },
            0x50 => {
                let req_id = d.get_u32()?;
                let (ctx, tag) = dec_ctx_then_tag(&mut d)?;
                let inner = Frame::decode_inner(tag, d.take_rest(), budget)?;
                Frame::Tagged {
                    req_id,
                    ctx,
                    inner: Box::new(inner),
                }
            }
            0x51 => {
                let count = d.get_varint()? as usize;
                // Every entry costs at least 6 bytes of header, so a
                // larger count is corrupt; the reservation is what the
                // bytes left could hold.
                if count > d.remaining() / 6 + 1 {
                    return Err(WireError::Truncated {
                        needed: count.saturating_mul(6),
                        have: d.remaining(),
                    });
                }
                // The entries share the frame's bitset budget, so N small
                // entries cannot decode into N maximal bitsets.
                let mut entries =
                    Vec::with_capacity(d.reservation::<(u32, Option<TraceContext>, Frame)>(count));
                for _ in 0..count {
                    let id = d.get_u32()?;
                    let (ctx, etag) = dec_ctx_then_tag(&mut d)?;
                    let len = d.get_varint()? as usize;
                    let payload = d.get_raw(len)?;
                    entries.push((id, ctx, Frame::decode_inner(etag, payload, budget)?));
                }
                Frame::Batch(entries)
            }
            0x52 => {
                let count = d.get_varint()? as usize;
                if count > d.remaining() / 6 + 1 {
                    return Err(WireError::Truncated {
                        needed: count.saturating_mul(6),
                        have: d.remaining(),
                    });
                }
                let mut entries = Vec::with_capacity(d.reservation::<(u32, Frame)>(count));
                for _ in 0..count {
                    let id = d.get_u32()?;
                    let etag = d.get_u8()?;
                    let len = d.get_varint()? as usize;
                    let payload = d.get_raw(len)?;
                    entries.push((id, Frame::decode_inner(etag, payload, budget)?));
                }
                Frame::BatchRep(entries)
            }
            0x3F => Frame::Error(WireError::dec(&mut d)?),
            t => return Err(WireError::BadTag(t)),
        };
        d.finish()?;
        Ok(frame)
    }
}
