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
//! * **One row per frame.** Every frame but the three envelopes is one
//!   row of the `frames!` table below — tag, name, fields — and the enum,
//!   [`Frame::tag`], the span class name, the encoder and the decoder are
//!   generated from the rows, so a frame's tag and layout are declared in
//!   exactly one place (`DESIGN.md` §13.2 says what each family carries
//!   and which socket it travels on).
//! * **One payload form per frame.** Scalars are fixed-width
//!   little-endian with no padding; the wave requests' host lists and the
//!   union-slice bitset — the collections that dominate a fan-out's
//!   bytes — are var-int / delta / run-length packed.
//!   A frame encodes the same bytes bare and inside an envelope, and
//!   encode→decode is the identity for every frame type (property-pinned,
//!   with golden bytes for the packed layouts, in
//!   `tests/wireplane_props.rs`), so a verdict that crosses the wire is
//!   bit-identical to one that never left the process.
//! * **One codec per type.** A frame's payload is its fields in row
//!   order, each as its type's [`Wire`] encoding unless the row names a
//!   field codec (the packed forms, the stats-scrape body, a snapshot
//!   view's byte slice, the replication trace trailer); no type has a
//!   second spelling for a second frame, so a query reply and a
//!   replication record carry the same `FlowRecord` bytes.
//! * **Decoding never panics.** Truncated or corrupt input surfaces as a
//!   typed [`WireError`]; collection lengths are bounded by the bytes
//!   actually present, and reservations by what those bytes could hold
//!   ([`Dec::reservation`] — the packed id list and the envelopes' entry
//!   vectors too), before any allocation.
//! * **One tag byte per frame type.** Requests and replies pair up
//!   (`0x1x` shard requests, `0x2x` shard replies, `0x3x` client-plane
//!   frames); [`Frame::Error`] carries a [`WireError`] to the peer. A
//!   retired tag is never reused: `0x15` / `0x25`, the store-length wave
//!   that the filter wave's sizes made redundant, and `0x12` / `0x22`,
//!   the store-length point read no query sent, decode as
//!   [`WireError::BadTag`].
//! * **One reply type per wave.** A wave reply frame carries the
//!   `switchpointer::query` reply type itself (store sizes are `u64` in
//!   process too), so neither end converts a reply on its way through.
//!
//! On a shard socket every request — read, scrape or replication —
//! travels only inside a [`Frame::Tagged`]/[`Frame::Batch`] envelope;
//! [`crate::server`] refuses a bare frame. The client plane is bare
//! throughout.

use std::collections::BTreeMap;
use std::io::{Read, Write};

use netsim::packet::{FlowId, NodeId};
use obsplane::{HistogramSnapshot, RegistrySnapshot, SpanEvent, TraceContext};
use queryplane::DeltaRecord;
use streamplane::{Incident, StandingQuery, SubscriptionId};
use switchpointer::bitset::BitSet;
use switchpointer::host::TriggerEvent;
use switchpointer::hoststore::FlowRecord;
use switchpointer::query::{
    FilterWaveReply, QueryRequest, QueryResponse, SizesWaveReply, TopKWaveReply, UnionSizes,
    UnionTopK,
};
use telemetry::frame::{
    dec_map, read_frame_body, write_frame, Dec, Enc, Wire, WireError, MAX_FRAME,
};
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
// Field codecs
// ----------------------------------------------------------------------
//
// A frame field travels as its type's [`Wire`] encoding unless its row
// names one of these after `as`. Each is a zero-sized type whose two
// functions the generated encoder and decoder call directly.

/// How one frame field travels.
trait Codec<T> {
    fn enc(v: &T, e: &mut Enc);
    /// `budget` is what is left of the outermost frame's
    /// [`BITSET_BUDGET`].
    fn dec(d: &mut Dec, budget: &mut usize) -> Result<T, WireError>;
}

/// The default: the field type's own [`Wire`] encoding.
struct AsWire;

impl<T: Wire> Codec<T> for AsWire {
    fn enc(v: &T, e: &mut Enc) {
        v.enc(e);
    }
    fn dec(d: &mut Dec, _: &mut usize) -> Result<T, WireError> {
        T::dec(d)
    }
}

/// A `u64` as one LEB128 var-int: a top-k `k` costs a byte, not eight.
struct VarInt;

impl Codec<u64> for VarInt {
    fn enc(v: &u64, e: &mut Enc) {
        e.put_varint(*v);
    }
    fn dec(d: &mut Dec, _: &mut usize) -> Result<u64, WireError> {
        d.get_varint()
    }
}

/// Delta-packed id list: `count | first | zigzag deltas`. A sorted host
/// list costs ~1 byte per id instead of 4.
struct IdsDelta;

impl Codec<Vec<NodeId>> for IdsDelta {
    fn enc(ids: &Vec<NodeId>, e: &mut Enc) {
        e.put_varint(ids.len() as u64);
        let mut prev = 0i64;
        for id in ids {
            let v = i64::from(id.0);
            e.put_zigzag(v - prev);
            prev = v;
        }
    }
    fn dec(d: &mut Dec, _: &mut usize) -> Result<Vec<NodeId>, WireError> {
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

/// An optional run-length bitset: `0` for none, or `1 | capacity |
/// runs…`, alternating zero/one runs starting with a zero run.
/// Pointer-union slices are sparse and clustered, so runs beat the word
/// array by a wide margin.
struct BitsetRuns;

impl Codec<Option<BitSet>> for BitsetRuns {
    fn enc(v: &Option<BitSet>, e: &mut Enc) {
        let Some(b) = v else {
            e.put_u8(0);
            return;
        };
        e.put_u8(1);
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
    fn dec(d: &mut Dec, budget: &mut usize) -> Result<Option<BitSet>, WireError> {
        match d.get_u8()? {
            0 => return Ok(None),
            1 => {}
            t => return Err(WireError::BadTag(t)),
        }
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
        Ok(Some(BitSet::from_word_vec(nbits, words)))
    }
}

/// Body of a [`Frame::StatsScrapeRep`]: `count | (label, counters,
/// gauges, hists)…`, a histogram as `grid_bits | counts | count | sum |
/// max`. Obsplane snapshots cross the wire so `WireClient::scrape_stats`
/// can pull a live cluster's histograms; `obsplane` stays
/// dependency-free, so it cannot see `Wire`, and the one frame that
/// carries its two snapshot types encodes them here from the shared
/// impls of their fields.
struct StatsBody;

impl Codec<Vec<(String, RegistrySnapshot)>> for StatsBody {
    fn enc(v: &Vec<(String, RegistrySnapshot)>, e: &mut Enc) {
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
    fn dec(d: &mut Dec, _: &mut usize) -> Result<Vec<(String, RegistrySnapshot)>, WireError> {
        let n = d.get_len()?;
        let mut out = Vec::with_capacity(d.reservation::<(String, RegistrySnapshot)>(n));
        for _ in 0..n {
            let label = String::dec(d)?;
            let counters = BTreeMap::dec(d)?;
            let gauges = BTreeMap::dec(d)?;
            let hists = dec_map(d, |d| {
                Ok(HistogramSnapshot {
                    grid_bits: d.get_u32()?,
                    counts: Vec::dec(d)?,
                    count: d.get_u64()?,
                    sum: d.get_u64()?,
                    max: d.get_u64()?,
                })
            })?;
            let reg = RegistrySnapshot {
                counters,
                gauges,
                hists,
            };
            out.push((label, reg));
        }
        Ok(out)
    }
}

/// Length-prefixed bytes, decoded as one slice copy. `Vec<u8>`'s own
/// [`Wire`] encoding writes the same bytes but decodes them one by one.
struct ByteSlice;

impl Codec<Vec<u8>> for ByteSlice {
    fn enc(v: &Vec<u8>, e: &mut Enc) {
        e.put_bytes(v);
    }
    fn dec(d: &mut Dec, _: &mut usize) -> Result<Vec<u8>, WireError> {
        Ok(d.get_bytes()?.to_vec())
    }
}

/// An optional trace context as a frame's trailer: nothing, or the
/// marked context. Only a row's last field, after a self-delimiting
/// value, may use it — the marker is then unambiguous, and any other
/// trailer is a protocol error.
struct CtxTrailer;

impl Codec<Option<TraceContext>> for CtxTrailer {
    fn enc(v: &Option<TraceContext>, e: &mut Enc) {
        enc_ctx(v, e);
    }
    fn dec(d: &mut Dec, _: &mut usize) -> Result<Option<TraceContext>, WireError> {
        if d.remaining() == 0 {
            return Ok(None);
        }
        if d.get_u8()? != TRACE_CTX_MARKER {
            return Err(WireError::TrailingBytes(d.remaining() + 1));
        }
        dec_ctx_body(d).map(Some)
    }
}

// ----------------------------------------------------------------------
// Frames
// ----------------------------------------------------------------------

/// Declares [`Frame`] from one row per frame: doc comments, `tag =>
/// Name`, then the variant's fields in struct, tuple or unit shape, each
/// field optionally followed by `as` and the [`Codec`] it travels by.
/// From the rows it generates the enum, [`Frame::tag`],
/// [`Frame::kind_name`] (the variant's name), the payload encoder and the
/// decoder. A repeated tag is an unreachable decoder arm, which clippy's
/// `-D warnings` refuses. The three envelopes (`0x50`–`0x52`) are
/// written out in the generated items by hand.
macro_rules! frames {
    (
        $(
            $(#[$doc:meta])*
            $tag:literal => $name:ident
            $({ $( $(#[$fdoc:meta])* $field:ident : $fty:ty $(as $fcodec:ty)? ),* $(,)? })?
            $(( $tty:ty $(as $tcodec:ty)? ))?
        ),* $(,)?
    ) => {
        // One field list per shape: a struct field binds its own name, a
        // tuple variant's one field binds `v` under index `0`, and a unit
        // variant has none (`Frame::Name {}` builds and matches it).
        frames!(@rows $(
            [$tag $name [$(#[$doc])*]
                [$({ $( $(#[$fdoc])* $field: $fty ),* })? $(($tty))?]
                $($( ($field $field: $fty $(as $fcodec)?) )*)?
                $( (0 v: $tty $(as $tcodec)?) )?]
        )*);
    };
    (@codec) => { AsWire };
    (@codec $codec:ty) => { $codec };
    (@rows $(
        [$tag:literal $name:ident [$($doc:tt)*] [$($decl:tt)*]
            $( ($field:tt $bind:ident : $ty:ty $(as $codec:ty)?) )*]
    )*) => {
        /// Every message of the wireplane protocol.
        #[derive(Debug, Clone)]
        pub enum Frame {
            $( $($doc)* $name $($decl)*, )*

            // Multiplexing envelopes: how every shard read and scrape
            // travels. An inner frame's bytes are exactly its bare payload.
            /// One request or reply stamped with the caller's correlation
            /// id, so many exchanges can share a socket and complete out of
            /// order.
            Tagged {
                /// Correlation id; a reply carries the id of its request.
                req_id: u32,
                /// Optional trace context of the caller, propagated so the
                /// server's serve span joins the caller's trace.
                ctx: Option<TraceContext>,
                /// The enveloped frame. Envelopes never nest.
                inner: Box<Frame>,
            },
            /// A whole wave of tagged requests in one frame: the per-shard
            /// batch a front-end flushes per scheduling turn. Each entry
            /// carries its own caller's optional trace context.
            Batch(Vec<(u32, Option<TraceContext>, Frame)>),
            /// The replies to a [`Frame::Batch`], in whatever order the
            /// shard finished them; each entry names its request by id.
            BatchRep(Vec<(u32, Frame)>),
        }

        impl Frame {
            /// The frame's tag byte.
            pub fn tag(&self) -> u8 {
                match self {
                    $( Frame::$name { .. } => $tag, )*
                    Frame::Tagged { .. } => 0x50,
                    Frame::Batch(_) => 0x51,
                    Frame::BatchRep(_) => 0x52,
                }
            }

            /// A static label for the frame type, used as the span class
            /// when a server records a serve-stage span for this request.
            pub(crate) fn kind_name(&self) -> &'static str {
                match self {
                    $( Frame::$name { .. } => stringify!($name), )*
                    Frame::Tagged { .. } => "Tagged",
                    Frame::Batch(_) => "Batch",
                    Frame::BatchRep(_) => "BatchRep",
                }
            }

            fn payload(&self) -> Vec<u8> {
                let mut e = Enc::new();
                match self {
                    $( Frame::$name { $($field: $bind),* } => {
                        $( <frames!(@codec $($codec)?) as Codec<$ty>>::enc($bind, &mut e); )*
                    } )*
                    Frame::Tagged { req_id, ctx, inner } => enc_tagged(*req_id, ctx, inner, &mut e),
                    Frame::Batch(entries) => enc_batch(entries, &mut e),
                    Frame::BatchRep(entries) => enc_batch_rep(entries, &mut e),
                }
                e.into_bytes()
            }

            /// [`Frame::decode`] against the remainder of the outermost
            /// frame's [`BITSET_BUDGET`]: every bitset decoded anywhere in
            /// that frame draws it down.
            fn decode_budgeted(
                tag: u8,
                payload: &[u8],
                budget: &mut usize,
            ) -> Result<Frame, WireError> {
                let mut d = Dec::new(payload);
                let frame = match tag {
                    $( $tag => Frame::$name {
                        $( $field:
                            <frames!(@codec $($codec)?) as Codec<$ty>>::dec(&mut d, budget)?, )*
                    }, )*
                    0x50 => dec_tagged(&mut d, budget)?,
                    0x51 => dec_batch(&mut d, budget)?,
                    0x52 => dec_batch_rep(&mut d, budget)?,
                    t => return Err(WireError::BadTag(t)),
                };
                d.finish()?;
                Ok(frame)
            }
        }
    };
}

frames! {
    /// Server greeting on accept: which role/shard answered.
    0x01 => Hello {
        /// Serving shard id, or `u16::MAX` for the front-end.
        shard: u16,
        /// Directory shard count of the deployment.
        n_shards: u16,
    },

    // Shard RPCs (front-end → shard server).
    0x10 => UnionSliceReq { switch: NodeId, range: EpochRange },
    0x20 => UnionSliceRep(Option<BitSet> as BitsetRuns),
    0x11 => ProbeExactReq { switch: NodeId, addr: u64, epoch: u64 },
    0x21 => ProbeExactRep(Option<Option<bool>>),
    /// A whole silent-drop sweep in one request: was `addr` seen at exact
    /// resolution in any epoch of `range`, at each of `switches`? Served
    /// in O(switches × α) whatever the range length.
    0x1C => PresenceWaveReq { switches: Vec<NodeId>, addr: u64, range: EpochRange },
    /// One flag per requested switch, in request order (`false` for a
    /// switch the shard holds no pointers for).
    0x2C => PresenceWaveRep(Vec<bool>),
    0x13 => RecordReq { host: NodeId, flow: FlowId },
    0x23 => RecordRep(Option<FlowRecord>),
    0x14 => TriggerReq { host: NodeId, flow: FlowId },
    0x24 => TriggerRep(Option<TriggerEvent>),
    0x16 => FilterWaveReq { switch: NodeId, range: EpochRange, hosts: Vec<NodeId> as IdsDelta },
    0x26 => FilterWaveRep(FilterWaveReply),
    0x17 => TopKWaveReq { switch: NodeId, k: u64 as VarInt, hosts: Vec<NodeId> as IdsDelta },
    0x27 => TopKWaveRep(TopKWaveReply),
    0x18 => SizesWaveReq { switch: NodeId, hosts: Vec<NodeId> as IdsDelta },
    0x28 => SizesWaveRep(SizesWaveReply),
    /// A whole top-k read in one request: the shard decodes its slice of
    /// `switch`'s pointer union over `range` and answers the top-k wave
    /// for the hosts it decoded.
    0x1D => UnionTopKReq { switch: NodeId, range: EpochRange, k: u64 as VarInt },
    0x2D => UnionTopKRep(UnionTopK),
    /// A whole link-sizes read in one request, as [`Frame::UnionTopKReq`].
    0x1E => UnionSizesReq { switch: NodeId, range: EpochRange },
    0x2E => UnionSizesRep(UnionSizes),
    0x19 => HorizonReq,
    0x29 => HorizonRep(u64),
    /// Pull the peer's obsplane metrics. Sent by clients to the
    /// front-end (which fans it out) or by the front-end to one shard.
    0x1A => StatsScrapeReq,
    /// Labelled registry snapshots: `("front", ..)` then one
    /// `("shard{i}", ..)` per shard when the front-end answers; a single
    /// `("shard{i}", ..)` when a shard server answers directly.
    0x2A => StatsScrapeRep(Vec<(String, RegistrySnapshot)> as StatsBody),
    /// Pull the peer's retained spans (ring + pinned exemplars) for
    /// cross-process trace reassembly. Side-effect-free like a stats
    /// scrape: snapshot-based, never draining, and excluded from the
    /// wire histograms, so scraping cannot perturb what it observes.
    0x1B => TraceScrapeReq,
    /// Labelled span dumps, grouped like [`Frame::StatsScrapeRep`]:
    /// `("front", ..)` plus one `("shard{i}", ..)` per shard when the
    /// front-end answers.
    0x2B => TraceScrapeRep(Vec<(String, Vec<WireSpan>)>),

    // Client plane (client ↔ front-end).
    0x30 => QueryReq(QueryRequest),
    0x31 => QueryRep(QueryResponse),
    0x32 => SubscribeReq {
        query: StandingQuery,
        /// Incidents of this topic the client has already consumed; the
        /// front-end replays from here, so a reconnecting subscriber
        /// re-derives the log with zero duplicates and zero drops.
        resume_after: u64,
    },
    0x33 => SubscribeRep {
        sub: SubscriptionId,
        /// Incidents currently in the topic's log (the replay backlog
        /// upper bound).
        available: u64,
    },
    0x34 => IncidentPush { seq: u64, incident: Incident },
    0x35 => WindowPush(WindowSummary),
    /// Typed failure, either direction.
    0x3F => Error(WireError),

    // Replication plane (owner → replica shard server).
    /// One sequenced record of shard `shard`'s replication log. The
    /// replica applies it only when `seq` is exactly its applied seq + 1;
    /// anything else answers [`WireError::SeqGap`] and the owner replays
    /// or re-bootstraps.
    0x40 => DeltaAppend {
        shard: u16,
        seq: u64,
        record: DeltaRecord,
        /// Optional causal context of the publish that produced this
        /// record, so replica applies join the originating trace.
        /// Encoded as an optional trailer — context-free frames are
        /// byte-identical to the pre-trace layout.
        ctx: Option<TraceContext> as CtxTrailer,
    },
    /// Full-state bootstrap: an encoded per-shard snapshot slice
    /// ([`queryplane::Snapshot`] bytes — opaque here because decoding
    /// them needs the deployment's shared MPHF, which a context-free
    /// frame decoder does not hold) that replaces the replica's state and
    /// sets its applied seq to `seq` unconditionally.
    0x41 => SnapshotInstall { shard: u16, seq: u64, view: Vec<u8> as ByteSlice },
    /// Replica acknowledgement: the log is applied through `applied`.
    0x42 => DeltaAck { shard: u16, applied: u64 },
    /// Probe a replica's replication progress.
    0x43 => ReplicaStatusReq,
    0x44 => ReplicaStatusRep { shard: u16, applied: u64 },
}

/// `Hello.shard` value identifying the front-end rather than a shard.
pub(crate) const FRONT_ROLE: u16 = u16::MAX;

// ----------------------------------------------------------------------
// Envelopes
// ----------------------------------------------------------------------
//
// `Tagged` is `req_id u32 | [ctx] | inner tag | inner payload`; `Batch`
// and `BatchRep` are `count varint`, then per entry `req_id u32 | [ctx]
// | inner tag | len varint | inner payload` (`BatchRep` entries carry no
// context). An inner payload is exactly the frame's bare payload.

fn enc_tagged(req_id: u32, ctx: &Option<TraceContext>, inner: &Frame, e: &mut Enc) {
    e.put_u32(req_id);
    enc_ctx(ctx, e);
    e.put_u8(inner.tag());
    e.put_raw(&inner.payload());
}

fn enc_batch(entries: &[(u32, Option<TraceContext>, Frame)], e: &mut Enc) {
    e.put_varint(entries.len() as u64);
    for (id, ctx, f) in entries {
        e.put_u32(*id);
        enc_ctx(ctx, e);
        e.put_u8(f.tag());
        let p = f.payload();
        e.put_varint(p.len() as u64);
        e.put_raw(&p);
    }
}

fn enc_batch_rep(entries: &[(u32, Frame)], e: &mut Enc) {
    e.put_varint(entries.len() as u64);
    for (id, f) in entries {
        e.put_u32(*id);
        e.put_u8(f.tag());
        let p = f.payload();
        e.put_varint(p.len() as u64);
        e.put_raw(&p);
    }
}

fn dec_tagged(d: &mut Dec, budget: &mut usize) -> Result<Frame, WireError> {
    let req_id = d.get_u32()?;
    let (ctx, tag) = dec_ctx_then_tag(d)?;
    let inner = Frame::decode_inner(tag, d.take_rest(), budget)?;
    Ok(Frame::Tagged {
        req_id,
        ctx,
        inner: Box::new(inner),
    })
}

fn dec_batch(d: &mut Dec, budget: &mut usize) -> Result<Frame, WireError> {
    let count = d.get_varint()? as usize;
    // Every entry costs at least 6 bytes of header, so a larger count is
    // corrupt; the reservation is what the bytes left could hold.
    if count > d.remaining() / 6 + 1 {
        return Err(WireError::Truncated {
            needed: count.saturating_mul(6),
            have: d.remaining(),
        });
    }
    // The entries share the frame's bitset budget, so N small entries
    // cannot decode into N maximal bitsets.
    let mut entries =
        Vec::with_capacity(d.reservation::<(u32, Option<TraceContext>, Frame)>(count));
    for _ in 0..count {
        let id = d.get_u32()?;
        let (ctx, etag) = dec_ctx_then_tag(d)?;
        let len = d.get_varint()? as usize;
        let payload = d.get_raw(len)?;
        entries.push((id, ctx, Frame::decode_inner(etag, payload, budget)?));
    }
    Ok(Frame::Batch(entries))
}

fn dec_batch_rep(d: &mut Dec, budget: &mut usize) -> Result<Frame, WireError> {
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
    Ok(Frame::BatchRep(entries))
}

impl Frame {
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
        let body = read_frame_body(r, max)?;
        Self::decode(body[0], &body[1..])
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
}
