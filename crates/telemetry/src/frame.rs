//! Byte-level length-prefix framing — the analyzer-side extension of the
//! [`wire`](crate::wire) format.
//!
//! [`wire`](crate::wire) covers the *in-band* half of SwitchPointer's
//! telemetry: 12-bit VLAN tags pushed onto data packets. This module is
//! the *out-of-band* half: the control-plane RPC fabric between directory
//! shards, the analyzer front-end and remote clients (the `wireplane`
//! crate) speaks length-prefix-framed binary messages over TCP, and this
//! module owns the framing and the codec both ends share: the primitive
//! [`Enc`]/[`Dec`] cursors and, built on them, the value-level [`Wire`]
//! trait with its impls for the integers, `String`, `Option`, `Vec`,
//! `Arc`, tuples, `BTreeSet`/`BTreeMap`, `netsim`'s ids, [`SimTime`],
//! [`EpochRange`] and [`WireError`]. It sits below every crate that owns
//! a type crossing the wire, so each of them writes the one `impl Wire`
//! for its type beside the type, and the transport defines no codec of
//! its own for them.
//!
//! One frame on the wire:
//!
//! ```text
//! +----------------+---------+----------------------+
//! | len: u32 LE    | tag: u8 | payload (len-1 bytes)|
//! +----------------+---------+----------------------+
//! ```
//!
//! `len` counts the tag byte plus the payload, so an empty-payload frame
//! has `len == 1`. Frames larger than the reader's cap are rejected with
//! [`WireError::Oversize`] *before* any allocation — a corrupt or
//! adversarial length prefix cannot OOM the peer. All integers are
//! little-endian and fixed-width; there is no implicit padding, so
//! encode→decode is exactly the identity (property-tested in
//! `tests/wireplane_props.rs` for every RPC frame type).
//!
//! Decoding never panics: every malformed input — truncation, an
//! out-of-range enum discriminant, trailing garbage — surfaces as a typed
//! [`WireError`]. A decoded count never reserves more than the bytes
//! behind it could hold ([`Dec::reservation`]) — the one rule every
//! collection decode goes through.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::sync::Arc;

use netsim::packet::{FlowId, NodeId, Priority, Protocol};
use netsim::time::SimTime;

use crate::EpochRange;

/// Default cap on a single frame's size (tag + payload), in bytes.
pub const MAX_FRAME: u32 = 64 << 20;

/// Everything that can go wrong on the wire. Typed — peers exchange these
/// in error frames, and decode paths return them instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// A frame or enum tag no decoder recognizes.
    BadTag(u8),
    /// A declared frame length above the reader's cap (or zero).
    Oversize(u32),
    /// A payload longer than its frame (trailing garbage after decode).
    TrailingBytes(usize),
    /// A string field that was not valid UTF-8.
    BadUtf8,
    /// The underlying transport failed. `peer` names the remote address
    /// when the failing side knew it — a multi-replica client needs to
    /// know *which* replica died, not just that a socket broke.
    Io {
        kind: std::io::ErrorKind,
        peer: Option<String>,
    },
    /// The peer reported a protocol-level failure (carried in an error
    /// frame; e.g. "unknown RPC for this role", "accept pool exhausted").
    Remote(String),
    /// A replication append arrived out of sequence: the replica expected
    /// `expected` next but the log carried `got`. The publisher must
    /// replay the gap or re-bootstrap the replica.
    SeqGap { expected: u64, got: u64 },
    /// A replica answered a query while behind the published log head —
    /// surfaced so callers can distinguish stale reads from dead peers.
    ReplicaLag { applied: u64, published: u64 },
}

impl WireError {
    /// Attach a peer address to a transport error; other variants pass
    /// through untouched. An already-present peer is kept (the innermost
    /// attribution is the most precise).
    pub fn with_peer(self, peer: impl std::fmt::Display) -> Self {
        match self {
            WireError::Io { kind, peer: None } => WireError::Io {
                kind,
                peer: Some(peer.to_string()),
            },
            other => other,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} more bytes, had {have}")
            }
            WireError::BadTag(t) => write!(f, "unknown wire tag {t:#04x}"),
            WireError::Oversize(n) => write!(f, "frame length {n} outside accepted range"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decoded value"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Io { kind, peer: None } => write!(f, "transport error: {kind:?}"),
            WireError::Io {
                kind,
                peer: Some(p),
            } => write!(f, "transport error talking to {p}: {kind:?}"),
            WireError::Remote(msg) => write!(f, "peer error: {msg}"),
            WireError::SeqGap { expected, got } => {
                write!(
                    f,
                    "replication sequence gap: expected {expected}, got {got}"
                )
            }
            WireError::ReplicaLag { applied, published } => {
                write!(f, "replica lag: applied {applied} of {published} published")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io {
            kind: e.kind(),
            peer: None,
        }
    }
}

/// Append-only encode buffer. All writes are infallible; the frame writer
/// takes the finished buffer.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, borrowed — for callers that reuse the buffer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the buffer but keeps its allocation: the batch encoder
    /// reuses one `Enc` across waves instead of allocating per frame.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as u64 so both ends agree regardless of platform;
    /// `usize::MAX`, the workspace's "none / skip" sentinel, travels as
    /// `u64::MAX` whatever the sender's width.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(if v == usize::MAX { u64::MAX } else { v as u64 });
    }

    /// Length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Raw bytes, no length prefix — the batch codec writes
    /// already-delimited payloads with it.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// LEB128 variable-width unsigned integer: 7 value bits per byte,
    /// high bit = continuation. Small values (counts, deltas, lengths)
    /// cost one byte instead of eight.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-mapped signed varint (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`)
    /// — delta-packed id lists stay small whichever direction the ids
    /// step.
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }
}

/// Cursor-style decode view over one frame's payload. Every getter
/// returns a typed [`WireError`] on malformed input; nothing panics.
#[derive(Debug, Clone, Copy)]
pub struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Decode is complete: errors with [`WireError::TrailingBytes`] if
    /// anything is left (a frame must be exactly one value).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::BadTag(other)),
        }
    }

    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A value wider than this platform's `usize` (the `u64::MAX`
    /// sentinel included) saturates to `usize::MAX`; it never truncates.
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        Ok(usize::try_from(self.get_u64()?).unwrap_or(usize::MAX))
    }

    /// A collection length, sanity-bounded by the bytes actually left in
    /// the frame (each element needs ≥ 1 byte), so a corrupt length can
    /// never drive a huge allocation.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let n = self.get_usize()?;
        if n > self.buf.len() {
            return Err(WireError::Truncated {
                needed: n,
                have: self.buf.len(),
            });
        }
        Ok(n)
    }

    /// How many `T`s to reserve room for after reading a count of `n`:
    /// never more than the bytes left in the frame could hold at `T`'s
    /// in-memory size. [`Dec::get_len`] bounds a count by *bytes*, but
    /// reserving `n` elements costs `n · size_of::<T>()` — for a wide `T`
    /// a corrupt count could still drive a reservation a hundred times
    /// the frame. Decode grows the collection normally when elements
    /// encode smaller than they sit in memory.
    pub fn reservation<T>(&self, n: usize) -> usize {
        n.min(self.buf.len() / std::mem::size_of::<T>().max(1))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Exactly `n` raw bytes, borrowed from the frame buffer (the
    /// zero-copy half of the batch codec: an entry's payload is a
    /// sub-slice of the one frame allocation, never re-copied).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Everything left in the frame, borrowed.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let rest = self.buf;
        self.buf = &[];
        rest
    }

    /// LEB128 varint. Truncation is typed; an encoding longer than ten
    /// bytes (more than 64 value bits) is a [`WireError::BadTag`] on the
    /// overflowing byte — corrupt input cannot spin the decoder.
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::BadTag(byte));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::BadTag(byte));
            }
        }
    }

    /// Zigzag-mapped signed varint.
    pub fn get_zigzag(&mut self) -> Result<i64, WireError> {
        let v = self.get_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    pub fn get_string(&mut self) -> Result<String, WireError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// Writes one `(tag, payload)` frame. The whole frame goes out in a
/// single `write_all`, so concurrent writers serialized by a lock never
/// interleave partial frames.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> Result<(), WireError> {
    let len = payload
        .len()
        .checked_add(1)
        .and_then(|n| u32::try_from(n).ok())
        .filter(|&n| n <= MAX_FRAME)
        .ok_or(WireError::Oversize(u32::MAX))?;
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    Ok(())
}

/// Builds one `(tag, payload)` frame into a reused buffer: `out` is
/// cleared but keeps its allocation, so a steady-state sender encodes
/// every frame into the same scratch vector with zero per-frame
/// allocations (byte-identical to [`write_frame`]'s output —
/// property-pinned in `tests/wireplane_props.rs`).
pub fn frame_into(out: &mut Vec<u8>, tag: u8, payload: &[u8]) -> Result<(), WireError> {
    let len = payload
        .len()
        .checked_add(1)
        .and_then(|n| u32::try_from(n).ok())
        .filter(|&n| n <= MAX_FRAME)
        .ok_or(WireError::Oversize(u32::MAX))?;
    out.clear();
    out.reserve(5 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(payload);
    Ok(())
}

/// Reads one `(tag, payload)` frame, rejecting declared lengths of zero
/// or above `max` before allocating.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<(u8, Vec<u8>), WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > max {
        return Err(WireError::Oversize(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let tag = body[0];
    body.drain(..1);
    Ok((tag, body))
}

/// Value-level codec: how one type travels inside a frame payload.
pub trait Wire: Sized {
    fn enc(&self, e: &mut Enc);
    fn dec(d: &mut Dec) -> Result<Self, WireError>;
}

/// Encodes one value into a standalone payload buffer.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.enc(&mut e);
    e.into_bytes()
}

/// Decodes one value from a payload, requiring full consumption.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Dec::new(bytes);
    let v = T::dec(&mut d)?;
    d.finish()?;
    Ok(v)
}

// ---- primitive and container impls ----------------------------------------

macro_rules! wire_uint {
    ($t:ty, $put:ident, $get:ident) => {
        impl Wire for $t {
            fn enc(&self, e: &mut Enc) {
                e.$put(*self);
            }
            fn dec(d: &mut Dec) -> Result<Self, WireError> {
                d.$get()
            }
        }
    };
}
wire_uint!(u8, put_u8, get_u8);
wire_uint!(u16, put_u16, get_u16);
wire_uint!(u32, put_u32, get_u32);
wire_uint!(u64, put_u64, get_u64);
wire_uint!(bool, put_bool, get_bool);

impl Wire for usize {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(*self);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        d.get_usize()
    }
}

// Gauges are signed; they travel as their two's-complement bit pattern
// so the codec stays fixed-width like every other scalar.
impl Wire for i64 {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(*self as u64);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(d.get_u64()? as i64)
    }
}

impl Wire for String {
    fn enc(&self, e: &mut Enc) {
        e.put_str(self);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        d.get_string()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc(&self, e: &mut Enc) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(self.len());
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = d.get_len()?;
        let mut out = Vec::with_capacity(d.reservation::<T>(n));
        for _ in 0..n {
            out.push(T::dec(d)?);
        }
        Ok(out)
    }
}

/// A shared value travels as the value: the `Arc` is where the decoded
/// copy lands, so whoever applies it can keep it without copying again.
impl<T: Wire> Wire for Arc<T> {
    fn enc(&self, e: &mut Enc) {
        (**self).enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        T::dec(d).map(Arc::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok((A::dec(d)?, B::dec(d)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
        self.2.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok((A::dec(d)?, B::dec(d)?, C::dec(d)?))
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(self.len());
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = d.get_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::dec(d)?);
        }
        Ok(out)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(self.len());
        for (k, v) in self {
            k.enc(e);
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = d.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::dec(d)?;
            out.insert(k, V::dec(d)?);
        }
        Ok(out)
    }
}

// ---- domain scalar impls --------------------------------------------------

impl Wire for SimTime {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.as_ns());
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(SimTime::from_ns(d.get_u64()?))
    }
}

impl Wire for NodeId {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(self.0);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(NodeId(d.get_u32()?))
    }
}

impl Wire for FlowId {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.0);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(FlowId(d.get_u64()?))
    }
}

impl Wire for Priority {
    fn enc(&self, e: &mut Enc) {
        e.put_u8(self.0);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Priority(d.get_u8()?))
    }
}

impl Wire for Protocol {
    fn enc(&self, e: &mut Enc) {
        e.put_u8(match self {
            Protocol::Tcp => 0,
            Protocol::Udp => 1,
        });
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(Protocol::Tcp),
            1 => Ok(Protocol::Udp),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for EpochRange {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.lo);
        e.put_u64(self.hi);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(EpochRange {
            lo: d.get_u64()?,
            hi: d.get_u64()?,
        })
    }
}

impl Wire for WireError {
    fn enc(&self, e: &mut Enc) {
        match self {
            WireError::Truncated { needed, have } => {
                e.put_u8(0);
                e.put_usize(*needed);
                e.put_usize(*have);
            }
            WireError::BadTag(t) => {
                e.put_u8(1);
                e.put_u8(*t);
            }
            WireError::Oversize(n) => {
                e.put_u8(2);
                e.put_u32(*n);
            }
            WireError::TrailingBytes(n) => {
                e.put_u8(3);
                e.put_usize(*n);
            }
            WireError::BadUtf8 => e.put_u8(4),
            WireError::Io { kind, peer } => {
                e.put_u8(5);
                e.put_str(&format!("{kind:?}"));
                match peer {
                    None => e.put_u8(0),
                    Some(p) => {
                        e.put_u8(1);
                        e.put_str(p);
                    }
                }
            }
            WireError::Remote(msg) => {
                e.put_u8(6);
                e.put_str(msg);
            }
            WireError::SeqGap { expected, got } => {
                e.put_u8(7);
                e.put_u64(*expected);
                e.put_u64(*got);
            }
            WireError::ReplicaLag { applied, published } => {
                e.put_u8(8);
                e.put_u64(*applied);
                e.put_u64(*published);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(WireError::Truncated {
                needed: d.get_usize()?,
                have: d.get_usize()?,
            }),
            1 => Ok(WireError::BadTag(d.get_u8()?)),
            2 => Ok(WireError::Oversize(d.get_u32()?)),
            3 => Ok(WireError::TrailingBytes(d.get_usize()?)),
            4 => Ok(WireError::BadUtf8),
            // An io kind does not round-trip as a kind; it arrives as the
            // remote's description (peer context preserved) — the peer
            // cannot act on the kind anyway, only report it.
            5 => {
                let kind = d.get_string()?;
                let msg = match d.get_u8()? {
                    0 => format!("remote io: {kind}"),
                    1 => format!("remote io at {}: {kind}", d.get_string()?),
                    t => return Err(WireError::BadTag(t)),
                };
                Ok(WireError::Remote(msg))
            }
            6 => Ok(WireError::Remote(d.get_string()?)),
            // Replication-protocol errors round-trip exactly: the owner
            // acts on them (replay from the gap, or re-bootstrap).
            7 => Ok(WireError::SeqGap {
                expected: d.get_u64()?,
                got: d.get_u64()?,
            }),
            8 => Ok(WireError::ReplicaLag {
                applied: d.get_u64()?,
                published: d.get_u64()?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 3);
        e.put_usize(12);
        e.put_bytes(b"abc");
        e.put_str("héllo");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_u16().unwrap(), 0xBEEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.get_usize().unwrap(), 12);
        assert_eq!(d.get_bytes().unwrap(), b"abc");
        assert_eq!(d.get_string().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut e = Enc::new();
        e.put_u64(42);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(matches!(d.get_u64(), Err(WireError::Truncated { .. })));
        }
    }

    #[test]
    fn corrupt_length_cannot_drive_a_huge_allocation() {
        let mut e = Enc::new();
        e.put_usize(usize::MAX / 2); // absurd collection length
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.get_len(), Err(WireError::Truncated { .. })));
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.get_bytes(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn a_count_never_reserves_more_than_the_bytes_behind_it() {
        let bytes = [0u8; 64];
        let d = Dec::new(&bytes);
        assert_eq!(d.reservation::<u8>(1000), 64);
        assert_eq!(d.reservation::<u64>(1000), 8);
        assert_eq!(d.reservation::<u64>(3), 3);
        assert_eq!(d.reservation::<[u8; 100]>(5), 0);
        // A zero-sized element cannot over-reserve; it must not divide by 0.
        assert_eq!(d.reservation::<()>(7), 7);

        // The shared `Vec` impl goes through it: a count that passes
        // `get_len` (64 ≤ 64 bytes) over elements that then fail to
        // decode is a typed error, not a 64 × 16-byte reservation.
        let mut e = Enc::new();
        e.put_usize(64);
        let mut hostile = e.into_bytes();
        hostile.resize(8 + 64, 0xFF);
        assert!(from_bytes::<Vec<Option<u64>>>(&hostile).is_err());
    }

    #[test]
    fn the_usize_sentinel_travels_as_u64_max() {
        let mut e = Enc::new();
        e.put_usize(usize::MAX);
        e.put_usize(5);
        let bytes = e.into_bytes();
        assert_eq!(bytes[..8], [0xFF; 8]);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get_usize().unwrap(), usize::MAX);
        assert_eq!(d.get_usize().unwrap(), 5);
        assert_eq!(
            from_bytes::<(usize, u8, Vec<usize>)>(&to_bytes(&(usize::MAX, 7u8, vec![1usize]))),
            Ok((usize::MAX, 7, vec![1]))
        );
    }

    #[test]
    fn bad_bool_and_trailing_bytes_are_typed() {
        let mut d = Dec::new(&[2]);
        assert_eq!(d.get_bool(), Err(WireError::BadTag(2)));
        let d = Dec::new(&[0, 0]);
        assert_eq!(d.finish(), Err(WireError::TrailingBytes(2)));
    }

    #[test]
    fn frame_roundtrip_over_a_byte_pipe() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, 0x31, b"payload").unwrap();
        write_frame(&mut pipe, 0x07, b"").unwrap();
        let mut r = &pipe[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME).unwrap(),
            (0x31, b"payload".to_vec())
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), (0x07, Vec::new()));
        // Clean EOF surfaces as the io error kind, not a panic.
        assert_eq!(
            read_frame(&mut r, MAX_FRAME),
            Err(WireError::Io {
                kind: std::io::ErrorKind::UnexpectedEof,
                peer: None
            })
        );
    }

    #[test]
    fn oversize_and_zero_length_frames_rejected_before_allocation() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut &pipe[..], MAX_FRAME),
            Err(WireError::Oversize(MAX_FRAME + 1))
        );
        let zero = 0u32.to_le_bytes();
        assert_eq!(
            read_frame(&mut &zero[..], MAX_FRAME),
            Err(WireError::Oversize(0))
        );
    }

    #[test]
    fn truncated_frame_body_is_an_io_error() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, 0x10, b"0123456789").unwrap();
        pipe.truncate(pipe.len() - 4);
        assert_eq!(
            read_frame(&mut &pipe[..], MAX_FRAME),
            Err(WireError::Io {
                kind: std::io::ErrorKind::UnexpectedEof,
                peer: None
            })
        );
    }

    #[test]
    fn varint_and_zigzag_roundtrip_across_the_range() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut e = Enc::new();
        for &v in &cases {
            e.put_varint(v);
        }
        let signed = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for &v in &signed {
            e.put_zigzag(v);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        for &v in &cases {
            assert_eq!(d.get_varint().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(d.get_zigzag().unwrap(), v);
        }
        d.finish().unwrap();
        // Small values really are one byte.
        let mut e = Enc::new();
        e.put_varint(100);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn varint_overflow_and_truncation_are_typed() {
        // Eleven continuation bytes: more than 64 value bits.
        let mut d = Dec::new(&[0x80u8; 11]);
        assert!(matches!(d.get_varint(), Err(WireError::BadTag(_))));
        // A 10th byte carrying more than the one remaining bit.
        let mut bytes = vec![0x80u8; 9];
        bytes.push(0x02);
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.get_varint(), Err(WireError::BadTag(_))));
        // Truncated mid-continuation.
        let mut d = Dec::new(&[0x80]);
        assert!(matches!(d.get_varint(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn frame_into_matches_write_frame_and_reuses_the_buffer() {
        let mut scratch = Vec::new();
        for payload in [&b"abc"[..], b"", b"a much longer payload"] {
            let mut fresh = Vec::new();
            write_frame(&mut fresh, 0x42, payload).unwrap();
            frame_into(&mut scratch, 0x42, payload).unwrap();
            assert_eq!(scratch, fresh);
        }
        // Oversize still refused.
        let huge = vec![0u8; (MAX_FRAME as usize) + 1];
        assert!(matches!(
            frame_into(&mut scratch, 0x01, &huge),
            Err(WireError::Oversize(_))
        ));
    }

    #[test]
    fn peer_context_attaches_once_and_only_to_io() {
        let e = WireError::from(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        let tagged = e.with_peer("127.0.0.1:9999");
        assert_eq!(
            tagged,
            WireError::Io {
                kind: std::io::ErrorKind::ConnectionReset,
                peer: Some("127.0.0.1:9999".into())
            }
        );
        // Innermost attribution wins; re-tagging is a no-op.
        assert_eq!(tagged.clone().with_peer("10.0.0.1:1"), tagged);
        // Non-transport errors pass through untouched.
        let gap = WireError::SeqGap {
            expected: 4,
            got: 9,
        };
        assert_eq!(gap.clone().with_peer("x"), gap);
    }
}
