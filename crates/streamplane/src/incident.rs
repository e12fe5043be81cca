//! The incident log: a windowed verdict stream with change detection.
//!
//! Every evaluation window, each standing query produces a verdict
//! fingerprint (a stable 64-bit hash of its full response). The log
//! compares it against the previous window's fingerprint and appends an
//! [`Incident`] **only on transitions** — the first observation is
//! recorded as a `Baseline`, after which an unchanged verdict is silent no
//! matter how many windows pass. Because verdicts are bit-identical at any
//! worker count and under any admission batching (the plane's core
//! invariant), the incident stream is too.

use switchpointer::analyzer::Verdict;
use switchpointer::query::QueryResponse;
use telemetry::frame::{Dec, Enc, Wire, WireError};

use crate::SubscriptionId;

/// Why an incident entered the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// First verdict ever observed for the subscription.
    Baseline,
    /// The verdict changed relative to the previous window.
    Transition,
}

impl Wire for IncidentKind {
    fn enc(&self, e: &mut Enc) {
        e.put_u8(match self {
            IncidentKind::Baseline => 0,
            IncidentKind::Transition => 1,
        });
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(IncidentKind::Baseline),
            1 => Ok(IncidentKind::Transition),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// One entry of the incident stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// Evaluation window index (0-based, monotone).
    pub window: u64,
    /// Snapshot epoch horizon the verdict was computed at.
    pub horizon: u64,
    /// The standing query this belongs to.
    pub sub: SubscriptionId,
    pub kind: IncidentKind,
    /// Human-readable one-liner of the new verdict.
    pub summary: String,
    /// Stable fingerprint of the full response (what change detection
    /// compares).
    pub fingerprint: u64,
}

impl Wire for Incident {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.window);
        e.put_u64(self.horizon);
        self.sub.enc(e);
        self.kind.enc(e);
        self.summary.enc(e);
        e.put_u64(self.fingerprint);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Incident {
            window: d.get_u64()?,
            horizon: d.get_u64()?,
            sub: SubscriptionId::dec(d)?,
            kind: IncidentKind::dec(d)?,
            summary: String::dec(d)?,
            fingerprint: d.get_u64()?,
        })
    }
}

/// The change-detection rule itself, shared by the in-process stream
/// plane and the wire front-end (their incident streams are pinned
/// bit-identical, so the rule must live in exactly one place): first
/// sight is a [`IncidentKind::Baseline`], a changed fingerprint is a
/// [`IncidentKind::Transition`], an unchanged one is silent.
pub fn transition_kind(prev: Option<u64>, fp: u64) -> Option<IncidentKind> {
    match prev {
        None => Some(IncidentKind::Baseline),
        Some(p) if p != fp => Some(IncidentKind::Transition),
        Some(_) => None,
    }
}

/// FNV-1a over a byte stream — stable across runs and platforms (unlike
/// `DefaultHasher`, which is seed-randomized by contract even though the
/// std implementation is currently fixed).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The verdict fingerprint of a response: FNV over its full debug render.
/// Responses are deterministic renders of deterministic state, so equal
/// states ⇒ equal fingerprints at any worker count.
pub fn fingerprint(resp: &QueryResponse) -> u64 {
    fnv1a(format!("{resp:?}").as_bytes())
}

/// A short operator-facing line for a response — the incident payload.
pub fn summarize(resp: &QueryResponse) -> String {
    match resp {
        QueryResponse::Contention(d) => {
            let verdict = match d.verdict {
                Verdict::PriorityContention => "priority contention",
                Verdict::Microburst => "microburst",
                Verdict::NoCulprit => "no culprit",
            };
            format!(
                "contention@{}: {verdict}, {} culprit(s) in epochs [{}, {}]",
                d.switch,
                d.culprits.len(),
                d.epochs.lo,
                d.epochs.hi
            )
        }
        QueryResponse::RedLights(d) => format!(
            "red-lights: {} of {} path switches implicated",
            d.implicated.len(),
            d.per_switch.len()
        ),
        QueryResponse::Cascade(d) => format!("cascade: {} stage(s) deep", d.stages.len()),
        QueryResponse::LoadImbalance(d) => match d.separation_bytes {
            Some(b) => format!(
                "load-imbalance: clean flow-size separation at {b} B over {} link(s)",
                d.per_link.len()
            ),
            None => format!(
                "load-imbalance: no separation over {} link(s)",
                d.per_link.len()
            ),
        },
        QueryResponse::TopK(r) => match r.flows.first() {
            Some(&(flow, bytes)) => format!(
                "top-k: {} flow(s), heaviest {flow:?} at {bytes} B",
                r.flows.len()
            ),
            None => "top-k: no flows".to_string(),
        },
        QueryResponse::SilentDrop(d) => match d.suspected_segment {
            Some((a, b)) => format!("silent-drop: suspected segment {a} -> {b}"),
            None => "silent-drop: no loss segment on path".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        // The reference FNV-1a vector for the empty input.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
