//! A compact NewReno-style TCP model.
//!
//! The paper's contention experiments (Fig. 2–4) need TCP that exhibits the
//! *qualitative* Linux behaviours: ACK-clocked line-rate transfer, loss
//! recovery via duplicate ACKs, retransmission timeouts with exponential
//! backoff, and throughput collapse when a strict-priority queue starves the
//! flow. This module implements exactly that subset:
//!
//! * slow start / congestion avoidance / fast retransmit / fast recovery
//!   with NewReno partial-ACK retransmission,
//! * RTT estimation per RFC 6298 (with Karn's rule) and a configurable
//!   minimum RTO — the experiments scale `min_rto` down with their
//!   millisecond timescales exactly as datacenter kernels tune it down,
//! * a receive window bound (`rwnd`), cumulative ACKs on every segment, and
//!   out-of-order buffering at the receiver.
//!
//! The connection object holds *both* endpoints' state; the simulator feeds
//! it data segments at the destination host and ACKs at the source host.
//! Emission is expressed as `TcpAction`s the engine turns into packets.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// Tunable TCP parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment payload bytes.
    pub mss: u32,
    /// Initial congestion window, in segments.
    pub init_cwnd_segments: u32,
    /// Receive window bound in bytes (caps in-flight data).
    pub rwnd: u64,
    /// Initial RTO before any RTT sample exists.
    pub initial_rto: SimTime,
    /// Lower bound on the RTO.
    pub min_rto: SimTime,
    /// Upper bound on the RTO (backoff cap).
    pub max_rto: SimTime,
    /// Enable DCTCP: react to ECN marks with a fractional window reduction
    /// proportional to the marked fraction (requires an ECN-marking queue,
    /// [`crate::queue::QueueConfig::FifoEcn`]).
    pub dctcp: bool,
    /// DCTCP's g (EWMA gain for the marked-fraction estimate).
    pub dctcp_g: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            init_cwnd_segments: 10,
            rwnd: 256 * 1024,
            // Datacenter-tuned timers: the paper's events play out over
            // single-digit milliseconds.
            initial_rto: SimTime::from_ms(10),
            min_rto: SimTime::from_ms(10),
            max_rto: SimTime::from_secs(1),
            dctcp: false,
            dctcp_g: 1.0 / 16.0,
        }
    }
}

/// What the connection wants the engine to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TcpAction {
    /// Transmit a data segment `[seq, seq+len)` from the source host.
    SendData { seq: u64, len: u32 },
    /// Transmit a cumulative ACK from the destination host. `ece` echoes
    /// the acknowledged segment's CE mark (DCTCP-style immediate echo —
    /// valid here because every segment is individually acknowledged).
    SendAck { ack: u64, ece: bool },
    /// (Re-)arm the retransmission timer at absolute time `at`; the engine
    /// must deliver `on_rto` with the same `gen` (stale generations are
    /// ignored — this is how re-arming cancels older timers).
    ArmRto { at: SimTime, gen: u64 },
}

/// Bidirectional state for one TCP flow (data flows src -> dst only; the
/// reverse path carries pure ACKs).
#[derive(Debug)]
pub struct TcpConn {
    cfg: TcpConfig,

    // ---- sender state ----
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u64,
    /// Absolute byte limit of the application stream (None = unbounded).
    bytes_limit: Option<u64>,
    /// No new data generated at or after this time.
    stop_at: Option<SimTime>,
    /// Frozen stream limit once `stop_at` passes.
    stopped_limit: Option<u64>,
    // RTO machinery
    rto: SimTime,
    srtt_ns: Option<f64>,
    rttvar_ns: f64,
    rto_gen: u64,
    rtt_probe: Option<(u64, SimTime)>,
    // DCTCP state (active when cfg.dctcp)
    dctcp_alpha: f64,
    dctcp_window_end: u64,
    dctcp_acked: u64,
    dctcp_marked: u64,
    // counters
    pub(crate) retransmits: u64,
    pub(crate) timeouts: u64,
    /// ECN-echo ACK bytes observed (diagnostics).
    pub ecn_echoed_bytes: u64,

    // ---- receiver state ----
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u64>, // start -> end (exclusive), disjoint, sorted
    /// In-order bytes delivered to the receiving application.
    pub delivered: u64,
    /// Time the final byte (of a bounded stream) was delivered.
    pub finished_at: Option<SimTime>,
}

impl TcpConn {
    /// Creates a connection. `bytes` bounds the stream (e.g. the 2 MB
    /// transfer of Fig. 4); `stop_at` bounds it in time (e.g. the 100 ms
    /// flow of Fig. 2).
    pub(crate) fn new(cfg: TcpConfig, bytes: Option<u64>, stop_at: Option<SimTime>) -> Self {
        TcpConn {
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: (cfg.init_cwnd_segments * cfg.mss) as f64,
            ssthresh: f64::INFINITY,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            bytes_limit: bytes,
            stop_at,
            stopped_limit: None,
            rto: cfg.initial_rto,
            srtt_ns: None,
            rttvar_ns: 0.0,
            rto_gen: 0,
            rtt_probe: None,
            dctcp_alpha: 0.0,
            dctcp_window_end: 0,
            dctcp_acked: 0,
            dctcp_marked: 0,
            retransmits: 0,
            timeouts: 0,
            ecn_echoed_bytes: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            delivered: 0,
            finished_at: None,
        }
    }

    /// Sender's current congestion window in bytes (for tests/traces).
    #[cfg(test)]
    pub(crate) fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current RTO (for tests).
    #[cfg(test)]
    pub(crate) fn current_rto(&self) -> SimTime {
        self.rto
    }

    /// Smoothed RTT estimate in nanoseconds, if any sample was taken.
    #[cfg(test)]
    pub(crate) fn srtt_ns(&self) -> Option<f64> {
        self.srtt_ns
    }

    /// True once a bounded stream has been fully delivered.
    pub fn is_complete(&self) -> bool {
        self.finished_at.is_some()
    }

    // ------------------------------------------------------------------
    // Sender side
    // ------------------------------------------------------------------

    /// The end of the byte stream the application will ever offer,
    /// accounting for time-bounded flows.
    fn stream_limit(&mut self, now: SimTime) -> u64 {
        if let Some(l) = self.stopped_limit {
            return l;
        }
        if let Some(stop) = self.stop_at {
            if now >= stop {
                // Freeze: nothing beyond what we already sent.
                self.stopped_limit = Some(self.snd_nxt);
                return self.snd_nxt;
            }
        }
        self.bytes_limit.unwrap_or(u64::MAX)
    }

    fn window(&self) -> u64 {
        (self.cwnd as u64).min(self.cfg.rwnd)
    }

    fn inflight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Emits as many new segments as the window allows.
    fn send_available(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        let limit = self.stream_limit(now);
        while self.snd_nxt < limit && self.inflight() < self.window() {
            let len = (self.cfg.mss as u64)
                .min(limit - self.snd_nxt)
                .min(self.window() - self.inflight()) as u32;
            if len == 0 {
                break;
            }
            out.push(TcpAction::SendData {
                seq: self.snd_nxt,
                len,
            });
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt + len as u64, now));
            }
            self.snd_nxt += len as u64;
        }
    }

    fn arm_rto(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        if self.snd_una < self.snd_nxt {
            self.rto_gen += 1;
            out.push(TcpAction::ArmRto {
                at: now + self.rto,
                gen: self.rto_gen,
            });
        }
    }

    /// Starts the flow: opening burst plus timer.
    pub(crate) fn on_start(&mut self, now: SimTime) -> Vec<TcpAction> {
        let mut out = Vec::new();
        self.send_available(now, &mut out);
        self.arm_rto(now, &mut out);
        out
    }

    /// Handles a cumulative ACK arriving at the sender (no ECN echo).
    #[cfg(test)]
    pub(crate) fn on_ack(&mut self, now: SimTime, ack: u64) -> Vec<TcpAction> {
        self.on_ack_ecn(now, ack, false)
    }

    /// Handles a cumulative ACK with an ECN-echo flag (DCTCP path).
    pub(crate) fn on_ack_ecn(&mut self, now: SimTime, ack: u64, ece: bool) -> Vec<TcpAction> {
        let mut out = Vec::new();
        if ack > self.snd_nxt {
            // Corrupt/impossible — ignore rather than poison state.
            return out;
        }
        if ack > self.snd_una {
            let acked = ack - self.snd_una;
            self.snd_una = ack;
            self.dup_acks = 0;

            if self.cfg.dctcp {
                self.dctcp_acked += acked;
                if ece {
                    self.dctcp_marked += acked;
                    self.ecn_echoed_bytes += acked;
                }
                if ack >= self.dctcp_window_end {
                    let f = if self.dctcp_acked > 0 {
                        self.dctcp_marked as f64 / self.dctcp_acked as f64
                    } else {
                        0.0
                    };
                    self.dctcp_alpha =
                        (1.0 - self.cfg.dctcp_g) * self.dctcp_alpha + self.cfg.dctcp_g * f;
                    if self.dctcp_marked > 0 && !self.in_recovery {
                        // DCTCP's gentle reduction, once per window.
                        self.cwnd =
                            (self.cwnd * (1.0 - self.dctcp_alpha / 2.0)).max(self.cfg.mss as f64);
                        self.ssthresh = self.cwnd;
                    }
                    self.dctcp_acked = 0;
                    self.dctcp_marked = 0;
                    self.dctcp_window_end = self.snd_nxt;
                }
            }

            // RTT sampling (Karn: the probe is cleared on any retransmission).
            if let Some((end, sent)) = self.rtt_probe {
                if ack >= end {
                    self.rtt_sample(now.saturating_sub(sent));
                    self.rtt_probe = None;
                }
            }

            if self.in_recovery {
                if ack >= self.recover {
                    // Full recovery: deflate to ssthresh.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ACK: retransmit the next hole,
                    // stay in recovery.
                    let len = (self.cfg.mss as u64).min(self.snd_nxt - self.snd_una) as u32;
                    if len > 0 {
                        out.push(TcpAction::SendData {
                            seq: self.snd_una,
                            len,
                        });
                        self.retransmits += 1;
                        self.rtt_probe = None;
                    }
                }
            } else {
                // Window growth.
                if self.cwnd < self.ssthresh {
                    self.cwnd += acked as f64; // slow start
                } else {
                    self.cwnd += (self.cfg.mss as f64 * self.cfg.mss as f64) / self.cwnd;
                    // CA
                }
            }
            self.arm_rto(now, &mut out);
            self.send_available(now, &mut out);
        } else if self.snd_nxt > self.snd_una && ack == self.snd_una {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery {
                // Fast retransmit + fast recovery.
                self.enter_recovery(now);
                let len = (self.cfg.mss as u64).min(self.snd_nxt - self.snd_una) as u32;
                out.push(TcpAction::SendData {
                    seq: self.snd_una,
                    len,
                });
                self.retransmits += 1;
                self.rtt_probe = None;
                self.arm_rto(now, &mut out);
            } else if self.dup_acks > 3 && self.in_recovery {
                // Window inflation lets new data flow during recovery.
                self.cwnd += self.cfg.mss as f64;
                self.send_available(now, &mut out);
            }
        }
        out
    }

    fn enter_recovery(&mut self, _now: SimTime) {
        self.ssthresh = (self.inflight() as f64 / 2.0).max((2 * self.cfg.mss) as f64);
        self.cwnd = self.ssthresh + (3 * self.cfg.mss) as f64;
        self.in_recovery = true;
        self.recover = self.snd_nxt;
    }

    /// Handles a retransmission-timer expiry. `gen` must match the latest
    /// [`TcpAction::ArmRto`]; stale timers are no-ops.
    pub(crate) fn on_rto(&mut self, now: SimTime, gen: u64) -> Vec<TcpAction> {
        let mut out = Vec::new();
        if gen != self.rto_gen || self.snd_una >= self.snd_nxt {
            return out;
        }
        self.timeouts += 1;
        self.ssthresh = (self.inflight() as f64 / 2.0).max((2 * self.cfg.mss) as f64);
        self.cwnd = self.cfg.mss as f64;
        self.in_recovery = false;
        self.dup_acks = 0;
        self.rtt_probe = None;
        // Exponential backoff.
        self.rto = SimTime::from_ns((self.rto.as_ns() * 2).min(self.cfg.max_rto.as_ns()));
        // Go-back-N: rewind and retransmit from the hole.
        self.snd_nxt = self.snd_una;
        self.retransmits += 1;
        self.send_available(now, &mut out);
        self.arm_rto(now, &mut out);
        out
    }

    fn rtt_sample(&mut self, rtt: SimTime) {
        let r = rtt.as_ns() as f64;
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (srtt - r).abs();
                self.srtt_ns = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto_ns = self.srtt_ns.unwrap() + 4.0 * self.rttvar_ns;
        let clamped = (rto_ns as u64)
            .max(self.cfg.min_rto.as_ns())
            .min(self.cfg.max_rto.as_ns());
        self.rto = SimTime::from_ns(clamped);
    }

    // ------------------------------------------------------------------
    // Receiver side
    // ------------------------------------------------------------------

    /// Handles a data segment arriving at the receiver; returns the ACK to
    /// send (every segment is acknowledged — no delayed ACKs, which Linux
    /// also disables under these microsecond RTTs via quickack).
    #[cfg(test)]
    pub(crate) fn on_data(&mut self, now: SimTime, seq: u64, len: u32) -> Vec<TcpAction> {
        self.on_data_ecn(now, seq, len, false)
    }

    /// Like [`TcpConn::on_data`], echoing the segment's CE mark on the ACK.
    pub(crate) fn on_data_ecn(
        &mut self,
        now: SimTime,
        seq: u64,
        len: u32,
        ce: bool,
    ) -> Vec<TcpAction> {
        let end = seq + len as u64;
        if end > self.rcv_nxt {
            if seq <= self.rcv_nxt {
                // In-order (possibly partially duplicate): advance.
                self.advance_rcv(end, now);
            } else {
                // Out of order: buffer the interval.
                self.insert_ooo(seq, end);
            }
        }
        vec![TcpAction::SendAck {
            ack: self.rcv_nxt,
            ece: ce,
        }]
    }

    /// The sender's current DCTCP marked-fraction estimate (diagnostics).
    pub fn dctcp_alpha(&self) -> f64 {
        self.dctcp_alpha
    }

    fn advance_rcv(&mut self, to: u64, now: SimTime) {
        let before = self.rcv_nxt;
        self.rcv_nxt = self.rcv_nxt.max(to);
        // Drain any contiguous buffered intervals.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s <= self.rcv_nxt {
                self.ooo.pop_first();
                self.rcv_nxt = self.rcv_nxt.max(e);
            } else {
                break;
            }
        }
        self.delivered += self.rcv_nxt - before;
        if let Some(limit) = self.bytes_limit {
            if self.rcv_nxt >= limit && self.finished_at.is_none() {
                self.finished_at = Some(now);
            }
        }
    }

    fn insert_ooo(&mut self, mut s: u64, mut e: u64) {
        // Merge with overlapping/adjacent intervals to keep the map disjoint.
        let overlapping: Vec<u64> = self
            .ooo
            .range(..=e)
            .filter(|&(&os, &oe)| oe >= s && os <= e)
            .map(|(&os, _)| os)
            .collect();
        for os in overlapping {
            let oe = self.ooo.remove(&os).unwrap();
            s = s.min(os);
            e = e.max(oe);
        }
        self.ooo.insert(s, e);
    }

    /// Bytes the receiver has buffered out of order (diagnostics).
    #[cfg(test)]
    pub(crate) fn ooo_bytes(&self) -> u64 {
        self.ooo.iter().map(|(&s, &e)| e - s).sum()
    }

    /// Next in-order byte the receiver expects (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn rcv_next(&self) -> u64 {
        self.rcv_nxt
    }

    /// Highest sequence sent so far (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn snd_next(&self) -> u64 {
        self.snd_nxt
    }

    /// Oldest unacknowledged byte (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn snd_unacked(&self) -> u64 {
        self.snd_una
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn(bytes: Option<u64>) -> TcpConn {
        TcpConn::new(TcpConfig::default(), bytes, None)
    }

    fn data_actions(actions: &[TcpAction]) -> Vec<(u64, u32)> {
        actions
            .iter()
            .filter_map(|a| match a {
                TcpAction::SendData { seq, len } => Some((*seq, *len)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn start_sends_initial_window() {
        let mut c = conn(Some(1_000_000));
        let acts = c.on_start(SimTime::ZERO);
        let data = data_actions(&acts);
        assert_eq!(data.len(), 10, "initial cwnd = 10 segments");
        assert_eq!(data[0], (0, 1448));
        assert_eq!(data[1].0, 1448);
        assert!(acts.iter().any(|a| matches!(a, TcpAction::ArmRto { .. })));
    }

    #[test]
    fn small_flow_sends_exact_bytes() {
        let mut c = conn(Some(2_000));
        let acts = c.on_start(SimTime::ZERO);
        let data = data_actions(&acts);
        assert_eq!(data, vec![(0, 1448), (1448, 552)]);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = conn(Some(10_000_000));
        c.on_start(SimTime::ZERO);
        let before = c.cwnd_bytes();
        // ACK the whole initial window.
        let acts = c.on_ack(SimTime::from_us(100), 10 * 1448);
        assert!(c.cwnd_bytes() >= before * 2 - 1448);
        // And new data flows.
        assert!(!data_actions(&acts).is_empty());
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut c = conn(Some(10_000_000));
        c.on_start(SimTime::ZERO);
        let t = SimTime::from_us(50);
        assert!(data_actions(&c.on_ack(t, 0)).is_empty());
        assert!(data_actions(&c.on_ack(t, 0)).is_empty());
        let acts = c.on_ack(t, 0);
        let data = data_actions(&acts);
        assert_eq!(data, vec![(0, 1448)], "retransmit the lost head segment");
        assert_eq!(c.retransmits, 1);
    }

    #[test]
    fn recovery_exits_at_recover_point_and_deflates() {
        let mut c = conn(Some(10_000_000));
        c.on_start(SimTime::ZERO);
        let t = SimTime::from_us(50);
        let recover = c.snd_next();
        for _ in 0..3 {
            c.on_ack(t, 0);
        }
        let inflated = c.cwnd_bytes();
        // Full ACK of everything sent before loss.
        c.on_ack(SimTime::from_us(80), recover);
        assert!(
            c.cwnd_bytes() < inflated,
            "window deflates on recovery exit"
        );
        assert!(!c.in_recovery);
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut c = conn(Some(10_000_000));
        c.on_start(SimTime::ZERO);
        let t = SimTime::from_us(50);
        for _ in 0..3 {
            c.on_ack(t, 0);
        }
        assert!(c.in_recovery);
        // Partial ACK covering only the first segment.
        let acts = c.on_ack(SimTime::from_us(60), 1448);
        let data = data_actions(&acts);
        assert!(
            data.iter().any(|&(seq, _)| seq == 1448),
            "partial ACK must retransmit at the new hole: {data:?}"
        );
        assert!(c.in_recovery, "stay in recovery until recover point");
    }

    #[test]
    fn rto_rewinds_and_backs_off() {
        let mut c = conn(Some(10_000_000));
        let acts = c.on_start(SimTime::ZERO);
        let gen = acts
            .iter()
            .find_map(|a| match a {
                TcpAction::ArmRto { gen, .. } => Some(*gen),
                _ => None,
            })
            .unwrap();
        let rto_before = c.current_rto();
        let acts = c.on_rto(SimTime::from_ms(10), gen);
        let data = data_actions(&acts);
        assert_eq!(data[0], (0, 1448), "go-back-N from snd_una");
        assert_eq!(data.len(), 1, "cwnd collapsed to 1 MSS");
        assert_eq!(c.current_rto().as_ns(), rto_before.as_ns() * 2);
        assert_eq!(c.timeouts, 1);
    }

    #[test]
    fn stale_rto_generation_is_ignored() {
        let mut c = conn(Some(10_000_000));
        c.on_start(SimTime::ZERO);
        // Arm-generation 1 exists; a gen-0 timer must do nothing.
        let acts = c.on_rto(SimTime::from_ms(10), 0);
        assert!(acts.is_empty());
        assert_eq!(c.timeouts, 0);
    }

    #[test]
    fn receiver_acks_cumulatively_and_buffers_ooo() {
        let mut c = conn(Some(10_000_000));
        let t = SimTime::ZERO;
        assert_eq!(
            c.on_data(t, 0, 1000),
            vec![TcpAction::SendAck {
                ack: 1000,
                ece: false
            }]
        );
        // Gap: segment [2000, 3000) arrives early.
        assert_eq!(
            c.on_data(t, 2000, 1000),
            vec![TcpAction::SendAck {
                ack: 1000,
                ece: false
            }]
        );
        assert_eq!(c.ooo_bytes(), 1000);
        // Fill the hole: cumulative ACK jumps over the buffered interval.
        assert_eq!(
            c.on_data(t, 1000, 1000),
            vec![TcpAction::SendAck {
                ack: 3000,
                ece: false
            }]
        );
        assert_eq!(c.ooo_bytes(), 0);
        assert_eq!(c.delivered, 3000);
    }

    #[test]
    fn duplicate_data_does_not_double_count() {
        let mut c = conn(None);
        let t = SimTime::ZERO;
        c.on_data(t, 0, 1000);
        c.on_data(t, 0, 1000);
        assert_eq!(c.delivered, 1000);
        assert_eq!(c.rcv_next(), 1000);
    }

    #[test]
    fn overlapping_ooo_intervals_merge() {
        let mut c = conn(None);
        let t = SimTime::ZERO;
        c.on_data(t, 3000, 1000);
        c.on_data(t, 3500, 1000);
        c.on_data(t, 2000, 1200); // overlaps the merged block's left edge
        assert_eq!(c.ooo_bytes(), 2500); // [2000,4500)
        c.on_data(t, 0, 2000);
        assert_eq!(c.rcv_next(), 4500);
    }

    #[test]
    fn bounded_flow_completes() {
        let mut c = conn(Some(2000));
        c.on_data(SimTime::from_us(10), 0, 1448);
        assert!(!c.is_complete());
        c.on_data(SimTime::from_us(20), 1448, 552);
        assert!(c.is_complete());
        assert_eq!(c.finished_at, Some(SimTime::from_us(20)));
    }

    #[test]
    fn time_bounded_flow_stops_offering_data() {
        let mut c = TcpConn::new(TcpConfig::default(), None, Some(SimTime::from_ms(1)));
        c.on_start(SimTime::ZERO);
        let sent = c.snd_next();
        // Past the stop time: ACKs open the window but no new data appears.
        let acts = c.on_ack(SimTime::from_ms(2), sent);
        assert!(data_actions(&acts).is_empty());
    }

    #[test]
    fn rwnd_caps_inflight() {
        let cfg = TcpConfig {
            rwnd: 4 * 1448,
            init_cwnd_segments: 100,
            ..TcpConfig::default()
        };
        let mut c = TcpConn::new(cfg, Some(10_000_000), None);
        let acts = c.on_start(SimTime::ZERO);
        assert_eq!(data_actions(&acts).len(), 4, "rwnd limits the burst");
    }

    #[test]
    fn rtt_estimator_converges_and_clamps() {
        let mut c = conn(Some(100_000_000));
        c.on_start(SimTime::ZERO);
        // ACK segment-by-segment with a 100 us RTT.
        let mut t = SimTime::from_us(100);
        for i in 1..=10u64 {
            c.on_ack(t, i * 1448);
            t += SimTime::from_us(10);
        }
        let srtt = c.srtt_ns().unwrap();
        assert!(srtt > 0.0);
        // min_rto clamp: srtt is ~100us but rto must be >= 10ms default.
        assert!(c.current_rto() >= TcpConfig::default().min_rto);
    }

    #[test]
    fn sequence_conservation_under_random_ack_patterns() {
        // Delivered bytes never exceed sent bytes, snd_una <= snd_nxt.
        let mut c = conn(Some(1_000_000));
        let mut acts = c.on_start(SimTime::ZERO);
        let mut t = SimTime::from_us(1);
        for round in 0..200u64 {
            // ACK something plausible (sometimes duplicate, sometimes new).
            let ack = (round * 997) % (c.snd_next() + 1);
            acts.extend(c.on_ack(t, ack));
            assert!(c.snd_unacked() <= c.snd_next());
            t += SimTime::from_us(7);
        }
    }
}
