//! Measurement recorders and post-processing into the paper's plot series.
//!
//! The testbed figures are all derived from two raw streams: packet
//! arrivals at destination hosts (throughput + inter-packet gaps, Fig. 2)
//! and per-flow transmissions at switch egress ports (per-switch throughput,
//! Fig. 3/4). [`TraceSet`] records both; the helpers turn them into
//! fixed-window throughput series and gap series.

use std::collections::HashMap;

use crate::packet::{FlowId, NodeId};
use crate::time::SimTime;

/// One recorded packet observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktEvent {
    pub t: SimTime,
    /// Payload bytes (0 for pure ACKs).
    pub(crate) payload: u32,
}

/// A recorded drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropEvent {
    pub(crate) t: SimTime,
    pub(crate) node: NodeId,
    pub(crate) flow: FlowId,
    /// True when dropped for lack of a route rather than buffer overflow.
    pub(crate) no_route: bool,
}

/// All measurement state for one simulation run.
#[derive(Debug, Default)]
pub struct TraceSet {
    /// Arrivals at each flow's destination host.
    rx: HashMap<FlowId, Vec<PktEvent>>,
    /// Transmissions of each flow at each switch (recorded when the packet
    /// begins serialization on the egress port).
    switch_tx: HashMap<(NodeId, FlowId), Vec<PktEvent>>,
    /// Every drop.
    pub drops: Vec<DropEvent>,
    /// Whether to record per-switch transmissions (off by default: only the
    /// Fig. 3/4 experiments need them).
    pub record_switch_tx: bool,
}

impl TraceSet {
    pub(crate) fn record_rx(&mut self, flow: FlowId, t: SimTime, payload: u32) {
        self.rx
            .entry(flow)
            .or_default()
            .push(PktEvent { t, payload });
    }

    pub(crate) fn record_switch_tx(
        &mut self,
        node: NodeId,
        flow: FlowId,
        t: SimTime,
        payload: u32,
    ) {
        if self.record_switch_tx {
            self.switch_tx
                .entry((node, flow))
                .or_default()
                .push(PktEvent { t, payload });
        }
    }

    pub(crate) fn record_drop(&mut self, t: SimTime, node: NodeId, flow: FlowId, no_route: bool) {
        self.drops.push(DropEvent {
            t,
            node,
            flow,
            no_route,
        });
    }

    /// Arrival events at the destination of `flow`.
    pub fn rx_events(&self, flow: FlowId) -> &[PktEvent] {
        self.rx.get(&flow).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Egress events for `flow` at switch `node`.
    pub fn switch_tx_events(&self, node: NodeId, flow: FlowId) -> &[PktEvent] {
        self.switch_tx
            .get(&(node, flow))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total payload bytes delivered to the destination of `flow`.
    pub fn rx_bytes(&self, flow: FlowId) -> u64 {
        self.rx_events(flow).iter().map(|e| e.payload as u64).sum()
    }

    /// Drops charged to `flow`.
    pub fn drops_for(&self, flow: FlowId) -> usize {
        self.drops.iter().filter(|d| d.flow == flow).count()
    }
}

/// A fixed-window throughput series.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputSeries {
    /// Window length.
    pub(crate) window: SimTime,
    /// Payload Gbps per window, starting at t=0.
    pub gbps: Vec<f64>,
}

impl ThroughputSeries {
    /// Bins `events` into windows of `window` length covering `[0, horizon)`.
    pub fn from_events(events: &[PktEvent], window: SimTime, horizon: SimTime) -> Self {
        assert!(window.as_ns() > 0, "zero window");
        let n = horizon.as_ns().div_ceil(window.as_ns()) as usize;
        let mut bytes = vec![0u64; n];
        for e in events {
            let idx = (e.t.as_ns() / window.as_ns()) as usize;
            if idx < n {
                bytes[idx] += e.payload as u64;
            }
        }
        let gbps = bytes
            .iter()
            .map(|&b| (b as f64 * 8.0) / window.as_ns() as f64) // bits per ns == Gbps
            .collect();
        ThroughputSeries { window, gbps }
    }

    /// Mean throughput over the series.
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f64 {
        if self.gbps.is_empty() {
            0.0
        } else {
            self.gbps.iter().sum::<f64>() / self.gbps.len() as f64
        }
    }

    /// Minimum window throughput (the starvation dips of Fig. 2).
    pub fn min(&self) -> f64 {
        self.gbps.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Longest run of consecutive windows below `threshold_gbps`, in windows.
    pub fn longest_starvation(&self, threshold_gbps: f64) -> usize {
        let mut best = 0;
        let mut cur = 0;
        for &g in &self.gbps {
            if g < threshold_gbps {
                cur += 1;
                best = best.max(cur);
            } else {
                cur = 0;
            }
        }
        best
    }

    /// Mean over windows `[from, to)` (indices clamped).
    #[cfg(test)]
    pub(crate) fn mean_over(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.gbps.len());
        if from >= to {
            return 0.0;
        }
        self.gbps[from..to].iter().sum::<f64>() / (to - from) as f64
    }
}

/// Inter-packet arrival gaps of data packets (payload > 0), as
/// (arrival time, gap since previous arrival) pairs — the right-hand panels
/// of Fig. 2.
pub fn interarrival_gaps(events: &[PktEvent]) -> Vec<(SimTime, SimTime)> {
    let mut out = Vec::new();
    let mut prev: Option<SimTime> = None;
    for e in events.iter().filter(|e| e.payload > 0) {
        if let Some(p) = prev {
            out.push((e.t, e.t.saturating_sub(p)));
        }
        prev = Some(e.t);
    }
    out
}

/// Maximum inter-arrival gap in a window `[from, to)`.
pub fn max_gap_in(gaps: &[(SimTime, SimTime)], from: SimTime, to: SimTime) -> Option<SimTime> {
    gaps.iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|&(_, g)| g)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ms: f64, payload: u32) -> PktEvent {
        PktEvent {
            t: SimTime::from_ms_f64(ms),
            payload,
        }
    }

    #[test]
    fn throughput_binning() {
        // 1250 bytes in each of two 1 ms windows = 0.01 Gbps per window.
        let events = vec![ev(0.1, 1250), ev(1.5, 1250)];
        let s = ThroughputSeries::from_events(&events, SimTime::from_ms(1), SimTime::from_ms(3));
        assert_eq!(s.gbps.len(), 3);
        assert!((s.gbps[0] - 0.01).abs() < 1e-12);
        assert!((s.gbps[1] - 0.01).abs() < 1e-12);
        assert_eq!(s.gbps[2], 0.0);
    }

    #[test]
    fn events_past_horizon_ignored() {
        let events = vec![ev(5.0, 1000)];
        let s = ThroughputSeries::from_events(&events, SimTime::from_ms(1), SimTime::from_ms(2));
        assert_eq!(s.gbps, vec![0.0, 0.0]);
    }

    #[test]
    fn starvation_run_length() {
        let s = ThroughputSeries {
            window: SimTime::from_ms(1),
            gbps: vec![1.0, 0.01, 0.0, 0.02, 1.0, 0.0],
        };
        assert_eq!(s.longest_starvation(0.05), 3);
        assert_eq!(s.longest_starvation(0.001), 1);
    }

    #[test]
    fn mean_and_min() {
        let s = ThroughputSeries {
            window: SimTime::from_ms(1),
            gbps: vec![1.0, 0.5, 0.0],
        };
        assert!((s.mean() - 0.5).abs() < 1e-12);
        assert_eq!(s.min(), 0.0);
        assert!((s.mean_over(0, 2) - 0.75).abs() < 1e-12);
        assert_eq!(s.mean_over(5, 9), 0.0);
    }

    #[test]
    fn gaps_skip_pure_acks() {
        let events = vec![ev(0.0, 100), ev(1.0, 0), ev(2.0, 100), ev(2.5, 100)];
        let gaps = interarrival_gaps(&events);
        assert_eq!(gaps.len(), 2);
        assert_eq!(gaps[0].1, SimTime::from_ms(2));
        assert_eq!(gaps[1].1, SimTime::from_ms_f64(0.5));
        assert_eq!(
            max_gap_in(&gaps, SimTime::ZERO, SimTime::from_ms(3)),
            Some(SimTime::from_ms(2))
        );
    }

    #[test]
    fn traceset_accumulates() {
        let mut t = TraceSet {
            record_switch_tx: true,
            ..Default::default()
        };
        t.record_rx(FlowId(1), SimTime::from_us(5), 100);
        t.record_rx(FlowId(1), SimTime::from_us(9), 200);
        t.record_switch_tx(NodeId(0), FlowId(1), SimTime::from_us(2), 100);
        t.record_drop(SimTime::from_us(3), NodeId(0), FlowId(1), false);
        assert_eq!(t.rx_bytes(FlowId(1)), 300);
        assert_eq!(t.rx_events(FlowId(2)), &[]);
        assert_eq!(t.switch_tx_events(NodeId(0), FlowId(1)).len(), 1);
        assert_eq!(t.drops_for(FlowId(1)), 1);
    }

    #[test]
    fn switch_tx_recording_gated_by_flag() {
        let mut t = TraceSet::default();
        t.record_switch_tx(NodeId(0), FlowId(1), SimTime::ZERO, 1);
        assert!(t.switch_tx_events(NodeId(0), FlowId(1)).is_empty());
    }
}
