//! Measurement recorders and post-processing into the paper's plot series.
//!
//! Every run keeps per-flow totals: packets and payload bytes delivered to
//! each flow's destination, and every drop. The per-packet logs are kept
//! only when a caller asks for them with [`TraceSet::record_packets`]
//! before running, as NS-2 writes a trace file only after `trace-all`:
//! packet arrivals at destination hosts (throughput + inter-packet gaps,
//! Fig. 2 and 4) and per-flow transmissions at switch egress ports
//! (per-switch throughput, Fig. 3). The helpers turn those logs into
//! fixed-window throughput series and gap series.

use std::collections::HashMap;

use crate::packet::{FlowId, NodeId};
use crate::time::SimTime;

/// One recorded packet observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktEvent {
    pub t: SimTime,
    /// Payload bytes (0 for pure ACKs).
    pub payload: u32,
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

/// What was delivered to one flow's destination.
#[derive(Debug, Clone, Copy, Default)]
struct RxTotals {
    packets: u64,
    payload_bytes: u64,
}

/// All measurement state for one simulation run.
#[derive(Debug, Default)]
pub struct TraceSet {
    /// Delivery totals, indexed by the dense flow id; grows on a flow's
    /// first delivery.
    rx_totals: Vec<RxTotals>,
    /// Arrivals at each flow's destination (per-packet log).
    rx: HashMap<FlowId, Vec<PktEvent>>,
    /// Transmissions of each flow at each switch, recorded when the packet
    /// begins serialization on the egress port (per-packet log).
    switch_tx: HashMap<(NodeId, FlowId), Vec<PktEvent>>,
    /// Every drop.
    pub drops: Vec<DropEvent>,
    /// Whether to keep the per-packet logs ([`TraceSet::rx_events`],
    /// [`TraceSet::switch_tx_events`]). Off by default: only the figures
    /// that plot packets (Fig. 2, 3, 4 and the DRR ablation) need them,
    /// and a 15 s monitoring run would log about a million arrivals.
    /// Set it before running; per-flow totals are kept either way.
    pub record_packets: bool,
}

impl TraceSet {
    pub(crate) fn record_rx(&mut self, flow: FlowId, t: SimTime, payload: u32) {
        let idx = flow.0 as usize;
        if idx >= self.rx_totals.len() {
            self.rx_totals.resize(idx + 1, RxTotals::default());
        }
        let totals = &mut self.rx_totals[idx];
        totals.packets += 1;
        totals.payload_bytes += u64::from(payload);
        if self.record_packets {
            self.rx
                .entry(flow)
                .or_default()
                .push(PktEvent { t, payload });
        }
    }

    pub(crate) fn record_switch_tx(
        &mut self,
        node: NodeId,
        flow: FlowId,
        t: SimTime,
        payload: u32,
    ) {
        if self.record_packets {
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

    /// Panics unless the per-packet logs are being kept: an empty log read
    /// off a run that kept none would plot as a flat line.
    #[track_caller]
    fn assert_recording(&self) {
        assert!(
            self.record_packets,
            "per-packet events were not recorded: set `traces.record_packets = true` \
             before running"
        );
    }

    /// Arrival events at the destination of `flow`. Panics unless
    /// [`TraceSet::record_packets`] is set.
    #[track_caller]
    pub fn rx_events(&self, flow: FlowId) -> &[PktEvent] {
        self.assert_recording();
        self.rx.get(&flow).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Egress events for `flow` at switch `node`. Panics unless
    /// [`TraceSet::record_packets`] is set.
    #[track_caller]
    pub fn switch_tx_events(&self, node: NodeId, flow: FlowId) -> &[PktEvent] {
        self.assert_recording();
        self.switch_tx
            .get(&(node, flow))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn rx_totals(&self, flow: FlowId) -> RxTotals {
        self.rx_totals
            .get(flow.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Packets delivered to the destination of `flow` (pure ACKs included).
    pub fn rx_packets(&self, flow: FlowId) -> u64 {
        self.rx_totals(flow).packets
    }

    /// Total payload bytes delivered to the destination of `flow`.
    pub fn rx_bytes(&self, flow: FlowId) -> u64 {
        self.rx_totals(flow).payload_bytes
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
            record_packets: true,
            ..Default::default()
        };
        t.record_rx(FlowId(1), SimTime::from_us(5), 100);
        t.record_rx(FlowId(1), SimTime::from_us(9), 200);
        t.record_switch_tx(NodeId(0), FlowId(1), SimTime::from_us(2), 100);
        t.record_drop(SimTime::from_us(3), NodeId(0), FlowId(1), false);
        assert_eq!(t.rx_bytes(FlowId(1)), 300);
        assert_eq!(t.rx_packets(FlowId(1)), 2);
        assert_eq!(t.rx_events(FlowId(1)).len(), 2);
        assert_eq!(t.rx_events(FlowId(2)), &[]);
        assert_eq!((t.rx_packets(FlowId(2)), t.rx_bytes(FlowId(9))), (0, 0));
        assert_eq!(t.switch_tx_events(NodeId(0), FlowId(1)).len(), 1);
        assert_eq!(t.drops_for(FlowId(1)), 1);
    }

    #[test]
    fn switch_tx_recording_gated_by_flag() {
        let mut t = TraceSet::default();
        t.record_rx(FlowId(1), SimTime::ZERO, 1);
        t.record_switch_tx(NodeId(0), FlowId(1), SimTime::ZERO, 1);
        assert!(t.rx.is_empty() && t.switch_tx.is_empty());
        assert_eq!((t.rx_packets(FlowId(1)), t.rx_bytes(FlowId(1))), (1, 1));
    }

    /// A dumbbell run of one TCP transfer and one UDP burst.
    fn dumbbell_run(record_packets: bool) -> (crate::engine::Simulator, [FlowId; 2]) {
        use crate::engine::{SimConfig, Simulator, TcpFlowSpec};
        use crate::packet::Priority;
        use crate::topology::{Topology, GBPS};
        use crate::udp::UdpFlowSpec;

        let mut sim = Simulator::new(Topology::dumbbell(2, 2, GBPS), SimConfig::default());
        sim.traces.record_packets = record_packets;
        let node = |name: &str| sim.topo().node_by_name(name).unwrap();
        let (l0, l1, r0, r1) = (node("L0"), node("L1"), node("R0"), node("R1"));
        let tcp = sim.add_tcp_flow(TcpFlowSpec::transfer(
            l0,
            r0,
            Priority::LOW,
            SimTime::ZERO,
            300_000,
        ));
        let udp = sim.add_udp_flow(UdpFlowSpec::burst(
            l1,
            r1,
            Priority::HIGH,
            SimTime::from_ms(1),
            SimTime::from_ms(1),
            GBPS,
        ));
        sim.run_to_completion();
        (sim, [tcp, udp])
    }

    #[test]
    fn a_run_without_the_flag_keeps_totals_and_no_packet_events() {
        let (sim, flows) = dumbbell_run(false);
        assert!(sim.traces.rx.is_empty(), "arrivals logged");
        assert!(sim.traces.switch_tx.is_empty(), "egress logged");
        let (logged, _) = dumbbell_run(true);
        for f in flows {
            assert!(sim.traces.rx_packets(f) > 0, "{f} delivered nothing");
            assert_eq!(sim.traces.rx_packets(f), logged.traces.rx_packets(f));
            assert_eq!(sim.traces.rx_bytes(f), logged.traces.rx_bytes(f));
            let events = logged.traces.rx_events(f);
            assert_eq!(events.len() as u64, logged.traces.rx_packets(f));
            let payload: u64 = events.iter().map(|e| u64::from(e.payload)).sum();
            assert_eq!(payload, logged.traces.rx_bytes(f));
        }
        assert!(!logged.traces.switch_tx.is_empty());
    }

    #[test]
    #[should_panic(expected = "set `traces.record_packets = true`")]
    fn reading_arrivals_off_a_run_that_kept_none_panics() {
        let (sim, [tcp, _]) = dumbbell_run(false);
        sim.traces.rx_events(tcp);
    }

    #[test]
    #[should_panic(expected = "set `traces.record_packets = true`")]
    fn reading_egress_off_a_run_that_kept_none_panics() {
        let (sim, [_, udp]) = dumbbell_run(false);
        let switch = sim.topo().node_by_name("SL").unwrap();
        sim.traces.switch_tx_events(switch, udp);
    }
}
