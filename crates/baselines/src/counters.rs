//! SNMP-style per-port byte counters, polled at a fixed interval.
//!
//! §2.1's second claim: "switch counter based techniques would not be able
//! to differentiate between the priority-based and microburst-based flow
//! contention" — both scenarios present the *same* egress byte curve; the
//! distinguishing facts (which flows, what DSCP) are not in the counters.
//! `spexp motivation` quantifies this by comparing the counter series of
//! the two Fig. 2 scenarios.

use std::collections::HashMap;

use netsim::apps::{AppCtx, EgressInfo, SwitchApp};
use netsim::packet::Packet;
use netsim::time::SimTime;

/// Periodically sampled per-port byte counters of one switch.
#[derive(Debug)]
pub struct PortCounters {
    /// Poll interval.
    pub(crate) interval: SimTime,
    /// Accumulating live counters (bytes forwarded per egress port).
    live: HashMap<u16, u64>,
    /// Snapshots: per poll tick, the per-port byte deltas since last tick.
    snapshots: Vec<(SimTime, HashMap<u16, u64>)>,
    last_snapshot: HashMap<u16, u64>,
}

impl PortCounters {
    pub(crate) fn new(interval: SimTime) -> Self {
        PortCounters {
            interval,
            live: HashMap::new(),
            snapshots: Vec::new(),
            last_snapshot: HashMap::new(),
        }
    }

    fn count(&mut self, pkt: &Packet, egress_port: u16) {
        *self.live.entry(egress_port).or_insert(0) += pkt.frame_bytes();
    }

    fn poll(&mut self, now: SimTime) {
        let mut delta = HashMap::new();
        for (&port, &total) in &self.live {
            let prev = self.last_snapshot.get(&port).copied().unwrap_or(0);
            delta.insert(port, total - prev);
        }
        self.last_snapshot = self.live.clone();
        self.snapshots.push((now, delta));
    }

    /// The polled series for one port: bytes per interval.
    pub fn series(&self, port: u16) -> Vec<u64> {
        self.snapshots
            .iter()
            .map(|(_, d)| d.get(&port).copied().unwrap_or(0))
            .collect()
    }

    /// Ports that ever forwarded traffic.
    #[cfg(test)]
    pub(crate) fn ports(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self.live.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of polls taken.
    #[cfg(test)]
    pub(crate) fn polls(&self) -> usize {
        self.snapshots.len()
    }
}

/// Normalized L1 distance between two counter series (0 = identical).
/// The §2.1 indistinguishability metric.
pub fn series_distance(a: &[u64], b: &[u64]) -> f64 {
    let n = a.len().max(b.len());
    if n == 0 {
        return 0.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0) as f64;
        let y = b.get(i).copied().unwrap_or(0) as f64;
        num += (x - y).abs();
        den += x.max(y);
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulator adapter: counts at forward time, polls on a timer.
pub struct PortCountersApp {
    pub(crate) state: std::rc::Rc<std::cell::RefCell<PortCounters>>,
}

impl PortCountersApp {
    pub(crate) fn new(interval: SimTime) -> (Self, std::rc::Rc<std::cell::RefCell<PortCounters>>) {
        let state = std::rc::Rc::new(std::cell::RefCell::new(PortCounters::new(interval)));
        (
            PortCountersApp {
                state: state.clone(),
            },
            state,
        )
    }

    /// Arms the first poll; the simulator must call this via an app timer,
    /// which `install` does for you.
    pub fn install(
        sim: &mut netsim::engine::Simulator,
        switch: netsim::packet::NodeId,
        interval: SimTime,
    ) -> std::rc::Rc<std::cell::RefCell<PortCounters>> {
        let (app, state) = Self::new(interval);
        sim.set_switch_app(switch, Box::new(app));
        sim.schedule_app_timer(switch, interval, 0);
        state
    }
}

impl SwitchApp for PortCountersApp {
    fn on_forward(&mut self, _ctx: &mut AppCtx, pkt: &mut Packet, egress: EgressInfo) {
        self.state.borrow_mut().count(pkt, egress.port);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, _token: u64) {
        let interval = {
            let mut st = self.state.borrow_mut();
            st.poll(ctx.now);
            st.interval
        };
        ctx.schedule_timer(ctx.now + interval, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::{FlowId, NodeId, Priority, Protocol};

    fn pkt(payload: u32) -> Packet {
        Packet {
            id: 0,
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            protocol: Protocol::Udp,
            priority: Priority::LOW,
            payload,
            tcp: None,
            tags: Vec::new(),
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn deltas_reset_per_poll() {
        let mut c = PortCounters::new(SimTime::from_ms(1));
        c.count(&pkt(942), 3); // 1000-byte frame
        c.poll(SimTime::from_ms(1));
        c.count(&pkt(942), 3);
        c.count(&pkt(942), 3);
        c.poll(SimTime::from_ms(2));
        assert_eq!(c.series(3), vec![1_000, 2_000]);
        assert_eq!(c.ports(), vec![3]);
        assert_eq!(c.polls(), 2);
    }

    #[test]
    fn distance_zero_for_identical_and_one_for_disjoint() {
        assert_eq!(series_distance(&[1, 2, 3], &[1, 2, 3]), 0.0);
        assert_eq!(series_distance(&[], &[]), 0.0);
        let d = series_distance(&[10, 0], &[0, 10]);
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distance_handles_unequal_lengths() {
        let d = series_distance(&[5, 5], &[5]);
        assert!(d > 0.0 && d <= 1.0);
    }
}
