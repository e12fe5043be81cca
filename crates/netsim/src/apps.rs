//! Extension hooks for per-node dataplane logic.
//!
//! The SwitchPointer switch component (pointer updates + telemetry tagging)
//! and end-host component (header decoding, flow records, triggers) plug
//! into the simulator through these traits, mirroring how the real system
//! hooks OVS's forwarding pipeline and the end-host packet path.

use crate::packet::{NodeId, Packet};
use crate::time::SimTime;
use crate::topology::LinkId;

/// Context passed to app callbacks.
///
/// `local_time` is the node's own clock — global time plus the node's
/// bounded offset — which is what SwitchPointer's epoch machinery must use
/// (switch clocks "are typically not synchronized perfectly", §1).
#[derive(Debug)]
pub struct AppCtx {
    /// Global simulation time (ground truth; apps should prefer
    /// `local_time` to stay honest about asynchrony).
    pub now: SimTime,
    /// This node's local clock reading.
    pub local_time: SimTime,
    /// The node the callback runs on.
    pub node: NodeId,
    timer_requests: Vec<(SimTime, u64)>,
}

impl AppCtx {
    /// Builds a context. Public so downstream crates can unit-test their
    /// apps without a full simulator.
    pub fn new(now: SimTime, local_time: SimTime, node: NodeId) -> Self {
        AppCtx {
            now,
            local_time,
            node,
            timer_requests: Vec::new(),
        }
    }

    /// Requests a timer callback at absolute global time `at` carrying
    /// `token`. Times in the past fire immediately (at the current instant).
    pub fn schedule_timer(&mut self, at: SimTime, token: u64) {
        self.timer_requests.push((at, token));
    }

    pub(crate) fn take_timer_requests(&mut self) -> Vec<(SimTime, u64)> {
        std::mem::take(&mut self.timer_requests)
    }
}

/// Facts about the egress decision handed to a switch app.
#[derive(Debug, Clone, Copy)]
pub struct EgressInfo {
    /// Egress port index on this switch.
    pub port: u16,
    /// The link that port attaches to (doubles as the CherryPick link id).
    pub link: LinkId,
}

/// Dataplane hook running on a switch.
pub trait SwitchApp {
    /// Invoked for every packet the switch forwards, after routing and
    /// before enqueueing. The app may mutate the packet (push telemetry
    /// tags) and update its own state (pointer hierarchy).
    fn on_forward(&mut self, ctx: &mut AppCtx, pkt: &mut Packet, egress: EgressInfo);

    /// Invoked when a timer scheduled through [`AppCtx::schedule_timer`]
    /// fires.
    fn on_timer(&mut self, _ctx: &mut AppCtx, _token: u64) {}
}

/// Dataplane hook running on a host.
pub trait HostApp {
    /// Invoked for every packet delivered to this host (including pure
    /// ACKs — they traverse switches and carry telemetry like any packet).
    fn on_packet(&mut self, ctx: &mut AppCtx, pkt: &Packet);

    /// Invoked when a timer scheduled through [`AppCtx::schedule_timer`]
    /// fires. SwitchPointer's 1 ms throughput trigger lives here.
    fn on_timer(&mut self, _ctx: &mut AppCtx, _token: u64) {}

    /// Invoked once when the simulation installs the app, so it can arm its
    /// first timer.
    fn on_install(&mut self, _ctx: &mut AppCtx) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_timer_requests() {
        let mut ctx = AppCtx::new(SimTime::from_ms(1), SimTime::from_ms(1), NodeId(0));
        ctx.schedule_timer(SimTime::from_ms(2), 7);
        ctx.schedule_timer(SimTime::from_ms(3), 8);
        let reqs = ctx.take_timer_requests();
        assert_eq!(
            reqs,
            vec![(SimTime::from_ms(2), 7), (SimTime::from_ms(3), 8)]
        );
        assert!(ctx.take_timer_requests().is_empty());
    }
}
