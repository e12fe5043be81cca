//! The SwitchPointer switch component (§4.1).
//!
//! Runs inside the simulator's forwarding pipeline via [`netsim::apps::SwitchApp`].
//! Per forwarded packet it:
//!
//! 1. reads the switch's *local* clock (bounded offset from global time) and
//!    derives the current epoch;
//! 2. updates the hierarchical pointer structure with the packet's
//!    destination (one MPHF evaluation, k bit writes);
//! 3. embeds telemetry into the header: in commodity mode the designated
//!    tagging switch pushes the (linkID, epochID) double tag; in INT mode
//!    every switch appends a (switchID, epochID) pair.
//!
//! The component's state is shared (`Rc<RefCell<…>>`) between the app
//! installed in the simulator and the analyzer, mirroring the real system
//! where the analyzer pulls pointers out of switch SRAM over the control
//! channel.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use mphf::Mphf;
use netsim::apps::{AppCtx, EgressInfo, SwitchApp};
use netsim::packet::{NodeId, Packet};
use telemetry::{wire, EmbedMode, EpochParams, PathCodec};

use crate::pointer::{PointerConfig, PointerHierarchy};

/// Shared, queryable state of one SwitchPointer switch.
#[derive(Debug)]
pub struct SwitchComponent {
    /// The switch this component runs on.
    pub(crate) switch: NodeId,
    /// Epoch timing parameters (α, ε, Δ).
    pub(crate) params: EpochParams,
    /// Telemetry embedding mode.
    pub(crate) mode: EmbedMode,
    /// The hierarchical pointer structure.
    pub pointers: PointerHierarchy,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets this switch tagged.
    pub tagged: u64,
    codec: Rc<PathCodec>,
}

impl SwitchComponent {
    pub(crate) fn new(
        switch: NodeId,
        params: EpochParams,
        mode: EmbedMode,
        pointer_cfg: PointerConfig,
        mphf: Arc<Mphf>,
        codec: Rc<PathCodec>,
    ) -> Self {
        SwitchComponent {
            switch,
            params,
            mode,
            pointers: PointerHierarchy::new(pointer_cfg, mphf),
            forwarded: 0,
            tagged: 0,
            codec,
        }
    }

    /// The per-packet dataplane work.
    fn process(&mut self, ctx: &AppCtx, pkt: &mut Packet, egress: EgressInfo) {
        self.forwarded += 1;
        let epoch = self.params.epoch_of(ctx.local_time);
        self.pointers.update(pkt.dst.addr(), epoch);
        match self.mode {
            EmbedMode::Commodity => {
                if !wire::has_link_tag(pkt) && self.codec.should_tag(self.switch, pkt) {
                    wire::embed_commodity(pkt, egress.link.0, epoch);
                    self.tagged += 1;
                }
            }
            EmbedMode::Int => {
                wire::embed_int_hop(pkt, self.switch.0, epoch);
                self.tagged += 1;
            }
        }
    }
}

/// Shared handle the analyzer keeps.
pub(crate) type SwitchHandle = Rc<RefCell<SwitchComponent>>;

/// The simulator-facing adapter.
pub(crate) struct SwitchPointerApp {
    state: SwitchHandle,
}

impl SwitchPointerApp {
    /// Wraps shared switch state as an installable app; returns (app, handle).
    pub(crate) fn new(component: SwitchComponent) -> (Self, SwitchHandle) {
        let state = Rc::new(RefCell::new(component));
        (
            SwitchPointerApp {
                state: state.clone(),
            },
            state,
        )
    }
}

impl SwitchApp for SwitchPointerApp {
    fn on_forward(&mut self, ctx: &mut AppCtx, pkt: &mut Packet, egress: EgressInfo) {
        self.state.borrow_mut().process(ctx, pkt, egress);
    }
}

/// Installs SwitchPointer on every switch of a simulator and returns the
/// handles keyed by switch id (what the analyzer consumes).
pub(crate) fn install_on_all_switches(
    sim: &mut netsim::engine::Simulator,
    params: EpochParams,
    mode: EmbedMode,
    pointer_cfg: PointerConfig,
    mphf: Arc<Mphf>,
    codec: Rc<PathCodec>,
) -> std::collections::HashMap<NodeId, SwitchHandle> {
    let switches: Vec<NodeId> = sim.topo().switches().to_vec();
    let mut handles = std::collections::HashMap::new();
    for sw in switches {
        let comp = SwitchComponent::new(sw, params, mode, pointer_cfg, mphf.clone(), codec.clone());
        let (app, handle) = SwitchPointerApp::new(comp);
        sim.set_switch_app(sw, Box::new(app));
        handles.insert(sw, handle);
    }
    handles
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::engine::{SimConfig, Simulator};
    use netsim::packet::Priority;
    use netsim::time::SimTime;
    use netsim::topology::{Topology, GBPS};
    use netsim::udp::UdpFlowSpec;

    fn setup(
        topo: Topology,
        mode: EmbedMode,
    ) -> (Simulator, std::collections::HashMap<NodeId, SwitchHandle>) {
        let mut sim = Simulator::new(topo, SimConfig::default());
        let addrs: Vec<u64> = sim.topo().hosts().iter().map(|h| h.addr()).collect();
        let mphf = Arc::new(Mphf::build(&addrs).unwrap());
        let codec = Rc::new(PathCodec::new(sim.topo().clone()));
        let params = EpochParams {
            alpha: SimTime::from_ms(1),
            epsilon: SimTime::from_ms(1),
            delta: SimTime::from_ms(2),
        };
        let cfg = PointerConfig {
            n_hosts: addrs.len(),
            alpha: 10,
            k: 3,
        };
        let handles = install_on_all_switches(&mut sim, params, mode, cfg, mphf, codec);
        (sim, handles)
    }

    #[test]
    fn pointers_record_destinations_per_epoch() {
        let (mut sim, handles) = setup(Topology::chain(3, 2, GBPS), EmbedMode::Commodity);
        let a = sim.topo().node_by_name("A").unwrap();
        let f = sim.topo().node_by_name("F").unwrap();
        let s2 = sim.topo().node_by_name("S2").unwrap();
        sim.add_udp_flow(UdpFlowSpec {
            src: a,
            dst: f,
            priority: Priority::LOW,
            start: SimTime::from_ms(2),
            duration: SimTime::from_ms(1),
            rate_bps: 100_000_000,
            payload_bytes: 1000,
        });
        sim.run_to_completion();
        let s2c = handles[&s2].borrow();
        assert!(s2c.forwarded > 0);
        // Epoch 2 (α = 1 ms, flow ran 2..3 ms) must contain F.
        assert!(s2c.pointers.contains(f.addr(), 2));
        assert!(
            !s2c.pointers.contains(a.addr(), 2),
            "A is not a destination"
        );
    }

    #[test]
    fn commodity_mode_tags_exactly_once_per_packet() {
        let (mut sim, handles) = setup(Topology::chain(3, 2, GBPS), EmbedMode::Commodity);
        let a = sim.topo().node_by_name("A").unwrap();
        let f = sim.topo().node_by_name("F").unwrap();
        let flow = sim.add_udp_flow(UdpFlowSpec {
            src: a,
            dst: f,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(1),
            rate_bps: 100_000_000,
            payload_bytes: 1000,
        });
        sim.run_to_completion();
        let delivered = sim.traces.rx_packets(flow);
        let s1 = sim.topo().node_by_name("S1").unwrap();
        let s2 = sim.topo().node_by_name("S2").unwrap();
        let s3 = sim.topo().node_by_name("S3").unwrap();
        assert_eq!(handles[&s1].borrow().tagged, delivered, "S1 tags A->F");
        assert_eq!(handles[&s2].borrow().tagged, 0);
        assert_eq!(handles[&s3].borrow().tagged, 0);
    }

    #[test]
    fn int_mode_every_switch_tags() {
        let (mut sim, handles) = setup(Topology::chain(3, 2, GBPS), EmbedMode::Int);
        let a = sim.topo().node_by_name("A").unwrap();
        let f = sim.topo().node_by_name("F").unwrap();
        let flow = sim.add_udp_flow(UdpFlowSpec {
            src: a,
            dst: f,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(1),
            rate_bps: 100_000_000,
            payload_bytes: 1000,
        });
        sim.run_to_completion();
        let delivered = sim.traces.rx_packets(flow);
        for name in ["S1", "S2", "S3"] {
            let sw = sim.topo().node_by_name(name).unwrap();
            assert_eq!(handles[&sw].borrow().tagged, delivered, "{name}");
        }
    }

    #[test]
    fn local_clock_offset_shifts_recorded_epoch() {
        let (mut sim, handles) = setup(Topology::chain(2, 1, GBPS), EmbedMode::Commodity);
        let a = sim.topo().node_by_name("A").unwrap();
        let b = sim.topo().node_by_name("B").unwrap();
        let s1 = sim.topo().node_by_name("S1").unwrap();
        // S1's clock runs 1 ms (one epoch) ahead.
        sim.set_clock_offset(s1, 1_000_000);
        sim.add_udp_flow(UdpFlowSpec {
            src: a,
            dst: b,
            priority: Priority::LOW,
            start: SimTime::from_us(100),
            duration: SimTime::from_us(50),
            rate_bps: GBPS,
            payload_bytes: 1000,
        });
        sim.run_to_completion();
        let c = handles[&s1].borrow();
        // Global time ~0.1 ms => local ~1.1 ms => epoch 1, not 0 (at exact
        // level-1 resolution; the coarse top level cannot distinguish).
        assert_eq!(c.pointers.contains_within(b.addr(), 1, 1), Some(true));
        assert_ne!(c.pointers.contains_within(b.addr(), 0, 1), Some(true));
    }
}
