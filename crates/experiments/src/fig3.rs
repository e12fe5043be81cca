//! Figure 3 — "too many red lights": throughput of flow A-F measured *at
//! switches S1 and S2* while two sequential 400 µs high-priority UDP bursts
//! (B-D at S1, then C-E at S2) each shave off part of the flow's
//! throughput.
//!
//! Expected shape (paper): in the burst window, A-F's egress throughput at
//! S1 drops to ~0.6 Gbps (one 400 µs red light within the 1 ms window) and
//! at S2 to ~0.2 Gbps (two sequential red lights — 800 µs lost).

use netsim::prelude::*;
use netsim::queue::QueueConfig;

use crate::common::{FigureData, Series};

/// Burst timing: B-D at 6.0 ms, C-E right after at 6.4 ms, 400 µs each.
pub const BURST1_START_US: u64 = 6_000;
pub const BURST2_START_US: u64 = 6_400;
pub const BURST_US: u64 = 400;
pub const RUN_MS: u64 = 10;

/// Runs the scenario; returns (sim, A-F flow, S1, S2).
pub fn run_scenario(seed: u64) -> (netsim::engine::Simulator, FlowId, NodeId, NodeId) {
    let topo = Topology::chain(3, 2, GBPS);
    let mut sim = netsim::engine::Simulator::new(
        topo,
        netsim::engine::SimConfig {
            seed,
            switch_queue: QueueConfig::default_priority(),
            ..Default::default()
        },
    );
    sim.traces.record_packets = true;

    let a = sim.topo().node_by_name("A").unwrap();
    let f = sim.topo().node_by_name("F").unwrap();
    let b = sim.topo().node_by_name("B").unwrap();
    let d = sim.topo().node_by_name("D").unwrap();
    let c = sim.topo().node_by_name("C").unwrap();
    let e = sim.topo().node_by_name("E").unwrap();
    let s1 = sim.topo().node_by_name("S1").unwrap();
    let s2 = sim.topo().node_by_name("S2").unwrap();

    let af = sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        f,
        Priority::LOW,
        SimTime::from_ms(RUN_MS),
    ));
    sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        d,
        Priority::HIGH,
        SimTime::from_us(BURST1_START_US),
        SimTime::from_us(BURST_US),
        GBPS,
    ));
    sim.add_udp_flow(UdpFlowSpec::burst(
        c,
        e,
        Priority::HIGH,
        SimTime::from_us(BURST2_START_US),
        SimTime::from_us(BURST_US),
        GBPS,
    ));
    sim.run_until(SimTime::from_ms(RUN_MS + 5));
    (sim, af, s1, s2)
}

/// Figure 3: A-F throughput at S1 (panel a) and S2 (panel b).
pub fn fig3() -> Vec<FigureData> {
    let (sim, af, s1, s2) = run_scenario(7);
    let mut fig = FigureData::new(
        "fig3",
        "too many red lights: throughput of flow A-F at S1 and S2",
        "time_ms",
        "Gbps",
    );
    let window = SimTime::from_ms(1);
    let horizon = SimTime::from_ms(RUN_MS);
    let mut dips = Vec::new();
    for (name, sw) in [("at_S1", s1), ("at_S2", s2)] {
        let thr =
            ThroughputSeries::from_events(sim.traces.switch_tx_events(sw, af), window, horizon);
        let mut s = Series::new(name);
        for (i, &g) in thr.gbps.iter().enumerate() {
            s.push(i as f64, g);
        }
        // The burst lives in window 6.
        dips.push((name, thr.gbps[6]));
        fig.series.push(s);
    }
    fig.note(format!(
        "burst-window throughput: {} = {:.3} Gbps (paper ~0.6), {} = {:.3} Gbps (paper ~0.2)",
        dips[0].0, dips[0].1, dips[1].0, dips[1].1
    ));
    fig.note(
        "accumulation across red lights: the S2 dip must be deeper than the S1 dip".to_string(),
    );
    vec![fig]
}
