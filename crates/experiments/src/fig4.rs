//! Figure 4 — traffic cascades: high-priority B-D delays mid-priority A-F,
//! whose extended tail then collides with low-priority TCP C-E at S2.
//!
//! Panel (a): no cascade — B-D runs early enough that A-F never queues behind
//! it, and A-F finishes before C-E starts. Panel (b): B-D is "rerouted"
//! (delayed) onto the same window as A-F; A-F's tail stretches past C-E's
//! start and depresses it.

use netsim::prelude::*;
use netsim::queue::QueueConfig;

use crate::common::{FigureData, Series};

pub const RUN_MS: u64 = 50;
/// A-F (mid priority) transmission window: 10..20 ms at 0.95 Gbps.
pub const AF_START_MS: u64 = 10;
/// C-E (low priority TCP) 2 MB transfer start (just after A-F's nominal
/// end, so panel (a) is contention-free).
pub const CE_START_US: u64 = 20_500;
pub const UDP_MS: u64 = 10;
pub const UDP_RATE: u64 = 950_000_000;

/// Runs one panel. `cascade = false` puts B-D at 0 ms (no contention);
/// `cascade = true` puts it at 14 ms ("rerouted" onto A-F's window at S1,
/// stretching A-F's tail into C-E's lifetime).
pub fn run_scenario(
    cascade: bool,
    seed: u64,
) -> (netsim::engine::Simulator, FlowId, FlowId, FlowId) {
    let topo = Topology::chain(3, 2, GBPS);
    let mut sim = netsim::engine::Simulator::new(
        topo,
        netsim::engine::SimConfig {
            seed,
            switch_queue: QueueConfig::default_priority(),
            ..Default::default()
        },
    );
    // The panels plot arrivals packet by packet.
    sim.traces.record_packets = true;
    let node = |n: &str| sim.topo().node_by_name(n).unwrap();
    let (a, b, c, d, e, f) = (
        node("A"),
        node("B"),
        node("C"),
        node("D"),
        node("E"),
        node("F"),
    );

    let bd_start = if cascade { 14 } else { 0 };
    let bd = sim.add_udp_flow(UdpFlowSpec {
        src: b,
        dst: d,
        priority: Priority::HIGH,
        start: SimTime::from_ms(bd_start),
        duration: SimTime::from_ms(UDP_MS),
        rate_bps: UDP_RATE,
        payload_bytes: 1458,
    });
    let af = sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::MID,
        start: SimTime::from_ms(AF_START_MS),
        duration: SimTime::from_ms(UDP_MS),
        rate_bps: UDP_RATE,
        payload_bytes: 1458,
    });
    let ce = sim.add_tcp_flow(TcpFlowSpec::transfer(
        c,
        e,
        Priority::LOW,
        SimTime::from_us(CE_START_US),
        2_000_000,
    ));
    sim.run_until(SimTime::from_ms(RUN_MS + 30));
    (sim, bd, af, ce)
}

fn panel(id: &str, title: &str, cascade: bool) -> FigureData {
    let (sim, bd, af, ce) = run_scenario(cascade, 11);
    let mut fig = FigureData::new(id, title, "time_ms", "Gbps");
    for (name, flow) in [("B-D", bd), ("A-F", af), ("C-E", ce)] {
        let thr = ThroughputSeries::from_events(
            sim.traces.rx_events(flow),
            SimTime::from_ms(1),
            SimTime::from_ms(RUN_MS),
        );
        let mut s = Series::new(name);
        for (i, &g) in thr.gbps.iter().enumerate() {
            s.push(i as f64, g);
        }
        fig.series.push(s);
    }
    let ce_done = sim.tcp(ce).finished_at;
    fig.note(format!(
        "C-E completion: {} (delivered {} bytes)",
        ce_done
            .map(|t| format!("{:.2} ms", t.as_ms_f64()))
            .unwrap_or_else(|| "not finished".into()),
        sim.tcp(ce).delivered,
    ));
    // A-F tail: last arrival time at F.
    if let Some(last) = sim.traces.rx_events(af).last() {
        fig.note(format!(
            "A-F last packet arrives {:.2} ms",
            last.t.as_ms_f64()
        ));
    }
    fig
}

/// Figure 4: panels (a) without and (b) with the cascade.
pub fn fig4() -> Vec<FigureData> {
    let a = panel("fig4a", "traffic cascades: without cascade", false);
    let b = panel("fig4b", "traffic cascades: with cascade", true);
    vec![a, b]
}
