//! Figure 2 — "too much traffic": a low-priority TCP flow under
//! priority-based (2a) and microburst-based (2b) contention.
//!
//! Reproduces §2.1's testbed run: a 100 ms low-priority TCP flow A→B over a
//! 1 GbE bottleneck; five UDP burst batches (1, 2, 4, 8, 16 flows) of 1 ms
//! each, 15 ms apart, all high-priority, each burst flow to a *different*
//! destination host. 2a uses the strict-priority queue, 2b a FIFO.
//!
//! Series reported per panel: TCP throughput per 1 ms window, and the
//! maximum inter-packet arrival gap around each burst.

use netsim::prelude::*;
use netsim::queue::QueueConfig;
use netsim::trace::{interarrival_gaps, max_gap_in};

use crate::common::{FigureData, Series};

/// Sizes of the five burst batches.
pub const BATCHES: [usize; 5] = [1, 2, 4, 8, 16];
/// Start times of the five batches (ms).
pub const BATCH_START_MS: [u64; 5] = [10, 25, 40, 55, 70];
/// Burst duration.
pub const BURST_MS: u64 = 1;
/// TCP flow lifetime.
pub const RUN_MS: u64 = 100;
/// Port buffer for this fixture. The Pica8 P-3297 shares a 4 MB packet
/// buffer across ports; 1.5 MB is the effective share that reproduces the
/// paper's ~10 ms starvation at m=16 (a 1 MB cap makes m=8 and m=16
/// indistinguishable, 4 MB over-lengthens the m=16 dip).
pub const BUFFER_BYTES: u64 = 1_500_000;

/// The strict-priority queue configuration of panel (a).
pub fn priority_queue() -> QueueConfig {
    QueueConfig::StrictPriority {
        capacity_bytes: BUFFER_BYTES,
        classes: 3,
    }
}

/// The FIFO configuration of panel (b).
pub fn fifo_queue() -> QueueConfig {
    QueueConfig::Fifo {
        capacity_bytes: BUFFER_BYTES,
    }
}

/// Builds and runs the contention scenario; returns (sim, tcp flow id).
pub fn run_scenario(switch_queue: QueueConfig, seed: u64) -> (netsim::engine::Simulator, FlowId) {
    // 1 TCP pair + 16 UDP pairs around the bottleneck.
    let topo = Topology::dumbbell(17, 17, GBPS);
    let mut sim = netsim::engine::Simulator::new(
        topo,
        netsim::engine::SimConfig {
            seed,
            switch_queue,
            ..Default::default()
        },
    );
    // The panels plot arrivals packet by packet.
    sim.traces.record_packets = true;
    let a = sim.topo().node_by_name("L0").unwrap();
    let b = sim.topo().node_by_name("R0").unwrap();
    let tcp = sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        b,
        Priority::LOW,
        SimTime::from_ms(RUN_MS),
    ));
    for (bi, &m) in BATCHES.iter().enumerate() {
        let start = SimTime::from_ms(BATCH_START_MS[bi]);
        for u in 0..m {
            let src = sim.topo().node_by_name(&format!("L{}", u + 1)).unwrap();
            let dst = sim.topo().node_by_name(&format!("R{}", u + 1)).unwrap();
            sim.add_udp_flow(UdpFlowSpec::burst(
                src,
                dst,
                Priority::HIGH,
                start,
                SimTime::from_ms(BURST_MS),
                GBPS,
            ));
        }
    }
    sim.run_until(SimTime::from_ms(RUN_MS + 20));
    (sim, tcp)
}

fn panel(id: &str, title: &str, queue: QueueConfig) -> (FigureData, FigureData) {
    let (sim, tcp) = run_scenario(queue, 42);
    let events = sim.traces.rx_events(tcp);

    // Left panel: throughput timeline.
    let thr = ThroughputSeries::from_events(events, SimTime::from_ms(1), SimTime::from_ms(RUN_MS));
    let mut fig = FigureData::new(id, format!("{title}: TCP throughput"), "time_ms", "Gbps");
    let mut s = Series::new("tcp_gbps");
    for (i, &g) in thr.gbps.iter().enumerate() {
        s.push(i as f64, g);
    }
    fig.series.push(s);

    // Shape checks: deeper/longer degradation with larger bursts.
    let mut min_per_batch = Vec::new();
    let mut starve_ms = Vec::new();
    for (bi, &m) in BATCHES.iter().enumerate() {
        let w0 = BATCH_START_MS[bi] as usize;
        let dip = thr.gbps[w0..(w0 + 12).min(thr.gbps.len())]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        min_per_batch.push(dip);
        let starved = thr.gbps[w0..(w0 + 14).min(thr.gbps.len())]
            .iter()
            .filter(|&&g| g < 0.05)
            .count();
        starve_ms.push(starved);
        fig.note(format!(
            "batch m={m}: min window throughput {dip:.3} Gbps, windows <0.05 Gbps: {starved}"
        ));
    }

    // Right panel: max inter-packet gap around each batch.
    let gaps = interarrival_gaps(events);
    let mut gfig = FigureData::new(
        format!("{id}-gaps"),
        format!("{title}: max inter-packet arrival time per batch"),
        "batch_m",
        "gap_ms",
    );
    let mut gs = Series::new("max_gap_ms");
    for (bi, &m) in BATCHES.iter().enumerate() {
        let from = SimTime::from_ms(BATCH_START_MS[bi]);
        let to = SimTime::from_ms(BATCH_START_MS[bi] + 14);
        let g = max_gap_in(&gaps, from, to)
            .map(|g| g.as_ms_f64())
            .unwrap_or(0.0);
        gs.push(m as f64, g);
    }
    gfig.series.push(gs);

    (fig, gfig)
}

/// Figure 2(a): strict-priority queues.
pub fn fig2a() -> Vec<FigureData> {
    let (f, g) = panel("fig2a", "priority-based flow contention", priority_queue());
    vec![f, g]
}

/// Figure 2(b): FIFO queues (microbursts).
pub fn fig2b() -> Vec<FigureData> {
    let (f, g) = panel("fig2b", "microburst-based flow contention", fifo_queue());
    vec![f, g]
}
