//! Quickstart: deploy SwitchPointer on a small leaf-spine fabric, run some
//! traffic, and inspect what the system recorded at every layer —
//! packet tags, host flow records, switch pointers, and an analyzer query.
//!
//! Run with: `cargo run --release --example quickstart`

use netsim::prelude::*;
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::EpochRange;

fn main() {
    // A 3-leaf / 2-spine fabric with 4 hosts per leaf, SwitchPointer on
    // every switch and host. Epochs are 1 ms; commodity (two-VLAN-tag)
    // telemetry embedding.
    let topo = Topology::leaf_spine(3, 2, 4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());

    // Give every switch a bounded clock offset (ε = 1 ms), like real gear.
    tb.sim.randomize_switch_clocks(500_000); // ±0.5 ms

    // Some traffic: a TCP transfer across the fabric plus two UDP flows.
    let (src, dst) = (tb.node("h0_0"), tb.node("h2_1"));
    let tcp = tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
        src,
        dst,
        Priority::MID,
        SimTime::ZERO,
        1_000_000, // 1 MB
    ));
    for (s, d) in [("h0_1", "h1_0"), ("h1_2", "h2_3")] {
        let (s, d) = (tb.node(s), tb.node(d));
        tb.sim.add_udp_flow(UdpFlowSpec {
            src: s,
            dst: d,
            priority: Priority::LOW,
            start: SimTime::from_ms(1),
            duration: SimTime::from_ms(3),
            rate_bps: 300_000_000,
            payload_bytes: 1458,
        });
    }
    tb.sim.run_until(SimTime::from_ms(30));

    // 1. What the destination host decoded from packet headers.
    let host = tb.hosts[&dst].borrow();
    let rec = host.store.record(tcp).expect("flow record");
    let path_names: Vec<String> = rec
        .path
        .iter()
        .map(|&n| tb.sim.topo().node(n).name.clone())
        .collect();
    println!(
        "flow {tcp} delivered {} bytes over path {path_names:?}",
        rec.bytes
    );
    for (sw, epochs) in &rec.epochs_at {
        let runs: Vec<String> = epochs
            .runs()
            .iter()
            .map(|r| format!("{}..={}", r.lo, r.hi))
            .collect();
        println!(
            "  {}: possible epochs {}",
            tb.sim.topo().node(*sw).name,
            runs.join(", ")
        );
    }
    drop(host);

    // 2. What a spine switch's pointer directory knows.
    let spine0 = tb.node("spine0");
    let sw = tb.switches[&spine0].borrow();
    println!(
        "spine0 forwarded {} packets; pointer memory {} bytes; flushed {} bits",
        sw.forwarded,
        sw.pointers.memory_bytes(),
        sw.pointers.flushed_bits,
    );
    drop(sw);

    // 3. An analyzer query: which hosts received traffic through spine0
    //    during the first 5 ms, and the top flows among them.
    let analyzer = tb.analyzer();
    let hosts = analyzer.hosts_for(spine0, EpochRange { lo: 0, hi: 5 });
    let names: Vec<String> = hosts
        .iter()
        .map(|&h| tb.sim.topo().node(h).name.clone())
        .collect();
    println!("hosts pointed to by spine0 for epochs 0-5: {names:?}");

    let topk = analyzer.top_k(spine0, 3, EpochRange { lo: 0, hi: 30 });
    println!(
        "top flows through spine0 (contacted {} of {} hosts, est. latency {}):",
        topk.hosts_contacted,
        tb.sim.topo().hosts().len(),
        topk.total_latency(),
    );
    for (flow, bytes) in &topk.flows {
        println!("  {flow}: {bytes} bytes");
    }
}
