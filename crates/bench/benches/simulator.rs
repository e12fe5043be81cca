//! Simulator throughput: events/second of the discrete-event core with and
//! without the SwitchPointer apps installed — the cost of the telemetry
//! instrumentation itself on the testbed substitute.
//!
//! An event is a dispatched one: a TCP timer entry a later re-arm
//! superseded is dropped uncounted, so a TCP run reports fewer events than
//! an engine that kept one queued entry per re-arm.

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::prelude::*;
use switchpointer::testbed::{Testbed, TestbedConfig};

fn run_plain() -> u64 {
    let topo = Topology::dumbbell(4, 4, GBPS);
    let mut sim = netsim::engine::Simulator::new(topo, netsim::engine::SimConfig::default());
    let a = sim.topo().node_by_name("L0").unwrap();
    let b = sim.topo().node_by_name("R0").unwrap();
    sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        b,
        Priority::LOW,
        SimTime::from_ms(10),
    ));
    sim.run_until(SimTime::from_ms(12));
    sim.events_processed()
}

fn run_instrumented() -> u64 {
    let topo = Topology::dumbbell(4, 4, GBPS);
    let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
    let a = tb.node("L0");
    let b = tb.node("R0");
    tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        b,
        Priority::LOW,
        SimTime::from_ms(10),
    ));
    tb.sim.run_until(SimTime::from_ms(12));
    tb.sim.events_processed()
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    group.bench_function("tcp_10ms_plain", |b| {
        b.iter(|| std::hint::black_box(run_plain()));
    });
    group.bench_function("tcp_10ms_switchpointer", |b| {
        b.iter(|| std::hint::black_box(run_instrumented()));
    });
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
