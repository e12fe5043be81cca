//! One deployment per testbed: the simulator, every analyzer and both
//! planes reason over the same topology, route table and directory —
//! the same allocations, not equal copies — and a deployment that cannot
//! be launched is refused as a typed error before anything is dialed or
//! spawned.

use std::sync::Arc;

use netsim::prelude::*;
use queryplane::{QueryPlane, QueryPlaneConfig};
use switchpointer::testbed::{Testbed, TestbedConfig};
use telemetry::frame::{WireError, MAX_FRAME};
use wireplane::{RemoteShard, RetryPolicy, WireCluster, WireConfig};

fn chain() -> Testbed {
    Testbed::new(Topology::chain(3, 2, GBPS), TestbedConfig::default_ms())
}

#[test]
fn the_analyzer_reasons_over_the_simulators_own_topology_and_routes() {
    let tb = chain();
    let analyzer = tb.analyzer();
    assert!(Arc::ptr_eq(tb.sim.topo(), &analyzer.ctx().topo));
    assert!(Arc::ptr_eq(tb.sim.routes(), &analyzer.ctx().routes));
}

#[test]
fn every_analyzer_of_a_testbed_shares_one_deployment() {
    let tb = chain();
    assert!(Arc::ptr_eq(tb.analyzer().ctx(), tb.analyzer().ctx()));
}

#[test]
fn both_planes_share_the_analyzers_deployment() {
    let tb = chain();
    let analyzer = tb.analyzer();
    let plane = QueryPlane::from_analyzer(&analyzer, QueryPlaneConfig::default());
    assert!(Arc::ptr_eq(&plane.ctx().deployment, analyzer.ctx()));
    let cluster = WireCluster::launch(&analyzer, 2, WireConfig::default()).unwrap();
    assert!(Arc::ptr_eq(&cluster.ctx().deployment, analyzer.ctx()));
    cluster.shutdown();
}

#[test]
fn a_deployment_with_no_replicas_is_a_typed_error() {
    let tb = chain();
    let launched = WireCluster::launch_replicated(&tb.analyzer(), 2, 0, WireConfig::default());
    match launched.err() {
        Some(WireError::Remote(msg)) => assert!(msg.contains("replica"), "{msg}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
}

#[test]
fn a_shard_link_with_no_addresses_is_a_typed_error() {
    let link = RemoteShard::connect_replicated(
        0,
        Vec::new(),
        MAX_FRAME,
        RetryPolicy::immediate(1),
        None,
        None,
    );
    match link.err() {
        Some(WireError::Remote(msg)) => assert!(msg.contains("no replica"), "{msg}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
}
