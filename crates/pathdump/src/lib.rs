//! # pathdump — the end-host-only baseline
//!
//! PathDump (OSDI 2016) is SwitchPointer's direct predecessor and the
//! baseline of the paper's Fig. 12: it collects the same packet-header
//! telemetry at end-hosts but has **no in-network directory**, so a query
//! about a switch must be broadcast to *every* server in the datacenter
//! ("PathDump executes the query from all the servers in the network",
//! §6.2).
//!
//! This crate reuses the SwitchPointer end-host component (the paper's own
//! host stack is PathDump-derived) and swaps the analyzer for one that
//! fans out to all hosts with zero pointer-retrieval cost.

use std::collections::HashMap;

use netsim::packet::{FlowId, NodeId};
use netsim::time::SimTime;
use switchpointer::analyzer::TopKResult;
use switchpointer::cost::CostModel;
use switchpointer::host::HostHandle;
use telemetry::EpochRange;

/// The PathDump analyzer: identical host queries, no directory.
pub struct PathDumpAnalyzer {
    hosts: HashMap<NodeId, HostHandle>,
    cost: CostModel,
}

impl PathDumpAnalyzer {
    pub fn new(hosts: HashMap<NodeId, HostHandle>, cost: CostModel) -> Self {
        PathDumpAnalyzer { hosts, cost }
    }

    /// Every server, in id order — the fixed fan-out of every PathDump query.
    pub(crate) fn all_hosts(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.hosts.keys().copied().collect();
        v.sort();
        v
    }

    /// Top-k flows through `switch`: broadcast to all hosts, merge.
    /// The `_range` parameter is accepted for interface parity with
    /// SwitchPointer but unused — PathDump cannot narrow by epoch because
    /// it has no per-epoch switch state.
    pub fn top_k(&self, switch: NodeId, k: usize, _range: EpochRange) -> TopKResult {
        let hosts = self.all_hosts();
        let mut merged: Vec<(FlowId, u64)> = Vec::new();
        let mut record_counts = Vec::with_capacity(hosts.len());
        for h in &hosts {
            let comp = self.hosts[h].borrow();
            record_counts.push(comp.store.len());
            merged.extend(comp.store.top_k_through(switch, k));
        }
        merged.sort_by_key(|&(f, b)| (std::cmp::Reverse(b), f));
        merged.truncate(k);
        TopKResult {
            flows: merged,
            hosts_contacted: hosts.len(),
            pointer_retrieval: SimTime::ZERO, // no switch state to pull
            wave: self.cost.query_wave(hosts.len(), &record_counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::prelude::*;
    use switchpointer::testbed::{Testbed, TestbedConfig};

    /// PathDump and SwitchPointer agree on answers; PathDump contacts
    /// every server while SwitchPointer contacts only relevant ones.
    #[test]
    fn same_answer_different_fanout() {
        let topo = Topology::dumbbell(6, 6, GBPS);
        let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
        // Three flows of different sizes through the core switch SL.
        for (i, bytes) in [(0u32, 3_000_000u64), (1, 2_000_000), (2, 1_000_000)] {
            let src = tb.node(&format!("L{i}"));
            let dst = tb.node(&format!("R{i}"));
            tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
                src,
                dst,
                Priority::LOW,
                SimTime::ZERO,
                bytes,
            ));
        }
        tb.sim.run_until(SimTime::from_ms(80));

        let sl = tb.node("SL");
        let range = EpochRange { lo: 0, hi: 80 };
        let sp = tb.analyzer().top_k(sl, 3, range);
        let pd = PathDumpAnalyzer::new(tb.hosts.clone(), tb.cfg.cost).top_k(sl, 3, range);

        assert_eq!(sp.flows, pd.flows, "answers must agree");
        assert_eq!(pd.hosts_contacted, 12, "PathDump asks every server");
        assert!(
            sp.hosts_contacted < pd.hosts_contacted,
            "SwitchPointer narrows: {} vs {}",
            sp.hosts_contacted,
            pd.hosts_contacted
        );
        // And is therefore faster end-to-end despite the pointer pull.
        assert!(sp.total_latency() < pd.total_latency());
    }

    #[test]
    fn pathdump_latency_is_flat_in_relevant_hosts() {
        // PathDump's cost depends on the *total* server count only.
        let topo = Topology::dumbbell(4, 4, GBPS);
        let tb = Testbed::new(topo, TestbedConfig::default_ms());
        let sl = tb.node("SL");
        let pd = PathDumpAnalyzer::new(tb.hosts.clone(), tb.cfg.cost);
        let r = EpochRange { lo: 0, hi: 10 };
        let empty = pd.top_k(sl, 100, r);
        assert_eq!(empty.hosts_contacted, 8);
        assert!(empty.flows.is_empty());
        assert!(empty.wave.total() > SimTime::ZERO);
    }
}
