//! Static shortest-path routing with ECMP.
//!
//! Routes are precomputed from the topology: for every (switch, destination
//! host) pair we store *all* minimum-hop egress ports. Flows are pinned to
//! one of them by a deterministic flow hash (per-flow ECMP, as deployed in
//! the paper's leaf-spine testbed). Experiments can override a switch's
//! choice per packet — the Fig. 8 "malfunctioning switch" does exactly that.

use std::collections::VecDeque;

use crate::packet::{FlowId, NodeId};
use crate::topology::Topology;

/// All-pairs next-hop table.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// `next[node][dst]` = ports of `node` on minimum-hop paths to `dst`.
    /// Indexed by raw node ids; empty vec = unreachable (or self).
    next: Vec<Vec<Vec<u16>>>,
}

impl RouteTable {
    /// Builds the table by running a BFS from every node.
    ///
    /// Complexity O(V·(V+E)) — trivial at fixture scale (≤ a few hundred
    /// nodes).
    pub fn build(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let mut next = vec![vec![Vec::new(); n]; n];

        for src_raw in 0..n {
            let src = NodeId(src_raw as u32);
            // BFS distances from src.
            let mut dist = vec![u32::MAX; n];
            dist[src_raw] = 0;
            let mut q = VecDeque::new();
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for &(_, v) in topo.ports(u) {
                    if dist[v.0 as usize] == u32::MAX {
                        dist[v.0 as usize] = dist[u.0 as usize] + 1;
                        q.push_back(v);
                    }
                }
            }
            // A port is on a shortest path to dst iff dist(peer, dst)… we
            // need distances *to* dst, but the graph is undirected so the
            // BFS from src gives distances from src; instead compute per-dst
            // below. To stay O(V·(V+E)) we run the BFS from every *dst* and
            // fill column dst for all nodes.
            let dst = src; // rename for clarity: this BFS was rooted at `dst`
            for node_raw in 0..n {
                if node_raw == dst.0 as usize || dist[node_raw] == u32::MAX {
                    continue;
                }
                let node = NodeId(node_raw as u32);
                for (port, &(_, peer)) in topo.ports(node).iter().enumerate() {
                    if dist[peer.0 as usize] + 1 == dist[node_raw] {
                        next[node_raw][dst.0 as usize].push(port as u16);
                    }
                }
            }
        }

        RouteTable { next }
    }

    /// All equal-cost egress ports of `node` toward `dst`.
    pub fn ports(&self, node: NodeId, dst: NodeId) -> &[u16] {
        &self.next[node.0 as usize][dst.0 as usize]
    }

    /// The egress port `node` uses for `flow` toward `dst` (flow-hash ECMP).
    /// Returns `None` when `dst` is unreachable or is `node` itself.
    pub fn egress(&self, node: NodeId, dst: NodeId, flow: FlowId) -> Option<u16> {
        let ports = self.ports(node, dst);
        match ports.len() {
            0 => None,
            1 => Some(ports[0]),
            k => {
                let h = ecmp_hash(flow, node);
                Some(ports[(h % k as u64) as usize])
            }
        }
    }
}

/// Deterministic per-(flow, switch) hash so a flow takes a stable path but
/// different switches don't make correlated choices.
#[inline]
fn ecmp_hash(flow: FlowId, node: NodeId) -> u64 {
    let mut x = flow.0 ^ ((node.0 as u64) << 32) ^ 0x8f1b_bcdc_ca62_c1d6;
    x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Topology, GBPS};

    #[test]
    fn chain_routes_follow_the_line() {
        let t = Topology::chain(3, 2, GBPS);
        let rt = RouteTable::build(&t);
        let a = t.node_by_name("A").unwrap();
        let f = t.node_by_name("F").unwrap();
        let s1 = t.node_by_name("S1").unwrap();

        // From S1, traffic to F must leave on the S1-S2 port.
        let port = rt.egress(s1, f, FlowId(1)).unwrap();
        let (_, peer) = t.ports(s1)[port as usize];
        assert_eq!(t.node(peer).name, "S2");

        // Host A reaches everything through its single port.
        assert_eq!(rt.egress(a, f, FlowId(1)), Some(0));
    }

    #[test]
    fn unreachable_and_self_have_no_route() {
        let mut t = Topology::new(crate::topology::TopoKind::Custom);
        let a = t.add_host("a");
        let b = t.add_host("b");
        let rt = RouteTable::build(&t);
        assert_eq!(rt.egress(a, b, FlowId(0)), None);
        assert_eq!(rt.egress(a, a, FlowId(0)), None);
    }

    #[test]
    fn leaf_spine_ecmp_spreads_flows() {
        let t = Topology::leaf_spine(2, 4, 2, GBPS);
        let rt = RouteTable::build(&t);
        let leaf0 = t.node_by_name("leaf0").unwrap();
        let dst = t.node_by_name("h1_0").unwrap();

        assert_eq!(rt.ports(leaf0, dst).len(), 4, "4 spines = 4 ECMP choices");

        let mut used = std::collections::HashSet::new();
        for f in 0..64 {
            used.insert(rt.egress(leaf0, dst, FlowId(f)).unwrap());
        }
        assert!(used.len() >= 3, "ECMP should use most spines: {used:?}");
    }

    #[test]
    fn ecmp_is_stable_per_flow() {
        let t = Topology::leaf_spine(2, 4, 2, GBPS);
        let rt = RouteTable::build(&t);
        let leaf0 = t.node_by_name("leaf0").unwrap();
        let dst = t.node_by_name("h1_1").unwrap();
        let f = FlowId(42);
        let first = rt.egress(leaf0, dst, f);
        for _ in 0..10 {
            assert_eq!(rt.egress(leaf0, dst, f), first);
        }
    }

    #[test]
    fn routes_deliver_everywhere_in_leaf_spine() {
        // Walk the next-hop graph from every host to every other host and
        // confirm arrival within a hop budget (no loops, no black holes).
        let t = Topology::leaf_spine(3, 2, 2, GBPS);
        let rt = RouteTable::build(&t);
        for &src in t.hosts() {
            for &dst in t.hosts() {
                if src == dst {
                    continue;
                }
                let mut cur = src;
                let mut hops = 0;
                while cur != dst {
                    let port = rt
                        .egress(cur, dst, FlowId(7))
                        .unwrap_or_else(|| panic!("no route {cur}->{dst}"));
                    let (_, peer) = t.ports(cur)[port as usize];
                    cur = peer;
                    hops += 1;
                    assert!(hops <= 8, "routing loop {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn dumbbell_multi_uses_parallel_links() {
        let t = Topology::dumbbell_multi(1, 1, 4, GBPS);
        let rt = RouteTable::build(&t);
        let sl = t.node_by_name("SL").unwrap();
        let r0 = t.node_by_name("R0").unwrap();
        assert_eq!(rt.ports(sl, r0).len(), 4);
    }
}
