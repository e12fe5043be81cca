//! Static shortest-path routing with ECMP.
//!
//! Routes are precomputed from the topology: for every (switch, destination
//! host) pair we store *all* minimum-hop egress ports. Flows are pinned to
//! one of them by a deterministic flow hash (per-flow ECMP, as deployed in
//! the paper's leaf-spine testbed). Experiments can override a switch's
//! choice per packet — the Fig. 8 "malfunctioning switch" does exactly that.

use crate::packet::{FlowId, NodeId};
use crate::topology::{Topology, NO_PARENT};

/// All-pairs next-hop table, flat: the equal-cost ports of `node` toward
/// `dst` are `ports[offsets[i]..offsets[i + 1]]` with `i = dst · n + node`,
/// in the order `node` lists its ports. An empty range means unreachable
/// (or `node == dst`).
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Number of nodes, the stride of `offsets`.
    n: usize,
    /// `n² + 1` prefix offsets into `ports`.
    offsets: Vec<u32>,
    ports: Vec<u16>,
}

impl RouteTable {
    /// Builds the table from one BFS tree per destination
    /// ([`Topology::bfs_tree`]): a port of `node` is on a minimum-hop path
    /// to `dst` iff its peer is one hop closer to `dst` (the graph is
    /// undirected, so the tree's depths are distances *to* its root).
    ///
    /// Complexity O(V·(V+E)) — trivial at fixture scale (≤ a few hundred
    /// nodes).
    pub fn build(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let mut offsets = Vec::with_capacity(n * n + 1);
        offsets.push(0u32);
        let mut ports = Vec::new();
        let mut dist = vec![0u32; n];
        for dst in 0..n {
            let tree = topo.bfs_tree(NodeId(dst as u32));
            depths(&tree, dst, &mut dist);
            for (node, &d) in dist.iter().enumerate() {
                if node != dst && d != u32::MAX {
                    for (port, &(_, peer)) in topo.ports(NodeId(node as u32)).iter().enumerate() {
                        if dist[peer.0 as usize] + 1 == d {
                            ports.push(port as u16);
                        }
                    }
                }
                offsets.push(ports.len() as u32);
            }
        }
        RouteTable { n, offsets, ports }
    }

    /// All equal-cost egress ports of `node` toward `dst`.
    pub fn ports(&self, node: NodeId, dst: NodeId) -> &[u16] {
        let i = dst.0 as usize * self.n + node.0 as usize;
        &self.ports[self.offsets[i] as usize..self.offsets[i + 1] as usize]
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

/// Fills `dist` with every node's hop count to the root of the BFS parent
/// `tree` (`u32::MAX` where the root is unreachable): each node climbs to
/// the first ancestor whose depth is known, then the climbed chain is
/// numbered on the way back down.
fn depths(tree: &[u32], root: usize, dist: &mut [u32]) {
    const UNSET: u32 = u32::MAX - 1;
    dist.fill(UNSET);
    dist[root] = 0;
    let mut chain = Vec::new();
    for v in 0..tree.len() {
        let mut u = v;
        let mut d = loop {
            if dist[u] != UNSET {
                break dist[u];
            }
            chain.push(u);
            match tree[u] {
                NO_PARENT => break u32::MAX,
                p => u = p as usize,
            }
        };
        while let Some(w) = chain.pop() {
            d = d.saturating_add(1);
            dist[w] = d;
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
    fn ports_are_every_hop_toward_the_destination_in_port_order() {
        let hops = |t: &Topology, a: NodeId, b: NodeId| t.shortest_path(a, b).map(|p| p.len());
        for t in [
            Topology::fat_tree(4, GBPS),
            Topology::leaf_spine(3, 2, 2, GBPS),
            Topology::dumbbell_multi(2, 2, 3, GBPS),
            Topology::chain(3, 2, GBPS),
        ] {
            let rt = RouteTable::build(&t);
            for node in (0..t.num_nodes() as u32).map(NodeId) {
                for dst in (0..t.num_nodes() as u32).map(NodeId) {
                    let want: Vec<u16> = match hops(&t, node, dst) {
                        Some(h) if node != dst => (0..t.ports(node).len() as u16)
                            .filter(|&p| hops(&t, t.ports(node)[p as usize].1, dst) == Some(h - 1))
                            .collect(),
                        _ => Vec::new(),
                    };
                    assert_eq!(rt.ports(node, dst), want, "{node} -> {dst}");
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
