//! Topology descriptions and builders.
//!
//! A [`Topology`] is a pure graph: nodes (hosts and switches) plus
//! full-duplex links with bandwidth and propagation delay. The simulation
//! engine instantiates queues/ports from it; the `telemetry` crate derives
//! its CherryPick-style tagging policy from the topology [`TopoKind`].
//!
//! Builders cover every fixture the paper's evaluation uses:
//! * [`Topology::dumbbell`] — the "too much traffic" contention fixture
//!   (Fig. 1a / Fig. 2), m senders sharing one bottleneck link;
//! * [`Topology::chain`] — the S1–S2–S3 "red lights"/"cascades" fixture
//!   (Fig. 1b, 1c / Fig. 3, 4);
//! * [`Topology::leaf_spine`] — the multi-path fabric used for the load
//!   imbalance study (Fig. 8) and the path-codec tests;
//! * [`Topology::dumbbell_multi`] — a dumbbell with several parallel core
//!   links, the minimal fixture for the malfunctioning-ECMP experiment.

use crate::packet::NodeId;
use crate::time::SimTime;

/// Identifies a full-duplex link. Also used on the wire as the CherryPick
/// link identifier (must fit 12 bits for the VLAN encoding; all paper-scale
/// topologies are far below 4096 links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum NodeKind {
    Host,
    Switch,
}

/// Structural family of the topology; drives path reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// Hosts on two switches joined by one or more core links.
    Dumbbell,
    /// A line of switches, hosts hanging off each.
    Chain,
    /// Two-tier leaf/spine Clos.
    LeafSpine,
    /// Three-tier k-ary fat-tree (edge/aggregation/core).
    FatTree,
    /// Anything hand-built; single-path routing only.
    Custom,
}

/// Layer of a switch within a [`TopoKind::FatTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatTreeLayer {
    Edge,
    Aggregation,
    Core,
}

/// Static node description.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    pub(crate) kind: NodeKind,
    pub name: String,
}

/// Static link description (full duplex; each direction has its own egress
/// queue at its own endpoint).
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    pub a: NodeId,
    pub b: NodeId,
    pub(crate) bandwidth_bps: u64,
    pub(crate) delay: SimTime,
}

/// Default link parameters matching the paper's testbed: 1 GbE host links
/// with sub-microsecond propagation.
pub const GBPS: u64 = 1_000_000_000;
/// 10 GbE, used by the Fig. 9 pipeline experiments.
pub const TEN_GBPS: u64 = 10 * GBPS;
/// Default intra-datacenter propagation delay.
pub const DEFAULT_DELAY: SimTime = SimTime(1_000); // 1 us

/// The parent [`Topology::bfs_tree`] gives a tree's root and every node
/// the root cannot reach.
pub const NO_PARENT: u32 = u32::MAX;

/// A complete topology.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopoKind,
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    /// Per node: ordered (link, peer) pairs. A node's port `p` is its `p`-th
    /// adjacency entry.
    adjacency: Vec<Vec<(LinkId, NodeId)>>,
    /// Hosts in creation order (convenience for experiments).
    hosts: Vec<NodeId>,
    /// Switches in creation order.
    switches: Vec<NodeId>,
    /// Per node: fat-tree layer, when the topology is a fat-tree.
    ft_layer: Vec<Option<FatTreeLayer>>,
}

impl Topology {
    /// Creates an empty topology of the given kind. Prefer the shape-specific
    /// builders below.
    pub fn new(kind: TopoKind) -> Self {
        Topology {
            kind,
            nodes: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
            hosts: Vec::new(),
            switches: Vec::new(),
            ft_layer: Vec::new(),
        }
    }

    /// Adds a node; returns its id.
    pub(crate) fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSpec {
            kind,
            name: name.into(),
        });
        self.adjacency.push(Vec::new());
        self.ft_layer.push(None);
        match kind {
            NodeKind::Host => self.hosts.push(id),
            NodeKind::Switch => self.switches.push(id),
        }
        id
    }

    /// Convenience: adds a host.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name)
    }

    /// Convenience: adds a switch.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, name)
    }

    /// Connects two nodes with a full-duplex link; returns its id.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, bandwidth_bps: u64, delay: SimTime) -> LinkId {
        assert_ne!(a, b, "self-links are not allowed");
        assert!(bandwidth_bps > 0, "zero-bandwidth link");
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec {
            a,
            b,
            bandwidth_bps,
            delay,
        });
        self.adjacency[a.0 as usize].push((id, b));
        self.adjacency[b.0 as usize].push((id, a));
        id
    }

    // ----- accessors -------------------------------------------------------

    pub fn kind(&self) -> TopoKind {
        self.kind
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.0 as usize]
    }

    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.0 as usize]
    }

    pub fn is_host(&self, id: NodeId) -> bool {
        self.node(id).kind == NodeKind::Host
    }

    pub fn is_switch(&self, id: NodeId) -> bool {
        self.node(id).kind == NodeKind::Switch
    }

    /// All hosts, in creation order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// All switches, in creation order.
    pub fn switches(&self) -> &[NodeId] {
        &self.switches
    }

    /// The fat-tree layer of a switch (None for hosts or non-fat-tree
    /// topologies).
    pub fn fat_tree_layer(&self, id: NodeId) -> Option<FatTreeLayer> {
        self.ft_layer[id.0 as usize]
    }

    /// A node's ports: ordered (link, peer) pairs.
    pub fn ports(&self, id: NodeId) -> &[(LinkId, NodeId)] {
        &self.adjacency[id.0 as usize]
    }

    /// The port index on `node` whose link is `link`, if attached.
    pub(crate) fn port_for_link(&self, node: NodeId, link: LinkId) -> Option<usize> {
        self.ports(node).iter().position(|&(l, _)| l == link)
    }

    /// Looks up a node by name (linear scan; fixture-sized topologies only).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Breadth-first search from `src`, exploring neighbours in port order
    /// (ids ascend with creation order, which makes the tie-break
    /// deterministic). Returns each node's parent as a raw id:
    /// [`NO_PARENT`] for `src` and for every node not reached. With
    /// `stop`, the search ends as soon as that node is discovered, which
    /// leaves the parents of everything discovered so far as they are.
    fn bfs(&self, src: NodeId, stop: Option<NodeId>) -> Vec<u32> {
        let n = self.nodes.len();
        let mut parent = vec![NO_PARENT; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[src.0 as usize] = true;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &(_, v) in self.ports(u) {
                if !visited[v.0 as usize] {
                    visited[v.0 as usize] = true;
                    parent[v.0 as usize] = u.0;
                    if Some(v) == stop {
                        return parent;
                    }
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// The whole BFS parent tree rooted at `src`, indexed by raw node id:
    /// the path [`Topology::shortest_path`] returns from `src` to `v` is
    /// `v`, `tree[v]`, `tree[tree[v]]`, … back to `src`, reversed.
    /// [`NO_PARENT`] marks `src` itself and every node it cannot reach.
    pub fn bfs_tree(&self, src: NodeId) -> Vec<u32> {
        self.bfs(src, None)
    }

    /// BFS shortest path between two nodes (deterministic tie-break on
    /// lowest-id neighbour). Returns the node sequence including endpoints.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let parent = self.bfs(src, Some(dst));
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            let p = parent[cur.0 as usize];
            if p == NO_PARENT {
                return None;
            }
            cur = NodeId(p);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// The switches on the shortest path between two hosts, in order.
    #[cfg(test)]
    pub(crate) fn switch_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        Some(
            self.shortest_path(src, dst)?
                .into_iter()
                .filter(|&n| self.is_switch(n))
                .collect(),
        )
    }

    // ----- shape builders --------------------------------------------------

    /// Dumbbell: `m_left` hosts on switch `SL`, `m_right` hosts on `SR`,
    /// one core link `SL—SR`. All links `bandwidth_bps` — the core link is
    /// the bottleneck whenever more than one left host transmits.
    ///
    /// Host naming: `L0..`, `R0..`; switches `SL`, `SR`.
    pub fn dumbbell(m_left: usize, m_right: usize, bandwidth_bps: u64) -> Self {
        Self::dumbbell_multi(m_left, m_right, 1, bandwidth_bps)
    }

    /// Dumbbell with `n_core` parallel core links (ECMP fixture for the
    /// Fig. 8 load-imbalance experiment).
    pub fn dumbbell_multi(
        m_left: usize,
        m_right: usize,
        n_core: usize,
        bandwidth_bps: u64,
    ) -> Self {
        assert!(m_left >= 1 && m_right >= 1 && n_core >= 1);
        let mut t = Topology::new(TopoKind::Dumbbell);
        let sl = t.add_switch("SL");
        let sr = t.add_switch("SR");
        for i in 0..m_left {
            let h = t.add_host(format!("L{i}"));
            t.add_link(h, sl, bandwidth_bps, DEFAULT_DELAY);
        }
        for i in 0..m_right {
            let h = t.add_host(format!("R{i}"));
            t.add_link(h, sr, bandwidth_bps, DEFAULT_DELAY);
        }
        for _ in 0..n_core {
            t.add_link(sl, sr, bandwidth_bps, DEFAULT_DELAY);
        }
        t
    }

    /// Chain of `num_switches` switches `S1—S2—…`, with `hosts_per_switch`
    /// hosts on each. This is the paper's Fig. 1(b)/(c) fixture: with two
    /// hosts per switch, hosts are `A,B` on S1, `C,D` on S2, `E,F` on S3.
    pub fn chain(num_switches: usize, hosts_per_switch: usize, bandwidth_bps: u64) -> Self {
        assert!(num_switches >= 1);
        let mut t = Topology::new(TopoKind::Chain);
        let mut switches = Vec::with_capacity(num_switches);
        for i in 0..num_switches {
            switches.push(t.add_switch(format!("S{}", i + 1)));
        }
        // Hosts named A, B, C, ... in switch order, like the paper's figures.
        let mut label = b'A';
        for &s in &switches {
            for _ in 0..hosts_per_switch {
                let name = if label <= b'Z' {
                    (label as char).to_string()
                } else {
                    format!("H{}", label - b'A')
                };
                let h = t.add_host(name);
                t.add_link(h, s, bandwidth_bps, DEFAULT_DELAY);
                label += 1;
            }
        }
        for w in switches.windows(2) {
            t.add_link(w[0], w[1], bandwidth_bps, DEFAULT_DELAY);
        }
        t
    }

    /// Two-tier leaf/spine Clos: every leaf connects to every spine.
    /// Host naming `h<leaf>_<i>`, switches `leaf<i>` / `spine<j>`.
    pub fn leaf_spine(
        n_leaf: usize,
        n_spine: usize,
        hosts_per_leaf: usize,
        bandwidth_bps: u64,
    ) -> Self {
        assert!(n_leaf >= 1 && n_spine >= 1);
        let mut t = Topology::new(TopoKind::LeafSpine);
        let leaves: Vec<NodeId> = (0..n_leaf)
            .map(|i| t.add_switch(format!("leaf{i}")))
            .collect();
        let spines: Vec<NodeId> = (0..n_spine)
            .map(|j| t.add_switch(format!("spine{j}")))
            .collect();
        for (i, &leaf) in leaves.iter().enumerate() {
            for x in 0..hosts_per_leaf {
                let h = t.add_host(format!("h{i}_{x}"));
                t.add_link(h, leaf, bandwidth_bps, DEFAULT_DELAY);
            }
        }
        for &leaf in &leaves {
            for &spine in &spines {
                t.add_link(leaf, spine, bandwidth_bps, DEFAULT_DELAY);
            }
        }
        t
    }

    /// A k-ary fat-tree: k pods of k/2 edge + k/2 aggregation switches,
    /// (k/2)^2 core switches, k/2 hosts per edge (k^3/4 hosts total).
    /// Aggregation switch j of every pod connects to core group j
    /// (cores j*(k/2) .. (j+1)*(k/2)).
    ///
    /// Naming: hosts `h<pod>_<edge>_<i>`, switches `edge<pod>_<e>`,
    /// `agg<pod>_<j>`, `core<j>_<c>`.
    pub fn fat_tree(k: usize, bandwidth_bps: u64) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and >= 2"
        );
        let half = k / 2;
        let mut t = Topology::new(TopoKind::FatTree);

        // Core layer: (k/2)^2 switches in k/2 groups of k/2.
        let mut cores: Vec<Vec<NodeId>> = Vec::with_capacity(half);
        for g in 0..half {
            let mut group = Vec::with_capacity(half);
            for c in 0..half {
                let id = t.add_switch(format!("core{g}_{c}"));
                t.ft_layer[id.0 as usize] = Some(FatTreeLayer::Core);
                group.push(id);
            }
            cores.push(group);
        }

        for pod in 0..k {
            // Aggregation switches of this pod.
            let mut aggs = Vec::with_capacity(half);
            for (j, group) in cores.iter().enumerate() {
                let id = t.add_switch(format!("agg{pod}_{j}"));
                t.ft_layer[id.0 as usize] = Some(FatTreeLayer::Aggregation);
                for &core in group {
                    t.add_link(id, core, bandwidth_bps, DEFAULT_DELAY);
                }
                aggs.push(id);
            }
            // Edge switches + hosts.
            for e in 0..half {
                let edge = t.add_switch(format!("edge{pod}_{e}"));
                t.ft_layer[edge.0 as usize] = Some(FatTreeLayer::Edge);
                for &agg in &aggs {
                    t.add_link(edge, agg, bandwidth_bps, DEFAULT_DELAY);
                }
                for x in 0..half {
                    let h = t.add_host(format!("h{pod}_{e}_{x}"));
                    t.add_link(h, edge, bandwidth_bps, DEFAULT_DELAY);
                }
            }
        }
        t
    }

    /// A single switch with `n` hosts (unit-test fixture).
    pub fn star(n: usize, bandwidth_bps: u64) -> Self {
        let mut t = Topology::new(TopoKind::Custom);
        let s = t.add_switch("S");
        for i in 0..n {
            let h = t.add_host(format!("H{i}"));
            t.add_link(h, s, bandwidth_bps, DEFAULT_DELAY);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumbbell_shape() {
        let t = Topology::dumbbell(3, 2, GBPS);
        assert_eq!(t.hosts().len(), 5);
        assert_eq!(t.switches().len(), 2);
        assert_eq!(t.num_links(), 3 + 2 + 1);
        let sl = t.node_by_name("SL").unwrap();
        let sr = t.node_by_name("SR").unwrap();
        assert_eq!(t.ports(sl).len(), 4); // 3 hosts + core
        assert_eq!(t.ports(sr).len(), 3);
    }

    #[test]
    fn chain_names_match_paper_figures() {
        let t = Topology::chain(3, 2, GBPS);
        for name in ["S1", "S2", "S3", "A", "B", "C", "D", "E", "F"] {
            assert!(t.node_by_name(name).is_some(), "missing node {name}");
        }
        let a = t.node_by_name("A").unwrap();
        let f = t.node_by_name("F").unwrap();
        let sw: Vec<String> = t
            .switch_path(a, f)
            .unwrap()
            .iter()
            .map(|&s| t.node(s).name.clone())
            .collect();
        assert_eq!(sw, vec!["S1", "S2", "S3"]);
    }

    #[test]
    fn chain_flow_bd_uses_s1_s2() {
        let t = Topology::chain(3, 2, GBPS);
        let b = t.node_by_name("B").unwrap();
        let d = t.node_by_name("D").unwrap();
        let sw: Vec<String> = t
            .switch_path(b, d)
            .unwrap()
            .iter()
            .map(|&s| t.node(s).name.clone())
            .collect();
        assert_eq!(sw, vec!["S1", "S2"]);
    }

    #[test]
    fn leaf_spine_any_pair_is_two_hop() {
        let t = Topology::leaf_spine(4, 2, 3, GBPS);
        let h0 = t.node_by_name("h0_0").unwrap();
        let h3 = t.node_by_name("h3_2").unwrap();
        let p = t.shortest_path(h0, h3).unwrap();
        // host - leaf - spine - leaf - host
        assert_eq!(p.len(), 5);
        assert!(t.is_switch(p[1]) && t.is_switch(p[2]) && t.is_switch(p[3]));
    }

    #[test]
    fn same_leaf_path_stays_local() {
        let t = Topology::leaf_spine(2, 2, 2, GBPS);
        let a = t.node_by_name("h0_0").unwrap();
        let b = t.node_by_name("h0_1").unwrap();
        let p = t.shortest_path(a, b).unwrap();
        assert_eq!(p.len(), 3); // host - leaf - host
    }

    #[test]
    fn shortest_path_trivial_and_unreachable() {
        let mut t = Topology::new(TopoKind::Custom);
        let a = t.add_host("a");
        let b = t.add_host("b");
        assert_eq!(t.shortest_path(a, a), Some(vec![a]));
        assert_eq!(t.shortest_path(a, b), None);
        assert_eq!(t.bfs_tree(a), vec![NO_PARENT, NO_PARENT]);
    }

    #[test]
    fn bfs_tree_holds_every_shortest_path() {
        for t in [Topology::fat_tree(4, 1), Topology::leaf_spine(3, 2, 2, 1)] {
            for a in 0..t.num_nodes() as u32 {
                let tree = t.bfs_tree(NodeId(a));
                for b in 0..t.num_nodes() as u32 {
                    let mut walk = vec![NodeId(b)];
                    while walk.last() != Some(&NodeId(a)) {
                        walk.push(NodeId(tree[walk.last().unwrap().0 as usize]));
                    }
                    walk.reverse();
                    assert_eq!(Some(walk), t.shortest_path(NodeId(a), NodeId(b)));
                }
            }
        }
    }

    #[test]
    fn port_for_link_finds_attachment() {
        let t = Topology::dumbbell(1, 1, GBPS);
        let sl = t.node_by_name("SL").unwrap();
        let sr = t.node_by_name("SR").unwrap();
        let core = LinkId((t.num_links() - 1) as u32);
        assert!(t.port_for_link(sl, core).is_some());
        assert!(t.port_for_link(sr, core).is_some());
        let l0 = t.node_by_name("L0").unwrap();
        assert_eq!(t.port_for_link(l0, core), None);
    }

    #[test]
    fn dumbbell_multi_has_parallel_core() {
        let t = Topology::dumbbell_multi(2, 2, 3, GBPS);
        let sl = t.node_by_name("SL").unwrap();
        assert_eq!(t.ports(sl).len(), 2 + 3);
    }

    #[test]
    fn fat_tree_shape() {
        let t = Topology::fat_tree(4, GBPS);
        // k=4: 16 hosts, 8 edge, 8 agg, 4 core.
        assert_eq!(t.hosts().len(), 16);
        assert_eq!(t.switches().len(), 20);
        // 16 host links + 8 edges x 2 aggs + 8 aggs x 2 cores.
        assert_eq!(t.num_links(), 16 + 16 + 16);
        use crate::topology::FatTreeLayer as L;
        assert_eq!(
            t.fat_tree_layer(t.node_by_name("edge0_0").unwrap()),
            Some(L::Edge)
        );
        assert_eq!(
            t.fat_tree_layer(t.node_by_name("agg2_1").unwrap()),
            Some(L::Aggregation)
        );
        assert_eq!(
            t.fat_tree_layer(t.node_by_name("core1_0").unwrap()),
            Some(L::Core)
        );
        assert_eq!(t.fat_tree_layer(t.node_by_name("h0_0_0").unwrap()), None);
    }

    #[test]
    fn fat_tree_path_lengths() {
        let t = Topology::fat_tree(4, GBPS);
        let n = |s: &str| t.node_by_name(s).unwrap();
        // Same edge: host-edge-host.
        assert_eq!(t.shortest_path(n("h0_0_0"), n("h0_0_1")).unwrap().len(), 3);
        // Intra-pod: host-edge-agg-edge-host.
        assert_eq!(t.shortest_path(n("h0_0_0"), n("h0_1_0")).unwrap().len(), 5);
        // Inter-pod: host-edge-agg-core-agg-edge-host.
        assert_eq!(t.shortest_path(n("h0_0_0"), n("h3_1_1")).unwrap().len(), 7);
    }

    #[test]
    fn fat_tree_agg_connects_to_its_core_group() {
        let t = Topology::fat_tree(4, GBPS);
        let agg0 = t.node_by_name("agg0_0").unwrap();
        let peers: Vec<String> = t
            .ports(agg0)
            .iter()
            .filter(|&&(_, p)| t.is_switch(p))
            .map(|&(_, p)| t.node(p).name.clone())
            .collect();
        assert!(peers.contains(&"core0_0".to_string()));
        assert!(peers.contains(&"core0_1".to_string()));
        assert!(!peers.contains(&"core1_0".to_string()));
    }

    #[test]
    #[should_panic(expected = "arity must be even")]
    fn fat_tree_odd_arity_rejected() {
        Topology::fat_tree(3, GBPS);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new(TopoKind::Custom);
        let a = t.add_host("a");
        t.add_link(a, a, GBPS, DEFAULT_DELAY);
    }
}
