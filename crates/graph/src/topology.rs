//! The physical network: a directed graph with link capacities and
//! propagation delays.
//!
//! Terminology follows the paper: a *link* is a **directed** edge
//! `(i, j) ∈ E` with capacity `C_ij`. Bidirectional connectivity is modeled
//! as two independent directed links, which is how the paper counts links
//! (e.g. its 30-node *random* topology has 150 directed links = 75 node
//! pairs).

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Dense node identifier, valid for a specific [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Dense directed-link identifier, valid for a specific [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The link id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A directed link `(src → dst)` with its physical attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Tail node (traffic enters here).
    pub src: NodeId,
    /// Head node (traffic exits here).
    pub dst: NodeId,
    /// Capacity in Mbit/s. The paper sets all capacities to 500 Mbit/s.
    pub capacity: f64,
    /// Propagation delay in **seconds** (the paper quotes 1.2–15 ms).
    pub prop_delay: f64,
}

/// Errors from [`TopologyBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link references a node id `>= node_count`.
    DanglingLink { link: usize },
    /// A link has `src == dst`; self-loops carry no traffic and are
    /// rejected to keep SPF semantics simple.
    SelfLoop { link: usize },
    /// Two links share the same `(src, dst)` pair. Parallel links are not
    /// part of the paper's model (a single weight per ordered pair).
    ParallelLink { link: usize },
    /// A link's capacity is not a positive, finite number.
    NonPositiveCapacity { link: usize },
    /// A link has negative propagation delay.
    NegativeDelay { link: usize },
    /// The graph is not strongly connected, so some traffic matrix entries
    /// would be unroutable.
    NotStronglyConnected,
    /// The topology has no nodes.
    Empty,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DanglingLink { link } => {
                write!(f, "link {link} references a node outside the topology")
            }
            TopologyError::SelfLoop { link } => write!(f, "link {link} is a self-loop"),
            TopologyError::ParallelLink { link } => {
                write!(f, "link {link} duplicates an existing (src, dst) pair")
            }
            TopologyError::NonPositiveCapacity { link } => {
                write!(f, "link {link} has a non-positive or non-finite capacity")
            }
            TopologyError::NegativeDelay { link } => {
                write!(f, "link {link} has negative propagation delay")
            }
            TopologyError::NotStronglyConnected => {
                write!(f, "topology is not strongly connected")
            }
            TopologyError::Empty => write!(f, "topology has no nodes"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An immutable, validated network topology.
///
/// Constructed through [`TopologyBuilder`]; construction guarantees:
///
/// - every link endpoint is a valid node,
/// - no self-loops and no parallel links,
/// - capacities are positive, delays non-negative,
/// - the directed graph is strongly connected (every traffic-matrix entry
///   is routable).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Topology {
    node_count: usize,
    links: Vec<Link>,
    /// Outgoing links per node.
    out_links: Vec<Vec<LinkId>>,
    /// Incoming links per node (used by reverse Dijkstra towards a
    /// destination).
    in_links: Vec<Vec<LinkId>>,
    /// Optional display names (city names for the ISP topology).
    names: Vec<String>,
}

/// A topology file or snapshot is rebuilt through [`TopologyBuilder`],
/// so it passes every per-link check a generated one does, and its
/// adjacency lists must be exactly what its links imply. Connectivity is
/// not checked here, because only some readers need it: the fluid
/// backend answers an unreachable pair with an infinite delay, while
/// the evaluators drop its demand and the packet simulator refuses it.
/// So `dtrctl` and `dtrd` check a `--topo` file when they load it, and
/// `dtrd` checks a snapshot under the link mask in force.
impl Deserialize for Topology {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        #[derive(Deserialize)]
        struct Raw {
            node_count: usize,
            links: Vec<Link>,
            out_links: Vec<Vec<LinkId>>,
            in_links: Vec<Vec<LinkId>>,
            names: Vec<String>,
        }
        let raw = Raw::from_value(v)?;
        if raw.names.len() != raw.node_count {
            let (names, n) = (raw.names.len(), raw.node_count);
            return Err(DeError(format!("topology: {names} names for {n} nodes")));
        }
        let builder = TopologyBuilder {
            node_names: raw.names,
            links: raw.links,
        };
        let topo = builder
            .assemble()
            .map_err(|e| DeError(format!("topology: {e}")))?;
        if topo.out_links != raw.out_links || topo.in_links != raw.in_links {
            let message = "topology: out_links/in_links are not the adjacency of links";
            return Err(DeError(message.into()));
        }
        Ok(topo)
    }
}

impl Topology {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed links `|E|`.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count as u32).map(NodeId)
    }

    /// Iterator over `(LinkId, &Link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// The link with the given id.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Outgoing links of `node`.
    #[inline]
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_links[node.index()]
    }

    /// Incoming links of `node`.
    #[inline]
    pub fn in_links(&self, node: NodeId) -> &[LinkId] {
        &self.in_links[node.index()]
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_links[node.index()].len()
    }

    /// Total degree (in + out) of `node`; used by the sink traffic model to
    /// pick the highest-degree nodes as data-center sites.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_links[node.index()].len() + self.in_links[node.index()].len()
    }

    /// Finds the directed link `src → dst`, if present.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out_links[src.index()]
            .iter()
            .copied()
            .find(|&l| self.links[l.index()].dst == dst)
    }

    /// The opposite-direction twin of `link` (`dst → src`), if the topology
    /// contains one. All generators in [`crate::gen`] produce symmetric
    /// digraphs, so twins always exist there.
    pub fn reverse_link(&self, link: LinkId) -> Option<LinkId> {
        let l = self.link(link);
        self.find_link(l.dst, l.src)
    }

    /// Display name of `node` (falls back to `n<i>`).
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.index()]
    }

    /// Sum of all link capacities (used to compute average utilization).
    pub fn total_capacity(&self) -> f64 {
        self.links.iter().map(|l| l.capacity).sum()
    }

    /// Nodes sorted by decreasing total degree, ties broken by node id.
    /// The sink traffic model (§5.1.2) selects its data-center nodes from
    /// the front of this ordering.
    pub fn nodes_by_degree_desc(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.nodes().collect();
        v.sort_by_key(|&n| (std::cmp::Reverse(self.degree(n)), n.0));
        v
    }
}

/// Incremental builder for [`Topology`].
#[derive(Debug, Default, Clone)]
pub struct TopologyBuilder {
    node_names: Vec<String>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// A builder with no nodes or links.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` anonymous nodes, returning the id of the first.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = self.node_names.len();
        for i in first..first + count {
            self.node_names.push(format!("n{i}"));
        }
        NodeId(first as u32)
    }

    /// Adds one named node (e.g. a city in the ISP backbone).
    pub fn add_named_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.into());
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of links added so far.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Adds a directed link.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, capacity: f64, prop_delay: f64) {
        self.links.push(Link {
            src,
            dst,
            capacity,
            prop_delay,
        });
    }

    /// Adds the pair of directed links `a → b` and `b → a` with identical
    /// attributes — the common case for backbone topologies.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, capacity: f64, prop_delay: f64) {
        self.add_link(a, b, capacity, prop_delay);
        self.add_link(b, a, capacity, prop_delay);
    }

    /// Validates and freezes the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let topo = self.assemble()?;
        if !topo.is_strongly_connected() {
            return Err(TopologyError::NotStronglyConnected);
        }
        Ok(topo)
    }

    /// Every check of [`Self::build`] that looks at one link at a time,
    /// and the adjacency lists; connectivity is the caller's.
    fn assemble(self) -> Result<Topology, TopologyError> {
        let node_count = self.node_names.len();
        if node_count == 0 {
            return Err(TopologyError::Empty);
        }
        let mut seen = std::collections::HashSet::with_capacity(self.links.len());
        for (i, l) in self.links.iter().enumerate() {
            if l.src.index() >= node_count || l.dst.index() >= node_count {
                return Err(TopologyError::DanglingLink { link: i });
            }
            if l.src == l.dst {
                return Err(TopologyError::SelfLoop { link: i });
            }
            if !seen.insert((l.src, l.dst)) {
                return Err(TopologyError::ParallelLink { link: i });
            }
            if !(l.capacity.is_finite() && l.capacity > 0.0) {
                return Err(TopologyError::NonPositiveCapacity { link: i });
            }
            if l.prop_delay < 0.0 {
                return Err(TopologyError::NegativeDelay { link: i });
            }
        }

        let mut out_links = vec![Vec::new(); node_count];
        let mut in_links = vec![Vec::new(); node_count];
        for (i, l) in self.links.iter().enumerate() {
            out_links[l.src.index()].push(LinkId(i as u32));
            in_links[l.dst.index()].push(LinkId(i as u32));
        }

        Ok(Topology {
            node_count,
            links: self.links,
            out_links,
            in_links,
            names: self.node_names,
        })
    }
}

impl Topology {
    /// Strong-connectivity check: a forward BFS and a reverse BFS from node
    /// 0 must each reach every node.
    fn is_strongly_connected(&self) -> bool {
        if self.node_count == 0 {
            return false;
        }
        self.bfs_reach(NodeId(0), false) == self.node_count
            && self.bfs_reach(NodeId(0), true) == self.node_count
    }

    fn bfs_reach(&self, start: NodeId, reverse: bool) -> usize {
        let mut visited = vec![false; self.node_count];
        let mut queue = std::collections::VecDeque::new();
        visited[start.index()] = true;
        queue.push_back(start);
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            let adj = if reverse {
                &self.in_links[u.index()]
            } else {
                &self.out_links[u.index()]
            };
            for &lid in adj {
                let l = &self.links[lid.index()];
                let v = if reverse { l.src } else { l.dst };
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1 triangle: three nodes, full duplex mesh, unit
    /// capacities.
    pub(crate) fn triangle() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b.add_named_node("A");
        let bb = b.add_named_node("B");
        let c = b.add_named_node("C");
        for &(x, y) in &[(a, bb), (bb, c), (a, c)] {
            b.add_duplex(x, y, 1.0, 0.001);
        }
        b.build().unwrap()
    }

    #[test]
    fn triangle_counts() {
        let t = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 6);
        for n in t.nodes() {
            assert_eq!(t.out_degree(n), 2);
            assert_eq!(t.degree(n), 4);
        }
    }

    #[test]
    fn find_and_reverse_link() {
        let t = triangle();
        let ab = t.find_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(t.link(ab).src, NodeId(0));
        assert_eq!(t.link(ab).dst, NodeId(1));
        let ba = t.reverse_link(ab).unwrap();
        assert_eq!(t.link(ba).src, NodeId(1));
        assert_eq!(t.link(ba).dst, NodeId(0));
        assert!(t.find_link(NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            TopologyBuilder::new().build().unwrap_err(),
            TopologyError::Empty
        );
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = TopologyBuilder::new();
        let n = b.add_nodes(2);
        b.add_link(n, n, 1.0, 0.0);
        assert_eq!(b.build().unwrap_err(), TopologyError::SelfLoop { link: 0 });
    }

    #[test]
    fn rejects_parallel_links() {
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_link(NodeId(0), NodeId(1), 1.0, 0.0);
        b.add_link(NodeId(1), NodeId(0), 1.0, 0.0);
        b.add_link(NodeId(0), NodeId(1), 2.0, 0.0);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::ParallelLink { link: 2 }
        );
    }

    #[test]
    fn rejects_dangling() {
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_link(NodeId(0), NodeId(5), 1.0, 0.0);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::DanglingLink { link: 0 }
        );
    }

    #[test]
    fn rejects_bad_capacity_and_delay() {
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_link(NodeId(0), NodeId(1), 0.0, 0.0);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::NonPositiveCapacity { link: 0 }
        );

        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_link(NodeId(0), NodeId(1), 1.0, -1.0);
        b.add_link(NodeId(1), NodeId(0), 1.0, 0.0);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::NegativeDelay { link: 0 }
        );
    }

    #[test]
    fn rejects_weakly_connected() {
        // 0 → 1 only: not strongly connected.
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_link(NodeId(0), NodeId(1), 1.0, 0.0);
        assert_eq!(b.build().unwrap_err(), TopologyError::NotStronglyConnected);

        // Two disconnected duplex pairs.
        let mut b = TopologyBuilder::new();
        b.add_nodes(4);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 0.0);
        b.add_duplex(NodeId(2), NodeId(3), 1.0, 0.0);
        assert_eq!(b.build().unwrap_err(), TopologyError::NotStronglyConnected);
    }

    #[test]
    fn degree_ordering_is_deterministic() {
        let t = triangle();
        let order = t.nodes_by_degree_desc();
        assert_eq!(order, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn total_capacity_sums_links() {
        let t = triangle();
        assert!((t.total_capacity() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn node_names_default_and_custom() {
        let t = triangle();
        assert_eq!(t.node_name(NodeId(0)), "A");
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 0.0);
        let t = b.build().unwrap();
        assert_eq!(t.node_name(NodeId(1)), "n1");
    }

    #[test]
    fn deserialize_revalidates_links_names_and_adjacency() {
        let t = triangle();
        assert_eq!(Topology::from_value(&t.to_value()), Ok(t.clone()));
        // One field of the wire form replaced at a time.
        let with = |field: &str, value: Value| match t.to_value() {
            Value::Map(mut entries) => {
                entries.iter_mut().find(|e| e.0 == field).unwrap().1 = value;
                Value::Map(entries)
            }
            other => panic!("{other:?}"),
        };
        let mut links = t.links.clone();
        links[0].dst = NodeId(99);
        let mut swapped = t.out_links.clone();
        swapped.swap(0, 1);
        for (wire, token) in [
            (with("links", links.to_value()), "link 0 references a node"),
            (with("out_links", swapped.to_value()), "adjacency"),
            (with("in_links", Value::Seq(vec![])), "adjacency"),
            (with("names", Value::Seq(vec![])), "0 names for 3 nodes"),
            (with("node_count", Value::UInt(4)), "3 names for 4 nodes"),
        ] {
            let DeError(message) = Topology::from_value(&wire).unwrap_err();
            assert!(message.contains(token), "{message}");
        }
    }
}
