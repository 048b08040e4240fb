//! The low class's loads under a partial deployment, kept per
//! destination at the lanes' base pair.
//!
//! A destination's hybrid low DAG ([`dtr_routing::hybrid_low_dag`]) is
//! a pure function of its high and low DAGs' branch lists. Where a
//! candidate's moved-class DAG is the base's own `Arc` (the backend
//! neither repaired nor rebranched it), the candidate has the base's
//! hybrid too, so [`HybridLows`] replays that push's `(link, share)`
//! adds and trapped volume and pushes only the other destinations. The
//! fold runs over ascending destinations either way, so the result is
//! bit-identical to [`dtr_routing::Evaluator::low_loads_deployed`]: a
//! push adds to each link at most once (a link has one tail), and
//! replaying the stored share is that add (`DESIGN.md`, "Bit-identical
//! loads").

use crate::state::WorkStats;
use crate::Class;
use dtr_graph::{FlatTopo, NodeId, ShortestPathDag, Topology};
use dtr_routing::{ClassLoads, DeploymentSet};
use dtr_traffic::TrafficMatrix;
use std::sync::Arc;

/// A flat DAG for every destination, ascending, as the lanes hand them
/// out under a deployment: a destination the backend left untouched
/// shares its lane's base `Arc`.
type Dags = [(NodeId, Arc<ShortestPathDag>)];

/// A destination's push down the hybrid of the base pair: the `[high,
/// low]` DAGs it was built from, the `(link, share)` adds and the
/// trapped volume.
type Base = ([Arc<ShortestPathDag>; 2], Vec<(u32, f64)>, f64);

/// Per low-demand destination, the hybrid low loads of the base pair.
pub(crate) struct HybridLows<'a> {
    pusher: Pusher<'a>,
    /// Destinations with low-class demand, ascending (the push order),
    /// each with its [`Base`]; `None` before the first rebase.
    base: Vec<(NodeId, Option<Base>)>,
    stats: WorkStats,
}

/// What a hybrid push reads, and the buffers it reuses: node flow,
/// in-degree over unpushed branches (`u32::MAX` once placed), the
/// ready nodes as a bitset.
struct Pusher<'a> {
    /// The mirror the DAGs' branch slots index.
    flat: FlatTopo,
    low: &'a TrafficMatrix,
    dep: DeploymentSet,
    buf: (Vec<f64>, Vec<u32>, Vec<u64>),
}

impl<'a> HybridLows<'a> {
    pub(crate) fn new(topo: &'a Topology, low: &'a TrafficMatrix, dep: DeploymentSet) -> Self {
        let sends = |t: &NodeId| low.demands_to(t.index()).next().is_some();
        HybridLows {
            pusher: Pusher {
                flat: FlatTopo::new(topo),
                low,
                dep,
                buf: Default::default(),
            },
            base: topo.nodes().filter(sends).map(|t| (t, None)).collect(),
            stats: WorkStats::default(),
        }
    }

    /// Hybrids rebuilt and replayed so far.
    pub(crate) fn work_stats(&self) -> WorkStats {
        self.stats
    }

    /// Moves to the lanes' base pair: a destination whose two base DAGs
    /// are the `Arc`s its hybrid was built from keeps it, any other is
    /// rebuilt. A lane rebase re-materializes exactly the destinations
    /// it repaired (all of them after a rebuild), so only those change.
    pub(crate) fn rebase(&mut self, high: &Dags, low: &Dags) {
        debug_assert!(high.len() == self.pusher.flat.node_count() && low.len() == high.len());
        for (t, slot) in &mut self.base {
            let (h, l) = (&high[t.index()].1, &low[t.index()].1);
            let same = |(d, ..): &Base| Arc::ptr_eq(&d[0], h) && Arc::ptr_eq(&d[1], l);
            if !slot.as_ref().is_some_and(same) {
                self.stats.hybrids_rebuilt += 1;
                let mut adds = Vec::new();
                let trapped = self.pusher.push(*t, h, l, |l, share| adds.push((l, share)));
                *slot = Some(([h.clone(), l.clone()], adds, trapped));
            }
        }
    }

    /// Low loads and trapped volume with `class` on a candidate's
    /// per-destination DAGs `moved` and the other class at the base.
    pub(crate) fn low_loads(&mut self, class: Class, moved: &Dags) -> (ClassLoads, f64) {
        let mut out = vec![0.0; self.pusher.flat.link_count()];
        let mut trapped = 0.0;
        for (t, slot) in &self.base {
            let dag = &moved[t.index()].1;
            let (dags, adds, base_trapped) = slot.as_ref().expect("rebased before any candidate");
            let mut add = |l: u32, share: f64| out[l as usize] += share;
            if Arc::ptr_eq(&dags[class as usize], dag) {
                self.stats.hybrids_replayed += 1;
                adds.iter().for_each(|&(l, share)| add(l, share));
                trapped += base_trapped;
            } else {
                self.stats.hybrids_rebuilt += 1;
                trapped += match class {
                    Class::High => self.pusher.push(*t, dag, &dags[1], add),
                    Class::Low => self.pusher.push(*t, &dags[0], dag, add),
                };
            }
        }
        (out, trapped)
    }
}

impl Pusher<'_> {
    /// Pushes the low demand towards `t` down the hybrid of `high` and
    /// `low`, reporting each `+= share` to `add`, and returns the
    /// trapped volume — operation for operation
    /// [`dtr_routing::push_demand_flat`] over
    /// [`dtr_routing::hybrid_low_dag`], then
    /// [`dtr_routing::trapped_flow`]. That DAG's `order` lists the nodes
    /// its Kahn sort leaves out, which never forward, then the placed
    /// ones (ready nodes by ascending index). A node is placed only
    /// after every push into it, so pushing it as it is placed makes the
    /// same adds in the same order; the flow left on unplaced nodes,
    /// summed in index order, is the trapped volume.
    fn push(
        &mut self,
        t: NodeId,
        high: &ShortestPathDag,
        low: &ShortestPathDag,
        mut add: impl FnMut(u32, f64),
    ) -> f64 {
        let (flat, dep, n) = (&self.flat, &self.dep, self.flat.node_count());
        // Neither DAG gives the destination branches.
        let governing =
            |v: usize| (if dep.contains(v) { low } else { high }).branches(flat, v as u32);
        let (flow, indeg, ready) = &mut self.buf;
        flow.clear();
        flow.resize(n, 0.0);
        indeg.clear();
        indeg.resize(n, 0);
        for (s, v) in self.low.demands_to(t.index()) {
            flow[s] += v;
        }
        for &l in (0..n).flat_map(governing) {
            indeg[flat.dst(l) as usize] += 1;
        }
        // A node other than `t` without branches never forwards.
        let forwards = |v: usize| v == t.index() || !governing(v).is_empty();
        let sources = (0..n).filter(|&v| indeg[v] == 0 && forwards(v));
        ready.clear();
        ready.resize(n.div_ceil(64), 0);
        sources.for_each(|v| ready[v / 64] |= 1 << (v % 64));
        while let Some(w) = ready.iter().position(|&bits| bits != 0) {
            let v = w * 64 + ready[w].trailing_zeros() as usize;
            ready[w] &= ready[w] - 1;
            let f = flow[v];
            indeg[v] = u32::MAX;
            for &l in governing(v) {
                let u = flat.dst(l) as usize;
                if f > 0.0 {
                    let share = f / governing(v).len() as f64;
                    add(l, share);
                    flow[u] += share;
                }
                indeg[u] -= 1;
                if indeg[u] == 0 && forwards(u) {
                    ready[u / 64] |= 1 << (u % 64);
                }
            }
        }
        let unplaced = (0..n).filter(|&v| indeg[v] != u32::MAX);
        unplaced.map(|v| flow[v]).sum()
    }
}
