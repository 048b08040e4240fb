//! The low class's loads under a partial deployment, kept per
//! destination at the lanes' base pair.
//!
//! A destination's hybrid push ([`dtr_routing::push_hybrid`]) is a pure
//! function of its high and low DAGs' branch lists. Where a candidate's
//! moved-class DAG is the base's own `Arc` (the backend neither repaired
//! nor rebranched it), the candidate has the base's hybrid too, so
//! [`HybridLows`] replays that push's `(link, share)` adds and trapped
//! volume and pushes only the other destinations, through the same
//! `push_hybrid` that [`dtr_routing::Evaluator::low_loads_deployed`]
//! calls. The fold runs over ascending destinations either way, so the
//! result is bit-identical to the evaluator's: a push adds to each link
//! at most once (a link has one tail), and replaying the stored share is
//! that add (`DESIGN.md`, "Bit-identical loads").

use crate::state::WorkStats;
use crate::Class;
use dtr_graph::{FlatTopo, NodeId, ShortestPathDag, Topology};
use dtr_routing::{push_hybrid, ClassLoads, DeploymentSet, HybridScratch};
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
    /// The mirror the DAGs' branch slots index.
    flat: FlatTopo,
    low: &'a TrafficMatrix,
    dep: DeploymentSet,
    scratch: HybridScratch,
    /// Destinations with low-class demand, ascending (the push order),
    /// each with its [`Base`]; `None` before the first rebase.
    base: Vec<(NodeId, Option<Base>)>,
    stats: WorkStats,
}

impl<'a> HybridLows<'a> {
    pub(crate) fn new(topo: &'a Topology, low: &'a TrafficMatrix, dep: DeploymentSet) -> Self {
        let sends = |t: &NodeId| low.demands_to(t.index()).next().is_some();
        HybridLows {
            flat: FlatTopo::new(topo),
            low,
            dep,
            scratch: HybridScratch::default(),
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
        let (flat, dep) = (&self.flat, &self.dep);
        debug_assert!(high.len() == flat.node_count() && low.len() == high.len());
        for (t, slot) in &mut self.base {
            let (h, l) = (&high[t.index()].1, &low[t.index()].1);
            let same = |(d, ..): &Base| Arc::ptr_eq(&d[0], h) && Arc::ptr_eq(&d[1], l);
            if !slot.as_ref().is_some_and(same) {
                self.stats.hybrids_rebuilt += 1;
                let mut adds = Vec::new();
                let demand = self.low.demands_to(t.index());
                let add = |l, share| adds.push((l, share));
                let trapped = push_hybrid(flat, dep, [h, l], demand, &mut self.scratch, add);
                *slot = Some(([h.clone(), l.clone()], adds, trapped));
            }
        }
    }

    /// Low loads and trapped volume with `class` on a candidate's
    /// per-destination DAGs `moved` and the other class at the base.
    pub(crate) fn low_loads(&mut self, class: Class, moved: &Dags) -> (ClassLoads, f64) {
        let (flat, dep) = (&self.flat, &self.dep);
        let mut out = vec![0.0; flat.link_count()];
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
                let mut pair = [&*dags[0], &*dags[1]];
                pair[class as usize] = dag;
                let demand = self.low.demands_to(t.index());
                trapped += push_hybrid(flat, dep, pair, demand, &mut self.scratch, add);
            }
        }
        (out, trapped)
    }
}
