//! k-class batch evaluation over the unified [`ObjectiveSpec`].
//!
//! [`KClassBatchEvaluator`] is the one place that turns `k` weight
//! vectors into a k-class cost — `dtr-multi`'s search, the scenario
//! suite and the experiments all evaluate through it. It generalizes the
//! two-class [`BatchEvaluator`](crate::BatchEvaluator) to `k`
//! strict-priority classes: one lane per class (a backend binding that
//! class's traffic matrix, behind a small cache of (loads, flat DAGs)
//! sides), and a pricing step that runs the shared residual-capacity
//! cascade ([`dtr_routing::cascade_classes`]) and, for SLA-mode classes,
//! the shared SLA walk ([`dtr_routing::sla_walk`]) over the lanes' flat
//! DAGs, with link delays evaluated against each class's **residual**
//! capacity `C̃_c = max(C − Σ_{j<c} load_j, 0)`.
//!
//! Because every class routes independently on its own weight vector,
//! the incremental backend's dynamic-SPF repair applies per class
//! unchanged: a candidate that moves one class's weights repairs only
//! that class's affected destinations, and the other classes' sides come
//! straight from cache. Priority couples a class only to the classes
//! above it, so a batch moving class `c` prices classes `..c` once and
//! each candidate from `c` down. Full and incremental backends remain
//! bit-identical (enforced by `tests/proptests.rs`), and a two-class
//! load spec reproduces the legacy evaluator exactly — class 0's
//! residual is the raw capacity bit-for-bit.

use crate::backend::BackendKind;
use crate::state::WorkStats;
use crate::{dag_cursor, Lane};
use dtr_cost::{link_delay, ClassMode, LexCost, ObjectiveError, ObjectiveSpec};
use dtr_graph::{FlatTopo, NodeId, ShortestPathDag, Topology, WeightVector};
use dtr_routing::{cascade_classes, sla_walk, ClassLoads, SlaEvaluation};
use dtr_traffic::TrafficMatrix;
use std::sync::Arc;

/// Evaluation of one k-class weight setting (one vector per class).
#[derive(Debug, Clone, PartialEq)]
pub struct KClassEvaluation {
    /// Per-class link loads, highest priority first.
    pub loads: Vec<ClassLoads>,
    /// Per-class total Φ against that class's residual capacity.
    pub phis: Vec<f64>,
    /// Per-class per-link Φ.
    pub phi_per_link: Vec<Vec<f64>>,
    /// Per-class SLA outputs (`Some` exactly for SLA-mode classes).
    pub sla: Vec<Option<SlaEvaluation>>,
    /// The lexicographic objective: class i contributes its `Φ` (load
    /// mode) or `Λ` (SLA mode).
    pub cost: LexCost,
}

impl KClassEvaluation {
    /// Residual capacity seen by class `class` on each link.
    pub fn residuals(&self, topo: &Topology, class: usize) -> Vec<f64> {
        topo.links()
            .map(|(lid, link)| {
                let higher: f64 = self.loads[..class].iter().map(|l| l[lid.index()]).sum();
                (link.capacity - higher).max(0.0)
            })
            .collect()
    }

    /// Total per-link load across classes.
    pub fn total_loads(&self) -> Vec<f64> {
        dtr_routing::loads::sum_class_loads(&self.loads)
    }

    /// Average link utilization.
    pub fn avg_utilization(&self, topo: &Topology) -> f64 {
        dtr_routing::loads::avg_utilization(topo, &self.total_loads())
    }
}

/// Entries per class in the side cache. A search step re-reads the `k`
/// current sides and its own last few candidates (the accepted one
/// becomes current); nothing older is revisited often enough to matter.
/// An SLA-class entry holds one `Arc<ShortestPathDag>` per destination:
/// the backend's base `Arc` where the candidate left the destination
/// alone, its own copy where it repaired it. Measured when every entry
/// held a materialized DAG per destination: at 512 entries a 30-node
/// k = 3 suite run held 24 MB, at 16 it held 11 MB at the same speed.
const SIDE_CACHE_CAPACITY: usize = 16;

/// What the per-class lanes produce and their caches hold: loads plus
/// (for SLA classes) the candidate's per-destination flat DAGs.
#[derive(Clone)]
struct ClassSide {
    loads: ClassLoads,
    dags: Vec<(NodeId, Arc<ShortestPathDag>)>,
}

/// The priced rows of a run of consecutive classes: what
/// [`KClassEvaluation`] holds per class.
#[derive(Clone)]
struct Rows {
    loads: Vec<ClassLoads>,
    phis: Vec<f64>,
    phi_per_link: Vec<Vec<f64>>,
    sla: Vec<Option<SlaEvaluation>>,
}

/// The k-class batch evaluator.
pub struct KClassBatchEvaluator<'a> {
    topo: &'a Topology,
    /// The mirror the lanes' handed-out DAGs index.
    flat: FlatTopo,
    matrices: Vec<&'a TrafficMatrix>,
    spec: ObjectiveSpec,
    lanes: Vec<Lane<'a, ClassSide>>,
    /// Per-class destinations with demand, ascending — nonempty only for
    /// SLA classes (the iteration order of their SLA walks).
    dests: Vec<Vec<NodeId>>,
}

impl<'a> KClassBatchEvaluator<'a> {
    /// Binds one traffic matrix per class (highest priority first) under
    /// `spec`, with one lane of `kind` per class, all based at uniform
    /// weight 1.
    pub fn new(
        topo: &'a Topology,
        matrices: Vec<&'a TrafficMatrix>,
        spec: &ObjectiveSpec,
        kind: BackendKind,
    ) -> Result<Self, ObjectiveError> {
        spec.validate()?;
        if spec.class_count() != matrices.len() {
            return Err(ObjectiveError::ClassCountMismatch {
                spec: spec.class_count(),
                demands: matrices.len(),
            });
        }
        let lanes = matrices
            .iter()
            .map(|m| Lane::new(kind, topo, vec![*m], Some(SIDE_CACHE_CAPACITY)))
            .collect();
        let dests = spec
            .classes
            .iter()
            .zip(&matrices)
            .map(|(mode, m)| match mode {
                ClassMode::Sla(_) => topo
                    .nodes()
                    .filter(|t| m.demands_to(t.index()).next().is_some())
                    .collect(),
                ClassMode::Load => Vec::new(),
            })
            .collect();
        Ok(KClassBatchEvaluator {
            topo,
            flat: FlatTopo::new(topo),
            matrices,
            spec: spec.clone(),
            lanes,
            dests,
        })
    }

    /// The bound topology.
    pub fn topo(&self) -> &'a Topology {
        self.topo
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.matrices.len()
    }

    /// Class `class`'s sides of `cands`: its cache first, then one
    /// backend batch over the distinct misses. SLA classes keep DAGs.
    fn sides(&mut self, class: usize, cands: &[WeightVector]) -> Vec<ClassSide> {
        let want_dags = matches!(self.spec.mode(class), ClassMode::Sla(_));
        self.lanes[class].eval(cands, want_dags, |mut ev, _| ClassSide {
            loads: ev.loads.swap_remove(0),
            dags: ev.dags,
        })
    }

    /// Full evaluation of one weight vector per class (highest first).
    pub fn eval(&mut self, weights: &[WeightVector]) -> KClassEvaluation {
        self.eval_class_batch(0, &weights[..1], weights).remove(0)
    }

    /// Evaluates a batch of candidates for one class with every other
    /// class held at `weights`. This is the search stepping pattern: the
    /// moved class's distinct misses go to its backend as one batch,
    /// repaired incrementally from its base; the fixed classes come from
    /// cache; the classes above `class` are priced once for the batch,
    /// and each candidate from `class` down.
    pub fn eval_class_batch(
        &mut self,
        class: usize,
        cands: &[WeightVector],
        weights: &[WeightVector],
    ) -> Vec<KClassEvaluation> {
        assert_eq!(weights.len(), self.class_count(), "one vector per class");
        let moved = self.sides(class, cands);
        let fixed: Vec<ClassSide> = (0..self.class_count())
            .filter(|&c| c != class)
            .map(|c| self.sides(c, std::slice::from_ref(&weights[c])).remove(0))
            .collect();
        let (above, below) = fixed.split_at(class);
        let mut used = vec![0.0; self.topo.link_count()];
        let head = self.price(0, &above.iter().collect::<Vec<_>>(), &mut used);
        moved
            .iter()
            .map(|side| {
                let tail: Vec<&ClassSide> = std::iter::once(side).chain(below).collect();
                let mut rows = head.clone();
                rows.append(self.price(class, &tail, &mut used.clone()));
                rows.into_evaluation()
            })
            .collect()
    }

    /// Moves one class's base weight vector (the search accepted a move),
    /// keeping that class's incremental repairs small.
    pub fn rebase(&mut self, class: usize, w: &WeightVector) {
        self.lanes[class].rebase(w);
    }

    /// `(hits, misses)` summed over the per-class caches.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.lanes.iter().fold((0, 0), |(h, m), lane| {
            let (lh, lm) = lane.cache_stats();
            (h + lh, m + lm)
        })
    }

    /// Work counters summed over the per-class backends, like
    /// [`BatchEvaluator::work_stats`](crate::BatchEvaluator::work_stats):
    /// how each candidate's destinations were disposed of, the full
    /// fallbacks and the rebases. All zero under [`BackendKind::Full`].
    pub fn work_stats(&self) -> WorkStats {
        let mut total = WorkStats::default();
        for lane in &self.lanes {
            total += lane.work_stats();
        }
        total
    }

    /// Prices classes `from..from + sides.len()` below the classes
    /// whose per-link load `used` holds, and adds theirs to it: their
    /// cascade rows, and for SLA classes the walk over their DAGs with
    /// link delays against their residual capacity.
    fn price(&self, from: usize, sides: &[&ClassSide], used: &mut [f64]) -> Rows {
        let loads: Vec<ClassLoads> = sides.iter().map(|s| s.loads.clone()).collect();
        let cascade = cascade_classes(self.topo, &loads, used);
        let sla = (sides.iter().enumerate())
            .map(|(i, side)| {
                let ClassMode::Sla(params) = self.spec.mode(from + i) else {
                    return None;
                };
                let link_delays: Vec<f64> = (self.topo.links())
                    .map(|(lid, link)| {
                        let (load, residual) =
                            (loads[i][lid.index()], cascade.residuals[i][lid.index()]);
                        link_delay(&params.delay, load, residual, link.prop_delay)
                    })
                    .collect();
                let (matrix, dests) = (self.matrices[from + i], &self.dests[from + i]);
                let dags = dag_cursor(&side.dags);
                Some(sla_walk(
                    &self.flat,
                    matrix,
                    dests,
                    link_delays,
                    &params,
                    dags,
                ))
            })
            .collect();
        Rows {
            loads,
            phis: cascade.phis,
            phi_per_link: cascade.phi_per_link,
            sla,
        }
    }
}

impl Rows {
    /// Appends the rows of the classes below these.
    fn append(&mut self, below: Rows) {
        self.loads.extend(below.loads);
        self.phis.extend(below.phis);
        self.phi_per_link.extend(below.phi_per_link);
        self.sla.extend(below.sla);
    }

    /// The evaluation of every class's rows: class `c` contributes its
    /// `Λ` (SLA mode) or `Φ` (load mode) to the cost.
    fn into_evaluation(self) -> KClassEvaluation {
        let components = (self.phis.iter().zip(&self.sla))
            .map(|(&phi, sla)| sla.as_ref().map_or(phi, |s| s.lambda))
            .collect();
        KClassEvaluation {
            loads: self.loads,
            phis: self.phis,
            phi_per_link: self.phi_per_link,
            sla: self.sla,
            cost: LexCost::new(components),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_cost::{Objective, SlaParams};
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};
    use dtr_graph::weights::DualWeights;
    use dtr_routing::Evaluator;
    use dtr_traffic::{DemandSet, TrafficCfg};

    const KINDS: [BackendKind; 2] = [BackendKind::Full, BackendKind::Incremental];

    fn instance(seed: u64) -> (Topology, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed,
                ..Default::default()
            },
        )
        .scaled(3.0);
        (topo, demands)
    }

    #[test]
    fn two_class_load_spec_matches_evaluator_bitwise() {
        let (topo, demands) = instance(21);
        let spec = ObjectiveSpec::two_class_load();
        for kind in KINDS {
            let mut kc =
                KClassBatchEvaluator::new(&topo, vec![&demands.high, &demands.low], &spec, kind)
                    .unwrap();
            let wh = WeightVector::uniform(&topo, 1);
            let mut wl = WeightVector::uniform(&topo, 1);
            wl.set(dtr_graph::LinkId(3), 9);
            let e = kc.eval(&[wh.clone(), wl.clone()]);

            let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
            let r = ev.eval_dual(&DualWeights { high: wh, low: wl });
            assert_eq!(e.phis[0], r.phi_h);
            assert_eq!(e.phis[1], r.phi_l);
            assert_eq!(e.phi_per_link[0], r.phi_h_per_link);
            assert_eq!(e.phi_per_link[1], r.phi_l_per_link);
            assert_eq!(e.loads[0], r.high_loads);
            assert_eq!(e.loads[1], r.low_loads);
        }
    }

    #[test]
    fn two_class_sla_spec_matches_evaluator_bitwise() {
        let (topo, demands) = instance(22);
        let params = SlaParams::default();
        let spec = ObjectiveSpec::from(Objective::SlaBased(params));
        for kind in KINDS {
            let mut kc =
                KClassBatchEvaluator::new(&topo, vec![&demands.high, &demands.low], &spec, kind)
                    .unwrap();
            let wh = WeightVector::uniform(&topo, 1);
            let wl = WeightVector::delay_proportional(&topo, 30);
            let e = kc.eval(&[wh.clone(), wl.clone()]);

            let mut ev = Evaluator::new(&topo, &demands, Objective::SlaBased(params));
            let r = ev.eval_dual(&DualWeights { high: wh, low: wl });
            let rs = r.sla.as_ref().unwrap();
            let ks = e.sla[0].as_ref().unwrap();
            assert_eq!(ks.lambda, rs.lambda);
            assert_eq!(ks.link_delays, rs.link_delays);
            assert_eq!(ks.pair_delays, rs.pair_delays);
            assert_eq!(e.cost.get(0), r.cost.primary);
            assert_eq!(e.cost.get(1), r.cost.secondary);
        }
    }

    #[test]
    fn three_class_full_and_incremental_agree() {
        let (topo, demands) = instance(23);
        // Split the low matrix into two classes by reusing it twice at
        // different priorities — the cascade treats them independently.
        let matrices = vec![&demands.high, &demands.low, &demands.high];
        let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
        let mut full =
            KClassBatchEvaluator::new(&topo, matrices.clone(), &spec, BackendKind::Full).unwrap();
        let mut incr =
            KClassBatchEvaluator::new(&topo, matrices, &spec, BackendKind::Incremental).unwrap();
        let mut weights = vec![WeightVector::uniform(&topo, 1); 3];
        weights[1] = WeightVector::delay_proportional(&topo, 30);
        let a = full.eval(&weights);
        let b = incr.eval(&weights);
        assert_eq!(a, b);
        assert!(a.sla[0].is_some() && a.sla[1].is_some() && a.sla[2].is_none());

        // Candidate stepping on the middle class agrees too.
        let mut cands = Vec::new();
        for i in 0..4u32 {
            let mut w = weights[1].clone();
            w.set(dtr_graph::LinkId(i), 7 + i);
            cands.push(w);
        }
        let ba = full.eval_class_batch(1, &cands, &weights);
        let bb = incr.eval_class_batch(1, &cands, &weights);
        assert_eq!(ba, bb);
    }

    /// One- and two-link moves of `w` (links picked by `salt`), then an
    /// in-batch duplicate of the first and `w` itself.
    fn step_batch(topo: &Topology, w: &WeightVector, salt: u32) -> Vec<WeightVector> {
        let m = topo.link_count() as u32;
        let mut cands: Vec<WeightVector> = (0..4u32)
            .map(|i| {
                let mut c = w.clone();
                let lid = dtr_graph::LinkId((salt * 7 + i * 11) % m);
                c.set(lid, c.get(lid) % 30 + 1);
                if i % 2 == 1 {
                    c.set(dtr_graph::LinkId((salt * 13 + i * 5 + 1) % m), 2 + i);
                }
                c
            })
            .collect();
        cands.push(cands[0].clone());
        cands.push(w.clone());
        cands
    }

    #[test]
    fn class_batches_match_eval_of_each_moved_setting() {
        let (topo, demands) = instance(27);
        let matrices = vec![&demands.high, &demands.low, &demands.high];
        let sla = ClassMode::Sla(SlaParams::default());
        let spec = ObjectiveSpec {
            classes: vec![sla, ClassMode::Load, sla],
        };
        let mut weights = vec![WeightVector::delay_proportional(&topo, 30); 3];
        weights[1] = WeightVector::uniform(&topo, 3);
        let reference = |w: &[WeightVector]| {
            KClassBatchEvaluator::new(&topo, matrices.clone(), &spec, BackendKind::Full)
                .unwrap()
                .eval(w)
        };
        for kind in KINDS {
            let mut kc = KClassBatchEvaluator::new(&topo, matrices.clone(), &spec, kind).unwrap();
            for (c, w) in weights.iter().enumerate() {
                kc.rebase(c, w);
            }
            assert_eq!(kc.eval(&weights), reference(&weights));
            for class in 0..3 {
                let cands = step_batch(&topo, &weights[class], class as u32);
                let (hits, _) = kc.cache_stats();
                let evals = kc.eval_class_batch(class, &cands, &weights);
                // The last candidate is the current side: a cache hit.
                assert!(kc.cache_stats().0 > hits, "{kind:?} class {class}");
                assert_eq!(evals[0], evals[4]);
                for (cand, ev) in cands.iter().zip(&evals) {
                    let mut moved = weights.clone();
                    moved[class] = cand.clone();
                    assert_eq!(ev, &reference(&moved), "{kind:?} class {class}");
                }
            }
        }
    }

    /// A kernel rebased onto the setting it steps from repairs its
    /// candidates; one left at its uniform construction base hands every
    /// candidate back for a full evaluation.
    #[test]
    fn a_rebased_kernel_steps_without_full_fallbacks() {
        let (topo, demands) = instance(28);
        let matrices = vec![&demands.high, &demands.low, &demands.high];
        let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
        let weights = vec![WeightVector::delay_proportional(&topo, 30); 3];
        let cands = step_batch(&topo, &weights[1], 1);
        let kind = BackendKind::Incremental;
        let mut kc = KClassBatchEvaluator::new(&topo, matrices.clone(), &spec, kind).unwrap();
        for (c, w) in weights.iter().enumerate() {
            kc.rebase(c, w);
        }
        let stepped = kc.eval_class_batch(1, &cands, &weights);
        let stats = kc.work_stats();
        assert_eq!(stats.full_fallbacks, 0, "{stats:?}");
        assert!(stats.replayed > 0, "{stats:?}");

        let mut cold = KClassBatchEvaluator::new(&topo, matrices, &spec, kind).unwrap();
        assert_eq!(cold.eval_class_batch(1, &cands, &weights), stepped);
        assert!(cold.work_stats().full_fallbacks > 0);
        let full = BackendKind::Full;
        let full = KClassBatchEvaluator::new(&topo, vec![&demands.high; 3], &spec, full).unwrap();
        assert_eq!(full.work_stats(), WorkStats::default());
    }

    /// 3 classes on the unit triangle, all A→C, 1/3 each.
    fn stacked_triangle() -> (Topology, Vec<TrafficMatrix>) {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 1.0 / 3.0);
        (dtr_graph::gen::triangle_topology(1.0), vec![m; 3])
    }

    #[test]
    fn cascading_residuals_on_shared_path() {
        let (topo, classes) = stacked_triangle();
        let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        for kind in KINDS {
            let mut kc = KClassBatchEvaluator::new(
                &topo,
                classes.iter().collect(),
                &ObjectiveSpec::load(3),
                kind,
            )
            .unwrap();
            let e = kc.eval(&vec![WeightVector::uniform(&topo, 1); 3]);
            // Class 0: Φ(1/3, 1) = 1/3. Class 1: Φ(1/3, 2/3) (util 0.5 →
            // 3·1/3 − 2/3·2/3 = 5/9). Class 2: Φ(1/3, 1/3) (util 1 →
            // 70/3 − 178/9 = 32/9).
            assert!((e.phis[0] - 1.0 / 3.0).abs() < 1e-9);
            assert!((e.phis[1] - 5.0 / 9.0).abs() < 1e-9, "got {}", e.phis[1]);
            assert!((e.phis[2] - 32.0 / 9.0).abs() < 1e-9, "got {}", e.phis[2]);
            assert!((e.residuals(&topo, 2)[ac.index()] - 1.0 / 3.0).abs() < 1e-9);
            assert_eq!(e.cost.as_slice(), &e.phis[..]);
        }
    }

    #[test]
    fn sla_components_use_residual_capacity() {
        // Classes 0 and 1 under SLA on one shared path: class 1's link
        // delays see the residual left by class 0, so they are strictly
        // larger on the shared link.
        let (topo, classes) = stacked_triangle();
        let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
        for kind in KINDS {
            let mut kc =
                KClassBatchEvaluator::new(&topo, classes.iter().collect(), &spec, kind).unwrap();
            let e = kc.eval(&vec![WeightVector::uniform(&topo, 1); 3]);
            let d0 = e.sla[0].as_ref().unwrap().link_delays[ac.index()];
            let d1 = e.sla[1].as_ref().unwrap().link_delays[ac.index()];
            assert!(d1 > d0, "residual delays must cascade: {d0} vs {d1}");
            assert!(e.sla[2].is_none());
            // Components: λ for SLA classes, Φ for the load class.
            assert_eq!(e.cost.get(0), e.sla[0].as_ref().unwrap().lambda);
            assert_eq!(e.cost.get(2), e.phis[2]);
        }
    }

    /// Class 0 saturates the shared link, leaving class 1 no residual
    /// there: class 1's delay on it is the finite cap, and its SLA cost
    /// grows monotonically as class 0's load squeezes the residual to 0.
    #[test]
    fn a_saturated_link_costs_the_lower_class_the_delay_cap() {
        let (topo, mut classes) = stacked_triangle();
        let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        let prop = topo.link(ac).prop_delay;
        let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
        let w = vec![WeightVector::uniform(&topo, 1); 3];
        for kind in KINDS {
            let mut prev = (0.0, 0.0);
            for high in [0.5, 0.9, 0.99, 1.0, 1.5] {
                classes[0].set(0, 2, high);
                let mut kc =
                    KClassBatchEvaluator::new(&topo, classes.iter().collect(), &spec, kind)
                        .unwrap();
                let e = kc.eval(&w);
                let sla = e.sla[1].as_ref().unwrap();
                let (delay, lambda) = (sla.link_delays[ac.index()], sla.lambda);
                assert!(
                    delay.is_finite() && lambda.is_finite(),
                    "{high}: {delay}, {lambda}"
                );
                assert!(
                    delay >= prev.0 && lambda >= prev.1,
                    "{high}: {delay}, {lambda}"
                );
                if high >= 1.0 {
                    assert_eq!(e.residuals(&topo, 1)[ac.index()], 0.0);
                    assert_eq!(delay, dtr_cost::MAX_QUEUEING_DELAY_S + prop);
                }
                prev = (delay, lambda);
            }
        }
    }

    #[test]
    fn higher_class_immune_to_lower_weights() {
        let (topo, demands) = instance(25);
        let matrices = vec![&demands.high, &demands.low, &demands.high];
        for kind in KINDS {
            let mut kc =
                KClassBatchEvaluator::new(&topo, matrices.clone(), &ObjectiveSpec::load(3), kind)
                    .unwrap();
            let base = vec![WeightVector::uniform(&topo, 1); 3];
            let mut tweaked = base.clone();
            tweaked[2] = WeightVector::delay_proportional(&topo, 30);
            let a = kc.eval(&base);
            let b = kc.eval(&tweaked);
            assert_eq!(a.phis[0], b.phis[0]);
            assert_eq!(a.phis[1], b.phis[1]);
            assert_ne!(a.phis[2], b.phis[2]);
        }
    }

    #[test]
    fn rejects_a_single_class() {
        let (topo, demands) = instance(26);
        for kind in KINDS {
            let err =
                KClassBatchEvaluator::new(&topo, vec![&demands.low], &ObjectiveSpec::load(1), kind);
            assert!(matches!(
                err.err(),
                Some(ObjectiveError::TooFewClasses { got: 1 })
            ));
        }
    }

    #[test]
    fn rejects_mismatched_class_count() {
        let (topo, demands) = instance(24);
        let spec = ObjectiveSpec::load(3);
        let err = KClassBatchEvaluator::new(
            &topo,
            vec![&demands.high, &demands.low],
            &spec,
            BackendKind::Full,
        );
        assert!(matches!(
            err.err(),
            Some(ObjectiveError::ClassCountMismatch {
                spec: 3,
                demands: 2
            })
        ));
    }
}
