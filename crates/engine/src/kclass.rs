//! k-class batch evaluation over the unified [`ObjectiveSpec`].
//!
//! [`KClassBatchEvaluator`] is the one place that turns `k` weight
//! vectors into a k-class cost — `dtr-multi`'s search, the scenario
//! suite and the experiments all evaluate through it. It generalizes the
//! two-class [`BatchEvaluator`](crate::BatchEvaluator) to `k`
//! strict-priority classes: one [`EvalBackend`] per class (each binding
//! that class's traffic matrix), a small per-class side cache over
//! (loads, DAGs), and an assembly step that runs the shared
//! residual-capacity cascade ([`dtr_routing::cascade_classes`]) and, for
//! SLA-mode classes, the shared SLA walk ([`dtr_routing::sla_walk`])
//! over link delays evaluated against each class's **residual**
//! capacity `C̃_c = max(C − Σ_{j<c} load_j, 0)`.
//!
//! Because every class routes independently on its own weight vector,
//! the incremental backend's dynamic-SPF repair applies per class
//! unchanged: a candidate that moves one class's weights repairs only
//! that class's affected destinations, and the other classes' sides come
//! straight from cache. Full and incremental backends remain
//! bit-identical (enforced by `tests/proptests.rs`), and a two-class
//! load spec reproduces the legacy evaluator exactly — class 0's
//! residual is the raw capacity bit-for-bit.

use crate::backend::{make_backend, BackendKind, EvalBackend};
use crate::cache::LruCache;
use dtr_cost::{link_delay, ClassMode, LexCost, ObjectiveError, ObjectiveSpec};
use dtr_graph::{NodeId, ShortestPathDag, Topology, WeightVector};
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
/// Every entry of an SLA class pins one `Arc<ShortestPathDag>` per
/// destination, so the capacity bounds resident DAGs: at the two-class
/// evaluator's 512 entries a 30-node k = 3 suite run held 24 MB, at 16
/// it holds 11 MB at the same speed.
const SIDE_CACHE_CAPACITY: usize = 16;

/// What the per-class backends produce and the caches hold: loads plus
/// (for SLA classes) the candidate's per-destination DAGs.
#[derive(Clone)]
struct ClassSide {
    loads: ClassLoads,
    dags: Vec<(NodeId, Arc<ShortestPathDag>)>,
}

/// The k-class batch evaluator.
pub struct KClassBatchEvaluator<'a> {
    topo: &'a Topology,
    matrices: Vec<&'a TrafficMatrix>,
    spec: ObjectiveSpec,
    backends: Vec<Box<dyn EvalBackend + 'a>>,
    caches: Vec<LruCache<ClassSide>>,
    /// Per-class destinations with demand, ascending — nonempty only for
    /// SLA classes (the iteration order of their SLA walks).
    dests: Vec<Vec<NodeId>>,
}

impl<'a> KClassBatchEvaluator<'a> {
    /// Binds one traffic matrix per class (highest priority first) under
    /// `spec`, building one backend of `kind` per class, all based at
    /// uniform weight 1.
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
        let w0 = WeightVector::uniform(topo, 1);
        let backends = matrices
            .iter()
            .map(|m| make_backend(kind, topo, vec![*m], w0.clone()))
            .collect();
        let caches = matrices
            .iter()
            .map(|_| LruCache::new(SIDE_CACHE_CAPACITY))
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
            matrices,
            spec: spec.clone(),
            backends,
            caches,
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

    /// SLA classes need their candidates' DAGs for the delay walk.
    fn want_dags(&self, class: usize) -> bool {
        matches!(self.spec.mode(class), ClassMode::Sla(_))
    }

    /// One class side (loads + DAGs), cache first, then the backend.
    fn class_side(&mut self, class: usize, w: &WeightVector) -> ClassSide {
        if let Some(side) = self.caches[class].get(w) {
            return side;
        }
        let want_dags = self.want_dags(class);
        let mut ev = self.backends[class]
            .eval_batch(std::slice::from_ref(w), want_dags)
            .pop()
            .unwrap();
        let side = ClassSide {
            loads: ev.loads.swap_remove(0),
            dags: ev.dags,
        };
        self.caches[class].put(w, side.clone());
        side
    }

    /// Every class's side at `weights` (one vector per class).
    fn sides(&mut self, weights: &[WeightVector]) -> Vec<ClassSide> {
        assert_eq!(weights.len(), self.class_count(), "one vector per class");
        weights
            .iter()
            .enumerate()
            .map(|(c, w)| self.class_side(c, w))
            .collect()
    }

    /// Full evaluation of one weight vector per class (highest first).
    pub fn eval(&mut self, weights: &[WeightVector]) -> KClassEvaluation {
        let sides = self.sides(weights);
        self.assemble(&sides)
    }

    /// Evaluates a batch of candidates for one class with every other
    /// class held at `weights`. This is the search stepping pattern: the
    /// moved class repairs incrementally from its base, the fixed
    /// classes come from cache.
    pub fn eval_class_batch(
        &mut self,
        class: usize,
        cands: &[WeightVector],
        weights: &[WeightVector],
    ) -> Vec<KClassEvaluation> {
        let mut sides = self.sides(weights);
        cands
            .iter()
            .map(|w| {
                sides[class] = self.class_side(class, w);
                self.assemble(&sides)
            })
            .collect()
    }

    /// Moves one class's base weight vector (the search accepted a move),
    /// keeping that class's incremental repairs small.
    pub fn rebase(&mut self, class: usize, w: &WeightVector) {
        self.backends[class].rebase(w);
    }

    /// `(hits, misses)` summed over the per-class caches.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.caches.iter().fold((0, 0), |(h, m), c| {
            let (ch, cm) = c.stats();
            (h + ch, m + cm)
        })
    }

    /// Cascade + per-class cost components from assembled sides.
    fn assemble(&self, sides: &[ClassSide]) -> KClassEvaluation {
        let k = sides.len();
        let loads: Vec<ClassLoads> = sides.iter().map(|s| s.loads.clone()).collect();
        let cascade = cascade_classes(self.topo, &loads);
        let mut components = cascade.phis.clone();
        let mut sla: Vec<Option<SlaEvaluation>> = vec![None; k];
        for c in 0..k {
            if let ClassMode::Sla(params) = self.spec.mode(c) {
                let link_delays: Vec<f64> = self
                    .topo
                    .links()
                    .map(|(lid, link)| {
                        link_delay(
                            &params.delay,
                            loads[c][lid.index()],
                            cascade.residuals[c][lid.index()],
                            link.prop_delay,
                        )
                    })
                    .collect();
                let mut by_node: Vec<Option<&Arc<ShortestPathDag>>> =
                    vec![None; self.topo.node_count()];
                for (t, dag) in &sides[c].dags {
                    by_node[t.index()] = Some(dag);
                }
                let s = sla_walk(
                    self.topo,
                    self.matrices[c],
                    &self.dests[c],
                    link_delays,
                    &params,
                    |t| {
                        by_node[t.index()]
                            .expect("backend DAGs cover every SLA-class destination")
                            .clone()
                    },
                );
                components[c] = s.lambda;
                sla[c] = Some(s);
            }
        }
        let cost = LexCost::new(components);
        KClassEvaluation {
            loads,
            phis: cascade.phis,
            phi_per_link: cascade.phi_per_link,
            sla,
            cost,
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
