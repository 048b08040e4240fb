//! Differential tests of the forwarding model against the path-enumerating
//! oracle in `support/oracle.rs`: every load, trapped volume and SLA pair
//! delay the evaluators report must match the sum over explicit paths.
//!
//! Instances are random 4–7 node duplex networks with weights in 1..=4,
//! so equal-cost ties (and, under partial deployment, forwarding loops)
//! are common. The summation order differs from the kernels', so values
//! are compared at relative 1e-9.

#[path = "support/oracle.rs"]
mod oracle;

use dtr::cost::{link_delay, phi, Objective, ObjectiveSpec, SlaParams};
use dtr::engine::{BackendKind, BatchEvaluator, KClassBatchEvaluator};
use dtr::graph::gen::triangle_topology;
use dtr::graph::weights::DualWeights;
use dtr::graph::{NodeId, Topology, TopologyBuilder, WeightVector};
use dtr::routing::{DeploymentSet, Evaluator, FailureScenario, LoadCalculator};
use dtr::traffic::{DemandSet, TrafficMatrix};
use oracle::{connected, hybrid_all, route, shortest_all};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 200;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-12
}

fn assert_close(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(close(g, w), "{what}[{i}]: got {g}, oracle {w}");
    }
}

/// A random strongly connected duplex network: a random spanning tree
/// plus each other node pair with probability 0.4.
fn network(rng: &mut StdRng) -> Topology {
    let n: usize = rng.random_range(4..=7);
    let mut b = TopologyBuilder::new();
    b.add_nodes(n);
    // parent[v - 1] < v: the tree edge of node v.
    let parent: Vec<usize> = (1..n).map(|v| rng.random_range(0..v)).collect();
    for u in 0..n {
        for v in u + 1..n {
            if parent[v - 1] == u || rng.random_bool(0.4) {
                let cap = [50.0, 100.0, 200.0][rng.random_range(0..3usize)];
                let delay = rng.random_range(0.001..0.005);
                b.add_duplex(NodeId(u as u32), NodeId(v as u32), cap, delay);
            }
        }
    }
    b.build().expect("a spanning tree keeps it connected")
}

fn weights(topo: &Topology, rng: &mut StdRng) -> WeightVector {
    WeightVector::from_vec(
        (0..topo.link_count())
            .map(|_| rng.random_range(1..=4))
            .collect(),
    )
}

/// Each ordered pair carries demand with probability 0.6.
fn matrix(n: usize, rng: &mut StdRng) -> TrafficMatrix {
    let mut m = TrafficMatrix::zeros(n);
    for s in 0..n {
        for t in 0..n {
            if s != t && rng.random_bool(0.6) {
                m.set(s, t, rng.random_range(1.0..20.0));
            }
        }
    }
    m
}

fn demands(n: usize, rng: &mut StdRng) -> DemandSet {
    DemandSet {
        high: matrix(n, rng),
        low: matrix(n, rng),
    }
}

/// `pairs` random duplex pairs down.
fn cut(topo: &Topology, pairs: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut up = vec![true; topo.link_count()];
    for _ in 0..pairs {
        let l = topo
            .links()
            .nth(rng.random_range(0..topo.link_count()))
            .unwrap()
            .0;
        up[l.index()] = false;
        up[topo.reverse_link(l).unwrap().index()] = false;
    }
    up
}

/// A deployment upgrading each node with probability one half.
fn deployment(n: usize, rng: &mut StdRng) -> (DeploymentSet, Vec<bool>) {
    let upgraded: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
    let ids: Vec<u32> = (0..n as u32).filter(|&v| upgraded[v as usize]).collect();
    (DeploymentSet::from_upgraded(n, &ids), upgraded)
}

fn loads_of(topo: &Topology, w: &WeightVector, up: &[bool], m: &TrafficMatrix) -> Vec<f64> {
    route(topo, &shortest_all(topo, w.as_slice(), up), m).0
}

#[test]
fn load_calculator_matches_the_oracle() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut calc = LoadCalculator::new();
    for _ in 0..CASES {
        let topo = network(&mut rng);
        let d = demands(topo.node_count(), &mut rng);
        let w = weights(&topo, &mut rng);
        let all = vec![true; topo.link_count()];

        let want_h = loads_of(&topo, &w, &all, &d.high);
        let want_l = loads_of(&topo, &w, &all, &d.low);
        assert_close(
            "class_loads",
            &calc.class_loads(&topo, &w, &d.high),
            &want_h,
        );
        let joint = Evaluator::new(&topo, &d, Objective::LoadBased).eval_str(&w);
        assert_close("eval_str high", &joint.high_loads, &want_h);
        assert_close("eval_str low", &joint.low_loads, &want_l);

        for pairs in [1, 2] {
            let up = cut(&topo, pairs, &mut rng);
            let got = calc.class_loads_masked(&topo, &w, &up, &d.high);
            assert_close(
                "class_loads_masked",
                &got,
                &loads_of(&topo, &w, &up, &d.high),
            );
        }
    }
}

/// Checks an SLA evaluation's loads and every pair delay against the
/// oracle on the links `up` keeps.
fn check_eval_dual(
    topo: &Topology,
    d: &DemandSet,
    w: &DualWeights,
    up: &[bool],
    ev: &dtr::routing::Evaluation,
) {
    let hops = shortest_all(topo, w.high.as_slice(), up);
    let high = route(topo, &hops, &d.high).0;
    assert_close("eval high loads", &ev.high_loads, &high);
    assert_close(
        "eval low loads",
        &ev.low_loads,
        &loads_of(topo, &w.low, up, &d.low),
    );

    let params = SlaParams::default();
    let delays: Vec<f64> = topo
        .links()
        .map(|(l, link)| {
            let load = high[l.index()];
            link_delay(&params.delay, load, link.capacity, link.prop_delay)
        })
        .collect();
    let sla = ev.sla.as_ref().expect("SLA objective");
    assert_eq!(sla.pair_delays.len(), d.high.positive_pairs().len());
    for p in &sla.pair_delays {
        let want = hops[p.dst].expected_delay(topo, p.src, &delays);
        assert!(
            close(p.delay_s, want),
            "ξ({}→{}): got {}, oracle {want}",
            p.src,
            p.dst,
            p.delay_s
        );
    }
}

#[test]
fn evaluator_loads_and_pair_delays_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut masked = 0;
    for _ in 0..CASES {
        let topo = network(&mut rng);
        let d = demands(topo.node_count(), &mut rng);
        let w = DualWeights {
            high: weights(&topo, &mut rng),
            low: weights(&topo, &mut rng),
        };
        let mut ev = Evaluator::new(&topo, &d, Objective::sla_default());
        let all = vec![true; topo.link_count()];
        check_eval_dual(&topo, &d, &w, &all, &ev.eval_dual(&w));

        for pairs in [1, 2] {
            let up = cut(&topo, pairs, &mut rng);
            if !connected(&topo, &up) {
                continue;
            }
            masked += 1;
            check_eval_dual(&topo, &d, &w, &up, &ev.eval_dual_masked(&w, &up));
        }
    }
    assert!(masked > CASES / 2, "only {masked} masked cases survived");
}

/// The oracle's Φ_L under a deployment: per-link Φ against residual
/// capacity, plus trapped volume at Φ's steepest slope.
fn oracle_phi_l(topo: &Topology, high: &[f64], low: &[f64], trapped: f64) -> f64 {
    let links: f64 = topo
        .links()
        .map(|(l, link)| {
            let i = l.index();
            phi(low[i], (link.capacity - high[i]).max(0.0))
        })
        .sum();
    links + phi(trapped, 0.0)
}

/// Checks the deployed low loads, the trapped volume and the engine's
/// `eval_dual` on both backends under `dep`. Returns the trapped volume.
fn check_deployed(
    topo: &Topology,
    d: &DemandSet,
    w: &DualWeights,
    dep: &DeploymentSet,
    upgraded: &[bool],
) -> f64 {
    let hops = hybrid_all(topo, upgraded, w.high.as_slice(), w.low.as_slice());
    let (low, trapped) = route(topo, &hops, &d.low);
    let all = vec![true; topo.link_count()];
    let high = loads_of(topo, &w.high, &all, &d.high);

    let mut ev = Evaluator::new(topo, d, Objective::LoadBased);
    let (got, undeliverable) = ev.low_loads_deployed(dep, &w.high, &w.low);
    assert_close("low_loads_deployed", &got, &low);
    assert!(
        close(undeliverable, trapped),
        "undeliverable: got {undeliverable}, oracle {trapped}"
    );

    for kind in [BackendKind::Full, BackendKind::Incremental] {
        let mut batch = BatchEvaluator::new(topo, d, Objective::LoadBased, kind);
        batch.set_deployment(Some(dep.clone())).unwrap();
        let e = batch.eval_dual(w);
        assert_close("batch high loads", &e.high_loads, &high);
        assert_close("batch low loads", &e.low_loads, &low);
        let want = oracle_phi_l(topo, &high, &low, trapped);
        assert!(
            close(e.phi_l, want),
            "{kind:?} Φ_L: got {}, oracle {want}",
            e.phi_l
        );
    }
    trapped
}

#[test]
fn partial_deployment_matches_the_oracle() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut trapping = 0;
    for _ in 0..CASES {
        let topo = network(&mut rng);
        let d = demands(topo.node_count(), &mut rng);
        let w = DualWeights {
            high: weights(&topo, &mut rng),
            low: weights(&topo, &mut rng),
        };
        let (dep, upgraded) = deployment(topo.node_count(), &mut rng);
        if check_deployed(&topo, &d, &w, &dep, &upgraded) > 0.0 {
            trapping += 1;
        }
    }
    assert!(trapping > 0, "no random deployment trapped any demand");
}

#[test]
fn the_loop_trapping_triangle_matches_the_oracle() {
    // Legacy A forwards towards C on the high topology via B; upgraded B
    // forwards towards C on the low topology via A.
    let topo = triangle_topology(100.0);
    let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
    let mut wh = WeightVector::uniform(&topo, 1);
    wh.set(topo.find_link(a, c).unwrap(), 10);
    let mut wl = WeightVector::uniform(&topo, 1);
    wl.set(topo.find_link(b, c).unwrap(), 10);
    let w = DualWeights { high: wh, low: wl };
    let mut d = DemandSet {
        high: TrafficMatrix::zeros(3),
        low: TrafficMatrix::zeros(3),
    };
    d.high.set(0, 2, 5.0);
    d.low.set(0, 2, 0.25);
    d.low.set(1, 2, 0.5);
    d.low.set(2, 0, 1.0);
    let dep = DeploymentSet::from_upgraded(3, &[1]);
    let trapped = check_deployed(&topo, &d, &w, &dep, &[false, true, false]);
    assert!(close(trapped, 0.75), "trapped {trapped}");
}

/// The k-class kernel's failure sweep on three classes under `cut()`
/// masks, from a base the incremental backend repairs: every class's
/// loads match the oracle, and every class's Φ the cascade over them.
#[test]
fn k_class_sweep_loads_match_the_oracle_on_both_backends() {
    let mut rng = StdRng::seed_from_u64(6);
    let spec = ObjectiveSpec::load(3);
    for _ in 0..CASES / 4 {
        let topo = network(&mut rng);
        let n = topo.node_count();
        let matrices: Vec<TrafficMatrix> = (0..3).map(|_| matrix(n, &mut rng)).collect();
        let base: Vec<WeightVector> = (0..3).map(|_| weights(&topo, &mut rng)).collect();
        let mut ws = base.clone();
        let l = dtr::graph::LinkId(rng.random_range(0..topo.link_count() as u32));
        ws[1].set(l, base[1].get(l) % 4 + 1);
        let scenarios: Vec<FailureScenario> = (0..3)
            .map(|i| FailureScenario {
                pair_id: i,
                link_up: cut(&topo, 1 + i as usize % 2, &mut rng),
            })
            .collect();
        for kind in [BackendKind::Full, BackendKind::Incremental] {
            let mut kernel =
                KClassBatchEvaluator::new(&topo, matrices.iter().collect(), &spec, kind).unwrap();
            for (c, w) in base.iter().enumerate() {
                kernel.rebase(c, w);
            }
            for (s, swept) in scenarios.iter().zip(kernel.sweep(&ws, &scenarios)) {
                let mut used = vec![0.0; topo.link_count()];
                for c in 0..3 {
                    let what = format!("{kind:?} scenario {} class {c}", s.pair_id);
                    let want = loads_of(&topo, &ws[c], &s.link_up, &matrices[c]);
                    assert_close(&what, &swept.loads[c], &want);
                    let phi_c: f64 = (topo.links())
                        .map(|(l, link)| {
                            let residual = (link.capacity - used[l.index()]).max(0.0);
                            phi(want[l.index()], residual)
                        })
                        .sum();
                    assert_close(&what, &swept.phis[c..=c], &[phi_c]);
                    for (u, x) in used.iter_mut().zip(&want) {
                        *u += x;
                    }
                }
            }
        }
    }
}

#[test]
fn k_class_loads_match_the_oracle_on_both_backends() {
    let mut rng = StdRng::seed_from_u64(4);
    let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
    for _ in 0..CASES / 2 {
        let topo = network(&mut rng);
        let n = topo.node_count();
        let matrices: Vec<TrafficMatrix> = (0..3).map(|_| matrix(n, &mut rng)).collect();
        let ws: Vec<WeightVector> = (0..3).map(|_| weights(&topo, &mut rng)).collect();
        let all = vec![true; topo.link_count()];
        for kind in [BackendKind::Full, BackendKind::Incremental] {
            let mut kernel =
                KClassBatchEvaluator::new(&topo, matrices.iter().collect(), &spec, kind).unwrap();
            let e = kernel.eval(&ws);
            for c in 0..3 {
                let want = loads_of(&topo, &ws[c], &all, &matrices[c]);
                assert_close(&format!("{kind:?} class {c}"), &e.loads[c], &want);
            }
        }
    }
}
