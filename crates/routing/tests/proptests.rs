//! Property tests for the routing engine.
//!
//! Core invariants, checked over random topologies, weights and demands:
//!
//! 1. **Flow conservation**: at every transit node, per-destination inflow
//!    equals outflow; all offered demand is delivered.
//! 2. **Load totality**: the sum of per-link loads equals the sum over SD
//!    pairs of demand × path length (in links) — equivalently, loads are
//!    consistent with a unit of traffic occupying one link per hop.
//! 3. **STR/DTR consistency**: replicated dual weights reproduce STR.
//! 4. **Cost sanity**: Φ values are finite and non-negative, the
//!    lexicographic cost matches its components, and SLA pair delays are
//!    bounded below by the shortest-path propagation delay.
//! 5. **One hybrid rule**: under a partial deployment the hybrid DAG is
//!    a valid DAG, and pushing demand down it is `push_hybrid`.

use dtr_cost::Objective;
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::spf::UNREACHABLE;
use dtr_graph::weights::DualWeights;
use dtr_graph::{
    FlatTopo, NodeId, ShortestPathDag, Topology, WeightVector, MAX_WEIGHT, MIN_WEIGHT,
};
use dtr_routing::{
    demand_column, hybrid_low_dag, push_demand_flat, push_hybrid, DeploymentSet, Evaluator,
    HybridScratch, LoadCalculator,
};
use dtr_traffic::{DemandSet, TrafficCfg, TrafficMatrix};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn small_instance(seed: u64) -> (Topology, DemandSet) {
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
    );
    (topo, demands)
}

fn rand_weights(topo: &Topology, seed: u64) -> WeightVector {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    WeightVector::from_vec(
        (0..topo.link_count())
            .map(|_| rng.random_range(MIN_WEIGHT..=MAX_WEIGHT))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flow_is_conserved_per_destination(seed in 0u64..300, wseed in 0u64..300) {
        let (topo, _) = small_instance(seed);
        let weights = rand_weights(&topo, wseed);
        // Single-destination demand: check node balance directly.
        let t = NodeId((seed % 12) as u32);
        let mut m = TrafficMatrix::zeros(12);
        let mut offered = 0.0;
        for s in 0..12usize {
            if s != t.index() {
                let v = 1.0 + (s as f64);
                m.set(s, t.index(), v);
                offered += v;
            }
        }
        let loads = LoadCalculator::new().class_loads(&topo, &weights, &m);

        // Inflow at destination equals total offered demand.
        let into_t: f64 = topo.in_links(t).iter().map(|&l| loads[l.index()]).sum();
        prop_assert!((into_t - offered).abs() < 1e-6 * offered.max(1.0));

        // Transit balance: inflow + locally offered = outflow for v ≠ t.
        for v in topo.nodes() {
            if v == t { continue; }
            let inflow: f64 = topo.in_links(v).iter().map(|&l| loads[l.index()]).sum();
            let outflow: f64 = topo.out_links(v).iter().map(|&l| loads[l.index()]).sum();
            let local = m.get(v.index(), t.index());
            prop_assert!(
                (inflow + local - outflow).abs() < 1e-6 * offered.max(1.0),
                "node {v}: in {inflow} + local {local} != out {outflow}"
            );
        }
    }

    #[test]
    fn loads_equal_demand_times_hops(seed in 0u64..300, wseed in 0u64..300) {
        let (topo, demands) = small_instance(seed);
        let weights = rand_weights(&topo, wseed);
        let loads = LoadCalculator::new().class_loads(&topo, &weights, &demands.low);
        let total_load: f64 = loads.iter().sum();

        // Expected: Σ demand(s,t) · E[hops(s,t)], where E[hops] is the
        // expected hop count over even ECMP splitting. Compute it with an
        // independent DP over the DAG.
        let mut expect = 0.0;
        let ft = dtr_graph::FlatTopo::new(&topo);
        for t in topo.nodes() {
            let dag = dtr_graph::ShortestPathDag::compute(&topo, &weights, t);
            let mut hops = vec![0.0f64; topo.node_count()];
            for &v in dag.order.iter().rev() {
                let vi = v as usize;
                if NodeId(v) == t { continue; }
                let branches = dag.branches(&ft, v);
                if branches.is_empty() { continue; }
                let mut acc = 0.0;
                for &lid in branches {
                    acc += 1.0 + hops[ft.dst(lid) as usize];
                }
                hops[vi] = acc / branches.len() as f64;
            }
            for (s, v) in demands.low.demands_to(t.index()) {
                expect += v * hops[s];
            }
        }
        prop_assert!(
            (total_load - expect).abs() < 1e-6 * expect.max(1.0),
            "loads {total_load} vs expected {expect}"
        );
    }

    #[test]
    fn replicated_dual_equals_str(seed in 0u64..200, wseed in 0u64..200) {
        let (topo, demands) = small_instance(seed);
        let w = rand_weights(&topo, wseed);
        for objective in [Objective::LoadBased, Objective::sla_default()] {
            let mut ev = Evaluator::new(&topo, &demands, objective);
            let a = ev.eval_str(&w);
            let b = ev.eval_dual(&DualWeights::replicated(w.clone()));
            prop_assert_eq!(a.cost, b.cost);
        }
    }

    #[test]
    fn costs_are_finite_and_consistent(seed in 0u64..200, w1 in 0u64..200, w2 in 0u64..200) {
        let (topo, demands) = small_instance(seed);
        let dual = DualWeights {
            high: rand_weights(&topo, w1),
            low: rand_weights(&topo, w2),
        };
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let e = ev.eval_dual(&dual);
        prop_assert!(e.phi_h.is_finite() && e.phi_h >= 0.0);
        prop_assert!(e.phi_l.is_finite() && e.phi_l >= 0.0);
        prop_assert!((e.phi_h - e.phi_h_per_link.iter().sum::<f64>()).abs() < 1e-6);
        prop_assert!((e.phi_l - e.phi_l_per_link.iter().sum::<f64>()).abs() < 1e-6);
        prop_assert_eq!(e.cost, dtr_cost::Lex2::new(e.phi_h, e.phi_l));
    }

    #[test]
    fn sla_delays_bounded_by_propagation(seed in 0u64..100, w1 in 0u64..100) {
        let (topo, demands) = small_instance(seed);
        let wh = rand_weights(&topo, w1);
        let mut ev = Evaluator::new(&topo, &demands, Objective::sla_default());
        let e = ev.eval_dual(&DualWeights::replicated(wh.clone()));
        let sla = e.sla.as_ref().unwrap();
        // Each pair's delay is at least the minimum single-link
        // propagation delay (paths have ≥ 1 hop).
        let min_prop = topo.links().map(|(_, l)| l.prop_delay).fold(f64::MAX, f64::min);
        for pd in &sla.pair_delays {
            prop_assert!(pd.delay_s >= min_prop);
            prop_assert!(pd.delay_s.is_finite());
            if pd.penalty > 0.0 {
                prop_assert!(pd.delay_s > 0.025);
            }
        }
        // Violations counter matches penalty records.
        let v = sla.pair_delays.iter().filter(|p| p.penalty > 0.0).count();
        prop_assert_eq!(v, sla.violations);
    }

    #[test]
    fn high_class_cost_independent_of_low_weights(seed in 0u64..100, w1 in 0u64..100, w2 in 0u64..100, w3 in 0u64..100) {
        // Priority queueing isolation: Φ_H must not change when only the
        // low-priority weight vector changes.
        let (topo, demands) = small_instance(seed);
        let wh = rand_weights(&topo, w1);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let a = ev.eval_dual(&DualWeights { high: wh.clone(), low: rand_weights(&topo, w2) });
        let b = ev.eval_dual(&DualWeights { high: wh, low: rand_weights(&topo, w3) });
        prop_assert_eq!(a.phi_h, b.phi_h);
        prop_assert_eq!(a.high_loads, b.high_loads);
    }

    #[test]
    fn failure_scenarios_are_survivable_and_canonical(seed in 0u64..200) {
        let (topo, _) = small_instance(seed);
        let scenarios = dtr_routing::survivable_duplex_failures(&topo);
        for sc in &scenarios {
            prop_assert!(dtr_routing::strongly_connected_under(&topo, &sc.link_up));
            let down = sc.link_up.iter().filter(|&&u| !u).count();
            prop_assert_eq!(down, 2, "exactly one duplex pair fails");
            // The two down links are exactly the canonical pair and its
            // reverse twin — never two unrelated directed links.
            let lid = dtr_graph::LinkId(sc.pair_id);
            let twin = topo.reverse_link(lid).unwrap();
            prop_assert!(lid.index() < twin.index());
            prop_assert!(!sc.link_up[lid.index()]);
            prop_assert!(!sc.link_up[twin.index()]);
        }
    }

    #[test]
    fn failure_scenario_set_is_complete(seed in 0u64..120) {
        // Every duplex pair is either in the survivable set or its cut
        // genuinely disconnects the topology — the enumeration drops
        // nothing else.
        let (topo, _) = small_instance(seed);
        let scenarios = dtr_routing::survivable_duplex_failures(&topo);
        let included: std::collections::HashSet<u32> =
            scenarios.iter().map(|sc| sc.pair_id).collect();
        for (lid, _) in topo.links() {
            let twin = topo.reverse_link(lid).unwrap();
            if twin.index() < lid.index() {
                continue; // canonical direction only
            }
            let mut up = vec![true; topo.link_count()];
            up[lid.index()] = false;
            up[twin.index()] = false;
            let survivable = dtr_routing::strongly_connected_under(&topo, &up);
            prop_assert_eq!(
                included.contains(&lid.0),
                survivable,
                "pair {} must be included iff its cut keeps the topology strongly connected",
                lid.0
            );
        }
    }

    /// A full `DeploymentSet` must be indistinguishable from no
    /// deployment at all: every field of the evaluation — loads, per-link
    /// Φ vectors, scalar Φ values, and the lexicographic cost — is
    /// bit-identical to the plain evaluator, because full sets normalize
    /// to the legacy code path rather than re-deriving it.
    #[test]
    fn full_deployment_is_bit_identical_to_the_plain_evaluator(
        seed in 0u64..200,
        wseed in 0u64..500,
    ) {
        let (topo, demands) = small_instance(seed);
        let w = DualWeights {
            high: rand_weights(&topo, wseed),
            low: rand_weights(&topo, wseed.wrapping_add(1)),
        };
        let plain = Evaluator::new(&topo, &demands, Objective::LoadBased).eval_dual(&w);
        let mut deployed = Evaluator::new(&topo, &demands, Objective::LoadBased);
        deployed
            .set_deployment(Some(dtr_routing::DeploymentSet::full(topo.node_count())))
            .unwrap();
        let dep = deployed.eval_dual(&w);
        prop_assert_eq!(&plain.high_loads, &dep.high_loads);
        prop_assert_eq!(&plain.low_loads, &dep.low_loads);
        prop_assert_eq!(&plain.phi_h_per_link, &dep.phi_h_per_link);
        prop_assert_eq!(&plain.phi_l_per_link, &dep.phi_l_per_link);
        prop_assert!(plain.phi_h == dep.phi_h && plain.phi_l == dep.phi_l);
        prop_assert_eq!(plain.cost, dep.cost);
    }

    /// Legacy nodes only reroute the *low* class: under any partial
    /// deployment the high-topology side of the evaluation (loads,
    /// per-link Φ, Φ_H) is bit-identical to the plain evaluator.
    #[test]
    fn partial_deployment_never_touches_the_high_class(
        seed in 0u64..200,
        wseed in 0u64..500,
        dseed in 0u64..500,
    ) {
        let (topo, demands) = small_instance(seed);
        let n = topo.node_count();
        let w = DualWeights {
            high: rand_weights(&topo, wseed),
            low: rand_weights(&topo, wseed.wrapping_add(1)),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(dseed);
        let mut upgraded: Vec<u32> =
            (0..n as u32).filter(|_| rng.random_range(0..2) == 1).collect();
        if upgraded.len() == n {
            upgraded.pop(); // keep the set genuinely partial
        }
        let set = dtr_routing::DeploymentSet::from_upgraded(n, &upgraded);
        let plain = Evaluator::new(&topo, &demands, Objective::LoadBased).eval_dual(&w);
        let mut deployed = Evaluator::new(&topo, &demands, Objective::LoadBased);
        deployed.set_deployment(Some(set)).unwrap();
        let dep = deployed.eval_dual(&w);
        prop_assert_eq!(&plain.high_loads, &dep.high_loads);
        prop_assert_eq!(&plain.phi_h_per_link, &dep.phi_h_per_link);
        prop_assert!(plain.phi_h == dep.phi_h);
        prop_assert!(dep.phi_l.is_finite() && dep.phi_l >= 0.0);
    }
}

/// The hybrid DAG of random small partial deployments is what the fluid
/// solver and the DES need — the destination last at rank 0, the nodes
/// the walk leaves out first and without branches, every other branch
/// pointing later in `order` — and the one demand push over it makes
/// exactly `push_hybrid`'s adds and trapped volume. A plain loop rather than
/// `proptest!`, so that it can also check that loops were among the
/// cases.
#[test]
fn hybrid_dag_is_valid_and_pushes_like_the_walk() {
    let mut trapping = 0;
    for seed in 0..200u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.random_range(4..=8usize);
        let topo = random_topology(&RandomTopologyCfg {
            nodes: n,
            directed_links: 2 * (n + rng.random_range(0..=n * (n - 3) / 2)),
            seed,
        });
        let ft = FlatTopo::new(&topo);
        let mut weights = || {
            let w = (0..topo.link_count()).map(|_| rng.random_range(1..=4));
            WeightVector::from_vec(w.collect())
        };
        let (wh, wl) = (weights(), weights());
        let upgraded: Vec<u32> = (0..n as u32).filter(|_| rng.random_bool(0.5)).collect();
        let dep = DeploymentSet::from_upgraded(n, &upgraded);
        let mut m = TrafficMatrix::zeros(n);
        for s in 0..n {
            for t in (0..n).filter(|&t| t != s) {
                m.set(s, t, rng.random_range(0.5..2.0));
            }
        }
        let mut scratch = HybridScratch::default();
        for t in topo.nodes() {
            let dh = ShortestPathDag::compute(&topo, &wh, t);
            let dl = ShortestPathDag::compute(&topo, &wl, t);
            let dag = hybrid_low_dag(&ft, &dep, &dh, &dl);
            let case = format!("seed {seed}, destination {t}");
            assert_eq!(dag.order.last(), Some(&t.0), "{case}");
            assert_eq!(dag.dist[t.index()], 0, "{case}");
            let out = dag
                .order
                .iter()
                .take_while(|&&v| dag.dist[v as usize] == UNREACHABLE);
            for &v in out.clone() {
                assert!(dag.branches(&ft, v).is_empty(), "{case}: node {v}");
            }
            let placed = &dag.order[out.count()..];
            assert!(placed.iter().all(|&v| dag.dist[v as usize] != UNREACHABLE));
            let mut pos = vec![0; n];
            for (i, &v) in dag.order.iter().enumerate() {
                pos[v as usize] = i;
            }
            // A branch into a node the walk left out (one downstream of a
            // loop) parks its flow there, wherever that node sits.
            for v in 0..n as u32 {
                for &l in dag.branches(&ft, v) {
                    let u = ft.dst(l);
                    let parks = dag.dist[u as usize] == UNREACHABLE;
                    assert!(
                        parks || pos[v as usize] < pos[u as usize],
                        "{case}: {v}→{u}"
                    );
                }
            }

            let mut by_dag = vec![0.0; ft.link_count()];
            let mut flow = Vec::new();
            let col = demand_column(&m, t.0, n);
            push_demand_flat(&ft, &dag, &col, &mut flow, None, |l, share| {
                by_dag[l as usize] += share
            });
            let parked = (0..n).filter(|&v| dag.dist[v] == UNREACHABLE);
            let parked: f64 = parked.map(|v| flow[v]).sum();
            let mut by_walk = vec![0.0; ft.link_count()];
            let demand = m.demands_to(t.index());
            let trapped = push_hybrid(&ft, &dep, [&dh, &dl], demand, &mut scratch, |l, share| {
                by_walk[l as usize] += share
            });
            assert_eq!(by_dag, by_walk, "{case}");
            assert_eq!(parked.to_bits(), trapped.to_bits(), "{case}");
            trapping += usize::from(trapped > 0.0);
        }
    }
    assert!(trapping > 0, "no random deployment trapped any demand");
}
