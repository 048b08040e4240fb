//! Property-based tests for the graph substrate.
//!
//! The central invariants: Dijkstra agrees with a Bellman–Ford oracle on
//! arbitrary weight settings, the ECMP DAG is acyclic and distance-
//! decreasing, and generators are deterministic in their seeds.

use dtr_graph::families::{
    grid_topology, hierarchical_topology, waxman_topology, GridCfg, HierarchicalCfg, WaxmanCfg,
};
use dtr_graph::gen::{power_law_topology, random_topology, PowerLawTopologyCfg, RandomTopologyCfg};
use dtr_graph::spf::{bellman_ford_to_dest, FlatTopo, ShortestPathDag, SpfTree};
use dtr_graph::{NodeId, Topology, WeightVector, MAX_WEIGHT, MIN_WEIGHT};
use proptest::prelude::*;

/// An arbitrary topology drawn from all five generator families, so every
/// SPF/DAG invariant below is exercised on every family.
fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (6usize..=14, 1u64..1000).prop_map(|(n, seed)| {
            // Enough pairs for the Hamiltonian backbone plus some extra.
            let pairs = n + n / 2;
            random_topology(&RandomTopologyCfg {
                nodes: n,
                directed_links: 2 * pairs,
                seed,
            })
        }),
        (6usize..=14, 1u64..1000).prop_map(|(n, seed)| power_law_topology(&PowerLawTopologyCfg {
            nodes: n,
            attachments: 2,
            seed,
        })),
        (6usize..=14, 1u64..1000).prop_map(|(n, seed)| {
            let pairs = n + n / 2;
            waxman_topology(&WaxmanCfg {
                nodes: n,
                directed_links: 2 * pairs,
                beta: 0.6,
                seed,
            })
        }),
        (3usize..=5, 1usize..=3, 1u64..1000).prop_map(|(core, edge, seed)| {
            // A ring on `core` nodes admits core·(core−1)/2 − core chords.
            let max_chords = core * (core - 1) / 2 - core;
            hierarchical_topology(&HierarchicalCfg {
                core_nodes: core,
                core_chords: (core / 3).min(max_chords),
                edge_per_core: edge,
                seed,
                ..Default::default()
            })
        }),
        (2usize..=4, 3usize..=5, any::<bool>()).prop_map(|(rows, cols, torus)| {
            grid_topology(&GridCfg {
                rows: rows.max(if torus { 3 } else { 2 }),
                cols,
                torus,
                delay_s: 0.002,
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_bellman_ford((topo, seed) in (arb_topology(), any::<u64>())) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights = WeightVector::from_vec(
            (0..topo.link_count()).map(|_| rng.random_range(MIN_WEIGHT..=MAX_WEIGHT)).collect(),
        );
        for dest in topo.nodes() {
            let dag = ShortestPathDag::compute(&topo, &weights, dest);
            let oracle = bellman_ford_to_dest(&topo, &weights, dest);
            prop_assert_eq!(&dag.dist, &oracle);
        }
    }

    #[test]
    fn ecmp_dag_is_distance_decreasing(topo in arb_topology(), wseed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(wseed);
        let weights = WeightVector::from_vec(
            (0..topo.link_count()).map(|_| rng.random_range(MIN_WEIGHT..=MAX_WEIGHT)).collect(),
        );
        let ft = FlatTopo::new(&topo);
        for dest in topo.nodes() {
            let dag = ShortestPathDag::compute(&topo, &weights, dest);
            for v in topo.nodes() {
                for &l in dag.branches(&ft, v.0) {
                    let lid = dtr_graph::LinkId(l);
                    let link = topo.link(lid);
                    // Every DAG hop strictly decreases distance (weights ≥ 1).
                    prop_assert!(dag.dist[link.dst.index()] < dag.dist[v.index()]);
                    prop_assert_eq!(
                        dag.dist[v.index()],
                        dag.dist[link.dst.index()] + weights.get(lid) as u64
                    );
                }
                // Strong connectivity: every non-dest node has a way out.
                if v != dest {
                    prop_assert!(!dag.branches(&ft, v.0).is_empty());
                }
            }
        }
    }

    #[test]
    fn spf_tree_and_dag_are_consistent(topo in arb_topology(), wseed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(wseed);
        let weights = WeightVector::from_vec(
            (0..topo.link_count()).map(|_| rng.random_range(MIN_WEIGHT..=MAX_WEIGHT)).collect(),
        );
        let src = NodeId(0);
        let tree = SpfTree::compute(&topo, &weights, src, None);
        let ft = FlatTopo::new(&topo);
        for dest in topo.nodes() {
            let dag = ShortestPathDag::compute(&topo, &weights, dest);
            prop_assert_eq!(tree.dist[dest.index()], dag.dist_from(src));
            if dest != src {
                // The tree must offer at least one next hop, and each next
                // hop must be a DAG edge of the per-destination view.
                prop_assert!(!tree.next_hops[dest.index()].is_empty());
                for &h in &tree.next_hops[dest.index()] {
                    prop_assert!(dag.branches(&ft, src.0).contains(&h.0));
                }
            }
        }
    }

    #[test]
    fn generators_always_validate(topo in arb_topology()) {
        // arb_topology already calls .build().unwrap() internally; check
        // basic shape here.
        prop_assert!(topo.node_count() >= 6);
        prop_assert!(topo.link_count() % 2 == 0);
        for (lid, l) in topo.links() {
            prop_assert!(topo.reverse_link(lid).is_some());
            prop_assert!(l.capacity > 0.0);
        }
    }
}
