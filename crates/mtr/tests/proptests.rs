//! Property tests for the MT-OSPF control plane: arbitrary failure /
//! restore sequences must leave the network consistent, synchronized and
//! loop-free wherever connectivity survives.
//!
//! Flooding cannot cross a partition, so full LSDB synchronization is
//! only required while the surviving graph remains strongly connected —
//! the test tracks that ground truth and skips failure injections that
//! would partition the network (exactly the situations where divergent
//! databases are *correct* protocol behaviour).

use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::{
    FlatTopo, LinkId, LinkMask, NodeId, ShortestPathDag, SpfWorkspace, Topology, WeightVector,
};
use dtr_mtr::{ForwardError, MtrNetwork, TopologyId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Strong connectivity of the subgraph with `up` links, via forward and
/// reverse BFS from node 0.
fn strongly_connected(topo: &Topology, up: &[bool]) -> bool {
    let reach = |reverse: bool| -> usize {
        let mut seen = vec![false; topo.node_count()];
        let mut queue = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop() {
            let adj = if reverse {
                topo.in_links(v)
            } else {
                topo.out_links(v)
            };
            for &lid in adj {
                if !up[lid.index()] {
                    continue;
                }
                let l = topo.link(lid);
                let next = if reverse { l.src } else { l.dst };
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    count += 1;
                    queue.push(next);
                }
            }
        }
        count
    };
    reach(false) == topo.node_count() && reach(true) == topo.node_count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_failure_sequences_stay_consistent(
        topo_seed in 1u64..50,
        wseed in 0u64..100,
        ops in proptest::collection::vec((0u8..2, 0usize..40), 1..12),
    ) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: topo_seed,
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(wseed);
        let weights = DualWeights {
            high: WeightVector::from_vec(
                (0..topo.link_count()).map(|_| rng.random_range(1..=30)).collect()),
            low: WeightVector::from_vec(
                (0..topo.link_count()).map(|_| rng.random_range(1..=30)).collect()),
        };
        let mut net = MtrNetwork::new(&topo, weights.clone());
        net.converge();

        // Apply the op sequence, skipping failures that would partition
        // the network (divergent LSDBs are then legitimate).
        let mut up = vec![true; topo.link_count()];
        let mut down: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for (op, raw) in ops {
            let lid = LinkId((raw % topo.link_count()) as u32);
            let twin = topo.reverse_link(lid).unwrap();
            let canon = lid.index().min(twin.index());
            if op == 0 && !down.contains(&canon) {
                let mut trial = up.clone();
                trial[lid.index()] = false;
                trial[twin.index()] = false;
                if !strongly_connected(&topo, &trial) {
                    continue;
                }
                up = trial;
                net.fail_link(lid);
                down.insert(canon);
            } else if op == 1 && down.contains(&canon) {
                up[lid.index()] = true;
                up[twin.index()] = true;
                net.restore_link(lid);
                down.remove(&canon);
            } else {
                continue;
            }
            net.converge();
            prop_assert!(net.databases_synchronized());
        }

        // Ground truth vs the converged control plane, both topologies.
        let ft = FlatTopo::new(&topo);
        let mask = LinkMask::from_up_slice(&up);
        for tid in [TopologyId::DEFAULT, TopologyId::LOW] {
            let wv = if tid == TopologyId::DEFAULT { &weights.high } else { &weights.low };
            for dst in topo.nodes() {
                let mut dag = ShortestPathDag::empty(&ft);
                let mut ws = SpfWorkspace::new();
                dag.compute_into(&ft, wv.as_slice(), dst.0, Some(&mask), &mut ws);
                for src in topo.nodes() {
                    if src == dst { continue; }
                    match net.forward_path(tid, src, dst) {
                        Ok(path) => {
                            prop_assert!(dag.reachable(src), "forwarded but unreachable");
                            let w: u64 = path.iter().map(|&l| wv.get(l) as u64).sum();
                            prop_assert_eq!(w, dag.dist_from(src));
                            for l in &path {
                                prop_assert!(up[l.index()], "used a dead link");
                            }
                        }
                        Err(ForwardError::NoRoute { .. }) => {
                            prop_assert!(!dag.reachable(src), "blackhole despite a live path");
                        }
                        Err(ForwardError::Loop) => {
                            prop_assert!(false, "forwarding loop after convergence");
                        }
                    }
                }
            }
        }
    }
}
