//! The distributed control plane and the centralized evaluator must
//! agree: FIB next hops equal the ECMP DAG's first hops, and forwarded
//! paths are shortest paths under the class's weight vector.

use dtr::core::{DtrSearch, Objective, SearchParams};
use dtr::graph::gen::{random_topology, RandomTopologyCfg};
use dtr::graph::spf::path_weight;
use dtr::graph::{FlatTopo, LinkId, NodeId, ShortestPathDag};
use dtr::mtr::{MtrNetwork, TopologyId};
use dtr::traffic::{DemandSet, TrafficCfg};

#[test]
fn fibs_match_evaluator_dags_for_optimized_weights() {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 14,
        directed_links: 56,
        seed: 8,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 8,
            ..Default::default()
        },
    )
    .scaled(4.0);
    // Optimize real weights so the FIB comparison covers non-trivial,
    // class-divergent routing.
    let res = DtrSearch::new(
        &topo,
        &demands,
        Objective::LoadBased,
        SearchParams::tiny().with_seed(8),
    )
    .run();

    let mut net = MtrNetwork::new(&topo, res.weights.clone());
    net.converge();
    assert!(net.databases_synchronized());
    let ft = FlatTopo::new(&topo);

    for (tid, wv) in [
        (TopologyId::DEFAULT, &res.weights.high),
        (TopologyId::LOW, &res.weights.low),
    ] {
        for dest in topo.nodes() {
            let dag = ShortestPathDag::compute(&topo, wv, dest);
            for router in topo.nodes() {
                if router == dest {
                    continue;
                }
                let mut fib_hops = net.fib(router, tid).lookup(dest).to_vec();
                let branches = dag.branches(&ft, router.0).iter();
                let mut dag_hops: Vec<LinkId> = branches.map(|&l| LinkId(l)).collect();
                fib_hops.sort();
                dag_hops.sort();
                assert_eq!(
                    fib_hops, dag_hops,
                    "router {router} → {dest} under topology {tid:?}"
                );
            }
        }
    }
}

#[test]
fn forwarded_paths_are_shortest_under_class_weights() {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 12,
        directed_links: 48,
        seed: 9,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 9,
            ..Default::default()
        },
    )
    .scaled(4.0);
    let res = DtrSearch::new(
        &topo,
        &demands,
        Objective::LoadBased,
        SearchParams::tiny().with_seed(9),
    )
    .run();
    let mut net = MtrNetwork::new(&topo, res.weights.clone());
    net.converge();

    for (tid, wv) in [
        (TopologyId::DEFAULT, &res.weights.high),
        (TopologyId::LOW, &res.weights.low),
    ] {
        for src in topo.nodes() {
            for dst in topo.nodes() {
                if src == dst {
                    continue;
                }
                let path = net.forward_path(tid, src, dst).expect("routable");
                let dag = ShortestPathDag::compute(&topo, wv, dst);
                assert_eq!(
                    path_weight(&topo, wv, &path),
                    dag.dist_from(src),
                    "{src}→{dst} not shortest under {tid:?}"
                );
            }
        }
    }
}

#[test]
fn failure_then_restore_returns_to_original_fibs() {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 10,
        directed_links: 40,
        seed: 10,
    });
    let w =
        dtr::core::DualWeights::replicated(dtr::graph::WeightVector::delay_proportional(&topo, 30));
    let mut net = MtrNetwork::new(&topo, w);
    net.converge();
    let orig: Vec<Vec<dtr::graph::LinkId>> = topo
        .nodes()
        .map(|d| net.fib(NodeId(0), TopologyId::DEFAULT).lookup(d).to_vec())
        .collect();

    let victim = dtr::graph::LinkId(3);
    net.fail_link(victim);
    net.converge();
    net.restore_link(victim);
    net.converge();
    assert!(net.databases_synchronized());
    for (i, d) in topo.nodes().enumerate() {
        assert_eq!(
            net.fib(NodeId(0), TopologyId::DEFAULT).lookup(d),
            &orig[i][..],
            "FIB entry for {d} did not return after restore"
        );
    }
}
