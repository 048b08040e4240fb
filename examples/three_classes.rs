//! Beyond the paper: three service classes on three topologies.
//!
//! The paper limits itself to two topologies; MTR hardware supports
//! many. This example runs the k-class generalization (`dtr::multi`)
//! with a voice / business / bulk split and shows the strict-priority
//! cascade: each class's cost is optimized with all higher classes
//! frozen, and each class only ever sees the capacity its superiors left
//! behind.
//!
//! ```sh
//! cargo run --release --example three_classes
//! ```

use dtr::core::SearchParams;
use dtr::cost::ObjectiveSpec;
use dtr::graph::gen::{random_topology, RandomTopologyCfg};
use dtr::multi::{MultiDemand, MultiSearch, MultiTrafficCfg};

fn main() {
    let topo = random_topology(&RandomTopologyCfg::default());
    // 15% voice (sparse pairs), 25% business data, 60% bulk.
    let demands = MultiDemand::generate(
        &topo,
        &MultiTrafficCfg {
            fractions: vec![0.15, 0.25],
            densities: vec![0.10, 0.20],
            seed: 5,
        },
    )
    .scaled(6.0);

    println!(
        "three classes: {:.0}% voice / {:.0}% business / {:.0}% bulk, {:.0} Mbit/s total",
        100.0 * demands.fraction(0),
        100.0 * demands.fraction(1),
        100.0 * demands.fraction(2),
        demands.total_volume()
    );

    println!("optimizing three weight topologies (staged lexicographic search)...");
    let params = SearchParams::experiment().with_seed(5);
    let res = MultiSearch::with_spec(&topo, &demands, &ObjectiveSpec::load(3), params)
        .expect("three load classes")
        .run();

    println!("\nfinal lexicographic cost: {}", res.best_cost);
    for (i, name) in ["voice", "business", "bulk"].iter().enumerate() {
        let residual_min = res
            .eval
            .residuals(&topo, i)
            .into_iter()
            .fold(f64::MAX, f64::min);
        println!(
            "  class {i} ({name:>8}): Φ = {:>12.1}, worst residual capacity seen: {:>6.1} Mbit/s",
            res.eval.phis[i], residual_min
        );
    }
    println!(
        "\navg link utilization {:.2}; weight topologies differ pairwise on \
         {} / {} / {} links",
        res.eval.avg_utilization(&topo),
        res.weights[0].hamming(&res.weights[1]),
        res.weights[1].hamming(&res.weights[2]),
        res.weights[0].hamming(&res.weights[2]),
    );
    println!(
        "search: {} evaluations, {} accepted moves, {} diversifications",
        res.trace.evaluations, res.trace.moves_accepted, res.trace.diversifications
    );
}
