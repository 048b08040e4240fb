//! Failure-aware weight optimization: leave headroom for the next fiber
//! cut.
//!
//! Optimizes DTR weights twice — once for the intact network (the
//! paper's setting) and once against a blend of intact and worst
//! post-failure cost (Nucci et al. [5] style) — then sweeps every
//! survivable single duplex-pair failure and compares what the two
//! settings cost after a cut.
//!
//! ```sh
//! cargo run --release --example robust_weights
//! ```

use dtr::core::{DtrSearch, Objective, RobustSearch, ScenarioCombine, Scheme, SearchParams};
use dtr::graph::gen::{random_topology, RandomTopologyCfg};
use dtr::graph::weights::DualWeights;
use dtr::routing::{cascade_each, survivable_duplex_failures, LoadCalculator};
use dtr::traffic::{DemandSet, TrafficCfg};

fn main() {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 16,
        directed_links: 64,
        seed: 3,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 3,
            ..Default::default()
        },
    )
    .scaled(5.0);
    println!(
        "topology: {} nodes / {} links; {} survivable single cuts",
        topo.node_count(),
        topo.link_count(),
        survivable_duplex_failures(&topo).len()
    );

    // Nominal: the paper's Algorithm 1, intact network only.
    let params = SearchParams::quick().with_seed(3);
    let nominal = DtrSearch::new(&topo, &demands, Objective::LoadBased, params).run();

    // Robust: warm-start from the nominal optimum and trade intact cost
    // against the worst post-failure cost (β = 0.5 blend) over the FULL
    // failure set. Each candidate costs 33 routing evaluations, so the
    // iteration budget shrinks accordingly.
    let robust = RobustSearch::new(
        &topo,
        &demands,
        ScenarioCombine::Blend { beta: 0.5 },
        SearchParams {
            n_iters: params.n_iters / 8,
            k_iters: params.k_iters / 8,
            ..params
        },
        Scheme::Dtr,
    )
    .with_initial(nominal.weights.clone())
    .run();

    // Sweep every survivable cut under both settings.
    let sweep = |weights: &DualWeights| -> (f64, f64, f64) {
        let mut calc = LoadCalculator::new();
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        let scenarios = survivable_duplex_failures(&topo);
        let all_up = vec![true; topo.link_count()];
        let cost = |calc: &mut LoadCalculator, up: &[bool]| -> f64 {
            let h = calc.class_loads_masked(&topo, &weights.high, up, &demands.high);
            let l = calc.class_loads_masked(&topo, &weights.low, up, &demands.low);
            let mut phi_l = 0.0;
            cascade_each(&topo, &[&h, &l], 1, |_, _, _, p| phi_l += p);
            phi_l
        };
        let intact = cost(&mut calc, &all_up);
        for sc in &scenarios {
            let c = cost(&mut calc, &sc.link_up);
            worst = worst.max(c);
            sum += c;
        }
        (intact, sum / scenarios.len() as f64, worst)
    };

    let (ni, na, nw) = sweep(&nominal.weights);
    let (ri, ra, rw) = sweep(&robust.weights);
    println!("\nlow-priority cost Φ_L           intact        mean-fail       worst-fail");
    println!("  nominal-optimized DTR  {ni:>12.1}  {na:>14.1}  {nw:>14.1}");
    println!("  robust-optimized DTR   {ri:>12.1}  {ra:>14.1}  {rw:>14.1}");
    println!(
        "\nrobust optimization trades {:.0}% intact cost for {:.0}% lower worst-case",
        100.0 * (ri / ni - 1.0),
        100.0 * (1.0 - rw / nw)
    );
}
