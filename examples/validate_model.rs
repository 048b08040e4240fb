//! Validating the paper's analytic model against packet-level simulation.
//!
//! The evaluation pipeline rests on two modeling steps: (i) ECMP loads
//! computed by even splitting, and (ii) the Eq. 3 delay model built on
//! the Fortz–Thorup Φ approximation of M/M/1 queueing. This example runs
//! the discrete-event simulator on the same instance and compares:
//!
//! - per-link utilization — should match the analytic loads closely;
//! - per-link high-priority sojourn — Eq. 3 is an *approximation*, so
//!   we report its error envelope across utilization levels.
//!
//! ```sh
//! cargo run --release --example validate_model
//! ```

use dtr::core::{DualWeights, Objective};
use dtr::cost::{link_delay, DelayParams};
use dtr::graph::gen::{random_topology, RandomTopologyCfg};
use dtr::graph::WeightVector;
use dtr::routing::Evaluator;
use dtr::sim::{SimConfig, Simulation};
use dtr::traffic::{DemandSet, TrafficCfg};

fn main() {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 12,
        directed_links: 48,
        seed: 5,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 5,
            ..Default::default()
        },
    )
    .scaled(2.2);
    let weights = DualWeights::replicated(WeightVector::delay_proportional(&topo, 30));

    // Analytic side.
    let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
    let analytic = ev.eval_dual(&weights);

    // Simulated side (2 simulated seconds after 0.5 s warmup).
    println!("simulating 2.5 s of packet traffic...");
    let report = Simulation::new(
        &topo,
        &demands,
        &weights,
        SimConfig {
            seed: 5,
            ..Default::default()
        },
    )
    .run();
    println!(
        "  {} packets generated, {} delivered, {} in flight at cutoff",
        report.generated, report.delivered, report.inflight_at_end
    );

    // Utilization agreement.
    let delay_params = DelayParams::default();
    let mut worst_util_err: f64 = 0.0;
    println!("\n link  analytic_util  simulated_util   eq3_delay  sim_sojourn+prop");
    for (lid, link) in topo.links() {
        let au =
            (analytic.high_loads[lid.index()] + analytic.low_loads[lid.index()]) / link.capacity;
        let su = report.utilization(lid);
        worst_util_err = worst_util_err.max((au - su).abs());
        // Eq. 3 delay vs simulated high-class sojourn + propagation.
        let d3 = link_delay(
            &delay_params,
            analytic.high_loads[lid.index()],
            link.capacity,
            link.prop_delay,
        );
        let sim_d = report.mean_sojourn(lid, 0) + link.prop_delay;
        if lid.index() % 8 == 0 {
            println!(
                "  {:>3}  {au:>12.3}  {su:>14.3}  {:>9.3}ms  {:>13.3}ms",
                lid.index(),
                d3 * 1e3,
                sim_d * 1e3
            );
        }
    }
    println!("\nworst per-link utilization error: {worst_util_err:.4}");
    assert!(
        worst_util_err < 0.05,
        "ECMP load model should match simulation within 5%"
    );
    println!("ECMP load model validated: analytic and simulated utilizations agree.");
    println!(
        "Eq. 3 intentionally over-weights congestion (it follows Φ, not true M/M/1) — \
         the SLA objective uses it as a conservative congestion signal."
    );
}
