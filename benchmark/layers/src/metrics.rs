//! The per-layer metric catalogue: every name `BENCHMARK.json` lists
//! under `per_layer`, with its unit and direction. Layers are crate
//! names; `benchmark/README.md` says which end-to-end metric each is
//! expected to move.

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` needs the direction; the test below checks it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: "higher",
    }
}

pub const CATALOGUE: [Spec; 54] = [
    lower("graph.spf_dag_us", "us"),
    lower("traffic.generate_ms", "ms"),
    lower("scenario.build_instance_ms", "ms"),
    lower("scenario.churn_generate_ms", "ms"),
    lower("scenario.str_search_s", "s"),
    lower("scenario.dtr_search_s", "s"),
    lower("cost.phi_links_us", "us"),
    lower("routing.eval_dual_us", "us"),
    lower("routing.eval_dual_sla_us", "us"),
    lower("routing.class_loads_masked_us", "us"),
    lower("routing.low_loads_deployed_us", "us"),
    lower("engine.full_step_us", "us"),
    lower("engine.incr_step_us", "us"),
    lower("engine.incr_redraw_us", "us"),
    lower("engine.rebase_us", "us"),
    lower("engine.batch_new_us", "us"),
    lower("engine.sweep_pair_us", "us"),
    lower("engine.kclass3_step_us", "us"),
    lower("engine.kclass3_full_us", "us"),
    lower("core.dtr_us_per_eval", "us"),
    lower("core.str_us_per_eval", "us"),
    higher("core.search_accept_ratio", "ratio"),
    lower("core.reopt_step_ms", "ms"),
    lower("core.reopt_step_masked_ms", "ms"),
    lower("core.idle_step_ms", "ms"),
    lower("core.reopt_evals_per_step", "count"),
    lower("core.portfolio_ms", "ms"),
    lower("core.robust_us_per_eval", "us"),
    lower("multi.eval_k3_us", "us"),
    lower("multi.search_us_per_eval", "us"),
    lower("sim.fluid_ms", "ms"),
    higher("sim.des_pkts_per_s", "1/s"),
    lower("mtr.deployment_cost_ms", "ms"),
    lower("mtr.converge_ms", "ms"),
    lower("daemon.handle_ms.demand_update", "ms"),
    lower("daemon.handle_ms.link_down", "ms"),
    lower("daemon.handle_ms.link_up", "ms"),
    lower("daemon.handle_ms.directed", "ms"),
    lower("daemon.handle_ms.flush", "ms"),
    lower("daemon.handle_ms.coalesced_ack", "ms"),
    lower("daemon.handle_ms.whatif_link_down", "ms"),
    lower("daemon.handle_ms.status", "ms"),
    lower("daemon.handle_ms.snapshot", "ms"),
    lower("daemon.clone_us", "us"),
    lower("daemon.boot_ms", "ms"),
    lower("daemon.self_pct", "%"),
    lower("daemon.tcp_overhead_ms", "ms"),
    higher("daemon.accept_ratio", "ratio"),
    higher("daemon.coalesce_ratio", "ratio"),
    lower("shims.parse_demand_update_us", "us"),
    lower("shims.ser_event_reply_us", "us"),
    lower("shims.ser_snapshot_us", "us"),
    lower("cli.spawn_ms", "ms"),
    lower("trace.root_vs_e2e_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly this catalogue, in this order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let spec: crate::Handoff = crate::load(manifest.as_ref()).unwrap();
        let listed = spec.at(&["per_layer"]).as_seq().unwrap();
        let field = |entry: &serde::Value, key: &str| {
            serde::field(entry.as_map().unwrap(), key)
                .as_str()
                .unwrap()
                .to_string()
        };
        assert_eq!(listed.len(), CATALOGUE.len());
        for (entry, ours) in listed.iter().zip(&CATALOGUE) {
            assert_eq!(
                (
                    field(entry, "name"),
                    field(entry, "unit"),
                    field(entry, "better")
                ),
                (
                    ours.name.to_string(),
                    ours.unit.to_string(),
                    ours.better.to_string()
                )
            );
        }
    }
}
