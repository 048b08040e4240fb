//! Traced corpus replay: per manifest, what `dtrctl suite` (and, for
//! validated instances, `dtrctl validate`) does — build, the STR
//! baseline, the DTR / k-class / portfolio search, the failure sweep,
//! the fluid and packet simulations — each call under its own span.

use crate::adapter::*;
use crate::spans::Recorder;

/// DES packets per scheme, as the end-to-end run passes `--des-packets`.
const DES_PACKETS: u64 = 60_000;

fn portfolio<'a>(
    topo: &'a Topology,
    demands: &'a DemandSet,
    objective: Objective,
    params: SearchParams,
    scheme: Scheme,
) -> PortfolioSearch<'a> {
    let cfg = PortfolioParams {
        strategies: StrategyKind::ALL.to_vec(),
        restarts: 1,
        workers: 0,
        prune_margin: f64::INFINITY,
    };
    PortfolioSearch::new(
        topo,
        demands,
        objective,
        params,
        PortfolioMode::Nominal(scheme),
        cfg,
    )
}

/// A two-class instance: STR baseline, then DTR warm-started from it.
fn two_class(rec: &mut Recorder, root: usize, spec: &ScenarioSpec, validated: bool) {
    let op = spec.name.as_str();
    let (topo, demands) = rec.span("scenario.build", op, Some(root), |_, _| {
        let topo = spec.topology.build();
        let demands = spec.traffic.build(&topo);
        (topo, demands)
    });
    let search = spec.search();
    let params = search.params(false);
    let objective = spec
        .objective()
        .as_two_class()
        .expect("a two-class manifest");
    let deployment = spec.deployment_set(topo.node_count());

    let str_weights = if search.portfolio() {
        rec.span("core.portfolio", op, Some(root), |_, _| {
            portfolio(&topo, &demands, objective, params, Scheme::Str)
                .run()
                .weights
        })
    } else {
        rec.span("core.str_search", op, Some(root), |_, _| {
            DualWeights::replicated(
                StrSearch::new(&topo, &demands, objective, params)
                    .run()
                    .weights,
            )
        })
    };
    let dtr_weights = if search.portfolio() {
        rec.span("core.portfolio", op, Some(root), |_, _| {
            portfolio(&topo, &demands, objective, params, Scheme::Dtr)
                .with_initial(str_weights.clone())
                .run()
                .weights
        })
    } else {
        rec.span("core.dtr_search", op, Some(root), |_, _| {
            let mut search = DtrSearch::new(&topo, &demands, objective, params)
                .with_initial(str_weights.clone());
            if let Some(dep) = &deployment {
                search = search.with_deployment(dep.clone());
            }
            search.run().weights
        })
    };
    rec.span("routing.eval_report", op, Some(root), |_, _| {
        let mut ev = evaluator(&topo, &demands, objective);
        ev.set_deployment(deployment.clone())
            .expect("validated manifest");
        (
            ev.eval_dual(&dtr_weights),
            evaluator(&topo, &demands, objective).eval_dual(&str_weights),
        )
    });
    if !matches!(spec.failures(), FailurePolicy::None) {
        rec.span("core.robust_eval", op, Some(root), |_, _| {
            let mut sweep = RobustEvaluator::new(
                &topo,
                &demands,
                ScenarioCombine::Blend {
                    beta: search.beta(),
                },
            );
            (sweep.eval(&dtr_weights), sweep.eval(&str_weights))
        });
    }
    if validated {
        let matrices = [&demands.high, &demands.low];
        for w in [&str_weights, &dtr_weights] {
            let classes = [w.high.clone(), w.low.clone()];
            rec.span("sim.fluid", op, Some(root), |_, _| {
                FluidSim::new().run_classes(&topo, &matrices, &classes)
            });
            rec.span("sim.des", op, Some(root), |_, _| {
                DesBackend::budgeted(&demands, DES_PACKETS, 7).run(&topo, &demands, w)
            });
        }
    }
}

/// A k ≥ 3 instance: STR on the two-class aggregate, then `MultiSearch`.
fn k_class(rec: &mut Recorder, root: usize, spec: &ScenarioSpec, validated: bool) {
    let op = spec.name.as_str();
    let objective = spec.objective();
    let k = objective.class_count();
    let (topo, demands) = rec.span("scenario.build", op, Some(root), |_, _| {
        let topo = spec.topology.build();
        let demands = spec.traffic.build_multi(&topo, k);
        (topo, demands)
    });
    let params = spec.search().params(false);
    let str_weights = rec.span("core.str_search", op, Some(root), |_, _| {
        // Class 0 keeps the high slot, every lower class folds into the low matrix.
        let mut low = demands.classes[1].clone();
        for m in &demands.classes[2..] {
            for (s, t) in m.positive_pairs() {
                low.add(s, t, m.get(s, t));
            }
        }
        let aggregate = DemandSet {
            high: demands.classes[0].clone(),
            low,
        };
        vec![
            StrSearch::new(&topo, &aggregate, Objective::LoadBased, params)
                .run()
                .weights;
            k
        ]
    });
    let dtr_weights = rec.span("multi.search", op, Some(root), |_, _| {
        MultiSearch::with_spec(&topo, &demands, &objective, params)
            .expect("validated manifest")
            .with_initial(str_weights.clone())
            .run()
            .weights
    });
    rec.span("multi.eval_report", op, Some(root), |_, _| {
        let mut ev =
            MultiEvaluator::with_spec(&topo, &demands, &objective).expect("validated manifest");
        (ev.eval(&str_weights), ev.eval(&dtr_weights))
    });
    if validated {
        let matrices: Vec<&TrafficMatrix> = demands.classes.iter().collect();
        for w in [&str_weights, &dtr_weights] {
            rec.span("sim.fluid", op, Some(root), |_, _| {
                FluidSim::new().run_classes(&topo, &matrices, w)
            });
            rec.span("sim.des", op, Some(root), |_, _| {
                DesBackend::budgeted_classes(&matrices, DES_PACKETS, 7)
                    .run_classes(&topo, &matrices, w)
            });
        }
    }
}

/// Replays every manifest under `corpus/`; returns the root span ids.
/// `validate` adds the simulation spans of every instance but the
/// partial-deployment one, which the end-to-end run does not validate.
pub fn replay(rec: &mut Recorder, specs: &[ScenarioSpec], validate: bool) -> Vec<usize> {
    specs
        .iter()
        .map(|spec| {
            let validated = validate && spec.deployment.is_none();
            rec.span("scenario.instance", &spec.name, None, |rec, root| {
                if spec.class_count() > 2 {
                    k_class(rec, root, spec, validated);
                } else {
                    two_class(rec, root, spec, validated);
                }
                root
            })
        })
        .collect()
}
