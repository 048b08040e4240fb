//! Micro-probes: one public call of one crate, timed on the workload's
//! reference instance.

use crate::adapter::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The instance every probe runs on: the workload's own network for
/// the daemon workloads, its first corpus instance for the others.
pub struct Reference {
    pub topo: Topology,
    pub demands: DemandSet,
    /// An optimized incumbent (the daemon's boot weights, or a `tiny`
    /// DTR search's result).
    pub weights: DualWeights,
    /// A manifest that builds an instance of this size.
    pub spec: ScenarioSpec,
    /// Three-class demands and objective on the same topology.
    pub multi: MultiDemand,
    pub spec3: ObjectiveSpec,
    pub smoke: bool,
}

impl Reference {
    pub fn new(
        topo: Topology,
        demands: DemandSet,
        weights: DualWeights,
        spec: ScenarioSpec,
        smoke: bool,
    ) -> Reference {
        let multi = MultiDemand::generate(
            &topo,
            &MultiTrafficCfg {
                fractions: vec![0.15, 0.15],
                densities: vec![0.2, 0.2],
                seed: 7,
            },
        )
        .scaled(2.0);
        let spec3 = ObjectiveSpec::uniform_sla(3, SlaParams::default());
        Reference {
            topo,
            demands,
            weights,
            spec,
            multi,
            spec3,
            smoke,
        }
    }

    /// One survivable duplex failure's mask.
    pub fn one_link_down(&self) -> FailureScenario {
        survivable_duplex_failures(&self.topo).swap_remove(0)
    }

    /// A few iterations of the searches' schedule: enough evaluations
    /// for a per-evaluation cost, a fraction of `tiny`.
    fn short() -> SearchParams {
        SearchParams {
            n_iters: 10,
            k_iters: 10,
            ..SearchParams::tiny()
        }
    }
}

/// Median; `None` of no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median seconds per call of `call`, measured for about `budget`: five
/// batches of as many calls as fill a fifth of it, or single calls when
/// one call alone takes that long.
pub fn per_call(budget: Duration, mut call: impl FnMut()) -> f64 {
    let budget = budget.as_secs_f64();
    let timed = |n: usize, call: &mut dyn FnMut()| {
        let started = Instant::now();
        (0..n).for_each(|_| call());
        started.elapsed().as_secs_f64() / n as f64
    };
    let first = timed(1, &mut call);
    let slice = budget / 5.0;
    if first >= slice {
        let mut samples = vec![first];
        while samples.iter().sum::<f64>() + first < budget {
            samples.push(timed(1, &mut call));
        }
        return median(&samples).expect("one sample");
    }
    let n = (slice / first.max(1e-9)).ceil() as usize;
    let batches: Vec<f64> = (0..5).map(|_| timed(n, &mut call)).collect();
    median(&batches).expect("five batches")
}

/// Single-weight neighbours of `base` from an LCG stream: `redraw`
/// re-assigns one link a uniform weight in 1..=30 (the STR move), else
/// one link is nudged by ±1..=3 (the DTR move). A fresh `salt` gives a
/// fresh stream, so no cache can absorb repeated probe iterations.
pub fn neighbours(
    topo: &Topology,
    base: &WeightVector,
    count: usize,
    redraw: bool,
    salt: u64,
) -> Vec<WeightVector> {
    let mut lcg = 0x2545_f491_4f6c_dd1d ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..count)
        .map(|_| {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let link = LinkId(((lcg >> 33) % topo.link_count() as u64) as u32);
            let mut cand = base.clone();
            if redraw {
                let w = 1 + ((lcg >> 17) % 30) as u32;
                cand.set(link, if w == base.get(link) { w % 30 + 1 } else { w });
            } else {
                let step = 1 + ((lcg >> 17) % 3) as i64;
                let sign = if (lcg >> 5) & 1 == 0 { 1 } else { -1 };
                cand.nudge(link, sign * step, 1, 30);
                if cand.get(link) == base.get(link) {
                    cand.nudge(link, -sign * step, 1, 30);
                }
            }
            cand
        })
        .collect()
}

/// (name, value) pairs; units are in `metrics::CATALOGUE`.
pub type Readings = Vec<(&'static str, f64)>;

const US: f64 = 1e6;
const MS: f64 = 1e3;

pub fn graph_traffic_scenario_cost(r: &Reference, slice: Duration, out: &mut Readings) {
    let n = r.topo.node_count() as u32;
    let mut dest = 0;
    out.push((
        "graph.spf_dag_us",
        US * per_call(slice, || {
            dest = (dest + 1) % n;
            black_box(ShortestPathDag::compute(
                &r.topo,
                &r.weights.high,
                NodeId(dest),
            ));
        }),
    ));
    out.push((
        "traffic.generate_ms",
        MS * per_call(slice, || {
            black_box(DemandSet::generate(
                &r.topo,
                &TrafficCfg {
                    seed: 7,
                    ..Default::default()
                },
            ));
        }),
    ));
    out.push((
        "scenario.build_instance_ms",
        MS * per_call(slice, || {
            let topo = r.spec.topology.build();
            black_box(r.spec.traffic.build(&topo));
        }),
    ));
    let churn = ChurnCfg {
        events: 50,
        seed: 7,
        ..Default::default()
    };
    out.push((
        "scenario.churn_generate_ms",
        MS * per_call(slice, || {
            black_box(generate_churn("probe", &r.topo, &r.demands, &churn));
        }),
    ));
    let loads = evaluator(&r.topo, &r.demands, Objective::LoadBased)
        .eval_dual(&r.weights)
        .total_loads();
    out.push((
        "cost.phi_links_us",
        US * per_call(slice, || {
            let total: f64 = r
                .topo
                .links()
                .map(|(id, link)| phi(loads[id.index()], link.capacity))
                .sum();
            black_box(total);
        }),
    ));
}

pub fn routing(r: &Reference, slice: Duration, out: &mut Readings) {
    let mut load = evaluator(&r.topo, &r.demands, Objective::LoadBased);
    out.push((
        "routing.eval_dual_us",
        US * per_call(slice, || {
            black_box(load.eval_dual(&r.weights));
        }),
    ));
    let mut sla = evaluator(
        &r.topo,
        &r.demands,
        Objective::SlaBased(SlaParams::default()),
    );
    out.push((
        "routing.eval_dual_sla_us",
        US * per_call(slice, || {
            black_box(sla.eval_dual(&r.weights));
        }),
    ));
    let down = r.one_link_down();
    let mut calc = LoadCalculator::new();
    out.push((
        "routing.class_loads_masked_us",
        US * per_call(slice, || {
            black_box(calc.class_loads_masked(
                &r.topo,
                &r.weights.low,
                &down.link_up,
                &r.demands.low,
            ));
        }),
    ));
    let upgraded: Vec<u32> = (0..r.topo.node_count() as u32).step_by(2).collect();
    let half = DeploymentSet::from_upgraded(r.topo.node_count(), &upgraded);
    out.push((
        "routing.low_loads_deployed_us",
        US * per_call(slice, || {
            black_box(load.low_loads_deployed(&half, &r.weights.high, &r.weights.low));
        }),
    ));
}

pub fn engine(r: &Reference, slice: Duration, out: &mut Readings) {
    const BATCH: usize = 8;
    let base = &r.weights.low;
    let mut salt = 0;
    let mut step = |kind: BackendKind, redraw: bool| {
        let mut backend = make_backend(kind, &r.topo, vec![&r.demands.low], base.clone());
        per_call(slice, || {
            salt += 1;
            black_box(backend.eval_batch(&neighbours(&r.topo, base, BATCH, redraw, salt), false));
        }) / BATCH as f64
    };
    out.push(("engine.full_step_us", US * step(BackendKind::Full, false)));
    out.push((
        "engine.incr_step_us",
        US * step(BackendKind::Incremental, false),
    ));
    out.push((
        "engine.incr_redraw_us",
        US * step(BackendKind::Incremental, true),
    ));

    let mut backend = make_backend(
        BackendKind::Incremental,
        &r.topo,
        vec![&r.demands.low],
        base.clone(),
    );
    let moved = neighbours(&r.topo, base, 1, false, 1).swap_remove(0);
    let mut flip = false;
    out.push((
        "engine.rebase_us",
        US * per_call(slice, || {
            flip = !flip;
            backend.rebase(if flip { &moved } else { base });
        }),
    ));

    out.push((
        "engine.batch_new_us",
        US * per_call(slice, || {
            let mut batch = BatchEvaluator::new(
                &r.topo,
                &r.demands,
                Objective::LoadBased,
                BackendKind::Incremental,
            );
            black_box((
                batch.eval_high(&r.weights.high),
                batch.eval_low(&r.weights.low),
            ));
        }),
    ));

    let scenario = [r.one_link_down()];
    let mut batch = BatchEvaluator::new(
        &r.topo,
        &r.demands,
        Objective::LoadBased,
        BackendKind::Incremental,
    );
    out.push((
        "engine.sweep_pair_us",
        US * per_call(slice, || {
            salt += 1;
            let cand = neighbours(&r.topo, base, 1, false, salt).swap_remove(0);
            black_box((
                batch.sweep_high(&cand, &scenario),
                batch.sweep_low(&cand, &scenario),
            ));
        }),
    ));

    let matrices: Vec<&TrafficMatrix> = r.multi.classes.iter().collect();
    let weights = vec![base.clone(); 3];
    for (name, kind) in [
        ("engine.kclass3_step_us", BackendKind::Incremental),
        ("engine.kclass3_full_us", BackendKind::Full),
    ] {
        let mut kclass = KClassBatchEvaluator::new(&r.topo, matrices.clone(), &r.spec3, kind)
            .expect("three matrices match the three-class spec");
        out.push((
            name,
            US * per_call(slice, || {
                salt += 1;
                black_box(kclass.eval_class_batch(
                    1,
                    &neighbours(&r.topo, base, BATCH, false, salt),
                    &weights,
                ));
            }) / BATCH as f64,
        ));
    }
}

pub fn core(r: &Reference, slice: Duration, out: &mut Readings) {
    let tiny = SearchParams::tiny().with_seed(7);
    let dtr = || {
        DtrSearch::new(&r.topo, &r.demands, Objective::LoadBased, tiny)
            .with_initial(r.weights.clone())
            .run()
    };
    let trace = dtr().trace;
    out.push((
        "core.dtr_us_per_eval",
        US * per_call(slice, || {
            black_box(dtr());
        }) / trace.evaluations.max(1) as f64,
    ));
    out.push((
        "core.search_accept_ratio",
        trace.moves_accepted as f64 / trace.iterations.max(1) as f64,
    ));
    let str_evals = StrSearch::new(&r.topo, &r.demands, Objective::LoadBased, tiny)
        .run()
        .trace
        .evaluations;
    out.push((
        "core.str_us_per_eval",
        US * per_call(slice, || {
            black_box(StrSearch::new(&r.topo, &r.demands, Objective::LoadBased, tiny).run());
        }) / str_evals as f64,
    ));

    let all_up = vec![true; r.topo.link_count()];
    let down = r.one_link_down();
    let mut steps = 0;
    let mut evals = 0;
    out.push((
        "core.reopt_step_ms",
        MS * per_call(slice, || {
            steps += 1;
            let res = session_at(r.weights.clone(), Objective::LoadBased, tiny, steps)
                .step(&r.topo, &r.demands, 4);
            evals = res.trace.evaluations;
        }),
    ));
    out.push(("core.reopt_evals_per_step", evals as f64));
    out.push((
        "core.reopt_step_masked_ms",
        MS * per_call(slice, || {
            steps += 1;
            black_box(
                session_at(r.weights.clone(), Objective::LoadBased, tiny, steps).step_masked(
                    &r.topo,
                    &r.demands,
                    &down.link_up,
                    4,
                ),
            );
        }),
    ));
    out.push((
        "core.idle_step_ms",
        MS * per_call(slice, || {
            steps += 1;
            black_box(
                session_at(r.weights.clone(), Objective::LoadBased, tiny, steps).idle_step(
                    &r.topo,
                    &r.demands,
                    &all_up,
                    4,
                    IDLE_STEP_ITERS,
                ),
            );
        }),
    ));

    let folio = PortfolioParams {
        strategies: StrategyKind::ALL.to_vec(),
        restarts: 1,
        workers: 2,
        prune_margin: f64::INFINITY,
    };
    out.push((
        "core.portfolio_ms",
        MS * per_call(slice, || {
            black_box(
                PortfolioSearch::new(
                    &r.topo,
                    &r.demands,
                    Objective::LoadBased,
                    tiny,
                    PortfolioMode::Nominal(Scheme::Dtr),
                    folio.clone(),
                )
                .with_initial(r.weights.clone())
                .run(),
            );
        }),
    ));

    let robust = || {
        RobustSearch::new(
            &r.topo,
            &r.demands,
            ScenarioCombine::Blend { beta: 0.5 },
            Reference::short().with_seed(7),
            Scheme::Dtr,
        )
        .with_scenario_cap(4)
        .with_initial(r.weights.clone())
        .run()
    };
    let robust_evals = robust().trace.evaluations;
    out.push((
        "core.robust_us_per_eval",
        US * per_call(slice, || {
            black_box(robust());
        }) / robust_evals.max(1) as f64,
    ));
}

pub fn multi_sim_mtr(r: &Reference, slice: Duration, out: &mut Readings) {
    let weights3 = vec![
        r.weights.high.clone(),
        r.weights.low.clone(),
        r.weights.low.clone(),
    ];
    let mut multi = MultiEvaluator::with_spec(&r.topo, &r.multi, &r.spec3)
        .expect("three classes match the spec");
    out.push((
        "multi.eval_k3_us",
        US * per_call(slice, || {
            black_box(multi.eval(&weights3));
        }),
    ));
    let search = || {
        MultiSearch::with_spec(&r.topo, &r.multi, &r.spec3, Reference::short().with_seed(7))
            .expect("three classes match the spec")
            .with_initial(weights3.clone())
            .run()
    };
    let evals = search().trace.evaluations;
    out.push((
        "multi.search_us_per_eval",
        US * per_call(slice, || {
            black_box(search());
        }) / evals.max(1) as f64,
    ));

    let matrices = [&r.demands.high, &r.demands.low];
    let pair = [r.weights.high.clone(), r.weights.low.clone()];
    out.push((
        "sim.fluid_ms",
        MS * per_call(slice, || {
            black_box(FluidSim::new().run_classes(&r.topo, &matrices, &pair));
        }),
    ));
    let packets = if r.smoke { 20_000 } else { 250_000 };
    let des = DesBackend::budgeted(&r.demands, packets, 7);
    out.push((
        "sim.des_pkts_per_s",
        packets as f64
            / per_call(slice, || {
                black_box(des.run(&r.topo, &r.demands, &r.weights));
            }),
    ));

    let changed = DualWeights {
        high: neighbours(&r.topo, &r.weights.high, 1, true, 1).swap_remove(0),
        low: {
            let mut low = r.weights.low.clone();
            for cand in neighbours(&r.topo, &r.weights.low, 3, true, 2) {
                let link = (0..low.len() as u32)
                    .map(LinkId)
                    .find(|&l| cand.get(l) != r.weights.low.get(l));
                if let Some(link) = link {
                    low.set(link, cand.get(link));
                }
            }
            low
        },
    };
    out.push((
        "mtr.deployment_cost_ms",
        MS * per_call(slice, || {
            black_box(deployment_cost(&r.topo, &r.weights, &changed));
        }),
    ));
    out.push((
        "mtr.converge_ms",
        MS * per_call(slice, || {
            let mut net = MtrNetwork::new(&r.topo, r.weights.clone());
            black_box(net.converge());
        }),
    ));
}
