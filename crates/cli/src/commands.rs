//! The `dtrctl` subcommands and the `dtrd` boot sequence: one `run` fn
//! per row of [`crate::table`], plus the readers each flag group has.

use crate::args::{ArgError, Args, Command, Flag};
use crate::table::*;
use dtr_core::{
    parse_portfolio, run_strategy, DualWeights, Objective, ObjectiveSpec, PortfolioMode,
    PortfolioParams, PortfolioResult, PortfolioSearch, ReoptSearch, RobustSearch, ScenarioCombine,
    Scheme, SearchParams, SlaParams, StrategyKind, UpgradeParams, UpgradeSearch,
};
use dtr_daemon::DaemonCfg;
use dtr_engine::BackendKind;
use dtr_graph::{export, LinkId, Topology, Weight, MIN_WEIGHT};
use dtr_mtr::{MtrNetwork, TopologyId};
use dtr_routing::Evaluator;
use dtr_scenario::{ScenarioSpec, TopologySpec};
use dtr_sim::{SimConfig, Simulation};
use dtr_traffic::{DemandSet, HighPriModel, SinkPattern, TrafficCfg};
use std::fmt;
use std::path::Path;

/// Top-level CLI errors: [`CliError::Args`] is everything argv alone
/// decides (exit 2, with the command's usage); the rest needs a file or
/// a run (exit 1).
#[derive(Debug)]
pub enum CliError {
    /// Argument problems.
    Args(ArgError),
    /// An input that does not fit: a file that is missing, does not
    /// parse or was written for another topology or scheme, or a flag
    /// value the files rule out. The message leads with the path or the
    /// flag.
    Input(String),
    /// File I/O on outputs.
    Io(std::io::Error),
    /// JSON serialization.
    Json(serde_json::Error),
    /// A differential-validation gate failed (`dtrctl validate`).
    Gate(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Input(msg) => write!(f, "{msg}"),
            CliError::Io(e) => write!(f, "io: {e}"),
            CliError::Json(e) => write!(f, "json: {e}"),
            CliError::Gate(msg) => write!(f, "validation gate failed: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}

fn load<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| misfit(path, e))?;
    serde_json::from_str(&text).map_err(|e| misfit(path, e))
}

/// What is wrong with the input at `path`.
fn misfit(path: &str, detail: impl fmt::Display) -> CliError {
    CliError::Input(format!("{path}: {detail}"))
}

/// Loads a weight file a command routes or searches `topo` with under
/// `scheme`: both vectors must cover every directed link, and an STR
/// setting must be one vector written twice. The searches assert
/// exactly this and the load calculators index weights by link id — a
/// short file runs off the end of a slice there, a long one is silently
/// read as if it fitted — so a mismatched file is reported here.
///
/// Every weight must be at least [`MIN_WEIGHT`] (a zero-weight cycle
/// sits inside the ECMP DAGs and traffic circulates on it), and at most
/// `max_weight`: a command that continues a search from the file passes
/// its [`SearchParams::max_weight`], one that only routes with it `None`.
fn load_incumbent(
    path: &str,
    topo: &Topology,
    scheme: Scheme,
    max_weight: Option<Weight>,
) -> Result<DualWeights, CliError> {
    let w: DualWeights = load(path)?;
    let (m, high, low) = (topo.link_count(), w.high.len(), w.low.len());
    if high != m || low != m {
        let detail =
            format!("{high} high and {low} low weights, but the topology has {m} directed links");
        return Err(misfit(path, detail));
    }
    let range = MIN_WEIGHT..=max_weight.unwrap_or(Weight::MAX);
    for (class, v) in [("high", &w.high), ("low", &w.low)] {
        let mut weights = v.as_slice().iter().enumerate();
        if let Some((link, bad)) = weights.find(|(_, x)| !range.contains(x)) {
            let wanted = match max_weight {
                Some(_) => format!("in {range:?}"),
                None => format!("at least {MIN_WEIGHT}"),
            };
            let detail = format!("{class} weight {bad} on link {link} must be {wanted}");
            return Err(misfit(path, detail));
        }
    }
    if scheme == Scheme::Str && w.high != w.low {
        let detail = format!(
            "--scheme str needs one vector written twice, but high and low differ on {} links",
            w.high.hamming(&w.low)
        );
        return Err(misfit(path, detail));
    }
    Ok(w)
}

/// The `--weights` file where the flag is optional.
fn incumbent(
    args: &Args,
    topo: &Topology,
    scheme: Scheme,
    max_weight: Option<Weight>,
) -> Result<Option<DualWeights>, CliError> {
    let path = args.get(&WEIGHTS);
    path.map(|p| load_incumbent(p, topo, scheme, max_weight))
        .transpose()
}

fn topology(args: &Args) -> Result<Topology, CliError> {
    load(args.require(&TOPO)?)
}

/// Checks that each of `links` has a reverse direction: the commands
/// that cut a link cut its duplex pair, and the failure sweeps and the
/// MT-OSPF fabric assume the twin exists. A one-way link in the
/// `--topo` file is reported here instead of panicking there.
fn check_duplex(
    args: &Args,
    topo: &Topology,
    mut links: impl Iterator<Item = LinkId>,
) -> Result<(), CliError> {
    let Some(lid) = links.find(|&lid| topo.reverse_link(lid).is_none()) else {
        return Ok(());
    };
    let l = topo.link(lid);
    let (src, dst) = (topo.node_name(l.src), topo.node_name(l.dst));
    let detail = format!("link {} ({src} → {dst}) has no reverse direction", lid.0);
    Err(misfit(args.require(&TOPO)?, detail))
}

/// Loads the `--traffic` matrices a command routes on `topo`: both must
/// be `node_count × node_count`. The load calculators index nodes by
/// matrix position, so matrices generated for another topology are
/// reported here instead of running off the end of a slice there.
fn demands(args: &Args, topo: &Topology) -> Result<DemandSet, CliError> {
    let path = args.require(&TRAFFIC)?;
    let demands: DemandSet = load(path)?;
    let (n, high, low) = (topo.node_count(), demands.high.len(), demands.low.len());
    if high != n || low != n {
        let detail = format!(
            "{high}×{high} high and {low}×{low} low matrices, but the topology has {n} nodes"
        );
        return Err(misfit(path, detail));
    }
    Ok(demands)
}

fn save<T: serde::Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    std::fs::write(Path::new(path), serde_json::to_string_pretty(value)?)?;
    println!("[wrote] {path}");
    Ok(())
}

/// The preset a budget-valued flag names (its choices are the presets).
fn preset(args: &Args, flag: &Flag, default: &str) -> SearchParams {
    let name = args.get(flag).unwrap_or(default);
    SearchParams::preset(name).unwrap_or_else(|| panic!("--{} lists a non-preset", flag.name))
}

fn backend(args: &Args) -> BackendKind {
    match args.get(&BACKEND) {
        Some("full") => BackendKind::Full,
        _ => BackendKind::Incremental,
    }
}

/// `--budget`, `--seed` and `--backend`.
fn search_params(args: &Args, default_budget: &str) -> SearchParams {
    let mut params = preset(args, &BUDGET, default_budget);
    params.seed = args.num_or(&SEED, params.seed);
    params.backend = backend(args);
    params
}

/// The routing scheme of the searches that take only `str|dtr`; under
/// `optimize`, whose `--scheme` also names strategies, the other four
/// names are rejected here.
fn routing_scheme(args: &Args) -> Result<Scheme, ArgError> {
    match args.get(&SCHEME).unwrap_or("dtr") {
        "dtr" => Ok(Scheme::Dtr),
        "str" => Ok(Scheme::Str),
        other => Err(ArgError(format!(
            "invalid value for --scheme: {other:?} — the portfolio and robust searches take str|dtr"
        ))),
    }
}

pub(crate) fn check_portfolio(spec: &str) -> Result<(), String> {
    parse_portfolio(spec).map(|_| ())
}

/// Whether an optimize/robust invocation requests the parallel portfolio
/// orchestrator (any of its knobs present).
fn wants_portfolio(args: &Args) -> bool {
    PORTFOLIO_FLAGS.iter().any(|flag| args.on(flag))
}

/// `--workers`, `--portfolio`, `--restarts` and `--prune-margin`.
fn portfolio_cfg(args: &Args) -> Result<PortfolioParams, ArgError> {
    let strategies = match args.get(&PORTFOLIO) {
        Some(spec) => parse_portfolio(spec).map_err(ArgError)?,
        None => StrategyKind::ALL.to_vec(),
    };
    Ok(PortfolioParams {
        strategies,
        restarts: args.num_or(&RESTARTS, 1),
        workers: args.num_or(&WORKERS, 0),
        prune_margin: args.num_or(&PRUNE_MARGIN, f64::INFINITY),
    })
}

/// Prints the per-arm summary of a finished portfolio run.
fn print_portfolio(res: &PortfolioResult, elapsed_s: f64) {
    for t in &res.tasks {
        println!(
            "  arm {:>2} wave {} {:<8} cost {} ({} evaluations)",
            t.task,
            t.wave,
            t.strategy.name(),
            t.cost,
            t.evaluations
        );
    }
    for (si, wave) in &res.pruned {
        println!("  pruned strategy #{si} after wave {wave}");
    }
    println!(
        "portfolio: best cost {} from {} arms on {} workers in {:.2}s",
        res.cost,
        res.tasks.len(),
        res.workers,
        elapsed_s
    );
}

/// `load`, `sla` or `sla:BOUND_MS`: whether the mode is SLA, and the
/// inline bound.
fn objective_mode(value: &str) -> Result<(bool, Option<f64>), String> {
    match value.split_once(':') {
        None if value == "load" => Ok((false, None)),
        None if value == "sla" => Ok((true, None)),
        Some(("sla", ms)) => match ms.parse::<f64>() {
            Ok(bound) if bound.is_finite() && bound > 0.0 => Ok((true, Some(bound))),
            _ => Err(format!(
                "SLA bound {ms:?} — need a positive finite number of ms"
            )),
        },
        Some(("load", _)) => Err(format!(
            "{value:?} — only the SLA mode takes a bound (sla:BOUND_MS)"
        )),
        _ => Err(format!(
            "unknown mode {value:?} (expected load or sla[:BOUND_MS])"
        )),
    }
}

pub(crate) fn check_objective(value: &str) -> Result<(), String> {
    objective_mode(value).map(|_| ())
}

/// Reads the unified objective flags wherever a row carries them:
///
/// - `--objective load|sla[:BOUND_MS]` — the per-class cost mode.
///   `sla` defaults to the paper's 25 ms bound; `sla:40` sets 40 ms.
/// - `--classes K` — class count (default 2). `K ≥ 3` builds a k-class
///   spec: a load cascade under `load`, or `K − 1` identical SLA tiers
///   over a load-based base under `sla` ([`ObjectiveSpec::uniform_sla`]).
/// - `--sla-bound-ms MS` — the legacy bound spelling, equivalent to
///   `--objective sla:MS`.
///
/// Contradictory combinations are hard errors rather than silent
/// precedence: an inline bound together with `--sla-bound-ms`, and a
/// bound in either spelling under `--objective load`.
pub fn objective_spec(args: &Args) -> Result<ObjectiveSpec, ArgError> {
    let classes = args.num_or(&CLASSES, 2usize);
    let legacy_ms: Option<f64> = args.num(&SLA_BOUND_MS);
    let objective = args.get(&OBJECTIVE).unwrap_or("load");
    let conflict = |why: &str| {
        ArgError(format!(
            "conflicting flags --objective {objective} --sla-bound-ms: {why}"
        ))
    };
    let bound_ms = match (objective_mode(objective).map_err(ArgError)?, legacy_ms) {
        ((false, _), None) => return Ok(ObjectiveSpec::load(classes)),
        ((false, _), Some(_)) => {
            return Err(conflict(
                "an SLA bound is meaningless under the load objective",
            ))
        }
        ((true, Some(_)), Some(_)) => {
            return Err(conflict("the SLA bound is given twice; use one spelling"))
        }
        ((true, inline_ms), legacy_ms) => inline_ms.or(legacy_ms),
    };
    let default = SlaParams::default();
    let bound_s = bound_ms.map_or(default.bound_s, |ms| ms * 1e-3);
    let params = SlaParams { bound_s, ..default };
    Ok(ObjectiveSpec::uniform_sla(classes, params))
}

/// The objective of the two-class commands (`optimize`, `evaluate`,
/// `reopt`, `robust`, `replay`, `dtrd`): their inputs are two-class
/// traffic matrices, so a `k ≥ 3` spec is rejected with a pointer at
/// the corpus pipelines that do support it.
fn objective(args: &Args) -> Result<Objective, ArgError> {
    let spec = objective_spec(args)?;
    spec.as_two_class().ok_or_else(|| {
        ArgError(format!(
            "invalid value for --classes: {} is a k-class objective and this command reads \
             two-class matrices (k-class objectives run through the corpus pipelines: dtrctl \
             suite/validate)",
            spec.summary()
        ))
    })
}

/// Loads the `--corpus` manifests.
fn corpus(args: &Args) -> Result<(&str, Vec<ScenarioSpec>), CliError> {
    let dir = args.get(&CORPUS).unwrap_or("corpus");
    let specs = dtr_scenario::load_corpus(Path::new(dir));
    Ok((dir, specs.map_err(|e| CliError::Input(e.to_string()))?))
}

/// Narrows the corpus to the `--smoke`/`--only` selection (`suite`,
/// `validate`) and applies the `--objective`/`--classes` override to
/// it: when either flag is present, every selected manifest's objective
/// is replaced and the result re-validated — so objective sweeps never
/// need manifest edits, and an override a given instance cannot carry
/// (e.g. `k ≥ 3` on a non-gravity family) fails fast with the
/// instance's name. A needle that matches no instance is an error
/// listing the available names, not a silently shorter run.
fn select_corpus(
    args: &Args,
    mut specs: Vec<ScenarioSpec>,
    cfg: &dtr_scenario::SuiteCfg,
) -> Result<Vec<ScenarioSpec>, CliError> {
    if args.on(&OBJECTIVE) || args.on(&CLASSES) {
        let objective = objective_spec(args)?;
        specs = dtr_scenario::select(&specs, cfg)
            .into_iter()
            .cloned()
            .collect();
        for spec in &mut specs {
            spec.objective = Some(objective.clone());
            let name = &spec.name;
            let why = |e| format!("--objective/--classes: {name}: {e} (narrow with --only)");
            spec.validate().map_err(|e| CliError::Input(why(e)))?;
        }
    }
    let unmatched = cfg.unmatched_needles(specs.iter().map(|s| s.name.as_str()));
    if !unmatched.is_empty() {
        let available: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        return Err(CliError::Input(format!(
            "--only: no corpus instance matches {:?} (available: {})",
            unmatched.join(","),
            available.join(", ")
        )));
    }
    if dtr_scenario::select(&specs, cfg).is_empty() {
        let msg = "--smoke/--only: no corpus instance is selected";
        return Err(CliError::Input(msg.to_string()));
    }
    Ok(specs)
}

/// Executes one `dtrctl` command line (without the program name):
/// finds the row and runs it. Naming no row is a usage error over the
/// whole `help`.
pub fn run<I: IntoIterator<Item = String>>(argv: I) -> Result<(), CliError> {
    let mut argv = argv.into_iter();
    let word = argv.next();
    let name = match word.as_deref() {
        Some("--help" | "-h") => "help",
        other => other.unwrap_or(""),
    };
    match COMMANDS.iter().find(|row| row.name == name) {
        Some(row) => run_row(row, argv),
        None if word.is_none() => {
            Err(ArgError(format!("no subcommand given\n\n{}", help())).into())
        }
        None => Err(ArgError(format!("unknown command {name:?}\n\n{}", help())).into()),
    }
}

/// Checks `argv` against `row` and runs it. A usage error — from the
/// check or from the command — leaves with the row's usage block.
pub fn run_row<I: IntoIterator<Item = String>>(row: &Command, argv: I) -> Result<(), CliError> {
    let checked = Args::parse(row, argv).map_err(CliError::Args);
    checked
        .and_then(|args| (row.run)(&args))
        .map_err(|e| match e {
            CliError::Args(ArgError(msg)) => {
                CliError::Args(ArgError(format!("{msg}\n\nusage: {}", row.usage())))
            }
            other => other,
        })
}

pub fn cmd_help(_: &Args) -> Result<(), CliError> {
    println!("{}", help());
    Ok(())
}

pub fn cmd_topo(args: &Args) -> Result<(), CliError> {
    let kind = args.positional.as_deref().unwrap_or("random");
    let size = |flag: &Flag, default: usize| args.num_or(flag, default);
    let (nodes, links, degree) = (size(&NODES, 30), size(&LINKS, 150), size(&DEGREE, 4));
    let seed = args.num_or(&SEED, 1u64);
    let spec = match kind {
        "powerlaw" => TopologySpec::PowerLaw {
            nodes,
            attachments: size(&ATTACHMENTS, 3),
            seed,
        },
        "isp" => TopologySpec::Isp,
        "waxman" => TopologySpec::Waxman {
            nodes,
            links,
            beta: args.num_or(&WAXMAN_BETA, 0.6),
            seed,
        },
        "hierarchical" => TopologySpec::Hierarchical {
            core: size(&CORE, 6),
            chords: size(&CHORDS, 3),
            edge_per_core: size(&EDGE_PER_CORE, 4),
            seed,
        },
        "grid" => TopologySpec::Grid {
            rows: size(&ROWS, 5),
            cols: size(&COLS, 6),
            torus: args.get(&TORUS) == Some("true"),
        },
        "fattree" => TopologySpec::FatTree {
            pods: size(&PODS, 4),
        },
        "vl2" => TopologySpec::Vl2 {
            da: size(&DA, 4),
            di: size(&DI, 4),
        },
        "jellyfish" => TopologySpec::Jellyfish {
            switches: size(&SWITCHES, 20),
            degree,
            seed,
        },
        "xpander" => TopologySpec::Xpander {
            degree,
            lifts: size(&LIFTS, 2),
            seed,
        },
        _ => TopologySpec::Random { nodes, links, seed },
    };
    spec.validate().map_err(ArgError)?;
    let topo = spec.build();
    println!(
        "generated {kind} topology: {} nodes, {} directed links",
        topo.node_count(),
        topo.link_count()
    );
    if let Some(path) = args.get(&DOT) {
        std::fs::write(path, export::to_dot(&topo, None))?;
        println!("[wrote] {path}");
    }
    if let Some(path) = args.get(&OUT) {
        save(path, &topo)?;
    }
    Ok(())
}

pub fn cmd_traffic(args: &Args) -> Result<(), CliError> {
    let sinks = args.num_or(&SINKS, 3usize);
    let model = match args.get(&MODEL) {
        Some("sink-uniform") => HighPriModel::Sink {
            sinks,
            pattern: SinkPattern::Uniform,
        },
        Some("sink-local") => HighPriModel::Sink {
            sinks,
            pattern: SinkPattern::Local,
        },
        _ => HighPriModel::Random,
    };
    let cfg = TrafficCfg {
        f: args.num_or(&F, 0.30),
        k: args.num_or(&K, 0.10),
        model,
        seed: args.num_or(&SEED, 1u64),
    };
    let scale = args.num_or(&SCALE, 1.0);
    let topo = topology(args)?;
    if model != HighPriModel::Random && sinks >= topo.node_count() {
        return Err(CliError::Input(format!(
            "--sinks {sinks}: the topology has {} nodes (need sinks < nodes)",
            topo.node_count()
        )));
    }
    let demands = DemandSet::generate(&topo, &cfg).scaled(scale);
    println!(
        "generated traffic: {:.1} Mbit/s total ({:.0}% high priority, {} high-priority pairs)",
        demands.total_volume(),
        100.0 * demands.high_fraction(),
        demands.high_pair_count()
    );
    save(args.require(&OUT)?, &demands)
}

pub fn cmd_optimize(args: &Args) -> Result<(), CliError> {
    if args.on(&ROBUST) {
        // `optimize --robust` is the failure-aware search: same knobs as
        // the `robust` subcommand (`--beta`, `--cap`, `--backend`, str or
        // dtr `--scheme`), kept under `optimize` so backend selection and
        // budgets read uniformly across nominal and robust runs.
        return cmd_robust(args);
    }
    // Portfolio arms cover the strategy axis themselves, so --scheme
    // only selects the routing scheme there.
    let portfolio = match wants_portfolio(args) {
        true => Some((routing_scheme(args)?, portfolio_cfg(args)?)),
        false => None,
    };
    let params = search_params(args, "experiment");
    let objective = objective(args)?;
    let scheme = args.get(&OPTIMIZE_SCHEME).unwrap_or("dtr");

    let topo = topology(args)?;
    let demands = demands(args, &topo)?;

    if let Some((routing, cfg)) = portfolio {
        let start = std::time::Instant::now();
        let res = PortfolioSearch::new(
            &topo,
            &demands,
            objective,
            params,
            PortfolioMode::Nominal(routing),
            cfg,
        )
        .run();
        print_portfolio(&res, start.elapsed().as_secs_f64());
        return save(args.require(&OUT)?, &res.weights);
    }

    let &(_, strategy, routing) = OPTIMIZE_SCHEMES
        .iter()
        .find(|row| row.0 == scheme)
        .expect("OPTIMIZE_SCHEME lists the table's names");
    let r = run_strategy(
        (strategy, routing),
        &topo,
        &demands,
        objective,
        params,
        None,
        None,
    );
    let t = &r.trace;
    let detail = match strategy {
        StrategyKind::Descent => format!("{} improvements", t.improvements.len()),
        StrategyKind::Anneal => format!("{} uphill moves", t.uphill_accepted),
        StrategyKind::Ga => format!("{} generations", t.generations),
        StrategyKind::Memetic => format!(
            "{} generations, {} local improvements",
            t.generations, t.local_improvements
        ),
    };
    println!(
        "{scheme}: cost {} after {} evaluations ({detail})",
        r.best_cost, t.evaluations
    );
    save(args.require(&OUT)?, &r.weights)
}

/// `optimize --scheme` values: the six valid rows of
/// [`run_strategy`]'s table (the GA and memetic rows are scheme-blind,
/// so each has one name).
const OPTIMIZE_SCHEMES: [(&str, StrategyKind, Scheme); 6] = [
    ("dtr", StrategyKind::Descent, Scheme::Dtr),
    ("str", StrategyKind::Descent, Scheme::Str),
    ("ga", StrategyKind::Ga, Scheme::Str),
    ("memetic", StrategyKind::Memetic, Scheme::Str),
    ("anneal-str", StrategyKind::Anneal, Scheme::Str),
    ("anneal-dtr", StrategyKind::Anneal, Scheme::Dtr),
];

pub fn cmd_evaluate(args: &Args) -> Result<(), CliError> {
    let objective = objective(args)?;
    let topo = topology(args)?;
    let demands = demands(args, &topo)?;
    let weights = load_incumbent(args.require(&WEIGHTS)?, &topo, Scheme::Dtr, None)?;
    let mut ev = Evaluator::new(&topo, &demands, objective);
    let e = ev.eval_dual(&weights);
    println!("objective         {}", e.cost);
    println!("phi_H             {:.2}", e.phi_h);
    println!("phi_L             {:.2}", e.phi_l);
    println!("avg utilization   {:.3}", e.avg_utilization(&topo));
    println!("max utilization   {:.3}", e.max_utilization(&topo));
    if let Some(sla) = &e.sla {
        println!("SLA violations    {}", sla.violations);
        println!("SLA penalty       {:.1}", sla.lambda);
    }
    let over: Vec<String> = topo
        .links()
        .filter(|(lid, l)| {
            (e.high_loads[lid.index()] + e.low_loads[lid.index()]) / l.capacity > 1.0
        })
        .map(|(lid, l)| {
            format!(
                "  {} {}→{} at {:.0}%",
                lid,
                topo.node_name(l.src),
                topo.node_name(l.dst),
                100.0 * (e.high_loads[lid.index()] + e.low_loads[lid.index()]) / l.capacity
            )
        })
        .collect();
    if !over.is_empty() {
        println!("overloaded links:");
        for line in over {
            println!("{line}");
        }
    }
    Ok(())
}

pub fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    // The engine asserts a positive window and never leaves a NaN one:
    // the two flags' ranges are what keeps both out.
    let cfg = SimConfig {
        warmup_s: args.num_or(&WARMUP, 0.5),
        duration_s: args.num_or(&DURATION, 2.0),
        seed: args.num_or(&SEED, 1u64),
        ..Default::default()
    };
    let topo = topology(args)?;
    let demands = demands(args, &topo)?;
    let weights = load_incumbent(args.require(&WEIGHTS)?, &topo, Scheme::Dtr, None)?;
    let report = Simulation::new(&topo, &demands, &weights, cfg).run();
    println!(
        "simulated {:.1}s: {} packets generated, {} delivered",
        cfg.warmup_s + cfg.duration_s,
        report.generated,
        report.delivered
    );
    let mean = |class: u8| {
        let (mut sum, mut n) = (0.0, 0u64);
        for (k, acc) in &report.pair_delays {
            if k.class == class && acc.count > 0 {
                sum += acc.sum;
                n += acc.count;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    };
    println!(
        "mean end-to-end delay: high {:.2} ms, low {:.2} ms",
        mean(0) * 1e3,
        mean(1) * 1e3
    );
    let max_util = topo
        .links()
        .map(|(lid, _)| report.utilization(lid))
        .fold(0.0f64, f64::max);
    println!("max measured link utilization: {max_util:.3}");
    Ok(())
}

pub fn cmd_deploy(args: &Args) -> Result<(), CliError> {
    let topo = topology(args)?;
    let weights = load_incumbent(args.require(&WEIGHTS)?, &topo, Scheme::Dtr, None)?;
    let fail: Option<u32> = args.num(&FAIL_LINK);
    if let Some(id) = fail.filter(|&id| id as usize >= topo.link_count()) {
        return Err(CliError::Input(format!(
            "--fail-link {id}: the topology has {} directed links",
            topo.link_count()
        )));
    }
    check_duplex(args, &topo, fail.map(LinkId).into_iter())?;
    if let Some(path) = args.get(&PRINT_CONFIG) {
        std::fs::write(path, dtr_mtr::network_config(&topo, &weights))?;
        println!("[wrote] {path} (router configuration stanzas)");
    }
    let mut net = MtrNetwork::new(&topo, weights);
    let msgs = net.converge();
    println!(
        "converged: {msgs} LSA deliveries, {} SPF runs, databases synchronized: {}",
        net.stats.spf_runs,
        net.databases_synchronized()
    );
    if let Some(id) = fail {
        let lid = LinkId(id);
        let l = topo.link(lid);
        println!(
            "failing {} ↔ {} ...",
            topo.node_name(l.src),
            topo.node_name(l.dst)
        );
        net.fail_link(lid);
        let msgs = net.converge();
        println!(
            "reconverged: {msgs} LSA deliveries, total {} SPF runs",
            net.stats.spf_runs
        );
    }
    // A forwarding sample across the diameter.
    let src = dtr_graph::NodeId(0);
    let dst = dtr_graph::NodeId((topo.node_count() - 1) as u32);
    for (tid, label) in [(TopologyId::DEFAULT, "high"), (TopologyId::LOW, "low")] {
        match net.forward_path(tid, src, dst) {
            Ok(path) => {
                let names: Vec<&str> = std::iter::once(topo.node_name(src))
                    .chain(path.iter().map(|&l| topo.node_name(topo.link(l).dst)))
                    .collect();
                println!("{label:>4}: {}", names.join(" → "));
            }
            Err(e) => println!("{label:>4}: unroutable ({e:?})"),
        }
    }
    Ok(())
}

pub fn cmd_bound(args: &Args) -> Result<(), CliError> {
    use dtr_routing::lower_bound::{dual_lower_bound, FwParams};
    let topo = topology(args)?;
    let demands = demands(args, &topo)?;
    let b = dual_lower_bound(&topo, &demands, &FwParams::default());
    println!("Frank–Wolfe optimal-routing reference (load-based objective):");
    println!(
        "  high class: flow cost {:.2}, duality LB {:.2} (bracket {:.2}×)",
        b.achieved.0,
        b.phi_h,
        b.achieved.0 / b.phi_h.max(1e-12)
    );
    println!(
        "  low class : flow cost {:.2}, duality LB {:.2} (conditional on the FW high placement)",
        b.achieved.1, b.phi_l
    );
    println!(
        "any SPF-realizable weight setting has Φ_H ≥ {:.2}; compare with `dtrctl evaluate`",
        b.phi_h
    );
    Ok(())
}

/// `reopt`: change-limited reoptimization of an incumbent setting.
pub fn cmd_reopt(args: &Args) -> Result<(), CliError> {
    let params = search_params(args, "experiment");
    let objective = objective(args)?;
    let scheme = routing_scheme(args)?;
    let h: usize = args.num_or(&CHANGES, 0);
    let topo = topology(args)?;
    let demands = demands(args, &topo)?;
    let incumbent = load_incumbent(
        args.require(&WEIGHTS)?,
        &topo,
        scheme,
        Some(params.max_weight),
    )?;
    let res = ReoptSearch::new(&topo, &demands, objective, params, scheme, incumbent, h).run();
    println!(
        "reopt ({}, h={h}): cost {} using {} changes",
        scheme.name(),
        res.best_cost,
        res.changes_used
    );
    save(args.require(&OUT)?, &res.weights)
}

/// `robust`: failure-aware optimization over all single duplex-pair cuts.
pub fn cmd_robust(args: &Args) -> Result<(), CliError> {
    // Only the load-based objective is supported: a post-failure SLA
    // evaluation would need per-scenario delay DAGs (see the robust
    // module docs). Reject rather than silently ignore the flag.
    if let Objective::SlaBased(_) = objective(args)? {
        let msg = "invalid value for --objective: robust optimization supports only \"load\"";
        return Err(ArgError(msg.to_string()).into());
    }
    let params = search_params(args, "experiment");
    let scheme = routing_scheme(args)?;
    let beta: f64 = args.num_or(&BETA, 0.5);
    let cap: Option<usize> = args.num(&CAP);
    let portfolio = wants_portfolio(args)
        .then(|| portfolio_cfg(args))
        .transpose()?;
    let topo = topology(args)?;
    check_duplex(args, &topo, topo.links().map(|(lid, _)| lid))?;
    let demands = demands(args, &topo)?;
    let warm = incumbent(args, &topo, scheme, Some(params.max_weight))?;

    if let Some(cfg) = portfolio {
        let mut search = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            params,
            PortfolioMode::Robust {
                combine: ScenarioCombine::Blend { beta },
                cap,
                scheme,
            },
            cfg,
        );
        if let Some(w0) = warm {
            search = search.with_initial(w0);
        }
        let start = std::time::Instant::now();
        let res = search.run();
        print_portfolio(&res, start.elapsed().as_secs_f64());
        let rc = res.robust.expect("robust portfolio reports a robust cost");
        println!(
            "robust portfolio ({}, β={beta}): intact {}, worst {}, combined {}",
            scheme.name(),
            rc.intact,
            rc.worst,
            rc.combined
        );
        return save(args.require(&OUT)?, &res.weights);
    }

    let mut search = RobustSearch::new(
        &topo,
        &demands,
        ScenarioCombine::Blend { beta },
        params,
        scheme,
    );
    if let Some(n) = cap {
        search = search.with_scenario_cap(n);
    }
    if let Some(w0) = warm {
        search = search.with_initial(w0);
    }
    let res = search.run();
    println!(
        "robust ({}, β={beta}, {} scenarios, {} backend): intact {}, worst {}, combined {}",
        scheme.name(),
        res.scenarios_used,
        match params.backend {
            dtr_engine::BackendKind::Full => "full",
            dtr_engine::BackendKind::Incremental => "incremental",
        },
        res.cost.intact,
        res.cost.worst,
        res.cost.combined
    );
    if !res.trace.dropped_scenarios.is_empty() {
        println!(
            "  scenario cap dropped {} pairs from the optimization set: {:?}",
            res.trace.dropped_scenarios.len(),
            res.trace.dropped_scenarios
        );
    }
    save(args.require(&OUT)?, &res.weights)
}

/// `suite`: the scenario-corpus runner (see `dtr-scenario`).
/// `dtrctl upgrade`: the migration-planning question — given a budget
/// of `N` upgradeable routers, which placement maximizes `R_L`?
pub fn cmd_upgrade(args: &Args) -> Result<(), CliError> {
    let budget: usize = args.num_or(&UPGRADE_BUDGET, 1);
    // `--search` is the definitive per-budget weight-search preset;
    // `--probe` the cheap greedy/swap scoring preset.
    let mut params = preset(args, &SEARCH, "quick");
    params.seed = args.num_or(&SEED, params.seed);
    params.backend = backend(args);
    let mut probe = preset(args, &PROBE, "tiny");
    probe.seed = params.seed;
    probe.backend = params.backend;
    let up = UpgradeParams {
        budget,
        swap_passes: args.num_or(&SWAP_PASSES, 1usize),
        probe,
    };
    let cfg = portfolio_cfg(args)?;

    // The instance: either explicit artifact files, or a corpus
    // manifest by name (its topology/traffic/seed, with any declared
    // deployment ignored — the planner explores placements itself).
    let (topo, demands): (Topology, DemandSet) = match args.get(&INSTANCE) {
        Some(name) => {
            let (_, specs) = corpus(args)?;
            let spec = specs.iter().find(|s| s.name == name);
            let missing = format!("--instance: no corpus instance is named {name:?}");
            let spec = spec.ok_or(CliError::Input(missing))?;
            let topo = spec.topology.build();
            let demands = spec.traffic.build(&topo);
            (topo, demands)
        }
        None => {
            let topo = topology(args)?;
            let demands = demands(args, &topo)?;
            (topo, demands)
        }
    };

    let outcome = UpgradeSearch::new(&topo, &demands, params, cfg, up).run();

    println!(
        "upgrade: {} nodes, budget {budget}, baseline Φ_L {:.6} ({} probe searches)",
        topo.node_count(),
        outcome.baseline_phi_l,
        outcome.probes
    );
    println!("  budget  Φ_L           R_L      best R_L  placement");
    for s in &outcome.steps {
        println!(
            "  {:>6}  {:<12.6}  {:>7.3}  {:>8.3}  {:?}",
            s.budget, s.phi_l, s.r_l, s.best_r_l, s.upgraded
        );
    }
    let last = outcome.last();
    println!(
        "  best: R_L {:.3} with {} upgraded {:?}",
        last.best_r_l,
        last.best_upgraded.len(),
        last.best_upgraded
    );
    if let Some(out) = args.get(&OUT) {
        save(out, &outcome)?;
    }
    Ok(())
}

pub fn cmd_suite(args: &Args) -> Result<(), CliError> {
    use dtr_scenario::{run_suite, SuiteCfg};

    let out_dir = Path::new(args.get(&OUT).unwrap_or("suite-out"));
    let cfg = SuiteCfg {
        smoke: args.on(&SMOKE),
        only: args.get(&ONLY).map(str::to_string),
    };
    let (corpus_dir, specs) = corpus(args)?;
    let specs = select_corpus(args, specs, &cfg)?;
    println!(
        "suite: {} manifests in {corpus_dir}{}",
        specs.len(),
        if cfg.smoke { " (smoke mode)" } else { "" }
    );
    let (reports, summary) = run_suite(&specs, &cfg);
    std::fs::create_dir_all(out_dir)?;
    for r in &reports {
        let path = out_dir.join(format!("{}.json", r.name));
        std::fs::write(&path, serde_json::to_string_pretty(r)?)?;
        let robust = match &r.robust {
            Some(rb) => format!(
                ", robust over {} scenarios: R_H^worst {:.2}",
                rb.scenarios, rb.r_h_worst
            ),
            None => String::new(),
        };
        println!(
            "  {:<24} {:>3}n/{:<4}l  R_H {:>7.2}  R_L {:>7.2}  {}{robust}",
            r.name,
            r.nodes,
            r.links,
            r.r_h,
            r.r_l,
            if r.dtr_high_win {
                "dtr-high-ok"
            } else {
                "DTR HIGH LOSS"
            },
        );
    }
    let summary_path = out_dir.join("summary.json");
    std::fs::write(&summary_path, serde_json::to_string_pretty(&summary)?)?;
    println!(
        "suite: {} instances in {:.1}s — geomean R_H {:.2}, R_L {:.2}, dtr high-class wins on all: {} [wrote {}]",
        summary.names.len(),
        summary.elapsed_s,
        summary.geomean_r_h,
        summary.geomean_r_l,
        summary.all_dtr_high_wins,
        summary_path.display()
    );
    Ok(())
}

/// `validate`: corpus-scale sim-vs-analytic differential validation
/// (see `dtr-scenario::validate`).
pub fn cmd_validate(args: &Args) -> Result<(), CliError> {
    use dtr_scenario::{assert_validation_shape, run_validation, ValidateCfg};

    let out_dir = Path::new(args.get(&OUT).unwrap_or("validate-out"));
    let cfg = ValidateCfg {
        smoke: args.on(&SMOKE),
        only: args.get(&ONLY).map(str::to_string),
        des_packets: args.num_or(&DES_PACKETS, 0u64),
    };
    let (corpus_dir, specs) = corpus(args)?;
    let specs = select_corpus(args, specs, &cfg.suite_cfg())?;
    println!(
        "validate: {} manifests in {corpus_dir}{} (DES budget {} packets/run)",
        specs.len(),
        if cfg.smoke { " (smoke mode)" } else { "" },
        cfg.packets()
    );
    let start = std::time::Instant::now();
    let (reports, summary) = run_validation(&specs, &cfg)
        .map_err(|trapped| CliError::Input(format!("validate: {trapped}")))?;
    std::fs::create_dir_all(out_dir)?;
    for r in &reports {
        if cfg.smoke {
            assert_validation_shape(r);
        }
        let path = out_dir.join(format!("{}.json", r.name));
        std::fs::write(&path, serde_json::to_string_pretty(r)?)?;
        for s in r.schemes() {
            let delay_err = [s.high.mean_delay_rel_err, s.low.mean_delay_rel_err]
                .iter()
                .flatten()
                .cloned()
                .fold(0.0f64, f64::max);
            println!(
                "  {:<24} {:<8} fluid {:>8.1e}  des-load {:>6.3}  des-delay {:>6.3}  \
                 iso {}  util {:.2}{}",
                r.name,
                s.scheme,
                s.high.fluid_load_rel_err.max(s.low.fluid_load_rel_err),
                s.high.des_load_rel_err.max(s.low.des_load_rel_err),
                delay_err,
                s.isolation_violations,
                s.max_util,
                if s.saturated_links > 0 {
                    format!(" ({} saturated)", s.saturated_links)
                } else {
                    String::new()
                },
            );
        }
    }
    let summary_path = out_dir.join("validation_summary.json");
    std::fs::write(&summary_path, serde_json::to_string_pretty(&summary)?)?;
    println!(
        "validate: {} instances in {:.1}s — fluid err {:.1e} (tol {:.0e}), des load err {:.3} \
         on {} stable schemes (≤ {}; {:.3} incl. saturated, telemetry), des delay err {:.3} \
         stable (≤ {}) / {:.3} all (≤ {}), isolation violations {} [wrote {}]",
        summary.names.len(),
        start.elapsed().as_secs_f64(),
        summary.max_fluid_load_rel_err,
        summary.envelope.fluid_load_tol,
        summary.max_stable_des_load_rel_err,
        summary.stable_schemes,
        summary.envelope.des_load,
        summary.max_des_load_rel_err,
        summary.max_stable_mean_delay_rel_err,
        summary.envelope.des_delay,
        summary.max_mean_delay_rel_err,
        summary.envelope.des_delay_saturated,
        summary.isolation_violations,
        summary_path.display()
    );
    if !summary.all_ok() {
        let mut failed = Vec::new();
        if !summary.fluid_ok {
            failed.push("fluid-vs-analytic load tolerance");
        }
        if !summary.des_ok {
            failed.push("DES accuracy envelope");
        }
        if !summary.isolation_ok {
            failed.push("priority isolation");
        }
        return Err(CliError::Gate(failed.join(", ")));
    }
    println!("validate: all gates green");
    Ok(())
}

/// `churn`: seed-deterministic churn-trace generation (Poisson link
/// flaps, gravity-drift demand walks, what-if probes; see
/// `dtr-scenario::churn`).
pub fn cmd_churn(args: &Args) -> Result<(), CliError> {
    use dtr_scenario::{generate_churn, ChurnAction, ChurnCfg};

    let defaults = ChurnCfg::default();
    let cfg = ChurnCfg {
        events: args.num_or(&EVENTS, 100usize),
        seed: args.num_or(&SEED, 1u64),
        flap_rate: args.num_or(&FLAP_RATE, defaults.flap_rate),
        repair_rate: args.num_or(&REPAIR_RATE, defaults.repair_rate),
        demand_rate: args.num_or(&DEMAND_RATE, defaults.demand_rate),
        whatif_rate: args.num_or(&WHATIF_RATE, defaults.whatif_rate),
        directed_flap_rate: args.num_or(&DIRECTED_FLAP_RATE, defaults.directed_flap_rate),
        burst_rate: args.num_or(&BURST_RATE, defaults.burst_rate),
        burst_max: args.num_or(&BURST_MAX, defaults.burst_max),
        drift_sigma: args.num_or(&DRIFT, defaults.drift_sigma),
    };
    // The generator asserts both: a burst holds at least two walks, and
    // a trace's last slot, which no flap may open, must be drawable.
    if cfg.burst_rate > 0.0 && cfg.burst_max < 2 {
        return Err(ArgError(format!(
            "conflicting flags --burst-rate {} --burst-max {}: a burst holds 2..=burst-max \
             demand walks",
            cfg.burst_rate, cfg.burst_max
        ))
        .into());
    }
    if cfg.demand_rate + cfg.whatif_rate == 0.0 {
        let msg = "conflicting flags --demand-rate 0 --whatif-rate 0: a trace of link events \
                   alone cannot always be completed";
        return Err(ArgError(msg.to_string()).into());
    }
    let topo = topology(args)?;
    check_duplex(args, &topo, topo.links().map(|(lid, _)| lid))?;
    let base = demands(args, &topo)?;
    let name = args.get(&NAME).unwrap_or("churn");
    let trace = generate_churn(name, &topo, &base, &cfg);
    let count =
        |pred: fn(&ChurnAction) -> bool| trace.events.iter().filter(|e| pred(&e.action)).count();
    println!(
        "churn {name}: {} events on {}n/{}l (seed {}) — {} flaps, {} repairs, {} demand walks, \
         {} what-ifs, {} directed flaps, {} directed repairs",
        trace.events.len(),
        trace.topo.node_count(),
        trace.topo.link_count(),
        cfg.seed,
        count(|a| matches!(a, ChurnAction::LinkDown { .. })),
        count(|a| matches!(a, ChurnAction::LinkUp { .. })),
        count(|a| matches!(a, ChurnAction::Demand { .. })),
        count(|a| matches!(a, ChurnAction::WhatIfLinkDown { .. })),
        count(|a| matches!(a, ChurnAction::DirectedLinkDown { .. })),
        count(|a| matches!(a, ChurnAction::DirectedLinkUp { .. })),
    );
    save(args.require(&OUT)?, &trace)
}

/// Smoke-mode shape asserts over a replay report. Violations are gate
/// failures (exit non-zero), not panics, so CI surfaces them cleanly.
fn assert_replay_shape(r: &dtr_daemon::ReplayReport, events: usize) -> Result<(), CliError> {
    let mut failed = Vec::new();
    if r.events != events {
        failed.push(format!("report covers {} of {events} events", r.events));
    }
    // Every protocol line — trace event or driver-injected flush — lands
    // in exactly one action bucket, so the counts sum to events+flushes.
    let handled =
        r.accepted + r.declined + r.refused + r.no_improvement + r.noop + r.coalesced + r.whatif;
    let lines = events as u64 + r.flushes;
    if handled != lines {
        failed.push(format!(
            "action counts sum to {handled}, not {lines} ({events} events + {} flushes)",
            r.flushes
        ));
    }
    for (label, v) in [
        ("final Φ_H", r.final_cost.phi_h),
        ("final Φ_L", r.final_cost.phi_l),
        ("batch Φ_H", r.batch_cost.phi_h),
        ("batch Φ_L", r.batch_cost.phi_l),
    ] {
        if !v.is_finite() || v < 0.0 {
            failed.push(format!("{label} is {v}"));
        }
    }
    if r.accepted > 0 && r.total_churn_messages == 0 {
        failed.push("accepted reconfigurations with zero churn messages".to_string());
    }
    if !r.batch_ok {
        failed.push(format!(
            "final incumbent is {:.4}× the cold batch solution (bar 1.05)",
            r.batch_ratio
        ));
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(CliError::Gate(failed.join("; ")))
    }
}

/// The replay artifacts covered by the `--smoke` double-replay
/// byte-identity gate. `timing.json` is deliberately NOT in this list:
/// it records wall-clock latencies (p50/p99, events/sec) that
/// legitimately differ between two runs of the same trace, so gating on
/// it would make the determinism check flaky by construction.
const REPLAY_GATED_FILES: [&str; 2] = ["events.jsonl", "report.json"];

/// Serializes the gated replay artifacts, in [`REPLAY_GATED_FILES`]
/// order. The written files and the determinism gate both come from
/// this one serialization, so what the gate compares is byte-for-byte
/// what lands on disk.
fn replay_gated_artifacts(
    out: &dtr_daemon::ReplayOutcome,
) -> Result<Vec<(&'static str, String)>, CliError> {
    let mut events_jsonl = out.lines.join("\n");
    events_jsonl.push('\n');
    Ok(vec![
        (REPLAY_GATED_FILES[0], events_jsonl),
        (
            REPLAY_GATED_FILES[1],
            serde_json::to_string_pretty(&out.report)?,
        ),
    ])
}

/// The double-replay determinism gate: every gated artifact must be
/// byte-identical between two replays of the same trace. Timing data
/// never enters the comparison (see [`REPLAY_GATED_FILES`]).
fn check_replay_determinism(
    first: &dtr_daemon::ReplayOutcome,
    second: &dtr_daemon::ReplayOutcome,
) -> Result<(), CliError> {
    for ((name, a), (_, b)) in replay_gated_artifacts(first)?
        .into_iter()
        .zip(replay_gated_artifacts(second)?)
    {
        if a != b {
            let detail = if name == "events.jsonl" {
                let at = first
                    .lines
                    .iter()
                    .zip(&second.lines)
                    .position(|(x, y)| x != y)
                    .unwrap_or(first.lines.len());
                format!("replies diverge at event {at}")
            } else {
                "summary reports differ".to_string()
            };
            return Err(CliError::Gate(format!(
                "replay is not deterministic: {name}: {detail}"
            )));
        }
    }
    Ok(())
}

/// The daemon configuration `replay` and `dtrd` read from one set of
/// flags. Daemons answer per event, so the budget defaults to the
/// smallest preset rather than `optimize`'s batch default.
fn daemon_cfg(args: &Args) -> Result<DaemonCfg, ArgError> {
    let defaults = DaemonCfg::default();
    Ok(DaemonCfg {
        params: search_params(args, "tiny"),
        changes_per_event: args.num_or(&CHANGES, defaults.changes_per_event),
        min_gain_per_churn: args.num_or(&MIN_GAIN_PER_CHURN, defaults.min_gain_per_churn),
        objective: objective(args)?,
        coalesce: args.num_or(&COALESCE, defaults.coalesce),
        idle_steps: args.num_or(&IDLE_STEPS, defaults.idle_steps),
    })
}

/// `dtrd`: boots the daemon on its input files and serves the
/// line-delimited JSON protocol on stdin/stdout, on a unix socket
/// (`--socket`) or on TCP (`--tcp ADDR`, e.g. `127.0.0.1:7700`).
///
/// The daemon has no run-time failures of its own to tell from usage
/// errors — it either boots and serves or it does not — so every
/// failure leaves as one: exit 2 with the usage line.
pub fn cmd_dtrd(args: &Args) -> Result<(), CliError> {
    boot(args).map_err(|e| CliError::Args(ArgError(e.to_string())))
}

fn boot(args: &Args) -> Result<(), CliError> {
    if args.on(&SOCKET) && args.on(&TCP) {
        let msg = "conflicting flags --socket --tcp: one daemon serves one transport";
        return Err(ArgError(msg.to_string()).into());
    }
    let cfg = daemon_cfg(args)?;
    let topo = topology(args)?;
    let demands = demands(args, &topo)?;
    let weights = incumbent(args, &topo, Scheme::Dtr, Some(cfg.params.max_weight))?;
    let daemon = dtr_daemon::Daemon::new(topo, demands, weights, cfg);
    match (args.get(&SOCKET), args.get(&TCP)) {
        #[cfg(unix)]
        (Some(path), _) => {
            dtr_daemon::serve_unix(daemon, Path::new(path)).map_err(|e| misfit(path, e))
        }
        #[cfg(not(unix))]
        (Some(path), _) => Err(misfit(path, "unix sockets need a unix platform")),
        (None, Some(addr)) => {
            let listener = std::net::TcpListener::bind(addr).map_err(|e| misfit(addr, e))?;
            let bound = listener.local_addr().map_err(|e| misfit(addr, e))?;
            eprintln!("dtrd: listening on tcp://{bound}");
            dtr_daemon::serve_tcp(daemon, listener).map_err(|e| misfit(addr, e))
        }
        (None, None) => dtr_daemon::serve_stdio(daemon).map_err(|e| misfit("stdio", e)),
    }
}

/// `replay`: drive the `dtrd` daemon through a churn trace end to end
/// (see `dtr-daemon`).
pub fn cmd_replay(args: &Args) -> Result<(), CliError> {
    use dtr_daemon::{replay_trace, TimingSummary};
    use dtr_scenario::ChurnTrace;

    let smoke = args.on(&SMOKE);
    let trace_path = match args.get(&TRACE) {
        Some(p) => p,
        // The checked-in CI smoke trace.
        None if smoke => "traces/smoke.json",
        None => args.require(&TRACE)?,
    };
    let cfg = daemon_cfg(args)?;
    let transport = args.get(&TRANSPORT).unwrap_or("inproc");
    let trace: ChurnTrace = load(trace_path)?;
    // A hand-edited or corrupted trace must fail with a diagnostic, not
    // a panic deep inside the daemon.
    let invalid = |e| misfit(trace_path, format!("invalid churn trace: {e}"));
    trace.validate().map_err(invalid)?;
    if matches!(cfg.objective, Objective::SlaBased(_)) {
        // Masked evaluation is load-only, so an SLA replay of a trace
        // with link-failure events would only collect per-event protocol
        // errors — reject the combination up front instead.
        use dtr_scenario::ChurnAction;
        let link_events = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    ChurnAction::LinkDown { .. }
                        | ChurnAction::LinkUp { .. }
                        | ChurnAction::DirectedLinkDown { .. }
                        | ChurnAction::DirectedLinkUp { .. }
                        | ChurnAction::WhatIfLinkDown { .. }
                )
            })
            .count();
        if link_events > 0 {
            return Err(CliError::Input(format!(
                "--objective sla cannot replay trace {:?}: it holds {link_events} link-failure \
                 events and masked evaluation is load-only (regenerate the trace with \
                 --flap-rate 0 --whatif-rate 0)",
                trace.name
            )));
        }
    }
    let run_replay = |initial: Option<DualWeights>| -> Result<dtr_daemon::ReplayOutcome, CliError> {
        match transport {
            "tcp" => Ok(dtr_daemon::replay_trace_tcp(&trace, cfg, initial)?),
            _ => Ok(replay_trace(&trace, cfg, initial)),
        }
    };
    let initial = incumbent(args, &trace.topo, Scheme::Dtr, Some(cfg.params.max_weight))?;
    println!(
        "replay {}: {} events on {}n/{}l (budget {}, h={}, min-gain-per-churn {}, coalesce {}, \
         idle-steps {}, transport {transport})",
        trace.name,
        trace.events.len(),
        trace.topo.node_count(),
        trace.topo.link_count(),
        args.get(&BUDGET).unwrap_or("tiny"),
        cfg.changes_per_event,
        cfg.min_gain_per_churn,
        cfg.coalesce,
        cfg.idle_steps,
    );
    let out = run_replay(initial.clone())?;

    // Artifacts are written before any smoke gate runs so a failing
    // gate still leaves the per-event replies on disk for upload.
    let out_dir = Path::new(args.get(&OUT).unwrap_or("replay-out"));
    std::fs::create_dir_all(out_dir)?;
    for (name, bytes) in replay_gated_artifacts(&out)? {
        std::fs::write(out_dir.join(name), bytes)?;
    }
    let timing = TimingSummary::from_labeled(&out.per_event_s, &out.per_event_kind);
    std::fs::write(
        out_dir.join("timing.json"),
        serde_json::to_string_pretty(&timing)?,
    )?;
    let r = &out.report;
    println!(
        "  actions: {} accepted, {} declined, {} refused, {} no-improvement, {} noop, \
         {} coalesced (+{} flushes), {} what-if",
        r.accepted,
        r.declined,
        r.refused,
        r.no_improvement,
        r.noop,
        r.coalesced,
        r.flushes,
        r.whatif
    );
    println!(
        "  gain {:.4} over {} LSA messages ({:.6}/msg); final (Φ_H {:.4}, Φ_L {:.4}) vs batch \
         (Φ_H {:.4}, Φ_L {:.4}) — ratio {:.4} ({})",
        r.total_gain,
        r.total_churn_messages,
        r.gain_per_churn,
        r.final_cost.phi_h,
        r.final_cost.phi_l,
        r.batch_cost.phi_h,
        r.batch_cost.phi_l,
        r.batch_ratio,
        if r.batch_ok { "ok" } else { "OVER 1.05 BAR" },
    );
    println!(
        "  timing: {:.0} events/sec, p50 {:.2} ms, p99 {:.2} ms [wrote {}]",
        timing.events_per_sec,
        timing.p50_event_s * 1e3,
        timing.p99_event_s * 1e3,
        out_dir.display()
    );
    if smoke {
        // Determinism gate: a second replay must reproduce the gated
        // artifacts byte for byte (timing.json is excluded — wall clock).
        let again = run_replay(initial)?;
        check_replay_determinism(&out, &again)?;
        assert_replay_shape(&out.report, trace.events.len())?;
        println!("replay: smoke gates green (byte-identical double run, shapes, batch ratio)");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn run(argv: &[String]) -> Result<(), CliError> {
        super::run(argv.iter().cloned())
    }

    /// `e` is a usage error (exit 2) whose message holds `needle`.
    fn is_usage(e: &CliError, needle: &str) -> bool {
        matches!(e, CliError::Args(a) if a.0.contains(needle))
    }

    /// `e` is an input misfit (exit 1) whose message holds `needle`.
    fn is_input(e: &CliError, needle: &str) -> bool {
        matches!(e, CliError::Input(msg) if msg.contains(needle))
    }

    /// `flags` checked against the `suite` row, which carries the
    /// objective flags and requires nothing.
    fn suite(flags: &str) -> Result<Args, ArgError> {
        let row = COMMANDS.iter().find(|row| row.name == "suite").unwrap();
        Args::parse(row, args(flags))
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("dtrctl-test-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn full_workflow_roundtrip() {
        let topo_p = tmp("topo.json");
        let tm_p = tmp("tm.json");
        let w_p = tmp("w.json");

        run(&args(&format!(
            "topo random --nodes 10 --links 40 --seed 3 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --f 0.3 --k 0.2 --scale 3 --seed 3 --out {tm_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "optimize --topo {topo_p} --traffic {tm_p} --scheme dtr --budget tiny --out {w_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "evaluate --topo {topo_p} --traffic {tm_p} --weights {w_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "simulate --topo {topo_p} --traffic {tm_p} --weights {w_p} --duration 0.1 --warmup 0.05"
        )))
        .unwrap();
        run(&args(&format!("deploy --topo {topo_p} --weights {w_p}"))).unwrap();
        run(&args(&format!("bound --topo {topo_p} --traffic {tm_p}"))).unwrap();

        for p in [topo_p, tm_p, w_p] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn upgrade_emits_a_deterministic_monotone_curve() {
        let topo_p = tmp("up-topo.json");
        let tm_p = tmp("up-tm.json");
        let out1 = tmp("up-out1.json");
        let out2 = tmp("up-out2.json");

        run(&args(&format!(
            "topo random --nodes 6 --links 22 --seed 21 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --scale 3 --seed 21 --out {tm_p}"
        )))
        .unwrap();
        let upgrade = |out: &str| {
            run(&args(&format!(
                "upgrade --topo {topo_p} --traffic {tm_p} --budget 2 --search tiny \
                 --probe tiny --seed 9 --portfolio descent --restarts 1 --workers 1 \
                 --out {out}"
            )))
            .unwrap();
        };
        upgrade(&out1);
        upgrade(&out2);

        let b1 = std::fs::read(&out1).unwrap();
        let b2 = std::fs::read(&out2).unwrap();
        assert_eq!(b1, b2, "upgrade reports differ between identical runs");

        let outcome: dtr_core::UpgradeOutcome = load(&out1).unwrap();
        assert_eq!(outcome.steps.len(), 3, "expected budgets 0, 1, 2");
        let curve = outcome.curve();
        for pair in curve.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "best R_L regressed along the curve: {curve:?}"
            );
        }

        for p in [topo_p, tm_p, out1, out2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn reopt_robust_workflow() {
        let topo_p = tmp("t3.json");
        let tm_p = tmp("m3.json");
        let w_p = tmp("w3.json");
        let w2_p = tmp("w3b.json");

        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 6 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --scale 3 --seed 6 --out {tm_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "optimize --topo {topo_p} --traffic {tm_p} --scheme dtr --budget tiny --out {w_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "reopt --topo {topo_p} --traffic {tm_p} --weights {w_p} --changes 3 \
             --budget tiny --out {w2_p}"
        )))
        .unwrap();
        let a: DualWeights = load(&w_p).unwrap();
        let b: DualWeights = load(&w2_p).unwrap();
        let changed = a.high.hamming(&b.high) + a.low.hamming(&b.low);
        assert!(changed <= 3, "reopt changed {changed} weights");
        run(&args(&format!(
            "robust --topo {topo_p} --traffic {tm_p} --weights {w_p} --budget tiny \
             --beta 0.5 --out {w2_p}"
        )))
        .unwrap();
        for p in [topo_p, tm_p, w_p, w2_p] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn optimize_backends_agree() {
        let topo_p = tmp("t4.json");
        let tm_p = tmp("m4.json");
        let wi_p = tmp("w4i.json");
        let wf_p = tmp("w4f.json");

        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 9 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --scale 3 --seed 9 --out {tm_p}"
        )))
        .unwrap();
        // The failure-aware descent, and a strategy that used to ignore
        // the flag.
        for search in ["--robust --scheme dtr", "--scheme anneal-dtr"] {
            for (backend, out) in [("incremental", &wi_p), ("full", &wf_p)] {
                run(&args(&format!(
                    "optimize {search} --topo {topo_p} --traffic {tm_p}                      --budget tiny --seed 4 --backend {backend} --out {out}"
                )))
                .unwrap();
            }
            assert_eq!(
                std::fs::read(&wi_p).unwrap(),
                std::fs::read(&wf_p).unwrap(),
                "{search}: incumbents must not depend on the backend"
            );
        }

        for p in [topo_p, tm_p, wi_p, wf_p] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn optimize_schemes_are_the_six_rows_of_the_strategy_table() {
        let crate::args::Kind::Choice(names) = OPTIMIZE_SCHEME.kind else {
            panic!("--scheme is a choice");
        };
        assert!(names.iter().eq(OPTIMIZE_SCHEMES.iter().map(|row| &row.0)));
        for (i, a) in OPTIMIZE_SCHEMES.iter().enumerate() {
            for b in &OPTIMIZE_SCHEMES[i + 1..] {
                assert_ne!(a.0, b.0);
                assert_ne!((a.1, a.2), (b.1, b.2), "{} and {} name one row", a.0, b.0);
            }
        }
        // Four strategies × two schemes is eight rows; the two missing
        // names are the GA and memetic rows under the other scheme,
        // which are the same runs.
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
            seed: 2,
        });
        let demands = DemandSet::generate(&topo, &TrafficCfg::default()).scaled(3.0);
        for strategy in [StrategyKind::Ga, StrategyKind::Memetic] {
            let [a, b] = [Scheme::Str, Scheme::Dtr].map(|scheme| {
                run_strategy(
                    (strategy, scheme),
                    &topo,
                    &demands,
                    Objective::LoadBased,
                    SearchParams::tiny(),
                    None,
                    None,
                )
            });
            assert_eq!((a.weights, a.trace), (b.weights, b.trace));
        }
    }

    #[test]
    fn traffic_for_another_topology_is_a_typed_error() {
        // Used to index past the end of a load vector (exit 101) in
        // `optimize` under every scheme and in `evaluate`.
        let f = robust_fixture("tm-fit");
        let [topo_p, _, w_p, _, small_tm_p, out_p] = &f;
        for cmd in [
            format!("optimize --scheme dtr --budget tiny --out {out_p}"),
            format!("optimize --scheme ga --budget tiny --out {out_p}"),
            format!("evaluate --weights {w_p}"),
        ] {
            let e = run(&args(&format!(
                "{cmd} --topo {topo_p} --traffic {small_tm_p}"
            )))
            .unwrap_err();
            assert!(is_input(&e, &format!("{small_tm_p}: ")), "{e:?}");
            let msg = e.to_string();
            assert!(msg.contains("6×6") && msg.contains("8 nodes"), "{msg}");
        }
        for p in &f {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn portfolio_optimize_is_worker_count_invariant() {
        let topo_p = tmp("t5.json");
        let tm_p = tmp("m5.json");
        let w1_p = tmp("w5a.json");
        let w4_p = tmp("w5b.json");
        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 12 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --scale 3 --seed 12 --out {tm_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "optimize --topo {topo_p} --traffic {tm_p} --budget tiny --seed 5 \
             --workers 1 --portfolio descent,anneal,ga,memetic --out {w1_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "optimize --topo {topo_p} --traffic {tm_p} --budget tiny --seed 5 \
             --workers 4 --portfolio descent,anneal,ga,memetic --out {w4_p}"
        )))
        .unwrap();
        let a = std::fs::read(&w1_p).unwrap();
        let b = std::fs::read(&w4_p).unwrap();
        assert_eq!(a, b, "worker count changed the saved incumbent");

        // Robust portfolio mode also runs end to end.
        run(&args(&format!(
            "optimize --robust --topo {topo_p} --traffic {tm_p} --budget tiny \
             --seed 5 --workers 2 --restarts 1 --out {w4_p}"
        )))
        .unwrap();
        let w: DualWeights = load(&w4_p).unwrap();
        assert_eq!(w.high.len(), 32);

        for p in [topo_p, tm_p, w1_p, w4_p] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn portfolio_rejects_bad_specs() {
        // All four are decided by argv alone, before t.json is opened.
        for (flags, flag) in [
            ("--workers 2 --portfolio tabu", "--portfolio"),
            ("--workers 2 --scheme ga", "--scheme"),
            ("--restarts 0", "--restarts"),
            ("--workers 2 --prune-margin -0.5", "--prune-margin"),
            ("--workers 2 --prune-margin nan", "--prune-margin"),
        ] {
            let e = run(&args(&format!(
                "optimize --topo t.json --traffic m.json {flags} --out w.json"
            )))
            .unwrap_err();
            assert!(is_usage(&e, flag), "{flags}: {e:?}");
        }
    }

    #[test]
    fn churn_replay_workflow_and_smoke_gate() {
        let topo_p = tmp("t6.json");
        let tm_p = tmp("m6.json");
        let trace_p = tmp("trace6.json");
        let out_d = tmp("replay6");

        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 6 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --scale 3 --seed 6 --out {tm_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "churn --topo {topo_p} --traffic {tm_p} --events 16 --seed 9 \
             --name wf --out {trace_p}"
        )))
        .unwrap();
        let trace: dtr_scenario::ChurnTrace = load(&trace_p).unwrap();
        assert_eq!(trace.events.len(), 16);

        // --smoke replays twice and gates on byte-identity + shapes.
        run(&args(&format!(
            "replay --trace {trace_p} --smoke --budget tiny --out {out_d}"
        )))
        .unwrap();
        let report: dtr_daemon::ReplayReport = load(&format!("{out_d}/report.json")).unwrap();
        assert_eq!(report.events, 16);
        assert!(report.batch_ok, "ratio {}", report.batch_ratio);
        let events = std::fs::read_to_string(format!("{out_d}/events.jsonl")).unwrap();
        assert_eq!(events.lines().count(), 16);
        let timing: dtr_daemon::TimingSummary = load(&format!("{out_d}/timing.json")).unwrap();
        assert_eq!(timing.events, 16);
        assert!(timing.p99_event_s >= timing.p50_event_s);
        // timing.json carries the per-kind breakdown and it tiles the
        // events exactly.
        assert!(!timing.per_kind.is_empty());
        assert_eq!(timing.per_kind.iter().map(|k| k.events).sum::<usize>(), 16);

        // A second replay of the same trace writes identical deterministic
        // artifacts (reports and reply lines, not timings).
        let out2_d = tmp("replay6b");
        run(&args(&format!(
            "replay --trace {trace_p} --budget tiny --out {out2_d}"
        )))
        .unwrap();
        assert_eq!(
            std::fs::read(format!("{out_d}/events.jsonl")).unwrap(),
            std::fs::read(format!("{out2_d}/events.jsonl")).unwrap()
        );
        assert_eq!(
            std::fs::read(format!("{out_d}/report.json")).unwrap(),
            std::fs::read(format!("{out2_d}/report.json")).unwrap()
        );

        // Without --trace and --smoke the flag is required.
        let e = run(&args("replay --budget tiny")).unwrap_err();
        assert!(is_usage(&e, "required flag --trace is missing"), "{e:?}");

        // A bursty trace replayed with coalescing over TCP: the smoke
        // gate (double replay over the same transport) must still hold,
        // events.jsonl must carry trace events + injected flushes, and
        // the report must balance coalesced acknowledgements against
        // flush batches.
        let btrace_p = tmp("trace6b.json");
        let out3_d = tmp("replay6c");
        run(&args(&format!(
            "churn --topo {topo_p} --traffic {tm_p} --events 16 --seed 11 \
             --flap-rate 0 --whatif-rate 0 --burst-rate 2.0 --burst-max 4 \
             --name wf-bursty --out {btrace_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "replay --trace {btrace_p} --smoke --budget tiny --coalesce 8 \
             --idle-steps 1 --transport tcp --out {out3_d}"
        )))
        .unwrap();
        let breport: dtr_daemon::ReplayReport = load(&format!("{out3_d}/report.json")).unwrap();
        assert_eq!(breport.events, 16);
        assert!(breport.coalesced > 0, "bursty trace never coalesced");
        assert!(breport.flushes > 0, "coalescing without flushes");
        let bevents = std::fs::read_to_string(format!("{out3_d}/events.jsonl")).unwrap();
        assert_eq!(
            bevents.lines().count() as u64,
            16 + breport.flushes,
            "one reply line per trace event plus per injected flush"
        );

        // An unknown transport is rejected up front.
        let e = run(&args(&format!(
            "replay --trace {btrace_p} --transport carrier-pigeon --out {out3_d}"
        )))
        .unwrap_err();
        assert!(is_usage(&e, "--transport"), "{e:?}");

        for p in [topo_p, tm_p, trace_p, btrace_p] {
            let _ = std::fs::remove_file(p);
        }
        for d in [out_d, out2_d, out3_d] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn replay_determinism_gate_excludes_timing() {
        use dtr_daemon::{replay_trace, DaemonCfg};
        let trace_p = format!("{}/../../traces/smoke.json", env!("CARGO_MANIFEST_DIR"));
        let trace: dtr_scenario::ChurnTrace = load(&trace_p).unwrap();
        let cfg = DaemonCfg {
            params: dtr_core::SearchParams::preset("tiny").unwrap(),
            ..Default::default()
        };
        let out = replay_trace(&trace, cfg, None);

        // Inject a timing difference an order of magnitude beyond run-to-
        // run noise — and scramble the per-kind labels that feed the
        // timing.json breakdown: the gate must not care, because
        // timing.json is wall-clock and outside REPLAY_GATED_FILES.
        let twin = dtr_daemon::ReplayOutcome {
            lines: out.lines.clone(),
            per_event_s: out.per_event_s.iter().map(|s| s * 100.0 + 1.0).collect(),
            per_event_kind: out.per_event_kind.iter().rev().cloned().collect(),
            report: out.report.clone(),
        };
        check_replay_determinism(&out, &twin).unwrap();

        // A report difference trips the gate and names report.json.
        let mut bad_report = dtr_daemon::ReplayOutcome {
            lines: out.lines.clone(),
            per_event_s: out.per_event_s.clone(),
            per_event_kind: out.per_event_kind.clone(),
            report: out.report.clone(),
        };
        bad_report.report.accepted += 1;
        let err = check_replay_determinism(&out, &bad_report).unwrap_err();
        assert!(
            matches!(&err, CliError::Gate(m) if m.contains("report.json")),
            "{err:?}"
        );

        // A reply difference trips the gate with the diverging event.
        let mut bad_lines = dtr_daemon::ReplayOutcome {
            lines: out.lines.clone(),
            per_event_s: out.per_event_s.clone(),
            per_event_kind: out.per_event_kind.clone(),
            report: out.report.clone(),
        };
        bad_lines.lines[1].push('x');
        let err = check_replay_determinism(&out, &bad_lines).unwrap_err();
        assert!(
            matches!(&err, CliError::Gate(m) if m.contains("events.jsonl") && m.contains("event 1")),
            "{err:?}"
        );
    }

    #[test]
    fn replay_smoke_runs_the_checked_in_trace() {
        // CI runs `dtrctl replay --smoke` from the repo root; tests run
        // with cwd = crates/cli, so point at the same file explicitly.
        let trace_p = format!("{}/../../traces/smoke.json", env!("CARGO_MANIFEST_DIR"));
        let out_d = tmp("replay-smoke");
        run(&args(&format!(
            "replay --trace {trace_p} --smoke --out {out_d}"
        )))
        .unwrap();
        let report: dtr_daemon::ReplayReport = load(&format!("{out_d}/report.json")).unwrap();
        assert_eq!(report.name, "smoke");
        assert!(report.batch_ok);
        let _ = std::fs::remove_dir_all(out_d);
    }

    #[test]
    fn new_topology_kinds_generate() {
        for spec in [
            "topo waxman --nodes 12 --links 48 --seed 2",
            "topo hierarchical --core 4 --chords 1 --edge-per-core 2",
            "topo grid --rows 3 --cols 4",
            "topo grid --rows 3 --cols 4 --torus true",
            "topo fattree --pods 4",
            "topo vl2 --da 4 --di 6",
            "topo jellyfish --switches 12 --degree 3 --seed 2",
            "topo xpander --degree 3 --lifts 2 --seed 2",
        ] {
            run(&args(spec)).unwrap();
        }
    }

    #[test]
    fn new_optimize_schemes_run() {
        let topo_p = tmp("t4.json");
        let tm_p = tmp("m4.json");
        let w_p = tmp("w4.json");
        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 5 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --seed 5 --out {tm_p}"
        )))
        .unwrap();
        for scheme in ["memetic", "anneal-str", "anneal-dtr"] {
            run(&args(&format!(
                "optimize --topo {topo_p} --traffic {tm_p} --scheme {scheme} --budget tiny --out {w_p}"
            )))
            .unwrap();
        }
        let w: DualWeights = load(&w_p).unwrap();
        assert_eq!(w.high.len(), 32);
        for p in [topo_p, tm_p, w_p] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn suite_smoke_runs_a_corpus_directory() {
        let dir = std::path::PathBuf::from(tmp("corpus"));
        let out = std::path::PathBuf::from(tmp("suite-out"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("mini.json"),
            r#"{
                "name": "mini",
                "smoke": true,
                "topology": { "Random": { "nodes": 8, "links": 32, "seed": 3 } },
                "traffic": { "family": "Gravity", "scale": 3.0, "seed": 3 },
                "failures": "AllSingleDuplex",
                "search": { "budget": "tiny", "seed": 5 }
            }"#,
        )
        .unwrap();
        run(&args(&format!(
            "suite --corpus {} --out {} --smoke",
            dir.display(),
            out.display()
        )))
        .unwrap();
        // A filter matching nothing is a clean error, not a panic.
        let e = run(&args(&format!(
            "suite --corpus {} --out {} --only zzz",
            dir.display(),
            out.display()
        )))
        .unwrap_err();
        assert!(is_input(&e, "--only"), "{e:?}");
        assert!(out.join("mini.json").is_file());
        let summary = std::fs::read_to_string(out.join("summary.json")).unwrap();
        assert!(summary.contains("\"mini\""), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn suite_rejects_missing_corpus() {
        let e = run(&args("suite --corpus /nonexistent-dtr-corpus")).unwrap_err();
        assert!(is_input(&e, "/nonexistent-dtr-corpus"), "{e:?}");
    }

    /// Writes a two-instance corpus into a fresh temp directory.
    fn tiny_corpus(tag: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(tmp(tag));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, seed) in [("alpha-one", 3), ("beta-two", 4)] {
            std::fs::write(
                dir.join(format!("{name}.json")),
                format!(
                    r#"{{
                        "name": "{name}",
                        "smoke": true,
                        "topology": {{ "Random": {{ "nodes": 8, "links": 32, "seed": {seed} }} }},
                        "traffic": {{ "family": "Gravity", "scale": 3.0, "seed": {seed} }},
                        "search": {{ "budget": "tiny", "seed": {seed} }}
                    }}"#
                ),
            )
            .unwrap();
        }
        dir
    }

    #[test]
    fn suite_only_accepts_a_comma_separated_list() {
        let dir = tiny_corpus("corpus-only");
        let out = std::path::PathBuf::from(tmp("suite-only-out"));
        let _ = std::fs::remove_dir_all(&out);
        // Both names listed → both instances run.
        run(&args(&format!(
            "suite --corpus {} --out {} --only alpha-one,beta-two",
            dir.display(),
            out.display()
        )))
        .unwrap();
        assert!(out.join("alpha-one.json").is_file());
        assert!(out.join("beta-two.json").is_file());
        // One name (with a harmless trailing comma) → one instance.
        let _ = std::fs::remove_dir_all(&out);
        run(&args(&format!(
            "suite --corpus {} --out {} --only beta,",
            dir.display(),
            out.display()
        )))
        .unwrap();
        assert!(!out.join("alpha-one.json").exists());
        assert!(out.join("beta-two.json").is_file());
        // A list matching nothing is a clean error.
        let e = run(&args(&format!(
            "suite --corpus {} --out {} --only zzz,yyy",
            dir.display(),
            out.display()
        )))
        .unwrap_err();
        assert!(is_input(&e, "--only"), "{e:?}");
        // A list that matches only partially is a hard error too: the
        // unmatched needle used to be dropped silently. The diagnostic
        // names the bad needle and lists what is available.
        let _ = std::fs::remove_dir_all(&out);
        let e = run(&args(&format!(
            "suite --corpus {} --out {} --only alpha-one,zzz",
            dir.display(),
            out.display()
        )))
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("zzz"), "{msg}");
        assert!(
            msg.contains("alpha-one") && msg.contains("beta-two"),
            "{msg}"
        );
        assert!(
            !out.join("alpha-one.json").exists(),
            "a rejected selection must not run anything"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn validate_smoke_runs_and_writes_summary() {
        let dir = tiny_corpus("corpus-validate");
        let out = std::path::PathBuf::from(tmp("validate-out"));
        let _ = std::fs::remove_dir_all(&out);
        // The validate command reuses the suite's comma-list filter.
        run(&args(&format!(
            "validate --corpus {} --out {} --smoke --only alpha --des-packets 30000",
            dir.display(),
            out.display()
        )))
        .unwrap();
        assert!(out.join("alpha-one.json").is_file());
        assert!(!out.join("beta-two.json").exists());
        let summary = std::fs::read_to_string(out.join("validation_summary.json")).unwrap();
        assert!(summary.contains("\"fluid_ok\": true"), "{summary}");
        assert!(summary.contains("\"isolation_ok\": true"), "{summary}");
        // A filter matching nothing is a clean error, not a panic —
        // even when another needle in the same list does match.
        for only in ["zzz", "alpha,zzz"] {
            let e = run(&args(&format!(
                "validate --corpus {} --out {} --only {only}",
                dir.display(),
                out.display()
            )))
            .unwrap_err();
            assert!(is_input(&e, "--only"), "{e:?}");
            assert!(e.to_string().contains("zzz"), "{e}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn unknown_command_and_variant_errors() {
        let e = run(&args("frobnicate")).unwrap_err();
        assert!(is_usage(&e, "unknown command \"frobnicate\""), "{e:?}");
        let e = run(&args("topo hypercube")).unwrap_err();
        assert!(is_usage(&e, "\"hypercube\""), "{e:?}");
    }

    #[test]
    fn missing_required_flag_error() {
        let e = run(&args("traffic --f 0.3")).unwrap_err();
        assert!(is_usage(&e, "required flag --topo is missing"), "{e:?}");
    }

    #[test]
    fn help_runs() {
        run(&args("help")).unwrap();
        run(&args("--help")).unwrap();
        assert!(help().contains("optimize"));
    }

    #[test]
    fn two_class_commands_reject_k_class_objectives_with_a_pointer() {
        // The parser accepts --classes 3, but optimize/evaluate/reopt
        // read two-class matrices: the error must name the corpus
        // pipelines that do support k-class specs.
        let e = objective(&suite("--objective sla --classes 3").unwrap()).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("suite/validate"), "{msg}");
        assert!(msg.contains("sla:25ms,sla:25ms,load"), "{msg}");
        // Contradictory flag pairs surface the args-layer conflicts.
        let e = objective(&suite("--objective load --sla-bound-ms 10").unwrap()).unwrap_err();
        assert!(e.0.starts_with("conflicting flags"), "{e}");
        // The inline-bound spelling reaches the legacy enum unchanged.
        match objective(&suite("--objective sla:40").unwrap()).unwrap() {
            Objective::SlaBased(p) => assert!((p.bound_s - 0.040).abs() < 1e-12),
            other => panic!("expected SlaBased, got {other:?}"),
        }
    }

    fn spec(flags: &str) -> Result<ObjectiveSpec, ArgError> {
        objective_spec(&suite(flags)?)
    }

    #[test]
    fn objective_flags_build_the_expected_specs() {
        assert_eq!(spec("").unwrap(), ObjectiveSpec::two_class_load());
        assert_eq!(spec("--classes 3").unwrap(), ObjectiveSpec::load(3));
        // The three bound spellings agree.
        let sla25 = spec("--objective sla").unwrap();
        assert_eq!(spec("--objective sla:25").unwrap(), sla25);
        assert_eq!(spec("--objective sla --sla-bound-ms 25").unwrap(), sla25);
        assert_eq!(sla25.summary(), "sla:25ms,load");
        // k-class SLA: uniform tiers over a load base.
        let four = spec("--objective sla:40 --classes 4").unwrap();
        assert_eq!(four.summary(), "sla:40ms,sla:40ms,sla:40ms,load");
        // Every class count the flag's range admits is one the spec
        // layer validates.
        for k in ["2", "8"] {
            spec(&format!("--objective sla --classes {k}"))
                .unwrap()
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn contradictory_objective_combos_are_rejected() {
        // Bound under the load objective, in either spelling.
        let e = spec("--objective load --sla-bound-ms 10").unwrap_err();
        assert!(e.0.starts_with("conflicting flags"), "{e}");
        // Bound given twice.
        let e = spec("--objective sla:30 --sla-bound-ms 10").unwrap_err();
        assert!(
            e.0.starts_with("conflicting flags") && e.0.contains("twice"),
            "{e}"
        );
        // Unknown modes, malformed bounds and class counts outside the
        // spec layer's range never leave `Args::parse`.
        for (combo, flag) in [
            ("--objective load:10", "--objective"),
            ("--objective latency", "--objective"),
            ("--objective sla:abc", "--objective"),
            ("--objective sla:-3", "--objective"),
            ("--sla-bound-ms 0", "--sla-bound-ms"),
            ("--classes 1", "--classes"),
            ("--classes 9", "--classes"),
        ] {
            let e = spec(combo).unwrap_err();
            let start = format!("invalid value for {flag}: ");
            assert!(e.0.starts_with(&start), "{combo}: {e}");
        }
    }

    #[test]
    fn objective_override_rejects_incompatible_instances_by_name() {
        // vl2-hotspot is not gravity-family, so a 3-class override must
        // fail fast and name the instance.
        let corpus = format!("{}/../../corpus", env!("CARGO_MANIFEST_DIR"));
        let out = tmp("suite-override-err");
        let e = run(&args(&format!(
            "suite --corpus {corpus} --smoke --only vl2 --classes 3 --out {out}"
        )))
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("vl2-hotspot"), "{msg}");
        assert!(msg.contains("--only"), "{msg}");
    }

    #[test]
    fn replay_rejects_doctored_traces_with_the_event_index() {
        use dtr_scenario::{generate_churn, ChurnAction, ChurnCfg};
        let topo = dtr_graph::gen::random_topology(&dtr_graph::gen::RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
            seed: 6,
        });
        let base = dtr_traffic::DemandSet::generate(
            &topo,
            &dtr_traffic::TrafficCfg {
                seed: 6,
                ..Default::default()
            },
        );
        let mut trace = generate_churn(
            "doctored",
            &topo,
            &base,
            &ChurnCfg {
                events: 8,
                seed: 2,
                ..Default::default()
            },
        );
        // Hand-edit event 5 to name a link the topology does not have —
        // this used to panic inside the daemon; now it is a clean error
        // naming the event.
        trace.events[5].action = ChurnAction::WhatIfLinkDown { link: 9999 };
        let trace_p = tmp("doctored-trace.json");
        std::fs::write(&trace_p, serde_json::to_string(&trace).unwrap()).unwrap();
        let e = run(&args(&format!(
            "replay --trace {trace_p} --budget tiny --out /tmp/replay-doctored"
        )))
        .unwrap_err();
        assert!(is_input(&e, &format!("{trace_p}: ")), "{e:?}");
        let msg = e.to_string();
        assert!(msg.contains("event 5"), "{msg}");
        assert!(msg.contains("9999"), "{msg}");
        let _ = std::fs::remove_file(&trace_p);
    }

    #[test]
    fn replay_rejects_sla_on_traces_with_link_events() {
        // The checked-in smoke trace contains link flaps; an SLA replay
        // would only collect protocol errors, so the combo is rejected
        // with the regeneration hint.
        let trace_p = format!("{}/../../traces/smoke.json", env!("CARGO_MANIFEST_DIR"));
        let e = run(&args(&format!(
            "replay --trace {trace_p} --objective sla --out /tmp/replay-sla-err"
        )))
        .unwrap_err();
        assert!(is_input(&e, "--objective sla"), "{e:?}");
        let msg = e.to_string();
        assert!(msg.contains("link-failure events"), "{msg}");
        assert!(msg.contains("--flap-rate 0"), "{msg}");
        assert!(!msg.starts_with("unknown"), "{msg}");
    }

    #[test]
    fn reopt_rejects_weights_that_do_not_fit_with_a_typed_error() {
        // Both used to die in `ReoptSearch::new`'s assertions (exit 101
        // and a backtrace); now they are exit-1 errors naming the file.
        let f = robust_fixture("reopt-fit");
        let [topo_p, tm_p, w_p, small_p, small_tm_p, out_p] = &f;
        let reopt = |topo: &str, tm: &str, scheme: &str| {
            run(&args(&format!(
                "reopt --topo {topo} --traffic {tm} --weights {w_p} --changes 2 \
                 --scheme {scheme} --budget tiny --out {out_p}"
            )))
        };
        // A DTR optimum has diverged vectors: not an STR incumbent.
        let e = reopt(topo_p, tm_p, "str").unwrap_err();
        assert!(is_input(&e, w_p) && is_input(&e, "--scheme str"), "{e:?}");
        // 32 weights do not fit a 24-link topology.
        assert_misfit(reopt(small_p, small_tm_p, "dtr").unwrap_err(), w_p, 24);
        // The fitting combination still runs.
        reopt(topo_p, tm_p, "dtr").unwrap();
        // The commands that only route on the weights index them by link
        // id: a short file used to run off the end of a slice (exit 101),
        // a long one was read as if it fitted and answered (exit 0).
        let short_p = tmp("w-small-reopt-fit.json");
        run(&args(&format!(
            "optimize --topo {small_p} --traffic {small_tm_p} --budget tiny --out {short_p}"
        )))
        .unwrap();
        for (topo, tm, w, links) in [(topo_p, tm_p, &short_p, 32), (small_p, small_tm_p, w_p, 24)] {
            for cmd in [
                format!("evaluate --topo {topo} --traffic {tm}"),
                format!("simulate --topo {topo} --traffic {tm} --duration 0.01"),
                format!("deploy --topo {topo}"),
            ] {
                let e = run(&args(&format!("{cmd} --weights {w}"))).unwrap_err();
                assert_misfit(e, w, links);
            }
        }
        for window in [
            "--duration 0",
            "--duration nan",
            "--warmup -1",
            "--warmup inf",
        ] {
            let e = run(&args(&format!(
                "simulate --topo {topo_p} --traffic {tm_p} --weights {w_p} {window}"
            )))
            .unwrap_err();
            let flag = window.split(' ').next().unwrap();
            assert!(is_usage(&e, flag), "{e:?}");
        }
        for p in f.iter().chain([&short_p]) {
            let _ = std::fs::remove_file(p);
        }
    }

    /// An 8-node instance with a DTR optimum for it, plus a 6-node
    /// instance those 32 weights do not fit:
    /// `[topo, traffic, weights, small topo, small traffic, out]`.
    fn robust_fixture(tag: &str) -> [String; 6] {
        let f =
            ["t", "m", "w", "t-small", "m-small", "out"].map(|n| tmp(&format!("{n}-{tag}.json")));
        for (t, m, nodes) in [(&f[0], &f[1], 8), (&f[3], &f[4], 6)] {
            run(&args(&format!(
                "topo random --nodes {nodes} --links {} --seed 1 --out {t}",
                nodes * 4
            )))
            .unwrap();
            run(&args(&format!("traffic --topo {t} --seed 1 --out {m}"))).unwrap();
        }
        run(&args(&format!(
            "optimize --topo {} --traffic {} --scheme dtr --budget tiny --out {}",
            f[0], f[1], f[2]
        )))
        .unwrap();
        f
    }

    fn assert_misfit(e: CliError, w_p: &str, links: usize) {
        let links = format!("{links} directed links");
        assert!(is_input(&e, w_p) && is_input(&e, &links), "{e:?}");
    }

    #[test]
    fn robust_rejects_weights_that_do_not_fit_with_a_typed_error() {
        // Used to die in `RobustSearch::with_initial`'s assertions (exit
        // 101 and a backtrace); now an exit-1 error naming the file.
        let f = robust_fixture("rob-fit");
        let [topo_p, tm_p, w_p, small_p, small_tm_p, out_p] = &f;
        let robust = |topo: &str, tm: &str, scheme: &str| {
            run(&args(&format!(
                "robust --topo {topo} --traffic {tm} --weights {w_p} --scheme {scheme} \
                 --cap 3 --budget tiny --out {out_p}"
            )))
        };
        assert_misfit(robust(small_p, small_tm_p, "dtr").unwrap_err(), w_p, 24);
        // A DTR optimum has diverged vectors: not an STR warm start.
        let e = robust(topo_p, tm_p, "str").unwrap_err();
        assert!(is_input(&e, w_p), "{e:?}");
        // The fitting combination still runs.
        robust(topo_p, tm_p, "dtr").unwrap();
        for p in &f {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn robust_portfolio_rejects_weights_that_do_not_fit_with_a_typed_error() {
        // Used to die in `PortfolioSearch::with_initial` (exit 101).
        let f = robust_fixture("robp-fit");
        let [_, _, w_p, small_p, small_tm_p, out_p] = &f;
        let e = run(&args(&format!(
            "optimize --robust --portfolio descent --topo {small_p} --traffic {small_tm_p} \
             --weights {w_p} --budget tiny --out {out_p}"
        )))
        .unwrap_err();
        assert_misfit(e, w_p, 24);
        for p in &f {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn robust_rejects_a_beta_outside_the_unit_interval() {
        // Used to die in `RobustEvaluator`'s "β must be in [0,1]".
        let f = robust_fixture("rob-beta");
        let [topo_p, tm_p, _, _, _, out_p] = &f;
        let e = run(&args(&format!(
            "robust --topo {topo_p} --traffic {tm_p} --beta 2 --budget tiny --out {out_p}"
        )))
        .unwrap_err();
        assert!(is_usage(&e, "invalid value for --beta: 2"), "{e:?}");
        for p in &f {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn str_and_ga_schemes_produce_replicated_weights() {
        let topo_p = tmp("t2.json");
        let tm_p = tmp("m2.json");
        let w_p = tmp("w2.json");
        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 4 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --seed 4 --out {tm_p}"
        )))
        .unwrap();
        for scheme in ["str", "ga"] {
            run(&args(&format!(
                "optimize --topo {topo_p} --traffic {tm_p} --scheme {scheme} --budget tiny --out {w_p}"
            )))
            .unwrap();
            let w: DualWeights = load(&w_p).unwrap();
            assert_eq!(w.high, w.low, "{scheme} must replicate");
        }
        for p in [topo_p, tm_p, w_p] {
            let _ = std::fs::remove_file(p);
        }
    }
}
