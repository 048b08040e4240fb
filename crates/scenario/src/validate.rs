//! Corpus-scale sim-vs-analytic differential validation.
//!
//! Every optimizer result the suite reports rests on two modeling
//! assumptions the paper never simulates: the **even-split ECMP load
//! model** behind Φ and the **priority-queueing delay model** behind
//! Eq. 3. This module checks both on every corpus instance, against the
//! instance's *own incumbents* (the weight settings the suite's STR and
//! DTR searches actually produce), through three independent pipelines:
//!
//! - **analytic** — `dtr_routing::Evaluator::eval_dual`: the objective
//!   the searches optimized;
//! - **fluid** — [`dtr_sim::FluidSim`]: the same DAG routing executed by
//!   the shared pushing primitive, plus closed-form priority-queue
//!   delays. Loads must agree with the analytic evaluator to
//!   [`FLUID_LOAD_TOL`] — same DAGs, same arithmetic, so disagreement
//!   means a routing bug, not a modeling gap;
//! - **DES** — a budgeted [`dtr_sim::DesBackend`] packet run, seeded
//!   deterministically from the manifest's search seed via
//!   `derive_stream_seed`, gated by the documented accuracy envelope
//!   ([`DES_LOAD_ENVELOPE`], [`DES_DELAY_ENVELOPE`]): the stochastic
//!   packet world must reproduce the fluid predictions within sampling
//!   and independence-approximation error.
//!
//! On top of the agreement checks, the DES run is scanned for
//! **priority-isolation violations** — links where the high class
//! measurably waits longer than the low class, which the §3 strict
//! non-preemptive discipline forbids in steady state.
//!
//! [`run_validation`] is one schedule on the rayon pool: a map over
//! every selected instance's suite searches, then a map over every
//! `(instance, scheme)` incumbent's fluid and DES runs, folded in corpus
//! order. [`validate_instance`] is the same schedule over one instance.
//!
//! Reports carry no wall-clock fields, every aggregation iterates
//! sorted structures and every task seeds its own DES stream, so a
//! validation run is **byte-identical** given the same corpus, on any
//! number of threads — `tests/validation.rs` and
//! `thread_count_never_changes_a_report_or_an_error` assert it.

use crate::spec::ScenarioSpec;
use crate::suite::{demand_pair, dual_weights, search_incumbents, SearchedInstance, SuiteCfg};
use dtr_core::{derive_stream_seed, streams, Objective};
use dtr_graph::{Topology, WeightVector};
use dtr_multi::MultiDemand;
use dtr_routing::{ClassLoads, DeploymentSet, Evaluator, LoadCalculator};
use dtr_sim::{BackendReport, DesBackend, FluidSim, ForwardingState};
use dtr_traffic::TrafficMatrix;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Fluid loads must match the analytic evaluator's to this relative
/// tolerance. They are computed by the same primitive over the same
/// DAGs, so the expected error is exactly zero; the tolerance only
/// absorbs hypothetical future refactors that reorder float sums.
pub const FLUID_LOAD_TOL: f64 = 1e-9;

/// DES per-link class loads must match the analytic loads within this
/// relative envelope **on globally stable schemes** (no link at or
/// beyond [`HOT_UTIL`]): when any link saturates, carried load differs
/// from offered load *everywhere downstream* — the queueing model being
/// right, not the load model being wrong — so saturated schemes report
/// the error as telemetry without gating it. On stable schemes the gap
/// is Poisson sampling noise at the packet budget (measured ≤ ~0.09 at
/// 250k packets, gated with margin).
pub const DES_LOAD_ENVELOPE: f64 = 0.25;

/// DES flow-weighted mean per-class delay must match the fluid
/// closed-form prediction within this relative envelope, over pairs
/// whose expected path stays below [`HOT_UTIL`] (steady-state delays at
/// a near-saturated link diverge while any finite measurement window
/// stays finite — incomparable by construction). The residual gap is
/// the Kleinrock-independence approximation (packets keep their size
/// across hops; downstream arrivals are not Poisson) plus sampling
/// noise — measured ≤ ~0.09 across the 12-instance corpus at 250k
/// packets, gated with margin. Applies to **globally stable** schemes;
/// saturated schemes are gated at [`DES_DELAY_ENVELOPE_SATURATED`].
pub const DES_DELAY_ENVELOPE: f64 = 0.25;

/// The delay envelope for schemes with saturated links. The hot-pair
/// exclusion removes pairs *crossing* a near-saturated link, but pairs
/// that merely *share* downstream links with throttled traffic see less
/// competition in the DES than the fluid model's offered-load
/// predictions assume — a bounded, systematic undershoot that is the
/// saturation policy working, not a model error. Every scheme stays
/// gated corpus-wide; saturated ones just get the headroom the
/// starvation bias needs.
pub const DES_DELAY_ENVELOPE_SATURATED: f64 = 0.5;

/// Total-utilization threshold above which a link (for the load check)
/// or a pair's path (for the delay check) leaves the comparable region.
/// Matches the fluid backend's default `hot_util`.
pub const HOT_UTIL: f64 = 0.95;

/// Links whose analytic class load is below this fraction of the
/// instance's largest class-link load are excluded from the DES load
/// comparison: a link carrying 0.1% of the traffic sees too few packets
/// for a relative error to mean anything.
pub fn load_floor(max_load: f64) -> f64 {
    0.02 * max_load
}

/// Isolation scan: both classes need at least this many wait samples on
/// a link before an inversion there counts.
const ISOLATION_MIN_SAMPLES: u64 = 500;

/// Minimum DES wait samples a (class, link) needs before its relative
/// load error enters the k ≥ 3 comparison: a thin class's links can
/// clear the 2% floor on a handful of packets, where a relative error
/// is pure sampling noise.
const DES_LOAD_MIN_SAMPLES: u64 = 500;

/// How the validation harness should run.
#[derive(Debug, Clone, Default)]
pub struct ValidateCfg {
    /// CI mode: only smoke-tagged instances at the tiny search budget.
    pub smoke: bool,
    /// Comma-separated instance-name filter (same semantics as
    /// `dtrctl suite --only`).
    pub only: Option<String>,
    /// DES packet budget per run; 0 (the default) picks 60k packets in
    /// smoke mode, 250k otherwise.
    pub des_packets: u64,
}

impl ValidateCfg {
    /// The effective DES packet budget.
    pub fn packets(&self) -> u64 {
        match self.des_packets {
            0 if self.smoke => 60_000,
            0 => 250_000,
            n => n,
        }
    }

    /// The equivalent suite selection config.
    pub fn suite_cfg(&self) -> SuiteCfg {
        SuiteCfg {
            smoke: self.smoke,
            only: self.only.clone(),
        }
    }
}

/// Three-way agreement numbers for one traffic class of one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassAgreement {
    /// Max relative per-link load error, fluid vs analytic.
    pub fluid_load_rel_err: f64,
    /// Max relative per-link load error, DES vs analytic, over links
    /// above the load floor.
    pub des_load_rel_err: f64,
    /// Fluid flow-weighted mean end-to-end delay (seconds) over the
    /// compared pair set; `None` when no pair qualifies.
    pub fluid_mean_delay_s: Option<f64>,
    /// DES flow-weighted mean end-to-end delay over the same pairs.
    pub des_mean_delay_s: Option<f64>,
    /// `|des − fluid| / fluid` of the mean delays.
    pub mean_delay_rel_err: Option<f64>,
    /// Pairs entering the delay comparison (finite fluid prediction,
    /// path below [`HOT_UTIL`], AND measured by the DES).
    pub pairs_compared: usize,
    /// Pairs excluded from the delay comparison because their expected
    /// path crosses a saturated or near-saturated link (fluid delay
    /// infinite or flagged hot).
    pub pairs_saturated: usize,
}

/// One scheme's (STR baseline or DTR) validation outcome on one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeValidation {
    /// `"baseline"` or `"dtr"`.
    pub scheme: String,
    /// Max link utilization under the analytic load model.
    pub max_util: f64,
    /// Links at or beyond [`HOT_UTIL`] total utilization under the
    /// analytic loads (excluded from the DES comparisons).
    pub saturated_links: usize,
    /// The derived DES seed (deterministic in the manifest seed).
    pub des_seed: u64,
    /// Packets the DES actually generated.
    pub des_packets: u64,
    /// Links where the DES measured the high class waiting longer than
    /// the low class (beyond noise slack) — must be zero.
    pub isolation_violations: usize,
    /// High-class agreement.
    pub high: ClassAgreement,
    /// Low-class agreement.
    pub low: ClassAgreement,
}

/// One corpus instance's validation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Instance name (the manifest's).
    pub name: String,
    /// Topology family.
    pub topology: String,
    /// Node count.
    pub nodes: usize,
    /// Directed link count.
    pub links: usize,
    /// Search budget the incumbents were produced at.
    pub budget: String,
    /// STR baseline incumbent's validation.
    pub baseline: SchemeValidation,
    /// DTR incumbent's validation.
    pub dtr: SchemeValidation,
}

impl ValidationReport {
    /// Both schemes, labeled.
    pub fn schemes(&self) -> [&SchemeValidation; 2] {
        [&self.baseline, &self.dtr]
    }
}

/// Aggregate over one validation run, plus the gate verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationSummary {
    /// Instances validated, in corpus order.
    pub names: Vec<String>,
    /// Whether this was a smoke run.
    pub smoke: bool,
    /// The DES packet budget used.
    pub des_packets: u64,
    /// Worst fluid-vs-analytic load error across the corpus.
    pub max_fluid_load_rel_err: f64,
    /// Worst DES-vs-analytic load error across the corpus (stable links
    /// of every scheme — telemetry; saturated schemes undershoot
    /// offered loads by construction).
    pub max_des_load_rel_err: f64,
    /// Worst DES-vs-analytic load error over **globally stable**
    /// schemes only — the gated number.
    pub max_stable_des_load_rel_err: f64,
    /// Schemes with no saturated link (the load-gate population).
    pub stable_schemes: usize,
    /// Worst DES-vs-fluid mean-delay error across the corpus (every
    /// scheme; saturated ones gated at the looser envelope).
    pub max_mean_delay_rel_err: f64,
    /// Worst DES-vs-fluid mean-delay error over globally stable
    /// schemes — gated at the tight [`DES_DELAY_ENVELOPE`].
    pub max_stable_mean_delay_rel_err: f64,
    /// Total isolation violations (must be 0).
    pub isolation_violations: usize,
    /// `max_fluid_load_rel_err ≤` [`FLUID_LOAD_TOL`].
    pub fluid_ok: bool,
    /// Load and delay envelopes both hold corpus-wide.
    pub des_ok: bool,
    /// No isolation violations anywhere.
    pub isolation_ok: bool,
    /// The envelopes the verdicts were gated against.
    pub envelope: EnvelopeSpec,
}

impl ValidationSummary {
    /// All three gates green.
    pub fn all_ok(&self) -> bool {
        self.fluid_ok && self.des_ok && self.isolation_ok
    }
}

/// The gate tolerances, embedded in the summary so an archived artifact
/// is self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvelopeSpec {
    /// [`FLUID_LOAD_TOL`].
    pub fluid_load_tol: f64,
    /// [`DES_LOAD_ENVELOPE`].
    pub des_load: f64,
    /// [`DES_DELAY_ENVELOPE`].
    pub des_delay: f64,
    /// [`DES_DELAY_ENVELOPE_SATURATED`].
    pub des_delay_saturated: f64,
}

impl Default for EnvelopeSpec {
    fn default() -> Self {
        EnvelopeSpec {
            fluid_load_tol: FLUID_LOAD_TOL,
            des_load: DES_LOAD_ENVELOPE,
            des_delay: DES_DELAY_ENVELOPE,
            des_delay_saturated: DES_DELAY_ENVELOPE_SATURATED,
        }
    }
}

/// An incumbent the harness cannot validate: under its partial
/// deployment a cross-topology forwarding loop traps demand, and
/// trapped demand has no steady state to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct TrappedDemand {
    /// Instance name (the manifest's).
    pub instance: String,
    /// `"baseline"` or `"dtr"`.
    pub scheme: String,
    /// Low-class volume that never reaches its destination.
    pub undeliverable_mbps: f64,
}

impl fmt::Display for TrappedDemand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: incumbent traps {} Mbit/s under the partial deployment \
             (cross-topology forwarding loop); nothing to simulate",
            self.instance, self.scheme, self.undeliverable_mbps
        )
    }
}

impl std::error::Error for TrappedDemand {}

/// Compares one priority class's loads and delays across the three
/// pipelines. `link_stable[l]` marks links below [`HOT_UTIL`] total
/// utilization — the region where the DES can be expected to reproduce
/// the offered loads and steady-state delays. A (class, link) enters
/// the DES load comparison only with at least `des_load_min_samples`
/// wait samples.
fn class_agreement(
    c: usize,
    analytic_loads: &[f64],
    link_stable: &[bool],
    fluid: &BackendReport,
    des: &BackendReport,
    matrix: &TrafficMatrix,
    des_load_min_samples: u64,
) -> ClassAgreement {
    // Fluid vs analytic: every link, relative to the analytic load
    // (zero-load links must be zero in both).
    let mut fluid_err = 0.0f64;
    for (a, f) in analytic_loads.iter().zip(&fluid.class_loads[c]) {
        let err = if *a == 0.0 && *f == 0.0 {
            0.0
        } else {
            (f - a).abs() / a.abs().max(1e-12)
        };
        fluid_err = fluid_err.max(err);
    }
    // DES vs analytic: stable, sufficiently sampled links above the floor.
    let max_load = analytic_loads.iter().cloned().fold(0.0, f64::max);
    let floor = load_floor(max_load);
    let mut des_err = 0.0f64;
    for (i, (a, d)) in analytic_loads.iter().zip(&des.class_loads[c]).enumerate() {
        if *a >= floor
            && floor > 0.0
            && link_stable[i]
            && des.link_wait_samples[c][i] >= des_load_min_samples
        {
            des_err = des_err.max((d - a).abs() / a);
        }
    }
    // Delays: flow-weighted means over the common pair set (finite,
    // non-hot fluid prediction AND DES measured). Iterates the fluid
    // report's sorted map, so the accumulation order is deterministic.
    let (mut fluid_sum, mut des_sum, mut vol) = (0.0, 0.0, 0.0);
    let (mut compared, mut saturated) = (0usize, 0usize);
    for (key, &fd) in &fluid.pair_delays {
        if key.class as usize != c {
            continue;
        }
        if !fd.is_finite() || fluid.hot_pairs.contains(key) {
            saturated += 1;
            continue;
        }
        let Some(&dd) = des.pair_delays.get(key) else {
            continue;
        };
        let v = matrix.get(key.src as usize, key.dst as usize);
        if v <= 0.0 {
            continue;
        }
        fluid_sum += fd * v;
        des_sum += dd * v;
        vol += v;
        compared += 1;
    }
    let (fluid_mean, des_mean, rel) = if vol > 0.0 {
        let fm = fluid_sum / vol;
        let dm = des_sum / vol;
        (Some(fm), Some(dm), Some((dm - fm).abs() / fm))
    } else {
        (None, None, None)
    };
    ClassAgreement {
        fluid_load_rel_err: fluid_err,
        des_load_rel_err: des_err,
        fluid_mean_delay_s: fluid_mean,
        des_mean_delay_s: des_mean,
        mean_delay_rel_err: rel,
        pairs_compared: compared,
        pairs_saturated: saturated,
    }
}

/// Folds the agreements of classes `1..k` into the report's `low` slot:
/// worst-case load errors, summed pair counts, and the delay means of
/// the class with the worst delay error (so the reported means and the
/// reported error describe the same class). One class folds to itself.
fn fold_lower_classes(classes: &[ClassAgreement]) -> ClassAgreement {
    let mut out = ClassAgreement {
        fluid_load_rel_err: 0.0,
        des_load_rel_err: 0.0,
        fluid_mean_delay_s: None,
        des_mean_delay_s: None,
        mean_delay_rel_err: None,
        pairs_compared: 0,
        pairs_saturated: 0,
    };
    for c in classes {
        out.fluid_load_rel_err = out.fluid_load_rel_err.max(c.fluid_load_rel_err);
        out.des_load_rel_err = out.des_load_rel_err.max(c.des_load_rel_err);
        out.pairs_compared += c.pairs_compared;
        out.pairs_saturated += c.pairs_saturated;
        if let Some(e) = c.mean_delay_rel_err {
            if out.mean_delay_rel_err.is_none_or(|b| e > b) {
                out.mean_delay_rel_err = Some(e);
                out.fluid_mean_delay_s = c.fluid_mean_delay_s;
                out.des_mean_delay_s = c.des_mean_delay_s;
            }
        }
    }
    out
}

/// Scans a DES report for priority inversions across every adjacent
/// class pair: links where, with enough samples of both classes, the
/// higher class's mean wait exceeds that of the class right below it by
/// more than noise slack — which strict priority forbids.
fn isolation_violations(des: &BackendReport) -> usize {
    let k = des.classes();
    let n = des.class_loads[0].len();
    let mut violations = 0;
    for c in 0..k - 1 {
        for i in 0..n {
            let (nh, nl) = (des.link_wait_samples[c][i], des.link_wait_samples[c + 1][i]);
            if nh < ISOLATION_MIN_SAMPLES || nl < ISOLATION_MIN_SAMPLES {
                continue;
            }
            if des.link_wait_s[c][i] > 1.25 * des.link_wait_s[c + 1][i] + 2e-5 {
                violations += 1;
            }
        }
    }
    violations
}

/// The three-way comparison both class counts share: `analytic[c]` are
/// the per-class loads the optimizer's load model predicts for the
/// forwarding tables `fwd`; the fluid and DES backends run on those same
/// tables. The report's `high` slot carries class 0, `low` the fold of
/// every lower class, so [`summarize`] gates every instance alike.
#[allow(clippy::too_many_arguments)]
fn compare_pipelines(
    scheme: &str,
    topo: &Topology,
    matrices: &[&TrafficMatrix],
    analytic: &[ClassLoads],
    fwd: &ForwardingState,
    des_seed: u64,
    packets: u64,
    des_load_min_samples: u64,
) -> SchemeValidation {
    // The same threshold classifies links here (load gate) and pairs
    // inside the fluid backend (delay gate) — passing it explicitly
    // keeps the two exclusion sets from drifting apart.
    let fluid_backend = FluidSim {
        cfg: dtr_sim::FluidCfg {
            hot_util: HOT_UTIL,
            ..Default::default()
        },
    };
    let fluid = fluid_backend.run_classes_on(topo, matrices, fwd);
    let des = DesBackend::budgeted_classes(matrices, packets, des_seed)
        .run_classes_on(topo, matrices, fwd);

    let total = dtr_routing::loads::sum_class_loads(analytic);
    let link_stable: Vec<bool> = topo
        .links()
        .map(|(lid, l)| total[lid.index()] / l.capacity < HOT_UTIL)
        .collect();
    let saturated_links = link_stable.iter().filter(|ok| !**ok).count();
    let per_class: Vec<ClassAgreement> = (0..matrices.len())
        .map(|c| {
            class_agreement(
                c,
                &analytic[c],
                &link_stable,
                &fluid,
                &des,
                matrices[c],
                des_load_min_samples,
            )
        })
        .collect();
    SchemeValidation {
        scheme: scheme.to_string(),
        max_util: dtr_routing::loads::max_utilization(topo, &total),
        saturated_links,
        des_seed,
        des_packets: des.packets,
        isolation_violations: isolation_violations(&des),
        high: per_class[0],
        low: fold_lower_classes(&per_class[1..]),
    }
}

/// One incumbent (one weight vector per class) to validate on one
/// instance: a task of the corpus schedule.
struct SchemeTask<'a> {
    instance: &'a str,
    /// `"baseline"` or `"dtr"`.
    scheme: &'static str,
    topo: &'a Topology,
    demands: &'a MultiDemand,
    weights: &'a [WeightVector],
    deployment: Option<&'a DeploymentSet>,
    des_seed: u64,
    packets: u64,
    des_load_min_samples: u64,
}

/// Validates one incumbent. The analytic side is each class's matrix
/// routed on its own vector — all the comparison needs of the objective
/// is its loads.
///
/// Under a partial `deployment` (two classes, by the manifest fence) the
/// analytic loads and both simulation backends all route the low class
/// on the **hybrid** DAGs (legacy routers forward on the high table);
/// the incumbent must be loop-free, so one that traps demand is refused
/// up front with the undeliverable volume.
fn validate_scheme(task: &SchemeTask) -> Result<SchemeValidation, TrappedDemand> {
    let (topo, weights) = (task.topo, task.weights);
    let matrices: Vec<&TrafficMatrix> = task.demands.classes.iter().collect();
    let mut calc = LoadCalculator::new();
    let mut analytic: Vec<ClassLoads> = matrices
        .iter()
        .zip(weights)
        .map(|(m, w)| calc.class_loads(topo, w, m))
        .collect();
    let fwd = match task.deployment {
        None => ForwardingState::with_class_weights(topo, weights),
        Some(dep) => {
            let pair = demand_pair(task.demands);
            let (low, undeliverable) = Evaluator::new(topo, &pair, Objective::LoadBased)
                .low_loads_deployed(dep, &weights[0], &weights[1]);
            if undeliverable > 0.0 {
                return Err(TrappedDemand {
                    instance: task.instance.to_string(),
                    scheme: task.scheme.to_string(),
                    undeliverable_mbps: undeliverable,
                });
            }
            analytic[1] = low;
            ForwardingState::with_deployment(topo, &dual_weights(weights), dep)
        }
    };
    Ok(compare_pipelines(
        task.scheme,
        topo,
        &matrices,
        &analytic,
        &fwd,
        task.des_seed,
        task.packets,
        task.des_load_min_samples,
    ))
}

/// Runs every task on the rayon pool. Tasks read shared inputs only and
/// each seeds its own DES stream, so no result depends on the thread
/// count. Results come back in task order, and so does the error: the
/// first task that traps demand wins, as in a sequential loop.
fn validate_tasks(tasks: &[SchemeTask]) -> Result<Vec<SchemeValidation>, TrappedDemand> {
    tasks
        .par_iter()
        .map(validate_scheme)
        .collect::<Vec<_>>()
        .into_iter()
        .collect()
}

/// The validation schedule behind [`run_validation`] and
/// [`validate_instance`]: one pool map reruns every instance's suite
/// searches for its incumbents (without the failure-policy sweep, which
/// validation has no use for), a second one pushes every `(instance,
/// scheme)` incumbent through the three pipelines, and the results fold
/// into reports in corpus order. The reports, and the first error, are
/// the ones a loop over the instances would give.
fn validate_all(
    specs: &[&ScenarioSpec],
    cfg: &ValidateCfg,
) -> Result<Vec<ValidationReport>, TrappedDemand> {
    let runs: Vec<SearchedInstance> = specs
        .par_iter()
        .map(|spec| search_incumbents(spec, cfg.smoke))
        .collect();
    let mut tasks = Vec::with_capacity(2 * runs.len());
    for (spec, run) in specs.iter().zip(&runs) {
        let base_seed = spec.search().seed.unwrap_or(1);
        // The DES budget policy. The envelopes are calibrated against
        // the two-class corpus, where the load floor tracks the
        // aggregate volume and gives every compared link significance
        // without a sample floor. The binding statistic is the
        // *per-class* load error and the thinnest class in a k-class
        // split carries a small fraction of the volume, so k ≥ 3 scales
        // the packet budget with the class count to keep that class's
        // sample size in the regime the envelopes were tuned for, and
        // requires a sample floor per compared link.
        let k = run.demands.class_count();
        let (packets, des_load_min_samples) = if k > 2 {
            (cfg.packets() * k as u64, DES_LOAD_MIN_SAMPLES)
        } else {
            (cfg.packets(), 0)
        };
        // Stream tags from the central registry's DES window, so
        // validation never shares an RNG stream with a search arm or a
        // reopt step.
        for (scheme, weights, deployment, stream) in [
            ("baseline", &run.str_weights, None, streams::DES_BASELINE),
            (
                "dtr",
                &run.dtr_weights,
                run.deployment.as_ref(),
                streams::DES_DTR,
            ),
        ] {
            tasks.push(SchemeTask {
                instance: &spec.name,
                scheme,
                topo: &run.topo,
                demands: &run.demands,
                weights,
                deployment,
                des_seed: derive_stream_seed(base_seed, stream),
                packets,
                des_load_min_samples,
            });
        }
    }
    let mut schemes = validate_tasks(&tasks)?.into_iter();
    Ok(specs
        .iter()
        .zip(runs)
        .map(|(spec, run)| ValidationReport {
            name: spec.name.clone(),
            topology: spec.topology.family_name().to_string(),
            nodes: run.topo.node_count(),
            links: run.topo.link_count(),
            budget: run.budget,
            baseline: schemes.next().expect("two schemes per instance"),
            dtr: schemes.next().expect("two schemes per instance"),
        })
        .collect())
}

/// Validates one corpus instance end-to-end, through the same schedule
/// as [`run_validation`]: reruns the suite searches for the incumbents,
/// then pushes the STR baseline and the DTR incumbent — one weight
/// vector per class — through the three pipelines, the two schemes side
/// by side.
pub fn validate_instance(
    spec: &ScenarioSpec,
    cfg: &ValidateCfg,
) -> Result<ValidationReport, TrappedDemand> {
    let [report] = validate_all(&[spec], cfg)?
        .try_into()
        .expect("one report per instance");
    Ok(report)
}

/// Folds per-instance reports into the aggregate summary with gate
/// verdicts.
pub fn summarize(reports: &[ValidationReport], cfg: &ValidateCfg) -> ValidationSummary {
    let mut max_fluid = 0.0f64;
    let mut max_des_load = 0.0f64;
    let mut max_stable_load = 0.0f64;
    let mut stable_schemes = 0usize;
    let mut max_delay = 0.0f64;
    let mut max_stable_delay = 0.0f64;
    let mut violations = 0usize;
    for r in reports {
        for s in r.schemes() {
            violations += s.isolation_violations;
            let stable = s.saturated_links == 0;
            if stable {
                stable_schemes += 1;
            }
            for c in [&s.high, &s.low] {
                max_fluid = max_fluid.max(c.fluid_load_rel_err);
                max_des_load = max_des_load.max(c.des_load_rel_err);
                if stable {
                    max_stable_load = max_stable_load.max(c.des_load_rel_err);
                }
                if let Some(e) = c.mean_delay_rel_err {
                    max_delay = max_delay.max(e);
                    if stable {
                        max_stable_delay = max_stable_delay.max(e);
                    }
                }
            }
        }
    }
    let envelope = EnvelopeSpec::default();
    ValidationSummary {
        names: reports.iter().map(|r| r.name.clone()).collect(),
        smoke: cfg.smoke,
        des_packets: cfg.packets(),
        max_fluid_load_rel_err: max_fluid,
        max_des_load_rel_err: max_des_load,
        max_stable_des_load_rel_err: max_stable_load,
        stable_schemes,
        max_mean_delay_rel_err: max_delay,
        max_stable_mean_delay_rel_err: max_stable_delay,
        isolation_violations: violations,
        fluid_ok: max_fluid <= envelope.fluid_load_tol,
        des_ok: max_stable_load <= envelope.des_load
            && max_stable_delay <= envelope.des_delay
            && max_delay <= envelope.des_delay_saturated,
        isolation_ok: violations == 0,
        envelope,
    }
}

/// Runs differential validation over the corpus selection, every
/// instance's searches and every scheme's pipelines side by side on the
/// rayon pool; reports come back in corpus order.
///
/// # Errors
/// The first incumbent, in `(instance, scheme)` order, that traps demand
/// under its partial deployment.
///
/// # Panics
/// If `cfg` selects no instances — check with [`crate::select`] first
/// when the selection comes from user input.
pub fn run_validation(
    specs: &[ScenarioSpec],
    cfg: &ValidateCfg,
) -> Result<(Vec<ValidationReport>, ValidationSummary), TrappedDemand> {
    let selected = crate::select(specs, &cfg.suite_cfg());
    assert!(
        !selected.is_empty(),
        "no corpus instances selected (smoke = {}, only = {:?})",
        cfg.smoke,
        cfg.only
    );
    let reports = validate_all(&selected, cfg)?;
    let summary = summarize(&reports, cfg);
    Ok((reports, summary))
}

/// The result-shape invariants a smoke run asserts. Panics with the
/// violated invariant.
pub fn assert_validation_shape(r: &ValidationReport) {
    assert!(r.nodes >= 3 && r.links >= 6, "{}: degenerate", r.name);
    for s in r.schemes() {
        assert!(
            s.des_packets > 0,
            "{}/{}: DES generated nothing",
            r.name,
            s.scheme
        );
        assert!(
            s.max_util.is_finite() && s.max_util > 0.0,
            "{}/{}: bad max_util {}",
            r.name,
            s.scheme,
            s.max_util
        );
        for (label, c) in [("high", &s.high), ("low", &s.low)] {
            assert!(
                c.fluid_load_rel_err.is_finite(),
                "{}/{}/{label}: non-finite fluid load error",
                r.name,
                s.scheme
            );
            assert!(
                c.pairs_compared > 0 || c.pairs_saturated > 0,
                "{}/{}/{label}: no pair entered the delay comparison",
                r.name,
                s.scheme
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SearchSpec, TopologySpec, TrafficSpec};
    use dtr_traffic::TrafficFamily;

    fn spec(name: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            description: None,
            smoke: Some(true),
            topology: TopologySpec::Random {
                nodes: 8,
                links: 32,
                seed: 3,
            },
            traffic: TrafficSpec {
                family: TrafficFamily::Gravity,
                f: None,
                k: Some(0.2),
                model: None,
                scale: Some(3.0),
                seed: Some(3),
                fractions: None,
                densities: None,
            },
            failures: None,
            search: Some(SearchSpec {
                budget: Some("tiny".into()),
                seed: Some(5),
                beta: None,
                portfolio: None,
            }),
            objective: None,
            deployment: None,
        }
    }

    fn cfg() -> ValidateCfg {
        ValidateCfg {
            smoke: true,
            only: None,
            des_packets: 40_000,
        }
    }

    #[test]
    fn instance_validates_end_to_end() {
        let r = validate_instance(&spec("mini"), &cfg()).unwrap();
        assert_validation_shape(&r);
        // Structural agreement: fluid loads are the analytic loads.
        for s in r.schemes() {
            for c in [&s.high, &s.low] {
                assert!(
                    c.fluid_load_rel_err <= FLUID_LOAD_TOL,
                    "{}: fluid err {}",
                    s.scheme,
                    c.fluid_load_rel_err
                );
            }
            assert_eq!(s.isolation_violations, 0, "{}", s.scheme);
        }
        let summary = summarize(&[r], &cfg());
        assert!(summary.fluid_ok);
        assert!(summary.isolation_ok);
    }

    #[test]
    fn partial_deployment_instance_validates_end_to_end() {
        let mut s = spec("mini-partial");
        s.deployment = Some(crate::spec::DeploymentSpec {
            upgraded: vec![0, 3, 5],
        });
        s.validate().unwrap();
        let r = validate_instance(&s, &cfg()).unwrap();
        assert_validation_shape(&r);
        // The fluid backend routed on the same hybrid DAGs as the
        // deployment-aware analytic evaluation: exact agreement.
        for sv in r.schemes() {
            for c in [&sv.high, &sv.low] {
                assert!(
                    c.fluid_load_rel_err <= FLUID_LOAD_TOL,
                    "{}: fluid err {}",
                    sv.scheme,
                    c.fluid_load_rel_err
                );
            }
        }
    }

    /// `routing::deploy`'s canonical loop: legacy A forwards towards C
    /// on the high topology via B, upgraded B forwards towards C on the
    /// low topology via A, so A → B → A traps all 0.75 Mbit/s of low
    /// demand under the returned deployment.
    fn trapping_triangle() -> (Topology, MultiDemand, [WeightVector; 2], DeploymentSet) {
        use dtr_graph::NodeId;
        let topo = dtr_graph::gen::triangle_topology(1.0);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let mut high = WeightVector::uniform(&topo, 1);
        high.set(topo.find_link(a, c).unwrap(), 10);
        let mut low = WeightVector::uniform(&topo, 1);
        low.set(topo.find_link(b, c).unwrap(), 10);
        let mut demands = MultiDemand {
            classes: vec![TrafficMatrix::zeros(3); 2],
        };
        demands.classes[0].set(0, 2, 0.1);
        demands.classes[1].set(0, 2, 0.25);
        demands.classes[1].set(1, 2, 0.5);
        (
            topo,
            demands,
            [high, low],
            DeploymentSet::from_upgraded(3, &[1]),
        )
    }

    /// A task on the trapping triangle: the baseline slot routes without
    /// the deployment and delivers everything, the DTR slot traps.
    fn triangle_task<'a>(
        instance: &'a str,
        scheme: &'static str,
        (topo, demands, weights, dep): &'a (
            Topology,
            MultiDemand,
            [WeightVector; 2],
            DeploymentSet,
        ),
    ) -> SchemeTask<'a> {
        SchemeTask {
            instance,
            scheme,
            topo,
            demands,
            weights,
            deployment: (scheme == "dtr").then_some(dep),
            des_seed: 1,
            packets: 1_000,
            des_load_min_samples: 0,
        }
    }

    #[test]
    fn incumbent_that_traps_demand_is_a_typed_error() {
        let triangle = trapping_triangle();
        let err = validate_scheme(&triangle_task("loop", "dtr", &triangle)).unwrap_err();
        assert_eq!(err.instance, "loop");
        assert_eq!(err.scheme, "dtr");
        assert!((err.undeliverable_mbps - 0.75).abs() < 1e-12);
        assert!(err
            .to_string()
            .contains("loop/dtr: incumbent traps 0.75 Mbit/s"));
    }

    /// Every search and every scheme runs on the pool; on one thread or
    /// two, a multi-instance run gives the same report and summary bytes,
    /// and a trap returns the same error — the first in `(instance,
    /// scheme)` order.
    #[test]
    fn thread_count_never_changes_a_report_or_an_error() {
        let pools = [1, 2].map(|n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        });
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        let cfg = ValidateCfg {
            des_packets: 10_000,
            ..cfg()
        };
        let specs: Vec<ScenarioSpec> = [
            "random12-smoke",
            "random10-triclass-sla",
            "random10-partial-sparse",
            "xpander20-portfolio",
        ]
        .iter()
        .map(|name| {
            let mut spec = crate::load_spec(&corpus.join(format!("{name}.json"))).unwrap();
            // Selected by the smoke run, at its tiny search budget.
            spec.smoke = Some(true);
            spec
        })
        .collect();
        let run = |pool: &rayon::ThreadPool| {
            let (reports, summary) = pool.install(|| run_validation(&specs, &cfg)).unwrap();
            let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(
                names,
                specs.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
            );
            for r in &reports {
                assert_eq!(
                    [r.baseline.scheme.as_str(), r.dtr.scheme.as_str()],
                    ["baseline", "dtr"],
                    "{}",
                    r.name
                );
            }
            (
                serde_json::to_string_pretty(&reports).unwrap(),
                serde_json::to_string_pretty(&summary).unwrap(),
            )
        };
        let solo = run(&pools[0]);
        // Which task finishes first on two threads varies from run to
        // run, so one run could pass by luck.
        for _ in 0..3 {
            assert_eq!(run(&pools[1]), solo);
        }

        let triangle = trapping_triangle();
        let tasks = [
            triangle_task("first", "baseline", &triangle),
            triangle_task("second", "baseline", &triangle),
            triangle_task("second", "dtr", &triangle),
            triangle_task("third", "dtr", &triangle),
        ];
        let [one, two] = pools
            .each_ref()
            .map(|pool| pool.install(|| validate_tasks(&tasks)).unwrap_err());
        assert_eq!(one, two);
        assert_eq!(
            (one.instance.as_str(), one.scheme.as_str()),
            ("second", "dtr")
        );
    }

    #[test]
    fn summary_gates_trip_on_bad_numbers() {
        let mut r = validate_instance(&spec("gates"), &cfg()).unwrap();
        r.dtr.high.fluid_load_rel_err = 1e-3;
        r.dtr.low.mean_delay_rel_err = Some(10.0);
        r.baseline.isolation_violations = 2;
        let s = summarize(&[r], &cfg());
        assert!(!s.fluid_ok && !s.des_ok && !s.isolation_ok);
        assert!(!s.all_ok());
        assert_eq!(s.isolation_violations, 2);
    }

    #[test]
    fn reports_serialize_round_trip() {
        let r = validate_instance(&spec("json"), &cfg()).unwrap();
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: ValidationReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn k_class_instance_validates_end_to_end() {
        let mut s = spec("tri-val");
        s.objective = Some(dtr_cost::ObjectiveSpec::uniform_sla(
            3,
            dtr_cost::SlaParams::default(),
        ));
        s.validate().unwrap();
        let r = validate_instance(&s, &cfg()).unwrap();
        assert_validation_shape(&r);
        // Fluid loads reproduce the k-class analytic loads exactly, for
        // class 0 and for every lower class.
        for sv in r.schemes() {
            for c in [&sv.high, &sv.low] {
                assert!(
                    c.fluid_load_rel_err <= FLUID_LOAD_TOL,
                    "{}: fluid err {}",
                    sv.scheme,
                    c.fluid_load_rel_err
                );
            }
            assert_eq!(sv.isolation_violations, 0, "{}", sv.scheme);
        }
        let summary = summarize(&[r], &cfg());
        assert!(summary.fluid_ok);
        assert!(summary.isolation_ok);
    }

    #[test]
    fn fold_lower_classes_takes_worst_and_sums_pairs() {
        let a = ClassAgreement {
            fluid_load_rel_err: 1e-12,
            des_load_rel_err: 0.1,
            fluid_mean_delay_s: Some(0.010),
            des_mean_delay_s: Some(0.011),
            mean_delay_rel_err: Some(0.1),
            pairs_compared: 4,
            pairs_saturated: 1,
        };
        let b = ClassAgreement {
            fluid_load_rel_err: 1e-10,
            des_load_rel_err: 0.05,
            fluid_mean_delay_s: Some(0.020),
            des_mean_delay_s: Some(0.024),
            mean_delay_rel_err: Some(0.2),
            pairs_compared: 6,
            pairs_saturated: 0,
        };
        let f = fold_lower_classes(&[a, b]);
        assert_eq!(f.fluid_load_rel_err, 1e-10);
        assert_eq!(f.des_load_rel_err, 0.1);
        assert_eq!(f.mean_delay_rel_err, Some(0.2));
        assert_eq!(f.fluid_mean_delay_s, Some(0.020), "means track worst class");
        assert_eq!(f.pairs_compared, 10);
        assert_eq!(f.pairs_saturated, 1);
    }

    #[test]
    fn des_seeds_are_derived_not_raw() {
        let r = validate_instance(&spec("seeds"), &cfg()).unwrap();
        assert_ne!(r.baseline.des_seed, r.dtr.des_seed);
        assert_ne!(r.baseline.des_seed, 5);
    }
}
