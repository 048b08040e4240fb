//! The `search-scale` and `corpus-mixed` workloads: `dtrctl suite` —
//! and for `corpus-mixed` also `validate` and `upgrade` — over a
//! generated corpus.

use crate::host::Checkout;
use crate::inputs::{
    corpus_mixed_corpus, derive, search_scale_corpus, upgrade_manifest, Fingerprint, Manifest,
};
use crate::json::{self, at, get, u};
use crate::outcome::{Outcome, Run};
use crate::proc::{self, Finished};
use crate::stats::median;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const COMMAND_LIMIT: Duration = Duration::from_secs(170);
/// Set-up is timed at least this often; `setup_s` is the median.
const SETUPS: usize = 5;

struct Plan {
    corpus: Vec<Manifest>,
    /// `corpus-mixed` only: the instance `dtrctl upgrade` plans on.
    upgrade: Option<Manifest>,
    upgrade_seed: u64,
    /// Routers `dtrctl upgrade` may place.
    upgrade_budget: u64,
    /// DES packet budget per validated scheme: enough for the isolation
    /// scan's 500-sample floor on busy links, a quarter of the default.
    des_packets: u64,
    /// The untimed warm-up runs the suite on the workload's own corpus
    /// at `--smoke` size: the same instance kinds, 12 nodes each.
    warm: Vec<Manifest>,
}

fn plan(workload: &str, seed: u64, smoke: bool) -> Plan {
    let mixed = workload == "corpus-mixed";
    Plan {
        corpus: if mixed {
            corpus_mixed_corpus(seed, smoke)
        } else {
            search_scale_corpus(seed, smoke)
        },
        upgrade: mixed.then(|| upgrade_manifest(seed, smoke)),
        upgrade_seed: derive(seed, "corpus-mixed", 8),
        upgrade_budget: if smoke { 1 } else { 2 },
        des_packets: if smoke { 20_000 } else { 60_000 },
        warm: if mixed {
            corpus_mixed_corpus(seed, true)
        } else {
            search_scale_corpus(seed, true)
        },
    }
}

struct Dirs {
    root: PathBuf,
}

impl Dirs {
    fn at(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn arg(&self, name: &str) -> String {
        self.at(name).to_string_lossy().into_owned()
    }
}

fn write_corpus<'a>(
    dir: &Path,
    manifests: impl IntoIterator<Item = &'a Manifest>,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for m in manifests {
        let path = dir.join(format!("{}.json", m.name));
        std::fs::write(&path, json::pretty(&m.body))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn dtrctl(co: &Checkout, dirs: &Dirs, step: &str, args: &[&str]) -> Result<Finished, String> {
    proc::run(
        Command::new(&co.dtrctl).args(args),
        &dirs.at(&format!("{step}.log")),
        COMMAND_LIMIT,
    )
    .map_err(|e| format!("dtrctl {step}: {e}"))
}

/// One set-up: the manifests on disk, then the warm-up suite run.
fn set_up(co: &Checkout, dirs: &Dirs, plan: &Plan) -> Result<f64, String> {
    let started = Instant::now();
    write_corpus(&dirs.at("corpus"), &plan.corpus)?;
    write_corpus(&dirs.at("upgrade"), &plan.upgrade)?;
    write_corpus(&dirs.at("warm"), &plan.warm)?;
    let warm = dtrctl(
        co,
        dirs,
        "warm",
        &[
            "suite",
            "--corpus",
            &dirs.arg("warm"),
            "--out",
            &dirs.arg("warm-out"),
        ],
    )?;
    if !warm.status.success() {
        return Err(format!("warm-up suite exited with {}", warm.status));
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Timings and report-derived numbers of one round.
#[derive(Default)]
struct Round {
    wall_s: f64,
    suite_s: f64,
    validate_s: Option<f64>,
    upgrade_s: Option<f64>,
    evaluations: f64,
    solution_cost: f64,
    peak_rss_kb: u64,
    /// (instance, STR search s, DTR search s) from the suite reports.
    instance_s: Vec<(String, f64, f64)>,
    des_ok: Option<bool>,
    all_dtr_high_wins: Option<bool>,
}

fn finite(v: &Value, path: &[&str]) -> Result<f64, String> {
    json::num(at(v, path))
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("{} is missing or not finite", path.join(".")))
}

/// `dtrctl suite`: exit code, one report per manifest, the summary.
fn suite(
    co: &Checkout,
    dirs: &Dirs,
    plan: &Plan,
    out: &mut Outcome,
    round: &mut Round,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dirs.at("suite-out"));
    let done = dtrctl(
        co,
        dirs,
        "suite",
        &[
            "suite",
            "--corpus",
            &dirs.arg("corpus"),
            "--out",
            &dirs.arg("suite-out"),
        ],
    )?;
    round.suite_s = done.wall_s;
    round.peak_rss_kb = round.peak_rss_kb.max(done.peak_rss_kb);
    out.check(if done.status.success() {
        Ok(())
    } else {
        Err(format!("suite exited with {}", done.status))
    });
    let mut log_cost = 0.0;
    for m in &plan.corpus {
        let report = (|| {
            let r = json::read_file(&dirs.at("suite-out").join(format!("{}.json", m.name)))?;
            let evals =
                finite(&r, &["baseline", "evaluations"])? + finite(&r, &["dtr", "evaluations"])?;
            let cost = (finite(&r, &["dtr", "phi_h"])? + finite(&r, &["dtr", "phi_l"])?)
                / finite(&r, &["total_demand"])?;
            if evals <= 0.0 || cost <= 0.0 {
                return Err(format!("{}: {evals} evaluations, cost {cost}", m.name));
            }
            let times = (
                finite(&r, &["baseline", "elapsed_s"])?,
                finite(&r, &["dtr", "elapsed_s"])?,
            );
            Ok((evals, cost, times))
        })();
        if let Ok((evals, cost, (str_s, dtr_s))) = &report {
            round.evaluations += evals;
            log_cost += cost.ln();
            round.instance_s.push((m.name.clone(), *str_s, *dtr_s));
        }
        out.check(report.map(|_| ()));
    }
    round.solution_cost = (log_cost / plan.corpus.len() as f64).exp();
    let summary = json::read_file(&dirs.at("suite-out/summary.json"));
    round.all_dtr_high_wins = summary
        .as_ref()
        .ok()
        .and_then(|s| json::boolean(get(s, "all_dtr_high_wins")));
    out.check(match &summary {
        Ok(s) if get(s, "names").as_seq().map(<[Value]>::len) == Some(plan.corpus.len()) => Ok(()),
        Ok(_) => Err("summary.json does not list every instance".to_string()),
        Err(e) => Err(e.clone()),
    });
    Ok(())
}

/// `dtrctl validate` over the validated instances. The fluid and
/// isolation gates must hold; the DES envelope is statistical at this
/// packet budget, so `des_ok` (and the exit code 1 it alone causes) is
/// noted, not counted.
fn validate(
    co: &Checkout,
    dirs: &Dirs,
    plan: &Plan,
    out: &mut Outcome,
    round: &mut Round,
) -> Result<(), String> {
    let names: Vec<&str> = plan
        .corpus
        .iter()
        .filter(|m| m.validated)
        .map(|m| m.name.as_str())
        .collect();
    let _ = std::fs::remove_dir_all(dirs.at("validate-out"));
    let done = dtrctl(
        co,
        dirs,
        "validate",
        &[
            "validate",
            "--corpus",
            &dirs.arg("corpus"),
            "--out",
            &dirs.arg("validate-out"),
            "--only",
            &names.join(","),
            "--des-packets",
            &plan.des_packets.to_string(),
        ],
    )?;
    round.validate_s = Some(done.wall_s);
    round.peak_rss_kb = round.peak_rss_kb.max(done.peak_rss_kb);
    let summary = json::read_file(&dirs.at("validate-out/validation_summary.json"));
    let flag = |name: &str| {
        summary
            .as_ref()
            .ok()
            .and_then(|s| json::boolean(get(s, name)))
    };
    round.des_ok = flag("des_ok");
    let gates_hold = flag("fluid_ok") == Some(true) && flag("isolation_ok") == Some(true);
    out.check(match done.status.code() {
        Some(0) => Ok(()),
        Some(1) if gates_hold && round.des_ok == Some(false) => Ok(()),
        _ => Err(format!("validate exited with {}", done.status)),
    });
    out.check(match &summary {
        Ok(_) if gates_hold => Ok(()),
        Ok(s) => Err(format!("validation gate failed: {}", json::line(s))),
        Err(e) => Err(e.clone()),
    });
    for name in names {
        let report = json::read_file(&dirs.at("validate-out").join(format!("{name}.json")));
        out.check(report.and_then(|r| finite(&r, &["dtr", "max_util"]).map(|_| ())));
    }
    Ok(())
}

/// `dtrctl upgrade`: exit code and the placement curve.
fn upgrade(
    co: &Checkout,
    dirs: &Dirs,
    plan: &Plan,
    out: &mut Outcome,
    round: &mut Round,
) -> Result<(), String> {
    let Some(instance) = &plan.upgrade else {
        return Ok(());
    };
    let report = dirs.at("upgrade-out.json");
    let _ = std::fs::remove_file(&report);
    let done = dtrctl(
        co,
        dirs,
        "upgrade",
        &[
            "upgrade",
            "--instance",
            &instance.name,
            "--corpus",
            &dirs.arg("upgrade"),
            "--budget",
            &plan.upgrade_budget.to_string(),
            "--search",
            "tiny",
            "--probe",
            "tiny",
            "--portfolio",
            "descent",
            "--swap-passes",
            "0",
            "--workers",
            "2",
            "--seed",
            &plan.upgrade_seed.to_string(),
            "--out",
            &dirs.arg("upgrade-out.json"),
        ],
    )?;
    round.upgrade_s = Some(done.wall_s);
    round.peak_rss_kb = round.peak_rss_kb.max(done.peak_rss_kb);
    out.check(if done.status.success() {
        Ok(())
    } else {
        Err(format!("upgrade exited with {}", done.status))
    });
    out.check(json::read_file(&report).and_then(|r| {
        let steps = get(&r, "steps")
            .as_seq()
            .ok_or("upgrade report without steps")?;
        if steps.len() as u64 != plan.upgrade_budget + 1 {
            return Err(format!(
                "upgrade curve has {} steps, not {}",
                steps.len(),
                plan.upgrade_budget + 1
            ));
        }
        steps
            .iter()
            .try_for_each(|s| finite(s, &["best_r_l"]).map(|_| ()))
    }));
    Ok(())
}

/// Runs one corpus workload: set-up, then rounds of the workload's
/// commands until `seconds` have been measured; every number is the
/// median over rounds. `capture` runs a single round.
pub fn run(
    co: &Checkout,
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    capture: bool,
) -> Result<Run, String> {
    let plan = plan(workload, seed, smoke);
    let dirs = Dirs {
        root: co.out.join(format!("work/{workload}-{seed}")),
    };
    let _ = std::fs::remove_dir_all(&dirs.root);
    std::fs::create_dir_all(&dirs.root).map_err(|e| format!("{}: {e}", dirs.root.display()))?;
    let mut out = Outcome::new(workload, seed);

    let mut fp = Fingerprint::new();
    for m in plan.corpus.iter().chain(&plan.upgrade) {
        fp.feed(json::line(&m.body).as_bytes());
    }
    for flag in [plan.upgrade_seed, plan.upgrade_budget, plan.des_packets] {
        fp.feed(&flag.to_le_bytes());
    }
    out.fingerprint = fp.hex();

    let mut setup_s = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    while rounds.is_empty() || (!capture && measured < seconds) {
        setup_s.push(set_up(co, &dirs, &plan)?);
        let mut round = Round::default();
        let started = Instant::now();
        suite(co, &dirs, &plan, &mut out, &mut round)?;
        if plan.upgrade.is_some() {
            validate(co, &dirs, &plan, &mut out, &mut round)?;
            upgrade(co, &dirs, &plan, &mut out, &mut round)?;
        }
        round.wall_s = started.elapsed().as_secs_f64();
        measured += round.wall_s;
        rounds.push(round);
    }
    while setup_s.len() < SETUPS {
        setup_s.push(set_up(co, &dirs, &plan)?);
    }

    // The searches are seeded: every round must find the same incumbents.
    let cost = rounds[0].solution_cost;
    out.check(if rounds.iter().all(|r| r.solution_cost == cost) {
        Ok(())
    } else {
        Err("solution_cost differs between rounds of one seed".to_string())
    });

    let med = |pick: &dyn Fn(&Round) -> Option<f64>| {
        let xs: Vec<f64> = rounds.iter().filter_map(pick).collect();
        (!xs.is_empty()).then(|| median(&xs))
    };
    out.put("setup_s", median(&setup_s));
    out.put("wall_s", med(&|r| Some(r.wall_s)).expect("one round ran"));
    out.put("suite_s", med(&|r| Some(r.suite_s)).expect("one round ran"));
    if let Some(v) = med(&|r| r.validate_s) {
        out.put("validate_s", v);
    }
    if let Some(v) = med(&|r| r.upgrade_s) {
        out.put("upgrade_s", v);
    }
    out.put(
        "evals_per_s",
        med(&|r| Some(r.evaluations / r.suite_s)).expect("one round ran"),
    );
    let rss_kb = rounds.iter().map(|r| r.peak_rss_kb).max().unwrap_or(0);
    out.put("peak_rss_mb", rss_kb as f64 / 1024.0);
    out.put("solution_cost", cost);
    out.note("rounds", u(rounds.len() as u64));
    out.note("evaluations", u(rounds[0].evaluations as u64));
    let last = rounds.last().expect("one round ran");
    if let Some(ok) = last.all_dtr_high_wins {
        out.note("all_dtr_high_wins", Value::Bool(ok));
    }
    if let Some(ok) = last.des_ok {
        out.note("des_ok", Value::Bool(ok));
    }
    let instance_s = |pick: fn(&(String, f64, f64)) -> f64| {
        Value::Map(
            last.instance_s
                .iter()
                .map(|i| (i.0.clone(), json::f(pick(i))))
                .collect(),
        )
    };
    out.note("str_s", instance_s(|i| i.1));
    out.note("dtr_s", instance_s(|i| i.2));
    out.seal();
    Ok(Run {
        dir: dirs.root,
        outcome: out,
    })
}
