//! The command table: every flag `dtrctl` and `dtrd` accept, declared
//! once, and one row per command listing the flags it takes. Dispatch,
//! argument checking, `help` and per-command usage all read these rows.

use crate::args::{wrap, Command, Flag, Kind};
use crate::commands::*;
use std::ops::Bound::{Excluded, Included};

/// Search-budget presets ([`dtr_core::SearchParams::preset`]).
const PRESETS: Kind = Kind::Choice(&["tiny", "quick", "experiment", "paper"]);
/// Largest count a size or repetition flag takes: far beyond any run
/// that finishes, small enough that nothing overflows or pre-allocates
/// the machine away.
const COUNT_MAX: u64 = 1_000_000;
/// A generator size (`TopologySpec::validate` knows each family's own
/// lower bounds).
const SIZE: Kind = Kind::Int(0, 100_000);
/// A rate, scale or duration: non-negative and far from overflowing.
const RATE: Kind = Kind::Float(Included(0.0), Included(1e6));

macro_rules! flags {
    ($($id:ident: $name:literal, $value:literal, $kind:expr;)*) => {
        $(pub static $id: Flag = Flag { name: $name, value: $value, kind: $kind };)*
        /// Every flag declared above (the tests check each against the rows).
        pub static ALL_FLAGS: &[&Flag] = &[$(&$id),*];
    };
}

flags! {
    TOPO: "topo", "topo.json", Kind::Text;
    TRAFFIC: "traffic", "tm.json", Kind::Text;
    WEIGHTS: "weights", "weights.json", Kind::Text;
    OUT: "out", "PATH", Kind::Text;
    SEED: "seed", "S", Kind::Int(0, u64::MAX);
    // topo
    NODES: "nodes", "30", SIZE;
    LINKS: "links", "150", Kind::Int(0, 10_000_000);
    ATTACHMENTS: "attachments", "3", SIZE;
    WAXMAN_BETA: "beta", "0.6", Kind::Float(Excluded(0.0), Included(1.0));
    CORE: "core", "6", SIZE;
    CHORDS: "chords", "3", SIZE;
    EDGE_PER_CORE: "edge-per-core", "4", SIZE;
    ROWS: "rows", "5", SIZE;
    COLS: "cols", "6", SIZE;
    TORUS: "torus", "", Kind::Choice(&["false", "true"]);
    PODS: "pods", "4", SIZE;
    DA: "da", "4", SIZE;
    DI: "di", "4", SIZE;
    SWITCHES: "switches", "20", SIZE;
    DEGREE: "degree", "4", SIZE;
    LIFTS: "lifts", "2", SIZE;
    DOT: "dot", "topo.dot", Kind::Text;
    // traffic
    F: "f", "0.3", Kind::Float(Excluded(0.0), Excluded(1.0));
    K: "k", "0.1", Kind::Float(Excluded(0.0), Included(1.0));
    MODEL: "model", "", Kind::Choice(&["random", "sink-uniform", "sink-local"]);
    SINKS: "sinks", "3", Kind::Int(1, COUNT_MAX);
    SCALE: "scale", "1.0", RATE;
    // searches
    OPTIMIZE_SCHEME: "scheme", "",
        Kind::Choice(&["dtr", "str", "ga", "memetic", "anneal-str", "anneal-dtr"]);
    SCHEME: "scheme", "", Kind::Choice(&["dtr", "str"]);
    OBJECTIVE: "objective", "load|sla[:BOUND_MS]", Kind::Parsed(check_objective);
    SLA_BOUND_MS: "sla-bound-ms", "25", Kind::Float(Excluded(0.0), Included(f64::MAX));
    CLASSES: "classes", "2", Kind::Int(2, dtr_core::MAX_CLASSES as u64);
    BUDGET: "budget", "", PRESETS;
    BACKEND: "backend", "", Kind::Choice(&["incremental", "incr", "full"]);
    WORKERS: "workers", "N", Kind::Int(0, 1024);
    PORTFOLIO: "portfolio", "descent,anneal,ga,memetic", Kind::Parsed(check_portfolio);
    RESTARTS: "restarts", "1", Kind::Int(1, 10_000);
    PRUNE_MARGIN: "prune-margin", "F", Kind::Float(Included(0.0), Included(f64::INFINITY));
    ROBUST: "robust", "", Kind::Switch;
    BETA: "beta", "0.5", Kind::Float(Included(0.0), Included(1.0));
    CAP: "cap", "N", Kind::Int(1, COUNT_MAX);
    CHANGES: "changes", "H", Kind::Int(0, COUNT_MAX);
    // simulate, deploy
    DURATION: "duration", "2.0", Kind::Float(Excluded(0.0), Included(1e6));
    WARMUP: "warmup", "0.5", RATE;
    FAIL_LINK: "fail-link", "ID", Kind::Int(0, u32::MAX as u64);
    PRINT_CONFIG: "print-config", "routers.cfg", Kind::Text;
    // upgrade
    UPGRADE_BUDGET: "budget", "N", Kind::Int(1, COUNT_MAX);
    INSTANCE: "instance", "NAME", Kind::Text;
    CORPUS: "corpus", "corpus", Kind::Text;
    SEARCH: "search", "", PRESETS;
    PROBE: "probe", "", PRESETS;
    SWAP_PASSES: "swap-passes", "1", Kind::Int(0, COUNT_MAX);
    // suite, validate
    SMOKE: "smoke", "", Kind::Switch;
    ONLY: "only", "A,B", Kind::Text;
    DES_PACKETS: "des-packets", "N", Kind::Int(1, 1_000_000_000);
    // churn
    EVENTS: "events", "100", Kind::Int(0, 10_000_000);
    FLAP_RATE: "flap-rate", "0.3", RATE;
    REPAIR_RATE: "repair-rate", "1.0", RATE;
    DEMAND_RATE: "demand-rate", "1.0", RATE;
    WHATIF_RATE: "whatif-rate", "0.2", RATE;
    DIRECTED_FLAP_RATE: "directed-flap-rate", "0.0", RATE;
    BURST_RATE: "burst-rate", "0.0", RATE;
    BURST_MAX: "burst-max", "4", Kind::Int(0, COUNT_MAX);
    DRIFT: "drift", "0.08", RATE;
    NAME: "name", "NAME", Kind::Text;
    // replay, dtrd
    TRACE: "trace", "trace.json", Kind::Text;
    MIN_GAIN_PER_CHURN: "min-gain-per-churn", "F", Kind::Float(Included(0.0), Included(f64::MAX));
    COALESCE: "coalesce", "N", Kind::Int(0, COUNT_MAX);
    IDLE_STEPS: "idle-steps", "N", Kind::Int(0, COUNT_MAX);
    TRANSPORT: "transport", "", Kind::Choice(&["inproc", "tcp"]);
    SOCKET: "socket", "PATH", Kind::Text;
    TCP: "tcp", "ADDR", Kind::Text;
}

/// Read by `commands::objective_spec`.
static OBJECTIVE_FLAGS: &[&Flag] = &[&OBJECTIVE, &SLA_BOUND_MS, &CLASSES];
/// Read by `commands::search_params`.
static SEARCH_FLAGS: &[&Flag] = &[&BUDGET, &SEED, &BACKEND];
/// Read by `commands::portfolio_cfg`; giving any of them switches the parallel
/// portfolio orchestrator on.
pub static PORTFOLIO_FLAGS: &[&Flag] = &[&WORKERS, &PORTFOLIO, &RESTARTS, &PRUNE_MARGIN];
/// Read by `commands::daemon_cfg`, with the two groups above it.
static DAEMON_FLAGS: &[&Flag] = &[&CHANGES, &MIN_GAIN_PER_CHURN, &COALESCE, &IDLE_STEPS];
/// Read by the failure-aware search (`robust` and `optimize --robust`).
static ROBUST_FLAGS: &[&Flag] = &[&BETA, &CAP, &WEIGHTS];

/// The `dtrctl` subcommands, in `help` order.
pub static COMMANDS: &[Command] = &[
    Command {
        name: "topo",
        positional: &[
            "random",
            "powerlaw",
            "isp",
            "waxman",
            "hierarchical",
            "grid",
            "fattree",
            "vl2",
            "jellyfish",
            "xpander",
        ],
        required: &[],
        // One group per family of generators, then the outputs.
        optional: &[
            &[&NODES, &LINKS, &SEED, &ATTACHMENTS, &WAXMAN_BETA],
            &[&CORE, &CHORDS, &EDGE_PER_CORE, &ROWS, &COLS, &TORUS],
            &[&PODS, &DA, &DI, &SWITCHES, &DEGREE, &LIFTS],
            &[&OUT, &DOT],
        ],
        about: "(generates a topology of the given family, default random; each family \
                reads its own size flags and ignores the others)",
        run: cmd_topo,
    },
    Command {
        name: "traffic",
        positional: &[],
        required: &[&TOPO, &OUT],
        optional: &[&[&F, &K, &SEED, &MODEL, &SINKS, &SCALE]],
        about: "",
        run: cmd_traffic,
    },
    Command {
        name: "optimize",
        positional: &[],
        required: &[&TOPO, &TRAFFIC, &OUT],
        optional: &[
            &[&OPTIMIZE_SCHEME],
            OBJECTIVE_FLAGS,
            SEARCH_FLAGS,
            PORTFOLIO_FLAGS,
            &[&ROBUST],
            ROBUST_FLAGS,
        ],
        about: "(--backend selects the candidate-evaluation engine: incremental dynamic-SPF \
                repair (default) or full per-candidate recomputation — identical results; \
                --robust optimizes against all single duplex-pair failures, sweeping \
                scenarios through the same engine, reads --beta/--cap/--weights as `robust` \
                does and supports --scheme str|dtr and --objective load only. \
                --workers/--portfolio/--restarts switch on the parallel portfolio \
                orchestrator: restarts×|portfolio| independent arms with derived seeds fan \
                out over N worker threads (0 = all cores), each arm owning its own engine \
                state; arms share nothing and reduce deterministically, so the result \
                depends only on --seed and the spec, never on N. --prune-margin F drops \
                arms worse than the incumbent by more than fraction F at restart barriers. \
                With the orchestrator, --scheme selects the routing scheme (str|dtr) only; \
                in --robust runs non-descent arms warm-start a failure-aware descent from \
                their nominal optimum)",
        run: cmd_optimize,
    },
    Command {
        name: "evaluate",
        positional: &[],
        required: &[&TOPO, &TRAFFIC, &WEIGHTS],
        optional: &[OBJECTIVE_FLAGS],
        about: "",
        run: cmd_evaluate,
    },
    Command {
        name: "simulate",
        positional: &[],
        required: &[&TOPO, &TRAFFIC, &WEIGHTS],
        optional: &[&[&DURATION, &WARMUP, &SEED]],
        about: "",
        run: cmd_simulate,
    },
    Command {
        name: "deploy",
        positional: &[],
        required: &[&TOPO, &WEIGHTS],
        optional: &[&[&FAIL_LINK, &PRINT_CONFIG]],
        about: "",
        run: cmd_deploy,
    },
    Command {
        name: "bound",
        positional: &[],
        required: &[&TOPO, &TRAFFIC],
        optional: &[],
        about: "(Frank–Wolfe optimal-routing reference and duality bracket)",
        run: cmd_bound,
    },
    Command {
        name: "reopt",
        positional: &[],
        required: &[&TOPO, &TRAFFIC, &WEIGHTS, &CHANGES, &OUT],
        optional: &[&[&SCHEME], OBJECTIVE_FLAGS, SEARCH_FLAGS],
        about: "(change-limited reoptimization after traffic drift)",
        run: cmd_reopt,
    },
    Command {
        name: "robust",
        positional: &[],
        required: &[&TOPO, &TRAFFIC, &OUT],
        optional: &[
            &[&SCHEME],
            ROBUST_FLAGS,
            SEARCH_FLAGS,
            PORTFOLIO_FLAGS,
            OBJECTIVE_FLAGS,
        ],
        about: "(failure-aware optimization over all single duplex-pair cuts; alias of \
                `optimize --robust`. --weights warm-starts the search. --cap optimizes \
                against only the N worst scenarios of the initial solution — an \
                approximation; the dropped pairs are reported. Only --objective load is \
                supported)",
        run: cmd_robust,
    },
    Command {
        name: "upgrade",
        positional: &[],
        required: &[&UPGRADE_BUDGET],
        optional: &[
            &[&TOPO, &TRAFFIC, &INSTANCE, &CORPUS],
            &[&SEARCH, &PROBE, &SEED, &SWAP_PASSES, &BACKEND],
            PORTFOLIO_FLAGS,
            &[&OUT],
        ],
        about: "(upgrade-placement planning under partial deployment, on --topo/--traffic \
                files or a corpus --instance: which N routers should become MT-capable? \
                Greedy + local-swap over node subsets, each placement scored by a \
                deployment-aware weight search — cheap --probe searches steer the \
                combinatorics, a cold portfolio at the --search budget scores each budget \
                step definitively. Legacy (non-upgraded) routers forward both classes on \
                the default high topology. --workers N caps the threads of both the \
                portfolio arms and each greedy round's or swap pass's probes (0 = all \
                cores). Emits the monotone R_L-vs-budget curve with placements; \
                byte-deterministic in --seed and the instance, whatever --workers is)",
        run: cmd_upgrade,
    },
    Command {
        name: "suite",
        positional: &[],
        required: &[],
        optional: &[&[&CORPUS, &OUT, &SMOKE, &ONLY], OBJECTIVE_FLAGS],
        about: "(runs the scenario corpus end-to-end: per instance an STR baseline and a DTR \
                search at identical budgets plus the manifest's failure-policy robustness \
                evaluation; writes one JSON report per instance and summary.json into --out \
                (default suite-out). --smoke restricts to the tiny smoke-tagged instances \
                and asserts result shapes — the CI gate. --only takes a comma-separated list \
                of name substrings; an instance runs if it matches any. \
                --objective/--classes override the selected manifests' objective — k >= 3 \
                needs gravity-family instances without failure policies, so narrow with \
                --only when overriding)",
        run: cmd_suite,
    },
    Command {
        name: "validate",
        positional: &[],
        required: &[],
        optional: &[
            &[&CORPUS, &OUT, &SMOKE, &ONLY, &DES_PACKETS],
            OBJECTIVE_FLAGS,
        ],
        about: "(corpus-scale sim-vs-analytic differential validation: per instance, reruns \
                the suite searches and pushes both incumbents through (a) the analytic \
                evaluator, (b) the deterministic fluid backend and (c) a budgeted packet DES \
                seeded from the manifest seed; writes one agreement report per instance plus \
                validation_summary.json into --out (default validate-out). Fluid loads must \
                match the analytic loads to 1e-9; DES loads/delays must sit inside the \
                documented accuracy envelope; priority-isolation violations must be zero. \
                Exits non-zero when any gate fails. --des-packets overrides the per-run \
                packet budget; --smoke/--only select as in suite)",
        run: cmd_validate,
    },
    Command {
        name: "churn",
        positional: &[],
        required: &[&TOPO, &TRAFFIC, &OUT],
        optional: &[
            &[&EVENTS, &SEED, &NAME, &DRIFT],
            &[&FLAP_RATE, &REPAIR_RATE, &DEMAND_RATE, &WHATIF_RATE],
            &[&DIRECTED_FLAP_RATE, &BURST_RATE, &BURST_MAX],
        ],
        about: "(seed-deterministic churn trace: Poisson link flaps under the single-failure \
                regime, gravity-drift demand walks and what-if probes, self-contained with \
                topology and base demands; --directed-flap-rate adds single-directed-link \
                failures, --burst-rate adds same-timestamp bursts of 2..=--burst-max demand \
                walks — the coalescing workload)",
        run: cmd_churn,
    },
    Command {
        name: "replay",
        positional: &[],
        required: &[],
        optional: &[
            &[&TRACE, &OUT, &WEIGHTS, &SMOKE, &TRANSPORT],
            SEARCH_FLAGS,
            DAEMON_FLAGS,
            OBJECTIVE_FLAGS,
        ],
        about: "(drives the dtrd reoptimization daemon through a churn trace end to end over \
                the line protocol; writes events.jsonl (one reply per line, trace events \
                plus injected flushes), report.json (deterministic summary incl. \
                gain-vs-churn accounting and the final-incumbent-vs-cold-batch ratio) and \
                timing.json (p50/p99 latency, events/sec, per-kind breakdown) into --out \
                (default replay-out). --coalesce batches same-timestamp events (the driver \
                injects Flush at every timestamp change), --idle-steps spends a background \
                anytime budget at event boundaries, --transport tcp replays over a real \
                loopback serve_tcp server. --objective sla needs a demand-only trace: the \
                daemon's masked evaluation is load-only. --smoke replays twice and asserts \
                events.jsonl and report.json are byte-identical — timing.json is wall-clock \
                and explicitly outside the gate — plus report shape and the batch ratio; \
                the trace defaults to traces/smoke.json — the CI gate)",
        run: cmd_replay,
    },
    Command {
        name: "help",
        positional: &[],
        required: &[],
        optional: &[],
        about: "",
        run: cmd_help,
    },
];

/// The one row of the `dtrd` binary.
pub static DTRD: Command = Command {
    name: "dtrd",
    positional: &[],
    required: &[&TOPO, &TRAFFIC],
    optional: &[
        &[&WEIGHTS],
        SEARCH_FLAGS,
        DAEMON_FLAGS,
        &[&OBJECTIVE, &SOCKET, &TCP],
    ],
    about: "(the reoptimization daemon, a binary of its own: serves the line-delimited JSON \
            protocol of docs/PROTOCOL.md on stdin/stdout, on a unix socket with --socket, or \
            on TCP with --tcp ADDR, e.g. 127.0.0.1:7700. Without --weights, boot runs a cold \
            DTR search at --budget. --coalesce N batches state-changing events (send \"Flush\" \
            to close a batch early); --idle-steps N spends a background anytime budget at each \
            event boundary)",
    run: cmd_dtrd,
};

/// The `help` text: every row's generated usage block over its prose.
pub fn help() -> String {
    let mut text = String::from("dtrctl — dual-topology routing toolkit\n\nUSAGE:\n");
    for row in COMMANDS.iter().chain([&DTRD]) {
        text.push_str(&format!("  {}\n", row.usage().replace('\n', "\n  ")));
        if !row.about.is_empty() {
            // A leading word of spaces indents the first line like the rest.
            let words = ["        "].into_iter().chain(row.about.split_whitespace());
            text.push_str(&format!("{}\n", wrap(words, "          ")));
        }
    }
    text.push_str("\nAll artifacts are JSON; see the repository README for the full workflow.");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> impl Iterator<Item = &'static Command> {
        COMMANDS.iter().chain([&DTRD])
    }

    /// The `--flag` words of a usage block or a help text.
    fn flag_words(text: &str) -> Vec<&str> {
        let words = text.split(|c: char| c.is_whitespace() || "[]()`,;:".contains(c));
        words
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect()
    }

    #[test]
    fn every_flag_is_in_a_row_and_every_usage_mentions_each_of_its_flags_once() {
        for flag in ALL_FLAGS {
            let used = rows().any(|row| row.flags().any(|f| std::ptr::eq(f, *flag)));
            assert!(used, "--{} is declared but no row takes it", flag.name);
        }
        for row in rows() {
            let mut declared: Vec<String> = row.flags().map(|f| format!("--{}", f.name)).collect();
            let usage = row.usage();
            let mut shown = flag_words(&usage);
            declared.sort();
            shown.sort();
            assert_eq!(shown, declared, "{}: usage and row disagree", row.name);
            declared.dedup();
            assert_eq!(
                shown.len(),
                declared.len(),
                "{} takes a name twice",
                row.name
            );
        }
    }

    #[test]
    fn help_lists_every_flag_and_its_prose_names_only_declared_ones() {
        let help = help();
        let shown = flag_words(&help);
        for flag in ALL_FLAGS {
            let word = format!("--{}", flag.name);
            assert!(shown.contains(&word.as_str()), "help does not list {word}");
        }
        for row in rows() {
            for word in flag_words(row.about) {
                let names = word.trim_end_matches('.').split('/');
                let known = |name: &str| ALL_FLAGS.iter().any(|f| f.name == name);
                let declared = names.map(|w| w.trim_start_matches("--")).all(known);
                assert!(declared, "{}: the prose names {word}, no flag", row.name);
            }
        }
    }

    #[test]
    fn budget_choices_are_the_search_presets() {
        let Kind::Choice(names) = PRESETS else {
            panic!("presets are a choice");
        };
        for name in names {
            assert!(dtr_core::SearchParams::preset(name).is_some(), "{name}");
        }
    }
}
