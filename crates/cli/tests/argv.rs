//! The front door rejects what it does not understand: driven through
//! the built `dtrctl` and `dtrd` binaries, every row of the command
//! table answers an unknown flag, a repeated flag and a stray word with
//! exit 2 before it touches a file; out-of-range values are usage or
//! input errors, never a panic (exit 101).

use dtr_cli::args::{Command, Flag, Kind};
use dtr_cli::table::{COMMANDS, DTRD};
use dtr_graph::{Topology, TopologyBuilder};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Command as Process, Output, Stdio};
use std::sync::OnceLock;

/// Runs the binary `row` belongs to with `row`'s subcommand and `argv`,
/// in a scratch directory.
fn spawn(row: &Command, argv: &[String]) -> Output {
    let mut process = match row.name {
        "dtrd" => Process::new(env!("CARGO_BIN_EXE_dtrd")),
        name => {
            let mut dtrctl = Process::new(env!("CARGO_BIN_EXE_dtrctl"));
            dtrctl.arg(name);
            dtrctl
        }
    };
    // A hostile `--out 0` lands in the scratch directory, not the tree.
    process
        .args(argv)
        .stdin(Stdio::null())
        .current_dir(scratch("cwd"));
    process.output().expect("spawn the binary")
}

fn row(name: &str) -> &'static Command {
    let mut rows = COMMANDS.iter().chain([&DTRD]);
    rows.find(|row| row.name == name).expect("a row's name")
}

/// `dtrctl <line>` (or `dtrd <flags>` when the line starts with `dtrd`).
fn run_line(line: &str) -> Output {
    let (name, rest) = line.split_once(' ').unwrap_or((line, ""));
    let argv: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
    spawn(row(name), &argv)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtrctl-argv-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A value `flag` accepts; text flags get a path under `dir` that does
/// not exist.
fn sample(flag: &Flag, dir: &Path) -> String {
    match flag.kind {
        Kind::Switch => String::new(),
        Kind::Choice(names) => names[0].to_string(),
        Kind::Int(min, _) => min.max(2).to_string(),
        Kind::Float(..) => "0.5".to_string(),
        Kind::Parsed(_) if flag.name == "objective" => "load".to_string(),
        Kind::Parsed(_) => "descent".to_string(),
        Kind::Text => dir.join(flag.name).to_string_lossy().into_owned(),
    }
}

/// `--flag value` (or the bare switch).
fn given(flag: &Flag, dir: &Path) -> Vec<String> {
    let mut words = vec![format!("--{}", flag.name)];
    if !matches!(flag.kind, Kind::Switch) {
        words.push(sample(flag, dir));
    }
    words
}

#[test]
fn every_row_rejects_unknown_repeated_and_stray_tokens_before_touching_a_file() {
    let dir = scratch("rows");
    for row in COMMANDS.iter().chain([&DTRD]) {
        // The row's required flags, plus --out wherever the row takes it.
        let mut valid: Vec<String> = Vec::new();
        let out = row.flags().find(|f| f.name == "out");
        for flag in row.required.iter().copied().chain(out) {
            if !valid.contains(&format!("--{}", flag.name)) {
                valid.extend(given(flag, &dir));
            }
        }
        let mut cases = vec![
            (
                vec!["--bogus-flag".to_string(), "3".to_string()],
                "--bogus-flag",
            ),
            (vec!["stray".to_string()], "\"stray\""),
        ];
        let first = row.flags().next();
        let repeated = first.map(|flag| format!("--{}", flag.name));
        if let (Some(flag), Some(name)) = (first, &repeated) {
            let twice = [given(flag, &dir), given(flag, &dir)].concat();
            let once_more = if valid.contains(name) {
                given(flag, &dir)
            } else {
                twice
            };
            cases.push((once_more, name));
        }
        for (extra, token) in cases {
            let argv = [valid.clone(), extra].concat();
            let done = spawn(row, &argv);
            let stderr = String::from_utf8_lossy(&done.stderr);
            assert_eq!(
                done.status.code(),
                Some(2),
                "{} {argv:?}: {stderr}",
                row.name
            );
            assert!(stderr.contains(token), "{} {argv:?}: {stderr}", row.name);
            assert!(
                stderr.contains("usage: "),
                "{} {argv:?}: {stderr}",
                row.name
            );
            assert!(done.stdout.is_empty(), "{} {argv:?} printed", row.name);
            assert!(
                !dir.join("out").exists(),
                "{} {argv:?} wrote --out",
                row.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that goes away ends `dtrctl` quietly, as it ends coreutils
/// (`dtrctl help | head -1`): no panic report and no exit 101, whether
/// the closed pipe is stdout (`help`) or stderr (a usage error).
#[test]
fn a_closed_stdout_or_stderr_ends_dtrctl_quietly() {
    for (word, on_stdout) in [("help", true), ("no-such-command", false)] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        // Closed before the child writes a byte.
        drop(reader);
        let mut dtrctl = Process::new(env!("CARGO_BIN_EXE_dtrctl"));
        dtrctl.arg(word).stdin(Stdio::null());
        if on_stdout {
            dtrctl.stdout(writer).stderr(Stdio::piped());
        } else {
            dtrctl.stdout(Stdio::null()).stderr(writer);
        }
        let done = dtrctl.output().expect("spawn dtrctl");
        assert_eq!(
            done.status.code(),
            Some(dtr_cli::CLOSED_PIPE_EXIT),
            "dtrctl {word}: {done:?}"
        );
        assert!(
            done.stderr.is_empty(),
            "dtrctl {word}: {}",
            String::from_utf8_lossy(&done.stderr)
        );
    }
}

/// A seeded 8-node instance with a `tiny` DTR optimum, built once:
/// `[topo, traffic, weights]` under one directory.
fn instance() -> &'static (PathBuf, [String; 3]) {
    static INSTANCE: OnceLock<(PathBuf, [String; 3])> = OnceLock::new();
    INSTANCE.get_or_init(|| {
        let dir = scratch("instance");
        let [t, m, w] = ["t.json", "m.json", "w.json"].map(|f| dir.join(f).display().to_string());
        for line in [
            format!("topo random --nodes 8 --links 32 --seed 3 --out {t}"),
            format!("traffic --topo {t} --scale 3 --seed 3 --out {m}"),
            format!("optimize --topo {t} --traffic {m} --budget tiny --out {w}"),
        ] {
            let done = run_line(&line);
            assert!(done.status.success(), "{line}: {:?}", done);
        }
        (dir, [t, m, w])
    })
}

#[test]
fn probed_panics_and_silent_typos_are_usage_or_input_errors() {
    let (dir, [t, m, w]) = instance();
    let out = dir.join("probe-out.json").display().to_string();
    let traffic = format!("traffic --topo {t} --out {out}");
    let churn = format!("churn --topo {t} --traffic {m} --out {out}");
    // The instance's files with one entry dropped from the high matrix
    // and link 0 pointed at a node that does not exist.
    let [ragged, dangling] = ["ragged.json", "dangling.json"].map(|f| dir.join(f));
    let text = |path: &String| std::fs::read_to_string(path).unwrap();
    std::fs::write(&ragged, text(m).replacen("0.0,", "", 1)).unwrap();
    std::fs::write(&dangling, text(t).replacen("\"dst\": ", "\"dst\": 9", 1)).unwrap();
    let [ragged, dangling] = [ragged, dangling].map(|p| p.display().to_string());
    // Weight files of the right length with values no search assigns: a
    // zero on every link (zero-weight cycles inside the ECMP DAGs), and
    // one weight above every budget's `max_weight`.
    let [zero, heavy, trace] = ["zero.json", "heavy.json", "trace.json"].map(|f| dir.join(f));
    let flat = |x: u32, last: u32| {
        let v = [vec![x; 31], vec![last]].concat();
        format!("{{\"high\":{v:?},\"low\":{v:?}}}")
    };
    std::fs::write(&zero, flat(0, 0)).unwrap();
    std::fs::write(&heavy, flat(1, 31)).unwrap();
    let [zero, heavy, trace] = [zero, heavy, trace].map(|p| p.display().to_string());
    let churned = run_line(&format!(
        "churn --topo {t} --traffic {m} --events 3 --out {trace}"
    ));
    assert!(churned.status.success(), "{churned:?}");
    let [oneway, unit] = one_way_instance(dir);
    let [cut, cut_m, cut_w] = disconnected_instance(dir);
    for (line, code, token) in [
        // Out-of-range values that used to die in a library assert!.
        (format!("topo random --nodes 0 --out {out}"), 2, "0/150"),
        (
            format!("topo random --nodes 5 --links 1000 --out {out}"),
            2,
            "5/1000",
        ),
        (format!("topo fattree --pods 3 --out {out}"), 2, "pods"),
        (format!("topo grid --rows 0 --out {out}"), 2, "0×6"),
        (format!("{traffic} --f 1.5"), 2, "--f"),
        (format!("{traffic} --k 0"), 2, "--k"),
        (format!("{traffic} --scale nan"), 2, "--scale"),
        (
            format!("{traffic} --model sink-local --sinks 8"),
            1,
            "--sinks 8",
        ),
        (format!("{churn} --flap-rate -1"), 2, "--flap-rate"),
        (
            format!("{churn} --burst-rate 1 --burst-max 1"),
            2,
            "--burst-max 1",
        ),
        (
            format!("deploy --topo {t} --weights {w} --fail-link 9999"),
            1,
            "--fail-link 9999",
        ),
        (
            format!("upgrade --topo {t} --traffic {m} --budget 0"),
            2,
            "--budget",
        ),
        // Used to run the default packet budget and exit 0.
        (
            "validate --des-packets 0".to_string(),
            2,
            "--des-packets: 0 — need an integer in 1..=1000000000",
        ),
        // A one-way link, where the duplex-failure commands cut both
        // directions: they used to panic on the missing twin.
        (
            format!("robust --topo {oneway} --traffic {m} --out {out}"),
            1,
            "oneway.json: link 22 (n3 → n4) has no reverse direction",
        ),
        (
            format!("churn --topo {oneway} --traffic {m} --out {out}"),
            1,
            "oneway.json: link 22 (n3 → n4) has no reverse direction",
        ),
        (
            format!("deploy --topo {oneway} --weights {unit} --fail-link 22"),
            1,
            "oneway.json: link 22 (n3 → n4) has no reverse direction",
        ),
        // A network node c cannot be reached in, with demand a → c:
        // `simulate` used to panic, `evaluate` to drop the demand and
        // exit 0, `dtrd` to boot and then refuse its own snapshot.
        (
            format!("evaluate --topo {cut} --traffic {cut_m} --weights {cut_w}"),
            1,
            "cut.json: the links do not connect every node to every other",
        ),
        (
            format!("simulate --topo {cut} --traffic {cut_m} --weights {cut_w}"),
            1,
            "cut.json: the links do not connect every node to every other",
        ),
        (
            format!("dtrd --topo {cut} --traffic {cut_m} --weights {cut_w}"),
            2,
            "cut.json: the links do not connect every node to every other",
        ),
        // Files that used to load and panic at first use.
        (
            format!("evaluate --topo {t} --traffic {ragged} --weights {w}"),
            1,
            "ragged.json: traffic matrix",
        ),
        (
            format!("evaluate --topo {dangling} --traffic {m} --weights {w}"),
            1,
            "dangling.json: topology",
        ),
        // Weight files that used to route around zero-weight cycles and
        // exit 0; a search that continues from the file also holds it to
        // its own weight range.
        (
            format!("evaluate --topo {t} --traffic {m} --weights {zero}"),
            1,
            "zero.json: high weight 0 on link 0",
        ),
        (
            format!("simulate --topo {t} --traffic {m} --weights {zero}"),
            1,
            "zero.json: high weight 0 on link 0",
        ),
        (
            format!("deploy --topo {t} --weights {zero}"),
            1,
            "zero.json: high weight 0 on link 0",
        ),
        (
            format!("reopt --topo {t} --traffic {m} --weights {zero} --changes 2 --out {out}"),
            1,
            "zero.json: high weight 0 on link 0",
        ),
        (
            format!("robust --topo {t} --traffic {m} --weights {zero} --out {out}"),
            1,
            "zero.json: high weight 0 on link 0",
        ),
        (
            format!("replay --trace {trace} --weights {zero} --out {out}"),
            1,
            "zero.json: high weight 0 on link 0",
        ),
        (
            format!("dtrd --topo {t} --traffic {m} --weights {zero}"),
            2,
            "zero.json: high weight 0 on link 0",
        ),
        (
            format!("reopt --topo {t} --traffic {m} --weights {heavy} --changes 2 --out {out}"),
            1,
            "heavy.json: high weight 31 on link 31 must be in 1..=30",
        ),
        (
            format!("dtrd --topo {t} --traffic {m} --weights {heavy}"),
            2,
            "heavy.json: high weight 31 on link 31",
        ),
        // Typos that used to run the defaults and exit 0.
        (
            format!("optimize --topo {t} --traffic {m} --out {out} --budgte paper"),
            2,
            "--budgte (did you mean --budget?)",
        ),
        (
            format!("{traffic} --sead 9"),
            2,
            "--sead (did you mean --seed?)",
        ),
        (
            format!("topo random --bogus-flag 3 --out {out}"),
            2,
            "--bogus-flag",
        ),
        (
            format!("topo random --seed 1 --seed 2 --out {out}"),
            2,
            "--seed is given twice",
        ),
        (
            format!("evaluate --topo {t} --traffic {m} --weights {w} stray"),
            2,
            "\"stray\"",
        ),
        (
            format!("dtrd --topo {t} --traffic {m} --budgte quick"),
            2,
            "--budgte",
        ),
    ] {
        let done = run_line(&line);
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(code), "{line}: {stderr}");
        assert!(stderr.contains(token), "{line}: {stderr}");
        assert!(!Path::new(&out).exists(), "{line} wrote its --out");
    }
}

/// The search names are the strategy table's and nothing else: a
/// removed or misspelt scheme, an empty `--portfolio` name (a trailing,
/// leading or doubled comma), and a removed second spelling of an input
/// are usage errors naming what remains, decided before the missing
/// files are opened.
#[test]
fn search_names_outside_the_strategy_table_are_usage_errors() {
    let out = scratch("names").join("w.json").display().to_string();
    let optimize = format!("optimize --topo t.json --traffic m.json --out {out}");
    let schemes = "(expected dtr|str|anneal-str|anneal-dtr)";
    let arms = "(descent|anneal)";
    for (flags, token) in [
        ("--scheme ga", format!("\"ga\" {schemes}")),
        ("--scheme memetic", format!("\"memetic\" {schemes}")),
        ("--portfolio ga", format!("\"ga\" {arms}")),
        ("--portfolio descent,memetic", format!("\"memetic\" {arms}")),
        ("--portfolio descent,", format!("\"\" {arms}")),
        ("--portfolio ,anneal", format!("\"\" {arms}")),
        ("--portfolio descent,,anneal", format!("\"\" {arms}")),
        ("--portfolio ,", format!("\"\" {arms}")),
        // `robust`, `--objective sla:MS` and `--backend incremental` are
        // the one spelling of each.
        ("--robust", "unknown flag --robust".to_string()),
        (
            "--objective sla --sla-bound-ms 25",
            "unknown flag --sla-bound-ms".to_string(),
        ),
        (
            "--backend incr",
            "\"incr\" (expected incremental|full)".to_string(),
        ),
    ] {
        let line = format!("{optimize} {flags}");
        let done = run_line(&line);
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains(&token), "{line}: {stderr}");
        assert!(
            stderr.contains("usage: dtrctl optimize"),
            "{line}: {stderr}"
        );
        assert!(!Path::new(&out).exists(), "{line} wrote its --out");
    }
}

/// `dtrctl topo random --nodes 8 --links 24 --seed 3` with link 23
/// (n4 → n3) dropped, so link 22 (n3 → n4) has no reverse direction,
/// and a unit weight file for it: `[topology, weights]` under `dir`.
fn one_way_instance(dir: &Path) -> [String; 2] {
    let [full, oneway, unit] =
        ["duplex.json", "oneway.json", "unit.json"].map(|f| dir.join(f).display().to_string());
    let done = run_line(&format!(
        "topo random --nodes 8 --links 24 --seed 3 --out {full}"
    ));
    assert!(done.status.success(), "{done:?}");
    let full: Topology = serde_json::from_str(&std::fs::read_to_string(full).unwrap()).unwrap();
    let mut b = TopologyBuilder::new();
    b.add_nodes(full.node_count());
    for (_, l) in full.links().filter(|(lid, _)| lid.index() != 23) {
        b.add_link(l.src, l.dst, l.capacity, l.prop_delay);
    }
    let topo = b.build().expect("still strongly connected");
    std::fs::write(&oneway, serde_json::to_string(&topo).unwrap()).unwrap();
    let v = vec![1; topo.link_count()];
    std::fs::write(&unit, format!("{{\"high\":{v:?},\"low\":{v:?}}}")).unwrap();
    [oneway, unit]
}

/// A 3-node network with a ↔ b and a one-way c → b, so nothing reaches
/// c, a high demand a → c, and unit weights: `[topology, traffic,
/// weights]` under `dir`. Written by hand, because `TopologyBuilder`
/// refuses to build it.
fn disconnected_instance(dir: &Path) -> [String; 3] {
    let [topo, traffic, weights] =
        ["cut.json", "cut-m.json", "cut-w.json"].map(|f| dir.join(f).display().to_string());
    let link = |src: u32, dst: u32| {
        format!("{{\"src\":{src},\"dst\":{dst},\"capacity\":100.0,\"prop_delay\":0.001}}")
    };
    let links = [link(0, 1), link(1, 0), link(2, 1)].join(",");
    let text = format!(
        "{{\"node_count\":3,\"links\":[{links}],\"out_links\":[[0],[1],[2]],\
         \"in_links\":[[1],[0,2],[]],\"names\":[\"a\",\"b\",\"c\"]}}"
    );
    std::fs::write(&topo, text).unwrap();
    let matrix = |ac: f64| format!("{{\"n\":3,\"data\":[0.0,0.0,{ac:?},0.0,0.0,0.0,0.0,0.0,0.0]}}");
    let demands = format!("{{\"high\":{},\"low\":{}}}", matrix(10.0), matrix(0.0));
    std::fs::write(&traffic, demands).unwrap();
    std::fs::write(&weights, "{\"high\":[1,1,1],\"low\":[1,1,1]}").unwrap();
    [topo, traffic, weights]
}

/// What a perturbed flag is given instead of its value; the first entry
/// misspells the flag's name instead.
const HOSTILE: [&str; 8] = [
    "<typo>",
    "many",
    "0",
    "-1",
    "nan",
    "inf",
    "1e308",
    "18446744073709551615",
];

/// Valid, cheap invocations with every numeric flag spelled out.
fn cheap_lines() -> Vec<String> {
    let (dir, [t, m, w]) = instance();
    let out = dir.join("fuzz-out.json").display().to_string();
    vec![
        format!("topo random --nodes 8 --links 32 --seed 1 --out {out}"),
        format!(
            "traffic --topo {t} --f 0.3 --k 0.1 --scale 3 --seed 1 --model sink-uniform \
             --sinks 2 --out {out}"
        ),
        format!(
            "churn --topo {t} --traffic {m} --events 8 --seed 1 --flap-rate 0.3 --repair-rate 1 \
             --demand-rate 1 --whatif-rate 0.2 --directed-flap-rate 0.1 --burst-rate 0.5 \
             --burst-max 3 --drift 0.08 --out {out}"
        ),
        format!("evaluate --topo {t} --traffic {m} --weights {w} --objective sla:25 --classes 2"),
        format!("deploy --topo {t} --weights {w} --fail-link 3"),
        format!(
            "simulate --topo {t} --traffic {m} --weights {w} --duration 0.05 --warmup 0.01 \
             --seed 1"
        ),
        format!(
            "upgrade --topo {t} --traffic {m} --budget 1 --search tiny --probe tiny --seed 1 \
             --swap-passes 0 --portfolio descent --restarts 1 --workers 1"
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_hostile_flag_never_panics(line in 0usize..7, flag in 0usize..16, value in 0usize..8) {
        let line = &cheap_lines()[line];
        let mut words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let flags: Vec<usize> = (0..words.len()).filter(|&i| words[i].starts_with("--")).collect();
        let at = flags[flag % flags.len()];
        match HOSTILE[value] {
            "<typo>" => words[at].insert(3, 'x'),
            hostile => words[at + 1] = hostile.to_string(),
        }
        let done = run_line(&words.join(" "));
        let code = done.status.code();
        let stderr = String::from_utf8_lossy(&done.stderr);
        prop_assert!(matches!(code, Some(0..=2)), "{words:?} exited {code:?}: {stderr}");
        if HOSTILE[value] == "<typo>" {
            prop_assert!(code == Some(2), "{words:?} exited {code:?}: {stderr}");
        }
    }
}
