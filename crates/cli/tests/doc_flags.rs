//! README.md and docs/ cannot drift from the command table: every
//! `dtrctl …` / `dtrd …` invocation they show names only flags its row
//! declares, every example line (as opposed to a bracketed synopsis)
//! parses against its row, and docs/OPERATIONS.md's `dtrd` synopsis
//! lists exactly the flags `dtrd` takes.

use dtr_cli::args::{Args, Command};
use dtr_cli::table::{COMMANDS, DTRD};
use std::collections::BTreeSet;

fn doc(path: &str) -> String {
    let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The command lines of every fenced code block: continuation lines
/// joined, trailing `# comments` dropped.
fn block_lines(doc: &str) -> Vec<String> {
    let (mut lines, mut open, mut pending) = (Vec::new(), false, String::new());
    for line in doc.lines() {
        if line.starts_with("```") {
            open = !open;
            continue;
        }
        if !open {
            continue;
        }
        let code = line.split("  #").next().unwrap_or(line).trim();
        pending.push_str(code.trim_end_matches('\\'));
        pending.push(' ');
        if !code.ends_with('\\') {
            lines.push(std::mem::take(&mut pending));
        }
    }
    lines
}

/// The text of every inline `` `code span` `` outside fenced blocks.
fn code_spans(doc: &str) -> Vec<String> {
    let mut spans = Vec::new();
    let mut open = false;
    for line in doc.lines() {
        if line.starts_with("```") {
            open = !open;
        } else if !open {
            spans.extend(line.split('`').skip(1).step_by(2).map(str::to_string));
        }
    }
    spans
}

/// The row a shown command line invokes and its arguments: `dtrctl
/// CMD …`, `dtrd …`, or either behind `cargo run … -p dtr-cli … --`.
fn invocation(line: &str) -> Option<(&'static Command, Vec<String>)> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let (daemon, args) = match words.as_slice() {
        ["dtrctl", args @ ..] => (false, args),
        ["dtrd", args @ ..] => (true, args),
        ["cargo", "run", rest @ ..] => {
            let split = rest.iter().position(|w| *w == "--")?;
            let (cargo, args) = (&rest[..split], &rest[split + 1..]);
            let daemon = cargo.windows(2).any(|w| w == ["--bin", "dtrd"]);
            let ours = cargo.windows(2).any(|w| w == ["-p", "dtr-cli"]);
            assert!(
                ours || !daemon,
                "dtrd is a binary of dtr-cli, not of another package: {line}"
            );
            if !ours {
                return None;
            }
            (daemon, args)
        }
        _ => return None,
    };
    let owned = |args: &[&str]| args.iter().map(|w| w.to_string()).collect();
    if daemon {
        return Some((&DTRD, owned(args)));
    }
    let (name, args) = args.split_first()?;
    let row = COMMANDS.iter().find(|row| row.name == *name)?;
    Some((row, owned(args)))
}

/// The names of the `--flag` words in `args`, brackets ignored.
fn shown_flags(args: &[String]) -> BTreeSet<String> {
    let words = args
        .iter()
        .map(|w| w.trim_matches(['[', ']', '(', ')', ',', '.']));
    let flags = words.filter_map(|w| w.strip_prefix("--"));
    flags
        .map(|f| f.split('=').next().unwrap_or(f).to_string())
        .collect()
}

fn assert_declared(row: &Command, args: &[String], shown: &str) {
    for flag in shown_flags(args) {
        let declared = row.flags().any(|f| f.name == flag);
        assert!(declared, "`{}` takes no --{flag}: {shown}", row.name);
    }
}

#[test]
fn every_shown_invocation_uses_declared_flags_and_every_example_parses() {
    let mut examples = 0;
    for path in ["README.md", "docs/OPERATIONS.md", "docs/PROTOCOL.md"] {
        let doc = doc(path);
        for line in block_lines(&doc) {
            let Some((row, args)) = invocation(&line) else {
                continue;
            };
            assert_declared(row, &args, &line);
            // A bracketed synopsis is not a command line; an example is.
            if !line.contains('[') {
                let parsed = Args::parse(row, args);
                assert!(parsed.is_ok(), "{path}: `{line}`: {}", parsed.unwrap_err());
                examples += 1;
            }
        }
        for span in code_spans(&doc) {
            if let Some((row, args)) = invocation(&span) {
                assert_declared(row, &args, &span);
            }
        }
    }
    assert!(examples >= 15, "only {examples} example lines found");
}

#[test]
fn the_operations_runbook_shows_exactly_the_daemons_flags() {
    let doc = doc("docs/OPERATIONS.md");
    let synopsis = block_lines(&doc)
        .into_iter()
        .find(|line| line.starts_with("dtrd ") && line.contains('['))
        .expect("a bracketed dtrd synopsis");
    let (_, args) = invocation(&synopsis).expect("a dtrd line");
    let taken: BTreeSet<String> = DTRD.flags().map(|f| f.name.to_string()).collect();
    assert_eq!(
        shown_flags(&args),
        taken,
        "the synopsis and the dtrd row disagree"
    );
    // The runbook's prose tunes the daemon (and points at `replay`).
    let replay = COMMANDS.iter().find(|row| row.name == "replay").unwrap();
    for span in code_spans(&doc)
        .iter()
        .filter(|span| span.starts_with("--"))
    {
        let words: Vec<String> = span.split_whitespace().map(str::to_string).collect();
        for flag in shown_flags(&words) {
            let known = DTRD.flags().chain(replay.flags()).any(|f| f.name == flag);
            assert!(known, "neither dtrd nor replay takes --{flag} (`{span}`)");
        }
    }
}
