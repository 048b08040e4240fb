//! Table-driven argument parsing. A [`Flag`] is declared once with its
//! kind and valid range; a [`Command`] row lists the flags it accepts;
//! [`Args::parse`] checks a command line against its row from argv
//! alone, before any file is opened; usage text is rendered from the
//! same rows, so an accepted flag and a documented flag are one set.

use std::fmt;
use std::ops::{Bound, RangeBounds};

/// What values a flag takes.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Present or absent; takes no value (`--smoke`).
    Switch,
    /// Free text: a path, a name, a comma list.
    Text,
    /// One of a fixed set of spellings.
    Choice(&'static [&'static str]),
    /// An unsigned integer in `min..=max`.
    Int(u64, u64),
    /// A number between the two bounds. NaN is never in range.
    Float(Bound<f64>, Bound<f64>),
    /// Text with a syntax of its own, checked by the given function.
    Parsed(fn(&str) -> Result<(), String>),
}

/// One `--flag`, declared once and shared by every row that takes it.
#[derive(Debug)]
pub struct Flag {
    /// The name, without `--`.
    pub name: &'static str,
    /// The values it takes.
    pub kind: Kind,
    /// What usage shows after the name: the default where there is one
    /// (`0.3`), a placeholder otherwise (`N`). Unused by switches and
    /// choices.
    pub value: &'static str,
}

impl Flag {
    /// The flag as one usage item: `--nodes N`, `--backend a|b`, `--smoke`.
    fn usage(&self) -> String {
        match self.kind {
            Kind::Switch => format!("--{}", self.name),
            Kind::Choice(names) => format!("--{} {}", self.name, names.join("|")),
            _ => format!("--{} {}", self.name, self.value),
        }
    }

    /// Checks one value against the flag's kind and range.
    fn check(&self, value: &str) -> Result<(), ArgError> {
        let name = self.name;
        let bad = || ArgError(format!("could not parse value {value:?} for --{name}"));
        let need = |what: String| ArgError(format!("invalid value for --{name}: {what}"));
        match self.kind {
            Kind::Switch | Kind::Text => Ok(()),
            Kind::Choice(names) if names.contains(&value) => Ok(()),
            Kind::Choice(names) => Err(need(format!(
                "unknown value {value:?} (expected {})",
                names.join("|")
            ))),
            Kind::Int(min, max) => match value.parse::<u64>().map_err(|_| bad())? {
                v if (min..=max).contains(&v) => Ok(()),
                v if max == u64::MAX => Err(need(format!("{v} — need an integer ≥ {min}"))),
                v => Err(need(format!("{v} — need an integer in {min}..={max}"))),
            },
            Kind::Float(lo, hi) => match value.parse::<f64>().map_err(|_| bad())? {
                v if (lo, hi).contains(&v) => Ok(()),
                v => Err(need(format!("{v} — need a number {}", range_text(lo, hi)))),
            },
            Kind::Parsed(check) => check(value).map_err(need),
        }
    }
}

/// A float range as a reader writes it: `in (0, 1000000]`, or, with no
/// finite top (`f64::MAX` or ∞), just its floor: `> 0`, `≥ 0`.
fn range_text(lo: Bound<f64>, hi: Bound<f64>) -> String {
    let floor = match lo {
        Bound::Included(l) => Some(('[', "≥", l)),
        Bound::Excluded(l) => Some(('(', ">", l)),
        Bound::Unbounded => None,
    };
    let top = match hi {
        Bound::Included(h) if h < f64::MAX => Some((h, ']')),
        Bound::Excluded(h) if h < f64::MAX => Some((h, ')')),
        _ => None,
    };
    match (floor, top) {
        (Some((open, _, l)), Some((h, close))) => format!("in {open}{l}, {h}{close}"),
        (None, Some((h, close))) => format!("in (-∞, {h}{close}"),
        (Some((_, cmp, l)), None) => format!("{cmp} {l}"),
        (None, None) => "at all".to_string(),
    }
}

/// One row of the command table.
pub struct Command {
    /// The subcommand word (`dtrd` for the daemon binary's one row).
    pub name: &'static str,
    /// Accepted values of the single optional positional word; empty
    /// when the command takes none.
    pub positional: &'static [&'static str],
    /// Flags that must be given.
    pub required: &'static [&'static Flag],
    /// Flags that may be given, in groups (a group is read by one
    /// function and shared between rows).
    pub optional: &'static [&'static [&'static Flag]],
    /// The prose paragraph `help` prints under the usage block.
    pub about: &'static str,
    /// Executes the parsed command line.
    pub run: fn(&Args) -> Result<(), crate::CliError>,
}

impl Command {
    /// Every flag the row accepts, required ones first.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        let optional = self.optional.iter().flat_map(|group| group.iter());
        self.required.iter().chain(optional).copied()
    }

    /// The usage block: the invocation, then every flag, wrapped.
    pub fn usage(&self) -> String {
        let mut items = match self.name {
            "dtrd" => vec!["dtrd".to_string()],
            name => vec![format!("dtrctl {name}")],
        };
        if !self.positional.is_empty() {
            items.push(format!("[{}]", self.positional.join("|")));
        }
        items.extend(self.required.iter().map(|f| f.usage()));
        let optional = self.optional.iter().flat_map(|group| group.iter());
        items.extend(optional.map(|f| format!("[{}]", f.usage())));
        wrap(items.iter().map(String::as_str), "       ")
    }
}

/// Joins `items` with spaces, breaking before the one that would cross
/// column 78 and starting each later line with `indent`.
pub fn wrap<'a>(items: impl Iterator<Item = &'a str>, indent: &str) -> String {
    let (mut text, mut width) = (String::new(), 0);
    for item in items {
        let len = item.chars().count();
        if width > 0 && width + 1 + len > 78 {
            text.push('\n');
            text.push_str(indent);
            width = indent.len();
        } else if width > 0 {
            text.push(' ');
            width += 1;
        }
        text.push_str(item);
        width += len;
    }
    text
}

/// A usage error: the message names the offending token. Everything
/// that returns one is decidable from argv alone and exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Levenshtein distance, for "did you mean".
fn distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitute = diagonal + usize::from(ca != *cb);
            diagonal = row[j + 1];
            row[j + 1] = substitute.min(diagonal + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// A command line checked against its row.
#[derive(Debug)]
pub struct Args {
    /// The positional word, if one was given.
    pub positional: Option<String>,
    given: Vec<(&'static Flag, String)>,
}

impl Args {
    /// Checks raw tokens (without program name and subcommand) against
    /// `row`: every flag declared by the row and given once, every
    /// value of its flag's kind and in range, no `--switch=value`, at
    /// most the one positional word the row allows, every required flag
    /// present.
    pub fn parse<I: IntoIterator<Item = String>>(
        row: &Command,
        tokens: I,
    ) -> Result<Args, ArgError> {
        let mut args = Args {
            positional: None,
            given: Vec::new(),
        };
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            let Some(body) = tok.strip_prefix("--") else {
                if args.positional.is_some() || !row.positional.contains(&tok.as_str()) {
                    return Err(ArgError(format!("unexpected argument {tok:?}")));
                }
                args.positional = Some(tok);
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (body, None),
            };
            let Some(flag) = row.flags().find(|f| f.name == name) else {
                let nearest = row.flags().map(|f| (distance(name, f.name), f.name)).min();
                return Err(ArgError(match nearest {
                    Some((d, near)) if d <= 2 => {
                        format!("unknown flag --{name} (did you mean --{near}?)")
                    }
                    _ => format!("unknown flag --{name}"),
                }));
            };
            if args.get(flag).is_some() {
                return Err(ArgError(format!("flag --{name} is given twice")));
            }
            let value = match (flag.kind, inline) {
                // `--smoke=false` would otherwise read as "smoke
                // requested", so the form is rejected outright.
                (Kind::Switch, Some(value)) => {
                    return Err(ArgError(format!(
                        "--{name} is a boolean switch and takes no value: drop `={value}` — \
                         the switch's presence alone means true, its absence means false"
                    )))
                }
                (Kind::Switch, None) => String::new(),
                (_, Some(value)) => value,
                // A forgotten value (`--out` at the end of a line, or
                // before the next flag) stays a hard error. Negative
                // numbers are values, not flags.
                (_, None) => it
                    .next()
                    .filter(|next| !next.starts_with("--"))
                    .ok_or_else(|| ArgError(format!("flag --{name} needs a value")))?,
            };
            flag.check(&value)?;
            args.given.push((flag, value));
        }
        for flag in row.required {
            args.require(flag)?;
        }
        Ok(args)
    }

    /// The value given for `flag`, if any (the empty string for a switch).
    pub fn get(&self, flag: &Flag) -> Option<&str> {
        let found = self.given.iter().find(|(f, _)| f.name == flag.name);
        found.map(|(_, value)| value.as_str())
    }

    /// Whether a switch was given.
    pub fn on(&self, flag: &Flag) -> bool {
        self.get(flag).is_some()
    }

    /// A flag the command cannot run without.
    pub fn require(&self, flag: &Flag) -> Result<&str, ArgError> {
        let missing = || ArgError(format!("required flag --{} is missing", flag.name));
        self.get(flag).ok_or_else(missing)
    }

    /// The value of an `Int` or `Float` flag, if given.
    pub fn num<T: std::str::FromStr>(&self, flag: &Flag) -> Option<T> {
        let held = |v: &str| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{} holds {v:?}", flag.name))
        };
        self.get(flag).map(held)
    }

    /// The value of an `Int` or `Float` flag, or `default`.
    pub fn num_or<T: std::str::FromStr>(&self, flag: &Flag, default: T) -> T {
        self.num(flag).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Bound::{Excluded, Included};

    static NODES: Flag = Flag {
        name: "nodes",
        value: "30",
        kind: Kind::Int(1, 1000),
    };
    static DELTA: Flag = Flag {
        name: "delta",
        value: "D",
        kind: Kind::Float(Included(-10.0), Included(10.0)),
    };
    static SHARE: Flag = Flag {
        name: "share",
        value: "0.3",
        kind: Kind::Float(Excluded(0.0), Included(1.0)),
    };
    static BACKEND: Flag = Flag {
        name: "backend",
        value: "",
        kind: Kind::Choice(&["incremental", "full"]),
    };
    static SMOKE: Flag = Flag {
        name: "smoke",
        value: "",
        kind: Kind::Switch,
    };
    static OUT: Flag = Flag {
        name: "out",
        value: "PATH",
        kind: Kind::Text,
    };
    static ROW: Command = Command {
        name: "make",
        positional: &["random", "grid"],
        required: &[&OUT],
        optional: &[&[&NODES, &DELTA], &[&SHARE, &BACKEND, &SMOKE]],
        about: "",
        run: |_| Ok(()),
    };

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(&ROW, s.split_whitespace().map(str::to_string))
    }

    /// The message `s` is rejected with.
    fn error(s: &str) -> String {
        parse(s).unwrap_err().to_string()
    }

    #[test]
    fn parses_positional_flags_and_switches() {
        let a = parse("random --nodes 30 --out t.json --smoke --backend full").unwrap();
        assert_eq!(a.positional.as_deref(), Some("random"));
        assert_eq!(a.num::<usize>(&NODES), Some(30));
        assert_eq!(a.num_or(&DELTA, 2.5), 2.5);
        assert_eq!(a.get(&OUT), Some("t.json"));
        assert!(a.on(&SMOKE));
        assert_eq!(a.get(&BACKEND), Some("full"));
        // A trailing bare switch, and negative numbers as values.
        let b = parse("--out x --delta -3 --smoke").unwrap();
        assert_eq!(b.num::<f64>(&DELTA), Some(-3.0));
        assert!(b.on(&SMOKE) && b.positional.is_none());
        assert!(!parse("--out x").unwrap().on(&SMOKE));
    }

    #[test]
    fn switch_with_eq_value_is_rejected_with_a_clear_error() {
        // `--smoke=false` must not silently mean true (or anything).
        for spec in ["--smoke=false", "--smoke=true --out x", "--out x --smoke=0"] {
            let msg = error(spec);
            assert!(
                msg.contains("--smoke") && msg.contains("takes no value"),
                "{msg}"
            );
        }
        // Nor does a switch swallow the next word.
        assert_eq!(
            error("--out x --smoke true"),
            "unexpected argument \"true\""
        );
    }

    #[test]
    fn eq_form_assigns_non_switch_flags() {
        let a = parse("--nodes=30 --out=topo.json").unwrap();
        assert_eq!(a.num::<usize>(&NODES), Some(30));
        assert_eq!(a.get(&OUT), Some("topo.json"));
        // An empty value stays an (empty) value, not a switch.
        assert_eq!(parse("--out=").unwrap().get(&OUT), Some(""));
    }

    #[test]
    fn missing_values_and_required_flags_are_errors() {
        // A forgotten value must not silently become the next flag.
        assert_eq!(error("--out x --nodes"), "flag --nodes needs a value");
        assert_eq!(error("--smoke --out --nodes 3"), "flag --out needs a value");
        assert_eq!(error("--nodes 3"), "required flag --out is missing");
    }

    #[test]
    fn unknown_duplicate_and_surplus_tokens_are_errors() {
        assert_eq!(
            error("--out x --ndoes 3"),
            "unknown flag --ndoes (did you mean --nodes?)"
        );
        // Nothing within two edits: no suggestion, still named.
        assert_eq!(error("--out x --bogus-flag 3"), "unknown flag --bogus-flag");
        assert_eq!(
            error("--out x --nodes 3 --nodes=4"),
            "flag --nodes is given twice"
        );
        assert_eq!(error("random grid --out x"), "unexpected argument \"grid\"");
        assert_eq!(
            error("hypercube --out x"),
            "unexpected argument \"hypercube\""
        );
    }

    #[test]
    fn ill_typed_and_out_of_range_values_are_errors() {
        for spec in ["--nodes abc", "--nodes -1", "--delta 1.5.2"] {
            let msg = error(&format!("--out x {spec}"));
            assert!(msg.starts_with("could not parse value"), "{spec}: {msg}");
        }
        for spec in [
            "--nodes 0",
            "--nodes 1001",
            "--nodes 18446744073709551615",
            "--delta nan",
            "--delta inf",
            "--delta -10.5",
            "--delta 1e308",
            // An open end excludes its bound.
            "--share 0",
            "--backend fast",
        ] {
            let flag = spec.split(' ').next().unwrap();
            let msg = error(&format!("--out x {spec}"));
            assert!(
                msg.starts_with(&format!("invalid value for {flag}: ")),
                "{spec}: {msg}"
            );
        }
        // A closed end includes its bound.
        parse("--out x --share 1 --delta -10").unwrap();
        assert_eq!(
            error("--out x --share 2"),
            "invalid value for --share: 2 — need a number in (0, 1]"
        );
        assert_eq!(
            error("--out x --delta 11"),
            "invalid value for --delta: 11 — need a number in [-10, 10]"
        );
    }

    #[test]
    fn float_ranges_read_as_intervals_or_floors() {
        use Bound::{Excluded, Included};
        for (lo, hi, text) in [
            (Excluded(0.0), Included(1e6), "in (0, 1000000]"),
            (Included(0.0), Excluded(1.0), "in [0, 1)"),
            (Excluded(0.0), Included(f64::MAX), "> 0"),
            (Included(0.0), Included(f64::INFINITY), "≥ 0"),
        ] {
            assert_eq!(range_text(lo, hi), text);
        }
    }

    #[test]
    fn usage_lists_the_positional_and_every_flag() {
        assert_eq!(
            ROW.usage(),
            "dtrctl make [random|grid] --out PATH [--nodes 30] [--delta D] [--share 0.3]\n      \
             \x20[--backend incremental|full] [--smoke]"
        );
    }
}
