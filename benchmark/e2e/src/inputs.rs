//! What each workload feeds the programs: corpus manifests, generator
//! flags and sizes, all derived from the one `--seed`.

use crate::json::{f, obj, s, u};
use serde::Value;

pub const WORKLOADS: [&str; 4] = [
    "search-scale",
    "corpus-mixed",
    "daemon-steady",
    "daemon-burst",
];

/// Seed of item `tag` of a workload: a SplitMix64 finalizer, folded to
/// six digits so generated file names and flags stay readable.
pub fn derive(seed: u64, workload: &str, tag: u64) -> u64 {
    let w = WORKLOADS
        .iter()
        .position(|n| *n == workload)
        .expect("known workload") as u64;
    let mut z = seed.wrapping_add((w * 64 + tag + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000
}

/// FNV-1a over the generated inputs, printed as `workload_fingerprint`:
/// two results are comparable only when the programs saw the same bytes.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A separator, so ["ab","c"] and ["a","bc"] differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One corpus manifest (`dtr_scenario::ScenarioSpec` as JSON).
pub struct Manifest {
    pub name: String,
    pub body: Value,
    /// `dtrctl validate` also runs this instance.
    pub validated: bool,
}

fn sla(bound_ms: f64) -> Value {
    obj([(
        "Sla",
        obj([
            ("bound_s", f(bound_ms / 1000.0)),
            ("penalty_a", f(100.0)),
            ("penalty_b", f(1.0)),
            ("delay", obj([("packet_size_bits", f(8000.0))])),
        ]),
    )])
}

fn objective(classes: Vec<Value>) -> Value {
    obj([("classes", Value::Seq(classes))])
}

fn random(nodes: u64, links: u64, seed: u64) -> Value {
    obj([(
        "Random",
        obj([("nodes", u(nodes)), ("links", u(links)), ("seed", u(seed))]),
    )])
}

fn waxman(nodes: u64, links: u64, seed: u64) -> Value {
    obj([(
        "Waxman",
        obj([
            ("nodes", u(nodes)),
            ("links", u(links)),
            ("beta", f(0.6)),
            ("seed", u(seed)),
        ]),
    )])
}

fn fat_tree(pods: u64) -> Value {
    obj([("FatTree", obj([("pods", u(pods))]))])
}

/// Gravity traffic at `scale`; `upper` lists (fraction, density) of the
/// priority classes above the base for k ≥ 3 instances.
fn gravity(scale: f64, seed: u64, upper: &[(f64, f64)]) -> Value {
    let mut t = vec![
        ("family".to_string(), s("Gravity")),
        ("f".to_string(), f(0.3)),
        ("k".to_string(), f(0.1)),
        ("scale".to_string(), f(scale)),
        ("seed".to_string(), u(seed)),
    ];
    if !upper.is_empty() {
        let col =
            |pick: fn(&(f64, f64)) -> f64| Value::Seq(upper.iter().map(|p| f(pick(p))).collect());
        t.push(("fractions".to_string(), col(|p| p.0)));
        t.push(("densities".to_string(), col(|p| p.1)));
    }
    Value::Map(t)
}

fn manifest(name: &str, topology: Value, traffic: Value, budget: &str, seed: u64) -> Manifest {
    Manifest {
        name: name.to_string(),
        body: Value::Map(vec![
            ("name".to_string(), s(name)),
            ("topology".to_string(), topology),
            ("traffic".to_string(), traffic),
            (
                "search".to_string(),
                obj([("budget", s(budget)), ("seed", u(seed))]),
            ),
        ]),
        validated: true,
    }
}

impl Manifest {
    fn with(mut self, key: &str, value: Value) -> Self {
        let Value::Map(entries) = &mut self.body else {
            unreachable!("manifests are objects")
        };
        entries.push((key.to_string(), value));
        self
    }

    fn search_flag(mut self, key: &str, value: Value) -> Self {
        let Value::Map(entries) = &mut self.body else {
            unreachable!("manifests are objects")
        };
        let search = entries
            .iter_mut()
            .find(|(k, _)| k == "search")
            .expect("search spec");
        let Value::Map(flags) = &mut search.1 else {
            unreachable!("search spec is an object")
        };
        flags.push((key.to_string(), value));
        self
    }

    fn not_validated(mut self) -> Self {
        self.validated = false;
        self
    }
}

/// `search-scale`: k = 2 load objective, no failures, no portfolio —
/// the incremental engine and the proposal kernel do all the work.
pub fn search_scale_corpus(seed: u64, smoke: bool) -> Vec<Manifest> {
    let sd = |tag| derive(seed, "search-scale", tag);
    if smoke {
        return vec![
            manifest(
                "a-random12",
                random(12, 48, sd(1)),
                gravity(3.0, sd(1), &[]),
                "tiny",
                sd(1),
            ),
            manifest(
                "b-fattree4",
                fat_tree(4),
                gravity(3.0, sd(2), &[]),
                "tiny",
                sd(2),
            ),
        ];
    }
    vec![
        manifest(
            "a-random50",
            random(50, 200, sd(1)),
            gravity(2.4, sd(1), &[]),
            "quick",
            sd(1),
        ),
        manifest(
            "b-waxman100",
            waxman(100, 400, sd(2)),
            gravity(2.0, sd(2), &[]),
            "quick",
            sd(2),
        ),
        manifest(
            "c-fattree8",
            fat_tree(8),
            gravity(4.0, sd(3), &[]),
            "quick",
            sd(3),
        ),
        manifest(
            "d-waxman150",
            waxman(150, 600, sd(4)),
            gravity(2.0, sd(4), &[]),
            "tiny",
            sd(4),
        ),
    ]
}

/// `corpus-mixed`: the instance kinds that leave the two-class
/// incremental engine — k-class SLA objectives (`dtr-multi`), partial
/// deployment, a failure sweep and the portfolio. The partial instance
/// is not validated: at this budget its incumbent may trap demand in a
/// cross-topology loop, which `dtrctl validate` refuses to simulate.
pub fn corpus_mixed_corpus(seed: u64, smoke: bool) -> Vec<Manifest> {
    let sd = |tag| derive(seed, "corpus-mixed", tag);
    let (big, small) = if smoke { (12, 12) } else { (30, 20) };
    let upgraded = Value::Seq((0..small / 2).map(|i| u(2 * i)).collect());
    vec![
        manifest(
            "a-waxman-k3sla",
            waxman(big, 4 * big, sd(1)),
            gravity(2.0, sd(1), &[(0.15, 0.2), (0.15, 0.2)]),
            "tiny",
            sd(1),
        )
        .with(
            "objective",
            objective(vec![sla(25.0), sla(50.0), s("Load")]),
        ),
        manifest(
            "b-random-k4sla",
            random(small, 4 * small, sd(2)),
            gravity(2.0, sd(2), &[(0.1, 0.2), (0.1, 0.2), (0.1, 0.2)]),
            "tiny",
            sd(2),
        )
        .with(
            "objective",
            objective(vec![sla(20.0), sla(40.0), sla(80.0), s("Load")]),
        ),
        manifest(
            "c-waxman-k2sla",
            waxman(big, 4 * big, sd(3)),
            gravity(2.0, sd(3), &[]),
            "tiny",
            sd(3),
        )
        .with("objective", objective(vec![sla(25.0), s("Load")])),
        manifest(
            "d-random-partial",
            random(small, 4 * small, sd(4)),
            gravity(2.0, sd(4), &[]),
            "tiny",
            sd(4),
        )
        .with("deployment", obj([("upgraded", upgraded)]))
        .not_validated(),
        manifest(
            "e-random-failures",
            random(small, 4 * small, sd(5)),
            gravity(2.0, sd(5), &[]),
            "tiny",
            sd(5),
        )
        .with("failures", s("AllSingleDuplex")),
        manifest(
            "f-xpander-portfolio",
            obj([(
                "Xpander",
                obj([
                    ("degree", u(4)),
                    ("lifts", u(if smoke { 1 } else { 2 })),
                    ("seed", u(sd(6))),
                ]),
            )]),
            gravity(2.0, sd(6), &[]),
            "tiny",
            sd(6),
        )
        .search_flag("portfolio", Value::Bool(true)),
    ]
}

/// The instance `dtrctl upgrade` plans on: the 16-node ISP backbone
/// (`Random` 12 nodes under `--smoke`). Kept in a directory of its own
/// so the suite does not run it.
pub fn upgrade_manifest(seed: u64, smoke: bool) -> Manifest {
    let sd = derive(seed, "corpus-mixed", 7);
    let topology = if smoke { random(12, 48, sd) } else { s("Isp") };
    manifest("g-upgrade", topology, gravity(3.0, sd, &[]), "tiny", sd).not_validated()
}

/// Sizes of a daemon workload.
pub struct DaemonShape {
    pub nodes: u64,
    pub links: u64,
    pub demand_scale: f64,
    /// Length of each session's churn trace; the writer cycles it while
    /// time remains.
    pub events: u64,
    /// Bursts (events sharing a timestamp) at the head of the trace that
    /// make a session's fixed unit of work, the one `wall_s` times.
    pub unit_bursts: usize,
    /// The run also lasts until this many probes were answered, over
    /// all its sessions (`daemon-burst` only).
    pub min_probes: usize,
    pub probe_interval_ms: u64,
}

/// Both daemon workloads run on the same small network. Every reply to
/// a closed-loop client waits 40 ms and more for a delayed ACK
/// (`daemon.tcp_overhead_ms`); an event must compute in well under half
/// of that, or the client kernel's estimate of the reply gaps, and with
/// it the wait, starts to follow every swing of the host's speed.
pub fn daemon_shape(workload: &str, smoke: bool) -> DaemonShape {
    let burst = workload == "daemon-burst";
    let shape = DaemonShape {
        nodes: 6,
        links: 24,
        demand_scale: 2.0,
        events: if burst { 200 } else { 100 },
        // Over four sessions that is 200 writer lines at the very least.
        unit_bursts: if burst { 50 } else { 80 },
        min_probes: 250,
        probe_interval_ms: 50,
    };
    if smoke {
        DaemonShape {
            events: 10,
            unit_bursts: 3,
            min_probes: 20,
            ..shape
        }
    } else {
        shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{at, line, uint};

    #[test]
    fn every_workload_item_gets_its_own_seed() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            // Eight tags for each of a daemon workload's four sessions.
            for tag in 0..32 {
                assert!(seen.insert(derive(11, w, tag)), "{w}/{tag} collides");
            }
        }
        assert_ne!(derive(11, "search-scale", 1), derive(12, "search-scale", 1));
        assert_eq!(derive(11, "daemon-burst", 3), derive(11, "daemon-burst", 3));
    }

    #[test]
    fn the_seed_reaches_every_manifest_seed() {
        for (a, b) in search_scale_corpus(11, false)
            .iter()
            .chain(&corpus_mixed_corpus(11, false))
            .zip(
                search_scale_corpus(12, false)
                    .iter()
                    .chain(&corpus_mixed_corpus(12, false)),
            )
        {
            assert_eq!(a.name, b.name);
            assert_ne!(line(&a.body), line(&b.body), "{} ignores the seed", a.name);
            assert_ne!(
                uint(at(&a.body, &["search", "seed"])),
                uint(at(&b.body, &["search", "seed"]))
            );
        }
    }

    #[test]
    fn fingerprint_separates_chunk_boundaries() {
        let hex = |chunks: &[&str]| {
            let mut fp = Fingerprint::new();
            chunks.iter().for_each(|c| fp.feed(c.as_bytes()));
            fp.hex()
        };
        assert_ne!(hex(&["ab", "c"]), hex(&["a", "bc"]));
        assert_eq!(hex(&["ab", "c"]), hex(&["ab", "c"]));
    }
}
