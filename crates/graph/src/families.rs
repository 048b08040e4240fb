//! Additional topology families beyond the paper's three (§5.1.1).
//!
//! The paper evaluates on random near-regular, Barabási–Albert and one
//! ISP backbone. These generators widen the library's reach for users
//! reproducing the experiments on other network shapes:
//!
//! - [`waxman_topology`] — the classic random *geometric* graph of
//!   Waxman: nodes scattered in the unit square, link probability
//!   decaying with distance, propagation delays proportional to the
//!   actual Euclidean length (unlike the paper's families, delay and
//!   adjacency are correlated, which matters for the SLA objective);
//! - [`hierarchical_topology`] — a two-level core/edge design (a meshed
//!   core ring, dual-homed edge nodes) emulating the metro/backbone
//!   split of regional ISPs;
//! - [`grid_topology`] — a rectangular grid (optionally a torus), the
//!   standard worst case for ECMP path diversity.
//!
//! All generators emit duplex links, default 500 Mbit/s capacities, and
//! are deterministic in their seed.

use crate::gen::{DEFAULT_CAPACITY_MBPS, SYNTH_DELAY_MAX_S, SYNTH_DELAY_MIN_S};
use crate::geo::rescale;
use crate::topology::{NodeId, Topology, TopologyBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Parameters for [`waxman_topology`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaxmanCfg {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of **directed** links (even, ≥ `2·nodes`).
    pub directed_links: usize,
    /// Waxman `β ∈ (0, 1]`: larger → long links more likely. The link
    /// probability is `exp(−d/(β·L))` with `L` the diameter of the unit
    /// square.
    pub beta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WaxmanCfg {
    fn default() -> Self {
        WaxmanCfg {
            nodes: 30,
            directed_links: 150,
            beta: 0.6,
            seed: 1,
        }
    }
}

/// Generates a Waxman random geometric topology with exactly
/// `cfg.directed_links` links. A random Hamiltonian cycle guarantees
/// strong connectivity; remaining duplex pairs are drawn by rejection
/// sampling with the Waxman acceptance probability. Delays are the
/// Euclidean lengths rescaled into the paper's 1.2–15 ms band.
pub fn waxman_topology(cfg: &WaxmanCfg) -> Topology {
    let n = cfg.nodes;
    assert!(n >= 3, "need at least 3 nodes");
    assert!(
        cfg.directed_links.is_multiple_of(2),
        "directed_links must be even (duplex pairs)"
    );
    assert!(cfg.beta > 0.0 && cfg.beta <= 1.0, "β must be in (0,1]");
    let pairs = cfg.directed_links / 2;
    assert!(
        pairs >= n,
        "need at least {n} duplex pairs for connectivity"
    );
    assert!(pairs <= n * (n - 1) / 2, "more links than a full mesh");

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    let dist = |a: usize, b: usize| -> f64 {
        let (dx, dy) = (pos[a].0 - pos[b].0, pos[a].1 - pos[b].1);
        (dx * dx + dy * dy).sqrt()
    };
    let diameter = 2f64.sqrt();
    let delay_of = |d: f64| rescale(d, 0.0, diameter, SYNTH_DELAY_MIN_S, SYNTH_DELAY_MAX_S);

    let mut b = TopologyBuilder::new();
    b.add_nodes(n);
    let mut adjacent = std::collections::HashSet::new();

    // Connectivity backbone.
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    for i in 0..n {
        let (x, y) = (perm[i], perm[(i + 1) % n]);
        b.add_duplex(
            NodeId(x as u32),
            NodeId(y as u32),
            DEFAULT_CAPACITY_MBPS,
            delay_of(dist(x, y)),
        );
        adjacent.insert((x.min(y), x.max(y)));
    }

    // Waxman rejection sampling for the remaining pairs.
    let mut remaining = pairs - n;
    let mut guard = 0usize;
    while remaining > 0 {
        guard += 1;
        assert!(guard < 10_000_000, "waxman sampling stuck (raise β?)");
        let x = rng.random_range(0..n);
        let y = rng.random_range(0..n);
        if x == y || adjacent.contains(&(x.min(y), x.max(y))) {
            continue;
        }
        let p = (-dist(x, y) / (cfg.beta * diameter)).exp();
        if !rng.random_bool(p.clamp(0.0, 1.0)) {
            continue;
        }
        b.add_duplex(
            NodeId(x as u32),
            NodeId(y as u32),
            DEFAULT_CAPACITY_MBPS,
            delay_of(dist(x, y)),
        );
        adjacent.insert((x.min(y), x.max(y)));
        remaining -= 1;
    }

    b.build().expect("waxman topology must validate")
}

/// Parameters for [`hierarchical_topology`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalCfg {
    /// Core (backbone) nodes; meshed as a ring plus chords.
    pub core_nodes: usize,
    /// Chord pairs added on top of the core ring (0 = plain ring).
    pub core_chords: usize,
    /// Edge (metro) nodes attached per core node, each dual-homed to its
    /// core node and the next one around the ring.
    pub edge_per_core: usize,
    /// Core link capacity (Mbit/s); edge links use the 500 Mbit/s
    /// default. Backbones are fatter than access in real designs.
    pub core_capacity_mbps: f64,
    /// RNG seed (delays and chord placement).
    pub seed: u64,
}

impl Default for HierarchicalCfg {
    fn default() -> Self {
        HierarchicalCfg {
            core_nodes: 6,
            core_chords: 3,
            edge_per_core: 4,
            core_capacity_mbps: 2.0 * DEFAULT_CAPACITY_MBPS,
            seed: 1,
        }
    }
}

/// Generates a two-level core/edge topology: core nodes `0..core_nodes`
/// form a ring with `core_chords` random chords; each core node carries
/// `edge_per_core` edge nodes, each dual-homed (to its core node and the
/// next core node clockwise) so no edge node is cut off by one failure.
pub fn hierarchical_topology(cfg: &HierarchicalCfg) -> Topology {
    let c = cfg.core_nodes;
    assert!(c >= 3, "need at least 3 core nodes");
    assert!(
        cfg.core_chords <= c * (c - 1) / 2 - c,
        "too many chords for the core size"
    );
    assert!(cfg.core_capacity_mbps > 0.0);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = TopologyBuilder::new();
    let total = c + c * cfg.edge_per_core;
    b.add_nodes(total);
    let delay = |rng: &mut StdRng| rng.random_range(SYNTH_DELAY_MIN_S..=SYNTH_DELAY_MAX_S);

    // Core ring.
    let mut adjacent = std::collections::HashSet::new();
    for i in 0..c {
        let j = (i + 1) % c;
        let d = delay(&mut rng);
        b.add_duplex(
            NodeId(i as u32),
            NodeId(j as u32),
            cfg.core_capacity_mbps,
            d,
        );
        adjacent.insert((i.min(j), i.max(j)));
    }
    // Random chords.
    let mut placed = 0;
    let mut guard = 0;
    while placed < cfg.core_chords {
        guard += 1;
        assert!(guard < 1_000_000, "chord placement stuck");
        let x = rng.random_range(0..c);
        let y = rng.random_range(0..c);
        if x == y || adjacent.contains(&(x.min(y), x.max(y))) {
            continue;
        }
        let d = delay(&mut rng);
        b.add_duplex(
            NodeId(x as u32),
            NodeId(y as u32),
            cfg.core_capacity_mbps,
            d,
        );
        adjacent.insert((x.min(y), x.max(y)));
        placed += 1;
    }

    // Dual-homed edge nodes: short local links.
    let mut next_id = c;
    for core in 0..c {
        for _ in 0..cfg.edge_per_core {
            let e = next_id;
            next_id += 1;
            let primary = core;
            let backup = (core + 1) % c;
            let d1 = rng.random_range(SYNTH_DELAY_MIN_S..=SYNTH_DELAY_MIN_S * 3.0);
            let d2 = rng.random_range(SYNTH_DELAY_MIN_S..=SYNTH_DELAY_MAX_S / 2.0);
            b.add_duplex(
                NodeId(e as u32),
                NodeId(primary as u32),
                DEFAULT_CAPACITY_MBPS,
                d1,
            );
            b.add_duplex(
                NodeId(e as u32),
                NodeId(backup as u32),
                DEFAULT_CAPACITY_MBPS,
                d2,
            );
        }
    }

    b.build().expect("hierarchical topology must validate")
}

/// Parameters for [`grid_topology`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCfg {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Wrap rows and columns around (torus). A torus is 4-regular and
    /// edge-transitive; a plain grid has distinguished borders.
    pub torus: bool,
    /// Uniform propagation delay for every link (seconds).
    pub delay_s: f64,
}

impl Default for GridCfg {
    fn default() -> Self {
        GridCfg {
            rows: 5,
            cols: 6,
            torus: false,
            delay_s: 0.002,
        }
    }
}

/// Generates a rows×cols grid (or torus) with duplex links. Node
/// `(r, c)` has index `r·cols + c`.
pub fn grid_topology(cfg: &GridCfg) -> Topology {
    assert!(
        cfg.rows >= 2 && cfg.cols >= 2,
        "grid needs both dimensions ≥ 2"
    );
    assert!(cfg.delay_s >= 0.0);
    if cfg.torus {
        assert!(
            cfg.rows >= 3 && cfg.cols >= 3,
            "a torus needs both dimensions ≥ 3 (wrap links would be parallel)"
        );
    }
    let id = |r: usize, c: usize| NodeId((r * cfg.cols + c) as u32);
    let mut b = TopologyBuilder::new();
    b.add_nodes(cfg.rows * cfg.cols);
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            if c + 1 < cfg.cols {
                b.add_duplex(id(r, c), id(r, c + 1), DEFAULT_CAPACITY_MBPS, cfg.delay_s);
            } else if cfg.torus {
                b.add_duplex(id(r, c), id(r, 0), DEFAULT_CAPACITY_MBPS, cfg.delay_s);
            }
            if r + 1 < cfg.rows {
                b.add_duplex(id(r, c), id(r + 1, c), DEFAULT_CAPACITY_MBPS, cfg.delay_s);
            } else if cfg.torus {
                b.add_duplex(id(r, c), id(0, c), DEFAULT_CAPACITY_MBPS, cfg.delay_s);
            }
        }
    }
    b.build().expect("grid topology must validate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waxman_matches_requested_size() {
        let t = waxman_topology(&WaxmanCfg::default());
        assert_eq!(t.node_count(), 30);
        assert_eq!(t.link_count(), 150);
        for (_, l) in t.links() {
            assert!(l.prop_delay >= SYNTH_DELAY_MIN_S - 1e-12);
            assert!(l.prop_delay <= SYNTH_DELAY_MAX_S + 1e-12);
        }
    }

    #[test]
    fn waxman_prefers_short_links() {
        // With a small β the sampled (non-backbone) links must be much
        // shorter on average than uniform pairs would be. Delay is a
        // proxy for length, so compare mean delay against the mid-band.
        let t = waxman_topology(&WaxmanCfg {
            beta: 0.1,
            directed_links: 180,
            ..Default::default()
        });
        let mean: f64 = t.links().map(|(_, l)| l.prop_delay).sum::<f64>() / t.link_count() as f64;
        let mid = 0.5 * (SYNTH_DELAY_MIN_S + SYNTH_DELAY_MAX_S);
        assert!(mean < mid, "mean delay {mean} not short-biased");
    }

    #[test]
    fn waxman_deterministic_in_seed() {
        let key = |t: &Topology| {
            t.links()
                .map(|(_, l)| (l.src, l.dst, l.prop_delay.to_bits()))
                .collect::<Vec<_>>()
        };
        let a = waxman_topology(&WaxmanCfg {
            seed: 4,
            ..Default::default()
        });
        let b = waxman_topology(&WaxmanCfg {
            seed: 4,
            ..Default::default()
        });
        let c = waxman_topology(&WaxmanCfg {
            seed: 5,
            ..Default::default()
        });
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn hierarchical_counts_and_capacities() {
        let cfg = HierarchicalCfg::default();
        let t = hierarchical_topology(&cfg);
        assert_eq!(t.node_count(), 6 + 6 * 4);
        // Links: core ring 6 + chords 3 + edges 24×2 dual-homed = 57 pairs.
        assert_eq!(t.link_count(), 2 * (6 + 3 + 24 * 2));
        let mut fat = 0;
        for (_, l) in t.links() {
            if l.capacity > DEFAULT_CAPACITY_MBPS {
                fat += 1;
            }
        }
        assert_eq!(fat, 2 * (6 + 3), "exactly the core links are fat");
    }

    #[test]
    fn hierarchical_edge_nodes_are_dual_homed() {
        let cfg = HierarchicalCfg::default();
        let t = hierarchical_topology(&cfg);
        for v in t.nodes().skip(cfg.core_nodes) {
            assert_eq!(t.degree(v), 4, "2 duplex uplinks = degree 4");
        }
    }

    #[test]
    fn hierarchical_survives_any_single_cut() {
        // Dual homing + ring: every duplex-pair failure leaves the graph
        // strongly connected.
        let t = hierarchical_topology(&HierarchicalCfg::default());
        let n_pairs = t.link_count() / 2;
        let mut survivable = 0;
        for (lid, _) in t.links() {
            let twin = t.reverse_link(lid).unwrap();
            if twin.index() < lid.index() {
                continue;
            }
            let mut up = vec![true; t.link_count()];
            up[lid.index()] = false;
            up[twin.index()] = false;
            // Cheap reachability probe via SPF from node 0.
            let w = crate::WeightVector::uniform(&t, 1);
            let ft = crate::FlatTopo::new(&t);
            let mut dag = crate::ShortestPathDag::empty(&ft);
            let mask = crate::LinkMask::from_up_slice(&up);
            let mut ws = crate::SpfWorkspace::new();
            dag.compute_into(&ft, w.as_slice(), 0, Some(&mask), &mut ws);
            if dag.dist.iter().all(|&d| d != crate::spf::UNREACHABLE) {
                survivable += 1;
            }
        }
        assert_eq!(survivable, n_pairs, "every cut must be survivable");
    }

    #[test]
    fn grid_counts() {
        let t = grid_topology(&GridCfg::default());
        assert_eq!(t.node_count(), 30);
        // 5×6 grid: horizontal 5·5 + vertical 4·6 = 49 pairs.
        assert_eq!(t.link_count(), 2 * 49);
    }

    #[test]
    fn torus_is_four_regular() {
        let t = grid_topology(&GridCfg {
            rows: 4,
            cols: 5,
            torus: true,
            delay_s: 0.001,
        });
        for v in t.nodes() {
            assert_eq!(t.degree(v), 8, "4 duplex neighbors = degree 8");
        }
        assert_eq!(t.link_count(), 2 * 2 * 4 * 5);
    }

    #[test]
    #[should_panic(expected = "≥ 3")]
    fn torus_rejects_two_wide() {
        grid_topology(&GridCfg {
            rows: 2,
            cols: 5,
            torus: true,
            delay_s: 0.001,
        });
    }

    #[test]
    #[should_panic(expected = "β must be in")]
    fn waxman_rejects_bad_beta() {
        waxman_topology(&WaxmanCfg {
            beta: 0.0,
            ..Default::default()
        });
    }
}
