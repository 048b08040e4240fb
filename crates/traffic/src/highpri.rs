//! High-priority traffic patterns (paper §5.1.2).
//!
//! Both models first choose *which* SD pairs carry high-priority traffic,
//! then assign volumes so that high priority forms a fraction `f` of all
//! traffic, with heterogeneity via per-pair multipliers `m(s,t) ~ U[1,4]`:
//!
//! ```text
//! r_H(s, t) = η_L · f/(1−f) · m(s,t) / Σ_{(i,j)} m(i,j)
//! ```
//!
//! - **Random model**: a fraction `k` of all ordered SD pairs is selected
//!   uniformly (`k` = "density of high-priority SD pairs").
//! - **Sink model**: a small number of *sinks* ("popular servers, e.g.
//!   data centers") are placed at the highest-degree nodes; client nodes
//!   exchange traffic **bidirectionally** with every sink. Clients are
//!   chosen either uniformly at random (`Uniform`) or among the nodes
//!   closest to the sinks in hop distance (`Local`) — the two scenarios
//!   contrasted in Fig. 8.

use crate::matrix::TrafficMatrix;
use dtr_graph::{NodeId, ShortestPathDag, Topology, WeightVector};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which high-priority pattern to generate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HighPriModel {
    /// A fraction `k` of SD pairs, chosen uniformly.
    Random,
    /// Data-center sinks at the highest-degree nodes, bidirectional
    /// client↔sink demands.
    Sink {
        /// Number of sink nodes (the paper uses 3).
        sinks: usize,
        /// How clients are placed.
        pattern: SinkPattern,
    },
}

/// Client placement for the sink model (Fig. 8's two scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SinkPattern {
    /// Clients drawn uniformly from all non-sink nodes.
    Uniform,
    /// Clients are the non-sink nodes nearest (hop count) to the sinks.
    Local,
}

/// Assigns Eq.-coupled volumes to `pairs` and returns the matrix.
fn assign_volumes(
    n: usize,
    pairs: &[(usize, usize)],
    eta_l: f64,
    f: f64,
    rng: &mut StdRng,
) -> TrafficMatrix {
    let mut m = TrafficMatrix::zeros(n);
    if pairs.is_empty() {
        return m;
    }
    let mults: Vec<f64> = pairs.iter().map(|_| rng.random_range(1.0..=4.0)).collect();
    let msum: f64 = mults.iter().sum();
    let scale = eta_l * f / (1.0 - f) / msum;
    for (&(s, t), &mu) in pairs.iter().zip(&mults) {
        m.add(s, t, mu * scale);
    }
    m
}

/// Number of ordered SD pairs implied by density `k` on `n` nodes.
fn pair_budget(n: usize, k: f64) -> usize {
    ((n * (n - 1)) as f64 * k).round() as usize
}

/// The **random** high-priority model: `k`-density SD pairs over the
/// low-priority matrix `low`, with total volume `f/(1−f)·η_L`.
pub fn random_highpri(low: &TrafficMatrix, f: f64, k: f64, seed: u64) -> TrafficMatrix {
    let n = low.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all_pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t)))
        .collect();
    all_pairs.shuffle(&mut rng);
    let count = pair_budget(n, k).min(all_pairs.len());
    let pairs = &all_pairs[..count];
    assign_volumes(n, pairs, low.total(), f, &mut rng)
}

/// Hop distance from every node to its nearest node in `sinks`.
fn hops_to_nearest_sink(topo: &Topology, sinks: &[NodeId]) -> Vec<u64> {
    let w = WeightVector::uniform(topo, 1);
    let mut best = vec![u64::MAX; topo.node_count()];
    for &snk in sinks {
        let dag = ShortestPathDag::compute(topo, &w, snk);
        for v in topo.nodes() {
            best[v.index()] = best[v.index()].min(dag.dist_from(v));
        }
    }
    best
}

/// The **sink** high-priority model.
///
/// `k` sets the pair budget exactly as in the random model; each client
/// contributes `2 · sinks` ordered pairs (both directions with every
/// sink), so the client count is `⌈budget / (2·sinks)⌉` clamped to the
/// number of non-sink nodes.
pub fn sink_highpri(
    topo: &Topology,
    low: &TrafficMatrix,
    f: f64,
    k: f64,
    sinks: usize,
    pattern: SinkPattern,
    seed: u64,
) -> TrafficMatrix {
    let n = low.len();
    assert_eq!(n, topo.node_count(), "matrix and topology disagree on |V|");
    assert!(sinks >= 1 && sinks < n, "need 1 ≤ sinks < |V|");
    let mut rng = StdRng::seed_from_u64(seed);

    let by_degree = topo.nodes_by_degree_desc();
    let sink_nodes: Vec<NodeId> = by_degree[..sinks].to_vec();
    let is_sink = |v: NodeId| sink_nodes.contains(&v);

    let budget = pair_budget(n, k);
    let clients_wanted = budget.div_ceil(2 * sinks).max(1);
    let mut candidates: Vec<NodeId> = topo.nodes().filter(|&v| !is_sink(v)).collect();
    let clients: Vec<NodeId> = match pattern {
        SinkPattern::Uniform => {
            candidates.shuffle(&mut rng);
            candidates.into_iter().take(clients_wanted).collect()
        }
        SinkPattern::Local => {
            let hops = hops_to_nearest_sink(topo, &sink_nodes);
            // Nearest to the sinks first; random tie-break keeps instances
            // varied across seeds.
            candidates.shuffle(&mut rng);
            candidates.sort_by_key(|&v| hops[v.index()]);
            candidates.into_iter().take(clients_wanted).collect()
        }
    };

    let mut pairs = Vec::with_capacity(2 * sinks * clients.len());
    for &c in &clients {
        for &s in &sink_nodes {
            pairs.push((c.index(), s.index()));
            pairs.push((s.index(), c.index()));
        }
    }
    assign_volumes(n, &pairs, low.total(), f, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::gravity_matrix;
    use dtr_graph::gen::{power_law_topology, PowerLawTopologyCfg};

    fn low(n: usize) -> TrafficMatrix {
        gravity_matrix(n, 3)
    }

    #[test]
    fn random_model_hits_f_exactly() {
        let l = low(30);
        for &f in &[0.2, 0.3, 0.4] {
            let h = random_highpri(&l, f, 0.1, 1);
            let got = h.total() / (h.total() + l.total());
            assert!((got - f).abs() < 1e-9, "f={f}, got {got}");
        }
    }

    #[test]
    fn random_model_pair_count_tracks_k() {
        let l = low(30);
        let h10 = random_highpri(&l, 0.3, 0.10, 1);
        let h30 = random_highpri(&l, 0.3, 0.30, 1);
        assert_eq!(h10.positive_pairs().len(), 87); // 0.1 · 30·29
        assert_eq!(h30.positive_pairs().len(), 261);
    }

    #[test]
    fn volumes_are_heterogeneous() {
        let l = low(30);
        let h = random_highpri(&l, 0.3, 0.2, 1);
        let vols: Vec<f64> = h
            .positive_pairs()
            .iter()
            .map(|&(s, t)| h.get(s, t))
            .collect();
        let max = vols.iter().cloned().fold(f64::MIN, f64::max);
        let min = vols.iter().cloned().fold(f64::MAX, f64::min);
        // m ~ U[1,4] ⇒ ratio approaches 4 for enough pairs.
        assert!(max / min > 2.0, "expected spread, got {}", max / min);
    }

    #[test]
    fn sink_model_routes_through_sinks_only() {
        let topo = power_law_topology(&PowerLawTopologyCfg::default());
        let l = low(30);
        let h = sink_highpri(&topo, &l, 0.3, 0.1, 3, SinkPattern::Uniform, 1);
        let sinks: Vec<usize> = topo.nodes_by_degree_desc()[..3]
            .iter()
            .map(|n| n.index())
            .collect();
        for (s, t) in h.positive_pairs() {
            assert!(
                sinks.contains(&s) || sinks.contains(&t),
                "pair ({s},{t}) touches no sink"
            );
        }
        assert!((h.total() / (h.total() + l.total()) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn sink_model_is_bidirectional() {
        let topo = power_law_topology(&PowerLawTopologyCfg::default());
        let l = low(30);
        let h = sink_highpri(&topo, &l, 0.3, 0.1, 3, SinkPattern::Uniform, 1);
        for (s, t) in h.positive_pairs() {
            assert!(h.get(t, s) > 0.0, "missing reverse of ({s},{t})");
        }
    }

    #[test]
    fn local_clients_are_closer_than_uniform_on_average() {
        let topo = power_law_topology(&PowerLawTopologyCfg {
            nodes: 40,
            attachments: 2,
            seed: 2,
        });
        let l = low(40);
        let sinks: Vec<NodeId> = topo.nodes_by_degree_desc()[..3].to_vec();
        let hops = hops_to_nearest_sink(&topo, &sinks);
        let mean_hops = |m: &TrafficMatrix| {
            let pairs = m.positive_pairs();
            let mut acc = 0.0;
            let mut cnt = 0.0;
            for (s, t) in pairs {
                // The client is whichever endpoint is not a sink.
                let client = if sinks.iter().any(|x| x.index() == s) {
                    t
                } else {
                    s
                };
                acc += hops[client] as f64;
                cnt += 1.0;
            }
            acc / cnt
        };
        // Average over seeds to avoid a fluky draw.
        let mut local_sum = 0.0;
        let mut uniform_sum = 0.0;
        for seed in 0..8 {
            local_sum += mean_hops(&sink_highpri(
                &topo,
                &l,
                0.3,
                0.1,
                3,
                SinkPattern::Local,
                seed,
            ));
            uniform_sum += mean_hops(&sink_highpri(
                &topo,
                &l,
                0.3,
                0.1,
                3,
                SinkPattern::Uniform,
                seed,
            ));
        }
        assert!(
            local_sum < uniform_sum,
            "local {local_sum} should be < uniform {uniform_sum}"
        );
    }

    #[test]
    fn zero_budget_yields_empty_matrix() {
        let l = low(10);
        let h = random_highpri(&l, 0.3, 0.005, 1); // rounds to 0 pairs
        assert_eq!(h.total(), 0.0);
    }
}
