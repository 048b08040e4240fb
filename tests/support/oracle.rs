//! An independent model of the paper's forwarding rule, for differential
//! tests on small networks.
//!
//! Demand towards a destination `t` splits evenly over the links that lie
//! on some shortest path to `t`. This module computes that by brute
//! force and shares no code with the kernels it checks (the SPF, the
//! demand push, the hybrid DAG of partial deployment, the engine):
//!
//! - distances to `t` by Bellman–Ford over the links that are up; a link
//!   `(u, v)` is *tight* when `d(u) = w + d(v)`;
//! - every path a unit of demand can take, by depth-first enumeration;
//!   a path's weight is the product of `1 / |next(x)|` over its hops, and
//!   loads, trapped volume and expected delays are sums over paths.
//!
//! Under a partial deployment a node's next hops are its low-topology
//! tight links if it is upgraded and its high-topology ones otherwise.
//! A node is *clear* when no node with a path into it (itself included)
//! lies on a cycle of those next hops. A node forwards only if it is
//! clear, is not the destination and has a next hop; a path stops at the
//! first node that does not forward, and its volume counts as trapped.
//! Volume that reaches the destination is delivered.
//!
//! Exponential in the worst case; meant for networks of a handful of
//! nodes.

#![allow(dead_code)]

use dtr::graph::{LinkId, Topology};
use dtr::traffic::TrafficMatrix;

/// How one class forwards towards one destination.
#[derive(Debug, Clone)]
pub struct Hops {
    dest: usize,
    /// `next[x]`: the link indices node `x` splits its flow over.
    next: Vec<Vec<usize>>,
    /// `forwards[x]`: whether `x` passes flow on at all.
    forwards: Vec<bool>,
}

/// Shortest distance from every node to `t` over the links with
/// `up[l]`, by Bellman–Ford; `None` where `t` cannot be reached.
pub fn distances(topo: &Topology, w: &[u32], up: &[bool], t: usize) -> Vec<Option<u64>> {
    let n = topo.node_count();
    let mut d: Vec<Option<u64>> = vec![None; n];
    d[t] = Some(0);
    for _ in 0..n {
        for (lid, link) in topo.links() {
            let l = lid.index();
            if !up[l] {
                continue;
            }
            if let Some(dv) = d[link.dst.index()] {
                let cand = dv + u64::from(w[l]);
                let du = &mut d[link.src.index()];
                if du.is_none_or(|x| cand < x) {
                    *du = Some(cand);
                }
            }
        }
    }
    d
}

/// Whether every node reaches every other over the links with `up[l]`.
pub fn connected(topo: &Topology, up: &[bool]) -> bool {
    let w = vec![1; topo.link_count()];
    (0..topo.node_count()).all(|t| distances(topo, &w, up, t).iter().all(Option::is_some))
}

impl Hops {
    /// ECMP towards `t` on weights `w` with the links `up` keeps.
    pub fn shortest(topo: &Topology, w: &[u32], up: &[bool], t: usize) -> Hops {
        let d = distances(topo, w, up, t);
        let next: Vec<Vec<usize>> = (0..topo.node_count())
            .map(|x| {
                if x == t {
                    return Vec::new();
                }
                topo.links()
                    .filter(|(lid, link)| {
                        let l = lid.index();
                        link.src.index() == x
                            && up[l]
                            && match (d[x], d[link.dst.index()]) {
                                (Some(dx), Some(dv)) => dx == dv + u64::from(w[l]),
                                _ => false,
                            }
                    })
                    .map(|(lid, _)| lid.index())
                    .collect()
            })
            .collect();
        Hops::from_next(topo, t, next)
    }

    /// The low class under a partial deployment: upgraded nodes take
    /// `low`'s next hops, legacy nodes `high`'s.
    pub fn hybrid(topo: &Topology, upgraded: &[bool], high: &Hops, low: &Hops) -> Hops {
        assert_eq!(high.dest, low.dest);
        let next = (0..topo.node_count())
            .map(|x| {
                let from = if upgraded[x] { low } else { high };
                from.next[x].clone()
            })
            .collect();
        Hops::from_next(topo, high.dest, next)
    }

    fn from_next(topo: &Topology, t: usize, next: Vec<Vec<usize>>) -> Hops {
        let n = topo.node_count();
        // reach[x][y]: a path of at least one hop leads from x to y.
        let mut reach = vec![vec![false; n]; n];
        for (x, row) in reach.iter_mut().enumerate() {
            let mut stack = vec![x];
            while let Some(u) = stack.pop() {
                for &l in &next[u] {
                    let v = topo.link(LinkId(l as u32)).dst.index();
                    if !row[v] {
                        row[v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        let on_cycle: Vec<bool> = (0..n).map(|y| reach[y][y]).collect();
        let clear: Vec<bool> = (0..n)
            .map(|x| (0..n).all(|y| !on_cycle[y] || (y != x && !reach[y][x])))
            .collect();
        let forwards = (0..n)
            .map(|x| x != t && clear[x] && !next[x].is_empty())
            .collect();
        Hops {
            dest: t,
            next,
            forwards,
        }
    }

    /// Calls `f(links, weight, delivered)` for every path a unit of
    /// demand from `s` can take.
    pub fn paths(&self, topo: &Topology, s: usize, f: &mut impl FnMut(&[usize], f64, bool)) {
        let mut links = Vec::new();
        self.walk(topo, s, 1.0, &mut links, f);
    }

    fn walk(
        &self,
        topo: &Topology,
        x: usize,
        weight: f64,
        links: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize], f64, bool),
    ) {
        if x == self.dest {
            return f(links, weight, true);
        }
        if !self.forwards[x] {
            return f(links, weight, false);
        }
        let share = weight / self.next[x].len() as f64;
        for &l in &self.next[x] {
            links.push(l);
            self.walk(
                topo,
                topo.link(LinkId(l as u32)).dst.index(),
                share,
                links,
                f,
            );
            links.pop();
        }
    }

    /// ξ(s → t): the expected sum of `link_delays` over the paths from
    /// `s`, each weighted by its share.
    pub fn expected_delay(&self, topo: &Topology, s: usize, link_delays: &[f64]) -> f64 {
        let mut xi = 0.0;
        self.paths(topo, s, &mut |links, weight, _| {
            xi += weight * links.iter().map(|&l| link_delays[l]).sum::<f64>();
        });
        xi
    }
}

/// Per-link loads of one matrix routed on `hops[t]` towards each `t`,
/// and the volume no path delivers.
pub fn route(topo: &Topology, hops: &[Hops], m: &TrafficMatrix) -> (Vec<f64>, f64) {
    let n = topo.node_count();
    let mut loads = vec![0.0; topo.link_count()];
    let mut trapped = 0.0;
    for (t, h) in hops.iter().enumerate() {
        for s in 0..n {
            let v = m.get(s, t);
            if s == t || v <= 0.0 {
                continue;
            }
            h.paths(topo, s, &mut |links, weight, delivered| {
                for &l in links {
                    loads[l] += v * weight;
                }
                if !delivered {
                    trapped += v * weight;
                }
            });
        }
    }
    (loads, trapped)
}

/// One [`Hops::shortest`] per destination.
pub fn shortest_all(topo: &Topology, w: &[u32], up: &[bool]) -> Vec<Hops> {
    (0..topo.node_count())
        .map(|t| Hops::shortest(topo, w, up, t))
        .collect()
}

/// One [`Hops::hybrid`] per destination, all links up.
pub fn hybrid_all(topo: &Topology, upgraded: &[bool], wh: &[u32], wl: &[u32]) -> Vec<Hops> {
    let up = vec![true; topo.link_count()];
    (0..topo.node_count())
        .map(|t| {
            let high = Hops::shortest(topo, wh, &up, t);
            let low = Hops::shortest(topo, wl, &up, t);
            Hops::hybrid(topo, upgraded, &high, &low)
        })
        .collect()
}
