//! The message-passing fabric: flooding, convergence, failures, and
//! overhead accounting.

use crate::lsa::{RouterLsa, TopologyId, TOPOLOGY_COUNT};
use crate::router::{Fib, Router};
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, NodeId, Topology};
use std::collections::VecDeque;

/// Control-plane overhead counters — the operational cost side of the
/// DTR trade-off (§1: "added configuration and computational overhead
/// ... multiple weights for each link and ... multiple SPF algorithms").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// LSA messages delivered router-to-router.
    pub lsa_messages: u64,
    /// LSA wire bytes delivered (RFC 2328/4915 format model, see
    /// [`crate::overhead::lsa_wire_bytes`]).
    pub lsa_bytes: u64,
    /// Total SPF executions across all routers (one per topology per
    /// recompute).
    pub spf_runs: u64,
    /// LSA originations (config changes, failures, restorations).
    pub originations: u64,
}

/// Why forwarding failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardError {
    /// A router had no FIB entry for the destination.
    NoRoute {
        /// The router that had no entry.
        at: NodeId,
    },
    /// The hop budget was exhausted (would indicate a micro-loop).
    Loop,
}

/// An in-flight LSA between adjacent routers.
#[derive(Debug, Clone)]
struct Message {
    from: NodeId,
    to: NodeId,
    lsa: RouterLsa,
}

/// The emulated MT-OSPF network.
pub struct MtrNetwork<'a> {
    topo: &'a Topology,
    weights: DualWeights,
    /// Physical operational state per directed link.
    link_up: Vec<bool>,
    routers: Vec<Router>,
    inflight: VecDeque<Message>,
    /// Overhead counters.
    pub stats: ControlStats,
}

impl<'a> MtrNetwork<'a> {
    /// Boots every router with `weights` configured on its interfaces and
    /// floods the initial LSAs (call [`converge`](Self::converge) next).
    pub fn new(topo: &'a Topology, weights: DualWeights) -> Self {
        assert_eq!(weights.high.len(), topo.link_count());
        let mut net = MtrNetwork {
            topo,
            weights,
            link_up: vec![true; topo.link_count()],
            routers: topo
                .nodes()
                .map(|n| Router::new(n, topo.node_count()))
                .collect(),
            inflight: VecDeque::new(),
            stats: ControlStats::default(),
        };
        for n in topo.nodes() {
            net.originate(n);
        }
        net
    }

    /// Router `n` re-reads its interface config, originates a new LSA,
    /// installs it locally and floods it.
    fn originate(&mut self, n: NodeId) {
        let lsa = self.routers[n.index()].originate(self.topo, &self.weights, &self.link_up);
        self.stats.originations += 1;
        self.routers[n.index()].lsdb.install(lsa.clone());
        self.flood(n, n, &lsa);
    }

    /// Sends `lsa` from `via` to all its neighbors except `except`
    /// (split-horizon flooding), over operational links only.
    fn flood(&mut self, via: NodeId, except: NodeId, lsa: &RouterLsa) {
        for &lid in self.topo.out_links(via) {
            if !self.link_up[lid.index()] {
                continue;
            }
            let to = self.topo.link(lid).dst;
            if to == except {
                continue;
            }
            self.inflight.push_back(Message {
                from: via,
                to,
                lsa: lsa.clone(),
            });
        }
    }

    /// Delivers queued LSAs until the network is quiet, then recomputes
    /// every router's FIBs. Returns the number of messages delivered.
    ///
    /// SPF is deferred to quiescence (real OSPF throttles SPF the same
    /// way), so `stats.spf_runs` grows by `2 × |V|` per convergence.
    pub fn converge(&mut self) -> u64 {
        let mut delivered = 0;
        while let Some(m) = self.inflight.pop_front() {
            delivered += 1;
            self.stats.lsa_messages += 1;
            self.stats.lsa_bytes += crate::overhead::lsa_wire_bytes(&m.lsa, TOPOLOGY_COUNT);
            let router = &mut self.routers[m.to.index()];
            if router.lsdb.install(m.lsa.clone()) {
                self.flood(m.to, m.from, &m.lsa);
            }
        }
        for router in &mut self.routers {
            router.recompute(self.topo);
            self.stats.spf_runs += TOPOLOGY_COUNT as u64;
        }
        delivered
    }

    /// Fails the duplex pair containing `link` (both directions, as a
    /// fiber cut would) and makes the endpoints re-originate.
    pub fn fail_link(&mut self, link: LinkId) {
        let twin = self
            .topo
            .reverse_link(link)
            .expect("paper topologies are symmetric digraphs");
        self.link_up[link.index()] = false;
        self.link_up[twin.index()] = false;
        let l = self.topo.link(link);
        self.originate(l.src);
        self.originate(l.dst);
    }

    /// Restores a previously failed duplex pair.
    pub fn restore_link(&mut self, link: LinkId) {
        let twin = self.topo.reverse_link(link).expect("symmetric digraph");
        self.link_up[link.index()] = true;
        self.link_up[twin.index()] = true;
        let l = self.topo.link(link);
        self.originate(l.src);
        self.originate(l.dst);
    }

    /// Re-configures the per-topology weights network-wide (the
    /// dissemination cost of deploying a new DTR solution) and floods.
    pub fn reconfigure(&mut self, weights: DualWeights) {
        assert_eq!(weights.high.len(), self.topo.link_count());
        self.weights = weights;
        for n in self.topo.nodes() {
            self.originate(n);
        }
    }

    /// Like [`reconfigure`](Self::reconfigure) but touching only the
    /// routers whose own interface metrics actually differ — the way an
    /// operator deploys an `h`-change reoptimization: routers with
    /// unchanged configs originate nothing. Returns how many routers
    /// re-originated.
    pub fn reconfigure_changed(&mut self, weights: DualWeights) -> usize {
        assert_eq!(weights.high.len(), self.topo.link_count());
        let changed: Vec<NodeId> = self
            .topo
            .nodes()
            .filter(|&n| {
                self.topo.out_links(n).iter().any(|&lid| {
                    self.weights.high.get(lid) != weights.high.get(lid)
                        || self.weights.low.get(lid) != weights.low.get(lid)
                })
            })
            .collect();
        self.weights = weights;
        for &n in &changed {
            self.originate(n);
        }
        changed.len()
    }

    /// The FIB of `router` for `topology`.
    pub fn fib(&self, router: NodeId, topology: TopologyId) -> &Fib {
        &self.routers[router.index()].fibs[topology.idx()]
    }

    /// Access to a router (tests, inspection).
    pub fn router(&self, n: NodeId) -> &Router {
        &self.routers[n.index()]
    }

    /// True when every pair of routers holds identical databases.
    pub fn databases_synchronized(&self) -> bool {
        let first = &self.routers[0].lsdb;
        self.routers.iter().all(|r| r.lsdb.synchronized_with(first))
    }

    /// Hop-by-hop forwarding of a `topology`-class packet from `src` to
    /// `dst` using each router's own FIB, taking the first ECMP branch at
    /// every hop. Errors surface routing blackholes or loops.
    pub fn forward_path(
        &self,
        topology: TopologyId,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Vec<LinkId>, ForwardError> {
        let mut path = Vec::new();
        let mut cur = src;
        let budget = 4 * self.topo.node_count();
        while cur != dst {
            if path.len() >= budget {
                return Err(ForwardError::Loop);
            }
            let hops = self.fib(cur, topology).lookup(dst);
            let Some(&lid) = hops.first() else {
                return Err(ForwardError::NoRoute { at: cur });
            };
            path.push(lid);
            cur = self.topo.link(lid).dst;
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
    use dtr_graph::WeightVector;

    fn dual_triangle() -> (Topology, DualWeights) {
        let topo = triangle_topology(1.0);
        let wh = WeightVector::uniform(&topo, 1);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        (topo, DualWeights { high: wh, low: wl })
    }

    #[test]
    fn boots_and_synchronizes() {
        let (topo, w) = dual_triangle();
        let mut net = MtrNetwork::new(&topo, w);
        let delivered = net.converge();
        assert!(delivered > 0);
        assert!(net.databases_synchronized());
        assert!(net.router(NodeId(0)).lsdb.complete());
    }

    #[test]
    fn per_topology_paths_diverge() {
        let (topo, w) = dual_triangle();
        let mut net = MtrNetwork::new(&topo, w);
        net.converge();
        let high = net
            .forward_path(TopologyId::DEFAULT, NodeId(0), NodeId(2))
            .unwrap();
        let low = net
            .forward_path(TopologyId::LOW, NodeId(0), NodeId(2))
            .unwrap();
        assert_eq!(high.len(), 1, "high priority direct");
        assert_eq!(low.len(), 2, "low priority detours via B");
    }

    #[test]
    fn failure_reconvergence_avoids_dead_link() {
        let (topo, w) = dual_triangle();
        let mut net = MtrNetwork::new(&topo, w);
        net.converge();
        let direct = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        net.fail_link(direct);
        net.converge();
        assert!(net.databases_synchronized());
        let high = net
            .forward_path(TopologyId::DEFAULT, NodeId(0), NodeId(2))
            .unwrap();
        assert_eq!(high.len(), 2, "rerouted around the cut");
        assert!(!high.contains(&direct));
        // Restore brings the direct path back.
        net.restore_link(direct);
        net.converge();
        let high = net
            .forward_path(TopologyId::DEFAULT, NodeId(0), NodeId(2))
            .unwrap();
        assert_eq!(high, vec![direct]);
    }

    #[test]
    fn all_pairs_forwardable_on_random_topology() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 3,
        });
        let w = DualWeights::replicated(WeightVector::delay_proportional(&topo, 30));
        let mut net = MtrNetwork::new(&topo, w);
        net.converge();
        for s in topo.nodes() {
            for d in topo.nodes() {
                if s == d {
                    continue;
                }
                for t in [TopologyId::DEFAULT, TopologyId::LOW] {
                    let p = net.forward_path(t, s, d).unwrap();
                    assert_eq!(topo.link(*p.last().unwrap()).dst, d);
                }
            }
        }
    }

    #[test]
    fn overhead_accounting_doubles_spf() {
        let (topo, w) = dual_triangle();
        let mut net = MtrNetwork::new(&topo, w);
        net.converge();
        // 3 routers × 2 topologies.
        assert_eq!(net.stats.spf_runs, 6);
        assert!(net.stats.lsa_messages > 0);
        assert_eq!(net.stats.originations, 3);
        // Reconfiguration floods again and reconverges.
        let w2 = DualWeights::replicated(WeightVector::uniform(&topo, 2));
        net.reconfigure(w2);
        net.converge();
        assert_eq!(net.stats.spf_runs, 12);
        assert!(net.databases_synchronized());
    }

    #[test]
    fn partial_reconfiguration_touches_only_changed_routers() {
        let (topo, w) = dual_triangle();
        let mut net = MtrNetwork::new(&topo, w.clone());
        net.converge();
        let before = net.stats;

        // Change one low-class metric: only that link's source router
        // re-reads its config.
        let lid = topo.find_link(NodeId(1), NodeId(2)).unwrap();
        let mut w2 = w.clone();
        w2.low.set(lid, 17);
        let touched = net.reconfigure_changed(w2.clone());
        assert_eq!(touched, 1);
        net.converge();
        assert!(net.databases_synchronized());
        let partial_msgs = net.stats.lsa_messages - before.lsa_messages;

        // A full reconfigure of the same delta floods every router.
        let mut full = MtrNetwork::new(&topo, w);
        full.converge();
        let full_before = full.stats;
        full.reconfigure(w2);
        full.converge();
        let full_msgs = full.stats.lsa_messages - full_before.lsa_messages;
        assert!(
            partial_msgs < full_msgs,
            "partial ({partial_msgs}) must flood less than full ({full_msgs})"
        );

        // Both end up with identical forwarding.
        for s in topo.nodes() {
            for d in topo.nodes() {
                if s == d {
                    continue;
                }
                for t in [TopologyId::DEFAULT, TopologyId::LOW] {
                    assert_eq!(net.forward_path(t, s, d), full.forward_path(t, s, d));
                }
            }
        }
    }

    #[test]
    fn unchanged_reconfiguration_is_free() {
        let (topo, w) = dual_triangle();
        let mut net = MtrNetwork::new(&topo, w.clone());
        net.converge();
        let before = net.stats;
        assert_eq!(net.reconfigure_changed(w), 0);
        net.converge();
        assert_eq!(net.stats.lsa_messages, before.lsa_messages);
        assert_eq!(net.stats.originations, before.originations);
    }

    #[test]
    fn blackhole_reported_when_destination_cut_off() {
        let (topo, w) = dual_triangle();
        let mut net = MtrNetwork::new(&topo, w);
        net.converge();
        // Cut both of C's duplex pairs → C unreachable.
        let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        let bc = topo.find_link(NodeId(1), NodeId(2)).unwrap();
        net.fail_link(ac);
        net.fail_link(bc);
        net.converge();
        let err = net
            .forward_path(TopologyId::DEFAULT, NodeId(0), NodeId(2))
            .unwrap_err();
        assert!(matches!(err, ForwardError::NoRoute { .. }));
    }
}
