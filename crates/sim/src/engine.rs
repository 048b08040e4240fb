//! The discrete-event engine.
//!
//! Each directed link is a transmitter with one FIFO queue per priority
//! class; a higher-priority queue is always served first and service is
//! non-preemptive (§3's contention model). Packets are generated by
//! Poisson flow sources (one per SD pair per class), forwarded along
//! per-class ECMP branches chosen uniformly per packet, and measured
//! inside `[warmup, warmup + duration)`.

use crate::event::{Calendar, Pending, Source};
use crate::forwarding::ForwardingState;
use crate::queueing::MEAN_PACKET_BITS;
use crate::stats::{Acc, LinkStats, PairKey};
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, NodeId, Topology, WeightVector};
use dtr_traffic::{DemandSet, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// Simulator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// `false` → exponential sizes of mean [`MEAN_PACKET_BITS`] (M/M/1
    /// links); `true` → every packet exactly [`MEAN_PACKET_BITS`]
    /// (M/D/1). Kept settable for the tie-heavy sim golden
    /// (`tests/golden.rs`, `tied_run`): only fixed sizes on zero-delay
    /// links make the many-way time ties that pin the event queue's
    /// exact pop order; `md1_waits_are_shorter_than_mm1` below also
    /// sets it.
    pub deterministic_size: bool,
    /// Transient discarded before measurement (seconds).
    pub warmup_s: f64,
    /// Measurement window length (seconds).
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Per-queue buffer limit in packets; `None` = infinite (the paper's
    /// model). Arriving packets finding a full queue are dropped. Kept
    /// settable for the tie-heavy sim golden (`tests/golden.rs`,
    /// `tied_run`), whose drops it pins, and the finite-buffer unit
    /// tests below.
    pub buffer_packets: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            deterministic_size: false,
            warmup_s: 0.5,
            duration_s: 2.0,
            seed: 1,
            buffer_packets: None,
        }
    }
}

/// A Poisson packet source. The class is a priority index (0 served
/// first) so the engine handles any class count.
#[derive(Debug, Clone, Copy)]
struct Flow {
    class: u8,
    src: u32,
    dst: u32,
    /// Packets per second.
    rate_pps: f64,
}

/// A packet in a queue, in transmission or on the wire. Its class,
/// source and destination are its flow's.
#[derive(Debug, Clone, Copy)]
struct Packet {
    flow: u32,
    hops: u32,
    size_bits: f64,
    created_s: f64,
    enqueued_s: f64,
}

/// Per-link transmitter state.
#[derive(Debug)]
struct LinkState {
    /// One FIFO per priority class, index 0 served first.
    queues: Vec<VecDeque<Packet>>,
    /// The packet being transmitted and its service start time.
    current: Option<(Packet, f64)>,
    /// Packets on the wire: `(arrival time, seq, packet)`, in arrival
    /// order. Only the head has a queue entry.
    pipe: VecDeque<(f64, u64, Packet)>,
    /// Capacity in bit/s.
    cap_bps: f64,
    prop_delay: f64,
    /// The node the link delivers to.
    dst: NodeId,
}

/// Measurement outcome of a run, for any class count: per-link rows
/// and pair keys are indexed by priority class (0 served first).
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The measurement window length.
    pub duration_s: f64,
    /// Per-link statistics, one [`crate::stats::ClassStats`] row per class.
    pub link_stats: Vec<LinkStats>,
    /// End-to-end delay accumulators per (class, src, dst).
    pub pair_delays: HashMap<PairKey, Acc>,
    /// Packets created (including warmup).
    pub generated: u64,
    /// Packets delivered to their destination (including warmup).
    pub delivered: u64,
    /// Packets dropped at full buffers (finite-buffer configs only).
    pub dropped: u64,
    /// Packets still queued or in flight when the run ended.
    pub inflight_at_end: u64,
    /// Hop-count accumulator over delivered, measured packets.
    pub hops: Acc,
}

impl SimReport {
    /// Mean end-to-end delay of one pair, if measured.
    pub fn mean_pair_delay(&self, class: usize, src: u32, dst: u32) -> Option<f64> {
        self.pair_delays
            .get(&PairKey {
                class: class as u8,
                src,
                dst,
            })
            .filter(|a| a.count > 0)
            .map(|a| a.mean())
    }

    /// Mean sojourn (wait + transmission) of `class` on `link`.
    pub fn mean_sojourn(&self, link: LinkId, class: usize) -> f64 {
        self.link_stats[link.index()].per_class[class]
            .sojourn
            .mean()
    }

    /// Measured utilization of `link`.
    pub fn utilization(&self, link: LinkId) -> f64 {
        self.link_stats[link.index()].utilization(self.duration_s)
    }

    /// Class throughput on `link` in Mbit/s over the window.
    pub fn throughput_mbps(&self, link: LinkId, class: usize) -> f64 {
        self.link_stats[link.index()].per_class[class].bits / self.duration_s / 1e6
    }
}

/// A configured simulation, ready to [`run`](Simulation::run).
pub struct Simulation<'a> {
    topo: &'a Topology,
    branches: BranchTable,
    flows: Vec<Flow>,
    cfg: SimConfig,
    classes: usize,
}

/// Every class's ECMP branches, flattened: `at[(class · n + dest) · n +
/// node]..at[… + 1]` is the range of `links` holding the branches of
/// `class` at `node` towards `dest`.
struct BranchTable {
    at: Vec<u32>,
    links: Vec<u32>,
}

impl BranchTable {
    fn new(topo: &Topology, fwd: &ForwardingState) -> Self {
        let mut at = vec![0u32];
        let mut links = Vec::new();
        for class in 0..fwd.classes() {
            for dest in topo.nodes() {
                for node in topo.nodes() {
                    links.extend_from_slice(fwd.branches(class, dest, node));
                    at.push(links.len() as u32);
                }
            }
        }
        BranchTable { at, links }
    }
}

impl<'a> Simulation<'a> {
    /// Builds a simulation of `demands` routed by `weights` over `topo`:
    /// the two-class entry point, with the high class at priority 0.
    pub fn new(
        topo: &'a Topology,
        demands: &DemandSet,
        weights: &DualWeights,
        cfg: SimConfig,
    ) -> Self {
        Self::with_classes(
            topo,
            &[&demands.high, &demands.low],
            &[weights.high.clone(), weights.low.clone()],
            cfg,
        )
    }

    /// Builds a k-class simulation: `matrices[c]` is the demand of
    /// priority class `c` (0 served first at every link), routed on
    /// `weights[c]`. With two classes this is exactly [`Simulation::new`]
    /// — same flows, same RNG stream, same event order.
    pub fn with_classes(
        topo: &'a Topology,
        matrices: &[&TrafficMatrix],
        weights: &[WeightVector],
        cfg: SimConfig,
    ) -> Self {
        assert_eq!(matrices.len(), weights.len(), "one weight vector per class");
        Self::with_forwarding(
            topo,
            matrices,
            &ForwardingState::with_class_weights(topo, weights),
            cfg,
        )
    }

    /// Builds a k-class simulation on **prebuilt** forwarding tables —
    /// the injection point for non-shortest-path routing such as the
    /// partial-deployment hybrid DAGs
    /// ([`ForwardingState::with_deployment`]). Every flow's source must
    /// be able to reach its destination in its class's DAG: a packet at
    /// a branchless non-destination node has nowhere to go, so the
    /// constructor rejects such flows up front (callers gate on the
    /// evaluator's undeliverable volume before simulating). The
    /// simulation keeps only the tables' branch lists, not `fwd`.
    pub fn with_forwarding(
        topo: &'a Topology,
        matrices: &[&TrafficMatrix],
        fwd: &ForwardingState,
        cfg: SimConfig,
    ) -> Self {
        assert!(cfg.duration_s > 0.0);
        assert!(!matrices.is_empty(), "need at least one class");
        assert_eq!(matrices.len(), fwd.classes(), "one DAG table per class");
        for (c, m) in matrices.iter().enumerate() {
            for (s, t) in m.positive_pairs() {
                assert!(
                    fwd.dag(c, dtr_graph::NodeId(t as u32))
                        .reachable(dtr_graph::NodeId(s as u32)),
                    "class {c} flow {s}->{t} is undeliverable under these forwarding tables"
                );
            }
        }
        assert!(matrices.len() <= u8::MAX as usize, "too many classes");
        let mut flows = Vec::new();
        for (c, m) in matrices.iter().enumerate() {
            for (s, t) in m.positive_pairs() {
                flows.push(Flow {
                    class: c as u8,
                    src: s as u32,
                    dst: t as u32,
                    rate_pps: m.get(s, t) * 1e6 / MEAN_PACKET_BITS,
                });
            }
        }
        Simulation {
            topo,
            branches: BranchTable::new(topo, fwd),
            flows,
            cfg,
            classes: matrices.len(),
        }
    }

    /// Runs to completion and returns the measurements.
    pub fn run(self) -> SimReport {
        Engine::new(self).run()
    }
}

/// Exponential variate with the given rate.
#[inline]
fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.random();
    -(1.0 - u).ln() / rate
}

/// Calendar buckets per queue entry the run can hold (flows + 2·links),
/// before rounding up to a power of two. Set by the sweep in
/// `DESIGN.md`, as is [`BUCKETS_PER_PACKET`].
const BUCKETS_PER_ENTRY: usize = 2;

/// Calendar buckets per mean packet interarrival time of the whole run
/// (`1 / Σ rate_pps`): a packet costs ~6 events (an arrival and two per
/// hop), so ~1.7 events fall in a bucket's width.
const BUCKETS_PER_PACKET: f64 = 3.5;

/// The event loop. Events fire in `(time, seq)` order, `seq` counting
/// the order in which they were scheduled. The calendar holds one entry
/// per source with an event pending ([`crate::event`]); a pipe's later
/// packets wait in the pipe, which yields them in `(time, seq)` order
/// because a transmitter completes packets at nondecreasing times, each
/// completion is scheduled with a larger `seq` than the last, and the
/// link's propagation delay is a constant.
struct Engine {
    flows: Vec<Flow>,
    branches: BranchTable,
    nodes: usize,
    cfg: SimConfig,
    rng: StdRng,
    queue: Calendar,
    seq: u64,
    links: Vec<LinkState>,
    // measurement
    win_start: f64,
    win_end: f64,
    link_stats: Vec<LinkStats>,
    /// End-to-end delay accumulators, one per flow.
    flow_delays: Vec<Acc>,
    generated: u64,
    delivered: u64,
    dropped: u64,
    live_packets: u64,
    hops: Acc,
}

impl Engine {
    fn new(sim: Simulation<'_>) -> Self {
        let links = sim
            .topo
            .links()
            .map(|(_, l)| LinkState {
                queues: (0..sim.classes).map(|_| VecDeque::new()).collect(),
                current: None,
                pipe: VecDeque::new(),
                cap_bps: l.capacity * 1e6,
                prop_delay: l.prop_delay,
                dst: l.dst,
            })
            .collect();
        let n_links = sim.topo.link_count();
        // Sized from the run: a bucket count proportional to the entry
        // bound, a width proportional to the mean interarrival time.
        // Sizing moves only the speed, never the pop order.
        let bound = sim.flows.len() + 2 * n_links;
        let total_pps: f64 = sim.flows.iter().map(|f| f.rate_pps).sum();
        let inv_width = BUCKETS_PER_PACKET * total_pps;
        let queue = Calendar::new(
            bound,
            bound * BUCKETS_PER_ENTRY,
            if inv_width.is_finite() && inv_width > 0.0 {
                inv_width
            } else {
                1.0
            },
        );
        Engine {
            rng: StdRng::seed_from_u64(sim.cfg.seed),
            queue,
            seq: 0,
            links,
            branches: sim.branches,
            nodes: sim.topo.node_count(),
            win_start: sim.cfg.warmup_s,
            win_end: sim.cfg.warmup_s + sim.cfg.duration_s,
            link_stats: vec![LinkStats::new(sim.classes); n_links],
            flow_delays: vec![Acc::default(); sim.flows.len()],
            generated: 0,
            delivered: 0,
            dropped: 0,
            live_packets: 0,
            hops: Acc::default(),
            flows: sim.flows,
            cfg: sim.cfg,
        }
    }

    /// Schedules `source`'s next event at `time` and returns its entry.
    fn schedule(&mut self, time: f64, source: Source) -> Pending {
        debug_assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        let seq = self.seq;
        self.seq += 1;
        Pending { time, seq, source }
    }

    fn run(mut self) -> SimReport {
        // Seed each flow's first arrival.
        for i in 0..self.flows.len() {
            let rate = self.flows[i].rate_pps;
            if rate > 0.0 {
                let t = exp_sample(&mut self.rng, rate);
                let first = self.schedule(t, Source::Flow(i as u32));
                self.queue.push(first);
            }
        }

        while let Some(event) = self.queue.pop() {
            let (now, source) = (event.time, event.source);
            if now > self.win_end {
                break;
            }
            match source {
                Source::Flow(flow) => {
                    let flow = flow as usize;
                    // Reschedule the source first (stops naturally at
                    // win_end).
                    let next = now + exp_sample(&mut self.rng, self.flows[flow].rate_pps);
                    let next = self.schedule(next, source);
                    self.queue.push(next);
                    self.on_flow_arrival(flow, now);
                }
                Source::Tx(link) => self.on_tx_complete(link as usize, now),
                Source::Pipe(link) => {
                    let link = link as usize;
                    let pipe = &mut self.links[link].pipe;
                    let (_, _, packet) = pipe.pop_front().expect("a queued pipe is not empty");
                    if let Some(&(time, seq, _)) = pipe.front() {
                        self.queue.push(Pending { time, seq, source });
                    }
                    self.forward(packet, self.links[link].dst, now);
                }
            }
        }

        // Close the books on links still transmitting at the window end.
        for (i, l) in self.links.iter().enumerate() {
            if let Some((_, start)) = l.current {
                let from = start.max(self.win_start).min(self.win_end);
                self.link_stats[i].busy_s += self.win_end - from;
            }
        }

        let pair_delays = self
            .flows
            .iter()
            .zip(&self.flow_delays)
            .filter(|(_, acc)| acc.count > 0)
            .map(|(f, acc)| {
                let key = PairKey {
                    class: f.class,
                    src: f.src,
                    dst: f.dst,
                };
                (key, *acc)
            })
            .collect();
        SimReport {
            duration_s: self.cfg.duration_s,
            link_stats: self.link_stats,
            pair_delays,
            generated: self.generated,
            delivered: self.delivered,
            dropped: self.dropped,
            inflight_at_end: self.live_packets,
            hops: self.hops,
        }
    }

    fn on_flow_arrival(&mut self, flow: usize, now: f64) {
        let size = if self.cfg.deterministic_size {
            MEAN_PACKET_BITS
        } else {
            exp_sample(&mut self.rng, 1.0 / MEAN_PACKET_BITS)
        };
        self.generated += 1;
        self.live_packets += 1;
        let packet = Packet {
            flow: flow as u32,
            hops: 0,
            size_bits: size,
            created_s: now,
            enqueued_s: now,
        };
        self.forward(packet, NodeId(self.flows[flow].src), now);
    }

    fn forward(&mut self, p: Packet, node: NodeId, now: f64) {
        let f = self.flows[p.flow as usize];
        if node.0 == f.dst {
            // Delivered.
            self.delivered += 1;
            self.live_packets -= 1;
            if p.created_s >= self.win_start && now <= self.win_end {
                self.flow_delays[p.flow as usize].add(now - p.created_s);
                self.hops.add(p.hops as f64);
            }
            return;
        }
        let row = (f.class as usize * self.nodes + f.dst as usize) * self.nodes + node.index();
        let table = &self.branches;
        let branches = &table.links[table.at[row] as usize..table.at[row + 1] as usize];
        assert!(
            !branches.is_empty(),
            "no route for class {} from {node} to destination n{}",
            f.class,
            f.dst
        );
        // One uniform draw per hop, even with a single branch: the sim
        // goldens freeze this RNG stream.
        let link = branches[self.rng.random_range(0..branches.len())];
        self.enqueue(p, f.class as usize, link as usize, now);
    }

    fn enqueue(&mut self, mut p: Packet, class: usize, link: usize, now: f64) {
        let state = &mut self.links[link];
        // Finite buffers: tail-drop when the class queue is full.
        if let Some(cap) = self.cfg.buffer_packets {
            if state.queues[class].len() >= cap {
                self.dropped += 1;
                self.live_packets -= 1;
                return;
            }
        }
        p.enqueued_s = now;
        p.hops += 1;
        state.queues[class].push_back(p);
        if state.current.is_none() {
            self.start_tx(link, now);
        }
    }

    /// Starts transmitting the next packet under strict priority: the
    /// first backlogged queue in priority order wins.
    fn start_tx(&mut self, link: usize, now: f64) {
        let state = &mut self.links[link];
        debug_assert!(state.current.is_none());
        let Some(p) = state.queues.iter_mut().find_map(|q| q.pop_front()) else {
            return;
        };
        state.current = Some((p, now));
        let tx = p.size_bits / state.cap_bps;
        let done = self.schedule(now + tx, Source::Tx(link as u32));
        self.queue.push(done);

        // Record the wait sample at service start.
        if p.enqueued_s >= self.win_start && now <= self.win_end {
            let class = self.flows[p.flow as usize].class as usize;
            self.link_stats[link].per_class[class]
                .wait
                .add(now - p.enqueued_s);
        }
    }

    fn on_tx_complete(&mut self, link: usize, now: f64) {
        let (p, start) = self.links[link]
            .current
            .take()
            .expect("TxComplete without a transmission");

        // Busy time clipped to the measurement window.
        let from = start.max(self.win_start).min(self.win_end);
        let to = now.max(self.win_start).min(self.win_end);
        let st = &mut self.link_stats[link];
        st.busy_s += to - from;
        if p.enqueued_s >= self.win_start && now <= self.win_end {
            let cs = &mut st.per_class[self.flows[p.flow as usize].class as usize];
            cs.sojourn.add(now - p.enqueued_s);
            cs.bits += p.size_bits;
        }

        // Put the packet on the wire to the next node.
        let arrival = self.schedule(now + self.links[link].prop_delay, Source::Pipe(link as u32));
        let pipe = &mut self.links[link].pipe;
        debug_assert!(pipe
            .back()
            .is_none_or(|&(t, s, _)| (t, s) < (arrival.time, arrival.seq)));
        if pipe.is_empty() {
            self.queue.push(arrival);
        }
        pipe.push_back((arrival.time, arrival.seq, p));

        // Serve the next queued packet.
        self.start_tx(link, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::TopologyBuilder;
    use dtr_graph::WeightVector;
    use dtr_traffic::TrafficMatrix;

    const HIGH: usize = 0;
    const LOW: usize = 1;

    /// Two nodes, one duplex pair. Capacity in Mbit/s.
    fn two_node(capacity: f64, prop: f64) -> Topology {
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_duplex(NodeId(0), NodeId(1), capacity, prop);
        b.build().unwrap()
    }

    fn one_flow(topo: &Topology, high_mbps: f64, low_mbps: f64, cfg: SimConfig) -> SimReport {
        let mut high = TrafficMatrix::zeros(2);
        if high_mbps > 0.0 {
            high.set(0, 1, high_mbps);
        }
        let mut low = TrafficMatrix::zeros(2);
        if low_mbps > 0.0 {
            low.set(0, 1, low_mbps);
        }
        let demands = DemandSet { high, low };
        let w = DualWeights::replicated(WeightVector::uniform(topo, 1));
        Simulation::new(topo, &demands, &w, cfg).run()
    }

    #[test]
    fn conservation_generated_equals_delivered_plus_inflight() {
        let topo = two_node(10.0, 0.001);
        let r = one_flow(
            &topo,
            2.0,
            3.0,
            SimConfig {
                duration_s: 0.5,
                ..Default::default()
            },
        );
        assert!(r.generated > 0);
        assert_eq!(r.generated, r.delivered + r.inflight_at_end);
    }

    #[test]
    fn mm1_mean_sojourn_matches_theory() {
        // Single class, ρ = 0.5: E[T] = 1/(µ−λ). µ = C/s = 10 Mbps/8000b
        // = 1250 pkt/s, λ = 625 pkt/s → E[T] = 1.6 ms.
        let topo = two_node(10.0, 0.0);
        let cfg = SimConfig {
            warmup_s: 1.0,
            duration_s: 20.0,
            seed: 42,
            ..Default::default()
        };
        let r = one_flow(&topo, 5.0, 0.0, cfg);
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let sim = r.mean_sojourn(link, HIGH);
        let theory = 1.0 / (1250.0 - 625.0);
        assert!(
            (sim - theory).abs() / theory < 0.05,
            "sim {sim} vs theory {theory}"
        );
    }

    #[test]
    fn measured_utilization_matches_offered_load() {
        let topo = two_node(10.0, 0.0);
        let cfg = SimConfig {
            warmup_s: 1.0,
            duration_s: 20.0,
            seed: 7,
            ..Default::default()
        };
        let r = one_flow(&topo, 3.0, 3.0, cfg);
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        assert!(
            (r.utilization(link) - 0.6).abs() < 0.03,
            "util {}",
            r.utilization(link)
        );
        assert!((r.throughput_mbps(link, HIGH) - 3.0).abs() < 0.2);
    }

    #[test]
    fn high_class_is_isolated_from_low_load() {
        // Non-preemptive priority: high-class sojourn grows only by the
        // residual service time of low packets, not by low *queueing*.
        let topo = two_node(10.0, 0.0);
        let cfg = SimConfig {
            warmup_s: 1.0,
            duration_s: 20.0,
            seed: 3,
            ..Default::default()
        };
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let alone = one_flow(&topo, 3.0, 0.0, cfg).mean_sojourn(link, HIGH);
        let heavy = one_flow(&topo, 3.0, 6.0, cfg).mean_sojourn(link, HIGH);
        // ρ_H = 0.3, ρ_L = 0.6: theory says W_H grows from R_H/(1−ρ_H)
        // with R = mean residual work; bounded well below 3× here, while
        // the low class itself queues far longer.
        let low_heavy = one_flow(&topo, 3.0, 6.0, cfg).mean_sojourn(link, LOW);
        assert!(heavy < 3.0 * alone, "high blew up: {alone} → {heavy}");
        assert!(low_heavy > 2.0 * heavy, "low should queue much longer");
    }

    #[test]
    fn nonpreemptive_priority_waits_match_theory() {
        // M/M/1 with two priorities, λ_H = λ_L, exponential service.
        // R = ρ·E[S]; W_H = R/(1−ρ_H); W_L = R/((1−ρ_H)(1−ρ)).
        let topo = two_node(10.0, 0.0);
        let cfg = SimConfig {
            warmup_s: 2.0,
            duration_s: 60.0,
            seed: 11,
            ..Default::default()
        };
        let r = one_flow(&topo, 3.0, 3.0, cfg);
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let es = 8000.0 / 10e6; // 0.8 ms
        let (rho_h, rho) = (0.3, 0.6);
        let resid = rho * es; // Σ λ_i E[S²]/2 with E[S²]=2E[S]² ⇒ ρ·E[S]
        let w_h_theory = resid / (1.0 - rho_h);
        let w_l_theory = resid / ((1.0 - rho_h) * (1.0 - rho));
        let w_h = r.link_stats[link.index()].per_class[0].wait.mean();
        let w_l = r.link_stats[link.index()].per_class[1].wait.mean();
        assert!(
            (w_h - w_h_theory).abs() / w_h_theory < 0.10,
            "W_H {w_h} vs {w_h_theory}"
        );
        assert!(
            (w_l - w_l_theory).abs() / w_l_theory < 0.10,
            "W_L {w_l} vs {w_l_theory}"
        );
    }

    #[test]
    fn e2e_delay_includes_propagation() {
        let topo = two_node(100.0, 0.010);
        let cfg = SimConfig {
            warmup_s: 0.5,
            duration_s: 5.0,
            seed: 5,
            ..Default::default()
        };
        let r = one_flow(&topo, 1.0, 0.0, cfg);
        let d = r.mean_pair_delay(HIGH, 0, 1).unwrap();
        // ≥ propagation + transmission; ≈ 10ms + 80µs at ρ=0.01.
        assert!(d > 0.010 && d < 0.012, "delay {d}");
        assert!((r.hops.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = two_node(10.0, 0.001);
        let cfg = SimConfig {
            duration_s: 1.0,
            ..Default::default()
        };
        let a = one_flow(&topo, 2.0, 2.0, cfg);
        let b = one_flow(&topo, 2.0, 2.0, cfg);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        let link = LinkId(0);
        assert_eq!(
            a.link_stats[link.index()].per_class[0].sojourn,
            b.link_stats[link.index()].per_class[0].sojourn
        );
    }

    #[test]
    fn two_class_constructor_matches_with_classes_bitwise() {
        // `new` is `with_classes` with the high class at priority 0:
        // identical RNG stream, identical event order, identical floats.
        let topo = two_node(10.0, 0.001);
        let cfg = SimConfig {
            duration_s: 1.0,
            ..Default::default()
        };
        let a = one_flow(&topo, 2.0, 3.0, cfg);
        let mut high = TrafficMatrix::zeros(2);
        high.set(0, 1, 2.0);
        let mut low = TrafficMatrix::zeros(2);
        low.set(0, 1, 3.0);
        let w = WeightVector::uniform(&topo, 1);
        let b = Simulation::with_classes(&topo, &[&high, &low], &[w.clone(), w], cfg).run();
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.link_stats, b.link_stats);
        assert_eq!(a.pair_delays, b.pair_delays);
    }

    #[test]
    fn three_class_strict_priority_matches_cobham_k() {
        use crate::queueing::cobham_k;
        let topo = two_node(10.0, 0.0);
        let mut mats = Vec::new();
        for mbps in [2.0, 3.0, 3.0] {
            let mut m = TrafficMatrix::zeros(2);
            m.set(0, 1, mbps);
            mats.push(m);
        }
        let w = WeightVector::uniform(&topo, 1);
        let cfg = SimConfig {
            warmup_s: 2.0,
            duration_s: 60.0,
            seed: 17,
            ..Default::default()
        };
        let r = Simulation::with_classes(
            &topo,
            &[&mats[0], &mats[1], &mats[2]],
            &[w.clone(), w.clone(), w],
            cfg,
        )
        .run();
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let theory = cobham_k(10.0, &[2.0, 3.0, 3.0]);
        for (c, th) in theory.iter().enumerate() {
            let sim = r.link_stats[link.index()].per_class[c].wait.mean();
            let th = th.wait_s;
            assert!(
                (sim - th).abs() / th < 0.10,
                "class {c}: sim {sim} vs theory {th}"
            );
        }
        // End-to-end delays are ordered by priority on the shared link.
        let d: Vec<f64> = (0..3)
            .map(|c| r.mean_pair_delay(c, 0, 1).unwrap())
            .collect();
        assert!(d[0] < d[1] && d[1] < d[2], "{d:?}");
    }

    #[test]
    fn finite_buffers_drop_under_overload_and_conserve() {
        // Offer 2× capacity with a 16-packet buffer: drops must occur,
        // conservation must hold, and delivered throughput must be close
        // to capacity.
        let topo = two_node(10.0, 0.0);
        let cfg = SimConfig {
            warmup_s: 0.5,
            duration_s: 5.0,
            seed: 21,
            buffer_packets: Some(16),
            ..Default::default()
        };
        let r = one_flow(&topo, 10.0, 10.0, cfg);
        assert!(r.dropped > 0, "no drops under 2x overload");
        assert_eq!(r.generated, r.delivered + r.dropped + r.inflight_at_end);
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let goodput = r.throughput_mbps(link, HIGH) + r.throughput_mbps(link, LOW);
        assert!((goodput - 10.0).abs() < 0.5, "goodput {goodput}");
        // Strict priority: the high class keeps nearly its full offer...
        assert!(r.throughput_mbps(link, HIGH) > 8.5);
    }

    #[test]
    fn strict_priority_leaves_low_only_the_residual() {
        // The §3 modeling point: under strict priority the low class gets
        // only the capacity the high class leaves, which is what the
        // paper's residual-capacity cost model assumes.
        let topo = two_node(10.0, 0.0);
        let cfg = SimConfig {
            warmup_s: 0.5,
            duration_s: 5.0,
            seed: 24,
            buffer_packets: Some(16),
            ..Default::default()
        };
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let strict_low = one_flow(&topo, 9.0, 9.0, cfg).throughput_mbps(link, LOW);
        assert!(strict_low < 1.6, "residual only: {strict_low}");
    }

    #[test]
    fn md1_waits_are_shorter_than_mm1() {
        // Deterministic service halves the mean residual: W(M/D/1) =
        // W(M/M/1)/2 at equal ρ.
        let topo = two_node(10.0, 0.0);
        let base = SimConfig {
            warmup_s: 1.0,
            duration_s: 30.0,
            seed: 9,
            ..Default::default()
        };
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let mm1 = one_flow(&topo, 5.0, 0.0, base);
        let md1 = one_flow(
            &topo,
            5.0,
            0.0,
            SimConfig {
                deterministic_size: true,
                ..base
            },
        );
        let wm = mm1.link_stats[link.index()].per_class[0].wait.mean();
        let wd = md1.link_stats[link.index()].per_class[0].wait.mean();
        assert!(
            (wd / wm - 0.5).abs() < 0.12,
            "expected W_MD1/W_MM1 ≈ 0.5, got {}",
            wd / wm
        );
    }

    /// 0 —(two ECMP paths via 1 and 2)— 3.
    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new();
        b.add_nodes(4);
        b.add_duplex(NodeId(0), NodeId(1), 10.0, 0.0);
        b.add_duplex(NodeId(0), NodeId(2), 10.0, 0.0);
        b.add_duplex(NodeId(1), NodeId(3), 10.0, 0.0);
        b.add_duplex(NodeId(2), NodeId(3), 10.0, 0.0);
        b.build().unwrap()
    }

    #[test]
    fn per_packet_ecmp_splits_evenly() {
        // One flow over a diamond: per-packet splitting spreads it
        // ~50/50 over the two equal-cost paths, the analytic model's
        // even split.
        let topo = diamond();
        let mut high = TrafficMatrix::zeros(4);
        high.set(0, 3, 4.0);
        let demands = DemandSet {
            high,
            low: TrafficMatrix::zeros(4),
        };
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let cfg = SimConfig {
            warmup_s: 0.5,
            duration_s: 5.0,
            seed: 2,
            ..Default::default()
        };

        let upper = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let lower = topo.find_link(NodeId(0), NodeId(2)).unwrap();

        let pp = Simulation::new(&topo, &demands, &w, cfg).run();
        let (u, l) = (
            pp.throughput_mbps(upper, HIGH),
            pp.throughput_mbps(lower, HIGH),
        );
        assert!(
            (u - 2.0).abs() < 0.3 && (l - 2.0).abs() < 0.3,
            "per-packet: {u} / {l}"
        );
    }
}
