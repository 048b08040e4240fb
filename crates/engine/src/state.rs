//! Per-class incremental flow state: one dynamically maintained flat
//! ECMP DAG and per-matrix load contribution per destination, plus the
//! exact-order fold that rebuilds aggregate class loads bit-identically
//! to [`dtr_routing::LoadCalculator`].
//!
//! # Why a fold instead of a running aggregate
//!
//! Patching an aggregate load vector (`agg += new − old`) would be
//! cheapest, but floating-point addition is not associative, so patched
//! aggregates drift (bit-wise) from what a full evaluation produces —
//! and the engine's contract is **bit-identical** results under both
//! backends. The full calculator accumulates destination contributions
//! in ascending destination order; replaying the cached per-destination
//! contributions in that same order reproduces the identical
//! floating-point operation sequence per link, while still skipping the
//! expensive part (Dijkstra + DAG push) for unaffected destinations.
//!
//! # Why the contributions are sparse
//!
//! A demand push touches only the links on the destination's DAG, and
//! each touched link receives **exactly one** `+= share` per
//! destination per matrix (a link is a branch of its unique tail node).
//! The full calculator therefore performs, per link, one add per
//! *touching* destination — untouched links see nothing. The push
//! itself records each destination's contribution as the `(link, share)`
//! adds it performs, and replaying those reproduces that add sequence
//! exactly. Pairs of one destination name distinct links, so their
//! order among themselves cannot change any link's add sequence; only
//! the destination order matters, and the fold keeps it. (A dense
//! vector per destination would interleave `+= 0.0` adds — bit-exact
//! no-ops on the non-negative accumulators — and at 1000+ nodes be tens
//! of megabytes of mostly zeros streamed through every candidate.)
//!
//! # Why fanning out cannot change a bit
//!
//! A candidate evaluation reads the base state and writes only a scratch
//! (`EvalScratch`) and its own result; a per-destination rebuild or
//! repair writes only a scratch and its own destination. A pass
//! therefore fans out over the caller and idle pool workers — one
//! scratch each, items handed out from one atomic index, results put
//! back by index — while every floating-point fold runs inside one item
//! exactly as it would sequentially. Which thread ran an item is
//! unobservable; the work counters are per scratch and summed.

use crate::dynspf::{
    apply_link_down, apply_link_up, apply_weight_delta, delta_affects_dag,
    endpoints_delta_affects_dag, fast_rebranch, link_down_affects_dag, DynSpfScratch,
};
use crate::flat::{demand_column, push_demand_flat, FlatDag, FlatSpfWorkspace, FlatTopo, LinkMask};
use dtr_graph::{LinkId, NodeId, Topology, Weight, WeightVector};
use dtr_routing::ClassLoads;
use dtr_traffic::TrafficMatrix;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A single weight change `(link, new_weight)`.
pub type WeightDelta = (LinkId, Weight);

/// Cached destinations × nodes below which every pass — batch, rebase,
/// rebuild — runs on the calling thread. Waking a parked pool worker and
/// joining it costs about 11 µs on a two-core x86 VM; a pass fans out
/// only where a five-candidate batch costs ten of those on one thread,
/// which it does from about 1 000 (a 32-node state). The 6-node daemon
/// networks and the 20–30-node corpus instances stay inline.
/// `DESIGN.md` has the measurement.
pub const PAR_MIN_WORK: usize = 1024;

/// A candidate's weight change on one link, with everything the
/// per-destination affectedness test reads looked up once.
struct StagedDelta {
    link: u32,
    src: u32,
    dst: u32,
    old_w: Weight,
    new_w: Weight,
}

/// Deterministic work counters of one [`FlowState`]: how candidate
/// evaluation disposed of each cached destination, and how often the
/// state moved. They depend only on the call sequence, never on timing
/// or on how many threads took part.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Destinations whose cached contributions were replayed untouched.
    pub replayed: u64,
    /// Destinations pushed down their cached DAG with a one-node branch
    /// override (no distance changed).
    pub rebranched: u64,
    /// Destinations whose DAG was copied, repaired and pushed.
    pub repaired: u64,
    /// Candidates handed back for a full evaluation (delta count above
    /// the caller's limit).
    pub full_fallbacks: u64,
    /// Base moves, by repair or rebuild.
    pub rebases: u64,
    /// Under a partial deployment, destinations whose low demand was
    /// pushed down a rebuilt hybrid DAG, for the base pair or a candidate.
    pub hybrids_rebuilt: u64,
    /// Destinations whose base hybrid low loads a candidate replayed.
    pub hybrids_replayed: u64,
}

impl std::ops::AddAssign for WorkStats {
    fn add_assign(&mut self, o: WorkStats) {
        self.replayed += o.replayed;
        self.rebranched += o.rebranched;
        self.repaired += o.repaired;
        self.full_fallbacks += o.full_fallbacks;
        self.rebases += o.rebases;
        self.hybrids_rebuilt += o.hybrids_rebuilt;
        self.hybrids_replayed += o.hybrids_replayed;
    }
}

/// One destination's load contribution to one matrix: the `(link,
/// share)` adds of its demand push, in push order (empty = no demand
/// towards the destination in that matrix). Every link appears at most
/// once — see the module docs for why replaying the pairs is
/// bit-identical to the full calculator's fold.
#[derive(Debug, Clone, Default)]
struct SparseLoads {
    links: Vec<u32>,
    vals: Vec<f64>,
}

impl SparseLoads {
    /// Replays the adds into `agg`.
    #[inline]
    fn add_into(&self, agg: &mut [f64]) {
        for (&l, &v) in self.links.iter().zip(&self.vals) {
            agg[l as usize] += v;
        }
    }
}

/// Per-destination cached state.
#[derive(Debug, Clone)]
pub struct DestState {
    /// The destination node.
    pub dest: NodeId,
    /// The flat ECMP DAG towards `dest` under the current base weights,
    /// shared with the candidates that leave it untouched. Repairs write
    /// through [`Arc::make_mut`], so a consumer still holding the `Arc`
    /// keeps the DAG it was given.
    dag: Arc<FlatDag>,
    /// Per-matrix dense demand column towards `dest` (empty = that
    /// matrix sends nothing here); fixed at construction.
    demand: Vec<Vec<f64>>,
    /// Per-matrix sparse load contribution of this destination.
    contrib: Vec<SparseLoads>,
}

/// Everything one participant of a pass writes: the repair scratch, the
/// repair target, the staged weight slice, the push buffers and its
/// share of the work counters. One per participant, so the passes read
/// the state itself through `&self`.
struct EvalScratch {
    /// Scratch for DAG repairs.
    spf: DynSpfScratch,
    /// Scratch for fresh flat SPF computations.
    spf_ws: FlatSpfWorkspace,
    /// Reusable repair target for candidate evaluation (`clone_from`
    /// recycles its buffers — four flat memcpys, no allocation).
    dag: FlatDag,
    /// Weight slice for sequenced delta application; equal to the base
    /// of generation `weights_gen` between uses (users revert the
    /// entries they set).
    work_weights: Vec<Weight>,
    /// The base generation `work_weights` was filled at (`None`: never).
    weights_gen: Option<u64>,
    /// Per-node flow buffer for load pushes.
    node_flow: Vec<f64>,
    /// Branch list for single-node ECMP overrides.
    branch_buf: Vec<u32>,
    /// The candidate work this scratch did.
    stats: WorkStats,
}

impl EvalScratch {
    fn new(flat: &FlatTopo) -> Self {
        EvalScratch {
            spf: DynSpfScratch::new(),
            spf_ws: FlatSpfWorkspace::new(),
            dag: FlatDag::empty(flat),
            work_weights: Vec::new(),
            weights_gen: None,
            node_flow: Vec::new(),
            branch_buf: Vec::new(),
            stats: WorkStats::default(),
        }
    }

    /// Makes `work_weights` equal to `base`, the base of `generation`:
    /// a copy when the base moved since the slice was last filled,
    /// nothing otherwise.
    fn stage(&mut self, base: &WeightVector, generation: u64) {
        if self.weights_gen != Some(generation) {
            self.work_weights.clear();
            self.work_weights.extend_from_slice(base.as_slice());
            self.weights_gen = Some(generation);
        }
        debug_assert_eq!(self.work_weights, base.as_slice());
    }
}

/// A scratch's lock. A pass that panicked holding it may have left
/// deltas staged in `work_weights`, so a recovered scratch refills them
/// before its next use; every other buffer is reset by each use.
fn lock(m: &Mutex<EvalScratch>) -> MutexGuard<'_, EvalScratch> {
    m.lock().unwrap_or_else(|poisoned| {
        let mut s = poisoned.into_inner();
        s.weights_gen = None;
        s
    })
}

/// Runs `job(i, scratch)` for every `i < items` and returns the results
/// in index order. With `width > 1` the first `width` scratches fan out
/// over the caller and idle pool workers, which pull indices from one
/// atomic counter; with `width == 1` the calling thread runs every item
/// on the first scratch.
fn fan_out<R: Send>(
    scratches: &[Mutex<EvalScratch>],
    width: usize,
    items: usize,
    job: impl Fn(usize, &mut EvalScratch) -> R + Sync,
) -> Vec<R> {
    if width <= 1 {
        let mut s = lock(&scratches[0]);
        return (0..items).map(|i| job(i, &mut s)).collect();
    }
    let next = AtomicUsize::new(0);
    let shares: Vec<Vec<(usize, R)>> = scratches[..width]
        .par_iter()
        .map(|s| {
            let mut s = lock(s);
            let mut got = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    return got;
                }
                got.push((i, job(i, &mut s)));
            }
        })
        .collect();
    let mut out: Vec<Option<R>> = (0..items).map(|_| None).collect();
    for (i, r) in shares.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index is pulled once"))
        .collect()
}

/// The incremental evaluation state of one routed class (or of two
/// classes sharing a weight vector, for single-topology routing).
pub struct FlowState<'a> {
    /// Flat CSR/SoA mirror of the bound topology — every hot loop runs
    /// on this (the `Topology` itself is not retained).
    flat: FlatTopo,
    /// The traffic matrices routed on this weight vector (1 for a DTR
    /// class, 2 for STR joint evaluation). The hot path reads their
    /// demand from the destinations' cached columns, not from here.
    matrices: Vec<&'a TrafficMatrix>,
    /// The base weight vector the cached DAGs reflect.
    base: WeightVector,
    /// Bumped by every base move, so a scratch can tell whether its
    /// staged weight slice still equals `base`.
    generation: u64,
    /// Cached per-destination state, ascending destination order: every
    /// destination, or only those with demand in at least one matrix.
    /// The set is fixed at construction.
    dests: Vec<DestState>,
    /// One scratch per participant of a pass, grown on first need; the
    /// first also serves every inline pass and the failure sweep.
    scratches: Vec<Mutex<EvalScratch>>,
    /// Scratch staged link-up mask for failure sweeps; invariantly
    /// all-up between calls (each sweep's revert loop restores it).
    mask_buf: LinkMask,
    /// Scratch down-link list for failure sweeps.
    downs_buf: Vec<u32>,
    /// Base moves since construction (the one counter not kept per
    /// scratch).
    rebases: u64,
}

/// The outcome of evaluating one candidate against the base state:
/// per-matrix aggregate loads plus (shared or repaired) per-destination
/// DAGs for consumers that need them (the SLA walk, the hybrid low push).
pub struct CandidateEval {
    /// Aggregate loads per bound matrix, bit-identical to a full
    /// evaluation of the candidate weights.
    pub loads: Vec<ClassLoads>,
    /// `(dest, dag)` for every destination in the state, ascending;
    /// unaffected destinations share the cached base `Arc`, repaired or
    /// rebranched ones get a flat copy.
    pub dags: Vec<(NodeId, Arc<FlatDag>)>,
}

impl<'a> FlowState<'a> {
    /// Builds the full state for `matrices` routed on `base`. With
    /// `all_dests` it keeps a DAG for every destination; one that no
    /// matrix sends demand to has empty demand columns and adds nothing.
    pub fn new(
        topo: &'a Topology,
        matrices: Vec<&'a TrafficMatrix>,
        base: WeightVector,
        all_dests: bool,
    ) -> Self {
        assert!(!matrices.is_empty());
        assert_eq!(base.len(), topo.link_count());
        let flat = FlatTopo::new(topo);
        let mask_buf = LinkMask::all_up(topo.link_count());
        let scratches = vec![Mutex::new(EvalScratch::new(&flat))];
        let mut dests = Vec::new();
        for t in topo.nodes() {
            let demand: Vec<Vec<f64>> = matrices
                .iter()
                .map(|m| demand_column(m, t.0, topo.node_count()))
                .collect();
            if all_dests || demand.iter().any(|col| !col.is_empty()) {
                dests.push(DestState {
                    dest: t,
                    dag: Arc::new(FlatDag::empty(&flat)),
                    demand,
                    contrib: Vec::new(),
                });
            }
        }
        let mut state = FlowState {
            flat,
            matrices,
            base,
            generation: 0,
            dests,
            scratches,
            mask_buf,
            downs_buf: Vec::new(),
            rebases: 0,
        };
        state.rebuild_all();
        state
    }

    /// The base weight vector.
    pub fn base(&self) -> &WeightVector {
        &self.base
    }

    /// The flat mirror of the bound topology, which the handed-out DAGs'
    /// branch slots index.
    pub fn flat(&self) -> &FlatTopo {
        &self.flat
    }

    /// Number of cached destinations.
    pub fn dest_count(&self) -> usize {
        self.dests.len()
    }

    /// Work counters since construction.
    pub fn work_stats(&self) -> WorkStats {
        let mut total = WorkStats {
            rebases: self.rebases,
            ..WorkStats::default()
        };
        for s in &self.scratches {
            total += lock(s).stats;
        }
        total
    }

    /// How many participants a pass over `items` pieces gets: one for a
    /// single piece or below [`PAR_MIN_WORK`], else up to the thread
    /// count. Grows the scratch list to match.
    fn fan_width(&mut self, items: usize) -> usize {
        let small = self.dests.len() * self.flat.node_count() < PAR_MIN_WORK;
        let width = if items < 2 || small {
            1
        } else {
            rayon::current_num_threads().min(items)
        };
        while self.scratches.len() < width {
            self.scratches
                .push(Mutex::new(EvalScratch::new(&self.flat)));
        }
        width
    }

    /// Runs `job(flat, base, dest, scratch)` on every destination state,
    /// fanned out by [`Self::fan_width`]; each destination is written by
    /// exactly one participant.
    fn for_each_dest(
        &mut self,
        job: impl Fn(&FlatTopo, &WeightVector, &mut DestState, &mut EvalScratch) + Sync,
    ) {
        let width = self.fan_width(self.dests.len());
        let (flat, base) = (&self.flat, &self.base);
        let cells: Vec<Mutex<&mut DestState>> = self.dests.iter_mut().map(Mutex::new).collect();
        fan_out(&self.scratches, width, cells.len(), |i, s| {
            let mut ds = cells[i]
                .lock()
                .expect("each destination is handed out once");
            job(flat, base, &mut ds, s)
        });
    }

    /// Full recompute of every destination state from `self.base`,
    /// reusing every existing buffer (the destination set is fixed).
    fn rebuild_all(&mut self) {
        self.for_each_dest(|flat, base, ds, s| {
            Arc::make_mut(&mut ds.dag).compute_into(
                flat,
                base.as_slice(),
                ds.dest.0,
                None,
                &mut s.spf_ws,
            );
            ds.record_contributions(flat, &mut s.node_flow);
        });
    }

    /// The diff between `cand` and the base, as ordered deltas.
    pub fn diff(&self, cand: &WeightVector) -> Vec<WeightDelta> {
        let mut deltas = Vec::new();
        for i in 0..self.base.len() {
            let lid = LinkId(i as u32);
            if cand.get(lid) != self.base.get(lid) {
                deltas.push((lid, cand.get(lid)));
            }
        }
        deltas
    }

    /// Evaluates a batch of candidates against the base **without
    /// committing**, in input order. An entry is `None` when that
    /// candidate's delta count exceeds `max_deltas` — the caller should
    /// fall back to a full evaluation (diversification jumps perturb ~5%
    /// of all weights, where repairing link-by-link would cost more than
    /// recomputing).
    ///
    /// Above [`PAR_MIN_WORK`] the candidates fan out over the caller and
    /// idle pool workers, one scratch each; every candidate's result is
    /// computed exactly as it would be alone (see the module docs).
    pub fn eval_batch(
        &mut self,
        cands: &[WeightVector],
        max_deltas: usize,
        want_dags: bool,
    ) -> Vec<Option<CandidateEval>> {
        let width = self.fan_width(cands.len());
        let this = &*self;
        fan_out(&this.scratches, width, cands.len(), |i, s| {
            this.eval_candidate(&cands[i], max_deltas, want_dags, s)
        })
    }

    /// Evaluates one candidate on scratch `s`.
    ///
    /// The hot path is allocation-free in steady state: destinations an
    /// affecting delta touches are repaired on the scratch's reused DAG
    /// (`clone_from` recycles its flat buffers) and their demand is
    /// pushed **directly into the fold accumulator** — the identical
    /// per-link add sequence the full calculator executes, so results
    /// stay bit-identical. Unaffected destinations replay their sparse
    /// cached contributions instead of an SPF run. With `want_dags` an
    /// unaffected destination hands out its base `Arc` and a repaired or
    /// rebranched one a flat copy (four memcpys).
    fn eval_candidate(
        &self,
        cand: &WeightVector,
        max_deltas: usize,
        want_dags: bool,
        s: &mut EvalScratch,
    ) -> Option<CandidateEval> {
        let diff = self.diff(cand);
        if diff.len() > max_deltas {
            s.stats.full_fallbacks += 1;
            return None;
        }
        let deltas: Vec<StagedDelta> = diff
            .into_iter()
            .map(|(lid, new_w)| StagedDelta {
                link: lid.0,
                src: self.flat.src(lid.0),
                dst: self.flat.dst(lid.0),
                old_w: self.base.get(lid),
                new_w,
            })
            .collect();
        let m = self.flat.link_count();

        // `work_weights` tracks the delta *stage* per destination:
        // checking/applying delta k against a DAG that reflects deltas
        // 0..k needs the slice with deltas 0..=k applied (the deltas
        // touch distinct links, so the old value of link k is the base
        // value). Entries are set on the way in and reverted to base
        // after each destination, so the buffer is refilled only when
        // the base moves.
        s.stage(&self.base, self.generation);

        let mut loads: Vec<ClassLoads> = self.matrices.iter().map(|_| vec![0.0; m]).collect();
        let mut dags: Vec<(NodeId, Arc<FlatDag>)> = Vec::new();

        for ds in &self.dests {
            // Find the first delta that affects this destination. All
            // checks up to that point run against the still-valid cached
            // DAG.
            let first_hit = deltas
                .iter()
                .position(|d| endpoints_delta_affects_dag(&ds.dag, d.src, d.dst, d.old_w, d.new_w));
            let Some(k0) = first_hit else {
                s.stats.replayed += 1;
                ds.replay_into(&mut loads);
                if want_dags {
                    dags.push((ds.dest, ds.dag.clone()));
                }
                continue;
            };

            // Fast path: exactly one delta can affect this destination
            // (the first hit is the last delta) and its entire effect is
            // an ECMP-membership change at the link's tail — push down
            // the *cached* DAG with a one-node branch override, no copy.
            // Tightness under the final weights is unchanged for the
            // non-affecting deltas, so the final slice is valid here.
            if k0 + 1 == deltas.len() {
                let d = &deltas[k0];
                if let Some(u) = fast_rebranch(
                    &self.flat,
                    &ds.dag,
                    cand.as_slice(),
                    d.link,
                    d.old_w,
                    d.new_w,
                    &mut s.branch_buf,
                ) {
                    s.stats.rebranched += 1;
                    ds.push_into(
                        &self.flat,
                        &ds.dag,
                        Some((u, &s.branch_buf)),
                        &mut s.node_flow,
                        &mut loads,
                    );
                    if want_dags {
                        let mut patched = FlatDag::clone(&ds.dag);
                        patched.set_branches(&self.flat, u, &s.branch_buf);
                        dags.push((ds.dest, Arc::new(patched)));
                    }
                    continue;
                }
            }

            // General path: clone into the reusable scratch DAG and
            // apply the delta sequence from the first hit on, each delta
            // tested against the DAG as repaired so far.
            s.stats.repaired += 1;
            s.dag.clone_from(&ds.dag);
            for d in &deltas[..k0] {
                s.work_weights[d.link as usize] = d.new_w;
            }
            for d in &deltas[k0..] {
                s.work_weights[d.link as usize] = d.new_w;
                if endpoints_delta_affects_dag(&s.dag, d.src, d.dst, d.old_w, d.new_w) {
                    apply_weight_delta(
                        &self.flat,
                        &mut s.dag,
                        &s.work_weights,
                        d.link,
                        d.old_w,
                        d.new_w,
                        &mut s.spf,
                    );
                }
            }
            // Restore the stage buffer to the base for the next
            // destination (and the next call).
            for d in &deltas {
                s.work_weights[d.link as usize] = d.old_w;
            }

            ds.push_into(&self.flat, &s.dag, None, &mut s.node_flow, &mut loads);
            if want_dags {
                dags.push((ds.dest, Arc::new(s.dag.clone())));
            }
        }

        Some(CandidateEval { loads, dags })
    }

    /// Moves the base to `new_base`, repairing cached destination states
    /// incrementally when the delta is small and rebuilding from scratch
    /// otherwise. Either way each destination is repaired (or rebuilt)
    /// and re-recorded on its own, so the pass fans out like a batch.
    pub fn rebase(&mut self, new_base: &WeightVector, max_deltas: usize) {
        let deltas = self.diff(new_base);
        if deltas.is_empty() {
            return;
        }
        self.rebases += 1;
        if deltas.len() > max_deltas {
            self.base = new_base.clone();
            self.generation += 1;
            self.rebuild_all();
            return;
        }
        // Per destination, the deltas apply in order, delta k checked
        // and repaired against the slice with deltas 0..=k staged — the
        // sequence every destination saw when the loop ran delta-major.
        let generation = self.generation;
        self.for_each_dest(|flat, base, ds, s| {
            s.stage(base, generation);
            let mut dirty = false;
            for &(lid, new_w) in &deltas {
                let old_w = base.get(lid);
                s.work_weights[lid.index()] = new_w;
                if delta_affects_dag(flat, &ds.dag, lid.0, old_w, new_w) {
                    apply_weight_delta(
                        flat,
                        Arc::make_mut(&mut ds.dag),
                        &s.work_weights,
                        lid.0,
                        old_w,
                        new_w,
                        &mut s.spf,
                    );
                    dirty = true;
                }
            }
            for &(lid, _) in &deltas {
                s.work_weights[lid.index()] = base.get(lid);
            }
            if dirty {
                ds.record_contributions(flat, &mut s.node_flow);
            }
        });
        self.base = new_base.clone();
        self.generation += 1;
    }

    /// Aggregate loads at the current base (exact fold, no repairs).
    pub fn base_loads(&self) -> Vec<ClassLoads> {
        let m = self.flat.link_count();
        let mut out: Vec<ClassLoads> = self.matrices.iter().map(|_| vec![0.0; m]).collect();
        for ds in &self.dests {
            ds.replay_into(&mut out);
        }
        out
    }

    /// Evaluates the **base** weights under a link-up mask
    /// (`link_up[l] == false` removes link `l`), bit-identical to
    /// [`dtr_routing::LoadCalculator::class_loads_masked`] of the base
    /// on that mask.
    ///
    /// This is the failure-sweep hot path: for a single duplex-pair
    /// failure, a down link matters to a destination only if it is
    /// *tight* on that destination's intact DAG, so most destinations
    /// replay their cached contributions untouched. Affected
    /// destinations have the down links **applied** to their cached DAG
    /// in place (staged bitset masks, one [`apply_link_down`] per tight
    /// link), their demand pushed straight into the fold accumulators,
    /// and the DAG **reverted** with the matching [`apply_link_up`]
    /// sequence — repairs are exact on integer distances, so the
    /// restored state is structurally identical to the cached one (a DAG
    /// a consumer still holds is copied first) and the next scenario
    /// starts from the same intact state.
    pub fn eval_mask(&mut self, link_up: &[bool]) -> Vec<ClassLoads> {
        let m = self.flat.link_count();
        assert_eq!(link_up.len(), m);
        self.downs_buf.clear();
        self.downs_buf
            .extend((0..m as u32).filter(|&i| !link_up[i as usize]));
        let mut loads: Vec<ClassLoads> = self.matrices.iter().map(|_| vec![0.0; m]).collect();
        if self.downs_buf.is_empty() {
            return self.base_loads();
        }
        // Staged working mask: entry `k` of the down list is cleared
        // just before delta `k` is considered, so every repair sees
        // exactly the links available in its intermediate state. The
        // buffer is invariantly all-up between calls — each
        // destination's revert loop restores every entry it cleared.
        debug_assert!(self.mask_buf.is_all_up());
        let weights = self.base.as_slice();
        let s = self.scratches[0]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for di in 0..self.dests.len() {
            // Find the first down link that is tight on the cached DAG.
            // Removals of non-tight links are no-ops, so every check up
            // to that point is valid against the intact state.
            let first = {
                let dag = &self.dests[di].dag;
                self.downs_buf
                    .iter()
                    .position(|&l| link_down_affects_dag(&self.flat, dag, weights, l))
            };
            let Some(k0) = first else {
                self.dests[di].replay_into(&mut loads);
                continue;
            };
            let ds = &mut self.dests[di];
            let dag = Arc::make_mut(&mut ds.dag);
            // Deltas before the first hit are no-op removals, but their
            // links must still be masked before any repair runs — a
            // repair may otherwise route the affected region through a
            // link the scenario removed.
            for &l in &self.downs_buf[..k0] {
                self.mask_buf.set_down(l);
            }
            for &l in &self.downs_buf[k0..] {
                self.mask_buf.set_down(l);
                if link_down_affects_dag(&self.flat, dag, weights, l) {
                    apply_link_down(&self.flat, dag, weights, &self.mask_buf, l, &mut s.spf);
                }
            }
            let ds = &self.dests[di];
            ds.push_into(&self.flat, &ds.dag, None, &mut s.node_flow, &mut loads);
            // Revert: restore the links in reverse order under the
            // matching staged masks. `apply_link_up` detects no-ops
            // itself, so no-op removals need no bookkeeping.
            let dag = Arc::make_mut(&mut self.dests[di].dag);
            for i in (0..self.downs_buf.len()).rev() {
                let l = self.downs_buf[i];
                self.mask_buf.set_up(l);
                apply_link_up(&self.flat, dag, weights, &self.mask_buf, l, &mut s.spf);
            }
        }
        loads
    }
}

impl DestState {
    /// (Re)records `contrib` from a push of each matrix's demand down
    /// the current DAG: the pairs are the push's own adds.
    fn record_contributions(&mut self, flat: &FlatTopo, node_flow: &mut Vec<f64>) {
        self.contrib
            .resize_with(self.demand.len(), SparseLoads::default);
        for (col, sl) in self.demand.iter().zip(&mut self.contrib) {
            sl.links.clear();
            sl.vals.clear();
            if col.is_empty() {
                continue;
            }
            push_demand_flat(flat, &self.dag, col, node_flow, None, |l, share| {
                sl.links.push(l);
                sl.vals.push(share);
            });
        }
    }

    /// Pushes each matrix's demand down `dag` (this destination's DAG,
    /// possibly repaired) straight into the fold accumulators — the same
    /// add sequence the full calculator performs at this destination's
    /// position.
    fn push_into(
        &self,
        flat: &FlatTopo,
        dag: &FlatDag,
        override_branches: Option<(u32, &[u32])>,
        node_flow: &mut Vec<f64>,
        loads: &mut [ClassLoads],
    ) {
        for (col, out) in self.demand.iter().zip(loads) {
            if col.is_empty() {
                continue;
            }
            push_demand_flat(flat, dag, col, node_flow, override_branches, |l, share| {
                out[l as usize] += share
            });
        }
    }

    /// Replays the cached contributions into the fold accumulators.
    fn replay_into(&self, loads: &mut [ClassLoads]) {
        for (contrib, out) in self.contrib.iter().zip(loads) {
            contrib.add_into(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};
    use dtr_graph::ShortestPathDag;
    use dtr_routing::LoadCalculator;
    use dtr_traffic::{DemandSet, TrafficCfg};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn instance(seed: u64) -> (Topology, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed,
                ..Default::default()
            },
        );
        (topo, demands)
    }

    /// One candidate through the batch path, four deltas allowed.
    fn eval_one(
        state: &mut FlowState<'_>,
        cand: &WeightVector,
        want_dags: bool,
    ) -> Option<CandidateEval> {
        state
            .eval_batch(std::slice::from_ref(cand), 4, want_dags)
            .pop()
            .unwrap()
    }

    fn with_threads<R>(n: usize, op: impl FnOnce() -> R) -> R {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(n).build();
        pool.unwrap().install(op)
    }

    /// Below `PAR_MIN_WORK` nothing dispatches: under a three-thread cap
    /// a batch, a repair rebase and a rebuild still run on the one
    /// scratch the calling thread uses.
    #[test]
    fn small_states_never_fan_out() {
        let (topo, demands) = instance(9);
        let w = WeightVector::uniform(&topo, 5);
        let cands: Vec<WeightVector> = (0..6u32)
            .map(|i| {
                let mut c = w.clone();
                c.set(LinkId(i), 9);
                c
            })
            .collect();
        with_threads(3, || {
            let mut state =
                FlowState::new(&topo, vec![&demands.high, &demands.low], w.clone(), false);
            assert!(state.dest_count() * topo.node_count() < PAR_MIN_WORK);
            state.eval_batch(&cands, 4, true);
            state.rebase(&cands[0], 4);
            state.rebase(&WeightVector::uniform(&topo, 2), 4);
            assert_eq!(state.scratches.len(), 1);
        });
    }

    /// Above it, a batch takes one scratch per participant, capped by
    /// the thread count and the batch size; loads and counters are the
    /// one-thread run's.
    #[test]
    fn large_states_fan_out_one_scratch_per_participant() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 40,
            directed_links: 160,
            seed: 3,
        });
        let demands = DemandSet::generate(&topo, &TrafficCfg::default());
        let w = WeightVector::uniform(&topo, 5);
        let cands: Vec<WeightVector> = (0..5u32)
            .map(|i| {
                let mut c = w.clone();
                c.set(LinkId(3 * i), 1 + i);
                c
            })
            .collect();
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut state = FlowState::new(&topo, vec![&demands.low], w.clone(), false);
                assert!(state.dest_count() * topo.node_count() >= PAR_MIN_WORK);
                let two = state.eval_batch(&cands[..2], 4, false);
                let all = state.eval_batch(&cands, 4, false);
                let loads = |evs: Vec<Option<CandidateEval>>| -> Vec<ClassLoads> {
                    evs.into_iter()
                        .map(|e| e.unwrap().loads.swap_remove(0))
                        .collect()
                };
                (
                    state.scratches.len(),
                    loads(two),
                    loads(all),
                    state.work_stats(),
                )
            })
        };
        let one = run(1);
        assert_eq!(one.0, 1);
        for threads in [2, 3] {
            let fanned = run(threads);
            assert_eq!(fanned.0, threads);
            assert_eq!(fanned.1, one.1);
            assert_eq!(fanned.2, one.2);
            assert_eq!(fanned.3, one.3);
        }
    }

    #[test]
    fn base_fold_matches_full_calculator_bitwise() {
        let (topo, demands) = instance(3);
        let w = WeightVector::uniform(&topo, 7);
        let state = FlowState::new(&topo, vec![&demands.high], w.clone(), false);
        let full = LoadCalculator::new().class_loads(&topo, &w, &demands.high);
        assert_eq!(state.base_loads()[0], full);
    }

    #[test]
    fn joint_fold_matches_joint_loads_bitwise() {
        let (topo, demands) = instance(5);
        let w = WeightVector::uniform(&topo, 3);
        let state = FlowState::new(&topo, vec![&demands.high, &demands.low], w.clone(), false);
        let (fh, fl) = LoadCalculator::new().joint_loads(&topo, &w, &demands.high, &demands.low);
        let loads = state.base_loads();
        assert_eq!(loads[0], fh);
        assert_eq!(loads[1], fl);
    }

    #[test]
    fn candidate_evals_match_full_bitwise() {
        let (topo, demands) = instance(8);
        let mut rng = StdRng::seed_from_u64(17);
        let w = WeightVector::uniform(&topo, 5);
        let mut state = FlowState::new(&topo, vec![&demands.low], w.clone(), false);
        let mut calc = LoadCalculator::new();
        for _ in 0..200 {
            let mut cand = w.clone();
            for _ in 0..rng.random_range(1usize..=2) {
                let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
                cand.set(lid, rng.random_range(1u32..=30));
            }
            let ev = eval_one(&mut state, &cand, false).unwrap();
            let full = calc.class_loads(&topo, &cand, &demands.low);
            assert_eq!(ev.loads[0], full);
        }
    }

    #[test]
    fn candidate_dags_match_full_compute() {
        let (topo, demands) = instance(6);
        let mut rng = StdRng::seed_from_u64(41);
        let w = WeightVector::uniform(&topo, 4);
        let mut state = FlowState::new(&topo, vec![&demands.high], w.clone(), false);
        for _ in 0..40 {
            let mut cand = w.clone();
            for _ in 0..rng.random_range(1usize..=2) {
                let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
                cand.set(lid, rng.random_range(1u32..=30));
            }
            let ev = eval_one(&mut state, &cand, true).unwrap();
            for (dest, dag) in &ev.dags {
                let fresh = ShortestPathDag::compute(&topo, &cand, *dest);
                let got = dag.to_dag(state.flat());
                assert_eq!(got.dist, fresh.dist);
                assert_eq!(got.ecmp_out, fresh.ecmp_out);
                assert_eq!(got.order, fresh.order);
            }
        }
    }

    #[test]
    fn eval_mask_matches_masked_calculator_bitwise() {
        let (topo, demands) = instance(7);
        let w = WeightVector::uniform(&topo, 4);
        let mut state = FlowState::new(&topo, vec![&demands.high, &demands.low], w.clone(), false);
        let mut calc = LoadCalculator::new();
        let scenarios = dtr_routing::survivable_duplex_failures(&topo);
        assert!(!scenarios.is_empty());
        for sc in &scenarios {
            let loads = state.eval_mask(&sc.link_up);
            let fh = calc.class_loads_masked(&topo, &w, &sc.link_up, &demands.high);
            let fl = calc.class_loads_masked(&topo, &w, &sc.link_up, &demands.low);
            assert_eq!(loads[0], fh, "pair {}", sc.pair_id);
            assert_eq!(loads[1], fl, "pair {}", sc.pair_id);
        }
        // The apply/revert sweep left the intact state untouched.
        let full = LoadCalculator::new().class_loads(&topo, &w, &demands.high);
        assert_eq!(state.base_loads()[0], full);
    }

    #[test]
    fn eval_mask_all_up_is_base_fold() {
        let (topo, demands) = instance(4);
        let w = WeightVector::uniform(&topo, 2);
        let mut state = FlowState::new(&topo, vec![&demands.low], w, false);
        let up = vec![true; topo.link_count()];
        assert_eq!(state.eval_mask(&up), state.base_loads());
    }

    /// After every rebase — by repair and, every tenth step, by rebuild
    /// — the recorded contributions replay to the full calculator's
    /// loads, for one- and two-matrix states.
    #[test]
    fn rebase_walks_match_full() {
        let (topo, demands) = instance(2);
        for matrices in [vec![&demands.high], vec![&demands.high, &demands.low]] {
            let mut rng = StdRng::seed_from_u64(23);
            let mut w = WeightVector::uniform(&topo, 9);
            let mut state = FlowState::new(&topo, matrices.clone(), w.clone(), false);
            let mut calc = LoadCalculator::new();
            for step in 0..100 {
                let mut next = w.clone();
                let count = if step % 10 == 0 { 12 } else { 2 }; // force both paths
                for _ in 0..count {
                    let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
                    next.set(lid, rng.random_range(1u32..=30));
                }
                state.rebase(&next, 4);
                w = next;
                let loads = state.base_loads();
                assert_eq!(loads.len(), matrices.len());
                for (got, m) in loads.iter().zip(&matrices) {
                    assert_eq!(got, &calc.class_loads(&topo, &w, m), "step {step}");
                }
            }
            let stats = state.work_stats();
            assert!(stats.rebases > 90 && stats.replayed == 0, "{stats:?}");
        }
    }

    #[test]
    fn work_stats_classify_every_destination_of_every_candidate() {
        let (topo, demands) = instance(8);
        let mut rng = StdRng::seed_from_u64(5);
        let w = WeightVector::uniform(&topo, 5);
        let mut state = FlowState::new(&topo, vec![&demands.low], w.clone(), false);
        let mut evaluated = 0;
        for i in 0..60 {
            let mut cand = w.clone();
            // Every tenth candidate is a diversification-sized jump.
            let changes = if i % 10 == 9 { 9 } else { 1 + i % 2 };
            for _ in 0..changes {
                let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
                cand.set(lid, rng.random_range(1u32..=30));
            }
            evaluated += eval_one(&mut state, &cand, false).is_some() as u64;
        }
        let s = state.work_stats();
        assert_eq!(
            s.replayed + s.rebranched + s.repaired,
            evaluated * state.dest_count() as u64
        );
        assert_eq!(s.full_fallbacks, 60 - evaluated);
        assert!(s.full_fallbacks > 0 && s.rebranched > 0 && s.repaired > 0 && s.replayed > 0);
        assert_eq!(s.rebases, 0);
    }
}
