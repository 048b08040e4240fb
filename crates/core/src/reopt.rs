//! Change-limited reoptimization (Fortz & Thorup's "changing world" \[19\]).
//!
//! Demand drifts daily, but operators will not push a complete new weight
//! configuration to every router each morning: each changed metric is a
//! configuration event that triggers an LSA flood and a network-wide SPF
//! rerun. \[19\] frames the practical problem as: *given the incumbent
//! weights and a new traffic matrix, find a better setting that differs
//! in at most `h` weights*.
//!
//! [`ReoptSearch`] implements that constrained search for both schemes:
//! under [`Scheme::Str`] a "change" is one link's shared weight; under
//! [`Scheme::Dtr`] each per-class metric counts separately (that is what
//! a router reconfiguration costs under multi-topology OSPF — one metric
//! statement per topology per interface). It is one stage on the shared
//! [`descent`](crate::descent) driver whose step proposes `m`
//! single-weight changes inside the Hamming ball of radius `h` around
//! the incumbent (a move that would exceed the budget becomes a
//! *revert*, which releases budget) and whose diversification restarts
//! at a random point of that ball.
//!
//! [`ReoptSession`] wraps the same search in a long-lived warm-start API
//! for callers that track a network over time (the `dtrd` daemon): it
//! owns the incumbent, derives a decorrelated seed per step, and tells
//! the search which links are currently down.
//!
//! # One evaluation
//!
//! Every candidate of every descent — either scheme, either objective,
//! links down or not — is costed by the same private `MaskedEngine`:
//! one [`BatchEvaluator`] on [`SearchParams::backend`] whose per-class
//! lanes sit at the descent's *current* point, swept under the link
//! mask in force (all-up outside a failure). The lanes move with the
//! descent — to the start, to every accepted move, to every
//! diversification restart — so under [`BackendKind::Incremental`] a
//! candidate is a one-weight repair of the current DAGs however far the
//! descent has wandered from the incumbent. Both backends are
//! bit-identical to `dtr_routing::LoadCalculator`, so the backend picks
//! wall-clock time, never the trajectory.
//!
//! [`BackendKind::Incremental`]: dtr_engine::BackendKind::Incremental

use crate::descent::{best_improving, Descent, SingleChange, Step, Walk};
use crate::params::{derive_stream_seed, SearchParams};
use crate::scheme::Scheme;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::{Lex2, Objective};
use dtr_engine::BatchEvaluator;
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, Topology, WeightVector};
use dtr_routing::{Evaluation, FailureScenario};
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

/// Outcome of one change-limited reoptimization.
#[derive(Debug, Clone)]
pub struct ReoptResult {
    /// Best setting found within the change budget (replicated vectors
    /// under [`Scheme::Str`]).
    pub weights: DualWeights,
    /// Full evaluation of the best setting on the *new* demand.
    pub eval: Evaluation,
    /// Its objective value.
    pub best_cost: Lex2,
    /// Evaluation of the point the descent started from (the
    /// incumbent), by the engine behind `eval`.
    pub start_eval: Evaluation,
    /// The change budget `h` this run was allowed.
    pub max_changes: usize,
    /// Weight positions actually changed relative to the incumbent
    /// (`≤ max_changes`).
    pub changes_used: usize,
    /// Telemetry.
    pub trace: SearchTrace,
}

/// The one evaluation behind every descent (see the module docs): a
/// [`BatchEvaluator`] whose per-class lanes track the descent's current
/// point, swept under one link mask.
struct MaskedEngine<'a> {
    batch: BatchEvaluator<'a>,
    scheme: Scheme,
    /// The mask in force as a one-scenario sweep; `pair_id` is
    /// reporting-only.
    scenario: [FailureScenario; 1],
}

impl<'a> MaskedEngine<'a> {
    fn new(search: &ReoptSearch<'a>) -> Self {
        // The sweeps cost a failed network by its loads alone; an SLA
        // walk over the surviving DAGs does not exist yet.
        assert!(
            matches!(search.objective, Objective::LoadBased) || search.link_up.iter().all(|&up| up),
            "masked reoptimization supports Objective::LoadBased only"
        );
        MaskedEngine {
            batch: BatchEvaluator::new(
                search.topo,
                search.demands,
                search.objective,
                search.params.backend,
            ),
            scheme: search.scheme,
            scenario: [FailureScenario {
                pair_id: u32::MAX,
                link_up: search.link_up.clone(),
            }],
        }
    }

    /// The vector the low class rides: the shared one under STR.
    fn low_of<'w>(&self, w: &'w DualWeights) -> &'w WeightVector {
        match self.scheme {
            Scheme::Str => &w.high,
            Scheme::Dtr => &w.low,
        }
    }

    /// Moves both lanes onto `w`, the descent's new current point.
    fn rebase(&mut self, w: &DualWeights) {
        self.batch.rebase_high(&w.high);
        self.batch.rebase_low(self.low_of(w));
    }

    /// Full evaluation of `w` under the mask.
    fn eval(&mut self, w: &DualWeights) -> Evaluation {
        let wl = self.low_of(w);
        let hl = self.batch.sweep_high(&w.high, &self.scenario).pop();
        let ll = self.batch.sweep_low(wl, &self.scenario).pop();
        let ev = self.batch.evaluator();
        let high = ev.high_side_from_loads(hl.expect("one scenario"), &w.high);
        ev.finish(high, ll.expect("one scenario"))
            .expect("high side built by this evaluator carries the SLA walk")
    }
}

/// The change-limited local search.
pub struct ReoptSearch<'a> {
    topo: &'a Topology,
    demands: &'a DemandSet,
    objective: Objective,
    params: SearchParams,
    scheme: Scheme,
    incumbent: DualWeights,
    max_changes: usize,
    /// Per-directed-link operational state candidates are costed under
    /// (`false` removes the link). All-up unless a [`ReoptSession`]
    /// says otherwise.
    link_up: Vec<bool>,
}

impl<'a> ReoptSearch<'a> {
    /// Prepares a reoptimization of `incumbent` against `demands`
    /// (typically a drifted matrix), allowing at most `max_changes`
    /// weight changes. Under [`Scheme::Str`] the incumbent must have
    /// replicated vectors.
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
        scheme: Scheme,
        incumbent: DualWeights,
        max_changes: usize,
    ) -> Self {
        params.validate();
        assert_eq!(incumbent.high.len(), topo.link_count());
        assert_eq!(incumbent.low.len(), topo.link_count());
        if scheme == Scheme::Str {
            assert_eq!(
                incumbent.high, incumbent.low,
                "STR incumbents must have replicated vectors"
            );
        }
        ReoptSearch {
            topo,
            demands,
            objective,
            params,
            scheme,
            incumbent,
            max_changes,
            link_up: vec![true; topo.link_count()],
        }
    }

    /// Runs the constrained search for [`SearchParams::str_iters`]
    /// iterations of `m` candidates each.
    pub fn run(self) -> ReoptResult {
        let iters = self.params.str_iters();
        self.run_with_iters(iters)
    }

    /// Like [`run`](Self::run) with an explicit iteration budget —
    /// the anytime knob behind [`ReoptSession::idle_step`]: `iters`
    /// iterations of `neighbors` candidates each, with diversification
    /// restarts inside the feasible ball.
    pub fn run_with_iters(self, iters: usize) -> ReoptResult {
        let mut engine = MaskedEngine::new(&self);
        let w = self.incumbent.clone();
        engine.rebase(&w);
        let start_eval = engine.eval(&w);
        let mut walk = ReoptWalk {
            eval: start_eval.clone(),
            engine,
            search: &self,
            rng: StdRng::seed_from_u64(self.params.seed),
            w,
        };
        let mut descent = Descent::start(&walk, self.params.diversify_after, Phase::Str, 1);
        // With no budget nothing may move: the incumbent is the answer.
        let iters = if self.max_changes == 0 { 0 } else { iters };
        descent.stage(&mut walk, iters, Phase::Str);

        let (best_cost, (weights, eval), trace) = descent.finish();
        ReoptResult {
            changes_used: changes_between(&weights, &self.incumbent, self.scheme),
            weights,
            eval,
            best_cost,
            start_eval,
            max_changes: self.max_changes,
            trace,
        }
    }
}

/// The descent's current point inside the feasible ball.
struct ReoptWalk<'a, 's> {
    engine: MaskedEngine<'a>,
    search: &'s ReoptSearch<'a>,
    rng: StdRng,
    w: DualWeights,
    eval: Evaluation,
}

impl Walk for ReoptWalk<'_, '_> {
    type Cost = Lex2;
    /// The evaluation rides along so the result needs no re-evaluation.
    type Point = (DualWeights, Evaluation);

    fn cost(&self) -> &Lex2 {
        &self.eval.cost
    }

    fn snapshot(&self) -> Self::Point {
        (self.w.clone(), self.eval.clone())
    }

    /// Up to `m` feasible single-weight changes (an infeasible draw is
    /// skipped, not redrawn).
    fn step(&mut self, _it: usize) -> Step {
        let mut cands: Vec<(Evaluation, DualWeights)> = Vec::new();
        for _ in 0..self.search.params.neighbors {
            if let Some(w) = self.search.propose(&self.w, &mut self.rng) {
                cands.push((self.engine.eval(&w), w));
            }
        }
        let evaluated = cands.len();
        let best = best_improving(cands, self.cost(), |(e, _)| &e.cost);
        let moved = best.is_some();
        if let Some((eval, w)) = best {
            self.engine.rebase(&w);
            self.eval = eval;
            self.w = w;
        }
        Step::of(evaluated, moved)
    }

    /// Restarts inside the feasible ball: incumbent weights with a
    /// random subset of ≤ h positions re-randomized.
    fn diversify(&mut self, _best: &Self::Point) -> usize {
        self.w = self.search.random_feasible(&mut self.rng);
        self.engine.rebase(&self.w);
        self.eval = self.engine.eval(&self.w);
        1
    }
}

/// The proposal kernel: every move stays inside the Hamming ball of
/// radius `max_changes` around the incumbent, with reverts releasing
/// budget.
impl ReoptSearch<'_> {
    /// Proposes one feasible single-weight change, or `None` when the
    /// randomly chosen position cannot move without breaking the budget.
    fn propose(&self, cur: &DualWeights, rng: &mut StdRng) -> Option<DualWeights> {
        let incumbent = &self.incumbent;
        let (link, high) = SingleChange::draw_position(self.scheme, cur.high.len(), rng);
        let (cur_vec, inc_vec) = if high {
            (&cur.high, &incumbent.high)
        } else {
            (&cur.low, &incumbent.low)
        };
        let old = cur_vec.get(link);
        let at_budget = changes_between(cur, incumbent, self.scheme) >= self.max_changes;
        if at_budget && old == inc_vec.get(link) {
            // Budget exhausted and this position is pristine: the only
            // legal moves elsewhere are reverts, so propose one instead.
            return self.propose_revert(cur, rng);
        }
        // Either budget is available (any new value works) or this
        // position already counts against the budget (re-valuing it is
        // free).
        let value = SingleChange::draw_value(old, &self.params, rng);
        let mut next = cur.clone();
        SingleChange { link, high, value }.apply(self.scheme, &mut next);
        Some(next)
    }

    /// Reverts one randomly chosen changed position to its incumbent
    /// value (releases one unit of budget); `None` when nothing changed.
    fn propose_revert(&self, cur: &DualWeights, rng: &mut StdRng) -> Option<DualWeights> {
        let incumbent = &self.incumbent;
        let mut changed: Vec<(bool, LinkId)> = Vec::new();
        for i in 0..cur.high.len() as u32 {
            let lid = LinkId(i);
            if cur.high.get(lid) != incumbent.high.get(lid) {
                changed.push((true, lid));
            }
            if self.scheme == Scheme::Dtr && cur.low.get(lid) != incumbent.low.get(lid) {
                changed.push((false, lid));
            }
        }
        let &(high, link) = changed.choose(rng)?;
        let value = if high {
            &incumbent.high
        } else {
            &incumbent.low
        }
        .get(link);
        let mut next = cur.clone();
        SingleChange { link, high, value }.apply(self.scheme, &mut next);
        Some(next)
    }

    /// A random point inside the feasible ball around the incumbent.
    fn random_feasible(&self, rng: &mut StdRng) -> DualWeights {
        let mut w = self.incumbent.clone();
        let count = rng.random_range(1..=self.max_changes);
        for _ in 0..count {
            // Not a `SingleChange::draw`: the value comes before the
            // class coin and may equal the old one. The goldens freeze
            // this order.
            let link = LinkId(rng.random_range(0..w.high.len() as u32));
            let value = rng.random_range(self.params.min_weight..=self.params.max_weight);
            let high = self.scheme == Scheme::Str || rng.random_bool(0.5);
            SingleChange { link, high, value }.apply(self.scheme, &mut w);
        }
        w
    }
}

/// Number of configuration changes between two settings under a scheme:
/// per-link for STR (the vectors are replicas), per-link-per-class for
/// DTR.
pub fn changes_between(a: &DualWeights, b: &DualWeights, scheme: Scheme) -> usize {
    match scheme {
        Scheme::Str => a.high.hamming(&b.high),
        Scheme::Dtr => a.high.hamming(&b.high) + a.low.hamming(&b.low),
    }
}

/// A long-lived warm-start reoptimization session.
///
/// Where [`ReoptSearch`] is a one-shot run, a session owns the incumbent
/// weights across a *sequence* of reoptimizations — the shape a live
/// network has: demand drifts, links fail and recover, and each event
/// asks "can ≤ `h` weight changes improve the current setting?". The
/// session guarantees:
///
/// - **Warm start:** every descent starts from the current incumbent, so
///   its result is never worse than leaving the weights alone (the
///   incumbent's own evaluation seeds the best-so-far).
/// - **Seed decorrelation:** descent `k` runs with
///   [`derive_stream_seed`]`(params.seed,
///   `[`streams::REOPT_STEP`](crate::streams::REOPT_STEP)` + k)`, so
///   consecutive descents explore independently while the whole sequence
///   stays a pure function of the base seed — replaying the same event
///   sequence reproduces the same results bit for bit.
/// - **Explicit adoption:** the session only moves its incumbent when
///   the caller [`accept`](Self::accept)s a result, mirroring an
///   operator who may decline a reconfiguration (e.g. because its
///   control-plane churn outweighs the gain).
///
/// [`step`](Self::step), [`step_masked`](Self::step_masked) and
/// [`idle_step`](Self::idle_step) are one descent with different
/// arguments — all links up or a failure mask, the full iteration
/// schedule or a caller-chosen slice of it — and each consumes exactly
/// one position of the seed stream. Snapshot / restore is supported by
/// persisting the incumbent and [`steps`](Self::steps), then
/// [`resume_at`](Self::resume_at).
#[derive(Clone)]
pub struct ReoptSession {
    objective: Objective,
    params: SearchParams,
    scheme: Scheme,
    incumbent: DualWeights,
    steps: u64,
}

impl ReoptSession {
    /// Opens a session around `incumbent`. Under [`Scheme::Str`] the
    /// incumbent must have replicated vectors.
    pub fn new(
        incumbent: DualWeights,
        objective: Objective,
        params: SearchParams,
        scheme: Scheme,
    ) -> Self {
        params.validate();
        assert_eq!(incumbent.high.len(), incumbent.low.len());
        if scheme == Scheme::Str {
            assert_eq!(
                incumbent.high, incumbent.low,
                "STR incumbents must have replicated vectors"
            );
        }
        ReoptSession {
            objective,
            params,
            scheme,
            incumbent,
            steps: 0,
        }
    }

    /// The current incumbent setting.
    pub fn incumbent(&self) -> &DualWeights {
        &self.incumbent
    }

    /// The session's routing scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// How many reoptimization steps have run (the seed-stream position).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Restores the seed-stream position after a snapshot/restore
    /// round-trip, so a restored session continues exactly where the
    /// original would have.
    pub fn resume_at(&mut self, steps: u64) {
        self.steps = steps;
    }

    /// Adopts `weights` as the new incumbent (the caller deployed a
    /// result). Panics if the vectors do not match the incumbent's size
    /// or break the STR replica invariant.
    pub fn accept(&mut self, weights: DualWeights) {
        assert_eq!(weights.high.len(), self.incumbent.high.len());
        assert_eq!(weights.low.len(), self.incumbent.low.len());
        if self.scheme == Scheme::Str {
            assert_eq!(
                weights.high, weights.low,
                "STR incumbents must have replicated vectors"
            );
        }
        self.incumbent = weights;
    }

    /// The one descent behind the three public forms: warm-started from
    /// the incumbent, costed under `link_up` (`None` = every link up),
    /// `iters` iterations long. Descent `k` runs on seed stream
    /// [`streams::REOPT_STEP`](crate::streams::REOPT_STEP)` + k` — the
    /// frozen zero-tagged span, so recorded replay artifacts stay valid.
    fn descend(
        &mut self,
        topo: &Topology,
        demands: &DemandSet,
        link_up: Option<&[bool]>,
        max_changes: usize,
        iters: usize,
    ) -> ReoptResult {
        let params = self.params.with_seed(derive_stream_seed(
            self.params.seed,
            crate::streams::REOPT_STEP + self.steps,
        ));
        self.steps += 1;
        let mut search = ReoptSearch::new(
            topo,
            demands,
            self.objective,
            params,
            self.scheme,
            self.incumbent.clone(),
            max_changes,
        );
        if let Some(mask) = link_up {
            assert_eq!(mask.len(), topo.link_count());
            search.link_up = mask.to_vec();
        }
        search.run_with_iters(iters)
    }

    /// One warm-started reoptimization of the incumbent against
    /// `demands`, allowing at most `max_changes` weight changes. The
    /// incumbent is *not* moved — call [`accept`](Self::accept) to
    /// deploy the result.
    pub fn step(
        &mut self,
        topo: &Topology,
        demands: &DemandSet,
        max_changes: usize,
    ) -> ReoptResult {
        self.descend(topo, demands, None, max_changes, self.params.str_iters())
    }

    /// Like [`step`](Self::step) but costing every candidate under a
    /// link-failure mask (`link_up[l] == false` removes link `l`), so
    /// the search optimizes for the network as it currently stands.
    /// The caller must ensure the surviving topology is still strongly
    /// connected — demand towards unreachable destinations would be
    /// dropped silently otherwise.
    ///
    /// A failed network is costed by its loads alone, so a mask with a
    /// link down panics under [`Objective::SlaBased`]; an all-up mask is
    /// exactly [`step`](Self::step).
    pub fn step_masked(
        &mut self,
        topo: &Topology,
        demands: &DemandSet,
        link_up: &[bool],
        max_changes: usize,
    ) -> ReoptResult {
        self.descend(
            topo,
            demands,
            Some(link_up),
            max_changes,
            self.params.str_iters(),
        )
    }

    /// A budgeted anytime improvement pass over the incumbent:
    /// [`step_masked`](Self::step_masked) limited to `iters` iterations
    /// instead of the full [`SearchParams::str_iters`] schedule. It
    /// consumes one position of the seed stream like every other step,
    /// so a snapshotted session restored via
    /// [`resume_at`](Self::resume_at) replays idle passes identically.
    /// The incumbent is *not* moved — callers price the result and
    /// [`accept`](Self::accept) it like any other step.
    pub fn idle_step(
        &mut self,
        topo: &Topology,
        demands: &DemandSet,
        link_up: &[bool],
        max_changes: usize,
        iters: usize,
    ) -> ReoptResult {
        self.descend(topo, demands, Some(link_up), max_changes, iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtr::DtrSearch;
    use dtr_engine::BackendKind;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
    use dtr_graph::WeightVector;
    use dtr_routing::{survivable_duplex_failures, Evaluator};
    use dtr_traffic::{TrafficCfg, TrafficMatrix};

    fn triangle_instance() -> (Topology, DemandSet) {
        let topo = triangle_topology(1.0);
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0 / 3.0);
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 2.0 / 3.0);
        (topo, DemandSet { high, low })
    }

    fn drifted_instance() -> (Topology, DemandSet, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 8,
        });
        let base = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 8,
                ..Default::default()
            },
        )
        .scaled(4.0);
        // A crude drift: swap emphasis onto a different seed's pattern.
        let drifted = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 9,
                ..Default::default()
            },
        )
        .scaled(4.0);
        (topo, base, drifted)
    }

    #[test]
    fn zero_budget_returns_incumbent() {
        let (topo, demands) = triangle_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let res = ReoptSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny(),
            Scheme::Dtr,
            incumbent.clone(),
            0,
        )
        .run();
        assert_eq!(res.weights, incumbent);
        assert_eq!(res.changes_used, 0);
    }

    #[test]
    fn one_change_recovers_triangle_dtr_detour() {
        // From uniform weights, a single W^L change (raising the direct
        // A→C low-class weight) reaches Φ_L = 11/9 — the reopt search
        // must find an improvement of that size with h = 1.
        let (topo, demands) = triangle_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let res = ReoptSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(2),
            Scheme::Dtr,
            incumbent,
            1,
        )
        .run();
        assert!(res.changes_used <= 1);
        assert!((res.eval.phi_h - 1.0 / 3.0).abs() < 1e-9);
        assert!(
            (res.eval.phi_l - 11.0 / 9.0).abs() < 1e-9,
            "phi_l={} (expected the one-change ECMP split)",
            res.eval.phi_l
        );
    }

    #[test]
    fn changes_respect_budget() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        for h in [1usize, 3, 7] {
            let res = ReoptSearch::new(
                &topo,
                &drifted,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(h as u64),
                Scheme::Dtr,
                incumbent.clone(),
                h,
            )
            .run();
            assert!(res.changes_used <= h, "h={h} used={}", res.changes_used);
            assert_eq!(
                res.changes_used,
                changes_between(&res.weights, &incumbent, Scheme::Dtr)
            );
        }
    }

    #[test]
    fn str_scheme_counts_links_once_and_keeps_replicas() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let res = ReoptSearch::new(
            &topo,
            &drifted,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(5),
            Scheme::Str,
            incumbent,
            3,
        )
        .run();
        assert_eq!(res.weights.high, res.weights.low);
        assert!(res.changes_used <= 3);
    }

    #[test]
    #[should_panic(expected = "replicated")]
    fn str_scheme_rejects_diverged_incumbent() {
        let (topo, demands) = triangle_instance();
        let mut w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        w.low.set(LinkId(0), 9);
        let _ = ReoptSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny(),
            Scheme::Str,
            w,
            1,
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let run = || {
            ReoptSearch::new(
                &topo,
                &drifted,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(31),
                Scheme::Dtr,
                incumbent.clone(),
                5,
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.changes_used, b.changes_used);
    }

    fn session(incumbent: DualWeights, seed: u64) -> ReoptSession {
        ReoptSession::new(
            incumbent,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(seed),
            Scheme::Dtr,
        )
    }

    #[test]
    fn session_step_never_worse_than_incumbent() {
        // The incumbent's own evaluation seeds the best-so-far, so a
        // step can never report a worse setting than doing nothing.
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let inc_cost = Evaluator::new(&topo, &drifted, Objective::LoadBased)
            .eval_dual(&incumbent)
            .cost;
        let mut s = session(incumbent, 11);
        let res = s.step(&topo, &drifted, 4);
        assert!(res.best_cost <= inc_cost);
        // The session does not adopt results on its own.
        assert_eq!(
            s.incumbent().high.as_slice(),
            &vec![1; topo.link_count()][..]
        );
    }

    #[test]
    fn session_warm_equals_or_beats_cold_on_perturbed_instance() {
        // Optimize the base matrix, then perturb the demands: a session
        // warm-started from the base optimum must do at least as well
        // as a cold session starting from uniform weights, under the
        // same per-step budget and seeds.
        let (topo, base, drifted) = drifted_instance();
        let params = SearchParams::tiny().with_seed(3);
        let tuned = DtrSearch::new(&topo, &base, Objective::LoadBased, params).run();

        let mut warm = session(tuned.weights.clone(), 21);
        let mut cold = session(DualWeights::replicated(WeightVector::uniform(&topo, 1)), 21);
        let h = 6;
        let warm_res = warm.step(&topo, &drifted, h);
        let cold_res = cold.step(&topo, &drifted, h);
        assert!(
            warm_res.best_cost <= cold_res.best_cost,
            "warm {:?} must not lose to cold {:?}",
            warm_res.best_cost,
            cold_res.best_cost
        );
    }

    #[test]
    fn session_chained_steps_are_monotone() {
        // accept() then re-step on the same demands: the new start is
        // the previous best, so the chain is monotone non-increasing.
        let (topo, _, drifted) = drifted_instance();
        let mut s = session(DualWeights::replicated(WeightVector::uniform(&topo, 1)), 13);
        let mut prev = s.step(&topo, &drifted, 4);
        for _ in 0..3 {
            s.accept(prev.weights.clone());
            let next = s.step(&topo, &drifted, 4);
            assert!(next.best_cost <= prev.best_cost);
            prev = next;
        }
    }

    #[test]
    fn session_stream_is_deterministic_and_resumable() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let mut a = session(incumbent.clone(), 17);
        let a1 = a.step(&topo, &drifted, 4);
        a.accept(a1.weights.clone());
        let a2 = a.step(&topo, &drifted, 4);

        // A restored session (incumbent + stream position) continues
        // bit-identically.
        let mut b = session(a1.weights.clone(), 17);
        b.resume_at(1);
        let b2 = b.step(&topo, &drifted, 4);
        assert_eq!(a2.weights, b2.weights);
        assert_eq!(a2.best_cost, b2.best_cost);

        // Consecutive steps use decorrelated seeds, not the same one:
        // a fresh session at position 0 with the same incumbent should
        // generally explore differently than position 1 did.
        let mut c = session(a1.weights, 17);
        let c1 = c.step(&topo, &drifted, 4);
        assert!(c1.best_cost <= a2.best_cost || c1.weights != a2.weights);
    }

    #[test]
    fn session_masked_backends_agree() {
        let (topo, _, drifted) = drifted_instance();
        let mask = survivable_duplex_failures(&topo)[0].link_up.clone();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let run = |kind: BackendKind| {
            let mut s = ReoptSession::new(
                incumbent.clone(),
                Objective::LoadBased,
                SearchParams::tiny().with_seed(19).with_backend(kind),
                Scheme::Dtr,
            );
            s.step_masked(&topo, &drifted, &mask, 4)
        };
        let full = run(BackendKind::Full);
        let inc = run(BackendKind::Incremental);
        assert_eq!(full.weights, inc.weights);
        assert_eq!(full.best_cost, inc.best_cost);
        assert_eq!(full.eval.high_loads, inc.eval.high_loads);
        assert_eq!(full.eval.low_loads, inc.eval.low_loads);
    }

    #[test]
    fn session_masked_leaves_failed_links_unloaded() {
        let (topo, _, drifted) = drifted_instance();
        let mask = survivable_duplex_failures(&topo)[0].link_up.clone();
        let mut s = session(DualWeights::replicated(WeightVector::uniform(&topo, 1)), 23);
        let res = s.step_masked(&topo, &drifted, &mask, 4);
        for (l, &up) in mask.iter().enumerate() {
            if !up {
                assert_eq!(res.eval.high_loads[l], 0.0);
                assert_eq!(res.eval.low_loads[l], 0.0);
            }
        }
    }

    #[test]
    fn session_masked_all_up_matches_step() {
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let mask = vec![true; topo.link_count()];
        let mut a = session(incumbent.clone(), 29);
        let mut b = session(incumbent, 29);
        let ra = a.step_masked(&topo, &drifted, &mask, 4);
        let rb = b.step(&topo, &drifted, 4);
        assert_eq!(ra.weights, rb.weights);
        assert_eq!(ra.best_cost, rb.best_cost);
    }

    #[test]
    fn search_is_backend_invariant() {
        // h = 12 lets the descent (and every diversification restart)
        // sit further from the incumbent than the incremental backend
        // repairs in one go (MAX_DELTAS = 8): the lanes follow the
        // current point, and the trajectory must not notice either way.
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        for scheme in [Scheme::Dtr, Scheme::Str] {
            let run = |kind: BackendKind| {
                let params = SearchParams::tiny().with_seed(37).with_backend(kind);
                [2usize, 12].map(|h| {
                    ReoptSearch::new(
                        &topo,
                        &drifted,
                        Objective::LoadBased,
                        params,
                        scheme,
                        incumbent.clone(),
                        h,
                    )
                    .run()
                })
            };
            let (full, incr) = (run(BackendKind::Full), run(BackendKind::Incremental));
            for (a, b) in full.iter().zip(&incr) {
                assert_eq!(a.weights, b.weights, "{scheme:?} h={}", a.max_changes);
                assert_eq!(a.eval, b.eval);
                assert_eq!(a.changes_used, b.changes_used);
                assert_eq!(a.trace.evaluations, b.trace.evaluations);
            }
        }
    }

    #[test]
    fn result_eval_is_the_single_shot_evaluation() {
        // The engine's sweep + assembly and `Evaluator::eval_dual_masked`
        // are the same function of (weights, mask), bit for bit — up or
        // down, either objective.
        let (topo, _, drifted) = drifted_instance();
        let incumbent = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let cut = survivable_duplex_failures(&topo)[0].link_up.clone();
        let all_up = vec![true; topo.link_count()];
        for (objective, mask) in [
            (Objective::LoadBased, &cut),
            (Objective::LoadBased, &all_up),
            (Objective::sla_default(), &all_up),
        ] {
            let mut s = ReoptSession::new(
                incumbent.clone(),
                objective,
                SearchParams::tiny().with_seed(41),
                Scheme::Dtr,
            );
            let res = s.idle_step(&topo, &drifted, mask, 4, 20);
            let single =
                Evaluator::new(&topo, &drifted, objective).eval_dual_masked(&res.weights, mask);
            assert_eq!(res.eval, single);
            // ...and so is the start point's, which callers report as
            // the cost before the search.
            let before =
                Evaluator::new(&topo, &drifted, objective).eval_dual_masked(&incumbent, mask);
            assert_eq!(res.start_eval, before);
        }
    }

    #[test]
    #[should_panic(expected = "LoadBased only")]
    fn masked_step_rejects_the_sla_objective() {
        let (topo, _, drifted) = drifted_instance();
        let cut = survivable_duplex_failures(&topo)[0].link_up.clone();
        let mut s = ReoptSession::new(
            DualWeights::replicated(WeightVector::uniform(&topo, 1)),
            Objective::sla_default(),
            SearchParams::tiny(),
            Scheme::Dtr,
        );
        s.step_masked(&topo, &drifted, &cut, 4);
    }
}
