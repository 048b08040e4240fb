//! The one descent loop behind every iterated local search of the
//! workspace, and the single-weight-change proposal they share.
//!
//! Algorithm 1's routines and the §5.1.3 STR baseline are one shape:
//! propose ≤ `m` moves, evaluate them, move to the best if it improves,
//! diversify after `M` non-improving iterations, keep the incumbent.
//! [`Descent`] owns that loop and every [`SearchTrace`] counter; a
//! search contributes a [`Walk`] — its current point plus two callbacks —
//! and a table of stages.
//!
//! # The step / diversify contract
//!
//! - [`Walk::step`] runs one iteration at the current point: propose,
//!   evaluate the candidates as one batch, move to the best candidate if
//!   it beats the *current* cost (rebasing the engine there), and report
//!   how many candidates it evaluated and how many moves it accepted.
//!   It never looks at the incumbent.
//! - The driver compares the walk's cost with the incumbent only after a
//!   step that moved. The stall counter resets on a new global best and
//!   on nothing else — an accepted move that is not a new best stalls.
//! - After `diversify_after` stalled iterations the driver calls
//!   [`Walk::diversify`] with the incumbent's point; the walk jumps
//!   (perturbing its current point or restarting near the incumbent —
//!   its choice), rebases, and reports the evaluations it counted.
//!   Landing on a better point by diversification is not an improvement
//!   until a step moves from it.
//! - The stall counter starts at zero in every stage.
//!
//! Not an extension point: the module is public only so `dtr-multi` can
//! drive its k-class search through it.
//!
//! The RNG draw order of every ported search — inside its callbacks and
//! in [`SingleChange`] — is frozen by the goldens under
//! `crates/core/tests/golden/search/` and `crates/multi/tests/golden/`.

use crate::params::SearchParams;
use crate::scheme::Scheme;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::LexCost;
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, Weight};
use rand::rngs::StdRng;
use rand::Rng;

/// What one [`Walk::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Candidates evaluated.
    pub evaluated: usize,
    /// Moves accepted (a refinement iteration may take one per class).
    pub accepted: usize,
}

impl Step {
    /// A step that evaluated `evaluated` candidates and took at most
    /// one move.
    pub fn of(evaluated: usize, moved: bool) -> Step {
        Step {
            evaluated,
            accepted: usize::from(moved),
        }
    }
}

/// A search's current point and its two callbacks (see the module docs).
pub trait Walk {
    /// The cost the search minimizes.
    type Cost: PartialOrd + Clone + Into<LexCost>;
    /// What the search keeps of an incumbent (weights, and whatever it
    /// wants back without re-evaluating).
    type Point: Clone;

    /// Cost of the current point.
    fn cost(&self) -> &Self::Cost;
    /// The current point, to be kept as the new incumbent.
    fn snapshot(&self) -> Self::Point;
    /// Iteration `it` (0-based within the stage) at the current point.
    fn step(&mut self, it: usize) -> Step;
    /// Jumps after a stall; returns the evaluations to count.
    fn diversify(&mut self, best: &Self::Point) -> usize;
}

/// The stage loop: iteration count, stall counter, diversification,
/// incumbent and trace of one search run.
pub struct Descent<W: Walk> {
    diversify_after: usize,
    best_cost: W::Cost,
    best: W::Point,
    trace: SearchTrace,
}

impl<W: Walk> Descent<W> {
    /// Opens a run with `walk`'s starting point as the incumbent — the
    /// trace's first improvement, at iteration 0 — having spent
    /// `evaluated` evaluations to get there.
    pub fn start(walk: &W, diversify_after: usize, phase: Phase, evaluated: usize) -> Self {
        let mut trace = SearchTrace {
            evaluations: evaluated,
            ..SearchTrace::default()
        };
        trace.improved(0, phase, walk.cost().clone());
        Descent {
            diversify_after,
            best_cost: walk.cost().clone(),
            best: walk.snapshot(),
            trace,
        }
    }

    /// The incumbent's point.
    pub fn best(&self) -> &W::Point {
        &self.best
    }

    /// Runs one stage of `iters` iterations, logging improvements under
    /// `phase`.
    pub fn stage(&mut self, walk: &mut W, iters: usize, phase: Phase) {
        let mut stall = 0usize;
        for it in 0..iters {
            self.trace.iterations += 1;
            let step = walk.step(it);
            self.trace.evaluations += step.evaluated;
            self.trace.moves_accepted += step.accepted;
            if step.accepted > 0 && *walk.cost() < self.best_cost {
                self.best_cost = walk.cost().clone();
                self.best = walk.snapshot();
                self.trace
                    .improved(self.trace.iterations, phase, self.best_cost.clone());
                stall = 0;
            } else {
                stall += 1;
            }
            if stall >= self.diversify_after {
                self.trace.evaluations += walk.diversify(&self.best);
                self.trace.diversifications += 1;
                stall = 0;
            }
        }
    }

    /// Ends the run: incumbent cost, incumbent point, trace.
    pub fn finish(self) -> (W::Cost, W::Point, SearchTrace) {
        (self.best_cost, self.best, self.trace)
    }
}

/// The acceptance rule of every step: the first of `cands` with the
/// lowest cost, if that cost beats `current`.
pub fn best_improving<T, C: PartialOrd>(
    cands: impl IntoIterator<Item = T>,
    current: &C,
    cost: impl Fn(&T) -> &C,
) -> Option<T> {
    let mut best: Option<T> = None;
    for cand in cands {
        if best.as_ref().is_none_or(|b| cost(&cand) < cost(b)) {
            best = Some(cand);
        }
    }
    best.filter(|b| cost(b) < current)
}

/// The Fortz–Thorup single-weight-change move: one link, one class
/// vector, one new value. Under [`Scheme::Str`] the classes share the
/// weight and both vectors take it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleChange {
    /// The link whose weight changes.
    pub link: LinkId,
    /// Whether the high-class vector is the one that changes (always
    /// under STR, where the low vector follows).
    pub high: bool,
    /// The new weight.
    pub value: Weight,
}

impl SingleChange {
    /// Draws the position: a uniform link, then under [`Scheme::Dtr`] a
    /// fair coin for the class vector (STR draws no coin).
    pub fn draw_position(scheme: Scheme, n_links: usize, rng: &mut StdRng) -> (LinkId, bool) {
        let link = LinkId(rng.random_range(0..n_links as u32));
        let high = match scheme {
            Scheme::Str => true,
            Scheme::Dtr => rng.random_bool(0.5),
        };
        (link, high)
    }

    /// Draws a uniform new value for a weight currently `old`; a draw
    /// that hits `old` moves one up, wrapping at `max_weight`, so the
    /// move always changes something.
    pub fn draw_value(old: Weight, params: &SearchParams, rng: &mut StdRng) -> Weight {
        let v = rng.random_range(params.min_weight..=params.max_weight);
        if v != old {
            v
        } else if v == params.max_weight {
            params.min_weight
        } else {
            v + 1
        }
    }

    /// Draws a whole move at `w`: position, then value.
    pub fn draw(scheme: Scheme, w: &DualWeights, params: &SearchParams, rng: &mut StdRng) -> Self {
        let (link, high) = Self::draw_position(scheme, w.high.len(), rng);
        let old = if high { &w.high } else { &w.low }.get(link);
        SingleChange {
            link,
            high,
            value: Self::draw_value(old, params, rng),
        }
    }

    /// Writes the move into `w`.
    pub fn apply(&self, scheme: Scheme, w: &mut DualWeights) {
        if self.high {
            w.high.set(self.link, self.value);
        }
        if !self.high || scheme == Scheme::Str {
            w.low.set(self.link, self.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_cost::Lex2;
    use dtr_graph::WeightVector;
    use rand::SeedableRng;

    /// A walk over a script: step `i` of the run moves to cost
    /// `⟨1, script[i]⟩` when that is `Some` and stays put otherwise; a
    /// diversification jumps to `⟨1, 100⟩`.
    struct Toy {
        script: Vec<Option<f64>>,
        cursor: usize,
        cost: Lex2,
        diversified_at: Vec<usize>,
        seen_its: Vec<usize>,
    }

    impl Toy {
        fn new(start: f64, script: Vec<Option<f64>>) -> Self {
            Toy {
                script,
                cursor: 0,
                cost: Lex2::new(1.0, start),
                diversified_at: Vec::new(),
                seen_its: Vec::new(),
            }
        }
    }

    impl Walk for Toy {
        type Cost = Lex2;
        type Point = f64;

        fn cost(&self) -> &Lex2 {
            &self.cost
        }

        fn snapshot(&self) -> f64 {
            self.cost.secondary
        }

        fn step(&mut self, it: usize) -> Step {
            self.seen_its.push(it);
            let mv = self.script[self.cursor];
            self.cursor += 1;
            if let Some(c) = mv {
                self.cost.secondary = c;
            }
            Step {
                evaluated: 5,
                accepted: usize::from(mv.is_some()),
            }
        }

        fn diversify(&mut self, best: &f64) -> usize {
            assert!(*best <= self.cost.secondary);
            self.diversified_at.push(self.cursor);
            self.cost.secondary = 100.0;
            1
        }
    }

    #[test]
    fn stall_resets_only_on_a_new_global_best() {
        // diversify_after = 3. Iteration 1 is a new best (10 → 8).
        // Iterations 2 and 3 stall. Iteration 4 *accepts* a move (to 9)
        // that is no new best: it must count as the third stall and
        // trigger the diversification, not reset the counter.
        let mut toy = Toy::new(
            10.0,
            vec![Some(8.0), None, None, Some(9.0), None, Some(7.0), None],
        );
        let mut d = Descent::start(&toy, 3, Phase::Str, 1);
        d.stage(&mut toy, 7, Phase::Str);
        assert_eq!(toy.diversified_at, vec![4]);
        let (cost, point, trace) = d.finish();
        assert_eq!((cost, point), (Lex2::new(1.0, 7.0), 7.0));
        // Hand-computed: 1 start + 7 × 5 candidates + 1 diversification.
        assert_eq!(trace.iterations, 7);
        assert_eq!(trace.evaluations, 1 + 35 + 1);
        assert_eq!(trace.moves_accepted, 3);
        assert_eq!(trace.diversifications, 1);
        let log: Vec<(usize, usize, f64)> = trace
            .improvements
            .iter()
            .map(|i| (i.iteration, i.evaluations, i.cost.get(1)))
            .collect();
        // Iteration 6 comes after the diversification's evaluation.
        assert_eq!(log, vec![(0, 1, 10.0), (1, 6, 8.0), (6, 32, 7.0)]);
        assert_eq!(toy.seen_its, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn diversification_fires_after_exactly_diversify_after_stalls_and_counts_once() {
        let mut toy = Toy::new(10.0, vec![None; 9]);
        let mut d = Descent::start(&toy, 4, Phase::Str, 0);
        d.stage(&mut toy, 3, Phase::Str);
        assert!(toy.diversified_at.is_empty(), "three stalls are not four");
        // A new stage starts its stall counter at zero.
        d.stage(&mut toy, 6, Phase::Refine);
        assert_eq!(toy.diversified_at, vec![7]);
        let (_, _, trace) = d.finish();
        assert_eq!(trace.diversifications, 1);
        assert_eq!(trace.iterations, 9);
        // The jump to cost 100 is not an improvement, and neither is
        // staying there.
        assert_eq!(trace.improvements.len(), 1);
    }

    #[test]
    fn a_zero_iteration_stage_returns_its_start_and_one_improvement() {
        let mut toy = Toy::new(10.0, Vec::new());
        let mut d = Descent::start(&toy, 1, Phase::OptimizeLow, 1);
        d.stage(&mut toy, 0, Phase::OptimizeLow);
        assert_eq!(*d.best(), 10.0);
        let (cost, _, trace) = d.finish();
        assert_eq!(cost, Lex2::new(1.0, 10.0));
        assert_eq!(trace.iterations, 0);
        assert_eq!(trace.evaluations, 1);
        assert_eq!(trace.improvements.len(), 1);
        assert_eq!(trace.improvements[0].phase, Phase::OptimizeLow);
        assert_eq!(trace.final_cost(), Some(&LexCost::two(1.0, 10.0)));
    }

    #[test]
    fn a_single_change_always_changes_its_weight_and_wraps_at_the_top() {
        let params = SearchParams::tiny();
        let mut rng = StdRng::seed_from_u64(5);
        for old in [params.min_weight, 7, params.max_weight] {
            for _ in 0..2_000 {
                let v = SingleChange::draw_value(old, &params, &mut rng);
                assert_ne!(v, old);
                assert!((params.min_weight..=params.max_weight).contains(&v));
            }
        }
        // Only a draw of max_weight itself can wrap to min_weight.
        let narrow = SearchParams {
            min_weight: 1,
            max_weight: 2,
            ..params
        };
        for _ in 0..50 {
            assert_eq!(SingleChange::draw_value(2, &narrow, &mut rng), 1);
            assert_eq!(SingleChange::draw_value(1, &narrow, &mut rng), 2);
        }
    }

    #[test]
    fn str_changes_move_both_vectors_and_dtr_changes_one() {
        let base = DualWeights::replicated(WeightVector::from_vec(vec![3; 6]));
        let params = SearchParams::tiny();
        let mut rng = StdRng::seed_from_u64(9);
        let mut sides = [0usize; 2];
        for _ in 0..200 {
            let mut w = base.clone();
            let mv = SingleChange::draw(Scheme::Str, &w, &params, &mut rng);
            assert!(mv.high);
            mv.apply(Scheme::Str, &mut w);
            assert_eq!(w.high, w.low);
            assert_eq!(w.high.hamming(&base.high), 1);

            let mut w = base.clone();
            let mv = SingleChange::draw(Scheme::Dtr, &w, &params, &mut rng);
            mv.apply(Scheme::Dtr, &mut w);
            assert_eq!(w.high.hamming(&base.high) + w.low.hamming(&base.low), 1);
            assert_eq!(w.high != base.high, mv.high);
            sides[usize::from(mv.high)] += 1;
        }
        assert!(sides[0] > 50 && sides[1] > 50, "both classes get moves");
    }
}
