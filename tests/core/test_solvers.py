"""Solver correctness: SKP branch-and-bound, exact solver, KP baseline.

Certification strategy (also documented in DESIGN.md):

* ``solve_skp(variant="corrected")`` must equal a brute force restricted to
  the paper's canonical search space (Theorem 1 / rule 5) on every instance;
* ``solve_skp_exact`` must equal the unrestricted brute force;
* ``solve_kp`` must equal the integer-weight dynamic program;
* the eq. (7) bound must dominate every achievable gain.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    PrefetchProblem,
    access_improvement,
    plan_stretch,
    solve_kp,
    solve_skp,
    solve_skp_exact,
    solve_skp_exhaustive,
    upper_bound,
)
from repro.core.kp import kp_dynamic_programming
from repro.core.ordering import satisfies_theorem1
from tests.conftest import make_problem, problems


class TestSKPCorrected:
    def test_matches_canonical_oracle_randomized(self, rng):
        for _ in range(120):
            prob = make_problem(rng)
            oracle = solve_skp_exhaustive(prob, tail_rule="canonical")
            got = solve_skp(prob, variant="corrected")
            assert got.gain == pytest.approx(oracle.gain, abs=1e-9)

    @given(problems())
    @settings(max_examples=40)
    def test_matches_canonical_oracle_property(self, prob):
        oracle = solve_skp_exhaustive(prob, tail_rule="canonical")
        got = solve_skp(prob, variant="corrected")
        assert got.gain == pytest.approx(oracle.gain, abs=1e-9)

    def test_reported_gain_matches_plan(self, rng):
        for _ in range(50):
            prob = make_problem(rng)
            res = solve_skp(prob)
            assert res.gain == pytest.approx(access_improvement(prob, res.plan), abs=1e-12)
            assert res.algorithm_gain == pytest.approx(res.gain, abs=1e-9)

    def test_plan_is_valid_construction(self, rng):
        for _ in range(50):
            prob = make_problem(rng)
            res = solve_skp(prob)
            res.plan.validate_against(prob)

    def test_bound_pruning_does_not_change_result(self, rng):
        for _ in range(60):
            prob = make_problem(rng)
            with_bound = solve_skp(prob, use_bound=True)
            without = solve_skp(prob, use_bound=False)
            assert with_bound.gain == pytest.approx(without.gain, abs=1e-12)
            assert with_bound.nodes <= without.nodes

    def test_zero_probability_items_never_planned(self):
        prob = PrefetchProblem(
            np.array([0.0, 0.6, 0.4]), np.array([1.0, 5.0, 5.0]), 20.0
        )
        res = solve_skp(prob)
        assert 0 not in res.plan

    def test_empty_problem_zero_probability_everywhere(self):
        prob = PrefetchProblem(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 5.0)
        res = solve_skp(prob)
        assert res.plan.is_empty and res.gain == 0.0

    def test_zero_viewing_time(self):
        # With v=0 every prefetch stretches fully; delta = (P - penalty) r <= 0,
        # so the optimal plan is empty.
        prob = PrefetchProblem(np.array([0.7, 0.3]), np.array([3.0, 4.0]), 0.0)
        res = solve_skp(prob)
        assert res.plan.is_empty and res.gain == 0.0

    def test_single_dominant_item_stretches(self):
        # One near-certain big item: stretching is worth it.
        prob = PrefetchProblem(np.array([0.95, 0.05]), np.array([20.0, 1.0]), 10.0)
        res = solve_skp(prob)
        assert 0 in res.plan
        assert res.gain > 0.0
        assert plan_stretch(prob, res.plan) > 0.0

    def test_gain_never_negative(self, rng):
        # The empty plan yields 0, so the optimum is always >= 0.
        for _ in range(40):
            prob = make_problem(rng)
            assert solve_skp(prob).gain >= 0.0

    def test_invalid_variant_rejected(self):
        prob = PrefetchProblem(np.array([1.0]), np.array([1.0]), 1.0)
        with pytest.raises(ValueError, match="variant"):
            solve_skp(prob, variant="bogus")

    def test_stretch_penalty_bonus_must_be_a_non_negative_number(self):
        prob = PrefetchProblem(np.array([0.5, 0.3, 0.1]), np.array([4.0, 5.0, 6.0]), 6.0)
        for bonus in (0.0, 1.0, float("inf")):
            res = solve_skp(prob, stretch_penalty_bonus=bonus)
            assert res.plan.items == (0,) and res.gain == 2.0
        # NaN fails every comparison, so a "< 0" test let it through and
        # the solve silently returned the empty plan.
        for bonus in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="stretch_penalty_bonus"):
                solve_skp(prob, stretch_penalty_bonus=bonus)


class TestSKPFaithful:
    def test_matches_corrected_when_no_exclusions_possible(self, rng):
        # With sum(P) = 1 and every item fitting individually, no item is
        # ever excluded before a stretch, so both variants agree.
        for _ in range(40):
            n = int(rng.integers(1, 7))
            p = rng.random(n)
            p /= p.sum()
            r = rng.uniform(1.0, 5.0, n)
            v = float(rng.uniform(n * 5.0, n * 10.0))  # everything fits
            prob = PrefetchProblem(p, r, v)
            fa = solve_skp(prob, variant="faithful")
            co = solve_skp(prob, variant="corrected")
            assert fa.gain == pytest.approx(co.gain, abs=1e-9)

    def test_never_better_than_canonical_oracle(self, rng):
        for _ in range(80):
            prob = make_problem(rng)
            fa = solve_skp(prob, variant="faithful")
            oracle = solve_skp_exhaustive(prob, tail_rule="canonical")
            assert fa.gain <= oracle.gain + 1e-9

    def test_reported_gain_is_true_gain_of_plan(self, rng):
        # algorithm_gain may be inflated; gain must always be eq-(3) truth.
        for _ in range(60):
            prob = make_problem(rng)
            fa = solve_skp(prob, variant="faithful")
            assert fa.gain == pytest.approx(access_improvement(prob, fa.plan), abs=1e-12)

    def test_divergence_exists_with_partial_mass(self, rng):
        # With sum(P) < 1 the suffix mass understates the stretch penalty,
        # so the faithful variant must misjudge some instance.
        diverged = 0
        for _ in range(200):
            prob = make_problem(rng)
            fa = solve_skp(prob, variant="faithful")
            oracle = solve_skp_exhaustive(prob, tail_rule="canonical")
            if fa.gain < oracle.gain - 1e-9:
                diverged += 1
        assert diverged > 0


class TestSKPExact:
    def test_matches_unrestricted_oracle_randomized(self, rng):
        for _ in range(120):
            prob = make_problem(rng)
            oracle = solve_skp_exhaustive(prob, tail_rule="any")
            got = solve_skp_exact(prob)
            assert got.gain == pytest.approx(oracle.gain, abs=1e-9)

    @given(problems())
    @settings(max_examples=40)
    def test_matches_unrestricted_oracle_property(self, prob):
        oracle = solve_skp_exhaustive(prob, tail_rule="any")
        got = solve_skp_exact(prob)
        assert got.gain == pytest.approx(oracle.gain, abs=1e-9)

    def test_dominates_canonical_solver(self, rng):
        for _ in range(80):
            prob = make_problem(rng)
            assert solve_skp_exact(prob).gain >= solve_skp(prob).gain - 1e-9

    def test_bound_pruning_does_not_change_result(self, rng):
        for _ in range(40):
            prob = make_problem(rng, max_n=7)
            a = solve_skp_exact(prob, use_bound=True)
            b = solve_skp_exact(prob, use_bound=False)
            assert a.gain == pytest.approx(b.gain, abs=1e-12)

    def test_plan_is_valid_construction(self, rng):
        for _ in range(50):
            prob = make_problem(rng)
            solve_skp_exact(prob).plan.validate_against(prob)


class TestUpperBound:
    def test_dominates_exact_optimum(self, rng):
        for _ in range(100):
            prob = make_problem(rng)
            assert upper_bound(prob) >= solve_skp_exact(prob).gain - 1e-9

    def test_tight_when_everything_fits(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            p = rng.random(n)
            p /= p.sum()
            r = rng.uniform(1.0, 3.0, n)
            prob = PrefetchProblem(p, r, float(r.sum()))
            assert upper_bound(prob) == pytest.approx(solve_skp(prob).gain, abs=1e-9)


class TestKP:
    def test_matches_dynamic_program_on_integer_weights(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 9))
            p = rng.random(n)
            p /= p.sum() * rng.uniform(1.0, 1.2)
            r = rng.integers(1, 31, n).astype(np.float64)
            v = float(rng.integers(0, 61))
            prob = PrefetchProblem(p, r, v)
            bb = solve_kp(prob)
            dp_value, _ = kp_dynamic_programming(p * r, r, int(v))
            assert bb.value == pytest.approx(dp_value, abs=1e-9)

    def test_solution_fits_capacity(self, rng):
        for _ in range(60):
            prob = make_problem(rng)
            res = solve_kp(prob)
            assert res.plan.total_retrieval(prob) <= prob.viewing_time + 1e-12

    def test_never_beats_skp(self, rng):
        # SKP's feasible set contains every KP solution.
        for _ in range(60):
            prob = make_problem(rng)
            assert solve_kp(prob).value <= solve_skp(prob).gain + 1e-9

    def test_value_is_gain_of_plan(self, rng):
        for _ in range(40):
            prob = make_problem(rng)
            res = solve_kp(prob)
            assert res.value == pytest.approx(access_improvement(prob, res.plan), abs=1e-9)

    def test_dp_rejects_fractional_weights(self):
        with pytest.raises(ValueError, match="integer"):
            kp_dynamic_programming(np.array([1.0]), np.array([1.5]), 3)


class TestTheoremGaps:
    """Regression anchors for the reproduction findings in DESIGN.md §3."""

    def test_theorem1_counterexample(self):
        # v=14.84; item 0 (P=.498, r=22.94) exceeds v alone; item 1
        # (P=.439, r=4.40) fits.  The unique optimum <1, 0> places the
        # *higher*-probability item last, contradicting Theorem 1.
        prob = PrefetchProblem(
            np.array([0.49794825, 0.43946973]),
            np.array([22.9375462, 4.39608583]),
            14.840473224291351,
        )
        exact = solve_skp_exact(prob)
        canonical = solve_skp(prob, variant="corrected")
        assert exact.plan.items == (1, 0)
        assert not satisfies_theorem1(prob, exact.plan)
        assert exact.gain > canonical.gain + 1.0  # the gap is large here
        # And the oracle agrees the canonical space cannot do better.
        oracle = solve_skp_exhaustive(prob, tail_rule="canonical")
        assert canonical.gain == pytest.approx(oracle.gain, abs=1e-12)

    def test_theorem1_holds_for_equal_retrieval_times(self, rng):
        # The exchange argument is sound when all r_i are equal (the swap
        # always preserves feasibility): canonical == exact.
        for _ in range(60):
            n = int(rng.integers(1, 8))
            p = rng.random(n)
            p /= p.sum()
            r = np.full(n, float(rng.uniform(1.0, 30.0)))
            v = float(rng.uniform(0.0, 60.0))
            prob = PrefetchProblem(p, r, v)
            assert solve_skp(prob).gain == pytest.approx(
                solve_skp_exact(prob).gain, abs=1e-9
            )


class TestNodeBudget:
    def test_none_budget_is_bit_exact_with_unbudgeted(self, rng):
        for _ in range(40):
            prob = make_problem(rng)
            default = solve_skp(prob)
            explicit = solve_skp(prob, node_budget=None)
            assert explicit.plan.items == default.plan.items
            assert explicit.gain == default.gain
            assert explicit.nodes == default.nodes

    def test_generous_budget_reaches_the_optimum(self, rng):
        for _ in range(40):
            prob = make_problem(rng)
            exact = solve_skp(prob)
            budgeted = solve_skp(prob, node_budget=exact.nodes + 1)
            assert budgeted.gain == pytest.approx(exact.gain, abs=1e-12)

    def test_budget_caps_nodes_and_keeps_valid_anytime_plan(self, rng):
        for _ in range(60):
            prob = make_problem(rng, max_n=8)
            exact = solve_skp(prob)
            budgeted = solve_skp(prob, node_budget=3)
            # hard node cap (+1: the node that trips the budget is counted)
            assert budgeted.nodes <= 4
            # the incumbent is a real plan with its true eq-(3) gain ...
            budgeted.plan.validate_against(prob)
            assert budgeted.gain == pytest.approx(
                access_improvement(prob, budgeted.plan), abs=1e-12
            )
            # ... never claiming more than the proven optimum
            assert budgeted.gain <= exact.gain + 1e-9

    def test_budgeted_search_is_deterministic(self, rng):
        # The budget is a pure node count: same instance, same incumbent.
        for _ in range(20):
            prob = make_problem(rng)
            a = solve_skp(prob, node_budget=5)
            b = solve_skp(prob, node_budget=5)
            assert a.plan.items == b.plan.items
            assert a.nodes == b.nodes

    def test_tie_heavy_instance_stays_bounded(self):
        # The motivating pathology: many exactly tied probabilities make
        # the Dantzig bound equal the incumbent on every tie, so pruning
        # degrades; the budget must keep the search finite and useful.
        n = 18
        p = np.full(n, 0.9 / n)
        r = np.ones(n)
        prob = PrefetchProblem(p, r, float(n))
        res = solve_skp(prob, node_budget=500)
        assert res.nodes <= 501
        res.plan.validate_against(prob)
        assert res.gain >= 0.0

    def test_invalid_budget_rejected(self):
        prob = PrefetchProblem(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 2.0)
        with pytest.raises(ValueError):
            solve_skp(prob, node_budget=0)
        with pytest.raises(ValueError):
            solve_skp(prob, node_budget=-3)
