"""Exactness of the ranked-row planning path.

The planner ranks a row once (:func:`repro.core.ordering.rank_row`), drops
the blocked items per request (:meth:`RankedRow.view`) and hands the lists
straight to the SKP search and to Figure 6 arbitration.  Each test here
fails if that path drifts from the reference it replaced: solving
``problem.subproblem(candidates)`` and arbitrating with one
:func:`select_victim` scan per candidate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbitration import (
    ArbitrationResult,
    arbitrate_prefetch,
    ds_sub_key,
    lfu_sub_key,
    select_victim,
)
from repro.core.ordering import canonical_order, rank_row
from repro.core.skp import solve_skp
from repro.core.types import PrefetchPlan, PrefetchProblem

# Tie-prone values: exact ties in P and in r, and zero probabilities.
_WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.01, 5.0))
_RETRIEVALS = st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.5, 20.0))


@st.composite
def rows(draw, max_items: int = 9):
    """A problem with ties and zeros, plus a random blocked set."""
    n = draw(st.integers(1, max_items))
    p = np.asarray(draw(st.lists(_WEIGHTS, min_size=n, max_size=n)))
    total = float(p.sum())
    if total > 0.0:
        p = p / (total * draw(st.sampled_from([1.0, 1.25])))
    r = np.asarray(draw(st.lists(_RETRIEVALS, min_size=n, max_size=n)))
    v = draw(st.one_of(st.just(0.0), st.floats(0.0, 40.0)))
    blocked = draw(st.sets(st.integers(0, n - 1)))
    return PrefetchProblem(p, r, v), blocked


def _candidates(problem, blocked):
    """The reference candidate set: the row's support minus blocked items."""
    return [i for i in np.flatnonzero(problem.probabilities).tolist() if i not in blocked]


class TestRankRow:
    @given(rows(), st.booleans())
    def test_is_canonical_order_of_the_support(self, case, profits):
        problem, _ = case
        ranked = rank_row(problem, profits=profits)
        p, r = problem.probabilities, problem.retrieval_times
        order = [i for i in canonical_order(problem).tolist() if p[i] > 0.0]
        assert ranked.items == order
        assert ranked.p == p[order].tolist()
        assert ranked.r == r[order].tolist()
        if profits:
            assert ranked.pr == (p[order] * r[order]).tolist()
            lookup = ranked.profit_lookup()
            assert [lookup(i) for i in range(problem.n)] == problem.profits().tolist()
        else:
            assert ranked.pr is None

    @given(rows())
    def test_view_keeps_rule5_order(self, case):
        problem, blocked = case
        view = rank_row(problem, profits=True).view(problem, blocked)
        sub = problem.subproblem(_candidates(problem, blocked))
        expected = [_candidates(problem, blocked)[k] for k in canonical_order(sub).tolist()]
        assert view.items == expected
        assert view.pr == [problem.profit(i) for i in expected]


class TestRankedSolve:
    @given(
        rows(),
        st.sampled_from(["corrected", "faithful"]),
        st.one_of(st.none(), st.integers(1, 12)),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_view_solve_equals_subproblem_solve(self, case, variant, budget, profits):
        problem, blocked = case
        view = rank_row(problem, profits=profits).view(problem, blocked)
        got = solve_skp(view, variant=variant, node_budget=budget)
        candidates = _candidates(problem, blocked)
        if not candidates:
            assert (got.plan.items, got.algorithm_gain, got.nodes, got.bound_cutoffs) == (
                (), 0.0, 0, 0
            )
            return
        ref = solve_skp(problem.subproblem(candidates), variant=variant, node_budget=budget)
        assert got.plan.items == tuple(candidates[k] for k in ref.plan.items)
        assert got.algorithm_gain == ref.algorithm_gain
        assert got.nodes == ref.nodes
        assert got.bound_cutoffs == ref.bound_cutoffs
        assert got.gain == ref.gain

    def test_pinned_work_over_a_fixed_corpus(self):
        # Totals recorded before the ranked path existed, by solving
        # ``problem.subproblem(candidates)`` for every instance below: the
        # search must visit exactly the same nodes.
        totals = {}
        for problem, blocked in _corpus():
            view = rank_row(problem).view(problem, blocked)
            for variant in ("corrected", "faithful"):
                for budget in (None, 6):
                    res = solve_skp(view, variant=variant, node_budget=budget)
                    nodes, cutoffs = totals.get((variant, budget), (0, 0))
                    totals[variant, budget] = (nodes + res.nodes, cutoffs + res.bound_cutoffs)
        assert totals == {
            ("corrected", None): (1904, 1029),
            ("corrected", 6): (1486, 618),
            ("faithful", None): (1619, 1174),
            ("faithful", 6): (1386, 778),
        }


def _corpus():
    rng = np.random.default_rng(20261017)
    for t in range(400):
        n = int(rng.integers(1, 16))
        if t % 3 == 0:
            p = rng.integers(0, 4, n).astype(float)  # ties and zeros
        else:
            p = rng.random(n)
            p[rng.random(n) < 0.25] = 0.0
        total = p.sum()
        if total > 0:
            p = p / (total * rng.uniform(1.0, 1.4))
        r = rng.integers(1, 5, n).astype(float) if t % 2 else rng.uniform(0.5, 25.0, n)
        v = 0.0 if t % 10 == 0 else float(rng.uniform(0.0, 40.0))
        blocked = {int(i) for i in np.flatnonzero(rng.random(n) < 0.3)}
        yield PrefetchProblem(p, r, v), blocked


def _reference_arbitration(problem, candidates, cache, free_slots, sub_key):
    """Figure 6 with one :func:`select_victim` scan per candidate."""
    profit = problem.profits().tolist()
    remaining = set(cache)
    admitted, eject, pairs = [], [], []
    slots = free_slots
    for f in sorted(candidates, key=lambda f: (-profit[f], f)):
        if slots > 0:
            slots -= 1
            admitted.append(f)
            pairs.append((f, None))
            continue
        if not remaining:
            break
        d = select_victim(remaining, profit.__getitem__, sub_key)
        if profit[f] < profit[d]:
            break
        admitted.append(f)
        eject.append(d)
        pairs.append((f, d))
        remaining.discard(d)
    p, r = problem.probabilities, problem.retrieval_times
    admitted.sort(key=lambda i: (-p[i], r[i], i))
    return ArbitrationResult(PrefetchPlan(tuple(admitted)), tuple(eject), tuple(pairs))


@st.composite
def arbitration_cases(draw):
    """Few distinct P and r values, so cached items often tie on P*r."""
    n = draw(st.integers(2, 10))
    p = np.asarray(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]), min_size=n, max_size=n)))
    p[draw(st.integers(0, n - 1))] = 1.0
    p = p / (p.sum() * draw(st.sampled_from([1.0, 1.25])))
    r = np.asarray(draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n)))
    cached = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return PrefetchProblem(p, r, 5.0), cached


class TestSortOnceArbitration:
    @given(
        arbitration_cases(),
        st.sampled_from([None, "lfu", "ds"]),
        st.integers(0, 2),
        st.data(),
    )
    @settings(max_examples=300)
    def test_equals_select_victim_loop(self, case, sub, free_slots, data):
        problem, cached = case
        n = problem.n
        # Few distinct counts, so the sub-key ties too.
        freq = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
        sub_key = {
            None: None,
            "lfu": lfu_sub_key(freq),
            "ds": ds_sub_key(freq, problem.retrieval_times),
        }[sub]
        view = rank_row(problem, profits=data.draw(st.booleans())).view(problem, cached)
        # Any unblocked items, in any order, not only an SKP plan.
        order = data.draw(st.permutations(view.items))
        candidates = order[: data.draw(st.integers(0, len(order)))]
        cache = tuple(sorted(cached))
        expected = _reference_arbitration(problem, candidates, cache, free_slots, sub_key)
        for instance in (view, problem):
            got = arbitrate_prefetch(
                instance, candidates, cache, free_slots=free_slots, sub_key=sub_key
            )
            assert got == expected

    def test_view_checks_raw_candidates(self):
        problem = PrefetchProblem(np.array([0.4, 0.3, 0.2, 0.1]), np.ones(4) * 10.0, 30.0)
        view = rank_row(problem, profits=True).view(problem, {2})
        with pytest.raises(ValueError, match="duplicate"):
            arbitrate_prefetch(view, [0, 0], [2], free_slots=2)
        with pytest.raises(ValueError, match="negative"):
            arbitrate_prefetch(view, [-1], [2], free_slots=1)
        with pytest.raises(ValueError, match="cached"):
            arbitrate_prefetch(view, [0, 2], [2])
        with pytest.raises(ValueError, match="free_slots"):
            arbitrate_prefetch(view, [0], [2], free_slots=-1)
