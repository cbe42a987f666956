"""Exactness of the planner's skipped solves.

With no free slot, Figure 6 admits a prefetch only while its ``P_f r_f``
reaches the cheapest cached ``P_d r_d``, and stops at the first candidate
that loses.  :meth:`Prefetcher.plan` therefore skips the SKP/KP solve and
the arbitration when no unblocked positive-``P`` item reaches that floor.
Each test here compares it with a reference that always solves and
arbitrates, and pins when the skip happens.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbitration import arbitrate_prefetch, ds_sub_key, lfu_sub_key
from repro.core.improvement import access_improvement_with_cache
from repro.core.ordering import rank_row
from repro.core.planner import Prefetcher
from repro.core.types import PrefetchProblem

# Tie-prone values: exact ties in P, in r and in P*r, and zero probabilities.
_WEIGHTS = st.one_of(st.sampled_from([1.0, 2.0, 0.0]), st.floats(0.01, 5.0))
_RETRIEVALS = st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.5, 20.0))


@st.composite
def planning_cases(draw):
    """A row, a cache and a disjoint pinned set, access frequencies."""
    # How many items are cached, pinned and unblocked; which ones are is
    # drawn below, so zero-probability items are as likely as any other.
    n_cache, n_pinned, n_unblocked = (
        draw(st.sampled_from(counts)) for counts in ([2, 1, 3, 0], [1, 2, 0], [2, 1, 3, 0])
    )
    n = max(1, n_cache + n_pinned + n_unblocked)
    order = draw(st.permutations(range(n)))
    cache = order[:n_cache]
    pinned = order[n_cache : n_cache + n_pinned]
    unblocked = order[n_cache + n_pinned :]
    roles = ["u"] * n
    for i in cache:
        roles[i] = "c"
    for i in pinned:
        roles[i] = "p"
    w = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    r = draw(st.lists(_RETRIEVALS, min_size=n, max_size=n))
    # Scale the cached and the pinned weights apart: a warm cache holds hot
    # items, so that every unblocked item falls below its floor, and
    # in-flight items may be hotter or colder than the rest.  A zero stays 0.
    scale = {
        "u": 1.0,
        "c": draw(st.sampled_from([16.0, 1.0])),
        "p": draw(st.sampled_from([1 / 16, 1.0, 16.0])),
    }
    w = [wi * scale[role] for wi, role in zip(w, roles)]
    if cache and unblocked and draw(st.sampled_from([False, True, False])):
        # One case in three puts the best unblocked item on the cheapest
        # cached P*r: same P, same r.
        floor = min(cache, key=lambda i: w[i] * r[i])
        best = max(unblocked, key=lambda i: w[i] * r[i])
        w[best], r[best] = w[floor], r[floor]
    p = np.asarray(w)
    total = float(p.sum())
    if total > 0.0:
        p = p / (total * draw(st.sampled_from([1.0, 1.25])))
    # A window of 0 mostly plans nothing: one case in four.
    v = 0.0 if draw(st.sampled_from([False, False, False, True])) else draw(st.floats(1.0, 40.0))
    # Few distinct counts, so the LFU and DS sub-keys tie too.
    freq = np.asarray(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
    return PrefetchProblem(p, np.asarray(r), v), tuple(cache), tuple(pinned), freq


def _always_solved(prefetcher, problem, cache, pinned, capacity, freq, ranked):
    """Figure 6 with the solve and the arbitration run on every call."""
    sub_key = {
        None: None,
        "lfu": lfu_sub_key(freq),
        "ds": ds_sub_key(freq, problem.retrieval_times),
    }[prefetcher.sub_arbitration]
    candidate = prefetcher.candidate_plan(problem, cache, pinned, ranked=ranked)
    free_slots = (len(cache) if capacity is None else capacity) - len(cache)
    result = arbitrate_prefetch(problem, candidate, cache, free_slots=free_slots, sub_key=sub_key)
    gain = access_improvement_with_cache(problem, result.prefetch, cache, result.eject)
    return candidate, result, gain, free_slots


def _must_skip(problem, cache, pinned, free_slots):
    """No free slot, and every unblocked positive-P item below the cache's floor."""
    if free_slots:
        return False
    if not cache:
        return True
    profit = problem.profits().tolist()
    floor = min(profit[d] for d in cache)
    support = np.flatnonzero(problem.probabilities).tolist()
    return all(profit[i] < floor for i in support if i not in cache and i not in pinned)


def _check(prefetcher, case, capacity, static):
    """Plan ``case`` and compare with always solving; returns the outcome
    and whether the skip had to happen."""
    problem, cache, pinned, freq = case
    ranked = rank_row(problem, profits=True) if static else None
    candidate, result, gain, free_slots = _always_solved(
        prefetcher, problem, cache, pinned, capacity, freq, ranked
    )
    got = prefetcher.plan(
        problem, cache, cache_capacity=capacity, frequencies=freq, pinned=pinned, ranked=ranked
    )
    assert got.prefetch.items == result.prefetch.items
    assert got.eject == result.eject
    assert got.expected_improvement == gain
    skipped = _must_skip(problem, cache, pinned, free_slots)
    assert got.candidate_plan.items == (() if skipped else candidate.items)
    return got, skipped


@given(
    planning_cases(),
    st.sampled_from(["skp", "kp"]),
    st.sampled_from(["corrected", "faithful"]),
    st.sampled_from([None, 1, 3]),
    st.sampled_from([None, "lfu", "ds"]),
)
@settings(max_examples=200)
def test_plan_equals_always_solving(case, strategy, variant, budget, sub):
    prefetcher = Prefetcher(
        strategy=strategy, variant=variant, sub_arbitration=sub, node_budget=budget
    )
    occupancy = len(case[1])
    # None is the default full cache; with an empty cache, a capacity equal
    # to the occupancy is capacity 0.
    for capacity in (None, occupancy, occupancy + 1, occupancy + 2):
        for static in (True, False):
            _check(prefetcher, case, capacity, static)


def _case(p, r, cache, pinned=()):
    problem = PrefetchProblem(np.asarray(p, float), np.asarray(r, float), 30.0)
    return problem, tuple(cache), tuple(pinned), np.zeros(len(p))


# Each row's best unblocked item (item 0) sits at a boundary of the check.
_BOUNDARIES = {
    # P*r 2.0 ties the cached 2.0: ties go to the prefetch, which enters.
    "tie": (_case([0.2, 0.4, 0.1], [10.0, 5.0, 10.0], cache=[1]), None, False),
    # P*r 1.0 below the cached 2.0, but a free slot takes it.
    "free slot": (_case([0.1, 0.4, 0.1], [10.0, 5.0, 10.0], cache=[1]), 2, False),
    # A pinned item below the candidate is no victim: the floor is 2.0.
    "pinned": (_case([0.1, 0.4, 0.05], [10.0, 5.0, 10.0], cache=[1], pinned=[2]), None, True),
    # A cached zero-probability item is a victim at P*r 0.0.
    "zero-P cached": (_case([0.1, 0.4, 0.0], [10.0, 5.0, 10.0], cache=[1, 2]), None, False),
    # Capacity 0: nothing can be evicted, so nothing enters.
    "capacity 0": (_case([0.5, 0.4], [10.0, 5.0], cache=[]), 0, True),
}


@pytest.mark.parametrize("static", [True, False])
@pytest.mark.parametrize("name", list(_BOUNDARIES))
def test_boundaries_of_the_skip(name, static):
    case, capacity, must_skip = _BOUNDARIES[name]
    got, skipped = _check(Prefetcher(), case, capacity, static)
    assert skipped == must_skip
    assert got.prefetch.items == (() if skipped else (0,))
