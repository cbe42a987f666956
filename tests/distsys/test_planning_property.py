"""Property test: ClientPlanState's incremental bookkeeping never drifts.

:class:`repro.distsys.planning.ClientPlanState` maintains sorted
cache/pending fingerprints *incrementally* (invalidate on membership
change, rebuild lazily), ranks each static row once, and memoizes
zero-window demand-victim solves.  All three are pure derivatives of the
plain ``cache`` / ``pending`` sets and the provider rows — so after *any*
sequence of engine-shaped operations they must equal a brute-force
recompute from scratch.  A divergence here is exactly the kind of bug the
golden traces would catch only downstream, as an inexplicably different
timeline.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import canonical_order
from repro.core.planner import Prefetcher
from repro.core.types import PrefetchProblem
from repro.distsys.planning import ClientPlanState, RankedRowCache

N_ITEMS = 6

# A fixed, library-normalised probability matrix: rows sum to <= 1 with a
# couple of structural zeros, which a ranked row leaves out.
_rng = np.random.default_rng(1234)
_P = _rng.random((N_ITEMS, N_ITEMS))
_P[0, 3] = 0.0
_P[2, :2] = 0.0
_P /= _P.sum(axis=1, keepdims=True) * 1.1
_P.setflags(write=False)
_RETRIEVALS = _rng.uniform(1.0, 30.0, N_ITEMS)
_RETRIEVALS.setflags(write=False)


#: The same rows as separate arrays: a second client of the same cohort.
_P_COPY = _P.copy()


def _provider(item: int) -> np.ndarray:
    return _P[int(item)]


def _copy_provider(item: int) -> np.ndarray:
    return _P_COPY[int(item)]


class _SilentModel:
    """An online model that learns nothing; it switches the static-row fast
    paths off."""

    def update(self, item: int) -> None:
        pass


def _fresh_state(capacity: int, *, static: bool, provider=_provider) -> ClientPlanState:
    return ClientPlanState(
        Prefetcher(strategy="skp"),
        provider,
        _RETRIEVALS,
        capacity,
        N_ITEMS,
        model=None if static else _SilentModel(),
    )


OPS = ("admit", "discard", "pend", "pop", "promote", "observe", "plan")

operations = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, N_ITEMS - 1),
        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=40,
)


def _apply(state: ClientPlanState, op: str, item: int, window: float) -> None:
    """One engine-shaped mutation; invalid ops degrade to no-ops the way the
    engines' guards would skip them."""
    if op == "admit":
        # Engines demand-fetch only items that are neither cached nor
        # pending, and a demand completion implies the whole prefetch
        # backlog drained first (§2 / per-client FIFO): promote everything,
        # then admit.
        if item in state.cache or item in state.pending:
            return
        for pending_item in list(state.pending):
            state.promote(pending_item)
        state.admit_demand(item)
    elif op == "discard":
        state.cache_discard(item)
    elif op == "pend":
        # Engines only register prefetches the planner admitted, which
        # keeps cache+pending within capacity; mirror that guard.
        if (
            item not in state.pending
            and item not in state.cache
            and len(state.cache) + len(state.pending) < state.capacity
        ):
            state.pending_add(item, math.inf)
    elif op == "pop":
        if item in state.pending:
            state.pending_pop(item)
    elif op == "promote":
        if item in state.pending:
            state.promote(item)
    elif op == "observe":
        state.observe(item)
    elif op == "plan":
        outcome = state.plan_view(item, window)
        for f in outcome.prefetch:
            state.pending_add(f, math.inf)


@given(capacity=st.integers(0, 4), ops=operations)
@settings(max_examples=60)
def test_fingerprints_match_brute_force_after_any_op_sequence(capacity, ops):
    state = _fresh_state(capacity, static=True)
    for op, item, window in ops:
        _apply(state, op, item, window)
        # Brute-force recompute: the incrementally-maintained sorted tuples
        # must equal sorting the raw sets from scratch, every step.
        assert state.cache_key() == tuple(sorted(state.cache))
        assert state.pending_key() == tuple(sorted(state.pending))
        # Origin bookkeeping tracks cache membership exactly (modulo the
        # engines' "prefetch-used" relabelling, which is value-only).
        assert set(state.origin) == state.cache
        # Engine invariant the planner relies on.
        assert len(state.cache) + len(state.pending) <= max(state.capacity, 0)


@given(capacity=st.integers(0, 4), ops=operations)
@settings(max_examples=60)
def test_ranked_rows_match_brute_force(capacity, ops):
    # Two clients of one cohort share the rankings, the way the cohort
    # engine shares them: equal rows, held in separate arrays.
    first = _fresh_state(capacity, static=True)
    second = _fresh_state(capacity, static=True, provider=_copy_provider)
    assert first._ranked is not None  # static provider => rankings cached
    second._ranked = first._ranked
    for k, (op, item, window) in enumerate(ops):
        _apply(second if k % 2 else first, op, item, window)
    for item, ranked in first._ranked.by_item.items():
        row = _P[item]
        order = [
            i
            for i in canonical_order(PrefetchProblem(row, _RETRIEVALS, 0.0)).tolist()
            if row[i] > 0.0
        ]
        assert ranked.items == order
        assert ranked.p == row[order].tolist()
        assert ranked.r == _RETRIEVALS[order].tolist()
        assert ranked.pr == (row[order] * _RETRIEVALS[order]).tolist()


def test_one_ranking_per_distinct_row():
    # A Zipf client's provider hands back one array for every item, so one
    # ranking serves them all; a Markov client's rows each get their own.
    def rankings(provider) -> int:
        ranked = RankedRowCache()
        for item in range(N_ITEMS):
            ranked.get(item, PrefetchProblem.from_validated(provider(item), _RETRIEVALS, 5.0))
        return len({id(r) for r in ranked.by_item.values()})

    row = _P[1]
    assert rankings(lambda item: row) == 1
    assert rankings(_provider) == N_ITEMS


@given(capacity=st.integers(1, 4), ops=operations)
@settings(max_examples=40)
def test_victim_memo_matches_unmemoized_solve(capacity, ops):
    memoized = _fresh_state(capacity, static=True)
    for op, item, window in ops:
        _apply(memoized, op, item, window)
    assert memoized._victim_memo is not None
    for item in range(N_ITEMS):
        # A fresh state with memoization off but identical cache contents
        # and frequencies must agree with the memoized answer.
        plain = _fresh_state(capacity, static=False)
        for member in memoized.cache:
            plain.cache_add(member, memoized.origin[member])
        plain.frequencies[:] = memoized.frequencies
        assert memoized.demand_victim(item) == plain.demand_victim(item)
