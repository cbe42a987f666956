"""Canonical item ordering — Theorem 1 and rule (5).

Theorem 1 shows that in an optimal stretching solution the *last* item (the
one allowed to overrun the viewing time) has minimal probability within the
plan.  The search can therefore be confined to lists sorted by descending
``P_i``, with ties broken by ascending ``r_i`` (the paper's rule (5)) — every
subset then automatically places a minimal-probability member last.

We add item index as a final deterministic tie-breaker so that solver output
is reproducible across NumPy versions and platforms.

The order depends only on a row's ``P`` and ``r`` — never on the cache or
the viewing window — so :class:`RankedRow` ranks a row once and the planner
filters it per request instead of sorting again.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Sequence
from itertools import compress

import numpy as np

from repro.core.types import PrefetchPlan, PrefetchProblem

__all__ = [
    "RankedRow",
    "canonical_order",
    "is_canonical",
    "rank_row",
    "reorder_plan",
    "satisfies_theorem1",
]


def canonical_order(problem: PrefetchProblem) -> np.ndarray:
    """Permutation of item ids sorted per rule (5).

    Returns ``order`` such that ``P[order]`` is non-increasing and, within
    probability ties, ``r[order]`` is non-decreasing.
    """
    p = problem.probabilities
    r = problem.retrieval_times
    # lexsort sorts by the *last* key first; keys listed minor-to-major.
    return np.lexsort((np.arange(problem.n), r, -p))


class RankedRow:
    """A row's positive-``P`` items in rule-(5) order, as plain Python lists.

    ``items`` holds item ids and ``p``, ``r``, ``pr`` their ``P_i``, ``r_i``
    and ``P_i r_i``.  A row ranked for a single call leaves ``pr`` as
    ``None``: the solver folds the products itself, and
    :meth:`profit_lookup` builds a table only when arbitration asks.

    :meth:`view` drops blocked items.  A subsequence of a rule-(5) list is
    still in rule-(5) order, so a view is never re-sorted.  It carries the
    :class:`PrefetchProblem` it plans for, and
    :func:`~repro.core.skp.solve_skp` and
    :func:`~repro.core.arbitration.arbitrate_prefetch` accept it in place of
    that problem.
    """

    __slots__ = ("items", "p", "r", "pr", "problem", "_profits")

    def __init__(
        self,
        items: list[int],
        p: list[float],
        r: list[float],
        pr: list[float] | None,
        problem: PrefetchProblem,
        profits: _Profits | None,
    ) -> None:
        self.items = items
        self.p = p
        self.r = r
        self.pr = pr
        self.problem = problem
        self._profits = profits

    def view(self, problem: PrefetchProblem, blocked: Container[int]) -> RankedRow:
        """The unblocked items, planning for ``problem``.

        ``problem`` must have the row's ``P`` and ``r``; only its viewing
        time (and the eq.-(3) gain of a solved plan) is read from it.
        """
        items = self.items
        keep = [i not in blocked for i in items]
        if all(keep):
            return RankedRow(items, self.p, self.r, self.pr, problem, self._profits)
        pr = self.pr
        return RankedRow(
            list(compress(items, keep)),
            list(compress(self.p, keep)),
            list(compress(self.r, keep)),
            None if pr is None else list(compress(pr, keep)),
            problem,
            self._profits,
        )

    def profit_lookup(self) -> Callable[[int], float]:
        """``item -> P_i r_i`` for every item of the row, blocked ones too."""
        if self._profits is not None:
            return self._profits.__getitem__
        return self.problem.profits().tolist().__getitem__


class _Profits(dict):
    """``P_i r_i`` by item over a row's support; 0.0 off it (``P_i = 0``)."""

    __slots__ = ()

    def __missing__(self, item: int) -> float:
        return 0.0


def rank_row(problem: PrefetchProblem, *, profits: bool = False) -> RankedRow:
    """Rank ``problem``'s positive-``P`` items per rule (5).

    Zero-probability items are left out: they add no profit and can only
    stretch a plan, so neither solver ever selects one.  ``profits=True``
    also tabulates every ``P_i r_i`` — worth it for a row that is ranked
    once and planned from many times.  The returned row plans for
    ``problem`` as it stands (a view with nothing blocked).
    """
    support = np.flatnonzero(problem.probabilities)
    if support.shape[0] == problem.n:
        order = canonical_order(problem)
    else:
        # ``support`` is increasing, so the sub-instance's index tie-break
        # is the item-id tie-break.
        order = support[canonical_order(problem.subproblem(support))]
    items = order.tolist()
    p = problem.probabilities[order].tolist()
    r = problem.retrieval_times[order].tolist()
    if not profits:
        return RankedRow(items, p, r, None, problem, None)
    # Python float products: the same IEEE doubles as ``P * r`` in NumPy.
    pr = [pi * ri for pi, ri in zip(p, r)]
    return RankedRow(items, p, r, pr, problem, _Profits(zip(items, pr)))


def is_canonical(problem: PrefetchProblem, order: Sequence[int] | np.ndarray) -> bool:
    """Check that ``order`` satisfies rule (5) for ``problem``."""
    order = np.asarray(order, dtype=np.intp)
    if sorted(order.tolist()) != list(range(problem.n)):
        return False
    p = problem.probabilities[order]
    r = problem.retrieval_times[order]
    for k in range(len(order) - 1):
        if p[k] < p[k + 1]:
            return False
        if p[k] == p[k + 1] and r[k] > r[k + 1]:
            return False
    return True


def reorder_plan(problem: PrefetchProblem, items: Sequence[int]) -> PrefetchPlan:
    """Arrange ``items`` per rule (5), making a valid ``F = K ++ <z>`` list.

    By Theorem 1 this ordering is optimal for the given item *set*: the
    minimal-probability member ends up last and absorbs the stretch.
    """
    items = [int(i) for i in items]
    p = problem.probabilities
    r = problem.retrieval_times
    items.sort(key=lambda i: (-p[i], r[i], i))
    return PrefetchPlan(tuple(items))


def satisfies_theorem1(problem: PrefetchProblem, plan: PrefetchPlan | Sequence[int]) -> bool:
    """Does the plan's tail have minimal probability within the plan?

    Vacuously true for empty and non-stretching plans (Theorem 1 only
    constrains plans whose total retrieval time exceeds the viewing time).
    """
    items = tuple(plan.items if isinstance(plan, PrefetchPlan) else plan)
    if len(items) <= 1:
        return True
    idx = np.asarray(items, dtype=np.intp)
    total = float(problem.retrieval_times[idx].sum())
    if total <= problem.viewing_time:
        return True
    p = problem.probabilities
    return float(p[items[-1]]) == float(min(p[i] for i in items))
