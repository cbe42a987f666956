"""High-level planning facade tying solver and arbitration together.

This is the public entry point a client application uses each viewing
period: hand the planner the current next-access estimates, the resource
parameters and the cache state; get back what to prefetch and what to evict.

The planner implements the paper's full pipeline (Figure 6):

1. restrict the candidate set to non-cached items;
2. maximise the empty-cache improvement ``g*`` over that set (SKP, or the
   KP baseline, or nothing) — skipped when step 3 must reject every
   candidate, because a full cache's cheapest ``P_i r_i`` beats them all;
3. run Pr-arbitration with optional LFU/DS sub-arbitration against the
   cache content;
4. report the resulting plan with its equation-(9) improvement estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.arbitration import (
    arbitrate_demand,
    arbitrate_prefetch,
    ds_sub_key,
    lfu_sub_key,
)
from repro.core.improvement import access_improvement_with_cache
from repro.core.kp import solve_kp
from repro.core.ordering import RankedRow, rank_row
from repro.core.skp import check_skp_options, solve_skp
from repro.core.types import PrefetchPlan, PrefetchProblem

__all__ = ["ONLINE_NODE_BUDGET", "PlanOutcome", "Prefetcher"]

#: Default SKP node budget for planners fed by *online/learned* models.
#: Library-constructed oracle rows are top-k truncations with distinct
#: values, where the eq. (7) bound prunes in tens of nodes; learned rows
#: can carry long runs of exactly tied probabilities (uniform residual
#: mass, equal counts) where tie-degenerate bounds stop pruning and the
#: search goes combinatorial.  20k nodes is ~100x a benign solve, so the
#: cap never binds on healthy instances and turns pathological ones into
#: a deterministic anytime solve.  Oracle/static paths keep ``None``
#: (proven-optimal, bit-exact with the golden traces).
ONLINE_NODE_BUDGET = 20_000

_STRATEGIES = ("skp", "kp", "none")
_NO_PLAN = PrefetchPlan(())
_SUB_ARBITRATIONS = (None, "lfu", "ds")


class _LazyImprovement:
    """Deferred equation-(9) gain for a plan outcome.

    Module-level (picklable) and holding only the four inputs the
    recomputation needs — not the whole arbitration result.
    """

    __slots__ = ("problem", "prefetch", "cache", "eject")

    def __init__(
        self,
        problem: PrefetchProblem,
        prefetch: PrefetchPlan,
        cache: tuple[int, ...],
        eject: tuple[int, ...],
    ) -> None:
        self.problem = problem
        self.prefetch = prefetch
        self.cache = cache
        self.eject = eject

    def __call__(self) -> float:
        return access_improvement_with_cache(
            self.problem, self.prefetch, self.cache, self.eject
        )


class PlanOutcome:
    """What the planner decided for one viewing period.

    ``expected_improvement`` (the equation-(9) gain estimate) is computed
    lazily on first access: the simulators call :meth:`Prefetcher.plan` once
    per request and never read the estimate, while analysis code that wants
    it pays exactly the former eager cost.  The value is identical either
    way — the same :func:`access_improvement_with_cache` call over the same
    plan, cache and eviction list.

    ``candidate_plan`` is the pre-arbitration SKP/KP solution ``F^``.  It is
    empty when the planner skipped the solve because Figure 6 could admit
    nothing into a full cache (see :meth:`Prefetcher.plan`): ``F^`` was
    never computed.
    """

    __slots__ = ("prefetch", "eject", "candidate_plan", "_gain", "_lazy_gain")

    def __init__(
        self,
        prefetch: PrefetchPlan,
        eject: tuple[int, ...],
        expected_improvement: float | Callable[[], float],
        candidate_plan: PrefetchPlan,
    ) -> None:
        self.prefetch = prefetch
        self.eject = eject
        self.candidate_plan = candidate_plan
        if callable(expected_improvement):
            self._gain: float | None = None
            self._lazy_gain = expected_improvement
        else:
            self._gain = float(expected_improvement)
            self._lazy_gain = None

    @property
    def expected_improvement(self) -> float:
        gain = self._gain
        if gain is None:
            gain = self._gain = float(self._lazy_gain())
            self._lazy_gain = None
        return gain

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanOutcome(prefetch={self.prefetch.items}, eject={self.eject}, "
            f"expected_improvement={self.expected_improvement:.6g})"
        )


def _blocked(cache: Sequence[int], pinned: Sequence[int]) -> set[int]:
    """The items no plan may select: the cached and the pinned ones."""
    # No int() round-trip: ranked items are Python ints, and integer-like
    # cache entries hash equal to them.
    blocked = set(cache)
    blocked.update(pinned)
    return blocked


def _below_floor(
    problem: PrefetchProblem,
    cache: tuple[int, ...],
    blocked: set[int],
    ranked: RankedRow | None,
) -> bool:
    """Would Figure 6 admit nothing into the full ``cache``, whatever ``F^`` is?

    With no free slot, arbitration takes candidates in descending
    ``P_f r_f`` and stops at the first one strictly below the cheapest
    cached ``P_d r_d`` (ties go to the prefetch).  ``F^`` holds only
    unblocked positive-``P`` items, so when every one of those is below
    that floor — or nothing is cached to evict — the admitted plan is empty
    whatever the solver returns.  The sub-key orders tied victims but never
    moves the minimum.  The floats are the ones arbitration reads: the
    ranked row's ``P_i r_i`` table (0.0 off its support), else
    ``problem.profits()``.
    """
    if not cache:
        return True
    if ranked is not None and ranked.pr is not None:
        floor = min(map(ranked.profit_lookup(), cache))
        # Stop at the first unblocked item that reaches the floor.
        for i, pr in zip(ranked.items, ranked.pr):
            if pr >= floor and i not in blocked:
                return False
        return True
    profits = problem.profits()
    floor = min(map(profits.item, cache))
    # Reaching a positive floor takes P_i > 0; every positive-P item
    # reaches a zero floor.
    reach = (profits >= floor if floor > 0.0 else problem.probabilities).nonzero()[0].tolist()
    return blocked.issuperset(reach)


@dataclass
class Prefetcher:
    """Reusable planner configured with a strategy and arbitration policy.

    Parameters
    ----------
    strategy:
        ``"skp"`` — the paper's stretch-knapsack optimiser; ``"kp"`` — the
        conservative knapsack baseline (never stretches); ``"none"`` — plan
        nothing (demand fetch only; arbitration still applies to demand
        insertions).
    variant:
        SKP solver variant, ``"corrected"`` or ``"faithful"`` (checked at
        construction, used only by ``"skp"``).
    sub_arbitration:
        ``None``, ``"lfu"`` or ``"ds"`` — the §5.2 secondary victim key.
        LFU and DS require access frequencies to be passed to :meth:`plan`.
    node_budget:
        Optional cap on SKP branch-and-bound nodes per solve (see
        :func:`repro.core.skp.solve_skp`).  ``None`` (default) keeps the
        solver exact; online-model planning paths set a budget because
        learned rows can carry exactly tied probabilities that defeat
        bound pruning.  Checked at construction; used only by ``"skp"``.
    """

    strategy: str = "skp"
    variant: str = "corrected"
    sub_arbitration: str | None = None
    node_budget: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}, got {self.strategy!r}")
        if self.sub_arbitration not in _SUB_ARBITRATIONS:
            raise ValueError(
                f"sub_arbitration must be one of {_SUB_ARBITRATIONS}, "
                f"got {self.sub_arbitration!r}"
            )
        # Checked here, not at the first solve: a bad value must not wait
        # for a request whose candidate set happens to be non-empty.
        check_skp_options(self.variant, self.node_budget)

    # ------------------------------------------------------------------
    def _sub_key(self, problem: PrefetchProblem, frequencies: np.ndarray | None):
        if self.sub_arbitration is None:
            return None
        if frequencies is None:
            raise ValueError(
                f"sub_arbitration={self.sub_arbitration!r} requires access frequencies"
            )
        freq = np.asarray(frequencies, dtype=np.float64)
        if freq.shape[0] != problem.n:
            raise ValueError("frequencies length must match the number of items")
        if self.sub_arbitration == "lfu":
            return lfu_sub_key(freq)
        return ds_sub_key(freq, problem.retrieval_times)

    def _view(
        self,
        problem: PrefetchProblem,
        blocked: set[int],
        ranked: RankedRow | None,
    ) -> RankedRow:
        """The ranked row minus ``blocked``: the candidate set."""
        if ranked is None:
            ranked = rank_row(problem)
        return ranked.view(problem, blocked)

    def _solve(self, view: RankedRow) -> PrefetchPlan:
        """Maximise g* over the view's items (step 1 of Figure 6)."""
        if not view.items:
            return _NO_PLAN
        if self.strategy == "skp":
            return solve_skp(view, variant=self.variant, node_budget=self.node_budget).plan
        sub = PrefetchProblem.from_validated(
            np.array(view.p), np.array(view.r), view.problem.viewing_time
        )
        items = view.items
        return PrefetchPlan.from_trusted(tuple(items[k] for k in solve_kp(sub).plan.items))

    def candidate_plan(
        self,
        problem: PrefetchProblem,
        cache: Sequence[int],
        pinned: Sequence[int] = (),
        *,
        ranked: RankedRow | None = None,
    ) -> PrefetchPlan:
        """Maximise g* over non-blocked items (step 1 of Figure 6).

        ``cache`` and ``pinned`` are jointly excluded from the candidate
        set; the plan comes back in the problem's item ids.  Also the
        planning core of proxy-side speculation
        (:meth:`repro.distsys.topology.ProxyNode._speculate`), which blocks
        its cached and pending items.

        ``ranked``, when given, must be ``rank_row`` of a problem with the
        same ``P`` and ``r`` — callers with static providers
        (:class:`repro.distsys.planning.ClientPlanState`) rank each row once
        instead of on every call.
        """
        if self.strategy == "none":
            return _NO_PLAN
        return self._solve(self._view(problem, _blocked(cache, pinned), ranked))

    # ------------------------------------------------------------------
    def plan(
        self,
        problem: PrefetchProblem,
        cache: Sequence[int] = (),
        *,
        cache_capacity: int | None = None,
        frequencies: np.ndarray | None = None,
        pinned: Sequence[int] = (),
        ranked: RankedRow | None = None,
    ) -> PlanOutcome:
        """Decide what to prefetch (and evict) for one viewing period.

        ``cache_capacity`` defaults to ``len(cache)`` (a full cache, the
        paper's assumption); a larger capacity exposes free slots that admit
        prefetches without eviction.  ``pinned`` items are excluded from both
        the candidate set and the victim pool — the continuous simulator
        uses it for transfers still in flight from the previous period.
        ``ranked`` is as for :meth:`candidate_plan`.

        With no free slot, a plan whose unblocked items all fall strictly
        below the cheapest cached ``P_i r_i`` (or whose cache is empty) is
        decided without solving: Figure 6 would admit none of them, so the
        outcome is empty, and so is its ``candidate_plan`` — ``F^`` was
        never computed.
        """
        cache = tuple(cache)
        capacity = len(cache) if cache_capacity is None else int(cache_capacity)
        if capacity < len(cache):
            raise ValueError(f"cache_capacity {capacity} below current occupancy {len(cache)}")
        # Built before the shortcuts so a misconfigured
        # sub_arbitration/frequencies pair raises on every call, not only
        # on the data-dependent calls whose candidate plan is non-empty.
        sub_key = self._sub_key(problem, frequencies)
        candidate = _NO_PLAN
        if self.strategy != "none":
            blocked = _blocked(cache, pinned)
            # A full cache whose cheapest P*r beats every candidate admits
            # nothing (Figure 6): skip the solve and the arbitration.
            if capacity > len(cache) or not _below_floor(problem, cache, blocked, ranked):
                view = self._view(problem, blocked, ranked)
                candidate = self._solve(view)
        if not candidate.items:
            # Nothing to arbitrate: the admitted plan is empty, no victim is
            # ejected, and equation (9) evaluates to exactly 0.0 (zero
            # profit, zero stretch) — skip the profit-vector round-trip.
            return PlanOutcome(
                prefetch=candidate,
                eject=(),
                expected_improvement=0.0,
                candidate_plan=candidate,
            )
        result = arbitrate_prefetch(
            view,
            candidate,
            cache,
            free_slots=capacity - len(cache),
            sub_key=sub_key,
        )
        return PlanOutcome(
            prefetch=result.prefetch,
            eject=result.eject,
            expected_improvement=_LazyImprovement(
                problem, result.prefetch, cache, result.eject
            ),
            candidate_plan=candidate,
        )

    def demand_victim(
        self,
        problem: PrefetchProblem,
        item: int,
        cache: Sequence[int],
        *,
        cache_capacity: int | None = None,
        frequencies: np.ndarray | None = None,
    ) -> int | None:
        """Victim for a demand-fetched item (always admitted, §5.2)."""
        cache = tuple(cache)
        capacity = len(cache) if cache_capacity is None else int(cache_capacity)
        return arbitrate_demand(
            problem,
            item,
            cache,
            free_slots=max(0, capacity - len(cache)),
            sub_key=self._sub_key(problem, frequencies),
        )
