"""The stretch knapsack problem solver — paper §4 / Figure 3.

SKP generalises the 0/1 knapsack: the prefetch list may overrun the viewing
time by the stretch ``st(F)``, at an expected cost of ``(1 - mass(K)) *
st(F)`` (every request outside the fully-prefetched kernel waits out the
overrun).  The paper attacks it with a Horowitz–Sahni-style depth-first
branch-and-bound over the canonical order (Theorem 1 / rule 5), growing the
incumbent with Theorem 3's incremental ``delta`` and pruning with the
Dantzig bound of Theorem 2.

Two variants are implemented, selected by ``variant=``:

``"corrected"`` (default)
    Theorem 3's penalty mass ``1 - sum_{i in K} P_i`` is tracked exactly
    (``K`` = items currently selected).  This variant is exact: its result
    matches exhaustive enumeration on every instance (see the test suite).

``"faithful"``
    A literal transcription of the paper's Figure 3, whose ``delta`` uses
    the *suffix* mass ``sum_{i=j..n} P_i`` instead.  The two coincide unless
    an item was *excluded* earlier on the current path — possible only for
    items that would have stretched the knapsack — in which case Figure 3
    overestimates ``delta``.  The incumbent value ``g^`` can then exceed the
    true gain, which both misranks candidate solutions (the returned plan's
    real eq.-(3) gain can even be negative) and over-prunes.  Measured on
    random instances the divergence is common — roughly 60% of instances at
    the paper's parameter ranges (``benchmarks/bench_ablation_faithful.py``)
    — and it reproduces the small-``v`` anomaly of the paper's Figure 5(a);
    see DESIGN.md §3 and EXPERIMENTS.md findings F2/F3.

Regardless of variant, the returned :class:`SKPResult.gain` is the *true*
``g*`` of the returned plan, recomputed from equation (3).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import mul
from sys import maxsize

from repro.core.improvement import access_improvement
from repro.core.ordering import RankedRow, rank_row
from repro.core.types import PrefetchPlan, PrefetchProblem

__all__ = ["SKPResult", "check_skp_options", "solve_skp"]

_VARIANTS = ("corrected", "faithful")


class _LazyGain:
    """Deferred equation-(3) recomputation for a solved plan.

    A module-level class (not a closure) so results stay picklable, holding
    only the two fields the recomputation needs.
    """

    __slots__ = ("problem", "plan")

    def __init__(self, problem: PrefetchProblem, plan: PrefetchPlan) -> None:
        self.problem = problem
        self.plan = plan

    def __call__(self) -> float:
        return access_improvement(self.problem, self.plan)


class SKPResult:
    """Outcome of an SKP solve.

    ``gain`` is the access improvement ``g*`` of ``plan`` per equation (3);
    ``algorithm_gain`` is the solver's internal incumbent value, which for
    the faithful variant may exceed ``gain`` (see module docstring).

    ``gain`` is evaluated lazily on first access: the planner's
    per-request candidate solves only consume ``plan``, while solver tests
    and analysis code reading ``gain`` get the identical equation-(3)
    recomputation they always did.
    """

    __slots__ = ("plan", "algorithm_gain", "nodes", "bound_cutoffs", "variant", "_gain", "_lazy_gain")

    def __init__(
        self,
        plan: PrefetchPlan,
        gain,
        algorithm_gain: float,
        nodes: int,
        bound_cutoffs: int,
        variant: str,
    ) -> None:
        self.plan = plan
        self.algorithm_gain = algorithm_gain
        self.nodes = nodes
        self.bound_cutoffs = bound_cutoffs
        self.variant = variant
        if callable(gain):
            self._gain = None
            self._lazy_gain = gain
        else:
            self._gain = float(gain)
            self._lazy_gain = None

    @property
    def gain(self) -> float:
        value = self._gain
        if value is None:
            value = self._gain = float(self._lazy_gain())
            self._lazy_gain = None
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SKPResult(plan={self.plan.items}, gain={self.gain:.6g}, "
            f"algorithm_gain={self.algorithm_gain:.6g}, nodes={self.nodes}, "
            f"bound_cutoffs={self.bound_cutoffs}, variant={self.variant!r})"
        )


def solve_skp(
    problem: PrefetchProblem | RankedRow,
    *,
    variant: str = "corrected",
    use_bound: bool = True,
    stretch_penalty_bonus: float = 0.0,
    node_budget: int | None = None,
) -> SKPResult:
    """Maximise the access improvement ``g*(F)`` over prefetch lists ``F``.

    Parameters
    ----------
    problem:
        The prefetch instance.  Zero-probability items are dropped before
        the search: they add zero profit and can only increase the stretch,
        so no optimal plan contains them.  A ranked view
        (:meth:`repro.core.ordering.RankedRow.view`) is accepted in its
        place: the planner ranks a row once and solves over its unblocked
        items, which is the same search as over
        ``problem.subproblem(unblocked)``, with the plan in item ids.
    variant:
        ``"corrected"`` (exact) or ``"faithful"`` (Figure 3 literal); see
        the module docstring.
    use_bound:
        Disable to measure the pruning power of the eq. (7) bound (used by
        the solver benchmark); the search is still exact without it.
    stretch_penalty_bonus:
        Non-negative additive inflation of the stretch penalty mass,
        maximising ``sum P_i r_i - (1 - mass(K) + bonus) * st(F)`` instead
        of eq. (3).  Zero (the default) is the paper's objective; the §6
        lookahead extension (:mod:`repro.core.lookahead`) uses the bonus to
        charge the stretch for the next viewing period it intrudes on.  The
        eq. (7) bound remains valid because the inflated objective is
        dominated by the original.
    node_budget:
        ``None`` (the default) searches to proven optimality — bit-exact
        with every previous release.  A positive budget caps the number of
        branch-and-bound *nodes* and returns the best incumbent found when
        it runs out (including the partial forward path), turning the
        solver into a deterministic anytime algorithm.  Learned/online
        planner rows need this: a model that spreads residual mass
        uniformly produces many *exactly tied* probabilities, and on ties
        the Dantzig bound equals the incumbent up to floating-point
        rounding, so pruning degrades and the search can go combinatorial.
        The budget is a hard, input-independent node count, so results stay
        deterministic and worker-count invariant.
    """
    check_skp_options(variant, node_budget)
    if not stretch_penalty_bonus >= 0.0:  # NaN fails this test too
        raise ValueError("stretch_penalty_bonus must be non-negative")
    view = problem if isinstance(problem, RankedRow) else rank_row(problem)
    n = len(view.items)
    if n == 0:
        return SKPResult(PrefetchPlan(()), 0.0, 0.0, 0, 0, variant)

    # The branch-and-bound touches scalars, not vectors, so it walks the
    # view's plain lists.  The prefix sums are SuffixBounder's: the same
    # left-to-right fold from 0.0 (np.cumsum's, before it).  The Dantzig
    # query below is SuffixBounder.bound inlined.  Solver output is
    # therefore bit-exact with every earlier release; the golden-trace
    # tests depend on it.
    p = view.p
    r = view.r
    pr = view.pr
    if pr is None:
        pr = list(map(mul, p, r))
    cum_r = list(accumulate(r, initial=0.0))
    cum_profit = list(accumulate(pr, initial=0.0))
    faithful = variant == "faithful"
    if faithful:
        # suffix_mass[j] = sum(p[j:]), folded from the right; 0.0 at n.
        suffix_mass = list(accumulate(reversed(p), initial=0.0))[::-1]
    bonus = stretch_penalty_bonus
    limit = maxsize if node_budget is None else node_budget
    last = n - 1

    # --- state, mirroring Figure 3 -------------------------------------
    # The paper's 0/1 vectors x^ and x are kept as the increasing lists of
    # selected indices: ``chosen`` doubles as the backtrack stack.
    best: list[int] = []  # paper's x
    g_best = 0.0  # paper's g
    chosen: list[int] = []  # paper's x^
    g_hat = 0.0  # paper's g^
    v_hat = view.problem.viewing_time  # paper's v^ (< 0 once stretched)
    sel_mass = 0.0  # sum of P over selected items (corrected penalty)
    j = 0
    nodes = 0
    cutoffs = 0
    exhausted = False

    # Figure 3's steps 2-5 as direct control flow: the inner loop alternates
    # bound and forward moves, falling through to the incumbent update; the
    # outer loop backtracks.  Theorem 3's delta is P_j r_j when item j fits;
    # only an overrun pays the penalty.
    while True:
        while True:
            # -- step 2: bound (inlined SuffixBounder.bound(j, max(v^,0)))
            if use_bound:
                if j >= n or v_hat <= 0.0:
                    u = 0.0
                else:
                    target = cum_r[j] + v_hat
                    m = bisect_right(cum_r, target)
                    if m > n:
                        u = cum_profit[n] - cum_profit[j]
                    else:
                        brk = m - 1
                        u = (cum_profit[brk] - cum_profit[j]) + (
                            target - cum_r[brk]
                        ) * p[brk]
                if g_best >= g_hat + u:
                    cutoffs += 1
                    break  # to step 5
            # -- step 3: forward
            rebound = False
            while j < n and v_hat > 0.0:
                nodes += 1
                if nodes > limit:
                    exhausted = True
                    break
                rj = r[j]
                if rj > v_hat:  # overrun r_j - v^ > 0
                    penalty = (suffix_mass[j] if faithful else 1.0 - sel_mass) + bonus
                    delta = pr[j] - penalty * (rj - v_hat)
                else:
                    delta = pr[j]
                if delta <= 0.0:
                    j += 1
                    if j < last:  # paper: "if j < n then goto 2" (1-based)
                        rebound = True
                        break
                else:
                    v_hat -= rj
                    g_hat += delta
                    sel_mass += p[j]
                    chosen.append(j)
                    j += 1
            if exhausted:
                # Budget exhausted mid-path: the current partial selection
                # is itself a feasible plan — keep it if it beats the
                # incumbent, then stop deterministically.
                if g_hat > g_best:
                    g_best = g_hat
                    best = chosen.copy()
                break
            if rebound:
                continue  # back to step 2
            # -- step 4: update the incumbent
            if g_hat > g_best:
                g_best = g_hat
                best = chosen.copy()
            break  # to step 5

        # -- step 5: backtrack
        if exhausted or not chosen:
            break  # step 6
        k = chosen.pop()
        rk = r[k]
        v_hat += rk  # restored: the residual when item k was selected
        sel_mass -= p[k]
        if rk > v_hat:
            penalty = (suffix_mass[k] if faithful else 1.0 - sel_mass) + bonus
            g_hat -= pr[k] - penalty * (rk - v_hat)
        else:
            g_hat -= pr[k]
        j = k + 1

    plan = PrefetchPlan.from_trusted(tuple(map(view.items.__getitem__, best)))
    return SKPResult(plan, _LazyGain(view.problem, plan), g_best, nodes, cutoffs, variant)


def check_skp_options(variant: str, node_budget: int | None) -> None:
    """Reject an unknown ``variant`` or a non-positive ``node_budget``."""
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if node_budget is not None and node_budget < 1:
        raise ValueError("node_budget must be positive or None")
