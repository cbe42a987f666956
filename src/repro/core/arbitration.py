"""Prefetch/cache arbitration — paper §5.2 and Figure 6.

With a warm cache, prefetched items must evict cached ones.  The paper
splits the decision in two stages:

**Pr-arbitration** (primary).  Candidates ``f`` from the SKP solution are
considered in descending ``P_f r_f``; each must beat the cheapest cached
victim ``d`` (minimal ``P_d r_d``) to enter.  The loop stops at the first
candidate that loses — Figure 6 breaks on ``P_f r_f < P_d r_d``, i.e. ties
are resolved in favour of the prefetch (the prose says strict ``>``; we
follow the pseudocode and note the discrepancy here).  A *demand-fetched*
item always wins: it "must have a victim and only requires the first
condition".

**Sub-arbitration** (secondary).  Victims tied on ``P_d r_d`` — common,
because most cached items have ``P_d = 0`` for the next access — are split
by a secondary key: least frequently used (**LFU**) or lowest
*delay-saving profit* ``freq_d * r_d`` (**DS**, the WATCHMAN heuristic).
Remaining ties fall back to the item id so results are deterministic (the
paper leaves this unspecified).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.ordering import RankedRow
from repro.core.types import PrefetchPlan, PrefetchProblem

__all__ = [
    "ArbitrationResult",
    "lfu_sub_key",
    "ds_sub_key",
    "select_victim",
    "arbitrate_prefetch",
    "arbitrate_demand",
]

SubKey = Callable[[int], float]


@dataclass(frozen=True)
class ArbitrationResult:
    """Outcome of Figure 6: what to prefetch and what to eject.

    ``pairs`` aligns each admitted candidate with its victim (``None`` when
    a free cache slot absorbed it); ``prefetch`` is the admitted set as a
    valid ordered plan; ``eject`` is the paper's ``D``.
    """

    prefetch: PrefetchPlan
    eject: tuple[int, ...]
    pairs: tuple[tuple[int, int | None], ...]


def lfu_sub_key(freq: np.ndarray) -> SubKey:
    """LFU sub-arbitration: evict the least frequently accessed item."""
    return lambda item: float(freq[item])


def ds_sub_key(freq: np.ndarray, retrieval_times: np.ndarray) -> SubKey:
    """DS sub-arbitration: evict the lowest delay-saving profit ``freq_i * r_i``.

    The simplified WATCHMAN profit of §5.2 — items that are accessed often
    *and* expensive to re-fetch are worth keeping.
    """
    return lambda item: float(freq[item]) * float(retrieval_times[item])


def select_victim(
    cache: Iterable[int],
    primary_key: Callable[[int], float],
    sub_key: SubKey | None = None,
) -> int:
    """Pick the eviction victim: minimal primary key, ties by sub-key, then id.

    Raises :class:`ValueError` on an empty cache — callers decide what a
    free slot means.
    """
    best: int | None = None
    best_key: tuple[float, float, int] | None = None
    for item in cache:
        key = (
            primary_key(item),
            sub_key(item) if sub_key is not None else 0.0,
            item,
        )
        if best_key is None or key < best_key:
            best_key = key
            best = item
    if best is None:
        raise ValueError("cannot select a victim from an empty cache")
    return best


def arbitrate_prefetch(
    problem: PrefetchProblem | RankedRow,
    candidates: PrefetchPlan | Sequence[int],
    cache: Sequence[int],
    *,
    free_slots: int = 0,
    sub_key: SubKey | None = None,
) -> ArbitrationResult:
    """Figure 6's admission loop.

    ``candidates`` is the SKP solution ``F^`` over non-cached items;
    ``cache`` the current content ``C``.  ``problem`` may also be the ranked
    view (:meth:`repro.core.ordering.RankedRow.view`) the candidates were
    solved over.  Candidates are taken in descending ``P_f r_f`` (ties by
    id for determinism).  Free slots admit candidates without a victim
    before any eviction happens.  The admitted subset is re-ordered per
    rule (5) into a valid plan — a subset of a valid plan remains valid,
    since dropping items only shrinks the total retrieval time.

    Victims are the cache sorted once by ``(P_d r_d, sub-key, id)`` and
    taken from the front: the keys are unique and fixed for the call, so
    this picks exactly what repeated :func:`select_victim` calls on the
    shrinking cache would.
    """
    items = tuple(candidates.items if isinstance(candidates, PrefetchPlan) else candidates)
    item_set = set(map(int, items))
    # The result plan is built without re-validation, so enforce the plan
    # invariants (unique, non-negative ids) on raw candidate sequences here.
    if len(item_set) != len(items):
        raise ValueError(f"prefetch candidates contain duplicate items: {items}")
    if item_set and min(item_set) < 0:
        raise ValueError(f"prefetch candidates contain negative item ids: {items}")
    cache_set = set(map(int, cache))
    if not cache_set.isdisjoint(item_set):
        raise ValueError("prefetch candidates must not already be cached")
    if free_slots < 0:
        raise ValueError("free_slots must be non-negative")

    if isinstance(problem, RankedRow):
        profit = problem.profit_lookup()
        # A view lists its items in rule-(5) order already.
        rule5_key = problem.items.index
    else:
        # Plain-list profits: the identical P_i r_i floats, indexed without
        # a NumPy array-scalar box per lookup.
        profit = problem.profits().tolist().__getitem__
        p = problem.probabilities
        r = problem.retrieval_times

        def rule5_key(i: int) -> tuple:
            return (-p[i], r[i], i)

    # Stable sorts over id-sorted input: descending P_f r_f with ties by id
    # for the candidates, ascending (P_d r_d, sub-key) with ties by id for
    # the victims.
    ordered = sorted(sorted(item_set), key=profit, reverse=True)
    victims = None
    admitted: list[int] = []
    eject: list[int] = []
    pairs: list[tuple[int, int | None]] = []
    slots = free_slots

    for f in ordered:
        if slots > 0:
            slots -= 1
            admitted.append(f)
            pairs.append((f, None))
            continue
        if victims is None:
            victim_key = profit if sub_key is None else lambda d: (profit(d), sub_key(d))
            victims = iter(sorted(sorted(cache_set), key=victim_key))
        d = next(victims, None)
        if d is None:
            break  # full cache with nothing evictable left
        if profit(f) < profit(d):
            break  # Figure 6: first losing candidate ends the loop
        admitted.append(f)
        eject.append(d)
        pairs.append((f, d))

    if len(admitted) > 1:
        admitted.sort(key=rule5_key)
    return ArbitrationResult(
        prefetch=PrefetchPlan.from_trusted(tuple(admitted)),
        eject=tuple(eject),
        pairs=tuple(pairs),
    )


def arbitrate_demand(
    problem: PrefetchProblem,
    item: int,
    cache: Sequence[int],
    *,
    free_slots: int = 0,
    sub_key: SubKey | None = None,
) -> int | None:
    """Choose the victim for a demand-fetched item (always admitted).

    Returns the ejected item, or ``None`` when a free slot (or an empty
    cache) absorbs the insertion.
    """
    if free_slots > 0:
        return None
    item = int(item)
    cache_list = [int(i) for i in cache if int(i) != item]
    if not cache_list:
        return None
    profit = problem.profits().tolist()
    return select_victim(cache_list, profit.__getitem__, sub_key)
