"""The §5.3 *prefetch + cache* continuous simulation (Figure 7).

A client walks the 100-state Markov source.  On entering state ``i`` it
requests item ``i``; after the request is served it views for ``v_i`` while
the planner prefetches over a single network channel; then it transitions.
The prefetcher sees the true transition row of the current state (the
paper's presupposed access knowledge) and plans with the Figure 6 pipeline:
SKP/KP over non-cached items, then Pr-arbitration with optional LFU/DS
sub-arbitration against the cache.

Timeline semantics (single channel, DESIGN.md §3):

* prefetches are **never aborted** (§2): a demand fetch starts only after
  every already-scheduled transfer completes — the generalisation of the
  paper's "the prefetch completes before the demand fetch";
* a request for an item still in flight waits for that item's own arrival;
* leftover transfer work (the stretch) delays the start of the next
  period's prefetching — the intrusion §4.4 warns about.  The planner can
  either ignore this (``planning_window="nominal"``, the paper's one-step
  model) or budget only the genuinely free time
  (``planning_window="effective"``, ablated in A3);
* eviction lists ``D`` leave the cache at planning time, exactly as
  equation (9) assumes; each admitted prefetch is paired with a victim or a
  free slot, so occupancy (cache + in-flight) never exceeds capacity.

Each request is one :func:`repro.distsys.planning.step` over a
:class:`~repro.distsys.network.Channel` — the request-step kernel every
engine runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.planner import Prefetcher
from repro.distsys import planning
from repro.distsys.network import Channel
from repro.simulation.metrics import AccessStats
from repro.util.rng import as_generator
from repro.workload.markov_source import MarkovSource

__all__ = ["PrefetchCacheConfig", "PrefetchCacheResult", "run_prefetch_cache", "FIGURE7_POLICIES"]

#: The five policy configurations plotted in Figure 7.
FIGURE7_POLICIES: dict[str, dict] = {
    "No+Pr": {"strategy": "none", "sub_arbitration": None},
    "KP+Pr": {"strategy": "kp", "sub_arbitration": None},
    "SKP+Pr": {"strategy": "skp", "sub_arbitration": None},
    "SKP+Pr+LFU": {"strategy": "skp", "sub_arbitration": "lfu"},
    "SKP+Pr+DS": {"strategy": "skp", "sub_arbitration": "ds"},
}


@dataclass(frozen=True)
class PrefetchCacheConfig:
    """One Figure 7 point: a policy at a cache size."""

    cache_size: int
    n_requests: int = 50_000
    strategy: str = "skp"  # "none" | "kp" | "skp"
    sub_arbitration: str | None = None  # None | "lfu" | "ds"
    skp_variant: str = "corrected"
    planning_window: str = "nominal"  # "nominal" | "effective"
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if self.planning_window not in ("nominal", "effective"):
            raise ValueError(f"unknown planning_window {self.planning_window!r}")


@dataclass(frozen=True)
class PrefetchCacheResult:
    """Per-run statistics; ``mean_access_time`` is the Figure 7 y-value."""

    config: PrefetchCacheConfig
    access_times: np.ndarray
    hit_counts: dict[str, int]
    prefetches_scheduled: int
    prefetches_used: int
    network_prefetch_time: float
    network_demand_time: float

    @property
    def mean_access_time(self) -> float:
        return float(self.access_times.mean())

    @property
    def hit_rate(self) -> float:
        hits = self.hit_counts.get("cache-hit", 0)
        return hits / max(1, self.access_times.shape[0])

    @property
    def prefetch_precision(self) -> float:
        """Fraction of prefetched items that were eventually requested."""
        if self.prefetches_scheduled == 0:
            return float("nan")
        return self.prefetches_used / self.prefetches_scheduled


def run_prefetch_cache(source: MarkovSource, config: PrefetchCacheConfig) -> PrefetchCacheResult:
    """Simulate ``n_requests`` requests of the Figure 7 loop (see module doc)."""
    rng = as_generator(config.seed)
    n = source.n
    transfer = source.retrieval_times.tolist()
    cdf = np.cumsum(source.transition, axis=1)
    viewing_list = source.viewing_times.tolist()
    effective = config.planning_window == "effective"

    prefetcher = Prefetcher(
        strategy=config.strategy,
        variant=config.skp_variant,
        sub_arbitration=config.sub_arbitration,
    )
    state = planning.ClientPlanState(
        prefetcher, source.row, source.retrieval_times, config.cache_size, n
    )
    stats = AccessStats()
    channel = Channel()

    # Initial state: treat its item as just served at t=0, then view and plan.
    current = int(rng.integers(n))
    planning.warm_start(
        state, stats, current, viewing_list[current], 0.0, transfer, channel
    )
    t = viewing_list[current]

    u_list = rng.random(config.n_requests).tolist()
    for k in range(config.n_requests):
        nxt = int(np.searchsorted(cdf[current], u_list[k], side="right"))
        current = nxt if nxt < n else n - 1
        viewing = viewing_list[current]
        t_serve, _ = planning.step(
            state, stats, current, viewing, t, transfer, channel, effective
        )
        t = t_serve + viewing

    return PrefetchCacheResult(
        config=config,
        access_times=np.asarray(stats.access_times, dtype=np.float64),
        hit_counts={
            "cache-hit": stats.cache_hits,
            "pending-wait": stats.pending_waits,
            "miss": stats.misses,
        },
        prefetches_scheduled=stats.prefetches_scheduled,
        prefetches_used=stats.prefetches_used,
        network_prefetch_time=stats.network_prefetch_time,
        network_demand_time=stats.network_demand_time,
    )
