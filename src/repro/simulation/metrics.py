"""Aggregation helpers for simulation output (binning, summaries, fleets).

Besides the Figure 5 binning utilities, this module owns the shared
per-client access accounting (:class:`AccessStats`, which the request-step
kernel of :mod:`repro.distsys.planning` fills) and its population-level
roll-up (:func:`aggregate_access_stats`), so every engine reports through
one dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

__all__ = [
    "AccessStats",
    "BinnedSeries",
    "FleetAggregate",
    "WindowedSeries",
    "aggregate_access_stats",
    "bin_mean",
    "kl_divergence",
    "summarise",
    "windowed_access_series",
]


@dataclass
class AccessStats:
    """Per-client access accounting shared by every engine.

    One instance accumulates the life of one client: how requests were
    served (``cache_hits`` / ``pending_waits`` / ``misses``), what the
    prefetcher did, how much network time each traffic class consumed, and
    the per-request access times themselves.

    ``request_times`` / ``serve_kinds`` are per-request recordings (aligned
    with ``access_times``, in serve order) for the windowed drift metrics;
    hand-built instances may leave them empty.  ``serve_kinds`` entries are
    the ``KIND_*`` codes.
    """

    KIND_HIT = 0
    KIND_WAIT = 1
    KIND_MISS = 2

    cache_hits: int = 0
    pending_waits: int = 0
    misses: int = 0
    prefetches_scheduled: int = 0
    prefetches_used: int = 0
    network_prefetch_time: float = 0.0
    network_demand_time: float = 0.0
    access_times: list[float] = field(default_factory=list)
    request_times: list[float] = field(default_factory=list)
    serve_kinds: list[int] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return self.cache_hits + self.pending_waits + self.misses

    @property
    def mean_access_time(self) -> float:
        return float(np.mean(self.access_times)) if self.access_times else float("nan")

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else float("nan")

    @property
    def prefetch_precision(self) -> float:
        """Fraction of scheduled prefetches that were eventually requested."""
        if self.prefetches_scheduled == 0:
            return float("nan")
        return self.prefetches_used / self.prefetches_scheduled


@dataclass(frozen=True)
class FleetAggregate:
    """Population roll-up of many :class:`AccessStats`.

    Percentiles are over the *pooled* per-request access times; ``fairness``
    is Jain's index over per-client mean access times (1 = perfectly even,
    1/N = one client absorbs all the delay).
    """

    n_clients: int
    requests: int
    mean_access_time: float
    p50_access_time: float
    p95_access_time: float
    p99_access_time: float
    hit_rate: float
    prefetch_precision: float
    network_prefetch_time: float
    network_demand_time: float
    fairness: float
    per_client_mean: np.ndarray


def aggregate_access_stats(stats: Sequence[AccessStats]) -> FleetAggregate:
    """Fold per-client :class:`AccessStats` into one :class:`FleetAggregate`."""
    stats = list(stats)
    if not stats:
        raise ValueError("need at least one AccessStats to aggregate")
    pooled = np.concatenate(
        [np.asarray(s.access_times, dtype=np.float64) for s in stats]
    ) if any(s.access_times for s in stats) else np.empty(0)
    requests = sum(s.requests for s in stats)
    hits = sum(s.cache_hits for s in stats)
    scheduled = sum(s.prefetches_scheduled for s in stats)
    used = sum(s.prefetches_used for s in stats)
    per_client = np.asarray([s.mean_access_time for s in stats], dtype=np.float64)
    active = per_client[~np.isnan(per_client)]
    if active.size and float((active**2).sum()) > 0.0:
        fairness = float(active.sum()) ** 2 / (active.size * float((active**2).sum()))
    else:
        fairness = 1.0  # all-zero (or empty) access times: nothing is unfair
    if pooled.size:
        p50, p95, p99 = (float(np.percentile(pooled, q)) for q in (50, 95, 99))
        mean = float(pooled.mean())
    else:
        p50 = p95 = p99 = mean = float("nan")
    return FleetAggregate(
        n_clients=len(stats),
        requests=requests,
        mean_access_time=mean,
        p50_access_time=p50,
        p95_access_time=p95,
        p99_access_time=p99,
        hit_rate=hits / requests if requests else float("nan"),
        prefetch_precision=used / scheduled if scheduled else float("nan"),
        network_prefetch_time=float(sum(s.network_prefetch_time for s in stats)),
        network_demand_time=float(sum(s.network_demand_time for s in stats)),
        fairness=fairness,
        per_client_mean=per_client,
    )


@dataclass(frozen=True)
class BinnedSeries:
    """Mean of ``y`` within bins of ``x`` — the form of the Figure 5 curves."""

    centers: np.ndarray
    means: np.ndarray
    counts: np.ndarray

    def as_rows(self) -> list[tuple[float, float, int]]:
        return [
            (float(c), float(m), int(k))
            for c, m, k in zip(self.centers, self.means, self.counts)
        ]


def bin_mean(x: np.ndarray, y: np.ndarray, edges: np.ndarray) -> BinnedSeries:
    """Mean of ``y`` in each ``[edges[i], edges[i+1])`` bin of ``x``.

    Empty bins yield NaN means (plot code skips them).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.shape[0] < 2:
        raise ValueError("need at least two bin edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be strictly increasing")
    idx = np.digitize(x, edges) - 1
    nbins = edges.shape[0] - 1
    valid = (idx >= 0) & (idx < nbins)
    counts = np.bincount(idx[valid], minlength=nbins)
    sums = np.bincount(idx[valid], weights=y[valid], minlength=nbins)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return BinnedSeries(centers=centers, means=means, counts=counts)


@dataclass(frozen=True)
class WindowedSeries:
    """Per-window access metrics of a (possibly drifting) run.

    Windows partition either the per-client *request-index* axis (the space
    drift schedules are written in, so window boundaries align with regime
    shifts) or the pooled *request-time* axis.  ``hit_rate`` counts
    instant cache hits (``AccessStats.KIND_HIT``), matching the aggregate
    ``hit_rate`` definition; empty windows yield NaN.
    """

    edges: np.ndarray  # (n_windows + 1,) window boundaries
    requests: np.ndarray  # (n_windows,) pooled request count per window
    hit_rate: np.ndarray  # (n_windows,)
    mean_access_time: np.ndarray  # (n_windows,)

    @property
    def n_windows(self) -> int:
        return int(self.requests.shape[0])

    def as_rows(self) -> list[tuple[float, float, int, float, float]]:
        return [
            (float(self.edges[w]), float(self.edges[w + 1]), int(self.requests[w]),
             float(self.hit_rate[w]), float(self.mean_access_time[w]))
            for w in range(self.n_windows)
        ]


def windowed_access_series(
    stats: Sequence[AccessStats],
    n_windows: int,
    *,
    by: str = "index",
) -> WindowedSeries:
    """Pool per-client stats into per-window hit rate and mean access time.

    ``by="index"`` bins each client's k-th request into the window covering
    request index ``k`` (requires equal-length traces only in the sense
    that windows span ``[0, max trace length)``); ``by="time"`` bins the
    pooled requests by their recorded request times, which requires the
    engines to have filled ``AccessStats.request_times``.
    """
    if n_windows < 1:
        raise ValueError("n_windows must be positive")
    if by not in ("index", "time"):
        raise ValueError(f"by must be 'index' or 'time', got {by!r}")
    stats = list(stats)
    if by == "index":
        coords = np.concatenate(
            [np.arange(len(s.access_times), dtype=np.float64) for s in stats]
        ) if stats else np.empty(0)
        span = max((len(s.access_times) for s in stats), default=0)
    else:
        for s in stats:
            if len(s.request_times) != len(s.access_times):
                raise ValueError(
                    "windowed_access_series(by='time') needs request_times "
                    "recorded for every access (fleet/topology engines do this)"
                )
        coords = np.concatenate(
            [np.asarray(s.request_times, dtype=np.float64) for s in stats]
        ) if stats else np.empty(0)
        span = float(coords.max()) + 1e-12 if coords.size else 0.0
    access = np.concatenate(
        [np.asarray(s.access_times, dtype=np.float64) for s in stats]
    ) if stats else np.empty(0)
    kinds = np.concatenate(
        [np.asarray(s.serve_kinds, dtype=np.intp) for s in stats]
    ) if stats else np.empty(0, dtype=np.intp)
    if kinds.shape != access.shape:
        raise ValueError("serve_kinds must be recorded alongside access_times")

    edges = np.linspace(0.0, float(span) if span else 1.0, int(n_windows) + 1)
    idx = np.minimum(
        np.searchsorted(edges, coords, side="right") - 1, int(n_windows) - 1
    )
    counts = np.bincount(idx, minlength=n_windows).astype(np.intp)
    hits = np.bincount(
        idx, weights=(kinds == AccessStats.KIND_HIT).astype(np.float64),
        minlength=n_windows,
    )
    t_sums = np.bincount(idx, weights=access, minlength=n_windows)
    with np.errstate(invalid="ignore"):
        denom = np.maximum(counts, 1)
        hit_rate = np.where(counts > 0, hits / denom, np.nan)
        mean_t = np.where(counts > 0, t_sums / denom, np.nan)
    return WindowedSeries(
        edges=edges, requests=counts, hit_rate=hit_rate, mean_access_time=mean_t
    )


def kl_divergence(p: np.ndarray, q: np.ndarray, *, eps: float = 1e-9):
    """``KL(p || q)`` in nats with epsilon smoothing on the estimate ``q``.

    The drift metrics' model-quality measure: how many nats the planner's
    model ``q`` loses against the generator's truth ``p``.  ``q`` is
    smoothed (and renormalised) so a model that zeroes out an item the
    truth still requests pays a large-but-finite penalty; ``p`` is used
    as-is (its zero entries contribute nothing).

    Row-wise on 2-D ``p`` and ``q`` (one distribution per row, an array
    of divergences back); a 1-D pair is the one-row case and returns a
    float.  Each row is summed over its own support only, so its value
    does not depend on the rows it is batched with.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")
    if p.ndim == 1:
        return float(kl_divergence(p[None], q[None], eps=eps)[0])
    if p.ndim != 2:
        raise ValueError(f"p and q must be 1-D or 2-D, got {p.ndim}-D")
    q_s = q + eps
    q_s /= q_s.sum(axis=1, keepdims=True)
    support = p > 0.0
    width = support.sum(axis=1)
    out = np.empty(p.shape[0])
    # Rows with equal support sizes are summed as one dense block.
    for m in np.unique(width):
        rows = np.flatnonzero(width == m)
        mask = support[rows]
        p_m = p[rows][mask].reshape(rows.size, m)
        # Normalise p over its own mass so sub-stochastic truths compare fairly.
        p_m = p_m / p_m.sum(axis=1, keepdims=True)
        q_m = q_s[rows][mask].reshape(rows.size, m)
        out[rows] = np.sum(p_m * np.log(p_m / q_m), axis=1)
    return out


@dataclass(frozen=True)
class Summary:
    """Mean with a normal-approximation confidence half-width."""

    mean: float
    std: float
    count: int

    @property
    def sem(self) -> float:
        return self.std / np.sqrt(self.count) if self.count else float("nan")

    @property
    def ci95(self) -> float:
        return 1.96 * self.sem


def summarise(values: np.ndarray) -> Summary:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return Summary(mean=float("nan"), std=float("nan"), count=0)
    return Summary(
        mean=float(values.mean()), std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
        count=int(values.size),
    )
