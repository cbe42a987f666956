"""The experiment execution engine: expand a spec, run its cells, in parallel.

:func:`run` is the single entry point for executing anything in the package.
It expands an :class:`~repro.experiments.spec.ExperimentSpec` into grid
cells, executes each cell with its derived common-random-numbers seed, and
returns an :class:`~repro.experiments.artifacts.ExperimentResult`.

Cells are embarrassingly parallel (each carries its own seed and shares no
state), so ``workers > 1`` fans them out over a
:class:`concurrent.futures.ProcessPoolExecutor`; the figure sweeps that were
serial loops in the old benchmark drivers now use all cores.  Execution
falls back to the in-process sequential path when a pool cannot be created
(restricted environments) — results are identical either way, because every
cell's randomness is fully determined by the spec.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

import repro
from repro.cache.base import Cache
from repro.distsys.fleet import FleetConfig
from repro.distsys.topology import TopologyConfig
from repro.experiments.artifacts import CellResult, ExperimentResult
from repro.experiments.registry import (
    CACHE_POLICIES,
    PIPELINES,
    PREDICTORS,
    STRATEGIES,
    WORKLOADS,
    CacheContext,
    build_server_cache,
)
from repro.experiments.spec import ExperimentSpec
from repro.workload.dynamics import DynamicsConfig, DynamicsInfo
from repro.workload.population import (
    LazyPopulation,
    Population,
    check_markov_population,
    check_zipf_mixture,
)

__all__ = [
    "FleetBuild",
    "build_config",
    "build_fleet",
    "cell_knobs",
    "check_population",
    "default_workers",
    "run",
    "run_cell",
    "run_cell_chunk",
]

#: Callback invoked after each finished cell: ``progress(done, total, cell_result)``.
ProgressCallback = Callable[[int, int, CellResult], None]


def default_workers() -> int:
    """All usable cores (the engine's share-nothing cells scale linearly)."""
    from repro.util.pool import available_workers

    return available_workers()


# ---------------------------------------------------------------------------
# Per-kind cell runners.  Each returns the full metric dict for one cell;
# all randomness must come from the passed seed so results are independent
# of execution order and process placement.
# ---------------------------------------------------------------------------

def _markov_source(workload: Mapping):
    return WORKLOADS.create(
        "markov",
        int(workload["states"]),
        out_degree=(int(workload["out_min"]), int(workload["out_max"])),
        v_range=(float(workload.get("v_min", 1.0)), float(workload.get("v_max", 100.0))),
        r_range=(float(workload.get("r_min", 1.0)), float(workload.get("r_max", 30.0))),
        seed=int(workload["source_seed"]),
    )


def _run_prefetch_only(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    from repro.simulation.prefetch_only import PrefetchOnlyConfig, run_prefetch_only
    from repro.workload.scenario import ScenarioBatch, sample_requests

    wl = spec.cell_workload(cell)
    iters = int(spec.iterations)
    n = int(wl["n"])
    rng = np.random.default_rng(seed)
    p = WORKLOADS.create(wl["source"], iters, n, rng, exponent=float(wl["exponent"]))
    r = rng.uniform(float(wl["r_min"]), float(wl["r_max"]), size=(iters, n))
    v = rng.uniform(float(wl["v_min"]), float(wl["v_max"]), size=iters)
    batch = ScenarioBatch(
        probabilities=p,
        retrieval_times=r,
        viewing_times=v,
        requests=sample_requests(p, rng),
    )
    policy = STRATEGIES.create(str(cell["policy"]))
    config = PrefetchOnlyConfig(
        n=n,
        iterations=iters,
        method=str(wl["source"]),
        r_range=(float(wl["r_min"]), float(wl["r_max"])),
        v_range=(float(wl["v_min"]), float(wl["v_max"])),
        seed=None,
    )
    result = run_prefetch_only(config, [policy], scenarios=batch)
    series = result.series[0]
    kinds = series.hit_kinds
    return {
        "mean_access_time": series.mean(),
        "frac_kernel_hit": kinds.get("kernel-hit", 0) / iters,
        "frac_tail_wait": kinds.get("tail-wait", 0) / iters,
        "frac_miss": kinds.get("miss", 0) / iters,
    }


def _run_prefetch_cache(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    from repro.simulation.prefetch_cache import PrefetchCacheConfig, run_prefetch_cache

    wl = spec.cell_workload(cell)
    pipeline = dict(PIPELINES.get(str(cell["policy"])))
    config = PrefetchCacheConfig(
        cache_size=int(cell["cache_size"]),
        n_requests=int(spec.iterations),
        strategy=str(pipeline["strategy"]),
        sub_arbitration=pipeline["sub_arbitration"],
        skp_variant=str(wl["skp_variant"]),
        planning_window=str(wl["planning_window"]),
        seed=seed,
    )
    res = run_prefetch_cache(_markov_source(wl), config)
    precision = res.prefetch_precision
    return {
        "mean_access_time": res.mean_access_time,
        "hit_rate": res.hit_rate,
        # A pipeline that never prefetches has undefined precision; report 0
        # rather than NaN so metric tables stay comparable and CSV-clean.
        "prefetch_precision": 0.0 if precision != precision else precision,
    }


def _run_cache_trace(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    from repro.workload.zipf import zipf_probabilities

    wl = spec.cell_workload(cell)
    rng = np.random.default_rng(seed)
    iters = int(spec.iterations)
    if wl["source"] == "zipf":
        n = int(wl["n"])
        p = zipf_probabilities(n, float(wl["exponent"]))
        r = rng.uniform(float(wl["r_min"]), float(wl["r_max"]), size=n)
        stream = rng.choice(n, size=iters, p=p)
    else:  # markov
        source = _markov_source(dict(wl, states=wl.get("n", 100)))
        p = source.stationary_distribution()
        r = source.retrieval_times
        stream = np.fromiter(source.walk(iters, rng), dtype=np.intp, count=iters)
    context = CacheContext(retrieval_times=r, probabilities=p, seed=seed % (2**32))
    cache = CACHE_POLICIES.create(str(cell["policy"]), int(cell["cache_size"]), context)
    for item in stream:
        if not cache.access(int(item)):
            cache.insert(int(item))
    return {
        "hit_rate": cache.stats.hit_rate,
        "evictions": float(cache.stats.evictions),
    }


def _run_predictor_eval(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    from repro.prediction.evaluation import evaluate_predictor

    wl = spec.cell_workload(cell)
    source = _markov_source(wl)
    rng = np.random.default_rng(seed)
    stream = source.walk(int(spec.iterations), rng)
    warmup = int(cell.get("warmup", wl["warmup"]))
    predictor = PREDICTORS.create(str(cell["predictor"]), source.n)
    score = evaluate_predictor(predictor, stream, warmup=warmup)
    return {
        "top1_hit_rate": score.top1_hit_rate,
        "top5_hit_rate": score.top5_hit_rate,
        "mean_assigned_probability": score.mean_assigned_probability,
        "mean_log_loss": score.mean_log_loss,
    }


# ---------------------------------------------------------------------------
# The fleet-like kinds (fleet, topology, drift, tournament): one builder
# ---------------------------------------------------------------------------

def cell_knobs(spec: ExperimentSpec, cell: Mapping) -> dict:
    """Every knob of a fleet-like cell: the spec's workload, then the cell's axes.

    The mapping :func:`build_config` and :func:`build_fleet` read.  The
    tournament's ``scenario`` axis is the dynamics kind and its
    ``predictor`` axis the clients' online model.
    """
    wl = {**spec.effective_workload(), **cell}
    if spec.kind == "tournament":
        wl["drift"] = wl.pop("scenario")
        wl["online_predictor"] = wl.pop("predictor")
    return wl


def build_config(wl: Mapping):
    """The :class:`~repro.distsys.fleet.FleetConfig` a resolved workload
    describes, wrapped in a :class:`~repro.distsys.topology.TopologyConfig`
    when the mapping names a ``topology``.

    Building it is the validation of every service knob: the configs reject
    bad values with :class:`ValueError` (spec validation re-raises them as
    :class:`~repro.experiments.spec.SpecError`), and the component names
    the run will resolve — pipeline, server and proxy cache policies,
    predictors — are looked up here, so a typo fails before any
    population is drawn.  ``concurrency`` and ``edge_delivery_concurrency``
    0 mean unbounded.
    """
    pipeline = dict(PIPELINES.get(str(wl["policy"])))
    CACHE_POLICIES.get(str(wl["server_cache"]))
    PREDICTORS.get(str(wl["online_predictor"]))
    concurrency = int(wl["concurrency"])
    fleet = FleetConfig(
        cache_capacity=int(wl["cache_capacity"]),
        strategy=str(pipeline["strategy"]),
        sub_arbitration=pipeline["sub_arbitration"],
        skp_variant=str(wl["skp_variant"]),
        planning_window=str(wl["planning_window"]),
        concurrency=None if concurrency == 0 else concurrency,
        discipline=str(wl["discipline"]),
        latency=float(wl["latency"]),
        bandwidth=float(wl["bandwidth"]),
        miss_penalty=float(wl["miss_penalty"]),
        model_source=str(wl["model_source"]),
        online_predictor=str(wl["online_predictor"]),
        # The drift and tournament kinds have no engine knob: their
        # windowed and pre/post-shift metrics need the event timeline.
        engine=str(wl.get("engine", "event")),
        hybrid_sample=int(wl.get("hybrid_sample", FleetConfig.hybrid_sample)),
    )
    if fleet.engine == "cohort" and int(wl["server_cache_size"]) > 0:
        raise ValueError(
            "the cohort engine runs every client independently; a shared "
            "server cache couples them — set server_cache_size to 0, or use "
            "the event engine or the hybrid engine's analytic closure"
        )
    if "topology" not in wl:
        return fleet
    for name in ("edge_cache", "mid_cache"):
        CACHE_POLICIES.get(str(wl[name]))
    PREDICTORS.get(str(wl["edge_predictor"]))
    edge_delivery = int(wl["edge_delivery_concurrency"])
    return TopologyConfig(
        topology=str(wl["topology"]),
        n_edges=int(wl["n_edges"]),
        fleet=fleet,
        placement=str(wl["placement"]),
        edge_cache=str(wl["edge_cache"]),
        edge_cache_size=int(wl["edge_cache_size"]),
        edge_predictor=str(wl["edge_predictor"]),
        edge_strategy=str(wl["edge_strategy"]),
        edge_prefetch_budget=int(wl["edge_prefetch_budget"]),
        edge_prefetch_window=float(wl["edge_prefetch_window"]),
        edge_delivery_concurrency=None if edge_delivery == 0 else edge_delivery,
        edge_uplink_streams=int(wl["edge_uplink_streams"]),
        edge_latency=float(wl["edge_latency"]),
        edge_bandwidth=float(wl["edge_bandwidth"]),
        mid_cache=str(wl["mid_cache"]),
        mid_cache_size=int(wl["mid_cache_size"]),
        mid_uplink_streams=int(wl["mid_uplink_streams"]),
        mid_latency=float(wl["mid_latency"]),
        mid_bandwidth=float(wl["mid_bandwidth"]),
    )


def _dynamics(wl: Mapping) -> DynamicsConfig:
    """The :class:`~repro.workload.dynamics.DynamicsConfig` a resolved
    workload describes; building it checks every dynamics knob."""
    return DynamicsConfig(
        kind=str(wl["drift"]),
        n_regimes=int(wl["drift_regimes"]),
        switch_every=int(wl["drift_switch_every"]),
        drift_to=float(wl["drift_to"]),
        flash_start=float(wl["flash_start"]),
        flash_duration=float(wl["flash_duration"]),
        flash_items=int(wl["flash_items"]),
        flash_boost=float(wl["flash_boost"]),
        diurnal_amplitude=float(wl["diurnal_amplitude"]),
        diurnal_period=float(wl["diurnal_period"]),
    )


def _zipf_knobs(wl: Mapping) -> dict:
    """The Zipf-mixture knobs of a resolved ``zipf-mix`` workload."""
    return dict(
        exponent_range=(float(wl["exponent_min"]), float(wl["exponent_max"])),
        overlap=float(wl["overlap"]),
        top_k=int(wl["top_k"]),
        # The drift and tournament kinds predate the quantisation knob;
        # .get keeps it optional there.
        v_quantum=float(wl.get("v_quantum", 0.0)),
    )


def _ranges(wl: Mapping) -> dict:
    """The viewing-time and item-size ranges of a resolved workload."""
    return dict(
        v_range=(float(wl["v_min"]), float(wl["v_max"])),
        size_range=(float(wl["size_min"]), float(wl["size_max"])),
    )


def _out_degree(wl: Mapping) -> tuple[int, int]:
    """The out-degree range of a resolved ``markov-pop`` workload."""
    return int(wl["out_min"]), int(wl["out_max"])


def check_population(wl: Mapping, requests: int) -> None:
    """Reject a resolved workload's population or dynamics knob, drawing nothing.

    Builds the :class:`~repro.workload.dynamics.DynamicsConfig` and runs
    the checks the population builders run
    (:func:`~repro.workload.population.check_zipf_mixture`,
    :func:`~repro.workload.population.check_markov_population`), raising
    their :class:`ValueError`; spec validation re-raises it as
    :class:`~repro.experiments.spec.SpecError`.
    """
    _dynamics(wl)
    shape = (int(wl["n_clients"]), int(wl["n"]), requests)
    if wl["source"] == "zipf-mix":
        check_zipf_mixture(
            *shape, stagger=float(wl["stagger"]), **_zipf_knobs(wl), **_ranges(wl)
        )
    else:
        check_markov_population(
            *shape, stagger=float(wl["stagger"]), out_degree=_out_degree(wl), **_ranges(wl)
        )


def _build_dynamic_population(
    wl: Mapping, n_clients: int, requests: int, seed: int, client_ids=None
):
    """The population a resolved workload describes, with its moving truth.

    Returns a :class:`~repro.workload.dynamics.DynamicPopulation`.  With
    ``drift == "none"`` the builders delegate verbatim to the static
    population constructors, so the zero-drift populations — and hence the
    fleet/topology tables — are bit-identical to the pre-dynamics ones.
    ``client_ids`` materialises only the named members of the fleet.
    """
    common = dict(
        **_ranges(wl),
        stagger=float(wl["stagger"]),
        seed=seed,
        dynamics=_dynamics(wl),
        client_ids=client_ids,
    )
    if wl["source"] == "zipf-mix":
        return WORKLOADS.create(
            "zipf-mix:dynamic", n_clients, int(wl["n"]), requests, **_zipf_knobs(wl), **common
        )
    return WORKLOADS.create(  # markov-pop
        "markov-pop:dynamic",
        n_clients,
        int(wl["n"]),
        requests,
        out_degree=_out_degree(wl),
        **common,
    )


@dataclass(frozen=True)
class FleetBuild:
    """What one fleet-like run is built from.

    ``population`` is built, or for the hybrid engine a
    :class:`~repro.workload.population.LazyPopulation` that builds only the
    sampled members; ``dynamics`` is its moving ground truth (None when
    lazy).  ``server_cache`` is None when the workload has none.
    """

    population: Population | LazyPopulation
    config: FleetConfig | TopologyConfig
    server_cache: Cache | None
    dynamics: DynamicsInfo | None


def build_fleet(wl: Mapping, requests: int, seed: int) -> FleetBuild:
    """Build the system a resolved fleet-like workload describes.

    The one construction path of the fleet, topology, drift and tournament
    kinds and of ``repro fleet`` / ``repro topology``: ``wl`` holds every
    knob (see :func:`cell_knobs`), ``requests`` is the per-client request
    count and ``seed`` seeds the population and the server cache.
    """
    config = build_config(wl)
    fleet = config.fleet if isinstance(config, TopologyConfig) else config
    n_clients = int(wl["n_clients"])
    if fleet.engine == "hybrid":
        # Never materialise the fleet: the hybrid engine builds only the
        # K sampled members, so a 10^6-client run costs the sample.
        population = LazyPopulation(
            n_clients,
            lambda ids: _build_dynamic_population(
                wl, n_clients, requests, seed, client_ids=ids
            ).population,
        )
        dynamics = None
    else:
        built = _build_dynamic_population(wl, n_clients, requests, seed)
        population, dynamics = built.population, built.info
    server_cache = build_server_cache(
        str(wl["server_cache"]),
        int(wl["server_cache_size"]),
        population.sizes,
        latency=float(wl["latency"]),
        bandwidth=float(wl["bandwidth"]),
        seed=seed,
    )
    return FleetBuild(population, config, server_cache, dynamics)


def _run_fleet(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    from repro.distsys.fleet import run_fleet

    build = build_fleet(cell_knobs(spec, cell), int(spec.iterations), seed)
    res = run_fleet(build.population, build.config, server_cache=build.server_cache)
    return {
        "mean_access_time": res.aggregate.mean_access_time,
        "p95_access_time": res.aggregate.p95_access_time,
        "hit_rate": res.aggregate.hit_rate,
        "server_utilization": _nan_to_zero(res.server_utilization),
        "prefetch_load_frac": res.prefetch_load_frac,
        "server_cache_hit_rate": _nan_to_zero(res.server_cache_hit_rate),
        "fairness": res.aggregate.fairness,
    }


def _nan_to_zero(value: float) -> float:
    """Undefined metrics (no cache, unbounded uplink, pass-through tier)
    report 0 rather than NaN so metric tables stay comparable and CSV-clean."""
    return 0.0 if value != value else value


def _run_topology(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    from repro.analysis.cacheperf import che_edge_reference
    from repro.distsys.fleet import run_fleet
    from repro.distsys.topology import CacheNetwork

    build = build_fleet(cell_knobs(spec, cell), int(spec.iterations), seed)
    config = build.config
    if config.fleet.engine != "event":
        # Only the star runs on the cohort/hybrid engines: its single proxy
        # relays every request verbatim to the origin, so the flat fleet of
        # the client tier is the same system.  Its pass-through edge
        # caches nothing, so the edge metrics report 0.
        res = run_fleet(
            build.population, config.client_fleet(), server_cache=build.server_cache
        )
        edge_hit_rate = che_edge_hit_rate = mid_hit_rate = 0.0
        utilization = res.server_utilization
    else:
        res = CacheNetwork(
            build.population, config, server_cache=build.server_cache, seed=seed
        ).run()
        mid = next((t for t in res.tiers if t.tier == "mid"), None)
        edge_hit_rate = res.edge_hit_rate
        che_edge_hit_rate = che_edge_reference(build.population, res)
        mid_hit_rate = mid.hit_rate if mid is not None else 0.0
        utilization = res.origin_utilization
    return {
        "mean_access_time": res.aggregate.mean_access_time,
        "p95_access_time": res.aggregate.p95_access_time,
        "hit_rate": res.aggregate.hit_rate,
        "edge_hit_rate": _nan_to_zero(edge_hit_rate),
        "che_edge_hit_rate": che_edge_hit_rate,
        "mid_hit_rate": _nan_to_zero(mid_hit_rate),
        "origin_utilization": _nan_to_zero(utilization),
        "prefetch_load_frac": res.prefetch_load_frac,
        "fairness": res.aggregate.fairness,
    }


# ---------------------------------------------------------------------------
# The drift kind: one simulation, reported window-by-window
# ---------------------------------------------------------------------------

#: Cross-window memo for the drift kind: the simulation is a pure function
#: of (spec, cell minus window, seed), so the window axis re-reads one run
#: instead of re-running it.  Bounded; worker processes each hold their own.
_DRIFT_MEMO: dict = {}
_DRIFT_MEMO_LIMIT = 32


#: Kept rows per batched KL call: scoring holds at most this many catalog
#: rows of model and of truth, however many clients and requests a cell has.
_SCORE_BATCH = 512


class _ModelScore:
    """Score a fleet's planning model against the moving truth, in the run.

    Wraps the provider each client plans from.  Request ``k`` is scored
    before the model observes it, against the row the planner read for the
    viewing period that request ends: the plan after request ``k - 1`` (the
    warm start's plan for ``k = 0``), which is the first row the client
    reads once ``k`` requests are served.  A demand victim's row, read while
    request ``k`` is served and before its item is observed, is not scored,
    nor is the plan after the last request.  ``kl`` holds KL(truth ‖ row)
    and ``prob`` the probability the row gave the item that arrived, per
    request pooled over clients, shape ``(n_clients, requests)``.  Kept rows
    are copied into fixed buffers and scored :data:`_SCORE_BATCH` at a time.
    """

    def __init__(self, info: DynamicsInfo, clients) -> None:
        self.info = info
        self.kl = np.empty((len(clients), info.requests))
        self.prob = np.empty((len(clients), info.requests))
        self._rows = np.empty((_SCORE_BATCH, info.n_items))
        self._truth = np.empty((_SCORE_BATCH, info.n_items))
        self._at: list[tuple[int, int]] = []  # (client, request) of each kept row
        self._item: list[int] = []  # the item that request asked for
        for cid, client in enumerate(clients):
            client.state.provider = self._scored(cid, client)

    def _scored(self, cid: int, client):
        row_of = client.state.provider
        served = client.stats.access_times
        items = [int(i) for i in client.workload.trace.items]
        keep = self._keep
        kept = 0

        def provider(item: int) -> np.ndarray:
            nonlocal kept
            row = row_of(item)
            k = len(served)
            if k == kept and k < len(items):
                kept = k + 1
                keep(cid, k, item, items[k], row)
            return row

        return provider

    def _keep(self, cid: int, k: int, prev: int, item: int, row: np.ndarray) -> None:
        n = len(self._item)
        self._rows[n] = row
        self._truth[n] = self.info.true_row(cid, k, prev_item=prev)
        self._at.append((cid, k))
        self._item.append(item)
        if n + 1 == _SCORE_BATCH:
            self.flush()

    def flush(self) -> None:
        """Score every kept row."""
        from repro.simulation.metrics import kl_divergence

        n = len(self._item)
        if n:
            rows = self._rows[:n]
            at = tuple(np.array(self._at).T)
            self.kl[at] = kl_divergence(self._truth[:n], rows)
            self.prob[at] = rows[np.arange(n), self._item]
            self._at.clear()
            self._item.clear()


def _scored_fleet(spec: ExperimentSpec, cell: Mapping, seed: int):
    """Run a drift or tournament cell's event fleet and score its model.

    Returns the fleet result, the drift events its clients' models
    counted, the per-request KL and assigned probability of
    :class:`_ModelScore`, and the population's moving truth.
    """
    from repro.distsys.fleet import Fleet

    build = build_fleet(cell_knobs(spec, cell), int(spec.iterations), seed)
    fleet = Fleet(build.population, build.config, server_cache=build.server_cache)
    score = _ModelScore(build.dynamics, fleet.clients)
    res = fleet.run()
    score.flush()
    drift_events = sum(
        getattr(c.state.model, "drift_events", 0) for c in fleet.clients
    )
    return res, float(drift_events), score.kl, score.prob, build.dynamics


def _drift_simulation(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    """Run (or recall) the drift cell's simulation and window its output."""
    from repro.simulation.metrics import windowed_access_series

    key = (
        spec.spec_hash(),
        seed,
        tuple(sorted((k, v) for k, v in cell.items() if k != "window")),
    )
    cached = _DRIFT_MEMO.get(key)
    if cached is not None:
        return cached

    n_windows = int(spec.cell_param(cell, "n_windows"))
    res, drift_events, kl, prob, _ = _scored_fleet(spec, cell, seed)
    series = windowed_access_series(res.client_stats, n_windows, by="index")
    edges = np.linspace(0, int(spec.iterations), n_windows + 1)
    k_idx = np.arange(int(spec.iterations))
    w_of = np.minimum(
        np.searchsorted(edges, k_idx, side="right") - 1, n_windows - 1
    )
    model_kl = np.array([
        float(kl[:, w_of == w].mean()) if np.any(w_of == w) else float("nan")
        for w in range(n_windows)
    ])
    model_prob = np.array([
        float(prob[:, w_of == w].mean()) if np.any(w_of == w) else float("nan")
        for w in range(n_windows)
    ])
    summary = {
        "series": series,
        "model_kl": model_kl,
        "model_prob": model_prob,
        "overall_hit_rate": res.aggregate.hit_rate,
        "overall_mean_access_time": res.aggregate.mean_access_time,
        "drift_events": drift_events,
    }
    if len(_DRIFT_MEMO) >= _DRIFT_MEMO_LIMIT:
        _DRIFT_MEMO.clear()
    _DRIFT_MEMO[key] = summary
    return summary


def _run_drift(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    sim = _drift_simulation(spec, cell, seed)
    series = sim["series"]
    w = int(cell["window"])
    return {
        "window_start": float(series.edges[w]),
        "window_end": float(series.edges[w + 1]),
        "requests": float(series.requests[w]),
        "hit_rate": _nan_to_zero(float(series.hit_rate[w])),
        "mean_access_time": _nan_to_zero(float(series.mean_access_time[w])),
        "model_kl": _nan_to_zero(float(sim["model_kl"][w])),
        "model_prob": _nan_to_zero(float(sim["model_prob"][w])),
        "overall_hit_rate": sim["overall_hit_rate"],
        "overall_mean_access_time": sim["overall_mean_access_time"],
        "drift_events": sim["drift_events"],
    }


# ---------------------------------------------------------------------------
# The tournament kind: one fleet per (scenario, predictor, source), scored
# around the workload's shift point
# ---------------------------------------------------------------------------

#: Cross-cell memo for the tournament kind.  Oracle cells ignore the
#: predictor axis (planning reads the generator's truth), so their key drops
#: it and the oracle reference runs once per scenario, not once per
#: predictor.  Bounded; worker processes each hold their own.
_TOURNAMENT_MEMO: dict = {}
_TOURNAMENT_MEMO_LIMIT = 64


def _tournament_simulation(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    """Run (or recall) one tournament cell's fleet and score it pre/post-shift."""
    from repro.simulation.metrics import AccessStats

    model_source = str(spec.cell_param(cell, "model_source"))
    key_cell = dict(cell)
    if model_source == "oracle":
        key_cell.pop("predictor", None)
    key = (spec.spec_hash(), seed, tuple(sorted(key_cell.items())))
    cached = _TOURNAMENT_MEMO.get(key)
    if cached is not None:
        return cached

    requests = int(spec.iterations)
    res, drift_events, kl, prob, info = _scored_fleet(spec, cell, seed)
    # Score around the first ground-truth shift; scenarios without one
    # (none / zipf-drift / diurnal) split at the midpoint so pre/post stay
    # comparable columns across the whole scoreboard.
    shift = int(info.shift_points[0]) if info.shift_points else requests // 2
    shift = min(max(shift, 1), requests - 1)
    kinds = np.stack(
        [np.asarray(s.serve_kinds, dtype=np.intp) for s in res.client_stats]
    )
    hits = kinds == AccessStats.KIND_HIT
    summary = {
        "shift_point": float(shift),
        "pre_hit_rate": float(hits[:, :shift].mean()),
        "post_hit_rate": float(hits[:, shift:].mean()),
        "overall_hit_rate": res.aggregate.hit_rate,
        "overall_mean_access_time": res.aggregate.mean_access_time,
        "model_kl_pre": float(kl[:, :shift].mean()),
        "model_kl_post": float(kl[:, shift:].mean()),
        "model_prob_pre": float(prob[:, :shift].mean()),
        "model_prob_post": float(prob[:, shift:].mean()),
        "drift_events": drift_events,
    }
    if len(_TOURNAMENT_MEMO) >= _TOURNAMENT_MEMO_LIMIT:
        _TOURNAMENT_MEMO.clear()
    _TOURNAMENT_MEMO[key] = summary
    return summary


def _run_tournament(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    return dict(_tournament_simulation(spec, cell, seed))


def _run_optimize(spec: ExperimentSpec, cell: Mapping, seed: int) -> dict:
    """One search driver over the cell's placement problem.

    The outer cell seed is deliberately unused: every candidate evaluation
    derives its own CRN seed from ``problem.seed`` (== ``spec.seed``)
    inside the search, so all drivers — on any worker — search the same
    landscape and the trail is reproducible anywhere.
    """
    del seed
    from repro.optimize import optimize, problem_from_spec

    result = optimize(problem_from_spec(spec), driver=str(cell["driver"]))
    return {
        "best_mean_t": float(result.best.confirmed),
        "baseline_mean_t": float(result.baseline.confirmed),
        "improvement_frac": float(result.improvement_frac),
        "analytic_best": float(result.best.analytic),
        "analytic_gap_frac": float(result.analytic_gap_frac),
        "best_cost": float(result.best.cost),
        "analytic_evals": float(result.analytic_evals),
        "confirm_evals": float(result.confirmed_evals),
        "trail_length": float(len(result.trail)),
    }


_KIND_RUNNERS = {
    "prefetch-only": _run_prefetch_only,
    "prefetch-cache": _run_prefetch_cache,
    "cache-trace": _run_cache_trace,
    "predictor-eval": _run_predictor_eval,
    "fleet": _run_fleet,
    "topology": _run_topology,
    "drift": _run_drift,
    "tournament": _run_tournament,
    "optimize": _run_optimize,
}


def run_cell(spec: ExperimentSpec, cell: Mapping) -> CellResult:
    """Execute one grid cell (module-level so it pickles into worker processes)."""
    seed = spec.cell_seed(cell)
    started = time.perf_counter()
    metrics = _KIND_RUNNERS[spec.kind](spec, cell, seed)
    selected = {name: metrics[name] for name in spec.metric_names()}
    return CellResult(
        params=dict(cell),
        metrics=selected,
        seed=seed,
        elapsed=time.perf_counter() - started,
    )


def run_cell_chunk(
    spec: ExperimentSpec, chunk: list[tuple[int, Mapping]]
) -> list[tuple[int, CellResult]]:
    """Execute a batch of ``(index, cell)`` pairs in one worker round-trip.

    Submitting chunks instead of single cells amortises the pickle/IPC cost
    of shipping the (read-only, shared) spec to the pool: one submission per
    chunk instead of one per cell.  Results are independent of the chunking
    because every cell's randomness derives from the spec alone.
    """
    return [(index, run_cell(spec, cell)) for index, cell in chunk]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def run(
    spec: ExperimentSpec,
    *,
    workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> ExperimentResult:
    """Execute every cell of ``spec`` and collect the results in grid order.

    Parameters
    ----------
    workers:
        ``None`` (default) uses :func:`default_workers` — one per available
        core; ``1`` runs sequentially in-process; any value is capped at the
        cell count.  Metric tables are identical for any worker count: each
        cell's randomness is derived from the spec alone.
    progress:
        Optional ``progress(done, total, cell_result)`` callback streamed as
        cells finish (completion order, not grid order).
    """
    spec.validate()
    cells = spec.cells()
    requested = default_workers() if workers is None else max(1, int(workers))
    effective = min(requested, len(cells))
    results: list[CellResult | None] = [None] * len(cells)

    # Serial fast path: with one worker (or one cell) no pool is ever
    # created — no executor spin-up, no pickling, no IPC.  The pool is
    # reserved for genuinely parallel runs.
    executed_parallel = False
    if effective > 1:
        executed_parallel = _run_pool(spec, cells, effective, results, progress)
    if not executed_parallel:
        for index, cell in enumerate(cells):
            results[index] = run_cell(spec, cell)
            if progress is not None:
                progress(index + 1, len(cells), results[index])

    provenance = {
        "spec_hash": spec.spec_hash(),
        "seed": int(spec.seed),
        "version": repro.__version__,
        "workers": effective if executed_parallel else 1,
        "cells": len(cells),
    }
    return ExperimentResult(spec=spec, cells=tuple(results), provenance=provenance)


def _run_pool(
    spec: ExperimentSpec,
    cells: list[dict],
    workers: int,
    results: list,
    progress: ProgressCallback | None,
) -> bool:
    """Fan cells out over a process pool; False if the pool was unavailable.

    Only pool *infrastructure* failures (cannot spawn workers, broken pool)
    trigger the sequential fallback; an exception raised by a cell runner
    propagates to the caller unchanged — falling back would just re-raise it
    after re-running the whole grid.
    """
    from repro.util.pool import create_pool

    pool = create_pool(workers)
    if pool is None:
        _reset_results(results)
        return False
    # Submit contiguous chunks, not single cells: ~4 chunks per worker keeps
    # the pool load-balanced while cutting submissions (and spec pickles)
    # from one per cell to one per chunk.
    n_chunks = min(len(cells), workers * 4)
    chunk_size = -(-len(cells) // n_chunks)  # ceil division
    chunks = [
        [(index, cells[index]) for index in range(lo, min(lo + chunk_size, len(cells)))]
        for lo in range(0, len(cells), chunk_size)
    ]
    try:
        with pool:
            futures = {pool.submit(run_cell_chunk, spec, chunk) for chunk in chunks}
            done_count = 0
            pending = futures
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    for index, cell_result in future.result():
                        results[index] = cell_result
                        done_count += 1
                        if progress is not None:
                            progress(done_count, len(cells), cell_result)
        return True
    except BrokenProcessPool as exc:
        # Worker processes died before/while running (e.g. sandboxes that
        # forbid spawning); sequential execution produces the same numbers.
        from repro.util.pool import warn_pool_unavailable

        warn_pool_unavailable(exc)
        _reset_results(results)
        return False


def _reset_results(results: list) -> None:
    for index in range(len(results)):
        results[index] = None
