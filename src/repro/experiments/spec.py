"""Declarative experiment specifications.

An :class:`ExperimentSpec` captures everything needed to reproduce an
experiment — the kind of simulation, the workload parameters, a grid of
component/parameter axes, the iteration count and the master seed — as plain
data.  Specs round-trip losslessly through JSON
(``spec == ExperimentSpec.from_json(spec.to_json())``), hash stably
(:meth:`ExperimentSpec.spec_hash` goes into result provenance), and expand
into a list of *cells* (one grid point each) that the engine executes.

The experiment kinds:

``prefetch-only``
    The §4.4 Monte-Carlo simulation behind Figures 4/5: i.i.d. one-shot
    scenarios, one ``policy`` axis naming :data:`~repro.experiments.registry.STRATEGIES`
    entries, plus optional workload axes (``source``, ``n``, ``r_max``,
    ``v_bin`` …).
``prefetch-cache``
    The §5.3 continuous Markov-source simulation behind Figure 7:
    ``policy`` axis naming :data:`~repro.experiments.registry.PIPELINES`
    entries and a ``cache_size`` axis.
``cache-trace``
    Replacement-policy trace replay: ``policy`` axis naming
    :data:`~repro.experiments.registry.CACHE_POLICIES` entries and a
    ``cache_size`` axis over a Zipf or Markov request stream.
``predictor-eval``
    Prequential predictor scoring on a Markov trace: ``predictor`` axis
    naming :data:`~repro.experiments.registry.PREDICTORS` entries.
``fleet``
    N clients sharing one contended server uplink
    (:mod:`repro.distsys.fleet`): ``policy`` axis naming
    :data:`~repro.experiments.registry.PIPELINES` entries, an ``n_clients``
    axis, population knobs (``overlap``, Zipf-mixture / Markov-population
    sources), and contention knobs (``concurrency``, ``discipline``,
    ``server_cache_size``).  ``iterations`` is requests *per client*.
``topology``
    The fleet routed through a cache hierarchy
    (:mod:`repro.distsys.topology`): a ``topology`` choice (``star`` —
    the fleet degenerate case — ``tree``, ``two-tier``), shared edge/mid
    proxy caches, a speculation ``placement`` axis (client / edge / both /
    none) and per-tier prefetch budgets, plus the analytical
    ``che_edge_hit_rate`` reference from
    :mod:`repro.analysis.cacheperf`.  ``iterations`` is requests *per
    client*.
``drift``
    Non-stationary fleet with windowed time-series output
    (:mod:`repro.workload.dynamics`): the same population/contention knobs
    as ``fleet`` plus a dynamics schedule (``drift`` = regime switching /
    Zipf-exponent drift / flash crowd / diurnal modulation), a
    ``model_source`` axis (``oracle`` plans from the t=0 truth, ``online``
    from a per-client adaptive predictor), and a ``window`` axis: each cell
    reports one request-index window's hit rate, mean access time and
    model quality (KL / assigned probability vs the generator's moving
    truth), so the result table IS the drift time series.  The simulation
    runs once per (non-window) parameter combination and is memoized
    across the window axis.
``tournament``
    Standing predictor bake-off (:mod:`repro.experiments.tournament`):
    every cell runs one ``predictor`` on one dynamics ``scenario``
    (``none`` / ``regime`` / ``zipf-drift`` / ``flash`` / ``diurnal``)
    under one ``model_source``, on the same CRN-shared streams (the cell
    seed depends on the scenario but not the predictor), and reports
    pre-/post-shift hit rates under the SKP planner plus prequential
    model quality (KL and assigned probability vs the generator's moving
    truth).  The simulation is memoized so the ``oracle`` reference runs
    once per scenario, not once per predictor.
``optimize``
    Cost-aware placement search (:mod:`repro.optimize`): the workload
    declares a :class:`~repro.optimize.problem.PlacementProblem` — a
    ``fleet``/``topology`` system, decision variables (per-tier cache
    capacities, prefetch budgets) and a cost budget — and each cell runs
    one search ``driver`` (greedy / coordinate / exhaustive) over it,
    reporting the confirmed winner, its improvement over the uniform
    baseline, and the analytic-vs-confirmed gap.  ``iterations`` is
    requests per client in every candidate evaluation.

The ``fleet`` and ``topology`` kinds accept the same ``drift_*`` workload
parameters and a ``model_source`` knob/axis, reporting whole-run scalars
(the ``drift`` kind is the windowed view of the same machinery).

Seeding contract (common random numbers): a cell's seed is derived from the
spec seed plus the cell's *workload-affecting* parameters only.  Cells that
differ only in ``policy``/``predictor``/``cache_size`` — or in a kind's
declared ``component_params`` (the fleet's contention knobs, which shape
service but not the draws) — therefore face identical draws, so metric
differences between them are component effects, not sampling noise — and
results are independent of worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from collections.abc import Mapping

from repro.experiments.registry import (
    CACHE_POLICIES,
    PIPELINES,
    PREDICTORS,
    STRATEGIES,
)

__all__ = ["ExperimentSpec", "SpecError", "KIND_INFO", "KindInfo"]


class SpecError(ValueError):
    """An experiment spec failed validation."""


#: Grid axes that select a component rather than shape the workload; they are
#: excluded from cell-seed derivation so all components see the same draws.
COMPONENT_AXES = ("policy", "predictor", "cache_size")

#: The kinds that run a fleet of clients, built by
#: :func:`repro.experiments.engine.build_fleet`.
FLEET_KINDS = ("fleet", "topology", "drift", "tournament")

#: Dynamics knobs shared by the fleet / topology / drift kinds.  They shape
#: the request draws, so (unlike contention knobs) they are *workload*
#: parameters: changing any of them changes the cell seed.
_DRIFT_WORKLOAD_DEFAULTS = {
    "drift": "none",
    "drift_regimes": 3,
    "drift_switch_every": 0,
    "drift_to": 1.5,
    "flash_start": 0.5,
    "flash_duration": 0.25,
    "flash_items": 5,
    "flash_boost": 0.6,
    "diurnal_amplitude": 0.5,
    "diurnal_period": 500.0,
}

#: Planning-model knobs: which machinery plans, not what is drawn — CRN-safe.
_MODEL_COMPONENT_DEFAULTS = {
    "model_source": "oracle",
    "online_predictor": "markov:ewma",
}

#: Population knobs of the fleet-like kinds: they shape the request draws.
_POPULATION_DEFAULTS = {
    "source": "zipf-mix",
    "n": 100,
    "exponent_min": 0.8,
    "exponent_max": 1.2,
    "overlap": 0.5,
    "top_k": 20,
    "out_min": 10,
    "out_max": 20,
    "v_min": 1.0,
    "v_max": 100.0,
    "size_min": 1.0,
    "size_max": 30.0,
    "stagger": 50.0,
}

#: Service knobs of the fleet-like kinds (FleetConfig semantics): the
#: client tier — cache, planning, link — then the origin — uplink and
#: server cache.  They select machinery, not draws.
_CLIENT_TIER_DEFAULTS = {
    "cache_capacity": 8,
    "planning_window": "nominal",
    "skp_variant": "corrected",
    "latency": 0.0,
    "bandwidth": 1.0,
}
_ORIGIN_DEFAULTS = {
    "concurrency": 4,  # 0 = unbounded
    "discipline": "fifo",
    "server_cache": "lru",
    "server_cache_size": 0,
    "miss_penalty": 0.0,
}
_SERVICE_DEFAULTS = {**_CLIENT_TIER_DEFAULTS, **_ORIGIN_DEFAULTS}

#: Engine knobs of the fleet and topology kinds.  The engine selects a
#: kernel over the same modeled fleet, and v_quantum rounds the same
#: viewing-time uniforms — machinery and deterministic post-processing, so
#: all three keep common random numbers across their own sweeps.
_ENGINE_DEFAULTS = {
    "engine": "event",
    "hybrid_sample": 64,
    "v_quantum": 0.0,
}

#: The topology kind's proxy tiers (TopologyConfig semantics).
_HIERARCHY_DEFAULTS = {
    "topology": "tree",
    "n_edges": 2,
    "placement": "both",
    "edge_cache": "lru",
    "edge_cache_size": 25,
    "edge_predictor": "markov",
    "edge_strategy": "skp",
    "edge_prefetch_budget": 4,
    "edge_prefetch_window": 30.0,
    "edge_delivery_concurrency": 0,  # 0 = unbounded
    "edge_uplink_streams": 4,
    "edge_latency": 0.0,
    "edge_bandwidth": 1.0,
    "mid_cache": "lru",
    "mid_cache_size": 0,
    "mid_uplink_streams": 4,
    "mid_latency": 0.0,
    "mid_bandwidth": 1.0,
}


@dataclass(frozen=True)
class KindInfo:
    """Schema of one experiment kind: defaults, axes, and metric names."""

    workload_defaults: dict
    axes: tuple[str, ...]
    required_axes: tuple[str, ...]
    component_registries: dict  # axis name -> Registry for name validation
    metrics: tuple[str, ...]
    sources: tuple[str, ...] = ()  # allowed values of the "source" param
    #: Parameters that select service machinery rather than shape the draws
    #: (e.g. the fleet's contention knobs); like :data:`COMPONENT_AXES` they
    #: are excluded from cell-seed derivation so sweeping them keeps common
    #: random numbers.
    component_params: tuple[str, ...] = ()


KIND_INFO: dict[str, KindInfo] = {
    "prefetch-only": KindInfo(
        workload_defaults={
            "source": "skewy",
            "n": 10,
            "r_min": 1.0,
            "r_max": 30.0,
            "v_min": 1.0,
            "v_max": 100.0,
            "exponent": 1.0,
        },
        axes=("policy", "source", "n", "r_min", "r_max", "v_min", "v_max", "v_bin", "exponent"),
        required_axes=("policy",),
        component_registries={"policy": STRATEGIES},
        metrics=(
            "mean_access_time",
            "frac_kernel_hit",
            "frac_tail_wait",
            "frac_miss",
        ),
        sources=("skewy", "flat", "zipf"),
    ),
    "prefetch-cache": KindInfo(
        workload_defaults={
            "states": 100,
            "out_min": 10,
            "out_max": 20,
            "v_min": 1.0,
            "v_max": 100.0,
            "r_min": 1.0,
            "r_max": 30.0,
            "source_seed": 42,
            "planning_window": "nominal",
            "skp_variant": "corrected",
        },
        axes=("policy", "cache_size"),
        required_axes=("policy", "cache_size"),
        component_registries={"policy": PIPELINES},
        metrics=("mean_access_time", "hit_rate", "prefetch_precision"),
    ),
    "cache-trace": KindInfo(
        workload_defaults={
            "source": "zipf",
            "n": 100,
            "exponent": 1.0,
            "r_min": 1.0,
            "r_max": 30.0,
            "out_min": 10,
            "out_max": 20,
            "source_seed": 42,
        },
        axes=("policy", "cache_size", "exponent", "n"),
        required_axes=("policy", "cache_size"),
        component_registries={"policy": CACHE_POLICIES},
        metrics=("hit_rate", "evictions"),
        sources=("zipf", "markov"),
    ),
    "predictor-eval": KindInfo(
        workload_defaults={
            "states": 100,
            "out_min": 10,
            "out_max": 20,
            "source_seed": 42,
            "warmup": 50,
        },
        axes=("predictor", "warmup"),
        required_axes=("predictor",),
        component_registries={"predictor": PREDICTORS},
        metrics=(
            "top1_hit_rate",
            "top5_hit_rate",
            "mean_assigned_probability",
            "mean_log_loss",
        ),
    ),
    "fleet": KindInfo(
        workload_defaults={
            **_POPULATION_DEFAULTS,
            **_SERVICE_DEFAULTS,
            **_ENGINE_DEFAULTS,
            **_DRIFT_WORKLOAD_DEFAULTS,
            **_MODEL_COMPONENT_DEFAULTS,
        },
        axes=(
            "policy",
            "n_clients",
            "overlap",
            "concurrency",
            "discipline",
            "server_cache_size",
            "model_source",
            "engine",
        ),
        required_axes=("policy", "n_clients"),
        component_registries={"policy": PIPELINES},
        metrics=(
            "mean_access_time",
            "p95_access_time",
            "hit_rate",
            "server_utilization",
            "prefetch_load_frac",
            "server_cache_hit_rate",
            "fairness",
        ),
        sources=("zipf-mix", "markov-pop"),
        # Everything that shapes service rather than the population draws:
        # sweeping any of these keeps common random numbers.  n_clients
        # qualifies because per-client streams are hashed from (seed,
        # client id) alone — a 100-client fleet extends a 1-client fleet
        # client-by-client, so the scale axis compares identical draws.
        # model_source/online_predictor select the planning model, never
        # the draws, so oracle and online face identical request streams.
        component_params=(
            "n_clients",
            *_SERVICE_DEFAULTS,
            *_MODEL_COMPONENT_DEFAULTS,
            *_ENGINE_DEFAULTS,
        ),
    ),
    "topology": KindInfo(
        workload_defaults={
            **_POPULATION_DEFAULTS,
            **_SERVICE_DEFAULTS,
            **_HIERARCHY_DEFAULTS,
            **_ENGINE_DEFAULTS,
            **_DRIFT_WORKLOAD_DEFAULTS,
            **_MODEL_COMPONENT_DEFAULTS,
        },
        axes=(
            "policy",
            "n_clients",
            "topology",
            "n_edges",
            "placement",
            "edge_cache_size",
            "overlap",
            "concurrency",
            "discipline",
            "model_source",
            "engine",
        ),
        required_axes=("policy", "n_clients"),
        component_registries={"policy": PIPELINES},
        metrics=(
            "mean_access_time",
            "p95_access_time",
            "hit_rate",
            "edge_hit_rate",
            "che_edge_hit_rate",
            "mid_hit_rate",
            "origin_utilization",
            "prefetch_load_frac",
            "fairness",
        ),
        sources=("zipf-mix", "markov-pop"),
        # Hierarchy shape and every per-tier service knob select machinery,
        # not draws: sweeping topology/placement/cache sizes keeps common
        # random numbers, so differences are placement effects.
        component_params=(
            "n_clients",
            *_CLIENT_TIER_DEFAULTS,
            *_HIERARCHY_DEFAULTS,
            *_ORIGIN_DEFAULTS,
            *_MODEL_COMPONENT_DEFAULTS,
            *_ENGINE_DEFAULTS,
        ),
    ),
    "drift": KindInfo(
        workload_defaults={
            **_POPULATION_DEFAULTS,
            "n_clients": 8,
            **_SERVICE_DEFAULTS,
            # dynamics + model + windowing
            **dict(_DRIFT_WORKLOAD_DEFAULTS, drift="regime"),
            **dict(_MODEL_COMPONENT_DEFAULTS, online_predictor="frequency:ewma"),
            "n_windows": 8,
        },
        axes=("policy", "model_source", "window", "n_clients", "online_predictor"),
        required_axes=("policy", "model_source", "window"),
        component_registries={"policy": PIPELINES},
        metrics=(
            "window_start",
            "window_end",
            "requests",
            "hit_rate",
            "mean_access_time",
            "model_kl",
            "model_prob",
            "overall_hit_rate",
            "overall_mean_access_time",
            "drift_events",
        ),
        sources=("zipf-mix", "markov-pop"),
        # The window axis selects which slice of one simulation is
        # *reported*; the engine memoizes the run across it.  model_source
        # and the predictor choose planning machinery.  All are CRN-safe.
        component_params=(
            "n_clients",
            *_SERVICE_DEFAULTS,
            *_MODEL_COMPONENT_DEFAULTS,
            "window",
            "n_windows",
        ),
    ),
    "tournament": KindInfo(
        workload_defaults={
            **_POPULATION_DEFAULTS,
            "n_clients": 8,
            # The pipeline is a knob, not an axis — the tournament compares
            # predictors, not planners.
            "policy": "skp+pr",
            **_SERVICE_DEFAULTS,
            # dynamics knobs: the scenario *axis* selects the dynamics
            # kind (no "drift" workload key — one way to say it), these
            # shape the selected schedule.
            **{k: v for k, v in _DRIFT_WORKLOAD_DEFAULTS.items() if k != "drift"},
            "model_source": "online",
        },
        axes=("scenario", "predictor", "model_source", "n_clients"),
        required_axes=("scenario", "predictor"),
        component_registries={"predictor": PREDICTORS},
        metrics=(
            "shift_point",
            "pre_hit_rate",
            "post_hit_rate",
            "overall_hit_rate",
            "overall_mean_access_time",
            "model_kl_pre",
            "model_kl_post",
            "model_prob_pre",
            "model_prob_post",
            "drift_events",
        ),
        sources=("zipf-mix", "markov-pop"),
        # The predictor is a component axis (global COMPONENT_AXES) and
        # model_source selects planning machinery; the scenario is the one
        # workload-affecting axis, so all predictors × sources face
        # identical draws within a scenario.
        component_params=(
            "n_clients",
            "policy",
            *_SERVICE_DEFAULTS,
            "model_source",
        ),
    ),
    "optimize": KindInfo(
        workload_defaults={
            "system_kind": "fleet",
            "system": {},
            "policy": "skp+pr",
            "n_clients": 8,
            "variables": (),
            "budget": 0.0,
            "sample": 16,
            "confirm_top": 3,
            "confirm_engine": "event",
            "restarts": 2,
            "max_steps": 200,
        },
        axes=("driver",),
        required_axes=("driver",),
        component_registries={},
        metrics=(
            "best_mean_t",
            "baseline_mean_t",
            "improvement_frac",
            "analytic_best",
            "analytic_gap_frac",
            "best_cost",
            "analytic_evals",
            "confirm_evals",
            "trail_length",
        ),
        # The driver picks a search strategy and the remaining knobs tune
        # search machinery; none shape any draw.  Candidate-level CRN is
        # enforced one level down: PlacementProblem only admits decision
        # variables that are component_params of the underlying kind.
        component_params=(
            "driver",
            "sample",
            "confirm_top",
            "confirm_engine",
            "restarts",
            "max_steps",
        ),
    ),
}


def _freeze(value):
    """Normalise nested JSON-ish data: sequences become tuples.

    Applied on construction so a spec built in Python (tuples) and one
    loaded from JSON (lists) compare equal.
    """
    if isinstance(value, Mapping):
        return {str(k): _freeze(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Inverse of :func:`_freeze` for JSON export: tuples become lists."""
    if isinstance(value, Mapping):
        return {k: _thaw(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: workload × component grid × iterations × seed.

    ``grid`` maps axis names to the values to sweep; the cells are the
    cartesian product of the axes in the order given.  ``metrics`` selects a
    subset of the kind's metric set for the result table (empty = all).
    """

    name: str
    kind: str
    workload: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    iterations: int = 1000
    seed: int = 0
    metrics: tuple = ()
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", _freeze(self.workload))
        grid = {
            str(axis): _freeze(values) for axis, values in dict(self.grid).items()
        }
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "metrics", tuple(str(m) for m in self.metrics))
        self.validate()

    # -- validation --------------------------------------------------------
    @property
    def info(self) -> KindInfo:
        return KIND_INFO[self.kind]

    def validate(self) -> None:
        """Check the spec against the kind schema and the registries."""
        if self.kind not in KIND_INFO:
            raise SpecError(
                f"unknown experiment kind {self.kind!r}; one of {sorted(KIND_INFO)}"
            )
        info = self.info
        if not self.name:
            raise SpecError("spec needs a non-empty name")
        if int(self.iterations) < 1:
            raise SpecError(f"iterations must be positive, got {self.iterations}")
        for key in self.workload:
            if key not in info.workload_defaults:
                raise SpecError(
                    f"unknown workload parameter {key!r} for kind {self.kind!r}; "
                    f"known: {sorted(info.workload_defaults)}"
                )
        for axis, values in self.grid.items():
            if axis not in info.axes:
                raise SpecError(
                    f"unknown grid axis {axis!r} for kind {self.kind!r}; "
                    f"known: {list(info.axes)}"
                )
            if not isinstance(values, tuple) or not values:
                raise SpecError(f"grid axis {axis!r} needs a non-empty sequence of values")
        for axis in info.required_axes:
            if axis not in self.grid:
                raise SpecError(f"kind {self.kind!r} requires a {axis!r} grid axis")
        for axis, registry in info.component_registries.items():
            for value in self.grid.get(axis, ()):
                registry.get(str(value))  # raises UnknownComponentError
        if info.sources:
            default_source = self.effective_workload().get("source")
            for source in self.grid.get("source", (default_source,)):
                if source not in info.sources:
                    raise SpecError(
                        f"kind {self.kind!r} supports sources {list(info.sources)}, "
                        f"got {source!r}"
                    )
        if self.kind in FLEET_KINDS:
            self._validate_fleet_like()
        if self.kind == "optimize":
            from repro.optimize import DRIVERS, OptimizeError, problem_from_spec

            for value in self.grid.get("driver", ()):
                if value not in DRIVERS:
                    raise SpecError(
                        f"driver must be one of {list(DRIVERS)}, got {value!r}"
                    )
            try:
                problem_from_spec(self)
            except OptimizeError as exc:
                raise SpecError(f"invalid placement problem: {exc}") from exc
        for value in self.grid.get("v_bin", ()):
            if (
                not isinstance(value, tuple)
                or len(value) != 2
                or not all(isinstance(x, (int, float)) for x in value)
                or not value[0] <= value[1]
            ):
                raise SpecError(
                    f"v_bin values must be (lo, hi) pairs with lo <= hi, got {value!r}"
                )
        for metric in self.metrics:
            if metric not in info.metrics:
                raise SpecError(
                    f"unknown metric {metric!r} for kind {self.kind!r}; "
                    f"known: {list(info.metrics)}"
                )

    def _validate_fleet_like(self) -> None:
        """The spec-only rules of the fleet-like kinds, then every cell's configs.

        Building a cell's configs (:func:`repro.experiments.engine.build_config`)
        checks every service knob and component name, and
        :func:`repro.experiments.engine.check_population` every population
        and dynamics knob, before any population is drawn; a rejected value
        is re-raised as :class:`SpecError`.
        """
        from repro.experiments.engine import build_config, cell_knobs, check_population
        from repro.workload.dynamics import DYNAMICS_KINDS, MARKOV_DYNAMICS_KINDS

        wl = self.effective_workload()
        if float(wl.get("v_quantum", 0.0)) < 0:
            raise SpecError("v_quantum must be non-negative")
        # The tournament's scenario axis is its dynamics kind.
        what = "scenario" if self.kind == "tournament" else "drift kind"
        for drift in self.grid.get("scenario", (wl.get("drift"),)):
            if drift not in DYNAMICS_KINDS:
                raise SpecError(f"unknown {what} {drift!r}; one of {list(DYNAMICS_KINDS)}")
            if wl["source"] == "markov-pop" and drift not in MARKOV_DYNAMICS_KINDS:
                raise SpecError(
                    f"markov-pop supports drift kinds {list(MARKOV_DYNAMICS_KINDS)}, "
                    f"got {drift!r}"
                )
        if self.kind == "drift":
            n_windows = int(wl["n_windows"])
            if n_windows < 1:
                raise SpecError("n_windows must be positive")
            for value in self.grid.get("window", ()):
                if not isinstance(value, int) or not 0 <= value < n_windows:
                    raise SpecError(
                        f"window values must be ints in [0, {n_windows}), got {value!r}"
                    )
        for cell in self.cells():
            knobs = cell_knobs(self, cell)
            n_clients = knobs["n_clients"]
            if not isinstance(n_clients, int) or n_clients < 1:
                raise SpecError(f"n_clients values must be positive ints, got {n_clients!r}")
            if knobs.get("engine", "event") != "event" and knobs["drift"] != "none":
                raise SpecError(
                    "cohort/hybrid engines require drift 'none' (their "
                    "populations are built per engine from static draws)"
                )
            try:
                build_config(knobs)
                check_population(knobs, int(self.iterations))
            except ValueError as exc:
                raise SpecError(str(exc)) from exc

    # -- derived views -----------------------------------------------------
    def effective_workload(self) -> dict:
        """Workload parameters with the kind defaults filled in."""
        merged = dict(self.info.workload_defaults)
        merged.update(self.workload)
        return merged

    def metric_names(self) -> tuple[str, ...]:
        return self.metrics if self.metrics else self.info.metrics

    def cells(self) -> list[dict]:
        """Cartesian product of the grid axes, in axis order."""
        combos: list[dict] = [{}]
        for axis, values in self.grid.items():
            combos = [dict(c, **{axis: v}) for c in combos for v in values]
        return combos

    def cell_workload(self, cell: Mapping) -> dict:
        """Workload parameters effective in ``cell`` (axes override defaults).

        Component axes and the kind's ``component_params`` stay at their
        workload defaults here; runners read their swept values from the
        cell itself.
        """
        merged = self.effective_workload()
        skipped = set(COMPONENT_AXES) | set(self.info.component_params)
        for axis, value in cell.items():
            if axis in skipped:
                continue
            if axis == "v_bin":
                merged["v_min"], merged["v_max"] = value
            else:
                merged[axis] = value
        return merged

    def cell_param(self, cell: Mapping, name: str):
        """A component parameter's effective value: cell axis, else default."""
        if name in cell:
            return cell[name]
        return self.effective_workload()[name]

    def cell_seed(self, cell: Mapping) -> int:
        """Deterministic per-cell seed from the workload-affecting parameters.

        Component axes and ``component_params`` are excluded so every
        policy/predictor/cache size — and every contention setting — sees
        the same draws (common random numbers), independent of cell order or
        worker count.
        """
        workload = {
            k: v
            for k, v in self.cell_workload(cell).items()
            if k not in self.info.component_params
        }
        payload = {
            "seed": int(self.seed),
            "iterations": int(self.iterations),
            "kind": self.kind,
            "workload": workload,
        }
        digest = hashlib.sha256(
            json.dumps(_thaw(payload), sort_keys=True).encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "workload": _thaw(self.workload),
            "grid": _thaw(self.grid),
            "iterations": int(self.iterations),
            "seed": int(self.seed),
            "metrics": list(self.metrics),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        data = dict(data)
        unknown = set(data) - {
            "name", "kind", "workload", "grid", "iterations", "seed", "metrics", "description",
        }
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        return cls(
            name=str(data.get("name", "")),
            kind=str(data.get("kind", "")),
            workload=dict(data.get("workload", {})),
            grid=dict(data.get("grid", {})),
            iterations=int(data.get("iterations", 1000)),
            seed=int(data.get("seed", 0)),
            metrics=tuple(data.get("metrics", ())),
            description=str(data.get("description", "")),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Stable content hash (order-insensitive) for provenance records."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def with_overrides(
        self,
        *,
        iterations: int | None = None,
        seed: int | None = None,
        name: str | None = None,
    ) -> "ExperimentSpec":
        """A copy with selected scalar fields replaced (CLI overrides)."""
        changes: dict = {}
        if iterations is not None:
            changes["iterations"] = int(iterations)
        if seed is not None:
            changes["seed"] = int(seed)
        if name is not None:
            changes["name"] = str(name)
        return replace(self, **changes) if changes else self

    def summary(self) -> str:
        """One human line: kind, grid shape, iteration count."""
        shape = " × ".join(f"{axis}[{len(vals)}]" for axis, vals in self.grid.items())
        cells = len(self.cells())
        return (
            f"{self.name}: {self.kind}, grid {shape or '—'} = {cells} cells, "
            f"{self.iterations} iterations/cell, seed {self.seed}"
        )
