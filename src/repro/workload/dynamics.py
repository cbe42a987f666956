"""Non-stationary population workloads: demand that drifts while clients run.

Every workload the package generated before this module froze its
access-probability vector at construction, so the planner's model was
*correct by fiat* — the paper's presupposed ``P_i`` (§2).  Real distributed
information systems face demand that moves, and the interesting question
becomes: what happens to speculative prefetching when the model the planner
was handed stops being true?  This module generates exactly those
workloads, as composable schedules over the existing Zipf-mixture and
Markov-population sources:

* ``regime``      — regime-switching popularity: the fleet's shared hot set
  is re-drawn ``n_regimes`` times over the trace (all clients switch
  together, the GrASP-style "workload shift");
* ``zipf-drift``  — each client's Zipf exponent glides linearly from its
  base value to ``drift_to``, so the catalog's head sharpens or flattens
  smoothly with no single shift point;
* ``flash``       — a flash crowd: during a window of the trace, a small
  set of globally cold items absorbs ``flash_boost`` of everyone's request
  mass, then vanishes again;
* ``diurnal``     — per-client request-rate modulation: viewing (think)
  times swell and shrink sinusoidally with client-private phases, leaving
  popularity untouched (a pure load/tempo dynamic).

``kind="none"`` *delegates verbatim* to the static builders, so the
stationary populations are the zero-drift special case — bit-exact, not
merely equivalent (pinned in ``tests/integration/test_cross_engine.py``).

Every random decision routes through :func:`repro.util.rng.derive_seed`
over workload-identity parameters only (client id, regime id, role), never
execution order, preserving the CRN contract: sweeping any component knob
— including ``model_source`` — compares identical request streams.

Alongside the :class:`~repro.workload.population.Population` the builders
return a :class:`DynamicsInfo`: the ground truth the generator actually
sampled from, per client and per request index.  The drift experiments
score planner models against it (per-window KL, assigned probability) and
the oracle-at-t0 baseline is, by construction, this truth at request 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_seed
from repro.workload.markov_source import generate_markov_source
from repro.workload.population import (
    ClientWorkload,
    Population,
    _catalog_sizes,
    check_markov_population,
    check_zipf_mixture,
    markov_population,
    zipf_mixture_population,
)
from repro.workload.trace import Trace
from repro.workload.zipf import zipf_probabilities

__all__ = [
    "DYNAMICS_KINDS",
    "DynamicsConfig",
    "DynamicsInfo",
    "DynamicPopulation",
    "dynamic_zipf_population",
    "dynamic_markov_population",
]

DYNAMICS_KINDS = ("none", "regime", "zipf-drift", "flash", "diurnal")

#: Dynamics kinds the Markov-population source supports (drift and flash
#: are popularity-vector constructions and have no transition-matrix analog
#: here).
MARKOV_DYNAMICS_KINDS = ("none", "regime", "diurnal")


@dataclass(frozen=True)
class DynamicsConfig:
    """How demand moves over one population's trace.

    All positions and durations are *fractions of the per-client request
    count* (request-index space, not simulated time), so the same config
    scales with ``iterations`` and regime boundaries align across clients
    regardless of stagger or contention.
    """

    kind: str = "none"
    # -- regime switching ----------------------------------------------
    n_regimes: int = 3
    switch_every: int = 0  # requests between switches; 0 = requests // n_regimes
    # -- smooth Zipf-exponent drift -------------------------------------
    drift_to: float = 1.5  # exponent reached at the last request
    # -- flash crowd -----------------------------------------------------
    flash_start: float = 0.5  # fraction of the trace where the flash begins
    flash_duration: float = 0.25  # fraction of the trace the flash lasts
    flash_items: int = 5  # size of the flash-hot set
    flash_boost: float = 0.6  # request mass diverted to the flash set
    # -- diurnal rate modulation -----------------------------------------
    diurnal_amplitude: float = 0.5  # peak fractional viewing-time swing
    diurnal_period: float = 500.0  # nominal-time length of one cycle

    def __post_init__(self) -> None:
        if self.kind not in DYNAMICS_KINDS:
            raise ValueError(
                f"unknown dynamics kind {self.kind!r}; one of {DYNAMICS_KINDS}"
            )
        if self.n_regimes < 1:
            raise ValueError("n_regimes must be positive")
        if self.switch_every < 0:
            raise ValueError("switch_every must be non-negative")
        if self.drift_to <= 0:
            raise ValueError("drift_to must be positive")
        if not 0.0 <= self.flash_start <= 1.0:
            raise ValueError("flash_start must be in [0, 1]")
        if not 0.0 < self.flash_duration <= 1.0:
            raise ValueError("flash_duration must be in (0, 1]")
        if self.flash_items < 1:
            raise ValueError("flash_items must be positive")
        if not 0.0 <= self.flash_boost < 1.0:
            raise ValueError("flash_boost must be in [0, 1)")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")

    def regime_of_requests(self, requests: int) -> np.ndarray:
        """Regime id per request index (0..requests-1) under this config."""
        k = np.arange(int(requests))
        if self.kind == "regime":
            every = self.switch_every or max(1, int(requests) // self.n_regimes)
            return np.minimum(k // every, self.n_regimes - 1).astype(np.intp)
        if self.kind == "flash":
            start, stop = self.flash_window(requests)
            return ((k >= start) & (k < stop)).astype(np.intp)
        return np.zeros(int(requests), dtype=np.intp)

    def flash_window(self, requests: int) -> tuple[int, int]:
        """The flash crowd's ``[start, stop)`` request-index window."""
        start = int(round(self.flash_start * requests))
        stop = min(int(requests), start + max(1, int(round(self.flash_duration * requests))))
        return start, stop


class DynamicsInfo:
    """Ground truth of one dynamic population: what each draw was sampled from.

    ``true_row(client_id, k)`` returns the full next-access distribution
    request ``k`` of that client was drawn from; Markov-backed populations
    additionally need ``prev_item`` (the state the chain stepped *from*).
    ``regime_of[k]`` labels the request's regime and ``shift_points`` lists
    the request indices where the distribution changes discontinuously —
    the boundaries the windowed drift metrics are read against.
    """

    def __init__(
        self,
        config: DynamicsConfig,
        requests: int,
        n_items: int,
        *,
        client_rows: list | None = None,
        client_transitions: list | None = None,
        drift_params: list | None = None,
    ) -> None:
        self.config = config
        self.kind = config.kind
        self.requests = int(requests)
        self.n_items = int(n_items)
        self.regime_of = config.regime_of_requests(requests)
        self._client_rows = client_rows
        self._client_transitions = client_transitions
        self._drift_params = drift_params
        if config.kind == "regime":
            every = config.switch_every or max(1, self.requests // config.n_regimes)
            self.shift_points = tuple(
                s for s in range(every, self.requests, every)
                if self.regime_of[s] != self.regime_of[s - 1]
            )
        elif config.kind == "flash":
            start, stop = config.flash_window(self.requests)
            self.shift_points = tuple(p for p in (start, stop) if 0 < p < self.requests)
        else:
            self.shift_points = ()

    @property
    def markov(self) -> bool:
        return self._client_transitions is not None

    def true_row(self, client_id: int, k: int, prev_item: int | None = None) -> np.ndarray:
        """The distribution client ``client_id``'s request ``k`` was drawn from."""
        if not 0 <= k < self.requests:
            raise IndexError(f"request index {k} outside trace of {self.requests}")
        if self._client_transitions is not None:
            if prev_item is None:
                raise ValueError("Markov-backed dynamics need prev_item for true_row")
            return self._client_transitions[client_id][self.regime_of[k]][int(prev_item)]
        if self.kind == "zipf-drift":
            ranking, e0, e1 = self._drift_params[client_id]
            frac = k / (self.requests - 1) if self.requests > 1 else 0.0
            row = np.zeros(self.n_items, dtype=np.float64)
            row[ranking] = zipf_probabilities(self.n_items, e0 + (e1 - e0) * frac)
            return row
        return self._client_rows[client_id][self.regime_of[k]]


@dataclass(frozen=True)
class DynamicPopulation:
    """A fleet workload plus the moving ground truth it was sampled from."""

    population: Population
    info: DynamicsInfo


def _diurnal_factors(
    viewing: np.ndarray, config: DynamicsConfig, phase: float
) -> np.ndarray:
    """Sinusoidal viewing-time modulation over the *nominal* timeline.

    The phase advances over the cumulative unmodulated viewing time — the
    client's nominal clock — so the cycle length is ``diurnal_period``
    nominal seconds regardless of how contention later stretches the run.
    """
    t_nominal = np.concatenate([[0.0], np.cumsum(viewing)[:-1]])
    return 1.0 + config.diurnal_amplitude * np.sin(
        2.0 * np.pi * t_nominal / config.diurnal_period + phase
    )


def _client_ranking(
    shared_perm: np.ndarray, k_shared: int, rng: np.random.Generator
) -> np.ndarray:
    """Shared hot prefix + private tail shuffle (the zipf-mixture layout)."""
    return np.concatenate(
        [shared_perm[:k_shared], rng.permutation(shared_perm[k_shared:])]
    ).astype(np.intp)


def dynamic_zipf_population(
    n_clients: int,
    n_items: int,
    requests: int,
    *,
    dynamics: DynamicsConfig = DynamicsConfig(),
    exponent_range: tuple[float, float] = (0.8, 1.2),
    overlap: float = 1.0,
    top_k: int = 20,
    v_range: tuple[float, float] = (1.0, 100.0),
    v_quantum: float = 0.0,
    size_range: tuple[float, float] = (1.0, 30.0),
    stagger: float = 0.0,
    seed: int = 0,
    client_ids=None,
) -> DynamicPopulation:
    """Zipf-mixture fleet under a :class:`DynamicsConfig` schedule.

    The static knobs mean exactly what they mean in
    :func:`~repro.workload.population.zipf_mixture_population`; with
    ``dynamics.kind == "none"`` that function is called verbatim, so the
    stationary population is reproduced bit-exactly.  Each client's
    *planner view* (``ClientWorkload.probabilities``) is always the
    **t = 0 truth truncated to top_k** — the oracle-at-t0 model a static
    deployment would have shipped with; online adaptation must come from a
    predictor (``model_source="online"``), not from the workload.
    """
    config = dynamics
    if v_quantum and config.kind != "none":
        # The dynamics paths re-derive viewing times regime-by-regime;
        # quantising them there is unimplemented, and silently ignoring the
        # knob would desynchronise the cohort engine's memo assumptions.
        raise ValueError("v_quantum requires dynamics.kind == 'none'")
    if client_ids is not None and config.kind != "none":
        # Subsetting a drifting population would need the regime schedule
        # sliced per member; unsupported rather than silently wrong.
        raise ValueError("client_ids requires dynamics.kind == 'none'")
    if config.kind == "none":
        population = zipf_mixture_population(
            n_clients, n_items, requests,
            exponent_range=exponent_range, overlap=overlap, top_k=top_k,
            v_range=v_range, v_quantum=v_quantum, size_range=size_range,
            stagger=stagger, seed=seed, client_ids=client_ids,
        )
        info = DynamicsInfo(
            config, requests, n_items,
            client_rows=[
                _full_row_of(c, n_items) for c in population.clients
            ],
        )
        return DynamicPopulation(population=population, info=info)

    check_zipf_mixture(
        n_clients, n_items, requests, exponent_range=exponent_range, overlap=overlap,
        top_k=top_k, stagger=stagger, v_range=v_range, size_range=size_range,
    )
    top_k = int(top_k)

    sizes = _catalog_sizes(n_items, size_range, seed)
    k_shared = int(round(float(overlap) * n_items))
    regime_of = config.regime_of_requests(requests)
    n_regimes = int(regime_of.max()) + 1 if requests else 1

    # One shared hot-set permutation per regime (regime 0 reuses the static
    # builder's namespace so the pre-shift world matches the stationary one).
    shared_perms = [
        np.random.default_rng(
            derive_seed(seed, role="ranking") if r == 0
            else derive_seed(seed, role="ranking", regime=r)
        ).permutation(n_items)
        for r in range(n_regimes if config.kind == "regime" else 1)
    ]
    flash_set = None
    if config.kind == "flash":
        # The flash crowd hits the globally *coldest* shared ranks — items no
        # static model rates, which is what makes the shift hurt the oracle.
        flash_set = shared_perms[0][-int(config.flash_items):]

    clients: list[ClientWorkload] = []
    client_rows: list[np.ndarray] = []
    drift_params: list[tuple] = []
    for cid in range(int(n_clients)):
        rng = np.random.default_rng(derive_seed(seed, client=cid))
        exponent = float(rng.uniform(*exponent_range))
        base = zipf_probabilities(n_items, exponent)

        # Per-regime probability rows for this client.
        if config.kind == "regime":
            rows = np.zeros((n_regimes, n_items), dtype=np.float64)
            ranking0 = None
            for r in range(n_regimes):
                rank_rng = rng if r == 0 else np.random.default_rng(
                    derive_seed(seed, client=cid, regime=r)
                )
                regime_ranking = _client_ranking(shared_perms[r], k_shared, rank_rng)
                rows[r, regime_ranking] = base
                if r == 0:
                    ranking0 = regime_ranking
            probabilities0 = rows[0]
        else:
            ranking = _client_ranking(shared_perms[0], k_shared, rng)
            probabilities0 = np.zeros(n_items, dtype=np.float64)
            probabilities0[ranking] = base
            if config.kind == "flash":
                flash_row = probabilities0 * (1.0 - config.flash_boost)
                flash_row[flash_set] += config.flash_boost / flash_set.shape[0]
                rows = np.stack([probabilities0, flash_row])
            else:
                rows = probabilities0[None, :]

        # Draw the trace segment-by-segment from the scheduled truth.
        draws = np.empty(requests + 1, dtype=np.intp)
        if config.kind == "zipf-drift":
            e1 = float(config.drift_to)
            exponents = (
                exponent + (e1 - exponent) * np.arange(requests) / max(requests - 1, 1)
            )
            draws[0] = rng.choice(n_items, p=probabilities0)
            row = np.zeros(n_items, dtype=np.float64)
            for k in range(requests):
                row[:] = 0.0
                row[ranking] = zipf_probabilities(n_items, float(exponents[k]))
                draws[k + 1] = rng.choice(n_items, p=row)
            drift_params.append((ranking, exponent, e1))
        else:
            draw_regime = np.concatenate([[regime_of[0] if requests else 0], regime_of])
            if config.kind == "diurnal":
                draw_regime[:] = 0
            pos = 0
            for r, length in _run_lengths(draw_regime):
                draws[pos:pos + length] = rng.choice(n_items, size=length, p=rows[r])
                pos += length

        viewing = rng.uniform(float(v_range[0]), float(v_range[1]), requests + 1)
        if config.kind == "diurnal":
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            viewing = viewing * _diurnal_factors(viewing, config, phase)

        # Oracle-at-t0 planner view: the t=0 truth truncated to top_k ranks.
        order = ranking0 if config.kind == "regime" else ranking
        planner_view = np.zeros(n_items, dtype=np.float64)
        head = order[:top_k]
        planner_view[head] = rows[0][head]

        start = float(rng.uniform(0.0, stagger)) if stagger > 0 else 0.0
        clients.append(
            ClientWorkload(
                client_id=cid,
                trace=Trace(draws[1:], viewing[1:]),
                initial_item=int(draws[0]),
                initial_viewing_time=float(viewing[0]),
                start_time=start,
                probabilities=planner_view,
            )
        )
        client_rows.append(rows)

    info = DynamicsInfo(
        config, requests, n_items,
        client_rows=client_rows if config.kind != "zipf-drift" else None,
        drift_params=drift_params if config.kind == "zipf-drift" else None,
    )
    return DynamicPopulation(
        population=Population(sizes=sizes, clients=tuple(clients)), info=info
    )


def dynamic_markov_population(
    n_clients: int,
    n_items: int,
    requests: int,
    *,
    dynamics: DynamicsConfig = DynamicsConfig(),
    out_degree: tuple[int, int] = (10, 20),
    v_range: tuple[float, float] = (1.0, 100.0),
    size_range: tuple[float, float] = (1.0, 30.0),
    stagger: float = 0.0,
    seed: int = 0,
    client_ids=None,
) -> DynamicPopulation:
    """Markov fleet under a :class:`DynamicsConfig` schedule.

    Supports ``none`` (verbatim
    :func:`~repro.workload.population.markov_population`), ``regime``
    (each client switches between ``n_regimes`` private §5.3 sources over
    the shared catalog) and ``diurnal`` (viewing-time modulation on the
    stationary walk).  ``ClientWorkload.transition`` is always the regime-0
    matrix — the oracle-at-t0 model.
    """
    config = dynamics
    if config.kind not in MARKOV_DYNAMICS_KINDS:
        raise ValueError(
            f"markov populations support dynamics {MARKOV_DYNAMICS_KINDS}, "
            f"got {config.kind!r}"
        )
    if client_ids is not None and config.kind != "none":
        raise ValueError("client_ids requires dynamics.kind == 'none'")
    if config.kind == "none":
        population = markov_population(
            n_clients, n_items, requests,
            out_degree=out_degree, v_range=v_range, size_range=size_range,
            stagger=stagger, seed=seed, client_ids=client_ids,
        )
        info = DynamicsInfo(
            config, requests, n_items,
            client_transitions=[[c.transition] for c in population.clients],
        )
        return DynamicPopulation(population=population, info=info)

    check_markov_population(
        n_clients, n_items, requests, out_degree=out_degree, v_range=v_range,
        size_range=size_range, stagger=stagger,
    )
    sizes = _catalog_sizes(n_items, size_range, seed)
    regime_of = config.regime_of_requests(requests)
    n_regimes = int(regime_of.max()) + 1 if requests else 1
    if config.kind == "diurnal":
        regime_of = np.zeros(requests, dtype=np.intp)
        n_regimes = 1

    clients: list[ClientWorkload] = []
    client_transitions: list[list[np.ndarray]] = []
    for cid in range(int(n_clients)):
        sources = [
            generate_markov_source(
                int(n_items),
                out_degree=(int(out_degree[0]), int(out_degree[1])),
                v_range=(float(v_range[0]), float(v_range[1])),
                seed=(
                    derive_seed(seed, client=cid, role="source") if r == 0
                    else derive_seed(seed, client=cid, role="source", regime=r)
                ),
            )
            for r in range(n_regimes)
        ]
        rng = np.random.default_rng(derive_seed(seed, client=cid, role="walk"))
        initial = int(rng.integers(n_items))
        items = np.empty(requests, dtype=np.intp)
        state = initial
        for k in range(requests):
            state = sources[regime_of[k]].step(state, rng)
            items[k] = state
        if n_regimes > 1:
            # Think time follows the active regime's source.
            viewing = np.array(
                [sources[regime_of[k]].viewing_times[items[k]] for k in range(requests)]
            )
        else:
            viewing = sources[0].viewing_times[items] if requests else np.empty(0)
        initial_viewing = float(sources[0].viewing_times[initial])
        if config.kind == "diurnal":
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            full = np.concatenate([[initial_viewing], viewing])
            full = full * _diurnal_factors(full, config, phase)
            initial_viewing, viewing = float(full[0]), full[1:]
        start = float(rng.uniform(0.0, stagger)) if stagger > 0 else 0.0
        clients.append(
            ClientWorkload(
                client_id=cid,
                trace=Trace(items, viewing),
                initial_item=initial,
                initial_viewing_time=initial_viewing,
                start_time=start,
                transition=sources[0].transition,
            )
        )
        client_transitions.append([s.transition for s in sources])

    info = DynamicsInfo(
        config, requests, n_items, client_transitions=client_transitions
    )
    return DynamicPopulation(
        population=Population(sizes=sizes, clients=tuple(clients)), info=info
    )


def _full_row_of(client: ClientWorkload, n_items: int) -> np.ndarray:
    """Static truth for the zero-drift case, shaped like one-regime rows.

    The stationary zipf-mixture stores only the *truncated* planner view;
    for zero-drift metrics the truncated view IS the model under test, so
    it doubles as the (single) regime row here.
    """
    row = client.probabilities
    return row[None, :] if row is not None else np.zeros((1, n_items))


def _run_lengths(labels: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive ``(label, run_length)`` pairs of a label array."""
    runs: list[tuple[int, int]] = []
    if labels.size == 0:
        return runs
    boundaries = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [labels.size]])
    for lo, hi in zip(starts, stops):
        runs.append((int(labels[lo]), int(hi - lo)))
    return runs
