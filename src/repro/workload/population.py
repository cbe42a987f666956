"""Population workloads: heterogeneous per-client request streams for fleets.

The single-client engines replay one trace; a fleet needs *N* of them, each
different yet jointly reproducible.  This module stamps out per-client
workloads from a handful of population-level knobs:

* **Zipf mixture** — every client draws i.i.d. requests from its own Zipf
  popularity ranking, with a per-client exponent sampled from a range and a
  shared-hot-set ``overlap`` knob: the top ``round(overlap * n)`` ranks of
  every client's ranking are a common permutation prefix (identical hot
  items across the fleet), the tail is a private shuffle.  ``overlap=1``
  maximises cross-client sharing (one server-side hot set); ``overlap=0``
  gives fully private rankings.
* **Markov population** — every client walks its own §5.3-style Markov
  source (private transition structure, shared item catalog).

Every random decision derives from :func:`derive_seed` over the base seed
plus *workload parameters only* (client id, role) — never from execution
order — so populations are bit-identical across worker counts and a client's
stream does not change when the fleet around it grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.util.rng import derive_seed
from repro.util.validation import PROBABILITY_TOLERANCE, check_probability_vector
from repro.workload.markov_source import check_out_degree, generate_markov_source
from repro.workload.trace import Trace
from repro.workload.zipf import zipf_probabilities

__all__ = [
    "ClientWorkload",
    "LazyPopulation",
    "Population",
    "check_markov_population",
    "check_zipf_mixture",
    "derive_seed",
    "markov_population",
    "subset_population",
    "trace_population",
    "zipf_mixture_population",
]


@dataclass(frozen=True)
class ClientWorkload:
    """One client's replayable workload: trace, warm start, and access model.

    Exactly one of ``probabilities`` (static next-access row, Zipf clients)
    or ``transition`` (per-client Markov matrix) is set; :meth:`provider`
    adapts either to the planner's probability-provider interface.
    """

    client_id: int
    trace: Trace
    initial_item: int
    initial_viewing_time: float
    start_time: float = 0.0
    probabilities: np.ndarray | None = None
    transition: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.probabilities is None) == (self.transition is None):
            raise ValueError("set exactly one of probabilities / transition")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if self.initial_viewing_time < 0:
            raise ValueError("initial_viewing_time must be non-negative")
        # Validate the access model once here: the fleet's planning state
        # treats workload providers as trusted (no per-request re-checks),
        # so a malformed hand-built row must fail at construction, not run
        # to completion producing garbage metrics.  The coerced float64
        # arrays are stored back — the trusted path consumes them verbatim,
        # so list/array-like inputs must not survive un-coerced.
        if self.probabilities is not None:
            row = check_probability_vector(self.probabilities).copy()
            row.setflags(write=False)
            object.__setattr__(self, "probabilities", row)
        else:
            rows = np.asarray(self.transition, dtype=np.float64)
            if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
                raise ValueError(
                    f"transition must be a square matrix, got shape {rows.shape}"
                )
            if not np.all(np.isfinite(rows)) or np.any(rows < 0):
                raise ValueError("transition contains negative or non-finite entries")
            if np.any(rows.sum(axis=1) > 1.0 + PROBABILITY_TOLERANCE):
                raise ValueError("transition rows must each sum to at most 1")
            if rows is self.transition:  # asarray aliased the caller's array
                rows = rows.copy()
            rows.setflags(write=False)
            object.__setattr__(self, "transition", rows)

    def provider(self) -> Callable[[int], np.ndarray]:
        """The client's next-access estimate, as the planner expects it."""
        if self.transition is not None:
            transition = self.transition
            return lambda item: transition[int(item)]
        probabilities = self.probabilities
        return lambda item: probabilities


@dataclass(frozen=True)
class Population:
    """A fleet workload: the shared item catalog plus one workload per client."""

    sizes: np.ndarray  # shared catalog item sizes
    clients: tuple[ClientWorkload, ...]

    def __post_init__(self) -> None:
        if not self.clients:
            raise ValueError("a population needs at least one client")

    @property
    def n_items(self) -> int:
        return int(np.asarray(self.sizes).shape[0])

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    @property
    def total_requests(self) -> int:
        return sum(len(c.trace) for c in self.clients)


@dataclass(frozen=True)
class LazyPopulation:
    """A fleet of ``n_clients`` members, built only when named.

    ``build(client_ids)`` returns the :class:`Population` holding exactly
    those members (the ``client_ids`` parameter of the population
    builders), so the hybrid engine simulates a sample of a fleet far
    larger than it could build.
    """

    n_clients: int
    build: Callable[[list[int]], Population]

    @property
    def sizes(self) -> np.ndarray:
        """The shared catalog's item sizes (read off one built member)."""
        return self.build([0]).sizes


def _catalog_sizes(n_items: int, size_range: tuple[float, float], seed: int) -> np.ndarray:
    """Item sizes drawn from ``size_range`` (checked by :func:`_check_common`)."""
    rng = np.random.default_rng(derive_seed(seed, role="catalog"))
    return rng.uniform(float(size_range[0]), float(size_range[1]), int(n_items))


def _check_common(
    n_clients: int,
    n_items: int,
    requests: int,
    stagger: float,
    *,
    size_range: tuple[float, float],
    v_range: tuple[float, float] | None = None,
) -> None:
    """The checks every population builder runs; ``v_range`` is None for
    replayed traces, whose viewing times are recorded, not drawn."""
    if n_clients < 1:
        raise ValueError("n_clients must be positive")
    if n_items < 2:
        raise ValueError("need at least two catalog items")
    if requests < 1:
        raise ValueError("requests must be positive")
    if stagger < 0:
        raise ValueError("stagger must be non-negative")
    if not (0 < size_range[0] <= size_range[1]):
        raise ValueError(f"size_range must satisfy 0 < lo <= hi, got {size_range}")
    if v_range is not None and not (0 <= v_range[0] <= v_range[1]):
        raise ValueError(f"v_range must satisfy 0 <= lo <= hi, got {v_range}")


def check_zipf_mixture(
    n_clients: int,
    n_items: int,
    requests: int,
    *,
    exponent_range: tuple[float, float],
    overlap: float,
    top_k: int,
    stagger: float,
    v_range: tuple[float, float],
    size_range: tuple[float, float],
    v_quantum: float = 0.0,
) -> None:
    """Reject a Zipf-mixture knob with :class:`ValueError`, drawing nothing.

    The checks of :func:`zipf_mixture_population` and of its drifting
    variant (:func:`repro.workload.dynamics.dynamic_zipf_population`);
    experiment specs run them at validation time.
    """
    _check_common(
        n_clients, n_items, requests, stagger, size_range=size_range, v_range=v_range
    )
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be in [0, 1]")
    if not (0 < exponent_range[0] <= exponent_range[1]):
        raise ValueError(f"exponent_range must satisfy 0 < lo <= hi, got {exponent_range}")
    if v_quantum < 0 or not np.isfinite(v_quantum):
        raise ValueError("v_quantum must be finite and non-negative")
    if int(top_k) < 1:
        raise ValueError("top_k must be positive")


def check_markov_population(
    n_clients: int,
    n_items: int,
    requests: int,
    *,
    out_degree: tuple[int, int],
    v_range: tuple[float, float],
    size_range: tuple[float, float],
    stagger: float,
) -> None:
    """Reject a Markov-population knob with :class:`ValueError`, drawing nothing.

    The checks of :func:`markov_population` and of its drifting variant
    (:func:`repro.workload.dynamics.dynamic_markov_population`); experiment
    specs run them at validation time.
    """
    _check_common(
        n_clients, n_items, requests, stagger, size_range=size_range, v_range=v_range
    )
    check_out_degree(out_degree, n_items)


def _resolve_client_ids(n_clients: int, client_ids) -> list[int]:
    """Which client ids to materialise: all of them, or a validated subset.

    Per-client randomness is hashed from ``(seed, client id)`` alone, so a
    subset build is bit-identical to slicing the full population — the
    hybrid engine's sampled clients are *real* members of the modeled
    million-client fleet, not a lookalike workload.
    """
    if client_ids is None:
        return list(range(int(n_clients)))
    ids = [int(c) for c in client_ids]
    if not ids:
        raise ValueError("client_ids must be non-empty")
    if len(set(ids)) != len(ids):
        raise ValueError("client_ids must be distinct")
    bad = [c for c in ids if not 0 <= c < int(n_clients)]
    if bad:
        raise ValueError(f"client_ids out of range [0, {n_clients}): {bad[:5]}")
    return sorted(ids)


def subset_population(population: Population, client_ids) -> Population:
    """A population holding only the given (already-built) clients."""
    ids = _resolve_client_ids(population.n_clients, client_ids)
    return Population(
        sizes=population.sizes,
        clients=tuple(population.clients[c] for c in ids),
    )


def zipf_mixture_population(
    n_clients: int,
    n_items: int,
    requests: int,
    *,
    exponent_range: tuple[float, float] = (0.8, 1.2),
    overlap: float = 1.0,
    top_k: int = 20,
    v_range: tuple[float, float] = (1.0, 100.0),
    v_quantum: float = 0.0,
    size_range: tuple[float, float] = (1.0, 30.0),
    stagger: float = 0.0,
    seed: int = 0,
    client_ids=None,
) -> Population:
    """Zipf-mixture fleet: per-client exponents and hot-set ``overlap``.

    Each client's *planner view* keeps only its ``top_k`` most popular items
    (the true distribution truncated, residual mass left unassigned) so the
    candidate sets the SKP solver faces stay comparable to the paper's
    Markov out-degree of 10–20; the request stream itself samples the full
    distribution.  Clients start staggered uniformly in ``[0, stagger]``.

    ``v_quantum > 0`` rounds every viewing-time draw to the nearest positive
    multiple of the quantum (same underlying uniforms, so the knob keeps
    common random numbers across its own sweep).  A finite viewing-time
    alphabet is what lets the cohort engine's plan memo
    (:mod:`repro.distsys.megafleet`) share SKP solves across clients —
    continuous draws make every planning window unique.

    ``client_ids`` materialises only the named members of the ``n_clients``
    fleet (every per-client draw hashes from ``(seed, client id)``, so the
    subset is bit-identical to slicing the full build) — the hybrid
    engine's way of sampling K real clients out of a million modeled ones
    without constructing the million.
    """
    check_zipf_mixture(
        n_clients, n_items, requests, exponent_range=exponent_range, overlap=overlap,
        top_k=top_k, stagger=stagger, v_range=v_range, size_range=size_range,
        v_quantum=v_quantum,
    )
    top_k = int(top_k)

    sizes = _catalog_sizes(n_items, size_range, seed)
    shared_perm = np.random.default_rng(derive_seed(seed, role="ranking")).permutation(n_items)
    k_shared = int(round(float(overlap) * n_items))

    clients = []
    for cid in _resolve_client_ids(n_clients, client_ids):
        rng = np.random.default_rng(derive_seed(seed, client=cid))
        exponent = float(rng.uniform(*exponent_range))
        # Ranking = shared hot prefix, then a private shuffle of the rest.
        ranking = np.concatenate(
            [shared_perm[:k_shared], rng.permutation(shared_perm[k_shared:])]
        ).astype(np.intp)
        base = zipf_probabilities(n_items, exponent)
        probabilities = np.zeros(n_items, dtype=np.float64)
        probabilities[ranking] = base
        planner_view = np.zeros(n_items, dtype=np.float64)
        planner_view[ranking[:top_k]] = base[:top_k]
        items = rng.choice(n_items, size=requests + 1, p=probabilities)
        viewing = rng.uniform(float(v_range[0]), float(v_range[1]), requests + 1)
        if v_quantum > 0:
            viewing = np.maximum(v_quantum, np.round(viewing / v_quantum) * v_quantum)
        start = float(rng.uniform(0.0, stagger)) if stagger > 0 else 0.0
        clients.append(
            ClientWorkload(
                client_id=cid,
                trace=Trace(items[1:], viewing[1:]),
                initial_item=int(items[0]),
                initial_viewing_time=float(viewing[0]),
                start_time=start,
                probabilities=planner_view,
            )
        )
    return Population(sizes=sizes, clients=tuple(clients))


def trace_population(
    n_clients: int,
    n_items: int,
    requests: int,
    *,
    path: str | None = None,
    trace: Trace | None = None,
    size_range: tuple[float, float] = (1.0, 30.0),
    stagger: float = 0.0,
    seed: int = 0,
    client_ids=None,
) -> Population:
    """Fleet workload replaying a recorded access log (``repro.workload.trace``).

    The trace — loaded from ``path`` or passed directly — is cut into
    ``n_clients`` contiguous slices of ``requests + 1`` accesses (the first
    access of each slice is the client's warm start); a trace shorter than
    the total demand wraps around, so small recorded logs can still drive
    large replay fleets.  ``n_items == 0`` infers the catalog from the
    trace itself (the ``gateway bench --source trace:<path>`` path).

    The planner's access model is *mined from the log*: one shared
    first-order transition matrix over consecutive trace pairs (empirical
    row-normalised counts — the PPE-style "derive the model from observed
    access patterns" loop), so replays plan from what the log actually did
    rather than from an assumed distribution.  Note the matrix is dense
    ``n_items²``; recorded logs with very large catalogs should prefer the
    online ``model_source`` path instead.
    """
    if (path is None) == (trace is None):
        raise ValueError("set exactly one of path / trace")
    if trace is None:
        trace = Trace.load(path)
    if len(trace) < 2:
        raise ValueError("trace must contain at least two accesses")
    if n_items in (0, None):
        n_items = trace.n_items
    n_items = int(n_items)
    if trace.n_items > n_items:
        raise ValueError(
            f"trace references item {trace.n_items - 1} but the catalog "
            f"holds only {n_items} items"
        )
    _check_common(n_clients, n_items, requests, stagger, size_range=size_range)
    sizes = _catalog_sizes(n_items, size_range, seed)

    # Shared empirical model: first-order transition counts over the log.
    items = trace.items
    counts = np.zeros((n_items, n_items), dtype=np.float64)
    np.add.at(counts, (items[:-1], items[1:]), 1.0)
    row_sums = counts.sum(axis=1, keepdims=True)
    transition = np.divide(
        counts, row_sums, out=np.zeros_like(counts), where=row_sums > 0
    )

    needed = int(n_clients) * (int(requests) + 1)
    if len(trace) < needed:  # wrap the log so every client gets a full slice
        reps = -(-needed // len(trace))
        items_all = np.tile(trace.items, reps)[:needed]
        views_all = np.tile(trace.viewing_times, reps)[:needed]
    else:
        items_all = trace.items[:needed]
        views_all = trace.viewing_times[:needed]

    clients = []
    per_client = int(requests) + 1
    for cid in _resolve_client_ids(n_clients, client_ids):
        lo = cid * per_client
        chunk_items = items_all[lo:lo + per_client]
        chunk_views = views_all[lo:lo + per_client]
        rng = np.random.default_rng(derive_seed(seed, client=cid, role="start"))
        start = float(rng.uniform(0.0, stagger)) if stagger > 0 else 0.0
        clients.append(
            ClientWorkload(
                client_id=cid,
                trace=Trace(chunk_items[1:], chunk_views[1:]),
                initial_item=int(chunk_items[0]),
                initial_viewing_time=float(chunk_views[0]),
                start_time=start,
                transition=transition,
            )
        )
    return Population(sizes=sizes, clients=tuple(clients))


def markov_population(
    n_clients: int,
    n_items: int,
    requests: int,
    *,
    out_degree: tuple[int, int] = (10, 20),
    v_range: tuple[float, float] = (1.0, 100.0),
    size_range: tuple[float, float] = (1.0, 30.0),
    stagger: float = 0.0,
    seed: int = 0,
    client_ids=None,
) -> Population:
    """Markov fleet: every client owns a private §5.3-style source.

    Transition structure, viewing times and walks are per-client (derived
    seeds); the item catalog — and therefore sizes/retrieval costs — is
    shared, so clients contend for the same objects on the server.
    ``client_ids`` builds only the named members of the fleet (bit-identical
    to slicing the full build, see :func:`zipf_mixture_population`).
    """
    check_markov_population(
        n_clients, n_items, requests, out_degree=out_degree, v_range=v_range,
        size_range=size_range, stagger=stagger,
    )
    sizes = _catalog_sizes(n_items, size_range, seed)

    clients = []
    for cid in _resolve_client_ids(n_clients, client_ids):
        source = generate_markov_source(
            int(n_items),
            out_degree=(int(out_degree[0]), int(out_degree[1])),
            v_range=(float(v_range[0]), float(v_range[1])),
            seed=derive_seed(seed, client=cid, role="source"),
        )
        rng = np.random.default_rng(derive_seed(seed, client=cid, role="walk"))
        initial = int(rng.integers(n_items))
        items = np.fromiter(
            source.walk(requests, rng, start=initial), dtype=np.intp, count=requests
        )
        start = float(rng.uniform(0.0, stagger)) if stagger > 0 else 0.0
        clients.append(
            ClientWorkload(
                client_id=cid,
                trace=Trace(items, source.viewing_times[items]),
                initial_item=initial,
                initial_viewing_time=float(source.viewing_times[initial]),
                start_time=start,
                transition=source.transition,
            )
        )
    return Population(sizes=sizes, clients=tuple(clients))
