"""Two-level candidate evaluation: analytic scoring, engine confirmation.

Search drivers score every candidate with a *fast analytic* evaluator and
confirm only the leaders with the discrete-event (or cohort) engine:

``fleet`` systems
    The analytic score is the mega-fleet hybrid closure
    (:func:`repro.distsys.megafleet.run_hybrid_fleet` via the ``fleet``
    kind's ``engine="hybrid"`` path): a K-client sampled simulation whose
    cache tiers and uplink queueing are closed with the Che / M/G/c fixed
    point — validated within 5% of the event engine (docs/scale.md).

``topology`` systems
    Non-star hierarchies have no hybrid engine, so the evaluator closes
    them directly with :mod:`repro.analysis.cacheperf`: a sampled star
    fleet captures the client tier (cache + speculation) exactly, the
    Che miss-stream cascade predicts the edge/mid/origin tier hit ratios,
    and the expected upstream delay per uplink access — miss-weighted
    link transfers, the M/G/c origin wait at the fleet-wide miss rate,
    and the residual backing-store penalty — is folded into the sample's
    ``miss_penalty``, exactly how the hybrid closure folds its server
    tier.  The sampled star fleet (pass 1) depends only on the
    *client-tier* sub-assignment, so it is memoised on those values:
    candidates that move only edge/mid/server knobs reuse the measured
    miss stream and re-run just the folded second pass.

Both levels and all candidates derive the *same* cell seed (decision
variables are component parameters of the underlying kind), so analytic
scores, confirmations, and candidates are compared on identical draws.

Batching and parallelism
------------------------

Drivers hand the evaluator *frontiers* — all of one greedy step's
neighbor upgrades, a whole coordinate axis, a chunk of the exhaustive
grid — through :meth:`CandidateEvaluator.analytic_batch` /
:meth:`confirmed_batch`.  With ``workers > 1`` the frontier fans out over
a :class:`~concurrent.futures.ProcessPoolExecutor` reused across the
whole search (shared machinery with :mod:`repro.experiments.engine` via
:mod:`repro.util.pool`).  Worker count is *machinery*, never a seed
input: every evaluation is a pure function of (problem, assignment,
engine), so scores — and therefore search trails — are bit-identical at
any worker count, falling back to in-process evaluation where pools
cannot spawn.

With a persistent :class:`~repro.util.evalcache.EvalCache` attached,
every engine score is also looked up in / written through to an on-disk
JSON-lines store keyed by content hash of (one-cell spec, engine,
package version): repeated searches, benchmarks and CI smokes start warm
and re-run zero engine evaluations.  ``engine_runs`` counts the
evaluations that actually executed an engine; cache traffic is reported
on the cache object itself.
"""

from __future__ import annotations

import json
from dataclasses import replace
from concurrent.futures.process import BrokenProcessPool
from collections.abc import Mapping, Sequence

from repro.optimize.problem import PlacementProblem

__all__ = ["CandidateEvaluator"]


def _assignment_key(assignment: Mapping) -> tuple:
    return tuple(sorted(assignment.items()))


#: Workload keys that shape the topology closure's pass-1 star fleet (the
#: client tier).  Candidates equal on these reuse the measured miss stream.
_CLIENT_TIER_KEYS = (
    "cache_capacity",
    "placement",
    "skp_variant",
    "planning_window",
    "latency",
    "bandwidth",
    "model_source",
    "online_predictor",
)


class CandidateEvaluator:
    """Memoised analytic + confirmation scoring for one problem.

    Scores are fleet mean access times (lower is better).  Every distinct
    assignment is evaluated at most once per level; ``analytic_evals`` /
    ``confirmed_evals`` count the evaluations actually scored — the search
    cost the result trail reports — while ``engine_runs`` counts the ones
    that reached an engine (an attached :class:`EvalCache` serves the
    rest from disk).

    ``workers`` parallelises *batch* calls over a reusable process pool;
    it changes wall-clock only, never a score.  Call :meth:`close` (or use
    the instance as a context manager) to release the pool.
    """

    def __init__(
        self,
        problem: PlacementProblem,
        *,
        workers: int = 1,
        cache=None,
    ):
        self.problem = problem
        self.workers = max(1, int(workers))
        self.cache = cache
        self.analytic_evals = 0
        self.confirmed_evals = 0
        self.engine_runs = 0
        self._analytic: dict[tuple, float] = {}
        self._confirmed: dict[tuple, float] = {}
        self._pool = None
        self._pool_unavailable = False
        self._population_memo: dict = {}
        self._pass1_memo: dict = {}

    # -- public API --------------------------------------------------------
    def analytic(self, assignment: Mapping) -> float:
        return self.analytic_batch([assignment])[0]

    def confirmed(self, assignment: Mapping) -> float:
        return self.confirmed_batch([assignment])[0]

    def analytic_batch(self, assignments: Sequence[Mapping]) -> list[float]:
        """Analytic scores for a whole candidate frontier, in input order.

        Duplicates and already-scored assignments are served from the
        memo; the rest go through the cache, then (misses only) to the
        engines — in parallel when ``workers > 1``.
        """
        return self._score_batch("analytic", assignments)

    def confirmed_batch(self, assignments: Sequence[Mapping]) -> list[float]:
        """Confirmation-engine scores for the leaders, in input order."""
        return self._score_batch("confirmed", assignments)

    @property
    def cache_hits(self) -> int:
        return 0 if self.cache is None else int(self.cache.hits)

    @property
    def cache_misses(self) -> int:
        return 0 if self.cache is None else int(self.cache.misses)

    @property
    def analytic_evaluator(self) -> str:
        """Which analytic closure this problem's candidates go through."""
        shape = self._topology_shape(self.problem.cheapest_assignment())
        return "che-closure" if shape in ("tree", "two-tier") else "hybrid"

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "CandidateEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- batch orchestration ----------------------------------------------
    def _score_batch(self, level: str, assignments: Sequence[Mapping]) -> list[float]:
        memo = self._analytic if level == "analytic" else self._confirmed
        keys = [_assignment_key(a) for a in assignments]
        todo: list[tuple[tuple, dict]] = []
        seen: set[tuple] = set()
        for key, assignment in zip(keys, assignments):
            if key in memo or key in seen:
                continue
            seen.add(key)
            todo.append((key, dict(assignment)))
        if level == "analytic":
            self.analytic_evals += len(todo)
        else:
            self.confirmed_evals += len(todo)

        pending: list[tuple[tuple, dict, str | None]] = []
        for key, assignment in todo:
            cache_key = None
            if self.cache is not None:
                cache_key = self._cache_key(assignment, level)
                score = self.cache.lookup(cache_key)
                if score is not None:
                    memo[key] = float(score)
                    continue
            pending.append((key, assignment, cache_key))

        if pending:
            self.engine_runs += len(pending)
            scores = self._evaluate(level, [a for _, a, _ in pending])
            for (key, assignment, cache_key), score in zip(pending, scores):
                memo[key] = float(score)
                if self.cache is not None:
                    self.cache.store(
                        cache_key,
                        float(score),
                        meta={
                            "problem": self.problem.name,
                            "level": level,
                            "assignment": dict(assignment),
                        },
                    )
        return [memo[key] for key in keys]

    def _evaluate(self, level: str, assignments: list[dict]) -> list[float]:
        if self.workers > 1 and len(assignments) > 1:
            scores = self._evaluate_parallel(level, assignments)
            if scores is not None:
                return scores
        return [self._evaluate_one(level, a) for a in assignments]

    def _evaluate_one(self, level: str, assignment: Mapping) -> float:
        if level == "confirmed":
            return self._run_engine(assignment, self.problem.confirm_engine)
        if self._topology_shape(assignment) in ("tree", "two-tier"):
            return self._topology_closure(assignment)
        return self._run_engine(assignment, "hybrid")

    def _evaluate_parallel(self, level: str, assignments: list[dict]):
        """Fan one frontier over the shared pool; None → serial fallback."""
        pool = self._ensure_pool()
        if pool is None:
            return None
        payload = json.dumps(self.problem.to_dict(), sort_keys=True)
        chunks = self._chunk_frontier(level, list(enumerate(assignments)))
        try:
            futures = [
                pool.submit(
                    _evaluate_chunk, payload, level, [a for _, a in chunk]
                )
                for chunk in chunks
            ]
            scores: list[float] = [0.0] * len(assignments)
            for chunk, future in zip(chunks, futures):
                for (index, _), score in zip(chunk, future.result()):
                    scores[index] = score
            return scores
        except BrokenProcessPool as exc:
            from repro.util.pool import warn_pool_unavailable

            warn_pool_unavailable(exc)
            self.close()
            self._pool_unavailable = True
            return None

    def _chunk_frontier(
        self, level: str, indexed: list[tuple[int, dict]]
    ) -> list[list[tuple[int, dict]]]:
        """Split one frontier into worker chunks.

        For topology problems the analytic score shares the memoised
        pass-1 fleet across every candidate with the same client-tier
        sub-assignment, so chunks start as one-per-client-tier-group —
        each worker simulates its group's pass 1 once — and only the
        largest groups are halved until the pool can balance.  Everything
        else (fleet problems, confirmations) is independent per
        candidate, so plain contiguous chunks spread the load.
        """
        if level == "analytic" and self.problem.system_kind == "topology":
            target = min(len(indexed), self.workers * 2)
            groups: dict[tuple, list[tuple[int, dict]]] = {}
            for index, assignment in indexed:
                key = tuple(
                    (name, assignment.get(name))
                    for name in _CLIENT_TIER_KEYS
                    if name in assignment
                )
                groups.setdefault(key, []).append((index, assignment))
            chunks = list(groups.values())
            while len(chunks) < target:
                chunks.sort(key=len, reverse=True)
                if len(chunks[0]) < 2:
                    break
                big = chunks.pop(0)
                half = len(big) // 2
                chunks.extend([big[:half], big[half:]])
            return chunks
        n_chunks = min(len(indexed), self.workers * 4)
        chunk_size = -(-len(indexed) // n_chunks)  # ceil division
        return [
            indexed[lo:lo + chunk_size]
            for lo in range(0, len(indexed), chunk_size)
        ]

    def _ensure_pool(self):
        if self._pool is None and not self._pool_unavailable:
            from repro.util.pool import create_pool

            self._pool = create_pool(self.workers)
            if self._pool is None:
                self._pool_unavailable = True
        return self._pool

    # -- the persistent cache key -----------------------------------------
    def _cache_key(self, assignment: Mapping, level: str) -> str:
        """Content hash of (one-cell spec, engine, version) for one score."""
        from repro.util.evalcache import eval_cache_key

        if level == "confirmed":
            engine = self.problem.confirm_engine
            spec = self._engine_spec(assignment, engine)
            extra = None
        elif self._topology_shape(assignment) in ("tree", "two-tier"):
            engine = "che-closure"
            spec = self.problem.base_spec(assignment)
            extra = {"sample": int(self.problem.sample)}
        else:
            engine = "hybrid"
            spec = self._engine_spec(assignment, "hybrid")
            extra = None
        return eval_cache_key(spec.to_dict(), engine, extra=extra)

    # -- engine-backed evaluation -----------------------------------------
    def _topology_shape(self, assignment: Mapping) -> str | None:
        if self.problem.system_kind != "topology":
            return None
        merged = {**self.problem.system, **dict(assignment)}
        return str(merged.get("topology", "tree"))

    def _run_engine(self, assignment: Mapping, engine: str) -> float:
        from repro.experiments.engine import run_cell

        spec = self._engine_spec(assignment, engine)
        return float(run_cell(spec, spec.cells()[0]).metrics["mean_access_time"])

    def _engine_spec(self, assignment: Mapping, engine: str):
        problem = self.problem
        spec = problem.base_spec(assignment)
        workload = {**spec.workload, "engine": str(engine)}
        if engine == "hybrid":
            workload["hybrid_sample"] = int(problem.sample) or int(problem.n_clients)
        return replace(spec, workload=workload)

    # -- the Che closure for tree / two-tier hierarchies -------------------
    def _closure_population(self, wl: Mapping, seed: int):
        """The (shared, reused) sampled population of the closure.

        Identical across candidates by the CRN guarantee — decision
        variables are component params, excluded from every draw — but
        keyed defensively on the workload-shaping values so a future
        non-CRN caller can never be served the wrong draws.
        """
        from repro.distsys.megafleet import sample_client_ids
        from repro.experiments.engine import _build_dynamic_population
        from repro.experiments.spec import KIND_INFO

        problem = self.problem
        component = set(KIND_INFO[problem.system_kind].component_params)
        key = (
            int(seed),
            tuple(sorted(
                (k, repr(v)) for k, v in wl.items() if k not in component
            )),
        )
        if key not in self._population_memo:
            n = int(problem.n_clients)
            k = min(int(problem.sample) or n, n)
            self._population_memo[key] = _build_dynamic_population(
                wl, n, int(problem.iterations), seed,
                client_ids=sample_client_ids(n, k),
            ).population
        return self._population_memo[key]

    def _closure_pass1(self, wl: Mapping, seed: int, population):
        """Pass 1 — the sampled star fleet (client tier exactly, no
        hierarchy): measures the uplink access rate the tiers above see
        and the *measured* client-tier miss stream that seeds them.

        Memoised on the client-tier sub-assignment: server/edge-only
        moves reuse the simulated sample instead of re-running it.
        Returns ``(config, star_mean, makespan, uplink_accesses,
        edge_pdf)`` with ``edge_pdf is None`` when nothing missed.
        """
        from repro.analysis.cacheperf import empirical_pdf
        from repro.distsys.fleet import AccessStats, run_fleet
        from repro.experiments.engine import build_config

        key = tuple((name, wl[name]) for name in _CLIENT_TIER_KEYS)
        cached = self._pass1_memo.get(key)
        if cached is not None:
            return cached

        # The origin's contention and penalty enter analytically later.
        config = replace(
            build_config(wl).client_fleet(), concurrency=None, miss_penalty=0.0
        )
        pre = run_fleet(population, config)
        uplink_accesses = sum(s.pending_waits + s.misses for s in pre.client_stats)

        # Edge demand = the items the simulated clients actually took to the
        # uplink (serve_kinds aligns 1:1 with each client's trace).  Seeding
        # Che with this measured stream, not a cascaded estimate, keeps the
        # edge prediction within ~2pp of the event engine: the raw Che
        # client tier underestimates LRU-with-planner hit rates, so its miss
        # stream is too hot.  With nothing reaching the uplink the hierarchy
        # adds nothing.
        missed = [
            int(item)
            for client, stats in zip(population.clients, pre.client_stats)
            for item, kind in zip(client.trace.items, stats.serve_kinds)
            if kind != AccessStats.KIND_HIT
        ]
        edge_pdf = (
            empirical_pdf(missed, population.n_items) if missed else None
        )
        result = (
            config,
            float(pre.aggregate.mean_access_time),
            float(pre.makespan),
            uplink_accesses,
            edge_pdf,
        )
        self._pass1_memo[key] = result
        return result

    def _topology_closure(self, assignment: Mapping) -> float:
        import numpy as np

        from repro.analysis.cacheperf import miss_stream_cascade, service_moments
        from repro.distsys.fleet import run_fleet
        from repro.distsys.megafleet import _contention_wait
        from repro.experiments.engine import cell_knobs

        problem = self.problem
        spec = problem.base_spec(assignment)
        cell = spec.cells()[0]
        seed = spec.cell_seed(cell)
        wl = cell_knobs(spec, cell)  # decision values included (workload keys)
        n = int(problem.n_clients)
        k = min(int(problem.sample) or n, n)
        population = self._closure_population(wl, seed)
        sizes = np.asarray(population.sizes, dtype=np.float64)
        shape = str(wl["topology"])

        config, star_mean, makespan, uplink_accesses, edge_pdf = (
            self._closure_pass1(wl, seed, population)
        )
        if edge_pdf is None:
            return star_mean

        # Che miss-stream cascade along the remaining path, batched in one
        # call (edge → mid → server).  The edge prefetch budget bounds
        # in-flight speculation, not cached items — measured nearly
        # service-neutral on i.i.d. sources — so it enters the score
        # through its cost only, never as extra capacity.
        tier_sizes = [int(wl["edge_cache_size"])]
        if shape == "two-tier":
            tier_sizes.append(int(wl["mid_cache_size"]))
        tier_sizes.append(int(wl["server_cache_size"]))
        ratios, pdfs = miss_stream_cascade(edge_pdf, tier_sizes)
        h_edge, after_edge = ratios[0], pdfs[0]
        if shape == "two-tier":
            h_mid, after_mid = ratios[1], pdfs[1]
        else:
            h_mid, after_mid = 0.0, after_edge
        h_server = ratios[-1]
        penalty = float(wl["miss_penalty"]) * (1.0 - h_server)

        def transfer(pdf_in, latency, bandwidth):
            return float(
                np.sum(pdf_in * (float(latency) + sizes / float(bandwidth)))
            )

        t_edge_up = transfer(after_edge, wl["edge_latency"], wl["edge_bandwidth"])
        t_mid_up = transfer(after_mid, wl["mid_latency"], wl["mid_bandwidth"])

        # M/G/c wait at the origin for the fraction of uplink accesses that
        # miss every intermediate tier, at the full-fleet arrival rate.
        wait = 0.0
        concurrency = int(wl["concurrency"])
        if concurrency > 0 and makespan > 0:
            rate = (uplink_accesses / k) * n / makespan
            f_origin = (1.0 - h_edge) * (
                (1.0 - h_mid) if shape == "two-tier" else 1.0
            )
            up_latency = wl["mid_latency"] if shape == "two-tier" else wl["edge_latency"]
            up_bandwidth = (
                wl["mid_bandwidth"] if shape == "two-tier" else wl["edge_bandwidth"]
            )
            service = float(up_latency) + sizes / float(up_bandwidth)
            mean_service, scv = service_moments(after_mid, service + penalty)
            wait, _ = _contention_wait(
                rate * f_origin, concurrency, mean_service, scv
            )

        # Expected extra delay per uplink access beyond the star cost.
        if shape == "two-tier":
            extra = (1.0 - h_edge) * (
                t_edge_up + (1.0 - h_mid) * (t_mid_up + wait + penalty)
            )
        else:
            extra = (1.0 - h_edge) * (t_edge_up + wait + penalty)

        # Pass 2 — fold the hierarchy into the sample's miss penalty (the
        # hybrid closure's server-tier folding, applied per uplink transfer).
        res = run_fleet(population, replace(config, miss_penalty=extra))
        return float(res.aggregate.mean_access_time)


#: Per-process evaluator reuse for pool workers: one serial evaluator per
#: problem, so the population and pass-1 memos survive across the chunks a
#: reused pool ships to the same worker.
_WORKER_EVALUATORS: dict[str, CandidateEvaluator] = {}


def _evaluate_chunk(
    problem_payload: str, level: str, assignments: list[dict]
) -> list[float]:
    """Worker-side chunk evaluation (module-level so it pickles)."""
    evaluator = _WORKER_EVALUATORS.get(problem_payload)
    if evaluator is None:
        _WORKER_EVALUATORS.clear()  # one problem at a time; free old memos
        evaluator = CandidateEvaluator(
            PlacementProblem.from_dict(json.loads(problem_payload))
        )
        _WORKER_EVALUATORS[problem_payload] = evaluator
    score = evaluator.analytic if level == "analytic" else evaluator.confirmed
    return [score(dict(assignment)) for assignment in assignments]
