"""Command-line interface: ``python -m repro <command>``.

Small, dependency-free front door for the library:

* ``solve``      — solve one SKP instance given on the command line;
* ``simulate``   — run the §4.4 prefetch-only experiment and print a summary;
* ``figure7``    — run one Figure 7 point (policy × cache size);
* ``fleet``      — run one fleet point: N clients sharing a contended
  server uplink on a population workload, optionally non-stationary
  (``--drift``) and planned from a learned model (``--model-source``);
* ``topology``   — run one cache-hierarchy point: the fleet routed through
  star/tree/two-tier proxy tiers with per-tier speculation, plus the Che
  analytical reference for the edge hit ratio (same drift/model knobs);
* ``gateway``    — the live speculation sidecar: ``serve`` runs the asyncio
  HTTP service (``POST /v1/access`` → prefetch advice), ``bench`` replays a
  population workload (``zipf-mix``/``markov-pop``/``trace:<path>``) against
  an in-process gateway and reports decision latency, sustained RPS, and the
  closed-loop hit-rate comparison;
* ``experiment`` — the spec-driven experiments API: ``run`` a preset or spec
  file across worker processes (including the ``fleet-*`` and ``edge-*``
  presets), ``list`` the preset/component catalogs, ``describe`` one preset;
* ``optimize``   — cost-aware placement search (``repro.optimize``): ``run``
  one greedy/coordinate/exhaustive driver on an ``opt-*`` preset and print
  the candidate trail, ``list`` the optimize presets, ``describe`` one
  problem's decision variables, bounds and cost budget;
* ``tournament`` — the standing predictor bake-off: ``run`` a tournament
  preset (every predictor × dynamics scenario × oracle/online on CRN-shared
  streams) and print the ranked scoreboard with oracle→baseline gap
  closure, ``list`` the tournament presets;
* ``version``    — print the package version.

Installed as the ``repro`` console script (``pip install -e .`` →
``repro gateway serve``), or runnable without installation as
``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _float_list(parser: argparse.ArgumentParser, option: str, text: str) -> np.ndarray:
    try:
        return np.asarray([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError:
        parser.error(f"{option} must be a comma-separated list of numbers, got {text!r}")


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro import PrefetchProblem, solve_kp, solve_skp, solve_skp_exact, upper_bound

    p = _float_list(args.parser, "--probabilities", args.probabilities)
    r = _float_list(args.parser, "--retrievals", args.retrievals)
    if p.shape != r.shape:
        args.parser.error(
            f"--probabilities has {p.shape[0]} values but --retrievals has "
            f"{r.shape[0]}; the lists must be the same length"
        )
    try:
        problem = PrefetchProblem(p, r, args.viewing_time)
    except ValueError as exc:
        args.parser.error(str(exc))
    kp = solve_kp(problem)
    skp = solve_skp(problem, variant=args.variant)
    exact = solve_skp_exact(problem)
    print(f"instance: n={problem.n} v={problem.viewing_time:g} sum(P)={p.sum():.4f}")
    print(f"KP   plan {kp.plan.items} g={kp.value:.4f}")
    print(f"SKP  plan {skp.plan.items} g={skp.gain:.4f} (nodes {skp.nodes})")
    print(f"exact plan {exact.plan.items} g={exact.gain:.4f}")
    print(f"upper bound (eq.7) {upper_bound(problem):.4f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation import (
        KPPrefetch,
        NoPrefetch,
        PerfectPrefetch,
        PrefetchOnlyConfig,
        SKPPrefetch,
        run_prefetch_only,
    )

    config = PrefetchOnlyConfig(
        n=args.items, iterations=args.iterations, method=args.method, seed=args.seed
    )
    result = run_prefetch_only(
        config, [NoPrefetch(), KPPrefetch(), SKPPrefetch(), PerfectPrefetch()]
    )
    print(f"prefetch-only: n={args.items} method={args.method} iters={args.iterations}")
    for series in result.series:
        print(f"  {series.name:18s} mean T = {series.mean():7.3f}")
    return 0


def _cmd_figure7(args: argparse.Namespace) -> int:
    from repro.simulation import FIGURE7_POLICIES, PrefetchCacheConfig, run_prefetch_cache
    from repro.workload import generate_markov_source

    if args.policy not in FIGURE7_POLICIES:
        print(f"unknown policy {args.policy!r}; choose from {list(FIGURE7_POLICIES)}", file=sys.stderr)
        return 2
    source = generate_markov_source(100, seed=args.source_seed)
    cfg = PrefetchCacheConfig(
        cache_size=args.cache_size,
        n_requests=args.requests,
        seed=args.seed,
        **FIGURE7_POLICIES[args.policy],
    )
    res = run_prefetch_cache(source, cfg)
    print(
        f"{args.policy} cache={args.cache_size}: mean T {res.mean_access_time:.4f}, "
        f"hit rate {res.hit_rate:.3f}, prefetch precision {res.prefetch_precision:.3f}"
    )
    return 0


def _build_from_args(args: argparse.Namespace, kind: str, **knobs):
    """Build the system one ``fleet`` / ``topology`` invocation describes.

    The shared options (and the subcommand's own ``knobs``) map onto the
    ``kind``'s workload defaults and go through the experiment kinds'
    builder, :func:`repro.experiments.engine.build_fleet`, so a bad value
    fails exactly as it does in a spec — here as a one-line usage error.
    The population and server cache are seeded with the raw ``--seed``.
    """
    from repro.experiments import KIND_INFO, RegistryError
    from repro.experiments.engine import build_fleet

    wl = dict(KIND_INFO[kind].workload_defaults)
    wl.update(
        policy=args.policy,
        n_clients=args.clients,
        source=args.source,
        n=args.catalog,
        overlap=args.overlap,
        stagger=args.stagger,
        cache_capacity=args.cache_capacity,
        concurrency=args.concurrency,
        discipline=args.discipline,
        server_cache=args.server_cache,
        server_cache_size=args.server_cache_size,
        miss_penalty=args.miss_penalty,
        drift=args.drift,
        drift_regimes=args.drift_regimes,
        model_source=args.model_source,
        online_predictor=args.online_predictor,
        **knobs,
    )
    try:
        return build_fleet(wl, args.requests, args.seed)
    except (ValueError, RegistryError) as exc:
        args.parser.error(str(exc))


def _run_maybe_profiled(args: argparse.Namespace, fn, *fn_args, **fn_kwargs):
    """Run the simulation, optionally under cProfile (``--profile``).

    With ``--profile`` the sorted stats table goes to stderr after the run,
    so the normal result report on stdout stays clean and parseable.
    """
    if not getattr(args, "profile", False):
        return fn(*fn_args, **fn_kwargs)
    from repro.util.perf import profile_call

    result, stats = profile_call(
        fn, *fn_args, sort=args.profile_sort, limit=args.profile_limit, **fn_kwargs
    )
    print(stats, file=sys.stderr)
    return result


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.distsys.fleet import run_fleet

    build = _build_from_args(
        args,
        "fleet",
        engine=args.engine,
        hybrid_sample=args.hybrid_sample,
        v_quantum=args.v_quantum,
    )
    res = _run_maybe_profiled(
        args, run_fleet, build.population, build.config,
        server_cache=build.server_cache,
    )
    agg = res.aggregate
    print(
        f"fleet: {args.clients} clients x {args.requests} requests "
        f"({args.source}, catalog {args.catalog}, "
        f"uplink {args.concurrency if args.concurrency > 0 else 'unbounded'} "
        f"slots, {args.discipline}, engine {args.engine})"
    )
    print(
        f"  mean T {agg.mean_access_time:.4f}  p50 {agg.p50_access_time:.4f}  "
        f"p95 {agg.p95_access_time:.4f}  p99 {agg.p99_access_time:.4f}"
    )
    print(
        f"  hit rate {agg.hit_rate:.3f}  prefetch precision "
        f"{agg.prefetch_precision:.3f}  fairness {agg.fairness:.3f}"
    )
    busy = (
        f"utilization {res.server_utilization:.3f}"
        if args.concurrency > 0
        else f"offered load {res.offered_load:.3f}"
    )
    print(
        f"  server: {busy}  prefetch load "
        f"{res.prefetch_load_frac:.3f}  transfers {res.transfers_granted}  "
        f"makespan {res.makespan:.1f}  events {res.events}"
    )
    if args.engine == "event" and build.server_cache is not None:
        print(f"  server cache hit rate {res.server_cache_hit_rate:.3f}")
    if args.engine == "cohort":
        print(
            f"  cohort: {res.n_cohorts} cohorts  plan solves {res.plan_solves}  "
            f"memo hits {res.plan_memo_hits}"
            + ("  [saturated]" if res.saturated else "")
        )
    elif args.engine == "hybrid":
        print(
            f"  hybrid: {res.sample_size} simulated of {res.n_modeled} modeled  "
            f"delta wait {res.delta_wait:.4f}  "
            f"iterations {res.fixed_point_iterations}"
            + ("" if res.converged else "  [not converged]")
            + ("  [saturated]" if res.saturated else "")
        )
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.analysis.cacheperf import che_edge_reference
    from repro.distsys.topology import CacheNetwork

    build = _build_from_args(
        args,
        "topology",
        topology=args.topology,
        n_edges=args.edges,
        placement=args.placement,
        edge_cache=args.edge_cache,
        edge_cache_size=args.edge_cache_size,
        edge_prefetch_budget=args.edge_prefetch_budget,
        mid_cache_size=args.mid_cache_size,
    )
    network = CacheNetwork(
        build.population, build.config, server_cache=build.server_cache, seed=args.seed
    )
    res = _run_maybe_profiled(args, network.run)
    agg = res.aggregate
    # Report the hierarchy actually built, not the flags: star ignores
    # --edges, and edge-side speculation is inert without a cache to fill
    # (star / --edge-cache-size 0) or with a zero prefetch budget.
    n_edges = res.tiers[0].n_proxies
    placement = args.placement
    if not (res.tiers[0].caching and args.edge_prefetch_budget > 0):
        placement = {"edge": "none", "both": "client"}.get(placement, placement)
    print(
        f"topology: {args.topology}, {args.clients} clients x {args.requests} "
        f"requests ({args.source}, catalog {args.catalog}, "
        f"{n_edges} edge prox{'y' if n_edges == 1 else 'ies'}, "
        f"placement {placement})"
    )
    print(
        f"  mean T {agg.mean_access_time:.4f}  p50 {agg.p50_access_time:.4f}  "
        f"p95 {agg.p95_access_time:.4f}  p99 {agg.p99_access_time:.4f}"
    )
    print(
        f"  client hit rate {agg.hit_rate:.3f}  prefetch precision "
        f"{agg.prefetch_precision:.3f}  fairness {agg.fairness:.3f}"
    )
    for tier in res.tiers:
        if tier.requests == 0:
            plural = "proxy" if tier.n_proxies == 1 else "proxies"
            print(f"  {tier.tier}: pass-through ({tier.n_proxies} {plural})")
            continue
        print(
            f"  {tier.tier}: {tier.requests} requests  hit rate {tier.hit_rate:.3f}  "
            f"upstream fetches {tier.upstream_demand_fetches}  "
            f"prefetches {tier.prefetches_issued} issued / "
            f"{tier.prefetches_used} used"
        )
    busy = (
        f"utilization {res.origin_utilization:.3f}"
        if args.concurrency > 0
        else f"offered load {res.offered_load:.3f}"
    )
    print(
        f"  origin: {busy}  prefetch load {res.prefetch_load_frac:.3f}  "
        f"transfers {res.transfers_granted}  makespan {res.makespan:.1f}  "
        f"events {res.events}"
    )
    if build.server_cache is not None:
        print(f"  origin cache hit rate {res.server_cache_hit_rate:.3f}")
    che = che_edge_reference(build.population, res)
    if che > 0.0:
        print(f"  che edge reference (IRM, unfiltered demand): {che:.3f}")
    return 0


# ---------------------------------------------------------------------------
# gateway subcommands
# ---------------------------------------------------------------------------

def _gateway_config_from_args(args: argparse.Namespace, sizes=None):
    """Build a GatewayConfig from the shared serve/bench options.

    ``sizes`` pins the catalog to a workload's item sizes (the bench path —
    the closed-loop reference plans over the same retrieval times only if
    the gateway does too); ``serve`` uses the uniform §5 catalog.
    """
    from repro.experiments import CACHE_POLICIES, PIPELINES, PREDICTORS
    from repro.gateway import GatewayConfig, SessionConfig, TierSpec

    if args.policy not in PIPELINES:
        args.parser.error(
            f"unknown pipeline {args.policy!r}; available: {', '.join(PIPELINES.names())}"
        )
    if args.predictor not in PREDICTORS:
        args.parser.error(
            f"unknown predictor {args.predictor!r}; "
            f"available: {', '.join(PREDICTORS.names())}"
        )
    if args.edge_cache not in CACHE_POLICIES:
        args.parser.error(
            f"unknown cache policy {args.edge_cache!r}; "
            f"available: {', '.join(CACHE_POLICIES.names())}"
        )
    pipeline = dict(PIPELINES.get(args.policy))
    session = SessionConfig(
        cache_capacity=args.cache_capacity,
        strategy=str(pipeline["strategy"]),
        sub_arbitration=pipeline["sub_arbitration"],
        predictor=args.predictor,
        ttl=args.ttl,
        max_sessions=args.max_sessions,
    )
    tiers = []
    if args.edge_cache_size > 0:
        tiers.append(TierSpec("edge", args.edge_cache, args.edge_cache_size))
    if args.mid_cache_size > 0:
        tiers.append(TierSpec("mid", args.edge_cache, args.mid_cache_size))
    common = dict(
        session=session,
        tiers=tuple(tiers),
        latency=args.latency,
        bandwidth=args.bandwidth,
        seed=args.seed,
    )
    if sizes is not None:
        return GatewayConfig(sizes=sizes, **common)
    return GatewayConfig.uniform(args.catalog, **common)


def _cmd_gateway_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.gateway import serve

    config = _gateway_config_from_args(args)
    try:
        asyncio.run(serve(config, host=args.host, port=args.port))
    except KeyboardInterrupt:
        print("gateway stopped")
    return 0


def _gateway_population_from_args(args: argparse.Namespace):
    """Build the bench population; supports ``trace:<path>`` sources.

    A trace source with ``--catalog 0`` infers the catalog from the log and
    writes it back into ``args.catalog`` so the gateway config matches.
    """
    from repro.experiments import WORKLOADS

    source = args.source
    if source.startswith("trace:"):
        path = Path(source[len("trace:"):])
        if not path.is_file():
            args.parser.error(f"trace file not found: {path}")
        try:
            population = WORKLOADS.create(
                "trace", args.clients, args.catalog, args.requests,
                path=str(path), stagger=0.0, seed=args.seed,
            )
        except ValueError as exc:  # malformed log, 1-entry trace, small catalog
            args.parser.error(str(exc))
        args.catalog = population.n_items
        return population
    if source not in ("zipf-mix", "markov-pop"):
        args.parser.error("--source must be zipf-mix, markov-pop, or trace:<path>")
    if args.catalog < 2:
        args.parser.error("--catalog must be at least 2 for synthetic sources")
    common = dict(stagger=0.0, seed=args.seed)
    if source == "zipf-mix":
        return WORKLOADS.create(
            "zipf-mix", args.clients, args.catalog, args.requests,
            overlap=args.overlap, **common,
        )
    return WORKLOADS.create(
        "markov-pop", args.clients, args.catalog, args.requests, **common
    )


def _cmd_gateway_bench(args: argparse.Namespace) -> int:
    from repro.gateway import closed_loop_reference, run_gateway_bench

    population = _gateway_population_from_args(args)
    config = _gateway_config_from_args(args, sizes=population.sizes)
    result, snapshot = run_gateway_bench(
        population,
        config,
        time_scale=args.time_scale,
        max_concurrency=args.max_concurrency,
    )
    print(
        f"gateway bench: {result.sessions} sessions x {args.requests} requests "
        f"({args.source}, catalog {config.n_items}, "
        f"concurrency {args.max_concurrency})"
    )
    print(
        f"  {result.reports} decisions in {result.elapsed_s:.2f}s = "
        f"{result.decisions_per_s:,.0f} decisions/s"
    )
    print(
        f"  latency p50 {result.latency_p50_s * 1e3:.2f}ms  "
        f"p90 {result.latency_p90_s * 1e3:.2f}ms  "
        f"p99 {result.latency_p99_s * 1e3:.2f}ms  "
        f"max {result.latency_max_s * 1e3:.2f}ms"
    )
    print(
        f"  open-loop: hit rate {result.hit_rate:.3f} "
        f"({result.hits} hit / {result.waits} wait / {result.misses} miss), "
        f"mean T {result.mean_access_time:.4f}, "
        f"{result.prefetches_advised} prefetches advised"
    )
    for tier in snapshot.get("tiers", ()):
        print(
            f"  mirror tier {tier['tier']}: hit rate {tier['hit_rate']:.3f} "
            f"({tier['items']}/{tier['capacity']} items)"
        )
    if result.errors:
        print(f"  ERRORS: {result.errors}", file=sys.stderr)
        return 1
    if not args.no_closed_loop:
        reference = closed_loop_reference(population, config)
        closed = reference.aggregate.hit_rate
        gap = abs(result.hit_rate - closed)
        print(
            f"  closed-loop reference: hit rate {closed:.3f}  "
            f"gap {gap * 100:.2f}pp"
        )
    return 0


# ---------------------------------------------------------------------------
# experiment subcommands
# ---------------------------------------------------------------------------

def _cmd_experiment_list(_args: argparse.Namespace) -> int:
    from repro.experiments import all_registries, preset, preset_names

    print("experiment presets:")
    for name in preset_names():
        print(f"  {preset(name).summary()}")
    print()
    print("component registries:")
    for family, registry in all_registries().items():
        print(f"  {family:14s} {', '.join(registry.names())}")
    return 0


def _cmd_experiment_describe(args: argparse.Namespace) -> int:
    from repro.experiments import PRESETS, preset

    if args.name not in PRESETS:
        args.parser.error(
            f"unknown preset {args.name!r}; available: {', '.join(PRESETS.names())}"
        )
    spec = preset(args.name)
    print(spec.summary())
    if spec.description:
        print(spec.description)
    print()
    print(spec.to_json(indent=2))
    return 0


def _cmd_experiment_run(args: argparse.Namespace) -> int:
    from repro.experiments import (
        PRESETS,
        ExperimentSpec,
        RegistryError,
        default_workers,
        preset,
        run,
    )

    if args.spec_file is not None:
        path = Path(args.spec_file)
        if not path.is_file():
            args.parser.error(f"spec file not found: {path}")
        try:
            spec = ExperimentSpec.from_json(path.read_text())
        except (ValueError, RegistryError) as exc:  # bad JSON, SpecError, unknown name
            args.parser.error(f"invalid spec file {path}: {exc}")
    else:
        if args.name is None:
            args.parser.error("give a preset name or --spec-file")
        if args.name not in PRESETS:
            args.parser.error(
                f"unknown preset {args.name!r}; available: {', '.join(PRESETS.names())}"
            )
        spec = preset(args.name)
    spec = spec.with_overrides(iterations=args.iterations, seed=args.seed)

    workers = default_workers() if args.workers is None else args.workers  # for display
    total = len(spec.cells())
    print(f"{spec.summary()} [workers={workers}]", file=sys.stderr)

    def progress(done: int, _total: int, cell) -> None:
        if args.quiet:
            return
        params = " ".join(f"{k}={v}" for k, v in cell.params.items())
        metrics = " ".join(f"{k}={v:.4g}" for k, v in cell.metrics.items())
        print(f"  [{done}/{total}] {params}: {metrics}", file=sys.stderr)

    result = run(spec, workers=workers, progress=progress)
    csv_path, json_path = result.write(args.output_dir)
    print(result.format_table())
    print(f"\nwrote {csv_path} and {json_path}")
    return 0


# ---------------------------------------------------------------------------
# optimize subcommands
# ---------------------------------------------------------------------------

def _optimize_preset(args: argparse.Namespace):
    """Resolve an ``optimize``-kind preset or fail with the valid names."""
    from repro.experiments import PRESETS, preset

    if args.name not in PRESETS:
        args.parser.error(
            f"unknown preset {args.name!r}; available: {', '.join(PRESETS.names())}"
        )
    spec = preset(args.name)
    if spec.kind != "optimize":
        names = [n for n in PRESETS.names() if preset(n).kind == "optimize"]
        args.parser.error(
            f"preset {args.name!r} is kind {spec.kind!r}, not an optimize "
            f"preset; choose from: {', '.join(names)}"
        )
    return spec


def _cmd_optimize_run(args: argparse.Namespace) -> int:
    from repro.optimize import OptimizeError, optimize, problem_from_spec
    from repro.util import EvalCache, available_workers

    spec = _optimize_preset(args).with_overrides(
        iterations=args.iterations, seed=args.seed
    )
    problem = problem_from_spec(spec)
    workers = available_workers() if args.workers is None else args.workers
    cache = EvalCache(args.cache_dir) if args.cache else None
    print(
        f"{spec.summary()} [driver={args.driver} workers={workers} "
        f"cache={'off' if cache is None else cache.directory}]",
        file=sys.stderr,
    )
    try:
        result = optimize(problem, driver=args.driver, workers=workers, cache=cache)
    except OptimizeError as exc:
        args.parser.error(str(exc))
    print(result.format_table())
    if args.output:
        path = Path(args.output)
        path.write_text(result.to_json(indent=2))
        print(f"\nwrote {path}")
    return 0


def _cmd_optimize_list(_args: argparse.Namespace) -> int:
    from repro.experiments import preset, preset_names
    from repro.optimize import problem_from_spec

    print("optimize presets:")
    for name in preset_names():
        spec = preset(name)
        if spec.kind != "optimize":
            continue
        problem = problem_from_spec(spec)
        print(f"  {spec.summary()}")
        print(
            f"    {problem.system_kind} system, {len(problem.variables)} "
            f"variables, budget {problem.budget:g}, "
            f"{problem.n_candidates} raw candidates"
        )
    return 0


def _cmd_optimize_describe(args: argparse.Namespace) -> int:
    from repro.optimize import problem_from_spec

    spec = _optimize_preset(args)
    problem = problem_from_spec(spec)
    print(spec.summary())
    if spec.description:
        print(spec.description)
    print()
    print(
        f"system: {problem.system_kind}, policy {problem.policy}, "
        f"{problem.n_clients} clients × {problem.iterations} requests, "
        f"confirm engine {problem.confirm_engine} (top {problem.confirm_top})"
    )
    print(
        f"{'variable':24s}  {'values':>20s}  {'unit':>6s}  "
        f"{'replicas':>12s}  {'max cost':>9s}"
    )
    for var in problem.variables:
        replicas = problem.replica_count(var)
        label = (
            f"{var.replicas} ×{replicas}"
            if isinstance(var.replicas, str)
            else f"×{replicas}"
        )
        max_cost = max(problem.variable_cost(var.name, v) for v in var.values)
        values = " ".join(str(v) for v in var.values)
        print(
            f"{var.name:24s}  {values:>20s}  {var.unit_cost:6.1f}  "
            f"{label:>12s}  {max_cost:9.1f}"
        )
    baseline = problem.uniform_baseline()
    print(
        f"budget {problem.budget:g}  (cheapest corner costs "
        f"{problem.cost(problem.cheapest_assignment()):g})"
    )
    print(
        "uniform baseline: "
        + " ".join(f"{k}={v}" for k, v in baseline.items())
        + f"  (cost {problem.cost(baseline):g})"
    )
    return 0


# ---------------------------------------------------------------------------
# tournament subcommands
# ---------------------------------------------------------------------------

def _tournament_preset(args: argparse.Namespace):
    """Resolve a ``tournament``-kind preset or fail with the valid names."""
    from repro.experiments import PRESETS, preset

    if args.name not in PRESETS:
        args.parser.error(
            f"unknown preset {args.name!r}; available: {', '.join(PRESETS.names())}"
        )
    spec = preset(args.name)
    if spec.kind != "tournament":
        names = [n for n in PRESETS.names() if preset(n).kind == "tournament"]
        args.parser.error(
            f"preset {args.name!r} is kind {spec.kind!r}, not a tournament "
            f"preset; choose from: {', '.join(names)}"
        )
    return spec


def _cmd_tournament_run(args: argparse.Namespace) -> int:
    from repro.experiments import default_workers, run
    from repro.experiments.tournament import format_scoreboard, scoreboard

    spec = _tournament_preset(args).with_overrides(
        iterations=args.iterations, seed=args.seed
    )
    workers = default_workers() if args.workers is None else args.workers
    total = len(spec.cells())
    print(f"{spec.summary()} [workers={workers}]", file=sys.stderr)

    def progress(done: int, _total: int, cell) -> None:
        if args.quiet:
            return
        params = " ".join(f"{k}={v}" for k, v in cell.params.items())
        print(f"  [{done}/{total}] {params}", file=sys.stderr)

    result = run(spec, workers=workers, progress=progress)
    print(format_scoreboard(scoreboard(result)))
    if args.output_dir:
        csv_path, json_path = result.write(args.output_dir)
        print(f"\nwrote {csv_path} and {json_path}")
    return 0


def _cmd_tournament_list(_args: argparse.Namespace) -> int:
    from repro.experiments import preset, preset_names

    print("tournament presets:")
    for name in preset_names():
        spec = preset(name)
        if spec.kind != "tournament":
            continue
        print(f"  {spec.summary()}")
        if spec.description:
            print(f"    {spec.description}")
    return 0


def _cmd_version(_args: argparse.Namespace) -> int:
    import repro

    print(repro.__version__)
    return 0


def _add_workload_model_options(parser: argparse.ArgumentParser) -> None:
    """Shared fleet/topology knobs: workload dynamics and the planning model."""
    parser.add_argument("--drift", default="none",
                        choices=["none", "regime", "zipf-drift", "flash", "diurnal"],
                        help="non-stationary workload schedule (default: stationary)")
    parser.add_argument("--drift-regimes", type=_positive_int, default=3,
                        help="popularity regimes for --drift regime")
    parser.add_argument("--model-source", default="oracle",
                        choices=["oracle", "online"],
                        help="plan from the t=0 oracle row or a learned online model")
    parser.add_argument("--online-predictor", default="frequency:ewma",
                        help="predictor name for --model-source online")


def _add_profile_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and dump sorted stats to stderr")
    parser.add_argument("--profile-sort", default="cumulative",
                        choices=["cumulative", "tottime", "calls"],
                        help="pstats sort order for --profile")
    parser.add_argument("--profile-limit", type=_positive_int, default=30,
                        help="rows of profile output to print")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one SKP instance")
    solve.add_argument("--probabilities", required=True, help="comma-separated P_i")
    solve.add_argument("--retrievals", required=True, help="comma-separated r_i")
    solve.add_argument("--viewing-time", type=float, required=True)
    solve.add_argument("--variant", choices=["corrected", "faithful"], default="corrected")
    solve.set_defaults(func=_cmd_solve, parser=solve)

    simulate = sub.add_parser("simulate", help="run the §4.4 prefetch-only experiment")
    simulate.add_argument("--items", type=_positive_int, default=10)
    simulate.add_argument("--iterations", type=_positive_int, default=2000)
    simulate.add_argument("--method", choices=["skewy", "flat"], default="skewy")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=_cmd_simulate, parser=simulate)

    fig7 = sub.add_parser("figure7", help="run one Figure 7 point")
    fig7.add_argument("--policy", default="SKP+Pr+DS")
    fig7.add_argument("--cache-size", type=int, default=20)
    fig7.add_argument("--requests", type=_positive_int, default=2000)
    fig7.add_argument("--seed", type=int, default=0)
    fig7.add_argument("--source-seed", type=int, default=42)
    fig7.set_defaults(func=_cmd_figure7, parser=fig7)

    fleet = sub.add_parser("fleet", help="run one fleet point (N clients, shared uplink)")
    fleet.add_argument("--clients", type=_positive_int, default=10)
    fleet.add_argument("--requests", type=_positive_int, default=500,
                       help="requests per client")
    fleet.add_argument("--catalog", type=_positive_int, default=100,
                       help="catalog size (items)")
    fleet.add_argument("--source", default="zipf-mix",
                       choices=["zipf-mix", "markov-pop"])
    fleet.add_argument("--policy", default="skp+pr",
                       help="planner pipeline name (see `experiment list`)")
    fleet.add_argument("--overlap", type=_unit_interval, default=0.5,
                       help="shared-hot-set fraction for zipf-mix")
    fleet.add_argument("--concurrency", type=_nonnegative_int, default=4,
                       help="uplink slots (0 = unbounded)")
    fleet.add_argument("--discipline", default="fifo", choices=["fifo", "fair"])
    fleet.add_argument("--cache-capacity", type=_nonnegative_int, default=8)
    fleet.add_argument("--server-cache", default="lru",
                       help="shared server-side cache policy name")
    fleet.add_argument("--server-cache-size", type=_nonnegative_int, default=0,
                       help="shared server-side cache size (0 = off)")
    fleet.add_argument("--miss-penalty", type=_nonnegative_float, default=0.0,
                       help="backing-store service penalty")
    fleet.add_argument("--engine", default="event",
                       choices=["event", "cohort", "hybrid"],
                       help="simulation engine: exact event loop, vectorized "
                            "cohort kernel, or sampled simulation + analytic "
                            "closure (see docs/scale.md)")
    fleet.add_argument("--hybrid-sample", type=_positive_int, default=64,
                       help="clients actually simulated by --engine hybrid")
    fleet.add_argument("--v-quantum", type=_nonnegative_float, default=0.0,
                       help="round viewing times to this grid (zipf-mix only; "
                            "coarser grids raise the cohort engine's plan-memo "
                            "hit rate)")
    fleet.add_argument("--stagger", type=_nonnegative_float, default=50.0,
                       help="client start times uniform in [0, stagger]")
    fleet.add_argument("--seed", type=int, default=0)
    _add_workload_model_options(fleet)
    _add_profile_options(fleet)
    fleet.set_defaults(func=_cmd_fleet, parser=fleet)

    topology = sub.add_parser(
        "topology", help="run one cache-hierarchy point (clients → proxies → origin)"
    )
    topology.add_argument("--topology", default="tree",
                          help="hierarchy shape: star | tree | two-tier")
    topology.add_argument("--clients", type=_positive_int, default=8)
    topology.add_argument("--edges", type=_positive_int, default=2,
                          help="edge proxies (tree/two-tier)")
    topology.add_argument("--requests", type=_positive_int, default=500,
                          help="requests per client")
    topology.add_argument("--catalog", type=_positive_int, default=100,
                          help="catalog size (items)")
    topology.add_argument("--source", default="zipf-mix",
                          choices=["zipf-mix", "markov-pop"])
    topology.add_argument("--policy", default="skp+pr",
                          help="client planner pipeline name (see `experiment list`)")
    topology.add_argument("--placement", default="both",
                          choices=["none", "client", "edge", "both"],
                          help="where speculation runs")
    topology.add_argument("--overlap", type=_unit_interval, default=0.5,
                          help="shared-hot-set fraction for zipf-mix")
    topology.add_argument("--cache-capacity", type=_nonnegative_int, default=8,
                          help="per-client cache slots")
    topology.add_argument("--edge-cache", default="lru",
                          help="edge-proxy cache policy name")
    topology.add_argument("--edge-cache-size", type=_nonnegative_int, default=25,
                          help="edge-proxy cache size (0 = pass-through)")
    topology.add_argument("--edge-prefetch-budget", type=_nonnegative_int, default=4,
                          help="max speculative fetches in flight per edge proxy")
    topology.add_argument("--mid-cache-size", type=_nonnegative_int, default=0,
                          help="mid-tier cache size (two-tier topology)")
    topology.add_argument("--concurrency", type=_nonnegative_int, default=4,
                          help="origin uplink slots (0 = unbounded)")
    topology.add_argument("--discipline", default="fifo", choices=["fifo", "fair"])
    topology.add_argument("--server-cache", default="lru",
                          help="origin-side cache policy name")
    topology.add_argument("--server-cache-size", type=_nonnegative_int, default=0,
                          help="origin-side cache size (0 = off)")
    topology.add_argument("--miss-penalty", type=_nonnegative_float, default=0.0,
                          help="origin backing-store service penalty")
    topology.add_argument("--stagger", type=_nonnegative_float, default=50.0,
                          help="client start times uniform in [0, stagger]")
    topology.add_argument("--seed", type=int, default=0)
    _add_workload_model_options(topology)
    _add_profile_options(topology)
    topology.set_defaults(func=_cmd_topology, parser=topology)

    gateway = sub.add_parser(
        "gateway", help="run or benchmark the live speculation gateway"
    )
    gsub = gateway.add_subparsers(dest="gateway_command", required=True)

    def _add_gateway_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--catalog", type=_nonnegative_int, default=100,
                            help="catalog size (items); 0 with a trace source "
                                 "infers it from the log")
        parser.add_argument("--policy", default="skp+pr",
                            help="planner pipeline name (see `experiment list`)")
        parser.add_argument("--predictor", default="frequency:ewma",
                            help="per-session online predictor name")
        parser.add_argument("--cache-capacity", type=_nonnegative_int, default=8,
                            help="per-session client cache slots")
        parser.add_argument("--ttl", type=float, default=300.0,
                            help="idle-session TTL (wall-clock seconds)")
        parser.add_argument("--max-sessions", type=_positive_int, default=10_000,
                            help="LRU cap on live sessions")
        parser.add_argument("--edge-cache", default="lru",
                            help="mirrored tier cache policy name")
        parser.add_argument("--edge-cache-size", type=_nonnegative_int, default=64,
                            help="mirrored edge tier size (0 = no edge tier)")
        parser.add_argument("--mid-cache-size", type=_nonnegative_int, default=0,
                            help="mirrored mid tier size (0 = no mid tier)")
        parser.add_argument("--latency", type=_nonnegative_float, default=0.0,
                            help="link latency for retrieval times")
        parser.add_argument("--bandwidth", type=float, default=1.0,
                            help="link bandwidth for retrieval times")
        parser.add_argument("--seed", type=int, default=0)

    gserve = gsub.add_parser("serve", help="run the gateway HTTP service")
    gserve.add_argument("--host", default="127.0.0.1")
    gserve.add_argument("--port", type=_nonnegative_int, default=8273,
                        help="listen port (0 = ephemeral)")
    _add_gateway_options(gserve)
    gserve.set_defaults(func=_cmd_gateway_serve, parser=gserve)

    gbench = gsub.add_parser(
        "bench", help="replay a workload against an in-process gateway"
    )
    gbench.add_argument("--source", default="zipf-mix",
                        help="zipf-mix | markov-pop | trace:<path>")
    gbench.add_argument("--clients", type=_positive_int, default=32,
                        help="concurrent HTTP sessions")
    gbench.add_argument("--requests", type=_positive_int, default=200,
                        help="requests per session")
    gbench.add_argument("--overlap", type=_unit_interval, default=0.5,
                        help="shared-hot-set fraction for zipf-mix")
    gbench.add_argument("--time-scale", type=_nonnegative_float, default=0.0,
                        help="wall seconds slept per virtual viewing second "
                             "(0 = saturation)")
    gbench.add_argument("--max-concurrency", type=_positive_int, default=64,
                        help="sessions in flight at once")
    gbench.add_argument("--no-closed-loop", action="store_true",
                        help="skip the closed-loop run_fleet comparison")
    _add_gateway_options(gbench)
    gbench.set_defaults(func=_cmd_gateway_bench, parser=gbench)

    experiment = sub.add_parser(
        "experiment", help="run/list/describe spec-driven experiments"
    )
    esub = experiment.add_subparsers(dest="experiment_command", required=True)

    erun = esub.add_parser("run", help="execute a preset or a spec JSON file")
    erun.add_argument("name", nargs="?", help="preset name (see `experiment list`)")
    erun.add_argument("--spec-file", help="path to an ExperimentSpec JSON file")
    erun.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes (default: all cores; 1 = sequential)",
    )
    erun.add_argument("--output-dir", default="results", help="artifact directory")
    erun.add_argument("--iterations", type=_positive_int, default=None)
    erun.add_argument("--seed", type=int, default=None)
    erun.add_argument("--quiet", action="store_true", help="no per-cell progress")
    erun.set_defaults(func=_cmd_experiment_run, parser=erun)

    elist = esub.add_parser("list", help="list presets and registered components")
    elist.set_defaults(func=_cmd_experiment_list, parser=elist)

    edescribe = esub.add_parser("describe", help="show one preset's full spec")
    edescribe.add_argument("name")
    edescribe.set_defaults(func=_cmd_experiment_describe, parser=edescribe)

    optimize = sub.add_parser(
        "optimize", help="cost-aware placement search over the cache hierarchy"
    )
    osub = optimize.add_subparsers(dest="optimize_command", required=True)

    orun = osub.add_parser("run", help="run one search driver on an optimize preset")
    orun.add_argument("name", help="optimize preset name (see `optimize list`)")
    orun.add_argument("--driver", default="greedy",
                      choices=["greedy", "coordinate", "exhaustive"],
                      help="search driver (default: greedy marginal-gain)")
    orun.add_argument("--iterations", type=_positive_int, default=None,
                      help="requests per client in every candidate evaluation")
    orun.add_argument("--seed", type=int, default=None)
    orun.add_argument("--workers", type=_positive_int, default=None,
                      help="worker processes for candidate frontiers "
                      "(default: all cores; 1 = sequential; never affects "
                      "the trail)")
    orun.add_argument("--cache", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="persistent evaluation cache: repeated runs "
                      "reuse engine scores (--no-cache to disable)")
    orun.add_argument("--cache-dir", default="results/evalcache",
                      help="evaluation cache directory "
                      "(default: results/evalcache)")
    orun.add_argument("--output",
                      help="write the full OptimizationResult trail JSON here")
    orun.set_defaults(func=_cmd_optimize_run, parser=orun)

    olist = osub.add_parser("list", help="list the optimize presets")
    olist.set_defaults(func=_cmd_optimize_list, parser=olist)

    odescribe = osub.add_parser(
        "describe",
        help="show a preset's decision variables, bounds and cost budget",
    )
    odescribe.add_argument("name", help="optimize preset name")
    odescribe.set_defaults(func=_cmd_optimize_describe, parser=odescribe)

    tournament = sub.add_parser(
        "tournament", help="standing predictor bake-off on drifting streams"
    )
    tsub = tournament.add_subparsers(dest="tournament_command", required=True)

    trun = tsub.add_parser(
        "run", help="run a tournament preset and print the ranked scoreboard"
    )
    trun.add_argument(
        "name",
        nargs="?",
        default="tournament",
        help="tournament preset name (default: tournament; see `tournament list`)",
    )
    trun.add_argument("--iterations", type=_positive_int, default=None,
                      help="requests per client in every cell")
    trun.add_argument("--seed", type=int, default=None)
    trun.add_argument("--workers", type=_positive_int, default=None,
                      help="worker processes (default: all cores; 1 = "
                      "sequential; the scoreboard is identical either way)")
    trun.add_argument("--output-dir", default=None,
                      help="also write the raw cell table CSV/JSON here")
    trun.add_argument("--quiet", action="store_true", help="no per-cell progress")
    trun.set_defaults(func=_cmd_tournament_run, parser=trun)

    tlist = tsub.add_parser("list", help="list the tournament presets")
    tlist.set_defaults(func=_cmd_tournament_list, parser=tlist)

    version = sub.add_parser("version", help="print the package version")
    version.set_defaults(func=_cmd_version, parser=version)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
