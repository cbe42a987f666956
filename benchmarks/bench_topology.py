#!/usr/bin/env python
"""Benchmark the cache-hierarchy simulator: scaling and prefetch placement.

Two sweeps, recorded under ``results/bench_topology.*`` (csv + txt + json):

* **Scaling** — the same Zipf-mixture fleet routed through a pass-through
  ``star``, a 2-edge ``tree`` and an edge+mid ``two-tier`` hierarchy at
  n_clients ∈ {4, 16, 64}: simulator throughput (events/sec, requests/sec)
  next to mean/p95 access time, the edge-tier hit ratio and origin
  utilization.  Extra tiers add events per request, so events/sec rises
  while requests/sec stays planner-bound.
* **Placement** — where speculation pays: the 8-client tree with
  prefetching at the clients, the shared edge proxies, both, or nowhere,
  with the Che (IRM) edge reference alongside the simulated edge hit ratio.

Run:  python benchmarks/bench_topology.py [--requests N]
(reduced scale by default; REPRO_FULL=1 for the 10x version)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit, emit_bench_json, results_path, scale

TOPOLOGIES = ("star", "tree", "two-tier")
FLEET_SIZES = (4, 16, 64)
PLACEMENTS = ("none", "client", "edge", "both")

CSV_HEADER = [
    "section", "topology", "n_clients", "placement", "requests", "elapsed_s",
    "events_per_s", "requests_per_s", "mean_access_time", "p95_access_time",
    "edge_hit_rate", "che_edge_hit_rate", "origin_utilization", "prefetch_load_frac",
]


def _run_point(population, config, seed):
    from repro.analysis.cacheperf import che_edge_reference
    from repro.distsys.topology import run_topology

    started = time.perf_counter()
    result = run_topology(population, config, seed=seed)
    elapsed = time.perf_counter() - started
    return result, elapsed, che_edge_reference(population, result)


def main() -> int:
    from repro.distsys.fleet import FleetConfig
    from repro.distsys.topology import TopologyConfig
    from repro.viz.csvout import write_rows
    from repro.workload.population import zipf_mixture_population

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=scale(150, 1500),
                        help="requests per client")
    parser.add_argument("--catalog", type=int, default=100)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--seed", type=int, default=53)
    args = parser.parse_args()

    fleet = FleetConfig(concurrency=args.concurrency, miss_penalty=10.0)
    common = dict(
        n_edges=2,
        edge_cache_size=25,
        mid_cache_size=50,
        edge_prefetch_budget=4,
    )
    rows: list[list[str]] = []
    record: dict = {
        "requests_per_client": args.requests,
        "catalog": args.catalog,
        "concurrency": args.concurrency,
        "seed": args.seed,
        "scaling": [],
        "placement": [],
    }

    def emit_row(section, topology, n_clients, placement, population, result, elapsed, che):
        requests = population.total_requests

        def clean(value: float) -> float:
            # Same artifact convention as the experiment engine: undefined
            # readings (pass-through edge, unbounded uplink) record as 0 so
            # the JSON stays strict-parseable and the CSV NaN-free.
            return 0.0 if value != value else value

        row = {
            "section": section,
            "topology": topology,
            "n_clients": n_clients,
            "placement": placement,
            "requests": requests,
            "elapsed_s": round(elapsed, 3),
            "events_per_s": round(result.events / elapsed, 1),
            "requests_per_s": round(requests / elapsed, 1),
            "mean_access_time": round(result.aggregate.mean_access_time, 4),
            "p95_access_time": round(result.aggregate.p95_access_time, 4),
            "edge_hit_rate": round(clean(result.edge_hit_rate), 4),
            "che_edge_hit_rate": round(che, 4),
            "origin_utilization": round(clean(result.origin_utilization), 4),
            "prefetch_load_frac": round(result.prefetch_load_frac, 4),
        }
        record[section].append(row)
        rows.append([str(row[key]) for key in CSV_HEADER])
        return row

    lines = [
        f"topology benchmark: catalog {args.catalog}, {args.requests} requests/client, "
        f"{args.concurrency}-slot origin uplink, 2 edges, edge cache 25, mid cache 50",
        "",
        "scaling (placement=both):",
        "topology  n_clients  requests  elapsed   events/s  req/s   mean T   p95 T    edge hit  util",
    ]
    for topology in TOPOLOGIES:
        for n_clients in FLEET_SIZES:
            population = zipf_mixture_population(
                n_clients, args.catalog, args.requests,
                overlap=0.8, stagger=50.0, seed=args.seed,
            )
            config = TopologyConfig(
                topology=topology, placement="both", fleet=fleet, **common
            )
            result, elapsed, che = _run_point(population, config, args.seed)
            row = emit_row("scaling", topology, n_clients, "both",
                           population, result, elapsed, che)
            lines.append(
                f"{topology:8s}  {n_clients:9d}  {row['requests']:8d}  {elapsed:7.2f}s"
                f"  {row['events_per_s']:8.0f}  {row['requests_per_s']:6.0f}"
                f"  {row['mean_access_time']:7.3f}  {row['p95_access_time']:7.2f}"
                f"  {row['edge_hit_rate']:8.3f}  {row['origin_utilization']:.3f}"
            )

    lines += [
        "",
        "prefetch placement (tree, 8 clients):",
        "placement  mean T   p95 T    edge hit  che ref  prefetch load  util",
    ]
    population = zipf_mixture_population(
        8, args.catalog, args.requests, overlap=0.8, stagger=50.0, seed=args.seed,
    )
    for placement in PLACEMENTS:
        config = TopologyConfig(
            topology="tree", placement=placement, fleet=fleet, **common
        )
        result, elapsed, che = _run_point(population, config, args.seed)
        row = emit_row("placement", "tree", 8, placement,
                       population, result, elapsed, che)
        lines.append(
            f"{placement:9s}  {row['mean_access_time']:7.3f}  {row['p95_access_time']:7.2f}"
            f"  {row['edge_hit_rate']:8.3f}  {row['che_edge_hit_rate']:7.3f}"
            f"  {row['prefetch_load_frac']:13.3f}  {row['origin_utilization']:.3f}"
        )

    write_rows(results_path("bench_topology.csv"), CSV_HEADER, rows)
    emit("bench_topology.txt", "\n".join(lines))
    results_path("bench_topology.json").write_text(json.dumps(record, indent=2) + "\n")
    emit_bench_json(
        "topology",
        params={
            **common,
            "concurrency": fleet.concurrency,
            "miss_penalty": fleet.miss_penalty,
            "catalog": args.catalog,
            "requests_per_client": args.requests,
            "seed": args.seed,
        },
        rows=record["scaling"] + record["placement"],
    )
    print(f"\nwrote {results_path('bench_topology.csv')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
