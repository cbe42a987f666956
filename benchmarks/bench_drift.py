#!/usr/bin/env python
"""Benchmark the non-stationarity subsystem: drift kinds × model sources.

Runs one fleet per (dynamics kind, model_source) combination on identical
draws (CRN) and records simulator throughput next to the drift outcome
(overall hit rate, mean access time, post-shift recovery for the regime
kind), under ``results/bench_drift.*``.  Two things are being watched:

* **throughput** — the online path gives up the static-provider fast paths
  (victim memo, rows ranked once per distinct static row) and pays a
  predictor update and a row ranking per request, so events/s quantifies
  the cost of adaptivity against the oracle baseline;
* **outcome** — the windowed hit-rate trajectory is the headline result of
  the drift experiments: the oracle-at-t0 model degrades after a shift
  while the online model recovers.

Run:  python benchmarks/bench_drift.py [--requests N]
(reduced scale by default; REPRO_FULL=1 for the 10x version)
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit, emit_bench_json, results_path, scale

SCENARIOS = ("none", "regime", "zipf-drift", "flash", "diurnal")
MODEL_SOURCES = ("oracle", "online")


def main() -> int:
    from repro.distsys.fleet import FleetConfig, run_fleet
    from repro.simulation.metrics import windowed_access_series
    from repro.viz.csvout import write_rows
    from repro.workload.dynamics import DynamicsConfig, dynamic_zipf_population

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=scale(400, 4000),
                        help="requests per client")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--catalog", type=int, default=60)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--windows", type=int, default=8)
    parser.add_argument("--seed", type=int, default=53)
    args = parser.parse_args()

    header = [
        "drift", "model_source", "elapsed_s", "events_per_s", "requests_per_s",
        "hit_rate", "mean_access_time", "first_window_hit", "last_window_hit",
    ]
    csv_rows: list[list[str]] = []
    bench_rows: list[dict] = []
    lines = [
        f"drift benchmark: {args.clients} clients x {args.requests} requests, "
        f"catalog {args.catalog}, {args.concurrency}-slot uplink, skp+pr, "
        f"online = frequency:ewma",
        "",
        "drift       model    elapsed   events/s  hit    mean T   w0 hit  w-1 hit",
    ]
    for kind in SCENARIOS:
        dynamics = DynamicsConfig(
            kind=kind, n_regimes=2, drift_to=0.4, flash_boost=0.6
        )
        dynpop = dynamic_zipf_population(
            args.clients, args.catalog, args.requests,
            dynamics=dynamics,
            exponent_range=(1.1, 1.1), overlap=0.9, top_k=12,
            stagger=20.0, seed=args.seed,
        )
        for model_source in MODEL_SOURCES:
            config = FleetConfig(
                cache_capacity=8,
                strategy="skp",
                concurrency=args.concurrency,
                model_source=model_source,
                online_predictor="frequency:ewma",
            )
            started = time.perf_counter()
            result = run_fleet(dynpop.population, config)
            elapsed = time.perf_counter() - started
            requests = dynpop.population.total_requests
            series = windowed_access_series(
                result.client_stats, args.windows, by="index"
            )
            first_hit = float(series.hit_rate[0])
            last_hit = float(series.hit_rate[-1])
            bench_rows.append({
                "drift": kind,
                "model_source": model_source,
                "requests": requests,
                "events": result.events,
                "elapsed_s": round(elapsed, 3),
                "events_per_s": round(result.events / elapsed, 1),
                "requests_per_s": round(requests / elapsed, 1),
                "hit_rate": round(result.aggregate.hit_rate, 4),
                "mean_access_time": round(result.aggregate.mean_access_time, 4),
                "first_window_hit_rate": round(first_hit, 4),
                "last_window_hit_rate": round(last_hit, 4),
            })
            csv_rows.append([
                kind, model_source, f"{elapsed:.3f}",
                f"{result.events / elapsed:.1f}", f"{requests / elapsed:.1f}",
                f"{result.aggregate.hit_rate:.4f}",
                f"{result.aggregate.mean_access_time:.4f}",
                f"{first_hit:.4f}", f"{last_hit:.4f}",
            ])
            lines.append(
                f"{kind:10s}  {model_source:7s}  {elapsed:6.2f}s  "
                f"{result.events / elapsed:8.0f}  {result.aggregate.hit_rate:.3f}"
                f"  {result.aggregate.mean_access_time:7.3f}  {first_hit:6.3f}"
                f"  {last_hit:7.3f}"
            )

    write_rows(results_path("bench_drift.csv"), header, csv_rows)
    emit("bench_drift.txt", "\n".join(lines))
    emit_bench_json(
        "drift",
        params={
            "clients": args.clients,
            "catalog": args.catalog,
            "requests_per_client": args.requests,
            "concurrency": args.concurrency,
            "windows": args.windows,
            "seed": args.seed,
            "strategy": "skp",
            "online_predictor": "frequency:ewma",
            "scenarios": list(SCENARIOS),
        },
        rows=bench_rows,
    )
    print(f"\nwrote {results_path('bench_drift.csv')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
