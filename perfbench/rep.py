"""One repetition of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/rep.py --workload W --seed N --trace 0|1 --t0 T``

``--t0`` is the ``time.monotonic()`` reading the parent took just before
starting this process, so ``setup_s`` includes interpreter start, imports
and input generation.  Prints one JSON object on its last stdout line.
Module-level memos in the program (``_TOURNAMENT_MEMO``, ``_DRIFT_MEMO``)
start empty because every repetition is a new process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _simulation(name: str, seed: int, tracer, t0: float) -> dict:
    from calibrate import kernel_seconds
    from workloads import SIMULATIONS

    workload = SIMULATIONS[name]
    started = time.perf_counter()
    inputs = workload.build(seed)
    build_s = time.perf_counter() - started
    setup_s = time.monotonic() - t0
    kernel_s = kernel_seconds()
    requests = workload.requests(inputs)
    # Repeated calls on the same inputs give more timed samples per process;
    # a traced repetition makes one call, so its counters cover one call.
    calls = 1 if tracer is not None else workload.CALLS
    phases, outcomes = [], []
    for _ in range(calls):
        span = tracer.span("run") if tracer is not None else contextlib.nullcontext()
        started = time.perf_counter()
        with span:
            result = workload.run(inputs)
        phases.append({"requests": requests, "run_s": time.perf_counter() - started})
        outcomes.append(workload.outcome(inputs, result))
    peak = _peak_rss_mb()
    layers = None
    if tracer is not None:
        from tracing import layer_metrics

        # Before the output check, which runs more simulations.
        facts = dict(
            workload.facts(inputs, result, tracer),
            build_s=build_s,
            mean_access_time=outcomes[0]["mean_access_time"],
        )
        layers = layer_metrics(
            tracer.summary(), tracer.counters, facts, root="run", requests=requests
        )
    failed, messages = workload.check(inputs, result)
    for outcome in outcomes[1:]:
        if outcome != outcomes[0]:
            failed += requests
            messages.append(f"repeated call: outcome {outcome} != {outcomes[0]}")
    out = {
        "setup_s": setup_s,
        "kernel_s": kernel_s,
        "build_s": build_s,
        "phases": phases,
        "attempted": requests * calls,
        "failed": failed,
        "messages": messages,
        "decisions": [[p["run_s"] * 1e3 / requests] for p in phases],
        "peak_rss_mb": peak,
        "outcome": outcomes[0],
    }
    if layers is not None:
        out["layers"] = layers
    return out


def _gateway(seed: int, trace: bool, t0: float) -> dict:
    from gateway_load import run_rep
    from tracing import layer_metrics

    out = run_rep(seed, trace, t0)
    if trace:
        server = out["server"]
        facts = dict(
            out["facts"],
            build_s=out["build_s"],
            mean_access_time=out["outcome"]["mean_access_time"],
        )
        out["layers"] = layer_metrics(
            server["spans"], server["counters"], facts,
            root="gateway.handle", requests=0,
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    if args.workload == "gateway-open":
        out = _gateway(args.seed, bool(args.trace), args.t0)
    else:
        tracer = None
        if args.trace:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
        out = _simulation(args.workload, args.seed, tracer, args.t0)
    out.pop("server", None)
    out.pop("facts", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
