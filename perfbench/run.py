"""The repository benchmark: run one workload, check it, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-contended --seed 1 --seconds 25 --trace 0

Workloads: ``fleet-contended``, ``tournament``, ``gateway-open`` and
``megafleet-cohort`` (see ``perfbench/README.md`` for what each exercises).
The command repeats the workload, each repetition in a fresh interpreter
(``rep.py``), until ``--seconds`` have passed and at least ``PARTS``
repetitions ran.  Repetitions cycle through ``PARTS`` input sets derived
from ``--seed``, so ``hit_rate`` is averaged over several draws.  With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
alternates untraced and traced repetitions and prints the per-layer
metrics, including the tracing overhead.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import numpy as np

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-contended", "tournament", "gateway-open", "megafleet-cohort")
#: Input sets per run: repetition ``i`` runs part ``i % PARTS``, whose
#: inputs come from seed ``seed * PARTS + part``.  Traced repetitions all run
#: part 0, so their counters can be compared exactly.
PARTS = 3
#: Per-repetition wall-clock limit; a repetition takes 3 to 12 s on a 2-vCPU host.
REP_TIMEOUT = 100.0
#: Gateway repetitions whose load generator fell behind its schedule are
#: discarded, not reported; past this many in one run the run fails.
MAX_DISCARDED = 3
#: Counters that depend only on the inputs and must repeat exactly.
DETERMINISTIC = (
    "events.count",
    "skp.solves",
    "skp.nodes",
    "planner.plan.calls",
    "prediction.update.calls",
    "cohort.plan_solves",
    "experiments.fleet_runs",
    "gateway.store.created",
)


class RepError(RuntimeError):
    """A repetition crashed or timed out."""


def run_rep(workload: str, seed: int, trace: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)), "--t0", repr(time.monotonic()),
    ]
    # One thread per process: a workload is driven from a single process,
    # and BLAS worker threads (the learned predictor's SVD) would otherwise
    # compete with the gateway process for the second core.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # A session of its own, so a timeout can stop the repetition together
    # with the gateway process it may have started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepError(f"{workload} repetition exceeded {REP_TIMEOUT:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(f"{workload} repetition exited with code {proc.returncode}")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Untraced and traced repetitions, until the time is up."""
    plain: list[dict] = []
    traced: list[dict] = []
    pattern = (False, True, True) if trace else (False,)
    started = time.monotonic()
    k = discarded = 0
    while True:
        with_trace = pattern[k % len(pattern)]
        part = 0 if trace else k % PARTS
        rep = run_rep(workload, seed * PARTS + part, with_trace)
        if rep.get("fell_behind"):
            discarded += 1
            print(f"perfbench: load generator fell behind; repetition discarded", file=sys.stderr)
            if discarded > MAX_DISCARDED:
                raise RepError(f"load generator fell behind in {discarded} repetitions")
            continue
        rep["part"] = part
        (traced if with_trace else plain).append(rep)
        k += 1
        enough = len(traced) >= 2 and len(plain) >= 1 if trace else len(plain) >= PARTS
        if enough and time.monotonic() - started >= seconds:
            return plain, traced


# Host interference only ever adds time, in bursts of seconds on one vCPU
# and in slower periods of minutes.  Against the bursts, a run reports its
# best throughput phase and its best latency chunk (medians for set-up and
# memory); against the slow periods, its host times are scaled to the
# reference speed by the run's fastest calibration window (calibrate.py).

def reference_scale(reps: list[dict]) -> float:
    """Reference-host seconds per host second during these repetitions."""
    return REFERENCE_S / min(rep["kernel_s"] for rep in reps)


def best_throughput(reps: list[dict]) -> float:
    """The fastest throughput phase, in requests per reference-host second."""
    best = max(phase["requests"] / phase["run_s"] for rep in reps for phase in rep["phases"])
    return best / reference_scale(reps)


def best_percentile(reps: list[dict], q: float) -> float:
    """The lowest per-chunk ``q``-th percentile of the decision times, in
    reference-host ms.  A chunk is one open-loop phase of the gateway
    (~600 requests) or one timed call of a simulation (one per-request
    time)."""
    best = min(float(np.percentile(chunk, q)) for rep in reps for chunk in rep["decisions"])
    return best * reference_scale(reps)


def end_to_end(reps: list[dict]) -> dict:
    outcomes = {rep["part"]: rep["outcome"] for rep in reps}.values()
    return {
        "setup_s": median(rep["setup_s"] for rep in reps) * reference_scale(reps),
        "requests_per_s": best_throughput(reps),
        "decision_p50_ms": best_percentile(reps, 50),
        "hit_rate": mean(o["hit_rate"] for o in outcomes),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    layers = {
        name: median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    traced_rps = best_throughput(traced)
    layers["trace.requests_per_s"] = traced_rps
    layers["trace.overhead_frac"] = best_throughput(plain) / traced_rps - 1.0
    return layers


def consistency(plain: list[dict], traced: list[dict]) -> tuple[int, list[str]]:
    """Same inputs must give the same modelled outcome and counters."""
    failed, messages = 0, []
    first: dict[int, dict] = {}
    for rep in plain + traced:
        expected = first.setdefault(rep["part"], rep["outcome"])
        if rep["outcome"] != expected:
            failed += rep["attempted"]
            messages.append(f"part {rep['part']}: outcome {rep['outcome']} != {expected}")
    for rep in traced[1:]:
        for name in DETERMINISTIC:
            if rep["layers"][name] != traced[0]["layers"][name]:
                failed += rep["attempted"]
                messages.append(
                    f"{name}: {rep['layers'][name]} != {traced[0]['layers'][name]}"
                )
    return failed, messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    try:
        plain, traced = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    reps = plain + traced
    failed, messages = consistency(plain, traced)
    failed += sum(rep["failed"] for rep in reps)
    messages += [m for rep in reps for m in rep["messages"]]
    attempted = sum(rep["attempted"] for rep in reps)
    values = per_layer(plain, traced) if args.trace else end_to_end(plain)

    pooled = np.concatenate([chunk for rep in plain for chunk in rep["decisions"]])
    print(f"{args.workload}: seed {args.seed}, {len(plain)} untraced + {len(traced)} traced "
          f"repetitions, failed {failed}/{attempted}")
    print(f"  decision samples {len(pooled)}: pooled p50 {np.percentile(pooled, 50):.6g} ms, "
          f"p90 {np.percentile(pooled, 90):.6g} ms, p99 {np.percentile(pooled, 99):.6g} ms "
          f"(not bounded)")
    for metric in wanted:
        print(f"  {metric['name']:32s} {values[metric['name']]:>16.6g} {metric['unit']}")
    for message in messages[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
