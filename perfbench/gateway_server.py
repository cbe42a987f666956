"""Run the speculation gateway for ``gateway-open``; report on SIGTERM.

Usage: ``python3 perfbench/gateway_server.py --trace 0|1``

Starts :func:`repro.gateway.service.serve` on a free localhost port (it
prints the address) and serves until SIGTERM.  With ``--trace 1`` the layer
wrappers from :mod:`tracing` are installed first.  On SIGUSR1 it times the
calibration kernel of :mod:`calibrate` in this process and prints
``{"kernel_s": ...}``.  On shutdown it prints one JSON line: the process's
peak resident memory and, when traced, the span summary and counters.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import resource
import signal
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))


def _report_kernel() -> None:
    from calibrate import kernel_seconds

    print(json.dumps({"kernel_s": kernel_seconds()}), flush=True)


async def _serve_until_terminated(config) -> None:
    from repro.gateway.service import serve

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGUSR1, _report_kernel)
    server = asyncio.ensure_future(serve(config, port=0))
    stopper = asyncio.ensure_future(stop.wait())
    await asyncio.wait({server, stopper}, return_when=asyncio.FIRST_COMPLETED)
    stopper.cancel()
    if server.done():
        server.result()  # serve() never returns on its own: surface its error
    server.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await server


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from workloads import gateway_config

    asyncio.run(_serve_until_terminated(gateway_config()))
    report = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["counters"] = dict(tracer.counters)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
