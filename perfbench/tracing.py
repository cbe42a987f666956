"""Span tracer that wraps the program's public entry points from outside.

A traced run replaces selected class and module attributes of ``repro``
with thin wrappers that record one span per call: name, parent span,
start and end (``perf_counter_ns``).  Spans live in flat arrays for the
whole run and are folded into per-name totals once, at the end.  Self
time is a span's duration minus the part its direct child spans cover;
calls of one name nested inside a span of the same name (a predictor
delegating to an inner predictor) count once.

Nothing here is imported by the program.  The untraced runs never install
the wrappers.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

__all__ = ["Tracer", "install", "BUDGET_NODES"]

#: Filled by :func:`install` from ``repro.core.planner.ONLINE_NODE_BUDGET``.
BUDGET_NODES: list[int] = []


class Tracer:
    """In-memory span recorder plus integer counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        #: Return values a hook chose to keep, by span name.
        self.kept: dict[str, list] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        stack = self._stack
        self._name.append(nid)
        self._parent.append(stack[-1] if stack else -1)
        self._start.append(0)
        self._end.append(0)
        stack.append(idx)
        return idx

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``hook(tracer, result)`` runs after each call, outside the span, to
        fold the return value into counters.
        """
        original = getattr(owner, attr)
        nid = self._name_id(name)
        stack = self._stack
        names = self._name
        parents = self._parent
        start = self._start
        end = self._end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            # _open, inlined: this runs on every call of a hot entry point.
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(self, result)
            return result

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__qualname__ = getattr(original, "__qualname__", attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, traced)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self._name_id(name))
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._start[idx] = t0
            self._end[idx] = t1

    def keep(self, name: str, value) -> None:
        self.kept.setdefault(name, []).append(value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        ``calls`` and ``total_s`` skip spans nested directly in a span of the
        same name, so delegation is not counted twice.
        """
        n = len(self._start)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        if n == 0:
            return out
        name = np.frombuffer(self._name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.intp)
        dur = (
            np.frombuffer(self._end, dtype=np.int64)
            - np.frombuffer(self._start, dtype=np.int64)
        ).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        outer = ~has_parent | (name[np.where(has_parent, parent, 0)] != name)
        k = len(self.names)
        calls = np.bincount(name[outer], minlength=k)
        total = np.bincount(name[outer], weights=dur[outer], minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        for nid, key in enumerate(self.names):
            out[key] = {
                "calls": int(calls[nid]),
                "total_s": float(total[nid]),
                "self_s": float(selfs[nid]),
            }
        return out


# ---------------------------------------------------------------------------
# The entry points a traced run wraps
# ---------------------------------------------------------------------------

def _skp_hook(tracer: Tracer, result) -> None:
    tracer.counters["skp.nodes"] += result.nodes
    if result.nodes >= BUDGET_NODES[0]:
        tracer.counters["skp.budget_hits"] += 1


def _plan_hook(tracer: Tracer, outcome) -> None:
    if not outcome.candidate_plan.items:
        tracer.counters["planner.empty"] += 1


def _events_hook(tracer: Tracer, count) -> None:
    tracer.counters["events.count"] += count


def _keep_hook(name: str):
    def hook(tracer: Tracer, result) -> None:
        tracer.keep(name, result)

    return hook


def _predictor_classes():
    from repro.prediction.base import AccessPredictor

    seen = []
    todo = [AccessPredictor]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.experiments.registry  # noqa: F401  (registers every predictor)
    from repro.core import planner
    from repro.core.planner import Prefetcher
    from repro.distsys.events import EventQueue
    from repro.distsys.fleet import Fleet
    from repro.distsys.network import ServerUplink
    from repro.distsys.planning import ClientPlanState
    from repro.experiments import engine
    from repro.gateway.cache import GatewayCacheHierarchy
    from repro.gateway.service import GatewayService
    from repro.gateway.sessions import GatewaySession, SessionStore

    BUDGET_NODES[:] = [planner.ONLINE_NODE_BUDGET]
    for cls in _predictor_classes():
        for attr, name in (("update", "prediction.update"), ("conditional_row", "prediction.row")):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, name)
    tracer.wrap(planner, "solve_skp", "skp", _skp_hook)
    tracer.wrap(planner, "arbitrate_prefetch", "arbitration.prefetch")
    tracer.wrap(Prefetcher, "demand_victim", "arbitration.demand")
    tracer.wrap(Prefetcher, "plan", "planner.plan", _plan_hook)
    tracer.wrap(ClientPlanState, "plan_view", "planning.plan_view")
    tracer.wrap(ClientPlanState, "observe", "planning.observe")
    tracer.wrap(ClientPlanState, "demand_victim", "planning.demand_victim")
    tracer.wrap(EventQueue, "run", "events.run", _events_hook)
    tracer.wrap(ServerUplink, "submit", "uplink.submit")
    tracer.wrap(Fleet, "run", "fleet.run", _keep_hook("fleet.run"))
    tracer.wrap(engine, "run_cell", "experiments.run_cell")
    tracer.wrap(GatewayService, "handle", "gateway.handle")
    tracer.wrap(GatewaySession, "report", "gateway.report")
    tracer.wrap(SessionStore, "get_or_create", "gateway.store")
    tracer.wrap(GatewayCacheHierarchy, "observe_access", "gateway.tiers")
    tracer.wrap(GatewayCacheHierarchy, "annotate", "gateway.tiers")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, counters: dict, facts: dict, *, root: str, requests: int) -> dict:
    """Every per-layer metric of one traced repetition.

    ``root`` names the span that stands for the timed call (``run`` around a
    simulation, the summed ``gateway.handle`` spans in the gateway);
    ``facts`` carries what the workload read from the program's public
    results.  Layers a workload does not exercise report 0.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def s(name: str) -> dict:
        return spans.get(name, empty)

    top = s(root)
    plan_view = s("planning.plan_view")
    victims = s("planning.demand_victim")
    run_cell, fleet_run = s("experiments.run_cell"), s("fleet.run")
    skp = s("skp")
    events = counters.get("events.count", 0)
    scheduled = facts.get("prefetches_scheduled", 0)
    return {
        "workload.build_s": facts["build_s"],
        "prediction.update.calls": s("prediction.update")["calls"],
        "prediction.update.self_s": s("prediction.update")["self_s"],
        "prediction.row.calls": s("prediction.row")["calls"],
        "prediction.row.self_s": s("prediction.row")["self_s"],
        "skp.solves": skp["calls"],
        "skp.nodes": counters.get("skp.nodes", 0),
        "skp.nodes_per_solve": _ratio(counters.get("skp.nodes", 0), skp["calls"]),
        "skp.budget_hits": counters.get("skp.budget_hits", 0),
        "skp.self_s": skp["self_s"],
        "arbitration.prefetch.calls": s("arbitration.prefetch")["calls"],
        "arbitration.prefetch.self_s": s("arbitration.prefetch")["self_s"],
        "arbitration.demand.calls": s("arbitration.demand")["calls"],
        "arbitration.demand.self_s": s("arbitration.demand")["self_s"],
        "planner.plan.calls": s("planner.plan")["calls"],
        "planner.plan.self_s": s("planner.plan")["self_s"],
        "planner.empty_frac": _ratio(counters.get("planner.empty", 0), s("planner.plan")["calls"]),
        "planner.share": _ratio(plan_view["total_s"], top["total_s"]),
        "planning.plan_view.self_s": plan_view["self_s"],
        "planning.observe.self_s": s("planning.observe")["self_s"],
        "planning.victim_lookups": victims["calls"],
        "planning.victim_memo_hit_rate": (
            1.0 - _ratio(s("arbitration.demand")["calls"], victims["calls"])
            if victims["calls"] else 0.0
        ),
        "events.count": events,
        "events.per_request": _ratio(events, requests),
        "events.residual_s": s("events.run")["self_s"],
        "uplink.submits": s("uplink.submit")["calls"],
        "uplink.submit.self_s": s("uplink.submit")["self_s"],
        "uplink.granted": facts.get("uplink_granted", 0),
        "uplink.utilization": facts.get("uplink_utilization", 0.0),
        "speculation.scheduled": scheduled,
        "speculation.used_frac": _ratio(facts.get("prefetches_used", 0), scheduled),
        "speculation.mean_access_time": facts["mean_access_time"],
        "cohort.n_cohorts": facts.get("n_cohorts", 0),
        "cohort.plan_solves": facts.get("plan_solves", 0),
        "cohort.memo_hit_rate": facts.get("memo_hit_rate", 0.0),
        "cohort.fold_s": (
            top["total_s"] - plan_view["total_s"] - victims["total_s"]
            if facts.get("cohort_fold") else 0.0
        ),
        "experiments.cells": run_cell["calls"],
        "experiments.fleet_runs": fleet_run["calls"],
        "experiments.cell_overhead_s": (
            run_cell["total_s"] - fleet_run["total_s"] if run_cell["calls"] else 0.0
        ),
        "gateway.handle.self_s": s("gateway.handle")["self_s"],
        "gateway.report.self_s": s("gateway.report")["self_s"],
        "gateway.store.self_s": s("gateway.store")["self_s"],
        "gateway.store.created": facts.get("store_created", 0),
        "gateway.tiers.self_s": s("gateway.tiers")["self_s"],
        "gateway.server_decision_p50_ms": facts.get("server_decision_p50_ms", 0.0),
        "gateway.http_overhead_p50_ms": facts.get("http_overhead_p50_ms", 0.0),
        "loadgen.sent": facts.get("loadgen_sent", 0),
        "loadgen.late_p99_ms": facts.get("loadgen_late_p99_ms", 0.0),
        "trace.attributed_frac": 1.0 - _ratio(top["self_s"], top["total_s"]),
    }
