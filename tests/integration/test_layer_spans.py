"""The planner's layer entry points stay on the call path.

The repository benchmark (``perfbench/``) attributes time to the ``skp``
and ``arbitration`` layers by replacing ``repro.core.planner.solve_skp``
and ``repro.core.planner.arbitrate_prefetch`` with timing wrappers.  A
refactor that reached a kernel under another name would leave those layers
silently dark; this test fails instead.
"""

import numpy as np
import pytest

from repro.core import planner
from repro.core.planner import Prefetcher
from repro.distsys.fleet import FleetConfig, run_fleet
from repro.workload.population import zipf_mixture_population


@pytest.mark.parametrize("model_source", ["oracle", "online"])
def test_every_plan_goes_through_the_layer_names(monkeypatch, model_source):
    calls = {"skp": 0, "arbitration": 0}
    solve, arbitrate, plan = planner.solve_skp, planner.arbitrate_prefetch, Prefetcher.plan

    def counting_solve(*args, **kwargs):
        calls["skp"] += 1
        return solve(*args, **kwargs)

    def counting_arbitrate(*args, **kwargs):
        calls["arbitration"] += 1
        return arbitrate(*args, **kwargs)

    plans = {"with_candidates": 0, "arbitrated": 0}

    def checked_plan(self, problem, cache=(), **kwargs):
        before = dict(calls)
        outcome = plan(self, problem, cache, **kwargs)
        blocked = set(cache) | set(kwargs.get("pinned", ()))
        support = np.flatnonzero(problem.probabilities).tolist()
        has_candidates = any(i not in blocked for i in support)
        arbitrated = bool(outcome.candidate_plan.items)
        assert calls["skp"] - before["skp"] == int(has_candidates)
        assert calls["arbitration"] - before["arbitration"] == int(arbitrated)
        plans["with_candidates"] += has_candidates
        plans["arbitrated"] += arbitrated
        return outcome

    monkeypatch.setattr(planner, "solve_skp", counting_solve)
    monkeypatch.setattr(planner, "arbitrate_prefetch", counting_arbitrate)
    monkeypatch.setattr(Prefetcher, "plan", checked_plan)
    population = zipf_mixture_population(4, 30, 40, stagger=5.0, seed=3)
    run_fleet(population, FleetConfig(cache_capacity=4, concurrency=2, model_source=model_source))
    assert plans["with_candidates"] > 0 and plans["arbitrated"] > 0
