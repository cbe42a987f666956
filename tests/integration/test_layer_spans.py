"""The planner's layer entry points stay on the call path.

The repository benchmark (``perfbench/``) attributes time to the ``skp``
and ``arbitration`` layers by replacing ``repro.core.planner.solve_skp``
and ``repro.core.planner.arbitrate_prefetch`` with timing wrappers.  A
refactor that reached a kernel under another name would leave those layers
silently dark; this test fails instead.

A plan either makes one traced solve (plus one traced arbitration when the
solve's plan is non-empty), or it makes neither.  It makes neither when it
has no candidate, or when its full cache's cheapest ``P_i r_i`` beats every
candidate, so that Figure 6 must admit nothing; the test re-runs such a
plan's solve and arbitration untraced and checks that they admit and eject
nothing.
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

    def untraced_decision(self, problem, cache, kwargs):
        """Solve and arbitrate the plan's inputs through the bare kernels."""
        pinned = kwargs.get("pinned", ())
        with pytest.MonkeyPatch.context() as bare:
            bare.setattr(planner, "solve_skp", solve)
            candidate = self.candidate_plan(problem, cache, pinned, ranked=kwargs.get("ranked"))
        return arbitrate(
            problem,
            candidate,
            cache,
            sub_key=self._sub_key(problem, kwargs.get("frequencies")),
        )

    plans = {"solved": 0, "arbitrated": 0, "skipped": 0}

    def checked_plan(self, problem, cache=(), **kwargs):
        before = dict(calls)
        outcome = plan(self, problem, cache, **kwargs)
        cache = tuple(cache)
        blocked = set(cache) | set(kwargs.get("pinned", ()))
        support = np.flatnonzero(problem.probabilities).tolist()
        has_candidates = any(i not in blocked for i in support)
        solves = calls["skp"] - before["skp"]
        arbitrations = calls["arbitration"] - before["arbitration"]
        if solves:
            assert solves == 1 and has_candidates
            assert arbitrations == int(bool(outcome.candidate_plan.items))
            plans["solved"] += 1
            plans["arbitrated"] += arbitrations
        else:
            assert arbitrations == 0
            assert (outcome.prefetch.items, outcome.eject) == ((), ())
            if has_candidates:
                capacity = kwargs.get("cache_capacity")
                assert capacity is None or capacity == len(cache)
                reference = untraced_decision(self, problem, cache, kwargs)
                assert (reference.prefetch.items, reference.eject) == ((), ())
                plans["skipped"] += 1
        return outcome

    monkeypatch.setattr(planner, "solve_skp", counting_solve)
    monkeypatch.setattr(planner, "arbitrate_prefetch", counting_arbitrate)
    monkeypatch.setattr(Prefetcher, "plan", checked_plan)
    population = zipf_mixture_population(4, 30, 40, stagger=5.0, seed=3)
    run_fleet(population, FleetConfig(cache_capacity=4, concurrency=2, model_source=model_source))
    assert plans["solved"] > 0 and plans["arbitrated"] > 0 and plans["skipped"] > 0
