"""The drift and tournament kinds score the rows the planner read.

Both kinds score each request's model row against the workload's moving
truth: KL(truth ‖ row) and the probability the row gave the item that
arrived.  They first did so by replaying every client's stream through a
second copy of the model after the run; that replay is copied below,
unchanged, as the reference.  The kinds now keep the rows of the run
itself (:class:`repro.experiments.engine._ModelScore`).

* Oracle cells and every online predictor but ``learned`` read rows that
  depend only on the observed stream, so the in-run scores must equal the
  replay's element by element.
* ``learned`` writes lazy decay back when a row is read, and the run also
  reads demand-victim rows, so the replay's copy drifts from the planner's
  model.  For every cell, ``learned`` included, each request ``k`` must be
  scored against the row :meth:`Prefetcher.plan` received for the viewing
  period before it: the plan after request ``k - 1`` (the warm start's for
  ``k = 0``).  The test finds those rows by wrapping the planner.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planner import Prefetcher
from repro.distsys.fleet import Fleet, FleetConfig
from repro.experiments import ExperimentSpec
from repro.experiments import engine
from repro.experiments.registry import PREDICTORS
from repro.simulation.metrics import kl_divergence
from repro.workload.dynamics import DynamicsInfo
from repro.workload.population import Population

# ---------------------------------------------------------------------------
# The reference scoring, copied unchanged
# ---------------------------------------------------------------------------


def _model_quality_replay(population: Population, info: DynamicsInfo, config: FleetConfig):
    """Prequentially score the planning model against the moving truth.

    Replays every client's served stream (initial item, then the trace — the
    exact order :meth:`ClientPlanState.observe` sees) through a fresh copy
    of the model the simulation planned with, scoring each request *before*
    the model observes it: KL(truth ‖ model row) and the probability the
    model assigned to the item that actually arrived.  Returns per-request
    arrays pooled over clients, shape ``(n_clients, requests)``.
    """
    from repro.simulation.metrics import kl_divergence

    requests = info.requests
    kl = np.empty((population.n_clients, requests))
    prob = np.empty((population.n_clients, requests))
    for cid, client in enumerate(population.clients):
        if config.model_source == "online":
            model = PREDICTORS.create(config.online_predictor, population.n_items)
            model.update(int(client.initial_item))
            row_of = model.conditional_row
        else:
            static = client.provider()
            row_of = static
            model = None
        prev = int(client.initial_item)
        items = [int(i) for i in client.trace.items]
        for k, item in enumerate(items):
            est = np.asarray(row_of(prev), dtype=np.float64)
            truth = info.true_row(cid, k, prev_item=prev)
            kl[cid, k] = kl_divergence(truth, est)
            prob[cid, k] = est[item]
            if model is not None:
                model.update(item)
            prev = item
    return kl, prob


# ---------------------------------------------------------------------------
# Small drift and tournament specs
# ---------------------------------------------------------------------------

_ZIPF = dict(n=20, exponent_min=1.1, exponent_max=1.1, overlap=0.9, top_k=8,
             stagger=10.0, n_clients=3, concurrency=2, drift_regimes=3)
_MARKOV = dict(source="markov-pop", n=20, out_min=3, out_max=6, stagger=10.0,
               n_clients=3, concurrency=2, drift_regimes=3)
_SOME = ("frequency:ewma", "ppm", "learned")


def _tournament(name, workload, scenarios, predictors, seed):
    return ExperimentSpec(
        name=name, kind="tournament", workload=workload,
        grid={"scenario": scenarios, "predictor": predictors,
              "model_source": ("oracle", "online")},
        iterations=40, seed=seed,
    )


def _drift(name, workload, seed):
    return ExperimentSpec(
        name=name, kind="drift", workload=dict(workload, n_windows=2),
        grid={"policy": ("skp+pr",), "model_source": ("oracle", "online"),
              "window": (0, 1)},
        iterations=40, seed=seed,
    )


SPECS = {
    "zipf": _tournament("score-zipf", _ZIPF, ("regime",), PREDICTORS.names(), 11),
    "markov": _tournament("score-markov", _MARKOV, ("regime",), PREDICTORS.names(), 13),
    "zipf-moving": _tournament("score-zipf-moving", _ZIPF, ("zipf-drift", "flash"), _SOME, 17),
    "drift-flash": _drift(
        "score-drift-flash", dict(_ZIPF, drift="flash", online_predictor="learned"), 19
    ),
    "drift-markov": _drift(
        "score-drift-markov", dict(_MARKOV, drift="regime", online_predictor="markov:ewma"), 23
    ),
}


def _cells():
    """One cell per distinct simulation: drift windows and the predictor
    axis of oracle cells re-read the same run."""
    out = []
    for name, spec in SPECS.items():
        seen = set()
        for cell in spec.cells():
            knobs = engine.cell_knobs(spec, cell)
            online = knobs["model_source"] == "online"
            key = (knobs["drift"], knobs["online_predictor"] if online else "oracle")
            if key not in seen:
                seen.add(key)
                out.append(pytest.param(spec, cell, id=f"{name}-" + "-".join(key)))
    return out


def _scored_with_plans(spec, cell, monkeypatch):
    """Run the cell's scoring; also return its fleet and every planned row.

    Each plan is recorded with the client's access count at that moment:
    a plan that has seen ``s`` accesses (the initial item and ``s - 1``
    requests) is the one before request ``s - 1``.
    """
    fleets, plans = [], []
    run, plan = Fleet.run, Prefetcher.plan

    def recording_run(self):
        fleets.append(self)
        return run(self)

    def recording_plan(self, problem, **kwargs):
        frequencies = kwargs["frequencies"]
        plans.append((frequencies, int(frequencies.sum()), np.array(problem.probabilities)))
        return plan(self, problem, **kwargs)

    monkeypatch.setattr(Fleet, "run", recording_run)
    monkeypatch.setattr(Prefetcher, "plan", recording_plan)
    _, _, kl, prob, info = engine._scored_fleet(spec, cell, spec.cell_seed(cell))
    monkeypatch.undo()
    (fleet,) = fleets
    return fleet, plans, kl, prob, info


@pytest.mark.parametrize("spec, cell", _cells())
def test_scores_are_the_planned_rows_and_the_replay(spec, cell, monkeypatch):
    fleet, plans, kl, prob, info = _scored_with_plans(spec, cell, monkeypatch)

    client_of = {id(c.state.frequencies): cid for cid, c in enumerate(fleet.clients)}
    expect_kl = np.full_like(kl, np.nan)
    expect_prob = np.full_like(prob, np.nan)
    for frequencies, seen, row in plans:
        cid, k = client_of[id(frequencies)], seen - 1
        if k == info.requests:
            continue  # the plan after the last request scores nothing
        workload = fleet.clients[cid].workload
        items = [int(workload.initial_item), *map(int, workload.trace.items)]
        assert np.isnan(expect_kl[cid, k]), "two plans before one request"
        expect_kl[cid, k] = kl_divergence(info.true_row(cid, k, prev_item=items[k]), row)
        expect_prob[cid, k] = row[items[k + 1]]
    np.testing.assert_array_equal(kl, expect_kl)
    np.testing.assert_array_equal(prob, expect_prob)

    knobs = engine.cell_knobs(spec, cell)
    if knobs["model_source"] == "online" and knobs["online_predictor"] == "learned":
        return  # its rows depend on being read: the replay scores another model
    build = engine.build_fleet(knobs, int(spec.iterations), spec.cell_seed(cell))
    ref_kl, ref_prob = _model_quality_replay(build.population, build.dynamics, build.config)
    assert (kl == ref_kl).all()
    assert (prob == ref_prob).all()
