"""The three simulation workloads: inputs from a seed, the timed call, checks.

Each workload builds its inputs from ``--seed`` only, runs one call into a
public entry point of ``repro`` (the timed call), and checks invariants of
the output that hold for any correct engine, so a semantic fix elsewhere
cannot fail them.  A check returns how many simulated requests it found
wrong, plus one message per violation.  ``CALLS`` is how many times one
repetition times the call on the same inputs: several times where the
program keeps no module-level memo, once for the tournament, whose memo would turn
a second call into a dictionary lookup.
"""

from __future__ import annotations

from statistics import mean

#: Shared catalog and cache size of the fleet workloads.
CATALOG = 100
CACHE = 8


def _count_check(stats_by_client, trace_lengths) -> tuple[int, list[str]]:
    """Every client finished, and hits + waits + misses equal its requests."""
    failed, messages = 0, []
    for cid, (stats, n) in enumerate(zip(stats_by_client, trace_lengths)):
        served = stats.cache_hits + stats.pending_waits + stats.misses
        if len(stats.access_times) != n or served != n:
            failed += n
            messages.append(
                f"client {cid}: {len(stats.access_times)} served, "
                f"{served} hit+wait+miss, {n} requested"
            )
    return failed, messages


def _speculation(stats_list) -> dict:
    return {
        "prefetches_scheduled": sum(s.prefetches_scheduled for s in stats_list),
        "prefetches_used": sum(s.prefetches_used for s in stats_list),
    }


class FleetContended:
    """100 Zipf-mixture clients on an 8-slot FIFO uplink near saturation."""

    CLIENTS = 100
    REQUESTS = 200
    SLOTS = 8
    CALLS = 4

    def build(self, seed: int):
        from repro.distsys.fleet import FleetConfig
        from repro.workload.population import zipf_mixture_population

        population = zipf_mixture_population(
            self.CLIENTS, CATALOG, self.REQUESTS, overlap=0.5, stagger=50.0, seed=seed
        )
        config = FleetConfig(cache_capacity=CACHE, strategy="skp", concurrency=self.SLOTS)
        return population, config

    def run(self, inputs):
        from repro.distsys.fleet import run_fleet

        return run_fleet(*inputs)

    def requests(self, inputs) -> int:
        return inputs[0].total_requests

    def outcome(self, inputs, result) -> dict:
        return {
            "hit_rate": result.aggregate.hit_rate,
            "mean_access_time": result.mean_access_time,
            "events": result.events,
        }

    def check(self, inputs, result) -> tuple[int, list[str]]:
        return _count_check(result.client_stats, [len(c.trace) for c in inputs[0].clients])

    def facts(self, inputs, result, tracer) -> dict:
        return {
            "uplink_granted": result.transfers_granted,
            "uplink_utilization": result.server_utilization,
            **_speculation(result.client_stats),
        }


class MegafleetCohort:
    """An exchangeable 2500-client fleet folded by the cohort kernel."""

    CLIENTS = 2500
    REQUESTS = 100
    CALLS = 3
    #: Clients of the prefix fleet the cross-engine check replays.
    PREFIX = 40

    def build(self, seed: int):
        from repro.distsys.fleet import FleetConfig
        from repro.workload.population import zipf_mixture_population

        population = zipf_mixture_population(
            self.CLIENTS, CATALOG, self.REQUESTS,
            overlap=1.0, exponent_range=(1.0, 1.0), v_quantum=20.0, seed=seed,
        )
        config = FleetConfig(
            cache_capacity=CACHE, strategy="skp", concurrency=None, engine="cohort"
        )
        return population, config

    def run(self, inputs):
        from repro.distsys.megafleet import run_cohort_fleet

        return run_cohort_fleet(*inputs)

    def requests(self, inputs) -> int:
        return inputs[0].total_requests

    def outcome(self, inputs, result) -> dict:
        return {
            "hit_rate": result.aggregate.hit_rate,
            "mean_access_time": result.mean_access_time,
            "plan_solves": result.plan_solves,
        }

    def check(self, inputs, result) -> tuple[int, list[str]]:
        """Counts add up, and a prefix fleet folds ``==`` in both engines."""
        from dataclasses import replace

        from repro.distsys.fleet import run_fleet
        from repro.distsys.megafleet import run_cohort_fleet
        from repro.workload.population import subset_population

        population, config = inputs
        failed, messages = _count_check(
            result.client_stats, [len(c.trace) for c in population.clients]
        )
        prefix = subset_population(population, range(self.PREFIX))
        cohort = run_cohort_fleet(prefix, config)
        event = run_fleet(prefix, replace(config, engine="event"))
        for cid, (a, b) in enumerate(zip(cohort.client_stats, event.client_stats)):
            if sum(a.access_times) != sum(b.access_times):
                failed += len(b.access_times)
                messages.append(
                    f"prefix client {cid}: cohort access-time sum {sum(a.access_times)!r} "
                    f"!= event {sum(b.access_times)!r}"
                )
        return failed, messages

    def facts(self, inputs, result, tracer) -> dict:
        lookups = result.plan_solves + result.plan_memo_hits
        return {
            "cohort_fold": True,
            "n_cohorts": result.n_cohorts,
            "plan_solves": result.plan_solves,
            "memo_hit_rate": result.plan_memo_hits / lookups if lookups else 0.0,
            **_speculation(result.client_stats),
        }


class Tournament:
    """The tournament kind on a regime-drift scenario, run serially."""

    ITERATIONS = 300
    CALLS = 1
    PREDICTORS = ("frequency:ewma", "adaptive:frequency", "learned", "rules")
    CLIENTS = 8

    def build(self, seed: int):
        from repro.experiments.spec import ExperimentSpec

        return ExperimentSpec(
            name="perfbench-tournament",
            kind="tournament",
            workload={
                "n": 60, "exponent_min": 1.1, "exponent_max": 1.1, "overlap": 0.9,
                "top_k": 12, "stagger": 20.0, "n_clients": self.CLIENTS,
                "concurrency": 4, "drift_regimes": 4,
            },
            grid={
                "scenario": ("regime",),
                "predictor": self.PREDICTORS,
                "model_source": ("oracle", "online"),
            },
            iterations=self.ITERATIONS,
            seed=seed,
        )

    def run(self, spec):
        from repro.experiments import engine

        return engine.run(spec, workers=1)

    def requests(self, spec) -> int:
        return len(spec.cells()) * self.CLIENTS * spec.iterations

    @staticmethod
    def _cells(result, source: str):
        return [c for c in result.cells if c.params["model_source"] == source]

    def outcome(self, spec, result) -> dict:
        online = self._cells(result, "online")
        return {
            "hit_rate": mean(c.metrics["overall_hit_rate"] for c in online),
            "mean_access_time": mean(c.metrics["overall_mean_access_time"] for c in online),
        }

    def check(self, spec, result) -> tuple[int, list[str]]:
        """Oracle cells plan from the generator's truth: the predictor axis
        must not move them."""
        oracle = self._cells(result, "oracle")
        failed, messages = 0, []
        for cell in oracle[1:]:
            if cell.metrics != oracle[0].metrics:
                failed += self.CLIENTS * spec.iterations
                messages.append(
                    f"oracle cell {cell.params['predictor']} differs from "
                    f"{oracle[0].params['predictor']}"
                )
        if len(oracle) != len(self.PREDICTORS):
            failed += self.CLIENTS * spec.iterations
            messages.append(f"{len(oracle)} oracle cells, expected {len(self.PREDICTORS)}")
        return failed, messages

    def facts(self, spec, result, tracer) -> dict:
        runs = tracer.kept.get("fleet.run", [])
        stats = [s for r in runs for s in r.client_stats]
        return {
            "uplink_granted": sum(r.transfers_granted for r in runs),
            "uplink_utilization": mean(r.server_utilization for r in runs) if runs else 0.0,
            **_speculation(stats),
        }


def gateway_config():
    """The gateway deployment ``gateway-open`` serves: the library defaults
    (``frequency:ewma`` sessions, 8-slot caches, one LRU edge tier)."""
    from repro.gateway.service import GatewayConfig

    return GatewayConfig.uniform(CATALOG)


SIMULATIONS = {
    "fleet-contended": FleetContended(),
    "megafleet-cohort": MegafleetCohort(),
    "tournament": Tournament(),
}
