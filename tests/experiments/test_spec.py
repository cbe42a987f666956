"""ExperimentSpec: validation, JSON round-trips, grid expansion, seeding."""

import json

import pytest

from repro.experiments import (
    ExperimentSpec,
    SpecError,
    UnknownComponentError,
    preset,
    preset_names,
)
from repro.workload.dynamics import (
    DynamicsConfig,
    dynamic_markov_population,
    dynamic_zipf_population,
)
from repro.workload.population import markov_population, zipf_mixture_population


def tiny_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="tiny",
        kind="prefetch-only",
        grid={"policy": ("skp", "none"), "n": (4, 6)},
        iterations=10,
        seed=1,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def fleet_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="tiny-fleet",
        kind="fleet",
        grid={"policy": ("skp+pr",), "n_clients": (2,)},
        iterations=10,
        seed=1,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown experiment kind"):
            tiny_spec(kind="nonsense")

    def test_empty_name(self):
        with pytest.raises(SpecError, match="name"):
            tiny_spec(name="")

    def test_nonpositive_iterations(self):
        with pytest.raises(SpecError, match="iterations"):
            tiny_spec(iterations=0)

    def test_unknown_grid_axis(self):
        with pytest.raises(SpecError, match="unknown grid axis"):
            tiny_spec(grid={"policy": ("skp",), "bogus": (1, 2)})

    def test_missing_required_axis(self):
        with pytest.raises(SpecError, match="requires a 'policy'"):
            tiny_spec(grid={"n": (4,)})

    def test_empty_axis_values(self):
        with pytest.raises(SpecError, match="non-empty"):
            tiny_spec(grid={"policy": ()})

    def test_unknown_policy_name(self):
        with pytest.raises(UnknownComponentError):
            tiny_spec(grid={"policy": ("skp", "warp-drive")})

    def test_unknown_workload_parameter(self):
        with pytest.raises(SpecError, match="workload parameter"):
            tiny_spec(workload={"wormholes": 3})

    def test_fleet_requires_n_clients_axis(self):
        with pytest.raises(SpecError, match="requires a 'n_clients'"):
            fleet_spec(grid={"policy": ("skp+pr",)})

    def test_fleet_rejects_bad_n_clients(self):
        with pytest.raises(SpecError, match="n_clients"):
            fleet_spec(grid={"policy": ("skp+pr",), "n_clients": (0,)})

    def test_fleet_rejects_unknown_discipline(self):
        with pytest.raises(SpecError, match="discipline"):
            fleet_spec(
                grid={
                    "policy": ("skp+pr",),
                    "n_clients": (2,),
                    "discipline": ("lifo",),
                }
            )

    def test_fleet_rejects_unknown_server_cache(self):
        with pytest.raises(UnknownComponentError):
            fleet_spec(workload={"server_cache": "hyperlru"})

    def test_fleet_rejects_unknown_source(self):
        with pytest.raises(SpecError, match="sources"):
            fleet_spec(workload={"source": "uniform-pop"})

    def test_unknown_source(self):
        with pytest.raises(SpecError, match="sources"):
            tiny_spec(workload={"source": "markov"})  # not valid for prefetch-only

    def test_unknown_source_in_grid_axis(self):
        with pytest.raises(SpecError, match="sources"):
            tiny_spec(grid={"policy": ("skp",), "source": ("skewy", "bogus")})

    def test_malformed_v_bin_values(self):
        for bad in ((1, 2, 3), 5, (7.0, 3.0)):
            with pytest.raises(SpecError, match="v_bin"):
                tiny_spec(grid={"policy": ("skp",), "v_bin": (bad,)})

    def test_unknown_metric(self):
        with pytest.raises(SpecError, match="unknown metric"):
            tiny_spec(metrics=("latency_p99",))

    def test_unknown_top_level_field(self):
        with pytest.raises(SpecError, match="unknown spec fields"):
            ExperimentSpec.from_dict({"name": "x", "kind": "prefetch-only", "extra": 1})


class TestRoundTrip:
    def test_json_round_trip_identity(self):
        spec = tiny_spec(workload={"r_max": 20.0}, metrics=("mean_access_time",))
        assert spec == ExperimentSpec.from_json(spec.to_json())

    def test_round_trip_normalises_lists(self):
        # Lists (as JSON produces) and tuples compare equal after freezing.
        a = tiny_spec(grid={"policy": ["skp"], "v_bin": [[0, 5], [5, 10]]})
        b = tiny_spec(grid={"policy": ("skp",), "v_bin": ((0, 5), (5, 10))})
        assert a == b

    @pytest.mark.parametrize("name", sorted(preset_names()))
    def test_every_preset_round_trips(self, name):
        spec = preset(name)
        again = ExperimentSpec.from_json(spec.to_json())
        assert spec == again
        assert spec.spec_hash() == again.spec_hash()

    def test_to_json_is_valid_json(self):
        parsed = json.loads(tiny_spec().to_json(indent=2))
        assert parsed["kind"] == "prefetch-only"


class TestHashing:
    def test_hash_stable_across_instances(self):
        assert tiny_spec().spec_hash() == tiny_spec().spec_hash()

    def test_hash_changes_with_content(self):
        assert tiny_spec().spec_hash() != tiny_spec(seed=2).spec_hash()


class TestGrid:
    def test_cells_cartesian_product_in_axis_order(self):
        cells = tiny_spec().cells()
        assert len(cells) == 4
        assert cells[0] == {"policy": "skp", "n": 4}
        assert cells[-1] == {"policy": "none", "n": 6}

    def test_cell_workload_merges_axes(self):
        spec = tiny_spec()
        wl = spec.cell_workload({"policy": "skp", "n": 6})
        assert wl["n"] == 6
        assert wl["source"] == "skewy"  # kind default

    def test_v_bin_axis_maps_to_v_range(self):
        spec = ExperimentSpec(
            name="b",
            kind="prefetch-only",
            grid={"policy": ("skp",), "v_bin": ((10.0, 12.0),)},
            iterations=5,
        )
        wl = spec.cell_workload(spec.cells()[0])
        assert (wl["v_min"], wl["v_max"]) == (10.0, 12.0)

    def test_metric_names_default_to_kind_metrics(self):
        assert "mean_access_time" in tiny_spec().metric_names()
        assert tiny_spec(metrics=("frac_miss",)).metric_names() == ("frac_miss",)


class TestSeeding:
    def test_component_axes_share_seed(self):
        spec = tiny_spec()
        assert spec.cell_seed({"policy": "skp", "n": 4}) == spec.cell_seed(
            {"policy": "none", "n": 4}
        )

    def test_workload_axes_change_seed(self):
        spec = tiny_spec()
        assert spec.cell_seed({"policy": "skp", "n": 4}) != spec.cell_seed(
            {"policy": "skp", "n": 6}
        )

    def test_master_seed_changes_cell_seeds(self):
        cell = {"policy": "skp", "n": 4}
        assert tiny_spec().cell_seed(cell) != tiny_spec(seed=99).cell_seed(cell)

    def test_cache_size_is_component_axis(self):
        spec = ExperimentSpec(
            name="c7",
            kind="prefetch-cache",
            grid={"policy": ("skp+pr",), "cache_size": (5, 10)},
            iterations=5,
        )
        cells = spec.cells()
        assert spec.cell_seed(cells[0]) == spec.cell_seed(cells[1])

    def test_fleet_contention_axes_are_component_params(self):
        # Concurrency/discipline/server cache shape service, not the draws —
        # and per-client streams hash from (seed, client id) alone, so the
        # n_clients scale axis shares draws too: sweeping any of these must
        # keep common random numbers.
        spec = fleet_spec(
            grid={
                "policy": ("skp+pr",),
                "n_clients": (1, 4),
                "concurrency": (1, 8),
                "discipline": ("fifo", "fair"),
                "server_cache_size": (0, 10),
            }
        )
        seeds = {spec.cell_seed(cell) for cell in spec.cells()}
        assert len(seeds) == 1

    def test_fleet_population_axes_change_seed(self):
        spec = fleet_spec(
            grid={
                "policy": ("skp+pr",),
                "n_clients": (4,),
                "overlap": (0.0, 1.0),
            }
        )
        seeds = {spec.cell_seed(cell) for cell in spec.cells()}
        assert len(seeds) == 2

    def test_fleet_cell_param_reads_axis_then_default(self):
        spec = fleet_spec(
            grid={"policy": ("skp+pr",), "n_clients": (2,), "concurrency": (1,)}
        )
        cell = spec.cells()[0]
        assert spec.cell_param(cell, "concurrency") == 1
        assert spec.cell_param(cell, "discipline") == "fifo"


def topology_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="tiny-topology",
        kind="topology",
        grid={"policy": ("skp+pr",), "n_clients": (2,)},
        iterations=10,
        seed=1,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestTopologyKind:
    def test_valid_spec(self):
        spec = topology_spec(
            grid={
                "policy": ("skp+pr",),
                "n_clients": (2,),
                "topology": ("star", "tree", "two-tier"),
                "placement": ("none", "both"),
            }
        )
        assert len(spec.cells()) == 6

    def test_rejects_unknown_topology(self):
        with pytest.raises(SpecError, match="unknown topology"):
            topology_spec(workload={"topology": "ring"})
        with pytest.raises(SpecError, match="unknown topology"):
            topology_spec(
                grid={"policy": ("skp+pr",), "n_clients": (2,), "topology": ("ring",)}
            )

    def test_rejects_bad_placement(self):
        with pytest.raises(SpecError, match="placement"):
            topology_spec(workload={"placement": "everywhere"})

    def test_rejects_bad_n_edges(self):
        with pytest.raises(SpecError, match="n_edges"):
            topology_spec(workload={"n_edges": 0})

    def test_rejects_unknown_edge_cache_and_predictor(self):
        with pytest.raises(UnknownComponentError):
            topology_spec(workload={"edge_cache": "magic"})
        with pytest.raises(UnknownComponentError):
            topology_spec(workload={"edge_predictor": "oracle"})

    def test_rejects_bad_service_knobs_at_validation(self):
        # TopologyConfig would reject these too, but only mid-run inside a
        # worker; the spec must fail at validation time instead.
        with pytest.raises(SpecError, match="edge_strategy"):
            topology_spec(workload={"edge_strategy": "pso"})
        with pytest.raises(SpecError, match="edge_prefetch_budget"):
            topology_spec(workload={"edge_prefetch_budget": -1})
        with pytest.raises(SpecError, match="uplink_streams"):
            topology_spec(workload={"edge_uplink_streams": 0})
        with pytest.raises(SpecError, match="edge_prefetch_window"):
            topology_spec(workload={"edge_prefetch_window": -5.0})
        with pytest.raises(SpecError, match="mid_cache_size"):
            topology_spec(workload={"mid_cache_size": -1})

    def test_rejects_bad_edge_cache_size_grid_values(self):
        with pytest.raises(SpecError, match="edge_cache_size"):
            topology_spec(
                grid={
                    "policy": ("skp+pr",),
                    "n_clients": (2,),
                    "edge_cache_size": (5, -1),
                }
            )

    def test_hierarchy_axes_are_component_params(self):
        # Topology shape, speculation placement and every per-tier knob
        # select machinery, not draws: the whole sweep shares one seed.
        spec = topology_spec(
            grid={
                "policy": ("skp+pr",),
                "n_clients": (1, 4),
                "topology": ("star", "tree"),
                "placement": ("none", "client", "edge", "both"),
                "edge_cache_size": (0, 25),
                "n_edges": (1, 2),
            }
        )
        seeds = {spec.cell_seed(cell) for cell in spec.cells()}
        assert len(seeds) == 1

    def test_population_axes_change_seed(self):
        spec = topology_spec(
            grid={"policy": ("skp+pr",), "n_clients": (2,), "overlap": (0.0, 1.0)}
        )
        seeds = {spec.cell_seed(cell) for cell in spec.cells()}
        assert len(seeds) == 2


class TestServiceKnobsFailAtValidation:
    """Every cell's configs are built at validation: a bad service knob
    raises SpecError when the spec is constructed, not inside a run."""

    def test_negative_concurrency(self):
        # Only 0 means unbounded; a negative slot count is an error.
        with pytest.raises(SpecError, match="concurrency"):
            fleet_spec(workload={"concurrency": -2})
        with pytest.raises(SpecError, match="concurrency"):
            fleet_spec(
                grid={"policy": ("skp+pr",), "n_clients": (2,), "concurrency": (4, -2)}
            )

    def test_negative_edge_delivery_concurrency(self):
        with pytest.raises(SpecError, match="edge_delivery_concurrency"):
            topology_spec(workload={"edge_delivery_concurrency": -5})

    def test_negative_cache_capacity(self):
        with pytest.raises(SpecError, match="cache_capacity"):
            fleet_spec(workload={"cache_capacity": -1})
        with pytest.raises(SpecError, match="cache_capacity"):
            topology_spec(workload={"cache_capacity": -1})

    def test_cohort_engine_rejects_server_cache(self):
        with pytest.raises(SpecError, match="server cache"):
            fleet_spec(workload={"engine": "cohort", "server_cache_size": 10})
        with pytest.raises(SpecError, match="server cache"):
            topology_spec(
                workload={"topology": "star", "engine": "cohort", "server_cache_size": 10}
            )

    def test_unknown_skp_variant(self):
        with pytest.raises(SpecError, match="variant"):
            fleet_spec(workload={"skp_variant": "bogus"})

    def test_zero_concurrency_is_unbounded(self):
        from repro.experiments.engine import build_config, cell_knobs

        spec = topology_spec(workload={"concurrency": 0, "edge_delivery_concurrency": 0})
        config = build_config(cell_knobs(spec, spec.cells()[0]))
        assert config.fleet.concurrency is None
        assert config.edge_delivery_concurrency is None


class TestPopulationKnobsFailAtValidation:
    """Every cell's population and dynamics knobs are checked at validation:
    a bad one raises SpecError when the spec is constructed, not inside a
    run, with the builders' own message."""

    @pytest.mark.parametrize(
        "workload, message",
        [
            ({"top_k": 0}, "top_k must be positive"),
            ({"overlap": 2.0}, r"overlap must be in \[0, 1\]"),
            ({"drift": "regime", "drift_regimes": 0}, "n_regimes must be positive"),
            ({"exponent_min": 1.5, "exponent_max": 1.0}, "exponent_range"),
            ({"stagger": -1.0}, "stagger must be non-negative"),
            ({"drift": "flash", "flash_boost": 1.0}, r"flash_boost must be in \[0, 1\)"),
        ],
    )
    def test_bad_knob(self, workload, message):
        with pytest.raises(SpecError, match=message):
            fleet_spec(workload=workload)

    def test_bad_knob_on_a_grid_axis(self):
        with pytest.raises(SpecError, match=r"overlap must be in \[0, 1\]"):
            fleet_spec(grid={"policy": ("skp+pr",), "n_clients": (2,), "overlap": (0.5, 1.5)})

    def test_hybrid_engine_checks_before_sampling(self):
        # The hybrid engine builds only its sampled members, inside the run.
        with pytest.raises(SpecError, match=r"overlap must be in \[0, 1\]"):
            fleet_spec(workload={"engine": "hybrid", "concurrency": 0, "overlap": -0.5})

    def test_tournament_scenario_axis_builds_its_dynamics(self):
        data = preset("tournament-smoke").to_dict()
        data["workload"]["drift_regimes"] = 0
        with pytest.raises(SpecError, match="n_regimes must be positive"):
            ExperimentSpec.from_dict(data)


class TestMarkovAndRangeKnobsFailAtValidation:
    """Markov-population knobs, and the viewing-time and size ranges of
    either source, fail at validation with the builders' own message."""

    @pytest.mark.parametrize(
        "workload, message",
        [
            ({"source": "markov-pop", "stagger": -1.0}, "stagger must be non-negative"),
            ({"source": "markov-pop", "n": 1}, "need at least two catalog items"),
            ({"source": "markov-pop", "n": 10}, r"out_degree range \(10, 20\) invalid for 10"),
            ({"source": "markov-pop", "out_min": 5, "out_max": 2}, r"out_degree range \(5, 2\)"),
            ({"source": "markov-pop", "size_min": -1.0}, r"size_range must satisfy 0 < lo"),
            ({"source": "zipf-mix", "size_min": -1.0}, r"size_range must satisfy 0 < lo"),
            ({"source": "markov-pop", "v_min": 5.0, "v_max": 1.0}, "v_range must satisfy"),
            ({"source": "zipf-mix", "v_min": 5.0, "v_max": 1.0}, "v_range must satisfy"),
            ({"source": "markov-pop", "v_min": -5.0, "v_max": -1.0}, "v_range must satisfy"),
            ({"source": "zipf-mix", "v_min": -5.0, "v_max": -1.0}, "v_range must satisfy"),
        ],
    )
    def test_bad_knob(self, workload, message):
        with pytest.raises(SpecError, match=message):
            fleet_spec(workload=workload)

    def test_markov_regime_drift_checks_the_out_degree(self):
        with pytest.raises(SpecError, match="out_degree range"):
            fleet_spec(workload={"source": "markov-pop", "n": 10, "drift": "regime"})

    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: zipf_mixture_population(2, 20, 5, **kw),
            lambda **kw: markov_population(2, 20, 5, **kw),
            lambda **kw: dynamic_zipf_population(
                2, 20, 5, dynamics=DynamicsConfig(kind="regime"), **kw
            ),
            lambda **kw: dynamic_markov_population(
                2, 20, 5, dynamics=DynamicsConfig(kind="regime"), **kw
            ),
        ],
        ids=["zipf", "markov", "zipf-regime", "markov-regime"],
    )
    def test_builders_run_the_same_range_checks(self, build):
        with pytest.raises(ValueError, match="v_range must satisfy"):
            build(v_range=(5.0, 1.0))
        with pytest.raises(ValueError, match="v_range must satisfy"):
            build(v_range=(-5.0, -1.0))


class TestOverrides:
    def test_with_overrides(self):
        spec = tiny_spec()
        bumped = spec.with_overrides(iterations=77, seed=9, name="tiny2")
        assert (bumped.iterations, bumped.seed, bumped.name) == (77, 9, "tiny2")
        assert spec.iterations == 10  # original untouched

    def test_with_overrides_noop_returns_equal_spec(self):
        spec = tiny_spec()
        assert spec.with_overrides() == spec

    def test_summary_mentions_grid_shape(self):
        assert "policy[2]" in tiny_spec().summary()
