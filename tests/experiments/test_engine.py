"""Engine execution: all kinds, worker-count invariance, artifacts."""

import json

import pytest

from repro.experiments import ExperimentSpec, ExperimentResult, preset, run, run_cell


def po_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="engine-po",
        kind="prefetch-only",
        grid={"policy": ("none", "skp", "perfect"), "n": (5,)},
        iterations=60,
        seed=3,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestKinds:
    def test_prefetch_only_metrics(self):
        result = run(po_spec())
        assert len(result.cells) == 3
        for cell in result.cells:
            assert set(cell.metrics) == {
                "mean_access_time",
                "frac_kernel_hit",
                "frac_tail_wait",
                "frac_miss",
            }
            fracs = (
                cell.metrics["frac_kernel_hit"]
                + cell.metrics["frac_tail_wait"]
                + cell.metrics["frac_miss"]
            )
            assert fracs == pytest.approx(1.0)

    def test_prefetch_only_common_random_numbers_ordering(self):
        # Same draws for every policy, so the oracle can never lose to skp,
        # and skp can never lose to no-prefetch (in expectation; with CRN and
        # these iteration counts the ordering is deterministic).
        result = run(po_spec(iterations=300))
        mean = {c.params["policy"]: c.metrics["mean_access_time"] for c in result.cells}
        assert mean["perfect"] <= mean["skp"] + 1e-9
        assert mean["skp"] <= mean["none"] + 1e-9

    def test_prefetch_cache(self):
        spec = ExperimentSpec(
            name="engine-pc",
            kind="prefetch-cache",
            workload={"states": 30, "out_min": 3, "out_max": 6},
            grid={"policy": ("no+pr", "skp+pr+ds"), "cache_size": (4,)},
            iterations=80,
            seed=5,
        )
        result = run(spec)
        mean = {c.params["policy"]: c.metrics["mean_access_time"] for c in result.cells}
        assert mean["skp+pr+ds"] <= mean["no+pr"] + 1e-9
        for cell in result.cells:
            assert 0.0 <= cell.metrics["hit_rate"] <= 1.0
            assert 0.0 <= cell.metrics["prefetch_precision"] <= 1.0

    def test_cache_trace(self):
        spec = ExperimentSpec(
            name="engine-ct",
            kind="cache-trace",
            workload={"n": 40, "exponent": 1.2},
            grid={"policy": ("lru", "lfu"), "cache_size": (4, 12)},
            iterations=400,
            seed=7,
        )
        result = run(spec)
        for policy in ("lru", "lfu"):
            small = result.cell(policy=policy, cache_size=4).metrics["hit_rate"]
            big = result.cell(policy=policy, cache_size=12).metrics["hit_rate"]
            assert 0.0 <= small <= big <= 1.0

    def test_cache_trace_markov_source(self):
        spec = ExperimentSpec(
            name="engine-ctm",
            kind="cache-trace",
            workload={"source": "markov", "n": 25, "out_min": 3, "out_max": 5},
            grid={"policy": ("lru",), "cache_size": (6,)},
            iterations=200,
            seed=7,
        )
        result = run(spec)
        assert 0.0 < result.cells[0].metrics["hit_rate"] <= 1.0

    def test_fleet_zipf_mixture(self):
        spec = ExperimentSpec(
            name="engine-fleet",
            kind="fleet",
            workload={"n": 30, "top_k": 8, "cache_capacity": 5, "concurrency": 2},
            grid={"policy": ("no+pr", "skp+pr"), "n_clients": (1, 3)},
            iterations=60,
            seed=13,
        )
        result = run(spec)
        assert len(result.cells) == 4
        for cell in result.cells:
            assert 0.0 <= cell.metrics["hit_rate"] <= 1.0
            assert 0.0 <= cell.metrics["prefetch_load_frac"] <= 1.0
            assert 0.0 < cell.metrics["fairness"] <= 1.0
            assert cell.metrics["mean_access_time"] >= 0.0
        # CRN: every cell shares one seed (policy and even n_clients are
        # draw-neutral — bigger fleets extend smaller ones client-by-client),
        # so planning must not lose to no-prefetch on the same population.
        assert len({c.seed for c in result.cells}) == 1
        for n in (1, 3):
            skp = result.cell(policy="skp+pr", n_clients=n)
            none = result.cell(policy="no+pr", n_clients=n)
            assert skp.seed == none.seed
            assert (
                skp.metrics["mean_access_time"]
                <= none.metrics["mean_access_time"] + 1e-9
            )

    def test_fleet_markov_population(self):
        spec = ExperimentSpec(
            name="engine-fleet-markov",
            kind="fleet",
            workload={
                "source": "markov-pop",
                "n": 25,
                "out_min": 3,
                "out_max": 6,
                "cache_capacity": 5,
            },
            grid={"policy": ("skp+pr",), "n_clients": (2,)},
            iterations=80,
            seed=17,
        )
        result = run(spec)
        assert 0.0 < result.cells[0].metrics["hit_rate"] <= 1.0

    def test_fleet_server_cache_metric(self):
        spec = ExperimentSpec(
            name="engine-fleet-cache",
            kind="fleet",
            workload={"n": 30, "overlap": 1.0, "miss_penalty": 8.0, "cache_capacity": 5},
            grid={
                "policy": ("skp+pr",),
                "n_clients": (3,),
                "server_cache_size": (0, 15),
            },
            iterations=60,
            seed=19,
        )
        result = run(spec)
        bare = result.cell(server_cache_size=0)
        cached = result.cell(server_cache_size=15)
        assert bare.metrics["server_cache_hit_rate"] == 0.0
        assert 0.0 < cached.metrics["server_cache_hit_rate"] <= 1.0
        assert cached.metrics["mean_access_time"] < bare.metrics["mean_access_time"]

    def test_topology_placement_sweep(self):
        spec = ExperimentSpec(
            name="engine-topology",
            kind="topology",
            workload={
                "n": 40,
                "overlap": 0.8,
                "edge_cache_size": 12,
                "miss_penalty": 5.0,
                "concurrency": 2,
            },
            grid={
                "policy": ("skp+pr",),
                "n_clients": (3,),
                "placement": ("none", "edge"),
            },
            iterations=50,
            seed=23,
        )
        result = run(spec)
        assert len(result.cells) == 2
        for cell in result.cells:
            assert set(cell.metrics) == set(spec.info.metrics)
            assert 0.0 <= cell.metrics["edge_hit_rate"] <= 1.0
            assert 0.0 < cell.metrics["che_edge_hit_rate"] <= 1.0
            assert cell.metrics["mid_hit_rate"] == 0.0  # tree has no mid tier
        none_cell = result.cell(placement="none")
        edge_cell = result.cell(placement="edge")
        assert none_cell.metrics["prefetch_load_frac"] == 0.0
        assert edge_cell.metrics["prefetch_load_frac"] > 0.0
        assert none_cell.seed == edge_cell.seed  # CRN across placement

    def test_topology_star_reports_no_edge_metrics(self):
        star = run(ExperimentSpec(
            name="engine-star-topo", kind="topology",
            workload={"n": 30, "overlap": 1.0, "topology": "star"},
            grid={"policy": ("skp+pr",), "n_clients": (3,)},
            iterations=40, seed=29,
        )).cells[0]
        # Pass-through proxies have no cache: both the simulated and the
        # analytical edge hit ratios degrade to the CSV-clean 0 sentinel.
        assert star.metrics["edge_hit_rate"] == 0.0
        assert star.metrics["che_edge_hit_rate"] == 0.0
        assert 0.0 <= star.metrics["hit_rate"] <= 1.0

    @pytest.mark.parametrize("placement", ["none", "edge", "client"])
    def test_topology_star_engines_agree_on_every_placement(self, placement):
        # The cohort engine runs a star as the flat fleet of its client tier:
        # on an unbounded uplink that is the event hierarchy bit for bit.
        # Placement gates the clients' planner, never their cache's DS
        # arbitration, so a speculation-free client still evicts by P·r+DS.
        rows = {
            engine: run(ExperimentSpec(
                name="engine-star-engines", kind="topology",
                workload={"n": 30, "top_k": 10, "overlap": 0.6, "stagger": 20.0,
                          "topology": "star", "placement": placement,
                          "concurrency": 0, "engine": engine},
                grid={"policy": ("skp+pr+ds",), "n_clients": (4,)},
                iterations=40, seed=3,
            )).cells[0].metrics
            for engine in ("event", "cohort")
        }
        for name in ("mean_access_time", "p95_access_time", "hit_rate",
                     "prefetch_load_frac", "fairness"):
            assert rows["cohort"][name] == rows["event"][name]

    def test_predictor_eval(self):
        spec = ExperimentSpec(
            name="engine-pe",
            kind="predictor-eval",
            workload={"states": 20, "out_min": 2, "out_max": 4, "warmup": 40},
            grid={"predictor": ("frequency", "markov")},
            iterations=400,
            seed=9,
        )
        result = run(spec)
        mean = {c.params["predictor"]: c.metrics["top1_hit_rate"] for c in result.cells}
        # A first-order model must beat popularity counting on a Markov chain.
        assert mean["markov"] > mean["frequency"]


class TestParallelism:
    def test_worker_counts_produce_identical_tables(self):
        spec = po_spec(iterations=40, grid={"policy": ("none", "skp"), "n": (4, 6)})
        serial = run(spec, workers=1)
        parallel = run(spec, workers=2)
        assert serial.table() == parallel.table()
        assert [c.params for c in serial.cells] == [c.params for c in parallel.cells]

    def test_figure5_small_preset_worker_invariance(self):
        spec = preset("figure5-small", iterations=20)
        assert run(spec, workers=1).table() == run(spec, workers=3).table()

    def test_fleet_preset_worker_invariance(self):
        # Fleet cells are bit-identical for any worker count: the population
        # is derived from per-client seeds hashed out of workload parameters
        # only, never from execution order.
        spec = preset("fleet-small", iterations=40)
        assert run(spec, workers=1).table() == run(spec, workers=4).table()

    def test_topology_preset_worker_invariance(self):
        # Same contract for hierarchies: per-proxy cache seeds hash from
        # (seed, tier, proxy index), so tables are worker-count-invariant.
        spec = preset("edge-prefetch-placement", iterations=25)
        assert run(spec, workers=1).table() == run(spec, workers=4).table()

    def test_progress_callback_streams_every_cell(self):
        spec = po_spec(iterations=10)
        seen = []
        run(spec, workers=1, progress=lambda done, total, cell: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_run_cell_matches_engine(self):
        spec = po_spec(iterations=25)
        cell = spec.cells()[1]
        direct = run_cell(spec, cell)
        engine = run(spec).cells[1]
        assert direct.metrics == engine.metrics
        assert direct.seed == engine.seed

    def test_run_cell_chunk_matches_single_cells(self):
        from repro.experiments.engine import run_cell_chunk

        spec = po_spec(iterations=20)
        cells = spec.cells()
        chunk = run_cell_chunk(spec, list(enumerate(cells)))
        assert [index for index, _ in chunk] == list(range(len(cells)))
        for (_, chunked), cell in zip(chunk, cells):
            assert chunked.metrics == run_cell(spec, cell).metrics

    def test_serial_fast_path_never_creates_a_pool(self, monkeypatch):
        # workers=1 must bypass ProcessPoolExecutor entirely — that is the
        # engine's serial fast path (no spin-up, no pickling).
        import repro.util.pool as pool_mod

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("workers=1 must not create a process pool")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", forbidden)
        spec = po_spec(iterations=10)
        result = run(spec, workers=1)
        assert result.provenance["workers"] == 1


class TestArtifacts:
    def make_result(self) -> ExperimentResult:
        return run(po_spec(iterations=30))

    def test_provenance(self):
        result = self.make_result()
        assert result.provenance["spec_hash"] == result.spec.spec_hash()
        assert result.provenance["cells"] == 3
        assert "version" in result.provenance

    def test_table_shape(self):
        header, rows = self.make_result().table()
        assert header[:2] == ["policy", "n"]
        assert len(rows) == 3
        assert len(rows[0]) == len(header)

    def test_metric_and_select(self):
        result = self.make_result()
        assert len(result.metric("mean_access_time")) == 3
        assert len(result.select(n=5)) == 3
        with pytest.raises(KeyError):
            result.cell(policy="nope")

    def test_write_csv_and_json(self, tmp_path):
        result = self.make_result()
        csv_path, json_path = result.write(tmp_path)
        assert csv_path.name == "engine-po.csv"
        header_line = csv_path.read_text().splitlines()[0]
        assert header_line.startswith("policy,n,mean_access_time")
        payload = json.loads(json_path.read_text())
        assert payload["spec"]["name"] == "engine-po"
        assert len(payload["cells"]) == 3
        # The JSON spec reconstructs the original experiment.
        assert ExperimentSpec.from_dict(payload["spec"]) == result.spec

    def test_format_table_renders(self):
        text = self.make_result().format_table()
        assert "mean_access_time" in text.splitlines()[0]
        assert len(text.splitlines()) == 3 + 2  # header + rule + rows
