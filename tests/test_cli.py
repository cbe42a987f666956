"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __import__("repro").__version__

    def test_solve(self, capsys):
        code = main(
            [
                "solve",
                "--probabilities",
                "0.55,0.2,0.15,0.1",
                "--retrievals",
                "18,6,4,2",
                "--viewing-time",
                "12",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "SKP  plan (0,)" in out
        assert "upper bound" in out

    def test_solve_faithful_variant(self, capsys):
        code = main(
            [
                "solve",
                "--probabilities",
                "0.5,0.5",
                "--retrievals",
                "3,4",
                "--viewing-time",
                "10",
                "--variant",
                "faithful",
            ]
        )
        assert code == 0

    def test_simulate(self, capsys):
        code = main(["simulate", "--iterations", "150", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("no prefetch", "KP prefetch", "SKP prefetch", "perfect prefetch"):
            assert name in out

    def test_figure7_point(self, capsys):
        code = main(
            ["figure7", "--policy", "SKP+Pr+DS", "--cache-size", "5", "--requests", "200"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mean T" in out

    def test_figure7_unknown_policy(self, capsys):
        assert main(["figure7", "--policy", "Magic"]) == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCLIValidation:
    """Malformed input must exit with a clean argparse error, not a traceback."""

    def test_solve_mismatched_lengths(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "solve",
                    "--probabilities",
                    "0.5,0.3,0.2",
                    "--retrievals",
                    "3,4",
                    "--viewing-time",
                    "10",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "same length" in err

    def test_solve_non_numeric_probabilities(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "solve",
                    "--probabilities",
                    "0.5,zebra",
                    "--retrievals",
                    "3,4",
                    "--viewing-time",
                    "10",
                ]
            )
        assert excinfo.value.code == 2
        assert "comma-separated list of numbers" in capsys.readouterr().err

    def test_solve_invalid_probability_mass(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "solve",
                    "--probabilities",
                    "0.9,0.9",
                    "--retrievals",
                    "3,4",
                    "--viewing-time",
                    "10",
                ]
            )
        assert excinfo.value.code == 2
        assert "sum" in capsys.readouterr().err

    def test_simulate_rejects_nonpositive_iterations(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--iterations", "0"])
        assert excinfo.value.code == 2
        assert "positive" in capsys.readouterr().err


class TestExperimentCLI:
    def test_fleet_point(self, capsys):
        code = main(
            [
                "fleet",
                "--clients", "3",
                "--requests", "40",
                "--catalog", "30",
                "--concurrency", "2",
                "--server-cache-size", "10",
                "--miss-penalty", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 clients x 40 requests" in out
        assert "mean T" in out and "fairness" in out
        assert "server cache hit rate" in out

    def test_fleet_unknown_pipeline(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--policy", "warp+drive"])
        assert excinfo.value.code == 2
        assert "skp+pr" in capsys.readouterr().err  # lists alternatives

    def test_topology_point(self, capsys):
        code = main(
            [
                "topology",
                "--clients", "4",
                "--requests", "40",
                "--catalog", "30",
                "--edges", "2",
                "--edge-cache-size", "10",
                "--concurrency", "2",
                "--miss-penalty", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "topology: tree, 4 clients x 40 requests" in out
        assert "edge:" in out and "hit rate" in out
        assert "origin:" in out
        assert "che edge reference" in out

    def test_topology_star_pass_through(self, capsys):
        code = main(
            ["topology", "--topology", "star", "--clients", "2", "--requests", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pass-through" in out
        assert "che edge reference" not in out  # no edge cache to predict

    def test_topology_unknown_topology(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["topology", "--topology", "ring"])
        assert excinfo.value.code == 2
        assert "two-tier" in capsys.readouterr().err  # lists alternatives

    def test_topology_unknown_pipeline(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["topology", "--policy", "warp+drive"])
        assert excinfo.value.code == 2
        assert "skp+pr" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fleet", "topology"])
    @pytest.mark.parametrize(
        "bad,needle",
        [
            (["--policy", "warp+drive"], "skp+pr"),
            (["--server-cache", "hyperlru"], "lru"),
            (["--online-predictor", "psychic"], "frequency:ewma"),
            (["--source", "uniform-pop"], "markov-pop"),
            (["--source", "markov-pop", "--drift", "flash"], "markov"),
        ],
    )
    def test_bad_knob_is_a_one_line_usage_error(self, command, bad, needle, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--clients", "2", "--requests", "10", *bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if ": error:" in line]
        assert len(errors) == 1 and needle in errors[0]

    @pytest.mark.parametrize("engine", ["cohort", "hybrid"])
    def test_fleet_engine_rejects_knobs_before_running(self, engine, capsys):
        # The cohort engine cannot share a server cache, and a drifting
        # population cannot be sampled: both fail before any client runs.
        bad = (
            ["--server-cache-size", "10"]
            if engine == "cohort"
            else ["--drift", "regime"]
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--engine", engine, "--clients", "2", "--requests", "10", *bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if ": error:" in line]) == 1

    def test_experiment_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "figure5-small" in out
        assert "figure7" in out
        assert "fleet-zipf" in out
        for family in ("strategies", "pipelines", "predictors", "cache-policies", "workloads"):
            assert family in out
        assert "skp:corrected" in out

    def test_experiment_describe(self, capsys):
        assert main(["experiment", "describe", "figure5-small"]) == 0
        out = capsys.readouterr().out
        assert '"kind": "prefetch-only"' in out
        assert "v_bin" in out

    def test_experiment_describe_unknown(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "describe", "figure99"])
        assert excinfo.value.code == 2
        assert "figure5-small" in capsys.readouterr().err  # lists alternatives

    def test_experiment_run_unknown_preset(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "run", "figure99"])
        assert excinfo.value.code == 2

    def test_experiment_run_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "experiment",
                "run",
                "figure5-small",
                "--iterations",
                "20",
                "--workers",
                "1",
                "--quiet",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "figure5-small.csv").is_file()
        assert (tmp_path / "figure5-small.json").is_file()
        out = capsys.readouterr().out
        assert "mean_access_time" in out
        assert "wrote" in out

    def test_experiment_run_spec_file(self, tmp_path, capsys):
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec(
            name="cli-spec",
            kind="prefetch-only",
            grid={"policy": ["none", "skp"]},
            iterations=15,
            seed=2,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        code = main(
            [
                "experiment",
                "run",
                "--spec-file",
                str(spec_path),
                "--workers",
                "1",
                "--quiet",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "cli-spec.csv").is_file()

    def test_experiment_run_missing_spec_file(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "run", "--spec-file", "/no/such/file.json"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "content",
        [
            "{ not json",
            '{"name": "x", "kind": "warp-drive"}',
            '{"name": "x", "kind": "prefetch-only", "grid": {"policy": ["no-such"]}}',
        ],
    )
    def test_experiment_run_invalid_spec_file_is_clean_error(
        self, tmp_path, capsys, content
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "run", "--spec-file", str(bad)])
        assert excinfo.value.code == 2
        assert "invalid spec file" in capsys.readouterr().err


class TestGatewayCLI:
    def test_bench_zipf_mix(self, capsys):
        code = main(
            [
                "gateway", "bench",
                "--clients", "4",
                "--requests", "30",
                "--catalog", "30",
                "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "decisions/s" in out
        assert "closed-loop reference" in out
        assert "gap 0.00pp" in out  # unbounded uplink: exact agreement

    def test_bench_trace_source_infers_catalog(self, capsys, tmp_path):
        import numpy as np

        from repro.workload.trace import Trace

        rng = np.random.default_rng(0)
        path = tmp_path / "log.csv"
        Trace(
            rng.integers(0, 15, size=200), rng.uniform(0.5, 2.0, size=200)
        ).save(path)
        code = main(
            [
                "gateway", "bench",
                "--source", f"trace:{path}",
                "--clients", "3",
                "--requests", "20",
                "--catalog", "0",
                "--no-closed-loop",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "catalog 15" in out
        assert "closed-loop" not in out

    def test_bench_missing_trace_file(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway", "bench", "--source", "trace:/no/such.csv"])
        assert excinfo.value.code == 2

    def test_bench_malformed_trace_file(self, capsys, tmp_path):
        bad = tmp_path / "notatrace.csv"
        bad.write_text("item\n3\n7\n")  # missing the viewing_time column
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway", "bench", "--source", f"trace:{bad}"])
        assert excinfo.value.code == 2
        assert "not a trace file" in capsys.readouterr().err

    def test_bench_unknown_source(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway", "bench", "--source", "warp-drive"])
        assert excinfo.value.code == 2

    def test_bench_unknown_pipeline(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway", "bench", "--policy", "no-such"])
        assert excinfo.value.code == 2

    def test_bench_unknown_predictor(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway", "bench", "--predictor", "no-such"])
        assert excinfo.value.code == 2
