"""Pins on what each construction path builds, compared with ``==``.

The golden traces in ``test_cross_engine.py`` pin the engines on inputs the
tests build by hand.  Nothing there pins the layer above: the ``fleet``,
``topology``, ``drift`` and ``tournament`` kind runners, the optimizer's
candidate evaluator and the ``repro fleet`` / ``repro topology`` reports
each turn a resolved set of knobs into a population, a config and a server
cache before any engine runs.  This module runs one small case per path and
compares every metric row, every analytic and confirmed score and every
byte of CLI output with values recorded from a run of the code, so a
change to how those systems are built must reproduce them exactly.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import ExperimentSpec, run
from repro.optimize import CandidateEvaluator, PlacementProblem

_POP = {"n": 30, "top_k": 10, "overlap": 0.6, "stagger": 20.0}

KIND_CASES = {
    "fleet-event": dict(
        kind="fleet",
        workload=dict(_POP, concurrency=2, discipline="fair", server_cache_size=8,
                      miss_penalty=3.0),
        grid={"policy": ("skp+pr+ds",), "n_clients": (4,)},
        iterations=40, seed=7,
    ),
    "fleet-cohort": dict(
        kind="fleet",
        workload=dict(_POP, engine="cohort", concurrency=3, v_quantum=5.0),
        grid={"policy": ("skp+pr",), "n_clients": (6,)},
        iterations=40, seed=7,
    ),
    "fleet-hybrid": dict(
        kind="fleet",
        workload=dict(_POP, engine="hybrid", hybrid_sample=8, concurrency=64,
                      server_cache_size=10, miss_penalty=2.0),
        grid={"policy": ("skp+pr",), "n_clients": (100_000,)},
        iterations=30, seed=7,
    ),
    "fleet-online-drift": dict(
        kind="fleet",
        workload=dict(source="markov-pop", n=30, out_min=3, out_max=6, stagger=20.0,
                      drift="regime", model_source="online",
                      online_predictor="markov:ewma", concurrency=2),
        grid={"policy": ("skp+pr",), "n_clients": (3,)},
        iterations=40, seed=7,
    ),
    "topology-tree": dict(
        kind="topology",
        workload=dict(_POP, topology="tree", n_edges=2, edge_cache_size=8,
                      concurrency=2, miss_penalty=2.0),
        grid={"policy": ("skp+pr+ds",), "n_clients": (4,)},
        iterations=40, seed=7,
    ),
    "topology-two-tier": dict(
        kind="topology",
        workload=dict(_POP, topology="two-tier", edge_cache_size=6, mid_cache_size=12,
                      placement="edge", edge_delivery_concurrency=2,
                      server_cache_size=5, miss_penalty=2.0, concurrency=3),
        grid={"policy": ("skp+pr",), "n_clients": (4,)},
        iterations=40, seed=7,
    ),
    "topology-star-cohort": dict(
        kind="topology",
        workload=dict(_POP, topology="star", engine="cohort", placement="client",
                      concurrency=0),
        grid={"policy": ("skp+pr",), "n_clients": (5,)},
        iterations=40, seed=7,
    ),
    "topology-star-hybrid": dict(
        kind="topology",
        workload=dict(_POP, topology="star", engine="hybrid", hybrid_sample=8,
                      placement="none", concurrency=64, server_cache_size=10,
                      miss_penalty=2.0),
        grid={"policy": ("skp+pr",), "n_clients": (100_000,)},
        iterations=30, seed=7,
    ),
    "drift": dict(
        kind="drift",
        workload=dict(_POP, n_clients=3, n_windows=3, concurrency=2),
        grid={"policy": ("skp+pr",), "model_source": ("oracle", "online"),
              "window": (0, 2)},
        iterations=40, seed=7,
    ),
    "tournament": dict(
        kind="tournament",
        workload=dict(_POP, n_clients=3),
        grid={"scenario": ("regime",), "predictor": ("frequency:ewma",),
              "model_source": ("oracle", "online")},
        iterations=40, seed=7,
    ),
}

OPT_CASES = {
    "opt-fleet": (
        dict(
            system_kind="fleet",
            system=dict(_POP, miss_penalty=4.0),
            policy="skp+pr",
            n_clients=6,
            variables=(
                {"name": "cache_capacity", "values": (0, 2, 4), "replicas": "clients"},
                {"name": "server_cache_size", "values": (0, 10)},
            ),
            budget=100.0,
            sample=3,
            iterations=30,
            seed=5,
        ),
        ({"cache_capacity": 2, "server_cache_size": 0},
         {"cache_capacity": 4, "server_cache_size": 10}),
    ),
    "opt-tree": (
        dict(
            system_kind="topology",
            system=dict(_POP, topology="tree", n_edges=2, placement="edge",
                        miss_penalty=6.0, concurrency=2),
            policy="skp+pr",
            n_clients=6,
            variables=(
                {"name": "cache_capacity", "values": (0, 2, 4), "replicas": "clients"},
                {"name": "edge_cache_size", "values": (0, 8), "replicas": "edges"},
            ),
            budget=100.0,
            sample=3,
            iterations=30,
            seed=5,
        ),
        ({"cache_capacity": 2, "edge_cache_size": 0},
         {"cache_capacity": 4, "edge_cache_size": 8}),
    ),
}

_CLI_POP = ("--requests", "30", "--catalog", "25", "--stagger", "20")

CLI_CASES = {
    "fleet-event": ("fleet", "--clients", "3", *_CLI_POP, "--concurrency", "2",
                    "--server-cache-size", "6", "--miss-penalty", "2", "--seed", "3"),
    "fleet-cohort": ("fleet", "--engine", "cohort", "--clients", "5", *_CLI_POP,
                     "--v-quantum", "5", "--seed", "4"),
    "fleet-hybrid": ("fleet", "--engine", "hybrid", "--clients", "100000",
                     "--hybrid-sample", "8", *_CLI_POP, "--concurrency", "16",
                     "--server-cache-size", "6", "--miss-penalty", "2"),
    "fleet-online-drift": ("fleet", "--model-source", "online", "--drift", "regime",
                           "--clients", "3", *_CLI_POP, "--policy", "skp+pr+lfu",
                           "--seed", "2"),
    "topology-tree": ("topology", "--clients", "4", *_CLI_POP, "--edges", "2",
                      "--edge-cache-size", "8", "--concurrency", "2",
                      "--server-cache-size", "5", "--miss-penalty", "3"),
    "topology-star": ("topology", "--topology", "star", "--clients", "3", *_CLI_POP,
                      "--placement", "client", "--concurrency", "0"),
    "topology-two-tier": ("topology", "--topology", "two-tier", "--clients", "4",
                          *_CLI_POP, "--edge-cache-size", "6", "--mid-cache-size", "10",
                          "--placement", "edge", "--model-source", "online",
                          "--source", "markov-pop"),
}

KIND_ROWS = {
    "fleet-event": [
        {
            "mean_access_time": 5.303293622128246,
            "p95_access_time": 27.211897978452033,
            "hit_rate": 0.71875,
            "server_utilization": 0.37246183983733383,
            "prefetch_load_frac": 0.6764194939054896,
            "server_cache_hit_rate": 0.7317073170731707,
            "fairness": 0.7779268114354635,
        },
    ],
    "fleet-cohort": [
        {
            "mean_access_time": 3.983350444058246,
            "p95_access_time": 26.597690554673918,
            "hit_rate": 0.7166666666666667,
            "server_utilization": 0.360897582993665,
            "prefetch_load_frac": 0.6482687344545146,
            "server_cache_hit_rate": 0.0,
            "fairness": 0.8628273055615985,
        },
    ],
    "fleet-hybrid": [
        {
            "mean_access_time": 23.90003236225541,
            "p95_access_time": 169.56526069225526,
            "hit_rate": 0.6333333333333333,
            "server_utilization": 176.122609126795,
            "prefetch_load_frac": 0.6203824446375714,
            "server_cache_hit_rate": 0.4425013764495945,
            "fairness": 0.9718152268301996,
        },
    ],
    "fleet-online-drift": [
        {
            "mean_access_time": 10.257815525686787,
            "p95_access_time": 28.573860752824714,
            "hit_rate": 0.31666666666666665,
            "server_utilization": 0.36576989378190566,
            "prefetch_load_frac": 0.3119048373253277,
            "server_cache_hit_rate": 0.0,
            "fairness": 0.9879725498684941,
        },
    ],
    "topology-tree": [
        {
            "mean_access_time": 8.651365795011042,
            "p95_access_time": 45.091937184826506,
            "hit_rate": 0.5875,
            "edge_hit_rate": 0.3939393939393939,
            "che_edge_hit_rate": 0.5684332894742823,
            "mid_hit_rate": 0.0,
            "origin_utilization": 0.2227305193578281,
            "prefetch_load_frac": 0.5119068425160649,
            "fairness": 0.9684305263078458,
        },
    ],
    "topology-two-tier": [
        {
            "mean_access_time": 15.26006898449505,
            "p95_access_time": 73.60669848081022,
            "hit_rate": 0.55,
            "edge_hit_rate": 0.125,
            "che_edge_hit_rate": 0.46132326172424387,
            "mid_hit_rate": 0.2698412698412698,
            "origin_utilization": 0.10761971557803235,
            "prefetch_load_frac": 0.18946144881168236,
            "fairness": 0.9948983229194686,
        },
    ],
    "topology-star-cohort": [
        {
            "mean_access_time": 4.466600174696007,
            "p95_access_time": 21.58239415788043,
            "hit_rate": 0.61,
            "edge_hit_rate": 0.0,
            "che_edge_hit_rate": 0.0,
            "mid_hit_rate": 0.0,
            "origin_utilization": 0.0,
            "prefetch_load_frac": 0.62941887252906,
            "fairness": 0.9594721506765286,
        },
    ],
    "topology-star-hybrid": [
        {
            "mean_access_time": 13.924829055265118,
            "p95_access_time": 69.79160615355956,
            "hit_rate": 0.5291666666666667,
            "edge_hit_rate": 0.0,
            "che_edge_hit_rate": 0.0,
            "mid_hit_rate": 0.0,
            "origin_utilization": 139.50210766886354,
            "prefetch_load_frac": 0.0,
            "fairness": 0.9751906947495624,
        },
    ],
    "drift": [
        {
            "window_start": 0.0,
            "window_end": 13.333333333333334,
            "requests": 42.0,
            "hit_rate": 0.5476190476190477,
            "mean_access_time": 7.846861632881316,
            "model_kl": 4.667808429013791,
            "model_prob": 0.09013861553402214,
            "overall_hit_rate": 0.45,
            "overall_mean_access_time": 8.250335230551077,
            "drift_events": 0.0,
        },
        {
            "window_start": 26.666666666666668,
            "window_end": 40.0,
            "requests": 39.0,
            "hit_rate": 0.28205128205128205,
            "mean_access_time": 9.686999862826193,
            "model_kl": 10.482817662766614,
            "model_prob": 0.02618470966493877,
            "overall_hit_rate": 0.45,
            "overall_mean_access_time": 8.250335230551077,
            "drift_events": 0.0,
        },
        {
            "window_start": 0.0,
            "window_end": 13.333333333333334,
            "requests": 42.0,
            "hit_rate": 0.40476190476190477,
            "mean_access_time": 8.264048012651898,
            "model_kl": 10.607654800895443,
            "model_prob": 0.09986428926127375,
            "overall_hit_rate": 0.4166666666666667,
            "overall_mean_access_time": 7.588366847821556,
            "drift_events": 0.0,
        },
        {
            "window_start": 26.666666666666668,
            "window_end": 40.0,
            "requests": 39.0,
            "hit_rate": 0.41025641025641024,
            "mean_access_time": 6.765481755215963,
            "model_kl": 5.3941261787091515,
            "model_prob": 0.04943401443180812,
            "overall_hit_rate": 0.4166666666666667,
            "overall_mean_access_time": 7.588366847821556,
            "drift_events": 0.0,
        },
    ],
    "tournament": [
        {
            "shift_point": 13.0,
            "pre_hit_rate": 0.6410256410256411,
            "post_hit_rate": 0.19753086419753085,
            "overall_hit_rate": 0.3416666666666667,
            "overall_mean_access_time": 9.39230661045629,
            "model_kl_pre": 4.156667234362316,
            "model_kl_post": 13.080434543152338,
            "model_prob_pre": 0.10676701313902867,
            "model_prob_post": 0.023809190043765874,
            "drift_events": 0.0,
        },
        {
            "shift_point": 13.0,
            "pre_hit_rate": 0.41025641025641024,
            "post_hit_rate": 0.32098765432098764,
            "overall_hit_rate": 0.35,
            "overall_mean_access_time": 9.980668391091529,
            "model_kl_pre": 9.159365379377363,
            "model_kl_post": 7.15343736439537,
            "model_prob_pre": 0.14810958696896764,
            "model_prob_post": 0.05084262099362173,
            "drift_events": 0.0,
        },
    ],
}

#: (analytic, confirmed) score of each assignment in OPT_CASES, in order.
OPT_SCORES = {
    "opt-fleet": [
        (13.926465782181344, 14.525953622888634),
        (10.079581765417212, 11.27679406222277),
    ],
    "opt-tree": [
        (30.64925055841224, 17.354815057308027),
        (13.53860853224525, 16.041788897733053),
    ],
}

CLI_STDOUT = {
    "fleet-event": (
        "fleet: 3 clients x 30 requests (zipf-mix, catalog 25, uplink 2 slots, fifo, engine event)\n"
        "  mean T 4.9432  p50 0.0000  p95 29.1250  p99 41.7861\n"
        "  hit rate 0.778  prefetch precision 0.346  fairness 0.817\n"
        "  server: utilization 0.364  prefetch load 0.738  transfers 71  makespan 1772.4  events 164\n"
        "  server cache hit rate 0.549\n"
    ),
    "fleet-cohort": (
        "fleet: 5 clients x 30 requests (zipf-mix, catalog 25, uplink 4 slots, fifo, engine cohort)\n"
        "  mean T 3.7999  p50 0.0000  p95 22.6394  p99 29.6279\n"
        "  hit rate 0.667  prefetch precision 0.279  fairness 0.962\n"
        "  server: utilization 0.342  prefetch load 0.784  transfers 154  makespan 1886.8  events 309\n"
        "  cohort: 5 cohorts  plan solves 133  memo hits 22\n"
    ),
    "fleet-hybrid": (
        "fleet: 100000 clients x 30 requests (zipf-mix, catalog 25, uplink 16 slots, fifo, engine hybrid)\n"
        "  mean T 20.0036  p50 0.0000  p95 168.0168  p99 373.7893\n"
        "  hit rate 0.625  prefetch precision 0.273  fairness 0.971\n"
        "  server: utilization 746.791  prefetch load 0.729  transfers 225  makespan 4022.0  events 473\n"
        "  hybrid: 8 simulated of 100000 modeled  delta wait -193.0474  iterations 1  [saturated]\n"
    ),
    "fleet-online-drift": (
        "fleet: 3 clients x 30 requests (zipf-mix, catalog 25, uplink 4 slots, fifo, engine event)\n"
        "  mean T 10.2792  p50 1.6520  p95 29.2178  p99 29.7985\n"
        "  hit rate 0.467  prefetch precision 0.000  fairness 0.977\n"
        "  server: utilization 0.157  prefetch load 0.118  transfers 55  makespan 1664.7  events 148\n"
    ),
    "topology-tree": (
        "topology: tree, 4 clients x 30 requests (zipf-mix, catalog 25, 2 edge proxies, placement both)\n"
        "  mean T 11.3643  p50 0.0000  p95 57.4627  p99 93.0444\n"
        "  client hit rate 0.642  prefetch precision 0.325  fairness 0.947\n"
        "  edge: 43 requests  hit rate 0.279  upstream fetches 31  prefetches 4 issued / 0 used\n"
        "  origin: utilization 0.251  prefetch load 0.472  transfers 56  makespan 2014.9  events 300\n"
        "  origin cache hit rate 0.143\n"
        "  che edge reference (IRM, unfiltered demand): 0.613\n"
    ),
    "topology-star": (
        "topology: star, 3 clients x 30 requests (zipf-mix, catalog 25, 1 edge proxy, placement client)\n"
        "  mean T 5.6744  p50 0.0000  p95 20.5212  p99 27.3295\n"
        "  client hit rate 0.600  prefetch precision 0.300  fairness 0.948\n"
        "  edge: pass-through (1 proxy)\n"
        "  origin: offered load 0.943  prefetch load 0.698  transfers 96  makespan 1791.9  events 189\n"
    ),
    "topology-two-tier": (
        "topology: two-tier, 4 clients x 30 requests (markov-pop, catalog 25, 2 edge proxies, placement edge)\n"
        "  mean T 25.2790  p50 17.8356  p95 78.0809  p99 84.5770\n"
        "  client hit rate 0.333  prefetch precision nan  fairness 0.997\n"
        "  edge: 80 requests  hit rate 0.150  upstream fetches 66  prefetches 29 issued / 4 used\n"
        "  mid: 66 requests  hit rate 0.212  upstream fetches 50  prefetches 0 issued / 0 used\n"
        "  origin: utilization 0.114  prefetch load 0.319  transfers 74  makespan 2516.6  events 373\n"
        "  che edge reference (IRM, unfiltered demand): 0.349\n"
    ),
}


@pytest.mark.parametrize("name", sorted(KIND_CASES))
def test_kind_rows(name):
    spec = ExperimentSpec(name=name, **KIND_CASES[name])
    result = run(spec, workers=1)
    assert [dict(cell.metrics) for cell in result.cells] == KIND_ROWS[name]


@pytest.mark.parametrize("name", sorted(OPT_CASES))
def test_optimizer_scores(name):
    problem_kwargs, assignments = OPT_CASES[name]
    evaluator = CandidateEvaluator(PlacementProblem(name=name, **problem_kwargs))
    scores = [(evaluator.analytic(a), evaluator.confirmed(a)) for a in assignments]
    assert scores == OPT_SCORES[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout(name, capsys):
    assert main(list(CLI_CASES[name])) == 0
    assert capsys.readouterr().out == CLI_STDOUT[name]
