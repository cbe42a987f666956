#!/usr/bin/env python
"""Web-browsing scenario: learned prediction + SKP prefetching + caching.

The motivating workload of the paper's §1.1 related work (Padmanabhan &
Mogul's predictive web prefetching): a browser session over a site graph.
A Markov "site" generates page visits; the client learns a dependency-graph
access model online, and the planner prefetches over a bandwidth-limited
link with Pr+DS cache arbitration.

Compares three clients on the *same* recorded session, each a 1-client
fleet over a private (unbounded) link:

* demand fetch only;
* SKP prefetching with a dependency-graph model learned online;
* SKP prefetching with the *true* transition rows (oracle).

Run:  python examples/web_browsing.py
"""

from repro.distsys import FleetConfig, run_fleet
from repro.prediction import DependencyGraphPredictor, evaluate_predictor
from repro.workload import generate_markov_source, record_markov_trace
from repro.workload.population import ClientWorkload, Population

N_PAGES = 60
SESSION_LENGTH = 1500


def run_client(site, session, **config):
    """One browser: a 1-client fleet over a unit link.

    Page sizes back out of the paper's retrieval times over a unit link;
    the workload's transition rows are the oracle model.
    """
    population = Population(
        sizes=site.retrieval_times,
        clients=(
            ClientWorkload(
                client_id=0,
                trace=session,
                initial_item=int(session.items[0]),
                initial_viewing_time=0.0,
                transition=site.transition,
            ),
        ),
    )
    config = FleetConfig(
        cache_capacity=12, sub_arbitration="ds", concurrency=None, **config
    )
    return run_fleet(population, config).client_stats[0]


def main() -> None:
    site = generate_markov_source(
        N_PAGES, out_degree=(3, 8), v_range=(2.0, 40.0), seed=2026
    )
    session_trace = record_markov_trace(site, SESSION_LENGTH, seed=11)
    print(f"site: {N_PAGES} pages; session: {SESSION_LENGTH} page views")

    # --- how good is the learned access model? ------------------------------
    score = evaluate_predictor(
        DependencyGraphPredictor(N_PAGES, window=1),
        session_trace.items,
        warmup=200,
    )
    print(
        f"dependency-graph model: top-1 hit {score.top1_hit_rate:.2%}, "
        f"top-5 hit {score.top5_hit_rate:.2%}, "
        f"mean assigned P {score.mean_assigned_probability:.3f}"
    )

    # --- three clients over the identical session ---------------------------
    results = {
        "demand fetch only": run_client(site, session_trace, strategy="none"),
        "SKP + learned model": run_client(
            site, session_trace, model_source="online", online_predictor="graph"
        ),
        "SKP + oracle model": run_client(site, session_trace),
    }

    print("\nmean page-load time (same 1500-view session):")
    for name, stats in results.items():
        extra = ""
        if stats.prefetches_scheduled:
            extra = (
                f"  [prefetches {stats.prefetches_scheduled}, "
                f"precision {stats.prefetches_used / stats.prefetches_scheduled:.2f}]"
            )
        print(f"  {name:22s} {stats.mean_access_time:6.2f}{extra}")

    base = results["demand fetch only"].mean_access_time
    best = results["SKP + oracle model"].mean_access_time
    print(f"\noracle prefetching cuts mean page-load time by {1 - best / base:.0%}")


if __name__ == "__main__":
    main()
