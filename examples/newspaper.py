#!/usr/bin/env python
"""Electronic-newspaper scenario (the ETEL project of §1.1).

A morning-paper reader: a front page links to sections, sections to
articles; popularity is Zipf across sections and articles.  Articles have
*heterogeneous sizes* (photos vs text), exercising the §6 non-uniform-size
extension: sized Pr-arbitration with delay-saving tie-breaks over a slow
home link.

The reading pattern is highly structured (front page -> section -> a few
articles -> front page ...), so even a first-order Markov model learns it
quickly.  We compare demand fetching against SKP prefetching with the
learned model, and report how the sized arbitration filled the cache.

Run:  python examples/newspaper.py
"""

import numpy as np

from repro.core.sizes import arbitrate_prefetch_sized
from repro.core.types import PrefetchProblem
from repro.distsys import FleetConfig, ItemServer, Link, run_fleet
from repro.prediction import MarkovPredictor
from repro.workload import Trace, zipf_probabilities
from repro.workload.population import ClientWorkload, Population

SECTIONS = 5
ARTICLES_PER_SECTION = 8
FRONT_PAGE = 0
N_ITEMS = 1 + SECTIONS + SECTIONS * ARTICLES_PER_SECTION


def section_id(s: int) -> int:
    return 1 + s


def article_id(s: int, a: int) -> int:
    return 1 + SECTIONS + s * ARTICLES_PER_SECTION + a


def reader_trace(length: int, rng: np.random.Generator) -> Trace:
    """Front page -> Zipf section -> a few Zipf articles -> back."""
    section_pop = zipf_probabilities(SECTIONS, 1.1)
    article_pop = zipf_probabilities(ARTICLES_PER_SECTION, 1.0)
    items, views = [], []
    while len(items) < length:
        items.append(FRONT_PAGE)
        views.append(float(rng.uniform(3.0, 10.0)))  # skim the front page
        s = int(rng.choice(SECTIONS, p=section_pop))
        items.append(section_id(s))
        views.append(float(rng.uniform(2.0, 6.0)))
        for _ in range(int(rng.integers(1, 4))):
            a = int(rng.choice(ARTICLES_PER_SECTION, p=article_pop))
            items.append(article_id(s, a))
            views.append(float(rng.uniform(10.0, 60.0)))  # actually reading
    return Trace(np.asarray(items[:length]), np.asarray(views[:length]))


def item_sizes(rng: np.random.Generator) -> np.ndarray:
    sizes = np.empty(N_ITEMS)
    sizes[FRONT_PAGE] = 30.0  # image-heavy front page
    for s in range(SECTIONS):
        sizes[section_id(s)] = 8.0
        for a in range(ARTICLES_PER_SECTION):
            sizes[article_id(s, a)] = float(rng.uniform(3.0, 25.0))
    return sizes


def main() -> None:
    rng = np.random.default_rng(7)
    sizes = item_sizes(rng)
    trace = reader_trace(2000, rng)
    link = Link(latency=0.3, bandwidth=4.0)  # slow home connection
    server = ItemServer(sizes)
    print(
        f"catalog: {N_ITEMS} items (front page + {SECTIONS} sections + "
        f"{SECTIONS * ARTICLES_PER_SECTION} articles); "
        f"sizes {sizes.min():.0f}..{sizes.max():.0f}"
    )

    # One reader: a 1-client fleet over the home link.  The reader's model
    # is learned online (first-order Markov), so the workload's own row is
    # never consulted; it only has to be a valid one.
    reader = Population(
        sizes=sizes,
        clients=(
            ClientWorkload(
                client_id=0,
                trace=trace,
                initial_item=FRONT_PAGE,
                initial_viewing_time=0.0,
                probabilities=np.zeros(N_ITEMS),
            ),
        ),
    )
    results = {}
    for label, strategy in (("demand fetch", "none"), ("SKP prefetch", "skp")):
        config = FleetConfig(
            cache_capacity=10,
            strategy=strategy,
            sub_arbitration="ds",
            latency=link.latency,
            bandwidth=link.bandwidth,
            concurrency=None,
            model_source="online",
            online_predictor="markov",
        )
        results[label] = run_fleet(reader, config).mean_access_time

    print("\nmean article wait (same 2000-view reading session):")
    for label, mean_wait in results.items():
        print(f"  {label:14s} {mean_wait:6.2f}")

    # --- §6 sized arbitration, shown on a single planning decision ----------
    model = MarkovPredictor(N_ITEMS)
    model.update_many(trace.items[:500])
    retrievals = server.retrieval_times(link)
    problem = PrefetchProblem(model.predict(), retrievals, viewing_time=20.0)
    cache = [FRONT_PAGE, section_id(0), article_id(0, 0)]
    from repro import solve_skp

    candidates = solve_skp(problem.subproblem([i for i in range(N_ITEMS) if i not in cache])).plan
    candidate_ids = tuple(
        [i for i in range(N_ITEMS) if i not in cache][k] for k in candidates.items
    )
    sized = arbitrate_prefetch_sized(
        problem,
        candidate_ids,
        cache,
        sizes,
        capacity=float(sizes[cache].sum()),
    )
    print(
        f"\nsized arbitration demo: candidates {candidate_ids} -> "
        f"admit {sized.prefetch.items}, eject {sized.eject} "
        f"(multi-victim matches bytes, not item counts)"
    )

    base = results["demand fetch"]
    got = results["SKP prefetch"]
    print(f"\nSKP prefetching with a learned model cuts waits by {1 - got / base:.0%}")


if __name__ == "__main__":
    main()
