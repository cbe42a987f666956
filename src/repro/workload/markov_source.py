"""The 100-state Markov request source of §5.3 (Figure 7's workload).

From the paper: "The requests are generated using a 100-state Markov source.
When going to state i, the Markov source generates a request for item i and,
after the request is served, it waits for the duration of v_i, where
1 <= v_i <= 100, before changing to another state.  The state transition
matrix is constructed such that there are 10 to 20 possible transitions from
any state.  Retrieval times for items are between 1 and 30."

Unspecified details (documented as substitutions in DESIGN.md §3): successor
sets are drawn uniformly without replacement (self-loops allowed), their
transition probabilities are normalised ``Uniform(0, 1)`` weights, and
``v_i`` / ``r_i`` are uniform reals in their ranges.

The source doubles as the *oracle access model* for Figure 7's prefetchers:
``row(state)`` hands the planner the true next-request distribution, which
is the paper's presupposed "knowledge about future accesses".
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

import numpy as np

from repro.util.rng import as_generator

__all__ = ["MarkovSource", "check_out_degree", "generate_markov_source"]


@dataclass(frozen=True)
class MarkovSource:
    """A stationary Markov request source over ``n`` item/states.

    ``transition[i, j]`` is the probability of requesting item ``j`` next
    from state ``i``; ``viewing_times[i]`` is state ``i``'s think time and
    ``retrieval_times[i]`` item ``i``'s network cost.
    """

    transition: np.ndarray  # (n, n), rows sum to 1
    viewing_times: np.ndarray  # (n,)
    retrieval_times: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        t = np.asarray(self.transition, dtype=np.float64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError(f"transition must be square, got {t.shape}")
        if np.any(t < 0):
            raise ValueError("transition probabilities must be non-negative")
        rows = t.sum(axis=1)
        if not np.allclose(rows, 1.0, atol=1e-9):
            raise ValueError("every transition row must sum to 1")
        v = np.asarray(self.viewing_times, dtype=np.float64)
        r = np.asarray(self.retrieval_times, dtype=np.float64)
        if v.shape != (t.shape[0],) or r.shape != (t.shape[0],):
            raise ValueError("viewing/retrieval time vectors must match state count")
        if np.any(v < 0) or np.any(r <= 0):
            raise ValueError("viewing times must be >= 0 and retrieval times > 0")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "viewing_times", v)
        object.__setattr__(self, "retrieval_times", r)

    @property
    def n(self) -> int:
        return int(self.transition.shape[0])

    def row(self, state: int) -> np.ndarray:
        """True next-request distribution from ``state`` (the oracle model)."""
        return self.transition[state]

    def successors(self, state: int) -> np.ndarray:
        """Items reachable from ``state`` in one step."""
        return np.flatnonzero(self.transition[state] > 0.0)

    def step(self, state: int, rng: np.random.Generator) -> int:
        """Sample the next state."""
        row = self.transition[state]
        return int(rng.choice(self.n, p=row))

    def walk(
        self,
        length: int,
        rng: np.random.Generator | int | None = None,
        start: int | None = None,
    ) -> Iterator[int]:
        """Yield ``length`` visited states (requests), starting after ``start``."""
        gen = as_generator(rng)
        state = int(gen.integers(self.n)) if start is None else int(start)
        # Pre-draw uniforms and use cumulative rows for speed.
        cdf = np.cumsum(self.transition, axis=1)
        u = gen.random(length)
        for k in range(length):
            state = int(np.searchsorted(cdf[state], u[k], side="right"))
            if state >= self.n:  # guard against float round-up
                state = self.n - 1
            yield state

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution (left Perron vector) of the chain.

        Used by analysis/benchmarks to reason about long-run request
        frequencies (e.g. what DS-arbitration converges to).
        """
        values, vectors = np.linalg.eig(self.transition.T)
        k = int(np.argmin(np.abs(values - 1.0)))
        pi = np.real(vectors[:, k])
        pi = np.abs(pi)
        return pi / pi.sum()


def check_out_degree(out_degree: tuple[int, int], n_states: int) -> None:
    """Reject an out-degree range no source over ``n_states`` states can have."""
    lo, hi = out_degree
    if not (1 <= lo <= hi <= n_states):
        raise ValueError(f"out_degree range {out_degree} invalid for {n_states} states")


def generate_markov_source(
    n_states: int = 100,
    *,
    out_degree: tuple[int, int] = (10, 20),
    v_range: tuple[float, float] = (1.0, 100.0),
    r_range: tuple[float, float] = (1.0, 30.0),
    seed: int | np.random.Generator | None = None,
) -> MarkovSource:
    """Construct a §5.3 source (defaults are the paper's parameters)."""
    if n_states < 1:
        raise ValueError("n_states must be positive")
    check_out_degree(out_degree, n_states)
    lo, hi = out_degree
    rng = as_generator(seed)
    transition = np.zeros((n_states, n_states), dtype=np.float64)
    for i in range(n_states):
        degree = int(rng.integers(lo, hi + 1))
        successors = rng.choice(n_states, size=degree, replace=False)
        weights = rng.random(degree) + 1e-12
        transition[i, successors] = weights / weights.sum()
    return MarkovSource(
        transition=transition,
        viewing_times=rng.uniform(v_range[0], v_range[1], n_states),
        retrieval_times=rng.uniform(r_range[0], r_range[1], n_states),
    )
