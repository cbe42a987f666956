"""Row-wise ``kl_divergence``: each row of a 2-D call is the 1-D call on it.

The drift and tournament kinds score model rows in batches, so a row's
divergence must not depend on the rows it is batched with, and it must stay
the sum over its own support that the recorded ``model_kl`` columns were
computed with.  numpy sums float64 pairwise in blocks of 128 elements, so
the drawn rows run past 128 columns; both matrices carry zeros, and truth
rows repeat.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulation.metrics import kl_divergence


def _support_kl(p, q, eps=1e-9):
    """One row's divergence, summed over the support of ``p`` alone."""
    q_s = q + eps
    q_s = q_s / q_s.sum()
    support = p > 0.0
    p_n = p[support] / p[support].sum()
    return float(np.sum(p_n * np.log(p_n / q_s[support])))


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random((rows, cols)) ** draw(st.sampled_from([1, 4]))
    q = rng.random((rows, cols)) ** draw(st.sampled_from([1, 4]))
    p[rng.random((rows, cols)) < draw(st.floats(0.0, 1.0))] = 0.0
    q[rng.random((rows, cols)) < draw(st.floats(0.0, 1.0))] = 0.0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                            st.integers(0, rows - 1)), max_size=8)):
        p[dst] = p[src]
    return p, q


@given(_matrices())
def test_each_row_is_the_one_row_call(pq):
    p, q = pq
    out = kl_divergence(p, q)
    assert out.shape == (p.shape[0],)
    for i in range(p.shape[0]):
        one = kl_divergence(p[i], q[i])
        assert isinstance(one, float)
        assert out[i] == one == _support_kl(p[i], q[i])


def test_shapes_are_checked():
    with pytest.raises(ValueError, match="shape mismatch"):
        kl_divergence(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError, match="1-D or 2-D"):
        kl_divergence(np.ones((1, 2, 3)), np.ones((1, 2, 3)))
