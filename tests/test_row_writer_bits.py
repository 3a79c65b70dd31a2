"""Propagator rows are bitwise P @ y (+ d) at every width the library steps.

dynamics._row_writer writes each step with np.dot into the next row of the
states. The reference here is the matmul expression P @ y + d, one step at a
time from the writer's own previous row, compared as bit patterns. The widths
are those of the propagated states: 6 + 2k for the full flow and 2 + 2k for
the reduced flow, k = 0, 1, 2.
"""

import numpy as np
import pytest

from heisenmech import dynamics as D

FULL_WIDTHS = [6, 8, 10]
REDUCED_WIDTHS = [2, 4, 6]
STEPS = 300


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def step_matrix(rng, n, kind):
    """A stable step matrix: orthogonal (norm-preserving, as a rotation
    flow's), or random with spectral norm below one."""
    if kind == "orthogonal":
        return orthogonal(rng, n)
    P = rng.normal(size=(n, n))
    return 0.9 * P / np.linalg.norm(P, 2)


@pytest.mark.parametrize("kind", ["orthogonal", "small"])
@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("n", sorted(set(FULL_WIDTHS + REDUCED_WIDTHS)))
@pytest.mark.parametrize("seed", range(4))
def test_rows_are_bitwise_p_y_plus_d(seed, n, affine, kind):
    rng = np.random.default_rng([seed, n, affine])
    P = step_matrix(rng, n, kind)
    d = rng.normal(size=n) if affine else None
    states = np.empty((STEPS + 1, n))
    states[0] = rng.normal(size=n)
    step = D._row_writer(P, d, states)
    y = states[0]
    for i in range(STEPS):
        expected = P @ y if d is None else P @ y + d
        y = step(y, i)
        assert np.shares_memory(y, states[i + 1])
        np.testing.assert_array_equal(y.view(np.int64),
                                      expected.view(np.int64))
    assert np.isfinite(states).all()
