"""Property tests: chart maps of the phase space over magnitudes 1e-6 to 1e6.

Each block of a sample (q, p, the field's parameters) is drawn at its own
magnitude, so one sample can mix 1e-6 with 1e6. A round trip x -> x + t -> x
loses at most the rounding of the larger of x and t, so every tolerance is a
few ulps of the largest term that enters the component.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmech import magnetic as M

EPS = np.finfo(float).eps
magnitudes = st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3)
seeds = st.integers(0, 2 ** 32 - 1)
charge_factors = st.sampled_from((1.0, 0.7, -1.3))
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _sample(exponents, seed, k=1):
    """Chart state (q, p, theta, lam) and an invariant potential's a."""
    rng = np.random.default_rng(seed)
    eq, ep, ea = (10.0 ** e for e in exponents)
    state = np.concatenate([eq * rng.normal(size=3), ep * rng.normal(size=3),
                            eq * rng.normal(size=k), ep * rng.normal(size=k)])
    return state, ea * rng.normal(size=3), rng


def _half_products(q, p):
    """|p2 q1| and |p2 q0| / 2: the terms chart_to_body_array adds to p."""
    return 0.5 * abs(p[2]) * np.abs(q[:2])


@PROPERTY
@given(exponents=magnitudes, seed=seeds)
def test_chart_body_chart_round_trip(exponents, seed):
    state, _, _ = _sample(exponents, seed)
    q, p = state[:3], state[3:6]
    rho = M.chart_to_body_array(q, p)
    back = M._chart_momentum(q, rho)
    assert back[2] == p[2] and rho[2] == p[2]
    largest = np.maximum(np.abs(p[:2]), _half_products(q, p)[::-1])
    assert np.all(np.abs(back[:2] - p[:2]) <= 2 * EPS * largest)
    # the stacked form is the same map row by row
    stacked = M.chart_to_body_array(np.stack([q, 2 * q]), np.stack([p, p]))
    assert stacked[0].tobytes() == rho.tobytes()


def _fields(a, cf, rng):
    linear = rng.normal(size=(3, 3)) * np.abs(a).max()
    return (M.MagneticField.invariant_potential(a, cf),
            M.MagneticField.linear_potential(linear, cf))


@PROPERTY
@given(exponents=magnitudes, seed=seeds, cf=charge_factors)
def test_momentum_shift_there_and_back(exponents, seed, cf):
    state, a, rng = _sample(exponents, seed)
    for field in _fields(a, cf, rng):
        shift = cf * field.vector_potential(state[:3])
        there = M.momentum_shift(state, field)
        back = M.momentum_shift(there, replace(field, charge_factor=-cf))
        assert np.array_equal(there[:3], state[:3])
        assert np.array_equal(back[:3], state[:3])
        assert back[6:].tobytes() == state[6:].tobytes()
        largest = np.maximum(np.abs(state[3:6]), np.abs(shift))
        assert np.all(np.abs(back[3:6] - state[3:6]) <= 2 * EPS * largest)


@PROPERTY
@given(exponents=magnitudes, seed=seeds, cf=charge_factors)
def test_stacked_momentum_map_is_the_point_map_row_by_row(exponents, seed, cf):
    state, a, rng = _sample(exponents, seed, k=0)
    rows = np.stack([state * rng.uniform(0.5, 2.0, 6) for _ in range(4)])
    for field in (M.MagneticField.zero(cf), M.MagneticField.invariant_potential(a, cf)):
        J = M.momentum_map(rows, field)
        for s, row in zip(rows, J):
            point = M.momentum_map(s, field)
            assert row.tobytes() == point.tobytes()
            # J = coadjoint of the shifted body momentum, written out
            shifted = s.copy()
            if field.kind == "invariant":
                shifted[3:6] += cf * field.vector_potential(s[:3])
            mu1, mu2, nu = M.chart_to_body_array(s[:3], shifted[3:6])
            expected = np.array([mu1 + nu * s[1], mu2 - nu * s[0], nu])
            largest = max(np.abs(shifted[3:6]).max(),
                          abs(nu) * np.abs(s[:2]).max())
            assert np.all(np.abs(row - expected) <= 8 * EPS * largest)
