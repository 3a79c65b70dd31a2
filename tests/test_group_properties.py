"""Property tests: the Heisenberg group law over magnitudes 1e-6 to 1e6.

Each element is drawn at its own magnitude, so one sample can mix 1e-6 with
1e6. Rounding in the centre coordinate is bounded by the largest term that
enters it, about |u|^2 for the half-area term, so every tolerance is a few
ulps of that term.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmech import group as G

EPS = np.finfo(float).eps
magnitudes = st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3)
seeds = st.integers(0, 2 ** 32 - 1)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _elements(exponents, seed):
    rng = np.random.default_rng(seed)
    return [np.append(10.0 ** e * rng.normal(size=2), 10.0 ** e * rng.normal())
            for e in exponents]


def _largest_planar(*gs):
    return max(float(np.max(np.abs(g[:2]))) for g in gs)


def _largest_term(*gs):
    """Largest |u_i u_j| or |alpha| among the elements."""
    return max(_largest_planar(*gs) ** 2, max(abs(g[2]) for g in gs))


@PROPERTY
@given(exponents=magnitudes, seed=seeds)
def test_associativity(exponents, seed):
    g, h, l = _elements(exponents, seed)
    lhs = G.multiply(G.multiply(g, h), l)
    rhs = G.multiply(g, G.multiply(h, l))
    assert np.max(np.abs(lhs[:2] - rhs[:2])) <= 4 * EPS * _largest_planar(g, h, l)
    assert abs(lhs[2] - rhs[2]) <= 8 * EPS * _largest_term(g, h, l)


@PROPERTY
@given(exponents=magnitudes, seed=seeds)
def test_inverse_is_exact(exponents, seed):
    for g in _elements(exponents, seed):
        assert np.array_equal(G.multiply(g, G.inverse(g)), np.zeros(3))
        assert np.array_equal(G.multiply(G.inverse(g), g), np.zeros(3))


@PROPERTY
@given(exponents=magnitudes, seed=seeds)
def test_to_matrix_is_a_homomorphism(exponents, seed):
    g, h, _ = _elements(exponents, seed)
    lhs = G.to_matrix(G.multiply(g, h))
    rhs = G.to_matrix(g) @ G.to_matrix(h)
    assert np.array_equal(lhs[1:], rhs[1:])
    assert np.max(np.abs(lhs[0, :2] - rhs[0, :2])) <= 4 * EPS * _largest_planar(g, h)
    assert abs(lhs[0, 2] - rhs[0, 2]) <= 8 * EPS * _largest_term(g, h)


@PROPERTY
@given(exponents=magnitudes, seed=seeds)
def test_exp_log_round_trip_is_exact(exponents, seed):
    for g in _elements(exponents, seed):
        xi = G.log(g)
        assert np.array_equal(G.exp(xi), g)
        assert np.array_equal(G.log(G.exp(xi)), xi)
