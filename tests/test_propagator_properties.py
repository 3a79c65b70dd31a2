"""Property tests: the propagator route against the fixed-point path.

For every declared quadratic Hamiltonian on a constant field (the Euclidean
particle, b = 0, and a general affine form), the propagator's states must
match the steps of rch_vector_field over start magnitudes 1e-6 to 1e6, for
rk4 and for midpoint inside its contraction bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmech import dynamics as D
from heisenmech import magnetic as M
from heisenmech.errors import NonConvergence

STEPS, H = 10, 1e-2


def _system(case, cf, k, rng):
    b = rng.normal(size=(3, 3))
    field = M.MagneticField.constant(b - b.T, cf)
    if case == "euclidean":
        spec = D.euclidean_kinetic_hamiltonian(rng.uniform(0.5, 2.0))
    else:
        S = rng.normal(size=(6, 6))
        spec = D.quadratic_hamiltonian(0.5 * (S + S.T), rng.normal(size=6))
    return D.RCHSystem(field, spec, k=k)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(("euclidean", "affine")),
       method=st.sampled_from(("midpoint", "rk4")),
       exponent=st.floats(-6.0, 6.0),
       cf=st.sampled_from((0.7, -1.2)),
       k=st.sampled_from((0, 1)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_propagator_matches_the_fixed_point_path(case, method, exponent, cf, k,
                                                 seed):
    rng = np.random.default_rng(seed)
    sys = _system(case, cf, k, rng)
    A, b = D._affine_generator(sys)
    assert (case == "affine") == bool(b.any())
    assert np.linalg.norm(0.5 * H * A) < 0.5
    x0 = 10.0 ** exponent * rng.normal(size=sys.dim)
    traj = D.integrate(sys, x0, STEPS * H, H, method)
    assert traj.route == "propagator"
    reference = _fixed_point_path(lambda y: D.rch_vector_field(sys, y), x0, method)
    gap = np.max(np.abs(traj.states - reference))
    assert gap <= 1e-13 * max(1.0, np.max(np.abs(reference)))


def _fixed_point_path(rhs, x0, method):
    """States of the library's rk4 step or midpoint fixed-point iteration.

    The midpoint iteration stops at an increment of 1e-12 times
    max(1, |y|_inf): the library's absolute 1e-12 is below the rounding of
    a state of size 1e4 and more, where the iteration can then end in
    NonConvergence (see test_fixed_point_iteration_at_large_magnitude). For
    |y| <= 1 the two tolerances are the same.
    """
    rhs = D._on_floats(rhs)
    states = [x0.tolist()]
    for i in range(STEPS):
        y = states[-1]
        if method == "rk4":
            states.append(D._rk4_step(rhs, y, H))
        else:
            tol = 1e-12 * max(1.0, max(map(abs, y)))
            states.append(D._midpoint_step(rhs, y, H, i, tol=tol))
    return np.array(states)


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="known defect: the midpoint iteration stops at an "
                          "absolute increment of 1e-12, below the rounding of "
                          "a state of size 3e5, and ends in a two-ulp cycle")
def test_fixed_point_iteration_at_large_magnitude():
    # The same affine system as a general spec takes the "field" route; its
    # propagator twin converges to rounding (test above).
    rng = np.random.default_rng(1)
    sys = _system("affine", 0.7, 0, rng)
    x0 = 10.0 ** 5.5 * rng.normal(size=6)
    assert D.integrate(sys, x0, STEPS * H, H, "midpoint").route == "propagator"
    general = D.RCHSystem(sys.field, D.HamiltonianSpec(sys.hamiltonian.evaluate,
                                                       sys.hamiltonian.gradient))
    D.integrate(general, x0, STEPS * H, H, "midpoint")
