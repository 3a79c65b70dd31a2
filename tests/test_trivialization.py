"""The left trivialization rho = (p1 - p3 q2/2, p2 + p3 q1/2, p3), written once.

magnetic.chart_to_body_array is the one writing of the body momentum: the
orbit projection, the level chart, the invariant kinetic Hamiltonian and the
body-scaling force all go through it. Each is held here bitwise against a
test-local copy of the separate writing it replaced, over magnitudes 1e-6 to
1e6 (the strategy of test_chart_properties), on single states and stacks,
with signed-zero entries, for k = 0, 1, 2 and every field kind.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmech import dynamics as D
from heisenmech import magnetic as M
from heisenmech.cli import _body_scaling_map
from heisenmech.errors import NotOnLevelSet
from heisenmech.group import CoAlgebraElement

magnitudes = st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3)
seeds = st.integers(0, 2 ** 32 - 1)
charge_factors = st.sampled_from((1.0, 0.7, -1.3))
ks = st.sampled_from((0, 1, 2))
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# Test-local copies of the writings the kernel replaced.

def old_chart_to_body_array(q, p):
    return np.stack([p[..., 0] - 0.5 * p[..., 2] * q[..., 1],
                     p[..., 1] + 0.5 * p[..., 2] * q[..., 0],
                     p[..., 2]], axis=-1)


def old_fiber_push(q, w):
    return np.concatenate([[w[0] - 0.5 * w[2] * q[1], w[1] + 0.5 * w[2] * q[0]],
                           w[3:]])


def old_project_chart(state, field):
    if field.has_potential:
        state = M.momentum_shift(state, field)
    return old_fiber_push(state[:3], state[3:])


def old_kind(p):
    return "point" if abs(p[2]) <= 1e-12 else "plane"


def old_reduce_point(state, mu_nu, field):
    state = M._chart_state(state)
    J = M.momentum_map(state, field)
    if not np.max(np.abs(J - mu_nu.as_array())) <= 1e-8:
        raise NotOnLevelSet(
            f"point is not on the momentum level {mu_nu.as_array()} within 1e-08")
    shifted = M._momentum_shift(state, field) if field.has_potential else state
    rho = old_chart_to_body_array(shifted[:3], shifted[3:6])
    out = np.concatenate([rho[:2], state[6:]])
    if old_kind(rho) != old_kind(mu_nu.as_array()):
        raise NotOnLevelSet("orbit type of the representative does not match the level")
    return out


def old_sample_level_point(mu_nu, field, k, rng, scale=1.5):
    u = rng.uniform(-scale, scale, 2)
    q = np.array([u[0], u[1], rng.uniform(-scale, scale)])
    nu = mu_nu.nu
    shift = field.charge_factor * field.identity_potential_value()
    rho = np.append(mu_nu.mu - nu * np.array([u[1], -u[0]]) - shift[:2],
                    nu - shift[2])
    theta = rng.uniform(-scale, scale, k)
    lam = rng.uniform(-scale, scale, k)
    return np.concatenate([q, M._chart_momentum(q, rho), theta, lam])


def old_level_lift(chart, mu_nu, field):
    chart = np.asarray(chart, dtype=float)
    nu = mu_nu.nu
    if abs(nu) > 1e-12:
        u = ((chart[1] - mu_nu.mu[1]) / nu, (mu_nu.mu[0] - chart[0]) / nu)
    else:
        u = (0.0, 0.0)
    q = np.array([u[0], u[1], 0.0], dtype=float)
    shift = field.charge_factor * field.identity_potential_value()
    rho = np.append(chart[:2] - shift[:2], nu - shift[2])
    return np.concatenate([q, M._chart_momentum(q, rho), chart[2:]])


def old_invariant_kinetic(m):
    def body(state):
        q, p = state[:3], state[3:6]
        return np.array([p[0] - 0.5 * p[2] * q[1], p[1] + 0.5 * p[2] * q[0], p[2]])

    def evaluate(state):
        rho = body(state)
        return 0.5 * float(rho @ rho) / m

    def gradient(state):
        q, p = state[:3], state[3:6]
        rho = body(state)
        out = np.zeros_like(state)
        out[0] = 0.5 * p[2] * rho[1] / m
        out[1] = -0.5 * p[2] * rho[0] / m
        out[3] = rho[0] / m
        out[4] = rho[1] / m
        out[5] = (-0.5 * q[1] * rho[0] + 0.5 * q[0] * rho[1] + rho[2]) / m
        return out

    return evaluate, gradient


def old_body_scaling_apply(factor, lam_factor, s):
    out = np.asarray(s, dtype=float).copy()
    q, p3 = out[:3], out[5]
    offset = 0.5 * p3 * np.array([q[1], -q[0]])
    out[3:5] = factor * (out[3:5] - offset) + offset
    out[6 + (out.size - 6) // 2:] *= lam_factor
    return out


# Samples.

def general_field(c, cf):
    """q-dependent closed field b12 = c q1^2 with potential (0, c q1^3/3, 0)."""
    def b(q):
        out = np.zeros((3, 3))
        out[0, 1], out[1, 0] = c * q[0] ** 2, -c * q[0] ** 2
        return out

    def da(q):
        return np.array([[0.0, 0.0, 0.0], [c * q[0] ** 2, 0.0, 0.0], [0.0, 0.0, 0.0]])

    return M.MagneticField(b, lambda q: np.array([0.0, c * q[0] ** 3 / 3.0, 0.0]),
                           cf, da)


def fields(a, cf, rng):
    """One field of every kind, at the magnitude of a."""
    m = rng.normal(size=(3, 3)) * np.abs(a).max()
    out = (M.MagneticField.zero(cf), M.MagneticField.constant(m - m.T, cf),
           M.MagneticField.linear_potential(m, cf),
           M.MagneticField.invariant_potential(a, cf), general_field(a[0], cf))
    assert [f.kind for f in out] == ["zero", "constant", "linear", "invariant",
                                     "general"]
    return out


def states(exponents, seed, k, rows=6):
    """rows chart states (q, p, theta, lam) with q and theta at one
    magnitude, p and lam at another, about a fifth of the entries signed
    zeros, and an invariant potential's a at a third magnitude."""
    rng = np.random.default_rng(seed)
    eq, ep, ea = (10.0 ** e for e in exponents)
    out = np.concatenate([eq * rng.normal(size=(rows, 3)),
                          ep * rng.normal(size=(rows, 3)),
                          eq * rng.normal(size=(rows, k)),
                          ep * rng.normal(size=(rows, k))], axis=1)
    zeros = rng.random(out.shape) < 0.2
    out[zeros] = np.copysign(0.0, rng.normal(size=int(zeros.sum())))
    return out, ea * rng.normal(size=3), rng


def outcome(f, *args, **kwargs):
    """The bytes of f's result, or the type and message of what it raised."""
    try:
        return np.asarray(f(*args, **kwargs)).tobytes()
    except Exception as exc:  # noqa: BLE001 - both writings must fail alike
        return type(exc), str(exc)


# Every combination of signed zeros and small values in (q1, q2, p1, p2, p3).
SIGNED = np.array([row[:2] + (0.5,) + row[2:] for row in
                   product((0.0, -0.0, 1.5, -3.0), repeat=5)])


def signed(k, every=1):
    """Every every-th row of SIGNED as a chart state, the V factor -0.0, 0.0."""
    rows = SIGNED[::every]
    return np.concatenate([rows, np.tile([-0.0, 0.0], (len(rows), k))], axis=1)


@PROPERTY
@given(exponents=magnitudes, seed=seeds, k=ks)
def test_body_kernel_is_the_stacked_expression(exponents, seed, k):
    rows, _, _ = states(exponents, seed, k)
    for block in (rows, SIGNED):
        q, p = block[:, :3], block[:, 3:6]
        kept = p.tobytes()
        stacked = M.chart_to_body_array(q, p)
        assert stacked.tobytes() == old_chart_to_body_array(q, p).tobytes()
        assert p.tobytes() == kept
        cube = M.chart_to_body_array(q[:4].reshape(2, 2, 3), p[:4].reshape(2, 2, 3))
        assert cube.tobytes() == stacked[:4].tobytes()
        for qi, pi, row in zip(q, p, stacked):
            single = M.chart_to_body_array(qi, pi)
            assert single.shape == (3,) and single.tobytes() == row.tobytes()


@PROPERTY
@given(exponents=magnitudes, seed=seeds, k=ks, cf=charge_factors)
def test_projection_and_fiber_push_are_the_old_writings(exponents, seed, k, cf):
    rows, a, rng = states(exponents, seed, k)
    control = np.r_[3:6, 6 + k:6 + 2 * k]
    for field in fields(a, cf, rng):
        for s in np.concatenate([rows, signed(k, every=37)]):
            assert outcome(M.project_chart, s, field) == outcome(
                old_project_chart, s, field)
            assert (M._fiber_push(s[:3], s[3:]).tobytes()
                    == old_fiber_push(s[:3], s[3:]).tobytes())
            assert (M._fiber_push(s[:3], s[control]).tobytes()
                    == old_fiber_push(s[:3], s[control]).tobytes())


@PROPERTY
@given(exponents=magnitudes, seed=seeds, k=ks, cf=charge_factors)
def test_reduce_point_is_the_old_writing(exponents, seed, k, cf):
    rows, a, rng = states(exponents, seed, k, rows=3)
    for field in fields(a, cf, rng):
        for s in rows:
            if field.kind in ("zero", "invariant"):
                J = M.momentum_map(s, field)
            else:
                J = rng.normal(size=3)
            # the state's own level, a bumped one, a point-orbit level within
            # tol of a plane state, the point level of a state moved onto
            # nu = 0, and the point level of a state moved to nu = 5e-9 (on
            # the level to 1e-8, but on a plane orbit)
            flat = s.copy()
            flat[5] = -(cf * a[2]) if field.kind == "invariant" else 0.0
            nearly = flat.copy()
            nearly[5] += 5e-9
            if field.kind in ("zero", "invariant"):
                J_flat = M.momentum_map(flat, field)
                J_nearly = M.momentum_map(nearly, field)
            else:
                J_flat = J_nearly = J
            cases = [(s, J), (s, J + [0.0, 1e-3, 0.0]), (s, [J[0], J[1], 0.0]),
                     (flat, J_flat), (nearly, [J_nearly[0], J_nearly[1], 0.0])]
            for state, level in cases:
                level = CoAlgebraElement(level[:2], level[2])
                assert outcome(M.reduce_point, state, level, field) == (
                    outcome(old_reduce_point, state, level, field))


@PROPERTY
@given(exponents=magnitudes, seed=seeds, k=ks, cf=charge_factors)
def test_level_chart_is_the_old_writing(exponents, seed, k, cf):
    rows, a, rng = states(exponents, seed, k)
    for field in fields(a, cf, rng):
        for s, nu in zip(rows, (rows[0, 5], 0.0, -0.0, 1e-13, rows[1, 5], -2.5)):
            level = CoAlgebraElement(s[3:5], nu)
            draw = int(rng.integers(2 ** 32))
            new_rng, old_rng = (np.random.default_rng(draw) for _ in range(2))
            new = M.sample_level_point(level, field, k, new_rng)
            assert new.tobytes() == old_sample_level_point(level, field, k,
                                                           old_rng).tobytes()
            assert new_rng.random() == old_rng.random()
            chart = np.concatenate([s[[3, 0]], s[6:]])
            assert (M.level_lift(chart, level, field).tobytes()
                    == old_level_lift(chart, level, field).tobytes())


@PROPERTY
@given(exponents=magnitudes, seed=seeds, k=ks)
def test_invariant_hamiltonian_and_body_scaling_are_the_old_writings(
        exponents, seed, k):
    rows, _, rng = states(exponents, seed, k)
    mass, factor, lam_factor = rng.uniform(0.2, 5.0, 3)
    spec = D.invariant_kinetic_hamiltonian(mass)
    old_evaluate, old_gradient = old_invariant_kinetic(mass)
    force = _body_scaling_map(factor, lam_factor)
    for s in np.concatenate([rows, signed(k, every=37)]):
        assert np.float64(spec.evaluate(s)).tobytes() == np.float64(
            old_evaluate(s)).tobytes()
        assert spec.grad(s).tobytes() == old_gradient(s).tobytes()
        assert force.apply(s).tobytes() == old_body_scaling_apply(
            factor, lam_factor, s).tobytes()


@pytest.mark.parametrize("k", (0, 1, 2))
def test_signed_zero_states_of_every_k(k):
    field = M.MagneticField.invariant_potential((-0.0, 0.0, 0.5), 1.0)
    force = _body_scaling_map(0.5, -1.0)
    for s in signed(k):
        assert M.project_chart(s, field).tobytes() == old_project_chart(
            s, field).tobytes()
        J = M.momentum_map(s, field)
        level = CoAlgebraElement(J[:2], J[2])
        assert M.reduce_point(s, level, field).tobytes() == old_reduce_point(
            s, level, field).tobytes()
        assert force.apply(s).tobytes() == old_body_scaling_apply(0.5, -1.0,
                                                                  s).tobytes()
