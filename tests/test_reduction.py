"""Reduced systems, commutation sweeps, the circle-bundle detour, and matching."""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmech import checks
from heisenmech import dynamics as D
from heisenmech import fd
from heisenmech import magnetic as M
from heisenmech import reduction as R
from heisenmech.cli import _body_scaling_map, _constant_push_map
from heisenmech.errors import (
    ControlSubsetMissing,
    IrregularLevel,
    MissingPotential,
    NotInvariant,
    SingularForm,
)
from heisenmech.group import (CoAlgebraElement, GroupElement, coadjoint, inverse,
                              multiply)
from heisenmech.orbit import OrbitFunction

LEVEL = CoAlgebraElement((0.4, -0.7), 1.0)


def body_of(state):
    """Reference trivialization, flat (g, rho), of a chart state, written out here."""
    q, p = state[:3], state[3:6]
    return (q.copy(),
            np.array([p[0] - 0.5 * p[2] * q[1], p[1] + 0.5 * p[2] * q[0], p[2]]))


def chart_of(g, rho, theta=(), lam=()):
    """Reference chart state of the trivialized point (g, rho, theta, lam)."""
    p = np.array([rho[0] + 0.5 * rho[2] * g[1], rho[1] - 0.5 * rho[2] * g[0],
                  rho[2]])
    return np.concatenate([g, p, theta, lam])


def body_scaling(factor, lam_factor=1.0):
    """Equivariant fiber map scaling the planar body momentum."""

    def apply(s):
        s = np.asarray(s, dtype=float)
        g, rho = body_of(s)
        out = chart_of(g, rho * [factor, factor, 1.0], s[6:])
        out[6 + (s.size - 6) // 2:] *= lam_factor
        return out

    return D.FiberMap(apply=apply)


def identity_map(x):
    """The identity base, and its own lift and inverse."""
    return np.asarray(x, dtype=float).copy()


def shear_lift(s):
    """A fiber shear over the identity base: not a cotangent lift. Like every
    DiffeoSpec callable it takes a state or a stack of them."""
    out = np.asarray(s, dtype=float).copy()
    out[..., 3] += out[..., 1]
    return out


def shear_inverse(s):
    out = np.asarray(s, dtype=float).copy()
    out[..., 3] -= out[..., 1]
    return out


def shear_tangent(s, v):
    """The shear is linear: its tangent is the shear of the vector."""
    return shear_lift(v)


def identity_tangent(s, v):
    return identity_map(v)


def constant_push(delta):
    delta = np.asarray(delta, dtype=float)

    def apply(s):
        out = np.asarray(s, dtype=float).copy()
        out[3:6] += delta
        return out

    return D.FiberMap(apply=apply)


def particle(ham=None, force=None, control=None, subset=None, field=None, m=1.0):
    if field is None:
        field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    if ham is None:
        ham = D.invariant_kinetic_hamiltonian(m)
    return D.RCHSystem(field, ham, force=force, control=control,
                       control_subset=subset, m=m)


def test_reduce_system_free_particle_value():
    sys = particle(field=M.MagneticField.zero())
    red = R.reduce_system(sys, LEVEL)
    rng = np.random.default_rng(10)
    for _ in range(50):
        rho = rng.uniform(-2, 2, 2)
        assert abs(red.hamiltonian.evaluate(rho) - 0.5 * (rho @ rho + 1.0)) <= 1e-12


@pytest.mark.parametrize("k", [0, 1])
def test_reduced_hamiltonian_value_reads_the_stored_lift(k):
    # Both the declared-form and the chain-rule reduced Hamiltonian evaluate
    # the source Hamiltonian at red.lift, bit for bit.
    rng = np.random.default_rng(12 + k)
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 0.9)
    kinetic = D.invariant_kinetic_hamiltonian(1.3)
    for ham in (kinetic, D.HamiltonianSpec(kinetic.evaluate, kinetic.gradient)):
        red = R.reduce_system(D.RCHSystem(field, ham, k=k), LEVEL)
        assert (red.hamiltonian.form is None) == (ham.kind == "general")
        for _ in range(50):
            z = rng.uniform(-2, 2, 2 + 2 * k)
            value = red.hamiltonian.evaluate(z)
            assert type(value) is float
            assert value.hex() == float(ham.evaluate(red.lift(z))).hex()


def test_reduce_system_shifted_value():
    a = np.array([0.3, -0.2, 0.8])
    sys = particle(m=2.0)
    red = R.reduce_system(sys, LEVEL)
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = rng.uniform(-2, 2, 2)
        w = np.concatenate([rho, [1.0]]) - a
        assert abs(red.hamiltonian.evaluate(rho) - 0.5 * (w @ w) / 2.0) <= 1e-12


def test_reduce_system_errors():
    with pytest.raises(IrregularLevel):
        R.reduce_system(particle(), CoAlgebraElement((0.4, -0.7), 0.0))

    def bad(state):
        q = state[:3]
        return 0.5 * float(state[3:6] @ state[3:6]) + q[0]

    def bad_gradient(state):
        out = np.zeros_like(state)
        out[0], out[3:6] = 1.0, state[3:6]
        return out

    with pytest.raises(NotInvariant):
        R.reduce_system(particle(ham=D.HamiltonianSpec(bad, bad_gradient)), LEVEL)

    def kick_center(s):
        out = np.asarray(s, dtype=float).copy()
        out[5] += 1.0
        return out

    with pytest.raises(NotInvariant):
        R.reduce_system(particle(force=D.FiberMap(apply=kick_center)), LEVEL)


def test_point_orbit_reduction():
    kinetic = D.invariant_kinetic_hamiltonian(1.0)

    def with_circle_energy(state):
        return kinetic.evaluate(state) + 0.5 * state[7] ** 2

    def gradient(state):
        out = kinetic.grad(state)
        out[7] += state[7]
        return out

    sys = particle(field=M.MagneticField.zero(),
                   ham=D.HamiltonianSpec(with_circle_energy, gradient))
    sys = dataclasses.replace(sys, k=1)
    level = CoAlgebraElement((0.5, 0.2), 0.0)
    red = R.reduce_system(sys, level, expected_orbit="point")
    X = R.reduced_hamiltonian_field(red, np.array([0.5, 0.2, 0.3, 0.9]))
    assert np.allclose(X[:2], 0.0, atol=1e-12)
    assert np.allclose(X[2:], [0.9, 0.0], atol=1e-10)


def test_reduced_force_and_control_maps():
    subset = D.ControlSubset(np.zeros(3), np.eye(3))
    sys = particle(force=body_scaling(0.6), control=constant_push((0.3, -0.1, 0.0)),
                   subset=subset)
    red = R.reduce_system(sys, LEVEL)
    rng = np.random.default_rng(12)
    shift = sys.field.charge_factor * sys.field.identity_potential_value()[:2]
    for _ in range(30):
        chart = rng.uniform(-2, 2, 2)
        moved = M.project_chart(sys.force.apply(red.lift(chart)), sys.field)
        expected = 0.6 * (chart - shift) + shift
        assert np.max(np.abs(moved - expected)) <= 1e-12
        pushed = M.project_chart(sys.control.apply(red.lift(chart)), sys.field)
        assert np.max(np.abs(pushed - (chart + [0.3, -0.1]))) <= 1e-12
        assert red.control_subset_at(chart).contains(pushed)


def test_commutation_sweep_passes():
    subset = D.ControlSubset(np.zeros(3), np.eye(3))
    sys = particle(force=body_scaling(0.6, lam_factor=0.8),
                   control=constant_push((0.3, -0.1, 0.0)), subset=subset)
    red = R.reduce_system(sys, LEVEL)
    record = R.check_commutation(sys, red, samples=100)
    assert record.passed
    assert record.max_residual <= 1e-5
    assert record.name == "reduction.commutation"


def test_commutation_zero_hamiltonian():
    zero = D.HamiltonianSpec(lambda s: 0.0, lambda s: np.zeros(6))
    sys = particle(ham=zero, field=M.MagneticField.zero())
    red = R.reduce_system(sys, LEVEL)
    record = R.check_commutation(sys, red, samples=20)
    assert record.max_residual <= 1e-12


def test_commutation_negative_control():
    sys = particle()
    red = R.reduce_system(sys, LEVEL)
    h = red.hamiltonian
    broken = dataclasses.replace(
        red, hamiltonian=OrbitFunction(evaluate=lambda z: 2.0 * h.evaluate(z)))
    record = R.check_commutation(sys, broken, samples=50)
    assert not record.passed
    assert record.max_residual >= 1e-2


def test_center_acts_trivially_on_reduction():
    sys = particle()
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = M.sample_level_point(LEVEL, sys.field, 0, rng)
        z = M.reduce_point(x, LEVEL, sys.field)
        moved = M.left_translate(np.array([0.0, 0.0, rng.normal()]), x)
        z2 = M.reduce_point(moved, LEVEL, sys.field)
        assert np.array_equal(z, z2)


def test_reduced_trajectory_conserves_energy():
    sys = particle()
    red = R.reduce_system(sys, LEVEL)
    times, charts, energies = R.integrate_reduced(red, np.array([1.2, -0.4]),
                                                  t_end=5.0, h=1e-3)
    assert times.shape == (5001,) and charts.shape == (5001, 2)
    assert np.max(np.abs(energies - energies[0])) <= 1e-8


def test_tiny_nu_plane_leaf_raises_singular_form():
    # 1e-9 is above classify_orbit's 1e-12, so the leaf is a plane, but the
    # orbit form coefficient c = -nu falls under the c^2 < 1e-14 threshold.
    level = CoAlgebraElement(LEVEL.mu, 1e-9)
    red = R.reduce_system(particle(), level)
    assert red.orbit_kind == "plane"
    with pytest.raises(SingularForm):
        R.integrate_reduced(red, np.array([1.2, -0.4]), t_end=0.1, h=1e-2)


def test_reduced_gradient_matches_finite_differences():
    kinetic = D.invariant_kinetic_hamiltonian(1.3)

    def evaluate(state):
        return kinetic.evaluate(state) + 0.5 * state[7] ** 2 + np.cos(state[6])

    def gradient(state):
        out = kinetic.grad(state)
        out[6] -= np.sin(state[6])
        out[7] += state[7]
        return out

    rng = np.random.default_rng(15)
    for sys in (particle(m=1.3),
                D.RCHSystem(particle().field, D.HamiltonianSpec(evaluate, gradient),
                            m=1.3, k=1)):
        red = R.reduce_system(sys, LEVEL)
        h = red.hamiltonian
        assert h.gradient is not None or h.form is not None
        for _ in range(20):
            chart = rng.uniform(-2, 2, 2 + 2 * sys.k)
            expected = fd.gradient(red.hamiltonian.evaluate, chart)
            assert np.max(np.abs(red.hamiltonian.grad(chart) - expected)) <= 1e-8


def reference_projection(state, field, k):
    """Orbit projection through the reference trivialization: body -> chart,
    p + charge_factor * A(q), chart -> body, then the planar body momentum."""
    g, rho = body_of(state)
    if field.has_potential:
        shifted = chart_of(g, rho)
        shifted[3:6] += field.charge_factor * field.vector_potential(state[:3])
        g, rho = body_of(shifted)
    return np.concatenate([rho[:2], state[6:]])


@pytest.mark.parametrize("k", (0, 1))
@pytest.mark.parametrize("level,orbit", (
    (LEVEL, "plane"), (CoAlgebraElement((0.5, 0.2), 0.0), "point")))
@pytest.mark.parametrize("field", (
    M.MagneticField.zero(),
    M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 0.5)),
    ids=("zero", "invariant"))
def test_flat_lift_projection_and_push_match_dataclass_path(k, level, orbit, field):
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0),
                      force=body_scaling(0.6, lam_factor=0.8), k=k)
    red = R.reduce_system(sys, level, expected_orbit=orbit)
    rng = np.random.default_rng(17)
    _, fiber = D._base_fiber_indices(k)
    for _ in range(30):
        chart = rng.uniform(-2, 2, 2 + 2 * k)
        for alpha in (0.0, 0.9, -1.7):
            expected = M.level_lift(chart, level, field)
            expected[2] += alpha
            assert np.max(np.abs(red.lift(chart, alpha) - expected)) <= 1e-12
        state = rng.uniform(-2, 2, 6 + 2 * k)
        assert np.max(np.abs(M.project_chart(state, field)
                             - reference_projection(state, field, k))) <= 1e-12
        lift = red.lift(chart)
        v = np.zeros(6 + 2 * k)
        v[fiber] = rng.normal(size=3 + k)
        expected = (reference_projection(lift + v, field, k)
                    - reference_projection(lift, field, k))
        assert np.max(np.abs(M._fiber_push(lift[:3], v[3:]) - expected)) <= 1e-12
        v = D.vertical_lift(sys.force, sys, lift)
        expected = (reference_projection(lift + v, field, k)
                    - reference_projection(lift, field, k))
        assert np.max(np.abs(R.reduced_vertical_lift(sys.force, red, chart)
                             - expected)) <= 1e-12


def test_kaluza_klein_momentum_and_errors():
    with pytest.raises(MissingPotential):
        R.kaluza_klein_system(M.MagneticField.constant(np.zeros((3, 3))), 1.0, 1.0)


def test_kaluza_klein_free_case():
    field = M.MagneticField.linear_potential(np.zeros((3, 3)))
    kk = R.kaluza_klein_system(field, m=2.0, mu=0.0)
    records = R.kk_reduce_and_compare(kk, np.array([0.1, 0.2, 0.3, 1.0, -0.5, 0.4]),
                                      t_end=1.0, h=1e-3)
    by_name = {r.name: r for r in records}
    assert by_name["kk.trajectory_match"].max_residual <= 1e-10
    assert by_name["kk.lambda_drift"].max_residual <= 1e-12


def test_kaluza_klein_alpha_form():
    field = M.MagneticField.invariant_potential((0.4, 0.1, -0.9), 1.0)
    kk = R.kaluza_klein_system(field, m=1.0, mu=1.3)
    record = R.kk_alpha_form_check(kk)
    assert record.passed and record.max_residual <= 1e-6

    def b(q):
        out = np.zeros((3, 3))
        out[0, 1], out[1, 0] = q[0] ** 2, -q[0] ** 2
        return out

    def da(q):
        return np.array([[0.0, 0.0, 0.0], [q[0] ** 2, 0.0, 0.0], [0.0, 0.0, 0.0]])

    bumpy = M.MagneticField(b, lambda q: np.array([0.0, q[0] ** 3 / 3.0, 0.0]), 1.0,
                            da)
    record = R.kk_alpha_form_check(R.kaluza_klein_system(bumpy, 1.0, 0.8))
    assert record.passed


def test_kaluza_klein_matches_magnetic_flow():
    coeff = np.array([[0, 0, 0], [1.0, 0, 0], [0, 0, 0]])
    field = M.MagneticField.linear_potential(coeff)
    kk = R.kaluza_klein_system(field, m=1.0, mu=1.0)
    records = R.kk_reduce_and_compare(
        kk, np.array([0.2, -0.1, 0.0, 1.0, 0.3, -0.2]), t_end=1.0, h=1e-4)
    by_name = {r.name: r for r in records}
    assert by_name["kk.trajectory_match"].max_residual <= 1e-6
    assert by_name["kk.lambda_drift"].max_residual <= 1e-8
    assert all(r.passed for r in records)


def test_diffeo_spec_validation():
    def scaled_lift(s):
        s = np.asarray(s, dtype=float)
        return np.concatenate([0.5 * s[..., :3], 2.0 * s[..., 3:]], axis=-1)

    def scaled_inverse(s):
        s = np.asarray(s, dtype=float)
        return np.concatenate([2.0 * s[..., :3], 0.5 * s[..., 3:]], axis=-1)

    with pytest.raises(ValueError, match="base_inverse"):
        R.DiffeoSpec(lambda q: 2.0 * np.asarray(q), lambda q: np.asarray(q),
                     scaled_lift, scaled_inverse,
                     lambda s, v: scaled_lift(v))
    with pytest.raises(ValueError, match="custom lift differs"):
        R.DiffeoSpec(identity_map, identity_map, shear_lift, shear_inverse,
                     shear_tangent)
    spec = R.DiffeoSpec(identity_map, identity_map, shear_lift, shear_inverse,
                        shear_tangent, verify_lift=False)
    assert spec.lift(np.ones(6))[3] == 2.0
    assert spec.lift_tangent(np.zeros(6), np.ones(6))[3] == 2.0


def test_diffeo_spec_declares_its_lift_tangent():
    # Nothing differences the lift: a DiffeoSpec without lift_tangent is
    # refused at construction.
    with pytest.raises(TypeError):
        R.DiffeoSpec(identity_map, identity_map, shear_lift, shear_inverse,
                     verify_lift=False)


@pytest.mark.parametrize("result", ["list", "float32"])
def test_diffeo_spec_refuses_a_lift_that_is_no_float64_array(result):
    # The checkers call the declared callables directly, so construction
    # refuses a stacked result that is not a float64 array of the row shape.
    convert = {"list": lambda a: a.tolist(),
               "float32": lambda a: a.astype(np.float32)}[result]
    with pytest.raises(ValueError, match="DiffeoSpec.lift must take a stack"):
        R.DiffeoSpec(identity_map, identity_map,
                     lambda s: convert(identity_map(s)), identity_map,
                     identity_tangent)


@pytest.mark.parametrize("one_point", ["base", "base_inverse", "lift",
                                       "lift_inverse", "lift_tangent"])
def test_a_one_point_callable_is_refused_at_construction(one_point):
    # On a stack, "out[3] += out[1]" adds row 1 into row 3, and a one-point
    # map of q builds rows out of its first three points; construction
    # compares each callable's stacked call with its calls row by row.
    def one_point_shear(s, *_):
        out = np.asarray(s, dtype=float).copy()
        out[3] += out[1]
        return out

    def one_point_copy(q):
        return np.array([q[0], q[1], q[2]], dtype=float)

    maps = dict(base=identity_map, base_inverse=identity_map, lift=shear_lift,
                lift_inverse=shear_inverse, lift_tangent=shear_tangent)
    maps[one_point] = (one_point_copy if one_point.startswith("base")
                       else one_point_shear)
    with pytest.raises(ValueError,
                       match=f"DiffeoSpec.{one_point} must take a stack"):
        R.DiffeoSpec(**maps, verify_lift=False)
    # The same maps written on the last axis construct.
    R.DiffeoSpec(identity_map, identity_map, shear_lift, shear_inverse,
                 shear_tangent, verify_lift=False)


def test_diffeo_spec_inverse_check_is_relative_to_the_image():
    with pytest.raises(ValueError, match="base_inverse"):
        R.DiffeoSpec(identity_map, lambda q: np.asarray(q, dtype=float) + 1e-6,
                     identity_map, identity_map, identity_tangent)
    # The round trip of a far translation rounds at the image's scale, about
    # 1e-7 at 1e9, which an absolute bound of 1e-8 refused.
    shift = np.array([1e9, 0.0, 0.0])
    lifted = np.concatenate([shift, np.zeros(3)])
    R.DiffeoSpec(lambda q: np.asarray(q) + shift, lambda q: np.asarray(q) - shift,
                 lambda s: np.asarray(s) - lifted, lambda s: np.asarray(s) + lifted,
                 identity_tangent)


def test_group_translation_lift_is_momentum_friendly():
    h = GroupElement((0.8, -0.5), 0.3)
    phi = R.DiffeoSpec.group_translation(h)
    rng = np.random.default_rng(14)
    for _ in range(20):
        s = rng.uniform(-2, 2, 6)
        lifted = phi.lift(s)
        g, rho = body_of(s)
        expected = chart_of(multiply(inverse(h.as_array()), g), rho)
        assert np.max(np.abs(lifted - expected)) <= 1e-9
        back = phi.lift_inverse(lifted)
        assert np.max(np.abs(back - s)) <= 1e-9


def test_mr1_identity_and_translation():
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    record = R.check_mr1(R.DiffeoSpec.identity(), field, field)
    assert record.max_residual <= 1e-10

    phi = R.DiffeoSpec.group_translation(GroupElement((0.4, 0.9), -0.2))
    record = R.check_mr1(phi, field, field, samples=60)
    assert record.passed


def test_mr1_shear_negative():
    field = M.MagneticField.zero()
    record = R.check_mr1(shear(), field, field, samples=60)
    assert not record.passed
    assert record.max_residual >= 1e-2


def test_mr2_identity_and_translation_levels():
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    records = R.check_mr2_equivariance(R.DiffeoSpec.identity(), LEVEL, LEVEL,
                                       field, field, samples=30)
    assert all(r.max_residual <= 1e-10 for r in records)

    h = GroupElement((0.8, -0.5), 0.3)
    phi = R.DiffeoSpec.group_translation(h)
    p1 = coadjoint(inverse(h.as_array()), LEVEL.as_array())
    level1 = CoAlgebraElement(p1[:2], p1[2])
    records = R.check_mr2_equivariance(phi, level1, LEVEL, field, field, samples=30)
    by_name = {r.name: r for r in records}
    assert by_name["mr2.level"].passed
    assert by_name["mr2.isotropy"].max_residual <= 1e-10


def test_mr2_level_mismatch_negative():
    field = M.MagneticField.zero()
    off = CoAlgebraElement(LEVEL.mu + np.array([0.1, 0.0]), LEVEL.nu)
    records = R.check_mr2_equivariance(R.DiffeoSpec.identity(), off, LEVEL,
                                       field, field, samples=20)
    by_name = {r.name: r for r in records}
    assert not by_name["mr2.level"].passed
    assert by_name["mr2.level"].max_residual >= 1e-2


def test_mr3_identity_is_exact():
    subset = D.ControlSubset(np.zeros(3), np.eye(3))
    sys = particle(force=body_scaling(0.7), subset=subset)
    records = R.check_mr3_matching(sys, sys, R.DiffeoSpec.identity(), samples=20)
    assert all(r.max_residual <= 1e-10 for r in records)


def test_mr3_full_control_absorbs_force():
    subset = D.ControlSubset(np.zeros(3), np.eye(3))
    sys1 = particle(force=body_scaling(0.7), subset=subset)
    sys2 = particle()
    records = R.check_mr3_matching(sys1, sys2, R.DiffeoSpec.identity(), samples=20)
    assert all(r.passed for r in records)


def test_mr3_zero_control_distinct_forces_fails():
    subset = D.ControlSubset(np.zeros(3), np.zeros((0, 3)))
    sys1 = particle(force=body_scaling(0.2), subset=subset)
    sys2 = particle()
    records = R.check_mr3_matching(sys1, sys2, R.DiffeoSpec.identity(), samples=20)
    by_name = {r.name: r for r in records}
    assert not by_name["mr3.vertical"].passed
    assert by_name["mr3.vertical"].max_residual >= 1e-2
    assert by_name["mr3.horizontal"].passed


def test_mr3_reads_the_control_subset_offset():
    # Both systems carry the same identity force, so the residual is
    # finite-difference noise; the affine subset {(100, -50, 7)} lies about
    # 112 away from it, the subset {0} on it.
    identity = D.FiberMap(apply=lambda s: s)
    offset = np.array([100.0, -50.0, 7.0])
    for point, passes in ((np.zeros(3), True), (offset, False)):
        subset = D.ControlSubset(point, np.zeros((0, 3)))
        sys1 = particle(force=identity, subset=subset)
        sys2 = particle(force=identity)
        records = R.check_mr3_matching(sys1, sys2, R.DiffeoSpec.identity(),
                                       samples=5)
        vertical = {r.name: r for r in records}["mr3.vertical"]
        assert vertical.passed == passes
        assert vertical.passed == (subset.distance(np.zeros(3)) <= 1e-6)
    assert abs(vertical.max_residual - np.linalg.norm(offset)) <= 1e-6


def test_mr3_records_ignore_the_control_of_sys1():
    # MR-3 compares uncontrolled fields: sys1's control only supplies the
    # subset the residual is measured against.
    subset = D.ControlSubset(np.zeros(3), np.eye(3))
    plain = particle(force=body_scaling(0.7), subset=subset)
    controlled = dataclasses.replace(plain,
                                     control=constant_push([0.3, -0.2, 0.5]))
    sys2 = particle(force=body_scaling(0.4))
    phi = R.DiffeoSpec.group_translation(GroupElement((0.6, -0.3), 0.5))

    def records(sys1):
        return [(r.name, r.samples, r.max_residual.hex(), r.threshold)
                for r in R.check_mr3_matching(sys1, sys2, phi, samples=10)]

    assert records(controlled) == records(plain)


def test_mr3_requires_subset():
    sys = particle()
    with pytest.raises(ControlSubsetMissing):
        R.check_mr3_matching(sys, sys, R.DiffeoSpec.identity())


def test_mr3_translation_pair_passes():
    subset = D.ControlSubset(np.zeros(3), np.eye(3))
    sys1 = particle(force=body_scaling(0.7), subset=subset)
    sys2 = particle(force=body_scaling(0.7))
    phi = R.DiffeoSpec.group_translation(GroupElement((0.6, -0.3), 0.5))
    records = R.check_mr3_matching(sys1, sys2, phi, samples=20)
    assert all(r.passed for r in records)


def shear():
    """The negative control: an identity base with a fiber shear for a lift."""
    return R.DiffeoSpec(identity_map, identity_map, shear_lift, shear_inverse,
                        shear_tangent, verify_lift=False)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0, 30.0])
def test_translations_hold_mr1_mr2_mr3_at_rounding(scale):
    # A left translation is an exact symmetry of an invariant field and an
    # invariant particle, and group_translation declares its exact lift and
    # tangent, so each record reads rounding (at most 5.3e-14 at scale 30 when
    # measured) where finite differences read up to 1.6e-4.
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    subset = D.ControlSubset(np.zeros(3), np.zeros((0, 3)))
    sys = particle(subset=subset)
    for seed in range(4):
        u = scale * np.random.default_rng(seed).uniform(-1, 1, 3)
        h = GroupElement(u[:2], u[2])
        phi = R.DiffeoSpec.group_translation(h)
        p1 = coadjoint(inverse(h.as_array()), LEVEL.as_array())
        records = [R.check_mr1(phi, field, field, seed=seed)]
        records += R.check_mr2_equivariance(
            phi, CoAlgebraElement(p1[:2], p1[2]), LEVEL, field, field, seed=seed)
        records += R.check_mr3_matching(sys, sys, phi, seed=seed)
        assert [r.name for r in records] == ["mr1.symplectic", "mr2.level",
                                             "mr2.isotropy", "mr3.vertical",
                                             "mr3.horizontal"]
        assert all(r.max_residual <= 1e-12 for r in records), (scale, seed, records)
        control = R.check_mr1(shear(), field, field, seed=seed)
        assert not control.passed and control.max_residual >= 1e-2


def test_large_translations_construct_and_a_wrong_lift_is_refused():
    # The declared-lift check is relative to the canonical lift above unit
    # size: the finite-difference reference's noise grows with the
    # translation, and an absolute 1e-8 refused 117 of these 200 draws.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        u = rng.uniform(-100, 100, 3)
        R.DiffeoSpec.group_translation(GroupElement(u[:2], u[2]))
    # On the identity base the canonical lift is the state itself, at most 2
    # in size on the samples, so the bound there is at most 2e-8.
    off = np.concatenate([np.zeros(3), np.full(3, 1e-6)])
    with pytest.raises(ValueError, match="custom lift differs"):
        R.DiffeoSpec(identity_map, identity_map, lambda s: np.asarray(s) + off,
                     lambda s: np.asarray(s) - off, identity_tangent)


def test_group_translation_declares_an_exact_lift():
    h = GroupElement((2.0, 1.0), 0.5)
    phi = R.DiffeoSpec.group_translation(h)
    g = h.as_array()
    rng = np.random.default_rng(23)
    for _ in range(50):
        s, v = rng.uniform(-2, 2, 6), rng.normal(size=6)
        assert np.array_equal(phi.lift(s), M.left_translate(inverse(g), s))
        assert np.array_equal(phi.lift_inverse(s), M.left_translate(g, s))
        # the finite-difference tangent of the exact lift, to its step noise
        fd_push = fd.directional(phi.lift, s, v)
        assert np.max(np.abs(phi.lift_tangent(s, v) - fd_push)) <= 1e-8
        # the central difference of a map of degree 2 is its exact tangent,
        # so it is linear in v
        w = rng.normal(size=6)
        both = phi.lift_tangent(s, v) + phi.lift_tangent(s, w)
        assert np.max(np.abs(phi.lift_tangent(s, v + w) - both)) <= 1e-13


def _sweeps():
    """Every sweep that takes a sample count, as a function of that count."""
    from heisenmech.checks import run_named_checks

    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    sys = particle(subset=D.ControlSubset(np.zeros(3), np.eye(3)))
    red = R.reduce_system(sys, LEVEL)
    kk = R.kaluza_klein_system(M.MagneticField.linear_potential(
        [[0, 0, 0], [1.0, 0, 0], [0, 0, 0]]), m=1.0, mu=1.0)
    ident = R.DiffeoSpec.identity()
    return {
        "check_commutation": lambda n: R.check_commutation(sys, red, samples=n),
        "kk_alpha_form_check": lambda n: R.kk_alpha_form_check(kk, samples=n),
        "check_mr1": lambda n: R.check_mr1(ident, field, field, samples=n),
        "check_mr2_equivariance": lambda n: R.check_mr2_equivariance(
            ident, LEVEL, LEVEL, field, field, samples=n),
        "check_mr3_matching": lambda n: R.check_mr3_matching(sys, sys, ident,
                                                             samples=n),
        "run_named_checks": lambda n: run_named_checks(["group_axioms"], 0, n),
    }


@pytest.mark.parametrize("name", ["check_commutation", "kk_alpha_form_check",
                                  "check_mr1", "check_mr2_equivariance",
                                  "check_mr3_matching", "run_named_checks"])
def test_sweeps_refuse_fewer_than_one_sample(name):
    # A sweep that draws no sample would report samples = 0 with a vacuous
    # pass (or measure one point and still report 0).
    sweep = _sweeps()[name]
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            sweep(samples)
    out = sweep(1)
    records = out if isinstance(out, list) else [out]
    assert records and all(r.samples == 1 for r in records)


def test_check_record_roundtrip():
    record = R.CheckRecord("demo", 5, 0.5, 1.0)
    d = record.as_dict()
    assert d["passed"] is True and d["samples"] == 5
    assert not R.CheckRecord("demo", 5, 2.0, 1.0).passed


def test_integrate_reduced_rejects_a_malformed_start_chart():
    red = R.reduce_system(particle(field=M.MagneticField.zero()), LEVEL)
    for chart0, got in (([1.2, -0.4, 0.3], "size 3"), ([[1.2, -0.4]], "size 2"),
                        ([], "size 0"), ([np.nan, -0.4], "size 2"),
                        ([1.2, np.inf], "size 2")):
        with pytest.raises(ValueError, match=f"of size 2, got {got}"):
            R.integrate_reduced(red, chart0, t_end=0.1, h=1e-2)
    red = R.reduce_system(dataclasses.replace(particle(), k=1), LEVEL)
    with pytest.raises(ValueError, match="of size 4, got size 2"):
        R.integrate_reduced(red, np.array([1.2, -0.4]), t_end=0.1, h=1e-2)


# The per-sample loops that the stacked sweeps of reduce_system and
# check_commutation replaced, written out with the reference trivialization
# (body_of, chart_of). Every stacked record and sweep residual must equal
# them bit for bit.

def loop_level_point(level, field, k, rng):
    """sample_level_point as it drew one point: u (2), q3, then (theta, lam)."""
    u = rng.uniform(-1.5, 1.5, 2)
    q = np.array([u[0], u[1], rng.uniform(-1.5, 1.5)])
    planar = level.mu - level.nu * np.array([u[1], -u[0]])
    shift = field.charge_factor * field.identity_potential_value()
    rho = np.append(planar - shift[:2], level.nu - shift[2])
    return chart_of(q, rho, rng.uniform(-1.5, 1.5, 2 * k))


def loop_translate(h, state):
    g, rho = body_of(state)
    return chart_of(multiply(h, g), rho, state[6:])


def loop_projection(state, field):
    s = np.array(state, dtype=float)
    if field.has_potential:
        s[3:6] += field.charge_factor * field.vector_potential(s[:3])
    return np.concatenate([body_of(s)[1][:2], s[6:]])


def loop_lift(red, chart, alpha):
    out = red.lift_offset + red.lift_matrix @ chart
    out[2] += alpha
    return out


def loop_commutation(sys, red, samples, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        state = loop_level_point(red.level, sys.field, sys.k, rng)
        full = D.rch_vector_field(sys, state)
        lhs = fd.directional(lambda s: loop_projection(s, sys.field), state,
                             full, fd.GRADIENT_STEP)
        rhs = R.reduced_rch_field(red, loop_projection(state, sys.field))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def loop_invariance(H, k):
    rng = np.random.default_rng(7121)
    residuals = []
    for _ in range(100):
        x = rng.uniform(-2, 2, 6 + 2 * k)
        g = rng.uniform(-2, 2, 3)
        residuals.append(abs(H.evaluate(loop_translate(g, x)) - H.evaluate(x)))
    return residuals


def loop_equivariance(fm, k, rng):
    gaps, centers = [], []
    for _ in range(60):
        s = rng.uniform(-2, 2, 6 + 2 * k)
        h = rng.uniform(-2, 2, 3)
        lhs = np.asarray(fm.apply(loop_translate(h, s)), dtype=float)
        rhs = loop_translate(h, np.asarray(fm.apply(s), dtype=float))
        gaps.append(np.max(np.abs(lhs - rhs)))
        centers.append(abs(np.asarray(fm.apply(s))[5] - s[5]))
    return gaps, centers


def loop_lift_independence(red, rng):
    sys = red.source
    spreads, gaps = [], {"force": [], "control": []}
    for _ in range(20):
        chart = rng.uniform(-2, 2, 2 + 2 * red.k)
        lifts = [loop_lift(red, chart, alpha) for alpha in (0.0, 0.9, -1.7)]
        values = [sys.hamiltonian.evaluate(s) for s in lifts]
        spreads.append(max(values) - min(values))
        for what, fm in (("force", sys.force), ("control", sys.control)):
            if fm is not None:
                images = [loop_projection(fm.apply(s), sys.field) for s in lifts]
                gaps[what].append(max(np.max(np.abs(im - images[0]))
                                      for im in images))
    return [spreads] + [gap for gap in gaps.values() if gap]


POINT_LEVEL = CoAlgebraElement((0.5, 0.2), 0.0)
SWEEP_CASES = ("free", "body_scaling", "body_scaling_rows", "constant_push",
               "general")


def sweep_system(case, field, k):
    """Declared systems take the stacked route; the test-local body_scaling
    (not declared affine) and a "general" Hamiltonian take the row route."""
    kinetic = D.invariant_kinetic_hamiltonian(1.3)
    if case == "free":
        return D.RCHSystem(field, kinetic, k=k)
    if case == "body_scaling":
        return D.RCHSystem(field, kinetic, force=_body_scaling_map(0.7, 0.8), k=k)
    if case == "body_scaling_rows":
        return D.RCHSystem(field, kinetic, force=body_scaling(0.7, 0.8), k=k)
    if case == "constant_push":
        full = D.ControlSubset(np.zeros(3 + k), np.eye(3 + k))
        return D.RCHSystem(field, kinetic, k=k, control_subset=full,
                           control=_constant_push_map((0.3, -0.1, 0.0)))
    general = D.HamiltonianSpec(kinetic.evaluate, kinetic.gradient)
    return D.RCHSystem(field, general, force=_body_scaling_map(0.7, 0.8), k=k)


@pytest.mark.parametrize("case", SWEEP_CASES)
@pytest.mark.parametrize("k", (0, 1))
@pytest.mark.parametrize("level,orbit", ((LEVEL, "plane"), (POINT_LEVEL, "point")))
@pytest.mark.parametrize("field", (
    M.MagneticField.zero(),
    M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 0.9)),
    ids=("zero", "invariant"))
def test_stacked_sweeps_are_the_per_sample_loops(case, k, level, orbit, field):
    sys = sweep_system(case, field, k)
    red = R.reduce_system(sys, level, expected_orbit=orbit)
    assert R._invariance_residuals(sys.hamiltonian, k).tolist() == (
        loop_invariance(sys.hamiltonian, k))
    for fm in (sys.force, sys.control):
        if fm is not None:
            gaps, centers = R._equivariance_residuals(
                fm, k, np.random.default_rng(2214))
            assert (gaps.tolist(), centers.tolist()) == loop_equivariance(
                fm, k, np.random.default_rng(2214))
    residuals = R._lift_residuals(red, np.random.default_rng(2215))
    assert [r.tolist() for r in residuals] == loop_lift_independence(
        red, np.random.default_rng(2215))
    record = R.check_commutation(sys, red, samples=40, seed=5 + k)
    assert record.max_residual.hex() == loop_commutation(sys, red, 40, 5 + k).hex()


@pytest.mark.parametrize("k", (0, 1, 2))
@pytest.mark.parametrize("field", (
    M.MagneticField.zero(),
    M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 0.9)),
    ids=("zero", "invariant"))
def test_level_points_from_one_block_are_the_per_call_draws(k, field):
    block, calls, loop = (np.random.default_rng(31) for _ in range(3))
    stacked = M._level_points(LEVEL, field, k, block, 25)
    assert stacked.shape == (25, 6 + 2 * k)
    one_by_one = np.array([M.sample_level_point(LEVEL, field, k, calls)
                           for _ in range(25)])
    written_out = np.array([loop_level_point(LEVEL, field, k, loop)
                            for _ in range(25)])
    assert stacked.tobytes() == one_by_one.tobytes() == written_out.tobytes()
    # and each generator is left at the same place in its stream
    assert block.random() == calls.random() == loop.random()


def test_commutation_record_refuses_nan_samples():
    # The gradient is nan on 27 of the 50 samples of reduce.cfg (seed 11).
    # Python's max(worst, nan) keeps worst, so the per-sample loop passed at
    # 2.4e-10; the record now reads nan, which CheckRecord refuses.
    sys = particle()
    red = R.reduce_system(sys, LEVEL)
    h = red.hamiltonian

    def grad(chart):
        return np.full(chart.shape, np.nan) if chart[0] >= 0.4 else h.grad(chart)

    broken = dataclasses.replace(red, hamiltonian=OrbitFunction(h.evaluate, grad))
    charts = M._level_points(LEVEL, sys.field, 0, np.random.default_rng(11), 50)
    assert np.count_nonzero(M.project_chart(charts, sys.field)[:, 0] >= 0.4) == 27
    assert loop_commutation(sys, broken, 50, 11) <= 1e-5
    with pytest.raises(FloatingPointError, match="reduction.commutation"):
        R.check_commutation(sys, broken, samples=50, seed=11)


def nan_beyond(f):
    """f with every output nan where its first argument's first entry is
    positive; on one point, or row by row on a stack of them."""
    def g(x, *rest):
        out = np.array(f(x, *rest), dtype=float)
        out[np.asarray(x)[..., 0] > 0] = np.nan
        return out
    return g


@pytest.mark.parametrize("which", ("mr1", "mr3", "kk"))
def test_mr_and_kk_records_refuse_nan_samples(which):
    # Each record folds its samples with numpy, so a nan sample reaches
    # CheckRecord instead of being passed over by Python's max. The lift's
    # tangent is nan on about half of the samples.
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    ident = R.DiffeoSpec.identity()
    phi = dataclasses.replace(ident, lift_tangent=nan_beyond(ident.lift_tangent))
    with pytest.raises(FloatingPointError):
        if which == "mr1":
            R.check_mr1(phi, field, field, samples=20)
        elif which == "mr3":
            subset = D.ControlSubset(np.zeros(3), np.eye(3))
            R.check_mr3_matching(particle(subset=subset), particle(), phi,
                                 samples=20)
        else:
            bumpy = dataclasses.replace(field, potential=nan_beyond(
                field.potential), kind="general")
            R.kk_alpha_form_check(R.kaluza_klein_system(bumpy, 1.0, 0.8))
    # the same checkers pass on the finite identity
    assert R.check_mr1(ident, field, field, samples=20).passed


def overflowing_lift():
    """A diffeo whose lift sets p1 to inf on every state, and whose tangent
    does the same to every vector; its callables take stacks, and it skips
    the lift check, so it constructs."""
    def ident(q):
        return np.asarray(q, dtype=float).copy()

    def blow(s):
        out = np.asarray(s, dtype=float).copy()
        out[..., 3] = np.inf
        return out

    return R.DiffeoSpec(ident, ident, blow, blow, lambda s, v: blow(v),
                        verify_lift=False)


@pytest.mark.parametrize("which", ("mr1", "mr2"))
def test_mr1_and_mr2_refuse_a_non_finite_lifted_state(which):
    # Refused before the lift's tangent is taken: forms of its inf vectors
    # would warn first.
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    phi = overflowing_lift()
    with pytest.raises(ValueError) as refusal:
        if which == "mr1":
            R.check_mr1(phi, field, field, samples=5)
        else:
            R.check_mr2_equivariance(phi, LEVEL, LEVEL, field, field, samples=5)
    assert str(refusal.value) == "chart state has non-finite components"


@pytest.mark.parametrize("span", (np.eye(3), np.zeros((0, 3))))
def test_mr3_reports_a_non_finite_lift_as_a_non_finite_residual(span):
    subset = D.ControlSubset(np.zeros(3), span)
    sys = particle(subset=subset)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as refusal:
        R.check_mr3_matching(sys, sys, overflowing_lift(), samples=5)
    assert str(refusal.value) == "mr3.vertical: non-finite residual nan"


def lift_dependent(s):
    """Kicks p1 at the center height 0.9 exactly: the lift-independence sweep
    lifts there, and no random state of the equivariance sweep lands there."""
    out = np.array(s, dtype=float)
    out[..., 3] += np.abs(out[..., 2] - 0.9) < 1e-12
    return out


def moves_center(s):
    """Raises the body momentum's nu by 1, planar part fixed: equivariant, but
    off the orbit leaf."""
    g, rho = body_of(np.asarray(s, dtype=float))
    return chart_of(g, rho + [0.0, 0.0, 1.0], s[6:])


def kick_center(s):
    out = np.asarray(s, dtype=float).copy()
    out[5] += 1.0
    return out


@pytest.mark.parametrize("force, message", (
    (D.FiberMap(apply=kick_center), "force map is not equivariant"),
    (D.FiberMap(apply=moves_center), "force map moves the center momentum"),
    (D.FiberMap(apply=lift_dependent), "reduced fiber map depends on the lift"),
    (D.FiberMap(apply=lift_dependent, tangent=lambda s, v: np.array(v),
                affine=True), "reduced fiber map depends on the lift"),
))
def test_sweeps_name_the_first_failing_check(force, message):
    with pytest.raises(NotInvariant, match=message):
        R.reduce_system(particle(force=force), LEVEL)


def test_a_lift_dependent_hamiltonian_is_refused():
    kinetic = D.invariant_kinetic_hamiltonian(1.0)
    bumped = D.HamiltonianSpec(
        lambda s: kinetic.evaluate(s) + float(abs(s[2] - 0.9) < 1e-12),
        kinetic.gradient)
    with pytest.raises(NotInvariant, match="reduced Hamiltonian value depends"):
        R.reduce_system(particle(ham=bumped), LEVEL)


def test_reduce_path_single_state_calls_do_not_grow_with_samples(monkeypatch):
    # Like the propagator's call counts: on a declared system reduce_system
    # and check_commutation call the public single-state functions a fixed
    # number of times, whatever the sample count.
    counts = collections.Counter()
    for module, name in ((M, "left_translate"), (M, "project_chart"),
                         (M, "sample_level_point"), (D, "rch_vector_field")):
        original = getattr(module, name)

        def counting(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for owner in (M, D, R):
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, counting)

    def calls(sys, samples):
        counts.clear()
        R.check_commutation(sys, R.reduce_system(sys, LEVEL), samples=samples)
        return dict(counts)

    full = D.ControlSubset(np.zeros(3), np.eye(3))
    declared = particle(force=_body_scaling_map(0.7, 0.8), subset=full,
                        control=_constant_push_map((0.3, -0.1, 0.0)))
    assert calls(declared, 50) == calls(declared, 500) == {
        "sample_level_point": 1, "rch_vector_field": 1, "left_translate": 5,
        "project_chart": 5}
    # A map not declared affine takes the same stacked calls; only its own
    # apply, of one state, is mapped over the rows, which a counter on it
    # sees.
    shapes = collections.Counter()
    scaling = body_scaling(0.7)

    def apply(s):
        shapes[np.shape(s)] += 1
        return scaling.apply(s)

    undeclared = particle(force=D.FiberMap(apply=apply))
    assert calls(undeclared, 50) == calls(undeclared, 500) == {
        "sample_level_point": 1, "rch_vector_field": 1, "left_translate": 3,
        "project_chart": 4}
    assert set(shapes) == {(6,)}
    shapes.clear()
    calls(undeclared, 50)
    assert shapes[(6,)] > 2 * 50


def test_mr_single_state_calls_do_not_grow_with_samples(monkeypatch):
    # Like the reduce path's call counts: the MR checkers and the Noether
    # check call the public single-state functions a fixed number of times,
    # whatever the sample count.
    counts = collections.Counter()
    for name in ("left_translate", "momentum_map", "magnetic_form"):
        original = getattr(M, name)

        def counting(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for owner in (M, D, R):
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, counting)

    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    phi = R.DiffeoSpec.group_translation(GroupElement((0.6, -0.3), 0.5))
    zero_subset = D.ControlSubset(np.zeros(3), np.zeros((0, 3)))
    sys = particle(ham=D.invariant_kinetic_hamiltonian(1.3),
                   force=_body_scaling_map(0.7, 0.8), subset=zero_subset,
                   field=field, m=1.3)

    def calls(samples):
        counts.clear()
        R.check_mr1(phi, field, field, samples)
        R.check_mr2_equivariance(phi, LEVEL, LEVEL, field, field, samples)
        R.check_mr3_matching(sys, sys, phi, samples)
        checks.check_noether_reduction(7, samples)
        return dict(counts)

    assert calls(40) == calls(400) == {
        "left_translate": 21, "momentum_map": 15, "magnetic_form": 2}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("declared", [True, False])
def test_mr3_transports_an_equivariant_force_at_every_k(k, declared):
    # The same equivariant force on both sides of a translation: transported,
    # it is sys1's own, so both records hold to rounding, for the affine map
    # and for one of one state, whose push solves against the lift's tangent.
    force = _body_scaling_map(0.7, 0.8)
    if not declared:
        force = D.FiberMap(apply=force.apply)
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    zero_subset = D.ControlSubset(np.zeros(3 + k), np.zeros((0, 3 + k)))
    sys1 = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.3), force=force,
                       k=k, control_subset=zero_subset)
    sys2 = dataclasses.replace(sys1, control_subset=None)
    phi = R.DiffeoSpec.group_translation(GroupElement((0.6, -0.3), 0.5))
    records = R.check_mr3_matching(sys1, sys2, phi, 7, 3)
    assert [r.samples for r in records] == [7, 7]
    assert all(r.passed for r in records)
    assert max(r.max_residual for r in records) <= 1e-9


PROPERTY = settings(max_examples=5, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_kk_alpha_form_check_draws_its_stated_block(seed):
    # On a linear field the curl is exact at any point, so the record does
    # not show where the points are drawn; the block is held to its range.
    seen = []
    curl = fd.one_form_curl

    def spy(f, y):
        seen.append(y)
        return curl(f, y)

    kk = R.kaluza_klein_system(M.MagneticField.linear_potential(np.eye(3)), 1.0, 0.7)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fd, "one_form_curl", spy)
        R.kk_alpha_form_check(kk, 2000, seed)
    [y] = seen
    assert y.shape == (2000, 4)
    assert -2.0 <= y.min() < -1.99 and 1.99 < y.max() <= 2.0


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), mu=st.floats(-2.0, 2.0))
def test_kk_compare_lifts_by_the_fiber_shift_at_theta_zero(seed, mu):
    # The records read the projected states and lam only, so the start of
    # theta upstairs shows in no output; the lift is held to its definition.
    starts = []
    flow = D._fixed_step_flow

    def recorded(rhs, y0, *args):
        starts.append(y0)
        return flow(rhs, y0, *args)

    field = M.MagneticField.linear_potential(
        np.random.default_rng(seed).normal(size=(3, 3)))
    x0 = np.random.default_rng(seed + 1).normal(size=6)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(D, "_fixed_step_flow", recorded)
        R.kk_reduce_and_compare(R.kaluza_klein_system(field, 1.0, mu), x0,
                                0.01, 1e-3)
    lift = starts[0]
    shifted = M.momentum_shift(x0, dataclasses.replace(field, charge_factor=mu))
    assert lift[:6].tobytes() == shifted.tobytes()
    assert (lift[6], lift[7]) == (0.0, mu) and not np.signbit(lift[6])


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_mr1_and_mr2_draw_their_stated_blocks(seed):
    # Under the identity every MR-1/2 residual is rounding at any draw, so
    # no record shows the draws; they are held to the stated blocks. At the
    # point level every random element fixes the level, so all twelve join
    # the eight center elements as isotropy candidates.
    seen = collections.defaultdict(list)
    form, translate = R.magnetic_form, R.left_translate

    def spy_form(x, v, w, field):
        seen["x2"].append(x)
        return form(x, v, w, field)

    def spy_translate(g, s):
        seen["g"].append(g)
        seen["s"].append(s)
        return translate(g, s)

    phi, zero = R.DiffeoSpec.identity(), M.MagneticField.zero()
    point = CoAlgebraElement((0.0, 0.0), 0.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(R, "magnetic_form", spy_form)
        patch.setattr(R, "left_translate", spy_translate)
        R.check_mr1(phi, zero, zero, 2000, seed)
        R.check_mr2_equivariance(phi, point, point, zero, zero, 20, seed)
    [x2] = seen["x2"]
    assert x2.shape == (2000, 6)
    assert -2.0 <= x2.min() < -1.99 and 1.99 < x2.max() <= 2.0
    candidates = seen["g"][0][:20]
    assert seen["g"][0].shape == (20 * 20, 3)
    assert not candidates[:8, :2].any() and np.abs(candidates[:8, 2]).max() <= 3.0
    assert np.abs(candidates[8:]).max() <= 2.0
    assert np.abs(seen["s"][0]).max() <= 2.0
