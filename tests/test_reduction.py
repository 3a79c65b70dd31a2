"""Reduced systems, commutation sweeps, the circle-bundle detour, and matching."""

import dataclasses

import numpy as np
import pytest

from heisenmech import dynamics as D
from heisenmech import fd
from heisenmech import magnetic as M
from heisenmech import reduction as R
from heisenmech.errors import (
    ControlSubsetMissing,
    IrregularLevel,
    MissingPotential,
    NotInvariant,
)
from heisenmech.group import CoAlgebraElement, GroupElement, coadjoint, inverse
from heisenmech.orbit import OrbitFunction, OrbitPoint

LEVEL = CoAlgebraElement((0.4, -0.7), 1.0)


def body_scaling(factor, lam_factor=1.0):
    """Equivariant fiber map scaling the planar body momentum."""

    def apply(s):
        s = np.asarray(s, dtype=float)
        g, rho = M.chart_to_body(s[:3], s[3:6])
        _, p = M.body_to_chart(g, CoAlgebraElement(factor * rho.mu, rho.nu))
        out = s.copy()
        out[3:6] = p
        out[6 + (s.size - 6) // 2:] *= lam_factor
        return out

    return D.FiberMap(apply=apply)


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
        z = OrbitPoint(rho, 1.0)
        assert abs(red.hamiltonian.evaluate(z) - 0.5 * (rho @ rho + 1.0)) <= 1e-12


def test_reduce_system_shifted_value():
    a = np.array([0.3, -0.2, 0.8])
    sys = particle(m=2.0)
    red = R.reduce_system(sys, LEVEL)
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = rng.uniform(-2, 2, 2)
        w = np.concatenate([rho, [1.0]]) - a
        z = OrbitPoint(rho, 1.0)
        assert abs(red.hamiltonian.evaluate(z) - 0.5 * (w @ w) / 2.0) <= 1e-12


def test_reduce_system_errors():
    with pytest.raises(IrregularLevel):
        R.reduce_system(particle(), CoAlgebraElement((0.4, -0.7), 0.0))

    def bad(state):
        q = state[:3]
        return 0.5 * float(state[3:6] @ state[3:6]) + q[0]

    with pytest.raises(NotInvariant):
        R.reduce_system(particle(ham=D.HamiltonianSpec(bad)), LEVEL)

    def kick_center(s):
        out = np.asarray(s, dtype=float).copy()
        out[5] += 1.0
        return out

    with pytest.raises(NotInvariant):
        R.reduce_system(particle(force=D.FiberMap(apply=kick_center)), LEVEL)


def test_point_orbit_reduction():
    kinetic = D.invariant_kinetic_hamiltonian(1.0, k=1)

    def with_circle_energy(state):
        return kinetic.evaluate(state) + 0.5 * state[7] ** 2

    sys = particle(field=M.MagneticField.zero(),
                   ham=D.HamiltonianSpec(with_circle_energy, k=1))
    sys = dataclasses.replace(sys, k=1)
    level = CoAlgebraElement((0.5, 0.2), 0.0)
    red = R.reduce_system(sys, level, expected_orbit="point")
    z = OrbitPoint((0.5, 0.2), 0.0, (0.3,), (0.9,))
    X = R.reduced_hamiltonian_field(red, z)
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
        moved = red.force(chart)
        expected = 0.6 * (chart - shift) + shift
        assert np.max(np.abs(moved - expected)) <= 1e-12
        pushed = red.control(chart)
        assert np.max(np.abs(pushed - (chart + [0.3, -0.1]))) <= 1e-12
        z = red.orbit_point(chart)
        assert red.control_subset_at(z).contains(pushed, tol=1e-10)


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
        moved = M.left_translate_point(GroupElement((0.0, 0.0), rng.normal()), x)
        z2 = M.reduce_point(moved, LEVEL, sys.field)
        assert np.array_equal(z.as_array(), z2.as_array())


def test_reduced_trajectory_conserves_energy():
    sys = particle()
    red = R.reduce_system(sys, LEVEL)
    z0 = OrbitPoint((1.2, -0.4), 1.0)
    times, charts, energies = R.integrate_reduced(red, z0, t_end=5.0, h=1e-3)
    assert times.shape == (5001,) and charts.shape == (5001, 2)
    assert np.max(np.abs(energies - energies[0])) <= 1e-8


def test_reduced_gradient_matches_finite_differences():
    kinetic = D.invariant_kinetic_hamiltonian(1.3, k=1)

    def evaluate(state):
        return kinetic.evaluate(state) + 0.5 * state[7] ** 2 + np.cos(state[6])

    def gradient(state):
        out = kinetic.grad(state)
        out[6] -= np.sin(state[6])
        out[7] += state[7]
        return out

    rng = np.random.default_rng(15)
    for sys in (particle(m=1.3),
                D.RCHSystem(particle().field, D.HamiltonianSpec(evaluate, gradient, k=1),
                            m=1.3, k=1)):
        red = R.reduce_system(sys, LEVEL)
        assert red.hamiltonian.gradient_is_analytic
        for _ in range(20):
            z = red.orbit_point(rng.uniform(-2, 2, 2 + 2 * sys.k))
            expected = fd.gradient(lambda x: red.hamiltonian.evaluate(z.replace_chart(x)),
                                   z.as_array())
            assert np.max(np.abs(red.hamiltonian.grad(z) - expected)) <= 1e-8


def dataclass_projection(state, field, k):
    """Orbit projection through the trivialized points, as reduce_point does it."""
    x = M.extended_from_chart(state, k)
    if field.has_potential:
        x = M.extended_momentum_shift(x, field)
    return np.concatenate([x.rho.mu, x.theta, x.lam])


@pytest.mark.parametrize("k", (0, 1))
@pytest.mark.parametrize("level,orbit", (
    (LEVEL, "plane"), (CoAlgebraElement((0.5, 0.2), 0.0), "point")))
@pytest.mark.parametrize("field", (
    M.MagneticField.zero(),
    M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 0.5)),
    ids=("zero", "invariant"))
def test_flat_lift_projection_and_push_match_dataclass_path(k, level, orbit, field):
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0, k),
                      force=body_scaling(0.6, lam_factor=0.8), k=k)
    red = R.reduce_system(sys, level, expected_orbit=orbit)
    rng = np.random.default_rng(17)
    _, fiber = D._base_fiber_indices(k)
    for _ in range(30):
        z = red.orbit_point(rng.uniform(-2, 2, 2 + 2 * k))
        for alpha in (0.0, 0.9, -1.7):
            expected = M.extended_to_chart(M.level_lift(z, level, field, alpha))
            assert np.max(np.abs(red.lift(z.as_array(), alpha) - expected)) <= 1e-12
        state = rng.uniform(-2, 2, 6 + 2 * k)
        assert np.max(np.abs(R._project_chart(state, field)
                             - dataclass_projection(state, field, k))) <= 1e-12
        lift = red.lift(z.as_array())
        v = np.zeros(6 + 2 * k)
        v[fiber] = rng.normal(size=3 + k)
        expected = (dataclass_projection(lift + v, field, k)
                    - dataclass_projection(lift, field, k))
        assert np.max(np.abs(R._fiber_push(lift[:3], v[3:]) - expected)) <= 1e-12
        v = D.vertical_lift(sys.force, sys, lift)
        expected = (dataclass_projection(lift + v, field, k)
                    - dataclass_projection(lift, field, k))
        assert np.max(np.abs(R.reduced_vertical_lift(sys.force, red, z)
                             - expected)) <= 1e-12


def test_kaluza_klein_momentum_and_errors():
    field = M.MagneticField.linear_potential([[0, 1.0, 0], [0, 0, 0], [0, 0, 0]])
    kk = R.kaluza_klein_system(field, m=1.5, mu=0.7)
    state = np.arange(8.0)
    assert kk.momentum(state) == 7.0
    wrapped = kk.wrap(np.array([0, 0, 0, 0, 0, 0, 7.0, 1.0]))
    assert 0.0 <= wrapped[6] < 2 * np.pi
    with pytest.raises(MissingPotential):
        R.kaluza_klein_system(M.MagneticField.constant(np.zeros((3, 3))), 1.0, 1.0)


def test_kaluza_klein_free_case():
    field = M.MagneticField.linear_potential(np.zeros((3, 3)))
    kk = R.kaluza_klein_system(field, m=2.0, mu=0.0)
    records = R.kk_reduce_and_compare(kk, M.PhasePoint((0.1, 0.2, 0.3), (1.0, -0.5, 0.4)),
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
        kk, M.PhasePoint((0.2, -0.1, 0.0), (1.0, 0.3, -0.2)), t_end=1.0, h=1e-4)
    by_name = {r.name: r for r in records}
    assert by_name["kk.trajectory_match"].max_residual <= 1e-6
    assert by_name["kk.lambda_drift"].max_residual <= 1e-8
    assert all(r.passed for r in records)


def test_diffeo_spec_validation():
    with pytest.raises(ValueError):
        R.DiffeoSpec(lambda q: 2.0 * np.asarray(q), lambda q: np.asarray(q))

    def shear_lift(s):
        out = np.asarray(s, dtype=float).copy()
        out[3] += out[1]
        return out

    ident = lambda q: np.asarray(q, dtype=float).copy()
    with pytest.raises(ValueError):
        R.DiffeoSpec(ident, ident, lift=shear_lift)
    spec = R.DiffeoSpec(ident, ident, lift=shear_lift, verify_lift=False)
    assert spec.apply_lift(np.ones(6))[3] == 2.0


def test_group_translation_lift_is_momentum_friendly():
    h = GroupElement((0.8, -0.5), 0.3)
    phi = R.DiffeoSpec.group_translation(h)
    rng = np.random.default_rng(14)
    for _ in range(20):
        s = rng.uniform(-2, 2, 6)
        lifted = phi.apply_lift(s)
        expected = M.extended_to_chart(M.left_translate_point(
            inverse(h), M.extended_from_chart(s, 0)))
        assert np.max(np.abs(lifted - expected)) <= 1e-9
        back = phi.apply_inverse_lift(lifted)
        assert np.max(np.abs(back - s)) <= 1e-9


def test_mr1_identity_and_translation():
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    record = R.check_mr1(R.DiffeoSpec.identity(), field, field)
    assert record.max_residual <= 1e-10

    phi = R.DiffeoSpec.group_translation(GroupElement((0.4, 0.9), -0.2))
    record = R.check_mr1(phi, field, field, samples=60)
    assert record.passed


def test_mr1_shear_negative():
    ident = lambda q: np.asarray(q, dtype=float).copy()

    def shear_lift(s):
        out = np.asarray(s, dtype=float).copy()
        out[3] += out[1]
        return out

    phi = R.DiffeoSpec(ident, ident, lift=shear_lift, verify_lift=False)
    field = M.MagneticField.zero()
    record = R.check_mr1(phi, field, field, samples=60)
    assert not record.passed
    assert record.max_residual >= 1e-2


def test_mr2_identity_and_translation_levels():
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    records = R.check_mr2_equivariance(R.DiffeoSpec.identity(), LEVEL, LEVEL,
                                       field, field, samples=30)
    assert all(r.max_residual <= 1e-10 for r in records)

    h = GroupElement((0.8, -0.5), 0.3)
    phi = R.DiffeoSpec.group_translation(h)
    level1 = coadjoint(inverse(h), LEVEL)
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


def test_check_record_roundtrip():
    record = R.CheckRecord("demo", 5, 0.5, 1.0)
    d = record.as_dict()
    assert d["passed"] is True and d["samples"] == 5
    assert not R.CheckRecord("demo", 5, 2.0, 1.0).passed
