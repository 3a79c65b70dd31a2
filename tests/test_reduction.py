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
        assert red.control_subset_at(chart).contains(pushed, tol=1e-10)


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
        g, rho = body_of(s)
        expected = chart_of(multiply(inverse(h.as_array()), g), rho)
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
        assert vertical.passed == subset.contains(np.zeros(3), tol=1e-6)
    assert abs(vertical.max_residual - np.linalg.norm(offset)) <= 1e-6


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
    ident = lambda q: np.asarray(q, dtype=float).copy()

    def shear_lift(s):
        out = np.asarray(s, dtype=float).copy()
        out[3] += out[1]
        return out

    return R.DiffeoSpec(ident, ident, lift=shear_lift, verify_lift=False)


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
    ident = lambda q: np.asarray(q, dtype=float).copy()

    def off_lift(s):
        out = np.asarray(s, dtype=float).copy()
        out[3:6] += 1e-6
        return out

    with pytest.raises(ValueError, match="custom lift differs"):
        R.DiffeoSpec(ident, ident, lift=off_lift)


def test_group_translation_declares_an_exact_lift():
    h = GroupElement((2.0, 1.0), 0.5)
    phi = R.DiffeoSpec.group_translation(h)
    g = h.as_array()
    rng = np.random.default_rng(23)
    for _ in range(50):
        s, v = rng.uniform(-2, 2, 6), rng.normal(size=6)
        assert np.array_equal(phi.apply_lift(s), M.left_translate(inverse(g), s))
        assert np.array_equal(phi.apply_inverse_lift(s), M.left_translate(g, s))
        # the finite-difference tangent of the exact lift, to its step noise
        fd_push = fd.directional(phi.apply_lift, s, v)
        assert np.max(np.abs(phi.push_lift(s, v) - fd_push)) <= 1e-8
        # the central difference of a map of degree 2 is its exact tangent,
        # so it is linear in v
        w = rng.normal(size=6)
        both = phi.push_lift(s, v) + phi.push_lift(s, w)
        assert np.max(np.abs(phi.push_lift(s, v + w) - both)) <= 1e-13


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
