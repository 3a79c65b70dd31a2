"""Magnetic cotangent-bundle tests: forms, shifts, momentum maps, reduction."""

import dataclasses

import numpy as np
import pytest

from heisenmech import dynamics as D
from heisenmech import fd
from heisenmech import magnetic as M
from heisenmech import reduction as R
from heisenmech.errors import MissingPotential, NotInvariant, NotOnLevelSet
from heisenmech.group import CoAlgebraElement, coadjoint, multiply
from heisenmech.orbit import MagneticCocycle, orbit_form_on_chart_vectors

PLANAR = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def body_of(state):
    """Reference trivialization of a chart state: flat (g, rho) with g = q and
    rho the body momentum, written out here independently of the library."""
    q, p = state[:3], state[3:6]
    return (q.copy(),
            np.array([p[0] - 0.5 * p[2] * q[1], p[1] + 0.5 * p[2] * q[0], p[2]]))


def chart_of(g, rho, theta=(), lam=()):
    """Reference chart state of the trivialized point (g, rho, theta, lam)."""
    p = np.array([rho[0] + 0.5 * rho[2] * g[1], rho[1] - 0.5 * rho[2] * g[0],
                  rho[2]])
    return np.concatenate([g, p, theta, lam])


def rand_state(rng, k=0, scale=2.0):
    return chart_of(rng.uniform(-scale, scale, 3), rng.uniform(-scale, scale, 3),
                    rng.uniform(-scale, scale, k), rng.uniform(-scale, scale, k))


def invariant_kinetic(mass=1.0):
    def h(x):
        rho = body_of(x)[1]
        return 0.5 * float(rho @ rho) / mass
    return h


def nonconstant_closed_field(charge=1.0):
    # b12 = q1^2 with potential A = (0, q1^3/3, 0); closed but q-dependent.
    def b(q):
        m = np.zeros((3, 3))
        m[0, 1], m[1, 0] = q[0] ** 2, -q[0] ** 2
        return m

    def da(q):
        return np.array([[0.0, 0.0, 0.0], [q[0] ** 2, 0.0, 0.0], [0.0, 0.0, 0.0]])

    return M.MagneticField(b, lambda q: np.array([0.0, q[0] ** 3 / 3.0, 0.0]), charge,
                           da)


def test_chart_body_round_trip():
    rng = np.random.default_rng(60)
    for _ in range(100):
        g, rho = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        theta, lam = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        state = chart_of(g, rho, theta, lam)
        back = M.chart_to_body_array(state[:3], state[3:6])
        assert np.max(np.abs(state[:3] - g)) <= 1e-14
        assert np.max(np.abs(back - rho)) <= 1e-14
        assert np.max(np.abs(state[6:8] - theta)) == 0.0
        assert np.max(np.abs(state[8:] - lam)) == 0.0


def test_magnetic_form_frozen_values():
    pt = np.array([0.2, -0.4, 0.9, 1.0, 0.0, -2.0])
    v1 = np.array([1, 0, 0, 0, 0, 0], dtype=float)
    v2 = np.array([0, 0, 0, 1, 0, 0], dtype=float)
    assert M.magnetic_form(pt, v1, v2, M.MagneticField.zero()) == 1.0

    field = M.MagneticField.constant(PLANAR, charge_factor=1.0)
    e1 = np.array([1, 0, 0, 0, 0, 0], dtype=float)
    e2 = np.array([0, 1, 0, 0, 0, 0], dtype=float)
    assert M.magnetic_form(pt, e1, e2, field) == -1.0


def test_magnetic_form_antisymmetry_and_v_block():
    rng = np.random.default_rng(61)
    field = M.MagneticField.constant(2.5 * PLANAR, charge_factor=0.7)
    for _ in range(100):
        x = rand_state(rng, k=1)
        v1 = rng.normal(size=8)
        v2 = rng.normal(size=8)
        a = M.magnetic_form(x, v1, v2, field)
        b = M.magnetic_form(x, v2, v1, field)
        assert abs(a + b) <= 1e-12
    # canonical V block: omega_V((theta1,lam1),(theta2,lam2)) = lam2.theta1 - lam1.theta2
    x = rand_state(rng, k=1)
    vtheta = np.zeros(8); vtheta[6] = 1.0
    vlam = np.zeros(8); vlam[7] = 1.0
    assert M.magnetic_form(x, vtheta, vlam, field) == 1.0


def test_momentum_shift_frozen_and_round_trip():
    zero_M = np.zeros((3, 3))
    identity_field = M.MagneticField.linear_potential(zero_M)
    pt = np.array([0.3, 0.1, -0.2, 1.0, 2.0, 3.0])
    out = M.momentum_shift(pt, identity_field)
    assert np.array_equal(out, pt)

    Mmat = np.zeros((3, 3)); Mmat[1, 0] = 1.0  # A(q) = (0, q1, 0)
    field = M.MagneticField.linear_potential(Mmat, charge_factor=1.0)
    out = M.momentum_shift(np.array([1.0, 0, 0, 0, 0, 0]), field)
    assert np.allclose(out[:3], [1, 0, 0], atol=0)
    assert np.allclose(out[3:], [0, 1, 0], atol=0)

    minus = M.MagneticField.linear_potential(Mmat, charge_factor=-1.0)
    rng = np.random.default_rng(62)
    for _ in range(50):
        pt = rng.normal(size=6)
        back = M.momentum_shift(M.momentum_shift(pt, field), minus)
        assert np.max(np.abs(back - pt)) <= 1e-14

    with pytest.raises(MissingPotential):
        M.momentum_shift(pt, M.MagneticField.constant(PLANAR))


def test_momentum_map_frozen_values():
    zero = M.MagneticField.zero()
    rho = np.array([0.7, -0.4, 1.3])
    x = chart_of(np.zeros(3), rho)
    assert np.array_equal(M.momentum_map(x, zero), rho)

    x = chart_of(np.array([1.0, 2.0, 0.5]), np.array([0.0, 0.0, 3.0]))
    J = M.momentum_map(x, zero)
    assert J.shape == (3,)
    assert np.allclose(J, [6, -3, 3], atol=0)


def test_momentum_map_errors():
    x = chart_of(np.zeros(3), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(MissingPotential):
        M.momentum_map(x, M.MagneticField.constant(PLANAR))
    linear = M.MagneticField.linear_potential(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))
    with pytest.raises(NotInvariant):
        M.momentum_map(x, linear)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_stacked_momentum_map_is_the_composition_bitwise(k):
    # momentum_map is J0 composed with t_A: coadjoint of the body momentum
    # of momentum_shift's state, row i bitwise the call on row i. It stays
    # within 8 eps of the former route, which took the shift through the
    # trivialization (body -> chart, p + cf*A(q), chart -> body).
    EPS = np.finfo(float).eps
    rng = np.random.default_rng(4100 + k)
    n = 400
    states = rng.uniform(-1, 1, (n, 6 + 2 * k)) * 10.0 ** rng.uniform(-3, 3, (n, 6 + 2 * k))
    fields = [M.MagneticField.zero()]
    for cf in (1.0, 0.7, -1.3):
        fields.append(M.MagneticField.invariant_potential((0.3, -0.2, 0.8), cf))
        fields.append(M.MagneticField.invariant_potential(
            rng.uniform(-1, 1, 3) * 10.0 ** rng.uniform(-3, 3, 3), cf))
    for field in fields:
        J = M.momentum_map(states, field)
        assert J.shape == (n, 3)
        for s, row in zip(states, J):
            assert row.tobytes() == M.momentum_map(s, field).tobytes()
            shifted = M.momentum_shift(s, field) if field.has_potential else s
            composed = coadjoint(s[:3], M.chart_to_body_array(s[:3], shifted[3:6]))
            assert row.tobytes() == composed.tobytes()
            g_s, rho_s = body_of(s)
            if field.kind == "invariant":
                round_trip = chart_of(g_s, rho_s)
                round_trip[3:6] += field.charge_factor * field.vector_potential(s[:3])
                g_s, rho_s = body_of(round_trip)
            else:
                assert row.tobytes() == coadjoint(g_s, rho_s).tobytes()
            largest = max(np.abs(shifted[3:6]).max(),
                          abs(composed[2]) * np.abs(s[:2]).max())
            assert np.all(np.abs(row - coadjoint(g_s, rho_s)) <= 8 * EPS * largest)


def test_stacked_momentum_map_raises_like_the_point_path():
    rng = np.random.default_rng(4103)
    states = rng.uniform(-2, 2, (5, 6))
    x = states[0]
    linear = M.MagneticField.linear_potential(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))
    general = M.MagneticField(lambda q: q[0] * PLANAR)
    for field, error in ((M.MagneticField.constant(PLANAR), MissingPotential),
                         (linear, NotInvariant), (general, MissingPotential)):
        with pytest.raises(error):
            M.momentum_map(states, field)
        with pytest.raises(error):
            M.momentum_map(x, field)
    # integrate records nan momenta for such fields instead of raising.
    sys = D.RCHSystem(M.MagneticField.constant(PLANAR), D.invariant_kinetic_hamiltonian(1.0))
    traj = D.integrate(sys, states[0], t_end=0.1, h=1e-2)
    assert traj.momenta.shape == (11, 3) and np.all(np.isnan(traj.momenta))


def test_momentum_map_equivariance():
    rng = np.random.default_rng(63)
    fields = [M.MagneticField.zero(),
              M.MagneticField.invariant_potential((0.4, -0.2, 0.8), charge_factor=1.3)]
    for field in fields:
        for _ in range(500):
            x = rand_state(rng)
            h = rng.uniform(-2, 2, 3)
            lhs = M.momentum_map(M.left_translate(h, x), field)
            rhs = coadjoint(h, M.momentum_map(x, field))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_momentum_map_noether_pin():
    # The directional derivative of J along the Hamiltonian field of the
    # left-invariant kinetic energy must vanish: this is the conservation law
    # that fixes the orientation of the momentum map.
    rng = np.random.default_rng(64)
    cases = [(M.MagneticField.zero(), 0),
             (M.MagneticField.invariant_potential((0.0, 0.0, -1.0), 2.0), 0),
             (M.MagneticField.invariant_potential((0.3, -0.7, 0.5), 1.0), 1)]
    for field, k in cases:
        for _ in range(30):
            state = rand_state(rng, k=k)
            grad = fd.gradient(invariant_kinetic(), state)
            W = M.omega_matrix(state, field)
            X = np.linalg.solve(W.T, grad)

            def jmap(s, field=field):
                return M.momentum_map(s, field)

            drift = fd.directional(jmap, state, X)
            assert np.max(np.abs(drift)) <= 1e-8


def test_level_set_membership():
    rng = np.random.default_rng(65)
    field = M.MagneticField.invariant_potential((0.2, 0.4, -0.6), 1.1)
    mu_nu = CoAlgebraElement((0.5, -1.0), 1.0)
    for _ in range(100):
        x = M.sample_level_point(mu_nu, field, k=1, rng=rng)
        assert np.max(np.abs(M.momentum_map(x, field)
                             - mu_nu.as_array())) <= 1e-10
        M.reduce_point(x, mu_nu, field)
        g, rho = body_of(x)
        bumped = chart_of(g, rho + [1e-7, 1e-7, 0.0], x[6:7], x[7:])
        with pytest.raises(NotOnLevelSet, match="momentum level"):
            M.reduce_point(bumped, mu_nu, field)


def test_reduce_point_identity_lift_and_errors():
    field = M.MagneticField.zero()
    mu_nu = CoAlgebraElement((0.7, -0.4), 1.3)
    x = chart_of(np.array([0.0, 0.0, 0.9]), np.array([0.7, -0.4, 1.3]))
    o = M.reduce_point(x, mu_nu, field)
    assert np.allclose(o, [0.7, -0.4], atol=0) and o.shape == (2,)

    with pytest.raises(NotOnLevelSet):
        M.reduce_point(x, CoAlgebraElement((0.7, -0.4), 2.0), field)
    for chart in (np.zeros(3), np.zeros(1), np.zeros((4, 3)), np.float64(1.0)):
        with pytest.raises(ValueError, match="size 2 \\+ 2k"):
            M.level_lift(chart, mu_nu, field)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_level_lift_of_a_stack_is_the_lift_of_each_row(k):
    rng = np.random.default_rng(68 + k)
    for field in (M.MagneticField.zero(0.7),
                  M.MagneticField.invariant_potential(rng.normal(size=3), -1.2),
                  M.MagneticField.linear_potential(rng.normal(size=(3, 3)),
                                                   0.9)):
        for nu in (1.3, -0.6, 0.0):
            mu_nu = CoAlgebraElement(rng.normal(size=2), nu)
            for shape in ((5,), (2, 3)):
                charts = rng.normal(size=shape + (2 + 2 * k,))
                stacked = M.level_lift(charts, mu_nu, field)
                rows = [M.level_lift(c, mu_nu, field)
                        for c in charts.reshape(-1, 2 + 2 * k)]
                assert stacked.shape == shape + (6 + 2 * k,)
                assert stacked.tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("k", [0, 1])
def test_level_lift_lands_on_its_level_at_every_height(k):
    # At nu = 1 a lift that multiplies by nu where it should divide still
    # lands on the level; at nu = 2 and -0.5 it does not.
    rng = np.random.default_rng(73 + k)
    for field in (M.MagneticField.zero(0.7),
                  M.MagneticField.invariant_potential(rng.normal(size=3), -1.2)):
        for nu in (-0.5, 2.0):
            level = CoAlgebraElement(rng.normal(size=2), nu)
            charts = rng.normal(size=(2, 4, 2 + 2 * k))
            lift = M.level_lift(charts, level, field)
            J = M.momentum_map(lift, field)
            assert (np.max(np.abs(J - level.as_array()))
                    <= 1e-12 * np.max(np.abs(level.as_array())))
            back = M.project_chart(lift, field)
            assert (np.max(np.abs(back - charts))
                    <= 1e-12 * np.max(np.abs(charts)))


def test_reduce_point_well_defined_on_isotropy_orbits():
    rng = np.random.default_rng(66)
    field = M.MagneticField.invariant_potential((0.1, 0.2, 0.3), 0.8)
    mu_nu = CoAlgebraElement((1.0, 2.0), 1.5)
    xs, charts = [], []
    for _ in range(100):
        x = M.sample_level_point(mu_nu, field, k=1, rng=rng)
        z = np.array([0.0, 0.0, rng.normal()])  # isotropy of (mu, nu != 0)
        o1 = M.reduce_point(x, mu_nu, field)
        o2 = M.reduce_point(M.left_translate(z, x), mu_nu, field)
        assert np.max(np.abs(o1 - o2)) <= 1e-10
        assert o1.shape == o2.shape == (4,)
        xs.append(x)
        charts.append(o1)
    # a stack of level points gives the stack of their charts, bit for bit
    assert (M.reduce_point(np.array(xs), mu_nu, field).tobytes()
            == np.array(charts).tobytes())


def test_reduce_point_covers_orbit_plane():
    rng = np.random.default_rng(67)
    field = M.MagneticField.zero()
    mu_nu = CoAlgebraElement((0.0, 0.0), 1.0)
    hits = np.zeros((4, 4), dtype=bool)
    for _ in range(2000):
        x = M.sample_level_point(mu_nu, field, k=0, rng=rng)
        o = M.reduce_point(x, mu_nu, field)
        cell = np.floor((np.clip(o, -1.0, 0.999) + 1.0) * 2).astype(int)
        hits[cell[0], cell[1]] = True
    assert hits.all()


def test_ta_pullback_of_canonical_form_is_magnetic_form():
    rng = np.random.default_rng(68)
    step = 1e-5
    fields = [M.MagneticField.invariant_potential((0.4, -0.2, 0.8), 1.3),
              M.MagneticField.linear_potential(
                  np.array([[0.0, 2.0, 0.0], [0, 0, 1.0], [0, 0, 0]]), 0.9),
              nonconstant_closed_field(1.2)]
    zero = M.MagneticField.zero()
    for field in fields:
        for _ in range(40):
            s0 = rng.normal(size=6)

            def shift_map(s, field=field):
                return M.momentum_shift(s, field)

            v1 = rng.normal(size=6)
            v2 = rng.normal(size=6)
            tv1 = fd.directional(shift_map, s0, v1, step)
            tv2 = fd.directional(shift_map, s0, v2, step)
            shifted = M.momentum_shift(s0, field)
            canonical = M.magnetic_form(shifted, tv1, tv2, zero)
            magnetic = M.magnetic_form(s0, v1, v2, field)
            assert abs(canonical - magnetic) <= 1e-6


def test_omega_b_closedness():
    rng = np.random.default_rng(69)
    fields = [M.MagneticField.constant(1.7 * PLANAR, 1.0),
              M.MagneticField.invariant_potential((0.3, 0.1, -0.9), 2.0),
              nonconstant_closed_field(0.6)]
    for field in fields:
        for _ in range(5):
            state = rng.normal(size=6)

            def omega(s, field=field):
                return M.omega_matrix(s, field)

            assert fd.two_form_closedness(omega, state) <= 1e-6


def test_closedness_residual_reads_a_form_that_is_not_closed():
    # b12 = q3 = -b21: d(q3 dq1 ^ dq2) = dq1 ^ dq2 ^ dq3, so the cyclic sum
    # d_3 b12 + d_1 b23 + d_2 b31 is 1 (exact up to the difference's rounding).
    def not_closed(q):
        b = np.zeros((3, 3))
        b[0, 1], b[1, 0] = q[2], -q[2]
        return b

    rng = np.random.default_rng(71)
    for q in rng.uniform(-2, 2, (50, 3)):
        assert abs(fd.two_form_closedness(not_closed, q) - 1.0) <= 1e-9
        assert fd.two_form_closedness(lambda _: 1.7 * PLANAR, q) == 0.0
    # A nan residual is not read as closed.
    assert np.isnan(fd.two_form_closedness(lambda _: np.full((3, 3), np.nan),
                                           q))


def test_field_potential_consistency():
    rng = np.random.default_rng(70)
    fields = [M.MagneticField.invariant_potential((0.4, -0.2, 0.8), 1.0),
              M.MagneticField.linear_potential(rng.normal(size=(3, 3))),
              nonconstant_closed_field()]
    for field in fields:
        for _ in range(10):
            q = rng.normal(size=3)
            b = field.b(q)
            assert np.max(np.abs(b + b.T)) <= 1e-14
            da = fd.one_form_curl(field.vector_potential, q)
            assert np.max(np.abs(da - b)) <= 1e-6
            jac = fd.jacobian(field.vector_potential, q)
            assert np.max(np.abs(field.vector_potential_jacobian(q) - jac)) <= 1e-8


def test_factories_declare_kind():
    assert M.MagneticField.zero().kind == "zero"
    assert M.MagneticField.constant(np.zeros((3, 3))).kind == "zero"
    assert M.MagneticField.constant(PLANAR).kind == "constant"
    assert M.MagneticField.linear_potential(np.eye(3)).kind == "linear"
    invariant = M.MagneticField.invariant_potential((0.1, 0.2, 0.3), 2.0)
    assert invariant.kind == "invariant" and invariant.is_constant
    assert dataclasses.replace(invariant, charge_factor=-1.0).kind == "invariant"
    with pytest.raises(MissingPotential):
        M.MagneticField.constant(PLANAR).vector_potential_jacobian(np.zeros(3))
    with pytest.raises(ValueError):
        M.MagneticField(lambda q: np.zeros((3, 3)), lambda q: np.zeros(3))
    with pytest.raises(ValueError):
        M.MagneticField(lambda q: np.zeros((3, 3)), kind="invariant")
    with pytest.raises(ValueError):
        M.MagneticField(lambda q: np.zeros((3, 3)), kind="flat")


@pytest.mark.parametrize("pair", [(np.nan, np.nan), (np.inf, -np.inf)],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("build", [MagneticCocycle, M.MagneticField.constant],
                         ids=["cocycle", "constant_field"])
def test_antisymmetric_matrices_reject_non_finite_entries(build, pair):
    # m + m.T is nan at a nan or (inf, -inf) pair, and nan > 1e-14 is False,
    # so an asymmetry bound alone lets these matrices through.
    m = 0.5 * PLANAR
    m[0, 1], m[1, 0] = pair
    with pytest.raises(ValueError, match="finite antisymmetric 3x3"):
        build(m)
    for bad in (np.zeros((2, 2)), PLANAR + np.eye(3)):
        with pytest.raises(ValueError, match="finite antisymmetric 3x3"):
            build(bad)


def test_reduced_form_pullback_matches_level_restriction():
    # Pulling the reduced (orbit + canonical V) form back through the point
    # reduction reproduces omega_B on vectors tangent to the momentum level.
    rng = np.random.default_rng(71)
    cases = [(M.MagneticField.zero(), CoAlgebraElement((0.4, -0.3), 1.0), 1),
             (M.MagneticField.invariant_potential((0.2, -0.5, 0.7), 1.2),
              CoAlgebraElement((1.0, 0.5), 1.5), 1),
             (M.MagneticField.invariant_potential((0.0, 0.0, -1.0), 1.0),
              CoAlgebraElement((0.0, 0.0), 2.0), 0)]
    for field, mu_nu, k in cases:
        for _ in range(12):
            state = M.sample_level_point(mu_nu, field, k, rng)
            n = 6 + 2 * k

            def jmap(s, field=field):
                return M.momentum_map(s, field)

            DJ = fd.jacobian(jmap, state)
            _, sing, vt = np.linalg.svd(DJ)
            tangent_basis = vt[3:]
            assert tangent_basis.shape == (n - 3, n)

            def project(s, field=field):
                return M.project_chart(s, field)

            for _ in range(4):
                v = tangent_basis.T @ rng.normal(size=n - 3)
                w = tangent_basis.T @ rng.normal(size=n - 3)
                dv = fd.directional(project, state, v)
                dw = fd.directional(project, state, w)
                reduced = orbit_form_on_chart_vectors(
                    mu_nu.nu, dv, dw, MagneticCocycle.zero())
                full = M.magnetic_form(state, v, w, field)
                assert abs(reduced - full) <= 1e-5


def reduced_value(evaluate, mu_nu, field):
    """The reduced Hamiltonian that reduce_system builds from a general spec
    of evaluate, as a map of orbit charts."""
    spec = D.HamiltonianSpec(evaluate, lambda x: fd.gradient(evaluate, x))
    return R.reduce_system(D.RCHSystem(field, spec), mu_nu).hamiltonian.evaluate


def test_reduced_hamiltonian_particle_and_lift_independence():
    field = M.MagneticField.zero()
    mu_nu = CoAlgebraElement((0.3, 0.9), 1.0)
    h = reduced_value(invariant_kinetic(mass=2.0), mu_nu, field)
    rng = np.random.default_rng(72)
    for _ in range(50):
        rho = rng.normal(size=2)
        assert abs(h(rho) - (rho @ rho + 1.0) / 4.0) <= 1e-12

    shifted_field = M.MagneticField.invariant_potential((0.5, -0.1, 0.4), 2.0)
    h2 = reduced_value(invariant_kinetic(), mu_nu, shifted_field)
    shift = 2.0 * np.array([0.5, -0.1, 0.4])
    for _ in range(50):
        rho = rng.normal(size=2)
        rho_raw = np.array([rho[0] - shift[0], rho[1] - shift[1], 1.0 - shift[2]])
        assert abs(h2(rho) - 0.5 * rho_raw @ rho_raw) <= 1e-12

    # the same orbit point evaluated through random isotropy lifts
    for _ in range(100):
        chart = rng.normal(size=2)
        base = h2(chart)
        lift = M.level_lift(chart, mu_nu, shifted_field)
        lift[2] += rng.normal()
        assert abs(invariant_kinetic()(lift) - base) <= 1e-10


def test_reduced_hamiltonian_rejects_non_invariant():
    def chart_kinetic(x):
        p = x[3:6]
        return 0.5 * float(p @ p)

    with pytest.raises(NotInvariant, match="not left-invariant to 1e-10"):
        reduced_value(chart_kinetic, CoAlgebraElement((0, 0), 1.0),
                      M.MagneticField.zero())


def test_constant_hamiltonian_reduces_to_constant():
    h = reduced_value(lambda x: 4.25, CoAlgebraElement((0, 0), 1.0),
                      M.MagneticField.zero())
    assert h(np.array([3.0, -2.0])) == 4.25


def scaled_states(rng, n, k):
    """Chart states whose entries range over magnitudes 1e-3 to 1e3."""
    shape = (n, 6 + 2 * k)
    return rng.uniform(-1, 1, shape) * 10.0 ** rng.uniform(-3, 3, shape)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_left_translate_matches_the_group_reference_bitwise(k):
    rng = np.random.default_rng(4200 + k)
    for s in scaled_states(rng, 300, k):
        h = scaled_states(rng, 1, 0)[0, :3]
        g, rho = body_of(s)
        expected = chart_of(multiply(h, g), rho, s[6:6 + k], s[6 + k:])
        assert M.left_translate(h, s).tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_momentum_shift_matches_the_reference_bitwise(k):
    rng = np.random.default_rng(4300 + k)
    fields = [M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.3),
              M.MagneticField.linear_potential(rng.normal(size=(3, 3)), -0.7),
              nonconstant_closed_field(1.2)]
    for field in fields:
        for s in scaled_states(rng, 200, k):
            q, p = s[:3], s[3:6]
            expected = np.concatenate(
                [q, p + field.charge_factor * field.vector_potential(q), s[6:]])
            assert M.momentum_shift(s, field).tobytes() == expected.tobytes()


def test_left_translate_is_a_left_action():
    rng = np.random.default_rng(4400)
    for k in (0, 1, 2):
        for _ in range(100):
            s = rand_state(rng, k=k)
            g, h = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            twice = M.left_translate(h, M.left_translate(g, s))
            once = M.left_translate(multiply(h, g), s)
            assert np.max(np.abs(twice - once)) <= 1e-12


def test_momentum_shift_inverse_is_the_negated_charge():
    # The base point and the V factor come back exactly; p comes back up to
    # the rounding of p + cf*A(q), since (p + x) - x need not equal p.
    rng = np.random.default_rng(4500)
    for field in (M.MagneticField.invariant_potential((0.4, -0.2, 0.8), 1.3),
                  nonconstant_closed_field(0.9)):
        inverse = dataclasses.replace(field, charge_factor=-field.charge_factor)
        for k in (0, 1, 2):
            for s in scaled_states(rng, 100, k):
                back = M.momentum_shift(M.momentum_shift(s, field), inverse)
                assert np.array_equal(np.delete(back, [3, 4, 5]),
                                      np.delete(s, [3, 4, 5]))
                shift = field.charge_factor * field.vector_potential(s[:3])
                ulp = np.spacing(np.abs(s[3:6]) + np.abs(shift))
                assert np.all(np.abs(back[3:6] - s[3:6]) <= 2 * ulp)


NAN_ROW = np.zeros((3, 6))
NAN_ROW[1, 4] = np.nan
BAD_STATES = [np.array([0.1, 0.2, np.nan, 0.0, 1.0, 2.0]),
              np.array([0.1, 0.2, 0.3, np.inf, 1.0, 2.0, 0.0, 0.0]),
              np.zeros(5), np.zeros(7), np.zeros((1, 5)), np.zeros((2, 7)),
              NAN_ROW, np.float64(1.0)]


@pytest.mark.parametrize("state", BAD_STATES,
                         ids=("nan", "inf", "size5", "size7", "stack5",
                              "stack7", "nan_row", "scalar"))
def test_public_functions_reject_bad_chart_states(state):
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    level = CoAlgebraElement((0.4, -0.7), 1.0)
    h = np.array([0.1, 0.2, 0.3])
    calls = [lambda: M.omega_matrix(state, field),
             lambda: M.magnetic_form(state, np.zeros(6), np.zeros(6), field),
             lambda: M.momentum_shift(state, field),
             lambda: M.left_translate(h, state),
             lambda: M.momentum_map(state, field),
             lambda: M.reduce_point(state, level, field)]
    for call in calls:
        with pytest.raises(ValueError):
            call()
