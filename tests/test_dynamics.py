"""Vector fields, vertical lifts, and integrator tests against closed-form flows."""

import dataclasses
import warnings

import numpy as np
import pytest

from heisenmech import dynamics as D
from heisenmech import fd
from heisenmech import magnetic as M
from heisenmech.errors import MissingPotential, NonConvergence, NonSymplecticWarning

PLANAR = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def rotation_system(m=1.0, e=1.0, c=1.0):
    return D.heisenberg_particle(m, e, c, M.MagneticField.constant(PLANAR))


def nonconstant_closed_field(charge=1.0):
    def b(q):
        out = np.zeros((3, 3))
        out[0, 1], out[1, 0] = q[0] ** 2, -q[0] ** 2
        return out

    def da(q):
        return np.array([[0.0, 0.0, 0.0], [q[0] ** 2, 0.0, 0.0], [0.0, 0.0, 0.0]])

    return M.MagneticField(b, lambda q: np.array([0.0, q[0] ** 3 / 3.0, 0.0]), charge,
                           da)


def test_hamiltonian_spec_gradient_consistency():
    rng = np.random.default_rng(80)
    for spec in (D.euclidean_kinetic_hamiltonian(1.7),
                 D.invariant_kinetic_hamiltonian(0.8),
                 D.invariant_kinetic_hamiltonian(1.0, k=1)):
        dim = 6 + 2 * spec.k
        for _ in range(50):
            state = rng.normal(size=dim)
            grad = spec.grad(state)
            v = rng.normal(size=dim)
            fd_dir = fd.directional(lambda s: np.array([spec.evaluate(s)]), state, v, 1e-5)
            assert abs(grad @ v - fd_dir[0]) <= 1e-5


def test_free_motion_field():
    sys = D.heisenberg_particle(2.0, 0.0, 1.0, M.MagneticField.zero())
    rng = np.random.default_rng(81)
    for _ in range(20):
        state = rng.normal(size=6)
        X = D.hamiltonian_vector_field(sys, state)
        assert np.allclose(X[:3], state[3:6] / 2.0, atol=1e-14)
        assert np.allclose(X[3:6], 0.0, atol=0)


def test_rotation_oracle_initial_slope():
    sys = rotation_system()
    X = D.hamiltonian_vector_field(sys, np.array([0, 0, 0, 1.0, 0, 0]))
    assert np.allclose(X[3:6], [0, -1, 0], atol=1e-14)


def test_defining_equation_residual():
    rng = np.random.default_rng(82)
    systems = [rotation_system(),
               D.heisenberg_particle(1.5, 2.0, 3.0,
                                     M.MagneticField.invariant_potential((0.3, -0.2, 0.7))),
               D.RCHSystem(nonconstant_closed_field(1.1),
                           D.invariant_kinetic_hamiltonian(2.0))]
    for sys in systems:
        for _ in range(200):
            state = rng.normal(size=6)
            X = D.hamiltonian_vector_field(sys, state)
            grad = sys.hamiltonian.grad(state)
            W = M.omega_matrix(M.PhasePoint(state[:3], state[3:6]), sys.field)
            for _ in range(10):
                w = rng.normal(size=6)
                assert abs(X @ W @ w - grad @ w) <= 1e-9


def test_vertical_lift_identity_and_doubling():
    sys = D.heisenberg_particle(1.0, 1.0, 1.0, M.MagneticField.zero())
    identity = D.FiberMap(apply=lambda s: s)
    rng = np.random.default_rng(83)
    for _ in range(20):
        state = rng.normal(size=6)
        lift = D.vertical_lift(identity, sys, state)
        X = D.hamiltonian_vector_field(sys, state)
        assert np.allclose(lift[:3], 0.0, atol=0)
        assert np.max(np.abs(lift[3:6] - X[3:6])) <= 1e-9

    def doubling(s):
        out = s.copy()
        out[3:6] = 2.0 * s[3:6]
        return out

    lift = D.vertical_lift(D.FiberMap(apply=doubling), sys, rng.normal(size=6))
    assert np.max(np.abs(lift)) <= 1e-9


def test_vertical_lift_rejects_base_moving_map():
    sys = rotation_system()
    for shift in (1.0, 1e-9):

        def slide(s):
            out = s.copy()
            out[0] += shift
            return out

        # The base/fiber index arrays are built once per k and shared, so
        # the check must hold on every call, not just the first.
        for _ in range(2):
            with pytest.raises(ValueError, match="base point"):
                D.vertical_lift(D.FiberMap(apply=slide), sys, np.zeros(6))
    base, fiber = D._base_fiber_indices(1)
    assert D._base_fiber_indices(1)[0] is base
    assert not base.flags.writeable and not fiber.flags.writeable


def test_rch_field_additivity_and_q_component():
    rng = np.random.default_rng(84)

    def damping(s):
        out = s.copy()
        out[3:6] = -0.3 * s[3:6]
        return out

    def nudge(s):
        out = s.copy()
        out[3:6] = s[3:6] + np.array([0.1, 0.0, -0.2])
        return out

    base = rotation_system()
    sys = D.RCHSystem(base.field, base.hamiltonian,
                      force=D.FiberMap(apply=damping),
                      control=D.FiberMap(apply=nudge),
                      control_subset=D.ControlSubset(np.zeros(3), np.eye(3)))
    for _ in range(20):
        state = rng.normal(size=6)
        total = D.rch_vector_field(sys, state)
        parts = (D.hamiltonian_vector_field(sys, state)
                 + D.vertical_lift(sys.force, sys, state)
                 + D.vertical_lift(sys.control, sys, state))
        assert np.max(np.abs(total - parts)) <= 1e-12
        assert np.array_equal(total[:3], D.hamiltonian_vector_field(sys, state)[:3])


def test_integrate_free_particle_exact():
    sys = D.heisenberg_particle(2.0, 0.0, 1.0, M.MagneticField.zero())
    x0 = np.array([0.1, -0.4, 0.2, 1.0, 2.0, -0.5])
    for method in ("midpoint", "rk4"):
        traj = D.integrate(sys, x0, t_end=1.0, h=0.01, method=method)
        expected_q = x0[:3] + 1.0 * x0[3:6] / 2.0
        assert np.max(np.abs(traj.final_state()[:3] - expected_q)) <= 1e-12
        assert np.max(np.abs(traj.final_state()[3:6] - x0[3:6])) <= 1e-12


def test_integrate_rotation_period_return():
    sys = rotation_system()
    x0 = np.array([0, 0, 0, 1.0, 0, 0])
    traj = D.integrate(sys, x0, t_end=2 * np.pi, h=1e-3, method="midpoint")
    assert np.max(np.abs(traj.final_state()[3:6] - x0[3:6])) <= 1e-5
    # quarter period spot check against p(t) = (cos t, -sin t, 0)
    quarter = D.integrate(sys, x0, t_end=np.pi / 2, h=1e-3, method="rk4")
    assert np.max(np.abs(quarter.final_state()[3:6] - [0.0, -1.0, 0.0])) <= 1e-8


def test_midpoint_energy_drift():
    sys = rotation_system()
    x0 = np.array([0.3, -0.2, 0.5, 1.0, 0.4, -0.7])
    traj = D.integrate(sys, x0, t_end=10.0, h=1e-3, method="midpoint")
    assert traj.states.shape[0] == 10001
    rel = np.abs(traj.energies - traj.energies[0]) / abs(traj.energies[0])
    assert np.max(rel) <= 1e-8


def test_midpoint_nonconvergence():
    sys = rotation_system()
    with pytest.raises(NonConvergence) as exc:
        D.integrate(sys, np.array([0, 0, 0, 1.0, 0, 0]), t_end=3.0, h=3.0)
    assert exc.value.step_index == 0


def test_midpoint_symplectic_jacobian():
    sys = D.heisenberg_particle(1.3, 0.8, 1.0,
                                M.MagneticField.constant(1.6 * PLANAR))
    W = M.omega_matrix(M.PhasePoint(np.zeros(3), np.zeros(3)), sys.field)
    h = 1e-3
    rng = np.random.default_rng(85)
    for _ in range(5):
        y0 = rng.normal(size=6)

        def one_step(y):
            return D.integrate(sys, y, t_end=h, h=h).final_state()

        J = fd.jacobian(one_step, y0, step=1e-5)
        assert np.max(np.abs(J.T @ W @ J - W)) <= 1e-6


def test_noether_momentum_drift_along_flow():
    field = M.MagneticField.invariant_potential((0.2, -0.4, 0.6), 1.0)
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0))
    x0 = np.array([0.4, -0.1, 0.3, 0.7, 0.2, 1.1])
    traj = D.integrate(sys, x0, t_end=1.0, h=1e-3, method="midpoint")
    drift = np.max(np.abs(traj.momenta - traj.momenta[0]))
    assert drift <= 1e-8


def test_heisenberg_particle_properties():
    rng = np.random.default_rng(86)
    sys = rotation_system(m=1.4, e=2.0, c=4.0)
    assert sys.field.charge_factor == 0.5
    for _ in range(20):
        state = rng.normal(size=6)
        assert np.array_equal(sys.hamiltonian.grad(state)[:3], np.zeros(3))
    traj = D.integrate(sys, rng.normal(size=6), t_end=5.0, h=1e-3)
    speeds = np.linalg.norm(traj.states[:, 3:6], axis=1)
    assert np.max(np.abs(speeds - speeds[0])) <= 1e-8


def test_invalid_system_parameters():
    with pytest.raises(ValueError):
        D.heisenberg_particle(-1.0, 1.0, 1.0, M.MagneticField.zero())
    with pytest.raises(ValueError):
        D.heisenberg_particle(1.0, 1.0, 0.0, M.MagneticField.zero())


def test_control_subset_validation():
    with pytest.raises(ValueError):
        D.ControlSubset(np.zeros(3), [[1.0, 0, 0], [2.0, 0, 0]])
    subset = D.ControlSubset([0.0, 0.0, 1.0], [[1.0, 0, 0]])
    assert subset.contains([2.5, 0.0, 1.0])
    assert not subset.contains([0.0, 0.1, 1.0])
    assert subset.distance([0.0, 0.0, 2.0]) == 1.0

    def bad_control(s):
        out = s.copy()
        out[3:6] = [0.0, 1.0, 0.0]
        return out

    with pytest.raises(ValueError):
        D.RCHSystem(M.MagneticField.zero(), D.euclidean_kinetic_hamiltonian(1.0),
                    control=D.FiberMap(apply=bad_control),
                    control_subset=D.ControlSubset(np.zeros(3), [[1.0, 0, 0]]))


def test_modified_hamiltonian_identities():
    field = M.MagneticField.invariant_potential((0.5, -0.3, 0.9), 1.2)
    sys = D.heisenberg_particle(1.6, 1.2, 1.0, field)
    rng = np.random.default_rng(87)
    for _ in range(1000):
        state = rng.normal(size=6)
        pt = M.PhasePoint(state[:3], state[3:6])
        shifted = M.momentum_shift(pt, sys.field)
        lhs = D.modified_hamiltonian(sys, shifted.as_array())
        rhs = sys.hamiltonian.evaluate(state)
        assert abs(lhs - rhs) <= 1e-12

    zero_pot = M.MagneticField.linear_potential(np.zeros((3, 3)))
    free = D.heisenberg_particle(2.0, 1.0, 1.0, zero_pot)
    state = rng.normal(size=6)
    assert abs(D.modified_hamiltonian(free, state)
               - free.hamiltonian.evaluate(state)) <= 1e-15

    with pytest.raises(MissingPotential):
        D.modified_hamiltonian(rotation_system(), state)


def test_momentum_shift_conjugates_flows():
    # Canonical flow of the shifted Hamiltonian, pushed through the fiber
    # translation, reproduces the magnetic flow of the original Hamiltonian.
    a = np.array([0.4, -0.2, 0.8])
    cf = 1.3
    field = M.MagneticField.invariant_potential(a, cf)
    m = 1.7
    sys = D.heisenberg_particle(m, cf, 1.0, field)

    def ha_eval(state):
        q, P = state[:3], state[3:6]
        w = P - cf * np.array([a[0] + 0.5 * a[2] * q[1],
                               a[1] - 0.5 * a[2] * q[0], a[2]])
        return 0.5 * float(w @ w) / m

    def ha_grad(state):
        q, P = state[:3], state[3:6]
        A = np.array([a[0] + 0.5 * a[2] * q[1], a[1] - 0.5 * a[2] * q[0], a[2]])
        DA = np.array([[0.0, 0.5 * a[2], 0.0], [-0.5 * a[2], 0.0, 0.0], [0, 0, 0.0]])
        w = (P - cf * A) / m
        out = np.zeros(6)
        out[:3] = -cf * DA.T @ w
        out[3:6] = w
        return out

    canonical = D.RCHSystem(M.MagneticField.zero(),
                            D.HamiltonianSpec(ha_eval, ha_grad), m=m)
    rng = np.random.default_rng(88)
    for _ in range(3):
        state = rng.normal(size=6)
        magnetic_end = D.integrate(sys, state, 1.0, 1e-4, "rk4").final_state()
        shifted0 = M.momentum_shift(M.PhasePoint(state[:3], state[3:6]), sys.field)
        canonical_end = D.integrate(canonical, shifted0.as_array(), 1.0, 1e-4,
                                    "rk4").final_state()
        back = M.momentum_shift(
            M.PhasePoint(canonical_end[:3], canonical_end[3:6]),
            dataclasses.replace(sys.field, charge_factor=-cf))
        assert np.max(np.abs(back.as_array() - magnetic_end)) <= 1e-8


def test_shifted_chart_route_and_rk4_fallback():
    field = nonconstant_closed_field(0.9)
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0))
    x0 = np.array([0.5, -0.2, 0.1, 0.8, 0.3, -0.4])
    traj = D.integrate(sys, x0, t_end=2.0, h=1e-3, method="midpoint")
    rel = np.abs(traj.energies - traj.energies[0]) / abs(traj.energies[0])
    assert np.max(rel) <= 1e-6

    def tiny_force(s):
        out = s.copy()
        out[3:6] = s[3:6] * (1.0 - 1e-3)
        return out

    forced = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0),
                         force=D.FiberMap(apply=tiny_force))
    with pytest.warns(NonSymplecticWarning):
        out = D.integrate(forced, x0, t_end=0.1, h=1e-3, method="midpoint")
    assert out.method == "rk4"


def test_undeclared_field_is_general_not_zero():
    # b12 = q1 (q1 - 1)(q1 + 0.7) vanishes wherever q1 is 0, 1 or -0.7, so
    # sampling there would call it zero; a field built directly is general.
    def b(q):
        v = q[0] * (q[0] - 1.0) * (q[0] + 0.7)
        out = np.zeros((3, 3))
        out[0, 1], out[1, 0] = v, -v
        return out

    field = M.MagneticField(b)
    assert field.kind == "general" and not field.is_constant
    x = M.extended_from_chart(np.array([0.3, 0.1, 0.7, 0.5, 0.0, 0.7]))
    with pytest.raises(MissingPotential):
        M.momentum_map(x, field)
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0))
    with pytest.warns(NonSymplecticWarning):
        traj = D.integrate(sys, np.array([0.5, -0.2, 0.1, 0.8, 0.3, -0.4]),
                           t_end=0.1, h=1e-2, method="midpoint")
    assert traj.method == "rk4"
    assert np.all(np.isnan(traj.momenta))


def test_integrate_momenta_are_the_point_momentum_map():
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 0.7)
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0, 1), k=1)
    traj = D.integrate(sys, np.array([0.4, -0.1, 0.3, 0.7, 0.2, 1.1, 0.5, -0.3]),
                       t_end=0.2, h=1e-2)
    for s, J in zip(traj.states, traj.momenta):
        expect = M.momentum_map(M.extended_from_chart(s, 1), field).as_array()
        assert J.tobytes() == expect.tobytes()


def test_non_finite_state_raises_floating_point_error():
    sys = D.RCHSystem(M.MagneticField.invariant_potential((0.0, 0.0, 50.0)),
                      D.invariant_kinetic_hamiltonian(1.0))
    x0 = np.array([0.0, 0.0, 0.0, 100.0, 0.0, 100.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="step 25"):
            D.integrate(sys, x0, t_end=20.0, h=0.5, method="rk4")


def test_flow_stops_at_the_first_non_finite_state():
    kinetic = D.invariant_kinetic_hamiltonian(1.0)
    calls = []

    def counted(state):
        calls.append(1)
        return kinetic.gradient(state)

    sys = D.RCHSystem(M.MagneticField.invariant_potential((0.0, 0.0, 50.0)),
                      D.HamiltonianSpec(kinetic.evaluate, counted))
    x0 = np.array([0.0, 0.0, 0.0, 100.0, 0.0, 100.0])
    with pytest.raises(FloatingPointError, match="step 25"):
        D.integrate(sys, x0, t_end=20.0, h=0.5, method="rk4")
    # steps 0..25 at four rk4 stages each; nothing after the overflow
    assert len(calls) == 26 * 4


def test_run_settings_are_validated_before_the_route():
    field = M.MagneticField(lambda q: np.array([[0.0, q[0], 0.0],
                                                [-q[0], 0.0, 0.0],
                                                [0.0, 0.0, 0.0]]))
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t_end, h, method in ((1.0, -1.0, "midpoint"), (-1.0, 0.1, "midpoint"),
                                 (1.0, 0.1, "euler")):
            with pytest.raises(ValueError):
                D.integrate(sys, np.zeros(6), t_end, h, method)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        D.Trajectory(np.array([0.0, 0.0]), np.zeros((2, 6)), np.zeros(2),
                     np.zeros((2, 3)), "rk4")
