"""Vector fields, vertical lifts, and integrator tests against closed-form flows."""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisenmech
from heisenmech import checks, cli
from heisenmech import dynamics as D
from heisenmech import fd
from heisenmech import magnetic as M
from heisenmech.errors import MissingPotential, NonConvergence, NonSymplecticWarning
from heisenmech.config import ExperimentConfig

CONFIGS = Path(heisenmech.__file__).parent / "configs"
PLANAR = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
# The zero Hamiltonian with its gradient, for specs built by hand.
ZERO_SPEC = (lambda s: 0.0, lambda s: np.zeros_like(s))


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
    for spec, k in ((D.euclidean_kinetic_hamiltonian(1.7), 0),
                    (D.invariant_kinetic_hamiltonian(0.8), 0),
                    (D.invariant_kinetic_hamiltonian(1.0), 1)):
        dim = 6 + 2 * k
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
            W = M.omega_matrix(state, sys.field)
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
    # The invariant particle is nonlinear, so midpoint iterates; at
    # h * a3 = 2 the fixed-point iteration does not contract.
    field = M.MagneticField.invariant_potential((0.3, -0.2, 2000.0))
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0))
    with pytest.raises(NonConvergence) as exc:
        D.integrate(sys, np.array([0, 0, 0, 1.0, 0, 0]), t_end=1.0, h=1e-3)
    assert exc.value.step_index == 0


def test_midpoint_makes_three_rhs_calls_per_step_from_step_three(monkeypatch):
    # Counted per call of the module's _midpoint_step, as the benchmark's
    # tracer counts dynamics.rhs_per_step.
    cfg = ExperimentConfig.from_path(CONFIGS / "heisenberg_particle.cfg")
    t_end, h, method = cli._run_settings(cfg)
    step, rhs_calls = D._midpoint_step, []

    def counting(rhs, *args, **kwargs):
        rhs_calls.append(0)

        def counted(y):
            rhs_calls[-1] += 1
            return rhs(y)

        return step(counted, *args, **kwargs)

    monkeypatch.setattr(D, "_midpoint_step", counting)
    traj = D.integrate(cli.build_system(cfg), cli.build_state(cfg), t_end, h,
                       method)
    assert (traj.route, traj.method) == ("closed_form", "midpoint")
    assert len(rhs_calls) == 1000
    # Steps 0 to 2 start from the Euler guess: its call, three iterations
    # and the polish. From step 3 on the extrapolated start costs no call;
    # two iterations reach the stop, then the polish.
    assert rhs_calls[:3] == [5, 5, 5]
    assert max(rhs_calls[3:]) <= 3


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(m=st.floats(0.5, 2.0), a=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       cf=st.sampled_from((1.0, -1.3)), k=st.sampled_from((0, 1)),
       exponent=st.floats(-3.0, 1.0), log_h=st.floats(-4.0, -2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_extrapolated_and_euler_starts_reach_the_same_step(m, a, cf, k,
                                                           exponent, log_h,
                                                           seed):
    # Both starts iterate to the same fixed point; they may stop a rounding
    # apart. The largest gap measured over 3,000 such draws was 2.0e-15,
    # relative to max(1, |y|_inf).
    sys = D.RCHSystem(M.MagneticField.invariant_potential(a, cf),
                      D.invariant_kinetic_hamiltonian(m), k=k)
    x0 = 10.0 ** exponent * np.random.default_rng(seed).normal(size=sys.dim)
    h = 10.0 ** log_h
    _, states = D._fixed_step_flow(lambda y: D.rch_vector_field(sys, y),
                                   x0, 4 * h, h, "midpoint")
    rhs = D._on_floats(lambda y: D.rch_vector_field(sys, y))
    back3, back2, back, y = (row.tolist() for row in states[:4])
    euler = D._midpoint_step(rhs, y, h, 3)
    extrapolated = D._midpoint_step(rhs, y, h, 3, back, back2, back3)
    gap = np.max(np.abs(np.subtract(extrapolated, euler)))
    assert gap <= 1e-13 * max(1.0, np.max(np.abs(y)))


def test_midpoint_symplectic_jacobian():
    sys = D.heisenberg_particle(1.3, 0.8, 1.0,
                                M.MagneticField.constant(1.6 * PLANAR))
    W = M.omega_matrix(np.zeros(6), sys.field)
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
    modified = D.modified_hamiltonian(sys)
    rng = np.random.default_rng(87)
    for _ in range(1000):
        state = rng.normal(size=6)
        shifted = M.momentum_shift(state, sys.field)
        lhs = modified.evaluate(shifted)
        rhs = sys.hamiltonian.evaluate(state)
        assert abs(lhs - rhs) <= 1e-12

    zero_pot = M.MagneticField.linear_potential(np.zeros((3, 3)))
    free = D.heisenberg_particle(2.0, 1.0, 1.0, zero_pot)
    state = rng.normal(size=6)
    assert abs(D.modified_hamiltonian(free).evaluate(state)
               - free.hamiltonian.evaluate(state)) <= 1e-15

    # The spec is refused when it is built, before any evaluation.
    with pytest.raises(MissingPotential):
        D.modified_hamiltonian(rotation_system())


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
        shifted0 = M.momentum_shift(state, sys.field)
        canonical_end = D.integrate(canonical, shifted0, 1.0, 1e-4,
                                    "rk4").final_state()
        back = M.momentum_shift(
            canonical_end, dataclasses.replace(sys.field, charge_factor=-cf))
        assert np.max(np.abs(back - magnetic_end)) <= 1e-8


def test_shifted_chart_route_and_rk4_fallback():
    field = nonconstant_closed_field(0.9)
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0))
    x0 = np.array([0.5, -0.2, 0.1, 0.8, 0.3, -0.4])
    traj = D.integrate(sys, x0, t_end=2.0, h=1e-3, method="midpoint")
    assert traj.method == "midpoint"
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


def test_an_overflowing_back_shift_is_the_trajectory_refusal():
    # The shifted route maps its states back through t_A^-1 after the flow.
    # The potential is -2 only near q3 = 4, a state of the run but no
    # midpoint of a step, so the flow stays finite and charge factor 1e308
    # overflows that one back-shift. Trajectory refuses the run, after the
    # momenta are read; no chart-state check refuses it first.
    def potential(q):
        return np.array([-2.0 if 3.75 < q[2] < 4.25 else 0.0, 0.0, 0.0])

    field = M.MagneticField(lambda q: np.zeros((3, 3)), potential, 1e308,
                            lambda q: np.zeros((3, 3)))
    sys = D.RCHSystem(field, D.euclidean_kinetic_hamiltonian(1.0))
    with np.errstate(over="ignore"), pytest.raises(ValueError) as refusal:
        D.integrate(sys, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0]), 5.0, 1.0)
    assert str(refusal.value) == "trajectory contains non-finite states"


@pytest.mark.parametrize("k", (0, 1))
def test_shifted_hamiltonian_gradient_matches_finite_differences(k):
    kinetic = D.invariant_kinetic_hamiltonian(1.3)

    def evaluate(state):
        theta, lam = state[6:6 + k], state[6 + k:]
        return kinetic.evaluate(state) + float(np.sum(np.cos(theta) + 0.5 * lam ** 2))

    def gradient(state):
        out = kinetic.grad(state)
        out[6:6 + k] -= np.sin(state[6:6 + k])
        out[6 + k:] += state[6 + k:]
        return out

    sys = D.RCHSystem(nonconstant_closed_field(0.9), D.HamiltonianSpec(evaluate, gradient),
                      k=k)
    shifted = D.modified_hamiltonian(sys)
    unshift = dataclasses.replace(sys.field, charge_factor=-sys.field.charge_factor)
    rng = np.random.default_rng(89)
    for _ in range(20):
        state = rng.uniform(-2, 2, 6 + 2 * k)
        expected = fd.gradient(shifted.evaluate, state)
        assert np.max(np.abs(shifted.grad(state) - expected)) <= 1e-8
        assert shifted.evaluate(state) == evaluate(M.momentum_shift(state, unshift))


def test_diverging_shifted_route_is_a_numerical_failure():
    # The midpoint iterates overflow on the shifted route; the fiber shift in
    # its right-hand side must leave that to the integrator's own failure.
    sys = D.RCHSystem(nonconstant_closed_field(1.0),
                      D.invariant_kinetic_hamiltonian(1.0))
    with np.errstate(all="ignore"):
        with pytest.raises(NonConvergence):
            D.integrate(sys, np.array([3.0, 0.0, 0.0, 50.0, 0.0, 50.0]),
                        t_end=5.0, h=0.5, method="midpoint")


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
    x = np.array([0.3, 0.1, 0.7, 0.5, 0.0, 0.7])
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
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0), k=1)
    traj = D.integrate(sys, np.array([0.4, -0.1, 0.3, 0.7, 0.2, 1.1, 0.5, -0.3]),
                       t_end=0.2, h=1e-2)
    for s, J in zip(traj.states, traj.momenta):
        expect = M.momentum_map(s, field)
        assert J.tobytes() == expect.tobytes()


@pytest.mark.parametrize("factory", [D.euclidean_kinetic_hamiltonian,
                                     D.invariant_kinetic_hamiltonian])
def test_kinetic_energies_in_one_pass_are_evaluate_bitwise(factory):
    rng = np.random.default_rng(574)
    rows = np.exp(rng.uniform(-7, 7, size=(20000, 1))) * rng.normal(size=(20000, 8))
    for m in (0.7, 1.0, 3.1):
        spec = factory(m)
        slow = np.array([spec.evaluate(row) for row in rows])
        assert D._state_energies(spec, rows).tobytes() == slow.tobytes()


@pytest.mark.parametrize("k", [0, 1])
def test_quadratic_energies_in_one_pass_are_evaluate_bitwise(k):
    # Measured: 0 differing rows of 100,000 (20 random forms, k = 0, 1, 2,
    # magnitudes e^-7..e^7), so the bound is equality.
    rng = np.random.default_rng(575)
    rows = (np.exp(rng.uniform(-7, 7, size=(20000, 1)))
            * rng.normal(size=(20000, 6 + 2 * k)))
    for c in (None, rng.normal(size=6)):
        Q = rng.normal(size=(6, 6))
        spec = D.quadratic_hamiltonian(Q + Q.T, c)
        slow = np.array([spec.evaluate(row) for row in rows])
        assert D._state_energies(spec, rows).tobytes() == slow.tobytes()


def test_integrate_energies_are_evaluate_at_each_state():
    x0 = np.array([0.4, -0.1, 0.3, 0.7, 0.2, 1.1])
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 0.7)
    general = D.HamiltonianSpec(lambda s: float(s[3:6] @ s[3:6]) + s[0],
                                lambda s: np.concatenate([[1.0, 0, 0], 2 * s[3:6]]))
    for hamiltonian in (D.euclidean_kinetic_hamiltonian(1.3),
                        D.invariant_kinetic_hamiltonian(0.7), general):
        traj = D.integrate(D.RCHSystem(field, hamiltonian), x0, t_end=0.2, h=1e-2)
        expect = np.array([hamiltonian.evaluate(s) for s in traj.states])
        assert traj.energies.tobytes() == expect.tobytes()


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


def test_kinetic_hamiltonians_declare_kind_and_mass():
    assert (D.euclidean_kinetic_hamiltonian(2.0).kind,
            D.euclidean_kinetic_hamiltonian(2.0).mass) == ("euclidean", 2.0)
    assert (D.invariant_kinetic_hamiltonian(0.7).kind,
            D.invariant_kinetic_hamiltonian(0.7).mass) == ("invariant", 0.7)
    by_hand = D.HamiltonianSpec(*ZERO_SPEC)
    assert by_hand.kind == "general" and by_hand.mass is None
    for kind, mass in (("euclidean", None), ("general", 1.0), ("invariant", -1.0),
                       ("quadratic", 1.0)):
        with pytest.raises(ValueError):
            D.HamiltonianSpec(*ZERO_SPEC, kind=kind, mass=mass)
    # A spec declares its gradient: there is no finite-difference fallback.
    with pytest.raises(TypeError):
        D.HamiltonianSpec(lambda s: 0.0)


def test_system_mass_is_the_declared_mass():
    zero = M.MagneticField.zero()
    assert D.RCHSystem(zero, D.euclidean_kinetic_hamiltonian(2.0)).m == 2.0
    assert D.RCHSystem(zero, D.euclidean_kinetic_hamiltonian(2.0), m=2.0).m == 2.0
    with pytest.raises(ValueError, match="declared mass"):
        D.RCHSystem(zero, D.euclidean_kinetic_hamiltonian(2.0), m=1.0)
    by_hand = D.HamiltonianSpec(*ZERO_SPEC)
    assert D.RCHSystem(zero, by_hand).m is None
    assert D.RCHSystem(zero, by_hand, m=1.3).m == 1.3
    with pytest.raises(ValueError):
        D.RCHSystem(zero, by_hand, m=-1.0)
    assert not hasattr(D.RCHSystem(zero, by_hand), "e")
    assert not hasattr(D.RCHSystem(zero, by_hand), "c")


def _field_of_kind(kind, cf, rng):
    if kind == "zero":
        return M.MagneticField.zero(cf)
    if kind == "constant":
        b = rng.normal(size=(3, 3))
        return M.MagneticField.constant(b - b.T, cf)
    if kind == "linear":
        return M.MagneticField.linear_potential(rng.normal(size=(3, 3)), cf)
    return M.MagneticField.invariant_potential(rng.normal(size=3), cf)


SWEEP = [(kind, cf, k, method) for kind in ("zero", "constant", "linear", "invariant")
         for cf in (0.8, -1.3) for k in (0, 1) for method in ("midpoint", "rk4")]


@pytest.mark.parametrize("kind,cf,k,method", SWEEP)
def test_propagator_route_matches_the_field_iteration(kind, cf, k, method):
    rng = np.random.default_rng(90)
    sys = D.RCHSystem(_field_of_kind(kind, cf, rng),
                      D.euclidean_kinetic_hamiltonian(1.4), k=k)
    x0 = rng.normal(size=6 + 2 * k)
    traj = D.integrate(sys, x0, t_end=0.5, h=1e-2, method=method)
    assert traj.route == "propagator" and traj.method == method
    _, reference = D._fixed_step_flow(
        lambda y: D.rch_vector_field(sys, y), x0, 0.5, 1e-2, method)
    assert np.max(np.abs(traj.states - reference)) <= 1e-12


@pytest.mark.parametrize("kind,cf,k,method", SWEEP)
def test_closed_form_route_is_bitwise_the_field(kind, cf, k, method):
    rng = np.random.default_rng(91)
    sys = D.RCHSystem(_field_of_kind(kind, cf, rng),
                      D.invariant_kinetic_hamiltonian(0.9), k=k)
    rhs = D._invariant_particle_field(sys)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(25):
            y = scale * rng.normal(size=6 + 2 * k)
            # exact signed zeros decide the sign of zero sums in B g_p
            y[rng.random(y.size) < 0.3] = 0.0
            y[rng.random(y.size) < 0.2] = -0.0
            expected = D.rch_vector_field(sys, y)
            assert np.array(rhs(y.tolist())).tobytes() == expected.tobytes()
    x0 = rng.normal(size=6 + 2 * k)
    traj = D.integrate(sys, x0, t_end=0.2, h=1e-2, method=method)
    assert traj.route == "closed_form"
    _, reference = D._fixed_step_flow(
        lambda y: D.rch_vector_field(sys, y), x0, 0.2, 1e-2, method)
    assert traj.states.tobytes() == reference.tobytes()


def test_systems_outside_the_declared_routes_keep_the_field():
    field = M.MagneticField.constant(PLANAR)
    x0 = np.array([0.3, -0.2, 0.5, 1.0, 0.4, -0.7])

    def damping(s):
        out = s.copy()
        out[3:6] = -0.3 * s[3:6]
        return out

    full = D.ControlSubset(np.zeros(3), np.eye(3))
    kinetic = D.euclidean_kinetic_hamiltonian(1.0)
    quadratic = D.quadratic_hamiltonian(np.eye(6), np.ones(6))
    for sys in (D.RCHSystem(field, D.HamiltonianSpec(kinetic.evaluate,
                                                     kinetic.gradient)),
                D.RCHSystem(field, kinetic, force=D.FiberMap(apply=damping)),
                D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0),
                            control=D.FiberMap(apply=damping),
                            control_subset=full),
                D.RCHSystem(field, quadratic, force=D.FiberMap(apply=damping)),
                D.RCHSystem(field, quadratic, control=D.FiberMap(apply=damping),
                            control_subset=full)):
        for method in ("midpoint", "rk4"):
            assert D.integrate(sys, x0, 0.1, 1e-2, method).route == "field"

    general = D.RCHSystem(nonconstant_closed_field(0.9), kinetic)
    assert D.integrate(general, x0, 0.1, 1e-2, "midpoint").route == "shifted"
    assert D.integrate(general, x0, 0.1, 1e-2, "rk4").route == "field"
    forced = dataclasses.replace(general, force=D.FiberMap(apply=damping))
    with pytest.warns(NonSymplecticWarning):
        fallback = D.integrate(forced, x0, 0.1, 1e-2, "midpoint")
    assert (fallback.route, fallback.method) == ("rk4_fallback", "rk4")


def test_midpoint_propagator_is_the_cayley_map_at_every_step_size():
    # ||hA/2||_F = 0.45, 0.6 and 3 ||A||_F / 2: the midpoint step is the
    # Cayley map wherever it exists, also where the fixed-point iteration
    # does not contract (at h = 3 it raises NonConvergence).
    sys = rotation_system()
    x0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    A, b = D._affine_pair(lambda ys: D.rch_vector_field(sys, ys), sys.dim)
    norm, eye = np.linalg.norm(A), np.eye(6)
    for h in (0.9 / norm, 1.2 / norm, 3.0):
        cayley = np.linalg.solve(eye - 0.5 * h * A, eye + 0.5 * h * A)
        P, d = D._propagator(A, b, h, "midpoint")
        assert d is None and P.tobytes() == cayley.tobytes()
        traj = D.integrate(sys, x0, t_end=h, h=h)
        assert traj.route == "propagator"
        assert traj.final_state().tobytes() == (cayley @ x0).tobytes()
    with pytest.raises(NonConvergence):
        D._fixed_step_flow(lambda y: D.rch_vector_field(sys, y), x0, 3.0, 3.0,
                           "midpoint")


def test_quadratic_hamiltonian_declares_its_kind():
    # The kind alone selects the propagator; no form is stored on the spec.
    rng = np.random.default_rng(92)
    S = rng.normal(size=(6, 6))
    Q, c = S + S.T, rng.normal(size=6)
    spec = D.quadratic_hamiltonian(Q, c)
    assert (spec.kind, spec.mass) == ("quadratic", None)
    state = rng.normal(size=8)  # (theta, lam) of k = 1 do not enter
    y = state[:6]
    assert abs(spec.evaluate(state) - (0.5 * y @ Q @ y + c @ y)) <= 1e-12
    assert abs(D.quadratic_hamiltonian(Q).evaluate(state)
               - 0.5 * y @ Q @ y) <= 1e-12  # c defaults to 0
    expected = fd.gradient(spec.evaluate, state)
    assert np.max(np.abs(spec.grad(state) - expected)) <= 1e-7
    assert not spec.grad(state)[6:].any()
    assert (D.euclidean_kinetic_hamiltonian(1.6).kind,
            D.invariant_kinetic_hamiltonian(1.6).kind) == ("euclidean",
                                                          "invariant")


def test_quadratic_hamiltonian_rejects_bad_forms():
    Q = np.eye(6)
    bad = Q.copy()
    bad[0, 1] = 1e-15
    nan = Q.copy()
    nan[2, 2] = np.nan
    for args in ((bad,), (nan,), (np.eye(5),), (Q, np.zeros(5)),
                 (Q, np.array([0, 0, np.inf, 0, 0, 0]))):
        with pytest.raises(ValueError):
            D.quadratic_hamiltonian(*args)
    with pytest.raises(ValueError):
        D.HamiltonianSpec(*ZERO_SPEC, kind="quadratic", mass=1.0)
    for m in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="positive"):
            D.euclidean_kinetic_hamiltonian(m)


def _hand_written_shift_hamiltonian(a, cf, m):
    """H_A = |P - cf*A(q)|^2/(2m) for A(q) = a + DA q, as a general spec."""

    def potential(q):
        return np.array([a[0] + 0.5 * a[2] * q[1], a[1] - 0.5 * a[2] * q[0], a[2]])

    DA = np.array([[0.0, 0.5 * a[2], 0.0], [-0.5 * a[2], 0.0, 0.0], [0, 0, 0.0]])

    def evaluate(state):
        w = state[3:6] - cf * potential(state[:3])
        return 0.5 * float(w @ w) / m

    def gradient(state):
        w = (state[3:6] - cf * potential(state[:3])) / m
        out = np.zeros_like(state)
        out[:3] = -cf * DA.T @ w
        out[3:6] = w
        return out

    return D.HamiltonianSpec(evaluate, gradient)


@pytest.mark.parametrize("cf", (1.3, -1.3))
@pytest.mark.parametrize("method", ("midpoint", "rk4"))
def test_declared_shift_hamiltonian_matches_the_field_route(method, cf):
    a, m = np.array([0.4, -0.2, 0.8]), 1.7
    zero = M.MagneticField.zero()
    declared = D.RCHSystem(zero, checks._invariant_shift_hamiltonian(a, cf, m))
    by_hand = D.RCHSystem(zero, _hand_written_shift_hamiltonian(a, cf, m))
    rng = np.random.default_rng(93)
    for scale in (1e-3, 1.0, 1e3):
        x0 = scale * rng.normal(size=6)
        fast = D.integrate(declared, x0, 1.0, 1e-3, method)
        slow = D.integrate(by_hand, x0, 1.0, 1e-3, method)
        assert (fast.route, slow.route) == ("propagator", "field")
        assert fast.states.shape == (1001, 6)
        gap = np.max(np.abs(fast.states - slow.states))
        assert gap <= 1e-12 * np.max(np.abs(slow.states))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("kind", ["zero", "constant", "linear", "invariant"])
def test_propagator_generator_is_bitwise_the_field_at_unit_states(kind, k,
                                                                   monkeypatch):
    # integrate reads (A, b) off rch_vector_field: b is the field at the zero
    # state and column j of A the field at the j-th unit state, less b.
    rng = np.random.default_rng(95)
    S = rng.normal(size=(6, 6))
    generators = []
    propagator = D._propagator
    monkeypatch.setattr(D, "_propagator", lambda A, b, h, method: (
        generators.append((A, b)) or propagator(A, b, h, method)))
    for spec in (D.euclidean_kinetic_hamiltonian(rng.uniform(0.5, 2.0)),
                 D.quadratic_hamiltonian(0.1 * (S + S.T), rng.normal(size=6))):
        sys = D.RCHSystem(_field_of_kind(kind, -0.7, rng), spec, k=k)
        traj = D.integrate(sys, rng.normal(size=sys.dim), 0.1, 1e-2)
        assert traj.route == "propagator"
        A, b = generators.pop()
        assert b.tobytes() == D.rch_vector_field(sys, np.zeros(sys.dim)).tobytes()
        for j, unit in enumerate(np.eye(sys.dim)):
            column = D.rch_vector_field(sys, unit) - b
            assert A[:, j].tobytes() == column.tobytes()


def test_pure_quadratic_systems_on_constant_fields_propagate():
    rng = np.random.default_rng(94)
    S = rng.normal(size=(6, 6))
    spec = D.quadratic_hamiltonian(0.1 * (S + S.T), rng.normal(size=6))
    x0 = rng.normal(size=6)
    for kind in ("zero", "constant", "linear", "invariant"):
        sys = D.RCHSystem(_field_of_kind(kind, -0.7, rng), spec)
        for method in ("midpoint", "rk4"):
            assert D.integrate(sys, x0, 0.1, 1e-2, method).route == "propagator"
    # Past ||hA/2||_F = 1/2 both methods still propagate, with the offset.
    sys = D.RCHSystem(M.MagneticField.constant(PLANAR), spec)
    A, b = D._affine_pair(lambda ys: D.rch_vector_field(sys, ys), sys.dim)
    assert b.any()
    h = 1.2 / np.linalg.norm(A)
    for method in ("midpoint", "rk4"):
        P, d = D._propagator(A, b, h, method)
        traj = D.integrate(sys, x0, h, h, method)
        assert traj.route == "propagator"
        assert traj.final_state().tobytes() == (P @ x0 + d).tobytes()


@pytest.mark.parametrize("method", ("midpoint", "rk4"))
def test_euclidean_propagator_is_bitwise_the_matrix_of_the_mass(method):
    # Built from the declared form, the step matrix of a zero field (any
    # mass) or of a dyadic mass (any constant field) is bit for bit the one
    # built from the mass directly, so those runs are unchanged.
    rng = np.random.default_rng(96)
    for m, kind in ((1.37, "zero"), (0.83, "zero"), (0.5, "constant"),
                    (2.0, "linear"), (1.0, "invariant")):
        for cf in (0.8, -1.3):
            sys = D.RCHSystem(_field_of_kind(kind, cf, rng),
                              D.euclidean_kinetic_hamiltonian(m))
            A = np.zeros((6, 6))
            A[:3, 3:6] = np.eye(3) / m
            A[3:6, 3:6] = cf * sys.field.b(np.zeros(3)) / m
            hA, eye = 1e-3 * A, np.eye(6)
            if method == "rk4":
                P = eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4) / 3) / 2)
            else:
                P = np.linalg.solve(eye - 0.5 * hA, eye + 0.5 * hA)
            x0 = rng.normal(size=6)
            traj = D.integrate(sys, x0, 0.05, 1e-3, method)
            expected = [x0]
            for _ in range(50):
                expected.append(P @ expected[-1])
            assert traj.states.tobytes() == np.array(expected).tobytes()


def test_flow_conjugation_negative_control():
    a, cf, m = np.array([0.4, -0.2, 0.8]), 1.3, 1.7
    sys = D.heisenberg_particle(m, cf, 1.0, M.MagneticField.invariant_potential(a, cf))
    state = np.random.default_rng(97).normal(size=6)
    right = checks._invariant_shift_hamiltonian(a, cf, m)
    assert D.integrate(D.RCHSystem(M.MagneticField.zero(), right), state, 0.1,
                       1e-4, "rk4").route == "propagator"
    assert checks._flow_conjugation(sys, right, state) <= 1e-8
    flipped = checks._invariant_shift_hamiltonian(a, -cf, m)
    assert checks._flow_conjugation(sys, flipped, state) > 1e-2


@pytest.mark.parametrize("b12", (1e3, 2e3, 1e5))
def test_strong_field_midpoint_is_the_discrete_rotation(b12):
    # Oracle: the midpoint map of the Euclidean particle turns (p1, p2) by
    # 2 atan(h omega / 2) per step, omega = cf * b12 / m. Measured error:
    # 7.4e-14, 9.5e-14 and 3.8e-13. The fixed-point iteration on the same
    # field (_fixed_step_flow without the generator) misses the oracle by
    # 6.8e-11 and 2.1e-10 at b12 = 1e3 and 2e3, and does not converge at 1e5.
    m, cf, h, n = 1.3, 0.9, 1e-3, 1000
    sys = D.RCHSystem(M.MagneticField.constant(b12 * PLANAR, cf),
                      D.euclidean_kinetic_hamiltonian(m))
    x0 = np.array([0.3, -0.2, 0.5, 1.0, 0.4, -0.7])
    traj = D.integrate(sys, x0, n * h, h, "midpoint")
    assert traj.route == "propagator"

    def turned(angle):
        c, s = np.cos(angle), np.sin(angle)
        return np.array([c * x0[3] + s * x0[4], c * x0[4] - s * x0[3]])

    omega = cf * b12 / m
    p12 = traj.final_state()[3:5]
    assert np.max(np.abs(p12 - turned(n * 2 * np.arctan(h * omega / 2)))) <= 1e-11
    # Negative control: the exact flow's angle omega * t is another map.
    assert np.max(np.abs(p12 - turned(omega * n * h))) > 1e-3


def test_singular_midpoint_map_raises_and_returns_nothing():
    # H = (p1^2 - 16 q1^2)/2 gives A the real eigenvalue 4 = 2/h at h = 0.5,
    # so I - hA/2 is singular and the midpoint map does not exist. No CLI
    # config builds such a generator: the Euclidean particle on a constant
    # field, the reduced invariant particle (with or without a body_scaling
    # force) and the shifted invariant Hamiltonian have only zero or
    # imaginary eigenvalues, so their I - hA/2 is never singular.
    Q = np.zeros((6, 6))
    Q[0, 0], Q[3, 3] = -16.0, 1.0
    sys = D.RCHSystem(M.MagneticField.zero(), D.quadratic_hamiltonian(Q))
    x0 = np.array([0.3, -0.2, 0.5, 1.0, 0.4, -0.7])
    result = None
    with pytest.raises(np.linalg.LinAlgError):
        result = D.integrate(sys, x0, 1.0, 0.5, "midpoint")
    assert result is None
    # Negative controls: rk4 at that h and midpoint at h = 0.4 step the run.
    for h, method in ((0.5, "rk4"), (0.4, "midpoint")):
        traj = D.integrate(sys, x0, 2 * h, h, method)
        assert traj.route == "propagator"
        assert np.isfinite(traj.states).all()


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), samples=st.integers(1, 20))
def test_symplectic_jacobian_record_counts_the_flows_it_differentiates(seed,
                                                                        samples):
    # The record's worst residual over one more flow need not move, so no
    # output shows a wrong count; the flows differentiated are counted here.
    starts = []
    jacobian = fd.jacobian

    def counted(f, x, *args):
        starts.append(x)
        return jacobian(f, x, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fd, "jacobian", counted)
        records = {r.name: r for r in checks.check_dynamics(seed, samples)}
    assert len(starts) == records["dynamics.symplectic_jacobian"].samples == 3
