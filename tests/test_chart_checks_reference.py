"""The stacked chart-layer records against the per-sample loops they replaced.

check_dynamics' defining-equation record, check_momentum_shift's identity
record, kk_alpha_form_check's curl and kk_reduce_and_compare's projection
each evaluate their samples as one pass of the stack-generic chart kernels. The references below are the
loops they replaced, kept here verbatim (one single-state kernel call per
sample, drawing from the generator in the same order): every record must
carry the same name, sample count, bound and the same bits of max residual.
"""

import dataclasses

import numpy as np
import pytest

from heisenmech import checks
from heisenmech import dynamics as dyn
from heisenmech import fd
from heisenmech import magnetic as mag
from heisenmech import reduction as R
from heisenmech.reduction import CheckRecord


def reference_dynamics(seed, samples=1000):
    rng = np.random.default_rng(seed)
    systems = [dyn.heisenberg_particle(1.0, 1.0, 1.0,
                                       mag.MagneticField.constant(checks._ROT)),
               dyn.heisenberg_particle(
                   1.5, 2.0, 3.0,
                   mag.MagneticField.invariant_potential((0.3, -0.2, 0.7)))]
    defining = 0.0
    for i in range(samples):
        sys = systems[i % len(systems)]
        state = rng.normal(size=6)
        X = dyn.hamiltonian_vector_field(sys, state)
        grad = sys.hamiltonian.grad(state)
        W = mag.omega_matrix(state, sys.field)
        v = rng.normal(size=6)
        defining = max(defining, abs(float(X @ W @ v) - float(grad @ v)))
    rotation = systems[0]
    x0 = np.array([0, 0, 0, 1.0, 0, 0])
    traj = dyn.integrate(rotation, x0, 2 * np.pi, 1e-3, "midpoint")
    period = float(np.max(np.abs(traj.final_state()[3:6] - x0[3:6])))
    drift_traj = dyn.integrate(rotation,
                               np.array([0.3, -0.2, 0.5, 1.0, 0.4, -0.7]),
                               10.0, 1e-3, "midpoint")
    rel = float(np.max(np.abs(drift_traj.energies - drift_traj.energies[0]))
                / abs(drift_traj.energies[0]))
    W0 = mag.omega_matrix(np.zeros(6), rotation.field)
    h = 1e-3
    jac_res = 0.0
    for _ in range(3):
        y0 = rng.normal(size=6)
        J = fd.jacobian(
            lambda y: dyn.integrate(rotation, y, h, h).final_state(), y0)
        jac_res = max(jac_res, float(np.max(np.abs(J.T @ W0 @ J - W0))))
    return [CheckRecord("dynamics.defining_equation", samples, defining, 1e-9),
            CheckRecord("dynamics.period_return", traj.states.shape[0],
                        period, 1e-5),
            CheckRecord("dynamics.energy_drift", drift_traj.states.shape[0],
                        rel, 1e-8),
            CheckRecord("dynamics.symplectic_jacobian", 3, jac_res, 1e-6)]


def reference_momentum_shift(seed, samples=1000):
    rng = np.random.default_rng(seed)
    a = np.array([0.4, -0.2, 0.8])
    cf = 1.3
    field = mag.MagneticField.invariant_potential(a, cf)
    m = 1.7
    sys = dyn.heisenberg_particle(m, cf, 1.0, field)
    modified = dyn.modified_hamiltonian(sys).evaluate
    identity_res = 0.0
    for _ in range(samples):
        state = rng.normal(size=6)
        shifted = mag.momentum_shift(state, sys.field)
        identity_res = max(identity_res, abs(
            float(modified(shifted)) - sys.hamiltonian.evaluate(state)))
    zero = mag.MagneticField.zero()
    pullback_res = 0.0
    for _ in range(min(samples, 40)):
        state = rng.normal(size=6)

        def shift_chart(s):
            return mag.momentum_shift(s, sys.field)

        v, w = rng.normal(size=6), rng.normal(size=6)
        tv = fd.directional(shift_chart, state, v)
        tw = fd.directional(shift_chart, state, w)
        canonical = mag.magnetic_form(shift_chart(state), tv, tw, zero)
        twisted = mag.magnetic_form(state, v, w, sys.field)
        pullback_res = max(pullback_res, abs(canonical - twisted))

    state = rng.normal(size=6)
    conjugation = checks._flow_conjugation(
        sys, checks._invariant_shift_hamiltonian(a, cf, m), state)
    return [CheckRecord("shift.hamiltonian_identity", samples,
                        identity_res, 1e-12),
            CheckRecord("shift.form_pullback", min(samples, 40),
                        pullback_res, 1e-6),
            CheckRecord("shift.flow_conjugation", 1, conjugation, 1e-8)]


def reference_kk_reduce_and_compare(kk, x0, t_end=1.0, h=1e-4, method="rk4",
                                    match_threshold=1e-6, drift_threshold=1e-8):
    mu = kk.mu
    charged = dataclasses.replace(kk.field, charge_factor=mu)
    lift0 = dyn._as_state(
        np.concatenate([mag.momentum_shift(x0, charged), [0.0, mu]]), 1)
    _, states_up = dyn._fixed_step_flow(
        R._geodesic_float_field(kk.field, kk.m), lift0, t_end, h, method)

    downstairs = dyn.RCHSystem(charged, dyn.euclidean_kinetic_hamiltonian(kk.m))
    traj_down = dyn.integrate(downstairs, x0, t_end, h, method)

    inverse_shift = dataclasses.replace(kk.field, charge_factor=-mu)
    projected = np.array([mag._momentum_shift(row[:6], inverse_shift)
                          for row in states_up])
    mismatch = float(np.max(np.abs(projected - traj_down.states)))
    drift = float(np.max(np.abs(states_up[:, 7] - mu)))
    n = states_up.shape[0]
    return [CheckRecord("kk.trajectory_match", n, mismatch, match_threshold),
            CheckRecord("kk.lambda_drift", n, drift, drift_threshold)]


def reference_kk_alpha_form(kk, samples=20, seed=3313):
    rng = np.random.default_rng(seed)
    mu = kk.mu

    def alpha(y):
        return mu * np.append(kk.field.vector_potential(y[:3]), 1.0)

    residuals = []
    for _ in range(samples):
        y = rng.uniform(-2, 2, 4)
        D = fd.jacobian(alpha, y)
        curl = D.T - D
        expected = np.zeros((4, 4))
        expected[:3, :3] = mu * kk.field.b(y[:3])
        residuals.append(np.max(np.abs(curl - expected)))
    return CheckRecord("kk.alpha_form", samples, float(max(residuals)), 1e-6)


def reference_kaluza_klein(seed, samples=20):
    coeff = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    field = mag.MagneticField.linear_potential(coeff)
    kk = R.kaluza_klein_system(field, m=1.0, mu=1.0)
    records = [reference_kk_alpha_form(kk, samples=samples, seed=seed)]
    records.extend(reference_kk_reduce_and_compare(
        kk, np.array([0.2, -0.1, 0.0, 1.0, 0.3, -0.2]), t_end=1.0, h=1e-3))
    return records


REFERENCES = {
    "dynamics": reference_dynamics,
    "momentum_shift": reference_momentum_shift,
    "kaluza_klein": reference_kaluza_klein,
}


def as_tuples(records):
    return [(r.name, r.samples, r.max_residual.hex(), r.threshold)
            for r in records]


@pytest.mark.parametrize("samples", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_stacked_records_are_bitwise_the_per_sample_loops(name, samples):
    # At samples 1 the second dynamics system draws no row: its empty stack
    # must add nothing to the record. The records drawn after the stacked
    # draw (symplectic_jacobian, form_pullback, ...) pin the rng stream.
    check, reference = checks.CHECKS[name], REFERENCES[name]
    for seed in (5, 42, 99, 1234567):
        assert (as_tuples(check(seed, samples))
                == as_tuples(reference(seed, samples))), (name, seed, samples)


def kk_fields(rng):
    """Exact fields of every kind kaluza_klein_system accepts: linear,
    invariant and a general one whose potential is a callable of one point."""
    def b(q):
        out = np.zeros((3, 3))
        out[0, 1], out[1, 0] = q[0] ** 2, -q[0] ** 2
        return out

    def da(q):
        return np.array([[0.0, 0.0, 0.0], [q[0] ** 2, 0.0, 0.0],
                         [0.0, 0.0, 0.0]])

    return [mag.MagneticField.linear_potential(rng.normal(size=(3, 3)), 0.7),
            mag.MagneticField.invariant_potential(rng.normal(size=3), -1.2),
            mag.MagneticField(b, lambda q: np.array([0.0, q[0] ** 3 / 3.0, 0.0]),
                              1.0, da)]


# kk_reduce_and_compare steps by rk4 alone; the parameter keeps the test's id.
@pytest.mark.parametrize("method", ["rk4"])
def test_kk_projection_is_bitwise_the_row_loop(method):
    rng = np.random.default_rng(2300)
    for field in kk_fields(rng):
        for m, mu in ((1.0, 1.0), (1.4, -0.6), (0.8, 0.0)):
            kk = R.kaluza_klein_system(field, m, mu)
            for scale in (1e-3, 1.0, 3.0):
                x0 = scale * rng.normal(size=6)
                assert (as_tuples(R.kk_reduce_and_compare(kk, x0, 0.2, 1e-2))
                        == as_tuples(reference_kk_reduce_and_compare(
                            kk, x0, 0.2, 1e-2, method))), (field.kind, m, mu, scale)


def test_kk_alpha_form_is_bitwise_the_per_sample_loop():
    rng = np.random.default_rng(2301)
    for field in kk_fields(rng):
        for m, mu in ((1.0, 1.0), (1.4, -0.6), (0.8, 0.0)):
            kk = R.kaluza_klein_system(field, m, mu)
            for seed in (3313, 17):
                for samples in (1, 20):
                    assert (as_tuples([R.kk_alpha_form_check(kk, samples, seed)])
                            == as_tuples([reference_kk_alpha_form(
                                kk, samples, seed)])), (field.kind, mu, seed)
