"""The reduced propagator route of integrate_reduced and the declarations it
reads: the reduced Hamiltonian's quadratic form (OrbitFunction.form) and
affine fiber maps (FiberMap.affine).

A declared system steps by one matrix and must stay within 1e-12 relative of
the fixed-point iteration it replaces; a system without the declarations must
keep the iteration bit for bit. Which route ran is read off the number of
reduced-field calls: the propagator evaluates the field once, on the stack of
the zero chart and the n unit charts, and the iteration once per stage.
"""

import dataclasses

import numpy as np
import pytest

from heisenmech import dynamics as D
from heisenmech import magnetic as M
from heisenmech import reduction as R
from heisenmech.cli import _body_scaling_map, _constant_push_map
from heisenmech.group import CoAlgebraElement
from heisenmech.orbit import OrbitFunction

LEVEL = CoAlgebraElement((0.4, -0.7), 1.0)
FIELD = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
METHODS = ("midpoint", "rk4")
CASES = ("free", "body_scaling", "constant_push")


def system(case, k):
    kinetic = D.invariant_kinetic_hamiltonian(1.3)
    if case == "free":
        return D.RCHSystem(FIELD, kinetic, k=k)
    if case == "body_scaling":
        return D.RCHSystem(FIELD, kinetic, force=_body_scaling_map(1.3, 0.9), k=k)
    full = D.ControlSubset(np.zeros(3 + k), np.eye(3 + k))
    return D.RCHSystem(FIELD, kinetic, control=_constant_push_map((0.3, -0.1, 0.0)),
                       control_subset=full, k=k)


def start(red):
    rng = np.random.default_rng(5)
    sample = M.sample_level_point(red.level, red.source.field, red.k, rng)
    return M.reduce_point(sample, red.level, red.source.field)


def counted(monkeypatch):
    """Count reduced_rch_field calls made through integrate_reduced."""
    calls = []
    field = R.reduced_rch_field

    def counting(red, chart):
        calls.append(1)
        return field(red, chart)

    monkeypatch.setattr(R, "reduced_rch_field", counting)
    return calls


def iterated(red, z0, t_end, h, method):
    """States of the shared loop on reduced_rch_field, with no generator."""
    _, states = D._fixed_step_flow(
        lambda chart: R.reduced_rch_field(red, chart), z0, t_end, h,
        method)
    return states


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("method", METHODS)
def test_reduced_propagator_matches_the_iteration(case, k, method, monkeypatch):
    red = R.reduce_system(system(case, k), LEVEL)
    z0 = start(red)
    calls = counted(monkeypatch)
    _, charts, energies = R.integrate_reduced(red, z0, 1.0, 1e-3, method)
    assert len(calls) == 1
    monkeypatch.undo()
    reference = iterated(red, z0, 1.0, 1e-3, method)
    assert charts.shape == reference.shape == (1001, 2 + 2 * k)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(charts - reference)) <= 1e-12 * scale
    if case != "constant_push":  # the push does work on the particle
        assert np.max(np.abs(energies - energies[0])) <= 1e-12 * energies[0]


def undeclared(variant, k):
    """Reduced systems that must keep the fixed-point iteration."""
    if variant == "fiber_map":
        sys = system("body_scaling", k)
        sys = dataclasses.replace(sys, force=dataclasses.replace(sys.force,
                                                                 affine=False))
        return R.reduce_system(sys, LEVEL)
    red = R.reduce_system(system("free", k), LEVEL)
    h = red.hamiltonian
    return dataclasses.replace(red, hamiltonian=OrbitFunction(h.evaluate, h.grad))


@pytest.mark.parametrize("variant", ["fiber_map", "hamiltonian"])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("method", METHODS)
def test_undeclared_systems_keep_the_iteration_bitwise(variant, k, method,
                                                       monkeypatch):
    red = undeclared(variant, k)
    z0 = start(red)
    calls = counted(monkeypatch)
    _, charts, _ = R.integrate_reduced(red, z0, 0.2, 1e-2, method)
    assert len(calls) > 20
    monkeypatch.undo()
    assert charts.tobytes() == iterated(red, z0, 0.2, 1e-2, method).tobytes()


@pytest.mark.parametrize("k", [0, 1])
def test_midpoint_past_norm_one_half_is_the_propagator_loop(k, monkeypatch):
    # Past ||hA/2||_F = 1/2 the midpoint step is still the Cayley map, bit
    # for bit a loop over its pair.
    red = R.reduce_system(system("free", k), LEVEL)
    z0 = start(red)
    n = z0.size
    A, b = D._affine_pair(
        lambda charts: np.array([R.reduced_rch_field(red, c) for c in charts]), n)
    h = 1.0  # ||hA/2||_F = h sqrt(2)/(2 * 1.3) = 0.54
    assert np.linalg.norm(0.5 * h * A) >= 0.5
    P, d = D._propagator(A, b, h, "midpoint")
    calls = counted(monkeypatch)
    _, charts, _ = R.integrate_reduced(red, z0, 3.0, h, "midpoint")
    assert len(calls) == 1
    monkeypatch.undo()
    expected = [z0]
    for _ in range(3):
        z = P @ expected[-1]
        expected.append(z if d is None else z + d)
    assert charts.tobytes() == np.array(expected).tobytes()
    # Negative control: the iteration converges here, to other bits.
    assert charts.tobytes() != iterated(red, z0, 3.0, h, "midpoint").tobytes()


@pytest.mark.parametrize("k", [0, 1])
def test_declared_reduced_form_is_the_chain_rule_gradient(k):
    rng = np.random.default_rng(70 + k)
    for _ in range(10):
        m, cf = rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5)
        field = (M.MagneticField.zero(cf) if rng.random() < 0.3 else
                 M.MagneticField.invariant_potential(rng.normal(size=3), cf))
        level = CoAlgebraElement(rng.uniform(-1, 1, 2),
                                 rng.uniform(0.5, 2) * rng.choice((-1, 1)))
        sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(m), k=k)
        red = R.reduce_system(sys, level)
        assert red.hamiltonian.form is not None
        for _ in range(5):
            z = rng.uniform(-3, 3, 2 + 2 * k)
            chain = red.lift_matrix.T @ sys.hamiltonian.grad(red.lift(z))
            declared = red.hamiltonian.grad(z)
            assert np.max(np.abs(declared - chain)) <= 1e-13 * max(
                1.0, np.max(np.abs(chain)))


def test_other_kinds_declare_no_reduced_form():
    kinetic = D.invariant_kinetic_hamiltonian(1.0)
    general = D.HamiltonianSpec(kinetic.evaluate, kinetic.gradient)
    red = R.reduce_system(D.RCHSystem(FIELD, general), LEVEL)
    assert red.hamiltonian.form is None and red.hamiltonian.gradient is not None


def test_a_wrong_declared_form_fails_commutation():
    sys = system("free", 0)
    red = R.reduce_system(sys, LEVEL)
    h = red.hamiltonian
    Q, c = h.form
    broken = dataclasses.replace(
        red, hamiltonian=OrbitFunction(h.evaluate, form=(1.5 * Q, c)))
    record = R.check_commutation(sys, broken, samples=50, seed=4407)
    assert not record.passed
    assert record.max_residual >= 1e-2
    assert R.check_commutation(sys, red, samples=50, seed=4407).max_residual <= 1e-8


def test_an_affine_fiber_map_needs_its_tangent():
    apply = _constant_push_map((0.3, -0.1, 0.0)).apply
    with pytest.raises(ValueError, match="tangent"):
        D.FiberMap(apply, affine=True)
    assert not D.FiberMap(apply).affine
    assert _body_scaling_map(1.3, 0.9).affine and _constant_push_map((1, 0, 0)).affine


def test_orbit_function_form_is_validated_and_read_only():
    evaluate = lambda z: 0.0
    Q, c = np.diag([1.0, 2.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.0, -1.0])
    h = OrbitFunction(evaluate, form=(Q, c))
    assert h.gradient is None and h.form is not None
    z = np.array([1.0, -2.0, 3.0, 4.0])
    assert np.array_equal(h.grad(z), Q @ z + c)
    with pytest.raises(ValueError):
        h.form[0][0, 0] = 3.0
    skew = Q.copy()
    skew[0, 1] = 1e-17
    nan = c.copy()
    nan[1] = np.nan
    for bad in ((skew, c), (Q, nan), (Q[:3, :3], c), (Q, c[:3]), (Q, c[None])):
        with pytest.raises(ValueError):
            OrbitFunction(evaluate, form=bad)
    with pytest.raises(ValueError, match="gradient"):
        OrbitFunction(evaluate, lambda z: Q @ z + c, form=(Q, c))


def test_reduced_energies_in_one_pass_match_evaluate():
    rng = np.random.default_rng(81)
    for m in (0.7, 1.3):
        spec = D.invariant_kinetic_hamiltonian(m)
        for scale in (1e-3, 1.0, 1e3):
            rows = scale * rng.normal(size=(400, 8))
            fast = D._state_energies(spec, rows)
            slow = np.array([spec.evaluate(row) for row in rows])
            assert np.all(np.abs(fast - slow) <= 2 * np.spacing(slow))

