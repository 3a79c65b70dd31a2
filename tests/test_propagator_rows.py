"""Propagator steps written into their rows, and scanned per block.

A propagator step writes P @ y (+ d) into the next row of the states, and the
rows are tested for finiteness once per block of dynamics._SCAN_ROWS steps.
The states must be bitwise a per-step P @ y + d loop, an overflow must name
the step a per-step np.isfinite(y).all() test names, and the run must stop
at the end of that step's block. Every step, propagated or not, is one call
of dynamics._midpoint_step or _rk4_step looked up on the module, which is
how the benchmark's tracer counts steps; the closed-form route's fused
kernel enters through the same per-step argument.
"""

import numpy as np
import pytest

from heisenmech import dynamics as D
from heisenmech import magnetic as M
from heisenmech import reduction as R
from heisenmech.group import CoAlgebraElement

LEVEL = CoAlgebraElement((0.4, -0.7), 1.0)
FIELD = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
STEP_FUNCTIONS = {"midpoint": "_midpoint_step", "rk4": "_rk4_step"}


def count_steps(monkeypatch, method):
    """Wrap the module's step function of method as the tracer does; the
    list gets one entry per call, True where a fused step (a propagator or
    a closed-form kernel) was passed."""
    name = STEP_FUNCTIONS[method]
    step = getattr(D, name)
    calls = []

    def counting(rhs, *args, **kwargs):
        calls.append(kwargs.get("propagator") is not None)
        return step(rhs, *args, **kwargs)

    monkeypatch.setattr(D, name, counting)
    return calls


def reference_rows(P, d, y0, n_steps):
    """States of a per-step P @ y + d loop, and the first step whose state
    fails np.isfinite(y).all() (None if every state is finite)."""
    states = [y0]
    y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            y = P @ y if d is None else P @ y + d
            if not np.isfinite(y).all():
                return np.array(states), i
            states.append(y)
    return np.array(states), None


def full_case(q, c, k=0):
    """A pure quadratic system on the zero field, H = q/2 |y|^2 + c.y: a
    rotation of rate q, whose rk4 matrix grows the state at a coarse step."""
    spec = D.quadratic_hamiltonian(q * np.eye(6), c)
    sys = D.RCHSystem(M.MagneticField.zero(), spec, k=k)
    return sys, np.linspace(-1.0, 1.0, sys.dim), D._affine_generator(sys)


def full_run(sys, x0, t_end, h, method):
    traj = D.integrate(sys, x0, t_end, h, method)
    assert traj.route == "propagator"
    return traj.states


def reduced_case(m, k=0):
    """The reduced flow of a free invariant particle of mass m: a rotation
    of rate nu/m on the orbit chart, about an offset center."""
    red = R.reduce_system(
        D.RCHSystem(FIELD, D.invariant_kinetic_hamiltonian(m), k=k), LEVEL)
    sample = M.sample_level_point(LEVEL, FIELD, k, np.random.default_rng(5))
    z0 = M.reduce_point(sample, LEVEL, FIELD)
    generator = R._affine_pair(lambda z: R.reduced_rch_field(red, z), z0.size)
    return red, z0, generator


def reduced_run(red, z0, t_end, h, method):
    return R.integrate_reduced(red, z0, t_end, h, method)[1]


@pytest.mark.parametrize("method", ["midpoint", "rk4"])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("affine", [False, True])
def test_each_propagator_step_is_one_step_call_and_p_y_plus_d(affine, k,
                                                             method,
                                                             monkeypatch):
    h, n_steps = 1e-2, 2 * D._SCAN_ROWS + 5
    c = np.linspace(0.3, -0.4, 6) if affine else None
    sys, x0, generator = full_case(0.8, c, k)
    red, z0, reduced_generator = reduced_case(1.3, k)
    assert (D._propagator(*generator, h, method)[1] is None) == (not affine)
    for run, args, gen in ((full_run, (sys, x0), generator),
                           (reduced_run, (red, z0), reduced_generator)):
        P, d = D._propagator(*gen, h, method)
        expected, failed = reference_rows(P, d, args[1], n_steps)
        assert failed is None
        calls = count_steps(monkeypatch, method)
        states = run(*args, n_steps * h, h, method)
        monkeypatch.undo()
        assert calls == [True] * n_steps
        assert states.tobytes() == expected.tobytes()


@pytest.mark.parametrize("method", ["midpoint", "rk4"])
def test_a_float_route_run_is_one_step_call_per_step(method, monkeypatch):
    # The closed-form route passes its fused kernel to every step; the
    # field route passes nothing and iterates on rch_vector_field.
    kinetic = D.invariant_kinetic_hamiltonian(1.3)
    general = D.HamiltonianSpec(kinetic.evaluate, kinetic.gradient)
    x0 = np.linspace(-1.0, 1.0, 6)
    for spec, route, fused in ((kinetic, "closed_form", True),
                               (general, "field", False)):
        calls = count_steps(monkeypatch, method)
        traj = D.integrate(D.RCHSystem(FIELD, spec), x0, 0.5, 1e-2, method)
        monkeypatch.undo()
        assert traj.route == route
        assert calls == [fused] * 50


@pytest.mark.parametrize("q,block", [(10.0, 0), (3.0, 1)])
@pytest.mark.parametrize("affine", [False, True])
def test_an_overflowing_propagator_run_names_the_per_step_failure(q, block,
                                                                 affine,
                                                                 monkeypatch):
    h, n_steps = 1.0, 5000
    c = np.linspace(0.3, -0.4, 6) if affine else None
    sys, x0, generator = full_case(q, c)
    P, d = D._propagator(*generator, h, "rk4")
    _, failed = reference_rows(P, d, x0, n_steps)
    assert failed // D._SCAN_ROWS == block
    calls = count_steps(monkeypatch, "rk4")
    with pytest.raises(FloatingPointError) as exc:
        D.integrate(sys, x0, n_steps * h, h, "rk4")
    assert str(exc.value) == (
        f"integration produced a non-finite state at step {failed}")
    assert len(calls) == (block + 1) * D._SCAN_ROWS < n_steps


@pytest.mark.parametrize("m,block", [(0.1, 0), (1 / 3, 1)])
@pytest.mark.parametrize("k", [0, 1])
def test_an_overflowing_reduced_propagator_names_the_per_step_failure(
        m, block, k, monkeypatch):
    h, n_steps = 1.0, 5000
    red, z0, generator = reduced_case(m, k)
    P, d = D._propagator(*generator, h, "rk4")
    assert d is not None
    _, failed = reference_rows(P, d, z0, n_steps)
    assert failed // D._SCAN_ROWS == block
    calls = count_steps(monkeypatch, "rk4")
    with pytest.raises(FloatingPointError) as exc:
        R.integrate_reduced(red, z0, n_steps * h, h, "rk4")
    assert str(exc.value) == (
        f"integration produced a non-finite state at step {failed}")
    assert len(calls) == (block + 1) * D._SCAN_ROWS < n_steps


def test_an_overflow_in_the_last_partial_block_is_found():
    sys, x0, generator = full_case(10.0, None)
    P, d = D._propagator(*generator, 1.0, "rk4")
    _, failed = reference_rows(P, d, x0, 200)
    assert failed < 200 < D._SCAN_ROWS
    with pytest.raises(FloatingPointError, match=f"step {failed}$"):
        D.integrate(sys, x0, 200.0, 1.0, "rk4")


def test_an_overflowing_step_matrix_raises_the_failure_not_a_warning():
    # 1e80 * h overflows while the rk4 matrix is built; the suite turns a
    # RuntimeWarning into an error, so a warning escaping the build fails here.
    sys, x0, _ = full_case(1e80, None)
    with pytest.raises(FloatingPointError, match="at step 0$"):
        D.integrate(sys, x0, 1.0, 1.0, "rk4")
