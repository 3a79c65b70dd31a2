"""The float stepping loop against the ndarray steps it replaced, bit for bit.

`_midpoint_step` and `_rk4_step` step flat Python floats by the drivers
`_step_template` generates per state width. The reference below is the
ndarray arithmetic they replaced, with the midpoint start extrapolated from
the three previous states and the stop relative to the state's scale, as the
drivers have them: the closed-form route of `integrate` must give the same
bits, also from starts with exact signed zeros, and fail the same way. The
closed-form route steps its own float right-hand side; it is also held to an
earlier list right-hand side, kept here as a second reference. The
Kaluza-Klein geodesic kernel is held to its ndarray Hamiltonian.
"""

import traceback

import numpy as np
import pytest

from heisenmech import dynamics as D
from heisenmech import magnetic as M
from heisenmech import reduction as R
from heisenmech.errors import NonConvergence


def reference_midpoint_step(rhs, y, h, step_index, back=None, back2=None,
                            back3=None, tol=1e-12, cap=100):
    """One midpoint step from the extrapolated guess of the three states
    before y (latest first), or from the explicit Euler guess without them,
    stopped at an increment of tol * max(1, max|y|)."""
    if back3 is None:
        z = y + h * rhs(y)
    else:
        z = y + ((3.0 * (y - back) - 3.0 * (back - back2)) + (back2 - back3))
    tol = tol * max(1.0, np.max(np.abs(y)))
    for _ in range(cap):
        z_new = y + h * rhs(0.5 * (y + z))
        delta = np.max(np.abs(z_new - z))
        z = z_new
        if delta <= tol:
            # one polishing iteration after reaching tolerance
            return y + h * rhs(0.5 * (y + z))
    raise NonConvergence("implicit midpoint fixed point did not converge",
                         step_index=step_index, residual=float(delta))


def reference_rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_flow(rhs, y0, t_end, h, method):
    """States of the ndarray loop of _fixed_step_flow, without a propagator."""
    n_steps = max(1, int(round(t_end / h)))
    h = t_end / n_steps
    states = np.empty((n_steps + 1, y0.size))
    states[0] = y0
    y, back, back2, back3 = y0, None, None, None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            if method == "midpoint":
                y, back, back2, back3 = (
                    reference_midpoint_step(rhs, y, h, i, back, back2, back3),
                    y, back, back2)
            else:
                y = reference_rk4_step(rhs, y, h)
            if not np.isfinite(y).all():
                raise FloatingPointError(
                    f"integration produced a non-finite state at step {i}")
            states[i + 1] = y
    return states




def signed_zero_start(rng, size):
    """A random state with some entries exactly 0.0 and some -0.0."""
    x = rng.normal(size=size)
    x[1], x[4] = 0.0, -0.0
    if size > 6:
        x[6], x[-1] = -0.0, 0.0
    return x



def field_of_kind(kind, rng):
    if kind == "zero":
        return M.MagneticField.zero(0.8)
    if kind == "constant":
        b = rng.normal(size=(3, 3))
        return M.MagneticField.constant(b - b.T, -1.3)
    if kind == "linear":
        return M.MagneticField.linear_potential(rng.normal(size=(3, 3)), 0.8)
    return M.MagneticField.invariant_potential(rng.normal(size=3), -1.3)


def field_flow(sys, x0, method, t_end=0.2, h=1e-2):
    """The reference loop on rch_vector_field."""
    return reference_flow(lambda y: D.rch_vector_field(sys, y), x0, t_end, h,
                          method)


METHODS = ("midpoint", "rk4")




def reference_list_rhs(sys):
    """The closed-form route's right-hand side before the fused kernels: a
    map of flat float lists, run by the generic float steps."""
    m = sys.hamiltonian.mass
    cf = sys.field.charge_factor
    B = sys.field.b(np.zeros(3))
    circle = [0.0] * sys.k + [-0.0] * sys.k
    if sys.field.kind in ("zero", "invariant"):
        rows = B.tolist()

        def times_b(g):
            return [((0.0 + b0 * g[0]) + b1 * g[1]) + b2 * g[2]
                    for b0, b1, b2 in rows]
    else:
        def times_b(g):
            return (B @ np.array(g)).tolist()

    def rhs(y):
        q0, q1, p0, p1, p2 = y[0], y[1], y[3], y[4], y[5]
        rho0 = p0 - 0.5 * p2 * q1
        rho1 = p1 + 0.5 * p2 * q0
        g_p = [rho0 / m, rho1 / m, (-0.5 * q1 * rho0 + 0.5 * q0 * rho1 + p2) / m]
        b0, b1, b2 = times_b(g_p)
        return g_p + [-(0.5 * p2 * rho1 / m) + cf * b0,
                      -(-0.5 * p2 * rho0 / m) + cf * b1,
                      -0.0 + cf * b2] + circle

    rhs.on_floats = True
    return rhs


def list_flow(sys, x0, method, t_end=0.2, h=1e-2):
    """The float loop on the list right-hand side."""
    return D._fixed_step_flow(reference_list_rhs(sys), x0, t_end, h, method)[1]


def closed_form_flow(sys, x0, method, t_end=0.2, h=1e-2):
    traj = D.integrate(sys, x0, t_end, h, method)
    assert traj.route == "closed_form"
    return traj.states


def outcome(run):
    """The states of a run, as bytes, or the type, message, step index and
    residual of the exception it ends in."""
    try:
        return run().tobytes()
    except (NonConvergence, FloatingPointError) as exc:
        return (type(exc), str(exc), getattr(exc, "step_index", None),
                repr(getattr(exc, "residual", None)))


def assert_closed_form_is_both_references(sys, x0, method, t_end=0.2, h=1e-2):
    """The closed-form route ends as the ndarray loop on rch_vector_field and
    the float loop on the list right-hand side do; returns the outcome."""
    args = (sys, x0, method, t_end, h)
    got = outcome(lambda: closed_form_flow(*args))
    assert got == outcome(lambda: field_flow(*args))
    assert got == outcome(lambda: list_flow(*args))
    return got


FIELD_KINDS = ("zero", "constant", "linear", "invariant")


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("method", METHODS)
def test_closed_form_route_is_bitwise_the_ndarray_loop(kind, k, method):
    rng = np.random.default_rng(1010 + k)
    sys = D.RCHSystem(field_of_kind(kind, rng),
                      D.invariant_kinetic_hamiltonian(0.9), k=k)
    n = 6 + 2 * k
    starts = [signed_zero_start(rng, n), np.where(rng.random(n) < 0.5, -0.0, 0.0),
              np.zeros(n), -np.zeros(n)]
    starts += [scale * signed_zero_start(rng, n)
               for scale in (1e-6, 1e-3, 1e3, 1e6)]
    # q and the tail at 1e6, p at 1e-6: on a zero or invariant B, large
    # entries on a run that converges
    starts.append(np.repeat([1e6, 1e-6, 1e6], [3, 3, 2 * k])
                  * signed_zero_start(rng, n))
    outcomes = []
    for x0 in starts:
        # h = 0.03 does not divide t_end: the kernel gets the rescaled step
        for h in (1e-2, 0.03):
            outcomes.append(assert_closed_form_is_both_references(
                sys, x0, method, h=h))
    # most starts run to the end; the largest ones end in a failure, and the
    # mixed one too on a dense B, whose force grows with q
    assert sum(isinstance(o, bytes) for o in outcomes) >= 12


@pytest.mark.parametrize("block", ["q", "p", "theta", "lam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", METHODS)
def test_a_non_finite_start_fails_as_the_references_do(block, bad, method):
    k = 2
    rng = np.random.default_rng(1015)
    indices = {"q": range(3), "p": range(3, 6), "theta": range(6, 6 + k),
               "lam": range(6 + k, 6 + 2 * k)}[block]
    for kind in FIELD_KINDS:
        sys = D.RCHSystem(field_of_kind(kind, rng),
                          D.invariant_kinetic_hamiltonian(0.9), k=k)
        for i in indices:
            x0 = signed_zero_start(rng, 6 + 2 * k)
            x0[i] = bad
            got = assert_closed_form_is_both_references(sys, x0, method)
            # midpoint never converges on a non-finite entry; rk4 keeps it
            if method == "midpoint":
                assert got[:3] == (NonConvergence, "implicit midpoint fixed "
                                   "point did not converge", 0)
            else:
                assert got[:3] == (FloatingPointError, "integration produced "
                                   "a non-finite state at step 0", None)


# -- the Kaluza-Klein geodesic flow ------------------------------------------

# The Kaluza-Klein geodesic field has two writings: the float kernel the
# library steps, and the ndarray Hamiltonian below, stepped by
# rch_vector_field. Each holds the other.

KK_FIELDS = ("linear", "invariant", "general")
# The kernel sums in Python floats, the ndarray Hamiltonian through BLAS
# (which may fuse multiply-adds), so they agree to rounding. In units of
# eps * rounding_scale the largest gap measured 2.81 over the draws of
# test_geodesic_float_field_matches_rch_vector_field at seeds 1040-1059
# (linear 2.81, general 1.90, invariant 1.68); the bound keeps a margin of 5.
KK_AGREEMENT = 16.0


def kk_field(kind, rng):
    """A field of the kind with dense potential products; the general one is
    q-dependent: A = M q + s grad(q1 q2 q3), whose Jacobian is not constant."""
    if kind != "general":
        return field_of_kind(kind, rng)
    coeff, s = rng.normal(size=(3, 3)), rng.normal()

    def potential(q):
        return coeff @ q + s * np.array([q[1] * q[2], q[0] * q[2], q[0] * q[1]])

    def jacobian(q):
        return coeff + s * np.array([[0.0, q[2], q[1]], [q[2], 0.0, q[0]],
                                     [q[1], q[0], 0.0]])

    b = coeff.T - coeff
    return M.MagneticField(lambda q: b, potential, 0.8, jacobian)


def geodesic_hamiltonian(field, m):
    """The ndarray writing of the geodesic Hamiltonian upstairs,
    |p - lam*A(q)|^2/(2m) + lam^2/2 on (q, p, theta, lam), with its gradient
    through the declared potential Jacobian (its products go through BLAS)."""
    def evaluate(state):
        q, p, lam = state[:3], state[3:6], state[7]
        w = p - lam * field.vector_potential(q)
        return float(0.5 * (w @ w) / m + 0.5 * lam * lam)

    def gradient(state):
        q, p, lam = state[:3], state[3:6], state[7]
        A = field.vector_potential(q)
        DA = field.vector_potential_jacobian(q)
        w = (p - lam * A) / m
        out = np.zeros(8)
        out[:3] = -lam * (DA.T @ w)
        out[3:6] = w
        out[7] = -float(A @ w) + lam
        return out
    return D.HamiltonianSpec(evaluate, gradient)


def kk_cases(kind, seed):
    """(field, m, upstairs system, starts) for the kind: two fields, three
    masses, and starts at three scales, some with exact signed zeros."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        field = kk_field(kind, rng)
        for m in (1.0, 0.37, 2.5):
            upstairs = D.RCHSystem(M.MagneticField.zero(),
                                   geodesic_hamiltonian(field, m), k=1)
            starts = [np.where(rng.random(8) < 0.5, -0.0, 0.0)]
            for scale in (1e-3, 1.0, 1e3):
                starts += [scale * rng.normal(size=8) for _ in range(40)]
                starts += [scale * signed_zero_start(rng, 8) for _ in range(10)]
            yield field, m, upstairs, starts


def rounding_scale(field, m, y):
    """The kernel's sums taken over magnitudes: entry i of a rounding error
    is a small multiple of eps times entry i of this. (A = a + D q has the
    degree of q and w = (p - lam A)/m mixes degrees, so a bound relative to
    the field's largest entry would grow with the scale of the state.)"""
    q, p, lam = np.abs(y[:3]), np.abs(y[3:6]), abs(y[7])
    jac = np.abs(field.vector_potential_jacobian(y[:3]))
    if field.kind == "general":
        A = np.abs(field.vector_potential(y[:3]))
    else:
        A = np.abs(field.vector_potential(np.zeros(3))) + jac @ q
    w = (p + lam * A) / m
    return np.concatenate([w, lam * (jac.T @ w), [A @ w + lam, 0.0]])


def largest_relative_gap(make_kernel, kind, seed):
    """Largest |kernel - rch_vector_field| over the cases, entry by entry in
    units of eps * rounding_scale (a gap where the scale is 0 counts as inf,
    and so does a zero of the other sign)."""
    worst = 0.0
    for field, m, upstairs, starts in kk_cases(kind, seed):
        kernel = make_kernel(field, m)
        for y in starts:
            got = np.array(kernel(y.tolist()))
            expected = D.rch_vector_field(upstairs, y)
            gap = np.abs(got - expected)
            gap[(gap == 0.0) & (np.signbit(got) != np.signbit(expected))] = np.inf
            scale = np.finfo(float).eps * rounding_scale(field, m, y)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(gap == 0.0, 0.0, gap / scale)
            worst = max(worst, float(np.max(ratio)))
    return worst


@pytest.mark.parametrize("kind", KK_FIELDS)
def test_geodesic_float_field_matches_rch_vector_field(kind):
    assert largest_relative_gap(R._geodesic_float_field, kind, 1040) <= KK_AGREEMENT


@pytest.mark.parametrize("kind", KK_FIELDS)
def test_a_flipped_sign_in_the_potential_term_fails_the_agreement(kind):
    def flipped(field, m):
        kernel = R._geodesic_float_field(field, m)

        def rhs(y):
            # thetadot is -A.w + lam; the control steps +A.w + lam
            out = list(kernel(y))
            out[6] = 2.0 * y[7] - out[6]
            return out
        return rhs

    assert largest_relative_gap(flipped, kind, 1040) > KK_AGREEMENT


# -- failure semantics ------------------------------------------------------

def test_a_nan_increment_behind_a_finite_one_does_not_converge():
    # Python's max passes over a nan that is not the first entry; the step
    # must still treat the increment as nan, as numpy's max does.
    def rhs(y):
        return [0.0, 0.0, float("nan")] if y[0] > 0.5 else [1.0, 0.0, 0.0]

    with pytest.raises(NonConvergence) as exc:
        D._midpoint_step(rhs, [1.0, 0.0, 0.0], 0.1, 7)
    assert exc.value.step_index == 7 and np.isnan(exc.value.residual)
    with pytest.raises(NonConvergence) as ref:
        reference_midpoint_step(lambda y: np.array(rhs(y.tolist())),
                                np.array([1.0, 0.0, 0.0]), 0.1, 7)
    assert ref.value.step_index == 7 and np.isnan(ref.value.residual)


def test_two_infinite_increments_report_an_infinite_residual():
    # The field alternates the iterate between a finite state and one with
    # two infinite entries, so every iteration has two +inf increments and
    # no nan: their sum must read inf, as numpy's max does, where a
    # difference of the two would read nan.
    def rhs(y):
        finite = all(map(np.isfinite, y))
        return [np.inf, np.inf, 0.0, 0.0, 0.0, 0.0] if finite else [0.0] * 6

    y = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(NonConvergence) as exc:
        D._midpoint_step(rhs, y, 0.1, 7)
    assert exc.value.step_index == 7 and exc.value.residual == np.inf
    with pytest.raises(NonConvergence) as ref:
        reference_midpoint_step(lambda y: np.array(rhs(y.tolist())),
                                np.array(y), 0.1, 7)
    assert ref.value.step_index == 7 and ref.value.residual == np.inf


def nan_past_the_wall():
    """A field-route system whose d/dq3 of H is nan once q1 passes 1."""

    def gradient(state):
        out = np.zeros_like(state)
        out[3:6] = state[3:6]
        out[2] = np.sqrt(1.0 - state[0])
        return out

    return D.RCHSystem(M.MagneticField.zero(),
                       D.HamiltonianSpec(lambda s: 0.0, gradient))


def failure(run):
    with pytest.raises((NonConvergence, FloatingPointError)) as exc:
        run()
    return exc.value


@pytest.mark.parametrize("route", ["field", "closed_form"])
def test_a_nan_fixed_point_increment_ends_in_nonconvergence(route):
    if route == "field":
        sys, t_end, h = nan_past_the_wall(), 2.0, 0.1
        x0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    else:
        sys = D.RCHSystem(M.MagneticField.invariant_potential((0.0, 0.0, 50.0)),
                          D.invariant_kinetic_hamiltonian(1.0))
        t_end, h = 20.0, 0.5
        x0 = np.array([0.0, 0.0, 0.0, 100.0, 0.0, 100.0])
    assert D.integrate(sys, x0, h, h / 100).route == route
    error = failure(lambda: D.integrate(sys, x0, t_end, h, "midpoint"))
    expected = failure(lambda: field_flow(sys, x0, "midpoint", t_end, h))
    assert isinstance(error, NonConvergence) and isinstance(expected, NonConvergence)
    assert error.step_index == expected.step_index
    assert np.isnan(error.residual) and np.isnan(expected.residual)
    if route == "field":
        assert error.step_index > 0


@pytest.mark.parametrize("route", ["field", "closed_form"])
def test_an_overflowing_state_raises_naming_its_step(route):
    kinetic = D.invariant_kinetic_hamiltonian(1.0)
    if route == "field":
        kinetic = D.HamiltonianSpec(kinetic.evaluate, kinetic.gradient)
    sys = D.RCHSystem(M.MagneticField.invariant_potential((0.0, 0.0, 50.0)),
                      kinetic)
    x0 = np.array([0.0, 0.0, 0.0, 100.0, 0.0, 100.0])
    assert D.integrate(sys, x0, 1e-3, 1e-3, "rk4").route == route
    error = failure(lambda: D.integrate(sys, x0, 20.0, 0.5, "rk4"))
    expected = failure(lambda: field_flow(sys, x0, "rk4", 20.0, 0.5))
    assert isinstance(error, FloatingPointError)
    assert str(error) == str(expected)
    assert "step 25" in str(error)


# -- the generated step drivers ---------------------------------------------

WIDTHS = (2, 3, 4, 6, 8, 10)


@pytest.mark.parametrize("method", METHODS)
def test_a_driver_is_generated_once_per_width_and_method(method):
    for n in WIDTHS:
        driver = D._step_driver(n, method)
        assert D._step_driver(n, method) is driver
        assert driver.source.startswith(f"def {method}(rhs, y, h")
        assert f"y{n - 1}, = y" in driver.source


@pytest.mark.parametrize("method", METHODS)
def test_an_error_in_rhs_is_traced_to_the_template(method):
    def rhs(y):
        raise ZeroDivisionError("inside rhs")

    step = D._midpoint_step if method == "midpoint" else D._rk4_step
    args = (0.1, 0) if method == "midpoint" else (0.1,)
    with pytest.raises(ZeroDivisionError) as exc:
        step(rhs, [1.0, 2.0, 3.0], *args)
    frames = traceback.extract_tb(exc.value.__traceback__)
    driver = [f for f in frames if "_step_template" in f.filename]
    assert len(driver) == 1
    assert driver[0].filename == D._step_driver(3, method).__code__.co_filename
    first_call = {"midpoint": "r0, r1, r2, = rhs(y)",
                  "rk4": "a0, a1, a2, = rhs(y)"}
    assert driver[0].line == first_call[method]
