"""The float stepping loop against the ndarray steps it replaced, bit for bit.

`_midpoint_step` and `_rk4_step` step flat Python floats by the drivers
`_step_template` generates per state width. The reference below is the
ndarray arithmetic they replaced, with the midpoint start extrapolated from
the three previous states and the stop relative to the state's scale, as the
drivers have them: every route of `integrate`, both reduced flows and each
driver width must give the same bits, also from starts with exact signed
zeros, and fail the same way. The closed-form route steps its own float
right-hand side; it is also held to an earlier list right-hand side, kept
here as a second reference.
"""

import dataclasses
import traceback

import numpy as np
import pytest

from heisenmech import dynamics as D
from heisenmech import magnetic as M
from heisenmech import reduction as R
from heisenmech.errors import NonConvergence, NonSymplecticWarning
from heisenmech.group import CoAlgebraElement
from heisenmech.orbit import OrbitFunction

PLANAR = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
LEVEL = CoAlgebraElement((0.4, -0.7), 1.0)


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


def nonconstant_closed_field(charge=1.0):
    def b(q):
        out = np.zeros((3, 3))
        out[0, 1], out[1, 0] = q[0] ** 2, -q[0] ** 2
        return out

    def da(q):
        return np.array([[0.0, 0.0, 0.0], [q[0] ** 2, 0.0, 0.0], [0.0, 0.0, 0.0]])

    return M.MagneticField(b, lambda q: np.array([0.0, q[0] ** 3 / 3.0, 0.0]),
                           charge, da)


def damping(s):
    out = np.array(s, dtype=float)
    out[3:6] = -0.3 * out[3:6]
    return out


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


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("method", METHODS)
def test_field_route_is_bitwise_the_ndarray_loop(k, method):
    rng = np.random.default_rng(1000 + k)
    sys = D.RCHSystem(M.MagneticField.constant(PLANAR, 0.7),
                      D.invariant_kinetic_hamiltonian(1.2),
                      force=D.FiberMap(apply=damping), k=k)
    x0 = signed_zero_start(rng, 6 + 2 * k)
    traj = D.integrate(sys, x0, 0.2, 1e-2, method)
    assert traj.route == "field"
    assert traj.states.tobytes() == field_flow(sys, x0, method).tobytes()


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


@pytest.mark.parametrize("k", [0, 1])
def test_shifted_route_is_bitwise_the_ndarray_loop(k):
    rng = np.random.default_rng(1020 + k)
    sys = D.RCHSystem(nonconstant_closed_field(0.9),
                      D.invariant_kinetic_hamiltonian(1.1), k=k)
    x0 = signed_zero_start(rng, 6 + 2 * k)
    traj = D.integrate(sys, x0, 0.2, 1e-2, "midpoint")
    assert traj.route == "shifted"
    shifted = dataclasses.replace(sys, field=M.MagneticField.zero(),
                                  hamiltonian=D.modified_hamiltonian(sys))
    states = reference_flow(lambda y: D.hamiltonian_vector_field(shifted, y),
                            M.momentum_shift(x0, sys.field), 0.2, 1e-2,
                            "midpoint")
    inverse = dataclasses.replace(sys.field, charge_factor=-0.9)
    expected = np.array([M.momentum_shift(row, inverse) for row in states])
    assert traj.states.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [0, 1])
def test_rk4_fallback_route_is_bitwise_the_ndarray_loop(k):
    rng = np.random.default_rng(1030 + k)
    b = nonconstant_closed_field().b_matrix
    sys = D.RCHSystem(M.MagneticField(b), D.invariant_kinetic_hamiltonian(1.0),
                      k=k)
    x0 = signed_zero_start(rng, 6 + 2 * k)
    with pytest.warns(NonSymplecticWarning):
        traj = D.integrate(sys, x0, 0.2, 1e-2, "midpoint")
    assert (traj.route, traj.method) == ("rk4_fallback", "rk4")
    assert traj.states.tobytes() == field_flow(sys, x0, "rk4").tobytes()


def body_scaling(factor):
    """Equivariant fiber map scaling the planar body momentum."""

    def apply(s):
        s = np.asarray(s, dtype=float)
        q = s[:3]
        mu1, mu2, nu = M.chart_to_body_array(q, s[3:6])
        out = s.copy()
        out[3:6] = [factor * mu1 + 0.5 * nu * q[1],
                    factor * mu2 - 0.5 * nu * q[0], nu]
        return out

    return D.FiberMap(apply=apply)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("method", METHODS)
def test_reduced_flow_is_bitwise_the_ndarray_loop(forced, k, method):
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    sys = D.RCHSystem(field, D.invariant_kinetic_hamiltonian(1.0), k=k,
                      force=body_scaling(0.7) if forced else None)
    red = R.reduce_system(sys, LEVEL)
    if not forced:
        # An undeclared copy of the reduced Hamiltonian keeps the iteration.
        h = red.hamiltonian
        red = dataclasses.replace(red, hamiltonian=OrbitFunction(h.evaluate, h.grad))
    z0 = np.concatenate([[-0.0, 0.6], np.zeros(k), -np.zeros(k)])
    times, charts, _ = R.integrate_reduced(red, z0, 0.2, 1e-2, method)
    expected = reference_flow(lambda c: R.reduced_rch_field(red, c),
                              z0, 0.2, 1e-2, method)
    assert charts.tobytes() == expected.tobytes()
    assert times.tobytes() == (np.arange(21) * 0.01).tobytes()


# -- the Kaluza-Klein geodesic flow ------------------------------------------

KK_FIELDS = ("linear", "invariant", "general")
BUNDLED_KK_FIELD = M.MagneticField.linear_potential(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
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


def float_order_field(field, m, flip=False):
    """The geodesic right-hand side in the operation order
    _geodesic_float_field's docstring states, written out per call; flip
    negates the A.w term of thetadot."""
    def rhs(y):
        q, p, lam = list(y[:3]), list(y[3:6]), y[7]
        if field.kind == "general":
            A = field.vector_potential(np.array(q)).tolist()
            D = field.vector_potential_jacobian(np.array(q)).tolist()
        else:
            a = field.vector_potential(np.zeros(3)).tolist()
            D = field.vector_potential_jacobian(np.zeros(3)).tolist()
            A = [a[i] + ((D[i][0] * q[0] + D[i][1] * q[1]) + D[i][2] * q[2])
                 for i in range(3)]
        w = [(p[i] - lam * A[i]) / m for i in range(3)]
        dtw = [(D[0][j] * w[0] + D[1][j] * w[1]) + D[2][j] * w[2]
               for j in range(3)]
        aw = (A[0] * w[0] + A[1] * w[1]) + A[2] * w[2]
        return w + [lam * v + 0.0 for v in dtw] + [(aw if flip else -aw) + lam,
                                                   -0.0]
    return rhs


def kk_cases(kind, seed):
    """(field, m, upstairs system, starts) for the kind: two fields, three
    masses, and starts at three scales, some with exact signed zeros."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        field = kk_field(kind, rng)
        for m in (1.0, 0.37, 2.5):
            kk = R.kaluza_klein_system(field, m, 0.8)
            upstairs = D.RCHSystem(M.MagneticField.zero(), kk.hamiltonian, k=1)
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
    units of eps * rounding_scale (a gap where the scale is 0 counts as inf)."""
    worst = 0.0
    for field, m, upstairs, starts in kk_cases(kind, seed):
        kernel = make_kernel(field, m)
        for y in starts:
            gap = np.abs(np.array(kernel(y.tolist()))
                         - D.rch_vector_field(upstairs, y))
            scale = np.finfo(float).eps * rounding_scale(field, m, y)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(gap == 0.0, 0.0, gap / scale)
            worst = max(worst, float(np.max(ratio)))
    return worst


@pytest.mark.parametrize("kind", KK_FIELDS)
def test_geodesic_float_field_is_the_float_order_copy_bitwise(kind):
    for field, m, _, starts in kk_cases(kind, 1030):
        kernel = R._geodesic_float_field(field, m)
        assert kernel.on_floats
        copy = float_order_field(field, m)
        for y in starts:
            assert (np.array(kernel(y.tolist())).tobytes()
                    == np.array(copy(y.tolist())).tobytes())
            assert (np.array(kernel(tuple(y.tolist()))).tobytes()
                    == np.array(copy(y.tolist())).tobytes())


@pytest.mark.parametrize("kind", KK_FIELDS)
def test_geodesic_float_field_matches_rch_vector_field(kind):
    assert largest_relative_gap(R._geodesic_float_field, kind, 1040) <= KK_AGREEMENT


@pytest.mark.parametrize("kind", KK_FIELDS)
def test_a_flipped_sign_in_the_potential_term_fails_the_agreement(kind):
    def flipped(field, m):
        return float_order_field(field, m, flip=True)

    assert largest_relative_gap(flipped, kind, 1040) > KK_AGREEMENT


def integrate_route_kk(kk, x0, t_end, h, method):
    """kk_reduce_and_compare as it was: the upstairs flow through integrate
    on rch_vector_field, pushed down row by row by the public
    momentum_shift. Returns the upstairs states and the records."""
    mu = kk.mu
    charged = dataclasses.replace(kk.field, charge_factor=mu)
    lift0 = np.concatenate([M.momentum_shift(x0, charged), [0.0, mu]])
    upstairs = D.RCHSystem(M.MagneticField.zero(), kk.hamiltonian, k=1)
    traj_up = D.integrate(upstairs, lift0, t_end, h, method)
    downstairs = D.RCHSystem(charged, D.euclidean_kinetic_hamiltonian(kk.m))
    traj_down = D.integrate(downstairs, x0, t_end, h, method)
    inverse_shift = dataclasses.replace(kk.field, charge_factor=-mu)
    projected = np.array([M.momentum_shift(row[:6], inverse_shift)
                          for row in traj_up.states])
    n = traj_up.states.shape[0]
    return traj_up.states, [
        R.CheckRecord("kk.trajectory_match", n,
                      float(np.max(np.abs(projected - traj_down.states))), 1e-6),
        R.CheckRecord("kk.lambda_drift", n,
                      float(np.max(np.abs(traj_up.states[:, 7] - mu))), 1e-8)]


def one_term_kk_field(kind, rng):
    """A field of the kind whose potential has a single nonzero component
    A_i, for a linear or invariant field a single term (for the bundled
    field A = (0, q1, 0)); the q-dependent one is the general field
    A_i = c q_j + s q_k q_l. Every sum inside the kernel and inside the
    ndarray Hamiltonian then has at most one nonzero term, so summation
    order and fused multiply-adds cannot change a bit."""
    if kind == "linear":
        return BUNDLED_KK_FIELD
    i, j = rng.permutation(3)[:2]
    c, s = rng.normal(size=2)
    if kind == "invariant":
        # (a1, a2, 0): the left-invariant potential with a3 = 0 is constant.
        a = np.zeros(3)
        a[min(i, 1)] = c
        return M.MagneticField.invariant_potential(a, -1.3)
    k, l = (j + 1) % 3, (j + 2) % 3

    def potential(q):
        out = np.zeros(3)
        out[i] = c * q[j] + s * q[k] * q[l]
        return out

    def jacobian(q):
        out = np.zeros((3, 3))
        out[i, j], out[i, k], out[i, l] = c, s * q[l], s * q[k]
        return out

    return M.MagneticField(lambda q: jacobian(q).T - jacobian(q), potential,
                           0.8, jacobian)


@pytest.mark.parametrize("kind", ["invariant", "linear", "q-dependent"])
# kk_reduce_and_compare steps by rk4 alone; the parameter keeps the test's ids.
@pytest.mark.parametrize("method", ["rk4"])
def test_kk_compare_is_the_integrate_route_bitwise(kind, method, monkeypatch):
    # The kernel's bits follow its stated float order, the integrate route's
    # the BLAS build, so the two agree bitwise only where no sum rounds: on
    # the one-term fields above, the bundled one among them, which both
    # certify runs of the Kaluza-Klein check use.
    rng = np.random.default_rng(1050)
    field = one_term_kk_field(kind, rng)
    flow = D._fixed_step_flow
    for m, mu in ((1.0, 1.0), (1.4, -0.6), (0.8, 0.0)):
        kk = R.kaluza_klein_system(field, m, mu)
        for x0 in (rng.normal(size=6), signed_zero_start(rng, 6)):
            runs = []

            def recorded(rhs, *args, **kwargs):
                result = flow(rhs, *args, **kwargs)
                runs.append((rhs, result[1]))
                return result

            monkeypatch.setattr(D, "_fixed_step_flow", recorded)
            records = R.kk_reduce_and_compare(kk, x0, 0.2, 1e-2)
            monkeypatch.undo()
            states, expected = integrate_route_kk(kk, x0, 0.2, 1e-2, method)
            assert runs[0][0].__qualname__.startswith("_geodesic_float_field.")
            assert runs[0][1].tobytes() == states.tobytes()
            assert ([r.as_dict() for r in records]
                    == [r.as_dict() for r in expected])


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


def coupled_float_field(n):
    """A quadratic float field of width n that couples every entry."""

    def rhs(y):
        return [y[(i + 1) % n] - 0.3 * y[i] * y[i - 1] + 0.1 * i
                for i in range(n)]

    return rhs


def nan_behind_a_finite_increment(n):
    """A float field whose last rate turns nan once y0 passes 0.5."""

    def rhs(y):
        if y[0] > 0.5:
            return [0.0] * (n - 1) + [float("nan")]
        return [1.0] + [0.0] * (n - 1)

    return rhs


def driver_outcome(step, rhs, y, *args):
    with np.errstate(over="ignore", invalid="ignore"):
        return outcome(lambda: np.array(step(rhs, y, *args)))


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("method", METHODS)
def test_the_driver_of_each_width_is_bitwise_the_ndarray_step(n, method):
    rng = np.random.default_rng(1060 + n)
    fields = [coupled_float_field(n), nan_behind_a_finite_increment(n)]
    starts = [scale * rng.normal(size=n) for scale in (1e-3, 1.0, 1e2)
              for _ in range(5)]
    for y in starts[::2]:
        y[rng.random(n) < 0.3] = 0.0
        y[rng.random(n) < 0.3] = -0.0
    for rhs in fields:
        def array_rhs(y, rhs=rhs):
            return np.array(rhs(y.tolist()))

        for y in starts + [np.eye(n)[0]]:
            if method == "midpoint":
                got = driver_outcome(D._midpoint_step, rhs, y.tolist(), 0.1, 7)
                expected = driver_outcome(reference_midpoint_step, array_rhs,
                                          y, 0.1, 7)
                assert got == expected
                # the extrapolated start, from three earlier states near y
                backs = y - 0.1 * np.cumsum(rng.normal(size=(3, n)), axis=0)
                got = driver_outcome(D._midpoint_step, rhs, y.tolist(), 0.1, 7,
                                     *backs.tolist())
                expected = driver_outcome(reference_midpoint_step, array_rhs,
                                          y, 0.1, 7, *backs)
            else:
                got = driver_outcome(D._rk4_step, rhs, y.tolist(), 0.1)
                expected = driver_outcome(reference_rk4_step, array_rhs, y, 0.1)
            assert got == expected
    # from the unit start the nan field's midpoint step cannot converge
    if method == "midpoint":
        got = driver_outcome(D._midpoint_step, fields[1], np.eye(n)[0].tolist(),
                             0.1, 7)
        assert got[:3] == (NonConvergence, "implicit midpoint fixed point did "
                           "not converge", 7) and got[3] == "nan"


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
