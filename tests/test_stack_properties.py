"""Property tests: every stack-generic kernel, row by row, bit for bit.

The group, connection and bracket kernels take a single (3,) triple or a
stack (..., 3). A stacked call must give, in each row, exactly the bits of
the single call on that row: for a stack of one row, of several rows and of
a 2-D leading shape, with entries drawn at magnitudes 1e-6 to 1e6, and with
the last argument a stack or one triple broadcast against the stack.

The chart kernels take a single (6 + 2k,) state or a stack (..., 6 + 2k),
with the same row-by-row contract, for every field and Hamiltonian kind:
the declaring types map a user's callables of one point over the rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmech import connection as C
from heisenmech import dynamics as D
from heisenmech import fd
from heisenmech import group as G
from heisenmech import magnetic as M
from heisenmech import orbit as O

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2 ** 32 - 1)
exponents = st.floats(-6.0, 6.0)
shapes = st.sampled_from([(1,), (5,), (2, 3)])
broadcasts = st.booleans()


def bits(x):
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


def draw(seed, exponent, shape, count, broadcast=False):
    """count stacks of triples; with broadcast, the last one is one triple."""
    rng = np.random.default_rng(seed)
    out = [10.0 ** exponent * rng.normal(size=shape + (3,)) for _ in range(count)]
    if broadcast:
        out[-1] = out[-1][(0,) * len(shape)]
    return out


def row(x, index):
    """Row index of a stack of triples; a single triple is its own row."""
    return x[index] if x.ndim > 1 else x


def assert_rowwise(kernel, args, shape):
    stacked = kernel(*args)
    for index in np.ndindex(*shape):
        one = kernel(*(row(a, index) for a in args))
        assert bits(np.asarray(stacked)[index]) == bits(one), (kernel, index)


GROUP_KERNELS = {
    G.area_form: 2, G.multiply: 2, G.inverse: 1, G.to_matrix: 1,
    G.conjugate: 2, G.adjoint: 2, G.bracket: 2, G.coadjoint: 2,
    G.coad_star: 2, G.exp: 1, G.pairing: 2,
    G.tangent_right_translation: 3,
    C.right_invariant_metric: 3, C.mechanical_connection: 2, C.curvature: 3,
    C.right_trivialize: 2,
}


@PROPERTY
@given(seed=seeds, exponent=exponents, shape=shapes, broadcast=broadcasts)
def test_group_and_connection_kernels_are_rowwise_bitwise(seed, exponent, shape,
                                                          broadcast):
    for kernel, arity in GROUP_KERNELS.items():
        args = draw(seed, exponent, shape, arity, broadcast and arity > 1)
        assert_rowwise(kernel, args, shape)


@PROPERTY
@given(seed=seeds, exponent=exponents, shape=shapes)
def test_scalar_factor_kernels_are_rowwise_bitwise(seed, exponent, shape):
    g, v = draw(seed, exponent, shape, 2)
    a, b = np.random.default_rng(seed + 1).normal(size=(2,) + shape)
    stacked = C.center_momentum_map(g, v, b)
    for index in np.ndindex(*shape):
        one = C.center_momentum_map(g[index], v[index], float(b[index]))
        assert bits(stacked[index]) == bits(one)
        assert bits(C.locked_inertia(g, a, b)[index]) == bits(
            C.locked_inertia(g[index], float(a[index]), float(b[index])))


def cubic():
    """p0*p1*p2 + p0^2/2, elementwise, with a hessian that varies with p."""

    def evaluate(p):
        return p[..., 0] * p[..., 1] * p[..., 2] + 0.5 * p[..., 0] ** 2

    def gradient(p):
        p0, p1, p2 = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([p1 * p2 + p0, p0 * p2, p0 * p1], axis=-1)

    def hessian(p):
        p0, p1, p2 = p[..., 0], p[..., 1], p[..., 2]
        one, zero = np.ones_like(p0), np.zeros_like(p0)
        return np.stack([np.stack([one, p2, p1], axis=-1),
                         np.stack([p2, zero, p0], axis=-1),
                         np.stack([p1, p0, zero], axis=-1)], axis=-2)

    return O.DualFunction(evaluate, gradient, hessian)


def functions(seed, exponent):
    d = draw(seed + 2, exponent, (), 1)[0]
    return [O.coordinate_function(0), O.coordinate_function(2),
            O.linear_function(d), cubic()]


def cocycles(seed, shape):
    """A stack of general antisymmetric forms and its rows as cocycles."""
    b = np.random.default_rng(seed + 3).normal(size=shape + (3, 3))
    stack = O.MagneticCocycle(b - np.swapaxes(b, -1, -2))
    return stack, {i: O.MagneticCocycle(stack.form[i]) for i in np.ndindex(*shape)}


@PROPERTY
@given(seed=seeds, exponent=st.floats(-3.0, 3.0), shape=shapes)
def test_bracket_layer_is_rowwise_bitwise(seed, exponent, shape):
    (p,) = draw(seed, exponent, shape, 1)
    B, rows = cocycles(seed, shape)
    fs = functions(seed, exponent)
    for f in fs:
        assert_rowwise(f.evaluate, [p], shape)
        assert_rowwise(lambda q: np.broadcast_to(f.grad(q), np.shape(q)), [p], shape)
    for f, g in zip(fs, fs[1:] + fs[:1]):
        value = O.magnetic_lie_poisson(f, g, p, B)
        nested = O.bracket_function(f, g, B)
        product = O.product_function(f, g)
        jacobi = O.check_jacobi((f, g, fs[3]), p, B)
        for index in np.ndindex(*shape):
            Bi = rows[index]
            assert bits(value[index]) == bits(
                O.magnetic_lie_poisson(f, g, p[index], Bi))
            single = O.bracket_function(f, g, Bi)
            assert bits(nested.evaluate(p)[index]) == bits(single.evaluate(p[index]))
            assert bits(nested.grad(p)[index]) == bits(single.grad(p[index]))
            assert bits(product.evaluate(p)[index]) == bits(
                product.evaluate(p[index]))
            assert bits(np.broadcast_to(product.grad(p), p.shape)[index]) == bits(
                product.grad(p[index]))
            assert bits(jacobi[index]) == bits(O.check_jacobi(
                (f, g, fs[3]), p[index], Bi))


@PROPERTY
@given(seed=seeds, exponent=st.floats(-3.0, 3.0), shape=shapes)
def test_finite_difference_fallbacks_are_rowwise_bitwise(seed, exponent, shape):
    # The central differences behind OrbitFunction's and FiberMap's
    # fallbacks, on the stack-generic cubic.
    (p,) = draw(seed, exponent, shape, 1)
    assert_rowwise(lambda q: fd.gradient(cubic().evaluate, q), [p], shape)
    assert_rowwise(lambda q: fd.jacobian(cubic().gradient, q), [p], shape)


@PROPERTY
@given(seed=seeds, exponent=exponents, shape=shapes)
def test_orbit_form_and_cocycle_are_rowwise_bitwise(seed, exponent, shape):
    xi, eta = draw(seed, exponent, shape, 2)
    nu = np.random.default_rng(seed + 4).uniform(0.3, 2.5, shape)
    B, rows = cocycles(seed, shape)
    planar = O.MagneticCocycle.planar(nu)
    form = O.orbit_symplectic_form(nu, xi, eta, B)
    # The orbit chart takes planar cocycles only: B's (1,2) entries.
    matrix = O.orbit_form_matrix(nu, O.MagneticCocycle.planar(B.planar_component))
    for index in np.ndindex(*shape):
        Bi, nui = rows[index], float(nu[index])
        assert bits(form[index]) == bits(
            O.orbit_symplectic_form(nui, xi[index], eta[index], Bi))
        assert bits(matrix[index]) == bits(O.orbit_form_matrix(
            nui, O.MagneticCocycle.planar(Bi.planar_component)))
        assert bits(B.pair(xi, eta)[index]) == bits(Bi.pair(xi[index], eta[index]))
        assert bits(B.planar_component[index]) == bits(Bi.planar_component)
        assert np.array_equal(planar.form[index], O.MagneticCocycle.planar(nui).form)


def test_single_inputs_return_python_floats():
    g, h, v = draw(5, 0.0, (), 3)
    B = O.MagneticCocycle.planar(0.4)
    f, k = O.coordinate_function(1), O.linear_function(v)
    values = [G.area_form(g, h), G.pairing(g, h),
              C.right_invariant_metric(g, h, v), C.mechanical_connection(g, h),
              C.curvature(g, h, v), C.center_momentum_map(g, h, 0.3),
              C.locked_inertia(g, 0.2, 0.3), B.pair(g, h), B.planar_component,
              O.magnetic_lie_poisson(f, k, g, B), O.orbit_symplectic_form(0.7, g, h, B),
              f.evaluate(g), k.evaluate(g), O.check_jacobi((f, k, f), g, B)]
    assert [type(x) for x in values] == [float] * len(values)


B_STACK = np.random.default_rng(6).normal(size=(4, 3, 3))


@pytest.mark.parametrize("bad", [B_STACK, np.zeros((4, 3, 2)),
                                 np.full((2, 3, 3), np.nan)])
def test_stacked_cocycles_are_validated(bad):
    O.MagneticCocycle(B_STACK - np.swapaxes(B_STACK, -1, -2))
    with pytest.raises(ValueError, match="antisymmetric"):
        O.MagneticCocycle(bad)


# -- chart layer --------------------------------------------------------------

def chart_fields(seed):
    """A field of each declared kind, with charge factors other than 1."""
    rng = np.random.default_rng(seed + 5)
    b = rng.normal(size=(3, 3))
    return [M.MagneticField.zero(0.7),
            M.MagneticField.constant(b - b.T, -1.3),
            M.MagneticField.linear_potential(rng.normal(size=(3, 3)), 0.9),
            M.MagneticField.invariant_potential(rng.normal(size=3), 1.7)]


def general_field():
    """A general field, B = q1^2 dq1 ^ dq2 with A = (0, q1^3/3, 0): the
    user's callables index one point, so they are wrong on a stack unless
    the field maps them over its rows."""
    def b(q):
        out = np.zeros((3, 3))
        out[0, 1], out[1, 0] = q[0] ** 2, -q[0] ** 2
        return out

    def da(q):
        out = np.zeros((3, 3))
        out[1, 0] = q[0] ** 2
        return out

    return M.MagneticField(b, lambda q: np.array([0.0, q[0] ** 3 / 3.0, 0.0]),
                           1.1, da)


def hamiltonians(seed):
    """A Hamiltonian of each declared kind."""
    rng = np.random.default_rng(seed + 6)
    Q = rng.normal(size=(6, 6))
    return [D.euclidean_kinetic_hamiltonian(1.3),
            D.invariant_kinetic_hamiltonian(0.7),
            D.quadratic_hamiltonian(Q + Q.T, rng.normal(size=6))]


def general_hamiltonian():
    """A general Hamiltonian 1/2 |y|^2 + sin(q1) whose callables index one
    state."""
    def gradient(s):
        out = np.array(s, dtype=float)
        out[0] += np.cos(s[0])
        return out

    return D.HamiltonianSpec(lambda s: 0.5 * float(s @ s) + float(np.sin(s[0])),
                             gradient)


def squash(s):
    """A fiber map of one state, not affine: p -> tanh(p) + q1 p2."""
    out = np.array(s, dtype=float)
    out[3:6] = np.tanh(s[3:6]) + s[0] * s[4]
    return out


def chart_stack(seed, exponent, rows, k):
    return 10.0 ** exponent * np.random.default_rng(seed).normal(size=(rows, 6 + 2 * k))


@PROPERTY
@given(seed=seeds, exponent=exponents, rows=st.sampled_from([1, 5]),
       k=st.sampled_from([0, 1, 2]))
def test_chart_kernels_are_rowwise_bitwise(seed, exponent, rows, k):
    # Every field and Hamiltonian kind, the general ones included, a fiber
    # map not declared affine and an orbit function without a form: the
    # declaring types map a user's callables of one point over the rows.
    states = chart_stack(seed, exponent, rows, k)
    v = chart_stack(seed + 1, 0.0, rows, k)
    fm = D.FiberMap(apply=squash)
    for field in chart_fields(seed) + [general_field()]:
        W = M.omega_matrix(states, field)
        if field.has_potential:
            shifted = M.momentum_shift(states, field)
            potential = field.vector_potential(states[:, :3])
        for i in range(rows):
            assert bits(W[i]) == bits(M.omega_matrix(states[i], field))
            if field.has_potential:
                assert bits(shifted[i]) == bits(M.momentum_shift(states[i], field))
                assert bits(potential[i]) == bits(field.vector_potential(states[i, :3]))
        specs = hamiltonians(seed) + [general_hamiltonian()]
        if field.has_potential:
            specs.append(D.modified_hamiltonian(
                D.RCHSystem(field, specs[1], k=k)))
        for H in specs:
            sys = D.RCHSystem(field, H, force=fm, k=k)
            X = D.hamiltonian_vector_field(sys, states)
            full = D.rch_vector_field(sys, states)
            grad, value = H.grad(states), D._state_energies(H, states)
            # the defining-equation residual of check_dynamics, both ways
            XWv, gv = G._dot(G._vecmat(X, W), v), G._dot(grad, v)
            for i in range(rows):
                one = D.hamiltonian_vector_field(sys, states[i])
                assert bits(X[i]) == bits(one)
                assert bits(full[i]) == bits(D.rch_vector_field(sys, states[i]))
                assert bits(grad[i]) == bits(H.grad(states[i]))
                assert bits(value[i]) == bits(H.evaluate(states[i]))
                W1 = M.omega_matrix(states[i], field)
                assert bits(XWv[i]) == bits(float(one @ W1 @ v[i]))
                assert bits(gv[i]) == bits(float(H.grad(states[i]) @ v[i]))
    image, pushed = fm.image(states), fm.push(states, v)
    charts = states[:, 2:]
    h = O.OrbitFunction(lambda z: float(np.sin(z[0]) * z[1] + z @ z))
    grad = h.grad(charts)
    flow = O.orbit_hamiltonian_vector_field(h, charts, 0.8, O.MagneticCocycle.zero())
    for i in range(rows):
        assert bits(image[i]) == bits(fm.image(states[i]))
        assert bits(pushed[i]) == bits(fm.push(states[i], v[i]))
        assert bits(grad[i]) == bits(h.grad(charts[i]))
        assert bits(flow[i]) == bits(O.orbit_hamiltonian_vector_field(
            h, charts[i], 0.8, O.MagneticCocycle.zero()))


def test_single_chart_states_keep_their_return_types():
    state = chart_stack(7, 0.0, 1, 1)[0]
    for field in chart_fields(7):
        for H in hamiltonians(7):
            assert type(H.evaluate(state)) is float
            assert H.grad(state).shape == (8,)
            sys = D.RCHSystem(field, H, k=1)
            assert D.hamiltonian_vector_field(sys, state).shape == (8,)
        assert M.omega_matrix(state, field).shape == (8, 8)
        if field.has_potential:
            assert M.momentum_shift(state, field).shape == (8,)
            assert field.vector_potential(state[:3]).shape == (3,)


def test_stacks_outside_the_contract_are_rejected_as_before():
    field = chart_fields(3)[3]
    sys = D.RCHSystem(field, hamiltonians(3)[1])
    good = chart_stack(3, 0.0, 4, 0)
    for bad in (np.zeros((4, 5)), np.zeros((4, 7)), np.zeros((4, 8)),
                np.zeros((2, 4, 5)), np.float64(1.0)):
        with pytest.raises(ValueError, match="state must have dimension 6"):
            D.hamiltonian_vector_field(sys, bad)
    # A user's general Hamiltonian or field is a callable of one state, which
    # the spec and the field map over the rows: the vector field takes a
    # stack of them, of any leading shape, row i bitwise the call on row i.
    general = D.HamiltonianSpec(sys.hamiltonian.evaluate, sys.hamiltonian.gradient)
    curved = M.MagneticField(lambda q: q[0] * np.array(
        [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    for other in (sys, D.RCHSystem(field, general),
                  D.RCHSystem(curved, sys.hamiltonian),
                  D.RCHSystem(field, D.modified_hamiltonian(sys))):
        X = D.hamiltonian_vector_field(other, good)
        assert bits(D.hamiltonian_vector_field(other, good.reshape(2, 2, 6))
                    ) == bits(X.reshape(2, 2, 6))
        for i in range(4):
            assert bits(X[i]) == bits(D.hamiltonian_vector_field(other, good[i]))
    # The public magnetic functions take a stack too, and check its shape
    # and every entry.
    h = np.array([0.1, -0.2, 0.3])
    nan_row = good.copy()
    nan_row[2, 4] = np.nan
    for call in (lambda s: M.omega_matrix(s, field),
                 lambda s: M.momentum_shift(s, field),
                 lambda s: M.left_translate(h, s),
                 lambda s: M.momentum_map(s, field),
                 lambda s: M.project_chart(s, field)):
        stacked = call(good)
        for i in range(4):
            assert bits(stacked[i]) == bits(call(good[i]))
        with pytest.raises(ValueError, match="flat array"):
            call(np.zeros((4, 5)))
        with pytest.raises(ValueError, match="non-finite"):
            call(nan_row)


def test_non_finite_rows_are_rowwise_as_single_states():
    # A flat state with an inf or nan entry is no error for the vector field
    # (the shifted route's iterates may overflow), and neither is a stack
    # holding such rows: each row has the single call's nans where it has
    # them (BLAS may set a nan's sign bit either way) and its bits elsewhere.
    states = chart_stack(11, 0.0, 4, 0)
    states[1, 2], states[2, 4], states[3, 0] = np.inf, np.nan, -np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        for field in chart_fields(11):
            for H in hamiltonians(11):
                sys = D.RCHSystem(field, H)
                X = D.hamiltonian_vector_field(sys, states)
                for i in range(4):
                    one = D.hamiltonian_vector_field(sys, states[i])
                    nan = np.isnan(one)
                    assert np.array_equal(np.isnan(X[i]), nan)
                    assert bits(X[i][~nan]) == bits(one[~nan])
