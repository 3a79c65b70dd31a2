"""Bracket, orbit classification, and orbit-form tests with frozen values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmech import checks
from heisenmech import orbit as O
from heisenmech.errors import DegenerateForm, SingularForm
from heisenmech.group import AlgebraElement, CoAlgebraElement, GroupElement, coadjoint

MU1 = O.coordinate_function(0)
MU2 = O.coordinate_function(1)
NU = O.coordinate_function(2)


def rand_dual(rng, scale=2.0):
    return rng.uniform(-scale, scale, 3)


def quadratic_function(Q):
    Q = np.asarray(Q, dtype=float)
    Qs = 0.5 * (Q + Q.T)
    return O.DualFunction(
        evaluate=lambda p: 0.5 * float(p @ Qs @ p),
        gradient=lambda p: Qs @ p,
        hessian=lambda p: Qs,
    )


def test_bracket_frozen_value():
    rng = np.random.default_rng(20)
    for _ in range(20):
        p = rand_dual(rng)
        b = rng.normal()
        out = O.magnetic_lie_poisson(MU1, MU2, p, O.MagneticCocycle.planar(b))
        assert abs(out - (-p[2] - b)) <= 1e-12


def test_bracket_antisymmetry_and_self():
    rng = np.random.default_rng(21)
    fs = [MU1, MU2, NU, quadratic_function(np.diag([1.0, 2.0, 3.0]))]
    for _ in range(50):
        p = rand_dual(rng)
        B = O.MagneticCocycle.planar(rng.normal())
        for f in fs:
            for g in fs:
                fg = O.magnetic_lie_poisson(f, g, p, B)
                gf = O.magnetic_lie_poisson(g, f, p, B)
                assert abs(fg + gf) <= 1e-12
            assert abs(O.magnetic_lie_poisson(f, f, p, B)) <= 1e-12


def test_plain_bracket_oracle():
    # Independent formula for the unmagnetized bracket of the Heisenberg
    # coalgebra: {f,g}(p) = -nu * area(df_plane, dg_plane).
    rng = np.random.default_rng(22)
    fs = [MU1, MU2, NU,
          quadratic_function(rng.normal(size=(3, 3))),
          quadratic_function(rng.normal(size=(3, 3)))]
    B0 = O.MagneticCocycle.zero()
    for _ in range(100):
        p = rand_dual(rng)
        f, g = rng.choice(len(fs), 2)
        f, g = fs[f], fs[g]
        df, dg = f.grad(p), g.grad(p)
        expected = -p[2] * (df[0] * dg[1] - df[1] * dg[0])
        got = O.magnetic_lie_poisson(f, g, p, B0)
        assert abs(got - expected) <= 1e-10


def test_leibniz_rule():
    rng = np.random.default_rng(23)
    f = quadratic_function(np.diag([1.0, -1.0, 2.0]))
    g = O.linear_function(np.array([0.5, -2.0, 1.0]))
    h = quadratic_function([[0, 1, 0], [1, 0, 0], [0, 0, 1.0]])
    for _ in range(50):
        p = rand_dual(rng)
        B = O.MagneticCocycle.planar(rng.normal())
        lhs = O.magnetic_lie_poisson(O.product_function(f, g), h, p, B)
        rhs = (f.evaluate(p) * O.magnetic_lie_poisson(g, h, p, B)
               + g.evaluate(p) * O.magnetic_lie_poisson(f, h, p, B))
        assert abs(lhs - rhs) <= 1e-8


def test_nu_is_casimir_of_plain_bracket():
    rng = np.random.default_rng(24)
    B0 = O.MagneticCocycle.zero()
    fs = [MU1, MU2, quadratic_function(np.eye(3))]
    for _ in range(50):
        p = rand_dual(rng)
        for f in fs:
            assert abs(O.magnetic_lie_poisson(f, NU, p, B0)) <= 1e-12


def test_jacobi_coordinate_and_quadratic():
    rng = np.random.default_rng(25)
    quads = [quadratic_function(rng.normal(size=(3, 3))) for _ in range(3)]
    for _ in range(100):
        p = rand_dual(rng)
        B = O.MagneticCocycle.planar(rng.normal())
        res = O.check_jacobi((MU1, MU2, NU), p, B)
        assert type(res) is float and res <= 1e-9
        assert O.check_jacobi(quads, p, B) <= 1e-9


def test_jacobi_repeated_function_is_exact_zero():
    p = np.array([0.3, -1.2, 0.7])
    res = O.check_jacobi((MU1, MU1, NU), p, O.MagneticCocycle.planar(0.4))
    assert res <= 1e-12


def test_derivatives_are_declared_not_differenced():
    # A DualFunction declares its gradient; bracket_function, and so
    # check_jacobi, need declared hessians for the nested gradient.
    with pytest.raises(TypeError):
        O.DualFunction(lambda p: float(np.sin(p[0]) + p[2] ** 2))
    flat = O.DualFunction(lambda p: float(np.sin(p[0]) + p[2] ** 2),
                          lambda p: np.array([np.cos(p[0]), 0.0, 2.0 * p[2]]))
    p, B = np.array([0.2, 0.1, 0.5]), O.MagneticCocycle.zero()
    assert O.magnetic_lie_poisson(flat, MU2, p, B) == -p[2] * np.cos(p[0])
    for fs in ((flat, MU2), (MU2, flat)):
        with pytest.raises(ValueError, match="hessian"):
            O.bracket_function(*fs, B)
    with pytest.raises(ValueError, match="hessian"):
        O.check_jacobi((flat, MU2, NU), p, B)


def test_hess_names_a_missing_hessian():
    # Not a TypeError from calling None: the function declares no hessian.
    with pytest.raises(ValueError, match="declares no hessian"):
        O.DualFunction(lambda p: float(p[0]),
                       lambda p: np.array([1.0, 0.0, 0.0])).hess(np.zeros(3))


def test_classify_orbit():
    assert O.classify_orbit(np.array([3.0, 4.0, 0.0])) == "point"
    assert O.classify_orbit(np.array([0.0, 0.0, 1.0])) == "plane"
    stack = np.array([[[3.0, 4.0, 0.0], [0.0, 0.0, 1.0]], [[1.0, 1.0, -1e-12],
                                                          [0.0, 0.0, -2e-12]]])
    assert O.classify_orbit(stack).tolist() == [["point", "plane"],
                                                ["point", "plane"]]
    rng = np.random.default_rng(26)
    fixed = np.array([3.0, 4.0, 0.0])
    for _ in range(200):
        g = rng.uniform(-3, 3, 3)
        moved = coadjoint(g, fixed)
        assert np.array_equal(moved, fixed)


def test_orbit_form_frozen_value_and_antisymmetry():
    e1, e2 = np.eye(3)[:2]
    B0 = O.MagneticCocycle.zero()
    assert O.orbit_symplectic_form(1.0, e1, e2, B0) == -1.0
    assert O.orbit_symplectic_form(1.0, e1, e1, B0) == 0.0
    rng = np.random.default_rng(27)
    for _ in range(50):
        xi = np.append(rng.normal(size=2), rng.normal())
        eta = np.append(rng.normal(size=2), rng.normal())
        B = O.MagneticCocycle.planar(rng.normal())
        rng.normal(size=2)  # the chart point's draw; the form reads only nu
        nu = rng.normal() + 2.0
        lhs = O.orbit_symplectic_form(nu, xi, eta, B)
        rhs = -O.orbit_symplectic_form(nu, eta, xi, B)
        assert abs(lhs - rhs) <= 1e-12


def test_orbit_form_matches_bracket_of_linear_functions():
    rng = np.random.default_rng(28)
    for _ in range(100):
        xi = np.append(rng.normal(size=2), rng.normal())
        eta = np.append(rng.normal(size=2), rng.normal())
        B = O.MagneticCocycle.planar(rng.normal())
        rho, nu = rng.normal(size=2), rng.normal() + 1.5
        p_dual = np.append(rho, nu)
        form = O.orbit_symplectic_form(nu, xi, eta, B)
        br = O.magnetic_lie_poisson(O.linear_function(xi), O.linear_function(eta),
                                    p_dual, B)
        assert abs(form - br) <= 1e-10


def test_orbit_form_degenerate_warning():
    e1, e2 = np.eye(3)[:2]
    with pytest.warns(DegenerateForm):
        value = O.orbit_symplectic_form(0.0, e1, e2, O.MagneticCocycle.zero())
    assert value == 0.0


def test_orbit_form_matrix_determinant():
    rng = np.random.default_rng(29)
    B0 = O.MagneticCocycle.zero()
    for _ in range(100):
        nu = rng.normal()
        if abs(nu) < 1e-3:
            continue
        rng.normal(size=2)  # the chart point's draw; the matrix reads only nu
        det = np.linalg.det(O.orbit_form_matrix(nu, B0))
        assert abs(det - nu ** 2) <= 1e-10


def test_orbit_field_frozen_cases():
    B0 = O.MagneticCocycle.zero()
    h = O.OrbitFunction(evaluate=lambda x: float(x[0]),
                        gradient=lambda x: np.array([1.0, 0.0]))
    chart = np.array([0.3, -0.8])
    out = O.orbit_hamiltonian_vector_field(h, chart, 1.0, B0)
    assert np.allclose(out, [0.0, 1.0], atol=1e-14)

    const = O.OrbitFunction(evaluate=lambda x: 4.2, gradient=lambda x: np.zeros(2))
    assert np.allclose(O.orbit_hamiltonian_vector_field(const, chart, 1.0, B0), 0.0,
                       atol=0)


def test_orbit_field_canonical_v_block():
    B0 = O.MagneticCocycle.zero()
    h = O.OrbitFunction(evaluate=lambda x: 0.5 * float(x[3:] @ x[3:]))
    out = O.orbit_hamiltonian_vector_field(h, np.array([0.0, 0.0, 0.4, 2.5]), 1.0, B0)
    assert np.allclose(out[:2], 0.0, atol=1e-9)
    assert abs(out[2] - 2.5) <= 1e-9  # thetadot = lam
    assert abs(out[3]) <= 1e-9        # lamdot = 0


def test_orbit_field_residual_oracle():
    rng = np.random.default_rng(30)
    for _ in range(25):
        k = int(rng.integers(0, 3))
        rho, nu = rng.normal(size=2), rng.normal() + 2.0
        chart = np.concatenate([rho, rng.normal(size=k), rng.normal(size=k)])
        B = O.MagneticCocycle.planar(rng.normal())
        Q = rng.normal(size=(2 + 2 * k, 2 + 2 * k))
        Q = Q + Q.T

        h = O.OrbitFunction(evaluate=lambda x, Q=Q: 0.5 * float(x @ Q @ x),
                            gradient=lambda x, Q=Q: Q @ x)
        X = O.orbit_hamiltonian_vector_field(h, chart, nu, B)
        grad = h.grad(chart)
        for _ in range(10):
            w = rng.normal(size=2 + 2 * k)
            lhs = O.orbit_form_on_chart_vectors(nu, X, w, B)
            assert abs(lhs - grad @ w) <= 1e-10


def test_orbit_field_singular_form():
    # minus sign: the generator scale is -nu - B12, so B12 = -nu cancels it.
    B = O.MagneticCocycle.planar(-1.0)
    h = O.OrbitFunction(evaluate=lambda x: float(x[0]),
                        gradient=lambda x: np.array([1.0, 0.0]))
    with pytest.raises(SingularForm) as exc:
        O.orbit_hamiltonian_vector_field(h, np.array([0.1, 0.2]), 1.0, B)
    assert np.array_equal(exc.value.matrix, O.orbit_form_matrix(1.0, B))


def test_orbit_chart_refuses_a_non_planar_cocycle():
    # b13 and b23 enter {nu, h}, so nu moves and no leaf is a plane nu = c;
    # the chart functions must refuse rather than answer for nu = c.
    b12, b13, b23 = 0.4, 0.7, -0.3
    B = O.MagneticCocycle(np.array([[0.0, b12, b13], [-b12, 0.0, b23],
                                    [-b13, -b23, 0.0]]))
    h = quadratic_function(np.diag([1.0, 2.0, 3.0]))
    assert abs(O.magnetic_lie_poisson(NU, h, np.array([0.5, -0.2, 1.0]), B)) > 0.1
    chart = np.array([0.1, 0.2])
    stack = O.MagneticCocycle(np.stack([O.MagneticCocycle.planar(0.4).form, B.form]))
    for call in (lambda: O.orbit_form_matrix(1.0, B),
                 lambda: O.orbit_form_matrix(np.array([1.0, 1.0]), stack),
                 lambda: O.orbit_hamiltonian_vector_field(
                     O.OrbitFunction(evaluate=lambda x: float(x[0])), chart, 1.0, B),
                 lambda: O.orbit_form_on_chart_vectors(1.0, chart, chart, B)):
        with pytest.raises(ValueError, match="planar cocycle"):
            call()


def test_cocycle_validation():
    with pytest.raises(ValueError):
        O.MagneticCocycle(np.eye(3))
    B = O.MagneticCocycle.planar(2.0)
    xi, eta = np.eye(3)[:2]
    assert B.pair(xi, eta) == 2.0
    assert B.planar_component == 2.0


def test_check_bracket_builds_no_algebra_elements(monkeypatch):
    # Group, connection and orbit kernels and dual functions take and return
    # flat arrays, so none of the five algebra checks builds an element
    # dataclass.
    from heisenmech.checks import CHECKS
    from heisenmech.reduction import DiffeoSpec

    built = []
    for cls in (GroupElement, AlgebraElement, CoAlgebraElement):
        def counting_post_init(self, post_init=cls.__post_init__):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    for name in ("group_axioms", "representations", "bracket", "orbit_form",
                 "connection"):
        records = CHECKS[name](42, 1000)
        assert records and all(r.passed for r in records), name
        if name == "bracket":
            assert all(r.samples == 1000 for r in records)
    assert built == []
    # The counter sees the dataclass edge.
    O.linear_function(AlgebraElement((1.0, 0.0), 0.0).as_array())
    O.classify_orbit(CoAlgebraElement((0.0, 0.0), 1.0).as_array())
    DiffeoSpec.group_translation(GroupElement((0.1, 0.2), 0.3))
    assert len(built) == 3


class CountingGenerator:
    """A numpy Generator that appends the name of each method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("name", ["bracket", "connection", "group_axioms",
                                  "orbit_form", "representations"])
def test_generator_calls_do_not_grow_with_samples(name, monkeypatch):
    # Each algebra check draws every distribution as one block, so it makes
    # the same generator calls whatever the sample count.
    make = np.random.default_rng
    calls = {}
    for samples in (10, 1000):
        calls[samples] = []
        monkeypatch.setattr(checks.np.random, "default_rng",
                            lambda seed, out=calls[samples]:
                            CountingGenerator(make(seed), out))
        checks.CHECKS[name](7, samples)
    assert calls[10] and calls[10] == calls[1000], calls


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_orbit_form_check_draws_its_stated_ranges(seed):
    # Every orbit_form record reads 0.0 or rounding at any draw (the form is
    # the restricted bracket and det W is nu^2 for every nu), so no output
    # shows a change in what is drawn; the drawn points are held here to
    # the ranges check_orbit_form states: |nu| over [0.3, 2.5] with both
    # signs, and rho, xi, eta over [-2, 2].
    seen = {}
    form = O.orbit_symplectic_form

    def spy(nu, xi, eta, B):
        seen.update(nu=nu, xi=xi, eta=eta)
        return form(nu, xi, eta, B)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(O, "orbit_symplectic_form", spy)
        checks.check_orbit_form(seed, 4000)
    magnitude = np.abs(seen["nu"])
    assert 0.3 <= magnitude.min() < 0.31 and 2.49 < magnitude.max() <= 2.5
    assert 0.45 < np.mean(seen["nu"] > 0) < 0.55
    for block in (seen["xi"], seen["eta"]):
        assert -2.0 <= block.min() < -1.99 and 1.99 < block.max() <= 2.0


def elementwise_cubic():
    """p0*p1*p2 + p0^2/2, written elementwise, so each row of a stacked
    call is bitwise the call on that row; its hessian varies with p."""

    def gradient(p):
        p0, p1, p2 = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([p1 * p2 + p0, p0 * p2, p0 * p1], axis=-1)

    def hessian(p):
        p0, p1, p2 = p[..., 0], p[..., 1], p[..., 2]
        one, zero = np.ones_like(p0), np.zeros_like(p0)
        return np.stack([np.stack([one, p2, p1], axis=-1),
                         np.stack([p2, zero, p0], axis=-1),
                         np.stack([p1, p0, zero], axis=-1)], axis=-2)

    return O.DualFunction(
        lambda p: p[..., 0] * p[..., 1] * p[..., 2] + 0.5 * p[..., 0] ** 2,
        gradient, hessian)


def picker_inputs(seed, samples=60):
    """Five functions, an index into them that gives function 1 no rows,
    and two stacks of dual points."""
    rng = np.random.default_rng(seed)
    fs = [MU1, NU, checks._quadratic(rng.normal(size=(3, 3))),
          elementwise_cubic(), checks._quadratic(rng.normal(size=(3, 3)))]
    index = rng.choice([0, 2, 3, 4], samples)
    return fs, index, rng.uniform(-2, 2, (2, samples, 3))


def test_picked_rows_are_bitwise_their_functions():
    fs, index, (p0, p1) = picker_inputs(70)
    picked = checks._picked(fs, index)
    assert not (index == 1).any()
    # Alternate the stacks, so each method's cached result must be dropped.
    for p in (p0, p1, p0, p1):
        for method, tail in (("evaluate", ()), ("grad", (3,)),
                             ("hess", (3, 3))):
            got = getattr(picked, method)(p)
            assert got.shape == index.shape + tail
            for i, k in enumerate(index):
                want = np.broadcast_to(getattr(fs[k], method)(p[i]), tail)
                assert got[i].tobytes() == want.tobytes(), (method, i)


def test_picked_evaluates_each_function_once_per_stack():
    fs, index, (p0, _) = picker_inputs(71)
    calls = []

    def counted(f, k):
        def wrap(method):
            def call(p):
                calls.append((k, method))
                return getattr(f, method)(p)
            return call
        return O.DualFunction(wrap("evaluate"), wrap("grad"), wrap("hess"))

    picked = checks._picked([counted(f, k) for k, f in enumerate(fs)], index)
    first = picked.grad(p0)
    assert picked.grad(p0) is first
    once = list(calls)
    assert {k for k, _ in once} >= set(index.tolist())
    assert len(set(once)) == len(once) and {m for _, m in once} == {"grad"}
    # An equal stack that is another object is evaluated afresh.
    again = picked.grad(p0.copy())
    assert again is not first and again.tobytes() == first.tobytes()
    assert calls == once + once


def test_picked_results_are_read_only():
    fs, index, (p0, _) = picker_inputs(72)
    picked = checks._picked(fs, index)
    for result in (picked.evaluate(p0), picked.grad(p0), picked.hess(p0)):
        with pytest.raises(ValueError, match="read-only"):
            result[0] = 1.0


def test_check_bracket_makes_twenty_picked_evaluations(monkeypatch):
    # The records on p run before the nested-gradient difference, which
    # leaves each picker cache on a shifted stack: 2 evaluate, 15 grad and
    # 3 hess misses, each running all five test functions once.
    calls = []

    def counted(f):
        def wrap(method, fn):
            def call(p):
                calls.append((id(f), method))
                return fn(p)
            return call
        return O.DualFunction(wrap("evaluate", f.evaluate),
                              wrap("grad", f.gradient),
                              wrap("hess", f.hessian))

    quadratic, coordinate = checks._quadratic, O.coordinate_function
    monkeypatch.setattr(checks, "_quadratic", lambda Q: counted(quadratic(Q)))
    monkeypatch.setattr(O, "coordinate_function",
                        lambda i: counted(coordinate(i)))
    checks.check_bracket(1, 1000)
    per_function = {}
    for key in calls:
        per_function[key] = per_function.get(key, 0) + 1
    assert len({f for f, _ in per_function}) == 5
    assert {m: per_function[(f, m)] for f, m in per_function} == {
        "evaluate": 2, "grad": 15, "hess": 3}
    assert len(calls) == 5 * 20
