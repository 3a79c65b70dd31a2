"""The closed-form twisted bracket against the paths it replaced.

bracket_function differentiates {f,g}(p) = df . M(p) . dg, M = -nu*K - B,
in closed form. These tests hold it to a test-local copy of the former
per-direction product-rule loop and to a central difference of the bracket
value, hold magnetic_lie_poisson bitwise to the pairing formula, and show
that check_jacobi reads the declared hessians.
"""

import numpy as np

from heisenmech import checks, fd
from heisenmech import orbit as O
from heisenmech.group import bracket, pairing

MAGNITUDES = (1e-3, 1e-1, 1.0, 1e1, 1e3)


def quadratic(Q):
    Qs = 0.5 * (Q + Q.T)
    return O.DualFunction(lambda p: 0.5 * float(p @ Qs @ p), lambda p: Qs @ p,
                          lambda p: Qs)


def cubic(a):
    """(a.p)^3 / 6, whose hessian (a.p) a a^T varies with p."""
    a = np.asarray(a, dtype=float)
    return O.DualFunction(lambda p: float(a @ p) ** 3 / 6.0,
                          lambda p: 0.5 * float(a @ p) ** 2 * a,
                          lambda p: float(a @ p) * np.outer(a, a))


def general_cocycle(rng):
    """Antisymmetric form with every entry nonzero, centre entries included."""
    b = rng.normal(size=(3, 3))
    return O.MagneticCocycle(b - b.T)


def functions(rng):
    return [quadratic(rng.normal(size=(3, 3))), quadratic(rng.normal(size=(3, 3))),
            cubic(rng.normal(size=3)),
            O.linear_function(np.append(rng.normal(size=2), rng.normal())),
            O.coordinate_function(2)]


def loop_gradient(f, g, B, p):
    """The former product-rule loop: one basis direction at a time."""
    s = -1.0
    df, dg = f.grad(p), g.grad(p)
    Hf, Hg = f.hess(p), g.hess(p)
    out = np.empty(3)
    for i in range(3):
        w = np.zeros(3)
        w[i] = 1.0
        dfw, dgw = Hf[:, i], Hg[:, i]
        term = s * pairing(w, bracket(df, dg))
        term += s * pairing(p, bracket(dfw, dg)) + s * pairing(p, bracket(df, dgw))
        term -= B.pair(dfw, dg) + B.pair(df, dgw)
        out[i] = term
    return out


def term_scale(f, g, B, p):
    """Size of the largest term in the bracket gradient at p."""
    df, dg = np.abs(f.grad(p)), np.abs(g.grad(p))
    M = abs(p[2]) + np.max(np.abs(B.form))
    Hf, Hg = np.max(np.abs(f.hess(p))), np.max(np.abs(g.hess(p)))
    return max(M * (Hf * dg.max() + Hg * df.max()) + df.max() * dg.max(), 1e-300)


def sweep(seed):
    rng = np.random.default_rng(seed)
    fs = functions(rng)
    for scale in MAGNITUDES:
        for _ in range(20):
            p = scale * rng.normal(size=3)
            B = general_cocycle(rng)
            i, j = rng.choice(len(fs), 2, replace=False)
            yield fs[i], fs[j], B, p


def central_gradient(f, p, step):
    """Central-difference gradient of f at p with the given step."""
    out = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        out[i] = (f(p + e) - f(p - e)) / (2.0 * step)
    return out


def test_closed_form_gradient_matches_the_product_rule_loop():
    worst = 0.0
    for f, g, B, p in sweep(90):
        got = O.bracket_function(f, g, B).grad(p)
        ref = loop_gradient(f, g, B, p)
        worst = max(worst, np.max(np.abs(got - ref)) / term_scale(f, g, B, p))
    assert worst <= 1e-13


def test_closed_form_gradient_reads_hessian_columns_like_the_loop():
    # The loop took column i of a declared hessian as the derivative of the
    # gradient along e_i; an unsymmetric declaration tells columns from rows.
    rng = np.random.default_rng(95)
    worst = 0.0
    for f, g, B, p in sweep(95):
        A, C = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        f = O.DualFunction(f.evaluate, f.gradient, lambda p, f=f: f.hess(p) + A)
        g = O.DualFunction(g.evaluate, g.gradient, lambda p, g=g: g.hess(p) + C)
        got = O.bracket_function(f, g, B).grad(p)
        ref = loop_gradient(f, g, B, p)
        worst = max(worst, np.max(np.abs(got - ref)) / term_scale(f, g, B, p))
    assert worst <= 1e-13


def test_closed_form_gradient_matches_finite_differences():
    worst = 0.0
    for f, g, B, p in sweep(91):
        fg = O.bracket_function(f, g, B)
        got = fg.grad(p)
        # The step follows |p| down so that truncation stays below rounding.
        step = fd.GRADIENT_STEP * min(1.0, np.max(np.abs(p)))
        ref = central_gradient(fg.evaluate, p, step)
        worst = max(worst, np.max(np.abs(got - ref)) / term_scale(f, g, B, p))
    assert worst <= 1e-6


def test_bracket_value_is_bitwise_the_pairing_formula():
    # The reference composes the group kernels pairing and bracket.
    for f, g, B, p in sweep(92):
        df, dg = f.grad(p), g.grad(p)
        expected = -1.0 * pairing(p, bracket(df, dg)) - B.pair(df, dg)
        got = O.magnetic_lie_poisson(f, g, p, B)
        assert got == expected
        assert type(got) is float
        assert O.linear_function(df).evaluate(p) == pairing(p, df)


def test_jacobi_reads_the_declared_hessians():
    # Negative control: declaring the unsymmetrized Q as the hessian of
    # p.Qs.p/2 leaves the value and the gradient exact, so only the nested
    # derivative is wrong, and the Jacobi sum must see it.
    rng = np.random.default_rng(93)
    Q = rng.normal(size=(3, 3))
    right = quadratic(Q)
    wrong = O.DualFunction(right.evaluate, right.gradient, lambda p: Q)
    others = (quadratic(rng.normal(size=(3, 3))), O.coordinate_function(0))
    wrong_worst = right_worst = 0.0
    for _ in range(50):
        p = rng.uniform(-2, 2, 3)
        B = general_cocycle(rng)
        bad = O.check_jacobi((wrong,) + others, p, B)
        good = O.check_jacobi((right,) + others, p, B)
        assert type(bad) is float and type(good) is float
        wrong_worst = max(wrong_worst, bad)
        right_worst = max(right_worst, good)
    assert right_worst <= 1e-9
    assert wrong_worst > 1e-3


def test_symmetric_hessian_errors_show_in_the_gradient_not_in_jacobi():
    # A hessian error P on f enters the cyclic sum as
    # dg.M^T P M dh + dg.M^T P^T M^T dh, which vanishes for symmetric P since
    # M is antisymmetric: Jacobi cannot see it, the nested gradient against
    # finite differences does.
    rng = np.random.default_rng(94)
    Q, E = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    right = quadratic(Q)
    wrong = O.DualFunction(right.evaluate, right.gradient,
                           lambda p: right.hessian(p) + 1e-3 * (E + E.T))
    g, h = quadratic(rng.normal(size=(3, 3))), O.coordinate_function(0)
    p = np.array([0.4, -1.3, 0.9])
    B = general_cocycle(rng)
    assert O.check_jacobi((wrong, g, h), p, B) <= 1e-9
    fg = O.bracket_function(wrong, g, B)
    ref = fd.gradient(fg.evaluate, p)
    assert np.max(np.abs(fg.grad(p) - ref)) > 1e-5


def test_check_bracket_records_a_symmetric_hessian_error(monkeypatch):
    # The same error injected into the check's quadratic functions: the
    # bracket.nested_gradient record fails while bracket.jacobi passes.
    E = np.random.default_rng(95).normal(size=(3, 3))
    right = checks._quadratic

    def wrong(Q):
        f = right(Q)
        H = f.hess(np.zeros(3)) + 1e-3 * (E + E.T)
        return O.DualFunction(f.evaluate, f.gradient, lambda p: H)

    monkeypatch.setattr(checks, "_quadratic", wrong)
    for seed, samples in ((0, 200), (42, 1000)):
        records = {r.name: r for r in checks.check_bracket(seed, samples)}
        assert not records["bracket.nested_gradient"].passed, seed
        assert records["bracket.jacobi"].passed, seed


def jacobi_by_bracket_functions(fs, p, B):
    """The former check_jacobi: three bracket_function objects, each of
    which reads its inputs' derivatives again."""
    f, g, h = fs
    total = 0.0
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        total += O.magnetic_lie_poisson(O.bracket_function(a, b, B), c, p, B)
    return abs(total)


def test_jacobi_reads_each_derivative_once():
    rng = np.random.default_rng(96)
    calls = []

    def counted(f, name):
        def gradient(p):
            calls.append((name, "grad"))
            return f.gradient(p)

        def hessian(p):
            calls.append((name, "hess"))
            return f.hessian(p)

        return O.DualFunction(f.evaluate, gradient, hessian)

    fs = [counted(f, name) for f, name in zip(functions(rng)[:3], "fgh")]
    O.check_jacobi(fs, rng.normal(size=3), general_cocycle(rng))
    assert sorted(calls) == sorted((name, kind) for name in "fgh"
                                   for kind in ("grad", "hess"))


def test_jacobi_is_bitwise_the_three_bracket_functions():
    rng = np.random.default_rng(97)
    for f, g, B, p in sweep(97):
        h = quadratic(rng.normal(size=(3, 3)))
        got = O.check_jacobi((f, g, h), p, B)
        assert type(got) is float
        assert got == jacobi_by_bracket_functions((f, g, h), p, B)
    # Stacks of points and cocycles, through the bracket check's picker.
    fs = [O.coordinate_function(i) for i in range(3)]
    fs += [checks._quadratic(rng.normal(size=(3, 3))) for _ in range(2)]
    p = rng.uniform(-2, 2, (200, 3))
    B = O.MagneticCocycle.planar(rng.normal(size=200))
    picked = [checks._picked(fs, row) for row in rng.integers(0, 5, (3, 200))]
    assert (O.check_jacobi(picked, p, B).tobytes()
            == jacobi_by_bracket_functions(picked, p, B).tobytes())
