"""The closed-form twisted bracket against the paths it replaced.

bracket_function differentiates {f,g}(p) = df . M(p) . dg, M = -nu*K - B,
in closed form. These tests hold it to a test-local copy of the former
per-direction product-rule loop and to a central difference of the bracket
value, hold magnetic_lie_poisson bitwise to the pairing formula, and show
that check_jacobi reads the declared hessians.

The layer evaluates that bracket as a triple product: B(xi, eta) =
beta . (xi x eta) with beta = (F[1,2], -F[0,2], F[0,1]), and M v = w x v with
w = beta + nu e3. The tests at the end hold the pairing, the value and the
gradient to a test-local matrix writing through np.einsum, on general
cocycles, and show that row i of a stack is bitwise the single call.
"""

import numpy as np
import pytest

from heisenmech import checks, fd
from heisenmech import orbit as O
from heisenmech.group import _area, _cross, bracket, pairing

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


@pytest.mark.parametrize("component", [0, 1])
def test_check_bracket_reads_the_out_of_plane_cocycle_entries(component,
                                                              monkeypatch):
    # A cross product whose component 0 (or 1) is symmetric meets only the
    # (2,3) (or (1,3)) entry of a cocycle: planar cocycles leave the
    # antisymmetry record at 0, the check's general ones fail it.
    right = O._cross

    def symmetric(a, b):
        out = right(a, b)
        i, j = (1, 2) if component == 0 else (0, 2)
        out[..., component] = a[..., i] * b[..., j] + a[..., j] * b[..., i]
        return out

    monkeypatch.setattr(O, "_cross", symmetric)
    for seed in (42, 1):
        records = {r.name: r for r in checks.check_bracket(seed, 200)}
        assert not records["bracket.antisymmetry"].passed, seed


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


# --- the triple product against the matrix writing --------------------------

K = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
# Largest error measured against the matrix writing, relative to the sum of
# the terms' magnitudes: 7.1e-16 over 20,000 samples with entries from 1e-3
# to 1e3 (about 3.2 eps). The bound leaves a factor of about 3.
RELATIVE = 2e-15


def log_uniform(rng, shape):
    """Entries of random sign and magnitude 10^u, u uniform in [-3, 3]."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3, 3, shape)


def cocycle_forms(rng, lead):
    """Antisymmetric forms with every off-diagonal entry drawn, so the
    (1,3) and (2,3) entries are nonzero."""
    upper = np.triu(log_uniform(rng, lead + (3, 3)), 1)
    return upper - np.swapaxes(upper, -1, -2)


def declared(d, H):
    """A DualFunction whose declared gradient and hessian are the arrays d
    and H: the bracket layer reads nothing else."""
    return O.DualFunction(lambda p: 0.0, lambda p: d, lambda p: H)


def matrices(nu, F):
    """M = -nu*K - F and the matrix of the magnitudes of its two terms."""
    nu = np.asarray(nu)[..., None, None]
    return -nu * K - F, np.abs(nu) * np.abs(K) + np.abs(F)


def matrix_pair(F, xi, eta):
    return (np.einsum("...i,...ij,...j->...", xi, F, eta),
            np.einsum("...i,...ij,...j->...", abs(xi), abs(F), abs(eta)))


def matrix_value(df, dg, nu, F):
    M, size = matrices(nu, F)
    return (np.einsum("...i,...ij,...j->...", df, M, dg),
            np.einsum("...i,...ij,...j->...", abs(df), size, abs(dg)))


def matrix_gradient(df, dg, Hf, Hg, nu, F):
    """Hf^T M dg + Hg^T M^T df - area(df,dg) e3, and its terms' size."""
    M, size = matrices(nu, F)
    out = (np.einsum("...ji,...jk,...k->...i", Hf, M, dg)
           + np.einsum("...ji,...kj,...k->...i", Hg, M, df))
    out[..., 2] -= df[..., 0] * dg[..., 1] - df[..., 1] * dg[..., 0]
    scale = (np.einsum("...ji,...jk,...k->...i", abs(Hf), size, abs(dg))
             + np.einsum("...ji,...kj,...k->...i", abs(Hg), size, abs(df)))
    scale[..., 2] += abs(df[..., 0] * dg[..., 1]) + abs(df[..., 1] * dg[..., 0])
    return out, scale


def relative(got, reference):
    want, scale = reference
    return float(np.max(np.abs(np.asarray(got) - want) / scale))


def closed_form_inputs(seed, lead):
    """xi, eta, df, dg, p, Hf, Hg and general forms F of leading shape
    lead (() for single points)."""
    rng = np.random.default_rng(seed)
    triples = [log_uniform(rng, lead + (3,)) for _ in range(5)]
    Hf, Hg = log_uniform(rng, lead + (3, 3)), log_uniform(rng, lead + (3, 3))
    return (*triples, Hf, Hg, cocycle_forms(rng, lead))


def library(xi, eta, df, dg, p, Hf, Hg, F):
    """pair, bracket value and bracket gradient through the public API."""
    B = O.MagneticCocycle(F)
    f, g = declared(df, Hf), declared(dg, Hg)
    return (B.pair(xi, eta), O.magnetic_lie_poisson(f, g, p, B),
            O.bracket_function(f, g, B).grad(p))


@pytest.mark.parametrize("lead", [(), (2000,)], ids=["single", "stacked"])
def test_triple_product_matches_the_matrix_writing(lead):
    worst = [0.0, 0.0, 0.0]
    for seed in range(200 if lead == () else 5):
        xi, eta, df, dg, p, Hf, Hg, F = closed_form_inputs(1000 + seed, lead)
        pair, value, gradient = library(xi, eta, df, dg, p, Hf, Hg, F)
        nu = p[..., 2]
        if lead == ():
            assert type(pair) is float and type(value) is float
        for k, (got, ref) in enumerate((
                (pair, matrix_pair(F, xi, eta)),
                (value, matrix_value(df, dg, nu, F)),
                (gradient, matrix_gradient(df, dg, Hf, Hg, nu, F)))):
            worst[k] = max(worst[k], relative(got, ref))
    assert max(worst) <= RELATIVE, worst


def test_cross_is_numpy_cross_and_its_third_component_the_area():
    rng = np.random.default_rng(1010)
    a, b = log_uniform(rng, (500, 3)), log_uniform(rng, (500, 3))
    for x, y in ((a, b), (a[7], b), (a, b[7]), (a[7], b[7])):
        c = _cross(x, y)
        assert c.tobytes() == np.cross(x, y).tobytes()
        assert c[..., 2].tobytes() == np.asarray(_area(x, y)).tobytes()


def test_triple_product_is_exactly_antisymmetric():
    # Swapping the operands negates each cross component exactly, so the
    # pairing and the bracket are antisymmetric to the bit on any cocycle.
    for lead in ((), (300,)):
        xi, eta, df, dg, p, Hf, Hg, F = closed_form_inputs(1011, lead)
        B = O.MagneticCocycle(F)
        f, g = declared(df, Hf), declared(dg, Hg)
        assert np.all(B.pair(xi, eta) == -B.pair(eta, xi))
        assert np.all(O.magnetic_lie_poisson(f, g, p, B)
                      == -O.magnetic_lie_poisson(g, f, p, B))


def bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("stacked_forms", [False, True],
                         ids=["one_cocycle", "stack_of_cocycles"])
def test_rows_are_bitwise_the_single_calls(stacked_forms):
    xi, eta, df, dg, p, Hf, Hg, F = closed_form_inputs(1012, (64,))
    if not stacked_forms:
        F = F[0]
    stacked = library(xi, eta, df, dg, p, Hf, Hg, F)
    for i in range(64):
        row = library(xi[i], eta[i], df[i], dg[i], p[i], Hf[i], Hg[i],
                      F[i] if stacked_forms else F)
        for got, want in zip(stacked, row):
            assert bits(got[i]) == bits(want), i


def closed_form_copy(middle_sign, with_nu):
    """Test-local copy of the layer's value and gradient, with beta's middle
    sign and the nu e3 term of w as parameters."""
    def w_of(nu, F):
        w = np.stack(np.broadcast_arrays(
            F[..., 1, 2], middle_sign * F[..., 0, 2], F[..., 0, 1]), axis=-1)
        w[..., 2] += nu if with_nu else 0.0
        return w

    def value(df, dg, nu, F):
        return -np.sum(w_of(nu, F) * np.cross(df, dg), axis=-1)

    def gradient(df, dg, Hf, Hg, nu, F):
        w = w_of(nu, F)
        out = (np.einsum("...ji,...j->...i", Hf, np.cross(w, dg))
               + np.einsum("...ji,...j->...i", Hg, np.cross(df, w)))
        out[..., 2] -= df[..., 0] * dg[..., 1] - df[..., 1] * dg[..., 0]
        return out

    return value, gradient


@pytest.mark.parametrize("middle_sign, with_nu, fails", [
    (-1.0, True, False), (1.0, True, True), (-1.0, False, True)],
    ids=["as_written", "middle_sign_flipped", "without_nu_e3"])
def test_the_comparison_rejects_a_wrong_axial_vector(middle_sign, with_nu,
                                                     fails):
    value, gradient = closed_form_copy(middle_sign, with_nu)
    xi, eta, df, dg, p, Hf, Hg, F = closed_form_inputs(1013, (2000,))
    nu = p[..., 2]
    errors = (relative(value(df, dg, nu, F), matrix_value(df, dg, nu, F)),
              relative(gradient(df, dg, Hf, Hg, nu, F),
                       matrix_gradient(df, dg, Hf, Hg, nu, F)))
    if fails:
        assert min(errors) > 1e-3, errors
    else:
        assert max(errors) <= RELATIVE, errors
