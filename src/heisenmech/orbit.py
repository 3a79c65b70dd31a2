"""Magnetic Lie-Poisson brackets and coadjoint-orbit symplectic structure.

The dual algebra is coordinatized as (mu1, mu2, nu). For nu != 0 the coadjoint
orbit through (mu, nu) is the whole plane R^2 x {nu}; for nu = 0 it is the
single point (mu, 0). A constant magnetic cocycle (an antisymmetric bilinear
form on the algebra) twists both the bracket and the orbit form.

The bracket layer is stack-generic, as the kernels of heisenmech.group are:
a dual point p, an algebra label xi and a DualFunction gradient are one (3,)
array or a stack of shape (..., 3), component on the last axis, and a
cocycle's form is one 3x3 matrix or a stack (..., 3, 3). Scalar results
(bracket values, orbit-form values) are Python floats for single inputs and
arrays of the leading shape for stacks, each row bitwise the single call.
The orbit chart functions at the end take one flat chart or a stack of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import fd
from .errors import DegenerateForm, SingularForm
from .group import (_dot, _map_rows, _matvec, _part, _scalar, _vecmat, area_form,
                    pairing)

__all__ = [
    "DualFunction",
    "MagneticCocycle",
    "OrbitFunction",
    "magnetic_lie_poisson",
    "bracket_function",
    "product_function",
    "check_jacobi",
    "classify_orbit",
    "orbit_symplectic_form",
    "orbit_form_matrix",
    "orbit_hamiltonian_vector_field",
    "coordinate_function",
    "linear_function",
]

@dataclass(frozen=True)
class DualFunction:
    """Scalar function of a flat dual point p = (mu1, mu2, nu), shape (3,) or
    a stack (..., 3).

    The callables take p as given: evaluate returns a float (an array of the
    leading shape for a stack), gradient a (..., 3) array and hessian a
    (..., 3, 3) array; a constant may be returned unstacked and broadcast.
    The gradient is declared, never differenced: it is the functional
    derivative, delta with delta . w = Df(p) . w. The optional hessian H
    (the 3x3 derivative matrix of the gradient, H[j, i] = d delta_j / d p_i)
    gives the gradient of a bracket: with M = -nu*K - B as in
    bracket_function, grad {f,g} = Hf^T M dg + Hg^T M^T df - area(df,dg) e3.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray] | None = None

    def grad(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.gradient(p), dtype=float)

    def hess(self, p: np.ndarray) -> np.ndarray:
        if self.hessian is None:
            raise ValueError("this DualFunction declares no hessian")
        return np.asarray(self.hessian(p), dtype=float)


def _antisymmetric(matrix, what: str) -> np.ndarray:
    """Read-only float copy of matrix; ValueError unless it is a finite 3x3
    matrix (or a stack of them) that is antisymmetric to 1e-14."""
    m = np.array(matrix, dtype=float)
    if (m.shape[-2:] != (3, 3) or not np.isfinite(m).all()
            or np.abs(m + np.swapaxes(m, -1, -2)).max(initial=0.0) > 1e-14):
        raise ValueError(f"{what} must be a finite antisymmetric 3x3 matrix")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class MagneticCocycle:
    """Constant antisymmetric bilinear form on the algebra (3x3 matrix), or a
    stack of them (..., 3, 3), one per sample."""

    form: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "form", _antisymmetric(self.form, "cocycle form"))

    @classmethod
    def zero(cls) -> "MagneticCocycle":
        return cls(np.zeros((3, 3)))

    @classmethod
    def planar(cls, b) -> "MagneticCocycle":
        """Cocycle b times the area form on the planar block; a stack of
        cocycles for an array b."""
        b = np.asarray(b, dtype=float)
        m = np.zeros(b.shape + (3, 3))
        m[..., 0, 1], m[..., 1, 0] = b, -b
        return cls(m)

    def pair(self, xi: np.ndarray, eta: np.ndarray):
        """B(xi, eta) = (xi @ form) @ eta on flat algebra labels (X1, X2, a)."""
        xi, eta = np.asarray(xi, dtype=float), np.asarray(eta, dtype=float)
        return _dot(_vecmat(xi, self.form), eta)

    @property
    def planar_component(self):
        """The (1,2) entry, the only one the orbit chart functions read.

        They may read it alone only for a planar cocycle. A nonzero (1,3) or
        (2,3) entry enters the bracket {nu, h}, so nu moves along the flow
        and the leaves are no longer the planes nu = const; those functions
        raise ValueError for such a cocycle rather than answer for a
        horizontal leaf.
        """
        return _scalar(self.form[..., 0, 1])


def _checked_form(Q, c, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of a quadratic form's (Q, c), validated: finite, Q an
    exactly symmetric n x n matrix and c an n-vector (n = c.size by default)."""
    Q = np.array(Q, dtype=float)
    c = np.array(c, dtype=float)
    n = c.size if n is None else n
    if Q.shape != (n, n) or c.shape != (n,):
        raise ValueError(f"Q must be {n}x{n} and c a {n}-vector, got shapes "
                         f"{Q.shape} and {c.shape}")
    if not (np.isfinite(Q).all() and np.isfinite(c).all()):
        raise ValueError("Q and c must be finite")
    if not np.array_equal(Q, Q.T):
        raise ValueError("Q must be symmetric")
    Q.flags.writeable = False
    c.flags.writeable = False
    return Q, c


@dataclass(frozen=True)
class OrbitFunction:
    """Scalar function on a flat orbit chart (rho1, rho2, theta..., lam...).

    nu labels the leaf and is not a chart coordinate. The gradient is flat;
    without a gradient callable it is a central difference (fd.GRADIENT_STEP).

    form optionally declares h(z) = 1/2 z^T Q z + c^T z + const (defined up to
    the constant), validated as quadratic_hamiltonian's (Q, c) are and stored
    read-only.
    A declared form is the gradient, Q @ z + c, so it comes with no gradient
    callable; integrate_reduced may step by it. grad also takes a stack
    (..., 2 + 2k) of charts, row i bitwise the call on row i: a declared
    form takes the stack, and a gradient callable, or the difference of
    evaluate, is of one chart and mapped over its rows.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    form: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.form is not None and self.gradient is not None:
            raise ValueError("a declared form is its own gradient")
        if self.form is not None:
            object.__setattr__(self, "form", _checked_form(*self.form))

    def grad(self, chart: np.ndarray) -> np.ndarray:
        if self.form is not None:
            Q, c = self.form
            return _matvec(Q, chart) + c
        return _map_rows(self.gradient or partial(fd.gradient, self.evaluate),
                         False, chart)


# Area matrix K: df . K . dg is the signed area of the planar parts.
_AREA = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

# Reduction by the left action gives the minus Lie-Poisson structure on the
# dual (Marsden and Ratiu, Introduction to Mechanics and Symmetry, chapter
# 13). It stays a multiplication: a bare negation can give a nan other bits.
_SIGN = -1.0


def magnetic_lie_poisson(f: DualFunction, g: DualFunction, p: np.ndarray,
                         B: MagneticCocycle):
    """Magnetic Lie-Poisson bracket {f,g}(p) = -<p,[df,dg]> - B(df,dg) at
    the flat dual point (or stack) p = (mu1, mu2, nu)."""
    p = np.asarray(p, dtype=float)
    df, dg = f.grad(p), g.grad(p)
    return _scalar(_SIGN * (_part(p, 2) * area_form(df, dg)) - B.pair(df, dg))


def bracket_function(f: DualFunction, g: DualFunction,
                     B: MagneticCocycle) -> DualFunction:
    """The bracket {f,g} packaged as a DualFunction on flat dual points p.

    {f,g}(p) = df . M . dg with M = -nu*K - B, K the area matrix
    (K[0,1] = -K[1,0] = 1). Its gradient is the closed form
    Hf^T M dg + Hg^T M^T df - area(df,dg) e3, so both inputs must declare
    hessians (ValueError otherwise); the result declares none.
    """
    if f.hessian is None or g.hessian is None:
        raise ValueError("bracket_function needs both inputs to declare a "
                         "hessian")

    def evaluate(p: np.ndarray) -> float:
        return magnetic_lie_poisson(f, g, p, B)

    def gradient(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        df, dg = f.grad(p), g.grad(p)
        M = (_SIGN * p[..., 2])[..., None, None] * _AREA - B.form
        out = (_matvec(np.swapaxes(f.hess(p), -1, -2), _matvec(M, dg))
               + _matvec(np.swapaxes(g.hess(p), -1, -2), _vecmat(df, M)))
        out[..., 2] += _SIGN * area_form(df, dg)
        return out

    return DualFunction(evaluate, gradient)


def product_function(f: DualFunction, g: DualFunction) -> DualFunction:
    """Pointwise product with the Leibniz-rule gradient."""

    def evaluate(p):
        return f.evaluate(p) * g.evaluate(p)

    def gradient(p):
        fv = np.asarray(f.evaluate(p))[..., None]
        gv = np.asarray(g.evaluate(p))[..., None]
        return fv * g.grad(p) + gv * f.grad(p)

    return DualFunction(evaluate, gradient)


def check_jacobi(fs, p: np.ndarray, B: MagneticCocycle):
    """|{{f,g},h} + {{g,h},f} + {{h,f},g}| at the flat dual point (or stack)
    p = (mu1, mu2, nu): a float, or an array of the leading shape for a
    stack. The inner brackets are bracket_function's, so every input must
    declare a hessian (ValueError otherwise); the nested bracket is then
    differentiated exactly, and the residual reads rounding.
    """
    f, g, h = fs
    total = 0.0
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        ab = bracket_function(a, b, B)
        total += magnetic_lie_poisson(ab, c, p, B)
    return abs(total)


def classify_orbit(p: np.ndarray) -> str | np.ndarray:
    """Kind of the coadjoint orbit through the dual point p = (mu1, mu2, nu):
    "point" (a fixed point) for |nu| <= 1e-12, else "plane". A str for one
    triple, an array of labels of the leading shape for a stack."""
    point = np.abs(_part(np.asarray(p, dtype=float), 2)) <= 1e-12
    if point.ndim == 0:
        return "point" if point else "plane"
    return np.where(point, "point", "plane")


def _generator_scale(nu: float, B: MagneticCocycle) -> float:
    """Coefficient c = -nu - B12 of the (magnetic) orbit form on the leaf.

    Raises ValueError for a cocycle that is not planar (see
    MagneticCocycle.planar_component).
    """
    form = B.form
    if (form[0, 2] or form[1, 2]) if form.ndim == 2 else form[..., :2, 2].any():
        raise ValueError("the orbit chart needs a planar cocycle: a nonzero "
                         "(1,3) or (2,3) entry moves the leaf height nu")
    return _SIGN * nu - B.planar_component


def orbit_symplectic_form(nu, xi: np.ndarray, eta: np.ndarray,
                          B: MagneticCocycle):
    """Magnetic orbit form -<p,[xi,eta]> - B(xi,eta) on flat generator
    labels, at any point p of the leaf at height nu (<p,[xi,eta]> reads nu
    only). nu may be an array of leaf heights, one per stacked label.

    On the extended orbit the V x V* factor carries the canonical form, which
    vanishes on pure generator directions, so it does not appear here. When
    nu = 0 and the magnetic term vanishes on the orbit tangent the orbit is a
    point and the form is trivially zero; that case emits a DegenerateForm
    warning rather than raising.
    """
    value = _SIGN * (nu * area_form(xi, eta)) - B.pair(xi, eta)
    if np.logical_and(nu == 0.0, B.planar_component == 0.0).any():
        warnings.warn("point orbit with vanishing magnetic term: form is trivially zero",
                      DegenerateForm, stacklevel=2)
    return _scalar(value)


def orbit_form_matrix(nu, B: MagneticCocycle) -> np.ndarray:
    """2x2 matrix of the orbit form on the planar generator basis of the leaf
    at height nu; a stack (..., 2, 2) for an array of heights."""
    c = _generator_scale(nu, B)
    # form(e1, e2) = -nu*area(e1,e2) - B12 = c
    out = np.zeros(np.shape(c) + (2, 2))
    out[..., 0, 1], out[..., 1, 0] = c, -c
    return out


def orbit_hamiltonian_vector_field(h: OrbitFunction, chart: np.ndarray, nu: float,
                                   B: MagneticCocycle) -> np.ndarray:
    """Chart vector X with i_X (orbit form + canonical V form) = dh at chart.

    chart is flat, on the leaf at height nu. Returns (rhodot1, rhodot2,
    thetadot..., lamdot...). On chart vectors the orbit form is
    drho1 ^ drho2 / c with c = -nu - B12 (its matrix W on generator
    labels has det W = c^2), so the planar block is
    c * (dh/drho2, -dh/drho1) and the canonical V x V* block is
    (dh/dlam, -dh/dtheta). Requires a plane orbit on which W is regular.
    chart may be a stack (..., 2 + 2k), and row i of the result is bitwise
    the call on row i.
    """
    c = _generator_scale(nu, B)
    if c * c < 1e-14:
        raise SingularForm(
            "orbit form matrix is singular: the magnetic term cancels the orbit term",
            matrix=np.array([[0.0, c], [-c, 0.0]]))
    grad = h.grad(chart)
    k = (grad.shape[-1] - 2) // 2
    return np.concatenate([c * np.stack([grad[..., 1], -grad[..., 0]], axis=-1),
                           grad[..., 2 + k:], -grad[..., 2:2 + k]], axis=-1)


def orbit_form_on_chart_vectors(nu: float, v: np.ndarray, w: np.ndarray,
                                B: MagneticCocycle) -> float:
    """Orbit-plus-canonical form on two flat chart tangents
    (rho1, rho2, theta..., lam...) of the leaf at height nu. v and w may
    also be stacks (..., 2 + 2k), broadcast against each other: the value
    is then the array of the rows' values, row i bitwise the call on row i."""
    c = _generator_scale(nu, B)
    if c == 0.0:
        raise SingularForm("orbit form is degenerate on this leaf",
                           matrix=orbit_form_matrix(nu, B))
    k = (v.shape[-1] - 2) // 2
    planar = (v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]) / c
    vth, vlam = v[..., 2:2 + k], v[..., 2 + k:]
    wth, wlam = w[..., 2:2 + k], w[..., 2 + k:]
    return _scalar(planar + _dot(vth, wlam) - _dot(vlam, wth))


def coordinate_function(index: int) -> DualFunction:
    """The coordinate function p -> p[index] with exact derivatives."""
    e = np.zeros(3)
    e[index] = 1.0
    e.flags.writeable = False

    return DualFunction(
        evaluate=lambda p: _scalar(np.asarray(p, dtype=float)[..., index]),
        gradient=lambda p: e,
        hessian=lambda p: np.zeros((3, 3)),
    )


def linear_function(xi: np.ndarray) -> DualFunction:
    """The linear function p -> <p, xi> generated by a flat algebra element;
    for a stack of labels xi, sample i pairs with xi[i]."""
    d = np.array(xi, dtype=float)
    d.flags.writeable = False
    return DualFunction(
        evaluate=lambda p: pairing(p, d),
        gradient=lambda p: d,
        hessian=lambda p: np.zeros((3, 3)),
    )
