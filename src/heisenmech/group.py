"""Lie-group structure of the Heisenberg group in its global chart.

The group is R^2 x R with multiplication

    (u, alpha) * (v, beta) = (u + v, alpha + beta + area_form(u, v) / 2),

where ``area_form(u, v) = u1*v2 - u2*v1``. All elements live in a single
global chart, so group, algebra, and dual-algebra elements are all triples
of reals and the exponential map is the identity on coordinates.

Every kernel here takes flat float triples: a group element
g = (u1, u2, alpha), an algebra element or chart tangent xi = (X1, X2, a) and
a dual element p = (mu1, mu2, nu). Each argument is one (3,) array or a stack
of shape (..., 3), component on the last axis; stacks broadcast against each
other and against single triples. A kernel returns a triple (or a 3x3
matrix) per element, and a scalar kernel (area_form, pairing) returns a
Python float for single triples and an array of the leading shape for
stacks. Row i of a stacked call equals the call on row i bitwise. The frozen
GroupElement, AlgebraElement and CoAlgebraElement dataclasses are the API
edge: they validate a fixed parameter (a momentum level, a translation) and
hand it in via as_array().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GroupElement",
    "AlgebraElement",
    "CoAlgebraElement",
    "area_form",
    "identity",
    "multiply",
    "inverse",
    "to_matrix",
    "conjugate",
    "adjoint",
    "bracket",
    "coadjoint",
    "coad_star",
    "exp",
    "pairing",
    "tangent_right_translation",
]


def _as_vec2(value) -> np.ndarray:
    v = np.array(value, dtype=float)
    if v.shape != (2,):
        raise ValueError(f"expected a planar vector of shape (2,), got {v.shape}")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class GroupElement:
    """Group element (u, alpha) with u in the plane and alpha the center height."""

    u: np.ndarray
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "u", _as_vec2(self.u))
        object.__setattr__(self, "alpha", float(self.alpha))

    def as_array(self) -> np.ndarray:
        return np.array([self.u[0], self.u[1], self.alpha])


@dataclass(frozen=True)
class AlgebraElement:
    """Lie algebra element (X, a); also used for chart tangent vectors."""

    X: np.ndarray
    a: float

    def __post_init__(self):
        object.__setattr__(self, "X", _as_vec2(self.X))
        object.__setattr__(self, "a", float(self.a))

    def as_array(self) -> np.ndarray:
        return np.array([self.X[0], self.X[1], self.a])


@dataclass(frozen=True)
class CoAlgebraElement:
    """Dual algebra element (mu, nu): mu pairs with X, nu with the center."""

    mu: np.ndarray
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_vec2(self.mu))
        object.__setattr__(self, "nu", float(self.nu))

    def as_array(self) -> np.ndarray:
        return np.array([self.mu[0], self.mu[1], self.nu])


def _part(x: np.ndarray, i: int):
    """Component i of the triples x: a numpy scalar for one triple, so that
    one triple costs scalar arithmetic, and an array of the leading shape
    for a stack."""
    return x[i] if x.ndim == 1 else x[..., i]


def _scalar(x):
    """A Python float for a single value, the array itself for a stack."""
    return float(x) if getattr(x, "ndim", 0) == 0 else x


def _map_rows(f: Callable[..., np.ndarray], stacked: bool,
              *points: np.ndarray) -> np.ndarray:
    """f on points, each one array or a stack (..., n) of one leading shape,
    as a float array: one call when f takes stacks (stacked) or the points
    are single; otherwise f, a callable of one point per argument, mapped
    over the rows, row i of the result f of row i of each stack. A stack of
    no rows keeps the trailing shape of f's result, read off one call on
    zero points. The types that declare whether their callables take stacks
    (MagneticField, HamiltonianSpec, FiberMap, OrbitFunction) call it."""
    points = [np.asarray(p, dtype=float) for p in points]
    if stacked or points[0].ndim == 1:
        return np.asarray(f(*points), dtype=float)
    lead = points[0].shape[:-1]
    if 0 in lead:
        return np.empty(lead + np.shape(f(*(np.zeros(p.shape[-1])
                                              for p in points))))
    rows = zip(*(p.reshape(-1, p.shape[-1]) for p in points))
    out = np.array([np.asarray(f(*row), dtype=float) for row in rows])
    return out.reshape(lead + out.shape[1:])


# The three products below take ndarray.dot when no operand is stacked: it
# makes the same BLAS call (dot or gemv) as numpy's stacked product, and as a
# method it skips np.dot's __array_function__ dispatch.

def _dot(a: np.ndarray, b: np.ndarray):
    """Last-axis dot product, stacked: row i is bitwise a[i] @ b[i], since
    numpy hands each (1, n) @ (n, 1) item to the same BLAS dot. A Python
    float for two single vectors."""
    if a.ndim == b.ndim == 1:
        return float(a.dot(b))
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x on stacks of matrices and vectors, row i bitwise A[i] @ x[i]."""
    if A.ndim == 2 and x.ndim == 1:
        return A.dot(x)
    return np.matmul(A, x[..., None])[..., 0]


def _vecmat(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x @ A on stacks of vectors and matrices, row i bitwise x[i] @ A[i]."""
    if x.ndim == 1 and A.ndim == 2:
        return x.dot(A)
    return np.matmul(x[..., None, :], A)[..., 0, :]


def _with_center(x, shift) -> np.ndarray:
    """Float copy of the triples x, broadcast against shift, with shift added
    to the center (last) component."""
    x = np.asarray(x, dtype=float)
    out = np.empty(np.shape(shift) + (3,))
    out[...] = x
    out[..., 2] = _part(x, 2) + shift
    return out


def _area(u: np.ndarray, v: np.ndarray):
    return _part(u, 0) * _part(v, 1) - _part(u, 1) * _part(v, 0)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product a x b of the triples a and b, stacked; its third
    component is _area(a, b). Each component is one elementwise expression
    on both operands, so row i of a stacked call is bitwise the call on
    row i."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = _part(a, 1) * _part(b, 2) - _part(a, 2) * _part(b, 1)
    out[..., 1] = _part(a, 2) * _part(b, 0) - _part(a, 0) * _part(b, 2)
    out[..., 2] = _area(a, b)
    return out


def area_form(u, v):
    """Signed area u1*v2 - u2*v1 of the planar parts (the first two
    components) of u and v."""
    return _scalar(_area(np.asarray(u, dtype=float), np.asarray(v, dtype=float)))


def identity() -> np.ndarray:
    return np.zeros(3)


def multiply(g, h) -> np.ndarray:
    """Group product; the center picks up half the signed area of the planar parts."""
    g, h = np.asarray(g, dtype=float), np.asarray(h, dtype=float)
    out = g + h
    out[..., 2] = _part(out, 2) + 0.5 * _area(g, h)
    return out


def inverse(g) -> np.ndarray:
    return -np.asarray(g, dtype=float)


def to_matrix(g) -> np.ndarray:
    """Upper-triangular unipotent representation, shape (..., 3, 3).

    The (1,3) entry is alpha + u1*u2/2 rather than alpha itself; this offset is
    what turns matrix multiplication into the half-area group law. The map is a
    homomorphism: to_matrix(multiply(g, h)) == to_matrix(g) @ to_matrix(h).
    """
    g = np.asarray(g, dtype=float)
    u1, u2, alpha = _part(g, 0), _part(g, 1), _part(g, 2)
    out = np.zeros(g.shape[:-1] + (3, 3))
    out[..., (0, 1, 2), (0, 1, 2)] = 1.0
    out[..., 0, 1], out[..., 1, 2] = u1, u2
    out[..., 0, 2] = alpha + 0.5 * u1 * u2
    return out


def conjugate(g, h) -> np.ndarray:
    """Inner automorphism g*h*g^-1 = (v, beta + area_form(u, v)) for g = (u, alpha),
    h = (v, beta)."""
    return _with_center(h, area_form(g, h))


def adjoint(g, xi) -> np.ndarray:
    """Adjoint action Ad(g): the derivative of conjugate(g, .) at the identity."""
    return _with_center(xi, area_form(g, xi))


def bracket(xi, eta) -> np.ndarray:
    """Lie bracket: planar part zero, center part the area form of the planar parts."""
    area = area_form(xi, eta)
    out = np.zeros(np.shape(area) + (3,))
    out[..., 2] = area
    return out


def coadjoint(g, p) -> np.ndarray:
    """Coadjoint action CoAd(g) for g = (u, alpha): (mu, nu) -> (mu + nu*J(u), nu),
    where J(u) = (u2, -u1) is the clockwise quarter turn, area_form(u,v) = J(u).v.

    This is the left coadjoint action dual to the adjoint action of the inverse
    element: pairing(coadjoint(g, p), xi) == pairing(p, adjoint(inverse(g), xi)).
    It is a left action, coadjoint(g, coadjoint(h, p)) == coadjoint(multiply(g, h), p),
    and fixes the center charge nu, so nu != 0 orbits are the affine planes at
    height nu while nu = 0 points are fixed.
    """
    g, p = np.asarray(g, dtype=float), np.asarray(p, dtype=float)
    nu = _part(p, 2)
    mu1 = _part(p, 0) + nu * _part(g, 1)
    out = np.empty(mu1.shape + (3,))
    out[..., 0], out[..., 1] = mu1, _part(p, 1) - nu * _part(g, 0)
    out[..., 2] = nu
    return out


def coad_star(xi, p) -> np.ndarray:
    """Infinitesimal coadjoint operator ad*(xi) determined by the bracket pairing.

    Satisfies pairing(coad_star(xi, p), eta) == pairing(p, bracket(xi, eta)) and
    equals minus the derivative of t -> coadjoint(exp(t*xi), p) at t = 0 (the sign
    is the usual one for infinitesimal generators of a left action).
    """
    xi, p = np.asarray(xi, dtype=float), np.asarray(p, dtype=float)
    x1 = -_part(p, 2) * _part(xi, 1)
    out = np.zeros(x1.shape + (3,))
    out[..., 0], out[..., 1] = x1, _part(p, 2) * _part(xi, 0)
    return out


def exp(xi) -> np.ndarray:
    """Exponential map; the identity on chart coordinates for this group."""
    return np.array(xi, dtype=float)


def pairing(p, xi):
    """Natural dual pairing <p, xi> = mu.X + nu*a."""
    p, xi = np.asarray(p, dtype=float), np.asarray(xi, dtype=float)
    return _scalar(_dot(p[..., :2], xi[..., :2]) + _part(p, 2) * _part(xi, 2))


def tangent_right_translation(g, v, h) -> np.ndarray:
    """Push a chart tangent vector at g through right translation by h.

    Right translation is affine in the chart, so the derivative does not depend
    on where g sits: v = (X, a) -> (X, a + area_form(X, w)/2) for h = (w, beta).
    With h = inverse(g) this right-trivializes a tangent vector at g back to
    the identity.
    """
    del g  # the derivative of right translation is base-point independent
    return _with_center(v, 0.5 * area_form(v, h))
