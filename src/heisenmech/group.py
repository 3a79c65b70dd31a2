"""Lie-group structure of the Heisenberg group in its global chart.

The group is R^2 x R with multiplication

    (u, alpha) * (v, beta) = (u + v, alpha + beta + area_form(u, v) / 2),

where ``area_form(u, v) = u1*v2 - u2*v1``. All elements live in a single
global chart, so group, algebra, and dual-algebra elements are all triples
of reals and the exponential map is the identity on coordinates.

Every kernel here takes and returns flat (3,) float arrays: a group element
g = (u1, u2, alpha), an algebra element or chart tangent xi = (X1, X2, a) and
a dual element p = (mu1, mu2, nu). The frozen GroupElement, AlgebraElement
and CoAlgebraElement dataclasses are the API edge: they validate a fixed
parameter (a momentum level, a translation) and hand it in via as_array().
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "log",
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


def area_form(u, v) -> float:
    """Signed area u1*v2 - u2*v1 of the planar parts (the first two
    components) of u and v."""
    return float(u[0] * v[1] - u[1] * v[0])


def identity() -> np.ndarray:
    return np.zeros(3)


def multiply(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Group product; the center picks up half the signed area of the planar parts."""
    return np.array([g[0] + h[0], g[1] + h[1],
                     g[2] + h[2] + 0.5 * area_form(g, h)])


def inverse(g: np.ndarray) -> np.ndarray:
    return -np.asarray(g, dtype=float)


def to_matrix(g: np.ndarray) -> np.ndarray:
    """Upper-triangular unipotent representation.

    The (1,3) entry is alpha + u1*u2/2 rather than alpha itself; this offset is
    what turns matrix multiplication into the half-area group law. The map is a
    homomorphism: to_matrix(multiply(g, h)) == to_matrix(g) @ to_matrix(h).
    """
    u1, u2, alpha = g
    return np.array([
        [1.0, u1, alpha + 0.5 * u1 * u2],
        [0.0, 1.0, u2],
        [0.0, 0.0, 1.0],
    ])


def conjugate(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Inner automorphism g*h*g^-1 = (v, beta + area_form(u, v)) for g = (u, alpha),
    h = (v, beta)."""
    return np.array([h[0], h[1], h[2] + area_form(g, h)])


def adjoint(g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Adjoint action Ad(g): the derivative of conjugate(g, .) at the identity."""
    return np.array([xi[0], xi[1], xi[2] + area_form(g, xi)])


def bracket(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Lie bracket: planar part zero, center part the area form of the planar parts."""
    return np.array([0.0, 0.0, area_form(xi, eta)])


def coadjoint(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Coadjoint action CoAd(g) for g = (u, alpha): (mu, nu) -> (mu + nu*J(u), nu),
    where J(u) = (u2, -u1) is the clockwise quarter turn, area_form(u,v) = J(u).v.

    This is the left coadjoint action dual to the adjoint action of the inverse
    element: pairing(coadjoint(g, p), xi) == pairing(p, adjoint(inverse(g), xi)).
    It is a left action, coadjoint(g, coadjoint(h, p)) == coadjoint(multiply(g, h), p),
    and fixes the center charge nu, so nu != 0 orbits are the affine planes at
    height nu while nu = 0 points are fixed.
    """
    return np.array([p[0] + p[2] * g[1], p[1] - p[2] * g[0], p[2]])


def coad_star(xi: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Infinitesimal coadjoint operator ad*(xi) determined by the bracket pairing.

    Satisfies pairing(coad_star(xi, p), eta) == pairing(p, bracket(xi, eta)) and
    equals minus the derivative of t -> coadjoint(exp(t*xi), p) at t = 0 (the sign
    is the usual one for infinitesimal generators of a left action).
    """
    return np.array([-p[2] * xi[1], p[2] * xi[0], 0.0])


def exp(xi: np.ndarray) -> np.ndarray:
    """Exponential map; the identity on chart coordinates for this group."""
    return np.array(xi, dtype=float)


def log(g: np.ndarray) -> np.ndarray:
    """Inverse of exp; also the identity on chart coordinates."""
    return np.array(g, dtype=float)


def pairing(p: np.ndarray, xi: np.ndarray) -> float:
    """Natural dual pairing <p, xi> = mu.X + nu*a."""
    return float(p[:2] @ xi[:2] + p[2] * xi[2])


def tangent_right_translation(g: np.ndarray, v: np.ndarray,
                              h: np.ndarray) -> np.ndarray:
    """Push a chart tangent vector at g through right translation by h.

    Right translation is affine in the chart, so the derivative does not depend
    on where g sits: v = (X, a) -> (X, a + area_form(X, w)/2) for h = (w, beta).
    With h = inverse(g) this right-trivializes a tangent vector at g back to
    the identity.
    """
    del g  # the derivative of right translation is base-point independent
    return np.array([v[0], v[1], v[2] + 0.5 * area_form(v, h)])
