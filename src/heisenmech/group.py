"""Lie-group structure of the Heisenberg group in its global chart.

The group is R^2 x R with multiplication

    (u, alpha) * (v, beta) = (u + v, alpha + beta + area_form(u, v) / 2),

where ``area_form(u, v) = u1*v2 - u2*v1``. All elements live in a single
global chart, so group, algebra, and dual-algebra elements are all triples
of reals and the exponential map is the identity on coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupElement",
    "AlgebraElement",
    "CoAlgebraElement",
    "vec2",
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


def vec2(x1: float, x2: float) -> np.ndarray:
    """Build an immutable planar vector."""
    v = np.array([float(x1), float(x2)])
    v.flags.writeable = False
    return v


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
    """Signed area u1*v2 - u2*v1 of two planar vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u[0] * v[1] - u[1] * v[0])


def _rot(u: np.ndarray) -> np.ndarray:
    """Clockwise quarter turn J(u) = (u2, -u1), so that area_form(u,v) = J(u).v."""
    return np.array([u[1], -u[0]])


def identity() -> GroupElement:
    return GroupElement(vec2(0.0, 0.0), 0.0)


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product; the center picks up half the signed area of the planar parts."""
    return GroupElement(g.u + h.u, g.alpha + h.alpha + 0.5 * area_form(g.u, h.u))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-g.u, -g.alpha)


def to_matrix(g: GroupElement) -> np.ndarray:
    """Upper-triangular unipotent representation.

    The (1,3) entry is alpha + u1*u2/2 rather than alpha itself; this offset is
    what turns matrix multiplication into the half-area group law. The map is a
    homomorphism: to_matrix(multiply(g, h)) == to_matrix(g) @ to_matrix(h).
    """
    u1, u2 = g.u
    return np.array([
        [1.0, u1, g.alpha + 0.5 * u1 * u2],
        [0.0, 1.0, u2],
        [0.0, 0.0, 1.0],
    ])


def conjugate(g: GroupElement, h: GroupElement) -> GroupElement:
    """Inner automorphism g*h*g^-1 = (h.u, h.alpha + area_form(g.u, h.u))."""
    return GroupElement(h.u, h.alpha + area_form(g.u, h.u))


def adjoint(g: GroupElement, xi: AlgebraElement) -> AlgebraElement:
    """Adjoint action Ad(g): the derivative of conjugate(g, .) at the identity."""
    return AlgebraElement(xi.X, xi.a + area_form(g.u, xi.X))


def bracket(xi: AlgebraElement, eta: AlgebraElement) -> AlgebraElement:
    """Lie bracket: planar part zero, center part the area form of the planar parts."""
    return AlgebraElement(vec2(0.0, 0.0), area_form(xi.X, eta.X))


def coadjoint(g: GroupElement, p: CoAlgebraElement) -> CoAlgebraElement:
    """Coadjoint action CoAd(g): (mu, nu) -> (mu + nu*J(g.u), nu).

    This is the left coadjoint action dual to the adjoint action of the inverse
    element: pairing(coadjoint(g, p), xi) == pairing(p, adjoint(inverse(g), xi)).
    It is a left action, coadjoint(g, coadjoint(h, p)) == coadjoint(multiply(g, h), p),
    and fixes the center charge nu, so nu != 0 orbits are the affine planes at
    height nu while nu = 0 points are fixed.
    """
    return CoAlgebraElement(p.mu + p.nu * _rot(g.u), p.nu)


def coad_star(xi: AlgebraElement, p: CoAlgebraElement) -> CoAlgebraElement:
    """Infinitesimal coadjoint operator ad*(xi) determined by the bracket pairing.

    Satisfies pairing(coad_star(xi, p), eta) == pairing(p, bracket(xi, eta)) and
    equals minus the derivative of t -> coadjoint(exp(t*xi), p) at t = 0 (the sign
    is the usual one for infinitesimal generators of a left action).
    """
    return CoAlgebraElement(p.nu * np.array([-xi.X[1], xi.X[0]]), 0.0)


def exp(xi: AlgebraElement) -> GroupElement:
    """Exponential map; the identity on chart coordinates for this group."""
    return GroupElement(xi.X, xi.a)


def log(g: GroupElement) -> AlgebraElement:
    """Inverse of exp; also the identity on chart coordinates."""
    return AlgebraElement(g.u, g.alpha)


def pairing(p: CoAlgebraElement, xi: AlgebraElement) -> float:
    """Natural dual pairing <p, xi> = mu.X + nu*a."""
    return float(p.mu @ xi.X + p.nu * xi.a)


def tangent_right_translation(g: GroupElement, v: AlgebraElement,
                              h: GroupElement) -> AlgebraElement:
    """Push a chart tangent vector at g through right translation by h.

    Right translation is affine in the chart, so the derivative does not depend
    on where g sits: (X, a) -> (X, a + area_form(X, h.u)/2). With h = inverse(g)
    this right-trivializes a tangent vector at g back to the identity.
    """
    del g  # the derivative of right translation is base-point independent
    return AlgebraElement(v.X, v.a + 0.5 * area_form(v.X, h.u))
