"""Right-invariant metric, center momentum map, mechanical connection, curvature.

The center R acts on the group by right translation; the quotient is the plane.
The metric here is the Euclidean pairing of right-trivialized tangent vectors,
which makes the vertical direction the center and yields an explicit connection
one-form whose curvature is the area form of the planar components. Scaled by a
center charge nu, that curvature is the closed two-form feeding the magnetic
terms elsewhere in the package.

Base points and tangent vectors are flat (3,) float arrays, g = (u1, u2, alpha)
and v = (X1, X2, a), as in heisenmech.group. Only nu_component, the documented
cocycle entry point, takes the GroupElement and AlgebraElement edge types.
"""

from __future__ import annotations

import numpy as np

from .group import (AlgebraElement, GroupElement, area_form, inverse,
                    tangent_right_translation)

__all__ = [
    "right_invariant_metric",
    "locked_inertia",
    "center_momentum_map",
    "mechanical_connection",
    "curvature",
    "nu_component",
]


def right_invariant_metric(g: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Metric at g: the Euclidean product of the right-trivializations of v, w.

    Expanded in chart components with g = (u, alpha), v = (X, a), w = (Y, b):
    (X.Y) + ab - a*area(Y,u)/2 - b*area(X,u)/2 + area(X,u)*area(Y,u)/4.
    """
    wx = area_form(v, g)
    wy = area_form(w, g)
    return float(v[:2] @ w[:2] + v[2] * w[2] - 0.5 * v[2] * wy - 0.5 * w[2] * wx
                 + 0.25 * wx * wy)


def locked_inertia(g: np.ndarray, a: float, b: float) -> float:
    """Locked inertia pairing of two center directions; the constant a*b.

    The vertical generator of the center element a at any g is the chart
    vector ((0,0), a), whose right-trivialization is itself, so the inertia
    tensor is base-point independent.
    """
    del g
    return float(a * b)


def center_momentum_map(g: np.ndarray, v: np.ndarray, b: float) -> float:
    """Momentum of the tangent vector v paired against the center direction b.

    Defined by pairing v with the vertical generator through the metric:
    equals right_invariant_metric(g, v, ((0,0), b)).
    """
    return float((v[2] - 0.5 * area_form(v, g)) * b)


def mechanical_connection(g: np.ndarray, v: np.ndarray) -> float:
    """Connection one-form: inertia-inverse of the center momentum of v.

    The inertia is the constant 1 on the one-dimensional center, so this is
    just a - area_form(X, u)/2 for v = (X, a), g = (u, alpha). Vertical
    vectors ((0,0), a) map to a (the connection axiom), and the value is
    invariant under right center translations.
    """
    return float(v[2] - 0.5 * area_form(v, g))


def curvature(g: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Curvature two-form of the mechanical connection: area_form(X, Y) for
    v = (X, a), w = (Y, b).

    Horizontal and independent of the base point; equals the exterior
    derivative of the connection one-form on constant-coefficient extensions.
    """
    del g
    return area_form(v, w)


def nu_component(nu: float, g: GroupElement, v: AlgebraElement,
                 w: AlgebraElement) -> float:
    """The nu-scaled curvature, an ordinary closed two-form on the group."""
    return float(nu) * curvature(g.as_array(), v.as_array(), w.as_array())


def right_trivialize(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Right-trivialization of a chart tangent at g (translation to identity)."""
    return tangent_right_translation(g, v, inverse(g))
