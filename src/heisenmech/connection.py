"""Right-invariant metric, center momentum map, mechanical connection, curvature.

The center R acts on the group by right translation; the quotient is the plane.
The metric here is the Euclidean pairing of right-trivialized tangent vectors,
which makes the vertical direction the center and yields an explicit connection
one-form whose curvature is the area form of the planar components. Scaled by a
center charge nu, that curvature is the closed two-form feeding the magnetic
terms elsewhere in the package.
"""

from __future__ import annotations

from .group import (AlgebraElement, GroupElement, area_form,
                    tangent_right_translation)

__all__ = [
    "right_invariant_metric",
    "locked_inertia",
    "center_momentum_map",
    "mechanical_connection",
    "curvature",
    "nu_component",
]


def right_invariant_metric(g: GroupElement, v: AlgebraElement,
                           w: AlgebraElement) -> float:
    """Metric at g: the Euclidean product of the right-trivializations of v, w.

    Expanded in chart components with u = g.u, v = (X, a), w = (Y, b):
    (X.Y) + ab - a*area(Y,u)/2 - b*area(X,u)/2 + area(X,u)*area(Y,u)/4.
    """
    wx = area_form(v.X, g.u)
    wy = area_form(w.X, g.u)
    return float(v.X @ w.X + v.a * w.a - 0.5 * v.a * wy - 0.5 * w.a * wx
                 + 0.25 * wx * wy)


def locked_inertia(g: GroupElement, a: float, b: float) -> float:
    """Locked inertia pairing of two center directions; the constant a*b.

    The vertical generator of the center element a at any g is the chart
    vector ((0,0), a), whose right-trivialization is itself, so the inertia
    tensor is base-point independent.
    """
    del g
    return float(a * b)


def center_momentum_map(g: GroupElement, v: AlgebraElement, b: float) -> float:
    """Momentum of the tangent vector v paired against the center direction b.

    Defined by pairing v with the vertical generator through the metric:
    equals right_invariant_metric(g, v, ((0,0), b)).
    """
    return float((v.a - 0.5 * area_form(v.X, g.u)) * b)


def mechanical_connection(g: GroupElement, v: AlgebraElement) -> float:
    """Connection one-form: inertia-inverse of the center momentum of v.

    The inertia is the constant 1 on the one-dimensional center, so this is
    just v.a - area_form(v.X, g.u)/2. Vertical vectors ((0,0), a) map to a
    (the connection axiom), and the value is invariant under right center
    translations.
    """
    return float(v.a - 0.5 * area_form(v.X, g.u))


def curvature(g: GroupElement, v: AlgebraElement, w: AlgebraElement) -> float:
    """Curvature two-form of the mechanical connection: area_form(v.X, w.X).

    Horizontal and independent of the base point; equals the exterior
    derivative of the connection one-form on constant-coefficient extensions.
    """
    del g
    return area_form(v.X, w.X)


def nu_component(nu: float, g: GroupElement, v: AlgebraElement,
                 w: AlgebraElement) -> float:
    """The nu-scaled curvature, an ordinary closed two-form on the group."""
    return float(nu) * curvature(g, v, w)


def right_trivialize(g: GroupElement, v: AlgebraElement) -> AlgebraElement:
    """Right-trivialization of a chart tangent at g (translation to identity)."""
    return tangent_right_translation(g, v, GroupElement(-g.u, -g.alpha))
