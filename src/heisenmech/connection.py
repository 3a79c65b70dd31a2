"""Right-invariant metric, center momentum map, mechanical connection, curvature.

The center R acts on the group by right translation; the quotient is the plane.
The metric here is the Euclidean pairing of right-trivialized tangent vectors,
which makes the vertical direction the center and yields an explicit connection
one-form whose curvature is the area form of the planar components. Scaled by a
center charge nu, that curvature is the closed two-form feeding the magnetic
terms elsewhere in the package.

Base points and tangent vectors are flat float triples, g = (u1, u2, alpha)
and v = (X1, X2, a), as in heisenmech.group: one (3,) array or a stack of
shape (..., 3) with the component on the last axis. The scalar kernels return
a Python float for single triples and an array of the leading shape for
stacks, each row bitwise the single call. Only nu_component, the documented
cocycle entry point, takes the GroupElement and AlgebraElement edge types.
"""

from __future__ import annotations

import numpy as np

from .group import (AlgebraElement, GroupElement, _dot, _part, _scalar,
                    area_form, inverse, tangent_right_translation)

__all__ = [
    "right_invariant_metric",
    "locked_inertia",
    "center_momentum_map",
    "mechanical_connection",
    "curvature",
    "nu_component",
]


def right_invariant_metric(g, v, w):
    """Metric at g: the Euclidean product of the right-trivializations of v, w.

    Expanded in chart components with g = (u, alpha), v = (X, a), w = (Y, b):
    (X.Y) + ab - a*area(Y,u)/2 - b*area(X,u)/2 + area(X,u)*area(Y,u)/4.
    """
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    wx = area_form(v, g)
    wy = area_form(w, g)
    a, b = _part(v, 2), _part(w, 2)
    return _scalar(_dot(v[..., :2], w[..., :2]) + a * b - 0.5 * a * wy
                   - 0.5 * b * wx + 0.25 * wx * wy)


def locked_inertia(g, a, b):
    """Locked inertia pairing of two center directions; the constant a*b.

    The vertical generator of the center element a at any g is the chart
    vector ((0,0), a), whose right-trivialization is itself, so the inertia
    tensor is base-point independent.
    """
    del g
    return _scalar(np.multiply(a, b))


def center_momentum_map(g, v, b):
    """Momentum of the tangent vector v paired against the center direction b.

    Defined by pairing v with the vertical generator through the metric:
    equals right_invariant_metric(g, v, ((0,0), b)).
    """
    return _scalar((_part(np.asarray(v, dtype=float), 2)
                    - 0.5 * area_form(v, g)) * b)


def mechanical_connection(g, v):
    """Connection one-form: inertia-inverse of the center momentum of v.

    The inertia is the constant 1 on the one-dimensional center, so this is
    just a - area_form(X, u)/2 for v = (X, a), g = (u, alpha). Vertical
    vectors ((0,0), a) map to a (the connection axiom), and the value is
    invariant under right center translations.
    """
    return _scalar(_part(np.asarray(v, dtype=float), 2) - 0.5 * area_form(v, g))


def curvature(g, v, w):
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


def right_trivialize(g, v) -> np.ndarray:
    """Right-trivialization of a chart tangent at g (translation to identity)."""
    return tangent_right_translation(g, v, inverse(g))
