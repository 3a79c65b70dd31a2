"""Magnetic Lie-Poisson brackets and coadjoint-orbit symplectic structure.

The dual algebra is coordinatized as (mu1, mu2, nu). For nu != 0 the coadjoint
orbit through (mu, nu) is the whole plane R^2 x {nu}; for nu = 0 it is the
single point (mu, 0). A constant magnetic cocycle (an antisymmetric bilinear
form on the algebra) twists both the bracket and the orbit form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import fd
from .errors import DegenerateForm, SingularForm
from .group import AlgebraElement, CoAlgebraElement, bracket, pairing

__all__ = [
    "DualFunction",
    "MagneticCocycle",
    "OrbitPoint",
    "OrbitDescriptor",
    "OrbitFunction",
    "JacobiResult",
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
    """Scalar function on the dual algebra with an optional analytic gradient.

    The gradient is the functional derivative: the algebra element delta with
    pairing(w, delta) = Df(p) . w for every direction w. When no gradient
    callable is supplied it falls back to central finite differences with step
    fd.GRADIENT_STEP, and gradient_is_analytic reports False so downstream
    checks can relax their tolerances. The optional hessian (the 3x3
    derivative matrix of the gradient) enables analytic gradients of nested
    brackets.
    """

    evaluate: Callable[[CoAlgebraElement], float]
    gradient: Callable[[CoAlgebraElement], AlgebraElement] | None = None
    hessian: Callable[[CoAlgebraElement], np.ndarray] | None = None

    @property
    def gradient_is_analytic(self) -> bool:
        return self.gradient is not None

    def grad(self, p: CoAlgebraElement) -> AlgebraElement:
        if self.gradient is not None:
            return self.gradient(p)
        arr = fd.gradient(lambda x: self.evaluate(_dual(x)), p.as_array())
        return AlgebraElement(arr[:2], arr[2])

    def hess(self, p: CoAlgebraElement) -> np.ndarray:
        if self.hessian is not None:
            return np.asarray(self.hessian(p), dtype=float)
        return fd.jacobian(lambda x: self.grad(_dual(x)).as_array(),
                           p.as_array(), fd.GRADIENT_STEP)


def _dual(arr: np.ndarray) -> CoAlgebraElement:
    return CoAlgebraElement(arr[:2], arr[2])


@dataclass(frozen=True)
class MagneticCocycle:
    """Constant antisymmetric bilinear form on the algebra (3x3 matrix)."""

    form: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.form, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("cocycle form must be a 3x3 matrix")
        if np.max(np.abs(m + m.T)) > 1e-14:
            raise ValueError("cocycle form must be antisymmetric")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "form", m)

    @classmethod
    def zero(cls) -> "MagneticCocycle":
        return cls(np.zeros((3, 3)))

    @classmethod
    def planar(cls, b: float) -> "MagneticCocycle":
        """Cocycle b times the area form on the planar block."""
        m = np.zeros((3, 3))
        m[0, 1], m[1, 0] = b, -b
        return cls(m)

    def pair(self, xi: AlgebraElement, eta: AlgebraElement) -> float:
        return float(xi.as_array() @ self.form @ eta.as_array())

    @property
    def planar_component(self) -> float:
        """The (1,2) entry, the only one the orbit geometry sees."""
        return float(self.form[0, 1])


@dataclass(frozen=True)
class OrbitPoint:
    """Point of the extended orbit O x V x V*: rho-chart plus (theta, lam)."""

    rho: np.ndarray
    nu: float
    theta: np.ndarray = ()
    lam: np.ndarray = ()

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float).reshape(2).copy()
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float)).copy()
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float)).copy()
        if theta.size == 0:
            theta = np.zeros(0)
        if lam.size == 0:
            lam = np.zeros(0)
        if theta.shape != lam.shape:
            raise ValueError("theta and lam must have the same dimension")
        for a in (rho, theta, lam):
            a.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "lam", lam)

    @property
    def k(self) -> int:
        return self.theta.size

    def as_array(self) -> np.ndarray:
        """Chart coordinates (rho1, rho2, theta..., lam...); nu is a leaf label."""
        return np.concatenate([self.rho, self.theta, self.lam])

    def replace_chart(self, arr: np.ndarray) -> "OrbitPoint":
        k = self.k
        return OrbitPoint(arr[:2], self.nu, arr[2:2 + k], arr[2 + k:])


@dataclass(frozen=True)
class OrbitDescriptor:
    """Result of classify_orbit: a fixed point or an affine plane."""

    kind: str  # "point" or "plane"
    mu: np.ndarray | None
    nu: float


@dataclass(frozen=True)
class OrbitFunction:
    """Scalar function on the extended orbit chart with optional gradient.

    The gradient is flat: (d/drho1, d/drho2, d/dtheta..., d/dlam...).
    """

    evaluate: Callable[[OrbitPoint], float]
    gradient: Callable[[OrbitPoint], np.ndarray] | None = None

    @property
    def gradient_is_analytic(self) -> bool:
        return self.gradient is not None

    def grad(self, p: OrbitPoint) -> np.ndarray:
        if self.gradient is not None:
            return np.asarray(self.gradient(p), dtype=float)
        return fd.gradient(lambda x: self.evaluate(p.replace_chart(x)),
                           p.as_array())


class JacobiResult(NamedTuple):
    """Cyclic-sum residual together with the tolerance that applies to it."""

    residual: float
    tolerance: float


def _sign(sign: str) -> float:
    if sign == "minus":
        return -1.0
    if sign == "plus":
        return 1.0
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def magnetic_lie_poisson(f: DualFunction, g: DualFunction, p: CoAlgebraElement,
                         B: MagneticCocycle, sign: str = "minus") -> float:
    """Magnetic Lie-Poisson bracket {f,g}(p) = +-<p,[df,dg]> - B(df,dg)."""
    df, dg = f.grad(p), g.grad(p)
    return _sign(sign) * pairing(p, bracket(df, dg)) - B.pair(df, dg)


def bracket_function(f: DualFunction, g: DualFunction, B: MagneticCocycle,
                     sign: str = "minus") -> DualFunction:
    """The bracket {f,g} packaged as a DualFunction.

    When both inputs carry analytic gradients and hessians the result gets an
    analytic gradient too (differentiating the bracket by the product rule),
    which is what makes nested Jacobi evaluations accurate to 1e-9.
    """
    s = _sign(sign)

    def evaluate(p: CoAlgebraElement) -> float:
        return magnetic_lie_poisson(f, g, p, B, sign)

    analytic = (f.gradient is not None and f.hessian is not None
                and g.gradient is not None and g.hessian is not None)
    if not analytic:
        return DualFunction(evaluate)

    def gradient(p: CoAlgebraElement) -> AlgebraElement:
        df, dg = f.grad(p), g.grad(p)
        Hf, Hg = f.hess(p), g.hess(p)
        out = np.empty(3)
        for i in range(3):
            w = np.zeros(3)
            w[i] = 1.0
            dfw = AlgebraElement(Hf[:, i][:2], Hf[:, i][2])
            dgw = AlgebraElement(Hg[:, i][:2], Hg[:, i][2])
            term = s * pairing(_dual(w), bracket(df, dg))
            term += s * pairing(p, bracket(dfw, dg)) + s * pairing(p, bracket(df, dgw))
            term -= B.pair(dfw, dg) + B.pair(df, dgw)
            out[i] = term
        return AlgebraElement(out[:2], out[2])

    return DualFunction(evaluate, gradient)


def product_function(f: DualFunction, g: DualFunction) -> DualFunction:
    """Pointwise product with the Leibniz-rule gradient."""

    def evaluate(p):
        return f.evaluate(p) * g.evaluate(p)

    if f.gradient is None or g.gradient is None:
        return DualFunction(evaluate)

    def gradient(p):
        arr = (f.evaluate(p) * g.grad(p).as_array()
               + g.evaluate(p) * f.grad(p).as_array())
        return AlgebraElement(arr[:2], arr[2])

    return DualFunction(evaluate, gradient)


def check_jacobi(fs, p: CoAlgebraElement, B: MagneticCocycle,
                 sign: str = "minus") -> JacobiResult:
    """Cyclic sum {{f,g},h} + {{g,h},f} + {{h,f},g} at p.

    Returns the residual together with the tolerance it should satisfy: 1e-9
    when every input supplies analytic gradients and hessians (the nested
    bracket is then differentiated exactly), degraded to 1e-4 when any
    derivative falls back to finite differences.
    """
    f, g, h = fs
    analytic = all(fn.gradient is not None and fn.hessian is not None
                   for fn in (f, g, h))
    tol = 1e-9 if analytic else 1e-4
    total = 0.0
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        ab = bracket_function(a, b, B, sign)
        total += magnetic_lie_poisson(ab, c, p, B, sign)
    return JacobiResult(abs(total), tol)


def classify_orbit(p: CoAlgebraElement, tol: float = 1e-12) -> OrbitDescriptor:
    """Coadjoint orbit through p: a fixed point for nu = 0, else a plane."""
    if abs(p.nu) <= tol:
        return OrbitDescriptor("point", p.mu.copy(), 0.0)
    return OrbitDescriptor("plane", None, p.nu)


def _generator_scale(nu: float, B: MagneticCocycle, sign: str) -> float:
    """Coefficient c = sign*nu - B12 of the (magnetic) orbit form on the leaf."""
    return _sign(sign) * nu - B.planar_component


def orbit_symplectic_form(p: OrbitPoint, xi: AlgebraElement, eta: AlgebraElement,
                          B: MagneticCocycle, sign: str = "minus") -> float:
    """Magnetic orbit form on generator labels: +-<p,[xi,eta]> - B(xi,eta).

    On the extended orbit the V x V* factor carries the canonical form, which
    vanishes on pure generator directions, so it does not appear here. When
    nu = 0 and the magnetic term vanishes on the orbit tangent the orbit is a
    point and the form is trivially zero; that case emits a DegenerateForm
    warning rather than raising.
    """
    p_dual = CoAlgebraElement(p.rho, p.nu)
    value = (_sign(sign) * pairing(p_dual, bracket(xi, eta)) - B.pair(xi, eta))
    if p.nu == 0.0 and abs(B.planar_component) == 0.0:
        warnings.warn("point orbit with vanishing magnetic term: form is trivially zero",
                      DegenerateForm, stacklevel=2)
    return value


def orbit_form_matrix(p: OrbitPoint, B: MagneticCocycle,
                      sign: str = "minus") -> np.ndarray:
    """2x2 matrix of the orbit form on the planar generator basis."""
    c = _generator_scale(p.nu, B, sign)
    # form(e1, e2) = sign*nu*area(e1,e2) - B12 = c
    return np.array([[0.0, c], [-c, 0.0]])


def orbit_hamiltonian_vector_field(h: OrbitFunction, p: OrbitPoint,
                                   B: MagneticCocycle,
                                   sign: str = "minus") -> np.ndarray:
    """Chart vector X with i_X (orbit form + canonical V form) = dh at p.

    Returns (rhodot1, rhodot2, thetadot..., lamdot...). On chart vectors the
    orbit form is drho1 ^ drho2 / c with c = sign*nu - B12 (its matrix W on
    generator labels has det W = c^2), so the planar block is
    c * (dh/drho2, -dh/drho1) and the canonical V x V* block is
    (dh/dlam, -dh/dtheta). Requires a plane orbit on which W is regular.
    """
    c = _generator_scale(p.nu, B, sign)
    if c * c < 1e-14:
        raise SingularForm(
            "orbit form matrix is singular: the magnetic term cancels the orbit term",
            matrix=orbit_form_matrix(p, B, sign))
    grad = h.grad(p)
    k = p.k
    return np.concatenate([c * np.array([grad[1], -grad[0]]), grad[2 + k:],
                           -grad[2:2 + k]])


def orbit_form_on_chart_vectors(p: OrbitPoint, v: np.ndarray, w: np.ndarray,
                                B: MagneticCocycle, sign: str = "minus") -> float:
    """Orbit-plus-canonical form evaluated on two chart tangents at p."""
    c = _generator_scale(p.nu, B, sign)
    if c == 0.0:
        raise SingularForm("orbit form is degenerate on this leaf",
                           matrix=orbit_form_matrix(p, B, sign))
    k = p.k
    planar = (v[0] * w[1] - v[1] * w[0]) / c
    vth, vlam = v[2:2 + k], v[2 + k:]
    wth, wlam = w[2:2 + k], w[2 + k:]
    return float(planar + vth @ wlam - vlam @ wth)


def coordinate_function(index: int) -> DualFunction:
    """The coordinate function p -> p[index] with exact derivatives."""
    e = np.zeros(3)
    e[index] = 1.0

    return DualFunction(
        evaluate=lambda p: float(p.as_array()[index]),
        gradient=lambda p: AlgebraElement(e[:2], e[2]),
        hessian=lambda p: np.zeros((3, 3)),
    )


def linear_function(xi: AlgebraElement) -> DualFunction:
    """The linear function p -> pairing(p, xi) generated by an algebra element."""
    return DualFunction(
        evaluate=lambda p: pairing(p, xi),
        gradient=lambda p: xi,
        hessian=lambda p: np.zeros((3, 3)),
    )
