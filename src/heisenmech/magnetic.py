"""Magnetic cotangent-bundle geometry for Q = H x V.

Phase points come in two equivalent descriptions. The chart description is
(q, p) in R^3 x R^3 (plus the (theta, lam) factor of T*V), carrying the
canonical form twisted by a magnetic two-form:

    omega_B = sum_i dq_i ^ dp_i + omega_V - charge_factor * B(q).

The trivialized description is (g, rho, theta, lam) with rho the body momentum
(the left-trivialized fiber coordinate). Left translation acts there by
g -> h*g leaving rho untouched, which is what makes body coordinates the right
home for momentum maps and reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fd
from .errors import MissingPotential, NotInvariant, NotOnLevelSet
from .group import CoAlgebraElement, GroupElement
from .orbit import OrbitFunction, OrbitPoint, classify_orbit

__all__ = [
    "MagneticField",
    "PhasePoint",
    "ExtendedPhasePoint",
    "MomentumValue",
    "body_to_chart",
    "chart_to_body",
    "chart_to_body_array",
    "extended_to_chart",
    "extended_from_chart",
    "left_translate_point",
    "magnetic_form",
    "omega_matrix",
    "momentum_shift",
    "extended_momentum_shift",
    "momentum_map",
    "momentum_map_array",
    "level_set_contains",
    "sample_level_point",
    "reduce_point",
    "level_lift",
    "reduced_hamiltonian",
]

_KINDS = ("zero", "constant", "linear", "invariant", "general")


@dataclass(frozen=True)
class MagneticField:
    """Closed magnetic two-form that declares what kind of field it is.

    b_matrix maps q to the antisymmetric coefficient matrix of the two-form
    (convention: B(X, Y) = X^T b_matrix(q) Y, so the stored matrix is twice
    the coefficient of each dq_i ^ dq_j with i < j). charge_factor is the e/c
    premultiplier applied wherever the field enters a symplectic form or an
    equation of motion. potential, when present, satisfies dA = B and comes
    with potential_jacobian, the matrix D[m, i] = d_i A_m.

    kind is recorded by the factories and never inferred from samples:
    "zero" and "constant" fields carry no potential, "linear" and "invariant"
    ones are exact with a constant B, and "invariant" additionally declares
    A a left-invariant one-form, which is what the momentum-map path
    requires. A field built directly is "general": q-dependent and nonzero.
    """

    b_matrix: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], np.ndarray] | None = None
    charge_factor: float = 1.0
    potential_jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    kind: str = "general"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"field kind must be one of {_KINDS}, got {self.kind!r}")
        if (self.potential is None) != (self.potential_jacobian is None):
            raise ValueError("a vector potential needs its Jacobian and vice versa")
        if self.kind in ("linear", "invariant") and self.potential is None:
            raise ValueError(f"a {self.kind} field needs a vector potential")

    @classmethod
    def zero(cls, charge_factor: float = 1.0) -> "MagneticField":
        return cls(lambda q: np.zeros((3, 3)), None, charge_factor, kind="zero")

    @classmethod
    def constant(cls, matrix, charge_factor: float = 1.0) -> "MagneticField":
        """Constant field from explicit antisymmetric entries, no potential."""
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3) or np.max(np.abs(m + m.T)) > 1e-14:
            raise ValueError("constant field needs an antisymmetric 3x3 matrix")
        m = m.copy()
        m.flags.writeable = False
        return cls(lambda q: m, None, charge_factor,
                   kind="constant" if m.any() else "zero")

    @classmethod
    def linear_potential(cls, M, charge_factor: float = 1.0) -> "MagneticField":
        """Exact field with potential A(q) = M q; then B = M^T - M, constant."""
        M = np.asarray(M, dtype=float).copy()
        if M.shape != (3, 3):
            raise ValueError("linear potential needs a 3x3 matrix")
        M.flags.writeable = False
        b = M.T - M
        b.flags.writeable = False
        return cls(lambda q: b, lambda q: M @ q, charge_factor,
                   lambda q: M, kind="linear")

    @classmethod
    def invariant_potential(cls, a, charge_factor: float = 1.0) -> "MagneticField":
        """Exact field whose potential is the left-invariant one-form with
        identity value a: A(q) = (a1 + a3 q2/2, a2 - a3 q1/2, a3)."""
        a = np.asarray(a, dtype=float).reshape(3).copy()
        a.flags.writeable = False
        b = np.zeros((3, 3))
        b[0, 1], b[1, 0] = -a[2], a[2]
        b.flags.writeable = False
        da = np.zeros((3, 3))
        da[0, 1], da[1, 0] = 0.5 * a[2], -0.5 * a[2]
        da.flags.writeable = False

        def A(q):
            return np.array([a[0] + 0.5 * a[2] * q[1],
                             a[1] - 0.5 * a[2] * q[0],
                             a[2]])

        return cls(lambda q: b, A, charge_factor, lambda q: da, kind="invariant")

    def b(self, q) -> np.ndarray:
        return np.asarray(self.b_matrix(np.asarray(q, dtype=float)), dtype=float)

    def vector_potential(self, q) -> np.ndarray:
        if self.potential is None:
            raise MissingPotential("magnetic field has no vector potential")
        return np.asarray(self.potential(np.asarray(q, dtype=float)), dtype=float)

    def vector_potential_jacobian(self, q) -> np.ndarray:
        """The declared derivative matrix D[m, i] = d_i A_m of the potential."""
        if self.potential_jacobian is None:
            raise MissingPotential("magnetic field has no vector potential")
        return np.asarray(self.potential_jacobian(np.asarray(q, dtype=float)),
                          dtype=float)

    @property
    def has_potential(self) -> bool:
        return self.potential is not None

    @property
    def is_constant(self) -> bool:
        return self.kind != "general"

    def identity_potential_value(self) -> np.ndarray:
        """A evaluated at the group identity (zero for potential-free fields)."""
        if self.potential is None:
            return np.zeros(3)
        return self.vector_potential(np.zeros(3))


@dataclass(frozen=True)
class PhasePoint:
    """Chart point (q, p) of T*H."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(3).copy()
        p = np.asarray(self.p, dtype=float).reshape(3).copy()
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("phase point has non-finite components")
        q.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.q, self.p])


@dataclass(frozen=True)
class ExtendedPhasePoint:
    """Trivialized point (g, rho, theta, lam) of T*(H x V)."""

    g: GroupElement
    rho: CoAlgebraElement
    theta: np.ndarray = ()
    lam: np.ndarray = ()

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float)).copy()
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float)).copy()
        if theta.size == 0:
            theta = np.zeros(0)
        if lam.size == 0:
            lam = np.zeros(0)
        if theta.shape != lam.shape:
            raise ValueError("theta and lam must have the same dimension")
        theta.flags.writeable = False
        lam.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "lam", lam)

    @property
    def k(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class MomentumValue:
    """Value of the momentum map, an element of the dual algebra."""

    value: CoAlgebraElement

    def as_array(self) -> np.ndarray:
        return self.value.as_array()


def body_to_chart(g: GroupElement, rho: CoAlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """Chart coordinates (q, p) of the trivialized point (g, rho)."""
    q = g.as_array()
    nu = rho.nu
    p = np.array([rho.mu[0] + 0.5 * nu * q[1],
                  rho.mu[1] - 0.5 * nu * q[0],
                  nu])
    return q, p


def chart_to_body_array(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Body momenta (mu1, mu2, nu) of chart points (q, p) stacked on the last
    axis; the group coordinates are q itself."""
    return np.stack([p[..., 0] - 0.5 * p[..., 2] * q[..., 1],
                     p[..., 1] + 0.5 * p[..., 2] * q[..., 0],
                     p[..., 2]], axis=-1)


def chart_to_body(q: np.ndarray, p: np.ndarray) -> tuple[GroupElement, CoAlgebraElement]:
    """Trivialized coordinates (g, rho) of the chart point (q, p)."""
    q = np.asarray(q, dtype=float)
    rho = chart_to_body_array(q, np.asarray(p, dtype=float))
    return GroupElement(q[:2], q[2]), CoAlgebraElement(rho[:2], rho[2])


def extended_to_chart(x: ExtendedPhasePoint) -> np.ndarray:
    """Flat chart state (q, p, theta, lam) of an extended point."""
    q, p = body_to_chart(x.g, x.rho)
    return np.concatenate([q, p, x.theta, x.lam])


def extended_from_chart(state: np.ndarray, k: int = 0) -> ExtendedPhasePoint:
    state = np.asarray(state, dtype=float)
    g, rho = chart_to_body(state[:3], state[3:6])
    return ExtendedPhasePoint(g, rho, state[6:6 + k], state[6 + k:6 + 2 * k])


def left_translate_point(h: GroupElement, x: ExtendedPhasePoint) -> ExtendedPhasePoint:
    """Cotangent-lifted left translation: g -> h*g, body momentum unchanged."""
    from .group import multiply
    return ExtendedPhasePoint(multiply(h, x.g), x.rho, x.theta, x.lam)


def _point_chart(point) -> tuple[np.ndarray, int]:
    if isinstance(point, PhasePoint):
        return point.as_array(), 0
    if isinstance(point, ExtendedPhasePoint):
        return extended_to_chart(point), point.k
    raise TypeError(f"expected a phase point, got {type(point).__name__}")


def omega_matrix(point, field: MagneticField) -> np.ndarray:
    """Coefficient matrix of omega_B at the point, in chart coordinates.

    Block layout over (dq, dp, dtheta, dlam):
    [[-c*B(q), I, 0], [-I, 0, 0], [0, 0, omega_V]].
    """
    state, k = _point_chart(point)
    q = state[:3]
    n = 6 + 2 * k
    W = np.zeros((n, n))
    W[:3, :3] = -field.charge_factor * field.b(q)
    W[:3, 3:6] = np.eye(3)
    W[3:6, :3] = -np.eye(3)
    if k:
        W[6:6 + k, 6 + k:] = np.eye(k)
        W[6 + k:, 6:6 + k] = -np.eye(k)
    return W


def magnetic_form(point, v1, v2, field: MagneticField) -> float:
    """omega_B evaluated on two chart tangents at the point.

    For an ExtendedPhasePoint the tangents are given in the flat chart
    (dq, dp, dtheta, dlam) of the underlying T*H x T*V.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    return float(v1 @ omega_matrix(point, field) @ v2)


def momentum_shift(point: PhasePoint, field: MagneticField) -> PhasePoint:
    """Fiber translation t_A: (q, p) -> (q, p + charge_factor * A(q)).

    Pulls the canonical form back to omega_B; requires the field to be exact
    with a supplied potential.
    """
    A = field.vector_potential(point.q)
    return PhasePoint(point.q, point.p + field.charge_factor * A)


def extended_momentum_shift(x: ExtendedPhasePoint, field: MagneticField) -> ExtendedPhasePoint:
    """The fiber translation t_A expressed on trivialized points."""
    q, p = body_to_chart(x.g, x.rho)
    shifted = momentum_shift(PhasePoint(q, p), field)
    g, rho = chart_to_body(shifted.q, shifted.p)
    return ExtendedPhasePoint(g, rho, x.theta, x.lam)


def momentum_map_array(g: np.ndarray, rho: np.ndarray,
                       field: MagneticField) -> np.ndarray:
    """momentum_map of points (g, rho) stacked on the last axis of two arrays.

    For an invariant field the shift t_A goes through the chart exactly as in
    extended_momentum_shift (body -> chart, p + charge_factor * A(q) with A
    fixed by its identity value, chart -> body), which keeps each row
    bit-identical to coadjoint of the shifted dataclass point.
    """
    if field.kind != "invariant" and field.has_potential:
        raise NotInvariant("momentum map needs a potential declared left-invariant")
    if field.kind not in ("zero", "invariant"):
        raise MissingPotential(
            "momentum map of a nonzero field needs an invariant potential")
    u1, u2 = g[..., 0], g[..., 1]
    mu1, mu2, nu = rho[..., 0], rho[..., 1], rho[..., 2]
    if field.kind == "invariant":
        a = field.identity_potential_value()
        cf = field.charge_factor
        p1 = mu1 + 0.5 * nu * u2 + cf * (a[0] + 0.5 * a[2] * u2)
        p2 = mu2 - 0.5 * nu * u1 + cf * (a[1] - 0.5 * a[2] * u1)
        nu = nu + cf * a[2]
        mu1 = p1 - 0.5 * nu * u2
        mu2 = p2 + 0.5 * nu * u1
    return np.stack([mu1 + nu * u2, mu2 - nu * u1, nu], axis=-1)


def momentum_map(point: ExtendedPhasePoint, field: MagneticField) -> MomentumValue:
    """Equivariant momentum map of the lifted left action.

    Canonical case (zero field): J0(g, rho) = coadjoint(g, rho), the unique
    expression conserved along flows of left-invariant Hamiltonians in this
    trivialization. Magnetic case: J_B = J0 composed with the fiber shift t_A,
    which needs an exact field whose potential is declared left-invariant
    (NotInvariant for other potentials, MissingPotential for nonzero fields
    without one). The point case of momentum_map_array.
    """
    J = momentum_map_array(point.g.as_array(), point.rho.as_array(), field)
    return MomentumValue(CoAlgebraElement(J[:2], J[2]))


def level_set_contains(point: ExtendedPhasePoint, mu_nu: CoAlgebraElement,
                       field: MagneticField, tol: float = 1e-8) -> bool:
    J = momentum_map(point, field)
    return bool(np.max(np.abs(J.as_array() - mu_nu.as_array())) <= tol)


def sample_level_point(mu_nu: CoAlgebraElement, field: MagneticField, k: int,
                       rng: np.random.Generator,
                       scale: float = 1.5) -> ExtendedPhasePoint:
    """Random point of the momentum level set J_B = (mu, nu).

    The base g and the (theta, lam) factor are free; the shifted body momentum
    is then pinned to (mu - nu*J(g.u), nu) and unshifted through the potential.
    """
    g = GroupElement(rng.uniform(-scale, scale, 2), rng.uniform(-scale, scale))
    nu = mu_nu.nu
    shifted_plane = mu_nu.mu - nu * np.array([g.u[1], -g.u[0]])
    shift = field.charge_factor * field.identity_potential_value()
    rho = CoAlgebraElement(shifted_plane - shift[:2], nu - shift[2])
    theta = rng.uniform(-scale, scale, k)
    lam = rng.uniform(-scale, scale, k)
    return ExtendedPhasePoint(g, rho, theta, lam)


def reduce_point(point: ExtendedPhasePoint, mu_nu: CoAlgebraElement,
                 field: MagneticField, tol: float = 1e-8) -> OrbitPoint:
    """Project a level-set point to its orbit representative.

    The representative is the shifted body momentum (the planar part of
    J_B-at-identity data): constant on isotropy-group orbits, with center
    charge equal to the level's nu, together with the untouched (theta, lam).
    """
    if not level_set_contains(point, mu_nu, field, tol):
        raise NotOnLevelSet(
            f"point is not on the momentum level {mu_nu.as_array()} within {tol}")
    if field.has_potential:
        shifted = extended_momentum_shift(point, field)
    else:
        shifted = point
    rho = shifted.rho
    out = OrbitPoint(rho.mu, rho.nu, point.theta, point.lam)
    descriptor = classify_orbit(CoAlgebraElement(out.rho, out.nu))
    expected = classify_orbit(mu_nu)
    if descriptor.kind != expected.kind:
        raise NotOnLevelSet("orbit type of the representative does not match the level")
    return out


def level_lift(o: OrbitPoint, mu_nu: CoAlgebraElement, field: MagneticField,
               alpha: float = 0.0) -> ExtendedPhasePoint:
    """One lift of an orbit point back onto the level set (center height free)."""
    nu = mu_nu.nu
    if abs(nu) > 1e-12:
        u1 = (o.rho[1] - mu_nu.mu[1]) / nu
        u2 = (mu_nu.mu[0] - o.rho[0]) / nu
        g = GroupElement((u1, u2), alpha)
    else:
        g = GroupElement((0.0, 0.0), alpha)
    shift = field.charge_factor * field.identity_potential_value()
    rho = CoAlgebraElement(np.asarray(o.rho) - shift[:2], nu - shift[2])
    return ExtendedPhasePoint(g, rho, o.theta, o.lam)


def reduced_hamiltonian(h_full: Callable[[ExtendedPhasePoint], float],
                        mu_nu: CoAlgebraElement, field: MagneticField,
                        k: int = 0, invariance_tol: float = 1e-10,
                        seed: int = 7121) -> OrbitFunction:
    """Drop an invariant Hamiltonian to the reduced space O x V x V*.

    First verifies invariance on 100 random (translated, original) pairs to
    invariance_tol, then returns the orbit function h with h(reduce(x)) equal
    to h_full(x): evaluation lifts the orbit point back to the level set, and
    any lift gives the same value because the isotropy direction is exactly
    the invariance direction.
    """
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x = ExtendedPhasePoint(
            GroupElement(rng.uniform(-2, 2, 2), rng.uniform(-2, 2)),
            CoAlgebraElement(rng.uniform(-2, 2, 2), rng.uniform(-2, 2)),
            rng.uniform(-2, 2, k), rng.uniform(-2, 2, k))
        h = GroupElement(rng.uniform(-2, 2, 2), rng.uniform(-2, 2))
        moved = left_translate_point(h, x)
        if abs(h_full(moved) - h_full(x)) > invariance_tol:
            raise NotInvariant(
                "Hamiltonian is not left-invariant at the requested tolerance")

    def evaluate(o: OrbitPoint) -> float:
        return float(h_full(level_lift(o, mu_nu, field)))

    return OrbitFunction(evaluate=evaluate)
