"""Magnetic cotangent-bundle geometry for Q = H x V.

Phase points are flat chart states (q, p, theta..., lam...) in
R^3 x R^3 x R^k x R^k, carrying the canonical form twisted by a magnetic
two-form:

    omega_B = sum_i dq_i ^ dp_i + omega_V - charge_factor * B(q).

The group point is q itself and chart_to_body_array gives the body momentum
rho (the left-trivialized fiber coordinate). Left translation acts by
q -> h*q leaving rho untouched, which is what makes body coordinates the right
home for momentum maps and reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MissingPotential, NotInvariant, NotOnLevelSet
from .group import (CoAlgebraElement, _dot, _map_rows, _matvec, _part, _vecmat,
                    coadjoint, multiply)
from .orbit import _antisymmetric, classify_orbit

__all__ = [
    "MagneticField",
    "chart_to_body_array",
    "left_translate",
    "magnetic_form",
    "omega_matrix",
    "momentum_shift",
    "momentum_map",
    "sample_level_point",
    "project_chart",
    "reduce_point",
    "level_lift",
]

_KINDS = ("zero", "constant", "linear", "invariant", "general")
# Half-width of the box sample_level_point draws q and (theta, lam) from.
_LEVEL_SCALE = 1.5


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

    b, vector_potential and vector_potential_jacobian take one point or a
    stack (..., 3) of points, row i of a stacked call bitwise the call on
    row i. The callables of a declared kind take the stack (b_matrix ignores
    q, and the linear and invariant potentials map the stack to the stack of
    their values); a general field's, the user's of one point, are mapped
    over its rows.
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
        m = _antisymmetric(matrix, "constant field matrix")
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
        return cls(lambda q: b, lambda q: _matvec(M, q), charge_factor,
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

        a0, a1, a2 = a.tolist()

        def A(q):
            out = np.empty(q.shape)
            out[..., 0] = a0 + 0.5 * a2 * _part(q, 1)
            out[..., 1] = a1 - 0.5 * a2 * _part(q, 0)
            out[..., 2] = a2
            return out

        return cls(lambda q: b, A, charge_factor, lambda q: da, kind="invariant")

    def b(self, q) -> np.ndarray:
        return _map_rows(self.b_matrix, self.is_constant, q)

    def vector_potential(self, q) -> np.ndarray:
        if self.potential is None:
            raise MissingPotential("magnetic field has no vector potential")
        return _map_rows(self.potential, self.is_constant, q)

    def vector_potential_jacobian(self, q) -> np.ndarray:
        """The declared derivative matrix D[m, i] = d_i A_m of the potential."""
        if self.potential_jacobian is None:
            raise MissingPotential("magnetic field has no vector potential")
        return _map_rows(self.potential_jacobian, self.is_constant, q)

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


def _chart_state(state) -> np.ndarray:
    """state as a flat float chart (q, p, theta..., lam...) of size 6 + 2k,
    or a stack (..., 6 + 2k) of them.

    The input check of the public phase-space functions below, which take
    one state or a stack, row i of a stacked call bitwise the call on row i:
    any other shape, or a non-finite entry, raises ValueError.
    """
    s = np.asarray(state, dtype=float)
    if s.ndim == 0 or s.shape[-1] < 6 or s.shape[-1] % 2:
        raise ValueError(f"a chart state is a flat array of size 6 + 2k, or a "
                         f"stack of them, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("chart state has non-finite components")
    return s


def chart_to_body_array(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Body momenta (p1 - p3 q2/2, p2 + p3 q1/2, p3) of chart points (q, p)
    stacked on the last axis, the group coordinates being q itself; written
    into a float copy of p, in scalar arithmetic for one point."""
    q, rho = np.asarray(q, dtype=float), np.array(p, dtype=float)
    nu = _part(rho, 2)
    rho[..., 0] = _part(rho, 0) - 0.5 * nu * _part(q, 1)
    rho[..., 1] = _part(rho, 1) + 0.5 * nu * _part(q, 0)
    return rho


def _fiber_push(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The orbit projection's linear map on the fiber over base point q.

    w is a fiber vector (p, theta..., lam...) or a control covector
    (p, lam...); it goes to the planar body momentum of its p with the
    V-factor entries passed through. The projection is affine on each fiber,
    so this is also its exact tangent on vertical vectors. Base points and
    fiber vectors may be stacked on the last axis.
    """
    return np.concatenate([chart_to_body_array(q, w[..., :3])[..., :2],
                           w[..., 3:]], axis=-1)


def _chart_momentum(q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Chart momenta p of body momenta rho = (mu1, mu2, nu) at group points q,
    stacked on the last axis: the inverse of chart_to_body_array, written
    into a float copy of rho."""
    p = np.array(rho, dtype=float)
    nu = _part(p, 2)
    p[..., 0] = _part(p, 0) + 0.5 * nu * _part(q, 1)
    p[..., 1] = _part(p, 1) - 0.5 * nu * _part(q, 0)
    return p


def left_translate(h: np.ndarray, state) -> np.ndarray:
    """Cotangent-lifted left translation by the flat group element h on a
    chart state.

    The group point q goes to h*q while the body momentum and (theta, lam)
    stay put, so p is rebuilt from the body momentum at the moved point. A
    stack of states takes one h or a stack of them.
    """
    state = _chart_state(state)
    q = state[..., :3]
    rho = chart_to_body_array(q, state[..., 3:6])
    out = state.copy()
    out[..., :3] = multiply(h, q)
    out[..., 3:6] = _chart_momentum(out[..., :3], rho)
    return out


def omega_matrix(state, field: MagneticField) -> np.ndarray:
    """Coefficient matrix of omega_B at a chart state.

    Block layout over (dq, dp, dtheta, dlam):
    [[-c*B(q), I, 0], [-I, 0, 0], [0, 0, omega_V]]. A stack of states gives
    the stack of matrices.
    """
    state = _chart_state(state)
    n = state.shape[-1]
    k = (n - 6) // 2
    W = np.zeros(state.shape[:-1] + (n, n))
    W[..., :3, :3] = -field.charge_factor * field.b(state[..., :3])
    W[..., :3, 3:6] = np.eye(3)
    W[..., 3:6, :3] = -np.eye(3)
    W[..., 6:6 + k, 6 + k:] = np.eye(k)
    W[..., 6 + k:, 6:6 + k] = -np.eye(k)
    return W


def magnetic_form(state, v1, v2, field: MagneticField):
    """omega_B at a chart state on two chart tangents (dq, dp, dtheta, dlam),
    (v1 @ W) @ v2 through _vecmat and _dot. States and tangents may be
    stacks (..., 6 + 2k), broadcast against each other; the value is then
    the array of the rows' values."""
    return _dot(_vecmat(np.asarray(v1, dtype=float), omega_matrix(state, field)),
                np.asarray(v2, dtype=float))


def momentum_shift(state, field: MagneticField) -> np.ndarray:
    """Fiber translation t_A: p -> p + charge_factor * A(q) on a chart state,
    with q and (theta, lam) unchanged.

    Pulls the canonical form back to omega_B; requires the field to be exact
    with a supplied potential. The inverse is the shift by
    replace(field, charge_factor=-field.charge_factor).
    """
    return _momentum_shift(_chart_state(state), field)


def _momentum_shift(state: np.ndarray, field: MagneticField) -> np.ndarray:
    """momentum_shift without the input check: the one checked law that
    keeps an unchecked twin. dynamics.integrate's shifted route runs it on
    its iterates, which may overflow (modified_hamiltonian's unshift, and
    the back-shift of the states): the integrator reports that as a
    numerical failure, and its right-hand side pays no check. It takes a
    stack (..., 6 + 2k) of states as momentum_shift does."""
    out = state.copy()
    out[..., 3:6] += field.charge_factor * field.vector_potential(state[..., :3])
    return out


def momentum_map(state, field: MagneticField) -> np.ndarray:
    """Equivariant momentum map of the lifted left action at a chart state.

    Canonical case (zero field): J0(g, rho) = coadjoint(g, rho) with g = q
    and rho the body momentum, the unique expression conserved along flows
    of left-invariant Hamiltonians in this trivialization. Magnetic case:
    J_B = J0 composed with the fiber shift t_A, which needs an exact field
    whose potential is declared left-invariant (NotInvariant for other
    potentials, MissingPotential for nonzero fields without one). The value
    (mu1, mu2, nu) has shape (3,), or (..., 3) for a stack of states.
    """
    state = _chart_state(state)
    if field.kind != "invariant" and field.has_potential:
        raise NotInvariant("momentum map needs a potential declared left-invariant")
    if field.kind not in ("zero", "invariant"):
        raise MissingPotential(
            "momentum map of a nonzero field needs an invariant potential")
    if field.has_potential:
        state = _momentum_shift(state, field)
    q = state[..., :3]
    return coadjoint(q, chart_to_body_array(q, state[..., 3:6]))


def _level_state(q: np.ndarray, planar, nu: float, field: MagneticField,
                 rest: np.ndarray) -> np.ndarray:
    """Chart states (q, p, rest) whose shifted body momentum is (planar, nu),
    unshifted through the potential's identity value; q, planar and rest may
    be stacked on the last axis."""
    shift = field.charge_factor * field.identity_potential_value()
    rho = np.empty(q.shape)
    rho[..., :2] = planar - shift[:2]
    rho[..., 2] = nu - shift[2]
    return np.concatenate([q, _chart_momentum(q, rho), rest], axis=-1)


def sample_level_point(mu_nu: CoAlgebraElement, field: MagneticField, k: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Chart state of a random point of the momentum level set J_B = (mu, nu).

    The group point q and the (theta, lam) factor are free; the shifted body
    momentum is then pinned to (mu - nu*J(q[:2]), nu) and unshifted through
    the potential. The one-row case of _level_points.
    """
    return _level_points(mu_nu, field, k, rng, 1)[0]


def _level_points(mu_nu: CoAlgebraElement, field: MagneticField, k: int,
                  rng: np.random.Generator, n: int) -> np.ndarray:
    """Stack (n, 6 + 2k) of sample_level_point's states, drawn as one
    uniform(-1.5, 1.5, (n, 3 + 2k)) block: row i holds q (3) and
    (theta, lam) (2k), the stream and the order of n calls that each draw
    q[:2], then q[2], then (theta, lam)."""
    draws = rng.uniform(-_LEVEL_SCALE, _LEVEL_SCALE, (n, 3 + 2 * k))
    q, nu = draws[:, :3], mu_nu.nu
    planar = mu_nu.mu - nu * np.stack([q[:, 1], -q[:, 0]], axis=-1)
    return _level_state(q, planar, nu, field, draws[:, 3:])


def project_chart(state, field: MagneticField) -> np.ndarray:
    """Orbit projection (q, p, theta, lam) -> (rho1, rho2, theta, lam), rho
    the body momentum after the fiber shift (when the field has a potential).

    On a momentum level set this is the quotient projection to the flat orbit
    chart; off it, the Poisson projection that finite differences across the
    level set need. A stack of states gives the stack of charts.
    """
    state = _chart_state(state)
    if field.has_potential:
        state = _momentum_shift(state, field)
    return _fiber_push(state[..., :3], state[..., 3:])


def reduce_point(state, mu_nu: CoAlgebraElement,
                 field: MagneticField) -> np.ndarray:
    """Project a level-set chart state to its flat orbit chart.

    The chart is (rho1, rho2, theta..., lam...), project_chart of the state:
    constant on isotropy-group orbits. Its center charge equals the level's
    nu, which labels the leaf and is not a chart coordinate. NotOnLevelSet
    unless the momentum map is within 1e-8 of the level; for a stack of
    states, at every row.
    """
    J = momentum_map(state, field)
    if not np.max(np.abs(J - mu_nu.as_array())) <= 1e-8:
        raise NotOnLevelSet(
            f"point is not on the momentum level {mu_nu.as_array()} within 1e-08")
    if np.any(classify_orbit(J) != classify_orbit(mu_nu.as_array())):
        raise NotOnLevelSet("orbit type of the representative does not match the level")
    return project_chart(state, field)


def level_lift(chart: np.ndarray, mu_nu: CoAlgebraElement,
               field: MagneticField) -> np.ndarray:
    """Chart state of one lift of a flat orbit chart (rho1, rho2, theta...,
    lam...) of the level's leaf back onto the level set, at center height
    q3 = 0 (ReducedRCHSystem.lift moves it). A stack (..., 2 + 2k) of charts
    gives the stack of lifts, row i bitwise the call on row i. ValueError
    unless the last axis has size 2 + 2k."""
    chart = np.asarray(chart, dtype=float)
    if chart.ndim == 0 or chart.shape[-1] < 2 or chart.shape[-1] % 2:
        raise ValueError(f"an orbit chart is a flat array of size 2 + 2k, "
                         f"got shape {chart.shape}")
    nu = mu_nu.nu
    q = np.zeros(chart.shape[:-1] + (3,))
    if abs(nu) > 1e-12:
        q[..., 0] = (chart[..., 1] - mu_nu.mu[1]) / nu
        q[..., 1] = (mu_nu.mu[0] - chart[..., 0]) / nu
    return _level_state(q, chart[..., :2], nu, field, chart[..., 2:])

