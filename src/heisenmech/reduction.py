"""Point reduction of controlled systems, and the checkers built on it.

Three strands live here. reduce_system drops an invariant system to the
coadjoint-orbit chart and check_commutation verifies, by finite differences,
that projection and dynamics commute. kaluza_klein_system realizes the same
magnetic dynamics as canonical geodesic flow one level up, on T*(H x S^1),
and kk_reduce_and_compare confronts the two integrations. The check_mr*
family decides, numerically, whether a cotangent-lifted diffeomorphism
intertwines two controlled systems: symplectic on the magnetic forms (MR-1),
equivariant between momentum levels (MR-2), and matching dynamics up to
vertical directions the control subset can absorb (MR-3).

Every checker returns CheckRecord values instead of raising on failure, so
negative fixtures are first-class: a checker that cannot reject broken input
is not measuring anything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import dynamics, fd
from .dynamics import (
    ControlSubset,
    FiberMap,
    HamiltonianSpec,
    RCHSystem,
    _base_fiber_indices,
    euclidean_kinetic_hamiltonian,
    hamiltonian_vector_field,
    rch_vector_field,
    vertical_lift,
)
from .errors import (
    ControlSubsetMissing,
    IrregularLevel,
    MissingPotential,
    NotInvariant,
)
from .group import CoAlgebraElement, GroupElement, coadjoint, inverse, multiply
from .magnetic import (
    MagneticField,
    PhasePoint,
    extended_from_chart,
    extended_to_chart,
    left_translate_point,
    level_lift,
    magnetic_form,
    momentum_map,
    reduced_hamiltonian,
    sample_level_point,
)
from .orbit import (
    MagneticCocycle,
    OrbitDescriptor,
    OrbitFunction,
    OrbitPoint,
    classify_orbit,
    orbit_hamiltonian_vector_field,
)

__all__ = [
    "CheckRecord",
    "ReducedRCHSystem",
    "DiffeoSpec",
    "KKSystem",
    "reduce_system",
    "reduced_hamiltonian_field",
    "reduced_vertical_lift",
    "reduced_rch_field",
    "integrate_reduced",
    "check_commutation",
    "kaluza_klein_system",
    "kk_alpha_form_check",
    "kk_reduce_and_compare",
    "check_mr1",
    "check_mr2_equivariance",
    "check_mr3_matching",
]

# reduce_system's shifted presentation leaves the orbit form untwisted.
_NO_COCYCLE = MagneticCocycle.zero()


@dataclass(frozen=True)
class CheckRecord:
    """One checker outcome: a named worst-case residual against a threshold."""

    name: str
    samples: int
    max_residual: float
    threshold: float

    def __post_init__(self):
        # Residuals frequently arrive as numpy scalars; normalize so that
        # passed is a plain bool and serialization sees native types.
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "threshold", float(self.threshold))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": int(self.samples),
            "max_residual": float(self.max_residual),
            "threshold": float(self.threshold),
            "passed": self.passed,
        }


def _fiber_push(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The projection's linear map on the fiber over base point q.

    w is a fiber vector (p, theta..., lam...) or a control covector
    (p, lam...); it goes to (w_p1 - w_p3 q2/2, w_p2 + w_p3 q1/2, w[3:]), the
    planar body momentum with the V-factor entries passed through. The
    projection is affine on each fiber, so this is also its exact tangent on
    vertical vectors.
    """
    return np.concatenate([[w[0] - 0.5 * w[2] * q[1], w[1] + 0.5 * w[2] * q[0]],
                           w[3:]])


def _project_chart(state: np.ndarray, field: MagneticField) -> np.ndarray:
    """Smooth extension of the orbit projection to the whole chart.

    Sends (q, p, theta, lam) to (shifted planar body momentum, theta, lam),
    the fiber shifted by p -> p + charge_factor * A(q) when the field has a
    potential. On a momentum level set this is exactly the quotient
    projection; off the level set it is the Poisson projection to the dual
    algebra, which is what finite differences across the level set need.
    """
    q, fiber = state[:3], state[3:]
    if field.has_potential:
        fiber = fiber.copy()
        fiber[:3] += field.charge_factor * field.vector_potential(q)
    return _fiber_push(q, fiber)


def _reduced_fiber_indices(k: int) -> np.ndarray:
    """Fiber index array (rho, lam) of the orbit chart."""
    return np.concatenate([np.arange(2), np.arange(2 + k, 2 + 2 * k)]).astype(int)


def _independent_rows(rows: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the row space, dropping defective directions."""
    if rows.size == 0:
        return np.zeros((0, rows.shape[1] if rows.ndim == 2 else 0))
    _, s, vt = np.linalg.svd(rows)
    keep = s > tol * max(1.0, s[0] if s.size else 1.0)
    return vt[: int(np.count_nonzero(keep))]


def _span_distance(spanning: np.ndarray, vec: np.ndarray) -> float:
    """Distance from vec to the linear span of the given rows."""
    if spanning.shape[0] == 0:
        return float(np.linalg.norm(vec))
    coeff, *_ = np.linalg.lstsq(spanning.T, vec, rcond=None)
    return float(np.linalg.norm(vec - spanning.T @ coeff))


@dataclass(frozen=True)
class ReducedRCHSystem:
    """Controlled system dropped to the orbit chart O x V x V*.

    The reduced force and control act on flat orbit charts
    (rho1, rho2, theta..., lam...) and fix the theta block. The level lift is
    affine in the chart: lift_offset + lift_matrix @ chart puts an orbit
    chart on the level set at center height zero.
    """

    level: CoAlgebraElement
    descriptor: OrbitDescriptor
    hamiltonian: OrbitFunction
    force: Callable[[np.ndarray], np.ndarray] | None
    control: Callable[[np.ndarray], np.ndarray] | None
    source: RCHSystem
    lift_offset: np.ndarray
    lift_matrix: np.ndarray

    @property
    def k(self) -> int:
        return self.source.k

    def orbit_point(self, chart: np.ndarray) -> OrbitPoint:
        chart = np.asarray(chart, dtype=float)
        k = self.k
        return OrbitPoint(chart[:2], self.level.nu, chart[2:2 + k], chart[2 + k:])

    def lift(self, chart: np.ndarray, alpha: float = 0.0) -> np.ndarray:
        """Chart state of magnetic.level_lift at center height alpha.

        level_lift puts alpha into q3 only, so the stored affine pair covers
        every height.
        """
        out = self.lift_offset + self.lift_matrix @ chart
        out[2] += alpha
        return out

    def control_subset_at(self, z: OrbitPoint) -> ControlSubset:
        """Projection of the source control subset to the reduced fiber at z.

        The fiber projection (p, lam) -> (rho, lam) at a lift of z is affine,
        so the image of an affine subset is the projected offset plus the
        linear images of its spanning rays; collapsed rays are discarded.
        """
        if self.source.control_subset is None:
            raise ControlSubsetMissing("source system carries no control subset")
        k = self.k
        subset = self.source.control_subset
        state = self.lift(z.as_array())
        _, fiber = _base_fiber_indices(k)
        state[fiber] = subset.offset
        offset = _project_chart(state, self.source.field)[_reduced_fiber_indices(k)]
        rays = np.array([_fiber_push(state[:3], row)
                         for row in subset.spanning]).reshape(-1, offset.size)
        return ControlSubset(offset, _independent_rows(rays))


def _equivariance_sweep(fm: FiberMap, k: int, tol: float, rng: np.random.Generator,
                        what: str, rounds: int = 60) -> None:
    for _ in range(rounds):
        s = rng.uniform(-2, 2, 6 + 2 * k)
        h = GroupElement(rng.uniform(-2, 2, 2), rng.uniform(-2, 2))
        moved = extended_to_chart(left_translate_point(h, extended_from_chart(s, k)))
        lhs = np.asarray(fm.apply(moved), dtype=float)
        rhs = extended_to_chart(
            left_translate_point(h, extended_from_chart(np.asarray(fm.apply(s)), k)))
        if np.max(np.abs(lhs - rhs)) > tol:
            raise NotInvariant(f"{what} map is not equivariant under left translation")
        if abs(np.asarray(fm.apply(s))[5] - s[5]) > tol:
            raise NotInvariant(
                f"{what} map moves the center momentum and does not descend to the orbit")


def _reduce_fiber_map(fm: FiberMap,
                      red: ReducedRCHSystem) -> Callable[[np.ndarray], np.ndarray]:
    def apply(chart: np.ndarray) -> np.ndarray:
        lifted = red.lift(np.asarray(chart, dtype=float))
        return _project_chart(np.asarray(fm.apply(lifted), dtype=float),
                              red.source.field)

    return apply


def _lift_matrix(mu_nu: CoAlgebraElement, field: MagneticField,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Offset and matrix of the level lift, affine in the orbit chart.

    At a fixed level, extended_to_chart(level_lift(z)) equals
    offset + matrix @ z.as_array() exactly, so the columns are differences of
    lifts of unit charts.
    """
    def lift(chart: np.ndarray) -> np.ndarray:
        z = OrbitPoint(chart[:2], mu_nu.nu, chart[2:2 + k], chart[2 + k:])
        return extended_to_chart(level_lift(z, mu_nu, field))

    n = 2 + 2 * k
    offset = lift(np.zeros(n))
    return offset, np.column_stack([lift(e) - offset for e in np.eye(n)])


def reduce_system(sys: RCHSystem, mu_nu: CoAlgebraElement,
                  expected_orbit: str = "plane", invariance_tol: float = 1e-10,
                  lift_tol: float = 1e-10, seed: int = 2214) -> ReducedRCHSystem:
    """Drop an invariant controlled system to the orbit through (mu, nu).

    The Hamiltonian, force, and control are swept for left-invariance (the
    fiber maps additionally for preservation of the center momentum, without
    which they cannot stay on the orbit leaf), then pushed to the orbit chart
    through lift-project closures whose lift-independence is verified on a
    seeded sample. The orbit form in this presentation carries no magnetic
    cocycle: the fiber shift that trivializes the potential has already eaten
    it, so the reduced structure is the plain minus form on the leaf plus the
    canonical form on V x V*. The level lift is sampled once into its affine
    pair; the reduced Hamiltonian's gradient is exact by the chain rule,
    (D lift)^T grad H at the lift.
    """
    descriptor = classify_orbit(mu_nu)
    if descriptor.kind != expected_orbit:
        raise IrregularLevel(
            f"level has a {descriptor.kind} orbit where a {expected_orbit} orbit "
            "was requested")
    rng = np.random.default_rng(seed)
    # Probe the momentum map once so an incompatible field fails loudly here.
    momentum_map(sample_level_point(mu_nu, sys.field, sys.k, rng), sys.field)

    h_red = reduced_hamiltonian(
        lambda x: sys.hamiltonian.evaluate(extended_to_chart(x)),
        mu_nu, sys.field, k=sys.k, invariance_tol=invariance_tol)
    offset, lift_matrix = _lift_matrix(mu_nu, sys.field, sys.k)

    def gradient(z: OrbitPoint) -> np.ndarray:
        lifted = offset + lift_matrix @ z.as_array()
        return lift_matrix.T @ sys.hamiltonian.grad(lifted)

    red = ReducedRCHSystem(mu_nu, descriptor, replace(h_red, gradient=gradient),
                           None, None, sys, offset, lift_matrix)
    reduced_maps = {}
    for what, fm in (("force", sys.force), ("control", sys.control)):
        if fm is not None:
            _equivariance_sweep(fm, sys.k, invariance_tol, rng, what)
            reduced_maps[what] = _reduce_fiber_map(fm, red)
    red = replace(red, **reduced_maps)

    # Lift-independence: the same orbit point, lifted at different center
    # heights, must give identical reduced values.
    for _ in range(20):
        chart = rng.uniform(-2, 2, 2 + 2 * sys.k)
        lifts = [red.lift(chart, alpha) for alpha in (0.0, 0.9, -1.7)]
        values = [sys.hamiltonian.evaluate(s) for s in lifts]
        if max(values) - min(values) > lift_tol:
            raise NotInvariant("reduced Hamiltonian value depends on the lift")
        for fm in (sys.force, sys.control):
            if fm is None:
                continue
            images = [_project_chart(np.asarray(fm.apply(s)), sys.field)
                      for s in lifts]
            if max(np.max(np.abs(im - images[0])) for im in images) > lift_tol:
                raise NotInvariant("reduced fiber map depends on the lift")
    return red


def reduced_hamiltonian_field(red: ReducedRCHSystem, z: OrbitPoint) -> np.ndarray:
    """Chart velocity of the reduced Hamiltonian part at z.

    Plane orbits use the closed-form orbit field with no cocycle; point
    orbits have no rho freedom, leaving only the canonical flow on the
    V x V* factor.
    """
    if red.descriptor.kind == "point":
        grad = red.hamiltonian.grad(z)
        k = z.k
        return np.concatenate([np.zeros(2), grad[2 + k:], -grad[2:2 + k]])
    return orbit_hamiltonian_vector_field(red.hamiltonian, z, _NO_COCYCLE)


def reduced_vertical_lift(fm: FiberMap, red: ReducedRCHSystem,
                          z: OrbitPoint) -> np.ndarray:
    """Orbit-chart image of the vertical correction of a source fiber map.

    The full-space vertical lift is computed at the stored lift of z and
    pushed down through the tangent of the projection on the fiber, which is
    exact because the projection is affine there. Equivariance of the fiber
    map makes the result independent of the lift. A chart-level imitation
    (lifting the reduced map directly) would miss the base dependence of the
    projection and is deliberately not offered.
    """
    lift = red.lift(z.as_array())
    return _fiber_push(lift[:3], vertical_lift(fm, red.source, lift)[3:])


def reduced_rch_field(red: ReducedRCHSystem, z: OrbitPoint) -> np.ndarray:
    """Full reduced dynamics: Hamiltonian part plus reduced vertical lifts."""
    out = reduced_hamiltonian_field(red, z)
    if red.source.force is not None:
        out = out + reduced_vertical_lift(red.source.force, red, z)
    if red.source.control is not None:
        out = out + reduced_vertical_lift(red.source.control, red, z)
    return out


def integrate_reduced(red: ReducedRCHSystem, z0: OrbitPoint, t_end: float,
                      h: float, method: str = "midpoint"):
    """Flow the reduced field on the orbit chart.

    Returns (times, charts, energies); charts hold rows
    (rho1, rho2, theta..., lam...), and each energy is the source Hamiltonian
    at the chart's stored level lift, all rows lifted in one product.
    Implicit midpoint is appropriate here because the chart form is constant
    on the leaf.
    """
    def rhs(arr: np.ndarray) -> np.ndarray:
        return reduced_rch_field(red, red.orbit_point(arr))

    times, charts = dynamics._fixed_step_flow(rhs, z0.as_array(), t_end, h,
                                              method)
    lifted = red.lift_offset + charts @ red.lift_matrix.T
    energies = np.array([red.source.hamiltonian.evaluate(s) for s in lifted])
    return times, charts, energies


def check_commutation(sys: RCHSystem, red: ReducedRCHSystem, samples: int = 100,
                      seed: int = 4407, threshold: float = 1e-5) -> CheckRecord:
    """Compare T(projection) of the full field with the reduced field.

    For each sampled level-set point the full dynamical field is pushed
    through the finite-difference tangent of the orbit projection and held
    against the reduced field at the projected point; the record keeps the
    worst component mismatch.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    k = sys.k
    for _ in range(max(1, samples)):
        x = sample_level_point(red.level, sys.field, k, rng)
        state = extended_to_chart(x)
        full = rch_vector_field(sys, state)
        lhs = fd.directional(lambda s: _project_chart(s, sys.field),
                             state, full, fd.GRADIENT_STEP)
        z = red.orbit_point(_project_chart(state, sys.field))
        rhs = reduced_rch_field(red, z)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return CheckRecord("reduction.commutation", samples, worst, threshold)


@dataclass(frozen=True)
class KKSystem:
    """Geodesic system on T*(H x S^1) whose reduction is magnetic motion.

    The metric couples the circle factor to the base through the potential,
    so the geodesic Hamiltonian reads |p - lam*A(q)|^2/(2m) + lam^2/2; the
    circle momentum lam is the conserved quantity of the S^1 action, and
    theta is only meaningful modulo 2*pi.
    """

    field: MagneticField
    m: float
    mu: float
    hamiltonian: HamiltonianSpec

    def momentum(self, state: np.ndarray) -> float:
        """The S^1 momentum map: the lam component of the state."""
        return float(np.asarray(state, dtype=float)[7])

    def wrap(self, state: np.ndarray) -> np.ndarray:
        out = np.asarray(state, dtype=float).copy()
        out[6] = np.mod(out[6], 2.0 * np.pi)
        return out


def kaluza_klein_system(field: MagneticField, m: float, mu: float) -> KKSystem:
    """Build the circle-extended geodesic system for an exact magnetic field.

    The geodesic gradient uses the field's declared potential Jacobian.
    """
    if not field.has_potential:
        raise MissingPotential("the circle-bundle construction needs a potential")
    if m <= 0:
        raise ValueError("mass must be positive")

    def evaluate(state: np.ndarray) -> float:
        q, p, lam = state[:3], state[3:6], state[7]
        w = p - lam * field.vector_potential(q)
        return float(0.5 * (w @ w) / m + 0.5 * lam * lam)

    def gradient(state: np.ndarray) -> np.ndarray:
        q, p, lam = state[:3], state[3:6], state[7]
        A = field.vector_potential(q)
        DA = field.vector_potential_jacobian(q)
        w = (p - lam * A) / m
        out = np.zeros(8)
        out[:3] = -lam * (DA.T @ w)
        out[3:6] = w
        out[7] = -float(A @ w) + lam
        return out

    return KKSystem(field, float(m), float(mu),
                    HamiltonianSpec(evaluate, gradient, k=1))


def kk_alpha_form_check(kk: KKSystem, samples: int = 20, seed: int = 3313,
                        threshold: float = 1e-6) -> CheckRecord:
    """Finite-difference exterior derivative of the connection one-form.

    At the level lam = mu the one-form mu*(A dq + dtheta) on the base must
    differentiate to mu times the magnetic two-form, with vanishing
    theta-components.
    """
    rng = np.random.default_rng(seed)
    mu = kk.mu

    def alpha(y: np.ndarray) -> np.ndarray:
        return mu * np.append(kk.field.vector_potential(y[:3]), 1.0)

    worst = 0.0
    for _ in range(max(1, samples)):
        y = rng.uniform(-2, 2, 4)
        curl = fd.one_form_curl(alpha, y)
        expected = np.zeros((4, 4))
        expected[:3, :3] = mu * kk.field.b(y[:3])
        worst = max(worst, float(np.max(np.abs(curl - expected))))
    return CheckRecord("kk.alpha_form", samples, worst, threshold)


def kk_reduce_and_compare(kk: KKSystem, x0: PhasePoint, t_end: float = 1.0,
                          h: float = 1e-4, method: str = "rk4",
                          match_threshold: float = 1e-6,
                          drift_threshold: float = 1e-8) -> list[CheckRecord]:
    """Integrate the geodesic flow upstairs and the magnetic flow downstairs.

    The initial magnetic state is lifted to the circle bundle at level
    lam = mu, both flows run on the same grid, and the geodesic trajectory is
    pushed back down by the fiber shift p -> p - mu*A(q). Records report the
    worst state mismatch and the conservation drift of lam.
    """
    from .dynamics import integrate

    mu = kk.mu
    A0 = kk.field.vector_potential(x0.q)
    lift0 = np.concatenate([x0.q, x0.p + mu * A0, [0.0], [mu]])
    upstairs = RCHSystem(MagneticField.zero(), kk.hamiltonian, m=kk.m, k=1)
    traj_up = integrate(upstairs, lift0, t_end, h, method)

    downstairs = RCHSystem(replace(kk.field, charge_factor=mu),
                           euclidean_kinetic_hamiltonian(kk.m), m=kk.m)
    traj_down = integrate(downstairs, x0.as_array(), t_end, h, method)

    projected = traj_up.states[:, :6].copy()
    for i, row in enumerate(traj_up.states):
        projected[i, 3:6] -= mu * kk.field.vector_potential(row[:3])
    mismatch = float(np.max(np.abs(projected - traj_down.states)))
    drift = float(np.max(np.abs(traj_up.states[:, 7] - mu)))
    n = traj_up.states.shape[0]
    return [CheckRecord("kk.trajectory_match", n, mismatch, match_threshold),
            CheckRecord("kk.lambda_drift", n, drift, drift_threshold)]


@dataclass(frozen=True)
class DiffeoSpec:
    """Base diffeomorphism with its cotangent lift.

    base maps source configurations to target ones; the lift runs the other
    way, (q2, p2) -> (inverse(q2), Dbase(q1)^T p2), fiberwise linear by
    construction. A custom lift callable may replace the canonical one; by
    default it is checked against the transpose formula on seeded samples,
    and fixtures that deliberately break the formula construct with
    verify_lift=False. Optional analytic tangent and inverse callables avoid
    finite-difference noise where exactness matters.
    """

    base: Callable[[np.ndarray], np.ndarray]
    base_inverse: Callable[[np.ndarray], np.ndarray]
    lift: Callable[[np.ndarray], np.ndarray] | None = None
    lift_tangent: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    lift_inverse: Callable[[np.ndarray], np.ndarray] | None = None
    verify_lift: bool = True

    def __post_init__(self):
        rng = np.random.default_rng(1441)
        for _ in range(20):
            q = rng.uniform(-2, 2, 3)
            if np.max(np.abs(np.asarray(self.base_inverse(np.asarray(self.base(q))))
                             - q)) > 1e-8:
                raise ValueError("base_inverse does not invert base on samples")
        if self.lift is not None and self.verify_lift:
            for _ in range(20):
                s = rng.uniform(-2, 2, 6)
                if np.max(np.abs(np.asarray(self.lift(s))
                                 - self._canonical_lift(s))) > 1e-8:
                    raise ValueError(
                        "custom lift differs from the cotangent lift of base")

    def _canonical_lift(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        q1 = np.asarray(self.base_inverse(state[:3]), dtype=float)
        D = fd.jacobian(self.base, q1)
        return np.concatenate([q1, D.T @ state[3:6]])

    def apply_lift(self, state: np.ndarray) -> np.ndarray:
        if self.lift is not None:
            return np.asarray(self.lift(np.asarray(state, dtype=float)), dtype=float)
        return self._canonical_lift(state)

    def apply_inverse_lift(self, state: np.ndarray) -> np.ndarray:
        if self.lift_inverse is not None:
            return np.asarray(self.lift_inverse(np.asarray(state, dtype=float)),
                              dtype=float)
        state = np.asarray(state, dtype=float)
        q1 = state[:3]
        D = fd.jacobian(self.base, q1)
        return np.concatenate([np.asarray(self.base(q1), dtype=float),
                               np.linalg.solve(D.T, state[3:6])])

    def push_lift(self, state: np.ndarray, vector: np.ndarray) -> np.ndarray:
        if self.lift_tangent is not None:
            return np.asarray(self.lift_tangent(state, vector), dtype=float)
        return fd.directional(self.apply_lift, np.asarray(state, dtype=float),
                              np.asarray(vector, dtype=float))

    @classmethod
    def identity(cls) -> "DiffeoSpec":
        copy3 = lambda q: np.asarray(q, dtype=float).copy()
        copy6 = lambda s: np.asarray(s, dtype=float).copy()
        return cls(copy3, copy3, lift=copy6,
                   lift_tangent=lambda s, v: np.asarray(v, dtype=float).copy(),
                   lift_inverse=copy6)

    @classmethod
    def group_translation(cls, h: GroupElement) -> "DiffeoSpec":
        """Left translation by h on the group chart."""
        h_inv = inverse(h)

        def chart_map(g: GroupElement):
            def act(q: np.ndarray) -> np.ndarray:
                return multiply(g, GroupElement(q[:2], q[2])).as_array()
            return act

        return cls(chart_map(h), chart_map(h_inv))


def _extend_lift(phi: DiffeoSpec, state: np.ndarray, k: int) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    return np.concatenate([phi.apply_lift(state[:6]), state[6:]])


def _extend_push(phi: DiffeoSpec, state: np.ndarray, vector: np.ndarray,
                 k: int) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    vector = np.asarray(vector, dtype=float)
    return np.concatenate([phi.push_lift(state[:6], vector[:6]), vector[6:]])


def check_mr1(phi: DiffeoSpec, field1: MagneticField, field2: MagneticField,
              samples: int = 100, seed: int = 5501,
              threshold: float = 1e-5) -> CheckRecord:
    """Is the lift symplectic between the two magnetic forms?

    Pulls the source-side form back through the tangent of the lift and
    compares with the target-side form on random points and tangent pairs.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(max(1, samples)):
        x2 = rng.uniform(-2, 2, 6)
        x1 = phi.apply_lift(x2)
        v, w = rng.normal(size=6), rng.normal(size=6)
        pv, pw = phi.push_lift(x2, v), phi.push_lift(x2, w)
        lhs = magnetic_form(PhasePoint(x1[:3], x1[3:6]), pv, pw, field1)
        rhs = magnetic_form(PhasePoint(x2[:3], x2[3:6]), v, w, field2)
        worst = max(worst, abs(lhs - rhs))
    return CheckRecord("mr1.symplectic", samples, worst, threshold)


def check_mr2_equivariance(phi: DiffeoSpec, level1: CoAlgebraElement,
                           level2: CoAlgebraElement, field1: MagneticField,
                           field2: MagneticField, samples: int = 50,
                           seed: int = 5711, level_threshold: float = 1e-7,
                           isotropy_threshold: float = 1e-7) -> list[CheckRecord]:
    """Level mapping and isotropy commutation of the lift.

    The lift must carry the source momentum level into the target one, and
    commute with the isotropy elements of the source level. Isotropy
    candidates are center elements plus random elements kept only when they
    numerically fix the level (for nonzero nu that leaves just the center).
    """
    rng = np.random.default_rng(seed)
    level_worst = 0.0
    for _ in range(max(1, samples)):
        x2 = sample_level_point(level2, field2, 0, rng)
        x1 = phi.apply_lift(extended_to_chart(x2))
        J1 = momentum_map(extended_from_chart(x1, 0), field1)
        level_worst = max(level_worst, float(np.max(np.abs(
            J1.as_array() - level1.as_array()))))

    candidates = [GroupElement((0.0, 0.0), t) for t in rng.uniform(-3, 3, 8)]
    for _ in range(12):
        g = GroupElement(rng.uniform(-2, 2, 2), rng.uniform(-2, 2))
        moved = coadjoint(g, level2)
        if np.max(np.abs(moved.as_array() - level2.as_array())) <= 1e-12:
            candidates.append(g)

    def translate(g: GroupElement, s: np.ndarray) -> np.ndarray:
        return extended_to_chart(left_translate_point(g, extended_from_chart(s, 0)))

    iso_worst = 0.0
    for _ in range(max(1, samples)):
        s2 = rng.uniform(-2, 2, 6)
        for g in candidates:
            lhs = phi.apply_lift(translate(g, s2))
            rhs = translate(g, phi.apply_lift(s2))
            iso_worst = max(iso_worst, float(np.max(np.abs(lhs - rhs))))
    return [CheckRecord("mr2.level", samples, level_worst, level_threshold),
            CheckRecord("mr2.isotropy", samples, iso_worst, isotropy_threshold)]


def check_mr3_matching(sys1: RCHSystem, sys2: RCHSystem, phi: DiffeoSpec,
                       samples: int = 40, seed: int = 5903,
                       vertical_threshold: float = 1e-6,
                       horizontal_threshold: float = 1e-8) -> list[CheckRecord]:
    """Vector-field mismatch modulo the control subset.

    Assembles, at lifted sample points, the difference between the
    forced dynamics of the target system and the transported forced dynamics
    of the source system. Membership in vertical lifts of the control subset
    is decided by least squares against the subset's spanning directions;
    the horizontal component must vanish on its own, since no vertical lift
    can absorb it.
    """
    if sys1.control_subset is None:
        raise ControlSubsetMissing("matching needs the control subset of sys1")
    if sys1.k != sys2.k:
        raise ValueError("systems must share the V-factor dimension")
    k = sys1.k
    rng = np.random.default_rng(seed)
    base, fiber = _base_fiber_indices(k)
    vertical_worst = 0.0
    horizontal_worst = 0.0
    for _ in range(max(1, samples)):
        x2 = rng.uniform(-2, 2, 6 + 2 * k)
        x1 = _extend_lift(phi, x2, k)
        residual = hamiltonian_vector_field(sys1, x1)
        if sys1.force is not None:
            residual = residual + vertical_lift(sys1.force, sys1, x1)
        residual = residual - _extend_push(phi, x2,
                                           hamiltonian_vector_field(sys2, x2), k)
        if sys2.force is not None:
            def transported(s: np.ndarray) -> np.ndarray:
                down = np.concatenate([phi.apply_inverse_lift(s[:6]), s[6:]])
                return _extend_lift(phi, np.asarray(sys2.force.apply(down)), k)

            residual = residual - vertical_lift(FiberMap(apply=transported), sys1, x1)
        horizontal_worst = max(horizontal_worst,
                               float(np.max(np.abs(residual[base]), initial=0.0)))
        vertical_worst = max(vertical_worst, _span_distance(
            sys1.control_subset.spanning, residual[fiber]))
    return [CheckRecord("mr3.vertical", samples, vertical_worst, vertical_threshold),
            CheckRecord("mr3.horizontal", samples, horizontal_worst,
                        horizontal_threshold)]
