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
from math import isfinite
from numbers import Real
from typing import Callable

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
    _fiber_push,
    _momentum_shift,
    left_translate,
    level_lift,
    magnetic_form,
    momentum_map,
    momentum_shift,
    project_chart,
    sample_level_point,
)
from .orbit import (
    MagneticCocycle,
    OrbitFunction,
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
        # The record constraints of report.schema.json, enforced here so that
        # every record serializes into a valid report. Residuals often arrive
        # as numpy scalars; they are normalized to native types, so passed is
        # a plain bool.
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"check name must be a non-empty string, "
                             f"got {self.name!r}")
        if not _is_count(self.samples):
            raise ValueError(f"{self.name}: samples must be an integer >= 0, "
                             f"got {self.samples!r}")
        if not all(isinstance(value, Real)
                   for value in (self.max_residual, self.threshold)):
            raise ValueError(f"{self.name}: residual and threshold must be "
                             f"real numbers, got {self.max_residual!r} and "
                             f"{self.threshold!r}")
        residual, threshold = float(self.max_residual), float(self.threshold)
        if not isfinite(residual):
            raise FloatingPointError(f"{self.name}: non-finite residual "
                                     f"{residual}")
        if residual < 0:
            raise ValueError(f"{self.name}: negative residual {residual}")
        if not (threshold > 0 and isfinite(threshold)):
            raise ValueError(f"{self.name}: threshold must be finite and "
                             f"positive, got {threshold}")
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "max_residual", residual)
        object.__setattr__(self, "threshold", threshold)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "threshold": self.threshold,
            "passed": self.passed,
        }


def _is_count(value) -> bool:
    """Whether value is an integer >= 0: Python and numpy integers count; a
    bool does not (nor in JSON Schema), and neither does any float."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= 0)


def _require_samples(samples: int) -> None:
    """ValueError unless a sweep asks for at least one sample, so that no
    record reports a sample count it did not measure."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")


def _reduced_fiber_indices(k: int) -> np.ndarray:
    """Fiber index array (rho, lam) of the orbit chart."""
    return np.concatenate([np.arange(2), np.arange(2 + k, 2 + 2 * k)]).astype(int)


def _independent_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space, dropping directions whose
    singular value is at most 1e-12 relative to the largest (above 1)."""
    if rows.size == 0:
        return np.zeros((0, rows.shape[1] if rows.ndim == 2 else 0))
    _, s, vt = np.linalg.svd(rows)
    keep = s > 1e-12 * max(1.0, s[0] if s.size else 1.0)
    return vt[: int(np.count_nonzero(keep))]


@dataclass(frozen=True)
class ReducedRCHSystem:
    """Controlled system dropped to the orbit chart O x V x V*.

    Everything acts on flat charts (rho1, rho2, theta..., lam...) of the leaf
    at height level.nu, which labels the leaf and is no chart coordinate. The
    reduced force and control are the source system's fiber maps, read at
    the level lift through reduced_vertical_lift. The level lift is affine in
    the chart: lift_offset + lift_matrix @ chart puts an orbit chart on the
    level set at center height zero.
    """

    level: CoAlgebraElement
    orbit_kind: str
    hamiltonian: OrbitFunction
    source: RCHSystem
    lift_offset: np.ndarray
    lift_matrix: np.ndarray

    @property
    def k(self) -> int:
        return self.source.k

    def lift(self, chart: np.ndarray, alpha: float = 0.0) -> np.ndarray:
        """Chart state of magnetic.level_lift moved to center height alpha.

        The center height is q3 alone, which the level set leaves free, so
        the stored affine pair (height zero) covers every height.
        """
        out = self.lift_offset + self.lift_matrix @ chart
        out[2] += alpha
        return out

    def control_subset_at(self, chart: np.ndarray) -> ControlSubset:
        """Projection of the source control subset to the reduced fiber at chart.

        The fiber projection (p, lam) -> (rho, lam) at a lift of chart is
        affine, so the image of an affine subset is the projected offset plus
        the linear images of its spanning rays; collapsed rays are discarded.
        """
        if self.source.control_subset is None:
            raise ControlSubsetMissing("source system carries no control subset")
        k = self.k
        subset = self.source.control_subset
        state = self.lift(chart)
        _, fiber = _base_fiber_indices(k)
        state[fiber] = subset.offset
        offset = project_chart(state, self.source.field)[_reduced_fiber_indices(k)]
        rays = np.array([_fiber_push(state[:3], row)
                         for row in subset.spanning]).reshape(-1, offset.size)
        return ControlSubset(offset, _independent_rows(rays))


# Random (state, translation) pairs each fiber map is swept on.
_EQUIVARIANCE_ROUNDS = 60
# Tolerance of reduce_system's invariance and lift-independence sweeps.
_SWEEP_TOL = 1e-10


def _equivariance_sweep(fm: FiberMap, k: int, rng: np.random.Generator,
                        what: str) -> None:
    for _ in range(_EQUIVARIANCE_ROUNDS):
        s = rng.uniform(-2, 2, 6 + 2 * k)
        h = rng.uniform(-2, 2, 3)
        lhs = np.asarray(fm.apply(left_translate(h, s)), dtype=float)
        rhs = left_translate(h, fm.apply(s))
        if np.max(np.abs(lhs - rhs)) > _SWEEP_TOL:
            raise NotInvariant(f"{what} map is not equivariant under left translation")
        if abs(np.asarray(fm.apply(s))[5] - s[5]) > _SWEEP_TOL:
            raise NotInvariant(
                f"{what} map moves the center momentum and does not descend to the orbit")


def reduce_system(sys: RCHSystem, mu_nu: CoAlgebraElement,
                  expected_orbit: str = "plane") -> ReducedRCHSystem:
    """Drop an invariant controlled system to the orbit through (mu, nu).

    The Hamiltonian, force, and control are swept for left-invariance (the
    fiber maps additionally for preservation of the center momentum, without
    which they cannot stay on the orbit leaf), and their lift-project images
    are verified on a seeded sample not to depend on the lift, each to
    _SWEEP_TOL. The orbit form in this presentation carries no magnetic
    cocycle: the fiber shift that trivializes the potential has already eaten
    it, so the reduced structure is the plain minus form on the leaf plus the
    canonical form on V x V*. The level lift is sampled once into its affine
    pair, and the reduced Hamiltonian reads it: its value is H at the lift,
    H(lift_offset + lift_matrix @ chart). For a Hamiltonian of kind
    "invariant" (mass m) that is |rho - s|^2/(2m) + const,
    s = charge_factor * A(e), and it declares that form,
    Q = diag(1/m, 1/m, 0...) and c = (-s1/m, -s2/m, 0...); any other kind
    gets the exact chain-rule gradient (D lift)^T grad H at the lift.
    """
    orbit_kind = classify_orbit(mu_nu.as_array())
    if orbit_kind != expected_orbit:
        raise IrregularLevel(
            f"level has a {orbit_kind} orbit where a {expected_orbit} orbit "
            "was requested")
    rng = np.random.default_rng(2214)
    # Probe the momentum map once so an incompatible field fails loudly here.
    momentum_map(sample_level_point(mu_nu, sys.field, sys.k, rng), sys.field)

    k, H = sys.k, sys.hamiltonian
    invariance_rng = np.random.default_rng(7121)
    for _ in range(100):
        x = invariance_rng.uniform(-2, 2, 6 + 2 * k)
        g = invariance_rng.uniform(-2, 2, 3)
        if abs(H.evaluate(left_translate(g, x)) - H.evaluate(x)) > _SWEEP_TOL:
            raise NotInvariant(
                f"Hamiltonian is not left-invariant to {_SWEEP_TOL:g}")

    # At a fixed level, level_lift(chart) = lift_matrix @ chart + offset.
    lift_matrix, offset = dynamics._affine_pair(
        lambda charts: np.array([level_lift(chart, mu_nu, sys.field)
                                 for chart in charts]), 2 + 2 * k)

    def evaluate(chart: np.ndarray) -> float:
        return float(H.evaluate(offset + lift_matrix @ chart))

    if H.kind == "invariant":
        m, zeros = H.mass, np.zeros(2 * k)
        s = sys.field.charge_factor * sys.field.identity_potential_value()[:2]
        h_red = OrbitFunction(evaluate, form=(
            np.diag(np.append([1 / m, 1 / m], zeros)), np.append(-s / m, zeros)))
    else:
        h_red = OrbitFunction(evaluate, lambda chart: lift_matrix.T @ (
            H.grad(offset + lift_matrix @ chart)))

    red = ReducedRCHSystem(mu_nu, orbit_kind, h_red, sys, offset, lift_matrix)
    for what, fm in (("force", sys.force), ("control", sys.control)):
        if fm is not None:
            _equivariance_sweep(fm, k, rng, what)

    # Lift-independence: the same orbit point, lifted at different center
    # heights, must give identical reduced values.
    for _ in range(20):
        chart = rng.uniform(-2, 2, 2 + 2 * k)
        lifts = [red.lift(chart, alpha) for alpha in (0.0, 0.9, -1.7)]
        values = [H.evaluate(s) for s in lifts]
        if max(values) - min(values) > _SWEEP_TOL:
            raise NotInvariant("reduced Hamiltonian value depends on the lift")
        for fm in (sys.force, sys.control):
            if fm is None:
                continue
            images = [project_chart(fm.apply(s), sys.field)
                      for s in lifts]
            if max(np.max(np.abs(im - images[0])) for im in images) > _SWEEP_TOL:
                raise NotInvariant("reduced fiber map depends on the lift")
    return red


def reduced_hamiltonian_field(red: ReducedRCHSystem, chart: np.ndarray) -> np.ndarray:
    """Chart velocity of the reduced Hamiltonian part at a flat orbit chart.

    Plane orbits use the closed-form orbit field with no cocycle on the leaf
    at red.level.nu; point orbits have no rho freedom, leaving only the
    canonical flow on the V x V* factor.
    """
    if red.orbit_kind == "point":
        grad = red.hamiltonian.grad(chart)
        k = red.k
        return np.concatenate([np.zeros(2), grad[2 + k:], -grad[2:2 + k]])
    return orbit_hamiltonian_vector_field(red.hamiltonian, chart, red.level.nu,
                                          _NO_COCYCLE)


def reduced_vertical_lift(fm: FiberMap, red: ReducedRCHSystem,
                          chart: np.ndarray) -> np.ndarray:
    """Orbit-chart image of the vertical correction of a source fiber map.

    The full-space vertical lift is computed at the stored lift of chart and
    pushed down through the tangent of the projection on the fiber, which is
    exact because the projection is affine there. Equivariance of the fiber
    map makes the result independent of the lift. A chart-level imitation
    (lifting the reduced map directly) would miss the base dependence of the
    projection and is deliberately not offered.
    """
    lift = red.lift(chart)
    return _fiber_push(lift[:3], vertical_lift(fm, red.source, lift)[3:])


def reduced_rch_field(red: ReducedRCHSystem, chart: np.ndarray) -> np.ndarray:
    """Full reduced dynamics: Hamiltonian part plus reduced vertical lifts."""
    out = reduced_hamiltonian_field(red, chart)
    if red.source.force is not None:
        out = out + reduced_vertical_lift(red.source.force, red, chart)
    if red.source.control is not None:
        out = out + reduced_vertical_lift(red.source.control, red, chart)
    return out


def integrate_reduced(red: ReducedRCHSystem, chart0: np.ndarray, t_end: float,
                      h: float, method: str = "midpoint"):
    """Flow the reduced field on the orbit chart.

    Returns (times, charts, energies); charts hold rows
    (rho1, rho2, theta..., lam...), and each energy is the source Hamiltonian
    at the chart's stored level lift, all rows lifted in one product (and,
    for a source of kind "invariant", evaluated in one pass too).
    Implicit midpoint is appropriate here because the chart form is constant
    on the leaf. chart0 is the flat start chart on red.level's leaf (as
    reduce_point returns it); ValueError unless it is a finite flat array of
    size 2 + 2 * red.k.

    The route is read from declarations at each call, never cached on red:
    if red.hamiltonian declares its form and the source force and control are
    each absent or declared affine, the reduced field is A @ z + b, read off
    reduced_rch_field at the zero and unit charts (dynamics._affine_pair,
    one chart at a time), and each step is one propagator matrix (see
    dynamics._propagator; midpoint beyond its contraction guard iterates).
    Everything else iterates reduced_rch_field.
    """
    chart0 = np.asarray(chart0, dtype=float)
    if chart0.shape != (2 + 2 * red.k,) or not np.isfinite(chart0).all():
        raise ValueError(f"start chart must be a finite flat array of size "
                         f"{2 + 2 * red.k}, got size {chart0.size} "
                         f"(shape {chart0.shape})")
    dynamics._check_run(t_end, h, method)
    rhs = lambda chart: reduced_rch_field(red, chart)
    affine = red.hamiltonian.form is not None and all(
        fm is None or fm.affine for fm in (red.source.force, red.source.control))
    generator = dynamics._affine_pair(
        lambda charts: np.array([rhs(chart) for chart in charts]),
        chart0.size) if affine else None
    times, charts, _ = dynamics._fixed_step_flow(rhs, chart0, t_end, h, method,
                                                 generator)
    lifted = red.lift_offset + charts @ red.lift_matrix.T
    return times, charts, dynamics._state_energies(red.source.hamiltonian,
                                                   lifted)


def check_commutation(sys: RCHSystem, red: ReducedRCHSystem, samples: int = 100,
                      seed: int = 4407) -> CheckRecord:
    """Compare T(projection) of the full field with the reduced field.

    For each sampled level-set point the full dynamical field is pushed
    through the finite-difference tangent of the orbit projection and held
    against the reduced field at the projected point; the record keeps the
    worst component mismatch, against 1e-5.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    worst = 0.0
    k = sys.k
    for _ in range(samples):
        state = sample_level_point(red.level, sys.field, k, rng)
        full = rch_vector_field(sys, state)
        lhs = fd.directional(lambda s: project_chart(s, sys.field),
                             state, full, fd.GRADIENT_STEP)
        rhs = reduced_rch_field(red, project_chart(state, sys.field))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return CheckRecord("reduction.commutation", samples, worst, 1e-5)


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


def kaluza_klein_system(field: MagneticField, m: float, mu: float) -> KKSystem:
    """Build the circle-extended geodesic system for an exact magnetic field.

    The geodesic gradient uses the field's declared potential Jacobian, in
    ndarray arithmetic (its products go through BLAS). kk_reduce_and_compare
    steps the same field as Python float sums in a stated operation order
    (_geodesic_float_field), which agrees with this gradient to rounding.
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
    return KKSystem(field, float(m), float(mu), HamiltonianSpec(evaluate, gradient))


def _geodesic_float_field(field: MagneticField, m: float) -> Callable[[list], list]:
    """rch_vector_field of the geodesic system upstairs (zero field, k = 1,
    the Hamiltonian kaluza_klein_system builds from field and m) as a float
    kernel: a sequence of 8 floats in, a list out, which the step drivers of
    dynamics._step_template run as they run every right-hand side.

    One body serves every field kind, in Python floats with this operation
    order (D the potential Jacobian, D[i][j] = d_j A_i):
      A_i = a_i + ((D[i][0]*q0 + D[i][1]*q1) + D[i][2]*q2) for a linear or
        invariant field, with a = A(0) and the constant D read once; a
        general field's callables give A(q) and D(q) once per call;
      w_i = (p_i - lam*A_i)/m;
      (D^T w)_j = (D[0][j]*w0 + D[1][j]*w1) + D[2][j]*w2, and
        A.w = (A_0*w0 + A_1*w1) + A_2*w2;
      qdot = w, pdot_j = lam*(D^T w)_j + 0.0 (the zero field's B w, which
        also turns -0.0 into 0.0), thetadot = -(A.w) + lam, lamdot = -0.0.
    These are the operations of that Hamiltonian's gradient and
    hamiltonian_vector_field, so the kernel agrees with them to rounding;
    its bits follow the order above, not the BLAS build's summation.
    """
    if field.kind in ("linear", "invariant"):
        origin = np.zeros(3)
        a0, a1, a2 = field.vector_potential(origin).tolist()
        jac = tuple(field.vector_potential_jacobian(origin).ravel().tolist())
        d00, d01, d02, d10, d11, d12, d20, d21, d22 = jac

        def potential(q0, q1, q2):
            return ((a0 + ((d00 * q0 + d01 * q1) + d02 * q2),
                     a1 + ((d10 * q0 + d11 * q1) + d12 * q2),
                     a2 + ((d20 * q0 + d21 * q1) + d22 * q2)), jac)
    else:
        def potential(q0, q1, q2):
            # A general field's potential is the user's, of one point.
            q = np.array((q0, q1, q2))
            return (field.vector_potential(q).tolist(),
                    field.vector_potential_jacobian(q).ravel().tolist())

    def rhs(y):
        q0, q1, q2, p0, p1, p2, _, lam = y
        (A0, A1, A2), (e00, e01, e02, e10, e11, e12, e20, e21, e22) = (
            potential(q0, q1, q2))
        w0 = (p0 - lam * A0) / m
        w1 = (p1 - lam * A1) / m
        w2 = (p2 - lam * A2) / m
        return [w0, w1, w2,
                lam * ((e00 * w0 + e10 * w1) + e20 * w2) + 0.0,
                lam * ((e01 * w0 + e11 * w1) + e21 * w2) + 0.0,
                lam * ((e02 * w0 + e12 * w1) + e22 * w2) + 0.0,
                -((A0 * w0 + A1 * w1) + A2 * w2) + lam, -0.0]

    rhs.on_floats = True
    return rhs


def kk_alpha_form_check(kk: KKSystem, samples: int = 20,
                        seed: int = 3313) -> CheckRecord:
    """Finite-difference exterior derivative of the connection one-form.

    At the level lam = mu the one-form mu*(A dq + dtheta) on the base must
    differentiate to mu times the magnetic two-form, with vanishing
    theta-components, to 1e-6.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    mu = kk.mu

    def alpha(y: np.ndarray) -> np.ndarray:
        return mu * np.append(kk.field.vector_potential(y[:3]), 1.0)

    worst = 0.0
    for _ in range(samples):
        y = rng.uniform(-2, 2, 4)
        curl = fd.one_form_curl(alpha, y)
        expected = np.zeros((4, 4))
        expected[:3, :3] = mu * kk.field.b(y[:3])
        worst = max(worst, float(np.max(np.abs(curl - expected))))
    return CheckRecord("kk.alpha_form", samples, worst, 1e-6)


def kk_reduce_and_compare(kk: KKSystem, x0: np.ndarray, t_end: float = 1.0,
                          h: float = 1e-4) -> list[CheckRecord]:
    """Integrate the geodesic flow upstairs and the magnetic flow downstairs.

    The initial magnetic chart state x0 = (q, p) is lifted to the circle
    bundle at level lam = mu by the fiber shift p -> p + mu*A(q), both flows
    run by rk4 on the same grid, and the geodesic trajectory is pushed back
    down by the inverse shift. Records report the worst state mismatch
    (against 1e-6) and the conservation drift of lam (against 1e-8). The
    geodesic flow steps on Python floats (_geodesic_float_field of kk.field
    and kk.m, whose docstring states the operation order), so its bits do
    not depend on the BLAS build; it agrees with the field of kk.hamiltonian
    to rounding.
    """
    mu = kk.mu
    charged = replace(kk.field, charge_factor=mu)
    lift0 = dynamics._as_state(
        np.concatenate([momentum_shift(x0, charged), [0.0, mu]]), 1)
    _, states_up, _ = dynamics._fixed_step_flow(
        _geodesic_float_field(kk.field, kk.m), lift0, t_end, h, "rk4")

    downstairs = RCHSystem(charged, euclidean_kinetic_hamiltonian(kk.m))
    traj_down = dynamics.integrate(downstairs, x0, t_end, h, "rk4")

    inverse_shift = replace(kk.field, charge_factor=-mu)
    if kk.field.is_constant:
        projected = _momentum_shift(states_up[:, :6], inverse_shift)
    else:
        # A general field's potential is the user's, of one point.
        projected = np.array([_momentum_shift(row[:6], inverse_shift)
                              for row in states_up])
    mismatch = float(np.max(np.abs(projected - traj_down.states)))
    drift = float(np.max(np.abs(states_up[:, 7] - mu)))
    n = states_up.shape[0]
    return [CheckRecord("kk.trajectory_match", n, mismatch, 1e-6),
            CheckRecord("kk.lambda_drift", n, drift, 1e-8)]


@dataclass(frozen=True)
class DiffeoSpec:
    """Base diffeomorphism with its cotangent lift.

    base maps source configurations to target ones; the lift runs the other
    way, (q2, p2) -> (inverse(q2), Dbase(q1)^T p2), fiberwise linear by
    construction. base_inverse must undo base on seeded samples to 1e-8
    relative to the image above unit size (the round trip rounds at the
    image's scale). A custom lift callable may replace the canonical one; by
    default it is checked against the transpose formula on seeded samples,
    to 1e-8 relative to the canonical lift above unit size (the formula's
    finite-difference noise grows with it), and fixtures that deliberately
    break the formula construct with verify_lift=False. Optional analytic
    tangent and inverse callables avoid finite-difference noise where
    exactness matters.
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
            image = np.asarray(self.base(q))
            if np.max(np.abs(np.asarray(self.base_inverse(image)) - q)) > (
                    1e-8 * max(1.0, np.max(np.abs(image)))):
                raise ValueError("base_inverse does not invert base on samples")
        if self.lift is not None and self.verify_lift:
            for _ in range(20):
                s = rng.uniform(-2, 2, 6)
                canonical = self._canonical_lift(s)
                if np.max(np.abs(np.asarray(self.lift(s)) - canonical)) > (
                        1e-8 * max(1.0, np.max(np.abs(canonical)))):
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
        """Left translation by h on the group chart, with its exact cotangent
        lift: left_translate by h^-1, which keeps the body momentum, and by h
        for the inverse. The lift is a polynomial of degree 2 in the state,
        so its central difference with unit step is its exact tangent."""
        g = h.as_array()
        g_inv = inverse(g)

        def lift(s):
            return left_translate(g_inv, s)

        def lift_tangent(s, v):
            s, v = np.asarray(s, dtype=float), np.asarray(v, dtype=float)
            return 0.5 * (lift(s + v) - lift(s - v))

        return cls(lambda q: multiply(g, q), lambda q: multiply(g_inv, q),
                   lift=lift, lift_tangent=lift_tangent,
                   lift_inverse=lambda s: left_translate(g, s))


def _extend_lift(phi: DiffeoSpec, state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    return np.concatenate([phi.apply_lift(state[:6]), state[6:]])


def _extend_push(phi: DiffeoSpec, state: np.ndarray,
                 vector: np.ndarray) -> np.ndarray:
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
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x2 = rng.uniform(-2, 2, 6)
        x1 = phi.apply_lift(x2)
        v, w = rng.normal(size=6), rng.normal(size=6)
        pv, pw = phi.push_lift(x2, v), phi.push_lift(x2, w)
        lhs = magnetic_form(x1, pv, pw, field1)
        rhs = magnetic_form(x2, v, w, field2)
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
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    p1, p2 = level1.as_array(), level2.as_array()
    level_worst = 0.0
    for _ in range(samples):
        x2 = sample_level_point(level2, field2, 0, rng)
        x1 = phi.apply_lift(x2)
        level_worst = max(level_worst, float(np.max(np.abs(
            momentum_map(x1, field1) - p1))))

    candidates = [np.array([0.0, 0.0, t]) for t in rng.uniform(-3, 3, 8)]
    for _ in range(12):
        g = rng.uniform(-2, 2, 3)
        if np.max(np.abs(coadjoint(g, p2) - p2)) <= 1e-12:
            candidates.append(g)

    iso_worst = 0.0
    for _ in range(samples):
        s2 = rng.uniform(-2, 2, 6)
        for g in candidates:
            lhs = phi.apply_lift(left_translate(g, s2))
            rhs = left_translate(g, phi.apply_lift(s2))
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
    of the source system; sys1's side is rch_vector_field of sys1 without
    its control, which enters only through its subset. Membership in
    vertical lifts of the control subset is its distance to the affine
    subset, offset plus span
    (ControlSubset.distance, as ControlSubset.contains decides); the
    horizontal component must vanish on its own, since no vertical lift can
    absorb it.
    """
    _require_samples(samples)
    if sys1.control_subset is None:
        raise ControlSubsetMissing("matching needs the control subset of sys1")
    if sys1.k != sys2.k:
        raise ValueError("systems must share the V-factor dimension")
    k = sys1.k
    rng = np.random.default_rng(seed)
    base, fiber = _base_fiber_indices(k)
    uncontrolled = replace(sys1, control=None)
    vertical_worst = 0.0
    horizontal_worst = 0.0
    for _ in range(samples):
        x2 = rng.uniform(-2, 2, 6 + 2 * k)
        x1 = _extend_lift(phi, x2)
        residual = rch_vector_field(uncontrolled, x1) - _extend_push(
            phi, x2, hamiltonian_vector_field(sys2, x2))
        if sys2.force is not None:
            def transported(s: np.ndarray) -> np.ndarray:
                down = np.concatenate([phi.apply_inverse_lift(s[:6]), s[6:]])
                return _extend_lift(phi, np.asarray(sys2.force.apply(down)))

            residual = residual - vertical_lift(FiberMap(apply=transported), sys1, x1)
        horizontal_worst = max(horizontal_worst,
                               float(np.max(np.abs(residual[base]), initial=0.0)))
        vertical_worst = max(vertical_worst,
                             sys1.control_subset.distance(residual[fiber]))
    return [CheckRecord("mr3.vertical", samples, vertical_worst, vertical_threshold),
            CheckRecord("mr3.horizontal", samples, horizontal_worst,
                        horizontal_threshold)]
