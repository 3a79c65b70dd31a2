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
from functools import partial
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
    _state_energies,
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
from .group import (CoAlgebraElement, GroupElement, _dot, _matvec, _vecmat,
                    coadjoint, inverse, multiply)
from .magnetic import (
    MagneticField,
    _fiber_push,
    _level_points,
    left_translate,
    level_lift,
    magnetic_form,
    momentum_map,
    momentum_shift,
    omega_matrix,
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


def _worst(residuals) -> float:
    """Largest absolute entry: a record's max residual over its samples (0.0
    over none). A nan entry makes it nan, which CheckRecord refuses."""
    return float(np.max(np.abs(residuals), initial=0.0))


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
    level set at center height zero. lift, reduced_vertical_lift and
    reduced_rch_field also take a stack (..., 2 + 2k) of charts, row i
    bitwise the call on row i.
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
        the stored affine pair (height zero) covers every height. A stack of
        charts gives the stack of states; alpha is added to out[..., 2], so
        it may hold one height per chart.
        """
        out = self.lift_offset + _matvec(self.lift_matrix, chart)
        out[..., 2] += alpha
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
        rays = _fiber_push(state[:3], subset.spanning).reshape(-1, offset.size)
        return ControlSubset(offset, _independent_rows(rays))


# Random (state, translation) pairs each fiber map is swept on.
_EQUIVARIANCE_ROUNDS = 60
# Tolerance of reduce_system's invariance and lift-independence sweeps.
_SWEEP_TOL = 1e-10
# Center heights at which the lift-independence sweep lifts each chart.
_LIFT_HEIGHTS = (0.0, 0.9, -1.7)


def _require_within(*checks: tuple[np.ndarray, str]) -> None:
    """NotInvariant unless every round of a sweep is within _SWEEP_TOL.

    Each check is (residual per round, message), in the order a round tests
    them; the message raised is that of the first failing check in the
    first failing round. A residual passes only if it is at most _SWEEP_TOL,
    so a nan fails.
    """
    failing = [~(residuals <= _SWEEP_TOL) for residuals, _ in checks]
    rounds = np.logical_or.reduce(failing)
    if rounds.any():
        i = int(np.argmax(rounds))
        raise NotInvariant(next(message for bad, (_, message)
                                in zip(failing, checks) if bad[i]))


def _translation_pairs(rng: np.random.Generator, rounds: int,
                       k: int) -> tuple[np.ndarray, np.ndarray]:
    """rounds pairs (state, translation), the rows of one
    uniform(-2, 2, (rounds, 9 + 2k)) block: the stream of rounds draws of a
    state (6 + 2k), then a translation (3)."""
    block = rng.uniform(-2, 2, (rounds, 9 + 2 * k))
    return block[:, :6 + 2 * k], block[:, 6 + 2 * k:]


def _where_finite(f: Callable[..., np.ndarray], *stacks: np.ndarray
                  ) -> np.ndarray:
    """f on the rows at which every stack is finite, and nan rows elsewhere.

    The sweeps read a fiber map's images through the checked chart
    functions this way: an image that overflows fails its round as a nan
    residual (NotInvariant), not as the chart-state check's ValueError.
    """
    finite = np.logical_and.reduce([np.isfinite(s).all(axis=-1) for s in stacks])
    out = f(*(np.where(finite[..., None], s, 0.0) for s in stacks))
    out[~finite] = np.nan
    return out


def _invariance_residuals(H: HamiltonianSpec, k: int) -> np.ndarray:
    """|H(g x) - H(x)| on the invariance sweep's 100 pairs (x, g), seed 7121."""
    x, g = _translation_pairs(np.random.default_rng(7121), 100, k)
    return np.abs(_state_energies(H, left_translate(g, x))
                  - _state_energies(H, x))


def _equivariance_residuals(fm: FiberMap, k: int, rng: np.random.Generator
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per pair (s, h) of _EQUIVARIANCE_ROUNDS: the largest entry of
    |F(h s) - h F(s)|, and |F(s)_p3 - s_p3|, the center momentum F moves."""
    s, h = _translation_pairs(rng, _EQUIVARIANCE_ROUNDS, k)
    moved = fm.image(s)
    gap = fm.image(left_translate(h, s)) - _where_finite(left_translate, h, moved)
    return np.max(np.abs(gap), axis=1), np.abs(moved[:, 5] - s[:, 5])


def _lift_residuals(red: "ReducedRCHSystem", rng: np.random.Generator
                    ) -> list[np.ndarray]:
    """Per chart of the lift-independence sweep's 20, each lifted at the
    center heights _LIFT_HEIGHTS: the spread of H over its lifts, then, for
    the force and the control present, the largest entry of the gap between
    the projected images of its lifts and of the first."""
    sys, heights = red.source, len(_LIFT_HEIGHTS)
    charts = rng.uniform(-2, 2, (20, 2 + 2 * red.k))
    lifts = red.lift(np.repeat(charts, heights, axis=0),
                     np.tile(_LIFT_HEIGHTS, 20))
    values = _state_energies(sys.hamiltonian, lifts).reshape(20, heights)
    out = [values.max(axis=1) - values.min(axis=1)]
    for fm in (sys.force, sys.control):
        if fm is not None:
            images = _where_finite(partial(project_chart, field=sys.field),
                                   fm.image(lifts)).reshape(20, heights, -1)
            out.append(np.max(np.abs(images - images[:, :1]), axis=(1, 2)))
    return out


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
    _require_within((_invariance_residuals(H, k),
                     f"Hamiltonian is not left-invariant to {_SWEEP_TOL:g}"))

    # At a fixed level, level_lift(chart) = lift_matrix @ chart + offset.
    lift_matrix, offset = dynamics._affine_pair(
        partial(level_lift, mu_nu=mu_nu, field=sys.field), 2 + 2 * k)

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
            equivariance, center = _equivariance_residuals(fm, k, rng)
            _require_within(
                (equivariance,
                 f"{what} map is not equivariant under left translation"),
                (center, f"{what} map moves the center momentum and does "
                 "not descend to the orbit"))

    # Lift-independence: the same orbit point, lifted at different center
    # heights, must give identical reduced values.
    value, *images = _lift_residuals(red, rng)
    _require_within((value, "reduced Hamiltonian value depends on the lift"),
                    *((gap, "reduced fiber map depends on the lift")
                      for gap in images))
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
        return np.concatenate([np.zeros(grad.shape[:-1] + (2,)),
                               grad[..., 2 + k:], -grad[..., 2:2 + k]], axis=-1)
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
    return _fiber_push(lift[..., :3], vertical_lift(fm, red.source, lift)[..., 3:])


def reduced_rch_field(red: ReducedRCHSystem, chart: np.ndarray) -> np.ndarray:
    """Full reduced dynamics: Hamiltonian part plus reduced vertical lifts."""
    out = reduced_hamiltonian_field(red, chart)
    for fm in (red.source.force, red.source.control):
        if fm is not None:
            out = out + reduced_vertical_lift(fm, red, chart)
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
    reduced_rch_field at the zero and unit charts in one stacked call
    (dynamics._affine_pair), and each step is one propagator matrix (see
    dynamics._propagator).
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
    generator = dynamics._affine_pair(rhs, chart0.size) if affine else None
    times, charts = dynamics._fixed_step_flow(rhs, chart0, t_end, h, method,
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
    worst component mismatch, against 1e-5. The level points are one stack
    (magnetic._level_points, the stream of sample_level_point), and each
    map takes it in one call: every row is bitwise the per-sample call.
    """
    _require_samples(samples)
    states = _level_points(red.level, sys.field, sys.k,
                           np.random.default_rng(seed), samples)
    project = partial(project_chart, field=sys.field)
    lhs = fd.directional(project, states, rch_vector_field(sys, states),
                         fd.GRADIENT_STEP)
    rhs = reduced_rch_field(red, project(states))
    return CheckRecord("reduction.commutation", samples, _worst(lhs - rhs), 1e-5)


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


def kaluza_klein_system(field: MagneticField, m: float, mu: float) -> KKSystem:
    """Build the circle-extended geodesic system for an exact magnetic field.

    The system is its field, mass and level; its geodesic vector field is
    written once, as the float kernel _geodesic_float_field of field and m,
    which kk_reduce_and_compare steps.
    """
    if not field.has_potential:
        raise MissingPotential("the circle-bundle construction needs a potential")
    if m <= 0:
        raise ValueError("mass must be positive")
    return KKSystem(field, float(m), float(mu))


def _geodesic_float_field(field: MagneticField, m: float) -> Callable[[list], list]:
    """The geodesic vector field upstairs, the one writing of it: the
    Hamiltonian field of |p - lam*A(q)|^2/(2m) + lam^2/2 on the states
    (q, p, theta, lam) (zero field, k = 1) as a float kernel, a sequence of
    8 floats in, a list out, which the step drivers of
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
    hamiltonian_vector_field, so the kernel agrees with an ndarray writing
    of them to rounding; its bits follow the order above, not the BLAS
    build's summation.
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
    theta-components, to 1e-6. The points (q, theta) are one
    uniform(-2, 2, (samples, 4)) block, differentiated as one stack.
    """
    _require_samples(samples)
    y = np.random.default_rng(seed).uniform(-2, 2, (samples, 4))
    mu = kk.mu

    def alpha(y: np.ndarray) -> np.ndarray:
        return mu * np.concatenate([kk.field.vector_potential(y[..., :3]),
                                    np.ones(y.shape[:-1] + (1,))], axis=-1)

    expected = np.zeros((samples, 4, 4))
    expected[:, :3, :3] = mu * kk.field.b(y[:, :3])
    return CheckRecord("kk.alpha_form", samples,
                       _worst(fd.one_form_curl(alpha, y) - expected), 1e-6)


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
    not depend on the BLAS build.
    """
    mu = kk.mu
    charged = replace(kk.field, charge_factor=mu)
    lift0 = dynamics._as_state(
        np.concatenate([momentum_shift(x0, charged), [0.0, mu]]), 1)
    _, states_up = dynamics._fixed_step_flow(
        _geodesic_float_field(kk.field, kk.m), lift0, t_end, h, "rk4")

    downstairs = RCHSystem(charged, euclidean_kinetic_hamiltonian(kk.m))
    traj_down = dynamics.integrate(downstairs, x0, t_end, h, "rk4")

    projected = momentum_shift(states_up[:, :6],
                               replace(kk.field, charge_factor=-mu))
    mismatch = float(np.max(np.abs(projected - traj_down.states)))
    drift = float(np.max(np.abs(states_up[:, 7] - mu)))
    n = states_up.shape[0]
    return [CheckRecord("kk.trajectory_match", n, mismatch, 1e-6),
            CheckRecord("kk.lambda_drift", n, drift, 1e-8)]


# Leading seeded samples on which DiffeoSpec checks that its callables
# take stacks: at 4 rows a one-point "out[i] += out[j]" with i, j < 6 either
# raises IndexError or writes into another row.
_CONTRACT_ROWS = 4


def _require_stacks(name: str, f: Callable, *stacks: np.ndarray) -> None:
    """ValueError unless f, called on stacks of points, gives a float64 array,
    row i bitwise f called on row i, on the rows of stacks."""
    rows = np.array([np.asarray(f(*row), dtype=float) for row in zip(*stacks)])
    try:
        stacked = f(*stacks)
    except (IndexError, TypeError, ValueError):
        stacked = None
    if (not isinstance(stacked, np.ndarray) or stacked.dtype != np.float64
            or stacked.shape != rows.shape
            or stacked.tobytes() != rows.tobytes()):
        raise ValueError(f"DiffeoSpec.{name} must take a stack of points to "
                         f"a float64 array, row i bitwise its call on row i")


def _exceeds(gap: np.ndarray, reference: np.ndarray) -> bool:
    """Whether some row's largest |gap| is above 1e-8 relative to the row's
    largest |reference| above unit size."""
    return bool(np.any(np.max(np.abs(gap), axis=-1) > 1e-8 * np.fmax(
        1.0, np.max(np.abs(reference), axis=-1))))


@dataclass(frozen=True)
class DiffeoSpec:
    """Base diffeomorphism with its declared cotangent lift.

    base maps source configurations to target ones; the lift runs the other
    way, (q2, p2) -> (inverse(q2), Dbase(q1)^T p2), fiberwise linear, and
    lift_inverse undoes it; lift_tangent(state, vector) pushes tangent
    vectors through the lift. All three are declared: nothing differentiates
    base or the lift to build them. Every callable takes a point or a stack
    of points on the last axis (q of shape (n, 3), a state (n, 6);
    lift_tangent a stack of states and one of vectors) to a float64 array,
    row i bitwise the call on row i; the checkers call them directly, on
    whole stacks. Construction checks that on the first _CONTRACT_ROWS of
    its seeded samples (seed 1441), ValueError otherwise: a one-point
    "out[3] += out[1]" would add row 1 into row 3 of a stack, and a list or
    a float32 array is refused.
    base_inverse must undo base on 20 seeded samples to 1e-8 relative to the
    image above unit size (the round trip rounds at the image's scale). By
    default the lift is checked on 20 more against the transpose formula
    with a central-difference Jacobian of base, to 1e-8 relative to that
    reference above unit size (its finite-difference noise grows with it);
    fixtures that deliberately break the formula construct with
    verify_lift=False. Each sweep is one stacked call per callable.
    """

    base: Callable[[np.ndarray], np.ndarray]
    base_inverse: Callable[[np.ndarray], np.ndarray]
    lift: Callable[[np.ndarray], np.ndarray]
    lift_inverse: Callable[[np.ndarray], np.ndarray]
    lift_tangent: Callable[[np.ndarray, np.ndarray], np.ndarray]
    verify_lift: bool = True

    def __post_init__(self):
        rng = np.random.default_rng(1441)
        q, s = rng.uniform(-2, 2, (20, 3)), rng.uniform(-2, 2, (20, 6))
        few, states = q[:_CONTRACT_ROWS], s[:_CONTRACT_ROWS]
        _require_stacks("base", self.base, few)
        _require_stacks("base_inverse", self.base_inverse, few)
        _require_stacks("lift", self.lift, states)
        _require_stacks("lift_inverse", self.lift_inverse, states)
        _require_stacks("lift_tangent", self.lift_tangent, states,
                        s[_CONTRACT_ROWS:2 * _CONTRACT_ROWS])
        image = self.base(q)
        if _exceeds(self.base_inverse(image) - q, image):
            raise ValueError("base_inverse does not invert base on samples")
        if self.verify_lift:
            q1 = self.base_inverse(s[:, :3])
            jacobian = fd.jacobian(self.base, q1)
            canonical = np.concatenate(
                [q1, _matvec(np.swapaxes(jacobian, -1, -2), s[:, 3:6])],
                axis=-1)
            if _exceeds(self.lift(s) - canonical, canonical):
                raise ValueError(
                    "custom lift differs from the cotangent lift of base")

    @classmethod
    def identity(cls) -> "DiffeoSpec":
        copy = lambda x: np.asarray(x, dtype=float).copy()
        return cls(copy, copy, copy, copy, lambda s, v: copy(v))

    @classmethod
    def group_translation(cls, h: GroupElement) -> "DiffeoSpec":
        """Left translation by h on the group chart, with its exact cotangent
        lift: left translation by h^-1 (magnetic.left_translate), which keeps
        the body momentum, and by h for the inverse. The lift is a polynomial
        of degree 2 in the state, so its central difference with unit step
        (fd.directional) is its exact tangent."""
        g = h.as_array()
        g_inv = inverse(g)
        lift = partial(left_translate, g_inv)
        return cls(lambda q: multiply(g, q), lambda q: multiply(g_inv, q),
                   lift, partial(left_translate, g),
                   partial(fd.directional, lift, step=1.0))


def _extend(f: Callable, *points: np.ndarray) -> np.ndarray:
    """f, a DiffeoSpec callable of (q, p), on the (q, p) parts of points (one
    or a stack each), with the (theta, lam) part of the last passed through:
    the lift of states, or the lift's tangent at states on vectors."""
    return np.concatenate([f(*(p[..., :6] for p in points)),
                           points[-1][..., 6:]], axis=-1)


def check_mr1(phi: DiffeoSpec, field1: MagneticField, field2: MagneticField,
              samples: int = 100, seed: int = 5501) -> CheckRecord:
    """Is the lift symplectic between the two magnetic forms?

    Pulls the source-side form back through the tangent of the lift and
    compares with the target-side form on random points and tangent pairs;
    the record's bound is 1e-5. One block per distribution: the states,
    uniform(-2, 2, (samples, 6)), then the tangents, normal(size=(samples,
    12)) with v and w the two halves of a row; the forms are then one array
    pass. The lifted states are checked before the lift's tangent is taken
    (ValueError for a non-finite one).
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    x2 = rng.uniform(-2, 2, (samples, 6))
    vw = rng.normal(size=(samples, 12))
    v, w = vw[:, :6], vw[:, 6:]
    W1 = omega_matrix(phi.lift(x2), field1)
    lhs = _dot(_vecmat(phi.lift_tangent(x2, v), W1), phi.lift_tangent(x2, w))
    rhs = magnetic_form(x2, v, w, field2)
    return CheckRecord("mr1.symplectic", samples, _worst(lhs - rhs), 1e-5)


def check_mr2_equivariance(phi: DiffeoSpec, level1: CoAlgebraElement,
                           level2: CoAlgebraElement, field1: MagneticField,
                           field2: MagneticField, samples: int = 50,
                           seed: int = 5711) -> list[CheckRecord]:
    """Level mapping and isotropy commutation of the lift.

    The lift must carry the source momentum level into the target one, and
    commute with the isotropy elements of the source level. Isotropy
    candidates are center elements plus random elements kept only when they
    numerically fix the level (for nonzero nu that leaves just the center).
    Both records are bounded by 1e-7. The level points, the candidates and
    the isotropy states are each one block draw, and every sample against
    every candidate is one stacked translation (magnetic.left_translate).
    A non-finite lifted state raises ValueError.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    p1, p2 = level1.as_array(), level2.as_array()
    x1 = phi.lift(_level_points(level2, field2, 0, rng, samples))
    level_gaps = momentum_map(x1, field1) - p1

    center = rng.uniform(-3, 3, 8)
    g = rng.uniform(-2, 2, (12, 3))
    fixing = np.max(np.abs(coadjoint(g, p2) - p2), axis=-1) <= 1e-12
    candidates = np.vstack([np.column_stack([np.zeros((8, 2)), center]),
                            g[fixing]])

    s2 = rng.uniform(-2, 2, (samples, 6))
    g = np.tile(candidates, (samples, 1))
    lhs = phi.lift(left_translate(g, np.repeat(s2, len(candidates), 0)))
    rhs = left_translate(g, np.repeat(phi.lift(s2), len(candidates), 0))
    return [CheckRecord("mr2.level", samples, _worst(level_gaps), 1e-7),
            CheckRecord("mr2.isotropy", samples, _worst(lhs - rhs), 1e-7)]


def check_mr3_matching(sys1: RCHSystem, sys2: RCHSystem, phi: DiffeoSpec,
                       samples: int = 40, seed: int = 5903) -> list[CheckRecord]:
    """Vector-field mismatch modulo the control subset.

    Assembles, at lifted sample points, the difference between the
    forced dynamics of the target system and the transported forced dynamics
    of the source system; sys1's side is rch_vector_field of sys1 without
    its control, which enters only through its subset. sys2's force F is
    transported as lift o F o lift_inverse, whose push is declared, not
    differenced: lift_tangent after F's push after the inverse of
    lift_tangent at the preimage. Membership in
    vertical lifts of the control subset is its distance to the affine
    subset, offset plus span
    (ControlSubset.distance, as ControlSubset.contains decides); the
    horizontal component must vanish on its own, since no vertical lift can
    absorb it. The vertical record is bounded by 1e-6, the horizontal one by
    1e-8. The samples are one uniform(-2, 2, (samples, 6 + 2k)) block and
    each field is one call on the stack; the distance is taken row by row.
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
    x2 = rng.uniform(-2, 2, (samples, 6 + 2 * k))
    x1 = _extend(phi.lift, x2)
    residual = (rch_vector_field(uncontrolled, x1) - _extend(
        phi.lift_tangent, x2, hamiltonian_vector_field(sys2, x2)))
    force = sys2.force
    if force is not None:
        def transported(s: np.ndarray) -> np.ndarray:
            return _extend(phi.lift, force.image(_extend(phi.lift_inverse, s)))

        def push(s: np.ndarray, v: np.ndarray) -> np.ndarray:
            # The inverse lift's tangent is a solve against J[..., :, j] =
            # lift_tangent(x, e_j), one call on the six unit vectors.
            x = _extend(phi.lift_inverse, s)
            J = np.swapaxes(phi.lift_tangent(
                np.repeat(x[..., None, :6], 6, axis=-2),
                np.broadcast_to(np.eye(6), x.shape[:-1] + (6, 6))), -1, -2)
            w = np.concatenate([np.linalg.solve(J, v[..., :6, None])[..., 0],
                                v[..., 6:]], axis=-1)
            return _extend(phi.lift_tangent, force.image(x), force.push(x, w))

        # transported is affine in the fiber when the force is (the lifts
        # are linear there), and then takes stacks as they do.
        lifted = FiberMap(transported, push, force.affine)
        residual = residual - vertical_lift(lifted, sys1, x1)
    vertical = [sys1.control_subset.distance(row) for row in residual[:, fiber]]
    return [CheckRecord("mr3.vertical", samples, _worst(vertical), 1e-6),
            CheckRecord("mr3.horizontal", samples, _worst(residual[:, base]),
                        1e-8)]
