"""Controlled Hamiltonian systems on the magnetic cotangent bundle.

States are flat chart vectors (q, p, theta, lam) of dimension 6 + 2k. The
dynamical vector field is the magnetic Hamiltonian field plus vertical lifts
of the force and control fiber maps; integration offers an implicit midpoint
rule (symplectic for constant fields) and a classical rk4 reference.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import fd
from .errors import (MissingPotential, NonConvergence, NonSymplecticWarning,
                     NotInvariant)
from .magnetic import (ExtendedPhasePoint, MagneticField, PhasePoint,
                       chart_to_body_array, extended_to_chart,
                       momentum_map_array)
# Bound here only for perfbench/tracer.py, which wraps this module's imported
# heisenmech functions and checks that this binding is restored.
from .magnetic import momentum_map  # noqa: F401

__all__ = [
    "HamiltonianSpec",
    "FiberMap",
    "ControlSubset",
    "RCHSystem",
    "Trajectory",
    "hamiltonian_vector_field",
    "vertical_lift",
    "rch_vector_field",
    "integrate",
    "heisenberg_particle",
    "euclidean_kinetic_hamiltonian",
    "invariant_kinetic_hamiltonian",
    "modified_hamiltonian",
]

@dataclass(frozen=True)
class HamiltonianSpec:
    """Hamiltonian on the flat chart state with optional analytic gradient.

    Without an analytic gradient callable, grad falls back to central finite
    differences with step fd.GRADIENT_STEP.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    k: int = 0

    def grad(self, state: np.ndarray) -> np.ndarray:
        if self.gradient is not None:
            return np.asarray(self.gradient(state), dtype=float)
        return fd.gradient(self.evaluate, np.asarray(state, dtype=float))


@dataclass(frozen=True)
class FiberMap:
    """Fiber-preserving map of the phase space: base (q, theta) unchanged.

    apply acts on flat chart states; tangent optionally supplies an analytic
    tangent map (state, vector) -> vector, defaulting to central finite
    differences with step fd.GRADIENT_STEP.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def push(self, state: np.ndarray, vector: np.ndarray) -> np.ndarray:
        if self.tangent is not None:
            return np.asarray(self.tangent(state, vector), dtype=float)
        return fd.directional(self.apply, state, vector, fd.GRADIENT_STEP)


@functools.cache
def _base_fiber_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays of the base (q, theta) and fiber (p, lam), per k."""
    base = np.concatenate([np.arange(3), np.arange(6, 6 + k)])
    fiber = np.concatenate([np.arange(3, 6), np.arange(6 + k, 6 + 2 * k)])
    base.flags.writeable = False
    fiber.flags.writeable = False
    return base, fiber


@dataclass(frozen=True)
class ControlSubset:
    """Affine subspace of the cotangent fiber: offset + span of covectors."""

    offset: np.ndarray
    spanning: np.ndarray  # shape (r, fiber_dim); r may be 0

    def __post_init__(self):
        offset = np.asarray(self.offset, dtype=float).copy()
        spanning = np.asarray(self.spanning, dtype=float)
        if spanning.size == 0:
            spanning = np.zeros((0, offset.size))
        spanning = spanning.reshape(-1, offset.size).copy()
        if spanning.shape[0]:
            rank = np.linalg.matrix_rank(spanning, tol=1e-10)
            if rank != spanning.shape[0]:
                raise ValueError("spanning covectors are linearly dependent")
        offset.flags.writeable = False
        spanning.flags.writeable = False
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "spanning", spanning)

    @property
    def rank(self) -> int:
        return self.spanning.shape[0]

    def distance(self, covector: np.ndarray) -> float:
        """Euclidean distance from a fiber covector to the subspace."""
        d = np.asarray(covector, dtype=float) - self.offset
        if self.rank == 0:
            return float(np.linalg.norm(d))
        coeff, *_ = np.linalg.lstsq(self.spanning.T, d, rcond=None)
        return float(np.linalg.norm(d - self.spanning.T @ coeff))

    def contains(self, covector: np.ndarray, tol: float = 1e-10) -> bool:
        return self.distance(covector) <= tol


@dataclass(frozen=True)
class RCHSystem:
    """Hamiltonian system with optional force and control fiber maps."""

    field: MagneticField
    hamiltonian: HamiltonianSpec
    force: FiberMap | None = None
    control: FiberMap | None = None
    control_subset: ControlSubset | None = None
    m: float = 1.0
    e: float = 1.0
    c: float = 1.0
    k: int = 0

    def __post_init__(self):
        if self.m <= 0 or self.c <= 0:
            raise ValueError("mass and light-speed parameters must be positive")
        if self.control is not None and self.control_subset is not None:
            _, fiber = _base_fiber_indices(self.k)
            rng = np.random.default_rng(99)
            for _ in range(10):
                state = rng.uniform(-2, 2, 6 + 2 * self.k)
                image = self.control.apply(state)[fiber]
                if not self.control_subset.contains(image, tol=1e-10):
                    raise ValueError("control image leaves the control subset")

    @property
    def dim(self) -> int:
        return 6 + 2 * self.k


@dataclass(frozen=True)
class Trajectory:
    """Discrete flow sample with per-step energy and momentum diagnostics."""

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    momenta: np.ndarray
    method: str

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _as_state(x, k: int) -> np.ndarray:
    if isinstance(x, PhasePoint):
        return x.as_array()
    if isinstance(x, ExtendedPhasePoint):
        return extended_to_chart(x)
    state = np.asarray(x, dtype=float)
    if state.shape != (6 + 2 * k,):
        raise ValueError(f"state must have dimension {6 + 2 * k}, got {state.shape}")
    return state


def hamiltonian_vector_field(sys: RCHSystem, x) -> np.ndarray:
    """Magnetic Hamilton equations at x.

    qdot = dH/dp, pdot = -dH/dq + charge_factor * B(q) dH/dp, and the
    canonical equations on the (theta, lam) block.
    """
    state = _as_state(x, sys.k)
    grad = sys.hamiltonian.grad(state)
    q = state[:3]
    k = sys.k
    qdot = grad[3:6]
    pdot = -grad[:3] + sys.field.charge_factor * (sys.field.b(q) @ grad[3:6])
    out = np.concatenate([qdot, pdot, grad[6 + k:], -grad[6:6 + k]])
    return out


def vertical_lift(fiber_map: FiberMap, sys: RCHSystem, x) -> np.ndarray:
    """Vertical correction vlift(F) X_H at x.

    Evaluates the Hamiltonian field at F(x), pushes it through the tangent map
    of F there, keeps the fiber component, and places it at x (the fibers are
    vector spaces, so the transport back along the fiber line is the identity).
    The alternative reading, pushing X_H evaluated at x itself, coincides with
    this one for fiber-linear maps.
    """
    state = _as_state(x, sys.k)
    base, fiber = _base_fiber_indices(sys.k)
    moved = np.asarray(fiber_map.apply(state), dtype=float)
    if np.max(np.abs(moved[base] - state[base])) > 1e-12:
        raise ValueError("fiber map does not preserve the base point")
    pushed = fiber_map.push(moved, hamiltonian_vector_field(sys, moved))
    out = np.zeros_like(state)
    out[fiber] = pushed[fiber]
    return out


def rch_vector_field(sys: RCHSystem, x) -> np.ndarray:
    """Full dynamical field: X_H plus vertical lifts of force and control."""
    out = hamiltonian_vector_field(sys, x)
    if sys.force is not None:
        out = out + vertical_lift(sys.force, sys, x)
    if sys.control is not None:
        out = out + vertical_lift(sys.control, sys, x)
    return out


def _midpoint_step(rhs, y: np.ndarray, h: float, step_index: int,
                   tol: float = 1e-12, cap: int = 100) -> np.ndarray:
    z = y + h * rhs(y)
    for _ in range(cap):
        z_new = y + h * rhs(0.5 * (y + z))
        delta = np.max(np.abs(z_new - z))
        z = z_new
        if delta <= tol:
            # one polishing iteration after reaching tolerance
            return y + h * rhs(0.5 * (y + z))
    raise NonConvergence("implicit midpoint fixed point did not converge",
                         step_index=step_index, residual=float(delta))


def _rk4_step(rhs, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _check_run(t_end: float, h: float, method: str) -> None:
    if h <= 0 or t_end <= 0:
        raise ValueError("step size and end time must be positive")
    if method not in ("midpoint", "rk4"):
        raise ValueError(f"unknown method {method!r}")


def _fixed_step_flow(rhs, y0: np.ndarray, t_end: float, h: float,
                     method: str) -> tuple[np.ndarray, np.ndarray]:
    """Times and states of midpoint or rk4 steps of rhs from y0 to t_end.

    The steps are uniform and land exactly on t_end (h is rescaled by at most
    half a step); exact endpoints matter for period-return checks. The first
    state that overflows to inf or nan stops the run with a
    FloatingPointError naming the step that produced it; numpy's own
    overflow warnings are silenced inside the loop, since that error reports
    the failure.
    """
    _check_run(t_end, h, method)
    n_steps = max(1, int(round(t_end / h)))
    h = t_end / n_steps
    times = np.arange(n_steps + 1) * h
    states = np.empty((n_steps + 1, y0.size))
    states[0] = y0
    y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            if method == "midpoint":
                y = _midpoint_step(rhs, y, h, i)
            else:
                y = _rk4_step(rhs, y, h)
            if not np.isfinite(y).all():
                raise FloatingPointError(
                    f"integration produced a non-finite state at step {i}")
            states[i + 1] = y
    return times, states


def _shifted_chart_rhs(sys: RCHSystem):
    """Canonical equations of the shifted Hamiltonian H_A, for the chart route."""
    cf = sys.field.charge_factor
    k = sys.k

    def rhs(state):
        q = state[:3]
        A = sys.field.vector_potential(q)
        unshifted = state.copy()
        unshifted[3:6] = state[3:6] - cf * A
        grad = sys.hamiltonian.grad(unshifted)
        DA = sys.field.vector_potential_jacobian(q)
        gq = grad[:3] - cf * (DA.T @ grad[3:6])
        return np.concatenate([grad[3:6], -gq, grad[6 + k:], -grad[6:6 + k]])

    return rhs


def integrate(sys: RCHSystem, x0, t_end: float, h: float,
              method: str = "midpoint") -> Trajectory:
    """Integrate the dynamical field from x0 to t_end with fixed step h.

    midpoint is the implicit midpoint rule (fixed-point iteration to 1e-12,
    at most 100 iterations per step), symplectic for constant fields. If the
    field is declared general (q-dependent), a pure Hamiltonian system with a
    potential is integrated in the shifted canonical chart and mapped back
    through the fiber translation; otherwise the method silently becomes rk4
    and a NonSymplecticWarning is emitted. rk4 is the explicit reference
    scheme. The momenta come from one array pass of
    magnetic.momentum_map_array over all states, and are nan for fields
    without a momentum map (every kind but zero and invariant). Energies are
    evaluated state by state.
    """
    _check_run(t_end, h, method)
    state = _as_state(x0, sys.k)
    shifted_route = False
    rhs = lambda y: rch_vector_field(sys, y)
    if method == "midpoint" and not sys.field.is_constant:
        pure = sys.force is None and sys.control is None
        if pure and sys.field.has_potential:
            shifted_route = True
            rhs = _shifted_chart_rhs(sys)
        else:
            warnings.warn("q-dependent field without a usable potential: "
                          "falling back to non-symplectic rk4",
                          NonSymplecticWarning, stacklevel=2)
            method = "rk4"

    cf = sys.field.charge_factor
    if shifted_route:
        state = state.copy()
        state[3:6] += cf * sys.field.vector_potential(state[:3])

    times, states = _fixed_step_flow(rhs, state, t_end, h, method)
    if shifted_route:
        for row in states:
            row[3:6] -= cf * sys.field.vector_potential(row[:3])

    energies = np.array([sys.hamiltonian.evaluate(s) for s in states])
    q = states[:, :3]
    try:
        momenta = momentum_map_array(q, chart_to_body_array(q, states[:, 3:6]),
                                     sys.field)
    except (MissingPotential, NotInvariant):
        momenta = np.full((states.shape[0], 3), np.nan)
    return Trajectory(times, states, energies, momenta, method)


def euclidean_kinetic_hamiltonian(m: float, k: int = 0) -> HamiltonianSpec:
    """Chart kinetic energy |p|^2/(2m); its q-gradient vanishes identically."""

    def evaluate(state):
        p = state[3:6]
        return 0.5 * float(p @ p) / m

    def gradient(state):
        out = np.zeros_like(state)
        out[3:6] = state[3:6] / m
        return out

    return HamiltonianSpec(evaluate, gradient, k)


def invariant_kinetic_hamiltonian(m: float, k: int = 0) -> HamiltonianSpec:
    """Left-invariant kinetic energy |rho(q, p)|^2/(2m) in chart coordinates.

    This is the non-Euclidean metric option: the Hamiltonian a left-invariant
    metric induces on the cotangent chart. It is the one to use whenever
    momentum maps or reduction enter.
    """

    def body(state):
        q, p = state[:3], state[3:6]
        return np.array([p[0] - 0.5 * p[2] * q[1], p[1] + 0.5 * p[2] * q[0], p[2]])

    def evaluate(state):
        rho = body(state)
        return 0.5 * float(rho @ rho) / m

    def gradient(state):
        q, p = state[:3], state[3:6]
        rho = body(state)
        out = np.zeros_like(state)
        out[0] = 0.5 * p[2] * rho[1] / m
        out[1] = -0.5 * p[2] * rho[0] / m
        out[3] = rho[0] / m
        out[4] = rho[1] / m
        out[5] = (-0.5 * q[1] * rho[0] + 0.5 * q[0] * rho[1] + rho[2]) / m
        return out

    return HamiltonianSpec(evaluate, gradient, k)


def heisenberg_particle(m: float, e: float, c: float,
                        field: MagneticField) -> RCHSystem:
    """Charged particle in the chart: kinetic |p|^2/(2m), charge factor e/c.

    The supplied field is copied with charge_factor = e/c so the dynamics and
    every form built from the system agree on the premultiplier.
    """
    if m <= 0 or c <= 0:
        raise ValueError("mass and light-speed parameters must be positive")
    scaled = replace(field, charge_factor=e / c)
    return RCHSystem(scaled, euclidean_kinetic_hamiltonian(m), m=m, e=e, c=c)


def modified_hamiltonian(sys: RCHSystem, x) -> float:
    """Shifted-chart Hamiltonian H_A(q, P) = H(q, P - charge_factor * A(q)).

    For the kinetic particle this is |p - (e/c) A(q)|^2 / (2m); composing with
    the fiber shift t_A recovers H identically.
    """
    state = _as_state(x, sys.k)
    A = sys.field.vector_potential(state[:3])
    unshifted = state.copy()
    unshifted[3:6] = state[3:6] - sys.field.charge_factor * A
    return float(sys.hamiltonian.evaluate(unshifted))
