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
from math import isfinite, isnan
from typing import Callable

import numpy as np

from . import fd
from .errors import (MissingPotential, NonConvergence, NonSymplecticWarning,
                     NotInvariant)
from .magnetic import (MagneticField, _momentum_shift, chart_to_body_array,
                       momentum_map_array)
# Bound here only for perfbench/tracer.py, which wraps this module's imported
# heisenmech functions and checks that this binding is restored.
from .magnetic import momentum_map  # noqa: F401
from .orbit import _checked_form

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
    "quadratic_hamiltonian",
    "modified_hamiltonian",
]

_HAMILTONIAN_KINDS = ("euclidean", "invariant", "quadratic", "general")
_KINETIC_KINDS = ("euclidean", "invariant")
_QUADRATIC_KINDS = ("euclidean", "quadratic")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Hamiltonian on the flat chart state with optional analytic gradient.

    Without an analytic gradient callable, grad falls back to central finite
    differences with step fd.GRADIENT_STEP.

    kind, mass and form are recorded by the factories and never inferred
    from samples: "euclidean" is |p|^2/(2 mass) in the chart, "invariant" the
    left-invariant kinetic energy |rho|^2/(2 mass), "quadratic" the form
    1/2 y^T Q y + c^T y of y = (q, p), independent of (theta, lam). Only the
    kinetic kinds declare a mass; "euclidean" and "quadratic" declare their
    form (Q, c), a finite symmetric 6x6 matrix and a finite 6-vector. A spec
    built directly is "general" and declares neither. integrate steps pure
    systems of a declared kind on a constant field without the generic
    vector field.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    kind: str = "general"
    mass: float | None = None
    form: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in _HAMILTONIAN_KINDS:
            raise ValueError(f"Hamiltonian kind must be one of "
                             f"{_HAMILTONIAN_KINDS}, got {self.kind!r}")
        if (self.kind in _KINETIC_KINDS) != (self.mass is not None):
            raise ValueError("a kinetic Hamiltonian declares its mass; "
                             "any other declares none")
        if self.mass is not None and not self.mass > 0:
            raise ValueError("mass must be positive")
        if (self.kind in _QUADRATIC_KINDS) != (self.form is not None):
            raise ValueError("a quadratic Hamiltonian declares its form (Q, c); "
                             "any other declares none")
        if self.form is not None:
            object.__setattr__(self, "form", _checked_form(*self.form, 6))

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

    affine declares apply affine in the fiber, (p, lam) -> L(q) (p, lam) + d(q),
    with coefficients that depend on q only, never on theta. It is never
    checked on samples and needs the analytic tangent (ValueError otherwise):
    a finite-difference push is affine only up to its step noise.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    affine: bool = False

    def __post_init__(self):
        if self.affine and self.tangent is None:
            raise ValueError("an affine fiber map declares its analytic tangent")

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
        vec = np.asarray(covector, dtype=float) - self.offset
        if self.rank == 0:
            return float(np.linalg.norm(vec))
        coeff, *_ = np.linalg.lstsq(self.spanning.T, vec, rcond=None)
        return float(np.linalg.norm(vec - self.spanning.T @ coeff))

    def contains(self, covector: np.ndarray, tol: float = 1e-10) -> bool:
        return self.distance(covector) <= tol


@dataclass(frozen=True)
class RCHSystem:
    """Hamiltonian system with optional force and control fiber maps.

    m defaults to the Hamiltonian's declared mass; an explicit m must agree
    with it. The charge enters only through the field's charge_factor.
    """

    field: MagneticField
    hamiltonian: HamiltonianSpec
    force: FiberMap | None = None
    control: FiberMap | None = None
    control_subset: ControlSubset | None = None
    m: float | None = None
    k: int = 0

    def __post_init__(self):
        declared = self.hamiltonian.mass
        if self.m is None:
            object.__setattr__(self, "m", declared)
        elif not self.m > 0:
            raise ValueError("mass must be positive")
        elif declared is not None and self.m != declared:
            raise ValueError(f"mass {self.m} disagrees with the Hamiltonian's "
                             f"declared mass {declared}")
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
    """Discrete flow sample with per-step energy and momentum diagnostics.

    route names how the steps were taken (see integrate): "propagator",
    "closed_form", "field", "shifted" or "rk4_fallback".
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    momenta: np.ndarray
    method: str
    route: str = "field"

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _as_state(x, k: int) -> np.ndarray:
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


# The stop rule of the implicit-midpoint fixed-point iteration, read by
# _midpoint_step and by the fused kernel of _invariant_particle_step.
_MIDPOINT_TOL = 1e-12
_MIDPOINT_CAP = 100


def _midpoint_step(rhs, y: list[float], h: float, step_index: int,
                   tol: float = _MIDPOINT_TOL, cap: int = _MIDPOINT_CAP,
                   propagator: Callable[..., list | np.ndarray] | None = None
                   ) -> list[float]:
    """One implicit-midpoint step of rhs on a flat list of floats, or the
    given fused step applied to (y, step_index): a propagator writing the
    state row y's successor (see _row_writer, which ignores the index) or
    the closed-form kernel of _invariant_particle_step.

    The fixed-point iteration stops once the largest increment is at most
    tol (a nan one never is) and is polished once; after cap iterations
    NonConvergence reports the last increment as the residual.
    """
    if propagator is not None:
        return propagator(y, step_index)
    z = [a + h * r for a, r in zip(y, rhs(y))]
    for _ in range(cap):
        z_new = [a + h * r for a, r in
                 zip(y, rhs([0.5 * (a + b) for a, b in zip(y, z)]))]
        increments = [abs(a - b) for a, b in zip(z_new, z)]
        z = z_new
        # The increments are >= 0, so their sum is nan only if one is nan;
        # Python's max would pass over a nan that numpy's would return.
        total = sum(increments)
        delta = total if isnan(total) else max(increments)
        if delta <= tol:
            # one polishing iteration after reaching tolerance
            return [a + h * r for a, r in
                    zip(y, rhs([0.5 * (a + b) for a, b in zip(y, z)]))]
    raise NonConvergence("implicit midpoint fixed point did not converge",
                         step_index=step_index, residual=delta)


def _rk4_step(rhs, y: list[float], h: float,
              propagator: Callable[..., list | np.ndarray] | None = None
              ) -> list[float]:
    """One classical rk4 step of rhs on a flat list of floats, or the given
    fused step applied to y (see _midpoint_step)."""
    if propagator is not None:
        return propagator(y)
    half = 0.5 * h
    k1 = rhs(y)
    k2 = rhs([a + half * k for a, k in zip(y, k1)])
    k3 = rhs([a + half * k for a, k in zip(y, k2)])
    k4 = rhs([a + h * k for a, k in zip(y, k3)])
    sixth = h / 6.0
    return [a + sixth * (((b1 + 2 * b2) + 2 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def _on_floats(rhs):
    """rhs as a map of flat float lists: a float kernel (marked on_floats)
    passes through, an array-valued rhs gets one conversion each way."""
    if getattr(rhs, "on_floats", False):
        return rhs
    return lambda y: rhs(np.array(y)).tolist()


def _check_run(t_end: float, h: float, method: str) -> None:
    if h <= 0 or t_end <= 0:
        raise ValueError("step size and end time must be positive")
    if method not in ("midpoint", "rk4"):
        raise ValueError(f"unknown method {method!r}")


def _propagator(A: np.ndarray, b: np.ndarray, h: float, method: str
                ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Step matrix P and offset d of method for the affine field
    y' = A @ y + b: one step is P @ y + d, or P @ y when d is None.

    The step matrix is built for the augmented generator [[A, b], [0, 0]]
    acting on (y, 1): rk4 is its degree-4 Taylor polynomial of h, midpoint
    its Cayley map (I - hM/2)^-1 (I + hM/2), the limit of the fixed-point
    iteration it replaces. Midpoint is used only where that iteration
    provably contracts with room to spare, ||hA/2||_F < 1/2 on the linear
    block A (the offset does not enter the contraction; the Frobenius norm
    bounds the spectral one and needs no SVD), and None is returned
    otherwise so the iteration runs (and reports NonConvergence) as for any
    other field. With b = 0 nothing is augmented and d is None.
    """
    n = len(A)
    affine = bool(b.any())
    if affine:
        A = np.block([[A, b[:, None]], [np.zeros((1, n + 1))]])
    hA = h * A
    eye = np.eye(len(A))
    if method == "rk4":
        P = eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4) / 3) / 2)
    elif np.linalg.norm(0.5 * hA[:n, :n]) >= 0.5:
        return None
    else:
        P = np.linalg.solve(eye - 0.5 * hA, eye + 0.5 * hA)
    if not affine:
        return P, None
    return P[:n, :n].copy(), P[:n, n].copy()


def _row_writer(P: np.ndarray, d: np.ndarray | None,
                states: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The propagator step of (P, d) as a map of rows of states: the row y
    goes to the next row, into which P @ y (+ d) is written and which is
    returned. np.dot and add with out= give the bits of P @ y + d (dot and
    matmul both take BLAS's gemv for a matrix and a vector), and dot's
    per-call path is the shorter. A midpoint step also passes its index,
    which is ignored."""
    rows = iter(states[1:])
    if d is None:
        return lambda y, step_index=None: np.dot(P, y, next(rows))

    def step(y, step_index=None):
        out = np.dot(P, y, next(rows))
        return np.add(out, d, out=out)

    return step


# Rows of propagator states written between two finiteness scans.
_SCAN_ROWS = 1024


def _non_finite(step: int) -> FloatingPointError:
    return FloatingPointError(
        f"integration produced a non-finite state at step {step}")


def _fixed_step_flow(rhs, y0: np.ndarray, t_end: float, h: float, method: str,
                     generator: tuple[np.ndarray, np.ndarray] | None = None,
                     kernel: Callable[[float, str], Callable] | None = None
                     ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Times and states of midpoint or rk4 steps of rhs from y0 to t_end.

    The steps are uniform and land exactly on t_end (h is rescaled by at most
    half a step); exact endpoints matter for period-return checks. The steps
    run on flat lists of Python floats, since numpy's per-call cost exceeds
    its arithmetic on states this small; rhs may be array-valued (converted
    here, see _on_floats) or a float kernel, and the operation order is
    numpy's, so the states are the same bits. A fused kernel may replace the
    generic step: kernel(h, method), called once with the rescaled h, gives
    the step that _midpoint_step or _rk4_step hands each state to (see
    _invariant_particle_step), and rhs is then never called. Each float
    state is tested for finiteness as it is made.

    An affine field may also pass its generator (A, b) (rhs(y) = A @ y + b);
    where _propagator gives a step matrix for the rescaled h, each step
    writes P @ y (+ d) straight into its row of the states (see _row_writer),
    and the returned flag says whether it did. Those rows are scanned for
    finiteness once per block of _SCAN_ROWS steps: an affine step keeps an
    inf or nan state non-finite, so the first non-finite row of a block is
    the step a per-step test would have stopped at, and the run ends at most
    one block later. Either way, every step goes through _midpoint_step or
    _rk4_step, looked up on this module.

    The first state that overflows to inf or nan stops the run with a
    FloatingPointError naming the step that produced it; numpy's own
    overflow warnings are silenced while the step matrix is built and inside
    the loop, since that error reports the failure.
    """
    _check_run(t_end, h, method)
    n_steps = max(1, int(round(t_end / h)))
    h = t_end / n_steps
    times = np.arange(n_steps + 1) * h
    states = np.empty((n_steps + 1, y0.size))
    states[0] = y0
    with np.errstate(over="ignore", invalid="ignore"):
        step_matrix = None if generator is None else _propagator(*generator, h,
                                                                 method)
        if step_matrix is None:
            y, rhs = y0.tolist(), _on_floats(rhs)
            fused = None if kernel is None else kernel(h, method)
            for i in range(n_steps):
                if method == "midpoint":
                    y = _midpoint_step(rhs, y, h, i, propagator=fused)
                else:
                    y = _rk4_step(rhs, y, h, propagator=fused)
                if not all(map(isfinite, y)):
                    raise _non_finite(i)
                states[i + 1] = y
        else:
            propagate, y = _row_writer(*step_matrix, states), states[0]
            for start in range(0, n_steps, _SCAN_ROWS):
                stop = min(start + _SCAN_ROWS, n_steps)
                for i in range(start, stop):
                    if method == "midpoint":
                        y = _midpoint_step(rhs, y, h, i, propagator=propagate)
                    else:
                        y = _rk4_step(rhs, y, h, propagator=propagate)
                finite = np.isfinite(states[start + 1:stop + 1]).all(axis=1)
                if not finite.all():
                    raise _non_finite(start + int(finite.argmin()))
    return times, states, step_matrix is not None


def _shifted_hamiltonian(sys: RCHSystem) -> HamiltonianSpec:
    """H_A(q, P) = H(q, P - charge_factor * A(q)) with its exact gradient
    (g_q - charge_factor * DA^T g_p, g_p, g_theta, g_lam), g = grad H there."""
    cf = sys.field.charge_factor
    inverse = replace(sys.field, charge_factor=-cf)

    def unshift(state):
        return _momentum_shift(state, inverse)

    def gradient(state):
        grad = sys.hamiltonian.grad(unshift(state))
        DA = sys.field.vector_potential_jacobian(state[:3])
        return np.concatenate([grad[:3] - cf * (DA.T @ grad[3:6]), grad[3:]])

    return HamiltonianSpec(lambda s: sys.hamiltonian.evaluate(unshift(s)), gradient)


def _affine_generator(sys: RCHSystem) -> tuple[np.ndarray, np.ndarray]:
    """A and b with rch_vector_field(sys, y) = A @ y + b for a pure system on
    a constant field whose Hamiltonian declares the form 1/2 y^T Q y + c^T y.

    With the Poisson matrix Pi = [[0, I], [-I, charge_factor * B]] of the
    field on (q, p), A = Pi Q and b = Pi c, padded with zero rows and columns
    for (theta, lam), on which the form does not depend.
    """
    Q, c = sys.hamiltonian.form
    poisson = np.zeros((6, 6))
    poisson[:3, 3:] = np.eye(3)
    poisson[3:, :3] = -np.eye(3)
    poisson[3:, 3:] = sys.field.charge_factor * sys.field.b(np.zeros(3))
    A = np.zeros((sys.dim, sys.dim))
    b = np.zeros(sys.dim)
    A[:6, :6] = poisson @ Q
    b[:6] = poisson @ c
    return A, b


def _invariant_particle_step(sys: RCHSystem, h: float, method: str
                             ) -> Callable[..., list[float]]:
    """The midpoint or rk4 step of size h for a pure invariant-metric
    particle on a constant field, fused into one float kernel: y (a flat
    list of floats) to the next state, as a list. A midpoint kernel also
    takes the step index, for NonConvergence.

    The six entries of (q, p) are unpacked once per step, and the right-hand
    side takes and returns scalars, so the fixed-point iteration (under the
    stop rule _MIDPOINT_TOL, _MIDPOINT_CAP) and the rk4 stages build no
    list. Every operation is the one _midpoint_step or _rk4_step does on
    rch_vector_field, in the same order, so the states are the same bits:
    - the right-hand side repeats invariant_kinetic_hamiltonian's gradient
      and hamiltonian_vector_field on floats. pdot stays -g_q + cf * (B g_p),
      since (cf * B) g_p rounds differently. B g_p is numpy's product
      B @ g_p for a dense constant or linear field; for a zero or invariant
      field, whose B has exact zeros, it is the float sum
      ((0.0 + b0*g0) + b1*g1) + b2*g2 per row, which has the same bits,
      signed zeros included (the 0.0 seed fixes the sign of a zero sum).
    - The (theta, lam) rates are dH/dlam = 0.0 and -dH/dtheta = -0.0, so
      either method moves that tail to theta + 0.0 and lam + -0.0 (a -0.0
      theta becomes 0.0). Its fixed-point increments, 0.0 for a finite entry
      and nan for any other, stay in the iteration's nan test, so a
      non-finite tail still ends in NonConvergence.
    """
    m = sys.hamiltonian.mass
    cf = sys.field.charge_factor
    B = sys.field.b(np.zeros(3))
    k = sys.k
    if sys.field.kind in ("zero", "invariant"):
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = B.tolist()

        def times_b(g0, g1, g2):
            return (((0.0 + b00 * g0) + b01 * g1) + b02 * g2,
                    ((0.0 + b10 * g0) + b11 * g1) + b12 * g2,
                    ((0.0 + b20 * g0) + b21 * g1) + b22 * g2)
    else:
        def times_b(g0, g1, g2):
            return (B @ np.array((g0, g1, g2))).tolist()

    def rhs(q0, q1, p0, p1, p2):
        rho0 = p0 - 0.5 * p2 * q1
        rho1 = p1 + 0.5 * p2 * q0
        g0 = rho0 / m
        g1 = rho1 / m
        g2 = (-0.5 * q1 * rho0 + 0.5 * q0 * rho1 + p2) / m
        b0, b1, b2 = times_b(g0, g1, g2)
        return (g0, g1, g2, -(0.5 * p2 * rho1 / m) + cf * b0,
                -(-0.5 * p2 * rho0 / m) + cf * b1, -0.0 + cf * b2)

    def tail(y):
        return ([t + 0.0 for t in y[6:6 + k]]
                + [t + -0.0 for t in y[6 + k:]])

    if method == "rk4":
        half = 0.5 * h
        sixth = h / 6.0

        def rk4(y):
            y0, y1, y2, y3, y4, y5 = y[:6]
            a0, a1, a2, a3, a4, a5 = rhs(y0, y1, y3, y4, y5)
            b0, b1, b2, b3, b4, b5 = rhs(y0 + half * a0, y1 + half * a1,
                                         y3 + half * a3, y4 + half * a4,
                                         y5 + half * a5)
            c0, c1, c2, c3, c4, c5 = rhs(y0 + half * b0, y1 + half * b1,
                                         y3 + half * b3, y4 + half * b4,
                                         y5 + half * b5)
            d0, d1, d2, d3, d4, d5 = rhs(y0 + h * c0, y1 + h * c1,
                                         y3 + h * c3, y4 + h * c4,
                                         y5 + h * c5)
            return [y0 + sixth * (((a0 + 2 * b0) + 2 * c0) + d0),
                    y1 + sixth * (((a1 + 2 * b1) + 2 * c1) + d1),
                    y2 + sixth * (((a2 + 2 * b2) + 2 * c2) + d2),
                    y3 + sixth * (((a3 + 2 * b3) + 2 * c3) + d3),
                    y4 + sixth * (((a4 + 2 * b4) + 2 * c4) + d4),
                    y5 + sixth * (((a5 + 2 * b5) + 2 * c5) + d5)] + tail(y)

        return rk4

    def midpoint(y, step_index):
        y0, y1, y2, y3, y4, y5 = y[:6]
        rest = tail(y)
        # 0.0 if the tail is finite, else nan: its increments each iteration.
        rest_delta = sum(abs(t - t) for t in rest)
        r0, r1, r2, r3, r4, r5 = rhs(y0, y1, y3, y4, y5)
        z0, z1, z2 = y0 + h * r0, y1 + h * r1, y2 + h * r2
        z3, z4, z5 = y3 + h * r3, y4 + h * r4, y5 + h * r5
        for _ in range(_MIDPOINT_CAP):
            r0, r1, r2, r3, r4, r5 = rhs(
                0.5 * (y0 + z0), 0.5 * (y1 + z1), 0.5 * (y3 + z3),
                0.5 * (y4 + z4), 0.5 * (y5 + z5))
            w0, w1, w2 = y0 + h * r0, y1 + h * r1, y2 + h * r2
            w3, w4, w5 = y3 + h * r3, y4 + h * r4, y5 + h * r5
            i0, i1, i2 = abs(w0 - z0), abs(w1 - z1), abs(w2 - z2)
            i3, i4, i5 = abs(w3 - z3), abs(w4 - z4), abs(w5 - z5)
            z0, z1, z2, z3, z4, z5 = w0, w1, w2, w3, w4, w5
            # nan-aware as in _midpoint_step: a nan increment never converges
            total = i0 + i1 + i2 + i3 + i4 + i5 + rest_delta
            delta = total if isnan(total) else max(i0, i1, i2, i3, i4, i5)
            if delta <= _MIDPOINT_TOL:
                # one polishing iteration after reaching tolerance
                r0, r1, r2, r3, r4, r5 = rhs(
                    0.5 * (y0 + z0), 0.5 * (y1 + z1), 0.5 * (y3 + z3),
                    0.5 * (y4 + z4), 0.5 * (y5 + z5))
                return [y0 + h * r0, y1 + h * r1, y2 + h * r2,
                        y3 + h * r3, y4 + h * r4, y5 + h * r5] + rest
        raise NonConvergence("implicit midpoint fixed point did not converge",
                             step_index=step_index, residual=delta)

    return midpoint


def integrate(sys: RCHSystem, x0, t_end: float, h: float,
              method: str = "midpoint") -> Trajectory:
    """Integrate the dynamical field from x0 to t_end with fixed step h.

    midpoint is the implicit midpoint rule (fixed-point iteration to
    _MIDPOINT_TOL = 1e-12, at most _MIDPOINT_CAP = 100 iterations per step),
    symplectic for constant fields; rk4 is the explicit reference scheme.
    Every route steps through one loop (_fixed_step_flow) on flat lists of
    Python floats, except the propagator, which writes each product into its
    row of the state array. The propagator and the closed-form kernel enter
    each step through the same hook of _midpoint_step and _rk4_step, so a
    step is one call of either on every route. The route is resolved once
    per run and recorded in Trajectory.route:

    - "propagator": a pure (unforced, uncontrolled) system whose Hamiltonian
      declares a quadratic form (kind "euclidean" or "quadratic") on a
      constant field is affine, y' = A y + b, and each step is one product
      with the Cayley (midpoint) or degree-4 Taylor (rk4) matrix of the
      augmented generator. Midpoint uses it only where the fixed-point
      iteration provably contracts, ||hA/2||_F < 1/2 on the linear block;
      otherwise the run takes the "field" route.
    - "closed_form": a pure invariant-metric particle on a constant field
      steps by a fused midpoint or rk4 kernel on float locals, built for the
      rescaled step (_invariant_particle_step), bitwise equal to the generic
      steps on rch_vector_field.
    - "shifted": midpoint on a general (q-dependent) field, for a pure system
      with a potential, integrates the plain Hamiltonian field of H_A (see
      modified_hamiltonian) and maps back through the fiber translation.
    - "rk4_fallback": midpoint on a general field that cannot take the
      shifted route runs rk4 instead, with a NonSymplecticWarning; the
      trajectory's method then reads "rk4".
    - "field": everything else steps rch_vector_field.

    The momenta come from one array pass of magnetic.momentum_map_array over
    all states, and are nan for fields without a momentum map (every kind
    but zero and invariant). Energies of the kinetic kinds take one array
    pass too; other kinds are evaluated state by state.
    """
    _check_run(t_end, h, method)
    state = _as_state(x0, sys.k)
    pure = sys.force is None and sys.control is None
    route, generator, kernel = "field", None, None
    rhs = lambda y: rch_vector_field(sys, y)
    if sys.field.is_constant:
        if pure and sys.hamiltonian.form is not None:
            route, generator = "propagator", _affine_generator(sys)
        elif pure and sys.hamiltonian.kind == "invariant":
            route = "closed_form"
            kernel = functools.partial(_invariant_particle_step, sys)
    elif method == "midpoint":
        if pure and sys.field.has_potential:
            route = "shifted"
            shifted = replace(sys, field=MagneticField.zero(),
                              hamiltonian=_shifted_hamiltonian(sys))
            rhs = lambda y: hamiltonian_vector_field(shifted, y)
        else:
            warnings.warn("q-dependent field without a usable potential: "
                          "falling back to non-symplectic rk4",
                          NonSymplecticWarning, stacklevel=2)
            route, method = "rk4_fallback", "rk4"

    if route == "shifted":
        state = _momentum_shift(state, sys.field)

    times, states, propagated = _fixed_step_flow(rhs, state, t_end, h, method,
                                                 generator, kernel)
    if route == "propagator" and not propagated:
        route = "field"
    if route == "shifted":
        inverse = replace(sys.field, charge_factor=-sys.field.charge_factor)
        for i, row in enumerate(states):
            states[i] = _momentum_shift(row, inverse)

    energies = _state_energies(sys.hamiltonian, states)
    q = states[:, :3]
    try:
        momenta = momentum_map_array(q, chart_to_body_array(q, states[:, 3:6]),
                                     sys.field)
    except (MissingPotential, NotInvariant):
        momenta = np.full((states.shape[0], 3), np.nan)
    return Trajectory(times, states, energies, momenta, method, route)


def _state_energies(hamiltonian: HamiltonianSpec,
                    states: np.ndarray) -> np.ndarray:
    """hamiltonian.evaluate at each row of states.

    The kinetic and quadratic kinds take one pass: stacked (1, n) @ (n, n)
    and (1, n) @ (n, 1) products give evaluate's per-row matrix and dot
    products bitwise, on p for "euclidean", on the body momentum rho for
    "invariant" and on y = (q, p) for "quadratic" (1/2 y.Q.y + c.y). Other
    kinds evaluate row by row.
    """
    if hamiltonian.kind == "quadratic":
        Q, c = hamiltonian.form
        y = states[:, None, :6]
        return 0.5 * (y @ Q @ y.mT).ravel() + (c @ y.mT).ravel()
    if hamiltonian.kind == "euclidean":
        v = states[:, 3:6]
    elif hamiltonian.kind == "invariant":
        v = chart_to_body_array(states[:, :3], states[:, 3:6])
    else:
        return np.array([hamiltonian.evaluate(s) for s in states])
    return 0.5 * (v[:, None, :] @ v[:, :, None]).ravel() / hamiltonian.mass


def euclidean_kinetic_hamiltonian(m: float) -> HamiltonianSpec:
    """Chart kinetic energy |p|^2/(2m); its q-gradient vanishes identically.

    It declares its form, Q = diag(0, 0, 0, 1/m, 1/m, 1/m) and c = 0.
    """

    def evaluate(state):
        p = state[3:6]
        return 0.5 * float(p @ p) / m

    def gradient(state):
        out = np.zeros_like(state)
        out[3:6] = state[3:6] / m
        return out

    if not m > 0:
        raise ValueError("mass must be positive")
    form = (np.diag([0.0, 0.0, 0.0, 1 / m, 1 / m, 1 / m]), np.zeros(6))
    return HamiltonianSpec(evaluate, gradient, "euclidean", m, form)


def invariant_kinetic_hamiltonian(m: float) -> HamiltonianSpec:
    """Left-invariant kinetic energy |rho(q, p)|^2/(2m) in chart coordinates.

    This is the non-Euclidean metric option: the Hamiltonian a left-invariant
    metric induces on the cotangent chart. It is the one to use whenever
    momentum maps or reduction enter.
    """

    def evaluate(state):
        rho = chart_to_body_array(state[:3], state[3:6])
        return 0.5 * float(rho @ rho) / m

    def gradient(state):
        q, p = state[:3], state[3:6]
        rho = chart_to_body_array(q, p)
        out = np.zeros_like(state)
        out[0] = 0.5 * p[2] * rho[1] / m
        out[1] = -0.5 * p[2] * rho[0] / m
        out[3] = rho[0] / m
        out[4] = rho[1] / m
        out[5] = (-0.5 * q[1] * rho[0] + 0.5 * q[0] * rho[1] + rho[2]) / m
        return out

    return HamiltonianSpec(evaluate, gradient, "invariant", m)


def quadratic_hamiltonian(Q, c=None) -> HamiltonianSpec:
    """H(y) = 1/2 y^T Q y + c^T y of y = (q, p), independent of (theta, lam).

    Q must be a finite symmetric 6x6 matrix and c (default 0) a finite
    6-vector; anything else raises ValueError. The spec has kind "quadratic",
    declares no mass and carries its form, so integrate steps it by one
    propagator on a constant field.
    """
    Q, c = _checked_form(Q, np.zeros(6) if c is None else c, 6)

    def evaluate(state):
        y = state[:6]
        return 0.5 * float(y @ Q @ y) + float(c @ y)

    def gradient(state):
        out = np.zeros_like(state)
        out[:6] = Q @ state[:6] + c
        return out

    return HamiltonianSpec(evaluate, gradient, "quadratic", form=(Q, c))


def heisenberg_particle(m: float, e: float, c: float,
                        field: MagneticField) -> RCHSystem:
    """Charged particle in the chart: kinetic |p|^2/(2m), charge factor e/c.

    The supplied field is copied with charge_factor = e/c so the dynamics and
    every form built from the system agree on the premultiplier.
    """
    if c <= 0:
        raise ValueError("light-speed parameter must be positive")
    scaled = replace(field, charge_factor=e / c)
    return RCHSystem(scaled, euclidean_kinetic_hamiltonian(m))


def modified_hamiltonian(sys: RCHSystem, x) -> float:
    """Shifted-chart Hamiltonian H_A(q, P) = H(q, P - charge_factor * A(q)).

    For the kinetic particle this is |p - (e/c) A(q)|^2 / (2m); composing with
    the fiber shift t_A recovers H identically.
    """
    return float(_shifted_hamiltonian(sys).evaluate(_as_state(x, sys.k)))
