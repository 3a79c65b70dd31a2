"""Controlled Hamiltonian systems on the magnetic cotangent bundle.

States are flat chart vectors (q, p, theta, lam) of dimension 6 + 2k. The
dynamical vector field is the magnetic Hamiltonian field plus vertical lifts
of the force and control fiber maps; integration offers an implicit midpoint
rule (symplectic for constant fields) and a classical rk4 reference.
"""

from __future__ import annotations

import functools
import linecache
import warnings
from dataclasses import dataclass, replace
# isnan is read by the midpoint drivers that _step_template generates.
from math import isfinite, isnan
from typing import Callable

import numpy as np

from . import fd
from .errors import MissingPotential, NonConvergence, NonSymplecticWarning
from .group import _dot, _map_rows, _matvec, _vecmat
from .magnetic import (MagneticField, _momentum_shift, chart_to_body_array,
                       momentum_map)
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
    """Hamiltonian on the flat chart state with its gradient callable.

    kind and mass are recorded by the factories and never inferred from
    samples: "euclidean" is |p|^2/(2 mass) in the chart, "invariant" the
    left-invariant kinetic energy |rho|^2/(2 mass), "quadratic" a form
    1/2 y^T Q y + c^T y of y = (q, p), independent of (theta, lam). Only the
    kinetic kinds declare a mass. A spec built directly is "general" and
    declares none. integrate steps pure systems of a declared kind on a
    constant field without the generic vector field: the kinds "euclidean"
    and "quadratic" by one propagator, whose generator it reads off the
    vector field, so the kind alone selects that route.

    The evaluate and gradient of a declared kind take one state or a stack
    (..., 6 + 2k) of states, row i of a stacked call bitwise the call on row
    i: their products go through group._dot, _matvec and _vecmat, whose
    stacked matmul hands each row to the BLAS call (dot or gemv) of the
    single state. evaluate gives a Python float for one state and an array
    of the leading shape for a stack. grad takes a stack of any kind: a
    general spec's gradient, the user's of one state, is mapped over its
    rows.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    kind: str = "general"
    mass: float | None = None

    def __post_init__(self):
        if self.kind not in _HAMILTONIAN_KINDS:
            raise ValueError(f"Hamiltonian kind must be one of "
                             f"{_HAMILTONIAN_KINDS}, got {self.kind!r}")
        if (self.kind in _KINETIC_KINDS) != (self.mass is not None):
            raise ValueError("a kinetic Hamiltonian declares its mass; "
                             "any other declares none")
        if self.mass is not None and not self.mass > 0:
            raise ValueError("mass must be positive")

    def grad(self, state: np.ndarray) -> np.ndarray:
        return _map_rows(self.gradient, self.kind != "general", state)


@dataclass(frozen=True)
class FiberMap:
    """Fiber-preserving map of the phase space: base (q, theta) unchanged.

    apply acts on flat chart states; tangent optionally supplies an analytic
    tangent map (state, vector) -> vector, defaulting to central finite
    differences with step fd.GRADIENT_STEP.

    affine declares apply affine in the fiber, (p, lam) -> L(q) (p, lam) + d(q),
    with coefficients that depend on q only, never on theta. It is never
    checked on samples and needs the analytic tangent (ValueError otherwise):
    a finite-difference push is affine only up to its step noise. image and
    push take one state or a stack (..., 6 + 2k) of states (and of
    vectors), row i bitwise the call on row i: an affine map's apply and
    tangent take the stack, any other map's are mapped over its rows.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    affine: bool = False

    def __post_init__(self):
        if self.affine and self.tangent is None:
            raise ValueError("an affine fiber map declares its analytic tangent")

    def image(self, state: np.ndarray) -> np.ndarray:
        return _map_rows(self.apply, self.affine, state)

    def push(self, state: np.ndarray, vector: np.ndarray) -> np.ndarray:
        return _map_rows(self.tangent or functools.partial(
            fd.directional, self.apply, step=fd.GRADIENT_STEP), self.affine,
            state, vector)


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

    def contains(self, covector: np.ndarray) -> bool:
        """Is the covector within 1e-10 of the subspace?"""
        return self.distance(covector) <= 1e-10


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
            states = np.random.default_rng(99).uniform(-2, 2, (10, self.dim))
            images = self.control.image(states)[:, fiber]
            if not all(map(self.control_subset.contains, images)):
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
    route: str

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


def _as_states(x, k: int) -> np.ndarray:
    """x as a float state of dimension 6 + 2k or a stack (..., 6 + 2k) of
    them; ValueError for any other shape. The entries are not checked:
    integrator iterates reach the vector fields, and may overflow."""
    state = np.asarray(x, dtype=float)
    if state.ndim == 0 or state.shape[-1] != 6 + 2 * k:
        raise ValueError(f"state must have dimension {6 + 2 * k} (or be a "
                         f"stack of them), got {state.shape}")
    return state


def hamiltonian_vector_field(sys: RCHSystem, x) -> np.ndarray:
    """Magnetic Hamilton equations at x.

    qdot = dH/dp, pdot = -dH/dq + charge_factor * B(q) dH/dp, and the
    canonical equations on the (theta, lam) block. x may also be a stack
    (..., 6 + 2k) of states, and row i of the result is bitwise the call on
    row i.
    """
    k = sys.k
    state = _as_states(x, k)
    grad = sys.hamiltonian.grad(state)
    qdot = grad[..., 3:6]
    pdot = -grad[..., :3] + sys.field.charge_factor * _matvec(
        sys.field.b(state[..., :3]), qdot)
    return np.concatenate([qdot, pdot, grad[..., 6 + k:], -grad[..., 6:6 + k]],
                          axis=-1)


def vertical_lift(fiber_map: FiberMap, sys: RCHSystem, x) -> np.ndarray:
    """Vertical correction vlift(F) X_H at x.

    Evaluates the Hamiltonian field at F(x), pushes it through the tangent map
    of F there, keeps the fiber component, and places it at x (the fibers are
    vector spaces, so the transport back along the fiber line is the identity).
    The alternative reading, pushing X_H evaluated at x itself, coincides with
    this one for fiber-linear maps. x may also be a stack (..., 6 + 2k) of
    states, row i of the result bitwise the call on row i; only its shape
    is checked, as in hamiltonian_vector_field.
    """
    state = _as_states(x, sys.k)
    base, fiber = _base_fiber_indices(sys.k)
    moved = fiber_map.image(state)
    if np.max(np.abs(moved[..., base] - state[..., base])) > 1e-12:
        raise ValueError("fiber map does not preserve the base point")
    pushed = fiber_map.push(moved, hamiltonian_vector_field(sys, moved))
    out = np.zeros_like(state)
    out[..., fiber] = pushed[..., fiber]
    return out


def rch_vector_field(sys: RCHSystem, x) -> np.ndarray:
    """Full dynamical field: X_H plus vertical lifts of force and control.

    x may also be a stack (..., 6 + 2k) of states, and row i of the result
    is bitwise the call on row i.
    """
    out = hamiltonian_vector_field(sys, x)
    for fiber_map in (sys.force, sys.control):
        if fiber_map is not None:
            out = out + vertical_lift(fiber_map, sys, x)
    return out


# The stop rule of the implicit-midpoint fixed-point iteration, relative to
# max(1, max|y|), written as literals into the midpoint drivers of
# _step_template.
_MIDPOINT_TOL = 1e-12
_MIDPOINT_CAP = 100


def _step_template(n: int, method: str) -> str:
    """Source of the midpoint or rk4 step driver for states of n floats.

    The driver unpacks the state y into the locals y0, y1, ..., and every
    stage into locals too, so no list is built per iteration or stage; rhs
    is called with one argument, a sequence of n floats, and returns n
    floats. Each operation is numpy's on the whole state, in the same order,
    so the states are the bits of array arithmetic. each(expr) writes expr
    once per entry, # standing for its index; a tuple display ends in a
    comma, so one entry is a tuple too.

    The midpoint iteration starts, when the three states before y are
    given (back, back2, back3, latest first), from the extrapolated guess
    y + ((3 (y - back) - 3 (back - back2)) + (back2 - back3)). That is the
    slope 3 k(n-1/2) - 3 k(n-3/2) + k(n-5/2), quadratic through the last
    three midpoint slopes, written through states (a step's increment is h
    times its midpoint slope), so it costs no rhs call: the starting
    approximation 2 k(n-1/2) - k(n-3/2) of Hairer, Lubich and Wanner,
    Geometric Numerical Integration, section VIII.6, taken one order
    higher, with an error of O(h^4). Without them it starts from the
    explicit Euler guess. It stops once the largest increment is at most
    _MIDPOINT_TOL * max(1, max|y|), the scale read once from the step's
    start state (a nan increment never stops it), then polishes once; after
    _MIDPOINT_CAP iterations NonConvergence reports the last increment as
    the residual. Both are written into the source as literals.
    """
    def each(expr: str, sep: str = ", ") -> str:
        return sep.join(expr.replace("#", str(i)) for i in range(n))

    if method == "rk4":
        return f"""\
def rk4(rhs, y, h):
    half = 0.5 * h
    {each('y#')}, = y
    {each('a#')}, = rhs(y)
    {each('b#')}, = rhs(({each('y# + half * a#')},))
    {each('c#')}, = rhs(({each('y# + half * b#')},))
    {each('d#')}, = rhs(({each('y# + h * c#')},))
    sixth = h / 6.0
    return [{each('y# + sixth * (((a# + 2 * b#) + 2 * c#) + d#)')}]
"""
    extrapolated = "y# + ((3.0 * (y# - u#) - 3.0 * (u# - v#)) + (v# - s#))"
    return f"""\
def midpoint(rhs, y, h, step_index, back=None, back2=None, back3=None):
    {each('y#')}, = y
    if back3 is None:
        {each('r#')}, = rhs(y)
        {each('z#')}, = {each('y# + h * r#')},
    else:
        {each('u#')}, = back
        {each('v#')}, = back2
        {each('s#')}, = back3
        {each('z#')}, = {each(extrapolated)},
    tol = {_MIDPOINT_TOL!r} * max(1.0, {each('abs(y#)')})
    for _ in range({_MIDPOINT_CAP!r}):
        {each('r#')}, = rhs(({each('0.5 * (y# + z#)')},))
        {each('w#')}, = {each('y# + h * r#')},
        {each('i#')}, = {each('abs(w# - z#)')},
        {each('z#')}, = {each('w#')},
        # The increments are >= 0, so their sum is nan only if one is nan;
        # Python's max would pass over a nan that numpy's would return.
        total = {each('i#', ' + ')}
        delta = total if isnan(total) else max(({each('i#')},))
        if delta <= tol:
            # one polishing iteration after reaching tolerance
            {each('r#')}, = rhs(({each('0.5 * (y# + z#)')},))
            return [{each('y# + h * r#')}]
    raise NonConvergence("implicit midpoint fixed point did not converge",
                         step_index=step_index, residual=delta)
"""


@functools.cache
def _step_driver(n: int, method: str) -> Callable[..., list[float]]:
    """The step driver of method for n floats, compiled from _step_template
    once per (n, method). Its source is kept as driver.source, under a file
    name that names the template, for tracebacks and inspection."""
    source = _step_template(n, method)
    filename = f"<heisenmech.dynamics._step_template {method} n={n}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                 filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    driver = namespace[method]
    driver.source = source
    return driver


def _midpoint_step(rhs, y: list[float], h: float, step_index: int,
                   back: list[float] | None = None,
                   back2: list[float] | None = None,
                   back3: list[float] | None = None,
                   propagator: Callable[..., list | np.ndarray] | None = None
                   ) -> list[float]:
    """One implicit-midpoint step of rhs from the flat float state y, by the
    driver of _step_template for its width, or the given propagator step
    applied to y: it writes the state row y's successor (see _row_writer).
    back, back2 and back3 are the three states before y, latest first, from
    which the driver extrapolates its starting guess; without them it starts
    from the explicit Euler guess. Either way the iteration stops at an
    increment of 1e-12 * max(1, max|y|)."""
    if propagator is not None:
        return propagator(y)
    return _step_driver(len(y), "midpoint")(rhs, y, h, step_index, back, back2,
                                            back3)


def _rk4_step(rhs, y: list[float], h: float,
              propagator: Callable[..., list | np.ndarray] | None = None
              ) -> list[float]:
    """One classical rk4 step of rhs from the flat float state y, by the
    driver of _step_template for its width, or the given propagator step
    applied to y (see _midpoint_step)."""
    if propagator is not None:
        return propagator(y)
    return _step_driver(len(y), "rk4")(rhs, y, h)


def _on_floats(rhs):
    """rhs as a map of flat float sequences: a float kernel (marked
    on_floats) passes through, an array-valued rhs gets one conversion each
    way."""
    if getattr(rhs, "on_floats", False):
        return rhs
    return lambda y: rhs(np.array(y)).tolist()


def _check_run(t_end: float, h: float, method: str) -> None:
    if h <= 0 or t_end <= 0:
        raise ValueError("step size and end time must be positive")
    if method not in ("midpoint", "rk4"):
        raise ValueError(f"unknown method {method!r}")


def _propagator(A: np.ndarray, b: np.ndarray, h: float, method: str
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """Step matrix P and offset d of method for the affine field
    y' = A @ y + b: one step is P @ y + d, or P @ y when d is None.

    The step matrix is built for the augmented generator M = [[A, b], [0, 0]]
    acting on (y, 1): rk4 is its degree-4 Taylor polynomial of h, midpoint
    its Cayley map (I - hM/2)^-1 (I + hM/2), the exact solution of the
    midpoint equation at every h. Where I - hM/2 is singular (hA has the
    eigenvalue 2) the midpoint map does not exist, and np.linalg.solve
    raises LinAlgError. With b = 0 nothing is augmented and d is None.
    """
    n = len(A)
    affine = bool(b.any())
    if affine:
        A = np.block([[A, b[:, None]], [np.zeros((1, n + 1))]])
    hA = h * A
    eye = np.eye(len(A))
    if method == "rk4":
        P = eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4) / 3) / 2)
    else:
        P = np.linalg.solve(eye - 0.5 * hA, eye + 0.5 * hA)
    if not affine:
        return P, None
    return P[:n, :n].copy(), P[:n, n].copy()


def _row_writer(P: np.ndarray, d: np.ndarray | None,
                states: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The propagator step of (P, d) as a map of rows of states: the row y
    goes to the next row, into which P @ y (+ d) is written and which is
    returned. P.dot and add with out= give the bits of P @ y + d (dot and
    matmul both take BLAS's gemv for a matrix and a vector); the bound
    method P.dot skips np.dot's __array_function__ dispatch."""
    rows, dot = iter(states[1:]), P.dot
    if d is None:
        return lambda y: dot(y, next(rows))

    def step(y):
        out = dot(y, next(rows))
        return np.add(out, d, out=out)

    return step


# Rows of propagator states written between two finiteness scans.
_SCAN_ROWS = 1024


def _non_finite(step: int) -> FloatingPointError:
    return FloatingPointError(
        f"integration produced a non-finite state at step {step}")


def _fixed_step_flow(rhs, y0: np.ndarray, t_end: float, h: float, method: str,
                     generator: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Times and states of midpoint or rk4 steps of rhs from y0 to t_end.

    The steps are uniform and land exactly on t_end (h is rescaled by at most
    half a step); exact endpoints matter for period-return checks. The steps
    run on Python floats, by the drivers of _step_template, since numpy's
    per-call cost exceeds its arithmetic on states this small; rhs may be
    array-valued (converted here, see _on_floats) or a float kernel, and the
    operation order is numpy's, so the states are the same bits. Each float
    state is tested for finiteness as it is made, and a midpoint step is
    passed the three states before it (from step 3 on) for its starting
    guess.

    An affine field may also pass its generator (A, b) (rhs(y) = A @ y + b);
    each step then writes P @ y (+ d), _propagator's step for the rescaled
    h, straight into its row of the states (see _row_writer). Those rows are
    scanned for finiteness once per block of _SCAN_ROWS steps: an affine
    step keeps an inf or nan state non-finite, so the first non-finite row
    of a block is the step a per-step test would have stopped at, and the
    run ends at most one block later. Either way, every step goes through
    _midpoint_step or _rk4_step, looked up on this module.

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
        if generator is None:
            y, rhs = y0.tolist(), _on_floats(rhs)
            back = back2 = back3 = None
            for i in range(n_steps):
                if method == "midpoint":
                    y, back, back2, back3 = (
                        _midpoint_step(rhs, y, h, i, back, back2, back3),
                        y, back, back2)
                else:
                    y = _rk4_step(rhs, y, h)
                if not all(map(isfinite, y)):
                    raise _non_finite(i)
                states[i + 1] = y
        else:
            propagate = _row_writer(*_propagator(*generator, h, method),
                                    states)
            y = states[0]
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
    return times, states


def modified_hamiltonian(sys: RCHSystem) -> HamiltonianSpec:
    """Shifted-chart Hamiltonian H_A(q, P) = H(q, P - charge_factor * A(q))
    with its exact gradient (g_q - charge_factor * DA^T g_p, g_p, g_theta,
    g_lam), g = grad H there; H_A after the fiber shift t_A is H. A field
    without a potential raises MissingPotential. The spec is "general": its
    gradient is of one state. Its evaluate also takes a stack of states where
    H's evaluate does."""
    if not sys.field.has_potential:
        raise MissingPotential("magnetic field has no vector potential")
    cf = sys.field.charge_factor
    inverse = replace(sys.field, charge_factor=-cf)

    def unshift(state):
        return _momentum_shift(state, inverse)

    def gradient(state):
        grad = sys.hamiltonian.grad(unshift(state))
        DA = sys.field.vector_potential_jacobian(state[:3])
        return np.concatenate([grad[:3] - cf * (DA.T @ grad[3:6]), grad[3:]])

    return HamiltonianSpec(lambda s: sys.hamiltonian.evaluate(unshift(s)), gradient)


def _affine_pair(f: Callable[[np.ndarray], np.ndarray],
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix A and offset b of a map f on R^n known to be affine,
    f(z) = A @ z + b, read off one call of f on the stack of the origin and
    the unit vectors (f maps a stack (n + 1, n) to the stack of its rows'
    images); nothing is tested."""
    rows = f(np.vstack([np.zeros(n), np.eye(n)]))
    return np.column_stack(rows[1:] - rows[0]), rows[0]


def _invariant_particle_field(sys: RCHSystem) -> Callable[[list], tuple]:
    """rch_vector_field of a pure invariant-metric particle on a constant
    field as a float kernel: a sequence of 6 + 2k floats in, a tuple out.

    It repeats invariant_kinetic_hamiltonian's gradient and
    hamiltonian_vector_field on floats, operation by operation, so it is
    bitwise equal to them. pdot stays -g_q + cf * (B g_p), since
    (cf * B) g_p rounds differently. B g_p is numpy's product B @ g_p for a
    dense constant or linear field; for a zero or invariant field, whose B
    has exact zeros, it is the float sum ((0.0 + b0*g0) + b1*g1) + b2*g2 per
    row, which has the same bits, signed zeros included (the 0.0 seed fixes
    the sign of a zero sum). The (theta, lam) rates are dH/dlam = 0.0 and
    -dH/dtheta = -0.0.
    """
    m = sys.hamiltonian.mass
    cf = sys.field.charge_factor
    B = sys.field.b(np.zeros(3))
    circle = (0.0,) * sys.k + (-0.0,) * sys.k
    if sys.field.kind in ("zero", "invariant"):
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = B.tolist()

        def times_b(g0, g1, g2):
            return (((0.0 + b00 * g0) + b01 * g1) + b02 * g2,
                    ((0.0 + b10 * g0) + b11 * g1) + b12 * g2,
                    ((0.0 + b20 * g0) + b21 * g1) + b22 * g2)
    else:
        def times_b(g0, g1, g2):
            return (B @ np.array((g0, g1, g2))).tolist()

    def rhs(y):
        q0, q1, p0, p1, p2 = y[0], y[1], y[3], y[4], y[5]
        rho0 = p0 - 0.5 * p2 * q1
        rho1 = p1 + 0.5 * p2 * q0
        g0 = rho0 / m
        g1 = rho1 / m
        g2 = (-0.5 * q1 * rho0 + 0.5 * q0 * rho1 + p2) / m
        b0, b1, b2 = times_b(g0, g1, g2)
        return (g0, g1, g2, -(0.5 * p2 * rho1 / m) + cf * b0,
                -(-0.5 * p2 * rho0 / m) + cf * b1, -0.0 + cf * b2) + circle

    rhs.on_floats = True
    return rhs


def integrate(sys: RCHSystem, x0, t_end: float, h: float,
              method: str = "midpoint") -> Trajectory:
    """Integrate the dynamical field from x0 to t_end with fixed step h.

    midpoint is the implicit midpoint rule, symplectic for constant fields:
    a fixed-point iteration started from the explicit Euler guess at steps 0
    to 2 and from the slope extrapolated off the three previous states after
    that, stopped at an increment of 1e-12 * max(1, max|y|) within 100
    iterations per step (see _step_template); rk4 is the explicit reference
    scheme.
    Every route steps through one loop (_fixed_step_flow), a step being one
    call of _midpoint_step or _rk4_step. The propagator writes each product
    into its row of the state array; every other route runs the one
    generated driver of its method and width (_step_template) on Python
    floats, and differs only in the right-hand side it supplies. The route
    is resolved once per run and recorded in Trajectory.route:

    - "propagator": a pure (unforced, uncontrolled) system whose Hamiltonian
      is of a quadratic kind ("euclidean" or "quadratic") on a constant
      field is affine, y' = A y + b (A = Pi Q and b = Pi c for
      the field's Poisson matrix Pi), read off rch_vector_field in one
      stacked call at the zero and unit states (_affine_pair). Each step is
      one product with the Cayley (midpoint) or degree-4 Taylor (rk4)
      matrix of the augmented generator, at every h (see _propagator).
    - "closed_form": a pure invariant-metric particle on a constant field
      steps its vector field written on floats (_invariant_particle_field),
      bitwise equal to rch_vector_field.
    - "shifted": midpoint on a general (q-dependent) field, for a pure system
      with a potential, integrates the plain Hamiltonian field of H_A (see
      modified_hamiltonian) and maps back through the fiber translation.
    - "rk4_fallback": midpoint on a general field that cannot take the
      shifted route runs rk4 instead, with a NonSymplecticWarning; the
      trajectory's method then reads "rk4".
    - "field": everything else steps rch_vector_field.

    The momenta come from one array pass of magnetic.momentum_map over all
    states, and are nan for fields without a momentum map (every kind but
    zero and invariant). Energies of the kinetic kinds take one array
    pass too; other kinds are evaluated state by state.
    """
    _check_run(t_end, h, method)
    state = _as_state(x0, sys.k)
    pure = sys.force is None and sys.control is None
    route, generator = "field", None
    rhs = lambda y: rch_vector_field(sys, y)
    if sys.field.is_constant:
        if pure and sys.hamiltonian.kind in _QUADRATIC_KINDS:
            route, generator = "propagator", _affine_pair(rhs, sys.dim)
        elif pure and sys.hamiltonian.kind == "invariant":
            route, rhs = "closed_form", _invariant_particle_field(sys)
    elif method == "midpoint":
        if pure and sys.field.has_potential:
            route, state = "shifted", _momentum_shift(state, sys.field)
            shifted = replace(sys, field=MagneticField.zero(),
                              hamiltonian=modified_hamiltonian(sys))
            rhs = lambda y: hamiltonian_vector_field(shifted, y)
        else:
            warnings.warn("q-dependent field without a usable potential: "
                          "falling back to non-symplectic rk4",
                          NonSymplecticWarning, stacklevel=2)
            route, method = "rk4_fallback", "rk4"

    times, states = _fixed_step_flow(rhs, state, t_end, h, method, generator)
    if route == "shifted":
        states = _momentum_shift(states, replace(
            sys.field, charge_factor=-sys.field.charge_factor))

    energies = _state_energies(sys.hamiltonian, states)
    momenta = (momentum_map(states, sys.field)
               if sys.field.kind in ("zero", "invariant")
               else np.full((states.shape[0], 3), np.nan))
    return Trajectory(times, states, energies, momenta, method, route)


def _state_energies(H: HamiltonianSpec, states: np.ndarray) -> np.ndarray:
    """H.evaluate at each row of states: one stacked call for the declared
    kinds, row by row for a "general" one."""
    return _map_rows(H.evaluate, H.kind != "general", states)


def euclidean_kinetic_hamiltonian(m: float) -> HamiltonianSpec:
    """Chart kinetic energy |p|^2/(2m); its q-gradient vanishes identically.

    It is the form Q = diag(0, 0, 0, 1/m, 1/m, 1/m), c = 0, so integrate
    steps it by one propagator on a constant field.
    """

    def evaluate(state):
        p = state[..., 3:6]
        return 0.5 * _dot(p, p) / m

    def gradient(state):
        out = np.zeros_like(state)
        out[..., 3:6] = state[..., 3:6] / m
        return out

    return HamiltonianSpec(evaluate, gradient, "euclidean", m)


def invariant_kinetic_hamiltonian(m: float) -> HamiltonianSpec:
    """Left-invariant kinetic energy |rho(q, p)|^2/(2m) in chart coordinates.

    This is the non-Euclidean metric option: the Hamiltonian a left-invariant
    metric induces on the cotangent chart. It is the one to use whenever
    momentum maps or reduction enter.
    """

    def evaluate(state):
        rho = chart_to_body_array(state[..., :3], state[..., 3:6])
        return 0.5 * _dot(rho, rho) / m

    def gradient(state):
        rho = chart_to_body_array(state[..., :3], state[..., 3:6])
        # Components are read and written as rows of transposes: a scalar for
        # one state, and the same elementwise map for a stack of any shape.
        s, r, out = state.T, rho.T, np.zeros_like(state)
        g = out.T
        g[0] = 0.5 * s[5] * r[1] / m
        g[1] = -0.5 * s[5] * r[0] / m
        g[3] = r[0] / m
        g[4] = r[1] / m
        g[5] = (-0.5 * s[1] * r[0] + 0.5 * s[0] * r[1] + r[2]) / m
        return out

    return HamiltonianSpec(evaluate, gradient, "invariant", m)


def quadratic_hamiltonian(Q, c=None) -> HamiltonianSpec:
    """H(y) = 1/2 y^T Q y + c^T y of y = (q, p), independent of (theta, lam).

    Q must be a finite symmetric 6x6 matrix and c (default 0) a finite
    6-vector; anything else raises ValueError. The spec has kind "quadratic"
    and declares no mass; integrate steps it by one propagator on a constant
    field.
    """
    Q, c = _checked_form(Q, np.zeros(6) if c is None else c, 6)

    def evaluate(state):
        y = state[..., :6]
        return 0.5 * _dot(_vecmat(y, Q), y) + _dot(c, y)

    def gradient(state):
        out = np.zeros_like(state)
        out[..., :6] = _matvec(Q, state[..., :6]) + c
        return out

    return HamiltonianSpec(evaluate, gradient, "quadratic")


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
