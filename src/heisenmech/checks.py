"""Named invariant checks behind the command-line report.

Each entry in CHECKS is a function from (seed, samples) to a list of
CheckRecord values. Only positive checks live here: fixtures that are meant
to fail are separate config files driven through the mr-check subcommand, so
a full registry run is expected to be green while the rejection paths stay
exercised elsewhere.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from functools import partial
from typing import Callable

import numpy as np

from . import connection as C
from . import dynamics as dyn
from . import fd
from . import group
from . import magnetic as mag
from . import orbit
from .errors import ConfigError
from .group import CoAlgebraElement, _dot, _matvec, _vecmat
from .orbit import MagneticCocycle
from .reduction import (
    CheckRecord,
    DiffeoSpec,
    _require_samples,
    _worst,
    check_commutation,
    check_mr1,
    check_mr2_equivariance,
    check_mr3_matching,
    kaluza_klein_system,
    kk_alpha_form_check,
    kk_reduce_and_compare,
    reduce_system,
)

__all__ = ["CHECKS", "run_named_checks"]

# Planar rotation field, the closed-form oracle for magnetic dynamics.
_ROT = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _quadratic(Q: np.ndarray) -> orbit.DualFunction:
    Qs = 0.5 * (Q + Q.T)
    return orbit.DualFunction(
        evaluate=lambda p: 0.5 * _dot(_vecmat(p, Qs), p),
        gradient=lambda p: _matvec(Qs, p),
        hessian=lambda p: Qs,
    )


def _triples(rng: np.random.Generator, samples: int, count: int) -> np.ndarray:
    """count stacks of samples triples, drawn as samples rows of
    rng.uniform(-2, 2, (count, 3)) in turn."""
    return rng.uniform(-2, 2, (samples, count, 3)).transpose(1, 0, 2)


def check_group_axioms(seed: int, samples: int = 1000) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    g, h, l = _triples(rng, samples, 3)
    lhs = group.multiply(group.multiply(g, h), l)
    rhs = group.multiply(g, group.multiply(h, l))
    homo = (group.to_matrix(group.multiply(g, h))
            - group.to_matrix(g) @ group.to_matrix(h))
    return [CheckRecord("group.associativity", samples, _worst(lhs - rhs), 1e-12),
            CheckRecord("group.inverse", samples,
                        _worst(group.multiply(g, group.inverse(g))), 1e-12),
            CheckRecord("group.identity", samples,
                        _worst(group.multiply(g, group.identity()) - g), 1e-12),
            CheckRecord("group.matrix_homomorphism", samples, _worst(homo),
                        1e-12)]


def check_representations(seed: int, samples: int = 1000) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    fd_rounds = min(samples, 200)
    g, xi, p = _triples(rng, fd_rounds, 3)
    # Both slopes are central differences in t at 0 (step fd.TANGENT_STEP).
    slope = fd.directional(lambda t: group.conjugate(g, group.exp(t * xi)),
                           0.0, 1.0)
    adj = _worst(slope - group.adjoint(g, xi))
    slope = fd.directional(lambda t: group.coadjoint(group.exp(-t * xi), p),
                           0.0, 1.0)
    coad = _worst(slope - group.coad_star(xi, p))
    g, xi, p = _triples(rng, samples, 3)
    lhs = group.pairing(group.coadjoint(g, p), xi)
    rhs = group.pairing(p, group.adjoint(group.inverse(g), xi))
    return [CheckRecord("representation.adjoint_fd", fd_rounds, adj, 1e-8),
            CheckRecord("representation.coadjoint_fd", fd_rounds, coad, 1e-8),
            CheckRecord("representation.pairing", samples, _worst(lhs - rhs),
                        1e-12)]


def _picked(fs, index: np.ndarray) -> orbit.DualFunction:
    """DualFunction on a stack of len(index) dual points whose value and
    derivatives at point i are those of fs[index[i]].

    The rows are sorted by function once (a stable argsort), so each function
    runs on one contiguous slice of the sorted stack, and the results are put
    back in sample order. evaluate, grad and hess each keep their read-only
    result for the last stack object they were given (an `is` test): a stack
    must not be mutated between calls.
    """
    order = np.argsort(index, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    counts = np.bincount(index, minlength=len(fs))
    stops = np.cumsum(counts)
    spans = list(zip(fs, stops - counts, stops))

    def pick(method, tail):
        last = [None, None]

        def stacked(p):
            if p is not last[0]:
                rows = p.take(order, axis=0)
                out = np.empty(index.shape + tail)
                for f, start, stop in spans:
                    out[start:stop] = getattr(f, method)(rows[start:stop])
                out = out.take(inverse, axis=0)
                out.flags.writeable = False
                last[:] = p, out
            return last[1]
        return stacked

    return orbit.DualFunction(pick("evaluate", ()), pick("grad", (3,)),
                              pick("hess", (3, 3)))


def check_bracket(seed: int, samples: int = 200) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    fs = [orbit.coordinate_function(i) for i in range(3)]
    fs.append(_quadratic(rng.normal(size=(3, 3))))
    fs.append(_quadratic(rng.normal(size=(3, 3))))
    # One block per distribution: the points, the cocycles' axial vectors
    # beta = (F[1,2], -F[0,2], F[0,1]) of general forms F, whose every entry,
    # not only the planar one, is read, then the indices into fs of f, g, h.
    p = rng.uniform(-2, 2, (samples, 3))
    F = np.zeros((samples, 3, 3))
    F[:, 1, 2], F[:, 2, 0], F[:, 0, 1] = rng.normal(size=(samples, 3)).T
    B = MagneticCocycle(F - F.transpose(0, 2, 1))
    f, g, h = (_picked(fs, row)
               for row in rng.integers(0, len(fs), (3, samples)))
    # Each residual stack is reduced to its worst value as soon as it is
    # made, and F (B holds a copy) and the plain oracle's inputs are dropped,
    # so none of them is held through the nested-gradient difference, where
    # the check peaks.
    bracket = orbit.magnetic_lie_poisson
    antisym = _worst(bracket(f, g, p, B) + bracket(g, f, p, B))
    leibniz = _worst(bracket(orbit.product_function(f, g), h, p, B)
                     - (f.evaluate(p) * bracket(g, h, p, B)
                        + g.evaluate(p) * bracket(f, h, p, B)))
    jacobi = _worst(orbit.check_jacobi((f, g, h), p, B))
    df, dg = f.grad(p), g.grad(p)
    oracle = -p[:, 2] * (df[:, 0] * dg[:, 1] - df[:, 1] * dg[:, 0])
    plain = _worst(bracket(f, g, p, MagneticCocycle.zero()) - oracle)
    del F, df, dg, oracle
    # A symmetric error in a declared hessian cancels in the Jacobi sum but
    # not in the nested bracket's closed-form gradient. The difference runs
    # last: it leaves each picker's cache on a shifted stack.
    fg = orbit.bracket_function(f, g, B)
    nested = _worst(fg.grad(p) - fd.gradient(fg.evaluate, p))
    return [CheckRecord("bracket.antisymmetry", samples, antisym, 1e-12),
            CheckRecord("bracket.leibniz", samples, leibniz, 1e-8),
            CheckRecord("bracket.jacobi", samples, jacobi, 1e-9),
            CheckRecord("bracket.nested_gradient", samples, nested, 1e-6),
            CheckRecord("bracket.plain_oracle", samples, plain, 1e-10)]


def check_orbit_form(seed: int, samples: int = 200) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    B = MagneticCocycle.planar(0.4)
    # One block per distribution: the magnitudes of nu, their signs, then
    # per sample a uniform(-2, 2) row holding rho (2), xi and eta (3 each)
    # and the planar part of a fixed point (2).
    nu = (rng.uniform(0.3, 2.5, samples)
          * np.array([-1.0, 1.0])[rng.integers(0, 2, samples)])
    rows = rng.uniform(-2, 2, (samples, 10))
    moving = np.column_stack([rows[:, :2], nu])
    xi, eta = rows[:, 2:5], rows[:, 5:8]
    fixed = np.column_stack([rows[:, 8:], np.zeros(samples)])
    form = orbit.orbit_symplectic_form(nu, xi, eta, B)
    f, g = orbit.linear_function(xi), orbit.linear_function(eta)
    bracket_value = orbit.magnetic_lie_poisson(f, g, moving, B)
    W = orbit.orbit_form_matrix(nu, MagneticCocycle.zero())
    kinds = ((orbit.classify_orbit(fixed) == "point")
             & (orbit.classify_orbit(moving) == "plane"))
    classify_res = 0.0 if kinds.size and kinds.all() else 1.0
    return [CheckRecord("orbit.form_matches_bracket", samples,
                        _worst(form - bracket_value), 1e-10),
            CheckRecord("orbit.determinant", samples,
                        _worst(np.linalg.det(W) - nu * nu), 1e-10),
            CheckRecord("orbit.classification", samples, classify_res, 1e-15)]


def check_connection(seed: int, samples: int = 300) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    # One block per distribution: the stacks g, h, v, w of uniform(-2, 2)
    # triples, then the stacks nu, a, b of standard normals.
    g, h, v, w = rng.uniform(-2, 2, (4, samples, 3))
    nu, a, b = rng.normal(size=(3, samples))
    metric = C.right_invariant_metric
    gh = group.multiply(g, h)
    tv = group.tangent_right_translation(g, v, h)
    tw = group.tangent_right_translation(g, w, h)
    invariance = metric(gh, tv, tw) - metric(g, v, w)
    pairing_res = metric(g, v, w) - _dot(C.right_trivialize(g, v),
                                         C.right_trivialize(g, w))
    cocycle_res = _worst([
        _worst(nu * C.curvature(g, v, w)
               - MagneticCocycle.planar(nu).pair(v, w)),
        _worst(C.locked_inertia(g, a, b) - a * b)])
    conn_at = C.mechanical_connection
    rounds = min(samples, 50)
    g, v, w = _triples(rng, rounds, 3)
    d_v_of_aw = fd.directional(lambda x: conn_at(x, w), g, v)
    d_w_of_av = fd.directional(lambda x: conn_at(x, v), g, w)
    curvature_res = (d_v_of_aw - d_w_of_av) - C.curvature(g, v, w)
    return [CheckRecord("connection.right_invariance", samples,
                        _worst(invariance), 1e-12),
            CheckRecord("connection.trivialized_pairing", samples,
                        _worst(pairing_res), 1e-12),
            CheckRecord("connection.curvature_fd", rounds,
                        _worst(curvature_res), 1e-6),
            CheckRecord("connection.cocycle_pipeline", samples,
                        cocycle_res, 1e-12)]


def check_dynamics(seed: int, samples: int = 1000) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    systems = [dyn.heisenberg_particle(1.0, 1.0, 1.0,
                                       mag.MagneticField.constant(_ROT)),
               dyn.heisenberg_particle(
                   1.5, 2.0, 3.0,
                   mag.MagneticField.invariant_potential((0.3, -0.2, 0.7)))]
    # Per sample: a state and a tangent v as one normal row of 12; sample i
    # goes to system i % 2, each system's rows in one pass.
    draws = rng.normal(size=(samples, 12))
    defining = []
    for i, sys in enumerate(systems):
        state, v = draws[i::len(systems), :6], draws[i::len(systems), 6:]
        X = dyn.hamiltonian_vector_field(sys, state)
        W = mag.omega_matrix(state, sys.field)
        defining.append(_worst(_dot(_vecmat(X, W), v)
                               - _dot(sys.hamiltonian.grad(state), v)))
    rotation = systems[0]
    x0 = np.array([0, 0, 0, 1.0, 0, 0])
    traj = dyn.integrate(rotation, x0, 2 * np.pi, 1e-3, "midpoint")
    period = float(np.max(np.abs(traj.final_state()[3:6] - x0[3:6])))
    drift_traj = dyn.integrate(rotation,
                               np.array([0.3, -0.2, 0.5, 1.0, 0.4, -0.7]),
                               10.0, 1e-3, "midpoint")
    rel = float(np.max(np.abs(drift_traj.energies - drift_traj.energies[0]))
                / abs(drift_traj.energies[0]))
    W0 = mag.omega_matrix(np.zeros(6), rotation.field)
    h = 1e-3
    jac_res = []
    for _ in range(3):
        y0 = rng.normal(size=6)
        J = fd.jacobian(
            lambda y: dyn.integrate(rotation, y, h, h).final_state(), y0)
        jac_res.append(_worst(J.T @ W0 @ J - W0))
    return [CheckRecord("dynamics.defining_equation", samples, _worst(defining),
                        1e-9),
            CheckRecord("dynamics.period_return", traj.states.shape[0],
                        period, 1e-5),
            CheckRecord("dynamics.energy_drift", drift_traj.states.shape[0],
                        rel, 1e-8),
            CheckRecord("dynamics.symplectic_jacobian", 3, _worst(jac_res),
                        1e-6)]


def _invariant_shift_hamiltonian(a: np.ndarray, cf: float,
                                 m: float) -> dyn.HamiltonianSpec:
    """H_A = |P - cf*A(q)|^2/(2m) of the invariant potential A(q) = a + DA q,
    written out by hand as a declared quadratic form.

    w = P - cf*A(q) = L y + w0 with L = [-cf*DA | I] and w0 = -cf*a, so
    H_A = 1/2 y^T (L^T L/m) y + (L^T w0/m)^T y + |w0|^2/(2m); the constant
    is dropped, since it moves no flow.
    """
    DA = np.array([[0.0, 0.5 * a[2], 0.0], [-0.5 * a[2], 0.0, 0.0],
                   [0.0, 0.0, 0.0]])
    L = np.hstack([-cf * DA, np.eye(3)])
    return dyn.quadratic_hamiltonian(L.T @ L / m, L.T @ (-cf * a) / m)


def _flow_conjugation(sys: dyn.RCHSystem, canonical: dyn.HamiltonianSpec,
                      state: np.ndarray) -> float:
    """Worst state gap between the magnetic rk4 flow of sys from state and the
    canonical rk4 flow of H_A from the shifted state, mapped back by t_A^-1
    (t = 1, h = 1e-4)."""
    magnetic_end = dyn.integrate(sys, state, 1.0, 1e-4, "rk4").final_state()
    shifted0 = mag.momentum_shift(state, sys.field)
    canonical_sys = dyn.RCHSystem(mag.MagneticField.zero(), canonical)
    canonical_end = dyn.integrate(canonical_sys, shifted0, 1.0, 1e-4,
                                  "rk4").final_state()
    back = mag.momentum_shift(canonical_end, replace(
        sys.field, charge_factor=-sys.field.charge_factor))
    return float(np.max(np.abs(back - magnetic_end)))


def check_momentum_shift(seed: int, samples: int = 1000) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    a = np.array([0.4, -0.2, 0.8])
    cf = 1.3
    field = mag.MagneticField.invariant_potential(a, cf)
    m = 1.7
    sys = dyn.heisenberg_particle(m, cf, 1.0, field)
    state = rng.normal(size=(samples, 6))
    modified = dyn.modified_hamiltonian(sys).evaluate(
        mag.momentum_shift(state, sys.field))
    identity_res = _worst(modified - sys.hamiltonian.evaluate(state))
    # Per pullback sample: a state and tangents v, w as one normal row of 18.
    rounds = min(samples, 40)
    draws = rng.normal(size=(rounds, 18))
    state, v, w = draws[:, :6], draws[:, 6:12], draws[:, 12:]
    shift = partial(mag.momentum_shift, field=sys.field)
    canonical = mag.magnetic_form(shift(state), fd.directional(shift, state, v),
                                  fd.directional(shift, state, w),
                                  mag.MagneticField.zero())
    pullback = canonical - mag.magnetic_form(state, v, w, sys.field)

    state = rng.normal(size=6)
    conjugation = _flow_conjugation(sys, _invariant_shift_hamiltonian(a, cf, m),
                                    state)
    return [CheckRecord("shift.hamiltonian_identity", samples,
                        identity_res, 1e-12),
            CheckRecord("shift.form_pullback", rounds, _worst(pullback), 1e-6),
            CheckRecord("shift.flow_conjugation", 1, conjugation, 1e-8)]


def check_noether_reduction(seed: int, samples: int = 100) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    field = mag.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    sys = dyn.RCHSystem(field, dyn.invariant_kinetic_hamiltonian(1.0))
    traj = dyn.integrate(sys, np.array([0.4, -0.1, 0.3, 0.7, 0.2, 1.1]),
                         1.0, 1e-3, "midpoint")
    drift = float(np.max(np.abs(traj.momenta - traj.momenta[0])))
    level = CoAlgebraElement((0.4, -0.7), 1.0)

    # Restricted magnetic form on level-set tangents against the pullback of
    # the orbit form through the quotient projection. One block per
    # distribution: the level points of the rounds, then per round four
    # pairs (v, w) of normal triples on its tangent space.
    rounds = 8
    states = mag._level_points(level, field, 0, rng, rounds)
    normals = rng.normal(size=(rounds, 4, 2, 3))
    DJ = fd.jacobian(partial(mag.momentum_map, field=field), states,
                     fd.GRADIENT_STEP)
    tangent = np.linalg.svd(DJ)[2][:, None, 3:]
    v, w = _vecmat(normals[:, :, 0], tangent), _vecmat(normals[:, :, 1], tangent)
    at = states[:, None]
    proj = partial(mag.project_chart, field=field)
    pulled = orbit.orbit_form_on_chart_vectors(
        level.nu, fd.directional(proj, at, v, fd.GRADIENT_STEP),
        fd.directional(proj, at, w, fd.GRADIENT_STEP), MagneticCocycle.zero())
    pullback = mag.magnetic_form(at, v, w, field) - pulled
    red = reduce_system(sys, level)
    commutation = check_commutation(sys, red, samples=samples, seed=seed + 1)
    return [CheckRecord("noether.momentum_drift", traj.states.shape[0],
                        drift, 1e-8),
            CheckRecord("reduction.form_pullback", rounds, _worst(pullback),
                        1e-5),
            commutation]


def check_kaluza_klein(seed: int, samples: int = 20) -> list[CheckRecord]:
    coeff = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    field = mag.MagneticField.linear_potential(coeff)
    kk = kaluza_klein_system(field, m=1.0, mu=1.0)
    records = [kk_alpha_form_check(kk, samples=samples, seed=seed)]
    records.extend(kk_reduce_and_compare(
        kk, np.array([0.2, -0.1, 0.0, 1.0, 0.3, -0.2]), t_end=1.0, h=1e-3))
    return records


def check_mr_identity(seed: int, samples: int = 40) -> list[CheckRecord]:
    field = mag.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    level = CoAlgebraElement((0.4, -0.7), 1.0)
    sys = dyn.RCHSystem(field, dyn.invariant_kinetic_hamiltonian(1.0),
                        control_subset=dyn.ControlSubset(np.zeros(3), np.eye(3)))
    phi = DiffeoSpec.identity()
    records = [check_mr1(phi, field, field, samples=samples, seed=seed)]
    records.extend(check_mr2_equivariance(phi, level, level, field, field,
                                          samples=samples, seed=seed + 1))
    records.extend(check_mr3_matching(sys, sys, phi, samples=samples,
                                      seed=seed + 2))
    # The identity's lift, inverse and tangent are exact copies, so every
    # record must read rounding, far below the bounds a general lift gets.
    return [replace(r, threshold=1e-10) for r in records]


CHECKS: dict[str, Callable[[int, int], list[CheckRecord]]] = {
    "group_axioms": check_group_axioms,
    "representations": check_representations,
    "bracket": check_bracket,
    "orbit_form": check_orbit_form,
    "connection": check_connection,
    "dynamics": check_dynamics,
    "momentum_shift": check_momentum_shift,
    "noether_reduction": check_noether_reduction,
    "kaluza_klein": check_kaluza_klein,
    "mr_identity": check_mr_identity,
}

def run_named_checks(names, seed: int,
                     samples: int | None = None) -> list[CheckRecord]:
    """Run registry checks by name with per-check derived seeds.

    Seeds are offset by a stable hash of the check name, so adding or
    reordering checks never changes another check's sample stream. Without
    samples each check runs at its own signature's default; samples < 1 is a
    ValueError, since a check that draws nothing reports a vacuous pass.
    """
    if samples is not None:
        _require_samples(samples)
    records: list[CheckRecord] = []
    for name in names:
        if name not in CHECKS:
            raise ConfigError(
                f"unknown check {name!r}; available: "
                + ", ".join(sorted(CHECKS)))
        derived = (int(seed) + zlib.crc32(name.encode())) % (2 ** 32)
        if samples is None:
            records.extend(CHECKS[name](derived))
        else:
            records.extend(CHECKS[name](derived, samples))
    return records
