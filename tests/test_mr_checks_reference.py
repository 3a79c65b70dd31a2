"""The stacked MR-1/2/3 records and form-pullback records against the
per-sample loops they replaced.

check_mr1, check_mr2_equivariance, check_mr3_matching and the
reduction.form_pullback and shift.form_pullback records evaluate their
samples as one array pass each, through DiffeoSpec callables that take
stacks. The references below are the loops they replaced (one single-state
call per sample). They draw from the generator as the checks do: check_mr1
and the reduction.form_pullback record draw one block per distribution, and
the loops take sample i's values from row i of each block. MR-3's reference
transports sys2's force through the lift with the declared tangent
check_mr3_matching takes, lift_tangent o force.push o (lift_tangent)^-1,
one sample and one unit vector at a time. Every record must carry the same
name, sample count, bound and the same bits of max residual.
"""

import collections
import dataclasses

import numpy as np
import pytest

from heisenmech import checks
from heisenmech import dynamics as D
from heisenmech import fd
from heisenmech import magnetic as M
from heisenmech import orbit
from heisenmech import reduction as R
from heisenmech.cli import _body_scaling_map
from heisenmech.group import CoAlgebraElement, GroupElement, coadjoint, inverse
from heisenmech.reduction import CheckRecord

LEVEL = CoAlgebraElement((0.4, -0.7), 1.0)
INVARIANT = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
ZERO = M.MagneticField.zero()


def reference_mr1(phi, field1, field2, samples=100, seed=5501):
    rng = np.random.default_rng(seed)
    states = rng.uniform(-2, 2, (samples, 6))
    tangents = rng.normal(size=(samples, 12))
    residuals = []
    for x2, vw in zip(states, tangents):
        x1 = phi.lift(x2)
        v, w = vw[:6], vw[6:]
        pv, pw = phi.lift_tangent(x2, v), phi.lift_tangent(x2, w)
        lhs = M.magnetic_form(x1, pv, pw, field1)
        rhs = M.magnetic_form(x2, v, w, field2)
        residuals.append(lhs - rhs)
    return CheckRecord("mr1.symplectic", samples, R._worst(residuals), 1e-5)


def reference_mr2(phi, level1, level2, field1, field2, samples=50, seed=5711):
    rng = np.random.default_rng(seed)
    p1, p2 = level1.as_array(), level2.as_array()
    level_gaps = []
    for _ in range(samples):
        x2 = M.sample_level_point(level2, field2, 0, rng)
        x1 = phi.lift(x2)
        level_gaps.append(R._worst(M.momentum_map(x1, field1) - p1))

    candidates = [np.array([0.0, 0.0, t]) for t in rng.uniform(-3, 3, 8)]
    for _ in range(12):
        g = rng.uniform(-2, 2, 3)
        if np.max(np.abs(coadjoint(g, p2) - p2)) <= 1e-12:
            candidates.append(g)

    iso_gaps = []
    for _ in range(samples):
        s2 = rng.uniform(-2, 2, 6)
        for g in candidates:
            lhs = phi.lift(M.left_translate(g, s2))
            rhs = M.left_translate(g, phi.lift(s2))
            iso_gaps.append(R._worst(lhs - rhs))
    return [CheckRecord("mr2.level", samples, R._worst(level_gaps), 1e-7),
            CheckRecord("mr2.isotropy", samples, R._worst(iso_gaps), 1e-7)]


def reference_mr3(sys1, sys2, phi, samples=40, seed=5903):
    def extend_lift(state):
        return np.concatenate([phi.lift(state[:6]), state[6:]])

    def extend_push(state, vector):
        return np.concatenate([phi.lift_tangent(state[:6], vector[:6]),
                               vector[6:]])

    def down(state):
        return np.concatenate([phi.lift_inverse(state[:6]), state[6:]])

    def transported(s):
        return extend_lift(sys2.force.image(down(s)))

    def transported_push(s, v):
        # The declared tangent of lift o force o lift^-1: the inverse lift's
        # tangent solves against lift_tangent's columns at the preimage,
        # each column one call on a unit vector.
        x = down(s)
        J = np.column_stack([phi.lift_tangent(x[:6], e) for e in np.eye(6)])
        w = np.concatenate([np.linalg.solve(J, v[:6]), v[6:]])
        return extend_push(sys2.force.image(x), sys2.force.push(x, w))

    k = sys1.k
    rng = np.random.default_rng(seed)
    base, fiber = D._base_fiber_indices(k)
    uncontrolled = dataclasses.replace(sys1, control=None)
    vertical, horizontal = [], []
    for _ in range(samples):
        x2 = rng.uniform(-2, 2, 6 + 2 * k)
        x1 = extend_lift(x2)
        residual = D.rch_vector_field(uncontrolled, x1) - extend_push(
            x2, D.hamiltonian_vector_field(sys2, x2))
        if sys2.force is not None:
            residual = residual - D.vertical_lift(
                D.FiberMap(transported, transported_push), sys1, x1)
        horizontal.append(R._worst(residual[base]))
        vertical.append(sys1.control_subset.distance(residual[fiber]))
    return [CheckRecord("mr3.vertical", samples, R._worst(vertical), 1e-6),
            CheckRecord("mr3.horizontal", samples, R._worst(horizontal), 1e-8)]


def reference_noether_pullback(seed):
    rng = np.random.default_rng(seed)
    field = M.MagneticField.invariant_potential((0.3, -0.2, 0.8), 1.0)
    level = CoAlgebraElement((0.4, -0.7), 1.0)
    proj = lambda s: M.project_chart(s, field)
    zero = orbit.MagneticCocycle.zero()
    pullback = []
    rounds = 8
    states = [M.sample_level_point(level, field, 0, rng) for _ in range(rounds)]
    normals = rng.normal(size=(rounds, 4, 2, 3))
    for state, pairs in zip(states, normals):
        DJ = fd.jacobian(lambda s: M.momentum_map(s, field), state,
                         fd.GRADIENT_STEP)
        tangent = np.linalg.svd(DJ)[2][3:]
        for a, b in pairs:
            v = a @ tangent
            w = b @ tangent
            restricted = M.magnetic_form(state, v, w, field)
            dv = fd.directional(proj, state, v, fd.GRADIENT_STEP)
            dw = fd.directional(proj, state, w, fd.GRADIENT_STEP)
            pulled = orbit.orbit_form_on_chart_vectors(level.nu, dv, dw, zero)
            pullback.append(restricted - pulled)
    return CheckRecord("reduction.form_pullback", rounds, R._worst(pullback),
                       1e-5)


def reference_shift_pullback(seed, samples):
    rng = np.random.default_rng(seed)
    field = M.MagneticField.invariant_potential((0.4, -0.2, 0.8), 1.3)
    rng.normal(size=(samples, 6))  # the identity record's states
    zero = M.MagneticField.zero()

    def shift_chart(s):
        return M.momentum_shift(s, field)

    pullback_res = []
    for _ in range(min(samples, 40)):
        state = rng.normal(size=6)
        v, w = rng.normal(size=6), rng.normal(size=6)
        tv = fd.directional(shift_chart, state, v)
        tw = fd.directional(shift_chart, state, w)
        canonical = M.magnetic_form(shift_chart(state), tv, tw, zero)
        twisted = M.magnetic_form(state, v, w, field)
        pullback_res.append(canonical - twisted)
    return CheckRecord("shift.form_pullback", min(samples, 40),
                       R._worst(pullback_res), 1e-6)


def as_tuples(records):
    if isinstance(records, CheckRecord):
        records = [records]
    return [(r.name, r.samples, r.max_residual.hex(), r.threshold)
            for r in records]


def shear_lift(s):
    out = np.asarray(s, dtype=float).copy()
    out[..., 3] += out[..., 1]
    return out


def shear_inverse(s):
    out = np.asarray(s, dtype=float).copy()
    out[..., 3] -= out[..., 1]
    return out


def copy(x):
    return np.asarray(x, dtype=float).copy()


def diffeos(seed):
    """(name, DiffeoSpec, translation or None): the identity, translations
    at scales 1e-3 to 30, and the shear."""
    rng = np.random.default_rng(seed)
    yield "identity", R.DiffeoSpec.identity(), None
    for scale in (1e-3, 1.0, 30.0):
        u = scale * rng.uniform(-1, 1, 3)
        yield (f"translation{scale:g}",
               R.DiffeoSpec.group_translation(GroupElement(u[:2], u[2])), u)
    yield "shear", R.DiffeoSpec(copy, copy, shear_lift, shear_inverse,
                                lambda s, v: shear_lift(v),
                                verify_lift=False), None


def undeclared_body_scaling(factor):
    """The body-scaling force without its declarations: mapped row by row."""
    return D.FiberMap(apply=_body_scaling_map(factor, 0.8).apply)


def particle(k, force=None, subset=True):
    zero_subset = D.ControlSubset(np.zeros(3 + k), np.zeros((0, 3 + k)))
    return D.RCHSystem(INVARIANT, D.invariant_kinetic_hamiltonian(1.3),
                       force=force, k=k,
                       control_subset=zero_subset if subset else None)


def test_stacked_mr_and_pullback_records_are_the_per_sample_loops():
    for seed in (3, 11):
        for name, phi, u in diffeos(seed):
            for field1, field2 in ((INVARIANT, INVARIANT), (ZERO, ZERO),
                                   (ZERO, INVARIANT)):
                assert (as_tuples(R.check_mr1(phi, field1, field2, 17, seed))
                        == as_tuples(reference_mr1(phi, field1, field2, 17,
                                                   seed))), (name, seed)
            level1 = LEVEL
            if u is not None:
                p1 = coadjoint(inverse(u), LEVEL.as_array())
                level1 = CoAlgebraElement(p1[:2], p1[2])
            mismatch = CoAlgebraElement(level1.mu + [0.1, 0.0], level1.nu)
            point = CoAlgebraElement((0.0, 0.0), 0.0)
            for lev1, lev2, field in ((level1, LEVEL, INVARIANT),
                                      (mismatch, LEVEL, INVARIANT),
                                      (point, point, ZERO)):
                assert (as_tuples(R.check_mr2_equivariance(
                            phi, lev1, lev2, field, field, 9, seed))
                        == as_tuples(reference_mr2(phi, lev1, lev2, field,
                                                   field, 9, seed))), (name, seed)
            for k in (0, 1):
                for force1, force2 in (
                        (None, None),
                        (_body_scaling_map(0.7, 0.8), _body_scaling_map(0.7, 0.8)),
                        (_body_scaling_map(0.7, 0.8), None),
                        (undeclared_body_scaling(0.7),
                         undeclared_body_scaling(0.4))):
                    sys1 = particle(k, force1)
                    sys2 = particle(k, force2, subset=False)
                    assert (as_tuples(R.check_mr3_matching(sys1, sys2, phi, 7,
                                                           seed))
                            == as_tuples(reference_mr3(sys1, sys2, phi, 7,
                                                       seed))), (name, seed, k)
    for seed in (5, 42, 1234567):
        assert (as_tuples(checks.check_noether_reduction(seed, 10)[1])
                == as_tuples(reference_noether_pullback(seed)))
        for samples in (3, 60):
            assert (as_tuples(checks.check_momentum_shift(seed, samples)[1])
                    == as_tuples(reference_shift_pullback(seed, samples)))


def test_mr_single_state_calls_do_not_grow_with_samples(monkeypatch):
    # Like the reduce path's call counts: the MR checkers and the Noether
    # check call the public single-state functions a fixed number of times,
    # whatever the sample count.
    counts = collections.Counter()
    for name in ("left_translate", "momentum_map", "magnetic_form"):
        original = getattr(M, name)

        def counting(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for owner in (M, D, R):
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, counting)

    phi = R.DiffeoSpec.group_translation(GroupElement((0.6, -0.3), 0.5))
    sys = particle(0, _body_scaling_map(0.7, 0.8))

    def calls(samples):
        counts.clear()
        R.check_mr1(phi, INVARIANT, INVARIANT, samples)
        R.check_mr2_equivariance(phi, LEVEL, LEVEL, INVARIANT, INVARIANT,
                                 samples)
        R.check_mr3_matching(sys, sys, phi, samples)
        checks.check_noether_reduction(7, samples)
        return dict(counts)

    assert calls(40) == calls(400)
    # The counter sees per-sample calls: the reference loop makes them (the
    # translation's lift and its tangent go through left_translate).
    counts.clear()
    reference_mr1(phi, INVARIANT, INVARIANT, 5)
    assert counts == {"magnetic_form": 10, "left_translate": 25}


@pytest.mark.parametrize("one_point", ["base", "base_inverse", "lift",
                                       "lift_inverse", "lift_tangent"])
def test_a_one_point_callable_is_refused_at_construction(one_point):
    # On a stack, "out[3] += out[1]" adds row 1 into row 3, and a one-point
    # map of q builds rows out of its first three points; construction
    # compares each callable's stacked call with its calls row by row.
    def one_point_shear(s, *_):
        out = np.asarray(s, dtype=float).copy()
        out[3] += out[1]
        return out

    def one_point_copy(q):
        return np.array([q[0], q[1], q[2]], dtype=float)

    maps = dict(base=copy, base_inverse=copy, lift=shear_lift,
                lift_inverse=shear_inverse, lift_tangent=lambda s, v: copy(v))
    maps[one_point] = (one_point_copy if one_point.startswith("base")
                       else one_point_shear)
    with pytest.raises(ValueError,
                       match=f"DiffeoSpec.{one_point} must take a stack"):
        R.DiffeoSpec(**maps, verify_lift=False)
    # The same maps written on the last axis construct.
    R.DiffeoSpec(copy, copy, shear_lift, shear_inverse,
                 lambda s, v: copy(v), verify_lift=False)
