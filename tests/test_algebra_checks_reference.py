"""The stacked algebra checks against the per-sample loops they replaced.

check_group_axioms, check_representations, check_bracket, check_orbit_form
and check_connection evaluate each record as one pass of the library kernels
over all samples. The references below are per-sample loops, one scalar
kernel call per sample: every record must carry the same name, sample count,
bound and the same bits of max residual. The group and representation loops
draw from the generator row by row, in the order of the checks' blocks; the
bracket, orbit-form and connection loops make the checks' block draws (one
per distribution) and take sample i's values from row i of each block.
"""

import inspect

import numpy as np
import pytest

from heisenmech import checks
from heisenmech import connection as C
from heisenmech import fd
from heisenmech import group
from heisenmech import orbit
from heisenmech.orbit import MagneticCocycle
from heisenmech.reduction import CheckRecord


def _quadratic(Q):
    Qs = 0.5 * (Q + Q.T)
    return orbit.DualFunction(
        evaluate=lambda p: 0.5 * float(p @ Qs @ p),
        gradient=lambda p: Qs @ p,
        hessian=lambda p: Qs,
    )


def reference_group_axioms(seed, samples=1000):
    rng = np.random.default_rng(seed)
    assoc = inv = ident = homo = 0.0
    e = group.identity()
    for _ in range(samples):
        g, h, l = rng.uniform(-2, 2, (3, 3))
        lhs = group.multiply(group.multiply(g, h), l)
        rhs = group.multiply(g, group.multiply(h, l))
        assoc = max(assoc, float(np.max(np.abs(lhs - rhs))))
        inv = max(inv, float(np.max(np.abs(
            group.multiply(g, group.inverse(g))))))
        ident = max(ident, float(np.max(np.abs(group.multiply(g, e) - g))))
        homo = max(homo, float(np.max(np.abs(
            group.to_matrix(group.multiply(g, h))
            - group.to_matrix(g) @ group.to_matrix(h)))))
    return [CheckRecord("group.associativity", samples, assoc, 1e-12),
            CheckRecord("group.inverse", samples, inv, 1e-12),
            CheckRecord("group.identity", samples, ident, 1e-12),
            CheckRecord("group.matrix_homomorphism", samples, homo, 1e-12)]


def reference_representations(seed, samples=1000):
    rng = np.random.default_rng(seed)
    step = fd.TANGENT_STEP
    fd_rounds = min(samples, 200)
    adj = coad = 0.0
    for _ in range(fd_rounds):
        g, xi, p = rng.uniform(-2, 2, (3, 3))
        plus = group.conjugate(g, group.exp(step * xi))
        minus = group.conjugate(g, group.exp(-step * xi))
        slope = (plus - minus) / (2 * step)
        adj = max(adj, float(np.max(np.abs(slope - group.adjoint(g, xi)))))

        def coad_along(t):
            return group.coadjoint(group.exp(-t * xi), p)

        slope = (coad_along(step) - coad_along(-step)) / (2 * step)
        coad = max(coad, float(np.max(np.abs(slope - group.coad_star(xi, p)))))
    pairing_res = 0.0
    for _ in range(samples):
        g, xi, p = rng.uniform(-2, 2, (3, 3))
        lhs = group.pairing(group.coadjoint(g, p), xi)
        rhs = group.pairing(p, group.adjoint(group.inverse(g), xi))
        pairing_res = max(pairing_res, abs(lhs - rhs))
    return [CheckRecord("representation.adjoint_fd", fd_rounds, adj, 1e-8),
            CheckRecord("representation.coadjoint_fd", fd_rounds, coad, 1e-8),
            CheckRecord("representation.pairing", samples, pairing_res, 1e-12)]


def reference_bracket(seed, samples=200):
    rng = np.random.default_rng(seed)
    fs = [orbit.coordinate_function(i) for i in range(3)]
    fs.append(_quadratic(rng.normal(size=(3, 3))))
    fs.append(_quadratic(rng.normal(size=(3, 3))))
    points = rng.uniform(-2, 2, (samples, 3))
    axial = rng.normal(size=(samples, 3))
    picks = rng.integers(0, len(fs), (3, samples)).T
    antisym = leibniz = jacobi = nested = plain = 0.0
    zero = MagneticCocycle.zero()
    for p, (b1, b2, b3), pick in zip(points, axial, picks):
        B = MagneticCocycle(np.array([[0.0, b3, -b2], [-b3, 0.0, b1],
                                      [b2, -b1, 0.0]]))
        f, g, h = (fs[i] for i in pick)
        antisym = max(antisym, abs(orbit.magnetic_lie_poisson(f, g, p, B)
                                   + orbit.magnetic_lie_poisson(g, f, p, B)))
        lhs = orbit.magnetic_lie_poisson(orbit.product_function(f, g), h, p, B)
        rhs = (f.evaluate(p) * orbit.magnetic_lie_poisson(g, h, p, B)
               + g.evaluate(p) * orbit.magnetic_lie_poisson(f, h, p, B))
        leibniz = max(leibniz, abs(lhs - rhs))
        jacobi = max(jacobi, orbit.check_jacobi((f, g, h), p, B))
        fg = orbit.bracket_function(f, g, B)
        nested = max(nested, float(np.max(np.abs(
            fg.grad(p) - fd.gradient(fg.evaluate, p)))))
        df, dg = f.grad(p), g.grad(p)
        oracle = -p[2] * (df[0] * dg[1] - df[1] * dg[0])
        plain = max(plain, abs(orbit.magnetic_lie_poisson(f, g, p, zero) - oracle))
    return [CheckRecord("bracket.antisymmetry", samples, antisym, 1e-12),
            CheckRecord("bracket.leibniz", samples, leibniz, 1e-8),
            CheckRecord("bracket.jacobi", samples, jacobi, 1e-9),
            CheckRecord("bracket.nested_gradient", samples, nested, 1e-6),
            CheckRecord("bracket.plain_oracle", samples, plain, 1e-10)]


def reference_orbit_form(seed, samples=200):
    rng = np.random.default_rng(seed)
    B = MagneticCocycle.planar(0.4)
    zero = MagneticCocycle.zero()
    magnitudes = rng.uniform(0.3, 2.5, samples)
    signs = rng.integers(0, 2, samples)
    rows = rng.uniform(-2, 2, (samples, 10))
    value_res = det_res = classify_res = 0.0
    for magnitude, sign, row in zip(magnitudes, signs, rows):
        nu = magnitude * (-1.0, 1.0)[sign]
        rho, xi, eta, planar = row[:2], row[2:5], row[5:8], row[8:]
        form = orbit.orbit_symplectic_form(nu, xi, eta, B)
        f, g = orbit.linear_function(xi), orbit.linear_function(eta)
        bracket_value = orbit.magnetic_lie_poisson(f, g, np.append(rho, nu), B)
        value_res = max(value_res, abs(form - bracket_value))
        W = orbit.orbit_form_matrix(nu, zero)
        det_res = max(det_res, abs(np.linalg.det(W) - nu * nu))
        fixed = orbit.classify_orbit(np.append(planar, 0.0))
        moving = orbit.classify_orbit(np.append(rho, nu))
        if fixed != "point" or moving != "plane":
            classify_res = max(classify_res, 1.0)
    return [CheckRecord("orbit.form_matches_bracket", samples, value_res, 1e-10),
            CheckRecord("orbit.determinant", samples, det_res, 1e-10),
            CheckRecord("orbit.classification", samples, classify_res, 1e-15)]


def reference_connection(seed, samples=300):
    rng = np.random.default_rng(seed)
    triples = rng.uniform(-2, 2, (4, samples, 3))
    normals = rng.normal(size=(3, samples))
    invariance = pairing_res = cocycle_res = 0.0
    for i in range(samples):
        g, h, v, w = triples[:, i]
        nu, a, b = normals[:, i]
        gh = group.multiply(g, h)
        tv = group.tangent_right_translation(g, v, h)
        tw = group.tangent_right_translation(g, w, h)
        invariance = max(invariance, abs(
            C.right_invariant_metric(gh, tv, tw)
            - C.right_invariant_metric(g, v, w)))
        pv = C.right_trivialize(g, v)
        pw = C.right_trivialize(g, w)
        pairing_res = max(pairing_res, abs(
            C.right_invariant_metric(g, v, w) - float(pv @ pw)))
        cocycle_res = max(cocycle_res, abs(
            nu * C.curvature(g, v, w) - MagneticCocycle.planar(nu).pair(v, w)))
        cocycle_res = max(cocycle_res, abs(C.locked_inertia(g, a, b) - a * b))
    step = fd.TANGENT_STEP
    conn_at = C.mechanical_connection
    curvature_res = 0.0
    for _ in range(min(samples, 50)):
        g, v, w = rng.uniform(-2, 2, (3, 3))
        d_v_of_aw = (conn_at(g + step * v, w)
                     - conn_at(g - step * v, w)) / (2 * step)
        d_w_of_av = (conn_at(g + step * w, v)
                     - conn_at(g - step * w, v)) / (2 * step)
        curvature_res = max(curvature_res, abs(
            (d_v_of_aw - d_w_of_av) - C.curvature(g, v, w)))
    return [CheckRecord("connection.right_invariance", samples, invariance, 1e-12),
            CheckRecord("connection.trivialized_pairing", samples,
                        pairing_res, 1e-12),
            CheckRecord("connection.curvature_fd", min(samples, 50),
                        curvature_res, 1e-6),
            CheckRecord("connection.cocycle_pipeline", samples,
                        cocycle_res, 1e-12)]


REFERENCES = {
    "group_axioms": reference_group_axioms,
    "representations": reference_representations,
    "bracket": reference_bracket,
    "orbit_form": reference_orbit_form,
    "connection": reference_connection,
}


def as_tuples(records):
    return [(r.name, r.samples, r.max_residual.hex(), r.threshold)
            for r in records]


def default_samples(name):
    return inspect.signature(checks.CHECKS[name]).parameters["samples"].default


# Each check at its default sample count and at 1000 (one case where they agree).
CASES = sorted({(name, n) for name in REFERENCES
                for n in (default_samples(name), 1000)})


@pytest.mark.parametrize("name, samples", CASES)
def test_stacked_records_are_bitwise_the_per_sample_loops(name, samples):
    check, reference = checks.CHECKS[name], REFERENCES[name]
    for seed in (0, 1, 2, 3, 4, 42):
        assert (as_tuples(check(seed, samples))
                == as_tuples(reference(seed, samples))), (name, seed, samples)


def test_reference_defaults_are_the_checks_defaults():
    for name, reference in REFERENCES.items():
        assert (inspect.signature(reference).parameters["samples"].default
                == default_samples(name)), name


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_stacked_records_match_at_one_and_few_samples(name):
    for samples in (1, 2, 7):
        assert (as_tuples(checks.CHECKS[name](11, samples))
                == as_tuples(REFERENCES[name](11, samples))), (name, samples)


class CountingGenerator:
    """A numpy Generator that appends the name of each method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_generator_calls_do_not_grow_with_samples(name, monkeypatch):
    # Each check draws every distribution as one block, so it makes the same
    # generator calls whatever the sample count.
    make = np.random.default_rng
    calls = {}
    for samples in (10, 1000):
        calls[samples] = []
        monkeypatch.setattr(checks.np.random, "default_rng",
                            lambda seed, out=calls[samples]:
                            CountingGenerator(make(seed), out))
        checks.CHECKS[name](7, samples)
    assert calls[10] and calls[10] == calls[1000], calls
