"""Metric, connection, and curvature tests, including the FD exterior-derivative oracle.

Base points and tangents are flat (3,) arrays; nu_component takes the
GroupElement and AlgebraElement edge types.
"""

import numpy as np

from heisenmech import connection as C
from heisenmech import orbit as O
from heisenmech.group import AlgebraElement, GroupElement, area_form, multiply, tangent_right_translation


def rand_triple(rng, scale=2.0):
    """A flat group element or chart tangent, uniform on [-scale, scale]^3."""
    return rng.uniform(-scale, scale, 3)


def vertical(a):
    """The center direction ((0, 0), a)."""
    return np.array([0.0, 0.0, a])


def test_metric_frozen_value_and_identity_chart():
    g = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    assert C.right_invariant_metric(g, v, v) == 1.25
    rng = np.random.default_rng(40)
    e = np.zeros(3)
    for _ in range(50):
        v, w = rand_triple(rng), rand_triple(rng)
        expected = float(v[:2] @ w[:2] + v[2] * w[2])
        assert abs(C.right_invariant_metric(e, v, w) - expected) <= 1e-12


def test_metric_symmetry_bilinearity_definiteness():
    rng = np.random.default_rng(41)
    for _ in range(200):
        g = rand_triple(rng)
        v, w, z = rand_triple(rng), rand_triple(rng), rand_triple(rng)
        s, t = rng.normal(size=2)
        sym = C.right_invariant_metric(g, v, w) - C.right_invariant_metric(g, w, v)
        assert abs(sym) <= 1e-12
        combo = s * v + t * w
        lin = (C.right_invariant_metric(g, combo, z)
               - s * C.right_invariant_metric(g, v, z)
               - t * C.right_invariant_metric(g, w, z))
        assert abs(lin) <= 1e-12
        if np.max(np.abs(v)) > 1e-8:
            assert C.right_invariant_metric(g, v, v) > 0.0


def test_metric_right_invariance_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        g, h = rand_triple(rng), rand_triple(rng)
        v, w = rand_triple(rng), rand_triple(rng)
        gh = multiply(g, h)
        tv = tangent_right_translation(g, v, h)
        tw = tangent_right_translation(g, w, h)
        lhs = C.right_invariant_metric(g, v, w)
        rhs = C.right_invariant_metric(gh, tv, tw)
        assert abs(lhs - rhs) <= 1e-12


def test_metric_equals_euclidean_product_of_trivializations():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        g = rand_triple(rng)
        v, w = rand_triple(rng), rand_triple(rng)
        tv = C.right_trivialize(g, v)
        tw = C.right_trivialize(g, w)
        assert abs(C.right_invariant_metric(g, v, w) - tv @ tw) <= 1e-12


def test_locked_inertia():
    rng = np.random.default_rng(44)
    assert C.locked_inertia(np.array([9.0, 9.0, 9.0]), 2.0, 3.0) == 6.0
    assert C.locked_inertia(np.array([1.0, 1.0, 1.0]), 0.0, 5.0) == 0.0
    for _ in range(100):
        g = rand_triple(rng)
        a, b = rng.normal(size=2)
        via_metric = C.right_invariant_metric(g, vertical(a), vertical(b))
        assert abs(C.locked_inertia(g, a, b) - via_metric) <= 1e-12


def test_center_momentum_frozen_and_metric_identity():
    g = np.array([1.0, 0.0, 0.0])
    assert C.center_momentum_map(g, np.array([0.0, 2.0, 3.0]), 1.0) == 4.0
    rng = np.random.default_rng(45)
    for _ in range(1000):
        g, v = rand_triple(rng), rand_triple(rng)
        b = rng.normal()
        via_metric = C.right_invariant_metric(g, v, vertical(b))
        assert abs(C.center_momentum_map(g, v, b) - via_metric) <= 1e-12
        vert = vertical(rng.normal())
        assert abs(C.center_momentum_map(g, vert, b) - vert[2] * b) <= 1e-12


def test_connection_axiom_and_frozen_value():
    g = np.array([1.0, 0.0, -0.3])
    assert C.mechanical_connection(g, np.array([0.0, 2.0, 3.0])) == 4.0
    rng = np.random.default_rng(46)
    for _ in range(200):
        g = rand_triple(rng)
        a = rng.normal()
        assert C.mechanical_connection(g, vertical(a)) == a


def test_connection_invariant_under_right_center_action():
    rng = np.random.default_rng(47)
    for _ in range(200):
        g, v = rand_triple(rng), rand_triple(rng)
        t = rng.normal()
        z = vertical(t)
        moved = tangent_right_translation(g, v, z)
        assert abs(C.mechanical_connection(multiply(g, z), moved)
                   - C.mechanical_connection(g, v)) <= 1e-12


def test_curvature_frozen_and_g_independence():
    g = np.array([0.3, 0.7, 1.1])
    v = np.array([1.0, 0.0, 5.0])
    w = np.array([0.0, 1.0, -2.0])
    assert C.curvature(g, v, w) == 1.0
    assert C.curvature(g, v, v) == 0.0
    rng = np.random.default_rng(48)
    for _ in range(100):
        g1, g2 = rand_triple(rng), rand_triple(rng)
        v, w = rand_triple(rng), rand_triple(rng)
        assert C.curvature(g1, v, w) == C.curvature(g2, v, w)
        assert C.curvature(g1, v, w) == area_form(v[:2], w[:2])


def test_curvature_matches_fd_exterior_derivative():
    # dA(V, W) = V[A(W)] - W[A(V)] for constant-coefficient extensions of V, W
    # in the global chart (the commutator term vanishes).
    rng = np.random.default_rng(49)
    step = 1e-5
    for _ in range(200):
        g, v, w = rand_triple(rng), rand_triple(rng), rand_triple(rng)

        conn_at = C.mechanical_connection
        d_v_of_aw = (conn_at(g + step * v, w) - conn_at(g - step * v, w)) / (2 * step)
        d_w_of_av = (conn_at(g + step * w, v) - conn_at(g - step * w, v)) / (2 * step)
        fd = d_v_of_aw - d_w_of_av
        assert abs(fd - C.curvature(g, v, w)) <= 1e-6


def test_nu_component_scaling_and_closedness():
    g = GroupElement((0, 0), 0.0)
    v = AlgebraElement((1, 0), 0.0)
    w = AlgebraElement((0, 1), 0.0)
    assert C.nu_component(3.0, g, v, w) == 3.0
    assert C.nu_component(0.0, g, v, w) == 0.0

    # Constant-coefficient two-form: all partial derivatives of its matrix
    # vanish, so the FD cyclic closedness residual is zero.
    from heisenmech import fd
    nu = 1.7

    def form_matrix(x):
        m = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                ei, ej = np.zeros(3), np.zeros(3)
                ei[i], ej[j] = 1.0, 1.0
                m[i, j] = C.nu_component(nu, GroupElement(x[:2], x[2]),
                                         AlgebraElement(ei[:2], ei[2]),
                                         AlgebraElement(ej[:2], ej[2]))
        return m

    rng = np.random.default_rng(50)
    for _ in range(5):
        q = rng.normal(size=3)
        assert fd.two_form_closedness(form_matrix, q) <= 1e-6


def test_curvature_pipeline_matches_area_cocycle():
    # nu = 1 turns the connection curvature into exactly the planar-block
    # area-form cocycle used by the orbit machinery.
    cocycle = O.MagneticCocycle.planar(1.0)
    rng = np.random.default_rng(51)
    for _ in range(200):
        g = GroupElement(rng.uniform(-2, 2, 2), rng.uniform(-2, 2))
        v, w = (AlgebraElement(rng.uniform(-2, 2, 2), rng.uniform(-2, 2))
                for _ in range(2))
        assert abs(C.nu_component(1.0, g, v, w)
                   - cocycle.pair(v.as_array(), w.as_array())) <= 1e-12
