"""Group, algebra, and coadjoint operations against frozen values and FD oracles.

Kernels take flat (3,) arrays: g = (u1, u2, alpha), xi = (X1, X2, a),
p = (mu1, mu2, nu).
"""

import numpy as np
import pytest

from heisenmech import group as G

FD_STEP = 1e-5
FD_TOL = 1e-8
EXACT_TOL = 1e-12


def rand_triple(rng, scale=2.0):
    """A flat group, algebra or dual element, uniform on [-scale, scale]^3."""
    return rng.uniform(-scale, scale, 3)



def test_area_form_values():
    assert G.area_form((1, 0), (0, 1)) == 1.0
    assert G.area_form((1, 2), (3, 4)) == -2.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.normal(size=2)
        assert G.area_form(u, u) == 0.0


def test_multiply_frozen_and_identity():
    g = np.array([1.0, 0.0, 0.0])
    h = np.array([0.0, 1.0, 0.0])
    gh = G.multiply(g, h)
    assert np.allclose(gh[:2], [1, 1]) and gh[2] == 0.5
    e = G.identity()
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = rand_triple(rng)
        for prod in (G.multiply(e, g), G.multiply(g, e)):
            assert np.array_equal(prod, g)


def test_center_commutes():
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = np.array([0.0, 0.0, rng.normal()])
        g = rand_triple(rng)
        left = G.multiply(z, g)
        right = G.multiply(g, z)
        assert np.allclose(left, right, atol=0)
        assert np.allclose(left, [g[0], g[1], g[2] + z[2]])


def test_associativity_sweep():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b, c = (rand_triple(rng) for _ in range(3))
        lhs = G.multiply(G.multiply(a, b), c)
        rhs = G.multiply(a, G.multiply(b, c))
        assert np.max(np.abs(lhs - rhs)) <= EXACT_TOL


def test_inverse():
    g = np.array([2.0, 3.0, 5.0])
    gi = G.inverse(g)
    assert np.allclose(gi, [-2, -3, -5], atol=0)
    rng = np.random.default_rng(4)
    for _ in range(200):
        g = rand_triple(rng)
        assert np.max(np.abs(G.multiply(g, G.inverse(g)))) == 0.0


def test_to_matrix_frozen_and_homomorphism():
    m = G.to_matrix(np.array([1.0, 2.0, 0.0]))
    assert np.array_equal(m, [[1, 1, 1], [0, 1, 2], [0, 0, 1]])
    assert np.array_equal(G.to_matrix(G.identity()), np.eye(3))
    rng = np.random.default_rng(5)
    for _ in range(200):
        g, h = rand_triple(rng), rand_triple(rng)
        lhs = G.to_matrix(G.multiply(g, h))
        rhs = G.to_matrix(g) @ G.to_matrix(h)
        assert np.max(np.abs(lhs - rhs)) <= EXACT_TOL


def test_conjugate_frozen_and_center():
    c = G.conjugate(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert np.allclose(c, [0, 1, 1], atol=0)
    rng = np.random.default_rng(6)
    e = G.identity()
    for _ in range(100):
        h = rand_triple(rng)
        assert np.array_equal(G.conjugate(e, h), h)
        z = np.array([0.0, 0.0, rng.normal()])
        g = rand_triple(rng)
        assert np.array_equal(G.conjugate(g, z), z)


def test_conjugate_matches_product_formula():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g, h = rand_triple(rng), rand_triple(rng)
        direct = G.conjugate(g, h)
        via_product = G.multiply(G.multiply(g, h), G.inverse(g))
        assert np.max(np.abs(direct - via_product)) <= EXACT_TOL


def test_adjoint_frozen_value():
    out = G.adjoint(np.array([1.0, 2.0, 7.0]), np.array([3.0, 4.0, 0.0]))
    assert np.allclose(out, [3, 4, -2], atol=0)
    xi = np.array([0.3, -0.7, 1.1])
    assert np.array_equal(G.adjoint(G.identity(), xi), xi)


def test_adjoint_matches_fd_conjugation():
    rng = np.random.default_rng(8)
    for _ in range(100):
        g, xi = rand_triple(rng), rand_triple(rng)
        plus = G.conjugate(g, G.exp(FD_STEP * xi))
        minus = G.conjugate(g, G.exp(-FD_STEP * xi))
        fd = (plus - minus) / (2 * FD_STEP)
        assert np.max(np.abs(fd - G.adjoint(g, xi))) <= FD_TOL


def test_adjoint_is_action():
    rng = np.random.default_rng(9)
    for _ in range(200):
        g, h, xi = rand_triple(rng), rand_triple(rng), rand_triple(rng)
        lhs = G.adjoint(g, G.adjoint(h, xi))
        rhs = G.adjoint(G.multiply(g, h), xi)
        assert np.max(np.abs(lhs - rhs)) <= EXACT_TOL


def test_bracket_values_and_nilpotency():
    out = G.bracket(np.array([1.0, 0.0, 5.0]), np.array([0.0, 1.0, 9.0]))
    assert np.allclose(out, [0, 0, 1], atol=0)
    rng = np.random.default_rng(10)
    for _ in range(100):
        xi, eta, zeta = (rand_triple(rng) for _ in range(3))
        assert np.max(np.abs(G.bracket(xi, xi))) == 0.0
        anti = G.bracket(xi, eta) + G.bracket(eta, xi)
        assert np.max(np.abs(anti)) == 0.0
        double = G.bracket(G.bracket(xi, eta), zeta)
        assert np.max(np.abs(double)) == 0.0


def test_coadjoint_frozen_value_and_center_charge():
    out = G.coadjoint(np.array([1.0, 2.0, 0.0]), np.array([0.0, 0.0, 3.0]))
    assert np.allclose(out, [6, -3, 3], atol=0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = rand_triple(rng)
        p = np.append(rng.normal(size=2), 0.0)
        assert np.array_equal(G.coadjoint(g, p), p)


def test_coadjoint_pairing_with_adjoint_of_inverse():
    # <CoAd(g) p, xi> = <p, Ad(g^-1) xi>: the dual of the adjoint action of the
    # inverse element, which is what makes CoAd a left action.
    rng = np.random.default_rng(12)
    for _ in range(300):
        g, xi, p = rand_triple(rng), rand_triple(rng), rand_triple(rng)
        lhs = G.pairing(G.coadjoint(g, p), xi)
        rhs = G.pairing(p, G.adjoint(G.inverse(g), xi))
        assert abs(lhs - rhs) <= EXACT_TOL * 10


def test_coadjoint_is_action():
    rng = np.random.default_rng(13)
    for _ in range(200):
        g, h, p = rand_triple(rng), rand_triple(rng), rand_triple(rng)
        lhs = G.coadjoint(g, G.coadjoint(h, p))
        rhs = G.coadjoint(G.multiply(g, h), p)
        assert np.max(np.abs(lhs - rhs)) <= EXACT_TOL


def test_coad_star_frozen_value_and_pairing():
    out = G.coad_star(np.array([1.0, 0.0, 0.0]), np.array([5.0, -4.0, 2.0]))
    assert np.allclose(out, [0, 2, 0], atol=0)
    rng = np.random.default_rng(14)
    for _ in range(200):
        xi, eta, p = rand_triple(rng), rand_triple(rng), rand_triple(rng)
        lhs = G.pairing(G.coad_star(xi, p), eta)
        rhs = G.pairing(p, G.bracket(xi, eta))
        assert abs(lhs - rhs) <= EXACT_TOL
        zero_nu = np.append(p[:2], 0.0)
        assert np.max(np.abs(G.coad_star(xi, zero_nu))) == 0.0


def test_coad_star_matches_fd_coadjoint():
    # Generators of the left coadjoint action flow along exp(-t*xi), so the
    # forward difference of coadjoint(exp(t*xi), p) carries a minus sign.
    rng = np.random.default_rng(15)
    for _ in range(100):
        xi, p = rand_triple(rng), rand_triple(rng)

        def coad_along(t):
            return G.coadjoint(G.exp(-t * xi), p)

        fd = (coad_along(FD_STEP) - coad_along(-FD_STEP)) / (2 * FD_STEP)
        assert np.max(np.abs(fd - G.coad_star(xi, p))) <= FD_TOL


def test_exp_log_and_one_parameter_subgroup():
    assert np.allclose(G.exp(np.array([1.0, 2.0, 3.0])), [1, 2, 3], atol=0)
    assert np.max(np.abs(G.exp(np.zeros(3)))) == 0.0
    rng = np.random.default_rng(16)
    for _ in range(100):
        xi = rand_triple(rng)
        s, t = rng.normal(size=2)
        lhs = G.multiply(G.exp(s * xi), G.exp(t * xi))
        rhs = G.exp((s + t) * xi)
        assert np.max(np.abs(lhs - rhs)) <= EXACT_TOL
        back = G.log(G.exp(xi))
        assert np.array_equal(back, xi)


def test_tangent_right_translation_frozen_value():
    g = np.array([1.0, 0.0, 0.4])
    out = G.tangent_right_translation(g, np.array([0.0, 2.0, 3.0]), G.inverse(g))
    assert np.allclose(out, [0, 2, 4], atol=0)


def test_tangent_right_translation_is_fd_of_right_translation():
    rng = np.random.default_rng(17)
    for _ in range(100):
        g, h, v = rand_triple(rng), rand_triple(rng), rand_triple(rng)

        def right_translate(x):
            return G.multiply(x, h)

        fd = (right_translate(g + FD_STEP * v)
              - right_translate(g - FD_STEP * v)) / (2 * FD_STEP)
        out = G.tangent_right_translation(g, v, h)
        assert np.max(np.abs(fd - out)) <= FD_TOL


def test_vec2_shape_guard():
    with pytest.raises(ValueError):
        G.GroupElement((1, 2, 3), 0.0)



def _planar(element):
    """The stored planar array (u, X or mu) of a group, algebra or dual element."""
    (arr,) = (v for v in vars(element).values() if isinstance(v, np.ndarray))
    return arr


@pytest.mark.parametrize("cls", [G.GroupElement, G.AlgebraElement,
                                 G.CoAlgebraElement])
def test_element_constructors_copy_once_into_read_only_floats(cls):
    src = np.array([1.5, -2.0])
    el = cls(src, 0.25)
    src[:] = 9.0
    assert _planar(el).tolist() == [1.5, -2.0]
    assert not _planar(el).flags.writeable
    with pytest.raises(ValueError):
        _planar(el)[0] = 0.0
    frozen = _planar(el)
    assert _planar(cls(frozen, 0.0)) is not frozen
    from_ints = _planar(cls([1, 2], 3))
    assert from_ints.dtype == np.float64 and from_ints.tolist() == [1.0, 2.0]
    for bad in ((1, 2, 3), [[1, 2]], 1.0, np.zeros((2, 1)), ()):
        with pytest.raises(ValueError):
            cls(bad, 0.0)
