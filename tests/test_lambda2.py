"""Bivector algebra, Hodge splitting, and the double cover of SO(4)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfpic import lambda2 as l2

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
vec4 = st.lists(finite, min_size=4, max_size=4).map(np.array)
vec6 = st.lists(finite, min_size=6, max_size=6).map(np.array)


def _unit_quat(rng):
    return l2.haar_quaternion(rng)


# -- wedge and inner ---------------------------------------------------------


@given(vec4, vec4, vec4, vec4)
def test_wedge_inner_is_the_gram_determinant(u, v, x, y):
    lhs = l2.wedge(u, v) @ l2.wedge(x, y)
    rhs = (u @ x) * (v @ y) - (u @ y) * (v @ x)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


@given(vec4, vec4)
def test_wedge_is_antisymmetric(u, v):
    np.testing.assert_allclose(l2.wedge(u, v), -l2.wedge(v, u), atol=1e-12)


def test_wedge_of_basis_vectors_hits_basis_bivectors():
    e = np.eye(4)
    for a, (i, j) in enumerate(zip(l2.PAIR_I, l2.PAIR_J)):
        w = l2.wedge(e[i], e[j])
        expect = np.zeros(6)
        expect[a] = 1.0
        np.testing.assert_array_equal(w, expect)


def test_wedge_rejects_wrong_shape():
    with pytest.raises(ValueError, match="4-vector"):
        l2.wedge(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="non-finite"):
        l2.wedge(np.array([np.nan, 0, 0, 0]), np.zeros(4))


# -- Hodge star and the splitting --------------------------------------------


def test_star_is_a_symmetric_involution_with_split_signature():
    s = l2.HODGE_STAR
    np.testing.assert_array_equal(s, s.T)
    np.testing.assert_allclose(s @ s, np.eye(6), atol=0)
    eig = np.sort(np.linalg.eigvalsh(s))
    np.testing.assert_allclose(eig, [-1, -1, -1, 1, 1, 1], atol=1e-14)


def test_projectors_split_the_identity_orthogonally():
    np.testing.assert_allclose(l2.P_PLUS + l2.P_MINUS, np.eye(6), atol=0)
    np.testing.assert_allclose(l2.P_PLUS @ l2.P_PLUS, l2.P_PLUS, atol=1e-15)
    np.testing.assert_allclose(l2.P_PLUS @ l2.P_MINUS, np.zeros((6, 6)), atol=1e-15)


def _basis(sign):
    # the three orthonormal basis bivectors of the +-1 Hodge eigenspace
    return (l2.PLUS_BASIS if sign == "+" else l2.MINUS_BASIS).T


@pytest.mark.parametrize("sign,val", [("+", 1.0), ("-", -1.0)])
def test_selfdual_bases_are_orthonormal_star_eigenvectors(sign, val):
    cols = _basis(sign).T
    np.testing.assert_allclose(cols.T @ cols, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(l2.HODGE_STAR @ cols, val * cols, atol=1e-15)


def test_star_of_a_decomposable_is_the_complementary_plane():
    e = np.eye(4)
    np.testing.assert_allclose(
        l2.HODGE_STAR @ l2.wedge(e[0], e[1]), l2.wedge(e[2], e[3]), atol=0
    )
    np.testing.assert_allclose(
        l2.HODGE_STAR @ l2.wedge(e[0], e[2]), -l2.wedge(e[1], e[3]), atol=0
    )


# -- so(4) and the bracket ----------------------------------------------------


@given(vec6)
def test_to_so4_roundtrip(b):
    m = l2.to_so4(b)
    np.testing.assert_allclose(m, -m.T, atol=0)
    np.testing.assert_allclose(l2.from_so4(m), b, atol=0)


def test_from_so4_rejects_non_skew():
    with pytest.raises(ValueError, match="skew"):
        l2.from_so4(np.eye(4))


def test_to_so4_action_matches_the_projection_formula():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y, u = rng.standard_normal((3, 4))
        got = l2.to_so4(l2.wedge(x, y)) @ u
        want = (x @ u) * y - (y @ u) * x
        np.testing.assert_allclose(got, want, atol=1e-12)


@given(vec6, vec6)
def test_bracket_is_antisymmetric(a, b):
    np.testing.assert_allclose(l2.bracket(a, b), -l2.bracket(b, a), atol=1e-9)


@given(vec6, vec6, vec6)
def test_bracket_satisfies_jacobi(a, b, c):
    total = (
        l2.bracket(a, l2.bracket(b, c))
        + l2.bracket(b, l2.bracket(c, a))
        + l2.bracket(c, l2.bracket(a, b))
    )
    assert np.abs(total).max() <= 1e-8


def test_bracket_of_overlapping_planes():
    e = np.eye(6)
    np.testing.assert_allclose(l2.bracket(e[0], e[1]), e[3], atol=0)  # [e12,e13]=e23


def test_bracket_of_disjoint_planes_vanishes():
    e = np.eye(6)
    np.testing.assert_allclose(l2.bracket(e[0], e[5]), np.zeros(6), atol=0)


@pytest.mark.parametrize("sign,factor", [("+", np.sqrt(2.0)), ("-", -np.sqrt(2.0))])
def test_selfdual_structure_constants(sign, factor):
    # The two factors carry opposite orientations: [w1, w2] = +-sqrt2 w3.
    w = _basis(sign)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.testing.assert_allclose(l2.bracket(w[i], w[j]), factor * w[k], atol=1e-15)


def test_mixed_selfdual_brackets_vanish():
    wp = _basis("+")
    wm = _basis("-")
    worst = max(np.abs(l2.bracket(a, b)).max() for a in wp for b in wm)
    assert worst == 0.0


def test_stacked_bracket_is_each_pair_alone_bit_for_bit(rng):
    a, b = rng.standard_normal((2, 7, 6))
    got = l2._bracket(a[:, None], b[None])
    assert got.shape == (7, 7, 6)
    for i in range(7):
        np.testing.assert_array_equal(l2._so4(a)[i], l2.to_so4(a[i]))
        for j in range(7):
            np.testing.assert_array_equal(got[i, j], l2.bracket(a[i], b[j]))


def test_bracket_validates_each_operand_by_name():
    with pytest.raises(ValueError, match="a must be a 6-vector"):
        l2.bracket(np.zeros(4), np.zeros(6))
    with pytest.raises(ValueError, match="b has non-finite entries"):
        l2.bracket(np.zeros(6), np.full(6, np.inf))


def test_ad_tensor_matches_bracket():
    eye = np.eye(6)
    for a in range(6):
        for j in range(6):
            np.testing.assert_array_equal(l2.AD[a][:, j], l2.bracket(eye[a], eye[j]))
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(6)
        for a in range(6):
            np.testing.assert_allclose(l2.AD[a] @ x, l2.bracket(eye[a], x), atol=1e-14)


# -- induced maps -------------------------------------------------------------


def test_induced_map_of_identity():
    np.testing.assert_array_equal(l2.induced_map(np.eye(4)), np.eye(6))


def test_induced_map_is_a_homomorphism(rng):
    for _ in range(10):
        g1 = l2.quat_to_rot(_unit_quat(rng), _unit_quat(rng))
        g2 = l2.quat_to_rot(_unit_quat(rng), _unit_quat(rng))
        np.testing.assert_allclose(
            l2.induced_map(g1 @ g2), l2.induced_map(g1) @ l2.induced_map(g2), atol=1e-13
        )


def test_induced_map_is_orthogonal_and_commutes_with_star(rng):
    for _ in range(10):
        m = l2.induced_map(l2.quat_to_rot(_unit_quat(rng), _unit_quat(rng)))
        np.testing.assert_allclose(m.T @ m, np.eye(6), atol=1e-13)
        np.testing.assert_allclose(m @ l2.HODGE_STAR, l2.HODGE_STAR @ m, atol=1e-13)


def test_reflection_swaps_the_hodge_eigenspaces():
    m = l2.induced_map(np.diag([1.0, 1.0, 1.0, -1.0]))
    np.testing.assert_allclose(m @ l2.HODGE_STAR @ m.T, -l2.HODGE_STAR, atol=0)
    np.testing.assert_allclose(m @ l2.P_PLUS @ m.T, l2.P_MINUS, atol=0)


def test_reflection_negates_exactly_the_planes_through_e4():
    m = l2.induced_map(np.diag([1.0, 1.0, 1.0, -1.0]))
    np.testing.assert_allclose(m, np.diag([1.0, 1.0, -1.0, 1.0, -1.0, -1.0]), atol=0)


def test_induced_map_intertwines_wedge(rng):
    for _ in range(10):
        g = l2.quat_to_rot(_unit_quat(rng), _unit_quat(rng))
        u, v = rng.standard_normal((2, 4))
        np.testing.assert_allclose(
            l2.induced_map(g) @ l2.wedge(u, v), l2.wedge(g @ u, g @ v), atol=1e-12
        )


def test_induced_map_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        l2.induced_map(2.0 * np.eye(4))


def test_batch_induced_map_matches_single(rng):
    # column e_i^e_j of each item is the wedge of the images g e_i, g e_j
    gs = np.stack([l2.quat_to_rot(_unit_quat(rng), _unit_quat(rng)) for _ in range(5)])
    batch = l2._induced_map_batch(gs)
    e = np.eye(4)
    for k in range(5):
        for col, (i, j) in enumerate(zip(l2.PAIR_I, l2.PAIR_J)):
            np.testing.assert_array_equal(batch[k][:, col], l2.wedge(gs[k] @ e[i], gs[k] @ e[j]))


def test_wedge_kernels_act_item_by_item_on_stacks(rng):
    u, v = rng.standard_normal((2, 2, 3, 4))
    a, b = rng.standard_normal((2, 2, 3, 4, 4))
    w = l2._wedge(u, v)
    maps = l2._wedge_maps(a, b)
    assert w.shape == (2, 3, 6) and maps.shape == (2, 3, 6, 6)
    for s in np.ndindex(2, 3):
        np.testing.assert_array_equal(w[s], l2._wedge(u[s], v[s]))
        np.testing.assert_array_equal(maps[s], l2._wedge_maps(a[s], b[s]))


# -- quaternions --------------------------------------------------------------


def test_quat_mul_unit_and_inverse(rng):
    q = _unit_quat(rng)
    np.testing.assert_allclose(l2.quat_mul(l2.QUAT_ONE, q), q, atol=0)
    np.testing.assert_allclose(l2.quat_mul(q, l2.quat_conj(q)), l2.QUAT_ONE, atol=1e-15)


def test_quat_mul_is_associative(rng):
    for _ in range(20):
        p, q, r = (_unit_quat(rng) for _ in range(3))
        np.testing.assert_allclose(
            l2.quat_mul(l2.quat_mul(p, q), r), l2.quat_mul(p, l2.quat_mul(q, r)), atol=1e-14
        )


def test_quat_to_rot_is_special_orthogonal(rng):
    for _ in range(10):
        g = l2.quat_to_rot(_unit_quat(rng), _unit_quat(rng))
        np.testing.assert_allclose(g.T @ g, np.eye(4), atol=1e-14)
        assert np.linalg.det(g) > 0.0


def test_quat_to_rot_is_a_double_cover_homomorphism(rng):
    for _ in range(10):
        p1, p2, q1, q2 = (_unit_quat(rng) for _ in range(4))
        lhs = l2.quat_to_rot(l2.quat_mul(p1, q1), l2.quat_mul(p2, q2))
        rhs = l2.quat_to_rot(p1, p2) @ l2.quat_to_rot(q1, q2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)
        np.testing.assert_allclose(
            l2.quat_to_rot(-p1, -p2), l2.quat_to_rot(p1, p2), atol=0
        )


def test_quat_to_rot_rejects_non_unit():
    with pytest.raises(ValueError, match="unit quaternion"):
        l2.quat_to_rot(np.array([2.0, 0.0, 0.0, 0.0]), l2.QUAT_ONE)


def test_batch_quat_to_rot_matches_single(rng):
    q1 = l2.haar_quaternions(rng, 6)
    q2 = l2.haar_quaternions(rng, 6)
    batch = l2._quat_to_rot_batch(q1, q2)
    for k in range(6):
        np.testing.assert_allclose(batch[k], l2.quat_to_rot(q1[k], q2[k]), atol=1e-15)


def test_multiplication_matrices_match_the_hamilton_product(rng):
    qs, ps = rng.standard_normal((2, 20, 4))
    for q, p in zip(qs, ps):
        np.testing.assert_allclose(l2._left_mul(q) @ p, l2.quat_mul(q, p), atol=1e-14)
        np.testing.assert_allclose(l2._right_mul(q) @ p, l2.quat_mul(p, q), atol=1e-14)
    np.testing.assert_array_equal(l2._left_mul(qs)[3], l2._left_mul(qs[3]))
    np.testing.assert_array_equal(l2._right_mul(qs)[3], l2._right_mul(qs[3]))


def test_haar_batch_consumes_the_stream_like_sequential_draws():
    batch_rng = np.random.default_rng(7)
    a = l2.haar_quaternions(batch_rng, 4)
    rng = np.random.default_rng(7)
    b = np.stack([l2.haar_quaternion(rng) for _ in range(4)])
    # the normalisation may round differently by one ulp; the draws are the same
    np.testing.assert_allclose(a, b, atol=2.0 * np.finfo(float).eps, rtol=0.0)
    assert batch_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 4096, 50_000])
def test_haar_blocks_are_the_one_batch_draw(n):
    rng = np.random.default_rng(n)
    blocks = list(l2.haar_blocks(rng, n))
    assert [len(b) for b in blocks[:-1]] == [l2.HAAR_BLOCK] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= l2.HAAR_BLOCK
    batch_rng = np.random.default_rng(n)
    assert np.array_equal(np.concatenate(blocks), l2.haar_quaternions(batch_rng, n))
    assert rng.bit_generator.state == batch_rng.bit_generator.state


@pytest.mark.parametrize("rows", [1, 3, 1024, 4097])
def test_row_normalizer_is_the_numpy_row_norm_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    for scale in 10.0 ** np.arange(-150, 151, 25):
        v = scale * rng.standard_normal((rows, 4))
        want = v / np.linalg.norm(v, axis=1, keepdims=True)
        c, f = l2._unit_rows(v), l2._unit_rows(np.asfortranarray(v))
        # the same bits in either layout, which the output keeps
        assert np.array_equal(c, want) and np.array_equal(f, want)
        assert c.flags.c_contiguous and f.flags.f_contiguous
        # a row alone has the bits it has in the stack
        assert np.array_equal(l2._unit_rows(v[-1:]), want[-1:])


@pytest.mark.parametrize("n", [3, 1024])
def test_haar_draw_is_component_major_and_the_numpy_row_norm(n):
    q = l2.haar_quaternions(np.random.default_rng(n), n)
    v = np.random.default_rng(n).standard_normal((n, 4))
    assert q.shape == (n, 4) and q.flags.f_contiguous and q.T.flags.c_contiguous
    assert np.array_equal(q, v / np.linalg.norm(v, axis=1, keepdims=True))
    # the raw draw the frame sampler scores: the same stream, component-major
    raw = l2._gaussian_rows(np.random.default_rng(n), n)
    assert np.array_equal(raw, v) and raw.flags.f_contiguous


def test_monomials_are_rows_for_any_layout():
    q = l2.haar_quaternions(np.random.default_rng(4), 1000)
    tiled = np.tile([1.0, 0.0, 0.0, 0.0], (7, 1))
    for x in (q, np.ascontiguousarray(q), tiled):
        want = (x[:, l2._MONO_A] * x[:, l2._MONO_B]).T
        got = l2._monomials(x)
        assert got.shape == (10, len(x))
        assert np.array_equal(got, want)


def test_haar_samples_have_near_zero_mean():
    q = l2.haar_quaternions(np.random.default_rng(0), 20000)
    # each component of the mean has sigma 1/(2 sqrt n); 0.02 is a wide cushion
    assert np.linalg.norm(q.mean(axis=0)) <= 0.02


# -- factor assignment: which side of the cover moves which eigenspace --------


def test_left_multiplication_rotates_selfdual_and_fixes_antiselfdual(rng):
    for _ in range(10):
        q = _unit_quat(rng)
        m = l2.induced_map(l2.s3_plus(q))
        restricted = l2.PLUS_BASIS.T @ m @ l2.PLUS_BASIS
        np.testing.assert_allclose(restricted, l2.rot3_of_quat(q), atol=1e-14)
        np.testing.assert_allclose(
            l2.MINUS_BASIS.T @ m @ l2.MINUS_BASIS, np.eye(3), atol=1e-14
        )


def test_right_multiplication_fixes_selfdual_pointwise(rng):
    for _ in range(10):
        m = l2.induced_map(l2.s3_minus(_unit_quat(rng)))
        np.testing.assert_allclose(
            l2.PLUS_BASIS.T @ m @ l2.PLUS_BASIS, np.eye(3), atol=1e-14
        )
        block = l2.MINUS_BASIS.T @ m @ l2.MINUS_BASIS
        np.testing.assert_allclose(block.T @ block, np.eye(3), atol=1e-13)
