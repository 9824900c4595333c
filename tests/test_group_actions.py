"""Factor averaging and the boundary witness."""

import tracemalloc

import numpy as np
import pytest

from halfpic import cones
from halfpic import curvature as cv
from halfpic import group_actions as ga
from halfpic import lambda2 as l2


def _bianchi(seed, norm=None):
    return cv.random_bianchi(np.random.default_rng(seed), norm=norm)


def _hand_instance():
    # scal 4, self-dual block diag(-1,-1,3), anti-self-dual block = (1/3) Id
    b = np.hstack([l2.PLUS_BASIS, l2.MINUS_BASIS])
    return b @ np.diag([-1.0, -1.0, 3.0, 1 / 3, 1 / 3, 1 / 3]) @ b.T


# -- projections and averages --------------------------------------------------


def test_exact_projection_keeps_one_weyl_block():
    r = _bianchi(0)
    d = cv.decompose(r)
    left = cv.decompose(ga.exact_projection(r, "left"))
    assert left.scal == pytest.approx(d.scal, abs=1e-12)
    np.testing.assert_allclose(left.wplus, d.wplus, atol=1e-12)
    np.testing.assert_allclose(left.ric0, np.zeros((4, 4)), atol=1e-12)
    np.testing.assert_allclose(left.wminus, np.zeros((3, 3)), atol=1e-12)
    right = cv.decompose(ga.exact_projection(r, "right"))
    np.testing.assert_allclose(right.wminus, d.wminus, atol=1e-12)
    np.testing.assert_allclose(right.wplus, np.zeros((3, 3)), atol=1e-12)


def test_exact_projection_is_idempotent():
    r = _bianchi(1)
    p = ga.exact_projection(r, "left")
    np.testing.assert_allclose(ga.exact_projection(p, "left"), p, atol=1e-13)


def test_projection_rejects_unknown_factor():
    with pytest.raises(ValueError, match="factor"):
        ga.exact_projection(np.eye(6), "top")
    with pytest.raises(ValueError, match="factor"):
        ga.average(np.eye(6), "top")


def test_average_fixes_projection_fixed_points():
    r = cv.assemble(scal=5.0, wplus=np.diag([1.0, -0.25, -0.75]))
    err = np.abs(ga.average(r, "left", n=400, seed=0) - r).max()
    assert err <= 1e-12


def test_average_fixes_the_identity():
    for factor in ("left", "right"):
        err = np.abs(ga.average(np.eye(6), factor, n=50, seed=0) - np.eye(6)).max()
        assert err <= 1e-13


def test_average_kills_the_traceless_ricci_part():
    # a pure Ricci-type operator has no scal or Weyl component to survive
    r = cv.wedge_sym(np.diag([1.0, -2.0, 0.5, 0.5]), np.eye(4))
    n = 10**5
    avg = ga.average(r, "left", n=n, seed=11)
    assert np.linalg.norm(avg) <= 3.0 * np.linalg.norm(r) / np.sqrt(n)


def test_average_is_seed_deterministic():
    r = _bianchi(2, norm=1.0)
    a = ga.average(r, "left", n=300, seed=4)
    b = ga.average(r, "left", n=300, seed=4)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("factor", ga.FACTORS)
def test_average_approaches_the_projection(factor):
    r = _bianchi(3, norm=1.0)
    proj = ga.exact_projection(r, factor)
    err = np.linalg.norm(ga.average(r, factor, n=20000, seed=0) - proj)
    # generous 1/sqrt(n) band; the summand norms are bounded by |R|
    assert err <= 18.0 / np.sqrt(20000)


@pytest.mark.parametrize("n", [1, 7, 500])
@pytest.mark.parametrize("factor, lift", [("left", l2.s3_minus), ("right", l2.s3_plus)])
def test_average_is_the_mean_over_its_factor(factor, lift, n):
    # reference route: one act per Haar quaternion of the same stream
    for seed, r in enumerate([_bianchi(5, norm=1.0), _bianchi(6, norm=1e6), cv.model("cp2bar")]):
        qs = l2.haar_quaternions(np.random.default_rng(seed), n)
        want = np.mean([cv.act(lift(q), r) for q in qs], axis=0)
        got = ga.average(r, factor, n=n, seed=seed)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * (1.0 + np.linalg.norm(r)))


@pytest.mark.parametrize("factor", ga.FACTORS)
def test_moment_average_does_not_depend_on_the_block_layout(factor):
    block = l2.haar_quaternions(np.random.default_rng(3), 1000)
    r = _bianchi(5, norm=1.0)
    want = ga._moment_average(r, [block], factor)
    assert np.array_equal(ga._moment_average(r, [np.ascontiguousarray(block)], factor), want)


def _stacked_reference(r, factor, n, seed):
    # the former route: one rotation and one induced 6x6 map per sample
    q = l2.haar_quaternions(np.random.default_rng(seed), n)
    rots = l2._right_mul(q * l2._CONJ) if factor == "left" else l2._left_mul(q)
    return cv._act_average(l2._induced_map_batch(rots), r)


@pytest.mark.parametrize("factor, lift", [("left", l2.s3_minus), ("right", l2.s3_plus)])
def test_factor_tables_expand_the_induced_map(factor, lift, rng):
    tables = ga._FACTOR_TABLES[factor]
    for _ in range(20):
        q = l2.haar_quaternion(rng)
        m = np.einsum("p,pij->ij", q[l2._MONO_A] * q[l2._MONO_B], tables)
        np.testing.assert_allclose(m, l2.induced_map(lift(q)), rtol=0, atol=1e-14)


@pytest.mark.parametrize("factor", ga.FACTORS)
def test_factor_tables_are_bilinear_off_the_sphere(factor, rng):
    # g is linear in q: x -> x conj(q) (left) or x -> q x (right), and the
    # tables send e_i^e_j to g e_i ^ g e_j for any q, unit or not
    tables = ga._FACTOR_TABLES[factor]
    e = np.eye(4)
    for _ in range(20):
        q = 3.0 * rng.standard_normal(4)
        if factor == "left":
            cols = [l2.quat_mul(x, l2.quat_conj(q)) for x in e]
        else:
            cols = [l2.quat_mul(q, x) for x in e]
        m = np.einsum("p,pij->ij", q[l2._MONO_A] * q[l2._MONO_B], tables)
        want = np.column_stack([l2.wedge(cols[i], cols[j]) for i, j in zip(l2.PAIR_I, l2.PAIR_J)])
        np.testing.assert_allclose(m, want, rtol=0, atol=1e-12 * (1.0 + q @ q))


@pytest.mark.parametrize("n", [1, 7, 500, 50_000])
@pytest.mark.parametrize("factor", ga.FACTORS)
def test_average_agrees_with_the_stacked_reference(factor, n):
    for seed, norm in enumerate([1.0, 1e6, 1e-3]):
        r = _bianchi(20 + seed, norm=norm)
        got = ga.average(r, factor, n=n, seed=seed)
        want = _stacked_reference(r, factor, n, seed)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * (1.0 + np.linalg.norm(r)))


def _average_peak(r, n):
    tracemalloc.start()
    try:
        ga.average(r, "left", n=n, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_average_memory_does_not_grow_with_per_sample_maps():
    r = _bianchi(7, norm=1.0)
    peak = _average_peak(r, 50_000)
    # the samples come in blocks whose monomials take 80 KiB, so the peak
    # stays far below the 4 MB of all 50_000 samples' monomials and does not
    # grow with n
    assert peak < 1e6
    assert abs(_average_peak(r, 200_000) - peak) <= 64 * 1024


def test_binary_tetrahedral_group_is_a_group_of_24_units():
    group = ga.BINARY_TETRAHEDRAL
    assert group.shape == (24, 4)
    np.testing.assert_allclose(np.linalg.norm(group, axis=1), 1.0, rtol=0, atol=0)
    for p in group:
        for q in group:
            pq = l2.quat_mul(p, q)
            assert np.abs(group - pq).max(axis=1).min() == 0.0


@pytest.mark.parametrize("factor", ga.FACTORS)
def test_group_average_equals_the_projection(factor):
    for k in range(60):
        r = _bianchi(100 + k, norm=(1.0, 1e6, 1e-3)[k % 3])
        np.testing.assert_allclose(
            ga.group_average(r, factor),
            ga.exact_projection(r, factor),
            rtol=0,
            atol=1e-14 * (1.0 + np.linalg.norm(r)),
        )


@pytest.mark.parametrize("factor", ga.FACTORS)
def test_quaternion_group_is_too_small_for_the_projection(factor):
    # Q8 = {+-1, +-i, +-j, +-k} integrates degree two but not degree four
    q8 = np.vstack([np.eye(4), -np.eye(4)])
    worst = 0.0
    for k in range(10):
        r = _bianchi(k, norm=1.0)
        err = np.abs(ga._moment_average(r, [q8], factor) - ga.exact_projection(r, factor)).max()
        worst = max(worst, err)
    assert worst > 0.05


def test_group_average_rejects_bad_input():
    with pytest.raises(ValueError, match="factor"):
        ga.group_average(np.eye(6), "top")
    with pytest.raises(ValueError, match="Bianchi"):
        ga.group_average(l2.HODGE_STAR)


def test_average_error_decays_with_n():
    errs_small, errs_big = [], []
    for seed in range(6):
        r = _bianchi(seed, norm=1.0)
        proj = ga.exact_projection(r, "left")
        errs_small.append(np.linalg.norm(ga.average(r, "left", n=500, seed=seed) - proj))
        errs_big.append(np.linalg.norm(ga.average(r, "left", n=8000, seed=seed) - proj))
    gmean_ratio = np.exp(np.mean(np.log(np.array(errs_small) / np.array(errs_big))))
    assert gmean_ratio > 1.5  # 16x the samples should win on average


def test_average_output_is_a_valid_operator():
    avg = ga.average(_bianchi(4), "right", n=500, seed=1)
    cv.check_operator(avg)
    assert cv.bianchi_defect(avg) <= 1e-10


def test_average_rejects_bad_n():
    with pytest.raises(ValueError, match="n must be positive"):
        ga.average(np.eye(6), n=0)


@pytest.mark.parametrize("n", [1e3 + 0.5, np.inf, np.nan])
def test_average_rejects_a_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        ga.average(np.eye(6), n=n)
    r = _bianchi(4)
    np.testing.assert_array_equal(ga.average(r, n=1e3, seed=1), ga.average(r, n=1000, seed=1))


# -- witness -------------------------------------------------------------------


def test_witness_hand_instance_is_exact():
    res = ga.maximality_witness(_hand_instance())
    assert res.kappa == pytest.approx(1.0, abs=1e-12)
    assert res.scale == pytest.approx(4.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(res.g, np.eye(4), atol=0)  # tied lowest pair
    assert cv.scalar(res.witness) == pytest.approx(16.0, abs=1e-12)
    plus = np.sort(np.linalg.eigvalsh(cv.plus_block(res.witness)))
    np.testing.assert_allclose(plus, [0.0, 0.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(
        cv.minus_block(res.witness), (4.0 / 3.0) * np.eye(3), atol=1e-12
    )


def _admissible_operators(count=15):
    # unit-norm operators with scal > 0.1 whose projected self-dual block
    # has mu1 + mu2 < -0.01, the first count of them by seed
    made = []
    seed = 0
    while len(made) < count:
        r = _bianchi(seed, norm=1.0)
        seed += 1
        if cv.decompose(r).scal <= 0.1:
            continue
        mu = np.linalg.eigvalsh(cv.plus_block(ga.exact_projection(r, "left")))
        if mu[0] + mu[1] < -0.01:
            made.append(r)
    return made


def test_witness_pattern_on_random_admissible_operators():
    for r in _admissible_operators():
        res = ga.maximality_witness(r)
        s = cv.scalar(res.witness)
        assert s > 0.0
        plus = np.sort(np.linalg.eigvalsh(cv.plus_block(res.witness)))
        np.testing.assert_allclose(plus, [0.0, 0.0, s / 4.0], atol=1e-10 * (1 + s))
        np.testing.assert_allclose(
            cv.minus_block(res.witness), (s / 12.0) * np.eye(3), atol=1e-10 * (1 + s)
        )
        assert res.scale == pytest.approx(s / 12.0, abs=1e-12)
        # the witness sits exactly on the plus-cone boundary
        assert cones.cone_margin(res.witness, "ic_plus") == pytest.approx(0.0, abs=1e-10)
        l2.check_rotation(res.g)


def test_witness_turns_the_selfdual_forms_a_quarter_about_the_top_eigenvector():
    # g rotates the self-dual forms of the projected block's eigenframe
    # v1 -> v2, v2 -> -v1, v3 fixed, and fixes every anti-self-dual form
    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    for r in _admissible_operators():
        g = ga.maximality_witness(r).g
        _, vecs = np.linalg.eigh(cv.plus_block(ga.exact_projection(r, "left")))
        if np.linalg.det(vecs) < 0.0:
            vecs[:, 2] = -vecs[:, 2]
        m = l2.induced_map(g)
        np.testing.assert_allclose(
            l2.PLUS_BASIS.T @ m @ l2.PLUS_BASIS, vecs @ quarter @ vecs.T, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            l2.MINUS_BASIS.T @ m @ l2.MINUS_BASIS, np.eye(3), rtol=0, atol=1e-12
        )
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [-300, -200, -60, -30, -20, -5, 7, 50, 200, 300])
def test_witness_is_exactly_homogeneous_under_powers_of_two(k):
    # scaling by 2^k changes no eigenvector and scales every eigenvalue and
    # sum exactly, so g keeps its bits and the witness scales bit for bit
    for r in _admissible_operators():
        res = ga.maximality_witness(r)
        scaled = ga.maximality_witness(np.ldexp(r, k))
        np.testing.assert_array_equal(scaled.g, res.g)
        np.testing.assert_array_equal(scaled.witness, np.ldexp(res.witness, k))


def test_witness_rejects_nonpositive_scalar():
    with pytest.raises(ValueError, match="positive scalar curvature"):
        ga.maximality_witness(-np.eye(6))


def test_witness_rejects_already_two_nonnegative():
    with pytest.raises(ValueError, match="nothing to witness"):
        ga.maximality_witness(np.eye(6))


def test_witness_rejects_the_exact_boundary_like_membership(rng):
    # rotated and rescaled cp2 sits exactly on the ic_plus boundary; rounding
    # of either sign must not decide between "NNIC" and a witness
    for _ in range(200):
        g = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
        r = cv.act(g, cv.model("cp2", rng.uniform(0.1, 100.0)))
        assert cones.membership(r).classification == "NNIC"
        with pytest.raises(ValueError, match="nothing to witness"):
            ga.maximality_witness(r)


def test_witness_json_layout():
    doc = ga.maximality_witness(_hand_instance()).to_json()
    assert set(doc) == {"witness", "kappa", "scale", "g"}
    assert doc["witness"]["basis"] == cv.BASIS_STRING
    assert len(doc["g"]) == 4
    np.testing.assert_allclose(
        cv.operator_from_json(doc["witness"]),
        ga.maximality_witness(_hand_instance()).witness,
        atol=0,
    )
