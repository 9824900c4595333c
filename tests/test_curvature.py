"""Curvature operators: symmetry checks, the first Bianchi identity, the
irreducible decomposition, model spaces, and the serialization format."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfpic import curvature as cv
from halfpic import lambda2 as l2

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
sym6 = st.lists(finite, min_size=36, max_size=36).map(
    lambda xs: (lambda m: (m + m.T) / 2.0)(np.array(xs).reshape(6, 6))
)


def _bianchi(seed, norm=None):
    return cv.random_bianchi(np.random.default_rng(seed), norm=norm)


# -- validation ----------------------------------------------------------------


def test_check_operator_accepts_symmetric():
    cv.check_operator(np.eye(6))


def test_check_operator_rejects_bad_inputs():
    with pytest.raises(cv.OperatorFormatError, match="6x6"):
        cv.check_operator(np.eye(5))
    with pytest.raises(cv.OperatorFormatError, match="finite"):
        cv.check_operator(np.full((6, 6), np.nan))
    bad = np.eye(6)
    bad[0, 1] = 1e-3
    with pytest.raises(cv.OperatorFormatError, match="symmetric"):
        cv.check_operator(bad)


# -- Bianchi identity ----------------------------------------------------------


@given(sym6)
def test_defect_equals_half_the_star_trace(s):
    cheap = abs(np.trace(s @ l2.HODGE_STAR)) / 2.0
    assert abs(cv.bianchi_defect(s) - cheap) <= 1e-10 * (1.0 + cheap)


def test_defect_of_the_star_itself():
    assert cv.bianchi_defect(l2.HODGE_STAR) == pytest.approx(3.0, abs=1e-15)
    assert cv.star_component(l2.HODGE_STAR) == pytest.approx(1.0, abs=1e-15)


@given(sym6)
def test_projection_kills_the_defect_and_is_idempotent(s):
    p = cv.bianchi_project(s)
    assert cv.bianchi_defect(p) <= 1e-10 * (1.0 + np.abs(s).max())
    np.testing.assert_allclose(cv.bianchi_project(p), p, atol=1e-12)


def test_projection_fixes_valid_operators():
    r = _bianchi(0)
    np.testing.assert_allclose(cv.bianchi_project(r), r, atol=1e-14)
    cv.require_bianchi_valid(r)
    with pytest.raises(cv.OperatorFormatError, match="Bianchi"):
        cv.require_bianchi_valid(l2.HODGE_STAR)


def test_the_star_fails_validation_where_the_squared_norm_overflows():
    # |R|^2 overflows above about 1.3e154; the band must stay finite there
    star = 1e155 * l2.HODGE_STAR
    with pytest.raises(cv.OperatorFormatError, match="Bianchi"):
        cv.require_bianchi_valid(star)
    cv.require_bianchi_valid(1e155 * _bianchi(0))


def test_the_band_beyond_the_squared_norm_range_is_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e155, 1e300):
            with pytest.raises(cv.OperatorFormatError, match="Bianchi"):
                cv.require_bianchi_valid(scale * l2.HODGE_STAR)
        for scale in (1e-300, 1e-160, 1e155, 1e300):
            cv.require_bianchi_valid(scale * _bianchi(0))


def test_random_bianchi_is_valid_and_normalized(rng):
    r = cv.random_bianchi(rng, norm=2.5)
    cv.check_operator(r)
    assert cv.bianchi_defect(r) <= 1e-12
    assert np.linalg.norm(r) == pytest.approx(2.5, abs=1e-12)


def test_random_bianchi_is_seed_deterministic():
    np.testing.assert_array_equal(_bianchi(11), _bianchi(11))


# -- traces --------------------------------------------------------------------


def test_scalar_is_twice_the_trace():
    r = _bianchi(1)
    assert cv.scalar(r) == pytest.approx(2.0 * np.trace(r), abs=1e-12)


def test_identity_operator_is_einstein():
    np.testing.assert_allclose(cv._ricci(np.eye(6)), 3.0 * np.eye(4), atol=0)
    assert cv.scalar(np.eye(6)) == 12.0


def test_ricci_trace_is_the_scalar():
    r = _bianchi(2)
    assert np.trace(cv._ricci(r)) == pytest.approx(cv.scalar(r), abs=1e-12)


# -- symmetric wedge -----------------------------------------------------------


def test_wedge_sym_of_the_metric_is_the_identity():
    np.testing.assert_allclose(cv.wedge_sym(np.eye(4), np.eye(4)), np.eye(6), atol=0)


def test_wedge_sym_is_the_symmetrized_wedge_of_images(rng):
    # the definition, (A^B)(x^y) = (Ax^By + Bx^Ay)/2, for general 4x4 maps
    for _ in range(10):
        a, b = rng.standard_normal((2, 4, 4))
        x, y = rng.standard_normal((2, 4))
        want = 0.5 * (l2.wedge(a @ x, b @ y) + l2.wedge(b @ x, a @ y))
        np.testing.assert_allclose(cv.wedge_sym(a, b) @ l2.wedge(x, y), want, atol=1e-12)


def test_wedge_sym_ricci_contraction(rng):
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2.0
        got = cv._ricci(cv.wedge_sym(a, np.eye(4)))
        np.testing.assert_allclose(got, a + 0.5 * np.trace(a) * np.eye(4), atol=1e-12)


def test_wedge_sym_trace_identity(rng):
    for _ in range(10):
        a, b = rng.standard_normal((2, 4, 4))
        a, b = (a + a.T) / 2.0, (b + b.T) / 2.0
        got = np.trace(cv.wedge_sym(a, b))
        want = 0.5 * (np.trace(a) * np.trace(b) - np.trace(a @ b))
        assert got == pytest.approx(want, abs=1e-10)


def test_wedge_sym_satisfies_bianchi(rng):
    for _ in range(10):
        a, b = rng.standard_normal((2, 4, 4))
        a, b = (a + a.T) / 2.0, (b + b.T) / 2.0
        assert cv.bianchi_defect(cv.wedge_sym(a, b)) <= 1e-12


# -- decomposition -------------------------------------------------------------


def test_decompose_block_shapes_and_tracelessness():
    d = cv.decompose(_bianchi(3))
    assert np.isscalar(d.scal) or d.scal.shape == ()
    assert d.ric0.shape == (4, 4) and d.wplus.shape == (3, 3) and d.wminus.shape == (3, 3)
    assert abs(np.trace(d.ric0)) <= 1e-12
    assert abs(np.trace(d.wplus)) <= 1e-12
    assert abs(np.trace(d.wminus)) <= 1e-12


def test_decompose_recompose_roundtrip():
    for seed in range(10):
        r = _bianchi(seed)
        np.testing.assert_allclose(cv.recompose(cv.decompose(r)), r, atol=1e-13)


def test_decomposition_pieces_are_frobenius_orthogonal():
    d = cv.decompose(_bianchi(4))
    parts = [
        cv.assemble(scal=d.scal),
        cv.assemble(ric0=d.ric0),
        cv.assemble(wplus=d.wplus),
        cv.assemble(wminus=d.wminus),
    ]
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.sum(parts[i] * parts[j])) <= 1e-12


def test_decompose_rejects_bianchi_violations():
    with pytest.raises(ValueError, match="Bianchi"):
        cv.decompose(l2.HODGE_STAR)


def test_assemble_validates_blocks():
    with pytest.raises(ValueError, match="traceless"):
        cv.assemble(wplus=np.eye(3))
    with pytest.raises(ValueError, match="symmetric"):
        cv.assemble(ric0=np.diag([1.0, -1.0, 0.0, 0.0]) + np.triu(np.ones((4, 4)), 1) * 1e-3)


def test_assemble_round_trips_through_decompose(rng):
    ric0 = rng.standard_normal((4, 4))
    ric0 = (ric0 + ric0.T) / 2.0
    ric0 -= np.trace(ric0) / 4.0 * np.eye(4)
    wp = np.diag([1.0, 2.0, -3.0])
    r = cv.assemble(scal=7.0, ric0=ric0, wplus=wp)
    d = cv.decompose(r)
    assert d.scal == pytest.approx(7.0, abs=1e-12)
    np.testing.assert_allclose(d.ric0, ric0, atol=1e-12)
    np.testing.assert_allclose(d.wplus, wp, atol=1e-12)
    np.testing.assert_allclose(d.wminus, np.zeros((3, 3)), atol=1e-12)


def test_blocks_read_off_the_conjugated_matrix():
    r = _bianchi(5)
    np.testing.assert_allclose(
        cv.plus_block(r), l2.PLUS_BASIS.T @ r @ l2.PLUS_BASIS, atol=0
    )
    np.testing.assert_allclose(
        cv.minus_block(r), l2.MINUS_BASIS.T @ r @ l2.MINUS_BASIS, atol=0
    )


# -- models --------------------------------------------------------------------


@pytest.mark.parametrize("name", cv.MODEL_NAMES)
def test_models_are_valid_operators(name):
    r = cv.model(name, 3.0)
    cv.check_operator(r)
    assert cv.bianchi_defect(r) <= 1e-12


def test_sphere_model_is_a_multiple_of_the_identity():
    np.testing.assert_allclose(cv.model("sphere", 12.0), np.eye(6), atol=0)


def test_fubini_study_weyl_spectrum():
    d = cv.decompose(cv.model("cp2", 12.0))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(d.wplus)), [-1, -1, 2], atol=1e-12)
    np.testing.assert_allclose(d.wminus, np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(d.ric0, np.zeros((4, 4)), atol=1e-13)


def test_cp2bar_mirrors_cp2():
    d = cv.decompose(cv.model("cp2bar", 12.0))
    np.testing.assert_allclose(d.wplus, np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(d.wminus)), [-1, -1, 2], atol=1e-12)


def test_product_models_have_flat_directions():
    np.testing.assert_allclose(cv.model("s2xs2", 1.0), np.diag([1.0, 0, 0, 0, 0, 1.0]), atol=0)
    np.testing.assert_allclose(cv.model("s3xr", 1.0), np.diag([1.0, 1.0, 0, 1.0, 0, 0]), atol=0)


def test_round_cylinder_decomposition():
    # S^3 x R carries no Weyl curvature; everything sits in scal + traceless Ricci
    d = cv.decompose(cv.model("s3xr", 1.0))
    assert d.scal == pytest.approx(6.0, abs=1e-12)
    np.testing.assert_allclose(d.wplus, np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(d.wminus, np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(d.ric0, 0.5 * np.diag([1.0, 1.0, 1.0, -3.0]), atol=1e-13)


def test_kaehler_alias_matches_cp2():
    np.testing.assert_array_equal(cv.model("kaehler_wplus", 5.0), cv.model("cp2", 5.0))


def test_model_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown model"):
        cv.model("flat")


# -- the orthogonal action -----------------------------------------------------


def test_act_identity_and_composition(rng):
    r = _bianchi(6)
    np.testing.assert_allclose(cv.act(np.eye(4), r), r, atol=0)
    g1 = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
    g2 = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
    np.testing.assert_allclose(
        cv.act(g1 @ g2, r), cv.act(g2, cv.act(g1, r)), atol=1e-12
    )


def test_act_preserves_invariants(rng):
    r = _bianchi(7)
    g = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
    s = cv.act(g, r)
    assert cv.scalar(s) == pytest.approx(cv.scalar(r), abs=1e-10)
    assert cv.bianchi_defect(s) <= 1e-12
    np.testing.assert_allclose(
        np.linalg.eigvalsh(s), np.linalg.eigvalsh(r), atol=1e-12
    )


def test_act_rotates_the_weyl_blocks(rng):
    r = _bianchi(8)
    q = l2.haar_quaternion(rng)
    s = cv.act(l2.s3_plus(q), r)
    rho = l2.rot3_of_quat(q)
    # act conjugates by induced_map(g)^T, so the plus block moves by rho^T
    np.testing.assert_allclose(
        cv.plus_block(s), rho.T @ cv.plus_block(r) @ rho, atol=1e-12
    )
    np.testing.assert_allclose(cv.minus_block(s), cv.minus_block(r), atol=1e-12)


# -- serialization -------------------------------------------------------------


def test_json_roundtrip_is_exact():
    r = _bianchi(9)
    np.testing.assert_array_equal(cv.operator_from_json(cv.operator_to_json(r)), r)


def test_json_payload_shape():
    obj = cv.operator_to_json(np.eye(6))
    assert obj["basis"] == cv.BASIS_STRING
    assert len(obj["matrix"]) == 6 and len(obj["matrix"][0]) == 6
    json.dumps(obj)  # must be pure python scalars


def test_json_error_messages_are_distinct():
    with pytest.raises(cv.OperatorFormatError, match="JSON object"):
        cv.operator_from_json([1, 2, 3])
    with pytest.raises(cv.OperatorFormatError, match="basis mismatch"):
        cv.operator_from_json({"basis": "xy", "matrix": np.eye(6).tolist()})
    with pytest.raises(cv.OperatorFormatError, match="not numeric"):
        cv.operator_from_json({"basis": cv.BASIS_STRING, "matrix": [["a"] * 6] * 6})
    bad = np.eye(6)
    bad[0, 1] = 0.5
    with pytest.raises(cv.OperatorFormatError, match="symmetric"):
        cv.operator_from_json({"basis": cv.BASIS_STRING, "matrix": bad.tolist()})


@pytest.mark.parametrize("entry", ['"1"', '"1e0"', "true", "false", "null", "[1.0]", "{}"])
def test_json_entries_must_be_numbers(entry):
    # a string, a bool or null is not a JSON number, whatever numpy makes of it
    rows = [["0.0"] * 6 for _ in range(6)]
    rows[2][2] = entry
    text = '{"basis": "%s", "matrix": [%s]}' % (
        cv.BASIS_STRING, ", ".join("[%s]" % ", ".join(row) for row in rows)
    )
    with pytest.raises(cv.OperatorFormatError, match="not numeric"):
        cv.operator_from_json(json.loads(text))


def test_json_ints_are_numbers_and_an_int_beyond_float_is_rejected():
    obj = {"basis": cv.BASIS_STRING, "matrix": np.eye(6, dtype=int).tolist()}
    np.testing.assert_array_equal(cv.operator_from_json(obj), np.eye(6))
    obj["matrix"][0][0] = 10**400
    with pytest.raises(cv.OperatorFormatError, match="not numeric"):
        cv.operator_from_json(obj)


def test_file_roundtrip_and_malformed_file(tmp_path):
    r = _bianchi(10)
    path = tmp_path / "op.json"
    cv.write_operator(r, path)
    np.testing.assert_array_equal(cv.read_operator(path), r)
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(cv.OperatorFormatError, match="malformed JSON"):
        cv.read_operator(bad)
