import json
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from engage_mil.errors import DataError, NumericError, ParseError
from engage_mil.metrics import (
    AnnotationMatrix,
    MetricsReport,
    classwise_mse,
    compute_report,
    fuse_labels,
    load_annotation_csv,
    mse,
    pcc,
    quadratic_weighted_kappa,
    rater_reliability,
    save_annotation_csv,
)
from oracles import contingency_kappa, two_pass_pcc

label_vectors = st.lists(st.integers(0, 3), min_size=2, max_size=40)


# --- quadratic-weighted kappa -----------------------------------------------


def test_kappa_perfect_agreement():
    assert quadratic_weighted_kappa([0, 1, 2, 3, 2], [0, 1, 2, 3, 2]) == 1.0


def test_kappa_reversed_levels_is_minus_one():
    # hand tabulation: anti-diagonal O, uniform marginals -> ratio exactly 2
    assert quadratic_weighted_kappa([0, 1, 2, 3], [3, 2, 1, 0]) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_kappa_hand_tabulated_mixed_case():
    a = [0, 0, 1, 2, 3, 3, 2, 1]
    b = [0, 1, 1, 2, 3, 2, 2, 0]
    # disagreement weight mass: observed 3/9, expected 144/(9*8) -> 1 - 1/6
    assert quadratic_weighted_kappa(a, b) == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_kappa_matches_contingency_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        got = quadratic_weighted_kappa(a, b)
        want = contingency_kappa(a.tolist(), b.tolist())
        assert got == pytest.approx(want, abs=1e-12)


def test_kappa_independent_raters_near_zero():
    rng = np.random.default_rng(123)
    a = rng.integers(0, 4, size=10_000)
    b = rng.integers(0, 4, size=10_000)
    assert abs(quadratic_weighted_kappa(a, b)) < 0.1


def test_kappa_constant_identical_raters():
    assert quadratic_weighted_kappa([2, 2, 2], [2, 2, 2]) == 1.0


def test_kappa_constant_but_different_raters():
    # marginals concentrate on one cell each, so expected disagreement > 0
    assert quadratic_weighted_kappa([1, 1], [3, 3]) == 0.0


def test_kappa_validation():
    with pytest.raises(ValueError):
        quadratic_weighted_kappa([0, 1], [0])
    with pytest.raises(ValueError):
        quadratic_weighted_kappa([0, 4], [0, 1])
    with pytest.raises(ValueError):
        quadratic_weighted_kappa([], [])


@given(label_vectors)
def test_kappa_self_agreement_is_one(labels):
    assert quadratic_weighted_kappa(labels, labels) == 1.0


@given(label_vectors, st.randoms())
def test_kappa_is_symmetric(a, rnd):
    b = [rnd.randint(0, 3) for _ in a]
    assert quadratic_weighted_kappa(a, b) == pytest.approx(
        quadratic_weighted_kappa(b, a), abs=1e-12
    )


def test_kappa_invariant_under_order_preserving_shift():
    # shifting both raters from levels 0..2 to 1..3 keeps kappa: the weights
    # depend only on level differences, which the shift keeps
    a = [0, 1, 2, 1, 0, 2]
    b = [1, 1, 2, 0, 0, 2]
    base = quadratic_weighted_kappa(a, b)
    shifted = quadratic_weighted_kappa([x + 1 for x in a], [x + 1 for x in b])
    assert shifted == pytest.approx(base, abs=1e-12)


# --- reliability and fusion -------------------------------------------------


def _matrix(labels, video_ids=None, rater_ids=None):
    labels = np.asarray(labels, dtype=np.float64)
    v, r = labels.shape
    return AnnotationMatrix(
        labels=labels,
        video_ids=video_ids or [f"v{i}" for i in range(v)],
        rater_ids=rater_ids or [f"r{j}" for j in range(r)],
    )


def test_identical_raters_fuse_to_common_labels():
    column = [0, 1, 2, 3, 2, 1]
    matrix = _matrix(np.tile(np.array(column)[:, None], (1, 3)))
    fused, dropped = fuse_labels(matrix)
    assert dropped == []
    np.testing.assert_array_equal(fused, column)


def test_anti_correlated_rater_is_dropped():
    truth = np.array([0, 1, 2, 3] * 3)
    grid = np.tile(truth[:, None], (1, 5)).astype(float)
    grid[:, 4] = 3 - truth  # the fifth rater inverts the scale
    matrix = _matrix(grid)
    reliability = rater_reliability(matrix)
    assert (reliability[:4] >= 0.4).all()
    assert reliability[4] < 0.4
    fused, dropped = fuse_labels(matrix)
    assert dropped == ["r4"]
    np.testing.assert_array_equal(fused, truth)


def test_fusion_rounds_half_away_from_zero():
    grid = np.array([[2.0, 3.0], [0.0, 1.0], [1.0, 2.0]])
    fused, dropped = fuse_labels(_matrix(grid), reliability_threshold=-2.0)
    assert dropped == []
    np.testing.assert_array_equal(fused, [3, 1, 2])  # 2.5 -> 3, 0.5 -> 1


def test_fusion_ignores_missing_entries():
    grid = np.array(
        [
            [0.0, 0.0, np.nan],
            [1.0, 1.0, 1.0],
            [2.0, np.nan, 2.0],
            [3.0, 3.0, 3.0],
        ]
    )
    fused, dropped = fuse_labels(_matrix(grid))
    assert dropped == []
    np.testing.assert_array_equal(fused, [0, 1, 2, 3])


def test_all_raters_dropped():
    # two raters perfectly anti-correlated: each has reliability -1
    grid = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    with pytest.raises(DataError, match="all 2 raters fell below 0.4"):
        fuse_labels(_matrix(grid))


def test_reliability_uses_jointly_observed_videos_only():
    grid = np.array(
        [
            [0.0, 0.0, 3.0],
            [1.0, 1.0, np.nan],
            [2.0, 2.0, np.nan],
            [3.0, 3.0, np.nan],
            [np.nan, 0.0, 0.0],
        ]
    )
    reliability = rater_reliability(_matrix(grid))
    assert reliability.shape == (3,)
    # raters 0 and 1 agree on their four joint videos
    assert reliability[0] > 0.0


@given(
    st.integers(2, 6),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_fused_labels_always_in_range(n_raters, n_videos, seed):
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 4, size=(n_videos, n_raters)).astype(float)
    try:
        fused, _ = fuse_labels(_matrix(grid))
    except DataError as exc:
        assert "raters fell below" in str(exc)
        return
    assert ((fused >= 0) & (fused <= 3)).all()


# --- regression metrics -----------------------------------------------------


def test_mse_zero_on_equal_inputs():
    assert mse([1.0, 2.0, 0.5], [1.0, 2.0, 0.5]) == 0.0


def test_mse_and_classwise_known_values():
    pred, truth = [1.0, 1.0], [0.0, 2.0]
    assert mse(pred, truth) == 1.0
    per_class = classwise_mse(pred, truth)
    assert per_class[0] == 1.0 and per_class[2] == 1.0
    assert per_class[1] is None and per_class[3] is None


def test_classwise_reaggregates_to_overall():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 4, size=100).astype(float)
    pred = truth + rng.normal(size=100)
    per_class = classwise_mse(pred, truth)
    weighted = sum(
        per_class[level] * (truth == level).sum()
        for level in range(4)
        if per_class[level] is not None
    )
    assert weighted / 100 == pytest.approx(mse(pred, truth), rel=1e-12)


def test_mse_length_mismatch():
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])


@pytest.mark.parametrize("metric", [mse, classwise_mse, pcc, compute_report])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_regression_metrics_refuse_nonfinite_values(metric, bad):
    good = [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(NumericError, match="pred .* at index 2"):
        metric([0.5, 1.0, bad, bad], good)
    with pytest.raises(NumericError, match="truth .* at index 1"):
        metric(good, [0.0, bad, 2.0, 3.0])


def test_pcc_affine_invariance():
    truth = np.array([0.0, 1.0, 2.0, 3.0, 1.5])
    assert pcc(2 * truth + 1, truth) == pytest.approx(1.0)
    assert pcc(-truth, truth) == pytest.approx(-1.0)


def test_pcc_matches_two_pass_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert pcc(x, y) == pytest.approx(two_pass_pcc(x.tolist(), y.tolist()), abs=1e-12)


def test_pcc_constant_input_raises():
    with pytest.raises(DataError, match="constant input has no defined correlation"):
        pcc([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(DataError, match="constant input has no defined correlation"):
        pcc([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])


def test_pcc_survives_extreme_magnitudes():
    truth = np.array([0.0, 1.0, 2.0])
    for scale in (5e-324, 1e-300, 1e300):
        x = np.array([0.0, 0.0, 1.0]) * scale
        assert pcc(x, truth) == pytest.approx(pcc([0.0, 0.0, 1.0], truth), abs=1e-12)
    huge = pcc([1e308, -1e308, 5e307], truth)
    assert huge == pytest.approx(pcc([1.0, -1.0, 0.5], truth), abs=1e-12)


def test_pcc_needs_two_samples():
    with pytest.raises(ValueError):
        pcc([1.0], [2.0])


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=30), st.integers(0, 10**6))
@example(values=[0.0, 0.0, 5e-324], seed=0)  # subnormal variance underflowed to NaN
def test_pcc_sign_flip_under_negation(values, seed):
    rng = np.random.default_rng(seed)
    x = np.asarray(values)
    y = rng.normal(size=len(values))
    if (x == x[0]).all() or (y == y[0]).all():
        return
    assert pcc(-x, y) == pytest.approx(-pcc(x, y), abs=1e-9)


def test_compute_report_round_trips_through_json(tmp_path):
    truth = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0])
    pred = truth + np.array([0.1, -0.1, 0.2, 0.0, -0.2, 0.1])
    report = compute_report(pred, truth)
    assert report.class_counts == {0: 1, 1: 2, 2: 2, 3: 1}
    assert 0.0 < report.pcc <= 1.0
    path = tmp_path / "report.json"
    report.save(path)
    loaded = MetricsReport.load(path)
    assert loaded == report


@pytest.mark.parametrize("key", ["+2", "02", "\u0662", "7"])
def test_metrics_report_refuses_a_key_that_is_not_a_level(tmp_path, key):
    path = tmp_path / "report.json"
    compute_report(np.array([0.0, 1.5]), np.array([0.0, 2.0])).save(path)
    path.write_text(path.read_text().replace('"2"', json.dumps(key)))
    with pytest.raises(ParseError, match=re.escape(f"metrics report key '{key}' is not a level 0..3")):
        MetricsReport.load(path)


def test_compute_report_absent_class_serializes_as_null(tmp_path):
    truth = np.array([1.0, 2.0, 1.0])
    pred = np.array([1.0, 2.0, 1.5])
    report = compute_report(pred, truth)
    assert report.classwise_mse[0] is None
    path = tmp_path / "r.json"
    report.save(path)
    assert '"0": null' in path.read_text()


# --- annotation CSV ---------------------------------------------------------


def test_annotation_csv_round_trip(tmp_path):
    grid = np.array([[0.0, 1.0, np.nan], [2.0, 2.0, 3.0]])
    matrix = _matrix(grid, video_ids=["a", "b"], rater_ids=["x", "y", "z"])
    path = tmp_path / "ann.csv"
    save_annotation_csv(matrix, path)
    loaded = load_annotation_csv(path)
    assert loaded.video_ids == ["a", "b"]
    assert loaded.rater_ids == ["x", "y", "z"]
    np.testing.assert_array_equal(np.isnan(loaded.labels), np.isnan(grid))
    np.testing.assert_array_equal(loaded.labels[~np.isnan(grid)], grid[~np.isnan(grid)])


def test_annotation_csv_rejects_bad_rating(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("video_id,r0,r1\nv0,1,2\nv1,5,0\n")
    with pytest.raises(ParseError) as exc_info:
        load_annotation_csv(path)
    assert exc_info.value.line == 3


def test_annotation_csv_rejects_non_integer(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("video_id,r0,r1\nv0,one,2\n")
    with pytest.raises(ParseError):
        load_annotation_csv(path)


@pytest.mark.parametrize(
    "raw,line,message",
    [
        (b"\xffvideo_id,r0,r1\nv0,1,2\n", 1, "not UTF-8"),
        (b"video_id,r0,r1\nv0,1,2\nv1,\xff1,0\n", 3, "not UTF-8"),
        (b"video_id,r0,r1\nv0,1,2\nv1," + b"1" * 200_000 + b",0\n", 3, "field larger than"),
        (b"video_id,r0,r1\nv0,1,2\nv1,0,0\nv0,3,3\n", 4, "duplicate video 'v0'"),
        (b"video_id,r0,r1,r0\nv0,1,2,2\n", 1, "duplicate rater 'r0'"),
        # ' 2 ' reads as 2, so each refusal falls at line 3
        *(
            (f"video_id,r0,r1\nv0, 2 ,1\nv1,{cell},0\n".encode(), 3, re.escape(f"rating '{cell}' is not a level 0..3"))
            for cell in ("\u0662", "\uff13", "0_1", "+2", "02")
        ),
    ],
    ids=[
        "header-not-utf8",
        "row-not-utf8",
        "overlong-field",
        "repeated-video",
        "repeated-rater",
        "level-arabic-indic",
        "level-full-width",
        "level-underscore",
        "level-plus",
        "level-leading-zero",
    ],
)
def test_annotation_csv_unreadable_record_is_a_parse_error_at_its_line(
    tmp_path, raw, line, message
):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=message) as exc_info:
        load_annotation_csv(path)
    assert exc_info.value.line == line


def test_annotation_csv_needs_two_raters(tmp_path):
    path = tmp_path / "narrow.csv"
    path.write_text("video_id,r0\nv0,1\n")
    with pytest.raises(ParseError):
        load_annotation_csv(path)


def test_annotation_matrix_validation():
    with pytest.raises(ValueError):
        _matrix(np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        AnnotationMatrix(np.zeros((2, 2)), ["v0"], ["r0", "r1"])
