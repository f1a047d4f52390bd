"""Annotation reliability, label fusion, and regression metrics.

Multiple annotators rate each video on the 0-3 intensity scale; raters whose
mean pairwise agreement (quadratic-weighted kappa) falls below a threshold
are discarded and the rest are averaged into one label per video.  Model
quality is reported as overall / per-level mean squared error plus Pearson
correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bags import LABELS, parse_level
from .errors import DataError, NumericError, ParseError
from .textio import JSON_NUMBER, check_fields, read_csv, read_json, write_csv, write_json

RELIABILITY_THRESHOLD = 0.4


@dataclass
class AnnotationMatrix:
    """Per-video labels from at least 2 raters; NaN marks a missing rating.
    Ids are unique and nonempty with no blanks around them."""

    labels: np.ndarray  # (n_videos, n_raters) float64, entries in LABELS or NaN
    video_ids: list[str]
    rater_ids: list[str]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        v, r = self.labels.shape
        if v != len(self.video_ids) or r != len(self.rater_ids):
            raise ValueError("labels grid does not match id lists")
        if v < 1 or r < 2:
            raise ValueError(f"annotations need a video and 2 raters, not {v} and {r}")
        for ids in (self.video_ids, self.rater_ids):
            if len(set(ids)) != len(ids):
                raise ValueError(f"repeated id in {ids!r}")
            bad = [i for i in ids if not i or i != i.strip()]
            if bad:
                raise ValueError(f"an id is nonempty with no blanks around it, not {bad[0]!r}")
        present = self.labels[~np.isnan(self.labels)]
        if present.size and not np.isin(present, LABELS).all():
            raise ValueError(f"ratings must be integers in [{LABELS[0]}, {LABELS[-1]}]")


@dataclass
class MetricsReport:
    """Everything reported for one prediction run."""

    mse: float
    classwise_mse: dict[int, float | None]
    pcc: float
    class_counts: dict[int, int]

    def __post_init__(self):
        for by_level in (self.classwise_mse, self.class_counts):
            if not set(by_level) <= set(LABELS):
                raise ValueError(f"a report's levels are {LABELS}, not {list(by_level)}")
        for v in self.classwise_mse.values():
            finite = isinstance(v, JSON_NUMBER) and not isinstance(v, bool) and math.isfinite(v)
            if not (v is None or finite):
                raise ValueError(f"a per-level MSE is a finite number or null, not {v!r}")
        for n in self.class_counts.values():
            if type(n) is not int or n < 0:  # a bool is never a count
                raise ValueError(f"a class count is a nonnegative integer, not {n!r}")

    def to_dict(self) -> dict:
        return {
            "mse": self.mse,
            "pcc": self.pcc,
            "classwise_mse": {str(k): v for k, v in sorted(self.classwise_mse.items())},
            "class_counts": {str(k): v for k, v in sorted(self.class_counts.items())},
        }

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "MetricsReport":
        raw = read_json(path, "metrics report")
        levels = ("classwise_mse", "class_counts")
        spec = {"mse": JSON_NUMBER, "pcc": JSON_NUMBER, **dict.fromkeys(levels, dict)}
        check_fields(path, raw, spec, "metrics report")
        try:
            by_level = {key: {parse_level(k): v for k, v in raw[key].items()} for key in levels}
        except ValueError as exc:
            raise ParseError(path, 1, f"metrics report key {exc}") from None
        try:
            return cls(mse=raw["mse"], pcc=raw["pcc"], **by_level)
        except ValueError as exc:
            raise ParseError(path, 1, str(exc)) from None


# ---------------------------------------------------------------------------
# agreement


def _as_label_vector(values):
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("labels must form a nonempty vector")
    if not np.isin(arr, LABELS).all():
        raise ValueError(f"labels must be integers in [{LABELS[0]}, {LABELS[-1]}]")
    return arr.astype(np.int64)


def quadratic_weighted_kappa(a, b) -> float:
    """Chance-corrected agreement with (i-j)^2 disagreement weights.

    kappa = 1 - sum(w * O) / sum(w * E) with O the observed joint counts and
    E the outer product of the marginals (same total count).  Two raters who
    are constant and identical agree perfectly by convention.
    """
    a = _as_label_vector(a)
    b = _as_label_vector(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")

    observed = np.zeros((len(LABELS), len(LABELS)))
    np.add.at(observed, (a, b), 1.0)
    grid = np.asarray(LABELS, dtype=np.float64)
    weights = (grid[:, None] - grid[None, :]) ** 2 / (LABELS[-1] - LABELS[0]) ** 2
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / a.size

    denominator = float((weights * expected).sum())
    numerator = float((weights * observed).sum())
    if denominator == 0.0:
        # both raters constant on the same level: no room for disagreement
        if numerator == 0.0:
            return 1.0
        raise DataError("expected disagreement is zero but observed disagreement is not")
    return float(1.0 - numerator / denominator)


def rater_reliability(annotations: AnnotationMatrix) -> np.ndarray:
    """Mean pairwise kappa of each rater against every other rater.

    Pairs are scored over their jointly rated videos; a rater sharing no
    videos with anyone gets reliability 0.
    """
    labels = annotations.labels
    present = ~np.isnan(labels)
    out = np.zeros(labels.shape[1])
    for i in range(labels.shape[1]):
        kappas = []
        for j in range(labels.shape[1]):
            if j == i:
                continue
            joint = present[:, i] & present[:, j]
            if not joint.any():
                continue
            kappas.append(quadratic_weighted_kappa(labels[joint, i], labels[joint, j]))
        out[i] = float(np.mean(kappas)) if kappas else 0.0
    return out


def fuse_labels(
    annotations: AnnotationMatrix,
    reliability_threshold: float = RELIABILITY_THRESHOLD,
) -> tuple[np.ndarray, list[str]]:
    """Per-video consensus labels plus the raters that were discarded.

    Raters with mean pairwise kappa below the threshold are dropped; each
    video's label is the mean of the remaining raters' present ratings,
    rounded half up (a mean of levels is never negative).
    """
    reliability = rater_reliability(annotations)
    keep = reliability >= reliability_threshold
    dropped = [annotations.rater_ids[i] for i in np.flatnonzero(~keep)]
    if not keep.any():
        raise DataError(f"all {len(keep)} raters fell below {reliability_threshold}")
    kept = annotations.labels[:, keep]
    fused = np.empty(len(kept), dtype=np.int64)
    for v, ratings in enumerate(kept):
        row = ratings[~np.isnan(ratings)]
        if row.size == 0:
            raise DataError(f"video {annotations.video_ids[v]}: no reliable ratings present")
        fused[v] = math.floor(row.mean() + 0.5)
    return fused, dropped


# ---------------------------------------------------------------------------
# regression metrics


def _paired(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.ndim != 1 or pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.size < 1:
        raise ValueError("need at least one sample")
    for side, values in (("pred", pred), ("truth", truth)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NumericError(f"non-finite {side} value {values[bad[0]]} at index {bad[0]}")
    return pred, truth


def mse(pred, truth) -> float:
    pred, truth = _paired(pred, truth)
    return float(np.mean((pred - truth) ** 2))


def classwise_mse(pred, truth) -> dict[int, float | None]:
    """MSE over the samples of each truth level; absent levels map to None."""
    pred, truth = _paired(pred, truth)
    out: dict[int, float | None] = {}
    for level in LABELS:
        mask = truth == level
        out[level] = float(np.mean((pred[mask] - level) ** 2)) if mask.any() else None
    return out


def _unit_scaled(values):
    """values times the power of two that puts their max-abs in [0.5, 1).

    A power of two changes no significant digit (bar entries pushed out of
    the normal range, negligible next to the max), so the correlation is
    unchanged, while the variance inside np.corrcoef can no longer underflow
    (subnormal inputs) or overflow (inputs near the float maximum).
    """
    return np.ldexp(values, -np.frexp(np.abs(values).max())[1])


def pcc(pred, truth) -> float:
    pred, truth = _paired(pred, truth)
    if pred.size < 2:
        raise ValueError("correlation needs at least 2 samples")
    if (pred == pred[0]).all() or (truth == truth[0]).all():
        raise DataError("constant input has no defined correlation")
    r = float(np.corrcoef(_unit_scaled(pred), _unit_scaled(truth))[0, 1])
    if not math.isfinite(r):
        raise DataError("non-finite input has no defined correlation")
    return r


def compute_report(pred, truth) -> MetricsReport:
    """The report of predictions `pred` against labels `truth`; a mean squared
    error that overflows is a NumericError, as a report holds finite numbers."""
    pred, truth = _paired(pred, truth)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        overall, by_level = mse(pred, truth), classwise_mse(pred, truth)
    if not all(math.isfinite(v) for v in (overall, *by_level.values()) if v is not None):
        raise NumericError("the mean squared error of the predictions overflows float64")
    counts = {level: int((truth == level).sum()) for level in LABELS}
    return MetricsReport(
        mse=overall, classwise_mse=by_level, pcc=pcc(pred, truth), class_counts=counts
    )


# ---------------------------------------------------------------------------
# annotation CSV (rows = videos, columns = raters, blank = missing)


def load_annotation_csv(path) -> AnnotationMatrix:
    header, records = read_csv(path, "annotations")
    if not header or len(header) < 3:
        raise ParseError(path, 1, "expected video_id plus at least 2 rater columns")
    rater_ids = header[1:]
    repeated = [rater_id for k, rater_id in enumerate(rater_ids) if rater_id in rater_ids[:k]]
    if repeated:
        raise ParseError(path, 1, f"duplicate rater {repeated[0]!r}")
    rows = {}  # video id -> its ratings
    for lineno, row in records:
        if len(row) != len(header):
            raise ParseError(path, lineno, f"expected {len(header)} cells")
        video_id = row[0].strip()
        if video_id in rows:
            raise ParseError(path, lineno, f"duplicate video {video_id!r}")
        values = rows[video_id] = []
        for cell in row[1:]:
            cell = cell.strip()
            if not cell:
                values.append(np.nan)
                continue
            try:
                values.append(float(parse_level(cell)))
            except ValueError as exc:
                raise ParseError(path, lineno, f"rating {exc}") from None
    if not rows:
        raise ParseError(path, 2, "no annotation rows")
    return AnnotationMatrix(
        labels=np.asarray(list(rows.values())), video_ids=list(rows), rater_ids=rater_ids
    )


def save_annotation_csv(annotations: AnnotationMatrix, path) -> None:
    cells = [["" if math.isnan(v) else str(int(v)) for v in row] for row in annotations.labels]
    rows = ([vid, *row] for vid, row in zip(annotations.video_ids, cells))
    write_csv(path, ["video_id", *annotations.rater_ids], rows)
