"""Output checks for one repetition, read from the artifacts on disk.

Each check is a (name, passed, detail) triple; the benchmark counts every
one as attempted and every one that did not pass as failed.  The files are
read with the benchmark's own parsers, not engage_mil's, so a defect in a
reader cannot hide a defect in the matching writer.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

FEATURE_HEADER = struct.Struct("<4sIII")  # magic, version, m, dim
PLANE_BINS = 59
LBP_TOP_DIM = 3 * PLANE_BINS
POSE_GAZE_DIM = 9
# Acceptance criterion 7: the MIL net beats a constant predictor by a wide
# margin and its per-segment scores track the planted truth.
MIL_MAX_MSE_RATIO = 0.6
MIL_MIN_LOC_PCC = 0.6
SVR_MAX_MSE_RATIO = 1.0


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under `root`, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def digest_check(name: str, reference: dict[str, str], current: dict[str, str]):
    """Artifacts byte-identical to a reference repetition's."""
    changed = sorted(k for k in reference.keys() | current.keys() if reference.get(k) != current.get(k))
    return name, not changed, "differ: " + ", ".join(changed[:5]) if changed else ""


def read_features(path: Path) -> np.ndarray:
    data = path.read_bytes()
    magic, _, m, dim = FEATURE_HEADER.unpack_from(data)
    if magic != b"EMIL" or len(data) != FEATURE_HEADER.size + 4 * m * dim:
        raise ValueError(f"{path.name}: malformed feature file")
    return np.frombuffer(data, dtype="<f4", offset=FEATURE_HEADER.size).reshape(m, dim)


def _windows(n: int, step: int, window: int, stride: int) -> int:
    kept = len(range(0, n, step))
    return (kept - window) // stride + 1


def _segment_counts(output: str) -> dict[str, int]:
    return {v: int(n) for v, n in re.findall(r"^(\S+): (\d+) segments$", output, re.M)}


def _dataset_check(name, folder: Path, videos: int, m: int, dim: int, rows_ok=None):
    try:
        index = json.loads((folder / "index.json").read_text())
        arrays = [read_features(folder / r["path"]) for r in index]
    except (OSError, ValueError, KeyError) as exc:
        return name, False, str(exc)
    shapes = {a.shape for a in arrays}
    ok = len(index) == videos and shapes == {(m, dim)}
    ok = ok and all(np.isfinite(a).all() and (rows_ok is None or rows_ok(a)) for a in arrays)
    return name, ok, f"{len(index)} bags, shapes {sorted(shapes)}"


def _lbp_rows_sum_to_one(a: np.ndarray) -> bool:
    sums = a.astype(np.float64).reshape(a.shape[0], -1, PLANE_BINS).sum(axis=2)
    return bool(np.abs(sums - 1.0).max() <= 1e-6)


def check_video_extract(spec: dict, art: Path, steps: dict) -> tuple[list, dict]:
    step = math.floor(spec["fps"] / spec["target_fps"] + 0.5)
    w, s = spec["window"], spec["stride"]
    expected = {
        "lbptop": (spec["frame_videos"], _windows(spec["frames"], step, w, s)),
        "posegaze": (spec["pose_videos"], _windows(spec["pose_rows"], step, w, s)),
    }
    checks = []
    for feature, (videos, windows) in expected.items():
        counts = _segment_counts(steps[f"extract_{feature}"]["output"])
        checks.append(
            (
                f"{feature} segment counts",
                len(counts) == videos and set(counts.values()) == {windows},
                f"expected {videos} x {windows}, got {sorted(set(counts.values()))}",
            )
        )
    checks.append(
        _dataset_check(
            "lbptop chunks sum to 1",
            art / "lbptop",
            spec["frame_videos"],
            spec["m"],
            LBP_TOP_DIM,
            _lbp_rows_sum_to_one,
        )
    )
    checks.append(
        _dataset_check("posegaze dataset", art / "posegaze", spec["pose_videos"], spec["m"], POSE_GAZE_DIM)
    )
    return checks, {}


def _labels(index_path: Path) -> dict[str, int]:
    return {r["video_id"]: r["label"] for r in json.loads(index_path.read_text())}


def _model_quality(inputs: Path, art: Path, model: str) -> dict:
    """Eval MSE over a constant train-mean predictor, and localization PCC."""
    train = np.array(list(_labels(inputs / "train" / "index.json").values()), dtype=float)
    test = _labels(inputs / "test" / "index.json")
    truth = np.array(list(test.values()), dtype=float)
    constant = float(np.mean((truth - train.mean()) ** 2))
    report = json.loads((art / f"{model}-eval.json").read_text())
    with open(art / f"{model}-predict.csv", newline="") as fh:
        predicted = {r["video_id"] for r in csv.DictReader(fh)}
    planted = {}
    with open(inputs / "test" / "planted.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            planted[r["video_id"], int(r["instance_index"])] = float(r["planted_intensity"])
    with open(art / f"{model}-localize.csv", newline="") as fh:
        rows = [(r["video_id"], int(r["segment_index"]), float(r["intensity"])) for r in csv.DictReader(fh)]
    scores = np.array([v for _, _, v in rows])
    truths = np.array([planted[v, i] for v, i, _ in rows])
    return {
        "mse_ratio": report["mse"] / constant,
        "loc_pcc": float(np.corrcoef(scores, truths)[0, 1]),
        "predicted_all": predicted == set(test),
        "localized_all": len(rows) == len(planted),
    }


def _quality_checks(inputs: Path, art: Path, model: str, max_ratio=None, min_loc=None):
    try:
        q = _model_quality(inputs, art, model)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return [(f"{model} outputs", False, str(exc))], {}
    checks = [
        (f"{model} predicts every test video", q["predicted_all"], ""),
        (f"{model} localizes every test segment", q["localized_all"], ""),
    ]
    if max_ratio is not None:
        checks.append((f"{model} mse_ratio < {max_ratio}", q["mse_ratio"] < max_ratio, f"{q['mse_ratio']:.4f}"))
    if min_loc is not None:
        checks.append((f"{model} loc_pcc >= {min_loc}", q["loc_pcc"] >= min_loc, f"{q['loc_pcc']:.4f}"))
    return checks, {f"{model}.mse_ratio": q["mse_ratio"], f"{model}.loc_pcc": q["loc_pcc"]}


def check_networks(inputs: Path, art: Path) -> tuple[list, dict]:
    checks, quality = _quality_checks(inputs, art, "milnet", MIL_MAX_MSE_RATIO, MIL_MIN_LOC_PCC)
    # SeqNet gets no quality bar: at this training length it can still sit on
    # its initial plateau for some seeds, which the repository does not treat
    # as a defect.  Its figures are recorded all the same.
    more, seq_quality = _quality_checks(inputs, art, "seqnet")
    return checks + more, {**quality, **seq_quality}


def check_svr(spec: dict, inputs: Path, art: Path) -> tuple[list, dict]:
    checks, quality = _quality_checks(inputs, art, "svr", SVR_MAX_MSE_RATIO)
    grid = spec["grid"]
    try:
        result = json.loads((art / "grid.json").read_text())
        table = np.array(result["table"])
        best = table[grid["c"].index(result["c"]), grid["sigma"].index(result["sigma"])]
        ok = table.shape == (len(grid["c"]), len(grid["sigma"])) and np.isfinite(table).all()
        ok = ok and best == table.min()
        detail = f"best C={result['c']} sigma={result['sigma']}"
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        ok, detail = False, str(exc)
    checks.append(("grid search picks its best cell", bool(ok), detail))
    return checks, quality


def check(spec: dict, inputs: Path, art: Path, steps: dict) -> tuple[list, dict]:
    """Every check of one repetition, plus the quality figures it measured."""
    checks = [(f"{name} exits 0", s["code"] == 0, s["output"][-500:]) for name, s in steps.items()]
    if spec["workload"] == "video-extract":
        more, quality = check_video_extract(spec, art, steps)
        return checks + more, quality
    nets, nets_quality = check_networks(inputs, art)
    svr, svr_quality = check_svr(spec, inputs, art)
    return checks + nets + svr, {**nets_quality, **svr_quality}
