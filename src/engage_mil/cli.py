"""Command-line surface: extract, synth, train, predict, localize, eval.

Every command takes --config JSON plus a few overriding flags and writes
deterministic artifacts, so re-running with the same config and seed gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import features as feats
from .audit import note_read
from .bags import (
    Dataset,
    SyntheticSpec,
    check_fields,
    kmeans,
    load_dataset,
    load_planted_csv,
    make_bags,
    relabel,
    save_dataset,
    save_planted_csv,
    synth_generate,
)
from .baselines import (
    KernelSpec,
    SvrConfig,
    aggregate_video,
    bayesian_ridge_train,
    linear_predict,
    load_linear,
    load_ridge,
    load_svr,
    ridge_predict,
    save_linear,
    save_ridge,
    save_svr,
    sgd_linear_train,
    svr_predict_many,
    svr_train,
)
from .errors import (
    ConfigError,
    DataError,
    EngageMilError,
    IncompatibleArtifactsError,
    InvalidSplitError,
    ParseError,
)
from .features import SegmentFeature, SegmentWindow
from .metrics import compute_report
from .networks import (
    MilNet,
    SeqNet,
    TrainConfig,
    build_mil_net,
    build_seq_net,
    load_net,
    localize_dataset,
    predict_dataset,
    save_net,
    train,
)
from .baselines import LinearModel, SvrModel

LOGGER = logging.getLogger("engage_mil")
LOG_ENV = "ENGAGE_MIL_LOG"
_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

FEATURE_KINDS = ("lbptop", "posegaze")
MODEL_KINDS = ("svr", "sgd", "ridge", "milnet", "seqnet")
RELABEL_STRATEGIES = ("noisy", "kmeans-mode", "kmeans-mean")

_TRAIN_DEFAULTS = {
    "step_size": 0.01,
    "epochs": 300,
    "batch_size": 16,
    "scale_labels": None,
    "clip_norm": 5.0,
}
_SVR_DEFAULTS = {"c": 1.0, "epsilon": 0.1, "sigma": 1.0, "tol": 1e-3}
_SGD_DEFAULTS = {"penalty": 1e-4, "epochs": 200, "eta0": 0.01}
_RIDGE_DEFAULTS = {"max_iter": 300, "tol": 1e-6, "fit_intercept": True}
_SYNTH_DEFAULTS = {
    "subjects": 10,
    "videos": 40,
    "m": 100,
    "dim": 8,
    "class_distribution": [0.25, 0.25, 0.25, 0.25],
    "rho": 0.3,
    "noise_scale": 0.5,
}


@dataclass
class LocalizationRecord:
    video_id: str
    segment_index: int
    intensity: float
    planted: float | None = None

    def __post_init__(self):
        if self.segment_index < 0:
            raise ValueError("segment index must be nonnegative")


@dataclass
class RunConfig:
    seed: int = 0
    jobs: int = 1
    feature: str = "lbptop"
    window: int = 20
    stride: int = 10
    target_fps: float = 6.0
    grid: tuple = (1, 1)
    xy_frames: str = "all"
    m: int = 100
    model: str = "milnet"
    pooling: str = "topk"
    pool_k: int = 10
    hidden: tuple = (128, 64, 32)
    seq_hidden: int = 32
    seq_dense: tuple = (64, 32)
    relabel: str = "noisy"
    kmeans_k: int = 4
    train: dict | None = None
    svr: dict | None = None
    sgd: dict | None = None
    ridge: dict | None = None
    synth: dict | None = None
    input: str | None = None
    labels: str | None = None
    dataset: str | None = None
    train_dataset: str | None = None
    model_path: str | None = None
    out: str | None = None
    planted: str | None = None

    def __post_init__(self):
        self.train = {**_TRAIN_DEFAULTS, **(self.train or {})}
        self.svr = {**_SVR_DEFAULTS, **(self.svr or {})}
        self.sgd = {**_SGD_DEFAULTS, **(self.sgd or {})}
        self.ridge = {**_RIDGE_DEFAULTS, **(self.ridge or {})}
        self.synth = {**_SYNTH_DEFAULTS, **(self.synth or {})}
        if self.feature not in FEATURE_KINDS:
            raise ConfigError(f"feature must be one of {FEATURE_KINDS}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}")
        if self.relabel not in RELABEL_STRATEGIES:
            raise ConfigError(f"relabel must be one of {RELABEL_STRATEGIES}")
        if self.pooling not in ("topk", "mean"):
            raise ConfigError("pooling must be 'topk' or 'mean'")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.m < 1 or self.window < 2 or self.stride < 1:
            raise ConfigError("m, window, stride out of range")
        if self.target_fps <= 0:
            raise ConfigError("target_fps must be positive")
        if self.pool_k < 1 or self.kmeans_k < 1:
            raise ConfigError("pool_k and kmeans_k must be at least 1")
        self.grid = tuple(int(g) for g in self.grid)
        if len(self.grid) != 2 or min(self.grid) < 1:
            raise ConfigError("grid must be two positive integers")
        self.hidden = tuple(int(h) for h in self.hidden)
        self.seq_dense = tuple(int(h) for h in self.seq_dense)
        if not self.hidden or min(self.hidden) < 1 or len(self.seq_dense) != 2:
            raise ConfigError("bad network width configuration")

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in (overrides or {}).items():
            if value is not None:
                raw[key] = value
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# small shared writers/readers


def _write_rows(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(value: float) -> str:
    return repr(float(value))


def load_labels_csv(path) -> dict[str, int]:
    """Two-column video_id,label file mapping each video to its 0-3 level."""
    note_read(path)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read labels {path}: {exc}") from None
    lines = text.splitlines()
    if not lines or lines[0].strip() != "video_id,label":
        raise ParseError(path, 1, "expected header 'video_id,label'")
    labels: dict[str, int] = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(path, number, f"expected 2 fields, found {len(parts)}")
        video_id, value = parts[0].strip(), parts[1].strip()
        try:
            label = int(value)
        except ValueError:
            raise ParseError(path, number, f"label {value!r} is not an integer") from None
        if not 0 <= label <= 3:
            raise ParseError(path, number, f"label {label} outside 0..3")
        if video_id in labels:
            raise ParseError(path, number, f"duplicate video {video_id!r}")
        labels[video_id] = label
    return labels


# ---------------------------------------------------------------------------
# extract


def _extract_one(task):
    directory, kind, window, stride, target_fps, grid, xy_frames = task
    folder = Path(directory)
    if kind == "lbptop":
        seq = feats.load_frame_archive(folder)
        sub = feats.subsample(seq, target_fps)
        windows = feats.segment(len(sub), window, stride)
        hists = feats.lbp_top_many(sub, windows, xy_frames=xy_frames, grid=grid)
        vectors = np.stack([h.bins for h in hists])
        return seq.video_id, seq.subject_id, vectors
    manifest_path = folder / "manifest.json"
    note_read(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(manifest_path, 1, exc.msg) from None
    for key in ("video_id", "subject_id", "fps"):
        if key not in manifest:
            raise ParseError(manifest_path, 1, f"missing manifest key {key!r}")
    track = feats.load_pose_gaze_csv(folder / "pose.csv")
    step = feats.sample_step(float(manifest["fps"]), target_fps)
    sub = track.every(step)
    windows = feats.segment(len(sub), window, stride)
    vectors = np.stack(
        [feats.pose_gaze_feature(sub, w).vector for w in windows]
    )
    return manifest["video_id"], manifest["subject_id"], vectors


def cmd_extract(config: RunConfig) -> None:
    if not config.input:
        raise ConfigError("extract needs an 'input' directory")
    if not config.out:
        raise ConfigError("extract needs an output directory ('out')")
    if not config.labels:
        raise ConfigError("extract needs a 'labels' CSV")
    root = Path(config.input)
    if not root.is_dir():
        raise DataError(f"input directory not found: {root}")
    video_dirs = sorted(
        d for d in root.iterdir() if d.is_dir() and (d / "manifest.json").exists()
    )
    if not video_dirs:
        raise DataError(f"no videos found under {root}")
    labels = load_labels_csv(config.labels)
    tasks = [
        (
            str(d),
            config.feature,
            config.window,
            config.stride,
            config.target_fps,
            config.grid,
            config.xy_frames,
        )
        for d in video_dirs
    ]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_extract_one, tasks))
    else:
        results = [_extract_one(task) for task in tasks]
    results.sort(key=lambda item: item[0])

    bags = []
    for video_id, subject_id, vectors in results:
        if video_id not in labels:
            raise DataError(f"{video_id}: no entry in the labels file")
        segment_features = [
            SegmentFeature(
                vector=row,
                kind=config.feature,
                window=SegmentWindow(i * config.stride, config.window, config.stride),
            )
            for i, row in enumerate(vectors)
        ]
        print(f"{video_id}: {len(segment_features)} segments")
        bags.append(
            make_bags(
                segment_features,
                config.m,
                video_id=video_id,
                subject_id=subject_id,
                label=labels[video_id],
            )
        )
    dataset = Dataset(bags, config.feature, config.m)
    index = save_dataset(dataset, config.out)
    LOGGER.info("extract: wrote %d bags to %s", len(bags), index)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(config: RunConfig) -> None:
    if not config.out:
        raise ConfigError("synth needs an output directory ('out')")
    s = config.synth
    spec = SyntheticSpec(
        subjects=int(s["subjects"]),
        videos=int(s["videos"]),
        m=int(s["m"]),
        dim=int(s["dim"]),
        class_distribution=tuple(float(p) for p in s["class_distribution"]),
        rho=float(s["rho"]),
        noise_scale=float(s["noise_scale"]),
        seed=config.seed,
    )
    dataset, planted = synth_generate(spec)
    index = save_dataset(dataset, config.out)
    save_planted_csv(dataset, planted, Path(config.out) / "planted.csv")
    for level, count in sorted(dataset.class_counts().items()):
        print(f"level {level}: {count} videos")
    LOGGER.info("synth: wrote %d bags to %s", len(dataset), index)


# ---------------------------------------------------------------------------
# model helpers shared by train/predict/localize/eval


def _instance_labeling(config: RunConfig, dataset: Dataset):
    if config.relabel == "noisy":
        return relabel(dataset, "noisy")
    clusters = kmeans(dataset.instance_matrix(), config.kmeans_k, seed=config.seed)
    return relabel(dataset, config.relabel, clusters.assignments)


def _train_meta(config: RunConfig, dataset: Dataset) -> dict:
    return {
        "dim": dataset.dim,
        "feature_kind": dataset.feature_kind,
        "m": dataset.m,
        "model": config.model,
        "relabel": config.relabel,
        "train_subjects": sorted(dataset.subjects()),
    }


def cmd_train(config: RunConfig) -> None:
    if not config.dataset:
        raise ConfigError("train needs a 'dataset' index path")
    if not config.model_path:
        raise ConfigError("train needs a model output path ('model_path')")
    if not config.out:
        raise ConfigError("train needs a loss-trace CSV path ('out')")
    dataset = load_dataset(config.dataset)
    meta = _train_meta(config, dataset)

    if config.model in ("svr", "sgd", "ridge"):
        labeling = _instance_labeling(config, dataset)
        x = dataset.instance_matrix()
        y = labeling.labels.reshape(-1)
        if config.model == "svr":
            svr_cfg = SvrConfig(
                c=float(config.svr["c"]),
                epsilon=float(config.svr["epsilon"]),
                kernel=KernelSpec("gaussian", float(config.svr["sigma"])),
                tol=float(config.svr["tol"]),
            )
            model = svr_train(x, y, svr_cfg)
            trace = model.objective_trace
            save_svr(model, config.model_path, meta=meta)
        elif config.model == "sgd":
            model, trace = sgd_linear_train(
                x,
                y,
                penalty=float(config.sgd["penalty"]),
                epochs=int(config.sgd["epochs"]),
                eta0=float(config.sgd["eta0"]),
                seed=config.seed,
            )
            save_linear(model, config.model_path, meta=meta)
        else:
            posterior = bayesian_ridge_train(
                x,
                y,
                max_iter=int(config.ridge["max_iter"]),
                tol=float(config.ridge["tol"]),
                fit_intercept=bool(config.ridge["fit_intercept"]),
            )
            trace = []
            save_ridge(posterior, config.model_path, meta=meta)
    else:
        if config.model == "milnet":
            net = build_mil_net(
                dataset.dim,
                hidden=config.hidden,
                pooling=config.pooling,
                k=config.pool_k,
                seed=config.seed,
            )
        else:
            net = build_seq_net(
                dataset.dim,
                m=dataset.m,
                hidden=config.seq_hidden,
                dense=config.seq_dense,
                seed=config.seed,
            )
        train_cfg = TrainConfig(
            step_size=float(config.train["step_size"]),
            epochs=int(config.train["epochs"]),
            batch_size=int(config.train["batch_size"]),
            seed=config.seed,
            scale_labels=config.train["scale_labels"],
            clip_norm=float(config.train["clip_norm"]),
        )
        trained, trace = train(net, dataset, train_cfg)
        save_net(trained, config.model_path, meta=meta)

    _write_rows(
        config.out,
        ["epoch", "loss"],
        ([str(i), _fmt(v)] for i, v in enumerate(trace)),
    )
    LOGGER.info("train: %s model written to %s", config.model, config.model_path)


def _load_model(path):
    note_read(path)
    target = Path(path)
    if not target.exists():
        raise DataError(f"model file not found: {target}")
    head = target.open("rb").read(4)
    if head == b"EMNN":
        return load_net(target)
    if head == b"EMSV":
        return load_svr(target)
    try:
        raw = json.loads(target.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ParseError(target, 1, "unrecognized model file") from None
    check_fields(target, raw, {}, "model file")
    kind = raw.get("kind")
    if kind == "linear":
        return load_linear(target)
    if kind == "ridge":
        return load_ridge(target)
    raise ParseError(target, 1, f"unrecognized model kind {kind!r}")


def _check_compat(model, meta: dict, dataset: Dataset) -> None:
    feature_kind = meta.get("feature_kind")
    if feature_kind is not None and feature_kind != dataset.feature_kind:
        raise IncompatibleArtifactsError(
            f"model was trained on {feature_kind!r} features, "
            f"dataset holds {dataset.feature_kind!r}"
        )
    if isinstance(model, (MilNet, SeqNet)):
        model_dim = model.in_dim
    elif isinstance(model, SvrModel):
        model_dim = model.dim
    elif isinstance(model, LinearModel):
        model_dim = model.weights.shape[0]
    else:
        model_dim = model.mean.shape[0]
    if model_dim != dataset.dim:
        raise IncompatibleArtifactsError(
            f"model expects dimension {model_dim}, dataset has {dataset.dim}"
        )
    if isinstance(model, SeqNet) and model.m != dataset.m:
        raise IncompatibleArtifactsError(
            f"model expects {model.m} segments per bag, dataset has {dataset.m}"
        )


def _instance_scores(model, instances: np.ndarray) -> np.ndarray:
    if isinstance(model, SvrModel):
        return svr_predict_many(model, instances)
    if isinstance(model, LinearModel):
        return linear_predict(model, instances)
    return ridge_predict(model, instances)


def _predict_bags(model, dataset: Dataset) -> np.ndarray:
    if isinstance(model, (MilNet, SeqNet)):
        return predict_dataset(model, dataset)
    return np.array(
        [aggregate_video(_instance_scores(model, bag.instances)) for bag in dataset.bags]
    )


def _localize_bags(model, dataset: Dataset):
    """Per-segment intensities of every bag, in dataset order."""
    if isinstance(model, (MilNet, SeqNet)):
        return localize_dataset(model, dataset)
    return [_instance_scores(model, bag.instances) for bag in dataset.bags]


def cmd_predict(config: RunConfig) -> None:
    if not config.dataset:
        raise ConfigError("predict needs a 'dataset' index path")
    if not config.model_path:
        raise ConfigError("predict needs a model path ('model_path')")
    if not config.out:
        raise ConfigError("predict needs an output CSV path ('out')")
    dataset = load_dataset(config.dataset)
    model, meta = _load_model(config.model_path)
    _check_compat(model, meta, dataset)
    predictions = _predict_bags(model, dataset)
    order = np.argsort([bag.video_id for bag in dataset.bags])
    _write_rows(
        config.out,
        ["video_id", "label", "prediction"],
        (
            [dataset.bags[i].video_id, str(dataset.bags[i].label), _fmt(predictions[i])]
            for i in order
        ),
    )
    LOGGER.info("predict: wrote %d rows to %s", len(dataset), config.out)


def cmd_localize(config: RunConfig) -> None:
    if not config.dataset:
        raise ConfigError("localize needs a 'dataset' index path")
    if not config.model_path:
        raise ConfigError("localize needs a model path ('model_path')")
    if not config.out:
        raise ConfigError("localize needs an output CSV path ('out')")
    dataset = load_dataset(config.dataset)
    model, meta = _load_model(config.model_path)
    _check_compat(model, meta, dataset)
    planted = load_planted_csv(config.planted) if config.planted else None

    intensities = _localize_bags(model, dataset)
    records: list[LocalizationRecord] = []
    for i in sorted(range(len(dataset)), key=lambda i: dataset.bags[i].video_id):
        bag, values = dataset.bags[i], intensities[i]
        truth = None
        if planted is not None:
            if bag.video_id not in planted:
                raise DataError(f"{bag.video_id}: missing from the planted-truth file")
            truth = planted[bag.video_id]
        for index, value in enumerate(values):
            records.append(
                LocalizationRecord(
                    video_id=bag.video_id,
                    segment_index=index,
                    intensity=float(value),
                    planted=None if truth is None else float(truth[index]),
                )
            )
    header = ["video_id", "segment_index", "intensity"]
    if planted is not None:
        header.append("planted_intensity")
    _write_rows(
        config.out,
        header,
        (
            [r.video_id, str(r.segment_index), _fmt(r.intensity)]
            + ([] if planted is None else [_fmt(r.planted)])
            for r in records
        ),
    )
    LOGGER.info("localize: wrote %d rows to %s", len(records), config.out)


def cmd_eval(config: RunConfig) -> None:
    if not config.dataset:
        raise ConfigError("eval needs a 'dataset' index path")
    if not config.model_path:
        raise ConfigError("eval needs a model path ('model_path')")
    if not config.out:
        raise ConfigError("eval needs an output JSON path ('out')")
    dataset = load_dataset(config.dataset)
    model, meta = _load_model(config.model_path)
    _check_compat(model, meta, dataset)

    test_subjects = set(dataset.subjects())
    train_subjects = set(meta.get("train_subjects", []))
    if config.train_dataset:
        train_subjects |= set(load_dataset(config.train_dataset).subjects())
    overlap = sorted(test_subjects & train_subjects)
    if overlap:
        raise InvalidSplitError(
            f"train and test share subjects: {', '.join(overlap[:5])}"
        )

    predictions = _predict_bags(model, dataset)
    labels = np.array([bag.label for bag in dataset.bags], dtype=np.float64)
    report = compute_report(predictions, labels)
    report.save(config.out)
    print(f"mse={report.mse} pcc={report.pcc}")
    LOGGER.info("eval: report written to %s", config.out)


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "extract": cmd_extract,
    "synth": cmd_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "localize": cmd_localize,
    "eval": cmd_eval,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engage-mil",
        description="Weakly supervised engagement intensity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--jobs", type=int, default=None)
        cmd.add_argument("--model", default=None, help="model file path override")
        cmd.add_argument("--out", default=None, help="output path override")
    return parser


def _setup_logging() -> None:
    level_name = os.environ.get(LOG_ENV, "error")
    if level_name not in _LOG_LEVELS:
        raise ConfigError(
            f"{LOG_ENV} must be one of {sorted(_LOG_LEVELS)}, got {level_name!r}"
        )
    LOGGER.handlers.clear()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    LOGGER.addHandler(handler)
    LOGGER.setLevel(_LOG_LEVELS[level_name])
    LOGGER.propagate = False


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _setup_logging()
        config = RunConfig.from_file(
            args.config,
            overrides={
                "seed": args.seed,
                "jobs": args.jobs,
                "model_path": args.model,
                "out": args.out,
            },
        )
        _COMMANDS[args.command](config)
    except EngageMilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
