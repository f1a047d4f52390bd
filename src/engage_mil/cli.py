"""Command-line surface: extract, synth, train, predict, localize, eval.

Every command takes --config JSON plus a few overriding flags and writes
deterministic artifacts, so re-running with the same config and seed gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import features as feats
from .bags import (
    Dataset,
    SyntheticSpec,
    kmeans,
    load_dataset,
    load_planted_csv,
    make_bags,
    model_kind,
    relabel,
    save_dataset,
    save_planted_csv,
    synth_generate,
)
from .baselines import (
    KernelSpec,
    SvrConfig,
    bayesian_ridge_train,
    load_linear,
    load_ridge,
    load_svr,
    save_linear,
    save_ridge,
    save_svr,
    sgd_linear_train,
    svr_train,
)
from .errors import (
    ConfigError,
    DataError,
    EngageMilError,
    IncompatibleArtifactsError,
    InvalidSplitError,
    NumericError,
    ParseError,
    UndefinedCorrelationError,
)
from .metrics import compute_report
from .networks import (
    TrainConfig,
    build_mil_net,
    build_seq_net,
    load_net,
    save_net,
    train,
)
from .textio import FINITE, read_json, read_text

LOGGER = logging.getLogger("engage_mil")
LOG_ENV = "ENGAGE_MIL_LOG"
_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

# The values each string setting may take
_CHOICES = {
    "feature": ("lbptop", "posegaze"),
    "model": ("svr", "sgd", "ridge", "milnet", "seqnet"),
    "relabel": ("noisy", "kmeans-mode", "kmeans-mean"),
    "pooling": ("topk", "mean"),
    "xy_frames": ("all", "center"),
}
# The least value of each bounded integer setting
_LEAST = {"seed": 0, "jobs": 1, "m": 1, "window": 2, "stride": 1, "pool_k": 1, "kmeans_k": 1}


def _keyword_defaults(target, *skip) -> dict:
    return {
        name: p.default
        for name, p in inspect.signature(target).parameters.items()
        if p.default is not p.empty and name not in skip
    }


# Every setting, with its default, whose JSON kind is the setting's (see
# _coerce); a type in place of a default is a setting that is null unless
# given.  A default the library declares is read from the object that uses
# it.  A dict is a nested block: exactly the settings of the library object
# it configures, with that object's defaults (`seed` is the top-level one).
_SETTINGS = {
    "seed": 0,
    "jobs": 1,
    "feature": "lbptop",
    "window": 20,
    "stride": 10,
    "target_fps": 6.0,
    "grid": _keyword_defaults(feats.lbp_top_many)["grid"],
    "xy_frames": _keyword_defaults(feats.lbp_top_many)["xy_frames"],
    "m": 100,
    "model": "milnet",
    "pooling": _keyword_defaults(build_mil_net)["pooling"],
    "pool_k": _keyword_defaults(build_mil_net)["k"],
    "hidden": _keyword_defaults(build_mil_net)["hidden"],
    "seq_hidden": _keyword_defaults(build_seq_net)["hidden"],
    "seq_dense": _keyword_defaults(build_seq_net)["dense"],
    "relabel": "noisy",
    "kmeans_k": 4,
    "train": {**_keyword_defaults(TrainConfig, "seed"), "scale_labels": bool},
    "svr": {**_keyword_defaults(SvrConfig, "kernel"), "sigma": KernelSpec.sigma},
    "sgd": _keyword_defaults(sgd_linear_train, "seed"),
    "ridge": _keyword_defaults(bayesian_ridge_train),
    "synth": _keyword_defaults(SyntheticSpec, "seed"),
    **dict.fromkeys(
        ("input", "labels", "dataset", "train_dataset", "model_path", "out", "planted"), str
    ),
}


def _coerce(default, value):
    """`value` if it is a JSON value of `default`'s kind, else TypeError.  A
    float setting also takes an integer, a type (`str` for a path) also null,
    and a tuple takes an array of its first element's kind."""
    if isinstance(default, type):
        return None if value is None else _coerce(default(), value)
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise TypeError
        return tuple(_coerce(default[0], v) for v in value)
    if isinstance(default, float) and type(value) is int:
        return float(value)
    if type(value) is not type(default):  # a bool is never an int
        raise TypeError
    return value


def _checked(table: dict, raw, block: str = "") -> dict:
    """`table`'s settings, each as given in `raw` (checked by _coerce) or its
    default; a nested block likewise, null meaning all defaults."""
    label = f"{block} config" if block else "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be a JSON object")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown {label} keys: {', '.join(unknown)}")
    settings = {}
    for key, default in table.items():
        value = raw.get(key)
        if isinstance(default, dict):
            settings[key] = _checked(default, {} if value is None else value, key)
        elif key not in raw:
            settings[key] = None if isinstance(default, type) else default
        else:
            try:
                settings[key] = _coerce(default, value)
            except (TypeError, OverflowError):
                name = f"{block}.{key}" if block else key
                raise ConfigError(f"config {name} has a bad value {value!r}") from None
    return settings


class RunConfig:
    """Every setting of a run (see _SETTINGS), and the library objects that
    the nested blocks configure, checked when the config is loaded."""

    def __init__(self, raw: dict):
        self.__dict__.update(_checked(_SETTINGS, raw))
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigError(f"{key} must be one of {choices}")
        for key, least in _LEAST.items():
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}")
        if self.target_fps <= 0:
            raise ConfigError("target_fps must be positive")
        if len(self.grid) != 2 or min(self.grid) < 1:
            raise ConfigError("grid must be two positive integers")
        widths = (*self.hidden, *self.seq_dense, self.seq_hidden)
        if not self.hidden or len(self.seq_dense) != 2 or min(widths) < 1:
            raise ConfigError("bad network width configuration")
        if self.sgd["penalty"] < 0:
            raise ConfigError("sgd penalty must be nonnegative")
        # the other blocks are checked by the library objects they configure,
        # built once, here, for the commands to use
        svr = dict(self.svr)
        try:
            self.svr_config = SvrConfig(kernel=KernelSpec("gaussian", svr.pop("sigma")), **svr)
            self.train_config = TrainConfig(seed=self.seed, **self.train)
            self.synth_spec = SyntheticSpec(seed=self.seed, **self.synth)
        except ValueError as exc:  # a value the library object refuses
            raise ConfigError(f"bad config value: {exc}") from None

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        try:
            raw = read_json(path, "config", **FINITE)
        except ParseError as exc:  # the one input whose read faults are config faults
            raise ConfigError(f"config {path} {exc.message}") from None
        if isinstance(raw, dict):
            raw.update((k, v) for k, v in (overrides or {}).items() if v is not None)
        return cls(raw)


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
    lines = read_text(path, "labels").splitlines()
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


def _check_rate(folder: Path, fps: float, target_fps: float) -> None:
    """A video recorded below the target rate is a fault of its manifest."""
    if fps < target_fps:
        raise ParseError(
            folder / "manifest.json", 1, f"fps {fps} is below the target rate {target_fps}"
        )


def _extract_one(folder: Path, config: RunConfig):
    if config.feature == "lbptop":
        seq = feats.load_frame_archive(folder)
        _check_rate(folder, seq.fps, config.target_fps)
        sub = feats.subsample(seq, config.target_fps)
        windows = feats.segment(len(sub), config.window, config.stride)
        hists = feats.lbp_top_many(sub, windows, xy_frames=config.xy_frames, grid=config.grid)
        vectors = np.stack([h.bins for h in hists])
        return seq.video_id, seq.subject_id, vectors
    manifest = feats.load_manifest(folder, frames=False)
    _check_rate(folder, float(manifest["fps"]), config.target_fps)
    track = feats.load_pose_gaze_csv(folder / "pose.csv")
    step = feats.sample_step(float(manifest["fps"]), config.target_fps)
    sub = track.every(step)
    windows = feats.segment(len(sub), config.window, config.stride)
    vectors = np.stack([feats.pose_gaze_feature(sub, w) for w in windows])
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
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_extract_one, video_dirs, [config] * len(video_dirs)))
    else:
        results = [_extract_one(d, config) for d in video_dirs]
    results.sort(key=lambda item: item[0])

    bags = []
    for video_id, subject_id, vectors in results:
        if video_id not in labels:
            raise DataError(f"{video_id}: no entry in the labels file")
        print(f"{video_id}: {len(vectors)} segments")
        ids = {"video_id": video_id, "subject_id": subject_id, "label": labels[video_id]}
        bags.append(make_bags(vectors, config.m, **ids))
    dataset = Dataset(bags, config.feature, config.m)
    index = save_dataset(dataset, config.out)
    LOGGER.info("extract: wrote %d bags to %s", len(bags), index)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(config: RunConfig) -> None:
    if not config.out:
        raise ConfigError("synth needs an output directory ('out')")
    dataset, planted = synth_generate(config.synth_spec)
    index = save_dataset(dataset, config.out)
    save_planted_csv(dataset, planted, Path(config.out) / "planted.csv")
    for level, count in sorted(dataset.class_counts().items()):
        print(f"level {level}: {count} videos")
    LOGGER.info("synth: wrote %d bags to %s", len(dataset), index)


# ---------------------------------------------------------------------------
# model helpers shared by train/predict/localize/eval


def _check_output_dirs(config: RunConfig, *keys: str) -> None:
    """Refuse an output path whose directory does not exist."""
    for key in keys:
        path = Path(getattr(config, key))
        if not path.parent.is_dir():
            raise ConfigError(f"{key} {path}: directory {path.parent} not found")


def _instance_labeling(config: RunConfig, dataset: Dataset):
    if config.relabel == "noisy":
        return relabel(dataset, "noisy")
    if config.kmeans_k > len(dataset) * dataset.m:
        raise ConfigError(f"kmeans_k {config.kmeans_k} exceeds the dataset's instance count")
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
    _check_output_dirs(config, "model_path", "out")
    dataset = load_dataset(config.dataset)
    meta = _train_meta(config, dataset)

    header = ["epoch", "loss"]
    if config.model in ("svr", "sgd", "ridge"):
        labeling = _instance_labeling(config, dataset)
        x = dataset.instance_matrix()
        y = labeling.labels.reshape(-1)
        if config.model == "svr":
            if len(x) < 2:
                raise DataError(f"{config.dataset}: svr needs at least 2 instances")
            model = svr_train(x, y, config.svr_config)
            trace, header = model.objective_trace, ["step", "objective"]
            save_svr(model, config.model_path, meta=meta)
        elif config.model == "sgd":
            model, trace = sgd_linear_train(x, y, seed=config.seed, **config.sgd)
            save_linear(model, config.model_path, meta=meta)
        else:
            posterior = bayesian_ridge_train(x, y, **config.ridge)
            trace = []
            save_ridge(posterior, config.model_path, meta=meta)
    else:
        if config.model == "milnet":
            if config.pooling == "topk" and config.pool_k > dataset.m:
                raise ConfigError(f"pool_k {config.pool_k} exceeds the bag size {dataset.m}")
            net = build_mil_net(
                dataset.dim, config.hidden, config.pooling, config.pool_k, seed=config.seed
            )
        else:
            net = build_seq_net(
                dataset.dim, dataset.m, config.seq_hidden, config.seq_dense, seed=config.seed
            )
        trained, trace = train(net, dataset, config.train_config)
        save_net(trained, config.model_path, meta=meta)

    _write_rows(config.out, header, ([str(i), _fmt(v)] for i, v in enumerate(trace)))
    LOGGER.info("train: %s model written to %s", config.model, config.model_path)


def _load_model(path):
    # built per call, so a loader rebound on this module (as perfbench's
    # tracer does) is the one that runs
    loaders = {
        "mil": load_net,
        "seq": load_net,
        "svr": load_svr,
        "linear": load_linear,
        "ridge": load_ridge,
    }
    kind = model_kind(path)
    if kind not in loaders:
        raise ParseError(path, 1, f"unrecognized model kind {kind!r}")
    return loaders[kind](path)


def _open_served(config: RunConfig, command: str, output: str):
    """(dataset, model, meta) of predict/localize/eval, checked against each
    other.  Every model kind serves through the same surface: in_dim,
    check(dataset), predict_bags(dataset) and localize_bags(dataset)."""
    for key, what in (
        ("dataset", "a 'dataset' index path"),
        ("model_path", "a model path ('model_path')"),
        ("out", f"an output {output} path ('out')"),
    ):
        if not getattr(config, key):
            raise ConfigError(f"{command} needs {what}")
    _check_output_dirs(config, "out")
    dataset = load_dataset(config.dataset)
    model, meta = _load_model(config.model_path)
    feature_kind = meta.get("feature_kind")
    if feature_kind is not None and feature_kind != dataset.feature_kind:
        raise IncompatibleArtifactsError(
            f"model was trained on {feature_kind!r} features, "
            f"dataset holds {dataset.feature_kind!r}"
        )
    if model.in_dim != dataset.dim:
        raise IncompatibleArtifactsError(
            f"model expects dimension {model.in_dim}, dataset has {dataset.dim}"
        )
    model.check(dataset)
    return dataset, model, meta


def _finite(dataset: Dataset, values: np.ndarray) -> np.ndarray:
    """A model's output for every bag (a score each, or a row of per-segment
    intensities), refused with NumericError naming the first video that
    has a non-finite value, before any output file is written."""
    finite = np.isfinite(values).reshape(len(dataset), -1).all(axis=1)
    if not finite.all():
        video_id = dataset.bags[int(finite.argmin())].video_id
        raise NumericError(f"{video_id}: the model's output is not finite")
    return values


def cmd_predict(config: RunConfig) -> None:
    dataset, model, _ = _open_served(config, "predict", "CSV")
    predictions = _finite(dataset, model.predict_bags(dataset))
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
    dataset, model, _ = _open_served(config, "localize", "CSV")
    planted = load_planted_csv(config.planted) if config.planted else None

    intensities = _finite(dataset, model.localize_bags(dataset))
    rows = []
    for i in sorted(range(len(dataset)), key=lambda i: dataset.bags[i].video_id):
        video_id = dataset.bags[i].video_id
        if planted is not None and len(planted.get(video_id, ())) != dataset.m:
            raise DataError(f"{video_id}: no {dataset.m} segments in the planted-truth file")
        for j, value in enumerate(intensities[i]):
            row = [video_id, str(j), _fmt(value)]
            rows.append(row if planted is None else row + [_fmt(planted[video_id][j])])
    header = ["video_id", "segment_index", "intensity"]
    if planted is not None:
        header.append("planted_intensity")
    _write_rows(config.out, header, rows)
    LOGGER.info("localize: wrote %d rows to %s", len(rows), config.out)


def cmd_eval(config: RunConfig) -> None:
    dataset, model, meta = _open_served(config, "eval", "JSON")

    test_subjects = set(dataset.subjects())
    train_subjects = meta.get("train_subjects", [])
    if not (isinstance(train_subjects, list) and all(isinstance(s, str) for s in train_subjects)):
        raise ParseError(config.model_path, 1, "meta 'train_subjects' must list subject ids")
    train_subjects = set(train_subjects)
    if config.train_dataset:
        train_subjects |= set(load_dataset(config.train_dataset).subjects())
    overlap = sorted(test_subjects & train_subjects)
    if overlap:
        raise InvalidSplitError(
            f"train and test share subjects: {', '.join(overlap[:5])}"
        )

    if len(dataset) < 2:
        raise UndefinedCorrelationError(f"{config.dataset}: one video has no correlation to report")
    predictions = _finite(dataset, model.predict_bags(dataset))
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
