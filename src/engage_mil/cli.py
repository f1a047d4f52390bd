"""Command-line surface: extract, synth, train, predict, localize, eval.

Every command takes --config JSON plus a few overriding flags and writes
deterministic artifacts, so re-running with the same config and seed gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import inspect
import os
import stat
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import features as feats
from .bags import (
    RELABELINGS,
    Dataset,
    SyntheticSpec,
    kmeans,
    load_dataset,
    load_planted_csv,
    make_bags,
    model_kind,
    parse_level,
    read_model,
    relabel,
    save_dataset,
    save_planted_csv,
    synth_generate,
    write_model,
)
from .baselines import (
    LinearModel,
    RidgePosterior,
    SvrConfig,
    SvrModel,
    bayesian_ridge_train,
    load_svr,
    sgd_linear_train,
    svr_train,
)
from .errors import ConfigError, DataError, EngageMilError, ParseError
from .metrics import compute_report
from .networks import (
    POOLINGS,
    MilNet,
    SeqNet,
    TrainConfig,
    build_mil_net,
    build_seq_net,
    load_net,
    save_net,
    train,
)
from .textio import read_csv, read_json, write_csv

# The values each string setting may take
_CHOICES = {
    "feature": ("lbptop", "posegaze"),
    "model": ("svr", "sgd", "ridge", "milnet", "seqnet"),
    "relabel": RELABELINGS,
    "pooling": POOLINGS,
    "xy_frames": feats.XY_FRAMES,
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
    "train": _keyword_defaults(TrainConfig, "seed"),
    "svr": _keyword_defaults(SvrConfig),
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
    and a tuple takes an array of its first element's kind.  A path holds no
    NUL, which no OS call takes."""
    if default is str and isinstance(value, str) and "\0" in value:
        raise TypeError
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
        if self.feature == "lbptop" and self.window < 3:  # LBP-TOP needs an interior frame
            raise ConfigError("an lbptop window must be at least 3 frames")
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
        try:
            self.svr_config = SvrConfig(**self.svr)
            self.train_config = TrainConfig(seed=self.seed, **self.train)
            self.synth_spec = SyntheticSpec(seed=self.seed, **self.synth)
        except ValueError as exc:  # a value the library object refuses
            raise ConfigError(f"bad config value: {exc}") from None

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        try:
            raw = read_json(path, "config")
        except ParseError as exc:  # the one input whose read faults are config faults
            raise ConfigError(f"config {path} {exc.message}") from None
        if isinstance(raw, dict):
            raw.update((k, v) for k, v in (overrides or {}).items() if v is not None)
        return cls(raw)


# ---------------------------------------------------------------------------
# small shared formatters/readers


def _fmt(value: float) -> str:
    return repr(float(value))


def load_labels_csv(path) -> dict[str, int]:
    """Two-column video_id,label file mapping each video to its level in LABELS."""
    _, records = read_csv(path, "labels", ["video_id", "label"])
    labels: dict[str, int] = {}
    for line, cells in records:
        if len(cells) != 2:
            raise ParseError(path, line, f"expected 2 fields, found {len(cells)}")
        video_id = cells[0].strip()
        try:
            label = parse_level(cells[1])
        except ValueError as exc:
            raise ParseError(path, line, f"label {exc}") from None
        if video_id in labels:
            raise ParseError(path, line, f"duplicate video {video_id!r}")
        labels[video_id] = label
    return labels


# ---------------------------------------------------------------------------
# extract


def _extract_one(folder: Path, config: RunConfig):
    """One video's feature vectors.  The manifest is read once, and its rate
    checked before any frame or pose row is read."""
    lbptop = config.feature == "lbptop"
    manifest = feats.load_manifest(folder, frames=lbptop)
    fps, target = float(manifest["fps"]), config.target_fps
    if fps < target:  # a video recorded below the target rate: its manifest's fault
        raise ParseError(folder / "manifest.json", 1, f"fps {fps} is below the target rate {target}")
    step = feats.sample_step(fps, target)
    if lbptop:
        seq = feats.load_frame_archive(folder, step, manifest)
        windows = feats.segment(len(seq), config.window, config.stride)
        vectors = feats.lbp_top_many(seq, windows, xy_frames=config.xy_frames, grid=config.grid)
    else:
        track = feats.load_pose_gaze_csv(folder / "pose.csv").every(step)
        windows = feats.segment(len(track), config.window, config.stride)
        # huge but finite track values overflow here; save_dataset refuses the result
        with np.errstate(over="ignore", invalid="ignore"):
            vectors = np.stack([feats.pose_gaze_feature(track, w) for w in windows])
    return manifest["video_id"], manifest["subject_id"], vectors


def cmd_extract(config: RunConfig) -> None:
    _check_paths(config, "extract")
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
    folders = {}
    for folder, (video_id, _, _) in zip(video_dirs, results):
        if folders.setdefault(video_id, folder) != folder:
            raise DataError(f"{folders[video_id]} and {folder} both hold video {video_id!r}")
    results.sort(key=lambda item: item[0])

    bags = []
    for video_id, subject_id, vectors in results:
        if video_id not in labels:
            raise DataError(f"{video_id}: no entry in the labels file")
        print(f"{video_id}: {len(vectors)} segments")
        ids = {"video_id": video_id, "subject_id": subject_id, "label": labels[video_id]}
        bags.append(make_bags(vectors, config.m, **ids))
    dataset = Dataset(bags, config.feature, config.m)
    save_dataset(dataset, config.out)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(config: RunConfig) -> None:
    _check_paths(config, "synth")
    dataset, planted = synth_generate(config.synth_spec)
    save_dataset(dataset, config.out)
    save_planted_csv(dataset, planted, Path(config.out) / "planted.csv")
    for level, count in sorted(dataset.class_counts().items()):
        print(f"level {level}: {count} videos")


# ---------------------------------------------------------------------------
# the paths of every command, and model helpers shared by
# train/predict/localize/eval


# The paths each command reads, may read, and writes, by config key; the
# `out` of extract and synth is a directory, made if missing
_PATHS = {
    "extract": (("input", "labels"), (), ("out",)),
    "synth": ((), (), ("out",)),
    "train": (("dataset",), (), ("model_path", "out")),
    "predict": (("dataset", "model_path"), (), ("out",)),
    "localize": (("dataset", "model_path"), ("planted",), ("out",)),
    "eval": (("dataset", "model_path"), ("train_dataset",), ("out",)),
}

# What extract and synth write inside `out`; a name ending in / is a directory
_OUT_ENTRIES = {
    "extract": ("features/", "index.json"),
    "synth": ("features/", "index.json", "planted.csv"),
}


def _check_output(key: str, path, directory: bool = False) -> None:
    """Refuse an output path the OS cannot look up (a name too long) and one
    that is a directory where a file goes, or a file where a directory goes."""
    try:
        is_dir = stat.S_ISDIR(os.stat(path).st_mode)
    except FileNotFoundError:
        return
    except OSError as exc:
        raise ConfigError(f"{key} {path}: {exc.strerror}") from None
    if is_dir != directory:
        raise ConfigError(f"{key} {path} is {'not ' if directory else ''}a directory")


def _check_paths(config: RunConfig, command: str) -> None:
    """Before any input is read, refuse a missing path; an output directory
    that is, or lies below, something other than a directory, or holds an
    entry of _OUT_ENTRIES of the wrong type; an output file that is a
    directory, whose directory does not exist, or that is another path the
    command reads or writes (a dataset directory meaning its index.json);
    and an output path the OS cannot look up (a name too long)."""
    reads, optional, writes = _PATHS[command]
    for key in (*reads, *writes):
        if not getattr(config, key):
            raise ConfigError(f"{command} needs a '{key}' path")
    if command in _OUT_ENTRIES:
        path = Path(config.out)
        found = next(p for p in (path, *path.parents) if os.path.lexists(p))
        if not found.is_dir():
            raise ConfigError(f"out {path}: {found} is not a directory")
        _check_output("out", path, directory=True)
        for entry in _OUT_ENTRIES[command]:
            _check_output("out", path / entry, directory=entry.endswith("/"))
        return

    def real(key):
        path = getattr(config, key)
        if key.endswith("dataset") and os.path.isdir(path):
            path = os.path.join(path, "index.json")
        return os.path.realpath(path)

    for key in writes:
        path = Path(getattr(config, key))
        if not path.parent.is_dir():
            raise ConfigError(f"{key} {path}: directory {path.parent} not found")
        _check_output(key, path)
        for other in (*reads, *optional, *writes):
            if other != key and getattr(config, other) and real(other) == real(key):
                raise ConfigError(f"{key} {path} is also the command's {other}")


def _load_checked(config: RunConfig, command: str, key: str = "dataset") -> Dataset:
    """The dataset that the config's `key` names, once no output of `command`
    is one of its feature files."""
    dataset = load_dataset(getattr(config, key))
    # only an output that exists can be a file just read
    existing = [out for out in _PATHS[command][2] if os.path.exists(getattr(config, out))]
    files = {os.path.realpath(path) for path in dataset.files} if existing else set()
    for out in existing:
        if os.path.realpath(getattr(config, out)) in files:
            raise ConfigError(f"{out} {getattr(config, out)} is a feature file of the {key}")
    return dataset


def cmd_train(config: RunConfig) -> None:
    _check_paths(config, "train")
    dataset = _load_checked(config, "train")
    meta = {
        "dim": dataset.dim,
        "feature_kind": dataset.feature_kind,
        "m": dataset.m,
        "model": config.model,
        "relabel": config.relabel,
        "train_subjects": sorted(dataset.subjects()),
    }

    header = ["epoch", "loss"]
    if config.model in ("svr", "sgd", "ridge"):
        x, assignments = dataset.instance_matrix(), None
        if config.relabel != "noisy":
            if config.kmeans_k > len(x):
                raise ConfigError(f"kmeans_k {config.kmeans_k} exceeds the instance count {len(x)}")
            assignments = kmeans(x, config.kmeans_k, seed=config.seed).assignments
        y = relabel(dataset, config.relabel, assignments).reshape(-1)
        if config.model == "svr":
            if len(x) < 2:
                raise DataError(f"{config.dataset}: svr needs at least 2 instances")
            model = svr_train(x, y, config.svr_config)
            trace, header = model.objective_trace, ["step", "objective"]
        elif config.model == "sgd":
            model, trace = sgd_linear_train(x, y, seed=config.seed, **config.sgd)
        else:
            model, trace = bayesian_ridge_train(x, y, **config.ridge), []
        write_model(config.model_path, model, meta)
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

    write_csv(config.out, header, ([str(i), _fmt(v)] for i, v in enumerate(trace)), "\n")


# Every model class a model file can hold
_MODELS = (MilNet, SeqNet, SvrModel, LinearModel, RidgePosterior)


def _load_model(path):
    # looked up per call: perfbench's tracer rebinds the traced loaders on this module
    loader = {"mil": load_net, "seq": load_net, "svr": load_svr}.get(model_kind(path))
    return loader(path) if loader else read_model(path, _MODELS)


def _open_served(config: RunConfig, command: str):
    """(dataset, model, meta) of predict/localize/eval, checked against each
    other.  Every model kind serves through the same surface: in_dim,
    check(dataset), predict_bags(dataset) and localize_bags(dataset)."""
    _check_paths(config, command)
    dataset = _load_checked(config, command)
    model, meta = _load_model(config.model_path)
    feature_kind = meta.get("feature_kind")
    if feature_kind is not None and feature_kind != dataset.feature_kind:
        raise DataError(
            f"model was trained on {feature_kind!r} features, "
            f"dataset holds {dataset.feature_kind!r}"
        )
    if model.in_dim != dataset.dim:
        raise DataError(f"model expects dimension {model.in_dim}, dataset has {dataset.dim}")
    model.check(dataset)
    return dataset, model, meta


def cmd_predict(config: RunConfig) -> None:
    dataset, model, _ = _open_served(config, "predict")
    pairs = zip(dataset.bags, model.predict_bags(dataset))
    rows = sorted([bag.video_id, str(bag.label), _fmt(score)] for bag, score in pairs)
    write_csv(config.out, ["video_id", "label", "prediction"], rows, "\n")


def cmd_localize(config: RunConfig) -> None:
    dataset, model, _ = _open_served(config, "localize")
    planted = load_planted_csv(config.planted) if config.planted else None
    ids = sorted(bag.video_id for bag in dataset.bags)
    if planted is not None:  # refused before any bag is scored
        for video_id in ids:
            if len(planted.get(video_id, ())) != dataset.m:
                raise DataError(f"{video_id}: no {dataset.m} segments in the planted-truth file")
    served = dict(zip([bag.video_id for bag in dataset.bags], model.localize_bags(dataset)))
    rows = []
    for video_id in ids:
        for j, value in enumerate(served[video_id]):
            row = [video_id, str(j), _fmt(value)]
            rows.append(row if planted is None else row + [_fmt(planted[video_id][j])])
    header = ["video_id", "segment_index", "intensity"]
    if planted is not None:
        header.append("planted_intensity")
    write_csv(config.out, header, rows, "\n")


def cmd_eval(config: RunConfig) -> None:
    dataset, model, meta = _open_served(config, "eval")

    test_subjects = set(dataset.subjects())
    train_subjects = meta.get("train_subjects", [])
    if not (isinstance(train_subjects, list) and all(isinstance(s, str) for s in train_subjects)):
        raise ParseError(config.model_path, 1, "meta 'train_subjects' must list subject ids")
    train_subjects = set(train_subjects)
    if config.train_dataset:
        train_subjects |= set(_load_checked(config, "eval", "train_dataset").subjects())
    overlap = sorted(test_subjects & train_subjects)
    if overlap:
        raise DataError(f"train and test share subjects: {', '.join(overlap[:5])}")

    if len(dataset) < 2:
        raise DataError(f"{config.dataset}: one video has no correlation to report")
    report = compute_report(model.predict_bags(dataset), dataset.labels())
    report.save(config.out)
    print(f"mse={report.mse} pcc={report.pcc}")


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
