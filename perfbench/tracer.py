"""Outside-in tracing of engage_mil: spans around each public function call.

`Tracer.install()` replaces every public function of the working modules
with a wrapper that records a span (name, start, end, parent, repetition,
process) plus counts read from the call's arguments and return value.
Nothing inside the package changes:

- `engage_mil.cli` binds names such as `load_dataset` and `train` at import,
  so each wrapper is bound in `cli` as well as in its defining module, and
  the command table `cli._COMMANDS` gets wrapped commands.
- `extract --jobs N` forks pool workers that inherit the wrappers.  A worker
  appends its spans to `<spill_dir>/spans-<pid>.jsonl` each time one of its
  outermost calls returns; `collect()` merges those files.

Spans stay in memory until `collect()`.  `layer_metrics()` turns the spans of
one repetition into the per-layer figures that BENCHMARK.json names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from pathlib import Path

# The modules that do measurable work; `errors` and `audit` do none.
LAYERS = ("features", "bags", "networks", "baselines", "metrics", "cli")
COMMANDS = ("extract", "train", "predict", "localize", "eval")


def _dataset_bytes(index_path) -> int:
    index_path = Path(index_path)
    if index_path.is_dir():
        index_path = index_path / "index.json"
    files = [index_path, *index_path.parent.glob("features/*.bin")]
    return sum(f.stat().st_size for f in files)


# Counts per call, from the bound arguments `a` and the return value `r`.
# The file sizes are read after the span has ended, so they cost no span time.
_COUNTS = {
    "features.load_frame_archive": lambda a, r: {"frames": len(r), "bytes": r.frames.nbytes},
    "features.lbp_top_many": lambda a, r: {"windows": len(r), "voxels": a["seq"].frames.size},
    "features.load_pose_gaze_csv": lambda a, r: {"rows": len(r)},
    "features.pose_gaze_feature": lambda a, r: {"calls": 1},
    "bags.make_bags": lambda a, r: {"calls": 1},
    "bags.save_dataset": lambda a, r: {"bytes": _dataset_bytes(r)},
    "bags.load_dataset": lambda a, r: {"bags": len(r), "bytes": _dataset_bytes(a["index_path"])},
    "bags.kmeans": lambda a, r: {"n_iter": r.n_iter},
    "networks.train": lambda a, r: {
        "epochs": a["config"].epochs,
        "bag_epochs": a["config"].epochs * len(a["dataset"]),
        "final_loss": r[1][-1] if r[1] else 0.0,
    },
    "networks.predict_score": lambda a, r: {"calls": 1},
    "networks.localize": lambda a, r: {"calls": 1},
    "baselines.svr_train": lambda a, r: {
        "steps": len(r.objective_trace),
        "n_sv": len(r.coef),
        "l": len(a["instances"]),
    },
    "baselines.grid_search_svr": lambda a, r: {
        "cells": len(r.c_grid) * len(r.sigma_grid) * a["folds"]
    },
    "baselines.svr_predict_many": lambda a, r: {"rows": len(a["xs"])},
}
# Counts combined by max over a repetition's calls; every other count is summed.
_MAX_COUNTS = {"final_loss"}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("features.load_frame_archive.s", "s", "lower"),
    ("features.load_frame_archive.frames", "count", "lower"),
    ("features.load_frame_archive.bytes", "bytes", "lower"),
    ("features.lbp_top_many.s", "s", "lower"),
    ("features.lbp_top_many.windows", "count", "lower"),
    ("features.lbp_top_many.voxels", "count", "lower"),
    ("features.load_pose_gaze_csv.s", "s", "lower"),
    ("features.load_pose_gaze_csv.rows", "count", "lower"),
    ("features.pose_gaze_feature.s", "s", "lower"),
    ("features.pose_gaze_feature.calls", "count", "lower"),
    ("bags.make_bags.s", "s", "lower"),
    ("bags.make_bags.calls", "count", "lower"),
    ("bags.save_dataset.s", "s", "lower"),
    ("bags.save_dataset.bytes", "bytes", "lower"),
    ("bags.load_dataset.s", "s", "lower"),
    ("bags.load_dataset.bags", "count", "lower"),
    ("bags.load_dataset.bytes", "bytes", "lower"),
    ("bags.kmeans.s", "s", "lower"),
    ("bags.kmeans.n_iter", "count", "lower"),
    ("bags.relabel.s", "s", "lower"),
    ("networks.train.s", "s", "lower"),
    ("networks.train.epochs", "count", "lower"),
    ("networks.train.bag_epochs", "count", "lower"),
    ("networks.train.final_loss", "mse", "lower"),
    ("networks.predict_score.s", "s", "lower"),
    ("networks.predict_score.calls", "count", "lower"),
    ("networks.localize.s", "s", "lower"),
    ("networks.localize.calls", "count", "lower"),
    ("networks.load_net.s", "s", "lower"),
    ("networks.save_net.s", "s", "lower"),
    ("baselines.svr_train.s", "s", "lower"),
    ("baselines.svr_train.steps", "count", "lower"),
    ("baselines.svr_train.n_sv", "count", "lower"),
    ("baselines.svr_train.l", "count", "lower"),
    ("baselines.grid_search_svr.s", "s", "lower"),
    ("baselines.grid_search_svr.cells", "count", "lower"),
    ("baselines.svr_predict_many.s", "s", "lower"),
    ("baselines.svr_predict_many.rows", "count", "lower"),
    ("baselines.load_svr.s", "s", "lower"),
    ("metrics.compute_report.s", "s", "lower"),
    *((f"cli.{c}.s", "s", "lower") for c in COMMANDS),
    *((f"cli.{c}.self_s", "s", "lower") for c in COMMANDS),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Wraps engage_mil's public functions and keeps the spans they record."""

    def __init__(self, spill_dir, rep: int):
        self.rep = rep
        self._spill_dir = Path(spill_dir)
        self._owner_pid = self._pid = os.getpid()
        self._spans: list[dict] = []
        self._stack: list[str] = []
        self._base_depth = 0  # stack depth inherited from the parent at fork
        self._next_id = 0

    def _adopt_process(self) -> None:
        """First span in a forked worker: start its own span list."""
        self._pid = os.getpid()
        self._spans = []
        self._base_depth = len(self._stack)

    def _spill(self) -> None:
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self._spill_dir / f"spans-{self._pid}.jsonl", "a") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self._spans)
        self._spans = []

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                self._adopt_process()
            self._next_id += 1
            span_id = f"{self._pid}.{self._next_id}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "rep": self.rep,
                "pid": self._pid,
            }
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = count(bound.arguments, result)
            self._spans.append(span)
            if self._pid != self._owner_pid and len(self._stack) == self._base_depth:
                self._spill()
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the working layers, once per process."""
        cli = importlib.import_module("engage_mil.cli")
        for layer in LAYERS:
            module = importlib.import_module(f"engage_mil.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"cli.{attr[4:]}" if attr.startswith("cmd_") else f"{layer}.{attr}"
                wrapped = self.wrap(name, fn)
                setattr(module, attr, wrapped)
                if getattr(cli, attr, None) is fn:
                    setattr(cli, attr, wrapped)
                for command, target in cli._COMMANDS.items():
                    if target is fn:
                        cli._COMMANDS[command] = wrapped

    def collect(self) -> list[dict]:
        """This process's spans plus every span spilled by forked workers."""
        spans = list(self._spans)
        for path in sorted(self._spill_dir.glob("spans-*.jsonl")):
            spans.extend(json.loads(line) for line in path.read_text().splitlines())
        return spans


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(s["start"], s["end"], children.get(s["id"], ()))
        for s in spans
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one repetition's spans (0 where a layer did no work)."""
    out = {name: 0.0 for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
    own = self_times(spans)
    for s in spans:
        name = s["name"]
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (s["end"] - s["start"])
        out[f"{name.split('.')[0]}.self_s"] += own[s["id"]]
        if name.startswith("cli.") and name[4:] in COMMANDS:
            out[f"{name}.self_s"] += own[s["id"]]
        for key, value in s.get("counts", {}).items():
            metric = f"{name}.{key}"
            if key in _MAX_COUNTS:
                out[metric] = max(out.get(metric, value), value)
            else:
                out[metric] = out.get(metric, 0) + value
    return {name: out[name] for name, _, _ in PER_LAYER if name in out}
