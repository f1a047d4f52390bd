"""One repetition of a workload's timed pipeline, in a fresh interpreter.

Runs the workload's `engage-mil` commands in-process through
`engage_mil.cli.main(argv)` (plus a direct `grid_search_svr` call for
train-serve) on the inputs that perfbench/inputs.py built, writing every
artifact under OUT/artifacts.  With --trace, the public functions are
wrapped first (perfbench/tracer.py) and the spans are saved too.

    python3 perfbench/rep.py --inputs DIR --out DIR --rep N [--trace]

Writes OUT/result.json with each step's wall time, exit code and captured
output, and the pipeline's wall time, CPU time (this process plus its pool
workers) and peak RSS.  Interpreter start-up and imports are not timed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from engage_mil import baselines, bags, cli  # noqa: E402

from tracer import Tracer  # noqa: E402



def _command(out: Path, name: str, argv: list[str], config: dict):
    """A step that runs one CLI command with `config` written to a file."""
    path = out / "configs" / f"{name}.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return lambda: cli.main([argv[0], "--config", str(path), *argv[1:]])


def _extract_steps(spec: dict, inputs: Path, art: Path, out: Path):
    common = {k: spec[k] for k in ("m", "window", "stride", "target_fps")}
    for feature, folder, jobs in (
        ("lbptop", "frames", spec["lbp_jobs"]),
        ("posegaze", "pose", 1),
    ):
        config = {
            **common,
            "feature": feature,
            "input": str(inputs / folder),
            "labels": str(inputs / folder / "labels.csv"),
            "out": str(art / feature),
        }
        name = f"extract_{feature}"
        yield name, _command(out, name, ["extract", "--jobs", str(jobs)], config)


def _serve_steps(spec: dict, inputs: Path, art: Path, out: Path, model: str):
    test = {"dataset": str(inputs / "test" / "index.json"), "model_path": str(art / f"{model}.bin")}
    yield f"predict_{model}", _command(
        out, f"predict_{model}", ["predict"], {**test, "out": str(art / f"{model}-predict.csv")}
    )
    yield f"localize_{model}", _command(
        out,
        f"localize_{model}",
        ["localize"],
        {
            **test,
            "planted": str(inputs / "test" / "planted.csv"),
            "out": str(art / f"{model}-localize.csv"),
        },
    )
    yield f"eval_{model}", _command(
        out, f"eval_{model}", ["eval"], {**test, "out": str(art / f"{model}-eval.json")}
    )


def _train_config(spec: dict, inputs: Path, art: Path, model: str) -> dict:
    return {
        "seed": spec["seed"],
        "model": model,
        "dataset": str(inputs / "train" / "index.json"),
        "model_path": str(art / f"{model}.bin"),
        "out": str(art / f"{model}-loss.csv"),
    }


def _mil_steps(spec: dict, inputs: Path, art: Path, out: Path):
    mil, seq = spec["mil"], spec["seq"]
    configs = {
        "milnet": {
            "hidden": mil["hidden"],
            "pooling": "topk",
            "pool_k": mil["pool_k"],
            "train": {"step_size": mil["step_size"], "epochs": mil["epochs"]},
        },
        "seqnet": {
            "seq_hidden": seq["hidden"],
            "seq_dense": seq["dense"],
            "train": {"step_size": seq["step_size"], "epochs": seq["epochs"]},
        },
    }
    for model, extra in configs.items():
        config = {**_train_config(spec, inputs, art, model), **extra}
        yield f"train_{model}", _command(out, f"train_{model}", ["train"], config)
    for model in configs:
        yield from _serve_steps(spec, inputs, art, out, model)


def _grid(spec: dict, inputs: Path, art: Path) -> int:
    """Cross-validated (C, sigma) search on the first subjects' training bags."""
    grid = spec["grid"]
    train = bags.load_dataset(inputs / "train" / "index.json")
    chosen, count = set(), 0
    for subject in sorted(train.subjects()):
        if count >= grid["instances"]:
            break
        chosen.add(subject)
        count += sum(train.m for bag in train.bags if bag.subject_id == subject)
    subset = bags.Dataset(
        [bag for bag in train.bags if bag.subject_id in chosen], train.feature_kind, train.m
    )
    result = baselines.grid_search_svr(
        subset,
        bags.relabel(subset, "noisy"),
        grid["c"],
        grid["sigma"],
        folds=grid["folds"],
        seed=spec["seed"],
    )
    summary = {"c": result.c, "sigma": result.sigma, "table": result.table.tolist()}
    (art / "grid.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def _svr_steps(spec: dict, inputs: Path, art: Path, out: Path):
    svr = spec["svr"]
    config = {
        **_train_config(spec, inputs, art, "svr"),
        "relabel": "kmeans-mean",
        "kmeans_k": svr["kmeans_k"],
        "svr": {"c": svr["c"], "sigma": svr["sigma"]},
    }
    yield "train_svr", _command(out, "train_svr", ["train"], config)
    yield from _serve_steps(spec, inputs, art, out, "svr")
    yield "grid_svr", lambda: _grid(spec, inputs, art)


def _train_serve_steps(spec: dict, inputs: Path, art: Path, out: Path):
    yield from _mil_steps(spec, inputs, art, out)
    yield from _svr_steps(spec, inputs, art, out)


STEPS = {"video-extract": _extract_steps, "train-serve": _train_serve_steps}


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run(inputs: Path, out: Path, rep: int, trace: bool) -> dict:
    spec = json.loads((inputs / "spec.json").read_text())
    art = out / "artifacts"
    art.mkdir(parents=True)
    (out / "configs").mkdir()
    tracer = Tracer(out / "spill", rep) if trace else None
    if tracer:
        tracer.install()
    steps = list(STEPS[spec["workload"]](spec, inputs, art, out))

    results = {}
    cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    for name, step in steps:
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                code = step()
            except Exception:  # reported as a failed step, not a crashed benchmark
                traceback.print_exc()
                code = -1
        results[name] = {
            "wall_s": time.perf_counter() - start,
            "code": code,
            "output": captured.getvalue(),
        }
    wall = time.perf_counter() - t0
    cpu = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return {
        "rep": rep,
        "traced": trace,
        "steps": results,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "spans": tracer.collect() if tracer else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    result = run(Path(args.inputs), out, args.rep, args.trace)
    (out / "result.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
