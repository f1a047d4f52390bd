"""engage-mil benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload train-serve --seed 1 --seconds 48 --trace 0

Run from the root of a source checkout.  The run

1. builds the workload's inputs from the seed three times, each in a fresh
   interpreter (perfbench/inputs.py), and reports the median as `setup_s`
   (generation plus interpreter start and package import);
2. runs repetitions of the workload's pipeline (perfbench/rep.py), each in
   a fresh interpreter, until the measuring time is spent;
3. checks every repetition's outputs (perfbench/checks.py), including that
   the SHA-256 of every artifact is the same in every repetition;
4. prints one JSON object as its last line: with `--trace 0` the end-to-end
   metrics (medians over repetitions), with `--trace 1` the per-layer
   metrics from the traced repetitions, which alternate with untraced ones.

BLAS and OpenMP are pinned to one thread per process, so `extract --jobs 2`
never runs more threads than a 2-core machine has.  Everything is written
under `.perfbench/` in the checkout; the per-run record, with the machine,
every repetition, the artifact digests and the spans, is kept in
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

SETUPS = 3
MIN_REPS = 2
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends well within 180 s

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def _run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a Python child in its own process group; kill the group at `deadline`."""
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
        env={**os.environ, **THREAD_PINS},
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return subprocess.CompletedProcess(argv, -9, out + "\n(killed: run time limit)")
    return subprocess.CompletedProcess(argv, proc.returncode, out)


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_pins": THREAD_PINS,
        "platform": platform.platform(),
    }


def _set_up(workload: str, seed: int, spec, work: Path, deadline: float):
    """Build the inputs SETUPS times; keep the first copy."""
    from checks import digests

    times, trees = [], []
    for k in range(SETUPS):
        target = work / f"inputs{k}"
        argv = [str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed), "--dir", str(target)]
        start = time.perf_counter()
        done = _run_child(argv + (["--spec", str(spec)] if spec else []), deadline)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{done.stdout}")
        trees.append(digests(target))
        if k:
            shutil.rmtree(target)
    same = all(tree == trees[0] for tree in trees)
    return work / "inputs0", times, [("inputs identical in every set-up", same, "")]


def _median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec", type=Path, default=None, help="JSON file replacing the workload's sizes")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S

    if not (ROOT / "src" / "engage_mil" / "cli.py").is_file():
        print(f"error: no engage_mil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from checks import check, digest_check, digests
    from inputs import WORKLOADS
    from tracer import PER_LAYER, layer_metrics

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench"
    work = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, setup_times, checks = _set_up(
            args.workload, args.seed, args.spec and args.spec.resolve(), work, deadline
        )
        spec = json.loads((inputs / "spec.json").read_text())

        reps, durations, first_digests = [], [], None
        measure_end = time.perf_counter() + args.seconds
        while True:
            k = len(reps)
            traced = bool(args.trace) and k % 2 == 1
            out = work / f"rep{k}"
            argv = [str(HERE / "rep.py"), "--inputs", str(inputs), "--out", str(out), "--rep", str(k)]
            start = time.perf_counter()
            done = _run_child(argv + (["--trace"] if traced else []), deadline)
            durations.append(time.perf_counter() - start)
            if done.returncode != 0:
                checks.append((f"rep {k} runs", False, done.stdout[-2000:]))
                break
            result = json.loads((out / "result.json").read_text())
            rep_checks, result["quality"] = check(spec, inputs, out / "artifacts", result["steps"])
            result["digests"] = digests(out / "artifacts")
            first_digests = first_digests or result["digests"]
            name = "artifacts equal rep 0's" + (" (traced)" if traced else "")
            rep_checks.append(digest_check(name, first_digests, result["digests"]))
            checks += [(f"rep {k}: {name}", ok, detail) for name, ok, detail in rep_checks]
            for step in result["steps"].values():
                step.pop("output")
            reps.append(result)
            shutil.rmtree(out)
            if len(reps) >= MIN_REPS and time.perf_counter() + _median(durations) > measure_end:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if args.trace:
        per_rep = [layer_metrics(r["spans"]) for r in traced_reps]
        values = {name: _median([m[name] for m in per_rep]) for name, _, _ in PER_LAYER[:-1]}
        values["trace.overhead_s"] = _median([r["wall_s"] for r in traced_reps]) - _median(
            [r["wall_s"] for r in plain]
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = {key: _median([r[key] for r in plain]) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = _median(setup_times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    failed = [c for c in checks if not c[1]]
    steps = {
        name: _median([r["steps"][name]["wall_s"] for r in plain])
        for name in (plain[0]["steps"] if plain else {})
    }
    quality = {
        name: _median([r["quality"][name] for r in reps]) for name in (reps[0]["quality"] if reps else {})
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "spec": spec,
        "setup_s": setup_times,
        "step_medians_s": steps,
        "quality_medians": quality,
        "failed_checks": failed,
        "reps": reps,
        "metrics": metrics,
    }
    (state / "results").mkdir(parents=True, exist_ok=True)
    result_path = state / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"reps: {len(plain)} untraced, {len(traced_reps)} traced; set-ups: {[round(t, 3) for t in setup_times]}")
    print("step medians (s): " + ", ".join(f"{k}={v:.3f}" for k, v in steps.items()))
    if quality:
        print("quality medians: " + ", ".join(f"{k}={v:.4f}" for k, v in quality.items()))
    if reps:
        print("artifact digests (rep 0): " + json.dumps(reps[0]["digests"], sort_keys=True))
    for name, _, detail in failed:
        print(f"FAILED: {name}: {detail}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failed and bool(reps),
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
