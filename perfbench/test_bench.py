"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_bench.py

Checks that a run emits every metric BENCHMARK.json names, with its unit,
and that corrupting one byte of an artifact makes the output checks fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check, digest_check, digests  # noqa: E402
from inputs import WORKLOADS, generate  # noqa: E402

TINY = {
    "video-extract": {
        **WORKLOADS["video-extract"],
        "frame_videos": 2,
        "frames": 150,
        "side": 16,
        "pose_videos": 2,
        "pose_rows": 300,
    },
    "train-serve": {
        **WORKLOADS["train-serve"],
        "subjects": 10,
        "videos": 100,
        "test_fraction": 0.5,
        "mil": {"hidden": [32, 16], "pool_k": 5, "step_size": 0.01, "epochs": 60},
        "seq": {"hidden": 4, "dense": [8, 4], "step_size": 2.0, "epochs": 2},
        "grid": {"instances": 400, "c": [0.5, 1.0], "sigma": [1.0], "folds": 2},
    },
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
    1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
}


def test_benchmark_lists_the_workloads_it_runs():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps(TINY[workload]))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--spec", str(spec)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == UNITS[trace]


def _rep(tmp_path: Path, workload: str) -> tuple[dict, Path, Path, dict]:
    inputs = tmp_path / "inputs"
    generate(workload, 5, inputs, TINY[workload])
    out = tmp_path / "rep"
    subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--inputs", str(inputs), "--out", str(out), "--rep", "0"],
        check=True, timeout=170,
    )
    steps = json.loads((out / "result.json").read_text())["steps"]
    spec = json.loads((inputs / "spec.json").read_text())
    return spec, inputs, out / "artifacts", steps


# The file whose byte is flipped, per workload.  The LBP-TOP feature file is
# also read by a content check: its flipped bit is in a float's exponent.
CORRUPT = {
    "video-extract": "lbptop/features/fvid000.bin",
    "train-serve": "milnet-localize.csv",
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_corrupted_byte_fails_the_checks(tmp_path, workload):
    spec, inputs, art, steps = _rep(tmp_path, workload)
    checks, _ = check(spec, inputs, art, steps)
    assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
    reference = digests(art)
    assert digest_check("same", reference, digests(art))[1]

    target = art / CORRUPT[workload]
    data = bytearray(target.read_bytes())
    data[-17] ^= 0x01
    target.write_bytes(bytes(data))

    assert not digest_check("same", reference, digests(art))[1]
    if workload == "video-extract":
        checks, _ = check(spec, inputs, art, steps)
        assert not all(ok for _, ok, _ in checks)
