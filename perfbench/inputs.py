"""Seeded inputs for the benchmark workloads.

Every input is built from the seed with engage_mil's own public writers
(`synth_generate`, `split_subject_independent`, `save_dataset`,
`save_planted_csv`, `save_frame_archive`, `save_pose_gaze_csv`); nothing is
downloaded.  The same workload and seed always give the same bytes.

A workload's sizes and model settings are written next to its inputs as
`spec.json`, so a repetition reads them from there and the self-test can
shrink a workload without a second code path.

Run as a script to build one workload's inputs into an empty directory:

    python3 perfbench/inputs.py --workload train-serve --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from engage_mil.bags import (  # noqa: E402
    SyntheticSpec,
    save_dataset,
    save_planted_csv,
    split_subject_independent,
    synth_generate,
)
from engage_mil.features import (  # noqa: E402
    FrameSequence,
    PoseGazeTrack,
    save_frame_archive,
    save_pose_gaze_csv,
)

# Sizes chosen so one repetition takes a few seconds on a 2-core machine;
# see perfbench/README.md for what each workload is meant to stress.
WORKLOADS = {
    "video-extract": {
        "frame_videos": 2,
        "frames": 1800,
        "side": 64,
        "fps": 30.0,
        "pose_videos": 4,
        "pose_rows": 9000,
        "m": 20,
        "window": 20,
        "stride": 10,
        "target_fps": 6.0,
        "lbp_jobs": 2,
    },
    "train-serve": {
        "subjects": 20,
        "videos": 320,
        "test_fraction": 0.5,
        "m": 20,
        "dim": 8,
        "mil": {"hidden": [128, 64, 32], "pool_k": 5, "step_size": 0.01, "epochs": 25},
        "seq": {"hidden": 16, "dense": [64, 32], "step_size": 2.0, "epochs": 12},
        "svr": {"c": 1.0, "sigma": 1.0, "kmeans_k": 4},
        "grid": {"instances": 1000, "c": [0.5, 1.0, 2.0], "sigma": [1.0, 2.0], "folds": 3},
    },
}


def _frames(rng, count: int, side: int) -> np.ndarray:
    """A textured base image that drifts and flickers slightly over time.

    Real face crops change little from frame to frame, so the temporal
    planes of LBP-TOP see structure rather than independent noise.
    """
    margin = 8
    big = side + 2 * margin
    yy, xx = np.mgrid[0:big, 0:big] / big
    base = 128.0 + rng.normal(0.0, 14.0, (big, big))
    for _ in range(4):
        fy, fx, phase = rng.uniform(1.0, 6.0), rng.uniform(1.0, 6.0), rng.uniform(0, 6.3)
        base += rng.uniform(10.0, 30.0) * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase)
    walk = np.cumsum(rng.normal(0.0, 0.4, (count, 2)), axis=0)
    offsets = np.clip(np.rint(walk), -margin, margin).astype(int) + margin
    brightness = np.cumsum(rng.normal(0.0, 0.3, count))
    frames = np.empty((count, side, side))
    for t, (dy, dx) in enumerate(offsets):
        frames[t] = base[dy : dy + side, dx : dx + side] + brightness[t]
    frames += rng.normal(0.0, 2.0, frames.shape)
    return np.clip(np.rint(frames), 0, 255).astype(np.uint8)


def _pose_track(rng, rows: int) -> PoseGazeTrack:
    def walk(scale, step):
        return scale * rng.normal(size=3) + np.cumsum(rng.normal(0.0, step, (rows, 3)), axis=0)

    def gaze():
        v = np.array([0.0, 0.0, -1.0]) + walk(0.05, 0.01) + rng.normal(0.0, 0.02, (rows, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    return PoseGazeTrack(
        head_position=walk(20.0, 0.5) + [0.0, 0.0, 500.0],
        head_rotation=walk(0.1, 0.005),
        gaze_left=gaze(),
        gaze_right=gaze(),
    )


def _write_labels(path: Path, labels: dict[str, int]) -> None:
    path.write_text(
        "video_id,label\n" + "".join(f"{v},{y}\n" for v, y in sorted(labels.items()))
    )


def _video_extract(spec: dict, seed: int, out: Path) -> None:
    rng = np.random.default_rng(seed)
    labels = {}
    for i in range(spec["frame_videos"]):
        video_id = f"fvid{i:03d}"
        seq = FrameSequence(
            _frames(rng, spec["frames"], spec["side"]), spec["fps"], f"s{i // 2:03d}", video_id
        )
        save_frame_archive(seq, out / "frames" / video_id)
        labels[video_id] = int(rng.integers(0, 4))
    _write_labels(out / "frames" / "labels.csv", labels)
    labels = {}
    for i in range(spec["pose_videos"]):
        video_id = f"pvid{i:03d}"
        folder = out / "pose" / video_id
        folder.mkdir(parents=True)
        manifest = {"video_id": video_id, "subject_id": f"s{i // 2:03d}", "fps": spec["fps"]}
        (folder / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
        save_pose_gaze_csv(_pose_track(rng, spec["pose_rows"]), folder / "pose.csv")
        labels[video_id] = int(rng.integers(0, 4))
    _write_labels(out / "pose" / "labels.csv", labels)


def _corpus(spec: dict, seed: int, out: Path) -> None:
    """Planted-signal bags split by subject into train/ and test/."""
    dataset, planted = synth_generate(
        SyntheticSpec(
            subjects=spec["subjects"],
            videos=spec["videos"],
            m=spec["m"],
            dim=spec["dim"],
            seed=seed,
        )
    )
    train, test = split_subject_independent(dataset, spec["test_fraction"], seed)
    row_of = {bag.video_id: i for i, bag in enumerate(dataset.bags)}
    save_dataset(train, out / "train")
    save_dataset(test, out / "test")
    save_planted_csv(
        test,
        planted[[row_of[bag.video_id] for bag in test.bags]],
        out / "test" / "planted.csv",
    )


def generate(workload: str, seed: int, out, spec: dict | None = None) -> None:
    """Build `workload`'s inputs for `seed` into the empty directory `out`."""
    spec = WORKLOADS[workload] if spec is None else spec
    out = Path(out)
    out.mkdir(parents=True, exist_ok=False)
    if workload == "video-extract":
        _video_extract(spec, seed, out)
    else:
        _corpus(spec, seed, out)
    (out / "spec.json").write_text(
        json.dumps({"workload": workload, "seed": seed, **spec}, indent=2, sort_keys=True) + "\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spec", default=None, help="JSON file overriding the workload's sizes")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text()) if args.spec else None
    generate(args.workload, args.seed, args.dir, spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
