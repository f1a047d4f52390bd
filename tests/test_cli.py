"""End-to-end tests of the command line: every command, exit codes,
byte-level determinism, and the audit guarantee that training never
touches test features."""

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from engage_mil import cli
from engage_mil.bags import load_dataset, save_dataset, split_subject_independent
from engage_mil.baselines import svr_train
from engage_mil.cli import (
    RunConfig,
    load_labels_csv,
    main,
)
from engage_mil.errors import ConfigError, ParseError
from engage_mil.features import (
    FrameSequence,
    PoseGazeTrack,
    save_frame_archive,
    save_pose_gaze_csv,
)
from engage_mil.networks import build_mil_net, save_net

from oracles import model_file_bytes, split_model_file


def run_cli(*argv) -> int:
    return main(list(argv))


def write_config(path: Path, **keys) -> Path:
    path.write_text(json.dumps(keys, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# fixtures: synthetic dataset + tiny raw video trees


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    config = write_config(
        root / "config.json",
        seed=0,
        synth={
            "subjects": 6,
            "videos": 24,
            "m": 10,
            "dim": 5,
            "rho": 0.5,
            "noise_scale": 0.3,
        },
    )
    assert run_cli("synth", "--config", str(config), "--out", str(root / "data")) == 0
    return root


@pytest.fixture(scope="module")
def pose_tree(tmp_path_factory):
    """Three pose/gaze videos at 30 fps plus a labels file."""
    root = tmp_path_factory.mktemp("raw_pose")
    rng = np.random.default_rng(7)
    for i in range(3):
        d = root / f"vid{i:02d}"
        d.mkdir()
        n = 1100
        track = PoseGazeTrack(
            head_position=rng.normal(0, 10, (n, 3)),
            head_rotation=rng.normal(0, 0.2, (n, 3)),
            gaze_left=rng.normal(0, 1, (n, 3)),
            gaze_right=rng.normal(0, 1, (n, 3)),
        )
        (d / "manifest.json").write_text(
            json.dumps(
                {"video_id": f"vid{i:02d}", "subject_id": f"s{i}", "fps": 30.0}
            )
            + "\n"
        )
        save_pose_gaze_csv(track, d / "pose.csv")
    (root / "labels.csv").write_text(
        "video_id,label\n" + "".join(f"vid{i:02d},{i}\n" for i in range(3))
    )
    return root


@pytest.fixture(scope="module")
def frame_tree(tmp_path_factory):
    """Two tiny frame-archive videos plus a labels file."""
    root = tmp_path_factory.mktemp("raw_frames")
    rng = np.random.default_rng(3)
    for i in range(2):
        seq = FrameSequence(
            rng.integers(0, 256, (150, 16, 16)).astype(np.uint8),
            30.0,
            f"s{i}",
            f"fvid{i}",
        )
        save_frame_archive(seq, root / f"fvid{i}")
    (root / "labels.csv").write_text(
        "video_id,label\n" + "".join(f"fvid{i},{i + 1}\n" for i in range(2))
    )
    return root


# ---------------------------------------------------------------------------
# config parsing


class TestRunConfig:
    def test_defaults(self, tmp_path):
        config = RunConfig.from_file(write_config(tmp_path / "c.json"))
        assert config.seed == 0
        assert config.m == 100
        assert config.model == "milnet"
        assert config.train["epochs"] == 300
        assert config.svr["sigma"] == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig.from_file(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_file(tmp_path / "absent.json")

    def test_flag_beats_config_beats_default(self, tmp_path):
        path = write_config(tmp_path / "c.json", seed=5)
        assert RunConfig.from_file(path).seed == 5
        assert RunConfig.from_file(path, overrides={"seed": 9}).seed == 9
        assert RunConfig.from_file(path, overrides={"seed": None}).seed == 5

    def test_nested_section_merges_defaults(self, tmp_path):
        path = write_config(tmp_path / "c.json", train={"epochs": 7})
        config = RunConfig.from_file(path)
        assert config.train["epochs"] == 7
        assert config.train["batch_size"] == 16

    def test_enum_validation(self, tmp_path):
        for bad in (
            {"feature": "hog"},
            {"model": "forest"},
            {"relabel": "magic"},
            {"pooling": "median"},
            {"jobs": 0},
        ):
            path = write_config(tmp_path / "c.json", **bad)
            with pytest.raises(ConfigError):
                RunConfig.from_file(path)


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,label\na,0\nb,3\n")
        assert load_labels_csv(path) == {"a": 0, "b": 3}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("vid,lvl\na,0\n")
        with pytest.raises(ParseError):
            load_labels_csv(path)

    def test_out_of_range_label(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,label\na,7\n")
        with pytest.raises(ParseError):
            load_labels_csv(path)

    def test_duplicate_video(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,label\na,1\na,2\n")
        with pytest.raises(ParseError):
            load_labels_csv(path)


# ---------------------------------------------------------------------------
# synth


class TestSynth:
    def test_writes_dataset_and_planted(self, synth_dir):
        dataset = load_dataset(synth_dir / "data")
        assert len(dataset) == 24
        assert dataset.m == 10
        assert (synth_dir / "data" / "planted.csv").exists()

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        config = synth_dir / "config.json"
        assert run_cli("synth", "--config", str(config), "--out", str(tmp_path)) == 0
        for rel in ["index.json", "planted.csv", "features/video00.bin"]:
            assert (tmp_path / rel).read_bytes() == (
                synth_dir / "data" / rel
            ).read_bytes()

    def test_seed_flag_changes_output(self, synth_dir, tmp_path):
        config = synth_dir / "config.json"
        assert (
            run_cli(
                "synth", "--config", str(config), "--seed", "1", "--out", str(tmp_path)
            )
            == 0
        )
        assert (tmp_path / "features/video00.bin").read_bytes() != (
            synth_dir / "data" / "features/video00.bin"
        ).read_bytes()

    def test_reference_corpus_shape(self, tmp_path):
        from engage_mil.bags import (
            REFERENCE_DISTRIBUTION,
            REFERENCE_SUBJECTS,
            REFERENCE_VIDEOS,
        )

        config = write_config(
            tmp_path / "c.json",
            seed=0,
            synth={
                "subjects": REFERENCE_SUBJECTS,
                "videos": REFERENCE_VIDEOS,
                "m": 5,
                "dim": 3,
                "class_distribution": list(REFERENCE_DISTRIBUTION),
            },
        )
        out = tmp_path / "data"
        assert run_cli("synth", "--config", str(config), "--out", str(out)) == 0
        dataset = load_dataset(out)
        assert dataset.class_counts() == {0: 9, 1: 53, 2: 82, 3: 50}
        assert len(set(b.subject_id for b in dataset.bags)) == REFERENCE_SUBJECTS

    def test_noiseless_full_signal_plants_the_bag_label(self, tmp_path):
        from engage_mil.bags import load_planted_csv

        config = write_config(
            tmp_path / "c.json",
            seed=0,
            synth={
                "subjects": 4,
                "videos": 8,
                "m": 6,
                "dim": 4,
                "rho": 1.0,
                "noise_scale": 0.0,
            },
        )
        out = tmp_path / "data"
        assert run_cli("synth", "--config", str(config), "--out", str(out)) == 0
        dataset = load_dataset(out)
        planted = load_planted_csv(out / "planted.csv")
        for bag in dataset.bags:
            assert np.all(planted[bag.video_id] == bag.label)


# ---------------------------------------------------------------------------
# extract


class TestExtract:
    def test_pose_gaze_pipeline_shape(self, pose_tree, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            feature="posegaze",
            m=20,
            input=str(pose_tree),
            labels=str(pose_tree / "labels.csv"),
        )
        out = tmp_path / "ds"
        assert run_cli("extract", "--config", str(config), "--out", str(out)) == 0
        printed = capsys.readouterr().out
        # 1100 frames at 30 fps -> keep every 5th -> 220 -> (220-20)//10+1
        assert "vid00: 21 segments" in printed
        dataset = load_dataset(out)
        assert dataset.feature_kind == "posegaze"
        assert (len(dataset), dataset.m, dataset.dim) == (3, 20, 9)
        assert [b.label for b in dataset.bags] == [0, 1, 2]
        assert [b.subject_id for b in dataset.bags] == ["s0", "s1", "s2"]

    def test_five_minute_video_yields_full_bag(self, tmp_path):
        """A 5-minute 30 fps pose track fills one bag of 100 nine-dim rows."""
        root = tmp_path / "raw"
        d = root / "long"
        d.mkdir(parents=True)
        rng = np.random.default_rng(0)
        n = 5 * 60 * 30
        save_pose_gaze_csv(
            PoseGazeTrack(
                head_position=rng.normal(0, 10, (n, 3)),
                head_rotation=rng.normal(0, 0.2, (n, 3)),
                gaze_left=rng.normal(0, 1, (n, 3)),
                gaze_right=rng.normal(0, 1, (n, 3)),
            ),
            d / "pose.csv",
        )
        (d / "manifest.json").write_text(
            json.dumps({"video_id": "long", "subject_id": "s0", "fps": 30.0})
        )
        (root / "labels.csv").write_text("video_id,label\nlong,2\n")
        config = write_config(
            tmp_path / "c.json",
            feature="posegaze",
            input=str(root),
            labels=str(root / "labels.csv"),
        )
        out = tmp_path / "ds"
        assert run_cli("extract", "--config", str(config), "--out", str(out)) == 0
        dataset = load_dataset(out)
        assert dataset.bags[0].instances.shape == (100, 9)

    def test_lbptop_pipeline_shape(self, frame_tree, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            feature="lbptop",
            m=5,
            input=str(frame_tree),
            labels=str(frame_tree / "labels.csv"),
        )
        out = tmp_path / "ds"
        assert run_cli("extract", "--config", str(config), "--out", str(out)) == 0
        dataset = load_dataset(out)
        assert dataset.feature_kind == "lbptop"
        assert (len(dataset), dataset.m, dataset.dim) == (2, 5, 177)

    def test_parallel_extraction_is_byte_identical(self, pose_tree, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            feature="posegaze",
            m=20,
            input=str(pose_tree),
            labels=str(pose_tree / "labels.csv"),
        )
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli("extract", "--config", str(config), "--out", str(serial)) == 0
        assert (
            run_cli(
                "extract", "--config", str(config), "--jobs", "2", "--out", str(parallel)
            )
            == 0
        )
        for rel in sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file()):
            assert (parallel / rel).read_bytes() == (serial / rel).read_bytes(), rel

    def test_empty_input_dir_exits_3(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        config = write_config(
            tmp_path / "c.json",
            feature="posegaze",
            input=str(tmp_path / "empty"),
            labels=str(tmp_path / "none.csv"),
        )
        code = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "no videos found" in capsys.readouterr().err

    def test_unlabeled_video_exits_3(self, pose_tree, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("video_id,label\nvid00,0\n")  # vid01, vid02 missing
        config = write_config(
            tmp_path / "c.json",
            feature="posegaze",
            m=20,
            input=str(pose_tree),
            labels=str(labels),
        )
        assert (
            run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o"))
            == 3
        )


# ---------------------------------------------------------------------------
# train / predict / localize round trips per model kind


def _split_dirs(synth_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("split")
    dataset = load_dataset(synth_dir / "data")
    train_ds, test_ds = split_subject_independent(dataset, 0.25, 0)
    save_dataset(train_ds, root / "train")
    save_dataset(test_ds, root / "test")
    return root


@pytest.fixture(scope="module")
def split_root(synth_dir, tmp_path_factory):
    return _split_dirs(synth_dir, tmp_path_factory)


MODEL_CONFIGS = {
    "milnet": {
        "model": "milnet",
        "hidden": [16, 8],
        "pooling": "mean",
        "train": {"step_size": 0.02, "epochs": 25, "batch_size": 8},
    },
    "seqnet": {
        "model": "seqnet",
        "seq_hidden": 4,
        "seq_dense": [8, 4],
        "train": {"step_size": 0.5, "epochs": 10, "batch_size": 4},
    },
    "svr": {"model": "svr", "svr": {"sigma": 2.0}},
    "sgd": {"model": "sgd", "sgd": {"epochs": 40, "eta0": 0.001}},
    "ridge": {"model": "ridge"},
}


@pytest.mark.parametrize("kind", sorted(MODEL_CONFIGS))
class TestModelCommands:
    def _config(self, tmp_path, split_root, kind, **extra):
        keys = dict(MODEL_CONFIGS[kind])
        keys.update(
            seed=0,
            dataset=str(split_root / "train"),
            model_path=str(tmp_path / "model.bin"),
        )
        keys.update(extra)
        return write_config(tmp_path / f"{kind}.json", **keys)

    def test_full_round_trip(self, tmp_path, split_root, kind):
        config = self._config(tmp_path, split_root, kind)
        assert (
            run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
            == 0
        )
        trace_lines = (tmp_path / "t.csv").read_text().splitlines()
        assert trace_lines[0] == "epoch,loss"

        test_config = self._config(
            tmp_path, split_root, kind, dataset=str(split_root / "test")
        )
        assert (
            run_cli(
                "predict", "--config", str(test_config), "--out", str(tmp_path / "p.csv")
            )
            == 0
        )
        rows = (tmp_path / "p.csv").read_text().splitlines()
        test_ds = load_dataset(split_root / "test")
        assert rows[0] == "video_id,label,prediction"
        assert len(rows) == len(test_ds) + 1
        for row in rows[1:]:
            video_id, label, prediction = row.split(",")
            assert np.isfinite(float(prediction))
            assert int(label) in (0, 1, 2, 3)

        assert (
            run_cli(
                "localize", "--config", str(test_config), "--out", str(tmp_path / "l.csv")
            )
            == 0
        )
        loc_rows = (tmp_path / "l.csv").read_text().splitlines()
        assert loc_rows[0] == "video_id,segment_index,intensity"
        assert len(loc_rows) == len(test_ds) * test_ds.m + 1

    def test_model_file_alone_guards_against_subject_overlap(
        self, tmp_path, split_root, kind, capsys
    ):
        models = tmp_path / "models"
        models.mkdir()
        config = self._config(tmp_path, split_root, kind, model_path=str(models / "m.bin"))
        assert run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv")) == 0
        assert [p.name for p in models.iterdir()] == ["m.bin"]
        code = run_cli("eval", "--config", str(config), "--out", str(tmp_path / "r.json"))
        assert code == 3
        assert "share subjects" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path, split_root, kind):
        config = self._config(tmp_path, split_root, kind)
        for suffix in ("a", "b"):
            assert (
                run_cli(
                    "train",
                    "--config",
                    str(config),
                    "--model",
                    str(tmp_path / f"m_{suffix}.bin"),
                    "--out",
                    str(tmp_path / f"t_{suffix}.csv"),
                )
                == 0
            )
        assert (tmp_path / "m_a.bin").read_bytes() == (tmp_path / "m_b.bin").read_bytes()
        assert (tmp_path / "t_a.csv").read_bytes() == (tmp_path / "t_b.csv").read_bytes()


@pytest.fixture(scope="module")
def artifacts(synth_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("loc")
    config = write_config(
        root / "c.json",
        seed=0,
        model="milnet",
        hidden=[16, 8],
        pooling="mean",
        train={"step_size": 0.02, "epochs": 25, "batch_size": 8},
        dataset=str(synth_dir / "data"),
        model_path=str(root / "model.bin"),
        planted=str(synth_dir / "data" / "planted.csv"),
    )
    assert run_cli("train", "--config", str(config), "--out", str(root / "t.csv")) == 0
    assert (
        run_cli("localize", "--config", str(config), "--out", str(root / "l.csv")) == 0
    )
    return root


class TestLocalizeCsv:
    def test_planted_column_present(self, artifacts):
        rows = (artifacts / "l.csv").read_text().splitlines()
        assert rows[0] == "video_id,segment_index,intensity,planted_intensity"
        planted_values = {row.split(",")[3] for row in rows[1:]}
        assert planted_values <= {repr(float(v)) for v in (0.0, 1.0, 2.0, 3.0)}

    def test_group_average_matches_per_video_mean(self, artifacts, synth_dir):
        """Averaging the CSV per video reproduces the per-bag mean curve."""
        from engage_mil.networks import load_net, localize_dataset

        net, _ = load_net(artifacts / "model.bin")
        dataset = load_dataset(synth_dir / "data")
        per_video = {}
        for row in (artifacts / "l.csv").read_text().splitlines()[1:]:
            video_id, _, value, _ = row.split(",")
            per_video.setdefault(video_id, []).append(float(value))
        for bag, expected in zip(dataset.bags, localize_dataset(net, dataset)):
            got = per_video[bag.video_id]
            assert np.allclose(got, expected, rtol=0, atol=0)
            assert np.isclose(np.mean(got), expected.mean())

    def test_label_group_curve_is_mean_of_video_curves(self, artifacts, synth_dir):
        """Per-label average curves from the CSV equal the mean of the
        per-video localization curves computed directly."""
        from engage_mil.networks import load_net, localize_dataset

        net, _ = load_net(artifacts / "model.bin")
        dataset = load_dataset(synth_dir / "data")
        curves = localize_dataset(net, dataset)
        label_of = {bag.video_id: bag.label for bag in dataset.bags}
        csv_curves = {}
        for row in (artifacts / "l.csv").read_text().splitlines()[1:]:
            video_id, _, value, _ = row.split(",")
            csv_curves.setdefault(video_id, []).append(float(value))
        for level in (0, 1, 2, 3):
            videos = sorted(v for v, l in label_of.items() if l == level)
            from_csv = np.mean([csv_curves[v] for v in videos], axis=0)
            direct = np.mean(
                [
                    curve
                    for bag, curve in zip(dataset.bags, curves)
                    if bag.label == level
                ],
                axis=0,
            )
            np.testing.assert_array_equal(from_csv, direct)


# ---------------------------------------------------------------------------
# eval


@pytest.fixture(scope="module")
def trained(split_root, tmp_path_factory):
    root = tmp_path_factory.mktemp("eval")
    config = write_config(
        root / "train.json",
        seed=0,
        model="ridge",
        dataset=str(split_root / "train"),
        model_path=str(root / "model.json"),
    )
    assert run_cli("train", "--config", str(config), "--out", str(root / "t.csv")) == 0
    return root


class TestEval:
    def test_report_written(self, trained, split_root, tmp_path, capsys):
        config = write_config(
            tmp_path / "eval.json",
            dataset=str(split_root / "test"),
            train_dataset=str(split_root / "train"),
            model_path=str(trained / "model.json"),
        )
        out = tmp_path / "report.json"
        assert run_cli("eval", "--config", str(config), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"mse", "classwise_mse", "pcc", "class_counts"}
        assert set(report["classwise_mse"]) == {"0", "1", "2", "3"}
        assert "mse=" in capsys.readouterr().out

    def test_subject_overlap_refused(self, trained, split_root, tmp_path, capsys):
        config = write_config(
            tmp_path / "eval.json",
            dataset=str(split_root / "train"),  # same side the model saw
            model_path=str(trained / "model.json"),
        )
        code = run_cli("eval", "--config", str(config), "--out", str(tmp_path / "r.json"))
        assert code == 3
        assert "share subjects" in capsys.readouterr().err

    def test_feature_kind_mismatch_refused(
        self, trained, frame_tree, tmp_path, capsys
    ):
        extract_config = write_config(
            tmp_path / "ex.json",
            feature="lbptop",
            m=5,
            input=str(frame_tree),
            labels=str(frame_tree / "labels.csv"),
        )
        assert (
            run_cli(
                "extract", "--config", str(extract_config), "--out", str(tmp_path / "ds")
            )
            == 0
        )
        config = write_config(
            tmp_path / "eval.json",
            dataset=str(tmp_path / "ds"),
            model_path=str(trained / "model.json"),
        )
        code = run_cli(
            "predict", "--config", str(config), "--out", str(tmp_path / "p.csv")
        )
        assert code == 3
        assert "features" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# audit: training must never read test-side feature files


class TestAudit:
    def test_train_reads_no_test_features(
        self, split_root, tmp_path, monkeypatch
    ):
        audit_log = tmp_path / "reads.log"
        monkeypatch.setenv("ENGAGE_MIL_AUDIT", str(audit_log))
        config = write_config(
            tmp_path / "c.json",
            seed=0,
            model="ridge",
            dataset=str(split_root / "train"),
            model_path=str(tmp_path / "model.json"),
        )
        assert (
            run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
            == 0
        )
        reads = audit_log.read_text().splitlines()
        assert reads, "training should log its file reads"
        test_side = str(split_root / "test")
        assert not [r for r in reads if test_side in r]
        train_side = str(split_root / "train")
        assert [r for r in reads if train_side in r]

    def test_eval_reads_test_features_and_is_logged(
        self, split_root, tmp_path, monkeypatch
    ):
        config = write_config(
            tmp_path / "c.json",
            seed=0,
            model="ridge",
            dataset=str(split_root / "train"),
            model_path=str(tmp_path / "model.json"),
        )
        assert (
            run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
            == 0
        )
        audit_log = tmp_path / "reads.log"
        monkeypatch.setenv("ENGAGE_MIL_AUDIT", str(audit_log))
        eval_config = write_config(
            tmp_path / "eval.json",
            dataset=str(split_root / "test"),
            train_dataset=str(split_root / "train"),
            model_path=str(tmp_path / "model.json"),
        )
        assert (
            run_cli(
                "eval", "--config", str(eval_config), "--out", str(tmp_path / "r.json")
            )
            == 0
        )
        reads = audit_log.read_text()
        assert str(split_root / "test") in reads


# ---------------------------------------------------------------------------
# process-level behaviour


class TestProcess:
    def test_console_script_runs(self, synth_dir, tmp_path):
        config = synth_dir / "config.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "engage_mil.cli",
                "synth",
                "--config",
                str(config),
                "--out",
                str(tmp_path / "d"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "level 0:" in proc.stdout

    def test_log_env_invalid_value_exits_2(self, synth_dir, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "engage_mil.cli",
                "synth",
                "--config",
                str(synth_dir / "config.json"),
                "--out",
                str(tmp_path / "d"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "ENGAGE_MIL_LOG": "chatty"},
        )
        assert proc.returncode == 2
        assert "ENGAGE_MIL_LOG" in proc.stderr

    def test_log_env_info_writes_to_stderr(self, synth_dir, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "engage_mil.cli",
                "synth",
                "--config",
                str(synth_dir / "config.json"),
                "--out",
                str(tmp_path / "d"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "ENGAGE_MIL_LOG": "info"},
        )
        assert proc.returncode == 0
        assert "synth" in proc.stderr

    def test_divergent_training_exits_4(self, split_root, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            seed=0,
            model="milnet",
            hidden=[8],
            pooling="mean",
            train={"step_size": 1e200, "epochs": 5, "batch_size": 4},
            dataset=str(split_root / "train"),
            model_path=str(tmp_path / "m.bin"),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(
                "train", "--config", str(config), "--out", str(tmp_path / "t.csv")
            )
        assert code == 4

    def test_svr_step_cap_exits_4(self, split_root, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "svr_train", functools.partial(svr_train, max_iter=5))
        config = write_config(
            tmp_path / "c.json",
            seed=0,
            model="svr",
            dataset=str(split_root / "train"),
            model_path=str(tmp_path / "m.bin"),
        )
        code = run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
        assert code == 4
        assert "after 5 steps" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("kind", ["svr", "mil"])
    @pytest.mark.parametrize(
        "header",
        [
            ([1, 2], "model header must be a JSON object"),
            ({"kind": None}, "model header missing 'fields'"),
            (
                {"kind": 3, "fields": {}, "meta": {}, "shapes": [[2, "5"]]},
                "model header has a bad 'kind'",
            ),
        ],
    )
    def test_model_with_a_bad_header_exits_3(self, split_root, tmp_path, capsys, kind, header):
        """Each bad header is refused with the message naming its fault;
        `kind` fills a header's empty kind."""
        header, match = header
        if isinstance(header, dict) and header["kind"] is None:
            header = {**header, "kind": kind}
        model = tmp_path / "model.bin"
        model.write_bytes(model_file_bytes(header, bytes(64)))
        config = write_config(
            tmp_path / "c.json",
            dataset=str(split_root / "test"),
            train_dataset=str(split_root / "train"),
            model_path=str(model),
        )
        code = run_cli("eval", "--config", str(config), "--out", str(tmp_path / "r.json"))
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and str(model) in err and match in err

    @pytest.mark.parametrize("case", ["json-list", "linear-no-weights", "bad-meta", "huge-net"])
    def test_malformed_model_file_exits_3(self, split_root, tmp_path, capsys, case):
        """Files in the retired JSON format, and container files whose meta
        is not an object or whose shapes outgrow the payload."""
        model = tmp_path / "model.bin"
        if case == "json-list":
            model.write_text("[1, 2]")
        elif case == "linear-no-weights":
            model.write_text('{"kind": "linear"}')
        else:
            save_net(build_mil_net(5, hidden=(4,), seed=0), model)
            header, payload = split_model_file(model.read_bytes())
            if case == "bad-meta":
                header["meta"] = "{bad"
            else:
                header["shapes"] = [[10**7, 5], [10**7], [1, 10**7], [1]]
            model.write_bytes(model_file_bytes(header, payload))
        config = write_config(
            tmp_path / "c.json", dataset=str(split_root / "test"), model_path=str(model)
        )
        code = run_cli("predict", "--config", str(config), "--out", str(tmp_path / "p.csv"))
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "model.bin" in err
        want = {"bad-meta": "bad 'meta'", "huge-net": "payload size mismatch"}
        assert want.get(case, "not a supported model file") in err

    def test_planted_truth_shorter_than_the_bags_exits_3(
        self, artifacts, synth_dir, tmp_path, capsys
    ):
        planted = tmp_path / "planted.csv"
        lines = (synth_dir / "data" / "planted.csv").read_text().splitlines()
        # drop the last of the 10 segments of every video
        planted.write_text("\n".join(line for line in lines if ",9," not in line) + "\n")
        config = write_config(
            tmp_path / "c.json",
            dataset=str(synth_dir / "data"),
            model_path=str(artifacts / "model.bin"),
            planted=str(planted),
        )
        code = run_cli("localize", "--config", str(config), "--out", str(tmp_path / "l.csv"))
        assert code == 3
        assert "no 10 segments in the planted-truth file" in capsys.readouterr().err

    @pytest.mark.parametrize("subjects", ["subj0", 5, [1]])
    def test_model_with_bad_train_subjects_exits_3(self, split_root, tmp_path, capsys, subjects):
        model = tmp_path / "model.bin"
        save_net(build_mil_net(5, hidden=(4,), pooling="mean", seed=0), model)
        header, payload = split_model_file(model.read_bytes())
        header["meta"] = {"train_subjects": subjects}
        model.write_bytes(model_file_bytes(header, payload))
        config = write_config(
            tmp_path / "c.json", dataset=str(split_root / "test"), model_path=str(model)
        )
        code = run_cli("eval", "--config", str(config), "--out", str(tmp_path / "r.json"))
        assert code == 3
        assert "train_subjects" in capsys.readouterr().err

    def test_topk_wider_than_the_bags_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            seed=0,
            synth={"subjects": 2, "videos": 4, "m": 6, "dim": 5},
            dataset=str(tmp_path / "data"),
            model_path=str(tmp_path / "model.bin"),
        )
        assert run_cli("synth", "--config", str(config), "--out", str(tmp_path / "data")) == 0
        net = build_mil_net(5, hidden=(4,), pooling="topk", k=10, seed=0)
        save_net(net, tmp_path / "model.bin")
        code = run_cli("predict", "--config", str(config), "--out", str(tmp_path / "p.csv"))
        assert code == 3
        assert "top 10 segments, dataset bags have 6" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [2.5, "2", True, 7, -1])
    def test_bad_index_label_exits_3(self, split_root, tmp_path, capsys, label):
        dataset = shutil.copytree(split_root / "train", tmp_path / "ds")
        index = json.loads((dataset / "index.json").read_text())
        index[0]["label"] = label
        (dataset / "index.json").write_text(json.dumps(index))
        config = write_config(
            tmp_path / "c.json",
            model="ridge",
            dataset=str(dataset),
            model_path=str(tmp_path / "m.json"),
        )
        code = run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
        assert code == 3
        assert str(dataset / "index.json") in capsys.readouterr().err

    def test_missing_model_file_exits_3(self, split_root, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            dataset=str(split_root / "test"),
            model_path=str(tmp_path / "nope.bin"),
        )
        assert (
            run_cli("predict", "--config", str(config), "--out", str(tmp_path / "p.csv"))
            == 3
        )

    def test_config_missing_required_path_exits_2(self, tmp_path):
        config = write_config(tmp_path / "c.json")  # no dataset
        assert (
            run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
            == 2
        )
