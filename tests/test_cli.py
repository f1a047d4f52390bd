"""End-to-end tests of the command line: every command, exit codes,
byte-level determinism, and the audit guarantee that training never
touches test features."""

import functools
import hashlib
import inspect
import json
import re
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from engage_mil import bags, baselines, cli, features, networks
from engage_mil.bags import load_dataset, save_dataset, split_subject_independent, write_model
from engage_mil.baselines import LinearModel, SvrConfig, svr_train
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
from engage_mil.networks import build_mil_net, build_seq_net, save_net

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

# (setting, value): one value of the wrong JSON kind per kind of setting, at
# the top level and nested
BAD_TYPED = [
    # int
    ("seed", 1.5),
    ("pool_k", 2.7),
    ("seq_hidden", 2.5),
    ("jobs", True),
    ("train.epochs", "1"),
    ("train.epochs", 1.9),
    # float
    ("target_fps", "6"),
    ("svr.sigma", "2"),
    ("sgd.eta0", True),
    # str
    ("model", ["ridge"]),
    ("xy_frames", None),
    # tuple
    ("hidden", [2.5]),
    ("grid", "1,1"),
    ("synth.class_distribution", [0.5, 0.5, "0", 0]),
    # path
    ("dataset", 5),
    ("model_path", ["m.bin"]),
    # bool: only a JSON boolean
    ("ridge.fit_intercept", "false"),
    ("ridge.fit_intercept", 0),
    ("ridge.fit_intercept", 1),
    ("ridge.fit_intercept", None),
    ("ridge.fit_intercept", [True]),
]


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

    @pytest.mark.parametrize(
        "block,key",
        [("synth", "typo_rho"), ("sgd", "bogus"), ("train", "seed"), ("svr", "kernel")],
    )
    def test_unknown_nested_key_rejected(self, tmp_path, block, key):
        path = write_config(tmp_path / "c.json", **{block: {key: 9}})
        with pytest.raises(ConfigError, match=f"unknown {block} config keys: {key}"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize(
        "block,message",
        [
            # the ids these two cases had when the test covered the train block alone
            pytest.param(
                {"train": {"epochs": "x"}},
                "train.epochs has a bad value 'x'",
                id="train0-train.epochs has a bad value 'x'",
            ),
            pytest.param({"train": {"step_size": -1}}, "step size", id="train1-step size"),
            ({"svr": {"c": 0}}, "C must be positive"),
            ({"svr": {"sigma": -1}}, "sigma must be positive"),
            ({"sgd": {"penalty": -1}}, "sgd penalty must be nonnegative"),
            ({"ridge": {"fit_intercept": "no"}}, "ridge.fit_intercept has a bad value 'no'"),
            ({"synth": {"rho": 2}}, "rho must be in (0, 1]"),
        ],
    )
    def test_bad_nested_value_exits_2(self, tmp_path, capsys, block, message):
        """One bad value per nested block exits 2 before any input is read:
        the dataset path does not exist."""
        config = write_config(
            tmp_path / "c.json",
            hidden=[4],
            dataset=str(tmp_path / "absent"),
            model_path=str(tmp_path / "m.bin"),
            **block,
        )
        code = run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err

    @pytest.mark.parametrize(
        "name,value", BAD_TYPED, ids=[f"{name}={json.dumps(value)}" for name, value in BAD_TYPED]
    )
    def test_bad_typed_value_exits_2(self, tmp_path, capsys, name, value):
        """A value of the wrong JSON kind exits 2 before any input is read:
        the dataset path does not exist."""
        block, _, key = name.rpartition(".")
        keys = {block: {key: value}} if block else {key: value}
        config = write_config(
            tmp_path / "c.json",
            **{"dataset": str(tmp_path / "absent"), "model_path": str(tmp_path / "m.bin"), **keys},
        )
        code = run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"config {name} has a bad value" in err

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_a_non_finite_number_exits_2(self, tmp_path, capsys, number):
        """json.loads takes these, but JSON has no such number."""
        keys = dict(model="svr", svr={"c": 0}, dataset=str(tmp_path / "absent"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(keys).replace('"c": 0', f'"c": {number}'))
        code = run_cli("train", "--config", str(path), "--out", str(tmp_path / "t.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"config {path} non-finite number" in err

    def test_well_typed_values_load(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            target_fps=6,
            hidden=[4, 2],
            dataset=None,
            train=None,
            svr={"sigma": 2},
            ridge={"fit_intercept": False},
            synth={"class_distribution": [1, 0, 0, 0]},
        )
        config = RunConfig.from_file(path)
        assert (config.target_fps, config.hidden, config.dataset) == (6.0, (4, 2), None)
        assert type(config.target_fps) is float and type(config.svr["sigma"]) is float
        assert config.train == cli._SETTINGS["train"] and config.ridge["fit_intercept"] is False
        assert config.synth["class_distribution"] == (1.0, 0.0, 0.0, 0.0)

    def test_readme_names_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Config keys (defaults)")[1].split("```")[1]
        top = set(re.findall(r"\w+", re.sub(r"\{.*\}", "", block)))
        nested = dict(re.findall(r"^(\w+) \{(.*)\}$", block, re.M))
        for key, default in cli._SETTINGS.items():
            assert key in top
            if isinstance(default, dict):
                assert set(default) <= set(re.findall(r"\w+", nested[key])), key

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_file(path)

    def test_too_deep_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[" * 100_000)
        code = run_cli("train", "--config", str(path), "--out", str(tmp_path / "t.csv"))
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and f"config {path} nests too deeply" in err

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

    @pytest.mark.parametrize("cell", ["\u0662", "\uff13", "0_1", "+2", "02"])
    def test_a_label_spelled_other_than_one_digit_is_refused_at_its_line(self, tmp_path, cell):
        """' 2 ' reads as 2; an Arabic-Indic or full-width digit, an
        underscore, a sign or a leading zero does not spell a level."""
        path = tmp_path / "labels.csv"
        path.write_text("video_id,label\na, 2 \n", encoding="utf-8")
        assert load_labels_csv(path) == {"a": 2}
        path.write_text(f"video_id,label\na, 2 \nb,{cell}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"label '{cell}' is not a level 0..3")) as caught:
            load_labels_csv(path)
        assert caught.value.line == 3

    def test_duplicate_video(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,label\na,1\na,2\n")
        with pytest.raises(ParseError):
            load_labels_csv(path)

    def test_labels_that_are_not_utf8_exit_3(self, pose_tree, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"video_id,label\nvid00,0\nvid01,1\nvid02,\xff2\n")
        config = write_config(
            tmp_path / "c.json", feature="posegaze", m=5, input=str(pose_tree), labels=str(labels)
        )
        code = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err and f"cannot read labels {labels}" in err


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

    def test_noise_past_float32_exits_3_and_writes_nothing(self, tmp_path, capsys):
        """Noise of scale 1e39 overflows a feature file's float32: a data
        error naming the first video, with no warning and no file written."""
        synth = {"videos": 4, "subjects": 2, "m": 5, "noise_scale": 1e39}
        config = write_config(tmp_path / "c.json", synth=synth)
        code = run_cli("synth", "--config", str(config), "--out", str(tmp_path / "ds"))
        err = capsys.readouterr().err
        assert code == 3
        assert "Warning" not in err and "'video0': non-finite feature values in float32" in err
        assert not (tmp_path / "ds").exists()

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


# (feature, window) -> SHA-256 of features/v0.bin and index.json, written by
# test_extract_writes_its_pinned_bytes
PINNED_EXTRACT = {
    ("lbptop", 8): [
        "cabb248b394c34d56b64d946561a3386a80106af290404d67d0fd92f3883fcc9",
        "8f381b4ec6746d592eff2d66edc7c4024cecae7b3e7914ee8a55612bf7c2aad9",
    ],
    ("lbptop", 5): [
        "7458de77c2f7cc19843ab9dcf3620d46b7924c34bf0a23e4e566a50320c3cf38",
        "11fdbb96f8903de5ae91bae5da254145ce1f7b204553c981e2f4c28509c7423f",
    ],
    ("posegaze", 4): [
        "e442ffc1cff6583313cdb8839066627788eb198545dac02d021258a2c498802f",
        "19425e002960c4aa6a00585eb5fdcf4362f13ad7cbd95c7a501b71f0025bfc30",
    ],
}


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

    def test_lbptop_window_of_2_exits_2_before_any_read(
        self, frame_tree, tmp_path, capsys, monkeypatch
    ):
        config = write_config(
            tmp_path / "c.json",
            feature="lbptop",
            window=2,
            input=str(frame_tree),
            labels=str(frame_tree / "labels.csv"),
        )
        trail = tmp_path / "reads.log"
        monkeypatch.setenv("ENGAGE_MIL_AUDIT", str(trail))
        code = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "ds"))
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and "an lbptop window must be at least 3 frames" in err
        assert trail.read_text().splitlines() == [os.path.realpath(config)]
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("feature,keys", [
        ("lbptop", {"window": 8, "stride": 3}),
        ("lbptop", {"window": 5, "stride": 2, "grid": [2, 3], "xy_frames": "center"}),
        ("posegaze", {"window": 4, "stride": 2}),
    ])
    def test_extract_writes_its_pinned_bytes(self, tmp_path, feature, keys):
        """The SHA-256 of the feature file and index of a seeded 40-frame
        archive (48x64 at 12 fps, so 20 frames in two code-map chunks) and of
        a 200-row pose/gaze track at 30 fps; a rewrite of the feature kernels
        or readers that moves one bit shows here."""
        rng = np.random.default_rng(2020)
        video = tmp_path / "raw" / "v0"
        if feature == "lbptop":
            frames = rng.integers(0, 256, (40, 48, 64)).astype(np.uint8)
            save_frame_archive(FrameSequence(frames, 12.0, "s0", "v0"), video)
        else:
            video.mkdir(parents=True)
            blocks = [rng.normal(0, scale, (200, 3)) for scale in (10, 0.2, 1, 1)]
            save_pose_gaze_csv(PoseGazeTrack(*blocks), video / "pose.csv")
            (video / "manifest.json").write_text(
                json.dumps({"video_id": "v0", "subject_id": "s0", "fps": 30.0})
            )
        (video.parent / "labels.csv").write_text("video_id,label\nv0,2\n")
        config = write_config(
            tmp_path / "c.json",
            feature=feature,
            m=4,
            input=str(video.parent),
            labels=str(video.parent / "labels.csv"),
            **keys,
        )
        out = tmp_path / "ds"
        assert run_cli("extract", "--config", str(config), "--out", str(out)) == 0
        digests = [
            hashlib.sha256((out / rel).read_bytes()).hexdigest()
            for rel in ("features/v0.bin", "index.json")
        ]
        assert digests == PINNED_EXTRACT[feature, keys["window"]]

    def test_two_frame_names_of_one_number_exit_3(self, frame_tree, tmp_path, capsys):
        """7.pgm and 007.pgm would both be frame 7: a data error naming the folder."""
        video = tmp_path / "raw" / "fvid0"
        shutil.copytree(frame_tree / "fvid0", video)
        (video / "frames" / "000007.pgm").rename(video / "frames" / "7.pgm")
        (video / "frames" / "000008.pgm").rename(video / "frames" / "007.pgm")
        (video.parent / "labels.csv").write_text("video_id,label\nfvid0,1\n")
        config = write_config(
            tmp_path / "c.json",
            feature="lbptop",
            input=str(video.parent),
            labels=str(video.parent / "labels.csv"),
        )
        code = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "ds"))
        err = capsys.readouterr().err
        assert code == 3
        assert f"{video / 'frames'}: frames 007.pgm and 7.pgm have the same frame number" in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("scale", [1e40, 1e200])
    def test_pose_deviation_past_float32_exits_3(self, tmp_path, capsys, scale):
        """Finite but huge head positions give deviations that a float32
        feature file cannot hold (at 1e200 the float64 std overflows too): a
        data error naming the video, with no warning and nothing written."""
        video = tmp_path / "raw" / "v0"
        video.mkdir(parents=True)
        rng = np.random.default_rng(5)
        blocks = [rng.normal(0, 1, (60, 3)) for _ in range(4)]
        blocks[0] *= scale
        save_pose_gaze_csv(PoseGazeTrack(*blocks), video / "pose.csv")
        (video / "manifest.json").write_text(
            json.dumps({"video_id": "v0", "subject_id": "s0", "fps": 6.0})
        )
        (video.parent / "labels.csv").write_text("video_id,label\nv0,1\n")
        config = write_config(
            tmp_path / "c.json",
            feature="posegaze",
            window=4,
            stride=2,
            input=str(video.parent),
            labels=str(video.parent / "labels.csv"),
        )
        code = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "ds"))
        err = capsys.readouterr().err
        assert code == 3
        assert "'v0': non-finite feature values in float32" in err
        assert not (tmp_path / "ds").exists()

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

    @pytest.mark.parametrize(
        "feature,edit",
        [
            ("lbptop", {"frame_count": 0}),
            ("lbptop", {"fps": 0}),
            ("lbptop", {"fps": "x"}),
            ("posegaze", {"fps": 0}),
            ("posegaze", {"fps": "x"}),
            ("lbptop", {"fps": 2}),
            ("posegaze", {"fps": 2}),
        ],
    )
    def test_bad_manifest_exits_3(self, frame_tree, pose_tree, tmp_path, capsys, feature, edit):
        """A manifest fault is a data error naming manifest.json, for either
        feature kind; frame_count 0 comes with an empty archive, and fps 2
        is below the default target rate of 6."""
        source = frame_tree / "fvid0" if feature == "lbptop" else pose_tree / "vid00"
        root = tmp_path / "raw"
        video = root / source.name
        shutil.copytree(source, video)
        manifest = json.loads((video / "manifest.json").read_text())
        (video / "manifest.json").write_text(json.dumps({**manifest, **edit}))
        if edit.get("frame_count") == 0:
            shutil.rmtree(video / "frames")
        (root / "labels.csv").write_text(f"video_id,label\n{manifest['video_id']},1\n")
        config = write_config(
            tmp_path / "c.json",
            feature=feature,
            m=5,
            input=str(root),
            labels=str(root / "labels.csv"),
        )
        code = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err and "manifest.json" in err

    @pytest.mark.parametrize(
        "feature,fault",
        [
            ("lbptop", {"frame_count": 0}),
            ("lbptop", {"fps": "x"}),
            ("posegaze", {"fps": 2}),
            ("lbptop", "truncated frame"),
        ],
        ids=["frame-count-0", "fps-x", "fps-2", "truncated-pgm"],
    )
    def test_a_bad_input_exits_the_same_at_two_jobs(
        self, frame_tree, pose_tree, tmp_path, capsys, feature, fault
    ):
        """A fault a pool worker finds reaches the parent as it does at one
        job: a ParseError survives the trip back from the worker."""
        root = shutil.copytree(frame_tree if feature == "lbptop" else pose_tree, tmp_path / "raw")
        video = sorted(p for p in root.iterdir() if p.is_dir())[-1]
        if isinstance(fault, dict):
            manifest = json.loads((video / "manifest.json").read_text())
            (video / "manifest.json").write_text(json.dumps({**manifest, **fault}))
            if fault.get("frame_count") == 0:
                shutil.rmtree(video / "frames")
        else:
            frame = sorted((video / "frames").iterdir())[3]
            frame.write_bytes(frame.read_bytes()[:-10])
        config = write_config(
            tmp_path / "c.json", feature=feature, m=5, input=str(root), labels=str(root / "labels.csv")
        )
        outcomes = []
        for jobs in ("1", "2"):
            out = tmp_path / f"o{jobs}"
            code = run_cli("extract", "--config", str(config), "--jobs", jobs, "--out", str(out))
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        code, err = outcomes[0]
        assert code == 3 and "Traceback" not in err and str(video) in err

    @pytest.mark.parametrize("frames", ["missing", "not-a-directory"])
    def test_unlistable_frames_folder_holds_no_frames_and_exits_3(
        self, frame_tree, tmp_path, capsys, frames
    ):
        """A frames/ that is missing or is a file lists no frames: the
        manifest's count then disagrees, a data error rather than an OSError."""
        root = tmp_path / "raw"
        video = shutil.copytree(frame_tree / "fvid0", root / "fvid0")
        shutil.rmtree(video / "frames")
        if frames == "not-a-directory":
            (video / "frames").write_bytes(b"P5\n")
        (root / "labels.csv").write_text("video_id,label\nfvid0,1\n")
        config = write_config(
            tmp_path / "c.json",
            feature="lbptop",
            m=5,
            input=str(root),
            labels=str(root / "labels.csv"),
        )
        code = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err and "found 0" in err

    @pytest.mark.parametrize(
        "line,cell,message",
        [(2, b"nan", "non-finite value"), (3, b"1e500", "non-finite value"), (4, b"0.\xff", "not UTF-8")],
        ids=["nan", "overflow", "not-utf8"],
    )
    def test_bad_pose_csv_exits_3_naming_the_line(
        self, pose_tree, tmp_path, capsys, line, cell, message
    ):
        root = shutil.copytree(pose_tree, tmp_path / "raw")
        pose = root / "vid01" / "pose.csv"
        lines = pose.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1].rsplit(b",", 1)[0] + b"," + cell
        pose.write_bytes(b"\n".join(lines))
        config = write_config(
            tmp_path / "c.json",
            feature="posegaze",
            m=5,
            input=str(root),
            labels=str(root / "labels.csv"),
        )
        code = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err and f"pose.csv:{line}: {message}" in err

    @staticmethod
    def _extract_renamed(pose_tree, tmp_path, video_id) -> tuple[int, Path]:
        """Extract a copy of pose_tree whose vid01 manifest names `video_id`,
        labeled; the exit code and the copy's root."""
        root = shutil.copytree(pose_tree, tmp_path / "raw")
        manifest = root / "vid01" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "video_id": video_id}))
        labels = {"vid00": 0, video_id: 1, "vid02": 2}
        (root / "labels.csv").write_text(
            "video_id,label\n" + "".join(f"{v},{y}\n" for v, y in labels.items())
        )
        keys = {"feature": "posegaze", "input": str(root), "labels": str(root / "labels.csv")}
        config = write_config(tmp_path / "c.json", **keys)
        return run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o")), root

    @pytest.mark.parametrize("video_id", ["a/b", "../../escaped", "", ".x", "a b", "vid\u00e9"])
    def test_a_bad_video_id_exits_3(self, pose_tree, tmp_path, capsys, video_id):
        """A video id names its feature file, so one that is not a plain file
        name is refused, naming the manifest, before anything is written."""
        code, root = self._extract_renamed(pose_tree, tmp_path, video_id)
        err = capsys.readouterr().err
        assert code == 3
        manifest = root / "vid01" / "manifest.json"
        assert "Traceback" not in err and f"{manifest}:1: manifest has a bad 'video_id'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "raw"]

    def test_two_videos_with_one_id_exit_3(self, pose_tree, tmp_path, capsys):
        code, root = self._extract_renamed(pose_tree, tmp_path, "vid00")
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert f"{root / 'vid00'} and {root / 'vid01'} both hold video 'vid00'" in err
        assert not (tmp_path / "o").exists()

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
        # SMO steps and the rising dual objective; epochs and losses otherwise
        assert trace_lines[0] == ("step,objective" if kind == "svr" else "epoch,loss")

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
        from engage_mil.networks import load_net

        net, _ = load_net(artifacts / "model.bin")
        dataset = load_dataset(synth_dir / "data")
        per_video = {}
        for row in (artifacts / "l.csv").read_text().splitlines()[1:]:
            video_id, _, value, _ = row.split(",")
            per_video.setdefault(video_id, []).append(float(value))
        for bag, expected in zip(dataset.bags, net.localize_bags(dataset)):
            got = per_video[bag.video_id]
            assert np.allclose(got, expected, rtol=0, atol=0)
            assert np.isclose(np.mean(got), expected.mean())

    def test_label_group_curve_is_mean_of_video_curves(self, artifacts, synth_dir):
        """Per-label average curves from the CSV equal the mean of the
        per-video localization curves computed directly."""
        from engage_mil.networks import load_net

        net, _ = load_net(artifacts / "model.bin")
        dataset = load_dataset(synth_dir / "data")
        curves = net.localize_bags(dataset)
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

    def test_importing_the_cli_loads_neither_hashlib_nor_numpy_ma(self):
        """OpenSSL's _hashlib, which hashlib loads, adds about 3.5 MB to a
        command's peak RSS, and numpy.ma about 1.6 MB: bags takes SHA-256 from
        CPython's own module, and nothing imports numpy.ma."""
        code = "import sys, engage_mil.cli\n"
        code += "print(sorted(m for m in sys.modules if m == '_hashlib' or m.split('.')[:2] == ['numpy', 'ma']))"
        src = str(Path(bags.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

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

    @pytest.mark.parametrize(
        "case",
        [
            "json-list",
            "linear-no-weights",
            "bad-meta",
            "huge-net",
            "eight-gate-seq",
            "wider-net",
            "topk-past-bag",
            "seq-bag-size",
        ],
    )
    def test_malformed_model_file_exits_3(self, split_root, tmp_path, capsys, case):
        """Files in the retired JSON format, seq files in the retired layout
        of eight per-gate LSTM arrays, container files whose meta is not an
        object or whose shapes outgrow the payload, and well-formed nets that
        do not fit the dataset's 5-dimensional bags of 10 segments."""
        model = tmp_path / "model.bin"
        if case == "wider-net":
            save_net(build_mil_net(8, hidden=(4,), seed=0), model)
        elif case == "topk-past-bag":
            save_net(build_mil_net(5, hidden=(4,), k=12, seed=0), model)
        elif case == "seq-bag-size":
            save_net(build_seq_net(5, m=6, hidden=2, dense=(4, 3)), model)
        elif case == "json-list":
            model.write_text("[1, 2]")
        elif case == "linear-no-weights":
            model.write_text('{"kind": "linear"}')
        elif case == "eight-gate-seq":
            net = build_seq_net(5, m=6, hidden=2, dense=(4, 3))
            w, b = net.lstm.weights, net.lstm.bias
            gates = [part for k in range(0, 8, 2) for part in (w[k : k + 2], b[k : k + 2])]
            fields = {"activations": ["sigmoid"] * 3, "label_scaling": True, "m": 6}
            arrays = gates + net.parameters()[2:]
            shapes = [a.shape for a in arrays]
            header = {"kind": "seq", "fields": fields, "meta": {}, "shapes": shapes}
            payload = b"".join(a.astype("<f8").tobytes() for a in arrays)
            model.write_bytes(model_file_bytes(header, payload))
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
        assert "Traceback" not in err
        want = {
            "bad-meta": "model.bin:1: model header has a bad 'meta'",
            "huge-net": "model.bin:1: payload size mismatch",
            "eight-gate-seq": "model.bin:1: 14 arrays do not fit a stacked (4H, D+H) LSTM weight",
            "wider-net": "error: model expects dimension 8, dataset has 5\n",
            "topk-past-bag": "error: model pools the top 12 segments, dataset bags have 10\n",
            "seq-bag-size": "error: model expects 6 segments per bag, dataset has 10\n",
        }
        assert want.get(case, "model.bin:1: not a supported model file") in err

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

    def test_planted_truth_is_refused_before_any_bag_is_scored(
        self, artifacts, synth_dir, tmp_path, capsys, monkeypatch
    ):
        """A planted-truth file that lacks a video exits 3 with its message
        before localize_bags runs, and writes nothing."""
        served = []
        monkeypatch.setattr(bags.Serving, "localize_bags", lambda model, data: served.append(data))
        planted = tmp_path / "planted.csv"
        lines = (synth_dir / "data" / "planted.csv").read_text().splitlines()
        last = lines[-1].split(",")[0]
        planted.write_text("\n".join(line for line in lines if not line.startswith(last)) + "\n")
        config = write_config(
            tmp_path / "c.json",
            dataset=str(synth_dir / "data"),
            model_path=str(artifacts / "model.bin"),
            planted=str(planted),
        )
        code = run_cli("localize", "--config", str(config), "--out", str(tmp_path / "l.csv"))
        assert code == 3
        assert capsys.readouterr().err == f"error: {last}: no 10 segments in the planted-truth file\n"
        assert served == [] and not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda raw: b"\xff" + raw, "planted.csv:1: not UTF-8"),
            (lambda raw: raw + b"v," + b"9" * 200_000 + b",0\n", "field larger than field limit"),
            (
                lambda raw: re.sub(rb"\n([^\r\n]*)", rb"\n\1,junk", raw, count=1),
                "planted.csv:2: expected 3 cells, found 4",
            ),
        ],
        ids=["not-utf8", "overlong-field", "fourth-cell"],
    )
    def test_unreadable_planted_truth_exits_3(
        self, artifacts, synth_dir, tmp_path, capsys, edit, message
    ):
        planted = tmp_path / "planted.csv"
        planted.write_bytes(edit((synth_dir / "data" / "planted.csv").read_bytes()))
        config = write_config(
            tmp_path / "c.json",
            dataset=str(synth_dir / "data"),
            model_path=str(artifacts / "model.bin"),
            planted=str(planted),
        )
        code = run_cli("localize", "--config", str(config), "--out", str(tmp_path / "l.csv"))
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err and str(planted) in err and message in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e500"])
    def test_non_finite_planted_intensity_exits_3(
        self, artifacts, synth_dir, tmp_path, capsys, value
    ):
        planted = tmp_path / "planted.csv"
        lines = (synth_dir / "data" / "planted.csv").read_text().splitlines()
        video_id, index, _ = lines[3].split(",")
        lines[3] = f"{video_id},{index},{value}"
        planted.write_text("\n".join(lines) + "\n")
        config = write_config(
            tmp_path / "c.json",
            dataset=str(synth_dir / "data"),
            model_path=str(artifacts / "model.bin"),
            planted=str(planted),
        )
        out = tmp_path / "l.csv"
        code = run_cli("localize", "--config", str(config), "--out", str(out))
        assert code == 3
        assert f"{planted}:4: non-finite planted intensity" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("video_id", ["a,b", "../x", "", ".x", None], ids=str)
    def test_an_index_with_a_bad_or_repeated_video_id_exits_3(
        self, split_root, trained, tmp_path, capsys, video_id
    ):
        """A comma would add a field to predict's rows, a path part would
        read a feature file the id does not name; None repeats an id."""
        dataset = shutil.copytree(split_root / "test", tmp_path / "ds")
        index = json.loads((dataset / "index.json").read_text())
        index[1]["video_id"] = index[0]["video_id"] if video_id is None else video_id
        (dataset / "index.json").write_text(json.dumps(index))
        config = write_config(
            tmp_path / "c.json", dataset=str(dataset), model_path=str(trained / "model.json")
        )
        code = run_cli("predict", "--config", str(config), "--out", str(tmp_path / "p.csv"))
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err and str(dataset / "index.json") in err
        assert ("record 2 repeats video" if video_id is None else "has a bad 'video_id'") in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize(
        "edit", [lambda raw: b"\xff\xff" + raw, lambda raw: b"[" * 100_000], ids=["not-utf8", "too-deep"]
    )
    def test_unreadable_index_exits_3(self, split_root, tmp_path, capsys, edit):
        dataset = shutil.copytree(split_root / "train", tmp_path / "ds")
        index = dataset / "index.json"
        index.write_bytes(edit(index.read_bytes()))
        config = write_config(
            tmp_path / "c.json",
            model="ridge",
            dataset=str(dataset),
            model_path=str(tmp_path / "m.json"),
        )
        code = run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err and str(index) in err

    @pytest.mark.parametrize("value", ["no", 1, 0.0, [True], True, False, None])
    def test_bad_scale_labels_exits_2_before_writing_a_model(
        self, split_root, tmp_path, capsys, value
    ):
        """train.scale_labels is retired: each net's class fixes its label
        scale, so the key is unknown whatever its value."""
        model = tmp_path / "m.bin"
        config = write_config(
            tmp_path / "c.json",
            hidden=[4],
            train={"epochs": 1, "scale_labels": value},
            dataset=str(split_root / "train"),
            model_path=str(model),
        )
        code = run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: unknown train config keys: scale_labels\n"
        assert not model.exists()

    @pytest.mark.parametrize(
        "command,key",
        [
            ("train", "out"),
            ("train", "model_path"),
            ("predict", "out"),
            ("localize", "out"),
            ("eval", "out"),
        ],
    )
    def test_an_output_path_in_a_missing_directory_exits_2(
        self, synth_dir, artifacts, tmp_path, capsys, monkeypatch, command, key
    ):
        """Before any input is read (the read trail holds only the config),
        and with no model written."""
        missing = tmp_path / "nodir"
        model = tmp_path / "m.bin" if command == "train" else artifacts / "model.bin"
        out = tmp_path / "out.csv"
        if key == "model_path":
            model = missing / "m.bin"
        else:
            out = missing / "out.csv"
        config = write_config(
            tmp_path / "c.json", model="ridge", dataset=str(synth_dir / "data"), model_path=str(model)
        )
        trail = tmp_path / "reads.log"
        monkeypatch.setenv("ENGAGE_MIL_AUDIT", str(trail))
        code = run_cli(command, "--config", str(config), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and f"directory {missing} not found" in err
        assert trail.read_text().splitlines() == [os.path.realpath(config)]
        assert not (tmp_path / "m.bin").exists() and not missing.exists()

    @pytest.mark.parametrize(
        "command,key,target",
        [
            ("train", "out", "model_path"),
            ("train", "model_path", "dataset"),
            ("train", "out", "dataset"),
            ("predict", "out", "dataset"),
            ("predict", "out", "model_path"),
            ("localize", "out", "planted"),
            ("eval", "out", "train_dataset"),
            ("predict", "out", "symlink"),
            ("predict", "out", "directory"),
        ],
    )
    def test_an_output_that_is_an_input_exits_2(
        self, split_root, trained, tmp_path, capsys, monkeypatch, command, key, target
    ):
        """An output that resolves to another path the command reads or writes
        (a dataset directory meaning its index.json), or is a directory, exits
        2 before any input is read, and every input is left as it was."""
        work = shutil.copytree(split_root, tmp_path / "work")
        shutil.copy(trained / "model.json", work / "model.bin")
        (work / "planted.csv").write_text("planted\n")
        (work / "link.csv").symlink_to(work / "test" / "index.json")
        keys = {
            "dataset": str(work / "test"),
            "train_dataset": str(work / "train"),
            "model_path": str(work / "model.bin"),
            "planted": str(work / "planted.csv"),
            "out": str(tmp_path / "out.csv"),
        }
        named = {
            "dataset": work / "test" / "index.json",
            "train_dataset": work / "train" / "index.json",
            "symlink": work / "link.csv",
            "directory": work / "test",
        }
        keys[key] = str(named.get(target, keys.get(target)))
        out = keys.pop("out")
        config = write_config(tmp_path / "c.json", model="ridge", **keys)
        before = {p: p.read_bytes() for p in work.rglob("*") if p.is_file()}
        trail = tmp_path / "reads.log"
        monkeypatch.setenv("ENGAGE_MIL_AUDIT", str(trail))
        code = run_cli(command, "--config", str(config), "--out", out)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        if target == "directory":
            assert f"{key} {out} is a directory" in err
        else:
            clash = re.search(r"^error: (\w+) \S+ is also the command's (\w+)$", err, re.M)
            assert {*clash.groups()} == {key, "dataset" if target == "symlink" else target}
        assert trail.read_text().splitlines() == [os.path.realpath(config)]
        assert {p: p.read_bytes() for p in work.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command", ["synth", "extract"])
    @pytest.mark.parametrize("below", [False, True])
    def test_an_output_directory_that_is_a_file_exits_2(
        self, pose_tree, tmp_path, capsys, monkeypatch, command, below
    ):
        """An `out` that is a file, or lies below one, exits 2 before any
        input is read, and the file is left as it was."""
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        out = afile / "sub" if below else afile
        keys = {"input": str(pose_tree), "labels": str(pose_tree / "labels.csv")}
        config = write_config(tmp_path / "c.json", **(keys if command == "extract" else {}))
        trail = tmp_path / "reads.log"
        monkeypatch.setenv("ENGAGE_MIL_AUDIT", str(trail))
        code = run_cli(command, "--config", str(config), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"out {out}: {afile} is not a directory" in err
        assert trail.read_text().splitlines() == [os.path.realpath(config)]
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "command,case",
        [
            ("synth", "long"),
            ("train", "long"),
            ("predict", "long"),
            ("synth", "features"),
            ("extract", "features"),
            ("synth", "index.json"),
            ("extract", "index.json"),
            ("synth", "planted.csv"),
            ("synth", "features/video00.bin"),
        ],
    )
    def test_an_output_that_cannot_be_written_exits_2(
        self, synth_dir, pose_tree, artifacts, tmp_path, capsys, monkeypatch, command, case
    ):
        """An output name too long for the OS, and an `out` holding a file
        where extract or synth makes a directory or a directory where it
        writes a file, exit 2 naming the path before any input is read.  A
        fault the check does not foresee (a feature file that is a directory)
        exits 2 the same way, from the write.  Nothing is written."""
        work = tmp_path / "work"
        out = work / "out"
        (out / "features").mkdir(parents=True)
        target = work / ("x" * 300) if case == "long" else out / case
        if case == "features":
            target.rmdir()
            target.write_text("keep\n")
        elif case != "long":
            target.mkdir()
        keys = {
            "synth": {"synth": {"videos": 24, "subjects": 6, "m": 10, "dim": 5}},
            "extract": {"input": str(pose_tree), "labels": str(pose_tree / "labels.csv")},
        }.get(command, {"dataset": str(synth_dir / "data"), "model": "ridge"})
        flags = ["--out", str(target if case == "long" else out)]
        if command == "train":
            flags = ["--model", str(target), "--out", str(work / "t.csv")]
        elif command == "predict":
            keys["model_path"] = str(artifacts / "model.bin")
        config = write_config(tmp_path / "c.json", **keys)
        before = {p: p.is_file() and p.read_bytes() for p in work.rglob("*")}
        trail = tmp_path / "reads.log"
        monkeypatch.setenv("ENGAGE_MIL_AUDIT", str(trail))
        code = run_cli(command, "--config", str(config), *flags)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err and str(target) in err
        assert trail.read_text().splitlines() == [os.path.realpath(config)]
        assert {p: p.is_file() and p.read_bytes() for p in work.rglob("*")} == before

    @pytest.mark.parametrize(
        "command,key",
        [(command, key) for command, paths in cli._PATHS.items() for key in sum(paths, ())]
        + [("synth", "--out"), ("train", "--model")],
    )
    def test_a_path_holding_a_nul_exits_2(self, tmp_path, capsys, monkeypatch, command, key):
        """A NUL byte, which no OS call takes, in any path setting or in the
        --out and --model overrides exits 2 when the config loads: no
        traceback, nothing read but the config, nothing written."""
        work = tmp_path / "work"
        work.mkdir()
        keys = {name: str(work / name) for paths in cli._PATHS[command] for name in paths}
        flags = [key, str(work / "a\0b")] if key.startswith("--") else []
        if not flags:
            keys[key] = str(work / "a\0b")
        config = write_config(tmp_path / "c.json", **keys)
        trail = tmp_path / "reads.log"
        monkeypatch.setenv("ENGAGE_MIL_AUDIT", str(trail))
        code = run_cli(command, "--config", str(config), *flags)
        err = capsys.readouterr().err
        name = {"--out": "out", "--model": "model_path"}.get(key, key)
        assert code == 2 and "Traceback" not in err and f"config {name} has a bad value" in err
        assert trail.read_text().splitlines() == [os.path.realpath(config)]
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize(
        "command,key",
        [("extract", "input"), ("extract", "labels"), ("extract", "out"), ("synth", "out")],
    )
    def test_extract_and_synth_name_a_missing_path(self, tmp_path, capsys, command, key):
        keys = {"input": str(tmp_path), "labels": str(tmp_path / "labels.csv")}
        keys.pop(key, None)
        config = write_config(tmp_path / "c.json", **(keys if command == "extract" else {}))
        out = [] if key == "out" else ["--out", str(tmp_path / "o")]
        assert run_cli(command, "--config", str(config), *out) == 2
        assert f"error: {command} needs a '{key}' path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,key,dataset",
        [
            ("train", "out", "dataset"),
            ("train", "model_path", "dataset"),
            ("predict", "out", "dataset"),
            ("localize", "out", "dataset"),
            ("eval", "out", "dataset"),
            ("eval", "out", "train_dataset"),
        ],
    )
    def test_an_output_that_is_a_feature_file_exits_2(
        self, split_root, trained, tmp_path, capsys, command, key, dataset
    ):
        """An output that resolves to a feature file of a dataset the command
        loads exits 2 before anything is written, and the file is unchanged."""
        work = shutil.copytree(split_root, tmp_path / "work")
        shutil.copy(trained / "model.json", work / "model.bin")
        keys = {
            "dataset": str(work / "test"),
            "train_dataset": str(work / "train"),
            "model_path": str(work / ("m.bin" if command == "train" else "model.bin")),
            "out": str(tmp_path / "out.csv"),
        }
        side = "test" if dataset == "dataset" else "train"
        target = sorted((work / side / "features").iterdir())[0]
        keys[key] = str(work / side / "." / "features" / target.name)  # another spelling
        out = keys.pop("out")
        config = write_config(tmp_path / "c.json", model="ridge", **keys)
        before = {p: p.read_bytes() for p in work.rglob("*") if p.is_file()}
        code = run_cli(command, "--config", str(config), "--out", out)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"error: {key} {keys.get(key, out)} is a feature file of the {dataset}" in err
        assert {p: p.read_bytes() for p in work.rglob("*") if p.is_file()} == before
        assert not (work / "m.bin").exists()

    def test_an_output_linked_to_a_feature_file_exits_2(
        self, split_root, trained, tmp_path, capsys
    ):
        """The output check resolves a symlink that exists: an `out` linked to
        a feature file exits 2, and the file is unchanged."""
        work = shutil.copytree(split_root, tmp_path / "work")
        shutil.copy(trained / "model.json", work / "model.bin")
        target = sorted((work / "test" / "features").iterdir())[0]
        before = target.read_bytes()
        link = tmp_path / "out.csv"
        link.symlink_to(target)
        config = write_config(
            tmp_path / "c.json",
            model="ridge",
            dataset=str(work / "test"),
            model_path=str(work / "model.bin"),
        )
        code = run_cli("predict", "--config", str(config), "--out", str(link))
        assert code == 2
        assert f"error: out {link} is a feature file of the dataset" in capsys.readouterr().err
        assert target.read_bytes() == before

    @pytest.mark.parametrize("command", ["predict", "localize"])
    def test_non_finite_output_exits_4(self, split_root, tmp_path, capsys, command):
        model = tmp_path / "model.bin"
        write_model(model, LinearModel(np.full(5, 1e308), 0.0))
        config = write_config(
            tmp_path / "c.json", dataset=str(split_root / "test"), model_path=str(model)
        )
        out = tmp_path / "out.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(command, "--config", str(config), "--out", str(out))
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(r"video\d+: the model's output is not finite", err)
        assert not out.exists()

    @pytest.mark.parametrize("warnings", ["", "error::RuntimeWarning"], ids=["default", "warnings-as-errors"])
    def test_an_mse_past_float64_exits_4_and_writes_no_report(self, split_root, tmp_path, warnings):
        """Finite predictions about 1e200 away from the labels: their squared
        error overflows, and eval exits 4 with no report and no traceback,
        whether or not a numeric warning is an error."""
        model = tmp_path / "model.bin"
        write_model(model, LinearModel(np.full(5, 1e200), 0.0))
        config = write_config(
            tmp_path / "c.json", dataset=str(split_root / "test"), model_path=str(model)
        )
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "engage_mil.cli", "eval", "--config", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONWARNINGS": warnings},
        )
        assert proc.returncode == 4
        assert proc.stderr == "error: the mean squared error of the predictions overflows float64\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("fault", ["feature-file", "planted", "model", "pose-csv", "pgm"])
    def test_an_input_file_that_cannot_be_opened_exits_3(self, request, tmp_path, capsys, fault):
        """A missing feature file, planted truth or pose CSV, and a model path
        or a frame that is a directory, are data errors naming the path."""
        config = {}
        if fault == "feature-file":
            dataset = shutil.copytree(request.getfixturevalue("split_root") / "train", tmp_path / "ds")
            target = sorted((dataset / "features").glob("*.bin"))[1]
            target.unlink()
            command, config = "train", dict(model="ridge", dataset=str(dataset))
        elif fault in ("planted", "model"):
            data = request.getfixturevalue("synth_dir") / "data"
            target = tmp_path / "absent.csv" if fault == "planted" else tmp_path
            model = request.getfixturevalue("artifacts") / "model.bin"
            command = "localize" if fault == "planted" else "predict"
            config = dict(dataset=str(data), planted=str(target), model_path=str(model))
            if fault == "model":
                config = dict(dataset=str(data), model_path=str(target))
        else:
            tree = request.getfixturevalue("pose_tree" if fault == "pose-csv" else "frame_tree")
            root = shutil.copytree(tree, tmp_path / "raw")
            if fault == "pose-csv":
                target = root / "vid01" / "pose.csv"
                target.unlink()
            else:
                target = root / "fvid1" / "frames" / "000007.pgm"
                target.unlink()
                target.mkdir()
            feature = "posegaze" if fault == "pose-csv" else "lbptop"
            command = "extract"
            config = dict(feature=feature, m=5, input=str(root), labels=str(root / "labels.csv"))
        config.setdefault("model_path", str(tmp_path / "m.bin"))
        path = write_config(tmp_path / "c.json", **config)
        code = run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err and str(target) in err

    @pytest.mark.parametrize(
        "command,keys,code,message",
        [
            ("train", {"model": "svr"}, 3, "svr needs at least 2 instances"),
            ("train", {"model": "ridge", "relabel": "kmeans-mode"}, 2, "kmeans_k 4 exceeds"),
            ("train", {"model": "milnet"}, 2, "pool_k 10 exceeds the bag size 1"),
            ("eval", {}, 3, "one video has no correlation to report"),
        ],
        ids=["svr", "kmeans", "topk", "eval"],
    )
    def test_a_one_instance_dataset_is_refused(self, tmp_path, capsys, command, keys, code, message):
        """A settings/data mismatch a library call would refuse with a plain
        ValueError exits with a documented code instead."""
        config = write_config(
            tmp_path / "c.json",
            synth={"subjects": 1, "videos": 1, "m": 1, "dim": 2},
            dataset=str(tmp_path / "data"),
            model_path=str(tmp_path / "m.bin"),
            **keys,
        )
        assert run_cli("synth", "--config", str(config), "--out", str(tmp_path / "data")) == 0
        if command == "eval":  # a model with no training subjects, so none overlap
            write_model(tmp_path / "m.bin", LinearModel(np.ones(2), 0.0))
        capsys.readouterr()
        assert run_cli(command, "--config", str(config), "--out", str(tmp_path / "out")) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err

    @pytest.mark.parametrize(
        "fault,model,message",
        [
            ("ragged", "ridge", "instances, dataset expects"),
            ("empty", "ridge", "empty 0 x 5 feature matrix"),
            ("nan", "svr", "non-finite feature values"),
            ("nan", "ridge", "non-finite feature values"),
            ("nan", "milnet", "non-finite feature values"),
        ],
    )
    def test_a_bad_feature_file_exits_3_before_writing_a_model(
        self, split_root, tmp_path, capsys, fault, model, message
    ):
        """A bag with one segment too few, a feature file with no rows, or one
        NaN: top-k pooling would never pick the NaN row, so milnet trained on it."""
        dataset = shutil.copytree(split_root / "train", tmp_path / "ds")
        target = sorted((dataset / "features").glob("*.bin"))[1]
        instances = bags.read_feature_file(target).astype("<f4")
        if fault == "nan":
            instances[3, 2] = np.nan
        instances = {"ragged": instances[:-1], "empty": instances[:0]}.get(fault, instances)
        # the bytes themselves: write_feature_file refuses an empty or non-finite matrix
        shape = np.array([bags.FEATURE_VERSION, *instances.shape], "<u4").tobytes()
        target.write_bytes(bags.FEATURE_MAGIC + shape + instances.tobytes())
        model_path = tmp_path / "m.bin"
        config = write_config(
            tmp_path / "c.json", model=model, hidden=[4], dataset=str(dataset), model_path=str(model_path)
        )
        code = run_cli("train", "--config", str(config), "--out", str(tmp_path / "t.csv"))
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err and message in err
        assert not model_path.exists()


# ---------------------------------------------------------------------------
# names the benchmark harness (perfbench/tracer.py) wraps and reads


class TestBenchmarkNames:
    @staticmethod
    def _counting(monkeypatch, module, name):
        """Rebind module.name to a wrapper that records each call's arguments."""
        calls = []
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(inspect.signature(fn).bind(*args, **kwargs).arguments)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_serving_goes_through_the_traced_functions(self, split_root, tmp_path, monkeypatch):
        test_ds = load_dataset(split_root / "test")
        y = np.repeat(test_ds.labels(), test_ds.m).astype(float)
        write_model(tmp_path / "svr.bin", svr_train(test_ds.instance_matrix(), y, SvrConfig()))
        save_net(build_mil_net(5, hidden=(4,), pooling="topk", k=3, seed=0), tmp_path / "mil.bin")
        predicted = self._counting(monkeypatch, baselines, "svr_predict_many")
        svr_loads = self._counting(monkeypatch, cli, "load_svr")
        net_loads = self._counting(monkeypatch, cli, "load_net")
        for name in ("svr", "mil"):
            config = write_config(
                tmp_path / f"{name}.json",
                dataset=str(split_root / "test"),
                model_path=str(tmp_path / f"{name}.bin"),
            )
            code = run_cli("predict", "--config", str(config), "--out", str(tmp_path / "p.csv"))
            assert code == 0
        # one call per serving block: its rows, then the padding's zero rows
        b = bags.block_bags(test_ds.m)
        assert len(predicted) == -(-len(test_ds) // b)
        rows = np.concatenate([call["xs"] for call in predicted])
        n = len(test_ds) * test_ds.m
        assert np.array_equal(rows[:n], test_ds.instance_matrix()) and not rows[n:].any()
        assert (len(svr_loads), len(net_loads)) == (1, 1)

    def test_extract_calls_pose_gaze_feature_once_per_window(
        self, pose_tree, tmp_path, monkeypatch, capsys
    ):
        calls = self._counting(monkeypatch, features, "pose_gaze_feature")
        config = write_config(
            tmp_path / "c.json",
            feature="posegaze",
            m=8,
            input=str(pose_tree),
            labels=str(pose_tree / "labels.csv"),
        )
        assert run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o")) == 0
        segments = re.findall(r": (\d+) segments", capsys.readouterr().out)
        assert len(calls) == sum(int(n) for n in segments) > 0

    def test_values_the_tracer_reads(self, split_root):
        """The tracer counts one window per row of lbp_top_many's result, and
        perfbench passes relabel's labels to grid_search_svr second."""
        frames = np.random.default_rng(0).integers(0, 256, (12, 6, 6), dtype=np.uint8)
        windows = features.segment(12, 5, 3)
        assert len(features.lbp_top_many(FrameSequence(frames, 6.0, "s", "v"), windows)) == 3
        train_ds = load_dataset(split_root / "train")
        result = baselines.grid_search_svr(
            train_ds, bags.relabel(train_ds, "noisy"), [1.0], [1.0], folds=2, seed=0
        )
        assert result.table.shape == (1, 1) and np.isfinite(result.table).all()

    @pytest.mark.parametrize(
        "fn,names",
        [
            (features.lbp_top_many, ["seq"]),
            (baselines.svr_train, ["instances"]),
            (baselines.grid_search_svr, ["folds"]),
            (networks.train, ["config", "dataset"]),
            (bags.load_dataset, ["index_path"]),
        ],
    )
    def test_argument_names_the_tracer_reads(self, fn, names):
        assert set(names) <= set(inspect.signature(fn).parameters)
