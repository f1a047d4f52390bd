"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them on success).  Criteria cover
gradient correctness, oracle agreement for pooling / texture features /
the SVR solver, annotation fusion, dataset mechanics at corpus scale,
end-to-end learning and localization on planted data, level separation,
and CLI determinism."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from engage_mil.bags import (
    REFERENCE_CLASS_COUNTS,
    REFERENCE_DISTRIBUTION,
    REFERENCE_SUBJECTS,
    REFERENCE_VIDEOS,
    Dataset,
    SyntheticSpec,
    augment,
    class_counts_from_distribution,
    make_bags,
    split_subject_independent,
    synth_generate,
)
from engage_mil.baselines import (
    SvrConfig,
    svr_predict_many,
    svr_train,
)
from engage_mil.cli import main as cli_main
from engage_mil.features import FrameSequence, lbp_top_many
from engage_mil.metrics import (
    AnnotationMatrix,
    fuse_labels,
    pcc,
    quadratic_weighted_kappa,
    rater_reliability,
)
from engage_mil.networks import (
    TrainConfig,
    build_mil_net,
    build_seq_net,
    train,
)
from engage_mil.networks import _pool_matrix

from oracles import (
    finite_difference_gradients,
    gaussian_kernel,
    max_relative_gradient_error,
    naive_lbp_top,
    qp_reference_svr,
)


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences


def _one_bag_grads(net, bag, label):
    """Gradients of one bag's (score - label)^2, aligned with net.parameters()."""
    return net.batch_grads(bag[None], np.array([label]))[1]


def test_criterion_1_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0

    for _ in range(20):
        in_dim = int(rng.integers(2, 17))
        m = int(rng.integers(2, 13))
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(rng.integers(2, 17)) for _ in range(depth))
        pooling = "topk" if rng.random() < 0.5 else "mean"
        k = int(rng.integers(1, m + 1))
        net = build_mil_net(
            in_dim, hidden=hidden, pooling=pooling, k=k, seed=int(rng.integers(1e6))
        )
        bag = rng.normal(size=(m, in_dim))
        label = float(rng.integers(0, 4))
        analytic = _one_bag_grads(net, bag, label)
        numeric = finite_difference_gradients(
            lambda: (net.forward(bag[None])[0][0] - label) ** 2, net.parameters()
        )
        worst = max(worst, max_relative_gradient_error(analytic, numeric))

    for _ in range(20):
        in_dim = int(rng.integers(2, 17))
        m = int(rng.integers(2, 13))
        hidden = int(rng.integers(2, 9))
        dense = (int(rng.integers(4, 13)), int(rng.integers(2, 9)))
        net = build_seq_net(
            in_dim, m=m, hidden=hidden, dense=dense, seed=int(rng.integers(1e6))
        )
        bag = rng.normal(size=(m, in_dim))
        label = float(rng.uniform(0, 1))  # scaled-space target
        analytic = _one_bag_grads(net, bag, label)
        numeric = finite_difference_gradients(
            lambda: (net.forward(bag[None])[0][0] - label) ** 2, net.parameters()
        )
        worst = max(worst, max_relative_gradient_error(analytic, numeric))

    elapsed = time.perf_counter() - started
    _report(
        1,
        worst < 1e-4 and elapsed < 60,
        f"40 configs, max rel grad err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. pooling vs full-sort oracle


def test_criterion_2_pooling_matches_full_sort_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(22)
    exact = True
    for _ in range(1000):
        r = rng.normal(size=100)
        k = int(rng.integers(1, 100))
        oracle = float(np.sort(r)[::-1][:k].mean())
        exact = exact and _pool_matrix(r[None], "topk", k)[0][0] == oracle
        exact = exact and (
            _pool_matrix(r[None], "topk", 100)[0][0] == _pool_matrix(r[None], "mean", 1)[0][0]
        )
    elapsed = time.perf_counter() - started
    _report(
        2,
        exact and elapsed < 5,
        f"1000 random M=100 vectors exact, k==M degenerates to mean, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. texture histograms vs the per-voxel triple loop


def test_criterion_3_lbp_top_matches_naive_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(33)
    worst_sum_err = 0.0
    for i in range(50):
        if i == 0:
            t, h, w = 22, 32, 32  # the largest allowed window once
        else:
            t = int(rng.integers(3, 23))
            h = int(rng.integers(3, 20))
            w = int(rng.integers(3, 20))
        frames = rng.integers(0, 256, (t, h, w)).astype(np.uint8)
        seq = FrameSequence(frames, 30.0, "s", f"v{i}")
        got = lbp_top_many(seq, [slice(0, t)])[0]
        np.testing.assert_array_equal(got, naive_lbp_top(frames))
        sums = got.reshape(3, 59).sum(axis=1)
        worst_sum_err = max(worst_sum_err, float(np.abs(sums - 1.0).max()))
    elapsed = time.perf_counter() - started
    _report(
        3,
        worst_sum_err <= 1e-12 and elapsed < 30,
        f"50 windows bit-exact, plane-sum err {worst_sum_err:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. SMO solver vs dense projected-gradient QP


def test_criterion_4_svr_matches_qp_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(44)
    worst_obj = 0.0
    worst_pred = 0.0
    train_s = 0.0
    oracle_s = 0.0
    for _ in range(25):
        n = int(rng.integers(4, 26))
        dim = int(rng.integers(1, 7))
        x = rng.normal(size=(n, dim))
        y = rng.uniform(0, 3, n)
        c = float(rng.uniform(0.5, 8.0))
        epsilon = float(rng.uniform(0.01, 0.3))
        sigma = float(rng.uniform(0.7, 3.0))

        config = SvrConfig(c=c, epsilon=epsilon, sigma=sigma, tol=1e-5)
        tick = time.perf_counter()
        model = svr_train(x, y, config)
        train_s += time.perf_counter() - tick
        kernel = gaussian_kernel(x, x, sigma)
        tick = time.perf_counter()
        theta, bias, objective = qp_reference_svr(kernel, y, c, epsilon)
        oracle_s += time.perf_counter() - tick

        worst_obj = max(worst_obj, abs(model.objective_trace[-1] - objective))
        probes = rng.normal(size=(8, dim))
        oracle_preds = gaussian_kernel(probes, x, sigma) @ theta + bias
        got_preds = svr_predict_many(model, probes)
        worst_pred = max(worst_pred, float(np.abs(got_preds - oracle_preds).max()))
    elapsed = time.perf_counter() - started
    _report(
        4,
        worst_obj < 1e-3 and worst_pred < 1e-3 and elapsed < 60,
        f"25 problems, obj err {worst_obj:.1e}, pred err {worst_pred:.1e}, "
        f"{elapsed:.1f}s (svr_train {train_s:.2f}s, oracle {oracle_s:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 5. agreement scoring and rater fusion


def test_criterion_5_kappa_and_rater_fusion():
    rng = np.random.default_rng(55)
    self_agreement = all(
        quadratic_weighted_kappa(v, v) == 1.0
        for v in (rng.integers(0, 4, 30) for _ in range(10))
    )

    hand_a = [0, 0, 1, 2, 3, 3, 2, 1]
    hand_b = [0, 1, 1, 2, 3, 2, 2, 0]
    hand_ok = abs(quadratic_weighted_kappa(hand_a, hand_b) - 5.0 / 6.0) <= 1e-12

    base = np.tile([0, 1, 2, 3], 4)
    grid = np.column_stack([base, base, base, base, 3 - base]).astype(float)
    annotations = AnnotationMatrix(
        labels=grid,
        video_ids=[f"v{i}" for i in range(len(base))],
        rater_ids=[f"r{i}" for i in range(5)],
    )
    reliability = rater_reliability(annotations)
    _, dropped = fuse_labels(annotations)
    fusion_ok = reliability[4] < 0.4 and dropped == ["r4"]

    _report(
        5,
        self_agreement and hand_ok and fusion_ok,
        f"self-kappa 1, hand example 5/6, anti-correlated rater "
        f"reliability {reliability[4]:.2f} dropped",
    )


# ---------------------------------------------------------------------------
# 6. dataset mechanics at corpus scale


def test_criterion_6_corpus_scale_dataset_mechanics():
    # The published per-class counts sum to 194, one short of the stated
    # 195-video total.  The exact counts are checked on a 194-video layout;
    # the 147/48 split mechanics are checked on the padded 195-video layout
    # (one extra level-2 video, the class with the largest remainder).
    exact = class_counts_from_distribution(REFERENCE_DISTRIBUTION, REFERENCE_VIDEOS)
    counts_ok = tuple(exact) == REFERENCE_CLASS_COUNTS

    padded = class_counts_from_distribution(REFERENCE_DISTRIBUTION, 195)
    assert padded == [9, 53, 83, 50]

    # Rebalancing copies (20x level 0, 2x level 3) reproduce the published
    # augmented training counts only when every level-0 and level-3 video
    # trains; levels 1-2 fill the remaining 88 train slots proportionally.
    train_quota = {0: 9, 1: 34, 2: 54, 3: 50}

    rng = np.random.default_rng(66)
    dim = 6
    train_bags, test_bags = [], []
    n_train_subjects = 59
    n_test_subjects = REFERENCE_SUBJECTS - n_train_subjects
    all_m_100 = True
    for label, count in enumerate(padded):
        for j in range(count):
            to_train = j < train_quota[label]
            if to_train:
                subject = f"s{len(train_bags) % n_train_subjects:02d}"
            else:
                subject = f"s{n_train_subjects + len(test_bags) % n_test_subjects:02d}"
            segments = rng.normal(size=(int(rng.integers(21, 180)), dim))
            bag = make_bags(
                segments,
                100,
                video_id=f"video{label}_{j:03d}",
                subject_id=subject,
                label=label,
            )
            all_m_100 = all_m_100 and bag.m == 100
            (train_bags if to_train else test_bags).append(bag)

    train_ds = Dataset(train_bags, "posegaze", 100)
    test_ds = Dataset(test_bags, "posegaze", 100)
    full_ds = Dataset(train_bags + test_bags, "posegaze", 100)

    sizes_ok = (len(train_ds), len(test_ds)) == (147, 48)
    subjects_ok = len(full_ds.subjects()) == REFERENCE_SUBJECTS
    disjoint_ok = not set(train_ds.subjects()) & set(test_ds.subjects())

    augmented = augment(train_ds).class_counts()
    augment_ok = augmented[0] == 180 and augmented[3] == 100

    auto_train, auto_test = split_subject_independent(full_ds, 48 / 195, seed=0)
    auto_ok = (
        len(auto_test) == 48
        and not set(auto_train.subjects()) & set(auto_test.subjects())
    )

    _report(
        6,
        counts_ok
        and all_m_100
        and sizes_ok
        and subjects_ok
        and disjoint_ok
        and augment_ok
        and auto_ok,
        f"counts {tuple(exact)}, split 147/48 subject-disjoint, augmented "
        f"level-0 {augmented[0]} / level-3 {augmented[3]}, every bag m=100",
    )


# ---------------------------------------------------------------------------
# 7 & 8. planted-signal learning, localization, level separation


@pytest.fixture(scope="module")
def planted_runs():
    runs = []
    mil_elapsed = seq_elapsed = 0.0
    for seed in range(5):
        spec = SyntheticSpec(
            subjects=24,
            videos=120,
            m=20,
            dim=8,
            rho=0.3,
            noise_scale=0.5,
            seed=seed,
        )
        dataset, planted = synth_generate(spec)
        index_of = {bag.video_id: i for i, bag in enumerate(dataset.bags)}
        train_ds, test_ds = split_subject_independent(dataset, 0.25, seed)
        labels = test_ds.labels().astype(float)

        t0 = time.perf_counter()
        mil = build_mil_net(8, hidden=(64, 32), pooling="mean", seed=seed)
        mil, _ = train(
            mil,
            train_ds,
            TrainConfig(step_size=0.02, epochs=300, batch_size=16, seed=seed),
        )
        mil_preds = mil.predict_bags(test_ds)
        loc_pred = mil.localize_bags(test_ds).ravel()
        loc_true = np.concatenate(
            [planted[index_of[b.video_id]] for b in test_ds.bags]
        )
        mil_elapsed += time.perf_counter() - t0

        t0 = time.perf_counter()
        seq = build_seq_net(8, m=20, hidden=16, dense=(64, 32), seed=seed)
        seq, _ = train(
            seq,
            train_ds,
            TrainConfig(step_size=2.0, epochs=500, batch_size=16, seed=seed),
        )
        seq_preds = seq.predict_bags(test_ds)
        seq_elapsed += time.perf_counter() - t0
        runs.append(
            {
                "labels": labels,
                "train_mean": float(train_ds.labels().mean()),
                "mil": mil_preds,
                "seq": seq_preds,
                "loc_pcc": pcc(loc_pred, loc_true),
            }
        )
    return {"runs": runs, "mil_elapsed": mil_elapsed, "seq_elapsed": seq_elapsed}


def test_criterion_7_planted_learning_and_localization(planted_runs):
    runs = planted_runs["runs"]
    ratios = []
    for run in runs:
        mse = float(np.mean((run["mil"] - run["labels"]) ** 2))
        constant = float(np.mean((run["labels"] - run["train_mean"]) ** 2))
        ratios.append(mse / constant)
    mean_loc = float(np.mean([run["loc_pcc"] for run in runs]))
    elapsed = planted_runs["mil_elapsed"]
    _report(
        7,
        max(ratios) < 0.6 and mean_loc >= 0.6 and elapsed < 600,
        f"MSE ratio vs constant predictor max {max(ratios):.2f} (<0.6), "
        f"mean localization PCC {mean_loc:.2f} (>=0.6), MIL {elapsed:.0f}s (<600s), "
        f"SeqNet {planted_runs['seq_elapsed']:.0f}s",
    )


def test_criterion_8_level_zero_separates(planted_runs):
    margins = []
    for run in planted_runs["runs"]:
        labels = run["labels"]
        for arch in ("mil", "seq"):
            preds = run[arch]
            level0 = preds[labels == 0].mean()
            others = [
                preds[labels == level].mean()
                for level in (1, 2, 3)
                if (labels == level).any()
            ]
            margins.append(min(others) - level0)
    _report(
        8,
        all(m > 0 for m in margins),
        f"level-0 mean below all others for both nets, 5 seeds "
        f"(worst margin {min(margins):.2f})",
    )


# ---------------------------------------------------------------------------
# 9. CLI determinism


def _write_config(path: Path, **keys) -> Path:
    path.write_text(json.dumps(keys, indent=2, sort_keys=True) + "\n")
    return path


def _run(*argv) -> None:
    assert cli_main([str(a) for a in argv]) == 0


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path):
    from engage_mil.bags import load_dataset, save_dataset
    from engage_mil.features import PoseGazeTrack, save_pose_gaze_csv

    rng = np.random.default_rng(99)
    raw = tmp_path / "raw"
    for i in range(2):
        d = raw / f"vid{i}"
        d.mkdir(parents=True)
        n = 400
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
            json.dumps({"video_id": f"vid{i}", "subject_id": f"s{i}", "fps": 30.0})
        )
    (tmp_path / "labels.csv").write_text("video_id,label\nvid0,1\nvid1,2\n")

    identical = []

    extract_cfg = _write_config(
        tmp_path / "extract.json",
        feature="posegaze",
        m=6,
        input=str(raw),
        labels=str(tmp_path / "labels.csv"),
    )
    for side in ("a", "b"):
        _run("extract", "--config", extract_cfg, "--out", tmp_path / f"ex_{side}")
    identical.append(_tree_bytes(tmp_path / "ex_a") == _tree_bytes(tmp_path / "ex_b"))

    synth_cfg = _write_config(
        tmp_path / "synth.json",
        seed=3,
        synth={"subjects": 6, "videos": 18, "m": 8, "dim": 4},
    )
    for side in ("a", "b"):
        _run("synth", "--config", synth_cfg, "--out", tmp_path / f"sy_{side}")
    identical.append(_tree_bytes(tmp_path / "sy_a") == _tree_bytes(tmp_path / "sy_b"))

    data = load_dataset(tmp_path / "sy_a")
    train_side, test_side = split_subject_independent(data, 0.3, 0)
    save_dataset(train_side, tmp_path / "train_ds")
    save_dataset(test_side, tmp_path / "test_ds")

    train_cfg = _write_config(
        tmp_path / "train.json",
        seed=0,
        model="milnet",
        hidden=[8, 4],
        pooling="mean",
        train={"step_size": 0.02, "epochs": 15, "batch_size": 4},
        dataset=str(tmp_path / "train_ds"),
        model_path=str(tmp_path / "model.bin"),
    )
    for side in ("a", "b"):
        _run(
            "train",
            "--config",
            train_cfg,
            "--model",
            tmp_path / f"model_{side}.bin",
            "--out",
            tmp_path / f"trace_{side}.csv",
        )
    identical.append(
        (tmp_path / "model_a.bin").read_bytes()
        == (tmp_path / "model_b.bin").read_bytes()
        and (tmp_path / "trace_a.csv").read_bytes()
        == (tmp_path / "trace_b.csv").read_bytes()
    )

    _run("train", "--config", train_cfg, "--out", tmp_path / "trace.csv")
    serve_cfg = _write_config(
        tmp_path / "serve.json",
        dataset=str(tmp_path / "test_ds"),
        train_dataset=str(tmp_path / "train_ds"),
        model_path=str(tmp_path / "model.bin"),
        planted=str(tmp_path / "sy_a" / "planted.csv"),
    )
    for command in ("predict", "localize", "eval"):
        for side in ("a", "b"):
            _run(
                command, "--config", serve_cfg, "--out", tmp_path / f"{command}_{side}"
            )
        identical.append(
            (tmp_path / f"{command}_a").read_bytes()
            == (tmp_path / f"{command}_b").read_bytes()
        )

    _report(
        9,
        all(identical),
        "extract/synth/train/predict/localize/eval reruns byte-identical",
    )
