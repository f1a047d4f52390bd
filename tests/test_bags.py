import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import engage_mil
from engage_mil.bags import (
    Bag,
    Dataset,
    SyntheticSpec,
    augment,
    class_counts_from_distribution,
    kmeans,
    load_dataset,
    load_planted_csv,
    make_bags,
    read_feature_file,
    relabel,
    resample_indices,
    save_dataset,
    save_planted_csv,
    split_subject_independent,
    synth_generate,
    write_feature_file,
)
from engage_mil.errors import DataError, ParseError

# the published per-class counts (9/53/82/50) sum to 194, one short of the
# published 195-video total; the exact counts need a 194-video dataset, and
# 195-video fixtures park the extra video in the largest class
EXACT_DISTRIBUTION = (9 / 194, 53 / 194, 82 / 194, 50 / 194)
PADDED_DISTRIBUTION = (9 / 195, 53 / 195, 83 / 195, 50 / 195)


def _features(n, dim=3):
    """n segment feature rows; row i holds i in every column."""
    return np.tile(np.arange(float(n))[:, None], (1, dim))


def _toy_dataset(labels_by_subject, m=2, dim=3):
    """labels_by_subject: {subject: [label, ...]} -> one bag per listed label."""
    rng = np.random.default_rng(0)
    bags = []
    for subject, labels in labels_by_subject.items():
        for j, label in enumerate(labels):
            bags.append(
                Bag(
                    video_id=f"{subject}-v{j}",
                    subject_id=subject,
                    instances=rng.normal(size=(m, dim)),
                    label=label,
                )
            )
    return Dataset(bags, "synthetic", m)


# --- bag construction -------------------------------------------------------


def test_resample_identity():
    assert resample_indices(100, 100) == list(range(100))


def test_resample_downsamples_evenly_and_strictly_increasing():
    picks = resample_indices(179, 100)
    assert picks == [(i * 179) // 100 for i in range(100)]
    assert all(b > a for a, b in zip(picks, picks[1:]))
    assert picks[0] == 0 and picks[-1] < 179


def test_resample_repeats_cyclically():
    picks = resample_indices(50, 100)
    assert len(picks) == 100
    assert all(picks.count(i) == 2 for i in range(50))
    assert picks[:50] == list(range(50))


def test_make_bags_resamples_to_m():
    bag = make_bags(_features(179), 100, video_id="v", subject_id="s", label=2)
    assert bag.m == 100 and bag.dim == 3
    values = bag.instances[:, 0]
    assert (np.diff(values) > 0).all()  # temporal order preserved


def test_make_bags_identity_and_cyclic():
    bag = make_bags(_features(7), 7, video_id="v", subject_id="s", label=0)
    np.testing.assert_array_equal(bag.instances[:, 0], np.arange(7.0))
    bag = make_bags(_features(3), 7, video_id="v", subject_id="s", label=0)
    np.testing.assert_array_equal(bag.instances[:, 0], [0, 1, 2, 0, 1, 2, 0])


def test_make_bags_empty_video():
    with pytest.raises(DataError, match="v: no segment features"):
        make_bags(np.empty((0, 3)), 100, video_id="v", subject_id="s", label=1)


@given(st.integers(1, 400), st.integers(1, 250))
def test_resample_always_yields_m_valid_ordered_picks(count, m):
    picks = resample_indices(count, m)
    assert len(picks) == m
    assert all(0 <= p < count for p in picks)
    if count >= m:
        assert all(b > a for a, b in zip(picks, picks[1:]))


def test_bag_label_validation():
    with pytest.raises(ValueError):
        Bag("v", "s", np.zeros((2, 2)), label=4)


def test_dataset_rejects_mismatched_bags():
    good = Bag("a", "s", np.zeros((3, 2)), 1)
    short = Bag("b", "s", np.zeros((2, 2)), 1)
    with pytest.raises(ValueError):
        Dataset([good, short], "synthetic", 3)
    with pytest.raises(ValueError):
        Dataset([], "synthetic", 3)


# --- subject-independent splitting ------------------------------------------


def _reference_shaped_dataset():
    # 78 subjects, 195 videos (39 subjects contribute 3, 39 contribute 2)
    labels = [0] * 9 + [1] * 53 + [2] * 83 + [3] * 50
    rng = np.random.default_rng(42)
    labels = [labels[i] for i in rng.permutation(195)]
    by_subject = {}
    it = iter(labels)
    for s in range(78):
        take = 3 if s < 39 else 2
        by_subject[f"subj{s:02d}"] = [next(it) for _ in range(take)]
    return _toy_dataset(by_subject)


def test_split_reference_shape_hits_exact_counts():
    dataset = _reference_shaped_dataset()
    assert len(dataset) == 195
    train, test = split_subject_independent(dataset, 48 / 195, seed=0)
    assert (len(train), len(test)) == (147, 48)
    assert not set(train.subjects()) & set(test.subjects())


def test_split_two_subjects():
    dataset = _toy_dataset({"a": [1, 2], "b": [0, 3]})
    train, test = split_subject_independent(dataset, 0.5, seed=1)
    assert not set(train.subjects()) & set(test.subjects())
    assert len(train) == 2 and len(test) == 2


def test_split_single_subject_fails():
    dataset = _toy_dataset({"only": [1, 2, 3]})
    with pytest.raises(DataError, match="1 subject\\(s\\) cannot be partitioned"):
        split_subject_independent(dataset, 0.5, seed=0)


def test_split_rejects_degenerate_fraction():
    dataset = _toy_dataset({"a": [1], "b": [2]})
    with pytest.raises(ValueError):
        split_subject_independent(dataset, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_subject_independent(dataset, 1.0, seed=0)


def test_split_is_deterministic_per_seed():
    dataset = _reference_shaped_dataset()
    first = split_subject_independent(dataset, 0.25, seed=9)
    second = split_subject_independent(dataset, 0.25, seed=9)
    assert [b.video_id for b in first[1].bags] == [b.video_id for b in second[1].bags]


@pytest.mark.parametrize(
    "counts, fraction, seed, test_subjects",
    [
        ({"s0": 3, "s1": 3, "s2": 5}, 0.5, 8, ["s2"]),  # a move
        ({"s0": 3, "s1": 4}, 0.3, 6, ["s0"]),  # a swap
        ({"s0": 1, "s1": 4}, 0.2, 4, ["s0"]),  # a move that would empty a side, then a swap
        ({"s0": 2, "s1": 5}, 0.9, 6, ["s1"]),  # the draft takes everyone: one goes back
        # the pop, then a move, then a swap
        ({"s0": 4, "s1": 3, "s2": 1, "s3": 1, "s4": 1}, 0.75, 5, ["s0", "s1", "s2"]),
    ],
)
def test_split_improvement_pins_the_test_side(counts, fraction, seed, test_subjects):
    dataset = _toy_dataset({s: [0] * n for s, n in counts.items()})
    _, test = split_subject_independent(dataset, fraction, seed)
    assert sorted(test.subjects()) == test_subjects


@given(
    st.dictionaries(
        st.sampled_from([f"s{i}" for i in range(9)]),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
        min_size=2,
        max_size=9,
    ),
    st.floats(0.1, 0.9),
    st.integers(0, 2**32 - 1),
)
def test_split_subjects_always_disjoint(by_subject, fraction, seed):
    dataset = _toy_dataset(by_subject)
    train, test = split_subject_independent(dataset, fraction, seed)
    assert not set(train.subjects()) & set(test.subjects())
    assert len(train) + len(test) == len(dataset)
    assert len(train) >= 1 and len(test) >= 1
    for side in (train, test):
        for bag in side.bags:  # every video of a subject stays on one side
            assert bag.subject_id in side.subjects()


# --- augmentation -----------------------------------------------------------


def test_augment_reference_counts():
    labels = {"s0": [0] * 9, "s1": [1] * 53, "s2": [2] * 82, "s3": [3] * 50}
    dataset = _toy_dataset(labels)
    out = augment(dataset)
    assert out.class_counts() == {0: 180, 1: 53, 2: 82, 3: 100}


def test_augment_without_extreme_classes_is_identity():
    dataset = _toy_dataset({"a": [1, 2], "b": [2, 1]})
    out = augment(dataset)
    assert [b.video_id for b in out.bags] == [b.video_id for b in dataset.bags]


def test_augment_copies_are_bit_identical_and_videos_unchanged():
    dataset = _toy_dataset({"a": [0, 3], "b": [2]})
    out = augment(dataset)
    assert len(out) == 20 + 2 + 1
    by_id = {}
    for bag in out.bags:
        by_id.setdefault(bag.video_id, []).append(bag)
    assert set(by_id) == {b.video_id for b in dataset.bags}
    for copies in by_id.values():
        for bag in copies[1:]:
            np.testing.assert_array_equal(bag.instances, copies[0].instances)


def test_augment_is_order_deterministic():
    dataset = _toy_dataset({"a": [0, 3], "b": [2]})
    ids_1 = [b.video_id for b in augment(dataset).bags]
    ids_2 = [b.video_id for b in augment(dataset).bags]
    assert ids_1 == ids_2


# --- k-means ----------------------------------------------------------------


def test_kmeans_separated_clouds():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 0.1, size=(40, 2))
    b = rng.normal(50.0, 0.1, size=(40, 2))
    points = np.concatenate([a, b])
    result = kmeans(points, 2, seed=0)
    first_half = result.assignments[:40]
    second_half = result.assignments[40:]
    assert len(set(first_half)) == 1 and len(set(second_half)) == 1
    assert first_half[0] != second_half[0]


def test_kmeans_k_equals_n_zero_inertia():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(12, 3))
    result = kmeans(points, 12, seed=0)
    assert result.inertia == 0.0
    assert len(set(result.assignments.tolist())) == 12


def test_kmeans_inertia_monotone_and_centroid_fixed_point():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(30, 2))
    result = kmeans(points, 3, seed=7)
    trace = result.inertia_trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    for c in range(3):
        members = points[result.assignments == c]
        assert len(members) > 0
        np.testing.assert_allclose(result.centroids[c], members.mean(axis=0))


def test_kmeans_rejects_bad_k():
    points = np.zeros((5, 2))
    with pytest.raises(ValueError):
        kmeans(points, 6, seed=0)
    with pytest.raises(ValueError):
        kmeans(points, 0, seed=0)


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(50, 4))
    a = kmeans(points, 5, seed=11)
    b = kmeans(points, 5, seed=11)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.centroids, b.centroids)


def test_kmeans_handles_duplicate_points():
    points = np.zeros((6, 2))
    points[3:] = 1.0
    result = kmeans(points, 3, seed=2)
    assert result.assignments.shape == (6,)
    assert result.inertia <= 1.5  # never worse than one cloud split badly


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_kmeans_trace_never_increases(seed, k):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(25, 3))
    result = kmeans(points, k, seed=seed)
    trace = result.inertia_trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert result.inertia == trace[-1]


# --- instance relabeling ----------------------------------------------------


def test_relabel_noisy_broadcasts_bag_label():
    dataset = _toy_dataset({"a": [2]}, m=5)
    labels = relabel(dataset, "noisy")
    np.testing.assert_array_equal(labels, np.full((1, 5), 2.0))
    assert labels.dtype == np.float64


def test_relabel_mode_and_mean_on_known_cluster():
    dataset = _toy_dataset({"a": [1], "b": [1], "c": [3]}, m=1)
    assignments = np.zeros(3, dtype=int)  # one cluster holding labels {1,1,3}
    mode = relabel(dataset, "kmeans-mode", assignments)
    mean = relabel(dataset, "kmeans-mean", assignments)
    np.testing.assert_array_equal(mode, np.full((3, 1), 1.0))
    np.testing.assert_allclose(mean, np.full((3, 1), 5.0 / 3.0))


def test_relabel_mode_tie_breaks_to_smaller_label():
    dataset = _toy_dataset({"a": [2], "b": [3]}, m=1)
    labels = relabel(dataset, "kmeans-mode", np.zeros(2, dtype=int))
    np.testing.assert_array_equal(labels, np.full((2, 1), 2.0))


def test_relabel_requires_assignments_for_cluster_strategies():
    dataset = _toy_dataset({"a": [1]}, m=2)
    with pytest.raises(ValueError):
        relabel(dataset, "kmeans-mode")
    with pytest.raises(ValueError):
        relabel(dataset, "kmeans-mean", np.zeros(5, dtype=int))  # wrong size
    with pytest.raises(ValueError):
        relabel(dataset, "whatever")


@given(st.integers(0, 2**32 - 1))
def test_relabel_mean_within_member_label_range(seed):
    rng = np.random.default_rng(seed)
    labels = {f"s{i}": [int(rng.integers(0, 4))] for i in range(6)}
    dataset = _toy_dataset(labels, m=3)
    assignments = rng.integers(0, 4, size=18)
    instance_labels = relabel(dataset, "kmeans-mean", assignments)
    bag_labels = np.repeat(dataset.labels(), 3)
    for c in np.unique(assignments):
        members = bag_labels[assignments == c]
        values = instance_labels.reshape(-1)[assignments == c]
        assert (values >= members.min()).all() and (values <= members.max()).all()


def test_kmeans_relabel_process_never_imports_numpy_ma():
    # np.unique imports numpy.ma (about 9 ms and 1.6 MB in every process)
    code = """
import sys
from engage_mil.bags import SyntheticSpec, kmeans, relabel, synth_generate
dataset, _ = synth_generate(SyntheticSpec(subjects=4, videos=8, m=5, dim=3, seed=1))
assignments = kmeans(dataset.instance_matrix(), 4, seed=0).assignments
for strategy in ("kmeans-mode", "kmeans-mean"):
    relabel(dataset, strategy, assignments)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""
    src = str(Path(engage_mil.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --- synthetic generator ----------------------------------------------------


def test_synth_published_class_counts():
    spec = SyntheticSpec(
        subjects=78, videos=194, m=10, dim=6,
        class_distribution=EXACT_DISTRIBUTION, seed=1,
    )
    dataset, planted = synth_generate(spec)
    assert dataset.class_counts() == {0: 9, 1: 53, 2: 82, 3: 50}
    assert len(dataset.subjects()) == 78
    assert planted.shape == (194, 10)


def test_synth_padded_full_video_count():
    spec = SyntheticSpec(
        subjects=78, videos=195, m=10, dim=6,
        class_distribution=PADDED_DISTRIBUTION, seed=1,
    )
    dataset, _ = synth_generate(spec)
    assert dataset.class_counts() == {0: 9, 1: 53, 2: 83, 3: 50}
    assert len(dataset) == 195


def test_synth_same_seed_is_identical():
    spec = SyntheticSpec(subjects=4, videos=10, m=6, dim=5, seed=33)
    first_ds, first_truth = synth_generate(spec)
    second_ds, second_truth = synth_generate(spec)
    np.testing.assert_array_equal(first_truth, second_truth)
    for a, b in zip(first_ds.bags, second_ds.bags):
        assert (a.video_id, a.subject_id, a.label) == (b.video_id, b.subject_id, b.label)
        np.testing.assert_array_equal(a.instances, b.instances)


def test_synth_noiseless_full_signal_limit():
    spec = SyntheticSpec(
        subjects=2, videos=8, m=5, dim=4, rho=1.0, noise_scale=0.0, seed=2
    )
    dataset, planted = synth_generate(spec)
    for bag, truth in zip(dataset.bags, planted):
        np.testing.assert_array_equal(truth, np.full(5, float(bag.label)))
        for row in bag.instances[1:]:  # all instances of a bag identical
            np.testing.assert_array_equal(row, bag.instances[0])
        np.testing.assert_allclose(
            np.linalg.norm(bag.instances[0]), float(bag.label), atol=1e-12
        )


def test_synth_planted_truth_marks_signal_instances():
    spec = SyntheticSpec(subjects=3, videos=9, m=20, dim=8, rho=0.3, seed=5)
    dataset, planted = synth_generate(spec)
    for bag, truth in zip(dataset.bags, planted):
        signal = truth > 0
        if bag.label == 0:
            assert not signal.any()
        else:
            assert signal.sum() == 6  # round(0.3 * 20)
            assert set(truth[signal]) == {float(bag.label)}


def test_synth_subjects_balanced():
    spec = SyntheticSpec(subjects=78, videos=195, m=2, dim=4, seed=0)
    dataset, _ = synth_generate(spec)
    per_subject = {}
    for bag in dataset.bags:
        per_subject[bag.subject_id] = per_subject.get(bag.subject_id, 0) + 1
    assert set(per_subject.values()) <= {2, 3}
    assert sum(per_subject.values()) == 195


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(subjects=5, videos=3, m=2, dim=2)
    with pytest.raises(ValueError):
        SyntheticSpec(subjects=2, videos=4, m=2, dim=2, rho=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(
            subjects=2, videos=4, m=2, dim=2, class_distribution=(0.5, 0.5, 0.5, 0.5)
        )


def test_class_counts_largest_remainder():
    assert class_counts_from_distribution(EXACT_DISTRIBUTION, 194) == [9, 53, 82, 50]
    assert class_counts_from_distribution(PADDED_DISTRIBUTION, 195) == [9, 53, 83, 50]
    assert sum(class_counts_from_distribution((0.3, 0.3, 0.3, 0.1), 7)) == 7


# --- on-disk format ---------------------------------------------------------


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    instances = rng.normal(size=(10, 7))
    path = tmp_path / "v.bin"
    write_feature_file(path, instances)
    loaded = read_feature_file(path)
    np.testing.assert_array_equal(loaded, instances.astype(np.float32).astype(np.float64))
    header = path.read_bytes()[:16]
    assert header[:4] == b"EMIL"


def test_feature_file_rejects_corruption(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ParseError):
        read_feature_file(path)
    path.write_bytes(b"EMIL" + b"\x00" * 4)
    with pytest.raises(ParseError):
        read_feature_file(path)


def test_dataset_round_trip(tmp_path):
    spec = SyntheticSpec(subjects=3, videos=7, m=4, dim=5, seed=12)
    dataset, _ = synth_generate(spec)
    index_path = save_dataset(dataset, tmp_path / "ds")
    loaded = load_dataset(index_path)
    assert len(loaded) == 7 and loaded.m == 4 and loaded.feature_kind == "synthetic"
    for a, b in zip(dataset.bags, loaded.bags):
        assert (a.video_id, a.subject_id, a.label) == (b.video_id, b.subject_id, b.label)
        np.testing.assert_array_equal(
            b.instances, a.instances.astype(np.float32).astype(np.float64)
        )


def test_load_dataset_accepts_directory(tmp_path):
    dataset, _ = synth_generate(SyntheticSpec(subjects=2, videos=4, m=3, dim=2, seed=1))
    save_dataset(dataset, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert len(loaded) == 4


def test_load_dataset_missing_index(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(tmp_path / "nowhere")


@pytest.mark.parametrize(
    "change",
    [
        {"label": 2.5},
        {"label": "2"},
        {"label": False},
        {"label": 4},
        {"label": None},
        {"subject_id": 3},
        {"path": None},
    ],
)
def test_load_dataset_rejects_a_bad_index_record(tmp_path, change):
    dataset, _ = synth_generate(SyntheticSpec(subjects=2, videos=4, m=3, dim=2, seed=1))
    index_path = save_dataset(dataset, tmp_path / "d")
    index = json.loads(index_path.read_text())
    index[1].update(change)
    index[1] = {key: value for key, value in index[1].items() if value is not None}
    index_path.write_text(json.dumps(index))
    with pytest.raises(ParseError, match=str(index_path)):
        load_dataset(index_path)
    index_path.write_text(json.dumps([index[0], "not a record"]))
    with pytest.raises(ParseError, match="JSON object"):
        load_dataset(index_path)


def test_save_dataset_records_each_feature_file_digest(tmp_path):
    dataset, _ = synth_generate(SyntheticSpec(subjects=2, videos=4, m=3, dim=2, seed=1))
    index_path = save_dataset(dataset, tmp_path / "d")
    for record in json.loads(index_path.read_text()):
        data = (tmp_path / "d" / record["path"]).read_bytes()
        assert record["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fault", ["no-digest", "other-digest", "rewritten-file"])
def test_load_dataset_refuses_a_feature_file_its_index_does_not_describe(tmp_path, fault):
    """A record with no sha256 (an index written before records carried one)
    or another one, and a feature file rewritten after its index: a dataset
    mixing two writes exits 3 naming the index, the record and the file."""
    dataset, _ = synth_generate(SyntheticSpec(subjects=2, videos=4, m=3, dim=2, seed=1))
    index_path = save_dataset(dataset, tmp_path / "d")
    index = json.loads(index_path.read_text())
    feature = tmp_path / "d" / index[1]["path"]
    if fault == "rewritten-file":
        write_feature_file(feature, dataset.bags[1].instances + 1.0)
    else:
        index[1]["sha256"] = index[2]["sha256"]
        if fault == "no-digest":
            del index[1]["sha256"]
        index_path.write_text(json.dumps(index))
    with pytest.raises(ParseError) as caught:
        load_dataset(index_path)
    message = str(caught.value)
    assert caught.value.exit_code == 3 and str(index_path) in message
    assert f"record 2 has {'no' if fault == 'no-digest' else 'a'} sha256" in message
    assert str(feature) in message and "re-run extract or synth" in message


def test_load_dataset_accepts_an_integral_float_label(tmp_path):
    dataset, _ = synth_generate(SyntheticSpec(subjects=2, videos=4, m=3, dim=2, seed=1))
    index_path = save_dataset(dataset, tmp_path / "d")
    index = json.loads(index_path.read_text())
    index[0]["label"] = float(index[0]["label"])
    index_path.write_text(json.dumps(index))
    loaded = load_dataset(index_path)
    assert loaded.bags[0].label == dataset.bags[0].label
    assert type(loaded.bags[0].label) is int


def test_planted_csv_round_trip(tmp_path):
    spec = SyntheticSpec(subjects=2, videos=5, m=6, dim=3, seed=3)
    dataset, planted = synth_generate(spec)
    path = tmp_path / "truth.csv"
    save_planted_csv(dataset, planted, path)
    loaded = load_planted_csv(path)
    assert set(loaded) == {bag.video_id for bag in dataset.bags}
    for bag, row in zip(dataset.bags, planted):
        np.testing.assert_array_equal(loaded[bag.video_id], row)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_planted_csv_refuses_a_non_finite_intensity_before_writing(tmp_path, value):
    """load_planted_csv refuses a non-finite intensity, so its writer does,
    as a data fault, before it writes anything."""
    dataset, planted = synth_generate(SyntheticSpec(subjects=2, videos=5, m=6, dim=3, seed=3))
    planted = planted.copy()
    planted[2, 4] = value
    video_id = dataset.bags[2].video_id
    with pytest.raises(DataError, match=f"^{video_id}: planted intensity .* of instance 4 is not finite"):
        save_planted_csv(dataset, planted, tmp_path / "truth.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("video_id", ["a,b", "a/b", ".v", "", "v\n"])
def test_save_dataset_refuses_a_video_id_that_load_dataset_refuses(tmp_path, video_id):
    """An id that is not a plain file name is a data fault (exit 3), not an
    output fault, and nothing is written."""
    dataset, _ = synth_generate(SyntheticSpec(subjects=2, videos=5, m=6, dim=3, seed=3))
    dataset.bags[3].video_id = video_id
    with pytest.raises(DataError, match="bad 'video_id'") as caught:
        save_dataset(dataset, tmp_path / "d")
    assert caught.value.exit_code == 3
    assert list(tmp_path.iterdir()) == []


def test_planted_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("video,idx,value\n")
    with pytest.raises(ParseError):
        load_planted_csv(path)


@pytest.mark.parametrize(
    "rows,line",
    [
        (["v1,0,0.0", "v1,1,2.0", "v1,1,2.0"], 4),
        (["v1,0,0.0", "v1,2,2.0", "v2,0,1.0"], 3),
        (["v1,0,0.0", "v1,-1,2.0", "v1,1,1.0"], 3),
    ],
    ids=["repeated", "skipped", "negative"],
)
def test_planted_csv_refuses_a_bad_instance_index_at_its_row(tmp_path, rows, line):
    path = tmp_path / "pl.csv"
    path.write_text("\n".join(["video_id,instance_index,planted_intensity", *rows]) + "\n")
    with pytest.raises(ParseError, match="v1: instance") as caught:
        load_planted_csv(path)
    assert caught.value.line == line
