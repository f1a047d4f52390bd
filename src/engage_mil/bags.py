"""Weakly-labeled bag datasets: construction, splits, augmentation, clustering.

A bag is one video reduced to a fixed number of per-segment feature vectors
plus a single 0-3 intensity label.  Only the video carries a label; which
segments actually express it is unknown, which is what the planted-signal
synthetic generator exists to probe.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CannotSplitError,
    EmptyVideoError,
    ParseError,
)
from .textio import FINITE, JSON_NUMBER, check_fields, parse_json, read_bytes, read_csv, read_json

LABELS = (0, 1, 2, 3)

FEATURE_MAGIC = b"EMIL"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIII")

# class -> total copies of each bag after rebalancing augmentation
AUGMENT_REPEATS = {0: 20, 1: 1, 2: 1, 3: 2}

# Shape of the in-the-wild engagement corpus these tools were designed
# around: 78 subjects filmed watching a stimulus, one ordinal label per
# video, heavily skewed away from full disengagement.
REFERENCE_CLASS_COUNTS = (9, 53, 82, 50)
REFERENCE_VIDEOS = sum(REFERENCE_CLASS_COUNTS)  # 194
REFERENCE_SUBJECTS = 78
REFERENCE_DISTRIBUTION = tuple(
    c / REFERENCE_VIDEOS for c in REFERENCE_CLASS_COUNTS
)


# ---------------------------------------------------------------------------
# domain types


@dataclass
class Bag:
    """One video: a fixed-size stack of instance vectors and one weak label."""

    video_id: str
    subject_id: str
    instances: np.ndarray  # (m, dim) float64
    label: int

    def __post_init__(self):
        self.instances = np.asarray(self.instances, dtype=np.float64)
        if self.instances.ndim != 2 or self.instances.shape[0] < 1:
            raise ValueError("instances must be a nonempty (m, dim) array")
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label}")

    @property
    def m(self):
        return self.instances.shape[0]

    @property
    def dim(self):
        return self.instances.shape[1]


@dataclass
class Dataset:
    bags: list[Bag]
    feature_kind: str
    m: int

    def __post_init__(self):
        if not self.bags:
            raise ValueError("a dataset needs at least one bag")
        dim = self.bags[0].dim
        for bag in self.bags:
            if bag.m != self.m:
                raise ValueError(
                    f"{bag.video_id} has {bag.m} instances, dataset expects {self.m}"
                )
            if bag.dim != dim:
                raise ValueError(f"{bag.video_id} has dimension {bag.dim}, not {dim}")

    def __len__(self):
        return len(self.bags)

    @property
    def dim(self):
        return self.bags[0].dim

    def labels(self) -> np.ndarray:
        return np.array([bag.label for bag in self.bags])

    def subjects(self) -> list[str]:
        seen = dict.fromkeys(bag.subject_id for bag in self.bags)
        return list(seen)

    def class_counts(self) -> dict[int, int]:
        counts = dict.fromkeys(LABELS, 0)
        for bag in self.bags:
            counts[bag.label] += 1
        return counts

    def instance_matrix(self) -> np.ndarray:
        """All instances stacked, bag-major: shape (len(self) * m, dim)."""
        return np.concatenate([bag.instances for bag in self.bags], axis=0)

    def tensor(self) -> np.ndarray:
        """Instances as one (n_bags, m, dim) array."""
        return np.stack([bag.instances for bag in self.bags])


@dataclass
class InstanceLabeling:
    """Per-instance real-valued labels attached to a dataset's bags."""

    labels: np.ndarray  # (n_bags, m) float64
    strategy: str  # "noisy" | "kmeans-mode" | "kmeans-mean"

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.ndim != 2:
            raise ValueError("labels must be (n_bags, m)")
        if self.labels.size and (
            self.labels.min() < LABELS[0] or self.labels.max() > LABELS[-1]
        ):
            raise ValueError("instance labels must lie in [0, 3]")


@dataclass
class SyntheticSpec:
    """Shape and knobs of a planted-signal dataset.

    A fraction `rho` of each bag's instances carry that bag's class signal
    (a fixed per-class direction scaled by the class index); the rest are
    pure noise.  Videos are spread over subjects as evenly as possible.
    """

    subjects: int = 10
    videos: int = 40
    m: int = 100
    dim: int = 8
    class_distribution: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    rho: float = 0.3
    noise_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.subjects < 1 or self.videos < self.subjects:
            raise ValueError("need at least one video per subject")
        if self.m < 1 or self.dim < 1:
            raise ValueError("m and dim must be positive")
        if len(self.class_distribution) != 4 or any(
            p < 0 for p in self.class_distribution
        ):
            raise ValueError("class_distribution needs 4 nonnegative weights")
        if not math.isclose(sum(self.class_distribution), 1.0, abs_tol=1e-9):
            raise ValueError("class_distribution must sum to 1")
        if not 0 < self.rho <= 1:
            raise ValueError("rho must be in (0, 1]")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")


@dataclass
class KMeansResult:
    centroids: np.ndarray  # (k, dim)
    assignments: np.ndarray  # (n,) int
    inertia: float
    n_iter: int
    inertia_trace: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# bag construction


def resample_indices(count: int, m: int) -> list[int]:
    """Indices picking exactly m items from a sequence of `count`.

    More items than needed: m evenly spaced picks.  Fewer: cyclic repeats.
    Either way the original order is preserved within a pass.
    """
    if count < 1:
        raise ValueError("cannot resample an empty sequence")
    if m < 1:
        raise ValueError("m must be positive")
    if count >= m:
        return [(i * count) // m for i in range(m)]
    return [i % count for i in range(m)]


def make_bags(
    vectors: np.ndarray,
    m: int,
    *,
    video_id: str,
    subject_id: str,
    label: int,
) -> Bag:
    """One video's (n, dim) segment feature matrix, resampled to exactly m
    instances."""
    if len(vectors) == 0:
        raise EmptyVideoError(f"{video_id}: no segment features")
    instances = np.asarray(vectors, dtype=np.float64)[resample_indices(len(vectors), m)]
    return Bag(video_id=video_id, subject_id=subject_id, instances=instances, label=label)


# ---------------------------------------------------------------------------
# splitting and augmentation


def _subject_video_counts(dataset: Dataset) -> dict[str, int]:
    counts: dict[str, int] = {}
    for bag in dataset.bags:
        counts[bag.subject_id] = counts.get(bag.subject_id, 0) + 1
    return counts


def split_subject_independent(
    dataset: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Partition subjects so the test side holds ~test_fraction of the videos.

    Subjects are shuffled by the seed and drafted into the test side until
    its video count reaches the target; single moves and pairwise swaps then
    shrink any remaining gap.  Every video of a subject stays on that
    subject's side.
    """
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    counts = _subject_video_counts(dataset)
    if len(counts) < 2:
        raise CannotSplitError(
            f"{len(counts)} subject(s) cannot be partitioned into two sides"
        )
    n = len(dataset)
    target = int(math.floor(test_fraction * n + 0.5))
    target = min(max(target, 1), n - 1)

    rng = np.random.default_rng(seed)
    order = [sorted(counts)[i] for i in rng.permutation(len(counts))]
    test_subjects = []
    test_count = 0
    for subject in order:
        if test_count >= target:
            break
        test_subjects.append(subject)
        test_count += counts[subject]
    if len(test_subjects) == len(counts):  # keep the train side nonempty
        test_count -= counts[test_subjects.pop()]

    test_set = set(test_subjects)
    train_subjects = [s for s in order if s not in test_set]

    def gap(c):
        return abs(c - target)

    improved = True
    while gap(test_count) > 0 and improved:
        improved = False
        # move one subject across
        for subject in order:
            delta = counts[subject] if subject not in test_set else -counts[subject]
            if gap(test_count + delta) < gap(test_count):
                sides_ok = (
                    len(test_set) > 1 or delta > 0
                ) and (len(test_set) < len(counts) - 1 or delta < 0)
                if sides_ok:
                    if delta > 0:
                        test_set.add(subject)
                    else:
                        test_set.remove(subject)
                    test_count += delta
                    improved = True
                    break
        if improved:
            continue
        # exchange a test subject for a train subject
        for t in order:
            if t not in test_set:
                continue
            for s in order:
                if s in test_set:
                    continue
                delta = counts[s] - counts[t]
                if gap(test_count + delta) < gap(test_count):
                    test_set.remove(t)
                    test_set.add(s)
                    test_count += delta
                    improved = True
                    break
            if improved:
                break

    train = [bag for bag in dataset.bags if bag.subject_id not in test_set]
    test = [bag for bag in dataset.bags if bag.subject_id in test_set]
    return (
        Dataset(train, dataset.feature_kind, dataset.m),
        Dataset(test, dataset.feature_kind, dataset.m),
    )


def augment(train: Dataset) -> Dataset:
    """Class-rebalancing duplication: 20 total copies of each level-0 bag,
    2 of each level-3 bag, levels 1-2 untouched.  Copies alias the original
    instance arrays, so they are bit-identical by construction."""
    bags = []
    for bag in train.bags:
        bags.extend([bag] * AUGMENT_REPEATS[bag.label])
    return Dataset(bags, train.feature_kind, train.m)


# ---------------------------------------------------------------------------
# clustering and instance relabeling


def _pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        (points**2).sum(axis=1)[:, None]
        + (centroids**2).sum(axis=1)[None, :]
        - 2.0 * points @ centroids.T
    )
    return np.maximum(d2, 0.0)


def _seed_centroids(points: np.ndarray, k: int, rng) -> np.ndarray:
    """Distance-weighted (k-means++ style) centroid seeding."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:  # all remaining mass is on already-chosen duplicates
            pool = sorted(set(range(n)) - set(chosen))
            nxt = pool[int(rng.integers(len(pool)))]
        chosen.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return points[np.array(chosen)].copy()


def kmeans(points: np.ndarray, k: int, seed: int, max_iter: int = 300) -> KMeansResult:
    """Lloyd's iterations from a seeded distance-weighted initialization.

    Stops when assignments are stable or after max_iter sweeps.  An empty
    cluster is re-seeded at the point currently farthest from its centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, dim) array")
    n = points.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(points, k, rng)
    assignments = None
    trace = []
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d2 = _pairwise_sq_dists(points, centroids)
        new_assignments = d2.argmin(axis=1)
        for c in range(k):
            if not (new_assignments == c).any():
                current = d2[np.arange(n), new_assignments]
                far = int(current.argmax())
                new_assignments[far] = c
                centroids[c] = points[far]
        if assignments is not None and (new_assignments == assignments).all():
            assignments = new_assignments
            break
        assignments = new_assignments
        for c in range(k):
            members = points[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        inertia = float(
            ((points - centroids[assignments]) ** 2).sum()
        )
        trace.append(inertia)
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=trace[-1],
        n_iter=n_iter,
        inertia_trace=trace,
    )


def relabel(
    dataset: Dataset, strategy: str, assignments: np.ndarray | None = None
) -> InstanceLabeling:
    """Per-instance labels under one of the weak-supervision readings.

    noisy: every instance inherits its bag's label.  kmeans-mode /
    kmeans-mean: instances of one cluster all get the mode (ties toward the
    smaller label) or mean of the bag labels found in that cluster.
    """
    n, m = len(dataset), dataset.m
    bag_labels = np.repeat(dataset.labels(), m)
    if strategy == "noisy":
        return InstanceLabeling(bag_labels.astype(np.float64).reshape(n, m), strategy)
    if strategy not in ("kmeans-mode", "kmeans-mean"):
        raise ValueError(f"unknown relabeling strategy {strategy!r}")
    if assignments is None:
        raise ValueError(f"{strategy} needs cluster assignments")
    assignments = np.asarray(assignments).reshape(-1)
    if assignments.shape != (n * m,):
        raise ValueError(
            f"assignments must cover all {n * m} instances, got {assignments.shape}"
        )
    labels = np.empty(n * m, dtype=np.float64)
    for c in sorted(set(assignments.tolist())):  # np.unique would import numpy.ma
        members = assignments == c
        member_labels = bag_labels[members]
        if strategy == "kmeans-mode":
            value = float(np.bincount(member_labels).argmax())
        else:
            value = float(member_labels.mean())
        labels[members] = value
    return InstanceLabeling(labels.reshape(n, m), strategy)


# ---------------------------------------------------------------------------
# planted-signal synthetic data


def class_counts_from_distribution(distribution, videos: int) -> list[int]:
    """Integer class counts by largest remainder, summing to `videos`.

    The epsilon inside the floor keeps p*videos that is an integer in exact
    arithmetic from losing a whole video to rounding dirt.
    """
    exact = [p * videos for p in distribution]
    counts = [int(math.floor(e + 1e-9)) for e in exact]
    remainders = [max(e - c, 0.0) for e, c in zip(exact, counts)]
    short = videos - sum(counts)
    for cls in sorted(range(4), key=lambda i: (-remainders[i], i))[:short]:
        counts[cls] += 1
    return counts


def synth_generate(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Planted-signal dataset plus per-instance ground-truth intensities.

    Each bag of class y gets round(rho * m) signal instances (at least one):
    the class direction scaled by y, plus Gaussian noise of scale
    noise_scale.  The other instances are pure noise.  Ground truth is y on
    signal instances and 0 elsewhere.  Fully determined by spec.seed.
    """
    rng = np.random.default_rng(spec.seed)

    raw = rng.normal(size=(4, spec.dim))
    if spec.dim >= 4:  # orthonormal class directions when there is room
        q, _ = np.linalg.qr(raw.T)
        directions = np.ascontiguousarray(q[:, :4].T)
    else:
        directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    counts = class_counts_from_distribution(spec.class_distribution, spec.videos)
    labels = np.repeat(np.arange(4), counts)
    labels = labels[rng.permutation(spec.videos)]

    n_signal = max(1, int(math.floor(spec.rho * spec.m + 0.5)))
    width = len(str(spec.videos - 1))
    swidth = len(str(spec.subjects - 1))
    bags = []
    planted = np.zeros((spec.videos, spec.m))
    for i in range(spec.videos):
        y = int(labels[i])
        signal_rows = rng.choice(spec.m, size=n_signal, replace=False)
        instances = rng.normal(0.0, spec.noise_scale, size=(spec.m, spec.dim))
        instances[signal_rows] += directions[y] * y
        planted[i, signal_rows] = y
        bags.append(
            Bag(
                video_id=f"video{i:0{width}d}",
                subject_id=f"subj{(i * spec.subjects) // spec.videos:0{swidth}d}",
                instances=instances,
                label=y,
            )
        )
    return Dataset(bags, "synthetic", spec.m), planted


# ---------------------------------------------------------------------------
# on-disk dataset format


MODEL_MAGIC = b"EMMF"
MODEL_VERSION = 1
_MODEL_PREFIX = struct.Struct("<4sII")  # magic, version, header length
_MODEL_HEADER = {"kind": str, "fields": dict, "meta": dict, "shapes": list}


def write_model(path, kind: str, fields: dict, arrays, meta: dict | None = None) -> None:
    """Write one model file: magic | version | header length | JSON header
    {kind, fields, meta, shapes} | each array as little-endian float64.

    The bytes go to a temporary file beside `path` that then replaces it,
    so a reader never sees a partly written model."""
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    header = {"kind": kind, "fields": fields, "meta": meta or {}}
    header["shapes"] = [list(a.shape) for a in arrays]
    blob = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MODEL_PREFIX.pack(MODEL_MAGIC, MODEL_VERSION, len(blob)))
            fh.write(blob)
            fh.writelines(a.tobytes() for a in arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _model_header(path, data: bytes) -> tuple[dict, int]:
    """A model file's checked header and the offset of its payload."""
    if not data.startswith(MODEL_MAGIC):
        raise ParseError(path, 1, f"not a supported model file: magic {data[:4]!r}")
    if len(data) < _MODEL_PREFIX.size:
        raise ParseError(path, 1, "truncated model file")
    _, version, size = _MODEL_PREFIX.unpack_from(data)
    if version != MODEL_VERSION:
        raise ParseError(path, 1, f"unsupported model file version {version}")
    offset = _MODEL_PREFIX.size + size
    if len(data) < offset:
        raise ParseError(path, 1, "truncated model header")
    header = parse_json(path, data[_MODEL_PREFIX.size : offset], "model", **FINITE)
    check_fields(path, header, _MODEL_HEADER, "model header")
    for shape in header["shapes"]:
        if not (
            isinstance(shape, list)
            and len(shape) <= 2
            and all(type(n) is int and 0 <= n < 2**32 for n in shape)
        ):
            raise ParseError(path, 1, f"model header has a bad shape: {shape!r}")
    return header, offset


def model_kind(path) -> str:
    """The kind a model file's header names; ParseError if it has no valid header."""
    return _model_header(path, read_bytes(path, "model"))[0]["kind"]


def read_model(path, kinds: dict, build):
    """Load a model file written by write_model as (model, meta).

    `kinds` maps each kind the caller accepts to the types of its fields
    (see check_fields); `build(kind, fields, arrays)` makes the model, and
    what its constructors refuse becomes ParseError.  The payload size is
    checked against the header's shapes before any array is allocated."""
    data = read_bytes(path, "model")
    header, offset = _model_header(path, data)
    kind, fields = header["kind"], header["fields"]
    if kind not in kinds:
        raise ParseError(path, 1, f"not a {'/'.join(kinds)} model file: kind {kind!r}")
    check_fields(path, fields, kinds[kind], f"{kind} model fields")
    counts = [math.prod(shape) for shape in header["shapes"]]
    size = 8 * sum(counts)
    if len(data) - offset != size:
        raise ParseError(path, 1, f"payload size mismatch: {len(data) - offset} != {size} bytes")
    arrays = []
    for shape, count in zip(header["shapes"], counts):
        block = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        arrays.append(block.reshape(shape).astype(np.float64))
        offset += 8 * count
    if not all(np.isfinite(a).all() for a in arrays):
        raise ParseError(path, 1, "model arrays must be finite")
    try:
        return build(kind, fields, arrays), header["meta"]
    except (ValueError, OverflowError) as exc:  # bad sizes or values; huge ints
        raise ParseError(path, 1, str(exc)) from None


def write_feature_file(path, instances: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(instances), dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("instances must be 2-D")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_feature_file(path) -> np.ndarray:
    """An (m, dim) instance matrix; empty or non-finite ones are refused."""
    data = read_bytes(path, "feature file")
    if len(data) < _HEADER.size:
        raise ParseError(path, 1, "truncated feature file header")
    magic, version, m, dim = _HEADER.unpack_from(data)
    if magic != FEATURE_MAGIC:
        raise ParseError(path, 1, f"bad magic {magic!r}")
    if version != FEATURE_VERSION:
        raise ParseError(path, 1, f"unsupported version {version}")
    payload = data[_HEADER.size :]
    if len(payload) != m * dim * 4:
        raise ParseError(
            path, 1, f"expected {m * dim * 4} payload bytes, found {len(payload)}"
        )
    if m * dim == 0:
        raise ParseError(path, 1, f"empty {m} x {dim} feature matrix")
    instances = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(instances).all():
        raise ParseError(path, 1, "non-finite feature values")
    return instances.reshape(m, dim).astype(np.float64)


def save_dataset(dataset: Dataset, directory) -> Path:
    """Write one feature file per video plus an index; returns the index path."""
    directory = Path(directory)
    (directory / "features").mkdir(parents=True, exist_ok=True)
    index = []
    for bag in dataset.bags:
        rel = f"features/{bag.video_id}.bin"
        write_feature_file(directory / rel, bag.instances)
        index.append(
            {
                "video_id": bag.video_id,
                "subject_id": bag.subject_id,
                "label": bag.label,
                "feature_kind": dataset.feature_kind,
                "path": rel,
            }
        )
    index_path = directory / "index.json"
    index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return index_path


_INDEX_RECORD = {
    "video_id": str,
    "subject_id": str,
    "label": JSON_NUMBER,
    "feature_kind": str,
    "path": str,
}


def load_dataset(index_path) -> Dataset:
    index_path = Path(index_path)
    if index_path.is_dir():
        index_path = index_path / "index.json"
    index = read_json(index_path, "dataset index")
    if not isinstance(index, list) or not index:
        raise ParseError(index_path, 1, "index must be a nonempty array")
    bags = []
    kinds = set()
    folder = os.path.dirname(str(index_path))  # "" for a bare name, not Path's "."
    for number, record in enumerate(index, start=1):
        check_fields(index_path, record, _INDEX_RECORD, "index record")
        if record["label"] not in LABELS:
            raise ParseError(
                index_path, 1, f"label must be one of {LABELS}, got {record['label']!r}"
            )
        kinds.add(record["feature_kind"])
        feature_path = os.path.join(folder, record["path"])
        if not os.path.isfile(feature_path):  # the index's fault; a damaged file is its own
            raise ParseError(index_path, 1, f"record {number} lists {feature_path}, not a file")
        instances = read_feature_file(feature_path)
        bags.append(
            Bag(
                video_id=record["video_id"],
                subject_id=record["subject_id"],
                instances=instances,
                label=int(record["label"]),
            )
        )
    if len(kinds) != 1:
        raise ParseError(index_path, 1, f"mixed feature kinds {sorted(kinds)}")
    try:
        return Dataset(bags, kinds.pop(), bags[0].m)
    except ValueError as exc:  # bags of different sizes or dimensions
        raise ParseError(index_path, 1, str(exc)) from None


def save_planted_csv(dataset: Dataset, planted: np.ndarray, path) -> None:
    planted = np.asarray(planted)
    if planted.shape != (len(dataset), dataset.m):
        raise ValueError(
            f"planted truth shape {planted.shape} does not match dataset"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "instance_index", "planted_intensity"])
        for bag, row in zip(dataset.bags, planted):
            for j, value in enumerate(row):
                writer.writerow([bag.video_id, j, repr(float(value))])


def load_planted_csv(path) -> dict[str, np.ndarray]:
    per_video: dict[str, list[tuple[int, float]]] = {}
    records = read_csv(path, "planted truth")
    _, header = next(records, (1, None))
    if header != ["video_id", "instance_index", "planted_intensity"]:
        raise ParseError(path, 1, "unexpected planted-truth header")
    for lineno, row in records:
        if not row:
            continue
        try:
            per_video.setdefault(row[0], []).append((int(row[1]), float(row[2])))
        except (ValueError, IndexError):
            raise ParseError(path, lineno, "malformed row") from None
    out = {}
    for video_id, pairs in per_video.items():
        pairs.sort()
        if [i for i, _ in pairs] != list(range(len(pairs))):
            raise ParseError(path, 1, f"{video_id}: instance indices not 0..m-1")
        out[video_id] = np.array([v for _, v in pairs])
    return out
