"""Weakly-labeled bag datasets: construction, splits, augmentation, clustering.

A bag is one video reduced to a fixed number of per-segment feature vectors
plus a single 0-3 intensity label.  Only the video carries a label; which
segments actually express it is unknown, which is what the planted-signal
synthetic generator exists to probe.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

try:  # CPython's own SHA-256, as random.py takes its SHA-512: hashlib loads
    from _sha2 import sha256  # OpenSSL, which adds 3.7 MB to a run's peak RSS
except ImportError:  # before Python 3.12
    try:
        from _sha256 import sha256
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

import numpy as np

from .errors import DataError, NumericError, ParseError
from .textio import JSON_NUMBER, check_fields, parse_json, read_bytes, read_csv, read_json
from .textio import video_id_fault, write_bytes, write_csv, write_json

LABELS = (0, 1, 2, 3)
_LEVEL_CELLS = {str(level): level for level in LABELS}
RELABELINGS = ("noisy", "kmeans-mode", "kmeans-mean")
SERVE_ROWS = 640  # instances per serving block (see Serving)

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
    files: list[str] = field(default_factory=list)  # the feature files it was read from

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


def block_bags(m: int) -> int:
    """Bags per serving block at m segments a bag: about SERVE_ROWS rows, in
    groups of 8 bags, so no bag, wherever it sits, falls in a BLAS edge tile."""
    return 8 * max(1, SERVE_ROWS // (8 * m))


class Serving:
    """predict_bags/localize_bags (see cli), one loop for every model kind.

    Bags are copied into (block_bags(m), m, dim) blocks, the last padded with
    zero bags, and each block goes through the kind's score_block.  BLAS picks
    its path by shape, so a bag's output depends only on the model and the
    bag, and serving holds one block's temporaries.  An output that is not
    finite is a NumericError naming the first such video."""

    def check(self, dataset: Dataset) -> None:
        """Refuse a dataset the model cannot serve; any bag size fits by default."""

    def score_block(self, x: np.ndarray, intensities: bool) -> np.ndarray:
        """A (b, m, dim) block's (b,) bag scores or (b, m) intensities in the
        label range; by default the mean of a per-instance model's scores."""
        b, m, dim = x.shape
        r = self.instance_scores(x.reshape(b * m, dim)).reshape(b, m)
        return r if intensities else r.mean(axis=1)

    def _serve(self, dataset: Dataset, intensities: bool) -> np.ndarray:
        n, m = len(dataset), dataset.m
        block = np.zeros((block_bags(m), m, dataset.dim))
        out = np.empty((n, m) if intensities else n)
        for start in range(0, n, len(block)):
            bags = dataset.bags[start : start + len(block)]
            np.stack([bag.instances for bag in bags], out=block[: len(bags)])
            block[len(bags) :] = 0.0
            out[start : start + len(bags)] = self.score_block(block, intensities)[: len(bags)]
        finite = np.isfinite(out).reshape(n, -1).all(axis=1)
        if not finite.all():
            video_id = dataset.bags[int(finite.argmin())].video_id
            raise NumericError(f"{video_id}: the model's output is not finite")
        return out

    def predict_bags(self, dataset: Dataset) -> np.ndarray:
        return self._serve(dataset, intensities=False)

    def localize_bags(self, dataset: Dataset) -> np.ndarray:
        return self._serve(dataset, intensities=True)


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
        if len(self.class_distribution) != len(LABELS) or any(
            p < 0 for p in self.class_distribution
        ):
            raise ValueError(f"class_distribution needs {len(LABELS)} nonnegative weights")
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


def parse_level(cell: str) -> int:
    """The level in LABELS that a table cell spells: one ASCII digit, blanks
    around it aside.  ValueError for any other text (`+2`, `02`, `٢`, `0_1`)."""
    text = cell.strip()
    if text not in _LEVEL_CELLS:
        raise ValueError(f"{text!r} is not a level {LABELS[0]}..{LABELS[-1]}")
    return _LEVEL_CELLS[text]


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
        raise DataError(f"{video_id}: no segment features")
    instances = np.asarray(vectors, dtype=np.float64)[resample_indices(len(vectors), m)]
    return Bag(video_id=video_id, subject_id=subject_id, instances=instances, label=label)


# ---------------------------------------------------------------------------
# splitting and augmentation


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
    counts = Counter(bag.subject_id for bag in dataset.bags)  # videos per subject
    if len(counts) < 2:
        raise DataError(f"{len(counts)} subject(s) cannot be partitioned into two sides")
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
    while test_count != target:
        # the first change that shrinks the gap and leaves both sides nonempty,
        # trying each subject moved across, then each (test, train) pair swapped
        gap = abs(test_count - target)
        moves = ({s} for s in order)
        swaps = ({t, s} for t in order if t in test_set for s in order if s not in test_set)
        for flip in itertools.chain(moves, swaps):
            count = test_count + sum(-counts[s] if s in test_set else counts[s] for s in flip)
            if abs(count - target) < gap and 0 < len(test_set ^ flip) < len(counts):
                test_set ^= flip
                test_count = count
                break
        else:
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


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance of every row of `a` to every row of `b`, by the
    expansion |a|^2 + |b|^2 - 2 a.b, clipped at 0 against rounding."""
    d2 = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1)[None, :] - 2.0 * a @ b.T
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
) -> np.ndarray:
    """Per-instance labels, an (n_bags, m) float64 array, under one of the
    weak-supervision readings.

    noisy: every instance inherits its bag's label.  kmeans-mode /
    kmeans-mean: instances of one cluster all get the mode (ties toward the
    smaller label) or mean of the bag labels found in that cluster.
    """
    n, m = len(dataset), dataset.m
    bag_labels = np.repeat(dataset.labels(), m)
    if strategy == "noisy":
        return bag_labels.astype(np.float64).reshape(n, m)
    if strategy not in RELABELINGS:
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
    return labels.reshape(n, m)


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
    for cls in sorted(LABELS, key=lambda i: (-remainders[i], i))[:short]:
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

    levels = len(LABELS)
    raw = rng.normal(size=(levels, spec.dim))
    if spec.dim >= levels:  # orthonormal class directions when there is room
        q, _ = np.linalg.qr(raw.T)
        directions = np.ascontiguousarray(q[:, :levels].T)
    else:
        directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    counts = class_counts_from_distribution(spec.class_distribution, spec.videos)
    labels = np.repeat(LABELS, counts)
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


def write_model(path, model, meta: dict | None = None) -> None:
    """Write model.to_file()'s kind, fields and arrays as one model file: magic |
    version | header length | JSON header {kind, fields, meta, shapes} | each
    array as little-endian float64."""
    kind, fields, arrays = model.to_file()
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    if not all(np.isfinite(a).all() for a in arrays):  # read_model's rule
        raise ValueError(f"cannot write {path}: model arrays must be finite")
    header = {"kind": kind, "fields": fields, "meta": meta or {}}
    header["shapes"] = [list(a.shape) for a in arrays]
    blob = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    prefix = _MODEL_PREFIX.pack(MODEL_MAGIC, MODEL_VERSION, len(blob))
    write_bytes(path, b"".join([prefix, blob, *(a.tobytes() for a in arrays)]))


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
    header = parse_json(path, data[_MODEL_PREFIX.size : offset], "model")
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


def read_model(path, classes):
    """Load a model file written by write_model as (model, meta).

    Its kind must be the KIND of one of `classes`, whose FIELDS type its fields
    (see check_fields) and whose from_file(fields, arrays) makes the model; what
    that refuses becomes ParseError.  The payload size is checked against the
    header's shapes before any array is allocated."""
    data = read_bytes(path, "model")
    header, offset = _model_header(path, data)
    kind, fields = header["kind"], header["fields"]
    by_kind = {cls.KIND: cls for cls in classes}
    if kind not in by_kind:
        raise ParseError(path, 1, f"not a {'/'.join(by_kind)} model file: kind {kind!r}")
    check_fields(path, fields, by_kind[kind].FIELDS, f"{kind} model fields")
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
        return by_kind[kind].from_file(fields, arrays), header["meta"]
    except (ValueError, OverflowError) as exc:  # bad sizes or values; huge ints
        raise ParseError(path, 1, str(exc)) from None


def _feature_fault(instances) -> str | None:
    """What keeps `instances`, narrowed to float32, from being a feature
    file's matrix, which is 2-D, nonempty and finite; None when nothing does."""
    with np.errstate(over="ignore"):  # past float32's range: inf, refused below
        values = np.asarray(instances, dtype=np.float32)
    if values.ndim != 2:
        return f"a feature matrix is 2-D, not {values.ndim}-D"
    if not values.size:
        return "empty {} x {} feature matrix".format(*values.shape)
    if not np.isfinite(values).all():
        return "non-finite feature values in float32"
    return None


def write_feature_file(path, instances: np.ndarray) -> str:
    """Write one feature file; returns the SHA-256 of its bytes.  A matrix
    that _feature_fault refuses is a DataError, and nothing is written."""
    fault = _feature_fault(instances)
    if fault:
        raise DataError(f"cannot write {path}: {fault}")
    arr = np.ascontiguousarray(instances, dtype="<f4")
    data = _HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, *arr.shape) + arr.tobytes()
    write_bytes(path, data)
    return sha256(data).hexdigest()


def read_feature_file(path) -> np.ndarray:
    return _feature_matrix(path, read_bytes(path, "feature file"))


def _feature_matrix(path, data: bytes) -> np.ndarray:
    """The (m, dim) instance matrix of feature file `path`, whose bytes are
    `data`; one that _feature_fault refuses is a ParseError."""
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
    instances = np.frombuffer(payload, dtype="<f4").reshape(m, dim)
    fault = _feature_fault(instances)
    if fault:
        raise ParseError(path, 1, fault)
    return instances.astype(np.float64)


def save_dataset(dataset: Dataset, directory) -> Path:
    """Write one feature file per video, then an index whose records carry
    each file's SHA-256; returns the index path.  What `load_dataset`
    refuses is a DataError, and nothing is written: a video id that is not a
    plain file name or that repeats, and a bag that is not a feature file's
    matrix once narrowed to float32 (see _feature_fault)."""
    ids = set()
    for bag in dataset.bags:
        fault = video_id_fault(bag.video_id) or _feature_fault(bag.instances)
        if bag.video_id in ids:
            fault = "the video id repeats"
        if fault:
            raise DataError(f"cannot save video {bag.video_id!r}: {fault}")
        ids.add(bag.video_id)
    directory = Path(directory)
    (directory / "features").mkdir(parents=True, exist_ok=True)
    index = []
    for bag in dataset.bags:
        rel = f"features/{bag.video_id}.bin"
        index.append(
            {
                "video_id": bag.video_id,
                "subject_id": bag.subject_id,
                "label": bag.label,
                "feature_kind": dataset.feature_kind,
                "path": rel,
                "sha256": write_feature_file(directory / rel, bag.instances),
            }
        )
    index_path = directory / "index.json"
    write_json(index_path, index)
    return index_path


_INDEX_RECORD = {
    "video_id": str,
    "subject_id": str,
    "label": JSON_NUMBER,
    "feature_kind": str,
    "path": str,
}


def load_dataset(index_path) -> Dataset:
    """The dataset an index lists.  Each feature file is read once; its
    SHA-256 must be the one its record carries, so a dataset whose files come
    from two writes never loads.  The digests are checked last: a feature
    file that is damaged or does not fit keeps its own message."""
    index_path = Path(index_path)
    if index_path.is_dir():
        index_path = index_path / "index.json"
    index = read_json(index_path, "dataset index")
    if not isinstance(index, list) or not index:
        raise ParseError(index_path, 1, "index must be a nonempty array")
    bags, kinds, ids, files = [], set(), set(), []
    stale = None  # the first record whose file is not the one it describes
    folder = os.path.dirname(str(index_path))  # "" for a bare name, not Path's "."
    for number, record in enumerate(index, start=1):
        check_fields(index_path, record, _INDEX_RECORD, "index record")
        video_id = record["video_id"]
        if video_id in ids:
            raise ParseError(index_path, 1, f"record {number} repeats video {video_id!r}")
        ids.add(video_id)
        if record["label"] not in LABELS:
            raise ParseError(
                index_path, 1, f"label must be one of {LABELS}, got {record['label']!r}"
            )
        kinds.add(record["feature_kind"])
        feature_path = os.path.join(folder, record["path"])
        if not os.path.isfile(feature_path):  # the index's fault; a damaged file is its own
            raise ParseError(index_path, 1, f"record {number} lists {feature_path}, not a file")
        data = read_bytes(feature_path, "feature file")
        instances = _feature_matrix(feature_path, data)
        digest = record.get("sha256")
        if stale is None and digest != sha256(data).hexdigest():
            fault = "has no sha256 of" if digest is None else "has a sha256 that does not match"
            stale = f"record {number} {fault} {feature_path}"
        files.append(feature_path)
        bags.append(
            Bag(
                video_id=video_id,
                subject_id=record["subject_id"],
                instances=instances,
                label=int(record["label"]),
            )
        )
    if len(kinds) != 1:
        raise ParseError(index_path, 1, f"mixed feature kinds {sorted(kinds)}")
    try:
        dataset = Dataset(bags, kinds.pop(), bags[0].m, files)
    except ValueError as exc:  # bags of different sizes or dimensions
        raise ParseError(index_path, 1, str(exc)) from None
    if stale:
        raise ParseError(index_path, 1, f"{stale}; re-run extract or synth to rewrite the dataset")
    return dataset


def save_planted_csv(dataset: Dataset, planted: np.ndarray, path) -> None:
    """Write each video's planted intensities, one row per instance.  A
    non-finite intensity or a repeated video id, which `load_planted_csv`
    refuses, is a DataError, and nothing is written."""
    planted = np.asarray(planted)
    if planted.shape != (len(dataset), dataset.m):
        raise ValueError(
            f"planted truth shape {planted.shape} does not match dataset"
        )
    if len({bag.video_id for bag in dataset.bags}) < len(dataset):
        raise DataError("cannot save planted truth for a repeated video id")
    if not np.isfinite(planted).all():
        bag, j = np.argwhere(~np.isfinite(planted))[0]
        video_id = dataset.bags[bag].video_id
        raise DataError(f"{video_id}: planted intensity {planted[bag, j]} of instance {j} is not finite")
    pairs = zip(dataset.bags, planted)
    rows = ([bag.video_id, j, repr(float(v))] for bag, row in pairs for j, v in enumerate(row))
    write_csv(path, ["video_id", "instance_index", "planted_intensity"], rows)


def load_planted_csv(path) -> dict[str, np.ndarray]:
    """Each video's planted intensities in instance order.  An instance index
    that repeats, leaves a gap or is negative is refused at its row."""
    header = ["video_id", "instance_index", "planted_intensity"]
    _, records = read_csv(path, "planted truth", header)
    per_video: dict[str, list[tuple[int, int, float]]] = {}
    for line, row in records:
        if len(row) != 3:
            raise ParseError(path, line, f"expected 3 cells, found {len(row)}")
        try:
            index, value = int(row[1]), float(row[2])
        except ValueError:
            raise ParseError(path, line, "malformed row") from None
        if not math.isfinite(value):
            raise ParseError(path, line, "non-finite planted intensity")
        per_video.setdefault(row[0], []).append((index, line, value))
    out = {}
    for video_id, rows in per_video.items():
        rows.sort()
        indices = [index for index, _, _ in rows]
        if indices != list(range(len(rows))):
            k = next(k for k, index in enumerate(indices) if index != k)
            message = f"{video_id}: instance index {indices[k]} where {k} belongs (indices run 0..m-1)"
            raise ParseError(path, rows[k][1], message)
        out[video_id] = np.array([value for _, _, value in rows])
    return out
