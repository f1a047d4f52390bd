"""Per-segment features from face-crop videos and pose/gaze tracks.

Two descriptor families are produced for sliding windows of a subsampled
video: a 177-dim spatio-temporal texture histogram (local binary patterns
accumulated over the XY, XT and YT slices of the window volume, 59
uniform-pattern bins per plane) and a 9-dim motion vector (per-window
standard deviations of head position, head rotation and mean eye gaze).
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError
from .textio import JSON_NUMBER, check_fields, read_bytes, read_csv, read_json
from .textio import video_id_fault, write_bytes, write_csv, write_json

# Circular neighborhood: radius 1, 8 samples, ordered counter-clockwise
# starting from the positive horizontal axis.  Axis -2 of a plane array is
# the circle's vertical axis, axis -1 the horizontal one.
_DIAG = math.sqrt(0.5)
NEIGHBOR_OFFSETS = (
    (1.0, 0.0),
    (_DIAG, _DIAG),
    (0.0, 1.0),
    (-_DIAG, _DIAG),
    (-1.0, 0.0),
    (-_DIAG, -_DIAG),
    (0.0, -1.0),
    (_DIAG, -_DIAG),
)  # (dx, dy) pairs

PLANE_BINS = 59
N_PLANES = 3
LBP_TOP_DIM = PLANE_BINS * N_PLANES
POSE_GAZE_DIM = 9
XY_FRAMES = ("all", "center")  # which frames of a window give XY codes

POSE_GAZE_COLUMNS = (
    "frame",
    "pose_Tx",
    "pose_Ty",
    "pose_Tz",
    "pose_Rx",
    "pose_Ry",
    "pose_Rz",
    "gaze_0_x",
    "gaze_0_y",
    "gaze_0_z",
    "gaze_1_x",
    "gaze_1_y",
    "gaze_1_z",
)


# ---------------------------------------------------------------------------
# domain records


@dataclass
class FrameSequence:
    """Ordered grayscale face crops of one video."""

    frames: np.ndarray  # (n, height, width) uint8
    fps: float
    subject_id: str
    video_id: str

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 3 or not self.frames.size:
            raise ValueError("frames must be a nonempty (n, h, w) array")
        if self.frames.dtype != np.uint8:
            raise ValueError("frames must be 8-bit grayscale (uint8)")
        if not 0 < self.fps <= sys.float_info.max:  # load_manifest's rule
            raise ValueError(f"fps must be positive and finite, not {self.fps!r}")

    def __len__(self):
        return self.frames.shape[0]


@dataclass
class PoseGazeTrack:
    """Per-frame head pose and eye gaze, aligned with a frame sequence.

    Rotation components are kept in source column order (Rx, Ry, Rz).
    Gaze vectors are one 3-vector per eye per frame.
    """

    head_position: np.ndarray  # (n, 3) mm
    head_rotation: np.ndarray  # (n, 3) rad
    gaze_left: np.ndarray  # (n, 3) unit vectors
    gaze_right: np.ndarray  # (n, 3)

    def __post_init__(self):
        arrs = [self.head_position, self.head_rotation, self.gaze_left, self.gaze_right]
        n = arrs[0].shape[0]
        for a in arrs:
            if a.shape != (n, 3):
                raise ValueError("all track blocks must be (n, 3)")
            if not np.isfinite(a).all():
                raise ValueError("track values must be finite")

    def __len__(self):
        return self.head_position.shape[0]

    def every(self, step: int) -> "PoseGazeTrack":
        return PoseGazeTrack(
            self.head_position[::step],
            self.head_rotation[::step],
            self.gaze_left[::step],
            self.gaze_right[::step],
        )


# ---------------------------------------------------------------------------
# temporal sampling and windowing


def sample_step(src_fps: float, target_fps: float) -> int:
    """Frame-keeping step for dropping a source rate to a target rate.

    Rounded to the nearest integer, halves away from zero, so a 30 fps
    source at a 6 fps target keeps every 5th frame.
    """
    if src_fps <= 0 or target_fps <= 0:
        raise ValueError("frame rates must be positive")
    if target_fps > src_fps:
        raise ValueError(
            f"target rate {target_fps} exceeds source rate {src_fps}"
        )
    return int(math.floor(src_fps / target_fps + 0.5))


def segment(n: int, length: int, stride: int) -> list[slice]:
    """Sliding windows over n frames, as slices of frame indices.

    Starts at 0 and advances by `stride` while a full window still fits,
    giving floor((n - length) / stride) + 1 windows.
    """
    if length < 2:
        raise ValueError("window length must be at least 2")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if n < length:
        raise DataError(f"{n} frames cannot fit one window of length {length}")
    return [slice(start, start + length) for start in range(0, n - length + 1, stride)]


# ---------------------------------------------------------------------------
# local binary patterns


def _circular_transitions(code: int) -> int:
    return sum(
        ((code >> i) & 1) != ((code >> ((i + 1) % 8)) & 1) for i in range(8)
    )


def _build_uniform_lut() -> np.ndarray:
    # Uniform codes (<= 2 circular transitions) get bins 0..57 in ascending
    # code order; everything else shares the final catch-all bin.
    lut = np.full(256, PLANE_BINS - 1, dtype=np.int64)
    nxt = 0
    for code in range(256):
        if _circular_transitions(code) <= 2:
            lut[code] = nxt
            nxt += 1
    assert nxt == PLANE_BINS - 1
    return lut


UNIFORM_LUT = _build_uniform_lut()


def _bilinear_taps(dx: float, dy: float):
    x0, y0 = math.floor(dx), math.floor(dy)
    fx, fy = dx - x0, dy - y0
    raw = (
        (y0, x0, (1.0 - fy) * (1.0 - fx)),
        (y0, x0 + 1, (1.0 - fy) * fx),
        (y0 + 1, x0, fy * (1.0 - fx)),
        (y0 + 1, x0 + 1, fy * fx),
    )
    return tuple((ro, co, w) for ro, co, w in raw if w != 0.0)


_NEIGHBOR_TAPS = tuple(_bilinear_taps(dx, dy) for dx, dy in NEIGHBOR_OFFSETS)


# Size of a code-map chunk's float64 frames (8 frames at 64x64), so that the
# chunk, its tap products and temporaries stay near L2; at 64x64, 192-256 KB
# ran fastest among 64-384 KB on a 2-core x86 host.
_CHUNK_BYTES = 256 * 1024

# The distinct bilinear weights of the diagonal neighbors (three of them):
# a chunk is multiplied by each once, and every diagonal sums those products.
_DIAGONAL_WEIGHTS = sorted({w for taps in _NEIGHBOR_TAPS if len(taps) > 1 for *_, w in taps})

# UNIFORM_LUT as a gather and one reduceat: codes in bin order, and the
# position of each bin's first code in that order.
_CODES_BY_BIN = np.argsort(UNIFORM_LUT, kind="stable")
_BIN_STARTS = np.searchsorted(UNIFORM_LUT[_CODES_BY_BIN], np.arange(PLANE_BINS))


def _plane_codes(acc, u8, f64, products, sy, sx, scratch) -> None:
    """Pattern codes of the flat chunk `u8` on the plane whose circle's
    vertical and horizontal axes have element strides `sy` and `sx`, for the
    flat positions p in [sy+sx, size-sy-sx), written to `acc[p - sy - sx]`.
    The neighbor at (ro, co) sits ro*sy + co*sx further on; positions off the
    plane's interior get codes that the caller drops.  Axial neighbors compare
    exactly in uint8; diagonal ones sum their bilinear taps in order, each tap
    read from `products[weight]`, the float64 chunk `f64` times that weight,
    so every voxel's sum is the same float64 operations as tap by tap."""
    lo, hi = sy + sx, u8.size - sy - sx
    n = hi - lo
    value, hits = scratch
    value = value[:n]
    # The bits are shifted and merged 8 bytes at a time: every hit byte is 0
    # or 1, so a shift by at most 7 stays within its byte.
    words = -(-n // 8)
    hits[n : 8 * words] = False
    hit_words, acc_words = hits[: 8 * words].view(np.uint64), acc[: 8 * words].view(np.uint64)

    def at(source, ro, co):
        shift = ro * sy + co * sx
        return source[lo + shift : hi + shift]

    for bit, taps in enumerate(_NEIGHBOR_TAPS):
        hit = acc[:n].view(bool) if bit == 0 else hits[:n]
        if len(taps) == 1:
            np.greater_equal(at(u8, *taps[0][:2]), u8[lo:hi], out=hit)
        else:
            (r0, c0, w0), (r1, c1, w1), *rest = taps
            np.add(at(products[w0], r0, c0), at(products[w1], r1, c1), out=value)
            for ro, co, w in rest:
                np.add(value, at(products[w], ro, co), out=value)
            np.greater_equal(value, f64[lo:hi], out=hit)
        if bit:
            np.left_shift(hit_words, bit, out=hit_words)
            np.bitwise_or(acc_words, hit_words, out=acc_words)


class _PlaneCodeMaps:
    """Per-voxel uint8 pattern codes of a (t, h, w) uint8 volume, all three
    slice sets, coded one chunk of `step` frames at a time.

    Iterating yields `(t0, (xy, xt, yt))` for each chunk: the map rows from
    t0 on that the chunk codes, as views into buffers that the next chunk
    overwrites, so no map is ever held whole.  Layouts: `xy` (t, h-2, w-2)
    has one row per frame; row i of `xt` (t-2, h, w-2) and `yt` (t-2, h-2, w)
    holds the time-by-x codes of every image row and the time-by-y codes of
    every image column, centered on frame i + 1.  Sliding windows only
    re-histogram rows of these maps: a window's interior voxels sample
    temporal neighbors that stay inside the window.

    Each chunk, with a 2-frame halo, is copied into flat contiguous buffers,
    and each plane's codes come from shifted views of them.  A plane's first
    interior voxel is its first coded position, so its interior is a
    (frames, h, w) reshape of the codes, cut to the interior's extent.  The
    last chunk may give XT and YT no rows.
    """

    def __init__(self, frames: np.ndarray):
        t, h, w = frames.shape
        if t < 3:
            raise DataError(f"{t} frames cannot support temporal planes")
        if h < 3 or w < 3:
            raise DataError(f"plane of {h}x{w} has no interior pixels")
        self.frames = frames
        self.step = max(1, _CHUNK_BYTES // (8 * h * w))

    def __iter__(self):
        frames, step = self.frames, self.step
        t, h, w = frames.shape
        frame = h * w
        size = (step + 2) * frame
        u8_chunk, f64_chunk = np.empty(size, np.uint8), np.empty(size)
        products = {weight: np.empty(size) for weight in _DIAGONAL_WEIGHTS}
        # one code buffer per plane, with room for whole 8-byte words
        xy_acc, xt_acc, yt_acc = (np.empty(size + 8, np.uint8) for _ in range(N_PLANES))
        scratch = (np.empty(size), np.empty(size + 8, bool))
        for t0 in range(0, t, step):
            t1 = min(t0 + step, t)
            n = min(t1 + 2, t) - t0
            u8, f64 = u8_chunk[: n * frame], f64_chunk[: n * frame]
            u8.reshape(n, h, w)[...] = frames[t0 : t0 + n]
            f64[...] = u8
            for weight, p in products.items():
                np.multiply(weight, f64, out=p[: n * frame])
            m = (t1 - t0) * frame
            _plane_codes(xy_acc, u8[:m], f64[:m], products, w, 1, scratch)
            rows = max(n - 2, 0)  # XT and YT rows centered inside the chunk
            if rows:
                _plane_codes(xt_acc, u8, f64, products, frame, 1, scratch)
                _plane_codes(yt_acc, u8, f64, products, frame, w, scratch)
            xy = xy_acc[:m].reshape(t1 - t0, h, w)[:, : h - 2, : w - 2]
            xt = xt_acc[: rows * frame].reshape(rows, h, w)[:, :, : w - 2]
            yt = yt_acc[: rows * frame].reshape(rows, h, w)[:, : h - 2, :]
            yield t0, (xy, xt, yt)


class _RowCounts:
    """Running per-row (block, bin) counts of one plane's code map, whose
    rows are added a chunk of at most `step` at a time: rows [lo, hi) count
    `prefix()[hi] - prefix()[lo]`.  `block` gives the grid block of every
    voxel of a row.  Raw codes are counted per (row, block), then summed
    into the 59 uniform bins.  `idx` is int64 scratch for `step` rows of
    voxels; the three planes share one, so that the counts add little to
    the cache footprint of the code chunk they interleave with (one per
    plane ran the pass 10-20% slower on a 2-core x86 host)."""

    def __init__(self, rows: int, block: np.ndarray, n_blocks: int, step: int, idx: np.ndarray):
        self.width = n_blocks * 256
        self.base = block * 256 + (np.arange(step) * self.width)[:, None, None]
        self.idx = idx
        self.counts = np.zeros((rows + 1, n_blocks, PLANE_BINS), np.int64)

    def add(self, r0: int, codes: np.ndarray) -> None:
        """Count `codes`, rows r0, r0+1, ... of the map."""
        n = len(codes)
        if not n:
            return
        idx = self.idx[: codes.size].reshape(codes.shape)
        np.add(codes, self.base[:n], out=idx)
        raw = np.bincount(idx.ravel(), minlength=n * self.width).reshape(n, -1, 256)
        out = self.counts[r0 + 1 : r0 + 1 + n]
        np.add.reduceat(raw[:, :, _CODES_BY_BIN], _BIN_STARTS, axis=2, out=out)

    def prefix(self) -> np.ndarray:
        out = self.counts.reshape(len(self.counts), -1)
        return np.cumsum(out, axis=0, out=out)


def lbp_top_many(
    seq: FrameSequence,
    windows,
    *,
    xy_frames: str = "all",
    grid=(1, 1),
) -> np.ndarray:
    """Texture histograms of many windows (frame slices) of one video,
    sharing one code pass: one row per window.  XY codes come from every
    frame of a window (`xy_frames="center"`: the middle one).  Each plane
    sums to 1 per `grid` block, blocks row-major as [XY | XT | YT] chunks of
    59 bins; a window's counts are a difference of two prefix-sum rows per
    plane."""
    if xy_frames not in XY_FRAMES:
        raise ValueError(f"xy_frames must be one of {XY_FRAMES}")
    maps = _PlaneCodeMaps(seq.frames)
    t, h, w = seq.frames.shape
    gy, gx = grid
    n_blocks = gy * gx
    ys = (np.arange(h) * gy // h)[:, None] * gx  # block of each pixel, row-major
    xs = np.arange(w) * gx // w
    blocks = (ys[1:-1] + xs[1:-1], ys + xs[1:-1], ys[1:-1] + xs)  # XY, XT, YT
    idx = np.empty(maps.step * h * w, np.int64)
    row_counts = [
        _RowCounts(rows, block, n_blocks, maps.step, idx)
        for rows, block in zip((t, t - 2, t - 2), blocks)
    ]
    for t0, planes in maps:  # each chunk's codes are counted, then dropped
        for plane, codes in zip(row_counts, planes):
            plane.add(t0, codes)
    prefix = [plane.prefix() for plane in row_counts]
    out = np.empty((len(windows), n_blocks * LBP_TOP_DIM))
    for i, window in enumerate(windows):
        if window.step is not None or not 0 <= window.start < window.stop <= t:
            raise ValueError(f"window {window} is not a range within {t} frames")
        s, k = window.start, window.stop - window.start
        if k < 3:
            raise DataError("window shorter than 3 frames")
        # the window's interior voxels occupy rows [s, s+k-2) of XT and YT
        xy = (s + k // 2, s + k // 2 + 1) if xy_frames == "center" else (s, s + k)
        spans = (xy, (s, s + k - 2), (s, s + k - 2))
        counts = np.stack([p[hi] - p[lo] for p, (lo, hi) in zip(prefix, spans)])
        counts = counts.reshape(N_PLANES, n_blocks, PLANE_BINS).transpose(1, 0, 2)
        totals = counts.sum(axis=2, dtype=np.float64)
        if (totals == 0).any():
            raise DataError("a plane block collected no pixels")
        out[i] = (counts / totals[:, :, None]).reshape(-1)
    return out


# ---------------------------------------------------------------------------
# pose / gaze features


def pose_gaze_feature(track: PoseGazeTrack, window: slice) -> np.ndarray:
    """9-dim motion descriptor of one window, a `slice(start, stop)` of frames.

    Population standard deviations over the window's frames of: head x, y,
    z position, the three head rotation channels, and the per-frame mean of
    the two eyes' gaze vector.  Length-1 windows yield all zeros.
    """
    if window.step is not None or not 0 <= window.start < window.stop <= len(track):
        raise ValueError(f"window {window} is not a range within {len(track)} frames")
    gaze = (track.gaze_left[window] + track.gaze_right[window]) / 2.0
    blocks = (track.head_position[window], track.head_rotation[window], gaze)
    return np.concatenate(blocks, axis=1).std(axis=0)


# ---------------------------------------------------------------------------
# on-disk inputs: PGM frame archives, manifests, pose/gaze CSV


# A binary PGM header: magic, width, height and maxval, each after any run of
# whitespace and of '#' comments that run to a line end.  A token runs to the
# next whitespace, so it may hold a '#' after its first byte.  The lookaheads
# leave one way to split a header, so a failed match backtracks in linear time.
_PGM_HEADER = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]\S*)(?!\S)" * 4)


def read_pgm(path) -> np.ndarray:
    """Binary (P5) PGM reader for 8-bit grayscale frames: a read-only view of
    the file's bytes."""
    data = read_bytes(path, "PGM frame")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ParseError(path, 1, "truncated PGM header")
    magic, *fields = header.groups()
    if magic != b"P5":
        raise ParseError(path, 1, f"not a binary PGM: magic {magic!r}")
    try:
        width, height, maxval = map(int, fields)
    except ValueError:
        raise ParseError(path, 1, "non-integer PGM header fields") from None
    if maxval > 255 or maxval < 1:
        raise ParseError(path, 1, f"unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise ParseError(path, 1, f"bad PGM size {width}x{height}")
    start = header.end() + 1  # single whitespace byte after maxval
    if len(data) - start < width * height:
        raise ParseError(path, 1, "truncated PGM raster")
    return np.frombuffer(data, np.uint8, width * height, start).reshape(height, width)


def write_pgm(path, image: np.ndarray) -> None:
    """Write `image`, a nonempty 2-D array of integers 0..255, as a binary PGM."""
    values = np.asarray(image)
    with np.errstate(invalid="ignore"):  # NaN or a value past uint8: refused below
        image = values.astype(np.uint8, copy=False)
    if image.ndim != 2 or not image.size:
        raise ValueError(f"image must be a nonempty 2-D array, not of shape {image.shape}")
    if image is not values and not np.array_equal(image, values):
        raise ValueError("image values must be integers 0..255")
    h, w = image.shape
    write_bytes(path, f"P5\n{w} {h}\n255\n".encode("ascii") + image.tobytes())


def load_manifest(directory, frames: bool) -> dict:
    """One video's manifest.json, checked: string ids, a positive `fps` and,
    for a frame archive (`frames`), positive integer `width`, `height` and
    `frame_count`."""
    path = Path(directory) / "manifest.json"
    manifest = read_json(path, "manifest")
    spec = {"video_id": str, "subject_id": str, "fps": JSON_NUMBER}
    if frames:
        spec.update(width=int, height=int, frame_count=int)
    check_fields(path, manifest, spec, "manifest")
    for key, kind in spec.items():
        if kind is not str and not 0 < manifest[key] <= sys.float_info.max:
            raise ParseError(
                path, 1, f"manifest {key!r} must be positive and finite: {manifest[key]!r}"
            )
    return manifest


_DIGIT_RUN = re.compile(r"([0-9]+)")


def _natural_key(name: str) -> tuple:
    """Sort key of a file name whose digit runs compare as numbers, so that
    2.pgm comes before 10.pgm."""
    parts = _DIGIT_RUN.split(name)
    parts[1::2] = map(int, parts[1::2])
    return tuple(parts)


def _frame_names(folder) -> list[str]:
    """The .pgm file names in `folder` in frame order: natural order, digit
    runs comparing as numbers.  Two names of one frame number (7.pgm and
    007.pgm) are a DataError; a missing folder holds no frames."""
    try:
        names = [n for n in os.listdir(folder) if n.endswith(".pgm")]
    except OSError:  # missing, or not a directory: no frames
        return []
    keyed = sorted((_natural_key(n), n) for n in names)
    for (key, first), (next_key, second) in zip(keyed, keyed[1:]):
        if key == next_key:
            raise DataError(f"{folder}: frames {first} and {second} have the same frame number")
    return [n for _, n in keyed]


def load_frame_archive(directory, step: int = 1, manifest=None) -> FrameSequence:
    """Read one video's manifest + numbered PGM frames, in frame order, and
    keep frames 0, step, 2*step, ...: the sequence's rate is the manifest's
    `fps` / `step`.  Every frame is read and checked, kept or not; only the
    kept ones are held.  `manifest` is the directory's manifest when the
    caller has read it (`load_manifest(directory, frames=True)`)."""
    directory = Path(directory)
    if manifest is None:
        manifest = load_manifest(directory, frames=True)
    folder = str(directory / "frames")
    paths = [os.path.join(folder, n) for n in _frame_names(folder)]
    if len(paths) != manifest["frame_count"]:
        message = f"manifest says {manifest['frame_count']} frames, found {len(paths)}"
        raise ParseError(directory / "manifest.json", 1, message)
    shape = (manifest["height"], manifest["width"])
    frames = None
    for i, path in enumerate(paths):
        frame = read_pgm(path)
        if frame.shape != shape:
            raise ParseError(path, 1, "frame size disagrees with manifest")
        if frames is None:  # sized once a frame has shown the manifest's size
            frames = np.empty((-(-len(paths) // step), *shape), np.uint8)
        if i % step == 0:
            frames[i // step] = frame
    return FrameSequence(
        frames=frames,
        fps=float(manifest["fps"]) / step,
        subject_id=manifest["subject_id"],
        video_id=manifest["video_id"],
    )


def save_frame_archive(seq: FrameSequence, directory) -> None:
    """Write `seq` as a manifest and numbered PGM frames.  A video id that
    load_manifest refuses is a DataError, and nothing is written."""
    fault = video_id_fault(seq.video_id)
    if fault:
        raise DataError(f"cannot save a frame archive with a {fault}")
    directory = Path(directory)
    (directory / "frames").mkdir(parents=True, exist_ok=True)
    frame_count, height, width = seq.frames.shape
    manifest = {
        "video_id": seq.video_id,
        "subject_id": seq.subject_id,
        "fps": seq.fps,
        "width": width,
        "height": height,
        "frame_count": frame_count,
    }
    write_json(directory / "manifest.json", manifest)
    digits = max(6, len(str(frame_count)))
    for i, frame in enumerate(seq.frames):
        write_pgm(directory / "frames" / f"{i:0{digits}d}.pgm", frame)


def load_pose_gaze_csv(path) -> PoseGazeTrack:
    """Parse a per-frame pose/gaze CSV (OpenFace column naming).

    Columns are found by header name; extra columns are ignored and blank
    rows skipped.  Every used cell must be a finite number.  NumPy's C
    reader parses the data rows from a stream over the file's bytes.  The
    row loop, which reads the file again, decides wherever that parse could
    read the file differently, refuses it, finds no rows or finds a
    non-finite value, so a fault is reported at its line.
    """
    arr = _c_parse(path, read_bytes(path, "pose/gaze file"))
    if arr is None or not len(arr) or not np.isfinite(arr).all():
        arr = _row_loop(path)
    return PoseGazeTrack(
        head_position=arr[:, 0:3],
        head_rotation=arr[:, 3:6],
        gaze_left=arr[:, 6:9],
        gaze_right=arr[:, 9:12],
    )


_LINE_BREAK = re.compile(rb"[\r\n]")
_NOT_LINE_BREAK = re.compile(rb"[^\r\n]")
# a csv quote, and the separators that loadtxt strips around a number but float() does not
_NOT_C_PARSED = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _c_parse(path, data: bytes):
    """The (n, 12) values that np.loadtxt parses from the data rows of
    pose/gaze file `path`, whose bytes are `data`, or None where that parse
    could disagree with the row loop or refuses.  It is taken only for a
    file with no byte of _NOT_C_PARSED, no line past the csv field limit, a
    header naming every column, a non-empty line after it (loadtxt warns on
    none), and strict UTF-8 throughout (a bad byte stops the stream's
    decoder).  Nothing the size of the file is made besides the result."""
    if any(c in data for c in _NOT_C_PARSED) or not _lines_within(data, csv.field_size_limit()):
        return None
    end = _LINE_BREAK.search(data)
    if end is None or _NOT_LINE_BREAK.search(data, end.start()) is None:
        return None
    try:
        cols = _pose_columns(path, next(csv.reader([data[: end.start()].decode("utf-8")])))
    except (UnicodeDecodeError, ParseError):
        return None
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None) as stream:
        try:
            stream.readline()  # the header
            return np.loadtxt(
                stream, delimiter=",", usecols=cols, comments=None, quotechar=None, ndmin=2
            )
        except ValueError:  # a UnicodeDecodeError too
            return None


def _lines_within(data: bytes, limit: int) -> bool:
    """Whether every line of `data`, its end aside, is shorter than `limit`
    bytes; true when each whole block of `limit // 2` bytes holds a line
    break, so a line near the limit may read as too long.  Each block is
    searched from its start, so a file of short lines is not read whole."""
    size = limit // 2
    if size < 1:
        return False
    for lo in range(0, len(data) - size + 1, size):
        if data.find(b"\n", lo, lo + size) < 0 and data.find(b"\r", lo, lo + size) < 0:
            return False
    return True


def _pose_columns(path, cells) -> list[int]:
    """The index of each used column in header `cells`; a missing one is a
    ParseError at line 1."""
    header = [h.strip() for h in cells]
    missing = [c for c in POSE_GAZE_COLUMNS if c not in header]
    if missing:
        raise ParseError(path, 1, f"missing columns: {', '.join(missing)}")
    return [header.index(c) for c in POSE_GAZE_COLUMNS[1:]]


def _row_loop(path) -> np.ndarray:
    """The file read one csv record at a time: the values of each record, or
    a ParseError at the first record with a missing, malformed or non-finite
    cell."""
    header, records = read_csv(path, "pose/gaze file")
    if header is None:
        raise ParseError(path, 1, "empty pose/gaze file")
    cols = _pose_columns(path, header)
    rows = []
    for line, cells in records:
        try:
            values = [float(cells[i]) for i in cols]
        except (ValueError, IndexError):
            raise ParseError(path, line, "malformed row") from None
        if not all(map(math.isfinite, values)):
            raise ParseError(path, line, "non-finite value")
        rows.append(values)
    if not rows:
        raise ParseError(path, 2, "no data rows")
    return np.asarray(rows, dtype=np.float64)


def save_pose_gaze_csv(track: PoseGazeTrack, path) -> None:
    if not len(track):  # a file of no rows, which load_pose_gaze_csv refuses
        raise ValueError("a pose/gaze file needs at least one row")
    values = np.hstack(
        [track.head_position, track.head_rotation, track.gaze_left, track.gaze_right]
    ).tolist()
    # csv writes a float as str(), which is its shortest round-trip repr
    write_csv(path, POSE_GAZE_COLUMNS, ([i, *row] for i, row in enumerate(values)))
