import contextlib
import csv
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engage_mil import cli, features
from engage_mil.errors import DataError, ParseError
from engage_mil.features import (
    LBP_TOP_DIM,
    PLANE_BINS,
    UNIFORM_LUT,
    FrameSequence,
    PoseGazeTrack,
    lbp_top_many,
    load_frame_archive,
    load_pose_gaze_csv,
    pose_gaze_feature,
    read_pgm,
    sample_step,
    save_frame_archive,
    save_pose_gaze_csv,
    segment,
    write_pgm,
)
from oracles import (
    RefusedAt,
    lbp_code,
    naive_bin,
    naive_lbp_top,
    reference_pgm_header,
    reference_plane_codes,
    reference_pose_gaze_csv,
    reference_read_pgm,
    reference_save_pose_gaze_csv,
)


def _random_seq(rng, t, h, w, fps=6.0, vid="v0", subj="s0"):
    frames = rng.integers(0, 256, size=(t, h, w), dtype=np.uint8)
    return FrameSequence(frames=frames, fps=fps, subject_id=subj, video_id=vid)


def _alone(seq, window, **options):
    """The histogram of `window` computed on its own frames only."""
    part = FrameSequence(seq.frames[window], seq.fps, "s0", "v0")
    return lbp_top_many(part, [slice(0, window.stop - window.start)], **options)[0]


# --- pattern codes ----------------------------------------------------------


def test_lbp_code_all_ties_sets_every_bit():
    assert lbp_code(10.0, [10.0] * 8) == 255


def test_lbp_code_all_below_center():
    assert lbp_code(10.0, [9.9] * 8) == 0


def test_lbp_code_bit_positions():
    for bit in range(8):
        neighbors = [0.0] * 8
        neighbors[bit] = 5.0
        assert lbp_code(1.0, neighbors) == 1 << bit


def test_lbp_code_requires_eight_neighbors():
    with pytest.raises(ValueError):
        lbp_code(0.0, [1.0] * 7)


def test_uniform_lut_agrees_with_reference_binning():
    for code in range(256):
        assert UNIFORM_LUT[code] == naive_bin(code)


def test_uniform_lut_bin_count():
    # 58 uniform patterns plus one shared bin for the rest
    assert len(set(UNIFORM_LUT.tolist())) == PLANE_BINS
    assert (UNIFORM_LUT == PLANE_BINS - 1).sum() == 256 - 58


# --- histograms vs the triple-loop reference --------------------------------


def test_lbp_top_matches_naive_exactly():
    rng = np.random.default_rng(7)
    seq = _random_seq(rng, 6, 9, 8)
    got = lbp_top_many(seq, [slice(0, 6)])[0]
    want = naive_lbp_top(seq.frames)
    assert got.shape == (LBP_TOP_DIM,)
    np.testing.assert_array_equal(got, want)


def test_lbp_top_interior_window_matches_naive():
    rng = np.random.default_rng(8)
    seq = _random_seq(rng, 12, 7, 7)
    got = lbp_top_many(seq, [slice(4, 9)])[0]
    want = naive_lbp_top(seq.frames[4:9])
    np.testing.assert_array_equal(got, want)


def test_lbp_top_center_frame_mode_matches_naive():
    rng = np.random.default_rng(9)
    seq = _random_seq(rng, 7, 8, 9)
    got = lbp_top_many(seq, [slice(0, 7)], xy_frames="center")[0]
    want = naive_lbp_top(seq.frames, xy_frames="center")
    np.testing.assert_array_equal(got, want)


def test_lbp_top_spatial_grid_matches_naive():
    rng = np.random.default_rng(10)
    seq = _random_seq(rng, 5, 12, 10)
    got = lbp_top_many(seq, [slice(0, 5)], grid=(2, 2))[0]
    want = naive_lbp_top(seq.frames, grid=(2, 2))
    assert got.shape == (4 * LBP_TOP_DIM,)
    np.testing.assert_array_equal(got, want)


def test_lbp_top_each_plane_sums_to_one():
    rng = np.random.default_rng(11)
    seq = _random_seq(rng, 8, 10, 10)
    hist = lbp_top_many(seq, [slice(0, 8)], grid=(1, 2))[0]
    sums = hist.reshape(-1, 3, PLANE_BINS).sum(axis=2)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12, rtol=0)


def test_lbp_top_constant_volume_is_all_ties():
    seq = FrameSequence(
        frames=np.full((5, 6, 6), 97, dtype=np.uint8),
        fps=6.0,
        subject_id="s",
        video_id="v",
    )
    hist = lbp_top_many(seq, [slice(0, 5)])[0]
    # every comparison ties, so every pixel lands in the bin of code 255
    bins = hist.reshape(-1, 3, PLANE_BINS)[0]
    code255_bin = UNIFORM_LUT[255]
    for plane in range(3):
        assert bins[plane, code255_bin] == 1.0


def test_lbp_top_many_is_bit_identical_to_standalone():
    rng = np.random.default_rng(12)
    seq = _random_seq(rng, 40, 9, 9)
    windows = segment(len(seq), length=10, stride=6)
    batch = lbp_top_many(seq, windows)
    assert len(batch) == len(windows)
    for window, hist in zip(windows, batch):
        np.testing.assert_array_equal(hist, _alone(seq, window))


def test_lbp_top_many_center_mode_matches_standalone():
    rng = np.random.default_rng(13)
    seq = _random_seq(rng, 25, 8, 8)
    windows = segment(len(seq), length=7, stride=4)
    batch = lbp_top_many(seq, windows, xy_frames="center")
    for window, hist in zip(windows, batch):
        np.testing.assert_array_equal(hist, _alone(seq, window, xy_frames="center"))


def test_lbp_top_rejects_short_windows_and_thin_frames():
    rng = np.random.default_rng(14)
    with pytest.raises(DataError, match="2 frames cannot support temporal planes"):
        lbp_top_many(_random_seq(rng, 2, 8, 8), [slice(0, 2)])
    with pytest.raises(DataError, match="plane of 2x8 has no interior pixels"):
        lbp_top_many(_random_seq(rng, 8, 2, 8), [slice(0, 8)])
    with pytest.raises(DataError, match="plane of 8x2 has no interior pixels"):
        lbp_top_many(_random_seq(rng, 8, 8, 2), [slice(0, 8)])


def test_lbp_top_rejects_window_past_end():
    rng = np.random.default_rng(15)
    seq = _random_seq(rng, 10, 6, 6)
    with pytest.raises(ValueError):
        lbp_top_many(seq, [slice(5, 11)])


def test_lbp_top_empty_grid_block_is_an_error():
    rng = np.random.default_rng(16)
    seq = _random_seq(rng, 5, 4, 8)  # 4 rows cannot feed 4 interior row-bands
    with pytest.raises(DataError, match="a plane block collected no pixels"):
        lbp_top_many(seq, [slice(0, 5)], grid=(4, 1))


@given(st.integers(0, 2**32 - 1))
def test_lbp_top_histograms_are_distributions(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(3, 7))
    h = int(rng.integers(3, 9))
    w = int(rng.integers(3, 9))
    seq = _random_seq(rng, t, h, w)
    hist = lbp_top_many(seq, [slice(0, t)])[0]
    assert (hist >= 0).all() and (hist <= 1).all()
    sums = hist.reshape(-1, 3, PLANE_BINS).sum(axis=2)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12, rtol=0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chunked_code_maps_and_histograms_match_the_references(data):
    """With chunks of 1-3 frames, the uint8 code rows that the chunks yield,
    laid end to end from each chunk's first row, equal the whole-volume
    float64 reference maps, and every window's histogram equals the triple
    loop, from one `lbp_top_many` call and from each window computed alone."""
    grid = data.draw(st.sampled_from([(1, 1), (2, 3)]), label="grid")
    t = data.draw(st.integers(3, 8), label="t")
    h = data.draw(st.integers(3 if grid == (1, 1) else 4, 8), label="h")
    w = data.draw(st.integers(3 if grid == (1, 1) else 6, 9), label="w")
    top = data.draw(st.sampled_from([0, 1, 255]), label="top")  # 0: constant, all ties
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    frames = rng.integers(0, top + 1, size=(t, h, w), dtype=np.uint8)
    if top == 0:
        frames[...] = rng.integers(0, 256)
    seq = FrameSequence(frames, 6.0, "s0", "v0")
    length = data.draw(st.integers(3, t), label="length")
    windows = segment(t, length, data.draw(st.integers(1, 3), label="stride"))
    windows.append(slice(t - length, t))  # ends on the last frame
    mode = data.draw(st.sampled_from(["all", "center"]), label="xy_frames")
    chunk = data.draw(st.integers(1, 3), label="chunk frames")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "_CHUNK_BYTES", chunk * 8 * h * w)
        chunks = [(t0, [c.copy() for c in planes]) for t0, planes in features._PlaneCodeMaps(frames)]
        many = lbp_top_many(seq, windows, xy_frames=mode, grid=grid)
        single = [_alone(seq, win, xy_frames=mode, grid=grid) for win in windows]
    for k, want in enumerate(reference_plane_codes(frames)):
        got = np.zeros((0, *want.shape[1:]), np.uint8)
        for t0, planes in chunks:
            assert planes[k].dtype == np.uint8
            assert t0 == len(got) or len(planes[k]) == 0
            got = np.concatenate([got, planes[k]])
        np.testing.assert_array_equal(got, want)
    for window, a, b in zip(windows, many, single):
        want = naive_lbp_top(frames[window], xy_frames=mode, grid=grid)
        assert a.tobytes() == want.tobytes() == b.tobytes()


# --- subsampling and windowing ----------------------------------------------


def test_sample_step_thirty_to_six():
    assert sample_step(30.0, 6.0) == 5


def test_sample_step_rounds_halves_away_from_zero():
    assert sample_step(30.0, 12.0) == 3  # 2.5 rounds up, not to even
    assert sample_step(15.0, 6.0) == 3
    assert sample_step(25.0, 6.0) == 4


def test_sample_step_identity_and_errors():
    assert sample_step(6.0, 6.0) == 1
    with pytest.raises(ValueError):
        sample_step(6.0, 30.0)
    with pytest.raises(ValueError):
        sample_step(0.0, 6.0)


def test_segment_window_count_and_starts():
    windows = segment(100, length=20, stride=10)
    assert len(windows) == 9  # floor((100 - 20) / 10) + 1
    assert [w.start for w in windows] == [0, 10, 20, 30, 40, 50, 60, 70, 80]
    assert all(w.stop - w.start == 20 for w in windows)


def test_segment_exact_fit_yields_single_window():
    windows = segment(20, length=20, stride=10)
    assert len(windows) == 1 and windows[0].start == 0


def test_segment_too_short_video():
    with pytest.raises(DataError, match="19 frames cannot fit one window of length 20"):
        segment(19, length=20, stride=10)


def test_segment_rejects_bad_parameters():
    with pytest.raises(ValueError):
        segment(30, length=1, stride=10)
    with pytest.raises(ValueError):
        segment(30, length=20, stride=0)


@given(
    st.integers(2, 300),
    st.integers(2, 40),
    st.integers(1, 40),
)
def test_segment_count_formula_and_coverage(n, length, stride):
    if n < length:
        with pytest.raises(DataError, match="frames cannot fit one window"):
            segment(n, length=length, stride=stride)
        return
    windows = segment(n, length=length, stride=stride)
    assert len(windows) == (n - length) // stride + 1
    assert windows[0].start == 0
    assert windows[-1].stop <= n
    assert windows[-1].start + stride > n - length  # no window was dropped
    starts = [w.start for w in windows]
    assert starts == sorted(set(starts))


def test_segment_window_validation():
    """Both window readers refuse a window with a negative start, no frames
    or a step."""
    seq = _random_seq(np.random.default_rng(19), 8, 6, 6)
    track = _track(*(np.zeros((8, 3)) for _ in range(4)))
    for window in (slice(-1, 4), slice(0, 0), slice(3, 3), slice(5, 2), slice(0, 6, 2)):
        with pytest.raises(ValueError, match="is not a range within 8 frames"):
            lbp_top_many(seq, [window])
        with pytest.raises(ValueError, match="is not a range within 8 frames"):
            pose_gaze_feature(track, window)
    assert not pose_gaze_feature(track, slice(0, 1)).any()  # length-1 windows are read


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_prefix_counts_match_the_lookup_table_gather(data):
    """Counting raw codes and summing them into bins gives, bit for bit, the
    running counts of codes gathered through UNIFORM_LUT."""
    gy, gx = grid = data.draw(st.sampled_from([(1, 1), (2, 3)]), label="grid")
    rows = data.draw(st.integers(1, 12), label="rows")
    h, w = data.draw(st.integers(gy, 7), label="h"), data.draw(st.integers(gx, 9), label="w")
    step = data.draw(st.integers(1, 5), label="step")
    top = data.draw(st.sampled_from([0, 3, 255]), label="top")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    codes = rng.integers(0, top + 1, size=(rows, h, w), dtype=np.uint8)
    n_blocks = gy * gx
    block = (np.arange(h) * gy // h)[:, None] * gx + np.arange(w) * gx // w
    idx = UNIFORM_LUT[codes] + block * PLANE_BINS
    want = np.zeros((rows + 1, n_blocks * PLANE_BINS), np.int64)
    for r in range(rows):
        want[r + 1] = want[r] + np.bincount(idx[r].ravel(), minlength=n_blocks * PLANE_BINS)
    counts = features._RowCounts(rows, block, n_blocks, step, np.empty(step * h * w, np.int64))
    for r0 in range(0, rows, step):
        counts.add(r0, codes[r0 : r0 + step])
    got = counts.prefix()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), grid


# --- pose / gaze descriptor -------------------------------------------------


def _track(position, rotation, gaze_left, gaze_right):
    return PoseGazeTrack(
        head_position=np.asarray(position, dtype=np.float64),
        head_rotation=np.asarray(rotation, dtype=np.float64),
        gaze_left=np.asarray(gaze_left, dtype=np.float64),
        gaze_right=np.asarray(gaze_right, dtype=np.float64),
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pose_gaze_feature_matches_the_three_block_form(data):
    """One std over the (k, 9) blocks equals, bit for bit, a std per block,
    on tracks laid out as the CSV reader and subsampling leave them."""
    n = data.draw(st.integers(1, 40), label="n")
    step = data.draw(st.integers(1, 3), label="step")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.normal(0, 1, (n * step, 12)) * rng.choice([1e-3, 0.2, 10, 1e4], 12)
    track = _track(values[:, 0:3], values[:, 3:6], values[:, 6:9], values[:, 9:12]).every(step)
    start = data.draw(st.integers(0, n - 1), label="start")
    length = data.draw(st.sampled_from([1, 2]) | st.integers(1, n - start), label="length")
    window = slice(start, min(start + length, n))
    gaze = (track.gaze_left[window] + track.gaze_right[window]) / 2.0
    want = np.concatenate(
        [
            track.head_position[window].std(axis=0),
            track.head_rotation[window].std(axis=0),
            gaze.std(axis=0),
        ]
    )
    assert pose_gaze_feature(track, window).tobytes() == want.tobytes()


def test_pose_gaze_feature_constant_track_is_zero():
    n = 10
    track = _track(
        np.ones((n, 3)), np.full((n, 3), 0.5), np.tile([0.0, 0.0, -1.0], (n, 1)),
        np.tile([0.0, 0.0, -1.0], (n, 1)),
    )
    feat = pose_gaze_feature(track, slice(0, n))
    np.testing.assert_array_equal(feat, np.zeros(9))


def test_pose_gaze_feature_known_deviations():
    # x-position alternates 0/2: population std 1; everything else constant
    n = 6
    position = np.zeros((n, 3))
    position[:, 0] = [0, 2, 0, 2, 0, 2]
    track = _track(position, np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3)))
    feat = pose_gaze_feature(track, slice(0, n))
    np.testing.assert_allclose(feat[0], 1.0)
    np.testing.assert_array_equal(feat[1:], np.zeros(8))


def test_pose_gaze_feature_uses_mean_of_both_eyes():
    # eyes disagree but their mean is constant, so gaze stds vanish
    n = 4
    left = np.tile([1.0, 0.0, 0.0], (n, 1)) * np.arange(n)[:, None]
    right = -left + np.array([0.4, 0.0, 0.0])
    track = _track(np.zeros((n, 3)), np.zeros((n, 3)), left, right)
    feat = pose_gaze_feature(track, slice(0, n))
    np.testing.assert_allclose(feat[6:], np.zeros(3), atol=1e-15)


def test_pose_gaze_feature_windowed_slice():
    n = 8
    position = np.zeros((n, 3))
    position[4:, 1] = 10.0  # the jump sits outside the first window
    track = _track(position, np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3)))
    first = pose_gaze_feature(track, slice(0, 4))
    np.testing.assert_array_equal(first, np.zeros(9))
    spanning = pose_gaze_feature(track, slice(2, 6))
    assert spanning[1] == 5.0  # two 0s and two 10s


def test_pose_gaze_feature_population_not_sample_std():
    n = 2
    position = np.zeros((n, 3))
    position[:, 2] = [0.0, 2.0]
    track = _track(position, np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3)))
    feat = pose_gaze_feature(track, slice(0, 2))
    assert feat[2] == 1.0  # sample std would be sqrt(2)


def test_pose_gaze_feature_single_frame_window_is_zero():
    track = _track(
        [[1.0, 2.0, 3.0]], [[0.1, 0.2, 0.3]], [[0.0, 0.0, 1.0]], [[0.0, 1.0, 0.0]]
    )
    feat = pose_gaze_feature(track, slice(0, 1))
    np.testing.assert_array_equal(feat, np.zeros(9))


def test_pose_gaze_feature_window_past_end():
    track = _track(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pose_gaze_feature(track, slice(1, 4))


def test_track_every_matches_frame_subsampling():
    rng = np.random.default_rng(18)
    blocks = [rng.normal(size=(31, 3)) for _ in range(4)]
    track = _track(*blocks)
    thinned = track.every(5)
    assert len(thinned) == 7
    np.testing.assert_array_equal(thinned.head_rotation, blocks[1][::5])


# --- file round-trips -------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    image = rng.integers(0, 256, size=(11, 7), dtype=np.uint8)
    path = tmp_path / "f.pgm"
    write_pgm(path, image)
    np.testing.assert_array_equal(read_pgm(path), image)


def test_pgm_reader_handles_comments_and_whitespace(tmp_path):
    image = np.arange(6, dtype=np.uint8).reshape(2, 3)
    raw = b"P5 # binary graymap\n# another note\n 3\t2\n255\n" + image.tobytes()
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    np.testing.assert_array_equal(read_pgm(path), image)


def test_pgm_reader_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ParseError):
        read_pgm(path)


def test_pgm_reader_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(ParseError):
        read_pgm(path)


def test_pgm_reader_rejects_wide_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ParseError):
        read_pgm(path)


@pytest.mark.parametrize("size", [b"-5 -5", b"0 4", b"4 0", b"-1 -25"])
def test_pgm_reader_rejects_non_positive_size(tmp_path, size):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(25))
    with pytest.raises(ParseError, match="bad PGM size"):
        read_pgm(path)


# gaps between header tokens, and tokens, valid and not: CR line ends, tabs
# and vertical tabs, comments that run to CR or LF, '#' inside a token
_PGM_GAPS = [
    *(b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c"),
    *(b"# note\n", b"#\r", b"#a#b\r\n", b"##\n"),
]
_PGM_MAGICS = [b"P5", b"P5", b"P5", b"P2", b"P5#", b"5"]
_PGM_FIELDS = [b"1", b"2", b"3", b"3", b"255", b"0", b"-1", b"+2", b"2#", b"1_0", b"256", b"x"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pgm_reader_agrees_with_the_byte_loop(tmp_path_factory, data):
    """read_pgm reads the header tokens the byte loop reads, and returns the
    same raster or the same ParseError line and message, for the header and
    raster cut at every byte."""
    gaps = st.lists(st.sampled_from(_PGM_GAPS), min_size=1, max_size=3).map(b"".join)
    lead = data.draw(st.lists(st.sampled_from(_PGM_GAPS), max_size=2).map(b"".join), label="lead")
    tokens = [data.draw(st.sampled_from(_PGM_MAGICS), label="magic")]
    tokens += [data.draw(st.sampled_from(_PGM_FIELDS), label="field") for _ in range(3)]
    raw = lead + b"".join(t + data.draw(gaps, label="gap") for t in tokens[:3]) + tokens[3]
    raw += data.draw(st.sampled_from([b"\n", b" ", b"\r", b"\t"]), label="separator")
    raw += data.draw(st.binary(max_size=12), label="raster")
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    for cut in range(len(raw) + 1):
        head = raw[:cut]
        path.write_bytes(head)
        try:
            want_tokens, start = reference_pgm_header(head)
        except RefusedAt:
            assert features._PGM_HEADER.match(head) is None
        else:
            match = features._PGM_HEADER.match(head)
            assert (list(match.groups()), match.end() + 1) == (want_tokens, start)
        try:
            want = reference_read_pgm(head)
        except RefusedAt as refusal:
            with pytest.raises(ParseError) as caught:
                read_pgm(path)
            assert (caught.value.line, caught.value.message) == (refusal.line, refusal.message)
        else:
            got = read_pgm(path)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_frame_archive_reads_frames_in_frame_order(tmp_path):
    """Frame names without zero padding are read in number order (0, 1, ...,
    9, 10, 11), not string order (0, 1, 10, 11, 2, ...)."""
    seq = _random_seq(np.random.default_rng(23), 12, 4, 5)
    video = tmp_path / "v"
    save_frame_archive(seq, video)
    for i in range(12):
        (video / "frames" / f"{i:06d}.pgm").rename(video / "frames" / f"{i}.pgm")
    np.testing.assert_array_equal(load_frame_archive(video).frames, seq.frames)


def test_frame_archive_refuses_two_names_of_one_frame_number(tmp_path):
    seq = _random_seq(np.random.default_rng(24), 9, 4, 5)
    video = tmp_path / "v"
    save_frame_archive(seq, video)
    (video / "frames" / "000007.pgm").rename(video / "frames" / "7.pgm")
    (video / "frames" / "000008.pgm").rename(video / "frames" / "007.pgm")
    with pytest.raises(DataError) as caught:
        load_frame_archive(video)
    folder = str(video / "frames")
    assert str(caught.value) == f"{folder}: frames 007.pgm and 7.pgm have the same frame number"


def test_frame_archive_round_trip(tmp_path):
    """A frame file a killed write left behind (`.pgm.tmp`) is not a frame."""
    rng = np.random.default_rng(20)
    seq = _random_seq(rng, 9, 5, 6, fps=30.0, vid="vid7", subj="subj3")
    save_frame_archive(seq, tmp_path / "vid7")
    (tmp_path / "vid7" / "frames" / "000009.pgm.tmp").write_bytes(b"P5\n5 6\n")
    loaded = load_frame_archive(tmp_path / "vid7")
    np.testing.assert_array_equal(loaded.frames, seq.frames)
    assert loaded.fps == 30.0
    assert loaded.video_id == "vid7" and loaded.subject_id == "subj3"


def test_frame_archive_keeps_every_step_th_frame_and_checks_every_frame(tmp_path):
    """At step 5, frames 0, 5, ..., 30 of 31 are kept at a fifth of the rate;
    a frame that is not kept is still read and checked."""
    rng = np.random.default_rng(17)
    seq = _random_seq(rng, 31, 4, 4, fps=30.0)
    save_frame_archive(seq, tmp_path / "v")
    out = load_frame_archive(tmp_path / "v", 5)
    assert len(out) == 7
    assert out.fps == 6.0
    np.testing.assert_array_equal(out.frames, seq.frames[::5])
    assert (out.subject_id, out.video_id) == (seq.subject_id, seq.video_id)
    write_pgm(tmp_path / "v" / "frames" / "000003.pgm", np.zeros((4, 5), np.uint8))
    with pytest.raises(ParseError, match="frame size disagrees"):
        load_frame_archive(tmp_path / "v", 5)


def test_frame_archive_detects_frame_count_mismatch(tmp_path):
    rng = np.random.default_rng(21)
    seq = _random_seq(rng, 4, 5, 5)
    save_frame_archive(seq, tmp_path / "v")
    (tmp_path / "v" / "frames" / "000003.pgm").unlink()
    with pytest.raises(ParseError):
        load_frame_archive(tmp_path / "v")


def test_frame_archive_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ParseError):
        load_frame_archive(tmp_path / "empty")


def test_pose_gaze_csv_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    track = _track(*[rng.normal(size=(13, 3)) for _ in range(4)])
    path = tmp_path / "t.csv"
    save_pose_gaze_csv(track, path)
    loaded = load_pose_gaze_csv(path)
    np.testing.assert_array_equal(loaded.head_position, track.head_position)
    np.testing.assert_array_equal(loaded.gaze_right, track.gaze_right)


def test_pose_gaze_csv_tolerates_extra_columns(tmp_path):
    path = tmp_path / "x.csv"
    header = "frame,confidence,pose_Tx,pose_Ty,pose_Tz,pose_Rx,pose_Ry,pose_Rz,gaze_0_x,gaze_0_y,gaze_0_z,gaze_1_x,gaze_1_y,gaze_1_z"
    path.write_text(header + "\n1,0.9,1,2,3,4,5,6,7,8,9,10,11,12\n")
    track = load_pose_gaze_csv(path)
    assert len(track) == 1
    np.testing.assert_array_equal(track.head_position[0], [1, 2, 3])
    np.testing.assert_array_equal(track.gaze_left[0], [7, 8, 9])


def test_pose_gaze_csv_missing_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("frame,pose_Tx\n1,2\n")
    with pytest.raises(ParseError) as exc_info:
        load_pose_gaze_csv(path)
    assert "pose_Ty" in str(exc_info.value)


def test_pose_gaze_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "b.csv"
    header = ",".join(
        ["frame", "pose_Tx", "pose_Ty", "pose_Tz", "pose_Rx", "pose_Ry", "pose_Rz",
         "gaze_0_x", "gaze_0_y", "gaze_0_z", "gaze_1_x", "gaze_1_y", "gaze_1_z"]
    )
    path.write_text(header + "\n1,0,0,0,0,0,0,0,0,0,0,0,0\n2,0,0,oops,0,0,0,0,0,0,0,0,0\n")
    with pytest.raises(ParseError) as exc_info:
        load_pose_gaze_csv(path)
    assert exc_info.value.line == 3


def test_pose_gaze_csv_empty_file(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_pose_gaze_csv(path)


_POSE_HEADER = ",".join(features.POSE_GAZE_COLUMNS)


def _values(track):
    return np.hstack([track.head_position, track.head_rotation, track.gaze_left, track.gaze_right])


def _assert_reads_as_the_row_loop(path):
    """The reader returns the row loop's float64 bytes, or refuses at its
    line for its reason; no warning escapes either."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            expected = reference_pose_gaze_csv(path)
        except RefusedAt as refusal:
            with pytest.raises(ParseError) as exc_info:
                load_pose_gaze_csv(path)
            assert (exc_info.value.line, refusal.message in str(exc_info.value)) == (refusal.line, True)
            return
        values = _values(load_pose_gaze_csv(path))
    assert (values.dtype, values.shape) == (expected.dtype, expected.shape)
    assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e500", "-NaN"])
def test_pose_gaze_csv_non_finite_cell_reports_line(tmp_path, cell):
    path = tmp_path / "n.csv"
    row = ",".join(["0"] * 13)
    path.write_text(f"{_POSE_HEADER}\n{row}\n\n{row[:-1]}{cell}\n{row}\n")
    with pytest.raises(ParseError, match="non-finite") as exc_info:
        load_pose_gaze_csv(path)
    assert exc_info.value.line == 4


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80"])
def test_pose_gaze_csv_not_utf8_reports_line(tmp_path, bad):
    """The line named is the one the bad byte sits in, also in an unused
    column, unless an earlier row is refused first."""
    path = tmp_path / "u.csv"
    row = ",".join(["0"] * 13).encode()
    head = _POSE_HEADER.encode() + b",note\n" + row + b",a\n"
    path.write_bytes(head + row + b",x" + bad + b"y\n" + row + b"\n")
    with pytest.raises(ParseError, match="not UTF-8") as exc_info:
        load_pose_gaze_csv(path)
    assert exc_info.value.line == 3
    path.write_bytes(head + b"1,oops\n" + row + b"," + bad + b"\n")
    with pytest.raises(ParseError, match="malformed row") as exc_info:
        load_pose_gaze_csv(path)
    assert exc_info.value.line == 3


def test_pose_gaze_csv_cell_past_the_csv_field_limit_reports_line(tmp_path):
    path = tmp_path / "long.csv"
    row = ",".join(["0"] * 13)
    path.write_text(f"{_POSE_HEADER}\n{row}\n{row},{'7' * 200_000}\n")
    with pytest.raises(ParseError, match="malformed row") as exc_info:
        load_pose_gaze_csv(path)
    assert exc_info.value.line == 3


@pytest.mark.parametrize(
    "body",
    [
        "0,1,2,3,4,5,6,7,8,9,10,11,12\n\n1,-0,2.5e-3,3,4,5,6,7,8,9,10,11,12\n",
        "0,1,2,3,4,5,6,7,8,9,10,11,12\r\n\r\n1,1,2,3,4,5,6,7,8,9,10,11,12\r\n",
        "0,1,2,3,4,5,6,7,8,9,10,11,12\r1,1,2,3,4,5,6,7,8,9,10,11,12",
        "0, 1 ,2\t,3,4,5,6,7,8,9,10,11,12,,\n   \n,,\n1,1,2,3,4,5,6,7,8,9,10,11,12\n",
        '0,"1",2,3,4,5,6,7,8,9,10,11,12\n1,1,2,3,4,5,6,7,8,9,10,11,"1""2"\n',
        '"0\n9",1,2,3,4,5,6,7,8,9,10,11,12\n',
        "0,\u0661,2,3,4,5,6,7,8,9,10,11,1_2\n",
        "0,1,2,3,4,5,6,7,8,9,10,11,12\x0c\n1,1\x85,2,3,4,5,6,7,8,9,10,11,12\u2028\n",
        "0,1,2,3,4,5,6,7,8,9,10,11,12\n0,1,2\n",
        "\n \n",
        "",
    ],
    ids=[
        "blank-row",
        "crlf",
        "bare-cr",
        "padding-and-empty-columns",
        "quoted-cells",
        "quoted-newline-in-frame",
        "unicode-digit-and-underscore",
        "breaks-csv-does-not-split-at",
        "short-row",
        "whitespace-only",
        "header-only",
    ],
)
def test_pose_gaze_csv_agrees_with_the_row_loop(tmp_path, body):
    path = tmp_path / "e.csv"
    path.write_bytes(f"{_POSE_HEADER}\n{body}".encode())
    _assert_reads_as_the_row_loop(path)


def test_pose_gaze_csv_quote_in_an_unused_column_is_read_as_csv(tmp_path):
    """A quote in a column the reader skips still joins lines into one
    record, as csv reads it."""
    path = tmp_path / "q.csv"
    row = ",".join(["0"] * 13)
    path.write_text(f"{_POSE_HEADER},note\n{row},\"a\n{row},b\"\n")
    assert len(load_pose_gaze_csv(path)) == 1


def test_save_pose_gaze_csv_matches_the_per_scalar_writer(tmp_path):
    rng = np.random.default_rng(23)
    blocks = [rng.normal(scale=10.0 ** rng.integers(-8, 8), size=(40, 3)) for _ in range(4)]
    blocks[0][:4, 0] = [0.0, -0.0, 1e-310, 1.7976931348623157e308]
    track = _track(*blocks)
    save_pose_gaze_csv(track, tmp_path / "new.csv")
    reference_save_pose_gaze_csv(track, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


_POSE_BASES = (
    b"frame,pose_Tx,pose_Ty,pose_Tz,pose_Rx,pose_Ry,pose_Rz,gaze_0_x,gaze_0_y,gaze_0_z,"
    b"gaze_1_x,gaze_1_y,gaze_1_z\n"
    + b"".join(
        b"%d,%s\n" % (i, b",".join(b"%r" % v for v in row))
        for i, row in enumerate(np.random.default_rng(24).normal(size=(8, 12)).tolist())
    ),
    b"gaze_1_z,frame,confidence,pose_Tx,pose_Ty,pose_Tz,pose_Rx,pose_Ry,pose_Rz,"
    b"gaze_0_x,gaze_0_y,gaze_0_z,gaze_1_x,gaze_1_y,\n"
    + b"".join(b"-0.5,%d,0.9,1,2,3,4,5,6,7e-1,8,9,10,-11,\n" % i for i in range(8)),
)


_INSERTS = {
    "blank": st.sampled_from([b""]),
    "spaces": st.sampled_from([b" ", b"\t \t"]),
    "quote": st.sampled_from([b'"']),
    "digit": st.sampled_from(["\u0661", "\u0663", "\uff17"]).map(str.encode),
    "non-finite": st.sampled_from([b"nan", b"inf", b"-inf", b"1e500", b"-1E999"]),
    "not-utf8": st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80\x80"]),
}


def _edit_pose_csv(data, raw: bytes) -> bytes:
    """One edit: truncate, flip a byte, add or drop a column, switch line
    ends, keep only the header, insert a row, quote a cell, make it
    non-finite, or put a quote, Unicode digit, non-finite number or
    non-UTF-8 bytes into it at some offset."""
    how = data.draw(
        st.sampled_from(
            ["truncate", "flip", "add-column", "drop-column", "crlf", "cr", "header-only", "row"]
            + ["quote-cell", "non-finite"]
            + ["cell"] * 4
        )
    )
    if how in ("truncate", "flip"):
        if not raw:
            return raw
        i = data.draw(st.integers(0, len(raw) - 1))
        if how == "truncate":
            return raw[:i]
        return raw[:i] + bytes([raw[i] ^ data.draw(st.integers(1, 255))]) + raw[i + 1 :]
    if how in ("crlf", "cr"):
        return raw.replace(b"\n", b"\r\n" if how == "crlf" else b"\r")
    lines = raw.split(b"\n")
    if how == "header-only":
        return lines[0] + data.draw(st.sampled_from([b"", b"\n", b"\r\n"]))
    if how == "add-column":
        extra = data.draw(st.sampled_from([b"", b"1", b"x"]))
        return b"\n".join(line + b"," + extra for line in lines)
    if how == "drop-column":
        drop = data.draw(st.integers(0, 13))
        return b"\n".join(
            b",".join(c for j, c in enumerate(line.split(b",")) if j != drop) for line in lines
        )
    row = data.draw(st.integers(0, len(lines) - 1))
    if how == "row":
        lines.insert(row + 1, data.draw(_INSERTS["blank"] | _INSERTS["spaces"]))
        return b"\n".join(lines)
    cells = lines[row].split(b",")
    k = data.draw(st.integers(0, len(cells) - 1))
    if how == "quote-cell":
        cells[k] = b'"' + cells[k] + b'"'
    elif how == "non-finite":
        cells[k] = data.draw(_INSERTS["non-finite"])
    else:
        kind = data.draw(st.sampled_from(["quote", "digit", "non-finite", "not-utf8"]))
        at = data.draw(st.sampled_from([0, len(cells[k])]) | st.integers(0, len(cells[k])))
        cells[k] = cells[k][:at] + data.draw(_INSERTS[kind]) + cells[k][at:]
    lines[row] = b",".join(cells)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def pose_archive(tmp_path_factory):
    """One pose/gaze video at 6 fps, its labels and an extract config."""
    root = tmp_path_factory.mktemp("pose_fuzz")
    (root / "v0").mkdir()
    (root / "v0" / "manifest.json").write_text(
        json.dumps({"video_id": "v0", "subject_id": "s0", "fps": 6.0})
    )
    (root / "labels.csv").write_text("video_id,label\nv0,1\n")
    config = root / "extract.json"
    config.write_text(
        json.dumps(
            {
                "feature": "posegaze",
                "window": 3,
                "stride": 1,
                "m": 2,
                "input": str(root),
                "labels": str(root / "labels.csv"),
            }
        )
    )
    return root, config


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_an_edited_pose_csv_reads_as_the_row_loop_does(pose_archive, data):
    """After one to three edits, the reader returns the row loop's float64
    bytes or refuses at its line for its reason, with no warning; `extract`
    exits 0 or 3 with no traceback."""
    root, config = pose_archive
    raw = data.draw(st.sampled_from(_POSE_BASES))
    for _ in range(data.draw(st.integers(1, 3))):
        raw = _edit_pose_csv(data, raw)
    path = root / "v0" / "pose.csv"
    path.write_bytes(raw)
    _assert_reads_as_the_row_loop(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["extract", "--config", str(config), "--out", str(root / "out")])
    assert code in (0, 3)
    assert "Traceback" not in err.getvalue()


# cells that both readers take: numbers, padded with spaces or zeros
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.tuples(st.sampled_from([" ", "0" * 9, "0" * 40]), st.sampled_from(["1.5", "2 ", "3e-3"])).map("".join),
).map(str.encode)

# cells that replace a number: non-finite, empty or malformed; and quoted
_FAULTS = st.sampled_from(["nan", "-NaN", "inf", "-inf", "1e999", "-1E999", "", " ", "x"]).map(str.encode)
_QUOTED = st.sampled_from(['"1', '"1,2"', '"1"', '""', '"3""4"']).map(str.encode)

# put inside a cell: breaks that csv does not split at, a quote, and bytes
# that are not UTF-8
_CELL_INSERTS = st.sampled_from(["\x0c", "\x85", "\u2028", '"']).map(str.encode) | st.sampled_from(
    [b"\xff", b"\xc3", b"\xed\xa0\x80"]
)

# whole lines with no value: empty, blank, or breaks that csv does not split at
_BLANK_LINES = st.sampled_from(["", " ", "\t", "\x0c", "\x85", "\u2028", " \u2028 "]).map(str.encode)


@st.composite
def _pose_csv(draw):
    """A pose/gaze CSV's bytes: a header naming the columns (shuffled, maybe
    one missing, maybe an extra one) and rows of numbers (or only blank
    lines, or none), then up to two edits: a short row, a blank line, a cell
    replaced by a fault or a quoted one, or bytes put inside a cell; quotes
    and bytes go most often into a column the reader skips.  Lines end in
    CR, LF or CRLF."""
    names = list(features.POSE_GAZE_COLUMNS) + draw(st.sampled_from([[], ["note"]]))
    names = draw(st.permutations(names))
    if draw(st.sampled_from([False] * 9 + [True])):
        names.pop(draw(st.integers(0, len(names) - 1)))
    unused = [j for j, name in enumerate(names) if name in ("frame", "note")]
    rows = [[draw(_NUMBERS) for _ in names] for _ in range(draw(st.integers(1, 5)))]
    if draw(st.sampled_from([False] * 5 + [True])):  # a body of blank lines, or none
        rows = [[draw(_BLANK_LINES)] for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2])) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        how = draw(st.sampled_from(["short", "blank", "fault", "fault", "quote", "quote", "insert", "insert"]))
        if how == "blank":
            rows.insert(i, [draw(_BLANK_LINES)])
            continue
        cells = rows[i]
        if how == "short":
            del cells[draw(st.integers(1, len(cells))) :]
            continue
        anywhere = st.integers(0, len(cells) - 1)
        skipped = st.sampled_from(unused) | anywhere if unused and how != "fault" else anywhere
        k = min(draw(skipped), len(cells) - 1)
        if how in ("fault", "quote"):
            cells[k] = draw(_FAULTS if how == "fault" else _QUOTED)
        else:
            at = draw(st.integers(0, len(cells[k])))
            cells[k] = cells[k][:at] + draw(_CELL_INSERTS) + cells[k][at:]
    lines = [",".join(names).encode(), *(b",".join(cells) for cells in rows)]
    ends = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([b"", ends[-1]]))
    return b"".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=500, deadline=None)
@given(raw=_pose_csv(), limit=st.sampled_from([None, None, None, 24, 120]))
def test_pose_reader_matches_the_row_loop_on_generated_files(tmp_path_factory, raw, limit):
    """Over generated CSVs, the reader returns the reference row loop's
    float64 bytes, or refuses at its line for its reason, with no warning.
    `limit`, when set, lowers the csv field limit, so that some lines and
    cells run past it."""
    path = tmp_path_factory.mktemp("pose_gen") / "pose.csv"
    path.write_bytes(raw)
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        _assert_reads_as_the_row_loop(path)
    finally:
        csv.field_size_limit(old)


# --- memory held, measured by tracemalloc -----------------------------------


def _traced(call):
    """The result of `call()` and the peak of memory it allocated, in bytes,
    counting what it returns."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_lbp_top_many_holds_no_more_at_1800_frames_than_at_60():
    """Past its prefix counts and its output, lbp_top_many holds a few code
    chunks whatever the video's length: at 64x64, 30x the frames may add at
    most 256 KB (whole-video code maps would add about 22 MB)."""
    rng = np.random.default_rng(31)
    extra = []
    for t in (60, 1800):
        seq = _random_seq(rng, t, 64, 64)
        windows = segment(t, 20, 10)
        out, peak = _traced(lambda: lbp_top_many(seq, windows))
        prefix = (t + 1 + 2 * (t - 1)) * PLANE_BINS * 8  # XY, XT, YT counts
        extra.append(peak - prefix - out.nbytes)
    assert extra[1] - extra[0] < 256 * 1024, extra


def test_frame_archive_at_step_5_holds_about_the_kept_frames(tmp_path):
    """1,800 frames of 64x64 read at step 5: the peak stays within 1.5x the
    360 kept frames' 1.47 MB (all frames would be 7.4 MB)."""
    seq = _random_seq(np.random.default_rng(32), 1800, 64, 64, fps=30.0)
    save_frame_archive(seq, tmp_path / "v")
    kept, peak = _traced(lambda: load_frame_archive(tmp_path / "v", 5))
    np.testing.assert_array_equal(kept.frames, seq.frames[::5])
    assert peak < 1.5 * kept.frames.nbytes, (peak, kept.frames.nbytes)


def test_pose_csv_of_9000_rows_peaks_below_1_6_times_its_size(tmp_path):
    """The C parse reads a stream over the file's bytes: no decoded copy of
    the text, and no list of its lines, is held beside them."""
    rng = np.random.default_rng(33)
    track = _track(*[rng.normal(size=(9000, 3)) for _ in range(4)])
    path = tmp_path / "pose.csv"
    save_pose_gaze_csv(track, path)
    loaded, peak = _traced(lambda: load_pose_gaze_csv(path))
    assert loaded.gaze_right.tobytes() == track.gaze_right.tobytes()
    assert peak < 1.6 * path.stat().st_size, (peak, path.stat().st_size)


# --- record validation ------------------------------------------------------


def test_frame_sequence_rejects_non_uint8():
    with pytest.raises(ValueError):
        FrameSequence(
            frames=np.zeros((2, 4, 4), dtype=np.float32),
            fps=6.0,
            subject_id="s",
            video_id="v",
        )


def test_track_rejects_mismatched_blocks():
    with pytest.raises(ValueError):
        PoseGazeTrack(
            head_position=np.zeros((4, 3)),
            head_rotation=np.zeros((3, 3)),
            gaze_left=np.zeros((4, 3)),
            gaze_right=np.zeros((4, 3)),
        )


def test_track_rejects_non_finite():
    bad = np.zeros((4, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        PoseGazeTrack(
            head_position=bad,
            head_rotation=np.zeros((4, 3)),
            gaze_left=np.zeros((4, 3)),
            gaze_right=np.zeros((4, 3)),
        )
