"""The input boundary.  One table lists every reader of an input file, a
valid file it reads, and the command that reads it: damaged, missing or
replaced by a directory, the file is refused (a ParseError; a config's
fault is a ConfigError) or read, and the command exits with the reader's
code and no traceback.  Only textio opens input files."""

import ast
import builtins
import contextlib
import errno
import functools
import io
import itertools
import json
import os
import math
import pickle
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import engage_mil
from engage_mil import cli, textio
from engage_mil.bags import (
    Bag,
    Dataset,
    SyntheticSpec,
    load_dataset,
    load_planted_csv,
    read_feature_file,
    read_model,
    save_dataset,
    save_planted_csv,
    synth_generate,
    write_feature_file,
    write_model,
)
from engage_mil.baselines import (
    LinearModel,
    RidgePosterior,
    SvrConfig,
    SvrModel,
    svr_train,
)
from engage_mil.errors import ConfigError, DataError, ParseError
from engage_mil.features import (
    FrameSequence,
    PoseGazeTrack,
    load_frame_archive,
    load_manifest,
    load_pose_gaze_csv,
    read_pgm,
    save_frame_archive,
    save_pose_gaze_csv,
    write_pgm,
)
from engage_mil.metrics import (
    AnnotationMatrix,
    MetricsReport,
    compute_report,
    load_annotation_csv,
    save_annotation_csv,
)
from engage_mil.networks import MilNet, SeqNet, build_mil_net, build_seq_net, save_net

from oracles import model_file_bytes, split_model_file

DIM, M = 3, 4
MODELS = (MilNet, SeqNet, SvrModel, LinearModel, RidgePosterior)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A valid file for every reader, and a config for every command."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(0)
    dataset, planted = synth_generate(SyntheticSpec(subjects=2, videos=4, m=M, dim=DIM, seed=1))
    save_dataset(dataset, root / "data")
    save_planted_csv(dataset, planted, root / "data" / "planted.csv")
    (root / "models").mkdir()
    meta = {"feature_kind": "synthetic"}
    x = rng.normal(size=(12, DIM))
    save_net(build_mil_net(DIM, hidden=(2,), k=2, seed=0), root / "models" / "mil.bin", meta)
    seq = build_seq_net(DIM, m=M, hidden=2, dense=(3, 2), seed=0)
    save_net(seq, root / "models" / "seq.bin", meta)
    write_model(root / "models" / "svr.bin", svr_train(x, rng.uniform(0, 3, 12), SvrConfig()), meta)
    write_model(root / "models" / "linear.bin", LinearModel(rng.normal(size=DIM), 0.5), meta)
    ridge = RidgePosterior(rng.normal(size=DIM), 2.0, 3.0, 0.1)
    write_model(root / "models" / "ridge.bin", ridge, meta)
    shutil.copy(root / "models" / "linear.bin", root / "linear.bin")

    frames = rng.integers(0, 256, size=(6, 5, 7), dtype=np.uint8)
    save_frame_archive(FrameSequence(frames, 6.0, "s0", "v0"), root / "frames" / "v0")
    (root / "pose" / "v0").mkdir(parents=True)
    manifest = {"video_id": "v0", "subject_id": "s0", "fps": 6.0}
    (root / "pose" / "v0" / "manifest.json").write_text(json.dumps(manifest))
    track = PoseGazeTrack(*(rng.normal(size=(8, 3)) for _ in range(4)))
    save_pose_gaze_csv(track, root / "pose" / "v0" / "pose.csv")
    for raw in ("frames", "pose"):
        (root / raw / "labels.csv").write_text("video_id,label\nv0,1\n")

    ratings = np.array([[0, 1, np.nan], [2, 2, 3]])
    save_annotation_csv(AnnotationMatrix(ratings, ["v0", "v1"], ["r0", "r1", "r2"]), root / "ann.csv")
    compute_report([0.5, 1.5, 2.5, 2.0], [0, 1, 3, 2]).save(root / "report.json")

    extract = {"window": 3, "stride": 1, "m": 2}
    configs = {
        "synth": {"synth": {"subjects": 2, "videos": 4, "m": M, "dim": DIM}},
        "frames": {**extract, "feature": "lbptop", "input": str(root / "frames")},
        "pose": {**extract, "feature": "posegaze", "input": str(root / "pose")},
        "train": {"model": "ridge", "model_path": str(root / "trained.bin")},
        "predict": {"model_path": str(root / "linear.bin")},
        "localize": {"model_path": str(root / "linear.bin"), "planted": str(root / "data" / "planted.csv")},
    }
    configs["frames"]["labels"] = str(root / "frames" / "labels.csv")
    configs["pose"]["labels"] = str(root / "pose" / "labels.csv")
    for name, config in configs.items():
        if name in ("train", "predict", "localize"):
            config["dataset"] = str(root / "data")
        (root / f"{name}.json").write_text(json.dumps(config))
    return root


# --- damage ------------------------------------------------------------------


def _truncate(data, raw: bytes) -> bytes:
    return raw[: data.draw(st.integers(0, len(raw) - 1))]


def _flip(data, raw: bytes) -> bytes:
    i = data.draw(st.integers(0, len(raw) - 1))
    return raw[:i] + bytes([raw[i] ^ data.draw(st.integers(1, 255))]) + raw[i + 1 :]


def _not_utf8(data, raw: bytes) -> bytes:
    i = data.draw(st.integers(0, len(raw)))
    return raw[:i] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"])) + raw[i:]


def _slots(node):
    """(container, key) of every value inside a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


def _json_fields(data, raw: bytes) -> bytes:
    """One value nested one level deeper, or dropped."""
    doc = json.loads(raw)
    node, key = data.draw(st.sampled_from(list(_slots(doc))))
    how = data.draw(st.sampled_from(["list", "object", "drop"]))
    if how == "drop":
        del node[key]
    else:
        node[key] = [node[key]] if how == "list" else {"": node[key]}
    return json.dumps(doc).encode()


def _csv_fields(data, raw: bytes) -> bytes:
    """One field dropped, or nested as a quoted field holding a comma."""
    lines = raw.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(b",")
    j = data.draw(st.integers(0, len(cells) - 1))
    if data.draw(st.booleans()):
        del cells[j]
    else:
        cells[j] = b'"%s,%s"' % (cells[j], cells[j])
    lines[i] = b",".join(cells)
    return b"\n".join(lines)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _model_header(data, raw: bytes) -> bytes:
    """An arbitrary JSON value for the header, or for one of its entries."""
    header, payload = split_model_file(raw)
    fields = [f"fields.{key}" for key in header["fields"]]
    where = data.draw(st.sampled_from(["", "kind", "fields", "meta", "shapes", *fields]))
    value = data.draw(_JSON)
    if not where:
        header = value
    elif where.startswith("fields."):
        header["fields"][where[len("fields.") :]] = value
    else:
        header[where] = value
    return model_file_bytes(header, payload)


def _pgm_header(data, raw: bytes) -> bytes:
    """An arbitrary number or token for one of the four 5x7 header fields."""
    fields = [b"P5", b"7", b"5", b"255"]
    value = st.integers(-300, 300).map(lambda v: str(v).encode()) | st.binary(min_size=1, max_size=6)
    fields[data.draw(st.integers(0, 3))] = data.draw(value)
    return b"%s\n%s %s\n%s\n" % tuple(fields) + raw[-35:]


# --- the table -----------------------------------------------------------------


def _loaded_model(path):
    model, meta = cli._load_model(path)
    assert isinstance(model, MODELS) and isinstance(meta, dict)


def _manifest(path):
    return load_manifest(Path(path).parent, frames=True)


def _loaded_frame(path):
    frame = read_pgm(path)
    assert frame.dtype == np.uint8 and frame.ndim == 2 and min(frame.shape) >= 1
    with contextlib.suppress(ParseError):
        assert load_frame_archive(Path(path).parents[1]).frames.shape == (6, 5, 7)


@dataclass(frozen=True)
class Input:
    name: str
    files: str  # glob under the corpus; each example damages one match
    read: object  # the reader, given the file's path
    command: str | None  # the command that reads it; no command reads annotations or reports
    config: str | None  # that command's config; None: the file is the config
    edits: tuple = ()  # damage of this format, beside truncation, flips and bad UTF-8
    code: int = 3  # the command's exit code when the reader refuses the file
    examples: int = 40

    def argv(self, corpus: Path, path: Path) -> list[str]:
        config = path if self.config is None else corpus / self.config
        model = ["--model", str(path)] if self.name == "model" else []
        return [self.command, "--config", str(config), *model, "--out", str(corpus / self.command)]


TABLE = [
    Input("config", "synth.json", cli.RunConfig.from_file, "synth", None, (_json_fields,), code=2),
    Input("labels", "pose/labels.csv", cli.load_labels_csv, "extract", "pose.json", (_csv_fields,)),
    Input("index", "data/index.json", load_dataset, "train", "train.json", (_json_fields,)),
    Input("features", "data/features/*.bin", read_feature_file, "train", "train.json"),
    Input("model", "models/*.bin", _loaded_model, "predict", "predict.json", (_model_header,), examples=400),
    Input("planted", "data/planted.csv", load_planted_csv, "localize", "localize.json", (_csv_fields,)),
    Input("annotations", "ann.csv", load_annotation_csv, None, None, (_csv_fields,)),
    Input("manifest", "frames/v0/manifest.json", _manifest, "extract", "frames.json", (_json_fields,)),
    Input("pgm", "frames/v0/frames/*.pgm", _loaded_frame, "extract", "frames.json", (_pgm_header,), examples=200),
    Input("pose", "pose/v0/pose.csv", load_pose_gaze_csv, "extract", "pose.json", (_csv_fields,)),
    Input("report", "report.json", MetricsReport.load, None, None, (_json_fields,)),
]


def _run(row: Input, corpus: Path, path: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with np.errstate(all="ignore"):  # a model read intact may hold extreme values
            code = cli.main(row.argv(corpus, path))
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


def _refusal(row: Input, path: Path):
    """The reader's refusal of `path`, or None if it reads the file."""
    try:
        row.read(path)
    except (ConfigError if row.name == "config" else ParseError) as exc:
        return exc
    return None


@pytest.mark.parametrize("row", TABLE, ids=[row.name for row in TABLE])
def test_a_damaged_input_is_refused_or_read(corpus, row):
    @settings(max_examples=row.examples)
    @given(data=st.data())
    def damage(data):
        path = data.draw(st.sampled_from(sorted(corpus.glob(row.files))))
        original = path.read_bytes()
        edit = data.draw(st.sampled_from((_truncate, _flip, _not_utf8, *row.edits)))
        path.write_bytes(edit(data, original))
        try:
            refusal = _refusal(row, path)
            if row.command is None:
                return
            code, err = _run(row, corpus, path)
            if refusal is None:
                # a flip may leave finite weights whose output overflows, and
                # predict refuses that output with its documented exit 4
                overflow = row.name == "model" and "the model's output is not finite" in err
                assert code in (0, row.code) or (overflow and code == 4)
            else:
                assert code == row.code
                assert isinstance(refusal, ConfigError) or str(path) in err
        finally:
            path.write_bytes(original)

    damage()


@pytest.mark.parametrize("how", ["missing", "directory"])
@pytest.mark.parametrize("row", TABLE, ids=[row.name for row in TABLE])
def test_an_input_that_cannot_be_opened_is_refused(corpus, tmp_path, row, how):
    path = sorted(corpus.glob(row.files))[0]
    kept = shutil.move(path, tmp_path / path.name)
    if how == "directory":
        path.mkdir()
    try:
        refusal = _refusal(row, path)
        assert refusal is not None and str(path) in str(refusal)
        if row.command is not None:
            assert _run(row, corpus, path)[0] == row.code
    finally:
        if how == "directory":
            path.rmdir()
        shutil.move(kept, path)


_JSON_ROWS = [row for row in TABLE if row.files.endswith(".json")]


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("row", _JSON_ROWS, ids=[row.name for row in _JSON_ROWS])
def test_a_non_finite_json_number_is_refused(corpus, row, number):
    """json.loads takes these, but JSON has no such number: each JSON format
    refuses one in place of its first number, and its command exits with the
    reader's code."""
    path = sorted(corpus.glob(row.files))[0]
    original = path.read_bytes()
    edited = re.sub(rb"(?<=: )[0-9.]+", number.encode(), original, count=1)
    assert edited != original
    path.write_bytes(edited)
    try:
        refusal = _refusal(row, path)
        assert refusal is not None and "non-finite number" in str(refusal)
        if row.command is not None:
            assert _run(row, corpus, path)[0] == row.code
    finally:
        path.write_bytes(original)


def test_a_parse_error_survives_pickling():
    """A pool worker's ParseError reaches the parent intact."""
    exc = pickle.loads(pickle.dumps(ParseError("p.csv", 3, "bad", "labels")))
    assert (type(exc), str(exc), exc.line, exc.message) == (
        ParseError,
        "cannot read labels p.csv:3: bad",
        3,
        "bad",
    )


# --- one CSV dialect -------------------------------------------------------------


def _plain(table):
    """A table reader's result as lists and dicts."""
    if isinstance(table, AnnotationMatrix):
        return table.video_ids, table.rater_ids, table.labels.tolist()
    return {key: np.asarray(value).tolist() for key, value in table.items()}


@pytest.mark.parametrize(
    "read,header,quoted,expected,bad",
    [
        pytest.param(cli.load_labels_csv, "video_id,label", '"vid00","2"', {"vid00": 2}, "vid01,x", id="labels"),
        pytest.param(
            load_planted_csv,
            "video_id,instance_index,planted_intensity",
            '"vid00","0","2.0"',
            {"vid00": [2.0]},
            "vid00,1,x",
            id="planted",
        ),
        pytest.param(
            load_annotation_csv,
            "video_id,r0,r1",
            '"vid00","2","1"',
            (["vid00"], ["r0", "r1"], [[2.0, 1.0]]),
            "vid01,1,x",
            id="annotations",
        ),
    ],
)
def test_every_table_reader_reads_one_csv_dialect(tmp_path, read, header, quoted, expected, bad):
    """A quoted cell reads as its value, whitespace-only and all-blank rows
    are skipped, and a bad row is refused at its own line, which a quoted
    line break before it does not shift."""
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{quoted}\n \n,\n , \n")
    assert _plain(read(path)) == expected
    path.write_text(f"{header}\n{quoted}\n \n,\n{bad}\n")
    with pytest.raises(ParseError) as caught:
        read(path)
    assert caught.value.line == 5
    broken = quoted.replace("vid00", "vid\n00")
    path.write_text(f"{header}\n{broken}\n \n,\n{bad}\n")
    with pytest.raises(ParseError) as caught:
        read(path)
    assert caught.value.line == 6


# --- only textio opens input files ---------------------------------------------


def _reads(call: ast.Call) -> bool:
    """Whether `call` opens or reads a file for reading."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("read_bytes", "read_text"):
            return True
        if func.attr == "open" and isinstance(func.value, ast.Name) and func.value.id == "os":
            return True
        if func.attr == "load" and isinstance(func.value, ast.Name) and func.value.id == "json":
            return True
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    if not modes:
        return True
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and set("wax") & set(mode.value) and "+" not in mode.value)


def test_only_textio_opens_input_files():
    package = Path(engage_mil.__file__).parent
    found = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        if source.name != "textio.py"
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.Call) and _reads(node)
    ]
    assert not found, f"input files opened outside textio: {found}"


# --- only textio writes output files, and it writes each one whole -------------

# the os.open flags that open a file for writing
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _writes(call: ast.Call) -> bool:
    """Whether `call` opens a file for writing, writes one, or renames one."""
    func = call.func
    owner = getattr(func, "value", None)
    owner = owner.id if isinstance(owner, ast.Name) else None
    if isinstance(func, ast.Attribute):
        if owner == "os" and func.attr in ("replace", "rename"):
            return True
        if owner == "os" and func.attr == "open":
            flags = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "flags"]
            names = {getattr(n, "attr", getattr(n, "id", None)) for f in flags for n in ast.walk(f)}
            return bool(names & _WRITE_FLAGS)
        if func.attr in ("write_text", "write_bytes"):
            return owner != "textio"
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":  # Path.open
        modes = call.args[:1]
    else:
        return False
    modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set("wax+") & set(m.value) for m in modes)


def test_only_textio_opens_output_files():
    seen = [
        'open(p, "w")',
        'open(p, mode="ab")',
        "open(p, mode)",
        'Path(p).open("x")',
        'p.write_text("")',
        "Path(p).write_bytes(b'')",
        "os.open(p, os.O_WRONLY | os.O_CREAT)",
        "os.replace(a, b)",
        "os.rename(a, b)",
    ]
    unseen = ["open(p)", 'open(p, "rb")', "os.open(p, os.O_RDONLY)", "textio.write_bytes(p, b'')"]
    flagged = [_writes(ast.parse(code).body[0].value) for code in seen + unseen]
    assert flagged == [True] * len(seen) + [False] * len(unseen)
    package = Path(engage_mil.__file__).parent
    found = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        if source.name != "textio.py"
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.Call) and _writes(node)
    ]
    assert not found, f"output files written outside textio: {found}"


def _dataset(v: int) -> Dataset:
    return Dataset([Bag(f"v{i}", "s", np.full((2, 2), v + i), v) for i in range(3)], "synthetic", 2)


# Every writer of the package, writing version `v` of its files under a
# directory; versions 1 and 2 differ in every file
WRITERS = {
    "write_model": lambda d, v: write_model(d / "m.bin", LinearModel(np.full(3, v), v)),
    "write_feature_file": lambda d, v: write_feature_file(d / "f.bin", np.full((4, 3), v)),
    "save_dataset": lambda d, v: save_dataset(_dataset(v), d),
    "save_planted_csv": lambda d, v: save_planted_csv(_dataset(v), np.full((3, 2), v), d / "p.csv"),
    "write_csv": lambda d, v: textio.write_csv(d / "r.csv", ["a", "b"], [[str(v), "x"]] * 3, "\n"),
    "write_pgm": lambda d, v: write_pgm(d / "f.pgm", np.full((3, 4), v, np.uint8)),
    "save_frame_archive": lambda d, v: save_frame_archive(
        FrameSequence(np.full((3, 4, 5), v, np.uint8), 30.0 * v, "s", "vid"), d
    ),
    "save_pose_gaze_csv": lambda d, v: save_pose_gaze_csv(
        PoseGazeTrack(*np.full((4, 5, 3), float(v))), d / "pose.csv"
    ),
    "MetricsReport.save": lambda d, v: MetricsReport(v, {0: v}, 0.5, {0: 1}).save(d / "r.json"),
    "save_annotation_csv": lambda d, v: save_annotation_csv(
        AnnotationMatrix(np.full((2, 2), v), ["a", "b"], ["r1", "r2"]), d / "a.csv"
    ),
}


class _Interrupted(Exception):
    """A write stopped part way, as by a kill."""


class _CountedFile:
    """A file open() made for writing, whose writes first call `tick`."""

    def __init__(self, fh, tick):
        self._fh, self._tick = fh, tick

    def write(self, data):
        self._tick()
        return self._fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


@contextlib.contextmanager
def _fault_at(k: int, fault):
    """Raise fault() at the k-th write or rename made in the block, however it
    is made: os.write, os.replace, os.rename, or a write to a file that open()
    made for writing.  Yields the list of calls made so far."""
    calls = []

    def tick():
        calls.append(k)
        if len(calls) == k:
            raise fault()

    def counted(real):
        return lambda *args, **kwargs: tick() or real(*args, **kwargs)

    def opener(file, mode="r", *args, real=open, **kwargs):
        fh = real(file, mode, *args, **kwargs)
        return _CountedFile(fh, tick) if set("wax+") & set(mode) else fh

    with pytest.MonkeyPatch.context() as patch:
        for name in ("write", "replace", "rename"):
            patch.setattr(os, name, counted(getattr(os, name)))
        patch.setattr(builtins, "open", opener)
        patch.setattr(io, "open", opener)
        yield calls


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _loaded(root: Path):
    """Each bag load_dataset reads under root, or the exit code of its refusal."""
    try:
        return [(b.video_id, b.label, b.instances.tobytes()) for b in load_dataset(root).bags]
    except ParseError as exc:
        return exc.exit_code


@pytest.mark.parametrize(
    "fault",
    [_Interrupted, functools.partial(OSError, errno.ENOSPC, "No space left on device")],
    ids=["interrupted", "disk-full"],
)
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_an_interrupted_writer_leaves_every_file_whole(tmp_path, writer, fault):
    """For every k, a writer whose k-th write or rename fails leaves each of
    its files whole, old or new, at least one of them old, and no temporary
    file.  A disk fault is an error that exits 2 and names the file.  A
    dataset loads as the old one, or, mixing two writes, exits 3."""
    write = WRITERS[writer]
    new_dir, work = tmp_path / "new", tmp_path / "work"
    new_dir.mkdir()
    work.mkdir()
    write(new_dir, 2)
    new = _files(new_dir)
    for k in itertools.count(1):
        write(work, 1)
        old = _files(work)
        old_dataset = _loaded(work) if writer == "save_dataset" else None
        with _fault_at(k, fault) as calls:
            try:
                write(work, 2)
            except (_Interrupted, OSError) as exc:
                if isinstance(exc, OSError):
                    assert exc.exit_code == 2 and str(work) in str(exc)
            else:
                break
        after = _files(work)
        assert after.keys() == old.keys(), f"fault at call {k}"
        assert all(after[name] in (old[name], new[name]) for name in after), f"fault at call {k}"
        assert after != new, f"fault at call {k}"
        if writer == "save_dataset":
            assert _loaded(work) in (old_dataset, 3), f"fault at call {k}"
    assert k > 1 and len(calls) == k - 1 and _files(work) == new


# --- every writer refuses what its reader refuses ----------------------------------

# any float, and as often one that a file format may not hold: not finite,
# finite in float64 alone, subnormal, or negative zero
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 1e39, 5e-324, -0.0])
# text, and as often text that breaks a plain file name, a CSV cell or a stripped cell
_TEXT = st.sampled_from(["", " v", "a,b", "a\rb", "\r", '"']) | st.text(
    st.sampled_from('ab_.-, /\n\r\t"\x00\x1dé'), max_size=3
)
_ID = st.sampled_from(["v0", "v1"]) | _TEXT  # an id: two plain ones half the time


def _floats(shape):
    return hnp.arrays(np.float64, shape, elements=_FLOATS)


@st.composite
def _models(draw):
    """A model to build, a linear one or an SVR, and the meta to write with it."""
    n, dim, bias = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(_FLOATS)
    meta = draw(st.dictionaries(_ID, _FLOATS, max_size=2))
    if draw(st.booleans()):
        return functools.partial(LinearModel, draw(_floats(dim)), bias), meta
    shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)
    arrays = draw(_floats((n, dim)) | _floats(shapes)), draw(_floats(n) | _floats(shapes))
    return functools.partial(SvrModel, *arrays, bias, SvrConfig()), meta


@st.composite
def _datasets(draw):
    """A feature kind, a bag size m and bags (video id, subject id, instances, label)."""
    m, dim = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    bag = st.tuples(_ID, _ID, _floats((m, dim)), st.integers(-1, 4))
    return draw(_ID), m, draw(st.lists(bag, min_size=1, max_size=3))


@st.composite
def _annotations(draw):
    """A rating grid, which holds NaN for a missing rating, and its ids."""
    videos, raters = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    ratings = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.nan, 0.5])
    grid = draw(hnp.arrays(np.float64, (videos, raters), elements=ratings))
    ids = [draw(st.lists(_ID, min_size=size, max_size=size)) for size in (videos, raters)]
    return grid, *ids


def _planted_dataset(video_ids) -> Dataset:
    return Dataset([Bag(v, "s", np.zeros((2, 1)), 0) for v in video_ids], "synthetic", 2)


def _narrowed(instances):
    return instances.astype(np.float32).astype(np.float64)


@dataclass(frozen=True)
class RoundTrip:
    values: object  # a strategy for what the writer is given
    write: object  # (directory, value): writes its file(s) under the directory
    read: object  # directory: what the reader returns, in the value's terms
    kept: object = None  # value: what the file keeps of it (the format's precision)
    examples: tuple = ()  # values always tried, each one the writer must refuse


def _model_read(d):
    model, meta = read_model(d / "m.bin", MODELS)
    return model.to_file(), meta


def _frames_read(d):
    seq = load_frame_archive(d)
    return seq.frames, seq.fps, seq.subject_id, seq.video_id


def _track_read(d):
    track = load_pose_gaze_csv(d / "pose.csv")
    return track.head_position, track.head_rotation, track.gaze_left, track.gaze_right


def _dataset_read(d):
    dataset = load_dataset(d)
    bags = [(b.video_id, b.subject_id, b.instances, b.label) for b in dataset.bags]
    return dataset.feature_kind, dataset.m, bags


def _csv_read(d):
    header, records = textio.read_csv(d / "r.csv", "table")
    return header, [cells for _, cells in records]


def _report_read(d):
    report = MetricsReport.load(d / "r.json")
    return report.mse, report.classwise_mse, report.pcc, report.class_counts


def _annotations_read(d):
    annotations = load_annotation_csv(d / "a.csv")
    return annotations.labels, annotations.video_ids, annotations.rater_ids


# Each writer of WRITERS given arbitrary values, and its reader
ROUND_TRIPS = {
    "write_model": RoundTrip(
        _models(),
        lambda d, v: write_model(d / "m.bin", v[0](), v[1]),
        _model_read,
        lambda v: (v[0]().to_file(), v[1]),
        (
            (functools.partial(SvrModel, np.ones((1, 1)), np.array([np.nan]), 0.0, SvrConfig()), {}),
            (functools.partial(SvrModel, np.ones((2, 1)), np.ones(3), 0.0, SvrConfig()), {}),
        ),
    ),
    "write_feature_file": RoundTrip(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3), elements=_FLOATS),
        lambda d, v: write_feature_file(d / "f.bin", v),
        lambda d: read_feature_file(d / "f.bin"),
        _narrowed,
        (np.full((2, 2), 1e39), np.full((2, 2), np.nan), np.zeros((0, 3))),
    ),
    "save_dataset": RoundTrip(
        _datasets(),
        lambda d, v: save_dataset(Dataset([Bag(*bag) for bag in v[2]], v[0], v[1]), d),
        _dataset_read,
        lambda v: (v[0], v[1], [(i, s, _narrowed(x), y) for i, s, x, y in v[2]]),
        (("synthetic", 1, [("v0", "s", np.ones((1, 1)), 1)] * 2),),
    ),
    "save_planted_csv": RoundTrip(
        st.lists(_ID, min_size=1, max_size=3).flatmap(lambda ids: st.tuples(st.just(ids), _floats((len(ids), 2)))),
        lambda d, v: save_planted_csv(_planted_dataset(v[0]), v[1], d / "p.csv"),
        lambda d: load_planted_csv(d / "p.csv"),
        lambda v: dict(zip(*v)),
        ((["v0"], np.array([[np.nan, 1.0]])), (["v0", "v0"], np.ones((2, 2)))),
    ),
    "write_csv": RoundTrip(
        st.tuples(st.lists(_TEXT, max_size=3), st.lists(st.lists(_TEXT, max_size=3), max_size=3), st.sampled_from(["\n", "\r\n"])),
        lambda d, v: textio.write_csv(d / "r.csv", *v),
        _csv_read,
        lambda v: v[:2],
        (([" a"], [], "\n"), (["a"], [[""]], "\n"), (["a"], [["x", "\r"]], "\n")),
    ),
    "write_pgm": RoundTrip(
        hnp.arrays(
            st.sampled_from([np.uint8, np.int64, np.float64]),
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3),
        ),
        lambda d, v: write_pgm(d / "f.pgm", v),
        lambda d: read_pgm(d / "f.pgm"),
        examples=(np.zeros((5, 0)), np.array([[300]])),
    ),
    "save_frame_archive": RoundTrip(
        st.tuples(hnp.arrays(np.uint8, st.sampled_from([(2, 1, 2), (1, 0, 1), (0, 1, 1)])), _FLOATS, _ID, _ID),
        lambda d, v: save_frame_archive(FrameSequence(*v), d),
        _frames_read,
        examples=(
            (np.ones((1, 1, 1), np.uint8), np.nan, "s", "v"),
            (np.ones((1, 1, 1), np.uint8), np.inf, "s", "v"),
            (np.ones((1, 0, 1), np.uint8), 6.0, "s", "v"),
        ),
    ),
    "save_pose_gaze_csv": RoundTrip(
        st.integers(0, 3).flatmap(lambda n: st.tuples(*[_floats((n, 3))] * 4)),
        lambda d, v: save_pose_gaze_csv(PoseGazeTrack(*v), d / "pose.csv"),
        _track_read,
        examples=((np.zeros((0, 3)),) * 4,),
    ),
    "MetricsReport.save": RoundTrip(
        st.tuples(
            _FLOATS,
            st.dictionaries(st.integers(-1, 4), st.none() | _FLOATS),
            _FLOATS,
            st.dictionaries(st.integers(-1, 4), st.integers()),
        ),
        lambda d, v: MetricsReport(*v).save(d / "r.json"),
        _report_read,
        examples=(
            (np.nan, {}, 0.5, {}),
            (0.5, {0: "x", 1: True}, 0.5, {}),
            (0.5, {0: math.inf}, 0.5, {}),
            (0.5, {}, 0.5, {0: -5}),
            (0.5, {}, 0.5, {0: 1.5}),
            (0.5, {}, 0.5, {0: True}),
        ),
    ),
    "save_annotation_csv": RoundTrip(
        _annotations(),
        lambda d, v: save_annotation_csv(AnnotationMatrix(*v), d / "a.csv"),
        _annotations_read,
        examples=(
            (np.ones((2, 2)), ["a", "a"], ["r0", "r1"]),
            (np.ones((1, 2)), ["a"], ["r", "r"]),
            (np.ones((1, 1)), ["a"], ["r"]),
            (np.ones((0, 2)), [], ["r0", "r1"]),
            (np.ones((1, 2)), [" a"], ["r0", "r1"]),
        ),
    ),
}


def _comparable(value):
    """`value` with arrays and tuples as lists and NaN as None, so == compares it."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_comparable(v) for v in value]
    if isinstance(value, dict):
        return {key: _comparable(v) for key, v in value.items()}
    return None if isinstance(value, float) and math.isnan(value) else value


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_writer_refuses_what_its_reader_refuses(tmp_path, writer):
    """Given any value, a writer either refuses it (a ValueError or a
    DataError) and writes nothing, or its reader returns that value, to the
    format's precision: float32 for features, repr for CSV numbers."""
    trip = ROUND_TRIPS[writer]

    def round_trip(value, refused):
        directory = Path(tempfile.mkdtemp(dir=tmp_path))
        try:
            trip.write(directory, value)
        except (ValueError, DataError):
            assert not any(directory.iterdir())
            return
        assert not refused, "the writer took a value it must refuse"
        kept = value if trip.kept is None else trip.kept(value)
        assert _comparable(trip.read(directory)) == _comparable(kept)

    for value in trip.examples:
        round_trip = example(value=value, refused=True)(round_trip)
    values = given(value=trip.values, refused=st.just(False))
    settings(max_examples=200, deadline=None)(values(round_trip))()


def test_write_bytes_finishes_short_writes_and_replaces_a_symlink(tmp_path, monkeypatch):
    """An os.write that takes only part of the buffer is called again for the
    rest; an output that is a symlink becomes a file, its target untouched."""
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:3]))
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"keep")
    link.symlink_to(target)
    textio.write_bytes(link, b"0123456789")
    assert (link.is_symlink(), link.read_bytes(), target.read_bytes()) == (
        False,
        b"0123456789",
        b"keep",
    )


def test_read_bytes_closes_every_descriptor_it_opens(tmp_path, monkeypatch):
    """A file, an empty file, a directory and a missing file: each descriptor
    opened is closed, and the faults are ParseErrors with the OS's reason."""
    opened, closed = [], []
    real_open, real_close = os.open, os.close
    monkeypatch.setattr(os, "open", lambda *args: opened.append(real_open(*args)) or opened[-1])
    monkeypatch.setattr(os, "close", lambda fd: closed.append(fd) or real_close(fd))
    (tmp_path / "full").write_bytes(b"P5\n1 1\n255\n\x07")
    (tmp_path / "empty").write_bytes(b"")
    assert textio.read_bytes(tmp_path / "full", "frame") == b"P5\n1 1\n255\n\x07"
    assert textio.read_bytes(tmp_path / "empty", "frame") == b""
    for name, reason in (("missing", "No such file or directory"), ("", "Is a directory")):
        with pytest.raises(ParseError) as caught:
            textio.read_bytes(tmp_path / name, "frame")
        assert (caught.value.line, caught.value.message) == (1, reason)
    assert opened == closed and len(opened) == 3


def test_read_bytes_reads_to_end_of_file_without_a_size():
    """A descriptor that fstat gives no size for (a pipe) is read to its end."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"x" * 40_000)
        os.close(write_end)
        assert textio._read_all(read_end) == b"x" * 40_000
    finally:
        os.close(read_end)
