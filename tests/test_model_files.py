"""The one model file format: every model kind round-trips through it,
writes are atomic, and a damaged file is refused as a data error."""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engage_mil import bags, cli
from engage_mil.bags import SyntheticSpec, save_dataset, synth_generate
from engage_mil.baselines import (
    LinearModel,
    RidgePosterior,
    SvrConfig,
    SvrModel,
    load_linear,
    load_ridge,
    load_svr,
    save_linear,
    save_ridge,
    save_svr,
    svr_train,
)
from engage_mil.errors import ParseError
from engage_mil.networks import (
    MilNet,
    SeqNet,
    build_mil_net,
    build_seq_net,
    load_net,
    save_net,
)

from oracles import model_file_bytes, split_model_file

DIM, M = 3, 4
KINDS = ("mil", "seq", "svr", "linear", "ridge")
MODELS = (MilNet, SeqNet, SvrModel, LinearModel, RidgePosterior)


def _models():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, DIM))
    return {
        "mil": (save_net, load_net, build_mil_net(DIM, hidden=(2,), k=2, seed=0)),
        "seq": (save_net, load_net, build_seq_net(DIM, m=M, hidden=2, dense=(3, 2), seed=0)),
        "svr": (save_svr, load_svr, svr_train(x, rng.uniform(0, 3, 12), SvrConfig())),
        "linear": (save_linear, load_linear, LinearModel(rng.normal(size=DIM), 0.5)),
        "ridge": (save_ridge, load_ridge, RidgePosterior(rng.normal(size=DIM), 2.0, 3.0, 0.1)),
    }


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A small dataset, a predict config, and one saved model per kind."""
    root = tmp_path_factory.mktemp("model_files")
    dataset, _ = synth_generate(SyntheticSpec(subjects=2, videos=4, m=M, dim=DIM, seed=1))
    save_dataset(dataset, root / "data")
    files = {}
    for kind, (save, _, model) in _models().items():
        files[kind] = root / f"{kind}.bin"
        save(model, files[kind], meta={"feature_kind": "synthetic"})
    model = root / "model.bin"
    config = root / "predict.json"
    config.write_text(json.dumps({"dataset": str(root / "data"), "model_path": str(model)}))
    return files, model, config, root / "p.csv"


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_round_trips_into_one_file(tmp_path, kind):
    save, load, model = _models()[kind]
    path = tmp_path / "model.bin"
    save(model, path, meta={"train_subjects": ["s1"]})
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
    loaded, meta = load(path)
    assert meta == {"train_subjects": ["s1"]}
    assert _same(loaded, model)


def _same(a, b) -> bool:
    """Equal dataclasses, lists and arrays, bit for bit; the SVR's objective
    trace is training history and is not stored."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        names = [f.name for f in dataclasses.fields(a) if f.name != "objective_trace"]
        return type(a) is type(b) and all(_same(getattr(a, n), getattr(b, n)) for n in names)
    return a == b


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("meta", [[1], "{bad"])
def test_meta_that_is_not_an_object_is_refused(tmp_path, kind, meta):
    save, load, model = _models()[kind]
    path = tmp_path / "model.bin"
    save(model, path)
    header, payload = split_model_file(path.read_bytes())
    path.write_bytes(model_file_bytes({**header, "meta": meta}, payload))
    with pytest.raises(ParseError, match="model header has a bad 'meta'"):
        load(path)


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    save_linear(LinearModel(np.ones(DIM), 0.0), path)
    before = path.read_bytes()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(bags.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_linear(LinearModel(np.zeros(DIM), 1.0), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _corrupt(data, original: bytes) -> bytes:
    how = data.draw(st.sampled_from(["truncate", "flip", "header"]))
    if how == "truncate":
        return original[: data.draw(st.integers(0, len(original) - 1))]
    if how == "flip":
        i = data.draw(st.integers(0, len(original) - 1))
        return original[:i] + bytes([original[i] ^ data.draw(st.integers(1, 255))]) + original[i + 1 :]
    header, payload = split_model_file(original)
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


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_a_damaged_model_file_is_refused_or_loads(served, kind, data):
    """Truncation, a flipped byte or an arbitrary header: the file loads as
    a valid model or is refused with ParseError, and `predict` on it exits
    3 (or serves the valid model) with no traceback."""
    files, model, config, out = served
    model.write_bytes(_corrupt(data, files[kind].read_bytes()))
    try:
        loaded, meta = cli._load_model(model)
    except ParseError:
        refused = True
    else:
        refused = False
        assert isinstance(loaded, MODELS) and isinstance(meta, dict)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with np.errstate(all="ignore"):  # a valid model may hold extreme values
            code = cli.main(["predict", "--config", str(config), "--out", str(out)])
    assert "Traceback" not in err.getvalue()
    if refused:
        assert code == 3 and str(model) in err.getvalue()
    else:
        assert code in (0, 3)  # 3: a valid model that does not fit the dataset
