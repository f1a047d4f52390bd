"""The one model file format: every model kind round-trips through it,
writes the bytes pinned here, writes atomically, and a header whose meta is
not an object is refused.  Damaged model files are fuzzed in test_inputs."""

import dataclasses

import numpy as np
import pytest

from engage_mil import bags
from engage_mil.baselines import (
    LinearModel,
    RidgePosterior,
    SvrConfig,
    SvrModel,
    svr_train,
)
from engage_mil.errors import ParseError
from engage_mil.networks import (
    DenseLayer,
    LstmLayer,
    MilNet,
    SeqNet,
    build_mil_net,
    build_seq_net,
)

from oracles import model_file_bytes, split_model_file

DIM, M = 3, 4
# the test ids of MilNet, SeqNet, SvrModel, LinearModel and RidgePosterior,
# whose file kinds are milnet, seqnet, svr, sgd and ridge
KINDS = ("mil", "seq", "svr", "linear", "ridge")


def _models():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, DIM))
    return {
        "mil": build_mil_net(DIM, hidden=(2,), k=2, seed=0),
        "seq": build_seq_net(DIM, m=M, hidden=2, dense=(3, 2), seed=0),
        "svr": svr_train(x, rng.uniform(0, 3, 12), SvrConfig()),
        "linear": LinearModel(rng.normal(size=DIM), 0.5),
        "ridge": RidgePosterior(rng.normal(size=DIM), 2.0, 3.0, 0.1),
    }


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_round_trips_into_one_file(tmp_path, kind):
    model = _models()[kind]
    path = tmp_path / "model.bin"
    bags.write_model(path, model, meta={"train_subjects": ["s1"]})
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
    loaded, meta = bags.read_model(path, (type(model),))
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


def _fixed(*shape):
    return (np.arange(np.prod(shape), dtype=np.float64).reshape(shape) - 2) / 8


def _pinned_models():
    """One model of each kind from fixed arrays and fields, with the arrays
    its file holds, in order."""
    ranking = [DenseLayer(_fixed(2, 3), _fixed(2), "relu"), DenseLayer(_fixed(1, 2), _fixed(1))]
    mil = MilNet(ranking, "topk", 2)
    head = [DenseLayer(_fixed(*s), _fixed(s[0]), "sigmoid") for s in ((3, 4), (2, 3), (2, 2))]
    seq = SeqNet(LstmLayer(_fixed(8, 5), _fixed(8)), head, 2)
    config = SvrConfig(c=2.0, epsilon=0.125, sigma=1.5, tol=1e-3)
    svr = SvrModel(_fixed(2, 3), _fixed(2), 0.25, config)
    return {
        "mil": (mil, mil.parameters()),
        "seq": (seq, seq.parameters()),
        "svr": (svr, [svr.support_vectors, svr.coef]),
        "linear": (LinearModel(_fixed(3), 0.5), [_fixed(3)]),
        "ridge": (RidgePosterior(_fixed(3), 2.0, 3.0, 0.1), [_fixed(3)]),
    }


# What each model above writes, "meta" given unsorted
PINNED_HEADERS = {
    "mil": (
        '{"fields": {"activations": ["relu", "linear"], "k": 2, "pooling": "topk"}, '
        '"kind": "milnet", "meta": {"feature_kind": "synthetic", "train_subjects": ["s1"]}, '
        '"shapes": [[2, 3], [2], [1, 2], [1]]}'
    ),
    "seq": (
        '{"fields": {"activations": ["sigmoid", "sigmoid", "sigmoid"], "m": 2}, "kind": "seqnet", '
        '"meta": {"feature_kind": "synthetic", "train_subjects": ["s1"]}, '
        '"shapes": [[8, 5], [8], [3, 4], [3], [2, 3], [2], [2, 2], [2]]}'
    ),
    "svr": (
        '{"fields": {"bias": 0.25, "c": 2.0, "epsilon": 0.125, "sigma": 1.5, "tol": 0.001}, '
        '"kind": "svr", "meta": {"feature_kind": "synthetic", "train_subjects": ["s1"]}, '
        '"shapes": [[2, 3], [2]]}'
    ),
    "linear": (
        '{"fields": {"bias": 0.5}, "kind": "sgd", "meta": {"feature_kind": "synthetic", '
        '"train_subjects": ["s1"]}, "shapes": [[3]]}'
    ),
    "ridge": (
        '{"fields": {"alpha": 2.0, "beta": 3.0, "intercept": 0.1}, "kind": "ridge", '
        '"meta": {"feature_kind": "synthetic", "train_subjects": ["s1"]}, "shapes": [[3]]}'
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_writes_its_pinned_bytes(tmp_path, kind):
    """The EMMF prefix (magic, version 1, header length, little-endian), the
    JSON header byte for byte, then each array as little-endian float64;
    a round trip alone cannot see a renamed field."""
    model, arrays = _pinned_models()[kind]
    path = tmp_path / "model.bin"
    bags.write_model(path, model, meta={"train_subjects": ["s1"], "feature_kind": "synthetic"})
    header = PINNED_HEADERS[kind].encode("ascii")
    prefix = b"EMMF" + (1).to_bytes(4, "little") + len(header).to_bytes(4, "little")
    payload = b"".join(a.astype("<f8").tobytes() for a in arrays)
    assert path.read_bytes() == prefix + header + payload


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("meta", [[1], "{bad"])
def test_meta_that_is_not_an_object_is_refused(tmp_path, kind, meta):
    model = _models()[kind]
    path = tmp_path / "model.bin"
    bags.write_model(path, model)
    header, payload = split_model_file(path.read_bytes())
    path.write_bytes(model_file_bytes({**header, "meta": meta}, payload))
    with pytest.raises(ParseError, match="model header has a bad 'meta'"):
        bags.read_model(path, (type(model),))


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    bags.write_model(path, LinearModel(np.ones(DIM), 0.0))
    before = path.read_bytes()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(bags.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        bags.write_model(path, LinearModel(np.zeros(DIM), 1.0))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
