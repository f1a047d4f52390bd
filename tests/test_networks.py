import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from engage_mil.bags import Bag, Dataset, SyntheticSpec, synth_generate
from engage_mil.errors import NumericError, ParseError
from engage_mil.networks import (
    DenseLayer,
    LstmLayer,
    MilNet,
    SeqNet,
    TrainConfig,
    build_mil_net,
    build_seq_net,
    load_net,
    save_net,
    train,
)
from engage_mil.networks import (
    _pool_matrix,
    _seq_forward,
    _sigmoid,
)

from oracles import (
    finite_difference_gradients,
    masked_sigmoid,
    max_relative_gradient_error,
    model_file_bytes,
    reference_bag_scores,
    reference_mil_batch_grads,
    reference_seq_batch_grads,
    reference_seq_forward,
    reference_seq_grads,
    split_model_file,
)


def _random_bag(rng, m, dim, label=1):
    return Bag(
        video_id="v0",
        subject_id="s0",
        instances=rng.normal(size=(m, dim)),
        label=label,
    )


def _one_bag(x) -> Dataset:
    return Dataset([Bag("v0", "s0", x, label=0)], "synthetic", len(x))


def _pool(r, pooling, k=1) -> float:
    """One intensity vector pooled to a score."""
    return float(_pool_matrix(np.asarray(r, dtype=np.float64)[None], pooling, k)[0][0])


def _mil_forward(net, x):
    """One bag's score and its ranking-layer outputs."""
    scores, r = net.forward(np.asarray(x)[None])
    return float(scores[0]), r[0]


def _seq_score(net, x):
    """One bag's score (in the net's training label space) and LSTM states."""
    scores, states, _, _ = _seq_forward(net, np.asarray(x)[None])
    return float(scores[0]), states[0]


def _grads(net, x, label):
    """Gradients of one bag's (score - label)^2, aligned with net.parameters()."""
    return net.batch_grads(np.asarray(x)[None], np.array([float(label)]))[1]


# ---------------------------------------------------------------------------
# pooling


def test_topk_pool_hand_examples():
    r = np.array([3.0, 2.0, 1.0] + [0.0] * 7)
    assert _pool(r, "topk", 2) == 2.5
    assert _pool(np.full(6, 1.25), "topk", 3) == 1.25
    with pytest.raises(ValueError):
        build_mil_net(3, pooling="topk", k=0)  # k < 1 is refused when the net is built
    with pytest.raises(ValueError):
        _pool(r, "topk", 11)


def test_topk_pool_matches_full_sort_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = rng.normal(size=100)
        expected = float(np.sort(r)[::-1][:10].mean())
        assert _pool(r, "topk", 10) == expected


def test_topk_pool_with_k_equal_m_is_mean_pool():
    rng = np.random.default_rng(1)
    for _ in range(100):
        r = rng.normal(size=17)
        assert _pool(r, "topk", 17) == _pool(r, "mean")


def test_topk_pool_tie_handling_prefers_lower_index():
    # equal values: either choice yields identical numbers, but selection
    # order must be stable so gradients route deterministically
    r = np.array([1.0, 2.0, 2.0, 0.0])
    assert _pool(r, "topk", 2) == 2.0


@settings(max_examples=60)
@given(
    arrays(np.float64, st.integers(2, 20), elements=st.floats(-5, 5)),
    st.data(),
)
def test_topk_pool_is_monotone(r, data):
    k = data.draw(st.integers(1, len(r)))
    idx = data.draw(st.integers(0, len(r) - 1))
    bump = data.draw(st.floats(0, 5))
    raised = r.copy()
    raised[idx] += bump
    assert _pool(raised, "topk", k) >= _pool(r, "topk", k) - 1e-12


def test_mean_pool_examples():
    assert _pool(np.array([0.0, 3.0]), "mean") == 1.5
    assert _pool(np.full(9, 2.0), "mean") == 2.0
    with pytest.raises(ValueError):  # so pooling never sees an empty bag
        Bag("v0", "s0", np.empty((0, 3)), label=0)


def test_mil_loss_examples():
    # the batch loss is the squared error: score 2 vs label 2, score 1 vs label 3
    net = build_mil_net(3, hidden=(4,), pooling="mean", seed=0)
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    bag = np.random.default_rng(19).normal(size=(5, 3))
    for score, label, loss in ((2.0, 2.0, 0.0), (1.0, 3.0, 4.0)):
        net.layers[-1].bias[:] = score
        assert net.batch_grads(bag[None], np.array([label]))[0] == loss


# ---------------------------------------------------------------------------
# dense MIL forward


def test_forward_mil_identical_instances_share_the_score():
    net = build_mil_net(5, hidden=(8, 6), pooling="topk", k=3, seed=0)
    row = np.random.default_rng(2).normal(size=5)
    bag = np.tile(row, (12, 1))
    score, intensities = _mil_forward(net, bag)
    assert np.allclose(intensities, intensities[0])
    assert score == pytest.approx(intensities[0], abs=1e-12)
    net_mean = build_mil_net(5, hidden=(8, 6), pooling="mean", seed=0)
    score_mean, _ = _mil_forward(net_mean, bag)
    assert score_mean == pytest.approx(intensities[0], abs=1e-12)


def test_forward_mil_zero_weights_score_is_the_ranking_bias():
    net = build_mil_net(4, hidden=(6,), pooling="mean", seed=0)
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    net.layers[-1].bias[:] = -0.75
    score, intensities = _mil_forward(net, np.random.default_rng(3).normal(size=(7, 4)))
    assert np.all(intensities == -0.75)
    assert score == -0.75


def test_forward_mil_matches_per_instance_recomputation():
    rng = np.random.default_rng(4)
    net = build_mil_net(6, hidden=(10, 5), pooling="topk", k=4, seed=11)
    bag = rng.normal(size=(9, 6))
    score, intensities = _mil_forward(net, bag)
    manual = []
    for row in bag:
        h = row
        for layer in net.layers:
            z = layer.weights @ h + layer.bias
            if layer.activation == "relu":
                h = np.maximum(z, 0.0)
            else:
                h = z
        manual.append(h[0])
    manual = np.array(manual)
    assert np.allclose(intensities, manual, atol=1e-12)
    assert score == pytest.approx(np.sort(manual)[::-1][:4].mean(), abs=1e-12)


def test_forward_mil_is_permutation_invariant():
    rng = np.random.default_rng(5)
    net = build_mil_net(3, hidden=(7,), pooling="topk", k=2, seed=1)
    bag = rng.normal(size=(8, 3))
    shuffled = bag[rng.permutation(8)]
    assert _mil_forward(net, bag)[0] == pytest.approx(
        _mil_forward(net, shuffled)[0], abs=1e-12
    )
    net_mean = build_mil_net(3, hidden=(7,), pooling="mean", seed=1)
    assert _mil_forward(net_mean, bag)[0] == pytest.approx(
        _mil_forward(net_mean, shuffled)[0], abs=1e-12
    )


def test_forward_mil_rejects_wrong_dimension():
    net = build_mil_net(4, hidden=(5,), seed=0)
    with pytest.raises(ValueError):
        _mil_forward(net, np.zeros((6, 3)))


def test_forward_passes_are_pure():
    rng = np.random.default_rng(6)
    net = build_mil_net(4, hidden=(6, 5), pooling="topk", k=2, seed=3)
    bag = rng.normal(size=(6, 4))
    first = _mil_forward(net, bag)
    second = _mil_forward(net, bag)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])

    seq = build_seq_net(3, m=5, hidden=4, dense=(6, 5), seed=2)
    sbag = rng.normal(size=(5, 3))
    assert _seq_score(seq, sbag)[0] == _seq_score(seq, sbag)[0]


# ---------------------------------------------------------------------------
# sequence network forward


def test_forward_seq_zero_net_scores_from_final_biases():
    net = build_seq_net(4, m=6, hidden=3, dense=(5, 4), seed=0)
    for p in net.parameters():
        p[:] = 0.0
    final_bias = np.array([0.3, -0.2, 0.1, 0.0, 0.5, -0.4])
    net.dense[-1].bias[:] = final_bias
    score, hs = _seq_score(net, np.random.default_rng(7).normal(size=(6, 4)))
    expected = float((1.0 / (1.0 + np.exp(-final_bias))).mean())
    assert score == pytest.approx(expected, abs=1e-12)
    assert np.all(hs == 0.0)


def test_forward_seq_is_order_sensitive_somewhere():
    found = False
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = build_seq_net(3, m=5, hidden=4, dense=(6, 5), seed=seed)
        bag = rng.normal(size=(5, 3)) * 2.0
        swapped = bag.copy()
        swapped[[0, 4]] = swapped[[4, 0]]
        if abs(_seq_score(net, bag)[0] - _seq_score(net, swapped)[0]) > 1e-6:
            found = True
            break
    assert found


def test_forward_seq_score_within_unit_interval():
    rng = np.random.default_rng(8)
    net = build_seq_net(5, m=7, hidden=6, dense=(8, 6), seed=4)
    for _ in range(5):
        score, hs = _seq_score(net, rng.normal(size=(7, 5)) * 3.0)
        assert 0.0 < score < 1.0
        assert hs.shape == (7, 6)


def test_forward_seq_rejects_wrong_sizes():
    net = build_seq_net(4, m=5, hidden=3, seed=0)
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 4, 4)))  # wrong segment count
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 5, 3)))  # wrong feature dim


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("pooling,k", [("topk", 3), ("mean", 1)])
def test_mil_gradients_match_finite_differences(seed, pooling, k):
    rng = np.random.default_rng(100 + seed)
    net = build_mil_net(5, hidden=(7, 4), pooling=pooling, k=k, seed=seed)
    bag = _random_bag(rng, m=8, dim=5, label=2).instances
    label = 2.0
    analytic = _grads(net, bag, label)
    numeric = finite_difference_gradients(
        lambda: (_mil_forward(net, bag)[0] - label) ** 2, net.parameters()
    )
    assert max_relative_gradient_error(analytic, numeric) < 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_seq_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    net = build_seq_net(4, m=5, hidden=4, dense=(6, 5), seed=seed)
    bag = _random_bag(rng, m=5, dim=4, label=3).instances
    label = 1.0  # scaled-space target; the gradients never rescale
    analytic = _grads(net, bag, label)
    numeric = finite_difference_gradients(
        lambda: (_seq_score(net, bag)[0] - label) ** 2, net.parameters()
    )
    assert max_relative_gradient_error(analytic, numeric) < 1e-4


def test_zero_loss_gives_exactly_zero_gradients():
    net = build_mil_net(3, hidden=(4,), pooling="mean", seed=0)
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    net.layers[-1].bias[:] = 2.0  # score == 2 for every bag
    bag = np.random.default_rng(9).normal(size=(5, 3))
    grads = _grads(net, bag, 2.0)
    assert all(np.all(g == 0.0) for g in grads)


def test_topk_gradient_reaches_only_the_selected_instances():
    # identity first stage + one-hot instances makes the ranking-layer
    # weight gradient read out per-instance routing directly
    m = 6
    first = DenseLayer(weights=np.eye(m), bias=np.zeros(m), activation="linear")
    rank_w = np.arange(1.0, m + 1.0)[None, :]  # r_j = j + 1, all distinct
    rank = DenseLayer(weights=rank_w.copy(), bias=np.zeros(1), activation="linear")
    net = MilNet(layers=[first, rank], pooling="topk", k=2)
    bag = np.eye(m)
    grads = _grads(net, bag, 0.0)
    d_rank_w = grads[2][0]
    assert np.all(d_rank_w[:-2] == 0.0)  # instances outside the top 2
    assert np.all(d_rank_w[-2:] != 0.0)


# ---------------------------------------------------------------------------
# fused LSTM and batched serving against the per-gate, per-bag references


def _relative_error(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


@pytest.mark.parametrize(
    "in_dim,m,hidden,batch",
    [(4, 5, 4, 7), (3, 6, 1, 4), (5, 1, 3, 6), (1, 1, 1, 1), (8, 20, 16, 16)],
)
def test_fused_seq_pass_matches_the_per_gate_reference(in_dim, m, hidden, batch):
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        net = build_seq_net(in_dim, m=m, hidden=hidden, dense=(6, 5), seed=seed)
        x = rng.normal(size=(batch, m, in_dim)) * 2.0
        y = rng.uniform(0.0, 1.0, size=batch)
        scores, hs, _, _ = _seq_forward(net, x)
        ref_scores, ref_hs, _, _ = reference_seq_forward(net, x)
        assert _relative_error(scores, ref_scores) < 1e-12
        assert _relative_error(hs, ref_hs) < 1e-12
        loss, grads, _ = net.batch_grads(x, y)
        ref_loss, ref_grads = reference_seq_grads(net, x, y)
        assert abs(loss - ref_loss) <= 1e-12 * ref_loss
        assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
        for got, want in zip(grads, ref_grads):
            assert _relative_error(got, want) < 1e-12


@settings(max_examples=60)
@given(
    st.integers(1, 9),
    st.integers(1, 10),
    st.data(),
    st.sampled_from(["topk", "mean"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_mil_backward_over_pooled_rows_matches_the_dense_backward(
    batch, m, data, pooling, tied, seed
):
    """Backprop through the top-k rows only agrees with backprop through all
    rows to rounding; mean pooling and k = M take the dense path bit for bit."""
    k = data.draw(st.integers(1, m), label="k")
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    net = build_mil_net(dim, hidden=(6, 3), pooling=pooling, k=k, seed=seed % 1000)
    x = rng.normal(size=(batch, m, dim))
    if tied:  # duplicate instances tie in the top-k ranking
        x[:, m // 2 :] = x[:, : m - m // 2]
    y = rng.uniform(0.0, 3.0, size=batch)
    loss, grads, scores = net.batch_grads(x, y)
    ref_loss, ref_grads, ref_scores = reference_mil_batch_grads(net, x, y)
    assert loss == ref_loss and np.array_equal(scores, ref_scores)
    assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
    for got, want in zip(grads, ref_grads):
        if pooling == "mean" or k == m:
            assert np.array_equal(got, want)
        else:
            assert _relative_error(got, want) < 1e-12


@pytest.mark.parametrize("in_dim,m,hidden,batch", [(4, 5, 4, 7), (3, 6, 1, 4), (8, 20, 16, 16)])
def test_seq_backward_with_hoisted_factors_is_bit_identical(in_dim, m, hidden, batch):
    for seed in range(3):
        rng = np.random.default_rng(400 + seed)
        net = build_seq_net(in_dim, m=m, hidden=hidden, dense=(6, 5), seed=seed)
        x = rng.normal(size=(batch, m, in_dim)) * 2.0
        y = rng.uniform(0.0, 1.0, size=batch)
        loss, grads, scores = net.batch_grads(x, y)
        ref_loss, ref_grads, ref_scores = reference_seq_batch_grads(net, x, y)
        assert loss == ref_loss and np.array_equal(scores, ref_scores)
        assert len(grads) == len(ref_grads)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)


def _serving_dataset(rng, m, dim, bags=9):
    out = []
    for i in range(bags):
        x = rng.normal(size=(m, dim))
        if i % 3 == 0:  # repeated instances tie in the top-k selection
            x[1::2] = x[0]
        out.append(Bag(f"v{i}", f"s{i % 3}", x, label=i % 4))
    return Dataset(out, "synthetic", m)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_mil_net(5, hidden=(7, 4), pooling="topk", k=3, seed=1),
        lambda: build_mil_net(5, hidden=(6,), pooling="topk", k=8, seed=2),
        lambda: build_mil_net(5, hidden=(6,), pooling="mean", seed=3),
        lambda: build_seq_net(5, m=8, hidden=3, dense=(6, 5), seed=4),
        lambda: build_seq_net(5, m=8, hidden=1, dense=(4, 3), seed=5),
    ],
)
def test_batched_serving_matches_per_bag_reference(make):
    net = make()
    dataset = _serving_dataset(np.random.default_rng(17), m=8, dim=5)
    want = [reference_bag_scores(net, bag.instances) for bag in dataset.bags]
    scores = net.predict_bags(dataset)
    curves = net.localize_bags(dataset)
    assert curves.shape == (len(dataset), 8)
    for bag, score, curve, (ref_score, ref_curve) in zip(dataset.bags, scores, curves, want):
        assert abs(score - ref_score) <= 1e-12 * max(1.0, abs(ref_score))
        assert _relative_error(curve, ref_curve) < 1e-12
        alone = _one_bag(bag.instances)
        assert abs(net.predict_bags(alone)[0] - ref_score) <= 1e-12 * max(1.0, abs(ref_score))
        assert _relative_error(net.localize_bags(alone)[0], ref_curve) < 1e-12


def test_sigmoid_is_bit_identical_to_the_masked_form():
    specials = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
    z = np.concatenate([specials, np.random.default_rng(18).normal(scale=40.0, size=4000)])
    for shape in ((z.size,), (z.size // 2, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(z.reshape(shape))
        want = masked_sigmoid(z.reshape(shape))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# training


def _tiny_dataset(seed=0, videos=24, subjects=6, m=8, dim=5, rho=0.5, noise=0.0):
    spec = SyntheticSpec(
        subjects=subjects,
        videos=videos,
        m=m,
        dim=dim,
        class_distribution=(0.25, 0.25, 0.25, 0.25),
        rho=rho,
        noise_scale=noise,
        seed=seed,
    )
    dataset, planted = synth_generate(spec)
    return dataset, planted


def test_train_zero_epochs_keeps_initial_parameters():
    dataset, _ = _tiny_dataset()
    net = build_mil_net(5, hidden=(8, 6), pooling="mean", seed=7)
    before = [p.copy() for p in net.parameters()]
    trained, trace = train(net, dataset, TrainConfig(epochs=0))
    assert trace == []
    for old, new in zip(before, trained.parameters()):
        assert np.array_equal(old, new)


def test_train_same_seed_is_bitwise_deterministic():
    dataset, _ = _tiny_dataset(seed=3)
    net = build_mil_net(5, hidden=(8, 6), pooling="topk", k=4, seed=1)
    config = TrainConfig(epochs=5, batch_size=7, seed=9)
    first, trace_a = train(net, dataset, config)
    second, trace_b = train(net, dataset, config)
    assert trace_a == trace_b
    for a, b in zip(first.parameters(), second.parameters()):
        assert np.array_equal(a, b)


def test_train_first_epoch_loss_is_the_mean_of_initial_bag_losses():
    dataset, _ = _tiny_dataset(seed=5)
    net = build_mil_net(5, hidden=(8, 6), pooling="mean", seed=2)
    _, trace = train(net, dataset, TrainConfig(epochs=1, batch_size=len(dataset)))
    per_bag = [(_mil_forward(net, bag.instances)[0] - bag.label) ** 2 for bag in dataset.bags]
    assert trace[0] == pytest.approx(math.fsum(per_bag) / len(per_bag), rel=1e-12)


def test_train_learns_noiseless_planted_data():
    dataset, _ = _tiny_dataset(seed=11, videos=40, subjects=8, m=10, dim=6, noise=0.0)
    net = build_mil_net(6, hidden=(32, 16), pooling="mean", seed=0)
    trained, trace = train(
        net, dataset, TrainConfig(step_size=0.01, epochs=200, batch_size=8, seed=0)
    )
    assert trace[-1] < 0.05
    assert trace[-1] < trace[0]


def test_train_divergence_raises_a_numeric_error_naming_the_epoch():
    dataset, _ = _tiny_dataset(seed=2)
    net = build_mil_net(5, hidden=(8, 6), pooling="mean", seed=0)
    config = TrainConfig(
        step_size=1e20, epochs=50, batch_size=4, clip_norm=float("inf")
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"^non-finite loss at epoch \d+$"):
            train(net, dataset, config)


def test_predict_score_rescales_when_label_scaling_is_active():
    net = build_seq_net(3, m=4, hidden=3, dense=(5, 4), seed=1)
    bag = np.random.default_rng(10).normal(size=(4, 3))
    raw, _ = _seq_score(net, bag)
    assert net.predict_bags(_one_bag(bag))[0] == pytest.approx(3.0 * raw, abs=1e-12)
    net_mil = build_mil_net(3, hidden=(4,), k=3, seed=1)
    assert (SeqNet.LABEL_SCALE, MilNet.LABEL_SCALE) == (3, 1)
    mil_bag = np.random.default_rng(11).normal(size=(6, 3))
    assert net_mil.predict_bags(_one_bag(mil_bag))[0] == _mil_forward(net_mil, mil_bag)[0]


# ---------------------------------------------------------------------------
# localization


def test_localize_milnet_returns_the_ranking_outputs():
    rng = np.random.default_rng(12)
    net = build_mil_net(4, hidden=(6, 5), pooling="topk", k=3, seed=5)
    bag = rng.normal(size=(9, 4))
    _, intensities = _mil_forward(net, bag)
    located = net.localize_bags(_one_bag(bag))[0]
    assert np.array_equal(located, intensities)
    assert len(located) == 9


def test_localize_seqnet_matches_manual_zeroed_attribution():
    rng = np.random.default_rng(13)
    net = build_seq_net(3, m=5, hidden=4, dense=(6, 5), seed=3)
    bag = rng.normal(size=(5, 3))
    _, hs = _seq_score(net, bag)
    located = net.localize_bags(_one_bag(bag))[0]
    assert len(located) == 5
    for j in range(5):
        flat = np.zeros(5 * 4)
        flat[j * 4 : (j + 1) * 4] = hs[j]
        h = flat
        for layer in net.dense:
            h = 1.0 / (1.0 + np.exp(-(layer.weights @ h + layer.bias)))
        assert located[j] == pytest.approx(3.0 * float(h.mean()), abs=1e-12)


def test_localize_seqnet_rescales_with_label_scaling():
    rng = np.random.default_rng(14)
    net = build_seq_net(3, m=4, hidden=3, dense=(5, 4), seed=6)
    bag = _one_bag(rng.normal(size=(4, 3)))
    _, plain = net.forward(bag.tensor(), intensities=True)
    assert np.array_equal(net.localize_bags(bag), 3.0 * plain)


# ---------------------------------------------------------------------------
# persistence and validation


def test_mil_net_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    net = build_mil_net(5, hidden=(8, 6), pooling="topk", k=4, seed=8)
    save_net(net, tmp_path / "net.emnn", meta={"feature_kind": "synthetic"})
    loaded, meta = load_net(tmp_path / "net.emnn")
    assert meta == {"feature_kind": "synthetic"}
    assert isinstance(loaded, MilNet)
    assert (loaded.pooling, loaded.k) == ("topk", 4)
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert np.array_equal(a, b)
    bag = rng.normal(size=(7, 5))
    assert _mil_forward(loaded, bag)[0] == _mil_forward(net, bag)[0]


def test_seq_net_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    net = build_seq_net(4, m=6, hidden=5, dense=(7, 6), seed=9)
    save_net(net, tmp_path / "net.emnn")
    loaded, meta = load_net(tmp_path / "net.emnn")
    assert isinstance(loaded, SeqNet)
    assert meta == {}
    bag = rng.normal(size=(6, 4))
    assert _seq_score(loaded, bag)[0] == _seq_score(net, bag)[0]


def test_load_net_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.emnn"
    bad.write_bytes(b"XXXX" + bytes(30))
    with pytest.raises(ParseError):
        load_net(bad)
    short = tmp_path / "short.emnn"
    net = build_mil_net(3, hidden=(4,), seed=0)
    save_net(net, short)
    short.write_bytes(short.read_bytes()[:-8])
    with pytest.raises(ParseError):
        load_net(short)


def _rewrite_header(path, edit):
    """Apply `edit` to the file's header; returns the message it must cause."""
    header, payload = split_model_file(path.read_bytes())
    header, match = edit(header)
    path.write_bytes(model_file_bytes(header, payload))
    return match


def _set(key, value, match):
    """An edit setting header[key], or header[section][name] for "section.name"."""

    def edit(header):
        *sections, name = key.split(".")
        target = header
        for section in sections:
            target = target[section]
        target[name] = value
        return header, match

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda header: ([header], "model header must be a JSON object"),
        lambda header: (
            {**header, "fields": {k: v for k, v in header["fields"].items() if k != "pooling"}},
            "mil model fields missing 'pooling'",
        ),
        _set("kind", "gru", "not a mil/seq model file"),
        _set("fields.k", 2.5, "bad 'k'"),
        _set("fields.label_scaling", 1, "bad 'label_scaling'"),
        _set("fields.activations", {"in": 3}, "bad 'activations'"),
        _set("fields.activations", ["relu"], "4 arrays do not fit 1 dense layers"),
        _set("shapes", [[4, -3], [4], [1, 4], [1]], "bad shape"),
        _set("fields.activations", ["relu", "tanh"], "unknown activation"),
        # the same 21 values as a seq net (D=1, H=1, m=1, head 2-1) whose
        # stacked (4, 2) gate weight is written as (2, 4)
        pytest.param(
            lambda header: (
                {
                    "kind": "seq",
                    "fields": {"activations": ["sigmoid"] * 3, "label_scaling": True, "m": 1},
                    "meta": {},
                    "shapes": [[2, 4], [4], [2, 1], [2], [1, 2], [1], [1, 1], [1]],
                },
                r"\(4H, D\+H\) gate weight .* not \(2, 4\) and \(4,\)",
            ),
            id="seq-gate-shape",
        ),
        # nets trained under the retired train.scale_labels override: a
        # scaled mil net, and the same 21 values as a well-formed seq net of
        # that size, unscaled
        pytest.param(
            _set("fields.label_scaling", True, "a mil model's label_scaling is false"),
            id="mil-scaled",
        ),
        pytest.param(
            lambda header: (
                {
                    "kind": "seq",
                    "fields": {"activations": ["sigmoid"] * 3, "label_scaling": False, "m": 1},
                    "meta": {},
                    "shapes": [[4, 2], [4], [2, 1], [2], [1, 2], [1], [1, 1], [1]],
                },
                "a seq model's label_scaling is true",
            ),
            id="seq-unscaled",
        ),
    ],
)
def test_load_net_rejects_a_bad_header(tmp_path, edit):
    path = tmp_path / "net.emnn"
    save_net(build_mil_net(3, hidden=(4,), seed=0), path)
    match = _rewrite_header(path, edit)
    with pytest.raises(ParseError, match=match):
        load_net(path)


@pytest.mark.parametrize(
    "edit",
    [
        _set("shapes", [[10**7, 10**7]], "payload size mismatch"),
        lambda header: (
            {
                "kind": "seq",
                "fields": {"activations": [], "label_scaling": True, "m": 1},
                "meta": {},
                "shapes": [[4 * 10**7, 2 * 10**7], [4 * 10**7]],
            },
            "payload size mismatch",
        ),
    ],
)
def test_load_net_checks_the_payload_size_before_allocating(tmp_path, edit):
    path = tmp_path / "net.emnn"
    save_net(build_mil_net(3, hidden=(4,), seed=0), path)
    match = _rewrite_header(path, edit)
    with pytest.raises(ParseError, match=match):
        load_net(path)


def test_net_construction_validation():
    with pytest.raises(ValueError, match="ranking"):
        MilNet([DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu")], "topk", 1)
    with pytest.raises(ValueError, match="chain"):
        MilNet(
            layers=[
                DenseLayer(np.zeros((4, 3)), np.zeros(4), "relu"),
                DenseLayer(np.zeros((1, 5)), np.zeros(1), "linear"),
            ],
            pooling="topk",
            k=1,
        )
    with pytest.raises(ValueError, match="pooling"):
        build_mil_net(3, pooling="max")
    with pytest.raises(ValueError, match="three"):
        SeqNet(
            lstm=build_seq_net(3, m=4, hidden=3).lstm,
            dense=[DenseLayer(np.zeros((4, 12)), np.zeros(4), "sigmoid")],
            m=4,
        )
    with pytest.raises(ValueError, match="activation"):
        DenseLayer(np.zeros((2, 2)), np.zeros(2), "tanh")
    with pytest.raises(ValueError, match=r"not \(6, 7\) and \(6,\)"):
        LstmLayer(np.zeros((6, 7)), np.zeros(6))
    with pytest.raises(ValueError, match=r"not \(12, 7\) and \(3,\)"):
        LstmLayer(np.zeros((12, 7)), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        LstmLayer(np.full((12, 7), np.inf), np.zeros(12))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(step_size=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)
