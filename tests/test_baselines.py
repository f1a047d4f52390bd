import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engage_mil import baselines
from engage_mil.bags import Bag, Dataset, read_model, write_model
from engage_mil.baselines import (
    GridSearchResult,
    LinearModel,
    RidgePosterior,
    SvrConfig,
    bayesian_ridge_train,
    gaussian_kernel,
    grid_search_svr,
    load_svr,
    sgd_linear_train,
    svr_predict_many,
    svr_train,
)
from engage_mil.errors import NumericError, ParseError

from oracles import (
    _box_hyperplane_root,
    _project_box_hyperplane,
    closed_form_ridge,
    model_file_bytes,
    qp_reference_svr,
    reference_smo_svr,
    ridge_mean_at,
)


def _random_problem(seed, n=None, dim=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(4, 26))
    dim = dim or int(rng.integers(1, 5))
    x = rng.normal(size=(n, dim))
    y = rng.uniform(0.0, 3.0, size=n)
    return x, y


# ---------------------------------------------------------------------------
# kernel regression


def test_svr_constant_labels_predict_the_constant():
    x = np.random.default_rng(0).normal(size=(10, 3))
    y = np.full(10, 1.7)
    model = svr_train(x, y, SvrConfig(c=1.0, epsilon=0.1))
    assert model.bias == pytest.approx(1.7, abs=1e-12)
    preds = svr_predict_many(model, x)
    assert np.allclose(preds, 1.7, atol=1e-9)


def test_svr_fits_a_smooth_curve_within_the_tube():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 2.0 * math.pi, 30)[:, None]
    y = np.sin(x[:, 0])
    model = svr_train(x, y, SvrConfig(c=100.0, epsilon=0.05, sigma=1.0))
    preds = svr_predict_many(model, x)
    assert np.abs(preds - y).max() < 0.05 + 1e-3
    fresh = rng.uniform(0.5, 5.5, size=(20, 1))
    assert np.abs(svr_predict_many(model, fresh) - np.sin(fresh[:, 0])).max() < 0.12


def test_qp_oracle_projection_is_feasible_and_matches_its_root():
    rng = np.random.default_rng(21)
    for _ in range(200):
        l = int(rng.integers(1, 30))
        c = float(rng.uniform(0.1, 8.0))
        v = rng.normal(size=2 * l) * 10.0 ** rng.uniform(-2, 2)
        s = np.concatenate([np.ones(l), -np.ones(l)])
        x = _project_box_hyperplane(v, s, c)
        lam = _box_hyperplane_root(v, s, c)
        assert ((x >= 0.0) & (x <= c)).all()
        assert abs(s @ x) <= 1e-12 * (1.0 + np.abs(v).max())
        assert np.array_equal(x, np.clip(v - lam * s, 0.0, c))


@pytest.mark.parametrize("seed", range(6))
def test_svr_agrees_with_dense_qp_reference(seed):
    x, y = _random_problem(seed)
    rng = np.random.default_rng(1000 + seed)
    c = float(rng.choice([0.5, 1.0, 5.0]))
    epsilon = float(rng.choice([0.05, 0.1, 0.3]))
    sigma = float(rng.uniform(0.6, 2.5))
    config = SvrConfig(c=c, epsilon=epsilon, sigma=sigma, tol=1e-4)
    model = svr_train(x, y, config)
    theta, bias, objective = qp_reference_svr(gaussian_kernel(x, x, sigma), y, c, epsilon)
    assert model.objective_trace[-1] == pytest.approx(objective, abs=1e-3)
    probe = np.concatenate([x, rng.normal(size=(8, x.shape[1]))])
    reference = gaussian_kernel(probe, x, sigma) @ theta + bias
    assert np.abs(svr_predict_many(model, probe) - reference).max() < 1e-3


def test_svr_objective_trace_never_decreases():
    x, y = _random_problem(11, n=20, dim=3)
    model = svr_train(x, y, SvrConfig(c=2.0, epsilon=0.05))
    trace = np.asarray(model.objective_trace)
    assert trace.size > 0
    assert (np.diff(trace) >= -1e-9).all()


def test_svr_dual_coefficients_respect_the_box_and_sum_to_zero():
    x, y = _random_problem(7, n=18, dim=2)
    c = 0.7
    model = svr_train(x, y, SvrConfig(c=c, epsilon=0.05))
    assert np.abs(model.coef).max() <= c + 1e-12
    assert abs(model.coef.sum()) < 1e-9


def test_svr_huge_sigma_collapses_to_the_bias():
    x, y = _random_problem(5, n=15, dim=3)
    model = svr_train(x, y, SvrConfig(c=1.0, epsilon=0.1, sigma=1e6))
    probe = np.random.default_rng(9).normal(size=(6, 3))
    assert np.allclose(svr_predict_many(model, probe), model.bias, atol=1e-4)


def test_svr_predict_rejects_wrong_dimension():
    x, y = _random_problem(2, n=8, dim=3)
    model = svr_train(x, y, SvrConfig())
    with pytest.raises(ValueError, match=r"expected \(n, 3\) inputs"):
        svr_predict_many(model, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        svr_predict_many(model, np.zeros((5, 2)))


def test_svr_rejects_nonfinite_inputs():
    x, y = _random_problem(4, n=6, dim=2)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        svr_train(bad, y, SvrConfig())
    with pytest.raises(ValueError, match="finite"):
        svr_train(x, np.where(np.arange(6) == 2, np.inf, y), SvrConfig())


def test_svr_config_validation():
    with pytest.raises(ValueError):
        SvrConfig(c=0.0)
    with pytest.raises(ValueError):
        SvrConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        SvrConfig(sigma=0.0)
    # the kernel divides by 2 sigma^2, which must neither overflow nor vanish
    for sigma in (-1.0, 2.0**512, 1e300, float("inf"), float("nan"), 2.0**-540, 5e-324):
        with pytest.raises(ValueError, match="sigma must be positive"):
            SvrConfig(sigma=sigma)
    SvrConfig(sigma=2.0**511)
    SvrConfig(epsilon=0.0)  # a zero-width tube is legal


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_svr_invariants_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    x = rng.normal(size=(n, 2))
    y = rng.uniform(0.0, 3.0, size=n)
    model = svr_train(x, y, SvrConfig(c=1.0, epsilon=0.1))
    assert np.abs(model.coef).max() <= 1.0 + 1e-12
    assert abs(model.coef.sum()) < 1e-9
    trace = np.asarray(model.objective_trace)
    if trace.size:
        assert (np.diff(trace) >= -1e-9).all()


def _reference_smo(x, y, config, warm=None):
    """reference_smo_svr's result for config; from `warm`'s scaled dual when
    it holds one (the last dual x C'/C, a variable at C set to C'), and
    leaving the final dual in `warm`."""
    start = None
    if warm is not None and warm.dual is not None:
        scaled = np.minimum(warm.dual * (config.c / warm.c), config.c)
        start = np.where(warm.dual == warm.c, config.c, scaled)
    result = reference_smo_svr(
        x, y, config.c, config.epsilon, config.sigma, config.tol, start=start
    )
    if warm is not None:
        warm.dual, warm.c = result[4], config.c
    return result


def _reference_svr_train(x, y, config, warm=None):
    sv, coef, bias, trace, _, _ = _reference_smo(x, y, config, warm)
    return baselines.SvrModel(sv, coef, bias, config, trace)


# (n, dim, c, epsilon, sigma); each case stresses one part of the step loop
SMO_CASES = {
    "small_c_many_at_bound": (40, 3, 0.01, 0.1, 1.0),
    "large_epsilon": (40, 3, 1.0, 1.2, 1.0),
    "kernel_cache_evicts": (600, 4, 5.0, 0.02, 0.7),  # touches > 512 rows
    "duplicate_rows_tie": (12, 2, 1.0, 0.1, 1.5),
    # a pair of identical rows has q = 0, below quad's 1e-12 clamp
    "split_labels_on_duplicate_rows": (15, 2, 1.0, 0.1, 1.5),
}


def _smo_case_problem(case):
    n, dim, c, epsilon, sigma = SMO_CASES[case]
    x, y = _random_problem(sorted(SMO_CASES).index(case) + 50, n=n, dim=dim)
    if case == "duplicate_rows_tie":  # identical rows and labels tie in argmax
        x, y = np.tile(x, (3, 1)), np.tile(np.round(y), 3)
    if case == "split_labels_on_duplicate_rows":  # each row twice, at y and 3 - y
        x, y = np.tile(x, (2, 1)), np.concatenate([y, 3.0 - y])
    return x, y, SvrConfig(c=c, epsilon=epsilon, sigma=sigma, tol=1e-4)


@pytest.mark.parametrize("case", sorted(SMO_CASES))
def test_svr_matches_reference_smo_bit_for_bit(case):
    x, y, config = _smo_case_problem(case)
    model = svr_train(x, y, config)
    reference = _reference_svr_train(x, y, config)
    assert len(model.objective_trace) > 0
    assert np.array_equal(model.coef, reference.coef)
    assert model.bias == reference.bias
    assert np.array_equal(model.support_vectors, reference.support_vectors)
    assert model.objective_trace == reference.objective_trace


@pytest.mark.parametrize("case", [*sorted(SMO_CASES), "warm_c_path"])
def test_svr_running_objective_tracks_the_recomputed_dual(case):
    """Each trace value, summed step by step, stays within rounding of
    -(a.g + a.p)/2 recomputed at the same iterate."""
    if case == "warm_c_path":
        x, y = _random_problem(61, n=120, dim=3)
        configs = [
            SvrConfig(c=c, epsilon=0.05, sigma=1.2, tol=1e-4)
            for c in (0.1, 1.0, 10.0)
        ]
    else:
        x, y, config = _smo_case_problem(case)
        configs = [config]
    path = baselines.SvrPath(baselines._KernelRows(x, configs[0].sigma, len(x)))
    reference_path = baselines.SvrPath(kernel=None)
    for config in configs:
        trace = svr_train(x, y, config, warm=path).objective_trace
        direct = _reference_smo(x, y, config, reference_path)[5]
        assert len(trace) == len(direct) > 0
        for value, exact in zip(trace, direct):
            assert abs(value - exact) <= 1e-9 * max(1.0, abs(value))


def test_svr_rejects_a_step_cap_below_one():
    x, y = _random_problem(3, n=10, dim=2)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            svr_train(x, y, SvrConfig(), max_iter=cap)


def test_svr_raises_convergence_error_at_its_step_cap():
    x, y = _random_problem(3, n=30, dim=2)
    config = SvrConfig(tol=1e-6)
    assert len(svr_train(x, y, config).objective_trace) > 5
    with pytest.raises(NumericError, match="after 5 steps"):
        svr_train(x, y, config, max_iter=5)


def test_svr_round_trip_preserves_predictions(tmp_path):
    x, y = _random_problem(21, n=14, dim=3)
    model = svr_train(x, y, SvrConfig(c=1.5, epsilon=0.05, sigma=1.3))
    path = tmp_path / "model.svr"
    write_model(path, model, meta={"feature_kind": "synthetic", "dim": 3})
    loaded, meta = load_svr(path)
    assert meta == {"feature_kind": "synthetic", "dim": 3}
    assert loaded.config == model.config and loaded.bias == model.bias
    assert np.array_equal(loaded.support_vectors, model.support_vectors)
    assert np.array_equal(loaded.coef, model.coef)
    probe = np.random.default_rng(0).normal(size=(10, 3))
    assert np.array_equal(svr_predict_many(loaded, probe), svr_predict_many(model, probe))


def test_svr_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.svr"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ParseError):
        load_svr(path)


def _model_file(path, base, change):
    """A model file holding `base` (a header) edited by `change`: its dotted
    keys set header entries (None removes one) and "payload" replaces the
    payload of 0.5s that the base shapes describe."""
    payload = b"".join(np.full(shape, 0.5, dtype="<f8").tobytes() for shape in base["shapes"])
    if change == "not-an-object":
        header = [base]
    else:
        header = json.loads(json.dumps(base))
        for key, value in change.items():
            if key == "payload":
                payload = value
                continue
            *parents, name = key.split(".")
            target = header
            for parent in parents:
                target = target[parent]
            if value is None:
                del target[name]
            else:
                target[name] = value
    path.write_bytes(model_file_bytes(header, payload))
    return path


_SVR = {
    "kind": "svr",
    "fields": {"bias": 0.5, "c": 1.0, "epsilon": 0.1, "sigma": 1.0, "tol": 1e-3},
    "meta": {},
    "shapes": [[1, 1], [1]],
}


@pytest.mark.parametrize(
    "change",
    [
        "not-an-object",
        ({"shapes": None}, "model header missing 'shapes'"),
        ({"shapes": [["1", 1], [1]]}, "bad shape"),
        ({"shapes": [[1, 1.5], [1]]}, "bad shape"),
        ({"fields.bias": True}, "bad 'bias'"),
        ({"fields.sigma": "wide"}, "bad 'sigma'"),
        ({"shapes": [[-1, 1], [-1]]}, "bad shape"),
        ({"fields.c": -1.0}, "C must be positive"),
        ({"fields.bias": 10**400}, "int too large to convert to float"),
    ],
)
def test_svr_load_rejects_a_bad_header(tmp_path, change):
    change, match = (change, "must be a JSON object") if isinstance(change, str) else change
    path = _model_file(tmp_path / "model.svr", _SVR, change)
    with pytest.raises(ParseError, match=match):
        load_svr(path)


# ---------------------------------------------------------------------------
# stochastic gradient linear model


def test_sgd_zero_epochs_returns_zero_model():
    x, y = _random_problem(1, n=10, dim=4)
    model, trace = sgd_linear_train(x, y, epochs=0)
    assert np.all(model.weights == 0.0) and model.bias == 0.0
    assert trace == []


def test_sgd_recovers_noiseless_weights_without_penalty():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 3))
    w_true = rng.normal(size=3)
    y = x @ w_true + 0.5
    model, trace = sgd_linear_train(x, y, penalty=0.0, epochs=600, seed=1)
    assert np.abs(model.weights - w_true).max() < 1e-3
    assert abs(model.bias - 0.5) < 1e-3
    assert trace[-1] < 1e-6


@pytest.mark.parametrize("seed,penalty", [(0, 1e-4), (1, 1e-4), (2, 1e-2)])
def test_sgd_converges_to_the_closed_form_ridge_solution(seed, penalty):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(20, 3))
    y = x @ rng.normal(size=3) + rng.normal()
    model, trace = sgd_linear_train(x, y, penalty=penalty, epochs=1500, seed=seed)
    w_ref, b_ref = closed_form_ridge(x, y, penalty)
    assert np.abs(model.weights - w_ref).max() < 1e-3
    assert abs(model.bias - b_ref) < 1e-3
    optimum = float(
        np.mean((x @ w_ref + b_ref - y) ** 2) + penalty * (w_ref @ w_ref)
    )
    assert trace[-1] <= 1.01 * optimum + 1e-12


def test_sgd_loss_trace_descends_overall():
    x, y = _random_problem(13, n=25, dim=3)
    _, trace = sgd_linear_train(x, y, epochs=50, seed=3)
    assert len(trace) == 50
    assert trace[-1] < trace[0]


def test_sgd_is_deterministic_for_a_seed():
    x, y = _random_problem(17, n=12, dim=2)
    first, trace_a = sgd_linear_train(x, y, epochs=20, seed=5)
    second, trace_b = sgd_linear_train(x, y, epochs=20, seed=5)
    assert np.array_equal(first.weights, second.weights)
    assert first.bias == second.bias
    assert trace_a == trace_b


def test_sgd_rejects_negative_penalty():
    x, y = _random_problem(0, n=5, dim=2)
    with pytest.raises(ValueError, match="penalty"):
        sgd_linear_train(x, y, penalty=-1.0)


def test_linear_instance_scores_shapes():
    model = LinearModel(weights=np.array([1.0, -2.0]), bias=0.5)
    out = model.instance_scores(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(out, [-0.5, 0.5])
    assert model.instance_scores(np.array([2.0, 0.5])).shape == (1,)


def test_linear_model_rejects_nonfinite_parameters():
    with pytest.raises(ValueError):
        LinearModel(weights=np.array([np.nan]), bias=0.0)


# ---------------------------------------------------------------------------
# evidence-maximized ridge


def test_ridge_zero_feature_gives_exactly_zero_mean():
    x = np.zeros((12, 1))
    y = np.random.default_rng(0).uniform(0, 3, size=12)
    posterior = bayesian_ridge_train(x, y)
    assert posterior.mean[0] == 0.0
    assert posterior.intercept == pytest.approx(float(y.mean()))


def test_ridge_noise_precision_grows_on_noiseless_data():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 3))
    y = x @ np.array([1.0, -0.5, 2.0]) + 0.3
    posterior = bayesian_ridge_train(x, y)
    assert posterior.beta > 1e3
    assert np.abs(posterior.instance_scores(x) - y).max() < 1e-3


def test_ridge_mean_solves_the_normal_equations_at_converged_precisions():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(25, 4))
    y = x @ rng.normal(size=4) + rng.normal(scale=0.3, size=25)
    posterior = bayesian_ridge_train(x, y)
    direct = ridge_mean_at(x, y, posterior.alpha, posterior.beta)
    assert np.abs(posterior.mean - direct).max() < 1e-10


def test_ridge_without_intercept_matches_uncentered_solve():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(15, 2))
    y = x @ np.array([0.7, -1.1]) + rng.normal(scale=0.1, size=15)
    posterior = bayesian_ridge_train(x, y, fit_intercept=False)
    assert posterior.intercept == 0.0
    direct = ridge_mean_at(x, y, posterior.alpha, posterior.beta, fit_intercept=False)
    assert np.abs(posterior.mean - direct).max() < 1e-10


def test_ridge_posterior_validation():
    with pytest.raises(ValueError):
        RidgePosterior(mean=np.zeros(2), alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        RidgePosterior(mean=np.array([np.inf]), alpha=1.0, beta=1.0)


def test_linear_and_ridge_round_trips(tmp_path):
    model = LinearModel(weights=np.array([0.25, -1.5]), bias=3.0)
    write_model(tmp_path / "lin.bin", model, meta={"feature_kind": "lbp-top"})
    loaded, meta = read_model(tmp_path / "lin.bin", (LinearModel,))
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias and meta == {"feature_kind": "lbp-top"}

    posterior = RidgePosterior(mean=np.array([1.0, 2.0]), alpha=0.5, beta=9.0, intercept=-1.0)
    write_model(tmp_path / "ridge.bin", posterior)
    back, meta = read_model(tmp_path / "ridge.bin", (RidgePosterior,))
    assert np.array_equal(back.mean, posterior.mean)
    assert (back.alpha, back.beta, back.intercept) == (0.5, 9.0, -1.0)
    assert meta == {}

    with pytest.raises(ParseError, match="not a ridge model file"):
        read_model(tmp_path / "lin.bin", (RidgePosterior,))
    with pytest.raises(ParseError, match="not a linear model file"):
        read_model(tmp_path / "ridge.bin", (LinearModel,))


_LINEAR = {"kind": "linear", "fields": {"bias": 3.0}, "meta": {}, "shapes": [[2]]}
_RIDGE = {
    "kind": "ridge",
    "fields": {"alpha": 0.5, "beta": 9.0, "intercept": 0.0},
    "meta": {},
    "shapes": [[1]],
}


@pytest.mark.parametrize(
    "model_class,base,change",
    [
        (LinearModel, _LINEAR, "not-an-object"),
        (LinearModel, _LINEAR, ({"shapes": [], "payload": b""}, "expected 1, got 0")),
        (LinearModel, _LINEAR, ({"fields.bias": None}, "missing 'bias'")),
        (LinearModel, _LINEAR, ({"shapes": [["2"]]}, "bad shape")),
        (LinearModel, _LINEAR, ({"shapes": [[1, 2]]}, "weights must be a vector")),
        (LinearModel, _LINEAR, ({"fields.bias": True}, "bad 'bias'")),
        (LinearModel, _LINEAR, ({"fields.bias": "3"}, "bad 'bias'")),
        (LinearModel, _LINEAR, ({"fields.bias": float("nan")}, "non-finite number NaN")),
        (LinearModel, _LINEAR, ({"meta": [1]}, "bad 'meta'")),
        (RidgePosterior, _RIDGE, "not-an-object"),
        (RidgePosterior, _RIDGE, ({"fields.alpha": None}, "missing 'alpha'")),
        (RidgePosterior, _RIDGE, ({"fields.alpha": 0.0}, "alpha and beta must be positive")),
        (RidgePosterior, _RIDGE, ({"shapes": [[]]}, "posterior mean must be a vector")),
        (RidgePosterior, _RIDGE, ({"payload": np.array([np.inf]).tobytes()}, "must be finite")),
        (RidgePosterior, _RIDGE, ({"kind": "linear"}, "not a ridge model file")),
    ],
    ids=lambda value: f"load_{value.KIND}" if isinstance(value, type) else None,
)
def test_json_model_load_rejects_bad_fields(tmp_path, model_class, base, change):
    """Linear and ridge models (once JSON files) refuse each bad header entry."""
    change, match = (change, "must be a JSON object") if isinstance(change, str) else change
    path = _model_file(tmp_path / "model.bin", base, change)
    with pytest.raises(ParseError, match=match):
        read_model(path, (model_class,))


# ---------------------------------------------------------------------------
# serving


def _linear_bags(rng, m):
    model = LinearModel(rng.normal(size=3), 0.5)
    bags = [Bag(f"v{i}", f"s{i}", rng.uniform(0, 3, size=(m, 3)), i % 4) for i in range(5)]
    return model, bags


def test_aggregate_video_is_the_mean():
    """A video's score from predict_bags is the mean of its segments'
    predictions, the same bits as the 1-D mean of its localize_bags row."""
    rng = np.random.default_rng(5)
    m = 100
    model, bags = _linear_bags(rng, m)
    dataset = Dataset(bags, "synthetic", m)
    scores = model.predict_bags(dataset)
    for row, score in zip(model.localize_bags(dataset), scores):
        assert score == row.mean()
        assert score == pytest.approx(math.fsum(row) / m, abs=1e-12)


def test_aggregate_video_permutation_invariant():
    """A video's score does not move when its segments come in another order."""
    rng = np.random.default_rng(6)
    m = 57
    model, bags = _linear_bags(rng, m)
    scores = model.predict_bags(Dataset(bags, "synthetic", m))
    shuffled = [Bag(b.video_id, b.subject_id, b.instances[rng.permutation(m)], b.label) for b in bags]
    assert model.predict_bags(Dataset(shuffled, "synthetic", m)) == pytest.approx(scores, abs=1e-12)


# ---------------------------------------------------------------------------
# grid search


def _toy_dataset(n_subjects=4, bags_per_subject=2, m=4, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    bags = []
    for s in range(n_subjects):
        for v in range(bags_per_subject):
            label = (s + v) % 4
            base = rng.normal(size=(m, dim)) * 0.2 + label
            bags.append(
                Bag(
                    video_id=f"v{s}_{v}",
                    subject_id=f"s{s}",
                    instances=base,
                    label=label,
                )
            )
    return Dataset(bags=bags, feature_kind="synthetic", m=m)


def _broadcast_labeling(dataset):
    return np.repeat(
        np.array([bag.label for bag in dataset.bags], dtype=np.float64)[:, None],
        dataset.m,
        axis=1,
    )


def test_grid_search_prefers_an_informative_kernel_width():
    dataset = _toy_dataset(seed=3)
    labeling = _broadcast_labeling(dataset)
    result = grid_search_svr(dataset, labeling, [1.0], [1.0, 1e4], folds=2, seed=0)
    assert result.table.shape == (1, 2)
    assert result.table[0, 0] < result.table[0, 1]
    assert result.sigma == 1.0 and result.c == 1.0


def test_grid_search_breaks_ties_toward_smaller_parameters():
    dataset = _toy_dataset(seed=1)
    # constant labels => every cell scores identically (zero error)
    labeling = np.full((len(dataset), dataset.m), 2.0)
    constant_bags = [
        Bag(bag.video_id, bag.subject_id, bag.instances, 2) for bag in dataset.bags
    ]
    constant = Dataset(bags=constant_bags, feature_kind="synthetic", m=dataset.m)
    result = grid_search_svr(constant, labeling, [10.0, 1.0], [4.0, 1.0], folds=2, seed=0)
    assert np.allclose(result.table, result.table[0, 0])
    assert (result.c, result.sigma) == (1.0, 1.0)


def test_grid_search_validates_fold_count():
    dataset = _toy_dataset(n_subjects=3)
    labeling = _broadcast_labeling(dataset)
    with pytest.raises(ValueError, match="folds"):
        grid_search_svr(dataset, labeling, [1.0], [1.0], folds=4)
    with pytest.raises(ValueError, match="folds"):
        grid_search_svr(dataset, labeling, [1.0], [1.0], folds=1)


def test_grid_search_rejects_mismatched_labeling():
    dataset = _toy_dataset()
    bad = np.zeros((len(dataset), dataset.m + 1))
    with pytest.raises(ValueError, match="labeling"):
        grid_search_svr(dataset, bad, [1.0], [1.0], folds=2)


def test_grid_search_keeps_each_subject_in_exactly_one_validation_fold(monkeypatch):
    dataset = _toy_dataset(n_subjects=5, bags_per_subject=3)
    labeling = _broadcast_labeling(dataset)
    calls = []

    def fake_train(x, y, config, **kwargs):
        calls.append(("train", x.shape[0]))
        return "sentinel"

    def fake_predict(model, xs):
        calls.append(("predict", id(xs)))
        return np.zeros(len(xs))

    monkeypatch.setattr(baselines, "svr_train", fake_train)
    monkeypatch.setattr(baselines, "svr_predict_many", fake_predict)
    grid_search_svr(dataset, labeling, [1.0], [1.0], folds=3, seed=2)

    by_instance_id = {id(bag.instances): bag for bag in dataset.bags}
    folds, current = [], None
    for kind, payload in calls:
        if kind == "train":
            current = []
            folds.append(current)
        else:
            current.append(by_instance_id[payload])
    assert len(folds) == 3
    seen_videos = [bag.video_id for fold in folds for bag in fold]
    assert sorted(seen_videos) == sorted(bag.video_id for bag in dataset.bags)
    subject_sets = [{bag.subject_id for bag in fold} for fold in folds]
    for a in range(3):
        for b in range(a + 1, 3):
            assert not (subject_sets[a] & subject_sets[b])
    # every fitting matrix is complement-sized: total rows minus validation rows
    total = sum(bag.m for bag in dataset.bags)
    for fold, (kind, rows) in zip(folds, [c for c in calls if c[0] == "train"]):
        assert rows == total - sum(bag.m for bag in fold)


def test_grid_search_table_matches_reference_smo_exactly(monkeypatch):
    dataset = _toy_dataset(n_subjects=4, bags_per_subject=3, m=5, seed=4)
    labeling = _broadcast_labeling(dataset)
    args = (dataset, labeling, [0.1, 1.0, 10.0], [0.5, 2.0])
    result = grid_search_svr(*args, folds=2, seed=1)
    monkeypatch.setattr(baselines, "svr_train", _reference_svr_train)
    reference = grid_search_svr(*args, folds=2, seed=1)
    assert np.array_equal(result.table, reference.table)
    assert (result.c, result.sigma) == (reference.c, reference.sigma)


def _dense_kkt_violation(x, y, config, dual):
    """max over the up set minus min over the low set of -s*g, with
    g = Qa + p from the full kernel matrix."""
    l, c = len(y), config.c
    k = gaussian_kernel(x, x, config.sigma)
    theta = dual[:l] - dual[l:]
    g = np.concatenate([k @ theta, -(k @ theta)]) + np.concatenate(
        [config.epsilon - y, config.epsilon + y]
    )
    s = np.concatenate([np.ones(l), -np.ones(l)])
    viol = -s * g
    up = ((s > 0) & (dual < c)) | ((s < 0) & (dual > 0))
    low = ((s > 0) & (dual > 0)) | ((s < 0) & (dual < c))
    return viol[up].max() - viol[low].min()


def test_svr_path_start_keeps_variables_at_the_bound_on_the_new_bound():
    path = baselines.SvrPath(kernel=None, dual=np.array([0.3, 0.1, 0.0, 0.3, 0.1]), c=0.3)
    assert path.start(0.9, 2).tolist() == [0.9, 0.1 * (0.9 / 0.3), 0.0, 0.9, 0.1 * (0.9 / 0.3)]
    assert 0.3 * (0.9 / 0.3) < 0.9  # plain scaling would leave them just inside the box


@pytest.mark.parametrize("seed", [0, 4, 11])
def test_grid_search_warm_solves_meet_kkt_at_tol(monkeypatch, seed):
    dataset = _toy_dataset(n_subjects=4, bags_per_subject=3, m=5, seed=seed)
    labeling = _broadcast_labeling(dataset)
    real_train = baselines.svr_train
    warm_solves = []

    def checked_train(x, y, config, **kwargs):
        warm = kwargs["warm"]
        started_warm = warm.dual is not None
        model = real_train(x, y, config, **kwargs)
        if started_warm:
            dual, l = warm.dual, len(y)
            balance = abs(dual[:l].sum() - dual[l:].sum())
            kkt = _dense_kkt_violation(x, y, config, dual)
            warm_solves.append((kkt, balance, dual.copy(), config.c))
        return model

    monkeypatch.setattr(baselines, "svr_train", checked_train)
    grid_search_svr(dataset, labeling, [10.0, 0.1, 1.0], [0.5, 2.0], folds=2, seed=1, tol=1e-3)
    assert len(warm_solves) == 2 * 2 * 2  # folds x sigmas x (C values after the first)
    for kkt, balance, dual, c in warm_solves:
        assert kkt < 1e-3
        assert balance < 1e-12  # s.a = 0 holds to rounding
        assert dual.min() >= 0.0 and dual.max() <= c


@pytest.mark.parametrize("seed", [0, 3, 4, 9])
def test_grid_search_warm_table_agrees_with_all_cold_solves(monkeypatch, seed):
    dataset = _toy_dataset(n_subjects=4, bags_per_subject=3, m=5, seed=seed)
    labeling = _broadcast_labeling(dataset)
    args = (dataset, labeling, [0.1, 1.0, 10.0], [0.5, 2.0])
    warm = grid_search_svr(*args, folds=2, seed=1)
    real_train = baselines.svr_train
    monkeypatch.setattr(
        baselines, "svr_train", lambda x, y, config, warm=None: real_train(x, y, config)
    )
    cold = grid_search_svr(*args, folds=2, seed=1)
    # at tol = 1e-3 the warm solves move the table by at most 6.7e-5 on
    # toy seeds 0-11
    assert np.abs(warm.table - cold.table).max() <= 1e-4
    # the same best cell, unless another cold cell lies within a fixed 1e-4
    # of the best (seed 0: two cells 2.5e-5 apart), when either may win
    near_best = cold.table <= cold.table.min() + 1e-4
    assert near_best[warm.c_grid.index(warm.c), warm.sigma_grid.index(warm.sigma)]
    if near_best.sum() == 1:
        assert (warm.c, warm.sigma) == (cold.c, cold.sigma)


def test_grid_search_is_deterministic():
    dataset = _toy_dataset(seed=9)
    labeling = _broadcast_labeling(dataset)
    first = grid_search_svr(dataset, labeling, [0.5, 1.0], [1.0, 2.0], folds=2, seed=7)
    second = grid_search_svr(dataset, labeling, [0.5, 1.0], [1.0, 2.0], folds=2, seed=7)
    assert np.array_equal(first.table, second.table)
    assert (first.c, first.sigma) == (second.c, second.sigma)
    assert isinstance(first, GridSearchResult)

