"""Classical per-instance regressors and segment-to-video aggregation.

The instance labels these models consume come from a relabeling strategy
(bag-label broadcast or cluster statistics); a video's prediction is the
mean of its per-segment predictions.  The kernel machine is trained by a
pairwise coordinate (SMO-style) ascent on the standard 2l-variable dual of
epsilon-insensitive regression.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import bags
from .bags import Dataset, Serving, read_model
from .errors import ConfigError, DataError, NumericError
from .textio import JSON_NUMBER


@dataclass(frozen=True)
class SvrConfig:
    c: float = 1.0
    epsilon: float = 0.1
    sigma: float = 1.0  # the Gaussian kernel's width
    tol: float = 1e-3

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("C must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        # the kernel divides by 2 sigma^2, which must neither overflow nor vanish
        if not (self.sigma > 0 and 0.0 < 2.0 * self.sigma * self.sigma < math.inf):
            raise ValueError(f"sigma must be positive, with 2 sigma^2 finite and nonzero: {self.sigma!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class SvrModel(Serving):
    support_vectors: np.ndarray  # (n_sv, dim)
    coef: np.ndarray  # (n_sv,) alpha - alpha*
    bias: float
    config: SvrConfig
    objective_trace: list[float] = field(default_factory=list, repr=False)

    KIND = "svr"
    FIELDS = dict.fromkeys(("bias", "c", "epsilon", "sigma", "tol"), JSON_NUMBER)
    TRACE_HEADER = ("step", "objective")

    def __post_init__(self):
        if self.support_vectors.ndim != 2 or self.coef.shape != (len(self.support_vectors),):
            raise ValueError("support vectors must be (n_sv, dim) with one coefficient each")
        self._kernel = np.empty((2, 0, 0))  # svr_predict_many's buffers: one call at a time

    @classmethod
    def fit(cls, dataset: Dataset, config):
        """(model, dual objective trace) of an SMO solve on the relabeled instances."""
        x, y = _instance_data(dataset, config)
        if len(x) < 2:
            raise DataError(f"{config.dataset}: svr needs at least 2 instances")
        model = svr_train(x, y, config.svr_config)
        return model, model.objective_trace

    def to_file(self):
        fields = {"bias": self.bias, **vars(self.config)}
        return self.KIND, fields, [self.support_vectors, self.coef]

    @classmethod
    def from_file(cls, fields, arrays):
        support_vectors, coef = arrays
        config = SvrConfig(*(float(fields[key]) for key in ("c", "epsilon", "sigma", "tol")))
        return cls(support_vectors, coef, float(fields["bias"]), config)

    @property
    def in_dim(self):
        return self.support_vectors.shape[1]

    def instance_scores(self, xs) -> np.ndarray:
        return svr_predict_many(self, xs)


@dataclass
class LinearModel(Serving):
    weights: np.ndarray
    bias: float

    KIND = "sgd"
    FIELDS = {"bias": JSON_NUMBER}

    @classmethod
    def fit(cls, dataset: Dataset, config):
        """(model, epoch loss trace) of SGD on the relabeled instances."""
        return sgd_linear_train(*_instance_data(dataset, config), seed=config.seed, **config.sgd)

    def to_file(self):
        return self.KIND, {"bias": self.bias}, [self.weights]

    @classmethod
    def from_file(cls, fields, arrays):
        (weights,) = arrays
        return cls(weights, float(fields["bias"]))

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise ValueError("weights must be a vector")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")

    @property
    def in_dim(self):
        return self.weights.shape[0]

    def instance_scores(self, xs) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        return xs @ self.weights + self.bias


@dataclass
class RidgePosterior(Serving):
    mean: np.ndarray  # posterior mean weights
    alpha: float  # weight precision
    beta: float  # noise precision
    intercept: float = 0.0

    KIND = "ridge"
    FIELDS = dict.fromkeys(("alpha", "beta", "intercept"), JSON_NUMBER)

    @classmethod
    def fit(cls, dataset: Dataset, config):
        """(posterior, empty trace) of evidence maximization on the relabeled instances."""
        return bayesian_ridge_train(*_instance_data(dataset, config), **config.ridge), []

    def to_file(self):
        return self.KIND, {key: getattr(self, key) for key in self.FIELDS}, [self.mean]

    @classmethod
    def from_file(cls, fields, arrays):
        (mean,) = arrays
        return cls(mean, *(float(fields[key]) for key in cls.FIELDS))

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if self.mean.ndim != 1:
            raise ValueError("posterior mean must be a vector")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not np.isfinite(self.mean).all():
            raise ValueError("posterior mean must be finite")

    @property
    def in_dim(self):
        return self.mean.shape[0]

    def instance_scores(self, xs) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        return xs @ self.mean + self.intercept


def _instance_data(dataset: Dataset, config):
    """The dataset's instances and their labels under the config's relabeling."""
    x, assignments = dataset.instance_matrix(), None
    if config.relabel != "noisy":
        if config.kmeans_k > len(x):
            raise ConfigError(f"kmeans_k {config.kmeans_k} exceeds the instance count {len(x)}")
        # called through the module: perfbench's tracer rebinds them there
        assignments = bags.kmeans(x, config.kmeans_k, seed=config.seed).assignments
    return x, bags.relabel(dataset, config.relabel, assignments).reshape(-1)


@dataclass
class GridSearchResult:
    c: float
    sigma: float
    table: np.ndarray  # (len(c_grid), len(sigma_grid)) validation video MSE
    c_grid: list[float]
    sigma_grid: list[float]


# ---------------------------------------------------------------------------
# kernel machinery


class _KernelRows:
    """Row-on-demand Gaussian kernel with a small LRU cache.

    SMO touches two rows per step, so caching beats materializing the full
    matrix once the training set grows.
    """

    def __init__(self, points: np.ndarray, sigma: float, max_rows: int = 512):
        self._points = points
        # 2.0 * points @ x binds as (2.0 * points) @ x: scale the matrix once
        self._twice = 2.0 * points
        self._sq = (points**2).sum(axis=1)
        self._neg_den = -(2.0 * sigma**2)  # (-d2) / den is d2 / (-den), bit for bit
        self._max_rows = max_rows
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()

    def row(self, i: int) -> np.ndarray:
        cached = self._rows.get(i)
        if cached is not None:
            self._rows.move_to_end(i)
            return cached
        # exp(-max(|x_i|^2 + |x|^2 - 2 x.x_i, 0) / den), one buffer
        row = self._sq[i] + self._sq
        row -= self._twice @ self._points[i]
        np.maximum(row, 0.0, out=row)
        row /= self._neg_den
        np.exp(row, out=row)
        self._rows[i] = row
        if len(self._rows) > self._max_rows:
            self._rows.popitem(last=False)
        return row


@dataclass
class SvrPath:
    """What one solve hands the next along a C path at fixed points and sigma:
    the kernel-row cache, and the last solve's dual a and its C."""

    kernel: _KernelRows
    dual: np.ndarray | None = None
    c: float = 0.0

    def start(self, c: float, l: int) -> np.ndarray:
        """The last dual scaled by c / C, the 2l zeros before the first solve.

        Scaling keeps s.a = 0, and a variable at C lands exactly on c.
        """
        if self.dual is None:
            return np.zeros(2 * l)
        a = np.minimum(self.dual * (c / self.c), c)
        a[self.dual == self.c] = c
        return a


# ---------------------------------------------------------------------------
# epsilon-SVR via pairwise coordinate updates


def _check_training_inputs(instances, labels):
    x = np.asarray(instances, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("instances must be a 2-D matrix")
    if y.shape != (x.shape[0],):
        raise ValueError(f"{x.shape[0]} instances but {y.shape} labels")
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature values")
    if not np.isfinite(y).all():
        raise ValueError("non-finite labels")
    return x, y


def svr_train(
    instances,
    labels,
    config: SvrConfig,
    max_iter: int = 200_000,
    *,
    warm: SvrPath | None = None,
) -> SvrModel:
    """Solve the dual with maximal-violating-pair coordinate steps.

    Variables a = [alpha; alpha*] live in [0, C]^(2l) under s.a = 0 with
    s = [1; -1].  Each step picks the most violating (up, low) pair, solves
    the two-variable subproblem exactly and clips to the box, so the dual
    objective never worsens; iteration stops once the worst KKT violation
    drops below config.tol.

    The solve runs on `warm`, an SvrPath over these instances and sigma, or
    on a new one: it uses the path's kernel rows, starts from its start(C)
    (a = 0 on a new path) with g = Qa + p summed once over the start's
    nonzero alpha - alpha*, and leaves its final dual in the path.  A warm
    solve stops at another point inside the same tolerance, so its model can
    differ from a cold solve's by tol-scale amounts.

    The violations -s*g live in one (2, 2l) array: row 0 (up_v) where
    s_k*a_k can still grow (the up set), -inf elsewhere, row 1 (low_v) where
    it can still shrink (the low set), +inf elsewhere; the pair is
    up_v.argmax() and low_v.argmin().  As C > 0, every variable is in a set,
    so its violation is its finite entry, and g_i = -s_i*up_v_i, g_j =
    -s_j*low_v_j.  A step moves all four halves by t = s_i*d*(k_i - k_j) in
    one in-place subtraction, then refreshes entries i and j, the only ones
    that can change set.  Negation is exact, so the pairs and iterates are
    those of recomputing g, -s*g and both masks every step, bit for bit.

    The trace holds the dual objective -f after each step, f = 1/2 a'Qa +
    p'a kept as a running sum: 1/2 (a.g + a.p) at the start, exactly 0 at
    a = 0, and each step adds d*(g_i - ss*g_j) + 1/2 d^2 q with the
    unclamped q = K_ii + K_jj - 2 K_ij, which is exact in real arithmetic
    (Fan, Chen & Lin, JMLR 2005).  It drifts from a recomputed objective
    only by rounding, far below tol.
    """
    x, y = _check_training_inputs(instances, labels)
    l = x.shape[0]
    if l < 2:
        raise ValueError("need at least 2 training instances")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    c, eps, tol = config.c, config.epsilon, config.tol
    path = SvrPath(_KernelRows(x, config.sigma)) if warm is None else warm
    kernel, a = path.kernel, path.start(c, l)

    s = np.concatenate([np.ones(l), -np.ones(l)])
    p = np.concatenate([eps - y, eps + y])
    theta = a[:l] - a[l:]
    k_theta = np.zeros(l)
    for k in np.flatnonzero(theta):
        k_theta += theta[k] * kernel.row(k)
    g = p + np.concatenate([k_theta, -k_theta])  # gradient of 1/2 a'Qa + p'a
    f = float(0.5 * (a.dot(g) + a.dot(p)))
    w = np.empty((2, 2 * l))
    up_v, low_v = w
    viol = -s * g
    below_c, above_0 = a < c, a > 0
    up_v[:] = np.where(np.concatenate([below_c[:l], above_0[l:]]), viol, -np.inf)
    low_v[:] = np.where(np.concatenate([above_0[:l], below_c[l:]]), viol, np.inf)
    halves = w.reshape(4, l)
    t = np.empty(l)
    trace = []

    for _ in range(max_iter):
        i = int(up_v.argmax())
        j = int(low_v.argmin())
        m_val, big_m = up_v.item(i), low_v.item(j)
        if m_val - big_m < tol:
            break

        bi, bj = i % l, j % l
        si, sj = (1.0 if i < l else -1.0), (1.0 if j < l else -1.0)
        ki, kj = kernel.row(bi), kernel.row(bj)
        q = ki.item(bi) + kj.item(bj) - 2.0 * ki.item(bj)
        quad = max(q, 1e-12)
        ss = si * sj
        gi, gj = -si * m_val, -sj * big_m
        d = -(gi - ss * gj) / quad
        ai, aj = a.item(i), a.item(j)
        d_lo = max(-ai, (aj - c) if ss > 0 else -aj)
        d_hi = min(c - ai, aj if ss > 0 else c - aj)
        d = min(max(d, d_lo), d_hi)

        ai, aj = ai + d, aj - ss * d
        a[i], a[j] = ai, aj
        f += d * (gi - ss * gj) + 0.5 * d * d * q
        np.subtract(ki, kj, out=t)
        t *= si * d
        halves -= t
        for k, ak in ((i, ai), (j, aj)):
            v = up_v.item(k)
            v = low_v.item(k) if v == -np.inf else v
            can_rise, can_fall = (ak < c, ak > 0) if k < l else (ak > 0, ak < c)
            up_v[k] = v if can_rise else -np.inf
            low_v[k] = v if can_fall else np.inf
        trace.append(-f)  # the dual (maximization) objective
    else:
        raise NumericError(f"KKT violation {m_val - big_m:.3e} after {max_iter} steps")

    path.dual, path.c = a, c
    theta = a[:l] - a[l:]
    bias = (m_val + big_m) / 2.0
    keep = theta != 0.0
    if not keep.any():  # degenerate but legal: the bias carries everything
        keep[:1] = True
    return SvrModel(
        support_vectors=x[keep].copy(),
        coef=theta[keep],
        bias=bias,
        config=config,
        objective_trace=trace,
    )


def svr_predict_many(model: SvrModel, xs) -> np.ndarray:
    """sum_j coef_j exp(-max(|x|^2 + |sv_j|^2 - 2 x.sv_j, 0) / 2 sigma^2) + bias
    per row x, the kernel built in two (n, n_sv) buffers kept while n repeats,
    as in serving's blocks: fresh temporaries cost page faults at each block."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.in_dim:
        raise ValueError(f"expected (n, {model.in_dim}) inputs, got {xs.shape}")
    sv = model.support_vectors
    if model._kernel.shape[1:] != (len(xs), len(sv)):
        model._kernel = np.empty((2, len(xs), len(sv)))
    k, cross = model._kernel
    np.add((xs**2).sum(axis=1)[:, None], (sv**2).sum(axis=1)[None, :], out=k)
    np.matmul(2.0 * xs, sv.T, out=cross)
    k -= cross
    np.maximum(k, 0.0, out=k)
    k /= -(2.0 * model.config.sigma**2)  # (-d2) / den is d2 / (-den), bit for bit
    np.exp(k, out=k)
    return k @ model.coef + model.bias


# ---------------------------------------------------------------------------
# linear baselines


def sgd_linear_train(
    instances,
    labels,
    penalty: float = 1e-4,
    epochs: int = 200,
    eta0: float = 0.01,
    seed: int = 0,
) -> tuple[LinearModel, list[float]]:
    """Stochastic gradient descent on mean squared error + penalty*||w||^2.

    One sample per step, per-epoch reshuffling from the seed, inverse
    scaling steps eta_t = eta0 / (1 + eta0 * penalty * t).  Returns the
    final model and the end-of-epoch loss trace.
    """
    x, y = _check_training_inputs(instances, labels)
    if penalty < 0:
        raise ValueError("penalty must be nonnegative")
    n, dim = x.shape
    w = np.zeros(dim)
    b = 0.0
    rng = np.random.default_rng(seed)
    trace = []
    t = 0
    for _ in range(epochs):
        for idx in rng.permutation(n):
            eta = eta0 / (1.0 + eta0 * penalty * t)
            err = x[idx] @ w + b - y[idx]
            w -= eta * (2.0 * err * x[idx] + 2.0 * penalty * w)
            b -= eta * 2.0 * err
            t += 1
        residuals = x @ w + b - y
        loss = float(residuals @ residuals / n + penalty * (w @ w))
        if not math.isfinite(loss):
            raise NumericError(
                f"sgd loss became non-finite after {len(trace) + 1} epochs "
                "(step size too large for this feature scale?)"
            )
        trace.append(loss)
    return LinearModel(weights=w, bias=b), trace


def bayesian_ridge_train(
    instances,
    labels,
    max_iter: int = 300,
    tol: float = 1e-6,
    fit_intercept: bool = True,
) -> RidgePosterior:
    """Evidence maximization for a Gaussian linear model.

    Alternates the posterior mean m = beta (beta X'X + alpha I)^-1 X'y with
    the effective-degrees-of-freedom updates of alpha (weight precision)
    and beta (noise precision), from alpha = beta = 1, until both stop
    moving.  Tiny additive/floor terms keep zero-signal systems finite.
    """
    x, y = _check_training_inputs(instances, labels)
    n, dim = x.shape
    if fit_intercept:
        x_mean, y_mean = x.mean(axis=0), float(y.mean())
        xc, yc = x - x_mean, y - y_mean
    else:
        x_mean, y_mean = np.zeros(dim), 0.0
        xc, yc = x, y
    gram = xc.T @ xc
    xty = xc.T @ yc
    eigvals = np.clip(np.linalg.eigvalsh(gram), 0.0, None)

    alpha = beta = 1.0
    identity = np.eye(dim)
    floor = 1e-10
    for _ in range(max_iter):
        m = np.linalg.solve(beta * gram + alpha * identity, beta * xty)
        gamma = float((beta * eigvals / (alpha + beta * eigvals)).sum())
        residuals = yc - xc @ m
        alpha_new = max((gamma + floor) / (float(m @ m) + floor), floor)
        beta_new = max((n - gamma + floor) / (float(residuals @ residuals) + floor), floor)
        settled = abs(alpha_new - alpha) <= tol * max(1.0, alpha) and abs(
            beta_new - beta
        ) <= tol * max(1.0, beta)
        alpha, beta = alpha_new, beta_new
        if settled:
            break
    m = np.linalg.solve(beta * gram + alpha * identity, beta * xty)
    intercept = y_mean - float(x_mean @ m)
    return RidgePosterior(mean=m, alpha=alpha, beta=beta, intercept=intercept)


# ---------------------------------------------------------------------------
# model selection


def grid_search_svr(
    train: Dataset,
    labels: np.ndarray,
    c_grid,
    sigma_grid,
    folds: int = 3,
    seed: int = 0,
    epsilon: float = SvrConfig.epsilon,
    tol: float = SvrConfig.tol,
) -> GridSearchResult:
    """Subject-independent cross-validation over a (C, sigma) grid.

    `labels` are the (n_bags, m) instance labels (see bags.relabel).  Folds
    partition subjects, never videos, so no person straddles a fold
    boundary.  Each cell's score is the pooled video-level MSE over all
    validation videos; ties prefer smaller C, then smaller sigma.

    Each (fold, sigma) column is solved as one path in ascending C over one
    kernel-row cache: every solve after the first warm-starts from the
    previous one's dual (see svr_train).  The table can therefore differ
    from one of all-cold solves by amounts on the scale of `tol`.
    """
    c_grid = list(c_grid)
    sigma_grid = list(sigma_grid)
    if not c_grid or not sigma_grid:
        raise ValueError("parameter grids must be nonempty")
    if np.shape(labels) != (len(train), train.m):
        raise ValueError("instance labeling does not match the dataset")
    subjects = sorted(train.subjects())
    if not 2 <= folds <= len(subjects):
        raise ValueError(
            f"folds must be in [2, {len(subjects)}] for {len(subjects)} subjects"
        )
    rng = np.random.default_rng(seed)
    shuffled = [subjects[i] for i in rng.permutation(len(subjects))]
    fold_of = {subject: idx % folds for idx, subject in enumerate(shuffled)}

    sq_errors = np.zeros((len(c_grid), len(sigma_grid)))
    n_videos = 0
    for fold in range(folds):
        fit_rows = [
            idx for idx, bag in enumerate(train.bags) if fold_of[bag.subject_id] != fold
        ]
        val_rows = [
            idx for idx, bag in enumerate(train.bags) if fold_of[bag.subject_id] == fold
        ]
        if not fit_rows or not val_rows:
            continue
        fit_x = np.concatenate([train.bags[idx].instances for idx in fit_rows])
        fit_y = np.concatenate([labels[idx] for idx in fit_rows])
        n_videos += len(val_rows)
        for si, sigma in enumerate(sigma_grid):
            # the whole fold fits, so the C path computes each row once
            path = SvrPath(_KernelRows(fit_x, sigma, max_rows=len(fit_x)))
            for ci in sorted(range(len(c_grid)), key=c_grid.__getitem__):
                config = SvrConfig(c_grid[ci], epsilon, sigma, tol)
                model = svr_train(fit_x, fit_y, config, warm=path)
                for idx in val_rows:
                    bag = train.bags[idx]
                    video = svr_predict_many(model, bag.instances).mean()
                    sq_errors[ci, si] += (video - bag.label) ** 2
    table = sq_errors / n_videos
    best_ci, best_si = min(
        ((ci, si) for ci in range(len(c_grid)) for si in range(len(sigma_grid))),
        key=lambda cell: (table[cell], c_grid[cell[0]], sigma_grid[cell[1]]),
    )
    return GridSearchResult(
        c=c_grid[best_ci],
        sigma=sigma_grid[best_si],
        table=table,
        c_grid=c_grid,
        sigma_grid=sigma_grid,
    )


# ---------------------------------------------------------------------------
# persistence


# the name perfbench's tracer times (ROADMAP's name rule)
def load_svr(path) -> tuple[SvrModel, dict]:
    return read_model(path, (SvrModel,))
