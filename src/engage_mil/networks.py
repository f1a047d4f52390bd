"""Dense multi-instance ranking network and LSTM sequence network.

Both models score a bag of M segment vectors with a single real number and
expose per-segment intensities for localization.  Forward, backward, and the
SGD loop are written directly in numpy; gradients are exact analytic
derivatives of the squared-error bag loss (the test suite checks them against
central finite differences).
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

import numpy as np

from .bags import LABELS, Dataset, Serving, read_model, write_model
from .errors import ConfigError, DataError, NumericError

_ACTIVATIONS = ("relu", "sigmoid", "linear")
POOLINGS = ("topk", "mean")


def _sigmoid(z):
    # e = exp(-|z|) never overflows, and each branch is the stable form for
    # its sign.  min(z, -z) is -|z| but passes a NaN on with its sign bit, so
    # the result equals the masked two-branch form bit for bit.
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _activate(z, activation):
    """The activation of z; ReLU overwrites z."""
    if activation == "relu":
        return np.maximum(z, 0.0, out=z)
    if activation == "sigmoid":
        return _sigmoid(z)
    return z


def _activation_grad(a, activation):
    """d(activation)/dz expressed with the output a (ReLU: a > 0 iff z > 0)."""
    if activation == "relu":
        return (a > 0.0).astype(np.float64)
    if activation == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(a)


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "linear"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (out, in) with a matching bias")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]


@dataclass
class LstmLayer:
    """Single LSTM layer: the input, forget, output and candidate gates as
    one stacked (4H, in_dim + H) weight, each gate a row block mapping the
    concatenated [x_t, h_{t-1}], and a (4H,) bias."""

    weights: np.ndarray  # (4H, in_dim + H)
    bias: np.ndarray  # (4H,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        rows, cols = self.weights.shape if self.weights.ndim == 2 else (0, 0)
        if rows % 4 or not 0 < rows // 4 < cols or self.bias.shape != (rows,):
            raise ValueError(
                "LSTM parameters must be a stacked (4H, D+H) gate weight with D >= 1 and a "
                f"(4H,) bias, not {self.weights.shape} and {self.bias.shape}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("gate parameters must be finite")

    @property
    def hidden(self):
        return self.weights.shape[0] // 4

    @property
    def in_dim(self):
        return self.weights.shape[1] - self.hidden


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = 0.01
    epochs: int = 300
    batch_size: int = 16
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.clip_norm <= 0:
            raise ValueError("clip norm must be positive")


# ---------------------------------------------------------------------------
# construction


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def build_mil_net(
    in_dim: int,
    hidden=(128, 64, 32),
    pooling: str = "topk",
    k: int = 10,
    seed: int = 0,
) -> MilNet:
    rng = np.random.default_rng(seed)
    sizes = [in_dim, *hidden, 1]
    layers = []
    for idx, (d_in, d_out) in enumerate(zip(sizes, sizes[1:])):
        activation = "linear" if idx == len(sizes) - 2 else "relu"
        layers.append(
            DenseLayer(
                weights=_uniform(rng, (d_out, d_in), d_in),
                bias=_uniform(rng, (d_out,), d_in),
                activation=activation,
            )
        )
    return MilNet(layers, pooling, k)


def build_seq_net(
    in_dim: int,
    m: int,
    hidden: int = 32,
    dense=(64, 32),
    seed: int = 0,
) -> SeqNet:
    rng = np.random.default_rng(seed)
    gate_in = in_dim + hidden
    # drawn gate by gate, weight then bias, then stacked: this order fixes the net a seed gives
    draws = [_uniform(rng, s, gate_in) for _ in range(4) for s in ((hidden, gate_in), (hidden,))]
    lstm = LstmLayer(np.concatenate(draws[::2]), np.concatenate(draws[1::2]))
    sizes = [m * hidden, *dense, m]
    head = []
    for d_in, d_out in zip(sizes, sizes[1:]):
        head.append(
            DenseLayer(
                weights=_uniform(rng, (d_out, d_in), d_in),
                bias=_uniform(rng, (d_out,), d_in),
                activation="sigmoid",
            )
        )
    return SeqNet(lstm, head, m)


# ---------------------------------------------------------------------------
# pooling


def _pool_matrix(r: np.ndarray, pooling: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Scores and d(score)/dr of mean or top-k pooling over each row of a
    (B, M) intensity matrix; top-k ties go to the lower index."""
    b, m = r.shape
    if pooling == "mean" or k >= m:
        if pooling == "topk" and k > m:
            raise ValueError(f"k={k} exceeds bag size {m}")
        return r.mean(axis=1), np.full((b, m), 1.0 / m)
    idx = np.argsort(-r, axis=1, kind="stable")[:, :k]
    mask = np.zeros((b, m))
    np.put_along_axis(mask, idx, 1.0 / k, axis=1)
    scores = np.take_along_axis(r, idx, axis=1).mean(axis=1)
    return scores, mask


# ---------------------------------------------------------------------------
# passes (batched internally over bags) and the nets


def _dense_stack_forward(layers, h):
    """The stack's output and each layer's (input, output) for backprop."""
    caches = []
    for layer in layers:
        z = h @ layer.weights.T
        z += layer.bias  # in place: fresh large temporaries cost page faults
        a = _activate(z, layer.activation)
        caches.append((h, a))
        h = a
    return h, caches


def _dense_stack_backward(layers, caches, d_out, grads_out):
    """Backprop d_out through the stack; writes (dW, db) pairs into grads_out."""
    dh = d_out
    for layer, (h_in, a) in zip(reversed(layers), reversed(caches)):
        dz = dh * _activation_grad(a, layer.activation)
        grads_out.appendleft((dz.T @ h_in, dz.sum(axis=0)))
        dh = dz @ layer.weights
    return dh


def _seq_forward(net: SeqNet, x: np.ndarray):
    """LSTM recurrence + dense head for a (B, M, D) batch.

    The stacked (4H, D+H) gate weight's input part maps every timestep
    before the loop, its recurrent part is one matmul per step.  The
    recurrence runs feature-major, (features, B), so each gate is a
    contiguous row block.  The cache holds, time-major, zcat (M+1, D+H, B)
    with zcat[t] = [x_t; h_{t-1}] (h_{-1} = 0, and zcat[M] holds h_{M-1}),
    the gate activations (M, 4H, B), the cell states (M+1, H, B) after a
    zero initial state, and tanh(c_t) (M, H, B).
    """
    b, m, d = x.shape
    if m != net.m:
        raise ValueError(f"expected {net.m} segments, got {m}")
    h_dim = net.lstm.hidden
    w = net.lstm.weights
    zcat = np.zeros((m + 1, d + h_dim, b))
    zcat[:m, :d] = x.transpose(1, 2, 0)
    zx = np.matmul(w[:, :d], zcat[:m, :d]) + net.lstm.bias[:, None]
    w_h = np.ascontiguousarray(w[:, d:])
    gates = np.empty((m, 4 * h_dim, b))
    cs = np.zeros((m + 1, h_dim, b))
    tanh_cs = np.empty((m, h_dim, b))
    sig = 3 * h_dim  # input, forget and output gates are sigmoids
    for t in range(m):
        z = zx[t] + w_h @ zcat[t, d:]
        g = gates[t]
        g[:sig] = _sigmoid(z[:sig])
        np.tanh(z[sig:], out=g[sig:])
        cs[t + 1] = g[h_dim : 2 * h_dim] * cs[t] + g[:h_dim] * g[sig:]
        np.tanh(cs[t + 1], out=tanh_cs[t])
        np.multiply(g[2 * h_dim : sig], tanh_cs[t], out=zcat[t + 1, d:])
    states = zcat[1:, d:].transpose(2, 0, 1)  # (B, M, H)
    out, dense_caches = _dense_stack_forward(net.dense, states.reshape(b, m * h_dim))
    return out.mean(axis=1), states, (zcat, gates, cs, tanh_cs), dense_caches


def _seq_intensities(net: SeqNet, hs: np.ndarray) -> np.ndarray:
    """(B, M) head responses to each segment's state with all others zeroed.

    Only block j of segment j's isolated input is nonzero, so the first head
    layer reads just columns [jH, (j+1)H) of its weight; the zero-padded
    (B*M, M*H) input is never built.
    """
    b, m, h_dim = hs.shape
    first = net.dense[0]
    blocks = first.weights.reshape(-1, m, h_dim).transpose(1, 2, 0)  # (M, H, out)
    z = np.matmul(hs.transpose(1, 0, 2), blocks) + first.bias  # (M, B, out)
    a = _activate(z, first.activation).reshape(m * b, -1)
    out, _ = _dense_stack_forward(net.dense[1:], a)
    return out.mean(axis=1).reshape(m, b).T


class _NetServing(Serving):
    """A net's forward pass, and its block scorer for Serving.  A net's file
    form (see bags.write_model) is its parameters() in order, with its dense
    layers' activations among the fields; their sizes are the shapes.

    A net trains on the labels divided by its class's LABEL_SCALE and serves
    its outputs multiplied by it."""

    def save(self, path, meta: dict) -> None:
        save_net(self, path, meta)

    def forward(self, x: np.ndarray, intensities: bool = False):
        """Bag scores (B,) and, if asked, per-segment intensities (B, M) of a
        (B, M, D) batch, both in the label space the net trains in."""
        _, _, d = x.shape
        if d != self.in_dim:
            raise ValueError(f"expected {self.in_dim}-dimensional instances, got {d}")
        return self._pass(x, intensities)

    def score_block(self, x: np.ndarray, intensities: bool) -> np.ndarray:
        """forward's bag scores or intensities, times LABEL_SCALE."""
        scores, r = self.forward(x, intensities)
        return (r if intensities else scores) * self.LABEL_SCALE


@dataclass
class MilNet(_NetServing):
    """Shared dense stack scoring each instance, then top-k or mean pooling."""

    layers: list[DenseLayer]
    pooling: str
    k: int

    LABEL_SCALE = 1  # the linear ranking layer outputs on the labels' own scale

    def __post_init__(self):
        if not self.layers or self.layers[-1].out_dim != 1:
            raise ValueError("the final (ranking) stage must output one value")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError("consecutive layer dimensions must chain")
        if self.pooling not in POOLINGS:
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if self.pooling == "topk" and self.k < 1:
            raise ValueError("k must be at least 1")

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    def check(self, dataset: Dataset) -> None:
        if self.pooling == "topk" and self.k > dataset.m:
            raise DataError(f"model pools the top {self.k} segments, dataset bags have {dataset.m}")

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend((layer.weights, layer.bias))
        return out

    KIND = "milnet"
    FIELDS = {"activations": list, "pooling": str, "k": int}

    def to_file(self):
        activations = [layer.activation for layer in self.layers]
        fields = {"activations": activations, "pooling": self.pooling, "k": self.k}
        return self.KIND, fields, self.parameters()

    @classmethod
    def from_file(cls, fields, arrays):
        layers = _dense_from_file(fields["activations"], arrays, 0)
        return cls(layers, fields["pooling"], fields["k"])

    @classmethod
    def fit(cls, dataset: Dataset, config):
        """(net, loss trace): the config's ranking net at its seed, trained on `dataset`."""
        if config.pooling == "topk" and config.pool_k > dataset.m:
            raise ConfigError(f"pool_k {config.pool_k} exceeds the bag size {dataset.m}")
        net = build_mil_net(dataset.dim, config.hidden, config.pooling, config.pool_k, config.seed)
        return train(net, dataset, config.train_config)

    def _pass(self, x, intensities):
        b, m, d = x.shape
        out, _ = _dense_stack_forward(self.layers, x.reshape(b * m, d))
        r = out[:, 0].reshape(b, m)
        return _pool_matrix(r, self.pooling, self.k)[0], r

    def batch_grads(self, x: np.ndarray, y: np.ndarray):
        """Mean squared-error loss and its gradients over a (B, M, D) batch.

        Top-k pooling with k < M gives every other instance a zero d(score)/dr,
        so each dz row, dW term and db term it feeds is zero: the backward pass
        runs over the B*k pooled rows only, gathered from the input and each
        layer's output.  Mean pooling and k = M backprop all B*M rows.
        """
        b, m, d = x.shape
        flat_in = x.reshape(b * m, d)
        out, caches = _dense_stack_forward(self.layers, flat_in)
        r = out[:, 0].reshape(b, m)
        scores, mask = _pool_matrix(r, self.pooling, self.k)
        losses = (scores - y) ** 2
        d_scores = 2.0 * (scores - y) / b
        dr = (d_scores[:, None] * mask).reshape(b * m, 1)
        rows = np.flatnonzero(mask)
        if len(rows) < b * m:
            # layer L+1's input is layer L's output: gather each activation once
            acts = [a[rows] for _, a in caches]
            caches = list(zip([flat_in[rows], *acts[:-1]], acts))
            dr = dr[rows]
        grads = deque()
        _dense_stack_backward(self.layers, caches, dr, grads)
        return float(losses.mean()), [g for pair in grads for g in pair], scores


@dataclass
class SeqNet(_NetServing):
    """LSTM over the segment sequence, flattened into a sigmoid dense head."""

    lstm: LstmLayer
    dense: list[DenseLayer]
    m: int

    LABEL_SCALE = LABELS[-1]  # the all-sigmoid head outputs in (0, 1)

    def __post_init__(self):
        if len(self.dense) != 3:
            raise ValueError("the head must have exactly three dense stages")
        if any(layer.activation != "sigmoid" for layer in self.dense):
            raise ValueError("head stages must use sigmoid activations")
        if self.dense[0].in_dim != self.m * self.lstm.hidden:
            raise ValueError("head input must be the flattened M x H states")
        if self.dense[-1].out_dim != self.m:
            raise ValueError("head output must have one value per segment")
        for prev, nxt in zip(self.dense, self.dense[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError("consecutive layer dimensions must chain")

    @property
    def in_dim(self):
        return self.lstm.in_dim

    def check(self, dataset: Dataset) -> None:
        if self.m != dataset.m:
            raise DataError(f"model expects {self.m} segments per bag, dataset has {dataset.m}")

    def parameters(self) -> list[np.ndarray]:
        out = [self.lstm.weights, self.lstm.bias]
        for layer in self.dense:
            out.extend((layer.weights, layer.bias))
        return out

    KIND = "seqnet"
    FIELDS = {"activations": list, "m": int}

    def to_file(self):
        fields = {"activations": [layer.activation for layer in self.dense], "m": self.m}
        return self.KIND, fields, self.parameters()

    @classmethod
    def from_file(cls, fields, arrays):
        head = _dense_from_file(fields["activations"], arrays, 2)
        return cls(LstmLayer(*arrays[:2]), head, fields["m"])

    @classmethod
    def fit(cls, dataset: Dataset, config):
        """(net, loss trace): the config's sequence net at its seed, trained on `dataset`."""
        hidden, dense = config.seq_hidden, config.seq_dense
        net = build_seq_net(dataset.dim, dataset.m, hidden, dense, config.seed)
        return train(net, dataset, config.train_config)

    def _pass(self, x, intensities):
        scores, hs, _, _ = _seq_forward(self, x)
        return scores, _seq_intensities(self, hs) if intensities else None

    def batch_grads(self, x: np.ndarray, y: np.ndarray):
        """Loss and gradients as MilNet.batch_grads, by backprop through time over
        the fused gates; the gate weight gradient is one matmul over all steps."""
        b, m, d = x.shape
        h_dim = self.lstm.hidden
        scores, _, (zcat, gates, cs, tanh_cs), dense_caches = _seq_forward(self, x)
        losses = (scores - y) ** 2
        d_scores = 2.0 * (scores - y) / b
        d_out = np.repeat(d_scores[:, None], m, axis=1) / m  # the head has M outputs

        head_grads = deque()
        d_flat = _dense_stack_backward(self.dense, dense_caches, d_out, head_grads)
        d_hs = np.ascontiguousarray(d_flat.reshape(b, m, h_dim).transpose(1, 2, 0))

        w_h_t = self.lstm.weights[:, d:].T.copy()
        sig = 3 * h_dim
        # the step-independent derivative factors, once over all steps
        d_tanh_c = 1.0 - tanh_cs**2
        d_sig = gates[:, :sig] * (1.0 - gates[:, :sig])
        d_cand = 1.0 - gates[:, sig:] ** 2
        dz = np.empty((m, 4 * h_dim, b))  # d(loss)/d(gate pre-activation)
        dh, dc = np.empty((h_dim, b)), np.empty((h_dim, b))
        dh_next = np.zeros((h_dim, b))
        dc_next = np.zeros((h_dim, b))
        for t in range(m - 1, -1, -1):
            g = gates[t]
            gi, gf, go, gc = (g[k * h_dim : (k + 1) * h_dim] for k in range(4))
            np.add(d_hs[t], dh_next, out=dh)
            # summed as (dh * go) * (1 - tanh(c)^2) + dc_next, so the gradients stay bit for bit
            np.multiply(dh, go, out=dc)
            dc *= d_tanh_c[t]
            dc += dc_next
            dzt = dz[t]
            np.multiply(dc, gc, out=dzt[:h_dim])
            np.multiply(dc, cs[t], out=dzt[h_dim : 2 * h_dim])
            np.multiply(dh, tanh_cs[t], out=dzt[2 * h_dim : sig])
            dzt[:sig] *= d_sig[t]
            np.multiply(dc, gi, out=dzt[sig:])
            dzt[sig:] *= d_cand[t]
            np.matmul(w_h_t, dzt, out=dh_next)
            np.multiply(dc, gf, out=dc_next)
        inputs = zcat[:m].transpose(0, 2, 1).reshape(m * b, d + h_dim)
        gw = dz.transpose(1, 0, 2).reshape(4 * h_dim, m * b) @ inputs
        grads = [gw, dz.sum(axis=(0, 2)), *(g for pair in head_grads for g in pair)]
        return float(losses.mean()), grads, scores


# ---------------------------------------------------------------------------
# training


def train(net, dataset: Dataset, config: TrainConfig):
    """SGD on the bag-level squared error; returns (trained copy, loss trace).

    Per-epoch shuffling, mini-batches of config.batch_size bags, global
    gradient-norm clipping.  The trace holds each epoch's mean batch loss in
    the label space being optimized: the labels divided by net.LABEL_SCALE.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be nonempty")
    net = copy.deepcopy(net)
    x_all = np.stack([bag.instances for bag in dataset.bags])
    y_all = dataset.labels().astype(np.float64) / net.LABEL_SCALE
    params = net.parameters()
    rng = np.random.default_rng(config.seed)
    trace: list[float] = []
    n = len(dataset)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            loss, grads, _ = net.batch_grads(x_all[rows], y_all[rows])
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {len(trace)}")
            total = np.sqrt(sum(float((g**2).sum()) for g in grads))
            if total > config.clip_norm:
                scale = config.clip_norm / total
                grads = [g * scale for g in grads]
            for p, g in zip(params, grads):
                p -= config.step_size * g
            epoch_losses.append(loss)
        trace.append(float(np.mean(epoch_losses)))
    return net, trace


# ---------------------------------------------------------------------------
# persistence


def _dense_from_file(activations, arrays, lead: int):
    """The dense layers of a net file whose arrays are `lead` LSTM arrays,
    then a (weights, bias) pair per activation."""
    if len(arrays) != lead + 2 * len(activations):
        lstm = "a stacked (4H, D+H) LSTM weight and (4H,) bias, then " if lead else ""
        raise ValueError(f"{len(arrays)} arrays do not fit {lstm}{len(activations)} dense layers")
    return [DenseLayer(*args) for args in zip(arrays[lead::2], arrays[lead + 1 :: 2], activations)]


# the names perfbench's tracer times (ROADMAP's name rule)
def save_net(net, path, meta: dict | None = None) -> None:
    write_model(path, net, meta)


def load_net(path):
    return read_model(path, (MilNet, SeqNet))
