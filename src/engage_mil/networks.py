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

from .bags import Bag, Dataset, read_model, write_model
from .errors import TrainingDivergedError

_ACTIVATIONS = ("relu", "sigmoid", "linear")


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


_GATES = ("input", "forget", "output", "candidate")


@dataclass
class LstmLayer:
    """Single LSTM layer; each gate maps the concatenated [x_t, h_{t-1}]."""

    w_input: np.ndarray
    b_input: np.ndarray
    w_forget: np.ndarray
    b_forget: np.ndarray
    w_output: np.ndarray
    b_output: np.ndarray
    w_candidate: np.ndarray
    b_candidate: np.ndarray

    def __post_init__(self):
        for gate in _GATES:
            w = np.asarray(getattr(self, f"w_{gate}"), dtype=np.float64)
            b = np.asarray(getattr(self, f"b_{gate}"), dtype=np.float64)
            setattr(self, f"w_{gate}", w)
            setattr(self, f"b_{gate}", b)
        shapes_w = {getattr(self, f"w_{gate}").shape for gate in _GATES}
        shapes_b = {getattr(self, f"b_{gate}").shape for gate in _GATES}
        if len(shapes_w) != 1 or len(shapes_b) != 1:
            raise ValueError("all four gates must share parameter shapes")
        h, total = self.w_input.shape
        if self.b_input.shape != (h,) or total <= h:
            raise ValueError("gate weights must be (H, in_dim + H)")
        for gate in _GATES:
            if not (
                np.isfinite(getattr(self, f"w_{gate}")).all()
                and np.isfinite(getattr(self, f"b_{gate}")).all()
            ):
                raise ValueError("gate parameters must be finite")

    @property
    def hidden(self):
        return self.w_input.shape[0]

    @property
    def in_dim(self):
        return self.w_input.shape[1] - self.hidden

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The gates as one (4H, in_dim + H) weight and (4H,) bias, in _GATES order."""
        return (
            np.concatenate([getattr(self, f"w_{gate}") for gate in _GATES]),
            np.concatenate([getattr(self, f"b_{gate}") for gate in _GATES]),
        )


@dataclass
class MilNet:
    """Shared dense stack scoring each instance, then top-k or mean pooling."""

    layers: list[DenseLayer]
    pooling: str = "topk"
    k: int = 10
    label_scaling: bool = False

    def __post_init__(self):
        if not self.layers or self.layers[-1].out_dim != 1:
            raise ValueError("the final (ranking) stage must output one value")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError("consecutive layer dimensions must chain")
        if self.pooling not in ("topk", "mean"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if self.pooling == "topk" and self.k < 1:
            raise ValueError("k must be at least 1")

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend((layer.weights, layer.bias))
        return out


@dataclass
class SeqNet:
    """LSTM over the segment sequence, flattened into a sigmoid dense head."""

    lstm: LstmLayer
    dense: list[DenseLayer]
    m: int
    label_scaling: bool = True

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

    def parameters(self) -> list[np.ndarray]:
        out = []
        for gate in _GATES:
            out.extend((getattr(self.lstm, f"w_{gate}"), getattr(self.lstm, f"b_{gate}")))
        for layer in self.dense:
            out.extend((layer.weights, layer.bias))
        return out


@dataclass
class InstanceIntensities:
    """Per-segment scores for one bag, in original segment order."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("intensities must be a vector")
        if not np.isfinite(self.values).all():
            raise ValueError("intensities must be finite")

    def __len__(self):
        return self.values.shape[0]

    def sorted_view(self) -> np.ndarray:
        """The intensities in descending order (ties keep lower index first)."""
        return self.values[np.argsort(-self.values, kind="stable")]


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = 0.01
    epochs: int = 300
    batch_size: int = 16
    seed: int = 0
    scale_labels: bool | None = None  # None: keep the net's own setting
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
    label_scaling: bool = False,
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
    return MilNet(layers=layers, pooling=pooling, k=k, label_scaling=label_scaling)


def build_seq_net(
    in_dim: int,
    m: int,
    hidden: int = 32,
    dense=(64, 32),
    seed: int = 0,
    label_scaling: bool = True,
) -> SeqNet:
    rng = np.random.default_rng(seed)
    gate_in = in_dim + hidden
    gates = {}
    for gate in _GATES:
        gates[f"w_{gate}"] = _uniform(rng, (hidden, gate_in), gate_in)
        gates[f"b_{gate}"] = _uniform(rng, (hidden,), gate_in)
    lstm = LstmLayer(**gates)
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
    return SeqNet(lstm=lstm, dense=head, m=m, label_scaling=label_scaling)


# ---------------------------------------------------------------------------
# pooling


def _intensity_values(r) -> np.ndarray:
    if isinstance(r, InstanceIntensities):
        return r.values
    return np.asarray(r, dtype=np.float64)


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


def topk_pool(r, k: int = 10) -> float:
    """Mean of the k largest intensities (ties resolved toward lower index)."""
    values = _intensity_values(r)
    m = values.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    return float(_pool_matrix(values[None], "topk", k)[0][0])


def mean_pool(r) -> float:
    values = _intensity_values(r)
    if values.shape[0] < 1:
        raise ValueError("need at least one intensity")
    return float(_pool_matrix(values[None], "mean", 1)[0][0])


def mil_loss(pred: float, label: float) -> float:
    return float((pred - label) ** 2)


# ---------------------------------------------------------------------------
# forward passes (batched internally over bags)


def _bag_matrix(net, bag) -> np.ndarray:
    x = bag.instances if isinstance(bag, Bag) else np.asarray(bag, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ValueError(f"expected (m, {net.in_dim}) instances, got {x.shape}")
    return np.asarray(x, dtype=np.float64)


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

    The four gates act as one stacked (4H, D+H) weight: its input part maps
    every timestep before the loop, its recurrent part is one matmul per
    step.  The recurrence runs feature-major, (features, B), so each gate is
    a contiguous row block.  The cache holds, time-major, zcat (M+1, D+H, B)
    with zcat[t] = [x_t; h_{t-1}] (h_{-1} = 0, and zcat[M] holds h_{M-1}),
    the gate activations (M, 4H, B), the cell states (M+1, H, B) after a
    zero initial state, and tanh(c_t) (M, H, B).
    """
    b, m, d = x.shape
    if m != net.m:
        raise ValueError(f"expected {net.m} segments, got {m}")
    h_dim = net.lstm.hidden
    w, bias = net.lstm.stacked()
    zcat = np.zeros((m + 1, d + h_dim, b))
    zcat[:m, :d] = x.transpose(1, 2, 0)
    zx = np.matmul(w[:, :d], zcat[:m, :d]) + bias[:, None]
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


def _forward(net, x: np.ndarray, intensities: bool = False):
    """Bag scores (B,) and, if asked, per-segment intensities (B, M) of a
    (B, M, D) batch, both in the label space the net trains in."""
    b, m, d = x.shape
    if d != net.in_dim:
        raise ValueError(f"expected {net.in_dim}-dimensional instances, got {d}")
    if isinstance(net, MilNet):
        out, _ = _dense_stack_forward(net.layers, x.reshape(b * m, d))
        r = out[:, 0].reshape(b, m)
        return _pool_matrix(r, net.pooling, net.k)[0], r
    scores, hs, _, _ = _seq_forward(net, x)
    return scores, _seq_intensities(net, hs) if intensities else None


def forward_mil(net: MilNet, bag) -> tuple[float, InstanceIntensities]:
    scores, r = _forward(net, _bag_matrix(net, bag)[None])
    return float(scores[0]), InstanceIntensities(values=r[0])


def forward_seq(net: SeqNet, bag) -> tuple[float, np.ndarray]:
    scores, hs, _, _ = _seq_forward(net, _bag_matrix(net, bag)[None])
    return float(scores[0]), hs[0]


# ---------------------------------------------------------------------------
# backward passes


def _mil_batch_grads(net: MilNet, x: np.ndarray, y: np.ndarray):
    """Mean squared-error loss and its gradients over a (B, M, D) batch."""
    b, m, d = x.shape
    flat_in = x.reshape(b * m, d)
    out, caches = _dense_stack_forward(net.layers, flat_in)
    r = out[:, 0].reshape(b, m)
    scores, mask = _pool_matrix(r, net.pooling, net.k)
    losses = (scores - y) ** 2
    d_scores = 2.0 * (scores - y) / b
    dr = d_scores[:, None] * mask
    grads = deque()
    _dense_stack_backward(net.layers, caches, dr.reshape(b * m, 1), grads)
    return float(losses.mean()), [g for pair in grads for g in pair], scores


def _seq_batch_grads(net: SeqNet, x: np.ndarray, y: np.ndarray):
    """Loss and gradients as _mil_batch_grads, by backprop through time over
    the fused gates; the gate weight gradient is one matmul over all steps."""
    b, m, d = x.shape
    h_dim = net.lstm.hidden
    scores, _, (zcat, gates, cs, tanh_cs), dense_caches = _seq_forward(net, x)
    losses = (scores - y) ** 2
    d_scores = 2.0 * (scores - y) / b
    d_out = np.repeat(d_scores[:, None], net.dense[-1].out_dim, axis=1) / net.dense[-1].out_dim

    head_grads = deque()
    d_flat = _dense_stack_backward(net.dense, dense_caches, d_out, head_grads)
    d_hs = np.ascontiguousarray(d_flat.reshape(b, m, h_dim).transpose(1, 2, 0))

    w_h_t = net.lstm.stacked()[0][:, d:].T.copy()
    sig = 3 * h_dim
    dz = np.empty((m, 4 * h_dim, b))  # d(loss)/d(gate pre-activation)
    dh_next = np.zeros((h_dim, b))
    dc_next = np.zeros((h_dim, b))
    for t in range(m - 1, -1, -1):
        g = gates[t]
        gi, gf, go, gc = (g[k * h_dim : (k + 1) * h_dim] for k in range(4))
        tanh_c = tanh_cs[t]
        dh = d_hs[t] + dh_next
        dc = dh * go * (1.0 - tanh_c**2) + dc_next
        dzt = dz[t]
        np.multiply(dc, gc, out=dzt[:h_dim])
        np.multiply(dc, cs[t], out=dzt[h_dim : 2 * h_dim])
        np.multiply(dh, tanh_c, out=dzt[2 * h_dim : sig])
        dzt[:sig] *= g[:sig] * (1.0 - g[:sig])
        dzt[sig:] = dc * gi * (1.0 - gc**2)
        dh_next = w_h_t @ dzt
        dc_next = dc * gf
    inputs = zcat[:m].transpose(0, 2, 1).reshape(m * b, d + h_dim)
    gw = dz.transpose(1, 0, 2).reshape(4 * h_dim, m * b) @ inputs
    gb = dz.sum(axis=(0, 2))
    grads = []
    for k in range(4):  # row slices in _GATES order, as parameters() lists them
        rows = slice(k * h_dim, (k + 1) * h_dim)
        grads.extend((gw[rows], gb[rows]))
    grads.extend(g for pair in head_grads for g in pair)
    return float(losses.mean()), grads, scores


def backward(net, bag, label: float) -> list[np.ndarray]:
    """Gradients of (score - label)^2, aligned with net.parameters()."""
    _, grads, _ = _batch_grads(net, _bag_matrix(net, bag)[None], np.array([float(label)]))
    return grads


# ---------------------------------------------------------------------------
# training


def _batch_grads(net, x, y):
    if isinstance(net, MilNet):
        return _mil_batch_grads(net, x, y)
    return _seq_batch_grads(net, x, y)


def train(net, dataset: Dataset, config: TrainConfig):
    """SGD on the bag-level squared error; returns (trained copy, loss trace).

    Per-epoch shuffling, mini-batches of config.batch_size bags, global
    gradient-norm clipping.  The trace holds each epoch's mean batch loss in
    the (possibly rescaled) label space being optimized.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be nonempty")
    net = copy.deepcopy(net)
    if config.scale_labels is not None:
        net.label_scaling = config.scale_labels
    x_all = dataset.tensor()
    y_all = np.array([float(bag.label) for bag in dataset.bags])
    if net.label_scaling:
        y_all = y_all / 3.0
    params = net.parameters()
    rng = np.random.default_rng(config.seed)
    trace: list[float] = []
    n = len(dataset)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            loss, grads, _ = _batch_grads(net, x_all[rows], y_all[rows])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {len(trace)}", trace=trace
                )
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
# prediction and localization


def _label_scale(net) -> float:
    return 3.0 if net.label_scaling else 1.0


def predict_dataset(net, dataset: Dataset) -> np.ndarray:
    """Every bag's score in the 0-3 label range, from one batched pass."""
    scores, _ = _forward(net, dataset.tensor())
    return scores * _label_scale(net)


def localize_dataset(net, dataset: Dataset) -> np.ndarray:
    """(n_bags, M) per-segment intensities in the 0-3 label range.

    MilNet exposes its ranking-layer outputs directly.  For SeqNet each
    segment is attributed the head's response to the flattened state vector
    with every other segment's activations zeroed.
    """
    _, r = _forward(net, dataset.tensor(), intensities=True)
    return r * _label_scale(net)


def predict_score(net, bag) -> float:
    """Bag score in the 0-3 label range (rescaled if the net trains on [0,1])."""
    scores, _ = _forward(net, _bag_matrix(net, bag)[None])
    return float(scores[0]) * _label_scale(net)


def localize(net, bag) -> InstanceIntensities:
    """One bag's per-segment intensities; see localize_dataset."""
    _, r = _forward(net, _bag_matrix(net, bag)[None], intensities=True)
    return InstanceIntensities(values=r[0] * _label_scale(net))


# ---------------------------------------------------------------------------
# persistence


_NET_FIELDS = {
    "mil": {"activations": list, "label_scaling": bool, "pooling": str, "k": int},
    "seq": {"activations": list, "label_scaling": bool, "m": int},
}


def save_net(net, path, meta: dict | None = None) -> None:
    """One model file holding net.parameters() in order; layer sizes are
    their shapes."""
    if isinstance(net, MilNet):
        kind, layers, fields = "mil", net.layers, {"pooling": net.pooling, "k": net.k}
    else:
        kind, layers, fields = "seq", net.dense, {"m": net.m}
    fields["activations"] = [layer.activation for layer in layers]
    fields["label_scaling"] = net.label_scaling
    write_model(path, kind, fields, net.parameters(), meta)


def _net_from_file(kind: str, fields: dict, arrays: list):
    n_lstm = 2 * len(_GATES) if kind == "seq" else 0
    activations = fields["activations"]
    if len(arrays) != n_lstm + 2 * len(activations):
        raise ValueError(f"{len(arrays)} arrays do not fit {len(activations)} dense layers")
    layers = [
        DenseLayer(w, b, activation)
        for w, b, activation in zip(arrays[n_lstm::2], arrays[n_lstm + 1 :: 2], activations)
    ]
    if kind == "mil":
        return MilNet(layers, fields["pooling"], fields["k"], fields["label_scaling"])
    return SeqNet(LstmLayer(*arrays[:n_lstm]), layers, fields["m"], fields["label_scaling"])


def load_net(path):
    return read_model(path, _NET_FIELDS, _net_from_file)
