"""Slow, transparent reference implementations used to check the fast ones.

Everything here favors scalar loops and textbook formulations over speed so
that a disagreement with the library code points at the library.
"""

import csv
import json
import math
import struct
from collections import deque

import numpy as np

from engage_mil.networks import (
    _dense_stack_backward,
    _dense_stack_forward,
    _pool_matrix,
    _seq_forward,
)

# --- spatio-temporal binary-pattern histograms ------------------------------

_D = math.sqrt(0.5)
# (dx, dy) around the circle, counter-clockwise from the +x axis
_OFFSETS = [
    (1.0, 0.0),
    (_D, _D),
    (0.0, 1.0),
    (-_D, _D),
    (-1.0, 0.0),
    (-_D, -_D),
    (0.0, -1.0),
    (_D, -_D),
]


def _taps(dx, dy):
    """Bilinear (row offset, column offset, weight) corners of a neighbor.

    Weights come from the offset's fractional parts; zero-weight corners are
    dropped and the rest keep row-major corner order.
    """
    y0, x0 = math.floor(dy), math.floor(dx)
    fy, fx = dy - y0, dx - x0
    corners = (
        (y0, x0, (1.0 - fy) * (1.0 - fx)),
        (y0, x0 + 1, (1.0 - fy) * fx),
        (y0 + 1, x0, fy * (1.0 - fx)),
        (y0 + 1, x0 + 1, fy * fx),
    )
    return [(ro, co, w) for ro, co, w in corners if w != 0.0]


def _neighbor_value(plane, r, c, dy, dx):
    """plane[r + dy][c + dx] by bilinear interpolation, corners summed in order."""
    value = None
    for ro, co, w in _taps(dx, dy):
        term = w * plane[r + ro][c + co]
        value = term if value is None else value + term
    return value


def lbp_code(center: float, neighbors) -> int:
    """8-bit pattern code: bit b is set iff neighbors[b] >= center."""
    if len(neighbors) != 8:
        raise ValueError("exactly 8 neighbor samples required")
    code = 0
    for bit, value in enumerate(neighbors):
        if value >= center:
            code |= 1 << bit
    return code


def naive_plane_codes(plane):
    """Pattern codes of one 2-D plane (list of rows), interior points only."""
    a, b = len(plane), len(plane[0])
    return [
        [
            lbp_code(plane[r][c], [_neighbor_value(plane, r, c, dy, dx) for dx, dy in _OFFSETS])
            for c in range(1, b - 1)
        ]
        for r in range(1, a - 1)
    ]


def _transitions(code):
    bits = [(code >> i) & 1 for i in range(8)]
    return sum(bits[i] != bits[(i + 1) % 8] for i in range(8))


_UNIFORM_CODES = sorted(c for c in range(256) if _transitions(c) <= 2)


def naive_bin(code):
    """Histogram bin of a code: uniform codes in ascending order, rest last."""
    if _transitions(code) <= 2:
        return _UNIFORM_CODES.index(code)
    return 58


def naive_lbp_top(vol, xy_frames="all", grid=(1, 1)):
    """Triple-loop histogram of a (t, h, w) volume.

    Returns the concatenation, per spatial block in row-major order, of the
    59-bin XY, XT and YT histograms, each normalized to sum 1.
    """
    vol = np.asarray(vol, dtype=np.float64).tolist()
    t, h, w = len(vol), len(vol[0]), len(vol[0][0])
    gy, gx = grid
    counts = [[[0] * 59 for _ in range(3)] for _ in range(gy * gx)]

    def block(y, x):
        return (y * gy) // h * gx + (x * gx) // w

    frames = range(t) if xy_frames == "all" else [t // 2]
    for tt in frames:
        for yi, row in enumerate(naive_plane_codes(vol[tt])):
            for xi, code in enumerate(row):
                counts[block(yi + 1, xi + 1)][0][naive_bin(code)] += 1

    for y in range(h):  # one time-by-x plane per image row
        plane = [[vol[tt][y][x] for x in range(w)] for tt in range(t)]
        for row in naive_plane_codes(plane):
            for xi, code in enumerate(row):
                counts[block(y, xi + 1)][1][naive_bin(code)] += 1

    for x in range(w):  # one time-by-y plane per image column
        plane = [[vol[tt][y][x] for y in range(h)] for tt in range(t)]
        for row in naive_plane_codes(plane):
            for yi, code in enumerate(row):
                counts[block(yi + 1, x)][2][naive_bin(code)] += 1

    out = []
    for blk in counts:
        for plane_counts in blk:
            total = sum(plane_counts)
            out.extend(c / total for c in plane_counts)
    return np.asarray(out)


def _reference_codes(planes):
    """Pattern codes of all interior positions of stacked 2-D planes.

    `planes` is float64 of shape (..., a, b), axis -2 the circle's vertical
    axis.  Returns int64 codes of shape (..., a-2, b-2).
    """
    a, b = planes.shape[-2], planes.shape[-1]
    center = planes[..., 1 : a - 1, 1 : b - 1]
    codes = np.zeros(center.shape, dtype=np.int64)
    for bit, (dx, dy) in enumerate(_OFFSETS):
        value = None
        for ro, co, w in _taps(dx, dy):
            r0, c0 = 1 + ro, 1 + co
            term = w * planes[..., r0 : r0 + a - 2, c0 : c0 + b - 2]
            value = term if value is None else value + term
        codes += (value >= center).astype(np.int64) << bit
    return codes


def reference_plane_codes(frames):
    """Whole-volume code maps of a (t, h, w) video, one plane set at a time.

    The vectorised form that the chunked uint8 maps replaced: a float64
    copy of the volume, with the XT and YT planes read through transposes.
    Returns int64 maps laid out as the library's: xy (t, h-2, w-2),
    xt (t-2, h, w-2) and yt (t-2, h-2, w).
    """
    vol = np.asarray(frames, dtype=np.float64)
    xy = _reference_codes(vol)
    xt = _reference_codes(vol.transpose(1, 0, 2))  # (h, t-2, w-2)
    yt = _reference_codes(vol.transpose(2, 0, 1))  # (w, t-2, h-2)
    return xy, xt.transpose(1, 0, 2), yt.transpose(1, 2, 0)


# --- agreement and correlation ----------------------------------------------


def contingency_kappa(a, b, num_levels=4):
    """Quadratic-weighted kappa straight off the contingency table."""
    n = len(a)
    table = [[0] * num_levels for _ in range(num_levels)]
    for x, y in zip(a, b):
        table[int(x)][int(y)] += 1
    row = [sum(table[i]) for i in range(num_levels)]
    col = [sum(table[i][j] for i in range(num_levels)) for j in range(num_levels)]
    observed_disagreement = 0.0
    expected_disagreement = 0.0
    for i in range(num_levels):
        for j in range(num_levels):
            w = (i - j) ** 2 / (num_levels - 1) ** 2
            observed_disagreement += w * table[i][j]
            expected_disagreement += w * row[i] * col[j] / n
    if expected_disagreement == 0.0:
        return 1.0 if observed_disagreement == 0.0 else float("nan")
    return 1.0 - observed_disagreement / expected_disagreement


def two_pass_pcc(x, y):
    """Pearson correlation via explicit centered sums."""
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    sxx = sum((a - mean_x) ** 2 for a in x)
    syy = sum((b - mean_y) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


# ---------------------------------------------------------------------------
# dense QP reference for epsilon-insensitive kernel regression


def _box_hyperplane_root(v, s, c):
    """Multiplier lam with s.clip(v - lam*s, 0, c) = 0, for c > 0 and s of +-1.

    h(lam) = s.clip(v - lam*s, 0, c) is continuous, piecewise linear and
    nonincreasing, with breakpoints at s_i*v_i and s_i*v_i - s_i*c.  It is
    evaluated at every breakpoint; the root is interpolated linearly inside
    the bracketing pair (Kiwiel, Math. Programming 2008).  s must hold both
    signs: h is then c*(number of +1) > 0 at the first breakpoint and
    -c*(number of -1) < 0 at the last, so a root is bracketed.
    """
    breaks = np.unique(np.concatenate([s * v, s * v - s * c]))
    h = np.clip(v - breaks[:, None] * s, 0.0, c) @ s
    k = np.flatnonzero(h > 0.0)[-1]
    return float(breaks[k] + h[k] * (breaks[k + 1] - breaks[k]) / (h[k] - h[k + 1]))


def _project_box_hyperplane(v, s, c):
    """Euclidean projection onto {0 <= x <= c, s.x = 0}, exact by breakpoints."""
    return np.clip(v - _box_hyperplane_root(v, s, c) * s, 0.0, c)


def qp_reference_svr(kernel_matrix, y, c, epsilon, max_iter=400_000):
    """Projected gradient descent on the full dense 2l-variable dual.

    Returns (dual_coefficients theta, bias, dual objective value).  The
    dual objective is reported in maximization form, matching the trace
    the iterative trainer keeps.
    """
    k = np.asarray(kernel_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    l = len(y)
    q = np.block([[k, -k], [-k, k]])
    p = np.concatenate([epsilon - y, epsilon + y])
    s = np.concatenate([np.ones(l), -np.ones(l)])
    step = 1.0 / (np.linalg.eigvalsh(q).max() + 1e-9)
    a = np.zeros(2 * l)
    f_prev = 0.0
    for it in range(max_iter):
        g = q @ a + p
        a = _project_box_hyperplane(a - step * g, s, c)
        if it % 500 == 499:
            f = 0.5 * a @ (q @ a) + p @ a
            if abs(f_prev - f) < 1e-11 * (1.0 + abs(f)):
                break
            f_prev = f
    g = q @ a + p
    viol = -s * g
    up = ((s > 0) & (a < c)) | ((s < 0) & (a > 0))
    low = ((s > 0) & (a > 0)) | ((s < 0) & (a < c))
    bias = 0.5 * (viol[up].max() + viol[low].min())
    objective = -(0.5 * a @ (q @ a) + p @ a)
    return a[:l] - a[l:], float(bias), float(objective)


def reference_smo_svr(x, y, c, epsilon, sigma, tol, max_iter=200_000, start=None):
    """Maximal-violating-pair SMO that rebuilds -s*g and both masks per step.

    The plain vectorised form of the trainer's step loop: same pair choice
    (first index on ties), same two-variable solve and clip, same update
    and running-objective expressions, so the trainer must match it bit for
    bit.  Kernel rows use the trainer's per-row expression; caching them
    changes no value.  From a = 0, or from the dual `start` with the
    trainer's warm-start gradient (its kernel rows times alpha - alpha*,
    summed in index order).  Returns (support_vectors, coef, bias,
    objective_trace, final dual, direct_trace); direct_trace holds the dual
    objective -(a.g + a.p)/2 recomputed at each step.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    l = x.shape[0]
    sq = (x**2).sum(axis=1)
    rows = {}

    def kernel_row(i):
        if i not in rows:
            d2 = np.maximum(sq[i] + sq - 2.0 * x @ x[i], 0.0)
            rows[i] = np.exp(-d2 / (2.0 * sigma**2))
        return rows[i]

    s = np.concatenate([np.ones(l), -np.ones(l)])
    p = np.concatenate([epsilon - y, epsilon + y])
    if start is None:
        a = np.zeros(2 * l)
        g = p.copy()
        f = 0.0
    else:
        a = np.array(start, dtype=np.float64)
        theta = a[:l] - a[l:]
        k_theta = np.zeros(l)
        for k in np.flatnonzero(theta):
            k_theta += theta[k] * kernel_row(k)
        g = p + np.concatenate([k_theta, -k_theta])
        f = float(0.5 * (a.dot(g) + a.dot(p)))
    trace, direct = [], []
    for _ in range(max_iter):
        viol = -s * g
        up = ((s > 0) & (a < c)) | ((s < 0) & (a > 0))
        low = ((s > 0) & (a > 0)) | ((s < 0) & (a < c))
        i = int(np.where(up, viol, -np.inf).argmax())
        j = int(np.where(low, viol, np.inf).argmin())
        m_val, big_m = viol[i], viol[j]
        if m_val - big_m < tol:
            break
        bi, bj = i % l, j % l
        ki, kj = kernel_row(bi), kernel_row(bj)
        q = ki[bi] + kj[bj] - 2.0 * ki[bj]
        quad = max(q, 1e-12)
        ss = s[i] * s[j]
        d = -(g[i] - ss * g[j]) / quad
        d_lo = max(-a[i], (a[j] - c) if ss > 0 else -a[j])
        d_hi = min(c - a[i], a[j] if ss > 0 else c - a[j])
        d = min(max(d, d_lo), d_hi)
        f += d * (g[i] - ss * g[j]) + 0.5 * d * d * q
        a[i] += d
        a[j] -= ss * d
        g += s * (s[i] * d) * np.concatenate([ki - kj, ki - kj])
        trace.append(float(-f))
        direct.append(float(-0.5 * (a @ g + a @ p)))
    else:
        raise RuntimeError(f"reference SMO did not converge in {max_iter} steps")
    theta = a[:l] - a[l:]
    keep = theta != 0.0
    if not keep.any():
        keep[:1] = True
    return x[keep].copy(), theta[keep], float((m_val + big_m) / 2.0), trace, a, direct


def closed_form_ridge(x, y, penalty):
    """Exact minimizer of mean squared error + penalty*||w||^2 (free bias)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, dim = x.shape
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    w = np.linalg.solve(xc.T @ xc + n * penalty * np.eye(dim), xc.T @ yc)
    b = y.mean() - x.mean(axis=0) @ w
    return w, float(b)


def ridge_mean_at(x, y, alpha, beta, fit_intercept=True):
    """Posterior mean beta (beta X'X + alpha I)^-1 X'y at fixed precisions."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if fit_intercept:
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
    else:
        xc, yc = x, y
    dim = x.shape[1]
    return np.linalg.solve(beta * xc.T @ xc + alpha * np.eye(dim), beta * xc.T @ yc)


# ---------------------------------------------------------------------------
# networks: per-gate LSTM and per-bag scoring

_GATES = ("input", "forget", "output", "candidate")


def _gate_blocks(lstm):
    """{gate: (weight, bias)}: the four row blocks of the stacked LSTM
    parameters, in _GATES order."""
    h_dim = lstm.hidden
    return {
        gate: (lstm.weights[k * h_dim : (k + 1) * h_dim], lstm.bias[k * h_dim : (k + 1) * h_dim])
        for k, gate in enumerate(_GATES)
    }


def masked_sigmoid(z):
    """Logistic function by boolean masks: 1/(1+e^-z) where z >= 0, else e^z/(1+e^z)."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_head(layers, h):
    """Sigmoid dense stack; returns the output and each layer's (input, output)."""
    caches = []
    for layer in layers:
        a = masked_sigmoid(h @ layer.weights.T + layer.bias)
        caches.append((h, a))
        h = a
    return h, caches


def reference_seq_forward(net, x):
    """SeqNet forward for a (B, M, D) batch, one matmul per gate per step.

    Each gate maps the concatenated [x_t, h_{t-1}] with its own weight.
    Returns (scores, hs, states, head_caches) with hs of shape (B, M, H).
    """
    b, m, _ = x.shape
    h_dim = net.lstm.hidden
    (wi, bi), (wf, bf), (wo, bo), (wc, bc) = _gate_blocks(net.lstm).values()
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    states = []
    hs = np.empty((b, m, h_dim))
    for t in range(m):
        zcat = np.concatenate([x[:, t, :], h], axis=1)
        gi = masked_sigmoid(zcat @ wi.T + bi)
        gf = masked_sigmoid(zcat @ wf.T + bf)
        go = masked_sigmoid(zcat @ wo.T + bo)
        gc = np.tanh(zcat @ wc.T + bc)
        c_prev = c
        c = gf * c_prev + gi * gc
        tanh_c = np.tanh(c)
        h = go * tanh_c
        states.append((zcat, gi, gf, go, gc, c_prev, tanh_c))
        hs[:, t, :] = h
    out, head_caches = _reference_head(net.dense, hs.reshape(b, m * h_dim))
    return out.mean(axis=1), hs, states, head_caches


def reference_seq_grads(net, x, y):
    """Mean squared-error loss over a (B, M, D) batch and its gradients in
    net.parameters() order, by per-gate backprop through time."""
    b, m, _ = x.shape
    h_dim = net.lstm.hidden
    blocks = _gate_blocks(net.lstm)
    scores, _, states, head_caches = reference_seq_forward(net, x)
    d_scores = 2.0 * (scores - y) / b
    m_out = net.dense[-1].out_dim
    dh = np.repeat(d_scores[:, None], m_out, axis=1) / m_out
    head_grads = []
    for layer, (h_in, a) in zip(reversed(net.dense), reversed(head_caches)):
        dz = dh * (a * (1.0 - a))
        head_grads[:0] = [dz.T @ h_in, dz.sum(axis=0)]
        dh = dz @ layer.weights
    d_hs = dh.reshape(b, m, h_dim)

    gw = {gate: np.zeros_like(w) for gate, (w, _) in blocks.items()}
    gb = {gate: np.zeros_like(bias) for gate, (_, bias) in blocks.items()}
    dh_next = np.zeros((b, h_dim))
    dc_next = np.zeros((b, h_dim))
    for t in range(m - 1, -1, -1):
        zcat, gi, gf, go, gc, c_prev, tanh_c = states[t]
        dh = d_hs[:, t, :] + dh_next
        d_go = dh * tanh_c
        dc = dh * go * (1.0 - tanh_c**2) + dc_next
        d_gi = dc * gc
        d_gc = dc * gi
        d_gf = dc * c_prev
        dz = {
            "input": d_gi * gi * (1.0 - gi),
            "forget": d_gf * gf * (1.0 - gf),
            "output": d_go * go * (1.0 - go),
            "candidate": d_gc * (1.0 - gc**2),
        }
        d_zcat = np.zeros_like(zcat)
        for gate in _GATES:
            gw[gate] += dz[gate].T @ zcat
            gb[gate] += dz[gate].sum(axis=0)
            d_zcat += dz[gate] @ blocks[gate][0]
        dh_next = d_zcat[:, -h_dim:]
        dc_next = dc * gf
    grads = [np.concatenate([gw[g] for g in _GATES]), np.concatenate([gb[g] for g in _GATES])]
    return float(((scores - y) ** 2).mean()), grads + head_grads


def reference_mil_batch_grads(net, x, y):
    """MIL loss, gradients and scores over a (B, M, D) batch by the dense
    backward pass: all B*M rows backpropagate, those outside the top k
    with a zero d(score)/dr."""
    b, m, d = x.shape
    out, caches = _dense_stack_forward(net.layers, x.reshape(b * m, d))
    scores, mask = _pool_matrix(out[:, 0].reshape(b, m), net.pooling, net.k)
    dr = 2.0 * (scores - y)[:, None] / b * mask
    grads = deque()
    _dense_stack_backward(net.layers, caches, dr.reshape(b * m, 1), grads)
    return float(((scores - y) ** 2).mean()), [g for pair in grads for g in pair], scores


def reference_seq_batch_grads(net, x, y):
    """SeqNet loss, gradients and scores over a (B, M, D) batch by the
    fused-gate backprop through time with every derivative factor formed
    inside the step loop."""
    b, m, d = x.shape
    h_dim = net.lstm.hidden
    scores, _, (zcat, gates, cs, tanh_cs), dense_caches = _seq_forward(net, x)
    d_scores = 2.0 * (scores - y) / b
    d_out = np.repeat(d_scores[:, None], net.dense[-1].out_dim, axis=1) / net.dense[-1].out_dim
    head_grads = deque()
    d_flat = _dense_stack_backward(net.dense, dense_caches, d_out, head_grads)
    d_hs = np.ascontiguousarray(d_flat.reshape(b, m, h_dim).transpose(1, 2, 0))

    w_h_t = net.lstm.weights[:, d:].T.copy()
    sig = 3 * h_dim
    dz = np.empty((m, 4 * h_dim, b))
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
    grads = [gw, dz.sum(axis=(0, 2)), *(g for pair in head_grads for g in pair)]
    return float(((scores - y) ** 2).mean()), grads, scores


def reference_bag_scores(net, instances):
    """(score, per-segment intensities) of one (M, D) bag in the 0-3 range.

    MilNet: each instance through the dense stack on its own, then the mean
    of the k largest by a full sort (or the mean).  SeqNet: the per-gate
    forward, and each segment's head response to the flattened state vector
    with every other segment's block zeroed, times 3: the sigmoid head trains
    on the labels divided by the top level.
    """
    if hasattr(net, "layers"):
        r = []
        for row in instances:
            h = row
            for layer in net.layers:
                z = layer.weights @ h + layer.bias
                h = np.maximum(z, 0.0) if layer.activation == "relu" else z
            r.append(h[0])
        r = np.array(r)
        top = np.sort(r)[::-1][: net.k] if net.pooling == "topk" else r
        return float(top.mean()), r
    scores, hs, _, _ = reference_seq_forward(net, instances[None])
    m, h_dim = hs.shape[1:]
    isolated = np.zeros((m, m * h_dim))
    for j in range(m):
        isolated[j, j * h_dim : (j + 1) * h_dim] = hs[0, j]
    out, _ = _reference_head(net.dense, isolated)
    return float(scores[0]) * 3.0, out.mean(axis=1) * 3.0


# ---------------------------------------------------------------------------
# gradient checking


def finite_difference_gradients(loss_fn, params, eps=1e-5):
    """Central-difference gradients, one parameter entry at a time.

    loss_fn() must read the (mutated in place) parameter arrays on every
    call; entries are restored exactly after probing.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), g.ravel()
        for i in range(flat_p.size):
            original = flat_p[i]
            flat_p[i] = original + eps
            f_plus = loss_fn()
            flat_p[i] = original - eps
            f_minus = loss_fn()
            flat_p[i] = original
            flat_g[i] = (f_plus - f_minus) / (2.0 * eps)
        grads.append(g)
    return grads


def max_relative_gradient_error(analytic, numeric):
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        denom = np.maximum(np.abs(ga) + np.abs(gn), 1e-6)
        worst = max(worst, float((np.abs(ga - gn) / denom).max()))
    return worst


# --- model files, written and split without engage_mil.bags ----------------

MODEL_PREFIX = struct.Struct("<4sII")  # b"EMMF", version 1, header length


def model_file_bytes(header, payload: bytes = b"") -> bytes:
    """A model file holding any JSON `header` (object or not) and `payload`."""
    blob = json.dumps(header).encode("utf-8")
    return MODEL_PREFIX.pack(b"EMMF", 1, len(blob)) + blob + payload


def split_model_file(data: bytes) -> tuple[dict, bytes]:
    """The parsed JSON header and the raw payload of a model file."""
    _, _, size = MODEL_PREFIX.unpack_from(data)
    end = MODEL_PREFIX.size + size
    return json.loads(data[MODEL_PREFIX.size : end]), data[end:]


# --- pose/gaze CSV, read and written row by row -----------------------------

POSE_GAZE_HEADER = (
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


class RefusedAt(Exception):
    """A reference reader's refusal of a file at a 1-based line."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def reference_pose_gaze_csv(path) -> np.ndarray:
    """The (n, 12) values of a pose/gaze CSV, read one csv record at a time.

    The reader's row loop before it parsed through NumPy, plus two rules: a
    record holding a byte that is not UTF-8, and a used cell that is not
    finite, are refused at that record.  A line is the line the record
    starts on, the header being 1, so a quoted line break shifts the lines
    after it; blank records yield no row.
    """
    rows = []
    index = None
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        while True:
            line = reader.line_num + 1
            try:
                record = next(reader)
            except StopIteration:
                break
            except csv.Error:
                raise RefusedAt(line, "malformed row") from None
            if any(0xDC80 <= ord(ch) <= 0xDCFF for cell in record for ch in cell):
                raise RefusedAt(line, "not UTF-8")
            if index is None:
                header = [name.strip() for name in record]
                if any(name not in header for name in POSE_GAZE_HEADER):
                    raise RefusedAt(1, "missing columns")
                index = [header.index(name) for name in POSE_GAZE_HEADER[1:]]
                continue
            if all(not cell.strip() for cell in record):
                continue
            try:
                values = [float(record[i]) for i in index]
            except (ValueError, IndexError):
                raise RefusedAt(line, "malformed row") from None
            if any(math.isnan(v) or math.isinf(v) for v in values):
                raise RefusedAt(line, "non-finite value")
            rows.append(values)
    if index is None:
        raise RefusedAt(1, "empty pose/gaze file")
    if not rows:
        raise RefusedAt(2, "no data rows")
    return np.array(rows, dtype=np.float64)


def reference_save_pose_gaze_csv(track, path) -> None:
    """The pose/gaze writer that formatted one NumPy scalar at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(POSE_GAZE_HEADER)
        for i in range(len(track)):
            writer.writerow(
                [i]
                + [repr(float(v)) for v in track.head_position[i]]
                + [repr(float(v)) for v in track.head_rotation[i]]
                + [repr(float(v)) for v in track.gaze_left[i]]
                + [repr(float(v)) for v in track.gaze_right[i]]
            )


# --- PGM frames, parsed one byte at a time ----------------------------------


def reference_pgm_header(data: bytes) -> tuple[list[bytes], int]:
    """The four header tokens of PGM bytes `data` and where the raster
    starts, scanned one byte at a time: whitespace is skipped, a '#' that
    starts a token position skips to the next CR or LF, and a token runs to
    the next whitespace.  Fewer than four tokens are refused at line 1."""
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise RefusedAt(1, "truncated PGM header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i + 1  # single whitespace byte after maxval


def reference_read_pgm(data: bytes) -> np.ndarray:
    """The (height, width) raster of binary PGM bytes `data`, or a RefusedAt
    naming the first fault, checked in the order the reader checks."""
    tokens, start = reference_pgm_header(data)
    if tokens[0] != b"P5":
        raise RefusedAt(1, f"not a binary PGM: magic {tokens[0]!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise RefusedAt(1, "non-integer PGM header fields") from None
    if maxval > 255 or maxval < 1:
        raise RefusedAt(1, f"unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise RefusedAt(1, f"bad PGM size {width}x{height}")
    raster = data[start : start + width * height]
    if len(raster) != width * height:
        raise RefusedAt(1, "truncated PGM raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
