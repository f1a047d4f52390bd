"""Slow, transparent reference implementations used to check the fast ones.

Everything here favors scalar loops and textbook formulations over speed so
that a disagreement with the library code points at the library.
"""

import json
import math
import struct

import numpy as np

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


def _neighbor_value(plane, r, c, dy, dx):
    """plane[r + dy][c + dx] by bilinear interpolation.

    Weights come from the offset's fractional parts; zero-weight corners are
    skipped and the rest are added in row-major corner order.
    """
    y0, x0 = math.floor(dy), math.floor(dx)
    fy, fx = dy - y0, dx - x0
    corners = (
        (r + y0, c + x0, (1.0 - fy) * (1.0 - fx)),
        (r + y0, c + x0 + 1, (1.0 - fy) * fx),
        (r + y0 + 1, c + x0, fy * (1.0 - fx)),
        (r + y0 + 1, c + x0 + 1, fy * fx),
    )
    value = None
    for rr, cc, w in corners:
        if w != 0.0:
            term = w * plane[rr][cc]
            value = term if value is None else value + term
    return value


def naive_plane_codes(plane):
    """Pattern codes of one 2-D plane (list of rows), interior points only."""
    a, b = len(plane), len(plane[0])
    codes = []
    for r in range(1, a - 1):
        row = []
        for c in range(1, b - 1):
            center = plane[r][c]
            code = 0
            for bit, (dx, dy) in enumerate(_OFFSETS):
                if _neighbor_value(plane, r, c, dy, dx) >= center:
                    code |= 1 << bit
            row.append(code)
        codes.append(row)
    return codes


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


def reference_smo_svr(x, y, c, epsilon, sigma, tol, max_iter=200_000):
    """Maximal-violating-pair SMO that rebuilds -s*g and both masks per step.

    The plain vectorised form of the trainer's step loop: same pair choice
    (first index on ties), same two-variable solve and clip, same update
    and objective expressions, so the trainer must match it bit for bit.
    Kernel rows use the trainer's per-row expression; caching them changes
    no value.  Returns (support_vectors, coef, bias, objective_trace).
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

    a = np.zeros(2 * l)
    s = np.concatenate([np.ones(l), -np.ones(l)])
    p = np.concatenate([epsilon - y, epsilon + y])
    g = p.copy()
    trace = []
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
        quad = max(ki[bi] + kj[bj] - 2.0 * ki[bj], 1e-12)
        ss = s[i] * s[j]
        d = -(g[i] - ss * g[j]) / quad
        d_lo = max(-a[i], (a[j] - c) if ss > 0 else -a[j])
        d_hi = min(c - a[i], a[j] if ss > 0 else c - a[j])
        d = min(max(d, d_lo), d_hi)
        a[i] += d
        a[j] -= ss * d
        g += s * (s[i] * d) * np.concatenate([ki - kj, ki - kj])
        trace.append(float(-0.5 * (a @ g + a @ p)))
    else:
        raise RuntimeError(f"reference SMO did not converge in {max_iter} steps")
    theta = a[:l] - a[l:]
    keep = theta != 0.0
    if not keep.any():
        keep[:1] = True
    return x[keep].copy(), theta[keep], float((m_val + big_m) / 2.0), trace


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
    lstm = net.lstm
    h_dim = lstm.hidden
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    states = []
    hs = np.empty((b, m, h_dim))
    for t in range(m):
        zcat = np.concatenate([x[:, t, :], h], axis=1)
        gi = masked_sigmoid(zcat @ lstm.w_input.T + lstm.b_input)
        gf = masked_sigmoid(zcat @ lstm.w_forget.T + lstm.b_forget)
        go = masked_sigmoid(zcat @ lstm.w_output.T + lstm.b_output)
        gc = np.tanh(zcat @ lstm.w_candidate.T + lstm.b_candidate)
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
    lstm = net.lstm
    h_dim = lstm.hidden
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

    gw = {gate: np.zeros_like(getattr(lstm, f"w_{gate}")) for gate in _GATES}
    gb = {gate: np.zeros_like(getattr(lstm, f"b_{gate}")) for gate in _GATES}
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
            d_zcat += dz[gate] @ getattr(lstm, f"w_{gate}")
        dh_next = d_zcat[:, -h_dim:]
        dc_next = dc * gf
    grads = []
    for gate in _GATES:
        grads.extend((gw[gate], gb[gate]))
    return float(((scores - y) ** 2).mean()), grads + head_grads


def reference_bag_scores(net, instances):
    """(score, per-segment intensities) of one (M, D) bag in the 0-3 range.

    MilNet: each instance through the dense stack on its own, then the mean
    of the k largest by a full sort (or the mean).  SeqNet: the per-gate
    forward, and each segment's head response to the flattened state vector
    with every other segment's block zeroed.
    """
    scale = 3.0 if net.label_scaling else 1.0
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
        return float(top.mean()) * scale, r * scale
    scores, hs, _, _ = reference_seq_forward(net, instances[None])
    m, h_dim = hs.shape[1:]
    isolated = np.zeros((m, m * h_dim))
    for j in range(m):
        isolated[j, j * h_dim : (j + 1) * h_dim] = hs[0, j]
    out, _ = _reference_head(net.dense, isolated)
    return float(scores[0]) * scale, out.mean(axis=1) * scale


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
