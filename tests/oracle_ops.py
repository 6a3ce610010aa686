"""Tape ops that only the tests' composite oracles record.

The model records each of these inside a fused node (an embedding
product, an encoder layer, a head MLP, a scale head, a batch norm, a
Gaussian log-density, a quadrature stack, a gather of head inputs, a
readout, a clipped-ratio surrogate), never on its own, so autodiff does
not carry them. The oracles that pin the fused nodes spell the
composites out op by op with these copies: each is one
autodiff.custom_op node, and its forward and backward are the numpy
calls the op had in autodiff, so a composite built from them computes
what it did there.

action_logprobs, the normalized log-probabilities of every category of
one step, is the oracle the sampler's Monte Carlo and exact-probability
checks read; the model itself only ever needs the log-probability of
the action it took. Both integrate over the grid of
rl.argmax_region_grid, centred on each row's mass. one_row_grid builds
that grid for one row, competitor by competitor, and is pinned bitwise
to rl.argmax_region_grid's rows.

The metric oracles at the end are metrics' per-element loops: WL labels
from numpy scalars one node pair at a time, clustering coefficients by
two matrix products per graph, one np.histogram or one Python loop per
graph, and the TV kernel over every row pair. metrics
computes the same values in vectorised passes and must match them bit
for bit.
"""

import hashlib
from functools import reduce

import numpy as np
from scipy.special import log_ndtr as _scipy_log_ndtr
from scipy.special import logsumexp as _scipy_logsumexp

from graphflow import autodiff as ad
from graphflow import metrics, rl
from graphflow.autodiff import Tensor


def _tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)

    def back(g):
        return (
            ad.unbroadcast(g, a.data.shape) if a.requires_grad else None,
            ad.unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return ad.custom_op(np.add(a.data, b.data), (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)

    def back(g):
        return (
            ad.unbroadcast(g, a.data.shape) if a.requires_grad else None,
            ad.unbroadcast(-g, b.data.shape) if b.requires_grad else None,
        )

    return ad.custom_op(np.subtract(a.data, b.data), (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)

    def back(g):
        return (
            ad.unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            ad.unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return ad.custom_op(np.multiply(a.data, b.data), (a, b), back)


def matmul(a, b) -> Tensor:
    """a @ b for rank >= 2 operands; a constant operand gets no gradient
    product."""
    a, b = _tensor(a), _tensor(b)

    def back(g):
        ga = gb = None
        if a.requires_grad:
            ga = ad.unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
        if b.requires_grad:
            gb = ad.unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
        return (ga, gb)

    return ad.custom_op(np.matmul(a.data, b.data), (a, b), back)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return ad.custom_op(out, (a,), lambda g: (g * out,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; the gradient is zero where clamping
    engaged, at the bounds too."""
    inside = (a.data > lo) & (a.data < hi)
    return ad.custom_op(np.clip(a.data, lo, hi), (a,), lambda g: (g * inside,))


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = _tensor(a), _tensor(b)
    take_a = a.data <= b.data

    def back(g):
        return (
            ad.unbroadcast(g * take_a, a.data.shape),
            ad.unbroadcast(g * ~take_a, b.data.shape),
        )

    return ad.custom_op(np.minimum(a.data, b.data), (a, b), back)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return ad.custom_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_tensor(t) for t in tensors]
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    return ad.custom_op(out, tensors, lambda g: tuple(np.split(g, offsets, axis=axis)))


def weighted_sum(t: Tensor, target) -> Tensor:
    """sum(t * target) for a constant target: the tests' scalar loss."""
    return tensor_sum(mul(t, Tensor(target)))


def sum_of(tensors) -> Tensor:
    """The tensors added left to right."""
    return reduce(add, tensors)


def div(a, b) -> Tensor:
    """a / b; the backward skips a constant operand."""
    a, b = _tensor(a), _tensor(b)
    if not b.data.all():  # some entry is zero (nan is not)
        raise ValueError("div: denominator contains zero")
    out = a.data / b.data
    inv = 1.0 / b.data

    def back(g):
        return (
            ad.unbroadcast(g * inv, a.data.shape) if a.requires_grad else None,
            ad.unbroadcast(-g * out * inv, b.data.shape) if b.requires_grad else None,
        )

    return ad.custom_op(out, (a, b), back)


def log(a: Tensor) -> Tensor:
    if (a.data <= 0.0).any():
        raise ValueError("log: input must be strictly positive")
    return ad.custom_op(np.log(a.data), (a,), lambda g: (g / a.data,))


def reshape(a: Tensor, shape) -> Tensor:
    return ad.custom_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def take(a: Tensor, indices) -> Tensor:
    """Advanced integer indexing a[indices]; indices is a tuple of int
    arrays, and a repeated index accumulates its gradients."""

    def back(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, indices, g)
        return (ga,)

    return ad.custom_op(a.data[indices], (a,), back)


def logsumexp(a: Tensor, axis: int) -> Tensor:
    """log(sum(exp(a))) along one axis, computed with the max-shift trick."""
    m = a.data.max(axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    softmax = shifted / total
    out = np.squeeze(m + np.log(total), axis=axis)
    return ad.custom_op(out, (a,), lambda g: (np.expand_dims(g, axis) * softmax,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return ad.custom_op(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    return ad.custom_op(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return ad.custom_op(out, (a,), lambda g: (g * (0.5 / out),))


def log_ndtr(a: Tensor) -> Tensor:
    """log of the standard normal CDF; its gradient is the hazard
    exp(log pdf - log cdf)."""
    out = _scipy_log_ndtr(a.data)

    def back(g):
        log_pdf = -0.5 * a.data * a.data - 0.5 * ad.LOG_TWO_PI
        return (g * np.exp(log_pdf - out),)

    return ad.custom_op(out, (a,), back)


def one_row_grid(mu, alpha, c):
    """Quadrature nodes u and log-weights logw of one argmax-region
    integral, the category c of the (D,) arrays mu and alpha, built one
    competitor at a time: rl._mass_bracket of the row alone, the panel
    edges by np.unique plus the 1e-12 filter."""
    others = [k for k in range(mu.shape[0]) if k != c]
    cross = np.array([(mu[k] - mu[c]) / alpha[c] for k in others])
    ratio = np.array([alpha[k] / alpha[c] for k in others])
    (lo,), (hi,) = rl._mass_bracket(cross[:, None], 1.0 / ratio[:, None])
    extra = []
    for centre, width in zip(cross, ratio):
        halfwidth = 6.0 * max(width, 1e-8)
        if width < rl.SHARP_RATIO and centre + halfwidth >= lo and centre - halfwidth <= hi:
            extra.append(np.clip(centre + halfwidth * rl._REFINE_FRACTIONS, lo, hi))
    base = lo + (hi - lo) * np.linspace(0.0, 1.0, rl.GRID_PANELS + 1)
    edges = np.unique(np.concatenate([base] + extra))
    edges = edges[np.concatenate([[True], np.diff(edges) > 1e-12])]
    nodes, weights = rl._GL_NODES
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * nodes[None, :]).reshape(-1)
    logw = (np.log(half[:, None]) + np.log(weights[None, :])).reshape(-1)
    return u, logw


def action_logprobs(
    mu: np.ndarray, alpha: np.ndarray, temperature: float = 1.0
) -> np.ndarray:
    """Normalized log-probabilities of every category for one step.

    Uses rl.argmax_region_grid, whose rows one_row_grid pins; the exact
    probabilities sum to one, so normalization only removes residual
    quadrature error.
    """
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1) * temperature
    d = mu.shape[0]
    mu, alpha, actions = np.tile(mu, (d, 1)), np.tile(alpha, (d, 1)), np.arange(d)
    u, logw = rl.argmax_region_grid(mu, alpha, actions)
    grid_base = rl.weight_free_term(u, logw)
    raw = rl._stacked_action_logprobs(Tensor(mu), Tensor(alpha), u, grid_base, actions)
    return raw.data - _scipy_logsumexp(raw.data)


# -------------------------------------------------------------- metrics


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=16).digest()


def wl_labels(g, rounds: int = metrics.WL_ROUNDS) -> list:
    """metrics.wl_labels, indexing the numpy arrays once per node pair."""
    labels = [_digest(b"t%d" % int(t)) for t in g.node_types]
    for _ in range(rounds):
        nxt = []
        for i in range(g.n):
            pairs = sorted(
                (b"%d:" % int(g.categories[i, j])) + labels[j]
                for j in range(g.n)
                if j != i and g.categories[i, j] != g.no_edge
            )
            nxt.append(_digest(labels[i] + b"|" + b"".join(pairs)))
        labels = nxt
    return labels


def canonical_hash(g) -> bytes:
    return _digest(b"n%d|" % g.n + b"".join(sorted(wl_labels(g))))


def degree_rows(seqs, max_degree: int) -> np.ndarray:
    """Normalized degree histograms, one count at a time."""
    out = np.zeros((len(seqs), max_degree + 1))
    for row, s in enumerate(seqs):
        for d in s:
            out[row, min(int(d), max_degree)] += 1.0
        out[row] /= out[row].sum()
    return out


def _normalized_hist(values: np.ndarray, bins: int, lo: float, hi: float) -> np.ndarray:
    hist, _ = np.histogram(values, bins=bins, range=(lo, hi))
    total = hist.sum()
    if total == 0:
        return np.full(bins, 1.0 / bins)
    return hist / total


def clustering_coefficients(g) -> np.ndarray:
    """metrics.clustering_coefficients of one graph, by its own two
    matrix products."""
    adj = (g.categories != g.no_edge).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    deg = adj.sum(axis=1)
    triangles = np.diag(adj @ adj @ adj) / 2.0
    out = np.zeros(g.n)
    mask = deg >= 2
    out[mask] = 2.0 * triangles[mask] / (deg[mask] * (deg[mask] - 1.0))
    return out


def clustering_histograms(graphs, bins: int = 100) -> np.ndarray:
    """One np.histogram per graph."""
    return np.stack(
        [_normalized_hist(clustering_coefficients(g), bins, 0.0, 1.0) for g in graphs]
    )


def tv_kernel_matrix(x: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel on TV distance, evaluated for every row pair."""
    tv = np.stack([0.5 * np.abs(row - y).sum(axis=1) for row in x])
    return np.exp(-(tv * tv) / (2.0 * sigma * sigma))


def mmd_squared(x: np.ndarray, y: np.ndarray, sigma: float = 1.0) -> float:
    m, n = x.shape[0], y.shape[0]
    kxx = tv_kernel_matrix(x, x, sigma)
    kyy = tv_kernel_matrix(y, y, sigma)
    kxy = tv_kernel_matrix(x, y, sigma)
    sx = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    sy = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    return float(max(0.0, sx + sy - 2.0 * kxy.mean()))


def mmd_degree(samples, reference, sigma: float = 1.0) -> float:
    xs = [metrics.degree_sequence(g) for g in samples]
    ys = [metrics.degree_sequence(g) for g in reference]
    cap = max(int(s.max()) for s in xs + ys)
    return mmd_squared(degree_rows(xs, cap), degree_rows(ys, cap), sigma)


def mmd_clustering(samples, reference, sigma: float = 1.0, bins: int = 100) -> float:
    return mmd_squared(
        clustering_histograms(samples, bins), clustering_histograms(reference, bins), sigma
    )
