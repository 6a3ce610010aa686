"""Dense float64 tensors with reverse-mode automatic differentiation,
for the model's own operations only.

A Tensor holds a numpy array and a gradient slot; it has no arithmetic.
Every differentiable operation of the model is one named node built by
custom_op: the encoder's embedding product, relation layers, placement
and readout (rgcn), the heads' input gathers, the head MLP, the scale
head, the per-graph NLL and a training chunk's sum of those (flow), the
Gaussian log-density and batch norm (here), and the quadrature
log-probabilities and clipped-ratio surrogate (rl). While a Tape is
active, an operation whose output requires gradients appends a node
(output, parents, backward closure) to it; Tape.backward walks the
nodes in reverse creation order, which is a valid topological order
because every op creates a fresh output tensor.
Leaf gradients accumulate into Tensor.grad, so several tapes run in
sequence implement gradient accumulation over a batch.

No-record fast path: outside a tape, or when no parent requires
gradients, custom_op wraps the computed array and returns without
building a node, so inference (sampling, acting log-probs) pays for the
numpy calls plus one Tensor per op. A backward closure returns None for
a parent that needs no gradient, so no work goes into a gradient the
tape would drop; unbroadcast sums a gradient over the axes numpy
broadcasting added, so a weight shared across a stacked batch dimension
accumulates contributions from every slice.

Each fused node runs the numpy calls of the op-by-op expression it
replaced in the same order, so values stay bitwise equal to it while the
tape holds one node and one output Tensor instead of two to fourteen.
All but training-mode batch norm also replay that expression's backward
steps, so their gradients are bitwise those of the composite;
training-mode batch norm has a closed-form backward, which sums in
another order.

The op set is the model's: nothing here is a generic elementwise op.
The broadcasting ops the composites are spelled with (add, mul, matmul,
exp, clip, minimum, sums, concat, ...) live in the tests as oracle_ops,
and the tests pin every fused node against its composite built from
them.

Workspace: on a tape, the quadrature's large temporaries are views of
Tape.block, one float64 array, taken by scratch() as a stack and written
through out= by the same ufuncs in order. A buffer a backward reads
(keep=True) is held until tape exit, any other until its op or backward
returns; the block grows at exit to the largest live set. No op output or
gradient lives in it. With no tape, scratch() returns None: numpy allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LOG_TWO_PI = float(np.log(2.0 * np.pi))
BN_MOMENTUM = 0.9
BN_EPS = 1e-5

_ACTIVE_TAPE = None


def scratch(shape, keep: bool = False) -> np.ndarray | None:
    """A workspace array on an active tape (held to its exit if keep), else None."""
    if (tape := _ACTIVE_TAPE) is None:
        return None
    start, tape.top = tape.top, tape.top + math.prod(shape)
    tape.need = max(tape.need, tape.top)
    tape.kept = tape.top if keep else tape.kept
    if tape.top > Tape.block.size:  # too small until it grows at tape exit
        return np.empty(shape)
    return Tape.block[start : tape.top].reshape(shape)


def recording() -> bool:
    """Whether a tape is active: an op needs to keep what its backward
    reads only then."""
    return _ACTIVE_TAPE is not None


class Tensor:
    """A float64 array plus a gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class Tape:
    """Operation record for one backward pass.

    Single-writer: at most one tape is active at a time; one tape covers
    one chunk of training examples. Gradients from successive tapes
    accumulate into the leaves' .grad slots in call order; training code
    does not open tapes itself but goes through accumulate_grads.
    """

    block = np.empty(0)  # the workspace, shared by every tape

    def __init__(self):
        self.nodes = []
        self.top = self.kept = self.need = 0  # workspace elements taken, held, most taken

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        if self.need > Tape.block.size:
            Tape.block = np.empty(self.need)
        return False

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into .grad for every leaf tensor."""
        if _ACTIVE_TAPE is not self:
            raise RuntimeError("backward needs its tape active, inside its with block")
        if loss.data.ndim != 0:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        pending = {id(loss): np.ones((), dtype=np.float64)}
        holders = {id(loss): loss}
        for out, parents, back in reversed(self.nodes):
            g = pending.pop(id(out), None)
            holders.pop(id(out), None)
            if g is None:
                continue
            for parent, pg in zip(parents, back(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pg
                else:
                    pending[key] = pg
                    holders[key] = parent
            self.top = self.kept  # the closure's temporaries go back
        # whatever was never popped is a leaf of this tape
        for key, g in pending.items():
            leaf = holders[key]
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def _record(out: Tensor, parents, back) -> None:
    _ACTIVE_TAPE.nodes.append((out, parents, back))


def custom_op(data, parents, back) -> Tensor:
    """Wrap an array computed from the parents' values as one tape node.

    back(g) returns one gradient array (or None) per parent, and
    unbroadcast sums a gradient back to a broadcast parent's shape. A
    node's op is the function its backward closure is defined in.
    """
    parents = tuple(parents)
    requires_grad = False
    for p in parents:  # a plain loop: any() over a generator costs more per call
        if p.requires_grad:
            requires_grad = True
            break
    out = Tensor(data, requires_grad)
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.top = _ACTIVE_TAPE.kept  # the op's temporaries go back
        if requires_grad:
            _record(out, parents, back)
    return out


def unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcasting added or stretched."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad.reshape(shape)


def gaussian_logpdf(x: Tensor, mu: Tensor, alpha: Tensor) -> Tensor:
    """Elementwise log N(x; mu, alpha^2) with scale parameter alpha > 0,
    as one tape node. With z = (x - mu) / alpha, the forward runs the
    numpy calls of the composite (c + -1 * log(alpha)) + (-0.5 * z) * z
    in their order, and the backward replays the composite's backward
    steps, so values and gradients are bitwise those of the op-by-op
    expression."""
    if np.any(alpha.data <= 0.0):
        raise ValueError("gaussian_logpdf: alpha must be strictly positive")
    diff = x.data - mu.data
    z = diff / alpha.data
    half = -0.5 * z
    out = (-0.5 * LOG_TWO_PI + -1.0 * np.log(alpha.data)) + half * z

    def back(g):
        gz = g * half + (g * z) * -0.5
        inv = 1.0 / alpha.data
        gdiff = unbroadcast(gz * inv, diff.shape)
        gx = unbroadcast(gdiff, x.data.shape) if x.requires_grad else None
        gmu = unbroadcast(-gdiff, mu.data.shape) if mu.requires_grad else None
        galpha = None
        if alpha.requires_grad:
            glog = (unbroadcast(g, alpha.data.shape) * -1.0) / alpha.data
            galpha = glog + unbroadcast(((-gz) * z) * inv, alpha.data.shape)
        return (gx, gmu, galpha)

    return custom_op(out, (x, mu, alpha), back)


@dataclass
class BatchNormState:
    """Running statistics buffer for one batch-norm site."""

    running_mean: np.ndarray
    running_var: np.ndarray

    @staticmethod
    def fresh(width: int) -> "BatchNormState":
        return BatchNormState(
            running_mean=np.zeros(width, dtype=np.float64),
            running_var=np.ones(width, dtype=np.float64),
        )

    def update(self, mean: np.ndarray, var: np.ndarray) -> None:
        self.running_mean = BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mean
        self.running_var = BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    mask: np.ndarray | None = None,
    segments: list | None = None,
) -> Tensor:
    """Normalize features, as one tape node; segments decide the mode. A
    0/1 mask, (S, n, 1) for a stacked (S, n, k) input, multiplies the
    output, so rows that are no nodes leave as zeros.

    Without segments (evaluation mode) the running buffers normalize
    input of any leading shape: ((x - mean) / sd) * gamma + beta, whose
    backward replays the add, mul, div and sub steps of that expression,
    so its x gradient is (g * gamma) * (1 / sd).

    Segments (training mode) are slices of the leading axis, one per
    graph: one mean/var pair over a segment's unmasked rows U normalizes
    it, so normalization stays an affine map per graph and the column
    sums over a slice keep carrying graph structure. The pairs fold into
    the running buffers in segment order; rows in no segment leave as
    zeros. The forward runs the numpy calls of the op-by-op expression
    in its order. The backward is the closed-form gradient, per segment:
    with g' = g * mask and xhat = (x - mean) / sd, the x gradient is
    (gamma / sd) * (g' - (mean_U(g') + xhat * mean_U(g' * xhat)) * mask).
    """
    if segments is None:
        sd = np.sqrt(state.running_var + BN_EPS)
        xhat = (x.data - state.running_mean) / sd
        out = xhat * gamma.data + beta.data
        if mask is not None:
            out = out * mask
    else:
        out, xhat, stats = np.zeros_like(x.data), np.zeros_like(x.data), []
        for seg in segments:
            rows = mask[seg]
            inv_total = 1.0 / rows.sum()
            mean = (x.data[seg] * rows).sum(axis=(0, 1), keepdims=True) * inv_total
            centered = x.data[seg] - mean
            var = (centered * centered * rows).sum(axis=(0, 1), keepdims=True) * inv_total
            state.update(mean.reshape(-1), var.reshape(-1))
            sd = np.sqrt(var + BN_EPS)
            scale = gamma.data / sd
            out[seg] = (centered * scale + beta.data) * rows
            xhat[seg] = centered / sd
            stats.append((seg, scale, inv_total))

    def back(g):
        if mask is not None:
            g = g * mask
        gx = ggamma = gbeta = None
        if beta.requires_grad:
            gbeta = unbroadcast(g, beta.data.shape)
        if gamma.requires_grad:
            ggamma = unbroadcast(g * xhat, gamma.data.shape)
        if x.requires_grad and segments is None:
            gx = unbroadcast((g * gamma.data) * (1.0 / sd), x.data.shape)
        elif x.requires_grad:
            gx = np.zeros_like(g)
            for seg, scale, inv_total in stats:
                gs, xs = g[seg], xhat[seg]
                mean_g = gs.sum(axis=(0, 1), keepdims=True) * inv_total
                mean_gxhat = (gs * xs).sum(axis=(0, 1), keepdims=True) * inv_total
                gx[seg] = scale * (gs - (mean_g + xs * mean_gxhat) * mask[seg])
        return (gx, ggamma, gbeta)

    return custom_op(out, (x, gamma, beta), back)


@dataclass
class AdamState:
    """First/second moment accumulators keyed by parameter name."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(
    params: dict,
    grads: dict,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One Adam update, in place on params, with bias correction.

    Raises on a non-finite gradient, naming the offending parameter.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = state.v[name]
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


def zero_grads(params) -> None:
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None


def accumulate_grads(params: dict, losses):
    """Sum the gradients of several scalar losses, one tape per loss.

    losses is an iterable of zero-argument callables, each building one
    scalar Tensor; they are called in order, each on its own tape, and
    their gradients add up in the leaves in that order. Returns (grads,
    values): grads maps every name in params to its summed gradient
    (zeros where no loss reached it), values lists the loss values in
    call order. Every leaf's .grad is None again afterwards, also when a
    loss raises.
    """
    zero_grads(params)
    values = []
    try:
        for build in losses:
            with Tape() as tape:
                loss = build()
                tape.backward(loss)
            values.append(float(loss.data))
        grads = {
            name: np.zeros_like(p.data) if p.grad is None else p.grad
            for name, p in params.items()
        }
    finally:  # a loss that raises leaves no partial sum behind
        zero_grads(params)
    return grads, values


def grad_check(f, params: dict, h: float = 1e-5) -> float:
    """Compare tape gradients of f() against central finite differences.

    f is a zero-argument callable returning a scalar Tensor; it must be
    a deterministic function of the parameter values. Returns the worst
    relative error |a - n| / max(1e-8, |a| + |n|) over all parameter
    entries.
    """
    analytic, _ = accumulate_grads(params, [f])

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f().item()
            flat[i] = saved - h
            f_minus = f().item()
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(ana[i] - numeric) / max(1e-8, abs(ana[i]) + abs(numeric))
            if err > worst:
                worst = err
    return worst

