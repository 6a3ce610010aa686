"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. While a Tape is active, every operation
whose output requires gradients appends a node (output, parents,
backward closure) to the tape; Tape.backward walks the nodes in reverse
creation order, which is a valid topological order because every op
creates a fresh output tensor. Leaf gradients accumulate into
Tensor.grad, so several tapes run in sequence implement gradient
accumulation over a batch.

The no-record fast path: every op computes its output array, wraps it
in a Tensor whose requires_grad is the OR of its inputs' flags, and
returns right there unless a tape is active and that flag is set. Only
a recording op builds its backward closure, precomputes what the
closure reads, and appends its node. So inference (sampling, acting
log-probs) pays for the numpy call plus one Tensor and one branch per
op, and an expression evaluated under a tape records exactly the nodes
it did before.

Elementwise ops follow numpy broadcasting; the backward pass sums
gradients over broadcast axes, so a weight shared across a stacked
batch dimension accumulates contributions from every slice. A backward
closure returns None for a parent that needs no gradient (a mask, a
constant such as -0.5), so no work goes into a gradient the tape would
drop.

Fused nodes: custom_op records a composite expression as one node with
a hand-written backward. The encoder layer (rgcn), the head MLP and
the heads' input gathers (flow), the Gaussian log-density and
batch_norm in both modes are built this way; each runs the numpy calls
of its op-by-op expression in the same order, so values stay bitwise
equal to it while the tape holds one node and one output Tensor
instead of four to fourteen. The encoder layer, the head MLP, the
Gaussian log-density and evaluation-mode batch norm replay the
expression's backward steps too, so their gradients are bitwise those
of the composite; training-mode batch norm has a closed-form backward
instead, which sums in another order.

The op set is what the model records: add, sub, mul, matmul, exp, clip,
minimum, tensor_sum and concat, plus the fused nodes. The composites the
fused nodes replaced live on in the tests as oracles, built from
test-side copies of the ops the model no longer records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOG_TWO_PI = float(np.log(2.0 * np.pi))
BN_MOMENTUM = 0.9
BN_EPS = 1e-5

_ACTIVE_TAPE = None


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

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(self, _NEG_ONE)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Operation record for one backward pass.

    Single-writer: at most one tape is active at a time; one tape covers
    one chunk of training examples. Gradients from successive tapes
    accumulate into the leaves' .grad slots in call order; training code
    does not open tapes itself but goes through accumulate_grads.
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into .grad for every leaf tensor."""
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
        # whatever was never popped is a leaf of this tape
        for key, g in pending.items():
            leaf = holders[key]
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def _record(out: Tensor, parents, back) -> None:
    _ACTIVE_TAPE.nodes.append((out, parents, back))


def custom_op(data, parents, back) -> Tensor:
    """Wrap an array computed from the parents' values as one tape node.

    For fused operations with a hand-written gradient: back(g) returns
    one gradient array (or None) per parent, like the built-in ops, and
    unbroadcast sums a gradient back to a broadcast parent's shape.
    """
    parents = tuple(parents)
    requires_grad = False
    for p in parents:  # a plain loop: any() over a generator costs more per call
        if p.requires_grad:
            requires_grad = True
            break
    out = Tensor(data, requires_grad)
    if _ACTIVE_TAPE is not None and requires_grad:
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


def _broadcast_op(a: Tensor, b: Tensor, fn, name: str):
    try:
        data = fn(a.data, b.data)
    except ValueError:
        raise ValueError(
            f"{name}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None
    return data


_NEG_ONE = None  # placeholder, assigned after Tensor exists


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_broadcast_op(a, b, np.add, "add"), a.requires_grad or b.requires_grad)
    if _ACTIVE_TAPE is None or not out.requires_grad:
        return out

    def back(g):
        return (
            unbroadcast(g, a.data.shape) if a.requires_grad else None,
            unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    _record(out, (a, b), back)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_broadcast_op(a, b, np.subtract, "sub"), a.requires_grad or b.requires_grad)
    if _ACTIVE_TAPE is None or not out.requires_grad:
        return out

    def back(g):
        return (
            unbroadcast(g, a.data.shape) if a.requires_grad else None,
            unbroadcast(-g, b.data.shape) if b.requires_grad else None,
        )

    _record(out, (a, b), back)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_broadcast_op(a, b, np.multiply, "mul"), a.requires_grad or b.requires_grad)
    if _ACTIVE_TAPE is None or not out.requires_grad:
        return out

    def back(g):
        return (
            unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    _record(out, (a, b), back)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul needs rank >= 2 operands, got {a.data.shape} @ {b.data.shape}"
        )
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ValueError(
            f"matmul: shapes {a.data.shape} and {b.data.shape} are incompatible"
        ) from None
    out = Tensor(data, a.requires_grad or b.requires_grad)
    if _ACTIVE_TAPE is None or not out.requires_grad:
        return out

    def back(g):
        # constant operands (adjacency, one-hot rows) get no gradient product
        ga = gb = None
        if a.requires_grad:
            ga = unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
        if b.requires_grad:
            gb = unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
        return (ga, gb)

    _record(out, (a, b), back)
    return out


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data), a.requires_grad)
    if _ACTIVE_TAPE is None or not out.requires_grad:
        return out

    def back(g):
        return (g * out.data,)

    _record(out, (a,), back)
    return out


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient is zero where clamping engaged."""
    out = Tensor(np.clip(a.data, lo, hi), a.requires_grad)
    if _ACTIVE_TAPE is None or not out.requires_grad:
        return out
    inside = (a.data > lo) & (a.data < hi)

    def back(g):
        return (g * inside,)

    _record(out, (a,), back)
    return out


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    out = Tensor(
        _broadcast_op(a, b, np.minimum, "minimum"), a.requires_grad or b.requires_grad
    )
    if _ACTIVE_TAPE is None or not out.requires_grad:
        return out
    take_a = a.data <= b.data

    def back(g):
        return (
            unbroadcast(g * take_a, a.data.shape),
            unbroadcast(g * ~take_a, b.data.shape),
        )

    _record(out, (a, b), back)
    return out


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), a.requires_grad)
    if _ACTIVE_TAPE is None or not out.requires_grad:
        return out

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    _record(out, (a,), back)
    return out


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        any(t.requires_grad for t in tensors),
    )
    if _ACTIVE_TAPE is None or not out.requires_grad:
        return out
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    _record(out, tuple(tensors), back)
    return out


def gaussian_logpdf(x, mu, alpha) -> Tensor:
    """Elementwise log N(x; mu, alpha^2) with scale parameter alpha > 0,
    as one tape node. With z = (x - mu) / alpha, the forward runs the
    numpy calls of the composite (c + -1 * log(alpha)) + (-0.5 * z) * z
    in their order, and the backward replays the composite's backward
    steps, so values and gradients are bitwise those of the op-by-op
    expression."""
    x, mu, alpha = _wrap(x), _wrap(mu), _wrap(alpha)
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


_NEG_ONE = Tensor(-1.0)
