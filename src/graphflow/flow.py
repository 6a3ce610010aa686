"""Autoregressive normalizing flow over dequantized molecular graphs.

Generation order is: node 0's type, node 1's type, then bond slots from
node 1 back to each in-window earlier node in ascending order, node 2's
type, its bond slots, and so on. Each step transforms a base normal
sample with a per-step affine map

    z = eps * alpha + mu        (generation)
    eps = (z - mu) / alpha      (density evaluation)

whose mu and alpha come from MLP heads reading the encoder state of the
already-decided part of the graph. alpha is exp of a clipped raw scale,
so it is strictly positive and the per-step log-density of the data
point is exactly the Gaussian log-density of z under N(mu, alpha^2).

The conditioning input is the discrete partial graph, so perturbing a
later step's value cannot change an earlier step's transform, and the
Jacobian of the stacked inverse map is diagonal: its log-determinant is
the sum of -log(alpha) over all coordinates.

Bond slots further back than the dependency window are fixed to
no-edge and carry no likelihood term; training data must be BFS-ordered
so that every bond lands inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from . import rgcn
from .autodiff import Tensor
from .graph import (
    AtomVocab,
    BondVocab,
    DequantizedGraph,
    GraphError,
    MolecularGraph,
    default_atom_vocab,
    default_bond_vocab,
    dequantize,
    empty_categories,
    is_bfs_ordered,
    max_dependency_distance,
)

LOG_ALPHA_MIN = -7.0
LOG_ALPHA_MAX = 7.0


@dataclass
class ModelSpec:
    """Dimensions and vocabularies that define one model family."""

    vocab: AtomVocab = field(default_factory=default_atom_vocab)
    bonds: BondVocab = field(default_factory=default_bond_vocab)
    width: int = 32
    layers: int = 3
    window: int = 12
    max_size: int = 16

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")
        # a window can never need to reach further back than max_size - 1
        self.window = min(self.window, max(1, self.max_size - 1))

    @property
    def node_dim(self) -> int:
        return self.vocab.size

    @property
    def edge_dim(self) -> int:
        return self.bonds.categories


@dataclass
class MlpParams:
    """Two affine layers with tanh between."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self, prefix: str) -> dict:
        return {
            f"{prefix}.w1": self.w1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
        }


def mlp_apply(p: MlpParams, x: Tensor) -> Tensor:
    return ad.tanh(x @ p.w1 + p.b1) @ p.w2 + p.b2


def _init_mlp(dim_in: int, hidden: int, dim_out: int, rng, prefix: str, zero_last: bool) -> MlpParams:
    w1 = Tensor(
        rng.normal(0.0, 1.0 / np.sqrt(dim_in), size=(dim_in, hidden)),
        requires_grad=True,
        name=f"{prefix}.w1",
    )
    b1 = Tensor(np.zeros(hidden), requires_grad=True, name=f"{prefix}.b1")
    if zero_last:
        w2_data = np.zeros((hidden, dim_out))
    else:
        w2_data = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, dim_out))
    w2 = Tensor(w2_data, requires_grad=True, name=f"{prefix}.w2")
    b2 = Tensor(np.zeros(dim_out), requires_grad=True, name=f"{prefix}.b2")
    return MlpParams(w1, b1, w2, b2)


@dataclass
class FlowParams:
    """Encoder plus the four conditional heads."""

    rgcn: rgcn.RgcnParams
    node_mu: MlpParams
    node_scale: MlpParams
    edge_mu: MlpParams
    edge_scale: MlpParams

    def named_tensors(self) -> dict:
        out = dict(self.rgcn.named_tensors())
        out.update(self.node_mu.named("head.node_mu"))
        out.update(self.node_scale.named("head.node_scale"))
        out.update(self.edge_mu.named("head.edge_mu"))
        out.update(self.edge_scale.named("head.edge_scale"))
        return out

    def named_buffers(self) -> dict:
        return self.rgcn.named_buffers()


def init_flow_params(spec: ModelSpec, rng, zero_init_heads: bool = True) -> FlowParams:
    """Fresh parameters; with zero_init_heads the flow starts as identity
    (mu = 0, alpha = 1 everywhere), which keeps early training stable."""
    k = spec.width
    d = spec.node_dim
    c = spec.edge_dim
    return FlowParams(
        rgcn=rgcn.init_rgcn_params(d, k, spec.layers, c, rng),
        node_mu=_init_mlp(k, k, d, rng, "head.node_mu", zero_init_heads),
        node_scale=_init_mlp(k, k, d, rng, "head.node_scale", zero_init_heads),
        edge_mu=_init_mlp(3 * k, k, c, rng, "head.edge_mu", zero_init_heads),
        edge_scale=_init_mlp(3 * k, k, c, rng, "head.edge_scale", zero_init_heads),
    )


def node_conditional(params: FlowParams, h_tilde: Tensor):
    """(mu, alpha) rows for node-type steps from pooled graph embeddings."""
    mu = mlp_apply(params.node_mu, h_tilde)
    alpha = ad.exp(ad.clip(mlp_apply(params.node_scale, h_tilde), LOG_ALPHA_MIN, LOG_ALPHA_MAX))
    return mu, alpha


def edge_conditional(params: FlowParams, h_tilde: Tensor, h_i: Tensor, h_j: Tensor):
    """(mu, alpha) rows for bond steps from pooled plus endpoint embeddings."""
    x = ad.concat([h_tilde, h_i, h_j], axis=-1)
    mu = mlp_apply(params.edge_mu, x)
    alpha = ad.exp(ad.clip(mlp_apply(params.edge_scale, x), LOG_ALPHA_MIN, LOG_ALPHA_MAX))
    return mu, alpha


def forward_transform(eps: np.ndarray, mu: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Latent to data: z = eps * alpha + mu."""
    return eps * alpha + mu


def inverse_transform(z: np.ndarray, mu: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Data to latent: eps = (z - mu) / alpha."""
    return (z - mu) / alpha


def decode_category(eps: np.ndarray, mu: np.ndarray, alpha: np.ndarray) -> int:
    """argmax of z = eps * alpha + mu. A non-finite z raises FloatingPointError:
    its argmax would be a plausible-looking but meaningless category."""
    z = forward_transform(eps, mu, alpha)
    if not np.isfinite(z).all():
        raise FloatingPointError("non-finite step output: the model overflowed")
    return int(np.argmax(z))


@dataclass
class StepPlan:
    """Ordered generation steps for a graph of n nodes under a window."""

    n: int
    window: int
    steps: list  # ("node", i) or ("edge", i, j), in generation order

    @property
    def edge_steps(self):
        return [s for s in self.steps if s[0] == "edge"]


def build_plan(n: int, window: int) -> StepPlan:
    steps = []
    for i in range(n):
        steps.append(("node", i))
        for j in range(max(0, i - window), i):
            steps.append(("edge", i, j))
    return StepPlan(n=n, window=window, steps=steps)


def validate_ordered(g: MolecularGraph, window: int) -> None:
    """Reject graphs the windowed autoregressive factorization cannot express."""
    if g.n > 1 and not is_bfs_ordered(g):
        raise GraphError("graph is not in BFS generation order")
    gap = max_dependency_distance(g)
    if gap > window:
        raise GraphError(
            f"bond spans {gap} positions but the dependency window is {window}"
        )


@dataclass
class LogLik:
    """Total log-likelihood plus the per-step breakdown. nll is the
    negative total as a tensor a surrounding tape can differentiate; only
    the parallel path records one."""

    total: float
    node_terms: np.ndarray  # (n,)
    edge_terms: list  # [(i, j, value)] in generation order
    nll: Tensor | None = None

    @property
    def num_steps(self) -> int:
        return len(self.node_terms) + len(self.edge_terms)


def step_embedding(params: FlowParams, g: MolecularGraph, step):
    """Evaluation-mode encoder inputs for one generation step of g.

    A ("node", i) step sees g's first i nodes and gives (h,), a zero row
    when i == 0. An ("edge", i, j) step sees nodes 0..i with node i's
    slots at column j and beyond still undecided, and gives (h, h_i,
    h_j). Nothing of g past the step is read, so g may be a graph that
    is still being filled in.
    """
    k = params.rgcn.width
    kind, i = step[0], step[1]
    if kind == "node":
        if i == 0:
            return (Tensor(np.zeros((1, k))),)
        return (rgcn.encode(g.prefix(i), params.rgcn).graph_embedding.reshape(1, k),)
    if kind == "edge":
        j = step[2]
        emb = rgcn.encode(g.prefix(i + 1), params.rgcn, undecided_row=(i, j))
        return (
            emb.graph_embedding.reshape(1, k),
            Tensor(emb.H.data[i : i + 1]),
            Tensor(emb.H.data[j : j + 1]),
        )
    raise ValueError(f"unknown step kind {kind!r}")


def step_conditional(params: FlowParams, g: MolecularGraph, step):
    """Evaluation-mode (mu, alpha) arrays for one generation step of g."""
    head = node_conditional if step[0] == "node" else edge_conditional
    mu, alpha = head(params, *step_embedding(params, g, step))
    return mu.data[0], alpha.data[0]


def _stacked_conditionals(graphs, steps, params: FlowParams, training: bool = False):
    """Batched (mu, alpha) for generation steps of one graph or of many.

    graphs is the MolecularGraph every step belongs to, or a sequence
    holding each step's own graph (see rgcn.encode_step_batch). Returns
    (mu_x, alpha_x) with one row per node step and (mu_a, alpha_a) with
    one row per edge step, each in the order the steps are given; a kind
    with no steps gets None. All states go through one encoder call and
    each kind through one head call.
    """
    k = params.rgcn.width
    single = isinstance(graphs, MolecularGraph)
    encoded = [s for s, step in enumerate(steps) if step != ("node", 0)]
    row = np.full(len(steps), -1, dtype=np.int64)  # encoder row per step
    row[encoded] = np.arange(len(encoded))
    if encoded:
        stacked = rgcn.encode_step_batch(
            graphs if single else [graphs[s] for s in encoded],
            [steps[s] for s in encoded],
            params.rgcn,
            training=training,
        )
    node = [s for s, step in enumerate(steps) if step[0] == "node"]
    edge = [s for s, step in enumerate(steps) if step[0] == "edge"]
    mu_x = alpha_x = mu_a = alpha_a = None
    if node:
        # row 0 of the table is the empty prefix's zero embedding
        table = Tensor(np.zeros((1, k)))
        if encoded:
            table = ad.concat([table, stacked.graph_embedding], axis=0)
        mu_x, alpha_x = node_conditional(params, ad.take(table, (row[node] + 1,)))
    if edge:
        e_rows = row[edge]
        i_idx = np.array([steps[s][1] for s in edge], dtype=np.int64)
        j_idx = np.array([steps[s][2] for s in edge], dtype=np.int64)
        h_edge = ad.take(stacked.graph_embedding, (e_rows,))
        h_i = ad.take(stacked.H, (e_rows, i_idx))
        h_j = ad.take(stacked.H, (e_rows, j_idx))
        mu_a, alpha_a = edge_conditional(params, h_edge, h_i, h_j)
    return mu_x, alpha_x, mu_a, alpha_a


def _stack_za(z: DequantizedGraph, edge_steps) -> np.ndarray:
    return np.stack([z.za[(i, j)] for _, i, j in edge_steps])


def log_likelihood_parallel(
    g: MolecularGraph,
    params: FlowParams,
    spec: ModelSpec,
    rng=None,
    z: DequantizedGraph | None = None,
    training: bool = False,
) -> LogLik:
    """Exact log-likelihood of a dequantized graph, all steps batched.

    Either pass z (shared noise) or an rng to draw fresh dequantization
    noise. The result's nll is the scalar negative log-likelihood tensor,
    recorded on the active tape if there is one. With training=True the
    encoder normalizes with this stack's batch statistics (the function
    optimized by train()); the default reads the frozen running buffers,
    which makes the value a per-graph density independent of how calls
    are batched.
    """
    validate_ordered(g, spec.window)
    if z is None:
        if rng is None:
            raise ValueError("need either z or an rng")
        z = dequantize(g, spec.vocab, spec.bonds, rng, window=spec.window)
    plan = build_plan(g.n, spec.window)
    mu_x, alpha_x, mu_a, alpha_a = _stacked_conditionals(g, plan.steps, params, training)
    ll_x = ad.gaussian_logpdf(Tensor(z.zx), mu_x, alpha_x)
    total = ll_x.sum()
    node_terms = ll_x.data.sum(axis=1)
    edge_terms = []
    if mu_a is not None:
        za = _stack_za(z, plan.edge_steps)
        ll_a = ad.gaussian_logpdf(Tensor(za), mu_a, alpha_a)
        total = total + ll_a.sum()
        rows = ll_a.data.sum(axis=1)
        edge_terms = [
            (i, j, float(v)) for (_, i, j), v in zip(plan.edge_steps, rows)
        ]
    return LogLik(
        total=float(total.data), node_terms=node_terms, edge_terms=edge_terms, nll=-1.0 * total
    )


def log_likelihood_sequential(
    g: MolecularGraph,
    params: FlowParams,
    spec: ModelSpec,
    z: DequantizedGraph,
) -> LogLik:
    """Reference implementation: one encoder call per generation step.

    Always runs the encoder against the running buffers; batch statistics
    would span a whole stacked pass and cannot be reproduced one step at
    a time."""
    validate_ordered(g, spec.window)
    node_terms = np.zeros(g.n)
    edge_terms = []
    for step in build_plan(g.n, spec.window).steps:
        mu, alpha = step_conditional(params, g, step)
        if step[0] == "node":
            i = step[1]
            node_terms[i] = ad.gaussian_logpdf(z.zx[i], mu, alpha).data.sum()
        else:
            _, i, j = step
            val = ad.gaussian_logpdf(z.za[(i, j)], mu, alpha).data.sum()
            edge_terms.append((i, j, float(val)))
    total = float(node_terms.sum() + sum(v for _, _, v in edge_terms))
    return LogLik(total=total, node_terms=node_terms, edge_terms=edge_terms)


@dataclass
class LatentSeq:
    """Base-normal values per step: eps_x rows and eps_a per edge slot."""

    eps_x: np.ndarray  # (n, d)
    eps_a: dict  # {(i, j) -> (C,)}


def graph_to_latent(
    g: MolecularGraph,
    params: FlowParams,
    spec: ModelSpec,
    z: DequantizedGraph | None = None,
    rng=None,
    sequential: bool = True,
) -> LatentSeq:
    """Invert the flow on a dequantized graph.

    The sequential path literally never touches data later in the order,
    so earlier latents are bit-for-bit invariant to later perturbations.
    The batched path computes the same values via masked stacks (equal to
    roundoff) and is the faster choice when that guarantee is not needed.
    Uses evaluation-mode batch norm, so no state is mutated.
    """
    validate_ordered(g, spec.window)
    if z is None:
        if rng is None:
            raise ValueError("need either z or an rng")
        z = dequantize(g, spec.vocab, spec.bonds, rng, window=spec.window)
    plan = build_plan(g.n, spec.window)
    if sequential:
        eps_x = np.zeros_like(z.zx)
        eps_a = {}
        for step in plan.steps:
            mu, alpha = step_conditional(params, g, step)
            if step[0] == "node":
                eps_x[step[1]] = inverse_transform(z.zx[step[1]], mu, alpha)
            else:
                eps_a[step[1:]] = inverse_transform(z.za[step[1:]], mu, alpha)
        return LatentSeq(eps_x=eps_x, eps_a=eps_a)
    mu_x, alpha_x, mu_a, alpha_a = _stacked_conditionals(g, plan.steps, params)
    eps_x = inverse_transform(z.zx, mu_x.data, alpha_x.data)
    eps_a = {}
    if mu_a is not None:
        za = _stack_za(z, plan.edge_steps)
        all_eps = inverse_transform(za, mu_a.data, alpha_a.data)
        for row, (_, i, j) in zip(all_eps, plan.edge_steps):
            eps_a[(i, j)] = row
    return LatentSeq(eps_x=eps_x, eps_a=eps_a)


def latent_to_graph(
    latent: LatentSeq,
    params: FlowParams,
    spec: ModelSpec,
) -> MolecularGraph:
    """Deterministically decode a latent sequence back to a discrete graph.

    This is the generation map run without sampling, valency checks or
    termination: every step re-encodes the partial graph decoded so far.
    """
    n = latent.eps_x.shape[0]
    no_edge = spec.bonds.no_edge
    types = np.zeros(n, dtype=np.int64)
    cats = empty_categories(n, no_edge)
    g = MolecularGraph(types, cats, no_edge)  # filled in place, step by step
    for step in build_plan(n, spec.window).steps:
        mu, alpha = step_conditional(params, g, step)
        if step[0] == "node":
            i = step[1]
            types[i] = decode_category(latent.eps_x[i], mu, alpha)
        else:
            _, i, j = step
            c = decode_category(latent.eps_a[(i, j)], mu, alpha)
            if c != no_edge:
                cats[i, j] = cats[j, i] = c
    return g


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999


def _reorder_for_window(g: MolecularGraph, window: int, rng):
    """BFS-reorder with a random start; retry starts until bonds fit the window."""
    from .graph import bfs_reorder

    first = int(rng.integers(g.n))
    starts = [first] + [s for s in range(g.n) if s != first]
    for start in starts:
        h, _ = bfs_reorder(g, start=start, rng=rng)
        if max_dependency_distance(h) <= window:
            return h
    raise GraphError(
        f"no BFS order of a {g.n}-node graph fits dependency window {window}"
    )


def train(
    dataset: list,
    params: FlowParams,
    spec: ModelSpec,
    cfg: TrainConfig,
    rng,
) -> list:
    """Minimize mean per-graph negative log-likelihood with Adam.

    Each epoch reshuffles the dataset, re-draws a BFS order per graph and
    fresh dequantization noise, accumulates per-example gradients over a
    batch in a fixed order and applies one Adam step per batch. Returns
    the per-epoch mean NLL trace. Raises GraphError, before any update,
    if a graph is larger than spec.max_size (the sampler could never
    produce it), and FloatingPointError on a non-finite loss.
    """
    for g in dataset:
        if g.n > spec.max_size:
            raise GraphError(
                f"training graph has {g.n} nodes but max_size is {spec.max_size}"
            )
    named = params.named_tensors()
    state = ad.AdamState()
    trace = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        epoch_nll = []

        def graph_loss(g, scale):
            g = _reorder_for_window(g, spec.window, rng)
            ll = log_likelihood_parallel(g, params, spec, rng=rng, training=True)
            nll = -ll.total
            if not np.isfinite(nll):
                raise FloatingPointError(f"training diverged: non-finite loss at epoch {epoch}")
            epoch_nll.append(nll)
            return ll.nll * scale

        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            losses = [partial(graph_loss, dataset[gi], 1.0 / len(batch)) for gi in batch]
            grads, _ = ad.accumulate_grads(named, losses)
            ad.adam_step(named, grads, state, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
        trace.append(float(np.mean(epoch_nll)))
    return trace
