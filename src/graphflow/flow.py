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
from functools import lru_cache, partial

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
    is_bfs_ordered,
    max_dependency_distance,
)
from .rgcn import state_nodes

LOG_ALPHA_MIN = -7.0
LOG_ALPHA_MAX = 7.0
TRAIN_CHUNK = 4  # training graphs per tape: one pack, one encoder call


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
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
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


def _mlp_forward(p: MlpParams, x: Tensor) -> tuple:
    """The head MLP's hidden layer t = tanh(x @ w1 + b1) and its output
    t @ w2 + b2."""
    t = np.tanh(np.matmul(x.data, p.w1.data) + p.b1.data)
    return t, np.matmul(t, p.w2.data) + p.b2.data


def _mlp_grads(p: MlpParams, x: Tensor, t: np.ndarray, g: np.ndarray) -> tuple:
    """Gradients for (x, w1, b1, w2, b2) of the head MLP with hidden layer
    t and output gradient g: the composite's add, matmul, tanh, add and
    matmul backward steps in order."""
    w1, b1, w2, b2 = p.w1, p.b1, p.w2, p.b2
    gu = np.matmul(g, np.swapaxes(w2.data, -1, -2)) * (1.0 - t * t)
    gx = gw1 = gb1 = gw2 = gb2 = None
    if x.requires_grad:
        gx = ad.unbroadcast(np.matmul(gu, np.swapaxes(w1.data, -1, -2)), x.data.shape)
    if w1.requires_grad:
        gw1 = ad.unbroadcast(np.matmul(np.swapaxes(x.data, -1, -2), gu), w1.data.shape)
    if b1.requires_grad:
        gb1 = ad.unbroadcast(gu, b1.data.shape)
    if w2.requires_grad:
        gw2 = ad.unbroadcast(np.matmul(np.swapaxes(t, -1, -2), g), w2.data.shape)
    if b2.requires_grad:
        gb2 = ad.unbroadcast(g, b2.data.shape)
    return (gx, gw1, gb1, gw2, gb2)


def mlp_apply(p: MlpParams, x: Tensor) -> Tensor:
    """tanh(x @ w1 + b1) @ w2 + b2 as one tape node, with values and
    gradients bitwise those of the op-by-op expression."""
    t, out = _mlp_forward(p, x)
    return ad.custom_op(out, (x, p.w1, p.b1, p.w2, p.b2), lambda g: _mlp_grads(p, x, t, g))


def _scale_head(p: MlpParams, x: Tensor) -> Tensor:
    """alpha = exp(clip(mlp(x), LOG_ALPHA_MIN, LOG_ALPHA_MAX)) as one tape
    node. The clip is np.minimum of np.maximum, the values np.clip gives
    (NaN included) without its Python wrappers. The backward replays the
    composite's: g * alpha for the exp, times the strict interior of the
    clip, then the MLP's, so values and gradients are bitwise those of
    the three-node expression."""
    t, raw = _mlp_forward(p, x)
    alpha = np.exp(np.minimum(np.maximum(raw, LOG_ALPHA_MIN), LOG_ALPHA_MAX))

    def back(g):
        inside = (raw > LOG_ALPHA_MIN) & (raw < LOG_ALPHA_MAX)
        return _mlp_grads(p, x, t, (g * alpha) * inside)

    return ad.custom_op(alpha, (x, p.w1, p.b1, p.w2, p.b2), back)


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
    return mlp_apply(params.node_mu, h_tilde), _scale_head(params.node_scale, h_tilde)


def edge_conditional(params: FlowParams, x: Tensor):
    """(mu, alpha) rows for bond steps from (E, 3k) input rows, each the
    pooled graph embedding and the two endpoint embeddings side by side."""
    return mlp_apply(params.edge_mu, x), _scale_head(params.edge_scale, x)


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
    return int(z.argmax())


@dataclass
class StepPlan:
    """Ordered generation steps for a graph under a window."""

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
    return StepPlan(steps)


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
    negative total as a tensor; a surrounding tape can differentiate it
    only on the parallel path, whose tables are built on that tape."""

    total: float
    node_terms: np.ndarray  # (n,)
    edge_terms: list  # [(i, j, value)] in generation order
    nll: Tensor

    @property
    def num_steps(self) -> int:
        return len(self.node_terms) + len(self.edge_terms)


@lru_cache(maxsize=1024)
def _gather_layout(steps: tuple) -> tuple:
    """The rows step_embeddings gathers for steps: the positions of the
    node steps, and the positions and second endpoints of the edge
    steps, as index arrays. Cached, as the sampler's drafts recur from
    molecule to molecule."""
    edge = np.array([step[0] == "edge" for step in steps])
    rows = np.arange(len(steps))
    layout = rows[~edge], rows[edge], np.array([step[-1] for step in steps])[edge]
    for part in layout:
        part.flags.writeable = False
    return layout


def step_embeddings(params: FlowParams, g: MolecularGraph, steps):
    """Evaluation-mode head inputs of generation steps of g whose states
    share one node count m (state_nodes), from one rgcn.encode call on
    g's first m nodes; returns (edge rows, node row).

    The edge steps, ("edge", m - 1, j), give their rows [h, h_i, h_j]
    stacked in step order as one (E, 1, 3k) array, so that each head row
    is a one-row call; the node step ("node", m) gives its (1, k) graph
    embedding, a zero row when m == 0. Both are constant rows in
    _head_inputs' layout, the stacked pass's, gathered off the tape. A
    kind that steps do not hold gives None. Each row is bitwise that of
    a call with its step alone, and nothing of g past the m nodes is
    read, so g may be a graph still being filled in.
    """
    steps = tuple(steps)
    m = state_nodes(steps[0])
    if m == 0:
        return None, Tensor(np.zeros((1, params.rgcn.width)))
    emb = rgcn.encode(g.prefix(m), steps, params.rgcn)
    pooled, h = emb.graph_embedding.data, emb.H.data
    nodes, edges, j = _gather_layout(steps)
    node = Tensor(pooled[nodes]) if len(nodes) else None
    if not len(edges):
        return None, node
    x = np.concatenate([pooled[edges], h[edges, m - 1], h[edges, j]], axis=-1)
    return Tensor(x[:, None]), node


def step_conditional(params: FlowParams, g: MolecularGraph, step):
    """Evaluation-mode (mu, alpha) arrays for one generation step of g,
    from step_embeddings with that step alone: a ("node", i) step reads
    the (1, k) graph embedding of g's first i nodes, an ("edge", i, j)
    step the (1, 3k) row [h, h_i, h_j] of nodes 0..i with node i's slots
    at column j and beyond still undecided."""
    if step[0] not in ("node", "edge"):
        raise ValueError(f"unknown step kind {step[0]!r}")
    edge, node = step_embeddings(params, g, [step])
    head = node_conditional if step[0] == "node" else edge_conditional
    mu, alpha = head(params, node if step[0] == "node" else Tensor(edge.data[0]))
    return mu.data[0], alpha.data[0]


def _head_inputs(stacked: rgcn.NodeEmbeddings, rows, *ends) -> Tensor:
    """The head input rows of one step kind, as one tape node: row r is
    the graph embedding of state rows[r], followed side by side by the
    node rows ends[0][r], ends[1][r], ... of that state, which is
    step_embeddings' layout. A pack's rows are unique and an edge step's
    endpoints differ, so the backward writes each gradient slot once."""
    pooled, h = stacked.graph_embedding, stacked.H
    k = pooled.data.shape[-1]
    parts = [pooled.data[rows]] + [h.data[rows, end] for end in ends]

    def back(g):
        g_pooled, g_h = np.zeros_like(pooled.data), np.zeros_like(h.data) if ends else None
        g_pooled[rows] = g[:, :k]
        for n, end in enumerate(ends, 1):
            g_h[rows, end] = g[:, n * k : (n + 1) * k]
        return (g_pooled, g_h)

    return ad.custom_op(np.concatenate(parts, axis=-1), (pooled, h), back)


def _stacked_conditionals(pack: rgcn.StepPack, params: FlowParams):
    """Batched (mu, alpha) for the generation steps of a pack, of one
    graph or of many, in the pack's mode.

    Returns (mu_x, alpha_x) with one row per node step and (mu_a,
    alpha_a) with one row per edge step, each in the order the pack's
    steps are given; a kind with no steps gets None. All states go
    through one encoder call, and each kind through one gather node
    (_head_inputs, in step_embeddings' layout) and one head call.
    """
    stacked = rgcn.encode_step_batch(
        pack.graphs, pack.steps, params.rgcn, training=pack.training, pack=pack
    )
    mu_x = alpha_x = mu_a = alpha_a = None
    if len(pack.node_rows):
        mu_x, alpha_x = node_conditional(params, _head_inputs(stacked, pack.node_rows))
    if len(pack.edge_rows):
        x = _head_inputs(stacked, pack.edge_rows, pack.edge_i, pack.edge_j)
        mu_a, alpha_a = edge_conditional(params, x)
    return mu_x, alpha_x, mu_a, alpha_a


def _sequential_conditionals(g: MolecularGraph, params: FlowParams, plan: StepPlan):
    """_stacked_conditionals' four tables, laid out the same way, from
    one step_conditional call per step: each step's encoder pass sees
    only the prefix of g that step conditions on."""
    node, edge = [], []
    for step in plan.steps:
        (node if step[0] == "node" else edge).append(step_conditional(params, g, step))
    tables = []
    for rows in (node, edge):
        tables += [Tensor(np.stack(col)) for col in zip(*rows)] if rows else [None, None]
    return tuple(tables)


def _negated_total(parts) -> Tensor:
    """-(the sum of each (table, rows) part's rows): one graph's NLL from
    its own rows of the log-density tables, as one tape node."""
    total = sum(table.data[rows].sum() for table, rows in parts)

    def back(g):
        grads = tuple(np.zeros_like(table.data) for table, _ in parts)
        for grad, (_, rows) in zip(grads, parts):
            grad[rows] = -g
        return grads

    return ad.custom_op(-total, [table for table, _ in parts], back)


def _scaled_sum(terms: list, scale: float) -> Tensor:
    """scale times the sum of scalar tensors, added in order, as one tape
    node: a training chunk's share of its batch loss."""
    total = terms[0].data
    for term in terms[1:]:
        total = total + term.data
    return ad.custom_op(total * scale, terms, lambda g: (g * scale,) * len(terms))


def _log_likelihoods(zs: list, plans: list, conditionals) -> list:
    """One LogLik per graph: the Gaussian log-density of each z under the
    (mu, alpha) tables of every step of its plan, as _stacked_conditionals
    lays them out for the graphs' steps end to end."""
    mu_x, alpha_x, mu_a, alpha_a = conditionals
    edges = [plan.edge_steps for plan in plans]
    ll_x = ad.gaussian_logpdf(Tensor(np.concatenate([z.zx for z in zs])), mu_x, alpha_x)
    tables = [(ll_x, np.cumsum([0] + [len(z.zx) for z in zs]))]
    if mu_a is not None:
        za = np.array([z.za[step[1:]] for z, steps in zip(zs, edges) for step in steps])
        ll_a = ad.gaussian_logpdf(Tensor(za), mu_a, alpha_a)
        tables.append((ll_a, np.cumsum([0] + [len(steps) for steps in edges])))
    out = []
    for k, steps in enumerate(edges):
        parts = [(t, slice(*ends[k : k + 2])) for t, ends in tables if ends[k + 1] > ends[k]]
        nll = _negated_total(parts)
        node_terms, *edge_rows = [table.data[rows].sum(axis=1) for table, rows in parts]
        edge_terms = [(i, j, float(v)) for (_, i, j), v in zip(steps, *edge_rows)]
        out.append(LogLik(-float(nll.data), node_terms, edge_terms, nll=nll))
    return out


def log_likelihood_parallel(g, params: FlowParams, spec: ModelSpec, z, training: bool = False):
    """Exact log-likelihood of a dequantized graph, all steps batched: a
    LogLik for one MolecularGraph g and its dequantized values z, a list
    of them, from one stacked pass, for a sequence of graphs and one of
    their z. Each nll is that graph's scalar NLL tensor, recorded on the
    active tape if there is one. With training=True the encoder
    normalizes each graph with its own batch statistics (the function
    optimized by train()); the default reads the frozen running buffers,
    which makes the value a per-graph density independent of how calls
    are batched.
    """
    many = not isinstance(g, MolecularGraph)
    graphs, zs = (list(g), list(z)) if many else ([g], [z])
    if not graphs:
        raise ValueError("log_likelihood_parallel: no graphs given")
    if len(zs) != len(graphs):
        raise ValueError(f"{len(zs)} dequantized graphs for {len(graphs)} graphs")
    for h in graphs:
        validate_ordered(h, spec.window)
    plans = [build_plan(h.n, spec.window) for h in graphs]
    owners, steps = zip(*[(h, step) for h, plan in zip(graphs, plans) for step in plan.steps])
    pack = rgcn.pack_step_batch(owners, steps, params.rgcn, training)
    lls = _log_likelihoods(zs, plans, _stacked_conditionals(pack, params))
    return lls if many else lls[0]


def log_likelihood_sequential(
    g: MolecularGraph,
    params: FlowParams,
    spec: ModelSpec,
    z: DequantizedGraph,
) -> LogLik:
    """Reference for log_likelihood_parallel: each step's (mu, alpha)
    come from one encoder call on that step's prefix of g.

    Always runs the encoder against the running buffers; batch statistics
    would span a whole stacked pass and cannot be reproduced one step at
    a time."""
    validate_ordered(g, spec.window)
    plan = build_plan(g.n, spec.window)
    return _log_likelihoods([z], [plan], _sequential_conditionals(g, params, plan))[0]


@dataclass
class LatentSeq:
    """Base-normal values per step: eps_x rows and eps_a per edge slot."""

    eps_x: np.ndarray  # (n, d)
    eps_a: dict  # {(i, j) -> (C,)}


def graph_to_latent(
    g: MolecularGraph, params: FlowParams, spec: ModelSpec, z: DequantizedGraph
) -> LatentSeq:
    """Invert the flow on a dequantized graph: eps = (z - mu) / alpha at
    every step, with all steps' (mu, alpha) from one stacked pass.

    Each step's conditional reads only the prefix of g decided before
    it, so editing later nodes or bond slots leaves earlier latents
    unchanged. Uses evaluation-mode batch norm, so no state is mutated.
    sampler.latent_to_graph runs the map the other way.
    """
    validate_ordered(g, spec.window)
    plan = build_plan(g.n, spec.window)
    pack = rgcn.pack_step_batch(g, plan.steps, params.rgcn)
    mu_x, alpha_x, mu_a, alpha_a = _stacked_conditionals(pack, params)
    eps_x = inverse_transform(z.zx, mu_x.data, alpha_x.data)
    eps_a = {}
    if mu_a is not None:
        za = np.stack([z.za[step[1:]] for step in plan.edge_steps])
        rows = inverse_transform(za, mu_a.data, alpha_a.data)
        eps_a = {step[1:]: row for step, row in zip(plan.edge_steps, rows)}
    return LatentSeq(eps_x=eps_x, eps_a=eps_a)


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")


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
    fresh dequantization noise, accumulates gradients over a batch in a
    fixed order, TRAIN_CHUNK graphs per tape (each graph keeps its own
    batch statistics, so chunking moves only summation order), and
    applies one Adam step per batch. Returns the per-epoch mean NLL
    trace. Raises ValueError on an empty dataset and GraphError, before
    any update, if a graph is larger than spec.max_size (the sampler
    could never produce it), and FloatingPointError on a non-finite loss.
    """
    if not dataset:
        raise ValueError("training needs at least one graph")
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

        def chunk_loss(chunk, scale):
            drawn, noise = [], []
            for g in chunk:  # the BFS re-draw, then the noise, graph by graph
                g = _reorder_for_window(g, spec.window, rng)
                drawn.append(g)
                noise.append(dequantize(g, spec.vocab, spec.bonds, rng, window=spec.window))
            lls = log_likelihood_parallel(drawn, params, spec, z=noise, training=True)
            nll = [-ll.total for ll in lls]
            if not np.isfinite(nll).all():
                raise FloatingPointError(f"training diverged: non-finite loss at epoch {epoch}")
            epoch_nll.extend(nll)
            return _scaled_sum([ll.nll for ll in lls], scale)

        for lo in range(0, len(order), cfg.batch_size):
            batch = [dataset[gi] for gi in order[lo : lo + cfg.batch_size]]
            chunks = [batch[c : c + TRAIN_CHUNK] for c in range(0, len(batch), TRAIN_CHUNK)]
            losses = [partial(chunk_loss, chunk, 1.0 / len(batch)) for chunk in chunks]
            grads, _ = ad.accumulate_grads(named, losses)
            ad.adam_step(named, grads, state, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
        trace.append(float(np.mean(epoch_nll)))
    return trace
