"""Relational graph convolution encoder over bond categories.

Each bond category, no-edge last, is a relation with its own per-layer
weights. One layer computes, per relation r,

    msg_r = D_r^{-1/2} (E_r + I) D_r^{-1/2} H W_r

and the new node state is the mean over relations of ReLU(msg_r). Node
features enter through a learned embedding of the one-hot type row, a
batch normalization over nodes runs after the last layer, and the graph
embedding is the column sum of the normalized node states.

Each layer is one tape node (_relation_layer, built on
autodiff.custom_op): both products, the ReLU, the relation sum and the
1/R scale, with a backward that replays the op-by-op expression's
gradient steps in order, so values and gradients are those of the
composite (bitwise, up to BLAS's order in the product by W^T) while a
layer costs one Tensor and one tape node. The embedding product
(_embed) and the readout (_readout) are one node each too.

One core, _propagate(), runs the layers on a stack of states, all
relations of a layer in one batched product, and batch norm and the
column sum follow it. A state is always a generation step of the plan,
("node", i) or ("edge", i, j), and one cached layout, _step_layout(),
decides which nodes and bond slots it sees. encode() runs the sampler's
case: steps whose states hold all of one (sub)graph's nodes and differ
only in how much of its last row is decided, in evaluation mode, as one
stack whose rows are bitwise the one-step calls. encode_step_batch() is
the one entry point for a set of generation-step states, of one graph or
of many, in either mode, and it runs in two halves. pack_step_batch() does
everything that reads no weight into a StepPack: the step masks, the
groups of states that share a pass, the node mask, the per-graph
segments and the rows the flow's heads read. The passes over a pack,
one _propagate per group, one node placing their outputs in step order
and one batch-norm node, are the weight-dependent rest, so a caller that
encodes one set of states under moving weights (the PPO update) packs
them once. In evaluation mode each group is one node-count block. In
training mode each group holds the masked stacks of the graphs with one
node count, and batch norm keeps one pair of statistics per graph, so a
graph's rows are bitwise those of a pass over its states alone. The
empty prefix ("node", 0) joins no group; its rows are exactly zero. Both
modes compute the same function; the stacked path may differ from the
single one by reduction order only (empirically below 1e-12).
state_nodes() gives how many nodes a state sees, to the layout and to
flow and rl alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .graph import GraphError, MolecularGraph


@dataclass
class RgcnParams:
    """Weights for the encoder, read by the one forward core.

    layers[l] is layer l's (R, k, k) leaf tensor: slice r is the weight
    of relation r, which is bond category r, and the no-edge relation is
    the last slice. The forward pass multiplies by the whole stack at
    once, and the optimizer and gradient checks see one parameter per
    layer, rgcn.layer{l}. Checkpoint files keep one (k, k) tensor per
    relation, rgcn.layer{l}.rel{r}; checkpoint_arrays() hands them out
    as views of the stacked array, so writing a view writes the layer.
    """

    embed: Tensor
    layers: list
    bn_gamma: Tensor
    bn_beta: Tensor
    bn_state: BatchNormState

    @property
    def width(self) -> int:
        return self.embed.data.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.embed.data.shape[0]

    @property
    def num_relations(self) -> int:
        return self.layers[0].data.shape[0]

    def named_tensors(self) -> dict:
        out = {"rgcn.embed": self.embed}
        for l, w in enumerate(self.layers):
            out[f"rgcn.layer{l}"] = w
        out["rgcn.bn.gamma"] = self.bn_gamma
        out["rgcn.bn.beta"] = self.bn_beta
        return out

    def checkpoint_arrays(self) -> dict:
        """The weights as checkpoint files name and shape them, in file
        order: each layer as one (k, k) view per relation."""
        out = {"rgcn.embed": self.embed.data}
        for l, w in enumerate(self.layers):
            for r, rel in enumerate(w.data):
                out[f"rgcn.layer{l}.rel{r}"] = rel
        out["rgcn.bn.gamma"] = self.bn_gamma.data
        out["rgcn.bn.beta"] = self.bn_beta.data
        return out

    def named_buffers(self) -> dict:
        return {
            "rgcn.bn.running_mean": self.bn_state.running_mean,
            "rgcn.bn.running_var": self.bn_state.running_var,
        }


def init_rgcn_params(
    feature_dim: int,
    width: int,
    num_layers: int,
    categories: int,
    rng,
) -> RgcnParams:
    if num_layers < 1 or width < 1:
        raise ValueError("need at least one layer and width >= 1")
    embed = Tensor(
        rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(feature_dim, width)),
        requires_grad=True,
        name="rgcn.embed",
    )
    layers = [
        Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(width), size=(categories, width, width)),
            requires_grad=True,
            name=f"rgcn.layer{l}",
        )
        for l in range(num_layers)
    ]
    return RgcnParams(
        embed=embed,
        layers=layers,
        bn_gamma=Tensor(np.ones(width), requires_grad=True, name="rgcn.bn.gamma"),
        bn_beta=Tensor(np.zeros(width), requires_grad=True, name="rgcn.bn.beta"),
        bn_state=BatchNormState.fresh(width),
    )


@dataclass
class NodeEmbeddings:
    """Node states after batch norm, an (S, n, k) stack of states with rows
    past each state's own nodes zeroed, and their (S, k) column sums."""

    H: Tensor
    graph_embedding: Tensor


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=64)
def _off_diagonal(n: int) -> np.ndarray:
    off = ~np.eye(n, dtype=bool)
    off.flags.writeable = False
    return off


def _one_hot_adjacency(g: MolecularGraph) -> np.ndarray:
    """(R, n, n) boolean one-hot slices of the off-diagonal categories, R = no_edge + 1."""
    hit = g.categories[None, :, :] == np.arange(g.no_edge + 1)[:, None, None]
    return hit & _off_diagonal(g.n)


def _normalized_adjacency(slices: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of each boolean slice after adding self loops."""
    tilde = slices + _identity(slices.shape[-1])
    inv_sqrt = 1.0 / np.sqrt(tilde @ np.ones(tilde.shape[-1]))  # exact degrees: entries are 0 or 1
    return tilde * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]


def _features(g: MolecularGraph, params: RgcnParams) -> np.ndarray:
    """(n, F) one-hot type rows of g, after checking that g's bond
    categories match the encoder's relations."""
    relations = g.no_edge + 1
    if relations != params.num_relations:
        raise GraphError(
            f"graph has {relations} categories but encoder holds "
            f"{params.num_relations} relations"
        )
    return _identity(params.feature_dim)[g.node_types]


def _relation_layer(adj: np.ndarray, h: Tensor, w: Tensor, scale: float) -> Tensor:
    """One encoder layer as one tape node: with P = adj @ h per relation
    and Q = P @ w, the output is relu(Q) summed over the relation axis,
    times scale.

    adj is (..., R, n, n), h (..., n, k) and w (R, k, k). The backward
    replays the composite's steps (the scale, the broadcast over
    relations, the Q > 0 mask; then P^T @ g summed over the leading axes
    for w, and adj^T @ (g @ w^T) summed over relations for h), so values
    and gradients are bitwise those of the op-by-op expression, except
    that g @ w^T reads a contiguous copy of w^T (a transposed view took
    2.7x as long on a (110, R, 10, 16) stack, numpy 2.4 and OpenBLAS
    0.3.31 on one Xeon core), which BLAS may sum in another order. Only
    the Q > 0 mask is kept for the backward, which recomputes P with the
    forward's own call.
    """
    stacked = h.data.shape[:-2] + (1,) + h.data.shape[-2:]
    q = np.matmul(np.matmul(adj, h.data.reshape(stacked)), w.data)
    active = q > 0.0

    def back(g):
        gq = np.expand_dims(g * scale, -3) * active
        gh = gw = None
        if w.requires_grad:
            p = np.matmul(adj, h.data.reshape(stacked))
            gw = ad.unbroadcast(np.matmul(np.swapaxes(p, -1, -2), gq), w.data.shape)
        if h.requires_grad:
            gp = np.matmul(gq, np.ascontiguousarray(np.swapaxes(w.data, -1, -2)))
            gh = ad.unbroadcast(np.matmul(np.swapaxes(adj, -1, -2), gp), stacked)
            gh = gh.reshape(h.data.shape)
        return (gh, gw)

    return ad.custom_op(np.maximum(q, 0.0).sum(axis=-3) * scale, (h, w), back)


def _embed(x: np.ndarray, embed: Tensor) -> Tensor:
    """The embedding product x @ embed of constant one-hot rows x, (..., n,
    F), as one tape node; its backward, x^T @ g summed over the leading
    axes, is the composite matmul's, so the embed gradient is bitwise its."""

    def back(g):
        return (ad.unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), embed.data.shape),)

    return ad.custom_op(np.matmul(x, embed.data), (embed,), back)


def _readout(h: Tensor) -> Tensor:
    """The graph embedding, the column sum of node states h over the node
    axis, as one tape node."""

    def back(g):
        return (np.broadcast_to(np.expand_dims(g, -2), h.data.shape),)

    return ad.custom_op(h.data.sum(axis=-2), (h,), back)


def _propagate(x: np.ndarray, adj: np.ndarray, params: RgcnParams) -> Tensor:
    """Node states of one-hot rows x under normalized relation slices
    adj after the last layer, before batch norm.

    adj is an (S, R, n, n) stack and x is (S, n, F), or (n, F) when every
    state has one graph's rows. Each layer runs every relation at once:
    the relation axis is summed in relation order after the ReLU.
    """
    h = _embed(x, params.embed)
    scale = 1.0 / params.num_relations
    for w in params.layers:
        h = _relation_layer(adj, h, w, scale)
    return h


def state_nodes(step) -> int:
    """The node count m of a generation step's state: ("node", i) sees
    nodes 0..i-1 and ("edge", i, j) nodes 0..i. The encoder reads nothing
    of the graph past these m nodes."""
    return step[1] + (step[0] == "edge")


@lru_cache(maxsize=1024)
def _step_layout(n: int, steps: tuple) -> tuple:
    """Read-only (S, n, n) decided slots and (S, n, 1) nodes of each state
    for n-node graphs: the one rule for what a state sees. Cached, as
    every graph of one size has one full plan and the sampler's drafts
    recur from molecule to molecule; those drafts alone are about
    max_size * window keys (129 at max_size 16, window 12, where 128
    slots thrashed), so the bound leaves room for them."""
    s_count = len(steps)
    prefix = np.empty(s_count, dtype=np.int64)  # nodes fully inside the prefix
    row = np.full(s_count, -1, dtype=np.int64)  # partially decided node, if any
    lim = np.zeros(s_count, dtype=np.int64)  # decided row slots bound
    total = np.empty(s_count, dtype=np.int64)
    for s, step in enumerate(steps):
        prefix[s], total[s] = step[1], state_nodes(step)
        if step[0] == "edge":
            row[s], lim[s] = step[1], step[2]
    idx = np.arange(n)
    in_prefix = idx[None, :] < prefix[:, None]  # (S, n)
    keep = in_prefix[:, :, None] & in_prefix[:, None, :]
    row_hit = idx[None, :] == row[:, None]
    below = idx[None, :] < lim[:, None]
    keep |= row_hit[:, :, None] & below[:, None, :]
    keep |= row_hit[:, None, :] & below[:, :, None]
    node_mask = (idx[None, :] < total[:, None]).astype(np.float64)[:, :, None]
    keep.flags.writeable = node_mask.flags.writeable = False
    return keep, node_mask


def build_step_masks(g: MolecularGraph, steps) -> tuple:
    """Constant mask stacks for a list of generation steps.

    Steps are ("node", i) for the prefix of i nodes seen before choosing
    node i's type, or ("edge", i, j) for the state that already includes
    node i and its decided bond slots (i, j') for j' < j; ("node", 0),
    the empty prefix, is an all-masked slice. Returns
    (norm_adj, node_mask) as read-only numpy arrays, where norm_adj is
    (S, R, n, n) and node_mask is (S, n, 1).
    """
    keep, node_mask = _step_layout(g.n, tuple(steps))
    one_hot = _one_hot_adjacency(g)  # (R, n, n)
    norm_adj = _normalized_adjacency(one_hot[None, :, :, :] & keep[:, None, :, :])
    norm_adj.flags.writeable = False
    return norm_adj, node_mask


def encode(g_prefix: MolecularGraph, steps, params: RgcnParams) -> NodeEmbeddings:
    """Encode generation-step states of one (sub)graph in evaluation mode,
    as one stack.

    Each step's state must hold exactly g_prefix's n nodes: ("node", n),
    or ("edge", n - 1, j), whose row n - 1 is decided only before column
    j; any other step is a ValueError. The decided slots come from the
    layout build_step_masks reads. H is (S, n, k) and graph_embedding (S,
    k), row s for steps[s]. Every product, ufunc and axis sum runs per
    state in the one-step order, so row s is bitwise the call with
    steps[s] alone. g_prefix stays the first positional parameter,
    because the benchmark's tracer (bench/tracing.py) reads args[0].n.
    """
    n = g_prefix.n
    if any(state_nodes(step) != n for step in steps):
        raise ValueError(f"encode: every state must hold exactly the prefix's {n} nodes")
    keep, _ = _step_layout(n, tuple(steps))
    one_hot = _one_hot_adjacency(g_prefix)[None] & keep[:, None]
    h = _propagate(_features(g_prefix, params), _normalized_adjacency(one_hot), params)
    h = ad.batch_norm(h, params.bn_gamma, params.bn_beta, params.bn_state)
    return NodeEmbeddings(H=h, graph_embedding=_readout(h))


@dataclass
class StepPack:
    """Everything a stacked pass over one list of generation steps reads
    besides the weights, from the encoder's blocks to the heads' rows.
    Built by pack_step_batch; every pass over the same steps in the same
    mode may reuse it while the weights move.

    groups holds one (x, adj, rows) per _propagate call: the (s, m, F)
    one-hot rows, the (s, R, m, m) normalized adjacency blocks and the
    step indices of s states. In evaluation mode each distinct state
    size m has one group. In training mode each distinct graph size n
    has one: the masked stacks of the graphs with n nodes, end to end.
    Row r of a pass is steps[r]'s state, padded with zero rows to the
    widest group; mask, (S, n, 1), is 1 on each state's own nodes, and
    segments holds one slice of steps per graph with rows in training
    mode (None in evaluation mode), which batch norm reads. node_rows
    holds the rows of the node steps, and edge_rows, edge_i and edge_j
    the rows and endpoints of the edge steps.
    """

    graphs: list  # each step's graph
    steps: list
    training: bool
    groups: list  # [(x, adj, rows)]
    mask: np.ndarray
    segments: list | None
    node_rows: np.ndarray
    edge_rows: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray


def pack_step_batch(g, steps, params: RgcnParams, training: bool = False) -> StepPack:
    """The weight-free half of encode_step_batch, which takes g, steps
    and training the same way. Of params only the dimensions are read.

    A state's own node count m is i for ("node", i) and i + 1 for
    ("edge", i, j); the empty prefix, m = 0, joins no group and its rows
    stay zero. Evaluation mode groups the states by m and cuts each
    state's [:m, :m] block out of its graph's step masks. Training mode
    groups graphs by node count, each with its whole masked stack of
    build_step_masks; a graph's states must be consecutive steps, and an
    equal copy of a graph is another graph.
    """
    steps = list(steps)
    if not steps:
        raise ValueError("encode_step_batch: no steps given")
    graphs = [g] * len(steps) if isinstance(g, MolecularGraph) else list(g)
    if len(graphs) != len(steps):
        raise ValueError(f"{len(graphs)} graphs for {len(steps)} steps")
    # one pass over the steps, as (is edge, i, last field) rows
    code = np.array([(step[0] == "edge", step[1], step[-1]) for step in steps], dtype=np.int64)
    sizes = code[:, 1] + code[:, 0]
    ids = np.fromiter(map(id, graphs), dtype=np.uintp, count=len(graphs))
    _, first, owner_of = np.unique(ids, return_index=True, return_inverse=True)
    step_items = np.fromiter(steps, dtype=object, count=len(steps))
    parts: dict = {}  # group width -> [((s, m, F) rows, (s, R, m, m) blocks, state indices)]
    segments = [] if training else None
    for k in np.argsort(first):  # graphs in order of first appearance
        idx = np.flatnonzero(owner_of == k)
        owner = graphs[idx[0]]
        x = _features(owner, params)
        if not sizes[idx].any():
            continue
        norm_adj, node_mask = build_step_masks(owner, step_items[idx])
        if training:
            if idx[-1] - idx[0] + 1 != len(idx):
                raise ValueError("training mode needs each graph's states as consecutive steps")
            segments.append(slice(int(idx[0]), int(idx[-1]) + 1))
            parts.setdefault(owner.n, []).append((x * node_mask, norm_adj, idx))
            continue
        for m in sorted(set(sizes[idx].tolist()) - {0}):
            sel = np.flatnonzero(sizes[idx] == m)
            rows = np.broadcast_to(x[:m], (len(sel), m, x.shape[1]))
            parts.setdefault(int(m), []).append((rows, norm_adj[sel, :, :m, :m], idx[sel]))
    groups = [tuple(np.concatenate(column) for column in zip(*group)) for group in parts.values()]
    width = max(parts, default=0)
    edge = np.flatnonzero(code[:, 0])
    return StepPack(
        graphs=graphs,
        steps=steps,
        training=training,
        groups=groups,
        mask=(np.arange(width) < sizes[:, None]).astype(np.float64)[:, :, None],
        segments=segments,
        node_rows=np.flatnonzero(code[:, 0] == 0),
        edge_rows=edge,
        edge_i=code[edge, 1],
        edge_j=code[edge, 2],
    )


def _place(parts: list, rows: list, shape: tuple) -> Tensor:
    """The group outputs as one (S, n, k) stack in step order, as one
    tape node: parts[g], (s, m, k), fills the first m node rows of steps
    rows[g], and every other entry is zero."""
    out = np.zeros(shape)
    for part, r in zip(parts, rows):
        out[r, : part.data.shape[-2]] = part.data

    def back(g):
        return tuple(g[r, : part.data.shape[-2]] for part, r in zip(parts, rows))

    return ad.custom_op(out, parts, back)


def encode_step_batch(
    g,
    steps,
    params: RgcnParams,
    training: bool = False,
    pack: StepPack | None = None,
) -> NodeEmbeddings:
    """Encode generation-step states in stacked passes.

    g is the MolecularGraph every step belongs to, or a sequence holding
    each step's own graph, so one call can take the states of many
    graphs. Row s of the result is steps[s]'s state: H is (S, n, k),
    with rows past a state's own nodes zeroed, and graph_embedding is
    (S, k); the empty prefix ("node", 0) gives zero rows. An empty steps
    list is a ValueError. steps stays the second positional parameter,
    because the benchmark's tracer (bench/tracing.py) counts states as
    len(args[1]).

    Both modes run one _propagate per group of the StepPack that
    pack_step_batch builds, one node placing the outputs in step order
    and one batch-norm node, which in training mode takes one pair of
    statistics per graph. A pack built beforehand for the same steps in
    the same mode may be passed in, so repeated passes skip the
    weight-independent work.
    """
    if pack is None:
        pack = pack_step_batch(g, steps, params, training)
    elif pack.training != training or list(steps) != pack.steps:
        raise ValueError("the step pack was built for other steps or the other mode")
    parts = [_propagate(x, adj, params) for x, adj, _ in pack.groups]
    h = _place(parts, [rows for _, _, rows in pack.groups], pack.mask.shape[:2] + (params.width,))
    h = ad.batch_norm(
        h, params.bn_gamma, params.bn_beta, params.bn_state, pack.mask, pack.segments
    )
    return NodeEmbeddings(H=h, graph_embedding=_readout(h))
