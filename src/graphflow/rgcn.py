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
gradient steps in order, so values and gradients are bitwise those of
the composite while a layer costs one Tensor and one tape node.

One core, _propagate(), runs this on one state or a stack of states,
all relations of a layer in one batched product, behind two front
ends: encode() for a single (sub)graph, and encode_step_batch(), the
one entry point for generation-step states of one graph or of many.
In evaluation mode it encodes each state in its own node-count block,
one stacked pass per distinct node count; in training mode it runs one
graph's states as one masked stack that shares batch statistics. Both
compute the same function; the stacked path may differ from the single
one by reduction order only (empirically below 1e-12).

Evaluation mode runs in two halves. pack_step_batch() does everything
that reads no weights (step masks, node-count groups with their
adjacency blocks and feature rows, the inverse permutation, the node
mask) into a StepPack; the passes over a pack are the weight-dependent
rest. encode_step_batch() packs its own steps unless it is handed a
pack built for the same steps, so a caller that encodes one set of
states under moving weights (the PPO update) packs them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .graph import GraphError, MolecularGraph

BN_MOMENTUM = 0.9
BN_EPS = 1e-5


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
    """Node states after batch norm, (n, k) for one state or (S, n, k) for a
    stack with masked rows zeroed, their column sums, and a stack's mask."""

    H: Tensor
    graph_embedding: Tensor
    node_mask: np.ndarray | None = None


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


def _one_hot_adjacency(g: MolecularGraph, undecided_row=None) -> np.ndarray:
    """(R, n, n) one-hot slices of the off-diagonal categories, R = no_edge + 1.

    undecided_row = (i, lim) drops slots (i, j) for j >= lim from every
    slice: those pairs are not yet decided during generation, which is
    different from having been decided as no-edge. Self loops are added
    later and are not affected.
    """
    hit = g.categories[None, :, :] == np.arange(g.no_edge + 1)[:, None, None]
    a = (hit & _off_diagonal(g.n)).astype(np.float64)
    if undecided_row is not None:
        i, lim = undecided_row
        a[:, i, lim:] = 0.0
        a[:, lim:, i] = 0.0
    return a


def _normalized_adjacency(slices: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of each slice after adding self loops."""
    tilde = slices + _identity(slices.shape[-1])
    deg = tilde.sum(axis=-1)
    inv_sqrt = 1.0 / np.sqrt(deg)
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
    and gradients are bitwise those of the op-by-op expression. Only P
    and Q are kept for the backward.
    """
    stacked = h.data.shape[:-2] + (1,) + h.data.shape[-2:]
    p = np.matmul(adj, h.data.reshape(stacked))
    q = np.matmul(p, w.data)

    def back(g):
        gq = np.expand_dims(g * scale, -3) * (q > 0.0)
        gh = gw = None
        if w.requires_grad:
            gw = ad.unbroadcast(np.matmul(np.swapaxes(p, -1, -2), gq), w.data.shape)
        if h.requires_grad:
            gp = np.matmul(gq, np.swapaxes(w.data, -1, -2))
            gh = ad.unbroadcast(np.matmul(np.swapaxes(adj, -1, -2), gp), stacked)
            gh = gh.reshape(h.data.shape)
        return (gh, gw)

    return ad.custom_op(np.maximum(q, 0.0).sum(axis=-3) * scale, (h, w), back)


def _propagate(
    x: np.ndarray,
    adj: np.ndarray,
    params: RgcnParams,
    training: bool = False,
    mask: np.ndarray | None = None,
) -> NodeEmbeddings:
    """Embeddings of one-hot rows x under normalized relation slices adj.

    x is (n, F) and adj (R, n, n) for one state, or (S, n, F) (or one
    (n, F) shared by every slice) and (S, R, n, n) for a stack. A masked
    stack carries its (S, n, 1) node mask:
    masked rows enter as zero features, leave as zero states, and are
    left out of the training-mode statistics. Each layer runs every
    relation at once: the relation axis is summed in relation order
    after the ReLU.
    """
    if mask is not None:
        x = x * mask
    h = Tensor(x) @ params.embed
    scale = 1.0 / params.num_relations
    for w in params.layers:
        h = _relation_layer(adj, h, w, scale)
    h = ad.batch_norm(
        h,
        params.bn_gamma,
        params.bn_beta,
        params.bn_state,
        training=training,
        mask=mask,
        momentum=BN_MOMENTUM,
        eps=BN_EPS,
    )
    if mask is not None:
        h = h * Tensor(mask)
    return NodeEmbeddings(H=h, graph_embedding=h.sum(axis=-2), node_mask=mask)


def encode(
    g_prefix: MolecularGraph, params: RgcnParams, undecided_row=None
) -> NodeEmbeddings:
    """Encode one (sub)graph in evaluation mode; the prefix must be non-empty.

    undecided_row = (i, lim) marks row i's slots at column lim and beyond
    as not yet generated, excluding them from every relation.
    """
    one_hot = _one_hot_adjacency(g_prefix, undecided_row=undecided_row)
    return _propagate(_features(g_prefix, params), _normalized_adjacency(one_hot), params)


def build_step_masks(g: MolecularGraph, steps) -> tuple:
    """Constant mask stacks for a list of generation steps.

    Steps are ("node", i) for the prefix of i nodes seen before choosing
    node i's type, or ("edge", i, j) for the state that already includes
    node i and its decided bond slots (i, j') for j' < j. Returns
    (norm_adj, node_mask) as plain numpy arrays, where norm_adj is
    (S, R, n, n) and node_mask is (S, n, 1).
    """
    n = g.n
    s_count = len(steps)
    prefix = np.empty(s_count, dtype=np.int64)  # nodes fully inside the prefix
    row = np.full(s_count, -1, dtype=np.int64)  # partially decided node, if any
    lim = np.zeros(s_count, dtype=np.int64)  # decided row slots bound
    total = np.empty(s_count, dtype=np.int64)
    for s, step in enumerate(steps):
        if step[0] == "node":
            i = step[1]
            if i < 1:
                raise GraphError("empty prefix cannot be encoded")
            prefix[s] = i
            total[s] = i
        else:
            _, i, j = step
            prefix[s] = i
            row[s] = i
            lim[s] = j
            total[s] = i + 1
    idx = np.arange(n)
    in_prefix = idx[None, :] < prefix[:, None]  # (S, n)
    keep = in_prefix[:, :, None] & in_prefix[:, None, :]
    row_hit = idx[None, :] == row[:, None]
    below = idx[None, :] < lim[:, None]
    keep |= row_hit[:, :, None] & below[:, None, :]
    keep |= row_hit[:, None, :] & below[:, :, None]
    one_hot = _one_hot_adjacency(g)  # (R, n, n)
    masked = one_hot[None, :, :, :] * keep[:, None, :, :]
    norm_adj = _normalized_adjacency(masked)
    node_mask = (idx[None, :] < total[:, None]).astype(np.float64)
    return norm_adj, node_mask[:, :, None]


def _owners(g, steps) -> list:
    """The graph of each step: g repeated, or the given sequence checked
    against steps."""
    if len(steps) == 0:
        raise ValueError("encode_step_batch: no steps given")
    if isinstance(g, MolecularGraph):
        return [g] * len(steps)
    graphs = list(g)
    if len(graphs) != len(steps):
        raise ValueError(f"{len(graphs)} graphs for {len(steps)} steps")
    return graphs


@dataclass
class StepPack:
    """What an evaluation-mode encode_step_batch reads besides the
    weights, for one list of steps: per distinct state size m, the
    (s, m, F) one-hot rows and (s, R, m, m) normalized adjacency blocks
    of its s states, in pass order; the permutation that puts the
    concatenated pass outputs back in step order; and the (S, n, 1)
    node mask. Built by pack_step_batch, reusable by every pass over the
    same steps while the weights move."""

    steps: list
    groups: list  # [(x, adj)], one per distinct state size
    inverse: np.ndarray
    node_mask: np.ndarray


def pack_step_batch(g, steps, params: RgcnParams) -> StepPack:
    """Group generation-step states by their own node count m (i for
    ("node", i), i + 1 for ("edge", i, j)) and cut each state's [:m, :m]
    block out of its graph's step masks. g is as in encode_step_batch.
    Of params only the dimensions are read, never the weights."""
    graphs = _owners(g, steps)
    steps = list(steps)
    sizes = np.array([step[1] + (step[0] == "edge") for step in steps], dtype=np.int64)
    owned: dict = {}  # id(graph) -> (graph, indices of its states)
    for s, owner in enumerate(graphs):
        owned.setdefault(id(owner), (owner, []))[1].append(s)
    parts: dict = {}  # m -> [(state indices, (s, R, m, m) blocks, (m, F) rows)]
    for owner, idx in owned.values():
        x = _features(owner, params)
        norm_adj, _ = build_step_masks(owner, [steps[s] for s in idx])
        idx = np.array(idx, dtype=np.int64)
        for m in np.unique(sizes[idx]):
            sel = np.flatnonzero(sizes[idx] == m)
            parts.setdefault(int(m), []).append((idx[sel], norm_adj[sel, :, :m, :m], x[:m]))
    groups, order = [], []
    for group in parts.values():
        adj = np.concatenate([blocks for _, blocks, _ in group])
        x = np.concatenate(
            [np.broadcast_to(rows, (len(sel),) + rows.shape) for sel, _, rows in group]
        )
        groups.append((x, adj))
        order.extend(sel for sel, _, _ in group)
    inverse = np.empty(len(steps), dtype=np.int64)
    inverse[np.concatenate(order)] = np.arange(len(steps))
    node_mask = (np.arange(max(parts))[None, :] < sizes[:, None]).astype(np.float64)
    return StepPack(steps=steps, groups=groups, inverse=inverse, node_mask=node_mask[:, :, None])


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
    (S, k). An empty steps list is a ValueError.

    Evaluation mode encodes each state in its own node-count block, one
    pass per distinct node count and no padding, over the pack that
    pack_step_batch builds; a pack built beforehand for the same steps
    may be passed in, so repeated passes skip the weight-independent
    work. Training mode normalizes with one pair of batch statistics
    over the whole stack, so it takes the states of one graph only and
    runs them as one masked stack; it takes no pack.
    """
    if training:
        if pack is not None:
            raise ValueError("a step pack serves evaluation mode only")
        graphs = _owners(g, steps)
        if any(other is not graphs[0] for other in graphs):
            raise ValueError("training mode encodes the states of one graph only")
        g = graphs[0]
        norm_adj, node_mask = build_step_masks(g, steps)
        return _propagate(_features(g, params), norm_adj, params, True, node_mask)
    if pack is None:
        pack = pack_step_batch(g, steps, params)
    elif list(steps) != pack.steps:
        raise ValueError("the step pack was built for other steps")
    return _encode_packed(pack, params)


def _encode_packed(pack: StepPack, params: RgcnParams) -> NodeEmbeddings:
    """Evaluation-mode encode_step_batch over a pack: one _propagate per
    state size."""
    n = pack.node_mask.shape[1]
    k = params.width
    h_parts, emb_parts = [], []
    for x, adj in pack.groups:
        out = _propagate(x, adj, params)
        h = out.H
        m = x.shape[1]
        if m < n:
            h = ad.concat([h, Tensor(np.zeros((len(x), n - m, k)))], axis=1)
        h_parts.append(h)
        emb_parts.append(out.graph_embedding)
    return NodeEmbeddings(
        H=ad.take(ad.concat(h_parts, axis=0), (pack.inverse,)),
        graph_embedding=ad.take(ad.concat(emb_parts, axis=0), (pack.inverse,)),
        node_mask=pack.node_mask,
    )
