"""Relational graph convolution encoder over bond categories.

Each bond category (optionally including the no-edge category as its own
relation) gets per-layer weights. One layer computes, per relation c,

    msg_c = D_c^{-1/2} (E_c + I) D_c^{-1/2} H W_c

and the new node state is the mean over relations of ReLU(msg_c). Node
features enter through a learned embedding of the one-hot type row, a
batch normalization over nodes runs after the last layer, and the graph
embedding is the column sum of the normalized node states.

Two evaluation paths exist: encode() for a single (sub)graph, and
encode_step_batch() which stacks many masked copies of one graph so a
whole generation history is encoded in a handful of batched matmuls.
Both compute the same function; the stacked path may differ from the
sequential one by reduction order only (empirically below 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .graph import GraphError, MolecularGraph

BN_MOMENTUM = 0.9
BN_EPS = 1e-5


@dataclass
class RgcnParams:
    """Weights for the encoder.

    layers[l][r] is the (k, k) weight of relation slot r at layer l; slot
    order follows bond categories, with the no-edge relation last when
    include_no_edge is set.
    """

    embed: Tensor
    layers: list
    bn_gamma: Tensor
    bn_beta: Tensor
    bn_state: BatchNormState
    include_no_edge: bool = True

    @property
    def width(self) -> int:
        return self.embed.data.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.embed.data.shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_relations(self) -> int:
        return len(self.layers[0])

    def named_tensors(self) -> dict:
        out = {"rgcn.embed": self.embed}
        for l, row in enumerate(self.layers):
            for r, w in enumerate(row):
                out[f"rgcn.layer{l}.rel{r}"] = w
        out["rgcn.bn.gamma"] = self.bn_gamma
        out["rgcn.bn.beta"] = self.bn_beta
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
    include_no_edge: bool = True,
) -> RgcnParams:
    if num_layers < 1 or width < 1:
        raise ValueError("need at least one layer and width >= 1")
    relations = categories if include_no_edge else categories - 1
    embed = Tensor(
        rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(feature_dim, width)),
        requires_grad=True,
        name="rgcn.embed",
    )
    layers = []
    for l in range(num_layers):
        row = []
        for r in range(relations):
            row.append(
                Tensor(
                    rng.normal(0.0, 1.0 / np.sqrt(width), size=(width, width)),
                    requires_grad=True,
                    name=f"rgcn.layer{l}.rel{r}",
                )
            )
        layers.append(row)
    return RgcnParams(
        embed=embed,
        layers=layers,
        bn_gamma=Tensor(np.ones(width), requires_grad=True, name="rgcn.bn.gamma"),
        bn_beta=Tensor(np.zeros(width), requires_grad=True, name="rgcn.bn.beta"),
        bn_state=BatchNormState.fresh(width),
        include_no_edge=include_no_edge,
    )


@dataclass
class NodeEmbeddings:
    """Per-node states after batch norm, plus their column sum."""

    H: Tensor
    graph_embedding: Tensor


def _one_hot_adjacency(
    g: MolecularGraph, categories: int, undecided_row=None
) -> np.ndarray:
    """(categories, n, n) one-hot slices of the off-diagonal category matrix.

    undecided_row = (i, lim) drops slots (i, j) for j >= lim from every
    slice: those pairs are not yet decided during generation, which is
    different from having been decided as no-edge. Self loops are added
    later and are not affected.
    """
    n = g.n
    a = np.zeros((categories, n, n))
    off = ~np.eye(n, dtype=bool)
    for c in range(categories):
        a[c][(g.categories == c) & off] = 1.0
    if undecided_row is not None:
        i, lim = undecided_row
        a[:, i, lim:] = 0.0
        a[:, lim:, i] = 0.0
    return a


def _normalized_adjacency(slices: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of each slice after adding self loops."""
    eye = np.eye(slices.shape[-1])
    tilde = slices + eye
    deg = tilde.sum(axis=-1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return tilde * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]


def _relation_slices(params: RgcnParams, categories: int):
    if params.include_no_edge:
        return list(range(categories))
    return list(range(categories - 1))


def encode(
    g_prefix: MolecularGraph,
    params: RgcnParams,
    training: bool = False,
    undecided_row=None,
) -> NodeEmbeddings:
    """Encode one (sub)graph; the prefix must be non-empty.

    undecided_row = (i, lim) marks row i's slots at column lim and beyond
    as not yet generated, excluding them from every relation.
    """
    n = g_prefix.n
    categories = g_prefix.no_edge + 1
    slots = _relation_slices(params, categories)
    if len(slots) != params.num_relations:
        raise GraphError(
            f"graph has {categories} categories but encoder holds "
            f"{params.num_relations} relations"
        )
    adj = _normalized_adjacency(
        _one_hot_adjacency(g_prefix, categories, undecided_row=undecided_row)
    )
    x = np.zeros((n, params.feature_dim))
    x[np.arange(n), g_prefix.node_types] = 1.0
    h = Tensor(x) @ params.embed
    scale = 1.0 / len(slots)
    for layer in params.layers:
        acc = None
        for r, c in enumerate(slots):
            msg = ad.relu(Tensor(adj[c]) @ h @ layer[r])
            acc = msg if acc is None else acc + msg
        h = acc * scale
    h = ad.batch_norm(
        h,
        params.bn_gamma,
        params.bn_beta,
        params.bn_state,
        training=training,
        momentum=BN_MOMENTUM,
        eps=BN_EPS,
    )
    return NodeEmbeddings(H=h, graph_embedding=h.sum(axis=0))


@dataclass
class StackedEmbeddings:
    """Embeddings for S masked copies of one graph.

    H: (S, n, k) normalized node states with masked rows zeroed.
    graph_embedding: (S, k) column sums over unmasked rows.
    """

    H: Tensor
    graph_embedding: Tensor
    node_mask: np.ndarray


def build_step_masks(g: MolecularGraph, steps) -> tuple:
    """Constant mask stacks for a list of generation steps.

    Steps are ("node", i) for the prefix of i nodes seen before choosing
    node i's type, or ("edge", i, j) for the state that already includes
    node i and its decided bond slots (i, j') for j' < j. Returns
    (norm_adj, node_mask, counts) as plain numpy arrays, where norm_adj
    is (S, C, n, n), node_mask is (S, n, 1) and counts is (S, 1, 1).
    """
    n = g.n
    categories = g.no_edge + 1
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
    one_hot = _one_hot_adjacency(g, categories)  # (C, n, n)
    masked = one_hot[None, :, :, :] * keep[:, None, :, :]
    norm_adj = _normalized_adjacency(masked)
    node_mask = (idx[None, :] < total[:, None]).astype(np.float64)
    return norm_adj, node_mask[:, :, None], total.astype(np.float64).reshape(-1, 1, 1)


def encode_step_batch(
    g: MolecularGraph,
    steps,
    params: RgcnParams,
    training: bool = False,
) -> StackedEmbeddings:
    """Encode every step state of one graph in a single stacked pass."""
    categories = g.no_edge + 1
    slots = _relation_slices(params, categories)
    if len(slots) != params.num_relations:
        raise GraphError(
            f"graph has {categories} categories but encoder holds "
            f"{params.num_relations} relations"
        )
    norm_adj, node_mask, counts = build_step_masks(g, steps)
    n = g.n
    x = np.zeros((n, params.feature_dim))
    x[np.arange(n), g.node_types] = 1.0
    x_stack = x[None, :, :] * node_mask  # (S, n, d)
    h = Tensor(x_stack) @ params.embed
    scale = 1.0 / len(slots)
    for layer in params.layers:
        acc = None
        for r, c in enumerate(slots):
            msg = ad.relu(Tensor(norm_adj[:, c]) @ h @ layer[r])
            acc = msg if acc is None else acc + msg
        h = acc * scale
    h = ad.batch_norm(
        h,
        params.bn_gamma,
        params.bn_beta,
        params.bn_state,
        training=training,
        mask=node_mask,
        counts=counts,
        momentum=BN_MOMENTUM,
        eps=BN_EPS,
    )
    h = h * Tensor(node_mask)
    return StackedEmbeddings(
        H=h,
        graph_embedding=h.sum(axis=1),
        node_mask=node_mask,
    )

