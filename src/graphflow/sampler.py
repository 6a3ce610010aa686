"""Molecule generation by running the flow forward step by step.

Each step takes a base normal value, pushes it through the current
step's affine transform and decodes the category by argmax. One walker,
_walk, runs the steps: sample_molecule draws the values from an RNG,
and latent_to_graph takes them from a latent sequence. Bond proposals
that would push either endpoint past its valence are rejected and the
slot is resampled with fresh noise, up to a cap, after which the slot
deterministically falls back to no-edge. A rejected proposal never
mutates the graph. Generation stops at the size limit, or as soon as a
newly added node (other than the first) picks up no bond at all, in
which case that node is discarded.

A walk's trace holds its kept decisions as columns, and per step kind
the mu/alpha rows that produced them as one block; it keeps the graph
the walk filled, a discarded last node included: exactly what the
reinforcement-learning code needs to rebuild and score every step.

A walk fills one max_size buffer in place and encodes views of its
prefixes, which live for one encoder call. What it returns owns
exact-size arrays, so callers that keep many samples do not keep the
buffers: on a no-bond stop at node i, the molecule and the trace's
graph are separate copies of the buffer's first i and i + 1 nodes; on
a max-size stop the buffer is the molecule's size, and the trace's
graph is the molecule.

Decisions are made one step at a time but states are encoded per node,
the way speculative decoding drafts and then verifies: once node i's
type is set, one encoder call drafts every state pending on row i, as
if the slots before it end no-edge. The drafts are plan steps, as in
the stacked training pass. A decided no-edge is its own relation and an
undecided slot is in none, so the drafts are exact until a bond is
kept; only the drafts after a kept bond are encoded again, and with
them node i + 1's state. The first call leaves that state out: it would
assume that row i keeps no bond, and then the walk stops before node
i + 1. Each stacked row is bitwise the one-step call.

The walks of one batch share a StateCache, a prefix cache: a state is
sent to the encoder and heads only if no earlier walk of the batch has
encoded it, and every other state's (mu, alpha) row is read from the
cache. A state's key is its plan step plus its history, the decisions
before it: each step conditions only on the sub-graph decided before
it, so, as a serving cache keys by the token prefix, the decisions name
the state and the key reads nothing of the graph. As each row is
bitwise the one-step call, a cached row is the row a fresh call would
give, so graphs and traces do not depend on the cache or on the order
in which walks fill it. sample_batch keeps one per call, as does rl's
trajectory collection, whose weights are fixed within the call. Any
other walk (latent_to_graph, reconstruct, rl's constrained
optimization) runs without one: no other walk could hit its states, so
it keeps no history and builds no keys. STATE_CACHE_ROWS bounds a
cache's memory to about 3.8 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import (
    FlowParams,
    LatentSeq,
    ModelSpec,
    build_plan,
    decode_category,
    edge_conditional,
    graph_to_latent,
    node_conditional,
    step_embeddings,
    validate_ordered,
)
from .graph import (
    GraphError,
    MolecularGraph,
    check_valency,
    dequantize,
    empty_graph,
)


@dataclass
class SamplerConfig:
    valency_check: bool = True
    max_resample: int = 100
    temperature: float = 1.0  # 0 decodes greedily: every draw is zero

    def __post_init__(self):
        if not (np.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_resample < 0:
            raise ValueError(f"max_resample must be >= 0, got {self.max_resample}")


# one kept decision of a trace; j is -1 for node steps
STEP_DTYPE = np.dtype([("kind", "U4")] + [(f, "i8") for f in ("i", "j", "action", "rejections")])


@dataclass
class SampleTrace:
    """The kept decisions of one walk and how it ended. steps is a
    STEP_DTYPE record array in decision order, and rows maps each step
    kind to the (K, 2, dim) [mu, alpha] rows of its K steps, in the same
    order. graph is the graph the walk filled, the decided nodes of
    every step, in arrays of its own size: on "no-bonds" it still holds
    the dropped last node, which the returned molecule leaves out. seed is the seed_history of
    graph's nodes before the first step."""

    steps: np.recarray
    rows: dict
    termination: str
    graph: MolecularGraph
    seed: bytes

    @classmethod
    def build(cls, spec: ModelSpec, records: list, rows: dict, termination: str, graph):
        """The trace of records, (kind, i, j, action, rejections) tuples,
        and rows, each kind's list of (2, dim) [mu, alpha] rows."""
        dims = {"node": spec.node_dim, "edge": spec.edge_dim}
        blocks = {kind: np.array(rows[kind]).reshape(-1, 2, dim) for kind, dim in dims.items()}
        seed = seed_history(spec, graph, records[0][1] if records else graph.n)
        steps = np.array(records, STEP_DTYPE).view(np.recarray)
        return cls(steps, blocks, termination, graph, seed)

    @property
    def code_dtype(self) -> np.dtype:
        """seed's dtype, the state_dtype of the trace's row dims: step t's
        StateCache history is seed, then the actions of the steps before
        it, one code each in this dtype."""
        return state_dtype(self.rows["node"].shape[-1], self.rows["edge"].shape[-1])

    @property
    def rejections(self) -> int:
        return int(self.steps.rejections.sum())

    @property
    def num_steps(self) -> int:
        return len(self.steps)


STATE_CACHE_ROWS = 1 << 13  # states a StateCache keeps, about 3.8 MB; see StateCache


class StateCache:
    """The (mu, alpha) rows of the generation states one batch has
    encoded, under fixed weights: a prefix cache, as in LLM serving.

    Generation is autoregressive, so a state is named by the decisions
    before it, as a serving cache names one by its token prefix. A
    state's key is its plan step plus its history: the node type or bond
    category of every plan step before it, those that built the seed
    graph (seed_history) and then the walk's, one code each in
    state_dtype. A seed is in generation order under the window, so its
    decisions read it back, and equal keys are equal states whichever
    walk or seed reached them. Each row is bitwise what the encoder and
    heads give the state alone, so a cached row is the row a fresh call
    would give.

    The cache is not a setting: sample_batch and rl's trajectory
    collection make one per call and drop it at the end, and any other
    walk runs without one. It keeps at most STATE_CACHE_ROWS rows and
    then stops adding, so the shallow states, which recur most and come
    first, stay in it. A row costs about 460 bytes with its key, so the
    bound is about 3.8 MB. A 100-molecule batch from the benchmark's
    generate checkpoint adds 1800-1940 rows (seeds 100-104); a
    2000-molecule batch (seed 7) would add 28k, and with the bound it
    still finds 92% of the repeats it would find without one (36.2% of
    its states against 39.1%).
    """

    def __init__(self, spec: ModelSpec):
        self.rows = {}
        values = np.arange(max(spec.node_dim, spec.edge_dim))  # every node type and bond category
        self.codes = [v.tobytes() for v in values.astype(state_dtype(spec.node_dim, spec.edge_dim))]
        self.no_edge_code = self.codes[spec.bonds.no_edge]

    def lookup(self, params: FlowParams, g: MolecularGraph, history: bytes, drafts) -> list:
        """The rows of drafts, states of g that share one node count and
        hold any node step last. Draft k is keyed by its plan step and
        history plus k no-edge codes: the steps before it end no-edge.
        One _encode_rows call encodes the states the cache lacks, which it
        then keeps while under its bound."""
        keys = [(step, history + self.no_edge_code * k) for k, step in enumerate(drafts)]
        rows = [self.rows.get(key) for key in keys]
        missing = [k for k, row in enumerate(rows) if row is None]
        if missing:
            for k, row in zip(missing, _encode_rows(params, g, [drafts[k] for k in missing])):
                rows[k] = row
                if len(self.rows) < STATE_CACHE_ROWS:
                    self.rows[keys[k]] = row
        return rows


def state_dtype(types: int, categories: int) -> np.dtype:
    """The smallest unsigned type that holds every node type and bond category."""
    return np.min_scalar_type(max(types, categories) - 1)


def seed_history(spec: ModelSpec, g: MolecularGraph, start: int) -> bytes:
    """The history of g's first start nodes: the node type or bond
    category of each of their plan steps, in plan order, in state_dtype;
    empty if start is 0. For a graph in generation order under
    spec.window, whose bonds all lie inside the window, it reads the
    graph back."""
    steps = build_plan(start, spec.window).steps
    decided = [g.node_types[s[1]] if s[0] == "node" else g.categories[s[1:]] for s in steps]
    return np.array(decided, state_dtype(spec.node_dim, spec.edge_dim)).tobytes()


def _encode_rows(params: FlowParams, g: MolecularGraph, steps) -> list:
    """One read-only (2, dim) row [mu, alpha] per step, from one
    step_embeddings call and one call per head. steps share one node
    count, and any node step comes last. The rows of a head call are
    views of one (E, 2, dim) copy of its output, so a cache that keeps
    them holds nothing else of the call."""
    edge_x, node_x = step_embeddings(params, g, steps)
    rows = []
    if edge_x is not None:
        mu, alpha = edge_conditional(params, edge_x)
        both = np.concatenate((mu.data, alpha.data), axis=1)  # (E, 1, dim) each
        both.flags.writeable = False
        rows.extend(both)
    if node_x is not None:
        mu, alpha = node_conditional(params, node_x)
        both = np.concatenate((mu.data[:, None], alpha.data[:, None]), axis=1)  # (1, dim) each
        both.flags.writeable = False
        rows.extend(both)
    return rows


def _walk(
    params: FlowParams, spec: ModelSpec, cfg: SamplerConfig, g: MolecularGraph, start, draw,
    cache: StateCache | None,
):
    """Fill g, whose nodes before start are decided, in place from node
    start on; draw(dim) gives each proposal's base normal value. Returns
    (the kept nodes of g, trace): on a no-bond stop the molecule and the
    trace's graph are exact-size copies, so nothing returned is a view
    of g; on a max-size stop both are g.

    A step's row is drafted[pos], the next row of the walk's last draft
    call, while that call's rows last; steps are decided in plan order,
    so the rows are read in turn. Otherwise one call drafts the step: a
    node step alone; row i's first edge step with the rest of its row,
    as if the slots between end no-edge; an edge step after a kept bond
    with the rest of its row and node i + 1's state. A kept bond drops
    the drafts, as they assumed no-edge there. The first call drafts no
    node state: a row that keeps no bond stops the walk, and one that
    keeps a bond drops the drafts. With a shared cache the drafts are
    looked up in it, under history, the walk's StateCache history, one
    code per decision; a walk without one keeps no history."""
    types, cats, no_edge = g.node_types, g.categories, g.no_edge
    if cache is not None:
        codes, history = cache.codes, bytearray(seed_history(spec, g, start))
    records, kept = [], {"node": [], "edge": []}
    drafted, pos = (), 0

    def encode(drafts: tuple) -> list:
        if cache is None:
            return _encode_rows(params, g, drafts)
        return cache.lookup(params, g, bytes(history), drafts)

    for i in range(start, g.n):
        if pos == len(drafted):
            drafted, pos = encode((("node", i),)), 0
        node_row = drafted[pos]
        pos += 1
        t = decode_category(draw(spec.node_dim), *node_row)
        types[i] = t
        if cache is not None:
            history += codes[t]
        records.append(("node", i, -1, t, 0))
        kept["node"].append(node_row)
        edges = tuple([("edge", i, j) for j in range(max(0, i - spec.window), i)])
        after = (("node", i + 1),) if i + 1 < g.n else ()
        got_bond = False
        for k, (_, _, j) in enumerate(edges):
            if pos == len(drafted):
                drafted, pos = encode(edges[k:] + after if k else edges), 0
            row = drafted[pos]
            pos += 1
            rejections = 0
            while True:
                cat = decode_category(draw(spec.edge_dim), *row)
                if (
                    cfg.valency_check
                    and cat != no_edge
                    and not check_valency(g, spec.vocab, spec.bonds, i, j, cat)
                ):
                    rejections += 1
                    if rejections >= cfg.max_resample:
                        cat = no_edge
                        break
                    continue
                break
            if cat != no_edge:
                cats[i, j] = cat
                cats[j, i] = cat
                got_bond = True
                drafted, pos = (), 0  # the drafts after it assumed no-edge here
            if cache is not None:
                history += codes[cat]
            records.append(("edge", i, j, cat, rejections))
            kept["edge"].append(row)
        if i > 0 and not got_bond:
            # the new node would be disconnected: drop it and stop
            trace = SampleTrace.build(spec, records, kept, "no-bonds", g.prefix(i + 1).copy())
            return g.prefix(i).copy(), trace
    return g, SampleTrace.build(spec, records, kept, "max-size", g)


def sample_molecule(
    params: FlowParams,
    spec: ModelSpec,
    cfg: SamplerConfig,
    rng,
    seed_graph: MolecularGraph | None = None,
    *,
    cache: StateCache | None = None,
):
    """Generate one molecule; returns (graph, trace).

    seed_graph, when given, is taken as the already-generated prefix (it
    must be in generation order) and sampling continues from there.
    cache, a StateCache built for spec and filled under the same params,
    serves the states it holds and takes the ones the walk encodes; the
    graph and trace are bitwise those of a walk without one. It is
    keyword-only, so a seed graph stays the fifth positional argument.
    """
    no_edge = spec.bonds.no_edge
    g = empty_graph(spec.max_size, no_edge)
    start = 0
    if seed_graph is not None:
        if seed_graph.n > spec.max_size:
            raise GraphError("seed graph larger than max_size")
        if seed_graph.no_edge != no_edge:
            raise GraphError("seed graph uses a different bond vocabulary")
        if np.any((seed_graph.node_types < 0) | (seed_graph.node_types >= spec.vocab.size)):
            raise GraphError("seed graph has a node type outside the vocabulary")
        validate_ordered(seed_graph, spec.window)
        start = seed_graph.n
        g.node_types[:start] = seed_graph.node_types
        g.categories[:start, :start] = seed_graph.categories
    return _walk(
        params, spec, cfg, g, start,
        lambda dim: rng.standard_normal(dim) * cfg.temperature,
        cache,
    )


def sample_batch(
    params: FlowParams,
    spec: ModelSpec,
    cfg: SamplerConfig,
    count: int,
    seed: int,
):
    """Generate count molecules with per-sample independent seed streams,
    sharing one StateCache."""
    children = np.random.SeedSequence(seed).spawn(count)
    cache = StateCache(spec)
    results = [
        sample_molecule(params, spec, cfg, np.random.default_rng(child), cache=cache)
        for child in children
    ]
    graphs = [g for g, _ in results]
    traces = [t for _, t in results]
    return graphs, traces


def latent_to_graph(
    latent: LatentSeq,
    params: FlowParams,
    spec: ModelSpec,
) -> MolecularGraph:
    """Deterministically decode a latent sequence back to a discrete graph:
    generation with the latents as its draws and no valency check. Like
    a sample, it ends at a node after the first that decodes no bond,
    which latents of a BFS-ordered graph never hold."""
    n = latent.eps_x.shape[0]
    steps = build_plan(n, spec.window).steps
    eps = iter(latent.eps_x[s[1]] if s[0] == "node" else latent.eps_a[s[1:]] for s in steps)
    g = empty_graph(n, spec.bonds.no_edge)
    cfg = SamplerConfig(valency_check=False)
    return _walk(params, spec, cfg, g, 0, lambda _: next(eps), None)[0]


def reconstruct(
    g: MolecularGraph,
    params: FlowParams,
    spec: ModelSpec,
    rng,
) -> MolecularGraph:
    """Round-trip a graph through the flow: dequantize with fresh noise,
    invert to the latent sequence, run generation forward from those
    latents, and decode. For any parameters this reproduces the input."""
    z = dequantize(g, spec.vocab, spec.bonds, rng, window=spec.window)
    latent = graph_to_latent(g, params, spec, z=z)
    return latent_to_graph(latent, params, spec)
