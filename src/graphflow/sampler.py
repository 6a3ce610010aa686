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

Decisions are made one step at a time but states are encoded per node,
the way speculative decoding drafts and then verifies: once node i's
type is set, one encoder call drafts every state pending on row i, as
if the slots before it end no-edge, plus node i + 1's state. The drafts
are plan steps, as in the stacked training pass. A decided no-edge is
its own relation and an undecided slot is in none, so the drafts are
exact until a bond is kept; only the drafts after a kept bond are
encoded again. Each stacked row is bitwise the one-step call.

The walks of one batch share a StateCache, a prefix cache: a state is
sent to the encoder and heads only if no earlier walk of the batch has
encoded it, and every other state's (mu, alpha) row is read from the
cache. The key is the plan step plus the bytes of the prefix the
encoder reads; as each row is bitwise the one-step call, a cached row is
the row a fresh call would give, so graphs and traces do not depend on
the cache or on the order in which walks fill it. sample_batch keeps
one per call, as does rl's trajectory collection, whose weights are
fixed within the call; latent_to_graph and reconstruct decode one graph
and take none. rl's constrained optimization takes none either: its
walks grow from different seed subgraphs, so few of its states repeat
(under 6% in the acceptance run) and building the keys costs more than
the hits save. STATE_CACHE_ROWS bounds its memory to about 3.5 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    state_nodes,
    step_embeddings,
    validate_ordered,
)
from .graph import (
    GraphError,
    MolecularGraph,
    check_valency,
    dequantize,
    empty_categories,
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
    every step: on "no-bonds" it still holds the dropped last node,
    which the returned molecule leaves out."""

    steps: np.recarray
    rows: dict
    termination: str
    graph: MolecularGraph

    @classmethod
    def build(cls, spec: ModelSpec, records: list, rows: dict, termination: str, graph):
        """The trace of records, (kind, i, j, action, rejections) tuples,
        and rows, each kind's list of (2, dim) [mu, alpha] rows."""
        dims = {"node": spec.node_dim, "edge": spec.edge_dim}
        blocks = {kind: np.array(rows[kind]).reshape(-1, 2, dim) for kind, dim in dims.items()}
        return cls(np.array(records, STEP_DTYPE).view(np.recarray), blocks, termination, graph)

    @property
    def rejections(self) -> int:
        return int(self.steps.rejections.sum())

    @property
    def num_steps(self) -> int:
        return len(self.steps)


STATE_CACHE_ROWS = 1 << 13  # states a StateCache keeps, about 3.5 MB; see StateCache


class StateCache:
    """The (mu, alpha) rows of the generation states one batch has
    encoded, under fixed weights: a prefix cache, as in LLM serving.

    A state's key is its plan step plus the bytes the encoder reads of
    it, node_types[:m] and categories[:m, :m] of its m nodes, m being
    flow.state_nodes of the step, the rule by which step_embeddings
    decides what it reads. categories is symmetric with no-edge on its
    diagonal, so its strict lower triangle stands for it; both are
    stored in the smallest unsigned type that holds every node type and
    bond category (one byte for molecule vocabularies; sample_molecule
    rejects a seed graph whose types fall outside the vocabulary). A
    walk's undecided slots are still no-edge, so equal states have equal
    keys whichever walk drafted them. Each row is bitwise what the
    encoder and heads give the state alone, so a cached row is the row a
    fresh call would give.

    The cache is not a setting: sample_batch and rl's trajectory
    collection make one per call and drop it at the end. It keeps at
    most STATE_CACHE_ROWS rows and then stops adding, so the shallow
    states, which recur most and come first, stay in it. A row costs
    about 420 bytes with its key, so the bound is about 3.5 MB. A
    100-molecule batch from the benchmark's generate checkpoint adds
    1700-2200 rows; a 2000-molecule batch would add 28k, and with the
    bound it still finds 93% of the repeats it would find without one
    (41.4% of its states against 44.6%).
    """

    def __init__(self, spec: ModelSpec):
        self.rows = {}
        self._dtype = np.min_scalar_type(max(spec.vocab.size - 1, spec.bonds.no_edge))

    def keys(self, g: MolecularGraph, steps) -> list:
        """The keys of steps, whose states share one node count."""
        m = state_nodes(steps[0])
        lower = g.categories.take(_strict_lower(g.n)[: m * (m - 1) // 2])
        payload = (
            g.node_types[:m].astype(self._dtype).tobytes() + lower.astype(self._dtype).tobytes()
        )
        return [(step, payload) for step in steps]

    def add(self, key, row: np.ndarray) -> None:
        if len(self.rows) < STATE_CACHE_ROWS:
            self.rows[key] = row


@lru_cache(maxsize=64)
def _strict_lower(n: int) -> np.ndarray:
    """Read-only flat indices of an (n, n) array's strict lower triangle in
    row order; the first m (m - 1) / 2 are those of its first m rows."""
    rows, cols = np.tril_indices(n, -1)
    flat = rows * n + cols
    flat.flags.writeable = False
    return flat


def _encode_rows(params: FlowParams, g: MolecularGraph, steps) -> list:
    """One read-only (2, dim) row [mu, alpha] per step, from one
    step_embeddings call and one call per head. steps share one node
    count, and any node step comes last. The rows of a head call are
    views of one (E, 2, dim) copy of its output, so a cache that keeps
    them holds nothing else of the call."""
    edge_x, node_x = step_embeddings(params, g, steps)
    heads = []
    if edge_x is not None:
        mu, alpha = edge_conditional(params, edge_x)
        heads.append((mu.data[:, 0], alpha.data[:, 0]))
    if node_x is not None:
        mu, alpha = node_conditional(params, node_x)
        heads.append((mu.data, alpha.data))
    rows = []
    for mu, alpha in heads:
        both = np.concatenate((mu[:, None], alpha[:, None]), axis=1)
        both.flags.writeable = False
        rows.extend(both)
    return rows


def _step_rows(params: FlowParams, g: MolecularGraph, steps, cache) -> list:
    """_encode_rows of steps, with only the states missing from cache,
    if one is given, sent to the encoder and then added to it."""
    if cache is None:
        return _encode_rows(params, g, steps)
    keys = cache.keys(g, steps)
    rows = [cache.rows.get(key) for key in keys]
    missing = [s for s, row in enumerate(rows) if row is None]
    if missing:
        fresh = _encode_rows(params, g, [steps[s] for s in missing])
        for s, row in zip(missing, fresh):
            rows[s] = row
            cache.add(keys[s], row)
    return rows


def _walk(
    params: FlowParams, spec: ModelSpec, cfg: SamplerConfig, g: MolecularGraph, start, draw,
    cache=None,
):
    """Fill g, whose nodes before start are decided, in place from node
    start on; draw(dim) gives each proposal's base normal value. Returns
    (the kept prefix of g, trace).

    rows holds the [mu, alpha] rows of row i's drafts from slot first on,
    and first is None once a kept bond has made them stale; they are
    drafted again from the next slot on, or, after the row's last slot,
    node i + 1's state alone (node_row None). cache, a StateCache or
    None, serves the states it holds."""
    types, cats, no_edge = g.node_types, g.categories, g.no_edge
    records, kept = [], {"node": [], "edge": []}
    node_row = None
    for i in range(start, g.n):
        if node_row is None:
            (node_row,) = _step_rows(params, g, [("node", i)], cache)
        t = decode_category(draw(spec.node_dim), *node_row)
        types[i] = t
        records.append(("node", i, -1, t, 0))
        kept["node"].append(node_row)
        got_bond, node_row, first = False, None, None
        for j in range(max(0, i - spec.window), i):
            if first is None:  # row i's slots from j on, then node i + 1's state if any
                drafts = [("edge", i, l) for l in range(j, i)]
                if i + 1 < g.n:
                    drafts.append(("node", i + 1))
                rows = _step_rows(params, g, drafts, cache)
                node_row = rows[-1] if i + 1 < g.n else None
                first = j
            row = rows[j - first]
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
                got_bond, node_row, first = True, None, None
            records.append(("edge", i, j, cat, rejections))
            kept["edge"].append(row)
        if i > 0 and not got_bond:
            # the new node would be disconnected: drop it and stop
            return g.prefix(i), SampleTrace.build(spec, records, kept, "no-bonds", g.prefix(i + 1))
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
    graph and trace are bitwise those of a walk without it. It is
    keyword-only, so a seed graph stays the fifth positional argument.
    """
    no_edge = spec.bonds.no_edge
    max_size = spec.max_size
    types = np.zeros(max_size, dtype=np.int64)
    cats = empty_categories(max_size, no_edge)
    start = 0
    if seed_graph is not None:
        if seed_graph.n > max_size:
            raise GraphError("seed graph larger than max_size")
        if seed_graph.no_edge != no_edge:
            raise GraphError("seed graph uses a different bond vocabulary")
        if np.any((seed_graph.node_types < 0) | (seed_graph.node_types >= spec.vocab.size)):
            raise GraphError("seed graph has a node type outside the vocabulary")
        validate_ordered(seed_graph, spec.window)
        start = seed_graph.n
        types[:start] = seed_graph.node_types
        cats[:start, :start] = seed_graph.categories
    return _walk(
        params, spec, cfg, MolecularGraph(types, cats, no_edge), start,
        lambda dim: rng.standard_normal(dim) * cfg.temperature, cache,
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
    n, no_edge = latent.eps_x.shape[0], spec.bonds.no_edge
    steps = build_plan(n, spec.window).steps
    eps = iter(latent.eps_x[s[1]] if s[0] == "node" else latent.eps_a[s[1:]] for s in steps)
    g = MolecularGraph(np.zeros(n, dtype=np.int64), empty_categories(n, no_edge), no_edge)
    return _walk(params, spec, SamplerConfig(valency_check=False), g, 0, lambda _: next(eps))[0]


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
