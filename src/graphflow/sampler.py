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

Every kept decision is recorded in a trace together with the mu/alpha
rows that produced it, and the trace keeps the graph the walk filled,
a discarded last node included: exactly what the reinforcement-learning
code needs to rebuild every step's state and score its action.

Decisions are made one step at a time but states are encoded per node,
the way speculative decoding drafts and then verifies: once node i's
type is set, one encoder call drafts every state pending on row i, as
if the slots before it end no-edge, plus node i + 1's state. The drafts
are plan steps, as in the stacked training pass. A decided no-edge is
its own relation and an undecided slot is in none, so the drafts are
exact until a bond is kept; only the drafts after a kept bond are
encoded again. Each stacked row is bitwise the one-step call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    step_embedding,
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


@dataclass
class TraceStep:
    """One kept decision: which slot, what was chosen, and under what transform."""

    kind: str  # "node" or "edge"
    i: int
    j: int  # -1 for node steps
    action: int
    rejections: int
    mu: np.ndarray
    alpha: np.ndarray


@dataclass
class SampleTrace:
    """The kept decisions of one walk and how it ended. graph is the graph
    the walk filled, the decided nodes of every step: on "no-bonds" it
    still holds the dropped last node, which the returned molecule
    leaves out."""

    steps: list = field(default_factory=list)
    termination: str = ""
    rejections: int = 0
    graph: MolecularGraph | None = None

    @property
    def num_steps(self) -> int:
        return len(self.steps)


def _walk(params: FlowParams, spec: ModelSpec, cfg: SamplerConfig, g: MolecularGraph, start, draw):
    """Fill g, whose nodes before start are decided, in place from node
    start on; draw(dim) gives each proposal's base normal value. Returns
    (the kept prefix of g, trace).

    first is the slot where the current step_embeddings stack starts, and
    None once a kept bond has made it stale; the stack is encoded again
    from the next slot on, or, after the row's last slot, node i + 1's
    state alone (node_x None)."""
    types, cats, no_edge = g.node_types, g.categories, g.no_edge
    trace = SampleTrace(termination="max-size", graph=g)
    node_x = None
    for i in range(start, g.n):
        if node_x is None:
            node_x = step_embedding(params, g, ("node", i))
        mu, alpha = node_conditional(params, node_x)
        t = decode_category(draw(spec.node_dim), mu.data[0], alpha.data[0])
        types[i] = t
        trace.steps.append(
            TraceStep("node", i, -1, t, 0, mu.data[0].copy(), alpha.data[0].copy())
        )
        got_bond, node_x, first = False, None, None
        for j in range(max(0, i - spec.window), i):
            if first is None:  # row i's slots from j on, then node i + 1's state if any
                drafts = [("edge", i, l) for l in range(j, i)]
                if i + 1 < g.n:
                    drafts.append(("node", i + 1))
                edge_x, node_x = step_embeddings(params, g, drafts)
                mu, alpha = edge_conditional(params, edge_x)
                first = j
            mu_j, alpha_j = mu.data[j - first, 0], alpha.data[j - first, 0]
            rejections = 0
            while True:
                cat = decode_category(draw(spec.edge_dim), mu_j, alpha_j)
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
            trace.rejections += rejections
            if cat != no_edge:
                cats[i, j] = cat
                cats[j, i] = cat
                got_bond, node_x, first = True, None, None
            trace.steps.append(
                TraceStep("edge", i, j, cat, rejections, mu_j.copy(), alpha_j.copy())
            )
        if i > 0 and not got_bond:
            # the new node would be disconnected: drop it and stop
            trace.termination, trace.graph = "no-bonds", g.prefix(i + 1)
            return g.prefix(i), trace
    return g, trace


def sample_molecule(
    params: FlowParams,
    spec: ModelSpec,
    cfg: SamplerConfig,
    rng,
    seed_graph: MolecularGraph | None = None,
):
    """Generate one molecule; returns (graph, trace).

    seed_graph, when given, is taken as the already-generated prefix (it
    must be in generation order) and sampling continues from there.
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
        validate_ordered(seed_graph, spec.window)
        start = seed_graph.n
        types[:start] = seed_graph.node_types
        cats[:start, :start] = seed_graph.categories
    return _walk(
        params, spec, cfg, MolecularGraph(types, cats, no_edge), start,
        lambda dim: rng.standard_normal(dim) * cfg.temperature,
    )


def sample_batch(
    params: FlowParams,
    spec: ModelSpec,
    cfg: SamplerConfig,
    count: int,
    seed: int,
):
    """Generate count molecules with per-sample independent seed streams."""
    children = np.random.SeedSequence(seed).spawn(count)
    results = [
        sample_molecule(params, spec, cfg, np.random.default_rng(child)) for child in children
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
