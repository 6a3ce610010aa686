"""Molecule generation by running the flow forward step by step.

Each step draws a base normal sample, pushes it through the current
step's affine transform and decodes the category by argmax. Bond
proposals that would push either endpoint past its valence are rejected
and the slot is resampled with fresh noise, up to a cap, after which the
slot deterministically falls back to no-edge. A rejected proposal never
mutates the graph. Generation stops at the size limit, or as soon as a
newly added node (other than the first) picks up no bond at all, in
which case that node is discarded.

Every kept decision is recorded in a trace together with the mu/alpha
rows that produced it, which is exactly what the reinforcement-learning
code needs to compute acting log-probabilities without re-encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow import (
    FlowParams,
    ModelSpec,
    decode_category,
    edge_conditional,
    graph_to_latent,
    latent_to_graph,
    node_conditional,
    step_embedding,
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
    temperature: float = 1.0


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
    steps: list = field(default_factory=list)
    termination: str = ""
    rejections: int = 0

    @property
    def num_steps(self) -> int:
        return len(self.steps)


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
    d = spec.node_dim
    c_dim = spec.edge_dim
    no_edge = spec.bonds.no_edge
    max_size = spec.max_size
    types = np.zeros(max_size, dtype=np.int64)
    cats = empty_categories(max_size, no_edge)
    if seed_graph is not None:
        if seed_graph.n > max_size:
            raise GraphError("seed graph larger than max_size")
        if seed_graph.no_edge != no_edge:
            raise GraphError("seed graph uses a different bond vocabulary")
        validate_ordered(seed_graph, spec.window)
        start = seed_graph.n
        types[:start] = seed_graph.node_types
        cats[:start, :start] = seed_graph.categories
    else:
        start = 0
    g = MolecularGraph(types, cats, no_edge)  # filled in place, step by step
    trace = SampleTrace()
    size = start
    termination = "max-size"
    for i in range(start, max_size):
        mu, alpha = node_conditional(params, *step_embedding(params, g, ("node", i)))
        eps = rng.standard_normal(d) * cfg.temperature
        t = decode_category(eps, mu.data[0], alpha.data[0])
        types[i] = t
        trace.steps.append(
            TraceStep("node", i, -1, t, 0, mu.data[0].copy(), alpha.data[0].copy())
        )
        got_bond = False
        for j in range(max(0, i - spec.window), i):
            mu, alpha = edge_conditional(params, *step_embedding(params, g, ("edge", i, j)))
            rejections = 0
            while True:
                eps = rng.standard_normal(c_dim) * cfg.temperature
                cat = decode_category(eps, mu.data[0], alpha.data[0])
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
                got_bond = True
            trace.steps.append(
                TraceStep("edge", i, j, cat, rejections, mu.data[0].copy(), alpha.data[0].copy())
            )
        if i > 0 and not got_bond:
            # the new node would be disconnected: drop it and stop
            types[i] = 0
            termination = "no-bonds"
            break
        size = i + 1
    if size == 0:
        raise GraphError("cannot sample into a zero-size graph (seed required?)")
    trace.termination = termination
    return MolecularGraph(types[:size], cats[:size, :size], no_edge), trace


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
    latent = graph_to_latent(g, params, spec, z=z, sequential=False)
    return latent_to_graph(latent, params, spec)
