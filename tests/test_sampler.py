"""Sampling behavior: valency enforcement, resample fallback, termination
reasons, determinism across seeds and thread counts, seeded continuation,
and reconstruction."""

import numpy as np
import pytest

from graphflow import flow
from graphflow import graph as G
from graphflow import rgcn
from graphflow import sampler
from graphflow.autodiff import Tensor
from graphflow.graph import GraphError, MolecularGraph, empty_categories

VOCAB = G.default_atom_vocab()
BONDS = G.default_bond_vocab()
NO_EDGE = BONDS.no_edge


def small_spec(**kw):
    base = dict(width=8, layers=2, window=4, max_size=8)
    base.update(kw)
    return flow.ModelSpec(**base)


def biased_params(spec, node_cat=None, edge_cat=None, strength=50.0, seed=0):
    # zero-initialized heads emit constant mu = b2 and alpha = 1, so a large
    # bias makes one category win the argmax against unit noise essentially
    # always; encoder output is irrelevant to the heads in this state
    params = flow.init_flow_params(spec, np.random.default_rng(seed))
    if node_cat is not None:
        params.node_mu.b2.data[node_cat] = strength
    if edge_cat is not None:
        params.edge_mu.b2.data[edge_cat] = strength
    return params


def connected(g):
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in g.neighbors(i):
                if int(j) not in seen:
                    seen.add(int(j))
                    nxt.append(int(j))
        frontier = nxt
    return len(seen) == g.n


def test_sampled_graphs_respect_valency_and_connectivity():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(1), zero_init_heads=False)
    cfg = sampler.SamplerConfig(valency_check=True)
    graphs, traces = sampler.sample_batch(params, spec, cfg, count=100, seed=7)
    assert len(graphs) == 100
    for g, t in zip(graphs, traces):
        assert G.valency_violations(g, spec.vocab, spec.bonds) == []
        assert connected(g)
        assert 1 <= g.n <= spec.max_size
        assert t.termination in ("max-size", "no-bonds")


def test_valency_check_off_admits_violations():
    # oxygen takes at most two bond orders; a model biased toward triple
    # bonds between oxygens must violate as soon as the check is off
    spec = small_spec(max_size=3)
    params = biased_params(spec, node_cat=VOCAB.index("O"), edge_cat=BONDS.category_of(3))
    cfg = sampler.SamplerConfig(valency_check=False)
    g, trace = sampler.sample_molecule(params, spec, cfg, np.random.default_rng(2))
    assert g.n > 1
    assert G.valency_violations(g, spec.vocab, spec.bonds) != []
    assert trace.rejections == 0


def test_resample_cap_falls_back_to_no_edge():
    # same biased model with the check on: every proposal for slot (1, 0)
    # is invalid, the cap trips, the slot falls back to no-edge, and the
    # bondless new node ends generation
    spec = small_spec(max_size=3)
    params = biased_params(spec, node_cat=VOCAB.index("O"), edge_cat=BONDS.category_of(3))
    cfg = sampler.SamplerConfig(valency_check=True, max_resample=7)
    g, trace = sampler.sample_molecule(params, spec, cfg, np.random.default_rng(3))
    assert g.n == 1
    assert g.node_types[0] == VOCAB.index("O")
    assert trace.termination == "no-bonds"
    assert trace.rejections == 7
    edge_steps = [s for s in trace.steps if s.kind == "edge"]
    assert len(edge_steps) == 1
    assert edge_steps[0].action == NO_EDGE
    assert edge_steps[0].rejections == 7


def test_growth_to_max_size():
    # carbon chain model: single bonds everywhere stay within valence 4
    # for window 2, so generation only stops at the size cap
    spec = small_spec(max_size=5, window=2)
    params = biased_params(spec, node_cat=VOCAB.index("C"), edge_cat=BONDS.category_of(1))
    cfg = sampler.SamplerConfig(valency_check=True)
    g, trace = sampler.sample_molecule(params, spec, cfg, np.random.default_rng(4))
    assert trace.termination == "max-size"
    assert g.n == 5
    assert all(t == VOCAB.index("C") for t in g.node_types)
    assert G.valency_violations(g, spec.vocab, spec.bonds) == []


def test_batch_is_deterministic_per_seed():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(5), zero_init_heads=False)
    cfg = sampler.SamplerConfig()
    g1, t1 = sampler.sample_batch(params, spec, cfg, count=20, seed=11)
    g2, t2 = sampler.sample_batch(params, spec, cfg, count=20, seed=11)
    for a, b in zip(g1, g2):
        assert a == b
    for a, b in zip(t1, t2):
        assert [s.action for s in a.steps] == [s.action for s in b.steps]
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.mu, sb.mu)
            assert np.array_equal(sa.alpha, sb.alpha)
    other, _ = sampler.sample_batch(params, spec, cfg, count=20, seed=12)
    assert any(a != b for a, b in zip(g1, other))


def test_zero_temperature_is_greedy():
    spec = small_spec(max_size=4)
    params = flow.init_flow_params(spec, np.random.default_rng(6), zero_init_heads=False)
    cfg = sampler.SamplerConfig(temperature=0.0)
    a, _ = sampler.sample_molecule(params, spec, cfg, np.random.default_rng(1))
    b, _ = sampler.sample_molecule(params, spec, cfg, np.random.default_rng(999))
    assert a == b


@pytest.mark.parametrize(
    "field, value",
    [
        ("temperature", -1.0),
        ("temperature", float("nan")),
        ("temperature", float("inf")),
        ("max_resample", -1),
    ],
)
def test_sampler_config_rejects_out_of_range_values(field, value):
    # a negative temperature flips every proposal's noise and makes the
    # acting log-probs use a negative scale
    with pytest.raises(ValueError, match=field):
        sampler.SamplerConfig(**{field: value})


def test_sampler_config_accepts_boundary_values():
    sampler.SamplerConfig(temperature=0.0, max_resample=0)


def test_seed_graph_continuation_preserves_prefix():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(8), zero_init_heads=False)
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    seed_graph = MolecularGraph(np.array([0, 1]), cats, NO_EDGE)
    cfg = sampler.SamplerConfig()
    g, trace = sampler.sample_molecule(
        params, spec, cfg, np.random.default_rng(9), seed_graph=seed_graph
    )
    assert g.n >= 2
    assert np.array_equal(g.node_types[:2], seed_graph.node_types)
    assert np.array_equal(g.categories[:2, :2], seed_graph.categories)
    # trace covers only the continuation
    assert all(s.i >= 2 for s in trace.steps)


def test_seed_graph_at_max_size_returns_it_unchanged():
    spec = small_spec(max_size=3)
    params = flow.init_flow_params(spec, np.random.default_rng(10))
    mols = G.gen_synthetic_molecules(5, 3, VOCAB, BONDS, np.random.default_rng(11))
    seed_graph = G.bfs_reorder(next(m for m in mols if m.n == 3), 0)[0]
    g, trace = sampler.sample_molecule(
        params, spec, sampler.SamplerConfig(), np.random.default_rng(12), seed_graph=seed_graph
    )
    assert g == seed_graph
    assert trace.steps == []


def test_seed_graph_rejections():
    spec = small_spec(max_size=3)
    params = flow.init_flow_params(spec, np.random.default_rng(13))
    big = G.bfs_reorder(
        next(
            m
            for m in G.gen_synthetic_molecules(20, 6, VOCAB, BONDS, np.random.default_rng(14))
            if m.n > 3
        ),
        0,
    )[0]
    with pytest.raises(GraphError):
        sampler.sample_molecule(
            params, spec, sampler.SamplerConfig(), np.random.default_rng(15), seed_graph=big
        )
    cats = empty_categories(2, 1)
    cats[0, 1] = cats[1, 0] = 0
    alien = MolecularGraph(np.array([0, 0]), cats, no_edge=1)
    with pytest.raises(GraphError):
        sampler.sample_molecule(
            params, spec, sampler.SamplerConfig(), np.random.default_rng(16), seed_graph=alien
        )


def test_trace_matches_graph_and_conditionals():
    # with the valency check off every recorded action is exactly what was
    # written into the graph, and the recorded mu/alpha rows equal a fresh
    # encoding of the corresponding step state; several seeds, so node
    # steps past the first and bond steps are compared, not only node 0
    spec = small_spec(max_size=6)
    params = flow.init_flow_params(spec, np.random.default_rng(17), zero_init_heads=False)
    cfg = sampler.SamplerConfig(valency_check=False)
    k = params.rgcn.width
    node_checked = edge_checked = 0
    for seed in (18, 22, 25):
        g, trace = sampler.sample_molecule(params, spec, cfg, np.random.default_rng(seed))
        for s in trace.steps:
            if s.i >= g.n:
                continue  # steps for a dropped trailing node
            if s.kind == "node":
                assert s.action == g.node_types[s.i]
                if s.i == 0:
                    h = Tensor(np.zeros((1, k)))
                else:
                    sub = MolecularGraph(g.node_types[: s.i], g.categories[: s.i, : s.i], NO_EDGE)
                    h = Tensor(rgcn.encode(sub, params.rgcn).graph_embedding.data.reshape(1, k))
                    node_checked += 1
                mu, alpha = flow.node_conditional(params, h)
            else:
                assert s.action == g.categories[s.i, s.j]
                sub = MolecularGraph(
                    g.node_types[: s.i + 1], g.categories[: s.i + 1, : s.i + 1], NO_EDGE
                )
                emb = rgcn.encode(sub, params.rgcn, undecided_row=(s.i, s.j))
                h = emb.graph_embedding.data.reshape(1, k)
                hi = emb.H.data[s.i : s.i + 1]
                hj = emb.H.data[s.j : s.j + 1]
                x = Tensor(np.concatenate([h, hi, hj], axis=-1))
                mu, alpha = flow.edge_conditional(params, x)
                edge_checked += 1
            assert np.array_equal(s.mu, mu.data[0])
            assert np.array_equal(s.alpha, alpha.data[0])
    assert node_checked >= 3
    assert edge_checked >= 10


def test_reconstruct_is_exact():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(19), zero_init_heads=False)
    rng = np.random.default_rng(20)
    mols = [
        G.bfs_reorder(m, 0)[0]
        for m in G.gen_synthetic_molecules(10, 8, VOCAB, BONDS, np.random.default_rng(21))
    ]
    checked = 0
    for g in mols:
        if G.max_dependency_distance(g) > spec.window:
            continue
        assert sampler.reconstruct(g, params, spec, rng) == g
        checked += 1
    assert checked >= 6
