"""Sampling behavior: valency enforcement, resample fallback, termination
reasons, determinism across seeds and thread counts, seeded continuation,
reconstruction, the per-node walk against the per-step walk it
replaced, and the batch state cache against walks without it."""

from functools import partial

import numpy as np
import pytest

from graphflow import flow
from graphflow import graph as G
from graphflow import rgcn
from graphflow import rl
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
    # the trace keeps the graph the walk filled, dropped node included
    assert trace.graph.n == 2 and trace.graph.prefix(1) == g
    assert trace.graph.node_types[1] == VOCAB.index("O")
    assert trace.graph.bonds() == []


def test_growth_to_max_size():
    # carbon chain model: single bonds everywhere stay within valence 4
    # for window 2, so generation only stops at the size cap
    spec = small_spec(max_size=5, window=2)
    params = biased_params(spec, node_cat=VOCAB.index("C"), edge_cat=BONDS.category_of(1))
    cfg = sampler.SamplerConfig(valency_check=True)
    g, trace = sampler.sample_molecule(params, spec, cfg, np.random.default_rng(4))
    assert trace.termination == "max-size"
    assert g.n == 5
    assert trace.graph is g
    assert all(t == VOCAB.index("C") for t in g.node_types)
    assert G.valency_violations(g, spec.vocab, spec.bonds) == []


def _assert_exact_size(g):
    # the graph owns arrays sized to it, not views of a walk's buffers
    assert g.node_types.base is None and g.categories.base is None
    assert g.node_types.shape == (g.n,) and g.categories.shape == (g.n, g.n)


@pytest.mark.parametrize("valency_check", [True, False])
def test_walk_outputs_own_exact_size_arrays(valency_check):
    # on both stops the molecule and trace.graph hold only their nodes;
    # on a no-bond stop trace.graph keeps the dropped node in its own copy
    spec = small_spec(max_size=6)
    params = _random_params(spec, 36)
    cfg = sampler.SamplerConfig(valency_check=valency_check)
    graphs, traces = sampler.sample_batch(params, spec, cfg, count=30, seed=37)
    for g, trace in zip(graphs, traces):
        _assert_exact_size(g)
        _assert_exact_size(trace.graph)
        if trace.termination == "no-bonds":
            assert trace.graph.n == g.n + 1 and trace.graph.prefix(g.n) == g
            assert not np.shares_memory(trace.graph.categories, g.categories)
        else:
            assert trace.graph is g
    assert {t.termination for t in traces} == {"max-size", "no-bonds"}
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    trajs, _ = rl.collect_trajectories(
        params, spec, cfg, rl.RewardConfig(), scorer, 12, np.random.default_rng(38)
    )
    for traj in trajs:
        _assert_exact_size(traj.trace.graph)
    assert "no-bonds" in {traj.trace.termination for traj in trajs}


def test_latent_decode_owns_exact_size_arrays():
    # random latents decode to graphs that stop early and at full size
    spec = small_spec(max_size=6)
    params = _random_params(spec, 39)
    rng = np.random.default_rng(40)
    sizes = []
    for _ in range(20):
        eps_x = rng.standard_normal((6, spec.node_dim))
        edges = flow.build_plan(6, spec.window).edge_steps
        eps_a = {step[1:]: rng.standard_normal(spec.edge_dim) for step in edges}
        g = sampler.latent_to_graph(flow.LatentSeq(eps_x, eps_a), params, spec)
        _assert_exact_size(g)
        sizes.append(g.n)
    assert min(sizes) < 6 and max(sizes) == 6


def test_batch_is_deterministic_per_seed():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(5), zero_init_heads=False)
    cfg = sampler.SamplerConfig()
    g1, t1 = sampler.sample_batch(params, spec, cfg, count=20, seed=11)
    g2, t2 = sampler.sample_batch(params, spec, cfg, count=20, seed=11)
    for a, b in zip(g1, g2):
        assert a == b
    for a, b in zip(t1, t2):
        _assert_same_trace(a, b)
    other, _ = sampler.sample_batch(params, spec, cfg, count=20, seed=12)
    assert any(a != b for a, b in zip(g1, other))


def test_zero_temperature_is_greedy():
    spec = small_spec(max_size=4)
    params = flow.init_flow_params(spec, np.random.default_rng(6), zero_init_heads=False)
    cfg = sampler.SamplerConfig(temperature=0.0)
    a, _ = sampler.sample_molecule(params, spec, cfg, np.random.default_rng(1))
    b, _ = sampler.sample_molecule(params, spec, cfg, np.random.default_rng(999))
    assert a == b


def test_temperature_scales_every_draw():
    # replay each molecule's draws from its own SeedSequence child: every
    # proposal draws one standard_normal(dim), rejected ones included, and
    # each kept action is argmax(0.5 * eps * alpha + mu) over its trace
    # row [mu, alpha]; a rejected proposal decodes to a bond, and a forced
    # fallback keeps no-edge after max_resample rejected draws
    spec = small_spec()
    params = _random_params(spec, 34)
    params.edge_mu.b2.data[BONDS.category_of(3)] += 1.0
    cfg = sampler.SamplerConfig(valency_check=True, temperature=0.5, max_resample=4)
    _, traces = sampler.sample_batch(params, spec, cfg, count=30, seed=35)
    unscaled_differs = 0
    for child, trace in zip(np.random.SeedSequence(35).spawn(30), traces):
        rng = np.random.default_rng(child)
        rows = {kind: iter(block) for kind, block in trace.rows.items()}
        for step in trace.steps:
            mu, alpha = next(rows[step.kind])
            fallback = step.rejections >= cfg.max_resample
            draws = [rng.standard_normal(len(mu)) for _ in range(step.rejections + (not fallback))]
            rejected = draws if fallback else draws[:-1]
            for eps in rejected:
                assert np.argmax(0.5 * eps * alpha + mu) != NO_EDGE
            if fallback:
                assert step.action == NO_EDGE
                continue
            assert step.action == np.argmax(0.5 * draws[-1] * alpha + mu)
            unscaled_differs += step.action != np.argmax(draws[-1] * alpha + mu)
    assert unscaled_differs > 0
    assert sum(t.rejections for t in traces) > 0
    assert any(s.rejections >= cfg.max_resample for t in traces for s in t.steps)


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
    assert trace.num_steps == 0


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
    # a type outside the vocabulary; -1 would otherwise encode as the last type
    for bad in (-1, VOCAB.size):
        cats = empty_categories(2, NO_EDGE)
        cats[0, 1] = cats[1, 0] = 0
        odd = MolecularGraph(np.array([0, bad]), cats, NO_EDGE)
        with pytest.raises(GraphError, match="vocabulary"):
            sampler.sample_molecule(
                params, spec, sampler.SamplerConfig(), np.random.default_rng(16), seed_graph=odd
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
        rows = {kind: iter(block) for kind, block in trace.rows.items()}
        for s in trace.steps:
            want_mu, want_alpha = next(rows[s.kind])
            if s.i >= g.n:
                continue  # steps for a dropped trailing node
            if s.kind == "node":
                assert s.action == g.node_types[s.i]
                if s.i == 0:
                    h = Tensor(np.zeros((1, k)))
                else:
                    sub = MolecularGraph(g.node_types[: s.i], g.categories[: s.i, : s.i], NO_EDGE)
                    emb = rgcn.encode(sub, [("node", s.i)], params.rgcn)
                    h = Tensor(emb.graph_embedding.data.reshape(1, k))
                    node_checked += 1
                mu, alpha = flow.node_conditional(params, h)
            else:
                assert s.action == g.categories[s.i, s.j]
                sub = MolecularGraph(
                    g.node_types[: s.i + 1], g.categories[: s.i + 1, : s.i + 1], NO_EDGE
                )
                emb = rgcn.encode(sub, [("edge", s.i, s.j)], params.rgcn)
                h = emb.graph_embedding.data.reshape(1, k)
                hi = emb.H.data[0, s.i : s.i + 1]
                hj = emb.H.data[0, s.j : s.j + 1]
                x = Tensor(np.concatenate([h, hi, hj], axis=-1))
                mu, alpha = flow.edge_conditional(params, x)
                edge_checked += 1
            assert np.array_equal(want_mu, mu.data[0])
            assert np.array_equal(want_alpha, alpha.data[0])
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


def _walk_per_step(params, spec, cfg, g, start, draw, cache=None):
    # the walk with one step_embedding encode per generation step that the
    # per-node walk replaced: its oracle
    types, cats, no_edge = g.node_types, g.categories, g.no_edge
    records, rows = [], {"node": [], "edge": []}
    for i in range(start, g.n):
        mu, alpha = flow.node_conditional(params, flow.step_embedding(params, g, ("node", i)))
        t = flow.decode_category(draw(spec.node_dim), mu.data[0], alpha.data[0])
        types[i] = t
        records.append(("node", i, -1, t, 0))
        rows["node"].append((mu.data[0], alpha.data[0]))
        got_bond = False
        for j in range(max(0, i - spec.window), i):
            step_x = flow.step_embedding(params, g, ("edge", i, j))
            mu, alpha = flow.edge_conditional(params, step_x)
            rejections = 0
            while True:
                cat = flow.decode_category(draw(spec.edge_dim), mu.data[0], alpha.data[0])
                if (
                    cfg.valency_check
                    and cat != no_edge
                    and not G.check_valency(g, spec.vocab, spec.bonds, i, j, cat)
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
            records.append(("edge", i, j, cat, rejections))
            rows["edge"].append((mu.data[0], alpha.data[0]))
        if i > 0 and not got_bond:
            return g.prefix(i), sampler.SampleTrace.build(
                spec, records, rows, "no-bonds", g.prefix(i + 1)
            )
    return g, sampler.SampleTrace.build(spec, records, rows, "max-size", g)


def _assert_same_trace(trace, want):
    # column by column: a dataclass holding arrays has no usable ==
    assert trace.termination == want.termination
    assert trace.graph == want.graph
    assert trace.seed == want.seed
    assert trace.rejections == want.rejections
    assert trace.steps.dtype == want.steps.dtype
    assert np.array_equal(trace.steps, want.steps)
    assert trace.rows.keys() == want.rows.keys()
    for kind, block in trace.rows.items():
        assert block.shape == want.rows[kind].shape
        assert np.array_equal(block, want.rows[kind])


def _assert_same_run(got, want):
    (g, trace), (g_ref, trace_ref) = got, want
    assert np.array_equal(g.node_types, g_ref.node_types)
    assert np.array_equal(g.categories, g_ref.categories)
    _assert_same_trace(trace, trace_ref)


def _per_step(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(sampler, "_walk", _walk_per_step)
        return fn(*args, **kwargs)


def _random_params(spec, seed):
    # random weights with heads scaled up and single bonds favoured, so
    # node types, rows with several bonds, rejections and both
    # terminations all occur
    params = flow.init_flow_params(spec, np.random.default_rng(seed), zero_init_heads=False)
    for head in (params.node_mu, params.edge_mu):
        head.w2.data *= 3.0
    params.edge_mu.b2.data[BONDS.category_of(1)] += 1.0
    return params


@pytest.mark.parametrize("window", [1, 3, None])
@pytest.mark.parametrize("temperature", [1.0, 0.8, 0.0])
@pytest.mark.parametrize("valency_check", [True, False])
def test_per_node_walk_matches_per_step_walk(monkeypatch, window, temperature, valency_check):
    spec = small_spec(**({} if window is None else {"window": window}))
    params = _random_params(spec, 30)
    cfg = sampler.SamplerConfig(valency_check=valency_check, temperature=temperature)
    got = sampler.sample_batch(params, spec, cfg, count=12, seed=31)
    want = _per_step(monkeypatch, sampler.sample_batch, params, spec, cfg, count=12, seed=31)
    for pair in zip(zip(*got), zip(*want)):
        _assert_same_run(*pair)
    # the batch shares one state cache; each molecule alone has none
    children = np.random.SeedSequence(31).spawn(12)
    for run, alone in zip(zip(*got), _children_runs(params, spec, cfg, children)):
        _assert_same_run(run, alone)
    if temperature > 0:
        assert {t.termination for t in got[1]} == {"max-size", "no-bonds"}
    if window != 1:  # a bond kept before its row's last slot re-encodes the rest
        edges = [s for t in got[1] for s in t.steps if s.kind == "edge"]
        assert any(s.action != NO_EDGE and s.j < s.i - 1 for s in edges)


def test_per_node_walk_matches_per_step_walk_with_forced_fallbacks(monkeypatch):
    # max_resample = 1 turns every rejected proposal into a forced no-edge
    spec = small_spec(max_size=10)
    params = _random_params(spec, 32)
    params.edge_mu.b2.data[BONDS.category_of(3)] += 2.0
    cfg = sampler.SamplerConfig(max_resample=1)
    got = sampler.sample_batch(params, spec, cfg, count=12, seed=33)
    want = _per_step(monkeypatch, sampler.sample_batch, params, spec, cfg, count=12, seed=33)
    for pair in zip(zip(*got), zip(*want)):
        _assert_same_run(*pair)
    assert sum(s.rejections >= cfg.max_resample for t in got[1] for s in t.steps) >= 5


def test_trace_reads_the_way_the_benchmark_counts_it():
    # bench/tracing.py::_count_sample counts each sampled trace this way:
    # it iterates trace.steps for .kind and .rejections and calls
    # len(trace.steps), and adds trace.rejections to counters written as
    # JSON. The benchmark's own tests are not in this suite, so this
    # holds the trace to that reading; the counts must match the columns
    spec = small_spec(max_size=10)
    params = _random_params(spec, 32)
    params.edge_mu.b2.data[BONDS.category_of(3)] += 2.0
    cfg = sampler.SamplerConfig(valency_check=True, max_resample=3)
    _, traces = sampler.sample_batch(params, spec, cfg, count=12, seed=33)
    total_rejections = total_fallbacks = 0
    for trace in traces:
        node_steps = sum(1 for s in trace.steps if s.kind == "node")
        edge_steps = len(trace.steps) - node_steps
        fallbacks = sum(
            1 for s in trace.steps if s.kind == "edge" and s.rejections >= cfg.max_resample
        )
        assert node_steps == np.count_nonzero(trace.steps.kind == "node") == len(trace.rows["node"])
        assert edge_steps == np.count_nonzero(trace.steps.kind == "edge") == len(trace.rows["edge"])
        assert fallbacks == np.count_nonzero(trace.steps.rejections >= cfg.max_resample)
        assert isinstance(trace.rejections, int)
        assert trace.rejections == sum(s.rejections for s in trace.steps)
        traj = rl.build_trajectory(trace, rl.RewardConfig(), score=0.0)
        assert len(trace.steps) == trace.num_steps == traj.num_steps == len(traj.returns)
        total_rejections += trace.rejections
        total_fallbacks += fallbacks
    assert total_rejections > 0 and total_fallbacks > 0


def test_per_node_walk_matches_per_step_walk_from_seed_graphs(monkeypatch):
    # with the default window and one that binds harder (2 < max_size - 1);
    # distinct seeds of every size share one cache, which encodes each
    # distinct state once, so walks from one seed find the states that
    # walks from another seed encoded
    mols = G.gen_synthetic_molecules(3, 6, VOCAB, BONDS, np.random.default_rng(35))
    prefixes = [G.bfs_reorder(m, 0)[0].prefix(n).copy() for m in mols for n in range(1, m.n + 1)]
    distinct = {(g.node_types.tobytes(), g.categories.tobytes()): g for g in prefixes}
    for window in (4, 2):
        spec = small_spec(window=window)
        params = _random_params(spec, 34)
        seeds = [g for g in distinct.values() if G.max_dependency_distance(g) <= window]
        assert len({g.n for g in seeds}) >= 4
        cfg = sampler.SamplerConfig()
        cache = sampler.StateCache(spec)
        runs = [partial(sampler.sample_molecule, params, spec, cfg, seed_graph=g) for g in seeds]
        for k, run in enumerate(runs):
            want = _per_step(monkeypatch, run, np.random.default_rng(k))
            _assert_same_run(run(np.random.default_rng(k)), want)
        with monkeypatch.context() as m:
            states = _encoded_states(m)
            alone = [run(np.random.default_rng(k)) for k, run in enumerate(runs)]
            repeated = len(states) - len(set(states))
            states.clear()
            for k, (run, want) in enumerate(zip(runs, alone)):
                _assert_same_run(run(np.random.default_rng(k), cache=cache), want)
        assert cache.rows and len(states) == len(set(states))
        assert repeated > 0


def test_per_node_walk_matches_per_step_walk_on_latents(monkeypatch):
    spec = small_spec()
    params = _random_params(spec, 36)
    mols = G.gen_synthetic_molecules(10, 8, VOCAB, BONDS, np.random.default_rng(37))
    graphs = [g for g in (G.bfs_reorder(m, 0)[0] for m in mols)
              if G.max_dependency_distance(g) <= spec.window]
    assert len(graphs) >= 6
    for k, g in enumerate(graphs):
        z = G.dequantize(g, spec.vocab, spec.bonds, np.random.default_rng(k), window=spec.window)
        latent = flow.graph_to_latent(g, params, spec, z=z)
        noisy = flow.LatentSeq(latent.eps_x + 0.7, {s: e - 0.7 for s, e in latent.eps_a.items()})
        for seq in (latent, noisy):
            got = sampler.latent_to_graph(seq, params, spec)
            assert got == _per_step(monkeypatch, sampler.latent_to_graph, seq, params, spec)
        rec = sampler.reconstruct(g, params, spec, np.random.default_rng(k))
        assert rec == g
        assert rec == _per_step(
            monkeypatch, sampler.reconstruct, g, params, spec, np.random.default_rng(k)
        )


def _expected_encodes(trace, start):
    # one call per node with edge steps, one more per bond kept before its
    # row's last slot, and a node-state call for the seed prefix, after a
    # row with no edge steps, and after a bond kept at a row's last slot
    calls = 1 if start > 0 and trace.num_steps else 0
    rows = {}
    for s in trace.steps:
        rows.setdefault(s.i, []).append(s)
    for i, row in rows.items():
        edges = row[1:]
        calls += bool(edges) + sum(e.action != NO_EDGE for e in edges[:-1])
        ends_open = not edges or edges[-1].action != NO_EDGE
        if ends_open and i + 1 in rows:
            calls += 1
    return calls


def test_sampler_makes_one_encode_per_node_plus_one_per_kept_bond(monkeypatch):
    spec = small_spec(max_size=8)
    params = _random_params(spec, 38)
    calls = []
    encode = rgcn.encode
    monkeypatch.setattr(rgcn, "encode", lambda *a, **kw: calls.append(a[0].n) or encode(*a, **kw))
    mols = G.gen_synthetic_molecules(6, 4, VOCAB, BONDS, np.random.default_rng(39))
    seeds = [None] + [G.bfs_reorder(m, 0)[0] for m in mols[:3]]
    total_steps = total_calls = 0
    for k, seed_graph in enumerate(seeds * 5):
        start = 0 if seed_graph is None else seed_graph.n
        calls.clear()
        g, trace = sampler.sample_molecule(
            params, spec, sampler.SamplerConfig(), np.random.default_rng(k), seed_graph=seed_graph
        )
        assert len(calls) == _expected_encodes(trace, start)
        total_steps += trace.num_steps
        total_calls += len(calls)
    # the per-step walk made one call per step but the empty prefix's
    assert total_calls * 2 < total_steps


def _encoded_states(monkeypatch):
    # every state rgcn.encode is given, as the bytes it reads: undecided
    # slots are still no-edge, so equal states give equal entries
    states = []
    encode = rgcn.encode

    def record(g_prefix, steps, params):
        payload = g_prefix.node_types.tobytes() + g_prefix.categories.tobytes()
        states.extend((step, payload) for step in steps)
        return encode(g_prefix, steps, params)

    monkeypatch.setattr(rgcn, "encode", record)
    return states


def _children_runs(params, spec, cfg, children, cache=None):
    return [
        sampler.sample_molecule(params, spec, cfg, np.random.default_rng(c), cache=cache)
        for c in children
    ]


def test_state_cache_encodes_each_distinct_state_once_per_batch(monkeypatch):
    spec = small_spec()
    params = _random_params(spec, 40)
    cfg = sampler.SamplerConfig()
    states = _encoded_states(monkeypatch)
    sampler.sample_batch(params, spec, cfg, count=40, seed=41)
    assert len(states) == len(set(states))
    cached = len(states)
    states.clear()
    _children_runs(params, spec, cfg, np.random.SeedSequence(41).spawn(40))
    # without the cache the batch encodes some states again
    assert len(set(states)) == cached < len(states)


def test_state_cache_reused_in_reverse_order_gives_the_same_runs(monkeypatch):
    spec = small_spec(window=3)
    params = _random_params(spec, 42)
    cfg = sampler.SamplerConfig(temperature=0.8)
    children = np.random.SeedSequence(43).spawn(16)
    want = _children_runs(params, spec, cfg, children)
    cache = sampler.StateCache(spec)
    for got, run in zip(_children_runs(params, spec, cfg, children, cache), want):
        _assert_same_run(got, run)
    filled = len(cache.rows)
    states = _encoded_states(monkeypatch)
    for got, run in zip(_children_runs(params, spec, cfg, children[::-1], cache), want[::-1]):
        _assert_same_run(got, run)
    assert states == [] and len(cache.rows) == filled  # every state was a hit


def test_state_cache_past_its_bound_gives_the_same_runs(monkeypatch):
    spec = small_spec()
    params = _random_params(spec, 44)
    cfg = sampler.SamplerConfig()
    children = np.random.SeedSequence(45).spawn(24)
    want = _children_runs(params, spec, cfg, children)
    monkeypatch.setattr(sampler, "STATE_CACHE_ROWS", 10)
    cache = sampler.StateCache(spec)
    states = _encoded_states(monkeypatch)
    for got, run in zip(_children_runs(params, spec, cfg, children, cache), want):
        _assert_same_run(got, run)
    assert len(cache.rows) == 10
    assert len(states) > len(set(states))  # states past the bound are encoded again


def _walks_with(cache):
    # _walk as every caller runs it, but always with the given cache
    walk = sampler._walk
    return lambda params, spec, cfg, g, start, draw, _: walk(params, spec, cfg, g, start, draw, cache)


@pytest.mark.parametrize("valency_check", [True, False])
def test_cacheless_walks_match_walks_with_a_warm_shared_cache(monkeypatch, valency_check):
    # unseeded walks, walks from constrained-optimization seeds and latent
    # decodes: without a cache each is bitwise the per-step walk and the
    # walk served entirely by a warm shared cache
    spec = small_spec()
    params = _random_params(spec, 46)
    cfg = sampler.SamplerConfig(valency_check=valency_check)
    mols = [G.bfs_reorder(m, 0)[0]
            for m in G.gen_synthetic_molecules(8, 8, VOCAB, BONDS, np.random.default_rng(47))]
    mols = [g for g in mols if G.max_dependency_distance(g) <= spec.window]
    seeds = [None] + [
        rl.subgraph_seed(g, np.random.default_rng(k), window=spec.window) for k, g in enumerate(mols)
    ]
    assert len({0 if s is None else s.n for s in seeds}) >= 4

    def sample(k, seed_graph):
        return sampler.sample_molecule(
            params, spec, cfg, np.random.default_rng(k), seed_graph=seed_graph
        )

    def decode(k, g):
        return sampler.reconstruct(g, params, spec, np.random.default_rng(k))

    runs = [partial(sample, k, s) for k, s in enumerate(seeds * 3)]
    noise = [G.dequantize(g, spec.vocab, spec.bonds, np.random.default_rng(k), window=spec.window)
             for k, g in enumerate(mols)]
    latents = [flow.graph_to_latent(g, params, spec, z=z) for g, z in zip(mols, noise)]
    decodes = [partial(sampler.latent_to_graph, seq, params, spec) for seq in latents]
    decodes += [partial(decode, k, g) for k, g in enumerate(mols)]
    cache = sampler.StateCache(spec)
    with monkeypatch.context() as m:
        m.setattr(sampler, "_walk", _walks_with(cache))
        [run() for run in runs + decodes]  # warms the cache
        states = _encoded_states(m)
        warm = [run() for run in runs + decodes]
        assert states == []  # every state was a hit
    with monkeypatch.context() as m:
        m.setattr(sampler.StateCache, "lookup", None)  # a walk without a cache keys nothing
        alone = [run() for run in runs + decodes]
    oracle = [_per_step(monkeypatch, run) for run in runs + decodes]
    n = len(runs)
    for got, hit, want in zip(alone[:n], warm[:n], oracle[:n]):
        _assert_same_run(got, hit)
        _assert_same_run(got, want)
    for got, hit, want in zip(alone[n:], warm[n:], oracle[n:]):
        assert got == hit == want
    if valency_check:
        assert any(t.rejections for _, t in alone[:n])
