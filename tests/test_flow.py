"""Flow behavior: invertibility, batched-vs-sequential equality, the
triangular structure of the data-to-latent map, likelihood gradients,
decoding round trips, and training."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from graphflow import autodiff as ad
from graphflow import flow
from graphflow import graph as G
from graphflow import rgcn, sampler
from graphflow.autodiff import Tensor
from graphflow.graph import GraphError, MolecularGraph, empty_categories

VOCAB = G.default_atom_vocab()
BONDS = G.default_bond_vocab()
NO_EDGE = BONDS.no_edge


def small_spec(**kw):
    base = dict(width=8, layers=2, window=6, max_size=10)
    base.update(kw)
    return flow.ModelSpec(**base)


def molecules(seed, count, max_atoms=8, window=None):
    rng = np.random.default_rng(seed)
    mols = G.gen_synthetic_molecules(count, max_atoms, VOCAB, BONDS, rng)
    out = [G.bfs_reorder(m, 0)[0] for m in mols]
    if window is not None:
        out = [m for m in out if G.max_dependency_distance(m) <= window]
    return out


# ---------------------------------------------------------------- transforms


@settings(max_examples=200, deadline=None)
@given(
    eps=st.floats(-10.0, 10.0),
    mu=st.floats(-3.0, 3.0),
    log_alpha=st.floats(-2.0, 2.0),
)
def test_transform_round_trip(eps, mu, log_alpha):
    alpha = np.exp(log_alpha)
    z = flow.forward_transform(np.array(eps), np.array(mu), np.array(alpha))
    back = flow.inverse_transform(z, np.array(mu), np.array(alpha))
    assert abs(back - eps) < 1e-12


def test_transform_is_affine_in_eps():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=5)
    alpha = np.exp(rng.normal(size=5))
    e1, e2 = rng.normal(size=5), rng.normal(size=5)
    lhs = flow.forward_transform(e1 + e2, mu, alpha) + flow.forward_transform(
        np.zeros(5), mu, alpha
    )
    rhs = flow.forward_transform(e1, mu, alpha) + flow.forward_transform(e2, mu, alpha)
    assert np.allclose(lhs, rhs, atol=1e-12)


# --------------------------------------------------------------- step plans


def test_build_plan_layout():
    plan = flow.build_plan(4, window=2)
    assert plan.steps == [
        ("node", 0),
        ("node", 1),
        ("edge", 1, 0),
        ("node", 2),
        ("edge", 2, 0),
        ("edge", 2, 1),
        ("node", 3),
        ("edge", 3, 1),
        ("edge", 3, 2),
    ]
    assert plan.edge_steps == [s for s in plan.steps if s[0] == "edge"]


def test_spec_clamps_window_to_max_size():
    spec = flow.ModelSpec(width=4, layers=1, window=100, max_size=8)
    assert spec.window == 7
    with pytest.raises(ValueError):
        flow.ModelSpec(max_size=0)


@pytest.mark.parametrize("window", [0, -3])
def test_spec_rejects_window_below_one(window):
    # a window below one leaves no edge step: every sample would be one atom
    with pytest.raises(ValueError, match="window"):
        flow.ModelSpec(width=4, layers=1, window=window, max_size=8)
    assert flow.ModelSpec(width=4, layers=1, window=1, max_size=8).window == 1


def test_dequantize_slots_match_plan():
    spec = small_spec()
    g = molecules(0, 1, window=spec.window)[0]
    z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(1), window=spec.window)
    plan = flow.build_plan(g.n, spec.window)
    assert set(z.za) == {(i, j) for _, i, j in plan.edge_steps}


def test_validate_ordered_rejects_bad_inputs():
    cats = empty_categories(3, NO_EDGE)
    cats[0, 2] = cats[2, 0] = 0
    not_bfs = MolecularGraph(np.array([0, 0, 0]), cats, NO_EDGE)
    with pytest.raises(GraphError):
        flow.validate_ordered(not_bfs, window=6)
    # star graph: last leaf bonds 7 positions back
    n = 8
    cats = empty_categories(n, NO_EDGE)
    cats[0, 1:] = 0
    cats[1:, 0] = 0
    star = MolecularGraph(np.zeros(n, dtype=np.int64), cats, NO_EDGE)
    with pytest.raises(GraphError, match="window"):
        flow.validate_ordered(star, window=6)
    flow.validate_ordered(star, window=7)


def test_reorder_for_window_retries_then_raises():
    # K4 needs a bond spanning 3 positions in any vertex order
    n = 4
    cats = np.zeros((n, n), dtype=np.int64)
    np.fill_diagonal(cats, NO_EDGE)
    k4 = MolecularGraph(np.zeros(n, dtype=np.int64), cats, NO_EDGE)
    rng = np.random.default_rng(0)
    with pytest.raises(GraphError):
        flow._reorder_for_window(k4, window=2, rng=rng)
    ordered = flow._reorder_for_window(k4, window=3, rng=rng)
    assert G.is_bfs_ordered(ordered)
    assert G.max_dependency_distance(ordered) <= 3


# -------------------------------------------------------------- likelihoods


def test_identity_init_likelihood_is_standard_normal():
    # zero-initialized heads give mu = 0, alpha = 1 at every step, so the
    # model density reduces to independent standard normals on the
    # dequantized values
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(0))
    for g in molecules(1, 3, window=spec.window):
        z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(2), window=spec.window)
        vals = np.concatenate([z.zx.reshape(-1)] + [v for v in z.za.values()])
        oracle = stats.norm.logpdf(vals).sum()
        got_eval = flow.log_likelihood_parallel(g, params, spec, z=z)
        got_train = flow.log_likelihood_parallel(g, params, spec, z=z, training=True)
        got_seq = flow.log_likelihood_sequential(g, params, spec, z=z)
        assert abs(got_eval.total - oracle) < 1e-9
        assert abs(got_train.total - oracle) < 1e-9
        assert abs(got_seq.total - oracle) < 1e-9


def stacked_conditionals(g, steps, params):
    """flow's batched (mu, alpha) tables over an evaluation-mode pack."""
    return flow._stacked_conditionals(rgcn.pack_step_batch(g, steps, params.rgcn), params)


def test_identity_init_conditionals_are_unit():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(0))
    g = molecules(2, 1, window=spec.window)[0]
    plan = flow.build_plan(g.n, spec.window)
    mu_x, alpha_x, mu_a, alpha_a = stacked_conditionals(g, plan.steps, params)
    assert np.array_equal(mu_x.data, np.zeros_like(mu_x.data))
    assert np.array_equal(alpha_x.data, np.ones_like(alpha_x.data))
    if mu_a is not None:
        assert np.array_equal(mu_a.data, np.zeros_like(mu_a.data))
        assert np.array_equal(alpha_a.data, np.ones_like(alpha_a.data))


def test_parallel_matches_sequential():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(3), zero_init_heads=False)
    rng = np.random.default_rng(4)
    checked = 0
    for g in molecules(5, 6, window=spec.window):
        z = G.dequantize(g, VOCAB, BONDS, rng, window=spec.window)
        par = flow.log_likelihood_parallel(g, params, spec, z=z)
        seq = flow.log_likelihood_sequential(g, params, spec, z=z)
        assert abs(par.total - seq.total) < 1e-9
        assert np.allclose(par.node_terms, seq.node_terms, atol=1e-9)
        assert len(par.edge_terms) == len(seq.edge_terms)
        for (pi, pj, pv), (si, sj, sv) in zip(par.edge_terms, seq.edge_terms):
            assert (pi, pj) == (si, sj)
            assert abs(pv - sv) < 1e-9
        assert par.num_steps == g.n + len(par.edge_terms)
        checked += 1
    assert checked >= 3


def test_step_embedding_rows_equal_gathered_head_inputs():
    # the sampler's one-row head input of every step, node and edge, is
    # bitwise the row the stacked pass's gather node gives that step
    spec = small_spec()
    k = spec.width
    params = flow.init_flow_params(spec, np.random.default_rng(12), zero_init_heads=False)
    graphs = [m for m in molecules(13, 12, window=spec.window) if m.n >= 5][:2]
    assert len(graphs) == 2
    for g in graphs:
        steps = flow.build_plan(g.n, spec.window).steps
        pack = rgcn.pack_step_batch(g, steps, params.rgcn)
        stacked = rgcn.encode_step_batch(g, steps, params.rgcn, pack=pack)
        node = flow._head_inputs(stacked, pack.node_rows)
        edge = flow._head_inputs(stacked, pack.edge_rows, pack.edge_i, pack.edge_j)
        gathered = dict(zip(pack.node_rows, node.data))
        gathered.update(zip(pack.edge_rows, edge.data))
        for s, step in enumerate(steps):
            row = flow.step_embedding(params, g, step).data
            assert row.shape == (1, k if step[0] == "node" else 3 * k)
            assert np.array_equal(row[0], gathered[s])


def test_scale_head_output_is_clipped():
    # blowing up the scale head must not produce inf or zero alpha
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(6), zero_init_heads=False)
    params.node_scale.w2.data *= 1e4
    params.node_scale.b2.data += 1e3
    g = molecules(7, 1, window=spec.window)[0]
    plan = flow.build_plan(g.n, spec.window)
    _, alpha_x, _, _ = stacked_conditionals(g, plan.steps, params)
    assert np.all(np.isfinite(alpha_x.data))
    assert np.all(alpha_x.data <= np.exp(7.0) + 1e-9)
    assert np.all(alpha_x.data >= np.exp(-7.0) - 1e-12)


def test_likelihood_requires_noise_source():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(0))
    g = molecules(0, 1, window=spec.window)[0]
    with pytest.raises(ValueError):
        flow.log_likelihood_parallel(g, params, spec)


def test_likelihood_rejects_an_empty_graph_list():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(0))
    with pytest.raises(ValueError, match="log_likelihood_parallel"):
        flow.log_likelihood_parallel([], params, spec, rng=np.random.default_rng(0))


# ---------------------------------------------------- latent round trips


def test_prefix_latents_ignore_later_graph_content():
    # autoregressive factorization: the latent at step t is a function of
    # the decided prefix only, so editing later nodes or later bond slots
    # must leave earlier latents bit-for-bit identical
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(8), zero_init_heads=False)
    g = next(m for m in molecules(9, 10, window=spec.window) if m.n >= 5)
    last = g.n - 1
    z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(10), window=spec.window)
    base = flow.graph_to_latent(g, params, spec, z=z)

    mutated = g.copy()
    mutated.node_types[last] = (mutated.node_types[last] + 1) % VOCAB.size
    m = flow.graph_to_latent(mutated, params, spec, z=z)
    assert np.array_equal(base.eps_x[:last], m.eps_x[:last])
    for (i, j), v in base.eps_a.items():
        if i < last:
            assert np.array_equal(v, m.eps_a[(i, j)])

    # editing the bond in slot (last, j2) cannot move slots (last, j < j2)
    slots = sorted(j for (i, j) in base.eps_a if i == last)
    if len(slots) >= 2:
        j2 = slots[-1]
        flipped = g.copy()
        old = flipped.categories[last, j2]
        new = 0 if old != 0 else 1
        flipped.categories[last, j2] = new
        flipped.categories[j2, last] = new
        f = flow.graph_to_latent(flipped, params, spec, z=z)
        for j in slots[:-1]:
            assert np.array_equal(base.eps_a[(last, j)], f.eps_a[(last, j)])


def test_batched_latents_match_sequential():
    # the stacked pass against one step_conditional call per step
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(11), zero_init_heads=False)
    for g in molecules(12, 4, window=spec.window):
        z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(13), window=spec.window)
        bat = flow.graph_to_latent(g, params, spec, z=z)
        steps = flow.build_plan(g.n, spec.window).steps
        assert set(bat.eps_a) == {step[1:] for step in steps if step[0] == "edge"}
        for step in steps:
            mu, alpha = flow.step_conditional(params, g, step)
            if step[0] == "node":
                ref = flow.inverse_transform(z.zx[step[1]], mu, alpha)
                got = bat.eps_x[step[1]]
            else:
                ref = flow.inverse_transform(z.za[step[1:]], mu, alpha)
                got = bat.eps_a[step[1:]]
            assert np.allclose(ref, got, atol=1e-10)


def test_latent_round_trip_recovers_graph():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(14), zero_init_heads=False)
    rng = np.random.default_rng(15)
    count = 0
    for g in molecules(16, 12, window=spec.window):
        lat = flow.graph_to_latent(g, params, spec, rng=rng)
        back = sampler.latent_to_graph(lat, params, spec)
        assert back == g
        count += 1
    assert count >= 8


def test_latent_node_without_bond_ends_decoding():
    # decoding drops a node after the first that gets no bond and stops,
    # as sampling does, even when the latent holds more nodes
    spec = small_spec(window=2)
    params = flow.init_flow_params(spec, np.random.default_rng(17))  # mu 0, alpha 1
    d, c = spec.node_dim, spec.edge_dim
    bond, none = np.full(c, -5.0), np.full(c, -5.0)
    bond[0] = 5.0
    none[NO_EDGE] = 5.0
    eps_x = np.full((4, d), -5.0)
    eps_x[:, 1] = 5.0  # every node decodes type 1
    eps_a = {(1, 0): bond, (2, 0): none, (2, 1): none, (3, 1): bond, (3, 2): bond}
    back = sampler.latent_to_graph(flow.LatentSeq(eps_x, eps_a), params, spec)
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    assert back == MolecularGraph(np.array([1, 1]), cats, NO_EDGE)


# ------------------------------------------------- triangular structure


def _tiny_setup():
    vocab = G.AtomVocab(symbols=("A", "B"), valences=(2, 2))
    bonds = G.BondVocab(orders=(1,))
    spec = flow.ModelSpec(
        vocab=vocab, bonds=bonds, width=6, layers=2, window=4, max_size=6
    )
    params = flow.init_flow_params(spec, np.random.default_rng(20), zero_init_heads=False)
    cats = empty_categories(2, bonds.no_edge)
    cats[0, 1] = cats[1, 0] = 0
    g = MolecularGraph(np.array([0, 1]), cats, bonds.no_edge)
    return spec, params, g


def _flat_to_latent(flat, g, params, spec):
    d = spec.node_dim
    z = G.DequantizedGraph(
        zx=flat[: 2 * d].reshape(2, d).copy(), za={(1, 0): flat[2 * d :].copy()}
    )
    lat = flow.graph_to_latent(g, params, spec, z=z)
    return np.concatenate([lat.eps_x.reshape(-1), lat.eps_a[(1, 0)]])


def test_data_to_latent_jacobian_is_triangular():
    # coordinates ordered by generation step; finite differences of the
    # full map must show no dependence of earlier latents on later data
    spec, params, g = _tiny_setup()
    rng = np.random.default_rng(21)
    z0 = np.concatenate(
        [
            G.dequantize(g, spec.vocab, spec.bonds, rng).zx.reshape(-1),
            G.dequantize(g, spec.vocab, spec.bonds, rng).za[(1, 0)],
        ]
    )
    dim = z0.size
    h = 1e-6
    jac = np.zeros((dim, dim))
    for k in range(dim):
        zp, zm = z0.copy(), z0.copy()
        zp[k] += h
        zm[k] -= h
        fp = _flat_to_latent(zp, g, params, spec)
        fm = _flat_to_latent(zm, g, params, spec)
        jac[:, k] = (fp - fm) / (2.0 * h)
    upper = np.triu(np.abs(jac), k=1)
    assert upper.max() < 1e-8

    # per-coordinate scaling means the Jacobian is diagonal with 1/alpha
    plan = flow.build_plan(g.n, spec.window)
    mu_x, alpha_x, mu_a, alpha_a = stacked_conditionals(g, plan.steps, params)
    inv_alpha = np.concatenate([1.0 / alpha_x.data.reshape(-1), 1.0 / alpha_a.data[0]])
    assert np.abs(jac - np.diag(inv_alpha)).max() < 1e-6

    sign, logdet = np.linalg.slogdet(jac)
    assert sign == 1.0
    expected = np.log(inv_alpha).sum()
    assert abs(logdet - expected) / max(1.0, abs(expected)) < 1e-4


# ------------------------------------------------------------- gradients


def test_nll_gradients_match_finite_differences():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(22), zero_init_heads=False)
    cats = empty_categories(3, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    cats[1, 2] = cats[2, 1] = 1
    g = MolecularGraph(np.array([0, 1, 0]), cats, NO_EDGE)
    z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(23), window=spec.window)
    named = params.named_tensors()

    def loss_train():
        return flow.log_likelihood_parallel(g, params, spec, z=z, training=True).nll

    def loss_eval():
        return flow.log_likelihood_parallel(g, params, spec, z=z).nll

    assert ad.grad_check(loss_train, named, h=1e-5) < 1e-4
    assert ad.grad_check(loss_eval, named, h=1e-5) < 1e-4


def _op_histogram(tape) -> dict:
    # each node's op, by the function its backward closure was made in
    return dict(Counter(back.__qualname__.split(".")[0] for _, _, back in tape.nodes))


def test_training_graph_tape_length():
    # one 10-atom graph at the benchmark's training shape (width 16, two
    # layers, window 12): six encoder nodes (embedding product, two
    # layers, the placement in step order, batch norm, column sum), one
    # gather of head inputs, four head nodes (two MLPs, clip, exp) and
    # one log-density node per step kind, and one NLL node per graph.
    # Four graphs of 4, 6, 8 and 10 atoms on one tape add an embedding
    # product and two layers per further graph size, and an NLL node
    # per further graph.
    spec = small_spec(width=16, layers=2, window=12, max_size=12)
    params = flow.init_flow_params(spec, np.random.default_rng(0))
    mols = molecules(3, 64, max_atoms=10)
    graphs = [next(m for m in mols if m.n == n) for n in (4, 6, 8, 10)]
    per_kind = {"_head_inputs": 2, "mlp_apply": 4, "clip": 2, "exp": 2, "gaussian_logpdf": 2}
    encoder = {"_place": 1, "batch_norm": 1, "tensor_sum": 1}
    for chunk, count, nodes in ((graphs[-1], 1, 19), (graphs, 4, 31)):
        # count graphs, each of its own size
        with ad.Tape() as tape:
            flow.log_likelihood_parallel(
                chunk, params, spec, rng=np.random.default_rng(4), training=True
            )
        assert _op_histogram(tape) == {
            **per_kind, **encoder, "matmul": count, "_relation_layer": 2 * count,
            "_negated_total": count,
        }
        assert len(tape.nodes) == nodes


@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
def test_packed_likelihoods_match_one_graph_calls(training):
    # one stacked pass over several graphs, an equal copy and a
    # single-atom graph among them, gives each graph's LogLik of a call
    # on that graph alone: the encoder rows are bitwise, and the heads'
    # products span more rows, which moves their last bits
    spec = small_spec()
    mols = molecules(8, 12, window=spec.window)
    single = MolecularGraph(mols[0].node_types[:1], mols[0].categories[:1, :1], NO_EDGE)
    graphs = mols[:4] + [single, mols[1].copy()]
    rng = np.random.default_rng(9)
    noise = [G.dequantize(g, VOCAB, BONDS, rng, window=spec.window) for g in graphs]
    params = flow.init_flow_params(spec, np.random.default_rng(10), zero_init_heads=False)
    packed = flow.log_likelihood_parallel(graphs, params, spec, z=noise, training=training)
    ref_params = flow.init_flow_params(spec, np.random.default_rng(10), zero_init_heads=False)
    assert len(packed) == len(graphs)
    for g, z, ll in zip(graphs, noise, packed):
        ref = flow.log_likelihood_parallel(g, ref_params, spec, z=z, training=training)
        assert abs(ll.total - ref.total) <= 1e-15 * abs(ref.total)
        assert float(ll.nll.data) == -ll.total
        assert np.allclose(ll.node_terms, ref.node_terms, rtol=1e-13, atol=0.0)
        assert [e[:2] for e in ll.edge_terms] == [e[:2] for e in ref.edge_terms]
    for name, buf in params.named_buffers().items():
        assert np.array_equal(buf, ref_params.named_buffers()[name])


# -------------------------------------------------------------- training


def test_train_lowers_nll_and_is_deterministic():
    spec = small_spec()
    data = molecules(30, 24, max_atoms=6)
    cfg = flow.TrainConfig(epochs=3, batch_size=8, lr=2e-3)

    def run():
        params = flow.init_flow_params(spec, np.random.default_rng(31))
        trace = flow.train(data, params, spec, cfg, np.random.default_rng(32))
        return params, trace

    p1, t1 = run()
    p2, t2 = run()
    assert t1[-1] < t1[0]
    assert t1 == t2
    for name, tensor in p1.named_tensors().items():
        assert np.array_equal(tensor.data, p2.named_tensors()[name].data)
    for name, buf in p1.named_buffers().items():
        assert np.array_equal(buf, p2.named_buffers()[name])


def test_train_rejects_nonfinite_loss():
    spec = small_spec()
    data = molecules(33, 4, max_atoms=5)
    params = flow.init_flow_params(spec, np.random.default_rng(34))
    params.node_mu.b2.data[:] = np.nan
    before = {name: t.data.copy() for name, t in params.named_tensors().items()}
    with pytest.raises(FloatingPointError):
        flow.train(data, params, spec, flow.TrainConfig(epochs=1, batch_size=4), np.random.default_rng(35))
    for name, t in params.named_tensors().items():
        assert np.array_equal(t.data, before[name], equal_nan=True), name


def test_train_chunking_is_invisible(monkeypatch):
    # one graph per tape or TRAIN_CHUNK graphs per tape: each graph keeps
    # its own batch statistics, so only summation order differs
    spec = small_spec()
    data = molecules(36, 22, max_atoms=7)
    cfg = flow.TrainConfig(epochs=2, batch_size=10, lr=2e-3)

    def run():
        params = flow.init_flow_params(spec, np.random.default_rng(37))
        return params, flow.train(data, params, spec, cfg, np.random.default_rng(38))

    assert flow.TRAIN_CHUNK > 1
    packed, packed_trace = run()
    monkeypatch.setattr(flow, "TRAIN_CHUNK", 1)
    single, single_trace = run()
    assert np.allclose(packed_trace, single_trace, rtol=1e-12, atol=0.0)
    arrays = {name: t.data for name, t in packed.named_tensors().items()}
    arrays.update(packed.named_buffers())
    refs = {name: t.data for name, t in single.named_tensors().items()}
    refs.update(single.named_buffers())
    for name, value in arrays.items():
        assert np.abs(value - refs[name]).max() <= 1e-12 * np.abs(refs[name]).max(), name


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", 0),
        ("batch_size", 0),
        ("lr", 0.0),
        ("lr", -1e-3),
        ("lr", float("nan")),
        ("lr", float("inf")),
        ("beta1", 1.0),
        ("beta1", float("nan")),
        ("beta2", -0.1),
    ],
)
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        flow.TrainConfig(**{field: value})


def test_train_config_accepts_boundary_values():
    cfg = flow.TrainConfig(epochs=1, batch_size=1, lr=1e-12, beta1=0.0, beta2=0.0)
    assert (cfg.epochs, cfg.batch_size) == (1, 1)


def test_train_rejects_empty_dataset():
    spec = small_spec()
    params = flow.init_flow_params(spec, np.random.default_rng(40))
    with pytest.raises(ValueError, match="at least one graph"):
        flow.train([], params, spec, flow.TrainConfig(epochs=1), np.random.default_rng(41))


def test_train_rejects_graphs_larger_than_max_size():
    # the sampler can never emit a graph past max_size, so training on one
    # is a data error, raised before any update touches the parameters
    spec = small_spec(max_size=4)
    small = [m for m in molecules(36, 40, max_atoms=8) if m.n <= 4][:2]
    big = [m for m in molecules(37, 40, max_atoms=8) if m.n == 7][:2]
    assert len(small) == 2 and len(big) == 2
    params = flow.init_flow_params(spec, np.random.default_rng(38))
    before = {name: t.data.copy() for name, t in params.named_tensors().items()}
    with pytest.raises(GraphError, match="max_size"):
        flow.train(
            small + big, params, spec, flow.TrainConfig(epochs=1, batch_size=1),
            np.random.default_rng(39),
        )
    for name, t in params.named_tensors().items():
        assert np.array_equal(t.data, before[name])
