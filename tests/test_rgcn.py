"""Encoder behavior: stacked-vs-sequential equality, masking semantics,
batch-norm modes, and information flow."""

import numpy as np
import pytest

from graphflow import autodiff as ad
from graphflow import graph as G
from graphflow import rgcn
from graphflow.autodiff import BatchNormState
from graphflow.graph import GraphError, MolecularGraph, empty_categories
from oracle_ops import mul, sub, tensor_sum, weighted_sum

VOCAB = G.default_atom_vocab()
BONDS = G.default_bond_vocab()
NO_EDGE = BONDS.no_edge


def make_params(width=8, layers=2, seed=0):
    return rgcn.init_rgcn_params(
        VOCAB.size, width, layers, BONDS.categories, np.random.default_rng(seed)
    )


def molecule(seed=0, count=1, max_atoms=8):
    mols = G.gen_synthetic_molecules(count, max_atoms, VOCAB, BONDS, np.random.default_rng(seed))
    return [G.bfs_reorder(m, 0)[0] for m in mols]


def test_rejects_category_mismatch():
    params = rgcn.init_rgcn_params(VOCAB.size, 8, 2, 3, np.random.default_rng(0))
    g = molecule(1)[0]
    with pytest.raises(GraphError):
        rgcn.encode(g, [("node", g.n)], params)


def test_stacked_matches_sequential_eval_mode():
    params = make_params()
    for g in molecule(2, count=5):
        if g.n < 2:
            continue
        steps = []
        for i in range(1, g.n):
            steps.append(("node", i))
            for j in range(max(0, i - 11), i):
                steps.append(("edge", i, j))
        stacked = rgcn.encode_step_batch(g, steps, params, training=False)
        for s, step in enumerate(steps):
            if step[0] == "node":
                sub = MolecularGraph(
                    g.node_types[: step[1]],
                    g.categories[: step[1], : step[1]],
                    NO_EDGE,
                )
                single = rgcn.encode(sub, [step], params)
            else:
                _, i, j = step
                cats = g.categories[: i + 1, : i + 1].copy()
                cats[i, :] = NO_EDGE
                cats[:, i] = NO_EDGE
                cats[i, :j] = g.categories[i, :j]
                cats[:j, i] = g.categories[i, :j]
                sub = MolecularGraph(g.node_types[: i + 1], cats, NO_EDGE)
                single = rgcn.encode(sub, [step], params)
            got = stacked.graph_embedding.data[s]
            assert np.allclose(got, single.graph_embedding.data, atol=1e-11)


def test_masked_rows_are_zero_and_ignored():
    params = make_params()
    g = molecule(3, max_atoms=7)[0]
    steps = [("node", 1), ("node", g.n)]
    out = rgcn.encode_step_batch(g, steps, params, training=False)
    # step 0 sees only node 0; all later rows are masked to zero
    assert np.array_equal(out.H.data[0, 1:], np.zeros_like(out.H.data[0, 1:]))


def test_future_nodes_cannot_influence_prefix_embedding():
    params = make_params()
    g = molecule(5, max_atoms=7)[0]
    assert g.n >= 4
    m = 3
    full = rgcn.encode_step_batch(g, [("node", m)], params, training=False)
    # chop the graph to the prefix and encode that directly
    sub = MolecularGraph(g.node_types[:m], g.categories[:m, :m], NO_EDGE)
    alone = rgcn.encode(sub, [("node", m)], params)
    assert np.allclose(full.graph_embedding.data[0], alone.graph_embedding.data, atol=1e-11)
    # changing a future node's type must not move the prefix embedding
    mutated = g.copy()
    mutated.node_types[m] = (mutated.node_types[m] + 1) % VOCAB.size
    moved = rgcn.encode_step_batch(mutated, [("node", m)], params, training=False)
    assert np.array_equal(full.graph_embedding.data[0], moved.graph_embedding.data[0])


def test_undecided_slots_absent_from_every_relation():
    # an undecided slot is dropped from all relation slices, including the
    # no-edge relation; a pair decided as no-edge stays in that slice, so
    # the two states are distinguishable
    params = make_params()
    cats = empty_categories(3, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    cats[0, 2] = cats[2, 0] = 1
    g = MolecularGraph(np.array([0, 1, 2]), cats, NO_EDGE)
    keep = rgcn._step_layout(3, (("edge", 2, 0),))[0][0]
    masked = rgcn._one_hot_adjacency(g.categories, g.no_edge + 1) & keep
    assert np.array_equal(masked[:, 2, :], np.zeros((BONDS.categories, 3)))
    assert np.array_equal(masked[:, :, 2], np.zeros((BONDS.categories, 3)))
    undecided = rgcn.encode(g, [("edge", 2, 0)], params)
    cleared = empty_categories(3, NO_EDGE)
    cleared[0, 1] = cleared[1, 0] = 0
    decided = rgcn.encode(MolecularGraph(g.node_types, cleared, NO_EDGE), [("node", 3)], params)
    gap = np.abs(undecided.graph_embedding.data - decided.graph_embedding.data).max()
    assert gap > 1e-8
    # once slot (2, 0) is inside the decided range the states must differ
    after = rgcn.encode(g, [("edge", 2, 1)], params)
    gap = np.abs(after.graph_embedding.data - undecided.graph_embedding.data).max()
    assert gap > 1e-8


def test_stacked_steps_equal_one_step_calls_bitwise():
    # the sampler's per-node stack: one call over the states of a row's
    # slots and the next node's, each row bitwise the call with that step
    # alone, at widths where BLAS blocks the products differently
    for width, layers in ((8, 2), (32, 3)):
        params = make_params(width=width, layers=layers, seed=width)
        rng = np.random.default_rng(width)
        params.bn_state.running_mean = rng.normal(size=width)
        params.bn_state.running_var = rng.uniform(0.5, 2.0, size=width)
        for g in molecule(width, count=4, max_atoms=12):
            for i in range(g.n):
                steps = [("edge", i, j) for j in range(max(0, i - 5), i)] + [("node", i + 1)]
                stacked = rgcn.encode(g.prefix(i + 1), steps, params)
                assert stacked.H.data.shape == (len(steps), i + 1, width)
                for row, step in enumerate(steps):
                    one = rgcn.encode(g.prefix(i + 1), [step], params)
                    assert np.array_equal(stacked.H.data[row], one.H.data[0])
                    pooled = one.graph_embedding.data[0]
                    assert np.array_equal(stacked.graph_embedding.data[row], pooled)
            whole = rgcn.encode(g, [("node", g.n)], params)  # the fully decided row alone
            last = rgcn.encode(g, [("edge", g.n - 1, 0), ("node", g.n)], params)
            assert np.array_equal(last.H.data[-1], whole.H.data[0])


def test_encode_rejects_states_of_another_size():
    # every state of one encode call holds exactly the given prefix's nodes
    params = make_params()
    g = molecule(3, max_atoms=7)[0]
    assert g.n >= 3
    n = g.n
    for steps in (
        [("node", n - 1)],
        [("edge", n - 2, 0)],
        [("edge", n - 1, 0), ("node", n - 1)],
        [("node", n + 1)],
        [("edge", n, 0)],
    ):
        with pytest.raises(ValueError, match="exactly"):
            rgcn.encode(g, steps, params)


def test_train_mode_embeddings_distinguish_same_size_states():
    # regression: per-slice statistics once collapsed every pooled slice
    # embedding onto count * beta, so same-count steps of one stack were
    # indistinguishable to the heads no matter what bonds they contained
    params = make_params(width=16)
    cats = empty_categories(4, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    cats[1, 2] = cats[2, 1] = 1
    cats[2, 3] = cats[3, 2] = 0
    g = MolecularGraph(np.array([0, 1, 2, 0]), cats, NO_EDGE)
    steps = [("edge", 2, 0), ("edge", 2, 1), ("edge", 3, 0), ("edge", 3, 2)]
    out = rgcn.encode_step_batch(g, steps, params, training=True)
    emb = out.graph_embedding.data
    # (edge, 2, 0) and (edge, 2, 1) both see 3 nodes but different bonds
    assert np.abs(emb[0] - emb[1]).max() > 1e-6
    # (edge, 3, 0) and (edge, 3, 2) both see 4 nodes but different bonds
    assert np.abs(emb[2] - emb[3]).max() > 1e-6


def test_train_mode_stack_shares_one_statistics_pair():
    # every unmasked row of the stack is normalized by the same mean/var,
    # so pooling different slices can produce different embeddings even
    # when their raw features agree after centering per slice
    params = make_params()
    g = molecule(5, max_atoms=6)[0]
    if g.n < 3:
        pytest.skip("drew a tiny molecule")
    steps = [("node", i) for i in range(1, g.n + 1)]
    out = rgcn.encode_step_batch(g, steps, params, training=True)
    mask = rgcn.build_step_masks(g.categories, steps, g.no_edge + 1)[1][:, :, 0] > 0
    rows = out.H.data[mask]
    state = params.rgcn_state if hasattr(params, "rgcn_state") else params.bn_state
    # un-normalize: rows = (x - m)/s * gamma + beta over one shared (m, s)
    gamma = params.bn_gamma.data
    beta = params.bn_beta.data
    x = (rows - beta) / gamma
    # shared statistics means the unmasked normalized rows average to zero
    assert np.allclose(x.mean(axis=0), 0.0, atol=1e-10)


def test_running_buffers_update_in_train_and_freeze_in_eval():
    params = make_params()
    g = molecule(6)[0]
    before_mean = params.bn_state.running_mean.copy()
    rgcn.encode(g, [("node", g.n)], params)
    assert np.array_equal(params.bn_state.running_mean, before_mean)
    rgcn.encode_step_batch(g, [("node", g.n)], params, training=True)
    assert not np.array_equal(params.bn_state.running_mean, before_mean)


def _reference_eval_encode(g, params, undecided_row=None):
    # one state in evaluation mode, relation by relation: the adjacency
    # slices built entry by entry, then each layer's per-relation products
    # summed in relation order
    n, k = g.n, params.width
    adj = np.zeros((params.num_relations, n, n))
    for r in range(params.num_relations):
        for i in range(n):
            for j in range(n):
                adj[r, i, j] = float(i != j and g.categories[i, j] == r)
    if undecided_row is not None:
        i, lim = undecided_row
        adj[:, i, lim:] = 0.0
        adj[:, lim:, i] = 0.0
    tilde = adj + np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(tilde.sum(axis=-1))
    norm_adj = tilde * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    x = np.zeros((n, params.feature_dim))
    x[np.arange(n), g.node_types] = 1.0
    h = x @ params.embed.data
    for layer in params.layers:
        assert layer.data.shape == (params.num_relations, k, k)
        acc = None
        for r in range(params.num_relations):
            msg = np.maximum((norm_adj[r] @ h) @ layer.data[r], 0.0)
            acc = msg if acc is None else acc + msg
        h = acc * (1.0 / params.num_relations)
    state = params.bn_state
    out = (h - state.running_mean) / np.sqrt(state.running_var + ad.BN_EPS)
    return out * params.bn_gamma.data + params.bn_beta.data


def test_eval_encode_matches_per_relation_loop_bitwise():
    params = make_params(width=8, layers=3, seed=6)
    rng = np.random.default_rng(1)
    params.bn_state.running_mean = rng.normal(size=8)
    params.bn_state.running_var = rng.uniform(0.5, 2.0, size=8)
    params.bn_gamma.data = rng.normal(size=8)
    params.bn_beta.data = rng.normal(size=8)
    for g in molecule(9, count=4, max_atoms=8):
        for step, undecided in (
            (("node", g.n), None),
            (("edge", g.n - 1, g.n // 2), (g.n - 1, g.n // 2)),
        ):
            out = rgcn.encode(g, [step], params)
            expected = _reference_eval_encode(g, params, undecided)
            assert np.array_equal(out.H.data[0], expected)
            assert np.array_equal(out.graph_embedding.data[0], expected.sum(axis=-2))


def test_each_layer_records_one_node_per_op():
    # a layer's relation weights are one leaf and the layer is one fused
    # node: under a tape each layer adds exactly one node, and nothing to
    # assemble its weights; the placement of the group outputs in step
    # order is one node, training-mode batch norm, which also zeroes the
    # masked rows, is one node, and the readout follows it
    g = molecule(4, max_atoms=6)[0]
    steps = [("node", i) for i in range(1, g.n + 1)]
    nodes = []
    for layers in (1, 2, 3):
        params = make_params(layers=layers)
        with ad.Tape() as tape:
            rgcn.encode_step_batch(g, steps, params, training=True)
        nodes.append(len(tape.nodes))
        ops = [back.__qualname__.split(".")[0] for _, _, back in tape.nodes]
        assert ops == (
            ["_embed"] + ["_relation_layer"] * layers + ["_place", "batch_norm", "_readout"]
        )
    assert np.diff(nodes).tolist() == [1, 1]


def test_gradient_through_stacked_encoder():
    params = make_params(width=6, layers=2, seed=3)
    g = molecule(7, max_atoms=5)[0]
    steps = [("node", i) for i in range(1, g.n + 1)]
    named = params.named_tensors()
    target = np.random.default_rng(0).normal(size=(len(steps), 6))

    def f():
        out = rgcn.encode_step_batch(g, steps, params, training=True)
        diff = sub(out.graph_embedding, target)
        return tensor_sum(mul(diff, diff))

    assert ad.grad_check(f, named, h=1e-5) < 1e-5


def test_prefix_batch_matches_single_encodes():
    params = make_params()
    g = molecule(8, max_atoms=7)[0]
    sizes = list(range(1, g.n + 1))
    batch = rgcn.encode_step_batch(g, [("node", m) for m in sizes], params, training=False)
    for s, m in enumerate(sizes):
        sub = MolecularGraph(g.node_types[:m], g.categories[:m, :m], NO_EDGE)
        single = rgcn.encode(sub, [("node", m)], params)
        assert np.allclose(
            batch.graph_embedding.data[s], single.graph_embedding.data, atol=1e-11
        )


def test_degree_normalization_row_sums():
    # normalized adjacency of a single relation: D^-1/2 (A + I) D^-1/2
    cats = empty_categories(3, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    g = MolecularGraph(np.array([0, 0, 0]), cats, NO_EDGE)
    one_hot = rgcn._one_hot_adjacency(g.categories, g.no_edge + 1)
    norm = rgcn._normalized_adjacency(one_hot)
    a = norm[0]
    # nodes 0 and 1 have degree 2 after the self loop, node 2 degree 1
    assert np.isclose(a[0, 0], 0.5)
    assert np.isclose(a[0, 1], 0.5)
    assert np.isclose(a[2, 2], 1.0)
    assert a[0, 2] == 0.0


def test_one_hot_adjacency_matches_per_category_loop():
    # reference: one boolean slice per category, diagonal left empty
    g = molecule(9, max_atoms=8)[0]
    expect = np.zeros((NO_EDGE + 1, g.n, g.n))
    for c in range(NO_EDGE + 1):
        expect[c][(g.categories == c) & ~np.eye(g.n, dtype=bool)] = 1.0
    assert np.array_equal(rgcn._one_hot_adjacency(g.categories, g.no_edge + 1), expect)


def _all_steps(g, window=11):
    steps = []
    for i in range(1, g.n):
        steps.append(("node", i))
        for j in range(max(0, i - window), i):
            steps.append(("edge", i, j))
    steps.append(("node", g.n))
    return steps


def _step_masks_loop(g, steps):
    # the step-by-step mask build that build_step_masks caches: its oracle
    n, s_count = g.n, len(steps)
    prefix = np.empty(s_count, dtype=np.int64)
    row = np.full(s_count, -1, dtype=np.int64)
    lim = np.zeros(s_count, dtype=np.int64)
    total = np.empty(s_count, dtype=np.int64)
    for s, step in enumerate(steps):
        if step[0] == "node":
            prefix[s] = total[s] = step[1]
        else:
            _, i, j = step
            prefix[s], row[s], lim[s], total[s] = i, i, j, i + 1
    idx = np.arange(n)
    in_prefix = idx[None, :] < prefix[:, None]
    keep = in_prefix[:, :, None] & in_prefix[:, None, :]
    row_hit = idx[None, :] == row[:, None]
    below = idx[None, :] < lim[:, None]
    keep |= row_hit[:, :, None] & below[:, None, :]
    keep |= row_hit[:, None, :] & below[:, :, None]
    masked = rgcn._one_hot_adjacency(g.categories, g.no_edge + 1)[None, :, :, :] * keep[:, None, :, :]
    node_mask = (idx[None, :] < total[:, None]).astype(np.float64)
    return rgcn._normalized_adjacency(masked), node_mask[:, :, None]


@pytest.mark.parametrize("seed", range(4))
def test_step_masks_match_step_loop_bitwise(seed):
    rng = np.random.default_rng(seed)
    graphs = molecule(20 + seed, count=6, max_atoms=9)
    by_size = {}
    for g in graphs:  # graphs of one size share cached layouts
        by_size.setdefault(g.n, []).append(g)
    for g in graphs + [g for same in by_size.values() for g in same[1:]]:
        full = _all_steps(g, window=int(rng.integers(1, 12)))
        picked = np.sort(rng.choice(len(full), size=int(rng.integers(1, len(full) + 1)), replace=False))
        cases = [[full[p] for p in picked], [("node", 0)], *([step] for step in full)]
        for steps in cases:
            for _ in range(2):  # a fresh layout, then the cached one
                got = rgcn.build_step_masks(g.categories, steps, g.no_edge + 1)
                for a, b in zip(got, _step_masks_loop(g, steps)):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                    assert not a.flags.writeable


@pytest.mark.parametrize("window", [2, 12])
def test_stacked_prefixes_match_full_graph_blocks_bitwise(window):
    # states in their own frame: an (S, m, m) stack of the first m nodes
    # of several graphs, interleaved, gives bitwise the [:m, :m] blocks of
    # one call per graph on its whole matrix, for every state of m nodes
    # a plan holds, under a window that binds (2) and one that does not
    graphs = [g for g in molecule(31, count=12, max_atoms=9) if g.n >= 6][:4]
    assert len(graphs) >= 3
    for m in range(1, min(g.n for g in graphs) + 1):
        shapes = [("node", m)] + [("edge", m - 1, j) for j in range(max(0, m - 1 - window), m - 1)]
        cases = [(g, step) for g in graphs for step in shapes]
        order = np.random.default_rng(m).permutation(len(cases))
        stack = np.stack([cases[c][0].categories[:m, :m] for c in order])
        adj, mask = rgcn.build_step_masks(stack, [cases[c][1] for c in order], NO_EDGE + 1)
        assert adj.shape == (len(cases), NO_EDGE + 1, m, m) and not adj.flags.writeable
        for g in graphs:
            full_adj, full_mask = rgcn.build_step_masks(g.categories, shapes, NO_EDGE + 1)
            for s, c in enumerate(order):
                if cases[c][0] is g:
                    t = shapes.index(cases[c][1])
                    assert np.array_equal(adj[s], full_adj[t, :, :m, :m])
                    assert np.array_equal(mask[s], full_mask[t, :m])


def test_multi_graph_rows_match_single_graph_rows():
    # states of several graphs, interleaved, in one evaluation-mode call
    params = make_params(width=8, layers=3, seed=4)
    graphs = [g for g in molecule(11, count=6, max_atoms=9) if g.n >= 2]
    assert len(graphs) >= 3
    owners, steps = [], []
    for g in graphs:
        for step in _all_steps(g):
            owners.append(g)
            steps.append(step)
    shuffle = np.random.default_rng(0).permutation(len(steps))
    owners = [owners[s] for s in shuffle]
    steps = [steps[s] for s in shuffle]
    packed = rgcn.encode_step_batch(owners, steps, params)
    n = max(g.n for g in graphs)
    assert packed.H.shape == (len(steps), n, params.width)
    assert packed.graph_embedding.shape == (len(steps), params.width)
    for g in graphs:
        rows = [s for s, owner in enumerate(owners) if owner is g]
        single = rgcn.encode_step_batch(g, [steps[s] for s in rows], params)
        for r, s in enumerate(rows):
            assert np.abs(packed.graph_embedding.data[s] - single.graph_embedding.data[r]).max() < 1e-12
            assert np.abs(packed.H.data[s, : g.n] - single.H.data[r]).max() < 1e-12
            assert not packed.H.data[s, g.n :].any()
    with pytest.raises(ValueError):
        rgcn.encode_step_batch(owners[:-1], steps, params)
    with pytest.raises(ValueError, match="more nodes than its graph"):
        rgcn.encode_step_batch(graphs[0], [("node", graphs[0].n + 1)], params)


def _reference_training_stack(g, steps, params):
    # the per-relation layer loop and masked batch statistics, written
    # out in numpy in the order the encoder evaluates them
    norm_adj, mask = rgcn.build_step_masks(g.categories, steps, g.no_edge + 1)
    x = np.zeros((g.n, params.feature_dim))
    x[np.arange(g.n), g.node_types] = 1.0
    h = (x * mask) @ params.embed.data
    for layer in params.layers:
        acc = None
        for r, w in enumerate(layer.data):
            msg = np.maximum((norm_adj[:, r] @ h) @ w, 0.0)
            acc = msg if acc is None else acc + msg
        h = acc * (1.0 / params.num_relations)
    inv_total = 1.0 / mask.sum()
    mean = (h * mask).sum(axis=(0, 1), keepdims=True) * inv_total
    centered = h - mean
    var = (centered * centered * mask).sum(axis=(0, 1), keepdims=True) * inv_total
    scale = params.bn_gamma.data / np.sqrt(var + ad.BN_EPS)
    out = (centered * scale + params.bn_beta.data) * mask
    return out, mean.reshape(-1), var.reshape(-1)


def test_one_graph_training_stack_is_unchanged():
    g = molecule(12, max_atoms=8)[0]
    steps = _all_steps(g)
    ref_params = make_params(width=8, layers=2, seed=5)
    expected, mean, var = _reference_training_stack(g, steps, ref_params)
    for owners in (g, [g] * len(steps)):
        params = make_params(width=8, layers=2, seed=5)
        out = rgcn.encode_step_batch(owners, steps, params, training=True)
        assert np.array_equal(out.H.data, expected)
        assert np.array_equal(out.graph_embedding.data, expected.sum(axis=-2))
        fresh = BatchNormState.fresh(params.width)
        fresh.update(mean, var)
        assert np.array_equal(params.bn_state.running_mean, fresh.running_mean)
        assert np.array_equal(params.bn_state.running_var, fresh.running_var)


def _training_pack_cases():
    # two graphs of equal size, a single-atom graph whose only state is the
    # empty prefix, and an equal copy of the first graph, each with its
    # steps as one consecutive run
    mols = molecule(13, count=40, max_atoms=7)
    a = next(g for g in mols if g.n >= 4)
    b = next(g for g in mols if g.n == a.n and g is not a)
    single = MolecularGraph(a.node_types[:1], a.categories[:1, :1], NO_EDGE)
    graphs = [a, b, single, a.copy()]
    runs = [[("node", 0)] + _all_steps(g) if g.n > 1 else [("node", 0)] for g in graphs]
    owners = [g for g, run in zip(graphs, runs) for _ in run]
    return graphs, runs, owners, [step for run in runs for step in run]


def test_training_pack_of_several_graphs_matches_one_graph_stacks():
    # every graph, the equal copy too, is normalized with its own batch
    # statistics: its H rows and embeddings are bitwise those of its
    # one-graph stack, and the running buffers fold once per graph, in
    # graph order
    graphs, runs, owners, steps = _training_pack_cases()
    params = make_params(width=8, layers=2, seed=5)
    pack = rgcn.pack_step_batch(owners, steps, params, training=True)
    assert len(pack.groups) == 1  # the single-atom graph adds no rows
    assert len(pack.segments) == 3
    out = rgcn.encode_step_batch(owners, steps, params, training=True, pack=pack)
    ref_params = make_params(width=8, layers=2, seed=5)
    lo = 0
    for g, run in zip(graphs, runs):
        ref = rgcn.encode_step_batch(g, run, ref_params, training=True)
        rows, m = slice(lo, lo + len(run)), ref.H.data.shape[1]
        lo += len(run)
        assert np.array_equal(out.H.data[rows, :m], ref.H.data)
        assert not out.H.data[rows, m:].any()
        assert np.array_equal(out.graph_embedding.data[rows], ref.graph_embedding.data)
    assert np.array_equal(params.bn_state.running_mean, ref_params.bn_state.running_mean)
    assert np.array_equal(params.bn_state.running_var, ref_params.bn_state.running_var)


def test_training_pack_gradients_are_the_sum_of_one_graph_tapes():
    # the per-graph closed-form batch-norm backward: one tape over the
    # pack gives the gradients of one tape per graph, summed
    graphs, runs, owners, steps = _training_pack_cases()
    params = make_params(width=8, layers=2, seed=5)
    named = params.named_tensors()
    target = np.random.default_rng(0).normal(size=(len(steps), params.width))

    def packed():
        out = rgcn.encode_step_batch(owners, steps, params, training=True)
        return weighted_sum(out.graph_embedding, target)

    def per_graph(g, run, rows):
        def loss():
            out = rgcn.encode_step_batch(g, run, params, training=True)
            return weighted_sum(out.graph_embedding, target[rows])
        return loss

    bounds = np.cumsum([0] + [len(run) for run in runs])
    losses = [per_graph(g, run, slice(lo, hi)) for g, run, lo, hi in zip(graphs, runs, bounds, bounds[1:])]
    ref, _ = ad.accumulate_grads(named, losses)
    grads, _ = ad.accumulate_grads(named, [packed])
    for name, g in grads.items():
        assert np.abs(g - ref[name]).max() <= 1e-12 * np.abs(ref[name]).max(), name


def test_training_mode_needs_each_graphs_states_together():
    params = make_params()
    a, b = molecule(13, count=2, max_atoms=6)
    before = params.bn_state.running_mean.copy()
    with pytest.raises(ValueError, match="consecutive"):
        rgcn.encode_step_batch(
            [a, b, a], [("node", 1), ("node", b.n), ("node", a.n)], params, training=True
        )
    assert np.array_equal(params.bn_state.running_mean, before)


def test_encode_step_batch_rejects_empty_steps():
    params = make_params()
    g = molecule(14)[0]
    for training in (False, True):
        for owners in (g, []):
            with pytest.raises(ValueError, match="no steps given"):
                rgcn.encode_step_batch(owners, [], params, training=training)
    with pytest.raises(ValueError, match="no steps given"):
        rgcn.pack_step_batch(g, [], params)


def test_stored_pack_matches_fresh_pass_bitwise():
    # mixed-size states of several graphs: a pass over a pack built
    # before the weights moved equals a pass that packs afresh
    params = make_params(width=8, layers=3, seed=6)
    graphs = [g for g in molecule(15, count=5, max_atoms=9) if g.n >= 2]
    assert len(graphs) >= 3
    owners, steps = [], []
    for g in graphs:
        for step in _all_steps(g, window=3):
            owners.append(g)
            steps.append(step)
    shuffle = np.random.default_rng(1).permutation(len(steps))
    owners = [owners[s] for s in shuffle]
    steps = [steps[s] for s in shuffle]
    pack = rgcn.pack_step_batch(owners, steps, params)
    assert len(pack.groups) > 1
    for shift in (0.0, 0.3):
        for w in params.layers:
            w.data += shift
        params.embed.data *= 1.0 + shift
        stored = rgcn.encode_step_batch(owners, steps, params, pack=pack)
        fresh = rgcn.encode_step_batch(owners, steps, params)
        assert np.array_equal(stored.H.data, fresh.H.data)
        assert np.array_equal(stored.graph_embedding.data, fresh.graph_embedding.data)
    with pytest.raises(ValueError):
        rgcn.encode_step_batch(owners[:-1], steps[:-1], params, pack=pack)
    with pytest.raises(ValueError):
        rgcn.encode_step_batch(owners, steps[::-1], params, pack=pack)
    with pytest.raises(ValueError):
        rgcn.encode_step_batch(graphs[0], _all_steps(graphs[0]), params, training=True, pack=pack)
    # a pack handed in the other mode, for the very steps it was built for
    with pytest.raises(ValueError, match="other mode"):
        rgcn.encode_step_batch(owners, steps, params, training=True, pack=pack)
    g = graphs[0]
    train_pack = rgcn.pack_step_batch(g, _all_steps(g), params, training=True)
    with pytest.raises(ValueError, match="other mode"):
        rgcn.encode_step_batch(g, _all_steps(g), params, pack=train_pack)


def test_empty_prefix_is_a_zero_state_in_both_modes():
    # ("node", 0) first and in the middle of a shuffled list: its rows are
    # zero, and the other states' rows (in training mode also the batch
    # statistics) are bitwise those of the same list without it
    graphs = [g for g in molecule(16, count=4, max_atoms=8) if g.n >= 2]
    assert len(graphs) >= 3
    owners, steps = [], []
    for g in graphs:
        for step in _all_steps(g, window=4):
            owners.append(g)
            steps.append(step)
    shuffle = np.random.default_rng(2).permutation(len(steps))
    cases = [([owners[s] for s in shuffle], [steps[s] for s in shuffle], False)]
    g = graphs[0]
    one = _all_steps(g, window=4)
    one = [one[s] for s in np.random.default_rng(3).permutation(len(one))]
    cases.append(([g] * len(one), one, True))
    for owners, steps, training in cases:
        mid = len(steps) // 2
        with_empty = (
            [owners[0]] + owners[:mid] + [owners[-1]] + owners[mid:],
            [("node", 0)] + steps[:mid] + [("node", 0)] + steps[mid:],
        )
        kept = [s for s, step in enumerate(with_empty[1]) if step != ("node", 0)]
        params = make_params(width=8, layers=2, seed=7)
        out = rgcn.encode_step_batch(*with_empty, params, training=training)
        stats = params.bn_state.running_mean.copy(), params.bn_state.running_var.copy()
        params = make_params(width=8, layers=2, seed=7)
        ref = rgcn.encode_step_batch(owners, steps, params, training=training)
        for s in (0, mid + 1):
            assert np.array_equal(out.graph_embedding.data[s], np.zeros(params.width))
            assert not out.H.data[s].any()
        assert np.array_equal(out.graph_embedding.data[kept], ref.graph_embedding.data)
        assert np.array_equal(out.H.data[kept], ref.H.data)
        assert np.array_equal(stats[0], params.bn_state.running_mean)
        assert np.array_equal(stats[1], params.bn_state.running_var)
    # a single-atom graph's training stack holds the empty prefix alone: it
    # has no row to take batch statistics over, so none move
    params = make_params(width=8, layers=2, seed=7)
    before = params.bn_state.running_mean.copy(), params.bn_state.running_var.copy()
    out = rgcn.encode_step_batch(g, [("node", 0)], params, training=True)
    assert np.array_equal(out.graph_embedding.data, np.zeros((1, params.width)))
    assert not out.H.data.any()
    assert np.array_equal(before[0], params.bn_state.running_mean)
    assert np.array_equal(before[1], params.bn_state.running_var)
