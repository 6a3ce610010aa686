"""Metric oracles: exact isomorphism against brute-force permutation
search, counting rules for validity/uniqueness/novelty, hand-computed
graph statistics, distribution-distance properties, and bitwise equality
with the per-element loops kept in oracle_ops."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import oracle_ops
import pytest

from graphflow import flow, metrics, sampler
from graphflow import graph as G
from graphflow.graph import MolecularGraph, empty_categories, relabel

VOCAB = G.default_atom_vocab()
BONDS = G.default_bond_vocab()
NO_EDGE = BONDS.no_edge


def brute_force_isomorphic(a, b):
    if a.n != b.n:
        return False
    for perm in itertools.permutations(range(a.n)):
        p = np.array(perm)
        if not np.array_equal(a.node_types[p], b.node_types):
            continue
        if np.array_equal(a.categories[np.ix_(p, p)], b.categories):
            return True
    return False


def random_graph(rng, n):
    types = rng.integers(0, VOCAB.size, size=n)
    cats = empty_categories(n, NO_EDGE)
    for i in range(1, n):
        for j in range(i):
            if rng.random() < 0.45:
                c = int(rng.integers(0, BONDS.num_bond_types))
                cats[i, j] = c
                cats[j, i] = c
    return MolecularGraph(types, cats, NO_EDGE)


def cycle_graph(n):
    cats = empty_categories(n, NO_EDGE)
    for i in range(n):
        j = (i + 1) % n
        cats[i, j] = 0  # single bonds around the ring
        cats[j, i] = 0
    return MolecularGraph(np.zeros(n, dtype=np.int64), cats, NO_EDGE)


# ----------------------------------------------------------- isomorphism


def test_isomorphism_matches_brute_force():
    rng = np.random.default_rng(0)
    agree = 0
    positives = 0
    for trial in range(150):
        n = int(rng.integers(2, 6))
        a = random_graph(rng, n)
        if trial % 3 == 0:
            # relabeled copy: must be isomorphic
            perm = rng.permutation(n)
            b = relabel(a, perm)
        else:
            b = random_graph(rng, n)
        want = brute_force_isomorphic(a, b)
        got = metrics.graphs_isomorphic(a, b)
        assert got == want
        agree += 1
        positives += int(want)
    assert agree == 150
    assert positives >= 50  # both outcomes exercised


def test_canonical_hash_is_permutation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n)
        h1 = metrics.canonical_hash(g)
        h2 = metrics.canonical_hash(relabel(g, rng.permutation(n)))
        assert h1 == h2


def test_isomorphism_respects_types_and_bond_orders():
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    a = MolecularGraph(np.array([0, 1]), cats, NO_EDGE)
    cats2 = cats.copy()
    cats2[0, 1] = cats2[1, 0] = 1  # same skeleton, different bond order
    b = MolecularGraph(np.array([0, 1]), cats2, NO_EDGE)
    c = MolecularGraph(np.array([0, 0]), cats, NO_EDGE)  # different types
    assert not metrics.graphs_isomorphic(a, b)
    assert not metrics.graphs_isomorphic(a, c)
    assert metrics.graphs_isomorphic(a, relabel(a, np.array([1, 0])))


def test_wl_collision_never_merges_distinct_graphs():
    # a hexagon and two disjoint triangles are both 2-regular with equal
    # atom types, so color refinement cannot separate them; the exact
    # stage must
    hexagon = cycle_graph(6)
    tri2 = empty_categories(6, NO_EDGE)
    for a, b in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
        tri2[a, b] = tri2[b, a] = 0
    triangles = MolecularGraph(np.zeros(6, dtype=np.int64), tri2, NO_EDGE)
    assert metrics.canonical_hash(hexagon) == metrics.canonical_hash(triangles)
    assert not metrics.graphs_isomorphic(hexagon, triangles)
    classes = metrics.IsoClasses()
    classes.class_of(hexagon)
    classes.class_of(triangles)
    assert classes.num_classes == 2
    assert hexagon in classes and triangles in classes
    assert cycle_graph(6) in classes
    assert cycle_graph(5) not in classes


def test_iso_classes_identity_is_stable():
    classes = metrics.IsoClasses()
    g = cycle_graph(4)
    key = classes.class_of(g)
    rng = np.random.default_rng(2)
    again = classes.class_of(relabel(g, rng.permutation(4)))
    assert again == key
    assert classes.num_classes == 1


# -------------------------------------------------------------- counting


def _chain(types, orders):
    n = len(types)
    cats = empty_categories(n, NO_EDGE)
    for i, order in enumerate(orders):
        c = BONDS.category_of(order)
        cats[i, i + 1] = cats[i + 1, i] = c
    return MolecularGraph(np.array(types), cats, NO_EDGE)


def test_evaluate_set_counts_by_hand():
    c, n, o = VOCAB.index("C"), VOCAB.index("N"), VOCAB.index("O")
    mol_a = _chain([c, o], [1])
    mol_a2 = relabel(mol_a, np.array([1, 0]))  # duplicate of mol_a
    mol_b = _chain([c, n], [1])
    # oxygen with three single bonds breaks its valence of two
    bad = MolecularGraph(
        np.array([o, c, c, c]),
        np.array(
            [
                [NO_EDGE, 0, 0, 0],
                [0, NO_EDGE, NO_EDGE, NO_EDGE],
                [0, NO_EDGE, NO_EDGE, NO_EDGE],
                [0, NO_EDGE, NO_EDGE, NO_EDGE],
            ]
        ),
        NO_EDGE,
    )
    q = metrics.evaluate_set([mol_a, mol_a2, mol_b, bad], VOCAB, BONDS, train_graphs=[mol_a])
    assert (q.num_samples, q.num_valid, q.num_unique, q.num_novel) == (4, 3, 2, 1)
    assert q.validity == pytest.approx(0.75)
    assert q.uniqueness == pytest.approx(2 / 3)
    assert q.novelty == pytest.approx(0.5)


def test_evaluate_set_edge_cases():
    q = metrics.evaluate_set([], VOCAB, BONDS)
    assert (q.validity, q.uniqueness) == (0.0, 0.0)
    assert q.num_novel is None and q.novelty is None  # nothing to compare with
    q = metrics.evaluate_set([], VOCAB, BONDS, train_graphs=[])
    assert (q.num_novel, q.novelty) == (0, 0.0)
    c = VOCAB.index("C")
    mol = _chain([c, c], [1])
    q = metrics.evaluate_set([mol], VOCAB, BONDS)  # no training set given
    assert q.num_unique == 1 and q.num_novel is None


def test_evaluation_reaches_traced_names_and_hashes_each_graph_once(monkeypatch):
    # the benchmark's generate workload traces these four names as metrics
    # calls them; evaluate_set computes each graph's WL labels and digest
    # once and passes them on, but every exact confirmation still goes
    # through graphs_isomorphic
    calls = Counter()
    hashed = Counter()

    def counting(name):
        original = getattr(metrics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "canonical_hash":
                hashed[id(args[0])] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics, name, wrapper)

    for name in ("canonical_hash", "graphs_isomorphic", "mmd_squared", "valency_ok"):
        counting(name)
    rng = np.random.default_rng(6)
    train = G.gen_synthetic_molecules(20, 7, VOCAB, BONDS, rng)
    fresh = G.gen_synthetic_molecules(10, 7, VOCAB, BONDS, rng)
    relabeled = [relabel(g, rng.permutation(g.n)) for g in train[:5] + fresh[:5]]
    samples = fresh + relabeled + [relabel(g, rng.permutation(g.n)) for g in fresh[:3]]
    q = metrics.evaluate_set(samples, VOCAB, BONDS, train_graphs=train)
    metrics.mmd_degree(samples, train)
    metrics.mmd_clustering(samples, train)
    assert q.num_valid == len(samples) and q.num_unique < q.num_valid
    assert q.num_novel < q.num_unique
    assert calls["valency_ok"] == len(samples)
    assert calls["mmd_squared"] == 2
    assert calls["graphs_isomorphic"] >= len(samples) - q.num_unique
    assert calls["canonical_hash"] == len(samples) + len(train)
    assert sorted(hashed) == sorted(map(id, samples + train))


# ------------------------------------------------------ graph statistics


def test_degree_ignores_bond_multiplicity():
    c = VOCAB.index("C")
    g = _chain([c, c, c], [3, 1])  # triple then single
    assert metrics.degree_sequence(g).tolist() == [1, 2, 1]


def test_clustering_hand_values():
    tri = cycle_graph(3)
    assert np.allclose(metrics.clustering_coefficients([tri])[0], [1.0, 1.0, 1.0])
    path = _chain([0, 0, 0], [1, 1])
    assert np.allclose(metrics.clustering_coefficients([path])[0], [0.0, 0.0, 0.0])
    # K4 minus one edge: the two saturated nodes close 2 of 3 pairs
    cats = empty_categories(4, NO_EDGE)
    for a, b in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        cats[a, b] = cats[b, a] = 0
    g = MolecularGraph(np.zeros(4, dtype=np.int64), cats, NO_EDGE)
    assert np.allclose(metrics.clustering_coefficients([g])[0], [1.0, 1.0, 2 / 3, 2 / 3])


def test_degree_histograms_hand_case():
    g = _chain([0, 0, 0], [1, 1])  # degrees 1, 2, 1
    h = metrics.degree_histograms([g], max_degree=3)
    assert np.allclose(h, [[0.0, 2 / 3, 1 / 3, 0.0]])
    # degrees above the cap collapse into the top bin
    capped = metrics.degree_histograms([g], max_degree=1)
    assert np.allclose(capped, [[0.0, 1.0]])


# ----------------------------------------------------------------- mmd


def test_mmd_squared_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.random((4, 3))
    y = rng.random((5, 3))
    x /= x.sum(axis=1, keepdims=True)
    y /= y.sum(axis=1, keepdims=True)
    sigma = 0.7

    def kern(u, v):
        tv = 0.5 * np.abs(u - v).sum()
        return np.exp(-(tv * tv) / (2.0 * sigma * sigma))

    sx = np.mean([kern(x[i], x[j]) for i in range(4) for j in range(4) if i != j])
    sy = np.mean([kern(y[i], y[j]) for i in range(5) for j in range(5) if i != j])
    sxy = np.mean([kern(a, b) for a in x for b in y])
    want = max(0.0, sx + sy - 2.0 * sxy)
    assert metrics.mmd_squared(x, y, sigma) == pytest.approx(want, abs=1e-12)


def test_mmd_self_is_zero_and_symmetric():
    rng = np.random.default_rng(4)
    graphs = G.gen_community_graphs(8, 3, 0.9, 0.1, rng)
    assert metrics.mmd_degree(graphs, graphs) == 0.0
    assert metrics.mmd_clustering(graphs, graphs) == 0.0
    other = G.gen_erdos_renyi(8, 6, 0.5, rng)
    ab = metrics.mmd_degree(graphs, other)
    ba = metrics.mmd_degree(other, graphs)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert ab >= 0.0


def test_mmd_orders_near_and_far_distributions():
    rng = np.random.default_rng(5)
    ref = G.gen_erdos_renyi(30, 8, 0.3, rng)
    near = G.gen_erdos_renyi(30, 8, 0.3, rng)
    far = G.gen_erdos_renyi(30, 8, 0.9, rng)
    assert metrics.mmd_degree(near, ref) < metrics.mmd_degree(far, ref)


def test_mmd_needs_two_samples_per_side():
    h = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        metrics.mmd_squared(h, np.array([[0.5, 0.5], [1.0, 0.0]]))


# -------------------------------------------------------------- reports


def test_mmd_clustering_memory_stays_per_row():
    # the kernel matrix is built one sample row at a time, never as a
    # (samples, reference, bins) difference array (16 MB here)
    samples = G.gen_synthetic_molecules(100, 9, VOCAB, BONDS, np.random.default_rng(0))
    reference = G.gen_synthetic_molecules(200, 9, VOCAB, BONDS, np.random.default_rng(1))
    tracemalloc.start()
    try:
        value = metrics.mmd_clustering(samples, reference)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 8 * 2**20


def test_mmd_memory_stays_per_row_when_every_row_is_distinct():
    # every histogram row distinct: the distinct-row kernel is the full one
    rng = np.random.default_rng(7)
    x = rng.random((100, 100))
    y = rng.random((200, 100))
    x /= x.sum(axis=1, keepdims=True)
    y /= y.sum(axis=1, keepdims=True)
    assert len({row.tobytes() for row in np.concatenate([x, y])}) == 300
    tracemalloc.start()
    try:
        value = metrics.mmd_squared(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 8 * 2**20


# ------------------------------------------------- bitwise against oracles


@pytest.fixture(scope="module")
def graph_sets():
    """Sampled molecules, plus community and Erdos-Renyi sets whose
    dense communities put clustering coefficients of exactly 1.0 in the
    closed last bin."""
    spec = flow.ModelSpec(width=8, layers=2, window=6, max_size=10)
    params = flow.init_flow_params(spec, np.random.default_rng(0), zero_init_heads=False)
    cfg = sampler.SamplerConfig(valency_check=True)
    sampled, _ = sampler.sample_batch(params, spec, cfg, count=40, seed=3)
    rng = np.random.default_rng(8)
    return {
        "sampled": sampled,
        "community": G.gen_community_graphs(30, 4, 0.9, 0.1, rng),
        "erdos_renyi": G.gen_erdos_renyi(30, 8, 0.4, rng),
        "complete": G.gen_erdos_renyi(3, 5, 1.0, rng),
    }


def test_wl_digests_match_oracle_bitwise(graph_sets):
    for graphs in graph_sets.values():
        for g in graphs:
            assert metrics.wl_labels(g) == oracle_ops.wl_labels(g)
            # the depth rl.graph_similarity uses
            assert metrics.wl_labels(g, rounds=2) == oracle_ops.wl_labels(g, rounds=2)
            assert metrics.canonical_hash(g) == oracle_ops.canonical_hash(g)


def test_histogram_rows_match_oracle_bitwise(graph_sets):
    ones = 0
    for graphs in graph_sets.values():
        seqs = [metrics.degree_sequence(g) for g in graphs]
        cap = max(int(s.max()) for s in seqs)
        for c in (cap, max(cap - 2, 0)):  # the second cap folds degrees into the top bin
            got = metrics.degree_histograms(graphs, max_degree=c)
            assert got.tobytes() == oracle_ops.degree_rows(seqs, c).tobytes()
        for bins in (100, 7):
            got = metrics.clustering_histograms(graphs, bins)
            assert got.tobytes() == oracle_ops.clustering_histograms(graphs, bins).tobytes()
        coeffs = metrics.clustering_coefficients(graphs)
        for g, c in zip(graphs, coeffs):
            assert c.tobytes() == oracle_ops.clustering_coefficients(g).tobytes()
        ones += sum(int((c == 1.0).sum()) for c in coeffs)
    assert ones > 0


def test_clustering_bins_follow_np_histogram(monkeypatch):
    # values on every edge, just either side of one, 1.0 in the closed last
    # bin, and values outside [0, 1] that np.histogram drops; a row left
    # with no counts is uniform
    edges = np.linspace(0.0, 1.0, 8)
    values = [
        edges,
        np.nextafter(edges, 2.0),
        np.nextafter(edges, -1.0),
        np.array([1.0, 1.0, 0.0]),
        np.array([-0.5, 0.25, 1.5]),
        np.array([-0.5, 1.5]),
    ]
    graphs = [cycle_graph(3) for _ in values]
    lookup = {id(g): v for g, v in zip(graphs, values)}
    monkeypatch.setattr(metrics, "clustering_coefficients", lambda gs: [lookup[id(g)] for g in gs])
    monkeypatch.setattr(oracle_ops, "clustering_coefficients", lambda g: lookup[id(g)])
    got = metrics.clustering_histograms(graphs, bins=7)
    assert got.tobytes() == oracle_ops.clustering_histograms(graphs, bins=7).tobytes()
    assert got[-1].tolist() == [1.0 / 7] * 7


def test_mmd_matches_oracle_bitwise(graph_sets):
    sets = list(graph_sets.values())
    positive = 0
    for a, b in itertools.permutations(sets, 2):
        for name in ("mmd_degree", "mmd_clustering"):
            got = getattr(metrics, name)(a, b)
            assert got == getattr(oracle_ops, name)(a, b)
            positive += got > 0.0
    assert positive >= 10


def test_mmd_squared_matches_oracle_on_identical_and_distinct_rows():
    rng = np.random.default_rng(9)
    distinct = rng.random((30, 12))
    distinct /= distinct.sum(axis=1, keepdims=True)
    other = rng.random((20, 12)) ** 4  # a different distribution: the MMD stays positive
    other /= other.sum(axis=1, keepdims=True)
    same_x = np.tile(distinct[0], (25, 1))
    same_y = np.tile(other[0], (15, 1))
    mixed = np.concatenate([distinct[:5], same_x[:10], other[:5]])
    for x, y in [(distinct, other), (same_x, same_y), (same_x, distinct), (mixed, other),
                 (mixed, same_y)]:
        for sigma in (1.0, 0.3):
            got = metrics.mmd_squared(x, y, sigma)
            assert got > 0.0
            assert got == oracle_ops.mmd_squared(x, y, sigma)


def test_report_formats():
    q = metrics.SampleQuality(num_samples=4, num_valid=3, num_unique=2, num_novel=1)
    rep = metrics.GenerationReport(quality=q, mmd={"degree": 0.25})
    text = rep.as_text()
    assert text.endswith("\n")
    assert "validity = 0.750000" in text
    assert "mmd_degree = 0.25" in text
    csv = rep.as_csv()
    head, body = csv.strip().splitlines()
    assert head.split(",")[0] == "num_samples"
    assert body.split(",")[0] == "4"
    assert len(head.split(",")) == len(body.split(","))
    assert "novelty = 0.500000" in text and "novelty" in head.split(",")
    # novelty not measured: no line and no column, rather than a zero
    q.num_novel = None
    rep = metrics.GenerationReport(quality=q)
    assert "novelty" not in rep.as_text()
    assert "novelty" not in rep.as_csv()
