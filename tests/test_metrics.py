"""Metric oracles: exact isomorphism against brute-force permutation
search, counting rules for validity/uniqueness/novelty, hand-computed
graph statistics, and distribution-distance properties."""

import itertools
import tracemalloc

import numpy as np
import pytest

from graphflow import graph as G
from graphflow import metrics
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
    assert (q.validity, q.uniqueness, q.novelty) == (0.0, 0.0, 0.0)
    c = VOCAB.index("C")
    mol = _chain([c, c], [1])
    q = metrics.evaluate_set([mol], VOCAB, BONDS)  # no training set given
    assert q.num_unique == 1 and q.num_novel == 0


# ------------------------------------------------------ graph statistics


def test_degree_ignores_bond_multiplicity():
    c = VOCAB.index("C")
    g = _chain([c, c, c], [3, 1])  # triple then single
    assert metrics.degree_sequence(g).tolist() == [1, 2, 1]


def test_clustering_hand_values():
    tri = cycle_graph(3)
    assert np.allclose(metrics.clustering_coefficients(tri), [1.0, 1.0, 1.0])
    path = _chain([0, 0, 0], [1, 1])
    assert np.allclose(metrics.clustering_coefficients(path), [0.0, 0.0, 0.0])
    # K4 minus one edge: the two saturated nodes close 2 of 3 pairs
    cats = empty_categories(4, NO_EDGE)
    for a, b in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        cats[a, b] = cats[b, a] = 0
    g = MolecularGraph(np.zeros(4, dtype=np.int64), cats, NO_EDGE)
    assert np.allclose(metrics.clustering_coefficients(g), [1.0, 1.0, 2 / 3, 2 / 3])


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
