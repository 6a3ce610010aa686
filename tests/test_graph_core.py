"""Graph container, ordering, dequantization, valency rules, generators,
and the MOLT text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphflow import graph as G
from graphflow import molt
from graphflow.graph import (
    AtomVocab,
    BondVocab,
    GraphError,
    MolecularGraph,
    empty_categories,
)

VOCAB = G.default_atom_vocab()
BONDS = G.default_bond_vocab()
NO_EDGE = BONDS.no_edge


def chain(types, cats_pairs, n=None):
    """Graph from a list of (i, j, category) bonds."""
    types = np.asarray(types)
    n = len(types) if n is None else n
    cats = empty_categories(n, NO_EDGE)
    for i, j, c in cats_pairs:
        cats[i, j] = cats[j, i] = c
    return MolecularGraph(types, cats, NO_EDGE)


@st.composite
def connected_graphs(draw, max_nodes=8):
    """Random connected molecular-shaped graph (types and bonds arbitrary)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    types = draw(
        st.lists(
            st.integers(min_value=0, max_value=VOCAB.size - 1),
            min_size=n,
            max_size=n,
        )
    )
    cats = empty_categories(n, NO_EDGE)
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        c = draw(st.integers(min_value=0, max_value=NO_EDGE - 1))
        cats[i, j] = cats[j, i] = c
    extras = draw(st.integers(min_value=0, max_value=3))
    for _ in range(extras):
        if n < 3:
            break
        i = draw(st.integers(min_value=2, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=i - 2))
        c = draw(st.integers(min_value=0, max_value=NO_EDGE - 1))
        cats[i, j] = cats[j, i] = c
    return MolecularGraph(np.array(types), cats, NO_EDGE)


# ---------------------------------------------------------------- container


def test_rejects_empty_graph():
    with pytest.raises(GraphError):
        MolecularGraph(np.array([], dtype=np.int64), np.zeros((0, 0)), NO_EDGE)


def test_rejects_asymmetric_matrix():
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = 0
    with pytest.raises(GraphError):
        MolecularGraph(np.array([0, 0]), cats, NO_EDGE)


def test_rejects_bond_on_diagonal():
    cats = empty_categories(2, NO_EDGE)
    cats[0, 0] = 0
    with pytest.raises(GraphError):
        MolecularGraph(np.array([0, 0]), cats, NO_EDGE)


def test_rejects_category_out_of_range():
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = cats[1, 0] = NO_EDGE + 1
    with pytest.raises(GraphError):
        MolecularGraph(np.array([0, 0]), cats, NO_EDGE)


def test_bonds_and_neighbors():
    g = chain([0, 1, 2], [(0, 1, 0), (1, 2, 2)])
    assert g.bonds() == [(0, 1, 0), (1, 2, 2)]
    assert list(g.neighbors(1)) == [0, 2]
    assert list(g.neighbors(0)) == [1]


def test_equality_and_copy_are_value_based():
    g = chain([0, 1], [(0, 1, 1)])
    h = g.copy()
    assert g == h
    h.categories[0, 1] = h.categories[1, 0] = 0
    assert g != h


# ---------------------------------------------------------------- ordering


def test_prefix_is_an_unchecked_view_of_the_first_nodes():
    g = chain([0, 1, 2, 0], [(0, 1, 0), (1, 2, 1), (2, 3, 0)])
    for m in range(1, g.n + 1):
        sub = g.prefix(m)
        assert sub == MolecularGraph(g.node_types[:m], g.categories[:m, :m], NO_EDGE)
        assert np.shares_memory(sub.categories, g.categories)
    g.categories[1, 2] = g.categories[2, 1] = 2  # later in-place edits show through
    assert g.prefix(3).categories[1, 2] == 2
    for m in (0, g.n + 1):
        with pytest.raises(GraphError):
            g.prefix(m)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_bfs_reorder_produces_valid_generation_order(g):
    h, order = G.bfs_reorder(g, 0)
    assert G.is_bfs_ordered(h)
    assert sorted(order.permutation.tolist()) == list(range(g.n))
    # relabeling preserves the multiset of (type, type, category) bond triples
    def triples(x):
        return sorted(
            (min(x.node_types[i], x.node_types[j]), max(x.node_types[i], x.node_types[j]), c)
            for i, j, c in x.bonds()
        )
    assert triples(g) == triples(h)


def test_bfs_reorder_rejects_disconnected():
    cats = empty_categories(3, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    g = MolecularGraph(np.array([0, 0, 0]), cats, NO_EDGE)
    with pytest.raises(GraphError):
        G.bfs_reorder(g, 0)


def test_bfs_depths_non_decreasing():
    g = chain([0, 0, 0, 0, 0], [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 4, 0)])
    _, order = G.bfs_reorder(g, 0)
    assert np.all(np.diff(order.depths) >= 0)


def test_max_dependency_distance_hand_case():
    g = chain([0, 0, 0, 0], [(0, 1, 0), (1, 2, 0), (0, 3, 0)])
    assert G.max_dependency_distance(g) == 3  # the bond (0, 3)


def _max_dependency_distance_loop(g):
    # the bond-by-bond loop the vectorized expression replaced: its oracle
    best = 0
    for i, j, _ in g.bonds():
        best = max(best, abs(i - j))
    return best


@given(connected_graphs(max_nodes=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_max_dependency_distance_matches_bond_loop(g, seed):
    # in the drawn order and in a random relabelling of it
    h = G.relabel(g, np.random.default_rng(seed).permutation(g.n))
    for graph in (g, h):
        assert G.max_dependency_distance(graph) == _max_dependency_distance_loop(graph)


def test_relabel_round_trip():
    g = chain([0, 1, 2], [(0, 1, 0), (1, 2, 1)])
    perm = np.array([2, 0, 1])
    h = G.relabel(g, perm)
    inverse = np.argsort(perm)
    assert G.relabel(h, inverse) == g
    with pytest.raises(GraphError):
        G.relabel(g, np.array([], dtype=np.int64))


def _bfs_reorder_loop(g, start, rng):
    # the node-by-node search bfs_reorder replaced, relabelling through the
    # checked constructor: its oracle
    visited = np.zeros(g.n, dtype=bool)
    visited[start] = True
    order, depths, frontier, depth = [start], [0], [start], 0
    while frontier:
        nxt = set()
        for u in frontier:
            for v in g.neighbors(u):
                if not visited[int(v)]:
                    nxt.add(int(v))
        if not nxt:
            break
        layer = np.array(sorted(nxt))
        if rng is not None:
            layer = layer[rng.permutation(layer.size)]
        depth += 1
        for v in layer:
            visited[v] = True
            order.append(int(v))
            depths.append(depth)
        frontier = list(layer)
    if len(order) != g.n:
        missing = int(np.nonzero(~visited)[0][0])
        raise GraphError(f"graph is disconnected: node {missing} unreachable from {start}")
    perm = np.array(order, dtype=np.int64)
    h = MolecularGraph(g.node_types[perm], g.categories[np.ix_(perm, perm)], g.no_edge)
    return h, perm, np.array(depths, dtype=np.int64)


def _outcome(fn, g, start, seed):
    rng = None if seed is None else np.random.default_rng(seed)
    try:
        out = fn(g, start, rng)
    except GraphError as err:
        out = str(err)
    return out, None if rng is None else rng.bit_generator.state


@given(
    connected_graphs(max_nodes=12),
    st.data(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_bfs_reorder_matches_node_loop(g, data, seed, disconnect):
    if disconnect:  # one isolated node at a drawn position
        cats = empty_categories(g.n + 1, NO_EDGE)
        cats[: g.n, : g.n] = g.categories
        g = G.relabel(
            MolecularGraph(np.append(g.node_types, 0), cats, NO_EDGE),
            np.random.default_rng(data.draw(st.integers(0, 99))).permutation(g.n + 1),
        )
    start = data.draw(st.integers(min_value=0, max_value=g.n - 1))

    def fast(g, start, rng):
        h, order = G.bfs_reorder(g, start, rng)
        assert h.node_types.dtype == h.categories.dtype == np.int64
        return h, order.permutation, order.depths

    (got, got_state), (want, want_state) = (
        _outcome(fn, g, start, seed) for fn in (fast, _bfs_reorder_loop)
    )
    assert got_state == want_state
    if isinstance(want, str):
        assert got == want
        return
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _is_bfs_ordered_loop(g):
    # the depth-by-depth check is_bfs_ordered replaced: its oracle
    depths = np.zeros(g.n, dtype=np.int64)
    for i in range(1, g.n):
        earlier = [j for j in range(i) if g.categories[i, j] != g.no_edge]
        if not earlier:
            return False
        depths[i] = 1 + min(depths[j] for j in earlier)
        if depths[i] < depths[i - 1]:
            return False
    return True


@given(connected_graphs(max_nodes=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_is_bfs_ordered_matches_depth_loop(g, seed):
    rng = np.random.default_rng(seed)
    # the drawn order, a random relabelling and a random BFS order
    for h in (g, G.relabel(g, rng.permutation(g.n)), G.bfs_reorder(g, 0, rng)[0]):
        assert G.is_bfs_ordered(h) == _is_bfs_ordered_loop(h)


# ---------------------------------------------------------- dequantization


@given(connected_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dequantize_quantize_round_trip(g, seed):
    z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(seed))
    back = G.quantize(z, NO_EDGE)
    assert back == g


def _dequantize_loop(g, rng, window):
    # the slot-by-slot draw dequantize replaced: its oracle
    zx = np.zeros((g.n, VOCAB.size))
    zx[np.arange(g.n), g.node_types] = 1.0
    zx += rng.random((g.n, VOCAB.size))
    za = {}
    for i in range(1, g.n):
        lo = 0 if window is None else max(0, i - window)
        for j in range(lo, i):
            row = np.zeros(BONDS.categories)
            row[g.categories[i, j]] = 1.0
            row += rng.random(BONDS.categories)
            za[(i, j)] = row
    return zx, za


@given(
    connected_graphs(max_nodes=12),
    st.sampled_from([None, 1, 3, 12]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_dequantize_matches_slot_loop(g, window, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    z = G.dequantize(g, VOCAB, BONDS, rng, window=window)
    zx, za = _dequantize_loop(g, oracle_rng, window)
    assert np.array_equal(z.zx, zx)
    assert list(z.za) == list(za)
    assert all(np.array_equal(z.za[slot], za[slot]) for slot in za)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_dequantize_values_in_expected_boxes():
    g = chain([1, 2], [(0, 1, 2)])
    z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(0))
    # the hot coordinate lands in [1, 2), the rest in [0, 1)
    assert 1.0 <= z.zx[0, 1] < 2.0
    cold = [z.zx[0, j] for j in range(VOCAB.size) if j != 1]
    assert all(0.0 <= v < 1.0 for v in cold)
    assert 1.0 <= z.za[(1, 0)][2] < 2.0


def test_dequantize_window_limits_slots():
    g = chain([0] * 5, [(i, i + 1, 0) for i in range(4)])
    z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(0), window=2)
    assert (4, 1) not in z.za and (4, 0) not in z.za
    assert (4, 2) in z.za and (4, 3) in z.za


def test_quantize_rejects_nan():
    g = chain([0, 0], [(0, 1, 0)])
    z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(0))
    z.zx[0, 0] = np.nan
    with pytest.raises(GraphError):
        G.quantize(z, NO_EDGE)


# ----------------------------------------------------------------- valency


def brute_force_valency_ok(g):
    """Independent audit: sum bond orders per node against the valence table."""
    for i in range(g.n):
        total = 0
        for j in range(g.n):
            c = g.categories[i, j]
            if j != i and c != NO_EDGE:
                total += BONDS.orders[c]
        if total > VOCAB.valences[g.node_types[i]]:
            return False
    return True


@given(connected_graphs())
@settings(max_examples=100, deadline=None)
def test_valency_ok_matches_brute_force(g):
    assert G.valency_ok(g, VOCAB, BONDS) == brute_force_valency_ok(g)


def test_check_valency_predicts_insertion():
    # O (valence 2) with an existing single bond: one more single is fine
    # on a fresh carbon, a double bond is not
    g = chain([2, 0], [(0, 1, 0)])  # O-C single
    ext = chain([2, 0, 0], [(0, 1, 0)])
    assert G.check_valency(ext, VOCAB, BONDS, 0, 2, 0) is True
    assert G.check_valency(ext, VOCAB, BONDS, 0, 2, 1) is False
    assert G.check_valency(ext, VOCAB, BONDS, 0, 2, NO_EDGE) is True


def test_check_valency_replaces_existing_bond():
    # upgrading the O-C single to a double uses the freed order
    g = chain([2, 0], [(0, 1, 0)])
    assert G.check_valency(g, VOCAB, BONDS, 0, 1, 1) is True
    assert G.check_valency(g, VOCAB, BONDS, 0, 1, 2) is False  # triple > 2


def _check_valency_full_rows(g, vocab, bonds, i, j, category):
    # check_valency's formula for a bond category, with every row summed
    # and the order table rebuilt per call; returns (verdict, row sums)
    orders = np.zeros(bonds.categories, dtype=np.int64)
    for c in range(len(bonds.orders)):
        orders[c] = bonds.orders[c]
    sums = orders[g.categories].sum(axis=1)
    existing = g.categories[i, j]
    already = bonds.order_of(existing) if existing != bonds.no_edge else 0
    order = bonds.order_of(category)
    return bool(
        sums[i] - already + order <= vocab.valences[g.node_types[i]]
        and sums[j] - already + order <= vocab.valences[g.node_types[j]]
    ), sums


@pytest.mark.parametrize("orders", [(1, 2, 3), (3, 1), (2,)])
def test_check_valency_matches_full_row_sums(orders):
    bonds = BondVocab(orders)
    rng = np.random.default_rng(len(orders))
    checked = set()
    for _ in range(30):
        n = int(rng.integers(2, 9))
        cats = np.tril(rng.integers(0, bonds.categories, (n, n)), -1)
        cats = cats + cats.T
        np.fill_diagonal(cats, bonds.no_edge)
        g = MolecularGraph(rng.integers(0, VOCAB.size, n), cats, bonds.no_edge)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for c in range(bonds.no_edge):
                    ok, sums = _check_valency_full_rows(g, VOCAB, bonds, i, j, c)
                    assert G.check_valency(g, VOCAB, bonds, i, j, c) is ok
                    checked.add(ok)
                assert G.check_valency(g, VOCAB, bonds, i, j, bonds.no_edge) is True
        assert np.array_equal(G.bond_order_sums(g, bonds), sums)
    assert checked == {True, False}


def test_valency_violations_lists_offenders():
    cats = empty_categories(3, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 2  # triple
    cats[0, 2] = cats[2, 0] = 2  # another triple on node 0
    g = MolecularGraph(np.array([0, 0, 0]), cats, NO_EDGE)  # C capacity 4 < 6
    assert G.valency_violations(g, VOCAB, BONDS) == [0]


# -------------------------------------------------------------- generators


def test_synthetic_molecules_all_valid_connected_deterministic():
    mols = G.gen_synthetic_molecules(50, 10, VOCAB, BONDS, np.random.default_rng(5))
    assert len(mols) == 50
    for m in mols:
        assert m.n <= 10
        assert G.valency_ok(m, VOCAB, BONDS)
        assert G.is_connected(m)
    again = G.gen_synthetic_molecules(50, 10, VOCAB, BONDS, np.random.default_rng(5))
    assert all(a == b for a, b in zip(mols, again))


def test_community_graphs_shape_and_connectivity():
    gs = G.gen_community_graphs(10, 4, 0.8, 0.1, np.random.default_rng(1))
    for g in gs:
        assert g.n == 8
        assert G.is_connected(g)
        assert set(np.unique(g.node_types)) == set(range(8))  # positional types


def test_community_generator_gives_up_when_impossible():
    with pytest.raises(GraphError):
        G.gen_community_graphs(1, 3, 0.9, 0.0, np.random.default_rng(0), max_tries=20)


def test_erdos_renyi_density_tracks_p():
    gs = G.gen_erdos_renyi(200, 10, 0.3, np.random.default_rng(2))
    rate = np.mean([len(g.bonds()) / 45 for g in gs])
    assert abs(rate - 0.3) < 0.03


# -------------------------------------------------------------------- MOLT


def test_molt_header_literal():
    text = molt.write_molt([chain([0], [])], VOCAB, BONDS)
    assert text.startswith("#MOLT v1\n")


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_molt_round_trip(g):
    # only valency-valid graphs survive the default reader
    if not G.valency_ok(g, VOCAB, BONDS):
        back = molt.parse_molt(
            molt.write_molt([g], VOCAB, BONDS), VOCAB, BONDS, allow_invalid=True
        )
    else:
        back = molt.parse_molt(molt.write_molt([g], VOCAB, BONDS), VOCAB, BONDS)
    assert len(back) == 1 and back[0] == g


def test_molt_multiple_records():
    gs = [chain([0, 1], [(0, 1, 0)]), chain([2], [])]
    back = molt.parse_molt(molt.write_molt(gs, VOCAB, BONDS), VOCAB, BONDS)
    assert back == gs


def test_molt_rejects_bad_header_with_line_number():
    with pytest.raises(molt.MoltError) as err:
        molt.parse_molt("#MOLT v2\natoms 1\n0 C\nbonds 0\n", VOCAB, BONDS)
    assert err.value.line == 1


def test_molt_rejects_unknown_symbol():
    text = "#MOLT v1\natoms 1\n0 Xe\nbonds 0\n"
    with pytest.raises(molt.MoltError):
        molt.parse_molt(text, VOCAB, BONDS)


def test_molt_rejects_duplicate_bond():
    text = "#MOLT v1\natoms 2\n0 C\n1 C\nbonds 2\n0 1 1\n1 0 1\n"
    with pytest.raises(molt.MoltError):
        molt.parse_molt(text, VOCAB, BONDS)


def test_molt_rejects_self_loop():
    text = "#MOLT v1\natoms 1\n0 C\nbonds 1\n0 0 1\n"
    with pytest.raises(molt.MoltError):
        molt.parse_molt(text, VOCAB, BONDS)


def test_molt_rejects_valency_violation_unless_admitted():
    # three double bonds on one carbon
    text = (
        "#MOLT v1\natoms 4\n0 C\n1 O\n2 O\n3 O\nbonds 3\n"
        "0 1 2\n0 2 2\n0 3 2\n"
    )
    with pytest.raises(molt.MoltError):
        molt.parse_molt(text, VOCAB, BONDS)
    out = molt.parse_molt(text, VOCAB, BONDS, allow_invalid=True)
    assert len(out) == 1 and not G.valency_ok(out[0], VOCAB, BONDS)


def test_molt_rejects_unknown_bond_order():
    text = "#MOLT v1\natoms 2\n0 C\n1 C\nbonds 1\n0 1 9\n"
    with pytest.raises(molt.MoltError):
        molt.parse_molt(text, VOCAB, BONDS)


def test_molt_rejects_negative_bond_count():
    text = "#MOLT v1\natoms 2\n0 C\n1 C\nbonds -3\n"
    with pytest.raises(molt.MoltError, match="bond count") as err:
        molt.parse_molt(text, VOCAB, BONDS)
    assert err.value.line == 5


@pytest.mark.parametrize("count", [10**12, 10**30])
def test_molt_rejects_atom_count_past_end_of_text(count):
    # a count no array could hold is a data error, not an allocation
    text = f"#MOLT v1\natoms {count}\n0 C\nbonds 0\n"
    with pytest.raises(molt.MoltError, match="atom count") as err:
        molt.parse_molt(text, VOCAB, BONDS)
    assert err.value.line == 2


def test_molt_rejects_missing_atom_index():
    text = "#MOLT v1\natoms 2\n0 C\n0 C\nbonds 0\n"
    with pytest.raises(molt.MoltError):
        molt.parse_molt(text, VOCAB, BONDS)


# ------------------------------------------------------------- vocabularies


def test_default_vocab_shapes():
    assert VOCAB.symbols == ("C", "N", "O")
    assert VOCAB.valences == (4, 3, 2)
    assert BONDS.orders == (1, 2, 3)
    assert BONDS.no_edge == 3  # one category beyond the bond types


def test_atom_vocab_rejects_mismatched_lengths():
    with pytest.raises((GraphError, ValueError)):
        AtomVocab(symbols=("C", "N"), valences=(4,))


def test_bond_vocab_rejects_empty():
    with pytest.raises((GraphError, ValueError)):
        BondVocab(orders=())
