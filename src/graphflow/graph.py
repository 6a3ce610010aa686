"""Molecular graph data model: vocabularies, BFS ordering, dequantization,
valency accounting and synthetic dataset generators.

Graphs are small (tens of nodes), undirected, with categorical node types
and categorical bond orders. Edges are stored as a dense symmetric matrix
of category indices where the last category index means "no edge"; the
diagonal is fixed to no-edge and self loops are never representable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class GraphError(ValueError):
    """Structural or validity problem with a molecular graph."""


@dataclass(frozen=True)
class AtomVocab:
    """Node type alphabet with one valence cap per symbol."""

    symbols: tuple
    valences: tuple

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise GraphError("atom vocabulary must not be empty")
        if len(self.symbols) != len(set(self.symbols)):
            raise GraphError("atom symbols must be unique")
        if len(self.symbols) != len(self.valences):
            raise GraphError("need exactly one valence per symbol")
        if any(v < 1 for v in self.valences):
            raise GraphError("valences must be positive")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise GraphError(f"unknown atom symbol {symbol!r}") from None


@dataclass(frozen=True)
class BondVocab:
    """Bond order alphabet; category b (one past the orders) means no edge."""

    orders: tuple

    def __post_init__(self):
        if len(self.orders) == 0:
            raise GraphError("bond vocabulary must not be empty")
        if len(self.orders) != len(set(self.orders)):
            raise GraphError("bond orders must be unique")
        if any(o < 1 for o in self.orders):
            raise GraphError("bond orders must be positive integers")

    @property
    def no_edge(self) -> int:
        return len(self.orders)

    @property
    def categories(self) -> int:
        """Bond categories plus the no-edge category."""
        return len(self.orders) + 1

    @cached_property
    def order_table(self) -> tuple:
        """The bond order of each category as ints, 0 for no edge."""
        return tuple(int(o) for o in self.orders) + (0,)

    def order_of(self, category: int) -> int:
        if not 0 <= category < self.no_edge:
            raise GraphError(f"category {category} is not a bond")
        return self.orders[category]

    def category_of(self, order: int) -> int:
        try:
            return self.orders.index(order)
        except ValueError:
            raise GraphError(f"unknown bond order {order}") from None


def default_atom_vocab() -> AtomVocab:
    return AtomVocab(symbols=("C", "N", "O"), valences=(4, 3, 2))


def default_bond_vocab() -> BondVocab:
    return BondVocab(orders=(1, 2, 3))


class MolecularGraph:
    """Undirected typed graph with categorical bonds.

    node_types: (n,) int array of indices into an AtomVocab.
    categories: (n, n) int array of bond category indices; symmetric, with
    the no-edge category on the diagonal and on every non-bonded pair.
    """

    __slots__ = ("node_types", "categories", "no_edge")

    def __init__(self, node_types, categories, no_edge: int):
        node_types = np.asarray(node_types, dtype=np.int64)
        categories = np.asarray(categories, dtype=np.int64)
        n = node_types.shape[0]
        if n < 1:
            raise GraphError("a graph needs at least one node")
        if categories.shape != (n, n):
            raise GraphError(
                f"edge matrix shape {categories.shape} does not match {n} nodes"
            )
        if np.any(categories != categories.T):
            raise GraphError("edge matrix must be symmetric")
        if np.any(np.diag(categories) != no_edge):
            raise GraphError("diagonal must hold the no-edge category")
        if np.any((categories < 0) | (categories > no_edge)):
            raise GraphError("edge category out of range")
        self.node_types = node_types
        self.categories = categories
        self.no_edge = no_edge

    @property
    def n(self) -> int:
        return self.node_types.shape[0]

    def prefix(self, m: int) -> "MolecularGraph":
        """The first m nodes as views into this graph, not checked again:
        every prefix of a valid graph is valid, so generation code can
        take one per step without re-scanning what it already holds."""
        if not 1 <= m <= self.n:
            raise GraphError(f"prefix of {m} nodes from a {self.n}-node graph")
        return _unchecked(self.node_types[:m], self.categories[:m, :m], self.no_edge)

    def copy(self) -> "MolecularGraph":
        return MolecularGraph(self.node_types.copy(), self.categories.copy(), self.no_edge)

    def bonds(self):
        """All bonded pairs as (i, j, category) with i < j."""
        ii, jj = np.nonzero(np.triu(self.categories != self.no_edge, k=1))
        return [(int(i), int(j), int(self.categories[i, j])) for i, j in zip(ii, jj)]

    def neighbors(self, i: int):
        return np.nonzero(self.categories[i] != self.no_edge)[0]

    def __eq__(self, other):
        if not isinstance(other, MolecularGraph):
            return NotImplemented
        return (
            self.no_edge == other.no_edge
            and np.array_equal(self.node_types, other.node_types)
            and np.array_equal(self.categories, other.categories)
        )

    def __repr__(self):
        return f"MolecularGraph(n={self.n}, bonds={len(self.bonds())})"


def _unchecked(node_types, categories, no_edge: int) -> MolecularGraph:
    """A MolecularGraph from int64 arrays known to pass its checks."""
    g = MolecularGraph.__new__(MolecularGraph)
    g.node_types, g.categories, g.no_edge = node_types, categories, no_edge
    return g


def empty_categories(n: int, no_edge: int) -> np.ndarray:
    return np.full((n, n), no_edge, dtype=np.int64)


@dataclass
class BfsOrder:
    """Permutation new_index -> old_index plus BFS depth per new index."""

    permutation: np.ndarray
    depths: np.ndarray


def relabel(g: MolecularGraph, permutation: np.ndarray) -> MolecularGraph:
    """Rebuild g so that new node i is old node permutation[i], unchecked:
    any node selection from a valid graph keeps its edge matrix valid."""
    perm = np.asarray(permutation)
    if perm.size == 0:
        raise GraphError("a graph needs at least one node")
    return _unchecked(g.node_types[perm], g.categories[np.ix_(perm, perm)], g.no_edge)


def bfs_reorder(g: MolecularGraph, start: int = 0, rng=None):
    """Breadth-first relabeling from a start node.

    Nodes at equal depth are ordered uniformly at random when an rng is
    given, otherwise by ascending original index. Raises on disconnected
    input, naming an unreachable node.
    """
    if not 0 <= start < g.n:
        raise GraphError(f"start node {start} out of range")
    neighbors = [[] for _ in range(g.n)]
    for u, v in zip(*(ends.tolist() for ends in np.nonzero(g.categories != g.no_edge))):
        neighbors[u].append(v)
    visited = [False] * g.n
    visited[start] = True
    order, depths, frontier = [start], [0], [start]
    while frontier:
        layer = sorted({v for u in frontier for v in neighbors[u] if not visited[v]})
        if not layer:
            break
        if rng is not None:
            layer = [layer[p] for p in rng.permutation(len(layer)).tolist()]
        for v in layer:
            visited[v] = True
        depths += [depths[-1] + 1] * len(layer)
        order += layer
        frontier = layer
    if len(order) != g.n:
        missing = visited.index(False)
        raise GraphError(f"graph is disconnected: node {missing} unreachable from {start}")
    perm = np.array(order, dtype=np.int64)
    return relabel(g, perm), BfsOrder(permutation=perm, depths=np.array(depths, dtype=np.int64))


def max_dependency_distance(g: MolecularGraph) -> int:
    """Largest index gap i - j over bonds (i, j), i > j, in g's own node
    order (the generation order)."""
    ii, jj = np.nonzero(g.categories != g.no_edge)
    return int((ii - jj).max(initial=0))


def is_bfs_ordered(g: MolecularGraph) -> bool:
    """True when node order is realizable as a BFS traversal from node 0.

    Checks that every non-first node has an earlier neighbor and that the
    depths d[i] = 1 + min(d[j] : j < i, j bonded to i) are non-decreasing.
    While they are, the lowest-index earlier neighbor has the least depth.
    """
    bonded = g.categories != g.no_edge
    bonded.flat[:: g.n + 1] = True  # a node with no earlier neighbor finds itself first
    depths = [0]
    for i, j in enumerate(bonded.argmax(axis=1).tolist()[1:], 1):
        if j == i or depths[j] + 1 < depths[-1]:
            return False
        depths.append(depths[j] + 1)
    return True


@dataclass
class DequantizedGraph:
    """Continuous relaxation of a graph: one-hot plus uniform [0, 1) noise.

    zx: (n, d) node rows. za: {(i, j) -> (b + 1,) vector} for i > j over the
    slots covered by the generation window.
    """

    zx: np.ndarray
    za: dict

    @property
    def n(self) -> int:
        return self.zx.shape[0]


@lru_cache(maxsize=64)
def _edge_slots(n: int, window: int | None) -> tuple:
    """The edge slots (i, j), i > j, of an n-node graph under window, in
    generation order, with read-only arrays of their i and j."""
    slots = [(i, j) for i in range(1, n) for j in range(i) if window is None or i - j <= window]
    ends = np.array(slots, dtype=np.int64).reshape(-1, 2).T
    ends.flags.writeable = False
    return slots, ends[0], ends[1]


def dequantize(
    g: MolecularGraph,
    vocab: AtomVocab,
    bonds: BondVocab,
    rng,
    window: int | None = None,
) -> DequantizedGraph:
    """Lift a discrete graph to continuous values: one_hot + U[0, 1) noise.

    window limits edge slots to j in [max(0, i - window), i); None keeps
    every pair i > j.
    """
    n = g.n
    d = vocab.size
    k = bonds.categories
    zx = np.zeros((n, d))
    zx[np.arange(n), g.node_types] = 1.0
    zx += rng.random((n, d))
    slots, ii, jj = _edge_slots(n, window)
    rows = rng.random((len(slots), k))  # filled in C order: one row per slot, as drawn one by one
    rows[np.arange(len(slots)), g.categories[ii, jj]] += 1.0
    return DequantizedGraph(zx=zx, za=dict(zip(slots, rows)))


def quantize(z: DequantizedGraph, no_edge: int) -> MolecularGraph:
    """Invert dequantization by per-slot argmax; ties take the lowest index."""
    if np.any(np.isnan(z.zx)) or any(np.any(np.isnan(v)) for v in z.za.values()):
        raise GraphError("quantize: NaN entry in dequantized values")
    node_types = np.argmax(z.zx, axis=1)
    cats = empty_categories(z.n, no_edge)
    for (i, j), row in z.za.items():
        c = int(np.argmax(row))
        if c != no_edge:
            cats[i, j] = c
            cats[j, i] = c
    return MolecularGraph(node_types, cats, no_edge)


def bond_order_sums(g: MolecularGraph, bonds: BondVocab) -> np.ndarray:
    """Total bond order incident to each node."""
    return np.array(bonds.order_table, dtype=np.int64)[g.categories].sum(axis=1)


def check_valency(
    g: MolecularGraph,
    vocab: AtomVocab,
    bonds: BondVocab,
    i: int,
    j: int,
    category: int,
) -> bool:
    """Would setting slot (i, j) to category keep both endpoints within valence?

    The no-edge category always passes. Any existing bond on the slot is
    replaced, not stacked.
    """
    if category == bonds.no_edge:
        return True
    order = bonds.order_of(category)
    table, cats = bonds.order_table, g.categories
    sum_i = sum(map(table.__getitem__, cats[i].tolist()))
    sum_j = sum(map(table.__getitem__, cats[j].tolist()))
    already = table[cats[i, j]]
    cap_i = vocab.valences[g.node_types[i]]
    cap_j = vocab.valences[g.node_types[j]]
    return bool(
        sum_i - already + order <= cap_i
        and sum_j - already + order <= cap_j
    )


def valency_violations(g: MolecularGraph, vocab: AtomVocab, bonds: BondVocab):
    """Indices of nodes whose total bond order exceeds their valence."""
    sums = bond_order_sums(g, bonds)
    caps = np.array([vocab.valences[t] for t in g.node_types])
    return [int(i) for i in np.nonzero(sums > caps)[0]]


def valency_ok(g: MolecularGraph, vocab: AtomVocab, bonds: BondVocab) -> bool:
    return not valency_violations(g, vocab, bonds)


def is_connected(g: MolecularGraph) -> bool:
    seen = np.zeros(g.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def gen_synthetic_molecules(
    count: int,
    max_atoms: int,
    vocab: AtomVocab,
    bonds: BondVocab,
    rng,
) -> list:
    """Random connected molecules built by valency-respecting growth.

    Every output is valid by construction: each new atom attaches to an
    existing atom with spare capacity, and a few extra ring bonds are
    attempted between compatible non-adjacent pairs. Deterministic given
    the rng state.
    """
    if max_atoms < 1:
        raise GraphError("max_atoms must be at least 1")
    out = []
    low = min(4, max_atoms)
    max_order = max(bonds.orders)
    for _ in range(count):
        target = int(rng.integers(low, max_atoms + 1))
        types = [int(rng.integers(0, vocab.size))]
        cats = empty_categories(max_atoms, bonds.no_edge)
        spare = [vocab.valences[types[0]]]
        while len(types) < target:
            open_atoms = [u for u in range(len(types)) if spare[u] > 0]
            if not open_atoms:
                break
            u = int(open_atoms[rng.integers(0, len(open_atoms))])
            t = int(rng.integers(0, vocab.size))
            top = min(max_order, spare[u], vocab.valences[t])
            order = int(rng.integers(1, top + 1))
            c = bonds.category_of(order)
            v = len(types)
            types.append(t)
            spare.append(vocab.valences[t] - order)
            spare[u] -= order
            cats[u, v] = c
            cats[v, u] = c
        n = len(types)
        for _ in range(int(rng.integers(0, 3))):
            pairs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if cats[u, v] == bonds.no_edge and spare[u] > 0 and spare[v] > 0
            ]
            if not pairs:
                break
            u, v = pairs[rng.integers(0, len(pairs))]
            c = bonds.category_of(1)
            cats[u, v] = c
            cats[v, u] = c
            spare[u] -= 1
            spare[v] -= 1
        out.append(MolecularGraph(np.array(types), cats[:n, :n], bonds.no_edge))
    return out


def community_vocab(nodes_per_community: int):
    """Positional vocabulary for generic two-community graphs.

    Node features are one-hot position indicators, so the vocabulary has
    one pseudo-symbol per node slot; valences are set high enough that the
    valency audit never binds.
    """
    n = 2 * nodes_per_community
    symbols = tuple(f"v{i}" for i in range(n))
    valences = tuple([n] * n)
    return AtomVocab(symbols=symbols, valences=valences), BondVocab(orders=(1,))


def gen_community_graphs(
    count: int,
    nodes_per_community: int,
    p_intra: float,
    p_inter: float,
    rng,
    max_tries: int = 1000,
) -> list:
    """Two-community random graphs; disconnected samples are rejected.

    Raises after max_tries consecutive rejections (for example with
    p_inter = 0, where the two communities can never join up).
    """
    n = 2 * nodes_per_community
    _, bonds = community_vocab(nodes_per_community)
    same = np.zeros((n, n), dtype=bool)
    same[:nodes_per_community, :nodes_per_community] = True
    same[nodes_per_community:, nodes_per_community:] = True
    out = []
    for _ in range(count):
        for attempt in range(max_tries):
            u = rng.random((n, n))
            p = np.where(same, p_intra, p_inter)
            upper = np.triu(u < p, k=1)
            cats = np.where(upper | upper.T, 0, bonds.no_edge)
            np.fill_diagonal(cats, bonds.no_edge)
            g = MolecularGraph(np.arange(n), cats, bonds.no_edge)
            if is_connected(g):
                out.append(g)
                break
        else:
            raise GraphError(
                f"no connected community sample in {max_tries} tries "
                f"(p_intra={p_intra}, p_inter={p_inter})"
            )
    return out


def gen_erdos_renyi(count: int, n: int, p: float, rng) -> list:
    """Plain G(n, p) graphs on the positional vocabulary; no connectivity filter."""
    _, bonds = community_vocab((n + 1) // 2)
    out = []
    for _ in range(count):
        u = rng.random((n, n))
        upper = np.triu(u < p, k=1)
        cats = np.where(upper | upper.T, 0, bonds.no_edge)
        np.fill_diagonal(cats, bonds.no_edge)
        out.append(MolecularGraph(np.arange(n), cats, bonds.no_edge))
    return out
