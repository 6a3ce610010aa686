"""Sample-quality metrics: validity, uniqueness, novelty, and
distribution distances between graph sets.

Duplicate detection runs in two stages. A Weisfeiler-Lehman color
refinement produces a fast canonical digest; digest collisions are then
confirmed (or split) by an exact backtracking isomorphism test, so a WL
hash collision can never merge two genuinely different molecules.
Each graph's WL labels are computed once and serve both stages.

Every result is bitwise that of the per-element loops the tests keep as
oracles. Histograms are one bincount per set; the MMD kernel is
evaluated for distinct rows only and expanded to the full matrix before
any sum. Nothing is cached across calls.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graph import MolecularGraph, valency_ok

WL_ROUNDS = 3


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=16).digest()


def wl_labels(g: MolecularGraph, rounds: int = WL_ROUNDS) -> list:
    """Per-node refinement labels after the given number of rounds.

    The initial label is the atom type; each round folds in the sorted
    multiset of (bond category, neighbor label) pairs. Labels are
    16-byte digests, identical across any node relabeling.
    """
    labels = [_digest(b"t%d" % t) for t in g.node_types.tolist()]
    neighbors = [
        [(b"%d:" % c, j) for j, c in enumerate(row) if j != i and c != g.no_edge]
        for i, row in enumerate(g.categories.tolist())
    ]
    for _ in range(rounds):
        labels = [
            _digest(labels[i] + b"|" + b"".join(sorted(tag + labels[j] for tag, j in nbrs)))
            for i, nbrs in enumerate(neighbors)
        ]
    return labels


def canonical_hash(g: MolecularGraph, labels_out: list | None = None) -> bytes:
    """Permutation-invariant digest of a graph; equal digests are
    candidates for isomorphism, not proof of it. A labels_out list
    receives the graph's wl_labels, for graphs_isomorphic to reuse."""
    labels = wl_labels(g)
    if labels_out is not None:
        labels_out[:] = labels
    return _digest(b"n%d|" % g.n + b"".join(sorted(labels)))


def graphs_isomorphic(a: MolecularGraph, b: MolecularGraph, la=None, lb=None) -> bool:
    """Exact isomorphism respecting atom types and bond categories.

    Backtracking over candidate node maps, ordered and pruned by WL
    labels (la and lb, when the caller already has them); intended for
    the small molecules this package generates.
    """
    if a.n != b.n or a.no_edge != b.no_edge:
        return False
    types_a, types_b = a.node_types.tolist(), b.node_types.tolist()
    if sorted(types_a) != sorted(types_b):
        return False
    la = wl_labels(a) if la is None else la
    lb = wl_labels(b) if lb is None else lb
    if sorted(la) != sorted(lb):
        return False
    cats_a, cats_b = a.categories.tolist(), b.categories.tolist()
    # match highest-constraint nodes first: rarest label, then most bonds
    freq = Counter(la)
    deg_a = [sum(c != a.no_edge for c in row) for row in cats_a]
    order = sorted(range(a.n), key=lambda i: (freq[la[i]], -deg_a[i]))
    mapping = [-1] * a.n
    used = [False] * b.n

    def extend(pos: int) -> bool:
        if pos == a.n:
            return True
        i = order[pos]
        for j in range(b.n):
            if used[j] or la[i] != lb[j] or types_a[i] != types_b[j]:
                continue
            if any(cats_a[i][prev] != cats_b[j][mapping[prev]] for prev in order[:pos]):
                continue
            mapping[i] = j
            used[j] = True
            if extend(pos + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    return extend(0)


class IsoClasses:
    """Isomorphism classes built from WL digests plus exact confirmation.

    Each digest bucket holds representative graphs with their WL labels; a new
    graph joins the first representative it is exactly isomorphic to,
    otherwise it starts a new class inside the bucket.
    """

    def __init__(self):
        self._buckets: dict = {}
        self.num_classes = 0

    def class_of(self, g: MolecularGraph) -> tuple:
        """(digest, index-within-bucket) identity of g's class, which g
        starts if no earlier graph is isomorphic to it."""
        labels: list = []
        key = canonical_hash(g, labels)
        bucket = self._buckets.setdefault(key, [])
        for idx, (rep, rep_labels) in enumerate(bucket):
            if graphs_isomorphic(g, rep, labels, rep_labels):
                return (key, idx)
        bucket.append((g, labels))
        self.num_classes += 1
        return (key, len(bucket) - 1)


@dataclass
class SampleQuality:
    num_samples: int
    num_valid: int
    num_unique: int
    num_novel: int | None  # None when no training set was compared

    @property
    def validity(self) -> float:
        return self.num_valid / self.num_samples if self.num_samples else 0.0

    @property
    def uniqueness(self) -> float:
        return self.num_unique / self.num_valid if self.num_valid else 0.0

    @property
    def novelty(self) -> float | None:
        if self.num_novel is None:
            return None
        return self.num_novel / self.num_unique if self.num_unique else 0.0


def evaluate_set(samples, vocab, bonds, train_graphs=None) -> SampleQuality:
    """Validity, uniqueness over valid samples, novelty over unique ones.

    Novelty compares isomorphism classes against the training set, so a
    relabeled copy of a training molecule is not novel. Without a
    training set novelty is not measured: num_novel is None.
    """
    valid = [g for g in samples if valency_ok(g, vocab, bonds)]
    # one class table for both sets, so each graph is hashed once
    classes = IsoClasses()
    trained = {classes.class_of(g) for g in train_graphs or ()}
    found = {classes.class_of(g) for g in valid}
    return SampleQuality(
        num_samples=len(samples),
        num_valid=len(valid),
        num_unique=len(found),
        num_novel=None if train_graphs is None else len(found - trained),
    )


def degree_sequence(g: MolecularGraph) -> np.ndarray:
    """Neighbor counts per node (bond multiplicity ignored)."""
    # diagonal slots always hold no_edge, so they never count
    return (g.categories != g.no_edge).sum(axis=1)


def clustering_coefficients(graphs) -> list:
    """Local clustering coefficient per node on the bond skeleton, one array
    per graph. Graphs of one size share one product: for a symmetric A with
    an empty diagonal, the row sums of (A @ A) * A are diag(A^3)."""
    out, by_size = {}, {}
    for i, g in enumerate(graphs):
        by_size.setdefault(g.n, []).append(i)
    for idx in by_size.values():
        adj = np.stack([graphs[i].categories != graphs[i].no_edge for i in idx]).astype(np.float64)
        deg = adj.sum(axis=2)
        triangles = ((adj @ adj) * adj).sum(axis=2) / 2.0
        coeff = np.where(deg >= 2, 2.0 * triangles / np.maximum(deg * (deg - 1.0), 1.0), 0.0)
        out.update(zip(idx, coeff))
    return [out[i] for i in range(len(graphs))]


def _row_counts(per_row: list, width: int, to_bin) -> np.ndarray:
    """Per-row counts over width bins, one bincount for the whole set;
    to_bin maps every entry to its bin, or to -1 to drop it."""
    rows = np.repeat(np.arange(len(per_row)), [len(a) for a in per_row])
    bins = to_bin(np.concatenate(per_row) if per_row else np.zeros(0, dtype=np.int64))
    flat = np.bincount((rows * width + bins)[bins >= 0], minlength=len(per_row) * width)
    return flat.reshape(-1, width)


def degree_histograms(graphs, max_degree: int | None = None) -> np.ndarray:
    """One normalized histogram per graph over 0..max_degree, where the
    cap defaults to the largest degree seen across all graphs."""
    seqs = [degree_sequence(g) for g in graphs]
    if max_degree is None:
        max_degree = max(int(s.max()) for s in seqs)
    return _degree_rows(seqs, max_degree)


def _degree_rows(seqs, max_degree: int) -> np.ndarray:
    # degrees above the cap count in the top bin
    counts = _row_counts(seqs, max_degree + 1, lambda d: np.minimum(d, max_degree))
    return counts / counts.sum(axis=1, keepdims=True)


def clustering_histograms(graphs, bins: int = 100) -> np.ndarray:
    """One normalized histogram per graph of its clustering coefficients,
    in np.histogram's bins over [0, 1]; a row with no counts is uniform."""
    edges = np.linspace(0.0, 1.0, bins + 1)

    def to_bin(v):
        # edges[i] <= v < edges[i + 1], the last bin closed; values outside are dropped
        idx = np.minimum(np.searchsorted(edges, v, side="right") - 1, bins - 1)
        return np.where((v >= 0.0) & (v <= 1.0), idx, -1)

    counts = _row_counts(clustering_coefficients(graphs), bins, to_bin)
    total = counts.sum(axis=1, keepdims=True)
    return np.where(total > 0, counts / np.maximum(total, 1), 1.0 / bins)


def _distinct_rows(h: np.ndarray) -> tuple:
    """Distinct rows of h in first-seen order, and each row's index among
    them; rows match by bytes (np.unique(axis=0) sorts, which costs more)."""
    slot: dict = {}
    ix = np.array([slot.setdefault(row.tobytes(), len(slot)) for row in h], dtype=np.intp)
    return h[np.unique(ix, return_index=True)[1]], ix


def _tv_kernel(x: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    # total variation distance between normalized histograms, then Gaussian
    # one row of x at a time, so memory stays O(n * bins), not O(m * n * bins)
    tv = np.stack([0.5 * np.abs(row - y).sum(axis=1) for row in x])
    return np.exp(-(tv * tv) / (2.0 * sigma * sigma))


def mmd_squared(x: np.ndarray, y: np.ndarray, sigma: float = 1.0) -> float:
    """Unbiased squared maximum mean discrepancy between two histogram
    sets under a Gaussian kernel on total-variation distance, clamped at
    zero (the unbiased estimator can dip negative)."""
    m = x.shape[0]
    n = y.shape[0]
    if m < 2 or n < 2:
        raise ValueError("mmd needs at least two samples on each side")
    ux, ix = _distinct_rows(x)
    uy, iy = _distinct_rows(y)
    # np.ix_ expands to a C-ordered matrix, so each sum rounds as it does
    # over the kernel of every row pair
    kxx = _tv_kernel(ux, ux, sigma)[np.ix_(ix, ix)]
    kyy = _tv_kernel(uy, uy, sigma)[np.ix_(iy, iy)]
    kxy = _tv_kernel(ux, uy, sigma)[np.ix_(ix, iy)]
    sx = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    sy = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    return float(max(0.0, sx + sy - 2.0 * kxy.mean()))


def mmd_degree(samples, reference, sigma: float = 1.0) -> float:
    xs = [degree_sequence(g) for g in samples]
    ys = [degree_sequence(g) for g in reference]
    cap = max(int(s.max()) for s in xs + ys)
    return mmd_squared(_degree_rows(xs, cap), _degree_rows(ys, cap), sigma)


def mmd_clustering(samples, reference, sigma: float = 1.0, bins: int = 100) -> float:
    return mmd_squared(
        clustering_histograms(samples, bins), clustering_histograms(reference, bins), sigma
    )


@dataclass
class GenerationReport:
    """Everything the evaluate command prints, in one place."""

    quality: SampleQuality
    mmd: dict = field(default_factory=dict)

    def as_kv(self) -> list:
        rows = [
            ("num_samples", self.quality.num_samples),
            ("num_valid", self.quality.num_valid),
            ("validity", f"{self.quality.validity:.6f}"),
            ("uniqueness", f"{self.quality.uniqueness:.6f}"),
        ]
        if self.quality.num_novel is not None:
            rows.append(("novelty", f"{self.quality.novelty:.6f}"))
        for name, value in sorted(self.mmd.items()):
            rows.append((f"mmd_{name}", f"{value:.6g}"))
        return rows

    def as_text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.as_kv()) + "\n"

    def as_csv(self) -> str:
        rows = self.as_kv()
        head = ",".join(k for k, _ in rows)
        body = ",".join(str(v) for _, v in rows)
        return head + "\n" + body + "\n"
