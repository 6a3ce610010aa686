"""Sample-quality metrics: validity, uniqueness, novelty, and
distribution distances between graph sets.

Duplicate detection runs in two stages. A Weisfeiler-Lehman color
refinement produces a fast canonical digest; digest collisions are then
confirmed (or split) by an exact backtracking isomorphism test, so a WL
hash collision can never merge two genuinely different molecules.
"""

from __future__ import annotations

import hashlib
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
    labels = [_digest(b"t%d" % int(t)) for t in g.node_types]
    for _ in range(rounds):
        nxt = []
        for i in range(g.n):
            pairs = sorted(
                (b"%d:" % int(g.categories[i, j])) + labels[j]
                for j in range(g.n)
                if j != i and g.categories[i, j] != g.no_edge
            )
            nxt.append(_digest(labels[i] + b"|" + b"".join(pairs)))
        labels = nxt
    return labels


def canonical_hash(g: MolecularGraph) -> bytes:
    """Permutation-invariant digest of a graph; equal digests are
    candidates for isomorphism, not proof of it."""
    labels = wl_labels(g)
    return _digest(b"n%d|" % g.n + b"".join(sorted(labels)))


def graphs_isomorphic(a: MolecularGraph, b: MolecularGraph) -> bool:
    """Exact isomorphism respecting atom types and bond categories.

    Backtracking over candidate node maps, ordered and pruned by WL
    labels; intended for the small molecules this package generates.
    """
    if a.n != b.n or a.no_edge != b.no_edge:
        return False
    if sorted(a.node_types.tolist()) != sorted(b.node_types.tolist()):
        return False
    la = wl_labels(a)
    lb = wl_labels(b)
    if sorted(la) != sorted(lb):
        return False
    # match highest-constraint nodes first: rarest label, then most bonds
    freq = {}
    for lab in la:
        freq[lab] = freq.get(lab, 0) + 1
    deg_a = [(a.categories[i] != a.no_edge).sum() for i in range(a.n)]
    order = sorted(range(a.n), key=lambda i: (freq[la[i]], -deg_a[i]))
    mapping = np.full(a.n, -1, dtype=np.int64)
    used = np.zeros(b.n, dtype=bool)

    def extend(pos: int) -> bool:
        if pos == a.n:
            return True
        i = order[pos]
        for j in range(b.n):
            if used[j] or la[i] != lb[j] or a.node_types[i] != b.node_types[j]:
                continue
            ok = True
            for prev in order[:pos]:
                if a.categories[i, prev] != b.categories[j, mapping[prev]]:
                    ok = False
                    break
            if not ok:
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

    Each digest bucket holds a list of representative graphs; a new
    graph joins the first representative it is exactly isomorphic to,
    otherwise it starts a new class inside the bucket.
    """

    def __init__(self):
        self._buckets: dict = {}
        self.num_classes = 0

    def class_of(self, g: MolecularGraph, insert: bool = True) -> tuple:
        """(digest, index-within-bucket) identity, or None when absent
        and insert is False."""
        key = canonical_hash(g)
        bucket = self._buckets.setdefault(key, [])
        for idx, rep in enumerate(bucket):
            if graphs_isomorphic(g, rep):
                return (key, idx)
        if not insert:
            if not bucket:
                del self._buckets[key]
            return None
        bucket.append(g)
        self.num_classes += 1
        return (key, len(bucket) - 1)

    def __contains__(self, g: MolecularGraph) -> bool:
        return self.class_of(g, insert=False) is not None


@dataclass
class SampleQuality:
    num_samples: int
    num_valid: int
    num_unique: int
    num_novel: int

    @property
    def validity(self) -> float:
        return self.num_valid / self.num_samples if self.num_samples else 0.0

    @property
    def uniqueness(self) -> float:
        return self.num_unique / self.num_valid if self.num_valid else 0.0

    @property
    def novelty(self) -> float:
        return self.num_novel / self.num_unique if self.num_unique else 0.0


def evaluate_set(samples, vocab, bonds, train_graphs=None) -> SampleQuality:
    """Validity, uniqueness over valid samples, novelty over unique ones.

    Novelty compares isomorphism classes against the training set, so a
    relabeled copy of a training molecule is not novel.
    """
    valid = [g for g in samples if valency_ok(g, vocab, bonds)]
    classes = IsoClasses()
    uniques = []
    for g in valid:
        before = classes.num_classes
        classes.class_of(g)
        if classes.num_classes > before:
            uniques.append(g)
    num_novel = 0
    if train_graphs is not None:
        train_classes = IsoClasses()
        for g in train_graphs:
            train_classes.class_of(g)
        for g in uniques:
            if g not in train_classes:
                num_novel += 1
    return SampleQuality(
        num_samples=len(samples),
        num_valid=len(valid),
        num_unique=len(uniques),
        num_novel=num_novel,
    )


def degree_sequence(g: MolecularGraph) -> np.ndarray:
    """Neighbor counts per node (bond multiplicity ignored)."""
    # diagonal slots always hold no_edge, so they never count
    return (g.categories != g.no_edge).sum(axis=1)


def clustering_coefficients(g: MolecularGraph) -> np.ndarray:
    """Local clustering coefficient per node on the bond skeleton."""
    adj = (g.categories != g.no_edge).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    deg = adj.sum(axis=1)
    triangles = np.diag(adj @ adj @ adj) / 2.0
    out = np.zeros(g.n)
    mask = deg >= 2
    out[mask] = 2.0 * triangles[mask] / (deg[mask] * (deg[mask] - 1.0))
    return out


def _normalized_hist(values: np.ndarray, bins: int, lo: float, hi: float) -> np.ndarray:
    hist, _ = np.histogram(values, bins=bins, range=(lo, hi))
    total = hist.sum()
    if total == 0:
        return np.full(bins, 1.0 / bins)
    return hist / total


def degree_histograms(graphs, max_degree: int | None = None) -> np.ndarray:
    """One normalized histogram per graph over 0..max_degree, where the
    cap defaults to the largest degree seen across all graphs."""
    seqs = [degree_sequence(g) for g in graphs]
    if max_degree is None:
        max_degree = max(int(s.max()) for s in seqs)
    return _degree_rows(seqs, max_degree)


def _degree_rows(seqs, max_degree: int) -> np.ndarray:
    out = np.zeros((len(seqs), max_degree + 1))
    for row, s in enumerate(seqs):
        for d in s:
            out[row, min(int(d), max_degree)] += 1.0
        out[row] /= out[row].sum()
    return out


def clustering_histograms(graphs, bins: int = 100) -> np.ndarray:
    return np.stack(
        [_normalized_hist(clustering_coefficients(g), bins, 0.0, 1.0) for g in graphs]
    )


def _tv_kernel_matrix(x: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
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
    kxx = _tv_kernel_matrix(x, x, sigma)
    kyy = _tv_kernel_matrix(y, y, sigma)
    kxy = _tv_kernel_matrix(x, y, sigma)
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
            ("novelty", f"{self.quality.novelty:.6f}"),
        ]
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
