"""Reader and writer for the MOLT v1 molecule text format.

A record looks like:

    #MOLT v1
    atoms 3
    0 C
    1 O
    2 C
    bonds 2
    0 1 1
    1 2 2

Several records in one file are separated by blank lines. Atom indices
are zero-based and must each appear exactly once; bonds reference atom
indices with a bond order from the bond vocabulary. Duplicate bonds
(in either direction), self loops, unknown symbols and unknown orders
are rejected. Valency-violating molecules are rejected unless the
caller explicitly admits them (metrics need that to score invalid
samples).
"""

from __future__ import annotations

import numpy as np

from .graph import (
    AtomVocab,
    BondVocab,
    MolecularGraph,
    empty_categories,
    valency_violations,
)


class MoltError(ValueError):
    """Malformed MOLT input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


MOLT_HEADER = "#MOLT v1"


def write_molt(graphs, vocab: AtomVocab, bonds: BondVocab) -> str:
    """Serialize graphs to MOLT text, one blank-line-separated record each."""
    if isinstance(graphs, MolecularGraph):
        graphs = [graphs]
    records = []
    for g in graphs:
        lines = [MOLT_HEADER, f"atoms {g.n}"]
        for i, t in enumerate(g.node_types):
            lines.append(f"{i} {vocab.symbols[t]}")
        bond_list = g.bonds()
        lines.append(f"bonds {len(bond_list)}")
        for i, j, c in bond_list:
            lines.append(f"{i} {j} {bonds.order_of(c)}")
        records.append("\n".join(lines))
    return "\n\n".join(records) + "\n"


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.pos = 0

    @property
    def lineno(self) -> int:
        return self.pos  # 1-based number of the line just consumed

    def next_content(self):
        """Advance to the next non-blank line; None at end of input."""
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        return None

    def next_line(self):
        if self.pos >= len(self.lines):
            raise MoltError(self.pos, "unexpected end of input")
        line = self.lines[self.pos].strip()
        self.pos += 1
        if not line:
            raise MoltError(self.pos, "unexpected blank line inside a record")
        return line


def _parse_int(cur: _Cursor, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MoltError(cur.lineno, f"bad {what}: {token!r}") from None


def parse_molt(
    text: str,
    vocab: AtomVocab,
    bonds: BondVocab,
    allow_invalid: bool = False,
) -> list:
    """Parse every record in the text; raises MoltError with a line number."""
    cur = _Cursor(text)
    out = []
    while True:
        header = cur.next_content()
        if header is None:
            break
        if header != MOLT_HEADER:
            raise MoltError(cur.lineno, f"expected {MOLT_HEADER!r}, got {header!r}")
        atoms_line = cur.next_line().split()
        if len(atoms_line) != 2 or atoms_line[0] != "atoms":
            raise MoltError(cur.lineno, "expected 'atoms <count>'")
        n = _parse_int(cur, atoms_line[1], "atom count")
        if n < 1:
            raise MoltError(cur.lineno, "atom count must be at least 1")
        if n > len(cur.lines) - cur.pos:  # checked before the count sizes any array
            raise MoltError(cur.lineno, f"atom count {n} exceeds the lines left")
        node_types = np.full(n, -1, dtype=np.int64)
        for _ in range(n):
            parts = cur.next_line().split()
            if len(parts) != 2:
                raise MoltError(cur.lineno, "expected '<index> <symbol>'")
            idx = _parse_int(cur, parts[0], "atom index")
            if not 0 <= idx < n:
                raise MoltError(cur.lineno, f"atom index {idx} out of range 0..{n - 1}")
            if node_types[idx] != -1:
                raise MoltError(cur.lineno, f"duplicate atom index {idx}")
            try:
                node_types[idx] = vocab.index(parts[1])
            except Exception:
                raise MoltError(cur.lineno, f"unknown atom symbol {parts[1]!r}") from None
        bonds_line = cur.next_line().split()
        if len(bonds_line) != 2 or bonds_line[0] != "bonds":
            raise MoltError(cur.lineno, "expected 'bonds <count>'")
        m = _parse_int(cur, bonds_line[1], "bond count")
        if m < 0:
            raise MoltError(cur.lineno, "bond count must be non-negative")
        cats = empty_categories(n, bonds.no_edge)
        for _ in range(m):
            parts = cur.next_line().split()
            if len(parts) != 3:
                raise MoltError(cur.lineno, "expected '<i> <j> <order>'")
            i = _parse_int(cur, parts[0], "atom index")
            j = _parse_int(cur, parts[1], "atom index")
            order = _parse_int(cur, parts[2], "bond order")
            if not (0 <= i < n and 0 <= j < n):
                raise MoltError(cur.lineno, f"bond endpoint out of range: {i} {j}")
            if i == j:
                raise MoltError(cur.lineno, f"self loop on atom {i}")
            if cats[i, j] != bonds.no_edge:
                raise MoltError(cur.lineno, f"duplicate bond between {i} and {j}")
            try:
                c = bonds.category_of(order)
            except Exception:
                raise MoltError(cur.lineno, f"unknown bond order {order}") from None
            cats[i, j] = c
            cats[j, i] = c
        g = MolecularGraph(node_types, cats, bonds.no_edge)
        if not allow_invalid:
            bad = valency_violations(g, vocab, bonds)
            if bad:
                raise MoltError(cur.lineno, f"valency exceeded at atoms {bad}")
        out.append(g)
    return out
