"""Fixed inputs of the benchmark: model shapes, synthetic data, checkpoints.

The `generate` and `finetune` workloads sample from checked-in
checkpoints instead of training their own model, so a change to training
numerics cannot change the molecules they time. `make_checkpoints.py`
wrote both files; their sha256 is checked on every load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from graphflow import checkpoint, flow
from graphflow import graph as G

CHECKPOINT_DIR = Path(__file__).resolve().parent / "checkpoints"

VOCAB = G.default_atom_vocab()
BONDS = G.default_bond_vocab()
MAX_ATOMS = 10
MAX_SIZE = 12
WINDOW = 12

# the checkpoints' training set; `generate` also scores samples against it
CHECKPOINT_DATA_SEED = 0
CHECKPOINT_DATA_COUNT = 200
CHECKPOINT_TRAIN = flow.TrainConfig(epochs=20, batch_size=32, lr=2e-3)
CHECKPOINT_INIT_SEED = 42
CHECKPOINT_NOISE_SEED = 7


def model_spec(width: int, layers: int) -> flow.ModelSpec:
    return flow.ModelSpec(
        vocab=VOCAB, bonds=BONDS, width=width, layers=layers, window=WINDOW, max_size=MAX_SIZE
    )


def synthetic_molecules(count: int, seed: int) -> list:
    """Valid molecules of at most MAX_ATOMS atoms, BFS-ordered from node 0
    the way `graphflow gen-data` writes them."""
    rng = np.random.default_rng(seed)
    mols = G.gen_synthetic_molecules(count, MAX_ATOMS, VOCAB, BONDS, rng)
    return [G.bfs_reorder(m, 0)[0] for m in mols]


def molecules_by_size(per_size: int, seed: int) -> list:
    """per_size synthetic molecules of each atom count from 4 to MAX_ATOMS.

    A fixed size histogram keeps the work of a training pass the same for
    every seed: its step count depends on the atom count alone.
    """
    rng = np.random.default_rng(seed)
    buckets = {n: [] for n in range(4, MAX_ATOMS + 1)}
    while any(len(b) < per_size for b in buckets.values()):
        for m in G.gen_synthetic_molecules(64, MAX_ATOMS, VOCAB, BONDS, rng):
            bucket = buckets.get(m.n)
            if bucket is not None and len(bucket) < per_size:
                bucket.append(G.bfs_reorder(m, 0)[0])
    return [m for n in sorted(buckets) for m in buckets[n]]


@dataclass(frozen=True)
class CheckpointInfo:
    file: str
    width: int
    layers: int
    sha256: str

    @property
    def path(self) -> Path:
        return CHECKPOINT_DIR / self.file

    @property
    def spec(self) -> flow.ModelSpec:
        return model_spec(self.width, self.layers)


CHECKPOINTS = {
    "generate": CheckpointInfo(
        "generate_w32_l3.ckpt",
        32,
        3,
        "07d067efdb0b4134eedc77e1e17f9dda45691b04e9395c8fc3f637c084ad9c54",
    ),
    "finetune": CheckpointInfo(
        "finetune_w16_l2.ckpt",
        16,
        2,
        "3485ed6a9b4f5a8e2afbe2216c5dc84f2c866809869b9eea5619d8e7a7969fc1",
    ),
}


class InputError(RuntimeError):
    """A checked-in input does not match the digest recorded for it."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_verified(info: CheckpointInfo) -> flow.FlowParams:
    """Load a checked-in checkpoint after checking its sha256."""
    digest = sha256_file(info.path)
    if digest != info.sha256:
        raise InputError(f"{info.path.name}: sha256 {digest}, expected {info.sha256}")
    return checkpoint.load_checkpoint(info.path, info.spec)
