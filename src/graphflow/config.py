"""Run configuration: flat key = value files, overrides, and manifests.

A config file is line-oriented. Blank lines and lines starting with #
are skipped; a trailing comment after the value needs whitespace before
the #. Keys are fixed: unknown or duplicate keys are rejected with the
offending name, and every value is validated on load. Command-line
overrides go through the same validation.

Each setting's range has one owner: a key in LIBRARY_KEYS is checked
by the library config it feeds alone, and library_config builds those
configs from the same table; this module checks every other key.

All randomness in a run flows from the single `seed` through named
sub-streams (data, noise, sampler, rl), so any stage can be re-run in
isolation and still see the stream it saw inside the full pipeline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .flow import TrainConfig
from .graph import AtomVocab, BondVocab, community_vocab
from .rl import PpoConfig, RewardConfig
from .sampler import SamplerConfig


class ConfigError(ValueError):
    """Bad config file or override; message names the offending key."""


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass
class RunConfig:
    """Everything one reproducible run needs.

    Model dimensions not listed here (node and edge category counts)
    follow from the vocabularies, which for molecule datasets come from
    the `atoms` and `bond_orders` strings and for the community dataset
    from the community size.
    """

    seed: int = 0
    dataset: str = "molecules"
    dataset_count: int = 500
    dataset_max_atoms: int = 10
    dataset_communities: int = 6
    dataset_p_intra: float = 0.7
    dataset_p_inter: float = 0.05
    atoms: str = "C:4,N:3,O:2"
    bond_orders: str = "1,2,3"
    layers: int = 3
    width: int = 32
    max_size: int = 16
    window: int = 12
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    valency_check: bool = True
    temperature: float = 1.0
    max_resample: int = 100
    sample_count: int = 100
    rl_gamma: float = 0.97
    rl_shaping: str = "linear"
    rl_t1: float = 4.0
    rl_t2: float = 1.0
    rl_clip_ratio: float = 0.2
    rl_warmup: int = 5
    rl_iterations: int = 50
    rl_lr: float = 2e-3
    rl_updates: int = 4
    rl_batch: int = 64
    scorer: str = "toy:atom-count"
    constrained_delta: float = 0.4
    constrained_rounds: int = 20
    output_dir: str = "runs/latest"


_FIELD_TYPES = {f.name: f.type for f in dc_fields(RunConfig)}

_POSITIVE_INT = (
    "dataset_count",
    "dataset_max_atoms",
    "layers",
    "width",
    "max_size",
    "window",
    "sample_count",
    "rl_iterations",
    "constrained_rounds",
)
# Stricter than the library: SamplerConfig allows temperature 0 (greedy
# decoding), but finetune has no greedy policy, and RewardConfig allows
# any finite t1, where t1 <= 0 flattens or inverts the linear reward.
_POSITIVE_FLOAT = ("temperature", "rl_t1")
_UNIT_INTERVAL = ("dataset_p_intra", "dataset_p_inter", "constrained_delta")

# Run key -> (library config class, field); the class owns the key's range.
# Its other fields have valid defaults and no class checks fields against
# each other, so building it with one field checks that key completely.
LIBRARY_KEYS = {
    "epochs": (TrainConfig, "epochs"),
    "batch_size": (TrainConfig, "batch_size"),
    "lr": (TrainConfig, "lr"),
    "beta1": (TrainConfig, "beta1"),
    "beta2": (TrainConfig, "beta2"),
    "valency_check": (SamplerConfig, "valency_check"),
    "temperature": (SamplerConfig, "temperature"),
    "max_resample": (SamplerConfig, "max_resample"),
    "rl_gamma": (RewardConfig, "gamma"),
    "rl_shaping": (RewardConfig, "shaping"),
    "rl_t1": (RewardConfig, "t1"),
    "rl_t2": (RewardConfig, "t2"),
    "rl_clip_ratio": (PpoConfig, "clip_ratio"),
    "rl_updates": (PpoConfig, "updates"),
    "rl_batch": (PpoConfig, "batch_size"),
    "rl_lr": (PpoConfig, "lr"),
    "rl_warmup": (PpoConfig, "warmup"),
}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        if kind == "bool":
            return _parse_bool(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def validate_config(cfg: RunConfig) -> None:
    """Raise ConfigError naming the first field that is out of range."""
    for key in _POSITIVE_INT:
        if getattr(cfg, key) < 1:
            raise ConfigError(f"key {key!r}: must be a positive integer")
    for key in _POSITIVE_FLOAT:
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"key {key!r}: must be positive")
    for key in _UNIT_INTERVAL:
        if not 0.0 <= getattr(cfg, key) <= 1.0:
            raise ConfigError(f"key {key!r}: must be within [0, 1]")
    if cfg.seed < 0:
        raise ConfigError("key 'seed': must be non-negative")
    for key, (cls, field) in LIBRARY_KEYS.items():
        try:
            cls(**{field: getattr(cfg, key)})
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    if cfg.dataset not in ("molecules", "community") and not cfg.dataset.endswith(
        ".molt"
    ):
        raise ConfigError(
            "key 'dataset': must be molecules, community, or a .molt path"
        )
    if cfg.dataset == "community":
        if cfg.dataset_communities < 2:
            raise ConfigError(
                "key 'dataset_communities': need at least 2 nodes per side"
            )
        if cfg.max_size < 2 * cfg.dataset_communities:
            raise ConfigError(
                "key 'max_size': smaller than a full two-community graph "
                f"({2 * cfg.dataset_communities} nodes)"
            )
    if not (cfg.scorer.startswith("toy:") or cfg.scorer.startswith("exec:")):
        raise ConfigError("key 'scorer': must start with toy: or exec:")
    if cfg.max_size < 2:
        raise ConfigError("key 'max_size': need room for at least 2 atoms")
    try:
        vocab_from_config(cfg)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"key 'atoms'/'bond_orders': {exc}") from None


def library_config(cfg: RunConfig, cls):
    """The cls instance built from the LIBRARY_KEYS entries of cfg."""
    return cls(**{f: getattr(cfg, k) for k, (owner, f) in LIBRARY_KEYS.items() if owner is cls})


def parse_config_text(text: str) -> dict:
    """key = value lines to a raw string dict; duplicates are errors."""
    out = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        body = stripped.split(" #", 1)[0].strip()
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {body!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        out[key] = raw
    return out


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the file, then overrides; validates the result.

    Overrides are raw strings (flag values) and run through the same
    conversion as file values.
    """
    cfg = RunConfig()
    if path is not None:
        text = Path(path).read_text()
        for key, raw in parse_config_text(text).items():
            setattr(cfg, key, _convert(key, raw))
    for key, raw in (overrides or {}).items():
        setattr(cfg, key, _convert(key, str(raw)))
    validate_config(cfg)
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Canonical key = value dump; parses back to an equal config."""
    lines = [f"{f.name} = {_fmt(getattr(cfg, f.name))}" for f in dc_fields(RunConfig)]
    return "\n".join(lines) + "\n"


def vocab_from_config(cfg: RunConfig):
    """(AtomVocab, BondVocab) implied by the dataset choice."""
    if cfg.dataset == "community":
        return community_vocab(cfg.dataset_communities)
    symbols = []
    valences = []
    for part in cfg.atoms.split(","):
        part = part.strip()
        if not part:
            continue
        sym, _, val = part.partition(":")
        if not sym or not val:
            raise ConfigError(f"key 'atoms': expected SYMBOL:VALENCE, got {part!r}")
        try:
            valences.append(int(val))
        except ValueError:
            raise ConfigError(f"key 'atoms': bad valence in {part!r}") from None
        symbols.append(sym.strip())
    if not symbols:
        raise ConfigError("key 'atoms': no atom types given")
    try:
        orders = tuple(int(tok) for tok in cfg.bond_orders.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"key 'bond_orders': bad order in {cfg.bond_orders!r}") from None
    if not orders:
        raise ConfigError("key 'bond_orders': no bond orders given")
    return AtomVocab(symbols=tuple(symbols), valences=tuple(valences)), BondVocab(
        orders=orders
    )


def stream_seed(seed: int, name: str) -> int:
    """Deterministic 128-bit seed for the named sub-stream of a run."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator derived from the run seed and a stream name."""
    return np.random.default_rng(stream_seed(seed, name))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, cfg: RunConfig, output_names) -> Path:
    """Record seed, config hash, per-output hashes, and the config verbatim.

    output_names are paths relative to out_dir, hashed in sorted order so
    the manifest itself is deterministic.
    """
    out_dir = Path(out_dir)
    cfg_text = render_config(cfg)
    lines = [
        "# run manifest",
        f"seed = {cfg.seed}",
        f"config_sha256 = {sha256_text(cfg_text)}",
    ]
    for name in sorted(str(n) for n in output_names):
        lines.append(f"output {name} = {sha256_file(out_dir / name)}")
    lines.append("# --- effective config ---")
    manifest = "\n".join(lines) + "\n" + cfg_text
    path = out_dir / "manifest.txt"
    path.write_text(manifest)
    return path
