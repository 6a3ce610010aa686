"""Autoregressive normalizing-flow generator for small molecular graphs.

The package covers the full loop: graph containers and valency rules
(`graph`), a reverse-mode tape over numpy (`autodiff`), a relational
graph convolution encoder (`rgcn`), the flow itself with exact
likelihood (`flow`), constrained sampling (`sampler`), policy-gradient
fine-tuning and constrained optimization (`rl`), distribution metrics
(`metrics`), text formats (`molt`, `checkpoint`), and a command line
(`cli`, `config`).
"""

from .autodiff import Tensor, Tape, grad_check
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_run_config, substream
from .flow import (
    FlowParams,
    ModelSpec,
    TrainConfig,
    init_flow_params,
    log_likelihood_parallel,
    log_likelihood_sequential,
    train,
)
from .graph import (
    AtomVocab,
    BondVocab,
    GraphError,
    MolecularGraph,
    bfs_reorder,
    check_valency,
    default_atom_vocab,
    default_bond_vocab,
    gen_community_graphs,
    gen_erdos_renyi,
    gen_synthetic_molecules,
    valency_ok,
)
from .metrics import (
    GenerationReport,
    SampleQuality,
    evaluate_set,
    graphs_isomorphic,
    mmd_clustering,
    mmd_degree,
    mmd_squared,
)
from .molt import MoltError, parse_molt, write_molt
from .rl import (
    PpoConfig,
    RewardConfig,
    ScorerError,
    collect_trajectories,
    compute_action_logprob,
    finetune,
    make_scorer,
    optimize_constrained,
)
from .sampler import SamplerConfig, reconstruct, sample_batch, sample_molecule

__all__ = [
    "AtomVocab",
    "BondVocab",
    "CheckpointError",
    "ConfigError",
    "FlowParams",
    "GenerationReport",
    "GraphError",
    "ModelSpec",
    "MolecularGraph",
    "MoltError",
    "PpoConfig",
    "RewardConfig",
    "RunConfig",
    "SampleQuality",
    "SamplerConfig",
    "ScorerError",
    "Tape",
    "Tensor",
    "TrainConfig",
    "bfs_reorder",
    "check_valency",
    "collect_trajectories",
    "compute_action_logprob",
    "default_atom_vocab",
    "default_bond_vocab",
    "evaluate_set",
    "finetune",
    "gen_community_graphs",
    "gen_erdos_renyi",
    "gen_synthetic_molecules",
    "grad_check",
    "graphs_isomorphic",
    "init_flow_params",
    "load_checkpoint",
    "load_run_config",
    "log_likelihood_parallel",
    "log_likelihood_sequential",
    "make_scorer",
    "mmd_clustering",
    "mmd_degree",
    "mmd_squared",
    "optimize_constrained",
    "parse_molt",
    "reconstruct",
    "sample_batch",
    "sample_molecule",
    "save_checkpoint",
    "substream",
    "train",
    "valency_ok",
    "write_molt",
]
