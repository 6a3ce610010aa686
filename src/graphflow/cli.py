"""Command line entry point.

Every command reads an optional config file, applies flag overrides,
derives its randomness from the run seed through a named sub-stream,
writes artifacts under the output directory, and finishes with a
manifest recording the seed, the config hash, the effective config
verbatim, and a SHA-256 per output file.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import flow, graph, metrics, molt, rl, sampler
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import (
    ConfigError,
    RunConfig,
    library_config,
    load_run_config,
    stream_seed,
    substream,
    vocab_from_config,
    write_manifest,
)
from .graph import GraphError
from .molt import MoltError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting itself."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="run seed (overrides config)")
        p.add_argument("--output", dest="output_dir", metavar="OUTPUT",
                       help="output directory (overrides config)")
        return p

    p = add("gen-data", "generate a dataset and write it as MOLT")
    p.add_argument("--count", type=int, dest="dataset_count", metavar="COUNT",
                   help="number of graphs")

    p = add("train", "fit the flow to a dataset, write a checkpoint")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--data", help="MOLT file to train on (else the config dataset)")

    p = add("sample", "draw molecules from a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint to sample from")
    p.add_argument("--count", type=int, dest="sample_count", metavar="COUNT",
                   help="number of samples")
    p.add_argument("--temperature", type=float, help="latent noise scale")
    p.add_argument("--trace", action="store_true", help="also write per-step traces")

    p = add("evaluate", "score a sample file against a reference set")
    p.add_argument("--samples", required=True, help="MOLT file of generated molecules")
    p.add_argument("--train-data", help="MOLT reference set for novelty and MMD")
    p.add_argument("--csv", action="store_true", help="also write the report as CSV")

    p = add("finetune", "policy-gradient fine-tuning against a scorer")
    p.add_argument("--checkpoint", required=True, help="starting checkpoint")
    p.add_argument("--scorer", help="scorer spec, e.g. toy:atom-count or exec:CMD")
    p.add_argument("--iterations", type=int, dest="rl_iterations", metavar="ITERATIONS",
                   help="fine-tune iterations")

    p = add("optimize-constrained", "improve seed molecules under a similarity floor")
    p.add_argument("--checkpoint", required=True, help="checkpoint to sample from")
    p.add_argument("--molecules", required=True, help="MOLT file of seed molecules")
    p.add_argument("--scorer", help="scorer spec")

    add("selfcheck", "run the invariant suites end to end")
    return parser


def _config_from_args(args) -> RunConfig:
    """The config file plus every given flag whose dest is a config key."""
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {k: str(v) for k, v in vars(args).items() if v is not None and k in keys}
    return load_run_config(args.config, overrides)


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(cfg: RunConfig, path_override=None):
    """(graphs, vocab, bonds) from a MOLT path or the configured generator."""
    vocab, bonds = vocab_from_config(cfg)
    source = path_override if path_override is not None else cfg.dataset
    if source not in ("molecules", "community"):
        text = Path(source).read_text()
        return molt.parse_molt(text, vocab, bonds), vocab, bonds
    rng = substream(cfg.seed, "data")
    if cfg.dataset == "community":
        graphs = graph.gen_community_graphs(
            cfg.dataset_count,
            cfg.dataset_communities,
            cfg.dataset_p_intra,
            cfg.dataset_p_inter,
            rng,
        )
    else:
        graphs = graph.gen_synthetic_molecules(
            cfg.dataset_count, cfg.dataset_max_atoms, vocab, bonds, rng
        )
    return [graph.bfs_reorder(g, 0)[0] for g in graphs], vocab, bonds


def _model_spec(cfg: RunConfig, vocab, bonds) -> flow.ModelSpec:
    return flow.ModelSpec(
        vocab=vocab,
        bonds=bonds,
        width=cfg.width,
        layers=cfg.layers,
        window=cfg.window,
        max_size=cfg.max_size,
    )


def _scorer(cfg: RunConfig, vocab, bonds):
    """The configured scorer; a spec rl.make_scorer rejects is a config error."""
    try:
        return rl.make_scorer(cfg.scorer, vocab, bonds)
    except ValueError as exc:
        raise ConfigError(f"key 'scorer': {exc}") from None


def _write(out: Path, name: str, text: str) -> str:
    (out / name).write_text(text)
    return name


def cmd_gen_data(args) -> int:
    cfg = _config_from_args(args)
    out = _outdir(cfg)
    graphs, vocab, bonds = _load_dataset(cfg)
    outputs = [_write(out, "data.molt", molt.write_molt(graphs, vocab, bonds))]
    write_manifest(out, cfg, outputs)
    print(f"wrote {len(graphs)} graphs to {out / 'data.molt'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    out = _outdir(cfg)
    dataset, vocab, bonds = _load_dataset(cfg, getattr(args, "data", None))
    spec = _model_spec(cfg, vocab, bonds)
    params = flow.init_flow_params(spec, substream(cfg.seed, "init"))
    tcfg = library_config(cfg, flow.TrainConfig)
    nll = flow.train(dataset, params, spec, tcfg, substream(cfg.seed, "noise"))
    save_checkpoint(params, out / "checkpoint.ckpt")
    csv = "epoch,nll\n" + "".join(f"{e},{v:.10g}\n" for e, v in enumerate(nll))
    outputs = ["checkpoint.ckpt", _write(out, "nll.csv", csv)]
    write_manifest(out, cfg, outputs)
    print(f"trained {cfg.epochs} epochs, NLL {nll[0]:.3f} -> {nll[-1]:.3f}")
    return EXIT_OK


def _trace_text(traces) -> str:
    lines = []
    for idx, trace in enumerate(traces):
        lines.append(f"sample {idx} steps {trace.num_steps} "
                     f"termination {trace.termination} rejections {trace.rejections}")
        for st in trace.steps:
            lines.append(f"  {st.kind} i {st.i} j {st.j} action {st.action} "
                         f"rejections {st.rejections}")
    return "\n".join(lines) + "\n"


def cmd_sample(args) -> int:
    cfg = _config_from_args(args)
    out = _outdir(cfg)
    vocab, bonds = vocab_from_config(cfg)
    spec = _model_spec(cfg, vocab, bonds)
    params = load_checkpoint(args.checkpoint, spec)
    graphs, traces = sampler.sample_batch(
        params,
        spec,
        library_config(cfg, sampler.SamplerConfig),
        cfg.sample_count,
        stream_seed(cfg.seed, "sampler"),
    )
    outputs = [_write(out, "samples.molt", molt.write_molt(graphs, vocab, bonds))]
    if args.trace:
        outputs.append(_write(out, "traces.txt", _trace_text(traces)))
    write_manifest(out, cfg, outputs)
    sizes = [g.n for g in graphs]
    print(f"sampled {len(graphs)} molecules, mean size {np.mean(sizes):.2f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    out = _outdir(cfg)
    vocab, bonds = vocab_from_config(cfg)
    samples = molt.parse_molt(
        Path(args.samples).read_text(), vocab, bonds, allow_invalid=True
    )
    train_set = None
    if args.train_data:
        train_set = molt.parse_molt(Path(args.train_data).read_text(), vocab, bonds)
        if len(samples) < 2 or len(train_set) < 2:
            raise GraphError(
                f"MMD needs at least two molecules on each side, got {len(samples)} "
                f"samples and {len(train_set)} reference molecules"
            )
    if not samples:
        raise GraphError(
            f"{args.samples} holds no molecules: validity, uniqueness and novelty "
            "would be rates over none"
        )
    quality = metrics.evaluate_set(samples, vocab, bonds, train_graphs=train_set)
    mmd = {}
    if train_set is not None:
        mmd["degree"] = metrics.mmd_degree(samples, train_set)
        mmd["clustering"] = metrics.mmd_clustering(samples, train_set)
    report = metrics.GenerationReport(quality=quality, mmd=mmd)
    outputs = [_write(out, "report.txt", report.as_text())]
    if args.csv:
        outputs.append(_write(out, "report.csv", report.as_csv()))
    write_manifest(out, cfg, outputs)
    print(report.as_text(), end="")
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = _config_from_args(args)
    out = _outdir(cfg)
    vocab, bonds = vocab_from_config(cfg)
    spec = _model_spec(cfg, vocab, bonds)
    params = load_checkpoint(args.checkpoint, spec)
    scorer = _scorer(cfg, vocab, bonds)
    try:
        rewards = []
        rl.finetune(
            params,
            spec,
            scorer,
            library_config(cfg, rl.RewardConfig),
            library_config(cfg, rl.PpoConfig),
            library_config(cfg, sampler.SamplerConfig),
            cfg.rl_iterations,
            substream(cfg.seed, "rl"),
            log=lambda it, r, loss: rewards.append(r),
        )
    finally:
        scorer.close()
    save_checkpoint(params, out / "finetuned.ckpt")
    csv = "iteration,mean_reward\n" + "".join(
        f"{i},{r:.10g}\n" for i, r in enumerate(rewards)
    )
    outputs = ["finetuned.ckpt", _write(out, "rewards.csv", csv)]
    write_manifest(out, cfg, outputs)
    print(
        f"finetuned {cfg.rl_iterations} iterations, mean reward "
        f"{rewards[0]:.4f} -> {rewards[-1]:.4f}"
    )
    return EXIT_OK


def cmd_optimize_constrained(args) -> int:
    cfg = _config_from_args(args)
    out = _outdir(cfg)
    vocab, bonds = vocab_from_config(cfg)
    spec = _model_spec(cfg, vocab, bonds)
    params = load_checkpoint(args.checkpoint, spec)
    molecules = molt.parse_molt(Path(args.molecules).read_text(), vocab, bonds)
    scorer = _scorer(cfg, vocab, bonds)
    try:
        results = rl.optimize_constrained(
            params,
            spec,
            molecules,
            scorer,
            cfg.constrained_delta,
            cfg.constrained_rounds,
            library_config(cfg, sampler.SamplerConfig),
            substream(cfg.seed, "rl"),
        )
    finally:
        scorer.close()
    csv = "molecule,improvement,similarity,success\n" + "".join(
        f"{i},{r.improvement:.10g},{r.similarity:.10g},{int(r.success)}\n"
        for i, r in enumerate(results)
    )
    outputs = [_write(out, "constrained.csv", csv)]
    write_manifest(out, cfg, outputs)
    successes = sum(r.success for r in results)
    mean_imp = np.mean([r.improvement for r in results]) if results else 0.0
    print(
        f"optimized {len(results)} molecules: success {successes}/{len(results)}, "
        f"mean improvement {mean_imp:.4f}"
    )
    return EXIT_OK


def _selfcheck(cfg: RunConfig) -> int:
    """Fast end-to-end invariant suites; prints one line per suite."""
    vocab, bonds = graph.default_atom_vocab(), graph.default_bond_vocab()
    spec = flow.ModelSpec(
        vocab=vocab, bonds=bonds, width=8, layers=2, window=11, max_size=12
    )
    rng = substream(cfg.seed, "selfcheck")
    failures = 0

    def report(name: str, ok: bool, detail: str):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok

    params = flow.init_flow_params(spec, rng, zero_init_heads=False)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        mu = rng.normal(size=dim)
        alpha = np.exp(rng.normal(size=dim) * 0.5)
        eps = rng.normal(size=dim)
        z = flow.forward_transform(eps, mu, alpha)
        back = flow.inverse_transform(z, mu, alpha)
        worst = max(worst, float(np.max(np.abs(back - eps))))
        z0 = rng.normal(size=dim)
        again = flow.forward_transform(flow.inverse_transform(z0, mu, alpha), mu, alpha)
        worst = max(worst, float(np.max(np.abs(again - z0))))
    report("invertibility", worst < 1e-12, f"max round-trip error {worst:.3e}")

    mols = [
        graph.bfs_reorder(m, 0)[0]
        for m in graph.gen_synthetic_molecules(5, 9, vocab, bonds, rng)
    ]
    worst = 0.0
    for m in mols:
        z = flow.dequantize(m, vocab, bonds, rng, window=spec.window)
        lp = flow.log_likelihood_parallel(m, params, spec, z=z)
        ls = flow.log_likelihood_sequential(m, params, spec, z=z)
        worst = max(worst, abs(lp.total - ls.total))
    report("masking", worst < 1e-9, f"max parallel-sequential gap {worst:.3e}")

    g3 = mols[0]
    if g3.n > 3:
        g3 = graph.MolecularGraph(g3.node_types[:3], g3.categories[:3, :3], g3.no_edge)
    z3 = flow.dequantize(g3, vocab, bonds, rng, window=spec.window)
    named = params.named_tensors()

    def loss():
        return flow.log_likelihood_parallel(g3, params, spec, z=z3, training=True).nll

    from . import autodiff as ad

    rel = ad.grad_check(loss, named, h=1e-5)
    report("gradient", rel < 1e-4, f"max rel err {rel:.3e}")

    graphs, _ = sampler.sample_batch(
        params,
        spec,
        sampler.SamplerConfig(valency_check=True),
        100,
        stream_seed(cfg.seed, "selfcheck-sampler"),
    )
    bad = sum(not graph.valency_ok(g, vocab, bonds) for g in graphs)
    report("valency", bad == 0, f"{100 - bad}/100 samples pass the audit")

    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def cmd_selfcheck(args) -> int:
    return _selfcheck(_config_from_args(args))


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "sample": cmd_sample,
    "evaluate": cmd_evaluate,
    "finetune": cmd_finetune,
    "optimize-constrained": cmd_optimize_constrained,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing command")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MoltError, CheckpointError, FileNotFoundError, GraphError, rl.ScorerError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
