"""Characterization of what the model computes, pinned in
characterization.json beside this file.

observe() runs fixed-seed models with the benchmark's shapes (width 16
with 2 layers, width 32 with 3 layers; random heads, so every step
has a non-trivial transform) on fixed synthetic molecules, and returns
two tables: values that must reproduce exactly (sampled graphs as MOLT
text, trace actions and rejection counts) and float arrays that must
reproduce to 1e-12 of their largest entry (trace mu/alpha,
log-likelihoods, latents, a short training run and one fine-tuning
iteration). No checkpoint file is read, so the pins move only when the
code's arithmetic does. test_characterization.py compares them.

Regenerate the pins with

    PYTHONPATH=src python tests/characterization.py

A change that regenerates the file changes test data and says why. To
see how far the model has moved from the pins without writing anything,
run it with --diff: it prints each pinned float array's largest
deviation relative to the array's largest entry, and the exact entries
that differ.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from graphflow import flow, molt, rl, sampler
from graphflow import graph as G

PINS = Path(__file__).with_name("characterization.json")
VOCAB = G.default_atom_vocab()
BONDS = G.default_bond_vocab()
# (width, layers, init seed); a window below max_size - 1 makes it bind
MODELS = {"w16l2": (16, 2, 101), "w32l3": (32, 3, 202)}
WINDOW = 5
MAX_SIZE = 10
TEMPERATURE = 0.7
SAMPLES = 8
MOLECULES = 6


def _spec(width: int, layers: int) -> flow.ModelSpec:
    return flow.ModelSpec(
        vocab=VOCAB, bonds=BONDS, width=width, layers=layers, window=WINDOW, max_size=MAX_SIZE
    )


def _model(name: str):
    width, layers, seed = MODELS[name]
    spec = _spec(width, layers)
    return spec, flow.init_flow_params(spec, np.random.default_rng(seed), zero_init_heads=False)


def molecules() -> list:
    """Synthetic molecules in BFS order whose bonds fit the window."""
    rng = np.random.default_rng(7)
    out = []
    while len(out) < MOLECULES:
        for m in G.gen_synthetic_molecules(8, MAX_SIZE, VOCAB, BONDS, rng):
            g = G.bfs_reorder(m, 0)[0]
            if G.max_dependency_distance(g) <= WINDOW and len(out) < MOLECULES:
                out.append(g)
    return out


def _weight_sums(params) -> list:
    arrays = {name: t.data for name, t in params.named_tensors().items()}
    arrays.update(params.named_buffers())
    return [float(a.sum()) for _, a in sorted(arrays.items())]


def _sampling(exact: dict, close: dict, name: str, spec, params) -> None:
    for check in (True, False):
        key = f"{name}.sample.valency_{'on' if check else 'off'}"
        cfg = sampler.SamplerConfig(valency_check=check, temperature=TEMPERATURE)
        graphs, traces = sampler.sample_batch(params, spec, cfg, SAMPLES, seed=3)
        exact[f"{key}.molt"] = molt.write_molt(graphs, VOCAB, BONDS)
        for t, trace in enumerate(traces):
            exact[f"{key}.{t}.steps"] = [
                [s.kind, s.i, s.j, s.action, s.rejections] for s in trace.steps
            ]
            exact[f"{key}.{t}.termination"] = trace.termination
            for kind in ("node", "edge"):
                rows = [s for s in trace.steps if s.kind == kind]
                if rows:
                    close[f"{key}.{t}.{kind}.mu"] = np.stack([s.mu for s in rows])
                    close[f"{key}.{t}.{kind}.alpha"] = np.stack([s.alpha for s in rows])


def _likelihoods(close: dict, name: str, spec, params, mols) -> None:
    rng = np.random.default_rng(11)
    noise = [G.dequantize(g, VOCAB, BONDS, rng, window=WINDOW) for g in mols]
    parallel, sequential = [], []
    for g, z in zip(mols, noise):
        parallel.append(flow.log_likelihood_parallel(g, params, spec, z=z).total)
        sequential.append(flow.log_likelihood_sequential(g, params, spec, z=z).total)
        latent = flow.graph_to_latent(g, params, spec, z=z)
        close[f"{name}.latent.{len(parallel)}.eps_x"] = latent.eps_x
        if latent.eps_a:
            close[f"{name}.latent.{len(parallel)}.eps_a"] = np.stack(
                [latent.eps_a[slot] for slot in sorted(latent.eps_a)]
            )
    close[f"{name}.loglik.parallel"] = np.array(parallel)
    close[f"{name}.loglik.sequential"] = np.array(sequential)
    # training mode last: it moves the batch-norm running buffers
    training = [
        flow.log_likelihood_parallel(g, params, spec, z=z, training=True).total
        for g, z in zip(mols, noise)
    ]
    close[f"{name}.loglik.parallel_training"] = np.array(training)
    for buffer, value in params.named_buffers().items():
        close[f"{name}.{buffer}"] = value


def _training(close: dict, mols) -> None:
    spec, params = _model("w16l2")
    cfg = flow.TrainConfig(epochs=2, batch_size=4, lr=2e-3)
    close["train.nll"] = np.array(flow.train(mols, params, spec, cfg, np.random.default_rng(13)))
    close["train.weight_sums"] = np.array(_weight_sums(params))


def _finetune(close: dict) -> None:
    spec, params = _model("w16l2")
    scorer = rl.make_scorer("toy:atom-fraction:N", VOCAB, BONDS)
    losses = []
    rewards = rl.finetune(
        params, spec, scorer,
        rl.RewardConfig(gamma=0.97, shaping="linear", t1=4.0),
        rl.PpoConfig(updates=2, batch_size=6, lr=2e-3),
        sampler.SamplerConfig(temperature=TEMPERATURE),
        1, np.random.default_rng(17),
        log=lambda it, reward, loss: losses.append(loss),
    )
    close["finetune.rewards"] = np.array(rewards)
    close["finetune.loss"] = np.array(losses)
    close["finetune.weight_sums"] = np.array(_weight_sums(params))


def observe() -> tuple:
    """(exact, close): the observations, keyed by name. exact values are
    strings and nested lists of ints and strings, close values float
    arrays."""
    exact, close = {}, {}
    mols = molecules()
    exact["molecules.molt"] = molt.write_molt(mols, VOCAB, BONDS)
    for name in MODELS:
        spec, params = _model(name)
        _sampling(exact, close, name, spec, params)
        _likelihoods(close, name, spec, params, mols)
    _training(close, mols)
    _finetune(close)
    return exact, close


def diff() -> None:
    """Print how far the observations are from the pins; writes nothing."""
    pins = json.loads(PINS.read_text())
    exact, close = observe()
    for key, value in sorted(close.items()):
        if key not in pins["close"]:
            print(f"{'unpinned':>10}  {key}")
            continue
        pinned = np.asarray(pins["close"][key], dtype=np.float64)
        if value.shape != pinned.shape:
            print(f"{'shape':>10}  {key}: {value.shape} != {pinned.shape}")
            continue
        largest, off = np.abs(pinned).max(), np.abs(value - pinned).max()
        print(f"{off / largest if largest else off:10.3g}  {key}")
    wrong = [k for k, v in exact.items() if json.loads(json.dumps(v)) != pins["exact"].get(k)]
    print(f"exact entries that differ: {len(wrong)} of {len(exact)}", *wrong, sep="\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--diff", action="store_true", help="print the deviations from the pins, write nothing"
    )
    if parser.parse_args(argv).diff:
        diff()
        return
    exact, close = observe()
    pins = {"exact": exact, "close": {k: v.tolist() for k, v in close.items()}}
    PINS.write_text(json.dumps(pins, indent=None, separators=(",", ":")) + "\n")
    print(f"wrote {PINS}: {len(exact)} exact and {len(close)} close entries")


if __name__ == "__main__":
    main()
