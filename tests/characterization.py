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
run it with --diff: it prints the largest deviation of each pinned
float array that moved, relative to the array's largest entry, then
every violation of the pins, and exits 1 if there is one. compare()
holds the rule, for --diff and for the test alike: exact entries
equal, every float array within RELATIVE (1e-12) of its largest entry.
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
# tighter than every oracle bound, yet admits last-bit changes in
# summation order
RELATIVE = 1e-12


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


def compare(pins: dict, exact: dict, close: dict) -> tuple:
    """(moved, violations) of the observations against the pins. moved
    maps every pinned float array that differs at all to its largest
    deviation relative to its largest entry. violations lists what
    breaks the rule the test holds, one line each: a key missing on
    either side, an exact entry that differs, and a float array of
    another shape or off by more than RELATIVE of its largest entry."""
    violations = [
        f"{key}: {'not pinned' if key in table else 'not observed'}"
        for table, pinned in ((exact, pins["exact"]), (close, pins["close"]))
        for key in sorted(set(table) ^ set(pinned))
    ]
    # json keeps lists, not tuples: compare through one round trip
    violations += [
        f"{key}: exact entry differs"
        for key, value in sorted(exact.items())
        if key in pins["exact"] and json.loads(json.dumps(value)) != pins["exact"][key]
    ]
    moved = {}
    for key, value in sorted(close.items()):
        if key not in pins["close"]:
            continue
        pinned = np.asarray(pins["close"][key], dtype=np.float64)
        if value.shape != pinned.shape:
            violations.append(f"{key}: shape {value.shape} != {pinned.shape}")
            continue
        off, largest = np.abs(value - pinned).max(), np.abs(pinned).max()
        if off > 0.0:
            moved[key] = off / largest if largest else np.inf
        if off > RELATIVE * largest:
            violations.append(f"{key}: off by {moved[key]:.3g} of its largest entry")
    return moved, violations


def diff() -> int:
    """Print the pinned float arrays that moved and every violation of
    the pins; writes nothing. Returns 1 if there is a violation."""
    moved, violations = compare(json.loads(PINS.read_text()), *observe())
    for key, rel in moved.items():
        print(f"{rel:10.3g}  {key}")
    print(f"{len(moved)} arrays moved, {len(violations)} violations", *violations, sep="\n")
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--diff", action="store_true", help="print the deviations from the pins, write nothing"
    )
    if parser.parse_args(argv).diff:
        return diff()
    exact, close = observe()
    pins = {"exact": exact, "close": {k: v.tolist() for k, v in close.items()}}
    PINS.write_text(json.dumps(pins, indent=None, separators=(",", ":")) + "\n")
    print(f"wrote {PINS}: {len(exact)} exact and {len(close)} close entries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
