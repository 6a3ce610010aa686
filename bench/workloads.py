"""The three workloads: train, generate, finetune.

Each is a batch job with a single caller (a closed loop with one
client). A workload prepares its inputs from the workload seed, then runs
rounds: one round is one unit of the job, deterministic given the seed
and the round index, so a traced replay of the same rounds must give the
same outputs bit for bit. Rounds are timed; checks run outside the timed
parts.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

from graphflow import flow, metrics, molt, rl, sampler
from graphflow import graph as G
from graphflow.config import stream_seed

import inputs
import pace

# pinned tolerance between the stacked and the step-by-step likelihood
PARALLEL_SEQUENTIAL_TOL = 1e-9
LIKELIHOOD_CHECK_GRAPHS = 3


@dataclass
class Iteration:
    """One iteration of the job: an epoch, a sampled batch or a PPO step."""

    seconds: float
    units: int  # graphs trained, molecules sampled or episodes collected
    steps: int  # generation decisions those units hold
    phases: dict = field(default_factory=dict)  # phase name -> seconds


@dataclass
class Round:
    """Timings, work and outputs of one round."""

    iterations: list
    output: object  # compared bit for bit between traced and untraced runs
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    pace: float = 1.0  # machine pace around the round, see pace.py


def plan_steps(n: int, window: int) -> int:
    """Node plus in-window edge steps of an n-node graph."""
    return sum(1 + min(i, window) for i in range(n))


def likelihood_gap(params, spec, graphs, seed: int) -> float:
    """Largest |parallel - sequential| log-likelihood over the graphs."""
    worst = 0.0
    for idx, g in enumerate(graphs):
        rng = np.random.default_rng([seed, idx])
        z = G.dequantize(g, spec.vocab, spec.bonds, rng, window=spec.window)
        par = flow.log_likelihood_parallel(g, params, spec, z=z)
        seq = flow.log_likelihood_sequential(g, params, spec, z=z)
        worst = max(worst, abs(par.total - seq.total))
    return worst


class Workload:
    name = ""
    # Traced layers predicted to be called; every other traced layer is
    # predicted idle. reached_names lists names, as callers look them up,
    # that the wrappers must see calls through.
    busy_layers: frozenset = frozenset()
    reached_names: frozenset = frozenset()
    uses_checkpoint = False
    # graphs_per_s and steps_per_s divide by this phase's time (None: the
    # whole iteration)
    rate_phase = None

    def __init__(self, seed: int):
        self.seed = seed

    def load(self) -> None:
        """Build or read this workload's inputs."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Touch every code path once, on throwaway state."""
        raise NotImplementedError

    def run_round(self, index: int, tracer=None) -> Round:
        raise NotImplementedError

    def final_problems(self) -> list:
        """Checks that run once, after every round."""
        raise NotImplementedError

    def round_seed(self, index: int) -> int:
        return stream_seed(self.seed, f"{self.name}:round:{index}")


class Train(Workload):
    """`flow.train` from fresh parameters on synthetic molecules.

    The stacked path does all the work: encode_step_batch, step masks,
    Tape.backward and Adam. No sampler, no per-step encode.
    """

    name = "train"
    busy_layers = frozenset({
        "flow.train", "flow.log_likelihood_parallel", "flow.heads",
        "graph.dequantize", "graph.bfs_reorder",
        "rgcn.encode_step_batch", "rgcn.build_step_masks",
        "autodiff.backward", "autodiff.adam_step",
    })
    reached_names = frozenset({
        "flow.dequantize", "flow.node_conditional", "flow.edge_conditional",
        "flow.log_likelihood_parallel", "graph.bfs_reorder", "rgcn.encode_step_batch",
        "rgcn.build_step_masks", "autodiff.adam_step", "autodiff.Tape.backward",
    })
    spec = inputs.model_spec(width=16, layers=2)
    per_size = 14  # molecules of each atom count 4..10
    config = flow.TrainConfig(epochs=3, batch_size=32, lr=2e-3)

    def load(self):
        self.dataset = inputs.molecules_by_size(self.per_size, self.seed)
        self.steps_per_epoch = sum(plan_steps(g.n, self.spec.window) for g in self.dataset)
        self.first_trace = None
        self.last_params = None

    def warm_up(self):
        params = flow.init_flow_params(self.spec, np.random.default_rng(0))
        warm = flow.TrainConfig(epochs=1, batch_size=4, lr=self.config.lr)
        flow.train(self.dataset[:4], params, self.spec, warm, np.random.default_rng(0))

    def run_round(self, index, tracer=None):
        # every round is the same training run: fresh parameters, same noise
        params = flow.init_flow_params(self.spec, np.random.default_rng(stream_seed(self.seed, "init")))
        rng = np.random.default_rng(stream_seed(self.seed, "noise"))
        t0 = time.perf_counter()
        nll = flow.train(self.dataset, params, self.spec, self.config, rng)
        seconds = time.perf_counter() - t0
        problems = []
        if not all(math.isfinite(v) for v in nll):
            problems.append(f"round {index}: non-finite NLL trace {nll}")
        elif not nll[-1] < nll[0]:
            problems.append(f"round {index}: NLL did not decrease: {nll}")
        if self.first_trace is None:
            self.first_trace = nll
        elif nll != self.first_trace:
            problems.append(f"round {index}: NLL trace differs from round 0")
        self.last_params = params
        epochs = self.config.epochs
        units = len(self.dataset) * epochs
        # flow.train reports no per-epoch times; each epoch gets the mean
        epoch = Iteration(seconds / epochs, len(self.dataset), self.steps_per_epoch)
        return Round(
            iterations=[epoch] * epochs,
            output=nll,
            attempted=units,
            failed=units if problems else 0,
            problems=problems,
        )

    def final_problems(self):
        if self.last_params is None:
            return []
        largest = self.dataset[-LIKELIHOOD_CHECK_GRAPHS:]
        gap = likelihood_gap(self.last_params, self.spec, largest, self.seed)
        if gap > PARALLEL_SEQUENTIAL_TOL:
            return [f"trained model: parallel vs sequential log-likelihood gap {gap:.3e}"]
        return []

    def summary(self, rounds):
        its = iterations(rounds)
        return {
            "train.graphs_per_s": (total(its, "units") / total(its, "seconds"), "1/s"),
            "train.nll_final": (rounds[0].output[-1], "nats"),
        }


class Generate(Workload):
    """Sample from the width-32, 3-layer checkpoint with valency checks on,
    round-trip the molecules through MOLT and score them against the
    training set: the steps `graphflow sample` and `graphflow evaluate`
    run. One rgcn.encode plus a one-row head call per generation step;
    no backward pass.
    """

    name = "generate"
    busy_layers = frozenset({
        "sampler.sample_batch", "sampler.sample_molecule", "rgcn.encode", "flow.heads",
        "graph.check_valency", "molt.write_molt", "molt.parse_molt",
        "metrics.evaluate_set", "metrics.valency_ok", "metrics.canonical_hash",
        "metrics.graphs_isomorphic", "metrics.mmd_degree", "metrics.mmd_clustering",
        "metrics.mmd_squared",
    })
    reached_names = frozenset({
        "sampler.sample_molecule", "sampler.check_valency", "sampler.node_conditional",
        "sampler.edge_conditional", "rgcn.encode", "molt.write_molt", "molt.parse_molt",
        "metrics.valency_ok", "metrics.canonical_hash", "metrics.graphs_isomorphic",
        "metrics.mmd_squared",
    })
    uses_checkpoint = True
    rate_phase = "sample"
    batch = 100
    sampler_cfg = sampler.SamplerConfig(valency_check=True)
    resample_indices = (0, 1, 2)

    def load(self):
        info = inputs.CHECKPOINTS["generate"]
        self.spec = info.spec
        self.params = inputs.load_verified(info)
        self.reference = inputs.synthetic_molecules(
            inputs.CHECKPOINT_DATA_COUNT, inputs.CHECKPOINT_DATA_SEED
        )
        self.first_graphs = None

    def warm_up(self):
        params = copy.deepcopy(self.params)
        graphs, _ = sampler.sample_batch(params, self.spec, self.sampler_cfg, 4, seed=0)
        self._evaluate(graphs)

    def _evaluate(self, graphs):
        text = molt.write_molt(graphs, self.spec.vocab, self.spec.bonds)
        parsed = molt.parse_molt(text, self.spec.vocab, self.spec.bonds, allow_invalid=True)
        quality = metrics.evaluate_set(
            parsed, self.spec.vocab, self.spec.bonds, train_graphs=self.reference
        )
        mmd_degree = metrics.mmd_degree(parsed, self.reference)
        mmd_clustering = metrics.mmd_clustering(parsed, self.reference)
        return parsed, quality, mmd_degree, mmd_clustering

    def run_round(self, index, tracer=None):
        seed = self.round_seed(index)
        t0 = time.perf_counter()
        graphs, traces = sampler.sample_batch(
            self.params, self.spec, self.sampler_cfg, self.batch, seed=seed
        )
        t1 = time.perf_counter()
        parsed, quality, mmd_degree, mmd_clustering = self._evaluate(graphs)
        t2 = time.perf_counter()
        problems = []
        bad = 0
        for k, g in enumerate(graphs):
            if not (
                G.valency_ok(g, self.spec.vocab, self.spec.bonds)
                and G.is_connected(g)
                and g.n <= self.spec.max_size
            ):
                bad += 1
                problems.append(f"round {index} sample {k}: invalid, disconnected or oversized")
        if parsed != graphs:
            bad = len(graphs)
            problems.append(f"round {index}: MOLT round trip changed the molecules")
        if quality.num_samples != len(graphs) or quality.num_valid != len(graphs):
            problems.append(f"round {index}: evaluate_set counted {quality}")
        if not (math.isfinite(mmd_degree) and math.isfinite(mmd_clustering)):
            problems.append(f"round {index}: non-finite MMD")
        if self.first_graphs is None:
            self.first_graphs = (seed, graphs)
        steps = sum(t.num_steps for t in traces)
        phases = {"sample": t1 - t0, "evaluate": t2 - t1}
        return Round(
            iterations=[Iteration(t2 - t0, len(graphs), steps, phases)],
            output=(graphs, quality, mmd_degree, mmd_clustering),
            attempted=len(graphs),
            failed=bad,
            problems=problems,
        )

    def final_problems(self):
        problems = []
        if self.first_graphs is not None:
            # sampling a fixed subset of round 0's seeds again gives the same graphs
            seed, graphs = self.first_graphs
            children = np.random.SeedSequence(seed).spawn(self.batch)
            for k in self.resample_indices:
                g, _ = sampler.sample_molecule(
                    self.params, self.spec, self.sampler_cfg, np.random.default_rng(children[k])
                )
                if g != graphs[k]:
                    problems.append(f"resampling round 0 sample {k} gave another graph")
        gap = likelihood_gap(
            self.params, self.spec, self.reference[:LIKELIHOOD_CHECK_GRAPHS], self.seed
        )
        if gap > PARALLEL_SEQUENTIAL_TOL:
            problems.append(f"generate checkpoint: parallel vs sequential gap {gap:.3e}")
        return problems

    def summary(self, rounds):
        its = iterations(rounds)
        sample_s = total(its, "sample")
        return {
            "sample.mols_per_s": (total(its, "units") / sample_s, "1/s"),
            "sample.steps_per_s": (total(its, "steps") / sample_s, "1/s"),
            "evaluate_s": (total(its, "evaluate") / len(its), "s"),
        }


class CountingScorer:
    """Counts scorer failures, which `rl.finetune` otherwise drops."""

    def __init__(self, inner):
        self.inner = inner
        self.failures = 0

    def score(self, g):
        try:
            return self.inner.score(g)
        except rl.ScorerError:
            self.failures += 1
            raise


class Finetune(Workload):
    """`rl.finetune` from the width-16, 2-layer checkpoint with the
    toy:atom-fraction:N scorer and the PPO settings of
    demos/03_property_finetune.py. Collection is the per-episode sampler
    plus quadrature grids; the update is a stacked encode with backward
    over 16-trajectory chunks.
    """

    name = "finetune"
    busy_layers = frozenset({
        "rl.finetune", "rl.collect_trajectories", "rl.build_trajectory",
        "rl.argmax_region_grid", "rl.scorer", "sampler.sample_molecule", "rgcn.encode",
        "flow.heads", "graph.check_valency", "rgcn.encode_step_batch",
        "rgcn.build_step_masks", "autodiff.backward", "autodiff.adam_step",
    })
    reached_names = frozenset({
        "rl.sample_molecule", "rl.adam_step", "rl.collect_trajectories",
        "rl.build_trajectory", "rl.argmax_region_grid", "sampler.check_valency",
        "sampler.node_conditional", "sampler.edge_conditional", "flow.node_conditional",
        "flow.edge_conditional", "rgcn.encode", "rgcn.encode_step_batch",
        "autodiff.Tape.backward",
    })
    uses_checkpoint = True
    iterations = 1  # PPO iterations per round, each round from the checkpoint
    reward_cfg = rl.RewardConfig(gamma=0.97, shaping="linear", t1=4.0)
    ppo_cfg = rl.PpoConfig(clip_ratio=0.2, updates=4, batch_size=64, lr=2e-3, warmup=5)
    sampler_cfg = sampler.SamplerConfig()
    scorer_spec = "toy:atom-fraction:N"

    def load(self):
        info = inputs.CHECKPOINTS["finetune"]
        self.spec = info.spec
        self.params = inputs.load_verified(info)

    def _scorer(self, tracer):
        scorer = CountingScorer(rl.make_scorer(self.scorer_spec, self.spec.vocab, self.spec.bonds))
        return tracer.wrap_scorer(scorer) if tracer is not None else scorer

    def warm_up(self):
        params = copy.deepcopy(self.params)
        cfg = rl.PpoConfig(updates=1, batch_size=4, lr=self.ppo_cfg.lr)
        scorer = self._scorer(None)
        rl.finetune(
            params, self.spec, scorer, self.reward_cfg, cfg, self.sampler_cfg, 1,
            np.random.default_rng(0),
        )

    def run_round(self, index, tracer=None):
        # finetune mutates weights and BN state: every round starts from a copy
        params = copy.deepcopy(self.params)
        scorer = self._scorer(tracer)
        rng = np.random.default_rng(self.round_seed(index))
        collect_spans = []
        marks = []
        rewards = []
        losses = []
        collect = rl.collect_trajectories

        def timed_collect(*args, **kwargs):
            c0 = time.perf_counter()
            out = collect(*args, **kwargs)
            c1 = time.perf_counter()
            collect_spans.append((c0, c1, sum(t.num_steps for t in out[0])))
            return out

        def log(it, reward, loss):
            marks.append(time.perf_counter())
            rewards.append(reward)
            losses.append(loss)

        rl.collect_trajectories = timed_collect
        try:
            t0 = time.perf_counter()
            rl.finetune(
                params, self.spec, scorer, self.reward_cfg, self.ppo_cfg, self.sampler_cfg,
                self.iterations, rng, log=log,
            )
        finally:
            rl.collect_trajectories = collect
        its = [
            # the update is everything after collection until the iteration ends
            Iteration(end - start, self.ppo_cfg.batch_size, steps, {"collect": c1 - c0, "update": end - c1})
            for start, end, (c0, c1, steps) in zip([t0] + marks[:-1], marks, collect_spans)
        ]
        problems = []
        if not all(math.isfinite(v) for v in rewards + losses):
            problems.append(f"round {index}: non-finite reward or loss {rewards} {losses}")
        if scorer.failures:
            problems.append(f"round {index}: {scorer.failures} scorer failures")
        episodes = self.iterations * self.ppo_cfg.batch_size
        return Round(
            iterations=its,
            output=(rewards, losses),
            attempted=episodes,
            failed=scorer.failures,
            problems=problems,
        )

    def final_problems(self):
        gap = likelihood_gap(self.params, self.spec, self._check_graphs(), self.seed)
        if gap > PARALLEL_SEQUENTIAL_TOL:
            return [f"finetune checkpoint: parallel vs sequential gap {gap:.3e}"]
        return []

    def _check_graphs(self):
        return inputs.synthetic_molecules(LIKELIHOOD_CHECK_GRAPHS, self.seed)

    def summary(self, rounds):
        its = iterations(rounds)
        return {
            "ppo.iter_s": (total(its, "seconds") / len(its), "s"),
            "ppo.collect_s": (total(its, "collect") / len(its), "s"),
            "ppo.update_s": (total(its, "update") / len(its), "s"),
        }


def run_rounds(workload, seconds=None, count=None, tracer=None) -> list:
    """Rounds 0, 1, ... until `seconds` have passed (at least one round)
    or `count` rounds have run; each gets the machine pace around it."""
    rounds = []
    before = pace.sample()
    start = time.perf_counter()
    while not rounds or (
        len(rounds) < count if count is not None else time.perf_counter() - start < seconds
    ):
        r = workload.run_round(len(rounds), tracer=tracer)
        after = pace.sample()
        r.pace = 0.5 * (before + after)
        before = after
        rounds.append(r)
    return rounds


def iterations(rounds, raw: bool = False) -> list:
    """Every iteration of the rounds, in paced seconds unless raw."""
    if raw:
        return [it for r in rounds for it in r.iterations]
    return [
        Iteration(
            it.seconds / r.pace,
            it.units,
            it.steps,
            {name: t / r.pace for name, t in it.phases.items()},
        )
        for r in rounds
        for it in r.iterations
    ]


def total(its, key: str) -> float:
    """Sum of an Iteration field, or of a phase's seconds, over iterations."""
    if key in ("seconds", "units", "steps"):
        return sum(getattr(it, key) for it in its)
    return sum(it.phases[key] for it in its)


WORKLOADS = {w.name: w for w in (Train, Generate, Finetune)}
