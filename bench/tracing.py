"""Span tracing of graphflow's layers from outside the program.

`Tracer.install()` swaps each traced function for a wrapper that records
a span (name, start, end, parent) and a few counts. The swap replaces
every name that is bound to the original function in any graphflow
module, because several callers import functions by name
(`sampler.check_valency`, `rl.sample_molecule`, `rl.adam_step`, ...) and
patching only the defining module would miss those calls. Methods
(`Tape.backward`, `Tensor.__init__`) are swapped on their class.

Spans are kept in memory and written out at the end. A span's self time
is its duration minus the durations of its direct child spans; the run
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from pathlib import Path

import graphflow
from graphflow import autodiff, checkpoint, flow, graph, metrics, molt, rgcn, rl, sampler

import workloads

MODULES = (graphflow, graph, autodiff, rgcn, flow, sampler, rl, metrics, molt, checkpoint)

_clock = time.perf_counter_ns


def _count_encode(counts, args, kwargs, out):
    counts["rgcn.encode.nodes"] += args[0].n


def _count_step_batch(counts, args, kwargs, out):
    counts["rgcn.encode_step_batch.states"] += len(args[1])


def _count_backward(counts, args, kwargs, out):
    counts["autodiff.backward.tape_nodes"] += len(args[0].nodes)


def _count_sample(counts, args, kwargs, out):
    g, trace = out
    cfg = args[2]
    seed = kwargs.get("seed_graph", args[4] if len(args) > 4 else None)
    node_steps = sum(1 for s in trace.steps if s.kind == "node")
    edge_steps = len(trace.steps) - node_steps
    fallbacks = sum(
        1 for s in trace.steps if s.kind == "edge" and s.rejections >= cfg.max_resample
    )
    counts["sampler.steps"] += len(trace.steps)
    counts["sampler.rejections"] += trace.rejections
    counts["sampler.fallbacks"] += fallbacks
    counts["sampler.edge_steps"] += edge_steps
    # a fallback slot drew max_resample rejected proposals and no accepted one
    counts["sampler.proposals"] += edge_steps - fallbacks + trace.rejections
    counts["sampler.node_steps"] += node_steps
    counts["sampler.kept_nodes"] += g.n - (seed.n if seed is not None else 0)


def _count_isomorphic(counts, args, kwargs, out):
    counts["metrics.graphs_isomorphic.true"] += bool(out)


# (span name, module holding the definition, attribute, extra counter)
FUNCTIONS = (
    ("graph.dequantize", graph, "dequantize", None),
    ("graph.bfs_reorder", graph, "bfs_reorder", None),
    ("graph.check_valency", graph, "check_valency", None),
    ("rgcn.encode", rgcn, "encode", _count_encode),
    ("rgcn.encode_step_batch", rgcn, "encode_step_batch", _count_step_batch),
    ("rgcn.build_step_masks", rgcn, "build_step_masks", None),
    ("flow.heads", flow, "node_conditional", None),
    ("flow.heads", flow, "edge_conditional", None),
    ("flow.log_likelihood_parallel", flow, "log_likelihood_parallel", None),
    ("flow.train", flow, "train", None),
    ("autodiff.adam_step", autodiff, "adam_step", None),
    ("sampler.sample_batch", sampler, "sample_batch", None),
    ("sampler.sample_molecule", sampler, "sample_molecule", _count_sample),
    ("rl.finetune", rl, "finetune", None),
    ("rl.collect_trajectories", rl, "collect_trajectories", None),
    ("rl.build_trajectory", rl, "build_trajectory", None),
    ("rl.argmax_region_grid", rl, "argmax_region_grid", None),
    ("metrics.evaluate_set", metrics, "evaluate_set", None),
    ("metrics.canonical_hash", metrics, "canonical_hash", None),
    ("metrics.graphs_isomorphic", metrics, "graphs_isomorphic", _count_isomorphic),
    ("metrics.mmd_degree", metrics, "mmd_degree", None),
    ("metrics.mmd_clustering", metrics, "mmd_clustering", None),
    ("metrics.mmd_squared", metrics, "mmd_squared", None),
    ("metrics.valency_ok", graph, "valency_ok", None),
    ("molt.write_molt", molt, "write_molt", None),
    ("molt.parse_molt", molt, "parse_molt", None),
    ("checkpoint.load_checkpoint", checkpoint, "load_checkpoint", None),
)

METHODS = (("autodiff.backward", autodiff.Tape, "backward", _count_backward),)

SPANS = frozenset(name for name, *_ in FUNCTIONS + METHODS) | {"rl.scorer"}

# Per-layer metrics as (name, unit). calls and self_s come from spans, the
# rest from counts kept at the same boundaries. A ratio with no attempts
# reads 0.
LAYER_METRICS = (
    ("graph.dequantize.calls", "count"),
    ("graph.dequantize.self_s", "s"),
    ("graph.bfs_reorder.calls", "count"),
    ("graph.bfs_reorder.self_s", "s"),
    ("graph.check_valency.calls", "count"),
    ("graph.check_valency.self_s", "s"),
    ("rgcn.encode.calls", "count"),
    ("rgcn.encode.nodes", "count"),
    ("rgcn.encode.self_s", "s"),
    ("rgcn.encode_step_batch.calls", "count"),
    ("rgcn.encode_step_batch.states", "count"),
    ("rgcn.encode_step_batch.self_s", "s"),
    ("rgcn.build_step_masks.self_s", "s"),
    ("flow.heads.calls", "count"),
    ("flow.heads.self_s", "s"),
    ("flow.log_likelihood_parallel.self_s", "s"),
    ("autodiff.backward.calls", "count"),
    ("autodiff.backward.tape_nodes", "count"),
    ("autodiff.backward.self_s", "s"),
    ("autodiff.adam_step.calls", "count"),
    ("autodiff.adam_step.self_s", "s"),
    ("autodiff.tensors", "count"),
    ("sampler.sample_molecule.calls", "count"),
    ("sampler.sample_molecule.self_s", "s"),
    ("sampler.steps", "count"),
    ("sampler.rejections", "count"),
    ("sampler.fallbacks", "count"),
    ("sampler.bond_accept_ratio", "ratio"),
    ("sampler.kept_node_ratio", "ratio"),
    ("rl.collect_trajectories.self_s", "s"),
    ("rl.build_trajectory.calls", "count"),
    ("rl.build_trajectory.self_s", "s"),
    ("rl.argmax_region_grid.calls", "count"),
    ("rl.argmax_region_grid.self_s", "s"),
    ("rl.scorer.calls", "count"),
    ("rl.scorer.self_s", "s"),
    ("rl.scored_ratio", "ratio"),
    ("metrics.canonical_hash.calls", "count"),
    ("metrics.canonical_hash.self_s", "s"),
    ("metrics.graphs_isomorphic.calls", "count"),
    ("metrics.graphs_isomorphic.self_s", "s"),
    ("metrics.iso_confirm_ratio", "ratio"),
    ("metrics.mmd_squared.self_s", "s"),
    ("metrics.valency_ok.self_s", "s"),
    ("molt.write_molt.self_s", "s"),
    ("molt.parse_molt.self_s", "s"),
    ("checkpoint.load_checkpoint.self_s", "s"),
)


class Tracer:
    """Records spans while `active`; wrappers installed by `install()`."""

    def __init__(self):
        self.active = False
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and count recorded so far."""
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: Counter = Counter()
        self._open: list = []  # indices of spans not yet closed

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self._open.append(idx)
        self.starts.append(_clock())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._open.pop()

    def _wrap(self, name, fn, count, via):
        """Wrapper recording span `name`; `via` counts the name it was
        called through, so a test can prove each bound name is reached."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            tracer.counts[via] += 1
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        return traced

    def wrap_scorer(self, scorer):
        """Trace a scorer object's `score` calls as `rl.scorer`."""
        scorer.score = self._wrap("rl.scorer", scorer.score, None, "via.rl.scorer")
        return scorer

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Swap every traced function, at every name it is bound to."""
        for name, home, attr, count in FUNCTIONS:
            original = getattr(home, attr)
            for module in MODULES:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        via = f"via.{module.__name__}.{bound}"
                        self._undo.append((module, bound, original))
                        setattr(module, bound, self._wrap(name, original, count, via))
        for name, cls, attr, count in METHODS:
            original = getattr(cls, attr)
            self._undo.append((cls, attr, original))
            via = f"via.{cls.__module__}.{cls.__name__}.{attr}"
            setattr(cls, attr, self._wrap(name, original, count, via))
        tensor_init = autodiff.Tensor.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            if tracer.active:
                tracer.counts["autodiff.tensors"] += 1
            tensor_init(obj, *args, **kwargs)

        self._undo.append((autodiff.Tensor, "__init__", tensor_init))
        autodiff.Tensor.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def aggregates(self):
        """(calls, self seconds) per span name."""
        n = len(self.names)
        child_ns = [0] * n
        for idx in range(n):
            parent = self.parents[idx]
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for idx, name in enumerate(self.names):
            calls[name] += 1
            self_ns[name] += self.ends[idx] - self.starts[idx] - child_ns[idx]
        return calls, {name: ns / 1e9 for name, ns in self_ns.items()}

    def layer_metrics(self) -> dict:
        calls, self_s = self.aggregates()
        counts = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for metric, unit in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                value = calls[layer]
            elif field == "self_s":
                value = self_s.get(layer, 0.0)
            elif metric == "sampler.bond_accept_ratio":
                value = ratio(counts["sampler.edge_steps"], counts["sampler.proposals"])
            elif metric == "sampler.kept_node_ratio":
                value = ratio(counts["sampler.kept_nodes"], counts["sampler.node_steps"])
            elif metric == "rl.scored_ratio":
                # a wrapper counts its call name only when the call returns
                value = ratio(counts["via.rl.scorer"], calls["rl.scorer"])
            elif metric == "metrics.iso_confirm_ratio":
                value = ratio(
                    counts["metrics.graphs_isomorphic.true"], calls["metrics.graphs_isomorphic"]
                )
            else:
                value = counts[metric]
            values[metric] = {"value": value, "unit": unit}
        return values

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for idx, name in enumerate(self.names):
                fh.write(
                    f"{idx}\t{self.parents[idx]}\t{name}\t{self.starts[idx]}\t{self.ends[idx]}\n"
                )


def trace_replay(workload, count: int):
    """Load the workload once more and replay rounds 0..count-1 with every
    layer traced. Returns (tracer, load_calls, load_self_s, rounds): the
    load is traced on its own so that warm-up and data generation stay
    out of the round metrics."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        workload.load()
        tracer.active = False
        load_calls, load_self_s = tracer.aggregates()
        tracer.reset()
        tracer.active = True
        rounds = workloads.run_rounds(workload, count=count, tracer=tracer)
        tracer.active = False
    finally:
        tracer.uninstall()
    return tracer, load_calls, load_self_s, rounds


def prediction_problems(workload, tracer, load_calls) -> list:
    """Compare the layers a traced replay reached with the workload's
    predictions: every busy layer called, every other layer idle, every
    predicted name reached, and the checkpoint loaded iff it has one."""
    calls, _ = tracer.aggregates()
    problems = []
    for span in sorted(SPANS):
        busy = span in workload.busy_layers
        if busy and not calls[span]:
            problems.append(f"{workload.name}: predicted busy layer {span} was never called")
        if not busy and calls[span]:
            problems.append(f"{workload.name}: predicted idle layer {span} ran {calls[span]} calls")
    for via in sorted(workload.reached_names):
        if not tracer.counts[f"via.graphflow.{via}"]:
            problems.append(f"{workload.name}: nothing called through {via}")
    loads = load_calls["checkpoint.load_checkpoint"]
    if bool(loads) != workload.uses_checkpoint:
        problems.append(f"{workload.name}: {loads} checkpoint loads")
    return problems
