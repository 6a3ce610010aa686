"""Benchmark of graphflow's three batch jobs: train, generate, finetune.

Run from the repository root:

    python3 bench/run.py --workload generate --seed 1 --seconds 30 --trace 0

The run sets itself up (imports, inputs, warm-up; several times, the
median is `setup_s`), then repeats rounds of the workload until
--seconds have passed, checks every output, and prints one
`name = value unit` line per metric followed, as the last line, by one
JSON object: {"correct", "attempted", "failed", "metrics"}. Times are
paced: wall time scaled to a reference machine speed measured between
rounds (pace.py); the unpaced rates are printed too.

--trace 0 reports the end-to-end metrics. --trace 1 runs rounds for half
of --seconds untraced, replays the same rounds with every layer wrapped
in spans, checks that the replay's outputs equal the untraced ones bit
for bit, and reports the per-layer metrics plus the tracing overhead.
Spans go to .bench_trace/<workload>.spans.tsv in the repository root.

Exit codes: 0 measured (the JSON says whether the outputs were correct),
1 the program raised, 2 a usage error or no program to measure.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

import bootstrap  # noqa: E402

SETUP_REPEATS = 3
TRACE_DIR = bootstrap.REPO_ROOT / ".bench_trace"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "generate", "finetune"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_start": list(os.getloadavg()),
    }


def end_to_end(its, rate_phase, setup_s: float) -> dict:
    """The metrics every workload reports, each in its own units of work.

    Rates are total work over total time of the run's iterations, and
    iter_s is their mean: a batch job's user sees totals. Times are paced
    seconds (pace.py).
    """
    busy = sum(it.phases[rate_phase] if rate_phase else it.seconds for it in its)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "graphs_per_s": {"value": sum(it.units for it in its) / busy, "unit": "1/s"},
        "steps_per_s": {"value": sum(it.steps for it in its) / busy, "unit": "1/s"},
        "iter_s": {"value": sum(it.seconds for it in its) / len(its), "unit": "s"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.import_graphflow()
    except (bootstrap.MissingProgram, ImportError) as exc:
        print(f"bench: cannot import the program to measure: {exc}", file=sys.stderr)
        return 2
    import pace
    import tracing
    import workloads

    import_s = time.perf_counter() - PROCESS_T0
    env = environment()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    before = pace.sample()
    setup_pace = [before]
    prepare = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.load()
        workload.warm_up()
        seconds = time.perf_counter() - t0
        after = pace.sample()
        setup_pace.append(after)
        prepare.append(seconds / (0.5 * (before + after)))
        before = after
    # imports happen once per process; the rest of set-up is repeated
    setup_s = import_s / setup_pace[0] + median(prepare)

    problems = []
    if args.trace:
        rounds = workloads.run_rounds(workload, seconds=args.seconds / 2)
        tracer, load_calls, load_self_s, traced = tracing.trace_replay(workload, len(rounds))
        problems.extend(tracing.prediction_problems(workload, tracer, load_calls))
        for r, t in zip(rounds, traced):
            if r.output != t.output:
                problems.append("traced replay gave other outputs than the untraced run")
                break
        overhead = workloads.total(workloads.iterations(traced), "seconds") / workloads.total(
            workloads.iterations(rounds), "seconds"
        )
        metrics = tracer.layer_metrics()
        load_s = load_self_s.get("checkpoint.load_checkpoint", 0.0)
        metrics["checkpoint.load_checkpoint.self_s"]["value"] = load_s
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        tracer.write_spans(TRACE_DIR / f"{args.workload}.spans.tsv")
        all_rounds = rounds + traced
    else:
        rounds = workloads.run_rounds(workload, seconds=args.seconds)
        metrics = end_to_end(workloads.iterations(rounds), workload.rate_phase, setup_s)
        wall = end_to_end(workloads.iterations(rounds, raw=True), workload.rate_phase, setup_s)
        for name in ("graphs_per_s", "steps_per_s", "iter_s"):
            print(f"unpaced {name} = {wall[name]['value']:.6g} {wall[name]['unit']}")
        all_rounds = rounds
    for r in all_rounds:
        problems.extend(r.problems)
    problems.extend(workload.final_problems())
    env["loadavg_end"] = list(os.getloadavg())

    raw = sorted(it.seconds for it in workloads.iterations(rounds, raw=True))
    paces = [r.pace for r in rounds]
    print(f"env = {json.dumps(env)}")
    print(f"rounds = {len(rounds)}, iterations = {len(raw)}")
    print(f"iteration wall seconds: median {median(raw):.6g}, max {raw[-1]:.6g}")
    print(
        f"pace: median {median(paces):.4g}, min {min(paces):.4g}, max {max(paces):.4g}; "
        f"set-up {median(setup_pace):.4g} (1 is the reference speed, see pace.py)"
    )
    for name, (value, unit) in workload.summary(rounds).items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
