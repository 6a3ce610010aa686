"""Command-line behavior: the full artifact pipeline, exit codes, output
determinism, and the selfcheck suites."""

import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import graphflow
from graphflow import checkpoint as ckpt
from graphflow import cli, flow, molt
from graphflow.config import load_run_config, vocab_from_config

TINY_CFG = """\
seed = 0
dataset = molecules
dataset_count = 12
dataset_max_atoms = 6
width = 6
layers = 1
max_size = 8
window = 4
epochs = 2
batch_size = 6
lr = 0.002
sample_count = 6
rl_iterations = 1
rl_batch = 2
rl_updates = 1
rl_warmup = 1
rl_lr = 0.001
scorer = toy:atom-count
constrained_delta = 0.1
constrained_rounds = 2
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file, generated dataset, and a trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG)
    data_dir = root / "data"
    rc = cli.main(["gen-data", "--config", str(cfg), "--output", str(data_dir)])
    assert rc == 0
    train_dir = root / "train"
    rc = cli.main(
        [
            "train",
            "--config",
            str(cfg),
            "--data",
            str(data_dir / "data.molt"),
            "--output",
            str(train_dir),
        ]
    )
    assert rc == 0
    return {
        "cfg": cfg,
        "data": data_dir / "data.molt",
        "checkpoint": train_dir / "checkpoint.ckpt",
        "train_dir": train_dir,
        "root": root,
    }


def test_gen_data_and_train_artifacts(workspace):
    assert workspace["data"].exists()
    assert workspace["checkpoint"].exists()
    nll = (workspace["train_dir"] / "nll.csv").read_text().splitlines()
    assert nll[0] == "epoch,nll"
    assert len(nll) == 3  # header plus one row per epoch
    manifest = (workspace["train_dir"] / "manifest.txt").read_text()
    assert manifest.startswith("# run manifest")
    assert "output checkpoint.ckpt = " in manifest
    assert "output nll.csv = " in manifest


def test_sample_evaluate_finetune_optimize(workspace, capsys):
    root = workspace["root"]
    cfg = str(workspace["cfg"])
    sample_dir = root / "samples"
    rc = cli.main(
        [
            "sample",
            "--config",
            cfg,
            "--checkpoint",
            str(workspace["checkpoint"]),
            "--output",
            str(sample_dir),
            "--trace",
        ]
    )
    assert rc == 0
    assert (sample_dir / "samples.molt").exists()
    assert (sample_dir / "traces.txt").read_text().startswith("sample 0 steps")

    eval_dir = root / "eval"
    rc = cli.main(
        [
            "evaluate",
            "--config",
            cfg,
            "--samples",
            str(sample_dir / "samples.molt"),
            "--train-data",
            str(workspace["data"]),
            "--output",
            str(eval_dir),
            "--csv",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "validity = " in out and "novelty = " in out
    report = (eval_dir / "report.txt").read_text()
    assert "mmd_degree" in report
    assert (eval_dir / "report.csv").read_text().count("\n") == 2

    ft_dir = root / "finetune"
    rc = cli.main(
        [
            "finetune",
            "--config",
            cfg,
            "--checkpoint",
            str(workspace["checkpoint"]),
            "--output",
            str(ft_dir),
            "--iterations",
            "1",
        ]
    )
    assert rc == 0
    assert (ft_dir / "finetuned.ckpt").exists()
    rewards = (ft_dir / "rewards.csv").read_text().splitlines()
    assert rewards[0] == "iteration,mean_reward"
    assert len(rewards) == 2

    opt_dir = root / "constrained"
    rc = cli.main(
        [
            "optimize-constrained",
            "--config",
            cfg,
            "--checkpoint",
            str(workspace["checkpoint"]),
            "--molecules",
            str(workspace["data"]),
            "--output",
            str(opt_dir),
        ]
    )
    assert rc == 0
    rows = (opt_dir / "constrained.csv").read_text().splitlines()
    assert rows[0] == "molecule,improvement,similarity,success"
    assert len(rows) == 13  # header plus one row per input molecule


def test_reruns_are_byte_identical(workspace):
    root = workspace["root"]
    cfg = str(workspace["cfg"])
    out = root / "repeat"
    assert cli.main(["gen-data", "--config", cfg, "--output", str(out)]) == 0
    first = (out / "data.molt").read_bytes()
    manifest1 = (out / "manifest.txt").read_bytes()
    assert cli.main(["gen-data", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "data.molt").read_bytes() == first
    assert (out / "manifest.txt").read_bytes() == manifest1
    other = root / "reseeded"
    assert cli.main(["gen-data", "--config", cfg, "--seed", "1", "--output", str(other)]) == 0
    assert (other / "data.molt").read_bytes() != first


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli.main([]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["sample"]) == 1  # --checkpoint is required
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    assert cli.main(["gen-data", "--config", str(bad)]) == 1
    bad.write_text("epochs = 0\n")
    assert cli.main(["train", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "config error" in err


def test_unknown_scorer_is_a_config_error(workspace, tmp_path, capsys):
    # a scorer spec with a valid prefix that rl.make_scorer still rejects
    # (no such toy scorer, an atom symbol outside the vocabulary, an exec
    # scorer without a command) is a usage problem, reported on the
    # scorer key before any output
    common = ["--config", str(workspace["cfg"]), "--checkpoint", str(workspace["checkpoint"])]
    commands = [["finetune"], ["optimize-constrained", "--molecules", str(workspace["data"])]]
    for command in commands:
        for k, spec in enumerate(("toy:bogus", "toy:atom-fraction:Xe", "exec:", "exec:  ")):
            out = tmp_path / f"{command[0]}_{k}"
            rc = cli.main(command + common + ["--scorer", spec, "--output", str(out)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: key 'scorer': "), err
            assert "Traceback" not in err
            assert not (out / "manifest.txt").exists()


def test_non_finite_setting_is_a_config_error(workspace, tmp_path, capsys):
    # an infinite value the flag or file check once let through to the
    # library is reported on its key before any output
    ckpt_args = ["--checkpoint", str(workspace["checkpoint"])]
    cases = [
        (["train", "--data", str(workspace["data"])], "lr"),
        (["sample"] + ckpt_args, "temperature"),
        (["finetune"] + ckpt_args, "rl_t2"),
    ]
    for command, key in cases:
        cfg = tmp_path / f"{key}.cfg"
        kept = [line for line in TINY_CFG.splitlines() if not line.startswith(f"{key} =")]
        cfg.write_text("\n".join(kept + [f"{key} = inf"]) + "\n")
        out = tmp_path / command[0]
        rc = cli.main(command + ["--config", str(cfg), "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: key '{key}'"), err
        assert "Traceback" not in err
        assert not (out / "manifest.txt").exists()


def test_data_errors_exit_2(workspace, tmp_path, capsys):
    cfg = str(workspace["cfg"])
    out = str(tmp_path / "out")
    rc = cli.main(
        ["sample", "--config", cfg, "--checkpoint", str(tmp_path / "nope.ckpt"), "--output", out]
    )
    assert rc == 2
    broken = tmp_path / "broken.molt"
    broken.write_text("#MOLT v1\natoms 1\n0 Zz\nbonds 0\n")
    rc = cli.main(["evaluate", "--config", cfg, "--samples", str(broken), "--output", out])
    assert rc == 2
    # checkpoint from a differently shaped model
    other_spec = flow.ModelSpec(width=16, layers=1, window=4, max_size=8)
    params = flow.init_flow_params(other_spec, np.random.default_rng(0))
    wrong = tmp_path / "wrong.ckpt"
    ckpt.save_checkpoint(params, wrong)
    rc = cli.main(["sample", "--config", cfg, "--checkpoint", str(wrong), "--output", out])
    assert rc == 2
    assert capsys.readouterr().err.count("data error") == 3
    # unreadable inputs: a directory where a file belongs, binary bytes
    # where text belongs
    folder = tmp_path / "folder"
    folder.mkdir()
    binary = tmp_path / "binary.bin"
    binary.write_bytes(bytes(range(256)))
    for case, argv in enumerate([
        ["sample", "--config", cfg, "--checkpoint", str(folder)],
        ["sample", "--config", cfg, "--checkpoint", str(binary)],
        ["train", "--config", cfg, "--data", str(folder)],
        ["gen-data", "--config", str(folder)],
        ["evaluate", "--config", cfg, "--samples", str(binary)],
    ]):
        unread = tmp_path / f"unread{case}"
        rc = cli.main(argv + ["--output", str(unread)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("data error: "), err
        assert "Traceback" not in err
        assert not unread.exists()


def test_evaluate_mmd_with_too_few_molecules_exits_2(workspace, tmp_path, capsys):
    # MMD needs two molecules on each side: fewer is a data error, reported
    # with both counts before any report is written
    cfg = str(workspace["cfg"])
    vocab, bonds = vocab_from_config(load_run_config(workspace["cfg"]))
    data = workspace["data"]
    mols = molt.parse_molt(data.read_text(), vocab, bonds)
    one = tmp_path / "one.molt"
    one.write_text(molt.write_molt(mols[:1], vocab, bonds))
    empty = tmp_path / "empty.molt"
    empty.write_text("")
    for samples, train, counts in [
        (one, data, f"got 1 samples and {len(mols)} reference"),
        (empty, data, f"got 0 samples and {len(mols)} reference"),
        (data, one, f"got {len(mols)} samples and 1 reference"),
    ]:
        out = tmp_path / f"out_{samples.stem}_{train.stem}"
        rc = cli.main(["evaluate", "--config", cfg, "--samples", str(samples),
                       "--train-data", str(train), "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and counts in err
        assert not (out / "report.txt").exists()


def test_evaluate_empty_samples_exits_2(workspace, tmp_path, capsys):
    # without --train-data there is no MMD, but rates over zero molecules
    # would still read as measured zeros
    empty = tmp_path / "empty.molt"
    empty.write_text("")
    out = tmp_path / "out"
    rc = cli.main(["evaluate", "--config", str(workspace["cfg"]), "--samples", str(empty),
                   "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "no molecules" in err
    assert not (out / "report.txt").exists()
    assert not out.exists()


def test_evaluate_huge_atom_count_exits_2(workspace, tmp_path, capsys):
    # an atom count far past the end of the file is malformed input
    bad = tmp_path / "bad.molt"
    bad.write_text("#MOLT v1\natoms 1000000000000\n0 C\n")
    out = tmp_path / "out"
    rc = cli.main(["evaluate", "--config", str(workspace["cfg"]), "--samples", str(bad),
                   "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "atom count" in err
    assert not out.exists()


def test_evaluate_without_train_data_reports_no_novelty(workspace, tmp_path, capsys):
    # novelty compares samples with a training set; without one it was not
    # measured, and a printed 0 would read as "no novel molecules"
    out = tmp_path / "out"
    rc = cli.main(["evaluate", "--config", str(workspace["cfg"]), "--samples",
                   str(workspace["data"]), "--output", str(out), "--csv"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "uniqueness = " in printed and "novelty" not in printed
    assert (out / "report.txt").read_text() == printed
    head, body = (out / "report.csv").read_text().splitlines()
    assert "novelty" not in head and len(head.split(",")) == len(body.split(","))


def test_train_on_empty_data_exits_2(workspace, tmp_path, capsys):
    # a dataset file with no molecules is a data error before anything is
    # written, not a traceback from the training loop
    empty = tmp_path / "empty.molt"
    empty.write_text("")
    out = tmp_path / "out"
    rc = cli.main(["train", "--config", str(workspace["cfg"]), "--data", str(empty),
                   "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "no molecules" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["community", "molecules"])
def test_train_data_named_like_a_generator_is_a_molt_file(workspace, tmp_path, monkeypatch, name):
    # --data names a file even when the name is also a dataset generator's
    vocab, bonds = vocab_from_config(load_run_config(workspace["cfg"]))
    one = molt.parse_molt(workspace["data"].read_text(), vocab, bonds)[:1]
    (tmp_path / name).write_text(molt.write_molt(one, vocab, bonds))
    monkeypatch.chdir(tmp_path)
    sizes, train = [], flow.train
    monkeypatch.setattr(flow, "train", lambda data, *a: sizes.append(len(data)) or train(data, *a))
    rc = cli.main(["train", "--config", str(workspace["cfg"]), "--data", name,
                   "--output", str(tmp_path / "out")])
    assert rc == 0 and sizes == [1]


def test_optimize_constrained_on_empty_molecules_exits_2(workspace, tmp_path, capsys):
    # no seed molecules would report "success 0/0" and a manifest: output
    # from no input
    empty = tmp_path / "empty.molt"
    empty.write_text("")
    out = tmp_path / "out"
    rc = cli.main(["optimize-constrained", "--config", str(workspace["cfg"]),
                   "--checkpoint", str(workspace["checkpoint"]), "--molecules", str(empty),
                   "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "no molecules" in err
    assert not out.exists()


def test_sample_missing_checkpoint_leaves_no_output_directory(workspace, tmp_path, capsys):
    # the output directory is made only once the first output is ready,
    # so a data error found while loading the inputs leaves none behind
    out = tmp_path / "sample"
    rc = cli.main(["sample", "--config", str(workspace["cfg"]), "--checkpoint",
                   str(tmp_path / "missing.ckpt"), "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("data error: ")
    assert not out.exists()


def test_finetune_bad_scorer_leaves_no_output_directory(workspace, tmp_path, capsys):
    # a scorer spec rejected after the checkpoint loaded is a config error
    # that leaves no output directory either
    out = tmp_path / "finetune"
    rc = cli.main(["finetune", "--config", str(workspace["cfg"]), "--checkpoint",
                   str(workspace["checkpoint"]), "--scorer", "toy:bogus", "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error: key 'scorer': ")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_numeric_failure_exits_3(workspace, tmp_path, capsys):
    # corrupt a valid checkpoint with huge but finite weights: every
    # node-step mu overflows to inf, so the surrogate loss is non-finite
    # on the first fine-tune iteration
    cfg_obj = load_run_config(workspace["cfg"])
    vocab, bonds = vocab_from_config(cfg_obj)
    spec = flow.ModelSpec(
        vocab=vocab, bonds=bonds, width=cfg_obj.width, layers=cfg_obj.layers,
        window=cfg_obj.window, max_size=cfg_obj.max_size,
    )
    params = ckpt.load_checkpoint(workspace["checkpoint"], spec)
    params.node_mu.b1.data[:] = 1e308  # saturates tanh at exactly 1
    params.node_mu.w2.data[:] = 1e308  # a sum of 1e308 terms overflows
    poisoned = tmp_path / "poisoned.ckpt"
    ckpt.save_checkpoint(params, poisoned)
    rc = cli.main(
        [
            "finetune",
            "--config",
            str(workspace["cfg"]),
            "--checkpoint",
            str(poisoned),
            "--output",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exp_reward_overflow_exits_3(workspace, tmp_path, capsys):
    # toy:atom-count scores of several atoms over t2 = 0.001 overflow
    # exp(score / t2): a numerical failure, not a crash
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CFG + "rl_shaping = exp\nrl_t2 = 0.001\n")
    out = tmp_path / "out"
    rc = cli.main(["finetune", "--config", str(cfg), "--checkpoint",
                   str(workspace["checkpoint"]), "--output", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "t2 0.001" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sample_overflow_exits_3(workspace, tmp_path, capsys):
    # finite weights whose node-step mu overflows to inf: the decoded
    # category would be argmax of an inf row, so sampling must fail
    # numerically instead of writing plausible-looking molecules
    cfg_obj = load_run_config(workspace["cfg"])
    vocab, bonds = vocab_from_config(cfg_obj)
    spec = flow.ModelSpec(
        vocab=vocab, bonds=bonds, width=cfg_obj.width, layers=cfg_obj.layers,
        window=cfg_obj.window, max_size=cfg_obj.max_size,
    )
    params = ckpt.load_checkpoint(workspace["checkpoint"], spec)
    params.node_mu.b1.data[:] = 1e308
    params.node_mu.w2.data[:] = 1e308
    poisoned = tmp_path / "poisoned.ckpt"
    ckpt.save_checkpoint(params, poisoned)
    out = tmp_path / "out"
    rc = cli.main(
        ["sample", "--config", str(workspace["cfg"]), "--checkpoint", str(poisoned),
         "--output", str(out)]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "samples.molt").exists()


def test_train_on_graphs_past_max_size_exits_2(workspace, tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(TINY_CFG.replace("max_size = 8", "max_size = 4"))
    out = tmp_path / "out"
    rc = cli.main(
        ["train", "--config", str(cfg), "--data", str(workspace["data"]),
         "--output", str(out)]
    )
    assert rc == 2
    assert "max_size" in capsys.readouterr().err
    assert not (out / "checkpoint.ckpt").exists()


def test_non_finite_checkpoint_is_a_data_error(workspace, tmp_path, capsys):
    # a nan weight must not load: argmax of nan is 0, so sampling from it
    # would quietly emit graphs
    lines = workspace["checkpoint"].read_text().splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("tensor "))
    toks = lines[first + 1].split()
    toks[0] = "nan"
    lines[first + 1] = " ".join(toks)
    poisoned = tmp_path / "nan.ckpt"
    poisoned.write_text("\n".join(lines) + "\n")
    cfg_obj = load_run_config(workspace["cfg"])
    vocab, bonds = vocab_from_config(cfg_obj)
    spec = flow.ModelSpec(
        vocab=vocab, bonds=bonds, width=cfg_obj.width, layers=cfg_obj.layers,
        window=cfg_obj.window, max_size=cfg_obj.max_size,
    )
    with pytest.raises(ckpt.CheckpointError, match="non-finite"):
        ckpt.load_checkpoint(poisoned, spec)
    out = tmp_path / "out"
    rc = cli.main(
        ["sample", "--config", str(workspace["cfg"]), "--checkpoint", str(poisoned),
         "--output", str(out)]
    )
    assert rc == 2
    assert "data error" in capsys.readouterr().err
    assert not (out / "samples.molt").exists()


def test_selfcheck_passes(capsys):
    assert cli.main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("ok  ") for l in lines)
    for name in ("invertibility", "masking", "gradient", "valency"):
        assert any(name in l for l in lines)


def _child_env() -> dict:
    # a child process imports the same graphflow package this suite imported
    env = dict(os.environ)
    package_root = str(Path(graphflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_console_script_is_wired():
    """The `graphflow` script declared in pyproject.toml, run as a process
    with no arguments, reports a usage error and exits 1. It is checked
    from the checkout: through the wrapper an install would generate, and
    through `python -m graphflow`; an installed script on PATH is run too."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    ep = EntryPoint(name="graphflow", value=scripts["graphflow"], group="console_scripts")
    assert ep.load() is cli.main

    env = _child_env()
    wrapper = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    commands = [[sys.executable, "-c", wrapper], [sys.executable, "-m", "graphflow"]]
    installed = shutil.which("graphflow")
    if installed is not None:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, (command, proc.stderr)
        assert "usage error" in proc.stderr, (command, proc.stderr)


# The action log-probs of fine-tuning's quadrature on fixed inputs, as hex
# bytes: the grid of one argmax_region_grid call and one
# _stacked_action_logprobs call over it.
QUADRATURE_PROBE = """
import numpy as np
from graphflow import rl
from graphflow.autodiff import Tensor

rng = np.random.default_rng(5)
mu, alpha = rng.normal(size=(6, 4)), rng.uniform(0.2, 2.0, size=(6, 4))
actions = rng.integers(4, size=6)
u, logw = rl.argmax_region_grid(mu, alpha, actions)
lp = rl._stacked_action_logprobs(
    Tensor(mu), Tensor(alpha), u, rl.weight_free_term(u, logw), actions, 0.8
)
probe = [a.tobytes().hex() for a in (u, logw, lp.data)]
"""

# Everything but fine-tuning, at toy sizes, then the quadrature probe.
IMPORT_HYGIENE = """
import sys
import numpy as np
import graphflow
import graphflow.cli
from graphflow import flow, graph as G, metrics, rl, sampler

spec = flow.ModelSpec(width=4, layers=1, window=3, max_size=6)
rng = np.random.default_rng(0)
mols = [G.bfs_reorder(m, 0)[0]
        for m in G.gen_synthetic_molecules(4, 5, spec.vocab, spec.bonds, rng)]
params = flow.init_flow_params(spec, rng)
flow.train(mols, params, spec, flow.TrainConfig(epochs=1, batch_size=4), rng)
graphs, _ = sampler.sample_batch(params, spec, sampler.SamplerConfig(), 4, 1)
metrics.evaluate_set(graphs, spec.vocab, spec.bonds, mols)
scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
rl.optimize_constrained(params, spec, mols[:2], scorer, 0.0, 2, sampler.SamplerConfig(), rng)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
""" + QUADRATURE_PROBE + """
assert "scipy.special" in sys.modules
print(" ".join(probe))
"""


def test_only_the_quadrature_imports_scipy():
    """A fresh process imports graphflow and its CLI, trains, samples,
    evaluates and runs constrained optimization without loading scipy;
    fine-tuning's quadrature loads scipy.special at its first call and
    gives bitwise the values this process computes."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_HYGIENE],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    here = {}
    exec(QUADRATURE_PROBE, here)
    assert proc.stdout.split() == here["probe"]


def test_negative_running_variance_checkpoint_is_a_data_error(workspace, tmp_path, capsys):
    # batch norm takes the square root of running_var + 1e-5: a checkpoint
    # with running_var[0] = -1 once loaded, and sampling then failed on nan
    lines = workspace["checkpoint"].read_text().splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("tensor rgcn.bn.running_var "))
    toks = lines[first + 1].split()
    toks[0] = "-1"
    lines[first + 1] = " ".join(toks)
    poisoned = tmp_path / "negative_var.ckpt"
    poisoned.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = cli.main(
        ["sample", "--config", str(workspace["cfg"]), "--checkpoint", str(poisoned),
         "--output", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and "negative variance" in err
    assert not (out / "samples.molt").exists()
