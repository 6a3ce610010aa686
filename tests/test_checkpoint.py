"""Checkpoint serialization: exact round trips and strict schema checks."""

from pathlib import Path

import numpy as np
import pytest

from graphflow import checkpoint as ckpt
from graphflow import flow

SPEC = flow.ModelSpec(width=6, layers=2, window=4, max_size=6)


def make_params(seed=0):
    params = flow.init_flow_params(SPEC, np.random.default_rng(seed), zero_init_heads=False)
    # make the running buffers distinctive so restoring them is observable
    rng = np.random.default_rng(seed + 100)
    for buf in params.named_buffers().values():
        buf[...] = rng.normal(size=buf.shape)
    # exercise extreme magnitudes through the text format
    params.node_mu.b1.data[0] = 1e300
    params.node_mu.b1.data[1] = -1e-300
    params.node_mu.b1.data[2] = -1.5000000000000002e-17
    return params


def test_header_literal():
    text = ckpt.dumps(make_params())
    assert text.splitlines()[0] == "GRAPHAF-CKPT v1"


def test_round_trip_is_bitwise_exact():
    params = make_params()
    restored = ckpt.loads(ckpt.dumps(params), SPEC)
    orig_t = params.named_tensors()
    back_t = restored.named_tensors()
    assert set(orig_t) == set(back_t)
    for name in orig_t:
        assert np.array_equal(orig_t[name].data, back_t[name].data), name
    orig_b = params.named_buffers()
    back_b = restored.named_buffers()
    for name in orig_b:
        assert np.array_equal(orig_b[name], back_b[name]), name


BENCH_CHECKPOINTS = Path(__file__).resolve().parents[1] / "bench" / "checkpoints"


@pytest.mark.parametrize(
    "name, width, layers", [("generate_w32_l3.ckpt", 32, 3), ("finetune_w16_l2.ckpt", 16, 2)]
)
def test_checked_in_files_round_trip_byte_for_byte(name, width, layers):
    # files keep one tensor per relation while the model keeps one stacked
    # parameter per layer: loading and dumping again changes no byte
    text = (BENCH_CHECKPOINTS / name).read_text(encoding="utf-8")
    spec = flow.ModelSpec(width=width, layers=layers, window=12, max_size=12)
    params = ckpt.loads(text, spec)
    assert ckpt.dumps(params) == text
    layer = params.rgcn.layers[0]
    assert layer.data.shape == (spec.edge_dim, width, width)
    assert np.shares_memory(ckpt._all_named(params)["rgcn.layer0.rel1"], layer.data)


def test_file_round_trip(tmp_path):
    params = make_params(1)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(params, path)
    restored = ckpt.load_checkpoint(path, SPEC)
    for name, t in params.named_tensors().items():
        assert np.array_equal(t.data, restored.named_tensors()[name].data)


def test_loaded_params_are_independent():
    params = make_params(2)
    restored = ckpt.loads(ckpt.dumps(params), SPEC)
    restored.node_mu.w1.data += 1.0
    assert not np.array_equal(params.node_mu.w1.data, restored.node_mu.w1.data)


def test_rejects_bad_header():
    with pytest.raises(ckpt.CheckpointError, match="header"):
        ckpt.loads("GRAPHAF-CKPT v2\n", SPEC)
    with pytest.raises(ckpt.CheckpointError, match="header"):
        ckpt.loads("", SPEC)


def test_rejects_unknown_tensor():
    text = ckpt.dumps(make_params()).replace("head.node_mu.w1", "head.node_mu.wx", 1)
    with pytest.raises(ckpt.CheckpointError, match="unknown tensor"):
        ckpt.loads(text, SPEC)


def test_rejects_duplicate_tensor():
    lines = ckpt.dumps(make_params()).splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("tensor head.node_mu.b1"))
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].startswith("tensor ")),
        len(lines),
    )
    dup = lines[: end] + lines[start:end] + lines[end:]
    with pytest.raises(ckpt.CheckpointError, match="duplicate"):
        ckpt.loads("\n".join(dup), SPEC)


def test_rejects_shape_mismatch():
    wrong = flow.ModelSpec(width=8, layers=2, window=4, max_size=6)
    with pytest.raises(ckpt.CheckpointError, match="shape"):
        ckpt.loads(ckpt.dumps(make_params()), wrong)


def test_rejects_missing_tensor():
    lines = ckpt.dumps(make_params()).splitlines()
    last = max(i for i, l in enumerate(lines) if l.startswith("tensor "))
    with pytest.raises(ckpt.CheckpointError, match="missing"):
        ckpt.loads("\n".join(lines[:last]) + "\n", SPEC)


def test_rejects_truncated_values():
    lines = ckpt.dumps(make_params()).splitlines()
    # cut inside the very first value block
    first = next(i for i, l in enumerate(lines) if l.startswith("tensor "))
    with pytest.raises(ckpt.CheckpointError, match="ends mid-values"):
        ckpt.loads("\n".join(lines[: first + 2]) + "\n", SPEC)


def test_rejects_value_count_mismatch_before_next_header():
    text = ckpt.dumps(make_params())
    lines = text.splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("tensor "))
    # drop one value line so the next tensor header arrives early
    nxt = next(i for i in range(first + 1, len(lines)) if lines[i].startswith("tensor "))
    clipped = lines[: nxt - 1] + lines[nxt:]
    with pytest.raises(ckpt.CheckpointError, match="expected"):
        ckpt.loads("\n".join(clipped) + "\n", SPEC)


def test_rejects_extra_values():
    lines = ckpt.dumps(make_params()).splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("tensor "))
    lines[first + 1] = lines[first + 1] + " 0.25"
    with pytest.raises(ckpt.CheckpointError, match="expected"):
        ckpt.loads("\n".join(lines) + "\n", SPEC)


def test_rejects_bad_tokens():
    lines = ckpt.dumps(make_params()).splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("tensor "))
    broken = lines[:]
    toks = broken[first + 1].split()
    toks[0] = "zed"
    broken[first + 1] = " ".join(toks)
    with pytest.raises(ckpt.CheckpointError, match="bad value"):
        ckpt.loads("\n".join(broken) + "\n", SPEC)
    header = lines[first].split()
    header[2] = "two"
    broken = lines[:]
    broken[first] = " ".join(header)
    with pytest.raises(ckpt.CheckpointError, match="non-integer"):
        ckpt.loads("\n".join(broken) + "\n", SPEC)


def test_rejects_rank_dims_mismatch():
    lines = ckpt.dumps(make_params()).splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("tensor "))
    fields = lines[first].split()
    fields[2] = str(int(fields[2]) + 1)
    lines[first] = " ".join(fields)
    with pytest.raises(ckpt.CheckpointError, match="rank"):
        ckpt.loads("\n".join(lines) + "\n", SPEC)


def test_rejects_stray_line():
    lines = ckpt.dumps(make_params()).splitlines()
    lines.insert(1, "buffer foo 1 3")
    with pytest.raises(ckpt.CheckpointError, match="tensor header"):
        ckpt.loads("\n".join(lines) + "\n", SPEC)


def test_blank_lines_are_tolerated():
    params = make_params(3)
    text = ckpt.dumps(params).replace("\ntensor head.edge_mu.w1", "\n\ntensor head.edge_mu.w1")
    restored = ckpt.loads(text, SPEC)
    assert np.array_equal(params.edge_mu.w1.data, restored.edge_mu.w1.data)
