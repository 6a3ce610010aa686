"""Plain-text model checkpoints.

A checkpoint is a line-oriented text file:

    GRAPHAF-CKPT v1
    tensor <name> <rank> <dim0> <dim1> ...
    <values in row-major order, %.17g, whitespace separated>
    tensor ...

Every trainable tensor and every batch-norm running buffer is stored.
%.17g is enough digits to round-trip float64 exactly. Loading validates
the full schema (names, ranks, shapes) against the model the caller is
restoring into, so a checkpoint from a differently-sized model fails
loudly instead of silently misloading. A nan or inf value is rejected
too: the sampler would otherwise decode it into plausible graphs.
"""

from __future__ import annotations

import numpy as np

from .flow import FlowParams, ModelSpec, init_flow_params

CKPT_HEADER = "GRAPHAF-CKPT v1"

VALUES_PER_LINE = 8


class CheckpointError(Exception):
    pass


def _all_named(params: FlowParams) -> dict:
    out = {name: t.data for name, t in params.named_tensors().items()}
    for name, buf in params.named_buffers().items():
        out[name] = buf
    return out


def dumps(params: FlowParams) -> str:
    lines = [CKPT_HEADER]
    for name, arr in _all_named(params).items():
        arr = np.asarray(arr, dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {arr.ndim} {dims}".rstrip())
        flat = arr.reshape(-1)
        for pos in range(0, flat.size, VALUES_PER_LINE):
            lines.append(" ".join("%.17g" % v for v in flat[pos : pos + VALUES_PER_LINE]))
    return "\n".join(lines) + "\n"


def loads(text: str, spec: ModelSpec) -> FlowParams:
    """Parse a checkpoint and return parameters for the given model shape."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CKPT_HEADER:
        raise CheckpointError(f"bad checkpoint header (expected {CKPT_HEADER!r})")
    params = init_flow_params(spec, np.random.default_rng(0))
    targets = _all_named(params)
    seen = set()
    pos = 1
    while pos < len(lines):
        line = lines[pos].strip()
        pos += 1
        if not line:
            continue
        fields = line.split()
        if fields[0] != "tensor":
            raise CheckpointError(f"line {pos}: expected a tensor header, got {line!r}")
        if len(fields) < 3:
            raise CheckpointError(f"line {pos}: malformed tensor header {line!r}")
        name = fields[1]
        try:
            rank = int(fields[2])
            dims = tuple(int(v) for v in fields[3:])
        except ValueError:
            raise CheckpointError(f"line {pos}: non-integer rank or dims in {line!r}")
        if len(dims) != rank:
            raise CheckpointError(f"line {pos}: rank {rank} but {len(dims)} dims for {name}")
        if name not in targets:
            raise CheckpointError(f"unknown tensor {name!r} for this model")
        if name in seen:
            raise CheckpointError(f"duplicate tensor {name!r}")
        seen.add(name)
        want = targets[name].shape
        if dims != want:
            raise CheckpointError(f"tensor {name}: checkpoint shape {dims}, model expects {want}")
        count = int(np.prod(dims, dtype=np.int64)) if rank > 0 else 1
        values = []
        while len(values) < count:
            if pos >= len(lines):
                raise CheckpointError(f"tensor {name}: file ends mid-values")
            row = lines[pos].strip()
            pos += 1
            if not row:
                continue
            if row.startswith("tensor "):
                raise CheckpointError(
                    f"tensor {name}: expected {count} values, got {len(values)}"
                )
            for tok in row.split():
                try:
                    values.append(float(tok))
                except ValueError:
                    raise CheckpointError(f"tensor {name}: bad value {tok!r}")
        if len(values) != count:
            raise CheckpointError(f"tensor {name}: expected {count} values, got {len(values)}")
        arr = np.array(values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"tensor {name}: non-finite value")
        targets[name][...] = arr.reshape(want)
    missing = sorted(set(targets) - seen)
    if missing:
        raise CheckpointError(f"checkpoint is missing tensors: {', '.join(missing)}")
    return params


def save_checkpoint(params: FlowParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(params))


def load_checkpoint(path, spec: ModelSpec) -> FlowParams:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), spec)
