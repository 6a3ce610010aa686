"""Write the checkpoints that the `generate` and `finetune` workloads load.

Run once from the repository root:

    python3 bench/make_checkpoints.py

It trains each model on the fixed synthetic training set and prints the
sha256 of every file; paste those into CHECKPOINTS in `inputs.py`. The
files are checked in, so the benchmark never runs this script.
"""

from __future__ import annotations

import bootstrap

bootstrap.import_graphflow()

import numpy as np  # noqa: E402

from graphflow import checkpoint, flow  # noqa: E402

import inputs  # noqa: E402


def main() -> int:
    data = inputs.synthetic_molecules(inputs.CHECKPOINT_DATA_COUNT, inputs.CHECKPOINT_DATA_SEED)
    for name, info in inputs.CHECKPOINTS.items():
        spec = info.spec
        params = flow.init_flow_params(spec, np.random.default_rng(inputs.CHECKPOINT_INIT_SEED))
        nll = flow.train(
            data,
            params,
            spec,
            inputs.CHECKPOINT_TRAIN,
            np.random.default_rng(inputs.CHECKPOINT_NOISE_SEED),
        )
        checkpoint.save_checkpoint(params, info.path)
        print(f"{name}: {info.path.name} NLL {nll[0]:.3f} -> {nll[-1]:.3f}")
        print(f"  sha256 {inputs.sha256_file(info.path)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
