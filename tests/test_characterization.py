"""The model's observable behaviour against the pins in
characterization.json: sampled graphs, traces and rejections exactly,
every float array to 1e-12 of its largest entry. 1e-12 is tighter than
every oracle bound, yet admits last-bit changes in summation order.
characterization.py builds the observations and regenerates the pins."""

import json

import numpy as np

import characterization

RELATIVE = 1e-12


def test_model_matches_characterization_pins():
    pins = json.loads(characterization.PINS.read_text())
    exact, close = characterization.observe()
    assert sorted(exact) == sorted(pins["exact"])
    assert sorted(close) == sorted(pins["close"])
    # json keeps lists, not tuples: compare through one round trip
    wrong = [k for k, v in exact.items() if json.loads(json.dumps(v)) != pins["exact"][k]]
    for key, value in close.items():
        pinned = np.asarray(pins["close"][key], dtype=np.float64)
        if value.shape != pinned.shape:
            wrong.append(f"{key}: shape {value.shape} != {pinned.shape}")
        elif np.abs(value - pinned).max() > RELATIVE * np.abs(pinned).max():
            rel = np.abs(value - pinned).max() / np.abs(pinned).max()
            wrong.append(f"{key}: off by {rel:.3g} of its largest entry")
    assert not wrong, "\n".join(wrong)
