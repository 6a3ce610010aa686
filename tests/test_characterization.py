"""The model's observable behaviour against the pins in
characterization.json: sampled graphs, traces and rejections exactly,
every float array to 1e-12 of its largest entry. 1e-12 is tighter than
every oracle bound, yet admits last-bit changes in summation order.
characterization.py builds the observations, holds the comparison and
regenerates the pins."""

import json

import characterization


def test_model_matches_characterization_pins():
    pins = json.loads(characterization.PINS.read_text())
    _, violations = characterization.compare(pins, *characterization.observe())
    assert not violations, "\n".join(violations)
