"""Scenario gates: the reference scene with one hard feature added.

The reference scene scores F1 1.000 on both classes, so its floors cannot
see a regression. Each scene here costs the pipeline some accuracy, and
each floor sits just under the value measured under RunConfig() with
seed 7 and 30 warm-up frames; a change that loses accuracy on that scene
fails the gate.
"""

from dataclasses import replace

import pytest

from bgsub.config import RunConfig
from bgsub.metrics import score
from bgsub.pipeline import FramePipeline
from bgsub.scenes import Flicker, GainRamp, generate_scene, standard_scene

SCENARIOS = {
    # Sensor noise at sigma 8: measured foreground F1 0.94710.
    "noise_sigma_8": (dict(noise_sigma=8.0), "foreground", 0.947),
    # Global dimming from gain 1.0 to 0.7: measured shadow F1 0.78345, with
    # 32,893 false-shadow pixels. The only shadow F1 gate that can fall: the
    # reference scene's shadow F1 is 1.000.
    "gain_ramp": (dict(ramp=GainRamp(1.0, 0.7)), "shadow", 0.783),
    # A patch of floor flipping between two grays every 3 frames: measured
    # foreground F1 0.91978.
    "flicker": (
        dict(flickers=(Flicker((70, 78, 85, 92), ((120, 120, 120), (160, 160, 160)), 3),)),
        "foreground",
        0.919,
    ),
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_f1_floor(name):
    change, cls, floor = SCENARIOS[name]
    spec = replace(standard_scene(), **change)
    frames, truth = generate_scene(spec, seed=7)
    pipeline = FramePipeline(RunConfig(), spec.width, spec.height)
    try:
        pred = [pipeline.process(frame).classes for frame in frames]
    finally:
        pipeline.close()
    f1 = score(pred, truth, warmup=30)["per_class"][cls]["f1"]
    assert f1 is not None and f1 >= floor, f"{name}: {cls} F1 {f1} below {floor}"
