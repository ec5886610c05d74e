"""Scenario gates: the reference scene with one hard feature added.

The reference scene scores F1 1.000 on both classes, so its floors cannot
see a regression. Each scene here costs the pipeline some accuracy, and
each floor sits just under the value measured under RunConfig() with
seed 7 and 30 warm-up frames; a change that loses accuracy on that scene
fails the gate. The last test gates the abandoned-object alarm under the
default event settings.
"""

from dataclasses import replace

import pytest

from bgsub.config import RunConfig
from bgsub.events import KIND_ABANDONED
from bgsub.metrics import score
from bgsub.pipeline import FramePipeline
from bgsub.scenes import Actor, Flicker, GainRamp, SceneSpec, Waypoint, generate_scene, standard_scene

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


def test_default_config_raises_the_abandoned_alarm():
    # Acceptance check C08's scene, run under RunConfig(): at the default
    # alpha 0.01 the model absorbs the parked square about 32 frames after
    # it stops (frame 50; 400 foreground pixels up to frame 70, 40 at frame
    # 80, none from frame 90), so only an n_static short of that can alarm.
    spec = SceneSpec(
        width=120,
        height=90,
        frames=260,
        background=(120, 120, 120),
        noise_sigma=2.0,
        actors=(
            Actor(
                size=(20, 20),
                color=(180, 60, 60),
                waypoints=(Waypoint(20, 10, 40), Waypoint(50, 70, 40)),
                from_frame=20,
            ),
        ),
    )
    frames, _ = generate_scene(spec, seed=19)
    pipeline = FramePipeline(RunConfig(), spec.width, spec.height)
    try:
        events = [e for frame in frames for e in pipeline.process(frame).events]
    finally:
        pipeline.close()
    assert [e.frame for e in events if e.kind == KIND_ABANDONED] == [70]
