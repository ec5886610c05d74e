"""Scenario gates: the reference scene with one hard feature added.

The reference scene scores F1 1.000 on both classes, so its floors cannot
see a regression. Each scene here costs the pipeline some accuracy, and
each floor sits just under the value measured under RunConfig() with
seed 7 and 30 warm-up frames; a change that loses accuracy on that scene
fails the gate. The last three tests gate events under the default event
settings: the abandoned-object alarm, two actors that cross and park, and
one actor that pauses, parks, moves on and parks again.
"""

from dataclasses import replace

import pytest

from bgsub.config import RunConfig
from bgsub.events import KIND_ABANDONED, KIND_MOTION_STARTED
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


def test_crossing_actors_keep_their_tracks():
    # Two 16x16 actors enter at frame 30 from either side, on rows 20 apart,
    # cross at frame 60 and park at the far side from frame 90. Each must
    # keep its track through the crossing (at 0-8 rows apart the blobs
    # merge for 7 frames and the identities swap, which the tracker's
    # greedy association accepts) and alarm once, n_static frames after it
    # parked. The parked blobs fade as the model absorbs them, which moves
    # their centroids outward, to about x 153 and 6 by frame 119.
    spec = SceneSpec(
        width=160,
        height=120,
        frames=120,
        actors=(
            Actor(
                size=(16, 16),
                color=(180, 60, 60),
                waypoints=(Waypoint(30, 4, 40), Waypoint(90, 140, 40)),
                from_frame=30,
            ),
            Actor(
                size=(16, 16),
                color=(60, 60, 180),
                waypoints=(Waypoint(30, 140, 60), Waypoint(90, 4, 60)),
                from_frame=30,
            ),
        ),
    )
    frames, _ = generate_scene(spec, seed=7)
    pipeline = FramePipeline(RunConfig(), spec.width, spec.height)
    try:
        events = [e for frame in frames for e in pipeline.process(frame).events]
        ends = {t.id: t.centroid for t in pipeline.tracker.tracks}
    finally:
        pipeline.close()
    assert [(e.frame, e.kind, e.track, e.bbox) for e in events] == [
        (30, KIND_MOTION_STARTED, 1, (4, 40, 19, 55)),
        (30, KIND_MOTION_STARTED, 2, (140, 60, 155, 75)),
        (110, KIND_ABANDONED, 1, (140, 40, 155, 55)),
        (110, KIND_ABANDONED, 2, (4, 60, 19, 75)),
    ]
    assert sorted(ends) == [1, 2]
    assert ends[1][0] > 140 and abs(ends[1][1] - 47.5) < 1
    assert ends[2][0] < 20 and abs(ends[2][1] - 67.5) < 1


def test_pause_and_resume_rearms_the_alarm():
    # A 16x16 actor enters at frame 10, pauses for 12 frames (30-42), parks
    # from frame 60 to 100 and parks again from frame 115. The pause is
    # shorter than n_static and raises nothing; each park alarms once, 20
    # frames after the actor stopped, because moving on clears the static
    # counter and the alarm latch. Without the latch reset the frame-135
    # alarm is lost; without the counter reset the track alarms at frame 68
    # and on most frames of its walk from 101 to 115. The tracker's own
    # unit test, test_events.py::test_movement_resets_counter_and_latch,
    # catches both as well: this test adds end-to-end coverage of pause and
    # resume, through the model and segmentation, not a new catch.
    spec = SceneSpec(
        width=160,
        height=120,
        frames=150,
        actors=(
            Actor(
                size=(16, 16),
                color=(180, 60, 60),
                waypoints=(
                    Waypoint(10, 4, 50),
                    Waypoint(30, 44, 50),
                    Waypoint(42, 44, 50),
                    Waypoint(60, 80, 50),
                    Waypoint(100, 80, 50),
                    Waypoint(115, 130, 50),
                ),
                from_frame=10,
            ),
        ),
    )
    frames, _ = generate_scene(spec, seed=7)
    pipeline = FramePipeline(RunConfig(), spec.width, spec.height)
    try:
        events = [e for frame in frames for e in pipeline.process(frame).events]
    finally:
        pipeline.close()
    assert [(e.frame, e.kind, e.track) for e in events] == [
        (10, KIND_MOTION_STARTED, 1),
        (80, KIND_ABANDONED, 1),
        (135, KIND_ABANDONED, 1),
    ]
