"""Scene generator: determinism, geometry, and ground-truth semantics."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from bgsub.errors import SpecOutOfBounds
from bgsub.gmm import BACKGROUND, FOREGROUND
from bgsub.netpbm import decode_pgm, decode_ppm
from bgsub.scenes import (
    Actor,
    Flicker,
    GainRamp,
    SceneSpec,
    ShadowPatch,
    Waypoint,
    actor_position,
    generate_scene,
    scene_from_dict,
    standard_scene,
    write_scene,
)
from bgsub.shadow import SHADOW


def _tiny_spec(**overrides):
    kwargs = dict(width=24, height=18, frames=6, noise_sigma=0.0)
    kwargs.update(overrides)
    return SceneSpec(**kwargs)


def test_same_seed_bit_identical():
    spec = standard_scene()
    frames_a, truths_a = generate_scene(spec, seed=7)
    frames_b, truths_b = generate_scene(spec, seed=7)
    assert len(frames_a) == spec.frames
    for a, b in zip(frames_a, frames_b):
        assert np.array_equal(a, b)
    for a, b in zip(truths_a, truths_b):
        assert np.array_equal(a, b)


def test_different_seed_differs():
    spec = _tiny_spec(noise_sigma=2.0)
    frames_a, _ = generate_scene(spec, seed=1)
    frames_b, _ = generate_scene(spec, seed=2)
    assert any(not np.array_equal(a, b) for a, b in zip(frames_a, frames_b))


def test_zero_noise_frame_is_exact_background():
    spec = _tiny_spec(background=(10, 200, 30))
    frames, truths = generate_scene(spec, seed=0)
    for frame, truth in zip(frames, truths):
        assert np.array_equal(frame, np.broadcast_to((10, 200, 30), frame.shape))
        assert truth.max() == BACKGROUND


def test_actor_position_interpolation_and_clamp():
    actor = Actor(
        size=(2, 2),
        color=(255, 255, 255),
        waypoints=(Waypoint(10, 0, 0), Waypoint(20, 10, 20)),
    )
    assert actor_position(actor, 0) == (0, 0)  # clamp before first waypoint
    assert actor_position(actor, 10) == (0, 0)
    assert actor_position(actor, 15) == (5, 10)
    assert actor_position(actor, 13) == (3, 6)
    assert actor_position(actor, 20) == (10, 20)
    assert actor_position(actor, 99) == (10, 20)  # clamp after last


def test_actor_position_halt():
    actor = Actor(
        size=(2, 2),
        color=(255, 255, 255),
        waypoints=(Waypoint(0, 0, 0), Waypoint(10, 10, 0)),
        halt_at=5,
    )
    assert actor_position(actor, 4) == (4, 0)
    assert actor_position(actor, 5) == (5, 0)
    assert actor_position(actor, 9) == (5, 0)
    assert actor_position(actor, 200) == (5, 0)


def test_actor_painting_and_truth():
    actor = Actor(size=(3, 2), color=(250, 10, 10), waypoints=(Waypoint(0, 4, 5),))
    spec = _tiny_spec(actors=(actor,))
    frames, truths = generate_scene(spec, seed=0)
    frame, truth = frames[0], truths[0]
    assert np.all(frame[5:7, 4:7] == (250, 10, 10))
    assert np.all(truth[5:7, 4:7] == FOREGROUND)
    assert truth.sum() == FOREGROUND * 6


def test_actor_appearance_window():
    actor = Actor(
        size=(2, 2), color=(0, 0, 0), waypoints=(Waypoint(0, 1, 1),), from_frame=2, to_frame=3
    )
    spec = _tiny_spec(actors=(actor,))
    _, truths = generate_scene(spec, seed=0)
    present = [bool((t == FOREGROUND).any()) for t in truths]
    assert present == [False, False, True, True, False, False]


def test_shadow_patch_truth_and_dimming():
    patch = ShadowPatch(rect=(2, 3, 9, 8), gain=0.5, from_frame=1, to_frame=2)
    spec = _tiny_spec(background=(100, 100, 100), shadows=(patch,))
    frames, truths = generate_scene(spec, seed=0)
    assert truths[0].max() == BACKGROUND
    assert np.all(truths[1][3:9, 2:10] == SHADOW)
    assert np.all(frames[1][3:9, 2:10] == 50)
    assert np.all(frames[1][0:3, :] == 100)
    assert truths[3].max() == BACKGROUND


def test_actor_occludes_shadow_truth():
    patch = ShadowPatch(rect=(0, 0, 23, 17), gain=0.5)
    actor = Actor(size=(4, 4), color=(200, 0, 0), waypoints=(Waypoint(0, 10, 10),))
    spec = _tiny_spec(shadows=(patch,), actors=(actor,))
    _, truths = generate_scene(spec, seed=0)
    truth = truths[0]
    assert np.all(truth[10:14, 10:14] == FOREGROUND)
    assert np.all(truth[0:10, :] == SHADOW)


def test_flicker_alternates():
    flicker = Flicker(rect=(0, 0, 4, 4), colors=((10, 10, 10), (240, 240, 240)), period=2)
    spec = _tiny_spec(flickers=(flicker,))
    frames, _ = generate_scene(spec, seed=0)
    assert frames[0][0, 0, 0] == 10
    assert frames[1][0, 0, 0] == 10
    assert frames[2][0, 0, 0] == 240
    assert frames[3][0, 0, 0] == 240
    assert frames[4][0, 0, 0] == 10


def test_ramp_scales_frames():
    spec = _tiny_spec(background=(100, 100, 100), frames=3, ramp=GainRamp(1.0, 0.5))
    frames, _ = generate_scene(spec, seed=0)
    assert frames[0][0, 0, 0] == 100
    assert frames[1][0, 0, 0] == 75
    assert frames[2][0, 0, 0] == 50


def test_output_dtype_and_range():
    spec = _tiny_spec(background=(250, 250, 2), noise_sigma=30.0)
    frames, _ = generate_scene(spec, seed=9)
    for frame in frames:
        assert frame.dtype == np.uint8


@pytest.mark.parametrize(
    "overrides",
    [
        {"width": 0},
        {"frames": 0},
        {"noise_sigma": -1.0},
        {"background": (0, 0, 300)},
        {"actors": (Actor(size=(0, 2), color=(1, 1, 1), waypoints=(Waypoint(0, 0, 0),)),)},
        {"actors": (Actor(size=(2, 2), color=(1, 1, 1), waypoints=()),)},
        {"actors": (Actor(size=(2, 2), color=(1, 1, 1), waypoints=(Waypoint(0, 23, 0),)),)},
        {
            "actors": (
                Actor(
                    size=(2, 2),
                    color=(1, 1, 1),
                    waypoints=(Waypoint(5, 0, 0), Waypoint(5, 1, 1)),
                ),
            )
        },
        {"actors": (Actor(size=(2, 2), color=(1, 1, 1), waypoints=(Waypoint(0, 0, 0),), from_frame=3, to_frame=1),)},
        {"actors": (Actor(size=(2, 2), color=(1, 1, 1), waypoints=(Waypoint(0, 0, 0),), from_frame=-1),)},
        {"shadows": (ShadowPatch(rect=(0, 0, 30, 5), gain=0.5),)},
        {"shadows": (ShadowPatch(rect=(0, 0, 5, 5), gain=1.5),)},
        {"shadows": (ShadowPatch(rect=(0, 0, 5, 5), gain=0.5, from_frame=4, to_frame=2),)},
        {"shadows": (ShadowPatch(rect=(0, 0, 5, 5), gain=0.5, from_frame=-1),)},
        {"flickers": (Flicker(rect=(0, 0, 4, 4), colors=((0, 0, 0), (9, 9, 9)), period=0),)},
        {"ramp": GainRamp(0.0, 1.0)},
    ],
)
def test_spec_out_of_bounds(overrides):
    with pytest.raises(SpecOutOfBounds):
        _tiny_spec(**overrides)


def test_write_scene_files(tmp_path):
    spec = _tiny_spec(frames=3)
    count = write_scene(spec, seed=5, out_dir=tmp_path / "scene")
    assert count == 3
    frames = sorted((tmp_path / "scene").glob("frame_*.ppm"))
    truths = sorted((tmp_path / "scene").glob("truth_*.pgm"))
    assert [p.name for p in frames] == ["frame_000000.ppm", "frame_000001.ppm", "frame_000002.ppm"]
    assert len(truths) == 3
    img = decode_ppm(frames[0].read_bytes())
    assert img.shape == (18, 24, 3)
    truth = decode_pgm(truths[0].read_bytes())
    assert truth.shape == (18, 24)
    # files round-trip the in-memory render exactly
    mem_frames, mem_truths = generate_scene(spec, seed=5)
    assert np.array_equal(img, mem_frames[0])
    assert np.array_equal(truth, mem_truths[0])


def test_scene_from_dict_minimal():
    spec = scene_from_dict({"width": 32, "height": 20, "frames": 4})
    assert spec.width == 32 and spec.frames == 4
    assert spec.background == (120, 120, 120)


def test_scene_from_dict_full():
    spec = scene_from_dict(
        {
            "width": 64,
            "height": 48,
            "frames": 30,
            "background": [100, 110, 120],
            "noise_sigma": 1.5,
            "actors": [
                {
                    "size": [6, 6],
                    "color": [200, 40, 40],
                    "waypoints": [
                        {"frame": 5, "x": 0, "y": 0},
                        {"frame": 25, "x": 40, "y": 30},
                    ],
                    "halt_at": 20,
                    "from_frame": 5,
                    "to_frame": 28,
                }
            ],
            "shadows": [{"rect": [0, 40, 63, 47], "gain": 0.6, "from_frame": 10}],
            "flickers": [{"rect": [0, 0, 3, 3], "colors": [[0, 0, 0], [255, 255, 255]], "period": 4}],
            "ramp": {"start": 1.0, "end": 1.2},
        }
    )
    assert spec.actors[0].halt_at == 20
    assert spec.actors[0].from_frame == 5
    assert spec.shadows[0].gain == 0.6
    assert spec.flickers[0].period == 4
    assert spec.ramp == GainRamp(1.0, 1.2)


def test_scene_from_dict_errors():
    with pytest.raises(ValueError, match="missing required key"):
        scene_from_dict({"width": 10, "height": 10})
    with pytest.raises(ValueError, match="scene: unknown keys"):
        scene_from_dict({"width": 10, "height": 10, "frames": 2, "actor": []})
    with pytest.raises(ValueError, match=r"scene.actors\[0\].size"):
        scene_from_dict(
            {"width": 10, "height": 10, "frames": 2, "actors": [{"size": [3], "color": [1, 1, 1], "waypoints": []}]}
        )
    with pytest.raises(ValueError, match=r"waypoints\[0\]"):
        scene_from_dict(
            {
                "width": 10,
                "height": 10,
                "frames": 2,
                "actors": [{"size": [2, 2], "color": [1, 1, 1], "waypoints": [{"frame": 0}]}],
            }
        )
    with pytest.raises(ValueError, match="scene.ramp"):
        scene_from_dict({"width": 10, "height": 10, "frames": 2, "ramp": {"start": 1.0}})
    with pytest.raises(ValueError, match="scene.width"):
        scene_from_dict({"width": "ten", "height": 10, "frames": 2})
    with pytest.raises(ValueError, match="scene.frames"):
        scene_from_dict({"width": 10, "height": 10, "frames": None})
    with pytest.raises(ValueError, match="scene.background: expected a list of 3"):
        scene_from_dict({"width": 10, "height": 10, "frames": 2, "background": [1, 2]})
    with pytest.raises(ValueError, match=r"scene.flickers\[0\].colors: expected a list of 2"):
        scene_from_dict(
            {
                "width": 10,
                "height": 10,
                "frames": 2,
                "flickers": [{"rect": [0, 0, 1, 1], "colors": [[0, 0, 0], [9, 9, 9], [1, 1, 1]], "period": 2}],
            }
        )
    with pytest.raises(ValueError, match=r"scene.actors\[0\].waypoints\[1\]: missing required key 'y'"):
        scene_from_dict(
            {
                "width": 10,
                "height": 10,
                "frames": 2,
                "actors": [
                    {"size": [2, 2], "color": [1, 1, 1], "waypoints": [{"frame": 0, "x": 0, "y": 0}, {"frame": 1, "x": 1}]}
                ],
            }
        )
    with pytest.raises(ValueError, match=r"scene.actors\[0\].waypoints\[1\].x"):
        scene_from_dict(
            {
                "width": 10,
                "height": 10,
                "frames": 2,
                "actors": [
                    {
                        "size": [2, 2],
                        "color": [1, 1, 1],
                        "waypoints": [{"frame": 0, "x": 0, "y": 0}, {"frame": 1, "x": 1.5, "y": 0}],
                    }
                ],
            }
        )
    with pytest.raises(ValueError, match="scene.ramp: expected an object"):
        scene_from_dict({"width": 10, "height": 10, "frames": 2, "ramp": [1, 2]})


# SceneSpec's float fields, each set by the JSON a scene file would hold.
# json.dumps writes non-finite floats as the literals NaN and Infinity.
_SCENE_FLOAT_FIELDS = {
    "noise_sigma": lambda x: {"noise_sigma": x},
    "ramp.start": lambda x: {"ramp": {"start": x, "end": 1.0}},
    "ramp.end": lambda x: {"ramp": {"start": 1.0, "end": x}},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("name", list(_SCENE_FLOAT_FIELDS))
def test_non_finite_floats_rejected(name, value):
    data = {"width": 24, "height": 18, "frames": 6, **_SCENE_FLOAT_FIELDS[name](value)}
    with pytest.raises(SpecOutOfBounds, match=name.split(".")[0]):
        scene_from_dict(json.loads(json.dumps(data)))


def _every_feature_scene() -> SceneSpec:
    return SceneSpec(
        width=64,
        height=48,
        frames=30,
        background=(100, 110, 120),
        noise_sigma=1.5,
        actors=(
            Actor(
                size=(6, 4),
                color=(200, 40, 40),
                waypoints=(Waypoint(5, 0, 0), Waypoint(25, 40, 30)),
                halt_at=20,
                from_frame=5,
                to_frame=28,
            ),
            Actor(size=(3, 3), color=(0, 0, 0), waypoints=(Waypoint(0, 1, 1),)),
        ),
        shadows=(ShadowPatch(rect=(0, 40, 63, 47), gain=0.6, from_frame=10, to_frame=20),),
        flickers=(Flicker(rect=(0, 0, 3, 3), colors=((0, 0, 0), (255, 255, 255)), period=4),),
        ramp=GainRamp(1.0, 1.2),
    )


@pytest.mark.parametrize("spec", [standard_scene(), _every_feature_scene()], ids=["standard", "every_feature"])
def test_asdict_json_round_trip(spec):
    assert scene_from_dict(json.loads(json.dumps(asdict(spec)))) == spec


def test_standard_scene_shape():
    spec = standard_scene()
    assert (spec.width, spec.height, spec.frames) == (160, 120, 100)
    assert spec.actors[0].from_frame == 20
    assert spec.shadows[0].from_frame == 60
