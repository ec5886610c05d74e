"""Smoke check of the benchmark itself, on a tiny scene.

    python3 -m pytest -q perfbench/smoke_check.py

Checks that each mode prints exactly the metrics BENCHMARK.json names,
that the times are scaled by the run's slowdown, and that the output
checks can fail.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_program()

import workloads  # noqa: E402
from bgsub.config import RunConfig  # noqa: E402
from bgsub.pipeline import run_pipeline  # noqa: E402
from bgsub.scenes import Actor, SceneSpec, ShadowPatch, Waypoint, generate_scene  # noqa: E402
from stream import digest_outputs, one_pass  # noqa: E402


def tiny() -> workloads.Workload:
    spec = SceneSpec(
        width=48,
        height=36,
        frames=40,
        actors=(Actor(size=(8, 8), color=(180, 60, 60), from_frame=5,
                      waypoints=(Waypoint(5, 2, 4), Waypoint(39, 36, 24))),),
        shadows=(ShadowPatch(rect=(2, 28, 45, 34), gain=0.6, from_frame=30, to_frame=38),),
    )
    return workloads.Workload("tiny", spec, RunConfig())


def _printed_result(monkeypatch, capsys, trace: int, wl=None) -> tuple[dict, dict]:
    monkeypatch.setattr(workloads, "make_workload", lambda name: wl or tiny())
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed(monkeypatch, capsys, trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    details, line = _printed_result(monkeypatch, capsys, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, details["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 40
    assert {m["name"]: m["unit"] for m in spec[section]} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert set(details["env"]) == {"python", "numpy", "nproc", "cpu", "commit", "seed"}
    if trace == 0:
        speed = details["speed"]
        values = {name: m["value"] for name, m in line["metrics"].items()}
        samples = details["samples"]
        assert samples["reference"] == samples["latency_passes"] * samples["frames_per_pass"]
        assert values["fps"] == pytest.approx(speed["measured"]["fps"] * speed["slowdown"])
        assert values["setup_s"] == pytest.approx(speed["measured"]["setup_s"] / speed["slowdown"])

def _expected(wl):
    frames, _ = generate_scene(wl.spec, 3)
    _, classes, events = run.latency_pass(wl, frames)
    return frames, run.expected_outputs(classes, events), run.count_events(events)


def test_checks_fail_on_corrupted_outputs(tmp_path):
    wl = tiny()
    frames, expected, counts = _expected(wl)
    run.write_frames(frames, tmp_path / "in")
    config = replace(wl.config, input=str(tmp_path / "in"), output=str(tmp_path / "out"))
    run_pipeline(config)
    out = tmp_path / "out"
    assert run.check_pass(digest_outputs(out), expected, counts) == (0, [])

    mask = sorted(out.glob("mask_*.pgm"))[7]
    data = bytearray(mask.read_bytes())
    data[-1] ^= 0xFF
    mask.write_bytes(bytes(data))
    failed, problems = run.check_pass(digest_outputs(out), expected, counts)
    assert failed == 1 and problems == []

    (out / "events.jsonl").write_text("")
    failed, problems = run.check_pass(digest_outputs(out), expected, counts)
    assert any("events.jsonl" in p for p in problems)


def test_checks_fail_when_the_run_raises(tmp_path):
    wl = tiny()
    frames, expected, counts = _expected(wl)
    run.write_frames(frames, tmp_path / "in")
    (tmp_path / "in" / "frame_000020.ppm").write_bytes(b"P6\n48 36\n255\n")  # truncated payload
    config = replace(wl.config, input=str(tmp_path / "in"))
    got = one_pass(run_pipeline, config, tmp_path / "out")
    failed, problems = run.check_pass(got, expected, counts)
    assert got["error"] and failed == 20
    assert any("raised" in p for p in problems)


@pytest.mark.parametrize("trace", [0, 1])
def test_f1_floor_can_fail(monkeypatch, capsys, trace):
    strict = replace(tiny(), fg_f1_floor=1.01)
    details, line = _printed_result(monkeypatch, capsys, trace, strict)
    assert line["correct"] is False
    assert any("below floor" in p for p in details["problems"])
