"""CLI behavior through real subprocess invocations."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bgsub

CLI = [sys.executable, "-m", "bgsub.cli"]

# The child interpreter imports the same bgsub as this one, also when it
# comes from pytest's pythonpath setting rather than the environment.
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(bgsub.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    ),
}

SCENE = {
    "width": 40,
    "height": 30,
    "frames": 35,
    "noise_sigma": 1.0,
    "actors": [
        {
            "size": [6, 6],
            "color": [200, 60, 60],
            "waypoints": [{"frame": 5, "x": 2, "y": 12}, {"frame": 20, "x": 30, "y": 12}],
            "from_frame": 5,
        }
    ],
}


def _run(*argv, stdin_bytes=None):
    return subprocess.run(
        CLI + list(argv),
        input=stdin_bytes,
        capture_output=True,
        timeout=120,
        env=_ENV,
    )


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared gen -> run flow: scene files plus a processed output directory."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "scene.json"
    spec_path.write_text(json.dumps(SCENE))
    config_path = root / "run.json"
    config_path.write_text(json.dumps({"events": {"n_static": 5, "eps_move": 1.0}}))

    gen = _run("gen", "--out", str(root / "scene"), "--spec", str(spec_path), "--seed", "3")
    assert gen.returncode == 0, gen.stderr.decode()

    run = _run(
        "run",
        "--config",
        str(config_path),
        "--input",
        str(root / "scene"),
        "--output",
        str(root / "out"),
    )
    assert run.returncode == 0, run.stderr.decode()
    return {"root": root, "spec": spec_path, "config": config_path, "gen": gen, "run": run}


def test_gen_reports_scene(work):
    report = json.loads(work["gen"].stdout)
    assert report["frames"] == 35
    assert report["width"] == 40 and report["height"] == 30
    scene = work["root"] / "scene"
    assert len(list(scene.glob("frame_*.ppm"))) == 35
    assert len(list(scene.glob("truth_*.pgm"))) == 35


def test_run_prints_stats(work):
    stats = json.loads(work["run"].stdout)
    assert stats["frames"] == 35
    assert set(stats["events"]) == {"intrusion", "abandoned", "motion_started"}
    assert stats["events"]["motion_started"] >= 1
    out = work["root"] / "out"
    assert len(list(out.glob("mask_*.pgm"))) == 35
    assert (out / "stats.json").is_file()


def test_score_flow(work):
    result = _run(
        "score",
        "--pred",
        str(work["root"] / "out"),
        "--truth",
        str(work["root"] / "scene"),
        "--warmup",
        "12",
    )
    assert result.returncode == 0, result.stderr.decode()
    report = json.loads(result.stdout)
    assert report["frames_scored"] == 23
    fg = report["per_class"]["foreground"]
    assert fg["f1"] is not None and fg["f1"] > 0.9


def test_run_emit_subset(work, tmp_path):
    out = tmp_path / "lean"
    result = _run(
        "run",
        "--config",
        str(work["config"]),
        "--input",
        str(work["root"] / "scene"),
        "--output",
        str(out),
        "--frames",
        "6",
        "--emit",
        "masks,stats",
    )
    assert result.returncode == 0, result.stderr.decode()
    assert len(list(out.glob("mask_*.pgm"))) == 6
    assert list(out.glob("overlay_*.ppm")) == []
    assert not (out / "events.jsonl").exists()
    assert (out / "stats.json").is_file()


def test_run_stdin_raw(work, tmp_path):
    # feed the generated frames as a raw RGB24 stream
    raw = b""
    for path in sorted((work["root"] / "scene").glob("frame_*.ppm"))[:8]:
        data = path.read_bytes()
        offset = data.index(b"255\n") + 4
        raw += data[offset:]
    out = tmp_path / "stdin_out"
    result = _run(
        "run",
        "--config",
        str(work["config"]),
        "--input",
        "-",
        "--width",
        "40",
        "--height",
        "30",
        "--output",
        str(out),
        stdin_bytes=raw,
    )
    assert result.returncode == 0, result.stderr.decode()
    stats = json.loads(result.stdout)
    assert stats["frames"] == 8
    assert (out / "mask_000007.pgm").is_file()


def test_bench_command(work):
    result = _run("bench", "--spec", str(work["spec"]), "--reps", "1", "--seed", "3")
    assert result.returncode == 0, result.stderr.decode()
    report = json.loads(result.stdout)
    assert report["frames"] == 35
    assert report["min_fps"] > 0.0
    assert set(report["stages"]) == {"model", "shadow", "ccl", "events"}


def test_bad_config_exits_one(work, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"alpha": 7.0}}))
    result = _run("run", "--config", str(bad), "--input", str(work["root"] / "scene"))
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"bgsub:" in result.stderr
    assert b"alpha" in result.stderr


def test_flag_overrides_are_validated(work, tmp_path):
    result = _run(
        "run",
        "--config",
        str(work["config"]),
        "--input",
        str(work["root"] / "scene"),
        "--output",
        str(tmp_path / "out"),
        "--frames",
        "-1",
    )
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"max_frames" in result.stderr


def test_missing_input_exits_one(work, tmp_path):
    result = _run(
        "run", "--config", str(work["config"]), "--input", str(tmp_path / "nowhere")
    )
    assert result.returncode == 1
    assert b"bgsub:" in result.stderr


def test_malformed_json_config_exits_one(work, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{]")
    result = _run("run", "--config", str(broken), "--input", str(work["root"] / "scene"))
    assert result.returncode == 1
    assert b"bgsub:" in result.stderr


def test_unknown_emit_name_exits_one(work):
    result = _run(
        "run",
        "--config",
        str(work["config"]),
        "--input",
        str(work["root"] / "scene"),
        "--frames",
        "1",
        "--emit",
        "masks,videos",
    )
    assert result.returncode == 1
    assert b"videos" in result.stderr


def test_score_length_mismatch_exits_one(work, tmp_path):
    short = tmp_path / "short"
    short.mkdir()
    masks = sorted((work["root"] / "out").glob("mask_*.pgm"))[:3]
    for p in masks:
        (short / p.name).write_bytes(p.read_bytes())
    result = _run("score", "--pred", str(short), "--truth", str(work["root"] / "scene"))
    assert result.returncode == 1
    assert b"bgsub:" in result.stderr


def test_missing_subcommand_usage_error():
    result = _run()
    assert result.returncode == 2
    assert b"usage" in result.stderr.lower()


def test_console_script_installed():
    result = subprocess.run(["bgsub", "--help"], capture_output=True, timeout=60)
    assert result.returncode == 0
    assert b"run" in result.stdout and b"bench" in result.stdout
