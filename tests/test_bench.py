"""Benchmark report shape and sanity."""

import threading

import pytest

from bgsub.bench import benchmark
from bgsub.config import RunConfig
from bgsub.pipeline import STAGE_NAMES, FramePipeline
from bgsub.scenes import SceneSpec


def _small_spec(width=40, height=30, frames=12):
    return SceneSpec(width=width, height=height, frames=frames, noise_sigma=1.0)


def test_report_fields():
    report = benchmark(spec=_small_spec(), reps=2)
    assert report["frames"] == 12
    assert report["width"] == 40 and report["height"] == 30
    assert report["reps"] == 2
    assert len(report["fps"]) == 2
    assert all(f > 0.0 for f in report["fps"])
    assert report["min_fps"] == min(report["fps"])
    assert report["mean_fps"] == pytest.approx(sum(report["fps"]) / 2)
    assert report["min_fps"] <= report["mean_fps"]
    assert report["p95_frame_ms"] > 0.0
    assert report["total_seconds"] > 0.0
    # One fault count a frame per rep, as for fps.
    faults = report["minor_faults_per_frame"]
    assert len(faults) == 2
    assert all(f >= 0.0 for f in faults)


def test_stage_split_covers_total():
    report = benchmark(spec=_small_spec(), reps=1)
    assert list(report["stages"]) == list(STAGE_NAMES)
    stage_sum = sum(report["stages"].values())
    assert 0.0 < stage_sum <= report["total_seconds"] * 1.05


def test_reps_validation():
    with pytest.raises(ValueError):
        benchmark(spec=_small_spec(), reps=0)


def test_larger_raster_is_slower_per_frame():
    small = benchmark(spec=_small_spec(width=32, height=24, frames=10), reps=1)
    large = benchmark(spec=_small_spec(width=128, height=96, frames=10), reps=1)
    # 16x the pixels cannot be faster per frame
    assert large["total_seconds"] > small["total_seconds"]


def test_config_passes_through():
    report = benchmark(config=RunConfig(workers=2), spec=_small_spec(), reps=1)
    assert report["frames"] == 12


def test_failed_rep_closes_its_band_pool(monkeypatch):
    process = FramePipeline.process

    def fail_at_frame_3(self, frame):
        if self.frame_index == 3:
            raise RuntimeError("frame 3")
        return process(self, frame)

    monkeypatch.setattr(FramePipeline, "process", fail_at_frame_3)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="frame 3"):
        benchmark(config=RunConfig(workers=2), spec=_small_spec(), reps=1)
    assert set(threading.enumerate()) == before
