"""In-memory throughput benchmark over a synthetic scene."""

from __future__ import annotations

import resource
import time

import numpy as np

from .config import RunConfig
from .pipeline import STAGE_NAMES, FramePipeline
from .scenes import SceneSpec, generate_scene, standard_scene


def benchmark(
    config: RunConfig | None = None,
    spec: SceneSpec | None = None,
    seed: int = 7,
    reps: int = 3,
) -> dict:
    """Run the compute pipeline over pre-rendered frames, no disk in the loop.

    Each rep uses a fresh pipeline over the same frames. Reports per-rep
    fps, their mean and minimum, the p95 frame latency of the last rep,
    how the last rep's time splits across the four compute stages, and
    the minor page faults the process took per frame of the last rep.
    A frame that allocates fresh memory pays for those faults: steady
    state should take few.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if config is None:
        config = RunConfig()
    if spec is None:
        spec = standard_scene()
    frames, _ = generate_scene(spec, seed)
    fps = []
    last_pipeline = None
    last_times: list[float] = []
    for _ in range(reps):
        faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        pipeline = FramePipeline(config, spec.width, spec.height)
        times = []
        try:
            for frame in frames:
                t0 = time.perf_counter()
                pipeline.process(frame)
                times.append(time.perf_counter() - t0)
        finally:
            pipeline.close()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before
        fps.append(len(frames) / sum(times))
        last_pipeline = pipeline
        last_times = times
    stage_seconds = dict(last_pipeline.stage_seconds)
    return {
        "frames": len(frames),
        "width": spec.width,
        "height": spec.height,
        "reps": reps,
        "fps": fps,
        "mean_fps": sum(fps) / len(fps),
        "min_fps": min(fps),
        "p95_frame_ms": float(np.percentile(np.array(last_times) * 1000.0, 95)),
        "total_seconds": sum(last_times),
        "stages": {name: stage_seconds[name] for name in STAGE_NAMES},
        "minor_faults_per_frame": faults / len(frames),
    }
