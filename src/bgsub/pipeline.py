"""Frame pipeline: decode, model update, shadow refine, blobs, events, emit.

Per frame the order is fixed: mixture update labels every pixel, shadow
refinement downgrades foreground pixels that look like dimmed background,
the remaining foreground pixels (shadow excluded) are segmented into
blobs, and the tracker turns blobs into events. The first frame seeds the
models and is classified all background.

Worker parallelism splits the raster into contiguous row bands, each with
its own mixture engine, and runs a band's mixture update and shadow
refinement as one task; pixels are modeled independently, so band
boundaries cannot change any label. Reads and writes each run on a
one-thread executor, in frame order. The reader decodes up to queue_depth
frames ahead of the one being processed; a failed read raises at its own
frame. The writer encodes the mask, renders and encodes the overlay, and
writes both files while later frames compute; it is handed the frame and
its result, which nothing writes to afterwards. Once more than
queue_depth frames' writes are pending, the loop waits for the oldest; a
failed write ends the run at that wait, queue_depth frames after its own.
Any exit waits for the read in flight and the queued writes. Timing
covers compute only, so neither knob affects results, only scheduling.

Each band model owns its own work buffers (see bgsub.frame_model). This
keeps a steady frame from allocating full-raster temporaries: once freed,
those go back to the system, and the next frame pays page faults to get
them again. The arrays in a FrameResult are new for every frame.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import EmitFlags, RunConfig
from .errors import (
    DimensionChangedMidStream,
    InputUnavailable,
    OutputUnwritable,
    TruncatedPayload,
)
from .events import (
    KIND_ABANDONED,
    KIND_INTRUSION,
    KIND_MOTION_STARTED,
    Event,
    EventTracker,
)
from .frame_model import FrameModel
from .gmm import FOREGROUND
from .netpbm import decode_frame, encode_mask, encode_ppm, render_overlay
from .segmentation import Blob, extract_blobs, label_components
from .shadow import refine_classes

STAGE_NAMES = ("model", "shadow", "ccl", "events")


@dataclass
class FrameResult:
    index: int
    classes: np.ndarray  # (h, w) uint8: 0 background, 128 shadow, 255 foreground
    blobs: list[Blob]
    events: list[Event]


class FramePipeline:
    """Stateful per-stream engine; one instance per video stream."""

    def __init__(self, config: RunConfig, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError(f"width {width} and height {height} must both be at least 1")
        for zone in config.zones:
            x0, y0, x1, y1 = zone.rect
            # Such a zone can never overlap a blob, so its alarm could never fire.
            if x1 < 0 or y1 < 0 or x0 >= width or y0 >= height:
                raise ValueError(
                    f"zone {zone.name!r} rect {zone.rect} lies outside the {width}x{height} raster"
                )
        self.config = config
        self.width = width
        self.height = height
        bounds = np.linspace(0, height, min(config.workers, height) + 1).astype(int) * width
        self._bands = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.models = [FrameModel(config.model, band.stop - band.start) for band in self._bands]
        self.tracker = EventTracker(config.events, config.zones)
        self._pool = ThreadPoolExecutor(len(self.models)) if len(self.models) > 1 else None
        self.frame_index = 0
        self.stage_seconds = dict.fromkeys(STAGE_NAMES, 0.0)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _band(self, model: FrameModel, z: np.ndarray) -> tuple[np.ndarray, float]:
        """Observe and refine one band; return its classes and the
        perf_counter() reading taken between the two."""
        # Only labels and b go on; pos is dropped at once, so that it does
        # not add to the frame's peak memory.
        labels, b = model.observe(z)[::2]
        t_observed = time.perf_counter()
        return refine_classes(labels, z, model.mean_planes, b, self.config.shadow), t_observed

    def process(self, frame: np.ndarray) -> FrameResult:
        """Advance the pipeline by one (h, w, 3) uint8 frame."""
        if frame.shape != (self.height, self.width, 3):
            raise DimensionChangedMidStream(
                f"frame {self.frame_index}: {frame.shape[1::-1]} after "
                f"({self.width}, {self.height})"
            )
        if frame.dtype != np.uint8:
            raise ValueError(f"frame {self.frame_index}: dtype {frame.dtype}, expected uint8")
        cfg = self.config
        pixels = frame.reshape(-1, 3)

        t0 = time.perf_counter()
        band_map = map if self._pool is None else self._pool.map
        bands = (pixels[band] for band in self._bands)
        refined, observed_at = zip(*band_map(self._band, self.models, bands))
        # The model stage ends when the last band has observed.
        t1 = max(observed_at)
        classes = np.concatenate(refined).reshape(self.height, self.width)
        t2 = time.perf_counter()
        mask = classes == FOREGROUND
        labels = label_components(mask, cfg.segmentation.connectivity)
        blobs = extract_blobs(labels, cfg.segmentation.min_area)
        t3 = time.perf_counter()
        events = self.tracker.process_frame(blobs, self.frame_index)
        t4 = time.perf_counter()

        self.stage_seconds["model"] += t1 - t0
        self.stage_seconds["shadow"] += t2 - t1
        self.stage_seconds["ccl"] += t3 - t2
        self.stage_seconds["events"] += t4 - t3
        result = FrameResult(self.frame_index, classes, blobs, events)
        self.frame_index += 1
        return result


def _raw_frames(stream, width: int, height: int):
    """Decode raw RGB24 width x height frames from stream until it ends.
    stream is a buffered binary stream, such as sys.stdin.buffer, whose
    read(n) returns n bytes unless the stream ends first."""
    need = width * height * 3
    for i in itertools.count():
        data = stream.read(need)
        if not data:
            return
        if len(data) < need:
            raise TruncatedPayload(
                f"raw frame {i} needs {need} bytes, stream ended after {len(data)}"
            )
        yield decode_frame(data, width, height)


def _frames(config: RunConfig):
    """Check the input; return an iterator of its decoded frames."""
    if config.input is None:
        raise InputUnavailable("no input configured")
    if config.input == "-":
        if config.width is None or config.height is None:
            raise InputUnavailable("raw stdin input needs width and height")
        frames = _raw_frames(sys.stdin.buffer, config.width, config.height)
    else:
        paths = list_files(config.input, "frame_*.ppm")
        frames = (decode_frame(path.read_bytes()) for path in paths)
    return itertools.islice(frames, config.max_frames)


def list_files(dir_path: str, pattern: str) -> list[Path]:
    """The files in directory dir_path whose names match pattern, sorted;
    InputUnavailable if the directory is missing or nothing matches."""
    d = Path(dir_path)
    if not d.is_dir():
        raise InputUnavailable(f"directory {d} does not exist")
    paths = sorted(d.glob(pattern))
    if not paths:
        raise InputUnavailable(f"no {pattern} files in {d}")
    return paths


def _write_files(out_dir: Path, emit: EmitFlags, frame: np.ndarray, result: FrameResult) -> None:
    """Encode one frame's mask and overlay and write them, mask first."""
    if emit.masks:
        (out_dir / f"mask_{result.index:06d}.pgm").write_bytes(encode_mask(result.classes))
    if emit.overlays:
        overlay = render_overlay(frame, result.classes)
        (out_dir / f"overlay_{result.index:06d}.ppm").write_bytes(encode_ppm(overlay))


def _prepare_output(config: RunConfig) -> Path | None:
    if config.output is None:
        return None
    out = Path(config.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as exc:
        raise OutputUnwritable(f"cannot write to {out}: {exc}") from None
    return out


def run_pipeline(config: RunConfig) -> dict:
    """Run a whole stream through the pipeline; return the stats object.

    Emits mask/overlay rasters, an events JSONL and a stats JSON into the
    output directory according to the emit flags (file outputs are
    skipped when no output directory is configured). Throughput numbers
    cover compute only; decoding, encoding and disk writes happen outside
    the timed sections.

    A run that ends by an exception, an interrupt included, still writes
    the stats of the frames processed so far, with an added "error" key,
    and then re-raises.
    """
    out_dir = _prepare_output(config)
    frame_seconds: list[float] = []
    # Keys in the order stats.json lists them.
    event_counts = {KIND_INTRUSION: 0, KIND_ABANDONED: 0, KIND_MOTION_STARTED: 0}
    try:
        _run_stream(config, out_dir, frame_seconds, event_counts)
    except BaseException as exc:
        stats = _stats(frame_seconds, event_counts)
        stats["error"] = f"{type(exc).__name__}: {exc}"
        _write_stats(config, out_dir, stats)
        raise
    stats = _stats(frame_seconds, event_counts)
    _write_stats(config, out_dir, stats)
    return stats


def _run_stream(
    config: RunConfig, out_dir: Path | None, frame_seconds: list[float], event_counts: dict
) -> None:
    """Read, process and emit every frame; append each frame's compute time
    to frame_seconds and count its events as they happen."""
    frames = _frames(config)
    emit = config.emit
    pipeline: FramePipeline | None = None
    events_file = None
    # reader decodes frames in order, at most queue_depth ahead of the one
    # being processed; reads holds their futures, and a read past the end
    # returns None. writer runs the file writes in order; pending holds
    # their futures.
    reader = ThreadPoolExecutor(1)
    reads = deque(reader.submit(next, frames, None) for _ in range(config.queue_depth))
    writer = None
    pending: deque = deque()
    if out_dir is not None and (emit.masks or emit.overlays):
        writer = ThreadPoolExecutor(1)
    try:
        if out_dir is not None and emit.events:
            events_file = (out_dir / "events.jsonl").open("w", encoding="utf-8")
        while (frame := reads.popleft().result()) is not None:  # raises a failed read's error
            reads.append(reader.submit(next, frames, None))
            if pipeline is None:
                h, w = frame.shape[:2]
                pipeline = FramePipeline(config, w, h)
            t0 = time.perf_counter()
            result = pipeline.process(frame)
            frame_seconds.append(time.perf_counter() - t0)
            for event in result.events:
                event_counts[event.kind] += 1
                if events_file is not None:
                    events_file.write(json.dumps(event.to_json()) + "\n")
            if writer is not None:
                pending.append(writer.submit(_write_files, out_dir, emit, frame, result))
                if len(pending) > config.queue_depth:
                    pending.popleft().result()  # raises a failed write's error
        while pending:
            pending.popleft().result()
    finally:
        reader.shutdown(cancel_futures=True)  # waits for the read in flight
        if writer is not None:
            writer.shutdown()  # waits for the queued writes
        if events_file is not None:
            events_file.close()
        if pipeline is not None:
            pipeline.close()


def _stats(frame_seconds: list[float], event_counts: dict) -> dict:
    n = len(frame_seconds)
    total = sum(frame_seconds)
    return {
        "frames": n,
        "mean_fps": (n / total) if total > 0.0 else 0.0,
        "p95_frame_ms": float(np.percentile(np.array(frame_seconds) * 1000.0, 95)) if n else 0.0,
        "events": dict(event_counts),
    }


def _write_stats(config: RunConfig, out_dir: Path | None, stats: dict) -> None:
    if out_dir is not None and config.emit.stats:
        (out_dir / "stats.json").write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")
