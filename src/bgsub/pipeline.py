"""Frame pipeline: decode, model update, shadow refine, blobs, events, emit.

Per frame the order is fixed: mixture update labels every pixel, shadow
refinement downgrades foreground pixels that look like dimmed background,
the remaining foreground pixels (shadow excluded) are segmented into
blobs, and the tracker turns blobs into events. The first frame seeds the
models and is classified all background.

Worker parallelism splits the raster into contiguous row bands with an
independent mixture engine per band; pixels are modeled independently, so
band boundaries cannot change any label. Decoding runs in a reader thread
feeding a bounded queue (queue_depth), and mask and overlay files are
written in order by a writer thread fed the same way, so that creating
them overlaps the next frame's compute; timing covers compute only, so
neither knob affects results, only scheduling.
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
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
        self.config = config
        self.width = width
        self.height = height
        n_workers = min(config.workers, height)
        bounds = np.linspace(0, height, n_workers + 1).astype(int)
        self._bands = [(int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if b > a]
        self.models = [
            FrameModel(config.model, (b - a) * width) for a, b in self._bands
        ]
        self.tracker = EventTracker(config.events, config.zones)
        self._pool = ThreadPoolExecutor(len(self._bands)) if len(self._bands) > 1 else None
        self.frame_index = 0
        self.stage_seconds = dict.fromkeys(STAGE_NAMES, 0.0)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _map_bands(self, fn, args_per_band):
        if self._pool is None:
            return [fn(*args) for args in args_per_band]
        return list(self._pool.map(lambda a: fn(*a), args_per_band))

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
        h, w = self.height, self.width
        z = frame.reshape(-1, 3).astype(np.float64)
        band_z = [z[a * w : b * w] for a, b in self._bands]

        t0 = time.perf_counter()
        observed = self._map_bands(
            lambda model, zb: model.observe(zb), list(zip(self.models, band_z))
        )
        t1 = time.perf_counter()
        refined = self._map_bands(
            lambda model, zb, obs: refine_classes(obs[0], zb, model.means, obs[2], cfg.shadow),
            list(zip(self.models, band_z, observed)),
        )
        classes = np.concatenate(refined).reshape(h, w)
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


class _ReaderFailed:
    def __init__(self, exc: BaseException):
        self.exc = exc


def _read_exact(stream, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _dir_reader(paths, out_q, stop):
    try:
        for i, path in enumerate(paths):
            frame = decode_frame(path.read_bytes())
            if not _queue_put(out_q, (i, frame), stop):
                return
    except Exception as exc:
        _queue_put(out_q, _ReaderFailed(exc), stop)
        return
    _queue_put(out_q, None, stop)


def _stdin_reader(stream, width, height, limit, out_q, stop):
    need = width * height * 3
    try:
        i = 0
        while limit is None or i < limit:
            data = _read_exact(stream, need)
            if not data:
                break
            if len(data) < need:
                raise TruncatedPayload(
                    f"raw frame {i} needs {need} bytes, stream ended after {len(data)}"
                )
            frame = decode_frame(data, width, height)
            if not _queue_put(out_q, (i, frame), stop):
                return
            i += 1
    except Exception as exc:
        _queue_put(out_q, _ReaderFailed(exc), stop)
        return
    _queue_put(out_q, None, stop)


def _queue_put(out_q, item, stop) -> bool:
    while not stop.is_set():
        try:
            out_q.put(item, timeout=0.1)
            return True
        except queue.Full:
            continue
    return False


def _frame_source(config: RunConfig, stop: threading.Event):
    """Start the reader thread; return (queue, thread)."""
    if config.input is None:
        raise InputUnavailable("no input configured")
    out_q: queue.Queue = queue.Queue(maxsize=config.queue_depth)
    if config.input == "-":
        if config.width is None or config.height is None:
            raise InputUnavailable("raw stdin input needs width and height")
        if config.width < 1 or config.height < 1:
            raise InputUnavailable(f"bad raw dimensions {config.width}x{config.height}")
        thread = threading.Thread(
            target=_stdin_reader,
            args=(sys.stdin.buffer, config.width, config.height, config.max_frames, out_q, stop),
            daemon=True,
        )
    else:
        in_dir = Path(config.input)
        if not in_dir.is_dir():
            raise InputUnavailable(f"input directory {in_dir} does not exist")
        paths = sorted(in_dir.glob("frame_*.ppm"))
        if not paths:
            raise InputUnavailable(f"no frame_*.ppm files in {in_dir}")
        if config.max_frames is not None:
            paths = paths[: config.max_frames]
        thread = threading.Thread(target=_dir_reader, args=(paths, out_q, stop), daemon=True)
    thread.start()
    return out_q, thread


class _FileWriter:
    """Writes batches of (path, bytes) in order on a thread of its own.

    put() blocks while depth batches wait. After a failed write the rest
    are dropped, and the next put() or close() raises the error.
    """

    def __init__(self, depth: int):
        self._q: queue.Queue = queue.Queue(maxsize=depth)
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while (files := self._q.get()) is not None:
            if self._error is not None:
                continue
            try:
                for path, data in files:
                    path.write_bytes(data)
            except Exception as exc:  # raised again on the calling thread
                self._error = exc

    def put(self, files: list) -> None:
        if self._error is not None:
            raise self._error
        self._q.put(files)

    def join(self) -> None:
        """Finish the queued writes and end the thread."""
        if self._thread.is_alive():
            self._q.put(None)
            self._thread.join()

    def close(self) -> None:
        """join(), then raise the first write error, if any."""
        self.join()
        if self._error is not None:
            raise self._error


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
    cover compute only; decoding and disk writes happen outside the
    timed sections.

    A run that ends by an exception, an interrupt included, still writes
    the stats of the frames processed so far, with an added "error" key,
    and then re-raises.
    """
    out_dir = _prepare_output(config)
    frame_seconds: list[float] = []
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
    stop = threading.Event()
    frames_q, reader = _frame_source(config, stop)
    emit = config.emit
    pipeline: FramePipeline | None = None
    events_file = None
    writer = None
    if out_dir is not None and (emit.masks or emit.overlays):
        writer = _FileWriter(config.queue_depth)
    try:
        if out_dir is not None and emit.events:
            events_file = (out_dir / "events.jsonl").open("w", encoding="utf-8")
        processed = 0
        while True:
            if config.max_frames is not None and processed >= config.max_frames:
                break
            item = frames_q.get()
            if item is None:
                break
            if isinstance(item, _ReaderFailed):
                raise item.exc
            index, frame = item
            if pipeline is None:
                h, w = frame.shape[:2]
                pipeline = FramePipeline(config, w, h)
            t0 = time.perf_counter()
            result = pipeline.process(frame)
            frame_seconds.append(time.perf_counter() - t0)
            processed += 1
            for event in result.events:
                event_counts[event.kind] += 1
                if events_file is not None:
                    events_file.write(json.dumps(event.to_json()) + "\n")
            if writer is not None:
                files = []
                if emit.masks:
                    files.append((out_dir / f"mask_{index:06d}.pgm", encode_mask(result.classes)))
                if emit.overlays:
                    overlay = render_overlay(frame, result.classes)
                    files.append((out_dir / f"overlay_{index:06d}.ppm", encode_ppm(overlay)))
                writer.put(files)
        if writer is not None:
            writer.close()
    finally:
        if writer is not None:
            writer.join()
        stop.set()
        while True:  # unblock the reader if it is waiting on a full queue
            try:
                frames_q.get_nowait()
            except queue.Empty:
                break
        reader.join(timeout=5.0)
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
        "events": {
            "intrusion": event_counts[KIND_INTRUSION],
            "abandoned": event_counts[KIND_ABANDONED],
            "motion_started": event_counts[KIND_MOTION_STARTED],
        },
    }


def _write_stats(config: RunConfig, out_dir: Path | None, stats: dict) -> None:
    if out_dir is not None and config.emit.stats:
        (out_dir / "stats.json").write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")
