"""Spans and counts around the layer calls that run_pipeline makes.

The tracer wraps, for the duration of a ``with install(tracer):`` block,
the public functions that ``bgsub.pipeline`` calls: ``FramePipeline.process``,
``FrameModel.observe``, ``EventTracker.process_frame``, the netpbm and
segmentation names that ``pipeline.py`` imported into its namespace, and
``Path`` there, so that every file the run writes goes through a timed
write. Nothing in the package is edited; the originals are restored on
exit.

Each span records name, start, end (``perf_counter_ns``), parent span,
thread and frame index; the frame index is the id shared by the spans of
one frame. Counts are taken from the arguments and return values at the
same boundaries, after the span's end time is read, so they cost no span
time. Spans stay in memory until :func:`layer_metrics` reduces them.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bgsub.pipeline as pl
from bgsub.events import KIND_ABANDONED, KIND_INTRUSION, KIND_MOTION_STARTED, EventTracker
from bgsub.frame_model import FrameModel
from bgsub.gmm import FOREGROUND
from bgsub.shadow import SHADOW

EVENT_KINDS = (KIND_MOTION_STARTED, KIND_ABANDONED, KIND_INTRUSION)


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    thread: int
    frame: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Set on the main thread around FramePipeline.process; band workers
        # and the emit calls that follow it read them.
        self.frame = -1
        self.process_span: int | None = None
        self.root: int | None = None
        self._decoded = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, frame: int, parent: int | None = None):
        """Time the block; yields the span's counts dict to fill after it ends.

        Without an explicit parent, the enclosing span on this thread is the
        parent; on a band worker thread, with no enclosing span, it is the
        FramePipeline.process call that handed out the band.
        """
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else self.process_span
        stack.append(sid)
        counts: dict = {}
        start = time.perf_counter_ns()
        try:
            yield counts
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), frame, counts))

    @contextmanager
    def run(self):
        """Root span around one run_pipeline call."""
        self.frame = -1
        self._decoded = 0
        with self.span("pipeline.run", -1) as counts:
            self.root = self._stack()[-1]
            yield counts
        self.root = None


def _timed(tracer: Tracer, name: str, fn, count=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name, tracer.frame) as counts:
            out = fn(*args, **kwargs)
        if count is not None:
            count(counts, args, out)
        return out

    return wrapper


def _count_observe(counts, args, out):
    model, labels = args[0], out[0]
    counts["fg"] = int(np.count_nonzero(labels == FOREGROUND))
    counts["pixels"] = labels.size
    counts["live"] = int(model.live_count.sum())


def _count_refine(counts, args, out):
    counts["candidates"] = int(np.count_nonzero(args[0] == FOREGROUND))
    counts["shadow"] = int(np.count_nonzero(out == SHADOW))


def _count_label(counts, args, out):
    mask = np.asarray(args[0]).astype(np.int8)
    counts["runs"] = int(np.count_nonzero(np.diff(mask, axis=1, prepend=0) == 1))


def _count_extract(counts, args, out):
    counts["components"] = int(args[0].max()) if args[0].size else 0
    counts["blobs"] = len(out)


def _count_track(counts, args, out):
    counts["tracks"] = len(args[0].tracks)
    for kind in EVENT_KINDS:
        counts[kind] = 0
    for event in out:
        counts[event.kind] += 1


class _TracedFile:
    def __init__(self, tracer: Tracer, handle):
        self._tracer = tracer
        self._handle = handle

    def write(self, data):
        with self._tracer.span("pipeline.write", self._tracer.frame) as counts:
            n = self._handle.write(data)
        counts["bytes"] = len(data.encode("utf-8")) if isinstance(data, str) else len(data)
        return n

    def close(self):
        with self._tracer.span("pipeline.write", self._tracer.frame) as counts:
            self._handle.close()
        counts["bytes"] = 0


def _traced_path_class(tracer: Tracer):
    # pathlib's write_bytes and write_text go through open(); the flag keeps
    # that inner open from being traced a second time.
    class TracedPath(type(Path())):
        def _write(self, write, data, size, *args, **kwargs):
            tracer._local.writing = True
            try:
                with tracer.span("pipeline.write", tracer.frame) as counts:
                    n = write(data, *args, **kwargs)
            finally:
                tracer._local.writing = False
            counts["bytes"] = size
            return n

        def write_bytes(self, data):
            return self._write(super().write_bytes, data, len(data))

        def write_text(self, data, *args, **kwargs):
            return self._write(super().write_text, data, len(data.encode("utf-8")), *args, **kwargs)

        def open(self, mode="r", *args, **kwargs):
            handle = super().open(mode, *args, **kwargs)
            if getattr(tracer._local, "writing", False) or not any(c in mode for c in "wax"):
                return handle
            return _TracedFile(tracer, handle)

    return TracedPath


@contextmanager
def install(tracer: Tracer):
    """Wrap the layer boundaries of bgsub.pipeline for the block's duration."""
    saved_module = {
        name: getattr(pl, name)
        for name in (
            "decode_frame",
            "refine_classes",
            "label_components",
            "extract_blobs",
            "encode_mask",
            "render_overlay",
            "encode_ppm",
            "Path",
        )
    }
    saved_process = pl.FramePipeline.process
    saved_observe = FrameModel.observe
    saved_track = EventTracker.process_frame

    def process(self, frame):
        tracer.frame = self.frame_index
        with tracer.span("pipeline.process", tracer.frame):
            tracer.process_span = tracer._stack()[-1]
            return saved_process(self, frame)

    def decode(*args, **kwargs):
        frame = tracer._decoded
        tracer._decoded += 1
        with tracer.span("netpbm.decode", frame, parent=tracer.root):
            return saved_module["decode_frame"](*args, **kwargs)

    pl.decode_frame = decode
    pl.refine_classes = _timed(tracer, "shadow.refine", saved_module["refine_classes"], _count_refine)
    pl.label_components = _timed(tracer, "segmentation.label", saved_module["label_components"], _count_label)
    pl.extract_blobs = _timed(tracer, "segmentation.extract", saved_module["extract_blobs"], _count_extract)
    pl.encode_mask = _timed(tracer, "netpbm.encode", saved_module["encode_mask"])
    pl.render_overlay = _timed(tracer, "netpbm.encode", saved_module["render_overlay"])
    pl.encode_ppm = _timed(tracer, "netpbm.encode", saved_module["encode_ppm"])
    pl.Path = _traced_path_class(tracer)
    pl.FramePipeline.process = process
    FrameModel.observe = _timed(tracer, "frame_model.observe", saved_observe, _count_observe)
    EventTracker.process_frame = _timed(tracer, "events.track", saved_track, _count_track)
    try:
        yield tracer
    finally:
        for name, value in saved_module.items():
            setattr(pl, name, value)
        pl.FramePipeline.process = saved_process
        FrameModel.observe = saved_observe
        EventTracker.process_frame = saved_track


def _union_ns(intervals) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce the spans of one run_pipeline call to per-layer numbers.

    Times are milliseconds per frame, averaged over the frames of the run.
    Per-frame counts are means over frames; event counts are totals for
    the run; ratios pool their numerator and denominator over the run.
    """
    (root,) = [s for s in spans if s.name == "pipeline.run"]
    n = sum(1 for s in spans if s.name == "pipeline.process")
    if n == 0:
        raise ValueError("traced run processed no frames")
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def per_frame(name):
        out: dict[int, list[Span]] = {}
        for s in by_name.get(name, []):
            out.setdefault(s.frame, []).append(s)
        return out

    def mean_ms(name):
        return sum(s.end - s.start for s in by_name.get(name, [])) / n / 1e6

    def total(name, key):
        return sum(s.counts[key] for s in by_name.get(name, []))

    def extent_ms(name):
        # Bands of one frame run side by side; their layer blocks the frame
        # from the first band's start to the last band's end.
        groups = per_frame(name).values()
        return sum(max(s.end for s in g) - min(s.start for s in g) for g in groups) / n / 1e6

    main = root.thread
    covered = _union_ns(
        (s.start, s.end) for s in spans if s.parent == root.id and s.thread == main
    )
    candidates = total("shadow.refine", "candidates")
    components = total("segmentation.extract", "components")
    pixels = total("frame_model.observe", "pixels")
    metrics = {
        "frame_model.observe_ms": extent_ms("frame_model.observe"),
        "frame_model.fg_frac": total("frame_model.observe", "fg") / pixels,
        "frame_model.live_mean": total("frame_model.observe", "live") / pixels,
        "shadow.refine_ms": extent_ms("shadow.refine"),
        "shadow.candidates": candidates / n,
        "shadow.hit_ratio": total("shadow.refine", "shadow") / candidates if candidates else 0.0,
        "segmentation.label_ms": mean_ms("segmentation.label"),
        "segmentation.extract_ms": mean_ms("segmentation.extract"),
        "segmentation.runs": total("segmentation.label", "runs") / n,
        "segmentation.blobs": total("segmentation.extract", "blobs") / n,
        "segmentation.kept_ratio": total("segmentation.extract", "blobs") / components if components else 0.0,
        "events.track_ms": mean_ms("events.track"),
        "events.tracks": total("events.track", "tracks") / n,
        "netpbm.decode_ms": mean_ms("netpbm.decode"),
        "netpbm.encode_ms": mean_ms("netpbm.encode"),
        "pipeline.write_ms": mean_ms("pipeline.write"),
        "pipeline.bytes_out": total("pipeline.write", "bytes") / n,
        "pipeline.self_ms": (root.end - root.start - covered) / n / 1e6,
    }
    for kind in EVENT_KINDS:
        metrics[f"events.emitted.{kind}"] = float(total("events.track", kind))
    return metrics
