"""End-to-end pipeline runs over generated scenes."""

import io
import json
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest

import bgsub.pipeline
from bgsub.config import EmitFlags, RunConfig, SegmentationParams
from bgsub.errors import (
    DimensionChangedMidStream,
    InputUnavailable,
    OutputUnwritable,
    TruncatedPayload,
    UnsupportedMaxval,
)
from bgsub.events import EventParams, Zone
from bgsub.frame_model import MULTI_SLOT_FRACTION
from bgsub.gmm import BACKGROUND, FOREGROUND, ModelParams
from bgsub.netpbm import decode_pgm, decode_ppm, encode_mask, encode_ppm, render_overlay
from bgsub.pipeline import STAGE_NAMES, FramePipeline, run_pipeline
from bgsub.scenes import (
    Actor,
    Flicker,
    SceneSpec,
    ShadowPatch,
    Waypoint,
    generate_scene,
    standard_scene,
    write_scene,
)
from bgsub.shadow import SHADOW


def _event_scene():
    # gray room; a brick square slides right starting at frame 5 and parks
    # at (30, 12) from frame 20 on
    return SceneSpec(
        width=40,
        height=30,
        frames=40,
        background=(120, 120, 120),
        noise_sigma=0.0,
        actors=(
            Actor(
                size=(6, 6),
                color=(200, 60, 60),
                waypoints=(Waypoint(5, 2, 12), Waypoint(20, 30, 12)),
                from_frame=5,
            ),
        ),
    )


def _event_config(in_dir, out_dir, **overrides):
    kwargs = dict(
        input=str(in_dir),
        output=None if out_dir is None else str(out_dir),
        events=EventParams(n_static=5, eps_move=1.0),
        zones=[Zone("gate", (24, 8, 36, 20))],
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


@pytest.fixture(scope="module")
def event_scene_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene")
    write_scene(_event_scene(), seed=3, out_dir=path)
    return path


def test_run_produces_outputs_and_stats(event_scene_dir, tmp_path):
    out = tmp_path / "out"
    stats = run_pipeline(_event_config(event_scene_dir, out))
    assert stats["frames"] == 40
    assert stats["mean_fps"] > 0.0
    assert stats["p95_frame_ms"] > 0.0
    assert stats["events"] == {"intrusion": 1, "abandoned": 1, "motion_started": 1}
    assert len(list(out.glob("mask_*.pgm"))) == 40
    assert len(list(out.glob("overlay_*.ppm"))) == 40
    assert (out / "events.jsonl").is_file()
    on_disk = json.loads((out / "stats.json").read_text())
    assert on_disk["frames"] == 40
    assert on_disk["events"] == stats["events"]


def test_first_frame_is_all_background(event_scene_dir, tmp_path):
    out = tmp_path / "out"
    run_pipeline(_event_config(event_scene_dir, out))
    mask0 = decode_pgm((out / "mask_000000.pgm").read_bytes())
    assert mask0.shape == (30, 40)
    assert np.all(mask0 == BACKGROUND)


def test_masks_use_only_class_values(event_scene_dir, tmp_path):
    out = tmp_path / "out"
    run_pipeline(_event_config(event_scene_dir, out))
    seen = set()
    for path in out.glob("mask_*.pgm"):
        seen.update(np.unique(decode_pgm(path.read_bytes())).tolist())
    assert seen <= {BACKGROUND, SHADOW, FOREGROUND}
    assert FOREGROUND in seen


def test_events_jsonl_matches_stats(event_scene_dir, tmp_path):
    out = tmp_path / "out"
    stats = run_pipeline(_event_config(event_scene_dir, out))
    lines = (out / "events.jsonl").read_text().splitlines()
    by_kind = {"intrusion": 0, "abandoned": 0, "motion_started": 0}
    frames = []
    for line in lines:
        event = json.loads(line)
        assert set(event) == {"frame", "kind", "track", "bbox", "zone"}
        by_kind[event["kind"]] += 1
        frames.append(event["frame"])
    assert by_kind == stats["events"]
    assert frames == sorted(frames)
    kinds = {json.loads(line)["kind"]: json.loads(line) for line in lines}
    assert kinds["intrusion"]["zone"] == "gate"
    assert kinds["motion_started"]["frame"] == 5
    assert kinds["abandoned"]["frame"] == 25


def test_overlay_highlights_classes(event_scene_dir, tmp_path):
    out = tmp_path / "out"
    run_pipeline(_event_config(event_scene_dir, out))
    mask = decode_pgm((out / "mask_000030.pgm").read_bytes())
    overlay = decode_ppm((out / "overlay_000030.ppm").read_bytes())
    fg = mask == FOREGROUND
    assert fg.any()
    assert np.all(overlay[fg] == (255, 0, 0))
    bg = mask == BACKGROUND
    assert not np.all(overlay[bg] == (255, 0, 0))


def test_workers_and_queue_depth_do_not_change_output(event_scene_dir, tmp_path):
    spec = SceneSpec(
        width=48,
        height=36,
        frames=30,
        noise_sigma=1.5,
        actors=(
            Actor(
                size=(8, 8),
                color=(190, 70, 70),
                waypoints=(Waypoint(8, 2, 10), Waypoint(28, 36, 20)),
                from_frame=8,
            ),
        ),
        shadows=(ShadowPatch(rect=(0, 28, 47, 35), gain=0.6, from_frame=15),),
    )
    scene = tmp_path / "scene"
    write_scene(spec, seed=11, out_dir=scene)

    outputs = []
    for workers, depth in ((1, 4), (2, 4), (3, 1), (1, 8)):
        out = tmp_path / f"out_w{workers}_q{depth}"
        run_pipeline(
            RunConfig(input=str(scene), output=str(out), workers=workers, queue_depth=depth)
        )
        masks = [p.read_bytes() for p in sorted(out.glob("mask_*.pgm"))]
        overlays = [p.read_bytes() for p in sorted(out.glob("overlay_*.ppm"))]
        events = (out / "events.jsonl").read_bytes()
        outputs.append((masks, overlays, events))
    for other in outputs[1:]:
        assert other == outputs[0]


def test_max_frames_truncates(event_scene_dir, tmp_path):
    out = tmp_path / "out"
    stats = run_pipeline(_event_config(event_scene_dir, out, max_frames=7))
    assert stats["frames"] == 7
    assert len(list(out.glob("mask_*.pgm"))) == 7
    assert stats["events"] == {"intrusion": 0, "abandoned": 0, "motion_started": 1}


def test_max_frames_zero(event_scene_dir, tmp_path):
    stats = run_pipeline(_event_config(event_scene_dir, tmp_path / "out", max_frames=0))
    assert stats["frames"] == 0
    assert stats["mean_fps"] == 0.0


@pytest.mark.parametrize("stdin", [False, True])
def test_max_frames_stops_reading(event_scene_dir, monkeypatch, stdin):
    # A limit applied only where frames are taken off the queue would let
    # the reader decode up to queue_depth frames past it.
    decoded = []
    decode = bgsub.pipeline.decode_frame

    def counting_decode(*args):
        decoded.append(args)
        return decode(*args)

    monkeypatch.setattr(bgsub.pipeline, "decode_frame", counting_decode)
    if stdin:
        frames, _ = generate_scene(_event_scene(), seed=3)
        raw = b"".join(f.tobytes() for f in frames)
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(raw)))
        config = _event_config("-", None, width=40, height=30, max_frames=3, queue_depth=8)
    else:
        config = _event_config(event_scene_dir, None, max_frames=3, queue_depth=8)
    stats = run_pipeline(config)
    assert stats["frames"] == 3
    assert len(decoded) == 3


def test_corrupt_frame_mid_directory_stops_the_run(tmp_path):
    scene = tmp_path / "scene"
    write_scene(_event_scene(), seed=3, out_dir=scene)
    bad = scene / "frame_000005.ppm"
    bad.write_bytes(bad.read_bytes()[:-7])
    out = tmp_path / "out"
    before = set(threading.enumerate())
    with pytest.raises(TruncatedPayload):
        run_pipeline(_event_config(scene, out))
    assert set(threading.enumerate()) == before
    assert sorted(p.name for p in out.glob("mask_*.pgm")) == [
        f"mask_{i:06d}.pgm" for i in range(5)
    ]
    stats = json.loads((out / "stats.json").read_text())
    assert stats["frames"] == 5
    assert stats["error"] == "TruncatedPayload: need 3600 payload bytes, have 3593"


def test_emit_flags_respected(event_scene_dir, tmp_path):
    out = tmp_path / "out"
    stats = run_pipeline(
        _event_config(
            event_scene_dir,
            out,
            emit=EmitFlags(masks=False, overlays=False, events=True, stats=False),
        )
    )
    assert list(out.glob("mask_*.pgm")) == []
    assert list(out.glob("overlay_*.ppm")) == []
    assert (out / "events.jsonl").is_file()
    assert not (out / "stats.json").exists()
    assert stats["frames"] == 40  # return value unaffected


def test_no_output_directory_still_returns_stats(event_scene_dir):
    stats = run_pipeline(_event_config(event_scene_dir, None))
    assert stats["frames"] == 40
    assert stats["events"]["abandoned"] == 1


def test_input_errors(tmp_path):
    with pytest.raises(InputUnavailable):
        run_pipeline(RunConfig(input=None))
    with pytest.raises(InputUnavailable):
        run_pipeline(RunConfig(input=str(tmp_path / "missing")))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(InputUnavailable):
        run_pipeline(RunConfig(input=str(empty)))
    with pytest.raises(InputUnavailable):
        run_pipeline(RunConfig(input="-"))  # raw stdin without dimensions


def test_output_unwritable(event_scene_dir, tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    with pytest.raises(OutputUnwritable):
        run_pipeline(_event_config(event_scene_dir, blocker))


def test_reader_decode_error_propagates(tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "frame_000000.ppm").write_bytes(b"P6\n2 2\n999\n" + bytes(12))
    with pytest.raises(UnsupportedMaxval):
        run_pipeline(RunConfig(input=str(bad)))


def test_dimension_change_mid_stream(tmp_path):
    scene = tmp_path / "scene"
    scene.mkdir()
    (scene / "frame_000000.ppm").write_bytes(encode_ppm(np.zeros((6, 8, 3), dtype=np.uint8)))
    (scene / "frame_000001.ppm").write_bytes(encode_ppm(np.zeros((6, 10, 3), dtype=np.uint8)))
    with pytest.raises(DimensionChangedMidStream, match="frame 1"):
        run_pipeline(RunConfig(input=str(scene)))


def test_stdin_raw_frames(event_scene_dir, tmp_path, monkeypatch):
    frames, _ = generate_scene(_event_scene(), seed=3)
    raw = b"".join(f.tobytes() for f in frames)
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(raw)))
    out = tmp_path / "out"
    stats = run_pipeline(_event_config("-", out, width=40, height=30))
    assert stats["frames"] == 40
    assert stats["events"] == {"intrusion": 1, "abandoned": 1, "motion_started": 1}
    # raw feed and directory feed agree byte for byte
    dir_out = tmp_path / "dir_out"
    run_pipeline(_event_config(event_scene_dir, dir_out))
    for path in sorted(out.glob("mask_*.pgm")):
        assert path.read_bytes() == (dir_out / path.name).read_bytes()


def test_stdin_respects_max_frames(tmp_path, monkeypatch):
    frames, _ = generate_scene(_event_scene(), seed=3)
    raw = b"".join(f.tobytes() for f in frames)
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(raw)))
    stats = run_pipeline(_event_config("-", None, width=40, height=30, max_frames=3))
    assert stats["frames"] == 3


def test_stdin_truncated_frame(tmp_path, monkeypatch):
    frames, _ = generate_scene(_event_scene(), seed=3)
    raw = b"".join(f.tobytes() for f in frames[:2]) + frames[2].tobytes()[:100]
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(raw)))
    with pytest.raises(TruncatedPayload, match="frame 2"):
        run_pipeline(_event_config("-", None, width=40, height=30))


class _ShortReads(io.RawIOBase):
    """Raw bytes that arrive at most 3 at a time, as from a slow pipe."""

    def __init__(self, data):
        self.data = data
        self.at = 0

    def readable(self):
        return True

    def readinto(self, buf):
        chunk = self.data[self.at : self.at + min(3, len(buf))]
        buf[: len(chunk)] = chunk
        self.at += len(chunk)
        return len(chunk)


@pytest.mark.parametrize("cut", [False, True])
def test_stdin_short_reads(tmp_path, monkeypatch, cut):
    # sys.stdin.buffer is a BufferedReader, whose read(n) gathers the short
    # reads of the stream under it until it has n bytes or the stream
    # ends: frames and a cut-off last frame read as from one whole buffer.
    frames, _ = generate_scene(_event_scene(), seed=3)
    raw = b"".join(f.tobytes() for f in frames[:12])
    if cut:
        raw = raw[:-100]
    runs = []
    for name, stream in (
        ("whole", io.BytesIO(raw)),
        ("short", io.BufferedReader(_ShortReads(raw), buffer_size=64)),
    ):
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=stream))
        out = tmp_path / name
        try:
            run_pipeline(_event_config("-", out, width=40, height=30))
            error = None
        except TruncatedPayload as exc:
            error = str(exc)
        stats = json.loads((out / "stats.json").read_text())
        masks = [path.read_bytes() for path in sorted(out.glob("mask_*.pgm"))]
        runs.append((error, stats["frames"], stats["events"], masks))
    assert runs[0] == runs[1]
    assert runs[1][0] == ("raw frame 11 needs 3600 bytes, stream ended after 3500" if cut else None)
    assert runs[1][1] == (11 if cut else 12)


def test_truncated_stream_still_writes_stats(tmp_path, monkeypatch):
    frame = np.full((3, 4, 3), 90, dtype=np.uint8)
    raw = frame.tobytes() * 2 + bytes(5)
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(raw)))
    out = tmp_path / "out"
    before = set(threading.enumerate())
    with pytest.raises(TruncatedPayload):
        run_pipeline(_event_config("-", out, width=4, height=3, zones=[]))
    assert set(threading.enumerate()) == before
    assert len(list(out.glob("mask_*.pgm"))) == 2
    assert (out / "events.jsonl").is_file()
    stats = json.loads((out / "stats.json").read_text())
    assert stats["frames"] == 2
    assert stats["events"] == {"intrusion": 0, "abandoned": 0, "motion_started": 0}
    assert stats["error"] == "TruncatedPayload: raw frame 2 needs 36 bytes, stream ended after 5"


def test_interrupted_run_still_writes_stats(event_scene_dir, tmp_path, monkeypatch):
    process = FramePipeline.process

    def interrupt_at_frame_10(self, frame):
        if self.frame_index == 10:
            raise KeyboardInterrupt
        return process(self, frame)

    monkeypatch.setattr(FramePipeline, "process", interrupt_at_frame_10)
    out = tmp_path / "out"
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(_event_config(event_scene_dir, out))
    assert set(threading.enumerate()) == before
    stats = json.loads((out / "stats.json").read_text())
    assert stats["frames"] == 10
    assert stats["events"] == {"intrusion": 0, "abandoned": 0, "motion_started": 1}
    assert stats["error"] == "KeyboardInterrupt: "
    lines = (out / "events.jsonl").read_text().splitlines()
    assert [json.loads(line)["kind"] for line in lines] == ["motion_started"]


class _StallingStream:
    """Raw frames read one whole frame at a time, then a stall until
    release is set, then the end of the stream: a live producer that
    stops sending."""

    def __init__(self, frames, release):
        self.frames = list(frames)
        self.release = release

    def read(self, n):
        if self.frames:
            return self.frames.pop(0)
        self.release.wait(timeout=10.0)
        return b""


def test_early_exit_waits_for_a_stalled_stdin_read(tmp_path, monkeypatch):
    frames, _ = generate_scene(_event_scene(), seed=3)
    release = threading.Event()
    stream = _StallingStream([f.tobytes() for f in frames[:3]], release)
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=stream))
    process = FramePipeline.process

    def interrupt_at_frame_2(self, frame):
        if self.frame_index == 2:
            raise KeyboardInterrupt
        return process(self, frame)

    monkeypatch.setattr(FramePipeline, "process", interrupt_at_frame_2)
    out = tmp_path / "out"
    before = set(threading.enumerate())
    timer = threading.Timer(0.3, release.set)
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(_event_config("-", out, width=40, height=30))
        # the read in flight was waited for, not abandoned
        assert release.is_set()
    finally:
        timer.join(timeout=10.0)
    assert not timer.is_alive()
    assert set(threading.enumerate()) == before
    stats = json.loads((out / "stats.json").read_text())
    assert stats["frames"] == 2
    assert stats["error"] == "KeyboardInterrupt: "


def test_reader_stays_queue_depth_frames_ahead(event_scene_dir, monkeypatch):
    # When compute is the slow side, the reader decodes up to queue_depth
    # frames past the one being processed, and no further.
    depth = 2
    decoded = 0
    decode = bgsub.pipeline.decode_frame

    def counting_decode(*args):
        nonlocal decoded
        decoded += 1
        return decode(*args)

    process = FramePipeline.process
    ahead = []

    def slow_process(self, frame):
        time.sleep(0.005)  # time for the reader to get as far ahead as it may
        ahead.append(decoded - (self.frame_index + 1))
        return process(self, frame)

    monkeypatch.setattr(bgsub.pipeline, "decode_frame", counting_decode)
    monkeypatch.setattr(FramePipeline, "process", slow_process)
    stats = run_pipeline(_event_config(event_scene_dir, None, queue_depth=depth))
    assert stats["frames"] == 40
    assert max(ahead) == depth


def test_completed_run_stats_have_no_error(event_scene_dir, tmp_path):
    out = tmp_path / "out"
    stats = run_pipeline(_event_config(event_scene_dir, out))
    on_disk = json.loads((out / "stats.json").read_text())
    assert set(on_disk) == {"frames", "mean_fps", "p95_frame_ms", "events"}
    assert on_disk == json.loads(json.dumps(stats))


def test_run_leaves_no_threads_behind(event_scene_dir, tmp_path):
    before = set(threading.enumerate())
    run_pipeline(_event_config(event_scene_dir, tmp_path / "out"))
    assert set(threading.enumerate()) == before


def test_threaded_writes_match_in_memory_run_under_frequent_switches(event_scene_dir, tmp_path):
    frames, _ = generate_scene(_event_scene(), seed=3)
    pipeline = FramePipeline(_event_config(event_scene_dir, None), 40, 30)
    classes = [pipeline.process(frame).classes for frame in frames]
    masks = [encode_mask(c) for c in classes]
    overlays = [encode_ppm(render_overlay(f, c)) for f, c in zip(frames, classes)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_pipeline(_event_config(event_scene_dir, tmp_path / "out", queue_depth=1))
    finally:
        sys.setswitchinterval(interval)
    out = tmp_path / "out"
    assert [p.read_bytes() for p in sorted(out.glob("mask_*.pgm"))] == masks
    assert [p.read_bytes() for p in sorted(out.glob("overlay_*.ppm"))] == overlays


def test_encoding_runs_off_the_main_thread(event_scene_dir, tmp_path, monkeypatch):
    # The writer thread encodes masks and renders and encodes overlays, so
    # that work overlaps the next frame's compute instead of adding to it.
    threads = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.current_thread())
            return fn(*args, **kwargs)

        return wrapper

    for name in ("encode_mask", "render_overlay", "encode_ppm"):
        monkeypatch.setattr(bgsub.pipeline, name, recording(name, getattr(bgsub.pipeline, name)))
    run_pipeline(_event_config(event_scene_dir, tmp_path / "out"))
    assert sorted(threads) == ["encode_mask", "encode_ppm", "render_overlay"]
    for name, seen in threads.items():
        assert threading.main_thread() not in seen, name


@pytest.mark.parametrize("bad", [3, 39])
def test_failed_file_write_raises_and_writes_stats(event_scene_dir, tmp_path, bad):
    out = tmp_path / "out"
    (out / f"mask_{bad:06d}.pgm").mkdir(parents=True)  # a directory where a mask goes
    before = set(threading.enumerate())
    with pytest.raises(IsADirectoryError):
        run_pipeline(_event_config(event_scene_dir, out))
    assert set(threading.enumerate()) == before
    stats = json.loads((out / "stats.json").read_text())
    assert stats["error"].startswith("IsADirectoryError: ")
    # an early failure stops the run once the loop waits for that write,
    # queue_depth frames later, and the files queued before then are still
    # written; a failure on the last frame is still reported
    depth = RunConfig().queue_depth
    assert stats["frames"] == (bad + depth + 1 if bad == 3 else 40)
    written = {p.name for p in out.glob("overlay_*.ppm")}
    assert written == {f"overlay_{i:06d}.ppm" for i in range(stats["frames"]) if i != bad}


def test_shadow_pixels_do_not_become_blobs():
    spec = SceneSpec(
        width=32,
        height=24,
        frames=12,
        noise_sigma=0.0,
        shadows=(ShadowPatch(rect=(4, 4, 27, 19), gain=0.6, from_frame=4),),
    )
    frames, _ = generate_scene(spec, seed=0)
    config = RunConfig(segmentation=SegmentationParams(min_area=1))
    pipeline = FramePipeline(config, 32, 24)
    try:
        for i, frame in enumerate(frames):
            result = pipeline.process(frame)
            assert result.index == i
            if i >= 4:
                assert (result.classes == SHADOW).sum() == 24 * 16
                assert result.blobs == []
                assert result.events == []
    finally:
        pipeline.close()


def test_frame_pipeline_rejects_wrong_shape():
    pipeline = FramePipeline(RunConfig(), 16, 12)
    try:
        pipeline.process(np.zeros((12, 16, 3), dtype=np.uint8))
        with pytest.raises(DimensionChangedMidStream):
            pipeline.process(np.zeros((12, 20, 3), dtype=np.uint8))
    finally:
        pipeline.close()


def test_frame_pipeline_rejects_wrong_dtype():
    pipeline = FramePipeline(RunConfig(), 16, 12)
    try:
        with pytest.raises(ValueError, match="float64"):
            pipeline.process(np.full((12, 16, 3), 300.5))
        assert pipeline.frame_index == 0
    finally:
        pipeline.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_stage_timing_accumulates(event_scene_dir, workers):
    frames, _ = generate_scene(_event_scene(), seed=3)
    pipeline = FramePipeline(RunConfig(workers=workers), 40, 30)
    try:
        for frame in frames[:10]:
            pipeline.process(frame)
        assert set(pipeline.stage_seconds) == set(STAGE_NAMES)
        assert all(v > 0.0 for v in pipeline.stage_seconds.values())
    finally:
        pipeline.close()


@pytest.mark.parametrize("width, height", [(4, 0), (0, 3), (0, 0)])
def test_frame_pipeline_rejects_empty_raster(width, height):
    with pytest.raises(ValueError, match=f"width {width} and height {height}"):
        FramePipeline(RunConfig(), width, height)


@pytest.mark.parametrize(
    "rect",
    [(-10, 0, -1, 29), (40, 0, 50, 29), (0, -8, 39, -1), (0, 30, 39, 40), (-9, -9, -2, -2)],
    ids=["left", "right", "above", "below", "all-negative"],
)
def test_frame_pipeline_rejects_zone_outside_raster(rect):
    config = RunConfig(zones=[Zone("gate", (24, 8, 36, 20)), Zone("far", rect)])
    with pytest.raises(ValueError, match=r"zone 'far' .* outside the 40x30 raster"):
        FramePipeline(config, 40, 30)


def test_frame_pipeline_keeps_zone_overlapping_raster_in_part():
    # Of corner, only pixel (39, 29) lies inside; wide covers the whole raster.
    zones = [Zone("corner", (39, 29, 60, 50)), Zone("wide", (-5, -5, 100, 100))]
    pipeline = FramePipeline(RunConfig(zones=zones), 40, 30)
    pipeline.close()
    assert [zone.name for zone in pipeline.tracker.zones] == ["corner", "wide"]


def test_zone_outside_raster_still_writes_stats(event_scene_dir, tmp_path):
    out = tmp_path / "out"
    config = _event_config(event_scene_dir, out, zones=[Zone("far", (200, 0, 240, 80))])
    with pytest.raises(ValueError, match="zone 'far'"):
        run_pipeline(config)
    stats = json.loads((out / "stats.json").read_text())
    assert stats["frames"] == 0
    assert stats["error"] == (
        "ValueError: zone 'far' rect (200, 0, 240, 80) lies outside the 40x30 raster"
    )


def test_more_workers_than_rows_collapses():
    pipeline = FramePipeline(RunConfig(workers=64), 8, 4)
    try:
        result = pipeline.process(np.zeros((4, 8, 3), dtype=np.uint8))
        assert result.classes.shape == (4, 8)
    finally:
        pipeline.close()


def _busy_scene():
    """A 160x120 room whose left 100 columns flicker between two grays on
    every frame, with a model fast enough (alpha 0.3) to have learned both
    by frame 10, and one actor. About 65% of the pixels then miss slot 0
    on every frame, yet they stay background: foreground pixels would
    measure the shadow layer's own per-pixel temporaries instead."""
    actor = Actor(size=(20, 20), color=(200, 40, 40), waypoints=(Waypoint(0, 100, 80), Waypoint(29, 130, 10)))
    flicker = Flicker(rect=(0, 0, 99, 119), colors=((120, 120, 120), (170, 170, 170)), period=1)
    spec = SceneSpec(width=160, height=120, frames=30, actors=(actor,), flickers=(flicker,))
    return spec, RunConfig(model=ModelParams(alpha=0.3))


def _slot0_miss_fraction(pipeline, frame):
    model = pipeline.models[0]
    diff = frame.reshape(-1, 3) - model.mean_planes[:, 0].T
    diff *= diff
    d2 = diff[:, 0] + diff[:, 1] + diff[:, 2]
    return np.mean(~(d2 < model.params.d**2 * model.variances[0]))


@pytest.mark.parametrize("busy", [False, True])
def test_steady_state_frames_allocate_little(busy):
    # The models keep their per-frame work buffers, so a steady-state
    # frame allocates little beyond the arrays it hands back.
    # Fresh full-raster temporaries would show here: without kept buffers
    # a steady frame peaks near 8.8 x 24 bytes a pixel. Both scenes blend
    # slot 0 in place: on the standard one at most a fifth of the pixels
    # miss it, on the busy one more do. The standard scene sorts only the
    # pixels with two or more live slots up to frame 93; the busy one
    # sorts every pixel.
    spec, config = _busy_scene() if busy else (standard_scene(), RunConfig())
    frames, _ = generate_scene(spec, seed=1)
    n = spec.width * spec.height
    pipeline = FramePipeline(config, spec.width, spec.height)
    multi_only = 0
    try:
        for frame in frames[:10]:
            pipeline.process(frame)
        for i, frame in enumerate(frames[10:], 10):
            assert (_slot0_miss_fraction(pipeline, frame) > 0.2) == busy
            tracemalloc.start()
            try:
                pipeline.process(frame)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 24 * n, f"frame {i}: {peak / (24 * n):.2f} x 24 bytes a pixel"
            multi_only += (pipeline.models[0].live_count > 1).mean() <= MULTI_SLOT_FRACTION
    finally:
        pipeline.close()
    assert multi_only == (0 if busy else 84)


@pytest.mark.parametrize("workers", [1, 3])
def test_pipeline_and_models_hold_172_bytes_a_pixel(workers):
    # A steady pipeline's own arrays and its band models' work buffers stay
    # at 172 bytes a pixel at k = 3: 148 of work buffers and 24 of one
    # float64 copy of the frame. The pipeline used to hold that copy; the
    # models now keep it as their sample planes, and the total must not
    # grow.
    spec = standard_scene()
    frames, _ = generate_scene(spec, seed=1)
    pipeline = FramePipeline(RunConfig(workers=workers), spec.width, spec.height)
    try:
        for frame in frames[:3]:
            pipeline.process(frame)
        arrays = [a for a in vars(pipeline).values() if isinstance(a, np.ndarray)]
        arrays += [a for model in pipeline.models for a in vars(model._scratch).values()]
    finally:
        pipeline.close()
    assert sum(a.nbytes for a in arrays) <= 172 * spec.width * spec.height


@pytest.mark.parametrize("busy", [False, True])
def test_frame_classes_stay_caller_owned(busy):
    spec, config = _busy_scene() if busy else (standard_scene(), RunConfig())
    frames, _ = generate_scene(spec, seed=1)
    pipeline = FramePipeline(config, spec.width, spec.height)
    try:
        for frame in frames[:20]:
            pipeline.process(frame)
        kept = pipeline.process(frames[20]).classes
        copy = kept.copy()
        for frame in frames[21:23]:
            pipeline.process(frame)
        assert np.array_equal(kept, copy)
    finally:
        pipeline.close()
