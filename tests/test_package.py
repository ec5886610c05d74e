"""The package's public names, the independence of the test oracle, the
names the benchmark's tracer patches, and the tracer's account of a run
with more than one band."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import bgsub
import bgsub.pipeline
from bgsub.config import RunConfig
from bgsub.events import EventTracker
from bgsub.frame_model import FrameModel
from bgsub.pipeline import FramePipeline, run_pipeline
from bgsub.scenes import SceneSpec, write_scene


def test_all_names_resolve():
    assert len(bgsub.__all__) == len(set(bgsub.__all__))
    for name in bgsub.__all__:
        assert hasattr(bgsub, name), name


def test_oracles_import_nothing_from_bgsub():
    # The oracle is the only reference the engine is checked against; an
    # import from the package would let a shared mistake pass both sides.
    path = Path(__file__).with_name("oracles.py")
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found: the walk is not reading the oracle"
    for module in imported:
        assert module.split(".")[0] not in ("bgsub", ""), module


def test_tracer_patch_points_are_called(tmp_path, monkeypatch):
    # perfbench/tracer.py times a run by replacing these names; one renamed
    # or no longer called would leave its layer out of the benchmark.
    calls = {}

    def counting(name, fn):
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in (
        "decode_frame",
        "refine_classes",
        "label_components",
        "extract_blobs",
        "encode_mask",
        "render_overlay",
        "encode_ppm",
        "Path",
    ):
        monkeypatch.setattr(bgsub.pipeline, name, counting(name, getattr(bgsub.pipeline, name)))
    for cls, name in (
        (FramePipeline, "process"),
        (FrameModel, "observe"),
        (EventTracker, "process_frame"),
    ):
        monkeypatch.setattr(cls, name, counting(f"{cls.__name__}.{name}", getattr(cls, name)))
    write_scene(SceneSpec(width=24, height=16, frames=4), seed=1, out_dir=tmp_path / "scene")
    run_pipeline(RunConfig(input=str(tmp_path / "scene"), output=str(tmp_path / "out")))
    assert [name for name, n in calls.items() if n == 0] == []


def test_tracer_parents_every_band_to_its_frame(tmp_path, monkeypatch):
    # The benchmark runs one band, so only this test traces the band pool:
    # each band's observe and refine run on a pool thread, and the tracer
    # must still file them under the frame that handed them out.
    root = Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location("tracer", root / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)
    spec.loader.exec_module(tracer_module)

    write_scene(SceneSpec(width=24, height=16, frames=4), seed=1, out_dir=tmp_path / "scene")
    config = RunConfig(input=str(tmp_path / "scene"), output=str(tmp_path / "out"), workers=2)
    tracer = tracer_module.Tracer()
    with tracer_module.install(tracer), tracer.run():
        run_pipeline(config)

    frames = {s.frame: s.id for s in tracer.spans if s.name == "pipeline.process"}
    assert sorted(frames) == [0, 1, 2, 3]
    for name in ("frame_model.observe", "shadow.refine"):
        spans = [s for s in tracer.spans if s.name == name]
        assert sorted(s.frame for s in spans) == [0, 0, 1, 1, 2, 2, 3, 3], name
        assert all(s.parent == frames[s.frame] for s in spans), name
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    expected = {m["name"] for m in declared} - {"trace.overhead_pct"}
    assert set(tracer_module.layer_metrics(tracer.spans)) == expected
