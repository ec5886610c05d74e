"""The package's public names, the independence of the test oracle, and
the names the benchmark's tracer patches."""

import ast
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
