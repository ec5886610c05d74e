"""Run configuration: dataclasses plus one strict JSON loader.

`from_json` builds any of the package's parameter dataclasses (the run
config here, the scene spec in `scenes.py`) from parsed JSON. The keys,
defaults and types it accepts come from the dataclass declarations
alone: unknown keys and missing required keys are rejected, so a typo
in a file fails the run instead of silently using a default. `bool` is
never taken for an `int`, an `int` is converted where a `float` is
declared, `null` is accepted only for `X | None` fields, fixed-length
tuples (colors, rects) must be lists of exactly that length, and
strings must be non-empty. Every error names the full key path, such as
`config.model.alpha` or `scene.actors[0].waypoints[1].x`. `load_json`
reads either kind of file, and names the file when it is not valid JSON.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .events import EventParams, Zone
from .gmm import ModelParams
from .segmentation import EIGHT, FOUR
from .shadow import ShadowParams


@dataclass
class SegmentationParams:
    connectivity: str = EIGHT
    min_area: int = 15

    def __post_init__(self) -> None:
        if self.connectivity not in (FOUR, EIGHT):
            raise ValueError(f"connectivity must be 'four' or 'eight', got {self.connectivity!r}")
        if self.min_area < 1:
            raise ValueError(f"min_area must be >= 1, got {self.min_area}")


@dataclass
class EmitFlags:
    masks: bool = True
    overlays: bool = True
    events: bool = True
    stats: bool = True


@dataclass
class RunConfig:
    input: str | None = None
    output: str | None = None
    width: int | None = None
    height: int | None = None
    max_frames: int | None = None
    workers: int = 1
    queue_depth: int = 4
    model: ModelParams = field(default_factory=ModelParams)
    shadow: ShadowParams = field(default_factory=ShadowParams)
    segmentation: SegmentationParams = field(default_factory=SegmentationParams)
    events: EventParams = field(default_factory=EventParams)
    zones: list[Zone] = field(default_factory=list)
    emit: EmitFlags = field(default_factory=EmitFlags)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        for name in ("width", "height"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.max_frames is not None and self.max_frames < 0:
            raise ValueError(f"max_frames must be >= 0, got {self.max_frames}")
        names = [zone.name for zone in self.zones]
        if len(names) != len(set(names)):
            raise ValueError(f"zone names must be unique, got {names}")


def from_json(cls, data, where: str):
    """Build dataclass `cls` from a parsed JSON object; errors name `where`."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {type(data).__name__}")
    declared = fields(cls)
    unknown = sorted(set(data) - {f.name for f in declared})
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    for f in declared:
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{where}: missing required key {f.name!r}")
    hints = get_type_hints(cls)
    kwargs = {key: _from_json_value(hints[key], value, f"{where}.{key}") for key, value in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _from_json_value(tp, value, where: str):
    args = get_args(tp)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (tp,) = [arg for arg in args if arg is not type(None)]
        args = get_args(tp)
    if is_dataclass(tp):
        return from_json(tp, value, where)
    origin = get_origin(tp)
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ValueError(f"{where}: expected a list of {len(args)}, got {value!r}")
            items = args
        else:
            items = args[:1] * len(value)
        return origin(_from_json_value(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
        raise ValueError(f"{where}: expected {tp.__name__}, got {value!r}")
    if tp is str and not value:
        raise ValueError(f"{where}: expected a non-empty string")
    return tp(value)


def config_from_dict(data: dict) -> RunConfig:
    return from_json(RunConfig, data, "config")


def load_json(cls, path: str | Path, where: str):
    """Read the JSON file at path into dataclass cls; a file that does not
    parse is reported with its path, a bad value with its key path under
    where."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where} file {path}: {exc}") from None
    return from_json(cls, data, where)


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file into a validated RunConfig."""
    return load_json(RunConfig, path, "config")
