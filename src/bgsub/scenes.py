"""Synthetic scenes with exact ground truth.

A scene is a flat background color plus optional flickering rectangles, a
global illumination ramp, timed shadow patches, and rectangular actors
moving along piecewise-linear waypoint tracks. Gaussian pixel noise is
drawn from a seeded generator, so the same spec and seed always produce
byte-identical frames. Ground truth marks actor pixels as foreground and
active shadow patches (where not occluded by an actor) as shadow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import from_json
from .errors import SpecOutOfBounds
from .gmm import BACKGROUND, FOREGROUND
from .netpbm import encode_pgm, encode_ppm
from .shadow import SHADOW

Color = tuple[int, int, int]
Rect = tuple[int, int, int, int]  # x0, y0, x1, y1 inclusive


@dataclass(frozen=True)
class Waypoint:
    frame: int
    x: int
    y: int


@dataclass(frozen=True)
class Actor:
    """Solid rectangle of a fixed color following waypoints.

    Position interpolates linearly between waypoints and clamps outside
    their frame range. halt_at freezes the actor at its position of that
    frame for the rest of the scene. The actor is only painted while
    from_frame <= frame <= to_frame (to_frame None meaning scene end),
    which lets a scene establish its background before anything enters.
    """

    size: tuple[int, int]
    color: Color
    waypoints: tuple[Waypoint, ...]
    halt_at: int | None = None
    from_frame: int = 0
    to_frame: int | None = None


@dataclass(frozen=True)
class ShadowPatch:
    """Multiplies a rectangle by gain while active (frames inclusive)."""

    rect: Rect
    gain: float
    from_frame: int = 0
    to_frame: int | None = None


@dataclass(frozen=True)
class Flicker:
    """Rectangle alternating between two colors every period frames."""

    rect: Rect
    colors: tuple[Color, Color]
    period: int


@dataclass(frozen=True)
class GainRamp:
    """Global illumination multiplier sliding from start to end over the scene."""

    start: float
    end: float


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    frames: int
    background: Color = (120, 120, 120)
    noise_sigma: float = 2.0
    actors: tuple[Actor, ...] = ()
    shadows: tuple[ShadowPatch, ...] = ()
    flickers: tuple[Flicker, ...] = ()
    ramp: GainRamp | None = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise SpecOutOfBounds(f"raster {self.width}x{self.height} is empty")
        if self.frames < 1:
            raise SpecOutOfBounds(f"frames must be >= 1, got {self.frames}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise SpecOutOfBounds(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        _check_color(self.background, "background")
        for i, actor in enumerate(self.actors):
            self._check_actor(actor, f"actors[{i}]")
        for i, patch in enumerate(self.shadows):
            self._check_rect(patch.rect, f"shadows[{i}]")
            if not 0.0 < patch.gain < 1.0:
                raise SpecOutOfBounds(f"shadows[{i}]: gain must be in (0, 1), got {patch.gain}")
            if patch.from_frame < 0:
                raise SpecOutOfBounds(f"shadows[{i}]: from_frame must be >= 0")
            if patch.to_frame is not None and patch.to_frame < patch.from_frame:
                raise SpecOutOfBounds(f"shadows[{i}]: to_frame before from_frame")
        for i, flicker in enumerate(self.flickers):
            self._check_rect(flicker.rect, f"flickers[{i}]")
            if flicker.period < 1:
                raise SpecOutOfBounds(f"flickers[{i}]: period must be >= 1")
            _check_color(flicker.colors[0], f"flickers[{i}].colors[0]")
            _check_color(flicker.colors[1], f"flickers[{i}].colors[1]")
        if self.ramp is not None and not all(
            math.isfinite(gain) and gain > 0.0 for gain in (self.ramp.start, self.ramp.end)
        ):
            raise SpecOutOfBounds(f"ramp gains must be finite and positive, got {self.ramp}")

    def _check_rect(self, rect: Rect, where: str) -> None:
        x0, y0, x1, y1 = rect
        if not (0 <= x0 <= x1 < self.width and 0 <= y0 <= y1 < self.height):
            raise SpecOutOfBounds(f"{where}: rect {rect} outside {self.width}x{self.height}")

    def _check_actor(self, actor: Actor, where: str) -> None:
        w, h = actor.size
        if w < 1 or h < 1:
            raise SpecOutOfBounds(f"{where}: size {actor.size} is empty")
        _check_color(actor.color, f"{where}.color")
        if not actor.waypoints:
            raise SpecOutOfBounds(f"{where}: needs at least one waypoint")
        if actor.from_frame < 0:
            raise SpecOutOfBounds(f"{where}: from_frame must be >= 0")
        if actor.to_frame is not None and actor.to_frame < actor.from_frame:
            raise SpecOutOfBounds(f"{where}: to_frame before from_frame")
        last = None
        for j, wp in enumerate(actor.waypoints):
            if last is not None and wp.frame <= last:
                raise SpecOutOfBounds(f"{where}: waypoint frames must increase")
            last = wp.frame
            if not (0 <= wp.x <= self.width - w and 0 <= wp.y <= self.height - h):
                raise SpecOutOfBounds(
                    f"{where}.waypoints[{j}]: actor of size {actor.size} at "
                    f"({wp.x}, {wp.y}) leaves the raster"
                )


def _check_color(color, where: str) -> None:
    if len(color) != 3 or any(not 0 <= c <= 255 for c in color):
        raise SpecOutOfBounds(f"{where}: color {color} out of range")


def actor_position(actor: Actor, frame: int) -> tuple[int, int]:
    """Top-left corner at a frame: clamped piecewise-linear interpolation."""
    f = frame if actor.halt_at is None else min(frame, actor.halt_at)
    wps = actor.waypoints
    if f <= wps[0].frame:
        return wps[0].x, wps[0].y
    if f >= wps[-1].frame:
        return wps[-1].x, wps[-1].y
    for a, b in zip(wps, wps[1:]):
        if a.frame <= f <= b.frame:
            u = (f - a.frame) / (b.frame - a.frame)
            return round(a.x + u * (b.x - a.x)), round(a.y + u * (b.y - a.y))
    raise AssertionError("waypoint bracket not found")


def generate_scene(spec: SceneSpec, seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Render all frames and their truth rasters.

    Returns (frames, truths): uint8 (h, w, 3) images and (h, w) class
    maps using the mask conventions (0 background, 128 shadow, 255
    foreground). Deterministic in (spec, seed).
    """
    rng = np.random.default_rng(seed)
    h, w = spec.height, spec.width
    base = np.empty((h, w, 3), dtype=np.float64)
    base[:] = spec.background
    frames = []
    truths = []
    denom = max(spec.frames - 1, 1)
    for f in range(spec.frames):
        img = base.copy()
        truth = np.full((h, w), BACKGROUND, dtype=np.uint8)
        for flicker in spec.flickers:
            x0, y0, x1, y1 = flicker.rect
            phase = (f // flicker.period) % 2
            img[y0 : y1 + 1, x0 : x1 + 1] = flicker.colors[phase]
        if spec.ramp is not None:
            gain = spec.ramp.start + (spec.ramp.end - spec.ramp.start) * (f / denom)
            img *= gain
        for patch in spec.shadows:
            active = patch.from_frame <= f and (patch.to_frame is None or f <= patch.to_frame)
            if active:
                x0, y0, x1, y1 = patch.rect
                img[y0 : y1 + 1, x0 : x1 + 1] *= patch.gain
                truth[y0 : y1 + 1, x0 : x1 + 1] = SHADOW
        for actor in spec.actors:
            present = actor.from_frame <= f and (actor.to_frame is None or f <= actor.to_frame)
            if not present:
                continue
            ax, ay = actor_position(actor, f)
            aw, ah = actor.size
            img[ay : ay + ah, ax : ax + aw] = actor.color
            truth[ay : ay + ah, ax : ax + aw] = FOREGROUND
        if spec.noise_sigma > 0.0:
            img = img + rng.normal(0.0, spec.noise_sigma, img.shape)
        frames.append(np.clip(np.rint(img), 0, 255).astype(np.uint8))
        truths.append(truth)
    return frames, truths


def write_scene(spec: SceneSpec, seed: int, out_dir: str | Path) -> int:
    """Render a scene to frame_%06d.ppm plus truth_%06d.pgm files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames, truths = generate_scene(spec, seed)
    for i, (frame, truth) in enumerate(zip(frames, truths)):
        (out / f"frame_{i:06d}.ppm").write_bytes(encode_ppm(frame))
        (out / f"truth_{i:06d}.pgm").write_bytes(encode_pgm(truth))
    return len(frames)


def standard_scene() -> SceneSpec:
    """Reference scene used by the scoring gate and the benchmark.

    A gray 160x120 room with mild sensor noise; a red-brick square
    crosses the room and returns while a soft shadow band sweeps the
    floor strip for 25 frames mid-run.
    """
    return SceneSpec(
        width=160,
        height=120,
        frames=100,
        background=(120, 120, 120),
        noise_sigma=2.0,
        actors=(
            Actor(
                size=(20, 20),
                color=(180, 60, 60),
                waypoints=(Waypoint(20, 6, 30), Waypoint(60, 106, 80), Waypoint(100, 56, 30)),
                from_frame=20,
            ),
        ),
        shadows=(ShadowPatch(rect=(10, 102, 149, 118), gain=0.6, from_frame=60, to_frame=84),),
    )


def scene_from_dict(data: dict) -> SceneSpec:
    """Build a SceneSpec from parsed JSON; strict about keys and shapes."""
    return from_json(SceneSpec, data, "scene")
