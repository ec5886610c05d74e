"""Shadow reclassification via brightness and chromaticity distortion.

A foreground pixel is downgraded to shadow when its value looks like a
dimmed copy of a background color: projecting the observed value onto the
background color vector gives a brightness factor inside a configured
band, and the residual off that axis stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBackground
from .gmm import BACKGROUND, FOREGROUND, Vec3

SHADOW = 128

# Background colors shorter than this are too close to black for the
# projection geometry to mean anything.
MIN_BG_NORM = 1e-6


@dataclass
class ShadowParams:
    bd_low: float = 0.4
    bd_high: float = 0.95
    cd_max: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.bd_low:
            raise ValueError(f"bd_low must be positive, got {self.bd_low}")
        if not self.bd_low < self.bd_high:
            raise ValueError(
                f"bd_low must be below bd_high, got {self.bd_low} >= {self.bd_high}"
            )
        if self.bd_high > 1.0:
            raise ValueError(f"bd_high must be at most 1, got {self.bd_high}")
        if not (math.isfinite(self.cd_max) and self.cd_max > 0.0):
            raise ValueError(f"cd_max must be finite and positive, got {self.cd_max}")


def brightness_distortion(f: Vec3, b: Vec3) -> float:
    """Scalar projection of f onto b, normalized so 1 means full brightness.

    Raises DegenerateBackground when b is too close to black.
    """
    nb2 = b[0] * b[0] + b[1] * b[1] + b[2] * b[2]
    if math.sqrt(nb2) < MIN_BG_NORM:
        raise DegenerateBackground(f"background color {b} too close to black")
    return (f[0] * b[0] + f[1] * b[1] + f[2] * b[2]) / nb2


def chromaticity_distortion(f: Vec3, b: Vec3) -> float:
    """Distance of f from the brightness axis through b, scaled by 1/|b|."""
    nb2 = b[0] * b[0] + b[1] * b[1] + b[2] * b[2]
    norm_b = math.sqrt(nb2)
    if norm_b < MIN_BG_NORM:
        raise DegenerateBackground(f"background color {b} too close to black")
    bd = (f[0] * b[0] + f[1] * b[1] + f[2] * b[2]) / nb2
    rx = f[0] - bd * b[0]
    ry = f[1] - bd * b[1]
    rz = f[2] - bd * b[2]
    return math.sqrt(rx * rx + ry * ry + rz * rz) / norm_b


def is_shadow_point(f: Vec3, b: Vec3, params: ShadowParams) -> bool:
    """True when f is a plausibly dimmed version of background color b.

    Both band edges are inclusive. A degenerate (near-black) background
    color can never cast a recognizable shadow, so it yields False.
    """
    try:
        bd = brightness_distortion(f, b)
        cd = chromaticity_distortion(f, b)
    except DegenerateBackground:
        return False
    return params.bd_low <= bd <= params.bd_high and cd <= params.cd_max


def refine_label(
    label: int, f: Vec3, means: list[Vec3], b_count: int, params: ShadowParams
) -> int:
    """Second look at one pixel: foreground that shadows any background color.

    ``means`` are the pixel's component means in rank order; only the
    first b_count of them count as background colors. Background labels
    pass through untouched.
    """
    if label == BACKGROUND:
        return BACKGROUND
    for k in range(min(b_count, len(means))):
        if is_shadow_point(f, means[k], params):
            return SHADOW
    return FOREGROUND


def refine_classes(
    labels: np.ndarray,
    z: np.ndarray,
    means: np.ndarray,
    b: np.ndarray,
    params: ShadowParams,
) -> np.ndarray:
    """Vectorized refine_label over a flat frame.

    labels is (n,) uint8, z is (n, 3) float64, means is (k, n, 3) in rank
    order, b is (n,) background prefix sizes. Returns a new (n,) uint8
    class array with foreground pixels split into FOREGROUND and SHADOW.
    Arithmetic matches the scalar functions exactly.
    """
    fg = labels == FOREGROUND
    out = labels.copy()
    if not fg.any():
        return out
    idx = np.nonzero(fg)[0]
    zf = z[idx]
    shadowed = np.zeros(len(idx), dtype=bool)
    k_slots = means.shape[0]
    for k in range(k_slots):
        consider = (k < b[idx]) & ~shadowed
        if not consider.any():
            continue
        bg = means[k, idx]
        nb2 = bg[:, 0] * bg[:, 0] + bg[:, 1] * bg[:, 1] + bg[:, 2] * bg[:, 2]
        norm_b = np.sqrt(nb2)
        ok = consider & (norm_b >= MIN_BG_NORM)
        if not ok.any():
            continue
        dot = zf[:, 0] * bg[:, 0] + zf[:, 1] * bg[:, 1] + zf[:, 2] * bg[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            bd = dot / nb2
            rx = zf[:, 0] - bd * bg[:, 0]
            ry = zf[:, 1] - bd * bg[:, 1]
            rz = zf[:, 2] - bd * bg[:, 2]
            cd = np.sqrt(rx * rx + ry * ry + rz * rz) / norm_b
            hit = ok & (params.bd_low <= bd) & (bd <= params.bd_high) & (cd <= params.cd_max)
        shadowed |= hit
    out[idx[shadowed]] = SHADOW
    return out
