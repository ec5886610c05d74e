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

from .gmm import FOREGROUND

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


def refine_classes(
    labels: np.ndarray,
    z: np.ndarray,
    mean_planes: np.ndarray,
    b: np.ndarray,
    params: ShadowParams,
) -> np.ndarray:
    """Second look at the foreground of a flat frame: a pixel that shadows
    any of its background colors becomes SHADOW.

    labels is (n,) uint8, z is (n, 3) float64 or uint8, mean_planes is
    the (3, k, n) channel planes of the means, indexed [channel, slot,
    pixel] with slots in rank order, b is (n,) background prefix sizes:
    only the first b[i] means of pixel i count as background colors.
    Returns a new (n,) uint8 class array with foreground pixels split into
    FOREGROUND and SHADOW; other labels pass through, and labels itself is
    left as it is.

    Against background color bg, the brightness distortion is
    bd = (z . bg) / |bg|^2 and the chromaticity distortion
    cd = |z - bd * bg| / |bg|. A pixel shadows bg when bd_low <= bd <=
    bd_high and cd <= cd_max, both band edges inclusive. A background
    color shorter than MIN_BG_NORM never casts a shadow.

    Slot k is tested only on the foreground pixels that have a k-th
    background color (k < b) and shadowed none of slots 0..k-1, so the
    index narrows slot by slot and the loop stops once it is empty. Each
    channel is gathered on its own, from z.T and mean_planes[:, k], in any
    layout. uint8 samples convert to float64 exactly, so they give the
    classes float ones do.
    """
    out = labels.copy()
    idx = np.flatnonzero(labels == FOREGROUND)
    for k in range(mean_planes.shape[1]):
        idx = idx[b[idx] > k]
        if not idx.size:
            break
        z0, z1, z2 = (plane[idx] for plane in z.T)
        b0, b1, b2 = (plane[idx] for plane in mean_planes[:, k])
        nb2 = b0 * b0 + b1 * b1 + b2 * b2
        norm_b = np.sqrt(nb2)
        dot = z0 * b0 + z1 * b1 + z2 * b2
        with np.errstate(divide="ignore", invalid="ignore"):
            bd = dot / nb2
            rx = z0 - bd * b0
            ry = z1 - bd * b1
            rz = z2 - bd * b2
            cd = np.sqrt(rx * rx + ry * ry + rz * rz) / norm_b
            hit = (norm_b >= MIN_BG_NORM) & (params.bd_low <= bd)
            hit &= (bd <= params.bd_high) & (cd <= params.cd_max)
        out[idx[hit]] = SHADOW
        idx = idx[~hit]
    return out
