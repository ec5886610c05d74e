"""Fixed reference work that tells how fast the machine is during a run.

The benchmark runs on a few cores of a shared host. There the same code
runs up to 1.5x faster or slower from one second or one run to the
next, because other tenants load the host. A run therefore times one
piece of this work, which never changes, before each call it measures.
The median reference time over a stretch of calls, divided by what it
takes on the reference box, is that stretch's slowdown, and the run
scales its times by it (see run.py).

The work resembles one step of the per-pixel mixture model on the
workload's raster: float64 arrays of k slots per pixel, distance,
match, weight decay and a rank sort, plus a short pure-Python loop. So
it uses the same kind of arithmetic, memory traffic and interpreter
work as the program, and a slower machine slows both alike. It uses
numpy only, nothing from bgsub, so a change to the program leaves it
as it is.
"""

from __future__ import annotations

import numpy as np

# Mixture slots per pixel, as in bgsub's default ModelParams.
K = 3


class ReferenceWork:
    """The reference work for a raster of n_pixels; its inputs are fixed."""

    def __init__(self, n_pixels: int):
        rng = np.random.default_rng(0)
        self.means = rng.uniform(0.0, 255.0, (K, n_pixels, 3))
        self.variances = rng.uniform(20.0, 60.0, (K, n_pixels))
        self.weights = rng.uniform(0.0, 1.0, (K, n_pixels))
        self.z = rng.uniform(0.0, 255.0, (n_pixels, 3))
        self.keys = range(2000)
        self.once()  # first calls pay for numpy's lazy set-up

    def once(self) -> int:
        d = self.means - self.z
        d2 = (d * d).sum(axis=2)
        hit = d2 < 6.25 * self.variances
        first = np.argmax(hit, axis=0)
        w = self.weights * 0.999 + np.where(hit, 0.001, 0.0)
        order = np.argsort(-w / np.sqrt(self.variances), axis=0, kind="stable")
        parent: dict[int, int] = {}
        for key in self.keys:
            parent[key] = parent.get(key // 2, key)
        return int(first.sum()) + int(order[0].sum()) + len(parent)
