"""Single pixels of a FrameModel in the form the mixture oracle uses.

A pixel state is the pixel's live components in rank order, as a list of
{"w", "m", "v"} dicts: what oracles.oracle_step takes and returns.
"""

import dataclasses

import numpy as np

from oracles import oracle_params


def oracle_params_of(params):
    """The oracle's parameter dict for a ModelParams."""
    return oracle_params(**dataclasses.asdict(params))


def load_states(fm, states):
    """Write one pixel state per pixel into fm and mark it started."""
    for j, comps in enumerate(states):
        fm.live_count[j] = len(comps)
        for i, c in enumerate(comps):
            fm.weights[i, j] = c["w"]
            fm.mean_planes[:, i, j] = c["m"]
            fm.variances[i, j] = c["v"]
    fm.started = True


def pixel_state(fm, j):
    """Pixel j of fm as a pixel state."""
    return [
        {
            "w": float(fm.weights[i, j]),
            "m": fm.mean_planes[:, i, j].tolist(),
            "v": float(fm.variances[i, j]),
        }
        for i in range(int(fm.live_count[j]))
    ]


def step(fm, z):
    """observe() on a one-pixel model; returns (label, pos, b) as ints."""
    labels, pos, b = fm.observe(np.array([z], dtype=np.float64))
    return int(labels[0]), int(pos[0]), int(b[0])
