"""Connected-component labeling and blob extraction for binary masks.

Labeling works on horizontal runs rather than pixels, in whole-array
numpy steps with no Python loop over runs or pixels. Two searchsorted
calls find, for every run, the contiguous range of runs in the row above
that touch it. In rounds, every root is hooked to the smallest root it
touches and pointer jumping then points every run at its root, until
every touching pair shares a root; each round merges at least one pair
of trees, and a few rounds suffice on real masks. Because runs come out
in row-major order, each root is its component's first run, so numbering
the roots in index order gives the row-major first-pixel numbering, and
one scatter paints every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FOUR = "four"
EIGHT = "eight"

_CONNECTIVITY_SLACK = {FOUR: 0, EIGHT: 1}


@dataclass(frozen=True)
class Blob:
    """One connected foreground region.

    bbox is (x0, y0, x1, y1) with inclusive corners; centroid is the
    unweighted pixel mean (cx, cy) in sub-pixel coordinates.
    """

    id: int
    area: int
    bbox: tuple[int, int, int, int]
    centroid: tuple[float, float]


def label_components(mask: np.ndarray, connectivity: str = EIGHT) -> np.ndarray:
    """Label connected regions of nonzero pixels.

    Returns an int32 map of the same shape: 0 for background, components
    numbered 1..n in row-major order of each component's first pixel.
    """
    if connectivity not in _CONNECTIVITY_SLACK:
        raise ValueError(f"unknown connectivity {connectivity!r}")
    slack = _CONNECTIVITY_SLACK[connectivity]
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {m.shape}")
    fg = m != 0
    h, w = m.shape
    labels = np.zeros((h, w), dtype=np.int32)

    # Horizontal runs from the sign changes of the zero-padded rows. In the
    # flattened (h, w + 1) edge map a run keeps its row and column as
    # row * stride + x, and a key one stride back lies in the row above.
    stride = w + 1
    edges = np.diff(fg.astype(np.int8), axis=1, prepend=0, append=0).reshape(-1)
    start = np.flatnonzero(edges == 1)
    end = np.flatnonzero(edges == -1) - 1  # inclusive
    n_runs = len(start)
    if n_runs == 0:
        return labels

    # Both keys increase in run order, so the runs of the row above that
    # touch run j form the index range [lo[j], hi[j]).
    lo = np.searchsorted(end, start - stride - slack)
    hi = np.searchsorted(start, end - stride + slack, side="right")
    count = hi - lo
    below = np.repeat(np.arange(n_runs), count)
    above = np.arange(len(below)) + np.repeat(lo - (np.cumsum(count) - count), count)

    # Hook every root to the smallest root it touches, then point every run
    # at its root, until each touching pair agrees. Hooks only go to smaller
    # indices, so each root ends as the first run of its component.
    root = np.arange(n_runs)
    while True:
        ra, rb = root[above], root[below]
        differ = ra != rb
        if not differ.any():
            break
        ra, rb = ra[differ], rb[differ]
        np.minimum.at(root, ra, rb)
        np.minimum.at(root, rb, ra)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped

    # Runs are row-major, so numbering roots in index order numbers the
    # components by their first pixel, and the runs' pixels, concatenated,
    # are the foreground pixels in row-major order.
    ids = np.cumsum(root == np.arange(n_runs), dtype=np.int32)[root]
    labels[fg] = np.repeat(ids, end - start + 1)
    return labels


def extract_blobs(labels: np.ndarray, min_area: int = 15) -> list[Blob]:
    """Summarize labeled regions of at least min_area pixels.

    Blobs come back sorted by descending area, ties broken by ascending
    label id.
    """
    if min_area < 1:
        raise ValueError(f"min_area must be >= 1, got {min_area}")
    ys, xs = np.nonzero(labels)
    if len(ys) == 0:
        return []
    ids = labels[ys, xs].astype(np.int64)
    n = int(ids.max())
    area = np.bincount(ids, minlength=n + 1)
    sum_x = np.bincount(ids, weights=xs, minlength=n + 1)
    sum_y = np.bincount(ids, weights=ys, minlength=n + 1)
    min_x = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    min_y = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    max_x = np.full(n + 1, -1, dtype=np.int64)
    max_y = np.full(n + 1, -1, dtype=np.int64)
    np.minimum.at(min_x, ids, xs)
    np.minimum.at(min_y, ids, ys)
    np.maximum.at(max_x, ids, xs)
    np.maximum.at(max_y, ids, ys)

    blobs = []
    for cid in np.flatnonzero(area >= min_area).tolist():
        a = int(area[cid])
        blobs.append(
            Blob(
                id=cid,
                area=a,
                bbox=(int(min_x[cid]), int(min_y[cid]), int(max_x[cid]), int(max_y[cid])),
                centroid=(float(sum_x[cid] / a), float(sum_y[cid] / a)),
            )
        )
    blobs.sort(key=lambda blob: (-blob.area, blob.id))
    return blobs
