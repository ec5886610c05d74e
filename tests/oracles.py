"""Independent reference implementations used only by the tests.

Everything here is deliberately written straight-line in plain Python,
without importing from the package, so disagreements point at real
defects rather than shared mistakes. The mixture recurrence and the
shadow test are the only references the engine is checked against;
test_package.py fails if this file imports bgsub.
"""

from __future__ import annotations

import itertools
import math
from collections import deque


# ---------------------------------------------------------------------------
# Per-pixel mixture recurrence

def oracle_init(z, params):
    return [{"w": 1.0, "m": [z[0], z[1], z[2]], "v": params["var_init"]}]


def oracle_step(comps, z, params):
    """One observation against a component list of {"w", "m", "v"} dicts.

    Returns (comps, label, pos, b); label 0 background / 255 foreground.
    """
    d = params["d"]
    alpha = params["alpha"]
    midx = None
    for i, c in enumerate(comps):
        dx = z[0] - c["m"][0]
        dy = z[1] - c["m"][1]
        dz = z[2] - c["m"][2]
        if dx * dx + dy * dy + dz * dz < d * d * c["v"]:
            midx = i
            break
    if midx is None:
        for c in comps:
            c["w"] = c["w"] * (1.0 - alpha)
        target = {"w": params["w_init"], "m": [z[0], z[1], z[2]], "v": params["var_init"]}
        if len(comps) < params["k"]:
            comps.append(target)
        else:
            j = 0
            for i in range(1, len(comps)):
                if comps[i]["w"] < comps[j]["w"]:
                    j = i
            comps[j] = target
        s = sum(c["w"] for c in comps)
        for c in comps:
            c["w"] = c["w"] / s
    else:
        for c in comps:
            c["w"] = c["w"] * (1.0 - alpha)
        target = comps[midx]
        target["w"] = target["w"] + alpha
        if params["rho_mode"] == "pdf_faithful":
            dx = z[0] - target["m"][0]
            dy = z[1] - target["m"][1]
            dz = z[2] - target["m"][2]
            dd = dx * dx + dy * dy + dz * dz
            dens = (2.0 * math.pi) ** -1.5 / target["v"] ** 1.5 * math.exp(-dd / (2.0 * target["v"]))
            rho = alpha * dens
            rho = 0.0 if rho < 0.0 else (1.0 if rho > 1.0 else rho)
        else:
            rho = alpha
        m2 = [(1.0 - rho) * target["m"][i] + rho * z[i] for i in range(3)]
        dx = z[0] - m2[0]
        dy = z[1] - m2[1]
        dz = z[2] - m2[2]
        v2 = (1.0 - rho) * target["v"] + rho * (dx * dx + dy * dy + dz * dz)
        if v2 < params["var_min"]:
            v2 = params["var_min"]
        target["m"] = m2
        target["v"] = v2
    comps.sort(key=lambda c: c["w"] / math.sqrt(c["v"]), reverse=True)
    pos = next(i for i, c in enumerate(comps) if c is target)
    b = len(comps)
    run = 0.0
    for i, c in enumerate(comps):
        run += c["w"]
        if run > params["t"]:
            b = i + 1
            break
    label = 0 if pos < b else 255
    return comps, label, pos, b


def oracle_params(**overrides):
    p = {
        "k": 3,
        "alpha": 0.01,
        "t": 0.7,
        "d": 2.5,
        "var_init": 225.0,
        "w_init": 0.05,
        "var_min": 4.0,
        "rho_mode": "fixed_alpha",
    }
    p.update(overrides)
    return p


def absorption_frame(old_value, new_value, n_pre, params, max_steps=2000):
    """Feed old_value for n_pre frames, then new_value until the label flips.

    Returns how many new_value frames it takes for the pixel to read
    background again (1-based), or None within max_steps.
    """
    comps = oracle_init(old_value, params)
    for _ in range(n_pre):
        comps, _, _, _ = oracle_step(comps, old_value, params)
    for step in range(1, max_steps + 1):
        comps, label, _, _ = oracle_step(comps, new_value, params)
        if label == 0:
            return step
    return None


# ---------------------------------------------------------------------------
# Shadow test: brightness and chromaticity distortion against background colors

# Background colors shorter than this never cast a shadow.
MIN_BG_NORM = 1e-6


def oracle_distortion(f, bg):
    """(bd, cd) of value f against background color bg, or None when bg
    is shorter than MIN_BG_NORM."""
    nb2 = bg[0] * bg[0] + bg[1] * bg[1] + bg[2] * bg[2]
    norm_b = math.sqrt(nb2)
    if norm_b < MIN_BG_NORM:
        return None
    bd = (f[0] * bg[0] + f[1] * bg[1] + f[2] * bg[2]) / nb2
    rx = f[0] - bd * bg[0]
    ry = f[1] - bd * bg[1]
    rz = f[2] - bd * bg[2]
    cd = math.sqrt(rx * rx + ry * ry + rz * rz) / norm_b
    return bd, cd


def oracle_refine(label, f, means, b_count, bd_low, bd_high, cd_max):
    """Class of one pixel: 255 (foreground) becomes 128 (shadow) when f
    shadows any of the first b_count means; other labels pass through.
    Both band edges are inclusive."""
    if label != 255:
        return label
    for bg in means[:b_count]:
        geometry = oracle_distortion(f, bg)
        if geometry is None:
            continue
        bd, cd = geometry
        if bd_low <= bd <= bd_high and cd <= cd_max:
            return 128
    return 255


# ---------------------------------------------------------------------------
# Connected components: BFS flood fill, row-major first-pixel numbering

def flood_fill_labels(mask, connectivity="eight"):
    """mask: list of lists (truthy = foreground). Returns list-of-lists labels."""
    h = len(mask)
    w = len(mask[0]) if h else 0
    if connectivity == "eight":
        steps = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        steps = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    out = [[0] * w for _ in range(h)]
    next_label = 0
    for y in range(h):
        for x in range(w):
            if mask[y][x] and out[y][x] == 0:
                next_label += 1
                out[y][x] = next_label
                queue = deque([(y, x)])
                while queue:
                    cy, cx = queue.popleft()
                    for dy, dx in steps:
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny][nx] and out[ny][nx] == 0:
                            out[ny][nx] = next_label
                            queue.append((ny, nx))
    return out


# ---------------------------------------------------------------------------
# Confusion counting, one pixel at a time

def count_confusion(pred, truth, class_value):
    """pred/truth: lists of equal-shaped list-of-lists rasters."""
    tp = fp = fn = 0
    for p, t in zip(pred, truth):
        for prow, trow in zip(p, t):
            for pv, tv in zip(prow, trow):
                if pv == class_value and tv == class_value:
                    tp += 1
                elif pv == class_value:
                    fp += 1
                elif tv == class_value:
                    fn += 1
    return tp, fp, fn


# ---------------------------------------------------------------------------
# Exhaustive minimum-cost assignment for tiny association instances

def min_sum_assignment(track_points, blob_points, max_dist):
    """Best gate-respecting assignment as a set of (track_idx, blob_idx).

    Maximum cardinality first, then minimum total distance, by brute
    force. Intended for instances with at most ~4 of each.
    """

    def dist(a, b):
        return math.hypot(a[0] - b[0], a[1] - b[1])

    n_t, n_b = len(track_points), len(blob_points)
    best_pairs: set = set()
    best_total = None
    for r in range(min(n_t, n_b), -1, -1):
        found = False
        for t_sub in itertools.combinations(range(n_t), r):
            for b_sub in itertools.permutations(range(n_b), r):
                total = 0.0
                ok = True
                for ti, bi in zip(t_sub, b_sub):
                    d = dist(track_points[ti], blob_points[bi])
                    if d > max_dist:
                        ok = False
                        break
                    total += d
                if not ok:
                    continue
                found = True
                if best_total is None or total < best_total:
                    best_total = total
                    best_pairs = set(zip(t_sub, b_sub))
        if found:
            break
    return best_pairs
