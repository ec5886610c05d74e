"""Vectorized whole-frame mixture engine.

Holds the per-pixel Gaussian mixtures of an entire frame (or a band of
rows) in numpy arrays and advances all of them in one pass per frame.
The arithmetic mirrors the scalar operations in :mod:`bgsub.gmm`
operation for operation, including summation order and tie-breaking, so
that in fixed-alpha mode both paths produce bit-identical state. The
pdf-scaled rho mode can differ from the scalar path by a final unit in
the last place because numpy's vectorized exp is not guaranteed to round
identically to math.exp.

The match test costs in proportion to the slots that can still match.
Slot 0 is live for every started pixel and is tested densely. When at
most SPARSE_MISS_FRACTION of the pixels missed it, as on a mostly static
scene, slot j is tested only for the pixels that missed slots 0..j-1 and
have more than j live slots, on rows gathered by index. When more
missed, the gathers would cost more than they save, and slots 1..k-1 of
every pixel are tested densely. One threshold on that fraction picks
the branch once per frame; both find the same first matching slot.

State is updated in place. Per-pixel slot reads and writes go through
flat indices (slot * n + pixel) into raveled views, and only for the
pixels concerned: matched pixels update their matched slot, unmatched
pixels fill a fresh one and renormalize. The per-pixel rank order is
restored by a network of adjacent compare-exchange steps that swap only
on a strictly higher rank, which keeps ties in their slot order exactly
as the scalar path's stable sort does.

Slots beyond a pixel's live count hold weight exactly 0.0 and never
influence sums, matching or the background prefix.
"""

from __future__ import annotations

import numpy as np

from .gmm import BACKGROUND, FOREGROUND, GAUSS_NORM_3D, PDF_FAITHFUL, ModelParams

# Slots 1..k-1 are tested on gathered rows when at most this fraction of
# pixels missed slot 0, and as one dense block otherwise.
SPARSE_MISS_FRACTION = 0.1


class FrameModel:
    """Mixture state for n_pixels pixels, k slots each.

    Arrays are indexed [slot, pixel] (means have a trailing channel axis),
    stay C-contiguous and are updated in place by observe(). They are kept
    sorted per pixel by weight/sigma, highest first; equal ranks keep
    their slot order. The first observe() call seeds every pixel with a
    single component and classifies everything as background.
    """

    def __init__(self, params: ModelParams, n_pixels: int):
        if n_pixels < 1:
            raise ValueError(f"n_pixels must be >= 1, got {n_pixels}")
        k = params.k
        self.params = params
        self.n = n_pixels
        self.weights = np.zeros((k, n_pixels), dtype=np.float64)
        self.means = np.zeros((k, n_pixels, 3), dtype=np.float64)
        self.variances = np.full((k, n_pixels), params.var_init, dtype=np.float64)
        self.live_count = np.zeros(n_pixels, dtype=np.int64)
        self.started = False

    def observe(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every pixel model by one frame.

        z is (n, 3) float64. Returns (labels, pos, b): uint8 labels
        (BACKGROUND/FOREGROUND), the post-sort slot that absorbed each
        pixel's value, and the per-pixel background prefix size.
        """
        p = self.params
        n = self.n
        if z.shape != (n, 3):
            raise ValueError(f"expected ({n}, 3) samples, got {z.shape}")
        if not self.started:
            self.weights[0] = 1.0
            self.means[0] = z
            self.live_count[:] = 1
            self.started = True
            labels = np.full(n, BACKGROUND, dtype=np.uint8)
            return labels, np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)

        k = p.k
        w = self.weights
        mu = self.means
        var = self.variances
        count = self.live_count
        # Flat views: slot j of pixel i sits at j * n + i.
        w_flat = w.reshape(-1)
        mu_flat = mu.reshape(-1, 3)
        var_flat = var.reshape(-1)

        # Slot 0 is live for every started pixel, so it is tested densely,
        # through an (n, 3) temporary that the dense branch reuses.
        limit = p.d * p.d
        d2 = np.empty((k, n))
        diff = np.empty((n, 3))
        np.subtract(z, mu[0], out=diff)
        _sq_norm(diff, d2[0])
        unmatched = ~(d2[0] < limit * var[0])
        # jm counts the slots before the first match: the first matching
        # slot (unused where nothing matched).
        jm = np.zeros(n, dtype=np.int64)
        if np.count_nonzero(unmatched) <= SPARSE_MISS_FRACTION * n:
            # Few misses: test slot j only for pixels that missed slots
            # 0..j-1 and have more than j live slots, on gathered rows. A
            # match keeps its d2 in the block for the pdf mode.
            d2_flat = d2.reshape(-1)
            rest = np.flatnonzero(unmatched)
            for j in range(1, k):
                rest = rest[count[rest] > j]
                if not rest.size:
                    break
                f = j * n + rest
                dz = np.take(z, rest, axis=0)
                dz -= np.take(mu_flat, f, axis=0)
                d2_j = np.empty(rest.size)
                _sq_norm(dz, d2_j)
                hit = d2_j < limit * var_flat[f]
                found = rest[hit]
                unmatched[found] = False
                jm[found] = j
                d2_flat[f[hit]] = d2_j[hit]
                rest = rest[~hit]
        else:
            # Many misses: the gathers would cost more than testing slots
            # 1..k-1 of every pixel densely.
            for j in range(1, k):
                np.subtract(z, mu[j], out=diff)
                _sq_norm(diff, d2[j])
                jm += unmatched
                unmatched &= ~((d2[j] < limit * var[j]) & (count > j))
        im = np.flatnonzero(~unmatched)
        iu = np.flatnonzero(unmatched)

        # Unmatched pixels go to the next free slot, else to the lowest-weight
        # one (first on ties, like the scalar scan), chosen before any decay.
        count_u = count[iu]
        jt = count_u.copy()
        full = np.flatnonzero(count_u == k)
        jt[full] = np.argmin(w[:, iu[full]], axis=0)

        # Every pixel decays all its live weights. Dead slots stay 0.0, and
        # an unmatched pixel's replaced slot is overwritten below.
        w *= 1.0 - p.alpha

        # Matched pixels: reward the match, pull its mean and variance to z.
        fm = jm[im] * n + im
        z_m = np.take(z, im, axis=0)
        w_flat[fm] += p.alpha
        mu_j = np.take(mu_flat, fm, axis=0)
        var_j = var_flat[fm]
        if p.rho_mode == PDF_FAITHFUL:
            d2_j = d2.reshape(-1)[fm]
            pdf_j = GAUSS_NORM_3D * var_j**-1.5 * np.exp(-d2_j / (2.0 * var_j))
            rho_j = np.clip(p.alpha * pdf_j, 0.0, 1.0)
            rho_col = rho_j[:, None]
        else:
            rho_j = rho_col = p.alpha
        mu_j *= 1.0 - rho_col
        mu_j += rho_col * z_m
        # Variance is pulled toward the squared distance from the new mean.
        dn = np.subtract(z_m, mu_j, out=z_m)
        dn *= dn
        d2n = dn[:, 0] + dn[:, 1]
        d2n += dn[:, 2]
        d2n *= rho_j
        var_j *= 1.0 - rho_j
        var_j += d2n
        _rows(mu_flat)[fm] = _rows(mu_j)
        var_flat[fm] = np.maximum(var_j, p.var_min, out=var_j)

        # Unmatched pixels: fresh component in the target slot, then
        # renormalize. Dead slots are exactly zero, so the slot-order sum
        # equals the scalar running total and dividing them leaves zero.
        ft = jt * n + iu
        w_flat[ft] = p.w_init
        mu_flat[ft] = z[iu]
        var_flat[ft] = p.var_init
        count[iu[count_u < k]] += 1
        w_u = w[:, iu]
        total = w_u[0].copy()
        for j in range(1, k):
            total += w_u[j]
        w_u /= total
        w[:, iu] = w_u

        # Stable sort by rank, highest first: an adjacent compare-exchange
        # (bubble) network that swaps only where the lower slot ranks
        # strictly higher, so equal ranks keep their order, as with
        # list.sort(reverse=True). Dead slots rank 0.0 and sit after every
        # live slot, whose rank is >= 0.0, so they never move up. pos
        # follows the absorbing component through the swaps.
        pos = jm
        pos[iu] = jt
        rank = np.sqrt(var)
        np.divide(w, rank, out=rank)
        rank_flat = rank.reshape(-1)
        mu_rows = _rows(mu_flat)
        for top in range(k - 1, 0, -1):
            for a in range(top):
                sw = np.flatnonzero(rank[a + 1] > rank[a])
                if not sw.size:
                    continue
                fa = a * n + sw
                fb = fa + n
                for arr in (w_flat, var_flat, rank_flat, mu_rows):
                    arr[fa], arr[fb] = arr[fb], arr[fa]
                pos_sw = pos[sw]
                pos[sw] = np.where(pos_sw == a, a + 1, np.where(pos_sw == a + 1, a, pos_sw))

        # Background prefix: the first slot whose running weight sum exceeds
        # t. The sum never falls, so that slot's index is the number of
        # sums at or below t; the live count is the fallback.
        running = w[0].copy()
        b = (running <= p.t) + 1
        for j in range(1, k):
            running += w[j]
            b += running <= p.t
        np.minimum(b, count, out=b)

        labels = np.where(pos < b, BACKGROUND, FOREGROUND).astype(np.uint8)
        return labels, pos, b


def _sq_norm(diff: np.ndarray, out: np.ndarray) -> None:
    """out = |diff|^2 per (m, 3) row, summed in channel order as the scalar
    path sums; squares diff in place."""
    diff *= diff
    np.add(diff[:, 0], diff[:, 1], out=out)
    out += diff[:, 2]


def _rows(a: np.ndarray) -> np.ndarray:
    """View a C-contiguous (m, 3) float64 array as m opaque 24-byte records,
    so that fancy indexing moves whole rows at once."""
    return a.view(np.dtype((np.void, 24))).reshape(-1)
