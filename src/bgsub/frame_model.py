"""Vectorized whole-frame mixture engine.

Holds the per-pixel Gaussian mixtures of an entire frame (or a band of
rows) in numpy arrays and advances all of them in one pass per frame.
Per pixel, one step is: find the highest-ranked live component within d
sigmas of the sample; if there is one, decay every weight by (1 - alpha),
add alpha to the match and blend its mean and variance toward the sample
(the variance against the already-blended mean); if not, put a fresh
(w_init, z, var_init) component in the next free slot or over the
lowest-weight one, decay the others and renormalize. Then restore the
rank order and take the shortest prefix whose weights exceed t as
background. The operation order (distance sums, decay before reward,
summation order, tie-breaking) is fixed: in fixed-alpha mode the state
is bit-identical to a plain per-pixel loop over these steps, which the
tests hold it to. In the pdf-scaled rho mode the state can differ from
such a loop in the last bits, since numpy's power and exp need not
round as the loop's do.

The means are stored as channel planes, one (3, k, n) array, so that
every step on them runs long unit-stride loops: each channel of each slot
is one contiguous row of n values. observe() reads the samples the same
way, through z.T; FramePipeline hands each band its samples as the
transposed view of (3, n) planes, which makes those rows contiguous too.
Any (n, 3) layout gives the same state, only more slowly.

The match test costs in proportion to the slots that can still match.
Slot 0 is live for every started pixel and is tested densely, in chunks
of about BLEND_CHUNK pixels. Slot j is then tested only for the pixels
that missed slots 0..j-1 and have more than j live slots, on values
gathered by index, however many pixels missed slot 0.

State is updated in place. A chunk where at most SPARSE_MISS_FRACTION of
its own pixels missed slot 0 (most chunks of a static frame, and the
still parts of a busy one) blends its slot-0 matches directly on the
dense slot-0 planes, in the pass that tested them, while they are in
cache. It uses a per-pixel rho that is zero where slot 0 did not match:
for finite samples, such as pixel values, mu * 1.0 + 0.0 * z and
var * 1.0 + 0.0 leave those pixels exactly as they were. The variance
floor and the weight reward are masked to the matches, since a fresh
var_init may lie below var_min. Every other per-pixel slot read and
write goes through flat indices (slot * n + pixel) into raveled views of
the weights, the variances and each mean plane, one plane at a time, and
only for the pixels concerned: pixels matched at a later slot, or at
slot 0 in a chunk with more misses, gather, blend and scatter their
matched slot; unmatched pixels fill a fresh one and renormalize. Both
blends run one helper, so the state does not depend on which of them a
pixel took, nor on the chunk size.

The per-pixel rank order is restored by a network of adjacent
compare-exchange steps that swap only on a strictly higher rank, which
keeps ties in their slot order exactly as a stable sort does. A pixel
with one live slot is never swapped and its background prefix is 1. So
while at most MULTI_SLOT_FRACTION of the pixels have two or more live
slots, as read off live_count each frame, the network and the prefix
run only on those pixels, gathered by index, and every other pixel gets
b = 1.

Slots beyond a pixel's live count hold weight exactly 0.0 and never
influence sums, matching or the background prefix.

Each FrameModel owns the work buffers of its observe() calls: a float
block, two (3, n) plane buffers, and n-sized float, index and mask
buffers, allocated on the first observe() after the seeding one and
reused for every frame after that, through out= arguments and [:m]
views; the chunked slot-0 pass reuses their leading BLEND_CHUNK columns
and writes nothing into z. The reason is memory, not arithmetic: fresh
temporaries for every frame (about 8.8 times 24 bytes a pixel) would be
handed back to the system by the C allocator between frames, and every
frame would fault in fresh zeroed pages again (about 7,400 minor faults
a frame at 640x480). The buffers are per model, never shared, since band models
run on threads at once. Construction and the seeding frame do not touch
them. The arrays observe() returns are fresh and belong to the caller.
"""

from __future__ import annotations

import math

import numpy as np

from .gmm import BACKGROUND, FOREGROUND, GAUSS_NORM_3D, PDF_FAITHFUL, ModelParams

# A chunk blends its slot-0 matches in place when at most this fraction of
# its pixels missed slot 0, and leaves them to the gathered update otherwise.
SPARSE_MISS_FRACTION = 0.2

# Pixels per chunk of the slot-0 test and in-place blend, so that a chunk's
# (3, chunk) temporaries (384 KiB each at 16384) stay in cache. n pixels
# make max(1, round(n / BLEND_CHUNK)) chunks, as equal in size as possible.
# observe(), mean of the per-frame best of 8-10 alternating passes over the
# seed-1 frames (2-vCPU shared Xeon, 4 MiB L2 a core): vga640 read 14.3 ms
# at 4096, 14.3-14.5 at 8192, 14.5-15.2 at 16384, 16.6 at 32768, 16.8 at
# 65536 and 17.9 as one chunk of 307200; busy160 (19200 pixels) read 1.58
# ms as one chunk at 16384 and 1.60-1.63 ms as two at 8192 and 12288.
BLEND_CHUNK = 16384

# The rank sort and the background prefix run over the gathered pixels that
# have two or more live slots when they are at most this fraction of the
# pixels, and over every pixel otherwise. It must stay at most 1/2, so that
# their ranks and weights fit in the work buffers. observe(), timed as
# BLEND_CHUNK: vga640 (2-34% such pixels) read 21.0, 20.3 and 19.7 ms at
# 1/4, 1/3 and 1/2, against 25.5 ms with every pixel sorted; busy160 read
# 2.36, 2.36 and 2.39 ms, since at 1/2 its frames with 42-49% such pixels
# took the gathered sort and ran about 0.1 ms slower each.
MULTI_SLOT_FRACTION = 1 / 3


class FrameModel:
    """Mixture state for n_pixels pixels, k slots each.

    Arrays are indexed [slot, pixel] and updated in place by observe().
    weights, variances, live_count and mean_planes, the (3, k, n) channel
    planes of the means, stay C-contiguous; means is the (k, n, 3) view of
    mean_planes, indexed [slot, pixel, channel], and is not. Slots are kept
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
        # One plane per channel; means is its (k, n, 3) view.
        self.mean_planes = np.zeros((3, k, n_pixels), dtype=np.float64)
        self.means = self.mean_planes.transpose(1, 2, 0)
        self.variances = np.full((k, n_pixels), params.var_init, dtype=np.float64)
        self.live_count = np.zeros(n_pixels, dtype=np.int64)
        self.started = False
        self._scratch: _Scratch | None = None

    def observe(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every pixel model by one frame.

        z is (n, 3) float64 in any layout; the transposed view of (3, n)
        channel planes reads fastest (module docstring). Returns (labels,
        pos, b): uint8 labels (BACKGROUND/FOREGROUND), the post-sort slot
        that absorbed each pixel's value, and the per-pixel background
        prefix size. All three are new arrays; z is only read.
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

        if self._scratch is None:
            self._scratch = _Scratch(p.k, n)
        s = self._scratch
        k = p.k
        w = self.weights
        var = self.variances
        count = self.live_count
        # The samples and the means as channel planes: zt[c] is channel c
        # of every pixel, mu_flat[c] that channel of every slot. Flat views:
        # slot j of pixel i sits at j * n + i.
        zt = z.T
        mu_flat = self.mean_planes.reshape(3, -1)
        w_flat = w.reshape(-1)
        var_flat = var.reshape(-1)

        # Slot 0 is live for every started pixel: test it chunk by chunk, and
        # blend a chunk's slot-0 matches in place at once when few of its
        # pixels missed (module docstring). Means and variances do not
        # depend on the weights, so this runs before the slot choice reuses
        # the block; the reward waits for the decay.
        limit = p.d * p.d
        pdf_mode = p.rho_mode == PDF_FAITHFUL
        hit0, unmatched = s.hit0, s.m0
        n_miss = 0
        blended = []
        n_chunks = max(1, round(n / BLEND_CHUNK))
        for i in range(n_chunks):
            cut = slice(i * n // n_chunks, (i + 1) * n // n_chunks)
            c = cut.stop - cut.start
            mu_c, var_c, z_c = self.mean_planes[:, 0, cut], var[0, cut], zt[:, cut]
            d2_c, hit_c = s.block[:c], hit0[cut]
            _sq_norm(np.subtract(z_c, mu_c, out=s.rows[0, :, :c]), d2_c)
            np.less(d2_c, np.multiply(limit, var_c, out=s.f0[:c]), out=hit_c)
            miss = np.count_nonzero(np.logical_not(hit_c, out=unmatched[cut]))
            n_miss += miss
            if miss > SPARSE_MISS_FRACTION * c:
                continue
            rho = s.f1[:c]
            if pdf_mode:
                _pdf_rho(var_c, d2_c, p.alpha, rho, s.f2[:c])
                rho *= hit_c
            else:
                np.multiply(hit_c, p.alpha, out=rho)
            keep = np.subtract(1.0, rho, out=s.f2[:c])
            _blend(mu_c, var_c, z_c, rho, keep, s.rows[0, :, :c], s.rows[1, :, :c], s.f3[:c])
            np.maximum(var_c, p.var_min, out=var_c, where=hit_c)
            blended.append(cut)

        # jm is the first matching slot (unused where nothing matched). It
        # becomes the returned pos. Slot j is tested only for pixels that
        # missed slots 0..j-1 and have more than j live slots, on gathered
        # rows. rest moves between two index buffers, since a compaction
        # cannot write over its own input.
        jm = np.zeros(n, dtype=np.int64)
        held, spare = s.i0, s.i1
        rest = np.compress(unmatched, s.index, out=held[:n_miss])
        for j in range(1, k):
            live = np.greater(_take(count, rest, s.i2), j, out=s.m1[: rest.size])
            r = np.count_nonzero(live)
            if not r:
                break
            held, spare = spare, held
            rest = np.compress(live, rest, out=held[:r])
            f = np.add(rest, j * n, out=s.i2[:r])
            dz = _take_planes(zt, rest, s.rows[0])
            dz -= _take_planes(mu_flat, f, s.rows[1])
            d2_j = s.f0[:r]
            _sq_norm(dz, d2_j)
            lim_j = _take(var_flat, f, s.f1)
            hit = np.less(d2_j, np.multiply(limit, lim_j, out=lim_j), out=s.m1[:r])
            n_hit = np.count_nonzero(hit)
            found = np.compress(hit, rest, out=s.i3[:n_hit])
            unmatched[found] = False
            jm[found] = j
            held, spare = spare, held
            rest = np.compress(np.logical_not(hit, out=hit), rest, out=held[: r - n_hit])
        # The gathered update takes every match except the slot-0 matches
        # of the chunks blended in place. hit0 lies inside the matches, so
        # xor drops exactly those.
        gathered = np.logical_not(unmatched, out=s.m1)
        for cut in blended:
            np.logical_xor(gathered[cut], hit0[cut], out=gathered[cut])
        n_u = np.count_nonzero(unmatched)
        m = np.count_nonzero(gathered)
        im = np.compress(gathered, s.index, out=s.i0[:m])
        iu = np.compress(unmatched, s.index, out=s.i0[m : m + n_u])
        fm = _take(jm, im, s.i1)
        fm *= n
        fm += im

        # Unmatched pixels go to the next free slot, else to the lowest-weight
        # one (the first on ties), chosen before any decay. A pixel that is
        # not full gains the slot.
        jt = _take(count, iu, s.i2)
        full = np.equal(jt, k, out=s.m1[:n_u])
        grown = np.add(jt, 1, out=s.i3[:n_u])
        count[iu] = np.minimum(grown, k, out=grown)
        n_full = np.count_nonzero(full)
        if n_full:
            w_full = _take(w, np.compress(full, iu, out=s.i3[:n_full]), s.block, axis=1)
            # argmin over axis 0, which would copy the block: the strictly
            # lower weight wins, so ties keep the first slot.
            low = w_full[0]
            pick = s.i3[:n_full]
            pick.fill(0)
            lower = s.m2[:n_full]
            for j in range(1, k):
                pick[np.less(w_full[j], low, out=lower)] = j
                np.minimum(low, w_full[j], out=low)
            jt[full] = pick
        jm[iu] = jt

        # Every pixel decays all its live weights. Dead slots stay 0.0, and
        # an unmatched pixel's replaced slot is overwritten below.
        w *= 1.0 - p.alpha
        for cut in blended:
            np.add(w[0, cut], p.alpha, out=w[0, cut], where=hit0[cut])

        # Gathered matched pixels: reward the match, pull its mean and
        # variance to z.
        z_m = _take_planes(zt, im, s.rows[0])
        w_m = _take(w_flat, fm, s.f1)
        w_m += p.alpha
        w_flat[fm] = w_m
        mu_j = _take_planes(mu_flat, fm, s.rows[1])
        var_j = _take(var_flat, fm, s.f1)
        if pdf_mode:
            d2_m = s.f0[:m]
            _sq_norm(np.subtract(z_m, mu_j, out=s.block[: 3 * m].reshape(3, m)), d2_m)
            rho_j = _pdf_rho(var_j, d2_m, p.alpha, s.f2[:m], s.f3[:m])
            keep = np.subtract(1.0, rho_j, out=s.f3[:m])
        else:
            rho_j = p.alpha
            keep = 1.0 - p.alpha
        _blend(mu_j, var_j, z_m, rho_j, keep, s.block[: 3 * m].reshape(3, m), z_m, s.f0[:m])
        _put_planes(mu_flat, fm, mu_j)
        var_flat[fm] = np.maximum(var_j, p.var_min, out=var_j)

        # Unmatched pixels: fresh component in the target slot, then
        # renormalize. Dead slots are exactly zero, so the slot-order sum
        # equals the sum over live slots and dividing them leaves zero.
        ft = jt
        ft *= n
        ft += iu
        w_flat[ft] = p.w_init
        _put_planes(mu_flat, ft, _take_planes(zt, iu, s.rows[0]))
        var_flat[ft] = p.var_init
        w_u = _take(w, iu, s.block, axis=1)
        total = s.f0[:n_u]
        np.copyto(total, w_u[0])
        for j in range(1, k):
            total += w_u[j]
        w_u /= total
        w[:, iu] = w_u

        # Stable sort by rank, highest first: an adjacent compare-exchange
        # (bubble) network that swaps only where the lower slot ranks
        # strictly higher, so equal ranks keep their order, as with
        # list.sort(reverse=True). Dead slots rank 0.0 and sit after every
        # live slot, whose rank is >= 0.0, so they never move up. pos
        # follows the absorbing component through the swaps. While few
        # pixels have two or more live slots, only those are ranked (module
        # docstring): their ranks in block[:k * n_multi], their weights
        # after them.
        pos = jm
        multi = np.greater(count, 1, out=s.m1)
        n_multi = np.count_nonzero(multi)
        multi_only = n_multi <= MULTI_SLOT_FRACTION * n
        if multi_only:
            pix = np.compress(multi, s.index, out=s.i3[:n_multi])
            rank = _take(var, pix, s.block, axis=1)
            np.sqrt(rank, out=rank)
            np.divide(_take(w, pix, s.block[k * n_multi :], axis=1), rank, out=rank)
        else:
            rank = np.sqrt(var, out=s.block[: k * n].reshape(k, n))
            np.divide(w, rank, out=rank)
        size = rank.shape[1]
        rank_flat = rank.reshape(-1)
        for top in range(k - 1, 0, -1):
            for a in range(top):
                up = np.greater(rank[a + 1], rank[a], out=s.m1[:size])
                n_sw = np.count_nonzero(up)
                if not n_sw:
                    continue
                sw = np.compress(up, s.index[:size], out=s.i0[:n_sw])
                fa = np.add(sw, a * size, out=s.i1[:n_sw])
                fb = np.add(sw, (a + 1) * size, out=s.i2[:n_sw])
                _swap(rank_flat, fa, fb, s.f0, s.f1)
                if multi_only:
                    # The rest swaps at the pixels' own flat indices.
                    sw = _take(pix, sw, s.i1)
                    fa = np.add(sw, a * n, out=s.i0[:n_sw])
                    fb = np.add(sw, (a + 1) * n, out=s.i2[:n_sw])
                for a_flat in (w_flat, var_flat, *mu_flat):
                    _swap(a_flat, fa, fb, s.f0, s.f1)
                # pos a becomes a + 1 and pos a + 1 becomes a.
                pos_sw = _take(pos, sw, s.i2)
                to_b = np.equal(pos_sw, a, out=s.m1[:n_sw])
                to_a = np.equal(pos_sw, a + 1, out=s.m2[:n_sw])
                pos_sw += to_b
                pos_sw -= to_a
                pos[sw] = pos_sw

        # Background prefix: the first slot whose running weight sum exceeds
        # t. The sum never falls, so that slot's index is the number of
        # sums at or below t; the live count is the fallback.
        if multi_only:
            b = np.ones(n, dtype=np.int64)
            w_multi = _take(w, pix, s.block[k * n_multi :], axis=1)
            b[pix] = _prefix(w_multi, p.t, _take(count, pix, s.i0), s.i1[:n_multi], s.f0, s.m1)
        else:
            b = _prefix(w, p.t, count, np.empty(n, dtype=np.int64), s.f0, s.m1)

        labels = np.where(
            np.less(pos, b, out=s.m1), np.uint8(BACKGROUND), np.uint8(FOREGROUND)
        )
        return labels, pos, b


class _Scratch:
    """Work buffers of one FrameModel's observe(), each sized for all n
    pixels; a step over m pixels uses [:m] views. Steps that do not overlap
    share a buffer, so the set is smaller than the temporaries a frame
    allocated without it: at k = 3, 148 bytes a pixel (index 8, block 24,
    the two (3, n) rows 48, float 32, index 32, mask 3, hit0 1). hit0
    holds the slot-0 matches from the match test to the weight reward."""

    def __init__(self, k: int, n: int):
        self.index = np.arange(n)
        # The slot-0 squared distances of a chunk, then the gathered
        # weights of the slot choice and the renormalization, the z - mu
        # and rho * z planes of the gathered update, and the ranks: (k, n)
        # of every pixel, or (k, m) of the m <= n/2 multi-slot pixels followed
        # by their weights.
        self.block = np.empty(max(k, 3) * n)
        self.rows = np.empty((2, 3, n))
        self.f0, self.f1, self.f2, self.f3 = np.empty((4, n))
        self.i0, self.i1, self.i2, self.i3 = np.empty((4, n), dtype=np.int64)
        self.m0, self.m1, self.m2 = np.empty((3, n), dtype=bool)
        self.hit0 = np.empty(n, dtype=bool)


def _take(a: np.ndarray, idx: np.ndarray, buf: np.ndarray, axis: int = 0) -> np.ndarray:
    """np.take(a, idx, axis) written into the leading part of buf.

    mode="clip" because mode="raise" copies its output first; every index
    here is in range, so both give the same values.
    """
    shape = list(a.shape)
    shape[axis] = idx.size
    out = buf.reshape(-1)[: math.prod(shape)].reshape(shape)
    return np.take(a, idx, axis=axis, out=out, mode="clip")


def _take_planes(planes: np.ndarray, idx: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Gather idx from each plane of planes into buf[:, :idx.size], one 1-D
    take a plane: np.take copies a non-contiguous input whole before it
    gathers, and the planes of a band's samples are not one block."""
    out = buf[:, : idx.size]
    for plane, row in zip(planes, out):
        np.take(plane, idx, out=row, mode="clip")
    return out


def _put_planes(planes: np.ndarray, idx: np.ndarray, v: np.ndarray) -> None:
    """planes[:, idx] = v, one plane at a time, which is faster than the
    2-D assignment."""
    for plane, row in zip(planes, v):
        plane[idx] = row


def _swap(
    a: np.ndarray, fa: np.ndarray, fb: np.ndarray, buf_a: np.ndarray, buf_b: np.ndarray
) -> None:
    """Swap a[fa] and a[fb], through the work buffers buf_a and buf_b."""
    at_a = _take(a, fa, buf_a)
    a[fa] = _take(a, fb, buf_b)
    a[fb] = at_a


def _prefix(
    w: np.ndarray, t: float, count: np.ndarray, b: np.ndarray, running: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Background prefix size b of each column of the (k, m) weights w, at
    most its live count; running and mask are work buffers of at least m."""
    m = b.size
    running = running[:m]
    np.copyto(running, w[0])
    np.add(np.less_equal(running, t, out=mask[:m]), 1, out=b)
    for j in range(1, len(w)):
        running += w[j]
        b += np.less_equal(running, t, out=mask[:m])
    return np.minimum(b, count, out=b)


def _pdf_rho(
    var: np.ndarray, d2: np.ndarray, alpha: float, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """out = alpha * GAUSS_NORM_3D * var**-1.5 * exp(-d2 / (2 var)), clipped
    to [0, 1]; d2 is overwritten, tmp is a work buffer of the same size."""
    np.power(var, -1.5, out=out)
    out *= GAUSS_NORM_3D
    np.negative(d2, out=d2)
    d2 /= np.multiply(2.0, var, out=tmp)
    out *= np.exp(d2, out=tmp)
    out *= alpha
    return np.clip(out, 0.0, 1.0, out=out)


def _blend(
    mu: np.ndarray,
    var: np.ndarray,
    z: np.ndarray,
    rho: np.ndarray | float,
    keep: np.ndarray | float,
    rz: np.ndarray,
    dn: np.ndarray,
    d2n: np.ndarray,
) -> None:
    """Pull the (3, m) mean planes mu and (m,) variances var toward the
    sample planes z in place, by rho per pixel (keep = 1 - rho): mu = keep
    mu + rho z, then var = keep var + rho |z - mu|^2 against the new mean,
    before the floor. rz, dn and d2n are work buffers of the same sizes; dn
    may be z itself, which is then overwritten, and z is only read
    otherwise."""
    mu *= keep
    mu += np.multiply(rho, z, out=rz)
    _sq_norm(np.subtract(z, mu, out=dn), d2n)
    d2n *= rho
    var *= keep
    var += d2n


def _sq_norm(diff: np.ndarray, out: np.ndarray) -> None:
    """out = |diff|^2 per pixel of the (3, m) planes diff, summed in channel
    order; squares diff in place."""
    diff *= diff
    np.add(diff[0], diff[1], out=out)
    out += diff[2]
