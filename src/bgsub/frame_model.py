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
is one contiguous row of n values. observe() converts the samples to
float64 planes only where it uses them, and holds no float copy of the
frame: each slot-0 chunk converts its own rows into a cache-sized plane
buffer, and the later gathers take rows in z's own dtype and convert
only those. So z may come in any (n, 3) layout and in any dtype that
converts to float64 exactly, such as a band of a uint8 frame's rows, and
gives the same state.

The match test costs in proportion to the slots that can still match.
Slot 0 is live for every started pixel and is tested densely, in chunks
of about BLEND_CHUNK pixels. Slot j is then tested only for the pixels
that missed slots 0..j-1 and have more than j live slots, on values
gathered by index, however many pixels missed slot 0.

State is updated in place. Each chunk updates its slot-0 matches
directly on the dense slot-0 rows, in the pass that tested them, while
they are in cache: the weight decays and gains alpha, and the mean and
variance blend. It uses a per-pixel rho that is zero where slot 0 did
not match: for finite samples, such as pixel values, w * 1.0 + 0.0,
mu * 1.0 + 0.0 * z and var * 1.0 + 0.0 leave those pixels exactly as
they were, since no weight is ever -0.0. So the slot choice of the
unmatched pixels still reads their weights from before any decay; after
it, the later slots decay densely, and slot 0 of the pixels that missed
it decays by index. The variance floor is plain arithmetic as well, not
a masked ufunc, which runs about ten times slower on a noisy mask: a
miss is floored at 0.0, which keeps its variance, since variances are
always positive (even a fresh var_init below var_min). Every other per-pixel slot read and write goes through flat indices
(slot * n + pixel) into raveled views of the weights, the variances and
each mean plane, one plane at a time, and only for the pixels
concerned: pixels matched at a later slot gather, blend and scatter
their matched slot; unmatched pixels fill a fresh one and renormalize.
Both blends run one helper in the same operation order, so the state
does not depend on the chunk size. The in-place update costs the same
whether a pixel matched or not, so a frame where most pixels miss slot 0
pays for updating them all; no benchmark frame is like that.

The per-pixel rank order is restored by a network of adjacent
compare-exchange steps that swap only on a strictly higher rank, which
keeps ties in their slot order exactly as a stable sort does. A pixel
with one live slot is never swapped, its background prefix is 1 and,
since that slot is the one it matched, it is background. So while at
most MULTI_SLOT_FRACTION of the pixels have two or more live slots, as
read off live_count each frame, the network, the prefix and the labels
run only on those pixels, gathered once by index (their weights are
swapped alongside their ranks), and every other pixel gets b = 1 and
the background label.

Slots beyond a pixel's live count hold weight exactly 0.0 and never
influence sums, matching or the background prefix.

Each FrameModel owns the work buffers of its observe() calls: a float
block, two (3, n) plane buffers, and n-sized float, index and mask
buffers, allocated on the first observe() after the seeding one and
reused for every frame after that, through out= arguments and [:m]
views; the chunked slot-0 pass reuses their leading BLEND_CHUNK columns,
its chunk's sample planes among them. Only the gathered sample rows are
fresh, in z's own dtype (3 bytes a gathered pixel of uint8 rows). The
reason is memory, not arithmetic: fresh temporaries for every frame
(about 8.8 times 24 bytes a pixel) would be handed back to the system by
the C allocator between frames, and every frame would fault in fresh
zeroed pages again (about 7,400 minor faults a frame at 640x480). The
buffers are per model, never shared, since band models run on threads at
once. Construction and the seeding frame do not touch them. The arrays
observe() returns are fresh and belong to the caller.
"""

from __future__ import annotations

import math

import numpy as np

from .gmm import BACKGROUND, FOREGROUND, GAUSS_NORM_3D, PDF_FAITHFUL, ModelParams

# Pixels per chunk of the slot-0 test and in-place blend, so that a chunk's
# (3, chunk) sample planes and temporaries (384 KiB each at 16384) stay in
# cache. n pixels make max(1, round(n / BLEND_CHUNK)) chunks, as equal in
# size as possible. observe(), mean over the seed-1 frames of each frame's
# best of 8 passes, one model per size stepped side by side in rotating
# order (2-vCPU shared Xeon), in two repetitions: vga640 read 14.0-14.4 ms
# at 4096, 13.1-13.4 at 8192, 13.7-14.3 at 16384, 15.4-15.9 at 32768 and
# 20.5-21.1 as one chunk of 307200; busy160 (19200 pixels, 10 passes) read
# 1.73-1.90 ms at 4096, 1.66-1.82 at 8192 and 1.68-1.83 as one chunk, which
# 16384 and 32768 also make. 8192 is not worth a change of value without
# benchmark pairs of its own.
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

    Arrays are indexed [slot, pixel] and updated in place by observe();
    mean_planes, the (3, k, n) channel planes of the means, is indexed
    [channel, slot, pixel]. All of them stay C-contiguous. Slots are kept
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
        self.mean_planes = np.zeros((3, k, n_pixels), dtype=np.float64)
        self.variances = np.full((k, n_pixels), params.var_init, dtype=np.float64)
        self.live_count = np.zeros(n_pixels, dtype=np.int64)
        self.started = False
        self._scratch: _Scratch | None = None

    def observe(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every pixel model by one frame.

        z is (n, 3) in any layout, float64 or a type that converts to it
        exactly, such as uint8 (module docstring). Returns (labels,
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
            self.mean_planes[:, 0] = z.T
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
        # The means as channel planes: mu_flat[c] is channel c of every
        # slot. Flat views: slot j of pixel i sits at j * n + i.
        mu_flat = self.mean_planes.reshape(3, -1)
        w_flat = w.reshape(-1)
        var_flat = var.reshape(-1)

        # Slot 0 is live for every started pixel: test it chunk by chunk, and
        # update each chunk's slot-0 matches in place at once (module
        # docstring): the weight gains alpha after its decay, and the mean
        # and variance blend. A miss keeps all three here; the weights of
        # the slot choice below must be those from before any decay.
        limit = p.d * p.d
        pdf_mode = p.rho_mode == PDF_FAITHFUL
        hit0, unmatched = s.hit0, s.m0
        n_chunks = max(1, round(n / BLEND_CHUNK))
        for i in range(n_chunks):
            cut = slice(i * n // n_chunks, (i + 1) * n // n_chunks)
            c = cut.stop - cut.start
            mu_c, var_c = self.mean_planes[:, 0, cut], var[0, cut]
            d2_c, hit_c = s.block[:c], hit0[cut]
            # The chunk's samples as float planes, converted while in cache;
            # the blend below overwrites them.
            z_c = s.rows[1, :, :c]
            np.copyto(z_c, z[cut].T)
            _sq_norm(np.subtract(z_c, mu_c, out=s.rows[0, :, :c]), d2_c)
            np.less(d2_c, np.multiply(limit, var_c, out=s.f0[:c]), out=hit_c)
            # rho is alpha at a match and 0.0 at a miss, keep 1 - rho: the
            # weight step of slot 0, and in fixed-alpha mode its blend too.
            rho = np.multiply(hit_c, p.alpha, out=s.f1[:c])
            keep = np.subtract(1.0, rho, out=s.f2[:c])
            w0_c = w[0, cut]
            w0_c *= keep
            w0_c += rho
            if pdf_mode:
                _pdf_rho(var_c, d2_c, p.alpha, rho, s.f0[:c])
                rho *= hit_c
                np.subtract(1.0, rho, out=keep)
            _blend(mu_c, var_c, z_c, rho, keep, s.rows[0, :, :c], z_c, s.f3[:c])
            # The floor is var_min at a match and 0.0 at a miss, where the
            # max keeps the variance, since variances are always positive.
            np.maximum(var_c, np.multiply(hit_c, p.var_min, out=s.f3[:c]), out=var_c)
        n_miss = np.count_nonzero(np.logical_not(hit0, out=unmatched))

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
            dz = _take_rows(z, rest, s.rows[0])
            dz -= _take(mu_flat, f, s.rows[1], axis=1)
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
        # The gathered update takes the matches at slot 1 and later. unmatched
        # and hit0 never overlap, so they are equal (both False) just there.
        gathered = np.equal(unmatched, hit0, out=s.m1)
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
        to_replace = np.compress(full, iu, out=s.i3[:n_full])
        jt[full] = np.argmin(_take(w, to_replace, s.block, axis=1), axis=0)
        jm[iu] = jt

        # Every pixel decays all its live weights. Dead slots stay 0.0, and
        # an unmatched pixel's replaced slot is overwritten below. Slot 0 of
        # the slot-0 matches decayed in the chunk pass; that of the other
        # pixels, im and iu, side by side in i0, decays here.
        w[1:] *= 1.0 - p.alpha
        missed = s.i0[: m + n_u]
        w_missed = _take(w_flat, missed, s.f0)
        w_missed *= 1.0 - p.alpha
        w_flat[missed] = w_missed

        # Gathered matched pixels: reward the match, pull its mean and
        # variance to z.
        z_m = _take_rows(z, im, s.rows[0])
        w_m = _take(w_flat, fm, s.f1)
        w_m += p.alpha
        w_flat[fm] = w_m
        mu_j = _take(mu_flat, fm, s.rows[1], axis=1)
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
        _put_planes(mu_flat, ft, _take_rows(z, iu, s.rows[0]))
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
        # after them, swapped alongside the ranks for the prefix.
        pos = jm
        multi = np.greater(count, 1, out=s.m1)
        n_multi = np.count_nonzero(multi)
        multi_only = n_multi <= MULTI_SLOT_FRACTION * n
        if multi_only:
            pix = np.compress(multi, s.index, out=s.i3[:n_multi])
            rank = _take(var, pix, s.block, axis=1)
            np.sqrt(rank, out=rank)
            w_multi = _take(w, pix, s.block[k * n_multi :], axis=1)
            np.divide(w_multi, rank, out=rank)
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
                    _swap(w_multi.reshape(-1), fa, fb, s.f0, s.f1)
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
        # sums at or below t; the live count is the fallback. A pixel is
        # foreground where its match sits at or after the prefix. One live
        # slot means a match at slot 0 of a prefix of 1: background.
        if multi_only:
            b = np.ones(n, dtype=np.int64)
            b_multi = _prefix(w_multi, p.t, _take(count, pix, s.i0), s.i1[:n_multi], s.f0, s.m1)
            b[pix] = b_multi
            fg = np.greater_equal(_take(pos, pix, s.i0), b_multi, out=s.m1[:n_multi])
            labels = np.full(n, BACKGROUND, dtype=np.uint8)
            labels[np.compress(fg, pix, out=s.i2[: np.count_nonzero(fg)])] = FOREGROUND
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
    the two (3, n) rows 48, float 32, index 32, mask 3, hit0 1). The rows
    hold a slot-0 chunk's samples and distances, and the gathered samples
    and means, as float planes. hit0 holds the slot-0 matches from the
    chunk pass, which also applies their weight step, to the selection of
    the later-slot matches."""

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


def _take_rows(z: np.ndarray, idx: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The rows z[idx] of the (n, 3) samples as (3, m) float64 planes in
    the leading part of buf. The rows are gathered in z's own dtype, with
    np.take, which is several times faster than z[idx] on uint8 rows, and
    converted as they are copied."""
    out = buf.reshape(-1)[: 3 * idx.size].reshape(3, idx.size)
    np.copyto(out, np.take(z, idx, axis=0, mode="clip").T)
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
