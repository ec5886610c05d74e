"""Vectorized whole-frame mixture engine.

Holds the per-pixel Gaussian mixtures of an entire frame (or a band of
rows) in numpy arrays and advances all of them in one pass per frame.
Per pixel, one step is: decay every weight by (1 - alpha); find the
highest-ranked live component within d sigmas of the sample; if there is
one, add alpha to its weight and blend its mean and variance toward the
sample (the variance against the already-blended mean); if not, put a
fresh (w_init, z, var_init) component in the next free slot or over the
one of lowest decayed weight, and renormalize. Then restore the rank
order and take the shortest prefix whose weights exceed t as background.
The operation order (distance sums, decay before reward and before the
slot choice, summation order, tie-breaking) is fixed: in fixed-alpha
mode the state is bit-identical to a plain per-pixel loop over these
steps, which the tests hold it to. In the pdf-scaled rho mode the state
can differ from such a loop in the last bits, since numpy's power and
exp need not round as the loop's do.

A match blends from the difference its test computed. With diff = z - mu
and keep = 1 - rho, the paper's mu' = (1 - rho) mu + rho z is
mu + rho diff, and since z - mu' = keep diff in exact arithmetic, its
var' = (1 - rho) var + rho |z - mu'|^2 is var keep + |diff|^2 (rho keep)
keep. So each tested slot takes one subtraction and one squared distance,
shared by the test and the blend, and no rho z plane. The rearranged form
rounds differently from the literal one, so the state differs from it in
the last bits; the tests walk the two side by side.

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

State is updated in place, and every slot is tested and updated by one
helper, _match_and_blend, in one operation order, so the state does not
depend on the chunk size. Once it has the match mask, it counts the
matches, once a call. Where every pixel it tests matched, it blends them
with the unmasked rates: rho is the scalar alpha in fixed-alpha mode and
the density rho in pdf mode, the variance floor is the scalar var_min,
and the weight gain it returns is the scalar alpha. Otherwise it blends
every pixel it tests with a per-pixel rho that is zero where the slot
did not match: for finite samples, such as pixel values, mu + 0.0 * diff
and var * 1.0 + |diff|^2 * 0.0 leave those pixels exactly as they were.
The two give the same state bit for bit where every pixel matched, since
True * alpha == alpha, the masked factor (rho * keep) * keep is then the
scalar path's (alpha * keep) * keep, computed in the same order, and
1.0 * var_min == var_min. The masked variance floor is plain arithmetic as
well, not a masked ufunc, which runs about ten times slower on a noisy
mask: a miss is floored at 0.0, which keeps its variance, since
variances are always positive (even a fresh var_init below var_min). The
masked weight gain is hit * alpha, which in fixed-alpha mode is rho
itself. Each chunk first decays its pixels' slots below kl, then runs
the helper on its dense slot-0 rows directly, and adds the gain to the
slot-0 weights, all while the chunk is in cache. The later slots gather
the weights, means and variances of the pixels they test, run the same
helper on them, add the gain to the weights and scatter all three back.
So on every slot a match moves its weight, mean and variance in one
step, and a miss adds 0.0, which keeps its weight, since no weight is
ever -0.0. Every such per-pixel slot read and write goes through flat
indices (slot * n + pixel) into raveled views of the weights, the
variances and each mean plane, one plane at a time, and only for the
pixels concerned; unmatched pixels fill a fresh slot the same way and
renormalize. The masked blend costs the same whether a pixel matched or
not, so a chunk with one miss pays as much as one where most pixels
miss. On the benchmark's seed-1 frames at its parameters, 79% of
vga640's calls take the all-matched blend (724 of its 931 slot-0 chunks
and all 39 later-slot calls), and none of busy160's: its one chunk a
frame always has misses.

The per-pixel rank order is restored by a network of adjacent
compare-exchange steps that swap only on a strictly higher rank, which
keeps ties in their slot order exactly as a stable sort does. A pixel
with one live slot is never swapped, and its background prefix is 1.
So while at most MULTI_SLOT_FRACTION of the pixels have two or more live
slots, as read off live_count each frame, the network and the prefix
run only on those pixels, gathered once by index (their weights are
swapped alongside their ranks), and every other pixel gets b = 1. The
labels then take one comparison over every pixel on either path: a
pixel is foreground where its match sits at or after its prefix, so a
one-slot pixel, which matched slot 0, is background.

Slots beyond a pixel's live count hold weight exactly 0.0 and never
influence sums, matching or the background prefix. So every slot loop of
a frame stops at kl, the highest live count: read off live_count when
observe() starts and raised to the grown counts' maximum after the
fresh-slot step. The weight decay, the later-slot tests, the
renormalization, the rank rows, the compare-exchange network and the
prefix then touch only slots below kl, and the state is what all k slots
give: a dead weight decays from 0.0 to 0.0, adds 0.0 to a live sum,
ranks 0.0, never strictly above a live rank (>= 0.0), so the network
never swaps it, and np.minimum(b, count) caps a prefix count that runs
past the live count. Only the choice of the slot to replace reads all k
weights, and it runs on full pixels, which make kl equal k. The bound
pays while no pixel has all k slots live, as on every frame of a steady
scene; a busy scene fills them within a few frames and gains little.

The live counts, and the positions and prefixes observe() returns, hold
values of at most k, so they are uint8, one byte a pixel, and
ModelParams refuses k > 255. They are gathered into uint8 views of the
mask work buffers, since np.take will not write into an out= of another
dtype. Flat indices (slot * n + pixel) stay int64.

Each FrameModel owns the work buffers of its observe() calls: a float
block, two (3, n) plane buffers, and n-sized float, index and mask
buffers, allocated on the first observe() after the seeding one and
reused for every frame after that, through out= arguments and [:m]
views; the chunked slot-0 pass reuses their leading BLEND_CHUNK columns,
its chunk's sample planes among them, in which the helper forms the
difference planes. Only the gathered sample rows are fresh, in z's own
dtype (3 bytes a gathered pixel of uint8 rows). The reason is memory,
not arithmetic: fresh temporaries for every frame (about 8.8 times 24
bytes a pixel) would be handed back to the system by the C allocator
between frames, and every frame would fault in fresh zeroed pages again
(about 7,400 minor faults a frame at 640x480). The buffers are per
model, never shared, since band models run on threads at once.
Construction and the seeding frame do not touch them. The arrays
observe() returns are fresh and belong to the caller.
"""

from __future__ import annotations

import math

import numpy as np

from .gmm import BACKGROUND, FOREGROUND, GAUSS_NORM_3D, PDF_FAITHFUL, ModelParams

# Pixels per chunk of the weight decay and the slot-0 test and in-place
# blend, so that a chunk's (3, chunk) sample planes and temporaries (384 KiB
# each at 16384) stay in cache. n pixels make max(1, round(n / BLEND_CHUNK))
# chunks, as equal in size as possible. Timed while the chunks decayed only
# slot 0's weights: observe(), mean over the seed-1 frames of each frame's
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
    [channel, slot, pixel]. live_count, the live slots of each pixel, is
    uint8. All of them stay C-contiguous. Slots are kept
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
        self.live_count = np.zeros(n_pixels, dtype=np.uint8)
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
            return labels, np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8)

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
        # Counts and positions are gathered into uint8 views of the mask
        # buffers. kl, the highest live count, bounds every slot loop below
        # (module docstring).
        u0, u2 = s.m0.view(np.uint8), s.m2.view(np.uint8)
        kl = int(count.max())

        # Every weight decays, and slot 0 is live for every started pixel:
        # each chunk decays its pixels' weights and tests and blends slot 0
        # in place while they are in cache (module docstring). Slot 0's
        # matches gain alpha; its misses gain 0.0 and keep their weight.
        # The matches land in unmatched, which is inverted after the pass.
        unmatched = s.m0
        n_chunks = max(1, round(n / BLEND_CHUNK))
        for i in range(n_chunks):
            cut = slice(i * n // n_chunks, (i + 1) * n // n_chunks)
            c = cut.stop - cut.start
            w[:kl, cut] *= 1.0 - p.alpha
            # The chunk's samples as float planes, converted while in cache;
            # the blend forms z - mu in them.
            z_c = s.rows[0, :, :c]
            np.copyto(z_c, z[cut].T)
            hit_c = unmatched[cut]
            mu_c, var_c = self.mean_planes[:, 0, cut], var[0, cut]
            gain = _match_and_blend(mu_c, var_c, z_c, hit_c, p, s.f3[:c], s.f0[:c], s.f1[:c])
            w[0, cut] += gain
        n_miss = np.count_nonzero(np.logical_not(unmatched, out=unmatched))

        # jm is the first matching slot (unused where nothing matched). It
        # becomes the returned pos. Slot j is tested only for pixels that
        # missed slots 0..j-1 and have more than j live slots, on gathered
        # rows: their weights, means and variances are updated as slot 0's
        # are, then scattered back. rest moves between two index buffers,
        # since a compaction cannot write over its own input.
        jm = np.zeros(n, dtype=np.uint8)
        held, spare = s.i0, s.i1
        rest = np.compress(unmatched, s.index, out=held[:n_miss])
        for j in range(1, kl):
            live = np.greater(_take(count, rest, u2), j, out=s.m1[: rest.size])
            r = np.count_nonzero(live)
            if not r:
                break
            held, spare = spare, held
            rest = np.compress(live, rest, out=held[:r])
            f = np.add(rest, j * n, out=s.i2[:r])
            w_j = _take(w_flat, f, s.block)
            mu_j = _take(mu_flat, f, s.rows[1], axis=1)
            var_j = _take(var_flat, f, s.f2)
            hit = s.m1[:r]
            z_j = _take_rows(z, rest, s.rows[0])
            gain = _match_and_blend(mu_j, var_j, z_j, hit, p, s.f3[:r], s.f0[:r], s.f1[:r])
            w_j += gain
            w_flat[f] = w_j
            _put_planes(mu_flat, f, mu_j)
            var_flat[f] = var_j
            n_hit = np.count_nonzero(hit)
            found = np.compress(hit, rest, out=s.i3[:n_hit])
            unmatched[found] = False
            jm[found] = j
            held, spare = spare, held
            rest = np.compress(np.logical_not(hit, out=hit), rest, out=held[: r - n_hit])

        # Unmatched pixels go to the next free slot, else to the one of lowest
        # decayed weight (the first on ties). A pixel that is not full gains
        # the slot, which may raise kl.
        n_u = np.count_nonzero(unmatched)
        iu = np.compress(unmatched, s.index, out=s.i0[:n_u])
        jt = _take(count, iu, u2)
        full = np.equal(jt, k, out=s.m1[:n_u])
        # min(count, k - 1) + 1, which cannot wrap past 255 as count + 1 can.
        grown = np.minimum(jt, k - 1, out=u0[:n_u])
        grown += 1
        count[iu] = grown
        kl = int(grown.max(initial=kl))
        n_full = np.count_nonzero(full)
        to_replace = np.compress(full, iu, out=s.i3[:n_full])
        jt[full] = np.argmin(_take(w, to_replace, s.block, axis=1), axis=0)
        jm[iu] = jt

        # Unmatched pixels: fresh component in the target slot, then
        # renormalize. Dead slots are exactly zero, so the slot-order sum
        # equals the sum over live slots and dividing them leaves zero.
        # Flat indices are int64.
        ft = np.multiply(jt, np.int64(n), out=s.i2[:n_u])
        ft += iu
        w_flat[ft] = p.w_init
        _put_planes(mu_flat, ft, _take_rows(z, iu, s.rows[0]))
        var_flat[ft] = p.var_init
        w_u = _take(w[:kl], iu, s.block, axis=1)
        total = s.f0[:n_u]
        np.copyto(total, w_u[0])
        for j in range(1, kl):
            total += w_u[j]
        w_u /= total
        w[:kl, iu] = w_u

        # Stable sort by rank, highest first: an adjacent compare-exchange
        # (bubble) network that swaps only where the lower slot ranks
        # strictly higher, so equal ranks keep their order, as with
        # list.sort(reverse=True). Dead slots rank 0.0 and sit after every
        # live slot, whose rank is >= 0.0, so they never move up. pos
        # follows the absorbing component through the swaps. While few
        # pixels have two or more live slots, only those are ranked (module
        # docstring): their ranks in block[:kl * n_multi], their weights
        # after them, swapped alongside the ranks for the prefix.
        pos = jm
        multi = np.greater(count, 1, out=s.m1)
        n_multi = np.count_nonzero(multi)
        multi_only = n_multi <= MULTI_SLOT_FRACTION * n
        if multi_only:
            pix = np.compress(multi, s.index, out=s.i3[:n_multi])
            rank = _take(var[:kl], pix, s.block, axis=1)
            np.sqrt(rank, out=rank)
            w_multi = _take(w[:kl], pix, s.block[kl * n_multi :], axis=1)
            np.divide(w_multi, rank, out=rank)
        else:
            rank = np.sqrt(var[:kl], out=s.block[: kl * n].reshape(kl, n))
            np.divide(w[:kl], rank, out=rank)
        size = rank.shape[1]
        rank_flat = rank.reshape(-1)
        for top in range(kl - 1, 0, -1):
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
                pos_sw = _take(pos, sw, u0)
                to_b = np.equal(pos_sw, a, out=s.m1[:n_sw])
                to_a = np.equal(pos_sw, a + 1, out=s.m2[:n_sw])
                pos_sw += to_b
                pos_sw -= to_a
                pos[sw] = pos_sw

        # Background prefix: the first slot whose running weight sum exceeds
        # t. The sum never falls, so that slot's index is the number of
        # sums at or below t; the live count is the fallback. One live slot
        # means a match at slot 0 of a prefix of 1.
        if multi_only:
            b = np.ones(n, dtype=np.uint8)
            b[pix] = _prefix(w_multi, p.t, _take(count, pix, u0), u2[:n_multi], s.f0, s.m1)
        else:
            b = _prefix(w[:kl], p.t, count, np.empty(n, dtype=np.uint8), s.f0, s.m1)
        # A pixel is foreground where its match sits at or after the prefix;
        # BACKGROUND is 0. The uint8 scalar keeps the labels uint8.
        labels = np.multiply(np.greater_equal(pos, b, out=s.m1), np.uint8(FOREGROUND))
        return labels, pos, b


class _Scratch:
    """Work buffers of one FrameModel's observe(), each sized for all n
    pixels; a step over m pixels uses [:m] views. Steps that do not overlap
    share a buffer, so the set is smaller than the temporaries a frame
    allocated without it: 123 + 8k bytes a pixel, 147 at k = 3 (index 8,
    block 8k, the two (3, n) rows 48, float 32, index 32, mask 3). The rows
    hold, as float planes, the samples of a slot-0 chunk or of the pixels a
    later slot tests, which its blend turns in place into z - mu and then
    rho (z - mu), and that slot's gathered means. m0 holds the pixels that
    no slot has matched yet."""

    def __init__(self, k: int, n: int):
        self.index = np.arange(n)
        # The gathered weights of a later slot, of the slot choice and of
        # the renormalization, and the ranks: (k, n) of every pixel, or
        # (k, m) of the m <= n/2 multi-slot pixels followed by their weights.
        self.block = np.empty(k * n)
        self.rows = np.empty((2, 3, n))
        self.f0, self.f1, self.f2, self.f3 = np.empty((4, n))
        self.i0, self.i1, self.i2, self.i3 = np.empty((4, n), dtype=np.int64)
        self.m0, self.m1, self.m2 = np.empty((3, n), dtype=bool)


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
    np.add(np.less_equal(running, t, out=mask[:m]), np.uint8(1), out=b)
    for j in range(1, len(w)):
        running += w[j]
        b += np.less_equal(running, t, out=mask[:m])
    return np.minimum(b, count, out=b)


def _match_and_blend(
    mu: np.ndarray,
    var: np.ndarray,
    z: np.ndarray,
    hit: np.ndarray,
    p: ModelParams,
    d2: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
) -> np.ndarray | float:
    """Test the (3, m) sample planes z against one slot's (3, m) mean planes
    mu and (m,) variances var, blend the matches in place, and return the
    slot's weight gain: alpha where it matched, 0.0 elsewhere.

    hit becomes the match mask: d2 < d^2 var, with diff = z - mu and d2 =
    |diff|^2 summed in channel order. A match pulls mu and var toward z by
    rho, from the same diff and d2: mu + rho diff, then var keep + d2 (rho
    keep) keep with keep = 1 - rho, floored at var_min. That is the paper's
    (1 - rho) mu + rho z, then (1 - rho) var + rho |z - mu|^2 against the
    new mean, since z - mu then equals keep diff (module docstring). rho is
    alpha, or in pdf mode alpha times the slot's density at z, clipped to
    [0, 1]. Where every pixel matched, rho, the floor and the gain are the
    unmasked values, scalars in fixed-alpha mode; otherwise a miss gets rho
    0.0 and floor 0.0, which keep its mean and variance (module docstring).
    z is a work buffer as well: diff is formed in it, over the samples. d2,
    fa and fb are work buffers of var's shape.
    """
    diff = np.subtract(z, mu, out=z)
    np.multiply(diff[0], diff[0], out=d2)
    for row in diff[1:]:
        d2 += np.multiply(row, row, out=fb)
    np.less(d2, np.multiply(p.d * p.d, var, out=fa), out=hit)
    every = np.count_nonzero(hit) == hit.size
    if p.rho_mode == PDF_FAITHFUL:
        # alpha * GAUSS_NORM_3D * var**-1.5 * exp(-(d2 / (2 var))) in this
        # order, clipped, then zeroed at the misses, if any. d2 is kept.
        rho = np.power(var, -1.5, out=fa)
        rho *= GAUSS_NORM_3D
        expo = np.divide(d2, np.multiply(2.0, var, out=fb), out=fb)
        rho *= np.exp(np.negative(expo, out=expo), out=expo)
        rho *= p.alpha
        np.clip(rho, 0.0, 1.0, out=rho)
        if not every:
            rho *= hit
        keep = np.subtract(1.0, rho, out=fb)
    elif every:
        rho, keep = p.alpha, 1.0 - p.alpha
    else:
        rho = np.multiply(hit, p.alpha, out=fa)
        keep = np.subtract(1.0, rho, out=fb)
    diff *= rho
    mu += diff
    if isinstance(rho, float):
        d2 *= rho * keep * keep
    else:
        # (rho * keep) * keep, in diff[0], which mu no longer needs.
        d2 *= np.multiply(np.multiply(rho, keep, out=diff[0]), keep, out=diff[0])
    var *= keep
    var += d2
    if every:
        np.maximum(var, p.var_min, out=var)
        return p.alpha
    np.maximum(var, np.multiply(hit, p.var_min, out=d2), out=var)
    if p.rho_mode == PDF_FAITHFUL:
        return np.multiply(hit, p.alpha, out=fb)
    # rho is hit * alpha.
    return rho
