"""Vectorized engine vs the per-pixel oracle in tests/oracles.py, plus its
own edge cases."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from oracles import oracle_init, oracle_step
from pixel_states import load_states, oracle_params_of

import bgsub.frame_model
from bgsub.frame_model import BLEND_CHUNK, MULTI_SLOT_FRACTION, FrameModel, _Scratch
from bgsub.gmm import BACKGROUND, FIXED_ALPHA, FOREGROUND, PDF_FAITHFUL, ModelParams

# The streams below are described by how many pixels of a frame, or of a
# chunk of one, miss slot 0: few when at most this fraction of them do,
# many otherwise. Few misses leave the later slots little to test.
FEW_MISSES = 0.2


def _frame_stream(rng, n_pixels, n_frames):
    """Pixel streams that hit match, append, replacement and mode flips."""
    frames = []
    modes = rng.uniform(0.0, 255.0, (3, n_pixels, 3))
    for _ in range(n_frames):
        pick = rng.integers(0, 3, n_pixels)
        z = modes[pick, np.arange(n_pixels)] + rng.normal(0.0, 3.0, (n_pixels, 3))
        wild = rng.random(n_pixels) < 0.1
        z[wild] = rng.uniform(0.0, 255.0, (int(wild.sum()), 3))
        frames.append(np.clip(z, 0.0, 255.0))
    return frames


def _oracle_state(states):
    """Oracle pixel states as zero-padded (slot, pixel) arrays."""
    k = max(len(comps) for comps in states)
    n = len(states)
    weights = np.zeros((k, n))
    mean_planes = np.zeros((3, k, n))
    variances = np.zeros((k, n))
    for j, comps in enumerate(states):
        for i, c in enumerate(comps):
            weights[i, j] = c["w"]
            mean_planes[:, i, j] = c["m"]
            variances[i, j] = c["v"]
    return weights, mean_planes, variances


def _static_stream(rng, n_pixels, n_frames, busy=()):
    """Pixel streams that stay on their first mode on at least 90% of
    pixels, so FrameModel tests later slots on few gathered rows. Frames
    whose index is in busy draw every mode alike instead, so most pixels
    miss slot 0."""
    frames = []
    modes = rng.uniform(0.0, 255.0, (3, n_pixels, 3))
    for f_idx in range(n_frames):
        if f_idx in busy:
            pick = rng.integers(0, 3, n_pixels)
        else:
            # The seed frame is all first mode; later ones mostly so.
            u = rng.random(n_pixels) * (f_idx > 0)
            pick = (u > 0.98).astype(int) + (u > 0.993)
        z = modes[pick, np.arange(n_pixels)] + rng.normal(0.0, 3.0, (n_pixels, 3))
        frames.append(np.clip(z, 0.0, 255.0))
    return frames


def _patchy_stream(rng, n_pixels, n_frames):
    """Pixel streams that stay on their first mode on at least 99.5% of
    pixels, except on a run of 10-59 pixels (60-109 on every fifth frame)
    that moves 2 pixels a frame and draws every mode alike. So one frame
    holds stretches with few and with many slot-0 misses, and the share of
    pixels with two or more live slots grows with the area the run has
    touched, from about 0.1 to past 0.5 in 20 frames."""
    frames = []
    modes = rng.uniform(0.0, 255.0, (3, n_pixels, 3))
    for f_idx in range(n_frames):
        u = rng.random(n_pixels) * (f_idx > 0)
        pick = (u > 0.995).astype(int) + (u > 0.998)
        if f_idx:
            width = rng.integers(60, 110) if f_idx % 5 == 0 else rng.integers(10, 60)
            run = np.arange(2 * f_idx, 2 * f_idx + width) % n_pixels
            pick[run] = rng.integers(0, 3, width)
        z = modes[pick, np.arange(n_pixels)] + rng.normal(0.0, 3.0, (n_pixels, 3))
        frames.append(np.clip(z, 0.0, 255.0))
    return frames


def _band_views(frames, before=7, after=5):
    """The (n, 3) frames as views of a band of wider (3, N) channel planes,
    neither C- nor F-contiguous. The planes are NaN outside the band, so a
    read past it would show in the state."""
    n = len(frames[0])
    views = []
    for z in frames:
        planes = np.full((3, before + n + after), np.nan)
        planes[:, before : before + n] = z.T
        view = planes[:, before : before + n].T
        assert not (view.flags.c_contiguous or view.flags.f_contiguous)
        views.append(view)
    return views


def _first_match(fm, z):
    """Each pixel's first live slot that matches z, or -1, computed as
    observe() does, before the call."""
    diff = z.T[:, None] - fm.mean_planes
    diff *= diff
    d2 = diff[0] + diff[1] + diff[2]
    limit = fm.params.d * fm.params.d
    matched = (d2 < limit * fm.variances) & (np.arange(fm.params.k)[:, None] < fm.live_count)
    return np.where(matched.any(axis=0), matched.argmax(axis=0), -1)


def _check_against_oracle(p, frames, exact):
    """Run FrameModel and oracle_step on every pixel side by side, each
    frame checked by _step_both. Returns each pixel's first matching slot
    (-1 for none), one row per frame after the seed."""
    op = oracle_params_of(p)
    fm = FrameModel(p, len(frames[0]))
    labels, _, _ = fm.observe(frames[0])
    assert np.all(labels == BACKGROUND)
    states = [oracle_init(z.tolist(), op) for z in frames[0]]
    first = []
    for f_idx, z in enumerate(frames[1:], 1):
        first.append(_first_match(fm, z))
        states, (labels, pos, b) = _step_both(fm, states, z, op, exact, f_idx)
        # The unmasked variance floor and slot-0 weight step keep a miss's
        # state only while variances are positive and no weight is -0.0.
        assert np.all(fm.variances > 0.0), f"frame {f_idx}"
        assert not np.any(np.signbit(fm.weights)), f"frame {f_idx}"
        # observe() may label only the multi-slot pixels: a pixel left with
        # one live slot matched slot 0, the whole prefix.
        one = fm.live_count == 1
        assert np.all(labels[one] == BACKGROUND), f"frame {f_idx}"
        assert np.all(pos[one] == 0) and np.all(b[one] == 1), f"frame {f_idx}"
    return np.array(first)


def _step_both(fm, states, z, op, exact, f_idx):
    """One observe() of fm and one oracle_step per pixel state. Outputs and
    live counts must agree exactly, and so must the state when exact, else
    to rtol 1e-12; dead slots must keep weight 0.0. Returns the oracle's
    new states and what observe() returned: labels, pos and b."""
    labels, pos, b = fm.observe(z)
    steps = [oracle_step(states[j], z[j].tolist(), op) for j in range(len(states))]
    states = [step[0] for step in steps]
    want = np.array([step[1:] for step in steps])
    assert np.array_equal(np.stack([labels, pos, b], axis=1), want), f"frame {f_idx}"
    live = np.array([len(comps) for comps in states])
    assert np.array_equal(fm.live_count, live)
    sw, sm, sv = _oracle_state(states)
    kk = sw.shape[0]
    in_use = np.arange(kk)[:, None] < live
    assert np.all(fm.weights[kk:] == 0.0) and np.all(fm.weights[:kk][~in_use] == 0.0)
    for got, expect in ((fm.weights, sw), (fm.mean_planes, sm), (fm.variances, sv)):
        got = got[..., :kk, :][..., in_use]
        if exact:
            # bit-for-bit: same operation order on both paths
            assert np.array_equal(got, expect[..., in_use]), f"frame {f_idx}"
        else:
            np.testing.assert_allclose(got, expect[..., in_use], rtol=1e-12)
    return states, (labels, pos, b)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_equivalence_fixed_alpha_is_exact(k):
    p = ModelParams(k=k, alpha=0.03, rho_mode=FIXED_ALPHA)
    _check_against_oracle(p, _frame_stream(np.random.default_rng(21), 48, 120), exact=True)


@pytest.mark.parametrize("rho_mode", [FIXED_ALPHA, PDF_FAITHFUL])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_equivalence_mostly_static_stream(k, rho_mode):
    p = ModelParams(k=k, alpha=0.03, rho_mode=rho_mode)
    frames = _static_stream(np.random.default_rng(31), 200, 60)
    first = _check_against_oracle(p, frames, exact=rho_mode == FIXED_ALPHA)
    # Every frame has few misses, and each later slot that the three modes
    # can fill does match.
    assert np.all((first != 0).mean(axis=1) <= FEW_MISSES)
    assert np.unique(first[first > 0]).tolist() == list(range(1, min(k, 3)))


@pytest.mark.parametrize("rho_mode", [FIXED_ALPHA, PDF_FAITHFUL])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_equivalence_switching_sparse_and_crowded(k, rho_mode):
    p = ModelParams(k=k, alpha=0.03, rho_mode=rho_mode)
    busy = {5, 6, 17, 30, 31, 32, 45}
    frames = _static_stream(np.random.default_rng(32), 200, 60, busy)
    first = _check_against_oracle(p, frames, exact=rho_mode == FIXED_ALPHA)
    few = (first != 0).mean(axis=1) <= FEW_MISSES
    # The one chunk switches often, both ways, between few and many misses.
    assert np.count_nonzero(np.diff(few.astype(int))) >= 6
    assert not any(few[f - 1] for f in busy)
    if k > 2:
        # Busy frames test the later slots on many gathered rows, down to
        # slot 2 and beyond.
        deep = [f for f in sorted(busy) if np.any(first[f - 1] >= 2)]
        assert len(deep) >= 5, deep


def _chunk_paths(monkeypatch, p, frames):
    """Run FrameModel over frames; for each frame after the seed, return
    the starts of the chunks whose slot 0 observe() matched and blended in
    place, the starts of the chunks with few misses, the starts of those
    where every pixel matched slot 0, whether the frame has few misses,
    the share of pixels with two or more live slots after the frame, and
    how many pixels the background prefix covered."""
    n = len(frames[0])
    fm = FrameModel(p, n)
    fm.observe(frames[0])
    match_and_blend, prefix = bgsub.frame_model._match_and_blend, bgsub.frame_model._prefix
    chunks, widths = [], []

    def spy(mu, var, z, hit, *args):
        gain = match_and_blend(mu, var, z, hit, *args)
        # Where every pixel matched, the blend runs on scalar rates and
        # the weight gain is the scalar alpha.
        every = bool(np.all(hit))
        assert (np.ndim(gain) == 0) == every
        # Slot 0 is matched and blended on slices of the model's own mean
        # planes, the later slots on gathered copies; a slice's byte offset
        # over the pixel stride is its first pixel.
        if np.may_share_memory(mu, fm.mean_planes):
            offset = mu.ctypes.data - fm.mean_planes.ctypes.data
            chunks.append((offset // fm.mean_planes.strides[2], every))
        return gain

    def prefix_spy(w, *args):
        widths.append(w.shape[1])
        return prefix(w, *args)

    monkeypatch.setattr(bgsub.frame_model, "_match_and_blend", spy)
    monkeypatch.setattr(bgsub.frame_model, "_prefix", prefix_spy)
    n_chunks = max(1, round(n / bgsub.frame_model.BLEND_CHUNK))
    bounds = [i * n // n_chunks for i in range(n_chunks + 1)]
    runs = []
    for z in frames[1:]:
        chunks.clear()
        widths.clear()
        miss = _first_match(fm, z) != 0
        few = [a for a, b in zip(bounds, bounds[1:]) if miss[a:b].mean() <= FEW_MISSES]
        matched = [a for a, b in zip(bounds, bounds[1:]) if not miss[a:b].any()]
        fm.observe(z)
        assert [a for a, every in chunks if every] == matched
        share = np.count_nonzero(fm.live_count > 1) / n
        starts = [a for a, _ in chunks]
        runs.append((starts, few, matched, miss.mean() <= FEW_MISSES, share, widths[0]))
    return runs


@pytest.mark.parametrize("rho_mode", [FIXED_ALPHA, PDF_FAITHFUL])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_equivalence_chunks_in_place_and_gathered(monkeypatch, k, rho_mode):
    # 37 does not divide 200: five chunks of 40. Every chunk matches and
    # blends slot 0 in place on every frame, chunks with few and with many
    # misses side by side, on frames with few and with many misses, while
    # the share of pixels with two or more live slots rises through
    # MULTI_SLOT_FRACTION.
    monkeypatch.setattr(bgsub.frame_model, "BLEND_CHUNK", 37)
    p = ModelParams(k=k, alpha=0.03, rho_mode=rho_mode)
    frames = _patchy_stream(np.random.default_rng(51), 200, 60)
    _check_against_oracle(p, frames, exact=rho_mode == FIXED_ALPHA)
    runs = _chunk_paths(monkeypatch, p, frames)
    assert all(starts == [0, 40, 80, 120, 160] for starts, _, _, _, _, _ in runs)
    mixed = [few_frame for _, few, _, few_frame, _, _ in runs if 0 < len(few) < 5]
    assert mixed.count(True) >= 20 and mixed.count(False) >= 5
    # On most frames, chunks where every pixel matched slot 0, which blend
    # on scalar rates, run beside chunks with misses, which blend masked.
    both = [matched for _, _, matched, _, _, _ in runs if 0 < len(matched) < 5]
    assert len(both) >= 50
    # The prefix covers just the multi-slot pixels while they are few
    # enough, and every pixel after that.
    n = len(frames[0])
    for _, _, _, _, share, width in runs:
        assert width == (round(share * n) if share <= MULTI_SLOT_FRACTION else n)
    if k > 1:
        multi_only = [share <= MULTI_SLOT_FRACTION for _, _, _, _, share, _ in runs]
        assert multi_only[:8] == [True] * 8 and not any(multi_only[12:])


@pytest.mark.parametrize("rho_mode", [FIXED_ALPHA, PDF_FAITHFUL])
@pytest.mark.parametrize("k", [1, 3])
def test_path_choice_keeps_state(monkeypatch, k, rho_mode):
    # The chunk size and which pixels the sort and prefix cover are choices
    # of speed alone: forcing each either way must give the same run, bit
    # for bit. Up to frame 15 at most half the pixels have two or more
    # live slots, so MULTI_SLOT_FRACTION = 0.5 sorts only those on every
    # frame, and -1.0 every pixel. Nor may the run depend on the layout of
    # z: C-contiguous rows and band views of channel planes must give the
    # same run.
    p = ModelParams(k=k, alpha=0.03, rho_mode=rho_mode)
    frames = _patchy_stream(np.random.default_rng(51), 200, 16)
    want = _run_alone(p, frames)
    live_count = want[1][3]
    assert np.count_nonzero(live_count > 1) <= len(live_count) / 2
    forms = (frames, _band_views(frames))
    for chunk, multi, form in itertools.product((1, 200), (-1.0, 0.5), forms):
        monkeypatch.setattr(bgsub.frame_model, "BLEND_CHUNK", chunk)
        monkeypatch.setattr(bgsub.frame_model, "MULTI_SLOT_FRACTION", multi)
        fm = FrameModel(p, len(frames[0]))
        outs = [fm.observe(z) for z in form]
        _assert_same_run(fm, outs, want)


@pytest.mark.parametrize("rho_mode", [FIXED_ALPHA, PDF_FAITHFUL])
@pytest.mark.parametrize("k", [1, 3])
def test_uint8_rows_give_the_float_run(monkeypatch, k, rho_mode):
    # FramePipeline hands each band model the frame's own uint8 rows. observe
    # converts each slot-0 chunk's rows into float64 planes, and the later
    # slots' match-and-blend and the fresh-slot fill gather uint8 rows and
    # convert those; uint8 converts to float64 exactly, so the run equals
    # the one on the same values as float rows, bit for bit. The patchy
    # stream reaches both gathers. Chunks of 1 and 37 pixels
    # make many chunks, and the rows also come as a view into wider rows,
    # neither C- nor F-contiguous.
    p = ModelParams(k=k, alpha=0.03, rho_mode=rho_mode)
    stream = _patchy_stream(np.random.default_rng(52), 200, 16)
    rows = [np.rint(z).astype(np.uint8) for z in stream]
    want = _run_alone(p, [z.astype(np.float64) for z in rows])
    views = []
    for z in rows:
        wide = np.full((len(z), 6), 255, dtype=np.uint8)
        wide[:, 1:4] = z
        view = wide[:, 1:4]
        assert not (view.flags.c_contiguous or view.flags.f_contiguous)
        views.append(view)
    for chunk, form in itertools.product((1, 37, BLEND_CHUNK), (rows, views)):
        monkeypatch.setattr(bgsub.frame_model, "BLEND_CHUNK", chunk)
        fm = FrameModel(p, len(rows[0]))
        outs = [fm.observe(z) for z in form]
        _assert_same_run(fm, outs, want)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_work_buffers_do_not_grow(k):
    # The gathered sort keeps its ranks and weights in the float block, each
    # slot-0 chunk converts its samples into the plane buffers, and the
    # blend forms z - mu in those samples, so the work buffers stay within
    # 123 + 8k bytes a pixel (index 8, block 8k, rows 48, float 32, index
    # 32, masks 3), with no float64 copy of the frame. The state holds
    # 40k + 1 bytes a pixel: float64 weights, means and variances and a
    # one-byte live count. The labels, positions and prefixes it returns
    # are one byte a pixel as well, on the seeding frame, the
    # multi-slot-only path and the every-pixel one.
    n = 1000
    total = sum(a.nbytes for a in vars(_Scratch(k, n)).values())
    assert total <= (123 + 8 * k) * n
    fm = FrameModel(ModelParams(k=k), n)
    frames = [np.full((n, 3), 100.0)] * 2 + [np.full((n, 3), 200.0)]
    for z in frames:
        labels, pos, b = fm.observe(z)
        assert labels.dtype == pos.dtype == b.dtype == np.uint8
    assert np.all(fm.live_count == min(k, 2))
    state = (fm.weights, fm.mean_planes, fm.variances, fm.live_count)
    assert sum(a.nbytes for a in state) == (40 * k + 1) * n


@pytest.mark.parametrize("rho_mode", [FIXED_ALPHA, PDF_FAITHFUL])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_variance_floor_spares_unmatched_slot_0(k, rho_mode):
    # var_init below var_min: slot 0 is fresh (var_init) after the seeding
    # frame and after a replacement at k = 1, so pixels that miss it keep
    # a slot-0 variance under the floor that must not be raised, while
    # their neighbours that match slot 0 are floored in place. In the
    # first stream, 12% of the pixels jump far from their seed value on
    # frame 1; the second has frames where most pixels miss.
    p = ModelParams(k=k, alpha=0.03, var_init=100.0, var_min=150.0, rho_mode=rho_mode)
    rng = np.random.default_rng(33)
    frames = _static_stream(rng, 200, 40)
    jump = rng.random(200) < 0.12
    z = frames[1][jump]
    frames[1][jump] = np.where(z < 128.0, z + 80.0, z - 80.0)
    busy = _static_stream(rng, 200, 40, busy={1, 2, 9, 21, 22})
    for stream, few in ((frames, True), (busy, False)):
        first = _check_against_oracle(p, stream, exact=rho_mode == FIXED_ALPHA)
        assert np.all((first != 0).mean(axis=1) <= FEW_MISSES) == few
        fm = FrameModel(p, len(stream[0]))
        fm.observe(stream[0])
        low_misses = 0
        for z in stream[1:]:
            low_misses += np.count_nonzero((_first_match(fm, z) != 0) & (fm.variances[0] < p.var_min))
            fm.observe(z)
        assert low_misses >= (20 if few else 100)
        if k > 1:
            assert np.count_nonzero(first > 0) >= 20


@pytest.mark.parametrize("busy", [False, True])
def test_samples_are_only_read(busy):
    # observe() may not write into z, on frames with few misses or with
    # many: a read-only z must give the same run as a writable one.
    rng = np.random.default_rng(44)
    n = 300
    frames = _frame_stream(rng, n, 8) if busy else _static_stream(rng, n, 8)
    for rho_mode in (FIXED_ALPHA, PDF_FAITHFUL):
        p = ModelParams(k=3, alpha=0.3, rho_mode=rho_mode)
        want = _run_alone(p, [z.copy() for z in frames])
        fm = FrameModel(p, n)
        outs = []
        for f_idx, z in enumerate(frames):
            if f_idx == 3:
                misses = (_first_match(fm, z) != 0).mean()
                assert (misses > FEW_MISSES) == busy
            z = z.copy()
            z.flags.writeable = False
            outs.append(fm.observe(z))
        _assert_same_run(fm, outs, want)


@pytest.mark.parametrize("n_still", [19, 0])
def test_dead_slot_is_never_matched(n_still):
    # Slot 1 is dead: mean 0 and variance var_init = 225, so (5, 5, 5) lies
    # well inside its match radius. The pixel must open a new component
    # there instead. With 19 still pixels beside it only 1 in 20 misses
    # slot 0; alone, it is all of them.
    p = ModelParams(k=3)
    still = np.full((n_still, 3), 100.0)
    fm = FrameModel(p, n_still + 1)
    fm.observe(np.vstack([still, [(200.0, 200.0, 200.0)]]))
    assert fm.mean_planes[:, 1, -1].tolist() == [0.0, 0.0, 0.0] and fm.variances[1, -1] == 225.0
    labels, pos, b = fm.observe(np.vstack([still, [(5.0, 5.0, 5.0)]]))
    assert fm.live_count[-1] == 2
    assert labels[-1] == FOREGROUND and pos[-1] == 1
    assert fm.mean_planes[:, 1, -1].tolist() == [5.0, 5.0, 5.0]
    assert fm.variances[1, -1] == p.var_init
    op = oracle_params_of(p)
    comps, o_label, o_pos, o_b = oracle_step(oracle_init([200.0] * 3, op), [5.0] * 3, op)
    assert (labels[-1], pos[-1], b[-1]) == (o_label, o_pos, o_b)
    assert [c["w"] for c in comps] == fm.weights[:2, -1].tolist()


def test_equal_ranks_keep_slot_order():
    # alpha 0.5 keeps every product exact, so the ties below are exact.
    p = ModelParams(k=3, alpha=0.5, var_min=1.0, rho_mode=FIXED_ALPHA)
    op = oracle_params_of(p)
    far = (250.0, 250.0, 250.0)

    def comps(*specs):
        return [{"w": w, "m": list(m), "v": v} for w, m, v in specs]

    def states():
        return [
            # z matches slot 2, whose new rank 0.625 / 4 ties slot 1's
            # 0.15625 / 1: it must stay behind slot 1.
            comps((0.4375, (50.0,) * 3, 1.0), (0.3125, (0.0,) * 3, 1.0), (0.25, (100.0,) * 3, 16.0)),
            # z matches slot 1, whose new rank 0.625 / 4 ties slot 0's
            # 0.3125 / 2: it must stay behind slot 0.
            comps((0.625, (50.0,) * 3, 4.0), (0.25, (100.0,) * 3, 16.0), (0.125, (0.0,) * 3, 16.0)),
            # Two equal live slots, z appended after them.
            comps((0.5, (50.0,) * 3, 16.0), (0.5, (100.0,) * 3, 16.0)),
            # Equal lowest weights: the first of them is replaced.
            comps((0.5, (50.0,) * 3, 16.0), (0.25, (100.0,) * 3, 16.0), (0.25, (0.0,) * 3, 16.0)),
        ]

    z = np.array([(108.0, 100.0, 100.0), (108.0, 100.0, 100.0), far, far])
    n = len(z)
    fm = FrameModel(p, n)
    load_states(fm, states())
    labels, pos, b = fm.observe(z)

    for j, comps_j in enumerate(states()):
        comps_j, o_label, o_pos, o_b = oracle_step(comps_j, z[j].tolist(), op)
        assert (labels[j], pos[j], b[j]) == (o_label, o_pos, o_b)
        assert fm.live_count[j] == len(comps_j)
        for i, c in enumerate(comps_j):
            assert fm.weights[i, j] == c["w"]
            assert fm.mean_planes[:, i, j].tolist() == c["m"]
            assert fm.variances[i, j] == c["v"]
    rank = fm.weights / np.sqrt(fm.variances)
    assert rank[1, 0] == rank[2, 0] and pos[0] == 2
    assert rank[0, 1] == rank[1, 1] and pos[1] == 1
    assert rank[0, 2] == rank[1, 2]
    assert sorted(tuple(m) for m in fm.mean_planes[:, :, 3].T) == [(0.0,) * 3, (50.0,) * 3, far]


@pytest.mark.parametrize("k", [2, 3])
def test_multi_slot_sort_carries_weights_to_prefix(k):
    # A third of the pixels have two live slots, so observe() ranks and
    # sums the prefix over those alone. Pixels 0 and 2 match slot 1, which
    # then outweighs slot 0 and swaps ahead of it: their prefix must sum
    # the sorted weights, 0.532 > t at once, not the order before the sort
    # (0.468 <= t). Pixel 1 matches slot 1 behind a heavy slot 0 and is
    # foreground.
    p = ModelParams(k=k, alpha=0.1, t=0.5, rho_mode=FIXED_ALPHA)
    op = oracle_params_of(p)

    def comps(*specs):
        return [{"w": w, "m": [m] * 3, "v": 36.0} for w, m in specs]

    pair, heavy = ((0.52, 50.0), (0.48, 100.0)), ((0.8, 50.0), (0.2, 100.0))
    states = [comps(*specs) for specs in [pair, heavy, pair] + [((1.0, 100.0),)] * 6]
    fm = FrameModel(p, len(states))
    load_states(fm, states)
    z = np.full((len(states), 3), 100.0)
    _, (labels, pos, b) = _step_both(fm, states, z, op, True, 1)
    assert np.count_nonzero(fm.live_count > 1) <= MULTI_SLOT_FRACTION * len(states)
    assert pos.tolist() == [0, 1, 0] + [0] * 6
    assert b.tolist() == [1] * 9
    assert labels.tolist() == [BACKGROUND, FOREGROUND] + [BACKGROUND] * 7


@pytest.mark.parametrize("k", [2, 3, 5])
def test_loaded_states_after_work_buffers_exist(k):
    # live_count is public, and load_states writes it. A model that has
    # made its work buffers (on its second observe) must then rank every
    # pixel that the write gave two or more live slots.
    p = ModelParams(k=k, alpha=0.03, rho_mode=FIXED_ALPHA)
    op = oracle_params_of(p)
    n = 4
    fm = FrameModel(p, n)
    for _ in range(2):
        fm.observe(np.full((n, 3), 100.0))
    # 2 or k components of equal variance, ranked by their exact weights
    # 1/2, 1/4, ..., with the last two equal.
    states = []
    for j in range(n):
        c = (2, k)[j % 2]
        w = [0.5 ** (i + 1) for i in range(c - 1)]
        w.append(w[-1])
        states.append([{"w": w[i], "m": [40.0 * i + 20.0] * 3, "v": 36.0} for i in range(c)])
    load_states(fm, states)
    rng = np.random.default_rng(61)
    deep = 0
    for f_idx in range(12):
        # Each pixel draws near one of its components, or far from all.
        pick = rng.integers(0, 6, n)
        z = np.where(pick[:, None] < 5, 40.0 * pick[:, None] + 20.0, 250.0)
        z = z + rng.normal(0.0, 2.0, (n, 3))
        states, (_, pos, _) = _step_both(fm, states, z, op, True, f_idx)
        deep += np.count_nonzero(pos > 0)
    assert deep >= 10


def test_equivalence_pdf_mode_near_exact():
    p = ModelParams(alpha=0.03, rho_mode=PDF_FAITHFUL)
    _check_against_oracle(p, _frame_stream(np.random.default_rng(22), 32, 80), exact=False)


def test_first_observation_bootstraps_background():
    p = ModelParams()
    fm = FrameModel(p, 6)
    z = np.arange(18, dtype=np.float64).reshape(6, 3)
    labels, pos, b = fm.observe(z)
    assert np.all(labels == BACKGROUND)
    assert np.all(pos == 0)
    assert np.all(b == 1)
    assert np.all(fm.live_count == 1)
    assert np.array_equal(fm.mean_planes[:, 0], z.T)
    assert np.all(fm.weights[0] == 1.0)
    assert np.all(fm.variances[0] == p.var_init)


def test_dead_slots_stay_zero():
    p = ModelParams(k=3)
    fm = FrameModel(p, 5)
    rng = np.random.default_rng(3)
    fm.observe(rng.uniform(0, 255, (5, 3)))
    for _ in range(30):
        fm.observe(rng.normal(128.0, 2.0, (5, 3)))
    live = fm.live_count
    for j in range(5):
        assert np.all(fm.weights[live[j] :, j] == 0.0)


def test_weight_sum_and_variance_floor():
    p = ModelParams(alpha=0.05)
    fm = FrameModel(p, 40)
    rng = np.random.default_rng(4)
    fm.observe(rng.uniform(0, 255, (40, 3)))
    for _ in range(120):
        z = rng.normal(100.0, 30.0, (40, 3))
        fm.observe(np.clip(z, 0, 255))
        live = fm.live_count
        sums = np.array(
            [fm.weights[: live[j], j].sum() for j in range(40)]
        )
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        for j in range(40):
            assert np.all(fm.variances[: live[j], j] >= p.var_min)


def test_shape_validation():
    fm = FrameModel(ModelParams(), 10)
    with pytest.raises(ValueError):
        fm.observe(np.zeros((9, 3)))
    with pytest.raises(ValueError):
        FrameModel(ModelParams(), 0)


def _state(fm):
    return [a.copy() for a in (fm.weights, fm.mean_planes, fm.variances, fm.live_count)]


@pytest.mark.parametrize("busy", [False, True])
def test_results_stay_caller_owned(busy):
    # observe() works in buffers it keeps between frames; what it returns
    # must not be one of them, on frames with few misses or with many.
    rng = np.random.default_rng(41)
    n = 300
    frames = _frame_stream(rng, n, 8) if busy else _static_stream(rng, n, 8)
    fm = FrameModel(ModelParams(k=3, alpha=0.3), n)
    for z in frames[:3]:
        fm.observe(z)
    misses = (_first_match(fm, frames[3]) != 0).mean()
    assert (misses > FEW_MISSES) == busy
    kept = fm.observe(frames[3])
    copies = [a.copy() for a in kept]
    later = [a for z in frames[4:6] for a in fm.observe(z)]
    for got, want in zip(kept, copies):
        assert np.array_equal(got, want)
    state = [fm.weights, fm.mean_planes, fm.variances, fm.live_count]
    for a in kept:
        assert not any(np.shares_memory(a, other) for other in later + state)


def _run_alone(p, frames):
    fm = FrameModel(p, len(frames[0]))
    outs = [fm.observe(z) for z in frames]
    return outs, _state(fm)


def _assert_same_run(fm, outs, want):
    want_outs, want_state = want
    for got, expect in zip(outs, want_outs):
        assert all(np.array_equal(g, e) for g, e in zip(got, expect))
    assert all(np.array_equal(g, e) for g, e in zip(_state(fm), want_state))


@pytest.mark.parametrize("rho_mode", [FIXED_ALPHA, PDF_FAITHFUL])
@pytest.mark.parametrize("k", [3, 5])
def test_models_share_no_buffers(k, rho_mode):
    # No two models may share work buffers. Two models of different sizes,
    # stepped in turn, must end as each does when stepped alone; so must
    # four, two of each size, that run on threads at once, as band models
    # do with workers > 1.
    p = ModelParams(k=k, alpha=0.03, rho_mode=rho_mode)
    rng = np.random.default_rng(43)
    streams = [_frame_stream(rng, 90, 30), _static_stream(rng, 140, 30, busy={9, 10, 20})]
    alone = [_run_alone(p, frames) for frames in streams]

    models = [FrameModel(p, len(frames[0])) for frames in streams]
    outs = [[], []]
    for f_idx in range(30):
        for i in (0, 1):
            outs[i].append(models[i].observe(streams[i][f_idx]))
    for i in (0, 1):
        _assert_same_run(models[i], outs[i], alone[i])

    models = [FrameModel(p, len(streams[i % 2][0])) for i in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [
                pool.submit(lambda fm, frames: [fm.observe(z) for z in frames], fm, streams[i % 2])
                for i, fm in enumerate(models)
            ]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    for i, fm in enumerate(models):
        _assert_same_run(fm, threaded[i], alone[i % 2])
