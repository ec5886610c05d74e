"""Vectorized engine vs the scalar reference, plus its own edge cases."""

import numpy as np
import pytest

from bgsub.frame_model import FrameModel
from bgsub.gmm import (
    BACKGROUND,
    FIXED_ALPHA,
    PDF_FAITHFUL,
    GaussianComponent,
    ModelParams,
    PixelModel,
    init_pixel_model,
    process_pixel,
)


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


def _scalar_state(models):
    k = max(m.live_count for m in models)
    n = len(models)
    weights = np.zeros((k, n))
    means = np.zeros((k, n, 3))
    variances = np.zeros((k, n))
    for j, m in enumerate(models):
        for i, c in enumerate(m.components):
            weights[i, j] = c.weight
            means[i, j] = c.mean
            variances[i, j] = c.variance
    return weights, means, variances


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_equivalence_fixed_alpha_is_exact(k):
    p = ModelParams(k=k, alpha=0.03, rho_mode=FIXED_ALPHA)
    n = 48
    rng = np.random.default_rng(21)
    frames = _frame_stream(rng, n, 120)
    fm = FrameModel(p, n)
    scalars = None
    for f_idx, z in enumerate(frames):
        labels, pos, b = fm.observe(z)
        if scalars is None:
            scalars = [init_pixel_model(tuple(z[j]), p) for j in range(n)]
            assert np.all(labels == BACKGROUND)
            continue
        s_labels = np.empty(n, dtype=np.uint8)
        s_pos = np.empty(n, dtype=np.int64)
        s_b = np.empty(n, dtype=np.int64)
        for j in range(n):
            scalars[j], s_labels[j], s_pos[j], s_b[j] = process_pixel(
                scalars[j], tuple(z[j]), p
            )
        assert np.array_equal(labels, s_labels), f"labels diverged at frame {f_idx}"
        assert np.array_equal(pos, s_pos)
        assert np.array_equal(b, s_b)
        sw, sm, sv = _scalar_state(scalars)
        live = np.array([m.live_count for m in scalars])
        assert np.array_equal(fm.live_count, live)
        kk = sw.shape[0]
        # bit-for-bit: same operation order on both paths
        assert np.array_equal(fm.weights[:kk][sw > 0], sw[sw > 0])
        for j in range(n):
            lc = live[j]
            assert np.array_equal(fm.weights[:lc, j], sw[:lc, j])
            assert np.array_equal(fm.means[:lc, j], sm[:lc, j])
            assert np.array_equal(fm.variances[:lc, j], sv[:lc, j])


def _set_state(fm, models):
    """Load scalar pixel models into a started FrameModel."""
    for j, m in enumerate(models):
        fm.live_count[j] = m.live_count
        for i, c in enumerate(m.components):
            fm.weights[i, j] = c.weight
            fm.means[i, j] = c.mean
            fm.variances[i, j] = c.variance
    fm.started = True


def test_equal_ranks_keep_slot_order():
    # alpha 0.5 keeps every product exact, so the ties below are exact.
    p = ModelParams(k=3, alpha=0.5, var_min=1.0, rho_mode=FIXED_ALPHA)
    far = (250.0, 250.0, 250.0)

    def comps(*specs):
        return PixelModel([GaussianComponent(w, m, v) for w, m, v in specs])

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
    _set_state(fm, states())
    labels, pos, b = fm.observe(z)

    scalars = states()
    for j in range(n):
        scalars[j], s_label, s_pos, s_b = process_pixel(scalars[j], tuple(z[j]), p)
        assert (labels[j], pos[j], b[j]) == (s_label, s_pos, s_b)
        assert fm.live_count[j] == scalars[j].live_count
        for i, c in enumerate(scalars[j].components):
            assert fm.weights[i, j] == c.weight
            assert tuple(fm.means[i, j]) == c.mean
            assert fm.variances[i, j] == c.variance
    rank = fm.weights / np.sqrt(fm.variances)
    assert rank[1, 0] == rank[2, 0] and pos[0] == 2
    assert rank[0, 1] == rank[1, 1] and pos[1] == 1
    assert rank[0, 2] == rank[1, 2]
    assert sorted(tuple(m) for m in fm.means[:, 3]) == [(0.0,) * 3, (50.0,) * 3, far]


def test_equivalence_pdf_mode_near_exact():
    p = ModelParams(alpha=0.03, rho_mode=PDF_FAITHFUL)
    n = 32
    rng = np.random.default_rng(22)
    frames = _frame_stream(rng, n, 80)
    fm = FrameModel(p, n)
    scalars = None
    for z in frames:
        labels, pos, b = fm.observe(z)
        if scalars is None:
            scalars = [init_pixel_model(tuple(z[j]), p) for j in range(n)]
            continue
        for j in range(n):
            scalars[j], s_label, s_pos, s_b = process_pixel(scalars[j], tuple(z[j]), p)
            assert (labels[j], pos[j], b[j]) == (s_label, s_pos, s_b)
            for i, c in enumerate(scalars[j].components):
                np.testing.assert_allclose(fm.weights[i, j], c.weight, rtol=1e-12)
                np.testing.assert_allclose(fm.means[i, j], c.mean, rtol=1e-12)
                np.testing.assert_allclose(fm.variances[i, j], c.variance, rtol=1e-12)


def test_first_observation_bootstraps_background():
    p = ModelParams()
    fm = FrameModel(p, 6)
    z = np.arange(18, dtype=np.float64).reshape(6, 3)
    labels, pos, b = fm.observe(z)
    assert np.all(labels == BACKGROUND)
    assert np.all(pos == 0)
    assert np.all(b == 1)
    assert np.all(fm.live_count == 1)
    assert np.array_equal(fm.means[0], z)
    assert np.all(fm.weights[0] == 1.0)


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
