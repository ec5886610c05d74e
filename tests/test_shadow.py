"""Shadow refinement: refine_classes against the straight-line oracle in
tests/oracles.py, with worked examples of the distortion geometry."""

import math

import numpy as np
import pytest
from oracles import oracle_distortion, oracle_refine

from bgsub.gmm import BACKGROUND, FOREGROUND
from bgsub.shadow import SHADOW, ShadowParams, refine_classes

P = ShadowParams(0.4, 0.95, 0.1)


def _classify(f, means, params=P, b_count=None, label=FOREGROUND):
    """refine_classes on one pixel with value f over the background colors
    means (all of them unless b_count says fewer)."""
    out = refine_classes(
        np.array([label], dtype=np.uint8),
        np.array([f], dtype=np.float64),
        np.array(means, dtype=np.float64).T.reshape(3, -1, 1),
        np.array([len(means) if b_count is None else b_count]),
        params,
    )
    return int(out[0])


def _distortion(f, bg):
    """The oracle's (bd, cd) of f against bg, after checking that
    refine_classes decides as the oracle does and sees the same two
    numbers: a band edge placed at bd or cd keeps the pixel a shadow, one
    ulp further in drops it. bd can be pinned only inside (0, 1]."""
    bd, cd = oracle_distortion(f, bg)
    assert _classify(f, [bg]) == oracle_refine(FOREGROUND, f, [bg], 1, P.bd_low, P.bd_high, P.cd_max)
    low, high, wide = 1e-9, 1.0, 1e9
    if low < bd <= high:
        if bd < high:
            assert _classify(f, [bg], ShadowParams(bd, high, wide)) == SHADOW
            above = math.nextafter(bd, math.inf)
            if above < high:
                assert _classify(f, [bg], ShadowParams(above, high, wide)) == FOREGROUND
        assert _classify(f, [bg], ShadowParams(low, bd, wide)) == SHADOW
        assert _classify(f, [bg], ShadowParams(low, math.nextafter(bd, 0.0), wide)) == FOREGROUND
        if cd > 0.0:
            assert _classify(f, [bg], ShadowParams(low, high, cd)) == SHADOW
            assert _classify(f, [bg], ShadowParams(low, high, math.nextafter(cd, 0.0))) == FOREGROUND
    return bd, cd


def test_bd_of_identical_vectors():
    assert _distortion((100.0, 100.0, 100.0), (100.0, 100.0, 100.0))[0] == 1.0


def test_bd_worked_example():
    bd, _ = _distortion((60.0, 70.0, 60.0), (100.0, 100.0, 100.0))
    assert bd == pytest.approx(19000.0 / 30000.0, rel=1e-12)
    assert bd == pytest.approx(0.63333, rel=1e-4)


def test_bd_collinear_scaling():
    b = (120.0, 80.0, 60.0)
    f = tuple(0.5 * v for v in b)
    assert _distortion(f, b)[0] == pytest.approx(0.5, rel=1e-12)


def test_cd_zero_for_collinear():
    b = (90.0, 120.0, 30.0)
    for t in (0.2, 0.7, 1.3):
        f = tuple(t * v for v in b)
        assert _distortion(f, b)[1] == pytest.approx(0.0, abs=1e-12)
        if t <= 1.0:
            assert _classify(f, [b], ShadowParams(0.1, 1.0, 1e-12)) == SHADOW


def test_cd_worked_example():
    _, cd = _distortion((60.0, 70.0, 60.0), (100.0, 100.0, 100.0))
    assert cd == pytest.approx(math.sqrt(66.0 + 2.0 / 3.0) / math.sqrt(30000.0), rel=1e-9)
    assert cd == pytest.approx(0.047140, rel=1e-4)


def test_cd_far_from_axis():
    bd, cd = _distortion((200.0, 50.0, 50.0), (100.0, 100.0, 100.0))
    assert bd == pytest.approx(1.0)
    assert cd == pytest.approx(math.sqrt(15000.0) / math.sqrt(30000.0), rel=1e-12)
    assert cd == pytest.approx(0.70711, rel=1e-4)


def test_near_black_background_stays_foreground():
    # A background color shorter than MIN_BG_NORM (1e-6) casts no shadow,
    # even where the geometry reads bd 0.5, cd 0; one just above it does.
    wide = ShadowParams(1e-9, 1.0, 1e9)
    f, bg = (5e-8, 0.0, 0.0), (1e-7, 0.0, 0.0)
    assert oracle_distortion(f, bg) is None
    assert _classify(f, [bg], wide) == FOREGROUND
    assert _classify(f, [bg]) == FOREGROUND
    assert _classify((5e-6, 0.0, 0.0), [(1e-5, 0.0, 0.0)]) == SHADOW


def test_black_background_is_skipped_not_fatal():
    # A black background mean is never shadowed, and it does not stop a
    # later background mean from shadowing the pixel.
    wide = ShadowParams(1e-9, 1.0, 1e9)
    f, black = (10.0, 10.0, 10.0), (0.0, 0.0, 0.0)
    assert oracle_distortion(f, black) is None
    assert _classify(f, [black], wide) == FOREGROUND
    assert _classify(f, [black]) == FOREGROUND
    means = [black, (100.0, 100.0, 100.0)]
    f = (70.0, 70.0, 70.0)
    assert oracle_refine(FOREGROUND, f, means, 2, P.bd_low, P.bd_high, P.cd_max) == SHADOW
    assert _classify(f, means) == SHADOW
    assert _classify(f, means, b_count=1) == FOREGROUND


def test_shadow_params_validation():
    with pytest.raises(ValueError):
        ShadowParams(bd_low=0.0)
    with pytest.raises(ValueError):
        ShadowParams(bd_low=0.9, bd_high=0.5)
    with pytest.raises(ValueError):
        ShadowParams(bd_high=1.2)
    with pytest.raises(ValueError):
        ShadowParams(cd_max=0.0)


def test_collinear_dimming_is_shadow():
    b = (100.0, 100.0, 100.0)
    assert _classify(tuple(0.7 * v for v in b), [b]) == SHADOW


def test_unchanged_pixel_is_not_shadow():
    b = (100.0, 100.0, 100.0)
    assert _classify(b, [b]) == FOREGROUND  # BD = 1 > bd_high


def test_shadow_worked_example():
    assert _classify((60.0, 70.0, 60.0), [(100.0, 100.0, 100.0)]) == SHADOW


def test_band_edges_inclusive():
    b = (100.0, 100.0, 100.0)
    assert _classify((40.0, 40.0, 40.0), [b]) == SHADOW  # BD exactly 0.4
    assert _classify((95.0, 95.0, 95.0), [b]) == SHADOW  # BD exactly 0.95
    assert _classify((39.0, 39.0, 39.0), [b]) == FOREGROUND
    assert _classify((96.0, 96.0, 96.0), [b]) == FOREGROUND


def test_chromatic_object_is_not_shadow():
    # brick color over gray background: inside the brightness band but far
    # off the chromaticity axis
    assert _classify((180.0, 60.0, 60.0), [(120.0, 120.0, 120.0)]) == FOREGROUND


def test_background_passes_through():
    # A dimmed copy, so it would be a shadow if it were foreground.
    assert _classify((70.0, 70.0, 70.0), [(100.0, 100.0, 100.0)], label=BACKGROUND) == BACKGROUND


def test_dimmed_foreground_becomes_shadow():
    means = [(100.0, 100.0, 100.0), (200.0, 200.0, 200.0)]
    assert _classify((70.0, 70.0, 70.0), means, b_count=1) == SHADOW


def test_any_background_mean_counts():
    means = [(10.0, 200.0, 10.0), (100.0, 100.0, 100.0)]
    f = (70.0, 70.0, 70.0)  # shadows the second mean only
    assert _classify(f, means, b_count=2) == SHADOW
    # with B=1 only the first mean is background, so it stays foreground
    assert _classify(f, means, b_count=1) == FOREGROUND


def test_true_foreground_stays():
    assert _classify((250.0, 20.0, 20.0), [(100.0, 100.0, 100.0)]) == FOREGROUND


def test_refine_classes_matches_scalar():
    # The scalar reference is oracle_refine, one pixel at a time.
    rng = np.random.default_rng(31)
    n, k = 400, 3
    z = rng.uniform(0.0, 255.0, (n, 3))
    mean_planes = np.ascontiguousarray(rng.uniform(0.0, 255.0, (k, n, 3)).transpose(2, 0, 1))
    # sprinkle degenerate and dim-copy cases
    mean_planes[:, 0, :40] = 0.0
    z[40:120] = mean_planes[:, 0, 40:120].T * rng.uniform(0.45, 0.9, (80, 1))
    b = rng.integers(1, k + 1, n)
    labels = np.where(rng.random(n) < 0.6, FOREGROUND, BACKGROUND).astype(np.uint8)
    before = labels.copy()
    out = refine_classes(labels, z, mean_planes, b, P)
    # a new array; the input labels stay as they were
    assert out is not labels and np.array_equal(labels, before)
    # The same samples and mean planes as band views of wider planes, which
    # are not contiguous, classify the same.
    planes = np.full((3, n + 9), np.nan)
    planes[:, 4 : 4 + n] = z.T
    wide = np.full((3, k, n + 9), np.nan)
    wide[:, :, 4 : 4 + n] = mean_planes
    z_view, planes_view = planes[:, 4 : 4 + n].T, wide[:, :, 4 : 4 + n]
    assert not planes_view.flags.c_contiguous
    assert np.array_equal(refine_classes(labels, z_view, planes_view, b, P), out)
    for j in range(n):
        mean_list = [mean_planes[:, i, j].tolist() for i in range(k)]
        expect = oracle_refine(
            int(labels[j]), z[j].tolist(), mean_list, int(b[j]), P.bd_low, P.bd_high, P.cd_max
        )
        assert out[j] == expect, f"pixel {j}"


def test_uint8_rows_classify_as_float_planes():
    # FramePipeline hands refine_classes a band of the frame's uint8 rows.
    # uint8 converts to float64 exactly, so they classify as the same values
    # as float channel planes do.
    rng = np.random.default_rng(32)
    h, w, k = 20, 30, 3
    n = h * w
    mean_planes = np.ascontiguousarray(rng.uniform(0.0, 255.0, (k, n, 3)).transpose(2, 0, 1))
    frame = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    rows = frame.reshape(-1, 3)
    dim = rng.random(n) < 0.5
    rows[dim] = np.rint(mean_planes[:, 0, dim].T * rng.uniform(0.3, 1.0, (int(dim.sum()), 1)))
    b = rng.integers(1, k + 1, n)
    labels = np.where(rng.random(n) < 0.8, FOREGROUND, BACKGROUND).astype(np.uint8)
    band = slice(5 * w, 15 * w)
    planes = np.ascontiguousarray(rows.T, dtype=np.float64)
    want = refine_classes(labels[band], planes[:, band].T, mean_planes[..., band], b[band], P)
    got = refine_classes(labels[band], rows[band], mean_planes[..., band], b[band], P)
    assert np.array_equal(got, want)
    # Both outcomes occur: 107 shadow and 149 foreground pixels.
    assert min(np.count_nonzero(want == c) for c in (SHADOW, FOREGROUND)) > 100


def test_refine_classes_no_foreground_short_circuit():
    labels = np.full(10, BACKGROUND, dtype=np.uint8)
    z = np.zeros((10, 3))
    mean_planes = np.zeros((3, 2, 10))
    b = np.ones(10, dtype=np.int64)
    out = refine_classes(labels, z, mean_planes, b, P)
    assert out is not labels and np.array_equal(out, labels)
