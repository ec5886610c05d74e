"""Connected-component labeling and blob extraction."""

import numpy as np
import pytest

from bgsub.segmentation import EIGHT, FOUR, Blob, extract_blobs, label_components

from oracles import flood_fill_labels


def _mask(rows):
    return np.array([[255 if c == "#" else 0 for c in r] for r in rows], dtype=np.uint8)


def test_empty_mask():
    labels = label_components(np.zeros((4, 6), dtype=np.uint8), EIGHT)
    assert labels.shape == (4, 6)
    assert labels.max() == 0


def test_full_mask_single_component():
    labels = label_components(np.full((5, 5), 255, dtype=np.uint8), FOUR)
    assert labels.min() == 1 and labels.max() == 1


def test_diagonal_pair_eight_vs_four():
    m = _mask([
        "#.",
        ".#",
    ])
    eight = label_components(m, EIGHT)
    four = label_components(m, FOUR)
    assert eight[0, 0] == 1 and eight[1, 1] == 1
    assert four[0, 0] == 1 and four[1, 1] == 2


def test_anti_diagonal_eight():
    m = _mask([
        ".#",
        "#.",
    ])
    eight = label_components(m, EIGHT)
    assert eight[0, 1] == 1 and eight[1, 0] == 1


def test_two_separate_blobs_numbering():
    # labels follow row-major order of each component's first pixel
    m = _mask([
        "##....##",
        "##....##",
        "........",
    ])
    labels = label_components(m, EIGHT)
    assert labels[0, 0] == 1
    assert labels[0, 6] == 2


def test_u_shape_merges_into_one():
    m = _mask([
        "#.#",
        "#.#",
        "###",
    ])
    for conn in (FOUR, EIGHT):
        labels = label_components(m, conn)
        assert labels[labels > 0].max() == 1
        assert (labels > 0).sum() == 7


def test_snake_single_component():
    m = _mask([
        "#####",
        "....#",
        "#####",
        "#....",
        "#####",
    ])
    labels = label_components(m, FOUR)
    assert set(np.unique(labels)) == {0, 1}


def test_checkerboard_four_vs_eight():
    m = np.zeros((6, 6), dtype=np.uint8)
    m[(np.indices((6, 6)).sum(axis=0) % 2) == 0] = 255
    four = label_components(m, FOUR)
    eight = label_components(m, EIGHT)
    assert four.max() == 18  # every set pixel isolated
    assert eight.max() == 1


def test_bad_connectivity():
    with pytest.raises(ValueError):
        label_components(np.zeros((2, 2), dtype=np.uint8), "six")


def test_bad_rank():
    with pytest.raises(ValueError):
        label_components(np.zeros((2, 2, 3), dtype=np.uint8), EIGHT)


@pytest.mark.parametrize("connectivity", [FOUR, EIGHT])
def test_random_grids_match_flood_fill(connectivity):
    rng = np.random.default_rng(11)
    for trial in range(1000):
        density = rng.uniform(0.2, 0.8)
        m = (rng.random((12, 12)) < density).astype(np.uint8) * 255
        got = label_components(m, connectivity)
        want = np.array(flood_fill_labels(m.tolist(), connectivity))
        assert np.array_equal(got, want), f"trial {trial}"


def _serpentine(h=119, w=160):
    # full rows joined by one pixel at alternating ends: one component
    # whose runs chain from the first row to the last
    m = np.zeros((h, w), dtype=np.uint8)
    m[::2] = 255
    for y in range(1, h, 2):
        m[y, w - 1 if y % 4 == 1 else 0] = 255
    return m


def _spiral(n=41):
    # one-pixel wall winding inwards, so the path through the component
    # runs against row-major order
    m = np.zeros((n, n), dtype=np.uint8)
    y, x, dy, dx = 0, 0, 0, 1
    length = n - 1
    for turn in range(2 * n):
        if length <= 0:
            break
        for _ in range(length):
            m[y, x] = 255
            y, x = y + dy, x + dx
        dy, dx = dx, -dy
        if turn > 0 and turn % 2 == 0:
            length -= 2
    m[y, x] = 255
    return m


def _comb(h=40, w=61):
    # teeth on even columns that join only on the last row
    m = np.zeros((h, w), dtype=np.uint8)
    m[:, ::2] = 255
    m[-1] = 255
    return m


def _random(shape, density, seed):
    return (np.random.default_rng(seed).random(shape) < density).astype(np.uint8) * 255


@pytest.mark.parametrize("connectivity", [FOUR, EIGHT])
@pytest.mark.parametrize(
    "mask, one_component",
    [
        pytest.param(_serpentine(), True, id="serpentine"),
        pytest.param(_spiral(), True, id="spiral"),
        pytest.param(_comb(), True, id="comb"),
        pytest.param(_random((1, 500), 0.5, 21), False, id="row"),
        pytest.param(_random((500, 1), 0.5, 22), False, id="column"),
        pytest.param(_random((120, 160), 0.35, 23), False, id="raster"),
    ],
)
def test_long_merges_match_flood_fill(mask, one_component, connectivity):
    got = label_components(mask, connectivity)
    want = np.array(flood_fill_labels(mask.tolist(), connectivity))
    assert got.dtype == np.int32
    assert np.array_equal(got, want)
    if one_component:
        assert got.max() == 1


def _blobs_by_scan(labels, min_area=1):
    """Blobs of a label map, one whole-raster scan per component."""
    blobs = []
    for cid in range(1, int(labels.max()) + 1):
        ys, xs = np.nonzero(labels == cid)
        if len(ys) >= min_area:
            bbox = (int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))
            centroid = (float(xs.sum() / len(xs)), float(ys.sum() / len(ys)))
            blobs.append(Blob(cid, len(ys), bbox, centroid))
    return sorted(blobs, key=lambda b: (-b.area, b.id))


def _mostly_empty_rows(seed, shape=(60, 40), fg_rows=6):
    # About 90% of rows empty; the rest at random density, and sometimes
    # next to each other.
    rng = np.random.default_rng(seed)
    m = np.zeros(shape, dtype=np.uint8)
    for y in rng.choice(shape[0], fg_rows, replace=False):
        m[y] = (rng.random(shape[1]) < rng.uniform(0.1, 0.9)) * 255
    return m


@pytest.mark.parametrize("connectivity", [FOUR, EIGHT])
@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(["..###...", "........", "..###..."], id="one-empty-row"),
        pytest.param([".##.....", "........", "........", "........", "..##....", "...#...#"], id="empty-rows"),
        pytest.param(["#..#...#", "........", "........", "........", "#..##..#"], id="first-and-last-rows"),
        pytest.param(["........", ".#.#.#..", "........", "#.#.#.#.", "........"], id="alternate-rows"),
    ],
)
def test_sparse_rows_match_flood_fill(rows, connectivity):
    m = _mask(rows)
    got = label_components(m, connectivity)
    want = np.array(flood_fill_labels(m.tolist(), connectivity))
    assert np.array_equal(got, want)
    assert extract_blobs(got, min_area=1) == _blobs_by_scan(want)


@pytest.mark.parametrize("connectivity", [FOUR, EIGHT])
def test_mostly_empty_rows_match_flood_fill(connectivity):
    for seed in range(200):
        m = _mostly_empty_rows(seed)
        got = label_components(m, connectivity)
        want = np.array(flood_fill_labels(m.tolist(), connectivity))
        assert np.array_equal(got, want), f"seed {seed}"
        assert extract_blobs(got, min_area=2) == _blobs_by_scan(want, min_area=2), f"seed {seed}"


def test_bool_and_uint8_masks_label_alike():
    m = np.random.default_rng(24).random((30, 40)) < 0.4
    for connectivity in (FOUR, EIGHT):
        as_bool = label_components(m, connectivity)
        as_uint8 = label_components(m.astype(np.uint8) * 255, connectivity)
        assert as_bool.dtype == as_uint8.dtype == np.int32
        assert as_bool.tobytes() == as_uint8.tobytes()


def test_single_block_blob():
    m = _mask([
        "##..",
        "##..",
        "....",
    ])
    labels = label_components(m, EIGHT)
    blobs = extract_blobs(labels, min_area=1)
    assert len(blobs) == 1
    b = blobs[0]
    assert b.id == 1 and type(b.id) is int
    assert b.area == 4
    assert b.bbox == (0, 0, 1, 1)
    assert b.centroid == (0.5, 0.5)


def test_blob_centroid_asymmetric():
    m = _mask([
        "###.",
        "#...",
    ])
    blobs = extract_blobs(label_components(m, FOUR), min_area=1)
    assert len(blobs) == 1
    b = blobs[0]
    assert b.area == 4
    assert b.bbox == (0, 0, 2, 1)
    # pixels (0,0),(1,0),(2,0),(0,1): mean x 0.75, mean y 0.25
    assert b.centroid == (0.75, 0.25)


def test_min_area_filter():
    m = _mask([
        "#..###",
        "...###",
    ])
    blobs = extract_blobs(label_components(m, EIGHT), min_area=2)
    assert len(blobs) == 1
    assert blobs[0].area == 6


def test_blobs_sorted_by_area_then_id():
    m = _mask([
        "##..#####",
        "##..#####",
        ".........",
        "##.......",
        "##.......",
    ])
    blobs = extract_blobs(label_components(m, EIGHT), min_area=1)
    assert [b.area for b in blobs] == [10, 4, 4]
    # equal areas fall back to ascending component id
    assert blobs[1].id < blobs[2].id


def test_blob_area_conservation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = (rng.random((20, 20)) < 0.5).astype(np.uint8) * 255
        labels = label_components(m, EIGHT)
        blobs = extract_blobs(labels, min_area=1)
        assert sum(b.area for b in blobs) == int((m > 0).sum())
        assert len({b.id for b in blobs}) == len(blobs)


def test_blob_bbox_bounds_pixels():
    rng = np.random.default_rng(6)
    m = (rng.random((16, 16)) < 0.4).astype(np.uint8) * 255
    labels = label_components(m, FOUR)
    for b in extract_blobs(labels, min_area=1):
        ys, xs = np.nonzero(labels == b.id)
        assert b.bbox == (xs.min(), ys.min(), xs.max(), ys.max())
        assert b.centroid == (pytest.approx(xs.mean()), pytest.approx(ys.mean()))
