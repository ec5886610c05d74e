"""Image codec round-trips and malformed-input handling."""

import tracemalloc

import numpy as np
import pytest

from bgsub.errors import DimensionMismatch, MalformedHeader, TruncatedPayload, UnsupportedMaxval
from bgsub.gmm import BACKGROUND, FOREGROUND
from bgsub.netpbm import (
    OVERLAY_FOREGROUND,
    OVERLAY_SHADOW,
    decode_frame,
    decode_pgm,
    decode_ppm,
    encode_mask,
    encode_pgm,
    encode_ppm,
    render_overlay,
)
from bgsub.shadow import SHADOW


def test_decode_ppm_worked_example():
    data = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255])
    img = decode_ppm(data)
    assert img.shape == (1, 2, 3)
    assert img.dtype == np.uint8
    assert tuple(img[0, 0]) == (255, 0, 0)
    assert tuple(img[0, 1]) == (0, 0, 255)


def test_decode_ppm_header_comments():
    data = b"P6 # magic\n# a comment line\n2 # width\n1\n# another\n255\n" + bytes(6)
    img = decode_ppm(data)
    assert img.shape == (1, 2, 3)
    # A comment glued to the end of a token, and one right after the magic.
    for header in (b"P6 2#w\n1 255\n", b"P6#c\n2 1 255\n"):
        assert decode_ppm(header + bytes(6)).shape == (1, 2, 3)


def test_decode_ppm_crlf_and_tabs():
    data = b"P6\r\n2\t1 255 " + bytes(6)
    assert decode_ppm(data).shape == (1, 2, 3)


def test_payload_starts_after_single_whitespace():
    # payload bytes that look like whitespace must not be eaten
    data = b"P6\n1 1\n255\n" + bytes([0x0A, 0x20, 0x0D])
    img = decode_ppm(data)
    assert tuple(img[0, 0]) == (0x0A, 0x20, 0x0D)


def test_decode_ppm_wrong_magic():
    with pytest.raises(MalformedHeader):
        decode_ppm(b"P5\n1 1\n255\n" + bytes(3))


def test_decode_ppm_non_numeric_token():
    with pytest.raises(MalformedHeader):
        decode_ppm(b"P6\n2 x\n255\n" + bytes(6))


def test_decode_ppm_truncated_header():
    with pytest.raises(MalformedHeader):
        decode_ppm(b"P6\n2 1")


@pytest.mark.parametrize(
    "decode, magic", [(decode_ppm, b"P6"), (decode_pgm, b"P5"), (decode_frame, b"P6")]
)
@pytest.mark.parametrize("field", range(3))
def test_decode_refuses_a_token_too_long_to_convert(decode, magic, field):
    # 5000 digits are past Python's default limit on an integer string
    # (4300), whose ValueError must come out as MalformedHeader.
    fields = [b"1", b"1", b"255"]
    fields[field] = b"9" * 5000
    with pytest.raises(MalformedHeader, match="header token of 5000 digits is too long"):
        decode(b" ".join([magic, *fields]) + b"\n" + bytes(3))


@pytest.mark.parametrize(
    "decode, data",
    [
        (decode_ppm, b"P6\n1 1\n255"),
        (decode_ppm, b"P6 1 1 255#c\n\x01\x02\x03"),
        (decode_pgm, b"P5 1 1 255#\n\x00"),
    ],
)
def test_decode_maxval_without_whitespace_after_it(decode, data):
    # The header ends at the data's end, or a comment starts right after
    # maxval: a payload must follow one whitespace byte.
    with pytest.raises(MalformedHeader, match="missing whitespace between maxval and payload"):
        decode(data)


def test_decode_ppm_zero_dimension():
    with pytest.raises(MalformedHeader):
        decode_ppm(b"P6\n0 1\n255\n")


def test_decode_ppm_maxval_not_255():
    with pytest.raises(UnsupportedMaxval):
        decode_ppm(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(UnsupportedMaxval):
        decode_ppm(b"P6\n1 1\n15\n" + bytes(3))


def test_decode_ppm_truncated_payload():
    with pytest.raises(TruncatedPayload):
        decode_ppm(b"P6\n2 2\n255\n" + bytes(11))


def test_decode_ppm_extra_bytes_tolerated():
    data = b"P6\n1 1\n255\n" + bytes([7, 8, 9]) + b"trailing"
    assert tuple(decode_ppm(data)[0, 0]) == (7, 8, 9)


def test_decode_pgm_basic():
    data = b"P5\n3 2\n255\n" + bytes([0, 128, 255, 1, 2, 3])
    img = decode_pgm(data)
    assert img.shape == (2, 3)
    assert img[0, 1] == 128
    assert img[1, 2] == 3


def test_decode_pgm_errors():
    with pytest.raises(MalformedHeader):
        decode_pgm(b"P6\n1 1\n255\n" + bytes(3))
    with pytest.raises(TruncatedPayload):
        decode_pgm(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(UnsupportedMaxval):
        decode_pgm(b"P5\n1 1\n254\n" + bytes(1))


def test_ppm_roundtrip():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (7, 5, 3), dtype=np.uint8)
    assert np.array_equal(decode_ppm(encode_ppm(img)), img)


def test_pgm_roundtrip():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, (6, 9), dtype=np.uint8)
    assert np.array_equal(decode_pgm(encode_pgm(img)), img)


def test_encode_rejects_wrong_shape_or_dtype():
    with pytest.raises(ValueError):
        encode_ppm(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        encode_ppm(np.zeros((4, 4, 3), dtype=np.float64))
    with pytest.raises(ValueError):
        encode_pgm(np.zeros((4, 4, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        encode_pgm(np.zeros((4, 4), dtype=np.int32))


def test_encode_mask_is_pgm():
    classes = np.array([[BACKGROUND, SHADOW], [FOREGROUND, BACKGROUND]], dtype=np.uint8)
    data = encode_mask(classes)
    assert data.startswith(b"P5\n2 2\n255\n")
    assert np.array_equal(decode_pgm(data), classes)


def test_decode_frame_ppm_path():
    img = decode_frame(b"P6\n1 1\n255\n" + bytes([1, 2, 3]))
    assert tuple(img[0, 0]) == (1, 2, 3)


def test_decode_frame_raw_path():
    payload = bytes([10, 20, 30, 40, 50, 60])
    img = decode_frame(payload, width=2, height=1)
    assert img.shape == (1, 2, 3)
    assert tuple(img[0, 1]) == (40, 50, 60)


def test_decode_frame_raw_starting_with_p6_is_not_sniffed():
    payload = bytes([80, 54, 0, 1, 2, 3])  # b"P6" then four pixel bytes
    img = decode_frame(payload, width=2, height=1)
    assert img.shape == (1, 2, 3)
    assert tuple(img[0, 0]) == (80, 54, 0)
    assert tuple(img[0, 1]) == (1, 2, 3)


def test_decode_frame_raw_needs_dimensions():
    with pytest.raises(MalformedHeader):
        decode_frame(bytes(12))


def test_decode_frame_raw_size_checks():
    with pytest.raises(TruncatedPayload):
        decode_frame(bytes(5), width=2, height=1)
    with pytest.raises(ValueError):
        decode_frame(bytes(7), width=2, height=1)


def test_render_overlay_colors():
    frame = np.full((2, 3, 3), 90, dtype=np.uint8)
    classes = np.array(
        [[BACKGROUND, FOREGROUND, SHADOW], [SHADOW, BACKGROUND, FOREGROUND]], dtype=np.uint8
    )
    out = render_overlay(frame, classes)
    assert tuple(out[0, 0]) == (90, 90, 90)
    assert tuple(out[0, 1]) == OVERLAY_FOREGROUND
    assert tuple(out[0, 2]) == OVERLAY_SHADOW
    assert tuple(out[1, 0]) == OVERLAY_SHADOW
    assert tuple(out[1, 2]) == OVERLAY_FOREGROUND
    # input untouched
    assert tuple(frame[0, 1]) == (90, 90, 90)


def test_render_overlay_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        render_overlay(np.zeros((2, 2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))


def _whole_raster_paint(frame, classes):
    """The overlay painted through one boolean mask a class."""
    out = frame.copy()
    out[classes == FOREGROUND] = OVERLAY_FOREGROUND
    out[classes == SHADOW] = OVERLAY_SHADOW
    return out


def _overlay_cases():
    rng = np.random.default_rng(7)
    for h, w in ((1, 1), (1, 17), (13, 1), (31, 47)):
        frame = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        for shares in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (8, 1, 1), (1, 1, 1)):
            probs = np.array(shares, dtype=float) / sum(shares)
            classes = rng.choice([BACKGROUND, FOREGROUND, SHADOW], (h, w), p=probs)
            yield frame, classes.astype(np.uint8)
    # Non-contiguous views of both the frame and the classes.
    frame = rng.integers(0, 256, (40, 60, 3), dtype=np.uint8)
    classes = rng.choice([BACKGROUND, FOREGROUND, SHADOW], (60, 40)).astype(np.uint8)
    yield frame[::2, ::-3], classes.T[::2, ::-3]
    yield np.asfortranarray(frame), classes.T.copy()
    yield frame.transpose(1, 0, 2)[:, 5:35], classes[:, 5:35]


def test_render_overlay_matches_whole_raster_paint():
    for frame, classes in _overlay_cases():
        before = frame.copy()
        frame.flags.writeable = False
        out = render_overlay(frame, classes)
        assert out.flags.c_contiguous and out.dtype == np.uint8
        assert np.array_equal(out, _whole_raster_paint(frame, classes))
        assert np.array_equal(frame, before)


def test_render_overlay_passes_other_classes_through():
    # Only 255 and 128 are painted; any other nonzero class keeps the
    # frame's colour, as the whole-raster paint does.
    rng = np.random.default_rng(8)
    frame = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)
    others = [1, 2, 64, 127, 129, 200, 254]
    classes = rng.choice(others + [BACKGROUND, FOREGROUND, SHADOW], (9, 11)).astype(np.uint8)
    out = render_overlay(frame, classes)
    assert np.array_equal(out, _whole_raster_paint(frame, classes))
    kept = np.isin(classes, others + [BACKGROUND])
    assert np.count_nonzero(np.isin(classes, others)) >= 30
    assert np.array_equal(out[kept], frame[kept])


def test_encoders_return_header_and_pixels():
    rng = np.random.default_rng(9)
    rgb = rng.integers(0, 256, (6, 10, 3), dtype=np.uint8)
    gray = rng.integers(0, 256, (6, 10), dtype=np.uint8)
    for encode, magic, image in ((encode_ppm, b"P6", rgb), (encode_pgm, b"P5", gray)):
        for form in (image, np.asfortranarray(image), image[1:5, ::-3], image.swapaxes(0, 1)):
            data = encode(form)
            assert type(data) is bytes
            h, w = form.shape[:2]
            assert data == b"%s\n%d %d\n255\n" % (magic, w, h) + form.tobytes()


def _peak_per_pixel(n, fn, *args):
    """fn(*args)'s traced peak allocation over n pixels."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


def test_emit_copies_each_raster_once():
    # One copy of the pixels for each encoder, and for the overlay one copy
    # of the frame plus one class mask at a time and its painted indices;
    # joining a header to tobytes() copies the pixels twice, and painting
    # through boolean masks holds more.
    rng = np.random.default_rng(10)
    h, w = 480, 640
    n = h * w
    frame = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    classes = np.zeros((h, w), dtype=np.uint8)
    painted = rng.choice(n, 11_700, replace=False)
    classes.reshape(-1)[painted[:8_000]] = FOREGROUND
    classes.reshape(-1)[painted[8_000:]] = SHADOW
    assert _peak_per_pixel(n, encode_ppm, frame) <= 3.01
    assert _peak_per_pixel(n, encode_mask, classes) <= 1.01
    overlay_bound = 3 + 1 + 8 * 8_000 / n + 0.01
    assert _peak_per_pixel(n, render_overlay, frame, classes) <= overlay_bound
