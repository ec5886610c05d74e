"""Binary netpbm (P6/P5) codecs and the overlay renderer.

Only 8-bit images (maxval 255) are supported. Headers may contain
comments; the payload starts after exactly one whitespace byte following
the maxval token.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, MalformedHeader, TruncatedPayload, UnsupportedMaxval
from .gmm import FOREGROUND
from .shadow import SHADOW

OVERLAY_FOREGROUND = (255, 0, 0)
OVERLAY_SHADOW = (0, 255, 0)

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _read_header(data: bytes, magic: bytes) -> tuple[int, int, int, int]:
    """Parse `magic width height maxval`; return fields plus payload offset."""
    if not data.startswith(magic):
        raise MalformedHeader(f"expected {magic.decode()} magic, got {data[:2]!r}")
    pos = len(magic)
    values = []
    n = len(data)
    while len(values) < 3:
        while pos < n and data[pos : pos + 1] in _WHITESPACE:
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
            continue
        start = pos
        while pos < n and data[pos : pos + 1] not in _WHITESPACE and data[pos : pos + 1] != b"#":
            pos += 1
        token = data[start:pos]
        if not token:
            raise MalformedHeader("header ended before width, height and maxval")
        if not token.isdigit():
            raise MalformedHeader(f"non-numeric header token {token!r}")
        values.append(int(token))
    if pos >= n or data[pos : pos + 1] not in _WHITESPACE:
        raise MalformedHeader("missing whitespace between maxval and payload")
    width, height, maxval = values
    if width < 1 or height < 1:
        raise MalformedHeader(f"degenerate dimensions {width}x{height}")
    return width, height, maxval, pos + 1


def _decode(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    """Binary netpbm bytes to an (h, w, channels) uint8 array."""
    width, height, maxval, offset = _read_header(data, magic)
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval {maxval} not supported, need 255")
    need = width * height * channels
    if len(data) - offset < need:
        raise TruncatedPayload(f"need {need} payload bytes, have {len(data) - offset}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=offset)
    return pixels.reshape(height, width, channels).copy()


def decode_ppm(data: bytes) -> np.ndarray:
    """Binary PPM bytes to a (h, w, 3) uint8 array."""
    return _decode(data, b"P6", 3)


def decode_pgm(data: bytes) -> np.ndarray:
    """Binary PGM bytes to a (h, w) uint8 array."""
    return _decode(data, b"P5", 1)[..., 0]


def decode_frame(data: bytes, width: int | None = None, height: int | None = None) -> np.ndarray:
    """Decode one frame: raw interleaved RGB24 when width and height are
    given, else binary PPM. Raw payloads are never sniffed for a header,
    since their first two bytes may well read "P6"."""
    if width is None or height is None:
        if data[:2] == b"P6":
            return decode_ppm(data)
        raise MalformedHeader("not a PPM and no raw frame dimensions configured")
    need = width * height * 3
    if len(data) < need:
        raise TruncatedPayload(f"raw frame needs {need} bytes, have {len(data)}")
    if len(data) > need:
        raise ValueError(f"raw frame has {len(data)} bytes, expected exactly {need}")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3).copy()


def encode_ppm(image: np.ndarray) -> bytes:
    """(h, w, 3) uint8 array to binary PPM bytes."""
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"expected (h, w, 3) uint8 image, got {image.shape} {image.dtype}")
    h, w = image.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(image).tobytes()


def encode_pgm(image: np.ndarray) -> bytes:
    """(h, w) uint8 array to binary PGM bytes."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError(f"expected (h, w) uint8 image, got {image.shape} {image.dtype}")
    h, w = image.shape
    return b"P5\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(image).tobytes()


def encode_mask(classes: np.ndarray) -> bytes:
    """Class raster (0 background, 128 shadow, 255 foreground) to PGM bytes."""
    return encode_pgm(classes)


def render_overlay(frame: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Paint foreground pixels red and shadow pixels green over the frame."""
    if frame.shape[:2] != classes.shape:
        raise DimensionMismatch(f"frame {frame.shape[:2]} vs classes {classes.shape}")
    out = frame.copy()
    out[classes == FOREGROUND] = OVERLAY_FOREGROUND
    out[classes == SHADOW] = OVERLAY_SHADOW
    return out
