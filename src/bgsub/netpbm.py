"""Binary netpbm (P6/P5) codecs and the overlay renderer.

Only 8-bit images (maxval 255) are supported. Headers may contain
comments; the payload starts after exactly one whitespace byte following
the maxval token.

The encoders and the overlay run once a frame on the writer thread, which
shares the box's cores with the main loop, so they make as few whole-frame
passes as they can: an encoder joins the header and the pixel buffer into
its bytes with one copy, and the overlay copies the frame once and then
paints, by index, only its foreground and shadow pixels.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DimensionMismatch, MalformedHeader, TruncatedPayload, UnsupportedMaxval
from .gmm import FOREGROUND
from .shadow import SHADOW

OVERLAY_FOREGROUND = (255, 0, 0)
OVERLAY_SHADOW = (0, 255, 0)

# Blanks or comments, then the token after them: a run of bytes that are
# neither, empty only at the end of the data. In a bytes pattern, \s is the
# six ASCII whitespace bytes.
_TOKEN = re.compile(rb"(?:\s+|#[^\n\r]*)*([^\s#]*)")


def _read_header(data: bytes, magic: bytes) -> tuple[int, int, int, int]:
    """Parse `magic width height maxval`; return fields plus payload offset."""
    if not data.startswith(magic):
        raise MalformedHeader(f"expected {magic.decode()} magic, got {data[:2]!r}")
    pos = len(magic)
    values = []
    for _ in range(3):
        start, pos = _TOKEN.match(data, pos).span(1)
        token = data[start:pos]
        if not token:
            raise MalformedHeader("header ended before width, height and maxval")
        if not token.isdigit():
            raise MalformedHeader(f"non-numeric header token {token!r}")
        values.append(int(token))
    # b"".isspace() is False, so a header that ends at maxval is refused.
    if not data[pos : pos + 1].isspace():
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
    """(h, w, 3) uint8 array to binary PPM bytes, copying the pixels once
    (twice if image is not C-contiguous)."""
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"expected (h, w, 3) uint8 image, got {image.shape} {image.dtype}")
    h, w = image.shape[:2]
    return b"".join((b"P6\n%d %d\n255\n" % (w, h), np.ascontiguousarray(image)))


def encode_pgm(image: np.ndarray) -> bytes:
    """(h, w) uint8 array to binary PGM bytes, copying the pixels once
    (twice if image is not C-contiguous)."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError(f"expected (h, w) uint8 image, got {image.shape} {image.dtype}")
    h, w = image.shape
    return b"".join((b"P5\n%d %d\n255\n" % (w, h), np.ascontiguousarray(image)))


def encode_mask(classes: np.ndarray) -> bytes:
    """Class raster (0 background, 128 shadow, 255 foreground) to PGM bytes."""
    return encode_pgm(classes)


def render_overlay(frame: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of the frame with foreground pixels painted red
    and shadow pixels green; pixels of any other class keep their colour.
    Each class is painted by index, through the flat positions of its
    pixels, so a frame with little foreground costs about one copy and two
    compares."""
    if frame.shape[:2] != classes.shape:
        raise DimensionMismatch(f"frame {frame.shape[:2]} vs classes {classes.shape}")
    out = frame.copy()
    pixels = out.reshape(classes.size, -1)
    pixels[np.flatnonzero(classes == FOREGROUND)] = OVERLAY_FOREGROUND
    pixels[np.flatnonzero(classes == SHADOW)] = OVERLAY_SHADOW
    return out
