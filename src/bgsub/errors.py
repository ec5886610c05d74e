"""Exception types shared across the package."""


class BgsubError(Exception):
    """Base class for all package-specific errors."""


class MalformedHeader(BgsubError):
    """Netpbm header could not be parsed."""


class TruncatedPayload(BgsubError):
    """Pixel payload is shorter than the header promises."""


class UnsupportedMaxval(BgsubError):
    """Netpbm maxval other than 255."""


class DimensionMismatch(BgsubError):
    """Two rasters that must agree in shape do not."""


class DimensionChangedMidStream(BgsubError):
    """A frame in a stream has different dimensions than the first frame."""


class InputUnavailable(BgsubError):
    """Input directory or stream cannot be read."""


class OutputUnwritable(BgsubError):
    """Output directory cannot be created or written."""


class SpecOutOfBounds(BgsubError):
    """Scene description places geometry outside the raster or time range."""


class LengthMismatch(BgsubError):
    """Two sequences that must have equal length do not."""
