"""Exception hierarchy for the codec."""


class CodecError(Exception):
    """Base class for all codec errors."""


class InsufficientData(CodecError):
    """Too few rows to estimate statistics."""


class NotSymmetric(CodecError):
    """Eigensolver input is not symmetric within tolerance."""


class BadSize(CodecError):
    """Dimension unsupported by the requested transform."""


class DimMismatch(CodecError):
    """Operands have incompatible dimensions."""


class Overflow(CodecError):
    """A quantized symbol exceeds the 32-bit signed range, or a table's
    reconstruction is not finite."""


class BadStep(CodecError):
    """Non-positive quantization base step."""


class AllZero(CodecError):
    """Energy report requested on an all-zero table."""


class DecodeError(CodecError):
    """Bitstream cannot be decoded."""


class ChecksumError(DecodeError):
    """The file's CRC does not match its bytes."""


class BadMagic(DecodeError):
    """File does not start with the container magic."""


class VersionUnsupported(DecodeError):
    """Container version is newer than this reader."""


class NoOverlap(CodecError):
    """R-D curves share no distortion range."""


class Diverged(CodecError):
    """Training produced a non-finite loss."""


class ConfigError(CodecError):
    """Invalid or unknown configuration key/value."""


class DataError(CodecError):
    """Input table missing or malformed."""
