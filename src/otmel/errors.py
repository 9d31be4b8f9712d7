"""Exception hierarchy shared across the package.

The five direct subclasses of :class:`OtmelError` partition failures by
cause; the CLI maps each branch to one process exit code (see
``otmel.cli``).
"""


class OtmelError(Exception):
    """Base class for every error raised by this package."""


class ParseError(OtmelError):
    """Input could not be decoded: malformed CSV, JSON, or binary header."""


class DimensionError(OtmelError):
    """Operand shapes do not line up."""


class ConfigError(OtmelError):
    """A parameter is out of range or a size guard was violated."""


class DataError(OtmelError):
    """Dataset references do not resolve (missing, duplicate, or absent ids)."""


class OutputError(OtmelError):
    """An output file or directory could not be written."""


class NonFiniteError(ConfigError):
    """A numeric operand contains NaN or infinity."""


class ZeroNormRowError(ConfigError):
    """Cosine similarity was requested against an all-zero row."""


class FeatureFileError(ParseError):
    """A feature file violates the binary format; see the subclasses."""


class BadMagicError(FeatureFileError):
    """File does not start with the expected magic bytes."""


class UnsupportedVersionError(FeatureFileError):
    """File declares a format version this reader does not understand."""


class TruncatedPayloadError(FeatureFileError):
    """Payload length disagrees with the row/column counts in the header."""


class NonFinitePayloadError(FeatureFileError):
    """Payload holds NaN or infinity, which the format forbids."""
