"""Exception types shared across the pipeline, and `read_text`, the one
read of a whole text input (CSV, JSON, YAML, uid list), which raises
SchemaError for bytes that are not UTF-8. NDJSON is decoded line by line
in `ingest.read_ndjson`."""


class BodyRegionError(Exception):
    """Base class for all pipeline errors."""


class Malformed(BodyRegionError):
    """Unparseable DICOM byte stream. Carries the byte offset of the fault."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class UnsupportedCodec(BodyRegionError):
    """Transfer syntax recognized but pixel decoding is not supported."""


class LengthMismatch(BodyRegionError):
    """Pixel payload length disagrees with rows*cols*bytes-per-sample."""


class SchemaError(BodyRegionError):
    """Structured input (NDJSON, score CSV, config) violates its schema."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class NotNormalized(BodyRegionError):
    """Probability vector does not sum to 1 within tolerance."""


class DegenerateOrientation(BodyRegionError):
    """Orientation cosines are not unit-norm or not orthogonal."""


class MissingGeometry(BodyRegionError):
    """Series lacks the position/orientation needed for the operation."""


class EmptySeries(BodyRegionError):
    """Operation requires a series with at least one image."""


class EmptyImage(BodyRegionError):
    """Operation requires a non-empty pixel matrix."""


class EmptyClass(BodyRegionError):
    """Baseline training set is missing examples for an advertised class."""


class EmptyMatrix(BodyRegionError):
    """Confusion matrix has zero total count."""


class DegenerateTable(BodyRegionError):
    """Contingency table has a zero expected count."""


class EmptyCohort(BodyRegionError):
    """Operation requires at least one study."""


class InvalidParams(BodyRegionError):
    """Numeric parameters outside their valid domain."""


class UnknownFactor(BodyRegionError):
    """Requested stratification factor is not extractable from metadata."""


class InvalidSpec(BodyRegionError):
    """Phantom specification is inconsistent (zero extents, bad spacing)."""


class ConfigError(BodyRegionError):
    """Configuration file contains unknown keys or out-of-range values."""


def read_text(path) -> str:
    """The file at `path` decoded as UTF-8. Bytes that are not UTF-8 are a
    SchemaError naming the file and the line they are on."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc.reason}", path=path,
                          line=data.count(b"\n", 0, exc.start) + 1) from None
