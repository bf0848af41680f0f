"""Exception types shared across the pipeline, whose class names are the
reasons every per-item row gives; `read_text`, the one read of a whole
text input (CSV, JSON, YAML, uid list), which raises SchemaError for bytes
that are not UTF-8, and `read_json` on top of it; and `write_csv`, the one
writer of a stage table. NDJSON is read and written line by line in
ingest.py."""

import csv
import json
from collections import Counter
from dataclasses import dataclass, field


class BodyRegionError(Exception):
    """Base class for all pipeline errors."""


class Malformed(BodyRegionError):
    """Unparseable DICOM byte stream. Carries the byte offset of the fault."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class NotDicom(Malformed):
    """Input without the DICM preamble whose first bytes cannot be a DICOM
    element."""


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
    """Baseline training set has no examples."""


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


# The errors that end one item (a file, an image) without ending its stage.
ITEM_ERRORS = (BodyRegionError, OSError)


def _spell(reason: str, message) -> str:
    """The one spelling of a per-item outcome: `Reason: message`."""
    return f"{reason}: {message}"


def describe(error: BaseException) -> str:
    """`error` spelled with its class name as the reason."""
    return _spell(type(error).__name__, error)


@dataclass
class SkipReport:
    """The items a stage could not process: (path, reason, message) rows in
    the order added, and their count by reason. `add` and `note` return
    the row's spelling."""

    rows: list = field(default_factory=list)
    reasons: Counter = field(default_factory=Counter)

    def add(self, path: str, error: BaseException) -> str:
        return self.note(path, type(error).__name__, str(error))

    def note(self, path: str, reason: str, message: str) -> str:
        self.rows.append((path, reason, message))
        self.reasons[reason] += 1
        return _spell(reason, message)

    def __len__(self):
        return len(self.rows)

    def write_csv(self, path) -> None:
        """A `path,error` CSV, one spelled row per item."""
        write_csv(path, ["path", "error"],
                  ((item, _spell(reason, message))
                   for item, reason, message in self.rows))


def write_csv(path, header, rows) -> None:
    """`header`, then each row of the iterable `rows`, as UTF-8 CSV in the
    csv module's default dialect (CRLF line ends, minimal quoting)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def read_json(path):
    """The JSON value of the file at `path` (see `read_text`). Invalid JSON
    is a SchemaError naming its line."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}",
                          line=exc.lineno) from None
