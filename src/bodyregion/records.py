"""Parsed metadata hierarchy: study -> series -> image.

Records are plain frozen-ish dataclasses built once by the ingest layer and
treated as immutable afterwards; everything downstream (filtering, geometry,
classification) reads them without mutation.

The dataclasses are also the one definition of the metadata fields that the
DICOM reader fills and the NDJSON sidecar carries: `SIDECAR_FIELDS` derives
each field's conversion rule from its annotation.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Optional, Tuple


@dataclass
class ImageRecord:
    sop_uid: str
    rows: int = 0
    cols: int = 0
    bits_allocated: int = 0
    bits_stored: int = 0
    samples_per_pixel: int = 1
    transfer_syntax_uid: str = ""
    sop_class_uid: str = ""
    instance_number: Optional[int] = None
    image_position_patient: Optional[tuple] = field(  # (x, y, z) mm
        default=None, metadata={"length": 3})
    image_orientation_patient: Optional[tuple] = field(  # 6 direction cosines
        default=None, metadata={"length": 6})
    # Locator for lazy pixel decode: (source path, byte offset, byte length).
    pixel_data_offset: Optional[int] = None
    pixel_data_length: Optional[int] = None
    source_path: Optional[str] = None

    @property
    def has_pixel_data(self) -> bool:
        return self.pixel_data_offset is not None


@dataclass
class SeriesRecord:
    series_uid: str
    modality: str = "other"  # "CT", "MR", or "other"
    series_description: str = ""
    frame_of_reference_uid: Optional[str] = None
    slice_thickness: Optional[float] = None
    convolution_kernel: Optional[str] = None
    contrast_agent: Optional[str] = None
    images: list = field(default_factory=list)  # ordered ImageRecord list

    def __len__(self):
        return len(self.images)


@dataclass
class StudyRecord:
    study_uid: str
    patient_id: str = ""
    patient_age: Optional[float] = None  # years
    patient_sex: Optional[str] = None    # "F", "M", "O"
    manufacturer: Optional[str] = None
    institution: Optional[str] = None
    body_part_examined: Optional[str] = None
    procedure_description: Optional[str] = None
    series: list = field(default_factory=list)  # SeriesRecord list

    def image_count(self) -> int:
        return sum(len(s.images) for s in self.series)


# ---------------------------------------------------------------------------
# Field conversion rules


def _not_a_string(value):
    raise TypeError(value)


def _vector_rule(length: int) -> Callable:
    def convert(value) -> tuple:
        if not isinstance(value, list) or len(value) != length:
            raise TypeError(value)
        return tuple(map(float, value))
    return convert


# Annotation -> (type, conversion, what a value must be).
_RULES = {"str": (str, _not_a_string, "a string"),
          "int": (int, int, "an integer"),
          "float": (float, float, "a number")}


def _sidecar_fields(cls) -> Tuple[tuple, ...]:
    """The metadata fields of record class `cls`, in declaration order, as
    (name, type, convert, what, default) tuples.

    A field annotated `str`, `int` or `float` (optionally `Optional[...]`),
    or `Optional[tuple]` with a `length` in its metadata (a fixed-length
    float vector), is a metadata field; the child lists are not.
    A value of class `type` is taken as it is (`type` is None for a vector,
    so a list always converts); any other goes through `convert`, which
    raises TypeError, ValueError or OverflowError if it cannot convert it;
    `what` says what a value must be. The first field, the only one without
    a default, is the record's UID; its `default` is "".
    """
    specs = []
    for f in fields(cls):
        kind = f.type.removeprefix("Optional[").removesuffix("]")
        if kind == "tuple":
            length = f.metadata["length"]
            rule = (None, _vector_rule(length),
                    f"a {length}-element array of numbers")
        elif kind in _RULES:
            rule = _RULES[kind]
        else:
            continue
        specs.append((f.name, *rule, "" if f.default is MISSING else f.default))
    return tuple(specs)


# Record class -> its metadata fields (see `_sidecar_fields`).
SIDECAR_FIELDS = {cls: _sidecar_fields(cls)
                  for cls in (ImageRecord, SeriesRecord, StudyRecord)}


def sidecar_row(record) -> dict:
    """The record's metadata fields as a flat dict (vectors as tuples)."""
    return {name: getattr(record, name)
            for name, _, _, _, _ in SIDECAR_FIELDS[type(record)]}
