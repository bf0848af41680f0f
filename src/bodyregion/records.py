"""Parsed metadata hierarchy: study -> series -> image.

Records are plain frozen-ish dataclasses built once by the ingest layer and
treated as immutable afterwards; everything downstream (filtering, geometry,
classification) reads them without mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


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
    image_position_patient: Optional[tuple] = None   # (x, y, z) mm
    image_orientation_patient: Optional[tuple] = None  # 6 direction cosines
    pixels: Optional[np.ndarray] = None
    # Locator for lazy pixel decode: (source path, byte offset, byte length).
    pixel_data_offset: Optional[int] = None
    pixel_data_length: Optional[int] = None
    source_path: Optional[str] = None

    @property
    def has_pixel_data(self) -> bool:
        return self.pixels is not None or self.pixel_data_offset is not None

    def metadata_dict(self) -> dict:
        """Flat metadata view used by the NDJSON sidecar format."""
        return {
            "sop_uid": self.sop_uid,
            "rows": self.rows,
            "cols": self.cols,
            "bits_allocated": self.bits_allocated,
            "bits_stored": self.bits_stored,
            "samples_per_pixel": self.samples_per_pixel,
            "transfer_syntax_uid": self.transfer_syntax_uid,
            "sop_class_uid": self.sop_class_uid,
            "instance_number": self.instance_number,
            "image_position_patient": list(self.image_position_patient)
            if self.image_position_patient is not None else None,
            "image_orientation_patient": list(self.image_orientation_patient)
            if self.image_orientation_patient is not None else None,
            "source_path": self.source_path,
            "pixel_data_offset": self.pixel_data_offset,
            "pixel_data_length": self.pixel_data_length,
        }


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

    def find_series(self, series_uid: str) -> Optional[SeriesRecord]:
        for s in self.series:
            if s.series_uid == series_uid:
                return s
        return None
