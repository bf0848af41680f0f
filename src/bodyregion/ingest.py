"""Directory ingestion and the NDJSON metadata sidecar format.

ingest_tree walks a directory, parses every file it can, and groups images
by StudyInstanceUID then SeriesInstanceUID. Unparseable files land in a
skip report; the walk never aborts. The NDJSON sidecar carries the same
record hierarchy (one flat object per image) for cohorts whose pixel
codecs are unsupported; ingest -> export -> import is the identity on
metadata.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Tuple

from .dicomio import parse_dicom
from .errors import BodyRegionError, SchemaError
from .geometry import sort_series_images
from .records import ImageRecord, SeriesRecord, StudyRecord


@dataclass
class SkipReport:
    entries: List[Tuple[str, str]] = field(default_factory=list)  # (path, error)

    def add(self, path: str, error: Exception) -> None:
        self.entries.append((path, f"{type(error).__name__}: {error}"))

    def __len__(self):
        return len(self.entries)


def _merge_attrs(target, attrs: dict) -> None:
    """First-wins merge of per-file attributes onto a series/study record."""
    for key, value in attrs.items():
        if value in (None, ""):
            continue
        if getattr(target, key, None) in (None, "", "other"):
            setattr(target, key, value)


def ingest_tree(path) -> Tuple[List[StudyRecord], SkipReport]:
    """Parse every file under `path` into the study/series/image hierarchy.

    Returns (studies sorted by uid, skip report). Grouping is a
    deterministic reduction: the file walk is sorted, and images within a
    series end up ordered by geometry (fallback InstanceNumber, then file
    order).
    """
    files = []
    for root, dirs, names in os.walk(path):
        dirs.sort()
        files.extend(os.path.join(root, n) for n in sorted(names))

    studies: dict = {}
    series_parent: dict = {}
    skipped = SkipReport()
    for fp in files:
        try:
            with open(fp, "rb") as fh:
                data = fh.read()
            parsed = parse_dicom(data, source_path=fp)
        except (BodyRegionError, OSError) as exc:
            skipped.add(fp, exc)
            continue
        study_uid = parsed.study_attrs.get("study_uid") or ""
        series_uid = parsed.series_attrs.get("series_uid") or ""
        if not study_uid or not series_uid or not parsed.image.sop_uid:
            skipped.add(fp, SchemaError("missing study/series/sop UID"))
            continue
        study = studies.get(study_uid)
        if study is None:
            study = studies[study_uid] = StudyRecord(study_uid=study_uid)
        _merge_attrs(study, parsed.study_attrs)
        series = study.find_series(series_uid)
        if series is None:
            series = SeriesRecord(series_uid=series_uid)
            study.series.append(series)
            series_parent[series_uid] = study_uid
        _merge_attrs(series, parsed.series_attrs)
        series.images.append(parsed.image)

    result = []
    for study_uid in sorted(studies):
        study = studies[study_uid]
        study.series.sort(key=lambda s: s.series_uid)
        for series in study.series:
            sort_series_images(series)
        result.append(study)
    return result, skipped


# ---------------------------------------------------------------------------
# NDJSON sidecar

_SERIES_KEYS = ("series_uid", "modality", "series_description",
                "frame_of_reference_uid", "slice_thickness",
                "convolution_kernel", "contrast_agent")
_STUDY_KEYS = ("study_uid", "patient_id", "patient_age", "patient_sex",
               "manufacturer", "institution", "body_part_examined",
               "procedure_description")


def write_metadata_ndjson(studies: List[StudyRecord], path) -> None:
    """Export the cohort metadata, one flat JSON object per image line."""
    with open(path, "w", encoding="utf-8") as fh:
        for study in studies:
            study_part = {k: getattr(study, k) for k in _STUDY_KEYS}
            for series in study.series:
                series_part = {k: getattr(series, k) for k in _SERIES_KEYS}
                for image in series.images:
                    row = dict(study_part)
                    row.update(series_part)
                    row.update(image.metadata_dict())
                    fh.write(json.dumps(row, sort_keys=True) + "\n")


def _optional_float(row: dict, key: str, lineno: int):
    value = row.get(key)
    try:
        return None if value is None else float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{key} must be a number, got {value!r}", line=lineno)


def read_metadata_ndjson(path) -> List[StudyRecord]:
    """Rebuild the record hierarchy from an NDJSON sidecar (pixels absent)."""
    studies: dict = {}
    order: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg}", line=lineno)
            if not isinstance(row, dict):
                raise SchemaError("each line must be a JSON object", line=lineno)
            for required in ("sop_uid", "series_uid", "study_uid"):
                if not row.get(required):
                    raise SchemaError(f"missing {required}", line=lineno)

            study_uid = row["study_uid"]
            study = studies.get(study_uid)
            if study is None:
                study = studies[study_uid] = StudyRecord(
                    study_uid=study_uid,
                    patient_id=row.get("patient_id") or "",
                    patient_age=_optional_float(row, "patient_age", lineno),
                    patient_sex=row.get("patient_sex"),
                    manufacturer=row.get("manufacturer"),
                    institution=row.get("institution"),
                    body_part_examined=row.get("body_part_examined"),
                    procedure_description=row.get("procedure_description"))
                order.append(study_uid)
            series = study.find_series(row["series_uid"])
            if series is None:
                series = SeriesRecord(
                    series_uid=row["series_uid"],
                    modality=row.get("modality") or "other",
                    series_description=row.get("series_description") or "",
                    frame_of_reference_uid=row.get("frame_of_reference_uid"),
                    slice_thickness=_optional_float(row, "slice_thickness",
                                                    lineno),
                    convolution_kernel=row.get("convolution_kernel"),
                    contrast_agent=row.get("contrast_agent"))
                study.series.append(series)

            def _vec(key, length):
                v = row.get(key)
                if v is None:
                    return None
                if not isinstance(v, list) or len(v) != length:
                    raise SchemaError(f"{key} must be a {length}-element array",
                                      line=lineno)
                return tuple(float(x) for x in v)

            try:
                image = ImageRecord(
                    sop_uid=row["sop_uid"],
                    rows=int(row.get("rows") or 0),
                    cols=int(row.get("cols") or 0),
                    bits_allocated=int(row.get("bits_allocated") or 0),
                    bits_stored=int(row.get("bits_stored") or 0),
                    samples_per_pixel=int(row.get("samples_per_pixel") or 1),
                    transfer_syntax_uid=row.get("transfer_syntax_uid") or "",
                    sop_class_uid=row.get("sop_class_uid") or "",
                    instance_number=int(row["instance_number"])
                    if row.get("instance_number") is not None else None,
                    image_position_patient=_vec("image_position_patient", 3),
                    image_orientation_patient=_vec("image_orientation_patient", 6),
                    source_path=row.get("source_path"),
                    pixel_data_offset=int(row["pixel_data_offset"])
                    if row.get("pixel_data_offset") is not None else None,
                    pixel_data_length=int(row["pixel_data_length"])
                    if row.get("pixel_data_length") is not None else None,
                )
            except (TypeError, ValueError) as exc:
                raise SchemaError(str(exc), line=lineno)
            series.images.append(image)
    return [studies[uid] for uid in order]
