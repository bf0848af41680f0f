"""Directory ingestion and the NDJSON metadata sidecar format.

ingest_tree walks a directory, parses every file it can, and groups images
by StudyInstanceUID then SeriesInstanceUID. Unparseable files land in a
skip report; the walk never aborts. The NDJSON sidecar carries the same
record hierarchy (one flat object per image) for cohorts whose pixel
codecs are unsupported; ingest -> export -> import is the identity on
metadata. Its fields and their conversions come from records.py.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator, List, Optional, Tuple

from .dicomio import parse_dicom
from .errors import ITEM_ERRORS, SchemaError, SkipReport
from .geometry import sort_series_images
from .records import (SIDECAR_FIELDS, ImageRecord, SeriesRecord, StudyRecord,
                      sidecar_row)


def _merge_attrs(records: dict, key, cls, attrs: dict):
    """Merge one file's `attrs` into the `cls` record at `key` in
    `records`, and return it. The first file naming the record builds it;
    a later one only fills the fields still at their defaults (first
    wins)."""
    record = records.get(key)
    if record is None:
        record = records[key] = cls(**attrs)
    else:
        for name, _, _, _, default in SIDECAR_FIELDS[cls]:
            if getattr(record, name) == default:
                setattr(record, name, attrs[name])
    return record


def tree_files(path) -> List[str]:
    """Every file under `path`, in sorted walk order."""
    files = []
    for root, dirs, names in os.walk(path):
        dirs.sort()
        files.extend(os.path.join(root, n) for n in sorted(names))
    return files


def ingest_tree(path, fields: Optional[Iterable[str]] = None
                ) -> Tuple[List[StudyRecord], SkipReport]:
    """Parse every file under `path` into the study/series/image hierarchy.

    Returns (studies sorted by uid, skip report). Grouping is a
    deterministic reduction: the file walk is sorted, and images within a
    series end up ordered by geometry (fallback InstanceNumber, then file
    order). The first file in walk order holds each SOPInstanceUID; a later
    file with the same one is a skip row that names the first. `fields`
    names the record fields to decode (see `parse_dicom`; all when None);
    grouping and ordering need the three UIDs, `instance_number`,
    `image_position_patient` and `image_orientation_patient`.
    """
    studies: dict = {}  # study uid -> StudyRecord
    series_by_uid: dict = {}  # (study uid, series uid) -> SeriesRecord
    first_path = {}  # sop uid -> the file that holds it
    skipped = SkipReport()
    for fp in tree_files(path):
        try:
            with open(fp, "rb") as fh:
                data = fh.read()
            parsed = parse_dicom(data, source_path=fp, fields=fields)
        except ITEM_ERRORS as exc:
            skipped.add(fp, exc)
            continue
        study_uid = parsed.study_attrs["study_uid"]
        key = study_uid, parsed.series_attrs["series_uid"]
        sop_uid = parsed.image.sop_uid
        if not (all(key) and sop_uid):
            skipped.add(fp, SchemaError("missing study/series/sop UID"))
            continue
        if sop_uid in first_path:
            skipped.add(fp, SchemaError(f"duplicate sop_uid {sop_uid}, "
                                        f"first in {first_path[sop_uid]}"))
            continue
        first_path[sop_uid] = fp
        _merge_attrs(studies, study_uid, StudyRecord, parsed.study_attrs)
        series = _merge_attrs(series_by_uid, key, SeriesRecord,
                              parsed.series_attrs)
        series.images.append(parsed.image)

    for (study_uid, _), series in sorted(series_by_uid.items()):
        sort_series_images(series)
        studies[study_uid].series.append(series)
    return [studies[uid] for uid in sorted(studies)], skipped


# ---------------------------------------------------------------------------
# NDJSON

# One encoder for every row; json.dumps(..., sort_keys=True) builds one per
# call.
_ENCODER = json.JSONEncoder(sort_keys=True)
# The name of each record's UID, its first field.
_UID_FIELDS = tuple(SIDECAR_FIELDS[cls][0][0]
                    for cls in (StudyRecord, SeriesRecord, ImageRecord))
# The field names a study's and a series' rows must agree on.
_SHARED_FIELDS = {cls: tuple(spec[0] for spec in SIDECAR_FIELDS[cls])
                  for cls in (StudyRecord, SeriesRecord)}


def read_ndjson(path) -> Iterator[Tuple[int, str, dict]]:
    """(line number, line, object) for each non-blank line of an NDJSON
    file, where `line` is the line's text stripped of surrounding
    whitespace.

    Lines end at "\n". A line that is not UTF-8, or not a JSON object,
    raises SchemaError with its number.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise SchemaError(f"invalid UTF-8 at byte {exc.start + 1}: "
                                  f"{exc.reason}", line=lineno)
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg}", line=lineno)
            if not isinstance(row, dict):
                raise SchemaError("each line must be a JSON object", line=lineno)
            yield lineno, line, row


def write_ndjson_lines(path, lines: Iterable[str]) -> None:
    """Each of `lines`, the text of one JSON object, as one line of UTF-8
    ended by "\n"."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_ndjson(path, rows: Iterable[dict]) -> None:
    """Each of `rows` as one line of UTF-8 JSON with sorted keys, the text
    of `json.dumps(row, sort_keys=True)`, ended by "\n"."""
    write_ndjson_lines(path, map(_ENCODER.encode, rows))


def write_metadata_ndjson(studies: List[StudyRecord], path) -> None:
    """Export the cohort metadata, one flat JSON object per image line."""
    write_ndjson(path, _metadata_rows(studies))


def _metadata_rows(studies: List[StudyRecord]) -> Iterator[dict]:
    for study in studies:
        study_part = sidecar_row(study)
        for series in study.series:
            series_part = {**study_part, **sidecar_row(series)}
            for image in series.images:
                yield {**series_part, **sidecar_row(image)}


def _uids(row: dict, lineno: int) -> Tuple[str, str]:
    """The (study, series) UIDs of `row`; all three records' UIDs must be
    non-empty strings."""
    for name in _UID_FIELDS:
        uid = row.get(name)
        if not uid or not isinstance(uid, str):
            raise SchemaError(f"{name} must be a non-empty string, got {uid!r}",
                              line=lineno)
    return row[_UID_FIELDS[0]], row[_UID_FIELDS[1]]


def _record(cls, row: dict, lineno: int):
    """A `cls` record from the metadata fields of `row`, which holds its
    UID (see `_uids`). A null or absent field keeps its default; any other
    value must convert."""
    kwargs = {}
    get = row.get
    for name, typ, convert, what, _ in SIDECAR_FIELDS[cls]:
        value = get(name)
        if value is None:
            continue
        try:
            kwargs[name] = value if value.__class__ is typ else convert(value)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"{name} must be {what}, got {value!r}",
                              line=lineno)
    return cls(**kwargs)


def _check_agrees(names: tuple, values: tuple, first: tuple, record: str,
                  lineno: int) -> None:
    """Raise SchemaError unless `values`, the raw values of the fields
    `names` in the row at `lineno`, equal `first`: (line, values) of the
    first row naming the same `record`. Equal objects agree: json.loads
    returns one NaN object, so NaN fields agree as tuple items do."""
    if values == first[1]:
        return
    for name, value, was in zip(names, values, first[1]):
        if value is not was and value != was:
            raise SchemaError(f"{record}: {name} is {value!r}, but line "
                              f"{first[0]} gives {was!r}", line=lineno)


def read_metadata_ndjson(path, lines: Optional[dict] = None
                         ) -> List[StudyRecord]:
    """Rebuild the record hierarchy from an NDJSON sidecar (pixels absent).

    A study's and a series' fields are read from the first row that names
    it; every later row naming it must carry the same raw values there.
    A `sop_uid` that an earlier row holds is a SchemaError.
    If `lines` is given, it maps the `id` of each image record returned to
    its line as read (see `read_ndjson`).
    """
    studies: dict = {}  # study uid -> StudyRecord, in first-seen order
    series_by_uid: dict = {}  # (study uid, series uid) -> SeriesRecord
    first_rows: dict = {}  # study or series key -> (line, raw field values)
    sop_lines = {}  # sop uid -> the line that holds it
    study_names = _SHARED_FIELDS[StudyRecord]
    series_names = _SHARED_FIELDS[SeriesRecord]
    for lineno, line, row in read_ndjson(path):
        study_uid, series_uid = _uids(row, lineno)
        image = _record(ImageRecord, row, lineno)
        if image.sop_uid in sop_lines:
            raise SchemaError(f"duplicate sop_uid {image.sop_uid}, first on "
                              f"line {sop_lines[image.sop_uid]}", line=lineno)
        sop_lines[image.sop_uid] = lineno
        if lines is not None:
            lines[id(image)] = line
        study_values = tuple(map(row.get, study_names))
        study = studies.get(study_uid)
        if study is None:
            study = studies[study_uid] = _record(StudyRecord, row, lineno)
            first_rows[study_uid] = lineno, study_values
        else:
            _check_agrees(study_names, study_values, first_rows[study_uid],
                          f"study {study_uid}", lineno)
        key = study_uid, series_uid
        series_values = tuple(map(row.get, series_names))
        series = series_by_uid.get(key)
        if series is None:
            series = series_by_uid[key] = _record(SeriesRecord, row, lineno)
            first_rows[key] = lineno, series_values
            study.series.append(series)
        else:
            _check_agrees(series_names, series_values, first_rows[key],
                          f"series {series_uid}", lineno)
        series.images.append(image)
    return list(studies.values())
