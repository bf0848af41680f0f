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
from typing import Iterable, Iterator, List, Tuple

from .dicomio import parse_dicom
from .errors import ITEM_ERRORS, SchemaError, SkipReport
from .geometry import sort_series_images
from .records import (SIDECAR_FIELDS, ImageRecord, SeriesRecord, StudyRecord,
                      sidecar_row)


def _merge_attrs(target, attrs: dict) -> None:
    """First-wins merge of per-file attributes onto a series/study record."""
    for key, value in attrs.items():
        if value in (None, ""):
            continue
        if getattr(target, key, None) in (None, "", "other"):
            setattr(target, key, value)


def tree_files(path) -> List[str]:
    """Every file under `path`, in sorted walk order."""
    files = []
    for root, dirs, names in os.walk(path):
        dirs.sort()
        files.extend(os.path.join(root, n) for n in sorted(names))
    return files


def ingest_tree(path) -> Tuple[List[StudyRecord], SkipReport]:
    """Parse every file under `path` into the study/series/image hierarchy.

    Returns (studies sorted by uid, skip report). Grouping is a
    deterministic reduction: the file walk is sorted, and images within a
    series end up ordered by geometry (fallback InstanceNumber, then file
    order).
    """
    studies: dict = {}
    skipped = SkipReport()
    for fp in tree_files(path):
        try:
            with open(fp, "rb") as fh:
                data = fh.read()
            parsed = parse_dicom(data, source_path=fp)
        except ITEM_ERRORS as exc:
            skipped.add(fp, exc)
            continue
        # The file's own study and series. The first file of each founds
        # it; later files fill in the attributes it lacks.
        study = StudyRecord(**parsed.study_attrs)
        series = SeriesRecord(**parsed.series_attrs)
        if not (study.study_uid and series.series_uid and parsed.image.sop_uid):
            skipped.add(fp, SchemaError("missing study/series/sop UID"))
            continue
        study = studies.setdefault(study.study_uid, study)
        _merge_attrs(study, parsed.study_attrs)
        known = study.find_series(series.series_uid)
        if known is None:
            study.series.append(series)
        else:
            series = known
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


def read_ndjson(path) -> Iterator[Tuple[int, dict]]:
    """(line number, object) for each non-blank line of an NDJSON file.

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
            yield lineno, row


def write_ndjson(path, rows: Iterable[dict]) -> None:
    """Each of `rows` as one line of UTF-8 JSON with sorted keys, the text
    of `json.dumps(row, sort_keys=True)`, ended by "\n"."""
    encode = _ENCODER.encode
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(encode(row) + "\n")


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


def read_metadata_ndjson(path) -> List[StudyRecord]:
    """Rebuild the record hierarchy from an NDJSON sidecar (pixels absent).

    A study's and a series' fields are read from the first row that names
    it; every later row naming it must carry the same raw values there.
    """
    studies: dict = {}  # study uid -> StudyRecord, in first-seen order
    series_by_uid: dict = {}  # (study uid, series uid) -> SeriesRecord
    first_rows: dict = {}  # study or series key -> (line, raw field values)
    study_names = _SHARED_FIELDS[StudyRecord]
    series_names = _SHARED_FIELDS[SeriesRecord]
    for lineno, row in read_ndjson(path):
        study_uid, series_uid = _uids(row, lineno)
        image = _record(ImageRecord, row, lineno)
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
