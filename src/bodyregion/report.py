"""Report emission in the evaluation-table layouts, plus DICOM tag write-back.

Tables carry one row per body region (n, sensitivity CI, specificity CI)
and one block per confounding factor; under-populated categories print NA.
Output is deterministic byte-for-byte for a fixed evaluation, so golden
files are stable.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dicomio import TAG_BODY_PART, ParsedFile, encode_element, parse_dicom
from .errors import ITEM_ERRORS, SchemaError, SkipReport, read_json, write_csv
from .postprocess import SeriesStatus
from .stats import (CIResult, ClassSums, EvalStudy, FactorReport,
                    ci_from_counts, class_recall, class_specificity,
                    full_confusion, weighted_sensitivity,
                    weighted_specificity)
# Kept importable from this module: callers resolve it through here.
from .stats import bootstrap_ci  # noqa: F401
from .taxonomy import CANONICAL_TAG_STRINGS, BodyRegion

MIN_REGION_COUNT = 5
# The record fields tag-write decodes from each file.
TAG_WRITE_FIELDS = frozenset({"sop_uid", "body_part_examined"})


@dataclass
class RegionRow:
    name: str
    n_images: int
    sensitivity: Optional[float]
    sensitivity_ci: Optional[CIResult]
    specificity: Optional[float]
    specificity_ci: Optional[CIResult]


def region_rows(evals: Sequence[EvalStudy], sums: ClassSums,
                class_names: Sequence[str],
                level: float = 0.95) -> List[RegionRow]:
    """Overall row plus one row per region with bootstrap CIs.

    Every CI is read from `sums`, the class sums of the `bootstrap_counts`
    of `evals`, so each equals `bootstrap_ci(evals, metric, ...)` with the
    same arguments. A region with fewer than MIN_REGION_COUNT images gets
    NA metrics.
    """
    cm = full_confusion(evals, len(class_names), class_names)

    def ci(metric) -> CIResult:
        return ci_from_counts(sums, metric, level)

    rows = [RegionRow("Overall", cm.total,
                      weighted_sensitivity(cm), ci(weighted_sensitivity),
                      weighted_specificity(cm), ci(weighted_specificity))]
    for idx, name in enumerate(class_names):
        support = int(cm.counts[idx].sum())
        if support == 0:
            continue
        if support < MIN_REGION_COUNT:
            rows.append(RegionRow(name, support, None, None, None, None))
            continue
        recall, tnr = class_recall(idx), class_specificity(idx)
        rows.append(RegionRow(name, support, recall(cm), ci(recall),
                              tnr(cm), ci(tnr)))
    return rows


def _fmt_metric(value: Optional[float], ci: Optional[CIResult]) -> str:
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return "NA"
    text = f"{100 * value:.1f}"
    if ci is not None and np.isfinite(ci.lo) and np.isfinite(ci.hi):
        text += f" ({100 * ci.lo:.1f} - {100 * ci.hi:.1f})"
    return text


def _fmt_p(p: Optional[float]) -> str:
    if p is None:
        return ""
    return f"{p:.3g}" if p >= 0.001 else f"{p:.1e}"


def emit_region_report(rows: Sequence[RegionRow], path) -> None:
    write_csv(path, ["region", "n", "sensitivity_95ci", "specificity_95ci"],
              ([r.name, str(r.n_images),
                _fmt_metric(r.sensitivity, r.sensitivity_ci),
                _fmt_metric(r.specificity, r.specificity_ci)] for r in rows))


def emit_factor_report(report: FactorReport, path) -> None:
    header = ["factor", "category", "n", "n_images",
              "sensitivity_95ci", "specificity_95ci", "p_value"]
    write_csv(path, header, (
        [report.factor, row.category, str(row.n_units), str(row.n_images),
         _fmt_metric(row.sensitivity, row.sensitivity_ci),
         _fmt_metric(row.specificity, row.specificity_ci),
         _fmt_p(report.p_value) if i == 0 else ""]
        for i, row in enumerate(report.rows)))


@dataclass(frozen=True)
class Summary:
    """The headline figures of an evaluation, as summary.json holds them."""

    n_studies: int
    n_images: int
    overall_sensitivity: float
    # None where weighted specificity is undefined (the truth holds a single
    # class); JSON has no NaN, so it is written as null.
    overall_specificity: Optional[float]
    tag_agreement: Dict[str, float]  # tag name -> agreement rate
    seed: Optional[int]  # of the resample pass; recorded, not checked


def write_summary(summary: Summary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n")


def _check_number(name: str, value, nullable: bool = False) -> None:
    """Raise SchemaError unless `value` is an int or float that is not a
    bool, NaN or infinite (json reads NaN), or is None where `nullable`."""
    if not ((value is None and nullable)
            or (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value))):
        raise SchemaError(f"summary {name} must be a number, got {value!r}")


def read_summary(path) -> Summary:
    """The Summary of a summary.json. Invalid JSON, a count or rate that is
    not a finite number (save a null specificity), or a `tag_agreement` that
    is present but not an object of finite numbers is a SchemaError."""
    data = read_json(path)
    data = data if isinstance(data, dict) else {}  # then it lacks every key
    for key in ("n_studies", "n_images", "overall_sensitivity"):
        _check_number(key, data.get(key))
    _check_number("overall_specificity", data.get("overall_specificity"),
                  nullable="overall_specificity" in data)
    agreement = data.get("tag_agreement", {})
    if not isinstance(agreement, dict):
        raise SchemaError(
            f"summary tag_agreement must be an object, got {agreement!r}")
    for tag, value in agreement.items():
        _check_number(f"tag_agreement {tag}", value)
    return Summary(data["n_studies"], data["n_images"],
                   data["overall_sensitivity"], data["overall_specificity"],
                   tag_agreement=agreement, seed=data.get("seed"))


# ---------------------------------------------------------------------------
# BodyPartExamined write-back


@dataclass
class TagChange:
    path: str
    action: str          # "rewritten", "skipped", "error"
    old_value: str = ""
    new_value: str = ""
    detail: str = ""


def _replace_body_part(path: str, data: bytes, parsed: ParsedFile,
                       value: str) -> None:
    """Replace the file at `path`, whose bytes `data` parsed as `parsed`,
    with a copy in which a new (0018,0015) of `value` takes the byte range
    the parse recorded: the one top-level (0018,0015), or the empty range
    where it would go. The copy goes to a temporary file in the same
    directory, which takes the original's mode and is renamed over it; on
    any failure it is removed, so no file is left half-written."""
    element = encode_element(TAG_BODY_PART, "CS", value,
                             explicit=parsed.explicit)
    head_end, tail_start = parsed.body_part_span
    view = memoryview(data)
    target = os.path.realpath(path)
    fd, temp = tempfile.mkstemp(prefix=".tag-write-",
                                dir=os.path.dirname(target))
    try:
        with open(fd, "wb") as fh:
            fh.writelines((view[:head_end], element, view[tail_start:]))
        shutil.copymode(target, temp)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def write_body_part_tags(files: Sequence[str],
                         region_by_sop: Dict[str, Optional[BodyRegion]],
                         dry_run: bool = False
                         ) -> Tuple[List[TagChange], SkipReport]:
    """Rewrite BodyPartExamined per image; dry_run only logs the changes.

    `region_by_sop` maps sop_uid to the region, or None for an image of a
    series rejected as uncertain. Returns a change per file, and the report
    of the files not rewritten, whose spellings are their changes' details.
    Each file is parsed for TAG_WRITE_FIELDS only: a value of another field
    that does not decode (a bad DS, say) is no error here.
    """
    changes = []
    skipped = SkipReport()
    for path in files:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            parsed = parse_dicom(data, fields=TAG_WRITE_FIELDS)
        except ITEM_ERRORS as exc:
            changes.append(TagChange(path, "error",
                                     detail=skipped.add(path, exc)))
            continue
        sop_uid = parsed.image.sop_uid
        if sop_uid not in region_by_sop:
            changes.append(TagChange(path, "skipped", detail=skipped.note(
                path, "NotInResults", "image not in results")))
            continue
        region = region_by_sop[sop_uid]
        if region is None:
            changes.append(TagChange(path, "skipped", detail=skipped.note(
                path, SeriesStatus.REJECTED_UNCERTAIN.value,
                "series rejected as uncertain")))
            continue
        old_value = parsed.study_attrs["body_part_examined"] or ""
        new_value = CANONICAL_TAG_STRINGS[region]
        if not dry_run:
            try:
                _replace_body_part(path, data, parsed, new_value)
            except OSError as exc:
                changes.append(TagChange(path, "error",
                                         detail=skipped.add(path, exc)))
                continue
        changes.append(TagChange(path, "rewritten", old_value=old_value,
                                 new_value=new_value))
    return changes, skipped


def write_change_log(changes: Sequence[TagChange], path) -> None:
    write_csv(path, ["path", "action", "old_value", "new_value", "detail"],
              ([c.path, c.action, c.old_value, c.new_value, c.detail]
               for c in changes))
