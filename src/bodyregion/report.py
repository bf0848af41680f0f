"""Report emission in the evaluation-table layouts, plus DICOM tag write-back.

Tables carry one row per body region (n, sensitivity CI, specificity CI)
and one block per confounding factor; under-populated categories print NA.
Output is deterministic byte-for-byte for a fixed evaluation, so golden
files are stable.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dicomio
from .dicomio import (TAG_TABLE, ParsedFile, encode_element, iter_elements,
                      parse_dicom)
from .errors import BodyRegionError
from .stats import (CIResult, CountMetric, EvalStudy, FactorReport,
                    bootstrap_counts, ci_from_counts, full_confusion,
                    ratio_or_nan, weighted_sensitivity, weighted_specificity)
# Kept importable from this module: callers resolve it through here.
from .stats import bootstrap_ci  # noqa: F401
from .taxonomy import CANONICAL_TAG_STRINGS, BodyRegion

MIN_REGION_COUNT = 5


@dataclass
class RegionRow:
    name: str
    n_images: int
    sensitivity: Optional[float]
    sensitivity_ci: Optional[CIResult]
    specificity: Optional[float]
    specificity_ci: Optional[CIResult]


def class_recall(idx: int) -> CountMetric:
    """Recall of class idx: its hits over its support, NaN without support."""
    @CountMetric
    def recall(counts: np.ndarray) -> np.ndarray:
        return ratio_or_nan(counts[..., idx, idx],
                            counts[..., idx, :].sum(axis=-1))
    return recall


def class_specificity(idx: int) -> CountMetric:
    """One-vs-rest TNR of class idx: tn / (tn + fp), NaN when tn + fp == 0."""
    @CountMetric
    def specificity(counts: np.ndarray) -> np.ndarray:
        negatives = (counts.sum(axis=(-2, -1))
                     - counts[..., idx, :].sum(axis=-1))
        fp = counts[..., :, idx].sum(axis=-1) - counts[..., idx, idx]
        return ratio_or_nan(negatives - fp, negatives)
    return specificity


def region_rows(evals: Sequence[EvalStudy], class_names: Sequence[str],
                resamples: int = 1000, level: float = 0.95, seed: int = 0,
                step_mm: float = 10.0,
                min_count: int = MIN_REGION_COUNT) -> List[RegionRow]:
    """Overall row plus one row per region with bootstrap CIs.

    Every CI is read from one resample pass over `evals`, so each equals
    `bootstrap_ci(evals, metric, ...)` with the same arguments.
    """
    k = len(class_names)
    cm = full_confusion(evals, k, class_names)
    counts = bootstrap_counts(evals, k, resamples, seed, step_mm)

    def ci(metric) -> CIResult:
        return ci_from_counts(counts, metric, class_names, level, seed)

    rows = [RegionRow("Overall", cm.total,
                      weighted_sensitivity(cm), ci(weighted_sensitivity),
                      weighted_specificity(cm), ci(weighted_specificity))]
    for idx, name in enumerate(class_names):
        support = int(cm.counts[idx].sum())
        if support == 0:
            continue
        if support < min_count:
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


def emit_region_report(rows: Sequence[RegionRow], path, fmt: str = "csv") -> None:
    header = ["region", "n", "sensitivity_95ci", "specificity_95ci"]
    table = [[r.name, str(r.n_images),
              _fmt_metric(r.sensitivity, r.sensitivity_ci),
              _fmt_metric(r.specificity, r.specificity_ci)] for r in rows]
    _emit_table(header, table, path, fmt)


def emit_factor_report(report: FactorReport, path, fmt: str = "csv") -> None:
    header = ["factor", "category", "n", "n_images",
              "sensitivity_95ci", "specificity_95ci", "p_value"]
    table = []
    for i, row in enumerate(report.rows):
        table.append([
            report.factor, row.category, str(row.n_units), str(row.n_images),
            _fmt_metric(row.sensitivity, row.sensitivity_ci),
            _fmt_metric(row.specificity, row.specificity_ci),
            _fmt_p(report.p_value) if i == 0 else ""])
    _emit_table(header, table, path, fmt)


def _emit_table(header: List[str], rows: List[List[str]], path, fmt: str) -> None:
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    elif fmt == "markdown":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("| " + " | ".join(header) + " |\n")
            fh.write("|" + "|".join("---" for _ in header) + "|\n")
            for row in rows:
                fh.write("| " + " | ".join(row) + " |\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# BodyPartExamined write-back

_BODY_PART_TAG = (0x0018, 0x0015)


@dataclass
class TagChange:
    path: str
    action: str          # "rewritten", "skipped", "error"
    old_value: str = ""
    new_value: str = ""
    detail: str = ""


def _splice_body_part(data: bytes, parsed: ParsedFile,
                      region: BodyRegion) -> Tuple[bytes, str]:
    """Replace or insert (0018,0015), preserving every other byte.

    `parsed` is `parse_dicom(data)`.
    """
    new_value = CANONICAL_TAG_STRINGS[region]
    element = encode_element(_BODY_PART_TAG, "CS", new_value,
                             explicit=parsed.explicit)
    old = ""
    insert_at = None
    for ref in iter_elements(data, parsed.dataset_start, parsed.explicit):
        if ref.tag == _BODY_PART_TAG:
            old = data[ref.value_start:ref.value_end].decode(
                "latin-1").strip("\x00 ")
            return (data[:ref.element_start] + element + data[ref.value_end:],
                    old)
        if ref.tag > _BODY_PART_TAG and insert_at is None:
            insert_at = ref.element_start
    if insert_at is None:
        insert_at = len(data)
    return data[:insert_at] + element + data[insert_at:], old


def write_body_part_tags(files: Sequence[str],
                         region_by_series: Dict[str, Optional[BodyRegion]],
                         dry_run: bool = False) -> List[TagChange]:
    """Rewrite BodyPartExamined per series; dry_run only logs the changes.

    `region_by_series` maps series_uid to the final region, or None for a
    series rejected as uncertain (skipped with a reason).
    """
    changes = []
    for path in files:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            parsed = parse_dicom(data)
        except (BodyRegionError, OSError) as exc:
            changes.append(TagChange(path, "error", detail=str(exc)))
            continue
        series_uid = parsed.series_attrs.get("series_uid", "")
        if series_uid not in region_by_series:
            changes.append(TagChange(path, "skipped",
                                     detail="series not in results"))
            continue
        region = region_by_series[series_uid]
        if region is None:
            changes.append(TagChange(path, "skipped",
                                     detail="series rejected as uncertain"))
            continue
        new_data, old = _splice_body_part(data, parsed, region)
        changes.append(TagChange(path, "rewritten", old_value=old,
                                 new_value=CANONICAL_TAG_STRINGS[region]))
        if not dry_run:
            with open(path, "wb") as fh:
                fh.write(new_data)
    return changes


def write_change_log(changes: Sequence[TagChange], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "action", "old_value", "new_value", "detail"])
        for c in changes:
            writer.writerow([c.path, c.action, c.old_value, c.new_value, c.detail])
