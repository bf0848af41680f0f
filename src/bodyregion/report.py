"""Report emission in the evaluation-table layouts, plus DICOM tag write-back.

Tables carry one row per body region (n, sensitivity CI, specificity CI)
and one block per confounding factor; under-populated categories print NA.
Output is deterministic byte-for-byte for a fixed evaluation, so golden
files are stable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .dicomio import TAG_BODY_PART, ParsedFile, encode_element, parse_dicom
from .errors import BodyRegionError
from .records import SeriesRecord
from .stats import (CIResult, CountMetric, EvalStudy, FactorReport,
                    ResampleStreams, bootstrap_counts, ci_from_counts,
                    full_confusion, ratio_or_nan, weighted_sensitivity,
                    weighted_specificity)
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
                min_count: int = MIN_REGION_COUNT,
                streams: Optional[ResampleStreams] = None) -> List[RegionRow]:
    """Overall row plus one row per region with bootstrap CIs.

    Every CI is read from one resample pass over `evals`, drawn from
    `streams` (see `bootstrap_counts`), so each equals
    `bootstrap_ci(evals, metric, ...)` with the same arguments.
    """
    k = len(class_names)
    cm = full_confusion(evals, k, class_names)
    counts = bootstrap_counts(evals, k, resamples, seed, step_mm, streams)

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


def emit_region_report(rows: Sequence[RegionRow], path) -> None:
    header = ["region", "n", "sensitivity_95ci", "specificity_95ci"]
    table = [[r.name, str(r.n_images),
              _fmt_metric(r.sensitivity, r.sensitivity_ci),
              _fmt_metric(r.specificity, r.specificity_ci)] for r in rows]
    _emit_table(header, table, path)


def emit_factor_report(report: FactorReport, path) -> None:
    header = ["factor", "category", "n", "n_images",
              "sensitivity_95ci", "specificity_95ci", "p_value"]
    table = []
    for i, row in enumerate(report.rows):
        table.append([
            report.factor, row.category, str(row.n_units), str(row.n_images),
            _fmt_metric(row.sensitivity, row.sensitivity_ci),
            _fmt_metric(row.specificity, row.specificity_ci),
            _fmt_p(report.p_value) if i == 0 else ""])
    _emit_table(header, table, path)


def _emit_table(header: List[str], rows: List[List[str]], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# BodyPartExamined write-back


@dataclass
class TagChange:
    path: str
    action: str          # "rewritten", "skipped", "error"
    old_value: str = ""
    new_value: str = ""
    detail: str = ""


def _old_body_part(data: bytes, parsed: ParsedFile) -> str:
    """The value of the first top-level (0018,0015), "" when absent.

    `parsed` is `parse_dicom(data)`.
    """
    if parsed.body_part_span is None:
        return ""
    _, value_start, value_end = parsed.body_part_span
    return data[value_start:value_end].decode("latin-1").strip("\x00 ")


def _splice_body_part(data: bytes, parsed: ParsedFile,
                      region: BodyRegion) -> bytes:
    """Replace the first top-level (0018,0015), or insert one before the
    first top-level element with a larger tag, preserving every other byte.

    `parsed` is `parse_dicom(data)`, whose walk recorded both positions;
    the file is not walked again.
    """
    element = encode_element(TAG_BODY_PART, "CS",
                             CANONICAL_TAG_STRINGS[region],
                             explicit=parsed.explicit)
    if parsed.body_part_span is None:
        cut = parsed.body_part_insert_at
        return data[:cut] + element + data[cut:]
    element_start, _, value_end = parsed.body_part_span
    return data[:element_start] + element + data[value_end:]


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
        series_uid = SeriesRecord(**parsed.series_attrs).series_uid
        if series_uid not in region_by_series:
            changes.append(TagChange(path, "skipped",
                                     detail="series not in results"))
            continue
        region = region_by_series[series_uid]
        if region is None:
            changes.append(TagChange(path, "skipped",
                                     detail="series rejected as uncertain"))
            continue
        changes.append(TagChange(path, "rewritten",
                                 old_value=_old_body_part(data, parsed),
                                 new_value=CANONICAL_TAG_STRINGS[region]))
        if not dry_run:
            with open(path, "wb") as fh:
                fh.write(_splice_body_part(data, parsed, region))
    return changes


def write_change_log(changes: Sequence[TagChange], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "action", "old_value", "new_value", "detail"])
        for c in changes:
            writer.writerow([c.path, c.action, c.old_value, c.new_value, c.detail])
