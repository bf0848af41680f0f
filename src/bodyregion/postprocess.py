"""Series-level rule engine: abdomen-chest merge, breast rule, uncertainty
rejection, outlier-run removal, moving-average smoothing.

Stage order is merge -> breast -> uncertainty -> outlier removal ->
smoothing; a rejected series short-circuits label production. The internal
AbdomenChest class never survives this module.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .classify import Prediction
from .errors import EmptySeries, SchemaError
from .ingest import read_ndjson
from .taxonomy import BodyRegion

DEFAULT_MIN_RUN = 3
DEFAULT_WINDOW = 3
DEFAULT_UNCERTAINTY_THRESHOLD = 0.2


class SeriesStatus(enum.Enum):
    ACCEPTED = "Accepted"
    REJECTED_UNCERTAIN = "RejectedUncertain"


@dataclass
class SeriesResult:
    series_uid: str
    per_image: List[Prediction]
    final_labels: List[BodyRegion]
    series_status: SeriesStatus
    series_regions: set = field(default_factory=set)


def _merge_target(labels: Sequence[BodyRegion]) -> BodyRegion:
    """Predominant of Abdomen/Chest among non-AbdomenChest labels;
    ties and absence default to Abdomen."""
    n_abd = sum(1 for x in labels if x is BodyRegion.ABDOMEN)
    n_chest = sum(1 for x in labels if x is BodyRegion.CHEST)
    return BodyRegion.CHEST if n_chest > n_abd else BodyRegion.ABDOMEN


def merge_abdomen_chest(labels: Sequence[BodyRegion]) -> List[BodyRegion]:
    """Reassign every AbdomenChest label to the series' predominant class."""
    target = _merge_target(labels)
    return [target if x is BodyRegion.ABDOMEN_CHEST else x for x in labels]


def apply_breast_rule(labels: Sequence[BodyRegion], modality: str) -> List[BodyRegion]:
    """MRI only: a series that is at least half Breast becomes all Breast."""
    labels = list(labels)
    if modality != "MR" or not labels:
        return labels
    n_breast = sum(1 for x in labels if x is BodyRegion.BREAST)
    if n_breast * 2 >= len(labels):
        return [BodyRegion.BREAST] * len(labels)
    return labels


def reject_uncertain(predictions: Sequence[Prediction],
                     metric: str = "margin",
                     threshold: float = DEFAULT_UNCERTAINTY_THRESHOLD,
                     modality: str = "MR") -> SeriesStatus:
    """Uncertainty gate for MRI series; CT is always accepted.

    margin mode rejects when mean decision margin < threshold; entropy
    mode rejects when mean normalized entropy > threshold.
    """
    if not predictions:
        raise EmptySeries("no predictions")
    if modality != "MR":
        return SeriesStatus.ACCEPTED
    if metric == "margin":
        value = float(np.mean([p.margin for p in predictions]))
        rejected = value < threshold
    elif metric == "entropy":
        value = float(np.mean([p.entropy for p in predictions]))
        rejected = value > threshold
    else:
        raise ValueError(f"unknown uncertainty metric {metric!r}")
    return SeriesStatus.REJECTED_UNCERTAIN if rejected else SeriesStatus.ACCEPTED


def remove_outlier_runs(labels: Sequence[BodyRegion],
                        min_run: int = DEFAULT_MIN_RUN) -> List[BodyRegion]:
    """Relabel short interior runs to the longer adjacent run's label.

    Runs are measured on the input; strictly interior runs shorter than
    min_run take the label of the longer neighbor (ties go to the
    preceding run). Boundary runs are left alone.
    """
    labels = list(labels)
    if not labels:
        return labels
    runs = []  # (label, start, length)
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            runs.append((labels[start], start, i - start))
            start = i
    out = list(labels)
    for k in range(1, len(runs) - 1):
        label, start, length = runs[k]
        if length >= min_run:
            continue
        prev_label, _, prev_len = runs[k - 1]
        next_label, _, next_len = runs[k + 1]
        winner = next_label if next_len > prev_len else prev_label
        out[start:start + length] = [winner] * length
    return out


def smooth_labels(predictions: Sequence[Prediction],
                  window: int = DEFAULT_WINDOW) -> List[BodyRegion]:
    """Argmax of probability vectors averaged over a centered window.

    The window shrinks at the series ends. Averaging probabilities (not
    labels) is the only reading of a moving-average filter with a
    well-defined mean.
    """
    if not predictions:
        raise EmptySeries("no predictions")
    probs = np.stack([p.probabilities for p in predictions])
    classes = predictions[0].classes
    half = window // 2
    n = probs.shape[0]
    labels = []
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        labels.append(classes[int(np.argmax(probs[lo:hi].mean(axis=0)))])
    return labels


def _fold_abdomen_chest(probs: np.ndarray, classes, target: BodyRegion) -> np.ndarray:
    """Move AbdomenChest probability mass onto the merge target so later
    probability averaging cannot resurrect the internal class."""
    if BodyRegion.ABDOMEN_CHEST not in classes:
        return probs
    ac = classes.index(BodyRegion.ABDOMEN_CHEST)
    tgt = classes.index(target)
    out = probs.copy()
    out[:, tgt] += out[:, ac]
    out[:, ac] = 0.0
    return out


def run_pipeline(predictions: Sequence[Prediction], modality: str,
                 uncertainty_metric: str = "margin",
                 uncertainty_threshold: float = DEFAULT_UNCERTAINTY_THRESHOLD,
                 min_run: int = DEFAULT_MIN_RUN,
                 window: int = DEFAULT_WINDOW,
                 series_uid: str = "") -> SeriesResult:
    """Apply all five stages in order and assemble the series result."""
    predictions = list(predictions)
    if not predictions:
        raise EmptySeries(series_uid or "no predictions")
    classes = list(predictions[0].classes)

    labels = [p.label for p in predictions]
    target = _merge_target(labels)
    labels = merge_abdomen_chest(labels)
    probs = _fold_abdomen_chest(
        np.stack([p.probabilities for p in predictions]), classes, target)

    labels = apply_breast_rule(labels, modality)
    breast_override = bool(labels) and all(
        x is BodyRegion.BREAST for x in labels) and modality == "MR" and (
        BodyRegion.BREAST in classes)

    status = reject_uncertain(predictions, metric=uncertainty_metric,
                              threshold=uncertainty_threshold, modality=modality)
    if status is SeriesStatus.REJECTED_UNCERTAIN:
        return SeriesResult(series_uid, predictions, [], status, set())

    if not breast_override:
        relabeled = remove_outlier_runs(labels, min_run=min_run)
        for i, (old, new) in enumerate(zip(labels, relabeled)):
            if old is not new:
                probs[i] = 0.0
                probs[i][classes.index(new)] = 1.0
        smoothed_preds = [
            Prediction(p.sop_uid, tuple(classes), probs[i])
            for i, p in enumerate(predictions)]
        labels = smooth_labels(smoothed_preds, window=window)

    return SeriesResult(series_uid, predictions, labels,
                        SeriesStatus.ACCEPTED, set(labels))


# ---------------------------------------------------------------------------
# Per-series result NDJSON


def write_series_results(results: Sequence[SeriesResult], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            row = {
                "series_uid": r.series_uid,
                "status": r.series_status.value,
                "series_regions": sorted(x.value for x in r.series_regions),
                "images": [
                    {"sop_uid": p.sop_uid,
                     "label": r.final_labels[i].value if r.final_labels else None,
                     "margin": round(p.margin, 10),
                     "entropy": round(p.entropy, 10)}
                    for i, p in enumerate(r.per_image)],
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


_STATUS_NAMES = tuple(s.value for s in SeriesStatus)
_REGION_NAMES = tuple(r.value for r in BodyRegion)


def _results_row_problem(row: dict) -> Optional[str]:
    """What is wrong with a results row, or None."""
    uid, status = row.get("series_uid"), row.get("status")
    images, regions = row.get("images"), row.get("series_regions")
    if not isinstance(uid, str):
        return f"series_uid must be a string, got {uid!r}"
    if status not in _STATUS_NAMES:
        return (f"status must be one of {', '.join(_STATUS_NAMES)}, "
                f"got {status!r}")
    if not isinstance(images, list):
        return f"images must be a list, got {images!r}"
    if not (isinstance(regions, list)
            and all(r in _REGION_NAMES for r in regions)):
        return f"series_regions must be a list of body regions, got {regions!r}"
    return None


def read_series_results(path) -> List[dict]:
    """The rows of a results NDJSON file, as write_series_results wrote them.

    Each row must hold `series_uid` (a string), `status` (a SeriesStatus
    value), `images` (a list) and `series_regions` (a list of BodyRegion
    values); SchemaError names the line of the first row that does not.
    """
    rows = []
    for lineno, row in read_ndjson(path):
        problem = _results_row_problem(row)
        if problem is not None:
            raise SchemaError(problem, line=lineno)
        rows.append(row)
    return rows
