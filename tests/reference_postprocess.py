"""Reference series rule engine: one validating `Prediction` per image.

This is the engine `postprocess.run_pipeline` replaced, kept as the oracle
the matrix engine is checked against (tests/test_postprocess.py): each
image's vector is wrapped in a `Prediction` that renormalizes it, labels
are BodyRegion lists, each stage works on its own copy, and the smoothing
stage wraps every (folded, one-hot-edited) row in a new `Prediction`.
`write_series_results` writes the same NDJSON rows from its result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from bodyregion.errors import EmptySeries
from bodyregion.postprocess import (DEFAULT_MIN_RUN,
                                    DEFAULT_UNCERTAINTY_THRESHOLD,
                                    DEFAULT_WINDOW, SeriesStatus,
                                    remove_outlier_runs)
from bodyregion.taxonomy import BodyRegion

_SUM_TOL = 1e-9


class InvalidPrediction(ValueError):
    """A probability vector of the wrong length, with a negative or
    non-finite entry, or not summing to 1 within 1e-9."""


@dataclass
class Prediction:
    sop_uid: str
    classes: Tuple[BodyRegion, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] != len(self.classes):
            raise InvalidPrediction(
                f"{self.sop_uid}: probability vector has wrong length")
        if np.any(p < 0) or not np.isfinite(p).all():
            raise InvalidPrediction(f"{self.sop_uid}: invalid probabilities")
        total = float(p.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidPrediction(
                f"{self.sop_uid}: probabilities sum to {total}")
        self.probabilities = p / total

    @property
    def label(self) -> BodyRegion:
        return self.classes[int(np.argmax(self.probabilities))]

    @property
    def margin(self) -> float:
        """Difference between the top two class probabilities."""
        if len(self.probabilities) < 2:
            return 1.0
        top2 = np.partition(self.probabilities, -2)[-2:]
        return float(top2[1] - top2[0])

    @property
    def entropy(self) -> float:
        """Shannon entropy normalized to [0, 1] by ln(K)."""
        p = self.probabilities
        k = len(p)
        if k < 2:
            return 0.0
        nz = p[p > 0]
        return float(-(nz * np.log(nz)).sum() / np.log(k))


@dataclass
class SeriesResult:
    series_uid: str
    per_image: List[Prediction]
    final_labels: List[BodyRegion]
    series_status: SeriesStatus
    series_regions: set = field(default_factory=set)


def _merge_target(labels: Sequence[BodyRegion]) -> BodyRegion:
    n_abd = sum(1 for x in labels if x is BodyRegion.ABDOMEN)
    n_chest = sum(1 for x in labels if x is BodyRegion.CHEST)
    return BodyRegion.CHEST if n_chest > n_abd else BodyRegion.ABDOMEN


def merge_abdomen_chest(labels: Sequence[BodyRegion]) -> List[BodyRegion]:
    target = _merge_target(labels)
    return [target if x is BodyRegion.ABDOMEN_CHEST else x for x in labels]


def apply_breast_rule(labels: Sequence[BodyRegion],
                      modality: str) -> List[BodyRegion]:
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
    return (SeriesStatus.REJECTED_UNCERTAIN if rejected
            else SeriesStatus.ACCEPTED)


def smooth_labels(predictions: Sequence[Prediction],
                  window: int = DEFAULT_WINDOW) -> List[BodyRegion]:
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


def _fold_abdomen_chest(probs: np.ndarray, classes,
                        target: BodyRegion) -> np.ndarray:
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
                              threshold=uncertainty_threshold,
                              modality=modality)
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


def write_series_results(results: Sequence[SeriesResult], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            row = {
                "series_uid": r.series_uid,
                "status": r.series_status.value,
                "series_regions": sorted(x.value for x in r.series_regions),
                "images": [
                    {"sop_uid": p.sop_uid,
                     "label": (r.final_labels[i].value if r.final_labels
                               else None),
                     "margin": round(p.margin, 10),
                     "entropy": round(p.entropy, 10)}
                    for i, p in enumerate(r.per_image)],
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")
