"""Series-level rule engine: abdomen-chest merge, breast rule, uncertainty
rejection, outlier-run removal, moving-average smoothing.

A series enters as its (n, K) score matrix: one row per image, in the
order of its sop_uids, and one column per class, as `load_scores` read
them. Stage order is merge -> breast -> uncertainty -> outlier removal ->
smoothing; a rejected series short-circuits label production. Each image's
margin and entropy are computed once per series, for the uncertainty gate
and for the results file. The AbdomenChest fold and the outlier one-hot
rows edit one copy of the matrix, never the caller's. The internal
AbdomenChest class never survives this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .errors import EmptySeries, SchemaError
from .ingest import read_ndjson, write_ndjson
from .taxonomy import FINAL_REGIONS, BodyRegion

# The rule engine's defaults are the pipeline config's.
DEFAULT_MIN_RUN = PipelineConfig.min_run
DEFAULT_WINDOW = PipelineConfig.smoothing_window
DEFAULT_UNCERTAINTY_METRIC = PipelineConfig.uncertainty_metric
DEFAULT_UNCERTAINTY_THRESHOLD = PipelineConfig.uncertainty_threshold


class SeriesStatus(enum.Enum):
    ACCEPTED = "Accepted"
    REJECTED_UNCERTAIN = "RejectedUncertain"


@dataclass
class SeriesResult:
    series_uid: str
    sop_uids: List[str]
    margin: np.ndarray   # per image
    entropy: np.ndarray  # per image
    final_labels: List[BodyRegion]  # per image; empty when rejected
    series_status: SeriesStatus
    series_regions: set = field(default_factory=set)


def margins(probs: np.ndarray) -> np.ndarray:
    """Per row, the difference between its top two class probabilities;
    1 with a single class."""
    if probs.shape[1] < 2:
        return np.ones(len(probs))
    top2 = np.partition(probs, -2, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0]


def entropies(probs: np.ndarray) -> np.ndarray:
    """Per row, Shannon entropy normalized to [0, 1] by ln(K); 0 with a
    single class."""
    n, k = probs.shape
    if k < 2:
        return np.zeros(n)
    nonzero = (row[row > 0] for row in probs)
    return np.array([-(p * np.log(p)).sum() for p in nonzero]) / np.log(k)


def merge_abdomen_chest(probs: np.ndarray, classes: Sequence[BodyRegion]
                        ) -> np.ndarray:
    """Each row's argmax class index, AbdomenChest merged away.

    With AbdomenChest among the classes, its labels go to the series'
    predominant of Abdomen/Chest (ties and absence go to Abdomen), and its
    probability mass is folded onto that class in `probs`, in place, so
    that later probability averaging cannot resurrect the internal class.
    """
    labels = probs.argmax(axis=1)
    if BodyRegion.ABDOMEN_CHEST in classes:
        regions = [classes[k] for k in labels]
        target = (BodyRegion.CHEST if regions.count(BodyRegion.CHEST)
                  > regions.count(BodyRegion.ABDOMEN) else BodyRegion.ABDOMEN)
        ac = classes.index(BodyRegion.ABDOMEN_CHEST)
        tgt = classes.index(target)
        labels[labels == ac] = tgt
        probs[:, tgt] += probs[:, ac]
        probs[:, ac] = 0.0
    return labels


def reject_uncertain(margin: np.ndarray, entropy: np.ndarray,
                     metric: str = DEFAULT_UNCERTAINTY_METRIC,
                     threshold: float = DEFAULT_UNCERTAINTY_THRESHOLD,
                     modality: str = "MR") -> SeriesStatus:
    """Uncertainty gate for MRI series, from their per-image margins and
    entropies; CT is always accepted.

    margin mode rejects when mean decision margin < threshold; entropy
    mode rejects when mean normalized entropy > threshold.
    """
    if not len(margin):
        raise EmptySeries("no predictions")
    if modality != "MR":
        return SeriesStatus.ACCEPTED
    if metric == "margin":
        rejected = float(np.mean(margin)) < threshold
    elif metric == "entropy":
        rejected = float(np.mean(entropy)) > threshold
    else:
        raise ValueError(f"unknown uncertainty metric {metric!r}")
    return SeriesStatus.REJECTED_UNCERTAIN if rejected else SeriesStatus.ACCEPTED


def remove_outlier_runs(labels: Sequence, min_run: int = DEFAULT_MIN_RUN
                        ) -> list:
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


def smooth_labels(probs: np.ndarray, window: int = DEFAULT_WINDOW
                  ) -> np.ndarray:
    """Per row, the argmax class index of the rows averaged over a
    centered window.

    The window shrinks at the series ends. Averaging probabilities (not
    labels) is the only reading of a moving-average filter with a
    well-defined mean.
    """
    if not len(probs):
        raise EmptySeries("no predictions")
    half = window // 2
    return np.array([probs[max(0, i - half):i + half + 1].mean(axis=0).argmax()
                     for i in range(len(probs))])


def run_pipeline(sop_uids: Sequence[str], probs: np.ndarray,
                 classes: Sequence[BodyRegion], modality: str,
                 uncertainty_metric: str = DEFAULT_UNCERTAINTY_METRIC,
                 uncertainty_threshold: float = DEFAULT_UNCERTAINTY_THRESHOLD,
                 min_run: int = DEFAULT_MIN_RUN,
                 window: int = DEFAULT_WINDOW,
                 series_uid: str = "") -> SeriesResult:
    """Apply all five stages in order to one series' (n, K) score matrix,
    whose rows follow `sop_uids` and whose columns follow `classes`, and
    assemble the series result."""
    if not len(sop_uids):
        raise EmptySeries(series_uid or "no predictions")
    classes = tuple(classes)
    # Each row is divided by its sum here and again before smoothing. The
    # rows already sum to 1 up to rounding, but on exact ties (0.2 + 0.1
    # folded against 0.3, say) that rounding picks the label, and the two
    # divisions keep the labels of the reference engine in
    # tests/reference_postprocess.py. The first also makes the copy that
    # the fold and the outlier rows edit.
    probs = probs / probs.sum(axis=1, keepdims=True)
    margin, entropy = margins(probs), entropies(probs)
    labels = merge_abdomen_chest(probs, classes)
    n_breast = (np.count_nonzero(labels == classes.index(BodyRegion.BREAST))
                if BodyRegion.BREAST in classes else 0)
    breast_override = modality == "MR" and 2 * n_breast >= len(labels)

    status = reject_uncertain(margin, entropy, metric=uncertainty_metric,
                              threshold=uncertainty_threshold,
                              modality=modality)
    if status is SeriesStatus.REJECTED_UNCERTAIN:
        return SeriesResult(series_uid, list(sop_uids), margin, entropy, [],
                            status, set())

    if breast_override:
        final = [BodyRegion.BREAST] * len(labels)
    else:
        relabeled = np.array(remove_outlier_runs(labels.tolist(),
                                                 min_run=min_run))
        changed = np.flatnonzero(relabeled != labels)
        probs[changed] = 0.0
        probs[changed, relabeled[changed]] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        final = [classes[k] for k in smooth_labels(probs, window=window)]
    return SeriesResult(series_uid, list(sop_uids), margin, entropy, final,
                        SeriesStatus.ACCEPTED, set(final))


# ---------------------------------------------------------------------------
# Per-series result NDJSON


def write_series_results(results: Sequence[SeriesResult], path) -> None:
    write_ndjson(path, map(_result_json, results))


def _result_json(r: SeriesResult) -> dict:
    labels = [x.value for x in r.final_labels] or [None] * len(r.sop_uids)
    return {
        "series_uid": r.series_uid,
        "status": r.series_status.value,
        "series_regions": sorted(x.value for x in r.series_regions),
        "images": [
            {"sop_uid": uid, "label": label,
             "margin": round(m, 10), "entropy": round(e, 10)}
            for uid, label, m, e in zip(r.sop_uids, labels, r.margin.tolist(),
                                        r.entropy.tolist())],
    }


@dataclass(frozen=True)
class ResultRow:
    """One row of a results NDJSON file, as read back."""
    series_uid: str
    status: SeriesStatus
    series_regions: Tuple[BodyRegion, ...]  # in file order: sorted by name
    labels: Tuple[Tuple[str, Optional[BodyRegion]], ...]  # (sop_uid, label)


def _member(enum_cls, value):
    """The member of `enum_cls` whose value is `value`, or None."""
    try:
        return enum_cls(value)
    except ValueError:
        return None


def _result_row(row: dict, line: int) -> ResultRow:
    """A results row, checked and typed; SchemaError names `line`."""
    uid, images = row.get("series_uid"), row.get("images")
    status = _member(SeriesStatus, row.get("status"))
    regions = row.get("series_regions")
    if not isinstance(uid, str):
        raise SchemaError(f"series_uid must be a string, got {uid!r}", line)
    if status is None:
        raise SchemaError(
            f"status must be one of {', '.join(s.value for s in SeriesStatus)}"
            f", got {row.get('status')!r}", line)
    if not isinstance(images, list):
        raise SchemaError(f"images must be a list, got {images!r}", line)
    series_regions = (tuple(_member(BodyRegion, r) for r in regions)
                      if isinstance(regions, list) else (None,))
    if not all(r in FINAL_REGIONS for r in series_regions):
        raise SchemaError("series_regions must be a list of body regions, "
                          f"got {regions!r}", line)
    # An accepted series carries the labels of its non-empty image list.
    if status is SeriesStatus.ACCEPTED and not series_regions:
        raise SchemaError(
            "an Accepted row must name at least one series region", line)
    labels = []
    for image in images:
        if not (isinstance(image, dict)
                and isinstance(image.get("sop_uid"), str)):
            raise SchemaError("images entries must be objects with a string "
                              f"sop_uid, got {image!r}", line)
        label = image.get("label")
        region = _member(BodyRegion, label)
        if label is not None and region not in FINAL_REGIONS:
            raise SchemaError("image label must be null or a body region, "
                              f"got {label!r}", line)
        labels.append((image["sop_uid"], region))
    return ResultRow(uid, status, series_regions, tuple(labels))


def read_series_results(path) -> List[ResultRow]:
    """The rows of a results NDJSON file, as write_series_results wrote them;
    SchemaError names the line of the first row `_result_row` rejects."""
    return [_result_row(row, lineno)
            for lineno, _, row in read_ndjson(path)]
