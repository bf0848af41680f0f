"""Per-image class probabilities: score files and the centroid baseline.

A score file (`load_scores` / `save_scores`) holds one probability vector
per image over its class set. It is where an externally trained network
plugs in: the postprocess stage reads it. The desk-scale centroid baseline
writes one, so the full pipeline runs end to end without a trained
network. The baseline's feature is a 16 x 16 block mean of the letterboxed
image; `pixel_feature` computes it from the clipped image through cached
operators, without building the letterbox. Prediction invariants are
enforced at this boundary, never trusted from the producer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import preprocess
from .errors import BackendFailure, EmptyClass, NotNormalized, SchemaError
from .preprocess import NormalizedImage, letterbox_block_operators
from .taxonomy import CANONICAL_ORDER, BodyRegion

_SUM_TOL = 1e-9
_CSV_SUM_TOL = 1e-6


@dataclass
class Prediction:
    sop_uid: str
    classes: Tuple[BodyRegion, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] != len(self.classes):
            raise BackendFailure(
                f"{self.sop_uid}: probability vector has wrong length")
        if np.any(p < 0) or not np.isfinite(p).all():
            raise BackendFailure(f"{self.sop_uid}: invalid probabilities")
        total = float(p.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise BackendFailure(
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


# ---------------------------------------------------------------------------
# Score files


def load_scores(path, classes: Optional[Sequence[BodyRegion]] = None
                ) -> Tuple[Dict[str, np.ndarray], Tuple[BodyRegion, ...]]:
    """Read a score CSV: header `sop_uid,<class names>`, one row per image.

    Every entry must be finite and non-negative. Vectors within 1e-6 of
    summing to 1 are renormalized; anything further off raises
    NotNormalized. Duplicate sop_uids are data corruption.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("score file is empty")
        if not header or header[0] != "sop_uid":
            raise SchemaError("first column must be sop_uid")
        try:
            file_classes = tuple(BodyRegion(name) for name in header[1:])
        except ValueError as exc:
            raise SchemaError(f"unknown class in header: {exc}")
        if classes is not None and tuple(classes) != file_classes:
            raise SchemaError("score file classes do not match expected set")

        scores: Dict[str, np.ndarray] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError("wrong column count", line=lineno)
            uid = row[0]
            if uid in scores:
                raise SchemaError(f"duplicate sop_uid {uid}", line=lineno)
            try:
                vec = np.array([float(x) for x in row[1:]], dtype=np.float64)
            except ValueError:
                raise SchemaError("non-numeric probability", line=lineno)
            if not (np.isfinite(vec).all() and (vec >= 0).all()):
                raise SchemaError("probabilities must be finite and "
                                  "non-negative", line=lineno)
            total = float(vec.sum())
            if abs(total - 1.0) > _CSV_SUM_TOL:
                raise NotNormalized(
                    f"line {lineno}: probabilities sum to {total}")
            scores[uid] = vec / total
    return scores, file_classes


def save_scores(scores: Dict[str, np.ndarray],
                classes: Sequence[BodyRegion], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sop_uid"] + [c.value for c in classes])
        for uid in scores:
            writer.writerow([uid] + [f"{p:.10g}" for p in scores[uid]])


# ---------------------------------------------------------------------------
# Centroid baseline

_THUMB = 16


def centroid_feature(values: np.ndarray) -> np.ndarray:
    """The centroid baseline's feature of one preprocessed image.

    A 16 x 16 block-mean thumbnail (cropping any remainder), flattened.
    Training and scoring both use it, so a caller can keep these 256 values
    and drop the image.
    """
    h, w = values.shape
    bh, bw = max(1, h // _THUMB), max(1, w // _THUMB)
    cropped = values[:bh * _THUMB, :bw * _THUMB]
    return cropped.reshape(_THUMB, bh, _THUMB, bw).mean(axis=(1, 3)).ravel()


def pixel_feature(pixels: np.ndarray) -> np.ndarray:
    """`centroid_feature(preprocess_image(pixels).values)`, equal to
    round-off, without building the 224 x 224 letterbox: the clipped image
    goes straight through the shape's cached row and column operators."""
    h, w = np.shape(pixels)
    a, b = letterbox_block_operators(h, w, _THUMB)
    # Called through the module so a wrapper installed on
    # preprocess.clip_normalize (perfbench/tracing.py) sees this call.
    return (a @ preprocess.clip_normalize(pixels) @ b.T).ravel()


class CentroidBackend:
    """Nearest-centroid classifier over down-averaged images.

    Softmax over negative Euclidean distances to the per-class mean
    thumbnail, temperature 1. Immutable after training; safe to share.
    """

    def __init__(self, classes: Tuple[BodyRegion, ...], centroids: np.ndarray):
        self.classes = classes
        self._centroids = centroids  # (K, size*size)

    def predict(self, sop_uid: str, feature: np.ndarray) -> Prediction:
        """Score one `centroid_feature` vector."""
        dists = np.linalg.norm(self._centroids - feature, axis=1)
        logits = -dists
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        return Prediction(sop_uid, self.classes, p)

    def classify_batch(self, images):
        return [self.predict(image.source_sop_uid, centroid_feature(image.values))
                for image in images]


def fit_centroids(
        examples: Iterable[Tuple[np.ndarray, BodyRegion]],
        classes: Optional[Sequence[BodyRegion]] = None) -> CentroidBackend:
    """Fit per-class means of `centroid_feature` vectors, summed in order.

    `classes` defaults to the regions observed in the training set, in
    canonical order. Any advertised class without an example is an error.
    """
    sums: Dict[BodyRegion, np.ndarray] = {}
    counts: Dict[BodyRegion, int] = {}
    for feat, region in examples:
        if region in sums:
            sums[region] += feat
            counts[region] += 1
        else:
            sums[region] = feat.copy()
            counts[region] = 1
    if not sums:
        raise EmptyClass("empty training set")
    if classes is None:
        classes = tuple(r for r in CANONICAL_ORDER if r in sums)
    else:
        classes = tuple(classes)
        missing = [c for c in classes if c not in sums]
        if missing:
            raise EmptyClass(f"no training examples for {missing}")
    centroids = np.stack([sums[c] / counts[c] for c in classes])
    return CentroidBackend(classes, centroids)


def train_centroid_baseline(
        labeled: Iterable[Tuple[NormalizedImage, BodyRegion]],
        classes: Optional[Sequence[BodyRegion]] = None) -> CentroidBackend:
    """Fit per-class mean thumbnails of preprocessed images (see
    `fit_centroids`)."""
    return fit_centroids(((centroid_feature(image.values), region)
                          for image, region in labeled), classes)
