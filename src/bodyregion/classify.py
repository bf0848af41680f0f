"""Per-image class probabilities: score files and the centroid baseline.

A score file (`load_scores` / `save_scores`) holds one probability vector
per image over its class set. It is where an externally trained network
plugs in: the postprocess stage reads it. The desk-scale centroid baseline
writes one, so the full pipeline runs end to end without a trained
network. The baseline's feature is a 16 x 16 block mean of the letterboxed
image; `pixel_feature` computes it from the integer pixels: exact integer
moments give the mean and std, the clipped, centred matrix goes through
the shape's cached operators, and the normalization is applied to the 256
block values, so neither the normalized image nor the letterbox is built.
A score vector is a plain float64 array in class order; `load_scores` is
the one place where vectors from outside are checked (finite,
non-negative, summing to 1), never trusted from the producer.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from .errors import (EmptyClass, NotNormalized, SchemaError, read_text,
                     write_csv)
from .preprocess import NormalizedImage, letterbox_block_operators
from .taxonomy import CANONICAL_ORDER, BodyRegion

_CSV_SUM_TOL = 1e-6


# ---------------------------------------------------------------------------
# Score files


def load_scores(path) -> Tuple[Dict[str, np.ndarray], Tuple[BodyRegion, ...]]:
    """Read a score CSV: header `sop_uid,<class names>`, one row per image.

    Every entry must be finite and non-negative. Vectors within 1e-6 of
    summing to 1 are renormalized; anything further off raises
    NotNormalized. Duplicate sop_uids are data corruption. A header with
    AbdomenChest must also list Abdomen, its merge target.
    """
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("score file is empty", line=1)
        if not header or header[0] != "sop_uid":
            raise SchemaError("first column must be sop_uid", line=1)
        try:
            file_classes = tuple(BodyRegion(name) for name in header[1:])
        except ValueError as exc:
            raise SchemaError(f"unknown class in header: {exc}", line=1)
        # AbdomenChest merges into Abdomen unless Chest outvotes it, so a
        # header without Abdomen leaves the merge without its target.
        if (BodyRegion.ABDOMEN_CHEST in file_classes
                and BodyRegion.ABDOMEN not in file_classes):
            raise SchemaError("header lists AbdomenChest but not Abdomen",
                              line=1)

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
    write_csv(path, ["sop_uid"] + [c.value for c in classes],
              ([uid] + [f"{p:.10g}" for p in vec]
               for uid, vec in scores.items()))


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


@functools.lru_cache(maxsize=32)
def _feature_operators(h: int, w: int):
    """The shape's `letterbox_block_operators` and the feature of an
    all-ones image, `(A 1)(B 1)^T` flattened, cached beside them."""
    a, b = letterbox_block_operators(h, w, _THUMB)
    ones = np.outer(a.sum(axis=1), b.sum(axis=1)).ravel()
    ones.flags.writeable = False
    return a, b, ones


def _exact_moments(pixels: np.ndarray):
    """`(c, d, s1, s2)`: an integer `c` within 1 of the mean, the float64
    matrix `d = pixels - c`, and `s1 = sum(d)`, `s2 = sum(d**2)` as exact
    Python ints.

    `c` is the floor of the mean, from numpy's integer sum (exact below
    2**48 pixels). A float64 sum of integers is exact in any order while
    every partial sum stays below 2**53, so `s2` is summed over flat
    chunks of at most 2**53 // maxabs**2 elements, `maxabs` bounding |d|
    by the dtype's range: one chunk for any 16-bit image up to 2**21
    pixels.
    """
    info = np.iinfo(pixels.dtype)
    chunk = 2**53 // (info.max - info.min) ** 2
    n = pixels.size
    total = int(pixels.sum())
    c = total // n
    d = np.subtract(pixels, c, dtype=np.float64)
    flat = d.ravel()
    s2 = 0
    for start in range(0, n, chunk):
        part = flat[start:start + chunk]
        s2 += int(part @ part)
    return c, d, total - n * c, s2


def pixel_feature(pixels: np.ndarray) -> np.ndarray:
    """`centroid_feature(preprocess_image(pixels).values)`, equal to
    round-off, without building the normalized image or the 224 x 224
    letterbox.

    `pixels` is an 8- or 16-bit integer matrix, as `decode_pixels` returns
    it; any other dtype raises TypeError. Mean and std come from exact
    integer moments (`_exact_moments`), and only the centred matrix is
    clipped to mean +/- 4 std before the shape's cached operators reduce
    it. Normalizing is affine, so it is applied to the 256 block values:
    `(A d B^T - m (A 1)(B 1)^T) / (2 std)`, with `m` the mean of `d`. A
    constant image gives zeros.
    """
    pixels = np.asarray(pixels)
    if pixels.dtype.kind not in "iu" or pixels.dtype.itemsize > 2:
        raise TypeError(f"pixel_feature takes an 8- or 16-bit integer "
                        f"matrix, not {pixels.dtype}")
    h, w = pixels.shape
    a, b, ones = _feature_operators(h, w)
    _, d, s1, s2 = _exact_moments(pixels)
    n = pixels.size
    spread = n * s2 - s1 * s1
    if spread == 0:
        return np.zeros(_THUMB * _THUMB)
    m = s1 / n
    std = math.sqrt(spread / (n * n))
    np.clip(d, m - 4.0 * std, m + 4.0 * std, out=d)
    feat = (a @ d @ b.T).ravel()
    feat -= m * ones
    feat /= 2.0 * std
    return feat


class CentroidBackend:
    """Nearest-centroid classifier over down-averaged images.

    Softmax over negative Euclidean distances to the per-class mean
    thumbnail, temperature 1. Immutable after training; safe to share.
    """

    def __init__(self, classes: Tuple[BodyRegion, ...], centroids: np.ndarray):
        self.classes = classes
        self._centroids = centroids  # (K, size*size)

    def predict(self, feature: np.ndarray) -> np.ndarray:
        """The probability vector, in `classes` order, of one
        `centroid_feature` vector."""
        dists = np.linalg.norm(self._centroids - feature, axis=1)
        logits = -dists
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        return p

    def classify_batch(self, images):
        """The probability vector of each image, in order."""
        return [self.predict(centroid_feature(image.values))
                for image in images]


def fit_centroids(
        examples: Iterable[Tuple[np.ndarray, BodyRegion]]) -> CentroidBackend:
    """Fit per-class means of `centroid_feature` vectors, summed in order,
    over the regions observed in the training set, in canonical order."""
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
    classes = tuple(r for r in CANONICAL_ORDER if r in sums)
    centroids = np.stack([sums[c] / counts[c] for c in classes])
    return CentroidBackend(classes, centroids)


def train_centroid_baseline(
        labeled: Iterable[Tuple[NormalizedImage, BodyRegion]]
        ) -> CentroidBackend:
    """Fit per-class mean thumbnails of preprocessed images (see
    `fit_centroids`)."""
    return fit_centroids((centroid_feature(image.values), region)
                         for image, region in labeled)
