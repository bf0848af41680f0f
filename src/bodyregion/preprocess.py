"""Per-image normalization chain and the 224 x 224 model-input letterbox.

The normalization is intensity-affine invariant: statistics are computed
once over the raw matrix, values are clipped to mean +/- 4 std and mapped
by (v - mean) / (2 std), so outputs always lie in [-2, 2]. Letterbox
resizing scales the longer side to 224 with centered zero padding; that
224 x 224 matrix is the model input (`preprocess_image`). A consumer that
only block-averages the letterbox (the centroid baseline) can skip it:
resize, padding and block mean are linear, so `letterbox_block_operators`
folds them into one cached matrix per axis. The normalization is affine,
so such a consumer can also apply it to the block values and skip
`clip_normalize`; `classify.pixel_feature` does, and this chain is its
test oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import EmptyImage

TARGET_SIZE = 224

@dataclass
class NormalizedImage:
    values: np.ndarray            # float64 in [-2, 2]
    source_sop_uid: str
    original_shape: Tuple[int, int]


def clip_normalize(pixels: np.ndarray) -> np.ndarray:
    """Clip to mean +/- 4 std, then map by (v - mean) / (2 std).

    Statistics come from the raw matrix (population std, computed once and
    reused for both steps). A constant image maps to all zeros. One float64
    buffer holds the squared deviations, then the result. The float64 mean
    of integer pixels is exact in any summation order, so it equals the
    mean of their float64 copy.
    """
    pixels = np.asarray(pixels)
    if pixels.size == 0:
        raise EmptyImage("cannot normalize an empty matrix")
    if pixels.dtype.kind == "f" and pixels.dtype != np.float64:
        pixels = pixels.astype(np.float64)
    mean = float(pixels.mean(dtype=np.float64))
    values = np.subtract(pixels, mean, dtype=np.float64)
    np.multiply(values, values, out=values)
    std = math.sqrt(values.sum() / values.size)
    if std == 0.0:
        return np.zeros_like(values)
    np.clip(pixels, mean - 4.0 * std, mean + 4.0 * std, out=values)
    values -= mean
    values /= 2.0 * std
    # Round-off at the clip boundary can poke a few ulp past the bound.
    return np.clip(values, -2.0, 2.0, out=values)


def _axis_taps(n_src: int, n_dst: int):
    """Per output index along one axis: the two source taps and the weight
    of the second. Sample coordinates are pixel-area aligned and clamped to
    the source grid."""
    coords = (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5
    coords = np.clip(coords, 0.0, n_src - 1)
    lo = np.floor(coords).astype(np.int64)
    return lo, np.minimum(lo + 1, n_src - 1), coords - lo


def _bilinear_resize(values: np.ndarray, ch: int, cw: int) -> np.ndarray:
    """Separable bilinear resample with edge clamping (constant-preserving).

    Every output element is (v[y0, x0] (1 - fx) + v[y0, x1] fx) (1 - fy)
    + (v[y1, x0] (1 - fx) + v[y1, x1] fx) fy, evaluated in that order. The
    horizontal pass runs on whichever row set is smaller: all source rows
    when upsampling, only the gathered rows when downsampling.
    """
    h, w = values.shape
    y0, y1, fy = _axis_taps(h, ch)
    x0, x1, fx = _axis_taps(w, cw)
    gx = 1 - fx

    def across(rows):
        out = rows[:, x0]
        out *= gx
        right = rows[:, x1]
        right *= fx
        out += right
        return out

    if ch >= h:
        rows = across(values)
        top, bot = rows[y0], rows[y1]
    else:
        top, bot = across(values[y0]), across(values[y1])
    fy = fy[:, None]
    top *= 1 - fy
    bot *= fy
    top += bot
    return top


def _content_shape(h: int, w: int, target: int) -> Tuple[int, int]:
    """Letterbox content size: the longer side scaled to `target`."""
    if h >= w:
        return target, max(1, round(w * target / h))
    return max(1, round(h * target / w)), target


def resize_pad(values: np.ndarray, target: int = TARGET_SIZE) -> np.ndarray:
    """Aspect-preserving bilinear resize plus centered zero padding."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyImage("cannot resize an empty matrix")
    h, w = values.shape
    if h == w == target:
        return values.copy()
    ch, cw = _content_shape(h, w, target)
    content = _bilinear_resize(values, ch, cw)
    out = np.zeros((target, target), dtype=np.float64)
    oy = (target - ch) // 2
    ox = (target - cw) // 2
    out[oy:oy + ch, ox:ox + cw] = content
    return out


def _axis_block_operator(n_src: int, n_content: int, target: int,
                         blocks: int) -> np.ndarray:
    """(blocks, n_src) matrix for one axis: bilinear taps to `n_content`
    samples, centred in a zero line of length `target`, then the mean of
    each `target // blocks` run (any remainder cropped)."""
    y0, y1, fy = _axis_taps(n_src, n_content)
    taps = np.zeros((n_content, n_src))
    rows = np.arange(n_content)
    taps[rows, y0] = 1 - fy
    taps[rows, y1] += fy
    size = max(1, target // blocks)
    block = ((target - n_content) // 2 + rows) // size
    inside = block < blocks
    mean = np.zeros((blocks, n_content))
    mean[block[inside], rows[inside]] = 1.0 / size
    return mean @ taps


@functools.lru_cache(maxsize=32)
def letterbox_block_operators(h: int, w: int, blocks: int
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column operators `A` (blocks x h) and `B` (blocks x w) with
    `A @ v @ B.T` equal, to round-off, to the `blocks` x `blocks` block
    mean of `resize_pad(v)` for any h x w matrix `v`.

    One cached, read-only pair per argument tuple: 8 * blocks * (h + w)
    bytes, 131 KB for 16 blocks of a 512 x 512 source. Building a pair
    costs about three times the rest of a 64 x 64 image's feature, and
    images of one series share a shape, so the cache pays off; 32 entries
    cover a cohort's few matrix sizes in about 4 MB at 512 x 512.
    """
    if h <= 0 or w <= 0:
        raise EmptyImage("cannot resize an empty matrix")
    ch, cw = _content_shape(h, w, TARGET_SIZE)
    a = _axis_block_operator(h, ch, TARGET_SIZE, blocks)
    b = _axis_block_operator(w, cw, TARGET_SIZE, blocks)
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def preprocess_image(pixels: np.ndarray, sop_uid: str = "",
                     target: int = TARGET_SIZE) -> NormalizedImage:
    """Full chain: clip/normalize then letterbox to the model input size."""
    original_shape = tuple(np.asarray(pixels).shape)
    values = resize_pad(clip_normalize(pixels), target=target)
    return NormalizedImage(values=values, source_sop_uid=sop_uid,
                           original_shape=original_shape)
