"""Per-image normalization chain and training-time spatial augmentation.

The normalization is intensity-affine invariant: statistics are computed
once over the raw matrix, values are clipped to mean +/- 4 std and mapped
by (v - mean) / (2 std), so outputs always lie in [-2, 2]. Letterbox
resizing scales the longer side to 224 with centered zero padding; that
224 x 224 matrix is the model input (`preprocess_image`). A consumer that
only block-averages the letterbox (the centroid baseline) can skip it:
resize, padding and block mean are linear, so `letterbox_block_operators`
folds them into one cached matrix per axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import EmptyImage, ParamsOutOfRange

TARGET_SIZE = 224

MAX_ROTATION = math.pi / 10.0
MAX_TRANSLATE = 0.10  # fraction of image size
MAX_SHEAR = 0.10
MAX_SCALE_DELTA = 0.20  # |scale - 1|


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


def to_three_channel(values: np.ndarray) -> np.ndarray:
    """Replicate a 2-D matrix into three identical channels (H, W, 3)."""
    values = np.asarray(values)
    return np.repeat(values[:, :, np.newaxis], 3, axis=2)


@dataclass
class AugmentParams:
    rotation: float = 0.0       # radians, |r| <= pi/10
    translate_x: float = 0.0    # fraction of width, |t| <= 0.1
    translate_y: float = 0.0    # fraction of height
    shear_x: float = 0.0        # |s| <= 0.1
    shear_y: float = 0.0
    scale_x: float = 1.0        # |scale - 1| <= 0.2
    scale_y: float = 1.0

    def validate(self) -> None:
        eps = 1e-12
        if abs(self.rotation) > MAX_ROTATION + eps:
            raise ParamsOutOfRange(f"rotation {self.rotation} exceeds pi/10")
        for name in ("translate_x", "translate_y"):
            if abs(getattr(self, name)) > MAX_TRANSLATE + eps:
                raise ParamsOutOfRange(f"{name} exceeds 10%")
        for name in ("shear_x", "shear_y"):
            if abs(getattr(self, name)) > MAX_SHEAR + eps:
                raise ParamsOutOfRange(f"{name} exceeds 10%")
        for name in ("scale_x", "scale_y"):
            if abs(getattr(self, name) - 1.0) > MAX_SCALE_DELTA + eps:
                raise ParamsOutOfRange(f"{name} exceeds 20%")


def sample_augment_params(rng: np.random.Generator) -> AugmentParams:
    """Uniform draw within the documented augmentation bounds."""
    return AugmentParams(
        rotation=float(rng.uniform(-MAX_ROTATION, MAX_ROTATION)),
        translate_x=float(rng.uniform(-MAX_TRANSLATE, MAX_TRANSLATE)),
        translate_y=float(rng.uniform(-MAX_TRANSLATE, MAX_TRANSLATE)),
        shear_x=float(rng.uniform(-MAX_SHEAR, MAX_SHEAR)),
        shear_y=float(rng.uniform(-MAX_SHEAR, MAX_SHEAR)),
        scale_x=float(rng.uniform(1 - MAX_SCALE_DELTA, 1 + MAX_SCALE_DELTA)),
        scale_y=float(rng.uniform(1 - MAX_SCALE_DELTA, 1 + MAX_SCALE_DELTA)),
    )


def augment_matrix(params: AugmentParams) -> np.ndarray:
    """Forward affine transform in (x, y) = (col, row) about the center:
    rotation . shear . scale, plus translation in pixels."""
    c, s = math.cos(params.rotation), math.sin(params.rotation)
    rot = np.array([[c, -s], [s, c]])
    shear = np.array([[1.0, params.shear_x], [params.shear_y, 1.0]])
    scale = np.diag([params.scale_x, params.scale_y])
    return rot @ shear @ scale


def _affine_warp(src, m00, m01, m10, m11, t0, t1, out):
    """Inverse-mapping bilinear warp: each output pixel (r, c) samples the
    source at (m00*r + m01*c + t0, m10*r + m11*c + t1). Zeros outside."""
    hs, ws = src.shape
    ho, wo = out.shape
    rr, cc = np.meshgrid(np.arange(ho, dtype=np.float64),
                         np.arange(wo, dtype=np.float64), indexing="ij")
    ys = m00 * rr + m01 * cc + t0
    xs = m10 * rr + m11 * cc + t1
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = ys - y0
    fx = xs - x0

    padded = np.zeros((hs + 2, ws + 2), dtype=np.float64)
    padded[1:-1, 1:-1] = src
    inside = (y0 >= -1) & (y0 < hs) & (x0 >= -1) & (x0 < ws)
    yc = np.clip(y0 + 1, 0, hs + 1)
    xc = np.clip(x0 + 1, 0, ws + 1)
    yc1 = np.clip(y0 + 2, 0, hs + 1)
    xc1 = np.clip(x0 + 2, 0, ws + 1)
    v00 = padded[yc, xc]
    v01 = padded[yc, xc1]
    v10 = padded[yc1, xc]
    v11 = padded[yc1, xc1]
    vals = ((1 - fy) * ((1 - fx) * v00 + fx * v01)
            + fy * ((1 - fx) * v10 + fx * v11))
    out[...] = np.where(inside, vals, 0.0)
    return out


def augment(values: np.ndarray,
            params: Optional[AugmentParams] = None,
            rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Apply one composed affine warp with bilinear sampling, zeros outside.

    Pass explicit `params` for a deterministic transform, or an `rng` to
    sample parameters within the training bounds.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyImage("cannot augment an empty matrix")
    if params is None:
        if rng is None:
            raise ParamsOutOfRange("need either params or rng")
        params = sample_augment_params(rng)
    params.validate()

    h, w = values.shape
    fwd = augment_matrix(params)
    inv = np.linalg.inv(fwd)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    tx, ty = params.translate_x * w, params.translate_y * h
    # Inverse mapping (output -> source), expressed in (row, col) terms for
    # the warp kernel: src = inv . (out - center - t) + center.
    m_rr = inv[1, 1]
    m_rc = inv[1, 0]
    m_cr = inv[0, 1]
    m_cc = inv[0, 0]
    t_r = cy - m_rr * (cy + ty) - m_rc * (cx + tx)
    t_c = cx - m_cr * (cy + ty) - m_cc * (cx + tx)
    out = np.empty_like(values)
    _affine_warp(values, m_rr, m_rc, m_cr, m_cc, t_r, t_c, out)
    return out


def preprocess_image(pixels: np.ndarray, sop_uid: str = "",
                     target: int = TARGET_SIZE) -> NormalizedImage:
    """Full chain: clip/normalize then letterbox to the model input size."""
    original_shape = tuple(np.asarray(pixels).shape)
    values = resize_pad(clip_normalize(pixels), target=target)
    return NormalizedImage(values=values, source_sop_uid=sop_uid,
                           original_shape=original_shape)
