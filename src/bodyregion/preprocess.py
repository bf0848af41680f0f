"""Per-image normalization chain and training-time spatial augmentation.

The normalization is intensity-affine invariant: statistics are computed
once over the raw matrix, values are clipped to mean +/- 4 std and mapped
by (v - mean) / (2 std), so outputs always lie in [-2, 2]. Letterbox
resizing scales the longer side to 224 with centered zero padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._kernels import affine_warp
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
    reused for both steps). A constant image maps to all zeros.
    """
    pixels = np.asarray(pixels)
    if pixels.size == 0:
        raise EmptyImage("cannot normalize an empty matrix")
    values = pixels.astype(np.float64)
    mean = float(values.mean())
    std = float(values.std(mean=mean))
    if std == 0.0:
        return np.zeros_like(values)
    np.clip(values, mean - 4.0 * std, mean + 4.0 * std, out=values)
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


def resize_pad(values: np.ndarray, target: int = TARGET_SIZE) -> np.ndarray:
    """Aspect-preserving bilinear resize plus centered zero padding."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyImage("cannot resize an empty matrix")
    h, w = values.shape
    if h == w == target:
        return values.copy()
    if h >= w:
        ch = target
        cw = max(1, round(w * target / h))
    else:
        cw = target
        ch = max(1, round(h * target / w))
    content = _bilinear_resize(values, ch, cw)
    out = np.zeros((target, target), dtype=np.float64)
    oy = (target - ch) // 2
    ox = (target - cw) // 2
    out[oy:oy + ch, ox:ox + cw] = content
    return out


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
    affine_warp(values, m_rr, m_rc, m_cr, m_cc, t_r, t_c, out)
    return out


def preprocess_image(pixels: np.ndarray, sop_uid: str = "",
                     target: int = TARGET_SIZE) -> NormalizedImage:
    """Full chain: clip/normalize then letterbox to the model input size."""
    original_shape = tuple(np.asarray(pixels).shape)
    values = resize_pad(clip_normalize(pixels), target=target)
    return NormalizedImage(values=values, source_sop_uid=sop_uid,
                           original_shape=original_shape)
