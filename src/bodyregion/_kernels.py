"""Hot numeric kernels: PackBits decode and bilinear affine warps.

Each kernel has a numba @njit build and a pure-numpy fallback. Selection is
controlled by the BODYREGION_NUMBA environment variable ("0" forces the
numpy path); when numba is missing the fallback is used silently. The two
paths are interchangeable bit-for-bit for PackBits and within float
round-off for the warps; tests/test_kernels.py checks that they agree.
"""

from __future__ import annotations

import os

import numpy as np

_env = os.environ.get("BODYREGION_NUMBA", "1")
USE_NUMBA = _env != "0"
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False


# ---------------------------------------------------------------------------
# PackBits (DICOM RLE segment) decoding


def _packbits_loop(src, out):
    """Decode one PackBits byte stream into `out`. Returns bytes written,
    or -1 on a truncated literal/replicate run."""
    i = 0
    j = 0
    n = src.shape[0]
    cap = out.shape[0]
    while i < n and j < cap:
        header = int(src[i])
        i += 1
        if header <= 127:
            count = header + 1
            if i + count > n or j + count > cap:
                return -1
            for k in range(count):
                out[j + k] = src[i + k]
            i += count
            j += count
        elif header >= 129:
            count = 257 - header
            if i >= n or j + count > cap:
                return -1
            value = src[i]
            i += 1
            for k in range(count):
                out[j + k] = value
            j += count
        # header == 128: no-op per the PackBits spec
    return j


def _packbits_numpy(src, out):
    """Run-at-a-time numpy fallback for _packbits_loop (same contract)."""
    i = 0
    j = 0
    n = src.shape[0]
    cap = out.shape[0]
    while i < n and j < cap:
        header = int(src[i])
        i += 1
        if header <= 127:
            count = header + 1
            if i + count > n or j + count > cap:
                return -1
            out[j:j + count] = src[i:i + count]
            i += count
            j += count
        elif header >= 129:
            count = 257 - header
            if i >= n or j + count > cap:
                return -1
            out[j:j + count] = src[i]
            i += 1
            j += count
    return j


def _affine_warp_loop(src, m00, m01, m10, m11, t0, t1, out):
    """Inverse-mapping bilinear warp: for each output pixel (r, c) sample the
    source at (m00*r + m01*c + t0, m10*r + m11*c + t1). Zeros outside."""
    hs, ws = src.shape
    ho, wo = out.shape
    for r in range(ho):
        for c in range(wo):
            ys = m00 * r + m01 * c + t0
            xs = m10 * r + m11 * c + t1
            y0 = int(np.floor(ys))
            x0 = int(np.floor(xs))
            if y0 < -1 or y0 >= hs or x0 < -1 or x0 >= ws:
                out[r, c] = 0.0
                continue
            fy = ys - y0
            fx = xs - x0
            v00 = src[y0, x0] if (0 <= y0 < hs and 0 <= x0 < ws) else 0.0
            v01 = src[y0, x0 + 1] if (0 <= y0 < hs and 0 <= x0 + 1 < ws) else 0.0
            v10 = src[y0 + 1, x0] if (0 <= y0 + 1 < hs and 0 <= x0 < ws) else 0.0
            v11 = src[y0 + 1, x0 + 1] if (0 <= y0 + 1 < hs and 0 <= x0 + 1 < ws) else 0.0
            out[r, c] = ((1 - fy) * ((1 - fx) * v00 + fx * v01)
                         + fy * ((1 - fx) * v10 + fx * v11))
    return out


def _affine_warp_numpy(src, m00, m01, m10, m11, t0, t1, out):
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


if USE_NUMBA:
    packbits_decode = njit(cache=True)(_packbits_loop)
    affine_warp = njit(cache=True)(_affine_warp_loop)
else:
    packbits_decode = _packbits_numpy
    affine_warp = _affine_warp_numpy
