"""PackBits (DICOM RLE segment) decoding, one numpy implementation.

tests/test_pixels.py and tests/test_kernels.py check it against an
independent byte-at-a-time oracle.
"""

from __future__ import annotations

# Read by perfbench/run.py's machine record; there is only the numpy build.
USE_NUMBA = False


def packbits_decode(src, out):
    """Decode one PackBits byte stream into `out`, a run at a time.

    Returns the number of bytes written, or -1 on a truncated literal or
    replicate run. Header 128 is a no-op per the PackBits spec.
    """
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
