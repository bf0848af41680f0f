"""PackBits (DICOM RLE segment) decoding, one numpy implementation.

`packbits_decode` works in two steps. A Python loop walks the run headers
only, stepping over each run's payload with a 256-entry advance table. Then
numpy moves every pixel byte at once: with the headers masked out, the
source holds the output's bytes in output order, each literal byte once and
each replicate byte once per run, so one boolean-mask selection and one
`np.repeat` (count 1 for a literal byte, the run length for a replicate
byte) write the whole output.

tests/test_kernels.py checks it against the run-at-a-time loop it replaced,
and tests/test_pixels.py against an independent byte-at-a-time oracle.
"""

from __future__ import annotations

import numpy as np

# Read by perfbench/run.py's machine record; there is only the numpy build.
USE_NUMBA = False

# Bytes from one header to the next: header + literal payload, the no-op
# header 128 alone, or header + the one replicated byte.
_ADVANCE = tuple(h + 2 if h < 128 else 1 if h == 128 else 2
                 for h in range(256))
# Output bytes each header produces.
_COUNT = np.array([h + 1 if h < 128 else 0 if h == 128 else 257 - h
                   for h in range(256)], dtype=np.int64)


def packbits_decode(src, out):
    """Decode one PackBits byte stream `src` into `out` (both uint8).

    Returns the number of bytes written, or -1 on a truncated literal or
    replicate run, or on a run that would overflow `out`. Header 128 is a
    no-op per the PackBits spec. Decoding stops once `out` is full, and
    input after that point is ignored. `out` past the bytes written is left
    untouched; on -1 the runs before the failing one have been written, as a
    run-at-a-time decoder would leave them.
    """
    data = src.tobytes()
    n = len(data)
    cap = out.shape[0]
    # Step 1: the header positions. Only the last advance can pass `n`.
    heads = []
    append = heads.append
    advance = _ADVANCE
    i = 0
    while i < n:
        append(i)
        i += advance[data[i]]
    if not heads or cap == 0:
        return 0

    # Step 2: runs that start at or after `cap` never execute; only the
    # last one that does can overflow `out` or be cut short by the input.
    pos = np.fromiter(heads, dtype=np.int64, count=len(heads))
    header = src[pos]
    counts = _COUNT[header]
    ends = counts.cumsum()
    k = int(np.searchsorted(ends - counts, cap, side="left"))
    result = int(ends[k - 1])
    if result > cap or (k == len(heads) and i > n):
        k -= 1
        result = -1
    written = int(ends[k - 1]) if k else 0
    stop = int(pos[k]) if k < len(heads) else n
    pos, header, counts = pos[:k], header[:k], counts[:k]

    # Every non-header byte up to `stop` is output: a literal byte once, a
    # replicate run's byte `count` times, all in source order.
    payload = np.ones(stop, dtype=np.bool_)
    payload[pos] = False
    values = src[:stop][payload]
    repeats = np.ones(values.size, dtype=np.intp)
    replicate = header > 128
    # Run t's replicate byte is at pos + 1 in `src`; t + 1 headers precede
    # it, so it is values[pos - t].
    repeats[pos[replicate] - np.flatnonzero(replicate)] = counts[replicate]
    out[:written] = np.repeat(values, repeats)
    return result
