"""PackBits (DICOM RLE segment) decoding, one numpy implementation.

`packbits_decode` finds the run headers, works out from their counts how
many runs execute, then expands those runs into `out`. Finding and
expanding each have two forms, and the segment's own shape picks one:

- **Header finder.** A segment shorter than half its output
  (`2 * len(src) < len(out)`, as in a 12-bit CT high-byte plane: 38 KB of
  input, 14.6 K headers, 256 KB of output) is run-heavy, so headers are
  dense. `_heads_jump` builds each byte's next-header offset once (one
  `bytes.translate` over the advance table, positions past the end fixed
  points), squares that table three times, walks every 8th header in
  Python and gathers the 7 between with numpy. The tables are int32 and
  at most three are alive at once: 12 bytes per input byte, 0.46 MB for
  that 38 KB plane and under 1.6 MB for any run-heavy 512 x 512 one. Any
  other segment has few headers for its size (a CT low-byte plane:
  264 KB, 2.1 K headers), and `_heads_walk` steps over each run's payload
  in Python.
- **Expansion.** With the headers masked out, the source holds the
  output's bytes in output order, each literal byte once and each
  replicate byte once per run. Where replicate runs are many,
  `_expand_repeat` writes the whole output with one `np.repeat` over the
  source (header bytes x0, literal bytes x1, replicate bytes x count).
  Where they are few (fewer than one per `_SLICES_BELOW` input bytes),
  `_expand_slices` drops the headers with one mask, then copies each
  literal stretch and fills each run straight into `out`, with no
  output-sized repeat counts.

tests/test_kernels.py checks every finder and expansion pair against the
run-at-a-time loop the kernel replaced, and tests/test_pixels.py the whole
decoder against an independent byte-at-a-time oracle.
"""

from __future__ import annotations

import numpy as np

# Read by perfbench/run.py's machine record; there is only the numpy build.
USE_NUMBA = False

# Bytes from one header to the next: header + literal payload, the no-op
# header 128 alone, or header + the one replicated byte.
_ADVANCE = tuple(h + 2 if h < 128 else 1 if h == 128 else 2
                 for h in range(256))
_ADVANCE_BYTES = bytes(_ADVANCE)
# Output bytes each header produces.
_COUNT = np.array([h + 1 if h < 128 else 0 if h == 128 else 257 - h
                   for h in range(256)], dtype=np.int64)
# Copies of the byte after each header: a literal's first byte once, a
# replicate byte `count` times. After 128 comes the next header, which
# `_expand_repeat` sets to 0 afterwards.
_AFTER = np.where(np.arange(256) > 128, _COUNT, 1).astype(np.intp)
# `_expand_slices` takes a segment with fewer replicate runs than one per
# this many input bytes: per run, its Python loop costs about what
# `_expand_repeat` spends on this many bytes (measured break-even on a
# 256 KB literal plane: one run per ~530 bytes).
_SLICES_BELOW = 512


def packbits_decode(src, out):
    """Decode one PackBits byte stream `src` into `out` (both uint8).

    Returns the number of bytes written, or -1 on a truncated literal or
    replicate run, or on a run that would overflow `out`. Header 128 is a
    no-op per the PackBits spec. Decoding stops once `out` is full, and
    input after that point is ignored. `out` past the bytes written is left
    untouched; on -1 the runs before the failing one have been written, as a
    run-at-a-time decoder would leave them.
    """
    dense = 2 * src.shape[0] < out.shape[0]
    return _decode(src, out, _heads_jump if dense else _heads_walk, _expand)


def _decode(src, out, find, expand):
    """`packbits_decode` with the header finder and expansion given."""
    data = src.tobytes()
    n = len(data)
    cap = out.shape[0]
    if n == 0 or cap == 0:
        return 0
    pos, end = find(data)

    # Runs that start at or after `cap` never execute; only the last one
    # that does can overflow `out` or be cut short by the input.
    header = np.take(src, pos)
    counts = np.take(_COUNT, header)
    ends = counts.cumsum()
    k = int(np.searchsorted(ends - counts, cap, side="left"))
    result = int(ends[k - 1])
    if result > cap or (k == pos.size and end > n):
        k -= 1
        result = -1
    written = int(ends[k - 1]) if k else 0
    stop = int(pos[k]) if k < pos.size else n
    expand(src[:stop], pos[:k], header[:k], out[:written])
    return result


def _heads_walk(data):
    """Header positions (intp) of `data` and where the run after the last
    one would start, which is past `len(data)` only if that run is cut
    short. One Python step per header."""
    n = len(data)
    heads = []
    append = heads.append
    advance = _ADVANCE
    i = 0
    while i < n:
        append(i)
        i += advance[data[i]]
    return np.fromiter(heads, dtype=np.intp, count=len(heads)), i


def _heads_jump(data):
    """`_heads_walk`'s result from one Python step per 8 headers.

    `step[p]` is where the run after a header at `p` starts; positions
    from `len(data)` on map to themselves, so every chain stops there.
    """
    n = len(data)
    # A header at n - 1 can advance by up to 129.
    step = np.arange(n + 129, dtype=np.int32)
    step[:n] += np.frombuffer(data.translate(_ADVANCE_BYTES), dtype=np.uint8)
    jump = np.take(step, step)
    jump = np.take(jump, jump)
    jump = np.take(jump, jump)
    jump = memoryview(jump)
    starts = []
    append = starts.append
    p = 0
    while p < n:
        append(p)
        p = jump[p]
    # Row r of `block` holds the r-th header after each walked one.
    block = np.empty((8, len(starts)), dtype=np.int32)
    block[0] = starts
    for r in range(1, 8):
        np.take(step, block[r - 1], out=block[r])
    heads = block.T.astype(np.intp, order="C").ravel()
    # Ascending, with positions past the end only after the last header.
    k = int(np.searchsorted(heads, n))
    return heads[:k], int(step[heads[k - 1]]) if k else 0


def _expand(src, pos, header, out):
    """One `np.repeat` where replicate runs are many, else slice by slice."""
    few = np.count_nonzero(header > 128) * _SLICES_BELOW < src.shape[0]
    (_expand_slices if few else _expand_repeat)(src, pos, header, out)


def _expand_repeat(src, pos, header, out):
    """Expand the runs whose headers `header` sit at `pos` of `src` (which
    ends where the last of them does) into `out`, with one `np.repeat`
    over the source."""
    repeats = np.ones(src.shape[0] + 1, dtype=np.intp)
    repeats[pos + 1] = np.take(_AFTER, header)
    repeats[pos] = 0
    out[:] = np.repeat(src, repeats[:-1])


def _expand_slices(src, pos, header, out):
    """`_expand_repeat`'s output, one literal stretch or run at a time."""
    payload = np.ones(src.shape[0], dtype=np.bool_)
    payload[pos] = False
    values = src[payload]
    replicate = np.flatnonzero(header > 128)
    # Replicate run t's byte is values[pos - t]. In `out` it starts later
    # by the `extra` bytes (count - 1) of each replicate run before it.
    extra = _COUNT[header[replicate]] - 1
    at = pos[replicate] - replicate
    first = at + extra.cumsum() - extra
    v = o = 0
    for a, f, e in zip(at.tolist(), first.tolist(), extra.tolist()):
        if a > v:
            out[o:f] = values[v:a]
        o = f + e + 1
        out[f:o] = values[a]
        v = a + 1
    out[o:] = values[v:]
