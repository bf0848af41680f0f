"""Pixel payload decoding: native little-endian and DICOM RLE.

JPEG lossless is on the study-inclusion codec whitelist but is recognized
only at the metadata level; asking for an actual decode raises
UnsupportedCodec. The RLE encoder writes fixtures, phantoms and benchmark
cohorts; like the decoder it leaves the per-byte work to numpy.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from . import dicomio
from ._kernels import packbits_decode
from .errors import LengthMismatch, Malformed, UnsupportedCodec
from .records import ImageRecord

_RLE_HEADER_LEN = 64


def _unwrap_fragments(raw: bytes) -> bytes:
    """Concatenate encapsulated pixel fragments, skipping the offset table."""
    pos = 0
    n = len(raw)
    fragments = []
    while pos + 8 <= n:
        item = dicomio._read_header(raw, pos, explicit=False)
        if item.tag == dicomio.TAG_SEQ_DELIM:
            break
        if item.tag != dicomio.TAG_ITEM:
            raise Malformed("unexpected tag in pixel fragment stream", offset=pos)
        if item.value_length > n - item.value_start:
            raise Malformed("fragment length past end of data", offset=pos)
        fragments.append(raw[item.value_start:item.value_end])
        pos = item.value_end
    return b"".join(fragments[1:])


def _decode_rle_frame(frame: bytes, rows: int, cols: int, bits_allocated: int):
    if len(frame) < _RLE_HEADER_LEN:
        raise Malformed("RLE frame shorter than its 64-byte header", offset=0)
    header = struct.unpack_from("<16I", frame, 0)
    n_segments = header[0]
    bytes_per_sample = bits_allocated // 8
    if n_segments != bytes_per_sample:
        raise LengthMismatch(
            f"RLE frame has {n_segments} segments, expected {bytes_per_sample}")
    plane = rows * cols
    offsets = list(header[1:1 + n_segments]) + [len(frame)]
    segments = []
    src = np.frombuffer(frame, dtype=np.uint8)
    for k in range(n_segments):
        lo, hi = offsets[k], offsets[k + 1]
        if not (_RLE_HEADER_LEN <= lo <= hi <= len(frame)):
            raise Malformed(f"RLE segment {k} offsets out of range", offset=4 * (k + 1))
        out = np.empty(plane, dtype=np.uint8)
        written = packbits_decode(src[lo:hi], out)
        if written != plane:
            raise LengthMismatch(
                f"RLE segment {k} decoded {written} bytes, expected {plane}")
        segments.append(out)
    if n_segments == 1:
        return segments[0].reshape(rows, cols)
    # Segments are ordered most-significant byte first.
    value = segments[0].astype(np.uint16) << 8 | segments[1]
    return value.reshape(rows, cols)


def decode_pixels(image: ImageRecord, raw: bytes) -> np.ndarray:
    """Decode a pixel-data payload into a rows x cols integer matrix.

    `raw` is the (7FE0,0010) element value: the native sample bytes for
    little-endian syntaxes, or the encapsulated fragment stream (or a bare
    RLE frame) for RLE. Values are masked to bits_stored.
    """
    ts = image.transfer_syntax_uid
    if ts not in dicomio.DECODABLE_SYNTAXES:
        raise UnsupportedCodec(f"no codec for transfer syntax {ts!r}")

    rows, cols = image.rows, image.cols
    if rows <= 0 or cols <= 0:
        raise LengthMismatch("image has no rows/cols metadata")
    if image.bits_allocated not in (8, 16):
        raise UnsupportedCodec(f"bits_allocated {image.bits_allocated} unsupported")

    if ts == dicomio.RLE_LOSSLESS:
        frame = raw
        if (len(raw) >= 8 and dicomio._read_header(raw, 0, explicit=False).tag
                == dicomio.TAG_ITEM):
            frame = _unwrap_fragments(raw)
        matrix = _decode_rle_frame(frame, rows, cols, image.bits_allocated)
    else:
        bytes_per_sample = image.bits_allocated // 8
        expected = rows * cols * bytes_per_sample
        if len(raw) < expected:
            raise LengthMismatch(
                f"pixel payload {len(raw)} bytes, expected {expected}")
        dtype = np.dtype("<u2") if bytes_per_sample == 2 else np.uint8
        matrix = np.frombuffer(raw[:expected], dtype=dtype).reshape(rows, cols)

    if image.bits_stored and image.bits_stored < image.bits_allocated:
        matrix = matrix & ((1 << image.bits_stored) - 1)
    return np.ascontiguousarray(matrix)


def decode_pixels_from_file(image: ImageRecord) -> np.ndarray:
    """Decode pixels for a record parsed by ingest_tree (lazy path).

    Reads only the pixel data's byte range from the file. A range past the
    end of the file reads short, and decoding the short payload raises
    LengthMismatch or Malformed.
    """
    if image.pixels is not None:
        return image.pixels
    offset, length = image.pixel_data_offset, image.pixel_data_length
    if image.source_path is None or offset is None or length is None:
        raise LengthMismatch(f"{image.sop_uid}: no pixel data available")
    if offset < 0 or length < 0:
        raise LengthMismatch(
            f"{image.sop_uid}: pixel data at offset {offset}, length {length}")
    with open(image.source_path, "rb") as fh:
        # read(n) allocates n bytes up front, so never ask past the end.
        length = min(length, os.fstat(fh.fileno()).st_size - offset)
        fh.seek(offset)
        raw = fh.read(max(length, 0))
    return decode_pixels(image, raw)


# ---------------------------------------------------------------------------
# Encoding (fixtures, the phantom generator and benchmark cohorts)


def packbits_encode(data: bytes) -> bytes:
    """PackBits-encode one byte string, greedily.

    Every maximal run of 3 or more equal bytes becomes replicate runs of at
    most 128; a leftover of 1-2 bytes joins the literal bytes after it. The
    literal bytes between long runs are cut into literals of 128 and a
    shorter last one. numpy finds the runs, so Python loops only over the
    long runs and the 128-byte literal pieces.
    """
    n = len(data)
    if n == 0:
        return b""
    a = np.frombuffer(data, dtype=np.uint8)
    bounds = np.flatnonzero(a[1:] != a[:-1]) + 1
    run_starts = np.concatenate(([0], bounds))
    run_ends = np.concatenate((bounds, [n]))
    long_runs = run_ends - run_starts >= 3
    out = bytearray()

    def literals(lo, hi):
        for k in range(lo, hi, 128):
            piece = data[k:min(k + 128, hi)]
            out.append(len(piece) - 1)
            out.extend(piece)

    gap = 0
    for start, stop in zip(run_starts[long_runs].tolist(),
                           run_ends[long_runs].tolist()):
        literals(gap, start)
        full, rest = divmod(stop - start, 128)
        value = data[start]
        out.extend(bytes((129, value)) * full)
        if rest >= 3:
            out.extend((257 - rest, value))
            rest = 0
        gap = stop - rest
    literals(gap, n)
    return bytes(out)


def rle_encode_frame(matrix: np.ndarray, bits_allocated: int) -> bytes:
    """Build one DICOM RLE frame (64-byte header + PackBits segments)."""
    flat = np.ascontiguousarray(matrix).ravel()
    if bits_allocated == 8:
        planes = [flat.astype(np.uint8).tobytes()]
    else:
        v = flat.astype(np.uint16)
        planes = [(v >> 8).astype(np.uint8).tobytes(),
                  (v & 0xFF).astype(np.uint8).tobytes()]
    segments = []
    for p in planes:
        seg = packbits_encode(p)
        if len(seg) % 2:
            seg += b"\x80"  # pad with the PackBits no-op byte
        segments.append(seg)
    offsets = [0] * 15
    pos = _RLE_HEADER_LEN
    for k, seg in enumerate(segments):
        offsets[k] = pos
        pos += len(seg)
    header = struct.pack("<16I", len(segments), *offsets)
    return header + b"".join(segments)
