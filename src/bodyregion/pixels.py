"""Pixel payload decoding: native little-endian and DICOM RLE.

JPEG lossless is on the study-inclusion codec whitelist but is recognized
only at the metadata level; asking for an actual decode raises
UnsupportedCodec. The RLE decoder writes each PackBits segment straight into
its byte lane of the little-endian output matrix. The RLE encoder writes
fixtures, phantoms and benchmark cohorts: numpy finds the runs and writes
every output byte, and Python loops over neither runs nor pieces.
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
    src = np.frombuffer(frame, dtype=np.uint8)
    matrix = np.empty((rows, cols), dtype=np.dtype(f"<u{n_segments}"))
    # Segments are ordered most-significant byte first; segment k is byte
    # lane n_segments - 1 - k of each little-endian sample.
    lanes = matrix.view(np.uint8).reshape(plane, n_segments)
    for k in range(n_segments):
        lo, hi = offsets[k], offsets[k + 1]
        if not (_RLE_HEADER_LEN <= lo <= hi <= len(frame)):
            raise Malformed(f"RLE segment {k} offsets out of range", offset=4 * (k + 1))
        written = packbits_decode(src[lo:hi], lanes[:, n_segments - 1 - k])
        if written != plane:
            raise LengthMismatch(
                f"RLE segment {k} decoded {written} bytes, expected {plane}")
    return matrix


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

    Every maximal run of 3 or more equal bytes becomes replicate pieces of
    128 and a last one of 3-127; a rest of 1-2 bytes joins the literal
    bytes after it. The literal bytes between long runs are cut into pieces
    of 128 and a shorter last one. numpy builds every output byte; Python
    loops over nothing.
    """
    n = len(data)
    if n == 0:
        return b""
    a = np.frombuffer(data, dtype=np.uint8)
    # triple[i + 1] is set where a[i] == a[i+1] == a[i+2]: on every byte of
    # a long run but its last two. triple[0] and triple[n - 1:] stay clear.
    triple = np.zeros(n + 1, dtype=np.bool_)
    equal = a[1:] == a[:-1]
    np.logical_and(equal[1:], equal[:-1], out=triple[1:n - 1])
    edges = np.flatnonzero(triple[1:] != triple[:-1])
    starts, stops = edges[0::2], edges[1::2] + 2
    rest = (stops - starts) % 128
    stops -= np.where(rest < 3, rest, 0)
    # [0, n) in segments literal, run, literal, ..., run, literal (a
    # literal segment may be empty), each cut into pieces of at most 128.
    bounds = np.empty(2 * starts.size + 2, dtype=np.intp)
    bounds[0], bounds[-1] = 0, n
    bounds[1:-1:2], bounds[2:-1:2] = starts, stops
    seg_len = np.diff(bounds)
    is_run = np.arange(seg_len.size) % 2 == 1
    seg_pieces = (seg_len + 127) // 128
    seg = np.repeat(np.arange(seg_len.size), seg_pieces)
    src = bounds[seg] + 128 * (np.arange(seg.size)
                               - (np.cumsum(seg_pieces) - seg_pieces)[seg])
    size = np.minimum(bounds[seg + 1] - src, 128)
    replicate = is_run[seg]
    # A piece is its header, then its one replicate byte or its literal
    # bytes. One scatter writes the headers and replicate bytes, one mask
    # copy every literal byte in source order.
    out_size = np.where(replicate, 2, size + 1)
    ends = np.cumsum(out_size)
    heads = ends - out_size
    fixed = np.concatenate((heads, heads[replicate] + 1))
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    out[fixed] = np.concatenate((np.where(replicate, 257 - size, size - 1),
                                 a[src[replicate]]))
    literal = np.ones(out.size, dtype=np.bool_)
    literal[fixed] = False
    out[literal] = a[np.repeat(~is_run, seg_len)]
    return out.tobytes()


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
