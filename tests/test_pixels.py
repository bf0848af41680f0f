"""Pixel decoding: native layouts and RLE/PackBits against an independent
oracle decoder."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyregion._kernels import packbits_decode
from bodyregion.dicomio import EXPLICIT_VR_LE, RLE_LOSSLESS
from bodyregion.errors import LengthMismatch, Malformed, UnsupportedCodec
from bodyregion.pixels import (decode_pixels, decode_pixels_from_file,
                               packbits_encode, rle_encode_frame)

from conftest import make_image


def oracle_packbits_decode(data: bytes) -> bytes:
    """Independent PackBits decoder, structured differently from the
    implementation: index-free iterator walk, byte-string output."""
    out = bytearray()
    it = iter(range(len(data)))
    i = 0
    while i < len(data):
        header = data[i]
        if header < 128:
            count = header + 1
            out += data[i + 1:i + 1 + count]
            assert len(data) >= i + 1 + count, "oracle: truncated literal"
            i += 1 + count
        elif header == 128:
            i += 1
        else:
            count = 256 - header + 1
            out += bytes([data[i + 1]]) * count
            i += 2
    return bytes(out)


def greedy_packbits_encode(data: bytes) -> bytes:
    """The byte-at-a-time greedy encoder that packbits_encode replaced, kept
    as its reference: replicate runs >= 3, else literals."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        run = 1
        while i + run < n and run < 128 and data[i + run] == data[i]:
            run += 1
        if run >= 3:
            out.append(257 - run)
            out.append(data[i])
            i += run
            continue
        # Literal run: extend until a 3-byte replicate run starts.
        start = i
        i += run
        while i < n and i - start < 128:
            run = 1
            while i + run < n and run < 3 and data[i + run] == data[i]:
                run += 1
            if run >= 3:
                break
            i += run
        count = min(i - start, 128)
        out.append(count - 1)
        out.extend(data[start:start + count])
        i = start + count
    return bytes(out)


class TestPackBits:
    @pytest.mark.parametrize("payload", [
        b"", b"\x00", b"abc", b"\x00" * 300, b"ababab" * 50,
        bytes(range(256)), b"\xff" * 129 + b"xy",
    ])
    def test_encode_matches_oracle_decode(self, payload):
        assert oracle_packbits_decode(packbits_encode(payload)) == payload

    def test_decode_matches_oracle_on_encoded_stream(self):
        rng = np.random.default_rng(7)
        payload = np.where(rng.random(5000) < 0.5, 0,
                           rng.integers(0, 256, 5000)).astype(np.uint8)
        enc = np.frombuffer(packbits_encode(payload.tobytes()), dtype=np.uint8)
        out = np.empty(payload.size, dtype=np.uint8)
        assert packbits_decode(enc, out) == payload.size
        assert out.tobytes() == oracle_packbits_decode(enc.tobytes())

    @given(st.binary(max_size=2000)
           | st.lists(st.sampled_from(b"\x00\x55\xaa\xff"),
                      max_size=2000).map(bytes))
    @settings(max_examples=200, deadline=None)
    def test_kernel_paths_agree(self, payload):
        """The decoder and the byte-wise oracle agree, on arbitrary and on
        run-heavy payloads, with spare output room."""
        enc = np.frombuffer(packbits_encode(payload), dtype=np.uint8)
        out = np.zeros(len(payload) + 8, dtype=np.uint8)
        expected = oracle_packbits_decode(enc.tobytes())
        assert packbits_decode(enc, out) == len(expected)
        assert out[:len(expected)].tobytes() == expected
        assert not out[len(expected):].any()

    @pytest.mark.parametrize("run", [1, 2, 3, 127, 128, 129, 130, 131, 300])
    @pytest.mark.parametrize("before, after", [
        (b"", b""), (b"a", b"z"), (b"ab", b"zz"), (b"ab" * 64, b"zy" * 70),
        (b"a" * 127 + b"b", b""),
    ])
    def test_encoder_matches_greedy_reference(self, run, before, after):
        payload = before + b"x" * run + after
        assert packbits_encode(payload) == greedy_packbits_encode(payload)

    @given(st.binary(max_size=1500)
           | st.lists(st.sampled_from(b"\x00\x00\x07"), max_size=1500).map(bytes)
           | st.lists(st.tuples(st.integers(0, 3), st.integers(1, 300)),
                      max_size=20).map(
                          lambda runs: b"".join(bytes([v]) * k
                                                for v, k in runs)))
    @settings(max_examples=300, deadline=None)
    def test_encoder_matches_greedy_reference_on_mixes(self, payload):
        assert packbits_encode(payload) == greedy_packbits_encode(payload)

    # Run lengths around each multiple of 128, where a run splits into
    # replicate pieces and a rest of 1-2 bytes joins the literals after it.
    @given(st.lists(st.sampled_from([1, 2, 3, *range(126, 132),
                                     *range(255, 260), *range(384, 388)]),
                    max_size=12),
           st.integers(0, 255), st.integers(0, 255),
           st.binary(min_size=1, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_encoder_matches_greedy_reference_on_run_lengths(
            self, lengths, a, b, rest):
        """Runs alternate between two values (equal ones merge), and the
        stream ends in a 1-2 byte rest."""
        payload = b"".join(bytes([(a, b)[k % 2]]) * n
                           for k, n in enumerate(lengths)) + rest
        assert packbits_encode(payload) == greedy_packbits_encode(payload)

    @pytest.mark.parametrize("payload", [b"", b"\x00", b"\xff", b"\x07\x07",
                                         b"\x07\x08"])
    def test_encoder_on_streams_under_three_bytes(self, payload):
        encoded = packbits_encode(payload)
        assert encoded == greedy_packbits_encode(payload)
        assert oracle_packbits_decode(encoded) == payload

    def test_encoder_matches_greedy_reference_on_ct_planes(self):
        rng = np.random.default_rng(11)
        matrix = np.clip(1040 + rng.normal(0, 20, (128, 128)), 0,
                         4095).astype(np.uint16)
        matrix[:, :40] = 24
        for plane in (matrix >> 8, matrix & 0xFF):
            data = plane.astype(np.uint8).tobytes()
            assert packbits_encode(data) == greedy_packbits_encode(data)

    def test_truncated_literal_returns_minus_one(self):
        enc = np.array([5, 1, 2], dtype=np.uint8)  # literal of 6, only 2 given
        out = np.empty(16, dtype=np.uint8)
        assert packbits_decode(enc, out) == -1

    def test_noop_header_skipped(self):
        enc = np.array([128, 0, ord("A")], dtype=np.uint8)
        out = np.empty(1, dtype=np.uint8)
        assert packbits_decode(enc, out) == 1
        assert out[0] == ord("A")


def oracle_rle_decode(frame: bytes, rows: int, cols: int,
                      bits_allocated: int) -> np.ndarray:
    """Independent RLE frame decoder built on oracle_packbits_decode."""
    header = struct.unpack_from("<16I", frame, 0)
    n_seg = header[0]
    bounds = list(header[1:1 + n_seg]) + [len(frame)]
    planes = [oracle_packbits_decode(frame[bounds[k]:bounds[k + 1]])[:rows * cols]
              for k in range(n_seg)]
    if bits_allocated == 8:
        return np.frombuffer(planes[0], dtype=np.uint8).reshape(rows, cols)
    hi = np.frombuffer(planes[0], dtype=np.uint8).astype(np.uint16)
    lo = np.frombuffer(planes[1], dtype=np.uint8).astype(np.uint16)
    return ((hi << 8) | lo).reshape(rows, cols)


class TestRLE:
    def _image(self, rows=8, cols=8, bits=16):
        return make_image(rows=rows, cols=cols, bits_allocated=bits,
                          bits_stored=bits, transfer_syntax_uid=RLE_LOSSLESS,
                          pixels=None)

    def test_16bit_round_trip_matches_oracle(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 1 << 16, (16, 12)).astype(np.uint16)
        frame = rle_encode_frame(matrix, 16)
        image = self._image(16, 12, 16)
        decoded = decode_pixels(image, frame)
        assert np.array_equal(decoded, matrix)
        assert np.array_equal(decoded, oracle_rle_decode(frame, 16, 12, 16))

    def test_ct_sized_noisy_12bit_round_trip(self):
        """The benchmark's frame shape: 512x512, 12 bits stored, noisy."""
        rng = np.random.default_rng(4)
        yy, xx = np.mgrid[:512, :512]
        body = (yy - 256) ** 2 + (xx - 256) ** 2 < 200 ** 2
        matrix = np.clip(np.where(body, 1040, 24)
                         + rng.normal(0, 20, (512, 512)), 0,
                         4095).astype(np.uint16)
        frame = rle_encode_frame(matrix, 16)
        # Each segment is the greedy encoding of its byte plane, padded to
        # an even length with the no-op byte.
        n_segments, *offsets = struct.unpack_from("<16I", frame, 0)
        assert n_segments == 2
        bounds = offsets[:2] + [len(frame)]
        for k, plane in enumerate((matrix >> 8, matrix & 0xFF)):
            expected = greedy_packbits_encode(plane.astype(np.uint8).tobytes())
            expected += b"\x80" * (len(expected) % 2)
            assert frame[bounds[k]:bounds[k + 1]] == expected
        image = make_image(rows=512, cols=512, bits_allocated=16,
                           bits_stored=12, transfer_syntax_uid=RLE_LOSSLESS,
                           pixels=None)
        assert np.array_equal(decode_pixels(image, frame), matrix)

    @pytest.mark.parametrize("bits, stored", [(16, 12), (16, 9), (8, 6)])
    def test_bits_stored_mask(self, bits, stored):
        """Samples above bits_stored are masked in the decoded matrix, which
        is a fresh, writable, C-contiguous array of the sample width."""
        rng = np.random.default_rng(stored)
        dtype = np.uint16 if bits == 16 else np.uint8
        matrix = rng.integers(0, 1 << bits, (24, 20)).astype(dtype)
        matrix[:, :8] = matrix[0, 0]  # a long run in every plane
        frame = rle_encode_frame(matrix, bits)
        image = make_image(rows=24, cols=20, bits_allocated=bits,
                           bits_stored=stored, transfer_syntax_uid=RLE_LOSSLESS,
                           pixels=None)
        decoded = decode_pixels(image, frame)
        mask = (1 << stored) - 1
        assert decoded.dtype == dtype
        assert decoded.flags.c_contiguous and decoded.flags.writeable
        assert np.array_equal(decoded, matrix & mask)
        assert np.array_equal(decoded, oracle_rle_decode(frame, 24, 20, bits)
                              & mask)

    def test_8bit_round_trip(self):
        matrix = np.arange(64, dtype=np.uint8).reshape(8, 8)
        frame = rle_encode_frame(matrix, 8)
        image = self._image(bits=8)
        assert np.array_equal(decode_pixels(image, frame), matrix)

    def test_encapsulated_fragment_stream(self):
        matrix = np.full((8, 8), 1234, dtype=np.uint16)
        frame = rle_encode_frame(matrix, 16)
        stream = (struct.pack("<HHI", 0xFFFE, 0xE000, 0)
                  + struct.pack("<HHI", 0xFFFE, 0xE000, len(frame)) + frame
                  + struct.pack("<HHI", 0xFFFE, 0xE0DD, 0))
        assert np.array_equal(decode_pixels(self._image(), stream), matrix)

    def test_wrong_segment_count(self):
        frame = rle_encode_frame(np.zeros((8, 8), dtype=np.uint8), 8)
        with pytest.raises(LengthMismatch):
            decode_pixels(self._image(bits=16), frame)

    def test_short_header(self):
        with pytest.raises(Malformed):
            decode_pixels(self._image(), b"\x00" * 10)

    def test_segment_decodes_wrong_size(self):
        # Valid header, but the segment holds a single literal byte.
        header = struct.pack("<16I", 1, *( [64] + [0] * 14))
        with pytest.raises(LengthMismatch):
            decode_pixels(self._image(bits=8), header + b"\x00A")


class TestNative:
    def test_16bit_little_endian(self):
        matrix = np.arange(64, dtype="<u2").reshape(8, 8)
        image = make_image(rows=8, cols=8, bits_stored=16, pixels=None)
        assert np.array_equal(decode_pixels(image, matrix.tobytes()), matrix)

    def test_bits_stored_mask(self):
        matrix = np.full((8, 8), 0xF123, dtype="<u2")
        image = make_image(rows=8, cols=8, bits_stored=12, pixels=None)
        assert np.all(decode_pixels(image, matrix.tobytes()) == 0x123)

    def test_bits_stored_mask_leaves_caller_buffer(self):
        """Masking writes a new matrix, never the caller's writable buffer."""
        buf = bytearray(np.full((8, 8), 0xF123, dtype="<u2").tobytes())
        image = make_image(rows=8, cols=8, bits_stored=12, pixels=None)
        assert np.all(decode_pixels(image, memoryview(buf)) == 0x123)
        assert np.all(np.frombuffer(buf, dtype="<u2") == 0xF123)

    def test_short_payload(self):
        image = make_image(rows=8, cols=8, pixels=None)
        with pytest.raises(LengthMismatch):
            decode_pixels(image, b"\x00" * 10)

    def test_jpeg_is_unsupported(self):
        image = make_image(transfer_syntax_uid="1.2.840.10008.1.2.4.70",
                           pixels=None)
        with pytest.raises(UnsupportedCodec):
            decode_pixels(image, b"\x00" * 128)

    # The other JPEG lossless UID and a baseline JPEG one nothing here
    # accepts; both must raise whatever DECODABLE_SYNTAXES holds.
    @pytest.mark.parametrize("syntax", ["1.2.840.10008.1.2.4.57",
                                        "1.2.840.10008.1.2.4.50"])
    def test_undecodable_syntax_is_unsupported(self, syntax):
        image = make_image(transfer_syntax_uid=syntax, pixels=None)
        with pytest.raises(UnsupportedCodec):
            decode_pixels(image, b"\x00" * 128)


class TestFromFile:
    """decode_pixels_from_file reads only the recorded pixel byte range."""

    def _file(self, tmp_path, payload, before=b"H" * 132, after=b"T" * 40):
        path = tmp_path / "img.dcm"
        path.write_bytes(before + payload + after)
        return str(path), len(before)

    def test_reads_only_the_pixel_range(self, tmp_path):
        matrix = np.arange(64, dtype="<u2").reshape(8, 8)
        path, offset = self._file(tmp_path, matrix.tobytes(),
                                  after=b"\xff" * 500)
        image = make_image(rows=8, cols=8, bits_stored=16, pixels=None,
                           source_path=path, pixel_data_offset=offset,
                           pixel_data_length=128)
        assert np.array_equal(decode_pixels_from_file(image), matrix)

    def test_rle_range(self, tmp_path):
        matrix = np.full((8, 8), 1234, dtype=np.uint16)
        frame = rle_encode_frame(matrix, 16)
        path, offset = self._file(tmp_path, frame)
        image = make_image(rows=8, cols=8, bits_stored=16, pixels=None,
                           transfer_syntax_uid=RLE_LOSSLESS, source_path=path,
                           pixel_data_offset=offset,
                           pixel_data_length=len(frame))
        assert np.array_equal(decode_pixels_from_file(image), matrix)

    @pytest.mark.parametrize("length", [128, 10 ** 12])
    def test_range_past_end_of_file_reads_short(self, tmp_path, length):
        path, offset = self._file(tmp_path, b"\x00" * 100, after=b"")
        image = make_image(rows=8, cols=8, bits_stored=16, pixels=None,
                           source_path=path, pixel_data_offset=offset,
                           pixel_data_length=length)
        with pytest.raises(LengthMismatch):
            decode_pixels_from_file(image)

    def test_short_rle_range_is_malformed(self, tmp_path):
        path, offset = self._file(tmp_path, b"\x00" * 30, after=b"")
        image = make_image(rows=8, cols=8, bits_stored=16, pixels=None,
                           transfer_syntax_uid=RLE_LOSSLESS, source_path=path,
                           pixel_data_offset=offset, pixel_data_length=200)
        with pytest.raises(Malformed):
            decode_pixels_from_file(image)

    @pytest.mark.parametrize("offset, length", [
        (None, 128), (132, None), (-4, 128), (132, -1), (10 ** 6, 128)])
    def test_missing_or_bad_range(self, tmp_path, offset, length):
        path, _ = self._file(tmp_path, b"\x00" * 128)
        image = make_image(rows=8, cols=8, bits_stored=16, pixels=None,
                           source_path=path, pixel_data_offset=offset,
                           pixel_data_length=length)
        with pytest.raises(LengthMismatch):
            decode_pixels_from_file(image)
