"""The PackBits kernel, bit for bit against the run-at-a-time loop it
replaced and against the independent oracle decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyregion._kernels import packbits_decode
from bodyregion.pixels import packbits_encode

from test_pixels import oracle_packbits_decode


def _packbits_decode_loop(src, out):
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


SENTINEL = 0xA5


def _both(src, cap):
    """Decode `src` with both decoders into sentinel-filled outputs with
    spare room after `cap`; return (result, whole buffer) of each."""
    src = np.frombuffer(bytes(src), dtype=np.uint8)
    got = np.full(cap + 8, SENTINEL, dtype=np.uint8)
    want = got.copy()
    return ((packbits_decode(src, got[:cap]), got.tobytes()),
            (_packbits_decode_loop(src, want[:cap]), want.tobytes()))


class TestPackbitsEquivalence:
    def test_bit_for_bit(self):
        """Run-heavy payloads (bytes drawn from 0x00/0x55/0xAA/0xFF) decode
        to the oracle's bytes and leave the spare output room untouched."""
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(0, 2000))
            payload = rng.integers(0, 4, n).astype(np.uint8) * 85
            enc = np.frombuffer(packbits_encode(payload.tobytes()),
                                dtype=np.uint8)
            expected = oracle_packbits_decode(enc.tobytes())
            assert expected == payload.tobytes()
            out = np.zeros(n + 4, dtype=np.uint8)
            assert packbits_decode(enc, out) == n
            assert out[:n].tobytes() == expected
            assert not out[n:].any()

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_on_arbitrary_bytes(self, data):
        """Any byte string, not only encoder output, and any output size up
        to twice the input: same result, same bytes written, same bytes
        left alone (including after a -1)."""
        src = data.draw(
            st.binary(max_size=600)
            | st.lists(st.sampled_from(b"\x00\x01\x7f\x80\x81\xfe\xff"),
                       max_size=600).map(bytes))
        cap = data.draw(st.integers(0, 2 * len(src) + 2))
        got, want = _both(src, cap)
        assert got == want

    @pytest.mark.parametrize("src, cap, result, written", [
        (b"", 4, 0, b""),
        (b"\x00A", 0, 0, b""),
        (b"\x80\x80\x80", 4, 0, b""),
        (b"\x80\x00A\x80\x80\xffB\x80", 4, 3, b"ABB"),
        (b"\x03AB", 8, -1, b""),                    # literal cut short
        (b"\x00A\x01BC\x05", 8, -1, b"ABC"),        # literal header last
        (b"\x00A\xfe", 8, -1, b"A"),                # replicate header last
        (b"\x01AB\xfeC\xfd\x07garbage", 5, 5, b"ABCCC"),  # full, then junk
        (b"\x01AB\xfeC\x80\x05", 5, 5, b"ABCCC"),   # full, then a cut literal
        (b"\x01AB\xfdC", 4, -1, b"AB"),             # replicate crosses cap
        (b"\x02ABC", 2, -1, b""),                   # literal crosses cap
    ])
    def test_edge_cases(self, src, cap, result, written):
        got, want = _both(src, cap)
        assert got == want
        assert got[0] == result
        n = len(written)
        assert got[1][:n] == written
        assert got[1][n:] == bytes([SENTINEL]) * (cap + 8 - n)
