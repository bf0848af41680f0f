"""The PackBits kernel, bit for bit against the run-at-a-time loop it
replaced and against the independent oracle decoder. Each header finder and
each expansion is also run on its own, whichever the kernel would pick."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyregion._kernels import (_decode, _expand_repeat, _expand_slices,
                                 _heads_jump, _heads_walk, packbits_decode)
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

# The kernel as called, and every header finder with every expansion.
DECODERS = [("packbits_decode", packbits_decode)] + [
    (f"{find.__name__}+{expand.__name__}",
     partial(_decode, find=find, expand=expand))
    for find in (_heads_jump, _heads_walk)
    for expand in (_expand_repeat, _expand_slices)]


def _decode_into(decode, src, cap, lanes):
    """Decode `src` into lane `lanes - 1` of a sentinel-filled
    (cap + 8, lanes) buffer, so `out` is strided when `lanes` is 2; return
    the result and every byte of the buffer."""
    buf = np.full((cap + 8, lanes), SENTINEL, dtype=np.uint8)
    return decode(src, buf[:cap, lanes - 1]), buf.tobytes()


def _agree(src, cap):
    """Both header finders find the same runs, and every decoder leaves the
    same result and bytes as the loop, into a contiguous and into a strided
    `out`. Returns the loop's contiguous (result, whole buffer)."""
    data = bytes(src)
    walked, jumped = _heads_walk(data), _heads_jump(data)
    assert walked[0].dtype == jumped[0].dtype == np.intp
    assert np.array_equal(walked[0], jumped[0]) and walked[1] == jumped[1]
    src = np.frombuffer(data, dtype=np.uint8)
    for lanes in (2, 1):
        want = _decode_into(_packbits_decode_loop, src, cap, lanes)
        for name, decode in DECODERS:
            assert _decode_into(decode, src, cap, lanes) == want, name
    return want


@st.composite
def dense_streams(draw):
    """Encoder output of 5-60 KB of 2-3-symbol data in runs, sometimes cut
    short or with one byte flipped, and an output size near the data's.
    Undamaged streams with runs of 3 or more bytes on average are under
    half their output, so the kernel takes its jump-table path."""
    size = draw(st.integers(5_000, 60_000))
    symbols = draw(st.lists(st.integers(0, 255), min_size=2, max_size=3,
                            unique=True))
    mean_run = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.choice(np.array(symbols, dtype=np.uint8), size)
    data = np.repeat(values, rng.geometric(1 / mean_run, size))[:size]
    src = packbits_encode(data.tobytes())
    damage = draw(st.sampled_from(["none", "none", "truncate", "flip"]))
    if damage == "truncate":
        src = src[:draw(st.integers(0, len(src) - 1))]
    elif damage == "flip":
        at = draw(st.integers(0, len(src) - 1))
        src = (src[:at] + bytes([src[at] ^ draw(st.integers(1, 255))])
               + src[at + 1:])
    cap = draw(st.sampled_from([size, size - 1, size + 3])
               | st.integers(0, 2 * size))
    return src, cap


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
        _agree(src, cap)

    @given(dense_streams())
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_on_dense_streams(self, stream):
        """Long run-heavy streams, as in CT high-byte planes, whole or
        damaged, through both finders and both expansions."""
        _agree(*stream)

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
        got = _agree(src, cap)
        assert got[0] == result
        n = len(written)
        assert got[1][:n] == written
        assert got[1][n:] == bytes([SENTINEL]) * (cap + 8 - n)
