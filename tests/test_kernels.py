"""The PackBits kernel, bit for bit against the independent oracle decoder."""

import numpy as np

from bodyregion._kernels import packbits_decode
from bodyregion.pixels import packbits_encode

from test_pixels import oracle_packbits_decode


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
