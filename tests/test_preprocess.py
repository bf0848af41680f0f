"""Normalization chain and augmentation: bounds, invariance, geometry."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bodyregion.errors import EmptyImage, ParamsOutOfRange
from bodyregion.preprocess import (AugmentParams, _affine_warp,
                                   _bilinear_resize, augment, augment_matrix,
                                   clip_normalize, preprocess_image,
                                   resize_pad, sample_augment_params,
                                   to_three_channel)

images = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=40),
    elements=st.floats(-1e6, 1e6, allow_nan=False))


class TestClipNormalize:
    def test_constant_image_is_zero(self):
        assert np.all(clip_normalize(np.full((5, 5), 123.0)) == 0.0)

    def test_empty_image(self):
        with pytest.raises(EmptyImage):
            clip_normalize(np.empty((0, 0)))

    def test_known_values(self):
        # Values 0,0,0,4: mean 1, population std sqrt(3).
        x = np.array([0.0, 0.0, 0.0, 4.0])
        out = clip_normalize(x)
        s = math.sqrt(3.0)
        assert out == pytest.approx([-1 / (2 * s)] * 3 + [3 / (2 * s)])

    def test_outlier_clipped_to_two(self):
        x = np.zeros(10000)
        x[0] = 1e9
        assert clip_normalize(x).max() == pytest.approx(2.0)

    @given(images)
    @settings(max_examples=300, deadline=None)
    def test_bounds(self, img):
        out = clip_normalize(img)
        assert np.all(out >= -2.0) and np.all(out <= 2.0)

    @given(images, st.floats(0.01, 100.0), st.floats(-1e4, 1e4))
    @settings(max_examples=300, deadline=None)
    def test_affine_invariance(self, img, a, b):
        # Each value of a * img + b carries round-off of about
        # eps * (|b| + a * max|img|), so the scaled spread must dominate
        # that (b = 0, a = 1 bounds the plain image too). Nearly constant
        # images are covered by the exact constant-image case.
        assume(a * img.std() > 1e-5 * (1.0 + abs(b) + a * np.abs(img).max()))
        base = clip_normalize(img)
        scaled = clip_normalize(a * img + b)
        assert np.allclose(base, scaled, atol=1e-9)

    def test_negation_flips_sign(self):
        img = np.arange(16.0).reshape(4, 4)
        assert np.allclose(clip_normalize(-img), -clip_normalize(img))

    @staticmethod
    def _reference(pixels):
        """Out-of-place formula: std computed without the mean passed in."""
        values = np.asarray(pixels).astype(np.float64)
        mean = float(values.mean())
        std = float(values.std())
        if std == 0.0:
            return np.zeros_like(values)
        clipped = np.clip(values, mean - 4.0 * std, mean + 4.0 * std)
        return np.clip((clipped - mean) / (2.0 * std), -2.0, 2.0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("shape", [(64, 64), (37, 90), (1, 50)])
    def test_equals_reference_with_outliers(self, dtype, shape):
        rng = np.random.default_rng(shape[1])
        top = np.iinfo(dtype).max
        pixels = rng.integers(0, top // 8, shape).astype(dtype)
        pixels.flat[rng.integers(0, pixels.size)] = top
        out = clip_normalize(pixels)
        assert np.array_equal(out, self._reference(pixels))
        assert out.max() == 2.0  # the outlier was clipped

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_constant_equals_reference(self, dtype):
        pixels = np.full((16, 24), 200, dtype=dtype)
        assert np.array_equal(clip_normalize(pixels), self._reference(pixels))

    def test_input_untouched(self):
        pixels = np.arange(64.0).reshape(8, 8)
        before = pixels.copy()
        clip_normalize(pixels)
        assert np.array_equal(pixels, before)


def _ix_resize(values, ch, cw):
    """Reference bilinear resize: four 2-D np.ix_ gathers, no separation."""
    h, w = values.shape

    def coords(n_src, n_dst):
        c = (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5
        return np.clip(c, 0.0, n_src - 1)

    ys, xs = coords(h, ch), coords(w, cw)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = values[np.ix_(y0, x0)] * (1 - fx) + values[np.ix_(y0, x1)] * fx
    bot = values[np.ix_(y1, x0)] * (1 - fx) + values[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


class TestBilinearResize:
    @pytest.mark.parametrize("src,dst", [
        ((64, 64), (224, 224)),    # upsampling
        ((512, 512), (224, 224)),  # downsampling
        ((40, 90), (100, 224)),    # non-square, up
        ((300, 120), (224, 90)),   # non-square, down
        ((30, 500), (224, 13)),    # rows up, columns down
        ((1, 50), (4, 224)),       # 1 x N
        ((50, 1), (224, 4)),       # N x 1
        ((224, 224), (224, 224)),  # already the target size
    ])
    def test_bit_identical_to_ix_reference(self, src, dst):
        values = np.random.default_rng(sum(src)).standard_normal(src) * 100
        before = values.copy()
        out = _bilinear_resize(values, *dst)
        assert out.shape == dst
        assert np.array_equal(out, _ix_resize(values, *dst))
        assert np.array_equal(values, before)

    def test_already_target_is_identity(self):
        values = np.random.default_rng(5).standard_normal((224, 224))
        assert np.array_equal(_bilinear_resize(values, 224, 224), values)

    @pytest.mark.parametrize("shape", [(64, 64), (512, 512), (1, 50),
                                       (120, 300), (224, 224)])
    def test_resize_pad_matches_reference(self, shape):
        values = np.random.default_rng(shape[0]).random(shape)
        h, w = shape
        if h >= w:
            ch, cw = 224, max(1, round(w * 224 / h))
        else:
            ch, cw = max(1, round(h * 224 / w)), 224
        expected = np.zeros((224, 224))
        oy, ox = (224 - ch) // 2, (224 - cw) // 2
        expected[oy:oy + ch, ox:ox + cw] = _ix_resize(values, ch, cw)
        assert np.array_equal(resize_pad(values), expected)


class TestResizePad:
    def test_square_passthrough_shape(self):
        out = resize_pad(np.ones((224, 224)))
        assert out.shape == (224, 224)
        assert np.all(out == 1.0)

    def test_landscape_letterbox(self):
        out = resize_pad(np.ones((100, 200)))
        assert out.shape == (224, 224)
        ch = round(100 * 224 / 200)  # 112
        oy = (224 - ch) // 2
        assert np.all(out[oy:oy + ch] == pytest.approx(1.0))
        assert np.all(out[:oy] == 0.0) and np.all(out[oy + ch:] == 0.0)

    def test_portrait_letterbox(self):
        out = resize_pad(np.ones((200, 100)))
        cw = round(100 * 224 / 200)
        ox = (224 - cw) // 2
        assert np.all(out[:, :ox] == 0.0)
        assert np.all(out[:, ox:ox + cw] == pytest.approx(1.0))

    def test_upscale_small_image(self):
        out = resize_pad(np.ones((8, 8)))
        assert out.shape == (224, 224)
        assert out.mean() == pytest.approx(1.0, abs=1e-9)

    def test_mean_preserved_for_smooth_ramp(self):
        # Bilinear downscale of a linear ramp keeps values in range.
        img = np.tile(np.linspace(0, 1, 448), (448, 1))
        out = resize_pad(img)
        assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12
        assert out[112, 0] == pytest.approx(img[0, 0], abs=0.01)
        assert out[112, 223] == pytest.approx(img[0, -1], abs=0.01)

    def test_empty(self):
        with pytest.raises(EmptyImage):
            resize_pad(np.empty((0, 3)))


class TestThreeChannel:
    def test_replication(self):
        img = np.arange(6.0).reshape(2, 3)
        out = to_three_channel(img)
        assert out.shape == (2, 3, 3)
        for c in range(3):
            assert np.array_equal(out[:, :, c], img)


class TestAugmentParams:
    def test_bounds_validate(self):
        AugmentParams().validate()
        AugmentParams(rotation=math.pi / 10, translate_x=0.1, shear_y=0.1,
                      scale_x=1.2, scale_y=0.8).validate()

    @pytest.mark.parametrize("kwargs", [
        {"rotation": math.pi / 9}, {"translate_x": 0.11}, {"shear_x": 0.11},
        {"scale_x": 1.21}, {"scale_y": 0.79},
    ])
    def test_out_of_range(self, kwargs):
        with pytest.raises(ParamsOutOfRange):
            AugmentParams(**kwargs).validate()

    def test_sampled_within_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sample_augment_params(rng).validate()

    def test_identity_matrix(self):
        assert np.allclose(augment_matrix(AugmentParams()), np.eye(2))


def _affine_warp_loop(src, m00, m01, m10, m11, t0, t1, out):
    """Reference warp, one output pixel at a time: sample the source at
    (m00*r + m01*c + t0, m10*r + m11*c + t1), bilinear, zeros outside."""
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


class TestAffineWarp:
    def test_matches_reference_on_random_warps(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            src = rng.random((31, 37))
            m = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
            t0, t1 = rng.uniform(-5, 5, 2)
            expected = np.empty((29, 33))
            out = np.empty((29, 33))
            _affine_warp_loop(src, m[0, 0], m[0, 1], m[1, 0], m[1, 1],
                              t0, t1, expected)
            _affine_warp(src, m[0, 0], m[0, 1], m[1, 0], m[1, 1],
                         t0, t1, out)
            assert np.allclose(out, expected, atol=1e-12)

    def test_identity_warp(self):
        src = np.random.default_rng(1).random((16, 16))
        out = np.empty_like(src)
        _affine_warp(src, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, out)
        assert np.allclose(out, src)

    def test_outside_is_zero(self):
        src = np.ones((8, 8))
        out = np.empty((8, 8))
        _affine_warp(src, 1.0, 0.0, 0.0, 1.0, 100.0, 0.0, out)
        assert np.all(out == 0.0)


class TestAugment:
    def test_identity_params_identity_output(self):
        img = np.random.default_rng(0).random((32, 32))
        assert np.allclose(augment(img, AugmentParams()), img, atol=1e-12)

    def test_pure_translation_shifts_pixels(self):
        img = np.zeros((20, 20))
        img[10, 10] = 1.0
        out = augment(img, AugmentParams(translate_x=0.1, translate_y=0.1))
        assert out[12, 12] == pytest.approx(1.0)
        assert out[10, 10] == pytest.approx(0.0)

    def test_rotation_moves_off_axis_point(self):
        img = np.zeros((41, 41))
        img[20, 30] = 1.0  # 10 px right of center
        out = augment(img, AugmentParams(rotation=math.pi / 10))
        # Forward rotation by theta maps (x, y)=(10, 0) to about
        # (10 cos, 10 sin) in (col, row) with row axis pointing down.
        r = 20 + 10 * math.sin(math.pi / 10)
        c = 20 + 10 * math.cos(math.pi / 10)
        peak = np.unravel_index(np.argmax(out), out.shape)
        assert abs(peak[0] - r) <= 1 and abs(peak[1] - c) <= 1

    def test_outside_is_zero(self):
        img = np.ones((16, 16))
        out = augment(img, AugmentParams(translate_x=0.1))
        assert np.all(out[:, 0] == 0.0)

    def test_rng_path_deterministic(self):
        img = np.random.default_rng(1).random((16, 16))
        a = augment(img, rng=np.random.default_rng(5))
        b = augment(img, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_requires_params_or_rng(self):
        with pytest.raises(ParamsOutOfRange):
            augment(np.ones((4, 4)))


class TestPreprocessImage:
    def test_full_chain(self):
        pixels = np.random.default_rng(0).integers(0, 4096, (100, 80))
        img = preprocess_image(pixels, sop_uid="1.2.3")
        assert img.values.shape == (224, 224)
        assert img.original_shape == (100, 80)
        assert img.source_sop_uid == "1.2.3"
        assert np.all(np.abs(img.values) <= 2.0)
