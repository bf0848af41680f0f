"""Score-file I/O and validation, and the centroid baseline."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyregion.classify import (_exact_moments, centroid_feature,
                                 fit_centroids, load_scores, pixel_feature,
                                 save_scores, train_centroid_baseline)
from bodyregion.errors import EmptyClass, NotNormalized, SchemaError
from bodyregion.preprocess import NormalizedImage, preprocess_image
from bodyregion.taxonomy import BodyRegion

CLASSES = (BodyRegion.ABDOMEN, BodyRegion.CHEST, BodyRegion.HEAD)


def norm_image(values, uid="1"):
    values = np.asarray(values, dtype=np.float64)
    return NormalizedImage(values=values, source_sop_uid=uid,
                           original_shape=values.shape)


class TestScoreFile:
    def _scores(self):
        return {"1.1": np.array([0.7, 0.2, 0.1]),
                "1.2": np.array([0.1, 0.8, 0.1])}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        save_scores(self._scores(), CLASSES, path)
        loaded, classes = load_scores(path)
        assert classes == CLASSES
        assert set(loaded) == {"1.1", "1.2"}
        assert np.allclose(loaded["1.1"], [0.7, 0.2, 0.1])

    def test_not_normalized(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sop_uid,Abdomen,Chest\n1.1,0.9,0.5\n")
        with pytest.raises(NotNormalized):
            load_scores(path)

    def test_small_drift_renormalized(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sop_uid,Abdomen,Chest\n1.1,0.6000001,0.4\n")
        loaded, _ = load_scores(path)
        assert loaded["1.1"].sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("body,err", [
        ("sop_uid,Abdomen\n1.1,1.0\n1.1,1.0\n", "duplicate"),
        ("sop_uid,NotARegion\n1.1,1.0\n", "class"),
        ("uid,Abdomen\n1.1,1.0\n", "sop_uid"),
        ("sop_uid,Abdomen,Chest\n1.1,0.5\n", "column"),
        ("sop_uid,Abdomen\n1.1,abc\n", "numeric"),
        ("", "empty"),
        ("sop_uid,AbdomenChest,Head\n1.1,0.5,0.5\n", "not Abdomen"),
    ])
    def test_schema_errors(self, tmp_path, body, err):
        path = tmp_path / "scores.csv"
        path.write_text(body)
        with pytest.raises(SchemaError, match=err):
            load_scores(path)

    @pytest.mark.parametrize("body", [
        "", "uid,Abdomen\n1.1,1.0\n", "sop_uid,NotARegion\n1.1,1.0\n",
        "sop_uid,AbdomenChest,Chest\n1.1,0.5,0.5\n"])
    def test_header_errors_name_line_one(self, tmp_path, body):
        path = tmp_path / "scores.csv"
        path.write_text(body)
        with pytest.raises(SchemaError) as err:
            load_scores(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("row", ["1.2,nan,0.5", "1.2,inf,0.0",
                                     "1.2,-0.5,1.5"])
    def test_non_finite_or_negative_names_its_line(self, tmp_path, row):
        path = tmp_path / "scores.csv"
        path.write_text(f"sop_uid,Abdomen,Chest\n1.1,0.5,0.5\n{row}\n")
        with pytest.raises(SchemaError) as err:
            load_scores(path)
        assert err.value.line == 3


class TestCentroidBaseline:
    def _training_set(self):
        rng = np.random.default_rng(0)
        labeled = []
        for k, region in enumerate(CLASSES):
            base = np.zeros((32, 32))
            base[8 * (k % 4):8 * (k % 4) + 8, :] = 2.0  # class-specific band
            for i in range(5):
                noisy = base + 0.05 * rng.standard_normal((32, 32))
                labeled.append((norm_image(noisy, f"{k}.{i}"), region))
        return labeled

    def test_train_and_separate(self):
        backend = train_centroid_baseline(self._training_set())
        assert backend.classes == CLASSES  # canonical order
        for k, region in enumerate(CLASSES):
            base = np.zeros((32, 32))
            base[8 * (k % 4):8 * (k % 4) + 8, :] = 2.0
            probs = backend.classify_batch([norm_image(base, "q")])[0]
            assert backend.classes[int(np.argmax(probs))] is region

    def test_probabilities_normalized(self):
        backend = train_centroid_baseline(self._training_set())
        probs = backend.classify_batch([norm_image(np.ones((32, 32)), "q")])[0]
        assert probs.shape == (len(CLASSES),)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    def test_empty_training_set(self):
        with pytest.raises(EmptyClass):
            train_centroid_baseline([])

    def test_deterministic(self):
        a = train_centroid_baseline(self._training_set())
        b = train_centroid_baseline(self._training_set())
        img = norm_image(np.random.default_rng(2).random((32, 32)), "q")
        pa = a.classify_batch([img])[0]
        pb = b.classify_batch([img])[0]
        assert np.array_equal(pa, pb)

    def test_feature_path_equals_image_path(self):
        labeled = self._training_set()
        examples = [(centroid_feature(image.values), region)
                    for image, region in labeled]
        kept = [feat.copy() for feat, _ in examples]
        a = train_centroid_baseline(labeled)
        b = fit_centroids(examples)
        # Fitting must not write into the features a caller keeps to score.
        assert all(np.array_equal(f, k) for (f, _), k in zip(examples, kept))
        assert a.classes == b.classes
        img = norm_image(np.random.default_rng(3).random((224, 224)), "q")
        pa = a.classify_batch([img])[0]
        pb = b.predict(centroid_feature(img.values))
        assert np.array_equal(pa, pb)

    def test_feature_is_block_mean(self):
        values = np.random.default_rng(4).random((37, 40))
        feat = centroid_feature(values)
        assert feat.shape == (256,)
        # 37 // 16 = 2 rows and 40 // 16 = 2 columns per block; the rest is
        # cropped.
        assert feat[16 + 3] == pytest.approx(values[2:4, 6:8].mean())


class TestPixelFeature:
    """pixel_feature against the letterbox chain it replaces."""

    @staticmethod
    def _reference(pixels):
        return centroid_feature(preprocess_image(pixels).values)

    @pytest.mark.parametrize("shape", [(1, 1), (64, 64), (48, 64), (64, 30),
                                       (224, 224), (300, 17), (512, 512)])
    def test_equals_letterbox_chain(self, shape):
        pixels = np.random.default_rng(shape[0] * 1000 + shape[1]).integers(
            0, 4096, shape).astype(np.uint16)
        feat = pixel_feature(pixels)
        assert feat.shape == (256,)
        assert np.abs(feat - self._reference(pixels)).max() <= 1e-12

    def test_constant_image(self):
        pixels = np.full((40, 70), 917, dtype=np.uint16)
        assert np.array_equal(pixel_feature(pixels), self._reference(pixels))

    @given(st.integers(1, 600), st.integers(1, 600),
           st.sampled_from([np.uint8, np.uint16]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_letterbox_chain_any_shape(self, h, w, dtype, seed):
        pixels = np.random.default_rng(seed).integers(
            0, np.iinfo(dtype).max, (h, w), dtype=dtype, endpoint=True)
        assert np.abs(pixel_feature(pixels)
                      - self._reference(pixels)).max() <= 1e-12


def letterbox_feature(pixels):
    return centroid_feature(preprocess_image(pixels).values)


def exact_moments_oracle(pixels):
    """The mean and population variance of `pixels` as Fractions."""
    values = [int(v) for v in pixels.ravel()]
    mean = Fraction(sum(values), len(values))
    return mean, sum((v - mean) ** 2 for v in values) / len(values)


class TestExactMoments:
    """pixel_feature's statistics from exact integer moments, and the
    cases where a float mean and variance would lose digits."""

    @staticmethod
    def _moments(pixels):
        c, d, s1, s2 = _exact_moments(pixels)
        n = pixels.size
        assert np.array_equal(d, pixels.astype(np.int64) - c)
        assert d.dtype == np.float64
        return c + Fraction(s1, n), Fraction(n * s2 - s1 * s1, n * n), c

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int16])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_fraction_oracle(self, dtype, seed):
        rng = np.random.default_rng(seed)
        info = np.iinfo(dtype)
        shape = tuple(rng.integers(1, 90, 2))
        pixels = rng.integers(info.min, info.max, shape, dtype=dtype,
                              endpoint=True)
        mean, var, c = self._moments(pixels)
        assert (mean, var) == exact_moments_oracle(pixels)
        assert 0 <= mean - c < 1
        assert np.abs(pixel_feature(pixels)
                      - letterbox_feature(pixels)).max() <= 1e-12

    def test_two_top_values(self):
        pixels = np.array([[65535, 65534]], dtype=np.uint16)
        mean, var, _ = self._moments(pixels)
        assert (mean, var) == (Fraction(131069, 2), Fraction(1, 4))
        assert np.abs(pixel_feature(pixels)
                      - letterbox_feature(pixels)).max() <= 1e-12

    def test_near_constant_bright_image(self):
        # Mean about 60000 and std about 0.3: the +2 pixels lie past
        # mean + 4 std and are clipped.
        rng = np.random.default_rng(5)
        pixels = np.full((512, 512), 60000, dtype=np.uint16)
        pixels[rng.random((512, 512)) < 0.05] += 1
        pixels[rng.random((512, 512)) < 0.01] += 2
        mean, var, _ = self._moments(pixels)
        assert (mean, var) == exact_moments_oracle(pixels)
        assert 60001 < float(mean) + 4 * math.sqrt(var) < 60002
        feat = pixel_feature(pixels)
        assert np.abs(feat - letterbox_feature(pixels)).max() <= 1e-12

    def test_full_range_image_past_one_chunk(self):
        # More pixels than one exact float64 chunk of 16-bit deviations
        # holds, so the moments are summed over two chunks.
        shape = (1449, 1449)
        assert shape[0] * shape[1] > 2**53 // 65535**2
        pixels = np.random.default_rng(6).integers(
            0, 65535, shape, dtype=np.uint16, endpoint=True)
        pixels[0, 0], pixels[-1, -1] = 0, 65535
        c, _, s1, s2 = _exact_moments(pixels)
        wide = pixels.astype(np.int64)
        total, squares = int(wide.sum()), int((wide * wide).sum())
        n = pixels.size
        assert s1 == total - n * c
        assert s2 == squares - 2 * c * total + n * c * c
        assert np.abs(pixel_feature(pixels)
                      - letterbox_feature(pixels)).max() <= 1e-12

    @pytest.mark.parametrize("value,dtype", [(0, np.uint8), (917, np.uint16),
                                             (65535, np.uint16),
                                             (-1024, np.int16)])
    @pytest.mark.parametrize("shape", [(1, 1), (40, 70)])
    def test_constant_image_gives_zeros(self, value, dtype, shape):
        pixels = np.full(shape, value, dtype=dtype)
        assert np.array_equal(pixel_feature(pixels), np.zeros(256))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_,
                                       np.int32, np.uint64])
    def test_only_8_and_16_bit_integers(self, dtype):
        with pytest.raises(TypeError, match="8- or 16-bit integer matrix"):
            pixel_feature(np.ones((4, 4), dtype=dtype))
