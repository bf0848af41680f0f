"""Prediction validation, score-file I/O, and the centroid baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyregion.classify import (CentroidBackend, Prediction,
                                 centroid_feature, fit_centroids, load_scores,
                                 pixel_feature, save_scores,
                                 train_centroid_baseline)
from bodyregion.errors import (BackendFailure, EmptyClass, NotNormalized,
                               SchemaError)
from bodyregion.preprocess import NormalizedImage, preprocess_image
from bodyregion.taxonomy import BodyRegion

CLASSES = (BodyRegion.ABDOMEN, BodyRegion.CHEST, BodyRegion.HEAD)


def norm_image(values, uid="1"):
    values = np.asarray(values, dtype=np.float64)
    return NormalizedImage(values=values, source_sop_uid=uid,
                           original_shape=values.shape)


class TestPrediction:
    def test_label_margin_entropy(self):
        p = Prediction("1", CLASSES, np.array([0.2, 0.5, 0.3]))
        assert p.label is BodyRegion.CHEST
        assert p.margin == pytest.approx(0.2)
        expected = -(0.2 * np.log(0.2) + 0.5 * np.log(0.5)
                     + 0.3 * np.log(0.3)) / np.log(3)
        assert p.entropy == pytest.approx(expected)

    def test_one_hot(self):
        p = Prediction("1", CLASSES, np.array([1.0, 0.0, 0.0]))
        assert p.margin == pytest.approx(1.0)
        assert p.entropy == pytest.approx(0.0)

    def test_uniform(self):
        p = Prediction("1", CLASSES, np.full(3, 1 / 3))
        assert p.margin == pytest.approx(0.0)
        assert p.entropy == pytest.approx(1.0)

    def test_near_one_sum_renormalized(self):
        p = Prediction("1", CLASSES, np.array([0.5, 0.5, 1e-10]))
        assert p.probabilities.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("probs", [
        [0.5, 0.5], [0.7, 0.2, 0.2], [-0.1, 0.6, 0.5], [np.nan, 0.5, 0.5],
    ])
    def test_invalid(self, probs):
        with pytest.raises(BackendFailure):
            Prediction("1", CLASSES, np.array(probs, dtype=float))


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
    ])
    def test_schema_errors(self, tmp_path, body, err):
        path = tmp_path / "scores.csv"
        path.write_text(body)
        with pytest.raises(SchemaError):
            load_scores(path)

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
            pred = backend.classify_batch([norm_image(base, "q")])[0]
            assert pred.label is region

    def test_probabilities_normalized(self):
        backend = train_centroid_baseline(self._training_set())
        pred = backend.classify_batch([norm_image(np.ones((32, 32)), "q")])[0]
        assert pred.probabilities.sum() == pytest.approx(1.0)
        assert np.all(pred.probabilities >= 0)

    def test_empty_training_set(self):
        with pytest.raises(EmptyClass):
            train_centroid_baseline([])

    def test_advertised_class_without_examples(self):
        labeled = self._training_set()
        with pytest.raises(EmptyClass):
            train_centroid_baseline(labeled, classes=CLASSES + (BodyRegion.FOOT,))

    def test_deterministic(self):
        a = train_centroid_baseline(self._training_set())
        b = train_centroid_baseline(self._training_set())
        img = norm_image(np.random.default_rng(2).random((32, 32)), "q")
        pa = a.classify_batch([img])[0]
        pb = b.classify_batch([img])[0]
        assert np.array_equal(pa.probabilities, pb.probabilities)

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
        pb = b.predict("q", centroid_feature(img.values))
        assert pb.sop_uid == "q"
        assert np.array_equal(pa.probabilities, pb.probabilities)

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
