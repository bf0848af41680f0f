"""The five-stage series rule engine, stage by stage and end to end, and
against the per-image reference engine it replaced."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_postprocess as ref
from bodyregion.errors import EmptySeries
from bodyregion.postprocess import (ResultRow, SeriesStatus, entropies,
                                    margins, merge_abdomen_chest,
                                    read_series_results,
                                    reject_uncertain, remove_outlier_runs,
                                    run_pipeline, smooth_labels,
                                    write_series_results)
from bodyregion.taxonomy import CANONICAL_ORDER, BodyRegion

AB = BodyRegion.ABDOMEN
CH = BodyRegion.CHEST
AC = BodyRegion.ABDOMEN_CHEST
BR = BodyRegion.BREAST
HD = BodyRegion.HEAD

MERGE_CLASSES = (AB, CH, AC)
BREAST_CLASSES = (AB, BR, CH)


def one_hot(region, classes=MERGE_CLASSES, peak=1.0):
    p = np.full(len(classes), (1.0 - peak) / (len(classes) - 1))
    p[classes.index(region)] = peak
    return p


def matrix(labels, classes=MERGE_CLASSES, peak=1.0):
    return np.stack([one_hot(lab, classes, peak) for lab in labels])


def uniform(n, classes=MERGE_CLASSES):
    return np.full((n, len(classes)), 1 / len(classes))


def run(probs, modality, classes=MERGE_CLASSES, uids=None, **kwargs):
    uids = uids or [str(i) for i in range(len(probs))]
    return run_pipeline(uids, probs, classes, modality, **kwargs)


def gate(probs, *args, **kwargs):
    return reject_uncertain(margins(probs), entropies(probs), *args, **kwargs)


class TestMarginsEntropies:
    CLASSES = (AB, CH, HD)

    def test_label_margin_entropy(self):
        probs = np.array([[0.2, 0.5, 0.3]])
        labels = merge_abdomen_chest(probs, self.CLASSES)
        assert self.CLASSES[labels[0]] is CH
        assert margins(probs)[0] == pytest.approx(0.2)
        expected = -(0.2 * np.log(0.2) + 0.5 * np.log(0.5)
                     + 0.3 * np.log(0.3)) / np.log(3)
        assert entropies(probs)[0] == pytest.approx(expected)

    def test_one_hot(self):
        probs = np.array([[1.0, 0.0, 0.0]])
        assert margins(probs)[0] == pytest.approx(1.0)
        assert entropies(probs)[0] == pytest.approx(0.0)

    def test_uniform(self):
        probs = uniform(1, self.CLASSES)
        assert margins(probs)[0] == pytest.approx(0.0)
        assert entropies(probs)[0] == pytest.approx(1.0)

    def test_single_class(self):
        probs = np.ones((2, 1))
        assert margins(probs).tolist() == [1.0, 1.0]
        assert entropies(probs).tolist() == [0.0, 0.0]

    def test_rows_are_independent(self):
        # Each value equals the one computed for its row alone, whatever
        # the zeros of the other rows.
        rng = np.random.default_rng(7)
        probs = rng.random((40, 19))
        probs[rng.random(probs.shape) < 0.4] = 0.0
        probs[:, 3] += 0.01
        probs /= probs.sum(axis=1, keepdims=True)
        margin, entropy = margins(probs), entropies(probs)
        for i, row in enumerate(probs):
            nz = row[row > 0]
            assert entropy[i] == -(nz * np.log(nz)).sum() / np.log(19)
            top2 = np.sort(row)[-2:]
            assert margin[i] == top2[1] - top2[0]


class TestMerge:
    CLASSES = (AB, CH, HD, AC)

    def merged(self, labels):
        codes = merge_abdomen_chest(matrix(labels, self.CLASSES),
                                    self.CLASSES)
        return [self.CLASSES[k] for k in codes]

    def test_merges_to_predominant_chest(self):
        assert self.merged([CH, CH, AC, AB]) == [CH, CH, CH, AB]

    def test_merges_to_predominant_abdomen(self):
        assert self.merged([AB, AB, AC, CH]) == [AB, AB, AB, CH]

    def test_tie_defaults_to_abdomen(self):
        assert self.merged([AB, CH, AC]) == [AB, CH, AB]

    def test_absence_defaults_to_abdomen(self):
        assert self.merged([HD, AC, AC]) == [HD, AB, AB]

    def test_no_ac_is_identity(self):
        labels = [CH, AB, HD]
        assert self.merged(labels) == labels

    def test_folds_in_place(self):
        probs = np.array([[0.1, 0.5, 0.1, 0.3], [0.2, 0.2, 0.2, 0.4]])
        merge_abdomen_chest(probs, self.CLASSES)
        # One Chest label and no Abdomen one: the mass goes to Chest.
        assert np.allclose(probs, [[0.1, 0.8, 0.1, 0.0],
                                   [0.2, 0.6, 0.2, 0.0]])


class TestBreastRule:
    def final(self, labels, modality):
        return run(matrix(labels, BREAST_CLASSES), modality,
                   BREAST_CLASSES).final_labels

    def test_mri_half_inclusive(self):
        assert self.final([BR, BR, AB, CH], "MR") == [BR] * 4

    def test_mri_below_half(self):
        labels = [BR, BR, AB, AB, AB]
        assert self.final(labels, "MR") == labels

    def test_odd_length_majority(self):
        assert self.final([BR, BR, AB], "MR") == [BR] * 3

    def test_ct_untouched(self):
        labels = [BR, BR, BR, AB]
        assert self.final(labels, "CT") == labels


class TestUncertainty:
    def test_one_hot_accepted(self):
        probs = matrix([AB] * 5)
        assert gate(probs, "margin") is SeriesStatus.ACCEPTED
        assert gate(probs, "entropy") is SeriesStatus.ACCEPTED

    def test_uniform_rejected(self):
        assert gate(uniform(5), "margin") is SeriesStatus.REJECTED_UNCERTAIN
        assert gate(uniform(5), "entropy") is SeriesStatus.REJECTED_UNCERTAIN

    def test_ct_never_rejected(self):
        assert gate(uniform(1), "margin", modality="CT") is \
            SeriesStatus.ACCEPTED

    def test_margin_threshold_boundary(self):
        # margin exactly at the threshold is accepted (strict less-than).
        probs = np.array([[0.5, 0.3, 0.2]])
        assert gate(probs, "margin", threshold=0.2) is SeriesStatus.ACCEPTED
        assert gate(probs, "margin", threshold=0.201) is \
            SeriesStatus.REJECTED_UNCERTAIN

    def test_empty(self):
        with pytest.raises(EmptySeries):
            reject_uncertain(np.empty(0), np.empty(0))

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            gate(matrix([AB]), "sigma")


class TestOutlierRuns:
    def test_short_interior_run_removed(self):
        assert remove_outlier_runs([AB, AB, CH, AB, AB]) == [AB] * 5

    def test_long_interior_run_kept(self):
        labels = [AB] * 3 + [CH] * 3 + [AB] * 3
        assert remove_outlier_runs(labels) == labels

    def test_boundary_runs_kept(self):
        labels = [CH, AB, AB, AB, CH]
        assert remove_outlier_runs(labels) == labels

    def test_tie_goes_to_preceding(self):
        assert remove_outlier_runs([AB, AB, CH, HD, HD]) == [AB, AB, AB, HD, HD]

    def test_longer_neighbor_wins(self):
        assert remove_outlier_runs([AB, CH, HD, HD, HD]) == [AB, HD, HD, HD, HD]

    def test_min_run_parameter(self):
        labels = [AB] * 3 + [CH, CH] + [AB] * 3
        assert remove_outlier_runs(labels, min_run=3) == [AB] * 8
        assert remove_outlier_runs(labels, min_run=2) == labels


class TestSmoothing:
    @staticmethod
    def smoothed(probs, **kwargs):
        return [MERGE_CLASSES[k] for k in smooth_labels(probs, **kwargs)]

    def test_isolated_outlier_flipped(self):
        assert self.smoothed(matrix([AB, AB, CH, AB, AB])) == [AB] * 5

    def test_uniform_series_unchanged(self):
        assert self.smoothed(matrix([CH] * 4)) == [CH] * 4

    def test_window_shrinks_at_ends(self):
        # The last image averages images 1 and 2, both Abdomen; the first
        # averages images 0 and 1, a Chest and an Abdomen vote, a tie the
        # argmax gives to the lower class index (Abdomen).
        assert self.smoothed(matrix([CH, AB, AB])) == [AB] * 3

    def test_probability_averaging(self):
        # A weak outlier between confident neighbors must flip.
        probs = np.stack([one_hot(AB, peak=0.9), one_hot(CH, peak=0.4),
                          one_hot(AB, peak=0.9)])
        assert self.smoothed(probs)[1] == AB

    def test_empty(self):
        with pytest.raises(EmptySeries):
            smooth_labels(np.empty((0, 3)))


class TestPipeline:
    def test_merge_then_smooth(self):
        result = run(matrix([CH, CH, AC, CH, CH]), "CT", series_uid="S")
        assert result.series_status is SeriesStatus.ACCEPTED
        assert result.final_labels == [CH] * 5
        assert result.series_regions == {CH}

    def test_rejected_series_has_no_labels(self):
        result = run(uniform(4), "MR")
        assert result.series_status is SeriesStatus.REJECTED_UNCERTAIN
        assert result.final_labels == []
        assert result.series_regions == set()

    def test_breast_override_skips_outlier_and_smoothing(self):
        result = run(matrix([BR, BR, AB, CH], BREAST_CLASSES), "MR",
                     BREAST_CLASSES)
        assert result.final_labels == [BR] * 4

    def test_ac_never_in_output(self):
        result = run(matrix([AC, AC, AC]), "CT")
        assert AC not in result.final_labels
        assert result.final_labels == [AB] * 3

    def test_smoothing_cannot_resurrect_ac(self):
        # AC mass adjacent to the merge target's competitor: folding the
        # probability into the target must keep AC out after averaging.
        probs = np.stack([one_hot(CH, peak=0.55), one_hot(AC, peak=0.55),
                          one_hot(CH, peak=0.55)])
        assert AC not in run(probs, "CT").final_labels

    def test_caller_matrix_untouched(self):
        # Fold and outlier rows edit the engine's own copy.
        probs = matrix([CH, CH, AC, AB, CH, CH], peak=0.9)
        kept = probs.copy()
        run(probs, "CT")
        assert np.array_equal(probs, kept)

    @given(st.lists(st.sampled_from(list(CANONICAL_ORDER)), min_size=1,
                    max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_series_closure(self, labels):
        result = run(matrix(labels, CANONICAL_ORDER, peak=0.9), "MR",
                     CANONICAL_ORDER)
        assert AC not in result.final_labels
        if result.series_status is SeriesStatus.ACCEPTED:
            assert len(result.final_labels) == len(labels)

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            run(np.empty((0, 3)), "CT")


def _normalized(classes, weights):
    """A series as `load_scores` would hand it over: each row of weights
    divided by its sum."""
    return tuple(classes), np.stack([row / float(row.sum()) for row in
                                     np.asarray(weights, dtype=float)])


@st.composite
def score_series(draw):
    """Rows of weights over 1 to 19 classes, zeros and exact ties
    included."""
    classes = draw(st.lists(st.sampled_from(CANONICAL_ORDER), min_size=1,
                            max_size=19, unique=True))
    weight = st.one_of(st.integers(0, 3), st.floats(0.0, 1.0))
    rows = []
    for _ in range(draw(st.integers(1, 25))):
        vec = draw(st.lists(weight, min_size=len(classes),
                            max_size=len(classes)))
        if sum(vec) == 0:
            vec[draw(st.integers(0, len(classes) - 1))] = 1
        rows.append(vec)
    return _normalized(classes, rows)


class TestReferenceEngine:
    """run_pipeline + write_series_results write the bytes of the
    per-image reference engine (tests/reference_postprocess.py)."""

    @given(score_series(), st.sampled_from(["MR", "CT"]),
           st.sampled_from(["margin", "entropy"]), st.floats(0.0, 1.0),
           st.integers(1, 4), st.sampled_from([1, 3, 5]))
    # Exact ties that only the reference's row divisions keep: 0.2 + 0.1
    # folded onto Abdomen against Shoulder's 0.3 (the division on entry),
    # and Hand against Knee in the window mean (the one before smoothing).
    @example(_normalized((BodyRegion.SHOULDER, BodyRegion.PELVIS,
                          BodyRegion.FOOT, AC, AB), [[3, 2, 2, 2, 1]]),
             "CT", "margin", 0.2, 3, 3)
    @example(_normalized((BodyRegion.HAND, BodyRegion.SHOULDER,
                          BodyRegion.KNEE, BodyRegion.ARM),
                         [[2, 0, 1, 0], [0, 3, 2, 1]]),
             "CT", "margin", 0.2, 1, 3)
    @settings(max_examples=400, deadline=None)
    def test_same_results_bytes(self, series, modality, metric, threshold,
                                min_run, window):
        classes, probs = series
        uids = [f"1.{i}" for i in range(len(probs))]
        kwargs = dict(uncertainty_metric=metric,
                      uncertainty_threshold=threshold, min_run=min_run,
                      window=window, series_uid="1")
        try:
            expected = ref.run_pipeline(
                [ref.Prediction(uid, classes, row)
                 for uid, row in zip(uids, probs)], modality, **kwargs)
        except ValueError:
            # AbdomenChest without the class it merges into.
            with pytest.raises(ValueError):
                run_pipeline(uids, probs, classes, modality, **kwargs)
            return
        result = run_pipeline(uids, probs, classes, modality, **kwargs)
        with tempfile.TemporaryDirectory() as tmp:
            ref.write_series_results([expected], Path(tmp, "ref.ndjson"))
            write_series_results([result], Path(tmp, "new.ndjson"))
            assert (Path(tmp, "new.ndjson").read_bytes()
                    == Path(tmp, "ref.ndjson").read_bytes())


class TestResultsIO:
    def test_round_trip(self, tmp_path):
        results = [run(matrix([CH, CH, AB]), "CT", series_uid="S1")]
        path = tmp_path / "results.ndjson"
        write_series_results(results, path)
        [row] = read_series_results(path)
        assert row.series_uid == "S1"
        assert row.status is SeriesStatus.ACCEPTED
        assert [label for _, label in row.labels] == results[0].final_labels

    def test_rejected_row(self, tmp_path):
        results = [run(uniform(1), "MR", uids=["1"], series_uid="S2")]
        path = tmp_path / "results.ndjson"
        write_series_results(results, path)
        [row] = read_series_results(path)
        assert row.status is SeriesStatus.REJECTED_UNCERTAIN
        assert row.series_regions == ()
        assert row.labels == (("1", None),)

    def test_typed_round_trip(self, tmp_path):
        # Head comes before Arm in the taxonomy, after it by name: the
        # series regions keep the file's order, sorted by name, and the
        # labels keep the image order.
        classes = (HD, BodyRegion.ARM)
        accepted = run(matrix([HD, HD, HD, BodyRegion.ARM, BodyRegion.ARM,
                               BodyRegion.ARM], classes), "CT", classes,
                       series_uid="S1")
        rejected = run(uniform(2), "MR", uids=["7", "8"], series_uid="S2")
        path = tmp_path / "results.ndjson"
        write_series_results([accepted, rejected], path)
        assert read_series_results(path) == [
            ResultRow("S1", SeriesStatus.ACCEPTED, (BodyRegion.ARM, HD),
                      (("0", HD), ("1", HD), ("2", HD),
                       ("3", BodyRegion.ARM), ("4", BodyRegion.ARM),
                       ("5", BodyRegion.ARM))),
            ResultRow("S2", SeriesStatus.REJECTED_UNCERTAIN, (),
                      (("7", None), ("8", None)))]
