"""The five-stage series rule engine, stage by stage and end to end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyregion.classify import Prediction
from bodyregion.errors import EmptySeries
from bodyregion.postprocess import (ResultRow, SeriesStatus,
                                    apply_breast_rule, merge_abdomen_chest,
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


def one_hot(region, classes=MERGE_CLASSES, uid="1", peak=1.0):
    p = np.full(len(classes), (1.0 - peak) / (len(classes) - 1))
    p[classes.index(region)] = peak
    return Prediction(uid, classes, p)


def preds_from_labels(labels, classes=MERGE_CLASSES, peak=1.0):
    return [one_hot(lab, classes, uid=str(i), peak=peak)
            for i, lab in enumerate(labels)]


class TestMerge:
    def test_merges_to_predominant_chest(self):
        assert merge_abdomen_chest([CH, CH, AC, AB]) == [CH, CH, CH, AB]

    def test_merges_to_predominant_abdomen(self):
        assert merge_abdomen_chest([AB, AB, AC, CH]) == [AB, AB, AB, CH]

    def test_tie_defaults_to_abdomen(self):
        assert merge_abdomen_chest([AB, CH, AC]) == [AB, CH, AB]

    def test_absence_defaults_to_abdomen(self):
        assert merge_abdomen_chest([HD, AC, AC]) == [HD, AB, AB]

    def test_no_ac_is_identity(self):
        labels = [CH, AB, HD]
        assert merge_abdomen_chest(labels) == labels


class TestBreastRule:
    def test_mri_half_inclusive(self):
        assert apply_breast_rule([BR, BR, AB, CH], "MR") == [BR] * 4

    def test_mri_below_half(self):
        labels = [BR, AB, CH]
        assert apply_breast_rule(labels, "MR") == labels

    def test_odd_length_majority(self):
        assert apply_breast_rule([BR, BR, AB], "MR") == [BR] * 3

    def test_ct_untouched(self):
        labels = [BR, BR, BR, AB]
        assert apply_breast_rule(labels, "CT") == labels


class TestUncertainty:
    def test_one_hot_accepted(self):
        preds = preds_from_labels([AB] * 5)
        assert reject_uncertain(preds, "margin") is SeriesStatus.ACCEPTED
        assert reject_uncertain(preds, "entropy") is SeriesStatus.ACCEPTED

    def test_uniform_rejected(self):
        uniform = [Prediction(str(i), MERGE_CLASSES, np.full(3, 1 / 3))
                   for i in range(5)]
        assert reject_uncertain(uniform, "margin") is \
            SeriesStatus.REJECTED_UNCERTAIN
        assert reject_uncertain(uniform, "entropy") is \
            SeriesStatus.REJECTED_UNCERTAIN

    def test_ct_never_rejected(self):
        uniform = [Prediction("1", MERGE_CLASSES, np.full(3, 1 / 3))]
        assert reject_uncertain(uniform, "margin", modality="CT") is \
            SeriesStatus.ACCEPTED

    def test_margin_threshold_boundary(self):
        # margin exactly at the threshold is accepted (strict less-than).
        p = Prediction("1", MERGE_CLASSES, np.array([0.5, 0.3, 0.2]))
        assert reject_uncertain([p], "margin", threshold=0.2) is \
            SeriesStatus.ACCEPTED
        assert reject_uncertain([p], "margin", threshold=0.201) is \
            SeriesStatus.REJECTED_UNCERTAIN

    def test_empty(self):
        with pytest.raises(EmptySeries):
            reject_uncertain([])

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            reject_uncertain(preds_from_labels([AB]), "sigma")


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
    def test_isolated_outlier_flipped(self):
        preds = preds_from_labels([AB, AB, CH, AB, AB])
        assert smooth_labels(preds) == [AB] * 5

    def test_uniform_series_unchanged(self):
        preds = preds_from_labels([CH] * 4)
        assert smooth_labels(preds) == [CH] * 4

    def test_window_shrinks_at_ends(self):
        preds = preds_from_labels([CH, AB, AB])
        # index 0 averages items 0..1 -> tie favors first argmax index
        # ordering; with one CH and one AB vote the mean is equal, so the
        # argmax picks the lower class index (Abdomen).
        assert smooth_labels(preds)[2] == AB

    def test_probability_averaging(self):
        # A weak outlier between confident neighbors must flip.
        preds = [one_hot(AB, peak=0.9, uid="0"),
                 one_hot(CH, peak=0.4, uid="1"),
                 one_hot(AB, peak=0.9, uid="2")]
        assert smooth_labels(preds)[1] == AB


class TestPipeline:
    def test_merge_then_smooth(self):
        preds = preds_from_labels([CH, CH, AC, CH, CH])
        result = run_pipeline(preds, "CT", series_uid="S")
        assert result.series_status is SeriesStatus.ACCEPTED
        assert result.final_labels == [CH] * 5
        assert result.series_regions == {CH}

    def test_rejected_series_has_no_labels(self):
        uniform = [Prediction(str(i), MERGE_CLASSES, np.full(3, 1 / 3))
                   for i in range(4)]
        result = run_pipeline(uniform, "MR")
        assert result.series_status is SeriesStatus.REJECTED_UNCERTAIN
        assert result.final_labels == []
        assert result.series_regions == set()

    def test_breast_override_skips_outlier_and_smoothing(self):
        classes = (AB, BR, CH)
        labels = [BR, BR, AB, CH]
        preds = [one_hot(lab, classes, uid=str(i)) for i, lab in enumerate(labels)]
        result = run_pipeline(preds, "MR")
        assert result.final_labels == [BR] * 4

    def test_ac_never_in_output(self):
        preds = preds_from_labels([AC, AC, AC])
        result = run_pipeline(preds, "CT")
        assert AC not in result.final_labels
        assert result.final_labels == [AB] * 3

    def test_smoothing_cannot_resurrect_ac(self):
        # AC mass adjacent to the merge target's competitor: folding the
        # probability into the target must keep AC out after averaging.
        preds = [one_hot(CH, peak=0.55, uid="0"),
                 one_hot(AC, peak=0.55, uid="1"),
                 one_hot(CH, peak=0.55, uid="2")]
        result = run_pipeline(preds, "CT")
        assert AC not in result.final_labels

    @given(st.lists(st.sampled_from(list(CANONICAL_ORDER)), min_size=1,
                    max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_series_closure(self, labels):
        preds = preds_from_labels(labels, classes=CANONICAL_ORDER, peak=0.9)
        result = run_pipeline(preds, "MR")
        assert AC not in result.final_labels
        if result.series_status is SeriesStatus.ACCEPTED:
            assert len(result.final_labels) == len(labels)

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            run_pipeline([], "CT")


class TestResultsIO:
    def test_round_trip(self, tmp_path):
        results = [run_pipeline(preds_from_labels([CH, CH, AB]), "CT",
                                series_uid="S1")]
        path = tmp_path / "results.ndjson"
        write_series_results(results, path)
        [row] = read_series_results(path)
        assert row.series_uid == "S1"
        assert row.status is SeriesStatus.ACCEPTED
        assert [label for _, label in row.labels] == results[0].final_labels

    def test_rejected_row(self, tmp_path):
        uniform = [Prediction("1", MERGE_CLASSES, np.full(3, 1 / 3))]
        results = [run_pipeline(uniform, "MR", series_uid="S2")]
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
        accepted = run_pipeline(
            preds_from_labels([HD, HD, HD, BodyRegion.ARM, BodyRegion.ARM,
                               BodyRegion.ARM], classes), "CT",
            series_uid="S1")
        uniform = [Prediction(uid, MERGE_CLASSES, np.full(3, 1 / 3))
                   for uid in ("7", "8")]
        rejected = run_pipeline(uniform, "MR", series_uid="S2")
        path = tmp_path / "results.ndjson"
        write_series_results([accepted, rejected], path)
        assert read_series_results(path) == [
            ResultRow("S1", SeriesStatus.ACCEPTED, (BodyRegion.ARM, HD),
                      (("0", HD), ("1", HD), ("2", HD),
                       ("3", BodyRegion.ARM), ("4", BodyRegion.ARM),
                       ("5", BodyRegion.ARM))),
            ResultRow("S2", SeriesStatus.REJECTED_UNCERTAIN, (),
                      (("7", None), ("8", None)))]
