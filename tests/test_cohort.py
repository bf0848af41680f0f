"""Inclusion/exclusion filtering and partitioning."""

import math
from dataclasses import replace

import pytest

from bodyregion.cohort import (FilterReason, Split, apply_filters,
                               filter_image, filter_series, mri_sequence_type,
                               partition_patients)
from bodyregion.errors import EmptyCohort
from bodyregion.taxonomy import BodyRegion

from conftest import make_image, make_series, make_study

SAGITTAL = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


class TestSeriesFilter:
    def test_axial_ct_included(self):
        assert filter_series(make_series()).included

    def test_wrong_modality(self):
        dec = filter_series(make_series(modality="US"))
        assert dec.reason is FilterReason.WRONG_MODALITY

    @pytest.mark.parametrize("desc", ["SCOUT", "ax localizer", "MPR cor",
                                      "3D recon", "Screen Save"])
    def test_derived_keywords(self, desc):
        dec = filter_series(make_series(description=desc))
        assert dec.reason is FilterReason.MPR_OR_DERIVED

    @pytest.mark.parametrize("modality,desc", [
        ("MR", "ax FLOW quant"), ("MR", "ADC map"), ("MR", "ep2d_diff trace"),
        ("MR", "VIPR angio"), ("CT", "velocity study"),
    ])
    def test_exclude_keywords(self, modality, desc):
        dec = filter_series(make_series(modality=modality, description=desc))
        assert dec.reason is FilterReason.KEYWORD_EXCLUDED

    def test_ct_keeps_mri_keywords(self):
        assert filter_series(make_series(modality="CT",
                                         description="ADC body")).included

    def test_sagittal_excluded(self):
        series = make_series()
        for im in series.images:
            im.image_orientation_patient = SAGITTAL
        assert filter_series(series).reason is FilterReason.NOT_AXIAL

    @pytest.mark.parametrize("degrees, reason", [
        (45.0, FilterReason.INCLUDED), (46.0, FilterReason.NOT_AXIAL)])
    def test_axial_angle_boundary_is_inclusive(self, degrees, reason):
        t = math.radians(degrees)
        tilted = (1.0, 0.0, 0.0, 0.0, math.cos(t), math.sin(t))
        series = make_series()
        for im in series.images:
            im.image_orientation_patient = tilted
        assert filter_series(series).reason is reason

    @pytest.mark.parametrize("orientation", [
        (2.0, 0.0, 0.0, 0.0, 1.0, 0.0), (math.nan, 0.0, 0.0, 0.0, 1.0, 0.0)],
        ids=["not_unit", "nan"])
    def test_degenerate_orientation_excluded(self, orientation):
        series = make_series()
        for im in series.images:
            im.image_orientation_patient = orientation
        dec = filter_series(series)
        assert dec.reason is FilterReason.NOT_AXIAL
        assert dec.detail.startswith("degenerate: ")

    def test_missing_orientation_lenient_vs_strict(self):
        series = make_series()
        for im in series.images:
            im.image_orientation_patient = None
        assert filter_series(series).included
        strict = filter_series(series, strict_geometry=True)
        assert strict.reason is FilterReason.NOT_AXIAL


class TestImageFilter:
    def test_included(self):
        assert filter_image(make_image()).included

    def test_eight_bit_excluded_inclusive(self):
        dec = filter_image(make_image(bits_stored=8))
        assert dec.reason is FilterReason.LOW_BIT_DEPTH

    def test_nine_bit_included(self):
        assert filter_image(make_image(bits_stored=9)).included

    def test_multichannel(self):
        dec = filter_image(make_image(samples_per_pixel=3))
        assert dec.reason is FilterReason.MULTI_CHANNEL

    def test_too_few_pixels(self):
        dec = filter_image(make_image(rows=31, cols=31))
        assert dec.reason is FilterReason.TOO_FEW_PIXELS
        assert filter_image(make_image(rows=32, cols=32)).included

    def test_no_pixel_data(self):
        dec = filter_image(make_image(pixel_data_offset=None))
        assert dec.reason is FilterReason.NO_PIXEL_DATA

    def test_unknown_codec(self):
        dec = filter_image(make_image(transfer_syntax_uid="1.2.840.10008.1.2.4.50"))
        assert dec.reason is FilterReason.UNSUPPORTED_CODEC

    def test_jpeg_lossless_passes_metadata_filter(self):
        assert filter_image(make_image(
            transfer_syntax_uid="1.2.840.10008.1.2.4.70")).included


class TestApplyFilters:
    def test_empty_series_dropped(self):
        bad = make_series(series_uid="BAD", description="SCOUT")
        good = make_series(series_uid="GOOD")
        study = make_study(series=[bad, good])
        kept, rows = apply_filters([study])
        assert [s.series_uid for s in kept[0].series] == ["GOOD"]
        reasons = {uid: dec.reason for uid, _, dec in rows}
        assert reasons["BAD"] is FilterReason.MPR_OR_DERIVED

    def test_study_without_series_dropped(self):
        study = make_study(series=[make_series(description="SCOUT")])
        kept, _ = apply_filters([study])
        assert kept == []

    def test_kept_records_keep_every_field(self):
        series = make_series(slice_thickness=2.5, convolution_kernel="B30f",
                             contrast_agent="IODINE")
        series.images[1].bits_stored = 8
        study = make_study(series=[series], patient_age=40.0, patient_sex="F",
                           manufacturer="ACME", institution="H1",
                           body_part_examined="CHEST",
                           procedure_description="CT CHEST")
        kept, _ = apply_filters([study])
        kept_series = kept[0].series[0]
        assert kept_series.images == [series.images[0], series.images[2]]
        assert kept_series == replace(series, images=kept_series.images)
        assert kept[0] == replace(study, series=[kept_series])

    def test_missing_orientation_logged_once(self, caplog):
        """Three series without orientation tags: one warning line for the
        run, with the count and the first series as the example."""
        series = [make_series(series_uid=f"S{k}") for k in range(3)]
        for s in series:
            for im in s.images:
                im.image_orientation_patient = None
        study = make_study(series=[make_series(series_uid="AX")] + series)
        with caplog.at_level("WARNING", logger="bodyregion.cohort"):
            kept, rows = apply_filters([study])
        assert len(kept[0].series) == 4
        assert [r.getMessage() for r in caplog.records] == [
            "3 series: no orientation tags, treated as axial (e.g. S0)"]
        caplog.clear()
        with caplog.at_level("WARNING", logger="bodyregion.cohort"):
            apply_filters([study], strict_geometry=True)
        assert caplog.records == []

    def test_originals_not_mutated(self):
        study = make_study()
        n = len(study.series[0].images)
        study.series[0].images[0].pixel_data_offset = None
        apply_filters([study])
        assert len(study.series[0].images) == n


class TestSequenceTags:
    def test_bucket_order(self):
        assert mri_sequence_type("ax T2 FSE") == "Image weighting"
        assert mri_sequence_type("ax flair") == "Inversion recovery"
        assert mri_sequence_type("plain series") is None


class TestPartition:
    def _cohort(self, n, region=BodyRegion.CHEST):
        studies = [make_study(study_uid=f"S{i:03d}", patient_id=f"P{i:03d}")
                   for i in range(n)]
        return studies, {s.study_uid: region for s in studies}

    @pytest.mark.parametrize("n", [4, 8, 10, 41, 100])
    def test_shares_within_one_study(self, n):
        studies, regions = self._cohort(n)
        assignments = partition_patients(studies, regions)
        n_train = sum(1 for a in assignments if a.split is Split.TRAIN)
        assert abs(n_train - 0.75 * n) <= 1.0

    def test_per_region_balance(self):
        studies_a, regions = self._cohort(8)
        studies_b = [make_study(study_uid=f"T{i}", patient_id=f"Q{i}")
                     for i in range(8)]
        regions.update({s.study_uid: BodyRegion.HEAD for s in studies_b})
        assignments = partition_patients(studies_a + studies_b, regions)
        for region in (BodyRegion.CHEST, BodyRegion.HEAD):
            group = [a for a in assignments if a.region is region]
            assert sum(1 for a in group if a.split is Split.TRAIN) == 6

    def test_default_ratio_is_3_to_1_round_robin(self):
        # Per region, by descending image count then uid: T, T, T, V, ...
        chest = [make_study(study_uid=f"C{i}", patient_id=f"C{i}",
                            series=[make_series(zs=range(n))])
                 for i, n in enumerate([2, 5, 3, 5, 1, 4, 2])]
        head = [make_study(study_uid=f"H{i}", patient_id=f"H{i}",
                           series=[make_series(zs=range(n))])
                for i, n in enumerate([1, 2, 3, 4, 5])]
        regions = {s.study_uid: BodyRegion.CHEST for s in chest}
        regions.update({s.study_uid: BodyRegion.HEAD for s in head})
        assignments = partition_patients(head + chest, regions)
        T, V = Split.TRAIN, Split.VALIDATION
        assert [(a.study_uid, a.split) for a in assignments] == [
            ("C1", T), ("C3", T), ("C5", T), ("C2", V), ("C0", T), ("C6", T),
            ("C4", T), ("H4", T), ("H3", T), ("H2", T), ("H1", V), ("H0", T)]

    def test_deterministic(self):
        studies, regions = self._cohort(20)
        a = partition_patients(studies, regions)
        b = partition_patients(studies, regions)
        assert a == b

    def test_empty(self):
        with pytest.raises(EmptyCohort):
            partition_patients([], {})

