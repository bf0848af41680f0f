"""Slice geometry, physical subsampling, and box-label projection."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bodyregion.errors import (DegenerateOrientation, EmptySeries,
                               MissingGeometry)
from bodyregion.geometry import (AXIAL_IDENTITY, BoundingBox3D, axial_angle,
                                 first_window_size, greedy_sample_indices,
                                 load_boxes, project_box_labels, save_boxes,
                                 series_geometry, slice_normal,
                                 sort_series_images)
from bodyregion.records import SeriesRecord
from bodyregion.taxonomy import BodyRegion

from conftest import make_image, make_series

SAGITTAL = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
CORONAL = (1.0, 0.0, 0.0, 0.0, 0.0, -1.0)
_S = math.sqrt(0.5)
TILTED_45 = (1.0, 0.0, 0.0, 0.0, _S, _S)


class TestOrientation:
    def test_axial_identity(self):
        assert np.allclose(slice_normal(AXIAL_IDENTITY), [0, 0, 1])
        assert axial_angle(AXIAL_IDENTITY) == pytest.approx(0.0)

    def test_sagittal_is_90(self):
        assert axial_angle(SAGITTAL) == pytest.approx(90.0)

    def test_coronal_is_90(self):
        assert axial_angle(CORONAL) == pytest.approx(90.0)

    def test_tilt_45_on_boundary(self):
        assert axial_angle(TILTED_45) == pytest.approx(45.0)

    def test_flipped_normal_still_axial(self):
        flipped = (1.0, 0.0, 0.0, 0.0, -1.0, 0.0)
        assert axial_angle(flipped) == pytest.approx(0.0)

    @pytest.mark.parametrize("orientation", [
        (1, 0, 0, 0, 1),                 # wrong length
        (2, 0, 0, 0, 1, 0),              # not unit
        (1, 0, 0, 1, 0, 0),              # parallel
    ])
    def test_degenerate(self, orientation):
        with pytest.raises(DegenerateOrientation):
            slice_normal(orientation)


class TestSeriesGeometry:
    def test_positions_along_normal(self):
        series = make_series(zs=(0.0, 2.0, 4.0))
        geo = series_geometry(series)
        assert np.allclose(geo.positions, [0, 2, 4])

    def test_missing_orientation_assumes_axial(self):
        series = make_series(zs=(0.0, 3.0))
        for im in series.images:
            im.image_orientation_patient = None
        geo = series_geometry(series)
        assert np.allclose(geo.normal, [0, 0, 1])

    def test_missing_positions_uses_thickness(self):
        series = make_series(zs=(0.0, 1.0, 2.0), slice_thickness=5.0)
        for im in series.images:
            im.image_position_patient = None
        geo = series_geometry(series)
        assert np.allclose(geo.positions, [0, 5, 10])

    def test_no_positions_no_thickness(self):
        series = make_series(zs=(0.0,))
        series.images[0].image_position_patient = None
        with pytest.raises(MissingGeometry):
            series_geometry(series)

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            series_geometry(SeriesRecord(series_uid="S", modality="CT",
                                         series_description=""))


class TestSorting:
    def test_sort_by_position(self):
        series = make_series(zs=(4.0, 0.0, 2.0))
        sort_series_images(series)
        assert [im.image_position_patient[2] for im in series.images] == [0, 2, 4]

    def test_fallback_to_instance_number(self):
        series = make_series(zs=(0.0, 0.0, 0.0))
        for im, n in zip(series.images, (3, 1, 2)):
            im.image_position_patient = None
            im.instance_number = n
        series.images[0].image_position_patient = None
        sort_series_images(series)
        assert [im.instance_number for im in series.images] == [1, 2, 3]


class TestGreedySampling:
    def test_2mm_spacing_step_10(self):
        # Positions 0,2,...,18; from start 0 the greedy walk picks 0,10 ->
        # indices 0 and 5, then index 10 would be 20 (absent).
        positions = np.arange(0.0, 20.0, 2.0)
        assert greedy_sample_indices(positions, 10.0, 0) == [0, 5]
        assert greedy_sample_indices(positions, 10.0, 3) == [3, 8]
        assert first_window_size(positions, 10.0) == 5

    def test_12mm_spacing_step_10(self):
        # Spacing wider than the step: every slice qualifies.
        positions = np.arange(0.0, 60.0, 12.0)
        assert greedy_sample_indices(positions, 10.0, 0) == [0, 1, 2, 3, 4]
        assert first_window_size(positions, 10.0) == 1

    def test_irregular_positions(self):
        positions = np.array([0.0, 1.0, 9.5, 10.0, 25.0])
        assert greedy_sample_indices(positions, 10.0, 0) == [0, 3, 4]

    @staticmethod
    def _check_every_start(positions, step):
        """Every start in the first step window begins its own subsample,
        and successive kept positions are at least `step` apart."""
        window = first_window_size(positions, step)
        # The starts are exactly the positions within `step` of the first.
        assert np.all(positions[:window] < positions[0] + step)
        assert np.all(positions[window:] >= positions[0] + step)
        for start in range(window):
            idx = greedy_sample_indices(positions, step, start)
            assert idx[0] == start
            kept = positions[idx]
            assert np.all(kept[1:] >= kept[:-1] + step)
        return window

    def test_starts_lie_in_the_first_window(self):
        assert self._check_every_start(np.arange(0.0, 40.0, 2.0), 10.0) == 5

    @given(st.lists(st.floats(-500.0, 500.0), min_size=1, max_size=40),
           st.floats(0.5, 50.0))
    def test_every_start_property(self, positions, step):
        self._check_every_start(np.sort(np.asarray(positions)), step)


class TestBoxProjection:
    def _boxes(self, frame="F1"):
        return [
            BoundingBox3D(frame, BodyRegion.CHEST, (-100, -100, 0), (100, 100, 10)),
            BoundingBox3D(frame, BodyRegion.ABDOMEN, (-100, -100, 10), (100, 100, 20)),
        ]

    def test_containment_half_open(self):
        series = make_series(zs=(0.0, 9.9, 10.0, 19.9, 20.0))
        labels = project_box_labels(self._boxes(), series)
        assert labels == [BodyRegion.CHEST, BodyRegion.CHEST,
                          BodyRegion.ABDOMEN, BodyRegion.ABDOMEN, None]

    def test_frame_of_reference_mismatch(self):
        series = make_series(zs=(5.0,))
        assert project_box_labels(self._boxes(frame="OTHER"), series) == [None]

    def test_overlap_resolves_to_nearest_center(self):
        boxes = [
            BoundingBox3D("F1", BodyRegion.CHEST, (-100, -100, 0), (100, 100, 20)),
            BoundingBox3D("F1", BodyRegion.ABDOMEN, (-100, -100, 15), (100, 100, 60)),
        ]
        series = make_series(zs=(16.0, 19.0))
        labels = project_box_labels(boxes, series)
        # Centers at 10 and 37.5: slice 16 is nearer 10, slice 19 still nearer 10.
        assert labels == [BodyRegion.CHEST, BodyRegion.CHEST]

    def test_overlap_tie_breaks_by_name(self):
        boxes = [
            BoundingBox3D("F1", BodyRegion.CHEST, (-100, -100, 0), (100, 100, 10)),
            BoundingBox3D("F1", BodyRegion.ABDOMEN, (-100, -100, 0), (100, 100, 10)),
        ]
        series = make_series(zs=(5.0,))
        assert project_box_labels(boxes, series) == [BodyRegion.ABDOMEN]

    def test_missing_positions(self):
        series = make_series(zs=(0.0,))
        series.images[0].image_position_patient = None
        with pytest.raises(MissingGeometry):
            project_box_labels(self._boxes(), series)

    def test_box_file_round_trip(self, tmp_path):
        path = tmp_path / "boxes.json"
        save_boxes(self._boxes(), path)
        loaded = load_boxes(path)
        assert loaded == self._boxes()

    def test_invalid_box_corners(self):
        with pytest.raises(ValueError):
            BoundingBox3D("F1", BodyRegion.CHEST, (0, 0, 10), (10, 10, 0))
