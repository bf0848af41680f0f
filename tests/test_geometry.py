"""Slice geometry, physical subsampling, and box-label projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyregion.errors import (DegenerateOrientation, EmptySeries,
                               MissingGeometry, SchemaError)
from bodyregion.geometry import (AXIAL_IDENTITY, BoundingBox3D, axial_angle,
                                 boxes_by_frame, first_window_size,
                                 greedy_sample_indices, load_boxes,
                                 project_box_labels, read_truth, save_boxes,
                                 series_geometry, slice_normal,
                                 sort_series_images, write_truth)
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
        (math.nan, 0, 0, 0, 1, 0),       # not finite
        (1, 0, 0, 0, math.inf, 0),
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

    def test_degenerate_orientation_falls_back_to_instance_number(self):
        # By position the order would be 3, 2, 1.
        series = make_series(zs=(4.0, 0.0, 2.0))
        for im, n in zip(series.images, (1, 3, 2)):
            im.image_orientation_patient = (2.0, 0.0, 0.0, 0.0, 1.0, 0.0)
            im.instance_number = n
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


def project(boxes, series):
    return project_box_labels(boxes_by_frame(boxes), series)


def reference_project_box_labels(boxes, series):
    """Image by image and box by box: an image takes the region of the
    containing box in its frame whose center is nearest along the normal,
    then the lexicographically first region name. The oracle of
    `project_box_labels`, which labels a series in one comparison."""
    geo = series_geometry(series)
    normal = np.asarray(geo.normal)
    matching = [b for b in boxes
                if b.frame_of_reference_uid == series.frame_of_reference_uid]
    labels = []
    for im, pos_n in zip(series.images, geo.positions):
        p = np.asarray(im.image_position_patient, dtype=float)
        candidates = []
        for box in matching:
            lo = np.asarray(box.min_corner, dtype=float)
            hi = np.asarray(box.max_corner, dtype=float)
            if np.all(lo <= p) and np.all(p < hi):
                center_n = float(np.dot((lo + hi) / 2.0, normal))
                candidates.append((abs(center_n - pos_n), box.region.value,
                                   box.region))
        if candidates:
            candidates.sort(key=lambda t: (t[0], t[1]))
            labels.append(candidates[0][2])
        else:
            labels.append(None)
    return labels


# Coordinates on a coarse grid, so that positions fall on box corners and
# centers tie along the normal.
_grid = st.integers(-4, 4).map(lambda v: 2.5 * v)
_point = st.tuples(_grid, _grid, _grid)


@st.composite
def _boxes(draw):
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(_point), draw(_point)
        boxes.append(BoundingBox3D(
            draw(st.sampled_from(["F1", "F2"])),
            draw(st.sampled_from(list(BodyRegion))),
            tuple(map(min, a, b)), tuple(map(max, a, b))))
    # Twins: the same box under another region, so equal distances along
    # the normal are decided by the region name.
    for box in draw(st.lists(st.sampled_from(boxes), max_size=2)
                    if boxes else st.just([])):
        boxes.append(BoundingBox3D(box.frame_of_reference_uid,
                                   draw(st.sampled_from(list(BodyRegion))),
                                   box.min_corner, box.max_corner))
    return boxes


@st.composite
def _series_for(draw, boxes):
    corners = [c for b in boxes for c in (b.min_corner, b.max_corner)]
    point = (st.one_of(_point, st.sampled_from(corners)) if corners
             else _point)
    orientation = draw(st.sampled_from([AXIAL_IDENTITY, TILTED_45, SAGITTAL]))
    positions = draw(st.lists(point, min_size=1, max_size=8))
    series = make_series(zs=(), frame=draw(st.sampled_from(["F1", "F2",
                                                            "F3"])))
    series.images = [make_image(sop_uid=f"S1.{i}", orientation=orientation,
                                image_position_patient=tuple(map(float, pos)))
                     for i, pos in enumerate(positions)]
    return series


class TestProjectionAgainstReference:
    """`project_box_labels` equals the per-image, per-box loop."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property(self, data):
        boxes = data.draw(_boxes())
        series = data.draw(_series_for(boxes))
        assert project(boxes, series) == \
            reference_project_box_labels(boxes, series)

    OVERLAP = [
        BoundingBox3D("F1", BodyRegion.CHEST, (-10, -10, 0), (10, 10, 20)),
        BoundingBox3D("F1", BodyRegion.ABDOMEN, (-10, -10, 15), (10, 10, 60)),
        BoundingBox3D("F1", BodyRegion.HEAD, (-10, -10, 15), (10, 10, 60)),
        BoundingBox3D("F2", BodyRegion.PELVIS, (-10, -10, 0), (10, 10, 60)),
    ]

    @pytest.mark.parametrize("orientation,frame,zs,expected", [
        # Overlap, nearest center; the twins at 37.5 tie and Abdomen wins.
        (AXIAL_IDENTITY, "F1", (16.0, 30.0, 59.0),
         ["Chest", "Abdomen", "Abdomen"]),
        # On min_corner (inclusive) and max_corner (exclusive).
        (AXIAL_IDENTITY, "F1", (0.0, 15.0, 20.0, 60.0),
         ["Chest", "Chest", "Abdomen", None]),
        # Only a box in a foreign frame, then no box at all.
        (AXIAL_IDENTITY, "F2", (5.0,), ["Pelvis"]),
        (AXIAL_IDENTITY, "F3", (5.0, 30.0), [None, None]),
        # A tilted normal changes the centers' distances, not containment.
        (TILTED_45, "F1", (16.0, 19.0, 30.0), None),
    ])
    def test_cases(self, orientation, frame, zs, expected):
        series = make_series(zs=zs, frame=frame)
        for im in series.images:
            im.image_orientation_patient = orientation
        labels = project(self.OVERLAP, series)
        assert labels == reference_project_box_labels(self.OVERLAP, series)
        if expected is not None:
            assert [r and r.value for r in labels] == expected


class TestBoxProjection:
    def _boxes(self, frame="F1"):
        return [
            BoundingBox3D(frame, BodyRegion.CHEST, (-100, -100, 0), (100, 100, 10)),
            BoundingBox3D(frame, BodyRegion.ABDOMEN, (-100, -100, 10), (100, 100, 20)),
        ]

    def test_containment_half_open(self):
        series = make_series(zs=(0.0, 9.9, 10.0, 19.9, 20.0))
        labels = project(self._boxes(), series)
        assert labels == [BodyRegion.CHEST, BodyRegion.CHEST,
                          BodyRegion.ABDOMEN, BodyRegion.ABDOMEN, None]

    def test_frame_of_reference_mismatch(self):
        series = make_series(zs=(5.0,))
        assert project(self._boxes(frame="OTHER"), series) == [None]

    def test_overlap_resolves_to_nearest_center(self):
        boxes = [
            BoundingBox3D("F1", BodyRegion.CHEST, (-100, -100, 0), (100, 100, 20)),
            BoundingBox3D("F1", BodyRegion.ABDOMEN, (-100, -100, 15), (100, 100, 60)),
        ]
        series = make_series(zs=(16.0, 19.0))
        labels = project(boxes, series)
        # Centers at 10 and 37.5: slice 16 is nearer 10, slice 19 still nearer 10.
        assert labels == [BodyRegion.CHEST, BodyRegion.CHEST]

    def test_overlap_tie_breaks_by_name(self):
        boxes = [
            BoundingBox3D("F1", BodyRegion.CHEST, (-100, -100, 0), (100, 100, 10)),
            BoundingBox3D("F1", BodyRegion.ABDOMEN, (-100, -100, 0), (100, 100, 10)),
        ]
        series = make_series(zs=(5.0,))
        assert project(boxes, series) == [BodyRegion.ABDOMEN]

    def test_missing_positions(self):
        series = make_series(zs=(0.0,))
        series.images[0].image_position_patient = None
        with pytest.raises(MissingGeometry):
            project(self._boxes(), series)

    def test_box_file_round_trip(self, tmp_path):
        path = tmp_path / "boxes.json"
        save_boxes(self._boxes(), path)
        loaded = load_boxes(path)
        assert loaded == self._boxes()

    def test_invalid_box_corners(self):
        with pytest.raises(ValueError):
            BoundingBox3D("F1", BodyRegion.CHEST, (0, 0, 10), (10, 10, 0))


class TestTruthFile:
    ROWS = [("1.1", "S1", "ST1", BodyRegion.CHEST),
            ("1.2", "S1", "ST1", None),
            ("2.1", "S2", "ST1", BodyRegion.ABDOMEN_CHEST),
            ("3.1", "S3", "ST2", BodyRegion.HEAD)]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "truth.csv"
        write_truth(self.ROWS, path)
        assert path.read_bytes() == (
            b"sop_uid,series_uid,study_uid,region\r\n"
            b"1.1,S1,ST1,Chest\r\n1.2,S1,ST1,\r\n"
            b"2.1,S2,ST1,AbdomenChest\r\n3.1,S3,ST2,Head\r\n")
        assert read_truth(path) == {sop: region
                                    for sop, _, _, region in self.ROWS
                                    if region is not None}

    def test_final_only_refuses_the_internal_class(self, tmp_path):
        path = tmp_path / "truth.csv"
        write_truth(self.ROWS, path)
        with pytest.raises(SchemaError, match="^line 4: 'AbdomenChest' is "
                                              "not a final region$"):
            read_truth(path, final_only=True)
