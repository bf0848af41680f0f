"""Slice-plane geometry: orientation, spacing, subsampling, box projection.

Positions and box corners live in the DICOM patient coordinate system (mm).
The slice normal is the cross product of the row and column direction
cosines; axial slices have a normal close to the z axis.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import DegenerateOrientation, EmptySeries, MissingGeometry
from .records import SeriesRecord
from .taxonomy import BodyRegion

log = logging.getLogger(__name__)

AXIAL_IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)

# Axial inclusion threshold: slices tilted up to this angle still count.
AXIAL_MAX_ANGLE_DEG = 45.0

_UNIT_TOL = 1e-3


@dataclass
class BoundingBox3D:
    """Ground-truth label volume in patient coordinates."""

    frame_of_reference_uid: str
    region: BodyRegion
    min_corner: tuple
    max_corner: tuple

    def __post_init__(self):
        if any(a > b for a, b in zip(self.min_corner, self.max_corner)):
            raise ValueError("min_corner must be <= max_corner componentwise")


@dataclass
class SliceGeometry:
    normal: tuple                 # unit 3-vector
    positions: np.ndarray         # mm along normal, one per image (series order)


def slice_normal(orientation: Sequence[float]) -> np.ndarray:
    """Unit normal of the slice plane from the 6 direction cosines."""
    o = np.asarray(orientation, dtype=float)
    if o.shape != (6,):
        raise DegenerateOrientation(f"orientation must have 6 components, got {o.shape}")
    row, col = o[:3], o[3:]
    if abs(np.linalg.norm(row) - 1.0) > _UNIT_TOL or abs(np.linalg.norm(col) - 1.0) > _UNIT_TOL:
        raise DegenerateOrientation("row/column cosines are not unit vectors")
    if abs(float(np.dot(row, col))) > _UNIT_TOL:
        raise DegenerateOrientation("row and column cosines are not orthogonal")
    n = np.cross(row, col)
    return n / np.linalg.norm(n)


def axial_angle(orientation: Sequence[float]) -> float:
    """Angle in degrees between the slice normal and the patient z axis."""
    n = slice_normal(orientation)
    return float(np.degrees(np.arccos(min(1.0, abs(float(n[2]))))))


def series_geometry(series: SeriesRecord) -> SliceGeometry:
    """Normal and per-image positions along it.

    Missing orientation with present positions assumes the axial identity
    (common in legacy CT) and logs a warning. Missing positions fall back
    to index spacing = slice_thickness.
    """
    if not series.images:
        raise EmptySeries(series.series_uid)
    orientation = next((im.image_orientation_patient for im in series.images
                        if im.image_orientation_patient is not None), None)
    if orientation is None:
        log.warning("series %s: no orientation, assuming axial identity",
                    series.series_uid)
        orientation = AXIAL_IDENTITY
    normal = slice_normal(orientation)

    if all(im.image_position_patient is not None for im in series.images):
        positions = np.array([float(np.dot(im.image_position_patient, normal))
                              for im in series.images])
    else:
        step = series.slice_thickness
        if step is None or step <= 0:
            raise MissingGeometry(
                f"series {series.series_uid}: no positions and no slice thickness")
        positions = np.arange(len(series.images), dtype=float) * step
    return SliceGeometry(normal=tuple(normal), positions=positions)


def sort_series_images(series: SeriesRecord) -> None:
    """Order images by position along the normal; fall back to
    InstanceNumber, then existing (file) order. Deterministic, in place."""
    if not series.images:
        return
    if all(im.image_position_patient is not None for im in series.images):
        geo = series_geometry(series)
        order = np.argsort(geo.positions, kind="stable")
        series.images = [series.images[i] for i in order]
    elif all(im.instance_number is not None for im in series.images):
        series.images.sort(key=lambda im: im.instance_number)


def greedy_sample_indices(sorted_positions: np.ndarray, step: float,
                          start: int) -> List[int]:
    """Greedy spacing selection over sorted positions from a start index."""
    selected = [start]
    last = sorted_positions[start]
    for k in range(start + 1, len(sorted_positions)):
        if sorted_positions[k] >= last + step:
            selected.append(k)
            last = sorted_positions[k]
    return selected


def first_window_size(sorted_positions: np.ndarray, step: float) -> int:
    """Number of candidate start indices within the first step window."""
    return max(1, int(np.searchsorted(sorted_positions,
                                      sorted_positions[0] + step, side="left")))


def project_box_labels(boxes: Sequence[BoundingBox3D],
                       series: SeriesRecord) -> List[Optional[BodyRegion]]:
    """Per-image region labels carried over from 3-D ground-truth boxes.

    An image gets region R when a box sharing the series frame of reference
    contains its position point (min inclusive, max exclusive on every
    axis). Overlaps resolve to the box whose center is nearest the slice
    position along the normal, then lexicographic region name. Boxes in
    another frame of reference are ignored without a warning; a caller
    labelling many series reports them once with `warn_foreign_frames`.
    """
    if not series.images:
        raise EmptySeries(series.series_uid)
    if any(im.image_position_patient is None for im in series.images):
        raise MissingGeometry(f"series {series.series_uid}: missing positions")
    geo = series_geometry(series)
    normal = np.asarray(geo.normal)

    matching = _boxes_in_frame(boxes, series)

    labels: List[Optional[BodyRegion]] = []
    for im, pos_n in zip(series.images, geo.positions):
        p = np.asarray(im.image_position_patient, dtype=float)
        candidates = []
        for box in matching:
            lo = np.asarray(box.min_corner, dtype=float)
            hi = np.asarray(box.max_corner, dtype=float)
            if np.all(lo <= p) and np.all(p < hi):
                center_n = float(np.dot((lo + hi) / 2.0, normal))
                candidates.append((abs(center_n - pos_n), box.region.value, box.region))
        if candidates:
            candidates.sort(key=lambda t: (t[0], t[1]))
            labels.append(candidates[0][2])
        else:
            labels.append(None)
    return labels


def _boxes_in_frame(boxes: Sequence[BoundingBox3D],
                    series: SeriesRecord) -> List[BoundingBox3D]:
    """The boxes that share the series frame of reference."""
    return [b for b in boxes
            if b.frame_of_reference_uid == series.frame_of_reference_uid]


def warn_foreign_frames(boxes: Sequence[BoundingBox3D],
                        series_list: Sequence[SeriesRecord]) -> None:
    """Log one warning for all series that see boxes in another frame of
    reference (`project_box_labels` ignores those boxes): the series count
    and the box-series pair count."""
    foreign = [len(boxes) - len(_boxes_in_frame(boxes, s))
               for s in series_list]
    pairs = sum(foreign)
    if pairs:
        log.warning("%d series: %d box-series pair(s) in a different frame "
                    "of reference", sum(1 for n in foreign if n), pairs)


# ---------------------------------------------------------------------------
# Label file I/O (JSON array of box records, mm)


def load_boxes(path) -> List[BoundingBox3D]:
    with open(path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    return [BoundingBox3D(frame_of_reference_uid=e["frame_of_reference_uid"],
                          region=BodyRegion(e["region"]),
                          min_corner=tuple(e["min_corner"]),
                          max_corner=tuple(e["max_corner"]))
            for e in entries]


def save_boxes(boxes: Sequence[BoundingBox3D], path) -> None:
    entries = [{"frame_of_reference_uid": b.frame_of_reference_uid,
                "region": b.region.value,
                "min_corner": list(b.min_corner),
                "max_corner": list(b.max_corner)} for b in boxes]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
        fh.write("\n")
