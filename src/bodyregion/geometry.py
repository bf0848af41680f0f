"""Slice-plane geometry: orientation, spacing, subsampling, box projection.

Positions and box corners live in the DICOM patient coordinate system (mm).
The slice normal is the cross product of the row and column direction
cosines; axial slices have a normal close to the z axis.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (DegenerateOrientation, EmptySeries, MissingGeometry,
                     SchemaError, read_json, read_text, write_csv)
from .records import SeriesRecord
from .taxonomy import FINAL_REGIONS, BodyRegion

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
        if not (isinstance(self.frame_of_reference_uid, str)
                and len(self.min_corner) == len(self.max_corner) == 3):
            raise ValueError("a box needs a string frame_of_reference_uid "
                             "and corners of 3 coordinates")
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
    if not np.isfinite(o).all():
        raise DegenerateOrientation("orientation cosines are not finite")
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
    (common in legacy CT); the filter stage reports each such series.
    Missing positions fall back to index spacing = slice_thickness.
    """
    if not series.images:
        raise EmptySeries(series.series_uid)
    orientation = next((im.image_orientation_patient for im in series.images
                        if im.image_orientation_patient is not None),
                       AXIAL_IDENTITY)
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
    InstanceNumber, then existing (file) order, when a position is missing
    or not finite or the orientation is degenerate (the filter stage
    excludes such a series as NotAxial). Deterministic, in place."""
    if not series.images:
        return
    if all(im.image_position_patient is not None
           and all(map(math.isfinite, im.image_position_patient))
           for im in series.images):
        try:
            positions = series_geometry(series).positions
        except DegenerateOrientation:
            pass
        else:
            order = np.argsort(positions, kind="stable")
            series.images = [series.images[i] for i in order]
            return
    if all(im.instance_number is not None for im in series.images):
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


@dataclass(frozen=True)
class FrameBoxes:
    """The boxes of one frame of reference: corners as (m, 3) arrays, and
    the region of each box."""

    lo: np.ndarray
    hi: np.ndarray
    regions: Tuple[BodyRegion, ...]


def boxes_by_frame(boxes: Sequence[BoundingBox3D]) -> Dict[str, FrameBoxes]:
    """The boxes grouped by frame of reference, in file order."""
    groups: Dict[str, List[BoundingBox3D]] = {}
    for box in boxes:
        groups.setdefault(box.frame_of_reference_uid, []).append(box)
    return {frame: FrameBoxes(
                np.array([b.min_corner for b in group], dtype=float),
                np.array([b.max_corner for b in group], dtype=float),
                tuple(b.region for b in group))
            for frame, group in groups.items()}


def project_box_labels(frames: Mapping[str, FrameBoxes],
                       series: SeriesRecord) -> List[Optional[BodyRegion]]:
    """Per-image region labels carried over from 3-D ground-truth boxes.

    `frames` is the `boxes_by_frame` of the boxes. An image gets region R
    when a box sharing the series frame of reference contains its position
    point (min inclusive, max exclusive on every axis). Overlaps resolve to
    the box whose center is nearest the slice position along the normal,
    then lexicographic region name. Boxes in another frame of reference are
    ignored without a warning; a caller labelling many series reports those
    left without a box in their frame once, with `warn_foreign_frames`.
    """
    if not series.images:
        raise EmptySeries(series.series_uid)
    if any(im.image_position_patient is None for im in series.images):
        raise MissingGeometry(f"series {series.series_uid}: missing positions")
    geo = series_geometry(series)
    group = frames.get(series.frame_of_reference_uid)
    if group is None:
        return [None] * len(series.images)

    # (image, box) containment in one comparison.
    p = np.array([im.image_position_patient for im in series.images],
                 dtype=float)[:, None]
    inside = ((group.lo <= p) & (p < group.hi)).all(axis=2)
    hits = inside.sum(axis=1)
    labels = [group.regions[j] if h else None
              for j, h in zip(inside.argmax(axis=1).tolist(), hits.tolist())]
    overlaps = np.flatnonzero(hits > 1)
    if overlaps.size:
        normal = np.asarray(geo.normal)
        centers = [float(np.dot(mid, normal))
                   for mid in (group.lo + group.hi) / 2.0]
        for i in overlaps.tolist():
            j = min(np.flatnonzero(inside[i]).tolist(),
                    key=lambda j: (abs(centers[j] - geo.positions[i]),
                                   group.regions[j].value))
            labels[i] = group.regions[j]
    return labels


def warn_foreign_frames(frames: Mapping[str, FrameBoxes],
                        series_list: Sequence[SeriesRecord]) -> None:
    """Log one warning for all series that no box shares a frame of
    reference with, when there are boxes: `project_box_labels` ignores
    boxes in another frame, so those series get no labels."""
    unboxed = sum(1 for s in series_list
                  if s.frame_of_reference_uid not in frames)
    if frames and unboxed:
        log.warning("%d series: no box in their frame of reference, "
                    "%d box(es) in other frames ignored", unboxed,
                    sum(len(g.regions) for g in frames.values()))


# ---------------------------------------------------------------------------
# Label file I/O: boxes (a JSON array of box records, mm), and truth.csv (a
# row per image, its region empty when it is unlabelled)


def load_boxes(path) -> List[BoundingBox3D]:
    """The boxes of a JSON list as save_boxes writes it. Invalid JSON, or an
    entry that is not a box, is a SchemaError; the latter names its index."""
    entries = read_json(path)
    if not isinstance(entries, list):
        raise SchemaError("a boxes file must hold a JSON list")
    boxes = []
    for i, e in enumerate(entries):
        try:
            boxes.append(BoundingBox3D(
                e["frame_of_reference_uid"], BodyRegion(e["region"]),
                *(tuple(map(float, e[k])) for k in ("min_corner", "max_corner"))))
        except KeyError as exc:
            raise SchemaError(f"box {i} has no {exc} key") from None
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"box {i}: {exc}") from None
    return boxes


def save_boxes(boxes: Sequence[BoundingBox3D], path) -> None:
    entries = [{"frame_of_reference_uid": b.frame_of_reference_uid,
                "region": b.region.value,
                "min_corner": list(b.min_corner),
                "max_corner": list(b.max_corner)} for b in boxes]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
        fh.write("\n")


def write_truth(rows: Iterable[Tuple[str, str, str, Optional[BodyRegion]]],
                path) -> None:
    """truth.csv from (sop_uid, series_uid, study_uid, region) rows."""
    write_csv(path, ["sop_uid", "series_uid", "study_uid", "region"],
              ([sop, series, study, region.value if region else ""]
               for sop, series, study, region in rows))


def read_truth(path, final_only=False) -> Dict[str, BodyRegion]:
    """Truth region by sop_uid; a row with an empty region is unlabelled.

    A missing `sop_uid` or `region` column, an unknown region, or (with
    `final_only`) the internal AbdomenChest class is a SchemaError naming
    its line.
    """
    truth = {}
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.DictReader(fh)
        for column in ("sop_uid", "region"):
            if column not in (reader.fieldnames or ()):
                raise SchemaError(f"truth file has no {column} column",
                                  line=1)
        for row in reader:
            name = row["region"]
            if not name:
                continue
            try:
                region = BodyRegion(name)
            except ValueError:
                raise SchemaError(f"unknown region {name!r}",
                                  line=reader.line_num) from None
            if final_only and region not in FINAL_REGIONS:
                raise SchemaError(f"{name!r} is not a final region",
                                  line=reader.line_num)
            truth[row["sop_uid"]] = region
    return truth
