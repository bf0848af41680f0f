"""Synthetic phantom cohorts for desk-scale end-to-end verification.

Each study is a stack of axial slices along the patient z axis covering a
contiguous window of the spec's region list (kept in taxonomy order). Every
region renders a distinct deterministic texture (a bright blob at a
region-specific location over a flat background), so the centroid baseline
can separate them after normalization. Output is byte-identical for a
fixed seed: the DICOM writer emits no timestamps and all UIDs derive from
the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .dicomio import EXPLICIT_VR_LE, build_dicom
from .errors import InvalidSpec
from .geometry import AXIAL_IDENTITY, BoundingBox3D, save_boxes
from .taxonomy import CANONICAL_ORDER, BodyRegion

UID_ROOT = "1.2.826.0.1.3680043.8.498"

_MANUFACTURERS = ("GE", "Siemens", "Philips", "Toshiba", "Canon", "Hitachi")
_INSTITUTIONS = ("Primary Care Hospital", "Community Hospital", "Imaging Center")


@dataclass
class RegionSpec:
    region: BodyRegion
    extent_mm: float
    texture_id: Optional[int] = None  # defaults to the region's canonical index


@dataclass
class PhantomSpec:
    regions: List[RegionSpec]
    slice_spacing_mm: float = 2.0
    noise_level: float = 10.0
    seed: int = 0
    n_studies: int = 1
    image_size: int = 64
    modality: str = "CT"
    window: int = 0  # regions per study; 0 = the whole stack

    def __post_init__(self):
        if not self.regions:
            raise InvalidSpec("phantom needs at least one region")
        for r in self.regions:
            if r.extent_mm <= 0:
                raise InvalidSpec(f"{r.region.value}: extent must be positive")
        if self.slice_spacing_mm <= 0:
            raise InvalidSpec("slice spacing must be positive")
        if self.n_studies < 1:
            raise InvalidSpec("need at least one study")
        order = [CANONICAL_ORDER.index(r.region) for r in self.regions]
        if order != sorted(order):
            raise InvalidSpec("regions must be stacked in taxonomy order")


@dataclass
class PhantomStudy:
    study_uid: str
    series_uid: str
    frame_of_reference_uid: str
    patient_id: str
    main_region: BodyRegion
    regions: List[BodyRegion]
    n_slices: int
    paths: List[str] = field(default_factory=list)


@dataclass
class PhantomCohort:
    spec: PhantomSpec
    studies: List[PhantomStudy]
    boxes: List[BoundingBox3D]
    label_path: str


def region_texture(region: BodyRegion, size: int,
                   texture_id: Optional[int] = None) -> np.ndarray:
    """Noise-free texture for one region: blob at a region-keyed position."""
    g = CANONICAL_ORDER.index(region) if texture_id is None else texture_id
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    cy = ((g * 37 + 11) % 80 + 10) / 100.0 * size
    cx = ((g * 61 + 29) % 80 + 10) / 100.0 * size
    sigma = size / 8.0
    blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
    stripes = 0.15 * np.sin(2 * np.pi * (g % 5 + 2) * xx / size)
    return 200.0 + 1600.0 * blob + 200.0 * stripes


def _study_windows(spec: PhantomSpec, idx: int) -> List[RegionSpec]:
    n = len(spec.regions)
    w = spec.window if spec.window else n
    w = min(w, n)
    start = idx % max(1, n - w + 1)
    return spec.regions[start:start + w]


def generate_phantom(spec: PhantomSpec, out_dir) -> PhantomCohort:
    """Render the cohort to disk: DICOM files plus the 3-D box label file."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    boxes: List[BoundingBox3D] = []
    studies: List[PhantomStudy] = []

    for study_idx in range(spec.n_studies):
        tag = f"{spec.seed}.{study_idx}"
        study_uid = f"{UID_ROOT}.{tag}.1"
        series_uid = f"{UID_ROOT}.{tag}.2"
        frame_uid = f"{UID_ROOT}.{tag}.3"
        patient_id = f"PHANTOM-{spec.seed}-{study_idx:04d}"
        window = _study_windows(spec, study_idx)

        z = 0.0
        slice_regions: List[BodyRegion] = []
        for rs in window:
            n_slices = int(round(rs.extent_mm / spec.slice_spacing_mm))
            boxes.append(BoundingBox3D(
                frame_of_reference_uid=frame_uid, region=rs.region,
                min_corner=(-1e6, -1e6, z),
                max_corner=(1e6, 1e6, z + n_slices * spec.slice_spacing_mm)))
            slice_regions.extend([rs.region] * n_slices)
            z += n_slices * spec.slice_spacing_mm

        study_dir = os.path.join(out_dir, f"study_{study_idx:04d}")
        os.makedirs(study_dir, exist_ok=True)
        textures = {rs.region: region_texture(rs.region, spec.image_size,
                                              rs.texture_id)
                    for rs in window}
        study = PhantomStudy(
            study_uid=study_uid, series_uid=series_uid,
            frame_of_reference_uid=frame_uid, patient_id=patient_id,
            main_region=window[0].region,
            regions=[rs.region for rs in window],
            n_slices=len(slice_regions))
        for inst, region in enumerate(slice_regions):
            noise = rng.normal(0.0, spec.noise_level,
                               (spec.image_size, spec.image_size))
            pixels = np.clip(textures[region] + noise, 0, 4095).astype("<u2")
            dataset = {
                "SOPClassUID": f"{UID_ROOT}.0.1",
                "SOPInstanceUID": f"{UID_ROOT}.{tag}.4.{inst}",
                "Modality": spec.modality,
                "SeriesDescription": "AX PHANTOM",
                "Manufacturer": _MANUFACTURERS[study_idx % len(_MANUFACTURERS)],
                "InstitutionName": _INSTITUTIONS[study_idx % len(_INSTITUTIONS)],
                "PatientID": patient_id,
                "PatientAge": f"{20 + (study_idx * 7) % 70:03d}Y",
                "PatientSex": "F" if study_idx % 2 == 0 else "M",
                "BodyPartExamined": "",
                "StudyDescription": f"{spec.modality} PHANTOM",
                "SliceThickness": spec.slice_spacing_mm,
                "ContrastBolusAgent": "CONTRAST" if study_idx % 3 == 0 else None,
                "StudyInstanceUID": study_uid,
                "SeriesInstanceUID": series_uid,
                "FrameOfReferenceUID": frame_uid,
                "InstanceNumber": inst + 1,
                "ImagePositionPatient": (0.0, 0.0, inst * spec.slice_spacing_mm),
                "ImageOrientationPatient": AXIAL_IDENTITY,
                "SamplesPerPixel": 1,
                "Rows": spec.image_size,
                "Columns": spec.image_size,
                "BitsAllocated": 16,
                "BitsStored": 12,
            }
            payload = pixels.tobytes()
            data = build_dicom(dataset, EXPLICIT_VR_LE, pixel_payload=payload)
            path = os.path.join(study_dir, f"img_{inst:04d}.dcm")
            with open(path, "wb") as fh:
                fh.write(data)
            study.paths.append(path)
        studies.append(study)

    label_path = os.path.join(out_dir, "labels.json")
    save_boxes(boxes, label_path)
    manifest = [{"study_uid": s.study_uid, "series_uid": s.series_uid,
                 "patient_id": s.patient_id,
                 "main_region": s.main_region.value,
                 "regions": [r.value for r in s.regions],
                 "n_slices": s.n_slices} for s in studies]
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return PhantomCohort(spec=spec, studies=studies, boxes=boxes,
                         label_path=label_path)


def default_six_region_spec(seed: int = 0, n_studies: int = 42,
                            extent_mm: float = 60.0,
                            spacing_mm: float = 5.0) -> PhantomSpec:
    """The standard end-to-end verification cohort: six regions, windowed
    three per study."""
    regions = [BodyRegion.HEAD, BodyRegion.NECK, BodyRegion.CHEST,
               BodyRegion.ABDOMEN, BodyRegion.PELVIS, BodyRegion.THIGH]
    return PhantomSpec(
        regions=[RegionSpec(r, extent_mm) for r in
                 sorted(regions, key=CANONICAL_ORDER.index)],
        slice_spacing_mm=spacing_mm, noise_level=20.0, seed=seed,
        n_studies=n_studies, window=3)
