"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and an output directory and returns
a `Cohort`: where the DICOM tree, the box file and (for `archive`) the
external score file are, the main region of each study (for the 75/25
train/validation split), and the cohort's shape. The same seed gives
byte-identical inputs. Paths inside a `Cohort` are relative to the
directory the benchmark runs the pipeline from.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from bodyregion import classify, dicomio, geometry, phantom, pixels
from bodyregion.phantom import UID_ROOT, PhantomSpec, RegionSpec
from bodyregion.taxonomy import CANONICAL_ORDER, BodyRegion

PHANTOM42_STUDIES = 42

# ct512_rle: four studies, each a four-region stack (in taxonomy order, as
# the phantom requires) at the phantom's 5 mm spacing, three slices per
# region: 48 slices. Four studies of one main region give the 3:1 split one
# held-out study; three slices per region keep every region run at the rule
# engine's minimum run length.
CT512_STUDIES = 4
CT512_REGIONS = (BodyRegion.HEAD, BodyRegion.NECK, BodyRegion.CHEST,
                 BodyRegion.ABDOMEN)
CT512_SLICES_PER_REGION = 3
CT512_SIZE = 512

# archive: CT and MR cohorts of the six-region phantom at 10 mm spacing,
# 18 slices of 32x32 per study (32x32 is the smallest matrix the filter
# admits).
ARCHIVE_STUDIES_PER_MODALITY = 100
ARCHIVE_SIZE = 32
ARCHIVE_SPACING_MM = 10.0
# Share of MR series whose scores are made ambiguous (top-two margin well
# under the 0.2 rejection threshold), so the uncertainty rule rejects them.
# The seed picks which series; the count is fixed, so every seed labels the
# same number of images.
ARCHIVE_AMBIGUOUS_MR_SHARE = 0.25


@dataclass
class Cohort:
    dicom_dir: str
    boxes_path: str
    main_regions: Dict[str, BodyRegion]
    shape: dict
    score_path: Optional[str] = None


def _shape(n_studies, n_images, size, syntax, modalities, extra_files):
    return {"studies": n_studies, "series": n_studies, "images": n_images,
            "matrix": f"{size}x{size}", "bits": "16/12",
            "transfer_syntax": syntax, "modalities": modalities,
            "non_dicom_files_in_tree": extra_files}


def build_phantom42(seed: int, out_dir: str) -> Cohort:
    """The acceptance cohort: `default_six_region_spec(seed, 42)`."""
    dicom_dir = os.path.join(out_dir, "dicom")
    cohort = phantom.generate_phantom(
        phantom.default_six_region_spec(seed=seed, n_studies=PHANTOM42_STUDIES),
        dicom_dir)
    n_images = sum(s.n_slices for s in cohort.studies)
    return Cohort(
        dicom_dir=dicom_dir, boxes_path=cohort.label_path,
        main_regions={s.study_uid: s.main_region for s in cohort.studies},
        shape=_shape(len(cohort.studies), n_images, cohort.spec.image_size,
                     "explicit VR LE (native)", ["CT"], 2))


def ct512_spec(seed: int) -> PhantomSpec:
    """Phantom spec of the ct512_rle cohort (the whole stack per study)."""
    return PhantomSpec(
        regions=[RegionSpec(r, 5.0 * CT512_SLICES_PER_REGION)
                 for r in sorted(CT512_REGIONS, key=CANONICAL_ORDER.index)],
        slice_spacing_mm=5.0, noise_level=20.0, seed=seed,
        n_studies=CT512_STUDIES, image_size=CT512_SIZE, window=0)


def write_rle_cohort(spec: PhantomSpec, out_dir: str):
    """Render `spec` like `phantom.generate_phantom`, RLE-encapsulated.

    The noise is drawn in the same order from the same seed, so each file
    decodes to the same matrix as the phantom's native-encoded file at the
    same relative path. Only whole-stack specs (`window == 0`) are handled.
    Returns (study records, box file path); the box file sits inside the
    tree, as the phantom's does.
    """
    if spec.window:
        raise ValueError("write_rle_cohort renders whole-stack specs only")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    textures = {rs.region: phantom.region_texture(rs.region, spec.image_size,
                                                  rs.texture_id)
                for rs in spec.regions}
    boxes, studies = [], []
    for idx in range(spec.n_studies):
        tag = f"{spec.seed}.{idx}"
        study = phantom.PhantomStudy(
            study_uid=f"{UID_ROOT}.{tag}.1", series_uid=f"{UID_ROOT}.{tag}.2",
            frame_of_reference_uid=f"{UID_ROOT}.{tag}.3",
            patient_id=f"PHANTOM-{spec.seed}-{idx:04d}",
            main_region=spec.regions[0].region,
            regions=[rs.region for rs in spec.regions], n_slices=0)
        slice_regions = []
        z = 0.0
        for rs in spec.regions:
            n = int(round(rs.extent_mm / spec.slice_spacing_mm))
            boxes.append(geometry.BoundingBox3D(
                frame_of_reference_uid=study.frame_of_reference_uid,
                region=rs.region, min_corner=(-1e6, -1e6, z),
                max_corner=(1e6, 1e6, z + n * spec.slice_spacing_mm)))
            slice_regions.extend([rs.region] * n)
            z += n * spec.slice_spacing_mm
        study.n_slices = len(slice_regions)
        study_dir = os.path.join(out_dir, f"study_{idx:04d}")
        os.makedirs(study_dir, exist_ok=True)
        for inst, region in enumerate(slice_regions):
            noise = rng.normal(0.0, spec.noise_level,
                               (spec.image_size, spec.image_size))
            matrix = np.clip(textures[region] + noise, 0, 4095).astype("<u2")
            dataset = {
                "SOPClassUID": f"{UID_ROOT}.0.1",
                "SOPInstanceUID": f"{UID_ROOT}.{tag}.4.{inst}",
                "Modality": spec.modality,
                "SeriesDescription": "AX PHANTOM RLE",
                "Manufacturer": "GE" if idx % 2 else "Siemens",
                "InstitutionName": "Imaging Center",
                "PatientID": study.patient_id,
                "PatientAge": f"{30 + 11 * idx:03d}Y",
                "PatientSex": "F" if idx % 2 == 0 else "M",
                "BodyPartExamined": "",
                "StudyDescription": f"{spec.modality} PHANTOM",
                "SliceThickness": spec.slice_spacing_mm,
                "StudyInstanceUID": study.study_uid,
                "SeriesInstanceUID": study.series_uid,
                "FrameOfReferenceUID": study.frame_of_reference_uid,
                "InstanceNumber": inst + 1,
                "ImagePositionPatient": (0.0, 0.0,
                                         inst * spec.slice_spacing_mm),
                "ImageOrientationPatient": geometry.AXIAL_IDENTITY,
                "SamplesPerPixel": 1,
                "Rows": spec.image_size,
                "Columns": spec.image_size,
                "BitsAllocated": 16,
                "BitsStored": 12,
            }
            frame = pixels.rle_encode_frame(matrix, 16)
            data = dicomio.build_dicom(dataset, dicomio.RLE_LOSSLESS,
                                       pixel_payload=frame, encapsulated=True)
            path = os.path.join(study_dir, f"img_{inst:04d}.dcm")
            with open(path, "wb") as fh:
                fh.write(data)
            study.paths.append(path)
        studies.append(study)
    label_path = os.path.join(out_dir, "labels.json")
    geometry.save_boxes(boxes, label_path)
    return studies, label_path


def build_ct512_rle(seed: int, out_dir: str) -> Cohort:
    """A few 512x512 16-bit studies, RLE lossless, from the phantom textures."""
    spec = ct512_spec(seed)
    dicom_dir = os.path.join(out_dir, "dicom")
    studies, label_path = write_rle_cohort(spec, dicom_dir)
    return Cohort(
        dicom_dir=dicom_dir, boxes_path=label_path,
        main_regions={s.study_uid: s.main_region for s in studies},
        shape=_shape(len(studies), sum(s.n_slices for s in studies),
                     spec.image_size, "RLE lossless (encapsulated)", ["CT"], 1))


def archive_spec(seed: int, modality: str) -> PhantomSpec:
    spec = phantom.default_six_region_spec(
        seed=seed, n_studies=ARCHIVE_STUDIES_PER_MODALITY,
        spacing_mm=ARCHIVE_SPACING_MM)
    return dataclasses.replace(spec, image_size=ARCHIVE_SIZE,
                               modality=modality)


def _region_at(boxes, frame_uid: str, z: float) -> BodyRegion:
    for box in boxes[frame_uid]:
        if box.min_corner[2] <= z < box.max_corner[2]:
            return box.region
    raise ValueError(f"no box for frame {frame_uid} at z={z}")


def write_archive_scores(cohorts, seed: int, path: str) -> int:
    """Write the score CSV an externally run network would have produced.

    Each file is read back for its SOP UID, frame and position; its true
    region comes from the cohort's boxes. The true class gets most of the
    mass plus seeded noise; in a fixed share of MR series, picked by the
    seed, the runner-up class gets nearly as much, so those series fall
    under the uncertainty threshold. Returns the number of ambiguous series.
    """
    rng = np.random.default_rng([seed, 0x5C0E])
    classes = CANONICAL_ORDER
    col = {c: i for i, c in enumerate(classes)}
    boxes: Dict[str, list] = {}
    for cohort in cohorts:
        for b in cohort.boxes:
            boxes.setdefault(b.frame_of_reference_uid, []).append(b)
    scores = {}
    ambiguous = set()
    for cohort in cohorts:
        if cohort.spec.modality == "MR":
            n = len(cohort.studies)
            picks = rng.choice(n, size=round(ARCHIVE_AMBIGUOUS_MR_SHARE * n),
                               replace=False)
            ambiguous |= {cohort.studies[i].series_uid for i in picks}
    for cohort in cohorts:
        for study in cohort.studies:
            for dcm in study.paths:
                with open(dcm, "rb") as fh:
                    parsed = dicomio.parse_dicom(fh.read())
                z = parsed.image.image_position_patient[2]
                truth = _region_at(boxes,
                                   parsed.series_attrs["frame_of_reference_uid"],
                                   z)
                vec = rng.random(len(classes)) * 0.02
                if study.series_uid in ambiguous:
                    other = (col[truth] + 1 + int(rng.integers(
                        0, len(classes) - 1))) % len(classes)
                    vec[col[truth]] += 0.45
                    vec[other] += 0.42
                else:
                    vec[col[truth]] += 0.75 + 0.2 * rng.random()
                scores[parsed.image.sop_uid] = vec / vec.sum()
    classify.save_scores(scores, classes, path)
    return len(ambiguous)


def build_archive(seed: int, out_dir: str) -> Cohort:
    """Many small CT and MR studies plus an external score file.

    MR uses a second phantom seed so its UIDs are disjoint from CT's.
    """
    dicom_dir = os.path.join(out_dir, "dicom")
    parts = [phantom.generate_phantom(archive_spec(2 * seed + k, modality),
                                      os.path.join(dicom_dir, modality.lower()))
             for k, modality in enumerate(("CT", "MR"))]
    boxes_path = os.path.join(out_dir, "boxes.json")
    geometry.save_boxes([b for p in parts for b in p.boxes], boxes_path)
    score_path = os.path.join(out_dir, "scores.csv")
    n_ambiguous = write_archive_scores(parts, seed, score_path)
    studies = [s for p in parts for s in p.studies]
    shape = _shape(len(studies), sum(s.n_slices for s in studies),
                   ARCHIVE_SIZE, "explicit VR LE (native)", ["CT", "MR"], 4)
    shape["ambiguous_mr_series"] = n_ambiguous
    return Cohort(dicom_dir=dicom_dir, boxes_path=boxes_path,
                  main_regions={s.study_uid: s.main_region for s in studies},
                  shape=shape, score_path=score_path)


BUILDERS = {
    "phantom42": build_phantom42,
    "ct512_rle": build_ct512_rle,
    "archive": build_archive,
}
