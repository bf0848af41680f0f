"""Shared fixture builders: in-memory DICOM files, tiny record trees, and
the evaluation tables built the way `evaluate` builds them."""

from __future__ import annotations

import numpy as np
import pytest

from bodyregion.dicomio import EXPLICIT_VR_LE, build_dicom
from bodyregion.records import ImageRecord, SeriesRecord, StudyRecord
from bodyregion.report import region_rows
from bodyregion.stats import (MIN_CATEGORY_COUNT, bootstrap_counts,
                              factor_report, factor_units)
from bodyregion.taxonomy import BodyRegion

AXIAL = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)


def base_dataset(**overrides) -> dict:
    """A complete, valid CT dataset dict for build_dicom."""
    ds = {
        "SOPClassUID": "1.2.840.10008.5.1.4.1.1.2",
        "SOPInstanceUID": "1.2.3.4.1",
        "Modality": "CT",
        "SeriesDescription": "AX BODY",
        "Manufacturer": "GE",
        "InstitutionName": "General Hospital",
        "PatientID": "P001",
        "PatientAge": "045Y",
        "PatientSex": "F",
        "BodyPartExamined": "CHEST",
        "StudyDescription": "CT CHEST W",
        "SliceThickness": 2.5,
        "StudyInstanceUID": "1.2.3.1",
        "SeriesInstanceUID": "1.2.3.2",
        "FrameOfReferenceUID": "1.2.3.3",
        "InstanceNumber": 1,
        "ImagePositionPatient": (0.0, 0.0, 0.0),
        "ImageOrientationPatient": AXIAL,
        "SamplesPerPixel": 1,
        "Rows": 8,
        "Columns": 8,
        "BitsAllocated": 16,
        "BitsStored": 12,
    }
    ds.update(overrides)
    return ds


def make_dicom(pixels=None, transfer_syntax=EXPLICIT_VR_LE,
               encapsulated=False, preamble=True, **overrides) -> bytes:
    ds = base_dataset(**overrides)
    payload = None
    if pixels is not None:
        payload = pixels if isinstance(pixels, bytes) else pixels.tobytes()
    return build_dicom(ds, transfer_syntax, pixel_payload=payload,
                       encapsulated=encapsulated, preamble=preamble)


def make_image(sop_uid="1.1", z=0.0, orientation=AXIAL, instance=None,
               **overrides) -> ImageRecord:
    kwargs = dict(
        sop_uid=sop_uid, rows=64, cols=64, bits_allocated=16, bits_stored=12,
        samples_per_pixel=1,
        transfer_syntax_uid="1.2.840.10008.1.2.1",
        instance_number=instance,
        image_position_patient=(0.0, 0.0, z) if z is not None else None,
        image_orientation_patient=orientation,
        pixel_data_offset=0, pixel_data_length=64 * 64 * 2)
    kwargs.update(overrides)
    return ImageRecord(**kwargs)


def make_series(zs=(0.0, 2.0, 4.0), series_uid="S1", modality="CT",
                description="AX BODY", frame="F1", **overrides) -> SeriesRecord:
    series = SeriesRecord(series_uid=series_uid, modality=modality,
                          series_description=description,
                          frame_of_reference_uid=frame, **overrides)
    series.images = [make_image(sop_uid=f"{series_uid}.{i}", z=z, instance=i + 1)
                     for i, z in enumerate(zs)]
    return series


def make_study(study_uid="ST1", patient_id="P001", series=None,
               **overrides) -> StudyRecord:
    study = StudyRecord(study_uid=study_uid, patient_id=patient_id, **overrides)
    study.series = list(series) if series is not None else [make_series()]
    return study


def region_table(evals, class_names, resamples=1000, level=0.95, seed=0,
                 step_mm=10.0):
    """`region_rows` of `evals`, read from their `bootstrap_counts`."""
    [counts] = bootstrap_counts([evals], len(class_names), resamples, seed,
                                step_mm)
    return region_rows(evals, counts.class_sums(), class_names, level)


def factor_table(studies, evals, factor, class_names, resamples=1000,
                 level=0.95, seed=0, step_mm=10.0):
    """`factor_report` of one factor as `evaluate` builds it: the
    categories with at least MIN_CATEGORY_COUNT units are resampled, and
    the others print NA."""
    units = factor_units(studies, evals, factor)
    sampled = [cat for cat, u in units.items()
               if len(u) >= MIN_CATEGORY_COUNT]
    counts = bootstrap_counts([units[cat] for cat in sampled],
                              len(class_names), resamples, seed, step_mm)
    return factor_report(factor, units,
                         {cat: c.class_sums() for cat, c in zip(sampled, counts)},
                         class_names, level)


@pytest.fixture
def axial_series():
    return make_series()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def kernel_paths(monkeypatch):
    """The names of the PackBits header finders and expansions called, in
    call order, while the test runs."""
    from bodyregion import _kernels

    called = []
    for name in ("_heads_jump", "_heads_walk", "_expand_repeat",
                 "_expand_slices"):
        def spy(*args, _real=getattr(_kernels, name), _name=name):
            called.append(_name)
            return _real(*args)
        monkeypatch.setattr(_kernels, name, spy)
    return called
