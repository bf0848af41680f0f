"""The filter contract end to end: every stage after `filter` covers
exactly the images the filter admitted, by sop_uid.

The cohort is a small phantom plus planted files that the filter must
drop, one per exclusion level: an 8-bit image and a 16 x 16 image inside
an admitted series, and a whole series with a derived (MPR) description.
"""

import csv
import json

import numpy as np
import pytest

from bodyregion.cli import main
from bodyregion.dicomio import TAG_TABLE, parse_dicom
from bodyregion.cohort import apply_filters
from bodyregion.ingest import read_metadata_ndjson, write_metadata_ndjson
from bodyregion.phantom import PhantomSpec, RegionSpec, generate_phantom
from bodyregion.postprocess import read_series_results
from bodyregion.taxonomy import BodyRegion

from conftest import make_dicom

UID = "1.2.826.0.1.3680043.8.498.99"


def _study_and_series_tags(path):
    """make_dicom overrides carrying the study and series tags of the
    DICOM file at `path`, so a file built with them joins its series (or,
    with a new SeriesInstanceUID, its study) without a sidecar conflict."""
    parsed = parse_dicom(path.read_bytes())
    attrs = {**parsed.series_attrs, **parsed.study_attrs}
    tags = {keyword: attrs[name] for keyword, _, name in TAG_TABLE.values()
            if name in attrs}
    tags["PatientAge"] = f"{attrs['patient_age']:03.0f}Y"
    return tags


def _plant(path, tags, sop_uid, z, size=64, **overrides):
    pixels = np.full((size, size), 100, dtype="<u2")
    path.write_bytes(make_dicom(
        pixels, **{**tags, "SOPInstanceUID": sop_uid, "InstanceNumber": 90,
                   "ImagePositionPatient": (0.0, 0.0, z),
                   "Rows": size, "Columns": size, **overrides}))


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Run every stage once on the cohort; returns its directory, the
    admitted sop_uids and the sop_uid of each file in the tree."""
    root = tmp_path_factory.mktemp("contract")
    ph = root / "ph"
    spec = PhantomSpec(
        regions=[RegionSpec(BodyRegion.ABDOMEN, 30.0),
                 RegionSpec(BodyRegion.CHEST, 30.0),
                 RegionSpec(BodyRegion.HEAD, 30.0)],
        slice_spacing_mm=5.0, seed=5, n_studies=4, window=2)
    generate_phantom(spec, ph)
    tags = _study_and_series_tags(ph / "study_0000" / "img_0000.dcm")
    _plant(ph / "study_0000" / "low_bit_depth.dcm", tags, f"{UID}.1", 2.5,
           BitsStored=8)
    _plant(ph / "study_0000" / "too_few_pixels.dcm", tags, f"{UID}.2", 7.5,
           size=16)
    tags = _study_and_series_tags(ph / "study_0001" / "img_0000.dcm")
    for i in range(3):
        _plant(ph / "study_0001" / f"mpr_{i}.dcm", tags, f"{UID}.3.{i}",
               5.0 * i, SeriesInstanceUID=f"{UID}.3",
               SeriesDescription="AX MPR")

    filtered = str(root / "filt" / "filtered.ndjson")
    truth = str(root / "truth.csv")
    scores = str(root / "scores.csv")
    results = str(root / "results.ndjson")
    for argv in (
            ["ingest", "--dicom", ph, "--out", root / "ing"],
            ["filter", "--in", root / "ing" / "metadata.ndjson",
             "--out", root / "filt"],
            ["labels-project", "--in", filtered,
             "--boxes", ph / "labels.json", "--out", truth],
            ["classify", "--in", filtered, "--truth", truth, "--out", scores],
            ["postprocess", "--in", filtered, "--scores", scores,
             "--out", results],
            ["evaluate", "--in", filtered, "--results", results,
             "--truth", truth, "--out", root / "eval", "--bootstrap", "20"],
            ["report", "--summary", root / "eval" / "summary.json",
             "--out", root / "report.md"],
            ["tag-write", "--dicom", ph, "--results", results,
             "--out", root / "changes.csv"]):
        assert main([str(a) for a in argv]) == 0, argv

    sop_by_path = {image.source_path: image.sop_uid
                   for study in read_metadata_ndjson(
                       root / "ing" / "metadata.ndjson")
                   for series in study.series for image in series.images}
    admitted = {image.sop_uid for study in read_metadata_ndjson(filtered)
                for series in study.series for image in series.images}
    return root, admitted, sop_by_path


def test_filter_drops_each_planted_file(chain):
    root, admitted, sop_by_path = chain
    reasons = {row["uid"]: row["reason"]
               for row in _read_csv(root / "filt" / "filter_report.csv")}
    assert reasons[f"{UID}.1"] == "LowBitDepth"
    assert reasons[f"{UID}.2"] == "TooFewPixels"
    assert reasons[f"{UID}.3"] == "MPRorDerived"
    planted = {sop for sop in sop_by_path.values() if sop.startswith(UID)}
    assert len(planted) == 5
    assert admitted == set(sop_by_path.values()) - planted


def test_truth_covers_the_admitted_set(chain):
    root, admitted, _ = chain
    rows = _read_csv(root / "truth.csv")
    assert len(rows) == len(admitted)
    assert {row["sop_uid"] for row in rows} == admitted


def test_filtered_sidecar_is_the_admitted_lines(chain, tmp_path):
    # filter passes each admitted line through; for a sidecar ingest wrote
    # that is the encoding of the admitted records, and no excluded line.
    root, admitted, _ = chain
    metadata = root / "ing" / "metadata.ndjson"
    kept, _ = apply_filters(read_metadata_ndjson(metadata))
    write_metadata_ndjson(kept, tmp_path / "encoded.ndjson")
    filtered = (root / "filt" / "filtered.ndjson").read_bytes()
    assert filtered == (tmp_path / "encoded.ndjson").read_bytes()
    lines = set(metadata.read_bytes().splitlines())
    assert set(filtered.splitlines()) == {
        line for line in lines if json.loads(line)["sop_uid"] in admitted}
    assert len(lines) > len(admitted)


def test_scores_cover_the_admitted_set(chain):
    root, admitted, _ = chain
    assert _read_csv(root / "scores.skip_report.csv") == []
    rows = _read_csv(root / "scores.csv")
    assert len(rows) == len(admitted)
    assert {row["sop_uid"] for row in rows} == admitted


def test_results_cover_the_admitted_set(chain):
    root, admitted, _ = chain
    sops = [sop for row in read_series_results(root / "results.ndjson")
            for sop, _ in row.labels]
    assert len(sops) == len(admitted)
    assert set(sops) == admitted


def test_summary_counts_the_admitted_set(chain):
    root, admitted, _ = chain
    labelled = {sop for row in read_series_results(root / "results.ndjson")
                for sop, label in row.labels if label is not None}
    truth = {row["sop_uid"] for row in _read_csv(root / "truth.csv")
             if row["region"]}
    summary = json.loads((root / "eval" / "summary.json").read_text())
    assert labelled & truth == admitted
    assert summary["n_images"] == len(admitted)


def test_tag_write_rewrites_the_admitted_set(chain):
    root, admitted, sop_by_path = chain
    rewritten = [sop_by_path[row["path"]]
                 for row in _read_csv(root / "changes.csv")
                 if row["action"] == "rewritten"]
    assert len(rewritten) == len(admitted)
    assert set(rewritten) == admitted
