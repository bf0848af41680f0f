"""CLI surface: stage chaining on a small phantom cohort, exit codes."""

import argparse
import csv
import hashlib
import inspect
import json
import math
import shutil
import struct
from collections import Counter

import numpy as np
import pytest

from bodyregion import cli, stats
from bodyregion.cli import build_parser, main
from bodyregion.cohort import apply_filters
from bodyregion.dicomio import (EXPLICIT_VR_LE, JPEG_LOSSLESS_SV1,
                                RLE_LOSSLESS, TAG_BODY_PART, build_dicom,
                                encode_element, parse_dicom)
from bodyregion.ingest import (read_metadata_ndjson, tree_files,
                               write_metadata_ndjson)
from bodyregion.pixels import decode_pixels, rle_encode_frame
from bodyregion.phantom import (PhantomSpec, RegionSpec, generate_phantom)
from bodyregion.stats import bootstrap_counts
from bodyregion.taxonomy import FINAL_REGIONS, BodyRegion

from conftest import make_dicom, make_series, make_study

# sha256 of the pipeline_dirs phantom's scores.csv. Changes to how classify
# decodes, preprocesses and reduces images must keep it byte-identical.
SCORES_SHA256 = "c2d327cff53883845ef33c2fc22d9f3a87d03be93dc34de6f80d71b8c6eaaf2b"

# sha256 of the pipeline_dirs postprocess output (results.ndjson). Changes
# to the series rule engine must keep it byte-identical.
RESULTS_SHA256 = "152ccfb201af67b1b4255a6b46e6c838607b5413812e0ec1f65ed56394b855f7"

# sha256 of the pipeline_dirs labels-project output (truth.csv). Changes to
# how boxes are projected onto images must keep it byte-identical.
TRUTH_SHA256 = "9fa6e48b1a572354517d1b4963f4ba596c3d7847571fc0df36d2f5ab27eb9e95"

# sha256 of every file the pipeline_dirs evaluate runs write: the default
# factors (eval/) and `--factors kernel contrast` (eval_kernel_contrast/),
# where the cohort and the kernel category have the same number of studies
# and so gather from the same draws. Changes to how evaluate resamples must
# keep them byte-identical.
EVAL_SHA256 = {
    "eval": {
        "by_age.csv": "6113176424d17d5c45cc583861a61c06"
                      "65ad88be8571ab6d4b2f4d56b671f3b5",
        "by_gender.csv": "6501ce57095035a499d2b3b767c50b3c"
                         "eddec2d19858224e3cda65181bcd78c4",
        "by_institution.csv": "daf6ada9613ffce1dac5155b3ff23bcf"
                              "74391a6b5058dcd1bc41777f32bc6112",
        "by_manufacturer.csv": "544ab78daf2cd97f7590f6a5feb40d4b"
                               "4e2a53523038e6690f232998a7669d5d",
        "by_region.csv": "9de73266a41e88e83c0d3e710433dd61"
                         "6a96a2dc5e5a90cd0a4a58848c346d56",
        "summary.json": "ea86b6d79f1e16ecd6b810e394cee8c0"
                        "602130949a6202d310320e7db3a1addc",
    },
    "eval_kernel_contrast": {
        "by_contrast.csv": "8a724082663765f5e48ccf793e1828c7"
                           "5d43d1e4e86341d2f06e16d2ab100704",
        "by_kernel.csv": "de0d8c6e2ede77021fe081820cf9a2a4"
                         "87627cbe5dcc57bed0c49ce7d8d7ab27",
        "by_region.csv": "9de73266a41e88e83c0d3e710433dd61"
                         "6a96a2dc5e5a90cd0a4a58848c346d56",
        "summary.json": "ea86b6d79f1e16ecd6b810e394cee8c0"
                        "602130949a6202d310320e7db3a1addc",
    },
}
EVALUATE_KERNEL_CONTRAST = ["--bootstrap", "50", "--factors", "kernel",
                            "contrast"]

# sha256 of every file of the `--factors kernel contrast` evaluate run on
# scores that misclassify every fifth slice (see `misclassified_scores`).
# Its CIs are not all 100.0, so these pins change when the resample draws
# do, for both set sizes (5 and 8).
EVAL_MISCLASSIFIED_SHA256 = {
    "by_contrast.csv": "de0bdda9d5bb6004b822358ee0d02531"
                       "fd7e5298f6114d289c33078cc89d2fff",
    "by_kernel.csv": "f48b98be216f51f4f10cb3f7240574f8"
                     "224365ab145746cdc25537297e5833a1",
    "by_region.csv": "3a62079d8ec6e22e327a01321972c747"
                     "fec1c12e82c1a8570aadcbbab05a4897",
    "summary.json": "6fd221815795cafe57c951b107163168"
                    "203e1346a8f52b2058539c2ed1569e24",
}


def misclassified_scores(scores, out):
    """Copy scores.csv with the scores of every fifth image (rows 2, 7, 12,
    ...) rotated one class over, so that the top score names another
    region."""
    with open(scores) as fh:
        lines = fh.read().splitlines()
    with open(out, "w") as fh:
        fh.write(lines[0] + "\n")
        for i, line in enumerate(lines[1:]):
            uid, *values = line.split(",")
            if i % 5 == 2:
                values = values[-1:] + values[:-1]
            fh.write(",".join([uid] + values) + "\n")


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """Run the full stage chain once; tests inspect the outputs."""
    root = tmp_path_factory.mktemp("cli")
    ph = root / "ph"
    spec = PhantomSpec(
        regions=[RegionSpec(BodyRegion.ABDOMEN, 30.0),
                 RegionSpec(BodyRegion.CHEST, 30.0),
                 RegionSpec(BodyRegion.HEAD, 30.0)],
        slice_spacing_mm=5.0, seed=11, n_studies=8, window=2)
    generate_phantom(spec, ph)

    assert main(["ingest", "--dicom", str(ph), "--out", str(root / "ing")]) == 0
    assert main(["filter", "--in", str(root / "ing" / "metadata.ndjson"),
                 "--out", str(root / "filt")]) == 0
    filtered = str(root / "filt" / "filtered.ndjson")
    truth = str(root / "truth.csv")
    assert main(["labels-project", "--in", filtered,
                 "--boxes", str(ph / "labels.json"), "--out", truth]) == 0
    scores = str(root / "scores.csv")
    assert main(["classify", "--dicom", str(ph), "--truth", truth,
                 "--out", scores]) == 0
    results = str(root / "results.ndjson")
    assert main(["postprocess", "--in", filtered, "--scores", scores,
                 "--out", results]) == 0
    evaluate = ["evaluate", "--in", filtered, "--results", results,
                "--truth", truth]
    assert main(evaluate + ["--out", str(root / "eval"),
                            "--bootstrap", "50"]) == 0
    assert main(evaluate + ["--out", str(root / "eval_kernel_contrast")]
                + EVALUATE_KERNEL_CONTRAST) == 0
    misclassified = str(root / "scores_misclassified.csv")
    misclassified_scores(scores, misclassified)
    results = str(root / "results_misclassified.ndjson")
    assert main(["postprocess", "--in", filtered, "--scores", misclassified,
                 "--out", results]) == 0
    assert main(["evaluate", "--in", filtered, "--results", results,
                 "--truth", truth, "--out", str(root / "eval_misclassified")]
                + EVALUATE_KERNEL_CONTRAST) == 0
    return root


class TestPipelineOutputs:
    def test_summary(self, pipeline_dirs):
        summary = json.loads(
            (pipeline_dirs / "eval" / "summary.json").read_text())
        assert summary["n_studies"] == 8
        assert summary["overall_sensitivity"] > 0.9

    def test_region_table(self, pipeline_dirs):
        lines = (pipeline_dirs / "eval" / "by_region.csv").read_text().splitlines()
        assert lines[0] == "region,n,sensitivity_95ci,specificity_95ci"
        assert lines[1].startswith("Overall,")

    def test_factor_tables_emitted(self, pipeline_dirs):
        for factor in ("institution", "age", "gender", "manufacturer"):
            assert (pipeline_dirs / "eval" / f"by_{factor}.csv").exists()

    def test_filter_report(self, pipeline_dirs):
        with open(pipeline_dirs / "filt" / "filter_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["included"] == "true" for r in rows)

    def test_truth_columns(self, pipeline_dirs):
        with open(pipeline_dirs / "truth.csv") as fh:
            header = fh.readline().strip()
        assert header == "sop_uid,series_uid,study_uid,region"

    def test_truth_unchanged(self, pipeline_dirs):
        data = (pipeline_dirs / "truth.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == TRUTH_SHA256

    def test_tag_write_dry_run(self, pipeline_dirs, tmp_path):
        log = tmp_path / "tags.csv"
        rc = main(["tag-write", "--dicom", str(pipeline_dirs / "ph"),
                   "--results", str(pipeline_dirs / "results.ndjson"),
                   "--out", str(log), "--dry-run"])
        assert rc == 0
        with open(log) as fh:
            rows = list(csv.DictReader(fh))
        assert any(r["action"] == "rewritten" for r in rows)

    def test_tag_write_walks_files_in_ingest_order(self, pipeline_dirs,
                                                   tmp_path):
        log = tmp_path / "tags.csv"
        assert main(["tag-write", "--dicom", str(pipeline_dirs / "ph"),
                     "--results", str(pipeline_dirs / "results.ndjson"),
                     "--out", str(log), "--dry-run"]) == 0
        with open(log) as fh:
            paths = [r["path"] for r in csv.DictReader(fh)]
        assert paths == tree_files(pipeline_dirs / "ph")

    def test_report_rendering(self, pipeline_dirs, tmp_path, capsys):
        rc = main(["report",
                   "--summary", str(pipeline_dirs / "eval" / "summary.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall weighted sensitivity" in out


def _stale_sidecar(root, tmp, every):
    """A copy of the pipeline's filtered.ndjson in which the locator of
    every `every`-th image names a file that does not exist."""
    lines = (root / "filt" / "filtered.ndjson").read_text().splitlines()
    sidecar = tmp / "stale.ndjson"
    with open(sidecar, "w") as fh:
        for i, line in enumerate(lines):
            row = json.loads(line)
            if i % every == 0:
                row["source_path"] = str(tmp / f"gone{i}.dcm")
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return sidecar


# (stage argv from the pipeline_dirs root and a scratch dir, exit code,
# the exact stdout with {root} and {tmp} in place of those dirs)
STAGE_STDOUT = {
    "phantom": (lambda root, tmp: [
        "phantom", "--out", tmp / "ph", "--studies", "2", "--seed", "3"],
        0, "wrote 2 studies / 72 slices to {tmp}/ph\n"),
    "ingest": (lambda root, tmp: [
        "ingest", "--dicom", root / "ph", "--out", tmp / "ing"],
        0, "ingested 96 images in 8 studies; skipped 2 files\n"),
    "filter": (lambda root, tmp: [
        "filter", "--in", root / "ing" / "metadata.ndjson",
        "--out", tmp / "filt"],
        0, "kept 96/96 images across 8 studies\n"),
    "labels-project": (lambda root, tmp: [
        "labels-project", "--in", root / "filt" / "filtered.ndjson",
        "--boxes", root / "ph" / "labels.json", "--out", tmp / "truth.csv"],
        0, "labeled 96/96 images -> {tmp}/truth.csv\n"),
    "classify": (lambda root, tmp: [
        "classify", "--dicom", root / "ph", "--truth", root / "truth.csv",
        "--out", tmp / "scores.csv"],
        0, "trained on 96 images, scored 96 -> {tmp}/scores.csv\n"),
    "classify-skips": (lambda root, tmp: [
        "classify", "--in", _stale_sidecar(root, tmp, 10),
        "--truth", root / "truth.csv", "--out", tmp / "scores.csv"],
        0, "skipped 10 images (10 FileNotFoundError) -> "
           "{tmp}/scores.skip_report.csv\n"
           "trained on 86 images, scored 86 -> {tmp}/scores.csv\n"),
    # A data error still prints the lines the stage reported before it.
    "classify-all-skipped": (lambda root, tmp: [
        "classify", "--in", _stale_sidecar(root, tmp, 1),
        "--truth", root / "truth.csv", "--out", tmp / "scores.csv"],
        2, "skipped 96 images (96 FileNotFoundError) -> "
           "{tmp}/scores.skip_report.csv\n"),
    "postprocess": (lambda root, tmp: [
        "postprocess", "--in", root / "filt" / "filtered.ndjson",
        "--scores", root / "scores.csv", "--out", tmp / "results.ndjson"],
        0, "8/8 series accepted -> {tmp}/results.ndjson\n"),
    "evaluate": (lambda root, tmp: [
        "evaluate", "--in", root / "filt" / "filtered.ndjson",
        "--results", root / "results.ndjson", "--truth", root / "truth.csv",
        "--out", tmp / "eval", "--bootstrap", "20"],
        0, "overall weighted sensitivity 100.0% over 96 images\n"),
    "report": (lambda root, tmp: [
        "report", "--summary", root / "eval" / "summary.json"],
        0, "# Evaluation summary\n\n- studies: 8\n- images: 96\n"
           "- overall weighted sensitivity: 100.0%\n"
           "- overall weighted specificity: 100.0%\n"
           "- tag agreement (body_part): 0.0%\n"
           "- tag agreement (procedure): 0.0%\n"),
    "report-out": (lambda root, tmp: [
        "report", "--summary", root / "eval" / "summary.json",
        "--out", tmp / "report.md"], 0, ""),
    "sample-size": (lambda root, tmp: ["sample-size"], 0, "43\n"),
    "tag-write": (lambda root, tmp: [
        "tag-write", "--dicom", root / "ph",
        "--results", root / "results.ndjson", "--out", tmp / "changes.csv",
        "--dry-run"],
        0, "would rewrite 96/98 files; log -> {tmp}/changes.csv\n"),
}


class TestStageStdout:
    @pytest.mark.parametrize("stage", list(STAGE_STDOUT))
    def test_exact_stdout(self, pipeline_dirs, tmp_path, capsys, stage):
        argv, code, expected = STAGE_STDOUT[stage]
        capsys.readouterr()
        assert main([str(a) for a in argv(pipeline_dirs, tmp_path)]) == code
        assert capsys.readouterr().out == expected.format(
            root=pipeline_dirs, tmp=tmp_path)


class TestClassify:
    def test_scores_unchanged(self, pipeline_dirs):
        data = (pipeline_dirs / "scores.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == SCORES_SHA256

    def test_decodes_and_reduces_each_image_once(self, pipeline_dirs,
                                                 tmp_path, monkeypatch):
        decoded, reduced = Counter(), Counter()
        owner = {}  # id of a decoded matrix -> (sop_uid, the matrix)
        decode, feature = cli.decode_pixels_from_file, cli.pixel_feature

        def counting_decode(image):
            decoded[image.sop_uid] += 1
            pixels = decode(image)
            owner[id(pixels)] = (image.sop_uid, pixels)
            return pixels

        def counting_feature(pixels):
            reduced[owner[id(pixels)][0]] += 1
            return feature(pixels)

        monkeypatch.setattr(cli, "decode_pixels_from_file", counting_decode)
        monkeypatch.setattr(cli, "pixel_feature", counting_feature)
        out = tmp_path / "scores.csv"
        assert main(["classify", "--dicom", str(pipeline_dirs / "ph"),
                     "--truth", str(pipeline_dirs / "truth.csv"),
                     "--out", str(out)]) == 0
        assert len(decoded) == 96 and set(decoded.values()) == {1}
        assert reduced == decoded
        assert out.read_bytes() == (pipeline_dirs / "scores.csv").read_bytes()
        with open(tmp_path / "scores.skip_report.csv") as fh:
            assert list(csv.reader(fh)) == [["path", "error"]]


    def test_sidecar_scores_equal_walk_scores(self, pipeline_dirs,
                                              tmp_path):
        # This filter excludes nothing, and the sidecar lists the images in
        # the walk's order (studies by uid, series by uid, images by
        # geometry), so both inputs give the same scores.csv.
        assert (pipeline_dirs / "filt" / "filtered.ndjson").read_bytes() == (
            pipeline_dirs / "ing" / "metadata.ndjson").read_bytes()
        scores = tmp_path / "scores.csv"
        assert main(["classify",
                     "--in", str(pipeline_dirs / "filt" / "filtered.ndjson"),
                     "--truth", str(pipeline_dirs / "truth.csv"),
                     "--out", str(scores)]) == 0
        assert scores.read_bytes() == (pipeline_dirs
                                       / "scores.csv").read_bytes()
        assert (tmp_path / "scores.skip_report.csv").read_text() == (
            "path,error\n")

    @pytest.mark.parametrize("argv", [[], ["--in", "a", "--dicom", "b"]],
                             ids=["neither", "both"])
    def test_needs_one_input(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--truth", "t.csv", "--out", "s.csv", *argv])
        assert err.value.code == 1
        assert "--in" in capsys.readouterr().err


class TestFilterPassThrough:
    """filter writes each admitted image's sidecar line as it read it, in
    record order."""

    def test_ingest_sidecar_as_encoded(self, pipeline_dirs, tmp_path):
        metadata = pipeline_dirs / "ing" / "metadata.ndjson"
        kept, _ = apply_filters(read_metadata_ndjson(metadata))
        write_metadata_ndjson(kept, tmp_path / "encoded.ndjson")
        assert (pipeline_dirs / "filt" / "filtered.ndjson").read_bytes() == (
            tmp_path / "encoded.ndjson").read_bytes()

    def test_hand_edited_line_passes_through(self, pipeline_dirs, tmp_path):
        lines = (pipeline_dirs / "ing" / "metadata.ndjson").read_text(
            ).splitlines()
        rows = [json.loads(line) for line in lines]

        def key(row):
            return row["study_uid"], row["series_uid"]

        # The first series' lines come first; its first image moves to the
        # end of the file, and its second is excluded.
        n_first = sum(key(row) == key(rows[0]) for row in rows)
        assert n_first > 2 and all(key(row) == key(rows[0])
                                   for row in rows[:n_first])
        edited = json.dumps({**rows[0], "rows": 64.0, "note": "by hand"},
                            separators=(" ,  ", " :  "))
        excluded = json.dumps({**rows[1], "bits_stored": 8})
        sidecar = tmp_path / "edited.ndjson"
        sidecar.write_text("\n".join([excluded, *lines[2:], f"  {edited}  "])
                           + "\n")
        out = tmp_path / "filt"
        assert main(["filter", "--in", str(sidecar), "--out", str(out)]) == 0
        # Record order: the moved image is the last of its series, before
        # the next series' lines.
        assert (out / "filtered.ndjson").read_text().splitlines() == (
            lines[2:n_first] + [edited] + lines[n_first:])
        with open(out / "filter_report.csv") as fh:
            reasons = {r["uid"]: r["reason"] for r in csv.DictReader(fh)}
        assert reasons[rows[1]["sop_uid"]] == "LowBitDepth"


class TestPostprocess:
    def test_results_unchanged(self, pipeline_dirs):
        data = (pipeline_dirs / "results.ndjson").read_bytes()
        assert hashlib.sha256(data).hexdigest() == RESULTS_SHA256


class TestEvaluate:
    @pytest.mark.parametrize("run", sorted(EVAL_SHA256))
    def test_outputs_unchanged(self, pipeline_dirs, run):
        out = pipeline_dirs / run
        assert sorted(p.name for p in out.iterdir()) == sorted(
            EVAL_SHA256[run])
        for name, digest in EVAL_SHA256[run].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_undefined_tnr_logged_once_per_run(self, pipeline_dirs,
                                               tmp_path, caplog):
        # Six of the eight studies hold only Chest in truth, so every
        # resample that draws none of the other two has no negatives for
        # Chest: the region table and the factor categories see it.
        lines = (pipeline_dirs / "truth.csv").read_text().splitlines()
        studies = list(dict.fromkeys(line.split(",")[2]
                                     for line in lines[1:]))
        for i, line in enumerate(lines[1:], 1):
            fields = line.split(",")
            if fields[2] in studies[:6]:
                lines[i] = ",".join(fields[:3] + ["Chest"])
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join(lines) + "\n")
        out = tmp_path / "eval"
        with caplog.at_level("WARNING", logger="bodyregion"):
            assert main(["evaluate",
                         "--in", str(pipeline_dirs / "filt" / "filtered.ndjson"),
                         "--results", str(pipeline_dirs / "results.ndjson"),
                         "--truth", str(truth), "--out", str(out)]
                        + EVALUATE_KERNEL_CONTRAST) == 0
        [line] = [r.getMessage() for r in caplog.records
                  if "TNR undefined" in r.getMessage()]
        prefix = "TNR undefined, skipped: "
        assert line.startswith(prefix + "regions (class Chest in ")
        tables = {}
        for part in line[len(prefix):].split("; "):
            table, classes = part[:-1].split(" (")
            tables[table] = classes.split(", ")
        assert all(c.startswith("class ") and c.endswith("/50 resamples")
                   for found in tables.values() for c in found)
        # Each table named is the region table or a factor category
        # printed with a CI, and some factor category is among them.
        assert len(tables) > 1
        for table in set(tables) - {"regions"}:
            factor, category = table.split("=")
            rows = (out / f"by_{factor}.csv").read_text().splitlines()
            assert any(row.split(",")[1] == category and "(" in row
                       for row in rows[1:]), table

    def test_tag_agreement_credits_each_study_its_own_labels(self,
                                                             tmp_path):
        # Two studies share the series uid SHARED, which ingest keeps as
        # two series: each study's tag is checked against the labels of
        # its own images, not those of the last series of that uid.
        tree = tmp_path / "tree"
        tree.mkdir()
        truth, rows = ["sop_uid,region"], []
        for study_uid, tag, region in [("1.1", "HEAD", "Head"),
                                       ("1.2", "CHEST", "Chest")]:
            sops = [f"{study_uid}.{i}" for i in range(3)]
            for i, sop in enumerate(sops):
                (tree / f"{sop}.dcm").write_bytes(make_dicom(
                    pixels=np.zeros(64, dtype="<u2"),
                    StudyInstanceUID=study_uid, SeriesInstanceUID="SHARED",
                    SOPInstanceUID=sop, BodyPartExamined=tag,
                    ImagePositionPatient=(0.0, 0.0, 10.0 * i)))
                truth.append(f"{sop},{region}")
            rows.append({"series_uid": "SHARED", "series_regions": [region],
                         "status": "Accepted",
                         "images": [{"sop_uid": sop, "label": region}
                                    for sop in sops]})
        (tmp_path / "truth.csv").write_text("\n".join(truth) + "\n")
        results = tmp_path / "results.ndjson"
        results.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["ingest", "--dicom", str(tree),
                     "--out", str(tmp_path / "ing")]) == 0
        out = tmp_path / "eval"
        assert main(["evaluate",
                     "--in", str(tmp_path / "ing" / "metadata.ndjson"),
                     "--results", str(results),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--out", str(out), "--bootstrap", "10",
                     "--factors"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_studies"] == 2
        assert summary["tag_agreement"]["body_part"] == 1.0

    def test_single_class_truth_writes_valid_json(self, pipeline_dirs,
                                                  tmp_path, capsys):
        # Weighted specificity is undefined with one class in truth; the
        # summary carries null there (it wrote NaN, which is not JSON) and
        # report prints NA.
        lines = (pipeline_dirs / "truth.csv").read_text().splitlines()
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join(
            [lines[0]] + [",".join(line.split(",")[:3] + ["Chest"])
                          for line in lines[1:]]) + "\n")
        out = tmp_path / "eval"
        assert main(["evaluate",
                     "--in", str(pipeline_dirs / "filt" / "filtered.ndjson"),
                     "--results", str(pipeline_dirs / "results.ndjson"),
                     "--truth", str(truth), "--out", str(out),
                     "--bootstrap", "20"]) == 0

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=refuse)
        assert summary["overall_specificity"] is None
        capsys.readouterr()
        assert main(["report", "--summary", str(out / "summary.json")]) == 0
        assert "- overall weighted specificity: NA\n" in \
            capsys.readouterr().out

    def test_misclassified_outputs_unchanged(self, pipeline_dirs):
        out = pipeline_dirs / "eval_misclassified"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            EVAL_MISCLASSIFIED_SHA256)
        for name, digest in EVAL_MISCLASSIFIED_SHA256.items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name
        # The pins see the draws only while some CI is not 100.0 wide.
        with open(out / "by_region.csv") as fh:
            cis = [r["sensitivity_95ci"] for r in csv.DictReader(fh)]
        assert all("100.0 - 100.0" not in ci for ci in cis)

    @pytest.mark.parametrize("resamples", ["50", "7", "1000"])
    def test_builds_two_streams_per_set_size(self, pipeline_dirs, tmp_path,
                                             monkeypatch, resamples):
        built = Counter()
        default_rng = np.random.default_rng

        def counting_rng(seed=None):
            built[tuple(seed)] += 1
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        root = pipeline_dirs
        argv = ["evaluate", "--in", str(root / "filt" / "filtered.ndjson"),
                "--results", str(root / "results.ndjson"),
                "--truth", str(root / "truth.csv"),
                "--factors", "kernel", "contrast", "--bootstrap", resamples]
        # Resampled sets: the 8 studies, the kernel's Soft tissue category
        # (all 8) and the contrast's Without contrast category (5 studies;
        # With contrast has 3, too few for a CI): two distinct sizes, each
        # with a study-index stream and a uniform stream.
        streams = [(0, n, s) for n in (5, 8) for s in (0, 1)]
        for run in (1, 2):
            out = tmp_path / f"eval{run}"
            assert main(argv + ["--out", str(out)]) == 0
            # A second run in the same process builds them all again.
            assert built == Counter({stream: run for stream in streams})
        if resamples == "50":
            for name in EVAL_SHA256["eval_kernel_contrast"]:
                assert (out / name).read_bytes() == (
                    root / "eval_kernel_contrast" / name).read_bytes()
        with open(out / "by_contrast.csv") as fh:
            assert [int(r["n"]) for r in csv.DictReader(fh)] == [3, 5]
        with open(out / "by_kernel.csv") as fh:
            assert [int(r["n"]) for r in csv.DictReader(fh)] == [8]

    def test_factor_units_once_per_factor(self, pipeline_dirs, tmp_path,
                                          monkeypatch):
        calls = Counter()
        factor_units = stats.factor_units

        def counting(studies, evals, factor):
            calls[factor] += 1
            return factor_units(studies, evals, factor)

        monkeypatch.setattr(stats, "factor_units", counting)
        root = pipeline_dirs
        out = tmp_path / "eval"
        assert main(["evaluate",
                     "--in", str(root / "filt" / "filtered.ndjson"),
                     "--results", str(root / "results.ndjson"),
                     "--truth", str(root / "truth.csv"), "--out", str(out)]
                    + EVALUATE_KERNEL_CONTRAST) == 0
        assert calls == Counter({"kernel": 1, "contrast": 1})
        for name in EVAL_SHA256["eval_kernel_contrast"]:
            assert (out / name).read_bytes() == (
                root / "eval_kernel_contrast" / name).read_bytes()


class TestLabelsProject:
    def _run(self, pipeline_dirs, boxes, truth, caplog):
        """labels-project on the pipeline's filtered sidecar; the messages
        it logged from geometry."""
        with caplog.at_level("WARNING", logger="bodyregion.geometry"):
            assert main(["labels-project",
                         "--in", str(pipeline_dirs / "filt" / "filtered.ndjson"),
                         "--boxes", str(boxes), "--out", str(truth)]) == 0
        return [r.getMessage() for r in caplog.records
                if r.name == "bodyregion.geometry"]

    def test_phantom_run_is_quiet(self, pipeline_dirs, tmp_path, caplog):
        # 8 single-series studies, each with its own frame of reference and
        # 2 boxes in it: every series sees 14 boxes in other frames, which
        # is normal, and was logged as "8 series: 112 box-series pair(s)".
        truth = tmp_path / "truth.csv"
        assert self._run(pipeline_dirs, pipeline_dirs / "ph" / "labels.json",
                         truth, caplog) == []
        assert truth.read_bytes() == (pipeline_dirs / "truth.csv").read_bytes()

    def test_series_with_only_foreign_boxes_logged_once(
            self, pipeline_dirs, tmp_path, caplog):
        boxes = json.loads((pipeline_dirs / "ph" / "labels.json").read_text())
        moved = sorted({b["frame_of_reference_uid"] for b in boxes})[:2]
        for b in boxes:
            if b["frame_of_reference_uid"] in moved:
                b["frame_of_reference_uid"] = "9.9.9"
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps(boxes))
        truth = tmp_path / "truth.csv"
        assert self._run(pipeline_dirs, path, truth, caplog) == [
            "2 series: no box in their frame of reference, 16 box(es) in "
            "other frames ignored"]
        with open(truth) as fh:
            assert sum(not r["region"] for r in csv.DictReader(fh)) == 24


class TestOrientationlessSeries:
    def test_no_line_per_series(self, pipeline_dirs, tmp_path, caplog):
        # Three series without orientation: filter reports them once per
        # run, and labels-project and evaluate stay quiet about them (each
        # logged "series <uid>: no orientation, assuming axial identity").
        root = pipeline_dirs
        rows = [json.loads(line) for line in
                (root / "filt" / "filtered.ndjson").read_text().splitlines()]
        bare = sorted({row["series_uid"] for row in rows})[:3]
        for row in rows:
            if row["series_uid"] in bare:
                row["image_orientation_patient"] = None
        filtered = tmp_path / "filtered.ndjson"
        filtered.write_text("".join(json.dumps(row) + "\n" for row in rows))
        truth = tmp_path / "truth.csv"
        with caplog.at_level("INFO", logger="bodyregion"):
            assert main(["labels-project", "--in", str(filtered),
                         "--boxes", str(root / "ph" / "labels.json"),
                         "--out", str(truth)]) == 0
            assert main(["evaluate", "--in", str(filtered),
                         "--results", str(root / "results.ndjson"),
                         "--truth", str(truth),
                         "--out", str(tmp_path / "eval"),
                         "--bootstrap", "50"]) == 0
        assert truth.read_bytes() == (root / "truth.csv").read_bytes()
        messages = [r.getMessage() for r in caplog.records]
        assert not [m for m in messages
                    if "orientation" in m or any(uid in m for uid in bare)]


class TestImageWithoutPosition:
    def test_series_left_unlabelled_and_no_stage_ends(self, pipeline_dirs,
                                                      tmp_path, caplog):
        # One file loses ImagePositionPatient. Filter admits its series
        # and evaluate has an index-spacing fallback for it, but box
        # projection needs every position of the series: labels-project
        # leaves that series unlabelled, says so once, and every stage
        # runs to the end.
        root = pipeline_dirs
        ph = tmp_path / "ph"
        shutil.copytree(root / "ph", ph)
        path = sorted(ph.rglob("*.dcm"))[3]
        data = path.read_bytes()
        header = b"\x20\x00\x32\x00DS"
        assert data.count(header) == 1
        at = data.index(header)
        end = at + 8 + int.from_bytes(data[at + 6:at + 8], "little")
        path.write_bytes(data[:at] + data[end:])

        ing, flt = tmp_path / "ing", tmp_path / "flt"
        assert main(["ingest", "--dicom", str(ph), "--out", str(ing)]) == 0
        assert main(["filter", "--in", str(ing / "metadata.ndjson"),
                     "--out", str(flt)]) == 0
        filtered = flt / "filtered.ndjson"
        rows = [json.loads(line)
                for line in filtered.read_text().splitlines()]
        [series_uid] = {row["series_uid"] for row in rows
                        if row["image_position_patient"] is None}
        truth = tmp_path / "truth.csv"
        with caplog.at_level("WARNING", logger="bodyregion"):
            assert main(["labels-project", "--in", str(filtered),
                         "--boxes", str(ph / "labels.json"),
                         "--out", str(truth)]) == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"1 series: an image has no position, left unlabelled "
            f"(first: {series_uid})"]
        with open(truth) as fh:
            labels = {r["sop_uid"]: r for r in csv.DictReader(fh)}
        with open(root / "truth.csv") as fh:
            untouched = {r["sop_uid"]: r for r in csv.DictReader(fh)}
        assert labels.keys() == untouched.keys()
        unlabelled = {uid for uid, r in labels.items()
                      if r["series_uid"] == series_uid}
        assert unlabelled and all(not labels[uid]["region"]
                                  for uid in unlabelled)
        assert {uid: r for uid, r in labels.items()
                if uid not in unlabelled} == {
            uid: r for uid, r in untouched.items() if uid not in unlabelled}

        scores, results = tmp_path / "scores.csv", tmp_path / "results.ndjson"
        assert main(["classify", "--dicom", str(ph), "--truth", str(truth),
                     "--out", str(scores)]) == 0
        assert main(["postprocess", "--in", str(filtered),
                     "--scores", str(scores), "--out", str(results)]) == 0
        assert main(["evaluate", "--in", str(filtered),
                     "--results", str(results), "--truth", str(truth),
                     "--out", str(tmp_path / "eval"),
                     "--bootstrap", "20"]) == 0
        assert main(["tag-write", "--dicom", str(ph),
                     "--results", str(results),
                     "--out", str(tmp_path / "changes.csv")]) == 0


def _set_position(path, text):
    """Rewrite the one ImagePositionPatient (DS) of the explicit-VR file at
    `path` to hold `text`, padded to even length."""
    data = path.read_bytes()
    header = b"\x20\x00\x32\x00DS"
    assert data.count(header) == 1
    at = data.index(header)
    end = at + 8 + int.from_bytes(data[at + 6:at + 8], "little")
    value = text.encode() + b" " * (len(text) % 2)
    path.write_bytes(data[:at] + header + len(value).to_bytes(2, "little")
                     + value + data[end:])


def _filter_rows(out):
    with open(out / "filter_report.csv") as fh:
        return list(csv.DictReader(fh))


# Ingest orders such a series by InstanceNumber and never projects the
# non-finite position, which warned "invalid value encountered in dot".
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFinitePosition:
    """A series with an image position that is NaN or infinite is excluded
    at filter, as NotAxial; it was admitted, and labels-project then left
    the image unlabelled without a word."""

    def _assert_excluded(self, metadata, series_uid, out):
        assert main(["filter", "--in", str(metadata), "--out", str(out)]) == 0
        [row] = [r for r in _filter_rows(out) if r["uid"] == series_uid]
        assert row == {"uid": series_uid, "level": "series",
                       "included": "false", "reason": "NotAxial",
                       "detail": "degenerate: image positions are not finite"}
        kept = [json.loads(line) for line in
                (out / "filtered.ndjson").read_text().splitlines()]
        assert len(kept) == 96 - 12
        assert series_uid not in {row["series_uid"] for row in kept}

    @pytest.mark.parametrize("text", ["inf\\0\\0", "0\\0\\NaN"])
    def test_dicom_value(self, pipeline_dirs, tmp_path, text):
        ph = tmp_path / "ph"
        shutil.copytree(pipeline_dirs / "ph", ph)
        path = sorted(ph.rglob("*.dcm"))[3]
        _set_position(path, text)
        series_uid = parse_dicom(path.read_bytes()).series_attrs["series_uid"]
        assert main(["ingest", "--dicom", str(ph),
                     "--out", str(tmp_path / "ing")]) == 0
        self._assert_excluded(tmp_path / "ing" / "metadata.ndjson",
                              series_uid, tmp_path / "filt")

    def test_sidecar_value(self, pipeline_dirs, tmp_path):
        source = pipeline_dirs / "ing" / "metadata.ndjson"
        rows = [json.loads(line) for line in source.read_text().splitlines()]
        rows[40]["image_position_patient"][2] = math.nan
        metadata = tmp_path / "metadata.ndjson"
        metadata.write_text("".join(json.dumps(row, sort_keys=True) + "\n"
                                    for row in rows))
        self._assert_excluded(metadata, rows[40]["series_uid"],
                              tmp_path / "filt")


class TestOneImagePerSop:
    def test_copied_file_is_a_skip_row(self, pipeline_dirs, tmp_path):
        # A copy that sorts after its original: ingest keeps the original
        # and reports the copy, so every stage counts 96 images (the
        # sidecar had 97 lines, scores.csv 96 rows, evaluate 97 images).
        ph = tmp_path / "ph"
        shutil.copytree(pipeline_dirs / "ph", ph)
        original = sorted(ph.rglob("*.dcm"))[5]
        copy = original.with_name(original.stem + "_copy.dcm")
        shutil.copyfile(original, copy)
        sop_uid = parse_dicom(original.read_bytes()).image.sop_uid
        ing = tmp_path / "ing"
        assert main(["ingest", "--dicom", str(ph), "--out", str(ing)]) == 0
        assert (ing / "metadata.ndjson").read_text().replace(
            str(ph), str(pipeline_dirs / "ph")) == (
            pipeline_dirs / "ing" / "metadata.ndjson").read_text()
        with open(ing / "skip_report.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["path"] == str(copy)]
        assert rows == [{"path": str(copy), "error":
                         f"SchemaError: duplicate sop_uid {sop_uid}, "
                         f"first in {original}"}]
        scores = tmp_path / "scores.csv"
        assert main(["classify", "--dicom", str(ph),
                     "--truth", str(pipeline_dirs / "truth.csv"),
                     "--out", str(scores)]) == 0
        assert scores.read_bytes() == (pipeline_dirs
                                       / "scores.csv").read_bytes()

    def test_sidecar_repeat_is_data_error(self, pipeline_dirs, tmp_path,
                                          capsys):
        lines = (pipeline_dirs / "ing" / "metadata.ndjson").read_text(
        ).splitlines(keepends=True)
        metadata = tmp_path / "metadata.ndjson"
        metadata.write_text("".join(lines + lines[7:8]))
        sop_uid = json.loads(lines[7])["sop_uid"]
        capsys.readouterr()
        assert main(["filter", "--in", str(metadata),
                     "--out", str(tmp_path / "filt")]) == 2
        assert capsys.readouterr().err == (
            f"data error: SchemaError: line 97: duplicate sop_uid {sop_uid}, "
            f"first on line 8\n")


class TestTagWrite:
    # Image labels per series; None marks a series rejected as uncertain.
    SERIES = {"1.2.3.2.1": ["Head", "Head", "Arm"],
              "1.2.3.2.2": ["Head", "Arm", "Head", "Arm"],
              "1.2.3.2.3": [None, None]}

    def test_region_rule(self, tmp_path):
        # A series takes the region most of its images carry; a tie goes
        # to the first region by name (Arm, though Head comes first in the
        # taxonomy); a rejected series is skipped.
        dicom, rows = tmp_path / "dicom", []
        dicom.mkdir()
        for uid, labels in self.SERIES.items():
            sops = [f"{uid}.{i}" for i in range(len(labels))]
            for sop in sops:
                (dicom / f"{sop}.dcm").write_bytes(make_dicom(
                    pixels=np.zeros(64, dtype="<u2"), SeriesInstanceUID=uid,
                    SOPInstanceUID=sop))
            regions = sorted({label for label in labels if label})
            rows.append({"series_uid": uid, "series_regions": regions,
                         "status": "Accepted" if regions
                         else "RejectedUncertain",
                         "images": [{"sop_uid": sop, "label": label}
                                    for sop, label in zip(sops, labels)]})
        results = tmp_path / "results.ndjson"
        results.write_text("".join(json.dumps(row) + "\n" for row in rows))
        log = tmp_path / "tags.csv"
        assert main(["tag-write", "--dicom", str(dicom), "--results",
                     str(results), "--out", str(log), "--dry-run"]) == 0
        with open(log) as fh:
            actions = {(r["path"].rsplit("/", 1)[1].rsplit(".", 2)[0],
                        r["action"], r["new_value"])
                       for r in csv.DictReader(fh)}
        assert actions == {("1.2.3.2.1", "rewritten", "HEAD"),
                           ("1.2.3.2.2", "rewritten", "ARM"),
                           ("1.2.3.2.3", "skipped", "")}


class TestSkipReasons:
    def test_ingest_and_tag_write_spell_each_fault_alike(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        good = make_dicom(pixels=np.zeros(64, dtype="<u2"))
        (tree / "cut.dcm").write_bytes(good[:-40])
        (tree / "good.dcm").write_bytes(good)
        # A second (0018,0015) right after the first, and one after the
        # pixel data: each a fault at its own offset.
        pelvis = encode_element(TAG_BODY_PART, "CS", "PELVIS")
        end = parse_dicom(good).body_part_span[1]
        (tree / "dup.dcm").write_bytes(good[:end] + pelvis + good[end:])
        (tree / "late.dcm").write_bytes(good + pelvis)
        (tree / "labels.json").write_text('[\n  {"region": "Head"}\n]\n')
        results = tmp_path / "results.ndjson"
        results.write_text("")
        log = tmp_path / "changes.csv"
        assert main(["ingest", "--dicom", str(tree),
                     "--out", str(tmp_path / "ing")]) == 0
        assert main(["tag-write", "--dicom", str(tree), "--results",
                     str(results), "--out", str(log)]) == 0
        with open(tmp_path / "ing" / "skip_report.csv") as fh:
            skips = {r["path"]: r["error"] for r in csv.DictReader(fh)}
        with open(log) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["path"]: r["detail"] for r in rows
                if r["action"] == "error"} == skips
        assert skips[str(tree / "cut.dcm")].startswith(
            "Malformed: element length past end of file")
        assert skips[str(tree / "labels.json")].startswith(
            "NotDicom: not a DICOM file")
        assert skips[str(tree / "dup.dcm")] == (
            f"Malformed: duplicate tag (at byte offset {end})")
        assert skips[str(tree / "late.dcm")] == (
            f"Malformed: tag out of order (at byte offset {len(good)})")
        assert [(r["action"], r["detail"]) for r in rows
                if r["path"] == str(tree / "good.dcm")] == [
            ("skipped", "NotInResults: image not in results")]

    def test_undecodable_unread_value_is_not_a_tag_write_error(self,
                                                               tmp_path):
        # A SliceThickness that is no number: ingest skips the file, so it
        # is in no results, and tag-write, which decodes only the fields
        # it uses, skips it as such. classify --dicom decodes only its own
        # fields too and scores it; --in scores what ingest admitted.
        ph = tmp_path / "ph"
        generate_phantom(PhantomSpec(
            regions=[RegionSpec(BodyRegion.ABDOMEN, 20.0),
                     RegionSpec(BodyRegion.CHEST, 20.0)],
            slice_spacing_mm=5.0, seed=3, n_studies=2, window=1), ph)
        bad = ph / "study_0001" / "img_0002.dcm"
        data = bad.read_bytes()
        thickness = encode_element((0x0018, 0x0050), "DS", 5.0)
        assert data.count(thickness) == 1
        bad.write_bytes(data.replace(thickness, struct.pack(
            "<HH", 0x0018, 0x0050) + b"DS" + struct.pack("<H", 4) + b"abc "))
        bad_sop = parse_dicom(data).image.sop_uid
        ing, flt = tmp_path / "ing", tmp_path / "flt"
        truth, results = tmp_path / "truth.csv", tmp_path / "results.ndjson"
        filtered = str(flt / "filtered.ndjson")
        for argv in (
                ["ingest", "--dicom", ph, "--out", ing],
                ["filter", "--in", ing / "metadata.ndjson", "--out", flt],
                ["labels-project", "--in", filtered,
                 "--boxes", ph / "labels.json", "--out", truth],
                ["classify", "--dicom", ph, "--truth", truth,
                 "--out", tmp_path / "walk.csv"],
                ["classify", "--in", filtered, "--truth", truth,
                 "--out", tmp_path / "scores.csv"],
                ["postprocess", "--in", filtered,
                 "--scores", tmp_path / "scores.csv", "--out", results],
                ["tag-write", "--dicom", ph, "--results", results,
                 "--out", tmp_path / "changes.csv", "--dry-run"]):
            assert main([str(a) for a in argv]) == 0, argv
        with open(ing / "skip_report.csv") as fh:
            skips = {r["path"]: r["error"] for r in csv.DictReader(fh)}
        assert skips[str(bad)].startswith("Malformed: bad DS value 'abc'")
        with open(tmp_path / "changes.csv") as fh:
            changes = {r["path"]: r for r in csv.DictReader(fh)}
        assert (changes[str(bad)]["action"], changes[str(bad)]["detail"]) == (
            "skipped", "NotInResults: image not in results")
        assert [p for p, r in changes.items() if r["action"] == "error"] == [
            str(ph / "labels.json"), str(ph / "manifest.json")]
        with open(tmp_path / "walk.csv") as fh:
            walked = {r["sop_uid"] for r in csv.DictReader(fh)}
        with open(tmp_path / "scores.csv") as fh:
            admitted = {r["sop_uid"] for r in csv.DictReader(fh)}
        assert walked - admitted == {bad_sop}

    def test_degenerate_orientation_ends_no_stage(self, tmp_path):
        # Row cosines of length 2: the series cannot be ordered along its
        # normal, so ingest orders it by InstanceNumber, classify scores
        # it, and filter excludes it.
        tree = tmp_path / "tree"
        tree.mkdir()
        for i in (1, 2):
            (tree / f"{i}.dcm").write_bytes(make_dicom(
                pixels=np.zeros(64, dtype="<u2"), InstanceNumber=3 - i,
                SOPInstanceUID=f"1.2.3.4.{i}",
                ImagePositionPatient=(0.0, 0.0, float(i)),
                ImageOrientationPatient=(2.0, 0.0, 0.0, 0.0, 1.0, 0.0)))
        ing, flt = tmp_path / "ing", tmp_path / "flt"
        assert main(["ingest", "--dicom", str(tree), "--out", str(ing)]) == 0
        with open(ing / "metadata.ndjson") as fh:
            assert [json.loads(line)["sop_uid"] for line in fh] == [
                "1.2.3.4.2", "1.2.3.4.1"]
        assert main(["filter", "--in", str(ing / "metadata.ndjson"),
                     "--out", str(flt)]) == 0
        with open(flt / "filter_report.csv") as fh:
            assert [(r["level"], r["reason"], r["detail"])
                    for r in csv.DictReader(fh)] == [
                ("series", "NotAxial",
                 "degenerate: row/column cosines are not unit vectors")]
        truth = tmp_path / "truth.csv"
        truth.write_text("sop_uid,region\n1.2.3.4.1,Head\n")
        assert main(["classify", "--dicom", str(tree), "--truth", str(truth),
                     "--out", str(tmp_path / "scores.csv")]) == 0


def _file_meta(syntax):
    meta = encode_element((0x0002, 0x0010), "UI", syntax)
    return (b"\x00" * 128 + b"DICM"
            + encode_element((0x0002, 0x0000), "UL", len(meta)) + meta)


def _recode_rle(path):
    """Re-encode a phantom file's pixels as one RLE fragment; its pixel
    data element is its last."""
    data = path.read_bytes()
    image = parse_dicom(data).image
    offset = image.pixel_data_offset
    old = _file_meta(EXPLICIT_VR_LE)
    assert data.startswith(old) and offset + image.pixel_data_length == len(
        data)
    frame = rle_encode_frame(decode_pixels(image, data[offset:]),
                             image.bits_allocated)
    path.write_bytes(_file_meta(RLE_LOSSLESS) + data[len(old):offset - 12]
                     + build_dicom({}, RLE_LOSSLESS, pixel_payload=frame,
                                   encapsulated=True, preamble=False))


def _retag_jpeg_lossless(path):
    """Declare a phantom file JPEG lossless: the filter admits it, but its
    pixels cannot be decoded."""
    data = path.read_bytes()
    old = _file_meta(EXPLICIT_VR_LE)
    assert data.startswith(old)
    path.write_bytes(_file_meta(JPEG_LOSSLESS_SV1) + data[len(old):])


class TestClassifyDecodeFailures:
    @pytest.fixture
    def small_phantom(self, tmp_path):
        ph = tmp_path / "ph"
        spec = PhantomSpec(
            regions=[RegionSpec(BodyRegion.ABDOMEN, 20.0),
                     RegionSpec(BodyRegion.CHEST, 20.0)],
            slice_spacing_mm=5.0, seed=3, n_studies=2, window=1)
        generate_phantom(spec, ph)
        assert main(["ingest", "--dicom", str(ph),
                     "--out", str(tmp_path / "ing")]) == 0
        truth = tmp_path / "truth.csv"
        assert main(["labels-project",
                     "--in", str(tmp_path / "ing" / "metadata.ndjson"),
                     "--boxes", str(ph / "labels.json"),
                     "--out", str(truth)]) == 0
        files = sorted(p for p in ph.rglob("*") if p.is_file()
                       and p.name not in ("labels.json", "manifest.json"))
        return ph, truth, files

    @staticmethod
    def _classify(ph, truth, out):
        return main(["classify", "--dicom", str(ph), "--truth", str(truth),
                     "--out", str(out)])

    def test_undecodable_image_is_skipped(self, small_phantom, tmp_path,
                                          capsys):
        ph, truth, files = small_phantom
        bad = files[len(files) // 2]
        _retag_jpeg_lossless(bad)
        capsys.readouterr()
        assert self._classify(ph, truth, tmp_path / "scores.csv") == 0
        with open(tmp_path / "scores.skip_report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path", "error"]
        assert len(rows) == 2 and rows[1][0] == str(bad)
        assert rows[1][1].startswith("UnsupportedCodec: ")
        with open(tmp_path / "scores.csv") as fh:
            assert sum(1 for _ in fh) - 1 == len(files) - 1
        out = capsys.readouterr().out
        assert out.count("skipped 1 images (1 UnsupportedCodec) -> ") == 1

    def test_file_removed_after_the_walk_is_skipped(self, small_phantom,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        ph, truth, files = small_phantom
        gone = files[len(files) // 2]
        walk = cli.ingest_tree

        def walk_then_remove(path, **kwargs):
            walked = walk(path, **kwargs)
            gone.unlink()
            return walked

        monkeypatch.setattr(cli, "ingest_tree", walk_then_remove)
        capsys.readouterr()
        assert self._classify(ph, truth, tmp_path / "scores.csv") == 0
        with open(tmp_path / "scores.skip_report.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and rows[1][0] == str(gone)
        assert rows[1][1].startswith("FileNotFoundError: ")
        with open(tmp_path / "scores.csv") as fh:
            assert sum(1 for _ in fh) - 1 == len(files) - 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "skipped 1 images (1 FileNotFoundError) -> "
            f"{tmp_path / 'scores.skip_report.csv'}")

    def test_stale_locator_is_skipped(self, small_phantom, tmp_path):
        # Files cut short after ingest: the sidecar's locator runs past
        # their end. A native payload reads short; an RLE fragment stream
        # ends inside a fragment.
        ph, truth, files = small_phantom
        native, rle = files[1], files[-2]
        _recode_rle(rle)
        ing = tmp_path / "ing_rle"
        assert main(["ingest", "--dicom", str(ph), "--out", str(ing)]) == 0
        for path in (native, rle):
            path.write_bytes(path.read_bytes()[:-40])
        assert main(["classify", "--in", str(ing / "metadata.ndjson"),
                     "--truth", str(truth),
                     "--out", str(tmp_path / "scores.csv")]) == 0
        with open(tmp_path / "scores.skip_report.csv") as fh:
            skips = {r["path"]: r["error"] for r in csv.DictReader(fh)}
        assert skips.keys() == {str(native), str(rle)}
        assert skips[str(native)].startswith("LengthMismatch: pixel payload")
        assert skips[str(rle)].startswith(
            "Malformed: fragment length past end of data")
        with open(tmp_path / "scores.csv") as fh:
            assert sum(1 for _ in fh) - 1 == len(files) - 2

    def test_nothing_scored_is_data_error(self, small_phantom, tmp_path):
        ph, truth, files = small_phantom
        for path in files:
            _retag_jpeg_lossless(path)
        assert self._classify(ph, truth, tmp_path / "scores.csv") == 2
        with open(tmp_path / "scores.skip_report.csv") as fh:
            assert len(list(csv.reader(fh))) == len(files) + 1
        assert not (tmp_path / "scores.csv").exists()


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as err:
            main(["filter"])  # missing required flags
        assert err.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["filter", "--in", "m.ndjson", "--out", "filt"],
        ["postprocess", "--in", "m.ndjson", "--scores", "s.csv",
         "--out", "r.ndjson"]])
    def test_seed_is_not_a_flag_of(self, argv, capsys):
        # Only evaluate reads a seed; these stages reject the flag.
        with pytest.raises(SystemExit) as err:
            main(argv + ["--seed", "1"])
        assert err.value.code == 1
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --seed 1\n")

    def test_level_is_not_a_flag(self, capsys):
        # Every CI is the 95% interval its table header prints.
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--in", "m.ndjson", "--results", "r.ndjson",
                  "--truth", "t.csv", "--out", "eval", "--level", "0.9"])
        assert err.value.code == 1
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --level 0.9\n")

    def test_ci_level_is_not_a_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("ci_level: 0.9\n")
        nope = str(tmp_path / "nope")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--in", nope,
                     "--results", nope, "--truth", nope, "--out", nope]) == 2
        assert capsys.readouterr().err == (
            "data error: ConfigError: unknown config keys: ['ci_level']\n")

    def test_data_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("{not json}\n")
        rc = main(["filter", "--in", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2

    @staticmethod
    def _run_on_results(stage, pipeline_dirs, tmp_path, bad_line):
        """Run `stage` on the pipeline's results with `bad_line` inserted
        as line 3."""
        results = tmp_path / "results.ndjson"
        lines = (pipeline_dirs / "results.ndjson").read_text().splitlines()
        lines.insert(2, bad_line)
        results.write_text("\n".join(lines) + "\n")
        if stage == "tag-write":
            argv = ["--dicom", str(pipeline_dirs / "ph"), "--dry-run",
                    "--out", str(tmp_path / "tags.csv")]
        else:
            argv = ["--in", str(pipeline_dirs / "filt" / "filtered.ndjson"),
                    "--truth", str(pipeline_dirs / "truth.csv"),
                    "--out", str(tmp_path / "eval")]
        return main([stage, "--results", str(results)] + argv)

    @pytest.mark.parametrize("stage", ["tag-write", "evaluate"])
    def test_bad_results_line_is_data_error(self, pipeline_dirs, tmp_path,
                                            capsys, stage):
        capsys.readouterr()
        assert self._run_on_results(stage, pipeline_dirs, tmp_path,
                                    '{"series_uid": ') == 2
        assert capsys.readouterr().err.startswith(
            "data error: SchemaError: line 3: invalid JSON: ")

    @staticmethod
    def _set_label(row, label):
        row["images"][0]["label"] = label

    @pytest.mark.parametrize("stage,edit,message", [
        ("tag-write", None, "series_uid must be a string, got None"),
        ("evaluate", None, "series_uid must be a string, got None"),
        ("tag-write", lambda row: row.update(series_regions=["Nope"]),
         "series_regions must be a list of body regions, got ['Nope']"),
        ("tag-write", lambda row: row.update(series_regions=[]),
         "an Accepted row must name at least one series region"),
        ("tag-write", lambda row: TestExitCodes._set_label(row, "Nope"),
         "image label must be null or a body region, got 'Nope'"),
        ("evaluate", lambda row: TestExitCodes._set_label(row, "Nope"),
         "image label must be null or a body region, got 'Nope'"),
        ("evaluate",
         lambda row: TestExitCodes._set_label(row, "AbdomenChest"),
         "image label must be null or a body region, got 'AbdomenChest'"),
        ("evaluate", lambda row: row["images"].append("1.2.3"),
         "images entries must be objects with a string sop_uid, "
         "got '1.2.3'"),
    ], ids=["tag_write_empty_row", "evaluate_empty_row",
            "tag_write_unknown_region", "tag_write_accepted_no_region",
            "tag_write_unknown_label", "evaluate_unknown_label",
            "evaluate_internal_label", "evaluate_bare_image_entry"])
    def test_bad_results_row_is_data_error(self, pipeline_dirs, tmp_path,
                                           capsys, stage, edit, message):
        # A JSON object that is not a results row: {} (was KeyError), an
        # accepted row naming an unknown region (was ValueError) or no
        # region (was ValueError from max()), or whose images hold an
        # unknown label or the internal AbdomenChest class, which postprocess
        # merges away (both were KeyError), or a bare string.
        row = {}
        if edit is not None:
            with open(pipeline_dirs / "results.ndjson") as fh:
                row = next(r for r in map(json.loads, fh)
                           if r["status"] == "Accepted")
            edit(row)
        capsys.readouterr()
        assert self._run_on_results(stage, pipeline_dirs, tmp_path,
                                    json.dumps(row)) == 2
        assert capsys.readouterr().err == (
            f"data error: SchemaError: line 3: {message}\n")

    BOX = {"frame_of_reference_uid": "1.2.3.3", "region": "Chest",
           "min_corner": [0, 0, 0], "max_corner": [10, 10, 10]}

    @pytest.mark.parametrize("edit,message", [
        (lambda box: box.pop("frame_of_reference_uid"),
         "box 1 has no 'frame_of_reference_uid' key"),
        (lambda box: box.update(region="Nope"),
         "box 1: 'Nope' is not a valid BodyRegion"),
        (lambda box: box.update(min_corner=[0, 0, 20]),
         "box 1: min_corner must be <= max_corner componentwise"),
        (None, "line 1: invalid JSON: Expecting value"),
    ], ids=["no_frame", "unknown_region", "min_past_max", "not_json"])
    def test_bad_boxes_are_data_error(self, pipeline_dirs, tmp_path, capsys,
                                      edit, message):
        # Each ended in a traceback: KeyError, ValueError (twice) and
        # JSONDecodeError.
        boxes = tmp_path / "boxes.json"
        if edit is None:
            boxes.write_text("labels\n")
        else:
            bad = dict(self.BOX)
            edit(bad)
            boxes.write_text(json.dumps([self.BOX, bad]))
        capsys.readouterr()
        assert main(["labels-project",
                     "--in", str(pipeline_dirs / "filt" / "filtered.ndjson"),
                     "--boxes", str(boxes),
                     "--out", str(tmp_path / "truth.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: SchemaError: {message}")

    @pytest.mark.parametrize("edit,message", [
        (lambda text: text.replace('"n_images"', '"images"'),
         "summary n_images must be a number, got None\n"),
        (lambda text: "n_images: 96\n",
         "line 1: invalid JSON: Expecting value\n"),
        (lambda text: json.dumps({**json.loads(text), "tag_agreement": 5}),
         "summary tag_agreement must be an object, got 5\n"),
        (lambda text: json.dumps({**json.loads(text), "tag_agreement": {
            "body_part": 0.5, "procedure": "high"}}),
         "summary tag_agreement procedure must be a number, got 'high'\n"),
        (lambda text: json.dumps({**json.loads(text), "tag_agreement": {
            "body_part": True}}),
         "summary tag_agreement body_part must be a number, got True\n"),
        (lambda text: json.dumps({**json.loads(text), "n_studies": True}),
         "summary n_studies must be a number, got True\n"),
        (lambda text: text.replace('"overall_sensitivity": 1.0',
                                   '"overall_sensitivity": NaN'),
         "summary overall_sensitivity must be a number, got nan\n"),
        (lambda text: text.replace('"overall_specificity": 1.0',
                                   '"overall_specificity": -Infinity'),
         "summary overall_specificity must be a number, got -inf\n"),
        (lambda text: json.dumps({**json.loads(text), "tag_agreement": {
            "body_part": 0.5, "procedure": math.nan}}),
         "summary tag_agreement procedure must be a number, got nan\n"),
        (lambda text: text.replace('"overall_specificity": 1.0',
                                   '"overall_specificity": NaN'),
         "summary overall_specificity must be a number, got nan\n"),
        (lambda text: text.replace('"overall_sensitivity": 1.0',
                                   '"overall_sensitivity": null'),
         "summary overall_sensitivity must be a number, got None\n"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "overall_specificity"}),
         "summary overall_specificity must be a number, got None\n"),
    ], ids=["no_n_images", "not_json", "agreement_not_object",
            "agreement_not_number", "agreement_bool", "n_studies_bool",
            "nan", "infinity", "agreement_nan", "specificity_nan",
            "sensitivity_null", "no_specificity"])
    def test_bad_summary_is_data_error(self, pipeline_dirs, tmp_path, capsys,
                                       edit, message):
        # These ended in KeyError: 'n_images', JSONDecodeError,
        # AttributeError and a format ValueError; the booleans printed as
        # "100.0%" and "studies: True", NaN and Infinity as "nan%", "inf%".
        summary = tmp_path / "summary.json"
        summary.write_text(edit(
            (pipeline_dirs / "eval" / "summary.json").read_text()))
        capsys.readouterr()
        assert main(["report", "--summary", str(summary)]) == 2
        assert capsys.readouterr().err == (
            f"data error: SchemaError: {message}")

    @pytest.mark.parametrize("text,message", [
        ("CHEST: Chest", "synonym map is not valid JSON: Expecting value"),
        ('["Chest"]', "synonym map must be a JSON object"),
        ('{"CHEST": ["Chest"], "TORSO": ["Chest", "Nope"]}',
         "synonym map key 'TORSO' must map to a list of body regions, "
         "got ['Chest', 'Nope']"),
        ('{"CHEST": "Chest"}',
         "synonym map key 'CHEST' must map to a list of body regions, "
         "got 'Chest'"),
    ], ids=["not_json", "not_object", "unknown_region", "not_list"])
    def test_bad_synonym_map_is_data_error(self, pipeline_dirs, tmp_path,
                                           capsys, text, message):
        # These ended in JSONDecodeError, AttributeError, and ValueError:
        # 'Nope' is not a valid BodyRegion (the last two).
        synonyms = tmp_path / "synonyms.json"
        synonyms.write_text(text)
        config = tmp_path / "config.yaml"
        config.write_text(f"synonym_map_path: {json.dumps(str(synonyms))}\n")
        root = pipeline_dirs
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config),
                     "--in", str(root / "filt" / "filtered.ndjson"),
                     "--results", str(root / "results.ndjson"),
                     "--truth", str(root / "truth.csv"),
                     "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: SchemaError: {message}")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("stage,value,message", [
        ("postprocess", 'uncertainty_threshold: "0.3"',
         "uncertainty_threshold must be of type float, got '0.3'"),
        ("evaluate", "seed: x", "seed must be of type int, got 'x'"),
        ("evaluate", "bootstrap_resamples: 2.5",
         "bootstrap_resamples must be of type int, got 2.5"),
        ("filter", "strict_geometry: maybe",
         "strict_geometry must be of type bool, got 'maybe'"),
    ], ids=["threshold_string", "seed_string", "resamples_float",
            "strict_geometry_string"])
    def test_mistyped_config_value_is_data_error(self, tmp_path, capsys,
                                                 stage, value, message):
        # The first ended in a TypeError; the others loaded silently.
        config = tmp_path / "config.yaml"
        config.write_text(value + "\n")
        nope = str(tmp_path / "nope")
        argv = {"filter": ["--in", nope, "--out", nope],
                "postprocess": ["--in", nope, "--scores", nope,
                                "--out", nope],
                "evaluate": ["--in", nope, "--results", nope,
                             "--truth", nope, "--out", nope]}[stage]
        capsys.readouterr()
        assert main([stage, "--config", str(config)] + argv) == 2
        assert capsys.readouterr().err == (
            f"data error: ConfigError: {message}\n")

    def test_non_utf8_sidecar_line_is_data_error(self, pipeline_dirs,
                                                 tmp_path, capsys):
        # A byte that is not UTF-8 in line 2 (was UnicodeDecodeError).
        lines = (pipeline_dirs / "ing" / "metadata.ndjson").read_bytes(
        ).splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"CT"', b'"C\xff"', 1)
        bad = tmp_path / "metadata.ndjson"
        bad.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(["filter", "--in", str(bad),
                     "--out", str(tmp_path / "filt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "data error: SchemaError: line 2: invalid UTF-8 at byte ")
        column = int(err.split("at byte ")[1].split(":")[0])
        assert lines[1][column - 1:column] == b"\xff"

    @pytest.mark.parametrize("source,head", [
        ("truth.csv", lambda root, tmp: [
            "evaluate", "--in", root / "filt" / "filtered.ndjson",
            "--results", root / "results.ndjson", "--truth"]),
        ("scores.csv", lambda root, tmp: [
            "postprocess", "--in", root / "filt" / "filtered.ndjson",
            "--scores"]),
        ("ph/labels.json", lambda root, tmp: [
            "labels-project", "--in", root / "filt" / "filtered.ndjson",
            "--boxes"]),
        ("eval/summary.json", lambda root, tmp: ["report", "--summary"]),
        (b"1.2.3\n", lambda root, tmp: [
            "classify", "--dicom", tmp, "--truth", root / "truth.csv",
            "--train-uids"]),
        ("truth.csv", lambda root, tmp: [
            "classify", "--dicom", root / "ph", "--truth"]),
        (b"seed: 1\nmin_run: 3\nstep_mm: 10.0\n", lambda root, tmp: [
            "filter", "--in", root / "filt" / "filtered.ndjson",
            "--config"]),
        (b"uncertainty_metric: margin\nuncertainty_threshold: 0.2\n",
         lambda root, tmp: [
             "postprocess", "--in", root / "filt" / "filtered.ndjson",
             "--scores", root / "scores.csv", "--config"]),
        (b"seed: 1\nbootstrap_resamples: 20\nci_level: 0.95\n",
         lambda root, tmp: [
             "evaluate", "--in", root / "filt" / "filtered.ndjson",
             "--results", root / "results.ndjson",
             "--truth", root / "truth.csv", "--config"]),
    ], ids=["evaluate_truth", "postprocess_scores", "labels_project_boxes",
            "report_summary", "classify_train_uids", "classify_truth",
            "filter_config", "postprocess_config", "evaluate_config"])
    def test_non_utf8_input_is_data_error(self, pipeline_dirs, tmp_path,
                                          capsys, source, head):
        # Each ended in a UnicodeDecodeError traceback, and then in a
        # message that named neither the file nor the line.
        data = (source if isinstance(source, bytes)
                else (pipeline_dirs / source).read_bytes())
        half = len(data) // 2
        line = data[:half].count(b"\n") + 1
        bad = tmp_path / "bad"
        bad.write_bytes(data[:half] + b"\xff" + data[half:])
        out = tmp_path / "out"
        argv = [str(a) for a in head(pipeline_dirs, tmp_path)]
        capsys.readouterr()
        assert main(argv + [str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: SchemaError: {bad}: line {line}: "
            "not UTF-8 text: "
            "invalid start byte\n")
        assert not out.exists()

    def test_non_utf8_synonym_map_is_data_error(self, pipeline_dirs, tmp_path,
                                                capsys):
        synonyms = tmp_path / "synonyms.json"
        synonyms.write_bytes(b'{"CHEST": ["Chest"],\n "T\xffRSO": ["Chest"]}\n')
        config = tmp_path / "config.yaml"
        config.write_text(f"synonym_map_path: {json.dumps(str(synonyms))}\n")
        root = pipeline_dirs
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config),
                     "--in", str(root / "filt" / "filtered.ndjson"),
                     "--results", str(root / "results.ndjson"),
                     "--truth", str(root / "truth.csv"),
                     "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == (
            f"data error: SchemaError: {synonyms}: line 2: "
            "not UTF-8 text: "
            "invalid start byte\n")

    @pytest.mark.parametrize("stage", ["filter", "postprocess", "evaluate"])
    @pytest.mark.parametrize("text,line,problem", [
        ("a: [", 1, "expected the node content, but found '<stream end>'"),
        ("a:\n\tb: 1", 2,
         "found character '\\t' that cannot start any token"),
        ("a: *x", 1, "found undefined alias 'x'"),
    ], ids=["parser", "scanner", "composer"])
    def test_yaml_syntax_error_is_data_error(self, tmp_path, capsys, stage,
                                             text, line, problem):
        # Each ended in a yaml ParserError, ScannerError or ComposerError
        # traceback.
        config = tmp_path / "config.yaml"
        config.write_text(text)
        nope = str(tmp_path / "nope")
        argv = {"filter": ["--in", nope, "--out", nope],
                "postprocess": ["--in", nope, "--scores", nope,
                                "--out", nope],
                "evaluate": ["--in", nope, "--results", nope,
                             "--truth", nope, "--out", nope]}[stage]
        capsys.readouterr()
        assert main([stage, "--config", str(config)] + argv) == 2
        assert capsys.readouterr().err == (
            f"data error: ConfigError: {config}: line {line}: "
            f"invalid YAML: {problem}\n")

    def test_abdomen_chest_without_abdomen_is_data_error(
            self, pipeline_dirs, tmp_path, capsys):
        # Ended in ValueError: tuple.index(x): x not in tuple.
        scores = tmp_path / "scores.csv"
        scores.write_text("sop_uid,AbdomenChest,Head\n"
                          "1.2.3,0.75,0.25\n")
        capsys.readouterr()
        assert main(["postprocess",
                     "--in", str(pipeline_dirs / "filt" / "filtered.ndjson"),
                     "--scores", str(scores),
                     "--out", str(tmp_path / "results.ndjson")]) == 2
        assert capsys.readouterr().err == (
            "data error: SchemaError: line 1: header lists AbdomenChest "
            "but not Abdomen\n")

    @staticmethod
    def _run_on_truth(stage, pipeline_dirs, tmp_path, edit):
        """Run `stage` on the pipeline's truth.csv with `edit` applied to
        its list of lines."""
        lines = (pipeline_dirs / "truth.csv").read_text().splitlines()
        edit(lines)
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join(lines) + "\n")
        root = pipeline_dirs
        if stage == "classify":
            argv = ["--dicom", str(root / "ph"),
                    "--out", str(tmp_path / "scores.csv")]
        else:
            argv = ["--in", str(root / "filt" / "filtered.ndjson"),
                    "--results", str(root / "results.ndjson"),
                    "--out", str(tmp_path / "eval")]
        return main([stage, "--truth", str(truth)] + argv)

    @staticmethod
    def _set_region(lines, region):
        uid, series, study, _ = lines[2].split(",")
        lines[2] = ",".join([uid, series, study, region])

    @staticmethod
    def _rename_column(lines, column):
        lines[0] = lines[0].replace(column, "x")

    @pytest.mark.parametrize("stage", ["classify", "evaluate"])
    @pytest.mark.parametrize("edit,message", [
        (lambda lines: TestExitCodes._set_region(lines, "Nope"),
         "line 3: unknown region 'Nope'"),
        (lambda lines: TestExitCodes._rename_column(lines, "sop_uid"),
         "line 1: truth file has no sop_uid column"),
        (lambda lines: TestExitCodes._rename_column(lines, "region"),
         "line 1: truth file has no region column"),
    ], ids=["unknown_region", "no_sop_uid_column", "no_region_column"])
    def test_bad_truth_is_data_error(self, pipeline_dirs, tmp_path, capsys,
                                     stage, edit, message):
        # The first two ended in a traceback (ValueError from
        # BodyRegion('Nope'), KeyError: 'sop_uid'); without a region
        # column, every image was read as unlabelled.
        capsys.readouterr()
        assert self._run_on_truth(stage, pipeline_dirs, tmp_path, edit) == 2
        assert capsys.readouterr().err == (
            f"data error: SchemaError: {message}\n")

    def test_internal_truth_region_is_evaluate_data_error(
            self, pipeline_dirs, tmp_path, capsys):
        # AbdomenChest is a training-time class, which postprocess merges
        # away; evaluate ended in KeyError: 'AbdomenChest'.
        capsys.readouterr()
        assert self._run_on_truth(
            "evaluate", pipeline_dirs, tmp_path,
            lambda lines: self._set_region(lines, "AbdomenChest")) == 2
        assert capsys.readouterr().err == (
            "data error: SchemaError: line 3: 'AbdomenChest' is not a "
            "final region\n")

    def test_internal_truth_region_is_a_classify_label(self, pipeline_dirs,
                                                       tmp_path):
        assert self._run_on_truth(
            "classify", pipeline_dirs, tmp_path,
            lambda lines: self._set_region(lines, "AbdomenChest")) == 0

    def _assert_missing(self, capsys, argv, path):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: no such file: {path}\n"

    def test_missing_truth_is_usage_error(self, tmp_path, capsys):
        nope = str(tmp_path / "nope.csv")
        self._assert_missing(capsys, [
            "classify", "--dicom", str(tmp_path), "--truth", nope,
            "--out", str(tmp_path / "scores.csv")], nope)

    def test_missing_train_uids_is_usage_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("sop_uid,series_uid,study_uid,region\n")
        nope = str(tmp_path / "nope.txt")
        self._assert_missing(capsys, [
            "classify", "--dicom", str(tmp_path), "--truth", str(truth),
            "--train-uids", nope, "--out", str(tmp_path / "scores.csv")], nope)

    def test_missing_evaluate_input_is_usage_error(self, tmp_path, capsys):
        nope = str(tmp_path / "nope.ndjson")
        self._assert_missing(capsys, [
            "evaluate", "--in", nope, "--results", str(tmp_path / "r.ndjson"),
            "--truth", str(tmp_path / "t.csv"),
            "--out", str(tmp_path / "eval")], nope)

    def test_missing_output_directory_is_named(self, pipeline_dirs, tmp_path,
                                               capsys):
        missing = str(tmp_path / "no_dir")
        capsys.readouterr()
        assert main(["labels-project",
                     "--in", str(pipeline_dirs / "filt" / "filtered.ndjson"),
                     "--boxes", str(pipeline_dirs / "ph" / "labels.json"),
                     "--out", str(tmp_path / "no_dir" / "truth.csv")]) == 1
        assert capsys.readouterr().err == f"error: no such directory: {missing}\n"

    def test_sample_size(self, capsys):
        assert main(["sample-size"]) == 0
        assert capsys.readouterr().out.strip() == "43"

    def test_sample_size_invalid(self, capsys):
        assert main(["sample-size", "--accuracy", "1.5"]) == 2


class TestRepeatedCalls:
    """`main` may be called many times in one process; the calls share one
    parser and nothing else."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_factors_do_not_carry_over(self, pipeline_dirs, tmp_path):
        root = pipeline_dirs
        evaluate = ["evaluate", "--in", str(root / "filt" / "filtered.ndjson"),
                    "--results", str(root / "results.ndjson"),
                    "--truth", str(root / "truth.csv"), "--bootstrap", "50"]
        assert main(evaluate + ["--out", str(tmp_path / "one"),
                                "--factors", "institution"]) == 0
        out = tmp_path / "default"
        assert main(evaluate + ["--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            EVAL_SHA256["eval"])
        for name, digest in EVAL_SHA256["eval"].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_usage_error_then_valid_call(self, pipeline_dirs, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["report", "--summary"])
        assert err.value.code == 1
        out = tmp_path / "report.md"
        assert main(["report", "--summary",
                     str(pipeline_dirs / "eval" / "summary.json"),
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("# Evaluation summary\n")


class TestCollectEvals:
    # Truth by slice position; the classifier errs only at z = 0.
    TRUTH = {0.0: BodyRegion.CHEST, 5.0: BodyRegion.CHEST,
             10.0: BodyRegion.NECK, 15.0: BodyRegion.NECK,
             20.0: BodyRegion.HEAD, 25.0: BodyRegion.HEAD}

    def _counts(self, zs):
        series = make_series(zs=zs)
        truth, labels = {}, {}
        for image in series.images:
            z = image.image_position_patient[2]
            truth[image.sop_uid] = self.TRUTH[z]
            labels[image.sop_uid] = (BodyRegion.ABDOMEN if z == 0.0
                                     else self.TRUTH[z])
        evals = cli._collect_evals([make_study(series=[series])], truth,
                                   labels)
        [ev] = evals.values()
        [counts] = bootstrap_counts([[ev]], len(FINAL_REGIONS),
                                    resamples=40, seed=0)
        return ev.series[0], counts

    def test_descending_series_keeps_labels_with_positions(self):
        zs = sorted(self.TRUTH)
        asc, asc_counts = self._counts(zs)
        desc, desc_counts = self._counts(zs[::-1])
        assert list(desc.positions) == zs
        assert list(desc.truth) == list(asc.truth)
        assert list(desc.pred) == list(asc.pred)
        assert np.array_equal(desc_counts.cells, asc_counts.cells)
        assert np.array_equal(desc_counts.values, asc_counts.values)


def test_every_flag_is_read_by_its_handler():
    """No subcommand defines an option its handler ignores."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = {}
    for name, parser in sub.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        dests = {a.dest for a in parser._actions
                 if not isinstance(a, argparse._HelpAction)}
        missing = sorted(d for d in dests if f"args.{d}" not in source)
        if missing:
            unread[name] = missing
    assert unread == {}
