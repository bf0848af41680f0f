"""CLI surface: stage chaining on a small phantom cohort, exit codes."""

import argparse
import csv
import hashlib
import inspect
import json
from collections import Counter

import numpy as np
import pytest

from bodyregion import cli
from bodyregion.cli import build_parser, main
from bodyregion.dicomio import EXPLICIT_VR_LE, JPEG_LOSSLESS_SV1, encode_element
from bodyregion.ingest import tree_files
from bodyregion.phantom import (PhantomSpec, RegionSpec, generate_phantom)
from bodyregion.stats import bootstrap_counts
from bodyregion.taxonomy import FINAL_REGIONS, BodyRegion

from conftest import make_series, make_study

# sha256 of the pipeline_dirs phantom's scores.csv. Changes to how classify
# decodes, preprocesses and reduces images must keep it byte-identical.
SCORES_SHA256 = "c2d327cff53883845ef33c2fc22d9f3a87d03be93dc34de6f80d71b8c6eaaf2b"

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
    "by_contrast.csv": "22ce62f082252e74865ef6d64062ba09"
                       "22043cbd068878dfe3be6e90761079bd",
    "by_kernel.csv": "c869f18d721822901febcd4832778725"
                     "1597be7a750dc397b5c3da14833caf0b",
    "by_region.csv": "e92b25e8bd016b9eaf676f9991b55014"
                     "482c22ad1c289567c055c03edcef3a7e",
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


class TestEvaluate:
    @pytest.mark.parametrize("run", sorted(EVAL_SHA256))
    def test_outputs_unchanged(self, pipeline_dirs, run):
        out = pipeline_dirs / run
        assert sorted(p.name for p in out.iterdir()) == sorted(
            EVAL_SHA256[run])
        for name, digest in EVAL_SHA256[run].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

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

    def test_draws_each_resample_once_per_set_size(self, pipeline_dirs,
                                                   tmp_path, monkeypatch):
        built, draws = Counter(), Counter()
        default_rng = np.random.default_rng

        class CountingGenerator:
            """Counts `integers` draws by (stream, n); the rest passes
            through."""

            def __init__(self, seed):
                self.stream, self._rng = tuple(seed), default_rng(seed)
                self.bit_generator = self._rng.bit_generator

            def integers(self, low, high, **kwargs):
                draws[self.stream, high] += 1
                return self._rng.integers(low, high, **kwargs)

            def random(self, **kwargs):
                return self._rng.random(**kwargs)

        def counting_rng(seed=None):
            built[tuple(seed)] += 1
            return CountingGenerator(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        root = pipeline_dirs
        argv = ["evaluate", "--in", str(root / "filt" / "filtered.ndjson"),
                "--results", str(root / "results.ndjson"),
                "--truth", str(root / "truth.csv")] + EVALUATE_KERNEL_CONTRAST
        # Resampled sets: the 8 studies, the kernel's Soft tissue category
        # (all 8) and the contrast's Without contrast category (5 studies;
        # With contrast has 3, too few for a CI): two distinct sizes.
        sizes = (5, 8)
        for run in (1, 2):
            out = tmp_path / f"eval{run}"
            assert main(argv + ["--out", str(out)]) == 0
            # Each stream is built once per run, and each of its draws is
            # made once per set size: a second run in the same process
            # builds and draws them all again.
            assert built == Counter({(0, i): run for i in range(50)})
            assert draws == Counter({((0, i), n): run for i in range(50)
                                     for n in sizes})
            for name in EVAL_SHA256["eval_kernel_contrast"]:
                assert (out / name).read_bytes() == (
                    root / "eval_kernel_contrast" / name).read_bytes()
        with open(tmp_path / "eval1" / "by_contrast.csv") as fh:
            assert [int(r["n"]) for r in csv.DictReader(fh)] == [3, 5]
        with open(tmp_path / "eval1" / "by_kernel.csv") as fh:
            assert [int(r["n"]) for r in csv.DictReader(fh)] == [8]


class TestLabelsProject:
    def test_one_frame_of_reference_warning_per_run(self, pipeline_dirs,
                                                     tmp_path, caplog):
        truth = tmp_path / "truth.csv"
        with caplog.at_level("WARNING", logger="bodyregion.geometry"):
            assert main(["labels-project",
                         "--in", str(pipeline_dirs / "filt" / "filtered.ndjson"),
                         "--boxes", str(pipeline_dirs / "ph" / "labels.json"),
                         "--out", str(truth)]) == 0
        records = [r for r in caplog.records if r.name == "bodyregion.geometry"]
        # 8 single-series studies, one frame of reference and 2 boxes each:
        # every series sees the other 7 studies' 14 boxes.
        assert [r.getMessage() for r in records] == [
            "8 series: 112 box-series pair(s) in a different frame of "
            "reference"]
        assert truth.read_bytes() == (pipeline_dirs / "truth.csv").read_bytes()


def _file_meta(syntax):
    meta = encode_element((0x0002, 0x0010), "UI", syntax)
    return (b"\x00" * 128 + b"DICM"
            + encode_element((0x0002, 0x0000), "UL", len(meta)) + meta)


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
        assert out.count("skipped 1 undecodable images (1 UnsupportedCodec)") == 1

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
            "data error: line 3: invalid JSON: ")

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
        assert capsys.readouterr().err == f"data error: line 3: {message}\n"

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
        assert err.startswith("data error: line 2: invalid UTF-8 at byte ")
        column = int(err.split("at byte ")[1].split(":")[0])
        assert lines[1][column - 1:column] == b"\xff"

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
            labels[image.sop_uid] = ("Abdomen" if z == 0.0
                                     else self.TRUTH[z].value)
        class_names = [r.value for r in FINAL_REGIONS]
        evals = cli._collect_evals([make_study(series=[series])], truth,
                                   labels, class_names)
        [ev] = evals.values()
        [counts] = bootstrap_counts([[ev]], len(class_names),
                                    resamples=40, seed=0)
        return ev.series[0], counts.expand()

    def test_descending_series_keeps_labels_with_positions(self):
        zs = sorted(self.TRUTH)
        asc, asc_counts = self._counts(zs)
        desc, desc_counts = self._counts(zs[::-1])
        assert list(desc.positions) == zs
        assert list(desc.truth) == list(asc.truth)
        assert list(desc.pred) == list(asc.pred)
        assert np.array_equal(desc_counts, asc_counts)


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
