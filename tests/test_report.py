"""Report tables (golden layout with NA rows) and tag write-back."""

import csv
import errno
import json
import os
import struct

import numpy as np
import pytest

import bodyregion.report as report_mod
from bodyregion.cli import main
from bodyregion.dicomio import (TAG_BODY_PART, UNDEFINED_LENGTH,
                                encode_element, parse_dicom)
from bodyregion.errors import SchemaError
from bodyregion.report import (Summary, TagChange, emit_factor_report,
                               emit_region_report, read_summary,
                               write_body_part_tags, write_change_log,
                               write_summary)
from bodyregion.stats import EvalSeries, EvalStudy
from bodyregion.taxonomy import BodyRegion

from conftest import factor_table, make_dicom, make_study, region_table

CLASSES = ["Abdomen", "Chest", "Head"]
SOP = "1.2.3.4.1"  # make_dicom's SOPInstanceUID


def cohort_with_rare_class():
    """12 studies; Head appears in only 3 images total (below the NA cutoff)."""
    studies = []
    for i in range(12):
        truth = [0, 0, 1, 1, 1]
        pred = [0, 0, 1, 1, 1] if i % 4 else [0, 1, 1, 1, 0]
        if i < 3:
            truth = truth + [2]
            pred = pred + [2]
        positions = np.arange(len(truth)) * 10.0
        studies.append(EvalStudy(f"S{i:02d}",
                                 [EvalSeries(positions, truth, pred)]))
    return studies


class TestRegionRows:
    def test_overall_first_then_regions(self):
        rows = region_table(cohort_with_rare_class(), CLASSES, resamples=50)
        assert rows[0].name == "Overall"
        assert [r.name for r in rows[1:]] == CLASSES

    def test_small_class_has_na_metrics(self):
        rows = region_table(cohort_with_rare_class(), CLASSES, resamples=50)
        head = next(r for r in rows if r.name == "Head")
        assert head.n_images == 3
        assert head.sensitivity is None and head.specificity is None

    def test_absent_class_omitted(self):
        studies = [EvalStudy("S", [EvalSeries(np.arange(4) * 10.0,
                                              [0, 0, 1, 1], [0, 0, 1, 1])])]
        rows = region_table(studies, CLASSES, resamples=20)
        assert "Head" not in [r.name for r in rows]


class TestGoldenLayout:
    def test_region_csv_golden(self, tmp_path):
        rows = region_table(cohort_with_rare_class(), CLASSES,
                            resamples=200, seed=0)
        path = tmp_path / "by_region.csv"
        emit_region_report(rows, path)
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "region,n,sensitivity_95ci,specificity_95ci"
        assert lines[1].startswith("Overall,63,")
        # The under-populated class prints NA in both metric columns.
        assert lines[4] == "Head,3,NA,NA"
        # Metric cells follow the "value (lo - hi)" percent layout.
        assert "(" in lines[2] and "-" in lines[2]

    def test_emission_deterministic(self, tmp_path):
        rows = region_table(cohort_with_rare_class(), CLASSES, resamples=100)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_region_report(rows, p1)
        emit_region_report(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_factor_csv_na_row(self, tmp_path):
        studies, evals = [], {}
        for i in range(8):
            manufacturer = "Canon" if i == 0 else "GE"
            st = make_study(study_uid=f"S{i}", patient_id=f"P{i}",
                            manufacturer=manufacturer)
            evals[st.study_uid] = EvalStudy(st.study_uid, [EvalSeries(
                np.arange(4) * 10.0, [0, 1, 0, 1], [0, 1, 0, 1])])
            studies.append(st)
        report = factor_table(studies, evals, "manufacturer", ["a", "b"],
                              resamples=20)
        path = tmp_path / "by_manufacturer.csv"
        emit_factor_report(report, path)
        lines = path.read_text().strip().splitlines()
        canon = next(l for l in lines if l.startswith("manufacturer,Canon"))
        assert ",NA,NA," in canon  # n=1 < 5 -> NA metrics


class TestSummaryFile:
    @pytest.mark.parametrize("specificity", [0.875, None])
    def test_round_trip(self, tmp_path, specificity):
        summary = Summary(n_studies=8, n_images=96, overall_sensitivity=0.9375,
                          overall_specificity=specificity,
                          tag_agreement={"body_part": 0.5, "procedure": 1.0},
                          seed=7)
        path = tmp_path / "summary.json"
        write_summary(summary, path)
        assert read_summary(path) == summary

    def test_layout(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(Summary(2, 10, 1.0, None, {"procedure": 0.0,
                                                 "body_part": 1.0}, 0), path)
        assert path.read_text() == (
            '{\n  "n_images": 10,\n  "n_studies": 2,\n'
            '  "overall_sensitivity": 1.0,\n  "overall_specificity": null,\n'
            '  "seed": 0,\n  "tag_agreement": {\n    "body_part": 1.0,\n'
            '    "procedure": 0.0\n  }\n}\n')

    def test_optional_keys(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({
            "n_studies": 1, "n_images": 3, "overall_sensitivity": 1,
            "overall_specificity": 0.5, "extra": "ignored"}))
        assert read_summary(path) == Summary(1, 3, 1, 0.5, {}, None)

    @pytest.mark.parametrize("value", [[], "text", 3])
    def test_not_an_object(self, tmp_path, value):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(value))
        with pytest.raises(SchemaError, match="^summary n_studies must be a "
                                              "number, got None$"):
            read_summary(path)


class TestTagWriteBack:
    def _write_file(self, path, **overrides):
        data = make_dicom(pixels=np.zeros(64, dtype="<u2"), **overrides)
        path.write_bytes(data)
        return data

    def test_rewrite_replaces_value_only(self, tmp_path):
        path = tmp_path / "a.dcm"
        self._write_file(path, BodyPartExamined="CHEST")
        changes, _ = write_body_part_tags(
            [str(path)], {SOP: BodyRegion.ABDOMEN})
        assert changes[0].action == "rewritten"
        assert changes[0].old_value == "CHEST"
        parsed = parse_dicom(path.read_bytes())
        assert parsed.study_attrs["body_part_examined"] == "ABDOMEN"

    def test_insert_when_absent(self, tmp_path):
        path = tmp_path / "a.dcm"
        self._write_file(path, BodyPartExamined=None)
        write_body_part_tags([str(path)], {SOP: BodyRegion.HEAD})
        parsed = parse_dicom(path.read_bytes())
        assert parsed.study_attrs["body_part_examined"] == "HEAD"

    def test_undefined_length_body_part_keeps_later_bytes(self, tmp_path):
        # An undefined-length UN (0018,0015), before the pixel data: an
        # empty item and the sequence delimiter that closes it.
        plain = make_dicom(pixels=np.arange(64, dtype="<u2"),
                           BodyPartExamined=None)
        at, _ = parse_dicom(plain).body_part_span
        element = (struct.pack("<HH", *TAG_BODY_PART) + b"UN\x00\x00"
                   + struct.pack("<IHHIHHI", UNDEFINED_LENGTH,
                                 0xFFFE, 0xE000, 0, 0xFFFE, 0xE0DD, 0))
        path = tmp_path / "a.dcm"
        path.write_bytes(plain[:at] + element + plain[at:])
        changes, _ = write_body_part_tags([str(path)], {SOP: BodyRegion.HEAD})
        assert (changes[0].action, changes[0].old_value) == ("rewritten", "")
        # The element is replaced whole, and every byte after it is kept.
        assert path.read_bytes() == (
            plain[:at] + encode_element(TAG_BODY_PART, "CS", "HEAD")
            + plain[at:])

    def test_other_bytes_preserved(self, tmp_path):
        path = tmp_path / "a.dcm"
        original = self._write_file(path, BodyPartExamined="CHEST",
                                    StudyDescription="CT EXAM")
        write_body_part_tags([str(path)], {SOP: BodyRegion.PELVIS})
        rewritten = path.read_bytes()
        # Everything outside the (0018,0015) element is untouched.
        expected = original.replace(b"CHEST ", b"PELVIS")
        assert rewritten == expected

    def test_each_file_parsed_once(self, tmp_path, monkeypatch):
        import bodyregion.report as report_mod
        calls = []

        def counting_parse(data, **kwargs):
            calls.append(len(data))
            return parse_dicom(data, **kwargs)

        monkeypatch.setattr(report_mod, "parse_dicom", counting_parse)
        paths = [tmp_path / "a.dcm", tmp_path / "b.dcm"]
        self._write_file(paths[0], BodyPartExamined="CHEST")
        self._write_file(paths[1], BodyPartExamined=None)
        changes, _ = write_body_part_tags([str(p) for p in paths],
                                          {SOP: BodyRegion.HEAD})
        assert [c.action for c in changes] == ["rewritten", "rewritten"]
        assert len(calls) == 2

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_each_file_walked_once(self, tmp_path, monkeypatch, dry_run):
        # Tag-write parses each file once and splices from the positions
        # that parse recorded: every walk of a file is inside its parse.
        import bodyregion.dicomio as dicomio_mod
        import bodyregion.report as report_mod
        parses, walks, open_parses = [], [], []
        walk = dicomio_mod._walk

        def counting_parse(data, **kwargs):
            parses.append(len(data))
            open_parses.append(data)
            try:
                return parse_dicom(data, **kwargs)
            finally:
                open_parses.pop()

        def counting_walk(*args, **kwargs):
            walks.append(bool(open_parses))
            return walk(*args, **kwargs)

        monkeypatch.setattr(report_mod, "parse_dicom", counting_parse)
        monkeypatch.setattr(dicomio_mod, "_walk", counting_walk)
        values = {"present": "CHEST", "absent": None, "empty": ""}
        originals = {name: self._write_file(tmp_path / f"{name}.dcm",
                                            BodyPartExamined=value)
                     for name, value in values.items()}
        paths = [str(tmp_path / f"{name}.dcm") for name in values]
        changes, _ = write_body_part_tags(paths, {SOP: BodyRegion.HEAD},
                                          dry_run=dry_run)
        assert changes == [
            TagChange(paths[0], "rewritten", "CHEST", "HEAD"),
            TagChange(paths[1], "rewritten", "", "HEAD"),
            TagChange(paths[2], "rewritten", "", "HEAD")]
        assert len(parses) == 3
        assert walks == [True] * 6  # the file meta group, then the dataset
        for name in values:
            data = (tmp_path / f"{name}.dcm").read_bytes()
            if dry_run:
                assert data == originals[name]
            else:
                parsed = parse_dicom(data)
                assert parsed.study_attrs["body_part_examined"] == "HEAD"

    def test_dry_run_leaves_file(self, tmp_path):
        path = tmp_path / "a.dcm"
        original = self._write_file(path)
        changes, _ = write_body_part_tags([str(path)], {SOP: BodyRegion.HEAD},
                                          dry_run=True)
        assert changes[0].action == "rewritten"
        assert path.read_bytes() == original

    def test_rejected_series_skipped(self, tmp_path):
        path = tmp_path / "a.dcm"
        original = self._write_file(path)
        changes, _ = write_body_part_tags([str(path)], {SOP: None})
        assert changes[0].action == "skipped"
        assert changes[0].detail == (
            "RejectedUncertain: series rejected as uncertain")
        assert path.read_bytes() == original

    def test_unknown_series_skipped(self, tmp_path):
        path = tmp_path / "a.dcm"
        self._write_file(path)
        changes, _ = write_body_part_tags([str(path)],
                                          {"OTHER": BodyRegion.HEAD})
        assert changes[0].action == "skipped"
        assert changes[0].detail == "NotInResults: image not in results"

    def test_unreadable_file_reported(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not dicom at all")
        changes, skipped = write_body_part_tags([str(path)], {})
        assert changes[0].action == "error"
        assert changes[0].detail.startswith("NotDicom: not a DICOM file")
        assert skipped.reasons == {"NotDicom": 1}

    def test_spine_regions_use_dicom_strings(self, tmp_path):
        path = tmp_path / "a.dcm"
        self._write_file(path)
        write_body_part_tags([str(path)],
                             {SOP: BodyRegion.CERVICAL_SPINE})
        assert b"CSPINE" in path.read_bytes()

    def test_change_log(self, tmp_path):
        path = tmp_path / "a.dcm"
        self._write_file(path, BodyPartExamined="CHEST")
        changes, _ = write_body_part_tags([str(path)], {SOP: BodyRegion.HEAD})
        log_path = tmp_path / "log.csv"
        write_change_log(changes, log_path)
        text = log_path.read_text()
        assert "rewritten" in text and "CHEST" in text and "HEAD" in text


class _FullDisk:
    """A file opened for writing that takes a few bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(bytes(data[:3]))
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def _fail_writes(monkeypatch):
    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode else fh
    monkeypatch.setattr(report_mod, "open", full_disk_open, raising=False)


def _fail(target):
    def fail(monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(errno.EIO, f"{target} failed")
        monkeypatch.setattr(target, refuse)
    return fail


class TestAtomicTagWrite:
    """A rewrite goes through a temporary file renamed over the target."""

    def _tree(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        path = tree / "a.dcm"
        path.write_bytes(make_dicom(pixels=np.zeros(64, dtype="<u2")))
        path.chmod(0o640)
        results = tmp_path / "results.ndjson"
        results.write_text(json.dumps({
            "series_uid": "1.2.3.2", "series_regions": ["Head"],
            "status": "Accepted",
            "images": [{"sop_uid": SOP, "label": "Head"}]}) + "\n")
        return tree, path, results

    @pytest.mark.parametrize("inject", [_fail_writes, _fail("shutil.copymode"),
                                        _fail("os.replace")],
                             ids=["write", "chmod", "rename"])
    def test_failure_leaves_target_intact(self, tmp_path, monkeypatch,
                                          inject):
        tree, path, results = self._tree(tmp_path)
        original = path.read_bytes()
        log = tmp_path / "changes.csv"
        with monkeypatch.context() as patched:
            inject(patched)
            assert main(["tag-write", "--dicom", str(tree), "--results",
                         str(results), "--out", str(log)]) == 0
        assert path.read_bytes() == original
        assert path.stat().st_mode & 0o777 == 0o640
        assert os.listdir(tree) == ["a.dcm"]  # no temporary file is left
        with open(log) as fh:
            [row] = list(csv.DictReader(fh))
        assert (row["path"], row["action"]) == (str(path), "error")
        assert row["detail"].startswith("OSError: ")

    def test_rewrite_keeps_mode_and_leaves_no_temporary_file(self, tmp_path):
        tree, path, results = self._tree(tmp_path)
        log = tmp_path / "changes.csv"
        assert main(["tag-write", "--dicom", str(tree), "--results",
                     str(results), "--out", str(log)]) == 0
        assert parse_dicom(path.read_bytes()).study_attrs[
            "body_part_examined"] == "HEAD"
        assert path.stat().st_mode & 0o777 == 0o640
        assert os.listdir(tree) == ["a.dcm"]

    def test_symlink_target_is_rewritten(self, tmp_path):
        tree, path, _ = self._tree(tmp_path)
        link = tmp_path / "link.dcm"
        link.symlink_to(path)
        write_body_part_tags([str(link)], {SOP: BodyRegion.HEAD})
        assert link.is_symlink()
        assert parse_dicom(path.read_bytes()).study_attrs[
            "body_part_examined"] == "HEAD"
        assert os.listdir(tree) == ["a.dcm"]
