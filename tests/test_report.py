"""Report tables (golden layout with NA rows) and tag write-back."""

import numpy as np
import pytest

from bodyregion.dicomio import parse_dicom
from bodyregion.report import (emit_factor_report, emit_region_report,
                               region_rows, write_body_part_tags,
                               write_change_log)
from bodyregion.stats import EvalSeries, EvalStudy, factor_report
from bodyregion.taxonomy import BodyRegion

from conftest import make_dicom, make_study

CLASSES = ["Abdomen", "Chest", "Head"]


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
        rows = region_rows(cohort_with_rare_class(), CLASSES, resamples=50)
        assert rows[0].name == "Overall"
        assert [r.name for r in rows[1:]] == CLASSES

    def test_small_class_has_na_metrics(self):
        rows = region_rows(cohort_with_rare_class(), CLASSES, resamples=50)
        head = next(r for r in rows if r.name == "Head")
        assert head.n_images == 3
        assert head.sensitivity is None and head.specificity is None

    def test_absent_class_omitted(self):
        studies = [EvalStudy("S", [EvalSeries(np.arange(4) * 10.0,
                                              [0, 0, 1, 1], [0, 0, 1, 1])])]
        rows = region_rows(studies, CLASSES, resamples=20)
        assert "Head" not in [r.name for r in rows]


class TestGoldenLayout:
    def test_region_csv_golden(self, tmp_path):
        rows = region_rows(cohort_with_rare_class(), CLASSES,
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
        rows = region_rows(cohort_with_rare_class(), CLASSES, resamples=100)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_region_report(rows, p1)
        emit_region_report(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_markdown_format(self, tmp_path):
        rows = region_rows(cohort_with_rare_class(), CLASSES, resamples=20)
        path = tmp_path / "by_region.md"
        emit_region_report(rows, path, fmt="markdown")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("| region |")
        assert set(lines[1]) <= {"|", "-"}

    def test_factor_csv_na_row(self, tmp_path):
        studies, evals = [], {}
        for i in range(8):
            manufacturer = "Canon" if i == 0 else "GE"
            st = make_study(study_uid=f"S{i}", patient_id=f"P{i}",
                            manufacturer=manufacturer)
            evals[st.study_uid] = EvalStudy(st.study_uid, [EvalSeries(
                np.arange(4) * 10.0, [0, 1, 0, 1], [0, 1, 0, 1])])
            studies.append(st)
        report = factor_report(studies, evals, "manufacturer", 2,
                               ["a", "b"], resamples=20)
        path = tmp_path / "by_manufacturer.csv"
        emit_factor_report(report, path)
        lines = path.read_text().strip().splitlines()
        canon = next(l for l in lines if l.startswith("manufacturer,Canon"))
        assert ",NA,NA," in canon  # n=1 < 5 -> NA metrics


class TestTagWriteBack:
    def _write_file(self, path, **overrides):
        data = make_dicom(pixels=np.zeros(64, dtype="<u2"), **overrides)
        path.write_bytes(data)
        return data

    def test_rewrite_replaces_value_only(self, tmp_path):
        path = tmp_path / "a.dcm"
        self._write_file(path, BodyPartExamined="CHEST")
        changes = write_body_part_tags(
            [str(path)], {"1.2.3.2": BodyRegion.ABDOMEN})
        assert changes[0].action == "rewritten"
        assert changes[0].old_value == "CHEST"
        parsed = parse_dicom(path.read_bytes())
        assert parsed.study_attrs["body_part_examined"] == "ABDOMEN"

    def test_insert_when_absent(self, tmp_path):
        path = tmp_path / "a.dcm"
        self._write_file(path, BodyPartExamined=None)
        write_body_part_tags([str(path)], {"1.2.3.2": BodyRegion.HEAD})
        parsed = parse_dicom(path.read_bytes())
        assert parsed.study_attrs["body_part_examined"] == "HEAD"

    def test_other_bytes_preserved(self, tmp_path):
        path = tmp_path / "a.dcm"
        original = self._write_file(path, BodyPartExamined="CHEST",
                                    StudyDescription="CT EXAM")
        write_body_part_tags([str(path)], {"1.2.3.2": BodyRegion.PELVIS})
        rewritten = path.read_bytes()
        # Everything outside the (0018,0015) element is untouched.
        expected = original.replace(b"CHEST ", b"PELVIS")
        assert rewritten == expected

    def test_each_file_parsed_once(self, tmp_path, monkeypatch):
        import bodyregion.report as report_mod
        calls = []

        def counting_parse(data):
            calls.append(len(data))
            return parse_dicom(data)

        monkeypatch.setattr(report_mod, "parse_dicom", counting_parse)
        paths = [tmp_path / "a.dcm", tmp_path / "b.dcm"]
        self._write_file(paths[0], BodyPartExamined="CHEST")
        self._write_file(paths[1], BodyPartExamined=None)
        changes = write_body_part_tags([str(p) for p in paths],
                                       {"1.2.3.2": BodyRegion.HEAD})
        assert [c.action for c in changes] == ["rewritten", "rewritten"]
        assert len(calls) == 2

    def test_dry_run_leaves_file(self, tmp_path):
        path = tmp_path / "a.dcm"
        original = self._write_file(path)
        changes = write_body_part_tags([str(path)],
                                       {"1.2.3.2": BodyRegion.HEAD},
                                       dry_run=True)
        assert changes[0].action == "rewritten"
        assert path.read_bytes() == original

    def test_rejected_series_skipped(self, tmp_path):
        path = tmp_path / "a.dcm"
        original = self._write_file(path)
        changes = write_body_part_tags([str(path)], {"1.2.3.2": None})
        assert changes[0].action == "skipped"
        assert "rejected" in changes[0].detail
        assert path.read_bytes() == original

    def test_unknown_series_skipped(self, tmp_path):
        path = tmp_path / "a.dcm"
        self._write_file(path)
        changes = write_body_part_tags([str(path)], {"OTHER": BodyRegion.HEAD})
        assert changes[0].action == "skipped"

    def test_unreadable_file_reported(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not dicom at all")
        changes = write_body_part_tags([str(path)], {})
        assert changes[0].action == "error"

    def test_spine_regions_use_dicom_strings(self, tmp_path):
        path = tmp_path / "a.dcm"
        self._write_file(path)
        write_body_part_tags([str(path)],
                             {"1.2.3.2": BodyRegion.CERVICAL_SPINE})
        assert b"CSPINE" in path.read_bytes()

    def test_change_log(self, tmp_path):
        path = tmp_path / "a.dcm"
        self._write_file(path, BodyPartExamined="CHEST")
        changes = write_body_part_tags([str(path)], {"1.2.3.2": BodyRegion.HEAD})
        log_path = tmp_path / "log.csv"
        write_change_log(changes, log_path)
        text = log_path.read_text()
        assert "rewritten" in text and "CHEST" in text and "HEAD" in text
