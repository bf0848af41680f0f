"""Directory ingestion and the NDJSON metadata sidecar."""

import json
import os
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyregion.cli import main
from bodyregion.errors import SchemaError
from bodyregion.ingest import (ingest_tree, read_metadata_ndjson, tree_files,
                               write_metadata_ndjson)
from bodyregion.records import (SIDECAR_FIELDS, ImageRecord, SeriesRecord,
                                StudyRecord, sidecar_row)

from conftest import make_dicom


def write_tree(root, n_studies=2, n_images=3):
    for s in range(n_studies):
        d = root / f"study{s}"
        d.mkdir()
        for i in range(n_images):
            pixels = np.full((64,), s * 100 + i, dtype="<u2")
            data = make_dicom(
                pixels=pixels,
                SOPInstanceUID=f"1.{s}.{i}",
                SeriesInstanceUID=f"1.{s}.100",
                StudyInstanceUID=f"1.{s}.200",
                PatientID=f"P{s}",
                InstanceNumber=i + 1,
                ImagePositionPatient=(0.0, 0.0, 2.0 * i))
            (d / f"im{i}.dcm").write_bytes(data)


class TestIngestTree:
    def test_walk_and_group(self, tmp_path):
        write_tree(tmp_path)
        studies, skipped = ingest_tree(tmp_path)
        assert len(studies) == 2
        assert len(skipped) == 0
        assert all(len(st.series) == 1 for st in studies)
        assert all(st.image_count() == 3 for st in studies)

    def test_non_dicom_reported_not_fatal(self, tmp_path):
        write_tree(tmp_path, n_studies=1)
        (tmp_path / "README.txt").write_text("not dicom")
        studies, skipped = ingest_tree(tmp_path)
        assert len(studies) == 1
        assert len(skipped) == 1

    def test_images_sorted_within_series(self, tmp_path):
        # Write slices in reverse z order; ingest should sort by position.
        for i, z in enumerate((8.0, 0.0, 4.0)):
            data = make_dicom(pixels=np.zeros(64, dtype="<u2"),
                              SOPInstanceUID=f"1.0.{i}",
                              InstanceNumber=i + 1,
                              ImagePositionPatient=(0.0, 0.0, z))
            (tmp_path / f"im{i}.dcm").write_bytes(data)
        studies, _ = ingest_tree(tmp_path)
        zs = [im.image_position_patient[2]
              for im in studies[0].series[0].images]
        assert zs == [0.0, 4.0, 8.0]

    def test_deterministic_order(self, tmp_path):
        write_tree(tmp_path)
        a, _ = ingest_tree(tmp_path)
        b, _ = ingest_tree(tmp_path)
        assert [s.study_uid for s in a] == [s.study_uid for s in b]

    def test_tree_files_sorted_walk(self, tmp_path):
        for rel in ("b/2", "b/10", "a/z/1", "a/y", "c"):
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("")
        assert [os.path.relpath(p, tmp_path) for p in tree_files(tmp_path)] == [
            "c", "a/y", "a/z/1", "b/10", "b/2"]


class TestNdjsonRoundTrip:
    def test_lossless(self, tmp_path):
        write_tree(tmp_path)
        studies, _ = ingest_tree(tmp_path)
        path = tmp_path / "meta.ndjson"
        write_metadata_ndjson(studies, path)
        reread = read_metadata_ndjson(path)

        def flatten(cohort):
            rows = []
            for st in cohort:
                for se in st.series:
                    for im in se.images:
                        row = im.metadata_dict()
                        row["series_uid"] = se.series_uid
                        row["study_uid"] = st.study_uid
                        row["modality"] = se.modality
                        row["patient_id"] = st.patient_id
                        rows.append(row)
            return rows

        assert flatten(studies) == flatten(reread)

    def test_export_import_export_identical(self, tmp_path):
        write_tree(tmp_path)
        studies, _ = ingest_tree(tmp_path)
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_metadata_ndjson(studies, p1)
        write_metadata_ndjson(read_metadata_ndjson(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestNdjsonSchema:
    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_invalid_json_line_number(self, tmp_path):
        good = json.dumps({"sop_uid": "1", "series_uid": "2", "study_uid": "3"})
        path = self._write(tmp_path, [good, "{oops"])
        with pytest.raises(SchemaError) as err:
            read_metadata_ndjson(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("missing", ["sop_uid", "series_uid", "study_uid"])
    def test_missing_required(self, tmp_path, missing):
        row = {"sop_uid": "1", "series_uid": "2", "study_uid": "3"}
        del row[missing]
        path = self._write(tmp_path, [json.dumps(row)])
        with pytest.raises(SchemaError):
            read_metadata_ndjson(path)

    def test_non_object_line(self, tmp_path):
        path = self._write(tmp_path, ["[1, 2, 3]"])
        with pytest.raises(SchemaError):
            read_metadata_ndjson(path)

    def test_bad_vector_length(self, tmp_path):
        row = {"sop_uid": "1", "series_uid": "2", "study_uid": "3",
               "image_position_patient": [1.0, 2.0]}
        path = self._write(tmp_path, [json.dumps(row)])
        with pytest.raises(SchemaError):
            read_metadata_ndjson(path)

    @pytest.mark.parametrize("key", ["patient_age", "slice_thickness"])
    def test_numeric_text_becomes_float(self, tmp_path, key):
        row = {"sop_uid": "1", "series_uid": "2", "study_uid": "3", key: "45"}
        [study] = read_metadata_ndjson(self._write(tmp_path, [json.dumps(row)]))
        record = study if key == "patient_age" else study.series[0]
        value = getattr(record, key)
        assert value == 45.0 and isinstance(value, float)

    @pytest.mark.parametrize("key", ["patient_age", "slice_thickness"])
    @pytest.mark.parametrize("value", ["old", [45], {"y": 45}])
    def test_non_numeric_names_its_line(self, tmp_path, key, value):
        good = {"sop_uid": "1", "series_uid": "2", "study_uid": "3"}
        bad = {"sop_uid": "4", "series_uid": "5", "study_uid": "6", key: value}
        path = self._write(tmp_path, [json.dumps(good), json.dumps(bad)])
        with pytest.raises(SchemaError) as err:
            read_metadata_ndjson(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("key, value, record", [
        ("series_description", 5, "series 2"),
        ("slice_thickness", 2.5, "series 2"),
        ("patient_sex", "F", "study 3"),
        ("patient_age", None, "study 3"),
    ])
    def test_disagreeing_row_is_a_data_error(self, tmp_path, capsys, key,
                                             value, record):
        """A later row of a series or study must carry the first row's
        values for that record's fields."""
        first = {"sop_uid": "1", "series_uid": "2", "study_uid": "3",
                 "series_description": "AX", "slice_thickness": 5.0,
                 "patient_sex": "M", "patient_age": 40.0}
        other = {**first, "sop_uid": "4", "series_uid": "5"}
        later = {**first, "sop_uid": "6", key: value}
        path = self._write(tmp_path, [json.dumps(r)
                                      for r in (first, other, later)])
        with pytest.raises(SchemaError) as err:
            read_metadata_ndjson(path)
        assert err.value.line == 3
        assert str(err.value).startswith(f"line 3: {record}: {key} is")
        assert main(["filter", "--in", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: line 3: {record}: {key} is {value!r}, but line 1 ")

    def test_agreeing_rows_with_nan_are_accepted(self, tmp_path):
        row = {"sop_uid": "1", "series_uid": "2", "study_uid": "3",
               "slice_thickness": float("nan")}
        path = self._write(tmp_path, [json.dumps(row),
                                      json.dumps({**row, "sop_uid": "4"})])
        [study] = read_metadata_ndjson(path)
        assert study.image_count() == 2

    def test_same_series_uid_in_two_studies_is_two_series(self, tmp_path):
        row = {"sop_uid": "1", "series_uid": "2", "study_uid": "3",
               "series_description": "AX"}
        other = {**row, "sop_uid": "4", "study_uid": "5",
                 "series_description": "COR"}
        studies = read_metadata_ndjson(
            self._write(tmp_path, [json.dumps(row), json.dumps(other)]))
        assert [s.series[0].series_description for s in studies] == [
            "AX", "COR"]

    def test_blank_lines_skipped(self, tmp_path):
        row = json.dumps({"sop_uid": "1", "series_uid": "2", "study_uid": "3"})
        path = self._write(tmp_path, [row, "", row.replace('"1"', '"4"')])
        assert read_metadata_ndjson(path)[0].image_count() == 2


def _values(cls):
    """Values valid for each metadata field of `cls`, None included where
    the field is Optional; the UID is a non-empty string."""
    strategies = {}
    for f in fields(cls):
        if f.name not in {spec[0] for spec in SIDECAR_FIELDS[cls]}:
            continue
        kind = f.type.removeprefix("Optional[").removesuffix("]")
        floats = st.floats(allow_nan=False)
        value = {"str": st.text(), "int": st.integers(), "float": floats,
                 "tuple": st.tuples(*[floats] * f.metadata.get("length", 0))
                 }[kind]
        if f.type.startswith("Optional["):
            value = st.none() | value
        strategies[f.name] = value
    uid = SIDECAR_FIELDS[cls][0][0]
    strategies[uid] = st.text(min_size=1)
    return st.fixed_dictionaries(strategies)


class TestNdjsonFields:
    @settings(max_examples=200, deadline=None)
    @given(study=_values(StudyRecord), series=_values(SeriesRecord),
           images=st.lists(_values(ImageRecord), min_size=1, max_size=3,
                           unique_by=lambda v: v["sop_uid"]))
    def test_every_field_round_trips(self, study, series, images):
        record = StudyRecord(**study)
        record.series = [SeriesRecord(**series)]
        record.series[0].images = [ImageRecord(**v) for v in images]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "meta.ndjson")
            write_metadata_ndjson([record], path)
            [reread] = read_metadata_ndjson(path)
        [series_back] = reread.series
        assert sidecar_row(reread) == study
        assert sidecar_row(series_back) == series
        assert [sidecar_row(im) for im in series_back.images] == images

    @pytest.mark.parametrize("key,value,message", [
        ("rows", 1e400, "rows must be an integer, got inf"),
        ("instance_number", "7.5", "instance_number must be an integer"),
        ("series_description", 5, "series_description must be a string"),
        ("patient_sex", ["F"], "patient_sex must be a string"),
        ("image_orientation_patient", [1, 0, 0, 0, 1, "z"],
         "image_orientation_patient must be a 6-element array of numbers"),
        ("study_uid", 3, "study_uid must be a non-empty string, got 3"),
    ])
    def test_wrong_type_is_a_data_error(self, tmp_path, capsys, key, value,
                                        message):
        good = {"sop_uid": "1", "series_uid": "2", "study_uid": "3"}
        bad = {"sop_uid": "4", "series_uid": "5", "study_uid": "6", key: value}
        path = tmp_path / "meta.ndjson"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        assert main(["filter", "--in", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: line 2: {message}")
