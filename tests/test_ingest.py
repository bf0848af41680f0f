"""Directory ingestion and the NDJSON metadata sidecar."""

import json

import numpy as np
import pytest

from bodyregion.errors import SchemaError
from bodyregion.ingest import (ingest_tree, read_metadata_ndjson,
                               write_metadata_ndjson)

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

    def test_blank_lines_skipped(self, tmp_path):
        row = json.dumps({"sop_uid": "1", "series_uid": "2", "study_uid": "3"})
        path = self._write(tmp_path, [row, "", row.replace('"1"', '"4"')])
        assert read_metadata_ndjson(path)[0].image_count() == 2
