"""`errors.read_text`, the one decode of a whole text input, the message
SchemaError builds from its path and line, `SkipReport`, the one record of
the items a stage could not process, and `write_csv`, the one writer of a
stage table."""

from collections import Counter

import pytest

from bodyregion.errors import (Malformed, NotDicom, SchemaError, SkipReport,
                               read_text, write_csv)


class TestReadText:
    def test_returns_the_text_unchanged(self, tmp_path):
        # Non-ASCII text decodes, and line endings are left to the caller
        # (the CSV readers parse with newline="").
        path = tmp_path / "in.csv"
        path.write_bytes("sop_uid,région\r\n1.2,Thorax\r\n".encode("utf-8"))
        assert read_text(path) == "sop_uid,région\r\n1.2,Thorax\r\n"

    @pytest.mark.parametrize("data,line,reason", [
        (b"\xff", 1, "invalid start byte"),
        (b"a\nb\n\xff", 3, "invalid start byte"),
        (b"ok\n\xc3\x28\nc\n", 2, "invalid continuation byte"),
        (b"ok\n\xe2\x82", 2, "unexpected end of data"),
    ], ids=["first_byte", "third_line", "bad_continuation", "truncated"])
    def test_bad_bytes_name_file_and_line(self, tmp_path, data, line, reason):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        with pytest.raises(SchemaError) as err:
            read_text(path)
        assert err.value.line == line
        assert str(err.value) == (
            f"{path}: line {line}: not UTF-8 text: {reason}")

    def test_missing_file_is_not_a_schema_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_text(tmp_path / "absent.csv")


class TestSchemaErrorMessage:
    @pytest.mark.parametrize("kwargs,message", [
        ({}, "bad"),
        ({"line": 3}, "line 3: bad"),
        ({"path": "x.csv"}, "x.csv: bad"),
        ({"path": "x.csv", "line": 3}, "x.csv: line 3: bad"),
    ], ids=["bare", "line", "path", "path_and_line"])
    def test_prefixes(self, kwargs, message):
        assert str(SchemaError("bad", **kwargs)) == message


class TestSkipReport:
    def test_rows_are_spelled_reason_colon_message(self, tmp_path):
        report = SkipReport()
        assert report.add("a.dcm", Malformed("bad", offset=4)) == (
            "Malformed: bad (at byte offset 4)")
        assert report.note("b.dcm", "NotInResults",
                           "image not in results") == (
            "NotInResults: image not in results")
        report.write_csv(tmp_path / "skips.csv")
        assert (tmp_path / "skips.csv").read_text().splitlines() == [
            "path,error", "a.dcm,Malformed: bad (at byte offset 4)",
            "b.dcm,NotInResults: image not in results"]

    def test_counter_equals_the_reasons_of_its_rows(self):
        report = SkipReport()
        for path, error in [("a", Malformed("x")), ("b", NotDicom("y")),
                            ("c", FileNotFoundError(2, "gone")),
                            ("d", Malformed("z"))]:
            report.add(path, error)
        report.note("e", "RejectedUncertain", "series rejected as uncertain")
        assert report.reasons == Counter(r for _, r, _ in report.rows)
        assert len(report) == 5
        assert report.reasons == {"Malformed": 2, "NotDicom": 1,
                                  "FileNotFoundError": 1,
                                  "RejectedUncertain": 1}


class TestWriteCsv:
    def test_header_then_rows_in_utf8_with_crlf(self, tmp_path):
        # `rows` may be a generator; a cell holding a comma is quoted.
        path = tmp_path / "table.csv"
        write_csv(path, ["uid", "detail"],
                  ((uid, detail) for uid, detail in [
                      ("1.2", "région"), ("1.3", "a, b"), ("1.4", "")]))
        assert path.read_bytes() == (
            "uid,detail\r\n1.2,région\r\n1.3,\"a, b\"\r\n1.4,\r\n"
            .encode("utf-8"))
