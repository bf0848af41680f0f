"""DICOM parser/writer: round trips, VR handling, and malformed inputs."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from bodyregion.cli import main
from bodyregion.dicomio import (EXPLICIT_VR_LE, IMPLICIT_VR_LE, RLE_LOSSLESS,
                                TAG_PIXEL_DATA, TAG_TABLE, UNDEFINED_LENGTH,
                                ParsedFile, _decode_value,
                                _find_dataset_start, _parse_age, build_dicom,
                                encode_element, iter_elements, parse_dicom)
from bodyregion.errors import Malformed
from bodyregion.ingest import ingest_tree
from bodyregion.records import (SIDECAR_FIELDS, ImageRecord, SeriesRecord,
                                StudyRecord)

from conftest import AXIAL, base_dataset, make_dicom


class TestParseRoundTrip:
    def test_explicit_vr_metadata(self):
        pixels = np.arange(64, dtype="<u2")
        parsed = parse_dicom(make_dicom(pixels=pixels))
        assert parsed.image.transfer_syntax_uid == EXPLICIT_VR_LE
        assert parsed.explicit
        im = parsed.image
        assert im.sop_uid == "1.2.3.4.1"
        assert (im.rows, im.cols) == (8, 8)
        assert (im.bits_allocated, im.bits_stored) == (16, 12)
        assert im.instance_number == 1
        assert im.image_position_patient == (0.0, 0.0, 0.0)
        assert im.image_orientation_patient == AXIAL
        assert parsed.series_attrs["modality"] == "CT"
        assert parsed.series_attrs["slice_thickness"] == 2.5
        assert parsed.study_attrs["patient_age"] == 45.0
        assert parsed.study_attrs["body_part_examined"] == "CHEST"
        assert parsed.study_attrs["procedure_description"] == "CT CHEST W"

    def test_implicit_vr_metadata(self):
        data = make_dicom(transfer_syntax=IMPLICIT_VR_LE)
        parsed = parse_dicom(data)
        assert not parsed.explicit
        assert parsed.image.sop_uid == "1.2.3.4.1"
        assert parsed.series_attrs["series_uid"] == "1.2.3.2"

    def test_pixel_data_located_not_decoded(self):
        pixels = np.arange(64, dtype="<u2")
        data = make_dicom(pixels=pixels)
        parsed = parse_dicom(data)
        off, length = parsed.image.pixel_data_offset, parsed.image.pixel_data_length
        assert length == 128
        assert data[off:off + length] == pixels.tobytes()
        assert parsed.image.pixels is None

    def test_bare_dataset_without_preamble(self):
        data = make_dicom(preamble=False)
        parsed = parse_dicom(data)
        assert parsed.image.sop_uid == "1.2.3.4.1"
        assert parsed.dataset_start == 0

    def test_rle_encapsulated_pixel_stream(self):
        data = make_dicom(pixels=b"\x01\x02\x03\x04",
                          transfer_syntax=RLE_LOSSLESS, encapsulated=True)
        parsed = parse_dicom(data)
        assert parsed.image.transfer_syntax_uid == RLE_LOSSLESS
        assert parsed.image.pixel_data_offset is not None

    def test_unknown_tags_are_skipped(self):
        # Private element (0009,0001) ahead of the rest must not derail parsing.
        extra = struct.pack("<HH", 0x0009, 0x0001) + b"LO" + struct.pack("<H", 4) + b"ACME"
        data = make_dicom(preamble=False)
        parsed = parse_dicom(extra + data)
        assert parsed.image.sop_uid == "1.2.3.4.1"


class TestAgeParsing:
    @pytest.mark.parametrize("text,years", [
        ("045Y", 45.0), ("030M", 2.5), ("104W", 2.0), ("365D", 1.0),
        ("18", 18.0),
    ])
    def test_units(self, text, years):
        assert _parse_age(text) == pytest.approx(years)

    @pytest.mark.parametrize("text", ["", "abc", None])
    def test_unparseable(self, text):
        assert _parse_age(text) is None


class TestMalformed:
    def test_truncated_element_reports_offset(self):
        data = make_dicom(preamble=False)
        with pytest.raises(Malformed) as err:
            parse_dicom(data[:len(data) - 3])
        assert err.value.offset is not None

    def test_length_past_end(self):
        elem = struct.pack("<HH", 0x0008, 0x0018) + b"UI" + struct.pack("<H", 500)
        with pytest.raises(Malformed):
            parse_dicom(elem + b"1.2")

    def test_empty_input(self):
        with pytest.raises(Malformed):
            parse_dicom(b"")

    def test_preamble_without_magic(self):
        with pytest.raises(Malformed):
            parse_dicom(b"\x00" * 128 + b"DICX" + b"\x00" * 32)


class TestWriter:
    def test_tags_ascending(self):
        data = make_dicom(preamble=False)
        tags = [ref.tag for ref in iter_elements(data, 0, explicit=True)]
        assert tags == sorted(tags)

    def test_encode_element_pads_to_even(self):
        raw = encode_element((0x0008, 0x0060), "CS", "CT1")
        assert len(raw) % 2 == 0
        assert raw.endswith(b"CT1 ")

    def test_uid_padded_with_null(self):
        raw = encode_element((0x0008, 0x0018), "UI", "1.2.3")
        assert raw.endswith(b"1.2.3\x00")

    def test_meta_group_declares_transfer_syntax(self):
        data = make_dicom()
        assert data[128:132] == b"DICM"
        assert EXPLICIT_VR_LE.encode() in data[:200]

    def test_byte_deterministic(self):
        assert make_dicom() == make_dicom()


UNDEFINED = 0xFFFFFFFF
ITEM_DELIM = struct.pack("<HHI", 0xFFFE, 0xE00D, 0)
SEQ_DELIM = struct.pack("<HHI", 0xFFFE, 0xE0DD, 0)
REF_UID = (0x0008, 0x1150)  # ReferencedSOPClassUID, absent from TAG_TABLE


def item(body=b"", defined=False):
    length = len(body) if defined else UNDEFINED
    return (struct.pack("<HHI", 0xFFFE, 0xE000, length) + body
            + (b"" if defined else ITEM_DELIM))


def sequence(tag, items, vr=b"SQ", defined=False, explicit=True):
    """An element whose value is `items`, undefined length unless `defined`."""
    head = struct.pack("<HH", *tag) + (vr + b"\x00\x00" if explicit else b"")
    length = len(items) if defined else UNDEFINED
    return head + struct.pack("<I", length) + items + (b"" if defined else SEQ_DELIM)


def ref_uid(explicit=True):
    return encode_element(REF_UID, "UI", "1.2.840.10008.5.1.4.1.1.2", explicit)


def with_element(element, **kwargs):
    """make_dicom(**kwargs) with `element` spliced in at its tag's place."""
    data = make_dicom(pixels=np.arange(64, dtype="<u2"), **kwargs)
    parsed = parse_dicom(data)
    tag = struct.unpack_from("<HH", element)
    for ref in iter_elements(data, parsed.dataset_start, parsed.explicit):
        if ref.tag > tag:
            cut = ref.element_start
            return data, data[:cut] + element + data[cut:]
    raise AssertionError("no element after the insertion point")


def assert_same_metadata(data, nested):
    """Both parse alike; only the pixel data offset may move."""
    a, b = parse_dicom(data), parse_dicom(nested)
    assert b.image.pixel_data_offset - a.image.pixel_data_offset == (
        len(nested) - len(data))
    assert replace(b.image, pixel_data_offset=0) == replace(
        a.image, pixel_data_offset=0)
    assert (b.series_attrs, b.study_attrs) == (a.series_attrs, a.study_attrs)
    assert (b.explicit, b.dataset_start) == (a.explicit, a.dataset_start)


EXPLICIT_NESTED = {
    "undefined_item_with_content":
        sequence((0x0008, 0x1140), item(ref_uid())),
    "defined_sq_in_undefined_item":
        sequence((0x0008, 0x1140), item(
            sequence((0x0008, 0x1199), item(ref_uid(), defined=True),
                     defined=True))),
    "undefined_sq_in_undefined_item":
        sequence((0x0008, 0x1140), item(
            sequence((0x0008, 0x1199), item(ref_uid()) + item()))),
    "undefined_un_with_implicit_content":
        sequence((0x0009, 0x1010), item(ref_uid(explicit=False)), vr=b"UN"),
    "empty_undefined_item":
        sequence((0x0008, 0x1140), item()),
    "empty_defined_item":
        sequence((0x0008, 0x1140), item(defined=True)),
}


class TestUndefinedLengthSkipping:
    @pytest.mark.parametrize("case", sorted(EXPLICIT_NESTED))
    def test_explicit_nested_content_is_stepped_over(self, case):
        assert_same_metadata(*with_element(EXPLICIT_NESTED[case]))

    def test_implicit_nested_content_is_stepped_over(self):
        seq = sequence((0x0008, 0x1140),
                       item(ref_uid(explicit=False)) + item(), explicit=False)
        assert_same_metadata(*with_element(seq, transfer_syntax=IMPLICIT_VR_LE))

    def test_sequence_with_undefined_length(self):
        data = sequence((0x0008, 0x1140), item()) + make_dicom(preamble=False)
        parsed = parse_dicom(data)
        assert parsed.image.sop_uid == "1.2.3.4.1"

    def test_nested_file_is_ingested_not_skipped(self, tmp_path):
        _, nested = with_element(
            EXPLICIT_NESTED["undefined_sq_in_undefined_item"])
        (tmp_path / "nested.dcm").write_bytes(nested)
        studies, skipped = ingest_tree(tmp_path)
        assert len(skipped) == 0
        [image] = studies[0].series[0].images
        assert image.sop_uid == "1.2.3.4.1"

    def test_unterminated_sequence_is_malformed(self):
        seq = (struct.pack("<HH", 0x0008, 0x1140) + b"SQ\x00\x00"
               + struct.pack("<I", UNDEFINED)
               + struct.pack("<HHI", 0xFFFE, 0xE000, 0))
        with pytest.raises(Malformed):
            parse_dicom(seq)

    @pytest.mark.parametrize("body,fault", [
        # The item holds an element but no item delimiter.
        (item(ref_uid())[:-8] + SEQ_DELIM, 12 + 8 + 34),
        # An item delimiter directly inside the sequence.
        (ITEM_DELIM + SEQ_DELIM, 12),
        # A nested OB header cut after 10 of its 12 bytes.
        (struct.pack("<HHI", 0xFFFE, 0xE000, UNDEFINED)
         + struct.pack("<HH", 0x0009, 0x0010) + b"OB\x00\x00\x00\x00", 12 + 8),
    ], ids=["unterminated_item", "item_delimiter_at_depth_0",
            "truncated_nested_header"])
    def test_nested_faults_are_malformed_with_offset(self, body, fault):
        head = struct.pack("<HH", 0x0008, 0x1140) + b"SQ\x00\x00"
        data = head + struct.pack("<I", UNDEFINED) + body
        with pytest.raises(Malformed) as err:
            parse_dicom(data)
        assert err.value.offset == fault


class TestFileMetaGroup:
    @pytest.mark.parametrize("items", [b"", item(ref_uid())],
                             ids=["empty", "one_item"])
    def test_undefined_length_meta_sequence(self, items):
        # A valid file whose meta group ends in an undefined-length SQ:
        # the dataset starts past the SQ's delimiter, in its own encoding.
        data = make_dicom(pixels=np.arange(64, dtype="<u2"),
                          transfer_syntax=IMPLICIT_VR_LE)
        plain = parse_dicom(data)
        seq = sequence((0x0002, 0x0100), items)
        (group_length,) = struct.unpack_from("<I", data, 140)
        spliced = (data[:140] + struct.pack("<I", group_length + len(seq))
                   + data[144:plain.dataset_start] + seq
                   + data[plain.dataset_start:])
        parsed = parse_dicom(spliced)
        shift = len(seq)
        assert replace(parsed, dataset_start=parsed.dataset_start - shift,
                       image=replace(parsed.image, pixel_data_offset=(
                           parsed.image.pixel_data_offset - shift))) == plain
        assert not parsed.explicit


# ---------------------------------------------------------------------------
# Record fields: one definition in records.py, filled through TAG_TABLE


def reference_parse_dicom(data, source_path=None):
    """parse_dicom as it was before records.py defined the record fields:
    a hand-written conversion per field. It shares the element walk and
    the value decoding with parse_dicom, so it checks the field mapping."""
    start, explicit, tsuid = _find_dataset_start(data)

    values = {}
    pixel_ref = None
    for ref in iter_elements(data, start, explicit=explicit):
        if ref.tag == TAG_PIXEL_DATA:
            pixel_ref = ref
            continue
        if ref.vr == "SQ" or ref.value_length == UNDEFINED_LENGTH:
            continue
        entry = TAG_TABLE.get(ref.tag)
        if entry is None:
            continue
        keyword, table_vr, _ = entry
        vr = ref.vr if ref.vr is not None else table_vr
        if vr in ("UN", "OB", "OW"):
            vr = table_vr
        values[keyword] = _decode_value(vr, data[ref.value_start:ref.value_end],
                                        ref.value_start)

    def as_int(keyword, default):
        v = values.get(keyword)
        if isinstance(v, list):
            v = v[0] if v else None
        try:
            return int(v)
        except (TypeError, ValueError):
            return default

    def as_str(keyword, default=""):
        v = values.get(keyword, default)
        return v if isinstance(v, str) else default

    def vec(keyword, length):
        v = values.get(keyword)
        if v is None:
            return None
        if not isinstance(v, list):
            v = [v]
        if len(v) != length:
            return None
        try:
            return tuple(float(x) for x in v)
        except (TypeError, ValueError):
            return None

    image = ImageRecord(
        sop_uid=as_str("SOPInstanceUID"),
        rows=as_int("Rows", 0),
        cols=as_int("Columns", 0),
        bits_allocated=as_int("BitsAllocated", 0),
        bits_stored=as_int("BitsStored", 0),
        samples_per_pixel=as_int("SamplesPerPixel", 1),
        transfer_syntax_uid=tsuid,
        sop_class_uid=as_str("SOPClassUID"),
        instance_number=as_int("InstanceNumber", None),
        image_position_patient=vec("ImagePositionPatient", 3),
        image_orientation_patient=vec("ImageOrientationPatient", 6),
        source_path=source_path,
    )
    if pixel_ref is not None:
        image.pixel_data_offset = pixel_ref.value_start
        if pixel_ref.value_length == UNDEFINED_LENGTH:
            image.pixel_data_length = len(data) - pixel_ref.value_start
        else:
            image.pixel_data_length = pixel_ref.value_length

    thickness = values.get("SliceThickness")
    if isinstance(thickness, list):
        thickness = thickness[0] if thickness else None
    try:
        thickness = float(thickness) if thickness is not None else None
    except (TypeError, ValueError):
        thickness = None
    series_attrs = {
        "series_uid": as_str("SeriesInstanceUID"),
        "modality": as_str("Modality") or "other",
        "series_description": as_str("SeriesDescription"),
        "frame_of_reference_uid": as_str("FrameOfReferenceUID") or None,
        "slice_thickness": thickness,
        "convolution_kernel": as_str("ConvolutionKernel") or None,
        "contrast_agent": as_str("ContrastBolusAgent") or None,
    }
    study_attrs = {
        "study_uid": as_str("StudyInstanceUID"),
        "patient_id": as_str("PatientID"),
        "patient_age": _parse_age(as_str("PatientAge")),
        "patient_sex": as_str("PatientSex") or None,
        "manufacturer": as_str("Manufacturer") or None,
        "institution": as_str("InstitutionName") or None,
        "body_part_examined": as_str("BodyPartExamined") or None,
        "procedure_description": as_str("StudyDescription") or None,
    }
    return ParsedFile(image=image, series_attrs=series_attrs,
                      study_attrs=study_attrs,
                      explicit=explicit, dataset_start=start)


def mutation_stream(count):
    """The first `count` inputs of acceptance criterion 8's fuzz stream."""
    base = build_dicom(base_dataset(),
                       pixel_payload=np.zeros(16, dtype="<u2").tobytes(),
                       preamble=False)
    n = len(base)
    rng = np.random.default_rng(8)
    for _ in range(count):
        buf = bytearray(base)
        for _ in range(int(rng.integers(1, 9))):
            buf[int(rng.integers(0, n))] = int(rng.integers(0, 256))
        if rng.random() < 0.25:
            buf = buf[:int(rng.integers(0, n))]
        yield bytes(buf)


def outcome(parse, data):
    """repr of the ParsedFile, or the fault's type and byte offset."""
    try:
        return repr(parse(data, source_path="a.dcm"))
    except Malformed as exc:
        return "Malformed", exc.offset


def element(tag, vr, raw):
    """An explicit-VR element with the value bytes `raw` as they are."""
    return struct.pack("<HH", *tag) + vr + struct.pack("<H", len(raw)) + raw


ROWS = (0x0028, 0x0010)
INSTANCE_NUMBER = (0x0020, 0x0013)


class TestRecordFields:
    def test_tag_table_names_record_fields(self):
        names = [spec[0] for cls in (ImageRecord, SeriesRecord, StudyRecord)
                 for spec in SIDECAR_FIELDS[cls]]
        assert len(names) == len(set(names))  # one flat sidecar row
        filled = [field for _, _, field in TAG_TABLE.values()
                  if field is not None]
        assert len(filled) == len(set(filled))
        assert set(filled) <= set(names)
        # Only the pixel data locator is not read from a tag.
        assert set(names) - set(filled) == {
            "pixel_data_offset", "pixel_data_length", "source_path"}

    def test_matches_reference_on_mutation_stream(self):
        mismatched = parsed = 0
        for data in mutation_stream(20_000):
            new = outcome(parse_dicom, data)
            mismatched += new != outcome(reference_parse_dicom, data)
            parsed += isinstance(new, str)
        assert mismatched == 0
        assert parsed > 2_000  # the stream reaches the field conversions

    @pytest.mark.parametrize("kwargs", [
        {}, dict(transfer_syntax=IMPLICIT_VR_LE), dict(preamble=False),
        dict(pixels=b"\x01\x02\x03\x04", transfer_syntax=RLE_LOSSLESS,
             encapsulated=True),
        dict(PatientAge=None, BodyPartExamined=None, SliceThickness=None),
        dict(PatientAge="006M", Modality="", SeriesDescription=""),
    ], ids=["explicit", "implicit", "bare", "rle", "sparse", "empty"])
    def test_matches_reference_on_files(self, kwargs):
        kwargs.setdefault("pixels", np.arange(64, dtype="<u2"))
        data = make_dicom(**kwargs)
        assert outcome(parse_dicom, data) == outcome(reference_parse_dicom,
                                                     data)

    @pytest.mark.parametrize("vr,raw,rows", [
        (b"DS", b"12\\13 ", 12),   # multi-valued: the first value
        (b"LO", b"12", 12),        # numeric text under a text VR
        (b"LO", b"twelve", 0),     # unconvertible: the default
        (b"DS", b"", 0),           # empty: the default
        (b"DS", b"inf ", 0),       # does not fit an integer: the default
    ])
    def test_lenient_integer_field(self, vr, raw, rows):
        _, data = with_element(element(ROWS, vr, raw), Rows=None)
        parsed = parse_dicom(data)
        assert parsed.image.rows == rows
        assert parsed.image.cols == 8

    @pytest.mark.parametrize("raw", [b"inf ", b"1e400 ", b"1\\-inf"])
    def test_non_finite_is_value_is_malformed(self, raw):
        _, data = with_element(element(INSTANCE_NUMBER, b"IS", raw),
                               InstanceNumber=None)
        with pytest.raises(Malformed, match="bad IS value"):
            parse_dicom(data)

    def test_non_finite_is_value_is_a_skip_row(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        _, bad = with_element(element(INSTANCE_NUMBER, b"IS", b"inf "),
                              InstanceNumber=None, SOPInstanceUID="1.9")
        (tree / "a_good.dcm").write_bytes(
            make_dicom(pixels=np.arange(64, dtype="<u2")))
        (tree / "b_bad.dcm").write_bytes(bad)
        out = tmp_path / "ing"
        assert main(["ingest", "--dicom", str(tree), "--out", str(out)]) == 0
        rows = (out / "metadata.ndjson").read_text().splitlines()
        assert [json.loads(r)["sop_uid"] for r in rows] == ["1.2.3.4.1"]
        skips = (out / "skip_report.csv").read_text().splitlines()
        assert len(skips) == 2 and skips[1].startswith(str(tree / "b_bad.dcm"))
        assert "bad IS value" in skips[1]
