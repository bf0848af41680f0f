"""DICOM parser/writer: round trips, VR handling, and malformed inputs."""

import json
import pathlib
import re
import struct
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyregion.cli import CLASSIFY_FIELDS, main
from bodyregion.dicomio import (_U16, _U32, EXPLICIT_VR_LE, IMPLICIT_VR_LE,
                                RLE_LOSSLESS, TAG_BODY_PART, TAG_PIXEL_DATA,
                                TAG_TABLE, UNDEFINED_LENGTH, ParsedFile,
                                _decode_string, _parse_age, _skip_undefined,
                                _sniff_explicit, build_dicom, encode_element,
                                parse_dicom)
from bodyregion.errors import Malformed, NotDicom
from bodyregion.ingest import ingest_tree, tree_files
from bodyregion.records import (SIDECAR_FIELDS, ImageRecord, SeriesRecord,
                                StudyRecord)
from bodyregion.report import TAG_WRITE_FIELDS

from conftest import AXIAL, base_dataset, make_dicom

sys.path[:0] = [str(pathlib.Path(__file__).resolve().parent.parent
                    / "perfbench")]
import cohorts  # noqa: E402


# ---------------------------------------------------------------------------
# The walk parse_dicom used before its inline walk, kept as the oracle: a
# generator that builds a header object per element from its own header
# layouts, and a value decoder taking every element through the general
# rule. It shares only _skip_undefined, the nested walker, with parse_dicom.

# Implicit VR, and every item or delimiter header (group FFFE), is tag +
# 4-byte length; explicit VR is tag + VR + 2-byte length, or for a long VR
# tag + VR + 2 reserved + 4-byte length (PS3.5 7.1.2).
LONG_VRS = {b"OB", b"OW", b"OF", b"OD", b"OL", b"SQ", b"UC", b"UR", b"UT",
            b"UN"}
KNOWN_VRS = LONG_VRS | {
    b"AE", b"AS", b"AT", b"CS", b"DA", b"DS", b"DT", b"FL", b"FD", b"IS",
    b"LO", b"LT", b"PN", b"SH", b"SL", b"SS", b"ST", b"TM", b"UI", b"UL",
    b"US"}
IMPLICIT_HEADER = struct.Struct("<HHI")
EXPLICIT_LAYOUTS = {vr: (vr.decode(), struct.Struct(
    "<HH4xI" if vr in LONG_VRS else "<HH2xH")) for vr in KNOWN_VRS}
ITEM_GROUP = b"\xfe\xff"


@dataclass
class WalkedElement:
    tag: tuple
    vr: Optional[str]
    element_start: int
    value_start: int
    value_length: int  # UNDEFINED_LENGTH for encapsulated/undefined
    end: Optional[int] = None  # where the walk resumes

    @property
    def value_end(self) -> int:
        return self.value_start + self.value_length


def read_header(data, pos, explicit) -> WalkedElement:
    if pos + 8 > len(data):
        raise Malformed("truncated element header", offset=pos)
    if explicit and data[pos:pos + 2] != ITEM_GROUP:
        vr = data[pos + 4:pos + 6]
        layout = EXPLICIT_LAYOUTS.get(vr)
        if layout is None:
            raise Malformed(f"unknown VR {vr!r}", offset=pos + 4)
        name, header = layout
        if pos + header.size > len(data):
            raise Malformed("truncated long-VR header", offset=pos)
        group, element, length = header.unpack_from(data, pos)
        return WalkedElement((group, element), name, pos, pos + header.size,
                             length)
    group, element, length = IMPLICIT_HEADER.unpack_from(data, pos)
    return WalkedElement((group, element), None, pos, pos + 8, length)


def iter_elements(data, start, explicit,
                  stop_before_group=None) -> Iterator[WalkedElement]:
    """Top-level elements from `start` to the end of `data`, in strictly
    ascending tag order; an undefined-length one is yielded after its
    value has been stepped over."""
    stop = stop_before_group is not None and _U16.pack(stop_before_group)
    pos = start
    n = len(data)
    previous = None
    while pos < n:
        if n - pos < 8:
            raise Malformed("trailing garbage shorter than an element", offset=pos)
        if stop and data[pos:pos + 2] != stop:
            return
        ref = read_header(data, pos, explicit)
        if previous is not None and ref.tag <= previous:
            raise Malformed("duplicate tag" if ref.tag == previous
                            else "tag out of order", offset=pos)
        previous = ref.tag
        if ref.tag[0] == 0xFFFE:
            raise Malformed("item or delimiter outside a sequence", offset=pos)
        if ref.value_length == UNDEFINED_LENGTH:
            pos = _skip_undefined(data, ref.tag[0] << 16 | ref.tag[1],
                                  ref.vr and ref.vr.encode(), ref.value_start,
                                  explicit)
        elif ref.value_length > n - ref.value_start:
            raise Malformed("element length past end of file", offset=pos)
        else:
            pos = ref.value_end
        ref.end = pos
        yield ref


def decode_value(vr, raw, offset):
    if vr in ("UI", "CS", "LO", "SH", "AS", "AE", "PN", "ST", "LT", "DA", "TM"):
        return _decode_string(raw)
    if vr == "US":
        if len(raw) < 2:
            raise Malformed("US value shorter than 2 bytes", offset=offset)
        return _U16.unpack_from(raw)[0]
    if vr == "UL":
        if len(raw) < 4:
            raise Malformed("UL value shorter than 4 bytes", offset=offset)
        return _U32.unpack_from(raw)[0]
    if vr in ("DS", "IS"):
        text = _decode_string(raw)
        if not text:
            return None
        parts = [p.strip() for p in text.split("\\")]
        try:
            vals = [float(p) if vr == "DS" else int(float(p)) for p in parts if p]
        except (ValueError, OverflowError):
            raise Malformed(f"bad {vr} value {text!r}", offset=offset)
        if not vals:
            return None
        return vals if len(vals) > 1 else vals[0]
    return raw


def find_dataset_start(data):
    if len(data) >= 132 and data[128:132] == b"DICM":
        pos = 132
        tsuid = ""
        last = pos
        for ref in iter_elements(data, pos, explicit=True, stop_before_group=0x0002):
            if (ref.tag == (0x0002, 0x0010)
                    and ref.value_length != UNDEFINED_LENGTH):
                tsuid = _decode_string(data[ref.value_start:ref.value_end])
            last = ref.end
        if not tsuid:
            raise Malformed("file meta group missing TransferSyntaxUID", offset=pos)
        return last, tsuid != IMPLICIT_VR_LE, tsuid
    if len(data) < 8:
        raise Malformed("input shorter than one element", offset=0)
    explicit = _sniff_explicit(data, 0)
    tsuid = EXPLICIT_VR_LE if explicit else IMPLICIT_VR_LE
    group = read_header(data, 0, explicit=False).tag[0]
    if group == 0x0000 or group > 0x7FE0:
        raise NotDicom("not a DICOM file (no DICM magic, implausible "
                       "first tag)", offset=0)
    first = read_header(data, 0, explicit)
    if first.value_length != UNDEFINED_LENGTH and first.value_end > len(data):
        raise NotDicom("not a DICOM file (no DICM magic, first element length "
                       "past end of file)", offset=0)
    return 0, explicit, tsuid


def body_part_positions(data, start, explicit):
    """The byte range tag-write replaces, found as tag-write found it before
    parse_dicom recorded it, by walking the file again: the top-level
    (0018,0015) from its start to where the walk resumes after it, or the
    empty range at the first top-level element with a larger tag (at the
    end of the data when none)."""
    for ref in iter_elements(data, start, explicit):
        if ref.tag == TAG_BODY_PART:
            return ref.element_start, ref.end
        if ref.tag > TAG_BODY_PART:
            return ref.element_start, ref.element_start
    return len(data), len(data)


RECORDS = (ImageRecord, SeriesRecord, StudyRecord)
# Tag -> (table VR, index into RECORDS, field spec).
TAG_FIELDS = {tag: (vr, i, spec)
              for i, cls in enumerate(RECORDS)
              for spec in SIDECAR_FIELDS[cls]
              for tag, (_, vr, name) in TAG_TABLE.items()
              if name == spec[0]}


def reference_walk_parse(data, source_path=None):
    """parse_dicom on the walk above, with the body-part positions that
    tag-write's own walk found."""
    start, explicit, tsuid = find_dataset_start(data)
    records = [{name: default for name, _, _, _, default in SIDECAR_FIELDS[cls]}
               for cls in RECORDS]
    pixel_ref = None
    for ref in iter_elements(data, start, explicit=explicit):
        if ref.tag == TAG_PIXEL_DATA:
            pixel_ref = ref
            continue
        if ref.vr == "SQ" or ref.value_length == UNDEFINED_LENGTH:
            continue
        entry = TAG_FIELDS.get(ref.tag)
        if entry is None:
            continue
        table_vr, i, (name, typ, convert, _, default) = entry
        vr = ref.vr if ref.vr is not None else table_vr
        if vr in ("UN", "OB", "OW"):
            vr = table_vr
        value = decode_value(vr, data[ref.value_start:ref.value_end],
                             ref.value_start)
        if table_vr == "AS":
            value = _parse_age(value) if isinstance(value, str) else None
        if value is None or value == "":
            value = default
        else:
            if value.__class__ is list and typ is not None:
                value = value[0]
            try:
                if value.__class__ is not typ:
                    value = convert(value)
            except (TypeError, ValueError, OverflowError):
                value = default
        records[i][name] = value

    image_attrs, series_attrs, study_attrs = records
    image = ImageRecord(**image_attrs)
    image.transfer_syntax_uid = tsuid
    image.source_path = source_path
    if pixel_ref is not None:
        image.pixel_data_offset = pixel_ref.value_start
        image.pixel_data_length = (len(data) - pixel_ref.value_start
                                   if pixel_ref.value_length == UNDEFINED_LENGTH
                                   else pixel_ref.value_length)
    return ParsedFile(image=image, series_attrs=series_attrs,
                      study_attrs=study_attrs, explicit=explicit,
                      body_part_span=body_part_positions(data, start,
                                                         explicit))


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

    def test_bare_dataset_without_preamble(self):
        data = make_dicom(preamble=False)
        parsed = parse_dicom(data)
        assert parsed.image.sop_uid == "1.2.3.4.1"
        assert find_dataset_start(data)[0] == 0

    def test_rle_encapsulated_pixel_stream(self):
        data = make_dicom(pixels=b"\x01\x02\x03\x04",
                          transfer_syntax=RLE_LOSSLESS, encapsulated=True)
        parsed = parse_dicom(data)
        assert parsed.image.transfer_syntax_uid == RLE_LOSSLESS
        assert parsed.image.pixel_data_offset is not None

    def test_unknown_tags_are_skipped(self):
        # Private element (0009,0001) at its place must not derail parsing.
        extra = struct.pack("<HH", 0x0009, 0x0001) + b"LO" + struct.pack("<H", 4) + b"ACME"
        data = make_dicom(preamble=False)
        parsed = parse_dicom(splice_at_tag(data, extra))
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

    @pytest.mark.parametrize("data", [
        b'[\n  {"region": "Head"}\n]\n',  # group 0x0A5B, length past end
        b"\x00\x00" + b"\x00" * 30,  # group 0x0000
        b"\xe1\x7f" + b"\x00" * 30,  # group 0x7FE1
    ], ids=["json", "group_zero", "group_past_pixel_data"])
    def test_input_not_starting_like_dicom_is_not_dicom(self, data):
        with pytest.raises(NotDicom, match="not a DICOM file") as err:
            parse_dicom(data)
        assert err.value.offset == 0

    def test_fault_past_the_first_element_stays_malformed(self):
        data = make_dicom(preamble=False)
        with pytest.raises(Malformed) as err:
            parse_dicom(data[:len(data) - 3])
        assert type(err.value) is Malformed


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


# (0008,0006) LanguageCodeSequence, smaller than every tag make_dicom
# writes: it can open a bare dataset.
LEADING_SEQUENCE = sequence((0x0008, 0x0006), item())


def splice_at_tag(data, element):
    """`data` with `element` spliced in before the first top-level element
    with a larger tag."""
    start, explicit, _ = find_dataset_start(data)
    tag = struct.unpack_from("<HH", element)
    for ref in iter_elements(data, start, explicit):
        if ref.tag > tag:
            cut = ref.element_start
            return data[:cut] + element + data[cut:]
    raise AssertionError("no element after the insertion point")


def with_element(element, **kwargs):
    """make_dicom(**kwargs) with `element` spliced in at its tag's place."""
    data = make_dicom(pixels=np.arange(64, dtype="<u2"), **kwargs)
    return data, splice_at_tag(data, element)


def assert_same_metadata(data, nested):
    """Both parse alike; only the pixel data offset may move."""
    a, b = parse_dicom(data), parse_dicom(nested)
    assert b.image.pixel_data_offset - a.image.pixel_data_offset == (
        len(nested) - len(data))
    assert replace(b.image, pixel_data_offset=0) == replace(
        a.image, pixel_data_offset=0)
    assert (b.series_attrs, b.study_attrs) == (a.series_attrs, a.study_attrs)
    assert b.explicit == a.explicit
    assert find_dataset_start(nested)[0] == find_dataset_start(data)[0]


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
        data = LEADING_SEQUENCE + make_dicom(preamble=False)
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
        start = find_dataset_start(data)[0]
        seq = sequence((0x0002, 0x0100), items)
        (group_length,) = struct.unpack_from("<I", data, 140)
        spliced = (data[:140] + struct.pack("<I", group_length + len(seq))
                   + data[144:start] + seq + data[start:])
        parsed = parse_dicom(spliced)
        shift = len(seq)
        assert find_dataset_start(spliced)[0] == start + shift
        assert replace(parsed, image=replace(parsed.image, pixel_data_offset=(
            parsed.image.pixel_data_offset - shift))) == plain
        assert not parsed.explicit


# ---------------------------------------------------------------------------
# Record fields: one definition in records.py, filled through TAG_TABLE


def reference_parse_dicom(data, source_path=None):
    """parse_dicom as it was before records.py defined the record fields:
    a hand-written conversion per field. It shares the element walk and
    the value decoding with reference_walk_parse, so it checks the field
    mapping."""
    start, explicit, tsuid = find_dataset_start(data)

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
        values[keyword] = decode_value(vr, data[ref.value_start:ref.value_end],
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
                      study_attrs=study_attrs, explicit=explicit)


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
        for data in mutation_stream(25_000):
            new = outcome(parse_dicom, data)
            mismatched += new != outcome(reference_parse_dicom, data)
            parsed += isinstance(new, str)
        assert mismatched == 0
        # The stream reaches the field conversions: 2,408 of these parse.
        assert parsed > 2_000

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


# ---------------------------------------------------------------------------
# The inline walk against the walk it replaced


def walk_outcome(parse, data):
    """The ParsedFile's repr and body-part range, or the fault's class
    name, byte offset and message."""
    try:
        parsed = parse(data, source_path="a.dcm")
    except Malformed as exc:
        return type(exc).__name__, exc.offset, str(exc)
    return repr(parsed), parsed.body_part_span


def assert_matches_walk(data):
    assert walk_outcome(parse_dicom, data) == walk_outcome(
        reference_walk_parse, data)


def long_vr_element(tag, vr, items, length=UNDEFINED_LENGTH):
    """A long-VR element header with the value bytes `items` as they are."""
    return (struct.pack("<HH", *tag) + vr + b"\x00\x00"
            + struct.pack("<I", length) + items)


BODY_PART_CS = encode_element(TAG_BODY_PART, "CS", "CHEST")
# Explicit and implicit VR files to splice an element into.
SPLICE_BASES = {implicit: make_dicom(
    pixels=np.arange(64, dtype="<u2"),
    transfer_syntax=IMPLICIT_VR_LE if implicit else EXPLICIT_VR_LE)
    for implicit in (False, True)}


def at_dataset_start(data, element):
    """`data` with `element` put first in its dataset."""
    start = find_dataset_start(data)[0]
    return data[:start] + element + data[start:]


def fragment_tag_replaced(tag):
    """An encapsulated RLE file whose fragment item has `tag` instead, and
    where that header starts."""
    data = make_dicom(pixels=b"\x01\x02\x03\x04", transfer_syntax=RLE_LOSSLESS,
                      encapsulated=True)
    at = parse_dicom(data).image.pixel_data_offset + 8  # past the offset table
    return data[:at] + struct.pack("<HH", *tag) + data[at + 4:], at


EXPLICIT_BASE = SPLICE_BASES[False]
EXPLICIT_START = find_dataset_start(EXPLICIT_BASE)[0]
NON_ITEM_FRAGMENT, NON_ITEM_AT = fragment_tag_replaced((0x0008, 0x0018))
OUTSIDE_SEQUENCE = ("Malformed", EXPLICIT_START,
                    "item or delimiter outside a sequence")
# Where a second (0018,0015) goes: right after the base's own.
BODY_PART_END = body_part_positions(EXPLICIT_BASE, EXPLICIT_START, True)[1]
# Headers the spliced elements never produce, and the outcome each has: a
# fault's (class, offset, message start), or None where the file parses.
HEADER_CASES = {
    # A long-VR header cut after 10 of its 12 bytes, in an undefined-length
    # item of an explicit-VR sequence at the end of a file: (FFFA,FFFA)
    # DigitalSignaturesSequence, which follows the pixel data.
    "truncated_long_vr_in_item": (
        EXPLICIT_BASE + long_vr_element(
            (0xFFFA, 0xFFFA), b"SQ", struct.pack(
                "<HHI", 0xFFFE, 0xE000, UNDEFINED_LENGTH) + struct.pack(
                "<HH", 0x0009, 0x0011) + b"OB\x00\x00\x00\x00"),
        ("Malformed", len(EXPLICIT_BASE) + 12 + 8,
         "truncated long-VR header")),
    "unknown_vr_in_item": (
        at_dataset_start(EXPLICIT_BASE, sequence((0x0008, 0x1140), item(
            element((0x0009, 0x0010), b"ZZ", b"ab")))),
        ("Malformed", EXPLICIT_START + 12 + 8 + 4, "unknown VR b'ZZ'")),
    # An item or delimiter header (group FFFE) at the top level, of
    # defined or undefined length, is a fault at its own offset.
    "defined_item_at_top_level": (
        at_dataset_start(EXPLICIT_BASE, item(b"abcd", defined=True)),
        OUTSIDE_SEQUENCE),
    "undefined_item_at_top_level": (
        at_dataset_start(EXPLICIT_BASE, item(ref_uid())), OUTSIDE_SEQUENCE),
    "sequence_delimiter_at_top_level": (
        at_dataset_start(EXPLICIT_BASE, SEQ_DELIM), OUTSIDE_SEQUENCE),
    "undefined_item_delimiter_at_top_level": (
        at_dataset_start(EXPLICIT_BASE, struct.pack(
            "<HHI", 0xFFFE, 0xE00D, UNDEFINED_LENGTH) + item() + SEQ_DELIM),
        OUTSIDE_SEQUENCE),
    "implicit_item_at_top_level": (
        at_dataset_start(SPLICE_BASES[True], item(ref_uid(False))),
        ("Malformed", find_dataset_start(SPLICE_BASES[True])[0],
         "item or delimiter outside a sequence")),
    "non_item_tag_in_fragments": (
        NON_ITEM_FRAGMENT,
        ("Malformed", NON_ITEM_AT,
         "unexpected tag in undefined-length element")),
    # Top-level tags ascend strictly, in the dataset and in the file meta
    # group: a repeated or smaller tag is a fault at its own offset.
    "second_body_part_after_first": (
        splice_at_tag(EXPLICIT_BASE,
                      encode_element(TAG_BODY_PART, "CS", "PELVIS")),
        ("Malformed", BODY_PART_END, "duplicate tag")),
    "body_part_after_pixel_data": (
        EXPLICIT_BASE + BODY_PART_CS,
        ("Malformed", len(EXPLICIT_BASE), "tag out of order")),
    "repeated_transfer_syntax_in_meta": (
        at_dataset_start(EXPLICIT_BASE, encode_element(
            (0x0002, 0x0010), "UI", IMPLICIT_VR_LE)),
        ("Malformed", EXPLICIT_START, "duplicate tag")),
}


# The field sets of the stages that parse for some fields only.
RESTRICTED_FIELDS = {"tag_write": TAG_WRITE_FIELDS,
                     "classify": CLASSIFY_FIELDS}
# What a parse fills whatever its fields: the locator and transfer syntax.
ALWAYS_FILLED = {"transfer_syntax_uid", "source_path", "pixel_data_offset",
                 "pixel_data_length"}
FIELD_DEFAULTS = {name: default
                  for cls in (ImageRecord, SeriesRecord, StudyRecord)
                  for name, _, _, _, default in SIDECAR_FIELDS[cls]}
# The faults of a value decode, which only a parse decoding the value has.
VALUE_FAULT = re.compile(r"bad (DS|IS) value |U[SL] value shorter than ")


def parse_fields(data, fields=None):
    """Every field value of the parse of `data` (restricted to `fields`)
    with its `explicit` and body-part range, or the fault's class name,
    byte offset and message."""
    try:
        parsed = parse_dicom(data, source_path="a.dcm", fields=fields)
    except Malformed as exc:
        return type(exc).__name__, exc.offset, str(exc)
    values = {**vars(parsed.image), **parsed.series_attrs,
              **parsed.study_attrs}
    return values, parsed.explicit, parsed.body_part_span


class TestInlineWalk:
    def test_matches_walk_on_mutation_stream(self):
        mismatched = parsed = 0
        for data in mutation_stream(120_000):
            new = walk_outcome(parse_dicom, data)
            mismatched += new != walk_outcome(reference_walk_parse, data)
            parsed += new[0].startswith("ParsedFile(")
        assert mismatched == 0
        # 11,548 of these parse: a mutated tag is mostly out of order.
        assert parsed > 10_000

    def test_restricted_parse_on_mutation_stream(self):
        # A parse restricted to a stage's fields: where the full parse
        # succeeds, the same values of those fields, locator, `explicit`
        # and body-part range, and defaults everywhere else. The full parse
        # alone fails only on a value it decodes and the other does not.
        # Where the restricted parse fails, the full parse has the same
        # fault, or stopped before it at such a value: each parse raises
        # its first fault, and a truncated file may hold a bad DS or IS
        # before the cut.
        mismatched = []
        parsed, full_only = Counter(), Counter()
        for data in mutation_stream(120_000):
            full = parse_fields(data)
            for stage, fields in RESTRICTED_FIELDS.items():
                part = parse_fields(data, fields)
                if isinstance(full[0], dict):
                    values = full[0]
                    expected = {name: (values[name] if name in fields
                                       or name in ALWAYS_FILLED
                                       else FIELD_DEFAULTS[name])
                                for name in values}
                    # repr: a DS "NaN" is one NaN object per parse.
                    ok = repr(part) == repr((expected, *full[1:]))
                    parsed[stage] += 1
                elif isinstance(part[0], dict):
                    ok = bool(VALUE_FAULT.match(full[2]))
                    full_only[stage] += 1
                else:
                    ok = part == full or bool(VALUE_FAULT.match(full[2])
                                              and full[1] < part[1])
                if not ok:
                    mismatched.append((stage, data))
        assert mismatched == []
        for stage in RESTRICTED_FIELDS:
            assert parsed[stage] > 10_000
            assert full_only[stage] > 0

    def test_restricted_parse_names_record_fields(self):
        with pytest.raises(ValueError, match="no tag fills the fields "
                                             r"\['pixel_data_offset'\]"):
            parse_dicom(EXPLICIT_BASE, fields={"sop_uid", "pixel_data_offset"})

    @pytest.mark.parametrize("build", [cohorts.build_phantom42,
                                       cohorts.build_ct512_rle],
                             ids=["phantom42", "ct512_rle"])
    def test_matches_walk_on_benchmark_trees(self, build, tmp_path):
        cohort = build(1, str(tmp_path))
        files = tree_files(cohort.dicom_dir)
        for path in files:
            with open(path, "rb") as fh:
                assert_matches_walk(fh.read())
        assert len(files) == (cohort.shape["images"]
                              + cohort.shape["non_dicom_files_in_tree"])

    @settings(max_examples=300, deadline=None)
    @given(tag=st.sampled_from(sorted(TAG_TABLE)) | st.tuples(
               st.integers(0x0008, 0x7FE0), st.integers(0, 0xFFFF)),
           vr=st.sampled_from(sorted(KNOWN_VRS)) | st.binary(min_size=2,
                                                              max_size=2),
           raw=st.binary(max_size=24),
           length=st.sampled_from(["actual", "undefined", "past_end"])
           | st.integers(0, 40),
           implicit=st.booleans())
    def test_matches_walk_on_spliced_elements(self, tag, vr, raw, length,
                                              implicit):
        declared = {"actual": len(raw), "undefined": UNDEFINED_LENGTH,
                    "past_end": 1 << 20}.get(length, length)
        head = struct.pack("<HH", *tag)
        if implicit:
            element = head + struct.pack("<I", declared) + raw
        elif vr in LONG_VRS:
            element = head + vr + b"\x00\x00" + struct.pack("<I",
                                                            declared) + raw
        else:
            element = head + vr + struct.pack("<H", declared & 0xFFFF) + raw
        data = SPLICE_BASES[implicit]
        if tag >= TAG_PIXEL_DATA:
            spliced = data + element
        else:
            spliced = splice_at_tag(data, element)
        assert_matches_walk(spliced)
        assert_matches_walk(spliced[128:])  # no preamble: a bare dataset

    @pytest.mark.parametrize("nested", [
        *(with_element(EXPLICIT_NESTED[case])[1]
          for case in sorted(EXPLICIT_NESTED)),
        with_element(sequence((0x0008, 0x1140), item(ref_uid(False))
                              + item(), explicit=False),
                     transfer_syntax=IMPLICIT_VR_LE)[1],
        LEADING_SEQUENCE + make_dicom(preamble=False),
        # An undefined-length body part, and one in a sequence (not a
        # top-level element).
        with_element(long_vr_element(TAG_BODY_PART, b"UN", item()
                                     + SEQ_DELIM), BodyPartExamined=None)[1],
        with_element(sequence((0x0008, 0x1140), item(BODY_PART_CS)),
                     BodyPartExamined=None)[1],
        # A defined-length SQ under a table tag fills nothing.
        with_element(long_vr_element(ROWS, b"SQ", b"12", length=2),
                     Rows=None)[1],
        # Faults: unterminated, an item delimiter at depth 0, a header cut
        # short inside an item, and a sequence cut at its item.
        long_vr_element((0x0008, 0x1140), b"SQ", item(ref_uid())[:-8]
                        + SEQ_DELIM),
        long_vr_element((0x0008, 0x1140), b"SQ", ITEM_DELIM + SEQ_DELIM),
        long_vr_element((0x0008, 0x1140), b"SQ", struct.pack(
            "<HHI", 0xFFFE, 0xE000, UNDEFINED_LENGTH) + struct.pack(
            "<HH", 0x0009, 0x0010) + b"OB\x00\x00\x00\x00"),
        long_vr_element((0x0008, 0x1140), b"SQ", struct.pack(
            "<HHI", 0xFFFE, 0xE000, 0)),
    ], ids=[*sorted(EXPLICIT_NESTED), "implicit_nested", "leading_sequence",
            "undefined_body_part", "body_part_in_sequence", "defined_sq_rows",
            "unterminated_item",
            "item_delimiter_at_depth_0", "truncated_nested_header",
            "unterminated_sequence"])
    def test_matches_walk_on_nested_fixtures(self, nested):
        assert_matches_walk(nested)

    @pytest.mark.parametrize("case", HEADER_CASES)
    def test_matches_walk_on_header_cases(self, case):
        data, fault = HEADER_CASES[case]
        assert_matches_walk(data)
        outcome = walk_outcome(parse_dicom, data)
        if fault is None:
            assert outcome[0].startswith("ParsedFile(")
        else:
            name, offset, message = fault
            assert outcome[:2] == (name, offset)
            assert outcome[2].startswith(message)

    @pytest.mark.parametrize("meta,replaces,fault", [
        # Undefined length: a value with no defined end declares no
        # transfer syntax, so the meta group has none.
        (long_vr_element((0x0002, 0x0010), b"UN", item() + SEQ_DELIM), True,
         ("Malformed", 132, "file meta group missing TransferSyntaxUID "
          "(at byte offset 132)")),
        # A second one after the file's own: a duplicate tag.
        (encode_element((0x0002, 0x0010), "UI", IMPLICIT_VR_LE), False,
         ("Malformed", EXPLICIT_START,
          f"duplicate tag (at byte offset {EXPLICIT_START})")),
        # Read as text whatever its VR.
        (element((0x0002, 0x0010), b"US", b""), True, None),
        (element((0x0002, 0x0010), b"SQ", b"1.2.840.10008.1.2\x00"), True,
         None),
    ], ids=["undefined_length", "repeated", "empty_us", "defined_sq"])
    def test_meta_transfer_syntax_element(self, meta, replaces, fault):
        data, start = EXPLICIT_BASE, EXPLICIT_START
        # The file's own (0002,0010) follows the 12-byte group length at
        # 132 and ends the meta group.
        spliced = data[:144 if replaces else start] + meta + data[start:]
        assert_matches_walk(spliced)
        if fault is not None:
            assert walk_outcome(parse_dicom, spliced) == fault

    @pytest.mark.parametrize("case", ["present", "absent", "after_larger"])
    def test_body_part_positions(self, case):
        absent = make_dicom(pixels=np.arange(64, dtype="<u2"),
                            BodyPartExamined=None)
        data = {"present": make_dicom(pixels=np.arange(64, dtype="<u2")),
                "absent": absent,
                "after_larger": absent + BODY_PART_CS}[case]
        if case == "after_larger":
            # Out of order: the file is a fault, with no range to replace.
            assert walk_outcome(parse_dicom, data)[:2] == ("Malformed",
                                                           len(absent))
            return
        start, end = parse_dicom(data).body_part_span
        assert (start, end) == body_part_positions(
            data, *find_dataset_start(data)[:2])
        assert data[start:end] == (BODY_PART_CS if case == "present" else b"")
        # (0018,0050) SliceThickness is the first larger tag.
        assert data[end:end + 4] == struct.pack("<HH", 0x0018, 0x0050)


# ---------------------------------------------------------------------------
# The field decoder's branches against the walk it replaced

SOP_CLASS = (0x0008, 0x0016)
MODALITY = (0x0008, 0x0060)
PATIENT_AGE = (0x0010, 0x1010)
SLICE_THICKNESS = (0x0018, 0x0050)

# Each case: the element, the make_dicom keyword whose own element it
# replaces, and the field value it gives, or the message of the fault at
# its value's offset (past an 8-byte header).
DECODER_CASES = {
    "ul_int_field": (element(ROWS, b"UL", struct.pack("<I", 12)), "Rows",
                     ("rows", 12)),
    "short_us_int_field": (element(ROWS, b"US", b"\x01"), "Rows",
                           "US value shorter than 2 bytes"),
    "short_us_text_field": (element(SOP_CLASS, b"US", b"\x01"),
                            "SOPClassUID", "US value shorter than 2 bytes"),
    "multi_valued_ds_scalar": (element(SLICE_THICKNESS, b"DS", b"2.5\\3.0 "),
                               "SliceThickness", ("slice_thickness", 2.5)),
    "infinite_is": (element(INSTANCE_NUMBER, b"IS", b"inf "),
                    "InstanceNumber", "bad IS value 'inf'"),
    "as_field_non_text_vr": (element(PATIENT_AGE, b"US", _U16.pack(45)),
                             "PatientAge", ("patient_age", None)),
    "ob_text_field": (long_vr_element(MODALITY, b"OB", b"MR", length=2),
                      "Modality", ("modality", "MR")),
}


class TestFieldDecoder:
    @pytest.mark.parametrize("case", DECODER_CASES)
    def test_branch_matches_walk(self, case):
        spliced, keyword, expected = DECODER_CASES[case]
        _, data = with_element(spliced, **{keyword: None})
        assert_matches_walk(data)
        if isinstance(expected, str):
            offset = data.index(spliced) + 8
            assert walk_outcome(parse_dicom, data) == (
                "Malformed", offset, f"{expected} (at byte offset {offset})")
        else:
            parsed = parse_dicom(data)
            name, value = expected
            assert {**vars(parsed.image), **parsed.series_attrs,
                    **parsed.study_attrs}[name] == value
