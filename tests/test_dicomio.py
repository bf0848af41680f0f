"""DICOM parser/writer: round trips, VR handling, and malformed inputs."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from bodyregion.dicomio import (EXPLICIT_VR_LE, IMPLICIT_VR_LE, RLE_LOSSLESS,
                                _parse_age, build_dicom, encode_element,
                                iter_elements, parse_dicom)
from bodyregion.errors import Malformed
from bodyregion.ingest import ingest_tree

from conftest import AXIAL, make_dicom


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
