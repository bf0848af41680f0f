"""Minimal DICOM reader/writer for the tags this pipeline needs.

Reads Part-10 files (128-byte preamble + "DICM" + file meta group) and bare
explicit/implicit VR little-endian datasets. One reader, `_header`, reads
every element and item header: at the top level, nested, and in the pixel
fragment stream (pixels.decode_pixels). One top-level walk (`_walk`) reads
the file meta group and then the dataset, one header per element: it fills
the record fields of the TAG_TABLE elements, skips every other element by
length, and hands an undefined-length value (a sequence or encapsulated
pixel data), with the header it read, to `_skip_undefined`, the one nested
walker. The pixel data element is located but never decoded here (see
pixels.decode_pixels). Top-level tags ascend strictly, so every field comes
from the one occurrence of its tag. The walk also records the byte range
BodyPartExamined takes, or the empty range where it would go, so that
tag-write splices without walking the file again.

Every structural fault raises Malformed with the byte offset of the fault,
NotDicom (a Malformed) for input that does not start like DICOM at all;
no input byte string may crash the reader or trigger unbounded allocation.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .errors import Malformed, NotDicom
from .records import SIDECAR_FIELDS, ImageRecord, SeriesRecord, StudyRecord

# Transfer syntaxes the pipeline recognizes.
IMPLICIT_VR_LE = "1.2.840.10008.1.2"
EXPLICIT_VR_LE = "1.2.840.10008.1.2.1"
RLE_LOSSLESS = "1.2.840.10008.1.2.5"
JPEG_LOSSLESS_SV1 = "1.2.840.10008.1.2.4.70"
JPEG_LOSSLESS = "1.2.840.10008.1.2.4.57"

NATIVE_SYNTAXES = {IMPLICIT_VR_LE, EXPLICIT_VR_LE}
JPEG_LOSSLESS_SYNTAXES = {JPEG_LOSSLESS_SV1, JPEG_LOSSLESS}
# The syntaxes pixels.decode_pixels can decode; every other one raises
# UnsupportedCodec there.
DECODABLE_SYNTAXES = NATIVE_SYNTAXES | {RLE_LOSSLESS}
# Codec whitelist: anything else is excluded at the cohort filter. It is a
# superset of DECODABLE_SYNTAXES because an external score file can score
# JPEG lossless images that nothing here decodes.
ACCEPTED_SYNTAXES = DECODABLE_SYNTAXES | JPEG_LOSSLESS_SYNTAXES

# VRs that use the 12-byte explicit header (2 reserved + 4-byte length).
_LONG_VRS = {b"OB", b"OW", b"OF", b"OD", b"OL", b"SQ", b"UC", b"UR", b"UT", b"UN"}
_KNOWN_VRS = _LONG_VRS | {
    b"AE", b"AS", b"AT", b"CS", b"DA", b"DS", b"DT", b"FL", b"FD", b"IS",
    b"LO", b"LT", b"PN", b"SH", b"SL", b"SS", b"ST", b"TM", b"UI", b"UL",
    b"US",
}

# Header layouts, little endian. Implicit VR, and every item or delimiter
# header (group FFFE), is tag + 4-byte length; explicit VR is tag + VR +
# 2-byte length, or for a long VR tag + VR + 2 reserved + 4-byte length.
_IMPLICIT_HEADER = struct.Struct("<HHI")
_EXPLICIT_HEADER = struct.Struct("<HH2sH")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

TAG_PIXEL_DATA = (0x7FE0, 0x0010)
TAG_BODY_PART = (0x0018, 0x0015)
# Item and delimiter tags as one int, the way `_header` reads a tag, and
# the bounds of their group FFFE, which holds no top-level element.
_ITEM_GROUP_START, _ITEM_GROUP_END = 0xFFFE0000, 0xFFFF0000
TAG_ITEM = 0xFFFEE000
TAG_ITEM_DELIM = 0xFFFEE00D
TAG_SEQ_DELIM = 0xFFFEE0DD
UNDEFINED_LENGTH = 0xFFFFFFFF

# Tag -> (keyword, VR, record field) for everything the pipeline extracts or
# writes. The field is the one in records.py that the tag's value fills.
TAG_TABLE = {
    (0x0002, 0x0010): ("TransferSyntaxUID", "UI", "transfer_syntax_uid"),
    (0x0008, 0x0016): ("SOPClassUID", "UI", "sop_class_uid"),
    (0x0008, 0x0018): ("SOPInstanceUID", "UI", "sop_uid"),
    (0x0008, 0x0060): ("Modality", "CS", "modality"),
    (0x0008, 0x1030): ("StudyDescription", "LO", "procedure_description"),
    (0x0008, 0x103E): ("SeriesDescription", "LO", "series_description"),
    (0x0008, 0x0070): ("Manufacturer", "LO", "manufacturer"),
    (0x0008, 0x0080): ("InstitutionName", "LO", "institution"),
    (0x0010, 0x0020): ("PatientID", "LO", "patient_id"),
    (0x0010, 0x1010): ("PatientAge", "AS", "patient_age"),
    (0x0010, 0x0040): ("PatientSex", "CS", "patient_sex"),
    (0x0018, 0x0010): ("ContrastBolusAgent", "LO", "contrast_agent"),
    TAG_BODY_PART: ("BodyPartExamined", "CS", "body_part_examined"),
    (0x0018, 0x0050): ("SliceThickness", "DS", "slice_thickness"),
    (0x0018, 0x1210): ("ConvolutionKernel", "SH", "convolution_kernel"),
    (0x0020, 0x000D): ("StudyInstanceUID", "UI", "study_uid"),
    (0x0020, 0x000E): ("SeriesInstanceUID", "UI", "series_uid"),
    (0x0020, 0x0013): ("InstanceNumber", "IS", "instance_number"),
    (0x0020, 0x0032): ("ImagePositionPatient", "DS", "image_position_patient"),
    (0x0020, 0x0037): ("ImageOrientationPatient", "DS", "image_orientation_patient"),
    (0x0020, 0x0052): ("FrameOfReferenceUID", "UI", "frame_of_reference_uid"),
    (0x0028, 0x0002): ("SamplesPerPixel", "US", "samples_per_pixel"),
    (0x0028, 0x0010): ("Rows", "US", "rows"),
    (0x0028, 0x0011): ("Columns", "US", "cols"),
    (0x0028, 0x0100): ("BitsAllocated", "US", "bits_allocated"),
    (0x0028, 0x0101): ("BitsStored", "US", "bits_stored"),
    TAG_PIXEL_DATA: ("PixelData", "OW", None),
}

VR_BY_TAG = {tag: vr for tag, (_, vr, _) in TAG_TABLE.items()}
_TAG_BY_KEYWORD = {kw: tag for tag, (kw, _, _) in TAG_TABLE.items()}


def _int_tag(tag: tuple) -> int:
    return tag[0] << 16 | tag[1]


_PIXEL_DATA = _int_tag(TAG_PIXEL_DATA)
_TRANSFER_SYNTAX = _int_tag((0x0002, 0x0010))
_BODY_PART = _int_tag(TAG_BODY_PART)


def _header(data: bytes, pos: int, explicit: bool):
    """Read the element or item header at `pos`, whose first 8 bytes the
    caller has checked are there, in either VR encoding: (tag as one int,
    VR bytes or None, value start, value length). An item or delimiter
    header (group FFFE) is implicit in either encoding."""
    if explicit:
        group, element, vr, length = _EXPLICIT_HEADER.unpack_from(data, pos)
        if group != 0xFFFE:
            if vr in _LONG_VRS:
                if pos + 12 > len(data):
                    raise Malformed("truncated long-VR header", offset=pos)
                return (group << 16 | element, vr, pos + 12,
                        _U32.unpack_from(data, pos + 8)[0])
            if vr in _KNOWN_VRS:
                return group << 16 | element, vr, pos + 8, length
            raise Malformed(f"unknown VR {vr!r}", offset=pos + 4)
    group, element, length = _IMPLICIT_HEADER.unpack_from(data, pos)
    return group << 16 | element, None, pos + 8, length


def _opened(tag: int, vr: Optional[bytes], explicit: bool):
    """What an undefined-length header opens: (in_item, explicit, fragments).

    An item opens a nested dataset in the same encoding. A sequence opens a
    list of items in the dataset's encoding, an undefined-length UN one in
    implicit VR (PS3.5 6.2.2), and pixel data or any other VR a list of
    defined-length fragments.
    """
    if tag == TAG_ITEM:
        return True, explicit, False
    if vr == b"SQ" or (vr is None and tag != _PIXEL_DATA):
        return False, explicit, False
    return False, False, vr != b"UN"


def _skip_undefined(data: bytes, tag: int, vr: Optional[bytes], pos: int,
                    explicit: bool) -> int:
    """Step over the value, from `pos`, of the undefined-length element
    whose header `_header` read as `tag` and `vr`: a list of items closed
    by a sequence delimiter, where an undefined-length item is a dataset
    closed by an item delimiter. Returns the position just past the
    element's sequence delimiter.
    """
    n = len(data)
    # Open containers, innermost last: (in_item, explicit, fragments).
    stack = [_opened(tag, vr, explicit)]
    while True:
        if pos + 8 > n:
            raise Malformed("unterminated undefined-length element", offset=pos)
        in_item, enc, fragments = stack[-1]
        # A list holds only item and delimiter headers, read as implicit.
        tag, vr, value_start, length = _header(data, pos, in_item and enc)
        if tag == TAG_ITEM_DELIM or tag == TAG_SEQ_DELIM:
            if (tag == TAG_ITEM_DELIM) != in_item:
                kind = "sequence" if in_item else "item"
                raise Malformed(f"unexpected {kind} delimiter", offset=pos)
            stack.pop()
            if not stack:
                return value_start
            pos = value_start
        elif (tag == TAG_ITEM) == in_item:
            raise Malformed("unexpected tag in undefined-length element",
                            offset=pos)
        elif length == UNDEFINED_LENGTH:
            if fragments:
                raise Malformed("undefined-length fragment", offset=pos)
            stack.append(_opened(tag, vr, enc))
            pos = value_start
        elif length > n - value_start:
            raise Malformed("value length past end of data", offset=pos)
        else:
            pos = value_start + length


# VRs whose value is text.
_STRING_VRS = {b"UI", b"CS", b"LO", b"SH", b"AS", b"AE", b"PN", b"ST", b"LT",
               b"DA", b"TM"}


def _decode_string(raw: bytes) -> str:
    return raw.decode("latin-1").strip("\x00 ")


def _parse_age(text: str) -> Optional[float]:
    """DICOM AS value ('045Y', '006M', ...) to years."""
    if not text:
        return None
    unit = text[-1].upper()
    try:
        num = float(text[:-1]) if unit in "YMWD" else float(text)
    except ValueError:
        return None
    return {"Y": num, "M": num / 12.0, "W": num / 52.0, "D": num / 365.0}.get(unit, num)


# The records parse_dicom fills: its image record, then the series and
# study attributes.
_RECORDS = (ImageRecord, SeriesRecord, StudyRecord)
_DEFAULTS = tuple({name: default for name, _, _, _, default
                   in SIDECAR_FIELDS[cls]} for cls in _RECORDS)


# Tag as one int -> (table VR, index into _RECORDS, field name, type,
# conversion, default) for each tag that fills a record field.
_TAG_FIELDS = {_int_tag(tag): (vr.encode(), i, name, typ, convert, default)
               for i, cls in enumerate(_RECORDS)
               for name, typ, convert, _, default in SIDECAR_FIELDS[cls]
               for tag, (_, vr, field_name) in TAG_TABLE.items()
               if field_name == name}
# A value in one of these VRs is decoded by the table's VR.
_TABLE_DECODED_VRS = {b"UN", b"OB", b"OW"}


@functools.cache
def _field_table(fields: frozenset) -> dict:
    """The entries of _TAG_FIELDS that fill one of the record fields
    `fields`."""
    unknown = fields - {entry[2] for entry in _TAG_FIELDS.values()}
    if unknown:
        raise ValueError(f"no tag fills the fields {sorted(unknown)}")
    return {tag: entry for tag, entry in _TAG_FIELDS.items()
            if entry[2] in fields}


def _field_value(vr: bytes, raw: bytes, offset: int, table_vr: bytes, typ,
                 convert, default):
    """A record field's value from its element's value bytes `raw`, which
    start at `offset`, by the general rule: decode by VR (text, US, UL, DS
    or IS; any other VR leaves the bytes), then convert leniently."""
    if vr in _STRING_VRS:
        value = _decode_string(raw)
    elif vr == b"US" or vr == b"UL":
        unpack = _U16 if vr == b"US" else _U32
        if len(raw) < unpack.size:
            raise Malformed(f"{vr.decode()} value shorter than "
                            f"{unpack.size} bytes", offset=offset)
        value = unpack.unpack_from(raw)[0]
    elif vr == b"DS" or vr == b"IS":
        text = _decode_string(raw)
        try:
            values = [float(p) if vr == b"DS" else int(float(p))
                      for p in map(str.strip, text.split("\\")) if p]
        except (ValueError, OverflowError):  # int(float("inf")) overflows
            raise Malformed(f"bad {vr.decode()} value {text!r}", offset=offset)
        # A corrupted VR can turn any tag into arbitrary data, so the policy
        # is lenient: a scalar field takes the first of several values.
        value = (values if len(values) > 1 and typ is None
                 else values[0] if values else None)
    else:
        value = raw
    if table_vr == b"AS":
        value = _parse_age(value) if isinstance(value, str) else None
    # An empty or unconvertible value gives the field's default.
    if value is None or value == "":
        return default
    try:
        return value if value.__class__ is typ else convert(value)
    except (TypeError, ValueError, OverflowError):
        return default


class _Walk(NamedTuple):
    """What a top-level walk found, as byte offsets into the data."""

    end: int  # where the walk stopped
    pixel_data: Optional[tuple]  # (7FE0,0010): (value start, length)
    transfer_syntax: Optional[tuple]  # (0002,0010): (value start, value end)
    # (0018,0015): (element start, where the walk resumed after it); when
    # absent, the empty range at the first element with a larger tag, or
    # at the end of the walk.
    body_part: tuple


def _walk(data: bytes, pos: int, explicit: bool, records=None,
          keep_group: Optional[int] = None, table=_TAG_FIELDS) -> _Walk:
    """Walk the top-level elements from `pos` to the end of `data`, or with
    `keep_group` to the first element of another group.

    This is the one top-level walk: of the file meta group and of the
    dataset. A dataset element costs one `_header` call and builds no
    object. An undefined-length value (a sequence or encapsulated pixel
    data) is stepped over by `_skip_undefined`, from the header read here.
    Tags must ascend strictly (PS3.5 7.1), so each tag occurs at most once;
    a tag not greater than the one before it raises Malformed at its
    element's offset. An item or delimiter header (group FFFE) belongs
    inside a sequence or a fragment list, so one at the top level raises
    Malformed at its offset.
    Each element whose tag `table` (entries of _TAG_FIELDS) lists sets its
    field of `records` (a field dict per record of _RECORDS); sequences and
    undefined-length values fill nothing, and an undefined-length
    (0002,0010) declares no transfer syntax.
    """
    n = len(data)
    get_field = (table if records is not None else {}).get
    header = _header
    u16 = _U16.unpack_from
    pixel_data = transfer_syntax = body_part = None
    last = -1
    while pos < n:
        if n - pos < 8:
            raise Malformed("trailing garbage shorter than an element",
                            offset=pos)
        if keep_group is not None and u16(data, pos)[0] != keep_group:
            break
        tag, vr, value_start, length = header(data, pos, explicit)
        if not last < tag < _ITEM_GROUP_START:
            if tag <= last:
                raise Malformed("duplicate tag" if tag == last
                                else "tag out of order", offset=pos)
            if tag < _ITEM_GROUP_END:
                raise Malformed("item or delimiter outside a sequence",
                                offset=pos)
        last = tag
        if length == UNDEFINED_LENGTH:
            end = _skip_undefined(data, tag, vr, value_start, explicit)
        elif length > n - value_start:
            raise Malformed("element length past end of file", offset=pos)
        else:
            end = value_start + length
            entry = get_field(tag)
            if entry is not None and vr != b"SQ":
                table_vr, i, name, typ, convert, default = entry
                if vr is None or vr in _TABLE_DECODED_VRS:
                    vr = table_vr
                # Fast paths for the common cases; the same values as
                # _field_value gives.
                if typ is str and vr in _STRING_VRS:
                    value = data[value_start:end].decode("latin-1").strip(
                        "\x00 ") or default
                elif typ is int and vr == b"US":
                    if length < 2:
                        raise Malformed("US value shorter than 2 bytes",
                                        offset=value_start)
                    value = u16(data, value_start)[0]
                else:
                    value = _field_value(vr, data[value_start:end],
                                         value_start, table_vr, typ, convert,
                                         default)
                records[i][name] = value

        if tag >= _BODY_PART:
            if body_part is None:
                body_part = (pos, end if tag == _BODY_PART else pos)
            if tag == _PIXEL_DATA:
                pixel_data = (value_start, length)
        elif tag == _TRANSFER_SYNTAX and length != UNDEFINED_LENGTH:
            transfer_syntax = (value_start, end)
        pos = end
    return _Walk(pos, pixel_data, transfer_syntax, body_part or (pos, pos))


@dataclass
class ParsedFile:
    """Result of parsing one DICOM file: image record + parent attributes."""

    image: ImageRecord
    series_attrs: dict = field(default_factory=dict)
    study_attrs: dict = field(default_factory=dict)
    explicit: bool = True
    # The byte range tag-write replaces with its (0018,0015), as the walk
    # recorded it: the element from its start to where the walk resumed
    # after it, or the empty range where the element would go.
    body_part_span: tuple = field(default=(0, 0), compare=False, repr=False)


def _sniff_explicit(data: bytes, pos: int) -> bool:
    """Guess explicit vs implicit VR for a bare dataset."""
    if pos + 6 > len(data):
        return True
    return data[pos + 4:pos + 6] in _KNOWN_VRS


def _find_dataset_start(data: bytes):
    """Locate the dataset and its encoding. Returns (start, explicit, tsuid)."""
    if len(data) >= 132 and data[128:132] == b"DICM":
        # File meta group is always explicit VR LE, group 0002.
        meta = _walk(data, 132, explicit=True, keep_group=0x0002)
        tsuid = ""
        if meta.transfer_syntax is not None:
            value_start, value_end = meta.transfer_syntax
            tsuid = _decode_string(data[value_start:value_end])
        if not tsuid:
            raise Malformed("file meta group missing TransferSyntaxUID",
                            offset=132)
        return meta.end, tsuid != IMPLICIT_VR_LE, tsuid
    # Bare dataset: no preamble, no declared transfer syntax.
    if len(data) < 8:
        raise Malformed("input shorter than one element", offset=0)
    explicit = _sniff_explicit(data, 0)
    tsuid = EXPLICIT_VR_LE if explicit else IMPLICIT_VR_LE
    # Without the magic, the first element must look like one: a plausible
    # group number, and a defined value length that ends inside the data.
    (group,) = _U16.unpack_from(data)
    if group == 0x0000 or group > 0x7FE0:
        raise NotDicom("not a DICOM file (no DICM magic, implausible "
                       "first tag)", offset=0)
    _, _, value_start, length = _header(data, 0, explicit)
    if length != UNDEFINED_LENGTH and length > len(data) - value_start:
        raise NotDicom("not a DICOM file (no DICM magic, first element "
                       "length past end of file)", offset=0)
    return 0, explicit, tsuid


def parse_dicom(data: bytes, source_path: Optional[str] = None, *,
                fields: Optional[Iterable[str]] = None) -> ParsedFile:
    """Parse one DICOM byte stream into an image record plus parent attrs.

    The TAG_TABLE tags that fill the record fields named in `fields` (all
    of them when None) are extracted when present; every other field keeps
    its default, and everything else is skipped by length. The structure
    checks, the pixel data locator (located, not decoded), the transfer
    syntax, `explicit` and `body_part_span` do not depend on `fields`; a
    value that cannot be decoded (a bad DS or IS, a short US or UL) raises
    only when its field is listed.
    """
    start, explicit, tsuid = _find_dataset_start(data)
    table = _TAG_FIELDS if fields is None else _field_table(frozenset(fields))
    # Field values of each record in _RECORDS; a missing tag leaves the
    # field at its default.
    records = [dict(defaults) for defaults in _DEFAULTS]
    walk = _walk(data, start, explicit, records, table=table)
    image_attrs, series_attrs, study_attrs = records
    # The file meta group, not the dataset, declares the transfer syntax.
    image_attrs["transfer_syntax_uid"] = tsuid
    image_attrs["source_path"] = source_path
    if walk.pixel_data is not None:
        offset, length = walk.pixel_data
        image_attrs["pixel_data_offset"] = offset
        image_attrs["pixel_data_length"] = (len(data) - offset
                                            if length == UNDEFINED_LENGTH
                                            else length)
    return ParsedFile(image=ImageRecord(**image_attrs),
                      series_attrs=series_attrs, study_attrs=study_attrs,
                      explicit=explicit, body_part_span=walk.body_part)


# ---------------------------------------------------------------------------
# Writing


def _encode_value(vr: str, value) -> bytes:
    if vr == "US":
        return struct.pack("<H", int(value))
    if vr == "UL":
        return struct.pack("<I", int(value))
    if vr in ("OB", "OW"):
        return bytes(value)
    if vr in ("DS", "IS"):
        if isinstance(value, (list, tuple)):
            text = "\\".join(_format_number(v, vr) for v in value)
        else:
            text = _format_number(value, vr)
        raw = text.encode("ascii")
    else:
        raw = str(value).encode("latin-1")
    if len(raw) % 2:
        raw += b"\x00" if vr == "UI" else b" "
    return raw


def _format_number(v, vr) -> str:
    if vr == "IS":
        return str(int(v))
    text = f"{float(v):.6f}".rstrip("0").rstrip(".")
    return text if len(text) <= 16 else f"{float(v):.10g}"


def encode_element(tag: tuple, vr: str, value, explicit: bool = True) -> bytes:
    raw = _encode_value(vr, value)
    head = struct.pack("<HH", tag[0], tag[1])
    if explicit:
        if vr.encode() in _LONG_VRS:
            return head + vr.encode() + b"\x00\x00" + struct.pack("<I", len(raw)) + raw
        return head + vr.encode() + struct.pack("<H", len(raw)) + raw
    return head + struct.pack("<I", len(raw)) + raw


def build_dicom(dataset: dict, transfer_syntax: str = EXPLICIT_VR_LE,
                pixel_payload: Optional[bytes] = None,
                encapsulated: bool = False, preamble: bool = True) -> bytes:
    """Serialize a {keyword: value} dict into a DICOM byte stream.

    `dataset` keys are keywords from TAG_TABLE; tags are emitted in
    ascending order as the standard requires. `pixel_payload` becomes the
    (7FE0,0010) value; `encapsulated` wraps it in a single-fragment item
    stream (used for RLE).
    """
    elements = []
    for keyword, value in dataset.items():
        if value is None:
            continue
        tag = _TAG_BY_KEYWORD[keyword]
        if tag[0] == 0x0002:
            continue
        elements.append((tag, VR_BY_TAG[tag], value))
    elements.sort(key=lambda e: e[0])

    explicit = transfer_syntax != IMPLICIT_VR_LE
    body = b"".join(encode_element(t, vr, v, explicit) for t, vr, v in elements)

    if pixel_payload is not None:
        if encapsulated:
            # Basic offset table (empty) + one fragment + sequence delimiter.
            frag = bytes(pixel_payload)
            if len(frag) % 2:
                frag += b"\x00"
            stream = (struct.pack("<HHI", 0xFFFE, 0xE000, 0)
                      + struct.pack("<HHI", 0xFFFE, 0xE000, len(frag)) + frag
                      + struct.pack("<HHI", 0xFFFE, 0xE0DD, 0))
            body += (struct.pack("<HH", 0x7FE0, 0x0010) + b"OB\x00\x00"
                     + struct.pack("<I", UNDEFINED_LENGTH) + stream)
        else:
            body += encode_element(TAG_PIXEL_DATA, "OW", pixel_payload, explicit)

    if not preamble:
        return body

    meta = encode_element((0x0002, 0x0010), "UI", transfer_syntax, explicit=True)
    group_len = encode_element((0x0002, 0x0000), "UL", len(meta), explicit=True)
    return b"\x00" * 128 + b"DICM" + group_len + meta + body
