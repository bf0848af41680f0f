"""Minimal DICOM reader/writer for the tags this pipeline needs.

Reads Part-10 files (128-byte preamble + "DICM" + file meta group) and bare
explicit/implicit VR little-endian datasets. One top-level walk (`_walk`)
reads the file meta group and then the dataset, one header unpack per
element: it fills the record fields of the TAG_TABLE elements, skips every
other element by length, and leaves an undefined-length value (a sequence
or encapsulated pixel data) to `_skip_undefined`, the one nested walker.
The pixel data element is located but never decoded here (see
pixels.decode_pixels). The walk also records where BodyPartExamined is, or
would go, so that tag-write splices without walking the file again.

Every structural fault raises Malformed with the byte offset of the fault;
no input byte string may crash the reader or trigger unbounded allocation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import Malformed
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
_LONG_VR_NAMES = {vr.decode() for vr in _LONG_VRS}

# Header layouts, little endian. Implicit VR, and every item or delimiter
# header (group FFFE), is tag + 4-byte length; explicit VR is tag + VR +
# 2-byte length, or tag + VR + 2 reserved + 4-byte length for the long VRs.
_IMPLICIT_HEADER = struct.Struct("<HHI")
_EXPLICIT_LAYOUTS = {vr: (vr.decode(), struct.Struct(
    "<HH4xI" if vr in _LONG_VRS else "<HH2xH")) for vr in _KNOWN_VRS}
_ITEM_GROUP = b"\xfe\xff"
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

TAG_PIXEL_DATA = (0x7FE0, 0x0010)
TAG_BODY_PART = (0x0018, 0x0015)
TAG_ITEM = (0xFFFE, 0xE000)
TAG_ITEM_DELIM = (0xFFFE, 0xE00D)
TAG_SEQ_DELIM = (0xFFFE, 0xE0DD)
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


@dataclass
class ElementRef:
    """One element or item header located in a byte buffer (value not
    copied)."""

    tag: tuple
    vr: Optional[str]
    element_start: int
    value_start: int
    value_length: int  # UNDEFINED_LENGTH for encapsulated/undefined

    @property
    def value_end(self) -> int:
        return self.value_start + self.value_length


def _read_header(data: bytes, pos: int, explicit: bool) -> ElementRef:
    """Read the element or item header at `pos`, in either VR encoding."""
    if pos + 8 > len(data):
        raise Malformed("truncated element header", offset=pos)
    if explicit and data[pos:pos + 2] != _ITEM_GROUP:
        vr = data[pos + 4:pos + 6]
        layout = _EXPLICIT_LAYOUTS.get(vr)
        if layout is None:
            raise Malformed(f"unknown VR {vr!r}", offset=pos + 4)
        name, header = layout
        if pos + header.size > len(data):
            raise Malformed("truncated long-VR header", offset=pos)
        group, element, length = header.unpack_from(data, pos)
        return ElementRef((group, element), name, pos, pos + header.size,
                          length)
    group, element, length = _IMPLICIT_HEADER.unpack_from(data, pos)
    return ElementRef((group, element), None, pos, pos + 8, length)


def _opened(head: ElementRef, explicit: bool):
    """What an undefined-length header opens: (in_item, explicit, fragments).

    An item opens a nested dataset in the same encoding. A sequence opens a
    list of items in the dataset's encoding, an undefined-length UN one in
    implicit VR (PS3.5 6.2.2), and pixel data or any other VR a list of
    defined-length fragments.
    """
    if head.tag == TAG_ITEM:
        return True, explicit, False
    if head.vr == "SQ" or (head.vr is None and head.tag != TAG_PIXEL_DATA):
        return False, explicit, False
    return False, False, head.vr != "UN"


def _skip_undefined(data: bytes, ref: ElementRef, explicit: bool) -> int:
    """Step over the value of an undefined-length element: a list of items
    closed by a sequence delimiter, where an undefined-length item is a
    dataset closed by an item delimiter. Returns the position just past
    the element's sequence delimiter.
    """
    n = len(data)
    # Open containers, innermost last: (in_item, explicit, fragments).
    stack = [_opened(ref, explicit)]
    pos = ref.value_start
    while True:
        if pos + 8 > n:
            raise Malformed("unterminated undefined-length element", offset=pos)
        in_item, enc, fragments = stack[-1]
        # A list holds only item and delimiter headers, read as implicit.
        head = _read_header(data, pos, in_item and enc)
        tag = head.tag
        if tag == TAG_ITEM_DELIM or tag == TAG_SEQ_DELIM:
            if (tag == TAG_ITEM_DELIM) != in_item:
                kind = "sequence" if in_item else "item"
                raise Malformed(f"unexpected {kind} delimiter", offset=pos)
            stack.pop()
            if not stack:
                return head.value_start
            pos = head.value_start
        elif (tag == TAG_ITEM) == in_item:
            raise Malformed("unexpected tag in undefined-length element",
                            offset=pos)
        elif head.value_length == UNDEFINED_LENGTH:
            if fragments:
                raise Malformed("undefined-length fragment", offset=pos)
            stack.append(_opened(head, enc))
            pos = head.value_start
        elif head.value_length > n - head.value_start:
            raise Malformed("value length past end of data", offset=pos)
        else:
            pos = head.value_end


# VRs whose value is text.
_STRING_VR_NAMES = {"UI", "CS", "LO", "SH", "AS", "AE", "PN", "ST", "LT",
                    "DA", "TM"}
_STRING_VRS = {vr.encode() for vr in _STRING_VR_NAMES}


def _decode_string(raw: bytes) -> str:
    return raw.decode("latin-1", errors="replace").strip("\x00 ")


def _decode_value(vr: str, raw: bytes, offset: int):
    """Decode a value by VR into python types. Multi-valued DS/IS -> list."""
    if vr in _STRING_VR_NAMES:
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
        except (ValueError, OverflowError):  # int(float("inf")) overflows
            raise Malformed(f"bad {vr} value {text!r}", offset=offset)
        if not vals:
            return None
        return vals if len(vals) > 1 else vals[0]
    return raw


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


def _int_tag(tag: tuple) -> int:
    return tag[0] << 16 | tag[1]


# Tag as one int -> (table VR, index into _RECORDS, field name, type,
# conversion, default) for each tag that fills a record field.
_TAG_FIELDS = {_int_tag(tag): (vr.encode(), i, name, typ, convert, default)
               for i, cls in enumerate(_RECORDS)
               for name, typ, convert, _, default in SIDECAR_FIELDS[cls]
               for tag, (_, vr, field_name) in TAG_TABLE.items()
               if field_name == name}
# A value in one of these VRs is decoded by the table's VR.
_TABLE_DECODED_VRS = {b"UN", b"OB", b"OW"}

# The top-level walk reads an explicit-VR header as tag + VR + 2-byte
# length; a long VR's 4-byte length follows at +8.
_EXPLICIT_HEADER = struct.Struct("<HH2sH")
_PIXEL_DATA = _int_tag(TAG_PIXEL_DATA)
_TRANSFER_SYNTAX = _int_tag((0x0002, 0x0010))
_BODY_PART = _int_tag(TAG_BODY_PART)


def _field_value(vr: bytes, raw: bytes, offset: int, table_vr: bytes, typ,
                 convert, default):
    """A record field's value from its element's value bytes `raw`, by the
    general rule: decode by VR, then convert leniently."""
    value = _decode_value(vr.decode(), raw, offset)
    if table_vr == b"AS":
        value = _parse_age(value) if isinstance(value, str) else None
    # A corrupted VR can turn any tag into arbitrary data, so the policy is
    # lenient: a multi-valued scalar gives its first value, and an empty or
    # unconvertible value gives the field's default.
    if value is None or value == "":
        return default
    if value.__class__ is list and typ is not None:
        value = value[0]  # a scalar field; a number, never empty
    try:
        return value if value.__class__ is typ else convert(value)
    except (TypeError, ValueError, OverflowError):
        return default


class _Walk(NamedTuple):
    """What a top-level walk found, as byte offsets into the data."""

    end: int  # where the walk stopped
    pixel_data: Optional[tuple]  # last (7FE0,0010): (value start, length)
    # Last (0002,0010): (value start, value end).
    transfer_syntax: Optional[tuple]
    # First (0018,0015): (element start, value start, value end).
    body_part: Optional[tuple]
    # Start of the first element with a larger tag than (0018,0015), or
    # the end of the data.
    insert_at: int


def _walk(data: bytes, pos: int, explicit: bool, records=None,
          keep_group: Optional[int] = None) -> _Walk:
    """Walk the top-level elements from `pos` to the end of `data`, or with
    `keep_group` to the first element of another group.

    This is the one top-level walk: of the file meta group and of the
    dataset. A dataset element costs one header unpack (a second for a
    long VR's length) and builds no object. An undefined-length value (a sequence or encapsulated
    pixel data) is stepped over by `_skip_undefined`. Each element whose
    tag fills a field of `records` (a field dict per record of _RECORDS)
    sets that field; sequences and undefined-length values fill nothing.
    """
    n = len(data)
    get_field = (_TAG_FIELDS if records is not None else {}).get
    unpack_explicit = _EXPLICIT_HEADER.unpack_from
    unpack_implicit = _IMPLICIT_HEADER.unpack_from
    u16 = _U16.unpack_from
    u32 = _U32.unpack_from
    pixel_data = transfer_syntax = body_part = insert_at = None
    while pos < n:
        if n - pos < 8:
            raise Malformed("trailing garbage shorter than an element",
                            offset=pos)
        if keep_group is not None and u16(data, pos)[0] != keep_group:
            break
        if explicit:
            group, element, vr, length = unpack_explicit(data, pos)
            if group == 0xFFFE:  # an item or delimiter header: implicit
                vr = None
                length = u32(data, pos + 4)[0]
                value_start = pos + 8
            elif vr in _LONG_VRS:
                if pos + 12 > n:
                    raise Malformed("truncated long-VR header", offset=pos)
                length = u32(data, pos + 8)[0]
                value_start = pos + 12
            elif vr in _KNOWN_VRS:
                value_start = pos + 8
            else:
                raise Malformed(f"unknown VR {vr!r}", offset=pos + 4)
        else:
            group, element, length = unpack_implicit(data, pos)
            vr = None
            value_start = pos + 8
        tag = group << 16 | element

        if length == UNDEFINED_LENGTH:
            end = _skip_undefined(data, _read_header(data, pos, explicit),
                                  explicit)
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

        if tag > _BODY_PART:
            if tag == _PIXEL_DATA:
                pixel_data = (value_start, length)
            if insert_at is None:
                insert_at = pos
        elif tag == _BODY_PART:
            if body_part is None:
                body_part = (pos, value_start, value_start + length)
        elif tag == _TRANSFER_SYNTAX:
            transfer_syntax = (value_start, value_start + length)
        pos = end
    return _Walk(pos, pixel_data, transfer_syntax, body_part,
                 n if insert_at is None else insert_at)


@dataclass
class ParsedFile:
    """Result of parsing one DICOM file: image record + parent attributes."""

    image: ImageRecord
    series_attrs: dict = field(default_factory=dict)
    study_attrs: dict = field(default_factory=dict)
    explicit: bool = True
    dataset_start: int = 0
    # Where tag-write puts (0018,0015), as the walk found it: the first
    # top-level one's (element start, value start, value end), or None;
    # and the start of the first top-level element with a larger tag, or
    # the end of the data.
    body_part_span: Optional[tuple] = field(default=None, compare=False,
                                            repr=False)
    body_part_insert_at: int = field(default=0, compare=False, repr=False)


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
    # Sanity: the first tag must look like a plausible group number,
    # otherwise reject early with a clear error (bad magic).
    (group,) = _U16.unpack_from(data)
    if group == 0x0000 or group > 0x7FE0:
        raise Malformed("not a DICOM file (no DICM magic, implausible first tag)",
                        offset=0)
    return 0, explicit, tsuid


def parse_dicom(data: bytes, source_path: Optional[str] = None) -> ParsedFile:
    """Parse one DICOM byte stream into an image record plus parent attrs.

    All tags in TAG_TABLE are extracted when present; everything else is
    skipped by length. Pixel data is located (offset/length) but not decoded.
    """
    start, explicit, tsuid = _find_dataset_start(data)
    # Field values of each record in _RECORDS; a missing tag leaves the
    # field at its default.
    records = [dict(defaults) for defaults in _DEFAULTS]
    walk = _walk(data, start, explicit, records)
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
                      explicit=explicit, dataset_start=start,
                      body_part_span=walk.body_part,
                      body_part_insert_at=walk.insert_at)


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
        if vr in _LONG_VR_NAMES:
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
