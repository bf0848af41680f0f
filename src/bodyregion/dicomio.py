"""Minimal DICOM reader/writer for the tags this pipeline needs.

Reads Part-10 files (128-byte preamble + "DICM" + file meta group) and bare
explicit/implicit VR little-endian datasets. Unknown elements are skipped by
length, sequences are stepped over item by item, and the pixel data element
is located but never decoded here (see pixels.decode_pixels).

Every structural fault raises Malformed with the byte offset of the fault;
no input byte string may crash the reader or trigger unbounded allocation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import Malformed
from .records import ImageRecord

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
TAG_ITEM = (0xFFFE, 0xE000)
TAG_ITEM_DELIM = (0xFFFE, 0xE00D)
TAG_SEQ_DELIM = (0xFFFE, 0xE0DD)
UNDEFINED_LENGTH = 0xFFFFFFFF

# Tag -> (keyword, VR) for everything the pipeline extracts or writes.
TAG_TABLE = {
    (0x0002, 0x0010): ("TransferSyntaxUID", "UI"),
    (0x0008, 0x0016): ("SOPClassUID", "UI"),
    (0x0008, 0x0018): ("SOPInstanceUID", "UI"),
    (0x0008, 0x0060): ("Modality", "CS"),
    (0x0008, 0x1030): ("StudyDescription", "LO"),
    (0x0008, 0x103E): ("SeriesDescription", "LO"),
    (0x0008, 0x0070): ("Manufacturer", "LO"),
    (0x0008, 0x0080): ("InstitutionName", "LO"),
    (0x0010, 0x0020): ("PatientID", "LO"),
    (0x0010, 0x1010): ("PatientAge", "AS"),
    (0x0010, 0x0040): ("PatientSex", "CS"),
    (0x0018, 0x0010): ("ContrastBolusAgent", "LO"),
    (0x0018, 0x0015): ("BodyPartExamined", "CS"),
    (0x0018, 0x0050): ("SliceThickness", "DS"),
    (0x0018, 0x1210): ("ConvolutionKernel", "SH"),
    (0x0020, 0x000D): ("StudyInstanceUID", "UI"),
    (0x0020, 0x000E): ("SeriesInstanceUID", "UI"),
    (0x0020, 0x0013): ("InstanceNumber", "IS"),
    (0x0020, 0x0032): ("ImagePositionPatient", "DS"),
    (0x0020, 0x0037): ("ImageOrientationPatient", "DS"),
    (0x0020, 0x0052): ("FrameOfReferenceUID", "UI"),
    (0x0028, 0x0002): ("SamplesPerPixel", "US"),
    (0x0028, 0x0010): ("Rows", "US"),
    (0x0028, 0x0011): ("Columns", "US"),
    (0x0028, 0x0100): ("BitsAllocated", "US"),
    (0x0028, 0x0101): ("BitsStored", "US"),
    TAG_PIXEL_DATA: ("PixelData", "OW"),
}

VR_BY_TAG = {tag: vr for tag, (_, vr) in TAG_TABLE.items()}
_TAG_BY_KEYWORD = {kw: tag for tag, (kw, _) in TAG_TABLE.items()}


@dataclass
class ElementRef:
    """One data element located in a byte buffer (value not copied)."""

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


def iter_elements(data: bytes, start: int, explicit: bool,
                  stop_before_group: Optional[int] = None) -> Iterator[ElementRef]:
    """Iterate top-level data elements from `start` to the end of `data`.

    An undefined-length element (a sequence or encapsulated pixel data) is
    yielded with value_length == UNDEFINED_LENGTH after its value has been
    stepped over; the walk resumes past its sequence delimiter.
    """
    stop = stop_before_group is not None and _U16.pack(stop_before_group)
    pos = start
    n = len(data)
    while pos < n:
        if n - pos < 8:
            raise Malformed("trailing garbage shorter than an element", offset=pos)
        if stop and data[pos:pos + 2] != stop:
            return
        ref = _read_header(data, pos, explicit)
        if ref.value_length == UNDEFINED_LENGTH:
            pos = _skip_undefined(data, ref, explicit)
        elif ref.value_length > n - ref.value_start:
            raise Malformed("element length past end of file", offset=pos)
        else:
            pos = ref.value_end
        yield ref


def _decode_string(raw: bytes) -> str:
    return raw.decode("latin-1", errors="replace").strip("\x00 ")


def _decode_value(vr: str, raw: bytes, offset: int):
    """Decode a value by VR into python types. Multi-valued DS/IS -> list."""
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
        except ValueError:
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


@dataclass
class ParsedFile:
    """Result of parsing one DICOM file: image record + parent attributes."""

    image: ImageRecord
    series_attrs: dict = field(default_factory=dict)
    study_attrs: dict = field(default_factory=dict)
    explicit: bool = True
    dataset_start: int = 0


def _sniff_explicit(data: bytes, pos: int) -> bool:
    """Guess explicit vs implicit VR for a bare dataset."""
    if pos + 6 > len(data):
        return True
    return data[pos + 4:pos + 6] in _KNOWN_VRS


def _find_dataset_start(data: bytes):
    """Locate the dataset and its encoding. Returns (start, explicit, tsuid)."""
    if len(data) >= 132 and data[128:132] == b"DICM":
        pos = 132
        tsuid = ""
        # File meta group is always explicit VR LE, group 0002.
        last = pos
        for ref in iter_elements(data, pos, explicit=True, stop_before_group=0x0002):
            if ref.tag == (0x0002, 0x0010):
                tsuid = _decode_string(data[ref.value_start:ref.value_end])
            last = ref.value_end if ref.value_length != UNDEFINED_LENGTH else last
        if not tsuid:
            raise Malformed("file meta group missing TransferSyntaxUID", offset=pos)
        explicit = tsuid != IMPLICIT_VR_LE
        return last, explicit, tsuid
    # Bare dataset: no preamble, no declared transfer syntax.
    if len(data) < 8:
        raise Malformed("input shorter than one element", offset=0)
    explicit = _sniff_explicit(data, 0)
    tsuid = EXPLICIT_VR_LE if explicit else IMPLICIT_VR_LE
    # Sanity: the first tag must look like a plausible group number,
    # otherwise reject early with a clear error (bad magic).
    group = _read_header(data, 0, explicit=False).tag[0]
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

    values = {}
    pixel_ref = None
    for ref in iter_elements(data, start, explicit=explicit):
        if ref.tag == TAG_PIXEL_DATA:
            pixel_ref = ref
            continue
        if ref.vr == "SQ" or ref.value_length == UNDEFINED_LENGTH:
            continue  # sequences carry nothing the pipeline needs
        entry = TAG_TABLE.get(ref.tag)
        if entry is None:
            continue
        keyword, table_vr = entry
        vr = ref.vr if ref.vr is not None else table_vr
        if vr in ("UN", "OB", "OW"):
            vr = table_vr
        values[keyword] = _decode_value(vr, data[ref.value_start:ref.value_end],
                                        ref.value_start)

    def as_int(keyword, default):
        # A corrupted VR can turn a numeric tag into arbitrary text; treat
        # anything unparseable as absent rather than crashing.
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
        if pixel_ref.value_length == UNDEFINED_LENGTH:
            image.pixel_data_offset = pixel_ref.value_start
            image.pixel_data_length = len(data) - pixel_ref.value_start
        else:
            image.pixel_data_offset = pixel_ref.value_start
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
