"""The whole chain under single faults: one top-level element of one file
of a small phantom is rewritten or deleted (or one file is copied), and
every stage runs on the tree, in process. For every case:

1. every stage exits 0;
2. filter's admitted set equals the scored images plus classify's skip
   rows;
3. no sop_uid appears twice in `filtered.ndjson`;
4. evaluate's `n_images` equals the admitted images that have both a
   truth label and a result label;
5. every other admitted image is named in a skip row (classify's skip
   report, or a rejected row of `results.ndjson`) or counted in a warning
   line (labels-project's, for a series it leaves unlabelled).
"""

import csv
import json
import logging
import shutil
import struct

import pytest

from bodyregion.cli import main
from bodyregion.geometry import boxes_by_frame, load_boxes
from bodyregion.ingest import read_metadata_ndjson
from bodyregion.phantom import PhantomSpec, RegionSpec, generate_phantom
from bodyregion.postprocess import SeriesStatus, read_series_results
from bodyregion.taxonomy import BodyRegion

_LONG_VRS = {b"OB", b"OW", b"OF", b"OD", b"OL", b"SQ", b"UC", b"UR", b"UT",
             b"UN"}

# The file the element cases edit: the first of its series and study, so
# the series and study records are built from it.
FIRST = "study_0001/img_0000.dcm"
# A file inside that series, which the ImagePositionPatient cases edit too
# and the copied-file case copies.
MIDDLE = "study_0001/img_0005.dcm"
# The file whose UIDs the "another file's UID" cases borrow.
OTHER = "study_0002/img_0003.dcm"

NUMBERS = {"nan": b"NaN", "inf": b"inf", "neg_inf": b"-inf",
           "text": b"abc", "empty": b""}
US_VALUES = (0, 1, 3, 8, 17, 65535)


def _elements(data):
    """(tag, vr, start, end) of each top-level element of an explicit-VR
    little-endian file with a preamble, meta group included."""
    assert data[128:132] == b"DICM"
    pos = 132
    while pos < len(data):
        group, element, vr = struct.unpack_from("<HH2s", data, pos)
        if vr in _LONG_VRS:
            (length,) = struct.unpack_from("<I", data, pos + 8)
            end = pos + 12 + length
        else:
            (length,) = struct.unpack_from("<H", data, pos + 6)
            end = pos + 8 + length
        yield (group, element), vr, pos, end
        pos = end


def _element(data, tag):
    [found] = [e for e in _elements(data) if e[0] == tag]
    return found


def _encode(tag, vr, value):
    if len(value) % 2:
        value += b"\0" if vr == b"UI" else b" "
    head = struct.pack("<HH2s", *tag, vr)
    if vr in _LONG_VRS:
        return head + struct.pack("<HI", 0, len(value)) + value
    return head + struct.pack("<H", len(value)) + value


def _rewrite(path, tag, value):
    """Give the element `tag` of the file at `path` the raw `value` (None
    deletes it), keeping the meta group's length right."""
    data = path.read_bytes()
    _, vr, start, end = _element(data, tag)
    new = b"" if value is None else _encode(tag, vr, value)
    data = data[:start] + new + data[end:]
    if tag[0] == 0x0002:
        _, _, start, end = _element(data, (0x0002, 0x0000))
        meta_end = max(e[3] for e in _elements(data) if e[0][0] == 0x0002)
        data = data[:start + 8] + struct.pack("<I", meta_end - end) + data[end:]
    path.write_bytes(data)


def _value(path, tag):
    data = path.read_bytes()
    _, vr, start, end = _element(data, tag)
    return data[start + (12 if vr in _LONG_VRS else 8):end].rstrip(b"\0 ")


US = {"SamplesPerPixel": (0x0028, 0x0002), "Rows": (0x0028, 0x0010),
      "Columns": (0x0028, 0x0011), "BitsAllocated": (0x0028, 0x0100),
      "BitsStored": (0x0028, 0x0101)}
DS = {"SliceThickness": ((0x0018, 0x0050), 1),
      "ImagePositionPatient": ((0x0020, 0x0032), 3),
      "ImageOrientationPatient": ((0x0020, 0x0037), 6)}
UIDS = {"StudyInstanceUID": (0x0020, 0x000D),
        "SeriesInstanceUID": (0x0020, 0x000E),
        "SOPInstanceUID": (0x0008, 0x0018),
        "FrameOfReferenceUID": (0x0020, 0x0052)}
STRINGS = {"Modality": ((0x0008, 0x0060),
                         {"MR": b"MR", "XA": b"XA", "empty": b""}),
           "SeriesDescription": ((0x0008, 0x103E),
                                 {"MPR": b"AX MPR", "SCOUT": b"SCOUT"}),
           "PatientAge": ((0x0010, 0x1010), {"text": b"abc", "999Y": b"999Y",
                                             "negative": b"-12Y"}),
           "PatientSex": ((0x0010, 0x0040), {"X": b"X"}),
           "BodyPartExamined": ((0x0018, 0x0015), {"unmapped": b"NOT A PART"}),
           "InstanceNumber": ((0x0020, 0x0013),
                              {"text": b"abc", "fraction": b"1.5",
                               "nan": b"NaN", "negative": b"-1",
                               "2_values": b"1\\2",
                               "huge": b"99999999999999999999"}),
           "TransferSyntaxUID": ((0x0002, 0x0010),
                                 {"implicit": b"1.2.840.10008.1.2",
                                  "rle": b"1.2.840.10008.1.2.5",
                                  "jpeg_lossless": b"1.2.840.10008.1.2.4.70",
                                  "unknown": b"1.2.3.4"}),
           "PixelData": ((0x7FE0, 0x0010), {"short": b"\0" * 64})}


def _cases():
    """(id, file, tag, value) of each single-element case; a value of None
    deletes the element, and a str value names the file whose value of the
    tag it takes."""
    cases = []
    for name, tag in US.items():
        cases += [(f"{name}={v}", FIRST, tag, struct.pack("<H", v))
                  for v in US_VALUES]
        cases.append((f"{name}_deleted", FIRST, tag, None))
    for name, (tag, n) in DS.items():
        bad = dict(NUMBERS)
        for i in {0, n - 1} if n > 1 else ():
            bad.update({f"{k}_at_{i}": b"\\".join(
                v if j == i else b"0" for j in range(n))
                for k, v in (("nan", b"NaN"), ("inf", b"inf"))})
        bad.update({f"{k}_values": b"\\".join([b"1"] * k)
                    for k in {1, 2, n - 1, n + 1} - {n} if k})
        for file in (FIRST, MIDDLE) if n == 3 else (FIRST,):
            where = "" if file == FIRST else "@middle"
            cases += [(f"{name}={k}{where}", file, tag, v)
                      for k, v in bad.items()]
            cases.append((f"{name}_deleted{where}", file, tag, None))
    for name, tag in UIDS.items():
        cases += [(f"{name}_of_another_file", FIRST, tag, OTHER),
                  (f"{name}=empty", FIRST, tag, b""),
                  (f"{name}_deleted", FIRST, tag, None)]
    for name, (tag, values) in STRINGS.items():
        cases += [(f"{name}={k}", FIRST, tag, v) for k, v in values.items()]
        cases.append((f"{name}_deleted", FIRST, tag, None))
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def phantom(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain_faults")
    spec = PhantomSpec(
        regions=[RegionSpec(BodyRegion.ABDOMEN, 30.0),
                 RegionSpec(BodyRegion.CHEST, 30.0),
                 RegionSpec(BodyRegion.HEAD, 30.0)],
        slice_spacing_mm=5.0, seed=3, n_studies=4, window=2)
    generate_phantom(spec, root / "ph")
    return root / "ph"


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _run_chain(ph, root, caplog):
    """Run every stage on the tree `ph`; returns the warning lines logged
    by labels-project."""
    filtered = root / "filt" / "filtered.ndjson"
    truth, scores = root / "truth.csv", root / "scores.csv"
    results = root / "results.ndjson"
    labels_warnings = []
    for argv in (
            ["ingest", "--dicom", ph, "--out", root / "ing"],
            ["filter", "--in", root / "ing" / "metadata.ndjson",
             "--out", root / "filt"],
            ["labels-project", "--in", filtered,
             "--boxes", ph / "labels.json", "--out", truth],
            ["classify", "--in", filtered, "--truth", truth, "--out", scores],
            ["postprocess", "--in", filtered, "--scores", scores,
             "--out", results],
            ["evaluate", "--in", filtered, "--results", results,
             "--truth", truth, "--out", root / "eval", "--bootstrap", "20"],
            ["report", "--summary", root / "eval" / "summary.json",
             "--out", root / "report.md"],
            ["tag-write", "--dicom", ph, "--results", results,
             "--out", root / "changes.csv", "--dry-run"]):
        caplog.clear()
        assert main([str(a) for a in argv]) == 0, argv  # rule 1
        if argv[0] == "labels-project":
            labels_warnings = [r.getMessage() for r in caplog.records
                               if r.levelno >= logging.WARNING]
    return labels_warnings


def check_chain(ph, root, caplog):
    labels_warnings = _run_chain(ph, root, caplog)
    filtered = root / "filt" / "filtered.ndjson"
    sops = [json.loads(line)["sop_uid"]
            for line in filtered.read_text().splitlines()]
    assert len(sops) == len(set(sops))  # rule 3
    admitted = set(sops)
    studies = read_metadata_ndjson(filtered)
    series_of = {image.sop_uid: series for study in studies
                 for series in study.series for image in series.images}
    sop_by_path = {image.source_path: image.sop_uid
                   for series in series_of.values()
                   for image in series.images}

    scored = {row["sop_uid"] for row in _read_csv(root / "scores.csv")}
    skipped = {sop_by_path[row["path"]]
               for row in _read_csv(root / "scores.skip_report.csv")}
    assert scored | skipped == admitted and not scored & skipped  # rule 2

    truth = {row["sop_uid"]: row["region"]
             for row in _read_csv(root / "truth.csv")}
    rows = read_series_results(root / "results.ndjson")
    labelled = {sop for row in rows for sop, label in row.labels
                if label is not None}
    rejected = {sop for row in rows
                if row.status is SeriesStatus.REJECTED_UNCERTAIN
                for sop, _ in row.labels}
    evaluated = {sop for sop in admitted if truth.get(sop) and sop in labelled}
    summary = json.loads((root / "eval" / "summary.json").read_text())
    assert summary["n_images"] == len(evaluated)  # rule 4

    frames = boxes_by_frame(load_boxes(ph / "labels.json"))
    unpositioned = any("left unlabelled" in w for w in labels_warnings)
    unboxed = any("no box in their frame" in w for w in labels_warnings)

    def accounted(sop):
        """Whether `sop`, admitted but not evaluated, is named in a skip
        row, or is unlabelled in a series a labels-project warning
        counts."""
        if sop in skipped or sop in rejected:
            return True
        if truth.get(sop):
            return False
        series = series_of[sop]
        if series.frame_of_reference_uid not in frames:
            return unboxed
        return unpositioned and any(im.image_position_patient is None
                                    for im in series.images)

    silent = sorted(sop for sop in admitted - evaluated if not accounted(sop))
    assert silent == []  # rule 5
    return admitted


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_single_element_fault(phantom, tmp_path, caplog, case):
    _, file, tag, value = case
    ph = tmp_path / "ph"
    shutil.copytree(phantom, ph)
    if isinstance(value, str):
        value = _value(ph / value, tag)
    _rewrite(ph / file, tag, value)
    check_chain(ph, tmp_path, caplog)


def test_unfaulted_chain_evaluates_every_image(phantom, tmp_path, caplog):
    ph = tmp_path / "ph"
    shutil.copytree(phantom, ph)
    admitted = check_chain(ph, tmp_path, caplog)
    assert len(admitted) == 48
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert summary["n_images"] == 48


def test_copied_file(phantom, tmp_path, caplog):
    ph = tmp_path / "ph"
    shutil.copytree(phantom, ph)
    shutil.copyfile(ph / MIDDLE, ph / "study_0001" / "img_0005_copy.dcm")
    assert len(check_chain(ph, tmp_path, caplog)) == 48
