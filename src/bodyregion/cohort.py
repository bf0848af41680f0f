"""Series/image inclusion rules and the dataset partitioning procedures.

Keyword matching is case-insensitive over the tokenized series
description (see `_keyword_hit`). The keyword lists are the module-level
constants below; no configuration overrides them.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
import re
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import dicomio
from .errors import EmptyCohort, InvalidParams
from .geometry import AXIAL_MAX_ANGLE_DEG, axial_angle
from .records import ImageRecord, SeriesRecord, StudyRecord
from .taxonomy import BodyRegion

log = logging.getLogger(__name__)

# Sequences whose anatomy is faded or absent (flow/velocity/parametric maps).
MRI_EXCLUDE_KEYWORDS = (
    "FLOW", "VELOCITY", "ADC", "APPARENT DIFFUSION", "IDEAL", "EP2D_DIFF",
    "FASTPC", "PC", "CBV", "CBF", "MTT", "TTP", "CAD", "DWI_SSH", "VIPR",
)
CT_EXCLUDE_KEYWORDS = ("VELOCITY",)

# Planning/derived series categories: scout, calibration, QC, post-processed.
DERIVED_KEYWORDS = (
    "SCOUT", "LOCALIZER", "REFORMAT", "MPR", "SECONDARY", "DOSE", "CINE",
    "MOVIE", "3D", "CALIBRATION", "SCREEN SAVE",
)

# MRI sequence-type buckets keyed on series-description keywords.
MRI_SEQUENCE_TYPES = {
    "Image weighting": ("T1", "T2", "PD", "SWI", "SWAN", "BRAVO", "MERGE"),
    "Spin echo": ("SE", "FAST SE", "FSE", "HASTE", "VISTA", "PROPELLER"),
    "Gradient echo": ("GRE", "FFE", "FE", "SPGR", "FGRE", "LAVA", "VIBRANT",
                      "VIBE", "BLISS", "FISP", "SSFP", "FIESTA", "TRU FISP"),
    "Inversion recovery": ("IR", "STIR", "FLAIR"),
    "MRA": ("TOF", "CONTRAST ENHANCED", "DELAY ENHANCED"),
    "In and Out of Phase": ("IN/OUT", "IN OF PHASE", "OUT OF PHASE"),
    "Diffusion": ("DIFFUSION", "DWI"),
}

MIN_PIXELS = 1000


class FilterReason(enum.Enum):
    NOT_AXIAL = "NotAxial"
    MPR_OR_DERIVED = "MPRorDerived"
    KEYWORD_EXCLUDED = "KeywordExcluded"
    LOW_BIT_DEPTH = "LowBitDepth"
    MULTI_CHANNEL = "MultiChannel"
    NO_PIXEL_DATA = "NoPixelData"
    TOO_FEW_PIXELS = "TooFewPixels"
    UNSUPPORTED_CODEC = "UnsupportedCodec"
    WRONG_MODALITY = "WrongModality"
    INCLUDED = "Included"


@dataclass
class FilterDecision:
    included: bool
    reason: FilterReason
    detail: str = ""

    def __post_init__(self):
        assert self.included == (self.reason is FilterReason.INCLUDED)


def _included(detail: str = "") -> FilterDecision:
    return FilterDecision(True, FilterReason.INCLUDED, detail)


def _tokens(text: str) -> List[str]:
    return [t for t in re.split(r"[^A-Z0-9]+", text.upper()) if t]


def _keyword_hit(description_tokens: List[str], keyword: str) -> bool:
    """Keyword match over a tokenized description.

    Keywords of 4+ characters match as substrings of the normalized text
    (so FLOW hits FLOWQUANT); shorter ones (SE, PC, IR, 3D, ...) must match
    whole tokens to avoid firing inside unrelated words like SERIES.
    """
    kw_tokens = _tokens(keyword)
    phrase = " ".join(kw_tokens)
    if len(phrase) >= 4:
        return phrase in " ".join(description_tokens)
    n = len(kw_tokens)
    return any(description_tokens[i:i + n] == kw_tokens
               for i in range(len(description_tokens) - n + 1))


def _match_keyword(description: str, keywords: Iterable[str]) -> Optional[str]:
    toks = _tokens(description)
    for kw in keywords:
        if _keyword_hit(toks, kw):
            return kw
    return None


def mri_sequence_type(description: str) -> Optional[str]:
    """First matching sequence-type bucket, in table order."""
    toks = _tokens(description)
    for bucket, kws in MRI_SEQUENCE_TYPES.items():
        if any(_keyword_hit(toks, kw) for kw in kws):
            return bucket
    return None


def filter_series(series: SeriesRecord,
                  strict_geometry: bool = False) -> FilterDecision:
    """Series-level inclusion: modality, derived/keyword lists, axial angle."""
    if series.modality not in ("CT", "MR"):
        return FilterDecision(False, FilterReason.WRONG_MODALITY, series.modality)

    kw = _match_keyword(series.series_description, DERIVED_KEYWORDS)
    if kw is not None:
        return FilterDecision(False, FilterReason.MPR_OR_DERIVED, kw)

    kw = _match_keyword(series.series_description,
                        MRI_EXCLUDE_KEYWORDS if series.modality == "MR"
                        else CT_EXCLUDE_KEYWORDS)
    if kw is not None:
        return FilterDecision(False, FilterReason.KEYWORD_EXCLUDED, kw)

    orientation = next((im.image_orientation_patient for im in series.images
                        if im.image_orientation_patient is not None), None)
    if orientation is None:
        if strict_geometry:
            return FilterDecision(False, FilterReason.NOT_AXIAL, "no orientation")
        log.warning("series %s: no orientation tags, treated as axial",
                    series.series_uid)
        return _included("no orientation, assumed axial")
    try:
        angle = axial_angle(orientation)
    except Exception as exc:
        return FilterDecision(False, FilterReason.NOT_AXIAL, f"degenerate: {exc}")
    if angle > AXIAL_MAX_ANGLE_DEG:
        return FilterDecision(False, FilterReason.NOT_AXIAL, f"{angle:.1f} deg")
    return _included()


def filter_image(image: ImageRecord) -> FilterDecision:
    """Image-level exclusions: bit depth, channels, pixel data, codec."""
    if image.transfer_syntax_uid not in dicomio.ACCEPTED_SYNTAXES:
        return FilterDecision(False, FilterReason.UNSUPPORTED_CODEC,
                              image.transfer_syntax_uid)
    if not image.has_pixel_data:
        return FilterDecision(False, FilterReason.NO_PIXEL_DATA)
    # "8 bits or lower" is inclusive: 8-bit images are out.
    if image.bits_stored <= 8:
        return FilterDecision(False, FilterReason.LOW_BIT_DEPTH,
                              f"bits_stored={image.bits_stored}")
    if image.samples_per_pixel > 1:
        return FilterDecision(False, FilterReason.MULTI_CHANNEL,
                              f"samples_per_pixel={image.samples_per_pixel}")
    if image.rows * image.cols < MIN_PIXELS:
        return FilterDecision(False, FilterReason.TOO_FEW_PIXELS,
                              f"{image.rows}x{image.cols}")
    return _included()


def apply_filters(studies: List[StudyRecord],
                  strict_geometry: bool = False):
    """Run both filter levels over a cohort.

    Returns (filtered cohort, decision rows) where rows are
    (uid, level, FilterDecision) tuples for the filter report.
    """
    rows = []
    kept_studies = []
    for study in studies:
        kept_series = []
        for series in study.series:
            sdec = filter_series(series, strict_geometry=strict_geometry)
            rows.append((series.series_uid, "series", sdec))
            if not sdec.included:
                continue
            kept_images = []
            for image in series.images:
                idec = filter_image(image)
                rows.append((image.sop_uid, "image", idec))
                if idec.included:
                    kept_images.append(image)
            if kept_images:
                kept_series.append(replace(series, images=kept_images))
        if kept_series:
            kept_studies.append(replace(study, series=kept_series))
    return kept_studies, rows


def write_filter_report(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["uid", "level", "included", "reason", "detail"])
        for uid, level, dec in rows:
            writer.writerow([uid, level, str(dec.included).lower(),
                             dec.reason.value, dec.detail])


# ---------------------------------------------------------------------------
# Partitioning


class Split(enum.Enum):
    TRAIN = "Train"
    VALIDATION = "Validation"


@dataclass
class PartitionAssignment:
    study_uid: str
    split: Split
    region: BodyRegion


def dedupe_patients(studies: Sequence[StudyRecord],
                    rng: np.random.Generator) -> List[StudyRecord]:
    """Keep exactly one study per patient, seeded-random among repeats.

    Studies without a patient id are reported and kept ungrouped.
    """
    by_patient: Dict[str, List[StudyRecord]] = {}
    no_id = []
    for s in studies:
        if s.patient_id:
            by_patient.setdefault(s.patient_id, []).append(s)
        else:
            log.warning("study %s has no patient id; kept ungrouped", s.study_uid)
            no_id.append(s)
    keep_uids = set()
    for pid in sorted(by_patient):
        group = by_patient[pid]
        keep_uids.add(group[int(rng.integers(0, len(group)))].study_uid)
    return [s for s in studies
            if not s.patient_id or s.study_uid in keep_uids]


def partition_patients(studies: Sequence[StudyRecord],
                       regions: Dict[str, BodyRegion],
                       ratio: float = 0.75) -> List[PartitionAssignment]:
    """75/25 train/validation split per main body region.

    Within each region group, studies are sorted descending by image count
    and assigned round-robin 3:1 so each split's share stays within one
    study of the ratio. Ratios other than 0.75 scale the round-robin cycle.
    """
    if not 0.0 < ratio < 1.0:  # also rejects NaN
        raise InvalidParams(f"train ratio must be in (0, 1), got {ratio!r}")
    if not studies:
        raise EmptyCohort("no studies to partition")
    cycle_len = max(2, round(1.0 / (1.0 - ratio)))
    n_train = round(cycle_len * ratio)
    groups: Dict[BodyRegion, List[StudyRecord]] = {}
    for s in studies:
        region = regions[s.study_uid]
        groups.setdefault(region, []).append(s)
    assignments = []
    for region in sorted(groups, key=lambda r: r.value):
        ordered = sorted(groups[region],
                         key=lambda s: (-s.image_count(), s.study_uid))
        for i, s in enumerate(ordered):
            split = Split.TRAIN if i % cycle_len < n_train else Split.VALIDATION
            assignments.append(PartitionAssignment(s.study_uid, split, region))
    return assignments


def audit_sample(studies: Sequence[StudyRecord],
                 regions: Dict[str, BodyRegion],
                 fraction: float = 0.025,
                 rng: Optional[np.random.Generator] = None) -> List[StudyRecord]:
    """Seeded-random ground-truth review subset, even across regions."""
    if not studies:
        raise EmptyCohort("no studies to sample")
    if rng is None:
        rng = np.random.default_rng()
    total = math.ceil(fraction * len(studies))
    if total == 0:
        return []
    groups: Dict[BodyRegion, List[StudyRecord]] = {}
    for s in studies:
        groups.setdefault(regions[s.study_uid], []).append(s)
    region_order = sorted(groups, key=lambda r: r.value)

    quotas = {r: 0 for r in region_order}
    remaining = total
    # Round-robin one study at a time so quotas differ by at most one,
    # skipping regions that are already exhausted.
    while remaining > 0:
        progressed = False
        for r in region_order:
            if remaining == 0:
                break
            if quotas[r] < len(groups[r]):
                quotas[r] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            break
    picked = []
    for r in region_order:
        group = sorted(groups[r], key=lambda s: s.study_uid)
        idx = rng.permutation(len(group))[:quotas[r]]
        picked.extend(group[i] for i in sorted(idx))
    return picked
