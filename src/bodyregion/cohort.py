"""Series/image inclusion rules and the dataset partitioning procedures.

Keyword matching is case-insensitive over the tokenized series
description (see `_keyword_hit`). The keyword lists are the module-level
constants below; no configuration overrides them.
"""

from __future__ import annotations

import enum
import logging
import math
import re
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence

from . import dicomio
from .errors import DegenerateOrientation, EmptyCohort, write_csv
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

# Detail of a series admitted without orientation tags (lenient geometry).
_ASSUMED_AXIAL = "no orientation, assumed axial"


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
    """Series-level inclusion: modality, derived/keyword lists, finite
    image positions, axial angle."""
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

    # A NaN or infinite coordinate places its image nowhere on the normal.
    if not all(math.isfinite(c) for im in series.images
               if im.image_position_patient is not None
               for c in im.image_position_patient):
        return FilterDecision(False, FilterReason.NOT_AXIAL,
                              "degenerate: image positions are not finite")

    orientation = next((im.image_orientation_patient for im in series.images
                        if im.image_orientation_patient is not None), None)
    if orientation is None:
        if strict_geometry:
            return FilterDecision(False, FilterReason.NOT_AXIAL, "no orientation")
        return _included(_ASSUMED_AXIAL)
    try:
        angle = axial_angle(orientation)
    except DegenerateOrientation as exc:
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
    (uid, level, FilterDecision) tuples for the filter report. Series
    admitted without orientation tags are logged in one warning line.
    """
    rows = []
    kept_studies = []
    assumed_axial = []
    for study in studies:
        kept_series = []
        for series in study.series:
            sdec = filter_series(series, strict_geometry=strict_geometry)
            rows.append((series.series_uid, "series", sdec))
            if not sdec.included:
                continue
            if sdec.detail == _ASSUMED_AXIAL:
                assumed_axial.append(series.series_uid)
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
    if assumed_axial:
        log.warning("%d series: no orientation tags, treated as axial "
                    "(e.g. %s)", len(assumed_axial), assumed_axial[0])
    return kept_studies, rows


def write_filter_report(rows, path) -> None:
    write_csv(path, ["uid", "level", "included", "reason", "detail"],
              ([uid, level, str(dec.included).lower(), dec.reason.value,
                dec.detail] for uid, level, dec in rows))


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


def partition_patients(studies: Sequence[StudyRecord],
                       regions: Dict[str, BodyRegion]
                       ) -> List[PartitionAssignment]:
    """75/25 train/validation split per main body region.

    Within each region group, studies are sorted descending by image count
    and assigned round-robin, three to Train then one to Validation, so
    each split's share stays within one study of 3:1.
    """
    if not studies:
        raise EmptyCohort("no studies to partition")
    groups: Dict[BodyRegion, List[StudyRecord]] = {}
    for s in studies:
        region = regions[s.study_uid]
        groups.setdefault(region, []).append(s)
    assignments = []
    for region in sorted(groups, key=lambda r: r.value):
        ordered = sorted(groups[region],
                         key=lambda s: (-s.image_count(), s.study_uid))
        for i, s in enumerate(ordered):
            split = Split.TRAIN if i % 4 < 3 else Split.VALIDATION
            assignments.append(PartitionAssignment(s.study_uid, split, region))
    return assignments

