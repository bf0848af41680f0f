"""Body-region class taxonomy and the tag strings written back to DICOM.

The final taxonomy has 18 regions; CT drops Breast (17 classes). The
internal class set adds AbdomenChest, a training-time class for slices
straddling the diaphragm that the series post-processing merges away.
"""

from __future__ import annotations

import enum


class BodyRegion(enum.Enum):
    ABDOMEN = "Abdomen"
    BREAST = "Breast"
    CALF = "Calf"
    CHEST = "Chest"
    ELBOW = "Elbow"
    FOOT = "Foot"
    FOREARM = "Forearm"
    HAND = "Hand"
    HEAD = "Head"
    ARM = "Arm"
    KNEE = "Knee"
    NECK = "Neck"
    PELVIS = "Pelvis"
    SHOULDER = "Shoulder"
    CERVICAL_SPINE = "CervicalSpine"
    THORACIC_SPINE = "ThoracicSpine"
    LUMBAR_SPINE = "LumbarSpine"
    THIGH = "Thigh"
    # Internal only: merged into Abdomen/Chest before any final output.
    ABDOMEN_CHEST = "AbdomenChest"

    def __str__(self):
        return self.value


# Canonical presentation order: the taxonomy listing with the internal
# AbdomenChest class last.
CANONICAL_ORDER = tuple(BodyRegion)

FINAL_REGIONS = tuple(r for r in CANONICAL_ORDER if r is not BodyRegion.ABDOMEN_CHEST)

# DICOM BodyPartExamined defined-term style strings for tag write-back.
CANONICAL_TAG_STRINGS = {
    BodyRegion.ABDOMEN: "ABDOMEN",
    BodyRegion.BREAST: "BREAST",
    BodyRegion.CALF: "CALF",
    BodyRegion.CHEST: "CHEST",
    BodyRegion.ELBOW: "ELBOW",
    BodyRegion.FOOT: "FOOT",
    BodyRegion.FOREARM: "FOREARM",
    BodyRegion.HAND: "HAND",
    BodyRegion.HEAD: "HEAD",
    BodyRegion.ARM: "ARM",
    BodyRegion.KNEE: "KNEE",
    BodyRegion.NECK: "NECK",
    BodyRegion.PELVIS: "PELVIS",
    BodyRegion.SHOULDER: "SHOULDER",
    BodyRegion.CERVICAL_SPINE: "CSPINE",
    BodyRegion.THORACIC_SPINE: "TSPINE",
    BodyRegion.LUMBAR_SPINE: "LSPINE",
    BodyRegion.THIGH: "THIGH",
}
