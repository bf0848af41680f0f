"""Body-region classification pipeline for axial CT/MRI series.

Library layout mirrors the processing stages:

- :mod:`bodyregion.dicomio` / :mod:`bodyregion.pixels` — DICOM parsing,
  writing, and pixel decoding (native little-endian and RLE).
- :mod:`bodyregion.ingest` — directory walking and the NDJSON metadata
  sidecar.
- :mod:`bodyregion.geometry` — slice geometry, physical-step sampling,
  3-D bounding-box label projection.
- :mod:`bodyregion.cohort` — inclusion/exclusion filtering and
  patient-level partitioning.
- :mod:`bodyregion.preprocess` — clip/normalize, letterbox resize,
  augmentation.
- :mod:`bodyregion.classify` — score files (the plug-in point for an
  external classifier) and the centroid baseline.
- :mod:`bodyregion.postprocess` — the five-stage series rule engine.
- :mod:`bodyregion.stats` — weighted metrics, bootstrap CIs, chi-squared,
  effect sizes, sample size, tag agreement, factor reports.
- :mod:`bodyregion.report` — evaluation tables and DICOM tag write-back.
- :mod:`bodyregion.phantom` — deterministic synthetic cohorts.
"""

from .classify import (CentroidBackend, Prediction, load_scores, save_scores,
                       train_centroid_baseline)
from .cohort import (FilterDecision, FilterReason, Split, apply_filters,
                     partition_patients)
from .config import PipelineConfig, load_config, load_synonym_map
from .errors import BodyRegionError, Malformed, SchemaError
from .geometry import (BoundingBox3D, SliceGeometry, load_boxes,
                       project_box_labels, save_boxes, series_geometry,
                       sort_series_images)
from .ingest import (ingest_tree, read_metadata_ndjson, write_metadata_ndjson)
from .phantom import (PhantomSpec, RegionSpec, default_six_region_spec,
                      generate_phantom)
from .postprocess import SeriesResult, SeriesStatus, run_pipeline
from .preprocess import (AugmentParams, NormalizedImage, augment,
                         clip_normalize, preprocess_image, resize_pad,
                         sample_augment_params, to_three_channel)
from .records import ImageRecord, SeriesRecord, StudyRecord
from .stats import (ConfusionMatrix, EvalSeries, EvalStudy, bootstrap_ci,
                    chi2_sf, chi_square, cramers_v, factor_report,
                    full_confusion, sample_size, tag_agreement,
                    weighted_sensitivity, weighted_sensitivity_exact,
                    weighted_specificity)
from .taxonomy import CANONICAL_ORDER, FINAL_REGIONS, BodyRegion

__version__ = "0.1.0"

__all__ = [
    "AugmentParams", "BodyRegion", "BodyRegionError", "BoundingBox3D",
    "CANONICAL_ORDER", "CentroidBackend", "ConfusionMatrix", "EvalSeries",
    "EvalStudy", "FINAL_REGIONS", "FilterDecision", "FilterReason",
    "ImageRecord", "Malformed", "NormalizedImage", "PhantomSpec",
    "PipelineConfig", "Prediction", "RegionSpec", "SchemaError",
    "SeriesRecord", "SeriesResult", "SeriesStatus", "SliceGeometry",
    "Split", "StudyRecord", "apply_filters", "augment", "bootstrap_ci",
    "chi2_sf", "chi_square", "clip_normalize", "cramers_v",
    "default_six_region_spec", "factor_report", "full_confusion",
    "generate_phantom", "ingest_tree", "load_boxes", "load_config",
    "load_scores", "load_synonym_map", "partition_patients",
    "preprocess_image", "project_box_labels", "read_metadata_ndjson",
    "resize_pad", "run_pipeline", "sample_augment_params", "sample_size",
    "save_boxes", "save_scores", "series_geometry", "sort_series_images",
    "tag_agreement", "to_three_channel", "train_centroid_baseline",
    "weighted_sensitivity", "weighted_sensitivity_exact",
    "weighted_specificity", "write_metadata_ndjson",
]
