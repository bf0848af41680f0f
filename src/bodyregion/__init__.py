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
- :mod:`bodyregion.preprocess` — clip/normalize and letterbox resize.
- :mod:`bodyregion.classify` — score files (the plug-in point for an
  external classifier) and the centroid baseline.
- :mod:`bodyregion.postprocess` — the five-stage series rule engine.
- :mod:`bodyregion.stats` — weighted metrics, bootstrap CIs, chi-squared,
  effect sizes, sample size, tag agreement, factor reports.
- :mod:`bodyregion.report` — evaluation tables and DICOM tag write-back.
- :mod:`bodyregion.phantom` — deterministic synthetic cohorts.
"""

__version__ = "0.1.0"
