"""Span tracing from outside the program.

`Tracer.installed()` replaces, for the length of a `with` block, each
binding in `BINDINGS` with a wrapper that records a span: name, start, end,
the span open when it began (its parent) and a size (bytes, pixels, rows or
resamples, whichever the layer's throughput is measured in). The binding
wrapped is the one the caller resolves at call time, e.g.
`bodyregion.cli.decode_pixels_from_file` rather than
`bodyregion.pixels.decode_pixels_from_file`. Spans stay in memory; every
span of one tracer shares its run id.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


def _rows(studies) -> int:
    return sum(s.image_count() for s in studies)


def _studies_arg(args, kwargs):
    return args[0] if args else kwargs["studies"]


# (owner, attribute, span name, size of one call from (args, kwargs, result))
BINDINGS = [
    ("bodyregion.cli", "ingest_tree", "ingest.ingest_tree", None),
    ("bodyregion.cli", "write_metadata_ndjson", "ingest.write_metadata_ndjson",
     lambda a, k, r: _rows(_studies_arg(a, k))),
    ("bodyregion.cli", "read_metadata_ndjson", "ingest.read_metadata_ndjson",
     lambda a, k, r: _rows(r)),
    ("bodyregion.ingest", "parse_dicom", "dicomio.parse_dicom",
     lambda a, k, r: len(a[0])),
    ("bodyregion.report", "parse_dicom", "dicomio.parse_dicom",
     lambda a, k, r: len(a[0])),
    ("bodyregion.cohort", "apply_filters", "cohort.apply_filters", None),
    ("bodyregion.cli", "load_boxes", "geometry.load_boxes", None),
    ("bodyregion.cli", "project_box_labels", "geometry.project_box_labels",
     None),
    ("bodyregion.cli", "series_geometry", "geometry.series_geometry", None),
    ("bodyregion.cli", "decode_pixels_from_file",
     "pixels.decode_pixels_from_file", lambda a, k, r: r.size),
    ("bodyregion.pixels", "packbits_decode", "kernels.packbits_decode",
     lambda a, k, r: max(r, 0)),
    ("bodyregion.cli", "preprocess_image", "preprocess.preprocess_image",
     None),
    ("bodyregion.preprocess", "clip_normalize", "preprocess.clip_normalize",
     None),
    ("bodyregion.preprocess", "resize_pad", "preprocess.resize_pad", None),
    ("bodyregion.cli", "train_centroid_baseline",
     "classify.train_centroid_baseline", None),
    ("bodyregion.classify.CentroidBackend", "classify_batch",
     "classify.CentroidBackend.classify_batch", lambda a, k, r: len(r)),
    ("bodyregion.cli", "save_scores", "classify.save_scores",
     lambda a, k, r: len(a[0])),
    ("bodyregion.cli", "load_scores", "classify.load_scores",
     lambda a, k, r: len(r[0])),
    ("bodyregion.postprocess", "run_pipeline", "postprocess.run_pipeline",
     None),
    ("bodyregion.postprocess", "write_series_results",
     "postprocess.write_series_results", None),
    ("bodyregion.postprocess", "read_series_results",
     "postprocess.read_series_results", None),
    ("bodyregion.report", "bootstrap_ci", "stats.bootstrap_ci",
     lambda a, k, r: r.resamples),
    ("bodyregion.stats", "bootstrap_ci", "stats.bootstrap_ci",
     lambda a, k, r: r.resamples),
    ("bodyregion.stats", "factor_report", "stats.factor_report", None),
    ("bodyregion.stats", "tag_agreement", "stats.tag_agreement", None),
    ("bodyregion.report", "region_rows", "report.region_rows", None),
    ("bodyregion.report", "emit_region_report", "report.emit_region_report",
     None),
    ("bodyregion.report", "emit_factor_report", "report.emit_factor_report",
     None),
    ("bodyregion.report", "write_body_part_tags",
     "report.write_body_part_tags", None),
    ("bodyregion.report", "write_change_log", "report.write_change_log", None),
    ("bodyregion.phantom", "generate_phantom", "phantom.generate_phantom",
     None),
    ("bodyregion.pixels", "rle_encode_frame", "pixels.rle_encode_frame",
     lambda a, k, r: len(r)),
    ("cohorts", "write_rle_cohort", "cohorts.write_rle_cohort", None),
]


@dataclass
class Span:
    run_id: str
    index: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    size: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """Records spans for one run; `installed()` patches `BINDINGS` in."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    def _begin(self, name: str) -> Span:
        span = Span(self.run_id, len(self.spans), name,
                    self._open[-1] if self._open else None,
                    time.perf_counter())
        self.spans.append(span)
        self._open.append(span.index)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def _wrap(self, original: Callable, name: str,
              size: Optional[Callable]) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._finish(span)
            if size is not None:
                span.size = size(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner_path, attr, name, size in BINDINGS:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def totals(spans: List[Span]) -> Dict[str, List[float]]:
    """Per span name: [calls, summed duration, summed size]."""
    out: Dict[str, List[float]] = {}
    for s in spans:
        t = out.setdefault(s.name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += s.duration
        t[2] += s.size
    return out


def self_times(spans: List[Span], prefix: str = "cli."):
    """Wall, child time and self time of each root span named `prefix*`.

    Self time is the wall minus the part of it the direct children cover
    (the union of their intervals). Child time is the sum of the direct
    children's durations, by child name; it equals the covered part when
    children do not overlap, which holds for single-threaded calls.
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    rows = {}
    for s in spans:
        if s.parent is not None or not s.name.startswith(prefix):
            continue
        kids = sorted(children.get(s.index, []), key=lambda c: c.start)
        covered = 0.0
        reach = s.start
        by_name: Dict[str, float] = {}
        for c in kids:
            by_name[c.name] = by_name.get(c.name, 0.0) + c.duration
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        rows[s.name[len(prefix):]] = {
            "wall": s.duration, "children": by_name,
            "child_sum": sum(by_name.values()), "covered": covered,
            "self": s.duration - covered}
    return rows
