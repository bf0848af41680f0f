"""Evaluation statistics: confusion-matrix metrics, study-level bootstrap
confidence intervals with physical subsampling, Pearson chi-squared,
Cramer's V, the survey sample-size model, and DICOM-tag agreement.

The bootstrap draws studies with replacement; each drawn study contributes
one uniformly chosen series, subsampled at the configured physical step
from a uniformly chosen start, and resamples are bit-reproducible for a
fixed seed.

One call of `bootstrap_counts` resamples every unit set of an evaluate
run (the cohort, and each factor category reported with a CI), and every
CI of a set is read from the class sums of its counts by `ci_from_counts`.
The draws of a set of n studies come from two streams per call:
`default_rng([seed, n, 0])` gives the study indices, `default_rng([seed, n,
1])` the uniforms, and resample i reads row i of each. Its draws depend on
(seed, n, i) alone, so they are prefix-stable in the resample count, do not
depend on how the pass is chunked, and are shared by all sets of one size.

Each metric is a `CountMetric`, implemented once over `ClassSums`, the
per-class support, predicted and true-positive sums of stacked confusion
matrices; a set's sums come from its occupied cells alone, and a point
estimate is the one-matrix case of the same code. The floats are
exact: a ratio of int64 counts below 2^53 divides with correct rounding,
and weighted specificity sums its per-class rationals on one common
denominator in Python ints before a single int / int division, which
CPython rounds correctly; each equals float() of its Fraction. It does so
once per distinct row of sums, as resamples repeat rows.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from .errors import (DegenerateTable, EmptyCohort, EmptyMatrix, InvalidParams,
                     UnknownFactor)
from .geometry import first_window_size, greedy_sample_indices
from .records import StudyRecord
from .taxonomy import BodyRegion

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Confusion matrix metrics


@dataclass
class ConfusionMatrix:
    counts: np.ndarray            # K x K, rows = truth, cols = prediction
    class_names: Tuple[str, ...]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.class_names)
        if self.counts.shape != (k, k):
            raise ValueError("counts must be square and match class_names")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class ClassSums(NamedTuple):
    """Per-class integer sums of stacked confusion counts, each (..., K):
    support (row sums: images of the class), predicted (column sums) and
    tp (the diagonal). Every metric reads these alone."""

    support: np.ndarray
    predicted: np.ndarray
    tp: np.ndarray

    @classmethod
    def of_cells(cls, k: int, cells: np.ndarray,
                 values: np.ndarray) -> "ClassSums":
        """The sums of (R, len(cells)) counts in flat truth * K + pred
        cells, one row per matrix; cells not listed hold 0."""
        truth, pred = np.divmod(cells, k)
        onehot = np.eye(k, dtype=np.int64)
        hit = truth == pred
        return cls(values @ onehot[truth], values @ onehot[pred],
                   values[:, hit] @ onehot[truth[hit]])


class CountMetric:
    """A confusion-matrix metric implemented once, over `ClassSums`.

    `over(sums)` maps the (..., K) sums of stacked matrices to the metric
    of every matrix, NaN where the metric is undefined. Calling the metric
    on a ConfusionMatrix evaluates the one-matrix case.
    """

    def __init__(self, over: Callable[[ClassSums], np.ndarray]):
        self.over = over
        functools.update_wrapper(self, over)

    def __call__(self, cm: ConfusionMatrix) -> float:
        k = len(cm.class_names)
        sums = ClassSums.of_cells(k, np.arange(k * k),
                                  cm.counts.reshape(1, -1))
        return float(self.over(sums)[0])


def ratio_or_nan(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den as float64, NaN where den == 0.

    Integer operands below 2^53 convert to float64 exactly, so each quotient
    is the correctly rounded value of the exact ratio.
    """
    return np.divide(num, den, out=np.full(np.shape(den), np.nan),
                     where=den != 0)


def _require_counts(total: np.ndarray) -> None:
    if np.any(total == 0):
        raise EmptyMatrix("confusion matrix has no counts")


@CountMetric
def weighted_sensitivity(sums: ClassSums) -> np.ndarray:
    """Support-weighted mean of per-class recall.

    Zero-support classes add nothing, so it is trace/total
    (`weighted_sensitivity_exact` is the rational oracle); int64 counts
    below 2^53 divide with correct rounding, so the float equals
    float(Fraction). Raises EmptyMatrix on an empty matrix.
    """
    total = sums.support.sum(axis=-1)
    _require_counts(total)
    return sums.tp.sum(axis=-1) / total


def weighted_sensitivity_exact(cm: ConfusionMatrix) -> Fraction:
    """Rational-valued variant used by exactness checks."""
    total_support = 0
    acc = Fraction(0)
    for k in range(len(cm.class_names)):
        support = int(cm.counts[k].sum())
        if support == 0:
            continue
        acc += support * Fraction(int(cm.counts[k, k]), support)
        total_support += support
    if total_support == 0:
        raise EmptyMatrix("confusion matrix has no counts")
    return acc / total_support


def _negatives(support: np.ndarray) -> np.ndarray:
    """Per class: negatives tn + fp = total - support."""
    return support.sum(axis=-1, keepdims=True) - support


def _exact_weighted_ratio(w: List[int], t: List[int], g: List[int]) -> float:
    """sum_k w_k t_k / g_k over sum_k w_k (NaN if all w_k are 0), exactly.

    The terms go on one common denominator in Python ints, which cannot
    overflow, and one int / int division ends it; CPython rounds that
    correctly, so the result equals float() of the Fraction-valued sum.
    """
    total_weight = sum(w)
    if total_weight == 0:
        return math.nan
    common = math.prod(g)
    num = sum(wk * tk * (common // gk) for wk, tk, gk in zip(w, t, g))
    return num / (total_weight * common)


@CountMetric
def weighted_specificity(sums: ClassSums) -> np.ndarray:
    """Support-weighted one-vs-rest true-negative rate.

    Classes with zero support or an undefined TNR (no true negatives and no
    false positives) are skipped; if nothing remains the result is NaN.
    Exact: the float equals float() of the Fraction-valued weighted sum.
    Raises EmptyMatrix on an empty matrix.
    """
    shape = sums.support.shape[:-1]
    support, predicted, tp = (a.reshape(-1, a.shape[-1]) for a in sums)
    negatives = _negatives(support)
    _require_counts(support.sum(axis=-1))
    tn = negatives - (predicted - tp)
    keep = (support > 0) & (negatives > 0)
    weight = np.where(keep, support, 0)
    negatives = np.where(keep, negatives, 1)
    # A class with zero weight in every row has g = 1 there and adds no
    # term, so dropping it is exact. Resamples repeat rows, so each distinct
    # (w, t, g) row is summed once, row by row so that only its Python ints
    # are alive at a time.
    used = weight.any(axis=0)
    m = int(used.sum())
    if m == 0:
        return np.full(shape, np.nan)
    table = np.ascontiguousarray(np.concatenate(
        [weight[:, used], tn[:, used], negatives[:, used]], axis=1))
    # Each row as one opaque byte string: a 1-D unique finds the distinct
    # rows faster than unique(axis=0); the order it sorts them in does not
    # matter, as every value maps back through the inverse.
    _, first, inverse = np.unique(
        table.view(np.dtype((np.void, table.itemsize * 3 * m))).ravel(),
        return_index=True, return_inverse=True)
    values = np.empty(len(first))
    for j, row in enumerate(table[first]):
        row = row.tolist()
        values[j] = _exact_weighted_ratio(row[:m], row[m:2 * m], row[2 * m:])
    return values[inverse.reshape(-1)].reshape(shape)


def class_recall(idx: int) -> CountMetric:
    """Recall of class idx: its hits over its support, NaN without support."""
    @CountMetric
    def recall(sums: ClassSums) -> np.ndarray:
        return ratio_or_nan(sums.tp[..., idx], sums.support[..., idx])
    return recall


def class_specificity(idx: int) -> CountMetric:
    """One-vs-rest TNR of class idx: tn / (tn + fp), NaN when tn + fp == 0."""
    @CountMetric
    def specificity(sums: ClassSums) -> np.ndarray:
        negatives = _negatives(sums.support)[..., idx]
        fp = sums.predicted[..., idx] - sums.tp[..., idx]
        return ratio_or_nan(negatives - fp, negatives)
    return specificity


def undefined_tnr(sums: ClassSums, class_names: Sequence[str]) -> List[str]:
    """`class <name> in <n>/<R> resamples` for each class whose TNR was
    undefined (support but no negatives) in n of the R resamples, so that
    weighted specificity skipped the class there."""
    undefined = ((sums.support > 0)
                 & (_negatives(sums.support) == 0)).sum(axis=0)
    return [f"class {name} in {int(n)}/{len(sums.support)} resamples"
            for name, n in zip(class_names, undefined) if n]


def log_undefined_tnr(found: Dict[str, List[str]]) -> None:
    """One warning line naming each table with the `undefined_tnr` of its
    resamples, if any table has one."""
    parts = [f"{table} ({', '.join(classes)})"
             for table, classes in found.items() if classes]
    if parts:
        log.warning("TNR undefined, skipped: %s", "; ".join(parts))


# ---------------------------------------------------------------------------
# Chi-squared / Cramer's V


def chi2_sf(x: float, df: int) -> float:
    """Chi-squared upper tail probability (survival function), integer df.

    The closed form of Q(df/2, x/2): erfc(sqrt(x/2)) for odd df, plus the
    finite sum of (x/2)^j exp(-x/2) / j! over j = df/2 - 1, df/2 - 2, ...
    down to 0 (even df) or 1/2 (odd df). Each term is taken in log space,
    so none underflows while the tail is representable.
    """
    if not (x >= 0 and df > 0 and df % 1 == 0):
        raise InvalidParams("chi2_sf needs x >= 0 and an integer df > 0")
    half = x / 2.0
    if half == 0:
        return 1.0
    log_half = math.log(half)
    terms = [math.exp(j * log_half - half - math.lgamma(j + 1.0))
             for j in (df / 2.0 - i for i in range(1, df // 2 + 1))]
    if df % 2:
        terms.append(math.erfc(math.sqrt(half)))
    return min(1.0, math.fsum(terms))


def chi_square(table) -> Tuple[float, float]:
    """Pearson chi-squared test of independence on an r x c count array.

    Any zero expected count is degenerate rather than silently corrected.
    """
    observed = np.asarray(table, dtype=np.float64)
    if observed.ndim != 2 or min(observed.shape) < 2:
        raise DegenerateTable("need at least a 2x2 table")
    n = observed.sum()
    if n <= 0:
        raise DegenerateTable("empty table")
    row = observed.sum(axis=1, keepdims=True)
    col = observed.sum(axis=0, keepdims=True)
    expected = row @ col / n
    if np.any(expected == 0):
        raise DegenerateTable("zero expected count")
    stat = float(((observed - expected) ** 2 / expected).sum())
    df = (observed.shape[0] - 1) * (observed.shape[1] - 1)
    return stat, chi2_sf(stat, df)


# Qualitative association strength buckets, anchored on "negligible < 0.05".
_V_BUCKETS = ((0.05, "negligible"), (0.10, "weak"), (0.30, "moderate"))


def association_bucket(v: float) -> str:
    for bound, name in _V_BUCKETS:
        if v < bound:
            return name
    return "strong"


def cramers_v(table) -> Tuple[float, str]:
    """Cramer's V in [0, 1] plus its qualitative bucket."""
    observed = np.asarray(table, dtype=np.float64)
    stat, _ = chi_square(observed)
    n = float(observed.sum())
    k = min(observed.shape[0] - 1, observed.shape[1] - 1)
    v = math.sqrt(stat / (n * k))
    v = min(1.0, v)
    return v, association_bucket(v)


# ---------------------------------------------------------------------------
# Sample size model


def sample_size(p: float, confidence: float = 0.95,
                relative_error: float = 0.10, deff: float = 1.0) -> int:
    """Survey sampling-unit count for estimating accuracy p.

    ceil(deff * z^2 * (1-p) / (relative_error^2 * p)) with z the two-sided
    normal quantile for the confidence level. deff is the design effect
    for clustered sampling units.
    """
    if not (0.0 < p < 1.0) or relative_error <= 0 or deff <= 0 \
            or not (0.0 < confidence < 1.0):
        raise InvalidParams("need 0<p<1, 0<confidence<1, relative_error>0, deff>0")
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    return math.ceil(deff * z * z * (1.0 - p) / (relative_error ** 2 * p))


# ---------------------------------------------------------------------------
# Bootstrap over studies


@dataclass
class CIResult:
    point: float
    lo: float
    hi: float
    resamples: int


@dataclass
class EvalSeries:
    """One series' evaluation arrays: positions plus truth/pred codes."""

    positions: np.ndarray  # mm along the slice normal, sorted ascending
    truth: np.ndarray      # int class codes
    pred: np.ndarray
    series_uid: str = ""

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.truth = np.asarray(self.truth, dtype=np.int64)
        self.pred = np.asarray(self.pred, dtype=np.int64)
        if not (len(self.positions) == len(self.truth) == len(self.pred)):
            raise ValueError("positions/truth/pred lengths differ")


@dataclass
class EvalStudy:
    study_uid: str
    series: List[EvalSeries] = field(default_factory=list)


def _series_start_counts(series: EvalSeries, k: int, step: float) -> np.ndarray:
    """Count vectors (flattened K x K) for every possible sampling start."""
    window = first_window_size(series.positions, step)
    out = np.zeros((window, k * k), dtype=np.int64)
    for start in range(window):
        idx = greedy_sample_indices(series.positions, step, start)
        flat = series.truth[idx] * k + series.pred[idx]
        out[start] = np.bincount(flat, minlength=k * k)
    return out


def full_confusion(studies: Sequence[EvalStudy], k: int,
                   class_names: Sequence[str]) -> ConfusionMatrix:
    """Confusion matrix over every image of every series (no subsampling)."""
    flat = np.zeros(k * k, dtype=np.int64)
    for study in studies:
        for s in study.series:
            flat += np.bincount(s.truth * k + s.pred, minlength=k * k)
    return ConfusionMatrix(flat.reshape(k, k), tuple(class_names))


_GATHER_ELEMENTS = 1 << 15


@dataclass
class ResampleCounts:
    """Pooled confusion counts of every bootstrap resample of one unit set.

    Only the (truth, pred) cells that some sampling start of the set fills
    can be non-zero, so `values` holds those flat K x K cells alone, one row
    per resample; `class_sums()` gives the (R, K) sums every metric reads.
    """

    k: int
    cells: np.ndarray   # flat truth * K + pred indices
    values: np.ndarray  # (R, len(cells)) int64

    def class_sums(self) -> ClassSums:
        return ClassSums.of_cells(self.k, self.cells, self.values)


class _GatherTables(NamedTuple):
    """One unit set's count rows and the indices that find a draw's row."""

    cells: np.ndarray         # occupied flat K x K cells
    combos: np.ndarray        # per (study, series, start): counts in cells
    first_combo: np.ndarray   # per series: row of its start-0 combo
    windows: np.ndarray       # per series: number of starts
    first_series: np.ndarray  # per study: index of its first series
    n_series: np.ndarray      # per study


def _gather_tables(studies: List[EvalStudy], k: int, step_mm: float,
                   start_counts: Dict[int, np.ndarray]) -> _GatherTables:
    """The `_GatherTables` of one unit set.

    `start_counts` maps id(series) to its `_series_start_counts`, so a
    series shared by several unit sets is counted once.
    """
    if not studies:
        raise EmptyCohort("no studies to bootstrap")
    # One combo row per (study, series, start); each series' rows are
    # contiguous, and each study's series are numbered contiguously.
    blocks, first_combo, windows, first_series, n_series = [], [], [], [], []
    n_combos = 0
    for study in studies:
        if not study.series:
            raise EmptyCohort(f"study {study.study_uid} has no series")
        first_series.append(len(windows))
        n_series.append(len(study.series))
        for s in study.series:
            block = start_counts.get(id(s))
            if block is None:
                block = start_counts[id(s)] = _series_start_counts(
                    s, k, step_mm)
            first_combo.append(n_combos)
            windows.append(len(block))
            n_combos += len(block)
            blocks.append(block)
    combos = np.concatenate(blocks)
    cells = np.flatnonzero(combos.any(axis=0))
    return _GatherTables(cells, combos[:, cells], *(
        np.asarray(a, dtype=np.int64)
        for a in (first_combo, windows, first_series, n_series)))


def bootstrap_counts(unit_sets: Sequence[Sequence[EvalStudy]], k: int,
                     resamples: int = 1000, seed: int = 0,
                     step_mm: float = 10.0) -> List[ResampleCounts]:
    """The `ResampleCounts` of each unit set, in order.

    Resample i of a set of n studies draws n studies with replacement, then
    one uniform series per drawn study, then one uniform sampling start in
    that series' first step_mm window, and pools the counts of the images
    the greedy subsample keeps. The study indices are row i of the (R, n)
    row-major `integers(0, n)` sequence of `default_rng([seed, n, 0])`;
    the series and start uniforms are row i of the (R, 2, n) `random`
    sequence of `default_rng([seed, n, 1])`. Each stream is built once per
    call and read in resample order, so the draws depend on (seed, n, i)
    alone: the first R rows are the same for any larger resample count, and
    all sets of one size gather from the same draws. Each set's counts
    equal those of a call with that set alone.
    """
    start_counts: Dict[int, np.ndarray] = {}
    tables = [_gather_tables(list(studies), k, step_mm, start_counts)
              for studies in unit_sets]
    if not tables:
        return []
    streams = {n: (np.random.default_rng([seed, n, 0]),
                   np.random.default_rng([seed, n, 1]))
               for n in {len(t.first_series) for t in tables}}
    values = [np.empty((resamples, len(t.cells)), dtype=np.int64)
              for t in tables]
    # Resamples run in chunks so each set's (chunk, n, cells) gather stays
    # bounded; reading a stream in chunks gives the draws of one call.
    chunk = max(1, _GATHER_ELEMENTS // max(
        len(t.first_series) * max(1, len(t.cells)) for t in tables))
    for lo in range(0, resamples, chunk):
        hi = min(lo + chunk, resamples)
        draws = {n: (indices.integers(0, n, size=(hi - lo, n)),
                     uniforms.random((hi - lo, 2, n)))
                 for n, (indices, uniforms) in streams.items()}
        for (_, combos, first_combo, windows, first_series, n_series), out \
                in zip(tables, values):
            drawn, uniforms = draws[len(first_series)]
            series = first_series[drawn] + \
                (uniforms[:, 0] * n_series[drawn]).astype(np.int64)
            starts = (uniforms[:, 1] * windows[series]).astype(np.int64)
            out[lo:hi] = combos[first_combo[series] + starts].sum(axis=1)
    return [ResampleCounts(k, t.cells, v) for t, v in zip(tables, values)]


def ci_from_counts(sums: ClassSums, metric: CountMetric,
                   level: float = 0.95) -> CIResult:
    """Percentile CI of `metric` over the class sums of a set's
    `bootstrap_counts` (`ResampleCounts.class_sums()`).

    The metric is evaluated on every resample at once. The point estimate
    is the bootstrap median, so lo <= point <= hi by construction.
    """
    values = metric.over(sums)
    resamples = len(sums.support)
    alpha = (1.0 - level) / 2.0
    # A resample can miss a class entirely, making a per-class metric
    # undefined there; compute the percentiles over the defined resamples.
    defined = values[np.isfinite(values)]
    if defined.size == 0:
        return CIResult(math.nan, math.nan, math.nan, resamples)
    lo, point, hi = np.percentile(defined, [100 * alpha, 50, 100 * (1 - alpha)])
    return CIResult(float(point), float(lo), float(hi), resamples)


def bootstrap_ci(studies: Sequence[EvalStudy],
                 metric: CountMetric,
                 k: int,
                 class_names: Optional[Sequence[str]] = None,
                 resamples: int = 1000,
                 level: float = 0.95,
                 seed: int = 0,
                 step_mm: float = 10.0) -> CIResult:
    """Percentile bootstrap CI with per-iteration physical subsampling.

    Each resample draws studies with replacement, keeps one random series
    per drawn study, subsamples it at step_mm, and evaluates the metric on
    the pooled confusion matrix (see `bootstrap_counts`). Callers needing
    several metrics of one unit set take the class sums of its
    `bootstrap_counts` once and call `ci_from_counts` per metric; the
    results are identical. For weighted specificity, one warning line names
    each class whose TNR was undefined in some resamples.
    """
    if class_names is None:
        class_names = [str(i) for i in range(k)]
    [counts] = bootstrap_counts([studies], k, resamples, seed, step_mm)
    sums = counts.class_sums()
    if metric is weighted_specificity:
        log_undefined_tnr({"studies": undefined_tnr(sums, class_names)})
    return ci_from_counts(sums, metric, level)


# ---------------------------------------------------------------------------
# DICOM tag agreement


def normalize_tag_value(value: Optional[str]) -> str:
    return (value or "").strip().upper().replace(" ", "_")


def tag_agreement(studies: Sequence[StudyRecord],
                  predicted_regions: Dict[str, Set[BodyRegion]],
                  tag: str = "body_part",
                  synonym_map: Optional[Dict[str, Sequence[str]]] = None) -> float:
    """Fraction of studies whose tag value maps into the predicted regions.

    Missing tags and unmapped values count as disagreement; absence is
    non-informative labeling, not a match.
    """
    if tag not in ("body_part", "procedure"):
        raise UnknownFactor(tag)
    if not studies:
        raise EmptyCohort("no studies")
    synonym_map = {normalize_tag_value(k): v
                   for k, v in (synonym_map or {}).items()}
    matched = 0
    for study in studies:
        raw = study.body_part_examined if tag == "body_part" \
            else study.procedure_description
        value = normalize_tag_value(raw)
        if not value:
            continue
        names = synonym_map.get(value)
        if names is None:
            continue
        mapped = {BodyRegion(n) for n in names}
        if mapped & predicted_regions.get(study.study_uid, set()):
            matched += 1
    return matched / len(studies)


# ---------------------------------------------------------------------------
# Factor reports


def _age_bucket(age: Optional[float]) -> str:
    # A NaN or negative age (an unparseable or corrupt value) is no age.
    if age is None or math.isnan(age) or age < 0:
        return "Unknown"
    if age < 45:
        return "18-44 years"
    if age < 65:
        return "45-64 years"
    return ">=65 years"


def _thickness_bucket(mm: Optional[float]) -> str:
    # A NaN, infinite or negative thickness (a corrupt value) is no
    # thickness.
    if mm is None or not 0 <= mm < math.inf:
        return "Unknown"
    if mm <= 2:
        return "<=2 mm"
    if mm < 5:
        return ">2 mm and <5 mm"
    return ">=5 mm"


def _kernel_bucket(series) -> str:
    kernel = (series.convolution_kernel or "") + " " + series.series_description
    return "Bone" if "BONE" in kernel.upper() else "Soft tissue"


def _sequence_bucket(series) -> str:
    from .cohort import mri_sequence_type
    return mri_sequence_type(series.series_description) or "Unknown"


# factor -> (level, extractor); study-level extractors take a StudyRecord,
# series-level ones a SeriesRecord.
FACTORS = {
    "institution": ("study", lambda s: s.institution or "Unknown"),
    "age": ("study", lambda s: _age_bucket(s.patient_age)),
    "gender": ("study", lambda s: {"F": "Female", "M": "Male"}.get(
        s.patient_sex, "Unknown")),
    "manufacturer": ("study", lambda s: s.manufacturer or "Unknown"),
    "contrast": ("series", lambda s: "With contrast" if s.contrast_agent
                 else "Without contrast"),
    "slice_thickness": ("series", lambda s: _thickness_bucket(s.slice_thickness)),
    "kernel": ("series", _kernel_bucket),
    "sequence": ("series", _sequence_bucket),
}

MIN_CATEGORY_COUNT = 5


@dataclass
class FactorRow:
    category: str
    n_units: int
    n_images: int
    sensitivity: Optional[float]
    sensitivity_ci: Optional[CIResult]
    specificity: Optional[float]
    specificity_ci: Optional[CIResult]


@dataclass
class FactorReport:
    factor: str
    rows: List[FactorRow]
    p_value: Optional[float]


def factor_units(studies: Sequence[StudyRecord], evals: Dict[str, EvalStudy],
                 factor: str) -> Dict[str, List[EvalStudy]]:
    """The bootstrap units of each category of one confounding factor.

    Units are whole studies for study-level factors, otherwise per-study
    pseudo-units restricted to the matching series (which they share with
    `evals`); each EvalSeries finds its record by `series_uid`.
    """
    if factor not in FACTORS:
        raise UnknownFactor(factor)
    level_kind, extract = FACTORS[factor]
    units: Dict[str, List[EvalStudy]] = {}
    for study in studies:
        ev = evals.get(study.study_uid)
        if ev is None or not ev.series:
            continue
        if level_kind == "study":
            units.setdefault(extract(study), []).append(ev)
        else:
            by_uid = {s.series_uid: s for s in study.series}
            by_cat: Dict[str, List[EvalSeries]] = {}
            for ev_series in ev.series:
                by_cat.setdefault(extract(by_uid[ev_series.series_uid]),
                                  []).append(ev_series)
            for cat, series_list in by_cat.items():
                units.setdefault(cat, []).append(
                    EvalStudy(study.study_uid, series_list))
    return units


def factor_report(factor: str, units: Dict[str, List[EvalStudy]],
                  sums: Dict[str, ClassSums],
                  class_names: Sequence[str],
                  level: float = 0.95) -> FactorReport:
    """Stratified performance table for one confounding factor.

    `units` is the factor's `factor_units`, and `sums` the class sums of
    the `bootstrap_counts` of each category reported with CIs, keyed by
    category; a category not in `sums` gets NA metrics. The chi-squared
    test runs on the correct/incorrect contingency across categories when
    at least two categories have images.
    """
    k = len(class_names)
    categories = sorted(units)
    rows = []
    contingency = np.zeros((2, len(categories)), dtype=np.int64)
    for j, cat in enumerate(categories):
        cm = full_confusion(units[cat], k, class_names)
        n_correct = int(np.trace(cm.counts))
        contingency[:, j] = n_correct, cm.total - n_correct
        if cat not in sums:
            rows.append(FactorRow(cat, len(units[cat]), cm.total,
                                  None, None, None, None))
            continue
        rows.append(FactorRow(
            cat, len(units[cat]), cm.total,
            weighted_sensitivity(cm),
            ci_from_counts(sums[cat], weighted_sensitivity, level),
            weighted_specificity(cm),
            ci_from_counts(sums[cat], weighted_specificity, level)))

    p = None
    if len(categories) >= 2:
        try:
            _, p = chi_square(contingency)
        except DegenerateTable:
            pass
    return FactorReport(factor, rows, p)
