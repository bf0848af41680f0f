"""Evaluation statistics: confusion-matrix metrics, study-level bootstrap
confidence intervals with physical subsampling, Pearson chi-squared,
Cramer's V, the survey sample-size model, and DICOM-tag agreement.

The bootstrap draws studies with replacement; each drawn study contributes
one uniformly chosen series, subsampled at the configured physical step
with an iteration-derived seed, so resamples are independent of execution
order and bit-reproducible for a fixed seed.

Each unit set is resampled once: `bootstrap_counts` returns the pooled
(R, K, K) count tensor, and every CI of that unit set is read from it by
`ci_from_counts`. Each metric is a `CountMetric`, implemented once over
(..., K, K) counts, so a point estimate is the one-matrix case of the same
code. The floats are exact: a ratio of int64 counts below 2^53 divides with
correct rounding, and weighted specificity sums its per-class rationals on
one common denominator in Python ints before a single int / int division,
which CPython rounds correctly; each equals float() of its Fraction.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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

    @classmethod
    def from_labels(cls, truth: Sequence[int], pred: Sequence[int],
                    class_names: Sequence[str]) -> "ConfusionMatrix":
        k = len(class_names)
        truth = np.asarray(truth, dtype=np.int64)
        pred = np.asarray(pred, dtype=np.int64)
        flat = np.bincount(truth * k + pred, minlength=k * k)
        return cls(flat.reshape(k, k), tuple(class_names))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class CountMetric:
    """A confusion-matrix metric implemented once, over stacked counts.

    `over(counts)` maps a (..., K, K) int64 count array to the metric of
    every matrix in it, NaN where the metric is undefined. Calling the
    metric on a ConfusionMatrix evaluates the one-matrix case.
    """

    def __init__(self, over: Callable[[np.ndarray], np.ndarray]):
        self.over = over
        functools.update_wrapper(self, over)

    def __call__(self, cm: ConfusionMatrix) -> float:
        return float(self.over(cm.counts))


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
def weighted_sensitivity(counts: np.ndarray) -> np.ndarray:
    """Support-weighted mean of per-class recall.

    Zero-support classes add nothing, so it is trace/total
    (`weighted_sensitivity_exact` is the rational oracle); int64 counts
    below 2^53 divide with correct rounding, so the float equals
    float(Fraction). Raises EmptyMatrix on an empty matrix.
    """
    total = counts.sum(axis=(-2, -1))
    _require_counts(total)
    return np.trace(counts, axis1=-2, axis2=-1) / total


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


def _support_and_negatives(counts: np.ndarray):
    """Per class: support (row sum) and negatives tn + fp = total - support."""
    support = counts.sum(axis=-1)
    return support, support.sum(axis=-1, keepdims=True) - support


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
def weighted_specificity(counts: np.ndarray) -> np.ndarray:
    """Support-weighted one-vs-rest true-negative rate.

    Classes with zero support or an undefined TNR (no true negatives and no
    false positives) are skipped; if nothing remains the result is NaN.
    Exact: the float equals float() of the Fraction-valued weighted sum.
    Raises EmptyMatrix on an empty matrix.
    """
    k = counts.shape[-1]
    stack = counts.reshape(-1, k, k)
    support, negatives = _support_and_negatives(stack)
    _require_counts(support.sum(axis=-1))
    fp = stack.sum(axis=-2) - np.diagonal(stack, axis1=-2, axis2=-1)
    tn = negatives - fp
    keep = (support > 0) & (negatives > 0)
    weight = np.where(keep, support, 0)
    negatives = np.where(keep, negatives, 1)
    # Row by row, so only K Python ints per row are alive at a time.
    out = np.array([_exact_weighted_ratio(w.tolist(), t.tolist(), g.tolist())
                    for w, t, g in zip(weight, tn, negatives)],
                   dtype=np.float64)
    return out.reshape(counts.shape[:-2])


def _log_undefined_tnr(counts: np.ndarray, class_names: Sequence[str]) -> None:
    """One warning line naming each class whose TNR was undefined, with
    the number of resamples in which it was (and so was skipped)."""
    support, negatives = _support_and_negatives(counts)
    undefined = ((support > 0) & (negatives == 0)).sum(axis=0)
    parts = [f"class {name} in {int(n)}/{len(counts)} resamples"
             for name, n in zip(class_names, undefined) if n]
    if parts:
        log.warning("TNR undefined, skipped: %s", ", ".join(parts))


# ---------------------------------------------------------------------------
# Chi-squared / Cramer's V

_GAMMA_EPS = 1e-15
_GAMMA_ITMAX = 1000


def _gammainc_p_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma via its power series (x < a+1)."""
    ap = a
    summ = 1.0 / a
    delta = summ
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        delta *= x / ap
        summ += delta
        if abs(delta) < abs(summ) * _GAMMA_EPS:
            break
    return summ * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gammainc_q_contfrac(a: float, x: float) -> float:
    """Upper regularized incomplete gamma via Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def chi2_sf(x: float, df: int) -> float:
    """Chi-squared upper tail probability (survival function)."""
    if x < 0 or df <= 0:
        raise InvalidParams("chi2_sf needs x >= 0 and df > 0")
    if x == 0:
        return 1.0
    a = df / 2.0
    half = x / 2.0
    if half < a + 1.0:
        return 1.0 - _gammainc_p_series(a, half)
    return _gammainc_q_contfrac(a, half)


@dataclass
class FactorTable:
    """Per-category correct/incorrect contingency table for one factor."""

    factor: str
    categories: List[str]
    correct: np.ndarray     # per category
    incorrect: np.ndarray

    def contingency(self) -> np.ndarray:
        return np.stack([np.asarray(self.correct, dtype=np.int64),
                         np.asarray(self.incorrect, dtype=np.int64)])


def chi_square(table) -> Tuple[float, float]:
    """Pearson chi-squared test of independence on an r x c table.

    Accepts a FactorTable or a 2-D count array. Any zero expected count is
    degenerate rather than silently corrected.
    """
    observed = table.contingency() if isinstance(table, FactorTable) else \
        np.asarray(table, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
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
    observed = table.contingency() if isinstance(table, FactorTable) else \
        np.asarray(table, dtype=np.float64)
    stat, _ = chi_square(observed)
    n = float(np.asarray(observed, dtype=np.float64).sum())
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
    level: float
    resamples: int
    seed: int


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


def bootstrap_counts(studies: Sequence[EvalStudy], k: int,
                     resamples: int = 1000, seed: int = 0,
                     step_mm: float = 10.0) -> np.ndarray:
    """Pooled confusion counts of every bootstrap resample, shape (R, K, K).

    Resample i uses its own stream `default_rng([seed, i])`: it draws n
    studies with replacement, then one uniform series per drawn study, then
    one uniform sampling start in that series' first step_mm window, and
    pools the counts of the images the greedy subsample keeps.
    """
    studies = list(studies)
    if not studies:
        raise EmptyCohort("no studies to bootstrap")

    # One combo row per (study, series, start); each series' rows are
    # contiguous, and each study's series are numbered contiguously.
    blocks = []
    first_combo = []   # per series: id of its start-0 combo
    windows = []       # per series: number of starts
    first_series = []  # per study: index of its first series
    n_series = []      # per study
    n_combos = 0
    for study in studies:
        if not study.series:
            raise EmptyCohort(f"study {study.study_uid} has no series")
        first_series.append(len(windows))
        n_series.append(len(study.series))
        for s in study.series:
            block = _series_start_counts(s, k, step_mm)
            first_combo.append(n_combos)
            windows.append(len(block))
            n_combos += len(block)
            blocks.append(block)
    combos = np.concatenate(blocks)
    first_combo, windows, first_series, n_series = (
        np.asarray(a, dtype=np.int64)
        for a in (first_combo, windows, first_series, n_series))

    n = len(studies)
    out = np.empty((resamples, k * k), dtype=np.int64)
    # Resamples run in chunks so the (chunk, n, K*K) gather stays bounded.
    chunk = max(1, _GATHER_ELEMENTS // (n * k * k))
    for lo in range(0, resamples, chunk):
        hi = min(lo + chunk, resamples)
        drawn = np.empty((hi - lo, n), dtype=np.int64)
        u_series = np.empty((hi - lo, n))
        u_start = np.empty((hi - lo, n))
        for row, i in enumerate(range(lo, hi)):
            rng = np.random.default_rng([seed, i])
            drawn[row] = rng.integers(0, n, size=n)
            rng.random(out=u_series[row])
            rng.random(out=u_start[row])
        series = first_series[drawn] + \
            (u_series * n_series[drawn]).astype(np.int64)
        starts = (u_start * windows[series]).astype(np.int64)
        out[lo:hi] = combos[first_combo[series] + starts].sum(axis=1)
    return out.reshape(resamples, k, k)


def ci_from_counts(counts: np.ndarray,
                   metric: Callable[[ConfusionMatrix], float],
                   class_names: Sequence[str],
                   level: float = 0.95, seed: int = 0) -> CIResult:
    """Percentile CI of `metric` over a `bootstrap_counts` tensor.

    A CountMetric is evaluated on the whole tensor at once; any other
    callable once per resample. The point estimate is the bootstrap
    median, so lo <= point <= hi by construction.
    """
    if metric is weighted_specificity:
        _log_undefined_tnr(counts, class_names)
    if isinstance(metric, CountMetric):
        values = metric.over(counts)
    else:
        values = np.array([metric(ConfusionMatrix(c, tuple(class_names)))
                           for c in counts], dtype=np.float64)
    resamples = len(counts)
    alpha = (1.0 - level) / 2.0
    # A resample can miss a class entirely, making a per-class metric
    # undefined there; compute the percentiles over the defined resamples.
    defined = values[np.isfinite(values)]
    if defined.size == 0:
        nan = float("nan")
        return CIResult(point=nan, lo=nan, hi=nan, level=level,
                        resamples=resamples, seed=seed)
    lo, point, hi = np.percentile(defined, [100 * alpha, 50, 100 * (1 - alpha)])
    return CIResult(point=float(point), lo=float(lo), hi=float(hi),
                    level=level, resamples=resamples, seed=seed)


def bootstrap_ci(studies: Sequence[EvalStudy],
                 metric: Callable[[ConfusionMatrix], float],
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
    several metrics of one unit set run `bootstrap_counts` once and call
    `ci_from_counts` per metric; the results are identical.
    """
    if class_names is None:
        class_names = [str(i) for i in range(k)]
    counts = bootstrap_counts(studies, k, resamples, seed, step_mm)
    return ci_from_counts(counts, metric, class_names, level, seed)


def jackknife_variance(studies: Sequence[EvalStudy],
                       metric: Callable[[ConfusionMatrix], float],
                       k: int,
                       class_names: Optional[Sequence[str]] = None) -> float:
    """Leave-one-study-out jackknife variance of the metric (no subsampling)."""
    studies = list(studies)
    if len(studies) < 2:
        raise EmptyCohort("jackknife needs at least two studies")
    if class_names is None:
        class_names = [str(i) for i in range(k)]
    per_study = np.stack([
        np.sum([np.bincount(s.truth * k + s.pred, minlength=k * k)
                for s in study.series], axis=0)
        for study in studies])
    total = per_study.sum(axis=0)
    thetas = np.array([
        metric(ConfusionMatrix((total - per_study[j]).reshape(k, k),
                               tuple(class_names)))
        for j in range(len(studies))])
    n = len(studies)
    return float((n - 1) / n * np.sum((thetas - thetas.mean()) ** 2))


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
    if age is None:
        return "Unknown"
    if age < 45:
        return "18-44 years"
    if age < 65:
        return "45-64 years"
    return ">=65 years"


def _thickness_bucket(mm: Optional[float]) -> str:
    if mm is None:
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
    table: FactorTable
    chi2: Optional[float]
    p_value: Optional[float]


def factor_report(studies: Sequence[StudyRecord],
                  evals: Dict[str, EvalStudy],
                  factor: str,
                  k: int,
                  class_names: Sequence[str],
                  min_count: int = MIN_CATEGORY_COUNT,
                  resamples: int = 1000,
                  level: float = 0.95,
                  seed: int = 0,
                  step_mm: float = 10.0) -> FactorReport:
    """Stratified performance table for one confounding factor.

    Categories with fewer units than min_count get NA metrics. The
    chi-squared test runs on the correct/incorrect contingency across
    categories when at least two categories have images.
    """
    if factor not in FACTORS:
        raise UnknownFactor(factor)
    level_kind, extract = FACTORS[factor]

    # Units per category: whole studies for study-level factors, otherwise
    # per-study pseudo-units restricted to matching series.
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
            for pos, ev_series in enumerate(ev.series):
                rec_series = by_uid.get(ev_series.series_uid)
                if rec_series is None:
                    rec_series = study.series[pos]
                by_cat.setdefault(extract(rec_series), []).append(ev_series)
            for cat, series_list in by_cat.items():
                units.setdefault(cat, []).append(
                    EvalStudy(study.study_uid, series_list))

    rows = []
    correct = []
    incorrect = []
    categories = sorted(units)
    for cat in categories:
        cat_units = units[cat]
        cm = full_confusion(cat_units, k, class_names)
        n_images = cm.total
        n_correct = int(np.trace(cm.counts))
        correct.append(n_correct)
        incorrect.append(n_images - n_correct)
        if len(cat_units) < min_count:
            rows.append(FactorRow(cat, len(cat_units), n_images,
                                  None, None, None, None))
            continue
        counts = bootstrap_counts(cat_units, k, resamples, seed, step_mm)
        rows.append(FactorRow(
            cat, len(cat_units), n_images,
            weighted_sensitivity(cm),
            ci_from_counts(counts, weighted_sensitivity, class_names, level,
                           seed),
            weighted_specificity(cm),
            ci_from_counts(counts, weighted_specificity, class_names, level,
                           seed)))

    table = FactorTable(factor, categories,
                        np.asarray(correct, dtype=np.int64),
                        np.asarray(incorrect, dtype=np.int64))
    stat = p = None
    if len(categories) >= 2:
        try:
            stat, p = chi_square(table)
        except DegenerateTable:
            pass
    return FactorReport(factor, rows, table, stat, p)
