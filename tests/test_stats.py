"""Statistics: exact metric identities, gamma-function oracles, bootstrap
behavior, tag agreement, and factor stratification."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from bodyregion.errors import (DegenerateTable, EmptyCohort, EmptyMatrix,
                               InvalidParams, UnknownFactor)
from bodyregion import stats
from bodyregion.geometry import first_window_size, greedy_sample_indices
from bodyregion.stats import (CIResult, ClassSums, ConfusionMatrix,
                              EvalSeries, EvalStudy, association_bucket,
                              bootstrap_ci, bootstrap_counts, chi2_sf,
                              chi_square, ci_from_counts, class_recall,
                              class_specificity, cramers_v, factor_report,
                              factor_units, full_confusion,
                              normalize_tag_value, sample_size,
                              tag_agreement, weighted_sensitivity,
                              weighted_sensitivity_exact,
                              weighted_specificity)
from bodyregion.taxonomy import BodyRegion

from conftest import factor_table, make_series, make_study, region_table


def mpmath_chi2_sf(x: float, df: int) -> float:
    """Independent oracle: regularized upper incomplete gamma at high
    precision via mpmath."""
    with mpmath.workdps(50):
        return float(mpmath.gammainc(df / 2, x / 2, mpmath.inf,
                                     regularized=True))


def random_cm(rng, k=4, scale=20):
    counts = rng.integers(0, scale, (k, k))
    if counts.sum() == 0:
        counts[0, 0] = 1
    return ConfusionMatrix(counts, tuple(str(i) for i in range(k)))


class TestWeightedSensitivity:
    def test_equals_trace_over_total_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            cm = random_cm(rng)
            exact = weighted_sensitivity_exact(cm)
            assert exact == Fraction(int(np.trace(cm.counts)), cm.total)

    def test_zero_support_class_skipped(self):
        cm = ConfusionMatrix([[3, 0], [0, 0]], ("a", "b"))
        assert weighted_sensitivity(cm) == 1.0

    def test_empty(self):
        with pytest.raises(EmptyMatrix):
            weighted_sensitivity(ConfusionMatrix(np.zeros((2, 2)), ("a", "b")))


class TestWeightedSpecificity:
    def test_hand_computed(self):
        # truth a: 3 (2 correct, 1 as b); truth b: 2 (both correct).
        cm = ConfusionMatrix([[2, 1], [0, 2]], ("a", "b"))
        # class a: fp=0, tn=2 -> 1; class b: fp=1, tn=2 -> 2/3.
        expected = (3 * 1.0 + 2 * (2 / 3)) / 5
        assert weighted_specificity(cm) == pytest.approx(expected)

    def test_perfect(self):
        cm = ConfusionMatrix(np.diag([5, 7, 3]), ("a", "b", "c"))
        assert weighted_specificity(cm) == 1.0

    def test_undefined_tnr_skipped(self):
        # Single populated class: tn + fp == 0 -> NaN overall.
        cm = ConfusionMatrix([[4, 0], [0, 0]], ("a", "b"))
        assert math.isnan(weighted_specificity(cm))


def _negatives(counts, idx):
    """(tn, tn + fp) of class idx as Python ints."""
    total = int(counts.sum())
    support = int(counts[idx].sum())
    fp = int(counts[:, idx].sum()) - int(counts[idx, idx])
    return total - support - fp, total - support


def oracle_weighted_specificity(counts):
    acc, total_support = Fraction(0), 0
    for idx in range(len(counts)):
        support = int(counts[idx].sum())
        tn, negatives = _negatives(counts, idx)
        if support == 0 or negatives == 0:
            continue
        acc += support * Fraction(tn, negatives)
        total_support += support
    return acc / total_support if total_support else None


def oracle_class_recall(idx):
    def oracle(counts):
        support = int(counts[idx].sum())
        return Fraction(int(counts[idx, idx]), support) if support else None
    return oracle


def oracle_class_specificity(idx):
    def oracle(counts):
        tn, negatives = _negatives(counts, idx)
        return Fraction(tn, negatives) if negatives else None
    return oracle


def sums_of(counts):
    """The `ClassSums` of a dense (..., K, K) count tensor: row sums,
    column sums and the diagonal."""
    return ClassSums(counts.sum(axis=-1), counts.sum(axis=-2),
                     np.diagonal(counts, axis1=-2, axis2=-1))


def edge_case_tensor(rng, k, r=300):
    """(r, k, k) counts at mixed scales, with zero-support classes,
    classes without negatives (single-class rows) and near-2^40 counts."""
    scale = rng.choice([3, 50, 10 ** 6, 2 ** 40], size=(r, 1, 1))
    counts = rng.integers(0, scale, size=(r, k, k))
    counts[rng.random((r, k)) < 0.25] = 0             # zero-support classes
    single = np.flatnonzero(rng.random(r) < 0.15)     # one populated row
    keep = rng.integers(0, k, size=len(single))
    for i, cls in zip(single, keep):
        counts[i, np.arange(k) != cls] = 0
    empty = counts.sum(axis=(1, 2)) == 0
    counts[empty, 0, 0] = 1
    return counts


class TestCountMetricsAgainstFractionOracles:
    """Every array metric equals float() of its Fraction oracle with ==,
    and is NaN exactly where the oracle is undefined."""

    @staticmethod
    def _check(metric, oracle, counts):
        values = metric.over(sums_of(counts))
        assert values.shape == counts.shape[:1]
        for value, matrix in zip(values, counts):
            expected = oracle(matrix)
            if expected is None:
                assert math.isnan(value)
            else:
                assert value == float(expected)
        # The one-matrix case is the same implementation.
        cm = ConfusionMatrix(counts[0], tuple(map(str, range(len(counts[0])))))
        assert metric(cm) == values[0] or math.isnan(values[0])

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_all_four_metrics(self, k):
        rng = np.random.default_rng(k)
        counts = edge_case_tensor(rng, k)
        names = tuple(map(str, range(k)))
        # The tensor really holds the edge cases the oracles single out.
        support = counts.sum(axis=2)
        assert (support == 0).any()
        assert (support == support.sum(axis=1, keepdims=True)).any()
        self._check(weighted_sensitivity,
                    lambda c: weighted_sensitivity_exact(
                        ConfusionMatrix(c, names)), counts)
        self._check(weighted_specificity, oracle_weighted_specificity, counts)
        for idx in range(k):
            self._check(class_recall(idx), oracle_class_recall(idx), counts)
            self._check(class_specificity(idx),
                        oracle_class_specificity(idx), counts)

    def test_weighted_metrics_reject_empty_matrix(self):
        counts = np.zeros((3, 2, 2), dtype=np.int64)
        counts[:2, 0, 0] = 1
        for metric in (weighted_sensitivity, weighted_specificity):
            with pytest.raises(EmptyMatrix):
                metric.over(sums_of(counts))


def rowwise_weighted_specificity(counts):
    """One exact ratio per matrix over all K classes, no row sharing."""
    support = counts.sum(axis=-1)
    negatives = support.sum(axis=-1, keepdims=True) - support
    tn = negatives - (counts.sum(axis=-2)
                      - np.diagonal(counts, axis1=-2, axis2=-1))
    keep = (support > 0) & (negatives > 0)
    weight = np.where(keep, support, 0)
    negatives = np.where(keep, negatives, 1)
    return np.array([stats._exact_weighted_ratio(w.tolist(), t.tolist(),
                                                 g.tolist())
                     for w, t, g in zip(weight, tn, negatives)])


class TestSpecificityOverDistinctRows:
    """Each distinct row is summed once; the values still equal the
    row-by-row exact form and float() of the Fraction oracle."""

    @staticmethod
    def _check(counts):
        values = weighted_specificity.over(sums_of(counts))
        expected = rowwise_weighted_specificity(counts)
        assert np.array_equal(values, expected, equal_nan=True)
        for value, matrix in zip(values, counts):
            oracle = oracle_weighted_specificity(matrix)
            if oracle is None:
                assert math.isnan(value)
            else:
                assert value == float(oracle)

    @pytest.mark.parametrize("k", [2, 6, 18])
    def test_duplicates_and_edge_rows(self, k):
        rng = np.random.default_rng(100 + k)
        pool = edge_case_tensor(rng, k, r=40)
        if k > 2:
            # Two classes hold nothing in any matrix: zero weight in every
            # row. (With two classes, one weighted class weights the other.)
            for cls in (0, k - 1):
                pool[:, :, cls] = pool[:, cls, :] = 0
            pool[pool.sum(axis=(1, 2)) == 0, 1, 1] = 1
        counts = pool[rng.integers(0, len(pool), size=400)]
        support = counts.sum(axis=2)
        negatives = support.sum(axis=1, keepdims=True) - support
        weighted = (support > 0) & (negatives > 0)
        assert len(np.unique(counts, axis=0)) < len(counts) // 5
        assert ((support > 0) & (negatives == 0)).any()  # tn + fp == 0
        assert ((support == 0) & (negatives > 0)).any()  # zero support
        assert weighted.any()
        assert (~weighted.any(axis=0)).sum() == (2 if k > 2 else 0)
        self._check(counts)

    def test_every_row_undefined(self):
        counts = np.zeros((5, 3, 3), dtype=np.int64)
        counts[:, 1, 1] = np.arange(1, 6)
        assert np.isnan(weighted_specificity.over(sums_of(counts))).all()
        self._check(counts)


class TestChiSquared:
    # Battery of fixed tables with oracle-checked p values.
    TABLES = [
        [[10, 0], [0, 10]],
        [[5, 5], [5, 5]],
        [[20, 30], [40, 10]],
        [[3, 7, 12], [9, 2, 4]],
        [[100, 200, 50], [80, 220, 60], [90, 210, 55]],
        [[1, 2], [3, 4], [5, 6]],
    ]

    @pytest.mark.parametrize("table", TABLES)
    def test_p_matches_mpmath_oracle(self, table):
        stat, p = chi_square(np.array(table))
        observed = np.array(table, dtype=float)
        df = (observed.shape[0] - 1) * (observed.shape[1] - 1)
        oracle = mpmath_chi2_sf(stat, df)
        assert p == pytest.approx(oracle, rel=1e-8)

    def test_diagonal_2x2_known_value(self):
        stat, p = chi_square(np.array([[10, 0], [0, 10]]))
        assert stat == pytest.approx(20.0)
        assert p == pytest.approx(mpmath_chi2_sf(20.0, 1), rel=1e-8)
        assert p == pytest.approx(7.744216e-6, rel=1e-5)

    def test_sf_battery_against_oracle(self):
        for df in (1, 2, 5, 10, 40):
            for x in (0.1, 1.0, 5.0, 20.0, 75.0, 200.0):
                assert chi2_sf(x, df) == pytest.approx(
                    mpmath_chi2_sf(x, df), rel=1e-10, abs=1e-300)

    def test_sf_edges(self):
        assert chi2_sf(0.0, 3) == 1.0
        with pytest.raises(InvalidParams):
            chi2_sf(-1.0, 3)
        with pytest.raises(InvalidParams):
            chi2_sf(1.0, 0)

    def test_closed_form_on_a_wide_grid(self):
        # Odd and even df, from just above 0 to deep in the tail: wherever
        # the oracle is a normal double, the closed form is within 1e-12.
        checked = 0
        for df in (1, 2, 3, 4, 5, 7, 10, 26, 40, 101, 400):
            for x in (1e-6, 0.1, 1.0, 5.0, 20.0, 75.0, 200.0, 700.0,
                      1500.0, 3000.0):
                oracle = mpmath_chi2_sf(x, df)
                if oracle > 1e-300:
                    checked += 1
                    assert abs(chi2_sf(x, df) - oracle) <= 1e-12 * oracle, \
                        (df, x)
        assert checked == 92

    def test_non_integer_df_is_invalid(self):
        with pytest.raises(InvalidParams):
            chi2_sf(1.0, 2.5)

    def test_zero_expected_degenerate(self):
        with pytest.raises(DegenerateTable):
            chi_square(np.array([[0, 0], [5, 5]]))

    def test_too_small(self):
        with pytest.raises(DegenerateTable):
            chi_square(np.array([[1, 2]]))


class TestCramersV:
    def test_independence_is_zero(self):
        v, bucket = cramers_v(np.array([[10, 10], [10, 10]]))
        assert v == 0.0
        assert bucket == "negligible"

    def test_perfect_association_is_one(self):
        v, bucket = cramers_v(np.array([[10, 0], [0, 10]]))
        assert v == pytest.approx(1.0)
        assert bucket == "strong"

    def test_formula(self):
        table = np.array([[20, 30], [40, 10]])
        stat, _ = chi_square(table)
        v, _ = cramers_v(table)
        assert v == pytest.approx(math.sqrt(stat / table.sum()))

    @pytest.mark.parametrize("v,bucket", [
        (0.0, "negligible"), (0.049, "negligible"), (0.05, "weak"),
        (0.099, "weak"), (0.10, "moderate"), (0.29, "moderate"),
        (0.30, "strong"), (1.0, "strong"),
    ])
    def test_buckets(self, v, bucket):
        assert association_bucket(v) == bucket


class TestSampleSize:
    def test_headline_value(self):
        assert sample_size(0.9, 0.95, 0.1, 1.0) == 43

    def test_design_effect_scales(self):
        base = sample_size(0.9, 0.95, 0.1, 1.0)
        assert sample_size(0.9, 0.95, 0.1, 2.0) in (2 * base - 1, 2 * base)

    def test_formula(self):
        from statistics import NormalDist
        z = NormalDist().inv_cdf(0.975)
        expected = math.ceil(z * z * 0.2 / (0.05 ** 2 * 0.8))
        assert sample_size(0.8, 0.95, 0.05, 1.0) == expected

    @pytest.mark.parametrize("kwargs", [
        {"p": 0.0}, {"p": 1.0}, {"confidence": 1.5},
        {"relative_error": 0.0}, {"deff": -1.0},
    ])
    def test_invalid(self, kwargs):
        args = {"p": 0.9, "confidence": 0.95, "relative_error": 0.1,
                "deff": 1.0}
        args.update(kwargs)
        with pytest.raises(InvalidParams):
            sample_size(**args)


def eval_study(uid, truth, pred, spacing=10.0, series_uid="S1"):
    """One study of one series; the series UID is make_series' default, so
    that factor_units finds the series of a make_study record."""
    positions = np.arange(len(truth), dtype=float) * spacing
    return EvalStudy(uid, [EvalSeries(positions, truth, pred,
                                      series_uid=series_uid)])


class TestBootstrap:
    def _cohort(self, n=30, acc=0.8, k=3, seed=0):
        rng = np.random.default_rng(seed)
        studies = []
        for i in range(n):
            truth = rng.integers(0, k, 12)
            pred = np.where(rng.random(12) < acc, truth,
                            (truth + 1) % k)
            studies.append(eval_study(f"S{i}", truth, pred))
        return studies

    def test_deterministic_for_seed(self):
        studies = self._cohort()
        a = bootstrap_ci(studies, weighted_sensitivity, 3, resamples=200, seed=7)
        b = bootstrap_ci(studies, weighted_sensitivity, 3, resamples=200, seed=7)
        assert (a.point, a.lo, a.hi) == (b.point, b.lo, b.hi)

    def test_seed_changes_resamples(self):
        studies = self._cohort()
        a = bootstrap_ci(studies, weighted_sensitivity, 3, resamples=200, seed=7)
        b = bootstrap_ci(studies, weighted_sensitivity, 3, resamples=200, seed=8)
        assert (a.lo, a.hi) != (b.lo, b.hi)

    def test_degenerate_all_correct(self):
        studies = [eval_study(f"S{i}", [0, 1, 2], [0, 1, 2]) for i in range(10)]
        ci = bootstrap_ci(studies, weighted_sensitivity, 3, resamples=100)
        assert (ci.point, ci.lo, ci.hi) == (1.0, 1.0, 1.0)

    def test_ordering_invariant(self):
        ci = bootstrap_ci(self._cohort(), weighted_sensitivity, 3,
                          resamples=100, seed=3)
        assert ci.lo <= ci.point <= ci.hi

    def test_interval_brackets_truth_roughly(self):
        studies = self._cohort(n=60, acc=0.8, seed=2)
        ci = bootstrap_ci(studies, weighted_sensitivity, 3, resamples=400)
        assert ci.lo < 0.8 < ci.hi or abs(ci.point - 0.8) < 0.05

    def test_empty(self):
        with pytest.raises(EmptyCohort):
            bootstrap_ci([], weighted_sensitivity, 3)

    def test_subsampling_uses_physical_step(self):
        # 2 mm spacing, 10 mm step: only ~1/5 of slices per resample, so a
        # periodic error pattern with period 5 makes resample values move.
        truth = np.zeros(50, dtype=int)
        pred = truth.copy()
        pred[::5] = 1  # every 10 mm starting at 0
        studies = [EvalStudy(f"S{i}", [EvalSeries(
            np.arange(50) * 2.0, truth, pred)]) for i in range(10)]
        ci = bootstrap_ci(studies, weighted_sensitivity, 2, resamples=200,
                          step_mm=10.0)
        # A start-0 draw sees 0% accuracy on its sampled slices; other
        # starts see 100%. With 10 draws per resample the accuracy is
        # 1 - (#start-0 draws)/10, so the interval is visibly wide even
        # though full-series accuracy is a constant 0.8.
        assert ci.hi - ci.lo >= 0.3
        assert ci.hi == 1.0


def reference_bootstrap_counts(studies, k, resamples, seed, step_mm):
    """Resample by resample and study by study over the documented streams:
    resample i takes the next n study indices of `default_rng([seed, n,
    0])` and the next 2n uniforms of `default_rng([seed, n, 1])`, the first
    n picking each drawn study's series and the last n its sampling start,
    and counts the images `greedy_sample_indices` keeps."""
    n = len(studies)
    indices = np.random.default_rng([seed, n, 0])
    uniforms = np.random.default_rng([seed, n, 1])
    out = np.zeros((resamples, k, k), dtype=np.int64)
    for i in range(resamples):
        drawn = indices.integers(0, n, size=n)
        picks, starts = uniforms.random((2, n))
        for j, pick, u in zip(drawn, picks, starts):
            series = studies[j].series
            s = series[int(pick * len(series))]
            start = int(u * first_window_size(s.positions, step_mm))
            for m in greedy_sample_indices(s.positions, step_mm, start):
                out[i, s.truth[m], s.pred[m]] += 1
    return out


def expand(counts):
    """The (R, K, K) tensor of a `ResampleCounts`: its values in their
    cells, zero elsewhere."""
    out = np.zeros((len(counts.values), counts.k * counts.k), dtype=np.int64)
    out[:, counts.cells] = counts.values
    return out.reshape(-1, counts.k, counts.k)


def uneven_cohort(n=14, k=3, seed=0):
    """Studies with one to three series whose spacings (so first-window
    sizes) and lengths differ; every series holds every class."""
    rng = np.random.default_rng(seed)
    studies = []
    for i in range(n):
        series = []
        for j in range(1 + i % 3):
            spacing = rng.choice([1.5, 2.5, 4.0, 10.0, 12.0])
            m = int(rng.integers(3 * k, 40))
            truth = np.arange(m) % k
            pred = np.where(rng.random(m) < 0.8, truth, rng.integers(0, k, m))
            series.append(EvalSeries(np.cumsum(np.full(m, spacing)), truth,
                                     pred, series_uid=f"S{i}.{j}"))
        studies.append(EvalStudy(f"S{i}", series))
    return studies


def one_set_counts(studies, k, resamples, seed, step_mm):
    """The (R, K, K) counts of one unit set's pass."""
    [counts] = bootstrap_counts([studies], k, resamples, seed, step_mm)
    return expand(counts)


class TestSharedResamplePass:
    def test_counts_match_reference_loop(self, monkeypatch):
        studies = uneven_cohort()
        windows = {first_window_size(s.positions, 10.0)
                   for st in studies for s in st.series}
        assert len(windows) >= 3
        # Small gather chunks, so chunk boundaries fall inside the run.
        monkeypatch.setattr(stats, "_GATHER_ELEMENTS", 500)
        got = one_set_counts(studies, 3, 57, 11, 10.0)
        assert got.dtype == np.int64
        assert np.array_equal(
            got, reference_bootstrap_counts(studies, 3, 57, 11, 10.0))

    def test_empty_columns_across_chunks(self, monkeypatch):
        # Five classes, of which the studies hold only the first three and
        # never confuse class 2: most of the 25 count columns stay empty.
        studies = uneven_cohort(n=12, k=3, seed=4)
        for st in studies:
            for s in st.series:
                s.pred = np.where(s.truth == 2, 2, s.pred % 2)
        monkeypatch.setattr(stats, "_GATHER_ELEMENTS", 120)
        [counts] = bootstrap_counts([studies], 5, 90, 3, 10.0)
        got = expand(counts)
        assert len(counts.cells) == 5
        assert (got.reshape(90, -1) == 0).all(axis=0).sum() == 20
        assert np.array_equal(
            got, reference_bootstrap_counts(studies, 5, 90, 3, 10.0))
        # The class sums read from the five cells are the dense ones.
        for a, b in zip(counts.class_sums(), sums_of(got)):
            assert a.dtype == np.int64 and np.array_equal(a, b)

    @staticmethod
    def _series_factor_sets(cohort):
        """Per-study pseudo-units of a series-level factor: each study's
        first series, and its other series, sharing the cohort's
        EvalSeries objects."""
        first = [EvalStudy(st.study_uid, st.series[:1]) for st in cohort]
        rest = [EvalStudy(st.study_uid, st.series[1:]) for st in cohort
                if len(st.series) > 1]
        return first, rest

    @pytest.mark.parametrize("gather", [150, 400, 1 << 15])
    def test_many_sets_equal_separate_passes(self, monkeypatch, gather):
        cohort = uneven_cohort(n=16, seed=2)
        first, rest = self._series_factor_sets(cohort)
        # Two sets of 8 studies, two sets of 16 (the cohort and its first
        # series), one of 5, one of 10 (the studies with further series),
        # and the first set again; small gathers put chunk edges inside
        # the run.
        sets = [cohort[:8], cohort[8:], cohort, first, cohort[:5], rest,
                cohort[:8]]
        assert sorted({len(u) for u in sets}) == [5, 8, 10, 16]
        monkeypatch.setattr(stats, "_GATHER_ELEMENTS", gather)
        got = bootstrap_counts(sets, 3, 75, 9, 10.0)
        assert len(got) == len(sets)
        for units, counts in zip(sets, got):
            assert np.array_equal(
                expand(counts),
                reference_bootstrap_counts(units, 3, 75, 9, 10.0))

    def test_prefix_stable_in_resample_count(self):
        cohort = uneven_cohort(n=12, seed=6)
        sets = [cohort, cohort[:5], cohort[5:10]]
        short = bootstrap_counts(sets, 3, 37, 4, 10.0)
        long = bootstrap_counts(sets, 3, 1000, 4, 10.0)
        for a, b in zip(short, long):
            assert np.array_equal(expand(a), expand(b)[:37])

    def test_counts_independent_of_chunk_size(self, monkeypatch):
        cohort = uneven_cohort(n=15, seed=7)
        sets = [cohort, cohort[:6], cohort[6:12], cohort[3:]]
        runs = []
        for gather in (150, 400, 1 << 15):
            monkeypatch.setattr(stats, "_GATHER_ELEMENTS", gather)
            runs.append([expand(c) for c in
                         bootstrap_counts(sets, 3, 101, 2, 10.0)])
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                assert np.array_equal(a, b)

    def test_each_series_counted_once_per_call(self, monkeypatch):
        cohort = uneven_cohort(n=9, seed=5)
        first, rest = self._series_factor_sets(cohort)
        calls = []
        start_counts = stats._series_start_counts

        def counting(series, k, step):
            calls.append(id(series))
            return start_counts(series, k, step)

        monkeypatch.setattr(stats, "_series_start_counts", counting)
        bootstrap_counts([cohort, first, rest, cohort[:4]], 3, 20, 0, 10.0)
        assert sorted(calls) == sorted(
            id(s) for st in cohort for s in st.series)

    def test_empty_set_or_study_is_refused(self):
        cohort = uneven_cohort(n=3)
        with pytest.raises(EmptyCohort):
            bootstrap_counts([cohort, []], 3, 5, 1, 10.0)
        with pytest.raises(EmptyCohort):
            bootstrap_counts([cohort + [EvalStudy("bare")]], 3, 5, 1, 10.0)
        assert bootstrap_counts([], 3, 5, 1, 10.0) == []

    def test_region_rows_cis_equal_bootstrap_ci(self):
        studies = uneven_cohort()
        names = ["a", "b", "c"]
        rows = region_table(studies, names, resamples=150, seed=5)
        metrics = [(weighted_sensitivity, weighted_specificity)] + [
            (class_recall(i), class_specificity(i)) for i in range(3)]
        assert len(rows) == len(metrics)
        for row, (sens, spec) in zip(rows, metrics):
            for ci, metric in ((row.sensitivity_ci, sens),
                               (row.specificity_ci, spec)):
                assert ci == bootstrap_ci(studies, metric, 3, names,
                                          resamples=150, seed=5)

    def test_factor_report_cis_equal_bootstrap_ci(self):
        studies = uneven_cohort(n=16)
        names = ["a", "b", "c"]
        records = [make_study(study_uid=st.study_uid, patient_id=f"P{i}",
                              institution="AB"[i % 2])
                   for i, st in enumerate(studies)]
        evals = {st.study_uid: st for st in studies}
        report = factor_table(records, evals, "institution", names,
                              resamples=150, seed=5, step_mm=8.0)
        for inst, row in zip("AB", report.rows):
            units = studies[inst == "B"::2]
            for ci, metric in ((row.sensitivity_ci, weighted_sensitivity),
                               (row.specificity_ci, weighted_specificity)):
                assert ci == bootstrap_ci(units, metric, 3, names,
                                          resamples=150, seed=5,
                                          step_mm=8.0)

    def test_undefined_tnr_logged_once_per_bootstrap_ci(self, caplog):
        # Ten studies hold only class a; in every resample that draws
        # neither of the two mixed studies, class a has no negatives.
        studies = [eval_study(f"A{i}", [0, 0], [0, 0]) for i in range(10)]
        studies += [eval_study(f"M{i}", [0, 1], [0, 1]) for i in range(2)]
        [counts] = bootstrap_counts([studies], 2, 400, 0, 10.0)
        lone = int((expand(counts)[:, 1].sum(axis=1) == 0).sum())
        assert 20 < lone < 400
        with caplog.at_level("WARNING", logger="bodyregion.stats"):
            # Reading a CI from the sums logs nothing; its caller reports.
            ci_from_counts(counts.class_sums(), weighted_specificity)
            assert caplog.records == []
            ci = bootstrap_ci(studies, weighted_specificity, 2, ["a", "b"],
                              resamples=400)
        lines = [r.getMessage() for r in caplog.records]
        assert lines == [f"TNR undefined, skipped: studies (class a in "
                         f"{lone}/400 resamples)"]
        assert ci.resamples == 400

    def test_undefined_tnr_one_line_for_all_tables(self, caplog):
        studies = [eval_study(f"A{i}", [0, 0], [0, 0]) for i in range(10)]
        studies += [eval_study(f"M{i}", [0, 1], [0, 1]) for i in range(2)]
        full, only_a, mixed = (c.class_sums() for c in bootstrap_counts(
            [studies, studies[:10], studies[10:]], 2, 50, 0, 10.0))
        lone = int((full.support[:, 1] == 0).sum())
        assert 0 < lone < 50
        with caplog.at_level("WARNING", logger="bodyregion.stats"):
            stats.log_undefined_tnr(
                {table: stats.undefined_tnr(sums, ["a", "b"]) for table, sums
                 in (("regions", full), ("site=X", only_a),
                     ("site=Y", mixed))})
            stats.log_undefined_tnr(
                {"regions": stats.undefined_tnr(mixed, ["a", "b"])})
        assert [r.getMessage() for r in caplog.records] == [
            f"TNR undefined, skipped: regions (class a in {lone}/50 "
            f"resamples); site=X (class a in 50/50 resamples)"]


class TestChunkedGeneratorDraws:
    """`bootstrap_counts` reads each stream in chunks and relies on chunked
    `Generator.integers` and `Generator.random` calls concatenating to the
    draws of one call; a numpy release that breaks this changes every CI."""

    @staticmethod
    def _cuts(rng, total):
        """Random chunk lengths summing to `total`, zero-length included."""
        cuts = np.sort(rng.integers(0, total + 1, size=rng.integers(0, 6)))
        return np.diff(np.concatenate([[0], cuts, [total]]))

    def test_chunks_concatenate_to_one_call(self):
        rng = np.random.default_rng(2024)
        for case in range(400):
            n = 1 if case % 10 == 0 else int(rng.integers(1, 70))
            r = int(rng.integers(1, 120))
            # Large bounds make the bounded-integer sampler reject and redraw.
            high = 3 << 30 if case % 10 == 1 else n
            one = np.random.default_rng(case)
            chunked = np.random.default_rng(case)
            assert np.array_equal(
                np.concatenate([chunked.integers(0, high, size=(c, n))
                                for c in self._cuts(rng, r)]),
                one.integers(0, high, size=(r, n))), (case, n, r)
            assert np.array_equal(
                np.concatenate([chunked.random((c, 2, n))
                                for c in self._cuts(rng, r)]),
                one.random((r, 2, n))), (case, n, r)


class TestTagAgreement:
    def _studies(self):
        return [
            make_study(study_uid="S1", body_part_examined="CHEST",
                       procedure_description="CT CHEST W"),
            make_study(study_uid="S2", body_part_examined="ABD PELVIS",
                       procedure_description=None),
            make_study(study_uid="S3", body_part_examined=None,
                       procedure_description="MRI BRAIN"),
        ]

    SYNONYMS = {"CHEST": ["Chest"], "ABD_PELVIS": ["Abdomen", "Pelvis"],
                "CT_CHEST_W": ["Chest"], "MRI_BRAIN": ["Head"]}

    def test_body_part(self):
        predicted = {"S1": {BodyRegion.CHEST}, "S2": {BodyRegion.PELVIS},
                     "S3": {BodyRegion.HEAD}}
        # S3 has no body part tag -> disagreement; the other two match.
        assert tag_agreement(self._studies(), predicted, "body_part",
                             self.SYNONYMS) == pytest.approx(2 / 3)

    def test_procedure(self):
        predicted = {"S1": {BodyRegion.CHEST}, "S2": {BodyRegion.PELVIS},
                     "S3": {BodyRegion.HEAD}}
        assert tag_agreement(self._studies(), predicted, "procedure",
                             self.SYNONYMS) == pytest.approx(2 / 3)

    def test_unmapped_value_is_disagreement(self):
        studies = [make_study(study_uid="S1", body_part_examined="XXWEIRD")]
        assert tag_agreement(studies, {"S1": {BodyRegion.CHEST}},
                             "body_part", self.SYNONYMS) == 0.0

    def test_normalization(self):
        assert normalize_tag_value("  c spine ") == "C_SPINE"

    def test_unknown_tag(self):
        with pytest.raises(UnknownFactor):
            tag_agreement(self._studies(), {}, "series_time", {})


class TestFactorReport:
    def _setup(self, n_per_cat=6):
        studies, evals = [], {}
        for i in range(2 * n_per_cat):
            inst = "Alpha" if i < n_per_cat else "Beta"
            correct = i % 2 == 0 if inst == "Beta" else True
            st = make_study(study_uid=f"S{i}", patient_id=f"P{i}",
                            institution=inst)
            truth = [0, 1, 0, 1]
            pred = truth if correct else [1, 0, 1, 0]
            evals[st.study_uid] = eval_study(st.study_uid, truth, pred)
            studies.append(st)
        return studies, evals

    def test_categories_and_chi2(self):
        studies, evals = self._setup()
        report = factor_table(studies, evals, "institution", ["a", "b"],
                              resamples=50)
        assert [r.category for r in report.rows] == ["Alpha", "Beta"]
        alpha = report.rows[0]
        assert alpha.sensitivity == pytest.approx(1.0)
        assert report.p_value is not None and report.p_value < 0.01

    def test_small_category_gets_na(self):
        studies, evals = self._setup(n_per_cat=6)
        studies[0].institution = "Gamma"  # now a 1-study category
        report = factor_table(studies, evals, "institution", ["a", "b"],
                              resamples=50)
        gamma = next(r for r in report.rows if r.category == "Gamma")
        assert gamma.sensitivity is None and gamma.n_units == 1

    def test_na_exactly_when_not_in_counts(self):
        # factor_report leaves the count rule to its caller: a category
        # gets CIs when it has counts, whatever its size.
        studies, evals = self._setup(n_per_cat=6)
        studies[0].institution = "Gamma"
        units = factor_units(studies, evals, "institution")
        [alpha, gamma] = bootstrap_counts(
            [units["Alpha"], units["Gamma"]], 2, 30, 0, 10.0)
        report = factor_report("institution", units,
                               {"Alpha": alpha.class_sums(),
                                "Gamma": gamma.class_sums()}, ["a", "b"])
        rows = {r.category: r for r in report.rows}
        assert rows["Beta"].n_units == 6
        assert rows["Beta"].sensitivity is None
        assert rows["Beta"].sensitivity_ci is None
        assert rows["Gamma"].n_units == 1
        assert rows["Gamma"].sensitivity_ci.resamples == 30
        assert rows["Alpha"].specificity_ci.resamples == 30

    def test_series_found_by_uid(self):
        # The study's first series has no evaluable image, so its one
        # EvalSeries is the record's second series.
        record = make_study(series=[
            make_series(series_uid="A", slice_thickness=1.0),
            make_series(series_uid="B", slice_thickness=6.0)])
        evals = {record.study_uid: eval_study(record.study_uid, [0, 1],
                                              [0, 1], series_uid="B")}
        units = factor_units([record], evals, "slice_thickness")
        assert list(units) == [">=5 mm"]

    def test_unknown_factor(self):
        with pytest.raises(UnknownFactor):
            factor_table([], {}, "zodiac", ["a", "b"])

    @pytest.mark.parametrize("age,bucket", [
        (None, "Unknown"), (math.nan, "Unknown"), (-5.0, "Unknown"),
        (0.0, "18-44 years"), (44.9, "18-44 years"), (45.0, "45-64 years"),
        (65.0, ">=65 years"),
    ])
    def test_age_buckets(self, age, bucket):
        assert stats._age_bucket(age) == bucket

    @pytest.mark.parametrize("mm,bucket", [
        (None, "Unknown"), (math.nan, "Unknown"), (math.inf, "Unknown"),
        (-math.inf, "Unknown"), (-0.5, "Unknown"), (0.0, "<=2 mm"),
        (2.0, "<=2 mm"), (2.5, ">2 mm and <5 mm"), (5.0, ">=5 mm"),
        (1e300, ">=5 mm"),
    ])
    def test_thickness_buckets(self, mm, bucket):
        # A DS "NaN" or "inf" reaches the reader as a float, like an age.
        assert stats._thickness_bucket(mm) == bucket

    def test_series_level_factor(self):
        studies, evals = self._setup()
        for st in studies:
            for se in st.series:
                se.slice_thickness = 1.0
        report = factor_table(studies, evals, "slice_thickness", ["a", "b"],
                              resamples=50)
        assert [r.category for r in report.rows] == ["<=2 mm"]
