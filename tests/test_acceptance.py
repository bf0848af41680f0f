"""Release gate: nine end-to-end verification criteria.

Each criterion is one test named ``test_criterion_<n>_*`` so the verbose
pytest report carries exactly one pass/fail line per criterion; each test
also prints an ``ACCEPTANCE n: PASS`` line with its measured numbers.
"""

import csv
import os
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from bodyregion.cli import main
from bodyregion.cohort import Split, partition_patients
from bodyregion.dicomio import (EXPLICIT_VR_LE, IMPLICIT_VR_LE, RLE_LOSSLESS,
                                build_dicom, parse_dicom)
from bodyregion.errors import BodyRegionError
from bodyregion.geometry import (axial_angle, boxes_by_frame,
                                 first_window_size, greedy_sample_indices,
                                 load_boxes, project_box_labels)
from bodyregion.ingest import (ingest_tree, read_metadata_ndjson,
                               write_metadata_ndjson)
from bodyregion.phantom import default_six_region_spec, generate_phantom
from bodyregion.pixels import decode_pixels, rle_encode_frame
from bodyregion.postprocess import (SeriesStatus, entropies, margins,
                                    merge_abdomen_chest, read_series_results,
                                    reject_uncertain, remove_outlier_runs,
                                    run_pipeline, smooth_labels)
from bodyregion.preprocess import clip_normalize
from bodyregion.records import sidecar_row
from bodyregion.report import emit_factor_report, emit_region_report
from bodyregion.stats import (ConfusionMatrix, EvalSeries, EvalStudy,
                              bootstrap_ci, chi_square, cramers_v,
                              sample_size, weighted_sensitivity,
                              weighted_sensitivity_exact)
from bodyregion.taxonomy import CANONICAL_ORDER, BodyRegion

from conftest import (base_dataset, factor_table, make_dicom, make_image,
                      make_study, region_table)
from test_pixels import oracle_rle_decode


def _announce(n, detail):
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. Weighted sensitivity is exactly overall accuracy


def test_criterion_1_weighted_sensitivity_equals_accuracy():
    rng = np.random.default_rng(1)
    t0 = time.time()
    for _ in range(10_000):
        k = int(rng.integers(2, 20))
        counts = rng.integers(0, 50, (k, k))
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix(counts, tuple(str(i) for i in range(k)))
        expected = Fraction(int(np.trace(counts)), int(counts.sum()))
        assert weighted_sensitivity_exact(cm) == expected
        assert weighted_sensitivity(cm) == float(expected)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _announce(1, f"10,000 random matrices, exact rational equality, "
                 f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Normalization bounds and intensity-affine invariance


def test_criterion_2_normalization_bounds_and_invariance():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        h, w = rng.integers(8, 65, 2)
        img = rng.normal(rng.uniform(-500, 500), rng.uniform(1, 400), (h, w))
        out = clip_normalize(img)
        assert np.all(out >= -2.0) and np.all(out <= 2.0)
        a = rng.uniform(0.25, 4.0)
        b = rng.uniform(-1000, 1000)
        diff = np.abs(clip_normalize(a * img + b) - out).max()
        worst = max(worst, diff)
        assert diff <= 1e-9
    assert np.array_equal(clip_normalize(np.full((16, 16), 123.0)),
                          np.zeros((16, 16)))
    _announce(2, f"1000 images in [-2, 2]; worst affine deviation {worst:.2e}; "
                 f"constant maps to zeros")


# ---------------------------------------------------------------------------
# 3. Statistics against high-precision oracles


def _oracle_chi2_sf(x, df):
    with mp.workdps(50):
        return float(mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, mp.inf,
                                 regularized=True))


def test_criterion_3_statistics_oracles():
    battery = [
        [[10, 0], [0, 10]],
        [[5, 5], [5, 5]],
        [[20, 5], [10, 15]],
        [[30, 10], [10, 30]],
        [[8, 2, 4], [3, 9, 5]],
        [[12, 7, 3], [8, 11, 9], [5, 6, 14]],
        [[50, 30, 20], [25, 35, 40]],
    ]
    worst = 0.0
    for table in battery:
        t = np.asarray(table)
        stat, p = chi_square(t)
        df = (t.shape[0] - 1) * (t.shape[1] - 1)
        oracle = _oracle_chi2_sf(stat, df)
        rel = abs(p - oracle) / oracle
        worst = max(worst, rel)
        assert rel <= 1e-8, (table, p, oracle)
    stat, p = chi_square(np.array([[10, 0], [0, 10]]))
    assert stat == pytest.approx(20.0)
    assert p == pytest.approx(7.744216e-6, rel=1e-4)

    v_indep, bucket_indep = cramers_v(np.array([[10, 10], [10, 10]]))
    assert v_indep == 0.0 and bucket_indep == "negligible"
    v_perfect, bucket_perfect = cramers_v(np.array([[10, 0], [0, 10]]))
    assert v_perfect == 1.0 and bucket_perfect == "strong"
    v_diag, _ = cramers_v(np.diag([7, 9, 4]))
    assert v_diag == 1.0

    assert sample_size(0.9, 0.95, 0.1, 1) == 43
    _announce(3, f"chi-square battery worst relative error {worst:.2e}; "
                 f"V fixtures exact; sample size 43")


# ---------------------------------------------------------------------------
# 4. Bootstrap determinism, degenerate case, empirical coverage


def _coverage_cohort(rng, n_studies=200, n_slices=10, p=0.8):
    studies = []
    for s in range(n_studies):
        truth = rng.integers(0, 2, n_slices)
        correct = rng.random(n_slices) < p
        pred = np.where(correct, truth, 1 - truth)
        studies.append(EvalStudy(f"S{s}", [EvalSeries(
            np.arange(n_slices) * 10.0, truth, pred)]))
    return studies


def test_criterion_4_bootstrap_behavior():
    t0 = time.time()
    cohort = _coverage_cohort(np.random.default_rng(0))
    a = bootstrap_ci(cohort, weighted_sensitivity, 2, resamples=200, seed=7)
    b = bootstrap_ci(cohort, weighted_sensitivity, 2, resamples=200, seed=7)
    assert (a.point, a.lo, a.hi) == (b.point, b.lo, b.hi)

    perfect = [EvalStudy(f"S{s}", [EvalSeries(np.arange(5) * 10.0,
                                              [0, 1, 0, 1, 0],
                                              [0, 1, 0, 1, 0])])
               for s in range(20)]
    ci = bootstrap_ci(perfect, weighted_sensitivity, 2, resamples=200, seed=0)
    assert (ci.lo, ci.point, ci.hi) == (1.0, 1.0, 1.0)

    hits = 0
    trials = 1000
    for trial in range(trials):
        rng = np.random.default_rng(10_000 + trial)
        studies = _coverage_cohort(rng)
        ci = bootstrap_ci(studies, weighted_sensitivity, 2,
                          resamples=300, seed=trial)
        hits += ci.lo <= 0.8 <= ci.hi
    coverage = hits / trials
    elapsed = time.time() - t0
    assert 0.93 <= coverage <= 0.97
    assert elapsed < 300.0
    _announce(4, f"deterministic; degenerate CI [1, 1]; coverage "
                 f"{coverage:.3f} over {trials} trials in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. Series rule engine stages and closure


def _one_hot_matrix(labels, classes=tuple(CANONICAL_ORDER), peak=0.9):
    k = len(classes)
    probs = np.full((len(labels), k), (1.0 - peak) / (k - 1))
    for i, label in enumerate(labels):
        probs[i, classes.index(label)] = peak
    return probs


def _run(labels, modality, classes=tuple(CANONICAL_ORDER)):
    return run_pipeline([f"sop{i}" for i in range(len(labels))],
                        _one_hot_matrix(labels, classes), classes, modality)


def test_criterion_5_rule_engine_stages():
    A, B, C = BodyRegion.ABDOMEN, BodyRegion.CHEST, BodyRegion.ABDOMEN_CHEST
    classes = tuple(CANONICAL_ORDER)

    def merged(labels):
        codes = merge_abdomen_chest(_one_hot_matrix(labels), classes)
        return [classes[k] for k in codes]

    # Stage 1: merge to the predominant class; absence defaults to Abdomen.
    assert merged([B, B, C, A]) == [B, B, B, A]
    assert merged([C, C]) == [A, A]
    # Stage 2: breast takeover at the inclusive >= 50% boundary, MRI only.
    half = [BodyRegion.BREAST, BodyRegion.BREAST, A, A]
    assert _run(half, "MR").final_labels == [BodyRegion.BREAST] * 4
    below = half[:2] + [A, A, A]
    assert _run(below, "MR").final_labels == below
    assert _run(half, "CT").final_labels == half
    # Stage 3: uncertainty gate accepts one-hot, rejects uniform, MRI only.
    sharp = _one_hot_matrix([A] * 5, classes, peak=0.95)
    flat = np.full((5, len(classes)), 1.0 / len(classes))

    def gate(probs, modality):
        return reject_uncertain(margins(probs), entropies(probs), "margin",
                                0.2, modality)

    assert gate(sharp, "MR") is SeriesStatus.ACCEPTED
    assert gate(flat, "MR") is SeriesStatus.REJECTED_UNCERTAIN
    assert gate(flat, "CT") is SeriesStatus.ACCEPTED
    # Stage 4: interior short-run outlier removal.
    assert remove_outlier_runs([A, A, B, A, A]) == [A] * 5
    # Stage 5: window-3 smoothing flips an isolated one-hot outlier.
    assert [classes[k] for k in smooth_labels(
        _one_hot_matrix([A, A, B, A, A]), window=3)] == [A] * 5

    # Closure: AbdomenChest never appears in any final output.
    rng = np.random.default_rng(5)
    for _ in range(300):
        labels = [CANONICAL_ORDER[i]
                  for i in rng.integers(0, len(CANONICAL_ORDER),
                                        int(rng.integers(1, 12)))]
        for modality in ("CT", "MR"):
            result = _run(labels, modality)
            assert BodyRegion.ABDOMEN_CHEST not in result.final_labels
            assert BodyRegion.ABDOMEN_CHEST not in result.series_regions
    _announce(5, "all five stages pass constructed cases; AbdomenChest "
                 "absent from 600 fuzzed series outputs")


# ---------------------------------------------------------------------------
# 6. Geometry: angles, greedy sampling, box projection


def test_criterion_6_geometry(tmp_path):
    s = np.sqrt(0.5)
    assert axial_angle((1, 0, 0, 0, 1, 0)) == pytest.approx(0.0)
    assert axial_angle((0, 1, 0, 0, 0, 1)) == pytest.approx(90.0)
    assert axial_angle((1, 0, 0, 0, s, s)) == pytest.approx(45.0)

    positions = np.arange(0.0, 20.0, 2.0)
    assert greedy_sample_indices(positions, 10.0, 0) == [0, 5]
    assert greedy_sample_indices(positions, 10.0, 3) == [3, 8]
    assert first_window_size(positions, 10.0) == 5
    wide = np.arange(0.0, 60.0, 12.0)
    assert greedy_sample_indices(wide, 10.0, 0) == [0, 1, 2, 3, 4]
    assert first_window_size(wide, 10.0) == 1

    spec = default_six_region_spec(seed=5, n_studies=12)
    cohort = generate_phantom(spec, tmp_path)
    frames = boxes_by_frame(load_boxes(cohort.label_path))
    slices_per_region = int(round(spec.regions[0].extent_mm /
                                  spec.slice_spacing_mm))
    by_series = {p.series_uid: p for p in cohort.studies}
    n_checked = 0
    for study in ingest_tree(tmp_path)[0]:
        series = study.series[0]
        expected = [r for r in by_series[series.series_uid].regions
                    for _ in range(slices_per_region)]
        assert project_box_labels(frames, series) == expected
        n_checked += len(expected)
    _announce(6, f"angles and greedy indices exact; {n_checked} projected "
                 f"labels all agree with the generator")


# ---------------------------------------------------------------------------
# 7. End-to-end synthetic cohort


def test_criterion_7_end_to_end(tmp_path):
    t0 = time.time()
    ph = tmp_path / "ph"
    cohort = generate_phantom(default_six_region_spec(seed=0, n_studies=42), ph)
    ph2 = tmp_path / "ph2"
    generate_phantom(default_six_region_spec(seed=0, n_studies=42), ph2)
    rel_bytes = lambda root: {p.relative_to(root): p.read_bytes()
                              for p in sorted(root.rglob("*")) if p.is_file()}
    assert rel_bytes(ph) == rel_bytes(ph2)

    assert main(["ingest", "--dicom", str(ph), "--out", str(tmp_path / "ing")]) == 0
    assert main(["filter", "--in", str(tmp_path / "ing" / "metadata.ndjson"),
                 "--out", str(tmp_path / "filt")]) == 0
    filtered = str(tmp_path / "filt" / "filtered.ndjson")
    truth = str(tmp_path / "truth.csv")
    assert main(["labels-project", "--in", filtered,
                 "--boxes", str(ph / "labels.json"), "--out", truth]) == 0

    records = read_metadata_ndjson(filtered)
    regions = {p.study_uid: p.main_region for p in cohort.studies}
    assignments = partition_patients(records, regions)
    by_region = {}
    for a in assignments:
        n_train, n = by_region.get(a.region, (0, 0))
        by_region[a.region] = (n_train + (a.split is Split.TRAIN), n + 1)
    for region, (n_train, n) in by_region.items():
        assert abs(n_train - 0.75 * n) <= 1.0, (region, n_train, n)

    train_path = tmp_path / "train.txt"
    train_path.write_text("\n".join(sorted(
        a.study_uid for a in assignments if a.split is Split.TRAIN)) + "\n")
    val = {a.study_uid for a in assignments if a.split is Split.VALIDATION}

    scores = str(tmp_path / "scores.csv")
    assert main(["classify", "--dicom", str(ph), "--truth", truth,
                 "--train-uids", str(train_path), "--out", scores]) == 0
    results = str(tmp_path / "results.ndjson")
    assert main(["postprocess", "--in", filtered, "--scores", scores,
                 "--out", results]) == 0
    assert main(["evaluate", "--in", filtered, "--results", results,
                 "--truth", truth, "--out", str(tmp_path / "eval"),
                 "--bootstrap", "100"]) == 0
    assert (tmp_path / "eval" / "summary.json").exists()

    with open(truth) as fh:
        truth_map = {r["sop_uid"]: r["region"] for r in csv.DictReader(fh)}
    sop_to_study = {im.sop_uid: st.study_uid
                    for st in records for se in st.series for im in se.images}
    n = correct = 0
    for row in read_series_results(results):
        for sop_uid, label in row.labels:
            if sop_to_study[sop_uid] in val:
                n += 1
                correct += (label is not None
                            and label.value == truth_map[sop_uid])
    accuracy = correct / n

    scores2 = str(tmp_path / "scores2.csv")
    results2 = str(tmp_path / "results2.ndjson")
    assert main(["classify", "--dicom", str(ph), "--truth", truth,
                 "--train-uids", str(train_path), "--out", scores2]) == 0
    assert main(["postprocess", "--in", filtered, "--scores", scores2,
                 "--out", results2]) == 0
    assert open(scores, "rb").read() == open(scores2, "rb").read()
    assert open(results, "rb").read() == open(results2, "rb").read()

    elapsed = time.time() - t0
    assert accuracy >= 0.95
    assert elapsed < 120.0
    _announce(7, f"42-study cohort: held-out accuracy {accuracy:.4f} over "
                 f"{n} images; byte-identical re-run; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Parser totality under fuzzing; lossless sidecar; RLE vs oracle


def _fixture_files(root):
    cases = {
        "explicit.dcm": dict(pixels=np.arange(64, dtype="<u2")),
        "implicit.dcm": dict(pixels=np.arange(64, dtype="<u2"),
                             transfer_syntax=IMPLICIT_VR_LE,
                             SOPInstanceUID="1.2.3.4.2"),
        "bare.dcm": dict(pixels=np.zeros(64, dtype="<u2"), preamble=False,
                         SOPInstanceUID="1.2.3.4.3"),
        "rle.dcm": dict(
            pixels=rle_encode_frame(
                np.arange(64, dtype=np.uint16).reshape(8, 8), 16),
            transfer_syntax=RLE_LOSSLESS, encapsulated=True,
            SOPInstanceUID="1.2.3.4.4"),
        "sparse.dcm": dict(pixels=np.zeros(64, dtype="<u2"),
                           SOPInstanceUID="1.2.3.4.5", PatientAge=None,
                           BodyPartExamined=None, SliceThickness=None),
    }
    for name, kwargs in cases.items():
        (root / name).write_bytes(make_dicom(**kwargs))


def test_criterion_8_parser_robustness(tmp_path):
    base = build_dicom(base_dataset(),
                       pixel_payload=np.zeros(16, dtype="<u2").tobytes(),
                       preamble=False)
    n = len(base)
    rng = np.random.default_rng(8)
    t0 = time.time()
    total = 1_000_000
    parsed = failed = 0
    for _ in range(total):
        buf = bytearray(base)
        for _ in range(int(rng.integers(1, 9))):
            buf[int(rng.integers(0, n))] = int(rng.integers(0, 256))
        if rng.random() < 0.25:
            buf = buf[:int(rng.integers(0, n))]
        try:
            parse_dicom(bytes(buf))
            parsed += 1
        except BodyRegionError:
            failed += 1
    elapsed = time.time() - t0
    assert parsed + failed == total
    assert elapsed < 300.0

    _fixture_files(tmp_path)
    studies, skipped = ingest_tree(tmp_path)
    assert len(skipped) == 0
    p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    write_metadata_ndjson(studies, p1)
    reread = read_metadata_ndjson(p1)
    write_metadata_ndjson(reread, p2)
    assert p1.read_bytes() == p2.read_bytes()

    def flatten(cohort):
        return [(st.study_uid, se.series_uid, sidecar_row(im))
                for st in cohort for se in st.series for im in se.images]

    assert flatten(studies) == flatten(reread)

    rng = np.random.default_rng(88)
    for rows, cols, bits in [(8, 8, 16), (16, 12, 16), (8, 8, 8), (32, 32, 16)]:
        hi = 256 if bits == 8 else 4096
        matrix = rng.integers(0, hi, (rows, cols)).astype(
            np.uint8 if bits == 8 else np.uint16)
        frame = rle_encode_frame(matrix, bits)
        image = make_image(rows=rows, cols=cols, bits_allocated=bits,
                           bits_stored=bits,
                           transfer_syntax_uid=RLE_LOSSLESS)
        decoded = decode_pixels(image, frame)
        assert np.array_equal(decoded, oracle_rle_decode(frame, rows, cols, bits))
        assert np.array_equal(decoded, matrix)
    _announce(8, f"{total:,} mutated inputs, zero uncaught errors "
                 f"({parsed:,} parsed / {failed:,} rejected) in {elapsed:.0f}s; "
                 f"sidecar lossless; RLE matches the oracle")


# ---------------------------------------------------------------------------
# 9. Report table layout (golden files, NA rows under the n < 5 cutoff)


GOLDEN_REGION = """\
region,n,sensitivity_95ci,specificity_95ci
Overall,63,90.5 (83.6 - 100.0),90.7 (82.9 - 100.0)
Abdomen,24,87.5 (79.2 - 100.0),92.3 (86.5 - 100.0)
Chest,36,91.7 (86.1 - 100.0),88.9 (80.0 - 100.0)
Head,3,NA,NA
"""

GOLDEN_FACTOR = """\
factor,category,n,n_images,sensitivity_95ci,specificity_95ci,p_value
manufacturer,Canon,1,4,NA,NA,0.71
manufacturer,GE,6,24,87.5 (77.0 - 95.8),87.5 (77.0 - 95.8),
manufacturer,Siemens,5,20,90.0 (80.0 - 100.0),90.0 (80.0 - 100.0),
"""


def test_criterion_9_report_layout(tmp_path):
    studies = []
    for i in range(12):
        truth = [0, 0, 1, 1, 1]
        pred = [0, 0, 1, 1, 1] if i % 4 else [0, 1, 1, 1, 0]
        if i < 3:
            truth = truth + [2]
            pred = pred + [2]
        studies.append(EvalStudy(f"S{i:02d}", [EvalSeries(
            np.arange(len(truth)) * 10.0, truth, pred)]))
    rows = region_table(studies, ["Abdomen", "Chest", "Head"],
                        resamples=200, seed=0)
    region_path = tmp_path / "by_region.csv"
    emit_region_report(rows, region_path)
    assert region_path.read_text() == GOLDEN_REGION

    records, evals = [], {}
    for i in range(12):
        manufacturer = "Canon" if i == 0 else ("GE" if i < 7 else "Siemens")
        st = make_study(study_uid=f"S{i:02d}", patient_id=f"P{i:02d}",
                        manufacturer=manufacturer)
        pred = [0, 1, 0, 1] if i % 2 else [0, 1, 0, 0]
        evals[st.study_uid] = EvalStudy(st.study_uid, [EvalSeries(
            np.arange(4) * 10.0, [0, 1, 0, 1], pred)])
        records.append(st)
    report = factor_table(records, evals, "manufacturer",
                          ["Abdomen", "Chest"], resamples=100, seed=0)
    factor_path = tmp_path / "by_manufacturer.csv"
    emit_factor_report(report, factor_path)
    assert factor_path.read_text() == GOLDEN_FACTOR
    _announce(9, "region and factor tables byte-match their golden files, "
                 "including NA rows for n < 5")
