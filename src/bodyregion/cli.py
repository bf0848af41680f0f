"""Command-line surface. Stages compose via files (NDJSON/CSV contracts):

    ingest -> filter -> labels-project -> classify -> postprocess
           -> evaluate -> report / tag-write

Exit codes: 0 success, 1 usage error, 2 data error (per-item reports are
still written before a data error exits).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from typing import Dict

import numpy as np

from . import cohort as cohort_mod
from . import phantom as phantom_mod
from . import postprocess as post_mod
from . import report as report_mod
from . import stats as stats_mod
from .classify import (Prediction, fit_centroids, load_scores,
                       pixel_feature, save_scores)
# Unused here, but perfbench/tracing.py wraps `cli.train_centroid_baseline`
# and fails if the name is missing.
from .classify import train_centroid_baseline  # noqa: F401
from .config import load_config, load_synonym_map
from .errors import (BodyRegionError, LengthMismatch, Malformed, SchemaError,
                     UnsupportedCodec)
from .geometry import (load_boxes, project_box_labels, series_geometry,
                       warn_foreign_frames)
from .ingest import (SkipReport, ingest_tree, read_metadata_ndjson,
                     write_metadata_ndjson)
from .pixels import decode_pixels_from_file
# Unused here since classify builds features without the letterbox, but
# perfbench/tracing.py wraps `cli.preprocess_image` and fails if it is missing.
from .preprocess import preprocess_image  # noqa: F401
from .stats import EvalSeries, EvalStudy, sample_size
from .taxonomy import FINAL_REGIONS, BodyRegion


def _write_truth(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sop_uid", "series_uid", "study_uid", "region"])
        writer.writerows(rows)


def _read_truth(path) -> Dict[str, BodyRegion]:
    truth = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if row.get("region"):
                truth[row["sop_uid"]] = BodyRegion(row["region"])
    return truth


def _read_uid_list(path) -> set:
    with open(path, "r", encoding="utf-8") as fh:
        return {line.strip() for line in fh if line.strip()}


def _write_skip_report(skipped: SkipReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "error"])
        writer.writerows(skipped.entries)


def cmd_ingest(args):
    studies, skipped = ingest_tree(args.dicom)
    os.makedirs(args.out, exist_ok=True)
    write_metadata_ndjson(studies, os.path.join(args.out, "metadata.ndjson"))
    _write_skip_report(skipped, os.path.join(args.out, "skip_report.csv"))
    print(f"ingested {sum(s.image_count() for s in studies)} images in "
          f"{len(studies)} studies; skipped {len(skipped)} files")
    return 0


def cmd_filter(args):
    cfg = load_config(args.config, strict_geometry=args.strict_geometry or None)
    studies = read_metadata_ndjson(args.input)
    kept, rows = cohort_mod.apply_filters(studies,
                                          strict_geometry=cfg.strict_geometry)
    os.makedirs(args.out, exist_ok=True)
    cohort_mod.write_filter_report(rows, os.path.join(args.out,
                                                      "filter_report.csv"))
    write_metadata_ndjson(kept, os.path.join(args.out, "filtered.ndjson"))
    n_in = sum(s.image_count() for s in studies)
    n_out = sum(s.image_count() for s in kept)
    print(f"kept {n_out}/{n_in} images across {len(kept)} studies")
    return 0


def cmd_labels_project(args):
    studies = read_metadata_ndjson(args.input)
    boxes = load_boxes(args.boxes)
    rows = []
    for study in studies:
        for series in study.series:
            labels = project_box_labels(boxes, series)
            for image, label in zip(series.images, labels):
                rows.append([image.sop_uid, series.series_uid, study.study_uid,
                             label.value if label else ""])
    warn_foreign_frames(boxes, [s for st in studies for s in st.series])
    _write_truth(rows, args.out)
    labeled = sum(1 for r in rows if r[3])
    print(f"labeled {labeled}/{len(rows)} images -> {args.out}")
    return 0


def cmd_classify(args):
    """Decode each image once and map it straight to its centroid feature
    (`pixel_feature`: clip, then the shape's cached operators; the 224 x 224
    letterbox is never built), fit the centroids on the training features,
    then score every feature.

    An image that fails to decode becomes a row of `<out stem>.skip_report.csv`
    (written even when empty); the stage fails only if nothing was scored.
    """
    studies, _ = ingest_tree(args.dicom)
    truth = _read_truth(args.truth)
    train_uids = _read_uid_list(args.train_uids) if args.train_uids else None

    features = []  # (sop_uid, feature) in walk order: the scores.csv order
    training = []  # (feature, region), a subsequence of `features`
    skipped = SkipReport()
    reasons = Counter()
    for study in studies:
        trains = train_uids is None or study.study_uid in train_uids
        for series in study.series:
            for image in series.images:
                if not image.has_pixel_data:
                    continue
                try:
                    pixels = decode_pixels_from_file(image)
                except (UnsupportedCodec, LengthMismatch, Malformed) as exc:
                    skipped.add(image.source_path, exc)
                    reasons[type(exc).__name__] += 1
                    continue
                feat = pixel_feature(pixels)
                features.append((image.sop_uid, feat))
                region = truth.get(image.sop_uid)
                if trains and region is not None:
                    training.append((feat, region))
    skip_path = os.path.splitext(args.out)[0] + ".skip_report.csv"
    _write_skip_report(skipped, skip_path)
    if skipped:
        print(f"skipped {len(skipped)} undecodable images ("
              + ", ".join(f"{n} {r}" for r, n in sorted(reasons.items()))
              + f") -> {skip_path}")
    if not features:
        raise BodyRegionError("no image with pixel data could be decoded")
    backend = fit_centroids(training)

    scores = {uid: backend.predict(uid, feat).probabilities
              for uid, feat in features}
    save_scores(scores, backend.classes, args.out)
    print(f"trained on {len(training)} images, scored {len(scores)} -> {args.out}")
    return 0


def cmd_postprocess(args):
    cfg = load_config(args.config, uncertainty_metric=args.metric,
                      uncertainty_threshold=args.threshold)
    studies = read_metadata_ndjson(args.input)
    scores, classes = load_scores(args.scores)
    results = []
    for study in studies:
        for series in study.series:
            preds = []
            for image in series.images:
                vec = scores.get(image.sop_uid)
                if vec is not None:
                    preds.append(Prediction(image.sop_uid, classes, vec))
            if not preds:
                continue
            results.append(post_mod.run_pipeline(
                preds, series.modality,
                uncertainty_metric=cfg.uncertainty_metric,
                uncertainty_threshold=cfg.uncertainty_threshold,
                min_run=cfg.min_run, window=cfg.smoothing_window,
                series_uid=series.series_uid))
    post_mod.write_series_results(results, args.out)
    accepted = sum(1 for r in results
                   if r.series_status is post_mod.SeriesStatus.ACCEPTED)
    print(f"{accepted}/{len(results)} series accepted -> {args.out}")
    return 0


def _collect_evals(studies, truth, label_by_sop, class_names):
    """Per-study truth/pred arrays for every image with both labels."""
    code = {name: i for i, name in enumerate(class_names)}
    evals = {}
    for study in studies:
        ev = EvalStudy(study.study_uid)
        for series in study.series:
            t, p, keep_idx = [], [], []
            for i, image in enumerate(series.images):
                region = truth.get(image.sop_uid)
                label = label_by_sop.get(image.sop_uid)
                if region is None or label is None:
                    continue
                t.append(code[region.value])
                p.append(code[label])
                keep_idx.append(i)
            if not t:
                continue
            positions = series_geometry(series).positions[keep_idx]
            order = np.argsort(positions, kind="stable")
            ev.series.append(EvalSeries(positions[order], np.array(t)[order],
                                        np.array(p)[order],
                                        series_uid=series.series_uid))
        if ev.series:
            evals[study.study_uid] = ev
    return evals


def cmd_evaluate(args):
    cfg = load_config(args.config, bootstrap_resamples=args.bootstrap,
                      ci_level=args.level, seed=args.seed,
                      step_mm=args.step_mm)
    studies = read_metadata_ndjson(args.input)
    truth = _read_truth(args.truth)
    result_rows = post_mod.read_series_results(args.results)
    label_by_sop = {}
    regions_by_study: Dict[str, set] = {}
    series_to_study = {s.series_uid: st.study_uid
                       for st in studies for s in st.series}
    for row in result_rows:
        region_set = set()
        for img in row["images"]:
            if img["label"]:
                label_by_sop[img["sop_uid"]] = img["label"]
                region_set.add(img["label"])
        study_uid = series_to_study.get(row["series_uid"])
        if study_uid:
            regions_by_study.setdefault(study_uid, set()).update(region_set)

    class_names = [r.value for r in FINAL_REGIONS]
    evals = _collect_evals(studies, truth, label_by_sop, class_names)
    units = [evals[uid] for uid in sorted(evals)]
    if not units:
        raise BodyRegionError("no evaluable images (need truth and results)")

    os.makedirs(args.out, exist_ok=True)
    k = len(class_names)
    rows = report_mod.region_rows(units, class_names,
                                  resamples=cfg.bootstrap_resamples,
                                  level=cfg.ci_level, seed=cfg.seed,
                                  step_mm=cfg.step_mm)
    report_mod.emit_region_report(rows, os.path.join(args.out, "by_region.csv"))

    factor_reports = []
    for factor in args.factors:
        fr = stats_mod.factor_report(studies, evals, factor, k, class_names,
                                     resamples=cfg.bootstrap_resamples,
                                     level=cfg.ci_level, seed=cfg.seed,
                                     step_mm=cfg.step_mm)
        factor_reports.append(fr)
        report_mod.emit_factor_report(
            fr, os.path.join(args.out, f"by_{factor}.csv"))

    synonyms = load_synonym_map(cfg.synonym_map_path)
    predicted = {uid: {BodyRegion(n) for n in names}
                 for uid, names in regions_by_study.items()}
    agreement = {
        tag: stats_mod.tag_agreement(studies, predicted, tag, synonyms)
        for tag in ("body_part", "procedure")}

    summary = {
        "n_studies": len(units),
        "n_images": int(stats_mod.full_confusion(units, k, class_names).total),
        "overall_sensitivity": rows[0].sensitivity,
        "overall_specificity": rows[0].specificity,
        "tag_agreement": agreement,
        "seed": cfg.seed,
    }
    with open(os.path.join(args.out, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"overall weighted sensitivity "
          f"{100 * rows[0].sensitivity:.1f}% over {summary['n_images']} images")
    return 0


def cmd_sample_size(args):
    n = sample_size(args.accuracy, args.confidence, args.relative_error,
                    args.deff)
    print(n)
    return 0


def cmd_phantom(args):
    spec = phantom_mod.default_six_region_spec(seed=args.seed,
                                               n_studies=args.studies)
    cohort = phantom_mod.generate_phantom(spec, args.out)
    n_images = sum(s.n_slices for s in cohort.studies)
    print(f"wrote {len(cohort.studies)} studies / {n_images} slices to {args.out}")
    return 0


def cmd_tag_write(args):
    result_rows = post_mod.read_series_results(args.results)
    region_by_series = {}
    for row in result_rows:
        if row["status"] != "Accepted":
            region_by_series[row["series_uid"]] = None
            continue
        region_by_series[row["series_uid"]] = BodyRegion(max(
            row["series_regions"], key=lambda r: sum(
                1 for img in row["images"] if img["label"] == r)))
    files = []
    for root, dirs, names in os.walk(args.dicom):
        dirs.sort()
        files.extend(os.path.join(root, n) for n in sorted(names))
    changes = report_mod.write_body_part_tags(files, region_by_series,
                                              dry_run=args.dry_run)
    report_mod.write_change_log(changes, args.out)
    rewritten = sum(1 for c in changes if c.action == "rewritten")
    mode = "would rewrite" if args.dry_run else "rewrote"
    print(f"{mode} {rewritten}/{len(changes)} files; log -> {args.out}")
    return 0


def cmd_report(args):
    with open(args.summary, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    lines = [f"# Evaluation summary", "",
             f"- studies: {summary['n_studies']}",
             f"- images: {summary['n_images']}",
             f"- overall weighted sensitivity: "
             f"{100 * summary['overall_sensitivity']:.1f}%",
             f"- overall weighted specificity: "
             f"{100 * summary['overall_specificity']:.1f}%"]
    for tag, value in sorted(summary.get("tag_agreement", {}).items()):
        lines.append(f"- tag agreement ({tag}): {100 * value:.1f}%")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bodyregion",
                     description="Body-region classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a DICOM tree to NDJSON metadata")
    p.add_argument("--dicom", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("filter", help="apply inclusion/exclusion rules")
    p.add_argument("--config", default=None)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict-geometry", action="store_true", default=False)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("labels-project",
                       help="project 3-D boxes to per-image truth labels")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--boxes", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_labels_project)

    p = sub.add_parser("classify",
                       help="train the centroid baseline and score images")
    p.add_argument("--dicom", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--train-uids", default=None,
                   help="file of study UIDs to train on (default: all)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("postprocess", help="run the series rule engine")
    p.add_argument("--config", default=None)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--metric", choices=["margin", "entropy"], default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("evaluate", help="statistics and report tables")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bootstrap", type=int, default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--step-mm", type=float, default=None)
    p.add_argument("--factors", nargs="*",
                   default=["institution", "age", "gender", "manufacturer"])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sample-size", help="survey sample-size model")
    p.add_argument("--accuracy", type=float, default=0.9)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--relative-error", type=float, default=0.1)
    p.add_argument("--deff", type=float, default=1.0)
    p.set_defaults(func=cmd_sample_size)

    p = sub.add_parser("phantom", help="generate a synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--studies", type=int, default=42)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("tag-write", help="write BodyPartExamined back")
    p.add_argument("--dicom", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dry-run", action="store_true", default=False)
    p.set_defaults(func=cmd_tag_write)

    p = sub.add_parser("report", help="render a saved evaluation summary")
    p.add_argument("--summary", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        # Name the missing directory when that is what failed, e.g. an
        # output file whose parent does not exist.
        path = str(exc.filename)
        parent = os.path.dirname(path)
        if parent and not os.path.isdir(parent):
            print(f"error: no such directory: {parent}", file=sys.stderr)
        else:
            print(f"error: no such file: {path}", file=sys.stderr)
        return 1
    except SchemaError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except BodyRegionError as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
