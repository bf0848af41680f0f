"""Command-line surface. Stages compose via files (NDJSON/CSV contracts):

    ingest -> filter -> labels-project -> classify -> postprocess
           -> evaluate -> report / tag-write

Each `cmd_*` stage yields the lines it reports, and `main` prints them as
they come, so the lines reported before a data error still reach stdout.
Exit codes: 0 success, 1 usage error, 2 data error (per-item reports are
still written before a data error exits).
"""

from __future__ import annotations

import argparse
import functools
import io
import logging
import os
import sys
from collections import Counter

import numpy as np

from . import cohort as cohort_mod
from . import phantom as phantom_mod
from . import postprocess as post_mod
from . import report as report_mod
from . import stats as stats_mod
from .classify import fit_centroids, load_scores, pixel_feature, save_scores
# Unused here, but perfbench/tracing.py wraps `cli.train_centroid_baseline`
# and fails if the name is missing.
from .classify import train_centroid_baseline  # noqa: F401
from .config import load_config, load_synonym_map
from .errors import (ITEM_ERRORS, BodyRegionError, MissingGeometry,
                     SkipReport, describe, read_text)
from .geometry import (boxes_by_frame, load_boxes, project_box_labels,
                       read_truth, series_geometry, warn_foreign_frames,
                       write_truth)
from .ingest import (ingest_tree, read_metadata_ndjson, tree_files,
                     write_metadata_ndjson, write_ndjson_lines)
from .pixels import decode_pixels_from_file
# Unused here since classify builds features without the letterbox, but
# perfbench/tracing.py wraps `cli.preprocess_image` and fails if it is missing.
from .preprocess import preprocess_image  # noqa: F401
from .stats import EvalSeries, EvalStudy, sample_size
from .taxonomy import FINAL_REGIONS

log = logging.getLogger(__name__)

# The record fields `classify --dicom` decodes: the UIDs that group its
# walk, the pixel description `decode_pixels` reads, and what
# `sort_series_images` orders a series by.
CLASSIFY_FIELDS = frozenset({
    "study_uid", "series_uid", "sop_uid", "rows", "cols", "bits_allocated",
    "bits_stored", "instance_number", "image_position_patient",
    "image_orientation_patient"})


def _read_uid_list(path) -> set:
    with io.StringIO(read_text(path), newline=None) as fh:
        return {line.strip() for line in fh if line.strip()}


def cmd_ingest(args):
    studies, skipped = ingest_tree(args.dicom)
    os.makedirs(args.out, exist_ok=True)
    write_metadata_ndjson(studies, os.path.join(args.out, "metadata.ndjson"))
    skipped.write_csv(os.path.join(args.out, "skip_report.csv"))
    yield (f"ingested {sum(s.image_count() for s in studies)} images in "
           f"{len(studies)} studies; skipped {len(skipped)} files")


def cmd_filter(args):
    cfg = load_config(args.config, strict_geometry=args.strict_geometry or None)
    lines = {}  # id of an image record -> its input line
    studies = read_metadata_ndjson(args.input, lines=lines)
    kept, rows = cohort_mod.apply_filters(studies,
                                          strict_geometry=cfg.strict_geometry)
    os.makedirs(args.out, exist_ok=True)
    cohort_mod.write_filter_report(rows, os.path.join(args.out,
                                                      "filter_report.csv"))
    # Each admitted image's line as read, in record order: for a sidecar
    # ingest wrote, the bytes `write_metadata_ndjson(kept)` would write.
    write_ndjson_lines(os.path.join(args.out, "filtered.ndjson"),
                       (lines[id(image)] for study in kept
                        for series in study.series
                        for image in series.images))
    n_in = sum(s.image_count() for s in studies)
    n_out = sum(s.image_count() for s in kept)
    yield f"kept {n_out}/{n_in} images across {len(kept)} studies"


def cmd_labels_project(args):
    studies = read_metadata_ndjson(args.input)
    frames = boxes_by_frame(load_boxes(args.boxes))
    rows = []
    unpositioned = []
    for study in studies:
        for series in study.series:
            try:
                labels = project_box_labels(frames, series)
            except MissingGeometry:
                # Projection and its overlap tie-break need the position of
                # every image, so the whole series stays unlabelled.
                unpositioned.append(series.series_uid)
                labels = [None] * len(series.images)
            rows.extend((image.sop_uid, series.series_uid, study.study_uid,
                         label) for image, label in zip(series.images, labels))
    warn_foreign_frames(frames, [s for st in studies for s in st.series])
    if unpositioned:
        log.warning("%d series: an image has no position, left unlabelled "
                    "(first: %s)", len(unpositioned), unpositioned[0])
    write_truth(rows, args.out)
    labeled = sum(1 for r in rows if r[3])
    yield f"labeled {labeled}/{len(rows)} images -> {args.out}"


def cmd_classify(args):
    """Decode each image once and map it straight to its centroid feature
    (`pixel_feature`: clip, then the shape's cached operators; the 224 x 224
    letterbox is never built), fit the centroids on the training features,
    then score every feature.

    The images are those of the sidecar `--in` (as `filter` admitted them),
    each decoded from its locator, or those a walk of the tree `--dicom`
    parses (`CLASSIFY_FIELDS` only). An image that fails to decode or to
    read, a stale locator included, becomes a row of
    `<out stem>.skip_report.csv` (written even when empty); the stage fails
    only if nothing was scored.
    """
    if args.input is not None:
        studies = read_metadata_ndjson(args.input)
    else:
        studies, _ = ingest_tree(args.dicom, fields=CLASSIFY_FIELDS)
    truth = read_truth(args.truth)
    train_uids = _read_uid_list(args.train_uids) if args.train_uids else None

    features = []  # (sop_uid, feature) in record order: the scores.csv order
    training = []  # (feature, region), a subsequence of `features`
    skipped = SkipReport()
    for study in studies:
        trains = train_uids is None or study.study_uid in train_uids
        for series in study.series:
            for image in series.images:
                if not image.has_pixel_data:
                    continue
                try:
                    pixels = decode_pixels_from_file(image)
                except ITEM_ERRORS as exc:
                    skipped.add(image.source_path, exc)
                    continue
                feat = pixel_feature(pixels)
                features.append((image.sop_uid, feat))
                region = truth.get(image.sop_uid)
                if trains and region is not None:
                    training.append((feat, region))
    skip_path = os.path.splitext(args.out)[0] + ".skip_report.csv"
    skipped.write_csv(skip_path)
    if skipped:
        reasons = sorted(skipped.reasons.items())
        yield (f"skipped {len(skipped)} images ("
               + ", ".join(f"{n} {r}" for r, n in reasons)
               + f") -> {skip_path}")
    if not features:
        raise BodyRegionError("no image with pixel data could be decoded")
    backend = fit_centroids(training)

    scores = {uid: backend.predict(feat) for uid, feat in features}
    save_scores(scores, backend.classes, args.out)
    yield f"trained on {len(training)} images, scored {len(scores)} -> {args.out}"


def cmd_postprocess(args):
    cfg = load_config(args.config, uncertainty_metric=args.metric,
                      uncertainty_threshold=args.threshold)
    studies = read_metadata_ndjson(args.input)
    scores, classes = load_scores(args.scores)
    results = []
    for study in studies:
        for series in study.series:
            uids = [image.sop_uid for image in series.images
                    if image.sop_uid in scores]
            if not uids:
                continue
            results.append(post_mod.run_pipeline(
                uids, np.stack([scores[uid] for uid in uids]), classes,
                series.modality,
                uncertainty_metric=cfg.uncertainty_metric,
                uncertainty_threshold=cfg.uncertainty_threshold,
                min_run=cfg.min_run, window=cfg.smoothing_window,
                series_uid=series.series_uid))
    post_mod.write_series_results(results, args.out)
    accepted = sum(1 for r in results
                   if r.series_status is post_mod.SeriesStatus.ACCEPTED)
    yield f"{accepted}/{len(results)} series accepted -> {args.out}"


def _collect_evals(studies, truth, label_by_sop):
    """Per-study truth/pred arrays for every image with both labels."""
    code = {region: i for i, region in enumerate(FINAL_REGIONS)}
    evals = {}
    for study in studies:
        ev = EvalStudy(study.study_uid)
        for series in study.series:
            kept = [(i, code[truth[uid]], code[label_by_sop[uid]])
                    for i, uid in enumerate(im.sop_uid for im in series.images)
                    if uid in truth and uid in label_by_sop]
            if not kept:
                continue
            keep_idx, t, p = map(np.array, zip(*kept))
            positions = series_geometry(series).positions[keep_idx]
            order = np.argsort(positions, kind="stable")
            ev.series.append(EvalSeries(positions[order], t[order], p[order],
                                        series_uid=series.series_uid))
        if ev.series:
            evals[study.study_uid] = ev
    return evals


def cmd_evaluate(args):
    cfg = load_config(args.config, bootstrap_resamples=args.bootstrap,
                      ci_level=args.level, seed=args.seed,
                      step_mm=args.step_mm)
    synonyms = load_synonym_map(cfg.synonym_map_path)
    studies = read_metadata_ndjson(args.input)
    truth = read_truth(args.truth, final_only=True)
    label_by_sop = {}
    for row in post_mod.read_series_results(args.results):
        label_by_sop.update((sop, label) for sop, label in row.labels
                            if label is not None)
    # Each study is credited with the labels of its own images: a series
    # uid alone may name series of two studies.
    regions_by_study = {
        study.study_uid: {label_by_sop[image.sop_uid]
                          for series in study.series
                          for image in series.images
                          if image.sop_uid in label_by_sop}
        for study in studies}

    class_names = [r.value for r in FINAL_REGIONS]
    evals = _collect_evals(studies, truth, label_by_sop)
    units = [evals[uid] for uid in sorted(evals)]
    if not units:
        raise BodyRegionError("no evaluable images (need truth and results)")

    os.makedirs(args.out, exist_ok=True)
    # Every CI of the run is read from one resample pass over its unit
    # sets: all evaluable studies, and each factor category with enough
    # units to be reported.
    by_factor = [stats_mod.factor_units(studies, evals, factor)
                 for factor in args.factors]
    sampled = [{cat: u for cat, u in units_by_cat.items()
                if len(u) >= stats_mod.MIN_CATEGORY_COUNT}
               for units_by_cat in by_factor]
    counts = iter(stats_mod.bootstrap_counts(
        [units] + [u for cats in sampled for u in cats.values()],
        len(class_names), cfg.bootstrap_resamples, cfg.seed, cfg.step_mm))
    undefined_tnr = {}

    def class_sums(table):
        """The class sums of the next unit set, taken as its table is
        built so that the run never holds them all; notes its undefined
        TNRs for the run's one warning line."""
        sums = next(counts).class_sums()
        undefined_tnr[table] = stats_mod.undefined_tnr(sums, class_names)
        return sums

    rows = report_mod.region_rows(units, class_sums("regions"), class_names,
                                  level=cfg.ci_level)
    report_mod.emit_region_report(rows, os.path.join(args.out, "by_region.csv"))

    for factor, units_by_cat, cats in zip(args.factors, by_factor, sampled):
        fr = stats_mod.factor_report(
            factor, units_by_cat,
            {cat: class_sums(f"{factor}={cat}") for cat in cats},
            class_names, level=cfg.ci_level)
        report_mod.emit_factor_report(
            fr, os.path.join(args.out, f"by_{factor}.csv"))
    stats_mod.log_undefined_tnr(undefined_tnr)

    agreement = {
        tag: stats_mod.tag_agreement(studies, regions_by_study, tag, synonyms)
        for tag in ("body_part", "procedure")}

    overall = rows[0]
    summary = report_mod.Summary(
        n_studies=len(units), n_images=overall.n_images,
        overall_sensitivity=overall.sensitivity,
        overall_specificity=(None if np.isnan(overall.specificity)
                             else overall.specificity),
        tag_agreement=agreement, seed=cfg.seed)
    report_mod.write_summary(summary, os.path.join(args.out, "summary.json"))
    yield (f"overall weighted sensitivity {100 * overall.sensitivity:.1f}% "
           f"over {overall.n_images} images")


def cmd_sample_size(args):
    yield str(sample_size(args.accuracy, args.confidence, args.relative_error,
                          args.deff))


def cmd_phantom(args):
    spec = phantom_mod.default_six_region_spec(seed=args.seed,
                                               n_studies=args.studies)
    cohort = phantom_mod.generate_phantom(spec, args.out)
    n_images = sum(s.n_slices for s in cohort.studies)
    yield f"wrote {len(cohort.studies)} studies / {n_images} slices to {args.out}"


def cmd_tag_write(args):
    # Each image of an accepted row gets the region most of the row's
    # images carry, first by name on a tie; None if the row is rejected.
    region_by_sop = {}
    for row in post_mod.read_series_results(args.results):
        region = None
        if row.status is post_mod.SeriesStatus.ACCEPTED:
            counts = Counter(label for _, label in row.labels)
            region = max(row.series_regions, key=counts.__getitem__)
        region_by_sop.update((sop, region) for sop, _ in row.labels)
    changes, skipped = report_mod.write_body_part_tags(
        tree_files(args.dicom), region_by_sop, dry_run=args.dry_run)
    report_mod.write_change_log(changes, args.out)
    mode = "would rewrite" if args.dry_run else "rewrote"
    yield (f"{mode} {len(changes) - len(skipped)}/{len(changes)} files; "
           f"log -> {args.out}")


def cmd_report(args):
    summary = report_mod.read_summary(args.summary)
    specificity = summary.overall_specificity
    lines = ["# Evaluation summary", "",
             f"- studies: {summary.n_studies}",
             f"- images: {summary.n_images}",
             f"- overall weighted sensitivity: "
             f"{100 * summary.overall_sensitivity:.1f}%",
             f"- overall weighted specificity: "
             + ("NA" if specificity is None else f"{100 * specificity:.1f}%")]
    lines += [f"- tag agreement ({tag}): {100 * value:.1f}%"
              for tag, value in sorted(summary.tag_agreement.items())]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        yield from lines


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `bodyregion` argument parser, built on the first call and shared
    by every later one in the process. Callers must not change it: each
    subcommand keeps the handler and the defaults of the first build."""
    parser = _Parser(prog="bodyregion",
                     description="Body-region classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = stage("ingest", cmd_ingest, "parse a DICOM tree to NDJSON metadata")
    p.add_argument("--dicom", required=True)
    p.add_argument("--out", required=True)

    p = stage("filter", cmd_filter, "apply inclusion/exclusion rules")
    p.add_argument("--config", default=None)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict-geometry", action="store_true", default=False)

    p = stage("labels-project", cmd_labels_project,
              "project 3-D boxes to per-image truth labels")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--boxes", required=True)
    p.add_argument("--out", required=True)

    p = stage("classify", cmd_classify,
              "train the centroid baseline and score images")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="input",
                        help="metadata sidecar of the images to score")
    source.add_argument("--dicom", help="DICOM tree of the images to score")
    p.add_argument("--truth", required=True)
    p.add_argument("--train-uids", default=None,
                   help="file of study UIDs to train on (default: all)")
    p.add_argument("--out", required=True)

    p = stage("postprocess", cmd_postprocess, "run the series rule engine")
    p.add_argument("--config", default=None)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--metric", choices=["margin", "entropy"], default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True)

    p = stage("evaluate", cmd_evaluate, "statistics and report tables")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bootstrap", type=int, default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--step-mm", type=float, default=None)
    # A tuple: the shared parser hands this one object to every call.
    p.add_argument("--factors", nargs="*",
                   default=("institution", "age", "gender", "manufacturer"))

    p = stage("sample-size", cmd_sample_size, "survey sample-size model")
    p.add_argument("--accuracy", type=float, default=0.9)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--relative-error", type=float, default=0.1)
    p.add_argument("--deff", type=float, default=1.0)

    p = stage("phantom", cmd_phantom, "generate a synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--studies", type=int, default=42)
    p.add_argument("--seed", type=int, default=0)

    p = stage("tag-write", cmd_tag_write, "write BodyPartExamined back")
    p.add_argument("--dicom", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dry-run", action="store_true", default=False)

    p = stage("report", cmd_report, "render a saved evaluation summary")
    p.add_argument("--summary", required=True)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    """Run the stage that `argv` (default: `sys.argv[1:]`) names, print the
    lines it reports, and return its exit code; a usage error raises
    SystemExit(1). One process may call it any number of times."""
    args = build_parser().parse_args(argv)
    try:
        for line in args.func(args):
            print(line)
        return 0
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
    except BodyRegionError as exc:
        print(f"data error: {describe(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
