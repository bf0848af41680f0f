"""In-process benchmark of the bodyregion pipeline.

    python3 perfbench/run.py --workload phantom42 --seed 1 --seconds 20 \
        --trace 0

One process, one thread of work. The workload's inputs are generated from
`--seed` (set-up, done three times and timed), then the pipeline runs
through `bodyregion.cli.main`, stage by stage, at least three times and
again while `--seconds` has not elapsed:

    ingest -> filter -> labels-project -> classify -> postprocess
           -> tag-write -> evaluate -> report

Every iteration's outputs are checked, and the digests of its outputs must
equal the first iteration's. Where tag-write writes for real, the generated
tree is restored to its generated bytes before each later iteration. The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` untraced and traced iterations alternate, and the
metrics are the per-layer ones plus the tracing overhead. Metric names and
units come from BENCHMARK.json.

End-to-end metrics (two user paths: deployment = infer, research = eval)

- setup_s: median time to generate the workload's inputs.
- infer_images_per_s: images with a final label in results.ndjson over the
  summed wall of ingest + filter + classify + postprocess + tag-write
  (archive has no classify: its scores come from an external score file).
  Median over iterations.
- eval_s: wall of labels-project + evaluate + report. Median.
- peak_rss_mb: peak resident set size of this process.
- failed_frac: failed over attempted operations. Attempted: files ingest
  reads, files tag-write visits, images the filter admits, stages run.
  Failed: ingest skip rows, tag-write error rows, admitted images without a
  score, stages returning non-zero. The phantom's labels.json and
  manifest.json sit inside the DICOM tree, so ingest and tag-write count
  them as a skip and an error each; they are counted as they are.

Workloads

- phantom42: the paper's acceptance cohort, `default_six_region_spec(seed,
  42)`: 1512 native 64x64 slices, 75/25 split by `partition_patients`,
  evaluate with 1000 resamples and the four default factors, tag-write
  --dry-run. Preprocess upsampling (64 -> 224) and the bootstrap do most of
  the work; decode and metadata are light.
- ct512_rle: four 512x512 16-bit RLE-encapsulated studies built from the
  phantom textures (48 slices). A real CT matrix size: PackBits decode
  dominates classify, resize shrinks the image, each tag write rewrites a
  ~300 KB file, stats is light. Set-up runs the Python PackBits encoder.
- archive: 2 x 100 studies of 18 32x32 slices, CT plus MR (second phantom
  seed, disjoint UIDs), scored from an external score CSV in which a
  quarter of the MR series (picked by the seed) is ambiguous and gets
  rejected. The
  per-file metadata layers do the work (parse, NDJSON, filter, box
  projection, rule engine, real tag writes); no pixels are decoded;
  evaluate runs 100 resamples over many studies. Run it by hand: it is not
  in BENCHMARK.json, because on a 2-vCPU sandbox whose disk is ext4 mounted
  with online discard its file-bound set-up and infer times spread by 35%
  and 20% (IQR over ten seeds) and drifted upward across back-to-back runs,
  more than any bound the benchmark may set.

Per-layer metric -> end-to-end metric it should move (workload). Where
the map names archive, the same layers also run on phantom42 at a
smaller share of the wall.

- cli.<stage>_s, cli.{classify,evaluate,tag_write}_self_s -> the path
  metric containing the stage.
- dicomio.parse_{calls,s,mb_per_s}, dicomio.parses_per_file (waste: ~4,
  classify re-walks the tree, tag-write parses each file twice) ->
  infer_images_per_s (archive); nothing on ct512_rle.
- ingest.{ingest_tree_calls,ingest_tree_s,ndjson_write_s,ndjson_read_s,
  ndjson_rows_per_s} -> infer_images_per_s and eval_s (archive).
- cohort.{apply_filters_s,images_admitted,images_excluded} ->
  infer_images_per_s (archive).
- geometry.{project_box_labels_s,series_geometry_s} -> eval_s (archive).
- pixels.decode_{calls,s,mpix_per_s}, pixels.decodes_per_image (waste:
  training images are decoded twice) -> infer_images_per_s (ct512_rle);
  little on phantom42.
- kernels.packbits_{calls,s,mb_per_s} -> infer_images_per_s (ct512_rle);
  zero calls elsewhere.
- preprocess.{calls,preprocess_image_s,clip_normalize_s,resize_pad_s,
  images_per_s} -> infer_images_per_s (phantom42, ct512_rle); nothing on
  archive.
- classify.{train_s,score_s,images_scored,save_scores_s,load_scores_s} ->
  infer_images_per_s and peak_rss_mb (phantom42).
- postprocess.{run_pipeline_calls,run_pipeline_s,series_rejected,
  write_results_s,read_results_s} -> infer_images_per_s (archive).
- stats.{bootstrap_calls,bootstrap_s,resamples_per_s,factor_report_s,
  tag_agreement_s} -> eval_s (phantom42: n=42, R=1000; archive: large n,
  small R); almost nothing on ct512_rle.
- report.{region_rows_s,emit_s,write_body_part_tags_s,files_rewritten,
  tag_write_errors} -> infer_images_per_s (archive, real writes).
- phantom.generate_s, pixels.rle_encode_s -> setup_s (ct512_rle).
- trace.overhead_frac -> none (sanity check of the tracing itself).

The pipeline is single-threaded batch work with no queue: layers have busy
time and counts, and no wait time.

The first output line records the machine (CPUs, Python, numpy, whether
numba is importable and which kernel build ran), the seed and the cohort
shape. Compare kernel numbers only between runs with the same kernel build.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# At least three iterations, so each path metric is a median of three and
# every run compares output digests across iterations; more while --seconds
# has not elapsed.
MIN_ITERATIONS = 3
ACCURACY_BAR = 0.95  # acceptance criterion 7


@dataclass(frozen=True)
class Workload:
    name: str
    resamples: int
    dry_run: bool        # tag-write --dry-run, else real writes
    check_accuracy: bool


WORKLOADS = {w.name: w for w in (
    Workload("phantom42", resamples=1000, dry_run=True, check_accuracy=True),
    Workload("ct512_rle", resamples=1000, dry_run=False, check_accuracy=True),
    Workload("archive", resamples=100, dry_run=False, check_accuracy=False),
)}

INFER_STAGES = ("ingest", "filter", "classify", "postprocess", "tag_write")
EVAL_STAGES = ("labels_project", "evaluate", "report")
STAGES = INFER_STAGES + EVAL_STAGES


class StageFailed(Exception):
    pass


@dataclass
class Iteration:
    traced: bool
    walls: Dict[str, float]
    counts: Dict[str, int]
    digests: Dict[str, str]
    errors: List[str]
    accuracy: Optional[float] = None
    spans: list = field(default_factory=list)
    messages: Dict[str, str] = field(default_factory=dict)

    @property
    def infer_wall(self) -> float:
        return sum(self.walls.get(s, 0.0) for s in INFER_STAGES)

    @property
    def eval_wall(self) -> float:
        return sum(self.walls.get(s, 0.0) for s in EVAL_STAGES)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _csv_rows(path: str) -> List[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _ndjson(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _settle() -> None:
    """Start a timed unit with no garbage and no dirty file data pending."""
    gc.collect()
    os.sync()


class Runner:
    """Runs one workload's iterations from the current directory."""

    def __init__(self, workload: Workload, cohort):
        from bodyregion import cli
        self.cli = cli
        self.wl = workload
        self.cohort = cohort
        # Generated bytes of every file, to undo real tag writes.
        self.pristine = {} if workload.dry_run else {
            os.path.join(root, name): Path(root, name).read_bytes()
            for root, _, names in os.walk(cohort.dicom_dir) for name in names}

    def _stage(self, it: Iteration, name: str, argv: List[str], tracer):
        out = io.StringIO()
        span = tracer.span("cli." + name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), \
                span:
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crashing stage is a failed stage
                rc = f"{type(exc).__name__}: {exc}"
        it.walls[name] = time.perf_counter() - t0
        it.messages[name] = out.getvalue()
        it.counts["stages"] += 1
        if rc != 0:
            it.counts["stages_failed"] += 1
            it.errors.append(f"stage {name} returned {rc}: "
                             f"{out.getvalue().strip()[-300:]}")
            raise StageFailed(name)

    def _write_split(self, filtered: str, path: str) -> set:
        from bodyregion.cohort import Split, partition_patients
        from bodyregion.ingest import read_metadata_ndjson
        assignments = partition_patients(read_metadata_ndjson(filtered),
                                         self.cohort.main_regions)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(sorted(a.study_uid for a in assignments
                                      if a.split is Split.TRAIN)) + "\n")
        return {a.study_uid for a in assignments
                if a.split is Split.VALIDATION}

    def iterate(self, n: int, tracer=None) -> Iteration:
        """Run every stage once, with outputs under `it<n>/`, and check them.

        Real tag writes rewrite the cohort tree in place; from the second
        iteration on, the tree is first restored to its generated bytes, so
        every iteration starts from the same inputs.
        """
        it = Iteration(traced=tracer is not None, walls={}, digests={},
                       errors=[], counts={"stages": 0, "stages_failed": 0})
        d = f"it{n}"
        os.makedirs(d)
        if n and self.pristine:
            for path, data in self.pristine.items():
                with open(path, "r+b") as fh:
                    fh.write(data)
                    fh.truncate()
        dicom = self.cohort.dicom_dir
        filtered = f"{d}/filt/filtered.ndjson"
        truth = f"{d}/truth.csv"
        results = f"{d}/results.ndjson"
        scores = self.cohort.score_path or f"{d}/scores.csv"
        validation = set()
        _settle()
        installed = tracer.installed() if tracer else contextlib.nullcontext()
        try:
            with installed:
                self._stage(it, "ingest", ["ingest", "--dicom", dicom,
                                           "--out", f"{d}/ing"], tracer)
                self._stage(it, "filter", ["filter", "--in",
                                           f"{d}/ing/metadata.ndjson",
                                           "--out", f"{d}/filt"], tracer)
                self._stage(it, "labels_project", [
                    "labels-project", "--in", filtered,
                    "--boxes", self.cohort.boxes_path, "--out", truth], tracer)
                if self.cohort.score_path is None:
                    validation = self._write_split(filtered, f"{d}/train.txt")
                    self._stage(it, "classify", [
                        "classify", "--dicom", dicom, "--truth", truth,
                        "--train-uids", f"{d}/train.txt", "--out", scores],
                        tracer)
                self._stage(it, "postprocess", [
                    "postprocess", "--in", filtered, "--scores", scores,
                    "--out", results], tracer)
                self._stage(it, "tag_write", [
                    "tag-write", "--dicom", dicom, "--results", results,
                    "--out", f"{d}/changes.csv"]
                    + (["--dry-run"] if self.wl.dry_run else []), tracer)
                self._stage(it, "evaluate", [
                    "evaluate", "--in", filtered, "--results", results,
                    "--truth", truth, "--out", f"{d}/eval",
                    "--bootstrap", str(self.wl.resamples)], tracer)
                self._stage(it, "report", [
                    "report", "--summary", f"{d}/eval/summary.json",
                    "--out", f"{d}/report.md"], tracer)
        except StageFailed:
            return it
        finally:
            if tracer:
                it.spans = tracer.spans
        self._check(it, d, scores, validation)
        return it

    def _check(self, it: Iteration, d: str, scores: str,
               validation: set) -> None:
        """Output checks and operation counts (outside the timed stages)."""
        from bodyregion.dicomio import parse_dicom
        from bodyregion.taxonomy import CANONICAL_TAG_STRINGS, BodyRegion
        c = it.counts
        metadata = _ndjson(f"{d}/ing/metadata.ndjson")
        admitted = _ndjson(f"{d}/filt/filtered.ndjson")
        skips = _csv_rows(f"{d}/ing/skip_report.csv")
        scored = {r["sop_uid"] for r in _csv_rows(scores)}
        results = _ndjson(f"{d}/results.ndjson")
        changes = _csv_rows(f"{d}/changes.csv")
        c["images_ingested"] = len(metadata)
        c["files_ingested"] = len(metadata) + len(skips)
        c["ingest_skips"] = len(skips)
        c["images_admitted"] = len(admitted)
        c["images_unscored"] = sum(r["sop_uid"] not in scored
                                   for r in admitted)
        c["tag_rows"] = len(changes)
        c["tag_errors"] = sum(r["action"] == "error" for r in changes)
        c["files_rewritten"] = sum(r["action"] == "rewritten" for r in changes)
        c["series"] = len(results)
        c["series_rejected"] = sum(r["status"] != "Accepted" for r in results)
        labels = {img["sop_uid"]: img["label"]
                  for r in results for img in r["images"]}
        c["images_labelled"] = sum(v is not None for v in labels.values())
        c["images_scored"] = len(scored)
        c["attempted"] = (c["files_ingested"] + c["tag_rows"]
                          + c["images_admitted"] + c["stages"])
        c["failed"] = (c["ingest_skips"] + c["tag_errors"]
                       + c["images_unscored"] + c["stages_failed"])

        missing = [r["sop_uid"] for r in admitted if r["sop_uid"] not in labels]
        if missing:
            it.errors.append(f"{len(missing)} admitted images have no result "
                             f"row, e.g. {missing[0]}")

        # Tag-write rewrites exactly the files of accepted series, with the
        # series' predominant final label.
        expected = {}
        for r in results:
            if r["status"] != "Accepted":
                continue
            regions = r["series_regions"]
            region = max(regions, key=lambda g: sum(
                img["label"] == g for img in r["images"]))
            expected[r["series_uid"]] = CANONICAL_TAG_STRINGS[BodyRegion(region)]
        want = {row["source_path"]: expected[row["series_uid"]]
                for row in metadata if row["series_uid"] in expected}
        got = {row["path"]: row["new_value"] for row in changes
               if row["action"] == "rewritten"}
        if got != want:
            it.errors.append(f"tag-write rewrote {len(got)} files, expected "
                             f"{len(want)} (differing: "
                             f"{len(set(got.items()) ^ set(want.items()))})")
        if not self.wl.dry_run:
            wrong = 0
            for path, value in want.items():
                with open(path, "rb") as fh:
                    parsed = parse_dicom(fh.read())
                wrong += parsed.study_attrs["body_part_examined"] != value
            if wrong:
                it.errors.append(f"{wrong} rewritten files do not re-parse "
                                 f"with the expected BodyPartExamined")

        if self.wl.check_accuracy:
            sop_study = {r["sop_uid"]: r["study_uid"] for r in admitted}
            truth = {r["sop_uid"]: r["region"]
                     for r in _csv_rows(f"{d}/truth.csv")}
            held = [sop for sop in labels if sop_study[sop] in validation]
            it.accuracy = _rate(sum(labels[s] == truth[s] for s in held),
                                len(held))
            if not held or it.accuracy < ACCURACY_BAR:
                it.errors.append(f"held-out accuracy {it.accuracy:.4f} over "
                                 f"{len(held)} images < {ACCURACY_BAR}")

        outputs = [scores, f"{d}/results.ndjson", f"{d}/changes.csv",
                   f"{d}/eval/summary.json"]
        outputs += sorted(glob.glob(f"{d}/eval/by_*.csv"))
        # Keyed by the path inside the iteration directory, so iterations
        # compare equal and runs of two commits can be diffed.
        it.digests = {os.path.relpath(p, d) if p.startswith(d + "/") else p:
                      _sha256(p) for p in outputs}


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced iteration


def layer_metrics(it: Iteration, setup_spans: List[list], iter_overhead):
    """name -> (value, base) for every per-layer metric."""
    from tracing import self_times, totals
    t = totals(it.spans)
    st = self_times(it.spans)
    c = it.counts

    def calls(name):
        return t.get(name, [0, 0.0, 0.0])[0]

    def secs(*names):
        return sum(t.get(n, [0, 0.0, 0.0])[1] for n in names)

    def size(name):
        return t.get(name, [0, 0.0, 0.0])[2]

    m = {}
    for stage in STAGES:
        wall = st.get(stage, {}).get("wall", 0.0)
        m[f"cli.{stage}_s"] = (wall, "stage wall")
    for stage in ("classify", "evaluate", "tag_write"):
        row = st.get(stage, {"self": 0.0, "wall": 0.0})
        m[f"cli.{stage}_self_s"] = (row["self"],
                                    f"wall {row['wall']:.4f} s minus children")

    p = "dicomio.parse_dicom"
    m["dicomio.parse_calls"] = (calls(p), "calls")
    m["dicomio.parse_s"] = (secs(p), f"{calls(p)} calls")
    m["dicomio.parse_mb_per_s"] = (_rate(size(p) / 1e6, secs(p)),
                                   f"{size(p) / 1e6:.3f} MB in {secs(p):.4f} s")
    m["dicomio.parses_per_file"] = (
        _rate(calls(p), c["files_ingested"]),
        f"{calls(p)} parses / {c['files_ingested']} files in the tree")

    w, r = "ingest.write_metadata_ndjson", "ingest.read_metadata_ndjson"
    m["ingest.ingest_tree_calls"] = (calls("ingest.ingest_tree"), "calls")
    m["ingest.ingest_tree_s"] = (secs("ingest.ingest_tree"),
                                 f"{calls('ingest.ingest_tree')} calls")
    m["ingest.ndjson_write_s"] = (secs(w), f"{size(w):.0f} rows written")
    m["ingest.ndjson_read_s"] = (secs(r), f"{size(r):.0f} rows read")
    m["ingest.ndjson_rows_per_s"] = (
        _rate(size(w) + size(r), secs(w, r)),
        f"{size(w) + size(r):.0f} rows in {secs(w, r):.4f} s")

    m["cohort.apply_filters_s"] = (secs("cohort.apply_filters"),
                                   f"{c['images_ingested']} images in")
    m["cohort.images_admitted"] = (c["images_admitted"], "images")
    m["cohort.images_excluded"] = (c["images_ingested"] - c["images_admitted"],
                                   "images")

    m["geometry.project_box_labels_s"] = (
        secs("geometry.project_box_labels"),
        f"{calls('geometry.project_box_labels')} series")
    m["geometry.series_geometry_s"] = (
        secs("geometry.series_geometry"),
        f"{calls('geometry.series_geometry')} series (evaluate)")

    d = "pixels.decode_pixels_from_file"
    scored = size("classify.CentroidBackend.classify_batch")
    m["pixels.decode_calls"] = (calls(d), "calls")
    m["pixels.decode_s"] = (secs(d), f"{calls(d)} calls")
    m["pixels.decode_mpix_per_s"] = (_rate(size(d) / 1e6, secs(d)),
                                     f"{size(d) / 1e6:.2f} Mpixel")
    m["pixels.decodes_per_image"] = (_rate(calls(d), scored),
                                     f"{calls(d)} decodes / {scored:.0f} "
                                     f"images scored")

    k = "kernels.packbits_decode"
    m["kernels.packbits_calls"] = (calls(k), "segments")
    m["kernels.packbits_s"] = (secs(k), f"{calls(k)} segments")
    m["kernels.packbits_mb_per_s"] = (_rate(size(k) / 1e6, secs(k)),
                                      f"{size(k) / 1e6:.2f} MB decoded")

    pi = "preprocess.preprocess_image"
    m["preprocess.calls"] = (calls(pi), "images")
    m["preprocess.preprocess_image_s"] = (secs(pi), f"{calls(pi)} images")
    m["preprocess.clip_normalize_s"] = (
        secs("preprocess.clip_normalize"),
        f"{calls('preprocess.clip_normalize')} calls")
    m["preprocess.resize_pad_s"] = (secs("preprocess.resize_pad"),
                                    f"{calls('preprocess.resize_pad')} calls")
    m["preprocess.images_per_s"] = (_rate(calls(pi), secs(pi)),
                                    f"{calls(pi)} images")

    m["classify.train_s"] = (secs("classify.train_centroid_baseline"),
                             f"{calls('classify.train_centroid_baseline')} "
                             f"calls")
    m["classify.score_s"] = (secs("classify.CentroidBackend.classify_batch"),
                             f"{scored:.0f} images")
    m["classify.images_scored"] = (scored, "images (centroid backend)")
    m["classify.save_scores_s"] = (secs("classify.save_scores"),
                                   f"{size('classify.save_scores'):.0f} rows")
    m["classify.load_scores_s"] = (secs("classify.load_scores"),
                                   f"{size('classify.load_scores'):.0f} rows")

    rp = "postprocess.run_pipeline"
    m["postprocess.run_pipeline_calls"] = (calls(rp), "series")
    m["postprocess.run_pipeline_s"] = (secs(rp), f"{calls(rp)} series")
    m["postprocess.series_rejected"] = (c["series_rejected"],
                                        f"of {c['series']} series")
    m["postprocess.write_results_s"] = (
        secs("postprocess.write_series_results"), f"{c['series']} series")
    m["postprocess.read_results_s"] = (
        secs("postprocess.read_series_results"),
        f"{calls('postprocess.read_series_results')} reads")

    b = "stats.bootstrap_ci"
    m["stats.bootstrap_calls"] = (calls(b), "calls")
    m["stats.bootstrap_s"] = (secs(b), f"{calls(b)} calls")
    m["stats.resamples_per_s"] = (_rate(size(b), secs(b)),
                                  f"{size(b):.0f} resamples")
    m["stats.factor_report_s"] = (secs("stats.factor_report"),
                                  f"{calls('stats.factor_report')} factors")
    m["stats.tag_agreement_s"] = (secs("stats.tag_agreement"),
                                  f"{calls('stats.tag_agreement')} tags")

    emit = ("report.emit_region_report", "report.emit_factor_report")
    m["report.region_rows_s"] = (secs("report.region_rows"), "1 call")
    m["report.emit_s"] = (secs(*emit), f"{sum(calls(e) for e in emit)} tables")
    m["report.write_body_part_tags_s"] = (
        secs("report.write_body_part_tags"), f"{c['tag_rows']} files visited")
    m["report.files_rewritten"] = (c["files_rewritten"],
                                   f"of {c['tag_rows']} files visited")
    m["report.tag_write_errors"] = (c["tag_errors"],
                                    f"of {c['tag_rows']} files")

    gen = [sum(t2.get(n, [0, 0.0])[1]
               for n in ("phantom.generate_phantom", "cohorts.write_rle_cohort"))
           for t2 in map(totals, setup_spans)]
    enc = [totals(s).get("pixels.rle_encode_frame", [0, 0.0])[1]
           for s in setup_spans]
    n_enc = totals(setup_spans[0]).get("pixels.rle_encode_frame", [0])[0]
    m["phantom.generate_s"] = (_median(gen),
                               f"median of {len(gen)} set-ups")
    m["pixels.rle_encode_s"] = (_median(enc), f"{n_enc} frames per set-up")
    m["trace.overhead_frac"] = iter_overhead
    return m


# ---------------------------------------------------------------------------


def machine_record(seed: int, workload: str, shape: dict) -> dict:
    import numpy
    from bodyregion import _kernels
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": numba_ok,
        "kernels": "numba" if _kernels.USE_NUMBA else "numpy",
        "machine": platform.machine(),
        "seed": seed, "workload": workload, "cohort": shape,
    }


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> None:
    """Import bodyregion from this checkout's src/, or exit non-zero."""
    # One thread of work: keep numpy's BLAS pools single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import bodyregion
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bodyregion from {SRC}: {exc}")
    if Path(bodyregion.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: bodyregion imported from {bodyregion.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    from cohorts import BUILDERS
    from tracing import Tracer

    wl = WORKLOADS[args.workload]
    run_id = f"{wl.name}.{args.seed}.{os.getpid()}"
    work = ROOT / "perfbench" / "_work" / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return _run(args, wl, spec, run_id, BUILDERS[wl.name], Tracer)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
        os.sync()  # leave no file-system work behind for the next run


def _run(args, wl, spec, run_id, build, Tracer) -> int:
    setup_times, setup_spans = [], []
    for k in range(SETUP_REPEATS):
        _settle()
        tracer = Tracer(f"{run_id}.setup{k}") if args.trace else None
        installed = tracer.installed() if tracer else contextlib.nullcontext()
        with installed:
            t0 = time.perf_counter()
            cohort = build(args.seed, f"cohort{k}")
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            setup_spans.append(tracer.spans)

    record = machine_record(args.seed, wl.name, cohort.shape)
    print("machine " + json.dumps(record, sort_keys=True))
    print(f"config workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} resamples={wl.resamples} "
          f"tag_write={'dry-run' if wl.dry_run else 'real-writes'} "
          f"setup_repeats={SETUP_REPEATS}")

    runner = Runner(wl, cohort)
    iterations: List[Iteration] = []
    t_loop = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        tracer = Tracer(f"{run_id}.it{len(iterations)}") if traced else None
        it = runner.iterate(len(iterations), tracer)
        iterations.append(it)
        if it.errors and not it.digests:
            break  # a stage failed; nothing downstream to measure
        if (len(iterations) >= MIN_ITERATIONS
                and time.perf_counter() - t_loop >= args.seconds):
            break

    errors = [f"iteration {n}: {e}" for n, it in enumerate(iterations)
              for e in it.errors]
    first = iterations[0].digests
    for n, it in enumerate(iterations[1:], start=1):
        if it.digests and it.digests != first:
            diff = sorted(k for k in first if it.digests.get(k) != first[k])
            errors.append(f"iteration {n}: outputs differ from iteration 0: "
                          f"{diff}")
    attempted = sum(it.counts.get("attempted", it.counts["stages"])
                    for it in iterations)
    failed = sum(it.counts.get("failed", it.counts["stages_failed"])
                 for it in iterations)
    correct = not errors

    _print_iterations(iterations, setup_times)
    if any(it.counts["stages_failed"] for it in iterations):
        for msg in errors:
            print("CHECK FAILED " + msg)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    for path, digest in sorted(first.items()):
        print(f"sha256 {digest}  {path}")
    for msg in errors:
        print("CHECK FAILED " + msg)

    plain = [it for it in iterations if not it.traced]
    e2e = {
        "setup_s": _median(setup_times),
        "infer_images_per_s": _median(
            _rate(it.counts.get("images_labelled", 0), it.infer_wall)
            for it in plain),
        "eval_s": _median(it.eval_wall for it in plain),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": _rate(failed, attempted),
    }
    print(f"operations attempted={attempted} failed={failed} over "
          f"{len(iterations)} iterations")
    for entry in spec["end_to_end"]:
        print(f"e2e {entry['name']} = {e2e[entry['name']]:.6g} {entry['unit']}")

    if args.trace:
        metrics = _trace_report(iterations, setup_spans, spec)
    else:
        metrics = {e["name"]: {"value": e2e[e["name"]], "unit": e["unit"]}
                   for e in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _print_iterations(iterations, setup_times) -> None:
    print("setup_s " + " ".join(f"{t:.4f}" for t in setup_times))
    head = "iter traced " + " ".join(f"{s:>14}" for s in STAGES)
    print(head + "   infer_s  eval_s  labelled accuracy")
    for n, it in enumerate(iterations):
        cells = " ".join(f"{it.walls.get(s, 0.0):14.4f}" for s in STAGES)
        acc = "-" if it.accuracy is None else f"{it.accuracy:.4f}"
        print(f"{n:4d} {int(it.traced):6d} {cells} {it.infer_wall:9.4f} "
              f"{it.eval_wall:7.4f} {it.counts.get('images_labelled', 0):9d} "
              f"{acc}")
    c = iterations[0].counts
    print("counts " + " ".join(f"{k}={v}" for k, v in sorted(c.items())))
    for stage, msg in iterations[0].messages.items():
        lines = msg.strip().splitlines()
        if lines:
            extra = f" (+{len(lines) - 1} more lines)" if len(lines) > 1 else ""
            print(f"stage {stage}: {lines[-1]}{extra}")


def _trace_report(iterations, setup_spans, spec) -> dict:
    from tracing import self_times
    plain = [it.infer_wall + it.eval_wall for it in iterations if not it.traced]
    traced = [it for it in iterations if it.traced]
    wall_plain = _median(plain)
    wall_traced = _median(it.infer_wall + it.eval_wall for it in traced)
    overhead = (_rate(wall_traced - wall_plain, wall_plain),
                f"traced {wall_traced:.4f} s - untraced {wall_plain:.4f} s "
                f"= {wall_traced - wall_plain:+.4f} s")
    print(f"trace {len(traced)} traced / {len(plain)} untraced iterations; "
          f"{sum(len(it.spans) for it in traced)} spans; run ids "
          + ", ".join(sorted({it.spans[0].run_id for it in traced})))
    print("trace layers have busy time and counts but no wait time: the "
          "pipeline is single-threaded batch work with no queue")

    # Stage wall = child time + self time, shown for the last traced run.
    print(f"{'stage':>15} {'wall_s':>10} {'children_s':>10} {'self_s':>10} "
          f"{'residual_s':>11}  children")
    for stage, row in self_times(traced[-1].spans).items():
        resid = row["wall"] - row["child_sum"] - row["self"]
        kids = ", ".join(f"{n} {s:.4f}" for n, s in sorted(
            row["children"].items(), key=lambda kv: -kv[1]))
        print(f"{stage:>15} {row['wall']:10.4f} {row['child_sum']:10.4f} "
              f"{row['self']:10.4f} {resid:11.2e}  {kids}")

    per_it = [layer_metrics(it, setup_spans, overhead) for it in traced]
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        value = _median(m[name][0] for m in per_it)
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"layer {name} = {value:.6g} {entry['unit']}  "
              f"[{per_it[-1][name][1]}]")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
