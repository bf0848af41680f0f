"""Tests of the benchmark's input generators.

    python3 -m pytest -q perfbench/test_cohorts.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import cohorts  # noqa: E402
from bodyregion import classify, dicomio, phantom  # noqa: E402
from bodyregion.ingest import ingest_tree  # noqa: E402
from bodyregion.pixels import decode_pixels_from_file  # noqa: E402
from bodyregion.taxonomy import CANONICAL_ORDER  # noqa: E402


def _images(root):
    studies, _ = ingest_tree(root)
    return {os.path.relpath(im.source_path, root): im
            for st in studies for se in st.series for im in se.images}


def test_ct512_rle_decodes_to_the_native_phantom(tmp_path):
    seed = 3
    cohort = cohorts.build_ct512_rle(seed, str(tmp_path / "rle"))
    native = tmp_path / "native"
    phantom.generate_phantom(cohorts.ct512_spec(seed), str(native))

    rle = _images(cohort.dicom_dir)
    ref = _images(str(native))
    assert len(rle) == cohort.shape["images"] == 48
    assert rle.keys() == ref.keys()
    for rel, image in rle.items():
        assert image.transfer_syntax_uid == dicomio.RLE_LOSSLESS
        assert ref[rel].transfer_syntax_uid == dicomio.EXPLICIT_VR_LE
        assert (image.rows, image.cols) == (512, 512)
        assert image.sop_uid == ref[rel].sop_uid
        assert image.image_position_patient == ref[rel].image_position_patient
        np.testing.assert_array_equal(decode_pixels_from_file(image),
                                      decode_pixels_from_file(ref[rel]))


def test_archive_score_file_loads_and_covers_every_image(tmp_path):
    seed = 5
    cohort = cohorts.build_archive(seed, str(tmp_path / "a"))
    scores, classes = classify.load_scores(cohort.score_path)
    assert classes == CANONICAL_ORDER

    images = _images(cohort.dicom_dir)
    assert set(scores) == {im.sop_uid for im in images.values()}
    assert len(scores) == cohort.shape["images"]

    # Some MR series and no CT series fall under the 0.2 mean-margin
    # threshold of the uncertainty rule.
    margins = {}
    for rel, im in images.items():
        top2 = np.sort(scores[im.sop_uid])[-2:]
        margins.setdefault(os.path.dirname(rel), []).append(top2[1] - top2[0])
    low = {d for d, m in margins.items() if np.mean(m) < 0.2}
    assert low and all(d.startswith("mr" + os.sep) for d in low)
    assert len(low) == cohort.shape["ambiguous_mr_series"]


def test_archive_inputs_repeat_for_a_seed(tmp_path):
    a = cohorts.build_archive(7, str(tmp_path / "a"))
    b = cohorts.build_archive(7, str(tmp_path / "b"))
    assert (Path(a.score_path).read_bytes() == Path(b.score_path).read_bytes())
    assert (Path(a.boxes_path).read_bytes() == Path(b.boxes_path).read_bytes())
