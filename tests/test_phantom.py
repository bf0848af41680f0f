"""Phantom generator: determinism, geometry consistency, texture separation."""

import numpy as np
import pytest

from bodyregion.errors import InvalidSpec
from bodyregion.ingest import ingest_tree
from bodyregion.geometry import boxes_by_frame, load_boxes, project_box_labels
from bodyregion.phantom import (PhantomSpec, RegionSpec,
                                default_six_region_spec, generate_phantom,
                                region_texture)
from bodyregion.pixels import decode_pixels_from_file
from bodyregion.preprocess import clip_normalize
from bodyregion.taxonomy import BodyRegion


def small_spec(seed=0, n_studies=2):
    return PhantomSpec(
        regions=[RegionSpec(BodyRegion.ABDOMEN, 20.0),
                 RegionSpec(BodyRegion.CHEST, 20.0)],
        slice_spacing_mm=5.0, seed=seed, n_studies=n_studies)


def tree_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


class TestSpecValidation:
    def test_needs_regions(self):
        with pytest.raises(InvalidSpec):
            PhantomSpec(regions=[])

    def test_positive_extent(self):
        with pytest.raises(InvalidSpec):
            PhantomSpec(regions=[RegionSpec(BodyRegion.CHEST, 0.0)])

    def test_taxonomy_order_enforced(self):
        with pytest.raises(InvalidSpec):
            PhantomSpec(regions=[RegionSpec(BodyRegion.CHEST, 10.0),
                                 RegionSpec(BodyRegion.ABDOMEN, 10.0)])

    def test_default_spec_valid(self):
        spec = default_six_region_spec()
        assert spec.n_studies == 42
        assert len(spec.regions) == 6


class TestDeterminism:
    def test_byte_identical_for_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_phantom(small_spec(seed=3), a)
        generate_phantom(small_spec(seed=3), b)
        assert tree_bytes(a) == tree_bytes(b)

    def test_seed_changes_pixels(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_phantom(small_spec(seed=1), a)
        generate_phantom(small_spec(seed=2), b)
        assert tree_bytes(a) != tree_bytes(b)


class TestGeneratedCohort:
    def test_parses_and_projects(self, tmp_path):
        cohort = generate_phantom(small_spec(), tmp_path)
        studies, skipped = ingest_tree(tmp_path)
        assert len(studies) == 2
        # labels.json / manifest.json are reported, never fatal.
        assert len(skipped) == 2
        frames = boxes_by_frame(load_boxes(cohort.label_path))
        for study, pstudy in zip(studies, cohort.studies):
            series = study.series[0]
            labels = project_box_labels(frames, series)
            assert None not in labels
            # 4 slices per 20 mm region at 5 mm spacing.
            assert labels == [BodyRegion.ABDOMEN] * 4 + [BodyRegion.CHEST] * 4

    def test_slice_count_matches_manifest(self, tmp_path):
        cohort = generate_phantom(small_spec(), tmp_path)
        studies, _ = ingest_tree(tmp_path)
        for study, pstudy in zip(studies, cohort.studies):
            assert study.image_count() == pstudy.n_slices

    def test_pixels_decodable(self, tmp_path):
        generate_phantom(small_spec(), tmp_path)
        studies, _ = ingest_tree(tmp_path)
        im = studies[0].series[0].images[0]
        pixels = decode_pixels_from_file(im)
        assert pixels.shape == (64, 64)
        assert pixels.dtype == np.uint16
        assert pixels.max() <= 4095


class TestTextures:
    def test_distinct_after_normalization(self):
        # Normalization is intensity-affine invariant, so textures must
        # differ spatially, not just in scale.
        normalized = {r: clip_normalize(region_texture(r, 64))
                      for r in (BodyRegion.HEAD, BodyRegion.CHEST,
                                BodyRegion.ABDOMEN, BodyRegion.PELVIS)}
        regions = list(normalized)
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                diff = np.abs(normalized[a] - normalized[b]).mean()
                assert diff > 0.05, (a, b)

    def test_deterministic(self):
        a = region_texture(BodyRegion.NECK, 64)
        b = region_texture(BodyRegion.NECK, 64)
        assert np.array_equal(a, b)
