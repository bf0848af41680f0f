"""Configuration loading: precedence, validation, synonym map."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from bodyregion import cli
from bodyregion.config import PipelineConfig, load_config, load_synonym_map
from bodyregion.errors import ConfigError


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.uncertainty_metric == "margin"
        assert cfg.uncertainty_threshold == 0.2
        assert cfg.smoothing_window == 3
        assert cfg.step_mm == 10.0
        assert cfg.ci_level == 0.95

    def test_file_values(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("uncertainty_metric: entropy\nseed: 9\n")
        cfg = load_config(path)
        assert cfg.uncertainty_metric == "entropy"
        assert cfg.seed == 9

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 9\n")
        assert load_config(path, seed=4).seed == 4

    def test_none_override_falls_through(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 9\n")
        assert load_config(path, seed=None).seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("uncertainity_threshold: 0.3\n")  # typo
        with pytest.raises(ConfigError):
            load_config(path)

    def test_removed_keyword_list_rejected(self, tmp_path):
        # The filter keyword lists are constants in bodyregion.cohort.
        path = tmp_path / "cfg.yaml"
        path.write_text("derived_keywords: [SCOUT]\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_keys_of_mixed_types_rejected(self, tmp_path):
        # Sorting the unknown keys 1 and 'a' raised TypeError.
        path = tmp_path / "cfg.yaml"
        path.write_text("1: 2\na: 3\n")
        with pytest.raises(ConfigError, match=r"\[1, 'a'\]"):
            load_config(path)

    def test_yaml_error_names_its_line(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 1\nmin_run: 3\nstep_mm: 10.0\na: *x\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == (
            f"{path}: line 4: invalid YAML: found undefined alias 'x'")

    def test_control_character_names_the_file(self, tmp_path):
        # yaml's reader error carries no line mark.
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: \x00\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == (
            f"{path}: invalid YAML: unacceptable character #x0000: "
            "special characters are not allowed")

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("kwargs", [
        {"uncertainty_metric": "sigma"}, {"uncertainty_threshold": 1.5},
        {"smoothing_window": 2}, {"smoothing_window": 0}, {"min_run": 0},
        {"step_mm": 0.0}, {"bootstrap_resamples": 0}, {"ci_level": 1.0},
        {"uncertainty_threshold": "0.3"}, {"seed": 1.5}, {"min_run": True},
        {"strict_geometry": "maybe"}, {"synonym_map_path": 3},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            load_config(**kwargs)


def test_every_field_is_read():
    """A field no stage reads would be a knob that silently does nothing."""
    source = Path(cli.__file__).read_text(encoding="utf-8")
    read = set(re.findall(r"\bcfg\.(\w+)", source))
    unread = [f.name for f in fields(PipelineConfig) if f.name not in read]
    assert unread == []


class TestSynonymMap:
    def test_packaged_map(self):
        syn = load_synonym_map()
        assert syn["CSPINE"] == ["CervicalSpine", "Neck"]
        assert "Thigh" in syn["LEXT"]

    def test_custom_map(self, tmp_path):
        path = tmp_path / "syn.json"
        path.write_text('{"TORSO": ["Chest", "Abdomen"]}')
        assert load_synonym_map(path) == {"TORSO": ["Chest", "Abdomen"]}
