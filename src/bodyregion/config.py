"""Pipeline configuration: YAML file, overridden by CLI flags.

Unknown keys are rejected outright; silent typos in configs are a classic
way to run a study with the wrong threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources
from typing import Dict, List, Optional

import yaml

from .errors import ConfigError, SchemaError, read_text
from .taxonomy import BodyRegion


# Value types by field annotation; only a bool field takes a bool (an int).
_FIELD_TYPES = {"str": (str,), "Optional[str]": (str, type(None)),
                "int": (int,), "float": (int, float), "bool": (bool,)}


@dataclass
class PipelineConfig:
    uncertainty_metric: str = "margin"       # "margin" or "entropy"
    uncertainty_threshold: float = 0.2
    smoothing_window: int = 3
    min_run: int = 3
    step_mm: float = 10.0
    bootstrap_resamples: int = 1000
    ci_level: float = 0.95
    seed: int = 0
    strict_geometry: bool = False
    synonym_map_path: Optional[str] = None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _FIELD_TYPES[f.type])
                    or isinstance(value, bool) != (f.type == "bool")):
                raise ConfigError(f"{f.name} must be of type {f.type}, "
                                  f"got {value!r}")
        if self.uncertainty_metric not in ("margin", "entropy"):
            raise ConfigError(f"uncertainty_metric {self.uncertainty_metric!r}")
        if not (0.0 <= self.uncertainty_threshold <= 1.0):
            raise ConfigError("uncertainty_threshold must be in [0, 1]")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ConfigError("smoothing_window must be a positive odd integer")
        if self.min_run < 1:
            raise ConfigError("min_run must be >= 1")
        if self.step_mm <= 0:
            raise ConfigError("step_mm must be positive")
        if self.bootstrap_resamples < 1:
            raise ConfigError("bootstrap_resamples must be >= 1")
        if not (0.0 < self.ci_level < 1.0):
            raise ConfigError("ci_level must be in (0, 1)")


def load_config(path: Optional[str] = None, **overrides) -> PipelineConfig:
    """Build the effective config: flag overrides > file values > defaults."""
    data: Dict = {}
    if path is not None:
        try:
            loaded = yaml.safe_load(read_text(path)) or {}
        except yaml.YAMLError as exc:
            # A syntax error marks where it was found; a reader error
            # (a control character) carries no mark.
            mark = getattr(exc, "problem_mark", None)
            where = f"{path}: line {mark.line + 1}" if mark else path
            problem = getattr(exc, "problem", None) or str(exc).split("\n")[0]
            raise ConfigError(f"{where}: invalid YAML: {problem}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must be a mapping")
        data.update(loaded)
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    known = {f.name for f in fields(PipelineConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    cfg = PipelineConfig(**data)
    cfg.validate()
    return cfg


def load_synonym_map(path: Optional[str] = None) -> Dict[str, List[str]]:
    """Tag-string to region-name map for DICOM tag agreement.

    A map that is not valid JSON, or not an object mapping each key to a
    list of body region names, is a SchemaError naming the bad key.
    """
    if path is not None:
        text = read_text(path)
    else:
        text = resources.files("bodyregion").joinpath(
            "data/body_part_synonyms.json").read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"synonym map is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError("synonym map must be a JSON object")
    regions = {r.value for r in BodyRegion}
    for key, names in data.items():
        if not (isinstance(names, list)
                and all(isinstance(n, str) and n in regions for n in names)):
            raise SchemaError(f"synonym map key {key!r} must map to a list "
                              f"of body regions, got {names!r}")
    return data
