"""Pipeline configuration: sectioned key=value files with strict keys.

The dataclasses hold every stage's defaults, and the stage functions take
theirs from here; a config file only needs the keys it overrides. Unknown
sections or keys raise ConfigError so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

from .errors import ConfigError

FEATURE_DIM = 64  # the width of extract_features' vectors: the net's input layer
# (class, contrastive) loss weights of each descriptor.variant
LAMBDA_PRESETS = {"multitask": (0.016, 1.0), "classification": (1.0, 0.0)}


@dataclass
class RunConfig:
    seed: int = 0


@dataclass
class SamplingConfig:
    n_points: int = 150
    keep: int = 75
    relax_iterations: int = 20
    visibility_rays: int = 64
    visibility_offset: float = 1e-4


@dataclass
class SymmetryConfig:
    samples_per_component: int = 256
    rmsd_threshold: float = 0.02
    residual_cutoff: float = 0.1
    max_iter: int = 40


@dataclass
class GeodesicConfig:
    radius_fraction: float = 0.1
    cap: int = 16


@dataclass
class DescriptorConfig:
    variant: str = "multitask"
    epochs: int = 30
    pairs_per_step: int = 64
    steps_per_epoch: int = 4
    lr: float = 0.001
    margin: float = math.sqrt(0.2) - 0.2
    layer_sizes: tuple = (FEATURE_DIM, 128, 64, 32)
    max_train_points: int = 1024


@dataclass
class CrfConfig:
    lr: float = 0.01
    iters: int = 50
    infer_iter: int = 200
    infer_tol: float = 1e-8
    label_threshold: float = 0.5


@dataclass
class PipelineConfig:
    run: RunConfig = field(default_factory=RunConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    symmetry: SymmetryConfig = field(default_factory=SymmetryConfig)
    geodesic: GeodesicConfig = field(default_factory=GeodesicConfig)
    descriptor: DescriptorConfig = field(default_factory=DescriptorConfig)
    crf: CrfConfig = field(default_factory=CrfConfig)

    def sections(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def items(self) -> list:
        """Canonical (section.key, value-string) pairs in sorted order."""
        out = []
        for sname, section in sorted(self.sections().items()):
            for f in dataclasses.fields(section):
                out.append((f"{sname}.{f.name}", _render(getattr(section, f.name))))
        return out

    def hash(self) -> str:
        digest = hashlib.sha256()
        for key, value in self.items():
            digest.update(f"{key}={value}\n".encode("utf-8"))
        return digest.hexdigest()[:12]


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(raw: str, template, where: str):
    raw = raw.strip()
    try:
        if isinstance(template, int):
            value = int(raw)
            if value < 0:  # no count, size or seed is negative
                raise ValueError(f"{value} is negative")
            return value
        if isinstance(template, float):
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"{value} is not finite")
            return value
        if isinstance(template, tuple):
            parts = [p for p in raw.split(",") if p.strip()]
            return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return raw


# values the stages cannot run with, beyond their type and sign
_VALID = {
    "sampling.n_points": (lambda n: n >= 1, "at least 1"),
    "sampling.keep": (lambda n: n >= 1, "at least 1"),
    # fewer than 3 source points cannot pin a rigid fit, so every component is skipped
    "symmetry.samples_per_component": (lambda n: n >= 3, "at least 3"),
    "symmetry.rmsd_threshold": (lambda g: g > 0.0, "more than 0"),
    "geodesic.radius_fraction": (lambda r: r > 0.0, "more than 0"),
    "descriptor.variant": (lambda v: v in LAMBDA_PRESETS, f"one of {sorted(LAMBDA_PRESETS)}"),
    "descriptor.steps_per_epoch": (lambda n: n >= 1, "at least 1"),
    "descriptor.pairs_per_step": (lambda n: n >= 1, "at least 1"),
    "descriptor.layer_sizes": (lambda s: len(s) == 4 and s[0] == FEATURE_DIM and min(s) > 0,
                               f"four positive sizes, the first {FEATURE_DIM}"),
    # at 0 or less: training climbs its loss, no negative's hinge is active, nothing converges
    "descriptor.lr": (lambda r: r > 0.0, "more than 0"),
    "crf.lr": (lambda r: r > 0.0, "more than 0"),
    "descriptor.margin": (lambda g: g > 0.0, "more than 0"),
    "crf.infer_tol": (lambda t: t > 0.0, "more than 0"),
    "crf.label_threshold": (lambda t: 0.0 <= t <= 1.0, "in [0, 1]"),
}


def apply_items(config: PipelineConfig, pairs) -> PipelineConfig:
    """Set dotted section.key entries on a config, validating every name."""
    sections = config.sections()
    for key, raw in pairs:
        if "." not in key:
            raise ConfigError(f"config key {key!r} must be section.name")
        sname, fname = key.split(".", 1)
        if sname not in sections:
            raise ConfigError(f"unknown config section {sname!r}")
        section = sections[sname]
        names = {f.name for f in dataclasses.fields(section)}
        if fname not in names:
            raise ConfigError(f"unknown config key {fname!r} in section {sname!r}")
        value = _parse(str(raw), getattr(section, fname), key)
        valid, what = _VALID.get(key, (None, ""))
        if valid is not None and not valid(value):
            raise ConfigError(f"{key}: expected {what}, got {str(raw).strip()!r}")
        setattr(section, fname, value)
    return config


def load_config(path: str) -> PipelineConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    config = PipelineConfig()
    pairs = []
    for sname in parser.sections():
        for key, raw in parser.items(sname):
            pairs.append((f"{sname}.{key}", raw))
    return apply_items(config, pairs)


def save_config(path: str, config: PipelineConfig) -> None:
    parser = configparser.ConfigParser()
    for sname, section in config.sections().items():
        parser[sname] = {
            f.name: _render(getattr(section, f.name)) for f in dataclasses.fields(section)
        }
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
