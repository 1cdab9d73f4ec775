"""Plain-text run configuration: bracketed sections of key = value lines.

Each section is a field of `RunConfig`, and a section's keys are the
fields of its dataclass, each converted by its annotation (int, finite
float via `_to_float`, str, or bool via `_to_bool`). Every key has a
default, unknown sections or keys are rejected, and the parsed
configuration serializes back to a nested dict so checkpoints can echo
the exact experiment settings.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .data import SyntheticSpec
from .encoding import AGG_MEAN, SMOOTHING_PER_COMPONENT, LdeConfig
from .frontend import ConvSpec, StageSpec
from .train import ENCODER_LDE, ENCODER_TAP, ModelConfig, SgdConfig


class ConfigError(ValueError):
    """Configuration file is invalid."""


@dataclass
class FrontendSettings:
    enabled: bool = True
    stages: str = "16:1:down,32:1:down"
    kernel: int = 3
    activation: str = "relu"

    def parse_stages(self) -> list[StageSpec]:
        out = []
        for chunk in self.stages.split(","):
            parts = chunk.strip().split(":")
            if len(parts) != 3 or parts[2] not in ("down", "flat"):
                raise ValueError(
                    f"bad stage {chunk!r}: expected channels:blocks:down|flat")
            try:
                channels, blocks = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"bad stage {chunk!r}: {exc}") from exc
            out.append(StageSpec(channels=channels, blocks=blocks,
                                 downsample=parts[2] == "down"))
        return out


@dataclass
class EncoderSettings:
    model: str = ENCODER_TAP
    components: int = 8
    smoothing: str = SMOOTHING_PER_COMPONENT
    beta: float = 1.0
    aggregation: str = AGG_MEAN
    length_normalize: bool = True
    freeze_dictionary: bool = False
    zero_dictionary: bool = False


@dataclass
class GmmSettings:
    components: int = 16
    iterations: int = 20
    seed: int = 0
    use_sdc: bool = True
    sdc_coeffs: int = 7
    sdc_delta: int = 1
    sdc_shift: int = 3
    sdc_blocks: int = 7
    sdc_static: bool = True
    max_frames_per_class: int = 50000  # 0 keeps every frame

    def __post_init__(self):
        if self.components < 1 or self.iterations < 1:
            raise ConfigError("components and iterations must be >= 1")
        if self.max_frames_per_class < 0 or self.seed < 0:
            raise ConfigError("max_frames_per_class and seed must be >= 0")
        if (self.sdc_coeffs < 1 or self.sdc_blocks < 1
                or self.sdc_delta < 0 or self.sdc_shift < 0):
            raise ConfigError("sdc_coeffs and sdc_blocks must be >= 1, "
                              "sdc_delta and sdc_shift >= 0")


@dataclass
class PathSettings:
    train_corpus: str = "data/train.bin"
    test_corpus: str = "data/test.bin"
    checkpoint: str = "runs/model.ckpt"
    loss_log: str = "runs/loss.log"
    scores: str = "runs/scores.txt"
    gmm_checkpoint: str = "runs/gmm.ckpt"
    gmm_scores: str = "runs/gmm_scores.txt"


@dataclass
class RunConfig:
    data: SyntheticSpec = field(default_factory=SyntheticSpec)
    frontend: FrontendSettings = field(default_factory=FrontendSettings)
    encoder: EncoderSettings = field(default_factory=EncoderSettings)
    train: SgdConfig = field(default_factory=SgdConfig)
    gmm: GmmSettings = field(default_factory=GmmSettings)
    paths: PathSettings = field(default_factory=PathSettings)


def model_config(rc: RunConfig, num_classes: int, in_dim: int) -> ModelConfig:
    """The classifier a run configuration describes, for a corpus shape."""
    fe, enc = rc.frontend, rc.encoder
    spec = None
    if fe.enabled:
        spec = ConvSpec(in_dim=in_dim, stages=fe.parse_stages(),
                        kernel=fe.kernel, activation=fe.activation)
    # built whatever the model, so that every [encoder] key is checked
    lde = LdeConfig(num_components=enc.components,
                    feature_dim=spec.out_dim if spec is not None else in_dim,
                    smoothing_mode=enc.smoothing, beta=enc.beta,
                    aggregation_mode=enc.aggregation,
                    length_normalize=enc.length_normalize)
    return ModelConfig(in_dim=in_dim, num_classes=num_classes,
                       encoder=enc.model,
                       lde=lde if enc.model == ENCODER_LDE else None,
                       frontend=spec, freeze_dictionary=enc.freeze_dictionary,
                       zero_dictionary=enc.zero_dictionary)


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# a key's converter follows its field's annotation
_CONVERTERS = {int: int, float: _to_float, str: str, bool: _to_bool}


def _fields(cls) -> dict:
    """Field name -> resolved annotation of a dataclass, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def parse_config(text: str, origin: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    sections = _fields(RunConfig)
    overrides = {}
    for section in parser.sections():
        if section not in sections:
            known = ", ".join(sorted(sections))
            raise ConfigError(f"{origin}: unknown section [{section}] "
                              f"(known: {known})")
        keys = _fields(sections[section])
        values = {}
        for key, raw in parser.items(section):
            if key not in keys:
                known = ", ".join(sorted(keys))
                raise ConfigError(f"{origin}: unknown key {key!r} in "
                                  f"[{section}] (known: {known})")
            try:
                values[key] = _CONVERTERS[keys[key]](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{origin}: bad value for {key!r} in [{section}]: "
                    f"{exc}") from exc
        overrides[section] = values

    built = {}
    for section, builder in sections.items():
        try:
            built[section] = builder(**overrides.get(section, {}))
        except ValueError as exc:
            raise ConfigError(f"{origin}: invalid [{section}]: {exc}") from exc
    rc = RunConfig(**built)
    # so that every subcommand rejects a bad [frontend] or [encoder] value
    try:
        cfg = model_config(rc, rc.data.num_classes, rc.data.feature_dim)
    except ValueError as exc:
        raise ConfigError(f"{origin}: bad model settings: {exc}") from exc
    # the front-end rejects shorter inputs: crops in training, whole
    # utterances of the corpus in scoring
    for key, section, value in (("crop_min", "train", rc.train.crop_min),
                                ("min_len", "data", rc.data.min_len)):
        if cfg.frontend is not None and value < cfg.frontend.min_length:
            raise ConfigError(f"{origin}: {key} {value} in [{section}] is "
                              f"below the front-end's minimum input length "
                              f"{cfg.frontend.min_length}")
    return rc


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, origin=str(path))
