"""Experiment configuration: INI-style sections, strict key checking.

Unknown sections or keys are errors so a typo in a hyperparameter sweep
fails loudly instead of silently running defaults. The raw text is kept
verbatim for report and checkpoint audit trails. `#` and `;` start comments.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

__all__ = ["ConfigError", "ExperimentConfig", "SCORERS", "ROUTES", "TPS",
           "parse_config", "load_config"]

SCORERS = ("msp", "maxlogit", "odin", "rotation-ensemble")
ROUTES = ("concat-argmax", "compose", "calibrated")
TPS = ("sigmoid-maxlogit", "maxsoftmax-temp", "scorer")


class ConfigError(ValueError):
    """Bad config file; the message names the offending section.key."""


def _bool(raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.replace(",", " ").split()]


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.replace(",", " ").split()]


@dataclass
class DataCfg:
    source: str = "synthetic"
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    dim: int = 4
    separation: float = 8.0
    per_class: int = 50
    test_per_class: int = 0  # 0: per_class // 4


@dataclass
class TasksCfg:
    count: int = 2
    classes_per_task: int = 2
    shuffle_classes: bool = False
    # ablation: exclude rotation-ambiguous classes before splitting;
    # remaining classes are re-numbered densely
    drop_classes: list[int] = field(default_factory=list)


@dataclass
class BackboneCfg:
    kind: str = "hat"
    hidden: list[int] = field(default_factory=lambda: [100, 100])
    s_max: float = 400.0
    lambdas: list[float] = field(default_factory=lambda: [1.0, 0.75])
    sparsity: float = 50.0
    epochs: int = 20
    lr: float = 0.1
    batch: int = 16


@dataclass
class LossCfg:
    kind: str = "ce"
    contrastive_epochs: int = 0  # 0: same as backbone epochs
    head_epochs: int = 0
    head_lr: float = 0.0
    temperature: float = 0.5
    flip_prob: float = 0.5
    noise_sigma: float = 0.05


@dataclass
class OodCfg:
    scorer: str = "msp"
    odin_tau: float = 5.0
    odin_eps: float = 0.0014
    odin_grid: bool = False
    validation_fraction: float = 0.1


@dataclass
class PredictCfg:
    route: str = "concat-argmax"
    tp: str = "sigmoid-maxlogit"
    nu: float = 0.1
    tau: float = 5.0


@dataclass
class CalibrateCfg:
    buffer: int = 200
    iters: int = 160
    lr: float = 0.01
    batch: int = 15


@dataclass
class ExperimentConfig:
    seed: int
    out: str = "runs"
    data: DataCfg = field(default_factory=DataCfg)
    tasks: TasksCfg = field(default_factory=TasksCfg)
    backbone: BackboneCfg = field(default_factory=BackboneCfg)
    loss: LossCfg = field(default_factory=LossCfg)
    ood: OodCfg = field(default_factory=OodCfg)
    predict: PredictCfg = field(default_factory=PredictCfg)
    calibrate: CalibrateCfg = field(default_factory=CalibrateCfg)
    text: str = ""  # verbatim source for audit


_ENUMS = {
    ("data", "source"): ("synthetic", "idx"),
    ("backbone", "kind"): ("hat", "sup"),
    ("loss", "kind"): ("ce", "rotation-ce", "contrastive"),
    ("ood", "scorer"): SCORERS,
    ("predict", "route"): ROUTES,
    ("predict", "tp"): TPS,
}

_POSITIVE = (lambda v: v > 0, "> 0")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_COUNT = (lambda v: v >= 1, ">= 1")

# allowed values of the numeric keys, (test, description); a list key's test
# applies to each element
_RANGES = {
    ("experiment", "seed"): _NON_NEGATIVE,  # numpy takes no negative seed
    ("data", "separation"): _POSITIVE,
    ("data", "dim"): _COUNT,
    ("data", "per_class"): _COUNT,
    ("data", "test_per_class"): _NON_NEGATIVE,
    ("tasks", "count"): _COUNT,
    ("tasks", "classes_per_task"): _COUNT,
    ("backbone", "hidden"): _COUNT,
    ("backbone", "s_max"): _POSITIVE,
    # a negative lambda rewards attention; -inf and nan fail as not finite
    ("backbone", "lambdas"): (lambda v: not -math.inf < v < 0, ">= 0"),
    ("backbone", "sparsity"): (lambda v: 0 < v <= 100, "in (0, 100]"),
    ("backbone", "epochs"): _COUNT,
    ("backbone", "lr"): _POSITIVE,
    ("backbone", "batch"): _COUNT,
    ("loss", "contrastive_epochs"): _NON_NEGATIVE,
    ("loss", "head_epochs"): _NON_NEGATIVE,
    ("loss", "head_lr"): _NON_NEGATIVE,
    ("loss", "temperature"): _POSITIVE,
    ("loss", "flip_prob"): (lambda v: 0 <= v <= 1, "in [0, 1]"),
    ("loss", "noise_sigma"): _NON_NEGATIVE,
    ("ood", "odin_tau"): _POSITIVE,
    ("ood", "odin_eps"): _NON_NEGATIVE,
    ("ood", "validation_fraction"): (lambda v: 0 < v < 1, "in (0, 1)"),
    ("predict", "nu"): _POSITIVE,
    ("predict", "tau"): _POSITIVE,
    ("calibrate", "iters"): _NON_NEGATIVE,
    ("calibrate", "lr"): _POSITIVE,
    ("calibrate", "batch"): _COUNT,
}

# list keys that need at least one element: a trunk layer, a task's lambda
_NONEMPTY = {("backbone", "hidden"), ("backbone", "lambdas")}

# keyed by annotation string: every config dataclass is declared under
# ``from __future__ import annotations``
_PARSERS = {"int": int, "float": float, "str": str, "bool": _bool,
            "list[int]": _int_list, "list[float]": _float_list}

_SECTIONS = {
    "data": DataCfg, "tasks": TasksCfg, "backbone": BackboneCfg,
    "loss": LossCfg, "ood": OodCfg, "predict": PredictCfg,
    "calibrate": CalibrateCfg,
}


def _fill(section: str, cfg_obj, parser: configparser.ConfigParser,
          keys=None) -> None:
    """Set cfg_obj's fields (only keys, if given) from the section, checked."""
    known = {f.name: f.type for f in fields(type(cfg_obj))
             if keys is None or f.name in keys}
    if not parser.has_section(section):
        return
    for key, raw in parser.items(section):
        if key not in known:
            raise ConfigError(f"unknown key {section}.{key}")
        try:
            value = _PARSERS[known[key]](raw)
        except (ValueError, KeyError) as e:
            raise ConfigError(f"bad value for {section}.{key}: {e}") from e
        allowed = _ENUMS.get((section, key))
        if allowed and value not in allowed:
            raise ConfigError(
                f"{section}.{key} must be one of {allowed}, got {value!r}")
        values = value if isinstance(value, list) else [value]
        if not values and (section, key) in _NONEMPTY:
            raise ConfigError(f"{section}.{key} must be nonempty, got {raw!r}")
        if (section, key) in _RANGES:
            ok, bound = _RANGES[section, key]
            if not all(map(ok, values)):
                raise ConfigError(f"{section}.{key} must be {bound}, "
                                  f"got {raw!r}")
        # after the range check, so a value outside the range reads as such
        if "float" in known[key] and not all(map(math.isfinite, values)):
            raise ConfigError(f"bad value for {section}.{key}: not finite: "
                              f"{raw!r}")
        setattr(cfg_obj, key, value)


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"unparseable config: {e}") from e

    known_sections = set(_SECTIONS) | {"experiment"}
    for s in parser.sections():
        if s not in known_sections:
            raise ConfigError(f"unknown section [{s}]")

    if not parser.has_option("experiment", "seed"):
        raise ConfigError("experiment.seed is mandatory")
    cfg = ExperimentConfig(seed=0, text=text)
    # the other ExperimentConfig fields are the sections and the text
    _fill("experiment", cfg, parser, keys=("seed", "out"))
    for name in _SECTIONS:
        _fill(name, getattr(cfg, name), parser)

    if cfg.data.source == "synthetic":
        for key in ("shuffle_classes", "drop_classes"):
            if getattr(cfg.tasks, key):
                raise ConfigError(f"tasks.{key} needs data.source = idx")
        if cfg.loss.kind != "ce":
            # the rotation losses turn images; synthetic rows are 1 x dim
            raise ConfigError(f"loss.kind = {cfg.loss.kind} needs "
                              f"data.source = idx")
        if cfg.ood.scorer == "rotation-ensemble":
            # only the rotation losses give rotation heads
            raise ConfigError("ood.scorer = rotation-ensemble needs "
                              "data.source = idx")
    t = cfg.tasks  # distinct classes in range leave exactly t.count tasks
    n = t.count * t.classes_per_task + len(t.drop_classes)
    if len(set(t.drop_classes) & set(range(n))) < len(t.drop_classes):
        raise ConfigError(f"tasks.drop_classes must be distinct classes in "
                          f"[0, {n}) of tasks.count x tasks.classes_per_task "
                          f"+ len(tasks.drop_classes), got {t.drop_classes}")
    # a smaller buffer leaves whole classes, and possibly tasks, out of the
    # calibration fit: MemoryBuffer.build fills the low class ids first
    if cfg.calibrate.buffer < t.count * t.classes_per_task:
        raise ConfigError(f"calibrate.buffer must be >= tasks.count x "
                          f"tasks.classes_per_task = "
                          f"{t.count * t.classes_per_task}, got "
                          f"{cfg.calibrate.buffer}")
    if cfg.data.source == "idx":  # experiment.build_tasks reads the files
        for key in ("train_images", "train_labels", "test_images",
                    "test_labels"):
            if not getattr(cfg.data, key):
                raise ConfigError(f"data.{key} required for idx source")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path}: {type(e).__name__}: {e}") from e
    return parse_config(text)
