from dataclasses import fields

import pytest

from clwb import config
from clwb.config import ConfigError, parse_config

MINIMAL = """
[experiment]
seed = 3
"""


def test_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.seed == 3
    assert cfg.backbone.kind == "hat"
    assert cfg.backbone.hidden == [100, 100]
    assert cfg.predict.route == "concat-argmax"
    assert cfg.calibrate.buffer == 200
    assert cfg.text == MINIMAL


def test_seed_mandatory():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("[experiment]\nout = x\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("[backbone]\nkind = hat\n")


def test_negative_seed_rejected():
    with pytest.raises(ConfigError,
                       match=r"^experiment\.seed must be >= 0, got '-4'$"):
        parse_config("[experiment]\nseed = -4\n")
    assert parse_config("[experiment]\nseed = 0\n").seed == 0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"backbone\.lerning_rate"):
        parse_config(MINIMAL + "[backbone]\nlerning_rate = 0.1\n")
    with pytest.raises(ConfigError, match=r"experiment\.outt"):
        parse_config("[experiment]\nseed = 1\noutt = x\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"\[backbones\]"):
        parse_config(MINIMAL + "[backbones]\nkind = hat\n")


def test_enum_validation():
    with pytest.raises(ConfigError, match="backbone.kind"):
        parse_config(MINIMAL + "[backbone]\nkind = resnet\n")
    with pytest.raises(ConfigError, match="ood.scorer"):
        parse_config(MINIMAL + "[ood]\nscorer = energy\n")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="backbone.epochs"):
        parse_config(MINIMAL + "[backbone]\nepochs = many\n")


def test_lists_and_comments():
    cfg = parse_config("""
# full experiment
[experiment]
seed = 9   ; inline comment

[backbone]
hidden = 64, 32
lambdas = 1.0, 0.5, 0.25
""")
    assert cfg.backbone.hidden == [64, 32]
    assert cfg.backbone.lambdas == [1.0, 0.5, 0.25]


def test_idx_paths_required():
    with pytest.raises(ConfigError, match="required"):
        parse_config(MINIMAL + "[data]\nsource = idx\n")


@pytest.mark.parametrize("line", ["shuffle_classes = true",
                                  "drop_classes = 0, 3"])
def test_synthetic_source_rejects_idx_only_task_knobs(line):
    key = line.split()[0]
    for data in ("", "[data]\nsource = synthetic\n"):
        with pytest.raises(ConfigError, match=rf"tasks\.{key}"):
            parse_config(MINIMAL + data + f"[tasks]\n{line}\n")
    # the defaults written out change nothing, so they stay accepted
    cfg = parse_config(MINIMAL + "[tasks]\nshuffle_classes = false\n"
                       "drop_classes =\n")
    assert cfg.tasks.shuffle_classes is False and cfg.tasks.drop_classes == []


@pytest.mark.parametrize("kind", ["rotation-ce", "contrastive"])
def test_synthetic_source_rejects_rotation_losses(kind):
    # synthetic rows are 1 x dim, with no image for the losses to rotate
    for data in ("", "[data]\nsource = synthetic\n"):
        with pytest.raises(ConfigError, match=rf"loss\.kind = {kind}"):
            parse_config(MINIMAL + data + f"[loss]\nkind = {kind}\n")
    assert parse_config(MINIMAL + "[loss]\nkind = ce\n").loss.kind == "ce"


def test_synthetic_source_rejects_the_rotation_ensemble():
    # only the rotation losses give rotation heads, and they need images
    for data in ("", "[data]\nsource = synthetic\n"):
        with pytest.raises(ConfigError, match=r"ood\.scorer"):
            parse_config(MINIMAL + data + "[ood]\nscorer = rotation-ensemble\n")
    assert parse_config(MINIMAL + "[ood]\nscorer = odin\n").ood.scorer == "odin"


@pytest.mark.parametrize("section, key, bad, boundary", [
    ("data", "separation", "0", "1e-9"),
    ("data", "dim", "0", "1"),
    ("data", "per_class", "0", "1"),
    ("data", "test_per_class", "-1", "0"),
    ("tasks", "count", "0", "1"),
    ("tasks", "classes_per_task", "0", "1"),
    ("backbone", "hidden", "16, 0", "1, 1"),
    ("backbone", "hidden", "", "1"),
    ("backbone", "lambdas", "", "1.0"),
    ("backbone", "lambdas", "-5.0", "0"),
    ("backbone", "s_max", "0", "1e-9"),
    ("backbone", "sparsity", "0", "100"),
    ("backbone", "sparsity", "100.5", "1e-9"),
    ("backbone", "epochs", "0", "1"),
    ("backbone", "lr", "0", "1e-9"),
    ("backbone", "batch", "0", "1"),
    ("loss", "contrastive_epochs", "-1", "0"),
    ("loss", "head_epochs", "-1", "0"),
    ("loss", "head_lr", "-1e-9", "0"),
    ("loss", "temperature", "0", "1e-9"),
    ("loss", "flip_prob", "-0.1", "0"),
    ("loss", "flip_prob", "1.1", "1"),
    ("loss", "noise_sigma", "-1e-9", "0"),
    ("ood", "odin_tau", "0", "1e-9"),
    ("ood", "odin_eps", "-1", "0"),
    ("ood", "validation_fraction", "0", "1e-9"),
    ("ood", "validation_fraction", "1", "0.999"),
    ("predict", "nu", "0", "1e-9"),
    ("predict", "tau", "-1", "1e-9"),
    # one buffer sample per class: tasks.count x tasks.classes_per_task
    ("calibrate", "buffer", "3", "4"),
    ("calibrate", "iters", "-1", "0"),
    ("calibrate", "lr", "0", "1e-9"),
    ("calibrate", "batch", "0", "1"),
    ("predict", "nu", "nan", "0.1"),
])
def test_out_of_range_values_name_the_key(section, key, bad, boundary):
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be "):
        parse_config(MINIMAL + f"[{section}]\n{key} = {bad}\n")
    cfg = parse_config(MINIMAL + f"[{section}]\n{key} = {boundary}\n")
    want = [float(v) for v in boundary.split(",")]
    got = getattr(getattr(cfg, section), key)
    assert (got if isinstance(got, list) else [got]) == want


# every float key; a list key's non-finite value follows a finite one
FLOAT_KEYS = [(section, f.name, "0.5, " if f.type == "list[float]" else "")
              for section, cls in config._SECTIONS.items()
              for f in fields(cls) if f.type in ("float", "list[float]")]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("section, key, prefix", FLOAT_KEYS)
def test_non_finite_floats_name_the_key(section, key, prefix, value):
    # a value outside the key's range reads as such; any other non-finite
    # value is a bad value
    with pytest.raises(ConfigError, match=rf"^(bad value for {section}\.{key}"
                                          rf": not finite|{section}\.{key} "
                                          rf"must be )"):
        parse_config(MINIMAL + f"[{section}]\n{key} = {prefix}{value}\n")


@pytest.mark.parametrize("section, key, raw", [
    ("ood", "odin_eps", "inf"),
    ("ood", "odin_tau", "inf"),
    ("calibrate", "lr", "inf"),
    ("backbone", "lambdas", "1.0, nan"),
    ("backbone", "lambdas", "-inf"),
])
def test_non_finite_values_in_range_are_bad_values(section, key, raw):
    with pytest.raises(ConfigError,
                       match=rf"^bad value for {section}\.{key}: not finite"):
        parse_config(MINIMAL + f"[{section}]\n{key} = {raw}\n")


def test_paper_training_defaults():
    # the config is the only record of these values: HAT's s_max and
    # lambda schedule, CSI's contrastive temperature and view augmentation
    b, loss = config.BackboneCfg(), config.LossCfg()
    assert (b.s_max, b.lambdas, b.sparsity) == (400.0, [1.0, 0.75], 50.0)
    assert (b.epochs, b.lr, b.batch) == (20, 0.1, 16)
    assert (loss.temperature, loss.flip_prob, loss.noise_sigma) == \
        (0.5, 0.5, 0.05)
    # 0: the backbone's epochs and lr
    assert (loss.contrastive_epochs, loss.head_epochs, loss.head_lr) == \
        (0, 0, 0.0)
