import pytest

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


def test_idx_paths_must_exist(tmp_path):
    text = MINIMAL + f"""
[data]
source = idx
train_images = {tmp_path / 'nope.idx'}
train_labels = {tmp_path / 'nope.idx'}
test_images = {tmp_path / 'nope.idx'}
test_labels = {tmp_path / 'nope.idx'}
"""
    with pytest.raises(ConfigError, match="no such file"):
        parse_config(text)


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
