import configparser
import io
from dataclasses import fields
from typing import get_type_hints

import pytest

from ldekit.config import (
    ConfigError,
    RunConfig,
    config_to_dict,
    load_config,
    model_config,
    parse_config,
)
from ldekit.encoding import AGG_NORMALIZED, SMOOTHING_SHARED
from ldekit.train import SgdConfig, learning_rate


def test_empty_text_gives_defaults():
    rc = parse_config("")
    assert rc.data.num_classes == 4
    assert rc.data.feature_dim == 20
    assert rc.frontend.enabled
    assert rc.encoder.model == "tap"
    assert rc.train.epochs == 30
    assert rc.gmm.components == 16
    assert rc.paths.train_corpus == "data/train.bin"


def test_overrides_apply():
    rc = parse_config("""
[data]
num_classes = 3
separation = 2.5

[encoder]
model = lde
components = 8
smoothing = shared_beta
aggregation = normalized
length_normalize = no

[train]
lr0 = 0.05
epochs = 10

[paths]
checkpoint = out/m.ckpt
""")
    assert rc.data.num_classes == 3
    assert rc.data.separation == 2.5
    assert rc.encoder.model == "lde"
    assert rc.encoder.components == 8
    assert rc.encoder.smoothing == SMOOTHING_SHARED
    assert rc.encoder.aggregation == AGG_NORMALIZED
    assert not rc.encoder.length_normalize
    assert rc.train.lr0 == 0.05
    assert rc.train.epochs == 10
    assert rc.paths.checkpoint == "out/m.ckpt"


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[optimizer]\nlr = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[train]\nlearning_rate = 0.1\n")


def test_bad_int_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("[train]\nepochs = ten\n")


def test_bad_bool_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("[encoder]\nlength_normalize = maybe\n")


def test_bool_spellings():
    rc = parse_config("[frontend]\nenabled = off\n")
    assert not rc.frontend.enabled
    rc = parse_config("[frontend]\nenabled = Yes\n")
    assert rc.frontend.enabled


def test_stage_syntax():
    rc = parse_config("[frontend]\nstages = 16:1:down, 32:2:flat\n")
    stages = rc.frontend.parse_stages()
    assert [(s.channels, s.blocks, s.downsample) for s in stages] == \
        [(16, 1, True), (32, 2, False)]


def test_bad_stage_syntax():
    with pytest.raises(ConfigError, match="expected channels"):
        parse_config("[frontend]\nstages = 16:down\n")
    with pytest.raises(ConfigError, match="bad stage"):
        parse_config("[frontend]\nstages = a:1:down\n")


def test_disabled_frontend_builds_none():
    rc = parse_config("[frontend]\nenabled = false\n")
    assert model_config(rc, 4, 20).frontend is None


def test_frontend_build_gives_spec():
    cfg = model_config(parse_config(""), 4, 20)
    spec = cfg.frontend
    assert cfg.in_dim == spec.in_dim == 20
    assert [s.channels for s in spec.stages] == [16, 32]
    assert spec.out_dim == cfg.embed_dim == 32


def test_tap_model_builds_no_encoder():
    cfg = model_config(parse_config("[encoder]\nmodel = tap\n"), 4, 20)
    assert cfg.encoder == "tap"
    assert cfg.lde is None


def test_lde_model_takes_the_encoder_keys():
    cfg = model_config(parse_config(
        "[encoder]\nmodel = lde\ncomponents = 3\nsmoothing = shared_beta\n"
        "beta = 0.5\n"), 4, 20)
    assert (cfg.lde.num_components, cfg.lde.feature_dim) == (3, 32)
    assert (cfg.lde.smoothing_mode, cfg.lde.beta) == (SMOOTHING_SHARED, 0.5)


@pytest.mark.parametrize("text, message", [
    ("[encoder]\naggregation = max\n", "aggregation_mode"),
    ("[encoder]\ncomponents = 0\n", "num_components"),
    ("[encoder]\nsmoothing = shared_beta\nbeta = -1\n", "beta must be > 0"),
], ids=["aggregation", "components", "beta"])
def test_encoder_keys_checked_for_tap(text, message):
    """The TAP model has no dictionary, but its [encoder] keys are still
    checked when the config is parsed."""
    with pytest.raises(ConfigError, match=f"<config>: bad model.*{message}"):
        parse_config(text)


def test_disabled_frontend_keys_unchecked():
    rc = parse_config("[frontend]\nenabled = no\nkernel = 2\n")
    assert rc.frontend.kernel == 2


def test_crop_below_frontend_minimum_rejected():
    with pytest.raises(ConfigError, match="crop_min 3 .*minimum input "
                                          "length 4"):
        parse_config("[train]\ncrop_min = 3\ncrop_max = 8\n")
    assert parse_config("[train]\ncrop_min = 4\ncrop_max = 8\n")
    assert parse_config("[frontend]\nenabled = no\n"
                        "[train]\ncrop_min = 1\ncrop_max = 3\n")


def test_min_len_below_frontend_minimum_rejected():
    # a corpus whose shortest utterances the model could not score
    text = "[data]\nmin_len = 2\nmax_len = 3\nbucketed_test = false\n"
    with pytest.raises(ConfigError, match="min_len 2 in \\[data\\] .*minimum "
                                          "input length 4"):
        parse_config(text)
    assert parse_config("[frontend]\nenabled = no\n" + text)
    assert parse_config("[data]\nmin_len = 4\nmax_len = 8\n")


def test_bad_encoder_model():
    with pytest.raises(ConfigError, match="unknown encoder model"):
        parse_config("[encoder]\nmodel = attention\n")


def test_bad_smoothing_mode():
    with pytest.raises(ConfigError, match="smoothing"):
        parse_config("[encoder]\nsmoothing = fancy\n")


def test_sgd_schedule_scales_with_epochs():
    cfg = parse_config("[train]\nepochs = 30\n").train
    assert isinstance(cfg, SgdConfig)
    assert (cfg.epochs, cfg.lr0) == (30, 0.1)
    assert learning_rate(cfg, 19) == 0.1
    assert learning_rate(cfg, 20) == 0.1 / 10
    assert learning_rate(cfg, 26) == 0.1 / 100


def test_bad_crop_range():
    with pytest.raises(ConfigError, match=r"invalid \[train\].*crop"):
        parse_config("[train]\ncrop_min = 500\ncrop_max = 100\n")


FLOAT_KEYS = [(section, name)
              for section, cls in get_type_hints(RunConfig).items()
              for name, hint in get_type_hints(cls).items() if hint is float]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_non_finite_float_rejected(section, key, raw):
    with pytest.raises(ConfigError,
                       match=rf"bad value for '{key}' in \[{section}\]"):
        parse_config(f"[{section}]\n{key} = {raw}\n")


def test_bad_gmm_settings():
    with pytest.raises(ConfigError, match="invalid"):
        parse_config("[gmm]\ncomponents = 0\n")


@pytest.mark.parametrize("setting", ["sdc_blocks = 0", "sdc_coeffs = 0",
                                     "sdc_delta = -1", "sdc_shift = -3"])
def test_bad_sdc_settings(setting):
    with pytest.raises(ConfigError, match="invalid.*sdc_coeffs"):
        parse_config(f"[gmm]\n{setting}\n")


def test_bad_data_settings():
    with pytest.raises(ConfigError, match="invalid"):
        parse_config("[data]\nnum_classes = 1\n")


def test_config_to_dict_covers_everything():
    rc = parse_config("[encoder]\nmodel = lde\ncomponents = 4\n")
    d = config_to_dict(rc)
    assert set(d) == {"data", "frontend", "encoder", "train", "gmm", "paths"}
    assert d["encoder"]["model"] == "lde"
    assert d["encoder"]["components"] == 4
    assert d["train"]["epochs"] == 30
    assert d["paths"]["scores"] == "runs/scores.txt"


def test_config_to_dict_round_trips_through_ini_text():
    rc = parse_config("[data]\nnoise_std = 0.25\nbucketed_test = no\n"
                      "[frontend]\nstages = 8:2:flat,16:1:down\n"
                      "[encoder]\nmodel = lde\nbeta = 2.5\n"
                      "[train]\nweight_decay = 3e-05\n"
                      "[gmm]\nuse_sdc = false\n"
                      "[paths]\nscores = out/s.txt\n")
    d = config_to_dict(rc)
    # every field of every section is written back as a key
    assert list(d) == [f.name for f in fields(RunConfig)]
    for section, values in d.items():
        assert list(values) == [f.name for f in fields(getattr(rc, section))]
    cp = configparser.ConfigParser(interpolation=None)
    for section, values in d.items():
        cp[section] = {key: str(value) for key, value in values.items()}
    text = io.StringIO()
    cp.write(text)
    assert parse_config(text.getvalue()) == rc


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[train]\nseed = 9\n")
    rc = load_config(path)
    assert rc.train.seed == 9


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("[train]\nepochs = 5\nepochs = 6\n")
