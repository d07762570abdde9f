"""INI config: the accepted keys, their types, precedence and errors."""

import dataclasses
import pathlib

import pytest

from prunekit import config as C
from prunekit.model import ModelConfig
from prunekit.recovery import RecoveryConfig, TeacherConfig

EVERY_KEY_INI = pathlib.Path(__file__).with_name("every_key.ini")

KEYS = {
    "model": ["vocab_size", "d_model", "n_layers", "n_heads", "head_dim", "d_ffn",
              "n_visual_tokens", "d_vision", "d_descriptor", "max_seq_len", "rms_eps"],
    "data": ["tasks", "n", "eval_fraction"],
    "teacher": ["steps", "batch_size", "peak_lr", "warmup", "floor_frac", "momentum"],
    "recovery": ["alpha", "beta", "gamma", "tau", "kd_direction", "scope", "data_fraction",
                 "lr", "steps", "batch_size", "momentum", "eval_every"],
    "prune": ["calib_size", "min_heads", "min_channels"],
}

# What tests/every_key.ini must resolve to, types included: repr tells 1 from
# 1.0 and "1" from 1, so rms_eps must come back a float, warmup an int and
# tasks strings.
EVERY_KEY = {
    "model": ModelConfig(vocab_size=48, d_model=32, n_layers=3, n_heads=2, head_dim=16,
                         d_ffn=64, n_visual_tokens=3, d_vision=16, d_descriptor=24,
                         max_seq_len=24, rms_eps=1e-5),
    "data": C.DataSettings(tasks=("visual-count", "prompt-echo"), n=480, eval_fraction=0.25),
    "teacher": TeacherConfig(steps=40, batch_size=4, peak_lr=0.1, warmup=5, floor_frac=0.1,
                             momentum=0.8),
    "recovery": RecoveryConfig(alpha=0.5, beta=0.25, gamma=2.0, tau=1.5, kd_direction="rkl",
                               scope="joint", data_fraction=0.05, lr=0.02, steps=25,
                               batch_size=4, momentum=0.5, eval_every=5),
    "prune": C.PruneSettings(calib_size=6, min_heads=2, min_channels=16),
}

RESOLVE = {"model": C.model_config, "data": C.data_settings, "teacher": C.teacher_config,
           "recovery": C.recovery_config, "prune": C.prune_settings}


def leaves(obj):
    """(field name, value) of every field."""
    for f in dataclasses.fields(obj):
        yield f.name, getattr(obj, f.name)


def write(tmp_path, text):
    path = tmp_path / "c.ini"
    path.write_text(text)
    return str(path)


def test_each_section_accepts_exactly_its_pinned_keys():
    assert {s: sorted(C._keys(cls)) for s, cls in C._SECTIONS.items()} == \
        {s: sorted(keys) for s, keys in KEYS.items()}
    assert {s: sorted(v) for s, v in C.load_config(str(EVERY_KEY_INI)).items()} == \
        {s: sorted(keys) for s, keys in KEYS.items()}


@pytest.mark.parametrize("section", sorted(KEYS))
def test_every_key_resolves_to_its_field_type(section):
    expected = EVERY_KEY[section]
    got = RESOLVE[section](C.load_config(str(EVERY_KEY_INI)))
    if isinstance(got, dict):
        expected = dataclasses.asdict(expected)
    assert repr(got) == repr(expected)
    default = dict(leaves(type(EVERY_KEY[section])()))
    assert [k for k, v in leaves(EVERY_KEY[section])
            if k in KEYS[section] and v == default[k]] == []


@pytest.mark.parametrize("text, needle", [
    ("[recovery]\nlora = 4\n", "unknown key 'lora'"),
    ("[model]\nwidth = 4\n", "unknown key 'width'"),
    ("[optimizer]\nlr = 0.1\n", "unknown section [optimizer]"),
    ("[teacher]\nwarmup = 1.5\n", "bad value for [teacher] warmup"),
    ("[recovery]\nmatch_layers = -1\n", "unknown key 'match_layers'"),
    ("[prune]\nmin_channels = none\n", "bad value for [prune] min_channels"),
    ("[teacher]\nseed = 3\n", "unknown key 'seed' in [teacher]; --seed sets every seed"),
    ("[DEFAULT]\nbogus = 1\n", "unknown section [DEFAULT]"),
    ("[DEFAULT]\nbogus = 1\n[prune]\ncalib_size = 3\n", "unknown section [DEFAULT]"),
])
def test_unknown_key_or_section_and_bad_value_are_config_errors(tmp_path, text, needle):
    with pytest.raises(C.ConfigError, match=needle.replace("[", r"\[").replace("]", r"\]")):
        C.load_config(write(tmp_path, text))


def test_invalid_combination_is_config_error(tmp_path):
    cfg = C.load_config(write(tmp_path, "[recovery]\nbeta = 1.0\n"))
    with pytest.raises(C.ConfigError, match=r"invalid \[recovery\] config"):
        C.recovery_config(cfg)
    with pytest.raises(C.ConfigError, match=r"invalid \[teacher\] config"):
        C.teacher_config({}, {"batch_size": 0})


def test_flag_beats_file_beats_default(tmp_path):
    cfg = C.load_config(write(tmp_path, "[recovery]\nlr = 0.5\nsteps = 7\ntau = 3.0\n"
                                        "[prune]\ncalib_size = 3\n"))
    rc = C.recovery_config(cfg, {"lr": 0.25, "steps": None})
    assert (rc.lr, rc.steps, rc.tau) == (0.25, 7, 3.0)
    assert rc.batch_size == RecoveryConfig().batch_size
    assert C.recovery_config(cfg, {"tau": 5.0}).tau == 5.0
    assert C.prune_settings(cfg, {"calib_size": None, "min_heads": 2}) == \
        {"calib_size": 3, "min_heads": 2, "min_channels": None}
    assert C.prune_settings({}, {"calib_size": 4})["calib_size"] == 4
    assert C.prune_settings({}) == dataclasses.asdict(C.PruneSettings())
