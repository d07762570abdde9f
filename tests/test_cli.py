"""CLI contracts: exit codes, composability, reproducibility of artifacts."""

import configparser
import json
import os
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import checkpoint as C
from prunekit import cli
from prunekit import config as CFG
from prunekit import evaluation as E
from prunekit import model as M
from prunekit.model import ModelConfig

from conftest import edit_manifest

EVERY_KEY_INI = pathlib.Path(__file__).with_name("every_key.ini")


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A fast mini-pipeline shared by the CLI tests (small model, short runs)."""
    root = tmp_path_factory.mktemp("cliws")
    cfg = root / "mini.ini"
    cfg.write_text(
        "[model]\n"
        "vocab_size = 40\nd_model = 32\nn_layers = 2\nn_heads = 4\nhead_dim = 8\n"
        "d_ffn = 32\nn_visual_tokens = 2\nd_vision = 16\nd_descriptor = 40\n"
        "max_seq_len = 16\n"
        "[data]\nn = 120\n"
        "[teacher]\nsteps = 400\nbatch_size = 8\n"
        "[recovery]\nsteps = 20\nbatch_size = 4\nlr = 0.02\n")
    data = root / "dataset.json"
    teacher = root / "teacher.ckpt"
    assert run(["generate-data", "--config", str(cfg), "--out", str(data),
                "--seed", "3"]) == 0
    assert run(["train-teacher", "--config", str(cfg), "--data", str(data),
                "--out", str(teacher), "--seed", "3"]) == 0
    return {"root": root, "cfg": cfg, "data": data, "teacher": teacher}


def test_zero_ratio_is_usage_error(capsys, workspace):
    code = run(["prune", "--ckpt", str(workspace["teacher"]),
                "--data", str(workspace["data"]), "--mode", "widthwise",
                "--ratio", "0", "--out", "/tmp/x.ckpt"])
    assert code == cli.EXIT_USAGE
    assert "ratio must be in (0,1)" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(workspace):
    assert run(["advise", "--ratio", "0.3", "--bogus"]) == cli.EXIT_USAGE


def test_missing_config_file_is_config_error(workspace):
    code = run(["generate-data", "--config", "/nonexistent.ini",
                "--out", str(workspace["root"] / "d2.json")])
    assert code == cli.EXIT_CONFIG


def test_bad_config_value_is_config_error(workspace, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nd_model = sixty-four\n")
    code = run(["generate-data", "--config", str(bad),
                "--out", str(tmp_path / "d.json")])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("line", ["lora_targets = wq,wk", "lora_targets = wq,w_up",
                                  "lora_rank = 4", "lora_scaling = 8.0"],
                         ids=["wk", "w_up", "rank", "scaling"])
def test_lora_key_in_config_exits_2_before_training(workspace, tmp_path, monkeypatch, line):
    """The LoRA recipe is fixed; no lora_* key is accepted."""
    def train(*args, **kwargs):
        raise AssertionError("recovery started training")

    monkeypatch.setattr(cli.R, "train", train)
    cfg = tmp_path / "lora.ini"
    cfg.write_text(workspace["cfg"].read_text() + line + "\n")
    out = tmp_path / "never.ckpt"
    code = run(["recover", "--student", str(workspace["teacher"]), "--teacher",
                str(workspace["teacher"]), "--data", str(workspace["data"]),
                "--config", str(cfg), "--out", str(out), "--scope", "joint"])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("case", ["inspect-calib-0", "prune-calib-0", "recover-steps-0",
                                  "recover-batch-0", "teacher-batch-0", "recover-match-9",
                                  "recover-match-past-pruned-student", "teacher-clip-negative",
                                  "teacher-peak-lr-negative", "recover-lr-negative",
                                  "recover-momentum-1.5", "recover-scope-bogus",
                                  "recover-beta-teacher-vocab", "recover-gamma-teacher-width"])
def test_bad_run_settings_are_config_errors(workspace, tmp_path, capsys, case):
    ws = {k: str(v) for k, v in workspace.items()}
    out = tmp_path / "out"
    common = ["--data", ws["data"], "--out", str(out)]
    argv = {
        "inspect-calib-0": ["inspect", "--ckpt", ws["teacher"], "--mode", "bi",
                            "--calib-size", "0"],
        "prune-calib-0": ["prune", "--ckpt", ws["teacher"], "--mode", "layerwise",
                          "--ratio", "0.3", "--calib-size", "0"],
        "recover-steps-0": ["recover", "--student", ws["teacher"], "--teacher",
                            ws["teacher"], "--config", ws["cfg"], "--steps", "0"],
        "recover-batch-0": ["recover", "--student", ws["teacher"], "--teacher",
                            ws["teacher"], "--config", ws["cfg"], "--batch-size", "0"],
        "recover-scope-bogus": ["recover", "--student", ws["teacher"], "--teacher",
                                ws["teacher"], "--config", ws["cfg"], "--scope", "bogus"],
    }
    if case.startswith("teacher"):
        cfg = tmp_path / "teacher.ini"
        cfg.write_text("[teacher]\n" + {"teacher-batch-0": "batch_size = 0",
                                         "teacher-clip-negative": "clip = -1.0",
                                         "teacher-peak-lr-negative": "peak_lr = -0.15"}[case]
                       + "\n")
        argv[case] = ["train-teacher", "--config", str(cfg)]
    if case in ("recover-lr-negative", "recover-momentum-1.5"):
        cfg = tmp_path / "recovery.ini"
        text = workspace["cfg"].read_text()
        cfg.write_text(text.replace("lr = 0.02", "lr = -0.05") if case == "recover-lr-negative"
                       else text + "momentum = 1.5\n")
        argv[case] = ["recover", "--student", ws["teacher"], "--teacher", ws["teacher"],
                      "--config", str(cfg)]
    if case.endswith(("-teacher-vocab", "-teacher-width")):
        # a teacher of the default ModelConfig: vocab_size 64 and d_model 64
        # against the student's 40 and 32
        teacher = tmp_path / "wide.ckpt"
        C.save(M.init(ModelConfig(), seed=0), str(teacher))
        loss = ["--beta", "1", "--kd-direction", "kl"] if "beta" in case else ["--gamma", "1"]
        argv[case] = ["recover", "--student", ws["teacher"], "--teacher", str(teacher),
                      "--config", ws["cfg"], *loss]
    if case.startswith("recover-match"):
        # the teacher has 2 blocks; layerwise 0.4 leaves the student 1
        student, layer = ws["teacher"], 9
        if case == "recover-match-past-pruned-student":
            student, layer = str(tmp_path / "layerwise.ckpt"), 1
            assert run(["prune", "--ckpt", ws["teacher"], "--data", ws["data"], "--mode",
                        "layerwise", "--ratio", "0.4", "--calib-size", "2",
                        "--out", student]) == 0
        cfg = tmp_path / "match.ini"
        cfg.write_text(workspace["cfg"].read_text() + f"gamma = 1.0\nmatch_layers = {layer}\n")
        argv[case] = ["recover", "--student", student, "--teacher", ws["teacher"],
                      "--config", str(cfg)]
    assert run(argv[case] + common) == cli.EXIT_CONFIG
    assert not out.exists()
    # the three settings that would make SGD climb, a flag out of its range,
    # the removed clip key and a teacher whose widths the losses cannot
    # compare are named in the error
    assert {"teacher-clip-negative": "unknown key 'clip' in [teacher]",
            "teacher-peak-lr-negative": "peak_lr must be > 0, got -0.15",
            "recover-lr-negative": "lr must be > 0, got -0.05",
            "recover-momentum-1.5": "momentum must be in [0, 1)",
            "recover-scope-bogus": "scope must be projector or joint, got 'bogus'",
            "recover-beta-teacher-vocab":
                "vocab_size differs: the student's is 40, the teacher's 64",
            "recover-gamma-teacher-width":
                "d_model differs: the student's is 32, the teacher's 64"}.get(case, "") \
        in capsys.readouterr().err


# every (command, [section] key) pair a setting flag exposes
SETTING_FLAGS = [("generate-data", "data", key) for key in ("n", "tasks")] + [
    ("train-teacher", "teacher", "steps"), ("inspect", "prune", "calib_size")] + [
    ("prune", "prune", key) for key in ("calib_size", "min_heads", "min_channels")] + [
    ("recover", "recovery", key) for key in ("alpha", "beta", "gamma", "kd_direction", "scope",
                                             "data_fraction", "lr", "steps", "batch_size")]
REQUIRED_FLAGS = {"generate-data": [], "train-teacher": ["--data", "d"],
                  "inspect": ["--ckpt", "c", "--data", "d", "--mode", "bi"],
                  "prune": ["--ckpt", "c", "--data", "d", "--mode", "layerwise",
                            "--ratio", "0.3"],
                  "recover": ["--student", "s", "--teacher", "t", "--data", "d"]}


@pytest.mark.parametrize("command, section, key", SETTING_FLAGS,
                         ids=[f"{c}-{k}" for c, _, k in SETTING_FLAGS])
def test_setting_flag_reads_like_its_ini_key(command, section, key):
    """The flag `--<key with dashes>` given the raw value of `key` in
    every_key.ini resolves to the value and type load_config gives it."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.read(EVERY_KEY_INI)
    flag = "--" + key.replace("_", "-")
    args = cli.build_parser().parse_args([command, *REQUIRED_FLAGS[command], "--out", "o",
                                          f"{flag}={ini[section][key]}"])
    expected = CFG.load_config(str(EVERY_KEY_INI))[section][key]
    resolved = CFG.set_flags(section, args)
    assert resolved == {key: expected}
    assert type(resolved[key]) is type(expected)


def test_kd_flag_prefix_still_sets_kd_direction():
    args = cli.build_parser().parse_args(["recover", *REQUIRED_FLAGS["recover"], "--out", "o",
                                          "--kd", "rkl"])
    assert CFG.set_flags("recovery", args) == {"kd_direction": "rkl"}


@pytest.mark.parametrize("flags, message", [
    (["--steps", "x"], "argument --steps: invalid [recovery] steps value: 'x'"),
    (["--fraction", "0.05"], "unrecognized arguments: --fraction 0.05"),
], ids=["steps-x", "fraction"])
def test_bad_setting_flag_is_usage_error(workspace, tmp_path, capsys, flags, message):
    out = tmp_path / "r.ckpt"
    code = run(["recover", "--student", str(workspace["teacher"]), "--teacher",
                str(workspace["teacher"]), "--data", str(workspace["data"]),
                "--out", str(out), *flags])
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_recovery_seed_in_a_config_file_is_config_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "seed.ini"
    cfg.write_text(workspace["cfg"].read_text() + "seed = 7\n")
    out = tmp_path / "recovered.ckpt"
    code = run(["recover", "--student", str(workspace["teacher"]), "--teacher",
                str(workspace["teacher"]), "--data", str(workspace["data"]),
                "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "--seed sets every seed" in capsys.readouterr().err
    assert not out.exists()


def jsonl_records(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def test_recover_evaluates_every_eval_every_steps(workspace, tmp_path):
    cfg = tmp_path / "eval.ini"
    cfg.write_text(workspace["cfg"].read_text() + "eval_every = 1\n")
    out = tmp_path / "recovered.ckpt"
    assert run(["recover", "--student", str(workspace["teacher"]), "--teacher",
                str(workspace["teacher"]), "--data", str(workspace["data"]),
                "--config", str(cfg), "--out", str(out), "--steps", "3"]) == 0
    records = jsonl_records(tmp_path / "recovered.ckpt.history.jsonl")
    assert len(records) == 3 and all(r["eval_metric"] is not None for r in records)


def test_train_teacher_eval_during_evaluates_every_200_steps(workspace, tmp_path):
    out = tmp_path / "teacher.ckpt"
    assert run(["train-teacher", "--config", str(workspace["cfg"]), "--data",
                str(workspace["data"]), "--out", str(out), "--steps", "3",
                "--eval-during"]) == 0
    records = jsonl_records(tmp_path / "teacher.ckpt.history.jsonl")
    assert [r["step"] for r in records] == [0, 1, 2]
    assert [r["eval_metric"] is not None for r in records] == [True, False, False]


def test_history_and_surgery_files_hold_the_in_memory_records(workspace, tmp_path,
                                                              monkeypatch):
    made = {}
    for module, name in ((cli.R, "train_teacher"), (cli.P, "execute"), (cli.R, "train")):
        def keep(*args, _fn=getattr(module, name), _name=name, **kwargs):
            made[_name] = _fn(*args, **kwargs)
            return made[_name]
        monkeypatch.setattr(module, name, keep)
    teacher, pruned, recovered = (tmp_path / f"{n}.ckpt" for n in ("t", "p", "r"))
    common = ["--data", str(workspace["data"]), "--config", str(workspace["cfg"])]
    assert run(["train-teacher", "--out", str(teacher), "--steps", "3"] + common) == 0
    assert run(["prune", "--ckpt", str(workspace["teacher"]), "--mode", "widthwise",
                "--ratio", "0.2", "--out", str(pruned), "--calib-size", "4"] + common) == 0
    assert run(["recover", "--student", str(pruned), "--teacher", str(workspace["teacher"]),
                "--out", str(recovered), "--steps", "3"] + common) == 0
    for out, log, records in ((teacher, "history", made["train_teacher"].steps),
                              (pruned, "surgery", made["execute"].surgery_log),
                              (recovered, "history", made["train"].steps)):
        path = f"{out}.{log}.jsonl"
        assert len(records) > 0 and jsonl_records(path) == records
        assert jsonl_records(f"{out}.manifest.json")[0]["outputs"] == [str(out), path]


def halve_first_block_heads(manifest):
    manifest["layer_shapes"][0][0] = 2


def drop_layer_shapes(manifest):
    del manifest["layer_shapes"]


def add_unknown_config_key(manifest):
    manifest["config"]["bogus"] = 1


def drop_meta(manifest):
    del manifest["meta"]


def float_model_width(manifest):
    manifest["config"]["d_model"] = 32.0


def bool_rms_eps(manifest):
    manifest["config"]["rms_eps"] = True


def str_rms_eps(manifest):
    manifest["config"]["rms_eps"] = "x"


@pytest.mark.parametrize("case, message", [
    ("layer-shapes-disagree", "layer_shapes [[2, 32], [4, 32]] disagree with the tensors' "
                              "[(4, 32), (4, 32)]"),
    ("layer-shapes-missing", "KeyError: 'layer_shapes'"),
    ("config-unknown-key", "'bogus'"),
    ("meta-missing", "KeyError: 'meta'"),
    ("short-wk", "tensor layers.0.attn.wk has shape [24, 32], expected [32, 32]"),
    ("dataset-without-train", "dataset needs a 'train' and an 'eval' item list"),
    ("manifest-not-utf8", "m.ckpt: malformed manifest ('utf-8' codec can't decode byte 0xff"),
    ("dataset-top-level-list", "d.json: dataset needs a 'train' and an 'eval' item list"),
    ("reference-without-per-task", "ref.json: not an eval report"),
    ("config-float-width", "ModelConfig.d_model must be an integer >= 1, got 32.0"),
    ("config-bool-rms-eps", "ModelConfig.rms_eps must be a number > 0, got True"),
    ("config-str-rms-eps", "ModelConfig.rms_eps must be a number > 0, got 'x'"),
], ids=["layer-shapes-disagree", "layer-shapes-missing", "config-unknown-key", "meta-missing",
        "short-wk", "dataset-without-train", "manifest-not-utf8", "dataset-top-level-list",
        "reference-without-per-task", "config-float-width", "config-bool-rms-eps",
        "config-str-rms-eps"])
def test_malformed_checkpoint_or_dataset_is_config_error(workspace, tmp_path, capsys,
                                                         case, message):
    ckpt, data, out = tmp_path / "m.ckpt", tmp_path / "d.json", tmp_path / "ev.json"
    ckpt.write_bytes(workspace["teacher"].read_bytes())
    data.write_bytes(workspace["data"].read_bytes())
    reference = []
    if case == "manifest-not-utf8":
        blob = ckpt.read_bytes()
        _, start = C._split(ckpt, blob)
        header = b'{"format_version":1,"label":"\xff"}'
        ckpt.write_bytes(C.MAGIC + f"{len(header)}\n".encode("ascii") + header + blob[start:])
    elif case == "dataset-top-level-list":
        data.write_text("[]")
    elif case == "reference-without-per-task":
        (tmp_path / "ref.json").write_text('{"x": 1}')
        reference = ["--reference", str(tmp_path / "ref.json")]
    elif case == "short-wk":
        model, _ = C.load(ckpt)
        model.layers[0].wk.data = model.layers[0].wk.data[:24]
        C.save(model, ckpt)
    elif case == "dataset-without-train":
        payload = json.loads(data.read_text())
        del payload["train"]
        data.write_text(json.dumps(payload))
    else:
        edit_manifest(ckpt, {"layer-shapes-disagree": halve_first_block_heads,
                             "layer-shapes-missing": drop_layer_shapes,
                             "config-unknown-key": add_unknown_config_key,
                             "meta-missing": drop_meta,
                             "config-float-width": float_model_width,
                             "config-bool-rms-eps": bool_rms_eps,
                             "config-str-rms-eps": str_rms_eps}[case])
    code = run(["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)]
               + reference)
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["train-record-without-task", "lookup-meta-without-slot",
                                  "vocab-below-token-ids", "dataset-not-utf8",
                                  "config-not-utf8", "dataset-directory",
                                  "prompt-past-max-seq-len"])
def test_malformed_dataset_item_or_small_vocab_is_config_error(workspace, tmp_path, capsys,
                                                              case):
    cfg, data, out = tmp_path / "c.ini", tmp_path / "d.json", tmp_path / "t.ckpt"
    cfg.write_text(workspace["cfg"].read_text())
    payload = json.loads(workspace["data"].read_text())
    if case == "prompt-past-max-seq-len":  # an echo item: 2 visual + 2 prompt + 1 response tokens
        cfg.write_text(cfg.read_text().replace("max_seq_len = 16", "max_seq_len = 4"))
        message = "sequence of 5 tokens exceeds max_seq_len=4"
    elif case == "train-record-without-task":
        del payload["train"][0]["task"]
        message = "train record 0: unknown task None"
    elif case == "lookup-meta-without-slot":
        i = next(i for i, r in enumerate(payload["eval"]) if r["task"] == "visual-lookup")
        del payload["eval"][i]["meta"]["slot"]
        message = f"eval record {i}: meta field 'slot' is missing or invalid"
    else:  # the toy tasks' marker tokens are ids 32 to 34
        cfg.write_text(cfg.read_text().replace("vocab_size = 40", "vocab_size = 32"))
        message = "token id is outside [0, vocab_size=32)"
    data.write_text(json.dumps(payload))
    if case == "dataset-not-utf8":
        data.write_bytes(b"\xff\xfe" + data.read_bytes())
        message = "d.json: malformed dataset ('utf-8' codec can't decode byte 0xff"
    elif case == "config-not-utf8":
        cfg.write_bytes(b"[model]\nd_model\xff = 32\n")
        message = "c.ini: malformed config file ('utf-8' codec can't decode byte 0xff"
    elif case == "dataset-directory":
        data.unlink()
        data.mkdir()
        message = f"Is a directory: '{data}'"
    code = run(["train-teacher", "--config", str(cfg), "--data", str(data), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def write_report(path, **fields):
    path.write_text(json.dumps({"per_task": {"visual-count": 1.0}, "counts": {}, "avg": 1.0,
                                **fields}))
    return str(path)


@pytest.mark.parametrize("case", ["report-not-utf8", "report-directory",
                                  "report-ratio-mixed-types", "report-strategy-null",
                                  "report-avg-pct-str", "report-reference-int",
                                  "ckpt-directory", "ckpt-meta-ratio-str",
                                  "advise-config-directory", "percent-in-tasks"])
def test_unreadable_or_mistyped_input_is_config_error(workspace, tmp_path, capsys, case):
    """Each command's input files: one that cannot be opened or is not UTF-8
    exits 2 naming its path, and so does a report, or the checkpoint meta an
    eval report copies, with an optional field of the wrong type. `%` in an
    INI value is literal."""
    bad, out = tmp_path / "bad", tmp_path / "out"
    outputs = [out, tmp_path / "out.manifest.json"]
    if case.endswith("directory"):
        bad.mkdir()
        message = f"Is a directory: '{bad}'"
    if case.startswith("report"):
        if case == "report-not-utf8":
            bad.write_bytes(b"\xff\xfe" + write_report(tmp_path / "r.json").encode())
            message = "bad: malformed eval report ('utf-8' codec can't decode byte 0xff"
        elif case == "report-ratio-mixed-types":
            write_report(bad, ratio="x")
            message = "bad: eval report 'ratio' must be of type int or float, got 'x'"
        elif case == "report-strategy-null":
            write_report(bad, strategy=None)
            message = "bad: eval report 'strategy' must be of type str, got None"
        elif case == "report-avg-pct-str":
            write_report(bad, avg_pct="x")
            message = "bad: eval report 'avg_pct' must be of type int or float or null, got 'x'"
        elif case == "report-reference-int":
            write_report(bad, reference=5)
            message = "bad: eval report 'reference' must be of type str or null, got 5"
        argv = ["report", "--out-prefix", str(out),
                write_report(tmp_path / "ok.json", ratio=0.1), str(bad)]
        outputs = [tmp_path / f"out.{ext}" for ext in ("csv", "json", "manifest.json")]
    elif case.startswith("ckpt"):
        if case == "ckpt-meta-ratio-str":
            bad.write_bytes(workspace["teacher"].read_bytes())
            edit_manifest(bad, lambda manifest: manifest["meta"].update(ratio="x"))
            message = f"{bad}: checkpoint meta 'ratio' must be of type int or float, got 'x'"
        argv = ["evaluate", "--ckpt", str(bad), "--data", str(workspace["data"]),
                "--out", str(out)]
    elif case == "advise-config-directory":
        argv = ["advise", "--ratio", "0.3", "--config", str(bad)]
    else:  # unknown task 'a%b', not an interpolation error
        bad.write_text("[data]\ntasks = a%b\n")
        message = "unknown task 'a%b'"
        argv = ["generate-data", "--config", str(bad), "--out", str(out)]
    assert run(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not any(path.exists() for path in outputs)


def test_minimal_report_takes_the_eval_report_defaults(tmp_path):
    """A report holding only `per_task`, `counts` and `avg` loads with the
    default label, ratio and strategy, and `report` writes them in its row."""
    path = tmp_path / "min.json"
    path.write_text('{"per_task": {"visual-count": 0.5}, "counts": {"visual-count": 4}, '
                    '"avg": 0.5}')
    report = E.load_report(path)
    assert report == E.EvalReport(per_task={"visual-count": 0.5}, counts={"visual-count": 4},
                                  avg=0.5)
    assert (report.label, report.ratio, report.strategy) == ("model", 0.0, "none")
    assert run(["report", "--out-prefix", str(tmp_path / "t"), str(path)]) == 0
    with open(tmp_path / "t.csv", encoding="utf-8", newline="") as f:
        assert f.read() == ("label,acc_visual-count,avg,avg_pct,ratio,strategy\r\n"
                            "model,0.5,0.5,,0.0,none\r\n")
    assert (tmp_path / "t.json").read_text(encoding="utf-8") == (
        '{"runs":[{"acc_visual-count":0.5,"avg":0.5,"avg_pct":null,"label":"model",'
        '"ratio":0.0,"strategy":"none"}]}\n')


@st.composite
def mutations(draw, blob):
    """`blob` truncated, with one byte flipped, or with a span replaced by
    random bytes or text."""
    i = draw(st.integers(0, len(blob) - 1))
    how = draw(st.sampled_from(("truncate", "flip", "splice")))
    if how == "truncate":
        return blob[:i]
    if how == "flip":
        return blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1:]
    insert = draw(st.binary(max_size=8) | st.text(max_size=8).map(str.encode))
    return blob[:i] + insert + blob[draw(st.integers(i, len(blob))):]


@pytest.fixture(scope="module")
def fuzz_inputs(workspace):
    """{input kind: (its valid bytes, the argv that reads it from `{in}`)}; every
    output goes to `{out}`. INI files are fuzzed only through inspect, which
    builds no model or dataset from them."""
    ws = {k: str(v) for k, v in workspace.items()}
    report = workspace["root"] / "fuzz-report.json"
    assert run(["evaluate", "--ckpt", ws["teacher"], "--data", ws["data"],
                "--out", str(report)]) == 0
    return {
        "dataset": (workspace["data"].read_bytes(),
                    ["evaluate", "--ckpt", ws["teacher"], "--data", "{in}", "--out", "{out}"]),
        "checkpoint": (workspace["teacher"].read_bytes(),
                       ["evaluate", "--ckpt", "{in}", "--data", ws["data"], "--out", "{out}"]),
        "report": (report.read_bytes(), ["report", "--out-prefix", "{out}", "{in}"]),
        "config": (workspace["cfg"].read_bytes(),
                   ["inspect", "--ckpt", ws["teacher"], "--data", ws["data"], "--mode", "bi",
                    "--config", "{in}", "--out", "{out}"]),
    }


@pytest.mark.parametrize("kind", ["dataset", "checkpoint", "report", "config"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_malformed_input_file_exits_0_or_2_without_output(fuzz_inputs, tmp_path_factory, kind,
                                                          data):
    """A truncated, flipped or spliced input file never escapes as a traceback
    (exit 1), and a rejected one leaves no output file."""
    blob, argv = fuzz_inputs[kind]
    root = tmp_path_factory.mktemp(kind)
    (root / "in").write_bytes(data.draw(mutations(blob)))
    code = run([a.format(**{"in": root / "in", "out": root / "out"}) for a in argv])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
    if code == cli.EXIT_CONFIG:
        assert [p.name for p in root.iterdir()] == ["in"]


def test_eval_fraction_leaving_no_training_items_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "split.ini"
    cfg.write_text("[data]\nn = 30\neval_fraction = 1.5\n")
    out = tmp_path / "d.json"
    assert run(["generate-data", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "eval_fraction 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_task_in_a_config_file_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "tasks.ini"
    cfg.write_text("[data]\nn = 30\ntasks = visual-lookup, visual-colour\n")
    out = tmp_path / "d.json"
    assert run(["generate-data", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown task 'visual-colour'" in err and str(cfg) in err
    assert not out.exists()


def test_item_past_max_seq_len_names_the_dataset_and_config(workspace, tmp_path, capsys):
    """Checked before training: the error names both files the clash comes from."""
    cfg, out = tmp_path / "short.ini", tmp_path / "t.ckpt"
    cfg.write_text(workspace["cfg"].read_text().replace("max_seq_len = 16", "max_seq_len = 4"))
    code = run(["train-teacher", "--config", str(cfg), "--data", str(workspace["data"]),
                "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(workspace["data"]) in err and str(cfg) in err
    assert not out.exists()


def test_infeasible_plan_exit_code(workspace):
    code = run(["prune", "--ckpt", str(workspace["teacher"]),
                "--data", str(workspace["data"]), "--mode", "layerwise",
                "--ratio", "0.95", "--out", str(workspace["root"] / "never.ckpt"),
                "--seed", "1"])
    assert code == cli.EXIT_INFEASIBLE


def test_prune_floors_bound_widthwise_removal(workspace):
    """The teacher has 2 blocks of 4 heads and 32 channels (6208 parameters
    each). Floors of 3 heads and 24 channels leave 1 head (1024) and 8
    channels (512) removable per block: at most 3072/12416 = 0.247."""
    ws = {k: str(v) for k, v in workspace.items()}

    def prune(ratio, out, *floors):
        return run(["prune", "--ckpt", ws["teacher"], "--data", ws["data"], "--mode",
                    "widthwise", "--ratio", ratio, "--calib-size", "2", "--out",
                    str(workspace["root"] / out), *floors])

    floors = ("--min-heads", "3", "--min-channels", "24")
    assert prune("0.3", "floors-0.3.ckpt", *floors) == cli.EXIT_INFEASIBLE
    assert prune("0.3", "no-floors-0.3.ckpt") == 0
    assert prune("0.2", "floors-0.2.ckpt", *floors) == 0
    model, _ = C.load(workspace["root"] / "floors-0.2.ckpt")
    assert all(h >= 3 and f >= 24 for h, f in model.layer_shapes())


def test_advise_rule_ii_text(capsys):
    assert run(["advise", "--ratio", "0.3", "--recover"]) == 0
    out = capsys.readouterr().out
    assert "(ii)" in out and "layerwise" in out
    assert "95.03" in out


def test_advise_json_mode(capsys):
    assert run(["advise", "--ratio", "0.55", "--recover", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rule"] == "(iii)"
    assert payload["prune_mode"] == "widthwise"


@pytest.mark.parametrize("ratio", ["0.3", "0.55"])
def test_advised_recipe_recovers_through_the_cli(workspace, tmp_path, capsys, ratio):
    """advise --recover, then prune, recover and evaluate as it says: joint
    SFT + L2 distillation at the advised data fraction runs to the end and
    recovers at least the pruned model's AVG-%."""
    ws = {k: str(v) for k, v in workspace.items()}
    capsys.readouterr()
    assert run(["advise", "--ratio", ratio, "--recover", "--json", "--config", ws["cfg"]]) == 0
    advice = json.loads(capsys.readouterr().out)
    assert advice["recovery"] == "ft+l2-kd"
    pruned, recovered = tmp_path / "pruned.ckpt", tmp_path / "recovered.ckpt"
    assert run(["prune", "--ckpt", ws["teacher"], "--data", ws["data"], "--mode",
                advice["prune_mode"], "--ratio", ratio, "--out", str(pruned),
                "--seed", "1", "--calib-size", "4"]) == 0
    assert run(["recover", "--student", str(pruned), "--teacher", ws["teacher"],
                "--data", ws["data"], "--config", ws["cfg"], "--out", str(recovered),
                "--scope", "joint", "--gamma", "1", "--data-fraction",
                str(advice["data_fraction"]), "--steps", "100", "--seed", "1"]) == 0
    reference = tmp_path / "teacher.eval.json"
    assert run(["evaluate", "--ckpt", ws["teacher"], "--data", ws["data"],
                "--out", str(reference)]) == 0
    avg_pct = []
    for ckpt in (pruned, recovered):
        out = tmp_path / f"{ckpt.stem}.eval.json"
        assert run(["evaluate", "--ckpt", str(ckpt), "--data", ws["data"],
                    "--reference", str(reference), "--out", str(out)]) == 0
        avg_pct.append(json.loads(out.read_text())["avg_pct"])
    assert avg_pct[1] >= avg_pct[0], avg_pct


def test_pipeline_composability_and_manifests(workspace, capsys):
    root = workspace["root"]
    pruned = root / "pruned.ckpt"
    recovered = root / "recovered.ckpt"
    ev_t = root / "ev_teacher.json"
    ev_r = root / "ev_recovered.json"
    assert run(["prune", "--ckpt", str(workspace["teacher"]), "--data",
                str(workspace["data"]), "--mode", "widthwise", "--ratio", "0.2",
                "--out", str(pruned), "--seed", "1", "--calib-size", "4"]) == 0
    assert run(["recover", "--student", str(pruned), "--teacher",
                str(workspace["teacher"]), "--data", str(workspace["data"]),
                "--config", str(workspace["cfg"]), "--out", str(recovered),
                "--gamma", "1.0", "--scope", "joint", "--seed", "1"]) == 0
    assert run(["evaluate", "--ckpt", str(workspace["teacher"]), "--data",
                str(workspace["data"]), "--out", str(ev_t), "--label", "teacher"]) == 0
    assert run(["evaluate", "--ckpt", str(recovered), "--data", str(workspace["data"]),
                "--reference", str(ev_t), "--out", str(ev_r)]) == 0
    assert run(["report", "--out-prefix", str(root / "summary"),
                str(ev_t), str(ev_r)]) == 0

    assert (root / "summary.csv").exists() and (root / "summary.json").exists()
    with open(root / "summary.json") as f:
        assert len(json.load(f)["runs"]) == 2
    teacher, data, cfg = str(workspace["teacher"]), str(workspace["data"]), str(workspace["cfg"])
    for out, inputs, outputs in (
            (pruned, [teacher, data], [pruned, f"{pruned}.surgery.jsonl"]),
            (recovered, [cfg, str(pruned), teacher, data],
             [recovered, f"{recovered}.history.jsonl"]),
            (ev_t, [teacher, data], [ev_t]),
            (ev_r, [str(recovered), data, str(ev_t)], [ev_r]),
            (root / "summary", [str(ev_t), str(ev_r)],
             [root / "summary.csv", root / "summary.json"])):
        with open(str(out) + ".manifest.json") as f:
            manifest = json.load(f)
        assert manifest["command"] in ("prune", "recover", "evaluate", "report")
        assert "timestamp" in manifest
        assert manifest["inputs"] == inputs
        assert manifest["outputs"] == [str(path) for path in outputs]
    assert (pruned.parent / (pruned.name + ".surgery.jsonl")).exists()
    with open(ev_r) as f:
        payload = json.load(f)
    # end-to-end regression floor, pinned after the first green run
    assert payload["avg_pct"] is not None
    assert payload["avg_pct"] >= PINNED_PIPELINE_AVG_PCT_FLOOR


PINNED_PIPELINE_AVG_PCT_FLOOR = 95.0


def test_inspect_exports_records(workspace):
    out = workspace["root"] / "bi.json"
    assert run(["inspect", "--ckpt", str(workspace["teacher"]), "--data",
                str(workspace["data"]), "--mode", "bi", "--out", str(out),
                "--calib-size", "3"]) == 0
    with open(out) as f:
        payload = json.load(f)
    assert payload["mode"] == "bi" and len(payload["records"]) == 2

    out2 = workspace["root"] / "taylor.json"
    assert run(["inspect", "--ckpt", str(workspace["teacher"]), "--data",
                str(workspace["data"]), "--mode", "taylor", "--out", str(out2),
                "--calib-size", "3"]) == 0
    with open(out2) as f:
        payload = json.load(f)
    assert all({"id", "kind", "layer", "score"} <= set(r) for r in payload["records"])


def test_reproducibility_byte_identical(tmp_path, workspace):
    """Rerunning the same commands yields byte-identical checkpoints and reports."""
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        os.makedirs(d, exist_ok=True)
        data = d / "ds.json"
        teacher = d / "t.ckpt"
        pruned = d / "p.ckpt"
        ev = d / "ev.json"
        assert run(["generate-data", "--config", str(workspace["cfg"]),
                    "--out", str(data), "--seed", "9"]) == 0
        assert run(["train-teacher", "--config", str(workspace["cfg"]),
                    "--data", str(data), "--out", str(teacher), "--seed", "9"]) == 0
        assert run(["prune", "--ckpt", str(teacher), "--data", str(data),
                    "--mode", "widthwise", "--ratio", "0.2", "--out", str(pruned),
                    "--seed", "9", "--calib-size", "4"]) == 0
        assert run(["evaluate", "--ckpt", str(pruned), "--data", str(data),
                    "--out", str(ev)]) == 0
        outs.append((data.read_bytes(), teacher.read_bytes(),
                     pruned.read_bytes(), ev.read_bytes()))
    for blob_a, blob_b in zip(*outs):
        assert blob_a == blob_b
