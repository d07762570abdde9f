"""CLI contracts: exit codes, composability, reproducibility of artifacts."""

import json
import os

import pytest

from prunekit import checkpoint as C
from prunekit import cli


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


@pytest.mark.parametrize("target", ["wk", "w_up"])
def test_lora_target_the_forward_never_adapts_is_config_error(workspace, tmp_path,
                                                             monkeypatch, target):
    def train(*args, **kwargs):
        raise AssertionError("recovery started training")

    monkeypatch.setattr(cli.R, "train", train)
    cfg = tmp_path / "lora.ini"
    cfg.write_text(workspace["cfg"].read_text() + f"lora_targets = wq,{target}\n")
    out = tmp_path / "never.ckpt"
    code = run(["recover", "--student", str(workspace["teacher"]), "--teacher",
                str(workspace["teacher"]), "--data", str(workspace["data"]),
                "--config", str(cfg), "--out", str(out), "--scope", "joint"])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("case", ["inspect-calib-0", "prune-calib-0", "recover-steps-0",
                                  "recover-batch-0", "teacher-batch-0", "recover-match-9",
                                  "recover-match-past-pruned-student"])
def test_bad_run_settings_are_config_errors(workspace, tmp_path, case):
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
    }
    if case == "teacher-batch-0":
        cfg = tmp_path / "teacher.ini"
        cfg.write_text("[teacher]\nbatch_size = 0\n")
        argv[case] = ["train-teacher", "--config", str(cfg)]
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


def test_recover_evaluates_every_eval_every_steps(workspace, tmp_path):
    cfg = tmp_path / "eval.ini"
    cfg.write_text(workspace["cfg"].read_text() + "eval_every = 1\n")
    out = tmp_path / "recovered.ckpt"
    assert run(["recover", "--student", str(workspace["teacher"]), "--teacher",
                str(workspace["teacher"]), "--data", str(workspace["data"]),
                "--config", str(cfg), "--out", str(out), "--steps", "3"]) == 0
    lines = (tmp_path / "recovered.ckpt.history.txt").read_text().splitlines()
    assert len(lines) == 3 and all("\teval=" in line for line in lines)


def edit_manifest(path, edit):
    """Apply `edit` to the checkpoint's manifest in place, keeping the payload."""
    manifest, start = C.read_manifest(path)
    payload = path.read_bytes()[start:]
    edit(manifest)
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(C.MAGIC + f"{len(header)}\n".encode("ascii") + header + payload)


def halve_first_block_heads(manifest):
    manifest["layer_shapes"][0][0] = 2


def drop_layer_shapes(manifest):
    del manifest["layer_shapes"]


def add_unknown_config_key(manifest):
    manifest["config"]["bogus"] = 1


def drop_meta(manifest):
    del manifest["meta"]


@pytest.mark.parametrize("case, message", [
    ("layer-shapes-disagree", "layer_shapes [[2, 32], [4, 32]] disagree with the tensors' "
                              "[(4, 32), (4, 32)]"),
    ("layer-shapes-missing", "KeyError: 'layer_shapes'"),
    ("config-unknown-key", "'bogus'"),
    ("meta-missing", "KeyError: 'meta'"),
    ("short-wk", "tensor layers.0.attn.wk has shape [24, 32], expected [32, 32]"),
    ("dataset-without-train", "dataset needs a 'train' and an 'eval' item list"),
], ids=["layer-shapes-disagree", "layer-shapes-missing", "config-unknown-key", "meta-missing",
        "short-wk", "dataset-without-train"])
def test_malformed_checkpoint_or_dataset_is_config_error(workspace, tmp_path, capsys,
                                                         case, message):
    ckpt, data, out = tmp_path / "m.ckpt", tmp_path / "d.json", tmp_path / "ev.json"
    ckpt.write_bytes(workspace["teacher"].read_bytes())
    data.write_bytes(workspace["data"].read_bytes())
    if case == "short-wk":
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
                             "meta-missing": drop_meta}[case])
    code = run(["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["train-record-without-task", "lookup-meta-without-slot",
                                  "vocab-below-token-ids"])
def test_malformed_dataset_item_or_small_vocab_is_config_error(workspace, tmp_path, capsys,
                                                              case):
    cfg, data, out = tmp_path / "c.ini", tmp_path / "d.json", tmp_path / "t.ckpt"
    cfg.write_text(workspace["cfg"].read_text())
    payload = json.loads(workspace["data"].read_text())
    if case == "train-record-without-task":
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
    code = run(["train-teacher", "--config", str(cfg), "--data", str(data), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_eval_fraction_leaving_no_training_items_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "split.ini"
    cfg.write_text("[data]\nn = 30\neval_fraction = 1.5\n")
    out = tmp_path / "d.json"
    assert run(["generate-data", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "eval_fraction 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_infeasible_plan_exit_code(workspace):
    code = run(["prune", "--ckpt", str(workspace["teacher"]),
                "--data", str(workspace["data"]), "--mode", "layerwise",
                "--ratio", "0.95", "--out", str(workspace["root"] / "never.ckpt"),
                "--seed", "1"])
    assert code == cli.EXIT_INFEASIBLE


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
    for artifact in (pruned, recovered, ev_t, ev_r):
        with open(str(artifact) + ".manifest.json") as f:
            manifest = json.load(f)
        assert manifest["command"] in ("prune", "recover", "evaluate")
        assert "timestamp" in manifest
    assert (pruned.parent / (pruned.name + ".surgery.txt")).exists()
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
