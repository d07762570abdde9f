"""Fixed-seed fingerprint of prunekit's config resolution, training loops
and prune surgery.

First it prints what each INI section of configs/toy.ini and of
tests/every_key.ini (every key set to a non-default value) resolves to: one
line per section with the `repr` of its config. Then it runs a short teacher
pre-training and four recovery runs that cover both scopes, both KD
directions, final-block hidden-state matching, a 5% data subsample, zero
momentum and in-run evaluation, and prints one JSON line per run with the
final `Model.checksum()` and every `LossBreakdown` record (floats at full
precision). Then it prunes the teacher layerwise at 0.3 and widthwise at
0.2 and 0.55, and prunes the widthwise-0.2 model widthwise again, and prints
one line per pruned model as surgery left it in memory: its checksum and the
SHA-256 of its checkpoint bytes and of its logits on the evaluation items,
run per layout bucket and then one item at a time. The checksum and the
checkpoint see only values; the one-item logits also see the memory layout
of the pruned weights. The same line carries the per-layer shapes of the
model that checkpoint reloads into, which are read off its tensors, and the
SHA-256 of the reloaded model's per-bucket logits. Then comes the SHA-256 of
the training and pruning lines. After it comes one line with the signed
scale sensitivity (`group_scale_sensitivity`, a test oracle of
tests/conftest.py) of the first attention-head group and the first
MLP-channel group of block 0 (floats at full precision), computed on the
teacher copy right after its Taylor scoring. Last come the plans for that
scored teacher: one line per mode and target ratio 0.15, 0.3, 0.45 and 0.6
with the victim ids and the predicted parameter removal, then the
InfeasiblePlanError text of layerwise 0.9 and of widthwise 0.99.
After them comes one line per artifact of a short `prunekit` pipeline on
configs/toy.ini, run through `cli.main` in a temporary directory: the
dataset, a 60-step teacher, `inspect` in both modes, layerwise and
widthwise 0.25 prunes, a 20-step joint recovery with hidden-state matching,
eval reports with and without a reference, and the `report` CSV and JSON.
Each line holds the file name and the SHA-256 of its bytes; the history
and surgery logs are artifacts too. Last comes one line per run manifest of
that pipeline: its file name and contents, with the timestamp dropped and
the temporary directory and the repository root written as `<tmp>` and
`<root>`.
Two source trees resolve configs, train, prune and write every CLI artifact
bit-identically when their outputs are equal:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/training_fingerprint.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from prunekit import checkpoint as C
from prunekit import cli
from prunekit import config as CFG
from prunekit import data as D
from prunekit import evaluation as E
from prunekit import importance as I
from prunekit import model as M
from prunekit import pruning as P
from prunekit import recovery as R
from prunekit import tensor as T

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from conftest import group_scale_sensitivity  # noqa: E402

CONFIG_FILES = ("configs/toy.ini", "tests/every_key.ini")
SECTIONS = {"model": CFG.model_config, "data": CFG.data_settings,
            "teacher": CFG.teacher_config, "recovery": CFG.recovery_config,
            "prune": CFG.prune_settings}

RECOVERY_RUNS = {
    "projector-kl-match": dict(alpha=1.0, beta=1.0, gamma=1.0, kd_direction="kl",
                               scope="projector"),
    "joint-rkl-match-eval": dict(alpha=1.0, beta=0.5, gamma=2.0, kd_direction="rkl",
                                 scope="joint", eval_every=5),
    "projector-sft-momentum0": dict(alpha=1.0, scope="projector", momentum=0.0),
    "joint-kl-data5pct-eval": dict(alpha=1.0, beta=1.0, kd_direction="kl", scope="joint",
                                   data_fraction=0.05, eval_every=5),
}


def line(name, model, history):
    return json.dumps({"run": name, "checksum": model.checksum(), "steps": history.steps},
                      sort_keys=True)


def sha256(blob):
    return hashlib.sha256(blob).hexdigest()


def logits_sha256(model, batches):
    with T.no_grad():
        return sha256(b"".join(M.forward(model, batch, capture=None).logits.data.tobytes()
                               for batch in batches))


def pruned_line(name, model, items):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        C.save(model, path)
        with open(path, "rb") as f:
            ckpt = f.read()
        reloaded, _ = C.load(path)
    batches = [[items[i] for i in idx] for idx in M.layout_buckets(items)]
    return json.dumps({"run": name, "checksum": model.checksum(), "ckpt_sha256": sha256(ckpt),
                       "logits_sha256": logits_sha256(model, batches + [[it] for it in items]),
                       "layer_shapes": model.layer_shapes(),
                       "reloaded_layer_shapes": reloaded.layer_shapes(),
                       "reloaded_logits_sha256": logits_sha256(reloaded, batches)},
                      sort_keys=True)


def pipeline(tmp):
    """The argv of each command of the CLI pipeline, writing into `tmp`."""
    def out(name):
        return os.path.join(tmp, name)

    config = ["--config", str(ROOT / "configs" / "toy.ini")]
    data = ["--data", out("data.json")]
    teacher = out("teacher.ckpt")
    evals = [out(f"{name}.eval.json") for name in ("teacher", "layerwise", "widthwise",
                                                    "recovered")]
    return [
        ["generate-data", "--out", out("data.json")] + config,
        ["train-teacher", "--out", teacher, "--steps", "60"] + data + config,
        *(["inspect", "--ckpt", teacher, "--mode", mode, "--out", out(f"{mode}.json")]
          + data + config for mode in ("bi", "taylor")),
        *(["prune", "--ckpt", teacher, "--mode", mode, "--ratio", "0.25",
           "--out", out(f"{mode}.ckpt")] + data + config for mode in ("layerwise", "widthwise")),
        ["recover", "--student", out("widthwise.ckpt"), "--teacher", teacher,
         "--out", out("recovered.ckpt"), "--scope", "joint", "--gamma", "1",
         "--steps", "20"] + data + config,
        ["evaluate", "--ckpt", teacher, "--out", evals[0]] + data,
        *(["evaluate", "--ckpt", out(f"{name}.ckpt"), "--reference", evals[0],
           "--out", path] + data
          for name, path in zip(("layerwise", "widthwise", "recovered"), evals[1:])),
        ["report", "--out-prefix", out("report"), *evals],
    ]


def print_cli_artifacts():
    with tempfile.TemporaryDirectory() as tmp:
        for argv in pipeline(tmp):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise SystemExit(f"prunekit {argv[0]} exited {code}")
        names = sorted(os.listdir(tmp))
        manifests = [name for name in names if name.endswith(".manifest.json")]
        for name in names:
            if name not in manifests:
                with open(os.path.join(tmp, name), "rb") as f:
                    print(json.dumps({"artifact": name, "sha256": sha256(f.read())}))
        for name in manifests:
            with open(os.path.join(tmp, name), encoding="utf-8") as f:
                manifest = json.load(f)
            del manifest["timestamp"]
            text = json.dumps({"manifest": name, "contents": manifest}, sort_keys=True)
            print(text.replace(tmp, "<tmp>").replace(str(ROOT), "<root>"))


def main():
    for name in CONFIG_FILES:
        cfg = CFG.load_config(str(ROOT / name))
        for section, resolve in SECTIONS.items():
            print(name, section, repr(resolve(cfg)))

    train, evals = D.generate_dataset(n=120, seed=4)
    evals = evals[:16]

    def eval_fn(m):
        return E.evaluate(m, evals).avg

    lines = []
    teacher = M.init(M.ModelConfig(), seed=5)
    history = R.train_teacher(teacher, train, R.TeacherConfig(steps=120, batch_size=8, seed=0),
                              eval_fn=eval_fn, eval_every=10)
    lines.append(line("teacher", teacher, history))

    calib = D.draw_calibration(train, n=4, seed=0)
    pruned = teacher.copy()
    groups = I.build_dependency_groups(pruned)
    I.taylor_group_importance(pruned, groups, calib)
    sensitivity = {g.gid: group_scale_sensitivity(pruned, g, calib)
                   for g in (groups[0], next(g for g in groups if g.kind == "mlp-channel"))}
    width_report = I.group_report(pruned, groups)
    P.execute(pruned, P.plan("widthwise", width_report, 0.2))
    for seed, (name, overrides) in enumerate(RECOVERY_RUNS.items()):
        student = pruned.copy()
        cfg = R.RecoveryConfig(**{"lr": 0.02, "steps": 25, "batch_size": 4, "seed": seed,
                                  **overrides})
        history = R.train(student, teacher, train, cfg, eval_fn=eval_fn)
        lines.append(line(name, student, history))

    lines.append(pruned_line("widthwise-0.2", pruned, evals))
    deeper = teacher.copy()
    P.execute(deeper, P.plan("widthwise", width_report, 0.55))
    lines.append(pruned_line("widthwise-0.55", deeper, evals))
    shallower = teacher.copy()
    depth_report = I.block_influence(shallower, calib)
    P.execute(shallower, P.plan("layerwise", depth_report, 0.3))
    lines.append(pruned_line("layerwise-0.3", shallower, evals))
    groups = I.build_dependency_groups(pruned)
    I.taylor_group_importance(pruned, groups, calib)
    P.execute(pruned, P.plan("widthwise", I.group_report(pruned, groups), 0.2))
    lines.append(pruned_line("widthwise-0.2-then-0.2", pruned, evals))

    for text in lines:
        print(text)
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    print(json.dumps({"run": "scale-sensitivity", **sensitivity}, sort_keys=True))

    reports = {"layerwise": depth_report, "widthwise": width_report}
    for mode, report in reports.items():
        for ratio in (0.15, 0.3, 0.45, 0.6):
            plan = P.plan(mode, report, ratio)
            victims = plan.victims if mode == "layerwise" else [g.gid for g in plan.victims]
            print(json.dumps({"plan": f"{mode}-{ratio}", "victims": victims,
                              "predicted_params_removed": plan.predicted_params_removed}))
    for mode, ratio in (("layerwise", 0.9), ("widthwise", 0.99)):
        try:
            P.plan(mode, reports[mode], ratio)
        except P.InfeasiblePlanError as exc:
            print(json.dumps({"plan": f"{mode}-{ratio}", "infeasible": str(exc)}))
        else:
            raise SystemExit(f"{mode} {ratio} was expected to be infeasible")
    print_cli_artifacts()


if __name__ == "__main__":
    main()
