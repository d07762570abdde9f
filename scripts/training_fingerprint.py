"""Fixed-seed fingerprint of prunekit's training loops.

Runs a short teacher pre-training and four recovery runs that cover both
scopes, both KD directions, hidden-state matching on two layers, a 5% data
subsample, zero momentum and in-run evaluation. Prints one JSON line per run
with the final `Model.checksum()` and every `LossBreakdown` record (floats at
full precision), then the SHA-256 of those lines. Two source trees train
bit-identically when their outputs are equal:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/training_fingerprint.py
"""

import hashlib
import json

from prunekit import data as D
from prunekit import evaluation as E
from prunekit import importance as I
from prunekit import model as M
from prunekit import pruning as P
from prunekit import recovery as R

RECOVERY_RUNS = {
    "projector-kl-match2": dict(alpha=1.0, beta=1.0, gamma=1.0, kd_direction="kl",
                                match_layers=(-2, -1), scope="projector"),
    "joint-rkl-match2-eval": dict(alpha=1.0, beta=0.5, gamma=2.0, kd_direction="rkl",
                                  match_layers=(-2, -1), scope="joint", eval_every=5),
    "projector-sft-momentum0": dict(alpha=1.0, scope="projector", momentum=0.0),
    "joint-kl-data5pct-eval": dict(alpha=1.0, beta=1.0, kd_direction="kl", scope="joint",
                                   data_fraction=0.05, eval_every=5),
}


def line(name, model, history):
    return json.dumps({"run": name, "checksum": model.checksum(), "steps": history.steps},
                      sort_keys=True)


def main():
    train, evals = D.generate_dataset(n=120, seed=4)
    evals = evals[:16]

    def eval_fn(m):
        return E.evaluate(m, evals).avg

    lines = []
    teacher = M.init(M.ModelConfig(), seed=5)
    history = R.train_teacher(teacher, train, R.TeacherConfig(steps=120, batch_size=8, seed=0),
                              eval_fn=eval_fn, eval_every=10)
    lines.append(line("teacher", teacher, history))

    pruned = teacher.copy()
    groups = I.build_dependency_groups(pruned)
    I.taylor_group_importance(pruned, groups, D.draw_calibration(train, n=4, seed=0))
    P.execute(pruned, P.plan("widthwise", I.group_report(pruned, groups), 0.2))
    for seed, (name, overrides) in enumerate(RECOVERY_RUNS.items()):
        student = pruned.copy()
        cfg = R.RecoveryConfig(**{"lr": 0.02, "steps": 25, "batch_size": 4, "seed": seed,
                                  **overrides})
        history = R.train(student, teacher, train, cfg, eval_fn=eval_fn)
        lines.append(line(name, student, history))

    for text in lines:
        print(text)
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
