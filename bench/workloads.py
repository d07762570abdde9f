"""The benchmark workloads: set-up, one timed job, and the output checks.

Every workload drives prunekit through its public functions, called through
module attributes (`R.train`, `E.evaluate`, ...) so that the tracer in
`tracing.py` sees each call. Randomness comes from the workload seed via
`child_seed(seed, k)`: 0 for the dataset and model init, 1 for calibration
draws, 2 for training order and adapters. The fixture teacher and its dataset
do not follow the workload seed (see `fixture_teacher`); distill and compress
work on that dataset, as a user recovers and evaluates on the data the
teacher was trained on.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from prunekit import accounting as A
from prunekit import checkpoint as C
from prunekit import config as CFG
from prunekit import data as D
from prunekit import evaluation as E
from prunekit import importance as I
from prunekit import model as M
from prunekit import pruning as P
from prunekit import recovery as R
from prunekit import tensor as T
from prunekit.cli import child_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src" / "prunekit"
TOY_INI = ROOT / "configs" / "toy.ini"
FIXTURE_DIR = BENCH_DIR / ".fixture"

# The fixture teacher is trained once per source tree, not once per workload
# seed: at ~2 minutes a build, one per seed would not fit the run budget.
# Recovery on a dataset the teacher never saw diverged on 3 of 30 seeds.
FIXTURE_SEED = 0
DISTILL_RATIO = 0.25
GRID = tuple((mode, ratio) for mode in ("layerwise", "widthwise") for ratio in (0.2, 0.4, 0.6))
ROUNDTRIP_ITEMS = 4

clock = time.perf_counter


@dataclass(frozen=True)
class Budget:
    teacher_steps: int  # teacher-train steps per job (>= 200 keeps 10+ steps beyond p95)
    recovery_steps: int  # distill steps per job
    calib_items: int  # compress calibration draw
    fixture_steps: int | None  # None: the configs/toy.ini teacher step count


BUDGETS = {
    "full": Budget(teacher_steps=200, recovery_steps=300, calib_items=128, fixture_steps=None),
    "smoke": Budget(teacher_steps=8, recovery_steps=6, calib_items=4, fixture_steps=30),
}


@dataclass
class Context:
    seed: int
    budget: Budget
    cfg: dict  # parsed configs/toy.ini
    fixture: Path | None = None
    fixture_record: dict | None = None  # build record, with the teacher's eval
    workdir: Path | None = None


class Checks:
    """Counts checked operations; a failed check or a raised error is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.diverged = 0
        self.messages = []

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    def error(self, what, exc):
        self.attempted += 1
        self.failed += 1
        if isinstance(exc, R.TrainingDivergedError):
            self.diverged += 1
        self.messages.append(f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class EvalRecord:
    label: str
    avg: float
    avg_pct: float | None
    items: int
    seconds: float
    mflops_per_item: float


@dataclass
class JobResult:
    wall_s: float = 0.0
    train_s: float = 0.0
    train_samples: int = 0
    step_ms: list = field(default_factory=list)
    final_loss: float | None = None
    score_s: float | None = None
    evals: list = field(default_factory=list)  # EvalRecord per evaluated model
    eval_avg: float = 0.0  # mean task accuracy of the trained or pruned models
    samples: int = 0  # items through training, scoring and evaluation
    groups_scored: int = 0
    params_removed: int = 0
    ckpt_bytes: int = 0


class StepClock:
    """`eval_fn` hook run after every optimizer step: records step end times."""

    def __init__(self):
        self.marks = [clock()]

    def __call__(self, _model):
        self.marks.append(clock())
        return 0.0

    def step_ms(self):
        return (1e3 * np.diff(self.marks)).tolist()


# ------------------------------------------------------------------- helpers

def dataset(ctx, seed):
    ds = CFG.data_settings(ctx.cfg)
    return D.generate_dataset(task_mix=ds["tasks"], n=ds["n"], seed=child_seed(seed, 0),
                              eval_fraction=ds["eval_fraction"])


def mflops_per_item(model, items):
    shape = A.shape_of(model)
    return float(np.mean([A.estimate_flops(shape, model.config.n_visual_tokens
                                           + len(it.x_p) + len(it.x_r)) for it in items])) / 1e6


def evaluate(model, evals, label, checks, reference=None):
    t0 = clock()
    report = E.evaluate(model, evals, reference_report=reference, label=label)
    seconds = clock() - t0
    checks.check(f"{label}: eval counts cover the pool and accuracies lie in [0, 1]",
                 sum(report.counts.values()) == len(evals)
                 and all(0.0 <= a <= 1.0 for a in report.per_task.values()))
    return report, EvalRecord(label, report.avg, report.avg_pct, len(evals), seconds,
                              mflops_per_item(model, evals))


def check_losses(history, checks, what):
    finite = all(math.isfinite(s[k]) for s in history.steps
                 for k in ("l_sft", "l_logits", "l_match", "total"))
    checks.check(f"{what}: every loss is finite", finite)
    return history.steps[-1]["total"]


def check_scores(values, checks, what):
    checks.check(f"{what}: every importance score is finite",
                 all(v is not None and math.isfinite(v) for v in values))


def prune(model, prune_plan, checks):
    """Execute the plan; check the achieved ratio and the surgery-log total."""
    before = A.decoder_param_count(A.shape_of(model))
    result = P.execute(model, prune_plan)
    after = A.decoder_param_count(A.shape_of(model))
    logged = sum(e["params_removed"] for e in result.surgery_log)
    what = f"{prune_plan.mode}-{prune_plan.target_ratio}"
    checks.check(f"{what}: achieved ratio {result.achieved_ratio:.4f} >= target",
                 result.achieved_ratio >= prune_plan.target_ratio)
    checks.check(f"{what}: surgery log total equals the decoder parameter delta",
                 logged == before - after)
    return logged


def same_logits(a, b, items):
    with T.no_grad():
        return all(np.array_equal(M.forward(a, it, capture=None).logits.data,
                                  M.forward(b, it, capture=None).logits.data)
                   for it in items)


# ------------------------------------------------------------ fixture teacher

def fixture_teacher(ctx, log=print):
    """Path and build record of the fixture teacher, training it if absent.

    It follows the configs/toy.ini teacher settings and is keyed by the source
    tree and the recipe, so a change to the package retrains it. Users train a
    teacher once and compress it many times, so it is not part of set-up time.
    """
    steps = ctx.budget.fixture_steps or CFG.teacher_config(ctx.cfg).steps
    digest = hashlib.sha256(f"seed={FIXTURE_SEED} steps={steps}\n".encode())
    for path in sorted(SRC_DIR.rglob("*.py")) + [TOY_INI]:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    key = digest.hexdigest()[:16]
    ckpt = FIXTURE_DIR / f"teacher-{key}.ckpt"
    record_path = FIXTURE_DIR / f"teacher-{key}.json"
    if ckpt.exists() and record_path.exists():
        return ckpt, json.loads(record_path.read_text())

    log(f"building fixture teacher {key} ({steps} steps)")
    t0 = clock()
    train, evals = dataset(ctx, FIXTURE_SEED)
    model = M.init(CFG.model_config(ctx.cfg), seed=child_seed(FIXTURE_SEED, 0))
    tcfg = CFG.teacher_config(ctx.cfg, {"steps": steps, "seed": child_seed(FIXTURE_SEED, 2)})
    history = R.train_teacher(model, train, tcfg)
    build_s = clock() - t0
    report = E.evaluate(model, evals, label="teacher")
    record = {"key": key, "seed": FIXTURE_SEED, "steps": steps, "build_s": build_s,
              "final_loss": history.steps[-1]["total"], "eval_avg": report.avg,
              "eval_per_task": report.per_task}
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = FIXTURE_DIR / f".teacher-{key}.{os.getpid()}.tmp"
    C.save(model, tmp, meta={"stage": "teacher", "seed": FIXTURE_SEED})
    os.replace(tmp, ckpt)
    tmp.write_text(json.dumps(record, sort_keys=True) + "\n")
    os.replace(tmp, record_path)
    return ckpt, record


# ----------------------------------------------------------------- workloads
# A set-up function returns the state its job reads; a job returns a JobResult.
# State key "frozen_teacher" names a teacher that recovery only reads.

def setup_teacher_train(ctx, checks):
    train, evals = dataset(ctx, ctx.seed)
    return {"train": train, "evals": evals}


def job_teacher_train(ctx, state, checks):
    res = JobResult()
    tcfg = CFG.teacher_config(ctx.cfg, {"steps": ctx.budget.teacher_steps,
                                        "seed": child_seed(ctx.seed, 2)})
    t0 = clock()
    model = M.init(CFG.model_config(ctx.cfg), seed=child_seed(ctx.seed, 0))
    steps = StepClock()
    history = R.train_teacher(model, state["train"], tcfg, eval_fn=steps, eval_every=1)
    res.train_s = clock() - t0
    _, record = evaluate(model, state["evals"], "teacher", checks)
    res.wall_s = clock() - t0
    res.final_loss = check_losses(history, checks, "teacher-train")
    res.step_ms = steps.step_ms()
    res.train_samples = tcfg.steps * tcfg.batch_size
    res.evals = [record]
    res.eval_avg = record.avg
    res.samples = res.train_samples + record.items
    return res


def _teacher_state(ctx):
    train, evals = dataset(ctx, FIXTURE_SEED)
    teacher, _ = C.load(ctx.fixture)
    return {"train": train, "evals": evals, "teacher": teacher}


def setup_distill(ctx, checks):
    state = _teacher_state(ctx)
    student = state["teacher"].copy()
    calib_size = CFG.prune_settings(ctx.cfg)["calib_size"]
    calib = D.draw_calibration(state["train"], n=calib_size, seed=child_seed(ctx.seed, 1))
    groups = I.build_dependency_groups(student)
    I.taylor_group_importance(student, groups, calib)
    check_scores([g.importance for g in groups], checks, "distill set-up Taylor")
    prune(student, P.plan("widthwise", I.group_report(student, groups), DISTILL_RATIO), checks)
    state["student"] = student
    state["frozen_teacher"] = state["teacher"]
    # The teacher's eval on these same items, recorded when the fixture was built.
    record = ctx.fixture_record
    state["teacher_report"] = E.EvalReport(per_task=record["eval_per_task"], counts={},
                                           avg=record["eval_avg"], label="teacher")
    state["rcfg"] = CFG.recovery_config(ctx.cfg, {
        "alpha": 1.0, "beta": 1.0, "gamma": 1.0, "kd_direction": "rkl", "scope": "joint",
        "data_fraction": 0.05, "lr": 0.02, "batch_size": 8,
        "steps": ctx.budget.recovery_steps, "seed": child_seed(ctx.seed, 2),
        "eval_every": 1})
    return state


def job_distill(ctx, state, checks):
    res = JobResult()
    rcfg = state["rcfg"]
    student = state["student"].copy()
    t0 = clock()
    steps = StepClock()
    history = R.train(student, state["teacher"], state["train"], rcfg, eval_fn=steps)
    res.train_s = clock() - t0
    _, record = evaluate(student, state["evals"], "distilled", checks,
                         reference=state["teacher_report"])
    res.wall_s = clock() - t0
    res.final_loss = check_losses(history, checks, "distill")
    res.step_ms = steps.step_ms()
    res.train_samples = rcfg.steps * rcfg.batch_size
    res.evals = [record]
    res.eval_avg = record.avg
    res.samples = res.train_samples + record.items
    return res


def setup_compress(ctx, checks):
    state = _teacher_state(ctx)
    state["calib"] = D.draw_calibration(state["train"], n=ctx.budget.calib_items,
                                        seed=child_seed(ctx.seed, 1))
    return state


def job_compress(ctx, state, checks):
    res = JobResult()
    teacher, calib, evals = state["teacher"], state["calib"], state["evals"]
    t0 = clock()
    bi = I.block_influence(teacher, calib)
    groups = I.build_dependency_groups(teacher)
    I.taylor_group_importance(teacher, groups, calib)
    res.score_s = clock() - t0
    check_scores(bi.scores, checks, "block influence")
    check_scores([g.importance for g in groups], checks, "Taylor")
    reports = {"layerwise": bi, "widthwise": I.group_report(teacher, groups)}
    teacher_report, record = evaluate(teacher, evals, "teacher", checks)
    res.evals.append(record)
    for mode, ratio in GRID:
        label = f"{mode}-{ratio}"
        pruned = teacher.copy()
        res.params_removed += prune(pruned, P.plan(mode, reports[mode], ratio), checks)
        path = ctx.workdir / f"{label}.ckpt"
        C.save(pruned, path)
        loaded, _ = C.load(path)
        res.ckpt_bytes += path.stat().st_size
        checks.check(f"{label}: checkpoint round trip gives bitwise-identical logits",
                     same_logits(pruned, loaded, evals[:ROUNDTRIP_ITEMS]))
        _, record = evaluate(loaded, evals, label, checks, reference=teacher_report)
        res.evals.append(record)
    res.wall_s = clock() - t0
    res.eval_avg = float(np.mean([r.avg for r in res.evals[1:]]))
    res.groups_scored = len(groups)
    res.samples = (2 * len(calib) + sum(r.items for r in res.evals)
                   + 2 * ROUNDTRIP_ITEMS * len(GRID))
    return res


# name -> (set-up, job). Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    "teacher-train": (setup_teacher_train, job_teacher_train),
    "distill": (setup_distill, job_distill),
    "compress": (setup_compress, job_compress),
}
