"""Metric definitions and their derivation from job results and spans.

End-to-end metrics come from untraced runs. Per-layer metrics come from the
traced run: counts and times from spans of the timed phase, averaged per
traced job, except the `data` and `checkpoint` layers, whose work is mostly
set-up and which also count the one traced set-up. Evaluation latency is
taken from the untraced jobs of the traced run, because a wrapper on every
tensor op inflates op-heavy models more than others.
"""

from __future__ import annotations

import statistics

import numpy as np

ALL = ("teacher-train", "distill", "compress")
TRAINING = ("teacher-train", "distill")

# name -> (unit, better, workloads it is defined on)
END_TO_END = {
    "setup_s": ("s", "lower", ALL),
    "wall_s": ("s", "lower", ALL),
    "train_samples_per_s": ("1/s", "higher", TRAINING),
    "train_step_ms_p50": ("ms", "lower", TRAINING),
    "train_step_ms_p95": ("ms", "lower", TRAINING),
    "score_s": ("s", "lower", ("compress",)),
    "eval_items_per_s": ("1/s", "higher", ALL),
    "final_loss": ("loss", "lower", TRAINING),
    "eval_avg": ("fraction", "higher", ALL),
    "peak_rss_mb": ("MB", "lower", ALL),
    "error_rate": ("fraction", "lower", ALL),
}

# The result line carries the metrics that are defined on every workload, are
# never zero and do not move with the seed; the others are printed only.
RESULT_END_TO_END = ("setup_s", "wall_s", "eval_avg", "peak_rss_mb")

OPS = ("linear", "matmul", "rope", "causal_attention", "rms_norm", "gelu", "add", "scale",
       "embedding_lookup", "concat_rows", "slice_rows", "cross_entropy", "log_softmax")
# Ops that teacher-train or compress never call: their times are printed only.
_SOME_WORKLOADS_OPS = ("matmul", "scale", "log_softmax")

# name -> (unit, better, in the result line)
PER_LAYER = {"tensor.op_calls_per_sample": ("count", "lower", True)}
for _op in OPS:
    PER_LAYER[f"tensor.op_calls.{_op}"] = ("count", "lower", True)
    PER_LAYER[f"tensor.op_ms.{_op}"] = ("ms", "lower", _op not in _SOME_WORKLOADS_OPS)
PER_LAYER.update({
    "tensor.backward_calls": ("count", "lower", True),
    "tensor.backward_ms": ("ms", "lower", True),
    "model.forward_calls": ("count", "lower", True),
    "model.forward_ms": ("ms", "lower", True),
    "model.forward_self_ms": ("ms", "lower", True),
    "model.teacher_forwards_per_distinct_item": ("ratio", "lower", True),
    "recovery.train_self_ms": ("ms", "lower", False),
    "recovery.train_teacher_self_ms": ("ms", "lower", False),
    "recovery.kd_logits_loss_ms": ("ms", "lower", False),
    "recovery.hidden_match_loss_ms": ("ms", "lower", False),
    "recovery.sgd_step_ms": ("ms", "lower", False),
    "recovery.steps": ("count", "higher", True),
    "recovery.diverged": ("count", "lower", True),
    "importance.block_influence_ms": ("ms", "lower", False),
    "importance.taylor_ms": ("ms", "lower", False),
    "importance.taylor_self_ms": ("ms", "lower", False),
    "importance.groups_scored": ("count", "higher", True),
    "pruning.plan_ms": ("ms", "lower", False),
    "pruning.execute_ms": ("ms", "lower", False),
    "pruning.params_removed": ("count", "higher", True),
    "checkpoint.save_ms": ("ms", "lower", False),
    "checkpoint.load_ms": ("ms", "lower", False),
    "checkpoint.bytes": ("count", "lower", True),
    "data.generate_dataset_ms": ("ms", "lower", True),
    "data.draw_calibration_ms": ("ms", "lower", False),
    "accounting.mflops_per_item": ("MFLOP", "lower", True),
    "evaluation.us_per_item": ("us", "lower", True),
    "evaluation.mflops_per_s": ("MFLOP/s", "higher", True),
    "trace.overhead_pct": ("%", "lower", True),
})

# Also reported per evaluated model, as "<name>.<label>": the width-versus-depth
# table on compress.
PER_MODEL = ("accounting.mflops_per_item", "evaluation.us_per_item", "evaluation.mflops_per_s")


def layer_spec(name):
    """(unit, better, in the result line) of a per-layer or per-model metric."""
    if name in PER_LAYER:
        return PER_LAYER[name]
    base = next(b for b in PER_MODEL if name.startswith(b + "."))
    unit, better, _ = PER_LAYER[base]
    return unit, better, False


def model_labels(workload):
    if workload == "compress":
        return ("teacher",) + tuple(f"{m}-{r}" for m in ("layerwise", "widthwise")
                                    for r in (0.2, 0.4, 0.6))
    return ("distilled",) if workload == "distill" else ("teacher",)


def end_to_end(workload, setup_s, results, checks, peak_rss_mb):
    """{name: (value, sample count or None)} for the metrics defined on the workload."""
    out = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "wall_s": (statistics.median(r.wall_s for r in results), len(results)),
        "eval_items_per_s": (sum(e.items for r in results for e in r.evals)
                             / sum(e.seconds for r in results for e in r.evals), None),
        "eval_avg": (statistics.median(r.eval_avg for r in results), len(results)),
        "peak_rss_mb": (peak_rss_mb, None),
        "error_rate": (checks.failed / max(1, checks.attempted), checks.attempted),
    }
    if workload in TRAINING:
        steps = np.concatenate([r.step_ms for r in results])
        out["train_samples_per_s"] = (sum(r.train_samples for r in results)
                                      / sum(r.train_s for r in results), None)
        out["train_step_ms_p50"] = (float(np.percentile(steps, 50)), len(steps))
        out["train_step_ms_p95"] = (float(np.percentile(steps, 95)), len(steps))
        out["final_loss"] = (results[-1].final_loss, None)
    if workload == "compress":
        out["score_s"] = (statistics.median(r.score_s for r in results), len(results))
    return out


def eval_rows(records):
    """Per-label (MFLOP/item, us/item, MFLOP/s, AVG-%) from EvalRecords, median over repeats."""
    by_label = {}
    for rec in records:
        by_label.setdefault(rec.label, []).append(rec)
    rows = {}
    for label, recs in by_label.items():
        us = statistics.median(1e6 * r.seconds / r.items for r in recs)
        mflops = recs[0].mflops_per_item
        rows[label] = (mflops, us, mflops / us * 1e6, recs[0].avg_pct)
    return rows


def per_layer(tracer, traced, untraced, checks):
    """{name: value} for every PER_LAYER metric plus the per-model table metrics."""
    n = len(traced)
    timed = tracer.layer_totals("timed")
    setup = tracer.layer_totals("setup")

    def get(name, field, phases=(timed,), per_job=True):
        value = sum(p.get(name, (0, 0.0, 0.0))[field] for p in phases)
        return value / n if per_job else value

    def with_setup(name, field):
        return get(name, field) + get(name, field, (setup,), per_job=False)

    out = {}
    op_calls = sum(c for name, (c, _, _) in timed.items()
                   if name.startswith("tensor.") and name != "tensor.backward")
    out["tensor.op_calls_per_sample"] = op_calls / n / traced[0].samples
    for op in OPS:
        out[f"tensor.op_calls.{op}"] = get(f"tensor.{op}", 0)
        out[f"tensor.op_ms.{op}"] = get(f"tensor.{op}", 1)
    out["tensor.backward_calls"] = get("tensor.backward", 0)
    out["tensor.backward_ms"] = get("tensor.backward", 1)
    out["model.forward_calls"] = get("model.forward", 0)
    out["model.forward_ms"] = get("model.forward", 1)
    out["model.forward_self_ms"] = get("model.forward", 2)
    distinct = len(tracer.teacher_items)
    out["model.teacher_forwards_per_distinct_item"] = (
        tracer.teacher_forwards / n / distinct if distinct else 0.0)
    out["recovery.train_self_ms"] = get("recovery.train", 2)
    out["recovery.train_teacher_self_ms"] = get("recovery.train_teacher", 2)
    out["recovery.kd_logits_loss_ms"] = get("recovery.kd_logits_loss", 1)
    out["recovery.hidden_match_loss_ms"] = get("recovery.hidden_match_loss", 1)
    out["recovery.sgd_step_ms"] = get("recovery.sgd.step", 1)
    out["recovery.steps"] = get("recovery.sgd.step", 0)
    out["recovery.diverged"] = checks.diverged
    out["importance.block_influence_ms"] = get("importance.block_influence", 1)
    out["importance.taylor_ms"] = get("importance.taylor_group_importance", 1)
    out["importance.taylor_self_ms"] = get("importance.taylor_group_importance", 2)
    out["importance.groups_scored"] = statistics.median(r.groups_scored for r in traced)
    out["pruning.plan_ms"] = get("pruning.plan", 1)
    out["pruning.execute_ms"] = get("pruning.execute", 1)
    out["pruning.params_removed"] = statistics.median(r.params_removed for r in traced)
    out["checkpoint.save_ms"] = with_setup("checkpoint.save", 1)
    out["checkpoint.load_ms"] = with_setup("checkpoint.load", 1)
    out["checkpoint.bytes"] = statistics.median(r.ckpt_bytes for r in traced)
    out["data.generate_dataset_ms"] = with_setup("data.generate_dataset", 1)
    out["data.draw_calibration_ms"] = with_setup("data.draw_calibration", 1)

    timed_evals = [e for r in untraced for e in r.evals]
    items = sum(e.items for e in timed_evals)
    seconds = sum(e.seconds for e in timed_evals)
    mflop = sum(e.mflops_per_item * e.items for e in timed_evals)
    out["accounting.mflops_per_item"] = mflop / items
    out["evaluation.us_per_item"] = 1e6 * seconds / items
    out["evaluation.mflops_per_s"] = mflop / seconds
    walls = (statistics.median(r.wall_s for r in traced),
             statistics.median(r.wall_s for r in untraced))
    out["trace.overhead_pct"] = 100.0 * (walls[0] / walls[1] - 1.0)

    for label, (mflops, us, rate, _) in eval_rows(timed_evals).items():
        out[f"accounting.mflops_per_item.{label}"] = mflops
        out[f"evaluation.us_per_item.{label}"] = us
        out[f"evaluation.mflops_per_s.{label}"] = rate
    return out
