"""Accuracy evaluation on the synthetic suite and report emission.

Decoding is greedy and constrained to each task's answer-token support, so a
model carrying no visual information scores chance, `1/len(answer_support(task))`
(1/32 on lookup, 1/9 on count), rather than 1/vocab. AVG-% follows the
relative-performance convention: 100 times the mean of per-task accuracy
ratios against a named reference model, whose own AVG-% is therefore exactly 100.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import model as M
from . import tensor as T
from .data import answer_support, decode, write_jsonl
from .tensor import ParameterError


@dataclass
class EvalReport:
    """One evaluation; an eval-report file holds exactly these fields.
    `ratio` and `strategy` describe the evaluated checkpoint."""
    per_task: dict
    counts: dict
    avg: float
    avg_pct: float | None = None
    reference: str | None = None
    label: str = "model"
    ratio: float = 0.0
    strategy: str = "none"


def predict_answer(model, items):
    """Greedy answer tokens, one per item, each an argmax restricted to the
    item's answer support. Items are one Triplet or a list sharing one token
    layout; the result is a list either way."""
    with T.no_grad():
        trace = M.forward(model, items, capture=None)
        logits = M.response_rows(trace, trace.logits).data
    rows = logits.reshape(trace.n_items, -1, logits.shape[1])[:, 0]
    tasks = [item.task for item in M.as_items(items)]
    answers = [None] * len(tasks)
    for task in dict.fromkeys(tasks):  # one argmax per task; ties go to the first index
        idx = [i for i, t in enumerate(tasks) if t == task]
        support = list(answer_support(task))
        for i, j in zip(idx, np.argmax(rows[np.ix_(idx, support)], axis=1)):
            answers[i] = support[j]
    return answers


def evaluate(model, eval_pool, reference_report=None, label="model"):
    """Exact-match accuracy per task; AVG-% against the reference when given."""
    if not eval_pool:
        raise ParameterError("evaluate: empty eval pool")
    hits, totals = {}, {}
    for idx in M.layout_buckets(eval_pool):
        bucket = [eval_pool[i] for i in idx]
        for item, answer in zip(bucket, predict_answer(model, bucket)):
            task = item.task
            totals[task] = totals.get(task, 0) + 1
            if answer == item.x_r[0]:
                hits[task] = hits.get(task, 0) + 1
    per_task = {task: hits.get(task, 0) / totals[task] for task in totals}
    avg = float(np.mean(list(per_task.values())))
    report = EvalReport(per_task=per_task, counts=totals, avg=avg, label=label)
    if reference_report is not None:
        ratios = []
        for task, acc in per_task.items():
            ref = reference_report.per_task.get(task)
            if ref is None:
                raise ParameterError(f"reference report lacks task {task!r}")
            if ref <= 0:
                raise ParameterError(f"reference accuracy for {task!r} is zero")
            ratios.append(acc / ref)
        report.avg_pct = 100.0 * float(np.mean(ratios))
        report.reference = reference_report.label
    return report


def save_report(path, report):
    write_jsonl(path, [asdict(report)])


# the types each optional field may take
_FIELD_TYPES = {"avg_pct": (int, float, type(None)), "reference": (str, type(None)),
                "label": (str,), "ratio": (int, float), "strategy": (str,)}


def check_field_types(path, what, payload):
    """Raise ParameterError naming `path` and the first optional EvalReport
    field of the dict `payload` (a `what`) whose value has the wrong type."""
    for key, types in _FIELD_TYPES.items():
        if key in payload and type(payload[key]) not in types:
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ParameterError(f"{path}: {what} {key!r} must be of type {names}, "
                                 f"got {payload[key]!r}")


def load_report(path):
    """The EvalReport of an eval-report file; unknown keys are ignored."""
    payload = decode(path, "eval report")
    if not (isinstance(payload, dict) and isinstance(payload.get("per_task"), dict)
            and isinstance(payload.get("counts"), dict)
            and all(type(v) in (int, float) for v in (payload.get("avg"),
                                                      *payload["per_task"].values()))):
        raise ParameterError(f"{path}: not an eval report (needs an object 'per_task' "
                             f"of numbers, an object 'counts' and a number 'avg')")
    check_field_types(path, "eval report", payload)
    return EvalReport(**{f.name: payload[f.name] for f in fields(EvalReport)
                         if f.name in payload})


def emit_report(reports, csv_path, json_path):
    """Aggregate (ratio, strategy, AVG-%) rows from EvalReports into
    plot-ready CSV plus a JSON variant."""
    rows = [{"label": r.label, "ratio": r.ratio, "strategy": r.strategy, "avg": r.avg,
             "avg_pct": r.avg_pct, **{f"acc_{k}": v for k, v in sorted(r.per_task.items())}}
            for r in reports]
    rows.sort(key=lambda r: (r["strategy"], r["ratio"], r["label"]))
    fieldnames = sorted({k for r in rows for k in r}, key=lambda k: (k != "label", k))
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
    write_jsonl(json_path, [{"runs": rows}])
    return rows
