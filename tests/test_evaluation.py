"""Evaluation: chance-level bounds, AVG-% conventions, report emission."""

import csv
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from prunekit import data as D
from prunekit import evaluation as E
from prunekit import model as M
from prunekit.model import ModelConfig
from prunekit.tensor import ParameterError

from conftest import quick_sgd


def binomial_3sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


def test_random_model_scores_chance_on_lookup(rng):
    model = M.init(ModelConfig(), seed=19)
    for _, p in model.named_parameters():
        if p.data.ndim == 2:
            p.data = (rng.standard_normal(p.data.shape) * 0.05).astype(np.float32)
    _, evals = D.generate_dataset(n=3000, seed=8)
    lookup = [it for it in evals if it.task == "visual-lookup"]
    rep = E.evaluate(model, lookup)
    p = 1 / 32
    assert abs(rep.per_task["visual-lookup"] - p) <= binomial_3sigma(p, len(lookup))


def test_zeroed_projector_scores_chance_on_visual_tasks():
    model = M.init(ModelConfig(), seed=4)
    train, evals = D.generate_dataset(n=3000, seed=9)
    quick_sgd(model, train, steps=150, lr=0.1)
    for t in (model.proj_w1, model.proj_b1, model.proj_w2, model.proj_b2):
        t.data[...] = 0.0
    rep = E.evaluate(model, evals)
    n = len(evals) // 3
    for task, p in (("visual-lookup", 1 / 32), ("visual-count", 1 / 9)):
        assert abs(rep.per_task[task] - p) <= binomial_3sigma(p, n), task


def test_reference_against_itself_is_100():
    model = M.init(ModelConfig(), seed=0)
    train, evals = D.generate_dataset(n=120, seed=0)
    quick_sgd(model, train, steps=80, lr=0.1)
    ref = E.evaluate(model, evals, label="ref")
    rep = E.evaluate(model, evals, reference_report=ref, label="same")
    assert rep.avg_pct == 100.0
    assert rep.reference == "ref"


def test_avg_pct_is_mean_of_ratios():
    ref = E.EvalReport(per_task={"a": 0.8, "b": 0.5}, counts={"a": 10, "b": 10},
                       avg=0.65, label="ref")
    student = E.EvalReport(per_task={"a": 0.4, "b": 0.5}, counts={"a": 10, "b": 10},
                           avg=0.45)

    class FakeModel:
        pass

    # direct computation: (0.4/0.8 + 0.5/0.5)/2 = 0.75 -> 75%
    ratios = [0.4 / 0.8, 0.5 / 0.5]
    assert abs(100 * np.mean(ratios) - 75.0) < 1e-12


def test_eval_determinism():
    model = M.init(ModelConfig(), seed=2)
    _, evals = D.generate_dataset(n=120, seed=3)
    r1 = E.evaluate(model, evals)
    r2 = E.evaluate(model, evals)
    assert r1.per_task == r2.per_task and r1.avg == r2.avg


def test_zero_reference_accuracy_rejected():
    ref = E.EvalReport(per_task={"visual-lookup": 0.0}, counts={"visual-lookup": 4},
                       avg=0.0, label="ref")
    model = M.init(ModelConfig(), seed=0)
    _, evals = D.generate_dataset(n=30, seed=0)
    lookup = [it for it in evals if it.task == "visual-lookup"]
    with pytest.raises(ParameterError):
        E.evaluate(model, lookup, reference_report=ref)


def test_empty_pool_rejected():
    model = M.init(ModelConfig(), seed=0)
    with pytest.raises(ParameterError):
        E.evaluate(model, [])


def test_report_save_load_roundtrip(tmp_path):
    rep = E.EvalReport(per_task={"x": 0.5}, counts={"x": 8}, avg=0.5, avg_pct=80.0,
                       reference="teacher", label="student", ratio=0.3,
                       strategy="widthwise+ft")
    path = tmp_path / "r.json"
    E.save_report(path, rep)
    assert E.load_report(path) == rep
    assert path.read_text(encoding="utf-8") == D.encode(asdict(rep)) + "\n"


def test_emit_report_contains_tuple_per_run(tmp_path):
    reports = [
        E.EvalReport(label="a", ratio=0.15, strategy="width", avg=0.9, avg_pct=95.0,
                     per_task={"visual-lookup": 0.9}, counts={}),
        E.EvalReport(label="b", ratio=0.30, strategy="width", avg=0.8, avg_pct=85.0,
                     per_task={"visual-lookup": 0.8}, counts={}),
    ]
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    rows = E.emit_report(reports, csv_path, json_path)
    assert len(rows) == 2
    with open(csv_path) as f:
        parsed = list(csv.DictReader(f))
    assert len(parsed) == 2
    assert {r["ratio"] for r in parsed} == {"0.15", "0.3"}
    with open(json_path) as f:
        assert len(json.load(f)["runs"]) == 2


def test_emit_report_byte_deterministic(tmp_path):
    reports = [E.EvalReport(label="a", ratio=0.15, strategy="w", avg=0.9, avg_pct=95.0,
                            per_task={"visual-lookup": 0.9, "visual-count": 0.95}, counts={})]
    p1c, p1j = tmp_path / "1.csv", tmp_path / "1.json"
    p2c, p2j = tmp_path / "2.csv", tmp_path / "2.json"
    E.emit_report(reports, p1c, p1j)
    E.emit_report(reports, p2c, p2j)
    assert p1c.read_bytes() == p2c.read_bytes()
    assert p1j.read_bytes() == p2j.read_bytes()
