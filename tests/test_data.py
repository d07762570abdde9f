"""Dataset generation: determinism, answer audit, label balance, file round-trip."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from prunekit import data as D
from prunekit.tensor import ParameterError


def test_same_seed_identical_pools():
    a_train, a_eval = D.generate_dataset(n=120, seed=9)
    b_train, b_eval = D.generate_dataset(n=120, seed=9)
    assert len(a_train) == len(b_train) and len(a_eval) == len(b_eval)
    for x, y in zip(a_train + a_eval, b_train + b_eval):
        assert x.task == y.task and x.x_p == y.x_p and x.x_r == y.x_r
        assert np.array_equal(x.x_v, y.x_v)


def test_different_seed_differs():
    a, _ = D.generate_dataset(n=120, seed=1)
    b, _ = D.generate_dataset(n=120, seed=2)
    assert any(x.x_r != y.x_r or not np.array_equal(x.x_v, y.x_v) for x, y in zip(a, b))


def _assert_item_means_its_task(item):
    """Each task's meaning, read from the item alone: the answer section is
    the descriptor's first N_ANSWERS entries, the marker section the rest."""
    answer_section, marker_section = item.x_v[:D.N_ANSWERS], item.x_v[D.N_ANSWERS:]
    assert item.x_v.shape == (D.DESCRIPTOR_DIM,) and len(item.x_r) == 1
    if item.task == "visual-lookup":
        assert item.x_p == (D.LOOKUP_MARKER,)
        assert np.array_equal(answer_section, np.eye(D.N_ANSWERS)[item.x_r[0]])
        assert not marker_section.any()
        return
    assert set(np.unique(marker_section)) <= {-1.0, 1.0} and not answer_section.any()
    if item.task == "visual-count":
        assert item.x_p == (D.COUNT_MARKER,)
        assert item.x_r[0] == int((marker_section == 1.0).sum())
    else:
        assert item.task == "prompt-echo"
        assert item.x_p == (D.ECHO_MARKER, item.x_r[0])


def test_answer_determinism_audit(tmp_path):
    train, evals = D.generate_dataset(n=300, seed=3)
    path = tmp_path / "d.json"
    D.save_dataset(path, train, evals, seed=3)
    loaded_train, loaded_evals = D.load_dataset(path)
    assert len(loaded_train + loaded_evals) == 300
    for item in train + evals + loaded_train + loaded_evals:
        _assert_item_means_its_task(item)


def test_train_eval_split_disjoint_and_sized():
    train, evals = D.generate_dataset(n=300, seed=0, eval_fraction=0.2)
    assert len(train) + len(evals) == 300
    assert len(evals) == 3 * 20


def test_label_distribution_uniform_chi2():
    train, evals = D.generate_dataset(n=4800, seed=17)
    pool = train + evals
    for task in D.TASKS:
        answers = [it.x_r[0] for it in pool if it.task == task]
        support = D.answer_support(task)
        counts = [answers.count(tok) for tok in support]
        p = stats.chisquare(counts).pvalue
        assert p > 0.01, f"{task}: answer distribution not uniform (p={p:.4f})"


def test_answers_inside_support():
    train, evals = D.generate_dataset(n=300, seed=5)
    for it in train + evals:
        assert it.x_r[0] in D.answer_support(it.task)


def test_echo_descriptor_statistics_match_count():
    train, _ = D.generate_dataset(n=600, seed=11)
    echo = [it for it in train if it.task == "prompt-echo"]
    marker_cols = np.stack([it.x_v[D.N_ANSWERS:] for it in echo])
    assert set(np.unique(marker_cols)) == {-1.0, 1.0}


def test_size_validation():
    with pytest.raises(ParameterError):
        D.generate_dataset(n=9)
    with pytest.raises(ParameterError):
        D.generate_dataset(task_mix=("bogus",), n=100)
    with pytest.raises(ParameterError, match="unknown task 'bogus'"):
        D.make_item("bogus", {})
    with pytest.raises(ParameterError, match="unknown task 'bogus'"):
        D.answer_support("bogus")


@pytest.mark.parametrize("fraction", [0.0, -0.2, 0.99, 1.0, 1.5])
def test_eval_fraction_must_leave_every_task_a_training_item(fraction):
    with pytest.raises(ParameterError, match="eval_fraction"):
        D.generate_dataset(n=30, seed=0, eval_fraction=fraction)
    train, evals = D.generate_dataset(n=30, seed=0, eval_fraction=0.9)
    assert (len(train), len(evals)) == (3, 27)


def test_dataset_file_roundtrip_and_byte_stability(tmp_path):
    train, evals = D.generate_dataset(n=120, seed=4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    D.save_dataset(p1, train, evals, seed=4)
    D.save_dataset(p2, train, evals, seed=4)
    assert p1.read_bytes() == p2.read_bytes()
    # the task table's field order is the RNG draw order; these bytes pin it
    assert hashlib.sha256(p1.read_bytes()).hexdigest() == (
        "3282e91a462359843f8124c8680e876ad714a5a67dafec9a02182cad6c60b273")
    t2, e2 = D.load_dataset(p1)
    assert len(t2) == len(train) and len(e2) == len(evals)
    for a, b in zip(train + evals, t2 + e2):
        assert a.task == b.task and a.x_p == b.x_p and a.x_r == b.x_r
        assert np.array_equal(a.x_v, b.x_v)
    records = [[{"task": it.task, "meta": it.meta} for it in pool] for pool in (train, evals)]
    payload = {"version": 2, "seed": 4, "descriptor_dim": D.DESCRIPTOR_DIM,
               "train": records[0], "eval": records[1]}
    assert D.decode(p1, "dataset") == payload
    assert p1.read_text(encoding="utf-8") == D.encode(payload) + "\n"


def test_version_1_record_loads_as_the_item_its_task_and_meta_imply(tmp_path):
    """A version-1 file stores prompt and response beside task and meta; the
    loader ignores the two, so a stored response that disagrees with the meta
    (two tokens, one outside the answer support) loads as the implied answer."""
    train, evals = D.generate_dataset(n=30, seed=2)
    item = next(it for it in evals if it.task == "visual-lookup")
    records = [[{"task": it.task, "meta": it.meta, "prompt": list(it.x_p),
                 "response": list(it.x_r)} for it in pool] for pool in (train, evals)]
    i = evals.index(item)
    records[1][i]["prompt"], records[1][i]["response"] = [0, 1, 2], [item.x_r[0] + 1, 40]
    path = tmp_path / "v1.json"
    D.write_jsonl(path, [{"version": 1, "seed": 2, "descriptor_dim": D.DESCRIPTOR_DIM,
                          "train": records[0], "eval": records[1]}])
    loaded = D.load_dataset(path)[1][i]
    assert (loaded.x_p, loaded.x_r) == ((D.LOOKUP_MARKER,), (item.meta["slot"],))
    assert (loaded.x_p, loaded.x_r) == (item.x_p, item.x_r)


def test_write_jsonl_writes_one_decodable_line_per_record(tmp_path):
    records = [{"step": 0, "total": 0.1, "eval_metric": None},
               {"victim": "layer1.mlp-channel.7", "params_removed": 128},
               {"nested": {"b": [1, 2.5], "a": "\u00e9"}}]
    path = tmp_path / "r.jsonl"
    D.write_jsonl(path, records)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[-1] == "" and len(lines[:-1]) == 3
    assert [D.decode(path, "line", line.encode("utf-8")) for line in lines[:-1]] == records
    assert lines[2] == '{"nested":{"a":"\\u00e9","b":[1,2.5]}}'


def test_calibration_draw_deterministic_and_default_size():
    train, _ = D.generate_dataset(n=300, seed=0)
    c1 = D.draw_calibration(train, seed=5)
    c2 = D.draw_calibration(train, seed=5)
    assert len(c1) == 10
    assert all(a is b for a, b in zip(c1, c2))
    c3 = D.draw_calibration(train, seed=6)
    assert any(a is not b for a, b in zip(c1, c3))
