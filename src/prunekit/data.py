"""Synthetic multimodal tasks, dataset generation and dataset files.

Three single-answer tasks share one vocabulary:

* visual-lookup — the descriptor's slot section one-hot-encodes one of 32
  answer tokens; the response copies that token. Unanswerable without the
  projector pathway.
* visual-count — the descriptor's marker section holds 8 components at +1
  (marked) or -1 (unmarked); the response is the count token (0..8). The
  bipolar encoding keeps the descriptor norm constant, so the count survives
  the decoder's RMS normalization as a linear functional of direction.
* prompt-echo — pure-language control: the response repeats the prompt
  payload. Echo descriptors carry a random marker pattern with the same
  statistics as visual-count, so the visual stream is active but irrelevant.

A task is one `_TASKS` entry; sampling, `make_item`, loading and
`answer_support` read only that entry. An item is implied by its task and
meta (slot/markers/payload): `make_item` builds its descriptor, prompt and
answer from them. Dataset files store only those two fields per record, which
keeps them small, human-readable and byte-stable; a loaded item is rebuilt
the same way as a sampled one.
"""

from __future__ import annotations

import json
from collections import namedtuple

import numpy as np

from .model import Triplet
from .tensor import ParameterError

N_ANSWERS = 32
N_MARKERS = 8

LOOKUP_MARKER = N_ANSWERS
COUNT_MARKER = N_ANSWERS + 1
ECHO_MARKER = N_ANSWERS + 2

DESCRIPTOR_DIM = N_ANSWERS + N_MARKERS

# A task: its prompt marker; its meta fields -> id range, in sampling order (`markers`
# lists distinct ids); its number of answer tokens; the meta field that is its answer
# (for `markers`, their number).
_Task = namedtuple("_Task", "marker fields n_answers answer")
_TASKS = {
    "visual-lookup": _Task(LOOKUP_MARKER, {"slot": N_ANSWERS}, N_ANSWERS, "slot"),
    "visual-count": _Task(COUNT_MARKER, {"markers": N_MARKERS}, N_MARKERS + 1, "markers"),
    "prompt-echo": _Task(ECHO_MARKER, {"payload": N_ANSWERS, "markers": N_MARKERS}, N_ANSWERS,
                         "payload"),
}
TASKS = tuple(_TASKS)


def _task(task):
    if isinstance(task, str) and task in _TASKS:
        return _TASKS[task]
    raise ParameterError(f"unknown task {task!r}")


def answer_support(task):
    """Token ids a correct answer can take, per task."""
    return tuple(range(_task(task).n_answers))


def _marker_section(markers):
    x = np.full(N_MARKERS, -1.0, dtype=np.float32)
    for m in markers:
        x[int(m)] = 1.0
    return x


def make_item(task, meta):
    """The Triplet that `task` and `meta` imply. A `slot` is the descriptor's
    one-hot answer section and `markers` its bipolar marker section; a
    `payload` follows the prompt marker."""
    spec = _task(task)
    x_v = np.zeros(DESCRIPTOR_DIM, dtype=np.float32)
    if "slot" in spec.fields:
        x_v[int(meta["slot"])] = 1.0
    if "markers" in spec.fields:
        x_v[N_ANSWERS:] = _marker_section(meta["markers"])
    prompt = (spec.marker, int(meta["payload"])) if "payload" in spec.fields else (spec.marker,)
    x_r = (len(meta["markers"]) if spec.answer == "markers" else int(meta[spec.answer]),)
    return Triplet(x_v=x_v, x_p=prompt, x_r=x_r, task=task, meta=meta)


def _sample_meta(fields, rng):
    meta = {}
    for key, n in fields.items():  # the table's order is the draw order
        if key == "markers":
            count = int(rng.integers(0, n + 1))
            meta[key] = sorted(rng.choice(n, size=count, replace=False).tolist())
        else:
            meta[key] = int(rng.integers(0, n))
    return meta


def generate_dataset(task_mix=TASKS, n=1920, seed=0, eval_fraction=0.2):
    """Draw n items split evenly over the task mix; returns (train, eval) pools.

    The split is index-disjoint and deterministic under the seed. Small task
    spaces (prompt-echo has 32 distinct payloads) necessarily repeat content.
    """
    if n < 10:
        raise ParameterError(f"dataset size must be >= 10, got {n}")
    if not task_mix:
        raise ParameterError("task mix must be nonempty")
    fields = {task: _task(task).fields for task in task_mix}
    rng = np.random.default_rng(seed)
    per_task = n // len(task_mix)
    n_eval = max(1, int(round(per_task * eval_fraction))) if 0 < eval_fraction < 1 else per_task
    if n_eval >= per_task:
        raise ParameterError(f"eval_fraction {eval_fraction} must be in (0, 1) and leave "
                             f"each task at least one of its {per_task} items for training")
    train, evals = [], []
    for task in task_mix:
        items = [make_item(task, _sample_meta(fields[task], rng)) for _ in range(per_task)]
        evals.extend(items[:n_eval])
        train.extend(items[n_eval:])
    return train, evals


def _record_to_item(rec, where):
    """The Triplet of one dataset record, built from its task and meta alone
    (any other key is ignored); ParameterError names `where` and its first
    bad field."""
    task = rec.get("task") if isinstance(rec, dict) else None
    if task not in TASKS:
        raise ParameterError(f"{where}: unknown task {task!r}")
    meta = rec["meta"] if isinstance(rec.get("meta"), dict) else {}
    for key, n in _TASKS[task].fields.items():
        ids = meta.get(key) if key == "markers" else [meta.get(key)]  # markers: distinct ids
        if not (isinstance(ids, list) and all(type(v) is int and 0 <= v < n for v in ids)
                and len(set(ids)) == len(ids)):
            raise ParameterError(f"{where}: meta field {key!r} is missing or invalid")
    return make_item(task, meta)


def save_dataset(path, train, evals, seed=None):
    payload = {
        "version": 2,
        "seed": seed,
        "descriptor_dim": DESCRIPTOR_DIM,
        "train": [{"task": it.task, "meta": it.meta} for it in train],
        "eval": [{"task": it.task, "meta": it.meta} for it in evals],
    }
    write_jsonl(path, [payload])


def decode(path, what, blob=None, as_json=True):
    """The file at `path` (or its bytes `blob`) as UTF-8 text, parsed as JSON
    when `as_json`. Every input file is read here. Bytes that do not decode
    raise ParameterError "<path>: malformed <what> (...)"; a path that cannot
    be opened raises its OSError."""
    if blob is None:
        with open(path, "rb") as f:
            blob = f.read()
    try:
        text = blob.decode("utf-8")
        return json.loads(text) if as_json else text
    except ValueError as exc:  # bytes that are not UTF-8, or text that is not JSON
        raise ParameterError(f"{path}: malformed {what} ({exc})") from exc


def encode(payload):
    """The canonical JSON text of `payload`: sorted keys, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_jsonl(path, records):
    """Write each record as one line of `encode(record)` in UTF-8. Every
    output file but a checkpoint and a CSV is written here; a file holding
    one object is a one-record call."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(encode(record) + "\n" for record in records)


def load_dataset(path):
    payload = decode(path, "dataset")
    if not (isinstance(payload, dict)
            and all(isinstance(payload.get(pool), list) for pool in ("train", "eval"))):
        raise ParameterError(f"{path}: dataset needs a 'train' and an 'eval' item list")
    if payload.get("descriptor_dim") != DESCRIPTOR_DIM:
        raise ParameterError(
            f"{path}: dataset descriptor width {payload.get('descriptor_dim')} does not "
            f"match this build's {DESCRIPTOR_DIM}")
    return tuple([_record_to_item(rec, f"{path}: {pool} record {i}")
                  for i, rec in enumerate(payload[pool])] for pool in ("train", "eval"))


def draw_calibration(pool, n=10, seed=0):
    """Seeded calibration subset of the training pool (default 10 samples)."""
    if n < 1:
        raise ParameterError("calibration size must be >= 1")
    if n > len(pool):
        raise ParameterError(f"calibration size {n} exceeds pool of {len(pool)}")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(pool))[:n]
    return [pool[i] for i in sorted(idx)]
