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

An item is implied by its task and meta (slot/markers/payload): `make_item`
builds its descriptor, prompt and answer from them. Dataset files store
only those two fields per record, which keeps them small, human-readable and
byte-stable; a loaded item is rebuilt the same way as a sampled one.
"""

from __future__ import annotations

import json

import numpy as np

from .model import Triplet
from .tensor import ParameterError

N_ANSWERS = 32
N_MARKERS = 8

LOOKUP_MARKER = N_ANSWERS
COUNT_MARKER = N_ANSWERS + 1
ECHO_MARKER = N_ANSWERS + 2

DESCRIPTOR_DIM = N_ANSWERS + N_MARKERS

TASKS = ("visual-lookup", "visual-count", "prompt-echo")


def answer_support(task):
    """Token ids a correct answer can take, per task."""
    if task in ("visual-lookup", "prompt-echo"):
        return tuple(range(N_ANSWERS))
    if task == "visual-count":
        return tuple(range(N_MARKERS + 1))
    raise ParameterError(f"unknown task {task!r}")


def _marker_section(markers):
    x = np.full(N_MARKERS, -1.0, dtype=np.float32)
    for m in markers:
        x[int(m)] = 1.0
    return x


def encode_descriptor(task, meta):
    """Rebuild the synthetic image descriptor from an item's semantic fields."""
    x = np.zeros(DESCRIPTOR_DIM, dtype=np.float32)
    if task == "visual-lookup":
        x[int(meta["slot"])] = 1.0
    elif task == "visual-count" or task == "prompt-echo":
        x[N_ANSWERS:] = _marker_section(meta["markers"])
    else:
        raise ParameterError(f"unknown task {task!r}")
    return x


def expected_answer(task, meta):
    """The unique correct answer token implied by (descriptor, prompt) semantics."""
    if task == "visual-lookup":
        return int(meta["slot"])
    if task == "visual-count":
        return len(meta["markers"])
    if task == "prompt-echo":
        return int(meta["payload"])
    raise ParameterError(f"unknown task {task!r}")


def _sample_markers(rng):
    count = int(rng.integers(0, N_MARKERS + 1))
    return sorted(int(m) for m in rng.choice(N_MARKERS, size=count, replace=False))


def make_item(task, meta):
    """The Triplet that `task` and `meta` imply: descriptor, prompt and answer."""
    if task == "visual-lookup":
        prompt = (LOOKUP_MARKER,)
    elif task == "visual-count":
        prompt = (COUNT_MARKER,)
    elif task == "prompt-echo":
        prompt = (ECHO_MARKER, int(meta["payload"]))
    else:
        raise ParameterError(f"unknown task {task!r}")
    return Triplet(x_v=encode_descriptor(task, meta), x_p=prompt,
                   x_r=(expected_answer(task, meta),), task=task, meta=meta)


def _sample_item(task, rng):
    if task == "visual-lookup":
        meta = {"slot": int(rng.integers(0, N_ANSWERS))}
    elif task == "visual-count":
        meta = {"markers": _sample_markers(rng)}
    elif task == "prompt-echo":
        meta = {"payload": int(rng.integers(0, N_ANSWERS)), "markers": _sample_markers(rng)}
    else:
        raise ParameterError(f"unknown task {task!r}")
    return make_item(task, meta)


def generate_dataset(task_mix=TASKS, n=1920, seed=0, eval_fraction=0.2):
    """Draw n items split evenly over the task mix; returns (train, eval) pools.

    The split is index-disjoint and deterministic under the seed. Small task
    spaces (prompt-echo has 32 distinct payloads) necessarily repeat content.
    """
    if n < 10:
        raise ParameterError(f"dataset size must be >= 10, got {n}")
    if not task_mix:
        raise ParameterError("task mix must be nonempty")
    for task in task_mix:
        if task not in TASKS:
            raise ParameterError(f"unknown task {task!r}")
    rng = np.random.default_rng(seed)
    per_task = n // len(task_mix)
    n_eval = max(1, int(round(per_task * eval_fraction))) if 0 < eval_fraction < 1 else per_task
    if n_eval >= per_task:
        raise ParameterError(f"eval_fraction {eval_fraction} must be in (0, 1) and leave "
                             f"each task at least one of its {per_task} items for training")
    train, evals = [], []
    for task in task_mix:
        items = [_sample_item(task, rng) for _ in range(per_task)]
        evals.extend(items[:n_eval])
        train.extend(items[n_eval:])
    return train, evals


# per task, the meta fields its descriptor and answer are rebuilt from, with their id range
_META_FIELDS = {"visual-lookup": {"slot": N_ANSWERS}, "visual-count": {"markers": N_MARKERS},
                "prompt-echo": {"payload": N_ANSWERS, "markers": N_MARKERS}}


def _record_to_item(rec, where):
    """The Triplet of one dataset record, built from its task and meta alone
    (any other key is ignored); ParameterError names `where` and its first
    bad field."""
    task = rec.get("task") if isinstance(rec, dict) else None
    if task not in TASKS:
        raise ParameterError(f"{where}: unknown task {task!r}")
    meta = rec["meta"] if isinstance(rec.get("meta"), dict) else {}
    for key, n in _META_FIELDS[task].items():
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
