"""Span tracing of prunekit's public functions, installed from outside.

Library code calls across modules through module attributes (`T.linear`,
`M.forward`, `R.kd_logits_loss`), so rebinding those attributes puts a
wrapper on every call without touching the package. Each wrapper records one
span: name, start, end, parent span and workload phase. Spans live in
compact in-memory arrays until the run ends, when `save` writes them out and
`layer_totals` reduces them to per-name counts, inclusive and self times.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

import numpy as np

from prunekit import accounting, checkpoint, data, evaluation, importance, model, \
    pruning, recovery, tensor

# (owner, attribute names, span-name prefix). Missing attributes are skipped,
# so the tracer keeps working when the package drops a function.
TARGETS = (
    (tensor, ("add", "sub", "mul", "scale", "matmul", "linear", "transpose", "reshape",
              "embedding_lookup", "rms_norm", "gelu", "softmax", "log_softmax", "exp",
              "cross_entropy", "causal_attention", "rope", "slice_rows", "concat_rows",
              "sum_all", "mean_all", "l2_norm", "backward"), "tensor"),
    (model, ("init", "forward", "response_loss"), "model"),
    (recovery, ("train", "train_teacher", "kd_logits_loss", "hidden_match_loss",
                "attach_lora", "merge_lora"), "recovery"),
    (recovery.Sgd, ("step",), "recovery.sgd"),
    (importance, ("block_influence", "build_dependency_groups",
                  "taylor_group_importance"), "importance"),
    (pruning, ("plan", "execute"), "pruning"),
    (accounting, ("shape_of", "decoder_param_count", "estimate_flops"), "accounting"),
    (evaluation, ("evaluate", "predict_answer"), "evaluation"),
    (checkpoint, ("save", "load"), "checkpoint"),
    (data, ("generate_dataset", "draw_calibration"), "data"),
)

PHASES = ("setup", "timed")


class Tracer:
    """Install wrappers, collect spans, restore the originals.

    `teacher` may be set to the frozen teacher model; forwards through it are
    then counted per distinct item, which gives the teacher-forward waste
    ratio of recovery training.
    """

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("q")
        self.phase_id = array("b")
        self.start = array("d")
        self.end = array("d")
        self.phase = 0
        self.teacher = None
        self.teacher_forwards = 0
        self.teacher_items = set()
        self._name_ids = {}
        self._stack = []
        self._installed = []

    # ---------------------------------------------------------------- install

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attrs, prefix in TARGETS:
            for attr in attrs:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                wrapped = self._wrap(original, f"{prefix}.{attr}")
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def installed(self):
        """(owner, attribute, original) for every wrapper currently in place."""
        return list(self._installed)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def set_phase(self, name):
        self.phase = PHASES.index(name)

    def _wrap(self, fn, name):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, phases = self.name_id, self.parent, self.phase_id
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self
        count_teacher = name == "model.forward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_teacher and args and args[0] is tracer.teacher:
                tracer._note_teacher(args[1] if len(args) > 1 else kwargs.get("triplet"))
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            phases.append(tracer.phase)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _note_teacher(self, item):
        items = item if isinstance(item, (list, tuple)) else (item,)
        self.teacher_forwards += len(items)
        self.teacher_items.update(id(it) for it in items)

    # ----------------------------------------------------------------- reduce

    def __len__(self):
        return len(self.start)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.phase_id, dtype=np.int8),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def layer_totals(self, phase):
        """{span name: (calls, inclusive ms, self ms)} over one phase.

        Self time is a span's duration minus the durations of its direct
        children, i.e. the time spent in the function's own code.
        """
        if not len(self):
            return {}
        ids, parent, phases, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(ids))
        self_dur = dur - child
        keep = phases == PHASES.index(phase)
        calls = np.bincount(ids[keep], minlength=n_names)
        incl = np.bincount(ids[keep], weights=dur[keep], minlength=n_names)
        excl = np.bincount(ids[keep], weights=self_dur[keep], minlength=n_names)
        return {name: (int(calls[i]), 1e3 * float(incl[i]), 1e3 * float(excl[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def save(self, path):
        """Write every span (name id, parent, phase, start, end) and the names."""
        ids, parent, phases, start, end = self.arrays()
        np.savez(path, name_id=ids, parent=parent, phase=phases, start=start, end=end,
                 names=np.array(json.dumps({"names": self.names, "phases": PHASES})))
