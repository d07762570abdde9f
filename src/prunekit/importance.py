"""Layer and width importance scoring over a calibration set.

Layer scores are Block Influence: one minus the mean token-wise cosine
similarity between a block's input and output hidden states. Width scores are
first-order Taylor group importances: for each dependency-closed unit
(attention head or MLP channel), the calibration-mean of the summed
|gradient x weight| over the unit's weight slices. Block Influence runs the
calibration set in layout buckets; Taylor scoring runs one item at a time,
because the mean of per-item absolute values is not the absolute value of a
batch gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import tensor as T
from .accounting import shape_of
from .tensor import ParameterError


class NonFiniteGradientError(RuntimeError):
    """A calibration backward pass produced a non-finite gradient."""


@dataclass(frozen=True)
class Slice:
    """One dependency-closed weight slice: rows or columns [start, stop) of a matrix."""
    param: str
    axis: int
    start: int
    stop: int

    def take(self, arr):
        idx = tuple(slice(self.start, self.stop) if a == self.axis else slice(None)
                    for a in range(arr.ndim))
        return arr[idx]


@dataclass
class PruneGroup:
    kind: str  # "attention-head" | "mlp-channel"
    layer: int
    index: int  # head index or channel index within the layer
    slices: tuple
    importance: float | None = None

    @property
    def gid(self):
        return f"layer{self.layer}.{self.kind}.{self.index}"

    def param_count(self, model):
        by_name = dict(model.named_parameters())
        return sum(int(s.take(by_name[s.param].data).size) for s in self.slices)


@dataclass
class GroupImportanceReport:
    """Scored dependency groups plus the shape they were computed on."""
    groups: list
    shape: object

    def to_records(self):
        return importance_records(self.groups)


@dataclass
class BlockInfluenceReport:
    scores: list
    ranking: list  # layer indices, least influential first
    tokens_used: int
    zero_norm_rows_skipped: int
    shape: object = None

    def to_records(self):
        return [{"layer": i, "kind": "decoder-layer", "score": float(s)}
                for i, s in enumerate(self.scores)]


def bi_from_state_pairs(pairs):
    """Block Influence from (input, output) hidden-state array pairs.

    Returns (score, tokens_used, zero_rows_skipped). Token rows where either
    state has zero norm are excluded from the mean and counted.
    """
    total = 0.0
    used = 0
    skipped = 0
    for h_in, h_out in pairs:
        n_in = np.linalg.norm(h_in, axis=1)
        n_out = np.linalg.norm(h_out, axis=1)
        ok = (n_in > 0) & (n_out > 0)
        skipped += int((~ok).sum())
        if ok.any():
            cos = (h_in[ok] * h_out[ok]).sum(axis=1) / (n_in[ok] * n_out[ok])
            total += float(cos.sum())
            used += int(ok.sum())
    if used == 0:
        raise ParameterError("block influence: no usable token rows")
    return 1.0 - total / used, used, skipped


def block_influence(model, calib):
    """Per-layer Block Influence over the calibration set, with ranking."""
    if not calib:
        raise ParameterError("block influence: empty calibration set")
    n_layers = model.n_layers
    per_layer_pairs = [[] for _ in range(n_layers)]
    with T.no_grad():
        for idx in M.layout_buckets(calib):
            trace = M.forward(model, [calib[i] for i in idx], capture="all")
            states = [h.data.astype(np.float64) for h in trace.hidden_states]
            for i in range(n_layers):
                per_layer_pairs[i].append((states[i], states[i + 1]))
    scores = []
    used = 0
    skipped = 0
    for i in range(n_layers):
        s, u, k = bi_from_state_pairs(per_layer_pairs[i])
        scores.append(s)
        used += u
        skipped += k
    ranking = sorted(range(n_layers), key=lambda i: (scores[i], i))
    return BlockInfluenceReport(scores=scores, ranking=ranking,
                                tokens_used=used, zero_norm_rows_skipped=skipped,
                                shape=shape_of(model))


def build_dependency_groups(model):
    """One group per attention head and per MLP channel, per layer.

    A head's closure is its q/k/v output-row block plus the matching
    o-projection input columns; a channel's closure is its up-projection
    output row plus the matching down-projection input column.
    """
    groups = []
    hd = model.config.head_dim
    for i, layer in enumerate(model.layers):
        for h in range(layer.n_heads):
            lo, hi = h * hd, (h + 1) * hd
            groups.append(PruneGroup(
                kind="attention-head", layer=i, index=h,
                slices=(
                    Slice(f"layers.{i}.attn.wq", 0, lo, hi),
                    Slice(f"layers.{i}.attn.wk", 0, lo, hi),
                    Slice(f"layers.{i}.attn.wv", 0, lo, hi),
                    Slice(f"layers.{i}.attn.wo", 1, lo, hi),
                )))
        for c in range(layer.d_ffn):
            groups.append(PruneGroup(
                kind="mlp-channel", layer=i, index=c,
                slices=(
                    Slice(f"layers.{i}.mlp.up", 0, c, c + 1),
                    Slice(f"layers.{i}.mlp.down", 1, c, c + 1),
                )))
    return groups


def _slice_plan(groups):
    """(param, axis) -> (starts, stops, group indices) over every member slice."""
    plan = {}
    for gi, group in enumerate(groups):
        for sl in group.slices:
            starts, stops, owners = plan.setdefault((sl.param, sl.axis), ([], [], []))
            starts.append(sl.start)
            stops.append(sl.stop)
            owners.append(gi)
    return {key: tuple(np.asarray(v) for v in lists) for key, lists in plan.items()}


def taylor_group_importance(model, groups, calib):
    """Fill group importances: mean over calibration triplets of the summed
    |grad x weight| over each group's member slices.

    One backward pass per triplet, since the score is a mean of per-item
    absolute values. Per item, |grad x weight| is formed once per matrix and
    summed across the slice axis; a group's share is then a difference of
    prefix sums along that axis. Per-item scores accumulate in list order, so
    the result is order-deterministic.
    """
    if not calib:
        raise ParameterError("taylor importance: empty calibration set")
    by_name = dict(model.named_parameters())
    plan = _slice_plan(groups)
    acc = np.zeros(len(groups), dtype=np.float64)
    for item in calib:
        for _, p in model.named_parameters():
            p.grad = None
        trace = M.forward(model, item, capture=None)
        loss = M.response_loss(trace, item)
        T.backward(loss)
        for name, p in model.named_parameters():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NonFiniteGradientError(f"non-finite gradient in {name}")
        for (name, axis), (starts, stops, owners) in plan.items():
            p = by_name[name]
            if p.grad is None:
                continue
            other = tuple(a for a in range(p.data.ndim) if a != axis)
            per_index = np.abs(p.grad * p.data).sum(axis=other, dtype=np.float64)
            prefix = np.concatenate(([0.0], np.cumsum(per_index)))
            acc += np.bincount(owners, weights=prefix[stops] - prefix[starts],
                               minlength=len(groups))
    for _, p in model.named_parameters():
        p.grad = None
    for gi, group in enumerate(groups):
        group.importance = float(acc[gi] / len(calib))
    return groups


def group_report(model, groups):
    """Wrap scored groups with the model's shape record for the prune planner."""
    return GroupImportanceReport(groups=list(groups), shape=shape_of(model))


def group_scale_sensitivity(model, group, calib):
    """Signed first-order prediction of the loss change from scaling the
    group's weights: sum over member weights of grad*weight, calibration mean.

    This is the true limit of dLoss/depsilon under w -> (1-eps)w; the Taylor
    importance (sum of absolute values) upper-bounds its magnitude.
    """
    by_name = dict(model.named_parameters())
    total = 0.0
    for item in calib:
        for _, p in model.named_parameters():
            p.grad = None
        trace = M.forward(model, item, capture=None)
        T.backward(M.response_loss(trace, item))
        for sl in group.slices:
            p = by_name[sl.param]
            if p.grad is not None:
                total += float((sl.take(p.grad) * sl.take(p.data)).sum())
    for _, p in model.named_parameters():
        p.grad = None
    return total / len(calib)


def importance_records(groups):
    """Structured rows (id, kind, layer, score) for export."""
    return [{"id": g.gid, "kind": g.kind, "layer": g.layer, "index": g.index,
             "score": g.importance} for g in groups]
