"""Layer and width importance scoring over a calibration set.

Layer scores are Block Influence: one minus the mean token-wise cosine
similarity between a block's input and output hidden states. Width scores are
first-order Taylor group importances: for each dependency-closed unit
(attention head or MLP channel), the calibration-mean of the summed
|gradient x weight| over the unit's weight slices. Both run the calibration
set in layout buckets. Taylor scoring needs each item's own weight gradient,
since the mean of per-item absolute values is not the absolute value of a
batch gradient; one backward per bucket gives them all, because a linear's
per-item weight gradient is that item's output-gradient rows times its input
rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as T
from .accounting import shape_of
from .tensor import GraphError, ParameterError


# Items per Taylor chunk. Each chunk holds its tape and, per grouped matrix,
# the (items, out, in) per-item weight gradients: the peak memory of Taylor
# scoring grows with this size, and 8 keeps it within that of the other
# stages, where 16 or 32 raised it above them.
TAYLOR_CHUNK_SIZE = 8


class NonFiniteGradientError(RuntimeError):
    """A calibration backward pass produced a non-finite gradient."""


# kind -> the (matrix, axis) pairs a group of that kind owns. A group of width
# w with index k owns indices [k*w, (k+1)*w) along the axis of each matrix.
GROUP_MEMBERS = {
    "attention-head": (("attn.wq", 0), ("attn.wk", 0), ("attn.wv", 0), ("attn.wo", 1)),
    "mlp-channel": (("mlp.up", 0), ("mlp.down", 1)),
}


@dataclass
class PruneGroup:
    kind: str  # "attention-head" | "mlp-channel"
    layer: int
    index: int  # head index or channel index within the layer
    width: int  # indices owned along each member axis: head_dim for a head, 1 for a channel
    importance: float | None = None

    @property
    def gid(self):
        return f"layer{self.layer}.{self.kind}.{self.index}"


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
        groups += [PruneGroup("attention-head", i, h, hd) for h in range(layer.n_heads)]
        groups += [PruneGroup("mlp-channel", i, c, 1) for c in range(layer.d_ffn)]
    return groups


def _grouped_linears(loss, weights):
    """name -> the one linear node on the loss's tape whose weight operand is
    the parameter `weights[name]`. Raises GraphError for any other count, e.g.
    when a LoRA adapter makes the linear's weight an effective-weight sum."""
    owner = {id(w): name for name, w in weights.items()}
    found = {name: [] for name in weights}
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op == "linear" and id(node.parents[1]) in owner:
            found[owner[id(node.parents[1])]].append(node)
        stack.extend(node.parents)
    for name, nodes in found.items():
        if len(nodes) != 1:
            raise GraphError(f"taylor importance: {name} is the weight of {len(nodes)} "
                             f"linear ops on the tape, expected exactly 1")
    return {name: nodes[0] for name, nodes in found.items()}


def _add_abs_item_grads(model, items, weights, sums, grads):
    """One forward and one backward over a layout chunk; adds sum_i |g_i^T x_i|
    of each grouped linear to sums[name] in float64, refilling `grads` as
    `recovery._backward_step` does. The chunk's tape is freed when this
    returns, before the next chunk's is built."""
    trace = M.forward(model, items, capture=None)
    # the chunk shares n_response, so B x the row mean is the sum of item losses
    loss = T.scale(M.response_loss(trace, items), len(items))
    linears = _grouped_linears(loss, weights)
    params = model.named_parameters()
    grads.clear()
    grads.extend(T.backward(loss, [p for _, p in params] + list(linears.values())))
    for (name, _), g in zip(params, grads):
        if g is not None and not np.isfinite(g).all():
            raise NonFiniteGradientError(f"non-finite gradient in {name}")
    b = len(items)
    for (name, node), g in zip(linears.items(), grads[len(params):]):
        x = node.parents[0].data
        per_item = np.matmul(g.reshape(b, -1, g.shape[1]).transpose(0, 2, 1),
                             x.reshape(b, -1, x.shape[1]))
        sums[name] += np.abs(per_item, out=per_item).sum(axis=0, dtype=np.float64)


def taylor_group_importance(model, groups, calib):
    """Fill group importances: mean over calibration triplets of the summed
    |grad x weight| over each group's member slices.

    The score is a mean of per-item absolute values, so it needs each item's
    own weight gradient, not the batch gradient. For a linear y = x W^T, item
    i's weight gradient is g_i^T x_i, built from the item's own output-gradient
    rows g_i and input rows x_i. So the calibration set runs in layout chunks
    of at most TAYLOR_CHUNK_SIZE items, one forward and one backward per chunk
    of the summed per-item losses, keeping the output gradient of every
    grouped linear. Per matrix, sum_i |g_i^T x_i| accumulates in float64 over
    the chunks; times |W|, it is summed across the matrix's other axis, and
    every `width` consecutive indices of the member axis make one group's share.
    """
    if not calib:
        raise ParameterError("taylor importance: empty calibration set")
    by_name = dict(model.named_parameters())
    widths = {(g.layer, g.kind): g.width for g in groups}
    members = {(layer, kind): [(f"layers.{layer}.{m}", axis) for m, axis in GROUP_MEMBERS[kind]]
               for layer, kind in widths}
    weights = {name: by_name[name] for pairs in members.values() for name, _ in pairs}
    sums = {name: np.zeros(w.data.shape) for name, w in weights.items()}
    grads = []
    for idx in M.layout_buckets(calib, size=TAYLOR_CHUNK_SIZE):
        _add_abs_item_grads(model, [calib[i] for i in idx], weights, sums, grads)
    scores = {}
    for unit, pairs in members.items():
        scores[unit] = sum((sums[name] * np.abs(weights[name].data)).sum(axis=1 - axis)
                           .reshape(-1, widths[unit]).sum(axis=1) for name, axis in pairs)
    for group in groups:
        group.importance = float(scores[group.layer, group.kind][group.index] / len(calib))
    return groups


def group_report(model, groups):
    """Wrap scored groups with the model's shape record for the prune planner."""
    return GroupImportanceReport(groups=list(groups), shape=shape_of(model))


def importance_records(groups):
    """Structured rows (id, kind, layer, score) for export."""
    return [{"id": g.gid, "kind": g.kind, "layer": g.layer, "index": g.index,
             "score": g.importance} for g in groups]
