"""Prune planning and structural surgery.

Plans greedily select the lowest-importance victims (whole blocks for
layerwise mode, dependency groups for widthwise) until the predicted removal
reaches the target fraction of decoder-block parameters. Execution mutates
the model in place: blocks are deleted and re-wired, or member slices are
physically removed so weight matrices become genuinely smaller dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .accounting import decoder_param_count, group_param_count, layer_param_count, shape_of
from .importance import GROUP_MEMBERS, BlockInfluenceReport, GroupImportanceReport
from .tensor import ParameterError


class InfeasiblePlanError(ValueError):
    """The target ratio cannot be reached under the configured floors."""


class PlanModelMismatchError(RuntimeError):
    """The plan was made for a model with a different shape (stale plan)."""


@dataclass(frozen=True)
class Floors:
    """Per-layer minimum retained widths for widthwise mode."""
    min_heads: int = 1
    min_channels: int | None = None  # default: head_dim

    def resolved_channels(self, head_dim):
        return self.min_channels if self.min_channels is not None else head_dim


@dataclass
class PrunePlan:
    mode: str  # "layerwise" | "widthwise"
    target_ratio: float
    victims: list  # layer indices (layerwise) or PruneGroups (widthwise)
    predicted_params_removed: int
    decoder_params: int
    fingerprint: tuple  # per-layer (n_heads, d_ffn) of the source model


@dataclass
class PruneResult:
    surgery_log: list  # per-victim dicts with exact parameter deltas
    achieved_ratio: float


def plan(mode, report, target_ratio, floors=Floors()):
    """Build a PrunePlan from an importance report.

    layerwise: `report` is a BlockInfluenceReport; victims are whole layers in
    ascending-BI order; the final layer is never selected (its output anchors
    hidden-state matching).
    widthwise: `report` is a GroupImportanceReport; victims are groups in
    ascending importance with ties broken by (layer, kind, index), respecting
    per-layer floors.

    Both modes run one greedy pass over (victim, unit, size) candidates in
    importance order: a candidate is taken while the removal is short of the
    target and its unit keeps more than its floor. A layerwise unit is one
    layer (floor 0, or 1 for the final layer); a widthwise unit is one
    layer's heads or channels. A zero target takes nothing; the CLI rejects 0
    upfront.
    """
    if not 0.0 <= target_ratio < 1.0:
        raise ParameterError(f"target ratio must be in [0,1), got {target_ratio}")
    shape = report.shape
    total = decoder_param_count(shape)
    if mode == "layerwise":
        if not isinstance(report, BlockInfluenceReport):
            raise ParameterError("layerwise planning needs a BlockInfluenceReport")
        last = shape.n_layers - 1
        floor = {i: int(i == last) for i in range(shape.n_layers)}
        remaining = dict.fromkeys(floor, 1)
        candidates = [(i, i, layer_param_count(shape, shape.layers[i])) for i in report.ranking]
        blocked, position = "(final layer protected)", None
    elif mode == "widthwise":
        if not isinstance(report, GroupImportanceReport):
            raise ParameterError("widthwise planning needs a GroupImportanceReport")
        if any(g.importance is None for g in report.groups):
            raise ParameterError("widthwise planning needs importances filled in")
        min_ch = floors.resolved_channels(shape.head_dim)
        if floors.min_heads < 1 or min_ch < 1:
            raise ParameterError("floors must retain at least one head and one channel")
        remaining = {}
        for i, l in enumerate(shape.layers):
            remaining[i, "attention-head"], remaining[i, "mlp-channel"] = l.n_heads, l.d_ffn
        floor_of = {"attention-head": floors.min_heads, "mlp-channel": min_ch}
        floor = {unit: floor_of[unit[1]] for unit in remaining}
        order = sorted(report.groups, key=lambda g: (g.importance, g.layer, g.kind, g.index))
        sizes = {kind: group_param_count(shape, kind) for kind in GROUP_MEMBERS}
        candidates = [(g, (g.layer, g.kind), sizes[g.kind]) for g in order]
        blocked = f"under floors (min {floors.min_heads} heads, {min_ch} channels per layer)"
        position = attrgetter("layer", "kind", "index")
    else:
        raise ParameterError(f"unknown prune mode {mode!r}")

    budget = target_ratio * total
    victims = []
    removed = 0
    for victim, unit, size in candidates:
        if removed >= budget:
            break
        if remaining[unit] > floor[unit]:
            remaining[unit] -= 1
            victims.append(victim)
            removed += size
    if removed < budget:
        raise InfeasiblePlanError(
            f"{mode} target {target_ratio:.2f} unreachable {blocked}; "
            f"max achievable ratio {removed / total:.4f}")
    return PrunePlan(mode=mode, target_ratio=target_ratio,
                     victims=sorted(victims, key=position),
                     predicted_params_removed=removed, decoder_params=total,
                     fingerprint=tuple((l.n_heads, l.d_ffn) for l in shape.layers))


def execute(model, prune_plan):
    """Apply the plan to the model in place; returns a PruneResult.

    Raises PlanModelMismatchError when the model's shape no longer matches the
    plan's fingerprint (so re-executing a consumed plan fails loudly).
    """
    current = tuple(model.layer_shapes())
    if current != prune_plan.fingerprint:
        raise PlanModelMismatchError(
            f"plan was made for layer shapes {prune_plan.fingerprint}, "
            f"model has {current}")
    before = decoder_param_count(shape_of(model))
    if prune_plan.mode == "layerwise":
        log = _execute_layerwise(model, prune_plan)
    else:
        log = _execute_widthwise(model, prune_plan)
    after = decoder_param_count(shape_of(model))
    achieved = 1.0 - after / prune_plan.decoder_params
    assert before - after == sum(e["params_removed"] for e in log)
    return PruneResult(surgery_log=log, achieved_ratio=achieved)


def _execute_layerwise(model, prune_plan):
    victims = set(prune_plan.victims)
    if max(victims, default=-1) >= model.n_layers:
        raise PlanModelMismatchError("plan victim layer index out of range")
    shape = shape_of(model)
    log = [{"victim": f"decoder-layer-{i}",
            "params_removed": layer_param_count(shape, shape.layers[i])}
           for i in sorted(victims)]
    model.layers = [l for i, l in enumerate(model.layers) if i not in victims]
    return log


def _execute_widthwise(model, prune_plan):
    """Delete every victim's rows or columns, per member matrix in one go."""
    shape = shape_of(model)
    log = [{"victim": g.gid, "params_removed": group_param_count(shape, g.kind)}
           for g in prune_plan.victims]
    units = {}  # (layer, kind) -> its victim groups
    for g in prune_plan.victims:
        units.setdefault((g.layer, g.kind), []).append(g)
    by_name = dict(model.named_parameters())
    for (layer, kind), unit in units.items():
        doomed = [g.index for g in unit]
        for member, axis in GROUP_MEMBERS[kind]:
            p = by_name[f"layers.{layer}.{member}"]
            keep = np.ones(p.data.shape[axis], dtype=bool)
            keep.reshape(-1, unit[0].width)[doomed] = False  # a view: row k is group k
            # C order, like a reloaded checkpoint: matmul rounds F-ordered weights differently
            p.data = np.compress(keep, p.data, axis=axis)
    return log
