"""Prune planning and structural surgery.

Plans greedily select the lowest-importance victims (whole blocks for
layerwise mode, dependency groups for widthwise) until the predicted removal
reaches the target fraction of decoder-block parameters. Execution mutates
the model in place: blocks are deleted and re-wired, or member slices are
physically removed so weight matrices become genuinely smaller dense arrays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .accounting import decoder_param_count, group_param_count, layer_param_count, shape_of
from .importance import BlockInfluenceReport, GroupImportanceReport, slice_plan
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

    @property
    def predicted_ratio(self):
        return self.predicted_params_removed / self.decoder_params


@dataclass
class PruneResult:
    surgery_log: list  # per-victim dicts with exact parameter deltas
    achieved_ratio: float

    def log_lines(self):
        return [f"{e['victim']}\tparams_removed={e['params_removed']}"
                for e in self.surgery_log]


def _check_ratio(ratio):
    if not (0.0 < ratio < 1.0):
        raise ParameterError(f"target ratio must be in (0,1), got {ratio}")


def plan(mode, report, target_ratio, floors=Floors()):
    """Build a PrunePlan from an importance report.

    layerwise: `report` is a BlockInfluenceReport; victims are whole layers in
    ascending-BI order; the final layer is never selected (its output anchors
    hidden-state matching).
    widthwise: `report` is a GroupImportanceReport; victims are groups in
    ascending importance with ties broken by (layer, kind, index), respecting
    per-layer floors.

    A zero target yields an empty (no-op) plan; the CLI rejects 0 upfront.
    """
    shape = report.shape
    total = decoder_param_count(shape)
    if target_ratio == 0:
        target_ratio, victims, removed = 0.0, [], 0
    else:
        _check_ratio(target_ratio)
        if mode == "layerwise":
            if not isinstance(report, BlockInfluenceReport):
                raise ParameterError("layerwise planning needs a BlockInfluenceReport")
            victims, removed = _plan_layerwise(report, target_ratio, total)
        elif mode == "widthwise":
            if not isinstance(report, GroupImportanceReport):
                raise ParameterError("widthwise planning needs a GroupImportanceReport")
            victims, removed = _plan_widthwise(report, target_ratio, total, floors)
        else:
            raise ParameterError(f"unknown prune mode {mode!r}")
    return PrunePlan(mode=mode, target_ratio=target_ratio, victims=victims,
                     predicted_params_removed=removed, decoder_params=total,
                     fingerprint=tuple((l.n_heads, l.d_ffn) for l in shape.layers))


def _plan_layerwise(report, target_ratio, total):
    """(victim layer indices, parameters removed)."""
    shape = report.shape
    budget = target_ratio * total
    sizes = [layer_param_count(shape, l) for l in shape.layers]
    removed = 0
    victims = []
    last = shape.n_layers - 1
    for layer in report.ranking:
        if removed >= budget:
            break
        if layer == last:
            continue
        victims.append(layer)
        removed += sizes[layer]
    if removed < budget:
        raise InfeasiblePlanError(
            f"layerwise target {target_ratio:.2f} unreachable (final layer protected); "
            f"max achievable ratio {removed / total:.4f}")
    return sorted(victims), removed


def _plan_widthwise(report, target_ratio, total, floors):
    """(victim groups, parameters removed)."""
    groups = report.groups
    if any(g.importance is None for g in groups):
        raise ParameterError("widthwise planning needs importances filled in")
    shape = report.shape
    budget = target_ratio * total
    min_ch = floors.resolved_channels(shape.head_dim)
    if floors.min_heads < 1 or min_ch < 1:
        raise ParameterError("floors must retain at least one head and one channel")

    remaining = {i: {"attention-head": l.n_heads, "mlp-channel": l.d_ffn}
                 for i, l in enumerate(shape.layers)}
    floor_of = {"attention-head": floors.min_heads, "mlp-channel": min_ch}

    order = sorted(groups, key=lambda g: (g.importance, g.layer, g.kind, g.index))
    victims = []
    removed = 0
    for g in order:
        if removed >= budget:
            break
        slot = remaining[g.layer]
        if slot[g.kind] - 1 < floor_of[g.kind]:
            continue
        slot[g.kind] -= 1
        victims.append(g)
        removed += group_param_count(shape, g.kind)
    if removed < budget:
        raise InfeasiblePlanError(
            f"widthwise target {target_ratio:.2f} unreachable under floors "
            f"(min {floors.min_heads} heads, {min_ch} channels per layer); "
            f"max achievable ratio {removed / total:.4f}")
    victims.sort(key=lambda g: (g.layer, g.kind, g.index))
    return victims, removed


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
            "params_removed": layer_param_count(shape, shape.layers[i]),
            "detail": asdict(shape.layers[i])}
           for i in sorted(victims)]
    model.layers = [l for i, l in enumerate(model.layers) if i not in victims]
    return log


def _execute_widthwise(model, prune_plan):
    """Delete every victim's own slices, per (matrix, axis) in one go."""
    shape = shape_of(model)
    log = [{"victim": g.gid,
            "params_removed": group_param_count(shape, g.kind),
            "detail": {s.param: [s.axis, s.start, s.stop] for s in g.slices}}
           for g in prune_plan.victims]
    by_name = dict(model.named_parameters())
    for (name, axis), (starts, stops, _) in slice_plan(prune_plan.victims).items():
        p = by_name[name]
        doomed = np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])
        # np.delete along axis 1 can return an F-ordered array; matmul rounds
        # differently on it than on the C-ordered copy a checkpoint reloads
        p.data = np.ascontiguousarray(np.delete(p.data, doomed, axis=axis))
    return log
