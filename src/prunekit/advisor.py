"""Compression strategy recommendation from resource constraints.

Three rules, keyed by recovery budget and target ratio:

  (i)   no recovery budget            -> widthwise pruning, no recovery
  (ii)  recovery budget, ratio <= 40% -> layerwise pruning; projector-only
        finetuning suffices below 20%, otherwise joint finetuning with
        final-hidden-state L2 distillation
  (iii) recovery budget, ratio > 40%  -> widthwise pruning + joint finetuning
        with L2 distillation

Suggested data fraction is 5% below 50% compression and the full set at or
above it. The boundary table ships in docs/advisor_rules.md. Estimates are
computed with the accounting module's closed forms, so they agree with the
prune module exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .accounting import (decoder_param_count, estimate_flops,
                         scale_shape_layerwise, scale_shape_widthwise)
from .tensor import ParameterError


class OutOfValidatedRangeError(ParameterError):
    """Target ratio above the validated range (reference runs cover <= 60%)."""


# Reference benchmark retention (AVG-% of the uncompressed model) from the
# study this toolkit's rules are distilled from, keyed by
# (prune mode, recovery, ratio). Used only to annotate rationales.
REFERENCE_RETENTION = {
    ("widthwise", "none", 0.15): ("7B-scale reference", 92.79),
    ("widthwise", "none", 0.30): ("7B-scale reference", 84.17),
    ("layerwise", "ft+l2-kd", 0.15): ("3B-scale reference", 99.59),
    ("layerwise", "ft+l2-kd", 0.30): ("3B-scale reference", 95.03),
    ("widthwise", "ft+l2-kd", 0.45): ("3B-scale reference", 91.15),
    ("widthwise", "ft+l2-kd", 0.60): ("3B-scale reference", 83.69),
}


@dataclass(frozen=True)
class Scenario:
    can_recover: bool
    target_ratio: float
    data_budget_fraction: float = 1.0

    def __post_init__(self):
        if self.target_ratio <= 0:
            raise ParameterError("target_ratio must be positive")
        if self.target_ratio > 0.8:
            raise OutOfValidatedRangeError(
                f"target ratio {self.target_ratio:.2f} is above the validated "
                f"range (reference evaluations cover <= 60%, hard cap 80%)")
        if not (0.0 < self.data_budget_fraction <= 1.0):
            raise ParameterError("data_budget_fraction must be in (0, 1]")


@dataclass
class Recommendation:
    prune_mode: str  # "widthwise" | "layerwise"
    recovery: str  # "none" | "projector-ft" | "ft+l2-kd"
    data_fraction: float | None
    rule: str  # "(i)" | "(ii)" | "(iii)"
    rationale: list
    est_decoder_params: int
    est_flops: float

    def lines(self):
        out = [
            f"prune mode:      {self.prune_mode}",
            f"recovery:        {self.recovery}",
            f"data fraction:   {'-' if self.data_fraction is None else self.data_fraction}",
            f"decoder params:  {self.est_decoder_params}",
            f"forward flops:   {self.est_flops:.3e}",
            "rationale:",
        ]
        out.extend(f"  - {r}" for r in self.rationale)
        return out


def _reference_note(mode, recovery, ratio):
    best = None
    for (m, r, grid), (label, pct) in REFERENCE_RETENTION.items():
        if m == mode and r == recovery and abs(grid - ratio) <= 0.10:
            gap = abs(grid - ratio)
            if best is None or gap < best[0]:
                best = (gap, grid, label, pct)
    if best is None:
        return None
    _, grid, label, pct = best
    return (f"{label}: {mode} at {grid:.0%} with recovery '{recovery}' "
            f"retained {pct:.2f}% of the uncompressed average")


def recommend(scenario, shape):
    """Map a Scenario to exactly one Recommendation for the given shape record;
    est_flops is for one sequence of the visual tokens plus 50 text tokens."""
    ratio = scenario.target_ratio
    rationale = []
    if not scenario.can_recover:
        rule, mode, recovery = "(i)", "widthwise", "none"
        rationale.append(
            "rule (i): no recovery budget, so widthwise pruning, which best "
            "preserves accuracy without any finetuning")
        fraction = None
    elif ratio <= 0.40:
        rule, mode = "(ii)", "layerwise"
        if ratio < 0.20:
            recovery = "projector-ft"
            rationale.append(
                "rule (ii): moderate compression (<= 40%) favors layerwise "
                "pruning; below 20% refitting the multimodal projector alone "
                "recovers most performance")
        else:
            recovery = "ft+l2-kd"
            rationale.append(
                "rule (ii): moderate compression (<= 40%) favors layerwise "
                "pruning; at 20% and above joint projector+decoder finetuning "
                "with final-hidden-state L2 distillation recovers best")
    else:
        rule, mode, recovery = "(iii)", "widthwise", "ft+l2-kd"
        rationale.append(
            "rule (iii): high compression (> 40%) favors widthwise pruning "
            "with joint finetuning plus final-hidden-state L2 distillation")

    if scenario.can_recover:
        fraction = 0.05 if ratio < 0.50 else 1.0
        if fraction <= 0.05:
            rationale.append(
                "data: below 50% compression, 5% of the training data "
                "recovers within a few percent of full-data training")
        else:
            rationale.append(
                "data: at 50% compression and beyond, full-data recovery "
                "is needed to avoid a widening gap")
        if fraction > scenario.data_budget_fraction:
            fraction = scenario.data_budget_fraction
            rationale.append(
                f"data budget caps the suggested fraction at {fraction}")

    note = _reference_note(mode, recovery, ratio)
    if note:
        rationale.append(note)

    if mode == "widthwise":
        pruned = scale_shape_widthwise(shape, ratio)
    else:
        pruned = scale_shape_layerwise(shape, ratio)
    return Recommendation(
        prune_mode=mode, recovery=recovery, data_fraction=fraction, rule=rule,
        rationale=rationale,
        est_decoder_params=decoder_param_count(pruned),
        est_flops=float(estimate_flops(pruned, shape.n_visual_tokens + 50)))
