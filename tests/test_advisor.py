"""Advisor rules: boundary grid, reference citations, estimate consistency."""

import pytest

from prunekit import accounting as A
from prunekit import advisor as V
from prunekit.advisor import OutOfValidatedRangeError, Scenario
from prunekit.model import ModelConfig
from prunekit.tensor import ParameterError


SHAPE = A.shape_of_config(ModelConfig())


def test_no_recovery_gives_widthwise_no_recovery():
    rec = V.recommend(Scenario(can_recover=False, target_ratio=0.15), SHAPE)
    assert rec.rule == "(i)"
    assert rec.prune_mode == "widthwise" and rec.recovery == "none"
    assert rec.data_fraction is None
    assert any("92.79" in r for r in rec.rationale)


def test_moderate_ratio_with_recovery_cites_reference():
    rec = V.recommend(Scenario(can_recover=True, target_ratio=0.30), SHAPE)
    assert rec.rule == "(ii)"
    assert rec.prune_mode == "layerwise" and rec.recovery == "ft+l2-kd"
    assert rec.data_fraction == 0.05
    assert any("95.03" in r for r in rec.rationale)


def test_high_ratio_with_recovery():
    rec = V.recommend(Scenario(can_recover=True, target_ratio=0.55), SHAPE)
    assert rec.rule == "(iii)"
    assert rec.prune_mode == "widthwise" and rec.recovery == "ft+l2-kd"
    assert rec.data_fraction == 1.0


BOUNDARY_GRID = {
    (False, 0.10): ("(i)", "widthwise", "none", None),
    (False, 0.20): ("(i)", "widthwise", "none", None),
    (False, 0.30): ("(i)", "widthwise", "none", None),
    (False, 0.40): ("(i)", "widthwise", "none", None),
    (False, 0.41): ("(i)", "widthwise", "none", None),
    (False, 0.55): ("(i)", "widthwise", "none", None),
    (False, 0.60): ("(i)", "widthwise", "none", None),
    (True, 0.10): ("(ii)", "layerwise", "projector-ft", 0.05),
    (True, 0.20): ("(ii)", "layerwise", "ft+l2-kd", 0.05),
    (True, 0.30): ("(ii)", "layerwise", "ft+l2-kd", 0.05),
    (True, 0.40): ("(ii)", "layerwise", "ft+l2-kd", 0.05),
    (True, 0.41): ("(iii)", "widthwise", "ft+l2-kd", 0.05),
    (True, 0.55): ("(iii)", "widthwise", "ft+l2-kd", 1.0),
    (True, 0.60): ("(iii)", "widthwise", "ft+l2-kd", 1.0),
}


@pytest.mark.parametrize("key,expected", sorted(BOUNDARY_GRID.items()))
def test_boundary_grid(key, expected):
    can_recover, ratio = key
    rec = V.recommend(Scenario(can_recover=can_recover, target_ratio=ratio), SHAPE)
    assert (rec.rule, rec.prune_mode, rec.recovery, rec.data_fraction) == expected
    assert rec.rationale


def test_estimates_match_accounting_exactly():
    for ratio, mode_fn in ((0.30, A.scale_shape_layerwise), (0.55, A.scale_shape_widthwise)):
        rec = V.recommend(Scenario(can_recover=True, target_ratio=ratio), SHAPE)
        pruned = mode_fn(SHAPE, ratio)
        assert rec.est_decoder_params == A.decoder_param_count(pruned)
        assert rec.est_flops == float(A.estimate_flops(pruned, SHAPE.n_visual_tokens + 50))


def test_data_budget_caps_fraction():
    rec = V.recommend(Scenario(can_recover=True, target_ratio=0.55,
                               data_budget_fraction=0.1), SHAPE)
    assert rec.data_fraction == 0.1
    assert any("caps" in r for r in rec.rationale)


def test_out_of_range_ratio_rejected():
    with pytest.raises(OutOfValidatedRangeError):
        Scenario(can_recover=True, target_ratio=0.81)
    with pytest.raises(ParameterError):
        Scenario(can_recover=True, target_ratio=0.0)
    with pytest.raises(ParameterError):
        Scenario(can_recover=True, target_ratio=0.3, data_budget_fraction=0.0)


def test_rule_totality_over_dense_ratio_sweep():
    for pct in range(1, 81):
        rec = V.recommend(Scenario(can_recover=True, target_ratio=pct / 100), SHAPE)
        assert rec.rule in ("(ii)", "(iii)")
        rec = V.recommend(Scenario(can_recover=False, target_ratio=pct / 100), SHAPE)
        assert rec.rule == "(i)"


def test_recommendation_lines_render():
    rec = V.recommend(Scenario(can_recover=True, target_ratio=0.30), SHAPE)
    text = "\n".join(rec.lines())
    assert "layerwise" in text and "rationale" in text
    # the toy shape's 4 visual tokens plus the 50 text tokens the estimate assumes
    assert f"forward flops:   {rec.est_flops:.3e} at 54 tokens" in rec.lines()
