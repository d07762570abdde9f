"""Prune planning and surgery: masked-equivalence, conservation, nesting, floors,
planner properties on random importances, and surgery properties on random
feasible victim sets."""

import dataclasses
import functools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import accounting as A
from prunekit import checkpoint as C
from prunekit import data as D
from prunekit import importance as I
from prunekit import model as M
from prunekit import pruning as P
from prunekit import tensor as T
from prunekit.model import ModelConfig
from prunekit.pruning import Floors, InfeasiblePlanError, PlanModelMismatchError

from conftest import count_params, float64_copy, quick_sgd, zero_group


@functools.lru_cache(maxsize=None)
def trained_model(seed, train_steps):
    """Reference toy model with mild training so importances are structured;
    trained once per (seed, train_steps), so callers copy it."""
    model = M.init(ModelConfig(), seed=seed)
    train, _ = D.generate_dataset(n=240, seed=seed)
    quick_sgd(model, train, steps=train_steps, lr=0.1, seed=seed)
    calib = D.draw_calibration(train, n=6, seed=1)
    return model, calib, train


def scored_model(seed=11, train_steps=120):
    """Copies of the cached trained_model, its calibration set and pool:
    several tests prune the model in place."""
    model, calib, train = trained_model(seed, train_steps)
    return model.copy(), list(calib), list(train)


def width_report(model, calib):
    groups = I.build_dependency_groups(model)
    I.taylor_group_importance(model, groups, calib)
    return I.group_report(model, groups)


def fake_bi_report(shape, scores):
    ranking = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    return I.BlockInfluenceReport(scores=list(scores), ranking=ranking,
                                  tokens_used=1, zero_norm_rows_skipped=0, shape=shape)


# ---------------------------------------------------------------- planning

def test_zero_target_gives_empty_plan():
    shape = A.shape_of_config(ModelConfig())
    report = fake_bi_report(shape, [0.5, 0.4, 0.3, 0.2])
    p = P.plan("layerwise", report, 0.0)
    assert p.victims == [] and p.predicted_params_removed == 0


def test_layerwise_eight_equal_layers_quarter_takes_two_lowest():
    shape = A.shape_of_config(ModelConfig(n_layers=8))
    scores = [0.8, 0.3, 0.9, 0.25, 0.7, 0.6, 0.5, 0.4]
    p = P.plan("layerwise", fake_bi_report(shape, scores), 0.25)
    assert p.victims == sorted([1, 3])
    assert p.predicted_params_removed / p.decoder_params == 0.25


def test_layerwise_never_selects_final_layer():
    shape = A.shape_of_config(ModelConfig(n_layers=4))
    scores = [0.5, 0.6, 0.7, 0.01]  # final layer least influential
    p = P.plan("layerwise", fake_bi_report(shape, scores), 0.25)
    assert 3 not in p.victims
    assert p.victims == [0]


def test_layerwise_infeasible_reports_max_achievable():
    shape = A.shape_of_config(ModelConfig(n_layers=2))
    with pytest.raises(InfeasiblePlanError) as exc:
        P.plan("layerwise", fake_bi_report(shape, [0.1, 0.2]), 0.9)
    assert "0.5" in str(exc.value)


def test_widthwise_target_hits_within_two_points_with_recount():
    model, calib, _ = scored_model()
    orig_decoder = sum(int(p.data.size) for n, p in model.named_parameters()
                       if n.startswith("layers."))
    for target in (0.15, 0.30, 0.45, 0.60):
        clone = model.copy()
        report = width_report(clone, calib)
        plan = P.plan("widthwise", report, target)
        result = P.execute(clone, plan)
        # independent recount: walk the live tensors
        pruned_decoder = sum(int(p.data.size) for n, p in clone.named_parameters()
                             if n.startswith("layers."))
        recount_ratio = 1.0 - pruned_decoder / orig_decoder
        assert abs(recount_ratio - target) <= 0.02
        assert abs(result.achieved_ratio - recount_ratio) < 1e-12


def test_widthwise_respects_floors():
    model, calib, _ = scored_model()
    report = width_report(model, calib)
    plan = P.plan("widthwise", report, 0.60)
    clone = model.copy()
    P.execute(clone, plan)
    hd = model.config.head_dim
    for layer in clone.layers:
        assert layer.n_heads >= 1
        assert layer.d_ffn >= hd


def test_widthwise_infeasible_under_floors():
    model, calib, _ = scored_model(train_steps=30)
    report = width_report(model, calib)
    with pytest.raises(InfeasiblePlanError) as exc:
        P.plan("widthwise", report, 0.99)
    assert "max achievable" in str(exc.value)


def test_selection_nesting():
    model, calib, _ = scored_model()
    report = width_report(model, calib)
    small = {g.gid for g in P.plan("widthwise", report, 0.20).victims}
    large = {g.gid for g in P.plan("widthwise", report, 0.45).victims}
    assert small <= large


def test_plan_overshoot_bounded_by_one_group():
    model, calib, _ = scored_model()
    report = width_report(model, calib)
    plan = P.plan("widthwise", report, 0.30)
    d = model.config.d_model
    max_group = 4 * model.config.head_dim * d
    assert 0 <= plan.predicted_params_removed - 0.30 * plan.decoder_params <= max_group


@pytest.mark.parametrize("ragged", [False, True], ids=["full", "ragged"])
@pytest.mark.parametrize("mode", ["layerwise", "widthwise"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_plan_properties_on_random_importances(mode, ragged, data):
    """The greedy pass, checked from its outcome: floors hold, the removal
    reaches the budget and falls short of it without the last victim taken,
    and every candidate ranked before that victim but not taken was held by
    its floor (the final layer's, in layerwise mode)."""
    shape = A.shape_of_config(ModelConfig())
    if ragged:
        layers = data.draw(st.lists(st.builds(A.LayerShape, st.integers(1, 8),
                                              st.integers(1, 128)), min_size=1, max_size=6))
        shape = dataclasses.replace(shape, layers=tuple(layers))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # coarse scores make ties, which (layer, kind, index) breaks
    coarse = data.draw(st.booleans())

    def scores(n):
        return rng.integers(0, 4, n) / 4 if coarse else rng.random(n)

    # candidates in rank order: id -> (unit, size); count and floor per unit
    candidates, count, floor = {}, {}, {}
    if mode == "layerwise":
        floors = Floors()
        report = fake_bi_report(shape, scores(shape.n_layers).tolist())
        for i in report.ranking:
            candidates[i] = (i, A.layer_param_count(shape, shape.layers[i]))
        for i in range(shape.n_layers):
            count[i], floor[i] = 1, int(i == shape.n_layers - 1)
    else:
        floors = Floors(min_heads=data.draw(st.integers(1, 3)),
                        min_channels=data.draw(st.none() | st.integers(1, 64)))
        groups = []
        for i, l in enumerate(shape.layers):
            for kind, n, width, least in (
                    ("attention-head", l.n_heads, shape.head_dim, floors.min_heads),
                    ("mlp-channel", l.d_ffn, 1, floors.resolved_channels(shape.head_dim))):
                groups += [I.PruneGroup(kind, i, k, width) for k in range(n)]
                count[i, kind], floor[i, kind] = n, least
        for g, score in zip(groups, scores(len(groups))):
            g.importance = float(score)
        report = I.GroupImportanceReport(groups=groups, shape=shape)
        for g in sorted(groups, key=lambda g: (g.importance, g.layer, g.kind, g.index)):
            candidates[g.gid] = ((g.layer, g.kind), A.group_param_count(shape, g.kind))

    total = A.decoder_param_count(shape)
    ratio = data.draw(st.floats(0.0, 0.99))
    budget = ratio * total
    most = sum(max(0, count[u] - floor[u]) * size for u, size in set(candidates.values()))
    if most < budget:
        with pytest.raises(InfeasiblePlanError, match=f"max achievable ratio {most / total:.4f}"):
            P.plan(mode, report, ratio, floors)
        return
    plan = P.plan(mode, report, ratio, floors)
    if mode == "layerwise":
        taken = plan.victims
        assert taken == sorted(taken)
    else:
        taken = [g.gid for g in plan.victims]
        assert plan.victims == sorted(plan.victims, key=lambda g: (g.layer, g.kind, g.index))
    left = dict(count)
    for v in taken:
        left[candidates[v][0]] -= 1
    assert all(left[u] == count[u] or left[u] >= floor[u] for u in count)
    assert plan.predicted_params_removed == sum(candidates[v][1] for v in taken)
    assert plan.predicted_params_removed >= budget
    if not taken:
        assert budget == 0
        return
    ranked = list(candidates)
    last = max(map({c: r for r, c in enumerate(ranked)}.get, taken))
    assert plan.predicted_params_removed - candidates[ranked[last]][1] < budget
    for c in set(ranked[:last]) - set(taken):
        unit = candidates[c][0]
        assert left[unit] <= floor[unit]


# ---------------------------------------------------------------- execution

def eval_logits(model, items):
    out = []
    with T.no_grad():
        for it in items:
            out.append(M.forward(model, it, capture=None).logits.data.copy())
    return out


def test_execute_masked_equivalence_widthwise():
    model, calib, train = scored_model()
    report = width_report(model, calib)
    plan = P.plan("widthwise", report, 0.30)
    items = train[:10]

    masked = model.copy()
    for g in plan.victims:
        zero_group(masked, g)
    surgical = model.copy()
    P.execute(surgical, plan)

    for a, b in zip(eval_logits(masked, items), eval_logits(surgical, items)):
        assert np.abs(a - b).max() <= 1e-5


def test_execute_zero_weight_victims_is_identity():
    model, calib, train = scored_model()
    groups = I.build_dependency_groups(model)
    victims = [g for g in groups if g.kind == "mlp-channel" and g.index < 8]
    for g in victims:
        zero_group(model, g)
    for g in groups:
        g.importance = 1.0
    for g in victims:
        g.importance = 0.0
    report = I.group_report(model, groups)
    target = sum(2 * model.config.d_model for _ in victims) / report_decoder_params(report)
    plan = P.plan("widthwise", report, target)
    assert {g.gid for g in plan.victims} == {g.gid for g in victims}

    items = train[:10]
    before = eval_logits(model, items)
    P.execute(model, plan)
    after = eval_logits(model, items)
    for a, b in zip(before, after):
        assert np.abs(a - b).max() <= 1e-5


def report_decoder_params(report):
    return A.decoder_param_count(report.shape)


def test_execute_layerwise_matches_block_skip_oracle():
    model, calib, train = scored_model()
    victim = 1
    # independent oracle: zeroing a block's two output projections makes it an
    # exact pass-through, which must equal removing the block outright
    skipped = model.copy()
    skipped.layers[victim].wo.data[...] = 0.0
    skipped.layers[victim].w_down.data[...] = 0.0

    surgical = model.copy()
    shape = A.shape_of(model)
    scores = [1.0] * model.n_layers
    scores[victim] = 0.0
    ratio = A.layer_param_count(shape, shape.layers[victim]) / A.decoder_param_count(shape)
    plan = P.plan("layerwise", fake_bi_report(shape, scores), ratio)
    assert plan.victims == [victim]
    P.execute(surgical, plan)
    assert surgical.n_layers == model.n_layers - 1

    items = train[:6]
    for a, b in zip(eval_logits(skipped, items), eval_logits(surgical, items)):
        np.testing.assert_array_equal(a, b)


def test_double_execute_raises():
    model, calib, _ = scored_model()
    report = width_report(model, calib)
    plan = P.plan("widthwise", report, 0.2)
    P.execute(model, plan)
    with pytest.raises(PlanModelMismatchError):
        P.execute(model, plan)


def test_conservation_exact():
    model, calib, _ = scored_model()
    for mode, target in (("widthwise", 0.3), ("layerwise", 0.2)):
        clone = model.copy()
        if mode == "widthwise":
            report = width_report(clone, calib)
        else:
            report = I.block_influence(clone, calib)
        before = count_params(clone, "decoder-blocks")
        result = P.execute(clone, P.plan(mode, report, target))
        after = count_params(clone, "decoder-blocks")
        assert before == after + sum(e["params_removed"] for e in result.surgery_log)


def test_monotone_resources():
    model, calib, _ = scored_model()
    prev_params, prev_flops = None, None
    for target in (0.15, 0.30, 0.45, 0.60):
        clone = model.copy()
        report = width_report(clone, calib)
        P.execute(clone, P.plan("widthwise", report, target))
        shape = A.shape_of(clone)
        params = A.decoder_param_count(shape)
        flops = A.estimate_flops(shape, 16)
        if prev_params is not None:
            assert params < prev_params and flops < prev_flops
        prev_params, prev_flops = params, flops


def test_pruned_model_still_forwards_and_matches_residual_width():
    model, calib, train = scored_model()
    report = width_report(model, calib)
    P.execute(model, P.plan("widthwise", report, 0.45))
    trace = M.forward(model, train[0])
    assert trace.logits.shape[1] == model.config.vocab_size
    for h in trace.hidden_states:
        assert h.shape[1] == model.config.d_model


# ------------------------------------------------- surgery properties

@functools.lru_cache(maxsize=None)
def surgery_base(kind):
    """A random-weight toy model, full or already widthwise-pruned to ragged
    per-layer widths; callers copy it."""
    model = M.init(ModelConfig(), seed=21)
    rng = np.random.default_rng(21)
    for _, p in model.named_parameters():
        if p.data.ndim == 2:
            p.data[...] = rng.standard_normal(p.data.shape) * 0.2
    if kind == "ragged":
        victims = floor_respecting_victims(
            lambda width, most: set(rng.choice(width, size=rng.integers(1, most + 1),
                                               replace=False).tolist()), model)
        P.execute(model, plan_removing(model, victims))
        assert len(set(model.layer_shapes())) == model.n_layers
    return model


def plan_removing(model, victims):
    """A widthwise plan whose victims are exactly `victims`."""
    shape = A.shape_of(model)
    removed = sum(A.group_param_count(shape, g.kind) for g in victims)
    total = A.decoder_param_count(shape)
    return P.PrunePlan(mode="widthwise", target_ratio=removed / total,
                       victims=sorted(victims, key=lambda g: (g.layer, g.kind, g.index)),
                       predicted_params_removed=removed, decoder_params=total,
                       fingerprint=tuple(model.layer_shapes()))


def floor_respecting_victims(pick, model):
    """Victim groups that leave each layer at least one head and head_dim
    channels, the default floors; pick(width, most) returns the indices to
    remove from a width, at most `most` of them."""
    groups = I.build_dependency_groups(model)
    floors = {"attention-head": 1, "mlp-channel": model.config.head_dim}
    victims = []
    for i, layer in enumerate(model.layers):
        for kind, width in (("attention-head", layer.n_heads), ("mlp-channel", layer.d_ffn)):
            picked = pick(width, width - floors[kind])
            victims += [g for g in groups
                        if g.layer == i and g.kind == kind and g.index in picked]
    return victims


def all_logits(model, items):
    """Logits of each layout bucket, then of each item alone: BLAS may round a
    one-item forward differently when a weight is not C-ordered."""
    batches = [[items[i] for i in idx] for idx in M.layout_buckets(items)]
    with T.no_grad():
        return [M.forward(model, batch, capture=None).logits.data
                for batch in batches + [[it] for it in items]]


@pytest.mark.parametrize("kind", ["full", "ragged"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_surgery_properties_on_random_feasible_victims(kind, data):
    base = surgery_base(kind)
    victims = floor_respecting_victims(
        lambda width, most: data.draw(st.sets(st.integers(0, width - 1), max_size=most)), base)
    items = D.generate_dataset(n=40, seed=5)[0][:12]

    # Masked equivalence in float64: in float32 the two summation orders
    # differ by up to ~30 eps of the largest logit, which hides nothing.
    masked = float64_copy(base)
    for g in victims:
        zero_group(masked, g)
    pruned = float64_copy(base)
    P.execute(pruned, plan_removing(pruned, victims))
    for a, b in zip(all_logits(masked, items), all_logits(pruned, items)):
        assert np.abs(a - b).max() <= 1e-9

    pruned = base.copy()
    before = count_params(pruned, "decoder-blocks")
    plan = plan_removing(pruned, victims)
    result = P.execute(pruned, plan)
    removed = before - count_params(pruned, "decoder-blocks")
    assert removed == sum(e["params_removed"] for e in result.surgery_log)
    assert removed == plan.predicted_params_removed
    assert all(p.data.flags.c_contiguous for _, p in pruned.named_parameters())

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pruned.ckpt")
        C.save(pruned, path)
        loaded, _ = C.load(path)
    assert loaded.layer_shapes() == pruned.layer_shapes()
    for a, b in zip(all_logits(loaded, items), all_logits(pruned, items)):
        assert a.tobytes() == b.tobytes()
