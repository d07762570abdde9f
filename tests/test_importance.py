"""Importance scoring: BI against a per-token loop oracle, Taylor against brute force."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from prunekit import accounting as A
from prunekit import data as D
from prunekit import importance as I
from prunekit import model as M
from prunekit import pruning as P
from prunekit import tensor as T
from prunekit.importance import NonFiniteGradientError
from prunekit.model import ModelConfig

from conftest import float64_copy, group_scale_sensitivity, group_slices, \
    lookup_trained_tiny_model, quick_sgd, zero_group


def tiny_config(**kw):
    base = dict(vocab_size=40, d_model=16, n_layers=1, n_heads=2, head_dim=8,
                d_ffn=8, n_visual_tokens=2, d_vision=8, max_seq_len=16)
    base.update(kw)
    return ModelConfig(**base)


def calib_items(n=2, seed=0):
    train, _ = D.generate_dataset(n=60, seed=seed)
    return D.draw_calibration(train, n=n, seed=seed)


# ------------------------------------------------------------ block influence

def test_bi_pass_through_layer_scores_zero(rng):
    cfg = ModelConfig()
    model = M.init(cfg, seed=1)
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    model.layers[2].wo.data[...] = 0.0
    model.layers[2].w_down.data[...] = 0.0
    report = I.block_influence(model, calib_items(n=3))
    assert abs(report.scores[2]) <= 1e-6
    assert all(s > 1e-6 for i, s in enumerate(report.scores) if i != 2)


def test_bi_antiparallel_states_score_two(rng):
    h = rng.standard_normal((5, 8))
    score, used, skipped = I.bi_from_state_pairs([(h, -h)])
    assert abs(score - 2.0) <= 1e-6
    assert used == 5 and skipped == 0


def test_bi_zero_norm_rows_excluded_with_count(rng):
    h_in = rng.standard_normal((4, 8))
    h_out = h_in.copy()
    h_in[1, :] = 0.0
    score, used, skipped = I.bi_from_state_pairs([(h_in, h_out)])
    assert skipped == 1 and used == 3
    assert abs(score) <= 1e-6


def test_bi_matches_per_token_loop_oracle(rng):
    cfg = ModelConfig()
    model = M.init(cfg, seed=3)
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    calib = calib_items(n=2)
    report = I.block_influence(model, calib)

    # independent reduction: explicit python loops over triplets, layers, tokens
    for layer in range(model.n_layers):
        sims, count = 0.0, 0
        for item in calib:
            with T.no_grad():
                trace = M.forward(model, item, capture="all")
            h_in = trace.hidden_states[layer].data
            h_out = trace.hidden_states[layer + 1].data
            for t in range(h_in.shape[0]):
                a, b = h_in[t].astype(np.float64), h_out[t].astype(np.float64)
                na, nb = np.sqrt((a * a).sum()), np.sqrt((b * b).sum())
                if na == 0 or nb == 0:
                    continue
                sims += float((a * b).sum() / (na * nb))
                count += 1
        assert abs(report.scores[layer] - (1.0 - sims / count)) <= 1e-6


def test_bi_range_and_ranking(rng):
    model = M.init(ModelConfig(), seed=8)
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    report = I.block_influence(model, calib_items(n=3))
    assert all(0.0 <= s <= 2.0 for s in report.scores)
    assert sorted(report.ranking) == list(range(model.n_layers))
    assert report.scores[report.ranking[0]] == min(report.scores)


# ------------------------------------------------------------ dependency groups

def test_group_count_matches_structure():
    cfg = ModelConfig(vocab_size=256, d_model=64, n_layers=2, n_heads=4, head_dim=16,
                      d_ffn=256, n_visual_tokens=8)
    model = M.init(cfg, seed=0)
    groups = I.build_dependency_groups(model)
    assert len(groups) == 2 * (4 + 256)


def test_head_group_slice_structure():
    cfg = ModelConfig(vocab_size=256, d_model=64, n_layers=2, n_heads=4, head_dim=16,
                      d_ffn=256, n_visual_tokens=8)
    model = M.init(cfg, seed=0)
    head0 = next(g for g in I.build_dependency_groups(model)
                 if g.kind == "attention-head" and g.layer == 0 and g.index == 0)
    out_slices = [s for s in group_slices(head0) if s.axis == 0]
    in_slices = [s for s in group_slices(head0) if s.axis == 1]
    assert len(out_slices) == 3 and all(s.stop - s.start == 16 for s in out_slices)
    assert len(in_slices) == 1 and in_slices[0].stop - in_slices[0].start == 16
    assert in_slices[0].param.endswith("attn.wo")
    assert A.group_param_count(A.shape_of(model), head0.kind) == 4 * 16 * 64


def test_groups_cover_every_inner_index_once():
    full = M.init(ModelConfig(), seed=0)
    ragged = full.copy()
    groups = I.build_dependency_groups(ragged)
    for g, score in zip(groups, np.random.default_rng(0).random(len(groups))):
        g.importance = float(score)
    P.execute(ragged, P.plan("widthwise", I.group_report(ragged, groups), 0.4))
    assert len(set(ragged.layer_shapes())) == ragged.n_layers
    for model in (full, ragged):
        groups = I.build_dependency_groups(model)
        for i, layer in enumerate(model.layers):
            heads = sorted(g.index for g in groups if g.layer == i and g.kind == "attention-head")
            chans = sorted(g.index for g in groups if g.layer == i and g.kind == "mlp-channel")
            assert heads == list(range(layer.n_heads))
            assert chans == list(range(layer.d_ffn))
        # each kind's slices tile the owned axis of every member matrix exactly
        spans = {}
        for g in groups:
            for s in group_slices(g):
                spans.setdefault((g.kind, s.param, s.axis), []).append((s.start, s.stop))
        assert set(spans) == {(kind, f"layers.{i}.{m}", axis) for i in range(model.n_layers)
                              for kind, m, axis in (("attention-head", "attn.wq", 0),
                                                    ("attention-head", "attn.wk", 0),
                                                    ("attention-head", "attn.wv", 0),
                                                    ("attention-head", "attn.wo", 1),
                                                    ("mlp-channel", "mlp.up", 0),
                                                    ("mlp-channel", "mlp.down", 1))}
        by_name = dict(model.named_parameters())
        for (_, name, axis), ranges in spans.items():
            covered = np.concatenate([np.arange(a, b) for a, b in sorted(ranges)])
            np.testing.assert_array_equal(covered, np.arange(by_name[name].data.shape[axis]))


# ------------------------------------------------------------ taylor importance

def test_zero_weight_group_has_zero_importance(rng):
    model = M.init(ModelConfig(), seed=2)
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    groups = I.build_dependency_groups(model)
    target = groups[0]
    zero_group(model, target)
    I.taylor_group_importance(model, groups, calib_items(n=2))
    assert target.importance == 0.0
    assert any(g.importance > 0 for g in groups)


def test_duplicated_calibration_set_gives_identical_importances():
    model = M.init(ModelConfig(), seed=4)
    quick_sgd(model, calib_items(n=8, seed=1), steps=30, lr=0.05)
    groups_a = I.build_dependency_groups(model)
    groups_b = I.build_dependency_groups(model)
    calib = calib_items(n=3, seed=2)
    I.taylor_group_importance(model, groups_a, calib)
    I.taylor_group_importance(model, groups_b, calib + calib)
    for a, b in zip(groups_a, groups_b):
        assert abs(a.importance - b.importance) <= 1e-6 * max(1.0, abs(a.importance))


def per_slice_taylor_oracle(model, groups, calib):
    """The straight per-group, per-slice loop over one backward per item."""
    by_name = dict(model.named_parameters())
    acc = np.zeros(len(groups))
    for item in calib:
        grad = dict(zip(by_name, T.backward(
            M.response_loss(M.forward(model, item, capture=None), item), by_name.values())))
        for gi, group in enumerate(groups):
            for sl in group_slices(group):
                if grad[sl.param] is not None:
                    acc[gi] += float(np.abs(sl.take(grad[sl.param])
                                            * sl.take(by_name[sl.param].data)).sum())
    return acc / len(calib)


def test_taylor_matches_per_slice_loop_oracle(rng):
    model = M.init(ModelConfig(), seed=6)
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    calib = calib_items(n=28, seed=5)
    # both layouts, several chunks, and chunks of different sizes
    chunks = M.layout_buckets(calib, size=I.TAYLOR_CHUNK_SIZE)
    assert len({len(it.x_p) for it in calib}) == 2
    assert len(chunks) >= 4 and len({len(c) for c in chunks}) >= 2
    groups = I.build_dependency_groups(model)
    I.taylor_group_importance(model, groups, calib)
    np.testing.assert_allclose([g.importance for g in groups],
                               per_slice_taylor_oracle(model, groups, calib), rtol=1e-5)

    # ragged widths after surgery, and a shuffled subset of groups
    P.execute(model, P.plan("widthwise", I.group_report(model, groups), 0.3))
    groups = I.build_dependency_groups(model)
    subset = [groups[i] for i in rng.permutation(len(groups))[:50]]
    I.taylor_group_importance(model, subset, calib)
    np.testing.assert_allclose([g.importance for g in subset],
                               per_slice_taylor_oracle(model, subset, calib), rtol=1e-5)


def test_taylor_rejects_grouped_matrix_behind_lora():
    from prunekit import recovery as R

    model = M.init(ModelConfig(n_layers=1), seed=0)
    R.attach_lora(model)
    groups = I.build_dependency_groups(model)
    with pytest.raises(T.GraphError, match="wq"):
        I.taylor_group_importance(model, groups, calib_items(n=2))


def test_scale_sensitivity_matches_per_item_loop(rng):
    model = float64_copy(M.init(ModelConfig(), seed=9))
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    calib = calib_items(n=40, seed=4)
    assert len({len(it.x_p) for it in calib}) == 2
    by_name = dict(model.named_parameters())
    groups = I.build_dependency_groups(model)
    picked = [groups[0], groups[-1]]
    want = np.zeros(len(picked))
    for item in calib:
        grad = dict(zip(by_name, T.backward(
            M.response_loss(M.forward(model, item, capture=None), item), by_name.values())))
        for k, group in enumerate(picked):
            want[k] += sum(float((sl.take(grad[sl.param])
                                  * sl.take(by_name[sl.param].data)).sum())
                           for sl in group_slices(group))
    got = [group_scale_sensitivity(model, g, calib) for g in picked]
    np.testing.assert_allclose(got, want / len(calib), rtol=1e-9)


def test_taylor_matches_leave_one_group_out_spearman():
    model, _, calib = lookup_trained_tiny_model()
    groups = [g for g in I.build_dependency_groups(model) if g.kind == "mlp-channel"]
    assert len(groups) == 8
    I.taylor_group_importance(model, groups, calib)

    def calib_loss(m):
        with T.no_grad():
            return float(np.mean([M.response_loss(M.forward(m, it, capture=None), it).item()
                                  for it in calib]))

    base = calib_loss(model)
    deltas = []
    for g in groups:
        clone = model.copy()
        zero_group(clone, g)
        deltas.append(calib_loss(clone) - base)

    rho = stats.spearmanr([g.importance for g in groups], deltas).statistic
    assert rho >= 0.7, f"spearman {rho:.3f} < 0.7"


def test_first_order_scaling_converges():
    cfg = tiny_config()
    model = float64_copy(M.init(cfg, seed=5))
    train, _ = D.generate_dataset(n=90, seed=7)
    quick_sgd(model, train, steps=200, lr=0.1)
    calib = D.draw_calibration(train, n=6, seed=3)
    groups = [g for g in I.build_dependency_groups(model) if g.kind == "mlp-channel"]
    I.taylor_group_importance(model, groups, calib)

    # strongest scale-sensitivity channel: the cleanest first-order signal
    sens = {g.gid: group_scale_sensitivity(model, g, calib) for g in groups}
    target = max(groups, key=lambda g: abs(sens[g.gid]))
    s = sens[target.gid]

    def calib_loss(m):
        with T.no_grad():
            return float(np.mean([M.response_loss(M.forward(m, it, capture=None), it).item()
                                  for it in calib]))

    base = calib_loss(model)
    rates = {}
    for eps in (1e-3, 1e-4):
        clone = model.copy()
        by_name = dict(clone.named_parameters())
        for sl in group_slices(target):
            arr = by_name[sl.param].data
            idx = tuple(slice(sl.start, sl.stop) if a == sl.axis else slice(None)
                        for a in range(arr.ndim))
            arr[idx] *= (1.0 - eps)
        rates[eps] = (calib_loss(clone) - base) / eps

    # w -> (1-eps)w perturbs by -eps*w, so dLoss/deps converges to -S
    assert abs(rates[1e-3] - rates[1e-4]) <= 0.10 * max(abs(rates[1e-3]), abs(rates[1e-4]))
    assert abs(rates[1e-4] + s) <= 0.10 * abs(s)
    # the group importance (sum of |grad*w|) upper-bounds the signed magnitude
    assert target.importance >= abs(s) - 1e-9


def test_nonfinite_gradient_aborts_with_param_name():
    model = M.init(ModelConfig(), seed=0)
    model.layers[1].w_up.data[0, 0] = np.nan
    groups = I.build_dependency_groups(model)
    with pytest.raises(NonFiniteGradientError):
        I.taylor_group_importance(model, groups, calib_items(n=1))


def test_importance_records_export():
    model = M.init(ModelConfig(n_layers=1), seed=0)
    groups = I.build_dependency_groups(model)
    I.taylor_group_importance(model, groups, calib_items(n=1))
    recs = I.importance_records(groups)
    assert len(recs) == len(groups)
    assert {"id", "kind", "layer", "index", "score"} <= set(recs[0])
