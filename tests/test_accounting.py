"""Parameter/FLOPs accounting: closed forms, anchors, monotonicity."""

import numpy as np
import pytest

from prunekit import accounting as A
from prunekit import model as M
from prunekit.accounting import LayerShape, ShapeRecord
from prunekit.model import ModelConfig
from prunekit.tensor import ParameterError

from conftest import count_params, llava_7b_shape, param_counts


def test_flops_anchor_7b_shape():
    shape = llava_7b_shape()
    est = A.estimate_flops(shape, 576 + 50)
    assert abs(est - 9.57e12) / 9.57e12 <= 0.15


def test_flops_anchor_7b_shape_at_30_percent_widthwise():
    shape = llava_7b_shape()
    pruned = A.scale_shape_widthwise(shape, 0.30)
    removed = 1 - A.decoder_param_count(pruned) / A.decoder_param_count(shape)
    assert abs(removed - 0.30) < 0.005
    est = A.estimate_flops(pruned, 576 + 50)
    assert abs(est - 6.89e12) / 6.89e12 <= 0.15


def test_flops_degenerate_zero_layers():
    shape = ShapeRecord(d_model=64, vocab_size=50, head_dim=8, layers=(),
                        n_visual_tokens=4, d_vision=32, d_descriptor=16)
    est = A.estimate_flops(shape, 10)
    head = 2 * 10 * 64 * 50
    projector = 2 * 4 * (32 * 64 + 64 * 64)
    vision = 2 * 16 * 4 * 32
    assert est == head + projector + vision


def test_flops_and_params_strictly_decrease_with_ratio():
    shape = A.shape_of_config(ModelConfig())
    prev_p = A.decoder_param_count(shape)
    prev_f = A.estimate_flops(shape, 16)
    for ratio in (0.15, 0.30, 0.45, 0.60):
        s = A.scale_shape_widthwise(shape, ratio)
        p, f = A.decoder_param_count(s), A.estimate_flops(s, 16)
        assert p < prev_p and f < prev_f
        prev_p, prev_f = p, f


def test_scale_widthwise_hits_targets_closely():
    shape = A.shape_of_config(ModelConfig())
    for ratio in (0.15, 0.30, 0.45, 0.60):
        s = A.scale_shape_widthwise(shape, ratio)
        removed = 1 - A.decoder_param_count(s) / A.decoder_param_count(shape)
        assert abs(removed - ratio) <= 0.02


def test_scale_layerwise_removes_whole_layers():
    shape = A.shape_of_config(ModelConfig(n_layers=8))
    s = A.scale_shape_layerwise(shape, 0.25)
    assert s.n_layers == 6
    assert all(l == shape.layers[0] for l in s.layers)


def test_count_params_matches_closed_form_per_scope():
    cfg = ModelConfig()
    model = M.init(cfg, seed=1)
    closed = param_counts(A.shape_of(model))
    assert count_params(model, "decoder-blocks") == closed["decoder-blocks"]
    assert count_params(model, "projector") == closed["projector"]
    assert count_params(model) == closed["total"]
    with pytest.raises(ParameterError):
        count_params(model, "nonsense")


def test_layer_param_count_formula():
    shape = ShapeRecord(d_model=64, vocab_size=64, head_dim=16,
                        layers=(LayerShape(4, 256),), n_visual_tokens=4,
                        d_vision=32, d_descriptor=16)
    # 4 projections of 64x64, 2 MLP mats of 64x256, 2 gains of 64
    assert A.layer_param_count(shape, shape.layers[0]) == 4 * 64 * 64 + 2 * 64 * 256 + 2 * 64


def test_shape_of_model_tracks_per_layer_shapes():
    model = M.init(ModelConfig(), seed=0)
    arrays = {name: p.data for name, p in model.named_parameters()}
    heads, channels = slice(0, 5 * model.config.head_dim), slice(0, 90)
    for key in ("wq", "wk", "wv"):
        arrays[f"layers.1.attn.{key}"] = arrays[f"layers.1.attn.{key}"][heads]
    arrays["layers.1.attn.wo"] = arrays["layers.1.attn.wo"][:, heads]
    arrays["layers.1.mlp.up"] = arrays["layers.1.mlp.up"][channels]
    arrays["layers.1.mlp.down"] = arrays["layers.1.mlp.down"][:, channels]
    shape = A.shape_of(M.from_arrays(model.config, arrays))
    assert shape.layers[1] == LayerShape(5, 90)
    assert shape.layers[0] == LayerShape(8, 128)
