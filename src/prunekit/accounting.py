"""Closed-form parameter and FLOPs accounting over model shape records.

One multiply-accumulate counts as 2 FLOPs. The per-term formulas are listed
in docs/flops.md. Estimates skip the attention-times-values product,
softmax, normalization, rotary, residual and activation arithmetic:
docs/flops.md counts them at 4.7% of the estimate for a 7-token item of
the toy shape, 15% at its advisor length of 54 tokens, and 1.2% at the 7B
reference shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .tensor import ParameterError


@dataclass(frozen=True)
class LayerShape:
    n_heads: int
    d_ffn: int


@dataclass(frozen=True)
class ShapeRecord:
    """Everything the accounting formulas need to size a model."""
    d_model: int
    vocab_size: int
    head_dim: int
    layers: tuple
    n_visual_tokens: int
    d_vision: int
    d_descriptor: int
    ffn_matrices: int = 2
    vision_flops_override: float | None = None

    @property
    def n_layers(self):
        return len(self.layers)


def shape_of(model):
    return replace(shape_of_config(model.config),
                   layers=tuple(LayerShape(nh, ff) for nh, ff in model.layer_shapes()))


def shape_of_config(config):
    return ShapeRecord(
        d_model=config.d_model,
        vocab_size=config.vocab_size,
        head_dim=config.head_dim,
        layers=tuple(LayerShape(config.n_heads, config.d_ffn)
                     for _ in range(config.n_layers)),
        n_visual_tokens=config.n_visual_tokens,
        d_vision=config.d_vision,
        d_descriptor=config.d_descriptor,
    )


def group_param_count(shape, kind):
    """Parameters in one widthwise prune group: an attention head's q/k/v
    output rows plus its o-projection input columns, or an MLP channel's row
    or column of each ffn matrix."""
    if kind == "attention-head":
        return 4 * shape.d_model * shape.head_dim
    if kind == "mlp-channel":
        return shape.ffn_matrices * shape.d_model
    raise ParameterError(f"unknown group kind {kind!r}")


def layer_param_count(shape, layer):
    """A decoder block's heads and channels plus its two norm gains."""
    return (layer.n_heads * group_param_count(shape, "attention-head")
            + layer.d_ffn * group_param_count(shape, "mlp-channel")
            + 2 * shape.d_model)


def decoder_param_count(shape):
    """Prunable decoder mass: transformer-block parameters only."""
    return sum(layer_param_count(shape, layer) for layer in shape.layers)


def layer_flops(shape, layer, seq_len):
    d = shape.d_model
    width = layer.n_heads * shape.head_dim
    attn_proj = 2 * seq_len * 4 * d * width
    attn_scores = 2 * seq_len * seq_len * width
    mlp = 2 * seq_len * shape.ffn_matrices * d * layer.d_ffn
    return attn_proj + attn_scores + mlp


def estimate_flops(shape, seq_len):
    """Forward-pass FLOPs for one sequence of seq_len tokens."""
    if seq_len < 1:
        raise ParameterError("seq_len must be >= 1")
    d = shape.d_model
    blocks = sum(layer_flops(shape, layer, seq_len) for layer in shape.layers)
    head = 2 * seq_len * d * shape.vocab_size
    projector = 2 * shape.n_visual_tokens * (shape.d_vision * d + d * d)
    if shape.vision_flops_override is not None:
        vision = shape.vision_flops_override
    else:
        vision = 2 * shape.d_descriptor * shape.n_visual_tokens * shape.d_vision
    return blocks + head + projector + vision


def scale_shape_widthwise(shape, ratio):
    """Predict the per-layer shape after removing `ratio` of block params widthwise.

    Heads scale proportionally; the ffn width absorbs head-rounding so each
    layer's parameter count lands as close to (1-ratio) of the original as
    integer granularity allows. Floors: >= 1 head, >= head_dim channels.
    """
    if not (0 < ratio < 1):
        raise ParameterError(f"ratio must be in (0,1), got {ratio}")
    d = shape.d_model
    new_layers = []
    for layer in shape.layers:
        total = layer_param_count(shape, layer)
        prunable = total - 2 * d
        target_prunable = prunable - ratio * total
        nh = max(1, round(layer.n_heads * (1 - ratio)))
        attn = nh * group_param_count(shape, "attention-head")
        ffn = round((target_prunable - attn) / group_param_count(shape, "mlp-channel"))
        ffn = max(shape.head_dim, ffn)
        new_layers.append(LayerShape(nh, ffn))
    return replace(shape, layers=tuple(new_layers))


def scale_shape_layerwise(shape, ratio):
    """Predict the shape after removing the fewest whole layers reaching `ratio`."""
    if not (0 < ratio < 1):
        raise ParameterError(f"ratio must be in (0,1), got {ratio}")
    total = decoder_param_count(shape)
    sizes = [layer_param_count(shape, layer) for layer in shape.layers]
    removed = 0
    kept = list(shape.layers)
    # Uniform-importance assumption: drop from the front, never the last layer.
    i = 0
    while removed < ratio * total and len(kept) > 1 and i < len(sizes) - 1:
        removed += sizes[i]
        kept.pop(0)
        i += 1
    return replace(shape, layers=tuple(kept))


def llava_7b_shape():
    """Reference 7B-scale shape used by the FLOPs anchor checks.

    The decoder mirrors a Vicuna-7B stack (gated 3-matrix MLP); the vision
    term is a ViT-L/14-336-shaped tower (24 layers, d=1024, 16 heads,
    ffn=4096, 577 tokens) costed with the same per-layer formula.
    """
    decoder = ShapeRecord(
        d_model=4096, vocab_size=32000, head_dim=128,
        layers=(LayerShape(32, 11008),) * 32,
        n_visual_tokens=576, d_vision=1024, d_descriptor=1024, ffn_matrices=3)
    tower = replace(decoder, d_model=1024, head_dim=64, ffn_matrices=2)
    vision = 24 * layer_flops(tower, LayerShape(16, 4096), seq_len=577)
    return replace(decoder, vision_flops_override=float(vision))
