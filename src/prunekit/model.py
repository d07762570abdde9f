"""Toy multimodal decoder LM: frozen vision stub, mlp2x-gelu projector, pre-norm decoder.

The decoder is a stack of pre-norm transformer blocks (RMS norm, rotary q/k,
causal attention, GELU MLP, no biases) over a token stream laid out as
[visual tokens | prompt tokens | response tokens]. Per-block hidden states are
traced so importance scoring and hidden-state distillation can read them.

A forward runs a batch of items that share one token layout, stacked as
(B*T, width) rows; `layout_buckets` splits any item list into such batches.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import GraphError, ParameterError, Tensor


class SequenceLengthError(ParameterError):
    """The assembled token sequence exceeds the model's max_seq_len."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 64
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 8
    head_dim: int = 8
    d_ffn: int = 128
    n_visual_tokens: int = 4
    d_vision: int = 32
    d_descriptor: int = 40
    max_seq_len: int = 32
    rms_eps: float = 1e-6

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "head_dim",
                     "d_ffn", "n_visual_tokens", "d_vision", "d_descriptor", "max_seq_len"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ParameterError(f"ModelConfig.{name} must be an integer >= 1, "
                                     f"got {value!r}")
        if self.n_heads * self.head_dim != self.d_model:
            raise ParameterError(
                f"n_heads*head_dim must equal d_model at construction: "
                f"{self.n_heads}*{self.head_dim} != {self.d_model}")
        if self.head_dim % 2 != 0:
            raise ParameterError("head_dim must be even (rotary embedding pairs)")
        if type(self.rms_eps) not in (int, float) or not self.rms_eps > 0:
            raise ParameterError(f"ModelConfig.rms_eps must be a number > 0, "
                                 f"got {self.rms_eps!r}")


@dataclass(frozen=True)
class Triplet:
    """One sample: synthetic image descriptor, prompt ids, response ids."""
    x_v: np.ndarray
    x_p: tuple
    x_r: tuple
    task: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.x_r) == 0:
            raise ParameterError("Triplet: response must be nonempty")


@dataclass(frozen=True)
class TokenLayout:
    n_visual: int
    n_prompt: int
    n_response: int

    @property
    def total(self):
        return self.n_visual + self.n_prompt + self.n_response

    @property
    def loss_rows(self):
        """Logit-row slice predicting the response tokens (teacher forcing)."""
        start = self.n_visual + self.n_prompt - 1
        return start, start + self.n_response


# Largest number of items one batched forward stacks. Bigger batches save
# little dispatch and hold more activations at once.
BUCKET_SIZE = 32


@dataclass
class ForwardTrace:
    """hidden_states[0] is the stream entering block 1, hidden_states[i] the
    output of block i (1-based); every entry is None unless captured.

    Every tensor stacks n_items sequences of layout.total rows each."""
    hidden_states: list
    logits: Tensor
    layout: TokenLayout
    n_items: int = 1


def response_rows(trace, x):
    """The rows of a stacked (n_items*T, width) tensor that predict response
    tokens, as (n_items*n_response, width) in item order."""
    lo, hi = trace.layout.loss_rows
    b, total = trace.n_items, trace.layout.total
    if x.shape[0] != b * total:
        raise GraphError(f"response_rows: {x.shape[0]} rows, but the trace holds "
                         f"{b} items of {total} rows")
    per_item = T.reshape(x, (b, total, x.shape[1]))
    return T.reshape(T.slice_rows(per_item, lo, hi, axis=1), (b * (hi - lo), x.shape[1]))


def as_items(items):
    """A bare Triplet as a one-item list; any other sequence of triplets as a list."""
    return [items] if isinstance(items, Triplet) else list(items)


def layout_of(triplet, config, response=True):
    """The token layout `forward` gives `triplet` under `config`; without the
    response when `response` is False."""
    return TokenLayout(config.n_visual_tokens, len(triplet.x_p),
                       len(triplet.x_r) if response else 0)


def layout_buckets(items, size=BUCKET_SIZE):
    """Indices of `items` grouped by prompt and response length, in order of
    first appearance, each group cut into runs of at most `size`."""
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault((len(item.x_p), len(item.x_r)), []).append(i)
    return [idx[lo:lo + size] for idx in groups.values()
            for lo in range(0, len(idx), size)]


# The only parameter no training updates.
_FROZEN = "vision.w"


def _layout(config, widths):
    """(name, layer index or None for the model, attribute, shape) of every
    parameter, in named_parameters order; `widths` holds each block's
    (n_heads, d_ffn)."""
    d, v, dv = config.d_model, config.vocab_size, config.d_vision
    out = [("vision.w", None, "vision_w", (config.n_visual_tokens * dv, config.d_descriptor)),
           ("projector.w1", None, "proj_w1", (d, dv)), ("projector.b1", None, "proj_b1", (d,)),
           ("projector.w2", None, "proj_w2", (d, d)), ("projector.b2", None, "proj_b2", (d,)),
           ("embed.w", None, "embed", (v, d))]
    for i, (n_heads, d_ffn) in enumerate(widths):
        width = n_heads * config.head_dim
        out += [(f"layers.{i}.{name}", i, attr, shape) for name, attr, shape in (
            ("attn.gain", "attn_gain", (d,)), ("attn.wq", "wq", (width, d)),
            ("attn.wk", "wk", (width, d)), ("attn.wv", "wv", (width, d)),
            ("attn.wo", "wo", (d, width)), ("mlp.gain", "mlp_gain", (d,)),
            ("mlp.up", "w_up", (d_ffn, d)), ("mlp.down", "w_down", (d, d_ffn)))]
    return out + [("final_norm.g", None, "final_gain", (d,)), ("head.w", None, "head_w", (v, d))]


class DecoderLayer:
    """One block's weights (set by `from_arrays`); its widths are read off them."""

    def __init__(self, head_dim):
        self.head_dim = head_dim

    @property
    def n_heads(self):
        return self.wq.data.shape[0] // self.head_dim

    @property
    def d_ffn(self):
        return self.w_up.data.shape[0]


class Model:
    """Parameter container built by `from_arrays`; forward lives in `forward` below."""

    def __init__(self, config, layers):
        self.config = config
        self.layers = layers
        self.lora = {}

    @property
    def n_layers(self):
        return len(self.layers)

    def named_parameters(self):
        """Deterministic (name, Tensor) listing of every parameter."""
        return [(name, getattr(self if i is None else self.layers[i], attr))
                for name, i, attr, _ in _layout(self.config, self.layer_shapes())]

    def get_parameter(self, name):
        for n, p in self.named_parameters():
            if n == name:
                return p
        raise KeyError(name)

    def layer_shapes(self):
        return [(layer.n_heads, layer.d_ffn) for layer in self.layers]

    def copy(self):
        """Independent deep copy (fresh leaf tensors, no shared arrays)."""
        return from_arrays(self.config, {n: p.data.copy() for n, p in self.named_parameters()})

    def checksum(self):
        """CRC32 over all parameter bytes, in named_parameters order."""
        c = 0
        for _, p in self.named_parameters():
            c = zlib.crc32(np.ascontiguousarray(p.data).tobytes(), c)
        return c


def _rows(arrays, name):
    if name not in arrays:
        raise ParameterError(f"missing tensor {name}")
    return np.shape(arrays[name])[0] if np.ndim(arrays[name]) else 0


def from_arrays(config, arrays):
    """Build a Model from `arrays`, a map from every parameter name to its values.

    The block count is read off the "layers.<i>." names, and each block's
    widths off its arrays: wq rows // head_dim heads and up rows channels.
    Each array becomes a fresh leaf tensor that owns it and keeps its float
    dtype; every parameter but the vision stub is trainable. Raises
    ParameterError naming a missing, extra or misshapen tensor, or a block
    with no head or no channel.
    """
    n_layers = len({name.split(".")[1] for name in arrays if name.startswith("layers.")})
    widths = [(_rows(arrays, f"layers.{i}.attn.wq") // config.head_dim,
               _rows(arrays, f"layers.{i}.mlp.up")) for i in range(n_layers)]
    for i, (n_heads, d_ffn) in enumerate(widths):
        if n_heads < 1 or d_ffn < 1:
            raise ParameterError(f"block {i} has {n_heads} heads and {d_ffn} MLP channels")
    model = Model(config, [DecoderLayer(config.head_dim) for _ in widths])
    layout = _layout(config, widths)
    for name, i, attr, shape in layout:
        if name not in arrays:
            raise ParameterError(f"missing tensor {name}")
        tensor = Tensor(arrays[name], requires_grad=name != _FROZEN)
        if tensor.data.shape != shape:
            raise ParameterError(
                f"tensor {name} has shape {list(tensor.data.shape)}, expected {list(shape)}")
        setattr(model if i is None else model.layers[i], attr, tensor)
    extra = set(arrays) - {name for name, _, _, _ in layout}
    if extra:
        raise ParameterError(f"unexpected extra tensors {sorted(extra)}")
    return model


def init(config, seed):
    """Deterministic initialization: N(0, 0.02^2) weights, unit gains, zero biases.

    The output head starts at zero (logits exactly uniform until the first
    update) and the frozen vision stub at scale 0.5 so unit-norm descriptors
    produce O(1) features. Weights are drawn in named_parameters order and
    stored as float32.
    """
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, _, attr, shape in _layout(config, [(config.n_heads, config.d_ffn)] * config.n_layers):
        if attr.endswith("gain"):
            arrays[name] = np.ones(shape)
        elif len(shape) == 1 or name == "head.w":
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.standard_normal(shape) * (0.5 if name == "vision.w" else 0.02)
    return from_arrays(config, {name: a.astype(np.float32) for name, a in arrays.items()})


# The one LoRA recipe of joint recovery: the projections `_block_forward`
# adds an attached adapter's delta to, the adapter rank and its scaling.
LORA_TARGETS = ("wq", "wv")
LORA_RANK = 8
LORA_SCALING = 16.0


def _effective_weight(model, name, param):
    """Base weight, or base + LORA_SCALING*B@A while a LoRA adapter is attached."""
    adapter = model.lora.get(name)
    if adapter is None:
        return param
    return T.add(param, T.scale(T.matmul(adapter.b, adapter.a), LORA_SCALING))


def _block_forward(model, i, layer, h, seq_len):
    cfg = model.config
    x = T.rms_norm(h, layer.attn_gain, cfg.rms_eps)
    wq = _effective_weight(model, f"layers.{i}.attn.wq", layer.wq)
    wv = _effective_weight(model, f"layers.{i}.attn.wv", layer.wv)
    q = T.rope(T.linear(x, wq), layer.n_heads, seq_len)
    k = T.rope(T.linear(x, layer.wk), layer.n_heads, seq_len)
    v = T.linear(x, wv)
    attn = T.linear(T.causal_attention(q, k, v, layer.n_heads, seq_len), layer.wo)
    h = T.add(h, attn)
    m = T.rms_norm(h, layer.mlp_gain, cfg.rms_eps)
    m = T.linear(T.gelu(T.linear(m, layer.w_up)), layer.w_down)
    return T.add(h, m)


def forward(model, items, capture="all", response=True):
    """Teacher-forced forward over [visual | prompt | response]; returns a ForwardTrace.

    items: one Triplet, or a list of triplets sharing one token layout, which
    run stacked as (B*T, width) rows. A single Triplet is B=1.
    capture: "all" keeps every per-block hidden state; None keeps none.
    response: False runs [visual | prompt] only, under a layout with no
    response rows. Attention is causal, so these are the full stream's first
    rows; the last of them predicts the first response token.
    """
    cfg = model.config
    items = as_items(items)
    if not items:
        raise ParameterError("forward: no items")
    layout = layout_of(items[0], cfg, response)
    for item in items:
        if layout_of(item, cfg, response) != layout:
            raise ParameterError(
                f"forward: items mix token layouts {layout} and "
                f"{layout_of(item, cfg, response)}")
    if layout.total > cfg.max_seq_len:
        raise SequenceLengthError(
            f"sequence of {layout.total} tokens exceeds max_seq_len={cfg.max_seq_len}")
    if layout.n_prompt == 0:
        raise ParameterError("forward: prompt must be nonempty")
    if capture not in ("all", None):
        raise ParameterError(f"forward: capture must be 'all' or None, got {capture!r}")

    descriptors = [np.asarray(it.x_v, dtype=model.vision_w.data.dtype).reshape(-1)
                   for it in items]
    for x in descriptors:
        if x.size != cfg.d_descriptor:
            raise ParameterError(
                f"descriptor width {x.size} does not match d_descriptor={cfg.d_descriptor}")
    text_ids = [t for it in items for t in (*it.x_p, *(it.x_r if response else ()))]
    if not all(0 <= t < cfg.vocab_size for t in text_ids):
        raise ParameterError(f"forward: a token id is outside [0, vocab_size={cfg.vocab_size})")
    B, n_text = len(items), layout.n_prompt + layout.n_response
    xv = Tensor(np.stack(descriptors))
    feats = T.reshape(T.linear(xv, model.vision_w), (B * cfg.n_visual_tokens, cfg.d_vision))
    p1 = T.add(T.linear(feats, model.proj_w1), model.proj_b1)
    visual = T.add(T.linear(T.gelu(p1), model.proj_w2), model.proj_b2)

    text = T.embedding_lookup(model.embed, text_ids)
    d = cfg.d_model
    h = T.concat_rows([T.reshape(visual, (B, cfg.n_visual_tokens, d)),
                       T.reshape(text, (B, n_text, d))], axis=1)
    h = T.reshape(h, (B * layout.total, d))

    keep = capture == "all"
    states = [h if keep else None]
    for i, layer in enumerate(model.layers):
        h = _block_forward(model, i, layer, h, layout.total)
        states.append(h if keep else None)

    logits = T.linear(T.rms_norm(h, model.final_gain, cfg.rms_eps), model.head_w)
    return ForwardTrace(states, logits, layout, B)


def response_loss(trace, items):
    """Teacher-forced cross-entropy over the rows predicting the response,
    averaged over all such rows of the trace's items."""
    targets = [t for it in as_items(items) for t in it.x_r]
    return T.cross_entropy(response_rows(trace, trace.logits), targets)
