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
from .tensor import ParameterError, Tensor


class SequenceLengthError(ValueError):
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
            if getattr(self, name) < 1:
                raise ParameterError(f"ModelConfig.{name} must be >= 1")
        if self.n_heads * self.head_dim != self.d_model:
            raise ParameterError(
                f"n_heads*head_dim must equal d_model at construction: "
                f"{self.n_heads}*{self.head_dim} != {self.d_model}")
        if self.head_dim % 2 != 0:
            raise ParameterError("head_dim must be even (rotary embedding pairs)")
        if self.rms_eps <= 0:
            raise ParameterError("rms_eps must be positive")


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
    """hidden_states[0] is the stream entering block 1; hidden_states[i] the
    output of block i (1-based); final_normed is the post-norm head input.

    Every tensor stacks n_items sequences of layout.total rows each."""
    hidden_states: list
    final_normed: Tensor
    logits: Tensor
    layout: TokenLayout
    n_items: int = 1


def response_rows(trace, x):
    """The rows of a stacked (n_items*T, width) tensor that predict response
    tokens, as (n_items*n_response, width) in item order."""
    lo, hi = trace.layout.loss_rows
    b = trace.n_items
    per_item = T.reshape(x, (b, x.shape[0] // b, x.shape[1]))
    return T.reshape(T.slice_rows(per_item, lo, hi, axis=1), (b * (hi - lo), x.shape[1]))


def as_items(items):
    """A bare Triplet as a one-item list; any other sequence of triplets as a list."""
    return [items] if isinstance(items, Triplet) else list(items)


def _layout_of(triplet, config):
    return TokenLayout(config.n_visual_tokens, len(triplet.x_p), len(triplet.x_r))


def layout_buckets(items, size=BUCKET_SIZE):
    """Indices of `items` grouped by prompt and response length, in order of
    first appearance, each group cut into runs of at most `size`."""
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault((len(item.x_p), len(item.x_r)), []).append(i)
    return [idx[lo:lo + size] for idx in groups.values()
            for lo in range(0, len(idx), size)]


class DecoderLayer:
    def __init__(self, wq, wk, wv, wo, w_up, w_down, attn_gain, mlp_gain, n_heads, d_ffn):
        self.wq = wq
        self.wk = wk
        self.wv = wv
        self.wo = wo
        self.w_up = w_up
        self.w_down = w_down
        self.attn_gain = attn_gain
        self.mlp_gain = mlp_gain
        self.n_heads = n_heads
        self.d_ffn = d_ffn


class Model:
    """Parameter container; forward lives in `forward` below."""

    def __init__(self, config, vision_w, proj_w1, proj_b1, proj_w2, proj_b2,
                 embed, layers, final_gain, head_w):
        self.config = config
        self.vision_w = vision_w
        self.proj_w1 = proj_w1
        self.proj_b1 = proj_b1
        self.proj_w2 = proj_w2
        self.proj_b2 = proj_b2
        self.embed = embed
        self.layers = layers
        self.final_gain = final_gain
        self.head_w = head_w
        self.lora = {}

    @property
    def n_layers(self):
        return len(self.layers)

    def named_parameters(self):
        """Deterministic (name, Tensor) listing of every parameter."""
        out = [
            ("vision.w", self.vision_w),
            ("projector.w1", self.proj_w1),
            ("projector.b1", self.proj_b1),
            ("projector.w2", self.proj_w2),
            ("projector.b2", self.proj_b2),
            ("embed.w", self.embed),
        ]
        for i, layer in enumerate(self.layers):
            out.extend([
                (f"layers.{i}.attn.gain", layer.attn_gain),
                (f"layers.{i}.attn.wq", layer.wq),
                (f"layers.{i}.attn.wk", layer.wk),
                (f"layers.{i}.attn.wv", layer.wv),
                (f"layers.{i}.attn.wo", layer.wo),
                (f"layers.{i}.mlp.gain", layer.mlp_gain),
                (f"layers.{i}.mlp.up", layer.w_up),
                (f"layers.{i}.mlp.down", layer.w_down),
            ])
        out.append(("final_norm.g", self.final_gain))
        out.append(("head.w", self.head_w))
        return out

    def get_parameter(self, name):
        for n, p in self.named_parameters():
            if n == name:
                return p
        raise KeyError(name)

    def layer_shapes(self):
        return [(layer.n_heads, layer.d_ffn) for layer in self.layers]

    def copy(self):
        """Independent deep copy (fresh leaf tensors, no shared arrays)."""
        def dup(t, frozen=False):
            out = Tensor(t.data.copy(), requires_grad=not frozen)
            return out

        layers = [
            DecoderLayer(
                dup(l.wq), dup(l.wk), dup(l.wv), dup(l.wo),
                dup(l.w_up), dup(l.w_down), dup(l.attn_gain), dup(l.mlp_gain),
                l.n_heads, l.d_ffn)
            for l in self.layers
        ]
        return Model(
            self.config, dup(self.vision_w, frozen=True),
            dup(self.proj_w1), dup(self.proj_b1), dup(self.proj_w2), dup(self.proj_b2),
            dup(self.embed), layers, dup(self.final_gain), dup(self.head_w))

    def checksum(self):
        """CRC32 over all parameter bytes, in named_parameters order."""
        c = 0
        for _, p in self.named_parameters():
            c = zlib.crc32(np.ascontiguousarray(p.data).tobytes(), c)
        return c


def init(config, seed):
    """Deterministic initialization: N(0, 0.02^2) weights, unit gains, zero biases.

    The output head starts at zero (logits exactly uniform until the first
    update) and the frozen vision stub at scale 0.5 so unit-norm descriptors
    produce O(1) features.
    """
    rng = np.random.default_rng(seed)
    d = config.d_model
    dv = config.d_vision
    nv = config.n_visual_tokens

    def normal(shape, scl=0.02, frozen=False):
        arr = rng.standard_normal(shape) * scl
        return Tensor(arr, requires_grad=not frozen)

    def ones(n):
        return Tensor(np.ones(n), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    vision_w = normal((nv * dv, config.d_descriptor), scl=0.5, frozen=True)
    proj_w1 = normal((d, dv))
    proj_b1 = zeros(d)
    proj_w2 = normal((d, d))
    proj_b2 = zeros(d)
    embed = normal((config.vocab_size, d))
    layers = []
    for _ in range(config.n_layers):
        width = config.n_heads * config.head_dim
        layers.append(DecoderLayer(
            wq=normal((width, d)), wk=normal((width, d)), wv=normal((width, d)),
            wo=normal((d, width)),
            w_up=normal((config.d_ffn, d)), w_down=normal((d, config.d_ffn)),
            attn_gain=ones(d), mlp_gain=ones(d),
            n_heads=config.n_heads, d_ffn=config.d_ffn))
    final_gain = ones(d)
    head_w = zeros((config.vocab_size, d))
    return Model(config, vision_w, proj_w1, proj_b1, proj_w2, proj_b2,
                 embed, layers, final_gain, head_w)


def _effective_weight(model, name, param):
    """Base weight, or base + scaling*B@A while a LoRA adapter is attached."""
    adapter = model.lora.get(name)
    if adapter is None:
        return param
    return T.add(param, T.scale(T.matmul(adapter.b, adapter.a), adapter.scaling))


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


def forward(model, items, capture="all"):
    """Teacher-forced forward over [visual | prompt | response]; returns a ForwardTrace.

    items: one Triplet, or a list of triplets sharing one token layout, which
    run stacked as (B*T, width) rows. A single Triplet is B=1.
    capture: "all" keeps every per-block hidden state; a list of indices keeps
    hidden_states[i] only for those i (0 = block-1 input, i = block-i output);
    None keeps none.
    """
    cfg = model.config
    items = as_items(items)
    if not items:
        raise ParameterError("forward: no items")
    layout = _layout_of(items[0], cfg)
    for item in items:
        if _layout_of(item, cfg) != layout:
            raise ParameterError(
                f"forward: items mix token layouts {layout} and {_layout_of(item, cfg)}")
    if layout.total > cfg.max_seq_len:
        raise SequenceLengthError(
            f"sequence of {layout.total} tokens exceeds max_seq_len={cfg.max_seq_len}")
    if layout.n_prompt == 0:
        raise ParameterError("forward: prompt must be nonempty")

    descriptors = [np.asarray(it.x_v, dtype=T.default_dtype()).reshape(-1) for it in items]
    for x in descriptors:
        if x.size != cfg.d_descriptor:
            raise ParameterError(
                f"descriptor width {x.size} does not match d_descriptor={cfg.d_descriptor}")
    B, n_text = len(items), layout.n_prompt + layout.n_response
    xv = Tensor(np.stack(descriptors))
    feats = T.reshape(T.linear(xv, model.vision_w), (B * cfg.n_visual_tokens, cfg.d_vision))
    p1 = T.add(T.linear(feats, model.proj_w1), model.proj_b1)
    visual = T.add(T.linear(T.gelu(p1), model.proj_w2), model.proj_b2)

    text_ids = [t for it in items for t in (*it.x_p, *it.x_r)]
    text = T.embedding_lookup(model.embed, text_ids)
    d = cfg.d_model
    h = T.concat_rows([T.reshape(visual, (B, cfg.n_visual_tokens, d)),
                       T.reshape(text, (B, n_text, d))], axis=1)
    h = T.reshape(h, (B * layout.total, d))

    if capture == "all":
        wanted = set(range(model.n_layers + 1))
    elif capture is None:
        wanted = set()
    else:
        wanted = set(capture)
    hidden = {}
    if 0 in wanted:
        hidden[0] = h
    for i, layer in enumerate(model.layers):
        h = _block_forward(model, i, layer, h, layout.total)
        if i + 1 in wanted:
            hidden[i + 1] = h

    final_normed = T.rms_norm(h, model.final_gain, cfg.rms_eps)
    logits = T.linear(final_normed, model.head_w)
    states = [hidden.get(i) for i in range(model.n_layers + 1)]
    return ForwardTrace(states, final_normed, logits, layout, B)


def response_loss(trace, items):
    """Teacher-forced cross-entropy over the rows predicting the response,
    averaged over all such rows of the trace's items."""
    targets = [t for it in as_items(items) for t in it.x_r]
    return T.cross_entropy(response_rows(trace, trace.logits), targets)


def param_partition(model):
    """Map scope -> parameter names; every parameter in exactly one scope."""
    part = {
        "vision": ["vision.w"],
        "projector": ["projector.w1", "projector.b1", "projector.w2", "projector.b2"],
        "embedding": ["embed.w"],
    }
    for i in range(model.n_layers):
        part[f"decoder-layer-{i}"] = [
            f"layers.{i}.attn.gain", f"layers.{i}.attn.wq", f"layers.{i}.attn.wk",
            f"layers.{i}.attn.wv", f"layers.{i}.attn.wo",
            f"layers.{i}.mlp.gain", f"layers.{i}.mlp.up", f"layers.{i}.mlp.down",
        ]
    part["final-norm"] = ["final_norm.g"]
    part["head"] = ["head.w"]
    return part
