"""Model forward/init contracts, including an independent numpy reimplementation oracle."""

import numpy as np
import pytest

from prunekit import accounting as A
from prunekit import data as D
from prunekit import model as M
from prunekit import tensor as T
from prunekit.model import ModelConfig, SequenceLengthError, Triplet
from prunekit.tensor import ParameterError

from conftest import (briefly_trained_toy_model, count_params, float64_copy, param_counts,
                      param_partition, pruned_copy)


def make_triplet(cfg, rng, n_prompt=2, n_resp=1):
    return Triplet(
        x_v=rng.standard_normal(cfg.d_descriptor),
        x_p=tuple(int(t) for t in rng.integers(0, cfg.vocab_size, n_prompt)),
        x_r=tuple(int(t) for t in rng.integers(0, cfg.vocab_size, n_resp)),
    )


# ------------------------------------------------------- straight-line oracle

def oracle_forward(model, triplet):
    """No-graph float64 reimplementation of the forward pass (loops over heads)."""
    cfg = model.config
    p = {name: t.data.astype(np.float64) for name, t in model.named_parameters()}
    eps = cfg.rms_eps

    def rms(x, gain):
        return x / np.sqrt((x ** 2).mean(axis=1, keepdims=True) + eps) * gain

    def gelu(x):
        c = np.sqrt(2.0 / np.pi)
        return 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x ** 3)))

    feats = (np.asarray(triplet.x_v, dtype=np.float64) @ p["vision.w"].T)
    feats = feats.reshape(cfg.n_visual_tokens, cfg.d_vision)
    h1 = feats @ p["projector.w1"].T + p["projector.b1"]
    visual = gelu(h1) @ p["projector.w2"].T + p["projector.b2"]
    text = p["embed.w"][list(triplet.x_p) + list(triplet.x_r)]
    h = np.concatenate([visual, text], axis=0)
    n_tok = h.shape[0]

    def rope_apply(x, n_heads):
        hd = x.shape[1] // n_heads
        out = x.copy()
        for t in range(x.shape[0]):
            for head in range(n_heads):
                for j in range(hd // 2):
                    theta = t / (10000.0 ** (2.0 * j / hd))
                    c, s = np.cos(theta), np.sin(theta)
                    a = x[t, head * hd + 2 * j]
                    b = x[t, head * hd + 2 * j + 1]
                    out[t, head * hd + 2 * j] = a * c - b * s
                    out[t, head * hd + 2 * j + 1] = a * s + b * c
        return out

    for i, layer in enumerate(model.layers):
        pre = rms(h, p[f"layers.{i}.attn.gain"])
        q = rope_apply(pre @ p[f"layers.{i}.attn.wq"].T, layer.n_heads)
        k = rope_apply(pre @ p[f"layers.{i}.attn.wk"].T, layer.n_heads)
        v = pre @ p[f"layers.{i}.attn.wv"].T
        hd = q.shape[1] // layer.n_heads
        ctx = np.zeros_like(q)
        for head in range(layer.n_heads):
            sl = slice(head * hd, (head + 1) * hd)
            for t in range(n_tok):
                scores = np.array([q[t, sl] @ k[u, sl] for u in range(t + 1)]) / np.sqrt(hd)
                w = np.exp(scores - scores.max())
                w = w / w.sum()
                ctx[t, sl] = sum(w[u] * v[u, sl] for u in range(t + 1))
        h = h + ctx @ p[f"layers.{i}.attn.wo"].T
        mid = rms(h, p[f"layers.{i}.mlp.gain"])
        h = h + gelu(mid @ p[f"layers.{i}.mlp.up"].T) @ p[f"layers.{i}.mlp.down"].T

    return rms(h, p["final_norm.g"]) @ p["head.w"].T


def test_forward_matches_independent_reimplementation(rng):
    cfg = ModelConfig(n_layers=2)
    model = float64_copy(M.init(cfg, seed=7))
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    trip = make_triplet(cfg, rng, n_prompt=3, n_resp=2)
    trace = M.forward(model, trip)
    ref = oracle_forward(model, trip)
    assert np.abs(trace.logits.data - ref).max() <= 1e-5


# ------------------------------------------------------- forward contracts

def test_zero_projector_gives_zero_visual_embeddings(rng):
    cfg = ModelConfig()
    model = M.init(cfg, seed=0)
    for t in (model.proj_w1, model.proj_b1, model.proj_w2, model.proj_b2):
        t.data[...] = 0.0
    trace = M.forward(model, make_triplet(cfg, rng))
    visual_rows = trace.hidden_states[0].data[:cfg.n_visual_tokens]
    assert np.abs(visual_rows).max() == 0.0


def test_forward_is_deterministic(rng):
    cfg = ModelConfig()
    model = M.init(cfg, seed=3)
    trip = make_triplet(cfg, rng)
    t1 = M.forward(model, trip)
    t2 = M.forward(model, trip)
    assert t1.logits.data.tobytes() == t2.logits.data.tobytes()
    for a, b in zip(t1.hidden_states, t2.hidden_states):
        assert a.data.tobytes() == b.data.tobytes()


def test_forward_rejects_overlong_sequence(rng):
    cfg = ModelConfig(max_seq_len=8)
    model = M.init(cfg, seed=0)
    with pytest.raises(SequenceLengthError):
        M.forward(model, make_triplet(cfg, rng, n_prompt=4, n_resp=2))


def test_loss_rows_cover_exactly_response_predictions(rng):
    cfg = ModelConfig()
    model = M.init(cfg, seed=0)
    trip = make_triplet(cfg, rng, n_prompt=3, n_resp=2)
    trace = M.forward(model, trip)
    lo, hi = trace.layout.loss_rows
    assert hi - lo == 2
    assert lo == cfg.n_visual_tokens + 3 - 1
    assert hi == trace.layout.total - 1


def test_causality_logits_before_perturbed_token_unchanged(rng):
    cfg = ModelConfig()
    model = M.init(cfg, seed=5)
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    base = make_triplet(cfg, rng, n_prompt=4, n_resp=3)
    t_base = M.forward(model, base)
    for pos in (1, 3):  # perturb prompt token at this index
        x_p = list(base.x_p)
        x_p[pos] = (x_p[pos] + 17) % cfg.vocab_size
        t_new = M.forward(model, Triplet(base.x_v, tuple(x_p), base.x_r))
        cut = cfg.n_visual_tokens + pos
        np.testing.assert_array_equal(t_new.logits.data[:cut], t_base.logits.data[:cut])
        assert np.abs(t_new.logits.data[cut:] - t_base.logits.data[cut:]).max() > 0


def test_residual_width_invariant(rng):
    cfg = ModelConfig()
    model = M.init(cfg, seed=2)
    trace = M.forward(model, make_triplet(cfg, rng))
    for h in trace.hidden_states:
        assert h.shape[1] == cfg.d_model


# ------------------------------------------------------- init

def test_init_same_seed_same_checksum():
    cfg = ModelConfig()
    assert M.init(cfg, seed=11).checksum() == M.init(cfg, seed=11).checksum()


def test_init_different_seeds_differ():
    cfg = ModelConfig()
    assert M.init(cfg, seed=11).checksum() != M.init(cfg, seed=12).checksum()


def test_init_draws_weights_in_named_parameters_order():
    """Independent oracle of the init scheme: one generator, drawn in
    named_parameters order, skipping the constant gains, biases and head."""
    model = M.init(ModelConfig(n_layers=2), seed=3)
    rng = np.random.default_rng(3)
    for name, p in model.named_parameters():
        if name.endswith(".gain") or name == "final_norm.g":
            want = np.ones(p.shape)
        elif name in ("projector.b1", "projector.b2", "head.w"):
            want = np.zeros(p.shape)
        else:
            want = rng.standard_normal(p.shape) * (0.5 if name == "vision.w" else 0.02)
        np.testing.assert_array_equal(p.data, want.astype(np.float32))
        assert p.requires_grad == (name != "vision.w")


def test_init_param_count_matches_closed_form():
    cfg = ModelConfig(vocab_size=256, d_model=64, n_layers=4, n_heads=4, head_dim=16,
                      d_ffn=256, d_vision=32, n_visual_tokens=8)
    model = M.init(cfg, seed=0)
    closed = param_counts(A.shape_of_config(cfg))
    assert count_params(model) == closed["total"]
    for scope in ("vision", "projector", "embedding", "decoder-blocks", "final-norm", "head"):
        assert count_params(model, scope) == closed[scope]


def test_config_validation():
    with pytest.raises(ParameterError):
        ModelConfig(n_heads=3, head_dim=16, d_model=64)
    with pytest.raises(ParameterError):
        ModelConfig(n_layers=0)


@pytest.mark.parametrize("name, cut, message", [
    ("layers.0.attn.wk", np.s_[:56],
     "tensor layers.0.attn.wk has shape [56, 64], expected [64, 64]"),
    ("layers.1.mlp.down", np.s_[:, :64],
     "tensor layers.1.mlp.down has shape [64, 64], expected [64, 128]"),
    ("layers.1.attn.wq", np.s_[:0], "block 1 has 0 heads and 128 MLP channels"),
    ("layers.0.mlp.up", np.s_[:0], "block 0 has 8 heads and 0 MLP channels"),
], ids=["short-wk", "narrow-down", "zero-row-wq", "zero-row-up"])
def test_from_arrays_rejects_weights_that_disagree_with_the_block_widths(name, cut, message):
    model = M.init(ModelConfig(n_layers=2), seed=0)
    arrays = {n: p.data for n, p in model.named_parameters()}
    arrays[name] = arrays[name][cut]
    with pytest.raises(ParameterError) as exc:
        M.from_arrays(model.config, arrays)
    assert message in str(exc.value)


# ------------------------------------------------------- partition

def test_param_partition_projector_has_two_weights_two_biases():
    model = M.init(ModelConfig(), seed=0)
    names = param_partition(model)["projector"]
    assert sorted(names) == ["projector.b1", "projector.b2", "projector.w1", "projector.w2"]
    assert sum(model.get_parameter(n).data.ndim == 2 for n in names) == 2
    assert sum(model.get_parameter(n).data.ndim == 1 for n in names) == 2


def test_param_partition_vision_is_frozen():
    model = M.init(ModelConfig(), seed=0)
    for name in param_partition(model)["vision"]:
        assert not model.get_parameter(name).requires_grad


def test_param_partition_is_a_partition():
    model = M.init(ModelConfig(), seed=0)
    part = param_partition(model)
    seen = [n for group in part.values() for n in group]
    assert len(seen) == len(set(seen))
    assert set(seen) == {n for n, _ in model.named_parameters()}


def test_model_copy_is_independent():
    model = M.init(ModelConfig(), seed=0)
    clone = model.copy()
    assert clone.checksum() == model.checksum()
    clone.embed.data[0, 0] += 1.0
    assert clone.checksum() != model.checksum()
    assert not clone.vision_w.requires_grad


# ------------------------------------------------------- batched forward

def mixed_pool(n=80, seed=0):
    """Items of both token layouts (prompt length 1 and 2), in dataset order."""
    train, _ = D.generate_dataset(n=n, seed=seed)
    assert len({len(it.x_p) for it in train}) == 2
    return train


def assert_float32_close(got, want, ulps=32):
    """Equal up to float32 rounding, measured against the array's largest entry."""
    scale = np.finfo(np.float32).eps * np.abs(want).max()
    assert np.abs(got - want).max() <= ulps * scale


def test_layout_buckets_group_by_layout_and_cap_size():
    pool = mixed_pool(n=120)
    buckets = M.layout_buckets(pool)
    assert sorted(i for b in buckets for i in b) == list(range(len(pool)))
    for b in buckets:
        assert 1 <= len(b) <= M.BUCKET_SIZE
        assert b == sorted(b)
        assert len({(len(pool[i].x_p), len(pool[i].x_r)) for i in b}) == 1
    assert max(len(b) for b in buckets) == M.BUCKET_SIZE

    small = M.layout_buckets(pool, size=8)
    assert max(len(b) for b in small) == 8
    # each cap-32 bucket is the concatenation of consecutive cap-8 runs
    assert [i for b in small for i in b] == [i for b in buckets for i in b]


def test_batched_forward_matches_per_item_forwards(rng):
    cfg = ModelConfig()
    model = M.init(cfg, seed=4)
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    pool = mixed_pool()
    for idx in M.layout_buckets(pool):
        items = [pool[i] for i in idx]
        batched = M.forward(model, items)
        n_rows = batched.layout.total
        assert batched.n_items == len(items)
        assert batched.logits.shape == (len(items) * n_rows, cfg.vocab_size)
        for j, item in enumerate(items):
            single = M.forward(model, item)
            rows = slice(j * n_rows, (j + 1) * n_rows)
            pairs = [(batched.logits, single.logits)]
            pairs += list(zip(batched.hidden_states, single.hidden_states))
            for b, s in pairs:
                assert_float32_close(b.data[rows], s.data)


def test_one_item_list_is_bitwise_the_bare_triplet(rng):
    cfg = ModelConfig()
    model = M.init(cfg, seed=6)
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    trip = make_triplet(cfg, rng, n_prompt=2, n_resp=2)
    runs = []
    params = model.named_parameters()
    for items in (trip, [trip]):
        trace = M.forward(model, items)
        loss = M.response_loss(trace, items)
        grads = T.backward(loss, [p for _, p in params])
        runs.append((trace, loss, {n: g for (n, _), g in zip(params, grads) if g is not None}))
    (ta, la, ga), (tb, lb, gb) = runs
    assert ta.layout == tb.layout and ta.n_items == tb.n_items == 1
    assert ta.logits.data.tobytes() == tb.logits.data.tobytes()
    for a, b in zip(ta.hidden_states, tb.hidden_states):
        assert a.data.tobytes() == b.data.tobytes()
    assert la.data.tobytes() == lb.data.tobytes()
    assert ga.keys() == gb.keys()
    for name in ga:
        assert ga[name].tobytes() == gb[name].tobytes(), name


def test_forward_rejects_mixed_layouts(rng):
    cfg = ModelConfig()
    model = M.init(cfg, seed=0)
    items = [make_triplet(cfg, rng, n_prompt=1), make_triplet(cfg, rng, n_prompt=2)]
    with pytest.raises(ParameterError, match="layout"):
        M.forward(model, items)
    with pytest.raises(ParameterError):
        M.forward(model, [])
    with pytest.raises(ParameterError, match="capture"):
        M.forward(model, items[:1], capture=[0, 1])


def test_batched_forward_keeps_per_item_checks(rng):
    cfg = ModelConfig(max_seq_len=8)
    model = M.init(cfg, seed=0)
    good = make_triplet(cfg, rng, n_prompt=2)
    with pytest.raises(SequenceLengthError):
        M.forward(model, [make_triplet(cfg, rng, n_prompt=4, n_resp=2)] * 2)
    with pytest.raises(ParameterError, match="prompt"):
        M.forward(model, [Triplet(good.x_v, (), good.x_r)] * 2)
    narrow = Triplet(good.x_v[:-1], good.x_p, good.x_r)
    with pytest.raises(ParameterError, match="descriptor"):
        M.forward(model, [good, narrow])


# ------------------------------------------------- prompt-only forward oracle
# Evaluation reads only the row of each item's last prompt token. The forward
# with response=False runs [visual | prompt] alone; causal attention leaves
# that row's inputs unchanged, and every kernel computes a row from its own
# sequence's earlier rows only, so the row must agree bit for bit with the
# full teacher-forced stream's first response-predicting row.

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["trained", "layerwise-0.5", "widthwise-0.6"])
def test_prompt_only_answer_rows_are_bitwise_the_full_streams(variant, dtype):
    model, train, evals = briefly_trained_toy_model()
    if variant != "trained":
        mode, ratio = variant.split("-")
        model = pruned_copy(model, D.draw_calibration(train, n=10, seed=1), mode, float(ratio))
    if dtype == np.float64:
        model = float64_copy(model)
    for idx in M.layout_buckets(evals):
        items = [evals[i] for i in idx]
        with T.no_grad():
            full = M.forward(model, items, capture=None)
            prompt = M.forward(model, items, capture=None, response=False)
        vocab = model.config.vocab_size
        want = M.response_rows(full, full.logits).data.reshape(len(items), -1, vocab)[:, 0]
        assert prompt.layout == M.TokenLayout(model.config.n_visual_tokens,
                                              len(items[0].x_p), 0)
        got = prompt.logits.data.reshape(len(items), prompt.layout.total, vocab)[:, -1]
        assert got.dtype == dtype and np.array_equal(got, want), idx
