"""Tensor engine: op semantics against naive oracles, gradients against finite differences."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import tensor as T
from prunekit.tensor import DimensionError, GraphError, ParameterError, Tensor

from conftest import grad_check, rel_err
from test_acceptance import _graph_builders


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(T.matmul(a, b).data, b.data)


def test_matmul_scalar_case():
    out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.item() == 6.0


def test_matmul_against_triple_loop(rng):
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    out = T.matmul(Tensor(a), Tensor(b)).data

    ref = np.zeros((4, 3), dtype=np.float64)
    for i in range(4):
        for j in range(3):
            acc = 0.0
            for k in range(5):
                acc += float(a[i, k]) * float(b[k, j])
            ref[i, j] = acc
    assert np.abs(out - ref).max() <= 1e-6


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(DimensionError) as exc:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


# ---------------------------------------------------------------- softmax

def softmax(rows, temperature=1.0):
    """Softmax as the engine computes it: exp of log_softmax."""
    return T.exp(T.log_softmax(Tensor(rows), temperature=temperature)).data


def test_softmax_uniform_symmetry():
    out = softmax([[0.0, 0.0, 0.0]], temperature=1.0)
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-7)


def test_softmax_analytic():
    out = softmax([[math.log(2.0), math.log(1.0)]], temperature=1.0)
    np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-6)


def test_softmax_temperature_scalar_oracle():
    # softmax([10, 0], tau=2) == softmax([5, 0]); evaluate by scalar math
    out = softmax([[10.0, 0.0]], temperature=2.0)
    e5 = math.exp(5.0)
    expected = [e5 / (e5 + 1.0), 1.0 / (e5 + 1.0)]
    np.testing.assert_allclose(out, [expected], atol=1e-6)
    assert abs(expected[0] - 0.99331) < 5e-6 and abs(expected[1] - 0.00669) < 5e-6


def test_softmax_rejects_nonpositive_temperature():
    with pytest.raises(ParameterError):
        T.log_softmax(Tensor([[1.0, 2.0]]), temperature=0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
                min_size=1, max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1),
       st.floats(0.1, 10.0))
def test_softmax_rows_sum_to_one(rows, tau):
    out = softmax(np.asarray(rows), temperature=tau)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


# ---------------------------------------------------------------- cross entropy

def test_cross_entropy_perfect_margin_goes_to_zero():
    logits = np.full((3, 5), -100.0)
    targets = [1, 4, 2]
    for i, t in enumerate(targets):
        logits[i, t] = 100.0
    loss = T.cross_entropy(Tensor(logits), targets)
    assert 0.0 <= loss.item() <= 1e-6


def test_cross_entropy_uniform_is_log_vocab():
    loss = T.cross_entropy(Tensor(np.zeros((4, 8))), [0, 3, 5, 7])
    assert abs(loss.item() - math.log(8)) < 1e-6


def test_cross_entropy_against_logsumexp_oracle(rng):
    logits = rng.standard_normal((3, 5))
    targets = [4, 0, 2]
    loss = T.cross_entropy(Tensor(logits), targets).item()

    total = 0.0
    for i, t in enumerate(targets):
        row = logits[i].astype(np.float64)
        m = row.max()
        lse = m + math.log(np.exp(row - m).sum())
        total += lse - row[t]
    assert abs(loss - total / 3) <= 1e-6


def test_cross_entropy_target_out_of_vocab():
    with pytest.raises(IndexError):
        T.cross_entropy(Tensor(np.zeros((2, 4))), [0, 4])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_cross_entropy_nonnegative(vocab, n, seed):
    r = np.random.default_rng(seed)
    logits = r.standard_normal((n, vocab)) * 5
    targets = r.integers(0, vocab, size=n)
    assert T.cross_entropy(Tensor(logits), targets).item() >= 0.0


# ---------------------------------------------------------------- backward basics

def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    T.backward(T.sum_all(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(T.sum_all(T.mul(w, w)))
    np.testing.assert_allclose(w.grad, [2.0, 4.0, 6.0], rtol=1e-6)


def test_backward_fanout_accumulates():
    # y = x*x + x: dy/dx = 2x + 1, accumulation is additive over fan-out
    x = Tensor([3.0], requires_grad=True)
    T.backward(T.sum_all(T.add(T.mul(x, x), x)))
    np.testing.assert_allclose(x.grad, [7.0], rtol=1e-6)


def test_second_backward_replaces_grad():
    # a second backward on another loss replaces .grad; a leaf the second
    # loss does not reach keeps the first one's gradient
    x = Tensor([3.0, -1.0], requires_grad=True)
    y = Tensor([2.0], requires_grad=True)
    T.backward(T.add(T.sum_all(T.mul(x, x)), T.sum_all(T.mul(y, y))))
    np.testing.assert_allclose(x.grad, [6.0, -2.0], rtol=1e-6)
    T.backward(T.scale(T.sum_all(x), 5.0))
    np.testing.assert_allclose(x.grad, [5.0, 5.0], rtol=1e-6)
    np.testing.assert_allclose(y.grad, [4.0], rtol=1e-6)


def test_backward_drops_the_old_gradient_before_making_the_new_one():
    # numpy reports its buffers to tracemalloc: a second backward rises above
    # what it starts from by one gradient of w less than the first, since w's
    # old gradient is freed before the new one is allocated
    w = Tensor(np.ones((1024, 1024)), requires_grad=True)

    def peak_rise(loss):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        T.backward(loss)
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        first = peak_rise(T.sum_all(T.scale(w, 2.0)))
        second = peak_rise(T.sum_all(T.scale(w, 3.0)))
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(w.grad, 3.0)
    assert second <= first - w.data.nbytes // 2, (first, second)


def test_backward_rejects_nonscalar_root():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(GraphError):
        T.backward(T.mul(w, w))


def test_retained_nonleaf_grad_equals_leaf_grad(rng):
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    w1 = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    mark = Tensor(rng.standard_normal((5, 3)))

    def tail(h):  # h fans out to two consumers, so its gradient accumulates
        out = T.linear(T.gelu(h), w2)
        return T.add(T.sum_all(T.mul(out, mark)), T.sum_all(T.mul(h, h)))

    h = T.linear(x, w1)
    off_tape = Tensor(np.ones(2))
    T.backward(tail(h), retain=[h, off_tape])
    kept, kept_w2 = h.grad, w2.grad
    assert kept is not None and off_tape.grad is None
    assert x.grad is not None and w1.grad is not None

    w2.grad = None
    leaf = Tensor(h.data, requires_grad=True)
    T.backward(tail(leaf))
    np.testing.assert_array_equal(kept, leaf.grad)
    np.testing.assert_array_equal(kept_w2, w2.grad)


def test_backward_two_layer_mlp_matches_finite_differences(rng):
    w1 = rng.standard_normal((6, 4)) * 0.5
    b1 = rng.standard_normal(6) * 0.1
    w2 = rng.standard_normal((3, 6)) * 0.5
    x = rng.standard_normal((2, 4))

    def build(params):
        p_w1, p_b1, p_w2 = params
        h = T.gelu(T.add(T.linear(Tensor(x), p_w1), p_b1))
        return T.sum_all(T.mul(T.linear(h, p_w2), T.linear(h, p_w2)))

    grad_check(build, [w1, b1, w2])


# ---------------------------------------------------------------- per-op gradients

def test_grad_rms_norm(rng):
    x = rng.standard_normal((3, 8))
    g = rng.standard_normal(8) * 0.5 + 1.0
    w = rng.standard_normal((3, 8))
    grad_check(lambda p: T.sum_all(T.mul(T.rms_norm(p[0], p[1]), Tensor(w))), [x, g])


def test_grad_softmax_and_log_softmax(rng):
    x = rng.standard_normal((4, 5))
    w = rng.standard_normal((4, 5))
    grad_check(lambda p: T.sum_all(T.mul(T.exp(T.log_softmax(p[0], temperature=2.0)),
                                         Tensor(w))), [x])
    grad_check(lambda p: T.sum_all(T.mul(T.log_softmax(p[0], temperature=2.0), Tensor(w))), [x])


def test_grad_attention_and_rope(rng):
    q = rng.standard_normal((5, 8))
    k = rng.standard_normal((5, 8))
    v = rng.standard_normal((5, 8))
    w = rng.standard_normal((5, 8))

    def build(params):
        pq, pk, pv = params
        out = T.causal_attention(T.rope(pq, 2), T.rope(pk, 2), pv, 2)
        return T.sum_all(T.mul(out, Tensor(w)))

    grad_check(build, [q, k, v])


def test_grad_embedding_slice_concat(rng):
    table = rng.standard_normal((7, 4))

    def build(params):
        emb = T.embedding_lookup(params[0], [1, 3, 3, 0])
        left = T.slice_rows(emb, 0, 2)
        right = T.slice_rows(emb, 2, 4)
        return T.sum_all(T.mul(T.concat_rows([right, left]), T.concat_rows([left, right])))

    grad_check(build, [table])


def test_grad_cross_entropy_and_l2(rng):
    logits = rng.standard_normal((3, 6))
    grad_check(lambda p: T.cross_entropy(p[0], [2, 0, 5]), [logits])
    target = rng.standard_normal((4, 3))

    def l2(p):  # mean squared row distance, as hidden-state matching builds it
        diff = T.sub(p[0], Tensor(target))
        return T.scale(T.sum_all(T.mul(diff, diff)), 1.0 / 4)

    grad_check(l2, [rng.standard_normal((4, 3)) + 2.0])


def test_grad_exp_reshape_scale(rng):
    x = rng.standard_normal((3, 4)) * 0.3

    def build(params):
        y = T.exp(T.scale(params[0], 0.7))
        return T.scale(T.sum_all(T.reshape(y, (2, 6))), 1.0 / 12)

    grad_check(build, [x])


# engine names that are not differentiable ops
NOT_OPS = {"Tensor", "DimensionError", "ParameterError", "GraphError", "precision",
           "default_dtype", "no_grad", "backward"}
# the op name a tape node records, where it differs from the function's name
TAPE_NAMES = {"slice_rows": "slice", "concat_rows": "concat", "sum_all": "sum"}


def test_every_differentiable_op_is_gradchecked():
    """Criterion 1's random graphs reach every differentiable op of the engine."""
    reached = set()
    with T.precision("float64"):
        for make in _graph_builders(np.random.default_rng(0)):
            arrays, build = make()
            stack = [build([Tensor(a, requires_grad=True) for a in arrays])]
            while stack:
                node = stack.pop()
                reached.add(node.op)
                stack.extend(node.parents)
    ops = {TAPE_NAMES.get(name, name) for name in T.__all__ if name not in NOT_OPS}
    assert ops <= reached, f"no criterion-1 graph reaches {sorted(ops - reached)}"


# ---------------------------------------------------------------- broadcasting rules

def test_add_bias_broadcast_and_grad(rng):
    x = rng.standard_normal((3, 4))
    b = rng.standard_normal(4)
    grad_check(lambda p: T.sum_all(T.mul(T.add(p[0], p[1]), T.add(p[0], p[1]))), [x, b])


def test_no_general_broadcasting():
    with pytest.raises(DimensionError):
        T.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 1))))


# ---------------------------------------------------------------- determinism / modes

def test_determinism_bit_identical(rng):
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))

    def run():
        x = Tensor(a, requires_grad=True)
        out = T.sum_all(T.gelu(T.matmul(x, Tensor(b))))
        T.backward(out)
        return out.data.copy(), x.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert o1.tobytes() == o2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_precision_mode_switches_dtype():
    assert Tensor([1.0]).data.dtype == np.float32
    with T.precision("float64"):
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32


def test_no_grad_skips_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert y._backward is None and not y.requires_grad


def test_outputs_finite_on_valid_inputs(rng):
    x = Tensor(rng.standard_normal((4, 4)) * 10)
    for out in [T.gelu(x), T.log_softmax(x), T.rms_norm(x, Tensor(np.ones(4)))]:
        assert np.isfinite(out.data).all()


def test_grad_attention_and_rope_over_stacked_sequences(rng):
    n_seq, t, heads, hd = 3, 4, 2, 4
    w = heads * hd
    mark = rng.standard_normal((n_seq * t, w))

    def build(p):
        q = T.rope(p[0], heads, seq_len=t)
        k = T.rope(p[1], heads, seq_len=t)
        out = T.causal_attention(q, k, p[2], heads, seq_len=t)
        return T.sum_all(T.mul(out, Tensor(mark)))

    grad_check(build, [rng.standard_normal((n_seq * t, w)) for _ in range(3)])


def test_stacked_sequences_match_one_at_a_time(rng):
    n_seq, t, heads = 3, 5, 2
    q, k, v = (rng.standard_normal((n_seq * t, 8)) for _ in range(3))
    with T.precision("float64"):
        stacked = T.causal_attention(T.rope(Tensor(q), heads, t), T.rope(Tensor(k), heads, t),
                                     Tensor(v), heads, t).data
        for s in range(n_seq):
            rows = slice(s * t, (s + 1) * t)
            one = T.causal_attention(T.rope(Tensor(q[rows]), heads),
                                     T.rope(Tensor(k[rows]), heads), Tensor(v[rows]), heads).data
            np.testing.assert_allclose(stacked[rows], one, rtol=1e-12, atol=1e-12)
    with pytest.raises(DimensionError):
        T.rope(Tensor(q), heads, seq_len=4)
