"""Dense 2-D/1-D float tensors with a reverse-mode autodiff tape.

The engine is deliberately small: numpy holds the values, every operation
records a backward closure, and `backward()` walks the tape in descending
node-id order. Node ids increase at creation time, so that order is a valid
topological order and gradient accumulation is deterministic.

Element type is float32 by default; `precision("float64")` switches the
whole engine into a 64-bit verification mode (used by the gradient-check
suites, never by training).
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "DimensionError",
    "ParameterError",
    "GraphError",
    "precision",
    "default_dtype",
    "no_grad",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "linear",
    "reshape",
    "embedding_lookup",
    "rms_norm",
    "gelu",
    "log_softmax",
    "exp",
    "cross_entropy",
    "causal_attention",
    "rope",
    "slice_rows",
    "concat_rows",
    "sum_all",
    "backward",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(ValueError):
    """An operation parameter (temperature, axis, ...) is out of range."""


class GraphError(RuntimeError):
    """The autodiff graph contract was violated (e.g. non-scalar root)."""


_DTYPE = np.float32
_GRAD_ENABLED = True
_node_ids = itertools.count()


def default_dtype():
    return _DTYPE


@contextmanager
def precision(mode):
    """Temporarily switch the element type; mode is 'float32' or 'float64'."""
    global _DTYPE
    if mode not in ("float32", "float64"):
        raise ParameterError(f"unknown precision mode {mode!r}")
    saved = _DTYPE
    _DTYPE = np.float32 if mode == "float32" else np.float64
    try:
        yield
    finally:
        _DTYPE = saved


@contextmanager
def no_grad():
    """Skip tape construction inside the block (evaluation / teacher passes)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    """A node of the tape: value array plus optional backward record."""

    __slots__ = ("data", "requires_grad", "grad", "_id", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._id = next(_node_ids)
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @classmethod
    def _from_op(cls, data, parents, backward, op):
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._id = next(_node_ids)
        needs = False
        if _GRAD_ENABLED:
            for p in parents:
                if p.requires_grad:
                    needs = True
                    break
        if needs:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        out._op = op
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def op(self):
        """Name of the operation that made this node ("leaf" for inputs)."""
        return self._op

    @property
    def parents(self):
        """Operands this node was computed from; empty for leaves and off-tape nodes."""
        return self._parents

    def item(self):
        if self.data.size != 1:
            raise GraphError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"


def _check_broadcast(a, b, op):
    """Equal shapes, or the second operand expanded across leading axes only."""
    if a.data.shape == b.data.shape:
        return
    k = b.data.ndim
    if k <= a.data.ndim and a.data.shape[a.data.ndim - k:] == b.data.shape:
        return
    raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} are incompatible")


def _reduce_to(grad, shape):
    """Sum a gradient over the leading axes that were broadcast."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra)))


def add(a, b):
    _check_broadcast(a, b, "add")
    out_data = a.data + b.data

    def bwd(g, push):
        push(a, _reduce_to(g, a.data.shape))
        push(b, _reduce_to(g, b.data.shape))

    return Tensor._from_op(out_data, (a, b), bwd, "add")


def sub(a, b):
    _check_broadcast(a, b, "sub")
    out_data = a.data - b.data

    def bwd(g, push):
        push(a, _reduce_to(g, a.data.shape))
        push(b, -_reduce_to(g, b.data.shape))

    return Tensor._from_op(out_data, (a, b), bwd, "sub")


def mul(a, b):
    _check_broadcast(a, b, "mul")
    out_data = a.data * b.data

    def bwd(g, push):
        push(a, _reduce_to(g * b.data, a.data.shape))
        push(b, _reduce_to(g * a.data, b.data.shape))

    return Tensor._from_op(out_data, (a, b), bwd, "mul")


def scale(a, c):
    c = float(c)

    def bwd(g, push):
        push(a, g * c)

    return Tensor._from_op(a.data * np.asarray(c, dtype=a.data.dtype), (a,), bwd, "scale")


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul: expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: inner extents disagree for {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g, push):
        if a.requires_grad:
            push(a, g @ b.data.T)
        if b.requires_grad:
            push(b, a.data.T @ g)

    return Tensor._from_op(out_data, (a, b), bwd, "matmul")


def linear(x, w):
    """x @ w.T for a weight stored (out_features, in_features)."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError(f"linear: expects 2-D operands, got {x.data.shape} and {w.data.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise DimensionError(f"linear: input width {x.data.shape} does not match weight {w.data.shape}")
    out_data = x.data @ w.data.T

    def bwd(g, push):
        if x.requires_grad:
            push(x, g @ w.data)
        if w.requires_grad:
            push(w, g.T @ x.data)

    return Tensor._from_op(out_data, (x, w), bwd, "linear")


def reshape(a, shape):
    shape = tuple(shape)
    if int(np.prod(shape)) != a.data.size:
        raise DimensionError(f"reshape: cannot view {a.data.shape} as {shape}")
    old = a.data.shape

    def bwd(g, push):
        push(a, g.reshape(old))

    return Tensor._from_op(a.data.reshape(shape), (a,), bwd, "reshape")


def embedding_lookup(table, ids):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise DimensionError(f"embedding_lookup: ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"embedding_lookup: id out of range for table of {table.data.shape[0]} rows")
    out_data = table.data[ids]

    def bwd(g, push):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            push(table, gt)

    return Tensor._from_op(out_data, (table,), bwd, "embedding_lookup")


def rms_norm(x, gain, eps=1e-6):
    """Row-wise x / sqrt(mean(x^2) + eps) * gain."""
    if x.data.ndim != 2 or gain.data.ndim != 1 or gain.data.shape[0] != x.data.shape[1]:
        raise DimensionError(f"rms_norm: got x {x.data.shape}, gain {gain.data.shape}")
    d = x.data.shape[1]
    ms = (x.data * x.data).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    xhat = x.data * inv
    out_data = xhat * gain.data

    def bwd(g, push):
        gg = g * gain.data
        # d(xhat)/dx: inv * (I - x x^T inv^2 / d)
        dot = (gg * x.data).sum(axis=1, keepdims=True)
        gx = inv * gg - (inv ** 3) * x.data * dot / d
        push(x, gx)
        push(gain, (g * xhat).sum(axis=0))

    return Tensor._from_op(out_data, (x, gain), bwd, "rms_norm")


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x):
    """GELU, tanh form: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    xd = x.data
    x2 = xd * xd
    t = np.tanh(_GELU_C * (xd + 0.044715 * (x2 * xd)))
    out_data = 0.5 * xd * (1.0 + t)

    def bwd(g, push):
        du = _GELU_C * (1.0 + 0.134145 * x2)
        push(x, g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du))

    return Tensor._from_op(out_data, (x,), bwd, "gelu")


def log_softmax(x, temperature=1.0, axis=-1):
    if temperature <= 0:
        raise ParameterError(f"log_softmax: temperature must be positive, got {temperature}")
    z = x.data / temperature
    z = z - z.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out_data = z - lse
    p = np.exp(out_data)

    def bwd(g, push):
        push(x, (g - p * g.sum(axis=axis, keepdims=True)) / temperature)

    return Tensor._from_op(out_data, (x,), bwd, "log_softmax")


def exp(x):
    out_data = np.exp(x.data)

    def bwd(g, push):
        push(x, g * out_data)

    return Tensor._from_op(out_data, (x,), bwd, "exp")


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of `targets` under rows of `logits`."""
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy: logits must be 2-D, got {logits.data.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.data.shape
    if targets.shape != (n,):
        raise DimensionError(f"cross_entropy: {n} logit rows but targets of shape {targets.shape}")
    if n == 0:
        raise ParameterError("cross_entropy: no rows")
    if targets.min() < 0 or targets.max() >= v:
        raise IndexError(f"cross_entropy: target id out of range for vocabulary of {v}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    nll = -logp[np.arange(n), targets]
    out_data = np.asarray(nll.mean(), dtype=logits.data.dtype)

    def bwd(g, push):
        p = np.exp(logp)
        p[np.arange(n), targets] -= 1.0
        push(logits, p * (float(g) / n))

    return Tensor._from_op(out_data, (logits,), bwd, "cross_entropy")


def _sequence_count(rows, seq_len, op):
    """(B, T): `rows` rows stack B sequences of T = seq_len positions (B=1 when None)."""
    if seq_len is None:
        return 1, rows
    if seq_len < 1 or rows % seq_len != 0:
        raise DimensionError(
            f"{op}: {rows} rows are not a whole number of length-{seq_len} sequences")
    return rows // seq_len, seq_len


def causal_attention(q, k, v, n_heads, seq_len=None):
    """Multi-head causal attention over (B*T, n_heads*head_dim) projections.

    The rows stack B independent sequences of seq_len = T positions each (one
    sequence when seq_len is None). Scores are scaled by 1/sqrt(head_dim);
    position t attends to positions <= t of its own sequence.
    """
    rows, width = q.data.shape
    if k.data.shape != (rows, width) or v.data.shape != (rows, width):
        raise DimensionError(
            f"causal_attention: q/k/v shapes differ: {q.data.shape} {k.data.shape} {v.data.shape}")
    if width % n_heads != 0:
        raise DimensionError(f"causal_attention: width {width} not divisible by {n_heads} heads")
    B, T = _sequence_count(rows, seq_len, "causal_attention")
    hd = width // n_heads
    sc = 1.0 / math.sqrt(hd)

    def split(x):  # (B*T, h*d) -> (B*h, T, d): per-head contractions become batched matmuls
        return np.ascontiguousarray(
            x.reshape(B, T, n_heads, hd).transpose(0, 2, 1, 3)).reshape(B * n_heads, T, hd)

    def merge(x):  # inverse of split
        return x.reshape(B, n_heads, T, hd).transpose(0, 2, 1, 3).reshape(rows, width)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    s = np.matmul(qh, kh.transpose(0, 2, 1)) * sc
    s[:, _causal_mask(T)] = -np.inf
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    out_data = merge(np.matmul(p, vh))

    def bwd(g, push):
        gh = split(g)
        dp = np.matmul(gh, vh.transpose(0, 2, 1))
        dv = np.matmul(p.transpose(0, 2, 1), gh)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        dq = np.matmul(ds, kh) * sc
        dk = np.matmul(ds.transpose(0, 2, 1), qh) * sc
        push(q, merge(dq))
        push(k, merge(dk))
        push(v, merge(dv))

    return Tensor._from_op(out_data, (q, k, v), bwd, "causal_attention")


_mask_cache = {}


def _causal_mask(T):
    m = _mask_cache.get(T)
    if m is None:
        m = np.triu(np.ones((T, T), dtype=bool), k=1)
        _mask_cache[T] = m
    return m


_rope_cache = {}


def _rope_tables(T, hd, dtype):
    key = (T, hd, np.dtype(dtype).str)
    hit = _rope_cache.get(key)
    if hit is None:
        half = hd // 2
        inv = 1.0 / (10000.0 ** (np.arange(half, dtype=np.float64) * 2.0 / hd))
        ang = np.outer(np.arange(T, dtype=np.float64), inv)
        hit = (np.cos(ang).astype(dtype), np.sin(ang).astype(dtype))
        _rope_cache[key] = hit
    return hit


def rope(x, n_heads, seq_len=None):
    """Rotary position embedding over (B*T, n_heads*head_dim); adjacent pairs rotated.

    The rows stack B sequences of seq_len = T positions each (one sequence when
    seq_len is None); positions restart at 0 in every sequence.
    """
    rows, width = x.data.shape
    if width % n_heads != 0:
        raise DimensionError(f"rope: width {width} not divisible by {n_heads} heads")
    hd = width // n_heads
    if hd % 2 != 0:
        raise DimensionError(f"rope: head_dim {hd} must be even")
    B, T = _sequence_count(rows, seq_len, "rope")
    cos, sin = _rope_tables(T, hd, x.data.dtype)
    x4 = x.data.reshape(B, T, n_heads, hd // 2, 2)
    a, b = x4[..., 0], x4[..., 1]
    c = cos[:, None, :]
    s = sin[:, None, :]
    out = np.empty_like(x4)
    out[..., 0] = a * c - b * s
    out[..., 1] = a * s + b * c

    def bwd(g, push):
        g4 = g.reshape(B, T, n_heads, hd // 2, 2)
        ga, gb = g4[..., 0], g4[..., 1]
        gx = np.empty_like(g4)
        gx[..., 0] = ga * c + gb * s
        gx[..., 1] = -ga * s + gb * c
        push(x, gx.reshape(rows, width))

    return Tensor._from_op(out.reshape(rows, width), (x,), bwd, "rope")


def slice_rows(x, start, stop, axis=0):
    """Contiguous slice [start:stop) along the given axis."""
    nd = x.data.ndim
    if not (0 <= axis < nd):
        raise ParameterError(f"slice_rows: axis {axis} out of range for {nd}-D tensor")
    extent = x.data.shape[axis]
    if not (0 <= start < stop <= extent):
        raise DimensionError(f"slice_rows: [{start}:{stop}) out of range for extent {extent}")
    idx = tuple(slice(None) if a != axis else slice(start, stop) for a in range(nd))
    out_data = x.data[idx].copy()

    def bwd(g, push):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        push(x, gx)

    return Tensor._from_op(out_data, (x,), bwd, "slice")


def concat_rows(parts, axis=0):
    """Concatenate tensors along the given axis."""
    if not parts:
        raise ParameterError("concat_rows: no operands")
    nd = parts[0].data.ndim
    for p in parts:
        if p.data.ndim != nd:
            raise DimensionError("concat_rows: rank mismatch between operands")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def bwd(g, push):
        offs = np.cumsum([0] + sizes)
        for p, lo, hi in zip(parts, offs[:-1], offs[1:]):
            idx = tuple(slice(None) if a != axis else slice(lo, hi) for a in range(nd))
            push(p, g[idx])

    return Tensor._from_op(out_data, tuple(parts), bwd, "concat")


def sum_all(x):
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def bwd(g, push):
        push(x, np.full_like(x.data, float(g)))

    return Tensor._from_op(out_data, (x,), bwd, "sum")


def backward(loss, retain=()):
    """Set .grad of each requires_grad leaf a scalar loss reaches to d loss / d leaf,
    overwriting it: .grad is the last backward's gradient; off-tape tensors keep theirs.

    retain: non-leaf tensors whose .grad is set as well, like PyTorch's retain_grad.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward: root must be scalar, got shape {loss.data.shape}")

    # Reachable tape nodes, then process in descending creation id: every node
    # is finished before any of its parents, and accumulation order is fixed.
    # A reached requires_grad leaf drops its old gradient now, so the old and
    # the new gradient are never held at once.
    seen = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        seen[node._id] = node
        if node._backward is None and node.requires_grad:
            node.grad = None
        stack.extend(node._parents)

    grads = {loss._id: np.ones_like(loss.data)}
    kept = {t._id for t in retain}

    def push(parent, g):
        cur = grads.get(parent._id)
        grads[parent._id] = g if cur is None else cur + g

    for nid in sorted(seen, reverse=True):
        node = seen[nid]
        g = grads.pop(nid, None)
        if g is None:
            continue
        if node._backward is None or nid in kept:
            if node.requires_grad:
                node.grad = g
        if node._backward is not None:
            node._backward(g, push)
