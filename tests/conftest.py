"""Shared oracles and fixtures: finite differences, gradient checks, data helpers,
the parameter partition and counts, the SFT loss, a checkpoint-manifest editor,
the weight slices of a dependency group with their signed Taylor sensitivity,
and the trained tiny model of the Taylor tests."""

import functools
from dataclasses import dataclass

import numpy as np
import pytest

from prunekit import accounting as A
from prunekit import checkpoint as C
from prunekit import data as D
from prunekit import importance as I
from prunekit import model as M
from prunekit import recovery as R
from prunekit import tensor as T


def finite_diff_grads(loss_fn, arrays, step=1e-4):
    """Central finite differences of loss_fn (list of float64 arrays -> float)."""
    grads = []
    for i, a in enumerate(arrays):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = loss_fn(arrays)
            flat[j] = orig - step
            lo = loss_fn(arrays)
            flat[j] = orig
            gf[j] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def grad_check(build, arrays, step=1e-4, tol=1e-4):
    """Autodiff vs central finite differences on float64 leaves.

    `build` maps a list of Tensors to a scalar-loss Tensor and must be pure.
    Returns the max relative error over every element of every gradient.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(leaves)
    auto = [g if g is not None else np.zeros_like(a)
            for g, a in zip(T.backward(loss, leaves), arrays)]

    def loss_fn(arrs):
        fresh = [T.Tensor(a, requires_grad=False) for a in arrs]
        return build(fresh).item()

    fd = finite_diff_grads(loss_fn, arrays, step=step)
    worst = 0.0
    for g_auto, g_fd in zip(auto, fd):
        worst = max(worst, float(rel_err(g_auto, g_fd).max()))
    assert worst <= tol, f"gradient mismatch: max rel err {worst:.3e} > {tol}"
    return worst


def float64_copy(model):
    """`model` rebuilt from float64 copies of its arrays: the 64-bit
    verification mode of the gradient and surgery checks."""
    return M.from_arrays(model.config, {name: p.data.astype(np.float64)
                                        for name, p in model.named_parameters()})


def quick_sgd(model, items, steps, lr, batch=16, momentum=0.9, clip=1.0, seed=0):
    """Minimal seeded SGD loop for test fixtures (independent of the library trainer)."""
    params = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    vel = {n: np.zeros_like(p.data) for n, p in params}
    order_rng = np.random.default_rng(seed)
    order = order_rng.permutation(len(items))
    pos = 0
    for _ in range(steps):
        if pos + batch > len(order):
            order = order_rng.permutation(len(items))
            pos = 0
        idx = order[pos:pos + batch]
        pos += batch
        total = None
        for i in idx:
            loss = M.response_loss(M.forward(model, items[i], capture=None), items[i])
            total = loss if total is None else T.add(total, loss)
        total = T.scale(total, 1.0 / len(idx))
        grads = T.backward(total, [p for _, p in params])
        gn = np.sqrt(sum(float((g ** 2).sum()) for g in grads if g is not None))
        cf = min(1.0, clip / gn) if gn > 0 else 1.0
        for (n, p), g in zip(params, grads):
            if g is None:
                continue
            vel[n] = momentum * vel[n] + g * cf
            p.data -= lr * vel[n]
    return model


def param_counts(shape):
    """Closed-form parameter counts per scope of a shape record."""
    d = shape.d_model
    counts = {
        "vision": shape.d_descriptor * shape.n_visual_tokens * shape.d_vision,
        "projector": shape.d_vision * d + d + d * d + d,
        "embedding": shape.vocab_size * d,
        "decoder-blocks": A.decoder_param_count(shape),
        "final-norm": d,
        "head": d * shape.vocab_size,
    }
    counts["total"] = sum(counts.values())
    return counts


# Scope of each model-level name prefix; "layers.<i>" is "decoder-layer-<i>".
_SCOPES = {"vision": "vision", "projector": "projector", "embed": "embedding",
           "final_norm": "final-norm", "head": "head"}


def param_partition(model):
    """Map scope -> parameter names; every parameter in exactly one scope."""
    part = {}
    for name, _ in model.named_parameters():
        prefix, rest = name.split(".", 1)
        scope = (f"decoder-layer-{rest.split('.', 1)[0]}" if prefix == "layers"
                 else _SCOPES[prefix])
        part.setdefault(scope, []).append(name)
    return part


def count_params(model, scope="total"):
    """Live parameters of a model, counted off its arrays; scope names follow
    param_partition, plus "decoder-blocks" (all layers) and "total"."""
    part = param_partition(model)
    if scope == "total":
        names = [n for group in part.values() for n in group]
    elif scope == "decoder-blocks":
        names = [n for s, group in part.items() if s.startswith("decoder-layer-") for n in group]
    elif scope in part:
        names = part[scope]
    else:
        raise T.ParameterError(f"unknown scope {scope!r}")
    by_name = dict(model.named_parameters())
    return sum(int(by_name[n].data.size) for n in names)


def sft_loss(student, items):
    """The library's supervised objective: response-token cross-entropy
    averaged over items, through recovery training's bucket-weighted batch
    losses. Items may mix token layouts."""
    return R._batch_losses(student, M.as_items(items), None, R.RecoveryConfig())[0]


def edit_manifest(path, edit):
    """Apply `edit` to the manifest of the checkpoint at `path` in place,
    keeping the payload."""
    blob = path.read_bytes()
    manifest, start = C._split(path, blob)
    edit(manifest)
    header = D.encode(manifest).encode("utf-8")
    path.write_bytes(C.MAGIC + f"{len(header)}\n".encode("ascii") + header + blob[start:])


@functools.cache
def _lookup_trained_tiny_model():
    cfg = M.ModelConfig(vocab_size=40, d_model=16, n_layers=1, n_heads=2, head_dim=8,
                        d_ffn=8, n_visual_tokens=2, d_vision=8, max_seq_len=16)
    train, _ = D.generate_dataset(n=240, seed=7)
    pool = [t for t in train if t.task == "visual-lookup"]
    model = M.init(cfg, seed=7)
    quick_sgd(model, pool, steps=1000, lr=0.1, seed=7)
    return model, pool, D.draw_calibration(pool, n=16, seed=3)


def lookup_trained_tiny_model():
    """(model, lookup pool, calibration draw) of the pinned 1-layer/8-channel
    Taylor fixture: 1000 quick_sgd steps on the lookup items of
    generate_dataset(n=240, seed=7). Lookup-only training leaves the MLP
    capacity-bound, so every channel carries graded utility. Trained once per
    session; each caller gets its own copy of the model and lists."""
    model, pool, calib = _lookup_trained_tiny_model()
    return model.copy(), list(pool), list(calib)


@dataclass(frozen=True)
class Slice:
    """One dependency-closed weight slice: rows or columns [start, stop) of a matrix."""
    param: str
    axis: int
    start: int
    stop: int

    def take(self, arr):
        idx = tuple(slice(self.start, self.stop) if a == self.axis else slice(None)
                    for a in range(arr.ndim))
        return arr[idx]


def group_slices(group):
    """The group's weight slices, one per member matrix of its kind."""
    lo = group.index * group.width
    return tuple(Slice(f"layers.{group.layer}.{m}", axis, lo, lo + group.width)
                 for m, axis in I.GROUP_MEMBERS[group.kind])


def zero_group(model, group):
    """Zero every member slice of a dependency group, in place."""
    by_name = dict(model.named_parameters())
    for sl in group_slices(group):
        sl.take(by_name[sl.param].data)[...] = 0.0


def group_scale_sensitivity(model, group, calib):
    """Signed first-order prediction of the loss change from scaling the
    group's weights: sum over member weights of grad*weight, calibration mean.

    This is the true limit of dLoss/depsilon under w -> (1-eps)w; the Taylor
    importance (sum of absolute values) upper-bounds its magnitude. The signed
    sum is linear in the per-item gradients, so each layout bucket needs only
    the gradient of its summed per-item losses.
    """
    by_name = dict(model.named_parameters())
    slices = group_slices(group)
    total = 0.0
    for idx in M.layout_buckets(calib):
        items = [calib[i] for i in idx]
        trace = M.forward(model, items, capture=None)
        grads = T.backward(T.scale(M.response_loss(trace, items), len(items)),
                           [by_name[sl.param] for sl in slices])
        del trace
        for sl, g in zip(slices, grads):
            if g is not None:
                total += float((sl.take(g) * sl.take(by_name[sl.param].data)).sum())
    return total / len(calib)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
