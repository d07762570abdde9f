"""Shared oracles and fixtures: finite differences, gradient checks, data helpers,
and the weight slices of a dependency group with their signed Taylor sensitivity."""

from dataclasses import dataclass

import numpy as np
import pytest

from prunekit import importance as I
from prunekit import model as M
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
    """Autodiff vs central finite differences in 64-bit mode.

    `build` maps a list of Tensors to a scalar-loss Tensor and must be pure.
    Returns the max relative error over every element of every gradient.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    with T.precision("float64"):
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        loss = build(leaves)
        T.backward(loss)
        auto = [lf.grad if lf.grad is not None else np.zeros_like(a)
                for lf, a in zip(leaves, arrays)]

        def loss_fn(arrs):
            fresh = [T.Tensor(a, requires_grad=False) for a in arrs]
            return build(fresh).item()

        fd = finite_diff_grads(loss_fn, arrays, step=step)
    worst = 0.0
    for g_auto, g_fd in zip(auto, fd):
        worst = max(worst, float(rel_err(g_auto, g_fd).max()))
    assert worst <= tol, f"gradient mismatch: max rel err {worst:.3e} > {tol}"
    return worst


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
        for _, p in params:
            p.grad = None
        total = None
        for i in idx:
            loss = M.response_loss(M.forward(model, items[i], capture=None), items[i])
            total = loss if total is None else T.add(total, loss)
        total = T.scale(total, 1.0 / len(idx))
        T.backward(total)
        gn = np.sqrt(sum(float((p.grad ** 2).sum()) for _, p in params if p.grad is not None))
        cf = min(1.0, clip / gn) if gn > 0 else 1.0
        for n, p in params:
            if p.grad is None:
                continue
            vel[n] = momentum * vel[n] + p.grad * cf
            p.data -= lr * vel[n]
    return model


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
    total = 0.0
    for idx in M.layout_buckets(calib):
        items = [calib[i] for i in idx]
        trace = M.forward(model, items, capture=None)
        T.backward(T.scale(M.response_loss(trace, items), len(items)))
        del trace
        for sl in group_slices(group):
            p = by_name[sl.param]
            if p.grad is not None:
                total += float((sl.take(p.grad) * sl.take(p.data)).sum())
    return total / len(calib)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
