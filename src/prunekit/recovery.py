"""Recovery training of a pruned student against its frozen teacher, and
supervised pre-training of that teacher.

Losses: supervised cross-entropy on response tokens, temperature-softened
logits distillation (forward or reverse KL, scaled by tau^2), and squared-L2
matching of final-block hidden states. All three are averaged over the rows
that predict response tokens. The combined objective is
alpha*sft + beta*logits + gamma*match.

Both entry points run the same SGD loop (`_fit`): seeded shuffled batches,
one bucketed forward and backward per step, a finite-loss check, optional
momentum and an optional in-run eval. Recovery (`train`) updates only its
scope's parameters at a fixed step size without clipping. Teacher
pre-training (`train_teacher`) is the SFT-only objective over every
non-frozen parameter, with warmup, cosine decay and grad-norm clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import data as D
from . import model as M
from . import tensor as T
from .tensor import GraphError, ParameterError, Tensor


class TrainingDivergedError(RuntimeError):
    """A training step produced a non-finite loss."""


@dataclass(frozen=True)
class LoraSettings:
    rank: int = 8
    scaling: float = 16.0
    targets: tuple = ("wq", "wv")  # attention q and v projections

    def __post_init__(self):
        if self.rank < 1:
            raise ParameterError("lora rank must be >= 1")
        if (not set(self.targets) <= set(M.LORA_TARGETS)
                or len(set(self.targets)) != len(self.targets)):
            raise ParameterError(f"lora targets must be distinct and among "
                                 f"{M.LORA_TARGETS}, got {self.targets}")


@dataclass(frozen=True)
class RecoveryConfig:
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    tau: float = 2.0
    kd_direction: str = "none"  # "kl" | "rkl" | "none"
    match_layers: tuple = (-1,)  # indices into block outputs, python-style
    scope: str = "projector"  # "projector" | "joint"
    lora: LoraSettings = LoraSettings()
    data_fraction: float = 1.0
    lr: float = 0.05
    steps: int = 300
    batch_size: int = 8
    momentum: float = 0.9
    seed: int = 0
    eval_every: int = 0  # 0: no in-run eval

    def __post_init__(self):
        if self.alpha == 0 and self.beta == 0 and self.gamma == 0:
            raise ParameterError("at least one of alpha/beta/gamma must be positive")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ParameterError("loss coefficients must be nonnegative")
        if self.tau <= 0:
            raise ParameterError("tau must be positive")
        if not (0.0 < self.data_fraction <= 1.0):
            raise ParameterError("data_fraction must be in (0, 1]")
        if self.kd_direction not in ("kl", "rkl", "none"):
            raise ParameterError(f"unknown kd_direction {self.kd_direction!r}")
        if self.beta > 0 and self.kd_direction == "none":
            raise ParameterError("beta > 0 requires a kd_direction")
        if self.scope not in ("projector", "joint"):
            raise ParameterError(f"unknown scope {self.scope!r}")
        _check_run_length(self)


def _check_run_length(config):
    if config.steps < 1 or config.batch_size < 1:
        raise ParameterError(f"steps and batch_size must be >= 1, got "
                             f"{config.steps} and {config.batch_size}")


@dataclass
class LossBreakdown:
    steps: list = field(default_factory=list)

    def record(self, step, l_sft, l_logits, l_match, total, eval_metric=None):
        self.steps.append({"step": step, "l_sft": l_sft, "l_logits": l_logits,
                           "l_match": l_match, "total": total,
                           "eval_metric": eval_metric})

    def lines(self):
        out = []
        for s in self.steps:
            ev = "" if s["eval_metric"] is None else f"\teval={s['eval_metric']:.6f}"
            out.append(f"step={s['step']}\tl_sft={s['l_sft']:.6f}"
                       f"\tl_logits={s['l_logits']:.6f}\tl_match={s['l_match']:.6f}"
                       f"\ttotal={s['total']:.6f}{ev}")
        return out


@dataclass
class LoraAdapter:
    target: str
    a: Tensor  # (rank, d_in)
    b: Tensor  # (d_out, rank), zero-initialized
    scaling: float


# --------------------------------------------------------------------- losses

def sft_loss(student, items):
    """Supervised objective: cross-entropy of the response tokens under the
    student, averaged over items. Items may mix token layouts; each layout
    bucket runs as one batched forward, weighted by its share of the items."""
    return _batch_losses(student, M.as_items(items), None, RecoveryConfig())[0]


def _check_layouts(a, b):
    if a.layout != b.layout or a.n_items != b.n_items:
        raise GraphError(f"trace layouts differ: {a.n_items} x {a.layout} "
                         f"vs {b.n_items} x {b.layout}")


def kd_logits_loss(student_trace, teacher_trace, tau, direction):
    """Token-averaged divergence between tau-softened response distributions.

    direction "kl" is KL(teacher || student); "rkl" swaps the roles so the
    student concentrates on the teacher's major modes. Scaled by tau^2.
    """
    if direction not in ("kl", "rkl"):
        raise ParameterError(f"unknown kd direction {direction!r}")
    if tau <= 0:
        raise ParameterError("tau must be positive")
    _check_layouts(student_trace, teacher_trace)
    if student_trace.logits.shape != teacher_trace.logits.shape:
        raise GraphError("student and teacher logits have different shapes")
    rows_s = M.response_rows(student_trace, student_trace.logits)
    rows_t = M.response_rows(teacher_trace, teacher_trace.logits).data
    t_logp = T.log_softmax(Tensor(rows_t), temperature=tau).data
    logp_s = T.log_softmax(rows_s, temperature=tau)
    if direction == "kl":
        terms = T.mul(Tensor(np.exp(t_logp)), T.sub(Tensor(t_logp), logp_s))
    else:
        p_s = T.exp(logp_s)
        terms = T.mul(p_s, T.sub(logp_s, Tensor(t_logp)))
    return T.scale(T.sum_all(terms), tau * tau / rows_s.shape[0])


def hidden_match_loss(student_trace, teacher_trace, layers=(-1,)):
    """Mean over response rows of squared L2 distance between block outputs,
    averaged over the matched layers (block indices, 0-based; negative ones
    count from the end). Each trace must have captured its matched blocks."""
    _check_layouts(student_trace, teacher_trace)
    if not layers:
        raise ParameterError("hidden_match_loss: no layers selected")
    total = None
    for k in layers:
        hs = student_trace.hidden_states[1:][k]
        ht = teacher_trace.hidden_states[1:][k]
        if hs is None or ht is None:
            raise GraphError(f"hidden_match_loss: block {k} was not captured")
        if hs.shape != ht.shape:
            raise GraphError(f"matched hidden states differ in shape: {hs.shape} vs {ht.shape}")
        rows_s = M.response_rows(student_trace, hs)
        diff = T.sub(rows_s, Tensor(M.response_rows(teacher_trace, ht).data))
        term = T.scale(T.sum_all(T.mul(diff, diff)), 1.0 / rows_s.shape[0])
        total = term if total is None else T.add(total, term)
    return T.scale(total, 1.0 / len(layers))


def _teacher_outputs(teacher, items, capture):
    """Per item, the teacher's [logits, *hidden_states] as arrays of
    layout.total rows (None where not captured), from one no-grad forward per
    layout bucket."""
    out = [None] * len(items)
    with T.no_grad():
        for idx in M.layout_buckets(items):
            trace = M.forward(teacher, [items[i] for i in idx], capture=capture)
            arrays = [None if t is None else t.data.reshape(len(idx), trace.layout.total, -1)
                      for t in (trace.logits, *trace.hidden_states)]
            for j, i in enumerate(idx):
                out[i] = [None if a is None else a[j] for a in arrays]
    return out


def _stacked_trace(outputs, layout):
    """A ForwardTrace of cached teacher outputs of items sharing `layout`."""
    logits, *states = [None if a is None else Tensor(np.concatenate([o[k] for o in outputs]))
                       for k, a in enumerate(outputs[0])]
    return M.ForwardTrace(states, None, logits, layout, len(outputs))


# ----------------------------------------------------------------------- LoRA

def attach_lora(model, settings=LoraSettings(), seed=0):
    """Attach zero-delta adapters to the configured attention projections."""
    if model.lora:
        raise ParameterError("model already has adapters attached")
    rng = np.random.default_rng(seed)
    adapters = []
    for i, layer in enumerate(model.layers):
        for tgt in settings.targets:
            base = getattr(layer, tgt)
            d_out, d_in = base.data.shape
            a = Tensor(rng.standard_normal((settings.rank, d_in)) * 0.02,
                       requires_grad=True)
            b = Tensor(np.zeros((d_out, settings.rank)), requires_grad=True)
            name = f"layers.{i}.attn.{tgt}"
            adapter = LoraAdapter(target=name, a=a, b=b, scaling=settings.scaling)
            model.lora[name] = adapter
            adapters.append(adapter)
    return adapters


def merge_lora(model):
    """Fold scaling*B@A into each base matrix exactly once, then detach."""
    if not model.lora:
        raise ParameterError("no adapters to merge")
    for name, adapter in model.lora.items():
        base = model.get_parameter(name)
        base.data = base.data + adapter.scaling * (adapter.b.data @ adapter.a.data)
    model.lora.clear()


# ------------------------------------------------------------------ optimizer

class Sgd:
    """Plain SGD with optional momentum (velocity is plain accumulation)."""

    def __init__(self, named_params, lr, momentum=0.0):
        self.named_params = list(named_params)
        self.lr = lr
        self.momentum = momentum
        self.velocity = {n: np.zeros_like(p.data) for n, p in self.named_params}

    def step(self, grad_scale=1.0):
        for n, p in self.named_params:
            if p.grad is None:
                continue
            g = p.grad * grad_scale
            if self.momentum:
                v = self.velocity[n]
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g


def subsample(pool, fraction, seed):
    """Seeded, sorted subsample of round(fraction * n) items (at least 1)."""
    if not (0.0 < fraction <= 1.0):
        raise ParameterError("data_fraction must be in (0, 1]")
    return D.draw_calibration(pool, max(1, round(fraction * len(pool))), seed)


def _trainable_params(student, lora_adapters):
    names = set(M.param_partition(student)["projector"])
    chosen = [(n, p) for n, p in student.named_parameters() if n in names]
    for ad in lora_adapters:
        chosen.append((f"{ad.target}.lora_a", ad.a))
        chosen.append((f"{ad.target}.lora_b", ad.b))
    return chosen


def _batch_losses(student, batch, targets, config):
    """Batch means of the SFT, logits-KD and hidden-match losses (None where
    the coefficient is zero): one student forward per layout bucket, each
    bucket weighted by its share of the batch. targets[j] holds the cached
    teacher outputs of batch[j]."""
    capture = "all" if config.gamma > 0 else None
    sums = [None, None, None]
    for sub in M.layout_buckets(batch):
        bucket = [batch[j] for j in sub]
        trace_s = M.forward(student, bucket, capture=capture)
        terms = [M.response_loss(trace_s, bucket) if config.alpha > 0 else None, None, None]
        if targets is not None:
            trace_t = _stacked_trace([targets[j] for j in sub], trace_s.layout)
            if config.beta > 0:
                terms[1] = kd_logits_loss(trace_s, trace_t, config.tau, config.kd_direction)
            if config.gamma > 0:
                terms[2] = hidden_match_loss(trace_s, trace_t, config.match_layers)
        for k, term in enumerate(terms):
            if term is not None:
                term = T.scale(term, len(sub) / len(batch))
                sums[k] = term if sums[k] is None else T.add(sums[k], term)
    return sums


def _backward_step(student, batch, targets, config, step):
    """Loss of one batch and its backward pass; returns (l_sft, l_logits,
    l_match, total). The tape is freed on return."""
    sft, logits, match = _batch_losses(student, batch, targets, config)
    if match is not None:
        # width-normalized so the three terms share an order of magnitude
        match = T.scale(match, 1.0 / student.config.d_model)
    values = [0.0 if term is None else term.item() for term in (sft, logits, match)]
    total = None
    for term, coef in ((sft, config.alpha), (logits, config.beta), (match, config.gamma)):
        if term is not None:
            term = T.scale(term, coef)
            total = term if total is None else T.add(total, term)
    total_val = total.item()
    if not math.isfinite(total_val):
        raise TrainingDivergedError(
            f"non-finite loss at step {step}: "
            f"sft={values[0]} logits={values[1]} match={values[2]}")
    T.backward(total)
    return (*values, total_val)


def _fit(model, params, data, run, lr_at, losses, cache=None, clip=None,
         eval_fn=None, eval_every=0):
    """The SGD loop of both entry points; updates `params`, returns a
    LossBreakdown. `run` gives steps, batch_size, momentum and seed; `losses`
    the loss weights; cache[i], if given, the teacher outputs of data[i].
    Batches are drawn from a seeded permutation of `data`, redrawn when
    exhausted. Other parameters of `model` are frozen for the run, so no tape
    is built for them. With `clip`, gradients are scaled to a global norm of
    at most `clip`."""
    opt = Sgd(params, lr=0.0, momentum=run.momentum)
    trainable_ids = {id(p) for _, p in params}
    frozen = [p for _, p in model.named_parameters()
              if p.requires_grad and id(p) not in trainable_ids]
    for p in frozen:
        p.requires_grad = False
    rng = np.random.default_rng(run.seed)
    order = rng.permutation(len(data))
    pos = 0
    history = LossBreakdown()
    try:
        for step in range(run.steps):
            if pos + run.batch_size > len(order):
                order = rng.permutation(len(data))
                pos = 0
            idx = order[pos:pos + run.batch_size]
            pos += run.batch_size
            targets = None if cache is None else [cache[i] for i in idx]

            opt.lr = lr_at(step)
            terms = _backward_step(model, [data[i] for i in idx], targets, losses, step)
            grad_scale = 1.0
            if clip is not None:
                gn = math.sqrt(sum(float((p.grad ** 2).sum())
                                   for _, p in params if p.grad is not None))
                grad_scale = min(1.0, clip / gn) if gn > 0 else 1.0
            opt.step(grad_scale)

            metric = None
            if eval_fn is not None and eval_every and step % eval_every == 0:
                metric = float(eval_fn(model))
            history.record(step, *terms, metric)
    finally:
        for p in frozen:
            p.requires_grad = True
    return history


def train(student, teacher, pool, config, eval_fn=None):
    """Run recovery training; mutates the student, returns a LossBreakdown.

    The teacher is only consulted (read-only, no tape) when beta or gamma is
    positive, once per distinct item of the subsample before the first step;
    every step that draws the item reuses those outputs. Scope "projector"
    updates the projector alone; "joint" adds LoRA adapters on the attention
    q/v projections, merged into the base weights on completion and dropped
    unmerged if the run raises. Only scope-selected parameters change.
    """
    if not pool:
        raise ParameterError("train: empty data pool")
    needs_teacher = config.beta > 0 or config.gamma > 0
    if needs_teacher and teacher is None:
        raise ParameterError("beta/gamma > 0 requires a teacher")
    if config.gamma > 0:
        for model, role in ((student, "student"), (teacher, "teacher")):
            n = model.n_layers
            if not all(-n <= k < n for k in config.match_layers):
                raise ParameterError(f"match_layers {config.match_layers} out of range "
                                     f"for the {role}'s {n} blocks")

    data = subsample(pool, config.data_fraction, config.seed)
    cache = None
    if needs_teacher:
        # The teacher is frozen: one pass per distinct item serves every step.
        # Only the block outputs that hidden-state matching reads are kept.
        blocks = range(1, teacher.n_layers + 1)
        capture = sorted({blocks[k] for k in config.match_layers}) if config.gamma > 0 else None
        cache = _teacher_outputs(teacher, data, capture)
    adapters = []
    if config.scope == "joint":
        adapters = attach_lora(student, config.lora, seed=config.seed)
    params = _trainable_params(student, adapters)
    try:
        history = _fit(student, params, data, config, lambda step: config.lr, losses=config,
                       cache=cache, eval_fn=eval_fn, eval_every=config.eval_every)
    except BaseException:
        student.lora.clear()
        raise
    if adapters:
        merge_lora(student)
    return history


# -------------------------------------------------------------- teacher phase

@dataclass(frozen=True)
class TeacherConfig:
    steps: int = 1500
    batch_size: int = 32
    peak_lr: float = 0.15
    warmup: int = 150
    floor_frac: float = 0.05
    momentum: float = 0.9
    clip: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_run_length(self)


def _cosine_lr(step, cfg):
    if step < cfg.warmup:
        return cfg.peak_lr * (step + 1) / cfg.warmup
    t = (step - cfg.warmup) / max(1, cfg.steps - cfg.warmup)
    return cfg.peak_lr * (cfg.floor_frac + (1 - cfg.floor_frac) * 0.5 * (1 + math.cos(math.pi * t)))


def train_teacher(model, pool, config=TeacherConfig(), eval_fn=None, eval_every=0):
    """Supervised training of every non-frozen parameter (the vision stub
    stays fixed). Warmup + cosine decay + grad-norm clipping for stability."""
    if not pool:
        raise ParameterError("train_teacher: empty data pool")
    params = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    return _fit(model, params, pool, config, lambda step: _cosine_lr(step, config),
                losses=RecoveryConfig(), clip=config.clip, eval_fn=eval_fn,
                eval_every=eval_every)
