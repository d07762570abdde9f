"""Recovery training of a pruned student against its frozen teacher, and
supervised pre-training of that teacher.

Losses: supervised cross-entropy on response tokens, temperature-softened
logits distillation (forward or reverse KL, scaled by tau^2), and squared-L2
matching of the final block's outputs. All three are averaged over the rows
that predict response tokens. The combined objective is
alpha*sft + beta*logits + gamma*match. The two distillation losses take the
frozen teacher's side as plain arrays of those rows: its logits and its
final block's outputs, computed once per item before the first step.

Both entry points run the same SGD loop (`_fit`): seeded shuffled batches,
one bucketed forward and backward per step, a finite-loss check, an SGD
step whose gradients are clipped to a global norm of at most CLIP_NORM,
optional momentum and an optional in-run eval. Recovery (`train`) updates
only its scope's parameters at a fixed step size. Teacher pre-training
(`train_teacher`) is the SFT-only objective over every non-frozen parameter,
with warmup and cosine decay.
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
    """A training step produced a non-finite loss; the message names the step,
    its loss terms and the first non-finite parameter, if any."""


@dataclass(frozen=True)
class RecoveryConfig:
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    tau: float = 2.0
    kd_direction: str = "none"  # "kl" | "rkl" | "none"
    scope: str = "projector"  # "projector" | "joint"
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
        if self.beta > 0 and self.kd_direction == "none":
            raise ParameterError("beta > 0 requires a kd_direction")
        _check_ranges(self, {
            "alpha": (self.alpha >= 0, ">= 0"), "beta": (self.beta >= 0, ">= 0"),
            "gamma": (self.gamma >= 0, ">= 0"), "tau": (self.tau > 0, "> 0"),
            "kd_direction": (self.kd_direction in ("kl", "rkl", "none"), "kl, rkl or none"),
            "scope": (self.scope in ("projector", "joint"), "projector or joint"),
            "data_fraction": (0 < self.data_fraction <= 1, "in (0, 1]"),
            "lr": (self.lr > 0, "> 0"), "eval_every": (self.eval_every >= 0, ">= 0")})


def _check_ranges(config, ranges):
    """Raise ParameterError naming the first setting out of its range. `ranges`
    maps a setting to (in range?, the range); steps, batch_size and momentum,
    which `_fit` reads from either config, are always checked."""
    ranges = {"steps": (config.steps >= 1, ">= 1"), "batch_size": (config.batch_size >= 1, ">= 1"),
              "momentum": (0 <= config.momentum < 1, "in [0, 1)"), **ranges}
    for name, (ok, rule) in ranges.items():
        if not ok:
            raise ParameterError(f"{name} must be {rule}, got {getattr(config, name)!r}")


@dataclass
class LossBreakdown:
    steps: list = field(default_factory=list)

    def record(self, step, l_sft, l_logits, l_match, total, eval_metric=None):
        self.steps.append({"step": step, "l_sft": l_sft, "l_logits": l_logits,
                           "l_match": l_match, "total": total,
                           "eval_metric": eval_metric})


@dataclass
class LoraAdapter:
    a: Tensor  # (M.LORA_RANK, d_in)
    b: Tensor  # (d_out, M.LORA_RANK), zero-initialized


# --------------------------------------------------------------------- losses

def kd_logits_loss(student_trace, teacher_logits, tau, direction):
    """Token-averaged divergence between tau-softened response distributions.

    teacher_logits is the teacher's (rows, vocab) array for the response rows
    of the student trace, in the same order. direction "kl" is
    KL(teacher || student); "rkl" swaps the roles so the student concentrates
    on the teacher's major modes. Scaled by tau^2.
    """
    if direction not in ("kl", "rkl"):
        raise ParameterError(f"unknown kd direction {direction!r}")
    if tau <= 0:
        raise ParameterError("tau must be positive")
    rows_s = M.response_rows(student_trace, student_trace.logits)
    if rows_s.shape != teacher_logits.shape:
        raise GraphError(f"student and teacher response logits differ in shape: "
                         f"{rows_s.shape} vs {teacher_logits.shape}")
    t_logp = T.log_softmax(Tensor(teacher_logits), temperature=tau).data
    logp_s = T.log_softmax(rows_s, temperature=tau)
    if direction == "kl":
        terms = T.mul(Tensor(np.exp(t_logp)), T.sub(Tensor(t_logp), logp_s))
    else:
        p_s = T.exp(logp_s)
        terms = T.mul(p_s, T.sub(logp_s, Tensor(t_logp)))
    return T.scale(T.sum_all(terms), tau * tau / rows_s.shape[0])


def hidden_match_loss(student_trace, teacher_state):
    """Mean over response rows of squared L2 distance between the final
    block's outputs: the student trace's, which it must have captured, and
    teacher_state, the teacher's (rows, d_model) array of the same rows."""
    final = student_trace.hidden_states[-1]
    if final is None:
        raise GraphError("hidden_match_loss: the final block was not captured")
    rows_s = M.response_rows(student_trace, final)
    if rows_s.shape != teacher_state.shape:
        raise GraphError(f"matched hidden states differ in shape: "
                         f"{rows_s.shape} vs {teacher_state.shape}")
    diff = T.sub(rows_s, Tensor(teacher_state))
    return T.scale(T.sum_all(T.mul(diff, diff)), 1.0 / rows_s.shape[0])


def _teacher_targets(teacher, items):
    """Per item, the teacher's [logits, final block's output] on its response
    rows, as arrays of n_response rows, from one no-grad forward per layout
    bucket."""
    out = [None] * len(items)
    with T.no_grad():
        for idx in M.layout_buckets(items):
            trace = M.forward(teacher, [items[i] for i in idx], capture="all")
            arrays = [M.response_rows(trace, t).data.reshape(len(idx), -1, t.shape[1])
                      for t in (trace.logits, trace.hidden_states[-1])]
            for j, i in enumerate(idx):
                out[i] = [a[j] for a in arrays]
    return out


# ----------------------------------------------------------------------- LoRA

def attach_lora(model, seed=0):
    """Attach float32 zero-delta adapters of rank M.LORA_RANK to every
    block's M.LORA_TARGETS projections."""
    if model.lora:
        raise ParameterError("model already has adapters attached")
    rng = np.random.default_rng(seed)
    for i, layer in enumerate(model.layers):
        for tgt in M.LORA_TARGETS:
            d_out, d_in = getattr(layer, tgt).data.shape
            a = Tensor((rng.standard_normal((M.LORA_RANK, d_in)) * 0.02).astype(np.float32),
                       requires_grad=True)
            b = Tensor(np.zeros((d_out, M.LORA_RANK), dtype=np.float32), requires_grad=True)
            model.lora[f"layers.{i}.attn.{tgt}"] = LoraAdapter(a=a, b=b)


def merge_lora(model):
    """Fold M.LORA_SCALING*B@A into each base matrix exactly once, then detach."""
    if not model.lora:
        raise ParameterError("no adapters to merge")
    for name, adapter in model.lora.items():
        base = model.get_parameter(name)
        base.data = base.data + M.LORA_SCALING * (adapter.b.data @ adapter.a.data)
    model.lora.clear()


# ------------------------------------------------------------------ optimizer

CLIP_NORM = 1.0  # every step's gradients together have an L2 norm of at most this


class Sgd:
    """SGD with optional momentum (velocity is plain accumulation) on
    gradients clipped to a global norm of at most CLIP_NORM."""

    def __init__(self, named_params, lr, momentum=0.0):
        self.named_params = list(named_params)
        self.lr = lr
        self.momentum = momentum
        self.velocity = {n: np.zeros_like(p.data) for n, p in self.named_params}

    def step(self, grads):
        """grads[j] is the gradient of named_params[j], or None to leave it."""
        gn = math.sqrt(sum(float((g ** 2).sum()) for g in grads if g is not None))
        scale = min(1.0, CLIP_NORM / gn) if gn > 0 else 1.0
        for (n, p), g in zip(self.named_params, grads):
            if g is None:
                continue
            v = self.velocity[n]
            v *= self.momentum
            v += g if scale == 1.0 else g * scale  # g * 1.0 == g: skip the pass
            p.data -= self.lr * v


def subsample(pool, fraction, seed):
    """Seeded, sorted subsample of round(fraction * n) items (at least 1);
    RecoveryConfig keeps fraction in (0, 1]."""
    return D.draw_calibration(pool, max(1, round(fraction * len(pool))), seed)


def _trainable_params(student):
    """The projector's parameters and those of every attached LoRA adapter."""
    chosen = [(n, p) for n, p in student.named_parameters() if n.startswith("projector.")]
    for name, ad in student.lora.items():
        chosen += [(f"{name}.lora_a", ad.a), (f"{name}.lora_b", ad.b)]
    return chosen


def _batch_losses(student, batch, targets, config):
    """Batch means of the SFT, logits-KD and hidden-match losses (None where
    the coefficient is zero): one student forward per layout bucket, each
    bucket weighted by its share of the batch. targets[j] holds the cached
    teacher targets of batch[j]."""
    sums = [None, None, None]
    for sub in M.layout_buckets(batch):
        bucket = [batch[j] for j in sub]
        trace_s = M.forward(student, bucket, capture="all" if config.gamma > 0 else None)
        terms = [M.response_loss(trace_s, bucket) if config.alpha > 0 else None, None, None]
        if targets is not None:
            logits_t, state_t = [np.concatenate(rows) for rows in zip(*(targets[j] for j in sub))]
            if config.beta > 0:
                terms[1] = kd_logits_loss(trace_s, logits_t, config.tau, config.kd_direction)
            if config.gamma > 0:
                terms[2] = hidden_match_loss(trace_s, state_t)
        for k, term in enumerate(terms):
            if term is not None:
                term = T.scale(term, len(sub) / len(batch))
                sums[k] = term if sums[k] is None else T.add(sums[k], term)
    return sums


def _backward_step(student, params, batch, targets, config, step, grads):
    """Loss of one batch and its backward pass; returns (l_sft, l_logits,
    l_match, total). The list `grads` is refilled with the gradients of
    `params` (None where the loss does not reach). The tape is freed on return."""
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
        bad = next((n for n, p in student.named_parameters() + params
                    if not np.isfinite(p.data).all()), None)
        raise TrainingDivergedError(
            f"non-finite loss at step {step}: "
            f"sft={values[0]} logits={values[1]} match={values[2]}; "
            + (f"first non-finite parameter {bad}" if bad else "all parameters are finite"))
    # Last step's gradients go only now: alive through the forward, they keep
    # the freed tape's memory from being trimmed and faulted back in each step.
    grads.clear()
    grads.extend(T.backward(total, [p for _, p in params]))
    return (*values, total_val)


def _fit(model, params, data, run, lr_at, losses, cache=None, eval_fn=None, eval_every=0):
    """The SGD loop of both entry points; updates `params`, returns a
    LossBreakdown. `run` gives steps, batch_size, momentum and seed; `losses`
    the loss weights; cache[i], if given, the teacher targets of data[i].
    Batches are drawn from a seeded permutation of `data`, redrawn when
    exhausted. Other parameters of `model` are frozen for the run, so no tape
    is built for them."""
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
    grads = []
    try:
        for step in range(run.steps):
            if pos + run.batch_size > len(order):
                order = rng.permutation(len(data))
                pos = 0
            idx = order[pos:pos + run.batch_size]
            pos += run.batch_size
            targets = None if cache is None else [cache[i] for i in idx]

            opt.lr = lr_at(step)
            terms = _backward_step(model, params, [data[i] for i in idx], targets, losses,
                                   step, grads)
            opt.step(grads)

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
    only its response-row logits and final block outputs are kept, and
    every step that draws the item reuses them. Scope "projector"
    updates the projector alone; "joint" adds LoRA adapters on the attention
    q/v projections, merged into the base weights on completion and dropped
    unmerged if the run raises. Only scope-selected parameters change.
    """
    if not pool:
        raise ParameterError("train: empty data pool")
    needs_teacher = config.beta > 0 or config.gamma > 0
    if needs_teacher and teacher is None:
        raise ParameterError("beta/gamma > 0 requires a teacher")
    # the logits loss compares vocab_size-wide rows, the match loss d_model-wide ones
    for key, used in (("vocab_size", config.beta > 0), ("d_model", config.gamma > 0)):
        if not used:
            continue
        s_width, t_width = getattr(student.config, key), getattr(teacher.config, key)
        if s_width != t_width:
            raise ParameterError(f"{key} differs: the student's is {s_width}, "
                                 f"the teacher's {t_width}")

    data = subsample(pool, config.data_fraction, config.seed)
    # The teacher is frozen: one pass per distinct item serves every step.
    cache = _teacher_targets(teacher, data) if needs_teacher else None
    if config.scope == "joint":
        attach_lora(student, seed=config.seed)
    params = _trainable_params(student)
    try:
        history = _fit(student, params, data, config, lambda step: config.lr, losses=config,
                       cache=cache, eval_fn=eval_fn, eval_every=config.eval_every)
    except BaseException:
        student.lora.clear()
        raise
    if config.scope == "joint":
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
    seed: int = 0

    def __post_init__(self):
        _check_ranges(self, {
            "peak_lr": (self.peak_lr > 0, "> 0"), "warmup": (self.warmup >= 0, ">= 0"),
            "floor_frac": (0 <= self.floor_frac <= 1, "in [0, 1]")})


def _cosine_lr(step, cfg):
    if step < cfg.warmup:
        return cfg.peak_lr * (step + 1) / cfg.warmup
    t = (step - cfg.warmup) / max(1, cfg.steps - cfg.warmup)
    return cfg.peak_lr * (cfg.floor_frac + (1 - cfg.floor_frac) * 0.5 * (1 + math.cos(math.pi * t)))


def train_teacher(model, pool, config=TeacherConfig(), eval_fn=None, eval_every=0):
    """Supervised training of every non-frozen parameter (the vision stub
    stays fixed). Warmup + cosine decay for stability."""
    if not pool:
        raise ParameterError("train_teacher: empty data pool")
    params = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    return _fit(model, params, pool, config, lambda step: _cosine_lr(step, config),
                losses=RecoveryConfig(), eval_fn=eval_fn, eval_every=eval_every)
