"""Acceptance suite: one test per criterion, each printing a pass line.

Criterion 8's seeds and observed values are pinned as regression anchors
(exact within one build; see PINNED_* constants). Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from prunekit import accounting as A
from prunekit import advisor as V
from prunekit import checkpoint as C
from prunekit import cli
from prunekit import data as D
from prunekit import evaluation as E
from prunekit import importance as I
from prunekit import model as M
from prunekit import pruning as P
from prunekit import recovery as R
from prunekit import tensor as T
from prunekit.advisor import Scenario
from prunekit.model import ModelConfig, Triplet
from prunekit.recovery import RecoveryConfig, TeacherConfig
from prunekit.tensor import Tensor

from conftest import count_params, finite_diff_grads, float64_copy, group_scale_sensitivity, \
    group_slices, llava_7b_shape, lookup_trained_tiny_model, param_partition, quick_sgd, \
    rel_err, zero_group


def report_pass(n, text):
    print(f"[acceptance] criterion {n:02d} PASS: {text}")


# ----------------------------------------------------------- shared fixtures

@pytest.fixture(scope="module")
def dataset():
    return D.generate_dataset(n=1920, seed=0)


@pytest.fixture(scope="module")
def teacher(dataset):
    train, _ = dataset
    model = M.init(ModelConfig(), seed=0)
    R.train_teacher(model, train, TeacherConfig(seed=0))
    return model


@pytest.fixture(scope="module")
def teacher_report(teacher, dataset):
    _, evals = dataset
    return E.evaluate(teacher, evals, label="teacher")


def width_pruned(teacher, dataset, ratio):
    train, _ = dataset
    student = teacher.copy()
    calib = D.draw_calibration(train, n=10, seed=1)
    groups = I.build_dependency_groups(student)
    I.taylor_group_importance(student, groups, calib)
    plan = P.plan("widthwise", I.group_report(student, groups), ratio)
    P.execute(student, plan)
    return student


# -------------------------------------------------- criterion 1: autodiff

def _graph_builders(rng):
    """Parameterized random small graphs; each returns (arrays, build_fn)."""
    def mlp():
        n, d, h, o = rng.integers(2, 5), rng.integers(3, 6), rng.integers(4, 8), rng.integers(2, 4)
        x = rng.standard_normal((n, d))
        mark = rng.standard_normal((n, o))
        arrays = [rng.standard_normal((h, d)) * 0.5, rng.standard_normal(h) * 0.1,
                  rng.standard_normal((o, h)) * 0.5]
        def build(p):
            hdn = T.gelu(T.add(T.linear(Tensor(x), p[0]), p[1]))
            return T.sum_all(T.mul(T.linear(hdn, p[2]), Tensor(mark)))
        return arrays, build

    def attention():
        t, heads, hd = int(rng.integers(3, 7)), int(rng.choice([1, 2])), int(rng.choice([2, 4]))
        w = heads * hd
        mark = rng.standard_normal((t, w))
        arrays = [rng.standard_normal((t, w)), rng.standard_normal((t, w)),
                  rng.standard_normal((t, w))]
        def build(p):
            out = T.causal_attention(T.rope(p[0], heads), T.rope(p[1], heads), p[2], heads)
            return T.sum_all(T.mul(out, Tensor(mark)))
        return arrays, build

    def softmax_mix():
        n, v = rng.integers(2, 5), rng.integers(3, 7)
        mark = rng.standard_normal((n, v))
        tau = float(rng.uniform(0.5, 3.0))
        arrays = [rng.standard_normal((n, v))]
        def build(p):
            logp = T.log_softmax(p[0], temperature=tau)
            return T.sum_all(T.mul(T.sub(T.exp(logp), logp), Tensor(mark)))
        return arrays, build

    def embedding_ce():
        vocab, d, n = int(rng.integers(5, 9)), int(rng.integers(3, 6)), 4
        ids = rng.integers(0, vocab, n).tolist()
        targets = rng.integers(0, vocab, n).tolist()
        arrays = [rng.standard_normal((vocab, d)) * 0.5, rng.standard_normal((vocab, d)) * 0.5]
        def build(p):
            emb = T.embedding_lookup(p[0], ids)
            return T.cross_entropy(T.linear(emb, p[1]), targets)
        return arrays, build

    def norm_chain():
        n, d = rng.integers(2, 5), rng.integers(4, 8)
        y = rng.standard_normal((d, d))
        arrays = [rng.standard_normal((n, d)), rng.standard_normal(d) * 0.5 + 1.0]
        def build(p):
            h = T.rms_norm(p[0], p[1], eps=1e-6)
            z = T.gelu(T.matmul(h, Tensor(y)))
            return T.sum_all(T.mul(z, z))
        return arrays, build

    def shuffle_ops():
        arrays = [rng.standard_normal((4, 6))]
        mark = rng.standard_normal((8, 3))
        def build(p):
            t = T.reshape(p[0], (8, 3))
            lo = T.slice_rows(t, 0, 3)
            hi = T.slice_rows(t, 3, 8)
            back = T.concat_rows([hi, lo])
            return T.scale(T.sum_all(T.mul(back, Tensor(mark))), 1.0 / 24)
        return arrays, build

    def fanout():
        k = int(rng.integers(2, 5))
        arrays = [rng.standard_normal((k, k))]
        def build(p):
            sq = T.matmul(p[0], p[0])
            return T.sum_all(T.add(T.scale(sq, 0.5), T.mul(p[0], p[0])))
        return arrays, build

    return [mlp, attention, softmax_mix, embedding_ce, norm_chain, shuffle_ops, fanout]


def _model_grad_check(seed, tol=1e-4):
    """Full forward+loss gradients of a mini model vs finite differences."""
    cfg = ModelConfig(vocab_size=40, d_model=8, n_layers=1, n_heads=2, head_dim=4,
                      d_ffn=6, n_visual_tokens=2, d_vision=4, max_seq_len=12)
    rng = np.random.default_rng(seed)
    item = Triplet(x_v=rng.standard_normal(cfg.d_descriptor),
                   x_p=(33,), x_r=(int(rng.integers(0, 9)),), task="visual-count")
    model = float64_copy(M.init(cfg, seed=seed))
    model.head_w.data = rng.standard_normal(model.head_w.data.shape) * 0.1
    params = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    grads = T.backward(M.response_loss(M.forward(model, item), item),
                       [p for _, p in params])
    autos = {n: (g if g is not None else np.zeros_like(p.data))
             for (n, p), g in zip(params, grads)}

    def loss_of():
        with T.no_grad():
            return M.response_loss(M.forward(model, item, capture=None), item).item()

    worst = 0.0
    # near-init rms rows have tiny norms and huge third derivatives, so a
    # 1e-4 step is truncation-dominated; 1e-5 keeps roundoff negligible too
    step = 1e-5
    for n, p in params:
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = loss_of()
            flat[j] = orig - step
            lo = loss_of()
            flat[j] = orig
            g[j] = (hi - lo) / (2 * step)
        worst = max(worst, float(rel_err(autos[n].reshape(-1), g).max()))
    assert worst <= tol, f"model gradients off by {worst:.2e}"


def test_criterion_01_autodiff_gradcheck():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    builders = _graph_builders(rng)
    checked = 0
    for k in range(48):
        arrays, build = builders[k % len(builders)]()
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        loss = build(leaves)
        autos = [g if g is not None else np.zeros_like(a)
                 for g, a in zip(T.backward(loss, leaves), arrays)]

        def loss_fn(arrs):
            return build([Tensor(a) for a in arrs]).item()

        fds = finite_diff_grads(loss_fn, arrays, step=1e-4)
        for ga, gf in zip(autos, fds):
            worst = float(rel_err(ga, gf).max())
            assert worst <= 1e-4, f"graph {k}: rel err {worst:.2e}"
        checked += 1
    _model_grad_check(seed=1)
    _model_grad_check(seed=2)
    checked += 2
    elapsed = time.perf_counter() - start
    assert checked == 50
    assert elapsed < 60
    report_pass(1, f"50 random graphs match finite differences <=1e-4 ({elapsed:.1f}s)")


# -------------------------------------------- criterion 2: block influence

def test_criterion_02_block_influence_oracle(rng):
    start = time.perf_counter()
    model = M.init(ModelConfig(), seed=3)
    model.head_w.data[...] = rng.standard_normal(model.head_w.data.shape) * 0.1
    train, _ = D.generate_dataset(n=60, seed=0)
    calib = D.draw_calibration(train, n=2, seed=0)
    report = I.block_influence(model, calib)

    for layer in range(model.n_layers):
        sims, count = 0.0, 0
        for item in calib:
            with T.no_grad():
                trace = M.forward(model, item, capture="all")
            h_in = trace.hidden_states[layer].data
            h_out = trace.hidden_states[layer + 1].data
            for t in range(h_in.shape[0]):
                a = h_in[t].astype(np.float64)
                b = h_out[t].astype(np.float64)
                na, nb = math.sqrt(float((a * a).sum())), math.sqrt(float((b * b).sum()))
                if na == 0 or nb == 0:
                    continue
                sims += float((a * b).sum()) / (na * nb)
                count += 1
        assert abs(report.scores[layer] - (1.0 - sims / count)) <= 1e-6

    zero_block = model.copy()
    zero_block.layers[1].wo.data[...] = 0.0
    zero_block.layers[1].w_down.data[...] = 0.0
    zr = I.block_influence(zero_block, calib)
    assert abs(zr.scores[1]) <= 1e-6
    report_pass(2, f"BI matches per-token loop oracle; zero block scores 0 "
                   f"({time.perf_counter() - start:.1f}s)")


# ---------------------------------------------- criterion 3: taylor fidelity

def test_criterion_03_taylor_fidelity():
    start = time.perf_counter()
    model, pool, calib = lookup_trained_tiny_model()
    cfg = model.config

    groups = [g for g in I.build_dependency_groups(model) if g.kind == "mlp-channel"]
    I.taylor_group_importance(model, groups, calib)

    def calib_loss(m):
        with T.no_grad():
            return float(np.mean([M.response_loss(M.forward(m, it, capture=None), it).item()
                                  for it in calib]))

    base = calib_loss(model)
    deltas = []
    for g in groups:
        clone = model.copy()
        zero_group(clone, g)
        deltas.append(calib_loss(clone) - base)
    rho = float(stats.spearmanr([g.importance for g in groups], deltas).statistic)
    assert rho >= 0.7, f"spearman {rho:.3f}"

    model64 = float64_copy(M.init(cfg, seed=7))
    quick_sgd(model64, pool, steps=200, lr=0.1, seed=7)
    calib64 = D.draw_calibration(pool, n=6, seed=3)
    groups64 = [g for g in I.build_dependency_groups(model64) if g.kind == "mlp-channel"]
    I.taylor_group_importance(model64, groups64, calib64)
    sens = {g.gid: group_scale_sensitivity(model64, g, calib64) for g in groups64}
    target = max(groups64, key=lambda g: abs(sens[g.gid]))
    s = sens[target.gid]

    def c64_loss(m):
        with T.no_grad():
            return float(np.mean([M.response_loss(M.forward(m, it, capture=None), it).item()
                                  for it in calib64]))

    base64 = c64_loss(model64)
    rates = {}
    by_name = dict(model64.named_parameters())
    for eps in (1e-3, 1e-4):
        clone = model64.copy()
        cn = dict(clone.named_parameters())
        for sl in group_slices(target):
            arr = cn[sl.param].data
            idx = tuple(slice(sl.start, sl.stop) if a == sl.axis else slice(None)
                        for a in range(arr.ndim))
            arr[idx] *= (1.0 - eps)
        rates[eps] = (c64_loss(clone) - base64) / eps
    assert abs(rates[1e-3] - rates[1e-4]) <= 0.10 * max(abs(rates[1e-3]), abs(rates[1e-4]))
    assert abs(rates[1e-4] + s) <= 0.10 * abs(s)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report_pass(3, f"spearman {rho:.2f} >= 0.7; first-order scaling converges "
                   f"({elapsed:.1f}s)")


# ---------------------------------------------- criterion 4: surgery soundness

def test_criterion_04_surgery_soundness(teacher, dataset):
    start = time.perf_counter()
    train, _ = dataset
    calib = D.draw_calibration(train, n=10, seed=1)
    items = train[:10]

    # masked equivalence + conservation at 30%
    groups = I.build_dependency_groups(teacher)
    I.taylor_group_importance(teacher, groups, calib)
    plan = P.plan("widthwise", I.group_report(teacher, groups), 0.30)
    masked = teacher.copy()
    for g in plan.victims:
        zero_group(masked, g)
    surgical = teacher.copy()
    before = count_params(surgical, "decoder-blocks")
    result = P.execute(surgical, plan)
    after = count_params(surgical, "decoder-blocks")
    assert before == after + sum(e["params_removed"] for e in result.surgery_log)
    with T.no_grad():
        for it in items:
            a = M.forward(masked, it, capture=None).logits.data
            b = M.forward(surgical, it, capture=None).logits.data
            assert np.abs(a - b).max() <= 1e-5

    # achieved ratio within 2 points on the full grid, via independent recount
    orig = sum(int(p.data.size) for n, p in teacher.named_parameters()
               if n.startswith("layers."))
    for target in (0.15, 0.30, 0.45, 0.60):
        clone = teacher.copy()
        g2 = I.build_dependency_groups(clone)
        I.taylor_group_importance(clone, g2, calib)
        P.execute(clone, P.plan("widthwise", I.group_report(clone, g2), target))
        pruned = sum(int(p.data.size) for n, p in clone.named_parameters()
                     if n.startswith("layers."))
        assert abs((1 - pruned / orig) - target) <= 0.02
    report_pass(4, f"masked-equivalence <=1e-5, conservation exact, ratios within "
                   f"2 points ({time.perf_counter() - start:.1f}s)")


# ----------------------------------------------- criterion 5: flops anchors

def test_criterion_05_flops_anchors():
    shape = llava_7b_shape()
    full = A.estimate_flops(shape, 576 + 50)
    assert abs(full - 9.57e12) / 9.57e12 <= 0.15
    pruned = A.scale_shape_widthwise(shape, 0.30)
    compressed = A.estimate_flops(pruned, 576 + 50)
    assert abs(compressed - 6.89e12) / 6.89e12 <= 0.15
    report_pass(5, f"7B-shape flops {full:.2e} and 30%-pruned {compressed:.2e} "
                   f"inside +/-15% anchors")


# ------------------------------------------------- criterion 6: kd correctness

def test_criterion_06_kd_correctness():
    from test_recovery import kd_pair, trace_from_logits  # same hand-computed construction

    s, t = kd_pair([0.4, 0.6], [0.4, 0.6])
    assert abs(R.kd_logits_loss(s, t, 1.0, "kl").item()) < 1e-7
    s, t = kd_pair([0.4, 0.6], [0.4, 0.6])
    assert abs(R.kd_logits_loss(s, t, 1.0, "rkl").item()) < 1e-7

    s, t = kd_pair([0.5, 0.5], [0.9, 0.1])
    assert abs(R.kd_logits_loss(s, t, 1.0, "kl").item() - 0.5108) < 1e-4
    s, t = kd_pair([0.5, 0.5], [0.9, 0.1])
    assert abs(R.kd_logits_loss(s, t, 1.0, "rkl").item() - 0.3681) < 1e-4

    lt = np.array([[0.4, -1.0, 0.6, 0.1]])
    for direction in ("kl", "rkl"):
        arrays = [np.array([[0.2, 0.9, -1.2, 0.05]])]

        def build(p):
            s_tr = trace_from_logits(T.concat_rows([p[0], p[0]]))
            return R.kd_logits_loss(s_tr, lt, tau=2.0, direction=direction)

        leaves = [Tensor(arrays[0], requires_grad=True)]
        grad, = T.backward(build(leaves), leaves)
        fd = finite_diff_grads(lambda arrs: build([Tensor(a) for a in arrs]).item(),
                               [arrays[0].astype(np.float64)])
        assert float(rel_err(grad, fd[0]).max()) <= 1e-4
    report_pass(6, "KL/RKL zero at identity, hand values to 4 decimals, grads match FD")


# ------------------------------------------- criterion 7: scope isolation/LoRA

def test_criterion_07_scope_isolation(teacher, dataset):
    train, _ = dataset
    student = width_pruned(teacher, dataset, 0.20)
    before = {n: p.data.copy() for n, p in student.named_parameters()}
    cfg = RecoveryConfig(alpha=1.0, scope="projector", lr=0.05, steps=40,
                         batch_size=8, seed=0)
    R.train(student, teacher, train, cfg)
    proj = set(param_partition(student)["projector"])
    for name, p in student.named_parameters():
        if name not in proj:
            assert p.data.tobytes() == before[name].tobytes(), name

    fresh = width_pruned(teacher, dataset, 0.20)
    item = train[0]
    with T.no_grad():
        pre = M.forward(fresh, item, capture=None).logits.data.copy()
    R.attach_lora(fresh, seed=5)
    with T.no_grad():
        post = M.forward(fresh, item, capture=None).logits.data.copy()
    assert np.abs(post - pre).max() <= 1e-6
    report_pass(7, "projector-only leaves decoder+vision bit-identical; "
                   "LoRA attach is exact identity")


# --------------------------------------- criterion 8: desk-scale recovery analog

# Observed on the first green run (saturation at the accuracy ceiling is the
# expected desk-scale outcome: the reference teacher is heavily
# over-parameterized for the suite, so criterion-ratio pruning costs ~nothing
# and every recovery arm restores a perfect score).
PINNED_8A_AVGS = [1.0, 1.0, 1.0]
PINNED_8B_FT = [1.0, 1.0, 1.0]
PINNED_8B_FTL2 = [1.0, 1.0, 1.0]
PINNED_8C_SMALL = [1.0, 1.0, 1.0]
PINNED_8C_FULL = [1.0, 1.0, 1.0]
SEEDS_8 = (0, 1, 2)


def _avg(model, evals, reference):
    return E.evaluate(model, evals, reference_report=reference).avg


PINNED_TEACHER_PER_TASK = {"prompt-echo": 1.0, "visual-count": 1.0, "visual-lookup": 1.0}


def test_criterion_08_recovery_analog(teacher, teacher_report, dataset):
    start = time.perf_counter()
    train, evals = dataset
    for task, acc in teacher_report.per_task.items():
        assert acc >= 0.9, f"teacher below bar on {task}: {acc}"
        assert abs(acc - PINNED_TEACHER_PER_TASK[task]) <= 1e-9

    # (a) 20%: projector-only FT recovers >= 90% of teacher AVG
    student20 = width_pruned(teacher, dataset, 0.20)
    avgs_a = []
    for seed in SEEDS_8:
        s = student20.copy()
        cfg = RecoveryConfig(alpha=1.0, scope="projector", lr=0.05, steps=300,
                             batch_size=8, seed=seed)
        R.train(s, teacher, train, cfg)
        avgs_a.append(E.evaluate(s, evals).avg)
    assert np.mean(avgs_a) >= 0.9 * teacher_report.avg

    # (b) 40%: FT+L2 mean AVG >= FT-only mean AVG
    student40 = width_pruned(teacher, dataset, 0.40)
    ft_avgs, ftl2_avgs = [], []
    for seed in SEEDS_8:
        s = student40.copy()
        cfg = RecoveryConfig(alpha=1.0, scope="joint", lr=0.02, steps=300,
                             batch_size=8, seed=seed)
        R.train(s, teacher, train, cfg)
        ft_avgs.append(E.evaluate(s, evals).avg)

        s = student40.copy()
        cfg = RecoveryConfig(alpha=1.0, gamma=1.0, scope="joint", lr=0.02,
                             steps=300, batch_size=8, seed=seed)
        R.train(s, teacher, train, cfg)
        ftl2_avgs.append(E.evaluate(s, evals).avg)
    assert np.mean(ftl2_avgs) >= np.mean(ft_avgs)

    # (c) 25%: 5% of the data reaches >= 95% of the full-data result
    student25 = width_pruned(teacher, dataset, 0.25)
    small_avgs, full_avgs = [], []
    for seed in SEEDS_8:
        for fraction, sink in ((0.05, small_avgs), (1.0, full_avgs)):
            s = student25.copy()
            cfg = RecoveryConfig(alpha=1.0, beta=1.0, gamma=1.0, kd_direction="rkl",
                                 scope="joint", data_fraction=fraction, lr=0.02,
                                 steps=300, batch_size=8, seed=seed)
            R.train(s, teacher, train, cfg)
            sink.append(E.evaluate(s, evals).avg)
    assert np.mean(small_avgs) >= 0.95 * np.mean(full_avgs)

    # regression anchors pinned from the first green run
    for got, pinned in ((avgs_a, PINNED_8A_AVGS), (ft_avgs, PINNED_8B_FT),
                        (ftl2_avgs, PINNED_8B_FTL2), (small_avgs, PINNED_8C_SMALL),
                        (full_avgs, PINNED_8C_FULL)):
        assert np.allclose(got, pinned, atol=1e-9), (got, pinned)

    elapsed = time.perf_counter() - start
    assert elapsed < 900
    report_pass(8, f"(a) {np.mean(avgs_a):.3f} vs teacher {teacher_report.avg:.3f}; "
                   f"(b) ft+l2 {np.mean(ftl2_avgs):.3f} >= ft {np.mean(ft_avgs):.3f}; "
                   f"(c) 5% {np.mean(small_avgs):.3f} >= 0.95x full {np.mean(full_avgs):.3f} "
                   f"({elapsed:.0f}s)")


# ------------------------------------------------ criterion 9: advisor rules

def test_criterion_09_advisor_conformance():
    shape = A.shape_of_config(ModelConfig())
    expected = {
        (False, 0.10): ("(i)", "widthwise", "none"),
        (False, 0.20): ("(i)", "widthwise", "none"),
        (False, 0.30): ("(i)", "widthwise", "none"),
        (False, 0.40): ("(i)", "widthwise", "none"),
        (False, 0.41): ("(i)", "widthwise", "none"),
        (False, 0.55): ("(i)", "widthwise", "none"),
        (False, 0.60): ("(i)", "widthwise", "none"),
        (True, 0.10): ("(ii)", "layerwise", "projector-ft"),
        (True, 0.20): ("(ii)", "layerwise", "ft+l2-kd"),
        (True, 0.30): ("(ii)", "layerwise", "ft+l2-kd"),
        (True, 0.40): ("(ii)", "layerwise", "ft+l2-kd"),
        (True, 0.41): ("(iii)", "widthwise", "ft+l2-kd"),
        (True, 0.55): ("(iii)", "widthwise", "ft+l2-kd"),
        (True, 0.60): ("(iii)", "widthwise", "ft+l2-kd"),
    }
    for (can, ratio), exp in expected.items():
        rec = V.recommend(Scenario(can_recover=can, target_ratio=ratio), shape)
        assert (rec.rule, rec.prune_mode, rec.recovery) == exp, (can, ratio)
        scaler = (A.scale_shape_widthwise if rec.prune_mode == "widthwise"
                  else A.scale_shape_layerwise)
        pruned = scaler(shape, ratio)
        assert rec.est_decoder_params == A.decoder_param_count(pruned)
        assert rec.est_flops == float(A.estimate_flops(pruned, shape.n_visual_tokens + 50))
    report_pass(9, "all 14 boundary-grid cells map to the expected rule; "
                   "estimates equal accounting closed forms exactly")


# -------------------------------------------- criterion 10: reproducibility

def test_criterion_10_reproducibility(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "mini.ini"
    cfg.write_text(
        "[model]\nvocab_size = 40\nd_model = 32\nn_layers = 2\nn_heads = 4\n"
        "head_dim = 8\nd_ffn = 32\nn_visual_tokens = 2\nd_vision = 16\n"
        "d_descriptor = 40\nmax_seq_len = 16\n"
        "[data]\nn = 120\n"
        "[teacher]\nsteps = 300\nbatch_size = 8\n"
        "[recovery]\nsteps = 20\nbatch_size = 4\nlr = 0.02\n")
    blobs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        data, teacher, pruned, rec, ev = (d / "ds.json", d / "t.ckpt", d / "p.ckpt",
                                          d / "r.ckpt", d / "ev.json")
        assert cli.main(["generate-data", "--config", str(cfg), "--out", str(data),
                         "--seed", "5"]) == 0
        assert cli.main(["train-teacher", "--config", str(cfg), "--data", str(data),
                         "--out", str(teacher), "--seed", "5"]) == 0
        assert cli.main(["prune", "--ckpt", str(teacher), "--data", str(data),
                         "--mode", "widthwise", "--ratio", "0.2", "--out", str(pruned),
                         "--seed", "5", "--calib-size", "4"]) == 0
        assert cli.main(["recover", "--student", str(pruned), "--teacher", str(teacher),
                         "--data", str(data), "--config", str(cfg), "--out", str(rec),
                         "--seed", "5"]) == 0
        assert cli.main(["evaluate", "--ckpt", str(rec), "--data", str(data),
                         "--out", str(ev)]) == 0
        blobs.append(tuple(p.read_bytes() for p in (data, teacher, pruned, rec, ev)))
    for a, b in zip(*blobs):
        assert a == b
    report_pass(10, f"repeated pipeline produced byte-identical artifacts "
                    f"({time.perf_counter() - start:.0f}s)")
