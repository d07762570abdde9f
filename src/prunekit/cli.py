"""prunekit command line: generate-data, train-teacher, inspect, prune, recover,
evaluate, advise, report.

Every artifact-producing command writes a run manifest next to its outputs.
All randomness flows from the command's --seed; per-consumer child seeds are
derived as SeedSequence([seed, k]) with fixed consumer indices (0: data/init,
1: calibration draw, 2: training). Exit codes: 0 success, 1 usage, 2 config,
3 numeric failure, 4 infeasible plan.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import __version__
from . import accounting as A
from . import advisor as V
from . import checkpoint as C
from . import data as D
from . import evaluation as E
from . import importance as I
from . import model as M
from . import pruning as P
from . import recovery as R
from .advisor import Scenario
from .config import data_settings, flag_type, load_config, model_config, prune_settings, \
    recovery_config, set_flags, teacher_config
from .importance import NonFiniteGradientError
from .pruning import Floors, InfeasiblePlanError, PlanModelMismatchError
from .recovery import TrainingDivergedError
from .tensor import ParameterError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def child_seed(root, k):
    """Deterministic per-consumer seed: SeedSequence([root, k])."""
    return int(np.random.SeedSequence([int(root), int(k)]).generate_state(1)[0])


def _ratio(value):
    r = float(value)
    if not (0.0 < r < 1.0):
        raise argparse.ArgumentTypeError(f"ratio must be in (0,1), got {value}")
    return r


# the flags naming input files, in the order a manifest lists them (then `evals`)
INPUT_FLAGS = ("config", "ckpt", "student", "teacher", "data", "reference")


def write_manifest(args, outputs):
    """`<out>.manifest.json`, <out> being --out or --out-prefix: the command,
    its flags, input files and outputs."""
    flags = vars(args)
    manifest = {
        "command": args.command,
        "args": {k: v for k, v in sorted(flags.items()) if v is not None and not callable(v)},
        "inputs": [flags[k] for k in INPUT_FLAGS if flags.get(k)] + flags.get("evals", []),
        "outputs": outputs,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "toolkit_version": __version__,
    }
    D.write_jsonl(f"{flags.get('out') or args.out_prefix}.manifest.json", [manifest])


def _load_cfg(path):
    return load_config(path) if path else {}


# ------------------------------------------------------------------- commands
# Each command returns the files it wrote; `main` writes their manifest.

def cmd_generate_data(args):
    flags = set_flags("data", args)
    ds = data_settings(_load_cfg(args.config), flags)
    unknown = [task for task in ds["tasks"] if task not in D.TASKS]
    if unknown:
        where = "--tasks" if "tasks" in flags else f"[data] tasks of {args.config}"
        raise ParameterError(f"unknown task {unknown[0]!r} in {where}")
    train, evals = D.generate_dataset(task_mix=ds["tasks"], n=ds["n"],
                                      seed=args.seed, eval_fraction=ds["eval_fraction"])
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    D.save_dataset(args.out, train, evals, seed=args.seed)
    print(f"wrote {args.out}: {len(train)} train / {len(evals)} eval items")
    return [args.out]


def cmd_train_teacher(args):
    cfg = _load_cfg(args.config)
    mcfg = model_config(cfg)
    tcfg = teacher_config(cfg, {**set_flags("teacher", args), "seed": child_seed(args.seed, 2)})
    train, evals = D.load_dataset(args.data)
    longest = max((M.layout_of(it, mcfg).total for it in train + evals), default=0)
    if longest > mcfg.max_seq_len:
        raise M.SequenceLengthError(
            f"{args.data}: sequence of {longest} tokens exceeds max_seq_len="
            f"{mcfg.max_seq_len} ([model] of {args.config or 'the default config'})")
    model = M.init(mcfg, seed=child_seed(args.seed, 0))
    eval_fn = (lambda m: E.evaluate(m, evals).avg) if args.eval_during else None
    history = R.train_teacher(model, train, tcfg, eval_fn=eval_fn,
                              eval_every=200 if args.eval_during else 0)
    report = E.evaluate(model, evals, label="teacher")
    C.save(model, args.out, meta={"stage": "teacher", "seed": args.seed,
                                  "ratio": 0.0, "strategy": "none",
                                  "eval_avg": report.avg})
    history_path = f"{args.out}.history.jsonl"
    D.write_jsonl(history_path, history.steps)
    accs = " ".join(f"{k}={v:.3f}" for k, v in sorted(report.per_task.items()))
    print(f"teacher trained: avg={report.avg:.3f} ({accs})")
    return [args.out, history_path]


def _scored(args, layerwise):
    """The model of --ckpt, the [prune] settings, and the importance report of
    the seeded calibration draw: Block Influence for layer removal, else
    Taylor-scored dependency groups."""
    model, _ = C.load(args.ckpt)
    train, _ = D.load_dataset(args.data)
    ps = prune_settings(_load_cfg(args.config), set_flags("prune", args))
    calib = D.draw_calibration(train, n=ps["calib_size"], seed=child_seed(args.seed, 1))
    if layerwise:
        return model, ps, I.block_influence(model, calib)
    groups = I.build_dependency_groups(model)
    I.taylor_group_importance(model, groups, calib)
    return model, ps, I.group_report(model, groups)


def cmd_inspect(args):
    _, _, report = _scored(args, args.mode == "bi")
    records = report.to_records()
    if args.mode == "bi":
        extra = {"ranking": report.ranking, "tokens_used": report.tokens_used,
                 "zero_norm_rows_skipped": report.zero_norm_rows_skipped}
    else:
        extra = {"n_groups": len(report.groups)}
    payload = {"mode": args.mode, "records": records, **extra}
    D.write_jsonl(args.out, [payload])
    print(f"wrote {args.out}: {len(records)} records ({args.mode})")
    return [args.out]


def cmd_prune(args):
    model, ps, report = _scored(args, args.mode == "layerwise")
    floors = Floors(min_heads=ps["min_heads"], min_channels=ps["min_channels"])
    plan = P.plan(args.mode, report, args.ratio, floors)
    result = P.execute(model, plan)
    C.save(model, args.out, meta={"stage": "pruned", "target_ratio": args.ratio,
                                  "ratio": result.achieved_ratio, "strategy": args.mode,
                                  "seed": args.seed})
    log_path = f"{args.out}.surgery.jsonl"
    D.write_jsonl(log_path, result.surgery_log)
    print(f"pruned {args.mode} target={args.ratio:.2f} "
          f"achieved={result.achieved_ratio:.4f} victims={len(plan.victims)}")
    return [args.out, log_path]


def cmd_recover(args):
    student, smeta = C.load(args.student)
    teacher, _ = C.load(args.teacher)
    train, evals = D.load_dataset(args.data)
    rcfg = recovery_config(_load_cfg(args.config),
                           {**set_flags("recovery", args), "seed": child_seed(args.seed, 2)})
    history = R.train(student, teacher, train, rcfg,
                      eval_fn=lambda m: E.evaluate(m, evals).avg)
    strategy = smeta["meta"].get("strategy", "pruned")
    recovery_tag = _recovery_tag(rcfg)
    C.save(student, args.out, meta={
        "stage": "recovered",
        "ratio": smeta["meta"].get("ratio", 0.0),
        "strategy": f"{strategy}+{recovery_tag}",
        "recovery": recovery_tag,
        "seed": args.seed,
    })
    history_path = f"{args.out}.history.jsonl"
    D.write_jsonl(history_path, history.steps)
    print(f"recovered with {recovery_tag}: final total loss "
          f"{history.steps[-1]['total']:.4f} over {rcfg.steps} steps")
    return [args.out, history_path]


def _recovery_tag(rcfg):
    parts = []
    if rcfg.alpha > 0:
        parts.append("ft" if rcfg.scope == "joint" else "projector-ft")
    if rcfg.beta > 0:
        parts.append(rcfg.kd_direction)
    if rcfg.gamma > 0:
        parts.append("l2")
    return "+".join(parts) if parts else "none"


def cmd_evaluate(args):
    model, meta = C.load(args.ckpt)
    described = {k: v for k, v in meta["meta"].items() if k in ("ratio", "strategy")}
    E.check_field_types(args.ckpt, "checkpoint meta", described)
    _, evals = D.load_dataset(args.data)
    reference = None
    if args.reference:
        reference = E.load_report(args.reference)
    label = args.label or os.path.basename(args.ckpt)
    report = dataclasses.replace(E.evaluate(model, evals, reference_report=reference,
                                            label=label), **described)
    E.save_report(args.out, report)
    pct = "" if report.avg_pct is None else f" avg_pct={report.avg_pct:.2f}"
    print(f"eval {label}: avg={report.avg:.4f}{pct}")
    return [args.out]


def cmd_advise(args):
    cfg = _load_cfg(args.config)
    shape = A.shape_of_config(model_config(cfg))
    scenario = Scenario(can_recover=args.recover, target_ratio=args.ratio,
                        data_budget_fraction=args.data_budget)
    rec = V.recommend(scenario, shape)
    if args.json:
        print(D.encode(dataclasses.asdict(rec)))
    else:
        print(f"recommendation {rec.rule}:")
        for line in rec.lines():
            print("  " + line)
    return []


def cmd_report(args):
    csv_path = f"{args.out_prefix}.csv"
    json_path = f"{args.out_prefix}.json"
    rows = E.emit_report([E.load_report(p) for p in args.evals], csv_path, json_path)
    print(f"wrote {csv_path} and {json_path}: {len(rows)} runs")
    return [csv_path, json_path]


# --------------------------------------------------------------------- parser

# Flags that several commands take, each declared once.
COMMON_FLAGS = {"ckpt": {"required": True}, "data": {"required": True},
                "out": {"required": True}, "config": {}, "seed": {"type": int, "default": 0}}

# name: (function, help, common flags, the INI section and keys it takes as flags)
COMMANDS = {
    "generate-data": (cmd_generate_data, "generate the synthetic dataset",
                      ("config", "out", "seed"), "data", ("n", "tasks")),
    "train-teacher": (cmd_train_teacher, "train the uncompressed teacher",
                      ("config", "data", "out", "seed"), "teacher", ("steps",)),
    "inspect": (cmd_inspect, "export importance scores",
                ("ckpt", "data", "out", "config", "seed"), "prune", ("calib_size",)),
    "prune": (cmd_prune, "plan and execute structural pruning",
              ("ckpt", "data", "out", "config", "seed"), "prune",
              ("calib_size", "min_heads", "min_channels")),
    "recover": (cmd_recover, "recovery-train a pruned student",
                ("data", "out", "config", "seed"), "recovery",
                ("alpha", "beta", "gamma", "kd_direction", "scope", "data_fraction", "lr",
                 "steps", "batch_size")),
    "evaluate": (cmd_evaluate, "evaluate a checkpoint on the synthetic suite",
                 ("ckpt", "data", "out"), None, ()),
    "advise": (cmd_advise, "recommend a compression strategy", ("config",), None, ()),
    "report": (cmd_report, "aggregate eval reports into table/plot data", (), None, ()),
}


def build_parser():
    parser = _Parser(prog="prunekit",
                     description="structural compression toolkit for toy multimodal decoder LMs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = {}
    for name, (fn, help_text, common, section, keys) in COMMANDS.items():
        p[name] = sub.add_parser(name, help=help_text)
        p[name].set_defaults(fn=fn)
        for flag in common:
            p[name].add_argument(f"--{flag}", **COMMON_FLAGS[flag])
        for key in keys:
            p[name].add_argument("--" + key.replace("_", "-"), type=flag_type(section, key))

    p["train-teacher"].add_argument("--eval-during", action="store_true")
    p["inspect"].add_argument("--mode", choices=("bi", "taylor"), required=True)
    p["prune"].add_argument("--mode", choices=("layerwise", "widthwise"), required=True)
    p["prune"].add_argument("--ratio", type=_ratio, required=True)
    p["recover"].add_argument("--student", required=True)
    p["recover"].add_argument("--teacher", required=True)
    p["evaluate"].add_argument("--reference")
    p["evaluate"].add_argument("--label")
    p["advise"].add_argument("--ratio", type=_ratio, required=True)
    recover_group = p["advise"].add_mutually_exclusive_group()
    recover_group.add_argument("--recover", dest="recover", action="store_true")
    recover_group.add_argument("--no-recover", dest="recover", action="store_false")
    p["advise"].set_defaults(recover=False)
    p["advise"].add_argument("--data-budget", type=float, default=1.0)
    p["advise"].add_argument("--json", action="store_true")
    p["report"].add_argument("--out-prefix", required=True)
    p["report"].add_argument("evals", nargs="+")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        outputs = args.fn(args)
        if outputs:
            write_manifest(args, outputs)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDivergedError, NonFiniteGradientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InfeasiblePlanError, PlanModelMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
