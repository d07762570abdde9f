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
import json
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
from .advisor import OutOfValidatedRangeError, Scenario
from .checkpoint import CheckpointError
from .config import ConfigError, comma_list, data_settings, load_config, model_config, \
    prune_settings, recovery_config, teacher_config
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


def write_manifest(out_path, command, args_dict, inputs, outputs):
    manifest = {
        "command": command,
        "args": {k: v for k, v in sorted(args_dict.items())
                 if v is not None and not callable(v)},
        "inputs": inputs,
        "outputs": outputs,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "toolkit_version": __version__,
    }
    path = f"{out_path}.manifest.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
        f.write("\n")
    return path


def _load_cfg(path):
    return load_config(path) if path else {}


def _write_history(path, history):
    with open(path, "w", encoding="utf-8") as f:
        for line in history.lines():
            f.write(line + "\n")


# ------------------------------------------------------------------- commands

def cmd_generate_data(args):
    cfg = _load_cfg(args.config)
    ds = data_settings(cfg, {"n": args.n, "tasks": args.tasks})
    train, evals = D.generate_dataset(task_mix=ds["tasks"], n=ds["n"],
                                      seed=args.seed, eval_fraction=ds["eval_fraction"])
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    D.save_dataset(args.out, train, evals, seed=args.seed)
    write_manifest(args.out, "generate-data", vars(args), [], [args.out])
    print(f"wrote {args.out}: {len(train)} train / {len(evals)} eval items")
    return EXIT_OK


def cmd_train_teacher(args):
    cfg = _load_cfg(args.config)
    mcfg = model_config(cfg)
    tcfg = teacher_config(cfg, {"steps": args.steps, "seed": child_seed(args.seed, 2)})
    train, evals = D.load_dataset(args.data)
    model = M.init(mcfg, seed=child_seed(args.seed, 0))
    eval_fn = (lambda m: E.evaluate(m, evals).avg) if args.eval_during else None
    history = R.train_teacher(model, train, tcfg, eval_fn=eval_fn,
                              eval_every=200 if args.eval_during else 0)
    report = E.evaluate(model, evals, label="teacher")
    C.save(model, args.out, meta={"stage": "teacher", "seed": args.seed,
                                  "ratio": 0.0, "strategy": "none",
                                  "eval_avg": report.avg})
    _write_history(f"{args.out}.history.txt", history)
    write_manifest(args.out, "train-teacher", vars(args), [args.data],
                   [args.out, f"{args.out}.history.txt"])
    accs = " ".join(f"{k}={v:.3f}" for k, v in sorted(report.per_task.items()))
    print(f"teacher trained: avg={report.avg:.3f} ({accs})")
    return EXIT_OK


def _calibration(args, train, overrides=None):
    """[prune] settings under --calib-size and `overrides`, and the seeded
    calibration draw of that size."""
    ps = prune_settings(_load_cfg(args.config),
                        {"calib_size": args.calib_size, **(overrides or {})})
    return ps, D.draw_calibration(train, n=ps["calib_size"], seed=child_seed(args.seed, 1))


def _importance(model, layerwise, calib):
    """Block Influence for layer removal, else Taylor-scored dependency groups."""
    if layerwise:
        return I.block_influence(model, calib)
    groups = I.build_dependency_groups(model)
    I.taylor_group_importance(model, groups, calib)
    return I.group_report(model, groups)


def cmd_inspect(args):
    model, _ = C.load(args.ckpt)
    train, _ = D.load_dataset(args.data)
    _, calib = _calibration(args, train)
    report = _importance(model, args.mode == "bi", calib)
    records = report.to_records()
    if args.mode == "bi":
        extra = {"ranking": report.ranking, "tokens_used": report.tokens_used,
                 "zero_norm_rows_skipped": report.zero_norm_rows_skipped}
    else:
        extra = {"n_groups": len(report.groups)}
    payload = {"mode": args.mode, "records": records, **extra}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    write_manifest(args.out, "inspect", vars(args), [args.ckpt, args.data], [args.out])
    print(f"wrote {args.out}: {len(records)} records ({args.mode})")
    return EXIT_OK


def cmd_prune(args):
    model, meta = C.load(args.ckpt)
    train, _ = D.load_dataset(args.data)
    ps, calib = _calibration(args, train, {"min_heads": args.min_heads,
                                           "min_channels": args.min_channels})
    report = _importance(model, args.mode == "layerwise", calib)
    floors = Floors(min_heads=ps["min_heads"], min_channels=ps["min_channels"])
    plan = P.plan(args.mode, report, args.ratio, floors)
    result = P.execute(model, plan)
    C.save(model, args.out, meta={"stage": "pruned", "mode": args.mode,
                                  "target_ratio": args.ratio,
                                  "achieved_ratio": result.achieved_ratio,
                                  "ratio": result.achieved_ratio,
                                  "strategy": f"{args.mode}",
                                  "seed": args.seed})
    log_path = f"{args.out}.surgery.txt"
    with open(log_path, "w", encoding="utf-8") as f:
        for line in result.log_lines():
            f.write(line + "\n")
    write_manifest(args.out, "prune", vars(args), [args.ckpt, args.data],
                   [args.out, log_path])
    print(f"pruned {args.mode} target={args.ratio:.2f} "
          f"achieved={result.achieved_ratio:.4f} victims={len(plan.victims)}")
    return EXIT_OK


def cmd_recover(args):
    student, smeta = C.load(args.student)
    teacher, _ = C.load(args.teacher)
    train, evals = D.load_dataset(args.data)
    overrides = {
        "alpha": args.alpha, "beta": args.beta, "gamma": args.gamma,
        "kd_direction": args.kd, "scope": args.scope,
        "data_fraction": args.fraction, "lr": args.lr, "steps": args.steps,
        "batch_size": args.batch_size, "seed": child_seed(args.seed, 2),
    }
    rcfg = recovery_config(_load_cfg(args.config), overrides)
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
    _write_history(f"{args.out}.history.txt", history)
    write_manifest(args.out, "recover", vars(args),
                   [args.student, args.teacher, args.data],
                   [args.out, f"{args.out}.history.txt"])
    print(f"recovered with {recovery_tag}: final total loss "
          f"{history.steps[-1]['total']:.4f} over {rcfg.steps} steps")
    return EXIT_OK


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
    _, evals = D.load_dataset(args.data)
    reference = None
    if args.reference:
        reference, _ = E.load_report(args.reference)
    label = args.label or os.path.basename(args.ckpt)
    report = E.evaluate(model, evals, reference_report=reference, label=label)
    extra = {"ratio": meta["meta"].get("ratio", 0.0),
             "strategy": meta["meta"].get("strategy", "none")}
    E.save_report(args.out, report, extra=extra)
    write_manifest(args.out, "evaluate", vars(args),
                   [args.ckpt, args.data] + ([args.reference] if args.reference else []),
                   [args.out])
    pct = "" if report.avg_pct is None else f" avg_pct={report.avg_pct:.2f}"
    print(f"eval {label}: avg={report.avg:.4f}{pct}")
    return EXIT_OK


def cmd_advise(args):
    cfg = _load_cfg(args.config)
    shape = A.shape_of_config(model_config(cfg))
    scenario = Scenario(can_recover=args.recover, target_ratio=args.ratio,
                        data_budget_fraction=args.data_budget)
    rec = V.recommend(scenario, shape)
    if args.json:
        payload = dataclasses.asdict(rec)
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        print(f"recommendation {rec.rule}:")
        for line in rec.lines():
            print("  " + line)
    return EXIT_OK


def cmd_report(args):
    runs = []
    for path in args.evals:
        _, payload = E.load_report(path)
        runs.append(payload)
    csv_path = f"{args.out_prefix}.csv"
    json_path = f"{args.out_prefix}.json"
    rows = E.emit_report(runs, csv_path, json_path)
    write_manifest(args.out_prefix, "report", vars(args), list(args.evals),
                   [csv_path, json_path])
    print(f"wrote {csv_path} and {json_path}: {len(rows)} runs")
    return EXIT_OK


# --------------------------------------------------------------------- parser

def build_parser():
    parser = _Parser(prog="prunekit",
                     description="structural compression toolkit for toy multimodal decoder LMs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("generate-data", cmd_generate_data, help="generate the synthetic dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tasks", type=comma_list, default=None)

    p = add("train-teacher", cmd_train_teacher, help="train the uncompressed teacher")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--eval-during", action="store_true")

    p = add("inspect", cmd_inspect, help="export importance scores")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=("bi", "taylor"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--calib-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = add("prune", cmd_prune, help="plan and execute structural pruning")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=("layerwise", "widthwise"), required=True)
    p.add_argument("--ratio", type=_ratio, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--calib-size", type=int, default=None)
    p.add_argument("--min-heads", type=int, default=None)
    p.add_argument("--min-channels", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = add("recover", cmd_recover, help="recovery-train a pruned student")
    p.add_argument("--student", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--kd", choices=("kl", "rkl", "none"), default=None)
    p.add_argument("--scope", choices=("projector", "joint"), default=None)
    p.add_argument("--fraction", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = add("evaluate", cmd_evaluate, help="evaluate a checkpoint on the synthetic suite")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--label", default=None)
    p.add_argument("--out", required=True)

    p = add("advise", cmd_advise, help="recommend a compression strategy")
    p.add_argument("--ratio", type=_ratio, required=True)
    recover_group = p.add_mutually_exclusive_group()
    recover_group.add_argument("--recover", dest="recover", action="store_true")
    recover_group.add_argument("--no-recover", dest="recover", action="store_false")
    p.set_defaults(recover=False)
    p.add_argument("--data-budget", type=float, default=1.0)
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")

    p = add("report", cmd_report, help="aggregate eval reports into table/plot data")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("evals", nargs="+")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ParameterError, CheckpointError, FileNotFoundError,
            OutOfValidatedRangeError, json.JSONDecodeError) as exc:
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
