#!/usr/bin/env python3
"""prunekit benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {teacher-train,distill,compress} \
        --seed N --seconds S --trace {0,1} [--budget {full,smoke}]
    python3 bench/run.py --seed N --seconds S      # every workload in turn

Run it from the root of a source checkout: it imports prunekit from `src/`
and reads `configs/toy.ini`. Everything runs in this one process with BLAS
pinned to one thread. The load is a closed loop: the workload's job (see
workloads.py) runs again and again for about S seconds, each training step,
scored item and evaluated item waiting for the one before.

--trace 0 reports the end-to-end metrics of untraced jobs. --trace 1
alternates untraced and traced jobs, the traced ones with a wrapper on every
public prunekit function (tracing.py), and reports the per-layer metrics
plus the tracing overhead. Human-readable `metric` lines come first; the last
line of standard output is the JSON result. A missing source tree exits with
code 2 and a workload whose set-up fails or whose every job fails with 3,
without a result line.
"""

from __future__ import annotations

import os

# Pinned before numpy loads its BLAS; recorded in the environment line.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Set-up repeats until both hold; setup_s is their median.
SETUP_MIN_REPEATS = 5
SETUP_SECONDS = 2.0
WORKLOAD_NAMES = ("teacher-train", "distill", "compress")


class BenchError(Exception):
    """The workload could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "prunekit").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS") or k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "src_prunekit_lines": src_lines,
    }


def _job(job, ctx, state, checks, tracer=None):
    """One job; a raised error counts as a failed operation and yields None."""
    if tracer is not None:
        tracer.install()
    try:
        return job(ctx, state, checks)
    except Exception as exc:  # a failing job is reported and the loop goes on
        checks.error("job", exc)
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        if tracer is not None:
            tracer.restore()


def _closed_loop(seconds, rounds):
    """Call `rounds()` until the next call would overrun `seconds` (at least once)."""
    start = time.perf_counter()
    n = 0
    while True:
        rounds()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return


def run(workload, seed, seconds, trace, budget="full"):
    """Run one workload; returns (lines to print, result payload) or raises BenchError."""
    # Imported here: they import prunekit, which main() locates in the checkout.
    import metrics
    import tracing
    import workloads as W
    from prunekit import config as CFG

    setup, job = W.WORKLOADS[workload]
    ctx = W.Context(seed=seed, budget=W.BUDGETS[budget], cfg=CFG.load_config(str(W.TOY_INI)))
    ctx.fixture, ctx.fixture_record = W.fixture_teacher(ctx, log=log)
    env = environment(seed)
    env["fixture_teacher"] = ctx.fixture_record
    checks = W.Checks()
    OUT_DIR.mkdir(exist_ok=True)
    lines = [f"env {json.dumps(env, sort_keys=True)}"]

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        ctx.workdir = Path(workdir)
        setup_s = []
        start = time.perf_counter()
        try:
            while not setup_s or not trace and (
                    len(setup_s) < SETUP_MIN_REPEATS
                    or time.perf_counter() - start < SETUP_SECONDS):
                t0 = time.perf_counter()
                state = setup(ctx, checks)
                setup_s.append(time.perf_counter() - t0)
            if trace:
                tracer = tracing.Tracer()
                with tracer:
                    traced_state = setup(ctx, checks)
                tracer.set_phase("timed")
                tracer.teacher = traced_state.get("frozen_teacher")
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            raise BenchError(f"{workload}: set-up failed: {exc}") from exc

        untraced, traced = [], []

        def one_round():
            untraced.append(_job(job, ctx, state, checks))
            if trace:
                traced.append(_job(job, ctx, traced_state, checks, tracer))

        _closed_loop(seconds, one_round)

    untraced = [r for r in untraced if r is not None]
    traced = [r for r in traced if r is not None]
    for msg in checks.messages:
        log(f"FAILED {msg}")
    if not untraced or (trace and not traced):
        raise BenchError(f"{workload}: no job completed")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = metrics.end_to_end(workload, setup_s, untraced, checks, peak_rss_mb)
    for name, (value, n) in e2e.items():
        unit, better, _ = metrics.END_TO_END[name]
        lines.append(f"metric {name} {value:.6g} {unit} {better}"
                     + (f" n={n}" if n is not None else ""))
    if workload == "compress":
        lines.append(f"table width-vs-depth ({workload}, seed {seed}, untraced jobs)")
        lines.append(f"  {'model':<15} {'MFLOP/item':>10} {'us/item':>9} {'MFLOP/s':>9} "
                     f"{'AVG-%':>7}")
        rows = metrics.eval_rows([e for r in untraced for e in r.evals])
        for label in metrics.model_labels(workload):
            mflops, us, rate, avg_pct = rows[label]
            pct = "-" if avg_pct is None else f"{avg_pct:.1f}"
            lines.append(f"  {label:<15} {mflops:10.4f} {us:9.1f} {rate:9.1f} {pct:>7}")

    if trace:
        layer = metrics.per_layer(tracer, traced, untraced, checks)
        for name, value in layer.items():
            unit, better, _ = metrics.layer_spec(name)
            lines.append(f"metric {name} {value:.6g} {unit} {better}")
        spans = OUT_DIR / f"spans-{workload}.npz"
        tracer.save(spans)
        lines.append(f"spans {len(tracer)} written to {spans.relative_to(ROOT)}")
        reported = {name: (layer[name], unit) for name, (unit, _, keep)
                    in metrics.PER_LAYER.items() if keep}
    else:
        reported = {name: (e2e[name][0], metrics.END_TO_END[name][0])
                    for name in metrics.RESULT_END_TO_END}
    payload = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in reported.items()},
    }
    return lines, payload


def run_all(args):
    """Run every workload in a child process; the last line maps workload to result."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--budget", args.budget], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode == 0:
            results[name] = json.loads(lines.pop())
        else:
            status = status or proc.returncode
        for line in lines:
            print(line)
    print(json.dumps(results, sort_keys=True), flush=True)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",),
                        help="all: each workload in its own process, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", choices=("full", "smoke"), default="full",
                        help="smoke: tiny step budgets and fixture, for the smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "prunekit").is_dir() or not (ROOT / "configs" / "toy.ini").is_file():
        log(f"error: {ROOT} holds no prunekit source tree (src/prunekit, configs/toy.ini)")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    try:
        lines, payload = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.budget)
    except BenchError as exc:
        log(f"error: {exc}")
        return 3
    for line in lines:
        print(line)
    print(json.dumps(payload, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
