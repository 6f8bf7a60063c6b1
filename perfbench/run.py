"""dydila benchmark: one command, four workloads, end-to-end or per-layer metrics.

Run from the root of a checkout that holds ``src/dydila``:

    python3 perfbench/run.py --workload block_n4096 --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh single-threaded worker process (``worker.py``)
with the BLAS thread caps set to 1.  ``--trace 0`` runs a few such
workers and prints the end-to-end metrics; ``--trace 1`` runs an untraced
and a traced worker for half the time each and prints the per-layer
metrics.  The last stdout line is the
result object; the lines before it describe the run for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("block_n4096", "stack_h6_n64_f32", "check_small", "softmax_n2048")
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 3  # extra fresh processes that only set up, for a steadier setup_s
# Measuring workers per run: at least MIN_WORKERS, more while another one
# is expected to end inside --seconds.  Each times warm passes for
# seconds / WARM_SHARE, so a fast workload gets more fresh processes (cold
# passes) than a slow one.
MIN_WORKERS, MAX_WORKERS, WARM_SHARE = 2, 8, 8
WORKER_TIMEOUT_S = 850  # a first run may build a backend lazily
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10  # passes that must lie beyond the tail percentile


class WorkerError(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def thread_caps():
    return {var: str(min(1, nproc())) for var in THREAD_CAP_VARS}


def child_env():
    env = dict(os.environ)
    env.update(thread_caps())
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload, seed, seconds, trace=False, setup_only=False):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {cmd[2:]} timed out after {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {cmd[2:]} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def timed(values):
    """Pass times of passes that returned (a raising pass has no time)."""
    kept = [v for v in values if v == v]
    if not kept:
        raise WorkerError("no pass returned")
    return kept


def tail(warm):
    """(percentile, seconds) of the highest percentile with enough passes beyond it."""
    for p in TAIL_PERCENTILES:
        if len(warm) * (100 - p) / 100 >= TAIL_BEYOND:
            return p, statistics.quantiles(warm, n=100)[p - 1]
    return None


def attempts(*workers):
    """(attempted, failed, gate passed, failure notes) over a run's workers.

    Every worker computes the same output, so a worker whose first output
    differs from the first worker's fails all of its passes.
    """
    attempted, failed, notes = 0, 0, []
    for i, w in enumerate(workers):
        n = 1 + len(w["warm_pass_s"])
        attempted += n
        if w["sha256"] != workers[0]["sha256"]:
            failed += n
            notes.append(f"worker {i}: output differs from worker 0")
        else:
            failed += len(w["failures"])
            notes += [f"worker {i} {f}" for f in w["failures"]]
    return attempted, failed, all(not w["gate_failed"] for w in workers), notes


def end_to_end(args):
    setups = [spawn(args.workload, args.seed, 0, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    workers, start, last = [], time.perf_counter(), 0.0
    while len(workers) < MIN_WORKERS or (
            len(workers) < MAX_WORKERS and time.perf_counter() - start + last <= args.seconds):
        began = time.perf_counter()
        workers.append(spawn(args.workload, args.seed, args.seconds / WARM_SHARE))
        last = time.perf_counter() - began
    setups += [w["setup_s"] for w in workers]
    warm = timed([t for w in workers for t in w["warm_pass_s"]])
    p50 = statistics.median(warm)
    metrics = {
        "pass_s_p50": (p50, "s"),
        "cold_pass_s": (statistics.median(timed([w["cold_pass_s"] for w in workers])), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (max(w["peak_rss_mib"] for w in workers), "MiB"),
    }
    pt = tail(warm)
    extra = {
        "passes": len(warm),
        "pass_s_tail": {"percentile": pt[0], "value": pt[1]} if pt else None,
        "token_blocks_per_s": workers[0]["tokens"] / p50 if workers[0]["tokens"] else None,
    }
    return metrics, extra, workers


def per_layer(args):
    plain = spawn(args.workload, args.seed, args.seconds / 2)
    traced = spawn(args.workload, args.seed, args.seconds / 2, trace=True)
    if plain["wrapped_bindings"] or not traced["wrapped_bindings"]:
        raise WorkerError("timing wrappers leaked into the untraced worker or were not installed")
    layers = traced["per_layer"] or {}
    layers["trace.overhead_ratio"] = (statistics.median(timed(traced["warm_pass_s"]))
                                      / statistics.median(timed(plain["warm_pass_s"])))
    metrics = {k: (v, _layer_unit(k)) for k, v in layers.items()}
    extra = {"passes": len(plain["warm_pass_s"]), "traced_passes": len(traced["warm_pass_s"])}
    return metrics, extra, [plain, traced]


def _layer_unit(name):
    if name.endswith(".gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("bytes_computed"):
        return "byte"
    if name.endswith((".calls", "_per_block")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "dydila" / "__init__.py").is_file():
        print(f"perfbench: no dydila sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    try:
        metrics, extra, workers = per_layer(args) if args.trace else end_to_end(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, gate_ok, notes = attempts(*workers)
    extra["failed_ratio"] = failed / attempted

    w = workers[0]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **extra,
        "pass_s": [[x["cold_pass_s"], *x["warm_pass_s"]] for x in workers],
        "gate_failed_checks": sorted({c for x in workers for c in x["gate_failed"]}),
        "failures": notes[:10],
        "output_sha256": w["sha256"], "precision": w["precision"],
        "env": {"git_commit": git_commit(), "python": platform.python_version(),
                "numpy": w["numpy"], "nproc": nproc(), "thread_caps": thread_caps()},
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    if not args.trace:
        pt = extra["pass_s_tail"]
        print(f"  {'pass_s_tail':<44} "
              + (f"{pt['value']:.6g} s (p{pt['percentile']})" if pt
                 else f"omitted: {extra['passes']} passes, needs {2 * TAIL_BEYOND}"))
        tbs = extra["token_blocks_per_s"]
        print(f"  {'token_blocks_per_s':<44} "
              + (f"{tbs:.6g} 1/s" if tbs else "not defined for this workload"))
    print(f"  {'passes':<44} {extra['passes']} count")
    print(f"  {'failed_ratio':<44} {extra['failed_ratio']:.6g} ratio ({failed}/{attempted})")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": gate_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
