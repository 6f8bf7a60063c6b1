"""Record one point of the benchmark trajectory as a BENCH_<k>.json file.

    python3 scripts/bench_record.py --out BENCH_1.json [--checkout DIR]

For every workload that the checkout's BENCHMARK.json lists, this runs the
benchmark command there with ``--trace 0`` for seeds 1-3 and ``--trace 1``
for seed 1, and keeps each run's result object and ``detail`` line. The
file also holds the checkout's commit, the commands that were run, and
``dydila.matmul_backend()`` as the checkout's own dydila reports it, so a
run that fell back to the numpy loops is told apart from a regression.
Every run lasts BENCHMARK.json's ``run_seconds``, so all points of the
trajectory are comparable.
``--checkout`` defaults to the repository holding this script; pointing it
at a clone of an older commit records that commit with the same script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3)
TRACE_SEED = 1


def run(cmd, cwd, env=None) -> str:
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def bench_run(command, checkout, workload, seed, seconds, trace) -> dict:
    """One benchmark run: its command, result object and detail line."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print("running", " ".join(cmd), file=sys.stderr, flush=True)
    lines = run(cmd, checkout).splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return {"command": " ".join(cmd), "result": json.loads(lines[-1]), "detail": detail}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--checkout", default=str(Path(__file__).resolve().parent.parent),
                    help="root of the checkout to measure (default: this repository)")
    args = ap.parse_args(argv)

    checkout = Path(args.checkout).resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    record = {
        "commit": run(["git", "rev-parse", "HEAD"], checkout).strip(),
        "dirty": bool(run(["git", "status", "--porcelain", "--untracked-files=no"], checkout)),
        "matmul_backend": run([sys.executable, "-c",
                               "import dydila; print(dydila.matmul_backend())"],
                              checkout, env).strip(),
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        record["workloads"][workload] = {
            "trace0": [bench_run(command, checkout, workload, seed, seconds, 0)
                       for seed in SEEDS],
            "trace1": bench_run(command, checkout, workload, TRACE_SEED, seconds, 1),
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
