"""One fresh benchmark process: set up, gate, then time passes in a closed loop.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src`` and
the BLAS thread caps set.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import tracer as tracing

# The oracle and the check suite are timed on the oracle gate, which every
# workload runs, so these layers are measured whichever workload runs.
GATE_METRICS = ("oracle.pipeline_oracle.s", "oracle.per_token_projection.s",
                "oracle.other.s", "checks.run_checks.self_s")


def run_passes(forward, seconds, check, timed_pass=None):
    """Cold pass, then warm passes until `seconds` of warm time have elapsed.

    `check(out)` returns None for a good output or the reason it is bad; a
    pass that raises counts as failed too.  Returns (cold_s, warm_s list,
    failures list, per-pass extra list) where extras are what `timed_pass`
    adds (the traced process uses it for per-layer metrics).
    """
    if timed_pass is None:
        def timed_pass(fn):
            start = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - start, None

    times, failures, extras = [], [], []
    warm_start = None
    while warm_start is None or time.perf_counter() - warm_start < seconds:
        try:
            out, dt, extra = timed_pass(forward)
            problem = check(out)
        except Exception as exc:  # a failed pass is recorded, not fatal
            dt, extra, problem = float("nan"), None, f"{type(exc).__name__}: {exc}"
        times.append(dt)
        extras.append(extra)
        if problem is not None:
            failures.append(f"pass {len(times) - 1}: {problem}")
        if warm_start is None:
            warm_start = time.perf_counter()
    return times[0], times[1:], failures, extras[1:]


def gate(dydila, config):
    """Untimed oracle gate: the self-check suite on the workload's config."""
    return [r.name for r in dydila.run_checks(config) if not r.passed]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import numpy
    import workloads
    import dydila

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    result = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s,
              "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    timed_pass, init_params_s = None, 0.0
    if tracer is None:
        result["gate_failed"] = gate(dydila, wl.config)
    else:
        init_params_s = tracer.setup_seconds("config.init_params")
        result["gate_failed"], gate_s = tracer.run_pass(lambda: gate(dydila, wl.config))
        gate_layers = tracer.pass_metrics(gate_s, {})

        def timed_pass(fn):
            out, dt = tracer.run_pass(fn)
            return out, dt, tracer.pass_metrics(dt, wl.flops)

    check = workloads.OutputCheck()
    cold, warm, failures, extras = run_passes(wl.forward, args.seconds, check, timed_pass)
    measured = [e for e in extras if e is not None]
    per_layer = None
    if measured:
        per_layer = {**tracing.median_metrics(measured), "config.init_params.s": init_params_s,
                     **{k: gate_layers[k] for k in GATE_METRICS}}

    result.update(
        cold_pass_s=cold,
        warm_pass_s=warm,
        failures=failures,
        sha256=check.first,
        precision=wl.precision,
        tokens=wl.tokens,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        wrapped_bindings=tracing.wrapped_bindings(),
        per_layer=per_layer,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
