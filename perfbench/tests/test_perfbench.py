"""Tests of the benchmark's own code: wrappers, output checks, the worker.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _worker(*extra):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "check_small",
           "--seed", "0", "--seconds", "0.01", *extra]
    out = subprocess.run(cmd, env=run.child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, timeout=120, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_wrappers_only_in_traced_worker():
    plain, traced = _worker(), _worker("--trace")
    assert plain["wrapped_bindings"] == 0
    assert plain["per_layer"] is None
    assert traced["wrapped_bindings"] > 0
    assert traced["per_layer"]["oracle.pipeline_oracle.s"] > 0
    assert plain["sha256"] == traced["sha256"]


def test_uninstall_restores_every_binding():
    import dydila
    import dydila.projection

    originals = (dydila.matmul, dydila.projection.matmul, dydila.projection.dpm_forward)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert dydila.projection.matmul is not originals[1]
        assert tracing.wrapped_bindings() > 0
    finally:
        tr.uninstall()
    assert (dydila.matmul, dydila.projection.matmul, dydila.projection.dpm_forward) == originals
    assert tracing.wrapped_bindings() == 0


def test_stage_self_times_add_up_to_the_pass():
    import dydila

    cfg = dydila.RunConfig(preset="small", heads=2, blocks=2, seed=0)
    rng = dydila.SeededRng(0)
    tr = tracing.Tracer()
    tr.install()
    try:
        stack = dydila.init_params(cfg, rng)
        x = rng.tokens(64, cfg.dim, cfg.precision)
        _, seconds = tr.run_pass(lambda: dydila.stack_forward(x, stack)[0])
        m = tr.pass_metrics(seconds, {})
    finally:
        tr.uninstall()
    assert m["routing.calls"] == 2 * (2 + 2 * 7)  # per block: 2 projection, 7 per head
    assert m["routing.useful_ratio"] == pytest.approx((2 * (2 + 2 * 6)) / m["routing.calls"])
    assert m["projection.projectors_used_ratio"] > 0
    assert 0 <= m["trace.unattributed_s"] < 0.05 * seconds
    for name in ("projection.qkv_projection.s", "kernels.kernel_map.s",
                 "differential.attention_core.s", "attention.dwc.s", "attention.stack.self_s"):
        assert m[name] > 0, name


def test_nan_output_fails_the_check():
    check = workloads.OutputCheck()
    good = np.ones((4, 3))
    assert check(good) is None
    bad = good.copy()
    bad[2, 1] = np.nan
    assert "non-finite" in check(bad)


def test_non_deterministic_output_fails_the_check():
    gen = np.random.default_rng(0)
    cold, warm, failures, _ = worker.run_passes(lambda: gen.random((4, 3)), 0.05,
                                                workloads.OutputCheck())
    assert warm and len(failures) == len(warm)
    assert all("differs from the first pass" in f for f in failures)


def test_all_nan_output_fails_every_pass():
    _, warm, failures, _ = worker.run_passes(lambda: np.full((2, 2), np.nan), 0.02,
                                             workloads.OutputCheck())
    assert len(failures) == 1 + len(warm)


def test_raising_pass_counts_as_failed():
    def forward():
        raise FloatingPointError("boom")

    cold, warm, failures, _ = worker.run_passes(forward, 0.01, workloads.OutputCheck())
    assert cold != cold and failures[0].endswith("FloatingPointError: boom")


def test_tail_needs_ten_passes_beyond():
    assert run.tail([1.0] * 19) is None
    assert run.tail([float(i) for i in range(40)])[0] == 75
    assert run.tail([float(i) for i in range(200)])[0] == 95


def test_thread_caps_at_most_nproc():
    assert all(int(v) <= run.nproc() for v in run.thread_caps().values())


def test_run_offers_every_workload():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check_small",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
