"""Acceptance gate: the eleven package-level guarantees, one test each.

Every test prints a single bracketed pass/fail line (visible even under
capture) with the measured numbers next to the threshold it is held to.
Thresholds and instance grids are stated inline; runtime budgets are
asserted with the numerics, not assumed.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from dydila.attention import (
    DwcParams,
    dwc_forward,
    linear_attention,
    multihead_forward,
    reparam_merge,
)
from dydila.config import RunConfig
from dydila.differential import expand_tokenwise, tdo_forward
from dydila.fileio import read_csv, read_pgm
from dydila.flops import core_crossover, flops_estimate
from dydila.kernels import dmk_forward, focused_rows
from dydila.numerics import SeededRng, matmul, relu, row_l2_norm
from dydila.oracle import compare, explicit_linear_attention, explicit_tdo, per_token_lambdas
from dydila.projection import dpm_forward

from conftest import cli_env, make_block, make_diff_bank, make_kernel_bank, make_proj_bank, mat

# 50 seeded instances cycling the (n, d) grid shared by criteria 1-3.
_REORDER_GRID = [(n, d) for n in (1, 2, 8, 32, 64) for d in (4, 16, 32)]
_N_INSTANCES = 50


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} — {detail}")


def _run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dydila.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


def _exit_report(runs):
    """Return code and output tail (stderr, else stdout) of each CLI step that exited non-zero."""
    return "; ".join(
        f"{name} exited {proc.returncode}: "
        + " | ".join((proc.stderr or proc.stdout).strip().splitlines()[-5:])
        for name, proc in runs.items() if proc.returncode != 0
    )


def test_c01_linear_reordering_soundness(capsys):
    tol, budget = 1e-10, 10.0
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(_N_INSTANCES):
        n, d = _REORDER_GRID[i % len(_REORDER_GRID)]
        rng = SeededRng(7000 + i)
        q, k, v = (rng.tokens(n, d) for _ in range(3))
        rep = compare(explicit_linear_attention(q, k, v), linear_attention(q, k, v), tol)
        worst = max(worst, rep.max_rel_error)
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < budget
    _report(capsys, "c01 linear reordering", ok,
            f"max rel {worst:.2e} (tol {tol:.0e}) over {_N_INSTANCES} instances, "
            f"{elapsed:.2f}s (< {budget:.0f}s)")
    assert worst <= tol
    assert elapsed < budget


def _checked_lambdas(lambdas, q_t, qp_t, k_t, kp_t, bank):
    """tdo_forward's routed ``(lambda_q, lambda_k)``, asserted equal to the
    routing oracle's on the concatenated stream pairs."""
    lam_q, lam_k = lambdas["q"][0], lambdas["k"][0]
    assert np.array_equal(lam_q, per_token_lambdas(np.hstack((q_t, qp_t)), bank.router_q,
                                                   bank.lambdas))
    assert np.array_equal(lam_k, per_token_lambdas(np.hstack((k_t, kp_t)), bank.router_k,
                                                   bank.lambdas))
    return lam_q, lam_k


def test_c02_tdo_reordering_soundness(capsys):
    tol, budget = 1e-10, 10.0
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(_N_INSTANCES):
        n, d = _REORDER_GRID[i % len(_REORDER_GRID)]
        rng = SeededRng(8000 + i)
        q_t, qp_t, k_t, kp_t, v = (rng.tokens(n, d) for _ in range(5))
        bank = make_diff_bank(8000 + i, d, (0.0, 0.01, 0.1, 1.0))
        got, lambdas = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank)
        lam_q, lam_k = _checked_lambdas(lambdas, q_t, qp_t, k_t, kp_t, bank)
        rep = compare(explicit_tdo(q_t, qp_t, k_t, kp_t, v, lam_q, lam_k), got, tol)
        worst = max(worst, rep.max_rel_error)
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < budget
    _report(capsys, "c02 differential reordering", ok,
            f"max rel {worst:.2e} (tol {tol:.0e}) over {_N_INSTANCES} instances, "
            f"{elapsed:.2f}s (< {budget:.0f}s)")
    assert worst <= tol
    assert elapsed < budget


def test_c03_four_term_expansion_identity(capsys):
    tol, budget = 1e-12, 10.0
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(_N_INSTANCES):
        n, d = _REORDER_GRID[i % len(_REORDER_GRID)]
        rng = SeededRng(9000 + i)
        q_t, qp_t, k_t, kp_t, v = (rng.tokens(n, d) for _ in range(5))
        bank = make_diff_bank(9000 + i, d, (0.0, 0.01, 0.1, 1.0))
        got, lambdas = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank)
        lam_q, lam_k = _checked_lambdas(lambdas, q_t, qp_t, k_t, kp_t, bank)
        t1, t2, t3, t4 = expand_tokenwise(q_t, qp_t, k_t, kp_t, v, lam_q, lam_k)
        rep = compare(got, t1 - t2 - t3 + t4, tol)
        worst = max(worst, rep.max_rel_error)
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < budget
    _report(capsys, "c03 expansion identity", ok,
            f"max rel {worst:.2e} (tol {tol:.0e}) over {_N_INSTANCES} instances, "
            f"{elapsed:.2f}s (< {budget:.0f}s)")
    assert worst <= tol
    assert elapsed < budget


def test_c04_kernel_norm_preservation(capsys):
    tol, budget, rows, d = 1e-12, 5.0, 10_000, 64
    t0 = time.perf_counter()
    z = SeededRng(41).tokens(rows, d)
    z[:64] = -np.abs(z[:64])  # all-negative rows must map to exactly zero
    worst = 0.0
    dead_exact = True
    for gamma in (0.5, 1.0, 3.0, 8.0):
        out = focused_rows(z, gamma)
        want = row_l2_norm(relu(z))
        got = row_l2_norm(out)
        alive = want > 0
        worst = max(worst, float(np.max(np.abs(got[alive] - want[alive]) / want[alive])))
        dead_exact = dead_exact and bool(np.all(out[~alive] == 0.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and dead_exact and elapsed < budget
    _report(capsys, "c04 kernel norm preservation", ok,
            f"max rel norm drift {worst:.2e} (tol {tol:.0e}) on {rows} rows x 4 gammas, "
            f"dead rows exact: {dead_exact}, {elapsed:.2f}s (< {budget:.0f}s)")
    assert worst <= tol
    assert dead_exact
    assert elapsed < budget


def test_c05_degeneration_lattice(capsys):
    tol = 1e-12
    d, n = 16, 48
    rng = SeededRng(42)
    errs = {}

    # (a) gamma=1 with a single kernel factor is plain relu
    z = rng.tokens(n, d)
    out_a, _ = dmk_forward(z, make_kernel_bank(1042, d, (1.0,)))
    errs["gamma1->relu"] = compare(relu(z), out_a, tol).max_rel_error

    # (b) lambda=0 collapses the differential to the plain linear numerator
    q_t, qp_t, k_t, kp_t, v = (rng.tokens(n, d) for _ in range(5))
    bank0 = make_diff_bank(1043, d, (0.0,))
    errs["lambda0->numerator"] = compare(
        matmul(q_t, matmul(k_t.T, v)),
        tdo_forward(q_t, qp_t, k_t, kp_t, v, bank0)[0],
        tol,
    ).max_rel_error

    # (c) a single projector makes the routed projection a shared projection
    x = rng.tokens(n, d)
    proj = make_proj_bank(1044, d, 1)
    _, _, _, qp, kp, _, _ = dpm_forward(x, proj)
    errs["single-projector"] = max(
        compare(matmul(x, proj.w_q[0]), qp, tol).max_rel_error,
        compare(matmul(x, proj.w_k[0]), kp, tol).max_rel_error,
    )

    # (d) one head through the multi-head path is the single-head pipeline
    params = make_block(1045, d, (6, 8))
    out_multi, _ = multihead_forward(x, params)
    q, k, v, qp, kp, _, _ = dpm_forward(x, params.proj)
    hp = params.head_params[0]
    q_t, k_t, qp_t, kp_t = (dmk_forward(z, bank)[0] for z, bank in (
        (q, hp.kernel_q), (k, hp.kernel_k), (qp, hp.kernel_qp), (kp, hp.kernel_kp)))
    out_single = (tdo_forward(q_t, qp_t, k_t, kp_t, v, hp.diff, params.normalize)[0]
                  + dwc_forward(v, params.grid, params.dwc))
    errs["heads1==single"] = compare(out_single, out_multi, tol).max_rel_error

    worst = max(errs.values())
    ok = worst <= tol
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    _report(capsys, "c05 degeneration lattice", ok, f"{detail} (tol {tol:.0e})")
    assert worst <= tol, errs


def test_c06_dwc_reparameterization(capsys):
    grids, d = (8, 8), 32
    worst = {"f64": 0.0, "f32": 0.0}
    tols = {"f64": 1e-12, "f32": 1e-5}
    for precision, tol in tols.items():
        for seed in range(5):
            rng = SeededRng(500 + seed)
            v = rng.tokens(64, d, precision)
            dwc = DwcParams(
                kernels=rng.uniform((d, 3, 3), -1.0, 1.0, precision),
                identity_branch=True,
            )
            branch = dwc_forward(v, grids, dwc)
            fused = dwc_forward(v, grids, reparam_merge(dwc))
            worst[precision] = max(worst[precision], compare(branch, fused, tol).max_rel_error)
    ok = worst["f64"] <= tols["f64"] and worst["f32"] <= tols["f32"]
    _report(capsys, "c06 conv reparameterization", ok,
            f"max rel f64 {worst['f64']:.2e} (tol 1e-12), "
            f"f32 {worst['f32']:.2e} (tol 1e-5) on 8x8 grids, d=32")
    assert worst["f64"] <= tols["f64"]
    assert worst["f32"] <= tols["f32"]


def test_c07_permutation_equivariance(capsys):
    # Each variant routes only its own lambdas, so both run to cover every route.
    tol, n_perms, n = 1e-12, 10, 64
    d = 16
    x = mat(601, n, d)
    worst = 0.0
    routes_exact = True
    for variant in ("token-wise", "map-wise"):
        params = make_block(600, d, (8, 8), dwc=False, variant=variant)
        out, diag = multihead_forward(x, params)
        gen = np.random.Generator(np.random.PCG64(602))
        head = diag.heads[0]
        for _ in range(n_perms):
            perm = gen.permutation(n)
            out_p, diag_p = multihead_forward(x[perm], params)
            head_p = diag_p.heads[0]
            pairs = [
                (diag.routes_proj_q, diag_p.routes_proj_q),
                (diag.routes_proj_k, diag_p.routes_proj_k),
                (head.routes_kernel_q, head_p.routes_kernel_q),
                (head.routes_kernel_k, head_p.routes_kernel_k),
                (head.routes_kernel_qp, head_p.routes_kernel_qp),
                (head.routes_kernel_kp, head_p.routes_kernel_kp),
            ]
            pairs += [(head.lambdas[name][1], head_p.lambdas[name][1]) for name in head.lambdas]
            for a, b in pairs:
                routes_exact = routes_exact and bool(np.array_equal(a.indices[perm], b.indices))
            worst = max(worst, compare(out[perm], out_p, tol).max_rel_error)
    ok = routes_exact and worst <= tol
    _report(capsys, "c07 permutation equivariance", ok,
            f"routes exact over {n_perms} permutations per variant: {routes_exact}, "
            f"max value rel {worst:.2e} (tol {tol:.0e})")
    assert routes_exact
    assert worst <= tol


# c08 times each implementation in a fresh interpreter.  In the test process,
# the tests before it leave glibc's mmap and trim thresholds raised, and then
# only the N=16384 pass gets its temporaries from fresh pages, so the ratios
# there follow the heap state the earlier tests leave, not the algorithm.
_C08_CHILD = """
import json, sys
from dydila.bench import bench_run
from dydila.config import RunConfig
cfg, impl, n_list, iters = json.loads(sys.argv[1])
recs = bench_run(RunConfig.from_dict(cfg), impl, n_list, iters=iters)
print(json.dumps([[r.n, r.median_s] for r in recs]))
"""


def _bench_medians(cfg: dict, impl: str, n_list, iters: int) -> dict:
    """bench_run's median seconds per n, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _C08_CHILD, json.dumps([cfg, impl, n_list, iters])],
        capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(proc.stdout))


@pytest.mark.slow
def test_c08_complexity_scaling(capsys):
    budget = 300.0
    linear_band, softmax_band, min_gap = (2.5, 6.0), (9.0, 24.0), 3.0
    cfg = {"preset": "custom", "dim": 64, "heads": 1, "precision": "f32"}
    n_small, n_large = 4096, 16384
    t0 = time.perf_counter()
    medians = {}
    for impl in ("linear", "focused", "dydila", "softmax"):
        medians[impl] = _bench_medians(cfg, impl, [n_small, n_large], iters=3)
    elapsed = time.perf_counter() - t0

    ratios = {impl: medians[impl][n_large] / medians[impl][n_small] for impl in medians}
    gap = medians["softmax"][n_large] / medians["dydila"][n_large]
    ok = (
        all(linear_band[0] <= ratios[i] <= linear_band[1]
            for i in ("linear", "focused", "dydila"))
        and softmax_band[0] <= ratios["softmax"] <= softmax_band[1]
        and gap >= min_gap
        and elapsed < budget
    )
    _report(capsys, "c08 complexity scaling", ok,
            f"t(16384)/t(4096): linear {ratios['linear']:.2f}, focused "
            f"{ratios['focused']:.2f}, dydila {ratios['dydila']:.2f} "
            f"(band {linear_band}), softmax {ratios['softmax']:.2f} "
            f"(band {softmax_band}); softmax/dydila at 16384 = {gap:.2f} "
            f"(>= {min_gap}); {elapsed:.0f}s (< {budget:.0f}s)")
    for impl in ("linear", "focused", "dydila"):
        assert linear_band[0] <= ratios[impl] <= linear_band[1], (impl, ratios[impl])
    assert softmax_band[0] <= ratios["softmax"] <= softmax_band[1], ratios["softmax"]
    assert gap >= min_gap, gap
    assert elapsed < budget


def test_c09_flop_closed_forms(capsys):
    cases = [(64, 64), (128, 64), (4096, 64), (1000, 48), (16384, 64)]
    ok = True
    for n, d in cases:
        ok = ok and flops_estimate("softmax", n, d)["attention_core"] == 4 * n * n * d
        ok = ok and flops_estimate("linear", n, d)["attention_core"] == 4 * n * d * d
        ok = ok and flops_estimate("dydila", n, d)["attention_core"] == 4 * n * d * d
    crossings = all(core_crossover(d) == d for _, d in cases)
    d0 = 64
    at_cross = (
        flops_estimate("softmax", d0, d0)["attention_core"]
        == flops_estimate("linear", d0, d0)["attention_core"]
    )
    ok = ok and crossings and at_cross
    _report(capsys, "c09 flop closed forms", ok,
            f"softmax core == 4N^2 d and linear core == 4N d^2 on {len(cases)} cases, "
            f"crossover N* == d: {crossings}, cores equal at N=d: {at_cross}")
    assert ok


def test_c10_byte_determinism(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "preset": "custom", "dim": 16, "heads": 1, "blocks": 2,
        "n_projectors": 2, "n_kernel_factors": 3, "n_lambda_factors": 3,
        "grid": {"h": 4, "w": 4}, "seed": 12, "precision": "f64",
    }), encoding="utf-8")

    check_a = _run_cli("check", "--config", str(cfg_path))
    check_b = _run_cli("check", "--config", str(cfg_path))
    out_a = tmp_path / "fa.csv"
    out_b = tmp_path / "fb.csv"
    fwd_a = _run_cli("forward", "--config", str(cfg_path), "--out", str(out_a))
    fwd_b = _run_cli("forward", "--config", str(cfg_path), "--out", str(out_b))

    checks_ok = check_a.returncode == check_b.returncode == 0
    fwd_ok = fwd_a.returncode == fwd_b.returncode == 0
    check_same = check_a.stdout == check_b.stdout
    fwd_same = fwd_a.stdout.replace(str(out_a), "OUT") == \
        fwd_b.stdout.replace(str(out_b), "OUT")
    files_same = out_a.read_bytes() == out_b.read_bytes()
    ok = checks_ok and fwd_ok and check_same and fwd_same and files_same
    _report(capsys, "c10 determinism", ok,
            f"check stdout identical: {check_same}, forward stdout identical: "
            f"{fwd_same}, output files identical: {files_same}")
    assert checks_ok and fwd_ok
    assert check_same
    assert fwd_same
    assert files_same


def test_c11_cli_contract(capsys, tmp_path):
    steps = {}

    init = _run_cli("init", "--preset", "custom", "--dim", "64",
                    "--out", "run.json", cwd=tmp_path)
    steps["init"] = init.returncode == 0 and (tmp_path / "run.json").exists()

    check = _run_cli("check", "--config", "run.json", cwd=tmp_path)
    steps["check"] = check.returncode == 0

    bench = _run_cli("bench", "--impl", "dydila", "--seq-len", "1024",
                     "--iters", "3", "--config", "run.json",
                     "--out", "bench.csv", cwd=tmp_path)
    steps["bench"] = bench.returncode == 0
    runs = {"init": init, "check": check, "bench": bench}
    # A failed bench leaves no bench.csv to read; name the failing step here
    # instead of in read_csv. steps["bench"] is False then, so this fails
    # exactly when the final assert would.
    assert steps["bench"], _exit_report(runs)
    header, rows = read_csv(tmp_path / "bench.csv")
    cfg = RunConfig.from_dict({"preset": "custom", "dim": 64})
    want_flops = flops_estimate(
        "dydila", 1024, 64, heads=cfg.heads, n_projectors=cfg.n_projectors,
        n_kernel_factors=cfg.n_kernel_factors, n_lambda_factors=cfg.n_lambda_factors,
        dwc=cfg.dwc_enabled, normalize=cfg.normalize,
    )["total"]
    steps["bench csv"] = (
        header == ["impl", "N", "d", "heads", "mean_s", "std_s", "flops"]
        and len(rows) == 1
        and rows[0][:4] == ["dydila", "1024", "64", "1"]
        and float(rows[0][4]) > 0.0
        and float(rows[0][5]) >= 0.0
        and int(rows[0][6]) == want_flops
    )

    dump = _run_cli("dump-attn", "--config", "run.json", "--seq-len", "1024",
                    "--impl", "dydila", "--query-index", "7",
                    "--out", "attn", cwd=tmp_path)
    steps["dump-attn"] = dump.returncode == 0
    runs["dump-attn"] = dump
    assert steps["dump-attn"], _exit_report(runs)
    aheader, arows = read_csv(tmp_path / "attn.csv")
    steps["attn csv"] = aheader == ["token_index", "weight"] and len(arows) == 1024
    w, h, pixels = read_pgm(tmp_path / "attn.pgm")
    steps["attn pgm"] = (w, h) == (32, 32) and len(pixels) == 1024

    ok = all(steps.values())
    _report(capsys, "c11 cli contract", ok,
            "init -> check -> bench(dydila, N=1024) -> dump-attn; " +
            ", ".join(f"{k}: {'ok' if v else 'FAILED'}" for k, v in steps.items()))
    assert all(steps.values()), (steps, _exit_report(runs))
