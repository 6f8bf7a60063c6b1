"""Named self-check suite behind the `check` subcommand.

Each check pits a production path against an independent oracle (or an
algebraic identity) at the tolerance for the configured precision, at desk
scale: the config's model dim is capped at 32 and depth at 2 so a preset
config still checks in well under a second (``backends_bit_equal`` runs one
block at the configured width, ``configured_depth_finite`` the configured
depth at desk width).  Output contains no timings, so two runs of the same
config print identical bytes.

Every comparison row goes through :func:`_compared`, and its tolerance
alone decides the rule.  Tolerance 0 is bit-exact: same dtype, shape and
bits, so ``-0.0`` differs from ``+0.0``, and no NaN in the candidate.  The
f64 ``matmul``, ``projection``, focused-map and DWC oracle rows read their 0
from ``TOLERANCES``; ``kernel_gamma1_is_relu``, ``softmax_blocks_vs_whole_map``
(257 query rows, past one block of the softmax map, against the whole map),
``backends_bit_equal`` (the compiled kernels against the numpy loops) and
``determinism`` (a repeated forward and every weight of a stack rebuilt from
the seed) compare at 0 in both precisions.
Any other tolerance bounds :func:`oracle.compare`'s normwise relative error.
The float32 tolerances are deliberately coarse (calibrated empirically,
roughly 1e-4 relative); float64 tolerances match the acceptance thresholds.
With ``inject_fault`` set, the token-differential reordering check adds
1e-3 to ``q_t[0, 0]`` of a copy of the query stream it passes to
``tdo_forward``, which must flip that check to FAIL (its detail then starts
with ``[fault injected]``); it exists to prove the suite can fail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import (
    _SOFTMAX_ROWS,
    AttentionStack,
    _softmax_map,
    dwc_forward,
    extract_attention_row,
    linear_attention,
    multihead_forward,
    reparam_merge,
    softmax_attention,
    stack_forward,
)
from .config import RunConfig, init_params, seeded_run
from .differential import _key_state, expand_tokenwise, tdo_forward
from .fileio import assemble_stack, stack_entries, stack_from_weights
from .kernels import focused_rows
from .numerics import (
    ContractViolation,
    SeededRng,
    _numpy_loops,
    matmul,
    matmul_backend,
    relu,
    resolve_dtype,
    row_l2_norm,
    softmax_rows,
)
from .oracle import (
    compare,
    explicit_dwc,
    explicit_linear_attention,
    explicit_tdo,
    naive_focused_row,
    naive_matmul,
    per_token_projection,
    pipeline_oracle,
)
from .projection import dpm_forward

__all__ = ["CheckResult", "TOLERANCES", "run_checks", "format_results"]

# Relative tolerances per precision.  f64 values mirror the acceptance
# thresholds; f32 values were calibrated on the seeded desk-scale instances
# and include generous headroom above the observed worst case.
TOLERANCES = {
    "f64": {
        "matmul": 0.0,  # bit-exact against the triple loop
        "matmul_assoc": 1e-10,
        "softmax_sum": 1e-12,
        "kernel_norm": 1e-12,
        "focused_oracle": 0.0,  # the oracle follows the map's order
        "projection": 0.0,  # same arithmetic order as the per-token oracle
        "linear_reorder": 1e-10,
        "tdo_reorder": 1e-10,
        "expansion": 1e-12,
        "degeneracy": 1e-12,
        "reparam": 1e-12,
        "dwc_oracle": 0.0,  # the oracle follows the taps' order
        "permutation": 1e-12,
        "composed": 1e-10,
    },
    "f32": {
        "matmul": 1e-5,
        "matmul_assoc": 1e-4,
        "softmax_sum": 1e-6,
        "kernel_norm": 1e-5,
        "focused_oracle": 1e-5,
        "projection": 1e-5,
        "linear_reorder": 1e-4,
        "tdo_reorder": 1e-4,
        "expansion": 1e-4,
        "degeneracy": 1e-5,
        "reparam": 1e-5,
        "dwc_oracle": 1e-5,
        "permutation": 1e-4,
        "composed": 1e-4,
    },
}

_DESK_DIM = 32
_DESK_TOKENS = 64


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _desk_config(cfg: RunConfig, blocks: int) -> RunConfig:
    d = min(cfg.dim, _DESK_DIM)
    heads = cfg.heads if (cfg.heads <= 4 and d % cfg.heads == 0) else 1
    return cfg.with_overrides(
        dim=d,
        heads=heads,
        blocks=blocks,
        grid_h=8,
        grid_w=8,
        inject_fault=False,  # the hook is applied explicitly below
    )


def _desk_stack(cfg: RunConfig, rng: SeededRng) -> AttentionStack:
    """``init_params`` repeats one gamma and lambda per bank; spread them so misrouting shows."""
    weights = dict(stack_entries(init_params(cfg, rng)))
    for name, arr in weights.items():
        if name.endswith("/gammas"):
            weights[name] = cfg.gamma_init * np.linspace(0.5, 1.5, cfg.n_kernel_factors)
        elif name.endswith("/lambdas"):
            weights[name] = arr[0] + 0.05 * np.arange(cfg.n_lambda_factors)
    return stack_from_weights(cfg, weights)


def _compared(name: str, reference, candidate, tolerance: float, also: bool = True,
              note: str = "") -> CheckResult:
    """The one comparison row: a candidate against its reference at one tolerance.

    Tolerance 0 means bit-exact: the dtype and shape agree, every entry has
    the same bits (so ``-0.0`` is not ``+0.0``), and the candidate holds no
    NaN.  Any other tolerance reports :func:`oracle.compare`'s normwise
    error.  The row passes only if the comparison does and ``also`` holds;
    ``note`` leads the detail text.
    """
    if tolerance == 0:
        reference, candidate = np.asarray(reference), np.asarray(candidate)
        passed = (reference.dtype == candidate.dtype and reference.shape == candidate.shape
                  and reference.tobytes() == candidate.tobytes()
                  and not np.isnan(candidate).any())
        text = "bit-exact" if passed else "FAIL: not bit-exact"
    else:
        report = compare(reference, candidate, tolerance)
        passed, text = report.passed, str(report)
    return CheckResult(name, passed and also, f"{note} {text}" if note else text)


def run_checks(cfg: RunConfig) -> list:
    """Run the whole suite for one config; returns CheckResults in order."""
    inject = cfg.inject_fault
    own_cfg = cfg
    deep_cfg = _desk_config(cfg, cfg.blocks)
    cfg = _desk_config(cfg, min(cfg.blocks, 2))
    tol = TOLERANCES[cfg.precision]
    dt = resolve_dtype(cfg.precision)
    rng = SeededRng(cfg.seed)
    stack = _desk_stack(cfg, rng)
    block = stack.blocks[0]
    n, d = _DESK_TOKENS, cfg.dim
    x = rng.tokens(n, d, cfg.precision)
    results = []

    # --- numerics -------------------------------------------------------
    a = rng.tokens(12, 7, cfg.precision)
    b = rng.tokens(7, 9, cfg.precision)
    results.append(_compared("matmul_vs_triple_loop", naive_matmul(a, b), matmul(a, b),
                             tol["matmul"]))

    # the tiles' edge rows on an F-ordered a and a k.T view of b, and a narrow
    # product on a strided a; its own generator leaves the later draws as they were
    lay = SeededRng(cfg.seed + 1)
    a_f = np.asfortranarray(lay.tokens(13, 200, cfg.precision))
    k_t = lay.tokens(33, 200, cfg.precision).T
    a_s, w = lay.tokens(13, 400, cfg.precision)[:, ::2], lay.tokens(200, 3, cfg.precision)
    results.append(_compared(
        "matmul_layouts_vs_triple_loop",
        np.concatenate([naive_matmul(a_f, k_t).ravel(), naive_matmul(a_s, w).ravel()]),
        np.concatenate([matmul(a_f, k_t).ravel(), matmul(a_s, w).ravel()]), tol["matmul"]))

    # fewer rows than a tile, so every tile is an edge tile; the same sum
    # resumed from a first call over its first 120 k; and terms that are all
    # -0, whose triple-loop sum from +0 is +0
    a5, b20 = lay.tokens(5, 200, cfg.precision), lay.tokens(200, 20, cfg.precision)
    whole = naive_matmul(a5, b20)
    resumed = matmul(a5[:, 120:], b20[120:], start=matmul(a5[:, :120], b20[:120]))
    zeros, negative = np.zeros((13, 4), dt), np.full((4, 33), -1.0, dt)
    results.append(_compared(
        "matmul_edges_vs_triple_loop",
        np.concatenate([whole.ravel(), whole.ravel(), naive_matmul(zeros, negative).ravel()]),
        np.concatenate([matmul(a5, b20).ravel(), resumed.ravel(),
                        matmul(zeros, negative).ravel()]), tol["matmul"]))

    c = rng.tokens(9, 5, cfg.precision)
    results.append(_compared("matmul_associativity", matmul(matmul(a, b), c),
                             matmul(a, matmul(b, c)), tol["matmul_assoc"]))

    logits = rng.uniform((16, 11), -40.0, 40.0, cfg.precision)
    before = logits.tobytes()
    sm = softmax_rows(logits)
    sums = np.sum(sm, axis=1)
    unchanged = logits.tobytes() == before
    ok = (
        bool(np.all(np.abs(sums - 1.0) <= tol["softmax_sum"]))
        and bool(np.all(sm >= 0))
        and bool(np.all(sm <= 1))
        and unchanged
    )
    results.append(CheckResult("softmax_rows_normalized", ok,
                               f"max |row sum - 1| = {float(np.max(np.abs(sums - 1.0))):.3e}, "
                               f"input unchanged: {unchanged}"))

    # one query row past a block of the softmax map: the blocks' rows must be
    # those of the whole map
    qs, ks, vs = (lay.tokens(m, d, cfg.precision) for m in (_SOFTMAX_ROWS + 1, n, n))
    results.append(_compared("softmax_blocks_vs_whole_map", matmul(_softmax_map(qs, ks), vs),
                             softmax_attention(qs, ks, vs), 0.0,
                             note=f"{_SOFTMAX_ROWS + 1} query rows:"))
    # the normalizer's column sums of an F-ordered b of more than 128 rows
    # (where numpy's own sum goes pairwise) must add in ascending row order
    b = np.asfortranarray(lay.tokens(200, d, cfg.precision))
    results.append(_compared("key_state_column_sums_vs_triple_loop",
                             naive_matmul(np.ones((1, 200)), b), _key_state(b, None, True)[1],
                             tol["matmul"]))
    # a product at the small preset's d=384 reaches the kernel's second k block
    _, own, x_own = seeded_run(own_cfg.with_overrides(blocks=1, grid_h=8, grid_w=8))
    got, _ = multihead_forward(x_own, own.blocks[0])
    with _numpy_loops():
        want, _ = multihead_forward(x_own, own.blocks[0])
    results.append(_compared("backends_bit_equal", want, got, 0.0, note=(
        f"d={own_cfg.dim}, heads={own_cfg.heads}, {matmul_backend()} against numpy:")))

    # --- kernels --------------------------------------------------------
    z = rng.tokens(512, d, cfg.precision)
    z[:7] = -np.abs(z[:7])  # dead rows must map to exact zero
    worst = 0.0
    dead_ok = True
    for gamma in (0.5, 1.0, 3.0, 8.0):
        out = focused_rows(z, gamma)
        n_in, n_out = row_l2_norm(relu(z)), row_l2_norm(out)
        alive = n_in > 0
        if np.any(alive):
            rel = np.abs(n_out[alive] - n_in[alive]) / n_in[alive]
            worst = max(worst, float(np.max(rel)))
        dead_ok = dead_ok and bool(np.all(out[~alive] == 0))
    results.append(CheckResult("kernel_norm_preservation", worst <= tol["kernel_norm"] and dead_ok,
                               f"worst rel norm drift {worst:.3e}, dead rows exact: {dead_ok}"))

    results.append(_compared("kernel_gamma1_is_relu", relu(z), focused_rows(z, 1.0), 0.0,
                             note="gamma=1 against relu:"))

    # a dead row, a live one, one of subnormal entries, and one whose scaled
    # entries reach the pow's subnormal inputs and (in f64) results
    rows = z[6:10].copy()
    tiny = np.finfo(dt).tiny
    rows[2] *= tiny
    rows[3] *= np.resize(np.array([1.0, 2.0**-340, 2.0**-345, 2.0**-350, tiny / 3], dt), d)
    gammas = (0.5, 1.0, 3.0)
    want = np.vstack([[naive_focused_row(row, g) for row in rows] for g in gammas])
    got = np.vstack([focused_rows(rows, g) for g in gammas])
    results.append(_compared("focused_map_vs_oracle", want, got, tol["focused_oracle"]))

    # --- projection vs per-token oracle ---------------------------------
    xs = x[:24]
    q, k, v, qr, kr, routes_q, routes_k = dpm_forward(xs, block.proj)
    oq, ok_, ov, oqr, okr, oiq, oik = per_token_projection(xs, block.proj)
    routes_match = bool(
        np.array_equal(routes_q.indices, oiq) and np.array_equal(routes_k.indices, oik)
    )
    results.append(_compared("projection_per_token", np.hstack([oq, ok_, ov, oqr, okr]),
                             np.hstack([q, k, v, qr, kr]), tol["projection"], also=routes_match,
                             note=f"routes exact: {routes_match},"))

    # --- reordering vs explicit maps -------------------------------------
    ql, kl, vl = (rng.tokens(48, d, cfg.precision) for _ in range(3))
    results.append(_compared("linear_reorder_vs_explicit", explicit_linear_attention(ql, kl, vl),
                             linear_attention(ql, kl, vl), tol["linear_reorder"]))

    hp = block.head_params[0]
    d_h = block.head_dim
    q_t = rng.tokens(48, d_h, cfg.precision)
    qp_t = rng.tokens(48, d_h, cfg.precision)
    k_t = rng.tokens(48, d_h, cfg.precision)
    kp_t = rng.tokens(48, d_h, cfg.precision)
    v_t = rng.tokens(48, d_h, cfg.precision)
    clean, lambdas = tdo_forward(q_t, qp_t, k_t, kp_t, v_t, hp.diff)
    lam_q, lam_k = lambdas["q"][0], lambdas["k"][0]
    got_tdo = clean
    if inject:
        q_prod = q_t.copy()
        q_prod[0, 0] += np.asarray(1e-3, dtype=dt)
        got_tdo, _ = tdo_forward(q_prod, qp_t, k_t, kp_t, v_t, hp.diff)
    results.append(_compared("tdo_reorder_vs_explicit",
                             explicit_tdo(q_t, qp_t, k_t, kp_t, v_t, lam_q, lam_k), got_tdo,
                             tol["tdo_reorder"], note="[fault injected]" if inject else ""))

    t1, t2, t3, t4 = expand_tokenwise(q_t, qp_t, k_t, kp_t, v_t, lam_q, lam_k)
    results.append(_compared("tdo_expansion_identity", clean, t1 - t2 - t3 + t4,
                             tol["expansion"]))

    # --- degeneracies -----------------------------------------------------
    results.append(_degeneracy_check(cfg, rng, tol))

    # --- depthwise conv re-parameterization ------------------------------
    if block.dwc is not None:
        branch = dwc_forward(v, (4, 6), replace(block.dwc, use_merged=False))
        fused = dwc_forward(v, (4, 6), reparam_merge(block.dwc))
        results.append(_compared("dwc_reparam_merge", branch, fused, tol["reparam"]))
        want = np.vstack([explicit_dwc(v, (4, 6), block.dwc.kernels, block.dwc.identity_branch),
                          explicit_dwc(v, (4, 6), block.dwc.merged, False)])
        results.append(_compared("dwc_vs_explicit", want, np.vstack([branch, fused]),
                                 tol["dwc_oracle"]))

    # --- permutation equivariance (conv off: it is grid-, not set-, local) --
    results.append(_permutation_check(cfg, block, rng, tol))

    # --- composed pipeline vs stage-by-stage oracle ----------------------
    results.append(_compared("composed_pipeline_vs_oracle", pipeline_oracle(x, block),
                             multihead_forward(x, block)[0], tol["composed"]))

    # each head's row of the last query, taken query first, times its V: the
    # keys-first block's output row in that head's columns
    bare = replace(block, dwc=None)
    v_all = matmul(x, block.proj.w_v0)
    results.append(_compared(
        "attention_row_vs_block_output", multihead_forward(x, bare)[0][-1:],
        np.hstack([matmul(extract_attention_row(x, bare, n - 1, "dydila", h)[None],
                          v_all[:, h * d_h:(h + 1) * d_h]) for h in range(block.heads)]),
        tol["tdo_reorder"]))

    # --- residual stack and determinism ----------------------------------
    # a repeated forward and a stack rebuilt from the same seed must
    # reproduce the output and every weight bit for bit
    rebuilt = _desk_stack(cfg, SeededRng(cfg.seed))
    results.append(_compared("determinism", _forward_and_weights(x, stack),
                             _forward_and_weights(x, rebuilt), 0.0,
                             note="forward and re-init:"))
    results.append(_depth_check(deep_cfg))
    return results


def _forward_and_weights(x: np.ndarray, stack: AttentionStack) -> np.ndarray:
    """The stack's output on x and every weight in ``stack_entries``, as one flat array.

    In f32 the float64 gammas and lambdas widen it to float64, which keeps
    every f32 bit pattern apart."""
    out, _ = stack_forward(x, stack)
    return np.concatenate([out.ravel()] + [w.ravel() for _, w in stack_entries(stack)])


def _degeneracy_check(cfg: RunConfig, rng: SeededRng, tol) -> CheckResult:
    """gamma=1/single-factor/zero-lambda/single-projector reductions."""
    d = cfg.dim
    prec = cfg.precision
    x = rng.tokens(36, d, prec)
    single = RunConfig(preset="custom", dim=d, blocks=1, n_projectors=1, n_kernel_factors=1,
                       n_lambda_factors=1, grid_h=6, grid_w=6, precision=prec,
                       normalize=False, dwc_enabled=False)
    drawn = {}

    def weight(block, name, shape):
        if name.endswith("/gammas"):
            return np.ones(shape)
        if name.endswith("/lambdas"):
            return np.zeros(shape)
        key = "kernel router" if "/kernel_" in name else name  # one for all four banks
        if key not in drawn:
            drawn[key] = rng.init_weight(*shape, prec)
        return drawn[key]

    params = assemble_stack(single, weight).blocks[0]
    got, _ = multihead_forward(x, params)
    p = params.proj
    q, k, v = matmul(x, p.w_q0), matmul(x, p.w_k0), matmul(x, p.w_v0)
    want = matmul(relu(q), matmul(relu(k).T, v))
    return _compared("degeneracy_lattice", want, got, tol["degeneracy"],
                     note="lambda=0, gamma=1, single banks -> relu linear numerator;")


def _depth_check(cfg: RunConfig) -> CheckResult:
    """Runs what ``forward`` runs (``seeded_run``) at desk width."""
    _, stack, x = seeded_run(cfg)
    try:
        stack_forward(x, stack)
    except ContractViolation as e:
        return CheckResult("configured_depth_finite", False, str(e))
    return CheckResult("configured_depth_finite", True, f"{cfg.blocks} blocks, output finite")


def _permutation_check(cfg: RunConfig, block, rng: SeededRng, tol) -> CheckResult:
    params = replace(block, dwc=None)
    x = rng.tokens(_DESK_TOKENS, cfg.dim, cfg.precision)
    perm = np.random.Generator(np.random.PCG64(cfg.seed + 1)).permutation(x.shape[0])
    out, diag = multihead_forward(x, params)
    out_p, diag_p = multihead_forward(x[perm], params)
    routes_ok = bool(
        np.array_equal(diag.routes_proj_q.indices[perm], diag_p.routes_proj_q.indices)
        and np.array_equal(diag.routes_proj_k.indices[perm], diag_p.routes_proj_k.indices)
    )
    return _compared("permutation_equivariance", out[perm], out_p, tol["permutation"],
                     also=routes_ok, note=f"routes exact: {routes_ok},")


def format_results(results) -> str:
    """Stable text rendering: one line per check plus a summary line."""
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        state = "pass" if r.passed else "FAIL"
        lines.append(f"check {r.name:<{width}} {state}  {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results)} checks, {failed} failed")
    return "\n".join(lines)
