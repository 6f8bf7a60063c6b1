"""Slow, explicit reference implementations and the comparison report.

Everything here is written for obviousness, not speed: per-token Python
loops, naive triple-loop matrix products and one explicit n x n attention
map (:func:`_explicit_map`) that the linear, token-wise and map-wise
references compose.  All oracle arithmetic runs in float64 regardless of
the candidate's precision, and none of it is imported from the package.
To keep accidental quadratic blowups out of test runs, the explicit-map
oracles refuse token counts above :data:`ORACLE_CAP`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _pow_tables
from .numerics import ContractViolation
from .routing import Router

__all__ = [
    "ORACLE_CAP",
    "OracleCapError",
    "OracleReport",
    "compare",
    "naive_matmul",
    "naive_focused_row",
    "explicit_routes",
    "explicit_linear_attention",
    "explicit_tdo",
    "explicit_mapwise",
    "explicit_dwc",
    "per_token_projection",
    "per_token_kernel",
    "per_token_lambdas",
    "pipeline_oracle",
]

ORACLE_CAP = 256

# Scale floor when turning an absolute error into a relative one; also the
# absolute error under which a comparison passes outright (an all-zero
# reference has no meaningful scale).
_SCALE_FLOOR = 1e-30
_DENOM_FLOOR = 1e-6  # mirrors the production normalizer contract


class OracleCapError(RuntimeError):
    """Refusal to run an explicit-map oracle past the desk-scale cap."""


def _cap(n: int, what: str) -> None:
    if n > ORACLE_CAP:
        raise OracleCapError(f"{what} oracle capped at {ORACLE_CAP} tokens, got {n}")


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one reference-vs-candidate comparison."""

    max_abs_error: float
    max_rel_error: float
    tolerance: float
    passed: bool
    mismatch_location: tuple | None
    shape: tuple

    def __str__(self):
        state = "pass" if self.passed else "FAIL"
        loc = "" if self.mismatch_location is None else f" worst at {self.mismatch_location}"
        return (
            f"{state}: max_abs={self.max_abs_error:.3e} "
            f"max_rel={self.max_rel_error:.3e} tol={self.tolerance:.1e}{loc}"
        )


def compare(reference: np.ndarray, candidate: np.ndarray, tolerance: float) -> OracleReport:
    """Compare a candidate against a reference at a relative tolerance.

    The relative error is normwise: max|ref - cand| divided by the largest
    reference magnitude (floored at 1e-30 so an all-zero reference does not
    divide by zero).  Elementwise relation would be meaningless here, since
    differential outputs legitimately pass through zero.  A comparison also
    passes outright when the absolute error itself is below 1e-30.
    ``mismatch_location`` points at the largest absolute deviation and is
    set only on failure.
    """
    ref = np.asarray(reference, dtype=np.float64)
    cand = np.asarray(candidate, dtype=np.float64)
    if ref.shape != cand.shape:
        raise ContractViolation(f"compare shape mismatch: {ref.shape} vs {cand.shape}")
    if tolerance < 0:
        raise ContractViolation(f"tolerance must be >= 0, got {tolerance}")

    diff = np.abs(ref - cand)
    max_abs = float(np.max(diff)) if diff.size else 0.0
    scale = max(float(np.max(np.abs(ref))) if ref.size else 0.0, _SCALE_FLOOR)
    max_rel = max_abs / scale
    passed = max_abs <= _SCALE_FLOOR or max_rel <= tolerance
    location = None
    if not passed:
        location = tuple(int(i) for i in np.unravel_index(int(np.argmax(diff)), diff.shape))
    return OracleReport(
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        tolerance=float(tolerance),
        passed=passed,
        mismatch_location=location,
        shape=ref.shape,
    )


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product, ascending k, float64 Python scalars.

    This is the order the production matmul promises to reproduce bit for
    bit (for float64 operands).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ContractViolation(f"naive_matmul shape mismatch: {a.shape} @ {b.shape}")
    n, inner = a.shape
    m = b.shape[1]
    for dim in (n, inner, m):
        _cap(dim, "naive_matmul")
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            s = 0.0
            for k in range(inner):
                s += float(a[i, k]) * float(b[k, j])
            out[i, j] = s
    return out


def naive_focused_row(row: np.ndarray, gamma: float) -> np.ndarray:
    """Focused map of one row: relu^gamma renormalized to the relu norm.

    A per-element Python loop in float64, in the order the production map
    promises (so in float64 the two agree bit for bit): relu keeping NaN;
    gamma = 1 returns relu.  Otherwise peak is the row max (NaN if the row
    holds one) and peak == 0 gives the zero row.  Each entry becomes
    ``x = r / peak`` and each nonzero x becomes ``_pow01(x, gamma)``;
    n1 = peak * sqrt of the ascending sum of x^2, ng = sqrt of that of the
    powers, and every power is multiplied by n1 / ng.  A NaN n1 (a NaN or
    inf peak) makes every entry NaN.  Sharing that order makes it no
    independent check of the formula; the tests also compare both with the
    textbook form ``r**gamma * (||r|| / ||r**gamma||)`` of numpy's own
    power, which has no max rescale.
    """
    r = [x if x > 0.0 or x != x else 0.0 for x in map(float, row)]
    g = float(gamma)
    if g == 1.0:
        return np.array(r, dtype=np.float64)
    peak = 0.0
    for x in r:
        if x > peak or x != x:
            peak = x
    if peak == 0.0:
        return np.zeros(len(r), dtype=np.float64)
    xs = [x / peak for x in r]
    n1 = peak * math.sqrt(_sum_of_squares(xs))
    if n1 != n1:  # a NaN or inf peak: every entry is NaN, as IEEE's n1 / ng makes it
        return np.full(len(r), math.nan)
    t = [_pow01(x, g) if x != 0.0 else 0.0 for x in xs]
    scale = n1 / math.sqrt(_sum_of_squares(t))
    return np.array([x * scale for x in t], dtype=np.float64)


def _sum_of_squares(values) -> float:
    s = 0.0
    for x in values:
        s += x * x
    return s


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & _MASK64))[0]


_MASK64 = (1 << 64) - 1
_T = _pow_tables
_INVC, _LOGC, _LOGCTAIL, _TAIL, _LOG_POLY = (
    [float.fromhex(v) for v in getattr(_T, k).split()]
    for k in ("LOG_INVC", "LOG_LOGC", "LOG_LOGCTAIL", "EXP_TAIL", "LOG_POLY"))
_SBITS = [int(v, 16) for v in _T.EXP_SBITS.split()]
_LN2HI, _LN2LO, _INVLN2N, _NEGLN2HIN, _NEGLN2LON = (
    float.fromhex(getattr(_T, k)) for k in ("LN2HI", "LN2LO", "INVLN2N", "NEGLN2HIN", "NEGLN2LON"))
_E2, _E3, _E4, _E5, _E6 = (float.fromhex(v) for v in _T.EXP_POLY.split())
_SHIFT = 1.5 * 2.0**52


def _pow01(x: float, g: float) -> float:
    """x**g for x in (0, 1] and g in (0, 16]: the library's own pow, one
    scalar operation at a time on Python floats and ints, in the order of
    ``numerics._POW_KERNEL`` (which describes the method)."""
    ix = _bits(x * 2.0**52)
    u = (ix - _T.LOG_OFF + (1024 << 52)) & _MASK64
    i = (u >> 45) & 127
    z = _double(ix - (u & (0xFFF << 52)) + (1024 << 52))
    kd = _double(0x4338000000000000 + (u >> 52)) - (_SHIFT + 1076)
    zhi = _double((_bits(z) + (1 << 31)) & 0xFFFFFFFF00000000)
    rhi = zhi * _INVC[i] - 1.0
    rlo = (z - zhi) * _INVC[i]
    r = rhi + rlo
    t1 = kd * _LN2HI + _LOGC[i]
    t2 = t1 + r
    lo1 = kd * _LN2LO + _LOGCTAIL[i]
    lo2 = t1 - t2 + r
    arhi2 = rhi * (-0.5 * rhi)
    hi = t2 + arhi2
    lo3 = rlo * (-0.5 * r + -0.5 * rhi)
    lo4 = t2 - hi + arhi2
    poly = _LOG_POLY[-1]
    for c in reversed(_LOG_POLY[:-1]):
        poly = c + r * poly
    lo = lo1 + lo2 + lo3 + lo4 + r * r * r * poly
    lh = hi + lo
    ll = hi - lh + lo
    # g * (lh + ll) = e0 + elo, with g * lh exact by Dekker's product
    split = 134217729.0
    gh = g * split - (g * split - g)
    gl = g - gh
    hh = lh * split - (lh * split - lh)
    hl = lh - hh
    e0 = g * lh
    elo = gh * hh - e0 + gh * hl + gl * hh + gl * hl + g * ll
    # clamp e0 to >= -746 by a signed 32-bit min on its flipped top word
    top = (_bits(e0) >> 32) ^ 0x80000000
    top = min(top - (1 << 32) if top >= 1 << 31 else top, 0x40875000)
    ehi = _double((((top & 0xFFFFFFFF) ^ 0x80000000) << 32) | (_bits(e0) & 0xFFFFFFFF))
    kr = _INVLN2N * ehi + _SHIFT
    ki = _bits(kr)
    k2 = kr - _SHIFT
    er = ehi + k2 * _NEGLN2HIN + k2 * _NEGLN2LON + elo
    j = ki & 127
    s = _double(_SBITS[j] + (ki << 45) + (1022 << 52))
    r2 = er * er
    tmp = _TAIL[j] + er + r2 * (_E2 + er * _E3) + r2 * r2 * (_E4 + er * (_E5 + er * _E6))
    y = s + s * tmp
    lo5 = s - y + s * tmp
    one = 1.0 if y < 1.0 else 0.0
    h1 = one + y
    l1 = one - h1 + y + lo5
    return (h1 + l1 - one) * 2.0**-1022


def explicit_routes(tokens: np.ndarray, router: Router) -> np.ndarray:
    """Per-token argmax routing via Python max (first maximal index on ties)."""
    w = np.asarray(router.weights, dtype=np.float64)
    idx = np.empty(tokens.shape[0], dtype=np.int64)
    for i in range(tokens.shape[0]):
        logits = [float(np.dot(np.asarray(tokens[i], dtype=np.float64), w[:, c]))
                  for c in range(w.shape[1])]
        idx[i] = max(range(len(logits)), key=lambda c: (logits[c], -c))
    return idx


def _phi(z: np.ndarray, kernel: str, gamma) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if kernel == "relu":
        return np.maximum(z, 0.0)
    rows = [naive_focused_row(z[i], gamma) for i in range(z.shape[0])]
    return np.stack(rows) if rows else np.zeros_like(z)


def _explicit_map(q, k, v, normalize: bool) -> np.ndarray:
    """``q k^T v`` row by row in float64: each ``s = q_i . k_j``, over ascending j, adds
    into ``den`` and ``num += s * v_j``; under ``normalize`` the row is num / floored den."""
    out = np.zeros((q.shape[0], v.shape[1]), dtype=np.float64)
    for i in range(q.shape[0]):
        den = 0.0
        num = np.zeros(v.shape[1], dtype=np.float64)
        for j in range(k.shape[0]):
            s = float(np.dot(q[i], k[j]))
            den += s
            num += s * v[j]
        out[i] = num / _floored(den) if normalize else num
    return out


def _floored(den: float) -> float:
    """The normalizing denominator with |den| floored, its sign kept (+ for 0)."""
    if abs(den) < _DENOM_FLOOR:
        return _DENOM_FLOOR if den >= 0 else -_DENOM_FLOOR
    return den


def explicit_linear_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, kernel: str = "relu", gamma=None
) -> np.ndarray:
    """Linear attention through the explicit n x n kernel similarity map."""
    _cap(q.shape[0], "explicit_linear_attention")
    _cap(k.shape[0], "explicit_linear_attention")
    return _explicit_map(_phi(q, kernel, gamma), _phi(k, kernel, gamma),
                         np.asarray(v, dtype=np.float64), True)


def explicit_tdo(
    q_t, q_routed, k_t, k_routed, v, lambda_q, lambda_k, normalize: bool = False
) -> np.ndarray:
    """Token-wise differential attention through the explicit n x n map."""
    # C order: np.dot sums a strided differenced row in another order
    q_t, q_routed, k_t, k_routed, v, lam_q, lam_k = (
        np.asarray(m, dtype=np.float64, order="C")
        for m in (q_t, q_routed, k_t, k_routed, v, lambda_q, lambda_k)
    )
    _cap(q_t.shape[0], "explicit_tdo")
    _cap(k_t.shape[0], "explicit_tdo")
    return _explicit_map(q_t - lam_q[:, None] * q_routed, k_t - lam_k[:, None] * k_routed, v,
                         normalize)


def explicit_mapwise(
    q_t, q_routed, k_t, k_routed, v, lambda_map, normalize: bool = False
) -> np.ndarray:
    """Map-wise differential attention through two explicit n x n maps,
    each divided by its own floored row sum when ``normalize`` is set."""
    q_t, q_routed, k_t, k_routed, v, lam = (
        np.asarray(m, dtype=np.float64)
        for m in (q_t, q_routed, k_t, k_routed, v, lambda_map)
    )
    _cap(q_t.shape[0], "explicit_mapwise")
    _cap(k_t.shape[0], "explicit_mapwise")
    return (_explicit_map(q_t, k_t, v, normalize)
            - lam[:, None] * _explicit_map(q_routed, k_routed, v, normalize))


def explicit_dwc(v, grid, kernels, identity_branch: bool) -> np.ndarray:
    """Depthwise 3x3 cross-correlation with explicit Python loops and zero pad."""
    v = np.asarray(v, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    h, w = grid
    n, d = v.shape
    _cap(n, "explicit_dwc")
    if h * w != n:
        raise ContractViolation(f"grid {h}x{w} does not tile {n} tokens")
    img = v.reshape(h, w, d)
    out = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            for c in range(d):
                s = 0.0
                for di in range(3):
                    for dj in range(3):
                        yy, xx = y + di - 1, x + dj - 1
                        if 0 <= yy < h and 0 <= xx < w:
                            s += float(img[yy, xx, c]) * float(kernels[c, di, dj])
                if identity_branch:
                    s += float(img[y, x, c])
                out[y, x, c] = s
    return out.reshape(n, d)


def per_token_projection(x: np.ndarray, bank) -> tuple:
    """Per-token oracle of the dynamic projection: route then project each row.

    Returns (q, k, v, q_routed, k_routed, idx_q, idx_k), all float64.
    """
    x64 = np.asarray(x, dtype=np.float64)
    n, d = x64.shape
    _cap(n, "per_token_projection")
    idx_q = explicit_routes(x64, bank.router_q)
    idx_k = explicit_routes(x64, bank.router_k)
    q, k, v = (naive_matmul(x64, np.asarray(w, dtype=np.float64))
               for w in (bank.w_q0, bank.w_k0, bank.w_v0))
    w_q, w_k = ([np.asarray(w, dtype=np.float64) for w in ws] for ws in (bank.w_q, bank.w_k))
    qr = np.zeros((n, d)); kr = np.zeros((n, d))
    for i in range(n):
        row = x64[i : i + 1]
        qr[i] = naive_matmul(row, w_q[idx_q[i]])[0]
        kr[i] = naive_matmul(row, w_k[idx_k[i]])[0]
    return q, k, v, qr, kr, idx_q, idx_k


def per_token_kernel(z: np.ndarray, bank) -> tuple:
    """Per-token oracle of the routed focused kernel; returns (out, idx)."""
    z64 = np.asarray(z, dtype=np.float64)
    _cap(z64.shape[0], "per_token_kernel")
    idx = explicit_routes(z64, bank.router)
    out = np.zeros_like(z64)
    for i in range(z64.shape[0]):
        out[i] = naive_focused_row(z64[i], bank.gammas[idx[i]])
    return out, idx


def per_token_lambdas(pairs: np.ndarray, router: Router, lambdas) -> np.ndarray:
    """Per-token oracle of lambda routing on concatenated stream rows."""
    pairs64 = np.asarray(pairs, dtype=np.float64)
    _cap(pairs64.shape[0], "per_token_lambdas")
    idx = explicit_routes(pairs64, router)
    return np.array([float(lambdas[i]) for i in idx], dtype=np.float64)


def pipeline_oracle(x: np.ndarray, params) -> np.ndarray:
    """Composed stage-by-stage oracle of one full attention block.

    Chains the per-token projection, kernel and lambda oracles into the
    explicit differential map (token- or map-wise, honoring normalize),
    concatenates heads, and adds the looped depthwise convolution.  Always
    float64.
    """
    x64 = np.asarray(x, dtype=np.float64)
    n = x64.shape[0]
    _cap(n, "pipeline_oracle")
    q, k, v, qr, kr, _, _ = per_token_projection(x, params.proj)
    d_h = params.head_dim
    pieces = []
    for h_idx, hp in enumerate(params.head_params):
        sl = slice(h_idx * d_h, (h_idx + 1) * d_h)
        q_t, _ = per_token_kernel(q[:, sl], hp.kernel_q)
        k_t, _ = per_token_kernel(k[:, sl], hp.kernel_k)
        qp_t, _ = per_token_kernel(qr[:, sl], hp.kernel_qp)
        kp_t, _ = per_token_kernel(kr[:, sl], hp.kernel_kp)
        v_h = v[:, sl]
        if params.variant == "token-wise":
            lam_q = per_token_lambdas(np.hstack((q_t, qp_t)), hp.diff.router_q, hp.diff.lambdas)
            lam_k = per_token_lambdas(np.hstack((k_t, kp_t)), hp.diff.router_k, hp.diff.lambdas)
            pieces.append(
                explicit_tdo(q_t, qp_t, k_t, kp_t, v_h, lam_q, lam_k, normalize=params.normalize)
            )
        else:
            lam_map = per_token_lambdas(
                np.hstack((q_t, qp_t)), hp.diff.lambda_map_router, hp.diff.lambdas
            )
            pieces.append(
                explicit_mapwise(q_t, qp_t, k_t, kp_t, v_h, lam_map, normalize=params.normalize)
            )
    out = np.hstack(pieces)
    dwc = params.dwc
    if dwc is not None:
        out = out + explicit_dwc(v, params.grid, dwc.merged if dwc.use_merged else dwc.kernels,
                                 identity_branch=dwc.identity_branch and not dwc.use_merged)
    return out
