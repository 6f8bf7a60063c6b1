"""Deterministic dense numerics substrate.

Every routine here fixes not just *what* is computed but the floating-point
evaluation order, so that repeated runs (and independently written oracles
that follow the same order) agree bit for bit.  The one that matters most is
:func:`matmul`: ``out[i, j]`` is accumulated strictly in ascending ``k``,
which is what a naive triple loop does and what vendor BLAS does not.

The focused feature map behind ``dydila.kernels`` (:func:`_focused_map`) has
such an order too: per row, relu, row max, divide by it, the library's own
``pow`` (table-driven, fixed-order IEEE arithmetic, no libm), ascending sums
of squares of the scaled row and of its powers, ``sqrt``, rescale.  So does
the depthwise 3x3 convolution behind ``attention.dwc_forward``
(:func:`_dwc`): per element, the nine taps in ascending (row, col) order
from +0, then the identity branch.

Matrices are plain ``numpy.ndarray`` in float32 or float64.  Mixing the two
in one call is an error rather than a silent promotion.

All three run small C kernels whose source lives in this module, so the
module that owns the order contracts also owns the code that keeps them.
The kernels are compiled for the host that runs them, into one shared
object at the first call of any (never at import), with ``cc -O3
-march=native -ffp-contract=off`` (no FMA contraction), and cached under
``${XDG_CACHE_HOME:-~/.cache}/dydila``, keyed by the source, the flags and
the macros they predefine.  When no compiler is present or the build or
load fails, one ``RuntimeWarning`` is issued and all use numpy loops with
the same per-element order; those loops are also the in-process references
the tests compare the kernels with.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import _pow_tables

__all__ = [
    "ContractViolation",
    "ConfigError",
    "PRECISIONS",
    "resolve_dtype",
    "require_finite",
    "matmul",
    "matmul_backend",
    "relu",
    "row_l2_norm",
    "softmax_rows",
    "SeededRng",
]


class ContractViolation(ValueError):
    """An operand violated a shape/dtype/domain precondition."""


class ConfigError(ValueError):
    """A configuration value is out of range or inconsistent."""


PRECISIONS = {"f32": np.float32, "f64": np.float64}
_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

# Row-block sizing for the numpy fallbacks of matmul and the DWC: target
# ~512 KiB per block (matmul's multiply buffer is then a quarter of a 256-row
# f32 softmax map block at n=2048), and keep matmul's blocks small enough that
# strided column reads of the left operand stay cache-resident once the inner
# dimension gets long.  The compiled kernels ignore these.
_BLOCK_BYTES = 1 << 19
_STRIDED_INNER_LIMIT = 2048
_STRIDED_BLOCK_CAP = 256

# Block sizes of the compiled matmul, in elements: MR-row register tiles,
# KC inner indices, MC rows and NC columns per block (see _MATMUL_KERNEL).
_MATMUL_BLOCKS = {"MR": 8, "KC": 256, "MC": 256, "NC": 512}

# The compiled matmul kernel, one copy per element type, blocked as in Goto &
# van de Geijn (2008); the block sizes are _MATMUL_BLOCKS, in elements.  The
# loops run over blocks of NC output columns, then blocks of KC inner
# indices, then blocks of MC output rows.  Each (KC, NC) block of b is packed
# into strips of KC x NR, laid out in the order the tile reads it and padded
# with zeros at the matrix edge.  a is never copied: a tile reads its MR rows
# of a in place.  Both are read through their element strides, so transposed
# and strided views (k.T on either side) need no copy.  Within a row block
# the loop over b strips is the outer one: a b strip (32 KiB) stays in L1
# while every group of MR rows of the block passes it.  Each group and strip
# make one MR x NR tile of out, NR being two 64-byte vectors (8 x 16 f64,
# 8 x 32 f32), accumulated in registers.  Tiles that stick out of out run in
# a local copy, so out is written only inside the matrix; a group of fewer
# than MR rows reads its last row again in place of the rows it lacks, and
# those sums stay in the copy.  Out's rows are so0 elements apart (m for a
# fresh product, the full width for a column slice of a wider array) and its
# columns are contiguous.  The tile is written with GCC vector types of the
# widest unit the build targets: 64 bytes with AVX-512, whose 32 registers
# hold all 16 accumulators; 32 bytes with AVX2, whose 16 registers hold one
# vector per row, so the tile runs as four column passes; 16 bytes elsewhere
# (SSE2, NEON), in four passes of two.  The packing buffer is static and
# thread-local (ctypes releases the GIL while a kernel runs), so a call
# allocates nothing.
#
# A narrow product (m <= NR: routing logits, the normalizer's one column)
# has one b strip.  It is packed for as many k as packed_b holds
# (KC * NC / NR), and, as m < NR leaves the tile sticking out of out, the
# tile runs through the edge copy with column passes that stop at m.  A
# product with fewer than MR rows (the normalizer's column sums ones @ k, a
# single query row) runs all of its tiles through the edge copy.
#
# The order is the triple loop's.  The first k block starts every tile from
# +0, never from its first product, unless acc is set: then it starts from
# out, so a second call resumes the sums of a first one (pair routing).
# Each k block adds a[i, k] * b[k, j] in ascending k, every product rounded
# before the add (-ffp-contract=off), and stores the tile to out as $T; the
# next k block loads it back and goes on.  The accumulator is $T too, so
# the store and the reload round nothing, and out[i, j] sees exactly the
# sums of one ascending loop over k.  Blocking over rows and columns only
# changes which elements are computed together.
_MATMUL_KERNEL = r"""
enum { NR_$T = 2 * 64 / sizeof($T) };

/* One MR x NR tile: c = (first ? +0 : c) + a @ bp over kc inner indices, in
   column passes of P vectors of V bytes per row that stop at nc.  Row r of a
   is read at a + min(r, mr - 1) * s0, k * sk apart.  GCC unrolls the row
   loops only when told to, and otherwise keeps the accumulators in
   memory. */
#define TILE(V, P)                                                             \
static inline __attribute__((always_inline)) void                              \
tile_$T(ptrdiff_t kc, const $T *a, ptrdiff_t s0, ptrdiff_t sk, ptrdiff_t mr,   \
        const $T *restrict bp, $T *restrict c, ptrdiff_t ldc, ptrdiff_t nc,    \
        int first)                                                             \
{                                                                              \
    typedef $T vec __attribute__((vector_size(V)));                            \
    enum { W = V / sizeof($T), NR = NR_$T };                                   \
    for (ptrdiff_t h = 0; h < nc; h += P * W) {                                \
        vec acc[MR][P];                                                        \
        _Pragma("GCC unroll 8") for (int r = 0; r < MR; r++)                   \
            for (int s = 0; s < P; s++) {                                      \
                acc[r][s] = (vec){0};                                          \
                if (!first)                                                    \
                    __builtin_memcpy(&acc[r][s], c + r * ldc + h + s * W, V);  \
            }                                                                  \
        for (ptrdiff_t k = 0; k < kc; k++) {                                   \
            const $T *bk = bp + k * NR + h;                                    \
            _Pragma("GCC unroll 8") for (int r = 0; r < MR; r++) {             \
                const $T x = a[(r < mr ? r : mr - 1) * s0 + k * sk];           \
                for (int s = 0; s < P; s++)                                    \
                    acc[r][s] = acc[r][s] + x * *(const vec *)(bk + s * W);    \
            }                                                                  \
        }                                                                      \
        _Pragma("GCC unroll 8") for (int r = 0; r < MR; r++)                   \
            for (int s = 0; s < P; s++)                                        \
                __builtin_memcpy(c + r * ldc + h + s * W, &acc[r][s], V);      \
    }                                                                          \
}
#if defined(__AVX512F__)
TILE(64, 2)
#elif defined(__AVX2__)
TILE(32, 1)
#else
TILE(16, 2)
#endif
#undef TILE

void matmul_$T(const $T *restrict a, ptrdiff_t sa0, ptrdiff_t sa1,
               const $T *restrict b, ptrdiff_t sb0, ptrdiff_t sb1,
               $T *restrict out, ptrdiff_t so0, ptrdiff_t n, ptrdiff_t inner, ptrdiff_t m,
               int acc)
{
    enum { NR = NR_$T };
    $T *const bpack = ($T *)&packed_b;
    $T edge[MR * NR] __attribute__((aligned(64))) = {0};
    /* A narrow product packs as much of b as packed_b holds. */
    const ptrdiff_t kb = m > NR ? KC : KC * NC / NR;
    for (ptrdiff_t jc = 0; jc < m; jc += NC) {
        const ptrdiff_t nc = m - jc < NC ? m - jc : NC;
        for (ptrdiff_t pc = 0; pc < inner; pc += kb) {
            const ptrdiff_t kc = inner - pc < kb ? inner - pc : kb;
            const int first = pc == 0 && !acc;
            for (ptrdiff_t jr = 0; jr < nc; jr += NR) {
                const ptrdiff_t nr = nc - jr < NR ? nc - jr : NR;
                const $T *src = b + pc * sb0 + (jc + jr) * sb1;
                $T *dst = bpack + jr * kc;
                for (ptrdiff_t k = 0; k < kc; k++)
                    for (ptrdiff_t j = 0; j < NR; j++)
                        dst[k * NR + j] = j < nr ? src[k * sb0 + j * sb1] : 0;
            }
            for (ptrdiff_t ic = 0; ic < n; ic += MC) {
                const ptrdiff_t mc = n - ic < MC ? n - ic : MC;
                for (ptrdiff_t jr = 0; jr < nc; jr += NR) {
                    const ptrdiff_t nr = nc - jr < NR ? nc - jr : NR;
                    for (ptrdiff_t ir = 0; ir < mc; ir += MR) {
                        const ptrdiff_t mr = mc - ir < MR ? mc - ir : MR;
                        const $T *ai = a + (ic + ir) * sa0 + pc * sa1;
                        $T *c = out + (ic + ir) * so0 + jc + jr;
                        if (mr == MR && nr == NR) {
                            tile_$T(kc, ai, sa0, sa1, MR, bpack + jr * kc, c, so0, NR, first);
                            continue;
                        }
                        /* column by column: GCC turns a row copy into rep movsq,
                           whose start-up outweighs a narrow product's tile */
                        for (ptrdiff_t j = 0; j < nr; j++)
                            for (ptrdiff_t r = 0; r < mr; r++)
                                edge[r * NR + j] = c[r * so0 + j];
                        tile_$T(kc, ai, sa0, sa1, mr, bpack + jr * kc, edge, NR, nr, first);
                        for (ptrdiff_t j = 0; j < nr; j++)
                            for (ptrdiff_t r = 0; r < mr; r++)
                                c[r * so0 + j] = edge[r * NR + j];
                    }
                }
            }
        }
    }
}
"""

# The owned pow, pow01(x, g) = x^g for x in (0, 1] (subnormals included) and
# g in (0, 16], as IEEE + - * / on doubles in the fixed order written here;
# no libm call, no FMA (-ffp-contract=off), no branch.  _pow01_numpy mirrors
# it operation for operation, and oracle._pow01 transcribes it again in
# scalar Python.  The tables and constants come from _pow_tables, generated
# by scripts/pow_tables.py, whose docstring gives their properties.  The
# method is that of the glibc 2.28 / Arm optimized-routines pow without FMA,
# after Tang's table-driven log (1990) and exp (1989):
#   1. x * 2^52 is exact and normal, so its bits give x = 2^k z with z in
#      [OFF, 2 OFF) and the table index i, subnormals included; k goes
#      from its integer bits to a double by the 2^52 bias trick;
#   2. log x = k ln2 + log c + log1p(r), r = z invc - 1 exact, as a
#      double-double hi + lo (Taylor series to r^9);
#   3. g * (hi + lo) = ehi + elo, g * hi split exactly by Dekker's product
#      over Veltkamp splits;
#   4. ehi is clamped to >= -746 (every result below that is 0) by an
#      integer min on its top word, then exp(ehi + elo) = 2^(k/128)
#      exp(r), with the scale built 2^1022 too large so that it is normal
#      for every k; a result below 2^-1022 is rounded once, at 2^-52
#      relative to 1, before the exact scaling back.
# The function has no select on its input, its table indices are uint64_t
# and its clamp is an integer min on 32-bit words, so GCC vectorises a loop
# of pow01 at every width, 16-byte units included; the table reads stay
# scalar loads (the generic tuning emits no gather instruction, and gathers
# were slower on the AVX-512 host measured).  pow01(1, g) is exactly 1;
# subnormal results are rounded once and results below 2^-1075 are +0.
# Over 1e6 samples the result is within 1 ulp of glibc's pow and within
# 0.51 ulp of the exact value (README, scripts/pow_accuracy.py).
_POW_KERNEL = r"""
static inline uint64_t bits_of(double x) { uint64_t u; __builtin_memcpy(&u, &x, 8); return u; }
static inline double double_of(uint64_t u) { double x; __builtin_memcpy(&x, &u, 8); return x; }

static inline double pow01(double x, double g)
{
    const uint64_t ix = bits_of(x * 0x1p52);
    const uint64_t u = ix - POW_OFF + (1024ull << 52);
    const uint64_t i = u >> 45 & 127;
    const double z = double_of(ix - (u & 0xfffull << 52) + (1024ull << 52));
    const double kd = double_of(0x4338000000000000ull + (u >> 52)) - POW_KBIAS;
    const double invc = POW_INVC[i];
    const double zhi = double_of((bits_of(z) + (1ull << 31)) & 0xffffffff00000000ull);
    const double rhi = zhi * invc - 1.0;
    const double rlo = (z - zhi) * invc;
    const double r = rhi + rlo;
    const double t1 = kd * POW_LN2HI + POW_LOGC[i];
    const double t2 = t1 + r;
    const double lo1 = kd * POW_LN2LO + POW_LOGCTAIL[i];
    const double lo2 = t1 - t2 + r;
    const double arhi2 = rhi * (-0.5 * rhi);
    const double hi = t2 + arhi2;
    const double lo3 = rlo * (-0.5 * r + -0.5 * rhi);
    const double lo4 = t2 - hi + arhi2;
    const double p = r * r * r * POW_LOG_POLY;
    const double lo = lo1 + lo2 + lo3 + lo4 + p;
    const double lh = hi + lo;
    const double ll = hi - lh + lo;
    const double cg = g * POW_SPLIT, gh = cg - (cg - g), gl = g - gh;
    const double cl = lh * POW_SPLIT, hh = cl - (cl - lh), hl = lh - hh;
    const double e0 = g * lh;
    const double elo = gh * hh - e0 + gh * hl + gl * hh + gl * hl + g * ll;
    int32_t top = (int32_t)((uint32_t)(bits_of(e0) >> 32) ^ 0x80000000u);
    top = top < POW_CLAMP ? top : POW_CLAMP;
    const double ehi = double_of((uint64_t)((uint32_t)top ^ 0x80000000u) << 32
                                 | (bits_of(e0) & 0xffffffffull));
    const double kr = POW_INVLN2N * ehi + 0x1.8p52;
    const uint64_t ki = bits_of(kr);
    const double k2 = kr - 0x1.8p52;
    const double er = ehi + k2 * POW_NEGLN2HIN + k2 * POW_NEGLN2LON + elo;
    const uint64_t j = ki & 127;
    const double s = double_of(POW_SBITS[j] + (ki << 45) + (1022ull << 52));
    const double r2 = er * er;
    const double tmp = POW_TAIL[j] + er + r2 * (POW_E2 + er * POW_E3)
                       + r2 * r2 * (POW_E4 + er * (POW_E5 + er * POW_E6));
    const double y = s + s * tmp;
    const double lo5 = s - y + s * tmp;
    const double one = y < 1.0 ? 1.0 : 0.0;
    const double h1 = one + y;
    const double l1 = one - h1 + y + lo5;
    return (h1 + l1 - one) * 0x1p-1022;
}
"""

# The compiled focused map, one copy per element type; _focused_numpy is its
# reference.  Rows run one at a time.  One pass over the row forms relu (NaN
# kept, -0 made +0, as np.maximum does), the row max peak (NaN if the row
# holds one, as np.max), in $T, and packs the nonzero relu entries with their
# columns into a list without a branch (k += r != 0).  A row whose gamma is 1
# keeps relu, and a row whose peak is 0 is all +0 already.  Otherwise the
# list is padded to a multiple of POW_PAD with peak; one vectorised pass over
# it forms x = r / peak in $T and t = pow01(x, gamma) rounded to $T, and a
# second one sets t = +0 where x underflowed to 0 (a select inside the first
# would stop GCC vectorising it on AVX2 and 16-byte units).  Then the row's
# sums of x^2 and t^2 in ascending list order from +0 ($T): the sums over the
# whole row, since the skipped entries are +0.
# n1 = peak * sqrt(sum x^2) and ng = sqrt(sum t^2), so a row of tiny
# entries gets no subnormal squares; every listed entry becomes
# t * (n1 / ng) and every other +0 * (n1 / ng), which is the +0 relu left
# there unless n1 / ng is NaN.  Dividing by peak keeps x and t in [0, 1], so
# no gamma overflows f32, and a NaN or inf peak makes the whole row NaN
# through n1.  z is read and out written through their element strides, so
# a head slice needs no copy and can be mapped in place: out may be z
# itself (hence no restrict on either), since each entry is read before it
# is written and never read again.  work holds one row of x, t and columns.
_FOCUSED_KERNEL = r"""
/* x = x / p and t = pow01(x, g) over a padded list of kp, then t = +0 where
   x is 0 among the first k; restrict parameters spare GCC an alias check. */
static inline void pow_list_$T($T *restrict x, $T *restrict t, $T p, double g,
                               ptrdiff_t k, ptrdiff_t kp)
{
    for (ptrdiff_t s = 0; s < kp; s++) {
        const $T v = x[s] / p;
        x[s] = v;
        t[s] = ($T)pow01((double)v, g);
    }
    for (ptrdiff_t s = 0; s < k; s++)
        t[s] = x[s] != 0 ? t[s] : 0;
}

void focused_$T(const $T *z, ptrdiff_t sz0, ptrdiff_t sz1,
                const double *restrict gamma, $T *out, ptrdiff_t so0, ptrdiff_t so1,
                ptrdiff_t n, ptrdiff_t d, void *restrict work)
{
    const ptrdiff_t dp = (d + POW_PAD - 1) / POW_PAD * POW_PAD;
    $T *const x = ($T *)work, *const t = x + dp;
    ptrdiff_t *const cols = (ptrdiff_t *)(t + dp);
    for (ptrdiff_t i = 0; i < n; i++) {
        const $T *zi = z + i * sz0;
        $T *o = out + i * so0, peak = 0;
        ptrdiff_t k = 0;
        for (ptrdiff_t j = 0; j < d; j++) {
            const $T v = zi[j * sz1];
            $T q = v > 0 ? v : 0;
            if (v != v)
                q = peak = v;
            o[j * so1] = q;
            peak = q > peak ? q : peak;
            x[k] = q;
            cols[k] = j;
            k += q != 0;
        }
        const double g = gamma[i];
        if (g == 1 || peak == 0)
            continue;
        const ptrdiff_t kp = (k + POW_PAD - 1) / POW_PAD * POW_PAD;
        for (ptrdiff_t s = k; s < kp; s++)
            x[s] = peak;
        pow_list_$T(x, t, peak, g, k, kp);
        $T sx = 0, st = 0;
        for (ptrdiff_t s = 0; s < k; s++) {
            sx = sx + x[s] * x[s];
            st = st + t[s] * t[s];
        }
        const $T scale = peak * ($T)sqrt(sx) / ($T)sqrt(st), zero = 0 * scale;
        if (zero != zero)  /* off the list, o holds relu's +0 */
            for (ptrdiff_t j = 0; j < d; j++)
                o[j * so1] = zero;
        for (ptrdiff_t s = 0; s < k; s++)
            o[cols[s] * so1] = t[s] * scale;
    }
}

/* pow01 over an array, rounded to $T: the owned pow on its own, for the
   tests and the accuracy measurement. */
void pow01_$T(const $T *restrict x, const double *restrict g, $T *restrict out, ptrdiff_t n)
{
    for (ptrdiff_t s = 0; s < n; s++)
        out[s] = ($T)pow01((double)x[s], g[s]);
}
"""
# The compiled DWC, one copy per element type; _dwc_numpy is its reference.
# Each output element is one sum in $T: from +0, the nine taps in ascending
# (row, col) order, each product rounded before the add.  A tap outside the
# grid reads zero, a row of d +0s from the caller, so it adds +0 * weight,
# as the numpy loop's zero padding does, and an inf or NaN weight makes the
# border NaN on both backends.  The identity branch, if on, is added last.
# v is read through its row stride with unit channel stride; k is the (9, d)
# tap-major weight matrix; out is C-contiguous.  The channel loop
# vectorises.
_DWC_KERNEL = r"""
void dwc_$T(const $T *restrict v, ptrdiff_t sv0, const $T *restrict k,
            const $T *restrict zero, $T *restrict out, ptrdiff_t h, ptrdiff_t w,
            ptrdiff_t d, int identity)
{
    for (ptrdiff_t y = 0; y < h; y++)
        for (ptrdiff_t x = 0; x < w; x++) {
            const $T *p[9];
            for (int t = 0; t < 9; t++) {
                const ptrdiff_t yy = y + t / 3 - 1, xx = x + t % 3 - 1;
                const int inside = 0 <= yy && yy < h && 0 <= xx && xx < w;
                p[t] = inside ? v + (yy * w + xx) * sv0 : zero;
            }
            $T *o = out + (y * w + x) * d;
            for (ptrdiff_t c = 0; c < d; c++) {
                $T s = 0;
                for (int t = 0; t < 9; t++)
                    s = s + p[t][c] * k[t * d + c];
                o[c] = s;
            }
            if (identity)
                for (ptrdiff_t c = 0; c < d; c++)
                    o[c] = o[c] + p[4][c];
        }
}
"""
_C_TYPES = {np.dtype(np.float64): "double", np.dtype(np.float32): "float"}
# Argument types of each kernel, bound for every entry of _C_TYPES.
_P, _S = ctypes.c_void_p, ctypes.c_ssize_t
_I = ctypes.c_int
_C_SIGNATURES = {"matmul": (_P, _S, _S, _P, _S, _S, _P, _S, _S, _S, _S, _I),
                 "focused": (_P, _S, _S, _P, _P, _S, _S, _S, _S, _P),
                 "pow01": (_P, _P, _P, _S),
                 "dwc": (_P, _S, _P, _P, _P, _S, _S, _S, _I)}
_C_PRELUDE = r"""#include <math.h>
#include <stddef.h>
#include <stdint.h>
$BLOCKS
/* The packing buffer for one (KC, NC) block of b. */
static _Thread_local union { double d[KC * NC]; float f[KC * NC]; }
    packed_b __attribute__((aligned(64)));
"""
_SHIFT = 1.5 * 2.0**52  # x + _SHIFT rounds x to an integer held in the low bits
_POW_PAD = 8  # the focused map's pow lists are padded to a multiple of this
_FOCUSED_NUMPY_ENTRIES = 1 << 14  # entries per row block of the focused map's numpy fallback
_C_BLOCKS = "enum { %s };" % ", ".join(
    f"{k} = {v}" for k, v in {**_MATMUL_BLOCKS, "POW_PAD": _POW_PAD}.items())


def _c_pow_constants() -> str:
    """The C definitions of _POW_KERNEL's tables and constants."""
    t = _pow_tables
    log_poly = t.LOG_POLY.split()
    horner = ")" * (len(log_poly) - 1)
    defs = {"POW_OFF": f"0x{t.LOG_OFF:016x}ull", "POW_KBIAS": (_SHIFT + 1076).hex(),
            "POW_SPLIT": float(2**27 + 1).hex(), "POW_CLAMP": "0x40875000",
            "POW_LOG_POLY": "(" + " + r * (".join(log_poly) + horner + ")",
            **{f"POW_{k}": getattr(t, k)
               for k in ("LN2HI", "LN2LO", "INVLN2N", "NEGLN2HIN", "NEGLN2LON")},
            **{f"POW_E{n}": c for n, c in enumerate(t.EXP_POLY.split(), 2)}}
    tables = {"POW_INVC": t.LOG_INVC, "POW_LOGC": t.LOG_LOGC, "POW_LOGCTAIL": t.LOG_LOGCTAIL,
              "POW_TAIL": t.EXP_TAIL}
    sbits = [f"{v}ull" for v in t.EXP_SBITS.split()]
    return ("".join(f"#define {k} {v}\n" for k, v in defs.items())
            + "".join(f"static const double {k}[{len(v.split())}] = {{{', '.join(v.split())}}};\n"
                      for k, v in tables.items())
            + f"static const uint64_t POW_SBITS[{len(sbits)}] = {{{', '.join(sbits)}}};\n")


_C_SOURCE = (_C_PRELUDE.replace("$BLOCKS", _C_BLOCKS) + _c_pow_constants() + _POW_KERNEL
             + "".join(kernel.replace("$T", t)
                       for kernel in (_MATMUL_KERNEL, _FOCUSED_KERNEL, _DWC_KERNEL)
                       for t in _C_TYPES.values()))
_CC = "cc"
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
_LDLIBS = ("-lm",)  # after the source, so --as-needed linkers keep it
_DIGEST_BYTES = 32

# (kernel name, dtype) -> compiled kernel once resolved; empty when the
# fallback is in use.
_c_kernels = None
_c_unavailable = ""  # why the compiled kernels are not in use


def resolve_dtype(precision):
    """Map 'f32'/'f64' (or an accepted numpy dtype) to the numpy dtype."""
    if isinstance(precision, str):
        try:
            return np.dtype(PRECISIONS[precision])
        except KeyError:
            raise ConfigError(f"unknown precision {precision!r}; expected 'f32' or 'f64'") from None
    dt = np.dtype(precision)
    if dt not in _NAMES:
        raise ConfigError(f"unsupported dtype {dt}; expected float32 or float64")
    return dt


def _check_float(arr: np.ndarray, what: str) -> np.ndarray:
    if not isinstance(arr, np.ndarray):
        raise ContractViolation(f"{what} must be a numpy array, got {type(arr).__name__}")
    if arr.dtype not in _NAMES:
        raise ContractViolation(f"{what} must be float32 or float64, got dtype {arr.dtype}")
    return arr


def _check_2d(arr: np.ndarray, what: str) -> np.ndarray:
    _check_float(arr, what)
    if arr.ndim != 2:
        raise ContractViolation(f"{what} must be 2-D, got shape {arr.shape}")
    return arr


def _check_same_dtype(a: np.ndarray, b: np.ndarray) -> None:
    if a.dtype != b.dtype:
        raise ContractViolation(
            f"mixed precisions: {_NAMES[a.dtype]} vs {_NAMES[b.dtype]}; cast explicitly"
        )


def require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))
        index = tuple(int(i) for i in bad[0])
        raise ContractViolation(f"{what} contains non-finite element at index {index}")


def _sealed(path: Path) -> bool:
    """True when `path` ends with the sha256 of the bytes before it.

    The digest is appended after the build, where the loader ignores it, so
    a cached object that was truncated or overwritten is rebuilt instead of
    loaded: loading a truncated shared object can kill the process.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    return len(data) > _DIGEST_BYTES and hashlib.sha256(body).digest() == digest


def _run_cc(*args, stdin: str = "") -> str:
    """Run the C compiler and return its stdout; a failure raises OSError."""
    import subprocess  # deferred to the first matmul, so importing dydila costs nothing new

    proc = subprocess.run([_CC, *args], input=stdin, capture_output=True, text=True,
                          errors="replace")
    if proc.returncode:
        raise OSError(f"{_CC} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _build(path: Path, flags: tuple) -> None:
    """Compile the kernel with `flags` to a temp file beside `path`, seal it, move it in.

    ``os.replace`` swaps the directory entry atomically, so a process that
    already loaded an older copy keeps its mapping and concurrent builders
    never see a half-written file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        _run_cc(*flags, "-x", "c", "-", "-o", tmp, *_LDLIBS, stdin=_C_SOURCE)
        body = Path(tmp).read_bytes()
        with open(tmp, "ab") as f:
            f.write(hashlib.sha256(body).digest())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _cache_path() -> tuple:
    """``(path, flags)``: where this host's build lives, and its flags.

    The key holds the macros ``cc <flags> -dM -E`` predefines: the compiler
    version and every instruction set the build may use, so a cache shared
    by different CPUs never loads another host's build.  A compiler that
    rejects ``-march=native`` builds without it.  The probe costs about
    10 ms per process; a cached build is used only while cc is on PATH.
    """
    flags = _CFLAGS
    try:
        macros = _run_cc(*flags, "-dM", "-E", "-x", "c", "-")
    except OSError:
        flags = tuple(f for f in flags if f != "-march=native")
        macros = _run_cc(*flags, "-dM", "-E", "-x", "c", "-")
    key = hashlib.sha256("\0".join((_C_SOURCE, *flags, *_LDLIBS, macros)).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "dydila"
    return cache / f"{key}.so", flags


def _load_kernels() -> dict:
    """Build (or reuse the cached build of) the kernels and bind them per dtype."""
    path, flags = _cache_path()
    if not _sealed(path):
        _build(path, flags)
    lib = ctypes.CDLL(str(path))
    kernels = {}
    for name, argtypes in _C_SIGNATURES.items():
        for dtype, ctype in _C_TYPES.items():
            fn = getattr(lib, f"{name}_{ctype}")
            fn.argtypes = argtypes
            fn.restype = None
            kernels[name, dtype] = fn
    return kernels


def _kernels() -> dict:
    """The compiled kernels, resolved once per process; empty on fallback."""
    global _c_kernels, _c_unavailable
    if _c_kernels is None:
        try:
            _c_kernels = _load_kernels()
        except OSError as e:
            _c_unavailable = f"{type(e).__name__}: {e}"
            _c_kernels = {}
            warnings.warn(f"compiled kernels unavailable, using the numpy loops: {_c_unavailable}",
                          RuntimeWarning, stacklevel=3)
    return _c_kernels


@contextlib.contextmanager
def _numpy_loops():
    """Run the numpy loops in place of the compiled kernels, in every thread, inside the block."""
    global _c_kernels
    kernels, _c_kernels = _kernels(), {}
    try:
        yield
    finally:
        _c_kernels = kernels


def matmul_backend() -> str:
    """The backend :func:`matmul`, the focused map and the DWC use in this
    process: ``"c"`` or ``"numpy"``.

    The first call builds or loads the compiled kernels, like the first
    :func:`matmul` call does.
    """
    return "c" if _kernels() else "numpy"


def matmul(a: np.ndarray, b: np.ndarray, *, start: np.ndarray | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product with per-element left-to-right accumulation.

    ``out[i, j] = ((0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...`` in ascending
    k, each product rounded before it is added (no FMA), exactly the order of
    the reference triple loop, so results are reproducible to the bit across
    runs, row subsets, operand layouts and both backends.  The compiled
    kernel runs when it built; otherwise the numpy fallback does.

    With `start` (C-contiguous, shape (n, m), the operands' dtype) each sum
    starts from ``start[i, j]`` instead of +0, and `start` receives the
    result.  Resuming ``matmul(a1, b1)`` with ``(a2, b2)`` gives the bits of
    ``matmul(hstack((a1, a2)), vstack((b1, b2)))``: one ascending sum.

    With `out` (writeable, shape (n, m), the operands' dtype, contiguous
    columns and any row stride, sharing no memory with a or b) the product
    is written there, with the bits of a fresh one, and `out` is returned:
    a head's columns of a wider array take its output without a copy.
    `out` and `start` do not go together.
    """
    _check_2d(a, "matmul left operand")
    _check_2d(b, "matmul right operand")
    _check_same_dtype(a, b)
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    n, inner = a.shape
    m = b.shape[1]
    if start is not None:
        if out is not None:
            raise ContractViolation("matmul takes start or out, not both")
        if (start.shape != (n, m) or start.dtype != a.dtype or not start.flags.c_contiguous
                or not start.flags.writeable):
            raise ContractViolation(f"matmul start must be a writeable C-contiguous ({n}, {m}) "
                                    f"{a.dtype} array, got {start.dtype} {start.shape}")
        if np.may_share_memory(start, a) or np.may_share_memory(start, b):
            raise ContractViolation("matmul start may share memory with an operand")
        out = start
    elif out is not None:
        _check_out(out, a, b)
    kernel = _kernels().get(("matmul", a.dtype))
    if kernel is None or inner == 0 or n == 0 or m == 0:
        return _matmul_numpy(a, np.require(b, requirements="CA"), out, start is not None)
    # Aligned arrays have strides that are whole elements, which is what the
    # kernel indexes a, b and out by.
    a, b = np.require(a, requirements="A"), np.require(b, requirements="A")
    if out is None:
        out = np.empty((n, m), dtype=a.dtype)
    size = a.itemsize
    kernel(a.ctypes.data, a.strides[0] // size, a.strides[1] // size,
           b.ctypes.data, b.strides[0] // size, b.strides[1] // size,
           out.ctypes.data, out.strides[0] // size, n, inner, m, start is not None)
    return out


def _check_out(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Reject an `out` that :func:`matmul` cannot write its product of a and b to.

    The kernel declares its operands ``restrict`` and reads a and b after it
    has begun to write out, so an out that may overlap either is refused.
    An empty out of the right shape and dtype is taken whatever its strides
    (numpy gives a (0, m) array strides (0, 0)): nothing is written to it.
    """
    n, m = a.shape[0], b.shape[1]
    _check_float(out, "matmul out")
    if out.shape != (n, m) or out.dtype != a.dtype:
        raise ContractViolation(f"matmul out must be a ({n}, {m}) {a.dtype} array, "
                                f"got {out.dtype} {out.shape}")
    if out.size == 0:
        return
    if (not out.flags.writeable or not out.flags.aligned or out.strides[1] != out.itemsize
            or n > 1 and abs(out.strides[0]) < m * out.itemsize):
        raise ContractViolation("matmul out must be writeable and aligned, with contiguous "
                                f"columns and rows that do not overlap; got strides {out.strides}")
    if np.may_share_memory(out, a) or np.may_share_memory(out, b):
        raise ContractViolation("matmul out may share memory with an operand")


def _matmul_numpy(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
                  acc: bool = False) -> np.ndarray:
    """The fallback of :func:`matmul`: numpy calls per k over row blocks.

    The product goes to `out` when given, zeroed first unless `acc` resumes
    the sums already there.  The output rows are processed in blocks with
    one multiply buffer per block; blocking over rows does not touch the
    per-element order.  Like the compiled kernel, it overflows to inf and NaN
    without a warning: a caller's finiteness check reports non-finite output.
    """
    n, inner = a.shape
    m = b.shape[1]
    if out is None:
        out = np.zeros((n, m), dtype=a.dtype)
    elif not acc:
        out[...] = 0
    ib = _BLOCK_BYTES // max(1, a.dtype.itemsize * m)
    if inner >= _STRIDED_INNER_LIMIT and not a.flags.f_contiguous:
        ib = min(ib, _STRIDED_BLOCK_CAP)
    ib = max(16, min(n, ib))

    tmp = np.empty((min(ib, n), m), dtype=a.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, ib):
            i1 = min(i0 + ib, n)
            ab = a[i0:i1]
            ob = out[i0:i1]
            t = tmp[: i1 - i0]
            for k in range(inner):
                np.multiply(ab[:, k : k + 1], b[k], out=t)
                np.add(ob, t, out=ob)
    return out


def _focused_map(z: np.ndarray, gamma: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Focused map of every row of `z`, row i with exponent ``gamma[i]``, written to `out`.

    `z` must be a validated 2-D float matrix and `gamma` must hold one value
    > 0 per row of `z`.  ``out`` is None, which makes a fresh C-contiguous
    array, or a writeable (n, d) array of z's dtype that is `z` itself
    (mapping a strided head slice in place) or shares no memory with it;
    either way the bits are the same.  The order is the one described above
    ``_FOCUSED_KERNEL``; the compiled kernel runs when it built, otherwise
    :func:`_focused_numpy` over blocks of rows, with the same bits.
    """
    n, d = z.shape
    gamma = np.require(gamma, dtype=np.float64, requirements="CA")
    if gamma.shape != (n,):
        raise ContractViolation(f"{gamma.shape} gammas for {n} rows")
    if out is None:
        out = np.empty((n, d), dtype=z.dtype)
    elif (out.shape != (n, d) or out.dtype != z.dtype or not out.flags.writeable
          or not out.flags.aligned):
        raise ContractViolation(f"focused map out must be a writeable aligned ({n}, {d}) "
                                f"{z.dtype} array, got {out.dtype} {out.shape}")
    elif out is not z and np.may_share_memory(out, z):
        raise ContractViolation("focused map out may share memory with z without being z")
    if n == 0 or d == 0:
        return out
    kernel = _kernels().get(("focused", z.dtype))
    if kernel is None:
        # The map is row-local, so blocks of rows give the same bits and
        # bound the fallback's temporaries (about 30 doubles per entry).
        rows = max(1, _FOCUSED_NUMPY_ENTRIES // d)
        for i0 in range(0, n, rows):
            out[i0 : i0 + rows] = _focused_numpy(z[i0 : i0 + rows], gamma[i0 : i0 + rows])
        return out
    z = np.require(z, requirements="A")
    padded = -(-d // _POW_PAD) * _POW_PAD
    work = np.empty(padded * (2 * z.itemsize + 8), dtype=np.uint8)
    size = z.itemsize
    kernel(z.ctypes.data, z.strides[0] // size, z.strides[1] // size, gamma.ctypes.data,
           out.ctypes.data, out.strides[0] // size, out.strides[1] // size, n, d,
           work.ctypes.data)
    return out


def _dwc(v: np.ndarray, grid: tuple, kernels: np.ndarray, identity: bool) -> np.ndarray:
    """Depthwise 3x3 cross-correlation of `v` on the (h, w) token grid.

    `v` must be a validated (h*w, d) float matrix and `kernels` a (d, 3, 3)
    array of its dtype; ``identity`` adds v after the taps.  The order is
    the one described above ``_DWC_KERNEL``; the compiled kernel runs when
    it built, otherwise :func:`_dwc_numpy`, with the same bits.
    """
    h, w = grid
    n, d = v.shape
    kernel = _kernels().get(("dwc", v.dtype))
    if kernel is None:
        return _dwc_numpy(v, grid, kernels, identity)
    if not v.flags.aligned or v.strides[1] != v.itemsize:
        v = np.ascontiguousarray(v)
    taps = np.ascontiguousarray(kernels.reshape(d, 9).T)
    zero = np.zeros(d, dtype=v.dtype)
    out = np.empty((n, d), dtype=v.dtype)
    kernel(v.ctypes.data, v.strides[0] // v.itemsize, taps.ctypes.data, zero.ctypes.data,
           out.ctypes.data, h, w, d, identity)
    return out


def _dwc_numpy(v: np.ndarray, grid: tuple, kernels: np.ndarray, identity: bool) -> np.ndarray:
    """The fallback of :func:`_dwc`: one numpy pass per tap over blocks of grid rows.

    Each block is copied with a one-pixel zero border (the rows above and
    below it, or zeros at the grid's edge), so the padded copy and the tap
    product are one block each; the order is per element, so blocking does
    not touch the bits.
    """
    h, w = grid
    n, d = v.shape
    img = v.reshape(h, w, d)
    out = np.zeros((h, w, d), dtype=v.dtype)
    rows = max(1, min(h, _BLOCK_BYTES // max(1, w * d * v.itemsize)))
    padded = np.zeros((rows + 2, w + 2, d), dtype=v.dtype)
    tmp = np.empty((rows, w, d), dtype=v.dtype)
    for y0 in range(0, h, rows):
        y1 = min(y0 + rows, h)
        r = y1 - y0
        lo, hi = max(y0 - 1, 0), min(y1 + 1, h)
        padded[...] = 0
        padded[lo - y0 + 1 : hi - y0 + 1, 1:-1] = img[lo:hi]
        ob, t = out[y0:y1], tmp[:r]
        for di in range(3):
            for dj in range(3):
                np.multiply(padded[di : di + r, dj : dj + w], kernels[:, di, dj], out=t)
                np.add(ob, t, out=ob)
        if identity:
            np.add(ob, img[y0:y1], out=ob)
    return out.reshape(n, d)


def _f64s(name: str) -> np.ndarray:
    return np.array([float.fromhex(v) for v in getattr(_pow_tables, name).split()])


# _pow_tables as numpy arrays and floats, for the numpy mirror of pow01
_POW_INVC, _POW_LOGC, _POW_LOGCTAIL, _POW_TAIL, _POW_LOG_POLY, _POW_EXP_POLY = (
    _f64s(k) for k in ("LOG_INVC", "LOG_LOGC", "LOG_LOGCTAIL", "EXP_TAIL", "LOG_POLY", "EXP_POLY"))
_POW_SBITS = np.array([int(v, 16) for v in _pow_tables.EXP_SBITS.split()], dtype=np.uint64)
_LN2HI, _LN2LO, _INVLN2N, _NEGLN2HIN, _NEGLN2LON = (
    float.fromhex(getattr(_pow_tables, k))
    for k in ("LN2HI", "LN2LO", "INVLN2N", "NEGLN2HIN", "NEGLN2LON"))


def _pow01_numpy(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The compiled ``pow01``, elementwise over float64 arrays, operation for
    operation in the same order (see the comment above ``_POW_KERNEL``)."""
    f8 = np.float64
    ix = (x * 2.0**52).view(np.uint64)
    u = ix - np.uint64(_pow_tables.LOG_OFF) + np.uint64(1024 << 52)
    i = (u >> np.uint64(45)) & np.uint64(127)
    z = (ix - (u & np.uint64(0xFFF << 52)) + np.uint64(1024 << 52)).view(f8)
    kd = (np.uint64(0x4338000000000000) + (u >> np.uint64(52))).view(f8) - (_SHIFT + 1076)
    invc = _POW_INVC[i]
    zhi = ((z.view(np.uint64) + np.uint64(1 << 31)) & np.uint64(0xFFFFFFFF00000000)).view(f8)
    rhi = zhi * invc - 1.0
    rlo = (z - zhi) * invc
    r = rhi + rlo
    t1 = kd * _LN2HI + _POW_LOGC[i]
    t2 = t1 + r
    lo1 = kd * _LN2LO + _POW_LOGCTAIL[i]
    lo2 = t1 - t2 + r
    arhi2 = rhi * (-0.5 * rhi)
    hi = t2 + arhi2
    lo3 = rlo * (-0.5 * r + -0.5 * rhi)
    lo4 = t2 - hi + arhi2
    poly = _POW_LOG_POLY[-1]
    for c in _POW_LOG_POLY[-2::-1]:
        poly = c + r * poly
    p = r * r * r * poly
    lo = lo1 + lo2 + lo3 + lo4 + p
    lh = hi + lo
    ll = hi - lh + lo
    split = float(2**27 + 1)
    cg = g * split
    gh = cg - (cg - g)
    gl = g - gh
    cl = lh * split
    hh = cl - (cl - lh)
    hl = lh - hh
    e0 = g * lh
    elo = gh * hh - e0 + gh * hl + gl * hh + gl * hl + g * ll
    e0_bits = e0.view(np.uint64)
    top = ((e0_bits >> np.uint64(32)).astype(np.uint32) ^ np.uint32(0x80000000)).view(np.int32)
    top = np.minimum(top, np.int32(0x40875000))
    ehi = (((top.view(np.uint32) ^ np.uint32(0x80000000)).astype(np.uint64) << np.uint64(32))
           | (e0_bits & np.uint64(0xFFFFFFFF))).view(f8)
    kr = _INVLN2N * ehi + _SHIFT
    ki = kr.view(np.uint64)
    k2 = kr - _SHIFT
    er = ehi + k2 * _NEGLN2HIN + k2 * _NEGLN2LON + elo
    j = ki & np.uint64(127)
    s = (_POW_SBITS[j] + (ki << np.uint64(45)) + np.uint64(1022 << 52)).view(f8)
    e2, e3, e4, e5, e6 = _POW_EXP_POLY
    r2 = er * er
    tmp = _POW_TAIL[j] + er + r2 * (e2 + er * e3) + r2 * r2 * (e4 + er * (e5 + er * e6))
    y = s + s * tmp
    lo5 = s - y + s * tmp
    one = np.where(y < 1.0, 1.0, 0.0)
    h1 = one + y
    l1 = one - h1 + y + lo5
    return (h1 + l1 - one) * 2.0**-1022


def _pow01(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The owned pow of each x (f32 or f64, in (0, 1]) to the float64 power
    g (in (0, 16]), rounded to x's dtype: the compiled ``pow01`` when it
    built, otherwise :func:`_pow01_numpy`, with the same bits."""
    x = np.require(x, requirements="CA")
    g = np.require(np.broadcast_to(np.asarray(g, dtype=np.float64), x.shape), requirements="CA")
    kernel = _kernels().get(("pow01", x.dtype))
    if kernel is None:
        with np.errstate(invalid="ignore", over="ignore"):
            return _pow01_numpy(x.astype(np.float64), g).astype(x.dtype)
    out = np.empty_like(x)
    kernel(x.ctypes.data, g.ctypes.data, out.ctypes.data, x.size)
    return out


def _sum_squares(m: np.ndarray) -> np.ndarray:
    """Per-row sum of squares added in ascending column order, from +0."""
    acc = np.zeros(m.shape[0], dtype=m.dtype)
    for j in range(m.shape[1]):
        col = m[:, j]
        acc = acc + col * col
    return acc


def _focused_numpy(z: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The fallback of :func:`_focused_map`: numpy over rows, with the
    compiled kernel's operations in its order.  Its sums run over every
    column, which adds only the +0 of the entries the kernel skips."""
    out = np.maximum(z, 0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        peak = np.max(out, axis=1)
        live = (gamma != 1) & (peak != 0)
        if not live.any():
            return out
        r, top = out[live], peak[live][:, None]
        x = r / top
        listed = r != 0
        t = np.zeros_like(x)
        xl = x[listed].astype(np.float64)
        g = np.broadcast_to(gamma[live, None], x.shape)[listed]
        tl = _pow01_numpy(xl, g).astype(x.dtype)
        tl[xl == 0] = 0
        t[listed] = tl
        scale = top * np.sqrt(_sum_squares(x))[:, None] / np.sqrt(_sum_squares(t))[:, None]
        out[live] = t * scale
    return out


def relu(m: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0), dtype preserved."""
    _check_float(m, "relu operand")
    return np.maximum(m, 0)


def row_l2_norm(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; returns a 1-D vector of length rows(m)."""
    _check_2d(m, "row_l2_norm operand")
    return np.sqrt(np.sum(m * m, axis=1))


def softmax_rows(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max-shift so large logits cannot overflow.

    ``out`` is None, which makes one fresh array and leaves ``m`` as it was,
    or ``m`` itself, which keeps an n x n map in the one array its caller
    made.  Either way the steps are those of the unfused expression: minus
    the row max, numpy's ``exp``, over numpy's (pairwise) row sum, so the
    bits do not depend on ``out``.  A matrix of zero width (an empty key
    set) has no softmax and raises :class:`ContractViolation`.
    """
    _check_2d(m, "softmax_rows operand")
    if m.shape[1] == 0:
        raise ContractViolation(f"softmax_rows of a {m.shape} matrix: the key set is empty")
    e = np.subtract(m, np.max(m, axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, np.sum(e, axis=1, keepdims=True), out=e)


class SeededRng:
    """Deterministic random source: ``numpy.random.Generator`` over PCG64.

    The PCG64 bit stream for a fixed seed is covered by numpy's stream
    compatibility guarantee, so the same seed yields the same weights on any
    platform.  All draws happen in float64 and are cast once at the end,
    which keeps f32 and f64 runs structurally identical.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, shape, low: float, high: float, precision="f64") -> np.ndarray:
        dt = resolve_dtype(precision)
        return self._gen.uniform(low, high, size=shape).astype(dt, copy=False)

    def init_weight(self, fan_in: int, fan_out: int, precision="f64") -> np.ndarray:
        """Dense weight of shape (fan_in, fan_out), U(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
        if fan_in < 1 or fan_out < 1:
            raise ConfigError(f"weight dims must be >= 1, got ({fan_in}, {fan_out})")
        bound = 1.0 / float(np.sqrt(fan_in))
        return self.uniform((fan_in, fan_out), -bound, bound, precision)

    def tokens(self, n: int, d: int, precision="f64") -> np.ndarray:
        """Synthetic input rows, U(-1, 1)."""
        if n < 0 or d < 1:
            raise ConfigError(f"token matrix dims must be (n >= 0, d >= 1), got ({n}, {d})")
        return self.uniform((n, d), -1.0, 1.0, precision)
