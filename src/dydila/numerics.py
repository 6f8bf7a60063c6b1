"""Deterministic dense numerics substrate.

Every routine here fixes not just *what* is computed but the floating-point
evaluation order, so that repeated runs (and independently written oracles
that follow the same order) agree bit for bit.  The one that matters most is
:func:`matmul`: ``out[i, j]`` is accumulated strictly in ascending ``k``,
which is what a naive triple loop does and what vendor BLAS does not.

The focused feature map behind ``dydila.kernels`` (:func:`_focused_map`) has
such an order too: per row, relu, row max, divide by it, libm ``pow``, an
ascending-index sum of squares and ``sqrt`` for both norms, rescale.  So
does the depthwise 3x3 convolution behind ``attention.dwc_forward``
(:func:`_dwc`): per element, the nine taps in ascending (row, col) order
from +0, then the identity branch.

Matrices are plain ``numpy.ndarray`` in float32 or float64.  Mixing the two
in one call is an error rather than a silent promotion.

All three run small C kernels whose source lives in this module, so the
module that owns the order contracts also owns the code that keeps them.
The kernels are compiled into one shared object at the first call of any
(never at import) with ``cc -O3 -ffp-contract=off`` (no FMA contraction)
and cached under ``${XDG_CACHE_HOME:-~/.cache}/dydila``, keyed by the
sha256 of the source, the flags and the compiler version.  When no compiler
is present or the build or load fails, one ``RuntimeWarning`` is issued and
all use numpy loops with the same per-element order; those loops are also
the in-process references the tests compare the kernels with.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

__all__ = [
    "ContractViolation",
    "ConfigError",
    "PRECISIONS",
    "resolve_dtype",
    "precision_name",
    "as_matrix",
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

# Row-block sizing for the numpy fallback of matmul: target ~1 MiB of
# accumulator per block, and keep blocks small enough that strided column
# reads of the left operand stay cache-resident once the inner dimension
# gets long.  The compiled kernel ignores these.
_BLOCK_TARGET_BYTES = 1 << 20
_STRIDED_INNER_LIMIT = 2048
_STRIDED_BLOCK_CAP = 256

# Block sizes of the compiled matmul, in elements: MR-row register tiles,
# KC inner indices, MC rows and NC columns per block, and MR_NARROW rows per
# pass of the narrow product (see _MATMUL_KERNEL).
_MATMUL_BLOCKS = {"MR": 8, "KC": 256, "MC": 256, "NC": 512, "MR_NARROW": 4}

# The compiled matmul kernel, one copy per element type, blocked as in Goto &
# van de Geijn (2008); the block sizes are _MATMUL_BLOCKS, in elements.  The
# loops run over blocks of NC output columns, then blocks of KC inner
# indices, then blocks of MC output rows.  For each (KC, NC) block of b and
# (MC, KC) block of a, both are packed: b into strips of KC x NR, a into
# strips of MR x KC, each laid out in the order the tile reads it and padded
# with zeros at the matrix edge.  Packing reads a and b through their element
# strides, so transposed and strided views (k.T on either side) need no
# copy.  Within a row block the loop over b strips is the outer one: a b
# strip (32 KiB) stays in L1 while every a strip of the block (up to 512
# KiB, in L2) passes it.  Each a strip and b strip make one MR x NR tile of
# out, NR being two 64-byte vectors (8 x 16 f64, 8 x 32 f32), accumulated in
# registers.  Tiles that stick out of out run in a local copy, so out is
# written only inside the matrix.  The tile is written with GCC vector types
# once per vector width: 64 bytes with AVX-512, whose 32 registers hold all
# 16 accumulators; 32 bytes with AVX2, whose 16 registers hold one vector
# per row, so the tile runs as four column passes; 16 bytes elsewhere (SSE2,
# NEON), in four passes of two.  target_clones cannot pick it: a vector type
# wider than the target turns into scalar moves through memory, 15-40x
# slower.  The packing buffers are static and thread-local (ctypes releases
# the GIL while a kernel runs), so a call allocates nothing.
#
# A narrow product (m <= NR: routing logits, the normalizer's one column)
# skips the a packing and the row tiles.  Its one b strip is packed for as
# many k as packed_b holds (KC * NC / NR), and NARROW reads MR_NARROW rows of
# a in place through their strides, keeping each row's sums in vectors over
# the columns, in column passes that stop at m.  The tile and NARROW share
# the one width dispatch.
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

/* One MR x NR tile: out = (first ? +0 : out) + ap @ bp over kc inner indices,
   in column passes of P vectors of V bytes per row. */
#define TILE(V, P, ATTR)                                                       \
static ATTR void tile##V##_$T(ptrdiff_t kc, const $T *restrict ap,              \
                              const $T *restrict bp, $T *restrict c,            \
                              ptrdiff_t ldc, int first)                         \
{                                                                              \
    typedef $T vec __attribute__((vector_size(V)));                            \
    enum { W = V / sizeof($T), NR = NR_$T };                                   \
    for (int h = 0; h < NR; h += P * W) {                                      \
        vec acc[MR][P];                                                        \
        for (int r = 0; r < MR; r++)                                           \
            for (int s = 0; s < P; s++) {                                      \
                acc[r][s] = (vec){0};                                          \
                if (!first)                                                    \
                    __builtin_memcpy(&acc[r][s], c + r * ldc + h + s * W, V);  \
            }                                                                  \
        for (ptrdiff_t k = 0; k < kc; k++) {                                   \
            const $T *bk = bp + k * NR + h;                                    \
            for (int r = 0; r < MR; r++) {                                     \
                const $T x = ap[k * MR + r];                                   \
                for (int s = 0; s < P; s++)                                    \
                    acc[r][s] = acc[r][s] + x * *(const vec *)(bk + s * W);    \
            }                                                                  \
        }                                                                      \
        for (int r = 0; r < MR; r++)                                           \
            for (int s = 0; s < P; s++)                                        \
                __builtin_memcpy(c + r * ldc + h + s * W, &acc[r][s], V);      \
    }                                                                          \
}
TILE(64, 2, TARGET("avx512f"))
TILE(32, 1, TARGET("avx2"))
TILE(16, 2, )
#undef TILE

/* The narrow product, m <= NR: out = (first ? +0 : out) + a @ bp over kc
   inner indices, R rows of a at a time read in place through their strides,
   in column passes of P vectors of V bytes that stop at m.  The rows' sums
   go through c, NR wide, so out is touched only inside the matrix. */
#define NARROW(V, P, ATTR)                                                     \
static ATTR void narrow##V##_$T(ptrdiff_t kc, const $T *a, ptrdiff_t sa0,      \
                                ptrdiff_t sa1, const $T *restrict bp,          \
                                $T *restrict out, ptrdiff_t n, ptrdiff_t m,    \
                                int first)                                     \
{                                                                              \
    typedef $T vec __attribute__((vector_size(V)));                            \
    enum { W = V / sizeof($T), NR = NR_$T, R = MR_NARROW };                    \
    $T c[R * NR] __attribute__((aligned(64)));                                 \
    for (ptrdiff_t i = 0; i < n; i += R) {                                     \
        const ptrdiff_t mr = n - i < R ? n - i : R;                            \
        const $T *ar[R];                                                       \
        for (int r = 0; r < R; r++) {                                          \
            ar[r] = a + (i + (r < mr ? r : mr - 1)) * sa0;                     \
            for (ptrdiff_t j = 0; j < NR; j++)                                 \
                c[r * NR + j] =                                                \
                    !first && r < mr && j < m ? out[(i + r) * m + j] : 0;      \
        }                                                                      \
        for (ptrdiff_t h = 0; h < m; h += P * W) {                             \
            vec acc[R][P];                                                     \
            for (int r = 0; r < R; r++)                                        \
                for (int s = 0; s < P; s++)                                    \
                    __builtin_memcpy(&acc[r][s], c + r * NR + h + s * W, V);   \
            for (ptrdiff_t k = 0; k < kc; k++) {                               \
                const $T *bk = bp + k * NR + h;                                \
                for (int r = 0; r < R; r++) {                                  \
                    const $T x = ar[r][k * sa1];                               \
                    for (int s = 0; s < P; s++)                                \
                        acc[r][s] = acc[r][s] + x * *(const vec *)(bk + s * W);\
                }                                                              \
            }                                                                  \
            for (int r = 0; r < R; r++)                                        \
                for (int s = 0; s < P; s++)                                    \
                    __builtin_memcpy(c + r * NR + h + s * W, &acc[r][s], V);   \
        }                                                                      \
        for (ptrdiff_t r = 0; r < mr; r++)                                     \
            for (ptrdiff_t j = 0; j < m; j++)                                  \
                out[(i + r) * m + j] = c[r * NR + j];                          \
    }                                                                          \
}
NARROW(64, 2, TARGET("avx512f"))
NARROW(32, 2, TARGET("avx2"))
NARROW(16, 2, )
#undef NARROW

CLONES
void matmul_$T(const $T *restrict a, ptrdiff_t sa0, ptrdiff_t sa1,
               const $T *restrict b, ptrdiff_t sb0, ptrdiff_t sb1,
               $T *restrict out, ptrdiff_t n, ptrdiff_t inner, ptrdiff_t m, int acc)
{
    enum { NR = NR_$T };
    $T *const apack = ($T *)&packed_a, *const bpack = ($T *)&packed_b;
    $T edge[MR * NR] __attribute__((aligned(64))) = {0};
    const int v = CPU_HAS("avx512f") ? 64 : CPU_HAS("avx2") ? 32 : 16;
    void (*const tile)(ptrdiff_t, const $T *, const $T *, $T *, ptrdiff_t, int) =
        v == 64 ? tile64_$T : v == 32 ? tile32_$T : tile16_$T;
    void (*const narrow)(ptrdiff_t, const $T *, ptrdiff_t, ptrdiff_t, const $T *, $T *,
                         ptrdiff_t, ptrdiff_t, int) =
        v == 64 ? narrow64_$T : v == 32 ? narrow32_$T : narrow16_$T;
    /* A narrow product packs as much of b as packed_b holds. */
    const ptrdiff_t kb = m <= NR ? KC * NC / NR : KC;
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
            if (m <= NR) {
                narrow(kc, a + pc * sa1, sa0, sa1, bpack, out, n, m, first);
                continue;
            }
            for (ptrdiff_t ic = 0; ic < n; ic += MC) {
                const ptrdiff_t mc = n - ic < MC ? n - ic : MC;
                for (ptrdiff_t ir = 0; ir < mc; ir += MR) {
                    const ptrdiff_t mr = mc - ir < MR ? mc - ir : MR;
                    const $T *src = a + (ic + ir) * sa0 + pc * sa1;
                    $T *dst = apack + ir * kc;
                    for (ptrdiff_t k = 0; k < kc; k++)
                        for (ptrdiff_t r = 0; r < MR; r++)
                            dst[k * MR + r] = r < mr ? src[r * sa0 + k * sa1] : 0;
                }
                for (ptrdiff_t jr = 0; jr < nc; jr += NR) {
                    const ptrdiff_t nr = nc - jr < NR ? nc - jr : NR;
                    for (ptrdiff_t ir = 0; ir < mc; ir += MR) {
                        const ptrdiff_t mr = mc - ir < MR ? mc - ir : MR;
                        $T *c = out + (ic + ir) * m + jc + jr;
                        if (mr == MR && nr == NR) {
                            tile(kc, apack + ir * kc, bpack + jr * kc, c, m, first);
                            continue;
                        }
                        for (ptrdiff_t r = 0; r < mr; r++)
                            for (ptrdiff_t j = 0; j < nr; j++)
                                edge[r * NR + j] = c[r * m + j];
                        tile(kc, apack + ir * kc, bpack + jr * kc, edge, NR, first);
                        for (ptrdiff_t r = 0; r < mr; r++)
                            for (ptrdiff_t j = 0; j < nr; j++)
                                c[r * m + j] = edge[r * NR + j];
                    }
                }
            }
        }
    }
}
"""

# The compiled focused map, one copy per element type; _focused_numpy is its
# reference.  One pass per row: relu (NaN kept, -0 made +0, as np.maximum
# does), the row max (NaN-propagating, as np.max) and the ascending-index sum
# of squares of relu, all in $T.  A row whose gamma is 1 keeps relu; a row
# whose relu norm n1 is 0 becomes +0 (a NaN row is not dead).  Otherwise
# each nonzero entry becomes libm pow(r / peak, gamma), the division in $T
# and pow in double rounded to $T; zeros stay +0.  The powered row's norm ng
# is summed the same way, and every entry is multiplied by n1 / ng.  Dividing
# by the row max keeps the powers in [0, 1], so no gamma overflows f32.  z is
# read through its element strides, so head slices need no copy; out is
# C-contiguous.  The ordered sums and the calls to pow keep the first two
# loops scalar; only the rescale vectorises.
_FOCUSED_KERNEL = r"""
CLONES
void focused_$T(const $T *restrict z, ptrdiff_t sz0, ptrdiff_t sz1,
                const double *restrict gamma, $T *restrict out,
                ptrdiff_t n, ptrdiff_t d)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const $T *zi = z + i * sz0;
        $T *o = out + i * d;
        $T peak = 0, s1 = 0, sg = 0;
        for (ptrdiff_t j = 0; j < d; j++) {
            const $T x = zi[j * sz1];
            $T r = x > 0 ? x : 0;
            if (x != x)
                r = peak = x;
            o[j] = r;
            peak = r > peak ? r : peak;
            s1 = s1 + r * r;
        }
        const double g = gamma[i];
        const $T n1 = ($T)sqrt(s1);
        if (g == 1)
            continue;
        if (n1 == 0) {
            for (ptrdiff_t j = 0; j < d; j++)
                o[j] = 0;
            continue;
        }
        for (ptrdiff_t j = 0; j < d; j++) {
            const $T r = o[j];
            const $T t = r != 0 ? ($T)pow((double)(r / peak), g) : 0;
            o[j] = t;
            sg = sg + t * t;
        }
        const $T scale = n1 / ($T)sqrt(sg);
        for (ptrdiff_t j = 0; j < d; j++)
            o[j] = o[j] * scale;
    }
}
"""
# The compiled DWC, one copy per element type; _dwc_numpy is its reference.
# Each output element is one sum in $T: from +0, the nine taps in ascending
# (row, col) order, each product rounded before the add.  A tap outside the
# grid adds +0 * weight, as the numpy loop's zero padding does, so an inf or
# NaN weight makes the border NaN on both backends.  The identity branch, if
# on, is added last.  v is read through its row stride with unit channel
# stride; k is the (9, d) tap-major weight matrix; out is C-contiguous.  The
# channels run in chunks of DWC_CHANNELS so that a tap outside the grid can
# read a static row of zeros; the chunk loop vectorises over channels.
_DWC_KERNEL = r"""
CLONES
void dwc_$T(const $T *restrict v, ptrdiff_t sv0, const $T *restrict k,
            $T *restrict out, ptrdiff_t h, ptrdiff_t w, ptrdiff_t d, int identity)
{
    static const $T zero[DWC_CHANNELS];
    for (ptrdiff_t y = 0; y < h; y++)
        for (ptrdiff_t x = 0; x < w; x++) {
            const $T *tap[9];
            for (int t = 0; t < 9; t++) {
                const ptrdiff_t yy = y + t / 3 - 1, xx = x + t % 3 - 1;
                const int inside = 0 <= yy && yy < h && 0 <= xx && xx < w;
                tap[t] = inside ? v + (yy * w + xx) * sv0 : 0;
            }
            $T *o = out + (y * w + x) * d;
            for (ptrdiff_t c0 = 0; c0 < d; c0 += DWC_CHANNELS) {
                const ptrdiff_t cn = d - c0 < DWC_CHANNELS ? d - c0 : DWC_CHANNELS;
                const $T *p[9];
                for (int t = 0; t < 9; t++)
                    p[t] = tap[t] ? tap[t] + c0 : zero;
                for (ptrdiff_t c = 0; c < cn; c++) {
                    $T s = 0;
                    for (int t = 0; t < 9; t++)
                        s = s + p[t][c] * k[t * d + c0 + c];
                    o[c0 + c] = s;
                }
            }
            if (identity)
                for (ptrdiff_t c = 0; c < d; c++)
                    o[c] = o[c] + tap[4][c];
        }
}
"""
_C_TYPES = {np.dtype(np.float64): "double", np.dtype(np.float32): "float"}
# Argument types of each kernel, bound for every entry of _C_TYPES.
_P, _S = ctypes.c_void_p, ctypes.c_ssize_t
_I = ctypes.c_int
_C_SIGNATURES = {"matmul": (_P, _S, _S, _P, _S, _S, _P, _S, _S, _S, _I),
                 "focused": (_P, _S, _S, _P, _P, _S, _S),
                 "dwc": (_P, _S, _P, _P, _S, _S, _S, _I)}
# __GLIBC__ comes from a libc header, hence <limits.h>.
_C_PRELUDE = r"""#include <limits.h>
#include <math.h>
#include <stddef.h>
#if defined(__x86_64__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#define TARGET(isa) __attribute__((target(isa)))
#define CPU_HAS(isa) __builtin_cpu_supports(isa)
#else
#define CLONES
#define TARGET(isa)
#define CPU_HAS(isa) 0
#endif
$BLOCKS
/* Packing buffers for one (MC, KC) block of a and one (KC, NC) block of b. */
static _Thread_local union { double d[MC * KC]; float f[MC * KC]; }
    packed_a __attribute__((aligned(64)));
static _Thread_local union { double d[KC * NC]; float f[KC * NC]; }
    packed_b __attribute__((aligned(64)));
"""
_DWC_CHANNELS = 64  # channels per chunk of the compiled DWC
_C_BLOCKS = "enum { %s };" % ", ".join(
    f"{k} = {v}" for k, v in {**_MATMUL_BLOCKS, "DWC_CHANNELS": _DWC_CHANNELS}.items())
_C_SOURCE = _C_PRELUDE.replace("$BLOCKS", _C_BLOCKS) + "".join(
    kernel.replace("$T", t) for kernel in (_MATMUL_KERNEL, _FOCUSED_KERNEL, _DWC_KERNEL)
    for t in _C_TYPES.values())
_CC = "cc"
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
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


def precision_name(arr: np.ndarray) -> str:
    """Inverse of :func:`resolve_dtype` for an array's dtype."""
    try:
        return _NAMES[arr.dtype]
    except KeyError:
        raise ContractViolation(f"unsupported dtype {arr.dtype}") from None


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


def as_matrix(data, precision="f64") -> np.ndarray:
    """Build a validated 2-D matrix from nested sequences or an array.

    Elements must all be finite; this is the constructor used for anything
    coming from a config file or an input CSV.
    """
    dt = resolve_dtype(precision)
    arr = np.array(data, dtype=dt)
    if arr.ndim != 2:
        raise ContractViolation(f"matrix data must be 2-D, got shape {arr.shape}")
    require_finite(arr, "matrix data")
    return arr


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


def _build(path: Path) -> None:
    """Compile the kernel to a temp file beside `path`, seal it, move it in.

    ``os.replace`` swaps the directory entry atomically, so a process that
    already loaded an older copy keeps its mapping and concurrent builders
    never see a half-written file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        _run_cc(*_CFLAGS, "-x", "c", "-", "-o", tmp, *_LDLIBS, stdin=_C_SOURCE)
        body = Path(tmp).read_bytes()
        with open(tmp, "ab") as f:
            f.write(hashlib.sha256(body).digest())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _cache_path() -> Path:
    """Where the build of this source, with these flags and this compiler, lives.

    Asking ``cc --version`` costs about 10 ms per process, well inside the
    run-to-run spread of a first pass, and means a cached build is used only
    while the compiler is on PATH.
    """
    version = _run_cc("--version")
    key = hashlib.sha256("\0".join((_C_SOURCE, *_CFLAGS, *_LDLIBS, version)).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "dydila"
    return cache / f"{key}.so"


def _load_kernels() -> dict:
    """Build (or reuse the cached build of) the kernels and bind them per dtype."""
    path = _cache_path()
    if not _sealed(path):
        _build(path)
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


def matmul_backend() -> str:
    """The backend :func:`matmul`, the focused map and the DWC use in this
    process: ``"c"`` or ``"numpy"``.

    The first call builds or loads the compiled kernels, like the first
    :func:`matmul` call does.
    """
    return "c" if _kernels() else "numpy"


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with per-element left-to-right accumulation.

    ``out[i, j] = ((0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...`` in ascending
    k, each product rounded before it is added (no FMA), exactly the order of
    the reference triple loop, so results are reproducible to the bit across
    runs, row subsets, operand layouts and both backends.  The compiled
    kernel runs when it built; otherwise the numpy fallback does.
    """
    return _matmul(a, b)


def _matmul(a: np.ndarray, b: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """:func:`matmul`, each sum starting from ``start[i, j]`` instead of +0.

    `start` (C-contiguous, shape (n, m), the operands' dtype) receives the
    result.  Resuming ``matmul(a1, b1)`` with ``(a2, b2)`` gives the bits of
    ``matmul(hstack((a1, a2)), vstack((b1, b2)))``: one ascending sum.
    """
    _check_2d(a, "matmul left operand")
    _check_2d(b, "matmul right operand")
    _check_same_dtype(a, b)
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    n, inner = a.shape
    m = b.shape[1]
    if start is not None:
        if (start.shape != (n, m) or start.dtype != a.dtype or not start.flags.c_contiguous
                or not start.flags.writeable):
            raise ContractViolation(f"matmul start must be a writeable C-contiguous ({n}, {m}) "
                                    f"{a.dtype} array, got {start.dtype} {start.shape}")
    if inner == 0 or n == 0 or m == 0:
        return np.zeros((n, m), dtype=a.dtype) if start is None else start
    kernel = _kernels().get(("matmul", a.dtype))
    if kernel is None:
        return _matmul_numpy(a, np.require(b, requirements="CA"), start)
    # Aligned arrays have strides that are whole elements, which is what the
    # kernel indexes a and b by; out is C-contiguous.
    a, b = np.require(a, requirements="A"), np.require(b, requirements="A")
    out = np.empty((n, m), dtype=a.dtype) if start is None else start
    size = a.itemsize
    kernel(a.ctypes.data, a.strides[0] // size, a.strides[1] // size,
           b.ctypes.data, b.strides[0] // size, b.strides[1] // size,
           out.ctypes.data, n, inner, m, start is not None)
    return out


def _matmul_numpy(a: np.ndarray, b: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """The fallback of :func:`_matmul`: numpy calls per k over row blocks.

    The output rows are processed in blocks with one multiply buffer per
    block; blocking over rows does not touch the per-element order.
    """
    n, inner = a.shape
    m = b.shape[1]
    out = np.zeros((n, m), dtype=a.dtype) if start is None else start
    ib = _BLOCK_TARGET_BYTES // max(1, a.dtype.itemsize * m)
    if inner >= _STRIDED_INNER_LIMIT and not a.flags.f_contiguous:
        ib = min(ib, _STRIDED_BLOCK_CAP)
    ib = max(16, min(n, ib))

    tmp = np.empty((min(ib, n), m), dtype=a.dtype)
    for i0 in range(0, n, ib):
        i1 = min(i0 + ib, n)
        ab = a[i0:i1]
        ob = out[i0:i1]
        t = tmp[: i1 - i0]
        for k in range(inner):
            np.multiply(ab[:, k : k + 1], b[k], out=t)
            np.add(ob, t, out=ob)
    return out


def _focused_map(z: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Focused map of every row of `z`, row i with exponent ``gamma[i]``.

    `z` must be a validated 2-D float matrix and `gamma` must hold one value
    > 0 per row of `z`.  The order is the one described above
    ``_FOCUSED_KERNEL``; the compiled kernel runs when it built, otherwise
    :func:`_focused_numpy`, with the same bits.
    """
    n, d = z.shape
    gamma = np.require(gamma, dtype=np.float64, requirements="CA")
    if gamma.shape != (n,):
        raise ContractViolation(f"{gamma.shape} gammas for {n} rows")
    if n == 0 or d == 0:
        return np.zeros((n, d), dtype=z.dtype)
    kernel = _kernels().get(("focused", z.dtype))
    if kernel is None:
        return _focused_numpy(z, gamma)
    z = np.require(z, requirements="A")
    out = np.empty((n, d), dtype=z.dtype)
    size = z.itemsize
    kernel(z.ctypes.data, z.strides[0] // size, z.strides[1] // size, gamma.ctypes.data,
           out.ctypes.data, n, d)
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
    out = np.empty((n, d), dtype=v.dtype)
    kernel(v.ctypes.data, v.strides[0] // v.itemsize, taps.ctypes.data, out.ctypes.data,
           h, w, d, identity)
    return out


def _dwc_numpy(v: np.ndarray, grid: tuple, kernels: np.ndarray, identity: bool) -> np.ndarray:
    """The fallback of :func:`_dwc`: one numpy pass per tap over a zero-padded copy."""
    h, w = grid
    n, d = v.shape
    img = v.reshape(h, w, d)
    padded = np.zeros((h + 2, w + 2, d), dtype=v.dtype)
    padded[1:-1, 1:-1] = img
    out = np.zeros_like(img)
    for di in range(3):
        for dj in range(3):
            np.add(out, padded[di : di + h, dj : dj + w] * kernels[:, di, dj], out=out)
    if identity:
        out = out + img
    return out.reshape(n, d)


_pow = np.frompyfunc(math.pow, 2, 1)  # libm pow per element, as the kernel calls it


def _sum_squares(m: np.ndarray) -> np.ndarray:
    """Per-row sum of squares added in ascending column order, from +0."""
    acc = np.zeros(m.shape[0], dtype=m.dtype)
    for j in range(m.shape[1]):
        col = m[:, j]
        acc = acc + col * col
    return acc


def _focused_numpy(z: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The fallback of :func:`_focused_map`: numpy over rows, ``math.pow`` per entry."""
    out = np.maximum(z, 0)
    with np.errstate(invalid="ignore", over="ignore"):
        n1 = np.sqrt(_sum_squares(out))
        powered = gamma != 1
        out[powered & (n1 == 0)] = 0
        live = powered & (n1 != 0)
        if not live.any():
            return out
        r = out[live]
        x = r / np.max(r, axis=1, keepdims=True)
        nonzero = r != 0
        t = np.zeros_like(x)
        t[nonzero] = _pow(x[nonzero], np.broadcast_to(gamma[live, None], x.shape)[nonzero])
        out[live] = t * (n1[live] / np.sqrt(_sum_squares(t)))[:, None]
    return out


def relu(m: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0), dtype preserved."""
    _check_float(m, "relu operand")
    return np.maximum(m, 0)


def row_l2_norm(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; returns a 1-D vector of length rows(m)."""
    _check_2d(m, "row_l2_norm operand")
    return np.sqrt(np.sum(m * m, axis=1))


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift so large logits cannot overflow."""
    _check_2d(m, "softmax_rows operand")
    shifted = m - np.max(m, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


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
        return self._gen.uniform(low, high, size=shape).astype(dt)

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
