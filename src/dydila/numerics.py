"""Deterministic dense numerics substrate.

Every routine here fixes not just *what* is computed but the floating-point
evaluation order, so that repeated runs (and independently written oracles
that follow the same order) agree bit for bit.  The one that matters most is
:func:`matmul`: ``out[i, j]`` is accumulated strictly in ascending ``k``,
which is what a naive triple loop does and what vendor BLAS does not.

The focused feature map behind ``dydila.kernels`` (:func:`_focused_map`) has
such an order too: per row, relu, row max, divide by it, libm ``pow``, an
ascending-index sum of squares and ``sqrt`` for both norms, rescale.

Matrices are plain ``numpy.ndarray`` in float32 or float64.  Mixing the two
in one call is an error rather than a silent promotion.

Both run small C kernels whose source lives in this module, so the module
that owns the order contracts also owns the code that keeps them.  The
kernels are compiled into one shared object at the first call of either
(never at import) with ``cc -O3 -ffp-contract=off`` (no FMA contraction)
and cached under ``${XDG_CACHE_HOME:-~/.cache}/dydila``, keyed by the
sha256 of the source, the flags and the compiler version.  When no compiler
is present or the build or load fails, one ``RuntimeWarning`` is issued and
both use numpy loops with the same per-element order; those loops are also
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
# KC inner indices, MC rows and NC columns per block (see _MATMUL_KERNEL).
_MATMUL_BLOCKS = {"MR": 8, "KC": 256, "MC": 256, "NC": 512}

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
# The order is the triple loop's.  The first k block starts every tile from
# +0, never from its first product.  Each k block adds a[i, k] * b[k, j] in
# ascending k, every product rounded before the add (-ffp-contract=off), and
# stores the tile to out as $T; the next k block loads it back and goes on.
# The accumulator is $T too, so the store and the reload round nothing, and
# out[i, j] sees exactly the sums of one ascending loop over k.  Blocking
# over rows and columns only changes which elements are computed together.
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

CLONES
void matmul_$T(const $T *restrict a, ptrdiff_t sa0, ptrdiff_t sa1,
               const $T *restrict b, ptrdiff_t sb0, ptrdiff_t sb1,
               $T *restrict out, ptrdiff_t n, ptrdiff_t inner, ptrdiff_t m)
{
    enum { NR = NR_$T };
    $T *const apack = ($T *)&packed_a, *const bpack = ($T *)&packed_b;
    $T edge[MR * NR] __attribute__((aligned(64))) = {0};
    void (*const tile)(ptrdiff_t, const $T *, const $T *, $T *, ptrdiff_t, int) =
        CPU_HAS("avx512f") ? tile64_$T : CPU_HAS("avx2") ? tile32_$T : tile16_$T;
    for (ptrdiff_t jc = 0; jc < m; jc += NC) {
        const ptrdiff_t nc = m - jc < NC ? m - jc : NC;
        for (ptrdiff_t pc = 0; pc < inner; pc += KC) {
            const ptrdiff_t kc = inner - pc < KC ? inner - pc : KC;
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
                            tile(kc, apack + ir * kc, bpack + jr * kc, c, m, pc == 0);
                            continue;
                        }
                        for (ptrdiff_t r = 0; r < mr; r++)
                            for (ptrdiff_t j = 0; j < nr; j++)
                                edge[r * NR + j] = c[r * m + j];
                        tile(kc, apack + ir * kc, bpack + jr * kc, edge, NR, pc == 0);
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
_C_TYPES = {np.dtype(np.float64): "double", np.dtype(np.float32): "float"}
# Argument types of each kernel, bound for every entry of _C_TYPES.
_P, _S = ctypes.c_void_p, ctypes.c_ssize_t
_C_SIGNATURES = {"matmul": (_P, _S, _S, _P, _S, _S, _P, _S, _S, _S),
                 "focused": (_P, _S, _S, _P, _P, _S, _S)}
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
_C_BLOCKS = "enum { %s };" % ", ".join(f"{k} = {v}" for k, v in _MATMUL_BLOCKS.items())
_C_SOURCE = _C_PRELUDE.replace("$BLOCKS", _C_BLOCKS) + "".join(
    kernel.replace("$T", t) for kernel in (_MATMUL_KERNEL, _FOCUSED_KERNEL)
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
    """The backend :func:`matmul` and the focused map use in this process:
    ``"c"`` or ``"numpy"``.

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
    _check_2d(a, "matmul left operand")
    _check_2d(b, "matmul right operand")
    _check_same_dtype(a, b)
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    n, inner = a.shape
    m = b.shape[1]
    if inner == 0 or n == 0 or m == 0:
        return np.zeros((n, m), dtype=a.dtype)
    kernel = _kernels().get(("matmul", a.dtype))
    if kernel is None:
        return _matmul_numpy(a, np.require(b, requirements="CA"))
    # Aligned arrays have strides that are whole elements, which is what the
    # kernel indexes a and b by; out is C-contiguous.
    a, b = np.require(a, requirements="A"), np.require(b, requirements="A")
    out = np.empty((n, m), dtype=a.dtype)
    size = a.itemsize
    kernel(a.ctypes.data, a.strides[0] // size, a.strides[1] // size,
           b.ctypes.data, b.strides[0] // size, b.strides[1] // size,
           out.ctypes.data, n, inner, m)
    return out


def _matmul_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The fallback of :func:`matmul`: numpy calls per k over row blocks.

    The output rows are processed in blocks with one multiply buffer per
    block; blocking over rows does not touch the per-element order.
    """
    n, inner = a.shape
    m = b.shape[1]
    out = np.zeros((n, m), dtype=a.dtype)
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
