import platform
import subprocess
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import dydila.numerics as numerics
import dydila.oracle as oracle
from dydila.numerics import (
    ContractViolation,
    ConfigError,
    SeededRng,
    matmul,
    relu,
    resolve_dtype,
    row_l2_norm,
    softmax_rows,
)
from dydila.attention import DwcParams, dwc_forward
from dydila.kernels import dmk_forward
from dydila.oracle import ORACLE_CAP, explicit_dwc, naive_matmul, per_token_kernel

from conftest import (assert_close, bits, cli_env, fresh_backend, make_kernel_bank, mat,
                      needs_compiler)

# The NaN that 0 * inf yields on this platform.  IEEE 754 leaves open which
# NaN an operation returns when two different NaNs meet (numpy's own loop
# differs from column to column), so the non-finite tests use only this one.
with np.errstate(invalid="ignore"):
    _NAN = np.float64(0.0) * np.float64(np.inf)


def _layouts(a, b):
    """(name, a, b) with the values of a and b in the operand layouts matmul
    meets: C- and F-ordered a and b (F order is how a k.T view arrives),
    transposed views with no unit stride, a non-contiguous b, and an a whose
    column stride is MR, the stride of a packed strip of a."""
    a_strided = np.empty((a.shape[1], 2 * a.shape[0]), dtype=a.dtype)[:, ::2].T
    a_strided[...] = a
    mr = numerics._MATMUL_BLOCKS["MR"]
    a_stride_mr = np.empty((a.shape[0], mr * a.shape[1]), dtype=a.dtype)[:, ::mr]
    a_stride_mr[...] = a
    b_strided = np.empty((b.shape[0], 2 * b.shape[1]), dtype=b.dtype)[:, ::2]
    b_strided[...] = b
    b_strided_t = np.empty((b.shape[1], 2 * b.shape[0]), dtype=b.dtype)[:, ::2].T
    b_strided_t[...] = b
    return [
        ("c_order", a, b),
        ("f_order", np.asfortranarray(a), b),
        ("strided_transposed_view", a_strided, b),
        ("strided_b", a, b_strided),
        ("f_order_b", a, np.asfortranarray(b)),
        ("strided_transposed_b", a_strided, b_strided_t),
        ("a_column_stride_mr", a_stride_mr, b),
    ]


def _with_nonfinite(seed, arr):
    """Copy of `arr` with a few entries set to +-inf, the 0*inf NaN and +-0."""
    out = arr.copy()
    rng = np.random.default_rng(seed)
    values = np.array([np.inf, -np.inf, _NAN, 0.0, -0.0], dtype=arr.dtype)
    idx = rng.choice(out.size, size=min(out.size, 3), replace=False)
    out.flat[idx] = rng.choice(values, size=idx.size)
    return out


_BLOCKS = numerics._MATMUL_BLOCKS


def _nr(precision):
    """Columns in a tile of the compiled matmul: two 64-byte vectors."""
    return 2 * 64 // resolve_dtype(precision).itemsize


def _narrow_kc(precision):
    """Inner indices per packed block of b in a narrow product (m <= NR)."""
    return _BLOCKS["KC"] * _BLOCKS["NC"] // _nr(precision)


def _want(a, b):
    """The reference bits of matmul(a, b): for f64 the triple loop, its size
    cap lifted to the operands; for f32 the numpy loop, since the triple loop
    sums in f64."""
    if a.dtype == np.float32:
        return numerics._matmul_numpy(a, b)
    with mock.patch.object(oracle, "ORACLE_CAP", max(ORACLE_CAP, *a.shape, b.shape[1])):
        return naive_matmul(a, b)


class TestMatmul:
    """matmul on the numpy fallback; TestMatmulCompiled reruns every test
    here on the compiled kernel."""

    @pytest.fixture(autouse=True)
    def backend(self, monkeypatch):
        monkeypatch.setattr(numerics, "_c_kernels", {})
        assert numerics.matmul_backend() == "numpy"

    def test_hand_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
        b = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float64)
        assert np.array_equal(matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_identity(self):
        a = mat(0, 13, 13)
        assert np.array_equal(matmul(a, np.eye(13)), a)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (17, 5, 9), (64, 64, 8), (3, 128, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_exact_vs_triple_loop(self, shape, seed):
        n, inner, m = shape
        a = mat(seed, n, inner)
        b = mat(seed + 100, inner, m)
        assert np.array_equal(matmul(a, b), naive_matmul(a, b)), (
            "blocked matmul must reproduce ascending-k accumulation bit for bit"
        )

    @pytest.mark.parametrize("n", range(1, 10))
    def test_layouts_bit_exact_vs_triple_loop(self, n):
        # n = 1..9 covers every remainder of the kernel's eight-row tiles
        for name, a, b in _layouts(mat(n, n, 11), mat(n + 1, 11, 7)):
            assert np.array_equal(matmul(a, b), naive_matmul(a, b)), name

    def test_sum_starts_from_positive_zero(self):
        # 0 + (-0) is +0: a sum seeded with its first product would keep -0
        a = np.array([[-0.0, -0.0], [1.0, -0.0]], dtype=np.float64)
        b = np.array([[1.0], [1.0]], dtype=np.float64)
        assert np.array_equal(bits(matmul(a, b)), bits(naive_matmul(a, b)))
        assert not np.signbit(matmul(a, b)).any()

    @pytest.mark.parametrize("inner", [1, 2 * _BLOCKS["KC"] + 3])
    def test_signed_zero_start(self, inner):
        # every sum starts from +0, not from its first product, so -0
        # products sum to +0, also where the compiled kernel resumes the sum
        # after a k block
        one = matmul(np.array([[-0.0]], dtype=np.float64), np.array([[1.0]], dtype=np.float64))
        assert np.array_equal(bits(one), bits(np.zeros((1, 1))))
        a, b = np.full((9, inner), -0.0), np.ones((inner, 17))
        got = matmul(a, b)
        assert not got.any() and not np.signbit(got).any()
        got32 = matmul(a.astype(np.float32), b.astype(np.float32))
        assert not got32.any() and not np.signbit(got32).any()

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("inner", [1, 2 * _BLOCKS["KC"] + 3])
    def test_signed_zero_start_narrow(self, m, inner):
        # the narrow product (m <= NR) also starts every sum from +0
        a, b = np.full((5, inner), -0.0), np.ones((inner, m))
        for dtype in (np.float64, np.float32):
            got = matmul(a.astype(dtype), b.astype(dtype))
            assert not got.any() and not np.signbit(got).any(), dtype

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("m", [1, 9, 40])
    def test_resumed_sum_is_one_ascending_sum(self, precision, m):
        # starting from matmul(a1, b1) and adding a2 @ b2 gives the bits of
        # the product of the concatenations; a sum started at -0 with only
        # -0 products added keeps its -0
        split, inner = 130, 300
        a, b = mat(m, 11, inner, precision), mat(m + 1, inner, m, precision)
        start = matmul(a[:, :split], b[:split])
        got = matmul(a[:, split:], b[split:], start=start)
        assert got is start
        assert np.array_equal(bits(got), bits(matmul(a, b)))
        if precision == "f64":
            assert np.array_equal(got, _want(a, b))
        zeros = np.full((3, m), -0.0, dtype=a.dtype)
        matmul(np.full((3, 5), -0.0, dtype=a.dtype), np.ones((5, m), dtype=a.dtype), start=zeros)
        assert not zeros.any() and np.signbit(zeros).all()

    def test_resumed_sum_rejects_a_bad_start(self):
        a, b = mat(0, 4, 3), mat(1, 3, 2)
        for start in (np.zeros((4, 3)), np.zeros((4, 2), dtype=np.float32),
                      np.zeros((2, 4)).T):
            with pytest.raises(ContractViolation, match="start"):
                matmul(a, b, start=start)
        # a start that overlaps an operand would be written while it is read
        sq, buf = mat(2, 4, 4), mat(3, 1, 18)[0]
        for a_, b_, start in ((sq, sq.copy(), sq), (sq.copy(), sq, sq),
                              (buf[:12].reshape(4, 3), b, buf[10:].reshape(4, 2))):
            with pytest.raises(ContractViolation, match="start may share memory"):
                matmul(a_, b_, start=start)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("case", ["blocked", "narrow", "short", "k_transposed"])
    def test_out_takes_a_head_slice_of_a_wider_array(self, precision, case):
        # the product is written into the middle head's columns of a wider
        # array whose rows are three heads apart and that already holds
        # values (as a spent Q does): the bits of a fresh product, and not
        # one other byte of the buffer, its tail included, is written
        mr, nr, kc = _BLOCKS["MR"], _nr(precision), _BLOCKS["KC"]
        a, b = {  # past KC with edge tiles; m <= NR; n < MR, edge tiles only; a k.T view
            "blocked": (mat(1, 2 * mr + 3, kc + 5, precision), mat(2, kc + 5, nr + 3, precision)),
            "narrow": (mat(3, 13, 40, precision), mat(4, 40, nr - 1, precision)),
            "short": (mat(5, mr - 3, 30, precision), mat(6, 30, nr + 5, precision)),
            "k_transposed": (mat(7, 50, 19, precision).T, mat(8, 50, 2 * nr + 1, precision)),
        }[case]
        (n, _), m = a.shape, b.shape[1]
        want = matmul(a, b)
        buf = mat(9, 1, n * 3 * m + 11, precision)[0]
        before = buf.copy()
        out = buf[:n * 3 * m].reshape(n, 3 * m)[:, m:2 * m]
        assert matmul(a, b, out=out) is out
        assert np.array_equal(bits(out), bits(want))
        outside = np.ones(buf.shape, dtype=bool)
        outside[:n * 3 * m].reshape(n, 3 * m)[:, m:2 * m] = False
        assert np.array_equal(bits(buf[outside]), bits(before[outside]))

    def test_out_rejected(self):
        a, b = mat(0, 4, 3), mat(1, 3, 2)
        shared = np.zeros((4, 5))
        read_only = np.zeros((4, 2))
        read_only.flags.writeable = False
        for out, a_, b_, match in (
            (shared[:, 3:], shared[:, :3], b, "share memory"),
            (shared[:, 3:], a, shared[:3, :2], "share memory"),
            (np.zeros((4, 3)), a, b, r"\(4, 2\)"),
            (np.zeros((4, 2), dtype=np.float32), a, b, "float64"),
            (np.zeros((4, 4))[:, ::2], a, b, "contiguous columns"),
            (np.lib.stride_tricks.as_strided(np.zeros(5), (4, 2), (8, 8)), a, b, "not overlap"),
            (read_only, a, b, "writeable"),
        ):
            with pytest.raises(ContractViolation, match=match):
                matmul(a_, b_, out=out)
        with pytest.raises(ContractViolation, match="start or out"):
            matmul(a, b, start=np.zeros((4, 2)), out=np.zeros((4, 2)))

    def test_empty_out_accepted(self):
        # numpy gives a (0, m) array strides (0, 0); nothing is written to it
        out = np.empty((0, 4))
        assert matmul(np.zeros((0, 3)), mat(1, 3, 4), out=out) is out
        with pytest.raises(ContractViolation, match=r"\(0, 4\)"):
            matmul(np.zeros((0, 3)), mat(1, 3, 4), out=np.empty((0, 5)))

    @pytest.mark.parametrize("shape", [(0, 3, 4), (3, 4, 0), (0, 0, 0), (2, 0, 0)])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_zero_size(self, shape, precision):
        n, inner, m = shape
        out = matmul(mat(0, n, inner, precision), mat(1, inner, m, precision))
        assert out.shape == (n, m) and out.dtype == resolve_dtype(precision)
        assert not np.any(out)

    @pytest.mark.parametrize("seed", range(6))
    def test_nonfinite_bits_match_triple_loop(self, seed):
        with np.errstate(invalid="ignore"):
            a = _with_nonfinite(seed, mat(seed, 9, 6))
            b = _with_nonfinite(seed + 50, mat(seed + 1, 6, 10))
            for name, a, b in _layouts(a, b):
                assert np.array_equal(bits(matmul(a, b)), bits(naive_matmul(a, b))), name

    def test_block_size_invariance(self, monkeypatch):
        # row blocking is a performance knob: any block size gives identical bits
        a = mat(7, 500, 48)
        b = mat(8, 48, 600)
        want = matmul(a, b)
        for target in (1, 1024, 1 << 14, 1 << 22):
            monkeypatch.setattr(numerics, "_BLOCK_BYTES", target)
            assert np.array_equal(matmul(a, b), want)

    def test_transposed_view_operand(self):
        a = mat(3, 40, 24)
        assert np.array_equal(matmul(a.T, a), naive_matmul(np.ascontiguousarray(a.T), a))

    def test_associativity_within_tolerance(self):
        a, b, c = mat(1, 48, 32), mat(2, 32, 40), mat(3, 40, 16)
        assert_close(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), 1e-10, "associativity")

    def test_empty_inner(self):
        a = np.zeros((3, 0))
        b = np.zeros((0, 4))
        assert np.array_equal(matmul(a, b), np.zeros((3, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation, match="shape mismatch"):
            matmul(mat(0, 3, 4), mat(0, 5, 2))

    def test_mixed_precision_rejected(self):
        with pytest.raises(ContractViolation, match="mixed precisions"):
            matmul(mat(0, 3, 4), mat(0, 4, 2, precision="f32"))

    def test_non_2d_rejected(self):
        with pytest.raises(ContractViolation, match="2-D"):
            matmul(np.zeros(3), np.zeros((3, 2)))

    def test_f32_stays_f32(self):
        out = matmul(mat(0, 4, 4, "f32"), mat(1, 4, 4, "f32"))
        assert out.dtype == np.float32


class TestMatmulCompiled(TestMatmul):
    """Every TestMatmul case again on the compiled kernel, plus f32 bit
    equality with the numpy loop, which the f64 triple loop cannot check."""

    @pytest.fixture(autouse=True)
    def backend(self):
        needs_compiler()

    # The kernel's block sizes are constants of its source; the fallback's
    # block size is tested above.
    test_block_size_invariance = None

    @pytest.mark.parametrize("n", range(1, 10))
    def test_f32_matches_numpy_loop(self, n):
        a, b = mat(n, n, 37, "f32"), mat(n + 1, 37, 9, "f32")
        cases = [(a, b, ""), (_with_nonfinite(n, a), _with_nonfinite(n + 50, b), " non-finite")]
        with np.errstate(invalid="ignore"):
            for a, b, tag in cases:
                want = numerics._matmul_numpy(a, b)
                for name, a_l, b_l in _layouts(a, b):
                    assert np.array_equal(bits(matmul(a_l, b_l)), bits(want)), name + tag

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_long_inner_matches_numpy_loop(self, precision):
        # a long inner dimension, and the k.T @ v shape of the attention
        # core: a strided view with inner >> n, m
        cases = [(mat(6, 7, 600, precision), mat(7, 600, 1000, precision)),
                 (mat(4, 300, 9, precision).T, mat(5, 300, 6, precision))]
        for a, b in cases:
            assert np.array_equal(matmul(a, b), numerics._matmul_numpy(a, b))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_output_at_any_offset_in_a_cache_line(self, precision):
        # np.empty aligns to 16 bytes only (a large output starts 16 bytes
        # past a page), so the kernel must give the same bits wherever out
        # starts; m spans two column blocks and ends inside a tile
        dtype = resolve_dtype(precision)
        n, inner, m = 9, 7, 4096 // dtype.itemsize + 5
        a, b = mat(n, n, inner, precision), mat(m, inner, m, precision)
        want = numerics._matmul_numpy(a, b)
        got = matmul(a, b)
        assert got.shape == (n, m) and got.dtype == dtype
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(bits(got), bits(want))
        kernel, nbytes = numerics._kernels()["matmul", dtype], n * m * dtype.itemsize
        for offset in range(0, 64, dtype.itemsize):
            buf = np.full(nbytes + 128, 0xFF, dtype=np.uint8)
            start = -buf.ctypes.data % 64 + offset
            out = buf[start:start + nbytes].view(dtype).reshape(n, m)
            kernel(a.ctypes.data, inner, 1, b.ctypes.data, m, 1, out.ctypes.data, m, n, inner, m,
                   0)
            assert np.array_equal(bits(out), bits(want)), offset
            assert (buf[:start] == 0xFF).all() and (buf[start + nbytes:] == 0xFF).all()

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("n", [1, 4, 5, 9])
    def test_column_panel_boundaries(self, precision, n):
        # the kernel packs b in column blocks (panels) of NC columns;
        # non-finite entries of b sit in the second panel only
        p = _BLOCKS["NC"]
        for m in (p - 1, p, p + 1, 2 * p + 3):
            a, b = mat(n, n, 5, precision), mat(m, 5, m, precision)
            if m > p:
                b[[1, 4], p] = np.inf, -np.inf
                b[2, min(m, 2 * p) - 1] = _NAN
            with np.errstate(invalid="ignore"):
                want = _want(a, b)
                for name, a_l, b_l in _layouts(a, b):
                    got = matmul(a_l, b_l)
                    assert np.array_equal(bits(got), bits(want)), (m, name)
            assert np.isfinite(want[:, :p]).all() and np.isfinite(want[:, 2 * p:]).all()

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_inner_block_edges(self, precision):
        # every k block after the first resumes from the partial sum stored
        # in out; inner runs one short of, onto and past the block edges
        kc = _BLOCKS["KC"]
        for inner in (kc - 1, kc, kc + 1, 2 * kc + 3):
            a, b = mat(inner, 9, inner, precision), mat(inner + 1, inner, 19, precision)
            want = _want(a, b)
            for name, a_l, b_l in _layouts(a, b):
                assert np.array_equal(bits(matmul(a_l, b_l)), bits(want)), (inner, name)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_row_and_column_edges(self, precision):
        # n and m one short of and one past a tile (MR rows, NR columns) and
        # past a row block (MC) and a column block (NC), none a multiple of any
        mr, mc, nc, nr = _BLOCKS["MR"], _BLOCKS["MC"], _BLOCKS["NC"], _nr(precision)
        for n, m in [(mr - 1, nr - 1), (mr + 1, nr + 1), (mc + mr + 1, 3), (2, nc + nr + 1)]:
            a, b = mat(n, n, 3, precision), mat(m, 3, m, precision)
            want = _want(a, b)
            for name, a_l, b_l in _layouts(a, b):
                assert np.array_equal(bits(matmul(a_l, b_l)), bits(want)), (n, m, name)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_nonfinite_in_a_later_inner_block(self, precision):
        # inf and NaN enter only after the first k block, so the partial
        # sums stored by the first block are finite and the reload carries
        # them into the non-finite result
        kc = _BLOCKS["KC"]
        a, b = mat(3, 10, 2 * kc + 3, precision), mat(4, 2 * kc + 3, 21, precision)
        a[2, kc + 1] = np.inf
        b[kc + 5, 3], b[2 * kc, 7] = -np.inf, _NAN
        with np.errstate(invalid="ignore"):
            first_block = _want(a[:, :kc], b[:kc])
            want = _want(a, b)
            for name, a_l, b_l in _layouts(a, b):
                assert np.array_equal(bits(matmul(a_l, b_l)), bits(want)), name
        assert np.isfinite(first_block).all()
        assert not np.isfinite(want[2]).any() and not np.isfinite(want[:, [3, 7]]).any()

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_narrow_products(self, precision):
        # m <= NR runs the tile on the rows of a read in place, MR at a time;
        # m runs up to and one past NR, n ends off a multiple of MR, inner
        # one short of, onto and past KC.  At m == NR a whole group of MR
        # rows runs the tile straight into out, and the a_column_stride_mr
        # layout reads a with the stride of a packed strip there
        nr, kc = _nr(precision), _BLOCKS["KC"]
        for m in (1, 3, nr - 1, nr, nr + 1):
            for inner in (kc - 1, kc, kc + 1, 2 * kc + 3):
                a, b = mat(m, 2 * _BLOCKS["MR"] - 1, inner, precision), mat(inner, inner, m, precision)
                want = _want(a, b)
                for name, a_l, b_l in _layouts(a, b):
                    assert np.array_equal(bits(matmul(a_l, b_l)), bits(want)), (m, inner, name)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_narrow_inner_block_edges(self, precision):
        # a narrow product packs b in blocks of _narrow_kc inner indices and
        # resumes each row's sum from out after the first
        kb = _narrow_kc(precision)
        for inner in (kb - 1, kb, kb + 1, 2 * kb + 3):
            a, b = mat(inner, 5, inner, precision), mat(inner + 1, inner, 2, precision)
            want = _want(a, b)
            for name, a_l, b_l in _layouts(a, b):
                assert np.array_equal(bits(matmul(a_l, b_l)), bits(want)), (inner, name)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_narrow_nonfinite_in_a_later_inner_block(self, precision):
        # as test_nonfinite_in_a_later_inner_block, for a narrow product
        kb = _narrow_kc(precision)
        a, b = mat(5, 6, 2 * kb + 3, precision), mat(6, 2 * kb + 3, 3, precision)
        a[2, kb + 1] = np.inf
        b[kb + 5, 1], b[2 * kb, 2] = -np.inf, _NAN
        with np.errstate(invalid="ignore"):
            first_block = _want(a[:, :kb], b[:kb])
            want = _want(a, b)
            for name, a_l, b_l in _layouts(a, b):
                assert np.array_equal(bits(matmul(a_l, b_l)), bits(want)), name
        assert np.isfinite(first_block).all()
        assert not np.isfinite(want[2]).any() and not np.isfinite(want[:, [1, 2]]).any()

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_narrow_one_vector_products(self, precision):
        # products as narrow as one vector run the tile's passes of two
        # vectors over MR rows; n crosses one and two of those row groups, m
        # runs past one vector of every width
        r = _BLOCKS["MR"]
        for m in (1, 2, 3, 4, 5, 8, 9, 16, 17):
            for n in (1, r - 1, r, r + 1, 2 * r + 3):
                a, b = mat(n, n, 37, precision), mat(m, 37, m, precision)
                want = _want(a, b)
                for name, a_l, b_l in _layouts(a, b):
                    assert np.array_equal(bits(matmul(a_l, b_l)), bits(want)), (m, n, name)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_short_products(self, precision):
        # fewer rows than a tile and more columns than NR (a row vector
        # times a matrix, as the normalizer's column sums) run every tile
        # through the edge copy; inner crosses KC, m crosses NC, non-finite
        # values, -0 products and a resumed sum keep the triple loop's bits
        nr, kc, nc = _nr(precision), _BLOCKS["KC"], _BLOCKS["NC"]
        for n in range(1, _BLOCKS["MR"]):
            for inner, m in [(1, nr + 1), (kc + 1, nr + 3), (3, nc + 5)]:
                a, b = mat(n, n, inner, precision), mat(m, inner, m, precision)
                with np.errstate(invalid="ignore"):
                    a, b = _with_nonfinite(n, a), _with_nonfinite(m, b)
                    want = _want(a, b)
                    for name, a_l, b_l in _layouts(a, b):
                        assert np.array_equal(bits(matmul(a_l, b_l)), bits(want)), (n, inner, m, name)
            zeros = matmul(np.full((n, 9), -0.0, dtype=a.dtype), np.ones((9, nr + 1), dtype=a.dtype))
            assert not zeros.any() and not np.signbit(zeros).any()
            a, b = mat(n + 7, n, 300, precision), mat(n + 8, 300, nr + 5, precision)
            start = matmul(a[:, :130], b[:130])
            assert np.array_equal(bits(matmul(a[:, 130:], b[130:], start=start)),
                                  bits(matmul(a, b)))

    def test_threads_share_no_packing_buffers(self):
        # ctypes releases the GIL, so calls from several threads run the
        # kernel at once; each thread packs into its own buffers
        cases = [(mat(1, 300, 600), mat(2, 600, 530)),
                 (mat(3, 1100, 64, "f32").T, mat(4, 1100, 70, "f32")),
                 (mat(5, 257, 300), mat(6, 300, 1030).T.copy().T),
                 (mat(7, 70, 520, "f32"), mat(8, 520, 300, "f32"))]
        want = [matmul(a, b) for a, b in cases]
        results = [[] for _ in cases]

        def run(i):
            for _ in range(4):
                results[i].append(matmul(*cases[i]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, (w, got) in enumerate(zip(want, results)):
            assert len(got) == 4 and all(np.array_equal(bits(g), bits(w)) for g in got), i


class TestCompiledBuild:
    @pytest.mark.parametrize("compiler", ["missing", "failing"])
    def test_no_build_falls_back_with_one_warning(self, monkeypatch, tmp_path, compiler):
        fresh_backend(monkeypatch, tmp_path)
        cc = tmp_path / "cc"
        if compiler == "failing":
            # it answers the macro probe and fails the build
            cc.write_text('#!/bin/sh\ncase "$*" in *-dM*) echo "#define __VERSION__ 1"; exit 0;; esac\n'
                          'echo "fake-cc: cannot compile" >&2\nexit 1\n')
            cc.chmod(0o755)
        monkeypatch.setattr(numerics, "_CC", str(cc))
        a, b = mat(0, 5, 6), mat(1, 6, 3)
        z, bank = mat(2, 9, 4), make_kernel_bank(3, 4, (0.5, 1.0, 3.0))
        v, dwc = mat(3, 6, 4), DwcParams(kernels=mat(4, 4, 9).reshape(4, 3, 3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mapped = dmk_forward(z, bank)[0]
            conv = dwc_forward(v, (2, 3), dwc)
            first, second = matmul(a, b), matmul(a, b)
            backend = numerics.matmul_backend()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "numpy loop" in str(caught[0].message)
        if compiler == "failing":
            assert "cannot compile" in str(caught[0].message)
            assert list(tmp_path.joinpath("dydila").iterdir()) == []
        assert backend == "numpy"
        assert np.array_equal(first, naive_matmul(a, b)) and np.array_equal(second, first)
        assert np.array_equal(bits(mapped), bits(per_token_kernel(z, bank)[0]))
        assert np.array_equal(bits(conv), bits(explicit_dwc(v, (2, 3), dwc.kernels, True)))

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "digest_only"])
    def test_damaged_cache_is_rebuilt(self, monkeypatch, tmp_path, damage):
        needs_compiler()
        fresh_backend(monkeypatch, tmp_path)
        path, flags = numerics._cache_path()
        numerics._build(path, flags)
        data = path.read_bytes()
        path.write_bytes({"garbage": b"\x7fELF not a shared object",
                          "truncated": data[: len(data) // 2],
                          "digest_only": data[-numerics._DIGEST_BYTES:]}[damage])
        assert not numerics._sealed(path)
        a, b = mat(2, 9, 5), mat(3, 5, 4)
        z, bank = mat(4, 9, 4), make_kernel_bank(5, 4, (0.5, 1.0, 3.0))
        v, dwc = mat(6, 6, 4), DwcParams(kernels=mat(7, 4, 9).reshape(4, 3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(bits(dmk_forward(z, bank)[0]), bits(per_token_kernel(z, bank)[0]))
            assert np.array_equal(matmul(a, b), naive_matmul(a, b))
            assert np.array_equal(bits(dwc_forward(v, (3, 2), dwc)),
                                  bits(explicit_dwc(v, (3, 2), dwc.kernels, True)))
        assert numerics.matmul_backend() == "c"
        assert numerics._sealed(path)
        assert [p.name for p in tmp_path.joinpath("dydila").iterdir()] == [path.name]
        built = path.read_bytes()
        assert all(name in built for name in (b"matmul_double", b"focused_double",
                                              b"dwc_double", b"dwc_float"))

    def test_cache_is_keyed_on_flags_and_macros(self, monkeypatch):
        needs_compiler()
        path, _ = numerics._cache_path()
        with monkeypatch.context() as m:
            m.setattr(numerics, "_CFLAGS", numerics._CFLAGS + ("-O2",))
            assert numerics._cache_path()[0] != path
        # the same flags on a host whose probe names other instruction sets
        monkeypatch.setattr(numerics, "_run_cc", lambda *args, stdin="": "#define __AVX2__ 1\n")
        assert numerics._cache_path()[0] != path

    @staticmethod
    def _narrower_build(monkeypatch, tmp_path, disabled):
        # build as a host without the disabled instruction sets compiles:
        # -mno-<isa> appended to the production flags
        needs_compiler()
        fresh_backend(monkeypatch, tmp_path)
        flags = tuple(f"-mno-{isa}" for isa in disabled)
        monkeypatch.setattr(numerics, "_CFLAGS", numerics._CFLAGS + flags)
        assert numerics._cache_path()[1] == numerics._CFLAGS
        macros = numerics._run_cc(*numerics._CFLAGS, "-dM", "-E", "-x", "c", "-")
        assert not any(f"__{isa.upper()}__" in macros for isa in disabled)
        assert numerics.matmul_backend() == "c"

    @pytest.mark.skipif(platform.machine() != "x86_64", reason="-mno-avx512f is an x86 flag")
    @pytest.mark.parametrize("disabled", [("avx512f",), ("avx512f", "avx2")])
    def test_narrower_tiles(self, monkeypatch, tmp_path, disabled):
        # the 32-byte and the 16-byte build, as a host without AVX-512 (and
        # AVX2) compiles them: the tile at the block edges, the narrow
        # product and the DWC give the numpy loops' bits at every width
        self._narrower_build(monkeypatch, tmp_path, disabled)
        kc, mr, nc = _BLOCKS["KC"], _BLOCKS["MR"], _BLOCKS["NC"]
        for precision in ("f32", "f64"):
            nr, kb = _nr(precision), _narrow_kc(precision)
            for n, inner, m in [(mr + 1, kc + 1, nr + 3), (2, 3, nc + 1),
                                (mr + 1, kc + 1, nr), (mr + 3, 7, nr - 1), (3, kb + 1, 1)]:
                a, b = mat(n, n, inner, precision), mat(m, inner, m, precision)
                want = numerics._matmul_numpy(a, b)
                for name, a_l, b_l in _layouts(a, b):
                    assert np.array_equal(bits(matmul(a_l, b_l)), bits(want)), (precision, n, name)
            k = mat(1, 300, 40, precision)
            assert np.array_equal(bits(matmul(k.T, k)), bits(numerics._matmul_numpy(k.T, k)))
            v, taps = mat(8, 12, 37, precision), mat(9, 37, 9, precision).reshape(37, 3, 3)
            for identity in (True, False):
                assert np.array_equal(bits(numerics._dwc(v, (4, 3), taps, identity)),
                                      bits(numerics._dwc_numpy(v, (4, 3), taps, identity)))

    @pytest.mark.skipif(platform.machine() != "x86_64", reason="-mno-avx512f is an x86 flag")
    @pytest.mark.parametrize("disabled", [("avx512f",), ("avx512f", "avx2")],
                             ids=['"avx2", "default"', "None"])
    def test_focused_map_at_narrower_vector_widths(self, monkeypatch, tmp_path, disabled):
        # the owned pow and the focused map vectorise at every width: a build
        # whose widest vectors are AVX2's, or the default 16-byte ones, gives
        # the numpy fallback's bits
        self._narrower_build(monkeypatch, tmp_path, disabled)
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.uniform(0, 1, 3000), np.exp2(-rng.uniform(0, 1074, 3000)), [1.0]])
        g = 16 - rng.uniform(0, 16, x.size)
        for dtype in (np.float64, np.float32):
            xs = x.astype(dtype)
            xs[xs == 0] = 1.0
            with np.errstate(invalid="ignore", over="ignore"):
                want = numerics._pow01_numpy(xs.astype(np.float64), g).astype(dtype)
            assert np.array_equal(bits(numerics._pow01(xs, g)), bits(want)), dtype
        for precision in ("f32", "f64"):
            z = mat(7, 41, 37, precision)
            z[3] = -np.abs(z[3])
            z[5] *= 1e-30
            gamma = np.resize(np.array([0.5, 1.0, 3.0, 8.0, 15.5]), 41)
            assert np.array_equal(bits(numerics._focused_map(z, gamma)),
                                  bits(numerics._focused_numpy(z, gamma))), precision

    def test_concurrent_cold_builds(self, tmp_path):
        needs_compiler()
        script = (
            "from dydila.numerics import SeededRng, matmul, matmul_backend\n"
            "from dydila.oracle import naive_matmul\n"
            "import numpy as np\n"
            "rng = SeededRng(3)\n"
            "a, b = rng.uniform((37, 29), -1, 1), rng.uniform((29, 41), -1, 1)\n"
            "print(matmul_backend(), np.array_equal(matmul(a, b), naive_matmul(a, b)))\n"
        )
        env = {**cli_env(), "XDG_CACHE_HOME": str(tmp_path)}
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for _ in range(2)]
        results = [p.communicate(timeout=300) for p in procs]
        for p, (out, err) in zip(procs, results):
            assert p.returncode == 0, err
            assert out.split() == ["c", "True"], out + err
        assert len(list(tmp_path.joinpath("dydila").iterdir())) == 1


class TestElementwise:
    def test_relu_hand(self):
        m = np.array([[-1.0, 0.0, 2.5], [3.0, -0.5, 0.0]], dtype=np.float64)
        assert np.array_equal(relu(m), [[0.0, 0.0, 2.5], [3.0, 0.0, 0.0]])

    def test_relu_nonnegative_unchanged(self):
        m = np.abs(mat(5, 6, 6))
        assert np.array_equal(relu(m), m)

    def test_row_l2_norm_hand(self):
        m = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], [3.0, 4.0, 0.0, 0.0]],
                     dtype=np.float64)
        assert np.array_equal(row_l2_norm(m), [2.0, 0.0, 5.0])

    def test_softmax_uniform(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]], dtype=np.float64))
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_softmax_log_weights(self):
        out = softmax_rows(np.array([[0.0, float(np.log(3.0))]], dtype=np.float64))
        assert_close(out, [[0.25, 0.75]], 1e-15, "softmax of (0, ln 3)")

    def test_softmax_rows_normalized(self):
        m = mat(9, 32, 17, low=-50.0, high=50.0)
        out = softmax_rows(m)
        assert np.all(out >= 0) and np.all(out <= 1)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    def test_softmax_no_overflow_at_extreme_logits(self):
        out = softmax_rows(np.array([[700.0, 710.0, 0.0]], dtype=np.float64))
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
    def test_softmax_of_zero_width_names_the_empty_key_set(self, shape):
        with pytest.raises(ContractViolation, match="key set is empty"):
            softmax_rows(np.zeros(shape))


class TestSeededRng:
    def test_reproducible(self):
        a = SeededRng(42).uniform((5, 5), -1, 1)
        b = SeededRng(42).uniform((5, 5), -1, 1)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        assert not np.array_equal(
            SeededRng(0).uniform((5, 5), -1, 1), SeededRng(1).uniform((5, 5), -1, 1)
        )

    def test_weight_bounds(self):
        w = SeededRng(3).init_weight(64, 16)
        bound = 1.0 / np.sqrt(64)
        assert w.shape == (64, 16)
        assert np.all(np.abs(w) <= bound)

    def test_f32_cast_of_f64_stream(self):
        w64 = SeededRng(5).init_weight(8, 8, "f64")
        w32 = SeededRng(5).init_weight(8, 8, "f32")
        assert np.array_equal(w32, w64.astype(np.float32))

    def test_f64_draw_is_not_copied(self):
        # the f64 stream is returned as drawn; a second copy would peak at two arrays
        n, d = 4096, 384
        tracemalloc.start()
        try:
            x = SeededRng(0).tokens(n, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.dtype == np.float64
        assert peak < 1.5 * x.nbytes, f"peak {peak / x.nbytes:.2f} arrays"

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "x"])
    def test_bad_seed(self, bad):
        with pytest.raises(ConfigError):
            SeededRng(bad)


class TestValidation:
    def test_unknown_precision(self):
        with pytest.raises(ConfigError, match="precision"):
            resolve_dtype("f16")
