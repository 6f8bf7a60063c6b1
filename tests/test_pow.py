"""The owned pow behind the focused map: x**g for x in (0, 1] and g in
(0, 16], in fixed-order IEEE arithmetic.  TestPow runs on the numpy mirror,
TestPowCompiled reruns it on the compiled kernel; both are held to the
oracle's scalar transcription bit for bit and to the host libm within 1 ulp."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import dydila._pow_tables as pow_tables
import dydila.numerics as numerics
from dydila.oracle import _pow01 as oracle_pow

from conftest import bits, needs_compiler

_SUBNORMAL_MIN = 5e-324
_NORMAL_MIN = 2.0**-1022


def _samples(seed, n):
    """x spread over (0, 1]: uniform, log-uniform down to the least
    subnormal, just below 1, and 1 itself; g uniform in (0, 16] with a few
    tiny ones."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(0, 1, n), np.exp2(-rng.uniform(0, 1074, n)),
                        1 - rng.uniform(0, 1e-3, n), [1.0, _SUBNORMAL_MIN, _NORMAL_MIN]])
    x[x == 0] = _SUBNORMAL_MIN
    g = 16 - rng.uniform(0, 16, x.size)
    g[:8] = rng.uniform(0, 1e-6, 8)
    return x, g


def _ulps(a, b):
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestPow:
    @pytest.fixture(autouse=True)
    def backend(self, monkeypatch):
        monkeypatch.setattr(numerics, "_c_kernels", {})

    def test_one_to_any_power_is_one(self):
        g = np.array([2.0**-40, 1e-6, 0.5, 1.0, 2.5, 3.0, 8.0, 15.999, 16.0])
        for dtype in (np.float64, np.float32):
            got = numerics._pow01(np.ones(g.size, dtype=dtype), g)
            assert got.dtype == dtype and np.array_equal(got, np.ones(g.size)), dtype
        assert all(oracle_pow(1.0, float(e)) == 1.0 for e in g)

    def test_within_one_ulp_of_libm(self):
        # the README's 1e6-sample measurement, on fewer samples
        x, g = _samples(0, 4000)
        got = numerics._pow01(x, g)
        want = np.array([math.pow(a, b) for a, b in zip(x, g)])
        assert _ulps(got, want).max() <= 1

    def test_bit_identical_to_oracle(self):
        x, g = _samples(1, 700)
        got = numerics._pow01(x, g)
        want = np.array([oracle_pow(a, b) for a, b in zip(x, g)])
        assert np.array_equal(bits(got), bits(want))

    def test_subnormal_inputs_results_and_underflow(self):
        # subnormal x; 2^-64 to powers giving 2^-1040.25 (subnormal) and
        # 2^-1074.4 (rounds to the least subnormal); 2^-1200 underflows to +0
        x = np.array([_SUBNORMAL_MIN, 2.0**-1060, 3e-310, _NORMAL_MIN,
                      2.0**-64, 2.0**-64, 0.5, 2.0**-600])
        g = np.array([0.01, 0.5, 0.999, 1.0, 1040.25 / 64, 1074.4 / 64, 16.0, 2.0])
        got = numerics._pow01(x, g)
        want = np.array([math.pow(a, b) for a, b in zip(x, g)])
        assert _ulps(got, want).max() <= 1
        assert got[3] == _NORMAL_MIN and 0 < got[4] < _NORMAL_MIN and got[5] == _SUBNORMAL_MIN
        assert got[6] == 0.5**16 and got[7] == 0.0 and not np.signbit(got[7])
        assert np.array_equal(bits(got), bits(np.array([oracle_pow(a, b) for a, b in zip(x, g)])))

    def test_f32_rounds_the_double_result(self):
        x, g = _samples(2, 300)
        x32 = x.astype(np.float32)
        keep = x32 > 0
        got = numerics._pow01(x32[keep], g[keep])
        want = numerics._pow01(x32[keep].astype(np.float64), g[keep]).astype(np.float32)
        assert got.dtype == np.float32 and np.array_equal(bits(got), bits(want))


class TestPowCompiled(TestPow):
    """Every TestPow case on the compiled pow01, plus bit equality with the
    numpy mirror over many samples."""

    @pytest.fixture(autouse=True)
    def backend(self):
        needs_compiler()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_numpy_mirror(self, dtype):
        x, g = _samples(3, 20000)
        x = x.astype(dtype)
        keep = x > 0
        x, g = x[keep], g[keep]
        with np.errstate(invalid="ignore", over="ignore"):
            want = numerics._pow01_numpy(x.astype(np.float64), g).astype(dtype)
        assert np.array_equal(bits(numerics._pow01(x, g)), bits(want))


def test_tables_regenerate_to_the_committed_module():
    path = Path(__file__).resolve().parent.parent / "scripts" / "pow_tables.py"
    spec = importlib.util.spec_from_file_location("pow_tables_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.render() == Path(pow_tables.__file__).read_text()
