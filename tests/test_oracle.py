import ast
from pathlib import Path

import numpy as np
import pytest

import dydila.oracle
from dydila.numerics import ContractViolation
from dydila.oracle import (
    ORACLE_CAP,
    OracleCapError,
    compare,
    explicit_dwc,
    explicit_linear_attention,
    explicit_mapwise,
    explicit_routes,
    explicit_tdo,
    naive_focused_row,
    naive_matmul,
)
from dydila.routing import Router

from conftest import mat


class TestCompare:
    def test_identical_arrays_pass(self):
        a = mat(0, 5, 5)
        rep = compare(a, a.copy(), 0.0)
        assert rep.passed and rep.max_abs_error == 0.0 and rep.mismatch_location is None

    def test_relative_error_is_normwise(self):
        ref = np.array([[100.0, 0.0]])
        cand = np.array([[100.0, 1e-9]])
        rep = compare(ref, cand, 1e-10)
        # abs error 1e-9 against scale 100 -> rel 1e-11
        assert rep.passed
        assert rep.max_rel_error == pytest.approx(1e-11)

    def test_failure_reports_location(self):
        ref = np.zeros((3, 4))
        ref[0, 0] = 1.0
        cand = ref.copy()
        cand[2, 1] += 1e-3
        rep = compare(ref, cand, 1e-6)
        assert not rep.passed
        assert rep.mismatch_location == (2, 1)

    def test_zero_reference_tiny_error_passes_outright(self):
        rep = compare(np.zeros((2, 2)), np.full((2, 2), 1e-31), 0.0)
        assert rep.passed

    def test_zero_reference_large_error_fails(self):
        rep = compare(np.zeros((2, 2)), np.full((2, 2), 1e-3), 1e-6)
        assert not rep.passed

    def test_str_contains_verdict(self):
        rep = compare(np.ones(3), np.ones(3), 1e-12)
        assert "pass" in str(rep)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            compare(np.zeros(3), np.zeros(4), 1e-6)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ContractViolation):
            compare(np.zeros(3), np.zeros(3), -1.0)


class TestNaiveMatmul:
    def test_hand_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(naive_matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_cap_refusal(self):
        big = np.zeros((ORACLE_CAP + 1, 2))
        with pytest.raises(OracleCapError):
            naive_matmul(big, np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            naive_matmul(np.zeros((2, 3)), np.zeros((2, 3)))


class TestNaiveFocusedRow:
    def test_preserves_relu_norm(self):
        row = mat(1, 1, 16)[0]
        out = naive_focused_row(row, 3.0)
        relu = np.maximum(row, 0.0)
        assert np.sqrt(np.sum(out * out)) == pytest.approx(
            np.sqrt(np.sum(relu * relu)), rel=1e-13
        )

    def test_dead_row_is_zero(self):
        assert np.array_equal(naive_focused_row(np.array([-1.0, -2.0]), 3.0), [0.0, 0.0])


class TestExplicitRoutes:
    def test_tie_picks_smallest_index(self):
        router = Router(np.zeros((3, 4)))
        idx = explicit_routes(mat(2, 6, 3), router)
        assert np.array_equal(idx, np.zeros(6, dtype=np.int64))

    def test_hand_logits(self):
        # one-hot tokens read router columns directly
        router = Router(np.array([[0.1, 0.9], [0.8, 0.2]]))
        idx = explicit_routes(np.eye(2), router)
        assert np.array_equal(idx, [1, 0])


class TestExplicitMaps:
    def test_linear_attention_cap(self):
        big = np.zeros((ORACLE_CAP + 1, 2))
        with pytest.raises(OracleCapError):
            explicit_linear_attention(big, big, big)

    def test_tdo_cap(self):
        big = np.zeros((ORACLE_CAP + 1, 2))
        lam = np.zeros(ORACLE_CAP + 1)
        with pytest.raises(OracleCapError):
            explicit_tdo(big, big, big, big, big, lam, lam)

    def test_mapwise_caps_the_keys(self):
        q, keys = np.zeros((2, 2)), np.zeros((ORACLE_CAP + 1, 2))
        with pytest.raises(OracleCapError):
            explicit_mapwise(q, q, keys, keys, keys, np.zeros(2))

    def test_dwc_hand_example(self):
        # 1x2 grid, kernel all zeros except right neighbor tap
        kernels = np.zeros((1, 3, 3))
        kernels[0, 1, 2] = 1.0  # (di=1, dj=2): same row, one column right
        v = np.array([[3.0], [5.0]])
        out = explicit_dwc(v, (1, 2), kernels, identity_branch=False)
        assert np.array_equal(out[:, 0], [5.0, 0.0])

    def test_dwc_grid_mismatch(self):
        with pytest.raises(ContractViolation):
            explicit_dwc(np.zeros((5, 1)), (2, 2), np.zeros((1, 3, 3)), identity_branch=False)


def test_imports_nothing_that_computes_from_production_code():
    # the oracles are the independent side of every comparison: of the
    # package they take only the pow's tables, the error type and the Router
    # type (whose weights they read); an absolute import counts as well
    tree = ast.parse(Path(dydila.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("dydila")):
            module = (node.module or "").removeprefix("dydila").lstrip(".")
            imported |= {f"{module}.{a.name}" if module else a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "dydila"}
    assert imported == {"_pow_tables", "numerics.ContractViolation", "routing.Router"}
