"""The self-check suite's one comparison rule, its desk stack, and that the suite
notices a gamma or lambda routed to the wrong candidate or a weight that is not rebuilt."""

import dataclasses

import numpy as np
import pytest

import dydila.attention
import dydila.checks
import dydila.differential
from dydila.checks import _compared, _desk_stack, run_checks
from dydila.cli import main
from dydila.config import RunConfig, init_params, lambda_for_block
from dydila.fileio import stack_entries
from dydila.kernels import focused_rows
from dydila.numerics import SeededRng
from dydila.routing import route_argmax, route_pair


def _dmk_next_gamma(z, bank, out=None):
    """kernels.dmk_forward, but each routed row gets the next candidate's gamma."""
    routes = route_argmax(z, bank.router)
    mapped = np.zeros_like(z)
    n = len(bank.gammas)
    for f in range(n):
        rows = np.flatnonzero(routes.indices == f)
        if rows.size:
            mapped[rows] = focused_rows(z[rows], bank.gammas[(f + 1) % n])
    if out is None:
        return mapped, routes
    out[...] = mapped
    return out, routes


def _routed_next_lambda(a, b, router, lambdas):
    """_routed_lambdas, but each token reads the next candidate's lambda."""
    routes = route_pair(a, b, router)
    table = np.asarray(lambdas, dtype=a.dtype)
    return table[(routes.indices + 1) % len(lambdas)], routes


@pytest.mark.parametrize("module, name, mutant", [
    (dydila.attention, "dmk_forward", _dmk_next_gamma),
    (dydila.differential, "_routed_lambdas", _routed_next_lambda),
], ids=["gamma", "lambda"])
@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_misrouted_candidate_fails_the_composed_check(monkeypatch, capsys, module, name,
                                                      mutant, precision):
    assert main(["check", "--preset", "small", "--precision", precision]) == 0
    capsys.readouterr()
    monkeypatch.setattr(module, name, mutant)
    assert main(["check", "--preset", "small", "--precision", precision]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if " FAIL " in line]
    assert any("composed_pipeline_vs_oracle" in line for line in failed), failed


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("preset", ["small", "base", "large"])
def test_mapwise_presets_pass_every_check(preset, precision):
    # with each map normalized on its own, map-wise is finite at preset
    # depth (configured_depth_finite) and matches the composed oracle
    cfg = RunConfig.from_dict({"preset": preset, "precision": precision, "variant": "map-wise"})
    results = run_checks(cfg)
    assert [r.name for r in results if not r.passed] == []
    assert {"configured_depth_finite", "composed_pipeline_vs_oracle"} <= {r.name for r in results}


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_desk_stack_spreads_only_gammas_and_lambdas(precision):
    cfg = RunConfig(preset="custom", dim=8, heads=2, blocks=3, n_projectors=2,
                    n_kernel_factors=3, n_lambda_factors=4, gamma_init=2.5,
                    lambda_schedule="increasing", precision=precision)
    desk = _desk_stack(cfg, SeededRng(cfg.seed))
    for b, block in enumerate(desk.blocks):
        for hp in block.head_params:
            for bank in (hp.kernel_q, hp.kernel_k, hp.kernel_qp, hp.kernel_kp):
                assert bank.gammas == tuple((2.5 * np.linspace(0.5, 1.5, 3)).tolist())
            lam = lambda_for_block(cfg, b)
            assert hp.diff.lambdas == tuple(lam + 0.05 * i for i in range(4))
    drawn = init_params(cfg, SeededRng(cfg.seed))
    for (name, want), (_, got) in zip(stack_entries(drawn), stack_entries(desk), strict=True):
        if not name.endswith(("/gammas", "/lambdas")):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


class TestCompared:
    """Tolerance 0 is bit-exact: same dtype, shape and bits, and no NaN."""

    def test_equal_arrays_pass(self):
        a = np.array([[1.5, -0.0], [np.inf, 2.0**-1074]])
        row = _compared("row", a, a.copy(), 0.0)
        assert row.passed and row.detail == "bit-exact"

    @pytest.mark.parametrize("reference, candidate", [
        (np.array([0.0, 1.0]), np.array([-0.0, 1.0])),
        (np.array([1.0, np.nan]), np.array([1.0, np.nan])),
        (np.array([1.0, 2.0]), np.array([1.0, 2.0], dtype=np.float32)),
        (np.array([1.0, 2.0]), np.array([[1.0, 2.0]])),
    ], ids=["signed_zero", "same_nan", "dtype", "shape"])
    def test_bit_exact_fails(self, reference, candidate):
        assert np.array_equal(reference.ravel(), candidate.ravel(), equal_nan=True)
        row = _compared("row", reference, candidate, 0.0)
        assert not row.passed and "not bit-exact" in row.detail

    def test_nonzero_tolerance_is_normwise(self):
        a = np.array([1.0, -1.0])
        assert _compared("row", a, -a, 1e-3, note="sign:").detail.startswith("sign: FAIL: ")
        near = _compared("row", a, a + 1e-6, 1e-3)
        assert near.passed and "max_rel=1.000e-06" in near.detail
        assert not _compared("row", a, a, 1e-3, also=False).passed


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_determinism_sees_every_rebuilt_weight(monkeypatch, precision):
    # the rebuilt stack differs from the first only in the last bit of one
    # DWC tap; every other row, and the same run unperturbed, must pass
    real, calls = _desk_stack, []

    def perturbed(cfg, rng):
        stack = real(cfg, rng)
        calls.append(stack)
        if len(calls) < 2:
            return stack
        block = stack.blocks[0]
        kernels = block.dwc.kernels.copy()
        kernels[0, 0, 0] = np.nextafter(kernels[0, 0, 0], np.inf)
        block = dataclasses.replace(block, dwc=dataclasses.replace(block.dwc, kernels=kernels))
        return dataclasses.replace(stack, blocks=(block, *stack.blocks[1:]))

    cfg = RunConfig.from_dict({"preset": "small", "precision": precision})
    assert all(r.passed for r in run_checks(cfg))
    monkeypatch.setattr(dydila.checks, "_desk_stack", perturbed)
    failed = [r.name for r in run_checks(cfg) if not r.passed]
    assert len(calls) == 2 and failed == ["determinism"]


def test_column_sum_row_sees_numpys_pairwise_sum(monkeypatch):
    # np.sum of an F-ordered array adds pairwise, not in ascending row order:
    # a last-bit difference only the bit-exact f64 row must see
    def numpy_sums(b, v, normalize):
        return (b.T, np.sum(b, axis=0)[None, :])

    cfg = RunConfig.from_dict({"preset": "small"})
    monkeypatch.setattr(dydila.checks, "_key_state", numpy_sums)
    failed = [r.name for r in run_checks(cfg) if not r.passed]
    assert failed == ["key_state_column_sums_vs_triple_loop"]
