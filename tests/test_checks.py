"""The self-check suite must notice a gamma or lambda routed to the wrong candidate."""

import numpy as np
import pytest

import dydila.attention
import dydila.differential
from dydila.cli import main
from dydila.kernels import focused_rows
from dydila.routing import route_argmax, route_pair


def _dmk_next_gamma(z, bank):
    """dmk_forward, but each routed row gets the next candidate's gamma."""
    routes = route_argmax(z, bank.router)
    out = np.zeros_like(z)
    n = bank.n_factors
    for f in range(n):
        rows = np.flatnonzero(routes.indices == f)
        if rows.size:
            out[rows] = focused_rows(z[rows], bank.gammas[(f + 1) % n])
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
