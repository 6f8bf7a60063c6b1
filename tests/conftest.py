"""Shared helpers for the test suite: seeded builders, a close-assert and the
environment for CLI subprocesses."""

import os
from pathlib import Path

import numpy as np
import pytest

import dydila
import dydila.numerics as numerics
import dydila.routing as routing
from dydila.attention import DwcParams, DydilaParams, HeadParams
from dydila.differential import DifferentialBank
from dydila.kernels import KernelBank
from dydila.numerics import SeededRng
from dydila.oracle import compare
from dydila.projection import ProjectorBank
from dydila.routing import Router


def assert_close(actual, expected, tol, msg=""):
    """``oracle.compare``'s normwise rule, with expected as the reference, as an assert."""
    assert np.shape(actual) == np.shape(expected), (
        f"{msg} shape {np.shape(actual)} != {np.shape(expected)}")
    report = compare(expected, actual, tol)
    assert report.passed, f"{msg} {report}"


def needs_compiler():
    """Skip the calling test when the compiled kernels did not build."""
    if numerics.matmul_backend() != "c":
        pytest.skip(f"compiled kernels did not build: {numerics._c_unavailable}")


def fresh_backend(monkeypatch, cache_dir):
    """Make the next kernel call resolve its backend again, building into cache_dir."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_dir))
    monkeypatch.setattr(numerics, "_c_kernels", None)
    monkeypatch.setattr(numerics, "_c_unavailable", "")


@pytest.fixture(params=["c", "numpy"])
def backend(request, monkeypatch):
    """Run the test on the compiled kernels ("c", skipped when they did not
    build) and on the numpy loops ("numpy"); the value is the backend's name.
    A test that wants the backend's id elsewhere in its name parametrizes it
    with ``indirect=True``."""
    if request.param == "c":
        needs_compiler()
    else:
        monkeypatch.setattr(numerics, "_c_kernels", {})
    return request.param


def bits(arr):
    """The raw bits of a float array, for bitwise comparisons."""
    return arr.view(np.uint64 if arr.dtype == np.float64 else np.uint32)


def spy_logits(monkeypatch):
    """Record every routing's ``(logits, assignment)`` through a spy on
    ``routing._assign``, which takes the argmax of the logits and keeps only
    the winners; returns the log, filled as routings run."""
    real, log = routing._assign, []

    def spy(logits):
        routes = real(logits)
        log.append((logits, routes))
        return routes

    monkeypatch.setattr(routing, "_assign", spy)
    return log


def logits_of(log, routes):
    """The logits that the assignment ``routes`` was chosen from."""
    (logits,) = [lg for lg, r in log if r is routes]
    return logits


def cli_env():
    """Environment for a `python -m dydila.cli` child process.

    Puts the absolute directory holding the `dydila` imported here at the
    front of PYTHONPATH, keeping any entries already there, so the child
    imports the same package whatever its cwd: a relative PYTHONPATH=src
    stops resolving once the child runs in a temp directory.
    """
    env = dict(os.environ)
    pkg_root = str(Path(dydila.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return env


def mat(seed, n, d, precision="f64", low=-1.0, high=1.0):
    return SeededRng(seed).uniform((n, d), low, high, precision)


def make_router(seed, in_dim, n_choices, precision="f64"):
    return Router(SeededRng(seed).init_weight(in_dim, n_choices, precision))


def make_proj_bank(seed, d, n_p, precision="f64"):
    rng = SeededRng(seed)
    return ProjectorBank(
        w_q0=rng.init_weight(d, d, precision),
        w_k0=rng.init_weight(d, d, precision),
        w_v0=rng.init_weight(d, d, precision),
        w_q=tuple(rng.init_weight(d, d, precision) for _ in range(n_p)),
        w_k=tuple(rng.init_weight(d, d, precision) for _ in range(n_p)),
        router_q=Router(rng.init_weight(d, n_p, precision)),
        router_k=Router(rng.init_weight(d, n_p, precision)),
    )


def make_kernel_bank(seed, d, gammas, precision="f64"):
    return KernelBank(
        gammas=tuple(gammas),
        router=Router(SeededRng(seed).init_weight(d, len(gammas), precision)),
    )


def make_diff_bank(seed, d, lambdas, precision="f64"):
    rng = SeededRng(seed)
    lambdas = tuple(lambdas)
    return DifferentialBank(
        lambdas=lambdas,
        router_q=Router(rng.init_weight(2 * d, len(lambdas), precision)),
        router_k=Router(rng.init_weight(2 * d, len(lambdas), precision)),
        lambda_map_router=Router(rng.init_weight(2 * d, len(lambdas), precision)),
    )


def make_block(seed, d, grid, heads=1, n_p=3, gammas=(0.5, 1.0, 3.0), lambdas=(0.0, 0.01, 0.1),
               dwc=True, variant="token-wise", normalize=False, precision="f64",
               identity_branch=True):
    """Desk-scale block with varied gammas/lambdas so routing matters."""
    rng = SeededRng(seed)
    d_h = d // heads
    head_params = tuple(
        HeadParams(
            kernel_q=make_kernel_bank(seed + 10 + 7 * h, d_h, gammas, precision),
            kernel_k=make_kernel_bank(seed + 11 + 7 * h, d_h, gammas, precision),
            kernel_qp=make_kernel_bank(seed + 12 + 7 * h, d_h, gammas, precision),
            kernel_kp=make_kernel_bank(seed + 13 + 7 * h, d_h, gammas, precision),
            diff=make_diff_bank(seed + 14 + 7 * h, d_h, lambdas, precision),
        )
        for h in range(heads)
    )
    dwc_params = None
    if dwc:
        dwc_params = DwcParams(
            kernels=rng.uniform((d, 3, 3), -1.0 / 3.0, 1.0 / 3.0, precision),
            identity_branch=identity_branch,
        )
    return DydilaParams(
        proj=make_proj_bank(seed + 1, d, n_p, precision),
        head_params=head_params,
        grid=grid,
        dwc=dwc_params,
        variant=variant,
        normalize=normalize,
    )
