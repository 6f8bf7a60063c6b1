"""Dynamic differential linear attention: numerics, diagnostics, benchmarks."""

import importlib

from .numerics import (
    ConfigError,
    ContractViolation,
    SeededRng,
    matmul,
    matmul_backend,
    relu,
    row_l2_norm,
    softmax_rows,
)
from .routing import RouteAssignment, Router, route_argmax
from .projection import ProjectorBank, dpm_forward, project_shared
from .kernels import KernelBank, dmk_forward, focused_rows
from .differential import (
    DifferentialBank,
    expand_tokenwise,
    mapwise_forward,
    tdo_forward,
)
from .attention import (
    AttentionStack,
    BlockDiagnostics,
    DwcParams,
    DydilaParams,
    HeadParams,
    dwc_forward,
    extract_attention_row,
    linear_attention,
    multihead_forward,
    reparam_merge,
    softmax_attention,
    stack_forward,
)
from .config import PRESETS, RunConfig, init_params, lambda_for_block, load_config, save_config
from .flops import core_crossover, flops_estimate

__version__ = "0.1.0"

# The oracles, the self-check suite and the bench harness load on first use:
# a forward pass needs none of them.  A name is looked up in its module on
# every access, never stored here, so a binding replaced in that module (a
# test's monkeypatch, a tracer's wrapper) is what ``dydila.<name>`` returns.
_LAZY = {
    "ORACLE_CAP": "oracle",
    "OracleCapError": "oracle",
    "OracleReport": "oracle",
    "compare": "oracle",
    "BenchRecord": "bench",
    "bench_run": "bench",
    "CheckResult": "checks",
    "run_checks": "checks",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *_LAZY])
