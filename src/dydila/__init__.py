"""Dynamic differential linear attention: numerics, diagnostics, benchmarks."""

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
from .oracle import ORACLE_CAP, OracleCapError, OracleReport, compare
from .config import PRESETS, RunConfig, init_params, lambda_for_block, load_config, save_config
from .flops import core_crossover, flops_estimate
from .bench import BenchRecord, bench_run
from .checks import CheckResult, run_checks

__version__ = "0.1.0"
