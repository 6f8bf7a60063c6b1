"""The benchmark's workloads: seeded inputs, the timed pass and its output.

Each workload is one closed loop with one caller: the next pass starts when
the previous one returns.  Inputs come from ``SeededRng(seed)`` the way the
``dydila`` CLI draws them (weights first, then tokens, from one stream), so
the same seed gives the same bytes.

The map-wise variant is not a workload yet: at preset depth (9 blocks) it
writes all-NaN output (small preset, N=64 and N=256, f64 and f32, 1 and 6
heads).  A single map-wise block is finite.  It becomes a workload once
stage-boundary finiteness guards land; the output check rejects NaN output
rather than skipping it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Workload:
    """A prepared workload: `forward()` is one timed pass."""

    name: str
    config: object  # dydila RunConfig: the oracle gate runs run_checks on it
    forward: Callable[[], object]
    tokens: int = 0  # N x blocks of one pass; 0 where it has no meaning
    flops: dict = field(default_factory=dict)  # flops_estimate components per pass
    precision: str = "f64"


def output_bytes(out) -> bytes:
    """Canonical bytes of a pass output: an array, or a list of CheckResults."""
    if isinstance(out, np.ndarray):
        head = f"{out.dtype.str}{out.shape}".encode()
        return head + np.ascontiguousarray(out).tobytes()
    return "\n".join(f"{r.name} {r.passed} {r.detail}" for r in out).encode()


def output_problem(out):
    """Why a pass output is unusable on its own, or None if it is fine."""
    if isinstance(out, np.ndarray):
        if not np.all(np.isfinite(out)):
            return f"non-finite output ({int(np.sum(~np.isfinite(out)))} elements)"
        return None
    failed = [r.name for r in out if not r.passed]
    return f"failed checks: {', '.join(failed)}" if failed else None


class OutputCheck:
    """Per-pass check: usable output, byte-identical to the run's first pass."""

    def __init__(self):
        self.first = None

    def __call__(self, out):
        """Returns None when the output passes, else the reason it fails."""
        digest = hashlib.sha256(output_bytes(out)).hexdigest()
        if self.first is None:
            self.first = digest
        problem = output_problem(out)
        if problem is None and digest != self.first:
            problem = "output differs from the first pass"
        return problem


def _dydila_flops(dydila, cfg, n):
    parts = dydila.flops.flops_estimate(
        "dydila", n, cfg.dim, heads=cfg.heads, n_projectors=cfg.n_projectors,
        n_kernel_factors=cfg.n_kernel_factors, n_lambda_factors=cfg.n_lambda_factors,
        dwc=cfg.dwc_enabled, normalize=cfg.normalize,
    )
    return {k: v * cfg.blocks for k, v in parts.items()}


def _block_n4096(dydila, seed):
    cfg = dydila.RunConfig(preset="small", blocks=1, grid_h=64, grid_w=64, seed=seed)
    rng = dydila.SeededRng(seed)
    block = dydila.init_params(cfg, rng).blocks[0]
    x = rng.tokens(4096, cfg.dim, cfg.precision)
    return Workload("block_n4096", cfg, lambda: dydila.multihead_forward(x, block)[0],
                    tokens=4096, flops=_dydila_flops(dydila, cfg, 4096))


def _stack_h6_n64_f32(dydila, seed):
    cfg = dydila.RunConfig(preset="small", heads=6, precision="f32", seed=seed)
    rng = dydila.SeededRng(seed)
    stack = dydila.init_params(cfg, rng)
    n = cfg.grid_h * cfg.grid_w
    x = rng.tokens(n, cfg.dim, cfg.precision)
    return Workload("stack_h6_n64_f32", cfg, lambda: dydila.stack_forward(x, stack)[0],
                    tokens=n * cfg.blocks, flops=_dydila_flops(dydila, cfg, n),
                    precision="f32")


def _check_small(dydila, seed):
    cfg = dydila.RunConfig(preset="small", seed=seed)
    return Workload("check_small", cfg, lambda: dydila.run_checks(cfg))


def _softmax_n2048(dydila, seed):
    cfg = dydila.RunConfig(preset="small", blocks=1, grid_h=32, grid_w=64, seed=seed)
    rng = dydila.SeededRng(seed)
    proj = dydila.init_params(cfg, rng).blocks[0].proj
    x = rng.tokens(2048, cfg.dim, cfg.precision)

    def forward():
        q, k, v = dydila.project_shared(x, proj)
        return dydila.softmax_attention(q, k, v)

    return Workload("softmax_n2048", cfg, forward, tokens=2048,
                    flops=dydila.flops.flops_estimate("softmax", 2048, cfg.dim))


WORKLOADS = {
    "block_n4096": _block_n4096,
    "stack_h6_n64_f32": _stack_h6_n64_f32,
    "check_small": _check_small,
    "softmax_n2048": _softmax_n2048,
}


def build(name, seed):
    """Import dydila and prepare workload `name` from `seed`."""
    import dydila
    import dydila.flops

    return WORKLOADS[name](dydila, seed)
