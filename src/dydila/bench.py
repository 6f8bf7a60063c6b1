"""Wall-clock scaling benchmarks over sequence length.

Timing covers the forward pass only (projection + attention); parameter and
input construction happen outside the timed region.  Each (impl, n) cell
re-seeds from the config so cells are independently reproducible.  Records
keep mean, population std and median over the timed iterations; the CSV
contract exposes impl,N,d,heads,mean_s,std_s,flops.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .attention import linear_attention, multihead_forward, softmax_attention
from .config import RunConfig, init_params
from .flops import IMPLEMENTATIONS, flops_estimate
from .numerics import ConfigError, SeededRng
from .projection import project_shared

__all__ = ["BenchRecord", "BenchResourceError", "grid_for", "build_forward", "bench_run"]

_WARMUP = 2

BENCH_CSV_HEADER = ["impl", "N", "d", "heads", "mean_s", "std_s", "flops"]


class BenchResourceError(RuntimeError):
    """Raised when a benchmark cell cannot be allocated."""


@dataclass(frozen=True)
class BenchRecord:
    impl: str
    n: int
    d: int
    heads: int
    iterations: int
    mean_s: float
    std_s: float
    median_s: float
    flops: int


def grid_for(n: int) -> tuple:
    """Most-square (h, w) factorization of n, used to lay tokens on a grid."""
    if n < 1:
        raise ConfigError(f"sequence length must be >= 1, got {n}")
    h = int(n ** 0.5)
    while h > 1 and n % h:
        h -= 1
    return h, n // h


def build_forward(cfg: RunConfig, impl: str, n: int):
    """Returns a zero-argument forward callable with all state prebuilt.

    Every impl draws one block on the most-square grid for n, then the
    tokens, from one seeded stream; the baselines attend over that block's
    shared projections.
    """
    if impl not in IMPLEMENTATIONS:
        raise ConfigError(f"unknown impl {impl!r}")
    h, w = grid_for(n)
    block_cfg = cfg.with_overrides(
        blocks=1,
        grid_h=h,
        grid_w=w,
        variant="map-wise" if impl == "mapwise" else "token-wise",
    )
    rng = SeededRng(cfg.seed)
    params = init_params(block_cfg, rng).blocks[0]
    x = rng.tokens(n, cfg.dim, cfg.precision)
    if impl in ("dydila", "mapwise"):
        return lambda: multihead_forward(x, params)[0]
    if impl == "softmax":
        return lambda: softmax_attention(*project_shared(x, params.proj))
    kernel, gamma = ("focused", float(cfg.gamma_init)) if impl == "focused" else ("relu", None)
    return lambda: linear_attention(*project_shared(x, params.proj), kernel=kernel, gamma=gamma)


def bench_run(cfg: RunConfig, impl: str, n_list, iters: int) -> list:
    """Time `iters` forward passes per n after 2 warmups; returns BenchRecords."""
    if iters < 3:
        raise ConfigError(f"iters must be >= 3 for stable statistics, got {iters}")
    records = []
    for n in n_list:
        try:
            forward = build_forward(cfg, impl, n)
            for _ in range(_WARMUP):
                forward()
            times = []
            for _ in range(iters):
                t0 = time.perf_counter()
                forward()
                times.append(time.perf_counter() - t0)
        except MemoryError:
            raise BenchResourceError(
                f"allocation failed for impl={impl} at N={n} (d={cfg.dim}, "
                f"precision={cfg.precision}); reduce N or d"
            ) from None
        total = flops_estimate(
            impl, n, cfg.dim, heads=cfg.heads,
            n_projectors=cfg.n_projectors,
            n_kernel_factors=cfg.n_kernel_factors,
            n_lambda_factors=cfg.n_lambda_factors,
            dwc=cfg.dwc_enabled,
            normalize=cfg.normalize,
        )["total"]
        records.append(
            BenchRecord(
                impl=impl, n=n, d=cfg.dim, heads=cfg.heads, iterations=iters,
                mean_s=statistics.mean(times),
                std_s=statistics.pstdev(times),
                median_s=statistics.median(times),
                flops=total,
            )
        )
    return records
