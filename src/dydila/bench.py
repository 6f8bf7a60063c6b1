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
from .config import RunConfig, seeded_run
from .flops import IMPLEMENTATIONS, config_flops, impl_heads
from .numerics import ConfigError
from .projection import project_shared

__all__ = ["BenchRecord", "BenchResourceError", "build_forward", "bench_run"]

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


def build_forward(cfg: RunConfig, impl: str, n: int):
    """Returns a zero-argument forward callable with all state prebuilt.

    Every impl runs one block of ``seeded_run`` over n tokens, dydila in the
    config's variant; the baselines attend over that block's shared
    projections, focused with the gamma of its first head's query kernel bank.
    """
    if impl not in IMPLEMENTATIONS:
        raise ConfigError(f"unknown impl {impl!r}")
    _, stack, x = seeded_run(cfg.with_overrides(blocks=1), n)
    params = stack.blocks[0]
    if impl == "dydila":
        return lambda: multihead_forward(x, params)[0]
    if impl == "softmax":
        return lambda: softmax_attention(*project_shared(x, params.proj))
    gamma = params.head_params[0].kernel_q.gammas[0] if impl == "focused" else None
    return lambda: linear_attention(*project_shared(x, params.proj), gamma=gamma)


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
        records.append(
            BenchRecord(
                impl=impl, n=n, d=cfg.dim, heads=impl_heads(cfg, impl), iterations=iters,
                mean_s=statistics.mean(times),
                std_s=statistics.pstdev(times),
                median_s=statistics.median(times),
                flops=config_flops(cfg, impl, n)["total"],
            )
        )
    return records
