"""Measure the owned pow against the host libm and against exact values.

    python3 scripts/pow_accuracy.py [--samples 1000000] [--exact 30000] [--seed 1]

Draws (x, g) with x in (0, 1] -- a third uniform, a third log-uniform down
to the least subnormal, a third just below 1, plus 1.0 itself -- and g
uniform in (0, 16], evaluates ``numerics._pow01`` (the compiled kernel when
it builds, else its numpy mirror) and reports:

- the largest distance in ulps from ``math.pow`` (the host libm), and how
  many results differ at all;
- the largest error in ulps of the exact value, computed with 50-digit
  ``decimal`` arithmetic, over every sample that differs from libm plus
  ``--exact`` random others, for both the owned pow and libm.
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from dydila import numerics  # noqa: E402

getcontext().prec = 50


def samples(n: int, seed: int):
    rng = np.random.default_rng(seed)
    third = n // 3
    x = np.concatenate([rng.uniform(0, 1, third), np.exp2(-rng.uniform(0, 1074, third)),
                        1 - rng.uniform(0, 1e-3, n - 2 * third - 1), [1.0]])
    x[x == 0] = 5e-324
    g = 16 - rng.uniform(0, 16, n)
    return x, g


def exact_error_ulps(value: float, x: float, g: float) -> float:
    """|value - x**g| in ulps of the exact x**g (subnormal ulp below 2^-1022)."""
    exact = (Decimal(x).ln() * Decimal(g)).exp()
    if exact == 0:
        return 0.0 if value == 0 else math.inf
    ulp = Fraction(2) ** max(math.frexp(float(exact))[1] - 53, -1074)
    return float(abs(Fraction(value) - Fraction(exact)) / ulp)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--exact", type=int, default=30_000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    x, g = samples(args.samples, args.seed)
    ours = numerics._pow01(x, g)
    libm = np.array([math.pow(a, b) for a, b in zip(x.tolist(), g.tolist())])
    ulps = np.abs(ours.view(np.int64) - libm.view(np.int64))
    subnormal = int(((ours > 0) & (ours < 2.0**-1022)).sum())
    print(f"backend {numerics.matmul_backend()}; {x.size} samples, {subnormal} subnormal "
          f"results, {int((ours == 0).sum())} zero results")
    print(f"vs libm pow: max {int(ulps.max())} ulp, {int((ulps > 0).sum())} results differ")
    rng = np.random.default_rng(args.seed + 1)
    idx = np.union1d(np.nonzero(ulps)[0], rng.choice(x.size, min(args.exact, x.size), replace=False))
    worst = max(exact_error_ulps(float(ours[i]), float(x[i]), float(g[i])) for i in idx)
    worst_libm = max(exact_error_ulps(float(libm[i]), float(x[i]), float(g[i])) for i in idx)
    print(f"vs exact, over {idx.size} samples: owned pow max {worst:.4f} ulp, "
          f"libm pow max {worst_libm:.4f} ulp")


if __name__ == "__main__":
    main()
