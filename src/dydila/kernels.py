"""Norm-preserving focused feature kernels with per-token routing.

The focused map sharpens a ReLU'd row by raising it elementwise to a power
gamma, then rescales so the Euclidean norm of the ReLU'd row is restored:

    phi(z) = relu(z)^gamma / ||relu(z)^gamma||_2 * ||relu(z)||_2

gamma = 1 is exactly ReLU.  Larger gamma concentrates mass on the largest
coordinates while the norm stays put.  A row whose ReLU is identically zero
maps to the zero row (no 0/0); a row holding a NaN, or an inf when gamma is
not 1, maps to a non-finite row.

The arithmetic order is fixed, as ``matmul``'s is: per row, relu, row max
``peak``, ``x = r / peak``, the library's own ``pow(x, gamma)`` on the
nonzero entries (IEEE ``+ - * /`` in a fixed order, no libm, so the bits
are the same on every host), ``n1 = peak * sqrt(sum x^2)`` and
``ng = sqrt(sum pow^2)`` as ascending sums, and one multiply by ``n1 / ng``.
A compiled kernel in ``dydila.numerics`` runs it (a numpy loop with the same
bits when it did not build), and ``oracle.naive_focused_row`` follows the
same order, so in float64 the map equals the oracle bit for bit.  float32
divides and sums in float32 and rounds each double ``pow`` to float32;
summing the scaled row keeps rows of tiny entries out of subnormal squares.

Each row picks its gamma through a router (one gamma per routable factor),
so sharpening strength is a per-token decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ConfigError, _check_2d, _focused_map
from .routing import RouteAssignment, Router, route_argmax

__all__ = ["KernelBank", "focused_rows", "dmk_forward"]


@dataclass(frozen=True)
class KernelBank:
    """n_f candidate sharpening exponents plus the router that picks one per row."""

    gammas: tuple  # floats, all > 0
    router: Router

    def __post_init__(self):
        if len(self.gammas) < 1:
            raise ConfigError("kernel bank needs at least one gamma")
        for g in self.gammas:
            if not (float(g) > 0.0):
                raise ConfigError(f"gamma must be > 0, got {g!r}")
        if self.router.n_choices != len(self.gammas):
            raise ConfigError(
                f"router has {self.router.n_choices} choices for {len(self.gammas)} gammas"
            )


def focused_rows(z: np.ndarray, gamma: float) -> np.ndarray:
    """Focused map applied to every row of a matrix with one shared gamma.

    The power step divides each live row by its max entry, which keeps
    relu(z)^gamma inside [0, 1] for any gamma (the scale cancels in the
    normalize-then-rescale), so gamma = 8 on f32 cannot overflow.  gamma = 1
    returns ``relu(z)`` bit for bit.
    """
    _check_2d(z, "kernel input")
    if not (float(gamma) > 0.0):
        raise ConfigError(f"gamma must be > 0, got {gamma!r}")
    return _focused_map(z, np.full(z.shape[0], float(gamma)))


def dmk_forward(z: np.ndarray, bank: KernelBank, out: np.ndarray | None = None):
    """Dynamic measure kernel: route each row to a gamma, apply the focused map.

    Returns ``(mapped, routes)``.  The whole matrix is mapped in one pass
    with each row's routed gamma; the map is row-local, so row i of the
    output is ``focused_rows(z[i:i+1], gamma_i)``.  ``z`` may be a strided
    view, such as one head's columns.  ``out`` is None, which makes a fresh
    array and leaves ``z`` as it was, or ``z`` itself (writeable), which
    maps z in place once its rows are routed; any other ``out`` raises
    ``ContractViolation``.
    """
    routes = route_argmax(z, bank.router)
    gamma = np.asarray(bank.gammas, dtype=np.float64)[routes.indices]
    return _focused_map(z, gamma, out), routes
