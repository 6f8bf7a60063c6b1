"""Shared and routed (dynamic) query/key/value projections.

Every token gets the shared Q/K/V projection; on top of that, two routers
pick one projector each from per-stream projector lists to produce the
routed variants Q', K'.  Routing keys off the raw input row, so the choice
is independent for the two streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ContractViolation, ConfigError, _check_2d, matmul
from .routing import RouteAssignment, Router, route_argmax

__all__ = ["ProjectorBank", "project_shared", "dpm_forward"]


@dataclass(frozen=True)
class ProjectorBank:
    """Shared projections plus per-stream routed projector lists.

    All weights are (d, d); `w_q`/`w_k` hold the n_p routed candidates per
    stream and the two routers map d-dim tokens to one of them.
    """

    w_q0: np.ndarray
    w_k0: np.ndarray
    w_v0: np.ndarray
    w_q: tuple
    w_k: tuple
    router_q: Router
    router_k: Router

    def __post_init__(self):
        d = self.dim
        for name, w in (("w_q0", self.w_q0), ("w_k0", self.w_k0), ("w_v0", self.w_v0)):
            _check_2d(w, name)
            if w.shape != (d, d):
                raise ConfigError(f"{name} must be square ({d}, {d}), got {w.shape}")
        if len(self.w_q) < 1 or len(self.w_q) != len(self.w_k):
            raise ConfigError(
                f"projector lists must be equal length >= 1, got {len(self.w_q)} and {len(self.w_k)}"
            )
        for i, w in enumerate(self.w_q + self.w_k):
            _check_2d(w, f"routed projector {i}")
            if w.shape != (d, d):
                raise ConfigError(f"routed projectors must be ({d}, {d}), got {w.shape}")
        for name, r in (("router_q", self.router_q), ("router_k", self.router_k)):
            if r.in_dim != d or r.n_choices != len(self.w_q):
                raise ConfigError(
                    f"{name} must be ({d}, {len(self.w_q)}), got {r.weights.shape}"
                )

    @property
    def dim(self) -> int:
        return self.w_q0.shape[0]

    @property
    def n_projectors(self) -> int:
        return len(self.w_q)


def project_shared(x: np.ndarray, bank: ProjectorBank):
    """Q, K, V from the shared weights: three deterministic matmuls."""
    _check_2d(x, "input tokens")
    if x.shape[1] != bank.dim:
        raise ContractViolation(f"token dim {x.shape[1]} != projector dim {bank.dim}")
    return matmul(x, bank.w_q0), matmul(x, bank.w_k0), matmul(x, bank.w_v0)


def _routed_project(x: np.ndarray, weights: tuple, routes: RouteAssignment) -> np.ndarray:
    # Gather rows per projector and run one matmul per used projector.  The
    # per-element accumulation order is identical to projecting each row on
    # its own, so this batching is bit-exact against a per-token loop.
    out = np.zeros((x.shape[0], weights[0].shape[1]), dtype=x.dtype)
    for p, w in enumerate(weights):
        rows = np.flatnonzero(routes.indices == p)
        if rows.size:
            out[rows] = matmul(x[rows], w)
    return out


def dpm_forward(x: np.ndarray, bank: ProjectorBank):
    """Dynamic projection: shared Q/K/V plus routed Q'/K'.

    Returns ``(q, k, v, q_routed, k_routed, routes_q, routes_k)``.  Each
    token's routed row depends only on that token (its route and its
    projection), so the whole map is equivariant under token permutation.
    The routed streams are projected first, so the gathered rows each
    projector takes are freed before the three shared projections exist.
    """
    routes_q = route_argmax(x, bank.router_q)
    routes_k = route_argmax(x, bank.router_k)
    q_routed = _routed_project(x, bank.w_q, routes_q)
    k_routed = _routed_project(x, bank.w_k, routes_k)
    q, k, v = project_shared(x, bank)
    return q, k, v, q_routed, k_routed, routes_q, routes_k
