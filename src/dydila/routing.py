"""Hard argmax routing of token rows to bank members.

A router is a single dense weight matrix; a token goes to the column of its
largest logit.  Ties resolve to the smallest index (that is what
``np.argmax`` does, and the tests pin it).  Routing is a pure function of
the token values, so permuting tokens permutes the assignment and nothing
else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ContractViolation, ConfigError, _check_2d, matmul

__all__ = ["Router", "RouteAssignment", "route_argmax", "route_pair"]


@dataclass(frozen=True)
class Router:
    """Dense routing weights of shape (in_dim, n_choices)."""

    weights: np.ndarray

    def __post_init__(self):
        _check_2d(self.weights, "router weights")
        if self.weights.shape[1] < 1:
            raise ConfigError(f"router needs at least one choice, got shape {self.weights.shape}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def n_choices(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class RouteAssignment:
    """Per-token winner indices out of ``n_choices`` bank members."""

    indices: np.ndarray  # (n,) int64, values in [0, n_choices)
    n_choices: int

    def __post_init__(self):
        if self.indices.ndim != 1:
            raise ContractViolation(f"assignment indices must be (n,), got {self.indices.shape}")

    def counts(self) -> np.ndarray:
        """Occurrences of each choice, length n_choices."""
        return np.bincount(self.indices, minlength=self.n_choices)

    def most_frequent(self) -> int:
        """Most used choice index (smallest index on ties)."""
        return int(np.argmax(self.counts()))


def route_argmax(tokens: np.ndarray, router: Router) -> RouteAssignment:
    """Assign every token row to its argmax logit column.

    Logits use the deterministic :func:`~dydila.numerics.matmul`; a token
    equal to zero has all-zero logits and routes to index 0 by the tie rule.
    """
    _check_2d(tokens, "routing tokens")
    if tokens.shape[1] != router.in_dim:
        raise ContractViolation(
            f"routing dim mismatch: tokens {tokens.shape} vs router weights {router.weights.shape}"
        )
    return _assign(matmul(tokens, router.weights))


def route_pair(a: np.ndarray, b: np.ndarray, router: Router) -> RouteAssignment:
    """Route each row pair ``(a[i], b[i])`` as the concatenated row.

    Bit for bit ``route_argmax(np.hstack((a, b)), router)``, without building
    the concatenation: the logits are ``a @ W[:d]``, and the same ascending
    sums then go on with ``b @ W[d:]``.
    """
    _check_2d(a, "routing tokens a")
    _check_2d(b, "routing tokens b")
    if a.shape != b.shape or 2 * a.shape[1] != router.in_dim:
        raise ContractViolation(
            f"routing dim mismatch: tokens {a.shape} and {b.shape} vs router weights "
            f"{router.weights.shape}"
        )
    d = a.shape[1]
    logits = matmul(a, router.weights[:d])
    return _assign(matmul(b, router.weights[d:], start=logits))


def _assign(logits: np.ndarray) -> RouteAssignment:
    """Each row's argmax column, ties to the smallest index; the logits are dropped."""
    return RouteAssignment(np.argmax(logits, axis=1).astype(np.int64), logits.shape[1])
