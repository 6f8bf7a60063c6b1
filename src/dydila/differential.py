"""Token differential operator: routed differences of two attention streams.

The operator subtracts a lambda-scaled routed stream from the shared stream
on both the query and key sides, then runs the linear-attention reordering
(keys-first) so no n x n map is ever materialized:

    out = (q_t - lam_q ⊙ q_routed) @ ((k_t - lam_k ⊙ k_routed)^T @ v)

Each token's lambda comes from routing the concatenation of its two stream
rows (width 2d) to one of n_d candidate scalars; the map-wise variant instead
differences the two attention outputs with one routed lambda per token.
Each variant routes only the lambdas it uses.

Its algebra is written once, in two halves.  The key half
(:func:`_key_half`) routes the key-side lambda, differences the keys and
reduces each map's keys to a state: ``(b^T v, ones @ b)`` keys first, a
d_h x d_v matrix and the normalizer's column sums (the RNN view of linear
attention), or ``(b^T, ones @ b)`` query first, for rows of the n x n map.
The query half (:func:`_query_half`) routes the query-side lambda,
differences the queries and applies the state: ``a @ kv``, divided by the
floored ``a @ col_sums^T``.  Once the key half has run, no key or value
row is needed again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ConfigError, ContractViolation, _check_2d, matmul
from .routing import Router, route_pair

__all__ = [
    "DifferentialBank",
    "tdo_forward",
    "expand_tokenwise",
    "mapwise_forward",
    "DENOM_FLOOR",
]

# Sign-preserving magnitude floor for the optional normalizing denominator.
DENOM_FLOOR = 1e-6


@dataclass(frozen=True)
class DifferentialBank:
    """Candidate lambda scalars plus the routers that pick one per token.

    `router_q` / `router_k` route the token-wise query/key differences;
    `lambda_map_router` routes the map-wise variant.  All three take the
    concatenated pair of stream rows, so their in_dim is 2d.
    """

    lambdas: tuple  # floats
    router_q: Router
    router_k: Router
    lambda_map_router: Router

    def __post_init__(self):
        if len(self.lambdas) < 1:
            raise ConfigError("differential bank needs at least one lambda")
        for lam in self.lambdas:
            float(lam)
        for name, r in (
            ("router_q", self.router_q),
            ("router_k", self.router_k),
            ("lambda_map_router", self.lambda_map_router),
        ):
            if r.n_choices != len(self.lambdas):
                raise ConfigError(
                    f"{name} has {r.n_choices} choices for {len(self.lambdas)} lambdas"
                )
            if r.in_dim % 2 != 0:
                raise ConfigError(f"{name} in_dim must be 2*d, got {r.in_dim}")
            if r.in_dim != self.router_q.in_dim:
                raise ConfigError("differential routers must share one in_dim")

    @property
    def dim(self) -> int:
        return self.router_q.in_dim // 2

    @property
    def n_factors(self) -> int:
        return len(self.lambdas)


def _routed_lambdas(a: np.ndarray, b: np.ndarray, router: Router, lambdas: tuple):
    routes = route_pair(a, b, router)
    table = np.asarray(lambdas, dtype=a.dtype)
    return table[routes.indices], routes


def _difference(shared, routed, lam):
    """``shared - lam ⊙ routed``, formed in ``routed``."""
    np.multiply(lam[:, None], routed, out=routed)
    return np.subtract(shared, routed, out=routed)


def _check_streams(q_t, q_routed, k_t, k_routed, v):
    for name, m in (
        ("q_t", q_t),
        ("q_routed", q_routed),
        ("k_t", k_t),
        ("k_routed", k_routed),
        ("v", v),
    ):
        _check_2d(m, name)
    if not (q_t.shape == q_routed.shape == k_t.shape == k_routed.shape):
        raise ContractViolation(
            "stream shapes must match: "
            f"q_t {q_t.shape}, q_routed {q_routed.shape}, k_t {k_t.shape}, k_routed {k_routed.shape}"
        )
    if v.shape[0] != k_t.shape[0]:
        raise ContractViolation(f"v has {v.shape[0]} rows for {k_t.shape[0]} keys")


def _floor_denominator(den: np.ndarray) -> np.ndarray:
    # |den| is floored at DENOM_FLOOR with the sign kept; exact zeros go to
    # +DENOM_FLOOR so a zero numerator row stays a zero output row.
    sign = np.where(den < 0, -1.0, 1.0).astype(den.dtype)
    return sign * np.maximum(np.abs(den), np.asarray(DENOM_FLOOR, dtype=den.dtype))


def _key_state(b: np.ndarray, v: np.ndarray | None, normalize: bool):
    """One map's keys reduced to ``(kv, col_sums)``, all a query needs of them.

    ``kv`` is ``b^T v`` (keys first, d_h x d_v) or, with ``v`` None, ``b^T``
    itself (query first: the map ``a b^T``).  ``col_sums`` is ``ones @ b``
    under ``normalize`` (else None): through ``matmul`` it adds in ascending
    row order from +0 whatever b's layout (numpy's own sum switches to
    pairwise summation on F-ordered arrays).
    """
    kv = b.T if v is None else matmul(b.T, v)
    col_sums = matmul(np.ones((1, b.shape[0]), dtype=b.dtype), b) if normalize else None
    return kv, col_sums


def _apply_state(a: np.ndarray, state) -> np.ndarray:
    """``a @ kv``, each row divided by its floored denominator ``a @ col_sums^T``."""
    kv, col_sums = state
    out = matmul(a, kv)
    if col_sums is not None:
        out /= _floor_denominator(matmul(a, col_sums.T))
    return out


def _key_half(k_t, k_routed, bank: DifferentialBank, variant, v, normalize):
    """A variant's key states and the lambdas it routed on the key side.

    token-wise: routes lam_k, forms ``k_t - lam_k ⊙ k_routed`` in
    ``k_routed`` and returns its one state with ``{"k": (lam_k, routes)}``;
    map-wise: the states of ``k_t`` and ``k_routed``, no lambdas.  See
    :func:`_key_state` for ``v`` and ``normalize``.
    """
    if variant == "token-wise":
        lam_k, routes_k = _routed_lambdas(k_t, k_routed, bank.router_k, bank.lambdas)
        k_diff = _difference(k_t, k_routed, lam_k)
        return (_key_state(k_diff, v, normalize),), {"k": (lam_k, routes_k)}
    return (_key_state(k_t, v, normalize), _key_state(k_routed, v, normalize)), {}


def _query_half(q_t, q_routed, bank: DifferentialBank, variant, states):
    """A variant's ``(out, lambdas)`` from its key states and the query streams.

    token-wise: routes lam_q, forms ``q_t - lam_q ⊙ q_routed`` in
    ``q_routed`` and applies the state; map-wise: routes lam_map and takes
    ``shared - lam_map ⊙ routed``, each map applied from its own state.
    Every step is row-local, so query rows ``sel`` give those rows of the
    whole call bit for bit.
    """
    if variant == "token-wise":
        lam_q, routes_q = _routed_lambdas(q_t, q_routed, bank.router_q, bank.lambdas)
        q_diff = _difference(q_t, q_routed, lam_q)
        return _apply_state(q_diff, states[0]), {"q": (lam_q, routes_q)}
    lam_map, routes_map = _routed_lambdas(q_t, q_routed, bank.lambda_map_router, bank.lambdas)
    shared, routed = _apply_state(q_t, states[0]), _apply_state(q_routed, states[1])
    # An overflowed map gives inf - inf here; the block's finiteness check
    # reports it, so numpy's warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _difference(shared, routed, lam_map)
    return out, {"map": (lam_map, routes_map)}


def _differential(q_t, q_routed, k_t, k_routed, bank: DifferentialBank, variant, v, normalize):
    """The key half, then the query half: ``(out, lambdas)`` of one variant.

    Keys first with ``v``, query first (rows of the map) with ``v`` None.
    Token-wise consumes the routed streams, forming the differences in them;
    its lambdas are ``{"q": ..., "k": ...}`` in that order.
    """
    states, key_lambdas = _key_half(k_t, k_routed, bank, variant, v, normalize)
    out, query_lambdas = _query_half(q_t, q_routed, bank, variant, states)
    return out, {**query_lambdas, **key_lambdas}


def tdo_forward(
    q_t: np.ndarray,
    q_routed: np.ndarray,
    k_t: np.ndarray,
    k_routed: np.ndarray,
    v: np.ndarray,
    bank: DifferentialBank,
    normalize: bool = False,
):
    """Token-wise differential attention, keys-first (never builds n x n).

    Returns ``(out, lambdas)``, where ``lambdas`` maps "q" and "k" to the
    routed ``(per-token values, RouteAssignment)``.  With ``normalize=True``
    each output row is divided by the matching differential row-sum
    similarity, floored at ``DENOM_FLOOR`` in magnitude.
    """
    _check_streams(q_t, q_routed, k_t, k_routed, v)
    return _differential(q_t, q_routed.copy(), k_t, k_routed.copy(), bank, "token-wise", v,
                         normalize)


def expand_tokenwise(
    q_t: np.ndarray,
    q_routed: np.ndarray,
    k_t: np.ndarray,
    k_routed: np.ndarray,
    v: np.ndarray,
    lambda_q: np.ndarray,
    lambda_k: np.ndarray,
):
    """The four bilinear terms whose signed sum equals the token-wise operator.

    Returns ``(t1, t2, t3, t4)`` with
    ``out = t1 - t2 - t3 + t4``:

        t1 = q_t  (k_t^T v)          t2 = q_t  ((lam_k ⊙ k_routed)^T v)
        t3 = lam_q ⊙ q_routed (k_t^T v)   t4 = lam_q ⊙ q_routed ((lam_k ⊙ k_routed)^T v)
    """
    _check_streams(q_t, q_routed, k_t, k_routed, v)
    n = q_t.shape[0]
    for name, lam in (("lambda_q", lambda_q), ("lambda_k", lambda_k)):
        if lam.ndim != 1 or lam.shape[0] != n:
            raise ContractViolation(f"{name} must be a length-{n} vector, got shape {lam.shape}")
    q_scaled = lambda_q[:, None] * q_routed
    k_scaled = lambda_k[:, None] * k_routed
    kv = matmul(k_t.T, v)
    kv_scaled = matmul(k_scaled.T, v)
    t1 = matmul(q_t, kv)
    t2 = matmul(q_t, kv_scaled)
    t3 = matmul(q_scaled, kv)
    t4 = matmul(q_scaled, kv_scaled)
    return t1, t2, t3, t4


def mapwise_forward(
    q_t: np.ndarray,
    q_routed: np.ndarray,
    k_t: np.ndarray,
    k_routed: np.ndarray,
    v: np.ndarray,
    bank: DifferentialBank,
    normalize: bool = False,
):
    """Map-wise variant: difference the two attention outputs directly.

    ``out = q_t (k_t^T v) - lam_map ⊙ q_routed (k_routed^T v)`` where each
    token's lam_map is routed from its concatenated query-stream pair.  With
    ``normalize=True`` each map is divided by its own floored denominator
    first, ``shared / den(q_t, k_t) - lam_map ⊙ (routed / den(q_routed,
    k_routed))``: the difference of two separately normalized maps.
    Returns ``(out, {"map": (lam_map, RouteAssignment)})``.
    """
    _check_streams(q_t, q_routed, k_t, k_routed, v)
    return _differential(q_t, q_routed, k_t, k_routed, bank, "map-wise", v, normalize)
