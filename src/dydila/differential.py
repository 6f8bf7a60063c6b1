"""Token differential operator: routed differences of two attention streams.

The operator subtracts a lambda-scaled routed stream from the shared stream
on both the query and key sides, then runs the linear-attention reordering
(keys-first) so no n x n map is ever materialized:

    out = (q_t - lam_q ⊙ q_routed) @ ((k_t - lam_k ⊙ k_routed)^T @ v)

Each token's lambda comes from routing the concatenation of its two stream
rows (width 2d) to one of n_d candidate scalars; the map-wise variant instead
differences the two attention outputs with one routed lambda per token.
Each variant routes only the lambdas it uses.  Its algebra is written once,
in :func:`_differential`, over a map product: :func:`_keys_first` for
outputs, :func:`_query_first` (rows of the n x n map) for attention rows.
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


def _differenced(q_t, q_routed, k_t, k_routed, bank: DifferentialBank):
    """Token-wise ``(q_diff, k_diff, lambdas)``, each lambda routed from its stream pair.

    Consumes the routed streams: once both lambdas are routed, each routed
    stream becomes ``lam ⊙ routed`` and then ``shared - that`` in its own
    array, so ``q_diff`` is ``q_routed`` and ``k_diff`` is ``k_routed``.
    """
    lam_q, routes_q = _routed_lambdas(q_t, q_routed, bank.router_q, bank.lambdas)
    lam_k, routes_k = _routed_lambdas(k_t, k_routed, bank.router_k, bank.lambdas)
    lambdas = {"q": (lam_q, routes_q), "k": (lam_k, routes_k)}
    for shared, routed, lam in ((q_t, q_routed, lam_q), (k_t, k_routed, lam_k)):
        np.multiply(lam[:, None], routed, out=routed)
        np.subtract(shared, routed, out=routed)
    return q_routed, k_routed, lambdas


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


def _normalizer(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Floored keys-first row sums ``q @ sum(k)``: each row's normalizing denominator.

    The column sums of k are ``ones @ k``, so they too add in ascending row
    order from +0 whatever k's layout (numpy's own sum switches to pairwise
    summation on F-ordered arrays).
    """
    col_sums = matmul(np.ones((1, k.shape[0]), dtype=k.dtype), k)
    return _floor_denominator(matmul(q, col_sums.T))


def _keys_first(a: np.ndarray, b: np.ndarray, v: np.ndarray, normalize: bool) -> np.ndarray:
    """``a (b^T v)``, each row divided by ``_normalizer(a, b)`` if ``normalize``."""
    out = matmul(a, matmul(b.T, v))
    if normalize:
        out /= _normalizer(a, b)
    return out


def _query_first(a: np.ndarray, b: np.ndarray, normalize: bool) -> np.ndarray:
    """The map ``a b^T``, each row divided by ``_normalizer(a, b)`` if ``normalize``."""
    out = matmul(a, b.T)
    if normalize:
        out /= _normalizer(a, b)
    return out


def _differential(q_t, q_routed, k_t, k_routed, bank: DifferentialBank, variant, product, *args):
    """A variant's ``(out, lambdas)`` over the map product ``product(a, b, *args)``.

    token-wise: the product of the differences (consuming the routed streams,
    see :func:`_differenced`); map-wise: ``product(q_t, k_t) - lam_map ⊙
    product(q_routed, k_routed)``.  Every step is row-local, so query rows
    ``sel`` of the streams give those rows of the whole call bit for bit.
    """
    if variant == "token-wise":
        q_diff, k_diff, lambdas = _differenced(q_t, q_routed, k_t, k_routed, bank)
        return product(q_diff, k_diff, *args), lambdas
    lam_map, routes_map = _routed_lambdas(q_t, q_routed, bank.lambda_map_router, bank.lambdas)
    shared, routed = product(q_t, k_t, *args), product(q_routed, k_routed, *args)
    # An overflowed map gives inf - inf here; the block's finiteness check
    # reports it, so numpy's warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(lam_map[:, None], routed, out=routed)
        out = np.subtract(shared, routed, out=shared)
    return out, {"map": (lam_map, routes_map)}


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
    return _differential(q_t, q_routed.copy(), k_t, k_routed.copy(), bank, "token-wise",
                         _keys_first, v, normalize)


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
    return _differential(q_t, q_routed, k_t, k_routed, bank, "map-wise", _keys_first, v, normalize)
