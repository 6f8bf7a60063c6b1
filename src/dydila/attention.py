"""Attention blocks: baselines, the differential pipeline, DWC, and stacks.

The full block is

    out = TDO(kernelized routed projections of x) + DWC(v)

where TDO is the token (or map) differential operator and DWC is a 3x3
depthwise convolution over the token grid that restores local detail.  The
convolution carries an optional identity branch that can be merged into the
kernel (one weight edit at the center tap) for inference.

Multi-head runs the TDO path on channel slices with per-head kernel and
differential banks; the depthwise convolution always sees the full-width V.
A block runs keys first: every head reduces its keys to a small key state
(the differential's key half) before any query is mapped, so K, K' and V
are released before any head output exists.  A head's diagnostics record
only the lambdas its variant routed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .differential import DifferentialBank, _apply_state, _key_half, _key_state, _query_half
from .kernels import KernelBank, dmk_forward, focused_rows
from .numerics import (
    ConfigError,
    ContractViolation,
    _check_2d,
    _dwc,
    matmul,
    relu,
    require_finite,
    softmax_rows,
)
from .projection import ProjectorBank, dpm_forward, project_shared
from .routing import RouteAssignment

__all__ = [
    "DwcParams",
    "HeadParams",
    "DydilaParams",
    "AttentionStack",
    "HeadDiagnostics",
    "BlockDiagnostics",
    "VARIANTS",
    "softmax_attention",
    "linear_attention",
    "dwc_forward",
    "reparam_merge",
    "multihead_forward",
    "stack_forward",
    "extract_attention_row",
]

VARIANTS = ("token-wise", "map-wise")


def _impl_variant(impl: str) -> str:
    """The variant a differential ``impl`` runs ("dydila" is token-wise)."""
    return "map-wise" if impl == "mapwise" else "token-wise"


@dataclass(frozen=True)
class DwcParams:
    """Depthwise 3x3 convolution: one kernel per channel, optional identity branch.

    `merged` (when present) must equal the branch kernel with the identity
    embedded at the center tap: running the merged kernel alone reproduces
    branch + identity up to rounding.
    """

    kernels: np.ndarray  # (d, 3, 3)
    identity_branch: bool = True
    merged: np.ndarray | None = None

    def __post_init__(self):
        k = self.kernels
        if not isinstance(k, np.ndarray) or k.ndim != 3 or k.shape[1:] != (3, 3):
            raise ConfigError(f"dwc kernels must be (d, 3, 3), got {getattr(k, 'shape', None)}")
        if self.merged is not None:
            if self.merged.shape != k.shape or self.merged.dtype != k.dtype:
                raise ConfigError("merged kernel must match branch kernel shape and dtype")
            if not np.array_equal(self.merged, _merge_kernels(k, self.identity_branch)):
                raise ConfigError("merged kernel is not branch + identity at the center tap")

    @property
    def channels(self) -> int:
        return self.kernels.shape[0]


def _merge_kernels(kernels: np.ndarray, identity_branch: bool) -> np.ndarray:
    merged = kernels.copy()
    if identity_branch:
        merged[:, 1, 1] += np.asarray(1, dtype=kernels.dtype)
    return merged


def reparam_merge(dwc: DwcParams) -> DwcParams:
    """Fold the identity branch into the center tap; a pure re-parameterization."""
    return DwcParams(
        kernels=dwc.kernels,
        identity_branch=dwc.identity_branch,
        merged=_merge_kernels(dwc.kernels, dwc.identity_branch),
    )


def dwc_forward(v: np.ndarray, grid: tuple, dwc: DwcParams) -> np.ndarray:
    """Depthwise 3x3 cross-correlation of v laid out on the (h, w) token grid.

    Zero padding of one pixel on every side; taps accumulate in fixed
    (row, col) ascending order.  The merged kernel runs when ``dwc`` has
    one; otherwise the identity branch (if any) is added after the taps.
    """
    _check_2d(v, "dwc input")
    h, w = grid
    n, d = v.shape
    if h < 1 or w < 1 or h * w != n:
        raise ContractViolation(f"grid {h}x{w} does not tile {n} tokens")
    if d != dwc.channels:
        raise ContractViolation(f"dwc has {dwc.channels} channels for width-{d} input")
    if dwc.kernels.dtype != v.dtype:
        raise ContractViolation(
            f"dwc kernel dtype {dwc.kernels.dtype} != input dtype {v.dtype}"
        )
    if dwc.merged is not None:
        return _dwc(v, grid, dwc.merged, False)
    return _dwc(v, grid, dwc.kernels, dwc.identity_branch)


@dataclass(frozen=True)
class HeadParams:
    """Per-head kernel banks for the four streams plus the differential bank."""

    kernel_q: KernelBank
    kernel_k: KernelBank
    kernel_qp: KernelBank
    kernel_kp: KernelBank
    diff: DifferentialBank

    def __post_init__(self):
        d = self.kernel_q.router.in_dim
        for name, bank in (
            ("kernel_k", self.kernel_k),
            ("kernel_qp", self.kernel_qp),
            ("kernel_kp", self.kernel_kp),
        ):
            if bank.router.in_dim != d:
                raise ConfigError(f"{name} router in_dim {bank.router.in_dim} != {d}")
        if self.diff.dim != d:
            raise ConfigError(f"differential bank dim {self.diff.dim} != head dim {d}")

    @property
    def dim(self) -> int:
        return self.kernel_q.router.in_dim


@dataclass(frozen=True)
class DydilaParams:
    """One attention block: projections, per-head banks, optional DWC, grid."""

    proj: ProjectorBank
    head_params: tuple
    grid: tuple
    dwc: DwcParams | None = None
    variant: str = "token-wise"
    normalize: bool = False

    def __post_init__(self):
        d = self.proj.dim
        heads = len(self.head_params)
        if heads < 1:
            raise ConfigError("need at least one head")
        if d % heads != 0:
            raise ConfigError(f"model dim {d} not divisible by {heads} heads")
        d_h = d // heads
        for i, hp in enumerate(self.head_params):
            if hp.dim != d_h:
                raise ConfigError(f"head {i} dim {hp.dim} != {d_h} (= {d}/{heads})")
        if self.dwc is not None and self.dwc.channels != d:
            raise ConfigError(f"dwc channels {self.dwc.channels} != model dim {d}")
        h, w = self.grid
        if h < 1 or w < 1:
            raise ConfigError(f"grid sides must be >= 1, got {self.grid}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def dim(self) -> int:
        return self.proj.dim

    @property
    def heads(self) -> int:
        return len(self.head_params)

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass(frozen=True)
class AttentionStack:
    """Residual stack of attention blocks sharing dim/heads/grid."""

    blocks: tuple

    def __post_init__(self):
        if len(self.blocks) < 1:
            raise ConfigError("stack needs at least one block")
        b0 = self.blocks[0]
        for i, b in enumerate(self.blocks):
            if (b.dim, b.heads, b.grid) != (b0.dim, b0.heads, b0.grid):
                raise ConfigError(f"block {i} dims/heads/grid differ from block 0")

    @property
    def dim(self) -> int:
        return self.blocks[0].dim

    @property
    def depth(self) -> int:
        return len(self.blocks)


@dataclass
class HeadDiagnostics:
    """Routing record of one head; ``lambdas`` is as its variant's forward returns it."""

    routes_kernel_q: RouteAssignment
    routes_kernel_k: RouteAssignment
    routes_kernel_qp: RouteAssignment
    routes_kernel_kp: RouteAssignment
    lambdas: dict


@dataclass
class BlockDiagnostics:
    """Routing record of one block: projection routes plus per-head records."""

    routes_proj_q: RouteAssignment
    routes_proj_k: RouteAssignment
    heads: list = field(default_factory=list)

    def lambda_means(self) -> dict:
        """Name -> mean of each routed lambda over heads and tokens.

        The sum is correctly rounded (``math.fsum``), so the mean does not
        depend on the order or vector width of a numpy reduction.
        """
        means = {}
        for name in self.heads[0].lambdas:
            vals = np.concatenate([h.lambdas[name][0] for h in self.heads]).astype(np.float64)
            means[name] = math.fsum(vals.tolist()) / len(vals)
        return means


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Quadratic reference attention with the explicit n x n softmax map.

    The map is the only n x n array a pass makes: see :func:`_softmax_map`.
    """
    _check_shared_shapes(q, k, v)
    return matmul(_softmax_map(q, k), v)


def _softmax_map(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(d)) by rows, scaled and normalized in the array matmul made."""
    logits = matmul(q, k.T)
    np.multiply(logits, np.asarray(1.0 / np.sqrt(q.shape[1]), dtype=q.dtype), out=logits)
    return softmax_rows(logits, out=logits)


def linear_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, gamma: float | None = None
) -> np.ndarray:
    """Kernelized linear attention, keys-first, row-normalized.

    The feature map is relu, or the focused map with ``gamma`` when one is
    given; the normalizing denominator is floored at 1e-6 in magnitude, so an
    all-dead feature row yields a zero output row rather than 0/0.
    """
    _check_shared_shapes(q, k, v)
    phi_q, phi_k = _feature_map(q, gamma), _feature_map(k, gamma)
    return _apply_state(phi_q, _key_state(phi_k, v, normalize=True))


def _feature_map(z: np.ndarray, gamma: float | None) -> np.ndarray:
    return relu(z) if gamma is None else focused_rows(z, gamma)


def _check_shared_shapes(q, k, v):
    for name, m in (("q", q), ("k", k), ("v", v)):
        _check_2d(m, name)
    if q.shape[1] != k.shape[1]:
        raise ContractViolation(f"q dim {q.shape[1]} != k dim {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ContractViolation(f"{k.shape[0]} keys vs {v.shape[0]} value rows")


def _head_slice(m: np.ndarray, head: int, d_h: int) -> np.ndarray:
    return m[:, head * d_h : (head + 1) * d_h]


def _mapped(m: np.ndarray, head: int, d_h: int, bank: KernelBank, rows=slice(None)):
    """``(stream, routes)``: rows ``rows`` of one head's slice of m, routed
    from their raw values and then kernel-mapped there in place."""
    z = _head_slice(m, head, d_h)[rows]
    return dmk_forward(z, bank, out=z)


def _head_keys(k, kp, v, params: DydilaParams, head: int, variant: str):
    """One head's key half: ``(states, lambdas, (routes_k, routes_kp))``.

    Maps the head's slices of k and kp in place, then reduces them to key
    states keys first over ``v`` (the head's V slice), or query first when
    ``v`` is None.
    """
    hp, d_h = params.head_params[head], params.head_dim
    k_t, routes_k = _mapped(k, head, d_h, hp.kernel_k)
    kp_t, routes_kp = _mapped(kp, head, d_h, hp.kernel_kp)
    states, lambdas = _key_half(k_t, kp_t, hp.diff, variant, v, params.normalize)
    return states, lambdas, (routes_k, routes_kp)


def _head_queries(q, qp, params: DydilaParams, head: int, variant: str, states, rows=slice(None)):
    """One head's query half on query rows ``rows``: ``(out, lambdas, (routes_q, routes_qp))``."""
    hp, d_h = params.head_params[head], params.head_dim
    q_t, routes_q = _mapped(q, head, d_h, hp.kernel_q, rows)
    qp_t, routes_qp = _mapped(qp, head, d_h, hp.kernel_qp, rows)
    out, lambdas = _query_half(q_t, qp_t, hp.diff, variant, states)
    return out, lambdas, (routes_q, routes_qp)


def multihead_forward(x: np.ndarray, params: DydilaParams):
    """Full block forward; returns (out, BlockDiagnostics).

    Channel slices go through per-head kernel/differential banks; head
    outputs are concatenated back to full width.

    Keys first: every head maps its K and K' slices in place and reduces
    them, with its V slice, to a d_h x d_h key state.  K and K' are then
    released; the output starts as the DWC of v (when there is one) and V
    is released too.  Only then does each head map its Q and Q' slices and
    add its output into its columns; IEEE addition is commutative, so that
    is ``head_out + dwc`` bit for bit.  A pass peaks at the five
    projections that ``dpm_forward`` returns.
    """
    _check_2d(x, "block input")
    n, d = x.shape
    if d != params.dim:
        raise ContractViolation(f"input width {d} != block dim {params.dim}")
    if params.dwc is not None:
        h, w = params.grid
        if h * w != n:
            raise ContractViolation(f"grid {h}x{w} does not tile {n} tokens")

    q, k, v, qp, kp, routes_q, routes_k = dpm_forward(x, params.proj)
    diag = BlockDiagnostics(routes_proj_q=routes_q, routes_proj_k=routes_k)

    d_h, variant = params.head_dim, params.variant
    keys = [_head_keys(k, kp, _head_slice(v, h_idx, d_h), params, h_idx, variant)
            for h_idx in range(params.heads)]
    del k, kp
    if params.dwc is None:
        out = np.empty((n, d), dtype=x.dtype)
    else:
        out = dwc_forward(v, params.grid, params.dwc)
    del v
    for h_idx, (states, key_lambdas, (routes_k_t, routes_kp_t)) in enumerate(keys):
        head_out, query_lambdas, (routes_q_t, routes_qp_t) = _head_queries(
            q, qp, params, h_idx, variant, states)
        cols = out[:, h_idx * d_h : (h_idx + 1) * d_h]
        if params.dwc is None:
            cols[...] = head_out
        else:
            cols += head_out
        del head_out  # before the next head makes its own
        diag.heads.append(HeadDiagnostics(routes_q_t, routes_k_t, routes_qp_t, routes_kp_t,
                                          lambdas={**query_lambdas, **key_lambdas}))
    return out, diag


def stack_forward(x: np.ndarray, stack: AttentionStack):
    """Residual stack: x <- x + block(x) per block; returns (out, [diagnostics]).

    Raises ContractViolation naming the first block whose output is not finite.
    """
    _check_2d(x, "stack input")
    diags = []
    out = x
    for b, block in enumerate(stack.blocks):
        block_out, diag = multihead_forward(out, block)
        out = out + block_out
        require_finite(out, f"block {b} output")
        diags.append(diag)
    return out, diags


def extract_attention_row(
    x: np.ndarray, params: DydilaParams, query_index: int, impl: str = "dydila", head: int = 0
) -> np.ndarray:
    """The length-n attention row of one query under a chosen implementation.

    softmax: softmaxed scaled similarity row.  linear/focused: normalized
    kernel similarity row.  dydila/mapwise: the chosen head's differential
    row, the head's own algebra taken query first.  A row's dot with V (the
    head's V slice) gives that output row within rounding.  Baselines use the
    shared full-width projections; focused takes gamma from the head's query
    kernel bank.
    """
    _check_2d(x, "input tokens")
    n = x.shape[0]
    if not (0 <= query_index < n):
        raise ContractViolation(f"query index {query_index} out of range for {n} tokens")
    if not (0 <= head < params.heads):
        raise ContractViolation(f"head {head} out of range for {params.heads} heads")

    sel = slice(query_index, query_index + 1)
    if impl in ("softmax", "linear", "focused"):
        q, k, _ = project_shared(x, params.proj)
        if impl == "softmax":
            return _softmax_map(q[sel], k)[0]
        gamma = params.head_params[head].kernel_q.gammas[0] if impl == "focused" else None
        phi_q, phi_k = _feature_map(q[sel], gamma), _feature_map(k, gamma)
        return _apply_state(phi_q, _key_state(phi_k, None, normalize=True))[0]

    if impl not in ("dydila", "mapwise"):
        raise ConfigError(f"unknown impl {impl!r}")

    q, k, _, qp, kp, _, _ = dpm_forward(x, params.proj)
    variant = _impl_variant(impl)
    states, _, _ = _head_keys(k, kp, None, params, head, variant)
    row, _, _ = _head_queries(q, qp, params, head, variant, states, sel)
    return row[0]
