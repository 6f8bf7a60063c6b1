"""Attention blocks: baselines, the differential pipeline, DWC, and stacks.

The full block is

    out = TDO(kernelized routed projections of x) + DWC(v)

where TDO is the token (or map) differential operator and DWC is a 3x3
depthwise convolution over the token grid that restores local detail.  The
convolution carries an optional identity branch that can be merged into the
kernel (one weight edit at the center tap) for inference.

Multi-head runs the TDO path on channel slices with per-head kernel and
differential banks; the depthwise convolution always sees the full-width V.
A block runs keys first: it projects only the key side (K', K and V), every
head reduces its keys to a small key state (the differential's key half),
and K, K' and V are released, V once the DWC has read it, before the query
side (Q', Q) is projected.  Each head writes its output over its own
columns of Q, which are spent by then, so a pass peaks at about three
n x d arrays: Q, Q' and the DWC output.  A head's diagnostics record only
the lambdas its variant routed.  An attention row projects the key side
and, since every query-side step is row-local, the query side of its one
query row only, and runs the head's key half on them query first, then its
query half.  Both call the halves that ``differential.tdo_forward``, the one
public operator, composes, so a head's output is that call's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .differential import (VARIANTS, DifferentialBank, _apply_state, _key_half, _key_state,
                           _query_half)
from .kernels import KernelBank, dmk_forward, focused_rows
from .numerics import (
    ConfigError,
    ContractViolation,
    _MATMUL_BLOCKS,
    _check_2d,
    _dwc,
    matmul,
    relu,
    require_finite,
    softmax_rows,
)
from .projection import ProjectorBank, dpm_keys, dpm_queries, dpm_values
from .routing import RouteAssignment

__all__ = [
    "DwcParams",
    "HeadParams",
    "DydilaParams",
    "AttentionStack",
    "HeadDiagnostics",
    "BlockDiagnostics",
    "softmax_attention",
    "linear_attention",
    "dwc_forward",
    "reparam_merge",
    "multihead_forward",
    "stack_forward",
    "extract_attention_row",
]


@dataclass(frozen=True)
class DwcParams:
    """Depthwise 3x3 convolution: one kernel per channel, optional identity branch.

    With ``use_merged`` the convolution runs :attr:`merged` alone, the
    branch kernel with the identity embedded at the center tap: it
    reproduces branch + identity up to rounding.
    """

    kernels: np.ndarray  # (d, 3, 3)
    identity_branch: bool = True
    use_merged: bool = False

    def __post_init__(self):
        k = self.kernels
        if not isinstance(k, np.ndarray) or k.ndim != 3 or k.shape[1:] != (3, 3):
            raise ConfigError(f"dwc kernels must be (d, 3, 3), got {getattr(k, 'shape', None)}")

    @property
    def channels(self) -> int:
        return self.kernels.shape[0]

    @property
    def merged(self) -> np.ndarray:
        """The branch kernel plus the identity (when on) at the center tap."""
        merged = self.kernels.copy()
        if self.identity_branch:
            merged[:, 1, 1] += np.asarray(1, dtype=merged.dtype)
        return merged


def reparam_merge(dwc: DwcParams) -> DwcParams:
    """Fold the identity branch into the center tap; a pure re-parameterization."""
    return replace(dwc, use_merged=True)


def dwc_forward(v: np.ndarray, grid: tuple, dwc: DwcParams) -> np.ndarray:
    """Depthwise 3x3 cross-correlation of v laid out on the (h, w) token grid.

    Zero padding of one pixel on every side; taps accumulate in fixed
    (row, col) ascending order.  The merged kernel runs when
    ``dwc.use_merged`` is set; otherwise the identity branch (if any) is
    added after the taps.
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
    if dwc.use_merged:
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


# Query rows per block of the softmax map: one of matmul's MC row blocks, so
# the map of n keys holds 256 n elements instead of n^2 and stays nearer the
# cache at large n; 512 rows packed V half as often but ran slower at n=16384.
_SOFTMAX_ROWS = _MATMUL_BLOCKS["MC"]


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Quadratic reference attention with an explicit softmax map.

    The map is built for ``_SOFTMAX_ROWS`` query rows at a time (see
    :func:`_softmax_map`) and multiplied by V into those rows of the output,
    so a pass never holds the whole n x n map.  Every step is row-local
    (matmul sums each element in ascending k whatever the row subset; the
    scale, row max, ``exp`` and row sum each read one row), so the bits are
    those of the whole map and no online rescaling is needed.  Query rows
    over an empty key set have no softmax: :func:`softmax_rows` raises
    :class:`ContractViolation`; zero queries give zero rows.
    """
    _check_shared_shapes(q, k, v)
    out = np.empty((q.shape[0], v.shape[1]), dtype=q.dtype)
    for r0 in range(0, q.shape[0], _SOFTMAX_ROWS):
        rows = slice(r0, r0 + _SOFTMAX_ROWS)
        matmul(_softmax_map(q[rows], k), v, out=out[rows])
    return out


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


def _mapped(m: np.ndarray, head: int, d_h: int, bank: KernelBank):
    """``(stream, routes)``: one head's slice of m, routed from its raw values
    and then kernel-mapped there in place."""
    z = _head_slice(m, head, d_h)
    return dmk_forward(z, bank, out=z)


def multihead_forward(x: np.ndarray, params: DydilaParams):
    """Full block forward; returns (out, BlockDiagnostics).

    Channel slices go through per-head kernel/differential banks; head
    outputs are concatenated back to full width.

    Keys first: only the key side and V are projected (:func:`dpm_keys`,
    :func:`dpm_values`), and every head maps its K and K' slices in place
    and reduces them, with its V slice, to a d_h x d_h key state.  K and K'
    are then released, the DWC of V is taken (when there is one) and V is
    released too.  Only then is the query side projected
    (:func:`dpm_queries`); each head maps its Q and Q' slices and writes its
    output over its Q slice, which the head no longer reads.  Q is the block
    output, plus the DWC added in place; IEEE addition is commutative, so
    that is ``head_out + dwc`` bit for bit.  A pass peaks at about three
    n x d arrays: Q, Q' and the DWC.
    """
    _check_2d(x, "block input")
    n, d = x.shape
    if d != params.dim:
        raise ContractViolation(f"input width {d} != block dim {params.dim}")
    if params.dwc is not None:
        h, w = params.grid
        if h * w != n:
            raise ContractViolation(f"grid {h}x{w} does not tile {n} tokens")

    k, kp, routes_k = dpm_keys(x, params.proj)
    v = dpm_values(x, params.proj)
    d_h, variant = params.head_dim, params.variant
    keys = []
    for h_idx, hp in enumerate(params.head_params):
        k_t, routes_k_t = _mapped(k, h_idx, d_h, hp.kernel_k)
        kp_t, routes_kp_t = _mapped(kp, h_idx, d_h, hp.kernel_kp)
        states, key_lambdas = _key_half(k_t, kp_t, hp.diff, variant,
                                        _head_slice(v, h_idx, d_h), params.normalize)
        keys.append((states, key_lambdas, routes_k_t, routes_kp_t))
    # the last head's views would hold K and K' through the query side
    del k, kp, k_t, kp_t
    dwc = None if params.dwc is None else dwc_forward(v, params.grid, params.dwc)
    del v
    q, qp, routes_q = dpm_queries(x, params.proj)
    diag = BlockDiagnostics(routes_proj_q=routes_q, routes_proj_k=routes_k)
    for h_idx, (hp, (states, key_lambdas, routes_k_t, routes_kp_t)) in enumerate(
            zip(params.head_params, keys)):
        q_t, routes_q_t = _mapped(q, h_idx, d_h, hp.kernel_q)
        qp_t, routes_qp_t = _mapped(qp, h_idx, d_h, hp.kernel_qp)
        _, query_lambdas = _query_half(q_t, qp_t, hp.diff, variant, states, q_t)
        diag.heads.append(HeadDiagnostics(routes_q_t, routes_k_t, routes_qp_t, routes_kp_t,
                                          lambdas={**query_lambdas, **key_lambdas}))
    if dwc is not None:
        q += dwc
    return q, diag


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
    kernel similarity row.  dydila: the chosen head's differential row in the
    block's variant, the head's own algebra taken query first.  A row's dot
    with V (the head's V slice) gives that output row within rounding.  Every
    row projects the query side of its one query row and the key side, never
    V.  Baselines are single-head over the shared full-width projections, as
    ``bench`` runs them, so ``head`` does not change their row: focused takes
    gamma from head 0's query kernel bank.
    """
    _check_2d(x, "input tokens")
    n = x.shape[0]
    if not (0 <= query_index < n):
        raise ContractViolation(f"query index {query_index} out of range for {n} tokens")
    if not (0 <= head < params.heads):
        raise ContractViolation(f"head {head} out of range for {params.heads} heads")

    sel = slice(query_index, query_index + 1)
    if impl in ("softmax", "linear", "focused"):
        q, k = matmul(x[sel], params.proj.w_q0), matmul(x, params.proj.w_k0)
        if impl == "softmax":
            return _softmax_map(q, k)[0]
        gamma = params.head_params[0].kernel_q.gammas[0] if impl == "focused" else None
        phi_q, phi_k = _feature_map(q, gamma), _feature_map(k, gamma)
        return _apply_state(phi_q, _key_state(phi_k, None, normalize=True))[0]

    if impl != "dydila":
        raise ConfigError(f"unknown impl {impl!r}")

    k, kp, _ = dpm_keys(x, params.proj)
    q, qp, _ = dpm_queries(x[sel], params.proj)
    hp, d_h, variant = params.head_params[head], params.head_dim, params.variant
    q_t, qp_t, k_t, kp_t = (_mapped(m, head, d_h, bank)[0] for m, bank in
                            ((q, hp.kernel_q), (qp, hp.kernel_qp), (k, hp.kernel_k),
                             (kp, hp.kernel_kp)))
    states, _ = _key_half(k_t, kp_t, hp.diff, variant, None, params.normalize)
    row, _ = _query_half(q_t, qp_t, hp.diff, variant, states)
    return row[0]
