"""Closed-form FLOP estimates for every implementation.

Counts follow the usual convention of 2 FLOPs per multiply-add.  The two
numbers the scaling analysis hinges on are the attention cores:

    softmax:           4 n^2 d      (n x n map build + map-times-values)
    linear family:     4 n d^2 / heads   (keys-first reordering)

which cross exactly at n = d for one head.  Everything else (projections,
routing, feature maps, depthwise conv) is linear in n and reported per
component so the crossover claim can be checked against the cores alone.

The baselines run single-head: softmax, linear and focused attend over the
shared full-width projections, so :func:`config_flops` counts them at one
head whatever the config's ``heads``.  Only dydila runs heads.
The components that are matmul products (projections, routings, cores,
normalizer) equal the products a pass makes, FLOP for FLOP; the feature
and kernel maps, the row softmax, the differential combine and the DWC are
estimates.
"""

from __future__ import annotations

from .differential import VARIANTS
from .numerics import ConfigError

__all__ = ["IMPLEMENTATIONS", "flops_estimate", "impl_heads", "config_flops", "core_crossover"]

IMPLEMENTATIONS = ("softmax", "linear", "focused", "dydila")

# Per-entry cost of the focused feature map: relu, squared-norm, peak
# rescale, power, renormalize (documented approximation).
_FOCUSED_MAP_COST = 8
_RELU_MAP_COST = 1
_DWC_COST = 19  # 9 taps x 2 flops + identity add, per entry


def flops_estimate(
    impl: str,
    n: int,
    d: int,
    heads: int = 1,
    n_projectors: int = 3,
    n_kernel_factors: int = 9,
    n_lambda_factors: int = 9,
    dwc: bool = True,
    normalize: bool = False,
    variant: str = "token-wise",
) -> dict:
    """Component-wise FLOP estimate; the 'total' key sums the rest.  Baselines
    ignore dydila's ``variant``, as they ignore its bank sizes."""
    if impl not in IMPLEMENTATIONS:
        raise ConfigError(f"unknown impl {impl!r}; expected one of {IMPLEMENTATIONS}")
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    for name, val in (("n", n), ("d", d), ("heads", heads)):
        if not isinstance(val, int) or val < 1:
            raise ConfigError(f"{name} must be a positive integer, got {val!r}")
    if d % heads != 0:
        raise ConfigError(f"d {d} not divisible by heads {heads}")

    parts = {"qkv_projection": 6 * n * d * d}
    if impl == "softmax":
        parts["attention_core"] = 4 * n * n * d
        parts["row_softmax"] = 5 * n * n
    elif impl in ("linear", "focused"):
        cost = _RELU_MAP_COST if impl == "linear" else _FOCUSED_MAP_COST
        parts["feature_map"] = 2 * cost * n * d  # q and k streams
        parts["attention_core"] = 4 * n * d * d // heads
        parts["normalizer"] = 4 * n * d
    else:
        parts["routed_projection"] = 4 * n * d * d
        parts["projection_routing"] = 4 * n * d * n_projectors
        parts["kernel_map"] = 4 * _FOCUSED_MAP_COST * n * d
        parts["kernel_routing"] = 8 * n * d * n_kernel_factors
        # token-wise routes lambda_q and lambda_k and differences the streams;
        # map-wise routes lambda_map and differences two full attention outputs
        maps = 1 if variant == "token-wise" else 2
        parts["lambda_routing"] = 8 // maps * n * d * n_lambda_factors
        parts["diff_combine"] = 4 // maps * n * d
        parts["attention_core"] = 4 * maps * n * d * d // heads
        if normalize:
            parts["normalizer"] = 4 * maps * n * d  # one per map
        if dwc:
            parts["dwc"] = _DWC_COST * n * d
    parts["total"] = sum(parts.values())
    return parts


def impl_heads(cfg, impl: str) -> int:
    """The heads ``impl`` runs a ``RunConfig`` at: the config's for dydila,
    one for the baselines."""
    return cfg.heads if impl == "dydila" else 1


def config_flops(cfg, impl: str, n: int) -> dict:
    """``flops_estimate`` of one block of a ``RunConfig`` running ``impl`` over n tokens,
    at :func:`impl_heads` and in the config's variant."""
    return flops_estimate(impl, n, cfg.dim, heads=impl_heads(cfg, impl),
                          n_projectors=cfg.n_projectors,
                          n_kernel_factors=cfg.n_kernel_factors,
                          n_lambda_factors=cfg.n_lambda_factors,
                          dwc=cfg.dwc_enabled, normalize=cfg.normalize, variant=cfg.variant)


def core_crossover(d: int, heads: int = 1) -> float:
    """Sequence length where the softmax core overtakes the linear core.

    Solves 4 n^2 d == 4 n d^2 / heads, i.e. n* = d / heads; with one head
    the cores cross exactly at n = d.
    """
    if d < 1 or heads < 1 or d % heads != 0:
        raise ConfigError(f"bad dims d={d}, heads={heads}")
    return d / heads
