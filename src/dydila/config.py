"""Run configuration: schema, presets, validation, and parameter init.

Configs are flat JSON with two nested groups (`grid`, `dwc`).  Unknown
fields are rejected so typos fail loudly.  The three presets pin model dim
and bank sizes; overriding a pinned field under a named preset is an error
(use preset "custom").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .attention import AttentionStack, VARIANTS
from .fileio import assemble_stack
from .numerics import ConfigError, SeededRng

__all__ = [
    "PRESETS",
    "RunConfig",
    "load_config",
    "save_config",
    "lambda_for_block",
    "init_params",
]

# preset -> (dim, n_projectors, n_kernel_factors, n_lambda_factors)
PRESETS = {
    "small": (384, 3, 9, 9),
    "base": (512, 5, 15, 15),
    "large": (768, 7, 21, 21),
}

_DEPTH = 9  # all presets share the block count

# Endpoints of the "increasing" lambda-init schedule, interpolated linearly
# over block index.
_SCHEDULE_LO = 0.2
_SCHEDULE_HI = 0.8


@dataclass(frozen=True)
class RunConfig:
    """Resolved, validated run settings."""

    preset: str = "small"
    dim: int = 384
    heads: int = 1
    blocks: int = _DEPTH
    n_projectors: int = 3
    n_kernel_factors: int = 9
    n_lambda_factors: int = 9
    gamma_init: float = 3.0
    lambda_init: float = 0.01
    lambda_schedule: object = "constant"  # "constant" | "increasing" | list of floats
    grid_h: int = 8
    grid_w: int = 8
    seed: int = 0
    precision: str = "f64"
    variant: str = "token-wise"
    # The unnormalized differential stack is scale-unstable under random
    # weights at depth (each block's output is cubic in its input scale), so
    # runnable configs default to the normalized form; the algebraic
    # identities in the tests pass normalize=False explicitly.
    normalize: bool = True
    dwc_enabled: bool = True
    dwc_identity_branch: bool = True
    dwc_use_merged: bool = False
    inject_fault: bool = False

    def __post_init__(self):
        if self.preset not in (*PRESETS, "custom"):
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.preset in PRESETS:
            pins = dict(
                zip(("dim", "n_projectors", "n_kernel_factors", "n_lambda_factors"),
                    PRESETS[self.preset])
            )
            for name, pinned in pins.items():
                got = getattr(self, name)
                if got != pinned:
                    raise ConfigError(
                        f"preset {self.preset!r} pins {name}={pinned}, got {got}; "
                        f"use preset 'custom' to override"
                    )
        _positive_int(self.dim, "dim")
        _positive_int(self.heads, "heads")
        _positive_int(self.blocks, "blocks")
        _positive_int(self.n_projectors, "n_projectors")
        _positive_int(self.n_kernel_factors, "n_kernel_factors")
        _positive_int(self.n_lambda_factors, "n_lambda_factors")
        _positive_int(self.grid_h, "grid.h")
        _positive_int(self.grid_w, "grid.w")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if not (float(self.gamma_init) > 0):
            raise ConfigError(f"gamma_init must be > 0, got {self.gamma_init}")
        if not np.isfinite(self.lambda_init):
            raise ConfigError(f"lambda_init must be finite, got {self.lambda_init}")
        sched = self.lambda_schedule
        if isinstance(sched, str):
            if sched not in ("constant", "increasing"):
                raise ConfigError(
                    f"lambda_schedule must be 'constant', 'increasing' or a list, got {sched!r}"
                )
        elif isinstance(sched, (list, tuple)):
            if len(sched) != self.blocks:
                raise ConfigError(
                    f"lambda_schedule list has {len(sched)} entries for {self.blocks} blocks"
                )
            for lam in sched:
                if not np.isfinite(float(lam)):
                    raise ConfigError(f"lambda_schedule entry {lam!r} is not finite")
        else:
            raise ConfigError(f"bad lambda_schedule type {type(sched).__name__}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be 'f32' or 'f64', got {self.precision!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("normalize", "dwc_enabled", "dwc_identity_branch", "dwc_use_merged",
                     "inject_fault"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be a boolean")
        if self.dwc_use_merged and not self.dwc_enabled:
            raise ConfigError("dwc_use_merged requires dwc_enabled")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    def to_dict(self) -> dict:
        sched = self.lambda_schedule
        if isinstance(sched, tuple):
            sched = list(sched)
        return {
            "preset": self.preset,
            "dim": self.dim,
            "heads": self.heads,
            "blocks": self.blocks,
            "n_projectors": self.n_projectors,
            "n_kernel_factors": self.n_kernel_factors,
            "n_lambda_factors": self.n_lambda_factors,
            "gamma_init": self.gamma_init,
            "lambda_init": self.lambda_init,
            "lambda_schedule": sched,
            "grid": {"h": self.grid_h, "w": self.grid_w},
            "seed": self.seed,
            "precision": self.precision,
            "variant": self.variant,
            "normalize": self.normalize,
            "dwc": {
                "enabled": self.dwc_enabled,
                "identity_branch": self.dwc_identity_branch,
                "use_merged": self.dwc_use_merged,
            },
            "inject_fault": self.inject_fault,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        kwargs = {}

        preset = data.pop("preset", "small")
        kwargs["preset"] = preset
        if preset in PRESETS:
            # fill pinned fields so they may be omitted in the file
            for name, pinned in zip(
                ("dim", "n_projectors", "n_kernel_factors", "n_lambda_factors"), PRESETS[preset]
            ):
                kwargs[name] = data.pop(name, pinned)
        grid = data.pop("grid", None)
        if grid is not None:
            grid = dict(grid)
            kwargs["grid_h"] = _nested_int(grid, "h", "grid")
            kwargs["grid_w"] = _nested_int(grid, "w", "grid")
            _reject_unknown(grid, "grid")
        dwc = data.pop("dwc", None)
        if dwc is not None:
            dwc = dict(dwc)
            for src, dst in (
                ("enabled", "dwc_enabled"),
                ("identity_branch", "dwc_identity_branch"),
                ("use_merged", "dwc_use_merged"),
            ):
                if src in dwc:
                    kwargs[dst] = dwc.pop(src)
            _reject_unknown(dwc, "dwc")
        for name in (
            "dim", "heads", "blocks", "n_projectors", "n_kernel_factors", "n_lambda_factors",
            "gamma_init", "lambda_init", "lambda_schedule", "seed", "precision", "variant",
            "normalize", "inject_fault",
        ):
            if name in data:
                kwargs[name] = data.pop(name)
        _reject_unknown(data, "config")
        if isinstance(kwargs.get("lambda_schedule"), list):
            kwargs["lambda_schedule"] = tuple(float(x) for x in kwargs["lambda_schedule"])
        return cls(**kwargs)

    def with_overrides(self, **overrides) -> "RunConfig":
        """Replace fields; overriding a preset-pinned dim/bank size flips to custom."""
        pinned = {"dim", "n_projectors", "n_kernel_factors", "n_lambda_factors"}
        if self.preset in PRESETS and any(
            name in pinned and overrides[name] != getattr(self, name) for name in overrides
        ):
            overrides.setdefault("preset", "custom")
        return replace(self, **overrides)


def _positive_int(value, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def _nested_int(group: dict, key: str, where: str):
    if key not in group:
        raise ConfigError(f"missing {where}.{key}")
    return group.pop(key)


def _reject_unknown(leftover: dict, where: str) -> None:
    if leftover:
        bad = ", ".join(sorted(str(k) for k in leftover))
        raise ConfigError(f"unknown {where} field(s): {bad}")


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return RunConfig.from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(cfg.to_dict(), f, indent=2)
        f.write("\n")


def lambda_for_block(cfg: RunConfig, block: int) -> float:
    """Initial lambda for one block under the config's schedule."""
    if not (0 <= block < cfg.blocks):
        raise ConfigError(f"block {block} out of range for {cfg.blocks} blocks")
    sched = cfg.lambda_schedule
    if sched == "constant":
        return float(cfg.lambda_init)
    if sched == "increasing":
        if cfg.blocks == 1:
            return _SCHEDULE_LO
        t = block / (cfg.blocks - 1)
        return _SCHEDULE_LO + (_SCHEDULE_HI - _SCHEDULE_LO) * t
    return float(sched[block])


def init_params(cfg: RunConfig, rng: SeededRng | None = None) -> AttentionStack:
    """Build a seeded stack; same config and seed give byte-identical weights.

    ``fileio.assemble_stack`` asks for the arrays in ``stack_entries`` order
    and each is drawn as it is asked for: per block, projection weights (q0,
    k0, v0, the routed q then k lists, the two projection routers), then per
    head the four kernel routers, the three lambda routers, then the DWC
    kernel.  Gammas and lambdas are not drawn: every bank repeats
    ``gamma_init`` and the block's ``lambda_for_block``.  Weights are
    U(-1/sqrt(fan_in), +1/sqrt(fan_in)), the DWC kernel U(-1/3, +1/3), drawn
    in float64 and cast once to the config precision.
    """
    if rng is None:
        rng = SeededRng(cfg.seed)
    prec = cfg.precision

    def draw(block, name, shape):
        if name.endswith("/gammas"):
            return np.full(shape, float(cfg.gamma_init))
        if name.endswith("/lambdas"):
            return np.full(shape, lambda_for_block(cfg, block))
        if name.endswith("/dwc/kernels"):
            return rng.uniform(shape, -1.0 / 3.0, 1.0 / 3.0, prec)
        return rng.init_weight(*shape, prec)

    return assemble_stack(cfg, draw)
