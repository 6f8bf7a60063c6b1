"""Run configuration: schema, presets, validation, parameter init and the
seeded run (stack, then tokens) that every front end draws.

Configs are flat JSON with two nested groups (`grid`, `dwc`).  Unknown
fields are rejected so typos fail loudly, and a value of the wrong kind is
rejected by its field's name.  The three presets pin model dim
and bank sizes; overriding a pinned field under a named preset is an error
(use preset "custom").
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .attention import AttentionStack
from .differential import VARIANTS
from .fileio import _load_json, assemble_stack
from .numerics import PRECISIONS, ConfigError, SeededRng

__all__ = [
    "PRESETS",
    "RunConfig",
    "load_config",
    "save_config",
    "lambda_for_block",
    "init_params",
    "grid_for",
    "seeded_run",
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


def _positive_int(value, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def _non_negative_int(value, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")


def _finite(value, name: str) -> None:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # NaN, the infinities and integers past the float range all fail the bound
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _bool(value, name: str) -> None:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean, got {value!r}")


def _choice(*choices):
    def check(value, name: str) -> None:
        if value not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
    return check


def _schedule(value, name: str) -> None:
    if isinstance(value, (list, tuple)):
        for lam in value:
            _finite(lam, f"{name} entry")
    elif value not in ("constant", "increasing"):
        raise ConfigError(f"{name} must be 'constant', 'increasing' or a list, got {value!r}")


def _field(default, kind, place=None):
    """A config field: its default, the check of its kind, and its JSON place,
    a ``(group, key)`` pair for the nested groups or None for a top-level key."""
    return field(default=default, metadata={"kind": kind, "place": place})


# The fields a named preset pins, in the order of PRESETS' tuples.
_PINNED = ("dim", "n_projectors", "n_kernel_factors", "n_lambda_factors")
# A file that gives `grid` names both sides; `dwc` keys may be left out.
_WHOLE_GROUPS = ("grid",)


@dataclass(frozen=True)
class RunConfig:
    """Resolved, validated run settings.

    Each field declares its default, its kind and its JSON place once;
    validation, ``to_dict`` and ``from_dict`` all read those declarations.
    """

    preset: str = _field("small", _choice(*PRESETS, "custom"))
    dim: int = _field(384, _positive_int)
    heads: int = _field(1, _positive_int)
    blocks: int = _field(_DEPTH, _positive_int)
    n_projectors: int = _field(3, _positive_int)
    n_kernel_factors: int = _field(9, _positive_int)
    n_lambda_factors: int = _field(9, _positive_int)
    gamma_init: float = _field(3.0, _finite)
    lambda_init: float = _field(0.01, _finite)
    # "constant" | "increasing" | one float per block
    lambda_schedule: object = _field("constant", _schedule)
    grid_h: int = _field(8, _positive_int, ("grid", "h"))
    grid_w: int = _field(8, _positive_int, ("grid", "w"))
    seed: int = _field(0, _non_negative_int)
    precision: str = _field("f64", _choice(*PRECISIONS))
    variant: str = _field("token-wise", _choice(*VARIANTS))
    # The unnormalized differential stack is scale-unstable under random
    # weights at depth (each block's output is cubic in its input scale), so
    # runnable configs default to the normalized form; the algebraic
    # identities in the tests pass normalize=False explicitly.
    normalize: bool = _field(True, _bool)
    dwc_enabled: bool = _field(True, _bool, ("dwc", "enabled"))
    dwc_identity_branch: bool = _field(True, _bool, ("dwc", "identity_branch"))
    dwc_use_merged: bool = _field(False, _bool, ("dwc", "use_merged"))
    inject_fault: bool = _field(False, _bool)

    def __post_init__(self):
        for f in fields(self):
            f.metadata["kind"](getattr(self, f.name), ".".join(f.metadata["place"] or (f.name,)))
        if self.preset in PRESETS:
            for name, pinned in zip(_PINNED, PRESETS[self.preset]):
                got = getattr(self, name)
                if got != pinned:
                    raise ConfigError(
                        f"preset {self.preset!r} pins {name}={pinned}, got {got}; "
                        f"use preset 'custom' to override"
                    )
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if not self.gamma_init > 0:
            raise ConfigError(f"gamma_init must be > 0, got {self.gamma_init}")
        if isinstance(self.lambda_schedule, (list, tuple)):
            if len(self.lambda_schedule) != self.blocks:
                raise ConfigError(f"lambda_schedule list has {len(self.lambda_schedule)} "
                                  f"entries for {self.blocks} blocks")
            # kept as floats in a tuple, so the config stays hashable
            object.__setattr__(self, "lambda_schedule",
                               tuple(float(lam) for lam in self.lambda_schedule))
        if self.dwc_use_merged and not self.dwc_enabled:
            raise ConfigError("dwc.use_merged requires dwc.enabled")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    def to_dict(self) -> dict:
        """The JSON layout: fields in declaration order, each nested group
        placed where its first field is declared."""
        out = {}
        for f in fields(self):
            group, key = f.metadata["place"] or (None, f.name)
            value = getattr(self, f.name)
            (out.setdefault(group, {}) if group else out)[key] = (
                list(value) if isinstance(value, tuple) else value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = _object(data, "config")
        preset = data.get("preset", "small")
        # a named preset fills its pinned fields, so a file may omit them
        pins = PRESETS[preset] if isinstance(preset, str) and preset in PRESETS else ()
        kwargs = dict(zip(_PINNED, pins))
        groups = {}
        for f in fields(cls):
            group, key = f.metadata["place"] or (None, f.name)
            if group in data:
                groups[group] = _object(data.pop(group), group)
            source = groups.get(group, {}) if group else data
            if key in source:
                kwargs[f.name] = source.pop(key)
            elif group in groups and group in _WHOLE_GROUPS:
                raise ConfigError(f"missing {group}.{key}")
        for where, leftover in (*groups.items(), ("config", data)):
            if leftover:
                bad = ", ".join(sorted(str(k) for k in leftover))
                raise ConfigError(f"unknown {where} field(s): {bad}")
        return cls(**kwargs)

    def with_overrides(self, **overrides) -> "RunConfig":
        """Replace fields; overriding a preset-pinned dim/bank size flips to custom.

        Fewer ``blocks`` keep the first entries of a per-block lambda schedule.
        """
        if self.preset in PRESETS and any(
            name in overrides and overrides[name] != getattr(self, name) for name in _PINNED
        ):
            overrides.setdefault("preset", "custom")
        if isinstance(self.lambda_schedule, tuple) and isinstance(overrides.get("blocks"), int):
            overrides.setdefault("lambda_schedule", self.lambda_schedule[: overrides["blocks"]])
        return replace(self, **overrides)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return dict(value)


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(_load_json(path, "config", ConfigError))


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


def grid_for(n: int) -> tuple:
    """Most-square (h, w) factorization of n, used to lay tokens on a grid."""
    if n < 1:
        raise ConfigError(f"sequence length must be >= 1, got {n}")
    h = int(n ** 0.5)
    while h > 1 and n % h:
        h -= 1
    return h, n // h


def seeded_run(cfg: RunConfig, n: int | None = None):
    """``(cfg, stack, tokens)``: weights, then tokens, from one ``SeededRng(cfg.seed)``.

    There are n tokens (default: the grid area); when n is not the grid area
    the returned config lays them on the most-square grid for n.
    """
    if n is not None and n != cfg.grid_h * cfg.grid_w:
        h, w = grid_for(n)
        cfg = cfg.with_overrides(grid_h=h, grid_w=w)
    rng = SeededRng(cfg.seed)
    stack = init_params(cfg, rng)
    return cfg, stack, rng.tokens(cfg.grid_h * cfg.grid_w, cfg.dim, cfg.precision)
