"""Pinned `forward` output hashes.

Token-wise `forward` uses only IEEE + - * /, sqrt and comparisons in fixed
orders, with no host libm and no numpy reduction whose order numpy may
change, on both backends and at every vector width.  So the sha256 of its
output tokens, as `dydila forward` prints it, is pinned here for the three
presets; the README lists the same hashes.  The base and large presets run
on the compiled backend only: on the numpy backend they take about four
times as long.  The lambda means on `forward`'s block lines are correctly
rounded sums (``math.fsum``) over a count, so the whole stdout of the small
preset is pinned too.  Map-wise `forward`, each map normalized by its own
denominator, uses the same operations; its small-preset hashes are pinned
on both backends, and every preset is finite at its depth.
"""

import hashlib

import numpy as np
import pytest

import dydila.numerics as numerics
from dydila import RunConfig, SeededRng, cli, init_params, stack_forward

from conftest import needs_compiler

PINNED = {
    "small": {
        "f64": "a4a08c504e256507b352d50a4d74e2e5539e807e70aa13cfeaccca566b9756a9",
        "f32": "32f872494a70079263c4932e6b924be785368757b35d826c5310f1e3c0dc69df",
    },
    "base": {
        "f64": "774f132259e9758a506c48beec5f18b4df785721736dce3dddb50a9e96d61387",
        "f32": "e272ed6d4931cff9b750b72522e33e4d6cfb2996efa3d0802a358b32c88ea6fa",
    },
    "large": {
        "f64": "3d734445e52ae25f9bea7dee25ae55afe03a165d5ea12a513dff225e0f93e01f",
        "f32": "e5d491b1db3b9e99b74cc67ab4d5231a8f99eedc55a2e0bfd33aa1ff90af5945",
    },
}

# The output hash of `forward` on the small preset with "variant": "map-wise".
PINNED_MAPWISE = {
    "f64": "395a39a243692a696023c23a63cb1bb188ccebb80d099430a7bbc6d6d4c4edc3",
    "f32": "3337ff75428584e4da774c76669f324cd5a3a547100c1efac0c2a27dd2bd03bb",
}

# sha256 of the whole stdout of `dydila forward --preset small --precision P`.
PINNED_STDOUT = {
    "f64": "cb15fc8d351e9fd4c72d41c6708f4e590b6610bed3e217bcce593164a9ea166d",
    "f32": "bebacfe994188e7583b3461287325d57b8144d35775c8acada48b0795c8ac433",
}


def _forward_sha256(precision, preset="small", variant="token-wise"):
    """`dydila forward`'s output hash for a preset, precision and variant, in
    process; stack_forward raises if any block's output is not finite."""
    cfg = RunConfig.from_dict({"preset": preset, "precision": precision, "variant": variant})
    rng = SeededRng(cfg.seed)
    stack = init_params(cfg, rng)
    x = rng.tokens(cfg.grid_h * cfg.grid_w, cfg.dim, cfg.precision)
    out, _ = stack_forward(x, stack)
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


@pytest.mark.parametrize("precision", sorted(PINNED["small"]))
def test_compiled_forward_hash_is_pinned(precision):
    needs_compiler()
    assert _forward_sha256(precision) == PINNED["small"][precision]


@pytest.mark.parametrize("precision", sorted(PINNED["small"]))
def test_numpy_forward_hash_is_pinned(monkeypatch, precision):
    monkeypatch.setattr(numerics, "_c_kernels", {})
    assert _forward_sha256(precision) == PINNED["small"][precision]


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("preset", ["base", "large"])
def test_compiled_forward_hash_is_pinned_for_larger_presets(preset, precision):
    needs_compiler()
    assert _forward_sha256(precision, preset) == PINNED[preset][precision]


@pytest.mark.parametrize("backend", ["c", "numpy"])
@pytest.mark.parametrize("precision", sorted(PINNED_MAPWISE))
def test_mapwise_forward_hash_is_pinned(monkeypatch, backend, precision):
    if backend == "c":
        needs_compiler()
    else:
        monkeypatch.setattr(numerics, "_c_kernels", {})
    assert _forward_sha256(precision, variant="map-wise") == PINNED_MAPWISE[precision]


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("preset", ["base", "large"])
def test_mapwise_forward_is_finite_at_preset_depth(preset, precision):
    needs_compiler()
    _forward_sha256(precision, preset, variant="map-wise")


@pytest.mark.parametrize("backend", ["c", "numpy"])
@pytest.mark.parametrize("precision", sorted(PINNED_STDOUT))
def test_forward_stdout_is_pinned(monkeypatch, capsys, backend, precision):
    if backend == "c":
        needs_compiler()
    else:
        monkeypatch.setattr(numerics, "_c_kernels", {})
    assert cli.main(["forward", "--preset", "small", "--precision", precision]) == 0
    stdout = capsys.readouterr().out
    assert stdout.endswith(f"output sha256 {PINNED['small'][precision]}\n"), stdout
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_STDOUT[precision], stdout
