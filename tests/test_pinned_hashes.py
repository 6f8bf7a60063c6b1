"""Pinned `forward` output hashes.

Token-wise `forward` uses only IEEE + - * /, sqrt and comparisons in fixed
orders, with no host libm and no numpy reduction whose order numpy may
change, on both backends and at every vector width.  So the sha256 of its
output tokens, as `dydila forward` prints it, is pinned here for the small
preset; the README lists the same hashes.  The lambda means on `forward`'s
block lines use ``np.mean`` and are not part of the pinned bytes.  Map-wise
`forward` is not finite at the presets' depth, so it has no hash to pin.
"""

import hashlib

import numpy as np
import pytest

import dydila.numerics as numerics
from dydila import RunConfig, SeededRng, init_params, stack_forward

from conftest import needs_compiler

PINNED = {
    "f64": "a4a08c504e256507b352d50a4d74e2e5539e807e70aa13cfeaccca566b9756a9",
    "f32": "32f872494a70079263c4932e6b924be785368757b35d826c5310f1e3c0dc69df",
}


def _forward_sha256(precision):
    """`dydila forward --preset small --precision P`'s output hash, in process."""
    cfg = RunConfig.from_dict({"preset": "small", "precision": precision})
    rng = SeededRng(cfg.seed)
    stack = init_params(cfg, rng)
    x = rng.tokens(cfg.grid_h * cfg.grid_w, cfg.dim, cfg.precision)
    out, _ = stack_forward(x, stack)
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


@pytest.mark.parametrize("precision", sorted(PINNED))
def test_compiled_forward_hash_is_pinned(precision):
    needs_compiler()
    assert _forward_sha256(precision) == PINNED[precision]


@pytest.mark.parametrize("precision", sorted(PINNED))
def test_numpy_forward_hash_is_pinned(monkeypatch, precision):
    monkeypatch.setattr(numerics, "_c_kernels", {})
    assert _forward_sha256(precision) == PINNED[precision]
