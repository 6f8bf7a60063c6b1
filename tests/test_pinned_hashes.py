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
on both backends, and every preset is finite at its depth.  Desk-sized
blocks with spread gammas and lambdas pin their outputs, routes and
attention rows, so a lambda or gamma routed by the wrong router shows.
"""

import hashlib
import shutil

import numpy as np
import pytest

import dydila.numerics as numerics
from dydila import (
    RunConfig,
    SeededRng,
    cli,
    extract_attention_row,
    init_params,
    multihead_forward,
    stack_forward,
)

from conftest import fresh_backend, make_block, mat, needs_compiler

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


@pytest.mark.parametrize("backend", ["c", "numpy"], indirect=True)
@pytest.mark.parametrize("precision", sorted(PINNED_MAPWISE))
def test_mapwise_forward_hash_is_pinned(backend, precision):
    assert _forward_sha256(precision, variant="map-wise") == PINNED_MAPWISE[precision]


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("preset", ["base", "large"])
def test_mapwise_forward_is_finite_at_preset_depth(preset, precision):
    needs_compiler()
    _forward_sha256(precision, preset, variant="map-wise")


@pytest.mark.parametrize("backend", ["c", "numpy"], indirect=True)
@pytest.mark.parametrize("precision", sorted(PINNED_STDOUT))
def test_forward_stdout_is_pinned(capsys, backend, precision):
    assert cli.main(["forward", "--preset", "small", "--precision", precision]) == 0
    stdout = capsys.readouterr().out
    assert stdout.endswith(f"output sha256 {PINNED['small'][precision]}\n"), stdout
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_STDOUT[precision], stdout


# Spread banks: `init_params` repeats one gamma and one lambda, so the pins
# above cannot see a gamma or lambda routed by the wrong router.
# `conftest.make_block` draws varied gammas and lambdas, so a route moves
# output bits.  A cell pins the sha256 of the block output, keyed by
# (heads, variant, normalize, dwc); and of every head's four kernel routes
# and its routed lambdas (names, values and routes, in the order the
# diagnostics hold them), which the normalizer and the DWC cannot move, keyed
# by (heads, variant).  The rows are those of query 5, head 2 of 3, keyed by
# (row, normalize): "dydila" is the token-wise block's row, "mapwise" the
# map-wise block's.
SPREAD_SEED, SPREAD_DIM, SPREAD_GRID = 2020, 12, (8, 8)

PINNED_SPREAD_OUTPUTS = {
    (1, "token-wise", False, True): "7dcc324b43f814b5bb54e409b6bba80bcd29817270bd6493327af132b14cec52",
    (1, "token-wise", False, False): "2b86e33d9ffc1f3db0c653e845a3ea32e7eb33e86e0df6be976b2dcfdf222780",
    (1, "token-wise", True, True): "3ff0b4417390858cc7441bf5038957beb7cb7bfcef1504f62871e1408374ead5",
    (1, "token-wise", True, False): "2a5c5ffc0d3429da8c89f1cfe43f1e813a66ae0b49fd916e8f125782b7c78eb3",
    (1, "map-wise", False, True): "88dbbaf744e3d2e127a8aeff9a845422e5c7eb2eba4f408f480b67b6536462b4",
    (1, "map-wise", False, False): "11d15a596f88a9fdbb083117ef248e476e6765eea4a5f33fea07f979b363d911",
    (1, "map-wise", True, True): "6d1aaad232da2d5715a142fb8c9a16cd1d14dc55ca4cbbaad6eed8c691571297",
    (1, "map-wise", True, False): "7e85475e08db535c5531d743b618775d18193802d2f99ce286cf3c42bde91780",
    (3, "token-wise", False, True): "afa5ec0424b8f89707a388c03b9bb87f1328b3756f61573627b1d6e66e30c4cc",
    (3, "token-wise", False, False): "db26d9376ddfbd084cc8eeae4bf464f78cec005afdac5d7273cc3bfc08f3146f",
    (3, "token-wise", True, True): "29fd8ebcd22247226b55745c7f682fe2b6f69de05997b21b49bea29e8963b2be",
    (3, "token-wise", True, False): "4f497ec7ac1714b9220e5a6ba2ff6c679ddc4437678c16abd2e6d9f53fbbebc9",
    (3, "map-wise", False, True): "f3197fda221725bd7994f39f2564bf4c5a01a8fa7f2f867a42a956a85edb7709",
    (3, "map-wise", False, False): "2a416984637b2f60e0a54d43aad90b3a740edeb92dfe44c11199254d33d39482",
    (3, "map-wise", True, True): "f959845b90b211f0e7e4c79cb7da3bd278761f3560b1b3130bc97c724dfc5701",
    (3, "map-wise", True, False): "815a6882aced98a184eac5b81056bdb182fec82a55b4fe0ee411e6c4a482f87c",
}

PINNED_SPREAD_ROUTES = {
    (1, "token-wise"): "e61aaa99125cac0bd7aa6c947d8294798f11c470fa1e0cb33b35893ccb8da93c",
    (1, "map-wise"): "be369854bf3a4a5e0a72217ba33c6a6002083212eef3c6e5effe7b5b9644cd96",
    (3, "token-wise"): "1015a0d93f33bca6eb389bc0d8d2fb72686d6f8c05a721254463f529977578f0",
    (3, "map-wise"): "a45b3669506fe0dfcb14085836c81a4874102f9dd1bab68f7630c0459362d24c",
}

PINNED_SPREAD_ROWS = {
    ("dydila", False): "2e2f202c431e062bcefeaa54a39a9c54b3f2ee63a603741850d3101ee3860dd8",
    ("dydila", True): "480f609dad4a0f5606667d98c3effca95b34b1e43c31ac7e05f837caedf01f13",
    ("mapwise", False): "d38d21899627e48800a01533481a0007ed9f604ecb4f39f0e7f890a8757be1eb",
    ("mapwise", True): "75150483c09a297e6f612f5ddae152156905cfc3f834acbe856768054c3b5595",
}


def _spread_block(heads, variant="token-wise", normalize=False, dwc=True):
    return make_block(SPREAD_SEED, SPREAD_DIM, SPREAD_GRID, heads=heads, dwc=dwc,
                      variant=variant, normalize=normalize)


def _spread_tokens():
    return mat(SPREAD_SEED + 1, SPREAD_GRID[0] * SPREAD_GRID[1], SPREAD_DIM)


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _spread_block_digests(heads, variant, normalize, dwc):
    """sha256 of the block output, and of its heads' routes and lambdas."""
    out, diag = multihead_forward(_spread_tokens(), _spread_block(heads, variant, normalize, dwc))
    routes = []
    for head in diag.heads:
        routes += [r.indices for r in (head.routes_kernel_q, head.routes_kernel_k,
                                       head.routes_kernel_qp, head.routes_kernel_kp)]
        for name, (values, assignment) in head.lambdas.items():
            routes += [np.frombuffer(name.encode(), np.uint8), values, assignment.indices]
    return _sha256(out), _sha256(*routes)


def _spread_row_digest(row, normalize):
    variant = {"dydila": "token-wise", "mapwise": "map-wise"}[row]
    block = _spread_block(3, variant, normalize)
    return _sha256(extract_attention_row(_spread_tokens(), block, 5, head=2))


@pytest.mark.parametrize("cell", list(PINNED_SPREAD_OUTPUTS),
                         ids=lambda c: "-".join(map(str, c)))
def test_spread_bank_block_bits_are_pinned(backend, cell):
    out, routes = _spread_block_digests(*cell)
    assert out == PINNED_SPREAD_OUTPUTS[cell]
    assert routes == PINNED_SPREAD_ROUTES[cell[:2]]


@pytest.mark.parametrize("cell", list(PINNED_SPREAD_ROWS), ids=lambda c: "-".join(map(str, c)))
def test_spread_bank_attention_row_bits_are_pinned(backend, cell):
    assert _spread_row_digest(*cell) == PINNED_SPREAD_ROWS[cell]


def test_compiler_without_native_gets_the_pinned_bits(monkeypatch, tmp_path):
    # a compiler that rejects -march=native (older Apple Clang on arm64 is
    # one) builds without it; on x86-64 that build runs the 16-byte tile
    needs_compiler()
    cc = tmp_path / "cc"
    cc.write_text('#!/bin/sh\nfor a; do [ "$a" = -march=native ] && echo "cc: unknown" >&2 && exit 1; done\n'
                  f'exec {shutil.which(numerics._CC)} "$@"\n')
    cc.chmod(0o755)
    fresh_backend(monkeypatch, tmp_path)
    monkeypatch.setattr(numerics, "_CC", str(cc))
    assert "-march=native" not in numerics._cache_path()[1]
    assert numerics.matmul_backend() == "c"
    for precision, pinned in PINNED["small"].items():
        assert _forward_sha256(precision) == pinned
