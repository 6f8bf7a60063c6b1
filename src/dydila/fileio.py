"""On-disk formats: CSV, PGM images, and weight blobs with JSON manifests.

All text output uses LF newlines and '.' decimals; floats are written with
``repr`` so they round-trip exactly and identical runs produce identical
bytes.  Weight blobs are raw little-endian floats described by a JSON
manifest of (name, shape, dtype, byte_offset) entries sorted by name.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .attention import AttentionStack, DwcParams, DydilaParams, HeadParams
from .differential import DifferentialBank
from .kernels import KernelBank
from .numerics import ConfigError, ContractViolation, require_finite, resolve_dtype
from .projection import ProjectorBank
from .routing import Router

__all__ = [
    "fmt_float",
    "fmt_cell",
    "write_csv",
    "read_csv",
    "write_tokens_csv",
    "load_tokens_csv",
    "write_pgm",
    "read_pgm",
    "stack_entries",
    "assemble_stack",
    "save_weights_blob",
    "load_weights_blob",
    "stack_from_weights",
]

_BLOB_DTYPES = {"f32": "<f4", "f64": "<f8"}


def fmt_float(x) -> str:
    """Shortest exact decimal for a float (repr); deterministic and lossless."""
    return repr(float(x))


def fmt_cell(x) -> str:
    """One CSV cell: strings as they are, integers in decimal, floats by `fmt_float`."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return fmt_float(x)


def write_csv(path, header, rows) -> None:
    """Comma-separated, LF-terminated lines with a single header row."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt_cell(x) for x in row) + "\n")


def read_csv(path):
    """Returns (header, rows) with every cell still a string.

    A file that is empty or not UTF-8 raises ``ContractViolation`` naming it.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            lines = list(csv.reader(f))
    except UnicodeDecodeError as e:
        raise ContractViolation(f"{path} is not UTF-8 text: {e}") from None
    if not lines:
        raise ContractViolation(f"{path} is empty, expected a CSV header")
    return lines[0], lines[1:]


def _load_json(path, what: str, error=ContractViolation):
    """The JSON value in a UTF-8 file; a file that is not UTF-8 JSON raises
    ``error`` naming it as ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise error(f"{what} {path} is not valid JSON: {e}") from None


def write_tokens_csv(path, tokens: np.ndarray) -> None:
    header = [f"c{j}" for j in range(tokens.shape[1])]
    write_csv(path, header, tokens)


def load_tokens_csv(path, precision="f64") -> np.ndarray:
    """Token matrix from CSV; rows must be rectangular and all-finite."""
    header, rows = read_csv(path)
    width = len(header)
    data = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ContractViolation(
                f"{path} row {i} has {len(row)} cells, header has {width}"
            )
        try:
            data.append([float(c) for c in row])
        except ValueError as e:
            raise ContractViolation(f"{path} row {i}: {e}") from None
    arr = np.array(data, dtype=resolve_dtype(precision))
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ContractViolation(f"{path} holds no token rows")
    require_finite(arr, f"tokens from {path}")
    return arr


def write_pgm(path, image: np.ndarray) -> None:
    """Binary (P5) grayscale image, min-max normalized to 0..255.

    A constant image maps to mid-gray 128 rather than dividing by zero.
    """
    if image.ndim != 2:
        raise ContractViolation(f"pgm image must be 2-D, got shape {image.shape}")
    img = np.asarray(image, dtype=np.float64)
    require_finite(img, "pgm image")
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.rint((img - lo) * (255.0 / (hi - lo)))
        pixels = np.clip(scaled, 0, 255).astype(np.uint8)
    else:
        pixels = np.full(img.shape, 128, dtype=np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def read_pgm(path):
    """Returns (width, height, pixel bytes); validates the P5 header."""
    with open(path, "rb") as f:
        blob = f.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ContractViolation(f"{path} is not a binary P5 PGM")
    size = parts[1].split()
    if len(size) != 2 or not all(t.isdigit() for t in size):
        raise ContractViolation(f"{path} size line must be a width and a height, got {parts[1]!r}")
    w, h = int(size[0]), int(size[1])
    if parts[2] != b"255":
        raise ContractViolation(f"{path} maxval must be 255, got {parts[2]!r}")
    pixels = parts[3]
    if len(pixels) != w * h:
        raise ContractViolation(f"{path} has {len(pixels)} pixel bytes for {w}x{h}")
    return w, h, pixels


def stack_entries(stack: AttentionStack):
    """Yield (name, array) for every weight in a fixed, rebuildable order."""
    for b, block in enumerate(stack.blocks):
        p = block.proj
        yield f"block{b}/proj/w_q0", p.w_q0
        yield f"block{b}/proj/w_k0", p.w_k0
        yield f"block{b}/proj/w_v0", p.w_v0
        for i, w in enumerate(p.w_q):
            yield f"block{b}/proj/w_q{i + 1}", w
        for i, w in enumerate(p.w_k):
            yield f"block{b}/proj/w_k{i + 1}", w
        yield f"block{b}/proj/router_q", p.router_q.weights
        yield f"block{b}/proj/router_k", p.router_k.weights
        for h, hp in enumerate(block.head_params):
            for stream in ("q", "k", "qp", "kp"):
                bank = getattr(hp, f"kernel_{stream}")
                yield f"block{b}/head{h}/kernel_{stream}/gammas", np.asarray(
                    bank.gammas, dtype=np.float64
                )
                yield f"block{b}/head{h}/kernel_{stream}/router", bank.router.weights
            yield f"block{b}/head{h}/diff/lambdas", np.asarray(
                hp.diff.lambdas, dtype=np.float64
            )
            yield f"block{b}/head{h}/diff/router_q", hp.diff.router_q.weights
            yield f"block{b}/head{h}/diff/router_k", hp.diff.router_k.weights
            yield f"block{b}/head{h}/diff/router_map", hp.diff.lambda_map_router.weights
        if block.dwc is not None:
            yield f"block{b}/dwc/kernels", block.dwc.kernels


def assemble_stack(cfg, weight) -> AttentionStack:
    """Build cfg's stack, asking ``weight(block, name, shape)`` for every array.

    Names and order are ``stack_entries``'.  Gammas and lambdas must come
    back as 1-D float64 arrays, every other entry in the config's precision;
    an entry of the wrong shape or dtype raises ``ConfigError`` naming it.
    """
    d, d_h, prec = cfg.dim, cfg.head_dim, resolve_dtype(cfg.precision)
    n_p, n_k, n_l = cfg.n_projectors, cfg.n_kernel_factors, cfg.n_lambda_factors

    def get(b, name, *shape):
        name = f"block{b}/{name}"
        arr = np.asarray(weight(b, name, shape))
        want = np.float64 if name.endswith(("/gammas", "/lambdas")) else prec
        if arr.shape != shape or arr.dtype != want:
            raise ConfigError(f"weight entry {name!r} is {arr.dtype} {arr.shape}, "
                              f"expected {np.dtype(want)} {shape}")
        return arr

    blocks = []
    for b in range(cfg.blocks):
        proj = ProjectorBank(
            w_q0=get(b, "proj/w_q0", d, d),
            w_k0=get(b, "proj/w_k0", d, d),
            w_v0=get(b, "proj/w_v0", d, d),
            w_q=tuple(get(b, f"proj/w_q{i + 1}", d, d) for i in range(n_p)),
            w_k=tuple(get(b, f"proj/w_k{i + 1}", d, d) for i in range(n_p)),
            router_q=Router(get(b, "proj/router_q", d, n_p)),
            router_k=Router(get(b, "proj/router_k", d, n_p)),
        )
        head_params = []
        for h in range(cfg.heads):
            kernels = {
                f"kernel_{s}": KernelBank(
                    gammas=tuple(float(g) for g in get(b, f"head{h}/kernel_{s}/gammas", n_k)),
                    router=Router(get(b, f"head{h}/kernel_{s}/router", d_h, n_k)),
                )
                for s in ("q", "k", "qp", "kp")
            }
            diff = DifferentialBank(
                lambdas=tuple(float(x) for x in get(b, f"head{h}/diff/lambdas", n_l)),
                router_q=Router(get(b, f"head{h}/diff/router_q", 2 * d_h, n_l)),
                router_k=Router(get(b, f"head{h}/diff/router_k", 2 * d_h, n_l)),
                lambda_map_router=Router(get(b, f"head{h}/diff/router_map", 2 * d_h, n_l)),
            )
            head_params.append(HeadParams(**kernels, diff=diff))
        dwc = None
        if cfg.dwc_enabled:
            dwc = DwcParams(kernels=get(b, "dwc/kernels", d, 3, 3),
                            identity_branch=cfg.dwc_identity_branch,
                            use_merged=cfg.dwc_use_merged)
        blocks.append(
            DydilaParams(
                proj=proj,
                head_params=tuple(head_params),
                grid=(cfg.grid_h, cfg.grid_w),
                dwc=dwc,
                variant=cfg.variant,
                normalize=cfg.normalize,
            )
        )
    return AttentionStack(blocks=tuple(blocks))


def _dtype_name(arr: np.ndarray) -> str:
    return "f32" if arr.dtype == np.float32 else "f64"


def save_weights_blob(stack: AttentionStack, base_path) -> str:
    """Write {base}.bin (raw little-endian floats) + {base}.json manifest.

    Returns the manifest path.  Entries are sorted by name so the byte
    layout is a pure function of the weights.
    """
    base = os.fspath(base_path)
    blob_path, manifest_path = base + ".bin", base + ".json"
    entries = sorted(stack_entries(stack), key=lambda e: e[0])
    offset = 0
    meta = []
    with open(blob_path, "wb") as f:
        for name, arr in entries:
            raw = np.ascontiguousarray(arr, dtype=_BLOB_DTYPES[_dtype_name(arr)]).tobytes()
            f.write(raw)
            meta.append(
                {
                    "name": name,
                    "shape": list(arr.shape),
                    "dtype": _dtype_name(arr),
                    "byte_offset": offset,
                }
            )
            offset += len(raw)
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as f:
        json.dump({"blob": os.path.basename(blob_path), "entries": meta}, f, indent=2)
        f.write("\n")
    return manifest_path


def load_weights_blob(manifest_path) -> dict:
    """Read a manifest + blob pair back into a name -> array dict.

    A manifest that is not UTF-8 JSON, not an object with a blob name and
    an entries list, or an entry without a name, raises ``ContractViolation``
    naming the manifest (and the entry's index).  An entry whose dtype is
    not f32 or f64, whose shape is not a list of non-negative integers,
    whose byte_offset is not an integer or whose bytes do not lie inside the
    blob raises ``ContractViolation`` naming it.
    """
    manifest = _load_json(manifest_path, "weights manifest")
    if (not isinstance(manifest, dict) or not isinstance(manifest.get("blob"), str)
            or not isinstance(manifest.get("entries"), list)):
        raise ContractViolation(f"weights manifest {manifest_path} must be an object with a "
                                "'blob' file name and an 'entries' list")
    blob_path = os.path.join(os.path.dirname(os.fspath(manifest_path)), manifest["blob"])
    with open(blob_path, "rb") as f:
        blob = f.read()
    weights = {}
    for index, entry in enumerate(manifest["entries"]):
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise ContractViolation(f"weights manifest {manifest_path} entry {index} has no name")
        dtype, shape, start = (entry.get(k) for k in ("dtype", "shape", "byte_offset"))
        if not isinstance(dtype, str) or dtype not in _BLOB_DTYPES:
            raise ContractViolation(
                f"weights entry {name!r} has dtype {dtype!r}, expected f32 or f64")
        # type() rather than isinstance: JSON's true and false load as bools, which are ints
        if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
            raise ContractViolation(f"weights entry {name!r} has shape {shape!r}, expected a "
                                    "list of non-negative integers")
        if type(start) is not int:
            raise ContractViolation(f"weights entry {name!r} has byte_offset {start!r}, "
                                    "expected an integer")
        dt = np.dtype(_BLOB_DTYPES[dtype])
        count = math.prod(shape)
        end = start + count * dt.itemsize
        if start < 0 or end > len(blob):
            raise ContractViolation(f"weights entry {name!r} spans bytes {start}..{end} "
                                    f"of the {len(blob)}-byte blob {blob_path}")
        arr = np.frombuffer(blob, dtype=dt, count=count, offset=start)
        weights[name] = arr.reshape(shape).astype(dt.newbyteorder("="))
    return weights


def stack_from_weights(cfg, weights: dict) -> AttentionStack:
    """Rebuild a stack from cfg structure plus a name -> array dict.

    The dict holds ``stack_entries`` names (as ``load_weights_blob`` returns
    them); ``assemble_stack`` asks for each one and rejects a missing entry or
    one of the wrong shape or dtype with a ``ConfigError`` naming it.
    """

    def lookup(block, name, shape):
        try:
            return weights[name]
        except KeyError:
            raise ConfigError(f"weights are missing entry {name!r}") from None

    return assemble_stack(cfg, lookup)
