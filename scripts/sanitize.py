"""The compiled kernels under AddressSanitizer and UBSan.

    python3 scripts/sanitize.py

Builds the kernels with the production flags, ``-O3`` swapped for
``-O1 -g -fsanitize=address,undefined -fno-sanitize-recover=all
-fno-omit-frame-pointer`` (``-march=native`` and ``-ffp-contract=off``
kept), into a private ``XDG_CACHE_HOME``, and runs the numerics, kernels,
pow, pinned-hash and attention test modules on them in a subprocess, with
the ASan runtime that ``cc -print-file-name=libasan.so`` names preloaded.
Reports go to log files, since pytest's output capture swallows a report
when the process aborts.  It then prints one digest of kernel outputs
(edge, narrow, F-ordered and KC-crossing products, focused maps, DWCs and
a block at the small preset's width, in f64 and f32) from the sanitized
build beside the production build's: the optimization level moves no bit,
so they must be equal.  Exits 1 on a test failure, a sanitizer report or
differing digests.  It is not part of the Tier-1 suite: it takes a few
minutes.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_numerics.py", "tests/test_kernels.py", "tests/test_pow.py",
         "tests/test_pinned_hashes.py", "tests/test_attention.py")
SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer")
TIMEOUT_S = 3600

# Run in a child process: set the flags before the first kernel call, then
# run the tests (when given) and print the digest on the last line.
_CHILD = """
import sys
sys.path.insert(0, {scripts!r})
import dydila.numerics as numerics
import sanitize
if {sanitized!r}:
    numerics._CFLAGS = sanitize.sanitized_flags(numerics._CFLAGS)
assert numerics.matmul_backend() == "c", numerics._c_unavailable
status = 0
if {tests!r}:
    import pytest
    status = int(pytest.main(["-q", "-p", "no:cacheprovider", *{tests!r}]))
print(sanitize.digest())
sys.exit(status)
"""


def sanitized_flags(flags: tuple) -> tuple:
    """`flags` with the sanitizer flags in place of -O3."""
    return tuple(f for flag in flags for f in (SANITIZE if flag == "-O3" else (flag,)))


def digest() -> str:
    """sha256 over the outputs of the compiled kernels on a fixed set of inputs."""
    import hashlib

    import numpy as np

    from dydila import numerics
    from dydila.attention import multihead_forward
    from dydila.config import RunConfig, seeded_run

    blocks = numerics._MATMUL_BLOCKS
    mr, kc, nc = blocks["MR"], blocks["KC"], blocks["NC"]
    h = hashlib.sha256()
    for precision in ("f64", "f32"):
        rng = numerics.SeededRng(7)
        for n, inner, m in [(1, 4, 3), (mr - 3, 9, 5), (mr + 1, kc + 1, 35), (2, 3, nc + 1),
                            (3, 300, 1), (300, 9, 16), (70, 2 * kc + 3, 70)]:
            a, b = rng.tokens(n, inner, precision), rng.tokens(inner, m, precision)
            for x, y in [(a, b), (np.asfortranarray(a), b), (a, np.asfortranarray(b))]:
                h.update(numerics.matmul(x, y).tobytes())
        k = rng.tokens(300, 40, precision)
        h.update(numerics.matmul(k.T, k).tobytes())
        z = rng.tokens(41, 37, precision)
        z[3] = -np.abs(z[3])
        z[5] *= 1e-30
        for gamma in (0.5, 1.0, 3.0, 8.0):
            h.update(numerics._focused_map(z, np.full(41, gamma)).tobytes())
        v, taps = rng.tokens(12, 37, precision), rng.uniform((37, 3, 3), -1, 1, precision)
        for grid in ((4, 3), (1, 12), (12, 1)):
            for identity in (True, False):
                h.update(numerics._dwc(v, grid, taps, identity).tobytes())
        _, stack, x = seeded_run(RunConfig(preset="small", precision=precision, heads=2,
                                           blocks=1, grid_h=8, grid_w=8))
        h.update(multihead_forward(x, stack.blocks[0])[0].tobytes())
    return h.hexdigest()


def _child(env: dict, sanitized: bool, tests: tuple) -> subprocess.CompletedProcess:
    code = _CHILD.format(scripts=str(ROOT / "scripts"), sanitized=sanitized, tests=tests)
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=TIMEOUT_S)


def main() -> int:
    libasan = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True, check=True).stdout.strip()
    if not os.path.isabs(libasan):
        print(f"cc names no ASan runtime ({libasan!r})")
        return 2
    src = str(ROOT / "src")
    base = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory(prefix="dydila-sanitize-") as tmp:
        logs = Path(tmp) / "logs"
        logs.mkdir()
        env = {**base, "XDG_CACHE_HOME": str(Path(tmp) / "cache"), "LD_PRELOAD": libasan,
               "ASAN_OPTIONS": f"detect_leaks=0:log_path={logs / 'asan'}",
               "UBSAN_OPTIONS": f"print_stacktrace=1:log_path={logs / 'ubsan'}"}
        sanitized = _child(env, True, TESTS)
        print(sanitized.stdout, end="")
        reports = sorted(logs.iterdir())
        for report in reports:
            print(f"--- {report.name}\n{report.read_text(errors='replace')}")
        production = _child(base, False, ())
    got, want = ([line for line in proc.stdout.splitlines()
                  if re.fullmatch("[0-9a-f]{64}", line)][-1:] or ["(none: the run died)"]
                 for proc in (sanitized, production))
    print(f"digest, sanitized build:  {got[0]}")
    print(f"digest, production build: {want[0]}")
    failed = sanitized.returncode or production.returncode or reports or got != want
    print("FAIL" if failed else "pass: no report, and the digests are equal")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
