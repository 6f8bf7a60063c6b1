"""Mutation analysis of dydila's order contracts (DeMillo, Lipton & Sayward 1978).

    python3 scripts/mutants.py                 # every mutant
    python3 scripts/mutants.py --only pow_     # mutants whose name contains pow_
    python3 scripts/mutants.py --list

Each mutant is a set of exact text edits, each ``(file, old, new)`` with
``old`` occurring exactly once in the file, plus an optional command run in
the mutated tree afterwards (regenerating the pow tables).  For each mutant
the script copies ``src``, ``tests`` and ``scripts`` to a temporary
directory, applies the edits, builds the compiled kernels there with their
own ``XDG_CACHE_HOME`` (a mutated C source is rebuilt, never taken from a
shared cache; a mutant the compiler rejects is reported as an error), then
runs

- the mutant's test selection (``pytest -x``): any failure or a crash of
  the test process kills the mutant;
- ``dydila check --preset small`` in f64 and in f32: a failed check (exit
  status other than 0) kills it.

Each test selection is first run on the unmutated tree, where it must
pass, as must both checks.  It prints one line per mutant and exits 1 if
any mutant survives its tests (2 if the unmutated tree fails, or a mutant
could not be applied or built).  It is not part of the
Tier-1 suite: each mutant rebuilds the kernels and runs its tests, about a
minute each.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMERICS = "src/dydila/numerics.py"
STEP_TIMEOUT_S = 1800

MATMUL_TESTS = ("tests/test_numerics.py", "-k", "Matmul or narrower_tiles or under_asan")
MAP_TESTS = ("tests/test_kernels.py", "tests/test_pow.py", "tests/test_pinned_hashes.py",
             "tests/test_numerics.py", "-k", "Focused or Pow or pinned or narrower_vector")
MAP_ASAN_TESTS = (*MAP_TESTS[:-1], MAP_TESTS[-1] + " or under_asan")
SOFTMAX_TESTS = ("tests/test_attention.py", "-k", "SoftmaxMapInPlace")
BLOCK_TESTS = ("tests/test_attention.py", "tests/test_differential.py", "-k",
               "Multihead or TdoForward or WorkingSet")
DWC_TESTS = ("tests/test_attention.py", "tests/test_numerics.py", "-k", "dwc or Dwc or build")
SPREAD_TESTS = ("tests/test_pinned_hashes.py", "-k", "spread_bank")
LEDGER_TESTS = ("tests/test_flops.py", "-k", "Ledger")
ROW_TESTS = ("tests/test_attention.py", "tests/test_cli.py", "-k",
             "ExtractAttentionRow or DumpAttnPinned")


@dataclass(frozen=True)
class Mutant:
    name: str
    edits: tuple  # ((file, old, new), ...)
    tests: tuple  # pytest arguments
    after: tuple = ()  # command run in the mutated tree after the edits


def _c(name, old, new, tests=MATMUL_TESTS):
    return Mutant(name, ((NUMERICS, old, new),), tests)


MUTANTS = (
    # matmul tiles
    _c("matmul_no_reload_between_k_blocks",
       "                if (!first)                                                    \\",
       "                if (0)                                                         \\"),
    _c("matmul_tiles_start_from_minus_zero",
       "acc[r][s] = (vec){0};    ", "acc[r][s] = -(vec){0};   "),
    _c("matmul_packing_buffers_shared_by_threads",
       "static _Thread_local union { double d[KC * NC]", "static union { double d[KC * NC]"),
    _c("matmul_full_tiles_stored_at_the_edge",
       "if (mr == MR && nr == NR) {", "if (1) {"),
    _c("matmul_b_packed_with_unit_column_stride",
       "src[k * sb0 + j * sb1] : 0;", "src[k * sb0 + j] : 0;"),
    _c("matmul_out_row_stride_taken_as_m",
       "tile_$T(kc, ai, sa0, sa1, MR, bpack + jr * kc, c, so0, NR, first);",
       "tile_$T(kc, ai, sa0, sa1, MR, bpack + jr * kc, c, m, NR, first);"),
    _c("matmul_no_reload_in_the_32_byte_tile",
       "                if (!first)                                                    \\",
       "                if (!first && V != 32)                                         \\"),
    _c("matmul_acc_ignored",
       "const int first = pc == 0 && !acc;", "const int first = pc == 0;"),
    # an over-read whose values land only in the edge copy: the rows past
    # the last row of a group of fewer than MR
    _c("matmul_row_clamp_dropped",
       "a[(r < mr ? r : mr - 1) * s0 + k * sk]", "a[r * s0 + k * sk]"),
    # routing
    Mutant("dmk_forward_next_gamma",
           (("src/dydila/kernels.py", "[routes.indices]",
             "[(routes.indices + 1) % len(bank.gammas)]"),),
           ("tests/test_kernels.py", "tests/test_checks.py")),
    Mutant("routed_lambdas_next_lambda",
           (("src/dydila/differential.py", "return table[routes.indices], routes",
             "return table[(routes.indices + 1) % len(table)], routes"),),
           ("tests/test_differential.py", "tests/test_checks.py")),
    # the routed projection multiplies only the rows routed to each projector
    Mutant("routed_project_multiplies_every_token",
           (("src/dydila/projection.py", "out[rows] = matmul(x[rows], w)",
             "out[rows] = matmul(x, w)[rows]"),),
           LEDGER_TESTS),
    # the DWC
    _c("dwc_skips_taps_outside_the_grid",
       "s = s + p[t][c] * k[t * d + c];",
       "s = p[t] != zero ? s + p[t][c] * k[t * d + c] : s;", DWC_TESTS),
    Mutant("dwc_forward_ignores_the_merged_kernel",
           (("src/dydila/attention.py", "    if dwc.use_merged:\n", "    if False:\n"),),
           DWC_TESTS),
    _c("dwc_taps_descending",
       "                for (int t = 0; t < 9; t++)\n                    s = s + p[t][c]",
       "                for (int t = 8; t >= 0; t--)\n                    s = s + p[t][c]",
       DWC_TESTS),
    # an over-read of the zero row at the grid's edge (DWC_TESTS runs the ASan
    # child through TestCompiledBuild)
    _c("dwc_zero_row_one_short", "zero = np.zeros(d, dtype=v.dtype)",
       "zero = np.zeros(d - 1, dtype=v.dtype)", DWC_TESTS),
    # the seeded weights: the same seed must rebuild every weight
    Mutant("init_params_dwc_kernels_unseeded",
           (("src/dydila/config.py", "return rng.uniform(shape, -1.0 / 3.0, 1.0 / 3.0, prec)",
             "return SeededRng(int(np.random.default_rng().integers(2**31)))"
             ".uniform(shape, -1.0 / 3.0, 1.0 / 3.0, prec)"),),
           ("tests/test_pinned_hashes.py",)),
    # the owned pow
    _c("pow_table_index_off_by_one", "const uint64_t i = u >> 45 & 127;",
       "const uint64_t i = (u >> 45) + 1 & 127;", MAP_TESTS),
    _c("pow_logctail_dropped", "const double lo1 = kd * POW_LN2LO + POW_LOGCTAIL[i];",
       "const double lo1 = kd * POW_LN2LO;", MAP_TESTS),
    Mutant("pow_subnormal_input_rescale_skipped",
           ((NUMERICS, "const uint64_t ix = bits_of(x * 0x1p52);", "const uint64_t ix = bits_of(x);"),
            (NUMERICS, '"POW_KBIAS": (_SHIFT + 1076).hex()', '"POW_KBIAS": (_SHIFT + 1024).hex()')),
           MAP_TESTS),
    _c("pow_subnormal_result_rounding_skipped", "const double one = y < 1.0 ? 1.0 : 0.0;",
       "const double one = 0.0;", MAP_TESTS),
    Mutant("pow_invc_at_20_bits",
           (("scripts/pow_tables.py", "INVC_BITS = 8\n", "INVC_BITS = 20\n"),),
           MAP_TESTS, after=("scripts/pow_tables.py", "--write")),
    # the focused map
    _c("focused_n1_not_rescaled_by_peak",
       "const $T scale = peak * ($T)sqrt(sx) / ($T)sqrt(st)",
       "const $T scale = ($T)sqrt(sx) / ($T)sqrt(st)", MAP_TESTS),
    # pow lists run past their work buffer when d is not a multiple of _POW_PAD
    _c("focused_work_lists_not_padded", "padded = -(-d // _POW_PAD) * _POW_PAD", "padded = d",
       MAP_ASAN_TESTS),
    # the normalizer's column sums
    Mutant("normalizer_column_sum_by_numpy",
           (("src/dydila/differential.py",
             "col_sums = matmul(np.ones((1, b.shape[0]), dtype=b.dtype), b)",
             "col_sums = np.sum(b, axis=0)[None, :]"),),
           ("tests/test_differential.py",)),
    # the softmax map's one buffer per block of query rows
    Mutant("softmax_map_in_a_fresh_array",
           (("src/dydila/attention.py", "return softmax_rows(logits, out=logits)",
             "return softmax_rows(logits)"),),
           SOFTMAX_TESTS),
    Mutant("softmax_rows_in_place",
           ((NUMERICS, "e = np.subtract(m, np.max(m, axis=1, keepdims=True), out=out)",
             "e = np.subtract(m, np.max(m, axis=1, keepdims=True), out=m)"),),
           SOFTMAX_TESTS),
    Mutant("softmax_block_one_row_short",
           (("src/dydila/attention.py", "rows = slice(r0, r0 + _SOFTMAX_ROWS)",
             "rows = slice(r0, r0 + _SOFTMAX_ROWS - 1)"),),
           SOFTMAX_TESTS),
    # each head's streams kept in the projection buffers
    _c("focused_in_place_rows_at_z_width",
       "$T *o = out + i * so0, peak = 0;", "$T *o = out + i * d, peak = 0;", MAP_TESTS),
    Mutant("kernel_stream_routed_after_its_in_place_map",
           (("src/dydila/kernels.py",
             "    routes = route_argmax(z, bank.router)\n"
             "    gamma = np.asarray(bank.gammas, dtype=np.float64)[routes.indices]\n"
             "    return _focused_map(z, gamma, out), routes\n",
             "    gamma = np.asarray(bank.gammas, dtype=np.float64)"
             "[route_argmax(z, bank.router).indices]\n"
             "    mapped = _focused_map(z, gamma, out)\n"
             "    return mapped, route_argmax(z, bank.router)\n"),),
           BLOCK_TESTS),
    Mutant("tdo_forward_writes_into_the_callers_routed_streams",
           (("src/dydila/differential.py",
             "q_routed, k_routed = q_routed.copy(), k_routed.copy()",
             "q_routed, k_routed = q_routed, k_routed"),),
           BLOCK_TESTS),
    Mutant("tdo_forward_ignores_variant",
           (("src/dydila/differential.py",
             "    q_routed, k_routed = q_routed.copy(), k_routed.copy()\n",
             "    q_routed, k_routed = q_routed.copy(), k_routed.copy()\n"
             "    variant = \"token-wise\"\n"),),
           ("tests/test_differential.py",)),
    # the attention row's query-first product, on its one query row
    Mutant("query_first_product_never_normalized",
           (("src/dydila/differential.py",
             "dtype=b.dtype), b) if normalize else None",
             "dtype=b.dtype), b) if normalize and v is not None else None"),),
           ROW_TESTS),
    Mutant("attention_row_projects_the_first_query_row",
           (("src/dydila/attention.py", "dpm_queries(x[sel], params.proj)",
             "dpm_queries(x[:1], params.proj)"),),
           ROW_TESTS),
    # the key and query halves, against the spread-bank pins
    Mutant("query_half_routes_lambda_q_with_router_k",
           (("src/dydila/differential.py",
             "_routed_lambdas(q_t, q_routed, bank.router_q, bank.lambdas)",
             "_routed_lambdas(q_t, q_routed, bank.router_k, bank.lambdas)"),),
           SPREAD_TESTS),
    Mutant("key_state_summarised_before_the_k_differencing",
           (("src/dydila/differential.py",
             "        k_diff = _difference(k_t, k_routed, lam_k)\n"
             "        return (_key_state(k_diff, v, normalize),)",
             "        state = _key_state(k_routed, v, normalize)\n"
             "        _difference(k_t, k_routed, lam_k)\n"
             "        return (state,)"),),
           SPREAD_TESTS),
    # the config schema's kinds and its per-block schedule
    Mutant("config_bool_passes_as_a_finite_number",
           (("src/dydila/config.py",
             "number = isinstance(value, (int, float)) and not isinstance(value, bool)",
             "number = isinstance(value, (int, float))"),),
           ("tests/test_config.py",)),
    Mutant("with_overrides_keeps_the_whole_schedule",
           (("src/dydila/config.py",
             'overrides.setdefault("lambda_schedule", self.lambda_schedule[: overrides["blocks"]])',
             'overrides.setdefault("lambda_schedule", self.lambda_schedule)'),),
           ("tests/test_config.py", "tests/test_cli.py", "-k", "schedule")),
    # one order swap in each numpy fallback
    Mutant("fallback_matmul_descending_k",
           ((NUMERICS, "        for k in range(inner):\n", "        for k in reversed(range(inner)):\n"),),
           ("tests/test_numerics.py", "-k", "TestMatmul and not Compiled")),
    Mutant("fallback_focused_sums_descending",
           ((NUMERICS, "    for j in range(m.shape[1]):\n", "    for j in reversed(range(m.shape[1])):\n"),),
           ("tests/test_kernels.py", "-k", "TestFocusedMap and not Compiled")),
    Mutant("fallback_dwc_rows_descending",
           ((NUMERICS, "        for di in range(3):\n", "        for di in (2, 1, 0):\n"),),
           DWC_TESTS),
    # the numpy fallback's out= sums from zeros, not from what out held
    Mutant("fallback_out_not_cleared",
           ((NUMERICS, "    elif not acc:\n        out[...] = 0\n", "    elif not acc:\n        pass\n"),),
           ("tests/test_numerics.py", "-k", "TestMatmul and not Compiled")),
)


def _run(cmd, cwd, env) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=STEP_TIMEOUT_S)


def run_mutant(mutant: Mutant) -> dict:
    """Apply one mutant in a fresh copy and report what kills it; a mutant
    with no edits runs the unmutated tree."""
    with tempfile.TemporaryDirectory(prefix="dydila-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        for file, old, new in mutant.edits:
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                return {"error": f"{file}: the text to replace occurs {text.count(old)} times"}
            path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "XDG_CACHE_HOME": str(Path(tmp) / "cache"), "PYTHONDONTWRITEBYTECODE": "1"}
        if mutant.after:
            proc = _run([sys.executable, *mutant.after], tree, env)
            if proc.returncode:
                return {"error": f"{' '.join(mutant.after)} exited {proc.returncode}"}
        proc = _run([sys.executable, "-c", "import dydila; print(dydila.matmul_backend())"],
                    tree, env)
        if proc.stdout.strip() != "c":
            return {"error": "the mutated kernels did not build: " + proc.stderr.strip()[-300:]}
        tests = _run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                      *mutant.tests], tree, env)
        result = {"tests": tests.returncode != 0}
        for precision in ("f64", "f32"):
            check = _run([sys.executable, "-m", "dydila.cli", "check", "--preset", "small",
                          "--precision", precision], tree, env)
            result[f"check_{precision}"] = check.returncode != 0
        return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--only", help="run only the mutants whose name contains this text")
    p.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = p.parse_args()
    chosen = [m for m in MUTANTS if not args.only or args.only in m.name]
    if args.list:
        print("\n".join(m.name for m in chosen))
        return 0
    # every selection must pass on the unmutated tree, or a failure would
    # not tell a killed mutant from a broken test
    for tests in dict.fromkeys(m.tests for m in chosen):
        r = run_mutant(Mutant("unmutated", (), tests))
        if r.get("error") or r["tests"] or r["check_f64"] or r["check_f32"]:
            print(f"the unmutated tree fails {' '.join(tests)}: {r}")
            return 2
    survived = errors = 0
    print(f"{'mutant':45} {'tests':9} {'check f64':10} {'check f32':10}", flush=True)
    for m in chosen:
        r = run_mutant(m)
        if "error" in r:
            errors += 1
            print(f"{m.name:45} error: {r['error']}", flush=True)
            continue
        survived += not r["tests"]
        word = {True: "killed", False: "survived"}
        print(f"{m.name:45} {word[r['tests']]:9} {word[r['check_f64']]:10} "
              f"{word[r['check_f32']]:10}", flush=True)
    print(f"{len(chosen)} mutants, {survived} survived the tests, {errors} errors")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
