"""End-to-end command-line tests.  Every case shells out like a user would,
except the numpy-backend ones and the pinned dump-attn rows, which run
``cli.main`` in process."""

import hashlib
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dydila.numerics as numerics
from dydila import cli
from dydila.bench import BENCH_CSV_HEADER
from dydila.config import RunConfig, load_config, seeded_run
from dydila.flops import config_flops, flops_estimate
from dydila.numerics import matmul_backend
from dydila.fileio import read_csv, read_pgm, write_tokens_csv

from conftest import cli_env, mat, needs_compiler


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dydila.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


@pytest.fixture()
def tiny_config(tmp_path):
    """A dim-8, two-block custom config that keeps subprocess runs fast."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "preset": "custom", "dim": 8, "heads": 1, "blocks": 2,
        "n_projectors": 2, "n_kernel_factors": 2, "n_lambda_factors": 2,
        "grid": {"h": 2, "w": 3}, "seed": 9,
    }), encoding="utf-8")
    return str(path)


@pytest.fixture()
def schedule_config(tmp_path):
    """The small preset with one lambda per block: 9 entries for 9 blocks."""
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"preset": "small",
                                "lambda_schedule": [0.1 * b for b in range(1, 10)]}),
                    encoding="utf-8")
    return str(path)


@pytest.fixture()
def mapwise_config(tmp_path, tiny_config):
    """The tiny config with the map-wise variant."""
    data = json.loads(open(tiny_config, encoding="utf-8").read())
    data["variant"] = "map-wise"
    path = tmp_path / "mapwise.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# Unnormalized, map-wise f32 overflows at block 3 for every preset: inf - inf
# in the combine.
MAPWISE_F32_ERROR = "error: block 3 output contains non-finite element at index (0, 0)"


def _mapwise_f32_config(tmp_path, preset):
    path = tmp_path / "mapwise_f32.json"
    path.write_text(json.dumps({"preset": preset, "precision": "f32", "variant": "map-wise",
                                "normalize": False}), encoding="utf-8")
    return str(path)


@pytest.fixture()
def unstable_config(tmp_path):
    """Unnormalized at depth 9, this config overflows to NaN at block 6."""
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({"preset": "custom", "dim": 16, "blocks": 9,
                                "normalize": False}), encoding="utf-8")
    return str(path)


class TestInit:
    def test_writes_default_config(self, tmp_path):
        out = tmp_path / "cfg.json"
        proc = run_cli("init", "--out", str(out))
        assert proc.returncode == 0
        assert f"wrote {out}" in proc.stdout
        assert load_config(out) == RunConfig.from_dict({"preset": "small"})

    def test_preset_and_overrides(self, tmp_path):
        out = tmp_path / "cfg.json"
        proc = run_cli("init", "--preset", "base", "--seed", "3", "--out", str(out))
        assert proc.returncode == 0
        cfg = load_config(out)
        assert cfg.preset == "base" and cfg.dim == 512 and cfg.seed == 3

    def test_dim_override_flips_to_custom(self, tmp_path):
        out = tmp_path / "cfg.json"
        proc = run_cli("init", "--preset", "small", "--dim", "64", "--out", str(out))
        assert proc.returncode == 0
        cfg = load_config(out)
        assert cfg.preset == "custom" and cfg.dim == 64

    @pytest.mark.parametrize("preset, sha256", [
        ("small", "923bc911d5642c379c5e15857df26ada11dc21c5295cd2a2abdc9551d856ac4b"),
        ("base", "208f000d2e01c7ed00c33490d3b0a7364df3be063736c6b7f79aa5a0b20196ee"),
        ("large", "d4b94f28dc9a20b0fb4fd15d8569eb86b5a7bc9dd945b22d8ab963c9c9c02297"),
    ])
    def test_preset_file_bytes_are_pinned(self, tmp_path, preset, sha256):
        out = tmp_path / "cfg.json"
        proc = run_cli("init", "--preset", preset, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestCheck:
    def test_passes_on_tiny_config(self, tiny_config):
        proc = run_cli("check", "--config", tiny_config)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout
        assert "0 failed" in proc.stdout

    def test_output_is_byte_stable(self, tiny_config):
        a = run_cli("check", "--config", tiny_config)
        b = run_cli("check", "--config", tiny_config)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_injected_fault_fails(self, tmp_path, tiny_config):
        data = json.loads(open(tiny_config, encoding="utf-8").read())
        data["inject_fault"] = True
        bad = tmp_path / "fault.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        proc = run_cli("check", "--config", str(bad))
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout
        assert "tdo_reorder_vs_explicit" in proc.stdout

    def test_per_block_schedule_passes(self, schedule_config):
        # check runs at most 2 blocks, and 9 in its last check
        proc = run_cli("check", "--config", schedule_config)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "19 checks, 0 failed"

    def test_f32_passes(self, tiny_config):
        proc = run_cli("check", "--config", tiny_config, "--precision", "f32")
        assert proc.returncode == 0, proc.stdout

    def test_configured_depth_must_stay_finite(self, unstable_config):
        # the other checks run at most 2 blocks; this config overflows at block 6
        proc = run_cli("check", "--config", unstable_config)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        failed = [line for line in proc.stdout.splitlines() if " FAIL " in line]
        assert len(failed) == 1
        assert "configured_depth_finite" in failed[0]
        assert "block 6 output contains non-finite element" in failed[0]


class TestForward:
    def test_prints_block_lines_and_hash(self, tiny_config):
        proc = run_cli("forward", "--config", tiny_config)
        assert proc.returncode == 0, proc.stderr
        assert "block 0:" in proc.stdout and "block 1:" in proc.stdout
        assert "output sha256 " in proc.stdout
        first = proc.stdout.splitlines()[0]
        assert "mean_lambda_q=" in first and "mean_lambda_k=" in first
        assert "mean_lambda_map" not in first

    def test_block_lines_print_only_the_variants_lambdas(self, mapwise_config):
        proc = run_cli("forward", "--config", mapwise_config)
        assert proc.returncode == 0, proc.stderr
        first = proc.stdout.splitlines()[0]
        assert first.startswith("block 0:") and first.endswith("mean_lambda_map=0.01")
        assert "mean_lambda_q" not in proc.stdout and "mean_lambda_k" not in proc.stdout

    def test_byte_reproducible(self, tiny_config):
        a = run_cli("forward", "--config", tiny_config)
        b = run_cli("forward", "--config", tiny_config)
        assert a.stdout == b.stdout

    def test_writes_outputs_and_weights(self, tmp_path, tiny_config):
        out = tmp_path / "out.csv"
        routes = tmp_path / "routes.csv"
        proc = run_cli(
            "forward", "--config", tiny_config, "--out", str(out),
            "--routes-out", str(routes), "--save-weights", str(tmp_path / "w"),
        )
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out)
        assert header == [f"c{j}" for j in range(8)]
        assert len(rows) == 6  # grid 2x3
        rheader, rrows = read_csv(routes)
        assert rheader == ["block_index", "token_index", "proj_q_choice", "proj_k_choice"]
        assert len(rrows) == 2 * 6
        assert (tmp_path / "w.bin").exists() and (tmp_path / "w.json").exists()

    def test_seq_len_regrids(self, tmp_path, tiny_config):
        out = tmp_path / "out.csv"
        proc = run_cli("forward", "--config", tiny_config, "--seq-len", "12",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, rows = read_csv(out)
        assert len(rows) == 12

    def test_reads_input_tokens(self, tmp_path, tiny_config):
        tokens = mat(1, 6, 8)
        path = tmp_path / "in.csv"
        write_tokens_csv(path, tokens)
        a = run_cli("forward", "--config", tiny_config, "--input", str(path))
        b = run_cli("forward", "--config", tiny_config)
        assert a.returncode == 0
        # explicit input must change the output hash vs the seeded default
        assert a.stdout.splitlines()[-1] != b.stdout.splitlines()[-1]

    def test_non_finite_block_output_exits_2(self, tmp_path, unstable_config):
        out = tmp_path / "out.csv"
        proc = run_cli("forward", "--config", unstable_config, "--out", str(out))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "error: block 6 output contains non-finite element" in proc.stderr
        assert "output sha256" not in proc.stdout
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["small", "base", "large"])
    def test_mapwise_f32_overflow_prints_only_the_error(self, tmp_path, preset):
        needs_compiler()  # the numpy loops' build warning would be a second stderr line
        proc = run_cli("forward", "--config", _mapwise_f32_config(tmp_path, preset))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.splitlines() == [MAPWISE_F32_ERROR]

    def test_mapwise_f32_overflow_warns_nothing_on_the_numpy_backend(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(numerics, "_c_kernels", {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            code = cli.main(["forward", "--config", _mapwise_f32_config(tmp_path, "small")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [MAPWISE_F32_ERROR]

    def test_input_rows_lie_on_the_seq_len_grid(self, tmp_path):
        # 10 rows are not the small preset's 8x8 grid: they lie on the grid
        # --seq-len 10 picks, so the seeded tokens read back give its output
        path = tmp_path / "in.csv"
        write_tokens_csv(path, seeded_run(RunConfig.from_dict({"preset": "small"}), 10)[2])
        a = run_cli("forward", "--preset", "small", "--input", str(path))
        b = run_cli("forward", "--preset", "small", "--seq-len", "10")
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout

    def test_input_width_mismatch_is_config_error(self, tmp_path, tiny_config):
        path = tmp_path / "in.csv"
        write_tokens_csv(path, mat(2, 6, 5))
        proc = run_cli("forward", "--config", tiny_config, "--input", str(path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr


class TestDumpAttn:
    @pytest.mark.parametrize("impl", ["softmax", "dydila"])
    def test_writes_csv_and_pgm(self, tmp_path, tiny_config, impl):
        base = tmp_path / f"attn_{impl}"
        proc = run_cli("dump-attn", "--config", tiny_config, "--impl", impl,
                       "--query-index", "2", "--out", str(base))
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(str(base) + ".csv")
        assert header == ["token_index", "weight"]
        assert len(rows) == 6
        w, h, pixels = read_pgm(str(base) + ".pgm")
        assert (w, h) == (3, 2) and len(pixels) == 6
        if impl == "softmax":
            weights = [float(r[1]) for r in rows]
            assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_input_rows_lie_on_the_seq_len_grid(self, tmp_path):
        cfg = tmp_path / "nodwc.json"
        cfg.write_text(json.dumps({"preset": "small", "dwc": {"enabled": False}}),
                       encoding="utf-8")
        path = tmp_path / "in.csv"
        write_tokens_csv(path, mat(3, 10, 384))
        base = tmp_path / "attn"
        proc = run_cli("dump-attn", "--config", str(cfg), "--input", str(path),
                       "--out", str(base))
        assert proc.returncode == 0, proc.stderr
        w, h, pixels = read_pgm(str(base) + ".pgm")
        assert (w, h) == (5, 2) and len(pixels) == 10

    def test_seq_len_disagreeing_with_input_exits_2(self, tmp_path):
        path = tmp_path / "in.csv"
        write_tokens_csv(path, mat(3, 10, 384))
        base = tmp_path / "attn"
        proc = run_cli("dump-attn", "--preset", "small", "--input", str(path),
                       "--seq-len", "12", "--out", str(base))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: --seq-len 12 but")
        assert not (tmp_path / "attn.csv").exists()

    def test_block_out_of_range(self, tmp_path, tiny_config):
        proc = run_cli("dump-attn", "--config", tiny_config, "--block", "5",
                       "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    def test_non_finite_block_input_exits_2(self, tmp_path, unstable_config):
        base = tmp_path / "attn"
        proc = run_cli("dump-attn", "--config", unstable_config, "--block", "7",
                       "--out", str(base))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "error: block 6 output contains non-finite element" in proc.stderr
        assert not (tmp_path / "attn.csv").exists()
        assert not (tmp_path / "attn.pgm").exists()

    def test_non_finite_row_exits_2(self, tmp_path):
        # unnormalized, blocks 0-4 stay finite, but block 5's attention row
        # overflows to NaN
        cfg = tmp_path / "mapwise.json"
        cfg.write_text(json.dumps({"preset": "small", "variant": "map-wise", "normalize": False}),
                       encoding="utf-8")
        base = tmp_path / "attn"
        proc = run_cli("dump-attn", "--config", str(cfg), "--block", "5", "--out", str(base))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "error: block 5 attention row contains non-finite element" in proc.stderr
        assert not (tmp_path / "attn.csv").exists()
        assert not (tmp_path / "attn.pgm").exists()


# sha256 of the CSV and PGM that `dump-attn --block 2 --head 1` writes on the
# small preset with 2 heads, keyed by (variant, normalize, precision, impl,
# --seq-len).  The row is made of IEEE + - * /, sqrt, the owned pow and
# fixed-order sums, so its bits do not depend on the backend.  The softmax
# row follows numpy's exp and pairwise row sums, like every softmax output,
# so it is not pinned.
PINNED_DUMP = {
    ("token-wise", True, "f64", "linear", None): (
        "54d7e9c2a40f1bbe22896b081ebc72a86590a45513a3a849b5801d17b687aef6",
        "929428fb388b3ea3214f48f23af60393c8fea41cddaf6975bdbfb9420e6332da",
    ),
    ("token-wise", True, "f64", "focused", None): (
        "b2b56a40c68ff8852b715416356321d190c93a590133a45daad6c6f48eb8098c",
        "eef1d5d59775387696ee1367535f210b3b3dc5b914171cd6e0ee18ac744d2dec",
    ),
    ("token-wise", True, "f64", "dydila", None): (
        "867320c1e81107c8e826bd49888f467e58e70fe5512f1767bc2948a9a10a1740",
        "b2bf919d5cf54d89987781c9e3da6f74fa6d76fcd05350f4d3bd72a691a88974",
    ),
    ("token-wise", True, "f64", "mapwise", None): (
        "089469cbd04c931152dd82bdd13b29086b277426992863ba165967ffdd901027",
        "3518ad6af5c51fe6d791b86a182f7a5c77945bc06ee7b9242635f0c1a571baa6",
    ),
    ("map-wise", True, "f64", "linear", None): (
        "7cecc62a6dfad1150abbccb0b60537d60245be132735fddbd16eafe415cab862",
        "df19e9619ddc8b6187ea2e762dfe7ebcfea17b29f82f0afd9a8f4b4ea8aaf4e3",
    ),
    ("map-wise", True, "f64", "focused", None): (
        "a1f7c8fd66881526b0f0e0445cd850a01c017fefffa33ff0270c1ac4127549ac",
        "513694adeb52403201106958d33e46e2f2ce312ecfb0f217a6aba273d80cfefe",
    ),
    ("map-wise", True, "f64", "dydila", None): (
        "5f4c77899f76f0c75e9c93a575640cbe1ee818ad556dd13d6b0e12d47713bd7c",
        "fa388c347c8ad8b217893db95d603d416d668a7348550394fff30c41dee446f8",
    ),
    ("map-wise", True, "f64", "mapwise", None): (
        "6aae425bb80ef8e3054bcc97753d317c48c32df7ce05fc08549726e992e7dc87",
        "d055438f13617e39b0d3bd7318d59c75c9237633c530454e086e904198821cf0",
    ),
    ("token-wise", False, "f64", "dydila", None): (
        "1bb8e0c60016665e205a599b27592875c2f3947cc1c18e738b70ddc6bd887570",
        "f43dcc0a81992b7c5041b428789245fc2456699ae7ee9197b45b617a1e754f38",
    ),
    ("map-wise", False, "f64", "mapwise", None): (
        "e2c19dad6bf7929d1d2fbcee5be333fe5e3be99e1a0f426c94b85399b92bbdf5",
        "8c96096fbf614a5250ce4348fc7c950545e58de3a9cb6d007df648aba72829a0",
    ),
    ("map-wise", True, "f32", "mapwise", 30): (
        "46e355e6546a3d8a82e0bbb9f7b5f03b449f46b6ddde8348b504d50bde904000",
        "9ff58bf1ff09867381772aaf718aa2fe7348e95e7ec653f02e2c39a39ab7ceb8",
    ),
}


class TestDumpAttnPinned:
    @pytest.mark.parametrize("backend", ["c", "numpy"], indirect=True)
    @pytest.mark.parametrize("cell", list(PINNED_DUMP), ids=lambda c: "-".join(map(str, c)))
    def test_row_bytes_are_pinned(self, tmp_path, capsys, backend, cell):
        variant, normalize, precision, impl, seq_len = cell
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "small", "heads": 2, "variant": variant,
                                   "normalize": normalize, "precision": precision}),
                       encoding="utf-8")
        base = tmp_path / "attn"
        argv = ["dump-attn", "--config", str(cfg), "--block", "2", "--head", "1",
                "--impl", impl, "--out", str(base)]
        assert cli.main(argv + (["--seq-len", str(seq_len)] if seq_len else [])) == 0
        capsys.readouterr()
        got = tuple(hashlib.sha256((tmp_path / f"attn.{ext}").read_bytes()).hexdigest()
                    for ext in ("csv", "pgm"))
        assert got == PINNED_DUMP[cell]


class TestStatsLambda:
    def test_increasing_schedule_means_are_exact(self, tmp_path, tiny_config):
        data = json.loads(open(tiny_config, encoding="utf-8").read())
        data["lambda_schedule"] = "increasing"
        path = tmp_path / "inc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "stats.csv"
        proc = run_cli("stats-lambda", "--config", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out)
        assert header == ["block_index", "mean_lambda_q", "mean_lambda_k"]
        # every factor in a block is initialized to the schedule value, so
        # routing cannot move the mean off the endpoint (mean rounding aside)
        assert [r[0] for r in rows] == ["0", "1"]
        for cell in rows[0][1:]:
            assert float(cell) == pytest.approx(0.2, abs=1e-15)
        for cell in rows[1][1:]:
            assert float(cell) == pytest.approx(0.8, abs=1e-15)

    def test_prints_when_no_out(self, tiny_config):
        proc = run_cli("stats-lambda", "--config", tiny_config)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "block_index,mean_lambda_q,mean_lambda_k"

    def test_mapwise_prints_only_lambda_map(self, mapwise_config):
        proc = run_cli("stats-lambda", "--config", mapwise_config)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["block_index,mean_lambda_map", "0,0.01", "1,0.01"]

    def test_non_finite_block_output_exits_2(self, tmp_path, unstable_config):
        out = tmp_path / "stats.csv"
        proc = run_cli("stats-lambda", "--config", unstable_config, "--out", str(out))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "error: block 6 output contains non-finite element" in proc.stderr
        assert not out.exists()


class TestFlops:
    def test_csv_totals_match_library(self, tmp_path, tiny_config):
        from dydila.flops import flops_estimate

        out = tmp_path / "flops.csv"
        proc = run_cli("flops", "--config", tiny_config, "--impl", "softmax",
                       "--seq-len", "64,128", "--out", str(out))
        assert proc.returncode == 0
        header, rows = read_csv(out)
        assert header == ["impl", "N", "component", "flops"]
        totals = {r[1]: int(r[3]) for r in rows if r[2] == "total"}
        assert totals["64"] == flops_estimate("softmax", 64, 8)["total"]
        assert totals["128"] == flops_estimate("softmax", 128, 8)["total"]

    def test_prints_without_out(self, tiny_config):
        proc = run_cli("flops", "--config", tiny_config, "--impl", "dydila",
                       "--seq-len", "64")
        assert proc.returncode == 0
        assert proc.stdout.startswith("impl,N,component,flops")
        assert "attention_core" in proc.stdout


class TestBench:
    def test_csv_and_stdout(self, tmp_path, tiny_config):
        out = tmp_path / "bench.csv"
        proc = run_cli("bench", "--config", tiny_config, "--impl", "linear",
                       "--seq-len", "8,16", "--iters", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "linear N=8" in proc.stderr and "linear N=16" in proc.stderr
        header, rows = read_csv(out)
        assert header == ["impl", "N", "d", "heads", "mean_s", "std_s", "flops"]
        assert [r[1] for r in rows] == ["8", "16"]
        cfg = load_config(tiny_config)
        for impl, n, d, heads, mean_s, std_s, flops in rows:
            assert (impl, d, heads) == ("linear", "8", "1")
            assert float(mean_s) >= 0.0 and float(std_s) >= 0.0
            assert int(flops) == flops_estimate(
                "linear", int(n), cfg.dim, heads=cfg.heads, n_projectors=cfg.n_projectors,
                n_kernel_factors=cfg.n_kernel_factors, n_lambda_factors=cfg.n_lambda_factors,
                dwc=cfg.dwc_enabled, normalize=cfg.normalize,
            )["total"]

    @pytest.mark.parametrize("config, impl, n", [
        ("tiny_config", "linear", "8"),
        ("schedule_config", "dydila", "64"),  # a one-block cut of a per-block schedule
    ])
    def test_stdout_is_the_csv(self, tmp_path, request, config, impl, n):
        path = request.getfixturevalue(config)
        proc = run_cli("bench", "--config", path, "--impl", impl, "--seq-len", n, "--iters", "3")
        assert proc.returncode == 0, proc.stderr
        printed = tmp_path / "stdout.csv"
        printed.write_text(proc.stdout, encoding="utf-8")
        header, rows = read_csv(printed)
        assert header == BENCH_CSV_HEADER
        assert [r[:2] for r in rows] == [[impl, n]]
        assert int(rows[0][-1]) == config_flops(load_config(path), impl, int(n))["total"]
        assert f"{impl} N={n} " in proc.stderr

    def test_reports_matmul_backend_on_stderr(self, tiny_config):
        proc = run_cli("bench", "--config", tiny_config, "--impl", "linear",
                       "--seq-len", "8", "--iters", "3")
        assert proc.returncode == 0, proc.stderr
        assert f"matmul backend: {matmul_backend()}" in proc.stderr.splitlines()
        assert "backend" not in proc.stdout

    def test_bad_seq_len_is_config_error(self, tiny_config):
        proc = run_cli("bench", "--config", tiny_config, "--impl", "linear",
                       "--seq-len", "abc", "--iters", "3")
        assert proc.returncode == 2
        assert "error:" in proc.stderr


def test_printed_csv_cells_match_the_file_csv(tmp_path, capsys):
    rows = [("dydila", np.int64(3), 2, 0.1, np.float32(1.5))]
    cli._emit_csv(None, ["impl", "n", "d", "x", "y"], rows)
    cli._emit_csv(str(tmp_path / "t.csv"), ["impl", "n", "d", "x", "y"], rows)
    printed = capsys.readouterr().out
    assert printed.startswith((tmp_path / "t.csv").read_text(encoding="utf-8"))


class TestErrors:
    def test_broken_config_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        proc = run_cli("check", "--config", str(path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_unknown_config_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"preset": "small", "depth": 9}), encoding="utf-8")
        proc = run_cli("forward", "--config", str(path))
        assert proc.returncode == 2
        assert "unknown config field" in proc.stderr

    def test_wrong_typed_field_names_it(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"preset": "small", "gamma_init": "3"}), encoding="utf-8")
        proc = run_cli("check", "--config", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: gamma_init")

    def test_missing_subcommand_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("forward", "--config", "{missing}/c.json"),
        ("forward", "--config", "{tiny}", "--input", "{missing}/x.csv"),
        ("forward", "--config", "{tiny}", "--out", "{missing}/o.csv"),
        ("init", "--out", "{missing}/c.json"),
    ], ids=["forward_config", "forward_input", "forward_out", "init_out"])
    def test_file_error_exits_2_without_a_traceback(self, tmp_path, tiny_config, argv):
        missing = tmp_path / "missing"
        proc = run_cli(*(a.format(missing=missing, tiny=tiny_config) for a in argv))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr
        assert str(missing) in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("check", "--config", "{bad}"),
        ("forward", "--config", "{tiny}", "--input", "{bad}", "--out", "{out}.csv"),
        ("dump-attn", "--config", "{tiny}", "--input", "{bad}", "--out", "{out}"),
    ], ids=["check_config", "forward_input", "dump_attn_input"])
    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, tiny_config, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("c0\n0.5\n\u00e9\n".encode("latin-1"))
        out = tmp_path / "out"
        proc = run_cli(*(a.format(bad=bad, tiny=tiny_config, out=out) for a in argv))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr
        assert str(bad) in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["latin1.txt", "tiny.json"]
