import numpy as np
import pytest

from dydila import cli
from dydila.attention import multihead_forward
from dydila.bench import BENCH_CSV_HEADER, bench_run, build_forward
from dydila.config import RunConfig, grid_for, save_config, seeded_run
from dydila.fileio import read_csv
from dydila.numerics import ConfigError


def _bench_cfg(**over):
    base = {
        "preset": "custom", "dim": 8, "heads": 1, "blocks": 1,
        "n_projectors": 2, "n_kernel_factors": 2, "n_lambda_factors": 2,
        "seed": 5,
    }
    base.update(over)
    return RunConfig.from_dict(base)


class TestGridFor:
    @pytest.mark.parametrize("n,want", [
        (1, (1, 1)), (4, (2, 2)), (12, (3, 4)), (64, (8, 8)),
        (1024, (32, 32)), (16384, (128, 128)), (13, (1, 13)),
    ])
    def test_most_square_factorization(self, n, want):
        h, w = grid_for(n)
        assert (h, w) == want
        assert h * w == n and h <= w

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            grid_for(0)


class TestBuildForward:
    @pytest.mark.parametrize("impl, variant", [
        *(pytest.param(impl, "token-wise", id=impl)
          for impl in ("softmax", "linear", "focused", "dydila")),
        pytest.param("dydila", "map-wise", id="mapwise"),
    ])
    def test_forward_shape_and_determinism(self, impl, variant):
        cfg = _bench_cfg(variant=variant)
        out_a = build_forward(cfg, impl, 12)()
        out_b = build_forward(cfg, impl, 12)()
        assert out_a.shape == (12, 8)
        assert np.all(np.isfinite(out_a))
        assert out_a.tobytes() == out_b.tobytes()

    def test_dydila_runs_the_configs_variant(self):
        # the block is seeded_run's, in the variant the config names
        for variant in ("token-wise", "map-wise"):
            cfg = _bench_cfg(variant=variant)
            _, stack, x = seeded_run(cfg, 12)
            want, _ = multihead_forward(x, stack.blocks[0])
            assert build_forward(cfg, "dydila", 12)().tobytes() == want.tobytes()

    def test_unknown_impl(self):
        for impl in ("exact", "mapwise"):
            with pytest.raises(ConfigError, match="unknown impl"):
                build_forward(_bench_cfg(), impl, 8)


class TestBenchRun:
    def test_records_cover_grid(self):
        records = bench_run(_bench_cfg(), "linear", [8, 16], iters=3)
        assert [(r.impl, r.n) for r in records] == [("linear", 8), ("linear", 16)]
        for r in records:
            assert r.iterations == 3
            assert r.mean_s >= 0.0 and r.std_s >= 0.0 and r.median_s >= 0.0
            assert r.flops > 0

    def test_flops_column_matches_estimate(self):
        from dydila.flops import flops_estimate

        cfg = _bench_cfg()
        (rec,) = bench_run(cfg, "dydila", [16], iters=3)
        want = flops_estimate(
            "dydila", 16, cfg.dim, heads=cfg.heads, n_projectors=cfg.n_projectors,
            n_kernel_factors=cfg.n_kernel_factors, n_lambda_factors=cfg.n_lambda_factors,
            dwc=cfg.dwc_enabled, normalize=cfg.normalize,
        )["total"]
        assert rec.flops == want

    def test_heads_are_the_width_the_impl_runs_at(self, tmp_path, capsys):
        # the baselines attend over the shared full-width projections: one head
        save_config(_bench_cfg(dim=6, heads=3), tmp_path / "cfg.json")
        for impl, want in (("linear", "1"), ("dydila", "3")):
            path = tmp_path / f"{impl}.csv"
            code = cli.main(["bench", "--config", str(tmp_path / "cfg.json"), "--impl", impl,
                             "--seq-len", "8", "--iters", "3", "--out", str(path)])
            err = capsys.readouterr().err
            assert code == 0, err
            assert read_csv(path)[1][0][3] == want
            assert f"heads={want}:" in err

    def test_too_few_iterations_rejected(self):
        with pytest.raises(ConfigError, match="iters"):
            bench_run(_bench_cfg(), "linear", [8], iters=2)

    def test_csv_contract(self, tmp_path, capsys):
        cfg = _bench_cfg()
        save_config(cfg, tmp_path / "cfg.json")
        path = tmp_path / "bench.csv"
        code = cli.main(["bench", "--config", str(tmp_path / "cfg.json"), "--impl", "softmax",
                         "--seq-len", "8", "--iters", "3", "--out", str(path)])
        assert code == 0, capsys.readouterr().err
        header, rows = read_csv(path)
        assert header == BENCH_CSV_HEADER
        assert len(rows) == 1
        impl, n, d, heads, mean_s, std_s, flops = rows[0]
        assert (impl, n, d, heads) == ("softmax", "8", "8", "1")
        assert float(mean_s) >= 0.0 and float(std_s) >= 0.0
        (rec,) = bench_run(cfg, "softmax", [8], iters=3)
        assert int(flops) == rec.flops
