import dataclasses
import re

import numpy as np
import pytest

from dydila.config import (
    PRESETS,
    RunConfig,
    init_params,
    lambda_for_block,
    load_config,
    save_config,
)
from dydila.numerics import ConfigError


class TestRunConfig:
    def test_defaults_match_small_preset(self):
        cfg = RunConfig()
        assert (cfg.dim, cfg.n_projectors, cfg.n_kernel_factors, cfg.n_lambda_factors) == \
            PRESETS["small"]
        assert cfg.blocks == 9 and cfg.normalize is True

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_fill_pins(self, preset):
        cfg = RunConfig.from_dict({"preset": preset})
        assert (cfg.dim, cfg.n_projectors, cfg.n_kernel_factors, cfg.n_lambda_factors) == \
            PRESETS[preset]

    def test_pinned_field_conflict_rejected(self):
        with pytest.raises(ConfigError, match="pins"):
            RunConfig.from_dict({"preset": "small", "dim": 512})

    def test_custom_preset_frees_pins(self):
        cfg = RunConfig.from_dict({"preset": "custom", "dim": 16, "n_projectors": 2,
                                   "n_kernel_factors": 2, "n_lambda_factors": 2})
        assert cfg.dim == 16

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            RunConfig.from_dict({"preset": "small", "n_heads": 2})

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown dwc field"):
            RunConfig.from_dict({"preset": "small", "dwc": {"enabled": True, "size": 5}})

    def test_grid_requires_both_sides(self):
        with pytest.raises(ConfigError, match="grid.w"):
            RunConfig.from_dict({"preset": "small", "grid": {"h": 8}})

    def test_from_dict_does_not_mutate_caller(self):
        data = {"preset": "small", "grid": {"h": 4, "w": 4}, "dwc": {"enabled": False}}
        RunConfig.from_dict(data)
        assert data == {"preset": "small", "grid": {"h": 4, "w": 4}, "dwc": {"enabled": False}}

    @pytest.mark.parametrize("bad", [
        {"preset": "tiny"},
        {"preset": "custom", "dim": 0},
        {"preset": "custom", "dim": 10, "heads": 3},
        {"preset": "small", "gamma_init": 0.0},
        {"preset": "small", "precision": "f16"},
        {"preset": "small", "variant": "block-wise"},
        {"preset": "small", "seed": -1},
        {"preset": "small", "lambda_schedule": "decreasing"},
        {"preset": "small", "lambda_schedule": [0.1, 0.2]},
        {"preset": "small", "dwc": {"enabled": False, "use_merged": True}},
        {"preset": "small", "normalize": 1},
        {"preset": "small", "gamma_init": "3"},
        {"preset": "small", "gamma_init": None},
        {"preset": "small", "gamma_init": True},
        {"preset": "small", "gamma_init": 10 ** 400},
        {"preset": "small", "lambda_init": "0.1"},
        {"preset": "small", "lambda_init": None},
        {"preset": "small", "lambda_init": True},
        {"preset": "small", "grid": 5},
        {"preset": "small", "dwc": "yes"},
        {"preset": "small", "lambda_schedule": [0.1] * 8 + [None]},
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)

    def test_roundtrip_through_file(self, tmp_path):
        cfg = RunConfig.from_dict({
            "preset": "custom", "dim": 32, "heads": 2, "blocks": 3,
            "n_projectors": 2, "n_kernel_factors": 3, "n_lambda_factors": 3,
            "lambda_schedule": [0.1, 0.2, 0.3], "grid": {"h": 4, "w": 8},
            "precision": "f32", "variant": "map-wise", "normalize": False,
            "dwc": {"enabled": True, "identity_branch": False, "use_merged": False},
        })
        path = tmp_path / "run.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
    def test_each_field_roundtrips_through_file(self, tmp_path, name):
        value = _NON_DEFAULT[name]
        cfg = RunConfig(preset="custom").with_overrides(**{name: value})
        assert getattr(cfg, name) != getattr(RunConfig(), name)
        path = tmp_path / "run.json"
        save_config(cfg, path)
        assert getattr(load_config(path), name) == value
        assert load_config(path) == cfg

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_load_rejects_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"preset": "caf\u00e9"}'.encode("latin-1"))
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))} is not valid JSON"):
            load_config(path)

    def test_with_overrides_keeps_preset_for_free_fields(self):
        cfg = RunConfig().with_overrides(seed=7, heads=2)
        assert cfg.preset == "small" and cfg.seed == 7

    def test_with_overrides_flips_to_custom_on_pinned_change(self):
        cfg = RunConfig().with_overrides(dim=64)
        assert cfg.preset == "custom" and cfg.dim == 64


# a valid value other than the default for each field, set on a custom config
_NON_DEFAULT = {
    "preset": "custom", "dim": 48, "heads": 2, "blocks": 3, "n_projectors": 4,
    "n_kernel_factors": 5, "n_lambda_factors": 6, "gamma_init": 2.5, "lambda_init": -0.125,
    "lambda_schedule": "increasing", "grid_h": 3, "grid_w": 5, "seed": 11,
    "precision": "f32", "variant": "map-wise", "normalize": False, "dwc_enabled": False,
    "dwc_identity_branch": False, "dwc_use_merged": True, "inject_fault": True,
}


class TestLambdaSchedule:
    def test_constant(self):
        cfg = RunConfig(lambda_init=0.05)
        assert all(lambda_for_block(cfg, b) == 0.05 for b in range(cfg.blocks))

    def test_increasing_endpoints_and_midpoint(self):
        cfg = RunConfig(lambda_schedule="increasing")
        assert lambda_for_block(cfg, 0) == 0.2
        assert lambda_for_block(cfg, 4) == pytest.approx(0.5)
        assert lambda_for_block(cfg, 8) == 0.8

    def test_increasing_single_block(self):
        cfg = RunConfig.from_dict(
            {"preset": "small", "blocks": 1, "lambda_schedule": "increasing"}
        )
        assert lambda_for_block(cfg, 0) == 0.2

    def test_explicit_list(self):
        sched = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9]
        cfg = RunConfig.from_dict({"preset": "small", "lambda_schedule": sched})
        assert [lambda_for_block(cfg, b) for b in range(9)] == sched

    def test_block_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            lambda_for_block(RunConfig(), 9)

    def test_fewer_blocks_keep_the_first_schedule_entries(self):
        sched = [0.1 * b for b in range(1, 10)]
        cfg = RunConfig(lambda_schedule=sched)
        cut = cfg.with_overrides(blocks=3)
        assert cut.lambda_schedule == tuple(sched[:3])
        assert [lambda_for_block(cut, b) for b in range(3)] == sched[:3]
        # more blocks than entries is still an error: the cut never pads
        with pytest.raises(ConfigError, match="lambda_schedule list has 9 entries for 12"):
            cfg.with_overrides(blocks=12)


def _tiny(**over):
    base = {
        "preset": "custom", "dim": 8, "heads": 1, "blocks": 2,
        "n_projectors": 2, "n_kernel_factors": 2, "n_lambda_factors": 2,
        "grid": {"h": 4, "w": 6}, "seed": 3,
    }
    base.update(over)
    return RunConfig.from_dict(base)


class TestInitParams:
    def test_same_seed_is_byte_identical(self):
        a = init_params(_tiny())
        b = init_params(_tiny())
        assert a.blocks[1].proj.w_q0.tobytes() == b.blocks[1].proj.w_q0.tobytes()
        assert a.blocks[0].dwc.kernels.tobytes() == b.blocks[0].dwc.kernels.tobytes()

    def test_different_seed_differs(self):
        a = init_params(_tiny())
        b = init_params(_tiny(seed=4))
        assert not np.array_equal(a.blocks[0].proj.w_q0, b.blocks[0].proj.w_q0)

    def test_shapes_and_counts(self):
        cfg = _tiny(heads=2)
        stack = init_params(cfg)
        assert stack.depth == 2
        block = stack.blocks[0]
        assert block.proj.w_q0.shape == (8, 8)
        assert len(block.proj.w_q) == 2
        assert block.heads == 2
        hp = block.head_params[0]
        assert len(hp.kernel_q.gammas) == 2
        assert hp.kernel_q.router.weights.shape == (4, 2)
        assert hp.diff.router_q.weights.shape == (8, 2)
        assert block.dwc.kernels.shape == (8, 3, 3)
        assert block.grid == (4, 6)

    def test_gamma_and_lambda_init_values(self):
        stack = init_params(_tiny(gamma_init=2.5, lambda_init=0.125))
        hp = stack.blocks[0].head_params[0]
        assert hp.kernel_q.gammas == (2.5, 2.5)
        assert hp.diff.lambdas == (0.125, 0.125)

    def test_increasing_schedule_varies_lambda_by_block(self):
        stack = init_params(_tiny(lambda_schedule="increasing"))
        assert stack.blocks[0].head_params[0].diff.lambdas[0] == 0.2
        assert stack.blocks[1].head_params[0].diff.lambdas[0] == 0.8

    def test_precision_controls_dtype(self):
        stack = init_params(_tiny(precision="f32"))
        assert stack.blocks[0].proj.w_q0.dtype == np.float32
        assert stack.blocks[0].dwc.kernels.dtype == np.float32

    def test_dwc_disabled_and_merged(self):
        assert init_params(_tiny(dwc={"enabled": False})).blocks[0].dwc is None
        merged = init_params(_tiny(dwc={"enabled": True, "use_merged": True}))
        assert merged.blocks[0].dwc.use_merged

    def test_weight_bounds_follow_fan_in(self):
        stack = init_params(_tiny())
        bound = 1.0 / np.sqrt(8.0)
        w = stack.blocks[0].proj.w_q0
        assert np.all(np.abs(w) <= bound)
