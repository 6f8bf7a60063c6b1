import pytest

import dydila.attention
import dydila.differential
import dydila.projection
import dydila.routing
from dydila.attention import _SOFTMAX_ROWS
from dydila.bench import build_forward
from dydila.config import RunConfig
from dydila.flops import IMPLEMENTATIONS, config_flops, core_crossover, flops_estimate
from dydila.numerics import ConfigError

# (impl, variant) of every estimate; the map-wise dydila one's id is "mapwise"
CASES = [*(pytest.param(impl, "token-wise", id=impl) for impl in IMPLEMENTATIONS),
         pytest.param("dydila", "map-wise", id="mapwise")]


class TestCores:
    @pytest.mark.parametrize("n,d", [(64, 16), (1024, 64), (4096, 64), (16384, 64)])
    def test_softmax_core_is_quadratic(self, n, d):
        assert flops_estimate("softmax", n, d)["attention_core"] == 4 * n * n * d

    @pytest.mark.parametrize("impl", ["linear", "focused", "dydila"])
    @pytest.mark.parametrize("n,d,heads", [(64, 16, 1), (4096, 64, 1), (4096, 64, 4)])
    def test_linear_family_core_is_linear_in_n(self, impl, n, d, heads):
        parts = flops_estimate(impl, n, d, heads=heads)
        assert parts["attention_core"] == 4 * n * d * d // heads

    def test_mapwise_core_doubles(self):
        one = flops_estimate("dydila", 256, 32)["attention_core"]
        two = flops_estimate("dydila", 256, 32, variant="map-wise")["attention_core"]
        assert two == 2 * one

    def test_cores_cross_exactly_at_crossover(self):
        d = 48
        n_star = core_crossover(d)
        assert n_star == d
        n = int(n_star)
        soft = flops_estimate("softmax", n, d)["attention_core"]
        lin = flops_estimate("linear", n, d)["attention_core"]
        assert soft == lin
        assert flops_estimate("softmax", n + 1, d)["attention_core"] > \
            flops_estimate("linear", n + 1, d)["attention_core"]
        assert flops_estimate("softmax", n - 1, d)["attention_core"] < \
            flops_estimate("linear", n - 1, d)["attention_core"]

    def test_crossover_scales_with_heads(self):
        assert core_crossover(64, 4) == 16.0
        with pytest.raises(ConfigError):
            core_crossover(10, 3)


class TestTotals:
    @pytest.mark.parametrize("impl, variant", CASES)
    def test_total_sums_components(self, impl, variant):
        parts = flops_estimate(impl, 128, 32, variant=variant)
        assert parts["total"] == sum(v for k, v in parts.items() if k != "total")

    def test_all_counts_positive_ints(self):
        parts = flops_estimate("dydila", 64, 16, heads=2, n_projectors=3,
                               n_kernel_factors=9, n_lambda_factors=9)
        for key, val in parts.items():
            assert isinstance(val, int) and val > 0, key

    def test_dydila_component_budget(self):
        n, d, n_p, n_f, n_d = 64, 16, 3, 9, 9
        parts = flops_estimate("dydila", n, d, n_projectors=n_p,
                               n_kernel_factors=n_f, n_lambda_factors=n_d)
        assert parts["qkv_projection"] == 6 * n * d * d
        assert parts["routed_projection"] == 4 * n * d * d
        assert parts["projection_routing"] == 4 * n * d * n_p
        assert parts["kernel_routing"] == 8 * n * d * n_f
        assert parts["lambda_routing"] == 8 * n * d * n_d
        assert parts["dwc"] == 19 * n * d
        mapwise = flops_estimate("dydila", n, d, n_projectors=n_p, n_kernel_factors=n_f,
                                 n_lambda_factors=n_d, variant="map-wise")
        assert mapwise["lambda_routing"] == 4 * n * d * n_d

    def test_dwc_and_normalize_toggles(self):
        base = flops_estimate("dydila", 64, 16, dwc=False)
        assert "dwc" not in base and "normalizer" not in base
        normed = flops_estimate("dydila", 64, 16, dwc=False, normalize=True)
        assert normed["normalizer"] == 4 * 64 * 16

    def test_mapwise_normalizes_each_map(self):
        assert "normalizer" not in flops_estimate("dydila", 64, 16, variant="map-wise")
        normed = flops_estimate("dydila", 64, 16, normalize=True, variant="map-wise")
        assert normed["normalizer"] == 2 * 4 * 64 * 16

    def test_baselines_have_no_routing(self):
        for impl in ("softmax", "linear", "focused"):
            parts = flops_estimate(impl, 64, 16)
            assert "projection_routing" not in parts
            assert "lambda_routing" not in parts


class TestValidation:
    def test_unknown_impl(self):
        for impl in ("exact", "mapwise"):
            with pytest.raises(ConfigError, match="unknown impl"):
                flops_estimate(impl, 64, 16)

    def test_unknown_variant(self):
        # the baselines ignore the variant, but not an unknown one
        for impl in IMPLEMENTATIONS:
            with pytest.raises(ConfigError, match="variant"):
                flops_estimate(impl, 64, 16, variant="mapwise")

    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "d": 16}, {"n": 64, "d": -1}, {"n": 64, "d": 16, "heads": 0},
        {"n": 64, "d": 16, "heads": 3},
    ])
    def test_bad_dims(self, kwargs):
        with pytest.raises(ConfigError):
            flops_estimate("softmax", **kwargs)


# The flops_estimate components that are matmul products.
_MATMUL_COMPONENTS = ("qkv_projection", "routed_projection", "projection_routing",
                      "kernel_routing", "lambda_routing", "attention_core", "normalizer")


class TestLedger:
    """The matmul components of ``config_flops`` equal the 2 m k n that one
    ``build_forward`` pass makes, counted at every module's ``matmul``."""

    @staticmethod
    def _products(monkeypatch, forward):
        """``(module, m, k, n)`` of every matmul one call of ``forward`` makes."""
        log = []
        for module in (dydila.attention, dydila.differential, dydila.projection,
                       dydila.routing):
            real = module.matmul

            def counting(a, b, *, start=None, out=None, real=real, name=module.__name__):
                log.append((name, a.shape[0], a.shape[1], b.shape[1]))
                return real(a, b, start=start, out=out)

            monkeypatch.setattr(module, "matmul", counting)
        forward()
        monkeypatch.undo()
        return log

    @classmethod
    def _counted(cls, monkeypatch, forward):
        return sum(2 * m * k * n for _, m, k, n in cls._products(monkeypatch, forward))

    @pytest.mark.parametrize("impl,variant,heads,normalize,n", [
        *(pytest.param(*case.values, heads, normalize, 48,
                       id=f"{case.id}-{heads}-{normalize}-48")
          for case in CASES for heads in (1, 3)
          for normalize in ((False, True) if case.values[0] == "dydila" else (True,))),
        # the row blocks add no FLOPs
        pytest.param("softmax", "token-wise", 1, True, 2 * _SOFTMAX_ROWS + 37,
                     id=f"softmax-1-True-{2 * _SOFTMAX_ROWS + 37}"),
    ])
    def test_matmul_components_are_the_products_of_a_pass(self, monkeypatch, impl, variant,
                                                          heads, normalize, n):
        cfg = RunConfig.from_dict({"preset": "custom", "dim": 12, "heads": heads, "blocks": 1,
                                   "n_projectors": 2, "n_kernel_factors": 3,
                                   "n_lambda_factors": 2, "normalize": normalize,
                                   "variant": variant, "seed": 7})
        parts = config_flops(cfg, impl, n)
        want = sum(parts.get(name, 0) for name in _MATMUL_COMPONENTS)
        assert self._counted(monkeypatch, build_forward(cfg, impl, n)) == want

    @pytest.mark.parametrize("impl,variant,sizes,ratio", [
        *(pytest.param(*case.values, (4096, 16384), 4, id=f"{case.id}-sizes{i}-4")
          for i, case in enumerate(CASES[1:])),
        # 4096 and 16384 take seconds
        pytest.param("softmax", "token-wise", (1024, 4096), 16, id="softmax-sizes4-16"),
    ])
    def test_attention_core_scales_with_n(self, monkeypatch, impl, variant, sizes, ratio):
        # the count-based sibling of c08's timed bands: the core's products
        # are those of the attention and differential modules, less the
        # normalizer's (a ones row, or a single denominator column)
        cfg = RunConfig.from_dict({"preset": "custom", "dim": 12, "heads": 3, "blocks": 1,
                                   "n_projectors": 2, "n_kernel_factors": 3,
                                   "n_lambda_factors": 2, "normalize": True,
                                   "variant": variant, "seed": 7})
        cores = []
        for n in sizes:
            products = self._products(monkeypatch, build_forward(cfg, impl, n))
            cores.append(sum(2 * m * k * c for module, m, k, c in products
                             if module in ("dydila.attention", "dydila.differential")
                             and m > 1 and c > 1))
            assert cores[-1] == config_flops(cfg, impl, n)["attention_core"]
        assert cores[1] == ratio * cores[0]
